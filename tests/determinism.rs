//! Determinism regression tests.
//!
//! The incremental scheduler kernel (worklists, scan cursors, the event
//! wheel) must be a pure wall-clock optimization: repeated runs and the
//! rescan-per-cycle reference kernel must all produce the *full*
//! [`SimResult`] bit for bit — every counter, histogram and cache
//! statistic, not just IPC.

use std::sync::Arc;

use dda::core::{MachineConfig, SimResult, Simulator};
use dda::mem::FunctionalWarmup;
use dda::vm::Vm;
use dda::workloads::Benchmark;

const BUDGET: u64 = 40_000;

fn run(bench: Benchmark, cfg: &MachineConfig) -> SimResult {
    let program = bench.program(u32::MAX / 2);
    Simulator::new(cfg.clone())
        .unwrap()
        .run(&program, BUDGET)
        .expect("benchmark executes cleanly")
}

/// The machine configurations the paper's figures sweep most often.
fn configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig::iscapaper_base(),
        MachineConfig::n_plus_m(2, 2),
        MachineConfig::n_plus_m(4, 2).with_optimizations(),
    ]
}

#[test]
fn repeated_runs_are_bit_identical() {
    // The translation-cache counters of the front-end must repeat too.
    let detailed = |bench: Benchmark, cfg: &MachineConfig| {
        Simulator::new(cfg.clone())
            .unwrap()
            .run_shared_detailed(Arc::new(bench.program(u32::MAX / 2)), BUDGET)
            .expect("benchmark executes cleanly")
    };
    for bench in [Benchmark::Compress, Benchmark::Li, Benchmark::Swim] {
        for cfg in configs() {
            let (a, tcache_a) = detailed(bench, &cfg);
            let (b, tcache_b) = detailed(bench, &cfg);
            assert_eq!(a, b, "{bench}: two identical runs diverged");
            assert_eq!(tcache_a, tcache_b, "{bench}: front-end counters diverged");
            assert_eq!(
                run(bench, &cfg),
                a,
                "{bench}: run diverged from run_shared_detailed"
            );
        }
    }
}

#[test]
fn shared_program_runs_match_owned_program_runs() {
    let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
    for bench in [Benchmark::Compress, Benchmark::Vortex] {
        let program = bench.program(u32::MAX / 2);
        let owned = Simulator::new(cfg.clone())
            .unwrap()
            .run(&program, BUDGET)
            .expect("runs");
        let shared = Simulator::new(cfg.clone())
            .unwrap()
            .run_shared(Arc::new(program), BUDGET)
            .expect("runs");
        assert_eq!(
            owned, shared,
            "{bench}: Arc-shared program changed the result"
        );
    }
}

#[test]
fn incremental_kernel_matches_reference_kernel() {
    for bench in Benchmark::ALL {
        for mut cfg in configs() {
            cfg.reference_kernel = false;
            let fast = run(bench, &cfg);
            cfg.reference_kernel = true;
            let reference = run(bench, &cfg);
            assert_eq!(
                fast, reference,
                "{bench}: incremental kernel diverged from the reference kernel"
            );
        }
    }
}

/// The two entry points besides `run` that reach the kernels: a detailed
/// window handed off from a functionally warmed, fast-forwarded VM (the
/// sampling driver's flow; the warm-up mark drains the fast kernel's
/// flat occupancy counters, the reference kernel keeps per-cycle
/// histograms), and a traced run (per-instruction stage times through
/// the one fetch buffer both kernels share).
#[test]
fn windowed_and_traced_runs_match_reference_kernel() {
    const SKIP: u64 = 30_000;
    const WARMUP: u64 = 5_000;
    const WINDOW: u64 = 15_000;
    let base = MachineConfig::iscapaper_base();
    let optimized = MachineConfig::n_plus_m(4, 2).with_optimizations();
    for bench in [Benchmark::Compress, Benchmark::Li, Benchmark::Vortex] {
        let program = bench.program(u32::MAX / 2);
        for cfg in [&base, &optimized] {
            let mut warm = FunctionalWarmup::new(&cfg.hierarchy);
            let mut vm = Vm::new(program.clone());
            vm.fast_forward_observed(SKIP, |d| {
                if let Some(m) = &d.mem {
                    warm.touch(m.addr, m.is_store, m.is_local());
                }
            })
            .expect("fast-forward executes cleanly");
            let tags = warm.tags();
            let kernels = [false, true].map(|reference| {
                let mut c = cfg.clone();
                c.reference_kernel = reference;
                Simulator::new(c).unwrap()
            });
            let [fast, reference] = kernels.each_ref().map(|sim| {
                sim.run_window(vm.clone(), Some(&tags), WARMUP, WINDOW)
                    .expect("window executes cleanly")
            });
            assert!(fast.window.committed > 0, "{bench}: empty window");
            assert_eq!(
                fast.total, reference.total,
                "{bench}: windowed run diverged from the reference kernel"
            );
            assert_eq!(
                fast.window, reference.window,
                "{bench}: measured window diverged from the reference kernel"
            );
            let [fast, reference] = kernels.each_ref().map(|sim| {
                sim.run_traced(&program, 4_000, 4_000)
                    .expect("traced run executes cleanly")
            });
            assert_eq!(fast.0, reference.0, "{bench}: traced run diverged");
            assert_eq!(fast.1.len(), 4_000, "{bench}: trace cut short");
            assert_eq!(
                fast.1, reference.1,
                "{bench}: instruction traces diverged from the reference kernel"
            );
        }
    }
}
