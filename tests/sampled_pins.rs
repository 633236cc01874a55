//! Sampled runs pinned end to end.
//!
//! `sample_program_stored` overlaps each detailed window with the
//! fast-forward to the next window start. These pins hold what a sampled
//! run returns, and what it leaves in a checkpoint store, to the values a
//! one-thread driver produced: the encoded cell of three benchmarks (cold
//! without a store, cold into a store, warm from it), a window that
//! deadlocks, a fast-forward that traps after a window, and a program
//! that halts inside a window's warm-up. A window shorter than a commit
//! group is refused with a typed error before anything runs.

use std::path::PathBuf;
use std::sync::Arc;

use dda::core::{ConfigError, MachineConfig, SimError, Trap};
use dda::isa::Gpr;
use dda::program::{FunctionBuilder, Program, ProgramBuilder};
use dda::stats::fnv1a64;
use dda::vm::VmError;
use dda::workloads::Benchmark;
use dda_bench::{
    sample_program, sample_program_stored, CellOutcome, CheckpointStore, SampledCell, SampledRun,
    SamplingConfig,
};

/// A fresh, empty checkpoint store under the system temp dir.
fn fresh_store(tag: &str) -> (PathBuf, CheckpointStore) {
    let dir = std::env::temp_dir().join(format!("dda-sampled-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    (dir, store)
}

/// FNV-1a 64 of the run as a DSE store records it.
fn cell_fnv(run: &SampledRun) -> u64 {
    fnv1a64(&CellOutcome::Sampled(SampledCell::from_run(run, 1)).to_bytes())
}

/// `(cell FNV, fast_forwarded, detailed_insts, halted_early)`.
fn summary(run: &SampledRun) -> (u64, u64, u64, bool) {
    (
        cell_fnv(run),
        run.fast_forwarded,
        run.detailed_insts,
        run.halted_early,
    )
}

fn optimized() -> MachineConfig {
    MachineConfig::n_plus_m(4, 2).with_optimizations()
}

/// Per benchmark: the cell FNV, `fast_forwarded` cold, `detailed_insts`,
/// and the number of checkpoint files a cold run leaves in a store.
const BENCH_PINS: [(Benchmark, u64, u64, u64, usize); 3] = [
    (
        Benchmark::Compress,
        0x7f30_dce0_1c54_d6b9,
        300_000,
        48_000,
        9,
    ),
    (Benchmark::Li, 0x7e1c_298a_f464_e8e6, 300_000, 48_000, 9),
    (Benchmark::Vortex, 0x75fe_e85c_c662_d260, 300_000, 48_000, 9),
];

#[test]
fn sampled_benchmarks_are_pinned_cold_and_warm() {
    let scfg = SamplingConfig::for_budget(300_000);
    for (bench, fnv, ff, detailed, files) in BENCH_PINS {
        let program = Arc::new(bench.program(u32::MAX / 2));
        let plain = sample_program(&optimized(), Arc::clone(&program), &scfg).unwrap();
        let (dir, store) = fresh_store(&format!("{bench:?}"));
        let cold =
            sample_program_stored(&optimized(), Arc::clone(&program), &scfg, Some(&store)).unwrap();
        let stored = store.len().unwrap();
        let warm = sample_program_stored(&optimized(), program, &scfg, Some(&store)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            summary(&plain),
            (fnv, ff, detailed, false),
            "{bench:?} cold"
        );
        assert_eq!(
            summary(&cold),
            (fnv, ff, detailed, false),
            "{bench:?} into a store"
        );
        assert_eq!(summary(&warm), (fnv, 0, detailed, false), "{bench:?} warm");
        assert_eq!(stored, files, "{bench:?}: checkpoint files");
    }
}

#[test]
fn a_deadlocking_window_is_pinned() {
    // The watchdog fires before an L2 hit returns.
    let cfg = optimized().with_deadlock_window(8);
    let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
    let (dir, store) = fresh_store("deadlock");
    let scfg = SamplingConfig::for_budget(300_000);
    let err = sample_program_stored(&cfg, program, &scfg, Some(&store)).unwrap_err();
    let files = store.len().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(matches!(err, SimError::Deadlock(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "deadlock: no commit for 8 cycles (cycle 14, 11 committed)"
    );
    // The first window start was checkpointed before its window ran.
    assert_eq!(files, 1);
}

/// `main` counts `$t0` down from `iterations` in a two-instruction loop,
/// then runs `tail`.
fn countdown(iterations: i32, tail: impl FnOnce(&mut FunctionBuilder)) -> Arc<Program> {
    let mut main = FunctionBuilder::new("main");
    main.load_imm(Gpr::T0, iterations);
    let top = main.label_here();
    main.addi(Gpr::T0, Gpr::T0, -1);
    main.bnez(Gpr::T0, top);
    tail(&mut main);
    let mut b = ProgramBuilder::new();
    b.add_function(main);
    Arc::new(b.build().unwrap())
}

fn small_plan(budget: u64) -> SamplingConfig {
    SamplingConfig {
        windows: 4,
        window_insts: 1_000,
        warmup_insts: 500,
        budget,
        ..SamplingConfig::for_budget(budget)
    }
}

#[test]
fn a_trap_in_fast_forward_after_a_window_is_pinned() {
    // ~60 000 instructions, then a return with no call; windows start
    // every 50 000, so the trap lies on the way to the third start.
    let program = countdown(30_000, |f| {
        f.ret();
    });
    let err = sample_program(&optimized(), program, &small_plan(200_000)).unwrap_err();
    assert_eq!(
        err,
        SimError::Trap(Trap {
            kind: VmError::ReturnWithoutCall { pc: 3 },
            cycle: 0,
            committed: 60_001,
        })
    );
}

#[test]
fn a_halt_inside_a_warm_up_is_pinned() {
    // ~20 200 instructions, then halt; windows start every 10 000, so the
    // third window halts 200 instructions into its 500-instruction warm-up.
    let program = countdown(10_100, |f| {
        f.halt();
    });
    let scfg = small_plan(40_000);
    let plain = sample_program(&optimized(), Arc::clone(&program), &scfg).unwrap();
    let (dir, store) = fresh_store("halt");
    let cold = sample_program_stored(&optimized(), Arc::clone(&program), &scfg, Some(&store));
    let files = store.len().unwrap();
    let warm = sample_program_stored(&optimized(), program, &scfg, Some(&store));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm) = (cold.unwrap(), warm.unwrap());
    // The warm run restores the third start and replays only from there
    // to the halt.
    for (run, ff) in [(&plain, 20_202), (&cold, 20_202), (&warm, 202)] {
        assert_eq!(run.windows.len(), 2);
        assert_eq!(
            summary(run),
            (0xd59f_a425_c315_545f, ff, 3_202, true),
            "fast_forwarded {ff}"
        );
    }
    // Starts 0, 10 000 and 20 000; nothing at or after the halt.
    assert_eq!(files, 3);
}

#[test]
fn a_window_shorter_than_a_commit_group_is_rejected() {
    // The warm-up could end inside a commit group that also covers the
    // whole window, which would then measure nothing without a halt. Such
    // a window is refused before anything is replayed or stored.
    let program = countdown(100_000, |f| {
        f.halt();
    });
    let commit_width = optimized().commit_width;
    assert_eq!(commit_width, 16);
    for window_insts in [0, 1, 15] {
        let scfg = SamplingConfig {
            window_insts,
            warmup_insts: 503,
            ..small_plan(40_000)
        };
        let want = SimError::Config(ConfigError::WindowShorterThanCommitGroup {
            window_insts,
            commit_width,
        });
        let plain = sample_program(&optimized(), Arc::clone(&program), &scfg);
        assert_eq!(plain.unwrap_err(), want);
        let (dir, store) = fresh_store("short-window");
        let stored = sample_program_stored(&optimized(), Arc::clone(&program), &scfg, Some(&store));
        let files = store.len().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(stored.unwrap_err(), want);
        assert_eq!(files, 0, "nothing is replayed or checkpointed");
    }
    assert_eq!(
        SimError::Config(ConfigError::WindowShorterThanCommitGroup {
            window_insts: 1,
            commit_width,
        })
        .to_string(),
        "invalid machine configuration: sampling window of 1 instructions is \
         shorter than a commit group (16 instructions)"
    );
    // A window of exactly one commit group measures every window.
    let scfg = SamplingConfig {
        window_insts: u64::from(commit_width),
        warmup_insts: 503,
        ..small_plan(40_000)
    };
    let run = sample_program(&optimized(), program, &scfg).unwrap();
    assert_eq!(run.windows.len(), 4);
    assert!(run.windows.iter().all(|w| w.committed > 0));
}
