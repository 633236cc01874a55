//! Interval-sampling validation and speed report.
//!
//! For every preset workload under the recommended decoupled (4+2)
//! machine this binary
//!
//! 1. **validates** the sampling estimator: a full detailed run at
//!    `--budget` instructions is compared against
//!    [`dda_bench::sample_program_adaptive`] with the same budget, and
//!    the full run's CPI must fall inside the sampled confidence
//!    interval;
//! 2. **times** the payoff: at `--speed-budget` (default 3 M
//!    instructions, ten times the pipeline budget) the sampled run must
//!    be at least 5× faster in wall-clock time than full detail,
//!    aggregated across all workloads.
//!
//! The report is written to `BENCH_sampling.json` and the process exits
//! nonzero when either gate fails, so CI can run it directly. A sampled
//! run uses up to two threads (each window runs behind the next
//! fast-forward) while the full run uses one, so the report records
//! `host_cpus` beside the speedup, and `kernel_version` beside the CPIs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dda-bench --bin sampling [-- --quick]
//!     [--budget N] [--speed-budget N] [--windows K] [--window N]
//!     [--warmup N] [--confidence 90|95|99] [--no-warm]
//!     [--store DIR] [--out PATH] [--adaptive FRAC] [--max-windows N]
//! ```
//!
//! `--quick` restricts the run to one workload with tiny budgets and
//! skips the 5× speed gate (the CI smoke mode); `--store DIR` routes
//! window positioning through a content-addressed
//! [`dda_bench::CheckpointStore`], so a second invocation restores
//! instead of replaying. `--adaptive FRAC` grows the window count
//! geometrically (doubling, capped by `--max-windows`) until the CPI
//! confidence half-width is at most `FRAC` of the mean — the adaptive
//! mode of [`dda_bench::sample_program_adaptive`].

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dda_bench::{
    sample_program_adaptive, CheckpointStore, Confidence, SampledRun, SamplingConfig,
    KERNEL_VERSION,
};
use dda_core::{MachineConfig, Simulator};
use dda_workloads::Benchmark;

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: sampling [--quick] [--budget N] [--speed-budget N] [--windows K] \
         [--window N] [--warmup N] [--confidence 90|95|99] [--no-warm] [--store DIR] [--out PATH] \
         [--adaptive FRAC] [--max-windows N]"
    );
    std::process::exit(2);
}

/// A timed full-detail reference run.
struct FullRun {
    cpi: f64,
    committed: u64,
    secs: f64,
}

fn run_full(cfg: &MachineConfig, program: &Arc<dda_program::Program>, budget: u64) -> FullRun {
    let sim = Simulator::new(cfg.clone()).expect("valid machine configuration");
    let start = Instant::now();
    let res = sim
        .run_shared(Arc::clone(program), budget)
        .expect("workload executes cleanly");
    FullRun {
        cpi: res.cycles as f64 / res.committed.max(1) as f64,
        committed: res.committed,
        secs: start.elapsed().as_secs_f64().max(1e-9),
    }
}

fn run_sampled(
    cfg: &MachineConfig,
    program: &Arc<dda_program::Program>,
    scfg: &SamplingConfig,
    store: Option<&CheckpointStore>,
) -> (SampledRun, u32) {
    sample_program_adaptive(cfg, Arc::clone(program), scfg, store)
        .expect("workload samples cleanly")
}

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_sampling.json");
    let mut budget: u64 = 300_000;
    let mut speed_budget: u64 = 3_000_000;
    let mut shape = SamplingConfig::for_budget(0);
    let mut store_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut int = |what: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{what} needs an integer")))
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--no-warm" => shape.functional_warmup = false,
            "--budget" => budget = int("--budget"),
            "--speed-budget" => speed_budget = int("--speed-budget"),
            "--windows" => shape.windows = int("--windows") as usize,
            "--window" => shape.window_insts = int("--window"),
            "--warmup" => shape.warmup_insts = int("--warmup"),
            "--confidence" => {
                shape.confidence = Confidence::from_percent(int("--confidence") as u32)
                    .unwrap_or_else(|| usage("--confidence must be 90, 95 or 99"))
            }
            "--out" => out_path = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--store" => {
                store_dir = Some(args.next().unwrap_or_else(|| usage("--store needs a dir")))
            }
            "--adaptive" => {
                let frac: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f| *f > 0.0)
                    .unwrap_or_else(|| usage("--adaptive needs a positive fraction"));
                shape.adaptive_target = Some(frac);
            }
            "--max-windows" => shape.max_windows = int("--max-windows") as usize,
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let workloads: &[Benchmark] = if quick {
        budget = budget.min(40_000);
        speed_budget = speed_budget.min(200_000);
        shape.windows = shape.windows.min(4);
        shape.window_insts = shape.window_insts.min(1_000);
        shape.warmup_insts = shape.warmup_insts.min(500);
        &[Benchmark::Compress]
    } else {
        &Benchmark::ALL
    };
    if shape.windows < 2 {
        usage("--windows must be >= 2 for a finite confidence interval");
    }
    let store = store_dir.as_ref().map(|d| {
        CheckpointStore::open(d).unwrap_or_else(|e| usage(&format!("cannot open store {d}: {e}")))
    });

    // Fail on an unwritable report path now, not after minutes of timing.
    if let Err(e) = std::fs::write(&out_path, "") {
        usage(&format!("cannot write {out_path}: {e}"));
    }

    let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"kernel_version\": {KERNEL_VERSION},\n  \"host_cpus\": {host_cpus},\n  \
         \"budget\": {budget},\n  \"speed_budget\": {speed_budget},\n  \"quick\": {quick},\n  \
         \"machine\": \"decoupled_4p2_opt\",\n  \
         \"sampling\": {{\"windows\": {}, \"window_insts\": {}, \"warmup_insts\": {}, \
         \"confidence_pct\": {}, \"functional_warmup\": {}}},\n",
        shape.windows,
        shape.window_insts,
        shape.warmup_insts,
        shape.confidence.percent(),
        shape.functional_warmup,
    );
    let _ = writeln!(
        json,
        "  \"adaptive\": {{\"target_rel_half_width\": {}, \"max_windows\": {}}},",
        shape
            .adaptive_target
            .map_or("null".to_string(), |t| format!("{t}")),
        shape.max_windows,
    );

    // Phase 1 — validation: sampled CPI interval must cover the full run.
    let mut all_within = true;
    json.push_str("  \"validation\": [\n");
    for (wi, &bench) in workloads.iter().enumerate() {
        let program = Arc::new(bench.program(u32::MAX / 2));
        let full = run_full(&cfg, &program, budget);
        let scfg = SamplingConfig {
            budget,
            ..shape.clone()
        };
        let (s, rounds) = run_sampled(&cfg, &program, &scfg, store.as_ref());
        let within = s.cpi.contains(full.cpi);
        all_within &= within;
        let err_pct = (s.cpi.mean - full.cpi).abs() / full.cpi * 100.0;
        eprintln!(
            "[sampling] {}: full CPI {:.4}, sampled {:.4} ± {:.4} ({} windows) — {}",
            bench.name(),
            full.cpi,
            s.cpi.mean,
            s.cpi.half_width,
            s.windows.len(),
            if within { "within CI" } else { "OUTSIDE CI" },
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"full_cpi\": {:.6}, \"full_committed\": {}, \
             \"full_secs\": {:.4}, \"sampled_cpi\": {:.6}, \"ci_half_width\": {:.6}, \
             \"within_ci\": {within}, \"abs_err_pct\": {err_pct:.3}, \"windows\": {}, \
             \"adaptive_rounds\": {rounds}, \
             \"detailed_insts\": {}, \"fast_forwarded\": {}, \"halted_early\": {}, \
             \"sampled_secs\": {:.4}}}{}",
            bench.name(),
            full.cpi,
            full.committed,
            full.secs,
            s.cpi.mean,
            s.cpi.half_width,
            s.windows.len(),
            s.detailed_insts,
            s.fast_forwarded,
            s.halted_early,
            s.host_secs,
            if wi + 1 < workloads.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ],\n  \"all_within_ci\": {all_within},\n");

    // Phase 2 — speed: sampled wall-time vs full detail at paper scale.
    let mut full_secs = 0.0f64;
    let mut sampled_secs = 0.0f64;
    json.push_str("  \"speed\": [\n");
    for (wi, &bench) in workloads.iter().enumerate() {
        let program = Arc::new(bench.program(u32::MAX / 2));
        let full = run_full(&cfg, &program, speed_budget);
        let scfg = SamplingConfig {
            budget: speed_budget,
            ..shape.clone()
        };
        let (s, _) = run_sampled(&cfg, &program, &scfg, store.as_ref());
        let speedup = full.secs / s.host_secs.max(1e-9);
        full_secs += full.secs;
        sampled_secs += s.host_secs;
        eprintln!(
            "[sampling] {} @ {speed_budget}: full {:.2}s vs sampled {:.2}s ({speedup:.1}x)",
            bench.name(),
            full.secs,
            s.host_secs,
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"full_secs\": {:.4}, \"sampled_secs\": {:.4}, \
             \"speedup\": {speedup:.2}, \"sampled_cpi\": {:.6}, \"detailed_insts\": {}}}{}",
            bench.name(),
            full.secs,
            s.host_secs,
            s.cpi.mean,
            s.detailed_insts,
            if wi + 1 < workloads.len() { "," } else { "" },
        );
    }
    let aggregate = full_secs / sampled_secs.max(1e-9);
    let speed_ok = quick || aggregate >= 5.0;
    let _ = write!(
        json,
        "  ],\n  \"total_full_secs\": {full_secs:.4},\n  \
         \"total_sampled_secs\": {sampled_secs:.4},\n  \
         \"aggregate_speedup\": {aggregate:.2},\n  \"speedup_ok\": {speed_ok}\n}}\n",
    );
    std::fs::write(&out_path, &json).expect("report path was verified writable");
    eprintln!(
        "[sampling] aggregate speedup {aggregate:.1}x, all_within_ci = {all_within}; \
         report in {out_path}"
    );
    if !all_within || !speed_ok {
        eprintln!("[sampling] FAILED: validation or speed gate missed");
        std::process::exit(1);
    }
}
