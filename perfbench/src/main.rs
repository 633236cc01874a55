//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the simulator crates' public API as a
//! single closed-loop client (one request, pass or campaign at a time;
//! at most one pool worker per CPU), checks every output, and prints as
//! its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`, their times corrected for the host's speed (see
//! `calib`); `--trace 1` alternates untraced and traced
//! iterations of the workload and reports the per-layer metrics, the
//! tracing overhead being the difference between the two kinds. The
//! exit code is non-zero when any output check fails. See `README.md`.

mod calib;
mod fuzz;
mod host;
mod json;
mod layers;
mod metrics;
mod sampled;
mod stats;
mod sweep;
mod trace;

use std::path::Path;
use std::time::Instant;

use calib::Calibrator;
use host::WorkDir;
use metrics::{MetricSet, END_TO_END, PER_LAYER};
use trace::Tracer;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Times set-up is repeated per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed iterations per phase, however long each takes.
const MIN_ITERS: usize = 3;

/// Spans a traced run keeps in memory. Reaching it ends the traced phase
/// early, so a workload of many tiny iterations (`warm-resweep`) traces a
/// few seconds rather than growing the trace without bound.
const SPAN_CAP: usize = 400_000;

/// What every workload run shares.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Pool workers (never more than the host's CPUs).
    pub workers: usize,
    /// Scratch directory for stores, removed at exit.
    pub work: WorkDir,
}

/// One timed iteration of a workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Step {
    /// Units of work completed (cells, benchmarks sampled, fuzz inputs).
    pub cells: u64,
    /// Simulated instructions the iteration delivered results for.
    pub insts: u64,
    /// Host seconds inside the timed entry-point call(s).
    pub secs: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of every simulated statistic the iteration produced.
    pub digest: u64,
}

/// A benchmark workload: set-up, a timed iteration (plain and traced),
/// final output checks, and the per-layer metrics of the traced run.
pub trait Workload: Sized {
    /// Generates inputs, opens stores and runs one warm-up iteration whose
    /// outputs become the reference every timed iteration is checked
    /// against.
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// One untraced iteration; `Err` when an output check fails.
    fn step(&mut self, ctx: &Ctx, i: usize) -> Result<Step, String>;
    /// The same iteration, with spans recorded into `tr`.
    fn traced_step(&mut self, ctx: &Ctx, i: usize, tr: &Tracer) -> Result<Step, String>;
    /// Output checks run once, outside the timed phase.
    fn check(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// Derives the per-layer metrics from `tr` (`iters` traced
    /// iterations) plus any untimed probes.
    fn layers(
        &mut self,
        ctx: &Ctx,
        tr: &Tracer,
        iters: usize,
        m: &mut MetricSet,
    ) -> Result<(), String>;
    /// Fingerprints of the machine configurations the workload runs.
    fn config_fingerprints(&self) -> Vec<(String, u64)>;
    /// A fixed number of iterations for a run of `secs`, for a workload
    /// whose iterations differ in their inputs: a faster build then times
    /// the same inputs rather than more of them. `None` runs iterations
    /// for `secs` of wall time.
    fn iterations(_secs: f64) -> Option<usize> {
        None
    }
    /// Whether the rate is a typical iteration's (see [`rate`]) rather
    /// than the whole run's: for a workload whose iterations differ in
    /// work, with a heavy tail.
    const TYPICAL_RATE: bool = false;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            metrics::WORKLOADS
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Iterations of one phase: at least [`MIN_ITERS`]; then `fixed` of
/// them when given, else until `secs` of wall time have passed or
/// `full()` says to stop. A calibration pass runs between iterations
/// whenever one is due.
fn phase(
    secs: f64,
    fixed: Option<usize>,
    cal: &mut Calibrator,
    full: impl Fn() -> bool,
    mut step: impl FnMut(usize) -> Result<Step, String>,
) -> Result<Vec<Step>, String> {
    let t0 = Instant::now();
    let more = |n: usize| match fixed {
        Some(f) => n < f,
        None => t0.elapsed().as_secs_f64() < secs && !full(),
    };
    let mut out = Vec::new();
    while out.len() < MIN_ITERS || more(out.len()) {
        cal.due();
        out.push(step(out.len())?);
    }
    Ok(out)
}

/// The rate of a run: work over seconds, both summed over its
/// iterations, so that a slow spell of the host weighs in it as it does
/// in the calibration passes (see `calib`). With `typical` it is a
/// typical iteration's rate instead: the median work per iteration over
/// the median seconds per iteration. When work varies between iterations
/// (fuzz campaigns do), this is steadier than the median of per-iteration
/// ratios, whose two factors move together.
fn rate(steps: &[Step], typical: bool, work: impl Fn(&Step) -> f64) -> f64 {
    let w: Vec<f64> = steps.iter().map(&work).collect();
    let t: Vec<f64> = steps.iter().map(|s| s.secs).collect();
    match typical {
        true => stats::median(&w) / stats::median(&t).max(1e-12),
        false => w.iter().sum::<f64>() / t.iter().sum::<f64>().max(1e-12),
    }
}

/// Fails unless every traced iteration reproduced the untraced
/// iteration of the same index bit for bit.
fn same_results(plain: &[Step], traced: &[Step]) -> Result<(), String> {
    for (i, (p, t)) in plain.iter().zip(traced).enumerate() {
        if p.digest != t.digest {
            return Err(format!(
                "traced iteration {i} digest {:016x} differs from untraced {:016x}",
                t.digest, p.digest
            ));
        }
    }
    Ok(())
}

/// Pool workers: one per CPU, or `DDA_WORKERS` when set. `DseService`
/// sizes its pool from the same variable, so a value above the CPU count
/// is refused: capping it here alone would leave the timed requests
/// running more workers than CPUs, and the provenance line wrong.
fn workers() -> Result<usize, String> {
    let (n, cpus) = (dda_bench::pool::host_parallelism(), host::host_cpus());
    if n > cpus {
        return Err(format!(
            "DDA_WORKERS={n} is more than the {cpus} CPUs; lower or unset it"
        ));
    }
    Ok(n)
}

/// Bytes in MiB.
fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn run<W: Workload>(args: &Args) -> Result<i32, String> {
    let mut cal = Calibrator::new();
    let ctx = Ctx {
        seed: args.seed,
        workers: workers()?,
        work: WorkDir::create(&args.workload).map_err(|e| format!("work dir: {e}"))?,
    };
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        cal.pass();
        let t = Instant::now();
        let w = W::setup(&ctx)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        state = Some(w);
    }
    let Some(mut w) = state else {
        return Err("no set-up ran".into());
    };

    let mut problems: Vec<String> = Vec::new();
    let tracer = Tracer::new();
    let timed = if args.trace {
        // Untraced and traced iterations alternate, so drift in host speed
        // during the run falls on both sides of the overhead figure alike.
        // Which of the two runs first alternates too, so neither gains
        // from following the other over the same inputs.
        let mut plain = Vec::new();
        // A fixed count is split between the two kinds.
        phase(
            args.seconds,
            W::iterations(args.seconds).map(|n| n.div_ceil(2)),
            &mut cal,
            || tracer.len() >= SPAN_CAP,
            |i| {
                if i % 2 == 0 {
                    plain.push(w.step(&ctx, i)?);
                    w.traced_step(&ctx, i, &tracer)
                } else {
                    let traced = w.traced_step(&ctx, i, &tracer)?;
                    plain.push(w.step(&ctx, i)?);
                    Ok(traced)
                }
            },
        )
        .map(|traced| (plain, traced))
    } else {
        phase(
            args.seconds,
            W::iterations(args.seconds),
            &mut cal,
            || false,
            |i| w.step(&ctx, i),
        )
        .map(|plain| (plain, Vec::new()))
    };
    // A check failing inside an iteration ends the run without a result.
    let (plain, traced) = match timed {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: CHECK FAILED: {e}");
            return Ok(1);
        }
    };
    if let Err(e) = same_results(&plain, &traced) {
        problems.push(e);
    }
    if let Err(e) = w.check(&ctx) {
        problems.push(e);
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|s| s.attempted).sum();
    let failed: u64 = all.map(|s| s.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    // Host-time figures of the untraced iterations, as measured.
    let raw_setup_s = stats::median(&setup_secs);
    let raw_cells_per_s = rate(&plain, W::TYPICAL_RATE, |s| s.cells as f64);
    let raw_mips = rate(&plain, W::TYPICAL_RATE, |s| s.insts as f64 / 1e6);
    let out = if args.trace {
        let mut m = MetricSet::new(&PER_LAYER);
        w.layers(&ctx, &tracer, traced.len(), &mut m)?;
        let traced_rate = rate(&traced, W::TYPICAL_RATE, |s| s.cells as f64);
        m.set(
            "trace.overhead_pct",
            (raw_cells_per_s / traced_rate - 1.0) * 100.0,
        );
        m.set("host.peak_rss_mb", host::peak_rss_mb());
        m.set("host.calib_ms", cal.mean_pass_s() * 1e3);
        m.set(
            "trace.iter_s",
            stats::median(&traced.iter().map(|s| s.secs).collect::<Vec<_>>()),
        );
        m
    } else {
        // Times read as reference-host seconds (see `calib`); the raw
        // figures are printed beside the result line.
        let f = cal.factor();
        let mut m = MetricSet::new(&END_TO_END);
        m.set("setup_s", raw_setup_s / f);
        m.set("cells_per_s", raw_cells_per_s * f);
        m.set("mips", raw_mips * f);
        m.set("peak_heap_mb", host::peak_heap_mb() - mib(cal.bytes()));
        m
    };

    let prov = host::provenance(
        &args.workload,
        args.seed,
        ctx.workers,
        &w.config_fingerprints(),
    );
    let digest = plain.first().map_or(0, |s| s.digest);
    println!("provenance {}", prov.render());
    let secs: Vec<String> = plain.iter().map(|s| format!("{:.4}", s.secs)).collect();
    println!(
        "iterations untraced={} traced={} setup_reps={} setup_s=[{}] iter_s=[{}]",
        plain.len(),
        traced.len(),
        SETUP_REPS,
        setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        secs.join(" ")
    );
    println!(
        "calibration passes={} mean_pass_s={:.5} factor={:.4} raw setup_s={:.4} cells_per_s={:.4} mips={:.4}",
        cal.passes(),
        cal.mean_pass_s(),
        cal.factor(),
        raw_setup_s,
        raw_cells_per_s,
        raw_mips
    );
    println!("sim_digest {digest:016x}");
    if args.trace {
        let path =
            Path::new(".bench_work").join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        let header = format!("{} sim_digest={digest:016x}", prov.render());
        match tracer.write_tsv(&path, &header) {
            Ok(()) => println!("spans {} written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", metrics::result_line(correct, attempted, failed, &out));
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let code = parse_args()
        .and_then(|args| {
            metrics::load_manifest(Path::new("BENCHMARK.json"))?;
            match args.workload.as_str() {
                "detailed-sweep" => run::<sweep::DetailedSweep>(&args),
                "warm-resweep" => run::<sweep::WarmResweep>(&args),
                "sampled-long" => run::<sampled::SampledLong>(&args),
                _ => run::<fuzz::FuzzDifferential>(&args),
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            2
        });
    std::process::exit(code);
}
