//! Memoized design-space exploration (DSE).
//!
//! A configuration sweep re-simulates points it has already simulated —
//! across reruns, across overlapping figure grids, across users of the
//! same store. This module removes that waste without touching a single
//! measured number:
//!
//! 1. a **content-addressed [`ResultStore`]**: every simulation outcome
//!    is persisted under a [`result_key`] — the FNV-1a of the
//!    result-affecting configuration rendering, the program fingerprint,
//!    the workload seed, the run plan, and [`KERNEL_VERSION`] — so a
//!    probe either misses (and the cell is simulated, then saved) or
//!    hits with bytes proven bit-identical to a fresh run (`tests/
//!    dse_cache.rs` enforces this over randomized matrices, fault-RNG
//!    draw order included);
//! 2. a **job engine** on [`pool::run_tasks`]: a [`DseRequest`] expands
//!    to a deduplicated cell list, cache hits stream back immediately,
//!    and only the misses are simulated (panic-isolated, sharing one
//!    [`CheckpointStore`] of fast-forward positions across workers).
//!
//! [`DseService`] is the in-process API: a caller builds a
//! [`DseRequest`] (or a list of [`DseCell`]s) and receives one
//! [`CellReport`] per cell, through [`DseService::run_request`] or as
//! each result lands through [`DseService::run_streaming`]:
//!
//! ```
//! use dda_bench::dse::DEFAULT_SEED;
//! use dda_bench::{DseRequest, DseService, ResultStore, RunPlan};
//! use dda_workloads::Benchmark;
//!
//! let dir = std::env::temp_dir().join(format!("dda-dse-doc-{}", std::process::id()));
//! let svc = DseService::new(ResultStore::open(&dir)?, None);
//! let req = DseRequest {
//!     benches: vec![Benchmark::Compress],
//!     grid: vec![(2, 0), (4, 2)], // (N+M): N L1 ports, M LVC ports
//!     combining: vec![2],
//!     fast_forward: vec![true],
//!     lvc_bytes: None,
//!     seed: DEFAULT_SEED,
//!     plan: RunPlan::Full { budget: 2_000 },
//! };
//! let (cold, summary) = svc.run_request(&req);
//! assert_eq!(summary.misses, 2);
//! for rep in &cold {
//!     let cpi = rep.outcome.as_ref().map_or(f64::NAN, |o| o.cpi());
//!     println!("{} {} cpi={cpi:.3}", rep.label, rep.status.as_str());
//! }
//! // The same request again is served from the store.
//! let (_, warm) = svc.run_request(&req);
//! assert_eq!((warm.hits, warm.sim_insts), (2, 0));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The cache key deliberately includes a kernel version: any change to
//! the simulator that may alter counters bumps [`KERNEL_VERSION`] and
//! every stored record silently becomes a miss. Corrupt records degrade
//! to misses too — the store is a cache, never a source of truth.

use std::collections::{HashMap, HashSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

use dda_core::{MachineConfig, SimError, SimResult, Simulator};
use dda_program::Program;
use dda_stats::{fnv1a64, ByteReader, ByteWriter, DecodeError};
use dda_workloads::Benchmark;

use crate::campaign::panic_message;
use crate::checkpoint::{program_fingerprint, CheckpointStore};
use crate::pool;
use crate::sampling::{sample_program_adaptive, Estimate, SamplingConfig, WindowSample};
use crate::store::RecordDir;

/// Version of the simulation kernel as far as *cached results* are
/// concerned. Part of every [`result_key`]: bump it whenever a simulator
/// change may alter any counter, and every previously stored record
/// becomes an automatic miss. (Wall-clock-only changes — schedulers
/// proven bit-identical, pool sizing, logging — do not bump it.)
pub const KERNEL_VERSION: u32 = 1;

/// Suggested committed-instruction budget of a full-run request.
pub const DEFAULT_BUDGET: u64 = 30_000;

/// Default workload scale ("seed") — the same `u32::MAX / 2` every other
/// driver in the tree uses, so DSE results share checkpoints with them.
pub const DEFAULT_SEED: u32 = u32::MAX / 2;

// ------------------------------------------------------------ run plan --

/// How each cell of a request is measured.
#[derive(Clone, Debug)]
pub enum RunPlan {
    /// Full detailed simulation to a committed-instruction budget.
    Full {
        /// Committed-instruction budget of each run.
        budget: u64,
    },
    /// Interval sampling ([`sample_program_adaptive`]) under this shape.
    Sampled(SamplingConfig),
}

impl RunPlan {
    /// Stable textual rendering of the plan — part of the cache key, so
    /// any field that changes what is measured must appear here.
    fn plan_text(&self) -> String {
        match self {
            RunPlan::Full { budget } => format!("full@{budget}"),
            RunPlan::Sampled(s) => format!(
                "sampled k={} w={} warm={} budget={} conf={} fwarm={} adaptive={:?} cap={}",
                s.windows,
                s.window_insts,
                s.warmup_insts,
                s.budget,
                s.confidence.percent(),
                s.functional_warmup,
                s.adaptive_target,
                s.max_windows
            ),
        }
    }
}

/// The content address of one simulation outcome: FNV-1a 64 over a
/// stable text combining everything the result depends on — kernel
/// version, result-affecting configuration fields
/// ([`MachineConfig::result_fingerprint_text`]), program content, the
/// workload seed, and the run plan.
pub fn result_key(
    kernel_version: u32,
    cfg: &MachineConfig,
    program_hash: u64,
    seed: u32,
    plan: &RunPlan,
) -> u64 {
    let text = format!(
        "dse kernel={kernel_version}\nprogram={program_hash:016x}\nseed={seed}\nplan={}\ncfg={}",
        plan.plan_text(),
        cfg.result_fingerprint_text()
    );
    fnv1a64(text.as_bytes())
}

// ------------------------------------------------------- cell outcomes --

/// A sampled cell's persistable measurement — [`crate::SampledRun`]
/// minus the fields that describe the *host* rather than the machine
/// (`host_secs`, and `fast_forwarded`, which depends on checkpoint-store
/// temperature): a cached record must be indistinguishable from a fresh
/// measurement, so only measurement-identity fields are stored.
#[derive(Clone, PartialEq, Debug)]
pub struct SampledCell {
    /// The measured windows, in order.
    pub windows: Vec<WindowSample>,
    /// CPI estimate with confidence half-width.
    pub cpi: Estimate,
    /// LVC hit-rate estimate.
    pub lvc_hit_rate: Estimate,
    /// Port-stalls-per-kilo-instruction estimate.
    pub port_stalls_per_kinst: Estimate,
    /// Detailed instructions simulated (warm-ups included).
    pub detailed_insts: u64,
    /// Whether the program halted before the budget.
    pub halted_early: bool,
    /// Adaptive rounds taken (1 under a fixed window count).
    pub rounds: u32,
}

impl SampledCell {
    /// Extracts the persistable measurement from a sampled run.
    pub fn from_run(run: &crate::SampledRun, rounds: u32) -> SampledCell {
        SampledCell {
            windows: run.windows.clone(),
            cpi: run.cpi,
            lvc_hit_rate: run.lvc_hit_rate,
            port_stalls_per_kinst: run.port_stalls_per_kinst,
            detailed_insts: run.detailed_insts,
            halted_early: run.halted_early,
            rounds,
        }
    }
}

/// One cell's measurement: a full run's [`SimResult`] or a sampled
/// cell's estimates.
#[derive(Clone, PartialEq, Debug)]
#[allow(clippy::large_enum_variant)] // `Full` stays unboxed: callers match `CellOutcome::Full(r)` by value
pub enum CellOutcome {
    /// Full detailed run.
    Full(SimResult),
    /// Interval-sampled run.
    Sampled(SampledCell),
}

/// Magic opening a serialized [`CellOutcome`].
const DSE_MAGIC: &[u8; 8] = b"DDADSE01";
/// Format version of the serialized [`CellOutcome`] layout.
const DSE_VERSION: u32 = 1;

fn put_estimate(w: &mut ByteWriter, e: &Estimate) {
    w.put_f64(e.mean);
    w.put_f64(e.half_width);
}

fn get_estimate(r: &mut ByteReader) -> Result<Estimate, DecodeError> {
    Ok(Estimate {
        mean: r.get_f64()?,
        half_width: r.get_f64()?,
    })
}

impl CellOutcome {
    /// Serializes this outcome with the format's magic and version words.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(700);
        w.put_header(DSE_MAGIC, DSE_VERSION);
        match self {
            CellOutcome::Full(r) => {
                w.put_u8(0);
                w.put_raw(&r.to_bytes());
            }
            CellOutcome::Sampled(s) => {
                w.put_u8(1);
                w.put_u32(s.rounds);
                w.put_u8(s.halted_early as u8);
                w.put_u64(s.detailed_insts);
                put_estimate(&mut w, &s.cpi);
                put_estimate(&mut w, &s.lvc_hit_rate);
                put_estimate(&mut w, &s.port_stalls_per_kinst);
                w.put_u32(s.windows.len() as u32);
                for ws in &s.windows {
                    w.put_u64(ws.start_inst);
                    w.put_u64(ws.committed);
                    w.put_u64(ws.cycles);
                    w.put_f64(ws.cpi);
                    w.put_f64(ws.lvc_hit_rate);
                    w.put_f64(ws.port_stalls_per_kinst);
                }
            }
        }
        w.into_vec()
    }

    /// Decodes an outcome serialized by [`CellOutcome::to_bytes`]; the
    /// whole input must be consumed.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] describing the first malformation.
    pub fn from_bytes(bytes: &[u8]) -> Result<CellOutcome, DecodeError> {
        let mut r = ByteReader::new(bytes);
        r.header(DSE_MAGIC, DSE_VERSION)?;
        let out = match r.get_u8()? {
            0 => CellOutcome::Full(SimResult::decode(&mut r)?),
            1 => {
                let rounds = r.get_u32()?;
                let halted_early = r.get_bool()?;
                let detailed_insts = r.get_u64()?;
                let cpi = get_estimate(&mut r)?;
                let lvc_hit_rate = get_estimate(&mut r)?;
                let port_stalls_per_kinst = get_estimate(&mut r)?;
                let n = r.get_u32()? as usize;
                let mut windows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    windows.push(WindowSample {
                        start_inst: r.get_u64()?,
                        committed: r.get_u64()?,
                        cycles: r.get_u64()?,
                        cpi: r.get_f64()?,
                        lvc_hit_rate: r.get_f64()?,
                        port_stalls_per_kinst: r.get_f64()?,
                    });
                }
                CellOutcome::Sampled(SampledCell {
                    windows,
                    cpi,
                    lvc_hit_rate,
                    port_stalls_per_kinst,
                    detailed_insts,
                    halted_early,
                    rounds,
                })
            }
            _ => return Err(DecodeError::Corrupt("cell outcome kind")),
        };
        r.finish()?;
        Ok(out)
    }

    /// Headline CPI of the cell (mean CPI for sampled cells).
    pub fn cpi(&self) -> f64 {
        match self {
            CellOutcome::Full(r) => {
                if r.committed == 0 {
                    0.0
                } else {
                    r.cycles as f64 / r.committed as f64
                }
            }
            CellOutcome::Sampled(s) => s.cpi.mean,
        }
    }

    /// Instructions this measurement covers: committed for full runs,
    /// detailed (warm-ups included) for sampled ones.
    pub fn measured_insts(&self) -> u64 {
        match self {
            CellOutcome::Full(r) => r.committed,
            CellOutcome::Sampled(s) => s.detailed_insts,
        }
    }
}

// ------------------------------------------------------- result store --

/// A directory of serialized [`CellOutcome`]s, one file per
/// [`result_key`] — the same file body as [`CheckpointStore`], with the
/// same commitments: stable file names, magic + version words in the
/// bytes, corrupt files surfacing as [`io::ErrorKind::InvalidData`]
/// (which the engine treats as a miss, never as an answer).
#[derive(Clone, Debug)]
pub struct ResultStore {
    files: RecordDir,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        Ok(ResultStore {
            files: RecordDir::open(dir.into(), "res_")?,
        })
    }

    /// The file a key maps to (exists or not).
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.files.path(format_args!("{key:016x}"))
    }

    /// Persists `outcome` under `key`. Overwrites silently — content
    /// addressing makes a collision a re-save of identical bytes.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the file cannot be written.
    pub fn save(&self, key: u64, outcome: &CellOutcome) -> io::Result<PathBuf> {
        let path = self.path_for(key);
        std::fs::write(&path, outcome.to_bytes())?;
        Ok(path)
    }

    /// Loads the outcome for `key`; `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] on a read failure, or one of kind
    /// [`io::ErrorKind::InvalidData`] when the file exists but fails to
    /// decode.
    pub fn load(&self, key: u64) -> io::Result<Option<CellOutcome>> {
        RecordDir::read(&self.path_for(key), CellOutcome::from_bytes)
    }

    /// Number of result records currently in the store.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the directory cannot be read.
    pub fn len(&self) -> io::Result<usize> {
        self.files.count()
    }

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// As for [`ResultStore::len`].
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

// ------------------------------------------------- requests and cells --

/// One point of the design space: a benchmark under a configuration.
/// Requests expand to these; tests may also construct them directly
/// (e.g. with a fault plan in `cfg`) and hand them to
/// [`DseService::run_streaming`].
#[derive(Clone, Debug)]
pub struct DseCell {
    /// The workload.
    pub bench: Benchmark,
    /// The machine. Any configuration is legal here, including fault
    /// plans — the cache key covers every result-affecting field.
    pub cfg: MachineConfig,
    /// Display label, e.g. `129.compress/4+2/c2/f1` (no whitespace).
    pub label: String,
}

/// A config-matrix request: benchmarks × (N+M) port grid × combining ×
/// fast-forwarding, under one [`RunPlan`].
#[derive(Clone, Debug)]
pub struct DseRequest {
    /// Benchmarks to sweep.
    pub benches: Vec<Benchmark>,
    /// (N, M) port-grid points; `M == 0` means no LVC.
    pub grid: Vec<(u32, u32)>,
    /// Access-combining degrees to cross with each LVC point (ignored
    /// for `M == 0` points, where combining does not exist).
    pub combining: Vec<u32>,
    /// Fast-data-forwarding settings to cross with each LVC point
    /// (likewise ignored for `M == 0`).
    pub fast_forward: Vec<bool>,
    /// Optional LVC size override in bytes (LVC points only).
    pub lvc_bytes: Option<u32>,
    /// Workload scale fed to [`Benchmark::program`].
    pub seed: u32,
    /// How each cell is measured.
    pub plan: RunPlan,
}

impl DseRequest {
    /// Expands the matrix into concrete cells, deduplicated by
    /// result-affecting content: an `M == 0` point appears once per
    /// benchmark no matter how many combining/forwarding settings are
    /// crossed (those knobs do not exist without an LVC), and identical
    /// configurations reached by different coordinates collapse.
    pub fn expand(&self) -> Vec<DseCell> {
        let mut cells = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut push = |bench: Benchmark, cfg: MachineConfig, label: String| {
            let id = format!("{} {}", bench.name(), cfg.result_fingerprint_text());
            if seen.insert(id) {
                cells.push(DseCell { bench, cfg, label });
            }
        };
        for &bench in &self.benches {
            for &(n, m) in &self.grid {
                if m == 0 {
                    push(
                        bench,
                        MachineConfig::n_plus_m(n, 0),
                        format!("{}/{n}+0", bench.name()),
                    );
                    continue;
                }
                for &comb in &self.combining {
                    for &ff in &self.fast_forward {
                        let mut cfg = MachineConfig::n_plus_m(n, m)
                            .with_combining(comb)
                            .with_fast_forwarding(ff);
                        if let Some(bytes) = self.lvc_bytes {
                            cfg = cfg.with_lvc_size(bytes);
                        }
                        push(
                            bench,
                            cfg,
                            format!(
                                "{}/{n}+{m}/c{comb}/f{}",
                                bench.name(),
                                if ff { 1 } else { 0 }
                            ),
                        );
                    }
                }
            }
        }
        cells
    }
}

// ----------------------------------------------------------- service --

/// How a cell was satisfied.
#[derive(Clone, PartialEq, Debug)]
pub enum CellStatus {
    /// Served from the result store — zero instructions simulated.
    Hit,
    /// Simulated now (and saved to the store).
    Miss,
    /// The simulation failed; the message is the [`SimError`] or panic
    /// payload.
    Error(String),
}

impl CellStatus {
    /// `"hit"`, `"miss"` or `"error"`, for reports and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            CellStatus::Hit => "hit",
            CellStatus::Miss => "miss",
            CellStatus::Error(_) => "error",
        }
    }
}

/// One streamed per-cell result.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Index into the expanded cell list.
    pub index: usize,
    /// The cell's display label.
    pub label: String,
    /// The cell's [`result_key`].
    pub key: u64,
    /// Hit, miss, or error.
    pub status: CellStatus,
    /// The measurement (absent on error).
    pub outcome: Option<CellOutcome>,
    /// Instructions simulated *by this request* for this cell: 0 on a
    /// hit; committed (full) or detailed + fast-forwarded (sampled) on a
    /// miss.
    pub sim_insts: u64,
}

/// Aggregate of one request's execution.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DseSummary {
    /// Cells in the expanded request.
    pub cells: usize,
    /// Cells served from the store.
    pub hits: usize,
    /// Cells simulated now.
    pub misses: usize,
    /// Cells that failed.
    pub errors: usize,
    /// Total instructions simulated by this request (0 for an all-hit
    /// rerun — the warm-cache acceptance gate).
    pub sim_insts: u64,
}

/// Simulates one cell from scratch — the exact computation a cache miss
/// performs, exposed so differential tests can compare a fresh run
/// against a cached record.
///
/// # Errors
///
/// [`SimError`] as for [`Simulator::run`] / [`sample_program_adaptive`].
pub fn compute_cell(
    cfg: &MachineConfig,
    program: Arc<Program>,
    plan: &RunPlan,
    checkpoints: Option<&CheckpointStore>,
) -> Result<(CellOutcome, u64), SimError> {
    match plan {
        RunPlan::Full { budget } => {
            let r = Simulator::new(cfg.clone())?.run_shared(program, *budget)?;
            let insts = r.committed;
            Ok((CellOutcome::Full(r), insts))
        }
        RunPlan::Sampled(scfg) => {
            let (run, rounds) = sample_program_adaptive(cfg, program, scfg, checkpoints)?;
            let insts = run.detailed_insts + run.fast_forwarded;
            Ok((
                CellOutcome::Sampled(SampledCell::from_run(&run, rounds)),
                insts,
            ))
        }
    }
}

/// The memoized DSE engine: a [`ResultStore`] of finished measurements,
/// an optional [`CheckpointStore`] of fast-forward positions shared by
/// every sampled-cell worker, and the kernel version stamped into cache
/// keys.
#[derive(Debug)]
pub struct DseService {
    results: ResultStore,
    checkpoints: Option<CheckpointStore>,
    kernel_version: u32,
}

impl DseService {
    /// A service over `results`, optionally sharing `checkpoints` across
    /// sampled-cell workers, keyed at [`KERNEL_VERSION`].
    pub fn new(results: ResultStore, checkpoints: Option<CheckpointStore>) -> DseService {
        DseService {
            results,
            checkpoints,
            kernel_version: KERNEL_VERSION,
        }
    }

    /// Overrides the kernel version in cache keys — the seam
    /// invalidation tests use to prove a version bump misses.
    pub fn with_kernel_version(mut self, v: u32) -> DseService {
        self.kernel_version = v;
        self
    }

    /// Runs `cells` under `plan`, invoking `emit` once per cell as its
    /// result becomes available: store hits first (in cell order, no
    /// simulation), then misses as the pool finishes them (completion
    /// order, each saved to the store). A failing or panicking cell
    /// emits [`CellStatus::Error`] and never takes down its siblings.
    ///
    /// Corrupt store records are treated as misses: the cell is
    /// recomputed fresh and the good bytes overwrite the bad ones.
    pub fn run_streaming(
        &self,
        cells: &[DseCell],
        seed: u32,
        plan: &RunPlan,
        emit: &mut dyn FnMut(CellReport),
    ) -> DseSummary {
        // One shared program image (and fingerprint) per distinct
        // benchmark, regardless of how many cells use it.
        let mut programs: HashMap<Benchmark, (Arc<Program>, u64)> = HashMap::new();
        for c in cells {
            programs.entry(c.bench).or_insert_with(|| {
                let p = Arc::new(c.bench.program(seed.max(1)));
                let h = program_fingerprint(&p);
                (p, h)
            });
        }
        let mut summary = DseSummary {
            cells: cells.len(),
            ..DseSummary::default()
        };
        let mut misses: Vec<(usize, u64, &DseCell, Arc<Program>)> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let (program, phash) = &programs[&cell.bench];
            let key = result_key(self.kernel_version, &cell.cfg, *phash, seed, plan);
            match self.results.load(key) {
                Ok(Some(outcome)) => {
                    summary.hits += 1;
                    emit(CellReport {
                        index: i,
                        label: cell.label.clone(),
                        key,
                        status: CellStatus::Hit,
                        outcome: Some(outcome),
                        sim_insts: 0,
                    });
                }
                // Absent, corrupt, or unreadable: recompute.
                Ok(None) | Err(_) => misses.push((i, key, cell, Arc::clone(program))),
            }
        }
        let (tx, rx) = mpsc::channel();
        let checkpoints = self.checkpoints.as_ref();
        std::thread::scope(|s| {
            s.spawn(move || {
                let tasks: Vec<_> = misses
                    .into_iter()
                    .map(|(i, key, cell, program)| {
                        let tx = tx.clone();
                        let plan = plan.clone();
                        move || {
                            // Catch the panic here (not just at the pool
                            // boundary) so every cell sends *something*
                            // and the receiver never waits on a lost
                            // index.
                            let out = catch_unwind(AssertUnwindSafe(|| {
                                compute_cell(&cell.cfg, program, &plan, checkpoints)
                            }));
                            let res = match out {
                                Ok(Ok(v)) => Ok(v),
                                Ok(Err(e)) => Err(e.to_string()),
                                Err(p) => Err(panic_message(p.as_ref())),
                            };
                            let _ = tx.send((i, key, cell.label.clone(), res));
                        }
                    })
                    .collect();
                drop(tx); // workers hold the remaining senders
                let workers = pool::default_workers(tasks.len());
                pool::run_tasks(tasks, workers);
            });
            for (i, key, label, res) in rx {
                match res {
                    Ok((outcome, insts)) => {
                        let _ = self.results.save(key, &outcome); // best effort
                        summary.misses += 1;
                        summary.sim_insts += insts;
                        emit(CellReport {
                            index: i,
                            label,
                            key,
                            status: CellStatus::Miss,
                            outcome: Some(outcome),
                            sim_insts: insts,
                        });
                    }
                    Err(msg) => {
                        summary.errors += 1;
                        emit(CellReport {
                            index: i,
                            label,
                            key,
                            status: CellStatus::Error(msg.clone()),
                            outcome: None,
                            sim_insts: 0,
                        });
                    }
                }
            }
        });
        summary
    }

    /// [`DseService::run_streaming`] over a parsed request's expansion,
    /// discarding per-cell reports — the convenience tests and warm-up
    /// passes use.
    pub fn run_request(&self, req: &DseRequest) -> (Vec<CellReport>, DseSummary) {
        let cells = req.expand();
        let mut reports = Vec::with_capacity(cells.len());
        let summary = self.run_streaming(&cells, req.seed, &req.plan, &mut |r| reports.push(r));
        (reports, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dda-dse-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tiny_full_request() -> DseRequest {
        DseRequest {
            benches: vec![Benchmark::Compress],
            grid: vec![(2, 0), (4, 2)],
            combining: vec![2],
            fast_forward: vec![true],
            lvc_bytes: None,
            seed: DEFAULT_SEED,
            plan: RunPlan::Full { budget: 4_000 },
        }
    }

    #[test]
    fn expansion_dedupes_and_skips_non_lvc_knobs() {
        let req = DseRequest {
            benches: vec![Benchmark::Compress],
            // The duplicate (2,0) and the combining/ff cross on M=0
            // must all collapse.
            grid: vec![(2, 0), (2, 0), (4, 2)],
            combining: vec![1, 2],
            fast_forward: vec![false, true],
            lvc_bytes: None,
            seed: DEFAULT_SEED,
            plan: RunPlan::Full { budget: 1_000 },
        };
        let cells = req.expand();
        // 1 baseline + 2×2 LVC variants.
        assert_eq!(cells.len(), 5);
        assert!(cells.iter().all(|c| !c.label.contains(' ')));
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"129.compress/2+0"));
        assert!(labels.contains(&"129.compress/4+2/c2/f1"));
    }

    #[test]
    fn outcome_codec_round_trips_both_kinds() {
        let program = Arc::new(Benchmark::Compress.program(DEFAULT_SEED));
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let (full, _) = compute_cell(
            &cfg,
            Arc::clone(&program),
            &RunPlan::Full { budget: 3_000 },
            None,
        )
        .expect("full run");
        assert_eq!(CellOutcome::from_bytes(&full.to_bytes()).unwrap(), full);

        let plan = RunPlan::Sampled(SamplingConfig {
            windows: 3,
            window_insts: 600,
            warmup_insts: 300,
            budget: 12_000,
            ..SamplingConfig::for_budget(0)
        });
        let (sampled, _) = compute_cell(&cfg, program, &plan, None).expect("sampled run");
        assert_eq!(
            CellOutcome::from_bytes(&sampled.to_bytes()).unwrap(),
            sampled
        );

        // Malformations are typed, never garbage.
        let good = sampled.to_bytes();
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            CellOutcome::from_bytes(&bad),
            Err(DecodeError::BadMagic {
                expected: *DSE_MAGIC
            })
        );
        let mut bad = good.clone();
        bad.push(9);
        assert_eq!(
            CellOutcome::from_bytes(&bad),
            Err(DecodeError::TrailingBytes(1))
        );
        assert!(CellOutcome::from_bytes(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn result_key_separates_every_input() {
        let cfg = MachineConfig::n_plus_m(4, 2);
        let base = result_key(1, &cfg, 0xABCD, 7, &RunPlan::Full { budget: 100 });
        // Kernel version, config, program, seed, and plan all key.
        assert_ne!(
            base,
            result_key(2, &cfg, 0xABCD, 7, &RunPlan::Full { budget: 100 })
        );
        assert_ne!(
            base,
            result_key(
                1,
                &MachineConfig::n_plus_m(4, 4),
                0xABCD,
                7,
                &RunPlan::Full { budget: 100 }
            )
        );
        assert_ne!(
            base,
            result_key(1, &cfg, 0xABCE, 7, &RunPlan::Full { budget: 100 })
        );
        assert_ne!(
            base,
            result_key(1, &cfg, 0xABCD, 8, &RunPlan::Full { budget: 100 })
        );
        assert_ne!(
            base,
            result_key(1, &cfg, 0xABCD, 7, &RunPlan::Full { budget: 101 })
        );
        // Result-neutral flags don't key.
        let audited = cfg.clone().with_audit(true);
        assert_eq!(
            base,
            result_key(1, &audited, 0xABCD, 7, &RunPlan::Full { budget: 100 })
        );
    }

    #[test]
    fn service_streams_misses_then_hits_identically() {
        let dir = temp_dir("service");
        let svc = DseService::new(ResultStore::open(&dir).expect("store opens"), None);
        let req = tiny_full_request();
        let (cold, cold_sum) = svc.run_request(&req);
        assert_eq!(cold_sum.misses, cold_sum.cells);
        assert_eq!(cold_sum.hits, 0);
        assert!(cold_sum.sim_insts > 0);
        let (warm, warm_sum) = svc.run_request(&req);
        assert_eq!(warm_sum.hits, warm_sum.cells);
        assert_eq!(warm_sum.misses, 0);
        assert_eq!(warm_sum.sim_insts, 0, "warm rerun must simulate nothing");
        // Bit-identical outcomes, hit or miss.
        let by_index = |mut v: Vec<CellReport>| {
            v.sort_by_key(|r| r.index);
            v
        };
        let (cold, warm) = (by_index(cold), by_index(warm));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.key, w.key);
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(w.sim_insts, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Budget of the executor-identity tests below.
    const TEST_BUDGET: u64 = 60_000;

    fn cells_of(benches: &[Benchmark], cfgs: &[MachineConfig]) -> Vec<DseCell> {
        benches
            .iter()
            .flat_map(|&bench| {
                cfgs.iter().enumerate().map(move |(ci, cfg)| DseCell {
                    bench,
                    cfg: cfg.clone(),
                    label: format!("{}/{ci}", bench.name()),
                })
            })
            .collect()
    }

    /// Runs `cells` cold on a fresh store and returns the full results in
    /// cell order.
    fn cold_full_results(tag: &str, cells: &[DseCell]) -> Vec<SimResult> {
        let dir = temp_dir(tag);
        let svc = DseService::new(ResultStore::open(&dir).expect("store opens"), None);
        let mut reports = Vec::new();
        let sum = svc.run_streaming(
            cells,
            DEFAULT_SEED,
            &RunPlan::Full {
                budget: TEST_BUDGET,
            },
            &mut |r| reports.push(r),
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            sum.misses,
            cells.len(),
            "a fresh store must miss every cell"
        );
        reports.sort_by_key(|r| r.index);
        reports
            .into_iter()
            .map(|r| match r.outcome {
                Some(CellOutcome::Full(res)) => res,
                other => panic!("{}: expected a full result, got {other:?}", r.label),
            })
            .collect()
    }

    #[test]
    fn service_cells_match_serial_runs() {
        let benches = [Benchmark::Compress, Benchmark::Li];
        let cfgs = [
            MachineConfig::n_plus_m(2, 0),
            MachineConfig::n_plus_m(2, 2),
            MachineConfig::n_plus_m(4, 0),
        ];
        let cells = cells_of(&benches, &cfgs);
        let results = cold_full_results("serial", &cells);
        for (cell, got) in cells.iter().zip(&results) {
            // The serial reference: one run on the calling thread, no pool.
            let program = cell.bench.program(DEFAULT_SEED);
            let want = Simulator::new(cell.cfg.clone())
                .unwrap()
                .run(&program, TEST_BUDGET)
                .unwrap();
            assert_eq!(*got, want, "{} diverged from a serial run", cell.label);
        }
        // More L1 ports never cost li more than noise.
        let (li_2p0, li_4p0) = (&results[3], &results[5]);
        assert!(li_4p0.ipc() >= li_2p0.ipc() * 0.95);
    }

    #[test]
    fn cold_services_agree_bit_for_bit() {
        // Pool scheduling may reorder the misses but never their results.
        let cells = cells_of(
            &[Benchmark::Compress],
            &[
                MachineConfig::n_plus_m(2, 2),
                MachineConfig::n_plus_m(4, 2).with_optimizations(),
            ],
        );
        assert_eq!(
            cold_full_results("cold-a", &cells),
            cold_full_results("cold-b", &cells)
        );
    }

    #[test]
    fn a_failing_cell_is_isolated_as_an_error() {
        let dir = temp_dir("error");
        let svc = DseService::new(ResultStore::open(&dir).expect("store opens"), None);
        let mut bad = MachineConfig::n_plus_m(2, 0);
        bad.rob_size = 0; // structurally invalid: Simulator::new errors
        let cells = vec![
            DseCell {
                bench: Benchmark::Compress,
                cfg: bad,
                label: "bad".into(),
            },
            DseCell {
                bench: Benchmark::Compress,
                cfg: MachineConfig::n_plus_m(2, 0),
                label: "good".into(),
            },
        ];
        let mut reports = Vec::new();
        let sum = svc.run_streaming(
            &cells,
            DEFAULT_SEED,
            &RunPlan::Full { budget: 2_000 },
            &mut |r| reports.push(r),
        );
        assert_eq!(sum.errors, 1);
        assert_eq!(sum.misses, 1);
        reports.sort_by_key(|r| r.index);
        let want = Simulator::new(cells[0].cfg.clone())
            .expect_err("rob_size 0 is invalid")
            .to_string();
        assert!(want.starts_with("invalid machine configuration"), "{want}");
        assert_eq!(reports[0].status, CellStatus::Error(want));
        assert!(reports[0].outcome.is_none());
        assert!(matches!(reports[1].status, CellStatus::Miss));
        // The error was not cached: rerunning retries it.
        let mut statuses = Vec::new();
        svc.run_streaming(
            &cells,
            DEFAULT_SEED,
            &RunPlan::Full { budget: 2_000 },
            &mut |r| statuses.push((r.index, r.status.clone())),
        );
        statuses.sort_by_key(|(i, _)| *i);
        assert!(matches!(statuses[0].1, CellStatus::Error(_)));
        assert!(matches!(statuses[1].1, CellStatus::Hit));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
