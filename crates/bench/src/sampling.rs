//! SMARTS/SimPoint-style interval sampling.
//!
//! Paper-scale inputs make full detailed simulation the bottleneck: the
//! cycle-level core runs orders of magnitude slower than the functional
//! front-end. This module approximates a long detailed run by combining
//!
//! 1. **functional fast-forward** — only the [`Vm`] (at translation-cache
//!    speed) advances between measurement points, optionally feeding a
//!    timing-free [`FunctionalWarmup`] so cache tags stay warm;
//! 2. **detailed windows** — `k` evenly spaced windows of `window_insts`
//!    committed instructions are simulated in full detail, each preceded
//!    by a discarded detailed warm-up prefix that refills the pipeline
//!    and queues;
//! 3. **extrapolation** — per-window CPI (and the paper's headline rates)
//!    are averaged and reported with a Student-t confidence interval.
//!
//! The windows run on *clones* of the master [`Vm`], so positioning is
//! purely functional and a window never perturbs the stream — the same
//! discipline lets a window start from a restored
//! [`dda_vm::Checkpoint`] bit-identically (see `tests/`).

use std::sync::Arc;
use std::time::Instant;

use dda_core::{MachineConfig, SimError, Simulator, WindowRun};
use dda_mem::{FunctionalWarmup, HierarchyTags};
use dda_program::Program;
use dda_vm::{CheckpointKey, Vm};

use crate::checkpoint::CheckpointStore;

/// Two-sided confidence level for the sampling interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Confidence {
    /// 90 % two-sided.
    C90,
    /// 95 % two-sided (the conventional default).
    #[default]
    C95,
    /// 99 % two-sided.
    C99,
}

impl Confidence {
    /// The level as a percentage (90, 95, 99).
    pub fn percent(self) -> u32 {
        match self {
            Confidence::C90 => 90,
            Confidence::C95 => 95,
            Confidence::C99 => 99,
        }
    }

    /// Parses "90"/"95"/"99".
    pub fn from_percent(p: u32) -> Option<Confidence> {
        match p {
            90 => Some(Confidence::C90),
            95 => Some(Confidence::C95),
            99 => Some(Confidence::C99),
            _ => None,
        }
    }
}

/// Two-sided Student-t critical values for `df` 1..=30; beyond that the
/// normal approximation. Hardcoded (no external stats dependency) — the
/// usual table, e.g. Wasserman, *All of Statistics*, Table 24.1.
const T_90: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];
const T_99: [f64; 30] = [
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
    2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
    2.771, 2.763, 2.756, 2.750,
];

/// The two-sided Student-t critical value for `df` degrees of freedom at
/// `conf` — the multiplier on the standard error of the window mean.
pub fn student_t(conf: Confidence, df: usize) -> f64 {
    let (table, z) = match conf {
        Confidence::C90 => (&T_90, 1.645),
        Confidence::C95 => (&T_95, 1.960),
        Confidence::C99 => (&T_99, 2.576),
    };
    if df == 0 {
        f64::INFINITY
    } else if df <= table.len() {
        table[df - 1]
    } else {
        z
    }
}

/// How a sampled run positions, warms and measures.
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// Number of evenly spaced measurement windows (`>= 2` for a finite
    /// confidence interval).
    pub windows: usize,
    /// Committed instructions measured per window.
    pub window_insts: u64,
    /// Detailed warm-up prefix per window, simulated but discarded.
    pub warmup_insts: u64,
    /// The instruction budget of the full run being approximated; windows
    /// are spaced every `budget / windows` instructions.
    pub budget: u64,
    /// Confidence level of the reported interval.
    pub confidence: Confidence,
    /// Feed every fast-forwarded access into a [`FunctionalWarmup`] and
    /// start each window with the warmed cache tags.
    pub functional_warmup: bool,
    /// Adaptive window counts: when set, [`sample_program_adaptive`]
    /// grows the window count geometrically (doubling from `windows`)
    /// until the CPI confidence half-width falls to at most this fraction
    /// of the CPI mean, or `max_windows` is reached. `None` keeps the
    /// fixed `windows` count.
    pub adaptive_target: Option<f64>,
    /// Hard cap on the adaptively grown window count (ignored by the
    /// fixed-count drivers).
    pub max_windows: usize,
}

impl SamplingConfig {
    /// A sane default shape: 8 windows × 4000 instructions, 2000-deep
    /// detailed warm-up, functional cache warming, 95 % intervals, no
    /// adaptive growth (cap 64 when enabled).
    pub fn for_budget(budget: u64) -> SamplingConfig {
        SamplingConfig {
            windows: 8,
            window_insts: 4_000,
            warmup_insts: 2_000,
            budget,
            confidence: Confidence::C95,
            functional_warmup: true,
            adaptive_target: None,
            max_windows: 64,
        }
    }
}

/// One measured window of a sampled run.
#[derive(Clone, PartialEq, Debug)]
pub struct WindowSample {
    /// Dynamic instruction index at which detailed simulation started
    /// (the warm-up prefix begins here).
    pub start_inst: u64,
    /// The measured slice (see [`dda_core::WindowRun::window`]).
    pub committed: u64,
    /// Cycles of the measured slice.
    pub cycles: u64,
    /// Cycles per instruction of the slice.
    pub cpi: f64,
    /// LVC hit rate within the slice (0 when the machine has no LVC or
    /// the slice had no LVC accesses).
    pub lvc_hit_rate: f64,
    /// Port-stall cycles (LSQ + LVAQ) per kilo-instruction.
    pub port_stalls_per_kinst: f64,
}

/// A mean with its two-sided confidence half-width.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Estimate {
    /// Sample mean over the windows.
    pub mean: f64,
    /// Half-width of the confidence interval (infinite when fewer than
    /// two windows were measured).
    pub half_width: f64,
}

impl Estimate {
    /// Whether `value` lies within `mean ± half_width`.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.half_width
    }

    /// Computes mean and t-interval over `xs` at `conf`.
    pub fn over(xs: &[f64], conf: Confidence) -> Estimate {
        let n = xs.len();
        if n == 0 {
            return Estimate {
                mean: f64::NAN,
                half_width: f64::INFINITY,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Estimate {
                mean,
                half_width: f64::INFINITY,
            };
        }
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let se = (var / n as f64).sqrt();
        Estimate {
            mean,
            half_width: student_t(conf, n - 1) * se,
        }
    }
}

/// The outcome of one sampled run.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// The windows actually measured (fewer than requested when the
    /// program halts before the last window start).
    pub windows: Vec<WindowSample>,
    /// CPI estimate with confidence interval.
    pub cpi: Estimate,
    /// LVC hit-rate estimate.
    pub lvc_hit_rate: Estimate,
    /// Port-stall-per-kilo-instruction estimate.
    pub port_stalls_per_kinst: Estimate,
    /// Dynamic instructions functionally replayed by this call to
    /// position the master VM (0 when every position was restored from a
    /// checkpoint store; at most the budget otherwise).
    pub fast_forwarded: u64,
    /// Detailed instructions simulated across all windows, warm-ups
    /// included.
    pub detailed_insts: u64,
    /// Whether the program halted before the full budget.
    pub halted_early: bool,
    /// Wall-clock seconds spent inside the driver.
    pub host_secs: f64,
}

fn lvc_hit_rate(w: &WindowRun) -> f64 {
    match &w.window.lvc {
        Some(l) if l.accesses() > 0 => l.hits as f64 / l.accesses() as f64,
        _ => 0.0,
    }
}

/// Runs `program` under `cfg` with interval sampling.
///
/// Windows start at `i * budget / windows` for `i` in `0..windows`; the
/// master [`Vm`] is advanced purely functionally between starts (feeding
/// the functional cache-warmup model when enabled) and each window runs
/// on a clone via [`Simulator::run_window`]. Determinism: two calls with
/// identical inputs produce identical `SampledRun`s (modulo `host_secs`).
///
/// # Errors
///
/// [`SimError`] as for [`Simulator::run`]; a functional fault during
/// fast-forward surfaces as the [`SimError::Trap`] the detailed run
/// would have raised.
pub fn sample_program(
    cfg: &MachineConfig,
    program: Arc<Program>,
    scfg: &SamplingConfig,
) -> Result<SampledRun, SimError> {
    sample_program_stored(cfg, program, scfg, None)
}

/// [`sample_program`] with a best-effort [`CheckpointStore`]: each window
/// start that misses the store is fast-forwarded to and checkpointed
/// (warm cache tags included); each hit restores instead of replaying
/// the functional prefix. Results are bit-identical either way — that is
/// the checkpoint-transparency discipline — so a populated store only
/// changes wall-clock time. Store I/O failures degrade to the
/// fast-forward path silently (the store is a cache, not a dependency).
///
/// # Errors
///
/// As for [`sample_program`].
pub fn sample_program_stored(
    cfg: &MachineConfig,
    program: Arc<Program>,
    scfg: &SamplingConfig,
    store: Option<&CheckpointStore>,
) -> Result<SampledRun, SimError> {
    let sim = Simulator::new(cfg.clone())?;
    let start_t = Instant::now();
    let k = scfg.windows.max(1) as u64;
    let spacing = (scfg.budget / k).max(1);
    let phash = crate::checkpoint::program_fingerprint(&program);
    let chash = if scfg.functional_warmup {
        crate::checkpoint::config_fingerprint(cfg)
    } else {
        0
    };
    let key_at = |inst: u64| CheckpointKey {
        program_hash: phash,
        inst_index: inst,
        config_hash: chash,
    };
    let mut vm = Vm::new(Arc::clone(&program));
    let mut warm = scfg
        .functional_warmup
        .then(|| FunctionalWarmup::new(&cfg.hierarchy));
    let mut windows = Vec::with_capacity(scfg.windows);
    let mut detailed_insts = 0u64;
    let mut ff_insts = 0u64;
    for i in 0..k {
        let start = i * spacing;
        let tags = restore_or_position(
            &mut vm,
            &mut warm,
            &mut ff_insts,
            store,
            &program,
            key_at(start),
        )?;
        if vm.is_halted() {
            break;
        }
        let vm_w = vm.clone();
        let run = sim.run_window(vm_w, tags.as_ref(), scfg.warmup_insts, scfg.window_insts)?;
        detailed_insts += run.total.committed;
        if run.window.committed == 0 {
            break; // halted inside the warm-up prefix
        }
        windows.push(WindowSample {
            start_inst: vm.instructions_executed(),
            committed: run.window.committed,
            cycles: run.window.cycles,
            cpi: run.window.cycles as f64 / run.window.committed as f64,
            lvc_hit_rate: lvc_hit_rate(&run),
            port_stalls_per_kinst: (run.window.lsq.port_stall_cycles
                + run.window.lvaq.port_stall_cycles) as f64
                / (run.window.committed as f64 / 1000.0),
        });
    }
    // Cover the tail so `halted_early` reflects the whole budget, not
    // just the last window start.
    if !vm.is_halted() && scfg.budget > vm.instructions_executed() {
        restore_or_position(
            &mut vm,
            &mut warm,
            &mut ff_insts,
            store,
            &program,
            key_at(scfg.budget),
        )?;
    }
    let conf = scfg.confidence;
    let collect = |f: fn(&WindowSample) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    Ok(SampledRun {
        cpi: Estimate::over(&collect(|w| w.cpi), conf),
        lvc_hit_rate: Estimate::over(&collect(|w| w.lvc_hit_rate), conf),
        port_stalls_per_kinst: Estimate::over(&collect(|w| w.port_stalls_per_kinst), conf),
        windows,
        fast_forwarded: ff_insts,
        detailed_insts,
        halted_early: vm.is_halted(),
        host_secs: start_t.elapsed().as_secs_f64(),
    })
}

/// [`sample_program_stored`] with adaptive window counts: when
/// [`SamplingConfig::adaptive_target`] is set, the window count grows
/// geometrically (doubling, starting from `windows`, capped at
/// `max_windows`) until the CPI confidence half-width is at most
/// `target × |mean|`. Returns the final run and the number of rounds
/// taken (1 when the first count sufficed or no target was set).
///
/// Growth stops early when the program halts before filling the
/// requested windows — more windows cannot tighten an interval the
/// program is too short to populate. Each round re-samples from scratch
/// at the new spacing, so a shared [`CheckpointStore`] pays off doubly
/// here: positions probed by earlier rounds restore instead of replaying.
///
/// # Errors
///
/// As for [`sample_program`].
pub fn sample_program_adaptive(
    cfg: &MachineConfig,
    program: Arc<Program>,
    scfg: &SamplingConfig,
    store: Option<&CheckpointStore>,
) -> Result<(SampledRun, u32), SimError> {
    let Some(target) = scfg.adaptive_target else {
        return Ok((sample_program_stored(cfg, program, scfg, store)?, 1));
    };
    let cap = scfg.max_windows.max(scfg.windows.max(2));
    let mut k = scfg.windows.max(2);
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let round_cfg = SamplingConfig {
            windows: k,
            adaptive_target: None,
            ..scfg.clone()
        };
        let run = sample_program_stored(cfg, Arc::clone(&program), &round_cfg, store)?;
        let tight = run.cpi.half_width.is_finite()
            && run.cpi.mean.abs() > 0.0
            && run.cpi.half_width <= target * run.cpi.mean.abs();
        let starved = run.windows.len() < k; // halted before the last start
        if tight || starved || k >= cap {
            return Ok((run, rounds));
        }
        k = (k * 2).min(cap);
    }
}

/// Fast-forwards `vm` by `n` instructions, feeding every memory access to
/// the warmup model when present.
fn fast_forward_warming(
    vm: &mut Vm,
    n: u64,
    warm: Option<&mut FunctionalWarmup>,
) -> Result<(), dda_vm::VmError> {
    match warm {
        Some(w) => vm
            .fast_forward_observed(n, |d| {
                if let Some(m) = &d.mem {
                    w.touch(m.addr, m.is_store, m.is_local());
                }
            })
            .map(|_| ()),
        None => vm.fast_forward(n).map(|_| ()),
    }
}

/// Brings the master to `key.inst_index` and returns the warm tags there
/// (`None` without warming, or when the program halted first).
///
/// A stored checkpoint replaces the functional replay: restoration
/// teleports the *master*, so later windows keep fast-forwarding from
/// here, and the warmup model adopts the checkpoint's tags exactly as if
/// the skipped prefix had been replayed. On a miss the master is
/// fast-forwarded and, unless it halted, checkpointed (best effort).
fn restore_or_position(
    vm: &mut Vm,
    warm: &mut Option<FunctionalWarmup>,
    ff_insts: &mut u64,
    store: Option<&CheckpointStore>,
    program: &Arc<Program>,
    key: CheckpointKey,
) -> Result<Option<HierarchyTags>, SimError> {
    if let Some((restored, tags)) = store.and_then(|s| load_state(s, &key, program, warm.is_some()))
    {
        *vm = restored;
        if let (Some(w), Some(t)) = (warm.as_mut(), &tags) {
            w.adopt(t);
        }
        return Ok(tags);
    }
    position(vm, key.inst_index, warm.as_mut(), ff_insts)?;
    if vm.is_halted() {
        return Ok(None);
    }
    let tags = warm.as_ref().map(|w| w.tags());
    if let Some(s) = store {
        let mut ck = vm.checkpoint(key.program_hash, key.config_hash);
        ck.cache_tags = tags.as_ref().map(|t| t.to_bytes());
        let _ = s.save(&ck);
    }
    Ok(tags)
}

/// Fast-forwards the master to the absolute instruction index `target`
/// (no-op when already there or past), accumulating the replayed count.
fn position(
    vm: &mut Vm,
    target: u64,
    warm: Option<&mut FunctionalWarmup>,
    ff_insts: &mut u64,
) -> Result<(), SimError> {
    let here = vm.instructions_executed();
    if target <= here {
        return Ok(());
    }
    fast_forward_warming(vm, target - here, warm).map_err(|e| trap_at(vm, e))?;
    *ff_insts += vm.instructions_executed() - here;
    Ok(())
}

/// Loads and validates a stored position: the checkpoint must restore
/// against `program` and its tag payload must match whether warming is
/// expected. Any failure — missing file, I/O error, corrupt bytes, tag
/// mismatch — degrades to `None` (a store miss).
fn load_state(
    store: &CheckpointStore,
    key: &CheckpointKey,
    program: &Arc<Program>,
    expect_tags: bool,
) -> Option<(Vm, Option<HierarchyTags>)> {
    let ck = store.load(key).ok().flatten()?;
    let tags = tags_from_checkpoint(&ck).ok()?;
    if expect_tags != tags.is_some() {
        return None;
    }
    let vm = Vm::restore(Arc::clone(program), &ck).ok()?;
    Some((vm, tags))
}

/// Wraps a functional fast-forward fault into the [`SimError::Trap`] a
/// detailed run reaching the same instruction would raise (cycle count
/// unknowable without detail, reported as 0).
fn trap_at(vm: &Vm, e: dda_vm::VmError) -> SimError {
    SimError::Trap(dda_core::Trap {
        kind: e,
        cycle: 0,
        committed: vm.instructions_executed(),
    })
}

/// Warm tag state for a window start, decoded from a checkpoint's
/// `cache_tags` payload.
///
/// # Errors
///
/// [`dda_stats::DecodeError`] when the payload is corrupt.
pub fn tags_from_checkpoint(
    ck: &dda_vm::Checkpoint,
) -> Result<Option<HierarchyTags>, dda_stats::DecodeError> {
    ck.cache_tags
        .as_deref()
        .map(HierarchyTags::from_bytes)
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_workloads::Benchmark;

    #[test]
    fn t_table_shapes() {
        assert!(student_t(Confidence::C95, 1) > 12.0);
        assert!(student_t(Confidence::C95, 7) > student_t(Confidence::C95, 29));
        assert!((student_t(Confidence::C95, 1000) - 1.960).abs() < 1e-9);
        assert!(student_t(Confidence::C99, 10) > student_t(Confidence::C95, 10));
        assert_eq!(student_t(Confidence::C90, 0), f64::INFINITY);
        assert_eq!(Confidence::from_percent(99), Some(Confidence::C99));
        assert_eq!(Confidence::from_percent(42), None);
    }

    #[test]
    fn estimate_mean_and_interval() {
        let e = Estimate::over(&[2.0, 4.0, 6.0], Confidence::C95);
        assert!((e.mean - 4.0).abs() < 1e-12);
        // s = 2, se = 2/sqrt(3), t_2 = 4.303.
        let expect = 4.303 * 2.0 / 3f64.sqrt();
        assert!((e.half_width - expect).abs() < 1e-9);
        assert!(e.contains(4.0) && !e.contains(100.0));
        assert!(Estimate::over(&[1.0], Confidence::C95)
            .half_width
            .is_infinite());
    }

    #[test]
    fn sampling_is_deterministic_and_covers_the_budget() {
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
        let scfg = SamplingConfig {
            windows: 4,
            window_insts: 1_000,
            warmup_insts: 500,
            budget: 40_000,
            confidence: Confidence::C95,
            functional_warmup: true,
            ..SamplingConfig::for_budget(0)
        };
        let a = sample_program(&cfg, Arc::clone(&program), &scfg).unwrap();
        let b = sample_program(&cfg, program, &scfg).unwrap();
        assert_eq!(a.windows.len(), 4);
        assert!(
            a.cpi.mean > 0.1 && a.cpi.mean < 10.0,
            "cpi = {}",
            a.cpi.mean
        );
        assert!(a.cpi.half_width.is_finite());
        assert!(a.fast_forwarded >= scfg.budget || a.halted_early);
        // Bit-for-bit deterministic (host_secs aside).
        assert_eq!(a.windows.len(), b.windows.len());
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(
                (x.committed, x.cycles, x.start_inst),
                (y.committed, y.cycles, y.start_inst)
            );
        }
    }

    #[test]
    fn sampled_cpi_tracks_the_full_run() {
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
        let budget = 60_000;
        let full = Simulator::new(cfg.clone())
            .unwrap()
            .run_shared(Arc::clone(&program), budget)
            .unwrap();
        let scfg = SamplingConfig {
            budget,
            ..SamplingConfig::for_budget(budget)
        };
        let s = sample_program(&cfg, program, &scfg).unwrap();
        let full_cpi = full.cycles as f64 / full.committed as f64;
        assert!(
            s.cpi.contains(full_cpi),
            "full CPI {full_cpi:.4} outside {:.4} ± {:.4}",
            s.cpi.mean,
            s.cpi.half_width
        );
        // The whole point: far less detailed work than the full run.
        assert!(s.detailed_insts < budget);
    }

    #[test]
    fn a_checkpoint_store_changes_nothing_but_the_replay_count() {
        let dir = std::env::temp_dir().join(format!("dda-sampling-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
        let scfg = SamplingConfig {
            windows: 3,
            window_insts: 800,
            warmup_insts: 400,
            budget: 30_000,
            confidence: Confidence::C95,
            functional_warmup: true,
            ..SamplingConfig::for_budget(0)
        };
        let plain = sample_program(&cfg, Arc::clone(&program), &scfg).unwrap();
        let cold = sample_program_stored(&cfg, Arc::clone(&program), &scfg, Some(&store)).unwrap();
        let hot = sample_program_stored(&cfg, program, &scfg, Some(&store)).unwrap();
        // Transparency: the store must not perturb a single measurement.
        for s in [&cold, &hot] {
            assert_eq!(s.windows.len(), plain.windows.len());
            for (x, y) in s.windows.iter().zip(&plain.windows) {
                assert_eq!(
                    (x.start_inst, x.committed, x.cycles),
                    (y.start_inst, y.committed, y.cycles)
                );
            }
            assert_eq!(s.detailed_insts, plain.detailed_insts);
        }
        // The cold pass populated the store; the hot pass replays nothing.
        assert!(!store.is_empty().unwrap());
        assert_eq!(cold.fast_forwarded, plain.fast_forwarded);
        assert_eq!(
            hot.fast_forwarded, 0,
            "hot run replayed {} insts",
            hot.fast_forwarded
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_growth_tightens_or_caps() {
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
        // No target: single round, identical to the fixed-count driver.
        let scfg = SamplingConfig {
            windows: 3,
            window_insts: 800,
            warmup_insts: 400,
            budget: 30_000,
            ..SamplingConfig::for_budget(30_000)
        };
        let (fixed, rounds) =
            sample_program_adaptive(&cfg, Arc::clone(&program), &scfg, None).unwrap();
        assert_eq!(rounds, 1);
        let plain = sample_program(&cfg, Arc::clone(&program), &scfg).unwrap();
        assert_eq!(fixed.windows, plain.windows);

        // An absurdly tight target: growth happens and respects the cap.
        let tight = SamplingConfig {
            adaptive_target: Some(1e-12),
            max_windows: 12,
            ..scfg.clone()
        };
        let (run, rounds) =
            sample_program_adaptive(&cfg, Arc::clone(&program), &tight, None).unwrap();
        assert!(rounds > 1, "tight target should force growth");
        assert_eq!(run.windows.len(), 12, "growth stops at the cap");

        // A loose target: the starting count already satisfies it.
        let loose = SamplingConfig {
            adaptive_target: Some(100.0),
            ..scfg.clone()
        };
        let (run, rounds) = sample_program_adaptive(&cfg, program, &loose, None).unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(run.windows.len(), 3);
        assert!(run.cpi.half_width <= 100.0 * run.cpi.mean);
    }

    #[test]
    fn adaptive_rounds_are_deterministic_with_a_store() {
        let dir = std::env::temp_dir().join(format!("dda-adaptive-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let program = Arc::new(Benchmark::Li.program(u32::MAX / 2));
        let scfg = SamplingConfig {
            windows: 2,
            window_insts: 600,
            warmup_insts: 300,
            budget: 24_000,
            adaptive_target: Some(0.02),
            max_windows: 8,
            ..SamplingConfig::for_budget(24_000)
        };
        let (a, ra) =
            sample_program_adaptive(&cfg, Arc::clone(&program), &scfg, Some(&store)).unwrap();
        let (b, rb) =
            sample_program_adaptive(&cfg, Arc::clone(&program), &scfg, Some(&store)).unwrap();
        // The store (cold vs hot) must not change a single measurement or
        // the growth trajectory.
        assert_eq!(ra, rb);
        assert_eq!(a.windows, b.windows);
        let (c, rc) = sample_program_adaptive(&cfg, program, &scfg, None).unwrap();
        assert_eq!(ra, rc);
        assert_eq!(a.windows, c.windows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_programs_yield_fewer_windows() {
        use dda_program::{FunctionBuilder, ProgramBuilder};
        let mut f = FunctionBuilder::new("main");
        for i in 0..200 {
            f.load_imm(dda_isa::Gpr::T0, i);
        }
        f.halt();
        let mut b = ProgramBuilder::new();
        b.add_function(f);
        let program = Arc::new(b.build().unwrap());
        let cfg = MachineConfig::n_plus_m(2, 2);
        // A budget far beyond the program's length: the driver must stop
        // at halt, not spin or error.
        let scfg = SamplingConfig {
            windows: 6,
            window_insts: 500,
            warmup_insts: 100,
            budget: 1_000_000,
            confidence: Confidence::C95,
            functional_warmup: false,
            ..SamplingConfig::for_budget(0)
        };
        let s = sample_program(&cfg, program, &scfg).unwrap();
        assert!(s.halted_early);
        assert!(s.windows.len() <= 1, "windows = {}", s.windows.len());
    }
}
