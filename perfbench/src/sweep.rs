//! The two DSE workloads: `detailed-sweep` (a cold request into a fresh
//! result store) and `warm-resweep` (the same request against a store
//! set-up populated, so every cell is a hit).

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use dda_bench::dse::DEFAULT_BUDGET;
use dda_bench::{
    config_fingerprint, pool, program_fingerprint, result_key, CellOutcome, CellReport, CellStatus,
    DseCell, DseRequest, DseService, ResultStore, RunPlan, KERNEL_VERSION,
};
use dda_core::{MachineConfig, Simulator};
use dda_program::Program;
use dda_stats::fnv1a64;
use dda_vm::Vm;
use dda_workloads::Benchmark;

use crate::host::{discard, mix};
use crate::layers::{count_sim, count_tcache, set_sim};
use crate::metrics::MetricSet;
use crate::stats::{median, Dist};
use crate::trace::{Span, Tracer};
use crate::{Ctx, Step, Workload};

/// The paper's (N+M) port grid.
const GRID: [(u32, u32); 6] = [(2, 0), (1, 1), (2, 2), (4, 2), (8, 4), (16, 0)];

/// Cells re-run under `reference_kernel` after the timed phase.
const REFERENCE_CHECKS: usize = 6;

/// The request both DSE workloads issue: 12 benchmarks × the paper grid ×
/// combining {1,2} × fast forwarding {off,on}, full detailed cells of the
/// service's default budget. The seed moves the workload scale (so every
/// cache key) and the cell budget (by under 1.8 %).
pub fn request(seed: u64) -> (DseRequest, u64) {
    let budget = DEFAULT_BUDGET + mix(seed, 2) % 512;
    let req = DseRequest {
        benches: Benchmark::ALL.to_vec(),
        grid: GRID.to_vec(),
        combining: vec![1, 2],
        fast_forward: vec![false, true],
        lvc_bytes: None,
        seed: (1 << 20) + (mix(seed, 1) % (1 << 20)) as u32,
        plan: RunPlan::Full { budget },
    };
    (req, budget)
}

/// Digest over the outcomes of a request, in cell order.
fn digest(outcomes: &[CellOutcome]) -> u64 {
    let mut bytes = Vec::new();
    for o in outcomes {
        bytes.extend_from_slice(&o.to_bytes());
    }
    fnv1a64(&bytes)
}

/// State shared by both DSE workloads.
pub struct Sweep {
    req: DseRequest,
    /// Committed-instruction budget of every cell.
    budget: u64,
    cells: Vec<DseCell>,
    programs: HashMap<Benchmark, Arc<Program>>,
    reference: Vec<CellOutcome>,
    /// [`digest`] of `reference`.
    digest: u64,
    /// The populated store (warm-resweep only).
    warm: Option<ResultStore>,
    /// Seconds and instructions of the reference-kernel check runs.
    ref_run: (f64, u64),
}

impl Sweep {
    fn setup(ctx: &Ctx, keep_store: bool) -> Result<Sweep, String> {
        let (req, budget) = request(ctx.seed);
        let cells = req.expand();
        let programs = Benchmark::ALL
            .into_iter()
            .map(|b| (b, Arc::new(b.program(req.seed))))
            .collect();
        let dir = ctx.work.fresh("results");
        let store = ResultStore::open(&dir).map_err(|e| format!("result store: {e}"))?;
        let (reports, summary) = DseService::new(store.clone(), None).run_request(&req);
        if summary.errors > 0 || summary.misses != cells.len() {
            return Err(format!("warm-up request: {summary:?}"));
        }
        let mut reference: Vec<Option<CellOutcome>> = vec![None; cells.len()];
        for r in reports {
            reference[r.index] = r.outcome;
        }
        let reference = reference
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("warm-up request left a cell without an outcome")?;
        let warm = if keep_store {
            Some(store)
        } else {
            discard(&dir);
            None
        };
        Ok(Sweep {
            req,
            budget,
            cells,
            programs,
            digest: digest(&reference),
            reference,
            warm,
            ref_run: (0.0, 0),
        })
    }

    /// Checks one request's reports against the set-up reference: every
    /// cell present, with the expected status and an identical outcome.
    /// Returns the request's digest.
    fn verify(&self, reports: &[CellReport], want: &CellStatus) -> Result<u64, String> {
        let mut got: Vec<Option<&CellOutcome>> = vec![None; self.cells.len()];
        for r in reports.iter().filter(|r| r.status == *want) {
            got[r.index] = r.outcome.as_ref();
        }
        for ((g, reference), cell) in got.iter().zip(&self.reference).zip(&self.cells) {
            match g {
                Some(o) if *o == reference => {}
                Some(_) => {
                    return Err(format!(
                        "cell {} differs from the set-up outcome",
                        cell.label
                    ))
                }
                None => return Err(format!("cell {} was not a {}", cell.label, want.as_str())),
            }
        }
        Ok(self.digest)
    }

    /// One untraced request against `store`.
    fn plain(&self, store: ResultStore, want: &CellStatus) -> Result<Step, String> {
        let svc = DseService::new(store, None);
        let t = Instant::now();
        let (reports, summary) = svc.run_request(&self.req);
        let secs = t.elapsed().as_secs_f64();
        let digest = self.verify(&reports, want)?;
        let delivered: u64 = reports
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(CellOutcome::measured_insts)
            .sum();
        Ok(Step {
            cells: summary.cells as u64,
            insts: if *want == CellStatus::Hit {
                delivered
            } else {
                summary.sim_insts
            },
            secs,
            attempted: summary.cells as u64,
            failed: summary.errors as u64,
            digest,
        })
    }

    /// One traced request: the work of [`DseService::run_streaming`] done
    /// through the public functions it is built from, with a span around
    /// each call.
    fn traced(
        &self,
        store: &ResultStore,
        workers: usize,
        i: usize,
        tr: &Tracer,
        want: &CellStatus,
    ) -> Result<Step, String> {
        let seed = self.req.seed;
        let t = Instant::now();
        let (outcomes, errors, sim_insts) = tr.span("dse.request", 0, 0, |rid| {
            let cells = tr.span("dse.expand", 0, rid, |_| self.req.expand());
            traced_request(
                store,
                &cells,
                seed,
                &self.req.plan,
                self.budget,
                workers,
                i,
                tr,
                rid,
            )
        });
        let secs = t.elapsed().as_secs_f64();
        let reports: Vec<CellReport> = outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(index, o)| {
                o.map(|(status, outcome)| CellReport {
                    index,
                    label: self.cells[index].label.clone(),
                    key: 0,
                    status,
                    outcome: Some(outcome),
                    sim_insts: 0,
                })
            })
            .collect();
        let digest = self.verify(&reports, want)?;
        let delivered: u64 = reports
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(CellOutcome::measured_insts)
            .sum();
        Ok(Step {
            cells: self.cells.len() as u64,
            insts: if *want == CellStatus::Hit {
                delivered
            } else {
                sim_insts
            },
            secs,
            attempted: self.cells.len() as u64,
            failed: errors,
            digest,
        })
    }

    /// A seed-chosen subset of cells must be bit-identical under the
    /// reference kernel.
    fn check_reference_kernel(&mut self, seed: u64) -> Result<(), String> {
        let mut secs = 0.0;
        let mut insts = 0;
        for k in 0..REFERENCE_CHECKS {
            let i = (mix(seed, 100 + k as u64) % self.cells.len() as u64) as usize;
            let cell = &self.cells[i];
            let mut cfg = cell.cfg.clone();
            cfg.reference_kernel = true;
            let program = Arc::clone(&self.programs[&cell.bench]);
            let t = Instant::now();
            let r = Simulator::new(cfg)
                .and_then(|s| s.run_shared(program, self.budget))
                .map_err(|e| format!("reference run of {}: {e}", cell.label))?;
            secs += t.elapsed().as_secs_f64();
            insts += r.committed;
            if CellOutcome::Full(r) != self.reference[i] {
                return Err(format!(
                    "cell {} differs under reference_kernel",
                    cell.label
                ));
            }
        }
        self.ref_run = (secs, insts);
        Ok(())
    }

    fn layers(&self, ctx: &Ctx, tr: &Tracer, iters: usize, m: &mut MetricSet) {
        let it = iters.max(1) as f64;
        let per = |name: &str| tr.total(name) / it;
        let us = |name: &str| {
            tr.durations(name)
                .iter()
                .map(|d| d * 1e6)
                .collect::<Vec<_>>()
        };

        m.set("workloads.gen_s", per("workloads.gen"));
        m.set(
            "workloads.programs",
            tr.durations("workloads.gen").len() as f64 / it,
        );
        m.set(
            "checkpoint.fingerprint_ms",
            per("checkpoint.fingerprint") * 1e3,
        );

        let hits = tr.counter("dse.hits");
        let misses = tr.counter("dse.misses");
        let errors = tr.counter("dse.errors");
        m.set("dse.hits", hits / it);
        m.set("dse.misses", misses / it);
        m.set("dse.errors", errors / it);
        m.set("dse.hit_rate", hits / (hits + misses + errors).max(1.0));
        let load = Dist::of(&us("dse.load"));
        m.set("dse.load_us_p50", load.p50);
        m.set("dse.load_us_tail", load.tail);
        m.set("dse.load_tail_pct", load.tail_pct);
        m.set("dse.load_n", load.n as f64);
        m.set("dse.save_us_p50", median(&us("dse.save")));
        m.set("dse.decode_us_p50", median(&us("dse.decode")));
        m.set("dse.key_us", median(&us("dse.key")));
        m.set("dse.expand_ms", per("dse.expand") * 1e3);
        m.set(
            "dse.record_bytes",
            tr.counter("dse.record_bytes") / tr.counter("dse.records").max(1.0),
        );
        m.set("dse.unaccounted_s", tr.self_time("dse.request") / it);

        let cell_ms: Vec<f64> = tr.durations("core.run").iter().map(|d| d * 1e3).collect();
        let cell = Dist::of(&cell_ms);
        m.set("dse.cell_ms_p50", cell.p50);
        m.set("dse.cell_ms_tail", cell.tail);
        m.set("dse.cell_tail_pct", cell.tail_pct);
        m.set("dse.cell_n", cell.n as f64);

        if misses == 0.0 {
            // Nothing was simulated: core, vm, mem and pool stay at 0.
            return;
        }
        let busy = per("core.run");
        m.set("pool.workers", ctx.workers as f64);
        m.set("pool.busy_s", busy);
        m.set("pool.queue_wait_s", per("pool.queue_wait"));
        m.set(
            "pool.efficiency",
            busy / (ctx.workers as f64 * per("pool.run")).max(1e-12),
        );

        let (committed, cycles) = set_sim(tr, it, m);
        let replay = self.replay_secs_per_inst();
        m.set("core.run_s", busy);
        m.set("core.ns_per_inst", busy * 1e9 / committed.max(1.0));
        m.set("core.ns_per_cycle", busy * 1e9 / cycles.max(1.0));
        m.set("core.timing_s", busy - committed * replay);
        m.set("core.cell_fixed_ms", self.cell_fixed_ms());
        m.set(
            "core.ref_ns_per_inst",
            self.ref_run.0 * 1e9 / (self.ref_run.1.max(1) as f64),
        );
        m.set("vm.ff_s", committed * replay);
        m.set("vm.ff_mips", 1e-6 / replay.max(1e-15));
    }

    /// Host seconds per instruction of plain functional replay over the
    /// request's programs at the cell budget — the `vm` share of a cell.
    fn replay_secs_per_inst(&self) -> f64 {
        let mut secs = 0.0;
        let mut insts = 0;
        for p in self.programs.values() {
            let mut vm = Vm::new(Arc::clone(p));
            let t = Instant::now();
            let _ = vm.fast_forward(self.budget);
            secs += t.elapsed().as_secs_f64();
            insts += vm.instructions_executed();
        }
        secs / insts.max(1) as f64
    }

    /// Median host cost of a 1-instruction detailed run on (4+2).
    fn cell_fixed_ms(&self) -> f64 {
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let xs: Vec<f64> = self
            .programs
            .values()
            .cycle()
            .take(24)
            .map(|p| {
                let t = Instant::now();
                let _ = Simulator::new(cfg.clone()).and_then(|s| s.run_shared(Arc::clone(p), 1));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&xs)
    }

    fn config_fingerprints(&self) -> Vec<(String, u64)> {
        let mut texts: Vec<String> = self
            .cells
            .iter()
            .map(|c| c.cfg.result_fingerprint_text())
            .collect();
        texts.sort();
        texts.dedup();
        let cfg42 = MachineConfig::n_plus_m(4, 2).with_optimizations();
        vec![
            (
                "grid_result_configs".into(),
                fnv1a64(texts.join("\n").as_bytes()),
            ),
            ("hierarchy_4+2".into(), config_fingerprint(&cfg42)),
        ]
    }
}

/// Loads one record: read, then decode, each in its own span. Absent or
/// undecodable records are misses, as in [`ResultStore::load`].
fn traced_load(
    store: &ResultStore,
    key: u64,
    cid: u64,
    tr: &Tracer,
    parent: u64,
) -> io::Result<Option<CellOutcome>> {
    tr.span("dse.load", cid, parent, |lid| {
        let path = store.path_for(key);
        let bytes = match tr.span("dse.read", cid, lid, |_| std::fs::read(&path)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        tr.count("dse.record_bytes", bytes.len() as f64);
        tr.count("dse.records", 1.0);
        Ok(tr
            .span("dse.decode", cid, lid, |_| CellOutcome::from_bytes(&bytes))
            .ok())
    })
}

type Traced = (Vec<Option<(CellStatus, CellOutcome)>>, u64, u64);

#[allow(clippy::too_many_arguments)]
fn traced_request(
    store: &ResultStore,
    cells: &[DseCell],
    seed: u32,
    plan: &RunPlan,
    budget: u64,
    workers: usize,
    iter: usize,
    tr: &Tracer,
    rid: u64,
) -> Traced {
    let cell_id = |i: usize| ((iter as u64) << 32) | (i as u64 + 1);
    // One program image and fingerprint per benchmark, regenerated per
    // request exactly as the service does.
    let mut programs: HashMap<Benchmark, (Arc<Program>, u64)> = HashMap::new();
    for c in cells {
        programs.entry(c.bench).or_insert_with(|| {
            let p = tr.span("workloads.gen", 0, rid, |_| {
                Arc::new(c.bench.program(seed.max(1)))
            });
            let h = tr.span("checkpoint.fingerprint", 0, rid, |_| {
                program_fingerprint(&p)
            });
            (p, h)
        });
    }
    let mut out: Vec<Option<(CellStatus, CellOutcome)>> = vec![None; cells.len()];
    let mut misses = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let cid = cell_id(i);
        let (program, phash) = &programs[&cell.bench];
        let key = tr.span("dse.key", cid, rid, |_| {
            result_key(KERNEL_VERSION, &cell.cfg, *phash, seed, plan)
        });
        match traced_load(store, key, cid, tr, rid) {
            Ok(Some(o)) => {
                tr.count("dse.hits", 1.0);
                out[i] = Some((CellStatus::Hit, o));
            }
            Ok(None) | Err(_) => misses.push((i, key, cell, Arc::clone(program))),
        }
    }
    let mut errors = 0;
    let mut sim_insts = 0;
    // As in the service, the pool runs on a thread of its own and every
    // result is saved by the receiving thread while the workers go on.
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            tr.span("pool.run", 0, rid, |pid| {
                let submitted = tr.now();
                let tasks: Vec<_> = misses
                    .into_iter()
                    .map(|(i, key, cell, program)| {
                        let tx = tx.clone();
                        let cid = cell_id(i);
                        move || {
                            tr.record(Span {
                                id: 0,
                                parent: pid,
                                cell: cid,
                                name: "pool.queue_wait",
                                start: submitted,
                                end: tr.now(),
                            });
                            // Caught here, as the service does, so every
                            // cell sends a result.
                            let res = tr.span("core.run", cid, pid, |_| {
                                catch_unwind(AssertUnwindSafe(|| {
                                    Simulator::new(cell.cfg.clone())
                                        .and_then(|s| s.run_shared_detailed(program, budget))
                                }))
                            });
                            let _ = tx.send((i, key, res));
                        }
                    })
                    .collect();
                drop(tx);
                pool::run_tasks(tasks, workers);
            });
        });
        for (i, key, res) in rx {
            match res {
                Ok(Ok((r, tc))) => {
                    count_sim(tr, &r);
                    count_tcache(tr, &tc);
                    sim_insts += r.committed;
                    let outcome = CellOutcome::Full(r);
                    let saved = tr.span("dse.save", cell_id(i), rid, |_| store.save(key, &outcome));
                    if let Ok(path) = saved {
                        if let Ok(md) = std::fs::metadata(path) {
                            tr.count("dse.record_bytes", md.len() as f64);
                            tr.count("dse.records", 1.0);
                        }
                    }
                    tr.count("dse.misses", 1.0);
                    out[i] = Some((CellStatus::Miss, outcome));
                }
                _ => {
                    tr.count("dse.errors", 1.0);
                    errors += 1;
                }
            }
        }
    });
    (out, errors, sim_insts)
}

/// `detailed-sweep`: a cold request into a fresh store per iteration.
pub struct DetailedSweep(Sweep);

impl Workload for DetailedSweep {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        Sweep::setup(ctx, false).map(DetailedSweep)
    }

    fn step(&mut self, ctx: &Ctx, _i: usize) -> Result<Step, String> {
        let dir = ctx.work.fresh("results");
        let store = ResultStore::open(&dir).map_err(|e| format!("result store: {e}"))?;
        let step = self.0.plain(store, &CellStatus::Miss);
        discard(&dir);
        step
    }

    fn traced_step(&mut self, ctx: &Ctx, i: usize, tr: &Tracer) -> Result<Step, String> {
        let dir = ctx.work.fresh("results");
        let store = ResultStore::open(&dir).map_err(|e| format!("result store: {e}"))?;
        let step = self.0.traced(&store, ctx.workers, i, tr, &CellStatus::Miss);
        discard(&dir);
        step
    }

    fn check(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.0.check_reference_kernel(ctx.seed)
    }

    fn layers(
        &mut self,
        ctx: &Ctx,
        tr: &Tracer,
        iters: usize,
        m: &mut MetricSet,
    ) -> Result<(), String> {
        self.0.layers(ctx, tr, iters, m);
        Ok(())
    }

    fn config_fingerprints(&self) -> Vec<(String, u64)> {
        self.0.config_fingerprints()
    }
}

/// `warm-resweep`: the same request, back to back, against the store
/// set-up populated.
pub struct WarmResweep(Sweep);

impl Workload for WarmResweep {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        Sweep::setup(ctx, true).map(WarmResweep)
    }

    fn step(&mut self, _ctx: &Ctx, _i: usize) -> Result<Step, String> {
        let store = self.0.warm.clone().ok_or("warm store missing")?;
        self.0.plain(store, &CellStatus::Hit)
    }

    fn traced_step(&mut self, ctx: &Ctx, i: usize, tr: &Tracer) -> Result<Step, String> {
        let store = self.0.warm.clone().ok_or("warm store missing")?;
        self.0.traced(&store, ctx.workers, i, tr, &CellStatus::Hit)
    }

    fn check(&mut self, _ctx: &Ctx) -> Result<(), String> {
        // Every hit was compared with the set-up outcome inside each
        // iteration; the store must still hold exactly one record per cell.
        let store = self.0.warm.as_ref().ok_or("warm store missing")?;
        let n = store.len().map_err(|e| format!("result store: {e}"))?;
        if n != self.0.cells.len() {
            return Err(format!(
                "warm store holds {n} records for {} cells",
                self.0.cells.len()
            ));
        }
        Ok(())
    }

    fn layers(
        &mut self,
        ctx: &Ctx,
        tr: &Tracer,
        iters: usize,
        m: &mut MetricSet,
    ) -> Result<(), String> {
        self.0.layers(ctx, tr, iters, m);
        Ok(())
    }

    fn config_fingerprints(&self) -> Vec<(String, u64)> {
        self.0.config_fingerprints()
    }
}
