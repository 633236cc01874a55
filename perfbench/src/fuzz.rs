//! `fuzz-differential`: generative fuzz campaigns, every input run
//! through both the fast and the reference kernel.

use std::sync::Arc;
use std::time::Instant;

use dda_bench::campaign::{
    contained_run, outcomes_equal, run_campaign, CampaignConfig, CampaignReport,
};
use dda_bench::{drain_stream, pool};
use dda_core::{FaultPlan, SimError, SimResult, Simulator};
use dda_program::fuzz::{derive_seed, fuzz_program, mutate, FuzzWeights};
use dda_program::Program;
use dda_stats::fnv1a64;
use dda_vm::{CoverageMap, Vm};

use crate::host::mix;
use crate::layers::{count_sim, count_tcache, set_sim};
use crate::metrics::MetricSet;
use crate::stats::{median, Dist};
use crate::trace::{Span, Tracer};
use crate::{Ctx, Step, Workload};

/// Inputs per campaign (one iteration). A few inputs cost hundreds of
/// times the median one, and a campaign's time is set by its slowest
/// inputs, so small campaigns keep the median campaign a typical one.
const INPUTS: u32 = 10;

/// Campaigns per second of `--seconds`: about the rate of the reference
/// host (2 vCPUs), so a run lasts about as long as asked there. The count
/// is fixed for a given `--seconds`, so a faster build times the same
/// inputs rather than more of them.
const CAMPAIGNS_PER_SEC: f64 = 16.0;

/// The campaign of iteration `i`: its seed derives from the workload seed.
fn campaign(seed: u64, i: usize, workers: usize) -> CampaignConfig {
    let mut c = CampaignConfig::new(mix(seed, 1000 + i as u64), INPUTS);
    c.workers = workers;
    c
}

/// What a campaign must reproduce exactly, whoever runs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Summary {
    inputs: usize,
    generated: usize,
    mutated: usize,
    completed: usize,
    trapped: usize,
    deadlocked: usize,
    invariant_violations: usize,
    host_panics: usize,
    divergences: usize,
    committed: u64,
    edge_buckets: usize,
    op_classes: usize,
    observed: u64,
}

impl Summary {
    fn of(r: &CampaignReport) -> Summary {
        Summary {
            inputs: r.inputs,
            generated: r.generated,
            mutated: r.mutated,
            completed: r.completed,
            trapped: r.trapped,
            deadlocked: r.deadlocked,
            invariant_violations: r.invariant_violations,
            host_panics: r.host_panics,
            divergences: r.divergences.len(),
            committed: r.committed_total,
            edge_buckets: r.coverage.edge_buckets_seen(),
            op_classes: r.coverage.op_classes_seen(),
            observed: r.coverage.observed(),
        }
    }

    fn digest(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }

    fn step(&self, secs: f64) -> Step {
        Step {
            cells: self.inputs as u64,
            // Both kernels commit the same instructions when they agree.
            insts: 2 * self.committed,
            secs,
            attempted: self.inputs as u64,
            failed: (self.host_panics + self.divergences) as u64,
            digest: self.digest(),
        }
    }
}

/// The `fuzz-differential` workload.
pub struct FuzzDifferential {
    /// Iteration 0's campaign as set-up ran it.
    first: Summary,
    /// Coverage merged over the traced campaigns.
    coverage: CoverageMap,
}

impl FuzzDifferential {
    fn verify(&self, i: usize, s: &Summary) -> Result<(), String> {
        if s.host_panics > 0 || s.divergences > 0 {
            return Err(format!(
                "campaign {i}: {} host panics, {} divergences",
                s.host_panics, s.divergences
            ));
        }
        if i == 0 && *s != self.first {
            return Err(format!(
                "campaign 0 differs from set-up: {s:?} vs {:?}",
                self.first
            ));
        }
        Ok(())
    }
}

impl Workload for FuzzDifferential {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let first = Summary::of(&run_campaign(&campaign(ctx.seed, 0, ctx.workers)));
        Ok(FuzzDifferential {
            first,
            coverage: CoverageMap::new(),
        })
    }

    fn step(&mut self, ctx: &Ctx, i: usize) -> Result<Step, String> {
        let cfg = campaign(ctx.seed, i, ctx.workers);
        let t = Instant::now();
        let report = run_campaign(&cfg);
        let secs = t.elapsed().as_secs_f64();
        let s = Summary::of(&report);
        self.verify(i, &s)?;
        Ok(s.step(secs))
    }

    fn traced_step(&mut self, ctx: &Ctx, i: usize, tr: &Tracer) -> Result<Step, String> {
        let cfg = campaign(ctx.seed, i, ctx.workers);
        let t = Instant::now();
        let (s, coverage) = tr.span("campaign.run", 0, 0, |rid| {
            traced_campaign(&cfg, i, tr, rid)
        });
        let secs = t.elapsed().as_secs_f64();
        self.verify(i, &s)?;
        self.coverage.merge(&coverage);
        Ok(s.step(secs))
    }

    fn check(&mut self, _ctx: &Ctx) -> Result<(), String> {
        // Zero divergences and panics were required of every campaign
        // inside its iteration.
        if self.first.inputs != INPUTS as usize {
            return Err(format!("set-up campaign ran {} inputs", self.first.inputs));
        }
        Ok(())
    }

    fn iterations(secs: f64) -> Option<usize> {
        Some((secs * CAMPAIGNS_PER_SEC).ceil() as usize)
    }

    const TYPICAL_RATE: bool = true;

    fn layers(
        &mut self,
        ctx: &Ctx,
        tr: &Tracer,
        iters: usize,
        m: &mut MetricSet,
    ) -> Result<(), String> {
        let it = iters.max(1) as f64;
        let per = |name: &str| tr.total(name) / it;
        m.set("program.fuzz_gen_s", per("program.fuzz_gen"));
        m.set("program.mutate_s", per("program.mutate"));
        m.set("program.inputs", tr.counter("program.inputs") / it);

        let cov = per("vm.coverage");
        let observed = tr.counter("vm.observed") / it;
        m.set("vm.ff_s", cov);
        m.set("vm.ff_mips", observed / cov.max(1e-12) / 1e6);

        let fast = per("campaign.fast");
        let reference = per("campaign.ref");
        let (committed, cycles) = set_sim(tr, it, m);
        m.set("campaign.fast_s", fast);
        m.set("campaign.ref_s", reference);
        m.set("core.run_s", fast);
        m.set("core.ns_per_inst", fast * 1e9 / committed.max(1.0));
        m.set("core.ns_per_cycle", fast * 1e9 / cycles.max(1.0));
        m.set("core.ref_ns_per_inst", reference * 1e9 / committed.max(1.0));
        m.set("core.timing_s", fast - committed * cov / observed.max(1.0));
        m.set("core.cell_fixed_ms", cell_fixed_ms(ctx.seed));

        let input_ms: Vec<f64> = tr
            .durations("campaign.input")
            .iter()
            .map(|d| d * 1e3)
            .collect();
        let d = Dist::of(&input_ms);
        m.set("campaign.input_ms_p50", d.p50);
        m.set("campaign.input_ms_tail", d.tail);
        m.set("campaign.input_tail_pct", d.tail_pct);
        m.set("campaign.input_n", d.n as f64);
        m.set(
            "campaign.divergences",
            tr.counter("campaign.divergences") / it,
        );
        m.set("campaign.panics", tr.counter("campaign.panics") / it);
        m.set(
            "campaign.edge_buckets",
            self.coverage.edge_buckets_seen() as f64,
        );

        let busy = per("campaign.input");
        m.set("pool.workers", ctx.workers as f64);
        m.set("pool.busy_s", busy);
        m.set("pool.queue_wait_s", per("pool.queue_wait"));
        m.set(
            "pool.efficiency",
            busy / (ctx.workers as f64 * per("pool.run")).max(1e-12),
        );
        Ok(())
    }

    fn config_fingerprints(&self) -> Vec<(String, u64)> {
        let m = CampaignConfig::new(0, 0).machine;
        vec![
            (
                "result_campaign_4+2".into(),
                fnv1a64(m.result_fingerprint_text().as_bytes()),
            ),
            ("hierarchy_4+2".into(), dda_bench::config_fingerprint(&m)),
        ]
    }
}

/// Median host cost of a 1-instruction run of a fuzzed program on the
/// campaign machine.
fn cell_fixed_ms(seed: u64) -> f64 {
    let cfg = CampaignConfig::new(0, 0).machine.with_audit(true);
    let presets = FuzzWeights::presets();
    let xs: Vec<f64> = (0..24u64)
        .map(|k| {
            let p = Arc::new(fuzz_program(
                mix(seed, 5000 + k),
                &presets[k as usize % presets.len()].1,
            ));
            let t = Instant::now();
            let _ = Simulator::new(cfg.clone()).and_then(|s| s.run_shared(p, 1));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&xs)
}

/// One input's traced outcome.
struct InputRun {
    coverage: CoverageMap,
    fast: Result<Box<SimResult>, SimError>,
    reference: Result<Box<SimResult>, SimError>,
}

/// [`run_campaign`] rebuilt from the public functions it is made of —
/// [`fuzz_program`], [`mutate`], a functional coverage pass, and
/// [`contained_run`] on each kernel under [`pool::run_tasks`] — with a span
/// around each. Divergences are counted, not minimized: any divergence
/// fails the workload.
fn traced_campaign(
    cfg: &CampaignConfig,
    iter: usize,
    tr: &Tracer,
    rid: u64,
) -> (Summary, CoverageMap) {
    let presets = FuzzWeights::presets();
    let cell_id = |i: usize| ((iter as u64) << 32) | (i as u64 + 1);
    let mut programs: Vec<Arc<Program>> = Vec::with_capacity(cfg.inputs as usize);
    let mut mutated = 0usize;
    for i in 0..cfg.inputs as usize {
        let seed_i = derive_seed(cfg.seed, i as u64);
        let is_mutant =
            cfg.mutate_every > 0 && i > 0 && (i as u32 + 1).is_multiple_of(cfg.mutate_every);
        let p = if is_mutant {
            mutated += 1;
            tr.span("program.mutate", cell_id(i), rid, |_| {
                let mut rng = dda_stats::Rng::seed_from_u64(seed_i);
                let base = rng.gen_range(0..i);
                mutate(&programs[base], seed_i)
            })
        } else {
            let (_, w) = presets[i % presets.len()];
            tr.span("program.fuzz_gen", cell_id(i), rid, |_| {
                fuzz_program(seed_i, &w)
            })
        };
        programs.push(Arc::new(p));
    }
    tr.count("program.inputs", programs.len() as f64);

    let machine = {
        let mut m = cfg.machine.clone().with_audit(true);
        m.deadlock_cycles = cfg.deadlock_window;
        m.planted_defect = cfg.plant_defect;
        m
    };
    let budget = cfg.budget;
    let runs = tr.span("pool.run", 0, rid, |pid| {
        let submitted = tr.now();
        let tasks: Vec<_> = programs
            .iter()
            .enumerate()
            .map(|(i, program)| {
                let program = Arc::clone(program);
                let cid = cell_id(i);
                let mut m = machine.clone();
                if let Some(plan) = &cfg.fault_plan {
                    m.fault_plan = FaultPlan {
                        seed: derive_seed(cfg.seed ^ 0xFA17, i as u64),
                        ..*plan
                    };
                }
                move || {
                    tr.record(Span {
                        id: 0,
                        parent: pid,
                        cell: cid,
                        name: "pool.queue_wait",
                        start: submitted,
                        end: tr.now(),
                    });
                    tr.span("campaign.input", cid, pid, |iid| {
                        let coverage = tr.span("vm.coverage", cid, iid, |_| {
                            let mut cov = CoverageMap::new();
                            let mut vm = Vm::new(Arc::clone(&program));
                            let _ = drain_stream(&mut vm, budget, |d| cov.observe(d));
                            tr.count("vm.observed", vm.instructions_executed() as f64);
                            count_tcache(tr, &vm.tcache_stats());
                            cov
                        });
                        let (mut fast_cfg, mut ref_cfg) = (m.clone(), m);
                        fast_cfg.reference_kernel = false;
                        ref_cfg.reference_kernel = true;
                        let fast = tr.span("campaign.fast", cid, iid, |_| {
                            contained_run(&fast_cfg, &program, budget)
                        });
                        let reference = tr.span("campaign.ref", cid, iid, |_| {
                            contained_run(&ref_cfg, &program, budget)
                        });
                        InputRun {
                            coverage,
                            fast,
                            reference,
                        }
                    })
                }
            })
            .collect();
        pool::run_tasks(tasks, cfg.workers.max(1))
    });

    let mut s = Summary {
        inputs: runs.len(),
        generated: runs.len() - mutated,
        mutated,
        completed: 0,
        trapped: 0,
        deadlocked: 0,
        invariant_violations: 0,
        host_panics: 0,
        divergences: 0,
        committed: 0,
        edge_buckets: 0,
        op_classes: 0,
        observed: 0,
    };
    let mut coverage = CoverageMap::new();
    for run in runs {
        let Ok(run) = run else {
            s.host_panics += 1;
            continue;
        };
        coverage.merge(&run.coverage);
        let panicked = matches!(run.fast, Err(SimError::WorkerPanic(_)))
            || matches!(run.reference, Err(SimError::WorkerPanic(_)));
        if panicked {
            s.host_panics += 1;
        }
        match &run.fast {
            Ok(r) => {
                s.completed += 1;
                s.committed += r.committed;
                count_sim(tr, r);
            }
            Err(SimError::Trap(_)) => s.trapped += 1,
            Err(SimError::Deadlock(_)) => s.deadlocked += 1,
            Err(SimError::InvariantViolation(_)) => s.invariant_violations += 1,
            Err(_) => {}
        }
        if !outcomes_equal(&run.fast, &run.reference) {
            s.divergences += 1;
        }
    }
    tr.count("campaign.divergences", s.divergences as f64);
    tr.count("campaign.panics", s.host_panics as f64);
    s.edge_buckets = coverage.edge_buckets_seen();
    s.op_classes = coverage.op_classes_seen();
    s.observed = coverage.observed();
    (s, coverage)
}
