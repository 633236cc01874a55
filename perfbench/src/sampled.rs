//! `sampled-long`: interval sampling of all twelve benchmarks at a 3 M
//! instruction budget on the (4+2) optimized machine, functional warming
//! on, with a fresh checkpoint store per pass.

use std::sync::Arc;
use std::time::Instant;

use dda_bench::{
    config_fingerprint, pool, program_fingerprint, sample_program_stored, tags_from_checkpoint,
    CellOutcome, CheckpointStore, Estimate, SampledCell, SampledRun, SamplingConfig, WindowSample,
};
use dda_core::{MachineConfig, SimError, Simulator, TrapKind};
use dda_mem::{FunctionalWarmup, HierarchyTags};
use dda_program::Program;
use dda_stats::fnv1a64;
use dda_vm::{CheckpointKey, Vm, VmError};
use dda_workloads::Benchmark;

use crate::host::{discard, mix};
use crate::layers::{count_sim, count_tcache, set_sim};
use crate::metrics::MetricSet;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Step, Workload};

/// Budget of the full run each sample approximates, before the seed's
/// offset.
const BASE_BUDGET: u64 = 3_000_000;

fn machine() -> MachineConfig {
    MachineConfig::n_plus_m(4, 2).with_optimizations()
}

/// The measurement identity of a sampled run: everything except host
/// time.
fn identity(run: &SampledRun) -> Vec<u8> {
    let mut b = CellOutcome::Sampled(SampledCell::from_run(run, 1)).to_bytes();
    b.extend_from_slice(&run.fast_forwarded.to_le_bytes());
    b.push(u8::from(run.halted_early));
    b
}

/// One benchmark of the workload.
struct Bench {
    bench: Benchmark,
    program: Arc<Program>,
    scfg: SamplingConfig,
}

/// The `sampled-long` workload.
pub struct SampledLong {
    cfg: MachineConfig,
    benches: Vec<Bench>,
    reference: Vec<SampledRun>,
    ref_bytes: Vec<Vec<u8>>,
    digest: u64,
}

impl SampledLong {
    /// Checks one pass against the set-up reference.
    fn verify(&self, runs: &[Result<SampledRun, SimError>]) -> Result<(u64, u64), String> {
        let mut failed = 0;
        for ((r, want), b) in runs.iter().zip(&self.ref_bytes).zip(&self.benches) {
            match r {
                Ok(run) if identity(run) == *want => {}
                Ok(_) => {
                    return Err(format!(
                        "{}: sampled run differs from the set-up run",
                        b.bench.name()
                    ))
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", b.bench.name());
                    failed += 1;
                }
            }
        }
        Ok((self.digest, failed))
    }

    fn step_from(
        &self,
        runs: Vec<Result<SampledRun, SimError>>,
        secs: f64,
    ) -> Result<Step, String> {
        let (digest, failed) = self.verify(&runs)?;
        Ok(Step {
            cells: runs.len() as u64,
            insts: runs.iter().flatten().map(|r| r.fast_forwarded).sum(),
            secs,
            attempted: runs.len() as u64,
            failed,
            digest,
        })
    }
}

impl Workload for SampledLong {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let cfg = machine();
        let scale = (1 << 20) + (mix(ctx.seed, 1) % (1 << 20)) as u32;
        let benches: Vec<Bench> = Benchmark::ALL
            .into_iter()
            .enumerate()
            .map(|(i, bench)| Bench {
                bench,
                program: Arc::new(bench.program(scale)),
                // The seed moves each benchmark's budget by under 1.1 %,
                // and with it every window start.
                scfg: SamplingConfig::for_budget(
                    BASE_BUDGET + (mix(ctx.seed, 10 + i as u64) % 32) * 1000,
                ),
            })
            .collect();
        let dir = ctx.work.fresh("ckpt");
        let store = CheckpointStore::open(&dir).map_err(|e| format!("checkpoint store: {e}"))?;
        let mut reference = Vec::new();
        for b in &benches {
            let run = sample_program_stored(&cfg, Arc::clone(&b.program), &b.scfg, Some(&store))
                .map_err(|e| format!("warm-up sample of {}: {e}", b.bench.name()))?;
            reference.push(run);
        }
        discard(&dir);
        let ref_bytes: Vec<Vec<u8>> = reference.iter().map(identity).collect();
        let digest = fnv1a64(&ref_bytes.concat());
        Ok(SampledLong {
            cfg,
            benches,
            reference,
            ref_bytes,
            digest,
        })
    }

    fn step(&mut self, ctx: &Ctx, _i: usize) -> Result<Step, String> {
        let dir = ctx.work.fresh("ckpt");
        let store = CheckpointStore::open(&dir).map_err(|e| format!("checkpoint store: {e}"))?;
        let t = Instant::now();
        let runs: Vec<_> = self
            .benches
            .iter()
            .map(|b| {
                sample_program_stored(&self.cfg, Arc::clone(&b.program), &b.scfg, Some(&store))
            })
            .collect();
        let secs = t.elapsed().as_secs_f64();
        discard(&dir);
        self.step_from(runs, secs)
    }

    fn traced_step(&mut self, ctx: &Ctx, i: usize, tr: &Tracer) -> Result<Step, String> {
        let dir = ctx.work.fresh("ckpt");
        let store = CheckpointStore::open(&dir).map_err(|e| format!("checkpoint store: {e}"))?;
        let t = Instant::now();
        let runs: Vec<_> = self
            .benches
            .iter()
            .enumerate()
            .map(|(k, b)| {
                let cid = ((i as u64) << 32) | (k as u64 + 1);
                tr.span("sampling.run", cid, 0, |sid| {
                    traced_sample(&self.cfg, &b.program, &b.scfg, &store, tr, cid, sid)
                })
            })
            .collect();
        let secs = t.elapsed().as_secs_f64();
        discard(&dir);
        self.step_from(runs, secs)
    }

    fn check(&mut self, _ctx: &Ctx) -> Result<(), String> {
        // Every pass was compared with the set-up pass inside its
        // iteration; here, the accuracy figures must be finite.
        for (r, b) in self.reference.iter().zip(&self.benches) {
            if r.windows.len() < 2 || !r.cpi.half_width.is_finite() {
                return Err(format!(
                    "{}: fewer than two windows measured",
                    b.bench.name()
                ));
            }
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
        let it = iters.max(1) as f64;
        let per = |name: &str| tr.total(name) / it;

        // Untimed probes: program generation, and plain functional replay
        // of the same streams (no warming) to split `vm` from `mem`.
        let t = Instant::now();
        for b in &self.benches {
            let _ = b.bench.program(1 << 20);
        }
        m.set("workloads.gen_s", t.elapsed().as_secs_f64());
        m.set("workloads.programs", self.benches.len() as f64);
        let mut plain = 0.0;
        let mut plain_insts = 0u64;
        for (b, r) in self.benches.iter().zip(&self.reference) {
            let mut vm = Vm::new(Arc::clone(&b.program));
            let t = Instant::now();
            let _ = vm.fast_forward(r.fast_forwarded);
            plain += t.elapsed().as_secs_f64();
            plain_insts += vm.instructions_executed();
        }
        let replay = plain / plain_insts.max(1) as f64;
        m.set("vm.ff_s", plain);
        m.set("vm.ff_mips", plain_insts as f64 / plain.max(1e-12) / 1e6);
        m.set("mem.warm_s", per("vm.ff_warming") - plain);
        m.set("mem.touches", tr.counter("mem.touches") / it);
        m.set("vm.clone_s", per("vm.clone"));
        m.set("vm.checkpoint_encode_s", per("vm.checkpoint_encode"));
        let saves = tr.counter("checkpoint.saves");
        m.set(
            "vm.checkpoint_bytes",
            tr.counter("checkpoint.bytes") / saves.max(1.0),
        );
        m.set(
            "checkpoint.fingerprint_ms",
            per("checkpoint.fingerprint") * 1e3,
        );
        m.set("checkpoint.save_s", per("checkpoint.save"));
        m.set("checkpoint.load_s", per("checkpoint.load"));
        m.set("checkpoint.saves", saves / it);
        m.set("checkpoint.bytes", tr.counter("checkpoint.bytes") / it);
        let window = per("core.window");
        let (committed, cycles) = set_sim(tr, it, m);
        m.set("core.window_s", window);
        m.set("core.run_s", window);
        m.set("core.ns_per_inst", window * 1e9 / committed.max(1.0));
        m.set("core.ns_per_cycle", window * 1e9 / cycles.max(1.0));
        m.set("core.timing_s", window - committed * replay);

        let windows: usize = self.reference.iter().map(|r| r.windows.len()).sum();
        let measured: u64 = self
            .reference
            .iter()
            .flat_map(|r| &r.windows)
            .map(|w| w.committed)
            .sum();
        let detailed: u64 = self.reference.iter().map(|r| r.detailed_insts).sum();
        m.set("sampling.windows", windows as f64);
        m.set("sampling.rounds", self.reference.len() as f64);
        m.set("sampling.detailed_insts", detailed as f64);
        m.set(
            "sampling.ff_insts",
            self.reference.iter().map(|r| r.fast_forwarded).sum::<u64>() as f64,
        );
        m.set(
            "sampling.measured_share",
            measured as f64 / detailed.max(1) as f64,
        );
        m.set("sampling.unaccounted_s", tr.self_time("sampling.run") / it);
        let rel: Vec<f64> = self
            .reference
            .iter()
            .map(|r| r.cpi.half_width / r.cpi.mean)
            .collect();
        m.set("sampling.ci_rel_halfwidth", median(&rel));
        m.set("sampling.cpi_err_pct", self.cpi_err_pct(ctx.workers)?);
        Ok(())
    }

    fn config_fingerprints(&self) -> Vec<(String, u64)> {
        vec![
            (
                "result_4+2".into(),
                fnv1a64(self.cfg.result_fingerprint_text().as_bytes()),
            ),
            ("hierarchy_4+2".into(), config_fingerprint(&self.cfg)),
        ]
    }
}

impl SampledLong {
    /// Median over benchmarks of |sampled − full-run CPI| / full CPI, in
    /// percent, from full detailed runs made outside any timed phase.
    fn cpi_err_pct(&self, workers: usize) -> Result<f64, String> {
        let tasks: Vec<_> = self
            .benches
            .iter()
            .map(|b| {
                let cfg = self.cfg.clone();
                let program = Arc::clone(&b.program);
                let budget = b.scfg.budget;
                move || Simulator::new(cfg).and_then(|s| s.run_shared(program, budget))
            })
            .collect();
        let mut errs = Vec::new();
        for ((res, r), b) in pool::run_tasks(tasks, workers)
            .into_iter()
            .zip(&self.reference)
            .zip(&self.benches)
        {
            let full = match res {
                Ok(Ok(full)) => full,
                Ok(Err(e)) => return Err(format!("full run of {}: {e}", b.bench.name())),
                Err(_) => return Err(format!("full run of {} panicked", b.bench.name())),
            };
            let cpi = full.cycles as f64 / full.committed.max(1) as f64;
            errs.push((r.cpi.mean - cpi).abs() / cpi * 100.0);
        }
        Ok(median(&errs))
    }
}

/// [`sample_program_stored`] rebuilt from the public functions it is made
/// of — [`Vm::fast_forward_observed`] feeding [`FunctionalWarmup::touch`],
/// [`Vm::checkpoint`], [`CheckpointStore::save`] and
/// [`Simulator::run_window`] — with a span around each. Produces the same
/// [`SampledRun`]; the workload checks that it does.
fn traced_sample(
    cfg: &MachineConfig,
    program: &Arc<Program>,
    scfg: &SamplingConfig,
    store: &CheckpointStore,
    tr: &Tracer,
    cid: u64,
    sid: u64,
) -> Result<SampledRun, SimError> {
    let sim = Simulator::new(cfg.clone())?;
    let t0 = Instant::now();
    let k = scfg.windows.max(1) as u64;
    let spacing = (scfg.budget / k).max(1);
    let phash = tr.span("checkpoint.fingerprint", cid, sid, |_| {
        program_fingerprint(program)
    });
    let chash = if scfg.functional_warmup {
        config_fingerprint(cfg)
    } else {
        0
    };
    let key_at = |inst: u64| CheckpointKey {
        program_hash: phash,
        inst_index: inst,
        config_hash: chash,
    };
    let mut vm = Vm::new(Arc::clone(program));
    let mut warm = scfg
        .functional_warmup
        .then(|| FunctionalWarmup::new(&cfg.hierarchy));
    let mut windows = Vec::with_capacity(scfg.windows);
    let mut detailed_insts = 0u64;
    let mut ff_insts = 0u64;
    let save = |vm: &Vm, tags: Option<&HierarchyTags>| {
        let ck = tr.span("vm.checkpoint_encode", cid, sid, |_| {
            let mut ck = vm.checkpoint(phash, chash);
            ck.cache_tags = tags.map(HierarchyTags::to_bytes);
            ck
        });
        if let Ok(path) = tr.span("checkpoint.save", cid, sid, |_| store.save(&ck)) {
            tr.count("checkpoint.saves", 1.0);
            if let Ok(md) = std::fs::metadata(path) {
                tr.count("checkpoint.bytes", md.len() as f64);
            }
        }
    };
    for i in 0..k {
        let start = i * spacing;
        let restored = tr.span("checkpoint.load", cid, sid, |_| {
            load_state(store, &key_at(start), program, warm.is_some())
        });
        let tags = match restored {
            Some((r, restored_tags)) => {
                vm = r;
                if let (Some(w), Some(t)) = (&mut warm, &restored_tags) {
                    w.adopt(t);
                }
                restored_tags
            }
            None => {
                position(&mut vm, start, warm.as_mut(), &mut ff_insts, tr, cid, sid)?;
                if vm.is_halted() {
                    break;
                }
                let tags = warm.as_ref().map(|w| w.tags());
                save(&vm, tags.as_ref());
                tags
            }
        };
        if vm.is_halted() {
            break;
        }
        let vm_w = tr.span("vm.clone", cid, sid, |_| vm.clone());
        let run = tr.span("core.window", cid, sid, |_| {
            sim.run_window(vm_w, tags.as_ref(), scfg.warmup_insts, scfg.window_insts)
        })?;
        count_sim(tr, &run.total);
        detailed_insts += run.total.committed;
        if run.window.committed == 0 {
            break;
        }
        let lvc_hit_rate = match &run.window.lvc {
            Some(l) if l.accesses() > 0 => l.hits as f64 / l.accesses() as f64,
            _ => 0.0,
        };
        windows.push(WindowSample {
            start_inst: vm.instructions_executed(),
            committed: run.window.committed,
            cycles: run.window.cycles,
            cpi: run.window.cycles as f64 / run.window.committed as f64,
            lvc_hit_rate,
            port_stalls_per_kinst: (run.window.lsq.port_stall_cycles
                + run.window.lvaq.port_stall_cycles) as f64
                / (run.window.committed as f64 / 1000.0),
        });
    }
    if !vm.is_halted() && scfg.budget > vm.instructions_executed() {
        let restored = tr.span("checkpoint.load", cid, sid, |_| {
            load_state(store, &key_at(scfg.budget), program, warm.is_some())
        });
        match restored {
            Some((r, _)) => vm = r,
            None => {
                position(
                    &mut vm,
                    scfg.budget,
                    warm.as_mut(),
                    &mut ff_insts,
                    tr,
                    cid,
                    sid,
                )?;
                if !vm.is_halted() {
                    save(&vm, warm.as_ref().map(|w| w.tags()).as_ref());
                }
            }
        }
    }
    count_tcache(tr, &vm.tcache_stats());
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
        host_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Fast-forwards the master to instruction `target`, feeding every access
/// to the warmup model when there is one.
fn position(
    vm: &mut Vm,
    target: u64,
    warm: Option<&mut FunctionalWarmup>,
    ff_insts: &mut u64,
    tr: &Tracer,
    cid: u64,
    sid: u64,
) -> Result<(), SimError> {
    let here = vm.instructions_executed();
    if target <= here {
        return Ok(());
    }
    let n = target - here;
    let res = match warm {
        Some(w) => tr.span("vm.ff_warming", cid, sid, |_| {
            let mut touches = 0u64;
            let r = vm.fast_forward_observed(n, |d| {
                if let Some(m) = &d.mem {
                    touches += 1;
                    w.touch(m.addr, m.is_store, m.is_local());
                }
            });
            tr.count("mem.touches", touches as f64);
            r
        }),
        None => tr.span("vm.ff", cid, sid, |_| vm.fast_forward(n)),
    };
    res.map_err(|e| trap_at(vm, e))?;
    *ff_insts += vm.instructions_executed() - here;
    Ok(())
}

/// A stored position, validated as `sample_program_stored` does; any failure
/// is a miss.
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

fn trap_at(vm: &Vm, e: VmError) -> SimError {
    SimError::Trap(dda_core::Trap {
        kind: TrapKind::from(e),
        cycle: 0,
        committed: vm.instructions_executed(),
    })
}
