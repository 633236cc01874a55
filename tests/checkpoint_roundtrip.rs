//! Checkpoint round-trip and resume bit-identity.
//!
//! The sampling/checkpoint machinery is only sound if restoration is
//! *transparent*: a detailed window started from a restored
//! [`dda::vm::Checkpoint`] must be bit-identical to the same window
//! reached by continuous simulation — architectural state, cycle counts,
//! cache statistics, and (the subtle one) the fault-injection RNG draw
//! order under an active [`FaultPlan`]. These tests enforce that
//! discipline end-to-end, through serialized bytes, not just in-memory
//! clones.

use std::sync::Arc;

use dda::core::{FaultPlan, MachineConfig, Simulator};
use dda::vm::{Checkpoint, Vm};
use dda::workloads::{Benchmark, RealWorkload};
use dda_bench::{
    config_fingerprint, program_fingerprint, sample_program, sample_program_stored,
    tags_from_checkpoint, CheckpointStore, Confidence, SampledCell, SamplingConfig,
};
use dda_mem::FunctionalWarmup;

fn faulty_machine() -> MachineConfig {
    MachineConfig::n_plus_m(4, 2)
        .with_optimizations()
        .with_fault_plan(FaultPlan {
            seed: 0xfab,
            flip_lvc_line: 0.01,
            flip_l1_line: 0.01,
            drop_port_grant: 0.02,
            delay_port_grant: 0.02,
            delay_cycles: 3,
            corrupt_forward: 0.005,
        })
}

/// Functional state must survive serialization exactly: registers, FP
/// bits, memory pages, `$sp` version, and the continuation itself.
#[test]
fn restored_vm_continues_bit_identically() {
    let program = Arc::new(Benchmark::Vortex.program(u32::MAX / 2));
    let (phash, chash) = (program_fingerprint(&program), 7);
    let mut cont = Vm::new(Arc::clone(&program));
    cont.fast_forward(25_000).unwrap();
    let ck = Checkpoint::from_bytes(&cont.checkpoint(phash, chash).to_bytes()).unwrap();
    let mut rest = Vm::restore(Arc::clone(&program), &ck).unwrap();
    assert_eq!(rest.instructions_executed(), 25_000);
    for n in [1u64, 999, 10_000] {
        cont.fast_forward(n).unwrap();
        rest.fast_forward(n).unwrap();
        assert_eq!(rest.pc(), cont.pc());
        assert_eq!(rest.sp_version(), cont.sp_version());
        assert_eq!(rest.instructions_executed(), cont.instructions_executed());
        for r in dda::isa::Gpr::all() {
            assert_eq!(rest.gpr(r), cont.gpr(r), "{r:?} diverged after +{n}");
        }
        for f in dda::isa::Fpr::all() {
            assert_eq!(
                rest.fpr(f).to_bits(),
                cont.fpr(f).to_bits(),
                "{f:?} diverged after +{n}"
            );
        }
        let pages: Vec<_> = cont.memory().resident_page_bytes().collect();
        let rpages: Vec<_> = rest.memory().resident_page_bytes().collect();
        assert_eq!(pages.len(), rpages.len());
        for ((ai, ab), (bi, bb)) in pages.iter().zip(&rpages) {
            assert_eq!(ai, bi, "page set diverged");
            assert_eq!(ab, bb, "page {ai} bytes diverged");
        }
    }
    // The translation-cache front-end is deterministic across restores:
    // two VMs from the same checkpoint report identical tcache stats.
    let mut r1 = Vm::restore(Arc::clone(&program), &ck).unwrap();
    let mut r2 = Vm::restore(Arc::clone(&program), &ck).unwrap();
    r1.fast_forward(20_000).unwrap();
    r2.fast_forward(20_000).unwrap();
    assert_eq!(r1.tcache_stats(), r2.tcache_stats());
}

/// The tentpole discipline: a detailed window from a restored checkpoint
/// equals the continuous-fast-forward window, [`dda::core::SimResult`]
/// for [`dda::core::SimResult`] — with fault injection armed, so the
/// fault-RNG draw order is part of the contract.
#[test]
fn resumed_window_is_bit_identical_even_under_faults() {
    for cfg in [
        MachineConfig::n_plus_m(4, 2).with_optimizations(),
        faulty_machine(),
    ] {
        let sim = Simulator::new(cfg.clone()).unwrap();
        let program = Arc::new(Benchmark::Li.program(u32::MAX / 2));
        let (phash, chash) = (program_fingerprint(&program), config_fingerprint(&cfg));
        let mut vm = Vm::new(Arc::clone(&program));
        let mut warm = FunctionalWarmup::new(&cfg.hierarchy);
        vm.fast_forward_observed(30_000, |d| {
            if let Some(m) = &d.mem {
                warm.touch(m.addr, m.is_store, m.is_local());
            }
        })
        .unwrap();
        let tags = warm.tags();
        let mut ck = vm.checkpoint(phash, chash);
        ck.cache_tags = Some(tags.to_bytes());
        let ck = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();

        let direct = sim.run_window(vm, Some(&tags), 2_000, 4_000).unwrap();
        let restored = Vm::restore(Arc::clone(&program), &ck).unwrap();
        let rtags = tags_from_checkpoint(&ck).unwrap().expect("tags survive");
        let resumed = sim
            .run_window(restored, Some(&rtags), 2_000, 4_000)
            .unwrap();
        assert_eq!(
            direct.total,
            resumed.total,
            "total drifted (faults = {})",
            !cfg.fault_plan.is_none()
        );
        assert_eq!(
            direct.window,
            resumed.window,
            "window drifted (faults = {})",
            !cfg.fault_plan.is_none()
        );
    }
}

/// The sampling driver resumes through an on-disk store without changing
/// a single measurement — under an active fault plan — so sweep workers
/// picking up checkpoints see exactly what a cold run would.
#[test]
fn sampling_through_a_store_is_transparent_under_faults() {
    let dir = std::env::temp_dir().join(format!("dda-ckpt-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = faulty_machine();
    let program = Arc::new(RealWorkload::Quicksort.program());
    let scfg = SamplingConfig {
        windows: 3,
        window_insts: 600,
        warmup_insts: 300,
        budget: 24_000,
        confidence: Confidence::C95,
        functional_warmup: true,
        ..SamplingConfig::for_budget(0)
    };
    let plain = sample_program(&cfg, Arc::clone(&program), &scfg).unwrap();
    let cold = sample_program_stored(&cfg, Arc::clone(&program), &scfg, Some(&store)).unwrap();
    let hot = sample_program_stored(&cfg, program, &scfg, Some(&store)).unwrap();
    for s in [&cold, &hot] {
        assert_eq!(s.windows.len(), plain.windows.len());
        for (x, y) in s.windows.iter().zip(&plain.windows) {
            assert_eq!(
                (x.start_inst, x.committed, x.cycles),
                (y.start_inst, y.committed, y.cycles)
            );
        }
    }
    assert_eq!(hot.fast_forwarded, 0, "hot store run still replayed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint file written by an older format version is a store miss:
/// the sampling driver replays the position instead, measures exactly
/// what a storeless run measures, and overwrites the file in the current
/// format.
#[test]
fn an_old_format_checkpoint_is_a_sampling_miss() {
    let dir = std::env::temp_dir().join(format!("dda-ckpt-old-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
    let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
    let scfg = SamplingConfig {
        windows: 3,
        window_insts: 600,
        warmup_insts: 300,
        budget: 24_000,
        confidence: Confidence::C95,
        functional_warmup: true,
        ..SamplingConfig::for_budget(0)
    };
    let plain = sample_program(&cfg, Arc::clone(&program), &scfg).unwrap();
    sample_program_stored(&cfg, Arc::clone(&program), &scfg, Some(&store)).unwrap();

    // Rewrite one stored file's version word (after the 8-byte magic) to
    // 1. Files sort by position; the second is the first one past
    // instruction 0, so treating it as a miss costs a replay.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let victim = &files[1];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(victim, &bytes).unwrap();

    let warm = sample_program_stored(&cfg, program, &scfg, Some(&store)).unwrap();
    assert_eq!(
        SampledCell::from_run(&warm, 1),
        SampledCell::from_run(&plain, 1)
    );
    assert!(warm.fast_forwarded > 0, "the old file was not a miss");
    let healed = std::fs::read(victim).unwrap();
    assert_eq!(healed[8..12], 2u32.to_le_bytes(), "not rewritten");
    assert!(Checkpoint::from_bytes(&healed).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Length and FNV-1a 64 hash of the pinned checkpoint below, as encoded
/// when the format was pinned. Checkpoint stores are content-addressed
/// and persist across builds, so a change to either value means stores
/// written by an older build no longer restore: that takes a format
/// version bump, not an edit of these constants.
const PINNED_CHECKPOINT_LEN: usize = 29_146;
const PINNED_CHECKPOINT_FNV: u64 = 0x3714_6b3d_c4b2_e181;

/// The checkpoint encoding is pinned byte for byte: compress after 50 000
/// fast-forwarded instructions encodes to the same bytes, and decoding
/// and re-encoding them through a restored machine gives them back.
#[test]
fn checkpoint_encoding_is_pinned() {
    let program = Arc::new(Benchmark::Compress.program(u32::MAX / 2));
    let phash = program_fingerprint(&program);
    let mut vm = Vm::new(Arc::clone(&program));
    vm.fast_forward(50_000).unwrap();
    let bytes = vm.checkpoint(phash, 7).to_bytes();
    assert_eq!(bytes.len(), PINNED_CHECKPOINT_LEN);
    assert_eq!(dda_stats::fnv1a64(&bytes), PINNED_CHECKPOINT_FNV);
    let restored = Vm::restore(program, &Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
    assert_eq!(restored.checkpoint(phash, 7).to_bytes(), bytes);
}
