//! Differential tests for the basic-block translation cache: block replay
//! (`Vm::step_block`) must be observationally identical to the interpretive
//! front-end (`Vm::step`) — same `DynInst` stream, same final architectural
//! state, same `VmError` at the same pc — across randomized programs,
//! deliberate fault paths (whose pipeline runs must trap with that
//! `VmError` on both kernels), stack-slot versioning, and fault-injected
//! pipeline runs (RNG draw order). Fast-forward (`Vm::fast_forward_observed`),
//! which replays blocks straight into its observer, is held to the same
//! stream, error and final state.

use std::sync::Arc;

use dda::core::{FaultPlan, MachineConfig, SimError, Simulator};
use dda::isa::{AluOp, Fpr, FpuOp, Gpr, MemWidth, StreamHint};
use dda::program::{FunctionBuilder, Program, ProgramBuilder};
use dda::stats::Rng;
use dda::vm::{DynInst, StreamProfiler, Vm, VmError};
use dda::workloads::Benchmark;

/// Safety net against generator bugs producing non-terminating programs.
const STEP_CAP: u64 = 2_000_000;

/// Drains a [`Vm`] through the interpretive front-end.
fn interp_run(program: &Arc<Program>, cap: u64) -> (Vec<DynInst>, Option<VmError>, Vm) {
    let mut vm = Vm::new(Arc::clone(program));
    let mut stream = Vec::new();
    let err = loop {
        if stream.len() as u64 >= cap {
            break None;
        }
        match vm.step() {
            Ok(Some(d)) => stream.push(d),
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    (stream, err, vm)
}

/// Drains a [`Vm`] through the block-replay front-end.
fn replay_run(program: &Arc<Program>, cap: u64) -> (Vec<DynInst>, Option<VmError>, Vm) {
    let mut vm = Vm::new(Arc::clone(program));
    let mut stream = Vec::new();
    let mut ring = Vec::new();
    let err = loop {
        if stream.len() as u64 >= cap {
            break None;
        }
        ring.clear();
        let fault = vm.step_block(&mut ring);
        stream.extend(ring.iter().copied());
        if let Some(e) = fault {
            break Some(e);
        }
        if ring.is_empty() {
            break None;
        }
    };
    (stream, err, vm)
}

/// Drains a [`Vm`] through the fast-forward front-end, which replays
/// blocks into its observer without buffering them.
fn ff_run(program: &Arc<Program>, cap: u64) -> (Vec<DynInst>, Option<VmError>, Vm) {
    let mut vm = Vm::new(Arc::clone(program));
    let mut stream = Vec::new();
    let err = vm.fast_forward_observed(cap, |d| stream.push(*d)).err();
    (stream, err, vm)
}

/// Asserts the two machines ended in the same architectural state. Memory
/// is compared at every address the committed stream touched (the sparse
/// store has no global equality, and untouched pages are zero in both).
fn assert_same_state(label: &str, a: &Vm, b: &Vm, stream: &[DynInst]) {
    assert_eq!(a.pc(), b.pc(), "{label}: final pc");
    assert_eq!(a.is_halted(), b.is_halted(), "{label}: halted flag");
    assert_eq!(
        a.instructions_executed(),
        b.instructions_executed(),
        "{label}: executed count"
    );
    assert_eq!(a.sp_version(), b.sp_version(), "{label}: sp_version");
    assert_eq!(a.call_depth(), b.call_depth(), "{label}: call depth");
    assert_eq!(
        a.max_call_depth(),
        b.max_call_depth(),
        "{label}: max call depth"
    );
    for i in 0..32u8 {
        let r = Gpr::new(i);
        assert_eq!(a.gpr(r), b.gpr(r), "{label}: gpr {i}");
        let f = Fpr::new(i);
        assert_eq!(
            a.fpr(f).to_bits(),
            b.fpr(f).to_bits(),
            "{label}: fpr {i} bit pattern"
        );
    }
    for d in stream {
        if let Some(m) = d.mem {
            for off in 0..m.bytes {
                let addr = m.addr.wrapping_add(off);
                assert_eq!(
                    a.memory().read_u8(addr),
                    b.memory().read_u8(addr),
                    "{label}: memory byte {addr:#x} (touched at pc {})",
                    d.pc
                );
            }
        }
    }
}

/// Runs all three front-ends to completion and asserts full
/// observational equivalence: identical streams, identical error (or
/// none), identical final state — and, between the two block replayers,
/// identical translation-cache counters. Returns the committed stream for
/// further inspection.
fn assert_equivalent(label: &str, program: Program) -> Vec<DynInst> {
    let program = Arc::new(program);
    let (si, ei, vi) = interp_run(&program, STEP_CAP);
    let (sb, eb, vb) = replay_run(&program, STEP_CAP);
    let (sf, ef, vf) = ff_run(&program, STEP_CAP);
    assert!(
        (si.len() as u64) < STEP_CAP,
        "{label}: generator produced a runaway program"
    );
    for (front, s, e, v) in [("block", &sb, &eb, &vb), ("fast-forward", &sf, &ef, &vf)] {
        assert_eq!(si.len(), s.len(), "{label}: {front} stream length differs");
        for (i, (x, y)) in si.iter().zip(s).enumerate() {
            assert_eq!(x, y, "{label}: {front} DynInst #{i} differs");
        }
        assert_eq!(&ei, e, "{label}: {front} VmError differs");
        assert_same_state(&format!("{label} ({front})"), &vi, v, &si);
    }
    assert_eq!(
        vb.tcache_stats(),
        vf.tcache_stats(),
        "{label}: translation-cache counters differ"
    );
    si
}

// ---------------------------------------------------------------------------
// Randomized program generation
// ---------------------------------------------------------------------------

const SCRATCH: [Gpr; 14] = [
    Gpr::V0,
    Gpr::V1,
    Gpr::A0,
    Gpr::A1,
    Gpr::A2,
    Gpr::A3,
    Gpr::T0,
    Gpr::T1,
    Gpr::T2,
    Gpr::T3,
    Gpr::S0,
    Gpr::S1,
    Gpr::S2,
    Gpr::S3,
];

fn reg(rng: &mut Rng) -> Gpr {
    SCRATCH[rng.gen_range(0..SCRATCH.len())]
}

fn fpr(rng: &mut Rng) -> Fpr {
    Fpr::new(rng.gen_range(0u8..8))
}

/// Emits `n` random straight-line instructions into `f`. Local accesses
/// stay inside the `frame` bytes of the current frame; global accesses
/// stay inside the first 256 bytes of the global region.
fn random_body(f: &mut FunctionBuilder, rng: &mut Rng, frame: u32, n: usize) {
    for _ in 0..n {
        match rng.gen_range(0u32..12) {
            0 | 1 => {
                let op = AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())];
                f.alu(op, reg(rng), reg(rng), reg(rng));
            }
            2 => {
                let op = AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())];
                f.alui(op, reg(rng), reg(rng), rng.gen_range(-64i32..64));
            }
            3 => {
                f.load_imm(reg(rng), rng.gen_range(-1000i32..1000));
            }
            4 | 5 => {
                let slots = (frame / 4).max(1);
                f.store_local(reg(rng), 4 * rng.gen_range(0i32..slots as i32));
            }
            6 | 7 => {
                let slots = (frame / 4).max(1);
                f.load_local(reg(rng), 4 * rng.gen_range(0i32..slots as i32));
            }
            8 => {
                // Global word access, always 4-aligned, hint exercised.
                let off = 4 * rng.gen_range(0i32..64);
                let hint = [StreamHint::Unknown, StreamHint::NonLocal, StreamHint::Local]
                    [rng.gen_range(0usize..3)];
                if rng.gen_bool(0.5) {
                    f.store(reg(rng), Gpr::GP, off, MemWidth::Word, hint);
                } else {
                    f.load(reg(rng), Gpr::GP, off, MemWidth::Word, hint);
                }
            }
            9 => {
                // Sub-word accesses: bytes anywhere, halves 2-aligned.
                if rng.gen_bool(0.5) {
                    f.load(
                        reg(rng),
                        Gpr::GP,
                        rng.gen_range(0i32..256),
                        MemWidth::Byte,
                        StreamHint::NonLocal,
                    );
                } else {
                    f.store(
                        reg(rng),
                        Gpr::GP,
                        2 * rng.gen_range(0i32..128),
                        MemWidth::Half,
                        StreamHint::NonLocal,
                    );
                }
            }
            10 => {
                let op = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Mov][rng.gen_range(0usize..4)];
                f.fpu(op, fpr(rng), fpr(rng), fpr(rng));
            }
            _ => {
                if rng.gen_bool(0.5) {
                    f.int_to_fp(fpr(rng), reg(rng));
                } else {
                    f.fp_to_int(reg(rng), fpr(rng));
                }
            }
        }
    }
}

/// Builds a random terminating program: a main loop with random bodies,
/// conditional branches, and calls into one or two frame-owning helpers.
/// With `faulty`, the tail deliberately traps on one of the VM's error
/// paths so the differential run covers mid-block fault delivery.
fn random_program(rng: &mut Rng, faulty: bool) -> Program {
    let mut b = ProgramBuilder::new();

    // `with_frame` records metadata only: each function adjusts $sp
    // itself, exactly as the generated workloads do.
    let mut leaf = FunctionBuilder::with_frame("leaf", 64);
    leaf.addi(Gpr::SP, Gpr::SP, -64);
    let n = rng.gen_range(2usize..6);
    random_body(&mut leaf, rng, 64, n);
    leaf.addi(Gpr::SP, Gpr::SP, 64);
    leaf.ret();
    b.add_function(leaf);

    let mut helper = FunctionBuilder::with_frame("helper", 32);
    helper.addi(Gpr::SP, Gpr::SP, -32);
    let n = rng.gen_range(1usize..4);
    random_body(&mut helper, rng, 32, n);
    helper.call("leaf");
    let n = rng.gen_range(1usize..4);
    random_body(&mut helper, rng, 32, n);
    helper.addi(Gpr::SP, Gpr::SP, 32);
    helper.ret();
    b.add_function(helper);

    let mut main = FunctionBuilder::with_frame("main", 128);
    main.addi(Gpr::SP, Gpr::SP, -128);
    let iters = rng.gen_range(8i32..40);
    main.load_imm(Gpr::T9, iters);
    let top = main.new_label();
    let skip = main.new_label();
    main.bind(top);
    let n = rng.gen_range(4usize..12);
    random_body(&mut main, rng, 128, n);
    // A data-dependent forward branch so some blocks see both outcomes.
    main.alui(AluOp::And, Gpr::T8, Gpr::T9, 1);
    main.beqz(Gpr::T8, skip);
    match rng.gen_range(0u32..3) {
        0 => {
            main.call("leaf");
        }
        1 => {
            main.call("helper");
        }
        _ => {
            // Indirect call through a register, target taken from the
            // symbol table at build time (leaf sits at pc 0).
            main.load_imm(Gpr::T7, 0);
            main.call_reg(Gpr::T7);
        }
    }
    main.bind(skip);
    let n = rng.gen_range(2usize..6);
    random_body(&mut main, rng, 128, n);
    main.addi(Gpr::T9, Gpr::T9, -1);
    main.bnez(Gpr::T9, top);

    if faulty {
        match rng.gen_range(0u32..5) {
            0 => {
                // Misaligned word access inside the global region.
                main.load(Gpr::T0, Gpr::GP, 2, MemWidth::Word, StreamHint::Unknown);
            }
            1 => {
                // Unmapped address far below every region.
                main.load(Gpr::T0, Gpr::ZERO, 16, MemWidth::Word, StreamHint::Unknown);
            }
            2 => {
                // Return with no outstanding call.
                main.ret();
            }
            3 => {
                // Indirect call to a pc outside the image.
                main.load_imm(Gpr::T0, 1_000_000);
                main.call_reg(Gpr::T0);
            }
            _ => {
                // No halt: execution falls off the end of the image (main
                // is the last function), faulting PcOutOfRange on the
                // sequential-escape path.
            }
        }
    } else {
        main.halt();
    }
    b.add_function(main);
    b.entry("main");
    b.build().expect("generated program assembles")
}

// ---------------------------------------------------------------------------
// (a) Randomized differential replay vs. step
// ---------------------------------------------------------------------------

#[test]
fn randomized_programs_replay_identically() {
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xB10C << 8 | seed);
        let program = random_program(&mut rng, false);
        let stream = assert_equivalent(&format!("clean seed {seed}"), program);
        assert!(!stream.is_empty(), "seed {seed}: program committed nothing");
    }
}

#[test]
fn randomized_faulting_programs_trap_identically() {
    let mut faulted = 0u32;
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xFA17 << 8 | seed);
        let program = Arc::new(random_program(&mut rng, true));
        let (si, ei, vi) = interp_run(&program, STEP_CAP);
        let (sb, eb, vb) = replay_run(&program, STEP_CAP);
        assert_eq!(si, sb, "faulty seed {seed}: streams differ");
        assert_eq!(ei, eb, "faulty seed {seed}: VmError differs");
        assert_same_state(&format!("faulty seed {seed}"), &vi, &vb, &si);
        let Some(ei) = ei else {
            panic!("faulty seed {seed}: program did not trap");
        };
        // The pipeline reports the interpreter's fault, on either kernel.
        let [fast, reference] = [false, true].map(|reference| {
            let mut cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
            cfg.reference_kernel = reference;
            match Simulator::new(cfg)
                .unwrap()
                .run_shared(Arc::clone(&program), STEP_CAP)
            {
                Err(SimError::Trap(t)) => t,
                other => panic!("faulty seed {seed}, reference {reference}: {other:?}"),
            }
        });
        assert_eq!(fast, reference, "faulty seed {seed}: kernels' traps differ");
        assert_eq!(fast.kind, ei, "faulty seed {seed}: trap is not the VmError");
        faulted += 1;
    }
    assert_eq!(faulted, 24, "every faulty program must trap");
}

#[test]
fn randomized_faulting_programs_fast_forward_identically() {
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xFA17 << 8 | seed);
        let program = random_program(&mut rng, true);
        assert_equivalent(&format!("faulty seed {seed}"), program);
    }
}

#[test]
fn preset_benchmarks_fast_forward_exact_prefixes() {
    // Fast-forward stops on the exact instruction boundary, so its prefix
    // and final state match the interpreter's with no truncation.
    const WINDOW: u64 = 60_000;
    for bench in Benchmark::ALL {
        let program = Arc::new(bench.program(u32::MAX / 2));
        let (si, ei, vi) = interp_run(&program, WINDOW);
        let (sf, ef, vf) = ff_run(&program, WINDOW);
        assert_eq!(si.len(), sf.len(), "{bench}: prefix lengths differ");
        for (i, (x, y)) in si.iter().zip(&sf).enumerate() {
            assert_eq!(x, y, "{bench}: DynInst #{i} differs");
        }
        assert_eq!((ei, ef), (None, None), "{bench}: faulted inside the window");
        assert_same_state(&format!("{bench}"), &vi, &vf, &si);
    }
}

#[test]
fn preset_benchmarks_replay_identical_prefixes() {
    // Preset workloads run far past any test budget; compare a 60k-inst
    // prefix of both streams (the block front-end overshoots its last
    // block, so truncate to the interpreter's exact window).
    const WINDOW: u64 = 60_000;
    for bench in Benchmark::ALL {
        let program = Arc::new(bench.program(u32::MAX / 2));
        let (si, ei, _) = interp_run(&program, WINDOW);
        let (mut sb, eb, _) = replay_run(&program, WINDOW);
        sb.truncate(si.len());
        assert_eq!(si.len(), sb.len(), "{bench}: prefix lengths differ");
        for (i, (x, y)) in si.iter().zip(&sb).enumerate() {
            assert_eq!(x, y, "{bench}: DynInst #{i} differs");
        }
        assert_eq!(ei, None, "{bench}: interpreter faulted inside the window");
        assert_eq!(eb, None, "{bench}: block replay faulted inside the window");
    }
}

#[test]
fn mid_block_fault_leaves_pc_at_faulting_instruction() {
    // A block whose third op misaligns: the two leading ops must commit,
    // the machine must halt with pc parked at the faulting pc, exactly as
    // the interpreter leaves it.
    let mut main = FunctionBuilder::with_frame("main", 32);
    main.addi(Gpr::SP, Gpr::SP, -32);
    main.load_imm(Gpr::T0, 7);
    main.store_local(Gpr::T0, 0);
    main.load(Gpr::T1, Gpr::GP, 1, MemWidth::Word, StreamHint::Unknown); // misaligned
    main.halt();
    let mut b = ProgramBuilder::new();
    b.add_function(main);
    b.entry("main");
    let program = Arc::new(b.build().unwrap());

    let (si, ei, vi) = interp_run(&program, STEP_CAP);
    let (sb, eb, vb) = replay_run(&program, STEP_CAP);
    assert_eq!(si, sb);
    assert_eq!(si.len(), 3, "only the three leading ops commit");
    let global_base = program.layout().global_base();
    assert_eq!(
        ei,
        Some(VmError::Misaligned {
            pc: 3,
            addr: global_base + 1,
            bytes: 4
        })
    );
    assert_eq!(ei, eb);
    assert_eq!(
        vi.pc(),
        3,
        "interpreter parks pc at the faulting instruction"
    );
    assert_same_state("mid-block fault", &vi, &vb, &si);
    assert!(vb.is_halted());
}

// ---------------------------------------------------------------------------
// (b) sp_version stack-slot tags across call/return block boundaries
// ---------------------------------------------------------------------------

#[test]
fn stack_slot_tags_version_across_call_boundaries() {
    // main stores a local, calls f (which stores at the same static
    // offset), then stores again after the return. The three stores land
    // in different frames, so their (sp_version, offset) tags must all
    // differ even though the offset is identical — and block replay must
    // reproduce the interpreter's tags exactly.
    let mut f = FunctionBuilder::with_frame("f", 16);
    f.addi(Gpr::SP, Gpr::SP, -16);
    f.load_imm(Gpr::T1, 2);
    f.store_local(Gpr::T1, 0);
    f.addi(Gpr::SP, Gpr::SP, 16);
    f.ret();

    let mut main = FunctionBuilder::with_frame("main", 16);
    main.addi(Gpr::SP, Gpr::SP, -16);
    main.load_imm(Gpr::T0, 1);
    main.store_local(Gpr::T0, 0);
    main.call("f");
    main.load_imm(Gpr::T2, 3);
    main.store_local(Gpr::T2, 0);
    main.halt();

    let mut b = ProgramBuilder::new();
    b.add_function(f);
    b.add_function(main);
    b.entry("main");
    let stream = assert_equivalent("sp_version", b.build().unwrap());

    let slots: Vec<(u64, i32)> = stream
        .iter()
        .filter_map(|d| {
            d.mem
                .as_ref()
                .filter(|m| m.is_store)
                .and_then(|m| m.stack_slot)
        })
        .collect();
    assert_eq!(slots.len(), 3, "three frame stores commit");
    let offsets: Vec<i32> = slots.iter().map(|s| s.1).collect();
    assert_eq!(offsets, [0, 0, 0], "all three use the same static offset");
    // Prologue of main bumps sp once (v1); f's prologue bumps again (v2);
    // f's epilogue + return bumps back out (v3): three distinct tags.
    let versions: Vec<u64> = slots.iter().map(|s| s.0).collect();
    assert_eq!(versions, [1, 2, 3], "frames get distinct sp versions");
    assert_ne!(slots[0], slots[1], "caller/callee frames must not alias");
    assert_ne!(
        slots[1], slots[2],
        "callee/post-return frames must not alias"
    );
    assert_ne!(slots[0], slots[2], "pre/post-call frames must not alias");
}

// ---------------------------------------------------------------------------
// (c) fault-plan RNG draw order through the pipeline
// ---------------------------------------------------------------------------

#[test]
fn fault_plan_rng_draw_order_is_unchanged_by_block_replay() {
    // The fault injector draws from its own RNG per dispatched
    // instruction; if batching the front-end reordered or double-drew,
    // the injected-fault trace — and thus SimResult (incl. FaultStats) —
    // would diverge between the fast and reference kernels.
    let plan = FaultPlan {
        seed: 0xD1CE,
        flip_lvc_line: 0.02,
        flip_l1_line: 0.02,
        drop_port_grant: 0.02,
        delay_port_grant: 0.02,
        delay_cycles: 4,
        corrupt_forward: 0.05,
    };
    for bench in [Benchmark::Compress, Benchmark::Li] {
        let program = bench.program(u32::MAX / 2);
        let cfg = MachineConfig::n_plus_m(4, 2)
            .with_optimizations()
            .with_fault_plan(plan);
        let mut ref_cfg = cfg.clone();
        ref_cfg.reference_kernel = true;
        let fast = Simulator::new(cfg).unwrap().run(&program, 30_000).unwrap();
        let reference = Simulator::new(ref_cfg)
            .unwrap()
            .run(&program, 30_000)
            .unwrap();
        assert_eq!(
            fast, reference,
            "{bench}: fault-plan RNG draw order changed under block replay"
        );
        assert_ne!(
            fast.faults,
            Default::default(),
            "{bench}: plan must actually inject"
        );
    }
}

// ---------------------------------------------------------------------------
// Profiler over the block stream
// ---------------------------------------------------------------------------

#[test]
fn profiler_sees_identical_stream_through_block_replay() {
    for bench in [Benchmark::Vortex, Benchmark::Li] {
        let program = bench.program(u32::MAX / 2);
        const WINDOW: usize = 40_000;

        let mut vi = Vm::new(program.clone());
        let mut pi = StreamProfiler::new(&program);
        for _ in 0..WINDOW {
            match vi.step().unwrap() {
                Some(d) => pi.observe(&d),
                None => break,
            }
        }

        let mut vb = Vm::new(program.clone());
        let mut pb = StreamProfiler::new(&program);
        let mut ring = Vec::new();
        let mut seen = 0usize;
        'outer: loop {
            ring.clear();
            if let Some(e) = vb.step_block(&mut ring) {
                panic!("{bench}: unexpected fault {e}");
            }
            if ring.is_empty() {
                break;
            }
            for d in &ring {
                pb.observe(d);
                seen += 1;
                if seen == WINDOW {
                    break 'outer;
                }
            }
        }
        assert_eq!(
            pi.stats(),
            pb.stats(),
            "{bench}: profile diverged under block replay"
        );
    }
}

// ---------------------------------------------------------------------------
// verify.sh --quick smoke entry points
// ---------------------------------------------------------------------------

#[test]
fn quick_smoke_loop_heavy() {
    // A tight counted loop with frame traffic: the block cache should
    // decode each block once and replay from cache nearly always.
    let mut main = FunctionBuilder::with_frame("main", 64);
    main.addi(Gpr::SP, Gpr::SP, -64);
    main.load_imm(Gpr::T9, 5_000);
    main.load_imm(Gpr::S0, 0);
    let top = main.new_label();
    main.bind(top);
    main.store_local(Gpr::S0, 0);
    main.load_local(Gpr::T0, 0);
    main.alu(AluOp::Add, Gpr::S0, Gpr::S0, Gpr::T0);
    main.alui(AluOp::And, Gpr::S0, Gpr::S0, 0xFFFF);
    main.addi(Gpr::T9, Gpr::T9, -1);
    main.bnez(Gpr::T9, top);
    main.halt();
    let mut b = ProgramBuilder::new();
    b.add_function(main);
    b.entry("main");
    let program = Arc::new(b.build().unwrap());

    let (si, ei, vi) = interp_run(&program, STEP_CAP);
    let (sb, eb, vb) = replay_run(&program, STEP_CAP);
    assert_eq!(si, sb, "loop-heavy: streams differ");
    assert_eq!(ei, None);
    assert_eq!(eb, None);
    assert_same_state("loop-heavy", &vi, &vb, &si);
    let stats = vb.tcache_stats();
    assert!(
        stats.blocks_decoded >= 2,
        "at least prologue + loop body blocks"
    );
    assert!(
        stats.hit_rate() > 0.99,
        "loop-heavy replay must run from cache (hit rate {})",
        stats.hit_rate()
    );
}

#[test]
fn quick_smoke_call_heavy() {
    // Call/return in a loop: exercises the dynamic successor cache (ret
    // targets) and sp_version churn across block boundaries.
    let mut leaf = FunctionBuilder::with_frame("leaf", 32);
    leaf.addi(Gpr::SP, Gpr::SP, -32);
    leaf.store_local(Gpr::A0, 0);
    leaf.load_local(Gpr::V0, 0);
    leaf.addi(Gpr::V0, Gpr::V0, 1);
    leaf.addi(Gpr::SP, Gpr::SP, 32);
    leaf.ret();

    let mut main = FunctionBuilder::with_frame("main", 32);
    main.addi(Gpr::SP, Gpr::SP, -32);
    main.load_imm(Gpr::T9, 3_000);
    main.load_imm(Gpr::A0, 0);
    let top = main.new_label();
    main.bind(top);
    main.call("leaf");
    main.mov(Gpr::A0, Gpr::V0);
    main.addi(Gpr::T9, Gpr::T9, -1);
    main.bnez(Gpr::T9, top);
    main.halt();
    let mut b = ProgramBuilder::new();
    b.add_function(leaf);
    b.add_function(main);
    b.entry("main");
    let program = Arc::new(b.build().unwrap());

    let (si, ei, vi) = interp_run(&program, STEP_CAP);
    let (sb, eb, vb) = replay_run(&program, STEP_CAP);
    assert_eq!(si, sb, "call-heavy: streams differ");
    assert_eq!(ei, None);
    assert_eq!(eb, None);
    assert_same_state("call-heavy", &vi, &vb, &si);
    assert_eq!(
        vi.gpr(Gpr::A0),
        3_000,
        "leaf increments its argument each call"
    );
    let stats = vb.tcache_stats();
    assert!(
        stats.hit_rate() > 0.99,
        "call-heavy replay must run from cache (hit rate {})",
        stats.hit_rate()
    );
}
