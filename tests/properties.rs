//! Randomized property tests over the core data structures and invariants.
//!
//! Originally written with `proptest`; rewritten as plain `#[test]`
//! functions over the in-tree [`dda_stats::Rng`] so the workspace builds
//! with no external crates (offline). Each property draws a few hundred
//! random cases from a fixed seed — deterministic, so failures reproduce.

use std::collections::HashMap;

use dda::isa::{AluOp, BranchCond, FpCond, Fpr, FpuOp, Gpr, Instr, MemWidth, Reg, StreamHint};
use dda::mem::{CacheConfig, CacheCore, DataCache, L2Config, L2Source, PortMeter, L2};
use dda::program::MemoryLayout;
use dda::vm::SparseMemory;
use dda_stats::{Histogram, Rng};

// ---------------------------------------------------------------- ISA --

fn arb_gpr(rng: &mut Rng) -> Gpr {
    Gpr::new(rng.gen_range(0u8..32))
}

fn arb_fpr(rng: &mut Rng) -> Fpr {
    Fpr::new(rng.gen_range(0u8..32))
}

fn arb_hint(rng: &mut Rng) -> StreamHint {
    [StreamHint::Unknown, StreamHint::Local, StreamHint::NonLocal][rng.gen_range(0..3usize)]
}

fn arb_width(rng: &mut Rng) -> MemWidth {
    [MemWidth::Byte, MemWidth::Half, MemWidth::Word][rng.gen_range(0..3usize)]
}

fn arb_i32(rng: &mut Rng) -> i32 {
    rng.next_u32() as i32
}

fn arb_instr(rng: &mut Rng) -> Instr {
    match rng.gen_range(0..18usize) {
        0 => Instr::Nop,
        1 => Instr::Halt,
        2 => Instr::Ret,
        3 => Instr::Alu {
            op: AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())],
            rd: arb_gpr(rng),
            rs: arb_gpr(rng),
            rt: arb_gpr(rng),
        },
        4 => Instr::AluImm {
            op: AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())],
            rd: arb_gpr(rng),
            rs: arb_gpr(rng),
            imm: arb_i32(rng),
        },
        5 => Instr::LoadImm {
            rd: arb_gpr(rng),
            imm: arb_i32(rng),
        },
        6 => Instr::Fpu {
            op: FpuOp::ALL[rng.gen_range(0..FpuOp::ALL.len())],
            fd: arb_fpr(rng),
            fs: arb_fpr(rng),
            ft: arb_fpr(rng),
        },
        7 => Instr::FpCmp {
            cond: FpCond::ALL[rng.gen_range(0..FpCond::ALL.len())],
            rd: arb_gpr(rng),
            fs: arb_fpr(rng),
            ft: arb_fpr(rng),
        },
        8 => Instr::IntToFp {
            fd: arb_fpr(rng),
            rs: arb_gpr(rng),
        },
        9 => Instr::FpToInt {
            rd: arb_gpr(rng),
            fs: arb_fpr(rng),
        },
        10 => Instr::Load {
            rd: arb_gpr(rng),
            base: arb_gpr(rng),
            offset: arb_i32(rng),
            width: arb_width(rng),
            hint: arb_hint(rng),
        },
        11 => Instr::Store {
            rs: arb_gpr(rng),
            base: arb_gpr(rng),
            offset: arb_i32(rng),
            width: arb_width(rng),
            hint: arb_hint(rng),
        },
        12 => Instr::FLoad {
            fd: arb_fpr(rng),
            base: arb_gpr(rng),
            offset: arb_i32(rng),
            hint: arb_hint(rng),
        },
        13 => Instr::FStore {
            fs: arb_fpr(rng),
            base: arb_gpr(rng),
            offset: arb_i32(rng),
            hint: arb_hint(rng),
        },
        14 => Instr::Branch {
            cond: BranchCond::ALL[rng.gen_range(0..BranchCond::ALL.len())],
            rs: arb_gpr(rng),
            rt: arb_gpr(rng),
            target: rng.next_u32(),
        },
        15 => Instr::Jump {
            target: rng.next_u32(),
        },
        16 => Instr::Call {
            target: rng.next_u32(),
        },
        _ => Instr::CallReg { rs: arb_gpr(rng) },
    }
}

#[test]
fn encode_decode_round_trips() {
    let mut rng = Rng::seed_from_u64(0x1541);
    for _ in 0..2_000 {
        let instr = arb_instr(&mut rng);
        assert_eq!(Instr::decode(instr.encode()), Ok(instr));
    }
}

#[test]
fn defs_and_uses_are_well_formed() {
    let mut rng = Rng::seed_from_u64(0x1542);
    for _ in 0..2_000 {
        let instr = arb_instr(&mut rng);
        // A def is always writable; $zero never appears as a destination.
        if let Some(d) = instr.def() {
            assert!(d.is_writable());
        }
        // Unified indices of uses are in range.
        for u in instr.uses().into_iter().flatten() {
            assert!(u.unified_index() < Reg::UNIFIED_COUNT);
        }
        // Memory classification is consistent.
        assert_eq!(instr.is_mem(), instr.mem_operand().is_some());
        assert!(!(instr.is_load() && instr.is_store()));
    }
}

#[test]
fn branch_negation_is_involutive() {
    let mut rng = Rng::seed_from_u64(0x1543);
    for cond in BranchCond::ALL {
        assert_eq!(cond.negate().negate(), cond);
        for _ in 0..200 {
            let (a, b) = (arb_i32(&mut rng), arb_i32(&mut rng));
            assert_eq!(cond.eval(a, b), !cond.negate().eval(a, b));
        }
    }
}

// ------------------------------------------- fuzzer-emitted programs --

#[test]
fn fuzzed_programs_are_an_assembler_fixpoint() {
    // The full rendering chain on generator output: a fuzzed program's
    // `to_asm()` re-assembles to the identical image, every instruction
    // of that image survives encode -> decode -> disassemble -> re-parse,
    // and a second rendering is byte-identical to the first (fixpoint).
    use dda::program::assemble;
    use dda::program::fuzz::{derive_seed, fuzz_program, FuzzWeights};
    for (pi, (name, w)) in FuzzWeights::presets().iter().enumerate() {
        for k in 0..8u64 {
            let seed = derive_seed(0x51DE, pi as u64 * 100 + k);
            let p = fuzz_program(seed, w);
            let src = p.to_asm();
            let q = assemble(&src)
                .unwrap_or_else(|e| panic!("{name} seed {seed:#x}: did not re-assemble: {e}"));
            assert_eq!(
                p, q,
                "{name} seed {seed:#x}: assemble(to_asm) changed the program"
            );
            assert_eq!(
                src,
                q.to_asm(),
                "{name} seed {seed:#x}: to_asm is not a fixpoint"
            );
            for &i in p.instrs() {
                assert_eq!(Instr::decode(i.encode()), Ok(i));
            }
        }
    }
}

#[test]
fn mutated_programs_stay_round_trippable() {
    use dda::program::assemble;
    use dda::program::fuzz::{derive_seed, fuzz_program, mutate, FuzzWeights};
    let presets = FuzzWeights::presets();
    for k in 0..30u64 {
        let (_, w) = presets[(k % presets.len() as u64) as usize];
        let p = fuzz_program(derive_seed(0x51DF, k), &w);
        let m = mutate(&p, derive_seed(0xAB1E, k));
        let src = m.to_asm();
        let q = assemble(&src).unwrap_or_else(|e| panic!("mutant {k}: {e}"));
        assert_eq!(m, q, "mutant {k}: assemble(to_asm) changed the program");
        assert_eq!(src, q.to_asm(), "mutant {k}: to_asm is not a fixpoint");
    }
}

// ------------------------------------------------------------- memory --

#[test]
fn sparse_memory_matches_reference() {
    let mut rng = Rng::seed_from_u64(0x1544);
    for _ in 0..50 {
        let mut mem = SparseMemory::new();
        let mut reference: HashMap<u32, u8> = HashMap::new();
        for _ in 0..rng.gen_range(1..200usize) {
            let addr = rng.next_u32();
            let value = rng.gen_range(0u8..=255);
            if rng.gen_bool(0.5) {
                mem.write_u8(addr, value);
                reference.insert(addr, value);
            } else {
                let expect = reference.get(&addr).copied().unwrap_or(0);
                assert_eq!(mem.read_u8(addr), expect);
            }
        }
        for (&addr, &value) in &reference {
            assert_eq!(mem.read_u8(addr), value);
        }

        // The page set: one resident page per distinct page written,
        // exported in strictly ascending order.
        let mut pages: Vec<u32> = reference.keys().map(|a| a >> 12).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(mem.resident_pages(), pages.len());
        let exported: Vec<(u32, Vec<u8>)> = mem
            .resident_page_bytes()
            .map(|(i, b)| (i, b.to_vec()))
            .collect();
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(exported.iter().map(|(i, _)| *i).collect::<Vec<_>>(), pages);

        // Installing the export into a fresh memory rebuilds it.
        let mut rebuilt = SparseMemory::new();
        for (i, b) in &exported {
            assert!(rebuilt.install_page(*i, b));
        }
        assert_eq!(rebuilt.resident_pages(), pages.len());
        for (&addr, &value) in &reference {
            assert_eq!(rebuilt.read_u8(addr), value);
        }

        // A clone is deep: mutating it leaves the source as it was.
        let mut copy = mem.clone();
        for &addr in reference.keys() {
            copy.write_u8(addr, !copy.read_u8(addr));
        }
        for (&addr, &value) in &reference {
            assert_eq!(copy.read_u8(addr), !value);
        }
        copy.write_u32(rng.next_u32(), 0xdead_beef);
        for (&addr, &value) in &reference {
            assert_eq!(mem.read_u8(addr), value);
        }
        assert_eq!(mem.resident_pages(), pages.len());
    }
}

#[test]
fn sparse_memory_wide_accesses_are_byte_composable() {
    let mut rng = Rng::seed_from_u64(0x1545);
    for _ in 0..500 {
        let addr = rng.next_u32();
        let value = rng.next_u64();
        let mut mem = SparseMemory::new();
        mem.write_u64(addr, value);
        let mut rebuilt = 0u64;
        for i in 0..8 {
            rebuilt |= (mem.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        assert_eq!(rebuilt, value);
    }
}

#[test]
fn memory_layout_regions_partition_addresses() {
    use dda::program::MemRegion;
    let mut rng = Rng::seed_from_u64(0x1546);
    let l = MemoryLayout::standard();
    for _ in 0..2_000 {
        let addr = rng.next_u32();
        let region = l.region_of(addr);
        // is_stack agrees with region_of.
        assert_eq!(l.is_stack(addr), region == MemRegion::Stack);
    }
    // Region base addresses classify into their own regions.
    assert_eq!(l.region_of(l.global_base()), MemRegion::Global);
    assert_eq!(l.region_of(l.heap_base()), MemRegion::Heap);
    assert_eq!(l.region_of(l.stack_base() - 4), MemRegion::Stack);
}

// -------------------------------------------------------------- cache --

/// Reference fully-associative LRU model.
struct RefLru {
    capacity: usize,
    lines: Vec<u32>, // most recent last
}

impl RefLru {
    fn access(&mut self, line: u32) -> bool {
        if let Some(i) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(i);
            self.lines.push(line);
            true
        } else {
            if self.lines.len() == self.capacity {
                self.lines.remove(0);
            }
            self.lines.push(line);
            false
        }
    }
}

#[test]
fn fully_associative_cache_core_matches_reference_lru() {
    let mut rng = Rng::seed_from_u64(0x1547);
    for _ in 0..30 {
        // 8 lines of 32 bytes, fully associative.
        let cfg = CacheConfig {
            size_bytes: 256,
            assoc: 8,
            line_bytes: 32,
            hit_latency: 1,
            ports: 1,
            mshrs: 1,
        };
        let mut cache = CacheCore::new(&cfg);
        let mut reference = RefLru {
            capacity: 8,
            lines: Vec::new(),
        };
        for _ in 0..rng.gen_range(1..300usize) {
            let addr = rng.gen_range(0u32..4096);
            let hit = cache.access(addr, false);
            if !hit {
                cache.fill(addr, false);
            }
            let ref_hit = reference.access(addr >> 5);
            assert_eq!(hit, ref_hit, "address {addr:#x}");
        }
    }
}

#[test]
fn cache_stats_are_consistent() {
    let mut rng = Rng::seed_from_u64(0x1548);
    for _ in 0..30 {
        let mut cache = CacheCore::new(&CacheConfig::lvc_2k());
        let n = rng.gen_range(1..300usize);
        for _ in 0..n {
            let addr = rng.gen_range(0u32..65536);
            let w = rng.gen_bool(0.5);
            if !cache.access(addr, w) {
                cache.fill(addr, w);
            }
        }
        let s = cache.stats();
        assert_eq!(s.accesses(), n as u64);
        assert_eq!(s.misses, s.fills);
        assert!(s.writebacks <= s.fills);
        assert!(s.miss_rate() >= 0.0 && s.miss_rate() <= 1.0);
    }
}

#[test]
fn lockup_free_cache_timing_is_sane() {
    let mut rng = Rng::seed_from_u64(0x1549);
    for _ in 0..20 {
        let mut l2 = L2::new(L2Config::iscapaper_base());
        let mut cache = DataCache::new(CacheConfig::l1_32k(), L2Source::L1);
        for now in 0u64..rng.gen_range(1..100u64) {
            let addr = rng.gen_range(0u32..(1 << 20));
            let c = cache.access(now, 0x2000_0000 + addr, false, &mut l2);
            // Completion is causal and bounded below by the hit latency.
            assert!(c.complete_at >= now + 2);
        }
    }
}

#[test]
fn port_meter_never_exceeds_budget() {
    let mut rng = Rng::seed_from_u64(0x154A);
    for _ in 0..50 {
        let ports = rng.gen_range(1u32..6);
        let mut claims: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0u64..50))
            .collect();
        claims.sort_unstable();
        let mut meter = PortMeter::new(ports);
        let mut per_cycle: HashMap<u64, u32> = HashMap::new();
        for cycle in claims {
            if meter.try_claim(cycle) {
                *per_cycle.entry(cycle).or_insert(0) += 1;
            }
        }
        for (_, granted) in per_cycle {
            assert!(granted <= ports);
        }
    }
}

// -------------------------------------------------------------- stats --

#[test]
fn histogram_quantiles_are_monotone() {
    let mut rng = Rng::seed_from_u64(0x154B);
    for _ in 0..50 {
        let values: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0u64..1000))
            .collect();
        let h: Histogram = values.iter().copied().collect();
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
        let mut last = 0;
        for q in qs {
            let v = h.quantile(q).unwrap();
            assert!(v >= last);
            last = v;
        }
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.samples(), values.len() as u64);
        // The mean lies within [min, max].
        let mean = h.mean().unwrap();
        assert!(mean >= h.min().unwrap() as f64);
        assert!(mean <= h.max().unwrap() as f64);
    }
}

#[test]
fn histogram_cdf_is_monotone_and_normalised() {
    let mut rng = Rng::seed_from_u64(0x154C);
    for _ in 0..50 {
        let values: Vec<u64> = (0..rng.gen_range(1..100usize))
            .map(|_| rng.gen_range(0u64..100))
            .collect();
        let h: Histogram = values.iter().copied().collect();
        let mut last = 0.0f64;
        for v in 0..100 {
            let c = h.cdf(v);
            assert!(c >= last - 1e-12);
            last = c;
        }
        assert!((h.cdf(u64::MAX) - 1.0).abs() < 1e-12);
    }
}

// ----------------------------------------------------- whole programs --

#[test]
fn random_programs_run_identically_on_vm_and_pipeline() {
    use dda::program::{FunctionBuilder, ProgramBuilder};
    for seed in 0u64..16 {
        let mut rng = Rng::seed_from_u64(0x9_0000 + seed);
        let n_funcs = rng.gen_range(1usize..4);
        let body = rng.gen_range(2u32..12);

        // Build a random but well-formed program: straight-line bodies of
        // ALU and stack/global memory operations plus calls down a chain.
        let mut builder = ProgramBuilder::new();
        let mut main = FunctionBuilder::new("main");
        main.addi(Gpr::SP, Gpr::SP, -32);
        if n_funcs > 1 {
            main.store_local(Gpr::RA, 0);
            main.call("f1");
            main.load_local(Gpr::RA, 0);
        }
        main.addi(Gpr::SP, Gpr::SP, 32);
        main.halt();
        builder.add_function(main);
        for f_idx in 1..n_funcs {
            let mut f = FunctionBuilder::with_frame(format!("f{f_idx}"), 32);
            f.addi(Gpr::SP, Gpr::SP, -32);
            f.store_local(Gpr::RA, 0);
            for _ in 0..body {
                match rng.gen_range(0..4usize) {
                    0 => {
                        let op = AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())];
                        f.alui(op, Gpr::T0, Gpr::T1, rng.gen_range(-8..8));
                    }
                    1 => {
                        f.store_local(Gpr::T0, rng.gen_range(1..8) * 4);
                    }
                    2 => {
                        f.load_local(Gpr::T1, rng.gen_range(1..8) * 4);
                    }
                    _ => {
                        f.load(
                            Gpr::T2,
                            Gpr::GP,
                            rng.gen_range(0..64) * 4,
                            MemWidth::Word,
                            StreamHint::NonLocal,
                        );
                    }
                }
            }
            if f_idx + 1 < n_funcs {
                f.call(format!("f{}", f_idx + 1));
            }
            f.load_local(Gpr::RA, 0);
            f.addi(Gpr::SP, Gpr::SP, 32);
            f.ret();
            builder.add_function(f);
        }
        let program = builder.build().unwrap();

        let mut vm = dda::vm::Vm::new(program.clone());
        let summary = vm.run(100_000).unwrap();
        assert!(summary.halted);

        use dda::core::{MachineConfig, Simulator};
        for cfg in [
            MachineConfig::n_plus_m(2, 0),
            MachineConfig::n_plus_m(2, 2).with_optimizations(),
        ] {
            let r = Simulator::new(cfg).unwrap().run(&program, 100_000).unwrap();
            assert!(r.halted);
            assert_eq!(r.committed, summary.executed);
        }
    }
}

// --------------------------------------------- timing vs architecture --

/// The golden rule of a timing simulator: no machine configuration —
/// widths, queue sizes, ports, latencies, optimizations, steering —
/// may ever change *what* commits, only *when*.
#[test]
fn timing_configuration_never_changes_architecture() {
    use dda::core::{MachineConfig, Simulator, SteerPolicy};
    use dda::workloads::Benchmark;

    let program = Benchmark::Perl.program(u32::MAX / 2);
    let budget = 5_000u64;
    let mut vm = dda::vm::Vm::new(program.clone());
    let mut executed = 0;
    for _ in 0..budget {
        match vm.step().unwrap() {
            Some(_) => executed += 1,
            None => break,
        }
    }
    let oracle = Simulator::new(MachineConfig::iscapaper_base())
        .unwrap()
        .run(&program, budget)
        .unwrap();

    let mut rng = Rng::seed_from_u64(0x154D);
    for _ in 0..12 {
        let mut cfg = MachineConfig::n_plus_m(rng.gen_range(1u32..5), rng.gen_range(0u32..4));
        let dispatch = rng.gen_range(1u32..17);
        cfg.dispatch_width = dispatch;
        cfg.issue_width = dispatch;
        cfg.commit_width = dispatch;
        cfg.rob_size = rng.gen_range(8usize..129);
        let lsq = rng.gen_range(4usize..65);
        cfg.lsq_size = lsq;
        cfg.decoupling.lvaq_size = lsq;
        cfg.hierarchy.l1.hit_latency = rng.gen_range(1u32..4);
        cfg.decoupling.fast_forwarding = rng.gen_bool(0.5);
        cfg.decoupling.combining_degree = rng.gen_range(1u32..5);
        cfg.decoupling.steer = match rng.gen_range(0u8..4) {
            0 => SteerPolicy::Oracle,
            1 => SteerPolicy::Hint,
            2 => SteerPolicy::SpBase,
            _ => SteerPolicy::Replicate,
        };

        let r = Simulator::new(cfg).unwrap().run(&program, budget).unwrap();
        assert_eq!(r.committed, executed);
        // Memory-traffic bookkeeping is conserved across any split.
        let mem_total = r.lsq.loads + r.lsq.stores + r.lvaq.loads + r.lvaq.stores;
        assert_eq!(mem_total, oracle.lsq.loads + oracle.lsq.stores);
    }
}

// ---------------------------------------------------------- assembler --

/// Every instruction's disassembly re-parses to the same instruction
/// (modulo the unary-FPU normalisation: `neg.d $f1, $f2` carries no
/// second source, so `ft` reads back equal to `fs`).
#[test]
fn disassembly_reassembles() {
    use dda::program::assemble;
    let mut rng = Rng::seed_from_u64(0x154E);
    for _ in 0..500 {
        let instr = arb_instr(&mut rng);
        let expected = match instr {
            Instr::Fpu { op, fd, fs, .. } if !op.is_binary() => Instr::Fpu { op, fd, fs, ft: fs },
            other => other,
        };
        let source = format!("main:\n    {instr}\n");
        let program =
            assemble(&source).unwrap_or_else(|e| panic!("`{instr}` failed to assemble: {e}"));
        assert_eq!(program.fetch(0), expected);
    }
}
