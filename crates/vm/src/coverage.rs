//! Lightweight op/edge coverage for fuzz campaigns.
//!
//! A [`CoverageMap`] observes a dynamic instruction stream and records
//! two cheap signals:
//!
//! * **Op-class coverage** — a counter per *instruction class* (ALU op ×
//!   immediate form, memory width × stream hint, branch condition, …),
//!   [`OP_CLASS_COUNT`] classes total. This answers "which regions of the
//!   ISA has the campaign actually executed?".
//! * **Edge coverage** — an AFL-style fixed-size bitmap over hashed
//!   `(pc, next_pc)` pairs. Collisions are possible and acceptable; the
//!   bitmap is a campaign progress signal, not a ground-truth CFG.
//!
//! Maps merge cheaply, so a campaign can keep one per worker and fold
//! them into the report at the end.

use dda_isa::Instr;

use crate::machine::DynInst;

/// Number of distinct instruction classes [`op_class`] can return.
pub const OP_CLASS_COUNT: usize = 78;

/// Number of buckets in the edge-hash bitmap (2^16, AFL-sized).
pub const EDGE_BUCKETS: usize = 1 << 16;

const EDGE_WORDS: usize = EDGE_BUCKETS / 64;

/// Maps an instruction to its coverage class in `0..OP_CLASS_COUNT`.
///
/// The partition is finer than the enum variant (each ALU op, each
/// width×hint combination is its own class) so a campaign can tell `div`
/// from `add` and a local-hinted byte store from an unhinted word load.
pub fn op_class(i: &Instr) -> usize {
    const ALU_OPS: usize = 14;
    const FPU_OPS: usize = 8;
    const FP_CONDS: usize = 3;
    const BR_CONDS: usize = 6;
    let width3 = |w: dda_isa::MemWidth| w.bytes().trailing_zeros() as usize; // 1,2,4 -> 0,1,2
    let hint3 = |h: dda_isa::StreamHint| h as usize;
    match *i {
        Instr::Alu { op, .. } => op as usize,
        Instr::AluImm { op, .. } => ALU_OPS + op as usize,
        Instr::LoadImm { .. } => 2 * ALU_OPS,
        Instr::Fpu { op, .. } => 2 * ALU_OPS + 1 + op as usize,
        Instr::FpCmp { cond, .. } => 2 * ALU_OPS + 1 + FPU_OPS + cond as usize,
        Instr::IntToFp { .. } => 2 * ALU_OPS + 1 + FPU_OPS + FP_CONDS,
        Instr::FpToInt { .. } => 2 * ALU_OPS + 2 + FPU_OPS + FP_CONDS,
        Instr::Load { width, hint, .. } => {
            2 * ALU_OPS + 3 + FPU_OPS + FP_CONDS + 3 * width3(width) + hint3(hint)
        }
        Instr::Store { width, hint, .. } => {
            2 * ALU_OPS + 12 + FPU_OPS + FP_CONDS + 3 * width3(width) + hint3(hint)
        }
        Instr::FLoad { hint, .. } => 2 * ALU_OPS + 21 + FPU_OPS + FP_CONDS + hint3(hint),
        Instr::FStore { hint, .. } => 2 * ALU_OPS + 24 + FPU_OPS + FP_CONDS + hint3(hint),
        Instr::Branch { cond, .. } => 2 * ALU_OPS + 27 + FPU_OPS + FP_CONDS + cond as usize,
        Instr::Jump { .. } => 2 * ALU_OPS + 27 + FPU_OPS + FP_CONDS + BR_CONDS,
        Instr::Call { .. } => 2 * ALU_OPS + 28 + FPU_OPS + FP_CONDS + BR_CONDS,
        Instr::CallReg { .. } => 2 * ALU_OPS + 29 + FPU_OPS + FP_CONDS + BR_CONDS,
        Instr::Ret => 2 * ALU_OPS + 30 + FPU_OPS + FP_CONDS + BR_CONDS,
        Instr::Halt => 2 * ALU_OPS + 31 + FPU_OPS + FP_CONDS + BR_CONDS,
        Instr::Nop => 2 * ALU_OPS + 32 + FPU_OPS + FP_CONDS + BR_CONDS,
    }
}

/// Accumulated op-class and edge coverage over one or more dynamic
/// streams. See the module docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoverageMap {
    ops: [u64; OP_CLASS_COUNT],
    edges: Box<[u64; EDGE_WORDS]>,
    observed: u64,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap {
            ops: [0; OP_CLASS_COUNT],
            edges: Box::new([0; EDGE_WORDS]),
            observed: 0,
        }
    }

    /// Records one dynamic instruction: bumps its op class and sets the
    /// bucket for the `(pc, next_pc)` edge.
    #[inline]
    pub fn observe(&mut self, d: &DynInst) {
        self.ops[op_class(&d.instr)] += 1;
        let h = (d.pc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (d.next_pc as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let bucket = (h >> 48) as usize;
        self.edges[bucket / 64] |= 1u64 << (bucket % 64);
        self.observed += 1;
    }

    /// Folds another map into this one (counter sums, bitmap union).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (a, b) in self.ops.iter_mut().zip(other.ops.iter()) {
            *a += *b;
        }
        for (a, b) in self.edges.iter_mut().zip(other.edges.iter()) {
            *a |= *b;
        }
        self.observed += other.observed;
    }

    /// Distinct instruction classes seen at least once (out of
    /// [`OP_CLASS_COUNT`]).
    pub fn op_classes_seen(&self) -> usize {
        self.ops.iter().filter(|c| **c > 0).count()
    }

    /// Dynamic execution count of one op class.
    pub fn op_count(&self, class: usize) -> u64 {
        self.ops.get(class).copied().unwrap_or(0)
    }

    /// Populated edge buckets (out of [`EDGE_BUCKETS`]).
    pub fn edge_buckets_seen(&self) -> usize {
        self.edges.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total dynamic instructions observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_isa::{AluOp, BranchCond, FpCond, Fpr, FpuOp, Gpr, MemWidth, StreamHint};

    fn every_instr() -> Vec<Instr> {
        let mut v = vec![
            Instr::Nop,
            Instr::Halt,
            Instr::Ret,
            Instr::LoadImm {
                rd: Gpr::T0,
                imm: 1,
            },
            Instr::IntToFp {
                fd: Fpr::new(0),
                rs: Gpr::T0,
            },
            Instr::FpToInt {
                rd: Gpr::T0,
                fs: Fpr::new(0),
            },
            Instr::Jump { target: 0 },
            Instr::Call { target: 0 },
            Instr::CallReg { rs: Gpr::T0 },
        ];
        for op in AluOp::ALL {
            v.push(Instr::Alu {
                op,
                rd: Gpr::T0,
                rs: Gpr::T1,
                rt: Gpr::T2,
            });
            v.push(Instr::AluImm {
                op,
                rd: Gpr::T0,
                rs: Gpr::T1,
                imm: 1,
            });
        }
        for op in FpuOp::ALL {
            v.push(Instr::Fpu {
                op,
                fd: Fpr::new(0),
                fs: Fpr::new(1),
                ft: Fpr::new(1),
            });
        }
        for cond in FpCond::ALL {
            v.push(Instr::FpCmp {
                cond,
                rd: Gpr::T0,
                fs: Fpr::new(0),
                ft: Fpr::new(1),
            });
        }
        for cond in BranchCond::ALL {
            v.push(Instr::Branch {
                cond,
                rs: Gpr::T0,
                rt: Gpr::T1,
                target: 0,
            });
        }
        for width in [MemWidth::Byte, MemWidth::Half, MemWidth::Word] {
            for hint in [StreamHint::Unknown, StreamHint::Local, StreamHint::NonLocal] {
                v.push(Instr::Load {
                    rd: Gpr::T0,
                    base: Gpr::GP,
                    offset: 0,
                    width,
                    hint,
                });
                v.push(Instr::Store {
                    rs: Gpr::T0,
                    base: Gpr::GP,
                    offset: 0,
                    width,
                    hint,
                });
            }
        }
        for hint in [StreamHint::Unknown, StreamHint::Local, StreamHint::NonLocal] {
            v.push(Instr::FLoad {
                fd: Fpr::new(0),
                base: Gpr::GP,
                offset: 0,
                hint,
            });
            v.push(Instr::FStore {
                fs: Fpr::new(0),
                base: Gpr::GP,
                offset: 0,
                hint,
            });
        }
        v
    }

    #[test]
    fn op_class_is_a_bijection_over_the_class_partition() {
        let all = every_instr();
        let mut seen = [false; OP_CLASS_COUNT];
        for i in &all {
            let c = op_class(i);
            assert!(c < OP_CLASS_COUNT, "{i} -> class {c} out of range");
            assert!(!seen[c], "{i} collides with an earlier class {c}");
            seen[c] = true;
        }
        assert_eq!(all.len(), OP_CLASS_COUNT, "partition size drifted");
        assert!(seen.iter().all(|s| *s), "some class unreachable");
    }

    #[test]
    fn observe_and_merge_accumulate() {
        let d = |pc: u32, next: u32, instr: Instr| DynInst {
            seq: 0,
            pc,
            instr,
            next_pc: next,
            mem: None,
        };
        let mut a = CoverageMap::new();
        a.observe(&d(0, 1, Instr::Nop));
        a.observe(&d(1, 2, Instr::Halt));
        let mut b = CoverageMap::new();
        b.observe(&d(5, 6, Instr::Nop));
        assert_eq!(a.observed(), 2);
        assert_eq!(a.op_classes_seen(), 2);
        let edges_a = a.edge_buckets_seen();
        assert!(edges_a >= 1);
        a.merge(&b);
        assert_eq!(a.observed(), 3);
        assert_eq!(a.op_count(op_class(&Instr::Nop)), 2);
        assert!(a.edge_buckets_seen() >= edges_a);
    }

    #[test]
    fn distinct_edges_usually_hit_distinct_buckets() {
        let mut m = CoverageMap::new();
        for pc in 0..200u32 {
            m.observe(&DynInst {
                seq: 0,
                pc,
                instr: Instr::Nop,
                next_pc: pc + 1,
                mem: None,
            });
        }
        // 200 edges into 65536 buckets: collisions are rare.
        assert!(m.edge_buckets_seen() > 190);
    }
}
