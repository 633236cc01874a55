//! The instruction type and its static properties.

use crate::latency::FuClass;
use crate::op::{AluOp, BranchCond, FpCond, FpuOp};
use crate::regs::{Fpr, Gpr, Reg};

/// Width of a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum MemWidth {
    /// One byte (sign-extended on load).
    Byte = 0,
    /// Two bytes (sign-extended on load); address must be 2-aligned.
    Half,
    /// Four bytes; address must be 4-aligned.
    Word,
}

impl MemWidth {
    /// The access size in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// The compiler's memory-stream classification attached to each load/store.
///
/// This is the per-instruction annotation of the paper's §2.2.3: it tells
/// the dispatch stage which memory access queue the instruction should be
/// steered to. `Unknown` models the ambiguous references (less than 1% of
/// static memory instructions in the paper's measurements) that are left to
/// run-time prediction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[repr(u8)]
pub enum StreamHint {
    /// The compiler could not prove the access region; the hardware
    /// predictor decides at dispatch.
    #[default]
    Unknown = 0,
    /// A local-variable (run-time stack) access: steer to the LVAQ/LVC.
    Local,
    /// A heap/global/static access: steer to the LSQ/L1 data cache.
    NonLocal,
}

/// A machine instruction.
///
/// Program counters and branch/call targets are in instruction units.
/// The textual form (via [`core::fmt::Display`]) is MIPS-like; loads and
/// stores append `!local` / `!nonlocal` when the [`StreamHint`] is known.
#[derive(Clone, Copy, PartialEq, Debug)]
#[allow(missing_docs)] // operand fields are named by MIPS convention (rd/rs/rt/fd/fs/ft)
pub enum Instr {
    /// Integer register–register ALU operation: `rd = op(rs, rt)`.
    Alu {
        op: AluOp,
        rd: Gpr,
        rs: Gpr,
        rt: Gpr,
    },
    /// Integer register–immediate ALU operation: `rd = op(rs, imm)`.
    AluImm {
        op: AluOp,
        rd: Gpr,
        rs: Gpr,
        imm: i32,
    },
    /// Load a 32-bit constant: `rd = imm` (the `lui`/`ori` pair folded).
    LoadImm { rd: Gpr, imm: i32 },
    /// Floating-point operation: `fd = op(fs, ft)` (`ft` ignored if unary).
    Fpu {
        op: FpuOp,
        fd: Fpr,
        fs: Fpr,
        ft: Fpr,
    },
    /// Floating-point compare into an integer register:
    /// `rd = cond(fs, ft) as i32`.
    FpCmp {
        cond: FpCond,
        rd: Gpr,
        fs: Fpr,
        ft: Fpr,
    },
    /// Move GPR to FPR, converting to `f64`: `fd = rs as f64`.
    IntToFp { fd: Fpr, rs: Gpr },
    /// Move FPR to GPR, truncating: `rd = fs as i32` (saturating).
    FpToInt { rd: Gpr, fs: Fpr },
    /// Integer load: `rd = mem[rs(base) + offset]`.
    Load {
        rd: Gpr,
        base: Gpr,
        offset: i32,
        width: MemWidth,
        hint: StreamHint,
    },
    /// Integer store: `mem[base + offset] = rs`.
    Store {
        rs: Gpr,
        base: Gpr,
        offset: i32,
        width: MemWidth,
        hint: StreamHint,
    },
    /// Floating-point load (8 bytes): `fd = mem[base + offset]`.
    FLoad {
        fd: Fpr,
        base: Gpr,
        offset: i32,
        hint: StreamHint,
    },
    /// Floating-point store (8 bytes): `mem[base + offset] = fs`.
    FStore {
        fs: Fpr,
        base: Gpr,
        offset: i32,
        hint: StreamHint,
    },
    /// Conditional branch: `if cond(rs, rt) pc = target`.
    Branch {
        cond: BranchCond,
        rs: Gpr,
        rt: Gpr,
        target: u32,
    },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Direct call: `ra = pc + 1; pc = target`.
    Call { target: u32 },
    /// Indirect call through a register: `ra = pc + 1; pc = rs`.
    CallReg { rs: Gpr },
    /// Return: `pc = ra`.
    Ret,
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
}

/// Fixed-capacity list of source registers (an instruction reads at most 3).
pub type SrcRegs = [Option<Reg>; 3];

impl Instr {
    /// The destination register, if the instruction writes one with
    /// architectural effect (writes to `$zero` are reported as `None`).
    ///
    /// Calls report `$ra` as their destination.
    pub fn def(&self) -> Option<Reg> {
        let d: Option<Reg> = match *self {
            Instr::Alu { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::LoadImm { rd, .. }
            | Instr::FpCmp { rd, .. }
            | Instr::FpToInt { rd, .. }
            | Instr::Load { rd, .. } => Some(rd.into()),
            Instr::Fpu { fd, .. } | Instr::IntToFp { fd, .. } | Instr::FLoad { fd, .. } => {
                Some(fd.into())
            }
            Instr::Call { .. } | Instr::CallReg { .. } => Some(Gpr::RA.into()),
            Instr::Store { .. }
            | Instr::FStore { .. }
            | Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Ret
            | Instr::Halt
            | Instr::Nop => None,
        };
        d.filter(|r| r.is_writable())
    }

    /// The source registers. Reads of `$zero` are reported (its value is
    /// always ready, so this never creates a stall).
    pub fn uses(&self) -> SrcRegs {
        match *self {
            Instr::Alu { rs, rt, .. } => [Some(rs.into()), Some(rt.into()), None],
            Instr::AluImm { rs, .. } => [Some(rs.into()), None, None],
            Instr::LoadImm { .. } => [None, None, None],
            Instr::Fpu { op, fs, ft, .. } => {
                if op.is_binary() {
                    [Some(fs.into()), Some(ft.into()), None]
                } else {
                    [Some(fs.into()), None, None]
                }
            }
            Instr::FpCmp { fs, ft, .. } => [Some(fs.into()), Some(ft.into()), None],
            Instr::IntToFp { rs, .. } => [Some(rs.into()), None, None],
            Instr::FpToInt { fs, .. } => [Some(fs.into()), None, None],
            Instr::Load { base, .. } => [Some(base.into()), None, None],
            Instr::Store { rs, base, .. } => [Some(rs.into()), Some(base.into()), None],
            Instr::FLoad { base, .. } => [Some(base.into()), None, None],
            Instr::FStore { fs, base, .. } => [Some(fs.into()), Some(base.into()), None],
            Instr::Branch { rs, rt, .. } => [Some(rs.into()), Some(rt.into()), None],
            Instr::Jump { .. } | Instr::Halt | Instr::Nop => [None, None, None],
            Instr::Call { .. } => [None, None, None],
            Instr::CallReg { rs } => [Some(rs.into()), None, None],
            Instr::Ret => [Some(Gpr::RA.into()), None, None],
        }
    }

    /// Whether the instruction reads data memory.
    #[inline]
    pub const fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::FLoad { .. })
    }

    /// Whether the instruction writes data memory.
    #[inline]
    pub const fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::FStore { .. })
    }

    /// Whether the instruction accesses data memory.
    #[inline]
    pub const fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether the instruction can redirect control flow.
    #[inline]
    pub const fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jump { .. }
                | Instr::Call { .. }
                | Instr::CallReg { .. }
                | Instr::Ret
        )
    }

    /// Whether the instruction is a call (direct or indirect).
    #[inline]
    pub const fn is_call(&self) -> bool {
        matches!(self, Instr::Call { .. } | Instr::CallReg { .. })
    }

    /// The memory operand `(base, offset, bytes, hint)` for loads/stores.
    pub fn mem_operand(&self) -> Option<(Gpr, i32, u32, StreamHint)> {
        match *self {
            Instr::Load {
                base,
                offset,
                width,
                hint,
                ..
            }
            | Instr::Store {
                base,
                offset,
                width,
                hint,
                ..
            } => Some((base, offset, width.bytes(), hint)),
            Instr::FLoad {
                base, offset, hint, ..
            }
            | Instr::FStore {
                base, offset, hint, ..
            } => Some((base, offset, 8, hint)),
            _ => None,
        }
    }

    /// The functional-unit class that executes this instruction.
    pub fn fu_class(&self) -> FuClass {
        match self {
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => match op {
                AluOp::Mul => FuClass::IntMul,
                AluOp::Div | AluOp::Rem => FuClass::IntDiv,
                _ => FuClass::IntAlu,
            },
            Instr::LoadImm { .. } => FuClass::IntAlu,
            Instr::Fpu { op, .. } => match op {
                FpuOp::Mul => FuClass::FpMul,
                FpuOp::Div | FpuOp::Sqrt => FuClass::FpDiv,
                _ => FuClass::FpAdd,
            },
            Instr::FpCmp { .. } | Instr::IntToFp { .. } | Instr::FpToInt { .. } => FuClass::FpAdd,
            Instr::Load { .. } | Instr::FLoad { .. } => FuClass::MemRead,
            Instr::Store { .. } | Instr::FStore { .. } => FuClass::MemWrite,
            Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Call { .. }
            | Instr::CallReg { .. }
            | Instr::Ret => FuClass::Branch,
            Instr::Halt | Instr::Nop => FuClass::IntAlu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lw(rd: Gpr, base: Gpr, offset: i32) -> Instr {
        Instr::Load {
            rd,
            base,
            offset,
            width: MemWidth::Word,
            hint: StreamHint::Unknown,
        }
    }

    #[test]
    fn defs_and_uses_of_alu() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Gpr::T0,
            rs: Gpr::T1,
            rt: Gpr::T2,
        };
        assert_eq!(i.def(), Some(Reg::Gpr(Gpr::T0)));
        assert_eq!(
            i.uses(),
            [Some(Reg::Gpr(Gpr::T1)), Some(Reg::Gpr(Gpr::T2)), None]
        );
    }

    #[test]
    fn write_to_zero_has_no_def() {
        let i = Instr::AluImm {
            op: AluOp::Add,
            rd: Gpr::ZERO,
            rs: Gpr::T0,
            imm: 1,
        };
        assert_eq!(i.def(), None);
    }

    #[test]
    fn call_defines_ra_and_ret_uses_ra() {
        let c = Instr::Call { target: 10 };
        assert_eq!(c.def(), Some(Reg::Gpr(Gpr::RA)));
        assert_eq!(Instr::Ret.uses()[0], Some(Reg::Gpr(Gpr::RA)));
        assert!(c.is_call() && c.is_control());
        assert!(Instr::Ret.is_control() && !Instr::Ret.is_call());
    }

    #[test]
    fn unary_fpu_has_single_use() {
        let i = Instr::Fpu {
            op: FpuOp::Neg,
            fd: Fpr::new(1),
            fs: Fpr::new(2),
            ft: Fpr::new(3),
        };
        assert_eq!(i.uses(), [Some(Reg::Fpr(Fpr::new(2))), None, None]);
        let b = Instr::Fpu {
            op: FpuOp::Add,
            fd: Fpr::new(1),
            fs: Fpr::new(2),
            ft: Fpr::new(3),
        };
        assert_eq!(b.uses()[1], Some(Reg::Fpr(Fpr::new(3))));
    }

    #[test]
    fn memory_classification() {
        let l = lw(Gpr::T0, Gpr::SP, 4);
        assert!(l.is_load() && l.is_mem() && !l.is_store());
        let s = Instr::Store {
            rs: Gpr::T0,
            base: Gpr::GP,
            offset: 0,
            width: MemWidth::Word,
            hint: StreamHint::NonLocal,
        };
        assert!(s.is_store() && s.is_mem() && !s.is_load());
        assert_eq!(s.mem_operand(), Some((Gpr::GP, 0, 4, StreamHint::NonLocal)));
        assert_eq!(l.def(), Some(Reg::Gpr(Gpr::T0)));
        assert_eq!(s.def(), None);
    }

    #[test]
    fn fload_is_eight_bytes() {
        let f = Instr::FLoad {
            fd: Fpr::F0,
            base: Gpr::SP,
            offset: 16,
            hint: StreamHint::Local,
        };
        assert_eq!(f.mem_operand(), Some((Gpr::SP, 16, 8, StreamHint::Local)));
        assert_eq!(f.fu_class(), FuClass::MemRead);
    }

    #[test]
    fn fu_classes() {
        assert_eq!(
            Instr::AluImm {
                op: AluOp::Mul,
                rd: Gpr::T0,
                rs: Gpr::T1,
                imm: 3
            }
            .fu_class(),
            FuClass::IntMul
        );
        assert_eq!(
            Instr::Alu {
                op: AluOp::Div,
                rd: Gpr::T0,
                rs: Gpr::T1,
                rt: Gpr::T2
            }
            .fu_class(),
            FuClass::IntDiv
        );
        assert_eq!(
            Instr::Fpu {
                op: FpuOp::Sqrt,
                fd: Fpr::F0,
                fs: Fpr::F0,
                ft: Fpr::F0
            }
            .fu_class(),
            FuClass::FpDiv
        );
        assert_eq!(Instr::Jump { target: 0 }.fu_class(), FuClass::Branch);
    }

    #[test]
    fn mem_width_sizes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
    }
}
