//! MIPS-like disassembly via [`core::fmt::Display`].

use core::fmt;

use crate::instr::{Instr, MemWidth, StreamHint};

fn hint_suffix(h: StreamHint) -> &'static str {
    match h {
        StreamHint::Unknown => "",
        StreamHint::Local => " !local",
        StreamHint::NonLocal => " !nonlocal",
    }
}

fn load_mnemonic(w: MemWidth) -> &'static str {
    match w {
        MemWidth::Byte => "lb",
        MemWidth::Half => "lh",
        MemWidth::Word => "lw",
    }
}

fn store_mnemonic(w: MemWidth) -> &'static str {
    match w {
        MemWidth::Byte => "sb",
        MemWidth::Half => "sh",
        MemWidth::Word => "sw",
    }
}

/// Writes a mnemonic (`stem` then `suffix`) left-aligned in a five-column
/// field, then the space before the operands: the layout of `{:<5} `,
/// without building a suffixed mnemonic such as `addi` as a `String`.
fn mnemonic(f: &mut fmt::Formatter<'_>, stem: &str, suffix: &str) -> fmt::Result {
    const FIELD: &str = "      ";
    f.write_str(stem)?;
    f.write_str(suffix)?;
    let used = (stem.len() + suffix.len()).min(FIELD.len() - 1);
    f.write_str(&FIELD[used..])
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => f.write_str("nop"),
            Instr::Halt => f.write_str("halt"),
            Instr::Ret => f.write_str("jr    $ra"),
            Instr::Alu { op, rd, rs, rt } => {
                mnemonic(f, op.mnemonic(), "")?;
                write!(f, "{rd}, {rs}, {rt}")
            }
            Instr::AluImm { op, rd, rs, imm } => {
                mnemonic(f, op.mnemonic(), "i")?;
                write!(f, "{rd}, {rs}, {imm}")
            }
            Instr::LoadImm { rd, imm } => write!(f, "li    {rd}, {imm}"),
            Instr::Fpu { op, fd, fs, ft } => {
                mnemonic(f, op.mnemonic(), "")?;
                if op.is_binary() {
                    write!(f, "{fd}, {fs}, {ft}")
                } else {
                    write!(f, "{fd}, {fs}")
                }
            }
            Instr::FpCmp { cond, rd, fs, ft } => {
                mnemonic(f, cond.mnemonic(), "")?;
                write!(f, "{rd}, {fs}, {ft}")
            }
            Instr::IntToFp { fd, rs } => write!(f, "mtc1d {fd}, {rs}"),
            Instr::FpToInt { rd, fs } => write!(f, "mfc1d {rd}, {fs}"),
            Instr::Load {
                rd,
                base,
                offset,
                width,
                hint,
            } => {
                mnemonic(f, load_mnemonic(width), "")?;
                write!(f, "{rd}, {offset}({base}){}", hint_suffix(hint))
            }
            Instr::Store {
                rs,
                base,
                offset,
                width,
                hint,
            } => {
                mnemonic(f, store_mnemonic(width), "")?;
                write!(f, "{rs}, {offset}({base}){}", hint_suffix(hint))
            }
            Instr::FLoad {
                fd,
                base,
                offset,
                hint,
            } => {
                write!(f, "l.d   {fd}, {offset}({base}){}", hint_suffix(hint))
            }
            Instr::FStore {
                fs,
                base,
                offset,
                hint,
            } => {
                write!(f, "s.d   {fs}, {offset}({base}){}", hint_suffix(hint))
            }
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                mnemonic(f, cond.mnemonic(), "")?;
                write!(f, "{rs}, {rt}, {target}")
            }
            Instr::Jump { target } => write!(f, "j     {target}"),
            Instr::Call { target } => write!(f, "jal   {target}"),
            Instr::CallReg { rs } => write!(f, "jalr  {rs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluOp, BranchCond, FpCond, FpuOp};
    use crate::regs::{Fpr, Gpr};

    #[test]
    fn alu_forms() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Gpr::T0,
            rs: Gpr::T1,
            rt: Gpr::T2,
        };
        assert_eq!(i.to_string(), "add   $t0, $t1, $t2");
        let i = Instr::AluImm {
            op: AluOp::Add,
            rd: Gpr::SP,
            rs: Gpr::SP,
            imm: -32,
        };
        assert_eq!(i.to_string(), "addi  $sp, $sp, -32");
    }

    #[test]
    fn memory_forms_show_hints() {
        let i = Instr::Load {
            rd: Gpr::T0,
            base: Gpr::SP,
            offset: 8,
            width: MemWidth::Word,
            hint: StreamHint::Local,
        };
        assert_eq!(i.to_string(), "lw    $t0, 8($sp) !local");
        let i = Instr::Store {
            rs: Gpr::V0,
            base: Gpr::GP,
            offset: 0,
            width: MemWidth::Byte,
            hint: StreamHint::NonLocal,
        };
        assert_eq!(i.to_string(), "sb    $v0, 0($gp) !nonlocal");
        let i = Instr::FLoad {
            fd: Fpr::F0,
            base: Gpr::T0,
            offset: 24,
            hint: StreamHint::Unknown,
        };
        assert_eq!(i.to_string(), "l.d   $f0, 24($t0)");
    }

    #[test]
    fn control_forms() {
        assert_eq!(Instr::Jump { target: 42 }.to_string(), "j     42");
        assert_eq!(Instr::Call { target: 7 }.to_string(), "jal   7");
        assert_eq!(Instr::Ret.to_string(), "jr    $ra");
        let b = Instr::Branch {
            cond: BranchCond::Ne,
            rs: Gpr::T0,
            rt: Gpr::ZERO,
            target: 3,
        };
        assert_eq!(b.to_string(), "bne   $t0, $zero, 3");
    }

    #[test]
    fn fpu_forms() {
        let b = Instr::Fpu {
            op: FpuOp::Mul,
            fd: Fpr::new(2),
            fs: Fpr::new(4),
            ft: Fpr::new(6),
        };
        assert_eq!(b.to_string(), "mul.d $f2, $f4, $f6");
        let u = Instr::Fpu {
            op: FpuOp::Neg,
            fd: Fpr::new(2),
            fs: Fpr::new(4),
            ft: Fpr::new(6),
        };
        assert_eq!(u.to_string(), "neg.d $f2, $f4");
    }

    /// Every mnemonic width the padded field meets: three-, four- and
    /// five-character ALU mnemonics in register and immediate form
    /// (`sltui` fills the field, `ori` leaves three columns).
    #[test]
    fn every_alu_form_is_pinned() {
        let want = [
            ("add   $t0, $t1, $t2", "addi  $t0, $t1, -7"),
            ("sub   $t0, $t1, $t2", "subi  $t0, $t1, -7"),
            ("mul   $t0, $t1, $t2", "muli  $t0, $t1, -7"),
            ("div   $t0, $t1, $t2", "divi  $t0, $t1, -7"),
            ("rem   $t0, $t1, $t2", "remi  $t0, $t1, -7"),
            ("and   $t0, $t1, $t2", "andi  $t0, $t1, -7"),
            ("or    $t0, $t1, $t2", "ori   $t0, $t1, -7"),
            ("xor   $t0, $t1, $t2", "xori  $t0, $t1, -7"),
            ("nor   $t0, $t1, $t2", "nori  $t0, $t1, -7"),
            ("sll   $t0, $t1, $t2", "slli  $t0, $t1, -7"),
            ("srl   $t0, $t1, $t2", "srli  $t0, $t1, -7"),
            ("sra   $t0, $t1, $t2", "srai  $t0, $t1, -7"),
            ("slt   $t0, $t1, $t2", "slti  $t0, $t1, -7"),
            ("sltu  $t0, $t1, $t2", "sltui $t0, $t1, -7"),
        ];
        for (op, (reg, imm)) in AluOp::ALL.into_iter().zip(want) {
            let (rd, rs) = (Gpr::T0, Gpr::T1);
            let alu = Instr::Alu {
                op,
                rd,
                rs,
                rt: Gpr::T2,
            };
            assert_eq!(alu.to_string(), reg);
            let alu_imm = Instr::AluImm {
                op,
                rd,
                rs,
                imm: -7,
            };
            assert_eq!(alu_imm.to_string(), imm);
        }
    }

    #[test]
    fn every_memory_width_and_hint_is_pinned() {
        let hints = [StreamHint::Unknown, StreamHint::Local, StreamHint::NonLocal];
        let widths = [MemWidth::Byte, MemWidth::Half, MemWidth::Word];
        let loads = [
            [
                "lb    $t0, 8($sp)",
                "lb    $t0, 8($sp) !local",
                "lb    $t0, 8($sp) !nonlocal",
            ],
            [
                "lh    $t0, 8($sp)",
                "lh    $t0, 8($sp) !local",
                "lh    $t0, 8($sp) !nonlocal",
            ],
            [
                "lw    $t0, 8($sp)",
                "lw    $t0, 8($sp) !local",
                "lw    $t0, 8($sp) !nonlocal",
            ],
        ];
        let stores = [
            [
                "sb    $v0, -4($gp)",
                "sb    $v0, -4($gp) !local",
                "sb    $v0, -4($gp) !nonlocal",
            ],
            [
                "sh    $v0, -4($gp)",
                "sh    $v0, -4($gp) !local",
                "sh    $v0, -4($gp) !nonlocal",
            ],
            [
                "sw    $v0, -4($gp)",
                "sw    $v0, -4($gp) !local",
                "sw    $v0, -4($gp) !nonlocal",
            ],
        ];
        let floads = [
            "l.d   $f2, 16($fp)",
            "l.d   $f2, 16($fp) !local",
            "l.d   $f2, 16($fp) !nonlocal",
        ];
        let fstores = [
            "s.d   $f2, 16($fp)",
            "s.d   $f2, 16($fp) !local",
            "s.d   $f2, 16($fp) !nonlocal",
        ];
        for (w, width) in widths.into_iter().enumerate() {
            for (h, hint) in hints.into_iter().enumerate() {
                let load = Instr::Load {
                    rd: Gpr::T0,
                    base: Gpr::SP,
                    offset: 8,
                    width,
                    hint,
                };
                assert_eq!(load.to_string(), loads[w][h]);
                let store = Instr::Store {
                    rs: Gpr::V0,
                    base: Gpr::GP,
                    offset: -4,
                    width,
                    hint,
                };
                assert_eq!(store.to_string(), stores[w][h]);
            }
        }
        for (h, hint) in hints.into_iter().enumerate() {
            let (fd, base) = (Fpr::new(2), Gpr::FP);
            let fload = Instr::FLoad {
                fd,
                base,
                offset: 16,
                hint,
            };
            assert_eq!(fload.to_string(), floads[h]);
            let fstore = Instr::FStore {
                fs: fd,
                base,
                offset: 16,
                hint,
            };
            assert_eq!(fstore.to_string(), fstores[h]);
        }
    }

    /// FP mnemonics run five and six characters: a six-character one
    /// (`sqrt.d`, `c.eq.d`) overflows the field and keeps one space.
    #[test]
    fn every_fp_form_is_pinned() {
        let fpu = [
            "add.d $f2, $f4, $f6",
            "sub.d $f2, $f4, $f6",
            "mul.d $f2, $f4, $f6",
            "div.d $f2, $f4, $f6",
            "neg.d $f2, $f4",
            "abs.d $f2, $f4",
            "mov.d $f2, $f4",
            "sqrt.d $f2, $f4",
        ];
        for (op, want) in FpuOp::ALL.into_iter().zip(fpu) {
            let i = Instr::Fpu {
                op,
                fd: Fpr::new(2),
                fs: Fpr::new(4),
                ft: Fpr::new(6),
            };
            assert_eq!(i.to_string(), want);
        }
        let cmp = [
            "c.eq.d $t0, $f4, $f6",
            "c.lt.d $t0, $f4, $f6",
            "c.le.d $t0, $f4, $f6",
        ];
        for (cond, want) in FpCond::ALL.into_iter().zip(cmp) {
            let i = Instr::FpCmp {
                cond,
                rd: Gpr::T0,
                fs: Fpr::new(4),
                ft: Fpr::new(6),
            };
            assert_eq!(i.to_string(), want);
        }
        let mtc = Instr::IntToFp {
            fd: Fpr::new(2),
            rs: Gpr::A0,
        };
        assert_eq!(mtc.to_string(), "mtc1d $f2, $a0");
        let mfc = Instr::FpToInt {
            rd: Gpr::V0,
            fs: Fpr::F0,
        };
        assert_eq!(mfc.to_string(), "mfc1d $v0, $f0");
    }

    #[test]
    fn every_branch_and_remaining_form_is_pinned() {
        let want = ["beq", "bne", "blt", "bge", "ble", "bgt"];
        for (cond, m) in BranchCond::ALL.into_iter().zip(want) {
            let b = Instr::Branch {
                cond,
                rs: Gpr::S0,
                rt: Gpr::RA,
                target: 12,
            };
            assert_eq!(b.to_string(), format!("{m}   $s0, $ra, 12"));
        }
        let li = Instr::LoadImm {
            rd: Gpr::K1,
            imm: -100_000,
        };
        assert_eq!(li.to_string(), "li    $k1, -100000");
        assert_eq!(Instr::CallReg { rs: Gpr::T9 }.to_string(), "jalr  $t9");
        assert_eq!(Instr::Nop.to_string(), "nop");
        assert_eq!(Instr::Halt.to_string(), "halt");
    }
}
