//! Operation kinds: integer ALU ops, FPU ops, branch conditions.

use core::fmt;

/// Integer ALU operations (register–register or register–immediate forms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum AluOp {
    /// Two's-complement addition (wrapping).
    Add = 0,
    /// Two's-complement subtraction (wrapping).
    Sub,
    /// Signed multiplication (wrapping, low 32 bits).
    Mul,
    /// Signed division; division by zero yields 0 as on the simulator's
    /// well-defined semantics (real MIPS leaves it undefined).
    Div,
    /// Signed remainder; remainder by zero yields 0.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Logical shift left (shift amount taken modulo 32).
    Sll,
    /// Logical shift right (shift amount taken modulo 32).
    Srl,
    /// Arithmetic shift right (shift amount taken modulo 32).
    Sra,
    /// Set-if-less-than, signed: `rd = (rs < rt) as i32`.
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// All ALU operations, in discriminant order.
    pub const ALL: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
    ];

    /// Evaluates the operation on two 32-bit values.
    ///
    /// All operations are total: shifts mask the amount to 5 bits and
    /// division/remainder by zero produce 0, so the functional simulator
    /// never traps.
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
            AluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
            AluOp::Sra => a >> (b as u32 & 31),
            AluOp::Slt => (a < b) as i32,
            AluOp::Sltu => ((a as u32) < (b as u32)) as i32,
        }
    }

    /// The assembly mnemonic (register–register form).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Nor => "nor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Floating-point operations on `f64` register values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum FpuOp {
    /// `fd = fs + ft`.
    Add = 0,
    /// `fd = fs - ft`.
    Sub,
    /// `fd = fs * ft`.
    Mul,
    /// `fd = fs / ft` (IEEE semantics; divide by zero yields ±inf).
    Div,
    /// `fd = -fs` (`ft` ignored).
    Neg,
    /// `fd = |fs|` (`ft` ignored).
    Abs,
    /// `fd = fs` (`ft` ignored).
    Mov,
    /// `fd = sqrt(fs)` (`ft` ignored); negative input yields NaN.
    Sqrt,
}

impl FpuOp {
    /// All FPU operations, in discriminant order.
    pub const ALL: [FpuOp; 8] = [
        FpuOp::Add,
        FpuOp::Sub,
        FpuOp::Mul,
        FpuOp::Div,
        FpuOp::Neg,
        FpuOp::Abs,
        FpuOp::Mov,
        FpuOp::Sqrt,
    ];

    /// Evaluates the operation. Unary operations ignore `b`.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            FpuOp::Add => a + b,
            FpuOp::Sub => a - b,
            FpuOp::Mul => a * b,
            FpuOp::Div => a / b,
            FpuOp::Neg => -a,
            FpuOp::Abs => a.abs(),
            FpuOp::Mov => a,
            FpuOp::Sqrt => a.sqrt(),
        }
    }

    /// Whether the second source operand participates.
    pub const fn is_binary(self) -> bool {
        matches!(self, FpuOp::Add | FpuOp::Sub | FpuOp::Mul | FpuOp::Div)
    }

    /// The assembly mnemonic (`.d` suffix in disassembly).
    pub const fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Add => "add.d",
            FpuOp::Sub => "sub.d",
            FpuOp::Mul => "mul.d",
            FpuOp::Div => "div.d",
            FpuOp::Neg => "neg.d",
            FpuOp::Abs => "abs.d",
            FpuOp::Mov => "mov.d",
            FpuOp::Sqrt => "sqrt.d",
        }
    }
}

impl fmt::Display for FpuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conditions for integer conditional branches (`rs` compared to `rt`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum BranchCond {
    /// Branch if equal.
    Eq = 0,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if signed less-or-equal.
    Le,
    /// Branch if signed greater-than.
    Gt,
}

impl BranchCond {
    /// All branch conditions, in discriminant order.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Le,
        BranchCond::Gt,
    ];

    /// Evaluates the condition on two signed 32-bit values.
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Le => a <= b,
            BranchCond::Gt => a > b,
        }
    }

    /// The logically negated condition.
    pub const fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Le => BranchCond::Gt,
            BranchCond::Gt => BranchCond::Le,
        }
    }

    /// The branch mnemonic, e.g. `beq`.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Le => "ble",
            BranchCond::Gt => "bgt",
        }
    }
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conditions for floating-point compares ([`crate::Instr::FpCmp`]), whose
/// boolean result is written to a GPR.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum FpCond {
    /// True if operands compare equal.
    Eq = 0,
    /// True if `fs < ft`.
    Lt,
    /// True if `fs <= ft`.
    Le,
}

impl FpCond {
    /// All FP compare conditions, in discriminant order.
    pub const ALL: [FpCond; 3] = [FpCond::Eq, FpCond::Lt, FpCond::Le];

    /// Evaluates the condition; any comparison with NaN is false.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            FpCond::Eq => a == b,
            FpCond::Lt => a < b,
            FpCond::Le => a <= b,
        }
    }

    /// The compare mnemonic, e.g. `c.eq.d`.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            FpCond::Eq => "c.eq.d",
            FpCond::Lt => "c.lt.d",
            FpCond::Le => "c.le.d",
        }
    }
}

impl fmt::Display for FpCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_arithmetic_wraps() {
        assert_eq!(AluOp::Add.eval(i32::MAX, 1), i32::MIN);
        assert_eq!(AluOp::Sub.eval(i32::MIN, 1), i32::MAX);
        assert_eq!(AluOp::Mul.eval(1 << 20, 1 << 20), 0);
    }

    #[test]
    fn alu_division_by_zero_is_total() {
        assert_eq!(AluOp::Div.eval(42, 0), 0);
        assert_eq!(AluOp::Rem.eval(42, 0), 0);
        assert_eq!(AluOp::Div.eval(i32::MIN, -1), i32::MIN.wrapping_div(-1));
    }

    #[test]
    fn alu_shifts_mask_amount() {
        assert_eq!(AluOp::Sll.eval(1, 33), 2);
        assert_eq!(AluOp::Srl.eval(-1, 1), i32::MAX);
        assert_eq!(AluOp::Sra.eval(-8, 2), -2);
    }

    #[test]
    fn alu_comparisons() {
        assert_eq!(AluOp::Slt.eval(-1, 0), 1);
        assert_eq!(AluOp::Sltu.eval(-1, 0), 0); // -1 is u32::MAX unsigned
        assert_eq!(AluOp::Slt.eval(3, 3), 0);
    }

    #[test]
    fn alu_bitwise() {
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Nor.eval(0, 0), -1);
    }

    #[test]
    fn fpu_unary_ops_ignore_second_operand() {
        assert_eq!(FpuOp::Neg.eval(2.5, 99.0), -2.5);
        assert_eq!(FpuOp::Abs.eval(-2.5, 99.0), 2.5);
        assert_eq!(FpuOp::Mov.eval(7.0, 99.0), 7.0);
        assert!(!FpuOp::Neg.is_binary());
        assert!(FpuOp::Add.is_binary());
    }

    #[test]
    fn fpu_division_follows_ieee() {
        assert_eq!(FpuOp::Div.eval(1.0, 0.0), f64::INFINITY);
        assert!(FpuOp::Sqrt.eval(-1.0, 0.0).is_nan());
    }

    #[test]
    fn branch_conditions_and_negation() {
        for c in BranchCond::ALL {
            for (a, b) in [(0, 0), (-5, 3), (3, -5), (7, 7)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b), "{c} on ({a},{b})");
            }
        }
        assert!(BranchCond::Lt.eval(-1, 0));
        assert!(BranchCond::Ge.eval(0, 0));
    }

    #[test]
    fn fp_compare_nan_is_false() {
        for c in FpCond::ALL {
            assert!(!c.eval(f64::NAN, 0.0));
            assert!(!c.eval(0.0, f64::NAN));
        }
        assert!(FpCond::Le.eval(1.0, 1.0));
        assert!(!FpCond::Lt.eval(1.0, 1.0));
    }
}
