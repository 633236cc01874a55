//! Architectural register names.

use core::fmt;

/// Number of general-purpose (integer) registers.
pub const NUM_GPRS: usize = 32;
/// Number of floating-point registers.
pub const NUM_FPRS: usize = 32;

/// A general-purpose (integer) register, `$0`–`$31`.
///
/// Register 0 is hard-wired to zero as on MIPS. The associated constants
/// follow the MIPS o32 software conventions; the simulator itself only
/// gives special meaning to [`Gpr::ZERO`], [`Gpr::SP`], [`Gpr::FP`] and
/// [`Gpr::RA`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gpr(u8);

impl Gpr {
    /// Hard-wired zero register (`$zero`).
    pub const ZERO: Gpr = Gpr(0);
    /// Assembler temporary (`$at`).
    pub const AT: Gpr = Gpr(1);
    /// Function result registers `$v0`/`$v1`.
    pub const V0: Gpr = Gpr(2);
    /// Second function-result register (`$v1`).
    pub const V1: Gpr = Gpr(3);
    /// Argument registers `$a0`–`$a3`.
    pub const A0: Gpr = Gpr(4);
    /// Second argument register (`$a1`).
    pub const A1: Gpr = Gpr(5);
    /// Third argument register (`$a2`).
    pub const A2: Gpr = Gpr(6);
    /// Fourth argument register (`$a3`).
    pub const A3: Gpr = Gpr(7);
    /// Caller-saved temporaries `$t0`–`$t9`.
    pub const T0: Gpr = Gpr(8);
    /// Caller-saved temporary (`$t1`).
    pub const T1: Gpr = Gpr(9);
    /// Caller-saved temporary (`$t2`).
    pub const T2: Gpr = Gpr(10);
    /// Caller-saved temporary (`$t3`).
    pub const T3: Gpr = Gpr(11);
    /// Caller-saved temporary (`$t4`).
    pub const T4: Gpr = Gpr(12);
    /// Caller-saved temporary (`$t5`).
    pub const T5: Gpr = Gpr(13);
    /// Caller-saved temporary (`$t6`).
    pub const T6: Gpr = Gpr(14);
    /// Caller-saved temporary (`$t7`).
    pub const T7: Gpr = Gpr(15);
    /// Callee-saved registers `$s0`–`$s7`.
    pub const S0: Gpr = Gpr(16);
    /// Callee-saved register (`$s1`).
    pub const S1: Gpr = Gpr(17);
    /// Callee-saved register (`$s2`).
    pub const S2: Gpr = Gpr(18);
    /// Callee-saved register (`$s3`).
    pub const S3: Gpr = Gpr(19);
    /// Callee-saved register (`$s4`).
    pub const S4: Gpr = Gpr(20);
    /// Callee-saved register (`$s5`).
    pub const S5: Gpr = Gpr(21);
    /// Callee-saved register (`$s6`).
    pub const S6: Gpr = Gpr(22);
    /// Callee-saved register (`$s7`).
    pub const S7: Gpr = Gpr(23);
    /// Caller-saved temporary (`$t8`).
    pub const T8: Gpr = Gpr(24);
    /// Caller-saved temporary (`$t9`).
    pub const T9: Gpr = Gpr(25);
    /// Reserved-for-kernel registers, used as scratch by generators.
    pub const K0: Gpr = Gpr(26);
    /// Second scratch register (`$k1`).
    pub const K1: Gpr = Gpr(27);
    /// Global pointer (`$gp`), base of the global data region.
    pub const GP: Gpr = Gpr(28);
    /// Stack pointer (`$sp`). Accesses based on it are local-variable
    /// accesses in the sense of the paper's §2.2.
    pub const SP: Gpr = Gpr(29);
    /// Frame pointer (`$fp`), also an index into the run-time stack.
    pub const FP: Gpr = Gpr(30);
    /// Return-address register (`$ra`), written by calls.
    pub const RA: Gpr = Gpr(31);

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub const fn new(n: u8) -> Gpr {
        assert!(n < NUM_GPRS as u8, "GPR number out of range");
        Gpr(n)
    }

    /// The register number, `0..32`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hard-wired zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether this register indexes the run-time stack (`$sp` or `$fp`).
    ///
    /// The paper's hardware-only classification treats accesses based on
    /// these registers as local-variable accesses (§2.2.3).
    #[inline]
    pub const fn is_stack_base(self) -> bool {
        self.0 == 29 || self.0 == 30
    }

    /// Iterator over all 32 GPRs in numeric order.
    pub fn all() -> impl Iterator<Item = Gpr> {
        (0..NUM_GPRS as u8).map(Gpr)
    }

    const NAMES: [&'static str; 32] = [
        "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
        "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "gp", "sp",
        "fp", "ra",
    ];

    /// The conventional assembly name, without the `$` sigil.
    pub const fn name(self) -> &'static str {
        Self::NAMES[self.0 as usize]
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("$")?;
        f.write_str(self.name())
    }
}

impl fmt::Debug for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gpr(${})", self.name())
    }
}

/// A floating-point register, `$f0`–`$f31`, holding an `f64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fpr(u8);

impl Fpr {
    /// FP result register.
    pub const F0: Fpr = Fpr(0);
    /// FP argument registers.
    pub const F12: Fpr = Fpr(12);
    /// FP argument register (`$f13`).
    pub const F13: Fpr = Fpr(13);
    /// FP argument register (`$f14`).
    pub const F14: Fpr = Fpr(14);

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub const fn new(n: u8) -> Fpr {
        assert!(n < NUM_FPRS as u8, "FPR number out of range");
        Fpr(n)
    }

    /// The register number, `0..32`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all 32 FPRs in numeric order.
    pub fn all() -> impl Iterator<Item = Fpr> {
        (0..NUM_FPRS as u8).map(Fpr)
    }
}

impl fmt::Display for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$f{}", self.0)
    }
}

impl fmt::Debug for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fpr($f{})", self.0)
    }
}

/// A unified register identifier used for dependence tracking.
///
/// The out-of-order core renames integer and floating-point registers in one
/// namespace; `Reg` gives each architectural register a stable dense index
/// via [`Reg::unified_index`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Reg {
    /// An integer register.
    Gpr(Gpr),
    /// A floating-point register.
    Fpr(Fpr),
}

impl Reg {
    /// Total number of architectural registers in the unified namespace.
    pub const UNIFIED_COUNT: usize = NUM_GPRS + NUM_FPRS;

    /// Dense index in `0..Reg::UNIFIED_COUNT`: GPRs first, then FPRs.
    #[inline]
    pub const fn unified_index(self) -> usize {
        match self {
            Reg::Gpr(g) => g.index(),
            Reg::Fpr(f) => NUM_GPRS + f.index(),
        }
    }

    /// Inverse of [`Reg::unified_index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Reg::UNIFIED_COUNT`.
    #[inline]
    pub fn from_unified_index(idx: usize) -> Reg {
        assert!(
            idx < Self::UNIFIED_COUNT,
            "unified register index out of range"
        );
        if idx < NUM_GPRS {
            Reg::Gpr(Gpr::new(idx as u8))
        } else {
            Reg::Fpr(Fpr::new((idx - NUM_GPRS) as u8))
        }
    }

    /// Whether a write to this register has an architectural effect.
    ///
    /// Writes to `$zero` are discarded, so instructions whose only
    /// destination is `$zero` create no register dependence.
    #[inline]
    pub const fn is_writable(self) -> bool {
        match self {
            Reg::Gpr(g) => !g.is_zero(),
            Reg::Fpr(_) => true,
        }
    }
}

impl From<Gpr> for Reg {
    fn from(g: Gpr) -> Reg {
        Reg::Gpr(g)
    }
}

impl From<Fpr> for Reg {
    fn from(f: Fpr) -> Reg {
        Reg::Fpr(f)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Gpr(g) => g.fmt(f),
            Reg::Fpr(r) => r.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_names_match_conventions() {
        assert_eq!(Gpr::ZERO.to_string(), "$zero");
        assert_eq!(Gpr::SP.to_string(), "$sp");
        assert_eq!(Gpr::FP.to_string(), "$fp");
        assert_eq!(Gpr::RA.to_string(), "$ra");
        assert_eq!(Gpr::new(8), Gpr::T0);
    }

    #[test]
    fn stack_base_registers() {
        assert!(Gpr::SP.is_stack_base());
        assert!(Gpr::FP.is_stack_base());
        assert!(!Gpr::GP.is_stack_base());
        assert!(!Gpr::T0.is_stack_base());
    }

    #[test]
    fn zero_register_identity() {
        assert!(Gpr::ZERO.is_zero());
        assert!(!Gpr::AT.is_zero());
        assert!(!Reg::Gpr(Gpr::ZERO).is_writable());
        assert!(Reg::Gpr(Gpr::T0).is_writable());
        assert!(Reg::Fpr(Fpr::F0).is_writable());
    }

    #[test]
    fn unified_index_round_trips() {
        for i in 0..Reg::UNIFIED_COUNT {
            let r = Reg::from_unified_index(i);
            assert_eq!(r.unified_index(), i);
        }
        assert_eq!(Reg::Gpr(Gpr::SP).unified_index(), 29);
        assert_eq!(Reg::Fpr(Fpr::F0).unified_index(), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpr_out_of_range_panics() {
        let _ = Gpr::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unified_out_of_range_panics() {
        let _ = Reg::from_unified_index(64);
    }

    #[test]
    fn all_iterators_cover_register_files() {
        assert_eq!(Gpr::all().count(), 32);
        assert_eq!(Fpr::all().count(), 32);
        assert_eq!(Gpr::all().next(), Some(Gpr::ZERO));
    }
}
