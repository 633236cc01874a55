//! The typed error model of the simulation runtime.
//!
//! Every way a run can fail is a value: an invalid machine configuration
//! ([`ConfigError`]), a guest-visible fault raised by the workload
//! ([`Trap`]), a wedged pipeline caught by the watchdog
//! ([`SimError::Deadlock`], carrying a full [`DiagnosticDump`]), or a
//! broken scheduler invariant caught by the auditor
//! ([`SimError::InvariantViolation`]). A malformed workload in a parallel
//! sweep therefore degrades to one structured per-run failure instead of
//! a process abort.

use core::fmt;

use dda_mem::HierarchyConfigError;
use dda_vm::VmError;

use crate::diag::DiagnosticDump;

/// A structural problem with a [`crate::MachineConfig`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ConfigError {
    /// A dispatch/issue/commit width is zero.
    ZeroPipelineWidth,
    /// The ROB has no entries.
    ZeroRobSize,
    /// The LSQ has no entries.
    ZeroLsqSize,
    /// The LVAQ has no entries.
    ZeroLvaqSize,
    /// A functional-unit pool has no units.
    EmptyFuPool,
    /// The deadlock watchdog window is zero.
    ZeroDeadlockWindow,
    /// A cache geometry is invalid.
    Hierarchy(HierarchyConfigError),
    /// A fault-injection rate is outside `0.0..=1.0` (or not finite).
    FaultRateOutOfRange {
        /// Which rate field is out of range.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `delay_port_grant` is nonzero but `delay_cycles` is zero.
    ZeroFaultDelay,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroPipelineWidth => {
                write!(f, "pipeline widths must be at least 1")
            }
            ConfigError::ZeroRobSize => write!(f, "ROB must have at least one entry"),
            ConfigError::ZeroLsqSize => write!(f, "LSQ must have at least one entry"),
            ConfigError::ZeroLvaqSize => write!(f, "LVAQ must have at least one entry"),
            ConfigError::EmptyFuPool => {
                write!(f, "every functional-unit pool needs at least one unit")
            }
            ConfigError::ZeroDeadlockWindow => {
                write!(f, "deadlock watchdog must be positive")
            }
            ConfigError::Hierarchy(e) => write!(f, "{e}"),
            ConfigError::FaultRateOutOfRange { field, value } => {
                write!(f, "fault rate {field} = {value} must be within 0.0..=1.0")
            }
            ConfigError::ZeroFaultDelay => {
                write!(f, "delay_port_grant needs delay_cycles >= 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<HierarchyConfigError> for ConfigError {
    fn from(e: HierarchyConfigError) -> ConfigError {
        ConfigError::Hierarchy(e)
    }
}

/// What kind of guest-visible fault a workload raised.
///
/// These mirror [`VmError`] one-to-one: the functional machine is the
/// authority on architectural faults, and the pipeline wraps them with
/// timing context into a [`Trap`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// The pc fell off the end of the program image.
    PcOutOfRange {
        /// The faulting pc.
        pc: u32,
    },
    /// A load or store address was not aligned to the access size.
    Misaligned {
        /// The pc of the access.
        pc: u32,
        /// The effective address.
        addr: u32,
        /// The access size in bytes.
        bytes: u32,
    },
    /// A load or store touched an address outside every mapped region.
    Unmapped {
        /// The pc of the access.
        pc: u32,
        /// The effective address.
        addr: u32,
    },
    /// A frame layout ran past the stack region.
    StackOverflow {
        /// The pc of the access.
        pc: u32,
        /// The effective address.
        addr: u32,
        /// The lowest legal stack address.
        limit: u32,
    },
    /// A taken control transfer targeted a pc outside the program image
    /// — fetching there would decode garbage (an illegal instruction).
    IllegalInstruction {
        /// The pc of the control transfer.
        pc: u32,
        /// The out-of-image target.
        target: u32,
    },
    /// `Ret` executed with no outstanding call.
    ReturnWithoutCall {
        /// The pc of the return.
        pc: u32,
    },
}

impl From<VmError> for TrapKind {
    fn from(e: VmError) -> TrapKind {
        match e {
            VmError::PcOutOfRange { pc } => TrapKind::PcOutOfRange { pc },
            VmError::Misaligned { pc, addr, bytes } => TrapKind::Misaligned { pc, addr, bytes },
            VmError::OutOfRegion { pc, addr } => TrapKind::Unmapped { pc, addr },
            VmError::StackOverflow { pc, addr, limit } => {
                TrapKind::StackOverflow { pc, addr, limit }
            }
            VmError::IllegalTarget { pc, target } => TrapKind::IllegalInstruction { pc, target },
            VmError::ReturnWithoutCall { pc } => TrapKind::ReturnWithoutCall { pc },
        }
    }
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrapKind::PcOutOfRange { pc } => write!(f, "pc {pc} left the program image"),
            TrapKind::Misaligned { pc, addr, bytes } => {
                write!(f, "misaligned {bytes}-byte access to {addr:#x} at pc {pc}")
            }
            TrapKind::Unmapped { pc, addr } => {
                write!(f, "access to unmapped address {addr:#x} at pc {pc}")
            }
            TrapKind::StackOverflow { pc, addr, limit } => {
                write!(
                    f,
                    "stack overflow: access to {addr:#x} past limit {limit:#x} at pc {pc}"
                )
            }
            TrapKind::IllegalInstruction { pc, target } => {
                write!(
                    f,
                    "illegal instruction: control transfer to pc {target} at pc {pc}"
                )
            }
            TrapKind::ReturnWithoutCall { pc } => {
                write!(f, "return without a matching call at pc {pc}")
            }
        }
    }
}

/// A guest-visible fault, with the timing context at which the front-end
/// saw it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Trap {
    /// What faulted.
    pub kind: TrapKind,
    /// The cycle at which the fault reached the pipeline (dispatch).
    pub cycle: u64,
    /// Instructions committed before the fault.
    pub committed: u64,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (cycle {}, {} committed)",
            self.kind, self.cycle, self.committed
        )
    }
}

/// A scheduler invariant the auditor found broken, with the full
/// diagnostic state at the moment of detection.
#[derive(Clone, PartialEq, Debug)]
pub struct InvariantViolation {
    /// Which invariant failed, human-readable.
    pub what: String,
    /// Pipeline state at detection.
    pub dump: DiagnosticDump,
}

/// Any way a simulation run can fail, as a value.
#[derive(Clone, PartialEq, Debug)]
pub enum SimError {
    /// The machine configuration is structurally invalid.
    Config(ConfigError),
    /// The workload raised an architectural fault.
    Trap(Trap),
    /// No instruction committed for the watchdog window; the dump holds
    /// the wedged pipeline state.
    Deadlock(Box<DiagnosticDump>),
    /// The cycle-by-cycle auditor caught a broken scheduler invariant.
    InvariantViolation(Box<InvariantViolation>),
    /// A sweep worker panicked while running this task; the payload is
    /// the panic message. The panic is caught at the task boundary so one
    /// poisoned run degrades to one structured failure instead of
    /// tearing down the whole sweep.
    WorkerPanic(String),
    /// Warm cache-tag state handed to [`crate::Simulator::run_window`]
    /// does not fit this machine's hierarchy (LVC presence or a cache
    /// geometry differs).
    WarmStateMismatch,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Trap(t) => write!(f, "trap: {t}"),
            SimError::Deadlock(d) => {
                write!(
                    f,
                    "deadlock: no commit for {} cycles (cycle {}, {} committed)",
                    d.watchdog_window, d.cycle, d.committed
                )
            }
            SimError::InvariantViolation(v) => {
                write!(
                    f,
                    "invariant violation at cycle {}: {}",
                    v.dump.cycle, v.what
                )
            }
            SimError::WorkerPanic(msg) => write!(f, "sweep worker panicked: {msg}"),
            SimError::WarmStateMismatch => {
                write!(
                    f,
                    "warm cache-tag state does not match the machine's hierarchy"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_errors_map_to_trap_kinds() {
        assert_eq!(
            TrapKind::from(VmError::PcOutOfRange { pc: 7 }),
            TrapKind::PcOutOfRange { pc: 7 }
        );
        assert_eq!(
            TrapKind::from(VmError::Misaligned {
                pc: 1,
                addr: 3,
                bytes: 4
            }),
            TrapKind::Misaligned {
                pc: 1,
                addr: 3,
                bytes: 4
            }
        );
        assert_eq!(
            TrapKind::from(VmError::OutOfRegion { pc: 1, addr: 0x40 }),
            TrapKind::Unmapped { pc: 1, addr: 0x40 }
        );
        assert_eq!(
            TrapKind::from(VmError::StackOverflow {
                pc: 2,
                addr: 8,
                limit: 16
            }),
            TrapKind::StackOverflow {
                pc: 2,
                addr: 8,
                limit: 16
            }
        );
        assert_eq!(
            TrapKind::from(VmError::IllegalTarget { pc: 2, target: 999 }),
            TrapKind::IllegalInstruction { pc: 2, target: 999 }
        );
        assert_eq!(
            TrapKind::from(VmError::ReturnWithoutCall { pc: 0 }),
            TrapKind::ReturnWithoutCall { pc: 0 }
        );
    }

    #[test]
    fn displays_are_informative() {
        let t = Trap {
            kind: TrapKind::Unmapped { pc: 3, addr: 0x40 },
            cycle: 17,
            committed: 2,
        };
        let s = SimError::Trap(t).to_string();
        assert!(s.contains("0x40") && s.contains("cycle 17"));
        let c = SimError::Config(ConfigError::ZeroRobSize).to_string();
        assert!(c.contains("invalid machine configuration"));
    }
}
