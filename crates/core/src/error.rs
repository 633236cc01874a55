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

/// A guest-visible fault, with the timing context at which the front-end
/// saw it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Trap {
    /// What faulted: the functional machine is the authority on
    /// architectural faults, so this is the [`VmError`] it raised.
    pub kind: VmError,
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
    fn displays_are_informative() {
        let t = Trap {
            kind: VmError::OutOfRegion { pc: 3, addr: 0x40 },
            cycle: 17,
            committed: 2,
        };
        let s = SimError::Trap(t).to_string();
        assert!(s.contains("0x40") && s.contains("cycle 17"));
        let c = SimError::Config(ConfigError::ZeroRobSize).to_string();
        assert!(c.contains("invalid machine configuration"));
    }
}
