#![warn(missing_docs)]

//! # dda-core — the cycle-level out-of-order superscalar core
//!
//! A from-scratch reimplementation of the machine the paper evaluates: a
//! SimpleScalar `sim-outorder`-style, Register-Update-Unit (RUU) based
//! out-of-order processor (Sohi's RUU scheme) extended with the paper's
//! contribution, the **data-decoupled architecture**:
//!
//! * the memory stream is partitioned *before the instruction window* into
//!   local-variable accesses (steered to the **LVAQ**, backed by the small
//!   **LVC**) and everything else (the conventional LSQ + L1 D-cache);
//! * each queue enforces load/store ordering only against its own stream —
//!   the decoupling benefit;
//! * the LVAQ supports the paper's two optimizations, **fast data
//!   forwarding** (store→load bypass matched on `$sp`-relative offsets
//!   before effective addresses exist, §2.2.2) and **access combining**
//!   (contiguous same-line LVAQ entries share one LVC port, §2.2.2).
//!
//! The base machine parameters (Table 1) are provided by
//! [`MachineConfig::iscapaper_base`]: 16-wide issue/commit, 128-entry ROB,
//! 64-entry LSQ (+64-entry LVAQ), 16 integer + 16 FP ALUs, 4 integer +
//! 4 FP multiply/divide units with MIPS R10000 latencies, perfect
//! front-end, and the `dda-mem` hierarchy.
//!
//! The entry point is [`Simulator`]:
//!
//! ```
//! use dda_core::{MachineConfig, Simulator};
//! use dda_program::{FunctionBuilder, ProgramBuilder};
//! use dda_isa::Gpr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut main = FunctionBuilder::new("main");
//! for i in 0..32 {
//!     main.load_imm(Gpr::T0, i);
//! }
//! main.halt();
//! let mut b = ProgramBuilder::new();
//! b.add_function(main);
//! let program = b.build()?;
//!
//! let cfg = MachineConfig::iscapaper_base(); // the "(2+0)" machine
//! let result = Simulator::new(cfg)?.run(&program, 1_000_000)?;
//! assert!(result.ipc() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! Every failure mode is a value: [`Simulator::new`] rejects invalid
//! configurations with a [`ConfigError`], and a run returns a
//! [`SimError`] — a guest [`Trap`], a watchdog [`DiagnosticDump`], or an
//! auditor-caught invariant violation — instead of panicking.

mod classify;
mod config;
mod diag;
mod entry;
mod error;
mod fault;
mod fu;
mod pipeline;
mod queue;
mod result;
mod trace;

pub use classify::{is_sp_based, Classifier, RegionPredictor, Steer, SteerPolicy};
pub use config::{DecouplingConfig, MachineConfig};
pub use diag::{DiagnosticDump, HeadMemSnapshot, HeadSnapshot, RETIRED_PC_WINDOW};
pub use error::{ConfigError, InvariantViolation, SimError, Trap};
pub use fault::{FaultPlan, FaultStats};
pub use fu::FuPools;
pub use pipeline::Simulator;
pub use result::{QueueStats, SimResult, WindowRun};
pub use trace::{InstrTrace, MemPath};

/// The former name of [`Trap::kind`]'s type, kept for callers written
/// against it (perfbench's sampled workload).
pub use dda_vm::VmError as TrapKind;
