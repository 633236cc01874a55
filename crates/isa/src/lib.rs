#![warn(missing_docs)]

//! # dda-isa — the instruction set of the DDA simulator
//!
//! A small MIPS-flavoured load/store RISC ISA used by every layer of the
//! data-decoupled architecture (DDA) simulator:
//!
//! * 32 general-purpose registers ([`Gpr`]) and 32 floating-point registers
//!   ([`Fpr`]), with the MIPS software conventions for `$sp`, `$fp`, `$ra`,
//!   argument and temporary registers;
//! * base+offset loads and stores carrying a [`StreamHint`] — the compiler
//!   classification bit that steers an access to the LSQ or the LVAQ
//!   (the paper's §2.2.3);
//! * direct calls/returns so the run-time stack discipline of the paper's
//!   workloads (prologue/epilogue register save/restore, argument passing,
//!   spill code) can be expressed faithfully;
//! * a MIPS-like disassembly via [`core::fmt::Display`]. Programs have no
//!   binary encoding: they persist as assembly text (`dda_program`'s
//!   `Program::to_asm` and its assembler).
//!
//! Program counters are in *instruction units*: `pc + 1` is the next
//! instruction. Data addresses are 32-bit byte addresses.
//!
//! ```
//! use dda_isa::{Instr, Gpr, StreamHint, MemWidth};
//!
//! let ld = Instr::Load {
//!     rd: Gpr::T0,
//!     base: Gpr::SP,
//!     offset: 8,
//!     width: MemWidth::Word,
//!     hint: StreamHint::Local,
//! };
//! assert!(ld.is_load());
//! assert_eq!(ld.to_string(), "lw    $t0, 8($sp) !local");
//! ```

mod disasm;
mod instr;
mod latency;
mod op;
mod regs;

pub use instr::{Instr, MemWidth, StreamHint};
pub use latency::{FuClass, LatencyTable};
pub use op::{AluOp, BranchCond, FpCond, FpuOp};
pub use regs::{Fpr, Gpr, Reg, NUM_FPRS, NUM_GPRS};
