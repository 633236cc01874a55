#![warn(missing_docs)]

//! # dda-vm — the functional (architectural) simulator
//!
//! Executes a [`dda_program::Program`] instruction by instruction and emits
//! a stream of [`DynInst`] records — the *dynamic instruction stream* that
//! drives the cycle-level core in `dda-core`.
//!
//! Because the paper's machine model uses a perfect front-end (perfect
//! I-cache and oracle branch prediction, Table 1), the pipeline never
//! fetches down a wrong path; the architectural execution order *is* the
//! fetch order. The timing model can therefore consume this stream
//! directly — a functional-first, timing-directed organisation that is
//! cycle-equivalent to execution-driven simulation for this machine.
//!
//! Each [`DynInst`] carries everything the timing model needs:
//! the decoded instruction, the effective address and its ground-truth
//! [`dda_program::MemRegion`], the [`dda_isa::StreamHint`], and the
//! `$sp`-version/static-offset pair used by the LVAQ's *fast data
//! forwarding* (paper §2.2.2).
//!
//! [`StreamProfiler`] aggregates the workload-characterisation statistics
//! of the paper's Figures 2 and 3 from a stream.
//!
//! ```
//! use dda_program::{FunctionBuilder, ProgramBuilder};
//! use dda_isa::Gpr;
//! use dda_vm::Vm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut main = FunctionBuilder::new("main");
//! main.load_imm(Gpr::T0, 21);
//! main.alu(dda_isa::AluOp::Add, Gpr::V0, Gpr::T0, Gpr::T0);
//! main.halt();
//! let mut b = ProgramBuilder::new();
//! b.add_function(main);
//! let mut vm = Vm::new(b.build()?);
//! vm.run(1_000)?;
//! assert_eq!(vm.gpr(Gpr::V0), 42);
//! # Ok(())
//! # }
//! ```

mod block;
mod coverage;
mod machine;
mod memory;
mod profile;
mod snapshot;
mod tcache;

pub use coverage::{op_class, CoverageMap, EDGE_BUCKETS, OP_CLASS_COUNT};
pub use machine::{DynInst, MemInfo, RunSummary, Stream, Vm, VmError};
pub use memory::SparseMemory;
pub use profile::{StreamProfiler, StreamStats};
pub use snapshot::{Checkpoint, CheckpointKey};
pub use tcache::TCacheStats;
