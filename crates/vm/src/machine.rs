//! The architectural machine: registers, memory, sequential execution.

use core::fmt;
use std::sync::Arc;

use dda_isa::{Fpr, Gpr, Instr, MemWidth, StreamHint};
use dda_program::{MemRegion, Program};
use dda_stats::DecodeError;

use crate::block::{MemOp, MicroOp, OpKind, Terminator, MAX_BLOCK_OPS, NO_BLOCK};
use crate::memory::SparseMemory;
use crate::snapshot::{Checkpoint, CheckpointKey, TCacheSnapshot};
use crate::tcache::{TCache, TCacheStats};

/// An error raised during functional execution.
///
/// Any of these indicates a malformed program (a generator or hand-written
/// assembly bug), not a simulated micro-architectural event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// The pc left the program image.
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
    OutOfRegion {
        /// The pc of the access.
        pc: u32,
        /// The effective address.
        addr: u32,
    },
    /// A `$sp`-relative (or near-stack) access ran past the stack limit —
    /// the frame layout overflowed the stack region.
    StackOverflow {
        /// The pc of the access.
        pc: u32,
        /// The effective address.
        addr: u32,
        /// The lowest legal stack address.
        limit: u32,
    },
    /// A taken branch, jump, call, or return targeted a pc outside the
    /// program image — fetching from there would decode garbage, the
    /// moral equivalent of an illegal instruction.
    IllegalTarget {
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

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VmError::PcOutOfRange { pc } => write!(f, "pc {pc} left the program image"),
            VmError::Misaligned { pc, addr, bytes } => {
                write!(f, "misaligned {bytes}-byte access to {addr:#x} at pc {pc}")
            }
            VmError::OutOfRegion { pc, addr } => {
                write!(f, "access to unmapped address {addr:#x} at pc {pc}")
            }
            VmError::StackOverflow { pc, addr, limit } => {
                write!(
                    f,
                    "stack overflow: access to {addr:#x} past limit {limit:#x} at pc {pc}"
                )
            }
            VmError::IllegalTarget { pc, target } => {
                write!(
                    f,
                    "control transfer to illegal target pc {target} at pc {pc}"
                )
            }
            VmError::ReturnWithoutCall { pc } => {
                write!(f, "return without a matching call at pc {pc}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Unmapped accesses this close below the stack limit are classified as
/// stack overflow even when computed through a register other than `$sp`
/// (a copied frame pointer walking off a frame).
const STACK_GUARD_BYTES: u32 = 4096;

/// Memory-access metadata attached to a dynamic load or store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemInfo {
    /// Effective byte address.
    pub addr: u32,
    /// Access size in bytes (1, 2, 4 or 8).
    pub bytes: u32,
    /// Whether the access writes memory.
    pub is_store: bool,
    /// Ground-truth region of the address.
    pub region: MemRegion,
    /// The compiler's stream hint carried by the instruction.
    pub hint: StreamHint,
    /// `Some((sp_version, offset))` when the access is `$sp`-based: the
    /// version of `$sp` at execution and the instruction's static offset.
    /// The LVAQ's fast data forwarding (paper §2.2.2) matches store→load
    /// pairs on exactly this pair, before effective addresses exist.
    pub stack_slot: Option<(u64, i32)>,
}

impl MemInfo {
    /// Whether the ground-truth region makes this a local-variable access.
    #[inline]
    pub fn is_local(&self) -> bool {
        self.region == MemRegion::Stack
    }
}

/// One executed (dynamic) instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DynInst {
    /// Dynamic sequence number (0-based).
    pub seq: u64,
    /// The pc the instruction was fetched from.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// The pc of the next instruction in the architectural order.
    pub next_pc: u32,
    /// Memory-access metadata for loads/stores.
    pub mem: Option<MemInfo>,
}

/// Summary of a [`Vm::run`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunSummary {
    /// Instructions executed by this call.
    pub executed: u64,
    /// Whether the machine reached `Halt`.
    pub halted: bool,
}

/// The functional simulator.
///
/// Executes the program in architectural order; [`Vm::step`] returns one
/// [`DynInst`] at a time, which is exactly the stream a perfect front-end
/// (paper Table 1) would feed the pipeline.
#[derive(Clone, Debug)]
pub struct Vm {
    program: Arc<Program>,
    pc: u32,
    gpr: [i32; 32],
    fpr: [f64; 32],
    mem: SparseMemory,
    sp_version: u64,
    seq: u64,
    call_depth: u32,
    max_call_depth: u32,
    halted: bool,
    /// Basic-block translation cache, created lazily on the first
    /// [`Vm::step_block`] call (plain [`Vm::step`] never pays for it).
    tcache: Option<Box<TCache>>,
    /// Predicted id of the block starting at the current pc, chained from
    /// the previous block's successor link ([`NO_BLOCK`] = no prediction).
    block_hint: u32,
}

impl Vm {
    /// Creates a machine at the program entry with `$sp` at the stack base
    /// and `$gp` at the global base.
    ///
    /// Accepts an owned [`Program`] or an `Arc<Program>`; passing the
    /// `Arc` lets many machines (e.g. a configuration sweep) share one
    /// program image instead of cloning it per run.
    pub fn new(program: impl Into<Arc<Program>>) -> Vm {
        let program = program.into();
        let mut gpr = [0i32; 32];
        gpr[Gpr::SP.index()] = program.layout().stack_base() as i32;
        gpr[Gpr::GP.index()] = program.layout().global_base() as i32;
        Vm {
            pc: program.entry(),
            program,
            gpr,
            fpr: [0.0; 32],
            mem: SparseMemory::new(),
            sp_version: 0,
            seq: 0,
            call_depth: 0,
            max_call_depth: 0,
            halted: false,
            tcache: None,
            block_hint: NO_BLOCK,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current pc.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether `Halt` has been executed.
    #[inline]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    #[inline]
    pub fn instructions_executed(&self) -> u64 {
        self.seq
    }

    /// Current call depth (0 in the entry function).
    #[inline]
    pub fn call_depth(&self) -> u32 {
        self.call_depth
    }

    /// Deepest call depth reached so far.
    #[inline]
    pub fn max_call_depth(&self) -> u32 {
        self.max_call_depth
    }

    /// Monotone counter bumped on every architectural write to `$sp`.
    #[inline]
    pub fn sp_version(&self) -> u64 {
        self.sp_version
    }

    /// Reads a general-purpose register (`$zero` reads 0).
    #[inline]
    pub fn gpr(&self, r: Gpr) -> i32 {
        if r.is_zero() {
            0
        } else {
            self.gpr[r.index()]
        }
    }

    /// Writes a general-purpose register (writes to `$zero` are ignored).
    #[inline]
    pub fn set_gpr(&mut self, r: Gpr, v: i32) {
        if !r.is_zero() {
            if r == Gpr::SP {
                self.sp_version += 1;
            }
            self.gpr[r.index()] = v;
        }
    }

    /// Reads a floating-point register.
    #[inline]
    pub fn fpr(&self, r: Fpr) -> f64 {
        self.fpr[r.index()]
    }

    /// Writes a floating-point register.
    #[inline]
    pub fn set_fpr(&mut self, r: Fpr, v: f64) {
        self.fpr[r.index()] = v;
    }

    /// Direct access to data memory (for test setup and inspection).
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    fn check_access(&self, pc: u32, addr: u32, bytes: u32) -> Result<MemRegion, VmError> {
        if !addr.is_multiple_of(bytes) {
            return Err(VmError::Misaligned { pc, addr, bytes });
        }
        let region = self.program.layout().region_of(addr);
        if region == MemRegion::Unmapped {
            return Err(VmError::OutOfRegion { pc, addr });
        }
        Ok(region)
    }

    /// The shared architectural access check: one implementation serves
    /// both the interpreter (which builds the [`MemOp`] on the fly) and
    /// the block replayer (which pre-decoded it), so the two front-ends
    /// cannot drift apart in fault or classification semantics.
    fn mem_info(&self, pc: u32, m: &MemOp) -> Result<(u32, MemInfo), VmError> {
        let addr = (self.gpr(m.base) as u32).wrapping_add(m.offset as u32);
        let region = match self.check_access(pc, addr, m.bytes) {
            Ok(region) => region,
            Err(VmError::OutOfRegion { pc, addr }) => {
                // An unmapped access through `$sp`, or just below the
                // stack region, is a frame layout running off the end of
                // the stack — report it as the overflow it is.
                let limit = self.program.layout().stack_limit();
                let in_guard = addr < limit && limit - addr <= STACK_GUARD_BYTES;
                if m.base_is_sp || in_guard {
                    return Err(VmError::StackOverflow { pc, addr, limit });
                }
                return Err(VmError::OutOfRegion { pc, addr });
            }
            Err(e) => return Err(e),
        };
        let stack_slot = m.base_is_sp.then_some((self.sp_version, m.offset));
        Ok((
            addr,
            MemInfo {
                addr,
                bytes: m.bytes,
                is_store: m.is_store,
                region,
                hint: m.hint,
                stack_slot,
            },
        ))
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` when the machine has already halted.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] for malformed programs (pc escape, misaligned
    /// or unmapped access, unmatched return). After an error the machine
    /// state is unchanged except that it is marked halted.
    pub fn step(&mut self) -> Result<Option<DynInst>, VmError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let instr = match self.program.get(pc) {
            Some(i) => i,
            None => {
                self.halted = true;
                return Err(VmError::PcOutOfRange { pc });
            }
        };

        let mut next_pc = pc + 1;
        let mut mem: Option<MemInfo> = None;

        macro_rules! fail {
            ($e:expr) => {{
                self.halted = true;
                return Err($e);
            }};
        }

        match instr {
            Instr::Nop => {}
            Instr::Halt => self.halted = true,
            Instr::Alu { op, rd, rs, rt } => {
                let v = op.eval(self.gpr(rs), self.gpr(rt));
                self.set_gpr(rd, v);
            }
            Instr::AluImm { op, rd, rs, imm } => {
                let v = op.eval(self.gpr(rs), imm);
                self.set_gpr(rd, v);
            }
            Instr::LoadImm { rd, imm } => self.set_gpr(rd, imm),
            Instr::Fpu { op, fd, fs, ft } => {
                let v = op.eval(self.fpr(fs), self.fpr(ft));
                self.set_fpr(fd, v);
            }
            Instr::FpCmp { cond, rd, fs, ft } => {
                let v = cond.eval(self.fpr(fs), self.fpr(ft)) as i32;
                self.set_gpr(rd, v);
            }
            Instr::IntToFp { fd, rs } => {
                let v = self.gpr(rs) as f64;
                self.set_fpr(fd, v);
            }
            Instr::FpToInt { rd, fs } => {
                let v = self.fpr(fs) as i32; // saturating in Rust
                self.set_gpr(rd, v);
            }
            Instr::Load {
                rd,
                base,
                offset,
                width,
                hint,
            } => match self.mem_info(pc, &MemOp::new(base, offset, width.bytes(), hint, false)) {
                Ok((addr, info)) => {
                    let v = match width {
                        MemWidth::Byte => self.mem.read_u8(addr) as i8 as i32,
                        MemWidth::Half => self.mem.read_u16(addr) as i16 as i32,
                        MemWidth::Word => self.mem.read_u32(addr) as i32,
                    };
                    self.set_gpr(rd, v);
                    mem = Some(info);
                }
                Err(e) => fail!(e),
            },
            Instr::Store {
                rs,
                base,
                offset,
                width,
                hint,
            } => match self.mem_info(pc, &MemOp::new(base, offset, width.bytes(), hint, true)) {
                Ok((addr, info)) => {
                    let v = self.gpr(rs);
                    match width {
                        MemWidth::Byte => self.mem.write_u8(addr, v as u8),
                        MemWidth::Half => self.mem.write_u16(addr, v as u16),
                        MemWidth::Word => self.mem.write_u32(addr, v as u32),
                    }
                    mem = Some(info);
                }
                Err(e) => fail!(e),
            },
            Instr::FLoad {
                fd,
                base,
                offset,
                hint,
            } => match self.mem_info(pc, &MemOp::new(base, offset, 8, hint, false)) {
                Ok((addr, info)) => {
                    let v = self.mem.read_f64(addr);
                    self.set_fpr(fd, v);
                    mem = Some(info);
                }
                Err(e) => fail!(e),
            },
            Instr::FStore {
                fs,
                base,
                offset,
                hint,
            } => match self.mem_info(pc, &MemOp::new(base, offset, 8, hint, true)) {
                Ok((addr, info)) => {
                    let v = self.fpr(fs);
                    self.mem.write_f64(addr, v);
                    mem = Some(info);
                }
                Err(e) => fail!(e),
            },
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                if cond.eval(self.gpr(rs), self.gpr(rt)) {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Call { target } => {
                self.set_gpr(Gpr::RA, (pc + 1) as i32);
                next_pc = target;
                self.call_depth += 1;
                self.max_call_depth = self.max_call_depth.max(self.call_depth);
            }
            Instr::CallReg { rs } => {
                let target = self.gpr(rs) as u32;
                self.set_gpr(Gpr::RA, (pc + 1) as i32);
                next_pc = target;
                self.call_depth += 1;
                self.max_call_depth = self.max_call_depth.max(self.call_depth);
            }
            Instr::Ret => {
                if self.call_depth == 0 {
                    fail!(VmError::ReturnWithoutCall { pc });
                }
                next_pc = self.gpr(Gpr::RA) as u32;
                self.call_depth -= 1;
            }
        }

        // A *taken* control transfer out of the program image faults at
        // the transfer itself (fetching the target would decode garbage).
        // Sequential fall-through past the last instruction stays lazy —
        // it faults as `PcOutOfRange` on the next step.
        if !self.halted && next_pc != pc + 1 && self.program.get(next_pc).is_none() {
            self.halted = true;
            return Err(VmError::IllegalTarget {
                pc,
                target: next_pc,
            });
        }

        if !self.halted || matches!(instr, Instr::Halt) {
            self.pc = next_pc;
        }
        let d = DynInst {
            seq: self.seq,
            pc,
            instr,
            next_pc,
            mem,
        };
        self.seq += 1;
        Ok(Some(d))
    }

    /// Runs until `Halt` or until `max_instructions` have executed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`] encountered.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunSummary, VmError> {
        let mut executed = 0;
        while executed < max_instructions {
            match self.step()? {
                Some(_) => executed += 1,
                None => break,
            }
        }
        Ok(RunSummary {
            executed,
            halted: self.halted,
        })
    }

    /// Fast-forwards exactly `n` instructions (or to `Halt`, whichever
    /// comes first) at translation-cache speed, stopping *precisely* at
    /// the instruction boundary.
    ///
    /// This is the warmup mode of sampled simulation: unlike a plain
    /// [`Vm::step_block`] loop — which commits whole blocks and
    /// overshoots the budget by up to a block — this runs blocks only
    /// while a full block is guaranteed to fit and single-steps the
    /// tail, so `instructions_executed()` afterwards equals the start
    /// value plus `n` exactly (unless the program halts or faults
    /// earlier). A detailed window can therefore start at a precise
    /// instruction index, and a checkpoint taken here is at a precise
    /// content address.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`]; instructions before the fault
    /// have committed, the machine is halted at the faulting pc. A fault
    /// that lies *beyond* the budget never executes.
    pub fn fast_forward(&mut self, n: u64) -> Result<RunSummary, VmError> {
        self.fast_forward_observed(n, |_| {})
    }

    /// [`Vm::fast_forward`] with an observer called on every executed
    /// instruction, in architectural order — the hook functional cache
    /// warmup hangs off (the observer sees the identical [`DynInst`]
    /// stream the interpreter would emit).
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`]; instructions before the fault
    /// have been observed and committed.
    pub fn fast_forward_observed(
        &mut self,
        n: u64,
        mut observe: impl FnMut(&DynInst),
    ) -> Result<RunSummary, VmError> {
        let start = self.seq;
        let target = start.saturating_add(n);
        // A block emits at most MAX_BLOCK_OPS straight-line ops plus one
        // terminator, so whole-block dispatch is safe while that worst
        // case still fits under the budget.
        let safe = MAX_BLOCK_OPS as u64 + 1;
        let mut buf: Vec<DynInst> = Vec::with_capacity(safe as usize);
        while !self.halted && self.seq + safe <= target {
            buf.clear();
            let err = self.step_block(&mut buf);
            for d in &buf {
                observe(d);
            }
            if let Some(e) = err {
                return Err(e);
            }
        }
        while !self.halted && self.seq < target {
            match self.step()? {
                Some(d) => observe(&d),
                None => break,
            }
        }
        Ok(RunSummary {
            executed: self.seq - start,
            halted: self.halted,
        })
    }

    /// Captures a serializable [`Checkpoint`] of the architectural state,
    /// content-addressed by `(program_hash, instructions executed,
    /// config_hash)`. The two hashes are caller-provided (`dda-vm` does
    /// not define the canonical program/config fingerprints); restoring
    /// through [`Vm::restore`] yields a machine bit-identical to this
    /// one — registers, memory pages, `sp_version`, call depths and
    /// translation-cache state (counters included) all round-trip.
    pub fn checkpoint(&self, program_hash: u64, config_hash: u64) -> Checkpoint {
        Checkpoint {
            key: CheckpointKey {
                program_hash,
                inst_index: self.seq,
                config_hash,
            },
            pc: self.pc,
            halted: self.halted,
            call_depth: self.call_depth,
            max_call_depth: self.max_call_depth,
            block_hint: self.block_hint,
            sp_version: self.sp_version,
            seq: self.seq,
            gpr: self.gpr,
            fpr_bits: core::array::from_fn(|i| self.fpr[i].to_bits()),
            pages: self
                .mem
                .resident_page_bytes()
                .map(|(i, b)| (i, b.to_vec()))
                .collect(),
            tcache: self.tcache.as_ref().map(|tc| TCacheSnapshot {
                recipe: tc.recipe(),
                stats: tc.stats,
            }),
            cache_tags: None,
        }
    }

    /// Rebuilds a machine from a [`Checkpoint`] over `program`.
    ///
    /// The caller is responsible for passing the *same* program the
    /// checkpoint was taken from (the content-addressed store keys on
    /// the program hash); this function validates that the snapshot
    /// structurally fits the image and rebuilds the translation cache by
    /// re-decoding the recorded block starts, which is deterministic, so
    /// the restored machine's future execution — dynamic stream, cache
    /// counters, inline-cache behaviour — is bit-identical to the
    /// original's.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Corrupt`] when a page index or a
    /// translation-cache entry does not fit `program`.
    pub fn restore(program: Arc<Program>, ck: &Checkpoint) -> Result<Vm, DecodeError> {
        let mut mem = SparseMemory::new();
        for (index, bytes) in &ck.pages {
            if !mem.install_page(*index, bytes) {
                return Err(DecodeError::Corrupt("page does not fit memory"));
            }
        }
        let tcache = match &ck.tcache {
            None => None,
            Some(snap) => match TCache::rebuild(&program, &snap.recipe, snap.stats) {
                Some(tc) => Some(Box::new(tc)),
                None => return Err(DecodeError::Corrupt("tcache recipe does not fit program")),
            },
        };
        if let Some(tc) = &tcache {
            let n = tc.blocks.len() as u32;
            if ck.block_hint != NO_BLOCK && ck.block_hint >= n {
                return Err(DecodeError::Corrupt("block hint out of range"));
            }
        } else if ck.block_hint != NO_BLOCK {
            return Err(DecodeError::Corrupt("block hint without a tcache"));
        }
        Ok(Vm {
            program,
            pc: ck.pc,
            gpr: ck.gpr,
            fpr: core::array::from_fn(|i| f64::from_bits(ck.fpr_bits[i])),
            mem,
            sp_version: ck.sp_version,
            seq: ck.seq,
            call_depth: ck.call_depth,
            max_call_depth: ck.max_call_depth,
            halted: ck.halted,
            tcache,
            block_hint: ck.block_hint,
        })
    }

    /// Executes one basic block through the translation cache, appending
    /// the emitted [`DynInst`]s to `out`.
    ///
    /// This is the batched equivalent of calling [`Vm::step`] in a loop:
    /// the concatenation of `out` across calls is bit-identical to the
    /// interpreter's stream (sequence numbers, `next_pc`, [`MemInfo`]
    /// stack-slot tags included). Each call appends at least one
    /// instruction unless the machine is already halted (`out` untouched,
    /// returns `None`) or the block faults.
    ///
    /// On a fault the error is *returned* (not `Err` — the signature
    /// deliberately differs from `step` so callers handle the partial
    /// batch): instructions before the faulting micro-op are already in
    /// `out`, committed exactly as the interpreter would have committed
    /// them, and the machine is halted at the faulting pc with no effects
    /// of the faulting instruction applied — the same "state unchanged
    /// except halted" contract as [`Vm::step`].
    pub fn step_block(&mut self, out: &mut Vec<DynInst>) -> Option<VmError> {
        if self.halted {
            return None;
        }
        // Take the cache out of `self` so the replay loop can borrow the
        // machine state and the cache's op array independently.
        let mut tc = match self.tcache.take() {
            Some(tc) => tc,
            None => Box::new(TCache::new(&self.program)),
        };
        let err = self.replay_block(&mut tc, out);
        self.tcache = Some(tc);
        err
    }

    /// Translation-cache counters (all zero until the first
    /// [`Vm::step_block`] call).
    pub fn tcache_stats(&self) -> TCacheStats {
        match self.tcache.as_ref() {
            Some(tc) => tc.stats,
            None => TCacheStats::default(),
        }
    }

    fn replay_block(&mut self, tc: &mut TCache, out: &mut Vec<DynInst>) -> Option<VmError> {
        let pc = self.pc;
        if pc as usize >= self.program.len() {
            self.halted = true;
            self.block_hint = NO_BLOCK;
            return Some(VmError::PcOutOfRange { pc });
        }
        // Resolve the current block: the hint chained from the previous
        // block's successor link usually short-circuits the pc map.
        let hint = self.block_hint;
        let id = if hint != NO_BLOCK && tc.blocks[hint as usize].start == pc {
            tc.stats.inline_hits += 1;
            hint
        } else {
            tc.block_at(&self.program, pc)
        };
        // Blocks are `Copy`: snapshot the header so the micro-op walk
        // only borrows the flat op array.
        let blk = tc.blocks[id as usize];
        tc.stats.blocks_replayed += 1;

        // Straight-line micro-ops. `self.pc` tracks the fetch pc op by
        // op, so a faulting op leaves the machine exactly where the
        // interpreter would (pc at the fault, prior effects committed).
        let (ops_start, ops_len) = blk.ops;
        for idx in ops_start..ops_start + ops_len {
            let op = tc.ops[idx as usize];
            match self.exec_micro(&op) {
                Ok(mem) => {
                    out.push(DynInst {
                        seq: self.seq,
                        pc: op.pc,
                        instr: op.instr,
                        next_pc: op.pc + 1,
                        mem,
                    });
                    self.seq += 1;
                    self.pc = op.pc + 1;
                }
                Err(e) => {
                    self.halted = true;
                    self.block_hint = NO_BLOCK;
                    tc.stats.ops_replayed += (idx - ops_start) as u64;
                    return Some(e);
                }
            }
        }
        tc.stats.ops_replayed += ops_len as u64;

        // The terminator. Effect ordering per variant mirrors `step`
        // exactly — in particular `Call`/`CallReg` write `$ra` and bump
        // the call depth *before* the illegal-target check fires, and
        // `Ret` decrements the depth before it.
        let tpc = blk.term_pc;
        macro_rules! fault {
            ($e:expr) => {{
                self.halted = true;
                self.block_hint = NO_BLOCK;
                return Some($e);
            }};
        }
        let (next_pc, succ_slot) = match blk.term {
            Terminator::FallThrough => {
                // No instruction: the block ended at a static leader (or
                // the length cap); chain straight to the successor.
                self.pc = tpc;
                self.resolve_succ(tc, id, 0, tpc);
                return None;
            }
            Terminator::Branch {
                f,
                rs,
                rt,
                target,
                taken_ok,
            } => {
                if f(self.gpr(rs), self.gpr(rt)) {
                    if target != tpc + 1 && !taken_ok {
                        fault!(VmError::IllegalTarget { pc: tpc, target });
                    }
                    (target, 1)
                } else {
                    (tpc + 1, 0)
                }
            }
            Terminator::Jump { target, ok } => {
                if target != tpc + 1 && !ok {
                    fault!(VmError::IllegalTarget { pc: tpc, target });
                }
                (target, 0)
            }
            Terminator::Call { target, ok } => {
                self.set_gpr(Gpr::RA, (tpc + 1) as i32);
                self.call_depth += 1;
                self.max_call_depth = self.max_call_depth.max(self.call_depth);
                if target != tpc + 1 && !ok {
                    fault!(VmError::IllegalTarget { pc: tpc, target });
                }
                (target, 0)
            }
            Terminator::CallReg { rs } => {
                let target = self.gpr(rs) as u32;
                self.set_gpr(Gpr::RA, (tpc + 1) as i32);
                self.call_depth += 1;
                self.max_call_depth = self.max_call_depth.max(self.call_depth);
                if target != tpc + 1 && self.program.get(target).is_none() {
                    fault!(VmError::IllegalTarget { pc: tpc, target });
                }
                (target, 2)
            }
            Terminator::Ret => {
                if self.call_depth == 0 {
                    fault!(VmError::ReturnWithoutCall { pc: tpc });
                }
                let target = self.gpr(Gpr::RA) as u32;
                self.call_depth -= 1;
                if target != tpc + 1 && self.program.get(target).is_none() {
                    fault!(VmError::IllegalTarget { pc: tpc, target });
                }
                (target, 2)
            }
            Terminator::Halt => {
                self.halted = true;
                self.block_hint = NO_BLOCK;
                out.push(DynInst {
                    seq: self.seq,
                    pc: tpc,
                    instr: blk.term_instr,
                    next_pc: tpc + 1,
                    mem: None,
                });
                self.seq += 1;
                self.pc = tpc + 1;
                tc.stats.ops_replayed += 1;
                return None;
            }
        };
        out.push(DynInst {
            seq: self.seq,
            pc: tpc,
            instr: blk.term_instr,
            next_pc,
            mem: None,
        });
        self.seq += 1;
        self.pc = next_pc;
        tc.stats.ops_replayed += 1;
        if succ_slot == 2 {
            self.resolve_dyn_succ(tc, id, next_pc);
        } else {
            self.resolve_succ(tc, id, succ_slot, next_pc);
        }
        None
    }

    /// Resolves a static successor link (`succ[slot]`), filling the
    /// inline cache on first use and updating the machine's block hint.
    fn resolve_succ(&mut self, tc: &mut TCache, id: u32, slot: usize, next_pc: u32) {
        let cached = tc.blocks[id as usize].succ[slot];
        if cached != NO_BLOCK {
            tc.stats.inline_hits += 1;
            self.block_hint = cached;
        } else if (next_pc as usize) < self.program.len() {
            let nid = tc.block_at(&self.program, next_pc);
            tc.blocks[id as usize].succ[slot] = nid;
            self.block_hint = nid;
        } else {
            // Sequential escape off the image: stays lazy, the next
            // `step_block` raises `PcOutOfRange` like the interpreter.
            self.block_hint = NO_BLOCK;
        }
    }

    /// Resolves a dynamic successor (`ret`, indirect call) through the
    /// block's monomorphic `(target, id)` inline cache.
    fn resolve_dyn_succ(&mut self, tc: &mut TCache, id: u32, next_pc: u32) {
        let (dpc, did) = tc.blocks[id as usize].dyn_succ;
        if did != NO_BLOCK && dpc == next_pc {
            tc.stats.inline_hits += 1;
            self.block_hint = did;
        } else if (next_pc as usize) < self.program.len() {
            let nid = tc.block_at(&self.program, next_pc);
            tc.blocks[id as usize].dyn_succ = (next_pc, nid);
            self.block_hint = nid;
        } else {
            self.block_hint = NO_BLOCK;
        }
    }

    /// Executes one straight-line micro-op; on `Err` no architectural
    /// state has changed (access checks run before any write).
    #[inline]
    fn exec_micro(&mut self, op: &MicroOp) -> Result<Option<MemInfo>, VmError> {
        match op.kind {
            OpKind::Nop => Ok(None),
            OpKind::Alu { f, rd, rs, rt } => {
                let v = f(self.gpr(rs), self.gpr(rt));
                self.set_gpr(rd, v);
                Ok(None)
            }
            OpKind::AluImm { f, rd, rs, imm } => {
                let v = f(self.gpr(rs), imm);
                self.set_gpr(rd, v);
                Ok(None)
            }
            OpKind::LoadImm { rd, imm } => {
                self.set_gpr(rd, imm);
                Ok(None)
            }
            OpKind::Fpu { f, fd, fs, ft } => {
                let v = f(self.fpr(fs), self.fpr(ft));
                self.set_fpr(fd, v);
                Ok(None)
            }
            OpKind::FpCmp { f, rd, fs, ft } => {
                let v = f(self.fpr(fs), self.fpr(ft)) as i32;
                self.set_gpr(rd, v);
                Ok(None)
            }
            OpKind::IntToFp { fd, rs } => {
                let v = self.gpr(rs) as f64;
                self.set_fpr(fd, v);
                Ok(None)
            }
            OpKind::FpToInt { rd, fs } => {
                let v = self.fpr(fs) as i32; // saturating in Rust
                self.set_gpr(rd, v);
                Ok(None)
            }
            OpKind::Load { rd, m, width } => {
                let (addr, info) = self.mem_info(op.pc, &m)?;
                let v = match width {
                    MemWidth::Byte => self.mem.read_u8(addr) as i8 as i32,
                    MemWidth::Half => self.mem.read_u16(addr) as i16 as i32,
                    MemWidth::Word => self.mem.read_u32(addr) as i32,
                };
                self.set_gpr(rd, v);
                Ok(Some(info))
            }
            OpKind::Store { rs, m, width } => {
                let (addr, info) = self.mem_info(op.pc, &m)?;
                let v = self.gpr(rs);
                match width {
                    MemWidth::Byte => self.mem.write_u8(addr, v as u8),
                    MemWidth::Half => self.mem.write_u16(addr, v as u16),
                    MemWidth::Word => self.mem.write_u32(addr, v as u32),
                }
                Ok(Some(info))
            }
            OpKind::FLoad { fd, m } => {
                let (addr, info) = self.mem_info(op.pc, &m)?;
                let v = self.mem.read_f64(addr);
                self.set_fpr(fd, v);
                Ok(Some(info))
            }
            OpKind::FStore { fs, m } => {
                let (addr, info) = self.mem_info(op.pc, &m)?;
                let v = self.fpr(fs);
                self.mem.write_f64(addr, v);
                Ok(Some(info))
            }
        }
    }
}

/// An iterator over the remaining dynamic instruction stream of a [`Vm`].
///
/// Panics on [`VmError`] — by the time a stream is consumed by the timing
/// model the program is expected to be well-formed (generator-produced
/// programs are validated by their tests).
#[derive(Debug)]
pub struct Stream<'a> {
    vm: &'a mut Vm,
}

impl Iterator for Stream<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self.vm.step() {
            Ok(d) => d,
            Err(e) => panic!("functional execution error in dynamic stream: {e}"),
        }
    }
}

impl Vm {
    /// Iterate the remaining dynamic stream.
    ///
    /// # Panics
    ///
    /// The iterator panics if execution raises a [`VmError`].
    pub fn stream(&mut self) -> Stream<'_> {
        Stream { vm: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_isa::{AluOp, BranchCond};
    use dda_program::{FunctionBuilder, ProgramBuilder};

    fn build(funcs: Vec<FunctionBuilder>) -> Program {
        let mut b = ProgramBuilder::new();
        for f in funcs {
            b.add_function(f);
        }
        b.build().unwrap()
    }

    fn run_to_halt(p: Program) -> Vm {
        let mut vm = Vm::new(p);
        let s = vm.run(1_000_000).unwrap();
        assert!(s.halted, "program did not halt");
        vm
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 6);
        f.load_imm(Gpr::T1, 7);
        f.alu(AluOp::Mul, Gpr::V0, Gpr::T0, Gpr::T1);
        f.halt();
        let vm = run_to_halt(build(vec![f]));
        assert_eq!(vm.gpr(Gpr::V0), 42);
        assert_eq!(vm.instructions_executed(), 4);
    }

    #[test]
    fn loop_with_branch() {
        // sum = 0; for i in 1..=10 { sum += i }
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 10); // i
        f.load_imm(Gpr::T1, 0); // sum
        let top = f.new_label();
        f.bind(top);
        f.alu(AluOp::Add, Gpr::T1, Gpr::T1, Gpr::T0);
        f.addi(Gpr::T0, Gpr::T0, -1);
        f.branch(BranchCond::Gt, Gpr::T0, Gpr::ZERO, top);
        f.halt();
        let vm = run_to_halt(build(vec![f]));
        assert_eq!(vm.gpr(Gpr::T1), 55);
    }

    #[test]
    fn recursion_factorial() {
        // fact(n): if n <= 1 return 1 else return n * fact(n-1)
        // a0 = n, result in v0; saves ra and a0 on the stack.
        let mut main = FunctionBuilder::new("main");
        main.load_imm(Gpr::A0, 6);
        main.call("fact");
        main.halt();

        let mut fact = FunctionBuilder::with_frame("fact", 8);
        let recurse = fact.new_label();
        fact.load_imm(Gpr::T0, 1);
        fact.branch(BranchCond::Gt, Gpr::A0, Gpr::T0, recurse);
        fact.load_imm(Gpr::V0, 1);
        fact.ret();
        fact.bind(recurse);
        fact.addi(Gpr::SP, Gpr::SP, -8);
        fact.store_local(Gpr::RA, 0);
        fact.store_local(Gpr::A0, 4);
        fact.addi(Gpr::A0, Gpr::A0, -1);
        fact.call("fact");
        fact.load_local(Gpr::RA, 0);
        fact.load_local(Gpr::A0, 4);
        fact.alu(AluOp::Mul, Gpr::V0, Gpr::V0, Gpr::A0);
        fact.addi(Gpr::SP, Gpr::SP, 8);
        fact.ret();

        let vm = run_to_halt(build(vec![main, fact]));
        assert_eq!(vm.gpr(Gpr::V0), 720);
        assert_eq!(vm.call_depth(), 0);
        assert_eq!(vm.max_call_depth(), 6);
        // $sp fully restored.
        assert_eq!(vm.gpr(Gpr::SP) as u32, vm.program().layout().stack_base());
    }

    #[test]
    fn sp_version_increments_on_sp_writes() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -16);
        f.addi(Gpr::T0, Gpr::T0, 1); // unrelated
        f.addi(Gpr::SP, Gpr::SP, 16);
        f.halt();
        let vm = run_to_halt(build(vec![f]));
        assert_eq!(vm.sp_version(), 2);
    }

    #[test]
    fn mem_info_classifies_regions_and_slots() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -16);
        f.store_local(Gpr::T0, 4);
        f.load(Gpr::T1, Gpr::GP, 8, MemWidth::Word, StreamHint::NonLocal);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        let recs: Vec<DynInst> = vm.stream().collect();
        let st = recs[1].mem.unwrap();
        assert!(st.is_store && st.is_local());
        assert_eq!(st.region, MemRegion::Stack);
        assert_eq!(st.stack_slot, Some((1, 4)));
        let ld = recs[2].mem.unwrap();
        assert!(!ld.is_store && !ld.is_local());
        assert_eq!(ld.region, MemRegion::Global);
        assert_eq!(ld.stack_slot, None);
    }

    #[test]
    fn store_load_round_trip_through_memory() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        f.load_imm(Gpr::T0, -123456);
        f.store_local(Gpr::T0, 12);
        f.load_local(Gpr::V0, 12);
        f.halt();
        let vm = run_to_halt(build(vec![f]));
        assert_eq!(vm.gpr(Gpr::V0), -123456);
    }

    #[test]
    fn byte_and_half_sign_extension() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -16);
        f.load_imm(Gpr::T0, 0x1ff);
        f.store(Gpr::T0, Gpr::SP, 0, MemWidth::Byte, StreamHint::Local);
        f.load(Gpr::V0, Gpr::SP, 0, MemWidth::Byte, StreamHint::Local);
        f.load_imm(Gpr::T1, -2);
        f.store(Gpr::T1, Gpr::SP, 4, MemWidth::Half, StreamHint::Local);
        f.load(Gpr::V1, Gpr::SP, 4, MemWidth::Half, StreamHint::Local);
        f.halt();
        let vm = run_to_halt(build(vec![f]));
        assert_eq!(vm.gpr(Gpr::V0), -1); // 0xff sign-extends
        assert_eq!(vm.gpr(Gpr::V1), -2);
    }

    #[test]
    fn fp_ops_and_memory() {
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 3);
        f.int_to_fp(Fpr::F0, Gpr::T0);
        f.fpu(dda_isa::FpuOp::Mul, Fpr::new(1), Fpr::F0, Fpr::F0);
        f.addi(Gpr::SP, Gpr::SP, -16);
        f.fstore(Fpr::new(1), Gpr::SP, 0, StreamHint::Local);
        f.fload(Fpr::new(2), Gpr::SP, 0, StreamHint::Local);
        f.fp_to_int(Gpr::V0, Fpr::new(2));
        f.halt();
        let vm = run_to_halt(build(vec![f]));
        assert_eq!(vm.gpr(Gpr::V0), 9);
        assert_eq!(vm.fpr(Fpr::new(2)), 9.0);
    }

    #[test]
    fn misaligned_access_is_an_error() {
        let mut f = FunctionBuilder::new("main");
        f.load(Gpr::T0, Gpr::GP, 2, MemWidth::Word, StreamHint::NonLocal);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        let err = vm.run(10).unwrap_err();
        assert!(matches!(err, VmError::Misaligned { bytes: 4, .. }));
        assert!(vm.is_halted());
    }

    #[test]
    fn unmapped_access_is_an_error() {
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 0x40);
        f.load(Gpr::T1, Gpr::T0, 0, MemWidth::Word, StreamHint::Unknown);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        assert!(matches!(
            vm.run(10),
            Err(VmError::OutOfRegion { addr: 0x40, .. })
        ));
    }

    #[test]
    fn sp_relative_overflow_is_a_stack_overflow() {
        use dda_isa::AluOp;
        let mut f = FunctionBuilder::new("main");
        // Drop $sp just past the 4 MB stack region and store there.
        f.load_imm(Gpr::T0, (4 << 20) + 16);
        f.alu(AluOp::Sub, Gpr::SP, Gpr::SP, Gpr::T0);
        f.store_local(Gpr::T0, 0);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        let limit = vm.program().layout().stack_limit();
        let err = vm.run(10).unwrap_err();
        assert_eq!(
            err,
            VmError::StackOverflow {
                pc: 2,
                addr: limit - 16,
                limit
            }
        );
        assert!(vm.is_halted());
    }

    #[test]
    fn guard_band_access_is_a_stack_overflow_even_without_sp() {
        let mut f = FunctionBuilder::new("main");
        let limit = MemoryLayoutProbe::limit();
        f.load_imm(Gpr::T0, (limit - 8) as i32);
        f.load(Gpr::T1, Gpr::T0, 0, MemWidth::Word, StreamHint::Unknown);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        assert!(matches!(vm.run(10), Err(VmError::StackOverflow { .. })));
    }

    /// The standard layout's stack limit, for building hostile addresses.
    struct MemoryLayoutProbe;
    impl MemoryLayoutProbe {
        fn limit() -> u32 {
            dda_program::MemoryLayout::standard().stack_limit()
        }
    }

    #[test]
    fn indirect_call_to_garbage_is_an_illegal_target() {
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 9999);
        f.call_reg(Gpr::T0);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        assert_eq!(
            vm.run(10),
            Err(VmError::IllegalTarget {
                pc: 1,
                target: 9999
            })
        );
        assert!(vm.is_halted());
    }

    #[test]
    fn return_to_clobbered_ra_is_an_illegal_target() {
        let mut main = FunctionBuilder::new("main");
        main.call("f");
        main.halt();
        let mut f = FunctionBuilder::new("f");
        f.load_imm(Gpr::RA, 1_000_000);
        f.ret();
        let mut vm = Vm::new(build(vec![main, f]));
        assert!(matches!(
            vm.run(10),
            Err(VmError::IllegalTarget {
                target: 1_000_000,
                ..
            })
        ));
    }

    #[test]
    fn return_without_call_is_an_error() {
        let mut f = FunctionBuilder::new("main");
        f.ret();
        let mut vm = Vm::new(build(vec![f]));
        assert!(matches!(
            vm.run(10),
            Err(VmError::ReturnWithoutCall { pc: 0 })
        ));
    }

    #[test]
    fn pc_escape_is_an_error() {
        let mut f = FunctionBuilder::new("main");
        f.nop(); // falls off the end
        let mut vm = Vm::new(build(vec![f]));
        assert!(matches!(vm.run(10), Err(VmError::PcOutOfRange { pc: 1 })));
    }

    #[test]
    fn halted_machine_steps_to_none() {
        let mut f = FunctionBuilder::new("main");
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        assert!(vm.step().unwrap().is_some());
        assert!(vm.step().unwrap().is_none());
        assert!(vm.is_halted());
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut f = FunctionBuilder::new("main");
        let top = f.new_label();
        f.bind(top);
        f.jump(top);
        let mut vm = Vm::new(build(vec![f]));
        let s = vm.run(1000).unwrap();
        assert_eq!(s.executed, 1000);
        assert!(!s.halted);
    }

    #[test]
    fn indirect_call_via_register() {
        let mut main = FunctionBuilder::new("main");
        main.load_imm(Gpr::T0, 3); // pc of "target" resolved below
        main.call_reg(Gpr::T0);
        main.halt();
        let mut target = FunctionBuilder::new("target");
        target.load_imm(Gpr::V0, 99);
        target.ret();
        let p = build(vec![main, target]);
        assert_eq!(p.symbol("target"), Some(3));
        let vm = run_to_halt(p);
        assert_eq!(vm.gpr(Gpr::V0), 99);
    }

    #[test]
    fn cloned_vm_is_a_checkpoint() {
        // Clone mid-run, then both copies must produce identical streams.
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        for i in 0..50 {
            f.load_imm(Gpr::T0, i);
            f.store_local(Gpr::T0, (i % 8) * 4);
            f.load_local(Gpr::T1, (i % 8) * 4);
        }
        f.addi(Gpr::SP, Gpr::SP, 32);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        vm.run(40).unwrap();
        let mut checkpoint = vm.clone();
        let rest_a: Vec<DynInst> = vm.stream().collect();
        let rest_b: Vec<DynInst> = checkpoint.stream().collect();
        assert!(!rest_a.is_empty());
        assert_eq!(rest_a, rest_b);
    }

    /// A program with loops, recursion, stack traffic and FP work — the
    /// state-coverage workhorse for the snapshot tests below.
    fn busy_program() -> Program {
        let mut main = FunctionBuilder::new("main");
        main.addi(Gpr::SP, Gpr::SP, -64);
        let top = main.new_label();
        main.load_imm(Gpr::T2, 20); // outer trip count
        main.bind(top);
        main.store_local(Gpr::T2, 8);
        main.load_imm(Gpr::A0, 5);
        main.call("fact");
        main.load_local(Gpr::T2, 8);
        main.int_to_fp(Fpr::F0, Gpr::V0);
        main.fpu(dda_isa::FpuOp::Add, Fpr::new(1), Fpr::new(1), Fpr::F0);
        main.fstore(Fpr::new(1), Gpr::SP, 16, StreamHint::Local);
        main.store(Gpr::V0, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
        main.addi(Gpr::T2, Gpr::T2, -1);
        main.branch(BranchCond::Gt, Gpr::T2, Gpr::ZERO, top);
        main.addi(Gpr::SP, Gpr::SP, 64);
        main.halt();

        let mut fact = FunctionBuilder::with_frame("fact", 8);
        let recurse = fact.new_label();
        fact.load_imm(Gpr::T0, 1);
        fact.branch(BranchCond::Gt, Gpr::A0, Gpr::T0, recurse);
        fact.load_imm(Gpr::V0, 1);
        fact.ret();
        fact.bind(recurse);
        fact.addi(Gpr::SP, Gpr::SP, -8);
        fact.store_local(Gpr::RA, 0);
        fact.store_local(Gpr::A0, 4);
        fact.addi(Gpr::A0, Gpr::A0, -1);
        fact.call("fact");
        fact.load_local(Gpr::RA, 0);
        fact.load_local(Gpr::A0, 4);
        fact.alu(AluOp::Mul, Gpr::V0, Gpr::V0, Gpr::A0);
        fact.addi(Gpr::SP, Gpr::SP, 8);
        fact.ret();

        build(vec![main, fact])
    }

    #[test]
    fn fast_forward_stops_exactly_on_the_boundary() {
        let p = Arc::new(busy_program());
        for n in [0u64, 1, 7, 63, 64, 65, 100, 130] {
            let mut vm = Vm::new(Arc::clone(&p));
            vm.fast_forward(n).unwrap();
            assert_eq!(vm.instructions_executed(), n, "budget {n} overshot");
            // And the post-stop stream matches a pure interpreter that
            // stepped the same distance.
            let mut interp = Vm::new(Arc::clone(&p));
            interp.run(n).unwrap();
            let a: Vec<DynInst> = vm.stream().take(20).collect();
            let b: Vec<DynInst> = interp.stream().take(20).collect();
            assert_eq!(a, b, "streams diverge after ff({n})");
        }
    }

    #[test]
    fn fast_forward_observer_sees_the_interpreter_stream() {
        let p = Arc::new(busy_program());
        let mut vm = Vm::new(Arc::clone(&p));
        let mut seen = Vec::new();
        vm.fast_forward_observed(150, |d| seen.push(*d)).unwrap();
        let mut interp = Vm::new(p);
        let expect: Vec<DynInst> = std::iter::from_fn(|| interp.step().unwrap())
            .take(150)
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn fast_forward_stops_at_halt_and_propagates_faults() {
        let p = Arc::new(busy_program());
        let mut vm = Vm::new(Arc::clone(&p));
        let s = vm.fast_forward(u64::MAX / 2).unwrap();
        assert!(s.halted);
        let mut interp = Vm::new(p);
        let full = interp.run(u64::MAX / 2).unwrap();
        assert_eq!(s.executed, full.executed);

        // A faulting program faults identically under fast-forward.
        let mut f = FunctionBuilder::new("main");
        f.nop();
        f.ret(); // return without call
        let prog = build(vec![f]);
        let mut vm = Vm::new(prog);
        assert_eq!(
            vm.fast_forward(10),
            Err(VmError::ReturnWithoutCall { pc: 1 })
        );
        assert!(vm.is_halted());
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let p = Arc::new(busy_program());
        let mut vm = Vm::new(Arc::clone(&p));
        vm.fast_forward(137).unwrap();
        let ck = vm.checkpoint(0x1111, 0x2222);
        assert_eq!(ck.key.inst_index, 137);

        // Serialize through bytes (the store path) and restore.
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        let mut restored = Vm::restore(Arc::clone(&p), &back).unwrap();

        // All the observable state matches...
        assert_eq!(restored.pc(), vm.pc());
        assert_eq!(restored.sp_version(), vm.sp_version());
        assert_eq!(restored.call_depth(), vm.call_depth());
        assert_eq!(restored.max_call_depth(), vm.max_call_depth());
        assert_eq!(restored.instructions_executed(), vm.instructions_executed());
        assert_eq!(restored.tcache_stats(), vm.tcache_stats());
        assert_eq!(
            restored.memory().resident_page_bytes().collect::<Vec<_>>(),
            vm.memory().resident_page_bytes().collect::<Vec<_>>()
        );
        // ...and so does the entire future: stream and cache counters.
        let a: Vec<DynInst> = vm.stream().collect();
        let b: Vec<DynInst> = restored.stream().collect();
        assert_eq!(a, b);
        let mut buf = Vec::new();
        let mut vm2 = Vm::restore(Arc::clone(&p), &back).unwrap();
        while vm2.step_block(&mut buf).is_none() && !vm2.is_halted() {}
        let mut cont = Vm::new(p);
        cont.fast_forward(137).unwrap();
        let mut buf2 = Vec::new();
        while cont.step_block(&mut buf2).is_none() && !cont.is_halted() {}
        assert_eq!(buf, buf2);
        assert_eq!(vm2.tcache_stats(), cont.tcache_stats());
    }

    #[test]
    fn restore_rejects_a_mismatched_program() {
        let p = Arc::new(busy_program());
        let mut vm = Vm::new(Arc::clone(&p));
        vm.fast_forward(100).unwrap();
        let ck = vm.checkpoint(1, 2);
        // A much shorter program cannot host the recipe's block starts.
        let mut f = FunctionBuilder::new("main");
        f.halt();
        let tiny = Arc::new(build(vec![f]));
        assert!(matches!(
            Vm::restore(tiny, &ck),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_without_tcache_restores_cleanly() {
        let p = Arc::new(busy_program());
        let mut vm = Vm::new(Arc::clone(&p));
        vm.run(50).unwrap(); // interpreter only — no tcache materialised
        let ck = vm.checkpoint(1, 2);
        assert!(!ck.has_tcache());
        let mut restored = Vm::restore(Arc::clone(&p), &ck).unwrap();
        let a: Vec<DynInst> = vm.stream().take(50).collect();
        let b: Vec<DynInst> = restored.stream().take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_iterator_ends_at_halt() {
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 1);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        assert_eq!(vm.stream().count(), 2);
        assert_eq!(vm.stream().count(), 0, "exhausted stream stays empty");
    }

    #[test]
    #[should_panic(expected = "functional execution error")]
    fn stream_iterator_panics_on_malformed_program() {
        let mut f = FunctionBuilder::new("main");
        f.ret(); // return without call
        let mut vm = Vm::new(build(vec![f]));
        let _ = vm.stream().count();
    }

    #[test]
    fn dyn_inst_sequence_and_next_pc() {
        let mut f = FunctionBuilder::new("main");
        let skip = f.new_label();
        f.load_imm(Gpr::T0, 1);
        f.bnez(Gpr::T0, skip); // taken
        f.nop(); // skipped
        f.bind(skip);
        f.halt();
        let mut vm = Vm::new(build(vec![f]));
        let recs: Vec<DynInst> = vm.stream().collect();
        assert_eq!(recs.len(), 3); // li, branch, halt — nop never executes
        assert_eq!(
            recs.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(recs[1].next_pc, 3); // branch taken over the nop
        assert_eq!(recs[2].pc, 3);
    }
}
