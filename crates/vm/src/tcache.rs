//! The basic-block translation cache.
//!
//! Blocks are discovered at first execution: when replay reaches a pc
//! with no decoded block, the cache decodes from that pc to the next
//! control transfer (or static leader, or the length cap) exactly once
//! and replays the pre-decoded micro-op trace from then on. The leader
//! set comes from the static pre-scan ([`Program::leaders`]); pcs only
//! reachable dynamically (indirect-call targets) become block starts the
//! first time control actually arrives there.
//!
//! Programs are immutable (`Arc<Program>`), so there is no invalidation:
//! a decoded block and every resolved successor link stay valid for the
//! life of the machine.

use dda_program::Program;

use crate::block::{Block, MicroOp, Terminator, MAX_BLOCK_OPS, NO_BLOCK};

/// Counters describing translation-cache behaviour.
///
/// `blocks_replayed` counts block executions (including partial replays
/// cut short by a fault); `blocks_decoded` counts decode-once events, so
/// the [hit rate](TCacheStats::hit_rate) is the fraction of block
/// executions that never touched the decoder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TCacheStats {
    /// Blocks decoded (each static region is decoded at most once).
    pub blocks_decoded: u64,
    /// Micro-ops materialised by the decoder (terminators included).
    pub ops_decoded: u64,
    /// Block executions through the replay loop.
    pub blocks_replayed: u64,
    /// Dynamic instructions emitted by the replay loop.
    pub ops_replayed: u64,
    /// Successor resolutions served by an inline-cached link (or the
    /// machine's chained block hint) without consulting the pc map.
    pub inline_hits: u64,
    /// Successor resolutions that fell back to the pc map.
    pub map_lookups: u64,
}

impl TCacheStats {
    /// Fraction of block executions served without decoding.
    pub fn hit_rate(&self) -> f64 {
        if self.blocks_replayed == 0 {
            0.0
        } else {
            1.0 - self.blocks_decoded as f64 / self.blocks_replayed as f64
        }
    }
}

/// The translation cache of one [`crate::Vm`].
#[derive(Clone, Debug)]
pub(crate) struct TCache {
    /// pc → block id, dense over the program image ([`NO_BLOCK`] = not
    /// yet translated). Only block *start* pcs are registered.
    map: Vec<u32>,
    /// Decoded block headers.
    pub(crate) blocks: Vec<Block>,
    /// Flat micro-op array; blocks hold `(index, len)` ranges into it.
    pub(crate) ops: Vec<MicroOp>,
    /// Static leader flags from [`Program::leaders`].
    leaders: Vec<bool>,
    pub(crate) stats: TCacheStats,
}

impl TCache {
    pub fn new(program: &Program) -> TCache {
        TCache {
            map: vec![NO_BLOCK; program.len()],
            blocks: Vec::new(),
            ops: Vec::new(),
            leaders: program.leaders(),
            stats: TCacheStats::default(),
        }
    }

    /// The block starting at `pc`, decoding it on first use.
    ///
    /// `pc` must be inside the program image (the replay loop checks
    /// before calling, so an out-of-image pc faults as `PcOutOfRange`
    /// exactly where the interpreter would).
    pub fn block_at(&mut self, program: &Program, pc: u32) -> u32 {
        self.stats.map_lookups += 1;
        let id = self.map[pc as usize];
        if id != NO_BLOCK {
            return id;
        }
        self.decode_block(program, pc)
    }

    fn decode_block(&mut self, program: &Program, start: u32) -> u32 {
        let instrs = program.instrs();
        let image_len = instrs.len() as u32;
        let ops_start = self.ops.len() as u32;
        let mut pc = start;
        let (term_pc, term_instr, term) = loop {
            let instr = instrs[pc as usize];
            match Terminator::decode(pc, instr, image_len) {
                Some(t) => break (pc, instr, t),
                None => {
                    // Straight-line ops always decode to Some: decode
                    // returns None exactly when Terminator::decode
                    // returns Some.
                    if let Some(op) = MicroOp::decode(pc, instr) {
                        self.ops.push(op);
                    }
                }
            }
            pc += 1;
            let len = self.ops.len() as u32 - ops_start;
            if pc >= image_len || self.leaders[pc as usize] || len as usize >= MAX_BLOCK_OPS {
                // The next pc starts a different block (or leaves the
                // image): chain to it without a terminator instruction.
                break (pc, dda_isa::Instr::Nop, Terminator::FallThrough);
            }
        };
        let len = self.ops.len() as u32 - ops_start;
        let id = self.blocks.len() as u32;
        self.blocks.push(Block {
            start,
            ops: (ops_start, len),
            term,
            term_pc,
            term_instr,
            succ: [NO_BLOCK; 2],
            dyn_succ: (u32::MAX, NO_BLOCK),
        });
        self.map[start as usize] = id;
        self.stats.blocks_decoded += 1;
        self.stats.ops_decoded += len as u64
            + if matches!(term, Terminator::FallThrough) {
                0
            } else {
                1
            };
        id
    }
}
