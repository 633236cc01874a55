//! The linked program image.

use std::collections::BTreeMap;

use dda_isa::Instr;

use crate::layout::MemoryLayout;

/// Metadata about one function in a linked [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionInfo {
    /// The function's symbolic name.
    pub name: String,
    /// First instruction (the entry point).
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Static frame size in bytes, as declared by the builder. This is the
    /// quantity averaged in the paper's §2.2.1 ("the average frame size of
    /// 4746 functions ... was only 7 words").
    pub frame_bytes: u32,
}

impl FunctionInfo {
    /// Static frame size in 4-byte words (rounded up).
    pub fn frame_words(&self) -> u32 {
        self.frame_bytes.div_ceil(4)
    }
}

/// A fully linked program: a flat instruction image, the entry pc, the data
/// [`MemoryLayout`], and per-function metadata.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) entry: u32,
    pub(crate) layout: MemoryLayout,
    pub(crate) functions: Vec<FunctionInfo>,
    pub(crate) symbols: BTreeMap<String, u32>,
}

impl Program {
    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside the image (the functional simulator treats
    /// running off the image as a program bug).
    #[inline]
    pub fn fetch(&self, pc: u32) -> Instr {
        self.instrs[pc as usize]
    }

    /// The instruction at `pc`, or `None` if out of range.
    #[inline]
    pub fn get(&self, pc: u32) -> Option<Instr> {
        self.instrs.get(pc as usize).copied()
    }

    /// Number of (static) instructions in the image.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the image contains no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The entry pc (start of `main`, or of the first function).
    #[inline]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The data-memory layout.
    #[inline]
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// All instructions, in pc order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Per-function metadata, in layout order.
    pub fn functions(&self) -> &[FunctionInfo] {
        &self.functions
    }

    /// Looks up the entry pc of a function by name.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The function containing `pc`, if any.
    pub fn function_at(&self, pc: u32) -> Option<&FunctionInfo> {
        // Functions are laid out contiguously in `start` order.
        let idx = self.functions.partition_point(|f| f.end <= pc);
        self.functions
            .get(idx)
            .filter(|f| f.start <= pc && pc < f.end)
    }

    /// Average static frame size in words across all functions — the
    /// paper's §2.2.1 static statistic.
    pub fn mean_static_frame_words(&self) -> f64 {
        if self.functions.is_empty() {
            return 0.0;
        }
        let total: u64 = self.functions.iter().map(|f| f.frame_words() as u64).sum();
        total as f64 / self.functions.len() as f64
    }

    /// A textual listing of the whole image (disassembly with function
    /// headers), mainly for debugging and documentation examples.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.functions {
            let _ = writeln!(out, "{}:  # frame {} bytes", f.name, f.frame_bytes);
            for pc in f.start..f.end {
                let _ = writeln!(out, "  {pc:6}: {}", self.instrs[pc as usize]);
            }
        }
        out
    }

    /// Emits the program as assembler source that re-[`assemble`]s to the
    /// same image — the round-trippable sibling of [`Program::listing`]
    /// (which is formatted for humans, not the parser).
    ///
    /// Functions are emitted in layout order with their `frame`
    /// declarations; all control targets are numeric absolute pcs, which
    /// the assembler accepts directly. The round trip is exact when the
    /// program follows the assembler's conventions: functions partition
    /// the image, the layout is [`MemoryLayout::standard`], the entry is
    /// `main` (or the first function), and unary FPU ops carry `ft == fs`
    /// (the normal form the parser produces). Programs from the builder,
    /// the assembler and the fuzz generator all satisfy these.
    ///
    /// [`assemble`]: crate::assemble
    /// [`MemoryLayout::standard`]: crate::MemoryLayout::standard
    pub fn to_asm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.functions {
            if f.frame_bytes == 0 {
                let _ = writeln!(out, "{}:", f.name);
            } else {
                let _ = writeln!(out, "{}: frame {}", f.name, f.frame_bytes);
            }
            for pc in f.start..f.end {
                let _ = writeln!(out, "    {}", self.instrs[pc as usize]);
            }
        }
        out
    }

    /// Static basic-block leader pre-scan.
    ///
    /// Returns one flag per instruction: `true` when the pc can begin a
    /// basic block under any *statically visible* control flow — the
    /// entry pc, every function start, every branch/jump/call target,
    /// the fall-through pc of every conditional branch, and the return
    /// site (`call pc + 1`) of every call (which is exactly the dynamic
    /// target set of the matching `ret`). Indirect-call and return
    /// targets that never appear statically are discovered at run time
    /// by the translation cache; splitting on static leaders here keeps
    /// dynamically discovered blocks from overlapping already-decoded
    /// ones, so each static region is decoded at most once.
    pub fn leaders(&self) -> Vec<bool> {
        let mut leaders = vec![false; self.instrs.len()];
        let mut mark = |pc: u32| {
            if let Some(l) = leaders.get_mut(pc as usize) {
                *l = true;
            }
        };
        mark(self.entry);
        for f in &self.functions {
            mark(f.start);
        }
        for (pc, i) in self.instrs.iter().enumerate() {
            let pc = pc as u32;
            match *i {
                Instr::Branch { target, .. } => {
                    mark(target);
                    mark(pc + 1);
                }
                Instr::Jump { target } => mark(target),
                Instr::Call { target } => {
                    mark(target);
                    mark(pc + 1);
                }
                Instr::CallReg { .. } => mark(pc + 1),
                // `Ret` targets are return sites, marked at their call;
                // the pc after a `ret`/`jump`/`halt` starts a new block
                // only if something statically reaches it.
                _ => {}
            }
        }
        leaders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use dda_isa::{Gpr, MemWidth, StreamHint};

    fn two_function_program() -> Program {
        let mut main = FunctionBuilder::new("main");
        main.load_imm(Gpr::T0, 1);
        main.call("f");
        main.halt();
        let mut f = FunctionBuilder::with_frame("f", 16);
        f.store(Gpr::T0, Gpr::SP, 0, MemWidth::Word, StreamHint::Local);
        f.ret();
        let mut b = ProgramBuilder::new();
        b.add_function(main);
        b.add_function(f);
        b.build().unwrap()
    }

    #[test]
    fn function_lookup_by_pc() {
        let p = two_function_program();
        assert_eq!(p.function_at(0).unwrap().name, "main");
        assert_eq!(p.function_at(2).unwrap().name, "main");
        assert_eq!(p.function_at(3).unwrap().name, "f");
        assert_eq!(p.function_at(4).unwrap().name, "f");
        assert!(p.function_at(99).is_none());
    }

    #[test]
    fn symbols_and_entry() {
        let p = two_function_program();
        assert_eq!(p.symbol("main"), Some(0));
        assert_eq!(p.symbol("f"), Some(3));
        assert_eq!(p.symbol("missing"), None);
        assert_eq!(p.entry(), 0);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
    }

    #[test]
    fn static_frame_statistics() {
        let p = two_function_program();
        // main has frame 0, f has frame 16 bytes = 4 words.
        assert_eq!(p.functions()[1].frame_words(), 4);
        assert!((p.mean_static_frame_words() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn leader_scan_marks_static_control_flow() {
        // main:  0 li, 1 jal f, 2 halt      f: 3 sw, 4 ret
        let p = two_function_program();
        let l = p.leaders();
        assert_eq!(l.len(), 5);
        assert!(l[0], "entry/function start");
        assert!(!l[1], "middle of main");
        assert!(l[2], "return site of the call");
        assert!(l[3], "call target / function start");
        assert!(!l[4], "middle of f");
    }

    #[test]
    fn leader_scan_marks_branch_targets_and_fall_through() {
        use crate::builder::FunctionBuilder;
        use dda_isa::BranchCond;
        let mut f = FunctionBuilder::new("main");
        let top = f.new_label();
        f.load_imm(Gpr::T0, 3); // 0
        f.bind(top); // 1
        f.addi(Gpr::T0, Gpr::T0, -1); // 1
        f.branch(BranchCond::Gt, Gpr::T0, Gpr::ZERO, top); // 2
        f.halt(); // 3
        let mut b = ProgramBuilder::new();
        b.add_function(f);
        let p = b.build().unwrap();
        let l = p.leaders();
        assert!(l[0], "entry");
        assert!(l[1], "branch target");
        assert!(!l[2], "branch itself is not a leader");
        assert!(l[3], "branch fall-through");
    }

    #[test]
    fn listing_contains_function_names() {
        let p = two_function_program();
        let l = p.listing();
        assert!(l.contains("main:"));
        assert!(l.contains("f:"));
        assert!(l.contains("jal"));
    }
}
