//! The cycle-stepped out-of-order pipeline.
//!
//! Stage order within a cycle follows `sim-outorder` (reverse pipeline
//! order, so information produced in cycle *t* is consumed in *t + 1*):
//!
//! 1. **commit** — retire completed instructions in order; stores access
//!    their data cache here (claiming a port, possibly combining);
//! 2. **writeback** — functional-unit and cache completions land; wake
//!    dependents;
//! 3. **memory scheduling** — fast data forwarding, then per-queue load
//!    launch with disambiguation, store→load forwarding and access
//!    combining;
//! 4. **issue** — select ready instructions oldest-first onto functional
//!    units (memory instructions issue their address generation here);
//! 5. **dispatch** — rename the next instructions of the dynamic stream
//!    into the ROB and the memory queues, steering each memory access to
//!    the LSQ or the LVAQ.
//!
//! The front-end is perfect (Table 1), so dispatch consumes the
//! architectural stream directly from the functional simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use dda_isa::{FuClass, Instr};
use dda_mem::{Hierarchy, HierarchyTags, PortMeter};
use dda_program::Program;
use dda_vm::{DynInst, TCacheStats, Vm, VmError};

use crate::classify::Classifier;
use crate::config::{FuCounts, MachineConfig};
use crate::diag::{DiagnosticDump, HeadMemSnapshot, HeadSnapshot, RetiredPcRing};
use crate::entry::{DepKind, Dependent, MemState, Rob, RobEntry};
use crate::error::{InvariantViolation, SimError, Trap};
use crate::fault::FaultState;
use crate::fu::FuPools;
use crate::queue::MemQueue;
use crate::result::{QueueStats, SimResult, WindowRun};
use crate::trace::{InstrTrace, MemPath, Tracer};

mod reference;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EvKind {
    AddrReady,
    Complete,
    /// Fast kernel only: a memory entry's penalty-delayed address becomes
    /// *effective* at this cycle — re-arm the entry (and, for stores, the
    /// loads blocked on it) for re-examination. A pure scheduling hint:
    /// it carries no architectural state change, so it may legally
    /// outlive its ROB entry (e.g. a load that fast-forwarded and retired
    /// inside its own penalty window).
    MemWake,
}

type Ev = (u64, u64, usize, EvKind); // (cycle, uid, slot, kind)

/// Calendar wheel of pending writeback events.
///
/// Event horizons are short (functional-unit and cache latencies), so a
/// power-of-two ring of per-cycle buckets replaces a binary heap: O(1)
/// insertion, and each cycle drains exactly one bucket. The drained batch
/// is sorted into the heap's `(cycle, uid, slot, kind)` pop order, which
/// the writeback loop relies on. The ring doubles on the rare event
/// scheduled beyond the current horizon.
struct EventWheel {
    buckets: Vec<Vec<Ev>>,
    pending: usize,
}

impl EventWheel {
    fn new() -> EventWheel {
        EventWheel {
            buckets: (0..64).map(|_| Vec::new()).collect(),
            pending: 0,
        }
    }

    #[inline]
    fn push(&mut self, now: u64, ev: Ev) {
        // Strictly-future times keep bucket indices unambiguous: every
        // resident of a bucket is due within one full ring revolution.
        debug_assert!(ev.0 > now, "event scheduled in the past");
        while ev.0 - now >= self.buckets.len() as u64 {
            self.grow();
        }
        let idx = (ev.0 as usize) & (self.buckets.len() - 1);
        self.buckets[idx].push(ev);
        self.pending += 1;
    }

    /// Doubles the horizon, redistributing buffered events.
    #[cold]
    fn grow(&mut self) {
        let cap = self.buckets.len() * 2;
        let mut next: Vec<Vec<Ev>> = (0..cap).map(|_| Vec::new()).collect();
        for b in &mut self.buckets {
            for ev in b.drain(..) {
                next[(ev.0 as usize) & (cap - 1)].push(ev);
            }
        }
        self.buckets = next;
    }

    /// Appends the events due exactly at `now` to `out` (bucket order,
    /// i.e. unsorted).
    #[inline]
    fn drain_due(&mut self, now: u64, out: &mut Vec<Ev>) {
        let idx = (now as usize) & (self.buckets.len() - 1);
        let b = &mut self.buckets[idx];
        self.pending -= b.len();
        out.append(b);
    }
}

/// The access-combining seed of the current cycle: (cycle, in_lvaq,
/// is_store, line key = ($sp version, offset / line size), queue sequence
/// number of the port-claiming leader).
type CombineSeed = (u64, bool, bool, (u64, i32), u64);

/// Indices into the class-split issue-candidate lists.
const READY_FU: usize = 0;
const READY_LSQ: usize = 1;
const READY_LVAQ: usize = 2;

/// Which ready list an entry lives on — fixed at dispatch (memory-ness
/// and queue side never change over an entry's lifetime).
#[inline]
fn ready_class(mem: Option<&MemState>) -> usize {
    match mem {
        None => READY_FU,
        Some(m) if m.in_lvaq => READY_LVAQ,
        Some(_) => READY_LSQ,
    }
}

/// Per-cycle resource-exhaustion latches for the fast kernel's issue
/// walk. Within one cycle both kinds of resource are monotone — port
/// claims and unit issues only consume, nothing frees until the next
/// cycle's roll — so one refusal means every later ask this cycle would
/// be refused too, and the walk can skip the re-ask.
#[derive(Default)]
struct IssueLatches {
    /// Port meters, `[l1, lvc]`: a latched queue takes its port-stall
    /// charge without re-asking the meter.
    port: [bool; 2],
    /// Functional-unit pools by [`FuCounts::pool_of`] index: a latched
    /// pool's candidates are skipped without any charge, exactly like
    /// the reference walk's failed pool scan.
    pool: [bool; 4],
}

/// The simulator: builds a machine from a [`MachineConfig`] and runs
/// programs on it.
#[derive(Clone, Debug)]
pub struct Simulator {
    cfg: MachineConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the configuration fails
    /// [`MachineConfig::validate`] — a structurally invalid machine is
    /// rejected here, before any run starts.
    pub fn new(cfg: MachineConfig) -> Result<Simulator, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        Ok(Simulator { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Runs `program` until it halts or `max_instructions` have been
    /// committed, whichever is first.
    ///
    /// # Errors
    ///
    /// A malformed workload degrades to a structured per-run failure:
    ///
    /// * [`SimError::Trap`] — the program raised an architectural fault
    ///   (misaligned or unmapped access, stack overflow, illegal control
    ///   transfer, pc escape), wrapped with the cycle and commit count at
    ///   which the front-end saw it;
    /// * [`SimError::Deadlock`] — no instruction committed for
    ///   `deadlock_cycles` cycles; the error carries a full
    ///   [`DiagnosticDump`] of the wedged pipeline;
    /// * [`SimError::InvariantViolation`] — the cycle-by-cycle auditor
    ///   (enabled by [`MachineConfig::with_audit`], on by default in
    ///   debug builds) caught a broken scheduler invariant.
    pub fn run(&self, program: &Program, max_instructions: u64) -> Result<SimResult, SimError> {
        self.run_shared(Arc::new(program.clone()), max_instructions)
    }

    /// Like [`Simulator::run`] but borrowing an already-shared program
    /// image: the `Arc` is handed to the functional simulator as-is, so a
    /// configuration sweep (or repeated runs of one workload) never clones
    /// the program.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run`].
    pub fn run_shared(
        &self,
        program: Arc<Program>,
        max_instructions: u64,
    ) -> Result<SimResult, SimError> {
        let mut core = Core::new(&self.cfg, Vm::new(program), None);
        core.run(max_instructions)
    }

    /// Like [`Simulator::run_shared`], additionally returning the
    /// translation-cache counters of the run's front-end.
    ///
    /// The counters live outside [`SimResult`] on purpose: they describe
    /// the simulator's own front-end machinery, not the modelled machine,
    /// and the fast-vs-reference bit-identity checks compare `SimResult`s
    /// directly (the reference kernel interprets instruction by
    /// instruction, so its counters are all zero).
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run`].
    pub fn run_shared_detailed(
        &self,
        program: Arc<Program>,
        max_instructions: u64,
    ) -> Result<(SimResult, TCacheStats), SimError> {
        let mut core = Core::new(&self.cfg, Vm::new(program), None);
        let res = core.run(max_instructions)?;
        let tcache = core.vm.tcache_stats();
        Ok((res, tcache))
    }

    /// Like [`Simulator::run`], additionally recording an [`InstrTrace`]
    /// for each of the first `trace_limit` dispatched instructions.
    ///
    /// ```
    /// use dda_core::{MachineConfig, Simulator};
    /// use dda_program::assemble;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let program = assemble("main:\n    li $t0, 1\n    halt\n")?;
    /// let sim = Simulator::new(MachineConfig::iscapaper_base())?;
    /// let (result, traces) = sim.run_traced(&program, 100, 100)?;
    /// assert_eq!(traces.len(), result.committed as usize);
    /// println!("{}", traces[0].render());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run`].
    pub fn run_traced(
        &self,
        program: &Program,
        max_instructions: u64,
        trace_limit: u64,
    ) -> Result<(SimResult, Vec<InstrTrace>), SimError> {
        let mut core = Core::new(
            &self.cfg,
            Vm::new(program.clone()),
            Some(Tracer::new(trace_limit)),
        );
        let res = core.run(max_instructions)?;
        let records = match core.tracer.take() {
            Some(tr) => tr.into_records(),
            None => unreachable!("tracer installed above"),
        };
        Ok((res, records))
    }

    /// Runs a detailed measurement window from a positioned [`Vm`] — the
    /// hand-off point of a fast-forwarded or checkpoint-restored machine:
    /// a warm-up prefix of `warmup_insts` commits (simulated in full
    /// detail but discarded from the window statistics), then
    /// `window_insts` measured commits. The pipeline starts cold; optional
    /// `tags` import functionally-warmed cache-tag state into the
    /// hierarchy first. Two calls with bit-identical `vm` states produce
    /// bit-identical results. The warm-up boundary is quantized by
    /// the wide commit stage — the prefix ends at the first commit-stage
    /// boundary at or after `warmup_insts`, so the measured window may be
    /// up to commit-width − 1 instructions short of `window_insts`; use
    /// `window.committed`, not the request, as the denominator.
    ///
    /// The returned [`WindowRun`] carries both the whole run (`total`)
    /// and the carved-out window (`window`). The marking machinery never
    /// perturbs the simulation: `total` is bit-identical to an unmarked
    /// run (`warmup_insts == 0`) of the same budget.
    ///
    /// # Errors
    ///
    /// [`SimError::WarmStateMismatch`] when `tags` does not fit this
    /// machine's hierarchy (LVC presence or any cache geometry differs);
    /// otherwise as for [`Simulator::run`].
    pub fn run_window(
        &self,
        vm: Vm,
        tags: Option<&HierarchyTags>,
        warmup_insts: u64,
        window_insts: u64,
    ) -> Result<WindowRun, SimError> {
        let mut core = Core::new(&self.cfg, vm, None);
        if let Some(t) = tags {
            if !core.hier.import_tags(t) {
                return Err(SimError::WarmStateMismatch);
            }
        }
        let budget = warmup_insts.saturating_add(window_insts);
        if warmup_insts == 0 {
            let total = core.run(budget)?;
            let window = total.clone();
            return Ok(WindowRun { total, window });
        }
        let (total, at_mark) = core.run_marked(budget, Some(warmup_insts))?;
        let window = match &at_mark {
            Some(m) => total.delta(m),
            // Halted inside the warm-up prefix: no measured work.
            None => total.delta(&total),
        };
        Ok(WindowRun { total, window })
    }
}

/// Per-pc static decode memo for the dispatch stage: FU class, defined
/// register, and source operands are a function of the static
/// instruction alone, so they are resolved once per program here instead
/// of once per dynamic instance. Register slots hold unified indices into
/// the rename table, [`NO_REG`] for none.
#[derive(Clone, Copy)]
struct SDec {
    fu: FuClass,
    def: u16,
    uses: [u16; 3],
}

/// "No register" sentinel in [`SDec`] slots.
const NO_REG: u16 = u16::MAX;

impl SDec {
    fn of(instr: &Instr) -> SDec {
        let uses = instr.uses();
        SDec {
            fu: instr.fu_class(),
            def: instr.def().map_or(NO_REG, |r| r.unified_index() as u16),
            uses: std::array::from_fn(|k| uses[k].map_or(NO_REG, |r| r.unified_index() as u16)),
        }
    }
}

struct Core<'c> {
    cfg: &'c MachineConfig,
    vm: Vm,
    rob: Rob,
    rename: Vec<Option<(usize, u64)>>,
    /// Static decode memo indexed by pc.
    sdec: Vec<SDec>,
    lsq: MemQueue,
    lvaq: MemQueue,
    fus: FuPools,
    hier: Hierarchy,
    l1_ports: PortMeter,
    lvc_ports: Option<PortMeter>,
    classifier: Classifier,
    events: EventWheel,
    /// The reference kernel's event queue: a binary heap, an algorithm
    /// independent of the fast kernel's wheel.
    events_heap: BinaryHeap<Reverse<Ev>>,
    /// Scratch buffer for the current cycle's event batch (capacity kept
    /// across cycles).
    wb_batch: Vec<Ev>,
    /// Flat per-occupancy-value counters, flushed into the result
    /// histograms once at the end of the run (a map insert per cycle is
    /// measurable at simulation rates).
    occ_lsq: Vec<u64>,
    occ_lvaq: Vec<u64>,
    /// Dispatch ring: dynamic instructions pre-pulled from the VM by
    /// [`Core::fill_ring`], drained front to back.
    inst_ring: Vec<DynInst>,
    /// Index of the next undelivered record in `inst_ring`.
    ring_head: usize,
    /// A [`VmError`] raised while refilling the ring, held back until the
    /// ring drains: the instructions ahead of the fault are real, and the
    /// trap must surface at exactly the dispatch pull where the
    /// interpreter would have faulted.
    ring_err: Option<VmError>,
    dispatched: u64,
    issue_combine: Option<CombineSeed>,
    /// `log2` of the LVC line size — combining's line key uses a shift
    /// instead of a division (line sizes are validated powers of two).
    lvc_line_shift: u32,
    lsq_seq: u64,
    lvaq_seq: u64,
    /// Issue candidates — entries whose operands have all resolved but
    /// which have not issued — as `(uid, slot)` sorted by uid, split by
    /// issue resource class (`ReadyClass`): LSQ memory ops, LVAQ memory
    /// ops, everything else. Dispatch order makes uid monotone with age,
    /// so a three-way merge walk oldest-first selects exactly like the
    /// full ROB walk — and once a queue's port meter is exhausted for
    /// the cycle, the rest of that class can be charged its port stalls
    /// without touching the ROB at all. Unused (left empty) under the
    /// reference kernel.
    ready: [Vec<(u64, usize)>; 3],
    /// Entries that became ready since the last issue pass (woken at
    /// writeback or dispatched with no pending producers); merged into
    /// `ready` by uid at the start of issue().
    newly_ready: [Vec<(u64, usize)>; 3],
    /// Per-queue wakeup worklists of the event-driven memory scheduler
    /// (fast kernel): `(queue ordinal, slot, uid)` of primary loads that
    /// may have become actionable since their last examination — their
    /// address turned effective, a store they were blocked on changed, or
    /// a refused cache access wants a retry. Sorted and deduplicated at
    /// the top of `memory_schedule`, so examination order is queue age
    /// order, exactly the reference walk's order. A cycle with no memory
    /// event leaves both lists empty and does zero queue work.
    lsq_wake: Vec<(u64, usize, u64)>,
    lvaq_wake: Vec<(u64, usize, u64)>,
    /// Double buffers for the wake lists, swapped in each scheduling
    /// pass so wakes pushed *during* a pass land in the next cycle's
    /// list without reallocating.
    lsq_wake_spare: Vec<(u64, usize, u64)>,
    lvaq_wake_spare: Vec<(u64, usize, u64)>,
    /// Recycled waiter vectors (see [`MemState::waiters`]), pooled like
    /// `dep_pool`.
    waiter_pool: Vec<Vec<(usize, u64)>>,
    /// Recycled `dependents` vectors: dispatch draws from here and
    /// retire/writeback return emptied vectors, so steady-state execution
    /// performs no per-instruction heap traffic.
    dep_pool: Vec<Vec<Dependent>>,
    /// Recycled [`MemState`] boxes (both kernels): retire returns them,
    /// dispatch reuses them, so memory instructions allocate only until
    /// the pool warms up to the peak number in flight (≤ ROB size).
    // The boxes themselves are the pooled resource — they move into
    // `RobEntry::mem` unchanged, so `Vec<MemState>` would re-allocate
    // on every dispatch.
    #[allow(clippy::vec_box)]
    mem_pool: Vec<Box<MemState>>,
    tracer: Option<Tracer>,
    /// The fault injector; `None` under [`crate::FaultPlan::none`], so the
    /// fault-free path costs one branch per hook.
    faults: Option<FaultState>,
    /// The last few retired pcs, kept for the diagnostic dump.
    retired_pcs: RetiredPcRing,
    cycle: u64,
    halted: bool,
    last_commit_cycle: u64,
    // Per-cycle store-combining run at commit: (in_lvaq, line, run length).
    // Per-cycle load-combining at launch is tracked locally.
    res: SimResult,
}

impl<'c> Core<'c> {
    fn new(cfg: &'c MachineConfig, vm: Vm, tracer: Option<Tracer>) -> Core<'c> {
        let hier = Hierarchy::new(cfg.hierarchy);
        let sdec = vm.program().instrs().iter().map(SDec::of).collect();
        Core {
            vm,
            rob: Rob::new(cfg.rob_size),
            rename: vec![None; dda_isa::Reg::UNIFIED_COUNT],
            sdec,
            lsq: MemQueue::with_capacity(cfg.lsq_size),
            lvaq: MemQueue::with_capacity(cfg.decoupling.lvaq_size),
            fus: FuPools::new(cfg.fu_counts, cfg.latencies.clone()),
            l1_ports: PortMeter::new(cfg.hierarchy.l1.ports),
            lvc_ports: cfg.hierarchy.lvc.map(|c| PortMeter::new(c.ports)),
            classifier: Classifier::new(cfg.decoupling.steer),
            events: EventWheel::new(),
            events_heap: BinaryHeap::new(),
            wb_batch: Vec::new(),
            occ_lsq: vec![0; cfg.lsq_size + 1],
            occ_lvaq: vec![0; cfg.decoupling.lvaq_size + 1],
            // One basic block per refill; blocks are capped well below
            // this, so the ring never reallocates.
            inst_ring: Vec::with_capacity(72),
            ring_head: 0,
            ring_err: None,
            dispatched: 0,
            issue_combine: None,
            lvc_line_shift: cfg
                .hierarchy
                .lvc
                .map(|c| c.line_bytes)
                .unwrap_or(32)
                .trailing_zeros(),
            lsq_seq: 0,
            lvaq_seq: 0,
            ready: std::array::from_fn(|_| Vec::with_capacity(cfg.rob_size)),
            newly_ready: std::array::from_fn(|_| Vec::with_capacity(cfg.rob_size)),
            lsq_wake: Vec::with_capacity(cfg.lsq_size),
            lvaq_wake: Vec::with_capacity(cfg.decoupling.lvaq_size),
            lsq_wake_spare: Vec::with_capacity(cfg.lsq_size),
            lvaq_wake_spare: Vec::with_capacity(cfg.decoupling.lvaq_size),
            waiter_pool: Vec::new(),
            dep_pool: Vec::with_capacity(cfg.rob_size),
            mem_pool: Vec::with_capacity(cfg.rob_size),
            tracer,
            faults: FaultState::from_plan(cfg.fault_plan),
            retired_pcs: RetiredPcRing::new(),
            cycle: 0,
            halted: false,
            last_commit_cycle: 0,
            res: SimResult {
                cycles: 0,
                committed: 0,
                halted: false,
                stall_rob_full: 0,
                stall_lsq_full: 0,
                stall_lvaq_full: 0,
                misclassifications: 0,
                lsq: QueueStats::default(),
                lvaq: QueueStats::default(),
                l1: Default::default(),
                lvc: None,
                l2: Default::default(),
                load_latency_sum: 0,
                load_latency_count: 0,
                faults: Default::default(),
            },
            hier,
            cfg,
        }
    }

    fn trace(&mut self, slot: usize, f: impl FnOnce(&mut InstrTrace)) {
        if let Some(tr) = &mut self.tracer {
            let uid = self.rob.get(slot).uid;
            tr.with(uid, f);
        }
    }

    /// Enqueues an event. `uid` must be the current uid of `slot` —
    /// every call site already holds the entry, so re-reading the ROB
    /// here would be a wasted random access on the hot path.
    #[inline]
    fn schedule(&mut self, cycle: u64, uid: u64, slot: usize, kind: EvKind) {
        debug_assert_eq!(uid, self.rob.get(slot).uid);
        if self.cfg.reference_kernel {
            self.events_heap.push(Reverse((cycle, uid, slot, kind)));
        } else {
            self.events.push(self.cycle, (cycle, uid, slot, kind));
        }
    }

    fn run(&mut self, max_instructions: u64) -> Result<SimResult, SimError> {
        self.run_marked(max_instructions, None).map(|(res, _)| res)
    }

    /// Runs like [`Core::run`], additionally snapshotting the statistics
    /// the first time the commit count reaches `mark`. The snapshot is
    /// taken between the commit stage and every later stage of that
    /// cycle, so `final.delta(&snapshot)` is exactly the work after the
    /// marked commit — and the marking itself never perturbs the
    /// simulation ([`Core::flush_occupancy`] drains, so the final result
    /// is bit-identical with or without a mark).
    fn run_marked(
        &mut self,
        max_instructions: u64,
        mark: Option<u64>,
    ) -> Result<(SimResult, Option<SimResult>), SimError> {
        let mut at_mark: Option<SimResult> = None;
        loop {
            self.commit();
            if let Some(m) = mark {
                if at_mark.is_none() && self.res.committed >= m {
                    at_mark = Some(self.snapshot_result());
                }
            }
            if self.done(max_instructions) {
                break;
            }
            // The kernel is chosen here, once per cycle; commit, dispatch,
            // the auditor and the watchdog are shared.
            if self.cfg.reference_kernel {
                self.reference_stages(max_instructions)?;
            } else {
                self.writeback();
                self.memory_schedule();
                self.issue();
                self.dispatch(max_instructions)?;
                self.sample_occupancy();
            }
            if self.cfg.audit {
                if let Some(what) = self.audit_cycle() {
                    return Err(SimError::InvariantViolation(Box::new(InvariantViolation {
                        what,
                        dump: self.diagnostic_dump(0),
                    })));
                }
            }
            if self.cycle - self.last_commit_cycle > self.cfg.deadlock_cycles {
                return Err(SimError::Deadlock(Box::new(
                    self.diagnostic_dump(self.cfg.deadlock_cycles),
                )));
            }
            self.cycle += 1;
        }
        Ok((self.snapshot_result(), at_mark))
    }

    /// Assembles the statistics as of now into a [`SimResult`]. Safe to
    /// call mid-run: occupancy counters are drained (not copied), and
    /// everything else is read-only against the simulation state.
    fn snapshot_result(&mut self) -> SimResult {
        self.flush_occupancy();
        let mut res = self.res.clone();
        res.cycles = self.cycle.max(1);
        res.halted = self.halted;
        res.l1 = self.hier.l1_stats();
        res.lvc = self.hier.lvc_stats();
        res.l2 = self.hier.l2_stats();
        if let Some(f) = &self.faults {
            res.faults = f.stats;
            res.faults.flips_evicted = self.hier.poison_evictions();
            res.faults.flips_latent = self.hier.poisoned_lines() as u64;
        }
        res
    }

    /// Wraps a functional-execution fault with the timing context at
    /// which the front-end saw it.
    fn trap(&self, e: VmError) -> SimError {
        SimError::Trap(Trap {
            kind: e,
            cycle: self.cycle,
            committed: self.res.committed,
        })
    }

    /// Snapshots the pipeline for a watchdog or auditor error.
    fn diagnostic_dump(&self, watchdog_window: u64) -> DiagnosticDump {
        let head = self.rob.head_slot().map(|s| {
            let e = self.rob.get(s);
            HeadSnapshot {
                uid: e.uid,
                seq: e.d.seq,
                pc: e.d.pc,
                instr: e.d.instr,
                issued: e.issued,
                completed: e.completed,
                waiting: e.waiting,
                mem: e.mem.as_ref().map(|m| HeadMemSnapshot {
                    in_lvaq: m.in_lvaq,
                    is_store: m.is_store,
                    addr: m.addr,
                    addr_ready_at: m.addr_ready_at,
                    data_ready_at: m.data_ready_at,
                    launched: m.launched,
                    replicated: m.replicated,
                }),
            }
        });
        DiagnosticDump {
            cycle: self.cycle,
            committed: self.res.committed,
            dispatched: self.dispatched,
            watchdog_window,
            deadlock_window: self.cfg.deadlock_cycles,
            rob_len: self.rob.len(),
            rob_cap: self.cfg.rob_size,
            lsq_len: self.lsq.len(),
            lsq_cap: self.cfg.lsq_size,
            lvaq_len: self.lvaq.len(),
            lvaq_cap: self.cfg.decoupling.lvaq_size,
            pending_events: self.events.pending + self.events_heap.len(),
            l1_port_stalls: self.res.lsq.port_stall_cycles,
            lvc_port_stalls: self.res.lvaq.port_stall_cycles,
            head,
            recent_pcs: self.retired_pcs.snapshot(),
        }
    }

    /// The invariant auditor: cross-checks queue/ROB consistency, queue
    /// age order, and the store index once per cycle (when
    /// `MachineConfig::audit` is on). Returns a description of the first
    /// violated invariant. Pure observation — auditing never changes the
    /// simulation.
    fn audit_cycle(&self) -> Option<String> {
        if self.lsq.len() > self.cfg.lsq_size {
            return Some(format!(
                "LSQ over capacity: {} > {}",
                self.lsq.len(),
                self.cfg.lsq_size
            ));
        }
        if self.lvaq.len() > self.cfg.decoupling.lvaq_size {
            return Some(format!(
                "LVAQ over capacity: {} > {}",
                self.lvaq.len(),
                self.cfg.decoupling.lvaq_size
            ));
        }
        for (name, q, here) in [("LSQ", &self.lsq, false), ("LVAQ", &self.lvaq, true)] {
            let mut prev: Option<u64> = None;
            let mut resident_stores = 0usize;
            for i in 0..q.len() {
                let slot = q.slot_at(i);
                if !self.rob.is_alive(slot) {
                    return Some(format!(
                        "{name} position {i} references dead ROB slot {slot}"
                    ));
                }
                let e = self.rob.get(slot);
                let Some(m) = e.mem.as_ref() else {
                    return Some(format!(
                        "{name} position {i} (slot {slot}) has no memory state"
                    ));
                };
                if m.is_store {
                    resident_stores += 1;
                }
                // A resident belongs to this queue either primarily or as
                // a not-yet-resolved ghost copy (footnote-3 replication).
                let ord = if m.in_lvaq == here {
                    m.ord
                } else if m.replicated {
                    m.ghost_ord
                } else {
                    return Some(format!(
                        "{name} position {i} (slot {slot}) belongs to the other queue \
                         and is not replicated"
                    ));
                };
                if let Some(p) = prev {
                    if ord <= p {
                        return Some(format!(
                            "{name} age order broken at position {i}: ordinal {ord} after {p}"
                        ));
                    }
                }
                prev = Some(ord);
            }
            let indexed = q.stores_older_than(u64::MAX).count();
            if indexed != resident_stores {
                return Some(format!(
                    "{name} store index out of sync: {indexed} indexed, {resident_stores} resident"
                ));
            }
        }
        if !self.cfg.reference_kernel {
            if let Some(what) = self.audit_wake_liveness() {
                return Some(what);
            }
        }
        None
    }

    /// Event-driven scheduler liveness (fast kernel): every primary load
    /// whose address is effective but which has neither launched nor
    /// completed must be reachable from a wake list or registered on a
    /// resident store's waiter list — otherwise no future event would
    /// ever examine it and the pipeline would wedge. And no waiter list
    /// holds the same load twice, so each list stays bounded by the live
    /// loads. Allocation-free: the auditor runs every cycle.
    fn audit_wake_liveness(&self) -> Option<String> {
        let residents = || {
            [&self.lsq, &self.lvaq]
                .into_iter()
                .flat_map(|q| (0..q.len()).map(move |i| q.slot_at(i)))
        };
        for slot in residents() {
            let Some(m) = self.rob.get(slot).mem.as_ref() else {
                continue;
            };
            for (k, w) in m.waiters.iter().enumerate() {
                if m.waiters[k + 1..].contains(w) {
                    return Some(format!(
                        "store in slot {slot}: load (slot {}, uid {}) registered twice",
                        w.0, w.1
                    ));
                }
            }
        }
        let reachable = |key: (usize, u64)| {
            self.lsq_wake
                .iter()
                .chain(self.lvaq_wake.iter())
                .any(|&(_, slot, uid)| (slot, uid) == key)
                || residents().any(|s| {
                    self.rob
                        .get(s)
                        .mem
                        .as_ref()
                        .is_some_and(|m| m.waiters.contains(&key))
                })
        };
        for (name, q, here) in [("LSQ", &self.lsq, false), ("LVAQ", &self.lvaq, true)] {
            for i in 0..q.len() {
                let slot = q.slot_at(i);
                let e = self.rob.get(slot);
                let Some(m) = e.mem.as_ref() else { continue };
                if m.in_lvaq != here || m.is_store || m.launched || e.completed {
                    continue;
                }
                if m.addr_known(self.cycle) && !reachable((slot, e.uid)) {
                    return Some(format!(
                        "{name} position {i} (slot {slot}): actionable load unreachable \
                         from wake lists and waiter lists"
                    ));
                }
            }
        }
        None
    }

    fn done(&self, max_instructions: u64) -> bool {
        if self.halted || self.res.committed >= max_instructions {
            return true;
        }
        // Stream exhausted (program halted in the VM, no undelivered ring
        // records or deferred fault) and pipeline empty. Under block
        // batching the VM halts as soon as the refill *executes* `Halt`,
        // which may be several dispatch cycles before the pipeline sees
        // it — the ring conditions keep `done` firing at exactly the
        // cycle the one-at-a-time front-end would.
        self.vm.is_halted()
            && self.ring_head >= self.inst_ring.len()
            && self.ring_err.is_none()
            && self.rob.is_empty()
    }

    // ----- commit ---------------------------------------------------------

    fn commit(&mut self) {
        let mut budget = self.cfg.commit_width;
        while budget > 0 {
            let Some(head) = self.rob.head_slot() else {
                break;
            };
            let e = self.rob.get(head);
            let mem = e.mem.as_ref().map(|m| {
                (
                    m.is_store,
                    m.in_lvaq,
                    m.addr,
                    m.addr_known(self.cycle) && m.data_known(self.cycle),
                    m.poisoned,
                )
            });
            if let Some((is_store, in_lvaq, addr, store_ready, poisoned)) = mem {
                if is_store {
                    // The store's port was paid at address generation
                    // (sim-outorder issues stores through the memory
                    // ports); commit just retires the value into the
                    // cache.
                    if !store_ready {
                        break;
                    }
                    let accepted = if in_lvaq {
                        self.hier.lvc_try_access(self.cycle, addr, true)
                    } else {
                        self.hier.l1_try_access(self.cycle, addr, true)
                    };
                    if accepted.is_none() {
                        // The cache cannot accept the store's miss (MSHRs
                        // busy): commit stalls this cycle.
                        break;
                    }
                    self.fault_cache_access(in_lvaq, addr);
                    // Test-only planted defect (see MachineConfig): the
                    // fast kernel charges a phantom LVAQ port-stall cycle
                    // for stores retiring to word index 6 mod 16, so a
                    // differential campaign has a real bug to catch.
                    if self.cfg.planted_defect
                        && !self.cfg.reference_kernel
                        && in_lvaq
                        && (addr >> 2) & 0xf == 0x6
                    {
                        self.res.lvaq.port_stall_cycles += 1;
                    }
                    self.trace(head, |tr| tr.mem_path = MemPath::StoreRetired);
                    self.pop_mem_head(head, in_lvaq, true);
                } else {
                    if !e.completed {
                        break;
                    }
                    if poisoned {
                        // Commit-time audit of a forwarded value: the
                        // corruption is caught (and scrubbed) before the
                        // load retires.
                        if let Some(f) = self.faults.as_mut() {
                            f.stats.forwards_detected += 1;
                        }
                    }
                    self.pop_mem_head(head, in_lvaq, false);
                }
            } else {
                if !e.completed {
                    break;
                }
                let is_halt = matches!(e.d.instr, Instr::Halt);
                let (uid, pc, deps, _mem) = self.rob.pop_head_parts();
                debug_assert!(_mem.is_none(), "non-memory entry with memory state");
                self.retired_pcs.push(pc);
                if let Some(tr) = &mut self.tracer {
                    tr.commit(uid, self.cycle);
                }
                self.recycle_deps(deps);
                self.res.committed += 1;
                self.last_commit_cycle = self.cycle;
                if is_halt {
                    self.halted = true;
                    return;
                }
                budget -= 1;
                continue;
            }
            self.res.committed += 1;
            self.last_commit_cycle = self.cycle;
            budget -= 1;
        }
    }

    fn pop_mem_head(&mut self, head: usize, in_lvaq: bool, is_store: bool) {
        // A fault-delayed address-ready event can leave a fast-forwarded
        // load's footnote-3 ghost in the other queue past retirement;
        // the ghost must not outlive its ROB entry.
        let ghost = {
            let m = self.rob.get(head).mem();
            if m.replicated {
                Some((m.is_store, m.ghost_ord))
            } else {
                None
            }
        };
        if let Some((gstore, gord)) = ghost {
            debug_assert!(self.faults.is_some(), "ghost survived to retirement");
            let other = if in_lvaq {
                &mut self.lsq
            } else {
                &mut self.lvaq
            };
            other.remove_ghost(head, gstore, gord);
        }
        let q = if in_lvaq {
            &mut self.lvaq
        } else {
            &mut self.lsq
        };
        let front = q.pop_front(is_store);
        debug_assert_eq!(front, Some(head), "memory queue out of sync with ROB");
        let (uid, pc, deps, mem) = self.rob.pop_head_parts();
        self.retired_pcs.push(pc);
        if let Some(tr) = &mut self.tracer {
            tr.commit(uid, self.cycle);
        }
        self.recycle_deps(deps);
        if let Some(mut m) = mem {
            // The waiter vector's capacity recycles through `waiter_pool`
            // (inside `drain_waiter_list`), the box through `mem_pool`.
            let waiters = std::mem::take(&mut m.waiters);
            self.mem_pool.push(m);
            // A departing store unblocks the loads scanned up against it
            // (commit runs before memory scheduling, so they re-examine
            // this same cycle — just like the reference rescan would).
            // The reference kernel registers no waiters.
            self.drain_waiter_list(waiters);
        }
    }

    /// Fault hooks around one data-cache data access: first a parity
    /// check on the touched line (detecting — and scrubbing — an earlier
    /// injected flip), then a chance to flip the line just accessed.
    /// Detection runs before injection so a fresh flip is never
    /// self-detected by the access that created it.
    fn fault_cache_access(&mut self, in_lvaq: bool, addr: u32) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let rate = if in_lvaq {
            f.plan.flip_lvc_line
        } else {
            f.plan.flip_l1_line
        };
        if rate == 0.0 {
            return;
        }
        // Draw first so the injector borrow ends before the hierarchy is
        // touched.
        let inject = f.rng.gen_bool(rate);
        let detected = if in_lvaq {
            self.hier.lvc_check_poison(addr)
        } else {
            self.hier.l1_check_poison(addr)
        };
        let injected = inject
            && if in_lvaq {
                self.hier.lvc_poison_line(addr)
            } else {
                self.hier.l1_poison_line(addr)
            };
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        if detected {
            f.stats.flips_detected += 1;
        }
        if injected {
            if in_lvaq {
                f.stats.lvc_flips_injected += 1;
            } else {
                f.stats.l1_flips_injected += 1;
            }
        }
    }

    /// Returns a retired entry's `dependents` vector to the pool.
    ///
    /// Only capacity-carrying vectors are kept: a vector drained at
    /// writeback leaves a fresh zero-capacity `Vec` behind, so each
    /// allocation re-enters the pool exactly once (at writeback or at
    /// retire, never both).
    #[inline]
    fn recycle_deps(&mut self, mut deps: Vec<Dependent>) {
        if deps.capacity() > 0 {
            deps.clear();
            self.dep_pool.push(deps);
        }
    }

    // ----- writeback ------------------------------------------------------

    fn writeback(&mut self) {
        let mut batch = std::mem::take(&mut self.wb_batch);
        self.events.drain_due(self.cycle, &mut batch);
        // Restore the heap's pop order: within one cycle, ascending
        // (uid, slot, kind). Nothing in the event handler schedules new
        // same-cycle events, so one batch is the whole cycle.
        batch.sort_unstable();
        for &(t, uid, slot, kind) in &batch {
            debug_assert_eq!(t, self.cycle, "event missed its cycle");
            self.writeback_event(t, uid, slot, kind);
        }
        batch.clear();
        self.wb_batch = batch;
    }

    /// Applies one due event: address availability or result completion
    /// (with dependent wakeup).
    fn writeback_event(&mut self, t: u64, uid: u64, slot: usize, kind: EvKind) {
        if kind == EvKind::MemWake {
            // A pure scheduling hint (fast kernel only): re-arm the entry
            // if it is still alive. A penalty-delayed load can
            // fast-forward and retire before its wake fires, so a dead
            // target here is normal even without fault injection.
            if self.rob.holds(slot, uid) {
                self.mem_wake(slot);
            }
            return;
        }
        if !self.rob.holds(slot, uid) {
            // Only a fault-delayed address-ready event can outlive its
            // entry: the load was fast-forwarded (§2.2.2 needs no AGU
            // result) and retired inside the injected delay window.
            debug_assert!(self.faults.is_some(), "event for a dead entry");
            return;
        }
        {
            match kind {
                EvKind::MemWake => unreachable!("handled above"),
                EvKind::AddrReady => {
                    let penalty = self.rob.get(slot).mem().penalty;
                    let (replicated, in_lvaq, is_store, ghost_ord) = {
                        let m = self.rob.get_mut(slot).mem_mut();
                        m.addr_ready_at = Some(t + penalty);
                        (m.replicated, m.in_lvaq, m.is_store, m.ghost_ord)
                    };
                    if replicated {
                        // Region resolved: kill the wrongly inserted copy
                        // (paper §2.1, footnote 3).
                        let other = if in_lvaq {
                            &mut self.lsq
                        } else {
                            &mut self.lvaq
                        };
                        other.remove_ghost(slot, is_store, ghost_ord);
                        self.rob.get_mut(slot).mem_mut().replicated = false;
                    }
                    if !self.cfg.reference_kernel {
                        if penalty == 0 {
                            // The address is effective this very cycle
                            // (writeback precedes memory scheduling).
                            if is_store {
                                self.drain_waiters_of(slot);
                            } else {
                                self.wake_load(slot);
                            }
                        } else {
                            if is_store && replicated {
                                // The ghost's departure may unblock the
                                // other queue now, even though this
                                // store's own address is not yet
                                // effective.
                                self.drain_waiters_of(slot);
                            }
                            self.schedule(t + penalty, uid, slot, EvKind::MemWake);
                        }
                    }
                    self.trace(slot, |tr| tr.addr_ready_at = Some(t + penalty));
                }
                EvKind::Complete => {
                    self.trace(slot, |tr| tr.completed_at = Some(t));
                    let mut deps = {
                        let e = self.rob.get_mut(slot);
                        e.completed = true;
                        std::mem::take(&mut e.dependents)
                    };
                    let track_ready = !self.cfg.reference_kernel;
                    for Dependent { slot: ds, kind } in deps.drain(..) {
                        let de = self.rob.get_mut(ds);
                        match kind {
                            DepKind::Operand => {
                                debug_assert!(de.waiting > 0);
                                de.waiting -= 1;
                                // Wakeup: the last operand arriving makes
                                // the consumer an issue candidate. Loads
                                // already satisfied by fast forwarding
                                // (`issued` set without operands) never
                                // re-enter.
                                let woke = de.waiting == 0 && !de.issued;
                                let duid = de.uid;
                                let class = ready_class(de.mem.as_deref());
                                if track_ready && woke {
                                    self.newly_ready[class].push((duid, ds));
                                }
                            }
                            DepKind::StoreData => {
                                de.mem_mut().data_ready_at = Some(t);
                                if track_ready {
                                    // Loads blocked on this store's value
                                    // can now forward from it.
                                    self.drain_waiters_of(ds);
                                }
                            }
                        }
                    }
                    self.recycle_deps(deps);
                }
            }
        }
    }

    // ----- memory scheduling ---------------------------------------------

    /// Re-arms an alive entry whose penalty-delayed address just became
    /// effective (fast kernel, [`EvKind::MemWake`]).
    fn mem_wake(&mut self, slot: usize) {
        if self.rob.get(slot).mem().is_store {
            self.drain_waiters_of(slot);
        } else {
            let e = self.rob.get(slot);
            if !e.completed && !e.mem().launched {
                self.wake_load(slot);
            }
        }
    }

    /// Queues a load for (re-)examination by the next `memory_schedule`
    /// pass over its own queue.
    fn wake_load(&mut self, slot: usize) {
        let uid = self.rob.get(slot).uid;
        let (in_lvaq, ord) = {
            let m = self.rob.get(slot).mem();
            (m.in_lvaq, m.ord)
        };
        let wl = if in_lvaq {
            &mut self.lvaq_wake
        } else {
            &mut self.lsq_wake
        };
        wl.push((ord, slot, uid));
    }

    /// Registers a load on the waiter list of the store its scheduling
    /// scan stopped at: the load re-enters its queue's wake list when
    /// that store's address or data readiness changes or it leaves a
    /// queue. Spurious wakeups are harmless — the load just re-examines
    /// (in O(1) from its scan cursor) and re-registers.
    fn register_waiter(&mut self, store_slot: usize, load_slot: usize) {
        debug_assert!(
            self.rob.get(store_slot).is_store(),
            "waiter registered on a non-store"
        );
        let uid = self.rob.get(load_slot).uid;
        if self.rob.get(store_slot).mem().waiters.capacity() == 0 {
            if let Some(v) = self.waiter_pool.pop() {
                self.rob.get_mut(store_slot).mem_mut().waiters = v;
            }
        }
        let w = &mut self.rob.get_mut(store_slot).mem_mut().waiters;
        // A load re-blocks on the same store every cycle it is refused
        // (saturated MSHRs re-arm it), interleaved with other loads, so
        // dedup against the whole list. A registered load is younger
        // than its store and cannot retire first, so the list holds at
        // most one entry per live load.
        if !w.contains(&(load_slot, uid)) {
            w.push((load_slot, uid));
        }
    }

    /// Wakes every load registered on the store in `store_slot`.
    fn drain_waiters_of(&mut self, store_slot: usize) {
        let w = std::mem::take(&mut self.rob.get_mut(store_slot).mem_mut().waiters);
        self.drain_waiter_list(w);
    }

    /// Wakes the still-alive, still-idle loads of a taken waiter list and
    /// recycles its allocation.
    fn drain_waiter_list(&mut self, mut w: Vec<(usize, u64)>) {
        for (slot, uid) in w.drain(..) {
            if !self.rob.holds(slot, uid) {
                continue;
            }
            let e = self.rob.get(slot);
            if e.completed || e.mem().launched {
                continue;
            }
            self.wake_load(slot);
        }
        if w.capacity() > 0 {
            self.waiter_pool.push(w);
        }
    }

    fn memory_schedule(&mut self) {
        // Event-driven fast kernel: only woken loads are examined. Every
        // state change that can make a load actionable funnels into the
        // wake lists (address-ready and penalty expiry in
        // `writeback_event`, store data arrival via `drain_waiters_of`,
        // store departure in `pop_mem_head` / ghost removal, MSHR-refusal
        // retries below, initial fast-forward eligibility at dispatch),
        // so an empty list cycle provably has no scheduling work.
        if self.lsq_wake.is_empty() && self.lvaq_wake.is_empty() {
            return;
        }
        let mut lv = std::mem::replace(
            &mut self.lvaq_wake,
            std::mem::take(&mut self.lvaq_wake_spare),
        );
        let mut ls =
            std::mem::replace(&mut self.lsq_wake, std::mem::take(&mut self.lsq_wake_spare));
        // Sorting by queue ordinal restores the reference walk's age
        // order; examination order decides fault-RNG draw order, so this
        // is a bit-identity requirement, not a heuristic.
        lv.sort_unstable();
        lv.dedup();
        ls.sort_unstable();
        ls.dedup();
        if self.cfg.decoupling.fast_forwarding && self.hier.has_lvc() {
            for &(_, slot, uid) in &lv {
                if self.rob.holds(slot, uid) {
                    self.ff_exam(slot);
                }
            }
        }
        for &(_, slot, uid) in &ls {
            if self.rob.holds(slot, uid) {
                self.launch_exam(false, slot, uid);
            }
        }
        if self.hier.has_lvc() {
            for &(_, slot, uid) in &lv {
                if self.rob.holds(slot, uid) {
                    self.launch_exam(true, slot, uid);
                }
            }
        }
        lv.clear();
        ls.clear();
        self.lvaq_wake_spare = lv;
        self.lsq_wake_spare = ls;
    }

    /// Examines one woken LVAQ load for fast forwarding (fast kernel):
    /// resumes the CAM scan from its cursor, applies a ready match, and
    /// otherwise registers the load on the store that stopped the scan.
    fn ff_exam(&mut self, slot: usize) {
        let Some((lver, loff, lbytes)) = self.ff_candidate(slot) else {
            return;
        };
        let (ord, ff_ord) = {
            let m = self.rob.get(slot).mem();
            (m.ord, m.ff_ord)
        };
        let (out, cursor) = ff_scan(&self.rob, &self.lvaq, ff_ord, lver, loff, lbytes);
        debug_assert_eq!(
            out,
            ff_scan(&self.rob, &self.lvaq, ord, lver, loff, lbytes).0,
            "incremental fast-forward scan diverged from the full rescan"
        );
        self.rob.get_mut(slot).mem_mut().ff_ord = cursor;
        match out {
            FfScan::Match(store_slot) => {
                if self.rob.get(store_slot).mem().data_known(self.cycle) {
                    self.apply_fast_forward(slot, out);
                } else {
                    // Re-examine when the matched store's data arrives.
                    self.register_waiter(store_slot, slot);
                }
            }
            FfScan::Blocked => {
                // The cursor sits just above the youngest blocking store.
                let Some(blocker) = self.lvaq.store_at(cursor - 1) else {
                    debug_assert!(false, "blocked fast-forward scan without a blocking store");
                    return;
                };
                self.register_waiter(blocker, slot);
            }
            FfScan::NoMatch => {}
        }
    }

    /// Examines one woken load of a queue for launch (fast kernel):
    /// resumes the disambiguation scan from its cursor, launches on
    /// forward/cache outcomes (re-arming a refused cache access for the
    /// next cycle), and registers blocked loads on their blocking store.
    fn launch_exam(&mut self, in_lvaq: bool, slot: usize, uid: u64) {
        let Some((addr, bytes)) = self.launch_candidate(slot, in_lvaq) else {
            return;
        };
        let cycle = self.cycle;
        let (ord, scan_ord) = {
            let m = self.rob.get(slot).mem();
            (m.ord, m.scan_ord)
        };
        // Conservative disambiguation against older stores in *this*
        // queue only — the decoupling benefit.
        let (outcome, cursor) = {
            let q = if in_lvaq { &self.lvaq } else { &self.lsq };
            let (out, cursor) = disamb_scan(&self.rob, q, scan_ord, cycle, addr, bytes);
            debug_assert_eq!(
                out,
                disamb_scan(&self.rob, q, ord, cycle, addr, bytes).0,
                "incremental disambiguation scan diverged from the full rescan"
            );
            (out, cursor)
        };
        self.rob.get_mut(slot).mem_mut().scan_ord = cursor;
        if let DisambScan::Blocked = outcome {
            let blocker = {
                let q = if in_lvaq { &self.lvaq } else { &self.lsq };
                q.store_at(cursor - 1)
            };
            let Some(blocker) = blocker else {
                debug_assert!(
                    false,
                    "blocked disambiguation scan without a blocking store"
                );
                return;
            };
            self.register_waiter(blocker, slot);
        } else if !self.apply_launch(in_lvaq, slot, addr, outcome) {
            // Structural hazard (every MSHR busy): the reference kernel
            // retries each cycle, so re-arm for the very next one.
            let wl = if in_lvaq {
                &mut self.lvaq_wake
            } else {
                &mut self.lsq_wake
            };
            wl.push((ord, slot, uid));
        }
    }

    /// The per-load eligibility filter of the fast-forwarding pass;
    /// returns the load's `($sp` version, offset, bytes)` identity.
    fn ff_candidate(&self, slot: usize) -> Option<(u64, i32, u32)> {
        let e = self.rob.get(slot);
        let m = e.mem.as_ref()?;
        if !m.in_lvaq || m.is_store || m.launched || e.completed {
            return None;
        }
        let (lver, loff) = m.stack_slot?;
        Some((lver, loff, m.bytes))
    }

    /// Applies a fast-forwarding scan outcome: on an exact match with the
    /// store data ready, bypass in one cycle (no AGU, no LVC port).
    fn apply_fast_forward(&mut self, slot: usize, outcome: FfScan) {
        let cycle = self.cycle;
        if let FfScan::Match(store_slot) = outcome {
            let data_ready = self.rob.get(store_slot).mem().data_known(cycle);
            if data_ready {
                let e = self.rob.get_mut(slot);
                let uid = e.uid;
                e.issued = true; // skip AGU if not yet issued
                e.mem_mut().launched = true;
                self.fault_corrupt_forward(slot);
                self.trace(slot, |tr| tr.mem_path = MemPath::FastForwarded);
                self.res.lvaq.fast_forwards += 1;
                self.res.load_latency_sum += 1;
                self.res.load_latency_count += 1;
                self.schedule(cycle + 1, uid, slot, EvKind::Complete);
            }
            // If the data is not ready yet, retry next cycle.
        }
    }

    /// Fault hook on a store→load forward: maybe corrupts the bypassed
    /// value. The poison rides the load's queue entry until the
    /// commit-time audit catches it.
    fn fault_corrupt_forward(&mut self, slot: usize) {
        let mut corrupt = false;
        if let Some(f) = self.faults.as_mut() {
            if f.plan.corrupt_forward > 0.0 && f.rng.gen_bool(f.plan.corrupt_forward) {
                f.stats.forwards_corrupted += 1;
                corrupt = true;
            }
        }
        if corrupt {
            self.rob.get_mut(slot).mem_mut().poisoned = true;
        }
    }

    /// The per-load eligibility filter of the launch pass: a primary
    /// (non-ghost) load of this queue, not yet launched, whose effective
    /// address is known. A ghost copy (replication, footnote 3) never
    /// launches from the wrong queue.
    fn launch_candidate(&self, slot: usize, in_lvaq: bool) -> Option<(u32, u32)> {
        let e = self.rob.get(slot);
        let m = e.mem.as_ref()?;
        if m.in_lvaq != in_lvaq
            || m.is_store
            || m.launched
            || e.completed
            || !m.addr_known(self.cycle)
        {
            return None;
        }
        Some((m.addr, m.bytes))
    }

    /// Applies a disambiguation outcome: forward from the covering store,
    /// or access the cache (which may refuse when every MSHR is busy — a
    /// structural hazard retried next cycle). `Blocked` loads just wait.
    /// Returns `false` exactly when a cache access was refused, so the
    /// fast kernel knows to re-arm the load for the next cycle.
    fn apply_launch(&mut self, in_lvaq: bool, slot: usize, addr: u32, outcome: DisambScan) -> bool {
        let cycle = self.cycle;
        match outcome {
            DisambScan::Blocked => {}
            DisambScan::Forward(_) => {
                // In-queue store→load forwarding: 1 cycle (the port was
                // already paid at address generation).
                let qstats = if in_lvaq {
                    &mut self.res.lvaq
                } else {
                    &mut self.res.lsq
                };
                qstats.forwards += 1;
                self.res.load_latency_sum += 1;
                self.res.load_latency_count += 1;
                let e = self.rob.get_mut(slot);
                let uid = e.uid;
                e.mem_mut().launched = true;
                self.fault_corrupt_forward(slot);
                self.trace(slot, |tr| tr.mem_path = MemPath::Forwarded);
                self.schedule(cycle + 1, uid, slot, EvKind::Complete);
            }
            DisambScan::Cache => {
                let completion = if in_lvaq {
                    self.hier.lvc_try_access(cycle, addr, false)
                } else {
                    self.hier.l1_try_access(cycle, addr, false)
                };
                let Some(c) = completion else {
                    // Structural hazard: every MSHR busy — retry next
                    // cycle.
                    return false;
                };
                self.fault_cache_access(in_lvaq, addr);
                let complete_at = c.complete_at;
                self.res.load_latency_sum += complete_at - cycle;
                self.res.load_latency_count += 1;
                let e = self.rob.get_mut(slot);
                let uid = e.uid;
                e.mem_mut().launched = true;
                self.trace(slot, |tr| tr.mem_path = MemPath::Cache);
                self.schedule(complete_at, uid, slot, EvKind::Complete);
            }
        }
        true
    }

    // ----- issue ----------------------------------------------------------

    fn issue(&mut self) {
        let mut budget = self.cfg.issue_width;
        // Walk only the ready entries (all operands resolved, not yet
        // issued). uid is monotone with dispatch order, so keeping each
        // class list uid-sorted and merge-walking the three lists
        // oldest-first selects exactly like the reference kernel's full
        // ROB walk, since entries still waiting on operands cannot issue
        // (and charge nothing) there either.
        for class in 0..3 {
            if self.newly_ready[class].is_empty() {
                continue;
            }
            self.newly_ready[class].sort_unstable();
            if self.ready[class]
                .last()
                .is_none_or(|&(last, _)| last < self.newly_ready[class][0].0)
            {
                // Common case: every newcomer is younger than the tail.
                let mut newly = std::mem::take(&mut self.newly_ready[class]);
                self.ready[class].append(&mut newly);
                self.newly_ready[class] = newly;
            } else {
                let old = std::mem::take(&mut self.ready[class]);
                let new = std::mem::take(&mut self.newly_ready[class]);
                self.ready[class] = merge_by_uid(old, new);
            }
        }

        // Three-way merge walk by uid (= age). The latches record a
        // port meter or FU pool exhausted earlier this cycle: once the
        // L1 (or LVC) meter has refused a claim, every later claim this
        // cycle refuses too, so the rest of that class needs only its
        // port-stall charge — no ROB access, no meter call — taken as
        // one bulk run per consecutive stretch (a stalled run contains
        // no issues, so the budget cannot change inside it and the
        // reference walk charges the whole stretch too). That charge is
        // exact only when every resident entry of the class must reach
        // the port claim: LSQ ops always do (AGU issue comes first; a
        // resident LSQ entry is live and unissued), but an LVAQ entry
        // can be rescued portlessly by access combining or completed in
        // place by fast forwarding (`apply_fast_forward` marks it
        // issued without an `issue()` exam), so LVAQ bulk charging is
        // off under either optimization.
        let mut lists = std::mem::take(&mut self.ready);
        let [fu_l, lsq_l, lvaq_l] = &mut lists;
        let mut latches = IssueLatches::default();
        let lvaq_bulk = self.cfg.decoupling.combining_degree <= 1
            && !(self.cfg.decoupling.fast_forwarding && self.hier.has_lvc());
        let (mut fr, mut fw) = (0usize, 0usize);
        let (mut lr, mut lw) = (0usize, 0usize);
        let (mut vr, mut vw) = (0usize, 0usize);
        // Cached head uids: only the cursor that advanced refreshes its
        // head, so steady-state iterations touch one list, not three.
        let head = |l: &Vec<(u64, usize)>, r: usize| l.get(r).map(|e| e.0).unwrap_or(u64::MAX);
        let mut fuid = head(fu_l, fr);
        let mut luid = head(lsq_l, lr);
        let mut vuid = head(lvaq_l, vr);
        while budget > 0 {
            let next = fuid.min(luid).min(vuid);
            if next == u64::MAX {
                break;
            }
            if next == luid && latches.port[0] {
                // Bulk-charge the stalled run up to the next candidate
                // from another list.
                let other = fuid.min(vuid);
                let start = lr;
                while lr < lsq_l.len() && lsq_l[lr].0 < other {
                    debug_assert!(self.rob.holds(lsq_l[lr].1, lsq_l[lr].0));
                    lr += 1;
                }
                self.res.lsq.port_stall_cycles += (lr - start) as u64;
                lsq_l.copy_within(start..lr, lw);
                lw += lr - start;
                luid = head(lsq_l, lr);
                continue;
            }
            if next == vuid && latches.port[1] && lvaq_bulk {
                let other = fuid.min(luid);
                let start = vr;
                while vr < lvaq_l.len() && lvaq_l[vr].0 < other {
                    debug_assert!(self.rob.holds(lvaq_l[vr].1, lvaq_l[vr].0));
                    vr += 1;
                }
                self.res.lvaq.port_stall_cycles += (vr - start) as u64;
                lvaq_l.copy_within(start..vr, vw);
                vw += vr - start;
                vuid = head(lvaq_l, vr);
                continue;
            }
            let (list, r, w, h) = if next == fuid {
                (&mut *fu_l, &mut fr, &mut fw, &mut fuid)
            } else if next == luid {
                (&mut *lsq_l, &mut lr, &mut lw, &mut luid)
            } else {
                (&mut *lvaq_l, &mut vr, &mut vw, &mut vuid)
            };
            let (uid, slot) = list[*r];
            *r += 1;
            *h = head(list, *r);
            if !self.rob.holds(slot, uid) {
                continue; // committed: drop
            }
            self.try_issue_slot(slot, &mut budget, Some(&mut latches));
            let e = self.rob.get(slot);
            if !e.issued && !e.completed {
                list[*w] = (uid, slot);
                *w += 1;
            }
        }
        // Keep the unexamined tails untouched (the reference walk breaks
        // on budget exhaustion without charging them either).
        fu_l.copy_within(fr.., fw);
        let flen = fw + fu_l.len() - fr;
        fu_l.truncate(flen);
        lsq_l.copy_within(lr.., lw);
        let llen = lw + lsq_l.len() - lr;
        lsq_l.truncate(llen);
        lvaq_l.copy_within(vr.., vw);
        let vlen = vw + lvaq_l.len() - vr;
        lvaq_l.truncate(vlen);
        self.ready = lists;
    }

    /// Tries to issue the entry in `slot` onto a functional unit (memory
    /// instructions: the AGU plus their cache-port slot), decrementing
    /// `budget` on success. Not-ready entries return without charge.
    ///
    /// `latches` (fast kernel only) records per-cycle port-meter and
    /// FU-pool exhaustion: when this entry's meter is already
    /// known-exhausted and combining cannot rescue it, the stall is
    /// charged without touching the meter, and a known-exhausted FU
    /// pool skips its scan without any charge; a refusal sets the
    /// corresponding latch. The reference kernel passes `None` and
    /// re-asks every resource every time.
    fn try_issue_slot(
        &mut self,
        slot: usize,
        budget: &mut u32,
        mut latches: Option<&mut IssueLatches>,
    ) {
        let (mem, fu, uid) = {
            let e = self.rob.get(slot);
            if e.issued || e.completed || e.waiting > 0 {
                return;
            }
            (
                e.mem
                    .as_ref()
                    .map(|m| (m.in_lvaq, m.is_store, m.stack_slot, m.q_seq)),
                e.fu,
                e.uid,
            )
        };
        if let Some((in_lvaq, is_store, stack_slot, q_seq)) = mem {
            // A memory instruction enters the memory pipeline here:
            // address generation plus the cache-port slot it will use
            // (as in sim-outorder, where loads and stores issue
            // through the memory ports). Access combining merges
            // consecutive same-line, same-kind LVAQ entries into one
            // port slot — line identity is established *before*
            // addresses exist via the ($sp version, offset) pair, the
            // same CAM the fast-forwarding hardware uses.
            let degree = if in_lvaq {
                self.cfg.decoupling.combining_degree
            } else {
                1
            };
            // The line key only matters to combining (`degree > 1`, LVAQ
            // side); the shift is exact because line sizes are powers of
            // two and `>> k` floors like `div_euclid(2^k)`.
            let line_key = if degree > 1 {
                stack_slot.map(|(v, off)| (v, off >> self.lvc_line_shift))
            } else {
                None
            };
            let combinable = degree > 1
                && line_key.is_some()
                && matches!(self.issue_combine,
                    Some((c, lv, st, lk, sq)) if c == self.cycle
                        && lv == in_lvaq
                        && st == is_store
                        && Some(lk) == line_key
                        && q_seq.saturating_sub(sq) < degree as u64);
            if !combinable {
                if let Some(l) = latches.as_deref_mut() {
                    if l.port[in_lvaq as usize] {
                        let qstats = if in_lvaq {
                            &mut self.res.lvaq
                        } else {
                            &mut self.res.lsq
                        };
                        qstats.port_stall_cycles += 1;
                        return;
                    }
                }
                let meter = if in_lvaq {
                    match self.lvc_ports.as_mut() {
                        Some(m) => m,
                        None => unreachable!("LVAQ without LVC"),
                    }
                } else {
                    &mut self.l1_ports
                };
                if !meter.try_claim(self.cycle) {
                    if let Some(l) = latches {
                        l.port[in_lvaq as usize] = true;
                    }
                    let qstats = if in_lvaq {
                        &mut self.res.lvaq
                    } else {
                        &mut self.res.lsq
                    };
                    qstats.port_stall_cycles += 1;
                    return;
                }
                // Fault hook: a granted port slot can be revoked after
                // arbitration. The port cycle is consumed; the entry
                // retries next cycle.
                let mut dropped = false;
                if let Some(f) = self.faults.as_mut() {
                    if f.plan.drop_port_grant > 0.0 && f.rng.gen_bool(f.plan.drop_port_grant) {
                        f.stats.grants_dropped += 1;
                        dropped = true;
                    }
                }
                if dropped {
                    let qstats = if in_lvaq {
                        &mut self.res.lvaq
                    } else {
                        &mut self.res.lsq
                    };
                    qstats.port_stall_cycles += 1;
                    return;
                }
            }
            if let Some(l) = latches.as_deref_mut() {
                if l.pool[FuCounts::pool_of(FuClass::IntAlu)] {
                    // AGU pool known-exhausted, but only discovered
                    // after the port claim above — the port cycle is
                    // consumed and the entry retries, exactly as the
                    // reference's failed pool scan leaves it.
                    return;
                }
            }
            if self.fus.try_issue(FuClass::IntAlu, self.cycle).is_some() {
                self.rob.get_mut(slot).issued = true;
                let now = self.cycle;
                self.trace(slot, |tr| tr.issued_at = Some(now));
                // Fault hook: a granted port's address-ready event can be
                // held back by `delay_cycles`.
                let mut extra = 0u64;
                if let Some(f) = self.faults.as_mut() {
                    if f.plan.delay_port_grant > 0.0 && f.rng.gen_bool(f.plan.delay_port_grant) {
                        f.stats.grants_delayed += 1;
                        extra = f.plan.delay_cycles as u64;
                    }
                }
                self.schedule(self.cycle + 1 + extra, uid, slot, EvKind::AddrReady);
                *budget -= 1;
                if combinable {
                    self.res.lvaq.combined += 1;
                } else if degree > 1 {
                    if let Some(lk) = line_key {
                        self.issue_combine = Some((self.cycle, in_lvaq, is_store, lk, q_seq));
                    } else {
                        self.issue_combine = None;
                    }
                }
            } else if let Some(l) = latches {
                l.pool[FuCounts::pool_of(FuClass::IntAlu)] = true;
            }
        } else {
            let pool = FuCounts::pool_of(fu);
            if let Some(l) = latches.as_deref_mut() {
                if l.pool[pool] {
                    return;
                }
            }
            match self.fus.try_issue(fu, self.cycle) {
                Some(done) => {
                    self.rob.get_mut(slot).issued = true;
                    let now = self.cycle;
                    self.trace(slot, |tr| tr.issued_at = Some(now));
                    self.schedule(done, uid, slot, EvKind::Complete);
                    *budget -= 1;
                }
                None => {
                    if let Some(l) = latches {
                        l.pool[pool] = true;
                    }
                }
            }
        }
    }

    // ----- dispatch -------------------------------------------------------

    /// Ensures the ring holds an undelivered instruction. The fast kernel
    /// refills one basic block at a time through the VM's translation
    /// cache; the reference kernel interprets one instruction per refill
    /// with [`Vm::step`]. Both deliver bit-identical streams, and a fault
    /// surfaces at exactly the same pull — a refill fault is stashed in
    /// `ring_err` and returned only once the instructions ahead of it
    /// have been delivered. `Ok(false)` = stream exhausted.
    fn fill_ring(&mut self) -> Result<bool, VmError> {
        loop {
            if self.ring_head < self.inst_ring.len() {
                return Ok(true);
            }
            if let Some(e) = self.ring_err.take() {
                return Err(e);
            }
            if self.vm.is_halted() {
                return Ok(false);
            }
            self.inst_ring.clear();
            self.ring_head = 0;
            self.ring_err = if self.cfg.reference_kernel {
                self.vm.step().map(|d| self.inst_ring.extend(d)).err()
            } else {
                self.vm.step_block(&mut self.inst_ring)
            };
        }
    }

    fn dispatch(&mut self, max_instructions: u64) -> Result<(), SimError> {
        for _ in 0..self.cfg.dispatch_width {
            if self.dispatched >= max_instructions {
                break;
            }
            // Fetch. The ring head stays in place until the stall checks
            // pass, so a stalled cycle re-examines it where it lies.
            match self.fill_ring() {
                Ok(true) => {}
                Ok(false) => break,
                // The workload raised an architectural fault: surface it
                // as a structured trap with timing context.
                Err(e) => return Err(self.trap(e)),
            }
            if self.rob.is_full() {
                self.res.stall_rob_full += 1;
                break;
            }
            // Steering and queue-space check for memory instructions
            // (examined in place: a stalled attempt repeats the exam next
            // cycle, re-training the region predictor each time).
            let (is_mem, steer) = {
                let d = &self.inst_ring[self.ring_head];
                let steer = if d.mem.is_some() && self.hier.has_lvc() {
                    Some(self.classifier.steer(d))
                } else {
                    None
                };
                (d.mem.is_some(), steer)
            };
            let in_lvaq = steer.map(|s| s.actual_local).unwrap_or(false);
            let replicated = steer.is_some_and(|s| s.replicated);
            if is_mem {
                let need_lvaq = in_lvaq || replicated;
                let need_lsq = !in_lvaq || replicated;
                if need_lvaq && self.lvaq.len() >= self.cfg.decoupling.lvaq_size {
                    self.res.stall_lvaq_full += 1;
                    break;
                }
                if need_lsq && self.lsq.len() >= self.cfg.lsq_size {
                    self.res.stall_lsq_full += 1;
                    break;
                }
            }
            let mispredicted = steer.is_some_and(|s| s.mispredicted());
            if mispredicted {
                self.res.misclassifications += 1;
            }

            // All stall checks passed: take the instruction off the
            // stream.
            let d = self.inst_ring[self.ring_head];
            self.ring_head += 1;
            let sd = self.sdec[d.pc as usize];

            let uid = self.rob.next_uid();
            // The entry is assembled in full — memory state, rename
            // wiring, queue residency — before the one move into its ROB
            // slot, so nothing below re-finds it through the ROB.
            let slot = self.rob.next_slot();
            let is_store = d.mem.is_some_and(|m| m.is_store);
            let mut mem_state = d.mem.map(|m| {
                let mut st = self.mem_pool.pop().unwrap_or_default();
                *st = MemState {
                    in_lvaq,
                    q_seq: if in_lvaq { self.lvaq_seq } else { self.lsq_seq },
                    is_store: m.is_store,
                    addr: m.addr,
                    bytes: m.bytes,
                    stack_slot: m.stack_slot,
                    addr_ready_at: None,
                    // Stores start with their data operand ready unless
                    // the rename scan below finds an in-flight producer.
                    data_ready_at: if m.is_store { Some(self.cycle) } else { None },
                    launched: false,
                    penalty: if mispredicted {
                        self.cfg.decoupling.misclass_penalty as u64
                    } else {
                        0
                    },
                    replicated,
                    // Queue ordinals and scan cursors are assigned at the
                    // queue push below.
                    ord: 0,
                    ghost_ord: 0,
                    scan_ord: 0,
                    ff_ord: 0,
                    poisoned: false,
                    waiters: Vec::new(),
                };
                st
            });

            // Rename: wire source operands to in-flight producers.
            let store_data_src = if is_store { sd.uses[0] } else { NO_REG };
            let mut waiting: u8 = 0;
            for (i, &ri) in sd.uses.iter().enumerate() {
                if ri == NO_REG {
                    continue;
                }
                if is_store && i == 0 {
                    continue; // the data operand is tracked separately
                }
                if let Some((pslot, puid)) = self.rename[ri as usize] {
                    if let Some(pe) = self.rob.alive_mut(pslot, puid) {
                        if !pe.completed {
                            pe.dependents.push(Dependent {
                                slot,
                                kind: DepKind::Operand,
                            });
                            waiting += 1;
                        }
                    }
                }
            }
            if store_data_src != NO_REG {
                if let Some((pslot, puid)) = self.rename[store_data_src as usize] {
                    if let Some(pe) = self.rob.alive_mut(pslot, puid) {
                        if !pe.completed {
                            pe.dependents.push(Dependent {
                                slot,
                                kind: DepKind::StoreData,
                            });
                            if let Some(m) = mem_state.as_deref_mut() {
                                m.data_ready_at = None;
                            }
                        }
                    }
                }
            }
            if sd.def != NO_REG {
                self.rename[sd.def as usize] = Some((slot, uid));
            }
            if !self.cfg.reference_kernel && waiting == 0 {
                // No pending producers: an issue candidate immediately.
                let class = ready_class(mem_state.as_deref());
                self.newly_ready[class].push((uid, slot));
            }

            if let Some(tr) = &mut self.tracer {
                if tr.wants(uid) {
                    tr.dispatch(
                        uid,
                        InstrTrace {
                            seq: d.seq,
                            pc: d.pc,
                            instr: d.instr,
                            dispatched_at: self.cycle,
                            issued_at: None,
                            addr_ready_at: None,
                            completed_at: None,
                            committed_at: 0,
                            in_lvaq: mem_state.as_ref().map(|m| m.in_lvaq),
                            mem_path: MemPath::None,
                        },
                    );
                }
            }

            // Enqueue in the memory queue and count stream statistics.
            if let Some(m) = mem_state.as_deref_mut() {
                if m.in_lvaq {
                    self.lvaq_seq += 1;
                } else {
                    self.lsq_seq += 1;
                }
                let q = if m.in_lvaq {
                    &mut self.lvaq
                } else {
                    &mut self.lsq
                };
                let ord = q.push_back(slot, m.is_store);
                let ghost_ord = if m.replicated {
                    // Footnote 3: the ghost copy occupies the other queue
                    // until the address resolves.
                    let other = if m.in_lvaq {
                        &mut self.lsq
                    } else {
                        &mut self.lvaq
                    };
                    other.push_back(slot, m.is_store)
                } else {
                    0
                };
                m.ord = ord;
                m.ghost_ord = ghost_ord;
                // Empty cleared segment: the scans start just below `ord`.
                m.scan_ord = ord;
                m.ff_ord = ord;
                if !m.is_store
                    && !self.cfg.reference_kernel
                    && m.in_lvaq
                    && self.cfg.decoupling.fast_forwarding
                    && m.stack_slot.is_some()
                {
                    // Fast forwarding needs no address (§2.2.2): this
                    // load is examinable from the cycle after dispatch,
                    // before any event fires for it. Loads on the
                    // address path instead get their first wake from
                    // their own AddrReady event.
                    self.lvaq_wake.push((ord, slot, uid));
                }
                let qs = if m.in_lvaq {
                    &mut self.res.lvaq
                } else {
                    &mut self.res.lsq
                };
                if m.is_store {
                    qs.stores += 1;
                } else {
                    qs.loads += 1;
                }
            }

            let pushed = self.rob.push(RobEntry {
                uid,
                fu: sd.fu,
                waiting,
                dependents: self.dep_pool.pop().unwrap_or_default(),
                issued: false,
                completed: false,
                mem: mem_state,
                d,
            });
            debug_assert_eq!(pushed, slot, "dispatch raced the ROB tail");
            self.dispatched += 1;
        }
        Ok(())
    }

    fn sample_occupancy(&mut self) {
        self.occ_lsq[self.lsq.len()] += 1;
        if self.hier.has_lvc() {
            self.occ_lvaq[self.lvaq.len()] += 1;
        }
    }

    /// Moves the flat occupancy counters into the result histograms,
    /// draining them: a mid-run snapshot and the end of the run can both
    /// flush without double-counting (the remainder re-accumulates after
    /// a drain, so end-of-run totals are unchanged by intermediate
    /// flushes).
    fn flush_occupancy(&mut self) {
        for (v, n) in self.occ_lsq.iter_mut().enumerate() {
            self.res.lsq.occupancy.record_n(v as u64, *n);
            *n = 0;
        }
        for (v, n) in self.occ_lvaq.iter_mut().enumerate() {
            self.res.lvaq.occupancy.record_n(v as u64, *n);
            *n = 0;
        }
    }
}

/// Outcome of the fast-forwarding CAM scan for one LVAQ load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FfScan {
    /// An older store prevents a match (unknown `$sp` identity, a frame
    /// change, or a partial overlap).
    Blocked,
    /// Exact-slot match: forward from this store's ROB slot.
    Match(usize),
    /// No older store is a candidate; the load proceeds on the normal
    /// address path.
    NoMatch,
}

/// Outcome of the in-queue disambiguation scan for one load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DisambScan {
    /// An older store is unresolved or overlapping without forwardable
    /// data: the load cannot launch this cycle.
    Blocked,
    /// A fully-containing older store with its data ready: forward from
    /// this ROB slot.
    Forward(usize),
    /// No conflict — access the cache.
    Cache,
}

/// Scans the stores of `q` older than ordinal `start`, youngest first, for
/// a fast-forwarding candidate matching the load's `($sp` version,
/// offset, bytes)`. Returns the outcome plus the new scan cursor: every
/// store with an ordinal at or above the cursor (and below the load's own
/// ordinal) is proven same-version and slot-disjoint — permanent facts,
/// since `stack_slot` identities are static — so later scans resume from
/// the cursor. A terminal store leaves the cursor just above itself and is
/// re-examined (in O(1)) until it resolves or leaves the queue.
fn ff_scan(
    rob: &Rob,
    q: &MemQueue,
    start: u64,
    lver: u64,
    loff: i32,
    lbytes: u32,
) -> (FfScan, u64) {
    for (so, sslot) in q.stores_older_than(start) {
        if let Some(out) = ff_rule(sslot, rob.get(sslot).mem(), lver, loff, lbytes) {
            return (out, so + 1);
        }
    }
    (FfScan::NoMatch, 0)
}

/// Scans the stores of `q` older than ordinal `start`, youngest first, for
/// an address conflict with a load at `addr`/`bytes`. Same cursor contract
/// as [`ff_scan`]: skipped stores were address-known and disjoint, which
/// stays true (addresses are static, readiness is monotone), so the
/// returned cursor is where the next cycle's scan resumes.
fn disamb_scan(
    rob: &Rob,
    q: &MemQueue,
    start: u64,
    cycle: u64,
    addr: u32,
    bytes: u32,
) -> (DisambScan, u64) {
    for (so, sslot) in q.stores_older_than(start) {
        if let Some(out) = disamb_rule(sslot, rob.get(sslot).mem(), cycle, addr, bytes) {
            return (out, so + 1);
        }
    }
    (DisambScan::Cache, 0)
}

/// Fast forwarding's decision (§2.2.2) against one older LVAQ store, in
/// `sslot`, for a load identified by `($sp` version, offset, bytes)`.
/// `None` means the store is provably disjoint in the same frame version
/// and the scan moves on to the next older store. Both kernels' scans
/// decide through here.
fn ff_rule(sslot: usize, sm: &MemState, lver: u64, loff: i32, lbytes: u32) -> Option<FfScan> {
    match sm.stack_slot {
        // No stack-slot identity: independence cannot be proven.
        None => Some(FfScan::Blocked),
        // Offsets are incomparable across an `$sp` change.
        Some((sver, _)) if sver != lver => Some(FfScan::Blocked),
        Some((_, soff)) if soff == loff && sm.bytes == lbytes => Some(FfScan::Match(sslot)),
        // A partial overlap blocks.
        Some((_, soff)) => ranges_overlap(soff, sm.bytes, loff, lbytes).then_some(FfScan::Blocked),
    }
}

/// In-queue disambiguation's decision against one older store, in
/// `sslot`, for a load at `addr`/`bytes`. `None` means the store's
/// address is known and disjoint and the scan moves on. Both kernels'
/// scans decide through here.
fn disamb_rule(
    sslot: usize,
    sm: &MemState,
    cycle: u64,
    addr: u32,
    bytes: u32,
) -> Option<DisambScan> {
    if !sm.addr_known(cycle) {
        return Some(DisambScan::Blocked);
    }
    if !ranges_overlap_u32(sm.addr, sm.bytes, addr, bytes) {
        return None;
    }
    Some(if !sm.data_known(cycle) {
        DisambScan::Blocked
    } else if contains(sm.addr, sm.bytes, addr, bytes) {
        DisambScan::Forward(sslot)
    } else {
        // Partial overlap with the data available: conservatively go to
        // the cache (after the store drains).
        DisambScan::Cache
    })
}

/// Merges two uid-sorted issue-candidate lists, preserving order.
fn merge_by_uid(a: Vec<(u64, usize)>, b: Vec<(u64, usize)>) -> Vec<(u64, usize)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn ranges_overlap(a_off: i32, a_bytes: u32, b_off: i32, b_bytes: u32) -> bool {
    let (a0, a1) = (a_off as i64, a_off as i64 + a_bytes as i64);
    let (b0, b1) = (b_off as i64, b_off as i64 + b_bytes as i64);
    a0 < b1 && b0 < a1
}

fn ranges_overlap_u32(a: u32, a_bytes: u32, b: u32, b_bytes: u32) -> bool {
    let (a0, a1) = (a as u64, a as u64 + a_bytes as u64);
    let (b0, b1) = (b as u64, b as u64 + b_bytes as u64);
    a0 < b1 && b0 < a1
}

fn contains(outer: u32, outer_bytes: u32, inner: u32, inner_bytes: u32) -> bool {
    outer as u64 <= inner as u64
        && inner as u64 + inner_bytes as u64 <= outer as u64 + outer_bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::SteerPolicy;
    use dda_isa::{AluOp, Gpr, MemWidth, StreamHint};
    use dda_program::{FunctionBuilder, ProgramBuilder};

    fn build(mut f: FunctionBuilder) -> Program {
        f.halt();
        let mut b = ProgramBuilder::new();
        b.add_function(f);
        b.build().unwrap()
    }

    fn run(cfg: MachineConfig, p: &Program) -> SimResult {
        Simulator::new(cfg).unwrap().run(p, 10_000_000).unwrap()
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..4000 {
            f.load_imm(Gpr::T0, i);
        }
        let r = run(MachineConfig::iscapaper_base(), &build(f));
        assert!(r.halted);
        assert_eq!(r.committed, 4001);
        assert!(r.ipc() > 10.0, "ipc was {}", r.ipc());
    }

    #[test]
    fn dependent_chain_is_serialised() {
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 0);
        for _ in 0..1000 {
            f.addi(Gpr::T0, Gpr::T0, 1);
        }
        let r = run(MachineConfig::iscapaper_base(), &build(f));
        // One add per cycle at best: cycles >= 1000.
        assert!(r.cycles >= 1000, "cycles was {}", r.cycles);
        assert!(r.ipc() < 1.5);
    }

    #[test]
    fn committed_matches_dynamic_stream_across_configs() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -64);
        for i in 0..50 {
            f.store_local(Gpr::T0, (i % 8) * 4);
            f.load_local(Gpr::T1, (i % 8) * 4);
            f.load(
                Gpr::T2,
                Gpr::GP,
                (i % 16) * 4,
                MemWidth::Word,
                StreamHint::NonLocal,
            );
        }
        f.addi(Gpr::SP, Gpr::SP, 64);
        let p = build(f);
        let base = run(MachineConfig::iscapaper_base(), &p);
        let dec = run(MachineConfig::n_plus_m(2, 2).with_optimizations(), &p);
        assert_eq!(base.committed, dec.committed);
        assert!(base.halted && dec.halted);
        // Decoupled machine actually used the LVAQ.
        assert_eq!(dec.lvaq.loads + dec.lvaq.stores, 100);
        assert_eq!(dec.lsq.loads, 50);
        assert_eq!(base.lvaq.loads + base.lvaq.stores, 0);
    }

    #[test]
    fn load_hit_latency_visible_in_dependent_chain() {
        // Pointer-chase style: each load depends on the previous value.
        let mut f = FunctionBuilder::new("main");
        f.load_imm(Gpr::T0, 0);
        for _ in 0..200 {
            f.load(Gpr::T1, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
            f.alu(AluOp::Add, Gpr::T0, Gpr::T0, Gpr::T1);
        }
        let r = run(MachineConfig::iscapaper_base(), &build(f));
        // All 200 loads touch one line: one primary miss, the rest hit or
        // merge into the outstanding fill.
        assert_eq!(r.l1.misses, 1);
        assert_eq!(r.l1.hits + r.l1.miss_merges, 199);
        assert!(r.l1.hits > 50, "hits = {}", r.l1.hits);
    }

    #[test]
    fn store_to_load_forwarding_in_lsq() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..100 {
            f.load_imm(Gpr::T0, i);
            f.store(Gpr::T0, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
            f.load(Gpr::T1, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
        }
        let r = run(MachineConfig::iscapaper_base(), &build(f));
        assert!(r.lsq.forwards > 50, "forwards = {}", r.lsq.forwards);
    }

    #[test]
    fn fast_forwarding_counts_in_lvaq() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        for i in 0..100 {
            f.load_imm(Gpr::T0, i);
            f.store_local(Gpr::T0, 8);
            f.load_local(Gpr::T1, 8);
        }
        f.addi(Gpr::SP, Gpr::SP, 32);
        let p = build(f);
        let no_ff = run(MachineConfig::n_plus_m(2, 2), &p);
        let ff = run(MachineConfig::n_plus_m(2, 2).with_fast_forwarding(true), &p);
        assert_eq!(no_ff.lvaq.fast_forwards, 0);
        assert!(
            ff.lvaq.fast_forwards > 50,
            "fast forwards = {}",
            ff.lvaq.fast_forwards
        );
        assert!(ff.cycles <= no_ff.cycles);
    }

    #[test]
    fn fast_forwarding_blocked_by_sp_change() {
        // Store, then change $sp, then load the same offset: versions
        // differ, so fast forwarding must not match.
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        f.load_imm(Gpr::T0, 7);
        f.store_local(Gpr::T0, 8);
        f.addi(Gpr::SP, Gpr::SP, -16);
        f.load_local(Gpr::T1, 24); // same address, different version
        f.addi(Gpr::SP, Gpr::SP, 48);
        let p = build(f);
        let r = run(MachineConfig::n_plus_m(2, 2).with_fast_forwarding(true), &p);
        assert_eq!(r.lvaq.fast_forwards, 0);
    }

    #[test]
    fn combining_groups_same_line_loads() {
        // Bursty sequential local loads (register-restore style).
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -64);
        for i in 0..8 {
            f.store_local(Gpr::T0, i * 4);
        }
        // Separate dependence chains so loads are simultaneously ready.
        for _ in 0..50 {
            for i in 0..8 {
                f.load_local(Gpr::new(8 + i as u8), i * 4);
            }
        }
        f.addi(Gpr::SP, Gpr::SP, 64);
        let p = build(f);
        let off = run(MachineConfig::n_plus_m(3, 1), &p);
        let on = run(MachineConfig::n_plus_m(3, 1).with_combining(4), &p);
        assert_eq!(off.lvaq.combined, 0);
        assert!(on.lvaq.combined > 100, "combined = {}", on.lvaq.combined);
        assert!(on.cycles < off.cycles, "{} !< {}", on.cycles, off.cycles);
    }

    #[test]
    fn more_l1_ports_help_bandwidth_bound_code() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..1500 {
            f.load(
                Gpr::new((8 + i % 8) as u8),
                Gpr::GP,
                (i % 64) * 4,
                MemWidth::Word,
                StreamHint::NonLocal,
            );
        }
        let p = build(f);
        let one = run(MachineConfig::n_plus_m(1, 0), &p);
        let four = run(MachineConfig::n_plus_m(4, 0), &p);
        assert!(
            four.cycles * 2 < one.cycles,
            "4 ports {} vs 1 port {}",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn misclassification_is_detected_and_penalised() {
        // A stack access through a copied register under SpBase steering.
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        f.mov(Gpr::T5, Gpr::SP);
        f.store(Gpr::T0, Gpr::T5, 0, MemWidth::Word, StreamHint::Unknown);
        f.addi(Gpr::SP, Gpr::SP, 32);
        let p = build(f);
        let mut cfg = MachineConfig::n_plus_m(2, 2);
        cfg.decoupling.steer = SteerPolicy::SpBase;
        let r = run(cfg, &p);
        assert_eq!(r.misclassifications, 1);
        // Oracle steering never mispredicts.
        let mut cfg = MachineConfig::n_plus_m(2, 2);
        cfg.decoupling.steer = SteerPolicy::Oracle;
        let r = run(cfg, &p);
        assert_eq!(r.misclassifications, 0);
    }

    #[test]
    fn small_lsq_causes_dispatch_stalls() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..200 {
            f.load(
                Gpr::T0,
                Gpr::GP,
                (i % 512) * 32,
                MemWidth::Word,
                StreamHint::NonLocal,
            );
        }
        let p = build(f);
        let mut cfg = MachineConfig::iscapaper_base();
        cfg.lsq_size = 4;
        let r = run(cfg, &p);
        assert!(r.stall_lsq_full > 0);
    }

    #[test]
    fn instruction_budget_cuts_run_short() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..1000 {
            f.load_imm(Gpr::T0, i);
        }
        let p = build(f);
        let r = Simulator::new(MachineConfig::iscapaper_base())
            .unwrap()
            .run(&p, 100)
            .unwrap();
        assert_eq!(r.committed, 100);
        assert!(!r.halted);
    }

    #[test]
    fn recursion_runs_correctly_under_decoupling() {
        // Recursive sum with frame saves — heavy LVAQ traffic.
        let mut main = FunctionBuilder::new("main");
        main.load_imm(Gpr::A0, 40);
        main.call("sum");
        main.halt();
        let mut sum = FunctionBuilder::with_frame("sum", 8);
        let rec = sum.new_label();
        sum.bnez(Gpr::A0, rec);
        sum.load_imm(Gpr::V0, 0);
        sum.ret();
        sum.bind(rec);
        sum.addi(Gpr::SP, Gpr::SP, -8);
        sum.store_local(Gpr::RA, 0);
        sum.store_local(Gpr::A0, 4);
        sum.addi(Gpr::A0, Gpr::A0, -1);
        sum.call("sum");
        sum.load_local(Gpr::RA, 0);
        sum.load_local(Gpr::A0, 4);
        sum.alu(AluOp::Add, Gpr::V0, Gpr::V0, Gpr::A0);
        sum.addi(Gpr::SP, Gpr::SP, 8);
        sum.ret();
        let mut b = ProgramBuilder::new();
        b.add_function(main);
        b.add_function(sum);
        let p = b.build().unwrap();
        let base = run(MachineConfig::iscapaper_base(), &p);
        let dec = run(MachineConfig::n_plus_m(2, 2).with_optimizations(), &p);
        assert_eq!(base.committed, dec.committed);
        assert!(dec.lvaq.loads > 0 && dec.lvaq.stores > 0);
        assert!(dec.lvc.unwrap().accesses() > 0);
    }

    #[test]
    fn commit_width_bounds_retirement_rate() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..2000 {
            f.load_imm(Gpr::T0, i);
        }
        let p = build(f);
        for width in [1u32, 2, 4] {
            let mut cfg = MachineConfig::iscapaper_base();
            cfg.commit_width = width;
            let r = run(cfg, &p);
            // 2001 instructions at `width` per cycle is a hard floor.
            assert!(
                r.cycles >= 2001 / width as u64,
                "width {width}: {} cycles",
                r.cycles
            );
            assert!(
                r.ipc() <= width as f64 + 1e-9,
                "width {width}: IPC {}",
                r.ipc()
            );
        }
    }

    #[test]
    fn issue_width_bounds_throughput() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..2000 {
            f.load_imm(Gpr::T0, i);
        }
        let p = build(f);
        let mut cfg = MachineConfig::iscapaper_base();
        cfg.issue_width = 2;
        let r = run(cfg, &p);
        assert!(r.ipc() <= 2.0 + 1e-9, "IPC {}", r.ipc());
    }

    #[test]
    fn combining_window_excludes_non_adjacent_entries() {
        // Two same-line local loads separated by more than the window
        // must not combine under 2-way combining.
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        for _ in 0..50 {
            f.load_local(Gpr::T0, 0);
            f.load_local(Gpr::T1, 4); // same line, adjacent: combinable
            f.store(Gpr::T2, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
            f.load_local(Gpr::T3, 8); // same line but 2 entries away in LVAQ? no:
                                      // LSQ entries do not occupy LVAQ slots, so
                                      // this is still adjacent — include a local
                                      // store to break adjacency instead.
            f.store_local(Gpr::T4, 28);
            f.load_local(Gpr::T5, 12);
        }
        f.addi(Gpr::SP, Gpr::SP, 32);
        let p = build(f);
        let two = run(MachineConfig::n_plus_m(3, 1).with_combining(2), &p);
        let four = run(MachineConfig::n_plus_m(3, 1).with_combining(4), &p);
        // A wider window can only combine at least as much.
        assert!(four.lvaq.combined >= two.lvaq.combined);
        assert!(two.lvaq.combined > 0);
    }

    #[test]
    fn misclassification_penalty_slows_resolution() {
        // An ambiguous stack access under SpBase steering pays the
        // recovery penalty on its address path.
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        for _ in 0..100 {
            f.mov(Gpr::T5, Gpr::SP);
            f.store(Gpr::T0, Gpr::T5, 0, MemWidth::Word, StreamHint::Unknown);
            // The dependent reload keeps the store's resolution on the
            // critical path.
            f.load(Gpr::T1, Gpr::T5, 0, MemWidth::Word, StreamHint::Unknown);
        }
        f.addi(Gpr::SP, Gpr::SP, 32);
        let p = build(f);
        let mk = |penalty: u32| {
            let mut c = MachineConfig::n_plus_m(2, 2);
            c.decoupling.steer = SteerPolicy::SpBase;
            c.decoupling.misclass_penalty = penalty;
            c
        };
        let cheap = run(mk(0), &p);
        let costly = run(mk(32), &p);
        assert_eq!(cheap.misclassifications, costly.misclassifications);
        assert!(cheap.misclassifications >= 100);
        assert!(
            costly.cycles > cheap.cycles,
            "penalty 32: {} vs penalty 0: {}",
            costly.cycles,
            cheap.cycles
        );
    }

    #[test]
    fn queue_occupancy_is_sampled() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -16);
        for _ in 0..50 {
            f.store_local(Gpr::T0, 0);
            f.load(Gpr::T1, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
        }
        f.addi(Gpr::SP, Gpr::SP, 16);
        let p = build(f);
        let r = run(MachineConfig::n_plus_m(2, 2), &p);
        assert_eq!(r.lsq.occupancy.samples(), r.cycles);
        assert_eq!(r.lvaq.occupancy.samples(), r.cycles);
        assert!(r.lvaq.occupancy.max().unwrap_or(0) >= 1);
    }

    #[test]
    fn replication_commits_identically_and_frees_ghosts() {
        // Figure 4-style ambiguous access (frame slot via a pointer) plus
        // surrounding local/global traffic, run under footnote-3
        // replication.
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        for i in 0..40 {
            f.load_imm(Gpr::T0, i);
            f.addi(Gpr::AT, Gpr::SP, 8);
            f.store(Gpr::T0, Gpr::AT, 0, MemWidth::Word, StreamHint::Unknown);
            f.load(Gpr::T1, Gpr::AT, 0, MemWidth::Word, StreamHint::Unknown);
            f.store_local(Gpr::T1, 12);
            f.load(Gpr::T2, Gpr::GP, 4, MemWidth::Word, StreamHint::NonLocal);
        }
        f.addi(Gpr::SP, Gpr::SP, 32);
        let p = build(f);

        let mut oracle_cfg = MachineConfig::n_plus_m(2, 2).with_optimizations();
        oracle_cfg.decoupling.steer = SteerPolicy::Oracle;
        let mut repl_cfg = MachineConfig::n_plus_m(2, 2).with_optimizations();
        repl_cfg.decoupling.steer = SteerPolicy::Replicate;

        let oracle = run(oracle_cfg, &p);
        let repl = run(repl_cfg, &p);
        assert_eq!(oracle.committed, repl.committed);
        assert!(oracle.halted && repl.halted);
        // Replication never counts a misprediction.
        assert_eq!(repl.misclassifications, 0);
        // The ambiguous accesses still end up accounted in their
        // ground-truth queue.
        assert_eq!(repl.lvaq.loads, oracle.lvaq.loads);
        assert_eq!(repl.lvaq.stores, oracle.lvaq.stores);
        // Ghost occupancy makes replication at best as fast as oracle.
        assert!(repl.cycles >= oracle.cycles);
    }

    #[test]
    fn replication_needs_space_in_both_queues() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -64);
        for i in 0..64 {
            f.addi(Gpr::AT, Gpr::SP, (i % 8) * 4);
            f.store(Gpr::T0, Gpr::AT, 0, MemWidth::Word, StreamHint::Unknown);
        }
        f.addi(Gpr::SP, Gpr::SP, 64);
        let p = build(f);
        let mut cfg = MachineConfig::n_plus_m(2, 2);
        cfg.decoupling.steer = SteerPolicy::Replicate;
        cfg.lsq_size = 2; // ghosts of the (actually local) stores need LSQ room
        let r = run(cfg, &p);
        assert!(r.halted);
        assert!(r.stall_lsq_full > 0, "ghost copies must occupy the LSQ");
    }

    #[test]
    fn traces_record_monotone_stage_times() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -32);
        f.load_imm(Gpr::T0, 7);
        f.store_local(Gpr::T0, 8);
        f.load_local(Gpr::T1, 8);
        f.load(Gpr::T2, Gpr::GP, 0, MemWidth::Word, StreamHint::NonLocal);
        let p = build(f);
        let sim = Simulator::new(MachineConfig::n_plus_m(2, 2).with_optimizations()).unwrap();
        let (res, traces) = sim.run_traced(&p, 1000, 1000).unwrap();
        assert_eq!(res.committed as usize, traces.len());
        for t in &traces {
            if let Some(i) = t.issued_at {
                assert!(i > t.dispatched_at, "{t:?}");
            }
            if let Some(c) = t.completed_at {
                assert!(c >= t.dispatched_at, "{t:?}");
                assert!(t.committed_at > c || t.instr.is_store(), "{t:?}");
            }
            assert!(t.committed_at >= t.dispatched_at, "{t:?}");
        }
        // Sequence numbers are contiguous and sorted.
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.seq, i as u64);
        }
        // The local store retired through the LVAQ; the global load used
        // the LSQ cache path.
        use crate::trace::MemPath;
        let store = traces.iter().find(|t| t.instr.is_store()).unwrap();
        assert_eq!(store.in_lvaq, Some(true));
        assert_eq!(store.mem_path, MemPath::StoreRetired);
        let gload = traces
            .iter()
            .find(|t| t.instr.is_load() && t.in_lvaq == Some(false))
            .unwrap();
        assert_eq!(gload.mem_path, MemPath::Cache);
    }

    #[test]
    fn traces_flag_fast_forwarded_loads() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -16);
        f.load_imm(Gpr::T0, 3);
        f.store_local(Gpr::T0, 4);
        for _ in 0..20 {
            f.nop();
        }
        f.load_local(Gpr::T1, 4);
        let p = build(f);
        let sim = Simulator::new(MachineConfig::n_plus_m(2, 2).with_fast_forwarding(true)).unwrap();
        let (res, traces) = sim.run_traced(&p, 1000, 1000).unwrap();
        assert!(res.lvaq.fast_forwards >= 1);
        use crate::trace::MemPath;
        assert!(traces.iter().any(|t| t.mem_path == MemPath::FastForwarded));
    }

    #[test]
    fn trace_limit_caps_recording() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..50 {
            f.load_imm(Gpr::T0, i);
        }
        let p = build(f);
        let sim = Simulator::new(MachineConfig::iscapaper_base()).unwrap();
        let (_, traces) = sim.run_traced(&p, 1000, 10).unwrap();
        assert_eq!(traces.len(), 10);
    }

    #[test]
    fn lvc_and_l1_hit_latencies_respected() {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -16);
        // Warm both caches, then measure dependent-load chains.
        f.store_local(Gpr::T0, 0);
        for _ in 0..100 {
            f.load_local(Gpr::T1, 0);
        }
        f.addi(Gpr::SP, Gpr::SP, 16);
        let p = build(f);
        let r = run(MachineConfig::n_plus_m(2, 2), &p);
        // While the store sits in the LVAQ the loads forward from it (the
        // §4.3 observation that 50–90 % of LVC accesses are satisfied in
        // the queue); after it commits they hit in the LVC.
        let lvc = r.lvc.unwrap();
        assert_eq!(
            lvc.hits + r.lvaq.forwards + lvc.miss_merges,
            100,
            "lvc = {lvc:?}"
        );
        assert!(r.lvaq.forwards > 0);
        assert!(lvc.hits > 0);
    }

    /// Memory-heavy straight-line workload for the window/hand-off tests:
    /// local stores/loads interleaved with global traffic (~2000 dynamic
    /// instructions).
    fn windowed_program() -> Program {
        let mut f = FunctionBuilder::new("main");
        f.addi(Gpr::SP, Gpr::SP, -64);
        for i in 0..400 {
            f.load_imm(Gpr::T0, i);
            f.store_local(Gpr::T0, (i % 8) * 4);
            f.load_local(Gpr::T1, (i % 8) * 4);
            f.load(
                Gpr::T2,
                Gpr::GP,
                (i % 32) * 4,
                MemWidth::Word,
                StreamHint::NonLocal,
            );
            f.alu(AluOp::Add, Gpr::T3, Gpr::T1, Gpr::T2);
        }
        f.addi(Gpr::SP, Gpr::SP, 64);
        build(f)
    }

    #[test]
    fn marking_never_perturbs_the_run() {
        let p = windowed_program();
        let sim = Simulator::new(MachineConfig::n_plus_m(4, 2).with_optimizations()).unwrap();
        let plain = sim.run(&p, 1200).unwrap();
        let w = sim.run_window(Vm::new(p.clone()), None, 500, 700).unwrap();
        // The mark snapshot (draining occupancy flush included) must not
        // change anything about the run itself.
        assert_eq!(w.total, plain);
        // The warm-up boundary is quantized by the wide commit stage: the
        // prefix may run over the requested 500 by up to commit width - 1.
        let prefix = plain.committed - w.window.committed;
        assert!((500..500 + 16).contains(&prefix), "prefix = {prefix}");
        assert!(w.window.cycles < plain.cycles);
        assert!(w.window.lsq.occupancy.samples() < plain.lsq.occupancy.samples());
        // A zero warm-up window is the whole run.
        let w0 = sim.run_window(Vm::new(p), None, 0, 1200).unwrap();
        assert_eq!(w0.window, w0.total);
        assert_eq!(w0.total, plain);
    }

    #[test]
    fn window_is_empty_when_the_program_halts_inside_warmup() {
        let mut f = FunctionBuilder::new("main");
        for i in 0..20 {
            f.load_imm(Gpr::T0, i);
        }
        let p = build(f);
        let sim = Simulator::new(MachineConfig::iscapaper_base()).unwrap();
        let w = sim.run_window(Vm::new(p), None, 10_000, 500).unwrap();
        assert!(w.total.halted);
        assert_eq!(w.window.committed, 0);
        assert_eq!(w.window.cycles, 0);
    }

    #[test]
    fn window_from_a_fast_forwarded_vm_is_deterministic_and_continues() {
        let p = windowed_program();
        let sim = Simulator::new(MachineConfig::n_plus_m(4, 2).with_optimizations()).unwrap();
        let mut vm1 = Vm::new(p.clone());
        vm1.fast_forward(700).unwrap();
        let mut vm2 = Vm::new(p);
        vm2.fast_forward(700).unwrap();
        let a = sim.run_window(vm1, None, 0, 300).unwrap().total;
        let b = sim.run_window(vm2, None, 0, 300).unwrap().total;
        assert_eq!(a, b);
        assert_eq!(a.committed, 300);
        assert!(!a.halted);
    }

    #[test]
    fn warm_tags_must_match_the_hierarchy() {
        let p = windowed_program();
        // Tags from a machine with an LVC cannot warm a machine without.
        let donor = Hierarchy::new(dda_mem::HierarchyConfig::n_plus_m(4, 2));
        let tags = donor.export_tags();
        let sim = Simulator::new(MachineConfig::iscapaper_base()).unwrap();
        let err = sim.run_window(Vm::new(p), Some(&tags), 0, 100).unwrap_err();
        assert_eq!(err, SimError::WarmStateMismatch);
    }

    #[test]
    fn functionally_warmed_tags_remove_cold_misses() {
        let p = windowed_program();
        let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let sim = Simulator::new(cfg.clone()).unwrap();
        // Functionally execute the whole program once, feeding every
        // access to the timing-free warmup model — the sampling driver's
        // fast-forward flow.
        let mut warm = dda_mem::FunctionalWarmup::new(&cfg.hierarchy);
        let mut vm = Vm::new(p.clone());
        vm.fast_forward_observed(u64::MAX, |d| {
            if let Some(m) = &d.mem {
                warm.touch(m.addr, m.is_store, m.is_local());
            }
        })
        .unwrap();
        let tags = warm.tags();
        let cold = sim.run(&p, 2_000).unwrap();
        let warmed = sim
            .run_window(Vm::new(p), Some(&tags), 0, 2_000)
            .unwrap()
            .total;
        assert_eq!(cold.committed, warmed.committed);
        assert!(
            warmed.l1.misses < cold.l1.misses,
            "warmed {} vs cold {}",
            warmed.l1.misses,
            cold.l1.misses
        );
        let (wl, cl) = (warmed.lvc.unwrap(), cold.lvc.unwrap());
        assert!(
            wl.misses <= cl.misses,
            "lvc warmed {} vs cold {}",
            wl.misses,
            cl.misses
        );
    }
}
