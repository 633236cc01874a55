//! The reference kernel: the straightforward rescan-per-cycle
//! implementation of the stages where the fast kernel schedules
//! incrementally, kept as the differential oracle for it.
//!
//! Selected by [`MachineConfig::reference_kernel`]. Each stage here
//! reaches the same decisions as its fast counterpart by an independent
//! algorithm:
//!
//! * writeback pops a binary heap instead of draining the event wheel;
//! * memory scheduling snapshots each queue and rescans every older
//!   store for every load, every cycle, instead of following wake lists,
//!   waiter lists and scan cursors;
//! * issue walks the whole ROB instead of the ready lists and latches;
//! * occupancy goes straight into the histograms each cycle instead of
//!   into flat counters drained at the end.
//!
//! The per-store rules both kernels apply ([`ff_rule`], [`disamb_rule`])
//! and everything else about a cycle — commit, dispatch, the event
//! handler, the launch and forwarding effects — are shared with the fast
//! kernel in the parent module.
//!
//! [`MachineConfig::reference_kernel`]: crate::MachineConfig::reference_kernel

use std::cmp::Reverse;

use super::{disamb_rule, ff_rule, Core, DisambScan, FfScan, MemState, Rob, SimError};

impl Core<'_> {
    /// The reference kernel's writeback, memory scheduling, issue,
    /// dispatch and occupancy sampling for one cycle.
    pub(super) fn reference_stages(&mut self, max_instructions: u64) -> Result<(), SimError> {
        // Writeback: pop the heap while due.
        while let Some(&Reverse((t, _, _, _))) = self.events_heap.peek() {
            if t > self.cycle {
                break;
            }
            let Some(Reverse((t, uid, slot, kind))) = self.events_heap.pop() else {
                break;
            };
            self.writeback_event(t, uid, slot, kind);
        }
        if self.cfg.decoupling.fast_forwarding && self.hier.has_lvc() {
            self.fast_forward_pass();
        }
        self.launch_queue(false);
        if self.hier.has_lvc() {
            self.launch_queue(true);
        }
        self.issue_rob_walk();
        self.dispatch(max_instructions)?;
        self.res.lsq.occupancy.record(self.lsq.len() as u64);
        if self.hier.has_lvc() {
            self.res.lvaq.occupancy.record(self.lvaq.len() as u64);
        }
        Ok(())
    }

    /// The ROB slots of one queue's residents, oldest first, as of the
    /// start of a scheduling pass.
    fn queue_snapshot(&self, in_lvaq: bool) -> Vec<usize> {
        let q = if in_lvaq { &self.lvaq } else { &self.lsq };
        (0..q.len()).map(|j| q.slot_at(j)).collect()
    }

    /// Fast data forwarding (paper §2.2.2): match an LVAQ load to an
    /// earlier LVAQ store on `($sp` version, static offset)` — *before*
    /// effective addresses are computed — and bypass the value in one
    /// cycle, using neither the AGU result nor an LVC port.
    fn fast_forward_pass(&mut self) {
        let snapshot = self.queue_snapshot(true);
        for (i, &slot) in snapshot.iter().enumerate() {
            let Some((lver, loff, lbytes)) = self.ff_candidate(slot) else {
                continue;
            };
            let outcome = older_stores(&self.rob, &snapshot[..i])
                .find_map(|(s, m)| ff_rule(s, m, lver, loff, lbytes))
                .unwrap_or(FfScan::NoMatch);
            // A match whose data is not ready yet retries next cycle.
            self.apply_fast_forward(slot, outcome);
        }
    }

    /// Launches ready loads of one queue to the cache (or forwards from an
    /// earlier store), respecting intra-queue disambiguation. Ports were
    /// claimed at address-generation issue, so no arbitration happens
    /// here; a refused cache access retries next cycle.
    fn launch_queue(&mut self, in_lvaq: bool) {
        let cycle = self.cycle;
        let snapshot = self.queue_snapshot(in_lvaq);
        for (i, &slot) in snapshot.iter().enumerate() {
            let Some((addr, bytes)) = self.launch_candidate(slot, in_lvaq) else {
                continue;
            };
            let outcome = older_stores(&self.rob, &snapshot[..i])
                .find_map(|(s, m)| disamb_rule(s, m, cycle, addr, bytes))
                .unwrap_or(DisambScan::Cache);
            self.apply_launch(in_lvaq, slot, addr, outcome);
        }
    }

    /// Issue: walks every live ROB slot oldest-first, re-asking every
    /// resource for every candidate.
    fn issue_rob_walk(&mut self) {
        let mut budget = self.cfg.issue_width;
        let slots: Vec<usize> = self.rob.slots_in_age_order().collect();
        for slot in slots {
            if budget == 0 {
                break;
            }
            self.try_issue_slot(slot, &mut budget, None);
        }
    }
}

/// The stores among a queue snapshot's `older` entries, youngest first —
/// the order in which both scan rules are asked.
fn older_stores<'a>(
    rob: &'a Rob,
    older: &'a [usize],
) -> impl Iterator<Item = (usize, &'a MemState)> + 'a {
    older.iter().rev().filter_map(|&s| {
        let m = rob.get(s).mem.as_deref()?;
        m.is_store.then_some((s, m))
    })
}
