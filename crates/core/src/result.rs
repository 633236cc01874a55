//! Simulation results and statistics.

use dda_mem::{DataCacheStats, L2Stats};
use dda_stats::{ByteReader, ByteWriter, DecodeError, Histogram};

use crate::fault::FaultStats;

/// Per-queue (LSQ or LVAQ) statistics.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct QueueStats {
    /// Loads and stores that passed through the queue.
    pub loads: u64,
    /// Stores that passed through the queue.
    pub stores: u64,
    /// Loads satisfied by in-queue store→load forwarding (1-cycle).
    pub forwards: u64,
    /// Loads satisfied by *fast* data forwarding (offset-matched before
    /// address generation; LVAQ only).
    pub fast_forwards: u64,
    /// Cache accesses saved by access combining (each combined member
    /// after the first saves one port use; LVAQ only).
    pub combined: u64,
    /// Combining transactions (groups of ≥ 2 same-line accesses).
    pub combine_groups: u64,
    /// Cycles a ready load waited because no cache port was free.
    pub port_stall_cycles: u64,
    /// Occupancy sampled once per cycle.
    pub occupancy: Histogram,
}

impl QueueStats {
    /// Fraction of loads satisfied by any kind of in-queue forwarding.
    pub fn forward_fraction(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            (self.forwards + self.fast_forwards) as f64 / self.loads as f64
        }
    }

    fn delta(&self, earlier: &QueueStats) -> QueueStats {
        QueueStats {
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            forwards: self.forwards.saturating_sub(earlier.forwards),
            fast_forwards: self.fast_forwards.saturating_sub(earlier.fast_forwards),
            combined: self.combined.saturating_sub(earlier.combined),
            combine_groups: self.combine_groups.saturating_sub(earlier.combine_groups),
            port_stall_cycles: self
                .port_stall_cycles
                .saturating_sub(earlier.port_stall_cycles),
            occupancy: self.occupancy.diff(&earlier.occupancy),
        }
    }
}

fn cache_delta(later: &DataCacheStats, earlier: &DataCacheStats) -> DataCacheStats {
    DataCacheStats {
        reads: later.reads.saturating_sub(earlier.reads),
        writes: later.writes.saturating_sub(earlier.writes),
        hits: later.hits.saturating_sub(earlier.hits),
        misses: later.misses.saturating_sub(earlier.misses),
        miss_merges: later.miss_merges.saturating_sub(earlier.miss_merges),
        mshr_stalls: later.mshr_stalls.saturating_sub(earlier.mshr_stalls),
    }
}

fn l2_delta(later: &L2Stats, earlier: &L2Stats) -> L2Stats {
    L2Stats {
        requests_from_l1: later
            .requests_from_l1
            .saturating_sub(earlier.requests_from_l1),
        requests_from_lvc: later
            .requests_from_lvc
            .saturating_sub(earlier.requests_from_lvc),
        hits: later.hits.saturating_sub(earlier.hits),
        misses: later.misses.saturating_sub(earlier.misses),
        writebacks_in: later.writebacks_in.saturating_sub(earlier.writebacks_in),
        writebacks_to_memory: later
            .writebacks_to_memory
            .saturating_sub(earlier.writebacks_to_memory),
    }
}

fn fault_delta(later: &FaultStats, earlier: &FaultStats) -> FaultStats {
    FaultStats {
        l1_flips_injected: later
            .l1_flips_injected
            .saturating_sub(earlier.l1_flips_injected),
        lvc_flips_injected: later
            .lvc_flips_injected
            .saturating_sub(earlier.lvc_flips_injected),
        flips_detected: later.flips_detected.saturating_sub(earlier.flips_detected),
        flips_evicted: later.flips_evicted.saturating_sub(earlier.flips_evicted),
        // A point-in-time gauge, not a counter: the later value *is* the
        // window's state.
        flips_latent: later.flips_latent,
        grants_dropped: later.grants_dropped.saturating_sub(earlier.grants_dropped),
        grants_delayed: later.grants_delayed.saturating_sub(earlier.grants_delayed),
        forwards_corrupted: later
            .forwards_corrupted
            .saturating_sub(earlier.forwards_corrupted),
        forwards_detected: later
            .forwards_detected
            .saturating_sub(earlier.forwards_detected),
    }
}

/// The outcome of one simulation run.
#[derive(Clone, PartialEq, Debug)]
pub struct SimResult {
    /// Cycles elapsed until the last committed instruction.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Whether the program ran to `Halt` (as opposed to the instruction
    /// budget ending the run).
    pub halted: bool,
    /// Dispatch stalls because the ROB was full.
    pub stall_rob_full: u64,
    /// Dispatch stalls because the LSQ was full.
    pub stall_lsq_full: u64,
    /// Dispatch stalls because the LVAQ was full.
    pub stall_lvaq_full: u64,
    /// Memory accesses steered into the wrong queue (recovered with a
    /// penalty).
    pub misclassifications: u64,
    /// LSQ statistics.
    pub lsq: QueueStats,
    /// LVAQ statistics (all-zero when decoupling is off).
    pub lvaq: QueueStats,
    /// L1 D-cache statistics.
    pub l1: DataCacheStats,
    /// LVC statistics (`None` when no LVC).
    pub lvc: Option<DataCacheStats>,
    /// L2/bus statistics.
    pub l2: L2Stats,
    /// Sum of load latencies (issue/forward decision to data ready), for
    /// average-latency reporting.
    pub load_latency_sum: u64,
    /// Number of loads contributing to `load_latency_sum`.
    pub load_latency_count: u64,
    /// Fault-injection accounting; all-zero under
    /// [`crate::FaultPlan::none`].
    pub faults: FaultStats,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Average load latency in cycles (0 when no loads).
    pub fn avg_load_latency(&self) -> f64 {
        if self.load_latency_count == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.load_latency_count as f64
        }
    }

    /// Speedup of this run over a baseline (ratio of IPCs; both runs must
    /// have committed the same instruction stream for this to be
    /// meaningful).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        if base.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / base.ipc()
        }
    }

    /// The slice of work between an `earlier` snapshot of the same run and
    /// this result: every monotone counter is subtracted (saturating, so a
    /// snapshot from a different run degrades to zeros rather than
    /// wrapping), occupancy histograms via [`Histogram::diff`], and
    /// point-in-time state (`halted`, latent fault gauge, the LVC's
    /// presence) is taken from `self`.
    ///
    /// This is how a detailed measurement window is carved out of a run
    /// that includes a warm-up prefix: simulate prefix + window in one
    /// go, snapshot at the prefix boundary, and `delta` the end against
    /// the snapshot.
    pub fn delta(&self, earlier: &SimResult) -> SimResult {
        SimResult {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            committed: self.committed.saturating_sub(earlier.committed),
            halted: self.halted,
            stall_rob_full: self.stall_rob_full.saturating_sub(earlier.stall_rob_full),
            stall_lsq_full: self.stall_lsq_full.saturating_sub(earlier.stall_lsq_full),
            stall_lvaq_full: self.stall_lvaq_full.saturating_sub(earlier.stall_lvaq_full),
            misclassifications: self
                .misclassifications
                .saturating_sub(earlier.misclassifications),
            lsq: self.lsq.delta(&earlier.lsq),
            lvaq: self.lvaq.delta(&earlier.lvaq),
            l1: cache_delta(&self.l1, &earlier.l1),
            lvc: self.lvc.as_ref().map(|later| match &earlier.lvc {
                Some(e) => cache_delta(later, e),
                None => *later,
            }),
            l2: l2_delta(&self.l2, &earlier.l2),
            load_latency_sum: self
                .load_latency_sum
                .saturating_sub(earlier.load_latency_sum),
            load_latency_count: self
                .load_latency_count
                .saturating_sub(earlier.load_latency_count),
            faults: fault_delta(&self.faults, &earlier.faults),
        }
    }
}

// ------------------------------------------------------- result codec --
//
// Serialized `SimResult`s are what the design-space-exploration result
// cache persists, so the format carries the same commitments as the
// checkpoint format: a magic word, a version word, and fixed-width
// little-endian fields via `dda_stats::codec`. Every counter — occupancy
// histograms and fault accounting included — round-trips bit-exactly;
// a cached record that decodes must be indistinguishable from a fresh
// simulation of the same inputs.

/// Magic opening a serialized [`SimResult`].
const RESULT_MAGIC: &[u8; 8] = b"DDARSLT1";
/// Format version of the serialized [`SimResult`] layout.
const RESULT_VERSION: u32 = 1;

fn encode_queue(w: &mut ByteWriter, q: &QueueStats) {
    w.put_u64(q.loads);
    w.put_u64(q.stores);
    w.put_u64(q.forwards);
    w.put_u64(q.fast_forwards);
    w.put_u64(q.combined);
    w.put_u64(q.combine_groups);
    w.put_u64(q.port_stall_cycles);
    q.occupancy.encode(w);
}

fn decode_queue(r: &mut ByteReader) -> Result<QueueStats, DecodeError> {
    Ok(QueueStats {
        loads: r.get_u64()?,
        stores: r.get_u64()?,
        forwards: r.get_u64()?,
        fast_forwards: r.get_u64()?,
        combined: r.get_u64()?,
        combine_groups: r.get_u64()?,
        port_stall_cycles: r.get_u64()?,
        occupancy: Histogram::decode(r)?,
    })
}

fn encode_cache(w: &mut ByteWriter, c: &DataCacheStats) {
    w.put_u64(c.reads);
    w.put_u64(c.writes);
    w.put_u64(c.hits);
    w.put_u64(c.misses);
    w.put_u64(c.miss_merges);
    w.put_u64(c.mshr_stalls);
}

fn decode_cache(r: &mut ByteReader) -> Result<DataCacheStats, DecodeError> {
    Ok(DataCacheStats {
        reads: r.get_u64()?,
        writes: r.get_u64()?,
        hits: r.get_u64()?,
        misses: r.get_u64()?,
        miss_merges: r.get_u64()?,
        mshr_stalls: r.get_u64()?,
    })
}

impl SimResult {
    /// Serializes this result with the format's magic and version words.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(512);
        w.put_header(RESULT_MAGIC, RESULT_VERSION);
        w.put_u64(self.cycles);
        w.put_u64(self.committed);
        w.put_u8(self.halted as u8);
        w.put_u64(self.stall_rob_full);
        w.put_u64(self.stall_lsq_full);
        w.put_u64(self.stall_lvaq_full);
        w.put_u64(self.misclassifications);
        encode_queue(&mut w, &self.lsq);
        encode_queue(&mut w, &self.lvaq);
        encode_cache(&mut w, &self.l1);
        match &self.lvc {
            Some(lvc) => {
                w.put_u8(1);
                encode_cache(&mut w, lvc);
            }
            None => w.put_u8(0),
        }
        w.put_u64(self.l2.requests_from_l1);
        w.put_u64(self.l2.requests_from_lvc);
        w.put_u64(self.l2.hits);
        w.put_u64(self.l2.misses);
        w.put_u64(self.l2.writebacks_in);
        w.put_u64(self.l2.writebacks_to_memory);
        w.put_u64(self.load_latency_sum);
        w.put_u64(self.load_latency_count);
        w.put_u64(self.faults.l1_flips_injected);
        w.put_u64(self.faults.lvc_flips_injected);
        w.put_u64(self.faults.flips_detected);
        w.put_u64(self.faults.flips_evicted);
        w.put_u64(self.faults.flips_latent);
        w.put_u64(self.faults.grants_dropped);
        w.put_u64(self.faults.grants_delayed);
        w.put_u64(self.faults.forwards_corrupted);
        w.put_u64(self.faults.forwards_detected);
        w.into_vec()
    }

    /// Decodes a result serialized by [`SimResult::to_bytes`]. The whole
    /// input must be consumed — trailing bytes are an error, not slack.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] describing the first malformation.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimResult, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let res = SimResult::decode(&mut r)?;
        r.finish()?;
        Ok(res)
    }

    /// Decodes one serialized result from `r`, leaving the reader at the
    /// first byte past it (for containers that embed several records).
    ///
    /// # Errors
    ///
    /// As for [`SimResult::from_bytes`], without the trailing-bytes check.
    pub fn decode(r: &mut ByteReader) -> Result<SimResult, DecodeError> {
        r.header(RESULT_MAGIC, RESULT_VERSION)?;
        let cycles = r.get_u64()?;
        let committed = r.get_u64()?;
        let halted = r.get_bool()?;
        let stall_rob_full = r.get_u64()?;
        let stall_lsq_full = r.get_u64()?;
        let stall_lvaq_full = r.get_u64()?;
        let misclassifications = r.get_u64()?;
        let lsq = decode_queue(r)?;
        let lvaq = decode_queue(r)?;
        let l1 = decode_cache(r)?;
        let lvc = if r.get_bool()? {
            Some(decode_cache(r)?)
        } else {
            None
        };
        let l2 = L2Stats {
            requests_from_l1: r.get_u64()?,
            requests_from_lvc: r.get_u64()?,
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            writebacks_in: r.get_u64()?,
            writebacks_to_memory: r.get_u64()?,
        };
        let load_latency_sum = r.get_u64()?;
        let load_latency_count = r.get_u64()?;
        let faults = FaultStats {
            l1_flips_injected: r.get_u64()?,
            lvc_flips_injected: r.get_u64()?,
            flips_detected: r.get_u64()?,
            flips_evicted: r.get_u64()?,
            flips_latent: r.get_u64()?,
            grants_dropped: r.get_u64()?,
            grants_delayed: r.get_u64()?,
            forwards_corrupted: r.get_u64()?,
            forwards_detected: r.get_u64()?,
        };
        Ok(SimResult {
            cycles,
            committed,
            halted,
            stall_rob_full,
            stall_lsq_full,
            stall_lvaq_full,
            misclassifications,
            lsq,
            lvaq,
            l1,
            lvc,
            l2,
            load_latency_sum,
            load_latency_count,
            faults,
        })
    }
}

/// The outcome of [`crate::Simulator::run_window`]: the whole run from
/// the handed-off state (`total`, warm-up prefix included) and the
/// detailed measurement window carved out of it (`window`).
#[derive(Clone, PartialEq, Debug)]
pub struct WindowRun {
    /// The full run: warm-up prefix plus measurement window.
    pub total: SimResult,
    /// The window alone ([`SimResult::delta`] of the end against the
    /// warm-up boundary). When the program halts inside the warm-up
    /// prefix the window is empty (`window.committed == 0`).
    pub window: SimResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> SimResult {
        SimResult {
            cycles: 0,
            committed: 0,
            halted: false,
            stall_rob_full: 0,
            stall_lsq_full: 0,
            stall_lvaq_full: 0,
            misclassifications: 0,
            lsq: QueueStats::default(),
            lvaq: QueueStats::default(),
            l1: DataCacheStats::default(),
            lvc: None,
            l2: L2Stats::default(),
            load_latency_sum: 0,
            load_latency_count: 0,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn ipc_and_latency_handle_zero() {
        let r = blank();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.avg_load_latency(), 0.0);
    }

    #[test]
    fn ipc_and_speedup() {
        let mut a = blank();
        a.cycles = 100;
        a.committed = 400;
        let mut b = blank();
        b.cycles = 100;
        b.committed = 200;
        assert_eq!(a.ipc(), 4.0);
        assert_eq!(a.speedup_over(&b), 2.0);
        assert_eq!(a.speedup_over(&blank()), 0.0);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_state() {
        let mut earlier = blank();
        earlier.cycles = 100;
        earlier.committed = 40;
        earlier.lsq.loads = 10;
        earlier.lsq.occupancy.record_n(3, 7);
        earlier.l1.reads = 12;
        earlier.l1.misses = 2;
        earlier.l2.hits = 1;
        earlier.lvc = Some(DataCacheStats {
            reads: 5,
            ..Default::default()
        });
        earlier.faults.flips_latent = 3;

        let mut later = earlier.clone();
        later.cycles = 250;
        later.committed = 90;
        later.halted = true;
        later.lsq.loads = 25;
        later.lsq.occupancy.record_n(3, 4);
        later.lsq.occupancy.record_n(5, 2);
        later.l1.reads = 30;
        later.l1.misses = 2;
        later.l2.hits = 6;
        later.lvc = Some(DataCacheStats {
            reads: 11,
            ..Default::default()
        });
        later.faults.flips_latent = 1;

        let w = later.delta(&earlier);
        assert_eq!(w.cycles, 150);
        assert_eq!(w.committed, 50);
        assert!(w.halted);
        assert_eq!(w.lsq.loads, 15);
        assert_eq!(w.lsq.occupancy.count(3), 4);
        assert_eq!(w.lsq.occupancy.count(5), 2);
        assert_eq!(w.l1.reads, 18);
        assert_eq!(w.l1.misses, 0);
        assert_eq!(w.l2.hits, 5);
        assert_eq!(w.lvc.as_ref().map(|c| c.reads), Some(6));
        // The latent gauge is point-in-time, not a counter.
        assert_eq!(w.faults.flips_latent, 1);
        // Self-delta is an empty window.
        let z = later.delta(&later);
        assert_eq!(z.committed, 0);
        assert_eq!(z.cycles, 0);
        assert_eq!(z.lsq.occupancy.samples(), 0);
    }

    #[test]
    fn codec_round_trips_every_field() {
        let mut r = blank();
        r.cycles = 12_345;
        r.committed = 6_789;
        r.halted = true;
        r.stall_rob_full = 1;
        r.stall_lsq_full = 2;
        r.stall_lvaq_full = 3;
        r.misclassifications = 4;
        r.lsq.loads = 100;
        r.lsq.forwards = 7;
        r.lsq.occupancy.record_n(3, 40);
        r.lsq.occupancy.record_n(9, 2);
        r.lvaq.stores = 55;
        r.lvaq.fast_forwards = 11;
        r.lvaq.combined = 6;
        r.lvaq.combine_groups = 3;
        r.lvaq.port_stall_cycles = 17;
        r.lvaq.occupancy.record_n(0, 9);
        r.l1.reads = 80;
        r.l1.misses = 5;
        r.l1.mshr_stalls = 2;
        r.lvc = Some(DataCacheStats {
            reads: 31,
            writes: 13,
            hits: 30,
            misses: 1,
            miss_merges: 0,
            mshr_stalls: 0,
        });
        r.l2.requests_from_lvc = 9;
        r.l2.writebacks_to_memory = 4;
        r.load_latency_sum = 999;
        r.load_latency_count = 111;
        r.faults.lvc_flips_injected = 8;
        r.faults.flips_latent = 2;
        r.faults.forwards_detected = 1;

        let bytes = r.to_bytes();
        let back = SimResult::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);

        // The no-LVC arm round-trips too.
        let mut r2 = r.clone();
        r2.lvc = None;
        assert_eq!(SimResult::from_bytes(&r2.to_bytes()).unwrap(), r2);
    }

    #[test]
    fn codec_rejects_malformed_input() {
        let good = blank().to_bytes();
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            SimResult::from_bytes(&bad),
            Err(DecodeError::BadMagic {
                expected: *RESULT_MAGIC
            })
        );
        // Future version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert_eq!(
            SimResult::from_bytes(&bad),
            Err(DecodeError::BadVersion(99))
        );
        // A flag byte outside 0/1 (the halted flag sits right after the
        // magic and version words).
        let mut bad = good;
        bad[8 + 4 + 16] = 7;
        assert!(matches!(
            SimResult::from_bytes(&bad),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn forward_fraction() {
        let mut q = QueueStats::default();
        assert_eq!(q.forward_fraction(), 0.0);
        q.loads = 10;
        q.forwards = 2;
        q.fast_forwards = 3;
        assert_eq!(q.forward_fraction(), 0.5);
    }
}
