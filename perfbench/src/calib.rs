//! Host-speed calibration.
//!
//! The benchmark shares a host whose speed drifts by up to ~2x for tens
//! of seconds at a time, mostly as the memory latency other tenants'
//! traffic imposes. A run's wall-clock rate therefore follows the host as
//! much as the code. A [`Calibrator`] times a fixed pass of the
//! benchmark's own code — a branchy interpreter loop, a dependent-load
//! chase through a 256 KiB table and one through a 16 MiB table — every
//! [`EVERY_S`] seconds of the run. None of it calls the simulator, so no
//! change to the simulator moves it. The run's times are then scaled by
//! [`REF_PASS_S`] over the mean pass time: they read as seconds on a
//! host where the pass takes [`REF_PASS_S`].
//!
//! Means, not medians: the workload's iterations and the passes sample
//! the same stretch of wall time, so a slow spell weighs alike in both,
//! where a median jumps between the host's fast and slow modes. The
//! correction is partial: the host's slow spells slow the simulator's
//! memory-heavy loops more than the pass, by an amount that varies. On
//! the reference host it roughly halved the run-to-run spread of the
//! rates (see `README.md`).

use std::hint::black_box;
use std::time::Instant;

use crate::host::mix;

/// Seconds one calibration pass takes on the reference host (2 vCPUs of
/// an Intel Xeon) in a quiet period. A run's host factor is its mean
/// pass time over this.
pub const REF_PASS_S: f64 = 0.2;

/// Wall seconds of workload between two calibration passes.
pub const EVERY_S: f64 = 1.0;

/// Interpreter steps per pass (~40 ms on the reference host).
const ALU_STEPS: u32 = 30_000_000;
/// Loads per pass through the near table (~50 ms).
const NEAR_LOADS: u32 = 10_000_000;
/// Loads per pass through the far table (~100 ms).
const FAR_LOADS: u32 = 1_000_000;
/// Entries of the near table: 256 KiB, the size of a private L2.
const NEAR_ENTRIES: usize = 64 << 10;
/// Entries of the far table: 16 MiB, past a shared last-level cache.
const FAR_ENTRIES: usize = 4 << 20;
/// Length of the interpreted byte code.
const CODE_LEN: usize = 4096;

/// A fixed timing pass and the pass times a run has recorded.
pub struct Calibrator {
    code: Vec<u8>,
    near: Vec<u32>,
    far: Vec<u32>,
    passes: Vec<f64>,
    last: Option<Instant>,
}

/// A random single cycle through `n` slots (Sattolo's shuffle): following
/// `next[i]` from any slot visits every slot before it returns.
fn cycle(n: usize, salt: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (mix(i as u64, salt) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// Follows `next` for `loads` dependent loads.
fn chase(next: &[u32], loads: u32) -> u32 {
    let mut p = 0u32;
    for _ in 0..loads {
        p = next[p as usize];
    }
    p
}

impl Calibrator {
    /// Builds the tables. Their heap stays allocated for the whole run;
    /// [`Calibrator::bytes`] says how much.
    pub fn new() -> Calibrator {
        Calibrator {
            code: (0..CODE_LEN as u64)
                .map(|i| (mix(i, 9) % 8) as u8)
                .collect(),
            near: cycle(NEAR_ENTRIES, 4),
            far: cycle(FAR_ENTRIES, 3),
            passes: Vec::with_capacity(1024),
            last: None,
        }
    }

    /// Heap bytes the calibrator holds.
    pub fn bytes(&self) -> usize {
        self.code.capacity()
            + 4 * (self.near.capacity() + self.far.capacity())
            + 8 * self.passes.capacity()
    }

    /// A branchy byte-code loop over eight registers.
    fn alu(&self) -> u64 {
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut pc = 0usize;
        for _ in 0..ALU_STEPS {
            match self.code[pc] {
                0 => r[0] = r[0].wrapping_add(r[1]),
                1 => r[1] ^= r[2].rotate_left(7),
                2 if r[0] & 1 == 0 => pc = (pc + 13) % CODE_LEN,
                3 => r[3] = r[3].wrapping_mul(r[4] | 1),
                4 if r[3] & 2 == 0 => pc = (pc + 29) % CODE_LEN,
                5 => r[5] = r[5].wrapping_add(r[6] >> 3),
                6 => r[6] ^= r[0],
                7 => r[7] = r[7].wrapping_sub(r[5]),
                _ => {}
            }
            pc = (pc + 1) % CODE_LEN;
        }
        r.iter().fold(0, |a, &x| a ^ x)
    }

    /// Runs one pass, records its seconds and returns them.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.alu());
        black_box(chase(black_box(&self.near), NEAR_LOADS));
        black_box(chase(black_box(&self.far), FAR_LOADS));
        let secs = t.elapsed().as_secs_f64();
        self.passes.push(secs);
        self.last = Some(Instant::now());
        secs
    }

    /// Runs a pass when none has run yet or [`EVERY_S`] have passed
    /// since the last one.
    pub fn due(&mut self) {
        if self
            .last
            .map_or(true, |l| l.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.pass();
        }
    }

    /// Passes recorded so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Mean seconds of a pass; 0 before any pass.
    pub fn mean_pass_s(&self) -> f64 {
        self.passes.iter().sum::<f64>() / self.passes.len().max(1) as f64
    }

    /// How much slower than the reference host this host ran: the mean
    /// pass over [`REF_PASS_S`]. Host seconds divided by it read as
    /// reference-host seconds; 1 before any pass.
    pub fn factor(&self) -> f64 {
        match self.passes.is_empty() {
            true => 1.0,
            false => self.mean_pass_s() / REF_PASS_S,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_visits_every_slot_once() {
        for n in [2usize, 3, 17, 1000] {
            let next = cycle(n, 5);
            let mut seen = vec![false; n];
            let mut p = 0usize;
            for _ in 0..n {
                assert!(!seen[p], "n={n}: slot {p} visited twice");
                seen[p] = true;
                p = next[p] as usize;
            }
            assert_eq!(p, 0, "n={n}: the cycle does not close");
        }
    }

    #[test]
    fn factor_is_mean_pass_over_reference() {
        let mut c = Calibrator {
            code: Vec::new(),
            near: Vec::new(),
            far: Vec::new(),
            passes: Vec::new(),
            last: None,
        };
        assert_eq!(c.factor(), 1.0);
        c.passes = vec![REF_PASS_S * 4.0, REF_PASS_S, REF_PASS_S];
        assert!((c.factor() - 2.0).abs() < 1e-12);
    }
}
