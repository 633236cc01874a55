#![warn(missing_docs)]

//! # dda-stats — counters, histograms and report tables
//!
//! Small, dependency-free statistics utilities shared by the simulator and
//! the experiment harness: a sparse integer [`Histogram`] (used for the
//! paper's frame-size and queue-occupancy distributions), a plain-text
//! [`Table`] renderer (used to print every reproduced table and figure),
//! a seeded [`Rng`] (used by the workload generators so the workspace
//! builds with no external crates), and a cheap [`FibHasher`] for the
//! simulator's integer-keyed hot-path maps.

mod codec;
mod hash;
mod histogram;
mod rng;
mod table;

pub use codec::{fnv1a64, ByteReader, ByteWriter, DecodeError};
pub use hash::{FastMap, FibHasher};
pub use histogram::Histogram;
pub use rng::{Rng, SampleRange};
pub use table::{Align, Table};

/// Formats a fraction as a percentage with one decimal, `"—"` when the
/// denominator is zero.
///
/// ```
/// assert_eq!(dda_stats::pct(1, 8), "12.5%");
/// assert_eq!(dda_stats::pct(3, 0), "—");
/// ```
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "—".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn pct_handles_zero_denominator() {
        assert_eq!(super::pct(5, 0), "—");
        assert_eq!(super::pct(0, 10), "0.0%");
        assert_eq!(super::pct(10, 10), "100.0%");
    }
}
