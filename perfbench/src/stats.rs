//! Order statistics for the benchmark's own reporting.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together with
//! the sample count — so a "tail" figure is never an extrapolation from a
//! handful of points.

/// Percentiles a tail figure may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`-th percentile of `n` samples, in
/// integer arithmetic on tenths of a percent (no float rounding at exact
/// boundaries).
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for even the
/// median to qualify.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A timing distribution summarised by the tail rule.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Dist::tail_pct`] (the median when no tail qualifies).
    pub tail: f64,
    /// The percentile `tail` was taken at (0 when `n` is too small).
    pub tail_pct: f64,
}

impl Dist {
    /// Summarises `xs` (any order).
    pub fn of(xs: &[f64]) -> Dist {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = median(&v);
        match tail_percentile(v.len()) {
            Some(p) => Dist {
                n: v.len(),
                p50,
                tail: percentile_sorted(&v, p).unwrap_or(p50),
                tail_pct: p,
            },
            None => Dist {
                n: v.len(),
                p50,
                tail: p50,
                tail_pct: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(216), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 95.0), Some(95.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(beyond(100, 95.0), 5);
    }

    #[test]
    fn dist_reports_count_and_tail() {
        let xs: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let d = Dist::of(&xs);
        assert_eq!(d.n, 200);
        assert_eq!(d.tail_pct, 95.0);
        assert_eq!(d.tail, 189.0);
        assert_eq!(d.p50, 99.5);
        let small = Dist::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (small.n, small.p50, small.tail, small.tail_pct),
            (3, 2.0, 2.0, 0.0)
        );
    }

    #[test]
    fn median_handles_parity() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
