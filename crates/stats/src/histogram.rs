//! A sparse histogram over unsigned integer values.

use std::collections::BTreeMap;

/// A sparse histogram of `u64` samples.
///
/// Used for the paper's distribution plots: dynamic frame sizes (Fig. 3),
/// call depths, LVAQ occupancies. Memory is proportional to the number of
/// *distinct* values, so wide ranges are fine.
///
/// ```
/// use dda_stats::Histogram;
///
/// let frames: Histogram = [2u64, 2, 3, 4, 7].into_iter().collect();
/// assert_eq!(frames.quantile(0.5), Some(3));
/// assert_eq!(frames.mean(), Some(3.6));
/// assert_eq!(frames.max(), Some(7));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one occurrence of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n > 0 {
            *self.counts.entry(value).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Total number of samples recorded.
    #[inline]
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of occurrences of `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: f64 = self.counts.iter().map(|(&v, &c)| v as f64 * c as f64).sum();
        Some(sum / self.total as f64)
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// The smallest value `v` such that at least `q` (0..=1) of the samples
    /// are ≤ `v`; `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        if self.total == 0 {
            return None;
        }
        let need = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= need {
                return Some(v);
            }
        }
        self.max()
    }

    /// Fraction of samples with value ≤ `v` (0 when empty).
    pub fn cdf(&self, v: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let le: u64 = self.counts.range(..=v).map(|(_, &c)| c).sum();
        le as f64 / self.total as f64
    }

    /// Iterates `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &c) in &other.counts {
            self.record_n(v, c);
        }
    }

    /// Returns the histogram of samples recorded in `self` but not in
    /// `earlier` — the per-value count difference, saturating at zero.
    ///
    /// Used for interval-sampling window deltas: `earlier` is a snapshot
    /// of this histogram taken at the window start, so every count in it
    /// is (by construction) ≤ the corresponding count in `self`. Counts
    /// present only in `earlier` are ignored rather than underflowing.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (&v, &c) in &self.counts {
            let d = c.saturating_sub(earlier.count(v));
            out.record_n(v, d);
        }
        out
    }

    /// Appends this histogram to `w` as a `u32` pair count followed by
    /// `(value, count)` `u64` pairs in ascending value order — the stable
    /// wire form used by serialized result records.
    ///
    /// # Panics
    ///
    /// Panics if the histogram holds more than `u32::MAX` distinct values
    /// (occupancy histograms top out at queue capacities).
    pub fn encode(&self, w: &mut crate::ByteWriter) {
        let n = u32::try_from(self.counts.len());
        let n = match n {
            Ok(n) => n,
            Err(_) => panic!("histogram with {} distinct values", self.counts.len()),
        };
        w.put_u32(n);
        for (&v, &c) in &self.counts {
            w.put_u64(v);
            w.put_u64(c);
        }
    }

    /// Reads a histogram written by [`Histogram::encode`].
    ///
    /// # Errors
    ///
    /// [`crate::DecodeError`] when the input is truncated.
    pub fn decode(r: &mut crate::ByteReader) -> Result<Histogram, crate::DecodeError> {
        let n = r.get_u32()?;
        let mut h = Histogram::new();
        for _ in 0..n {
            let v = r.get_u64()?;
            let c = r.get_u64()?;
            h.record_n(v, c);
        }
        Ok(h)
    }

    /// Groups samples into fixed-width buckets `[0,w), [w,2w), ...` and
    /// returns `(bucket_start, count)` pairs for non-empty buckets.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn bucketed(&self, width: u64) -> Vec<(u64, u64)> {
        assert!(width > 0, "bucket width must be positive");
        let mut out: BTreeMap<u64, u64> = BTreeMap::new();
        for (&v, &c) in &self.counts {
            *out.entry(v / width * width).or_insert(0) += c;
        }
        out.into_iter().collect()
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Histogram {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.cdf(10), 0.0);
    }

    #[test]
    fn mean_min_max() {
        let h: Histogram = [1, 2, 3, 4].into_iter().collect();
        assert_eq!(h.samples(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4));
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(9), 0);
    }

    #[test]
    fn quantiles() {
        let h: Histogram = (1..=100).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        let h: Histogram = [1].into_iter().collect();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn cdf_is_monotone() {
        let h: Histogram = [2, 2, 4, 8].into_iter().collect();
        assert_eq!(h.cdf(1), 0.0);
        assert_eq!(h.cdf(2), 0.5);
        assert_eq!(h.cdf(4), 0.75);
        assert_eq!(h.cdf(8), 1.0);
        assert_eq!(h.cdf(u64::MAX), 1.0);
    }

    #[test]
    fn merge_and_record_n() {
        let mut a: Histogram = [1, 1].into_iter().collect();
        let mut b = Histogram::new();
        b.record_n(1, 3);
        b.record_n(5, 2);
        b.record_n(9, 0); // no-op
        a.merge(&b);
        assert_eq!(a.count(1), 5);
        assert_eq!(a.count(5), 2);
        assert_eq!(a.count(9), 0);
        assert_eq!(a.samples(), 7);
    }

    #[test]
    fn diff_subtracts_a_snapshot() {
        let mut h: Histogram = [1, 1, 5].into_iter().collect();
        let snap = h.clone();
        h.extend([1u64, 2, 5, 5]);
        let d = h.diff(&snap);
        assert_eq!(d.count(1), 1);
        assert_eq!(d.count(2), 1);
        assert_eq!(d.count(5), 2);
        assert_eq!(d.samples(), 4);
        // Values only in the snapshot saturate to zero, not underflow.
        let weird: Histogram = [9u64, 9].into_iter().collect();
        assert_eq!(h.diff(&weird).samples(), h.samples());
    }

    #[test]
    fn bucketing() {
        let h: Histogram = [0, 1, 7, 8, 9, 16].into_iter().collect();
        assert_eq!(h.bucketed(8), vec![(0, 3), (8, 2), (16, 1)]);
    }

    #[test]
    fn codec_round_trip() {
        let mut h: Histogram = [1u64, 1, 5, 900, u64::MAX].into_iter().collect();
        h.record_n(7, 3);
        let mut w = crate::ByteWriter::new();
        h.encode(&mut w);
        let buf = w.into_vec();
        let mut r = crate::ByteReader::new(&buf);
        let back = Histogram::decode(&mut r).unwrap();
        assert_eq!(back, h);
        assert_eq!(r.remaining(), 0);
        // Empty histograms round-trip too.
        let mut w = crate::ByteWriter::new();
        Histogram::new().encode(&mut w);
        let buf = w.into_vec();
        let back = Histogram::decode(&mut crate::ByteReader::new(&buf)).unwrap();
        assert!(back.is_empty());
        // Truncation is an error, not a panic.
        assert!(Histogram::decode(&mut crate::ByteReader::new(&[1, 0, 0, 0])).is_err());
    }

    #[test]
    fn extend_trait() {
        let mut h = Histogram::new();
        h.extend([3u64, 3, 3]);
        assert_eq!(h.count(3), 3);
    }
}
