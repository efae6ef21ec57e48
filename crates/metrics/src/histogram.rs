//! Log2-bucketed histograms.
//!
//! Bucket `i` counts recorded values `v` with `bit_length(v) == i`:
//! bucket 0 holds `v == 0`, bucket `i ≥ 1` holds `2^(i-1) ≤ v < 2^i`.
//! The inclusive upper bound of bucket `i` is therefore `2^i − 1`, which
//! is what the Prometheus `le` label reports. 65 buckets cover the whole
//! `u64` range exactly — there is no implicit overflow bucket to get the
//! tail wrong.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: one per possible `u64` bit length (0..=64).
pub const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i − 1`), saturating at
/// `u64::MAX` for the last bucket.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log2-bucketed histogram of `u64` observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wrapping on overflow, like Prometheus client
    /// integer sums).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot (relaxed loads; exact when no
    /// concurrent writers, which is how exporters use it).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts, index = bit length.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs, trimmed
    /// after the last non-empty bucket (the `+Inf` bucket an exporter
    /// appends covers the rest).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut cum = 0u64;
        (0..=last)
            .map(|i| {
                cum += self.buckets[i];
                (bucket_upper_bound(i), cum)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 is its own bucket
        assert_eq!(bucket_index(0), 0);
        // 1 = 2^0 starts bucket 1
        assert_eq!(bucket_index(1), 1);
        // each 2^k starts bucket k+1; 2^k − 1 ends bucket k
        for k in 1..64u32 {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(p - 1), k as usize, "2^{k} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn upper_bounds_match_bucket_contents() {
        // every value in bucket i is ≤ bucket_upper_bound(i), and the
        // smallest value of bucket i+1 is bucket_upper_bound(i) + 1
        for i in 0..64usize {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i} is in bucket {i}");
            assert_eq!(bucket_index(ub.wrapping_add(1)), i + 1);
        }
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_lands_in_one_bucket_and_sums() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.sum, 2072);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 2); // 4, 7
        assert_eq!(s.buckets[4], 1); // 8
        assert_eq!(s.buckets[10], 1); // 1023
        assert_eq!(s.buckets[11], 1); // 1024
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count, "each value in exactly one bucket");
    }

    #[test]
    fn cumulative_is_monotone_and_trimmed() {
        let h = Histogram::new();
        h.record(5);
        h.record(6);
        h.record(100);
        let cum = h.snapshot().cumulative();
        // trimmed at bucket 7 (100 has bit length 7, ub 127)
        assert_eq!(cum.last(), Some(&(127, 3)));
        let mut prev = 0;
        for &(_, c) in &cum {
            assert!(c >= prev);
            prev = c;
        }
        // the le=7 bucket holds both 5 and 6
        assert!(cum.contains(&(7, 2)));
    }

    #[test]
    fn empty_histogram_has_no_cumulative_rows() {
        assert!(Histogram::new().snapshot().cumulative().is_empty());
    }
}
