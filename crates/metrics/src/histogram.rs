//! Power-of-two bucket histograms for batch-composition analysis.
//!
//! The paper's §III-D insight is that *batch composition* drives service
//! cost: a batch whose faults collapse into few VABlocks coalesces
//! allocation and DMA work; one VABlock per fault is the worst case.
//! The driver records per-batch fault counts and VABlock counts here so
//! experiments can show those distributions.

use serde::{Deserialize, Serialize};
use std::fmt;

const BUCKETS: usize = 17; // 0, 1, 2, 3-4, 5-8, ..., 16385+

/// A histogram with buckets 0, 1, 2, (2,4], (4,8], … (log2-spaced).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    match v {
        0 => 0,
        1 => 1,
        2 => 2,
        _ => {
            // (2^k, 2^(k+1)] lands in bucket k + 2 (v=3,4 -> 3; 5..8 -> 4 …).
            let k = 64 - (v - 1).leading_zeros() as usize; // ceil(log2(v))
            (k + 1).min(BUCKETS - 1)
        }
    }
}

/// Inclusive upper bound of a bucket (for display).
fn bucket_hi(b: usize) -> u64 {
    match b {
        0 => 0,
        1 => 1,
        2 => 2,
        _ => 1u64 << (b - 1),
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean observation (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the inclusive upper bound
    /// of the bucket where the cumulative count first reaches
    /// `ceil(q * total)`. Exact for the width-1 buckets (0, 1, 2); an
    /// upper bound (within 2× of the true value) for wider buckets.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        debug_assert!(q > 0.0 && q <= 1.0, "quantile out of range");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket is open-ended — report the observed max;
                // elsewhere the observed max tightens the bucket bound.
                return if b == BUCKETS - 1 {
                    self.max
                } else {
                    bucket_hi(b).min(self.max)
                };
            }
        }
        self.max
    }

    /// Median (p50) observation bucket bound.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile observation bucket bound.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile observation bucket bound.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Iterate `(bucket_upper_bound, count)` over non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_hi(b), c))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.total,
            self.mean(),
            self.max
        )?;
        for (hi, c) in self.buckets() {
            write!(f, " ≤{hi}:{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(5), 4);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(9), 5);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(257), 10);
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 4, 256] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.max(), 256);
        assert!((h.mean() - 52.4).abs() < 1e-9);
        assert_eq!(h.counts[bucket_of(1)], 2);
        assert_eq!(h.counts[bucket_of(3)], 1); // 4 in (2,4]
        assert_eq!(h.counts[bucket_of(200)], 1); // 256 in (128,256]
    }

    #[test]
    fn merge_adds() {
        let mut a = Histogram::default();
        a.record(4);
        let mut b = Histogram::default();
        b.record(4);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts[bucket_of(4)], 2);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn display_and_bucket_iteration() {
        let mut h = Histogram::default();
        h.record(1);
        h.record(7);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (8, 1)]);
        let s = h.to_string();
        assert!(s.contains("n=2"));
        assert!(s.contains("≤8:1"));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn percentiles_exact_in_unit_buckets() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(2);
        }
        assert_eq!(h.p50(), 1);
        assert_eq!(h.percentile(0.90), 1);
        assert_eq!(h.p95(), 2);
        assert_eq!(h.p99(), 2);
        assert_eq!(h.percentile(1.0), 2);
    }

    #[test]
    fn percentiles_report_bucket_upper_bound() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(3); // bucket (2,4]
        }
        h.record(200); // bucket (128,256]
        assert_eq!(h.p50(), 4);
        assert_eq!(h.p95(), 4);
        // Rank 100 lands in the (128,256] bucket, capped at the max seen.
        assert_eq!(h.percentile(0.999), 200);
        assert_eq!(h.p99(), 4);
    }

    #[test]
    fn percentile_top_bucket_caps_at_max() {
        let mut h = Histogram::default();
        h.record(1_000_000); // beyond the last finite bucket boundary
        assert_eq!(h.p50(), 1_000_000);
        assert_eq!(h.p99(), 1_000_000);
    }
}
