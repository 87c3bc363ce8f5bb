//! Log-bucketed latency histogram (HDR-lite).
//!
//! Values are bucketed by `(exponent, 64 sub-buckets)` giving ≤ ~1.6 %
//! relative error — plenty for p50/p90/p99 reporting. Recording is a load
//! and a store per counter (`xlsm_sim::sync::add`): only the run-token
//! holder records, and any thread may read.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS; // 64
/// Largest exponent tracked (2^40 ns ≈ 18 virtual minutes).
const MAX_EXP: u32 = 40;
const NBUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB;

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= 6
    let e = e.min(MAX_EXP);
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    ((e - SUB_BITS + 1) as usize) * SUB + sub
}

fn bucket_low(idx: usize) -> u64 {
    let band = idx / SUB;
    let sub = (idx % SUB) as u64;
    if band == 0 {
        return sub;
    }
    let e = band as u32 + SUB_BITS - 1;
    (1u64 << e) | (sub << (e - SUB_BITS))
}

/// A latency histogram in nanoseconds, recorded by the run-token holder.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    n: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        let counts: Vec<AtomicU64> = (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            counts: counts.into_boxed_slice(),
            n: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds).
    pub fn record(&self, v: u64) {
        xlsm_sim::sync::add(&self.counts[bucket_of(v)], 1);
        xlsm_sim::sync::add(&self.n, 1);
        xlsm_sim::sync::add(&self.sum, v);
        xlsm_sim::sync::max(&self.max, v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return bucket_low(i);
            }
        }
        self.max()
    }

    /// Convenience: p50/p90/p99/max snapshot in nanoseconds.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max(),
        }
    }

    /// Clears all recorded values.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.n.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Compact percentile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean, nanoseconds.
    pub mean_ns: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds (the paper's headline tail metric).
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 17, 63] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn quantiles_are_close_for_large_values() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100); // 100 ns .. 1 ms uniform
        }
        let p50 = h.quantile(0.5) as f64;
        let p90 = h.quantile(0.9) as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.05, "p50={p50}");
        assert!((p90 / 900_000.0 - 1.0).abs() < 0.05, "p90={p90}");
    }

    #[test]
    fn mean_and_reset() {
        let h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.9), 0);
    }

    #[test]
    fn bucket_low_inverts_bucket_of() {
        for v in [0u64, 1, 63, 64, 65, 1000, 123_456, 1 << 30, 1 << 39] {
            let b = bucket_of(v);
            let low = bucket_low(b);
            assert!(low <= v, "low {low} > v {v}");
            // Relative error bound.
            if v >= 64 {
                assert!((v - low) as f64 / v as f64 <= 0.016, "v={v} low={low}");
            }
        }
    }

    #[test]
    fn huge_values_clamp_without_panic() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert!(h.quantile(1.0) > 0);
    }
}
