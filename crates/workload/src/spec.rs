//! Workload specifications.

use std::time::Duration;

/// How client threads choose keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDistribution {
    /// Uniformly random over the key space (the paper's
    /// `randomreadrandomwrite`).
    Uniform,
    /// YCSB-style zipfian with the given skew parameter (e.g. 0.99) —
    /// extension experiments beyond the paper.
    Zipfian(f64),
}

/// A periodic write burst riding on top of the base mix (the paper's
/// "flash of crowd" scenario in case study V-A: a 1:9 read/write burst for
/// 25 s out of every 60 s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstSpec {
    /// Period of the burst cycle.
    pub period: Duration,
    /// Portion of each period spent in the burst.
    pub burst_len: Duration,
    /// Write fraction during the burst (e.g. 0.9).
    pub burst_write_fraction: f64,
}

impl BurstSpec {
    /// Whether `at` (nanoseconds since workload start) falls inside a burst.
    pub fn in_burst(&self, at_nanos: u64) -> bool {
        let period = self.period.as_nanos() as u64;
        let burst = self.burst_len.as_nanos() as u64;
        period > 0 && (at_nanos % period) < burst
    }
}

/// A `randomreadrandomwrite` workload description.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of distinct keys (the dataset).
    pub key_count: u64,
    /// Value size in bytes (paper: 1 KiB).
    pub value_size: usize,
    /// Fraction of operations that are writes (`0.0 ..= 1.0`).
    pub write_fraction: f64,
    /// Closed-loop client threads.
    pub threads: usize,
    /// Measured duration (virtual time).
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Optional periodic write bursts.
    pub burst: Option<BurstSpec>,
    /// Key-selection distribution.
    pub distribution: KeyDistribution,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            key_count: 64 << 10, // 64 Ki keys × 1 KiB ≈ 64 MiB (paper: 100 GB / ~1500)
            value_size: 1024,
            write_fraction: 0.5,
            threads: 4,
            duration: Duration::from_secs(4),
            seed: 0xD15EA5E,
            burst: None,
            distribution: KeyDistribution::Uniform,
        }
    }
}

impl WorkloadSpec {
    /// Builder-style: sets the write fraction.
    pub fn with_write_fraction(mut self, f: f64) -> WorkloadSpec {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0,1]");
        self.write_fraction = f;
        self
    }

    /// Builder-style: sets the thread count.
    pub fn with_threads(mut self, n: usize) -> WorkloadSpec {
        assert!(n > 0);
        self.threads = n;
        self
    }

    /// Builder-style: sets the measured duration.
    pub fn with_duration(mut self, d: Duration) -> WorkloadSpec {
        self.duration = d;
        self
    }

    /// Builder-style: sets the key distribution.
    pub fn with_distribution(mut self, d: KeyDistribution) -> WorkloadSpec {
        self.distribution = d;
        self
    }

    /// Total dataset bytes.
    pub fn dataset_bytes(&self) -> u64 {
        self.key_count * (self.value_size as u64 + 16)
    }

    /// The write fraction in effect at `at_nanos` since workload start.
    pub fn write_fraction_at(&self, at_nanos: u64) -> f64 {
        match &self.burst {
            Some(b) if b.in_burst(at_nanos) => b.burst_write_fraction,
            _ => self.write_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_paper_scaling() {
        let s = WorkloadSpec::default();
        assert_eq!(s.value_size, 1024, "paper uses 1 KiB values");
        assert!(s.dataset_bytes() > 60 << 20);
    }

    #[test]
    fn burst_schedule() {
        let b = BurstSpec {
            period: Duration::from_secs(6),
            burst_len: Duration::from_millis(2500),
            burst_write_fraction: 0.9,
        };
        assert!(b.in_burst(0));
        assert!(b.in_burst(2_400_000_000));
        assert!(!b.in_burst(2_600_000_000));
        assert!(b.in_burst(6_000_000_001));
        let spec = WorkloadSpec {
            burst: Some(b),
            write_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        assert_eq!(spec.write_fraction_at(0), 0.9);
        assert_eq!(spec.write_fraction_at(3_000_000_000), 0.5);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_rejected() {
        WorkloadSpec::default().with_write_fraction(1.5);
    }
}
