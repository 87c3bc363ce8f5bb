//! The analytic throttling model of Section IV-A (Equations 1–2).
//!
//! When the write controller engages, the application-level arrival rate
//! λ_a converges to the delayed write rate, and over a period in which one
//! write finishes (the median write latency `t`):
//!
//! ```text
//! λ_a × (refill_interval + t) = λ_s × t            (Eq. 1)
//! λ_a = t / (refill_interval + t) × λ_s            (Eq. 2)
//! ```
//!
//! With the paper's measurements (λ_s = 190 kop/s, t = 15 µs,
//! refill_interval = 1024 µs) this predicts 2.74 kop/s on the 3D XPoint SSD
//! and 1.88 kop/s on the SATA SSD — both near the observed ≈ 3 kop/s floor,
//! i.e. throttling collapses throughput to a **hardware-independent** level.

/// Algorithm 1's refill interval in microseconds.
pub const REFILL_INTERVAL_US: f64 = 1024.0;

/// Equation 2: predicted application-level throughput (kop/s) while the
/// throttling mechanism is engaged.
///
/// * `lambda_s_kops` — system-level processing capacity during compaction
///   (kop/s);
/// * `median_write_us` — median write latency `t` (µs);
/// * `refill_interval_us` — the injected delay period (µs).
pub fn throttled_throughput_kops(
    lambda_s_kops: f64,
    median_write_us: f64,
    refill_interval_us: f64,
) -> f64 {
    assert!(lambda_s_kops >= 0.0 && median_write_us > 0.0 && refill_interval_us >= 0.0);
    median_write_us / (refill_interval_us + median_write_us) * lambda_s_kops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_xpoint_prediction() {
        // λ_s = 190 kop/s, t = 15 µs → 2.74 kop/s (Section IV-A).
        let got = throttled_throughput_kops(190.0, 15.0, REFILL_INTERVAL_US);
        assert!((got - 2.74).abs() < 0.01, "got {got}");
    }

    #[test]
    fn paper_sata_prediction() {
        // λ_s = 130 kop/s, t = 15 µs → 1.88 kop/s.
        let got = throttled_throughput_kops(130.0, 15.0, REFILL_INTERVAL_US);
        assert!((got - 1.877).abs() < 0.01, "got {got}");
    }

    #[test]
    fn hardware_independence() {
        // The key insight: a 10× faster system only helps marginally while
        // throttled, because refill_interval dominates.
        let slow = throttled_throughput_kops(100.0, 15.0, REFILL_INTERVAL_US);
        let fast = throttled_throughput_kops(1000.0, 15.0, REFILL_INTERVAL_US);
        assert!(fast / slow < 11.0);
        // Both are tiny compared to the unthrottled capacity.
        assert!(fast < 20.0);
    }

    #[test]
    fn no_refill_means_no_loss() {
        let got = throttled_throughput_kops(100.0, 15.0, 0.0);
        assert_eq!(got, 100.0);
    }
}
