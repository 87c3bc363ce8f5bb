//! Order statistics on exact sample vectors (never the engine's log-bucket
//! histogram), and the spread rule shared by `suite`, `diff` and
//! `calibrate`.

/// The `q`-quantile (nearest rank) of sorted samples, or `None` when fewer
/// than ten samples lie beyond it — a percentile resting on a handful of
/// points is noise, so it is left out rather than reported.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    let needed = if q > 0.5 { 10 } else { 0 };
    (beyond >= needed).then(|| sorted[rank - 1])
}

/// Mean of the samples beyond the `q`-quantile of sorted samples (the
/// slowest `1 - q` of them), or `None` when fewer than ten lie there. Every
/// sample of the tail counts, so the statistic moves smoothly where a
/// percentile jumps: a cost model gives quantised latencies, and a
/// percentile that sits on a step between two of them flips with the seed.
pub fn tail_mean(sorted: &[u64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = ((q * sorted.len() as f64).ceil() as usize).min(sorted.len());
    let tail = &sorted[rank..];
    (tail.len() >= 10).then(|| tail.iter().sum::<u64>() as f64 / tail.len() as f64)
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the spread the
/// benchmark's bounds are compared with. Two values give their range.
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = if values.len() < 4 {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    } else {
        quartiles(values)
    };
    (q3 - q1) / med.abs()
}

/// `num / den`, or 0 when nothing was counted: a per-layer ratio on a
/// workload that never exercises the layer.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(
            percentile(&v, 0.99),
            Some(990),
            "10 samples beyond p99 of 1000"
        );
        assert_eq!(percentile(&v, 0.999), None, "1 sample beyond p99.9 of 1000");
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None, "9 samples beyond");
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 0.999), Some(9990));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.5), Some(7), "a median needs no tail");
    }

    #[test]
    fn tail_mean_averages_what_lies_beyond_and_needs_ten_of_them() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_mean(&v, 0.99), Some(995.5), "991..=1000");
        assert_eq!(tail_mean(&v, 0.999), None, "one sample beyond");
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail_mean(&v, 0.999), Some(9995.5));
        assert_eq!(tail_mean(&[], 0.99), None);
        // Where the 99th percentile sits on a step of a quantised
        // distribution, a few ops crossing the step halve the percentile
        // and move the tail mean by a tenth.
        let steps = |slow: usize| {
            let mut v = vec![1000u64; 1000 - slow];
            v.extend(vec![2000; slow]);
            v
        };
        assert_eq!(percentile(&steps(15), 0.99), Some(2000));
        assert_eq!(percentile(&steps(8), 0.99), Some(1000));
        assert_eq!(tail_mean(&steps(15), 0.99), Some(2000.0));
        assert_eq!(tail_mean(&steps(8), 0.99), Some(1800.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 45], n=4) == [12.5, 25.0, 41.25]
        assert_eq!(quartiles(&[45.0, 10.0, 30.0, 20.0]), (12.5, 41.25));
    }

    #[test]
    fn spread_of_few_values_is_their_range() {
        assert_eq!(iqr_share(&[100.0]), 0.0);
        assert!((iqr_share(&[95.0, 105.0]) - 0.1).abs() < 1e-12);
        assert!((iqr_share(&[100.0, 90.0, 110.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
