//! Order statistics over exact samples.
//!
//! Every latency in this benchmark is kept as an exact sample and sorted
//! once per round, so a percentile is a real observation and not a bucket
//! edge (the flood client's log2 histogram reports p50 = 2^24 ns exactly;
//! nothing smaller than a factor of two can show in it).

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the `q` percentile. The guide asks
/// for at least ten beyond the highest percentile reported.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&v| v <= p)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), because that is what the driver
/// computes the spread from. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Rank k(n+1)/4, 1-based; the index is clamped to the data but
        // the interpolation is not, exactly as CPython does it.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, without the arithmetic: the smallest sample that
    /// has at least `q·n` samples at or below it.
    fn percentile_by_definition(samples: &[u64], q: f64) -> u64 {
        let need = q * samples.len() as f64;
        let mut candidates: Vec<u64> = samples.to_vec();
        candidates.sort_unstable();
        for &c in &candidates {
            let at_or_below = samples.iter().filter(|&&s| s <= c).count();
            if at_or_below as f64 >= need {
                return c;
            }
        }
        *candidates.last().unwrap()
    }

    #[test]
    fn percentile_matches_the_definition_on_sorted_samples() {
        // A skewed sample with repeats, like a latency distribution.
        let mut x = 88_172_645_463_325_252u64;
        let mut samples: Vec<u64> = (0..997)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let base = x % 1000;
                if x.is_multiple_of(50) {
                    base * 100
                } else {
                    base
                }
            })
            .collect();
        let unsorted = samples.clone();
        samples.sort_unstable();
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                percentile(&samples, q),
                percentile_by_definition(&unsorted, q),
                "q = {q}"
            );
        }
        assert_eq!(percentile(&samples, 1.0), *samples.last().unwrap());
        assert_eq!(percentile(&samples, 0.0), samples[0]);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(beyond(&sorted, 0.99), 10);
        assert_eq!(beyond(&sorted, 1.0), 0);
        // Ties at the percentile are not "beyond" it.
        let ties = vec![1, 1, 1, 1, 5];
        assert_eq!(beyond(&ties, 0.5), 1);
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 45.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates below three values, and so do we.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
