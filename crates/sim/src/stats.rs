//! Online statistics for experiment aggregation.
//!
//! Experiments replicate every configuration across several seeds and
//! report mean ± confidence interval; the per-run simulators also track
//! distributions of delays and yields. [`OnlineStats`] is Welford's
//! single-pass algorithm (numerically stable for long runs); [`Summary`]
//! is the serializable mean/CI bundle reports are built from.

use serde::{Deserialize, Serialize};

/// Welford single-pass mean/variance accumulator.
///
/// Serde impls go through [`bits`]: the empty accumulator's min/max
/// sentinels are ±∞, which the vendored `serde_json` renders as `null`
/// (unrecoverable), so every float field is encoded via its IEEE-754 bit
/// pattern. That also makes snapshots of the accumulator bit-exact, which
/// the durable-recovery layer depends on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// The serialized form of [`OnlineStats`](super::OnlineStats), under the
/// same name so that its errors name the public type.
mod bits {
    #[derive(serde::Serialize, serde::Deserialize)]
    pub(super) struct OnlineStats {
        pub n: u64,
        pub mean_bits: u64,
        pub m2_bits: u64,
        pub min_bits: u64,
        pub max_bits: u64,
    }
}

impl Serialize for OnlineStats {
    fn serialize(&self, out: &mut serde::Writer) {
        bits::OnlineStats {
            n: self.n,
            mean_bits: self.mean.to_bits(),
            m2_bits: self.m2.to_bits(),
            min_bits: self.min.to_bits(),
            max_bits: self.max.to_bits(),
        }
        .serialize(out);
    }
}

impl Deserialize for OnlineStats {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let bits = bits::OnlineStats::deserialize(input)?;
        Ok(OnlineStats {
            n: bits.n,
            mean: f64::from_bits(bits.mean_bits),
            m2: f64::from_bits(bits.m2_bits),
            min: f64::from_bits(bits.min_bits),
            max: f64::from_bits(bits.max_bits),
        })
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of an ~95 % normal-approximation confidence interval.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err()
    }

    /// Merges another accumulator (parallel reduction of per-thread stats).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot as a serializable [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            ci95: self.ci95_half_width(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Serializable mean/CI bundle, one cell of a report table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Number of observations behind this summary.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Half-width of the 95 % confidence interval for the mean.
    pub ci95: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: OnlineStats = xs.iter().copied().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Direct unbiased variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
        assert_eq!(s.summary().count, 0);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: OnlineStats = xs.iter().copied().collect();
        let left: OnlineStats = xs[..37].iter().copied().collect();
        let right: OnlineStats = xs[37..].iter().copied().collect();
        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-9);
        assert!((merged.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let mut b = a;
        b.merge(&OnlineStats::new());
        assert_eq!(a, b);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), a.mean());
    }

    #[test]
    fn ci_shrinks_with_n() {
        let few: OnlineStats = (0..10).map(|i| i as f64).collect();
        let many: OnlineStats = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Welford mean/variance agree with the two-pass formulas.
        #[test]
        fn welford_vs_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
            let s: OnlineStats = xs.iter().copied().collect();
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((s.mean() - mean).abs() < 1e-6);
            prop_assert!((s.variance() - var).abs() < 1e-4);
        }

        /// merge() is associative with sequential pushes for any split point.
        #[test]
        fn merge_any_split(xs in proptest::collection::vec(-100f64..100.0, 1..100), split in 0usize..100) {
            let split = split % (xs.len() + 1);
            let all: OnlineStats = xs.iter().copied().collect();
            let mut left: OnlineStats = xs[..split].iter().copied().collect();
            let right: OnlineStats = xs[split..].iter().copied().collect();
            left.merge(&right);
            prop_assert_eq!(left.count(), all.count());
            prop_assert!((left.mean() - all.mean()).abs() < 1e-7);
            prop_assert!((left.variance() - all.variance()).abs() < 1e-5);
        }

    }
}

/// Paired-sample comparison between two treatments measured on the same
/// seeds (the common-random-numbers design every experiment here uses).
/// Computes the mean difference, its confidence interval, and a paired
/// t-statistic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedComparison {
    /// Number of pairs.
    pub n: usize,
    /// Mean of (treatment − baseline).
    pub mean_diff: f64,
    /// Standard error of the mean difference.
    pub std_err: f64,
    /// Paired t-statistic (`mean_diff / std_err`); 0 when degenerate.
    pub t_stat: f64,
}

impl PairedComparison {
    /// Builds the comparison from per-seed treatment and baseline values.
    /// Panics if the slices differ in length or have fewer than 2 pairs.
    pub fn new(treatment: &[f64], baseline: &[f64]) -> Self {
        assert_eq!(
            treatment.len(),
            baseline.len(),
            "paired comparison needs equal-length samples"
        );
        assert!(treatment.len() >= 2, "need at least two pairs");
        let diffs: OnlineStats = treatment.iter().zip(baseline).map(|(t, b)| t - b).collect();
        let std_err = diffs.std_err();
        let mean_diff = diffs.mean();
        let t_stat = if std_err > 0.0 {
            mean_diff / std_err
        } else if mean_diff == 0.0 {
            0.0
        } else {
            // A perfectly consistent nonzero difference: infinitely
            // significant.
            f64::INFINITY.copysign(mean_diff)
        };
        PairedComparison {
            n: treatment.len(),
            mean_diff,
            std_err,
            t_stat,
        }
    }

    /// Two-sided 95 % critical value of Student's t for `df` degrees of
    /// freedom (exact table through 30, normal limit beyond).
    pub fn t_crit_95(df: usize) -> f64 {
        const TABLE: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        if df == 0 {
            f64::INFINITY
        } else if df <= 30 {
            TABLE[df - 1]
        } else {
            1.960
        }
    }

    /// Half-width of the 95 % CI for the mean difference.
    pub fn ci95_half_width(&self) -> f64 {
        Self::t_crit_95(self.n - 1) * self.std_err
    }

    /// `true` if the difference is significant at the 95 % level.
    pub fn significant_95(&self) -> bool {
        self.t_stat.abs() > Self::t_crit_95(self.n - 1)
    }
}

#[cfg(test)]
mod paired_tests {
    use super::*;

    #[test]
    fn clear_difference_is_significant() {
        let baseline = [10.0, 11.0, 9.5, 10.5, 10.2];
        let treatment = [12.0, 13.1, 11.4, 12.6, 12.1];
        let c = PairedComparison::new(&treatment, &baseline);
        assert!(c.mean_diff > 1.9 && c.mean_diff < 2.2);
        assert!(c.significant_95(), "t = {}", c.t_stat);
        assert!(c.ci95_half_width() < c.mean_diff);
    }

    #[test]
    fn noise_is_not_significant() {
        let baseline = [10.0, 11.0, 9.5, 10.5, 10.2];
        let treatment = [10.1, 10.8, 9.7, 10.4, 10.3];
        let c = PairedComparison::new(&treatment, &baseline);
        assert!(!c.significant_95(), "t = {}", c.t_stat);
    }

    #[test]
    fn pairing_beats_unpaired_when_seeds_dominate() {
        // Huge between-seed variance, tiny consistent treatment effect:
        // the paired design detects it.
        let baseline = [100.0, 500.0, 900.0, 1300.0, 250.0, 720.0];
        let treatment: Vec<f64> = baseline.iter().map(|b| b + 5.0).collect();
        let c = PairedComparison::new(&treatment, &baseline);
        assert!((c.mean_diff - 5.0).abs() < 1e-12);
        assert!(c.significant_95());
    }

    #[test]
    fn degenerate_zero_variance() {
        let c = PairedComparison::new(&[3.0, 3.0, 3.0], &[3.0, 3.0, 3.0]);
        assert_eq!(c.mean_diff, 0.0);
        assert_eq!(c.t_stat, 0.0);
        assert!(!c.significant_95());
    }

    #[test]
    fn t_table_sane() {
        assert!(PairedComparison::t_crit_95(1) > 12.0);
        assert!((PairedComparison::t_crit_95(10) - 2.228).abs() < 1e-9);
        assert!((PairedComparison::t_crit_95(100) - 1.96).abs() < 1e-9);
        assert!(PairedComparison::t_crit_95(0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let _ = PairedComparison::new(&[1.0, 2.0], &[1.0]);
    }
}
