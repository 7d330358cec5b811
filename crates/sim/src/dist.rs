//! Sampling distributions for synthetic workloads.
//!
//! The paper's methodology (§4.1) uses:
//!
//! * **exponential** inter-arrival times and job durations (the common
//!   batch-workload case per the cited trace studies),
//! * **normal** inter-arrival/durations for the Millennium-comparison
//!   experiments (Fig. 3), and
//! * **bimodal class mixtures** for value and decay: a high class and a low
//!   class, normal within class, with the ratio of class means called the
//!   *skew ratio*.
//!
//! [`Dist`] is a small closed enum rather than a trait object: workload
//! configs must be serializable (traces are written to disk for replay),
//! and a closed set keeps sampling free of virtual dispatch in the
//! generator's hot loop. Normal sampling uses Box–Muller; we implement it
//! here rather than pull in `rand_distr`, keeping the dependency set to the
//! approved list.

use crate::rng::SimRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A continuous sampling distribution over `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always `value`.
    Constant { value: f64 },
    /// Exponential with the given mean (not rate).
    Exponential { mean: f64 },
    /// Normal truncated below at `min` (resampled, not clipped, so the
    /// distribution stays smooth; used for durations/values that must stay
    /// positive).
    Normal { mean: f64, std_dev: f64, min: f64 },
    /// With probability `p_high` sample from `high`, else from `low`.
    /// This is the paper's bimodal value/decay construction.
    Bimodal {
        p_high: f64,
        high: Box<Dist>,
        low: Box<Dist>,
    },
    /// Log-normal with the given *distribution* mean and sigma of the
    /// underlying normal — a standard heavy-tailed model for batch job
    /// durations (Downey & Feitelson 1999).
    LogNormal {
        /// Mean of the resulting distribution (not of the log).
        mean: f64,
        /// σ of the underlying normal (shape; larger = heavier tail).
        sigma: f64,
    },
    /// Weibull with shape `k` and the given mean. `k < 1` is heavy-tailed
    /// (another common duration model); `k = 1` is exponential.
    Weibull {
        /// Mean of the distribution.
        mean: f64,
        /// Shape parameter.
        shape: f64,
    },
    /// Two-phase hyperexponential: with probability `p` an exponential of
    /// mean `mean_a`, else of mean `mean_b`. High-variance mixture used
    /// to stress schedulers with bursty service demands.
    HyperExp { p: f64, mean_a: f64, mean_b: f64 },
}

impl Dist {
    /// Exponential with mean `mean`.
    pub fn exponential(mean: f64) -> Dist {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        Dist::Exponential { mean }
    }

    /// Normal truncated below at zero.
    pub fn normal_positive(mean: f64, std_dev: f64) -> Dist {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        Dist::Normal {
            mean,
            std_dev,
            min: f64::MIN_POSITIVE,
        }
    }

    /// Normal truncated below at `min`.
    pub fn normal_min(mean: f64, std_dev: f64, min: f64) -> Dist {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        Dist::Normal { mean, std_dev, min }
    }

    /// The paper's bimodal class mixture: `p_high` of draws come from a
    /// normal around `high_mean`, the rest from a normal around
    /// `high_mean / skew_ratio`; within-class σ is `cv · class_mean`.
    pub fn bimodal_classes(p_high: f64, high_mean: f64, skew_ratio: f64, cv: f64) -> Dist {
        assert!((0.0..=1.0).contains(&p_high), "p_high must be in [0,1]");
        assert!(high_mean > 0.0 && skew_ratio >= 1.0 && cv >= 0.0);
        let low_mean = high_mean / skew_ratio;
        Dist::Bimodal {
            p_high,
            high: Box::new(Dist::normal_positive(high_mean, cv * high_mean)),
            low: Box::new(Dist::normal_positive(low_mean, cv * low_mean)),
        }
    }

    /// Log-normal with a target mean and tail shape `sigma`.
    pub fn lognormal(mean: f64, sigma: f64) -> Dist {
        assert!(mean > 0.0 && sigma >= 0.0);
        Dist::LogNormal { mean, sigma }
    }

    /// Weibull with a target mean and shape `k`.
    pub fn weibull(mean: f64, shape: f64) -> Dist {
        assert!(mean > 0.0 && shape > 0.0);
        Dist::Weibull { mean, shape }
    }

    /// Balanced two-phase hyperexponential with the given mean and
    /// squared coefficient of variation `scv > 1`.
    pub fn hyperexp(mean: f64, scv: f64) -> Dist {
        assert!(mean > 0.0 && scv > 1.0, "hyperexponential needs scv > 1");
        // Balanced-means construction: p chosen so both phases carry
        // equal load; phase means derived from the target scv.
        let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let mean_a = mean / (2.0 * p);
        let mean_b = mean / (2.0 * (1.0 - p));
        Dist::HyperExp { p, mean_a, mean_b }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Constant { value } => *value,
            Dist::Exponential { mean } => {
                // Inverse CDF. `1 - u` keeps the argument in (0, 1].
                let u: f64 = rng.gen::<f64>();
                -mean * (1.0 - u).ln()
            }
            Dist::Normal { mean, std_dev, min } => {
                if *std_dev == 0.0 {
                    return mean.max(*min);
                }
                // Resample until above the truncation point; for the
                // parameterizations used here (min ≈ 0, mean ≥ 2σ) this
                // almost never loops more than once.
                loop {
                    let x = mean + std_dev * box_muller(rng);
                    if x >= *min {
                        return x;
                    }
                }
            }
            Dist::Bimodal { p_high, high, low } => {
                if rng.gen::<f64>() < *p_high {
                    high.sample(rng)
                } else {
                    low.sample(rng)
                }
            }
            Dist::LogNormal { mean, sigma } => {
                // E[X] = exp(µ + σ²/2) ⇒ µ = ln(mean) − σ²/2.
                let mu = mean.ln() - sigma * sigma / 2.0;
                (mu + sigma * box_muller(rng)).exp()
            }
            Dist::Weibull { mean, shape } => {
                // X = λ·(−ln U)^{1/k}, λ = mean / Γ(1 + 1/k).
                let lambda = mean / gamma(1.0 + 1.0 / shape);
                let u: f64 = rng.gen::<f64>();
                lambda * (-(1.0 - u).ln()).powf(1.0 / shape)
            }
            Dist::HyperExp { p, mean_a, mean_b } => {
                let mean = if rng.gen::<f64>() < *p {
                    mean_a
                } else {
                    mean_b
                };
                let u: f64 = rng.gen::<f64>();
                -mean * (1.0 - u).ln()
            }
        }
    }

    /// The analytic mean of the distribution, ignoring truncation (exact
    /// for the untruncated members; a close upper-tail-dominated
    /// approximation for `Normal` with `min ≪ mean`). Used by the workload
    /// generator to calibrate load factors.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant { value } => *value,
            Dist::Exponential { mean } => *mean,
            Dist::Normal { mean, .. } => *mean,
            Dist::Bimodal { p_high, high, low } => {
                p_high * high.mean() + (1.0 - p_high) * low.mean()
            }
            Dist::LogNormal { mean, .. } => *mean,
            Dist::Weibull { mean, .. } => *mean,
            Dist::HyperExp { p, mean_a, mean_b } => p * mean_a + (1.0 - p) * mean_b,
        }
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate
/// to ~15 significant digits for the positive arguments used here.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// One standard-normal variate via the polar Box–Muller method.
fn box_muller(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut rng = RngFactory::new(2024).stream("dist-test");
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn sample_var(d: &Dist, n: usize) -> f64 {
        let mut rng = RngFactory::new(2025).stream("dist-var");
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant { value: 3.5 };
        let mut rng = RngFactory::new(0).stream("c");
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn exponential_mean_and_variance() {
        let d = Dist::exponential(10.0);
        let m = sample_mean(&d, 200_000);
        assert!((m - 10.0).abs() < 0.15, "mean {m}");
        // Var = mean² for exponential.
        let v = sample_var(&d, 200_000);
        assert!((v - 100.0).abs() < 3.0, "var {v}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Dist::exponential(1.0);
        let mut rng = RngFactory::new(5).stream("e");
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_and_std() {
        let d = Dist::normal_min(100.0, 20.0, f64::NEG_INFINITY);
        let m = sample_mean(&d, 200_000);
        assert!((m - 100.0).abs() < 0.3, "mean {m}");
        let v = sample_var(&d, 200_000);
        assert!((v.sqrt() - 20.0).abs() < 0.3, "std {}", v.sqrt());
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let d = Dist::normal_min(1.0, 5.0, 0.5);
        let mut rng = RngFactory::new(7).stream("t");
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.5);
        }
    }

    #[test]
    fn zero_sigma_normal_is_degenerate() {
        let d = Dist::normal_min(10.0, 0.0, 0.0);
        let mut rng = RngFactory::new(7).stream("z");
        assert_eq!(d.sample(&mut rng), 10.0);
    }

    #[test]
    fn bimodal_class_mixture_mean() {
        // 20% high with mean 90, 80% low with mean 10 → mean 26.
        let d = Dist::Bimodal {
            p_high: 0.2,
            high: Box::new(Dist::Constant { value: 90.0 }),
            low: Box::new(Dist::Constant { value: 10.0 }),
        };
        assert!((d.mean() - 26.0).abs() < 1e-12);
        let m = sample_mean(&d, 100_000);
        assert!((m - 26.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn bimodal_classes_builder_matches_skew_ratio() {
        let d = Dist::bimodal_classes(0.2, 9.0, 9.0, 0.0);
        // high mean 9, low mean 1 → mixture mean 0.2·9 + 0.8·1 = 2.6
        assert!((d.mean() - 2.6).abs() < 1e-12);
        // skew 1 collapses the classes
        let flat = Dist::bimodal_classes(0.2, 5.0, 1.0, 0.0);
        let mut rng = RngFactory::new(3).stream("flat");
        for _ in 0..100 {
            assert_eq!(flat.sample(&mut rng), 5.0);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let d = Dist::bimodal_classes(0.2, 9.0, 4.0, 0.2);
        let json = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_exponential_mean_rejected() {
        let _ = Dist::exponential(-1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::RngFactory;
    use proptest::prelude::*;

    proptest! {
        /// Sampling is deterministic in (seed, distribution).
        #[test]
        fn deterministic(seed in any::<u64>(), mean in 0.1f64..100.0) {
            let d = Dist::exponential(mean);
            let mut a = RngFactory::new(seed).stream("p");
            let mut b = RngFactory::new(seed).stream("p");
            for _ in 0..32 {
                prop_assert_eq!(d.sample(&mut a), d.sample(&mut b));
            }
        }

        /// Truncated normals never violate their floor, whatever the params.
        #[test]
        fn truncation_invariant(mean in -50.0f64..50.0, sd in 0.0f64..20.0, min in -10.0f64..10.0, seed in any::<u64>()) {
            let d = Dist::normal_min(mean.max(min), sd, min);
            let mut rng = RngFactory::new(seed).stream("trunc");
            for _ in 0..64 {
                prop_assert!(d.sample(&mut rng) >= min);
            }
        }
    }
}

#[cfg(test)]
mod heavy_tail_tests {
    use super::*;
    use crate::rng::RngFactory;

    fn sample_stats(d: &Dist, n: usize) -> (f64, f64) {
        let mut rng = RngFactory::new(77).stream("ht");
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        (m, v)
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn lognormal_hits_target_mean() {
        let d = Dist::lognormal(100.0, 1.0);
        let (m, v) = sample_stats(&d, 400_000);
        assert!((m - 100.0).abs() / 100.0 < 0.02, "mean {m}");
        // Var = mean²·(e^{σ²} − 1) ≈ 100²·1.718.
        let expect_v = 100.0_f64.powi(2) * (1f64.exp() - 1.0);
        assert!(
            (v - expect_v).abs() / expect_v < 0.15,
            "var {v} vs {expect_v}"
        );
        assert_eq!(d.mean(), 100.0);
    }

    #[test]
    fn weibull_hits_target_mean_and_reduces_to_exponential() {
        let d = Dist::weibull(100.0, 0.7);
        let (m, _) = sample_stats(&d, 300_000);
        assert!((m - 100.0).abs() / 100.0 < 0.02, "mean {m}");
        // Shape 1 == exponential: variance ≈ mean².
        let (m1, v1) = sample_stats(&Dist::weibull(50.0, 1.0), 300_000);
        assert!((m1 - 50.0).abs() / 50.0 < 0.02);
        assert!((v1 - 2500.0).abs() / 2500.0 < 0.05, "var {v1}");
    }

    #[test]
    fn hyperexp_hits_target_mean_and_scv() {
        let target_scv = 4.0;
        let d = Dist::hyperexp(100.0, target_scv);
        assert!((d.mean() - 100.0).abs() < 1e-9);
        let (m, v) = sample_stats(&d, 400_000);
        assert!((m - 100.0).abs() / 100.0 < 0.02, "mean {m}");
        let scv = v / (m * m);
        assert!((scv - target_scv).abs() / target_scv < 0.1, "scv {scv}");
    }

    #[test]
    fn heavy_tails_are_heavier() {
        // Ordering of tail mass at the same mean: lognormal(σ=1.5) and
        // weibull(k=0.5) should produce far larger maxima than exponential.
        let mut rng = RngFactory::new(5).stream("tails");
        let max_of = |d: &Dist, rng: &mut crate::rng::SimRng| {
            (0..50_000).map(|_| d.sample(rng)).fold(0.0f64, f64::max)
        };
        let exp_max = max_of(&Dist::exponential(100.0), &mut rng);
        let ln_max = max_of(&Dist::lognormal(100.0, 1.5), &mut rng);
        let wb_max = max_of(&Dist::weibull(100.0, 0.5), &mut rng);
        assert!(ln_max > exp_max, "lognormal max {ln_max} vs exp {exp_max}");
        assert!(wb_max > exp_max, "weibull max {wb_max} vs exp {exp_max}");
    }

    #[test]
    fn all_positive() {
        let mut rng = RngFactory::new(6).stream("pos");
        for d in [
            Dist::lognormal(10.0, 2.0),
            Dist::weibull(10.0, 0.5),
            Dist::hyperexp(10.0, 9.0),
        ] {
            for _ in 0..20_000 {
                assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }

    #[test]
    fn serde_roundtrip_heavy_tails() {
        for d in [
            Dist::lognormal(10.0, 1.0),
            Dist::weibull(10.0, 0.8),
            Dist::hyperexp(10.0, 3.0),
        ] {
            let back: Dist = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    #[should_panic(expected = "scv > 1")]
    fn hyperexp_requires_high_variance() {
        let _ = Dist::hyperexp(10.0, 0.5);
    }
}
