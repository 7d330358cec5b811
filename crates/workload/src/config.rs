//! Workload mix configuration.
//!
//! [`MixConfig`] captures every knob of the paper's synthetic traces
//! (§4.1). The two normalization decisions that make skew sweeps
//! meaningful are:
//!
//! * **Skew changes variance, not scale.** When the value (or decay) skew
//!   ratio varies, the *mixture mean* of unit value (or decay) is held
//!   fixed; the high-class mean is solved from
//!   `mean = high · (p + (1 − p)/skew)`. Comparisons across skews then see
//!   the same aggregate offered value, differing only in concentration.
//! * **Load factor scales the arrival process only.** Offered load is
//!   `arrival_rate · E[runtime] / processors`; the generator solves for the
//!   inter-arrival mean, so runtimes and values are identical across a load
//!   sweep (common random numbers).

use crate::task::PenaltyBound;
use mbts_sim::Dist;
use serde::{Deserialize, Serialize};

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times, one task per
    /// arrival. The common case per the trace studies cited in §4.1.
    Exponential,
    /// Normally distributed inter-batch gaps with `batch_size` tasks
    /// released simultaneously per arrival — the Millennium Figure-3
    /// configuration (16 jobs per batch). `cv` is σ/mean of the gap.
    NormalBatch {
        /// Tasks released per arrival instant.
        batch_size: usize,
        /// Coefficient of variation of the inter-batch gap.
        cv: f64,
    },
}

/// How processor widths are assigned to generated tasks.
///
/// The paper's evaluation uses single-processor tasks (§4); wider gangs
/// exercise the backfilling extension. Widths are capped at the site size
/// the mix is calibrated against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum WidthPolicy {
    /// Every task requests one processor (the paper's setting).
    #[default]
    One,
    /// Uniform over `[lo, hi]` processors.
    Uniform {
        /// Minimum width (≥ 1).
        lo: usize,
        /// Maximum width.
        hi: usize,
    },
    /// Powers of two `1, 2, …, 2^max_exp`, uniformly — the shape real
    /// parallel-job traces exhibit (Lo et al., JSSPP 1998).
    PowersOfTwo {
        /// Largest exponent (width ≤ 2^max_exp).
        max_exp: u32,
    },
}

impl WidthPolicy {
    /// Expected width under the policy.
    pub fn mean(&self) -> f64 {
        match self {
            WidthPolicy::One => 1.0,
            WidthPolicy::Uniform { lo, hi } => (*lo + *hi) as f64 / 2.0,
            WidthPolicy::PowersOfTwo { max_exp } => {
                let n = *max_exp as f64 + 1.0;
                // (2^{max_exp+1} − 1) / (max_exp + 1)
                ((2u64 << max_exp) - 1) as f64 / n
            }
        }
    }
}

/// How penalty bounds are assigned to generated tasks (§3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BoundPolicy {
    /// All value functions decay without bound.
    Unbounded,
    /// All value functions floor at zero (the Millennium setting).
    ZeroFloor,
    /// Each task's maximum penalty is `fraction · value_i`.
    ProportionalPenalty {
        /// Penalty cap as a fraction of the task's maximum value.
        fraction: f64,
    },
}

impl BoundPolicy {
    /// The penalty bound this policy gives a task (or workflow) of
    /// maximum value `value`.
    pub fn penalty_bound(&self, value: f64) -> PenaltyBound {
        match *self {
            BoundPolicy::Unbounded => PenaltyBound::UNBOUNDED,
            BoundPolicy::ZeroFloor => PenaltyBound::ZERO,
            BoundPolicy::ProportionalPenalty { fraction } => {
                PenaltyBound::bounded(fraction * value)
            }
        }
    }
}

/// Full description of a synthetic task mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixConfig {
    /// Number of tasks in the trace (the paper uses 5000).
    pub num_tasks: usize,
    /// Site capacity the load factor is calibrated against.
    pub processors: usize,
    /// Offered load: total requested work per unit time / capacity.
    pub load_factor: f64,
    /// Arrival process shape.
    pub arrival: ArrivalProcess,
    /// Job duration distribution (mean must be positive).
    pub runtime: Dist,
    /// Fraction of jobs in the high unit-value class (paper: 0.2).
    pub p_high_value: f64,
    /// Ratio of high-class to low-class mean unit value (≥ 1).
    pub value_skew: f64,
    /// Mixture mean of `value_i / runtime_i`; fixed across skew sweeps.
    pub mean_unit_value: f64,
    /// Within-class coefficient of variation for unit value.
    pub value_cv: f64,
    /// Fraction of jobs in the high decay class (paper mirrors value: 0.2).
    pub p_high_decay: f64,
    /// Ratio of high-class to low-class mean decay (≥ 1).
    pub decay_skew: f64,
    /// Mixture mean of `decay_i`; fixed across skew sweeps. The default
    /// (half the mean unit value) makes one mean-runtime of queueing delay
    /// cost half a mean job's value — enough decay pressure for scheduling
    /// order to matter at load 1.
    pub mean_decay: f64,
    /// Within-class coefficient of variation for decay.
    pub decay_cv: f64,
    /// Penalty bound assignment.
    pub bound: BoundPolicy,
    /// Processor-width assignment (default: all width 1, as in the paper).
    #[serde(default)]
    pub width: WidthPolicy,
    /// Std-dev of the relative runtime estimation error (0 = accurate, the
    /// paper's assumption; > 0 enables the misestimation extension).
    pub runtime_error: f64,
}

/// Default mean runtime in time units; all defaults are expressed
/// relative to this scale.
pub const DEFAULT_MEAN_RUNTIME: f64 = 100.0;

impl MixConfig {
    /// A Millennium-flavoured default mix: Poisson arrivals, exponential
    /// runtimes (mean 100 t.u.), 20/80 bimodal unit value with skew 3,
    /// 20/80 bimodal decay with skew 5, unbounded penalties, load 1.
    pub fn millennium_default() -> Self {
        MixConfig {
            num_tasks: 5000,
            processors: 16,
            load_factor: 1.0,
            arrival: ArrivalProcess::Exponential,
            runtime: Dist::exponential(DEFAULT_MEAN_RUNTIME),
            p_high_value: 0.2,
            value_skew: 3.0,
            mean_unit_value: 1.0,
            value_cv: 0.2,
            p_high_decay: 0.2,
            decay_skew: 5.0,
            mean_decay: 0.5,
            decay_cv: 0.2,
            bound: BoundPolicy::Unbounded,
            width: WidthPolicy::One,
            runtime_error: 0.0,
        }
    }

    /// Sets the trace length.
    pub fn with_tasks(mut self, n: usize) -> Self {
        assert!(n > 0, "trace must contain at least one task");
        self.num_tasks = n;
        self
    }

    /// Sets the capacity the load factor is calibrated against.
    pub fn with_processors(mut self, p: usize) -> Self {
        assert!(p > 0, "site must have at least one processor");
        self.processors = p;
        self
    }

    /// Sets the offered load factor.
    pub fn with_load_factor(mut self, load: f64) -> Self {
        assert!(load > 0.0, "load factor must be positive");
        self.load_factor = load;
        self
    }

    /// Sets the arrival process.
    pub fn with_arrival(mut self, a: ArrivalProcess) -> Self {
        if let ArrivalProcess::NormalBatch { batch_size, .. } = a {
            assert!(batch_size > 0, "batch size must be positive");
        }
        self.arrival = a;
        self
    }

    /// Sets the runtime distribution.
    pub fn with_runtime(mut self, d: Dist) -> Self {
        assert!(d.mean() > 0.0, "runtime distribution mean must be positive");
        self.runtime = d;
        self
    }

    /// Sets the value skew ratio (mixture mean held fixed).
    pub fn with_value_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 1.0, "skew ratio must be >= 1");
        self.value_skew = skew;
        self
    }

    /// Sets the decay skew ratio (mixture mean held fixed).
    pub fn with_decay_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 1.0, "skew ratio must be >= 1");
        self.decay_skew = skew;
        self
    }

    /// Sets the mixture mean of decay rates.
    pub fn with_mean_decay(mut self, d: f64) -> Self {
        assert!(d >= 0.0, "mean decay must be non-negative");
        self.mean_decay = d;
        self
    }

    /// Sets the penalty-bound policy.
    pub fn with_bound(mut self, b: BoundPolicy) -> Self {
        self.bound = b;
        self
    }

    /// Sets the processor-width policy.
    pub fn with_width(mut self, width: WidthPolicy) -> Self {
        if let WidthPolicy::Uniform { lo, hi } = width {
            assert!(lo >= 1 && hi >= lo, "need 1 <= lo <= hi");
        }
        self.width = width;
        self
    }

    /// Enables runtime misestimation with the given relative error σ.
    pub fn with_runtime_error(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "error std-dev must be non-negative");
        self.runtime_error = sigma;
        self
    }

    /// The distribution of unit values implied by this config: a bimodal
    /// class mixture whose mean is `mean_unit_value` regardless of skew.
    pub fn unit_value_dist(&self) -> Dist {
        class_mixture(
            self.p_high_value,
            self.mean_unit_value,
            self.value_skew,
            self.value_cv,
        )
    }

    /// The distribution of decay rates implied by this config.
    pub fn decay_dist(&self) -> Dist {
        class_mixture(
            self.p_high_decay,
            self.mean_decay,
            self.decay_skew,
            self.decay_cv,
        )
    }

    /// Task arrival rate (tasks per time unit) implied by the load factor:
    /// `load · processors / (E[width] · E[runtime])` — offered work per
    /// task is `width · runtime` processor-time units.
    pub fn arrival_rate(&self) -> f64 {
        self.load_factor * self.processors as f64 / (self.width.mean() * self.runtime.mean())
    }

    /// Mean gap between arrival *events* (a batch counts as one event).
    pub fn mean_arrival_gap(&self) -> f64 {
        match self.arrival {
            ArrivalProcess::Exponential => 1.0 / self.arrival_rate(),
            ArrivalProcess::NormalBatch { batch_size, .. } => {
                batch_size as f64 / self.arrival_rate()
            }
        }
    }
}

/// Builds the paper's class mixture with a fixed mixture mean:
/// `high · (p + (1 − p)/skew) = mean` ⇒ `high = mean / (p + (1 − p)/skew)`.
fn class_mixture(p_high: f64, mean: f64, skew: f64, cv: f64) -> Dist {
    if mean == 0.0 {
        return Dist::Constant { value: 0.0 };
    }
    let high = mean / (p_high + (1.0 - p_high) / skew);
    Dist::bimodal_classes(p_high, high, skew, cv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = MixConfig::millennium_default();
        assert_eq!(c.num_tasks, 5000);
        assert!(c.load_factor == 1.0);
        assert!((c.runtime.mean() - DEFAULT_MEAN_RUNTIME).abs() < 1e-12);
    }

    #[test]
    fn skew_preserves_mixture_mean() {
        for skew in [1.0, 1.5, 2.15, 4.0, 9.0] {
            let c = MixConfig::millennium_default().with_value_skew(skew);
            let d = c.unit_value_dist();
            assert!(
                (d.mean() - c.mean_unit_value).abs() < 1e-9,
                "skew {skew} → mean {}",
                d.mean()
            );
        }
    }

    #[test]
    fn decay_skew_preserves_mixture_mean() {
        for skew in [1.0, 3.0, 5.0, 7.0] {
            let c = MixConfig::millennium_default().with_decay_skew(skew);
            assert!((c.decay_dist().mean() - c.mean_decay).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_mean_decay_yields_constant_zero() {
        let c = MixConfig::millennium_default().with_mean_decay(0.0);
        assert_eq!(c.decay_dist(), Dist::Constant { value: 0.0 });
    }

    #[test]
    fn arrival_rate_matches_load_identity() {
        let c = MixConfig::millennium_default()
            .with_processors(8)
            .with_load_factor(2.0);
        // rate · E[runtime] / processors == load
        let implied_load = c.arrival_rate() * c.runtime.mean() / 8.0;
        assert!((implied_load - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_gap_scales_with_batch_size() {
        let single = MixConfig::millennium_default();
        let batched = MixConfig::millennium_default().with_arrival(ArrivalProcess::NormalBatch {
            batch_size: 16,
            cv: 0.2,
        });
        assert!((batched.mean_arrival_gap() - 16.0 * single.mean_arrival_gap()).abs() < 1e-9);
    }

    #[test]
    fn builders_chain() {
        let c = MixConfig::millennium_default()
            .with_tasks(100)
            .with_processors(4)
            .with_load_factor(0.5)
            .with_value_skew(2.0)
            .with_decay_skew(3.0)
            .with_bound(BoundPolicy::ZeroFloor)
            .with_runtime_error(0.1);
        assert_eq!(c.num_tasks, 100);
        assert_eq!(c.processors, 4);
        assert_eq!(c.bound, BoundPolicy::ZeroFloor);
        assert_eq!(c.runtime_error, 0.1);
    }

    #[test]
    #[should_panic(expected = "load factor must be positive")]
    fn zero_load_rejected() {
        let _ = MixConfig::millennium_default().with_load_factor(0.0);
    }

    #[test]
    #[should_panic(expected = "skew ratio must be >= 1")]
    fn sub_unit_skew_rejected() {
        let _ = MixConfig::millennium_default().with_value_skew(0.5);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn empty_batches_rejected() {
        let _ = MixConfig::millennium_default().with_arrival(ArrivalProcess::NormalBatch {
            batch_size: 0,
            cv: 0.0,
        });
    }

    #[test]
    fn serde_roundtrip() {
        let c = MixConfig::millennium_default()
            .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.25 });
        let json = serde_json::to_string(&c).unwrap();
        let back: MixConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
