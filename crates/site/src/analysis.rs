//! User-centric per-class analysis.
//!
//! The Millennium study this paper builds on (Chun & Culler, CCGrid 2002)
//! evaluates schedulers *per user class*: do high-value users actually get
//! better service, and at whose expense? This module reconstructs the
//! 20/80 value classes of §4.1 from a trace and breaks a site outcome
//! down per class.
//!
//! Class membership is recovered by thresholding unit value at the
//! geometric mean of the two class means (the generator's classes are
//! normal with cv ≈ 0.2 around means a skew-ratio apart, so the geometric
//! midpoint misclassifies a negligible tail for skews ≥ 2).

use crate::metrics::Disposition;
use crate::SiteOutcome;
use mbts_sim::OnlineStats;
use mbts_workload::Trace;
use serde::{Deserialize, Serialize};

/// Outcome summary for one value class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassReport {
    /// Class label (`"high-value"` / `"low-value"`).
    pub label: String,
    /// Tasks in the class.
    pub count: usize,
    /// Completed tasks.
    pub completed: usize,
    /// Rejected tasks.
    pub rejected: usize,
    /// Dropped (expired and shed) tasks.
    pub dropped: usize,
    /// Mean queueing delay over completed tasks.
    pub mean_delay: f64,
    /// Total yield earned by the class.
    pub total_earned: f64,
    /// Total maximum value the class offered.
    pub value_offered: f64,
    /// `total_earned / value_offered` — how much of the class's potential
    /// the scheduler captured.
    pub capture_ratio: f64,
}

/// Splits a site outcome into high-value-class and low-value-class
/// reports. Returns `(high, low)`.
pub fn class_breakdown(trace: &Trace, outcome: &SiteOutcome) -> (ClassReport, ClassReport) {
    let threshold = class_threshold(trace);
    let mut high = Accumulator::new("high-value");
    let mut low = Accumulator::new("low-value");
    for (spec, out) in trace.tasks.iter().zip(&outcome.outcomes) {
        debug_assert_eq!(spec.id, out.id);
        let acc = if spec.unit_value() >= threshold {
            &mut high
        } else {
            &mut low
        };
        acc.count += 1;
        acc.value_offered += spec.value;
        match out.disposition {
            Disposition::Completed => {
                acc.completed += 1;
                acc.delay.push(out.delay);
                acc.total_earned += out.earned;
            }
            Disposition::Rejected => acc.rejected += 1,
            Disposition::Dropped => {
                acc.dropped += 1;
                acc.total_earned += out.earned;
            }
            // Cancelled and stranded tasks earn nothing.
            Disposition::Cancelled | Disposition::Stranded => {}
        }
    }
    (high.finish(), low.finish())
}

/// The unit-value threshold separating the generator's two classes: the
/// geometric mean of the class means. With value skew 1 the classes
/// coincide; every task then lands in the high class (threshold equals
/// the common mean and the comparison is `>=`... up to sampling noise —
/// callers should not use the breakdown for skew-1 mixes).
pub fn class_threshold(trace: &Trace) -> f64 {
    let cfg = &trace.config;
    let p = cfg.p_high_value;
    let high_mean = cfg.mean_unit_value / (p + (1.0 - p) / cfg.value_skew);
    let low_mean = high_mean / cfg.value_skew;
    (high_mean * low_mean).sqrt()
}

struct Accumulator {
    label: &'static str,
    count: usize,
    completed: usize,
    rejected: usize,
    dropped: usize,
    delay: OnlineStats,
    total_earned: f64,
    value_offered: f64,
}

impl Accumulator {
    fn new(label: &'static str) -> Self {
        Accumulator {
            label,
            count: 0,
            completed: 0,
            rejected: 0,
            dropped: 0,
            delay: OnlineStats::new(),
            total_earned: 0.0,
            value_offered: 0.0,
        }
    }

    fn finish(self) -> ClassReport {
        ClassReport {
            label: self.label.to_string(),
            count: self.count,
            completed: self.completed,
            rejected: self.rejected,
            dropped: self.dropped,
            mean_delay: self.delay.mean(),
            total_earned: self.total_earned,
            value_offered: self.value_offered,
            capture_ratio: if self.value_offered > 0.0 {
                self.total_earned / self.value_offered
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SiteConfig, SiteOutcome, SiteRun};
    use mbts_core::Policy;
    use mbts_trace::Tracer;
    use mbts_workload::{generate_trace, BoundPolicy, MixConfig, Trace};

    fn mix() -> MixConfig {
        MixConfig::millennium_default()
            .with_tasks(600)
            .with_processors(4)
            .with_load_factor(2.0)
            .with_value_skew(4.0)
            .with_bound(BoundPolicy::ZeroFloor)
    }

    fn run(trace: &Trace, policy: Policy) -> SiteOutcome {
        let config = SiteConfig::new(4).with_policy(policy);
        SiteRun::new(config, trace, Tracer::Off).finish().0
    }

    #[test]
    fn classes_partition_the_trace() {
        let trace = generate_trace(&mix(), 5);
        let outcome = run(&trace, Policy::FirstPrice);
        let (high, low) = class_breakdown(&trace, &outcome);
        assert_eq!(high.count + low.count, 600);
        // 20/80 split within sampling noise.
        let frac = high.count as f64 / 600.0;
        assert!((0.1..0.3).contains(&frac), "high fraction {frac}");
        assert_eq!(high.completed + low.completed, outcome.metrics.completed);
        let total = high.total_earned + low.total_earned;
        assert!((total - outcome.metrics.total_yield).abs() < 1e-6);
    }

    #[test]
    fn value_aware_scheduling_favours_the_high_class() {
        let trace = generate_trace(&mix(), 6);
        let fp = run(&trace, Policy::FirstPrice);
        let fcfs = run(&trace, Policy::Fcfs);
        let (h_fp, _) = class_breakdown(&trace, &fp);
        let (h_fcfs, _) = class_breakdown(&trace, &fcfs);
        // FirstPrice prioritizes high-unit-value work: the high class
        // captures more of its potential and waits less than under FCFS.
        assert!(
            h_fp.capture_ratio > h_fcfs.capture_ratio,
            "FP {} vs FCFS {}",
            h_fp.capture_ratio,
            h_fcfs.capture_ratio
        );
        assert!(h_fp.mean_delay < h_fcfs.mean_delay);
    }

    #[test]
    fn high_class_gets_better_service_under_first_price() {
        let trace = generate_trace(&mix(), 7);
        let outcome = run(&trace, Policy::FirstPrice);
        let (high, low) = class_breakdown(&trace, &outcome);
        assert!(high.mean_delay < low.mean_delay);
        assert!(high.capture_ratio > low.capture_ratio);
    }

    #[test]
    fn threshold_sits_between_class_means() {
        let trace = generate_trace(&mix(), 8);
        let t = class_threshold(&trace);
        let cfg = &trace.config;
        let high_mean = cfg.mean_unit_value / (0.2 + 0.8 / 4.0);
        let low_mean = high_mean / 4.0;
        assert!(t > low_mean && t < high_mean);
    }
}
