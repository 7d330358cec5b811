//! Trace validation.
//!
//! Traces arrive from three sources — the synthetic generator, JSON files
//! edited by hand, and SWF imports — and the simulators assume structural
//! invariants (sorted arrivals, dense ids, positive runtimes). This module
//! checks them and reports quality *warnings* (suspicious but legal data:
//! width overflow against the calibration size, a realized load far from
//! the configured one, zero-value tasks) separately from hard *errors*.

use crate::trace::{Trace, TraceStats};

/// Outcome of validating a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Violations of invariants the simulators rely on.
    pub errors: Vec<String>,
    /// Suspicious-but-legal observations.
    pub warnings: Vec<String>,
    /// Descriptive statistics (computed once, returned for convenience).
    pub stats: TraceStats,
}

impl ValidationReport {
    /// `true` when no hard errors were found.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.errors.is_empty() && self.warnings.is_empty() {
            out.push_str("trace OK\n");
        }
        for e in &self.errors {
            out.push_str(&format!("error: {e}\n"));
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out.push_str(&format!(
            "{} tasks, offered load {:.2}, total value {:.0}\n",
            self.stats.num_tasks, self.stats.offered_load, self.stats.total_value
        ));
        out
    }
}

/// Validates `trace`, returning all errors and warnings found.
pub fn validate_trace(trace: &Trace) -> ValidationReport {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();

    for (i, t) in trace.tasks.iter().enumerate() {
        let id = t.id;
        if t.id.index() != i {
            errors.push(format!("{id}: id out of order (position {i})"));
        }
        if !t.arrival.as_f64().is_finite() || t.arrival.as_f64() < 0.0 {
            errors.push(format!("{id}: bad arrival {}", t.arrival));
        }
        if t.runtime.as_f64() <= 0.0 || t.runtime.as_f64().is_nan() {
            errors.push(format!("{id}: non-positive runtime {}", t.runtime));
        }
        let true_runtime = trace.tasks.true_runtime(i);
        if true_runtime.as_f64() <= 0.0 || true_runtime.as_f64().is_nan() {
            errors.push(format!("{id}: non-positive true runtime {true_runtime}"));
        }
        if !t.value.is_finite() || t.value < 0.0 {
            errors.push(format!("{id}: bad value {}", t.value));
        }
        if !t.decay.is_finite() || t.decay < 0.0 {
            errors.push(format!("{id}: bad decay {}", t.decay));
        }
        if let Some(p) = t.bound.max_penalty().filter(|_| !t.bound.is_valid()) {
            errors.push(format!("{id}: bad penalty bound (max_penalty {p})"));
        }
        if t.width == 0 {
            errors.push(format!("{id}: zero width"));
        } else if t.width > trace.config.processors {
            warnings.push(format!(
                "{id}: width {} exceeds the calibration size {} (will be rejected by same-size sites)",
                t.width, trace.config.processors
            ));
        }
        if i > 0 && t.arrival < trace.tasks[i - 1].arrival {
            errors.push(format!("{id}: arrivals not sorted"));
        }
        if t.value == 0.0 && t.decay == 0.0 {
            warnings.push(format!("{id}: zero value and zero decay (inert task)"));
        }
        let ratio = true_runtime.as_f64() / t.runtime.as_f64();
        if !(0.01..=100.0).contains(&ratio) {
            warnings.push(format!(
                "{id}: true runtime is {ratio:.1}× the estimate — extreme misestimation"
            ));
        }
    }

    let stats = trace.stats();
    if stats.num_tasks > 10 && stats.offered_load.is_finite() {
        let rel = (stats.offered_load - trace.config.load_factor).abs()
            / trace.config.load_factor.max(1e-9);
        if rel > 0.25 {
            warnings.push(format!(
                "realized offered load {:.2} is {:.0}% away from the configured {:.2}",
                stats.offered_load,
                rel * 100.0,
                trace.config.load_factor
            ));
        }
    }

    ValidationReport {
        errors,
        warnings,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MixConfig;
    use crate::generator::generate_trace;
    use crate::task::{PenaltyBound, TaskSpec};
    use crate::tasklist::TaskList;
    use mbts_sim::Duration;

    #[test]
    fn generated_traces_are_valid() {
        let trace = generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(500)
                .with_processors(8),
            1,
        );
        let report = validate_trace(&trace);
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.render().contains("500 tasks"));
    }

    #[test]
    fn detects_unsorted_arrivals_and_bad_ids() {
        let cfg = MixConfig::millennium_default().with_tasks(2);
        let a = TaskSpec::new(0, 10.0, 5.0, 1.0, 0.1, PenaltyBound::ZERO);
        let b = TaskSpec::new(5, 3.0, 5.0, 1.0, 0.1, PenaltyBound::ZERO);
        let trace = Trace {
            config: cfg,
            seed: 0,
            tasks: vec![a, b].into(),
        };
        let report = validate_trace(&trace);
        assert!(!report.is_valid());
        assert!(report.errors.iter().any(|e| e.contains("not sorted")));
        assert!(report.errors.iter().any(|e| e.contains("id out of order")));
    }

    #[test]
    fn warns_on_width_overflow_and_load_mismatch() {
        let cfg = MixConfig::millennium_default()
            .with_tasks(20)
            .with_processors(4)
            .with_load_factor(1.0);
        let mut tasks = Vec::new();
        for i in 0..20 {
            // Arrivals far apart → realized load tiny vs configured 1.0.
            let mut t = TaskSpec::new(i, i as f64 * 1000.0, 5.0, 10.0, 0.1, PenaltyBound::ZERO);
            if i == 3 {
                t = t.with_width(16); // wider than the 4-proc calibration
            }
            tasks.push(t);
        }
        let trace = Trace {
            config: cfg,
            seed: 0,
            tasks: tasks.into(),
        };
        let report = validate_trace(&trace);
        assert!(report.is_valid());
        assert!(report.warnings.iter().any(|w| w.contains("width 16")));
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("away from the configured")));
    }

    #[test]
    fn warns_on_extreme_misestimation() {
        let cfg = MixConfig::millennium_default().with_tasks(1);
        let t = TaskSpec::new(0, 0.0, 1.0, 10.0, 0.1, PenaltyBound::ZERO);
        let trace = Trace::new(cfg, 0, TaskList::new(vec![t], vec![Duration::from(500.0)]));
        let report = validate_trace(&trace);
        assert!(report.is_valid());
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("extreme misestimation")));
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = Trace::new(MixConfig::millennium_default(), 0, vec![]);
        assert!(validate_trace(&trace).is_valid());
    }

    /// A floor above zero would pay a late task more than its value, and
    /// a `NaN` one would compare false everywhere: both are refused.
    #[test]
    fn a_negative_or_nan_penalty_bound_is_an_error() {
        let cfg = MixConfig::millennium_default().with_tasks(3);
        let tasks: Vec<TaskSpec> = [-50.0, f64::NAN, 7.0]
            .into_iter()
            .enumerate()
            .map(|(i, p)| TaskSpec {
                // What a trace file can hold: `TaskSpec::new` refuses it.
                bound: PenaltyBound::bounded(p),
                ..TaskSpec::new(i as u64, 0.0, 1.0, 10.0, 0.1, PenaltyBound::ZERO)
            })
            .collect();
        let report = validate_trace(&Trace::new(cfg, 0, tasks));
        assert_eq!(
            report.errors,
            [
                "task#0: bad penalty bound (max_penalty -50)",
                "task#1: bad penalty bound (max_penalty NaN)"
            ]
        );
        assert!(PenaltyBound::UNBOUNDED.is_valid() && PenaltyBound::ZERO.is_valid());
    }
}
