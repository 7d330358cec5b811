//! Figure 7: improvement over no-admission-control as the slack threshold
//! varies, one series per load factor.
//!
//! Same mixes as Figure 6. The paper shows each load has an interior
//! optimum threshold, and that both the optimum and the stakes of
//! choosing it well grow with load: overloaded sites need risk-averse
//! (high) thresholds; lightly loaded sites should accept almost anything.

use crate::figures::{run_site, sized};
use crate::harness::{sweep, ExpParams};
use crate::report::FigureResult;
use mbts_core::{AdmissionPolicy, Policy};
use mbts_site::SiteConfig;
use mbts_workload::fig67_mix;

/// Load factors, as in the paper's legend.
pub const LOADS: [f64; 5] = [0.5, 0.67, 0.89, 1.33, 2.0];

/// Slack thresholds swept (the paper's x-axis runs −200…700).
pub const THRESHOLDS: [f64; 10] = [
    -200.0, -100.0, 0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0,
];

/// α used by the FirstReward scheduler in this experiment (a hybrid
/// setting per Figure 4's findings).
pub const ALPHA: f64 = 0.2;

/// Discount rate (1 %).
pub const DISCOUNT: f64 = 0.01;

/// Regenerates Figure 7: each threshold against the same scheduler with
/// no admission control, on the same seed.
pub fn fig7(params: &ExpParams) -> FigureResult {
    let loads = LOADS.map(|load| (format!("Load={load}"), sized(fig67_mix(load), params)));
    let thresholds =
        THRESHOLDS.map(|threshold| (threshold, AdmissionPolicy::SlackThreshold { threshold }));
    let yield_rate = |mix: &_, admission, seed| {
        let site = SiteConfig::new(params.processors)
            .with_policy(Policy::first_reward(ALPHA, DISCOUNT))
            .with_admission(admission);
        run_site(mix, seed, site).metrics.yield_rate()
    };
    FigureResult {
        id: "fig7".into(),
        title: "Slack-threshold sweep: improvement over no admission control".into(),
        x_label: "admission control threshold".into(),
        y_label: "improvement over no admission control (%)".into(),
        series: sweep(
            params,
            &loads,
            &thresholds,
            |mix, &admission, seed| yield_rate(mix, admission, seed),
            Some(&|mix, seed| yield_rate(mix, AdmissionPolicy::AcceptAll, seed)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_higher_load_benefits_more() {
        let params = ExpParams {
            tasks: 500,
            seeds: 2,
            base_seed: 6000,
            processors: 8,
        };
        let fig = fig7(&params);
        assert_eq!(fig.series.len(), LOADS.len());
        let best = |label: &str| -> f64 {
            fig.series_by_label(label)
                .unwrap()
                .means()
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        // The heaviest load should gain at least as much from admission
        // control as the lightest.
        assert!(
            best("Load=2") >= best("Load=0.5") - 5.0,
            "load 2 best {} vs load 0.5 best {}",
            best("Load=2"),
            best("Load=0.5")
        );
    }
}
