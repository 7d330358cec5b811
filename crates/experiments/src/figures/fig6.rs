//! Figure 6: average yield rate vs load factor, with and without
//! admission control.
//!
//! Workload (§6): 5000 jobs, exponential arrivals/durations, unbounded
//! penalties, value skew 3, decay skew 5. FirstReward sites (α sweep)
//! apply slack-threshold admission (threshold 180, discount 1 %); the
//! contrast line is FirstPrice with no admission control, whose yield
//! rate collapses as load passes saturation.

use crate::figures::{run_site, sized};
use crate::harness::{sweep, ExpParams};
use crate::report::FigureResult;
use mbts_core::{AdmissionPolicy, Policy};
use mbts_site::SiteConfig;
use mbts_workload::fig67_mix;

/// Load factors swept (the paper's x-axis runs 0.5–4.5).
pub const LOADS: [f64; 9] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5];

/// α settings shown in the paper's legend.
pub const ALPHAS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// The slack threshold the paper uses for this experiment.
pub const SLACK_THRESHOLD: f64 = 180.0;

/// Discount rate (1 %).
pub const DISCOUNT: f64 = 0.01;

/// Regenerates Figure 6.
pub fn fig6(params: &ExpParams) -> FigureResult {
    // FirstReward with admission control at each α, then FirstPrice
    // without it.
    let mut sites: Vec<(String, SiteConfig)> = ALPHAS
        .iter()
        .map(|&alpha| {
            let site = SiteConfig::new(params.processors)
                .with_policy(Policy::first_reward(alpha, DISCOUNT))
                .with_admission(AdmissionPolicy::SlackThreshold {
                    threshold: SLACK_THRESHOLD,
                });
            (format!("FirstReward, Alpha={alpha}"), site)
        })
        .collect();
    sites.push((
        "FirstPrice w/o Admission Control".into(),
        SiteConfig::new(params.processors).with_policy(Policy::FirstPrice),
    ));
    let loads = LOADS.map(|load| (load, load));
    FigureResult {
        id: "fig6".into(),
        title: "Admission control: yield rate vs load factor".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series: sweep(
            params,
            &sites,
            &loads,
            |site, &load, seed| {
                let mix = sized(fig67_mix(load), params);
                run_site(&mix, seed, site.clone()).metrics.yield_rate()
            },
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_admission_control_wins_under_overload() {
        let params = ExpParams {
            tasks: 500,
            seeds: 2,
            base_seed: 5000,
            processors: 8,
        };
        let fig = fig6(&params);
        assert_eq!(fig.series.len(), ALPHAS.len() + 1);
        let no_ac = fig
            .series_by_label("FirstPrice w/o Admission Control")
            .unwrap();
        // At the heaviest load, *some* admission-controlled series must
        // beat the uncontrolled one.
        let last = LOADS.len() - 1;
        let best_ac = fig.series[..ALPHAS.len()]
            .iter()
            .map(|s| s.points[last].y.mean)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_ac > no_ac.points[last].y.mean,
            "AC best {best_ac} vs no-AC {}",
            no_ac.points[last].y.mean
        );
    }
}
