//! Figure 4: FirstReward improvement over FirstPrice as α varies, with
//! **bounded** (at zero) penalties, one series per decay skew ratio.
//!
//! Workload (§5.3): exponential arrivals/durations, value skew 2, load 1,
//! discount rate 1 %. The paper finds cost (low α) more important than
//! gains, a hybrid optimum around α ≈ 0.3, and stronger effects at higher
//! decay skews.

use crate::figures::{run_site, sized};
use crate::harness::{sweep, ExpParams};
use crate::report::FigureResult;
use mbts_core::Policy;
use mbts_site::SiteConfig;
use mbts_workload::fig45_mix;

/// Decay skew ratios, as in the paper's legend.
pub const DECAY_SKEWS: [f64; 3] = [3.0, 5.0, 7.0];

/// α grid (the paper sweeps 0–0.9).
pub const ALPHAS: [f64; 10] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Discount rate used by the paper for these experiments.
pub const DISCOUNT: f64 = 0.01;

/// Shared α-sweep engine for Figures 4 and 5 (they differ only in the
/// penalty bound): FirstReward at each α against FirstPrice on the same
/// seed.
pub(crate) fn alpha_sweep(
    params: &ExpParams,
    bounded: bool,
    id: &str,
    title: &str,
) -> FigureResult {
    let skews = DECAY_SKEWS.map(|skew| {
        (
            format!("Decay Skew Ratio={skew}"),
            sized(fig45_mix(skew, bounded), params),
        )
    });
    let alphas = ALPHAS.map(|alpha| (alpha, Policy::first_reward(alpha, DISCOUNT)));
    let total_yield = |mix: &_, policy: Policy, seed| {
        let site = SiteConfig::new(params.processors).with_policy(policy);
        run_site(mix, seed, site).metrics.total_yield
    };
    FigureResult {
        id: id.into(),
        title: title.into(),
        x_label: "risk vs reward weight (alpha)".into(),
        y_label: "improvement over FirstPrice (%)".into(),
        series: sweep(
            params,
            &skews,
            &alphas,
            |mix, &first_reward, seed| total_yield(mix, first_reward, seed),
            Some(&|mix, seed| total_yield(mix, Policy::FirstPrice, seed)),
        ),
    }
}

/// Regenerates Figure 4.
pub fn fig4(params: &ExpParams) -> FigureResult {
    alpha_sweep(
        params,
        true,
        "fig4",
        "FirstReward vs FirstPrice across alpha (bounded penalties)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shape() {
        let params = ExpParams {
            tasks: 600,
            seeds: 2,
            base_seed: 3000,
            processors: 8,
        };
        let fig = fig4(&params);
        assert_eq!(fig.series.len(), DECAY_SKEWS.len());
        for s in &fig.series {
            assert_eq!(s.points.len(), ALPHAS.len());
            // Some cost-aware setting should not lose badly to FirstPrice.
            let best = s.means().into_iter().fold(f64::NEG_INFINITY, f64::max);
            assert!(best > -20.0, "series {} best {best}", s.label);
        }
    }
}
