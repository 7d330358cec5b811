//! Figure 3: yield improvement of Present Value over FirstPrice as the
//! discount rate varies, one series per value skew ratio.
//!
//! Workload (§5.1): the Millennium-comparison mix — normal inter-arrival
//! gaps with 16 jobs per batch, normal durations, uniform decay across
//! tasks, penalties bounded at zero, load factor 1, preemption enabled.
//! At discount rate 0, PV ≡ FirstPrice; the paper reports modest (up to
//! ~8 %) gains at intermediate rates, larger for higher value skews.

use crate::figures::{run_site, sized};
use crate::harness::{sweep, ExpParams};
use crate::report::FigureResult;
use mbts_core::Policy;
use mbts_site::SiteConfig;
use mbts_workload::fig3_mix;

/// Value skew ratios, as in the paper's legend.
pub const VALUE_SKEWS: [f64; 5] = [1.0, 1.5, 2.15, 4.0, 9.0];

/// Discount rates swept (fractions; the paper's x-axis is in %,
/// log-scaled 0.001 %–10 %).
pub const DISCOUNT_RATES: [f64; 6] = [1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1];

/// Regenerates Figure 3: PV at each discount rate against FirstPrice on
/// the same seed (common random numbers).
pub fn fig3(params: &ExpParams) -> FigureResult {
    let skews = VALUE_SKEWS.map(|skew| {
        (
            format!("Value Skew Ratio={skew}"),
            sized(fig3_mix(skew), params),
        )
    });
    // Reported in %, like the paper's axis.
    let rates = DISCOUNT_RATES.map(|rate| (rate * 100.0, Policy::pv(rate)));
    let total_yield = |mix: &_, policy: Policy, seed| {
        let site = SiteConfig::new(params.processors)
            .with_policy(policy)
            .with_preemption(true);
        run_site(mix, seed, site).metrics.total_yield
    };
    FigureResult {
        id: "fig3".into(),
        title: "PV vs FirstPrice across discount rates (Millennium mix)".into(),
        x_label: "discount rate (%)".into(),
        y_label: "improvement over FirstPrice (%)".into(),
        series: sweep(
            params,
            &skews,
            &rates,
            |mix, &pv, seed| total_yield(mix, pv, seed),
            Some(&|mix, seed| total_yield(mix, Policy::FirstPrice, seed)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape check at smoke scale: the skew-9 series should dominate the
    /// skew-1 series somewhere, and no point should be a catastrophic
    /// regression.
    #[test]
    fn smoke_shape() {
        let params = ExpParams {
            tasks: 600,
            seeds: 2,
            base_seed: 2000,
            processors: 8,
        };
        let fig = fig3(&params);
        assert_eq!(fig.series.len(), VALUE_SKEWS.len());
        for s in &fig.series {
            assert_eq!(s.points.len(), DISCOUNT_RATES.len());
        }
        let skew1_best: f64 = fig.series[0]
            .means()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        let skew9_best: f64 = fig.series[4]
            .means()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            skew9_best >= skew1_best - 1.0,
            "high skew should benefit at least as much: skew9 {skew9_best} vs skew1 {skew1_best}"
        );
    }
}
