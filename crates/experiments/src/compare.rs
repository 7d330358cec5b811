//! Paired A/B comparison of two site configurations.
//!
//! The methodology behind every figure, packaged as a tool: run two
//! configurations over the *same* seed-replicated workloads (common
//! random numbers) and report the paired-t verdict on the yield
//! difference. This is what an operator would run before flipping a
//! policy knob in production.

use crate::figures::{run_site, sized};
use crate::harness::{seed_grid, ExpParams};
use mbts_sim::{OnlineStats, PairedComparison, Summary};
use mbts_site::SiteConfig;
use mbts_workload::MixConfig;
use std::fmt::Write as _;

/// Result of a paired comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// Label of configuration A.
    pub label_a: String,
    /// Label of configuration B.
    pub label_b: String,
    /// Per-seed total yields of A.
    pub yields_a: Vec<f64>,
    /// Per-seed total yields of B.
    pub yields_b: Vec<f64>,
    /// Summary of A's yields.
    pub summary_a: Summary,
    /// Summary of B's yields.
    pub summary_b: Summary,
    /// Paired statistics of (B − A).
    pub paired: PairedComparison,
}

impl ComparisonResult {
    /// Human-readable verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "A: {:<40} yield {:>12.1} ± {:>8.1}",
            self.label_a, self.summary_a.mean, self.summary_a.ci95
        );
        let _ = writeln!(
            out,
            "B: {:<40} yield {:>12.1} ± {:>8.1}",
            self.label_b, self.summary_b.mean, self.summary_b.ci95
        );
        let _ = writeln!(
            out,
            "paired Δ (B − A): {:+.1} ± {:.1} over {} seeds (t = {:.2})",
            self.paired.mean_diff,
            self.paired.ci95_half_width(),
            self.paired.n,
            self.paired.t_stat
        );
        let verdict = if !self.paired.significant_95() {
            "no significant difference at 95 %"
        } else if self.paired.mean_diff > 0.0 {
            "B is significantly better at 95 %"
        } else {
            "A is significantly better at 95 %"
        };
        let _ = writeln!(out, "verdict: {verdict}");
        out
    }
}

/// Runs `a` and `b` over the same `params.seeds` workloads drawn from
/// `mix` and compares their total yields pairwise.
pub fn compare_sites(
    mix: &MixConfig,
    a: &SiteConfig,
    b: &SiteConfig,
    params: &ExpParams,
) -> ComparisonResult {
    assert!(params.seeds >= 2, "paired comparison needs ≥ 2 seeds");
    let mix = sized(mix.clone(), params);
    // Two series, one x: the per-seed yields of A and of B.
    let grid = seed_grid(
        params,
        &[a, b],
        &[()],
        |cfg, _, seed| run_site(&mix, seed, (*cfg).clone()).metrics.total_yield,
        None,
    );
    let (yields_a, yields_b) = (grid[0][0].clone(), grid[1][0].clone());
    let summary_a = yields_a.iter().copied().collect::<OnlineStats>().summary();
    let summary_b = yields_b.iter().copied().collect::<OnlineStats>().summary();
    let paired = PairedComparison::new(&yields_b, &yields_a);
    ComparisonResult {
        label_a: format!("{} / {:?}", a.policy.name(), a.admission),
        label_b: format!("{} / {:?}", b.policy.name(), b.admission),
        yields_a,
        yields_b,
        summary_a,
        summary_b,
        paired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::fig45_mix;

    fn params() -> ExpParams {
        ExpParams {
            tasks: 500,
            seeds: 8,
            base_seed: 4400,
            processors: 8,
        }
    }

    #[test]
    fn clear_winner_is_detected() {
        // Figure-5 regime: cost-only FirstReward ≫ FirstPrice.
        let mix = fig45_mix(5.0, false);
        let a = SiteConfig::new(8).with_policy(Policy::FirstPrice);
        let b = SiteConfig::new(8).with_policy(Policy::first_reward(0.0, 0.01));
        let r = compare_sites(&mix, &a, &b, &params());
        assert_eq!(r.yields_a.len(), 8);
        assert!(
            r.paired.mean_diff > 0.0,
            "B should win: {}",
            r.paired.mean_diff
        );
        assert!(r.paired.significant_95(), "t = {}", r.paired.t_stat);
        assert!(r.render().contains("B is significantly better"));
    }

    #[test]
    fn identical_configs_tie() {
        let mix = fig45_mix(3.0, true);
        let a = SiteConfig::new(8).with_policy(Policy::FirstPrice);
        let r = compare_sites(&mix, &a, &a.clone(), &params());
        assert_eq!(r.paired.mean_diff, 0.0);
        assert!(!r.paired.significant_95());
        assert!(r.render().contains("no significant difference"));
    }

    #[test]
    fn pairing_uses_common_random_numbers() {
        // The same config twice produces identical per-seed yields —
        // the strongest possible evidence the workloads are shared.
        let mix = fig45_mix(3.0, true);
        let a = SiteConfig::new(8).with_policy(Policy::Swpt);
        let r = compare_sites(&mix, &a, &a.clone(), &params());
        assert_eq!(r.yields_a, r.yields_b);
    }
}
