//! Client bidding strategies: truthful vs shaded bids.
//!
//! §2 of the paper notes that charging below the bid — second-price,
//! Vickrey-style, as in Spawn — "provide\[s\] incentives for buyers to bid
//! truthfully". This module makes that claim measurable in our service
//! market: a fraction of clients *shade* their bids (declare a scaled-down
//! value function), and we account each population's **realized utility**
//!
//! ```text
//! utility = true_value_function(actual_completion) − price_paid
//! ```
//!
//! Under pay-bid, shading directly cuts the price paid (at the cost of
//! scheduling priority and admission odds); under second pricing the price
//! is already capped by the runner-up quote, so shading mostly just loses
//! priority. Comparing the shaders' advantage across the two pricing
//! rules quantifies the incentive the paper gestures at.

use crate::economy::{EconomyConfig, EconomyRun};
use mbts_sim::OnlineStats;
use mbts_trace::Tracer;
use mbts_workload::Trace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregate outcomes for one bidding population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PopulationReport {
    /// Tasks in the population.
    pub count: usize,
    /// Tasks that were placed at some site.
    pub placed: usize,
    /// Σ price actually paid by the population.
    pub paid: f64,
    /// Σ true value realized at the actual completion times.
    pub true_value_realized: f64,
    /// Mean per-task utility (true value − price), unplaced tasks count 0.
    pub mean_utility: f64,
}

/// Result of a shading experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadingReport {
    /// Shading factor applied to the shaders' declared value functions.
    pub factor: f64,
    /// Outcomes for the truthful population.
    pub truthful: PopulationReport,
    /// Outcomes for the shading population.
    pub shaders: PopulationReport,
}

impl ShadingReport {
    /// Shaders' mean-utility advantage over truthful bidders (positive =
    /// shading pays off under this pricing rule).
    pub fn shading_advantage(&self) -> f64 {
        self.shaders.mean_utility - self.truthful.mean_utility
    }
}

/// Runs `trace` through `economy`, with every task whose id satisfies
/// `id % shade_modulus == 0` declaring a value function scaled by
/// `factor` (both value and decay — the whole curve shrinks). Utilities
/// are evaluated against the *true* (unshaded) value functions.
pub fn run_shading_experiment(
    economy: EconomyConfig,
    trace: &Trace,
    shade_modulus: u64,
    factor: f64,
) -> ShadingReport {
    assert!(
        (0.0..=1.0).contains(&factor),
        "shade factor must be in [0,1]"
    );
    assert!(
        shade_modulus >= 2,
        "shade_modulus must leave both populations non-empty"
    );

    // Build the declared trace: shaders scale their value functions.
    let mut declared = trace.clone();
    for spec in Arc::make_mut(&mut declared.tasks).iter_mut() {
        if spec.id.0 % shade_modulus == 0 {
            spec.value *= factor;
            spec.decay *= factor;
        }
    }

    let (outcome, _) = EconomyRun::new(economy, &declared, Tracer::Off).finish();

    let mut truthful = Accounts::default();
    let mut shaders = Accounts::default();
    // Each task's first contract, if it was placed (the run's ids are its
    // trace positions).
    let mut first = vec![None; trace.tasks.len()];
    for (i, c) in outcome.contracts.iter().enumerate() {
        first[c.spec.id.index()].get_or_insert(i);
    }
    // Walk the original trace; match contracts by task id.
    for (spec, first) in trace.tasks.iter().zip(first) {
        let acc = if spec.id.0 % shade_modulus == 0 {
            &mut shaders
        } else {
            &mut truthful
        };
        acc.count += 1;
        let contract = first.and_then(|i| outcome.contracts.get(i));
        match contract {
            Some(c) if c.is_settled() => {
                acc.placed += 1;
                let completed_at = match c.status {
                    crate::contract::ContractStatus::Settled { completed_at, .. } => completed_at,
                    _ => unreachable!("checked settled"),
                };
                // The charge is the contract's value-function settlement
                // under either pricing rule. A contract holds no
                // second-price discount: the economy applies it only to
                // its `total_paid` and to each `ContractSettled` event's
                // `paid`, so under second pricing this overstates what a
                // client paid.
                let paid = c.settled_price().unwrap();
                let true_value = spec.yield_at(completed_at);
                acc.paid += paid;
                acc.true_value += true_value;
                acc.utilities.push(true_value - paid);
            }
            _ => {
                acc.utilities.push(0.0);
            }
        }
    }
    ShadingReport {
        factor,
        truthful: truthful.finish(),
        shaders: shaders.finish(),
    }
}

#[derive(Default)]
struct Accounts {
    count: usize,
    placed: usize,
    paid: f64,
    true_value: f64,
    utilities: OnlineStats,
}

impl Accounts {
    fn finish(self) -> PopulationReport {
        PopulationReport {
            count: self.count,
            placed: self.placed,
            paid: self.paid,
            true_value_realized: self.true_value,
            mean_utility: self.utilities.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::ClientSelection;
    use mbts_core::{AdmissionPolicy, Policy};
    use mbts_site::SiteConfig;
    use mbts_workload::{generate_trace, MixConfig};

    fn economy() -> EconomyConfig {
        let mut cfg = EconomyConfig::uniform(
            2,
            SiteConfig::new(4)
                .with_policy(Policy::FirstPrice)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
        );
        cfg.selection = ClientSelection::EarliestCompletion;
        cfg
    }

    fn trace(seed: u64) -> Trace {
        generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(400)
                .with_processors(8)
                .with_load_factor(1.5)
                .with_mean_decay(0.05),
            seed,
        )
    }

    #[test]
    fn populations_partition_and_account() {
        let t = trace(3);
        let report = run_shading_experiment(economy(), &t, 2, 0.5);
        assert_eq!(report.truthful.count + report.shaders.count, 400);
        assert_eq!(report.shaders.count, 200);
        assert!(report.truthful.placed > 0);
        assert!(report.truthful.paid.is_finite());
        assert!(
            report.shaders.paid <= report.shaders.true_value_realized + 1e-6,
            "shaders never pay more than declared ≤ true value"
        );
    }

    #[test]
    fn factor_one_is_no_shading() {
        let t = trace(4);
        let report = run_shading_experiment(economy(), &t, 2, 1.0);
        // With factor 1 the "shaders" are just another truthful cohort:
        // utilities are zero for everyone under pay-bid (pay = value).
        assert!(report.truthful.mean_utility.abs() < 1e-9);
        assert!(report.shaders.mean_utility.abs() < 1e-9);
    }

    #[test]
    fn shading_creates_positive_surplus_when_served() {
        let t = trace(5);
        let report = run_shading_experiment(economy(), &t, 2, 0.5);
        // A shader that gets served pays only the shaded settlement while
        // realizing full true value: positive mean utility. Truthful
        // bidders pay exactly their value: zero utility.
        assert!(report.shaders.mean_utility > 0.0);
        assert!(report.truthful.mean_utility.abs() < 1e-9);
        assert!(report.shading_advantage() > 0.0);
    }

    #[test]
    fn shading_costs_placement_priority() {
        let t = trace(6);
        let strong = run_shading_experiment(economy(), &t, 2, 0.2);
        let mild = run_shading_experiment(economy(), &t, 2, 0.8);
        // Deep shading loses more placements (admission + priority).
        let rate = |r: &PopulationReport| r.placed as f64 / r.count as f64;
        assert!(
            rate(&strong.shaders) <= rate(&mild.shaders) + 0.02,
            "deep shading {} vs mild {}",
            rate(&strong.shaders),
            rate(&mild.shaders)
        );
    }
}
