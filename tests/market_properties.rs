//! Property tests over the market layer: conservation and consistency of
//! the economy's books under arbitrary configurations, and contract prices
//! that are the quotes that won them.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{ClientSelection, EconomyConfig, EconomyRun, PricingStrategy};
use mbts::site::SiteConfig;
use mbts::trace::{DecisionKind, TraceKind, Tracer};
use mbts::workload::{generate_trace, generate_workflows, MixConfig, TaskId, WorkflowConfig};
use proptest::prelude::*;

const SELECTIONS: [ClientSelection; 4] = [
    ClientSelection::EarliestCompletion,
    ClientSelection::MaxSlack,
    ClientSelection::Random,
    ClientSelection::FirstResponder,
];

fn arb_selection() -> impl Strategy<Value = ClientSelection> {
    prop_oneof![
        Just(ClientSelection::EarliestCompletion),
        Just(ClientSelection::MaxSlack),
        Just(ClientSelection::Random),
        Just(ClientSelection::FirstResponder),
    ]
}

fn arb_pricing() -> impl Strategy<Value = PricingStrategy> {
    prop_oneof![
        Just(PricingStrategy::PayBid),
        Just(PricingStrategy::SecondPrice),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The market's books close under arbitrary selection and pricing.
    ///
    /// Every offered task leaves its arrival unplaced or placed under its
    /// one contract, so once the run drains `placed + unplaced =
    /// offered`, and every contract has settled the yield its site
    /// booked.
    #[test]
    fn economy_books_close(
        seed in any::<u64>(),
        load in 0.5f64..3.0,
        selection in arb_selection(),
        pricing in arb_pricing(),
        sites in 1usize..4,
        threshold in -100.0f64..400.0,
    ) {
        let mix = MixConfig::millennium_default()
            .with_tasks(120)
            .with_processors(6)
            .with_load_factor(load)
            .with_mean_decay(0.05);
        let trace = generate_trace(&mix, seed);
        let mut cfg = EconomyConfig::uniform(
            sites,
            SiteConfig::new((6 / sites).max(1))
                .with_policy(Policy::first_reward(0.2, 0.01))
                .with_admission(AdmissionPolicy::SlackThreshold { threshold }),
        );
        cfg.selection = selection;
        cfg.pricing = pricing;
        cfg.seed = seed;
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();

        // Task conservation at the market level.
        prop_assert_eq!(out.offered, 120);
        prop_assert_eq!(out.placed + out.unplaced, out.offered);
        // Every contract is settled once the run drains.
        prop_assert!(out.contracts.iter().all(|c| c.is_settled()));
        prop_assert_eq!(out.contracts.len(), out.placed);
        // Per-site conservation: an accepted task completes or expires;
        // no market path withdraws one.
        for site in &out.per_site {
            let m = &site.metrics;
            prop_assert_eq!(m.cancelled, 0);
            prop_assert_eq!(m.completed + m.dropped, m.accepted);
        }
        // The sites' books and the market's agree.
        let accepted: usize = out.per_site.iter().map(|s| s.metrics.accepted).sum();
        prop_assert_eq!(accepted, out.placed);
        // Money is finite and consistent.
        prop_assert!(out.total_settled.is_finite());
        prop_assert!(out.total_paid.is_finite());
        // Every contract settles the yield its site booked.
        prop_assert!((out.total_settled - out.total_yield()).abs()
            < 1e-6 * (1.0 + out.total_yield().abs()));
    }

    /// A contract keeps no price: the ledger derives it as its task's
    /// yield at the negotiated completion. For every contract formed under
    /// each client selection rule, either pricing, with and without
    /// workflows, that derivation is bit for bit the quote
    /// that won the bid (the chosen candidate of its bid-selection
    /// record), and so is the price the ledger reads back.
    #[test]
    fn the_derived_price_is_the_winning_quote(
        seed in any::<u64>(),
        load in 0.8f64..3.0,
        sites in 2usize..5,
    ) {
        let flat = generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(40)
                .with_processors(2 * sites)
                .with_load_factor(load)
                .with_mean_decay(0.05),
            seed,
        );
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(6)
                .with_processors(2 * sites)
                .with_load_factor(load),
            seed,
        );
        let site = SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 });
        let mut formed = 0;
        for selection in SELECTIONS {
            for pricing in [PricingStrategy::PayBid, PricingStrategy::SecondPrice] {
                for workflows in [false, true] {
                    let mut cfg = EconomyConfig::uniform(sites, site.clone());
                    cfg.selection = selection;
                    cfg.pricing = pricing;
                    cfg.seed = seed;
                    let trace = if workflows {
                        cfg = cfg.with_workflows(set.clone());
                        set.trace()
                    } else {
                        flat.clone()
                    };
                    let tracer = Tracer::buffer().with_provenance();
                    let (out, tracer) = EconomyRun::new(cfg, &trace, tracer).finish();
                    let won: Vec<(TaskId, f64)> = tracer
                        .into_events()
                        .expect("a buffer keeps its events")
                        .into_iter()
                        .filter_map(|e| match e.kind {
                            TraceKind::DecisionRecord {
                                decision: DecisionKind::BidSelection,
                                candidates,
                                ..
                            } => candidates
                                .iter()
                                .find(|c| c.chosen)
                                .map(|c| (e.task.expect("a bid's task"), c.score)),
                            _ => None,
                        })
                        .collect();
                    prop_assert_eq!(won.len(), out.contracts.len());
                    for (c, (task, quote)) in out.contracts.iter().zip(won) {
                        prop_assert_eq!(c.spec.id, task);
                        let derived = c.spec.yield_at(c.negotiated_completion);
                        prop_assert_eq!(derived.to_bits(), quote.to_bits());
                        prop_assert_eq!(c.negotiated_price.to_bits(), quote.to_bits());
                    }
                    formed += out.contracts.len();
                }
            }
        }
        prop_assert!(formed > 0, "no contract formed");
    }

    /// Pricing never charges more than pay-bid, point by point.
    #[test]
    fn second_price_dominated_by_pay_bid(seed in any::<u64>(), load in 0.5f64..2.0) {
        let mix = MixConfig::millennium_default()
            .with_tasks(100)
            .with_processors(6)
            .with_load_factor(load)
            .with_mean_decay(0.05);
        let trace = generate_trace(&mix, seed);
        let base = EconomyConfig::uniform(
            2,
            SiteConfig::new(3)
                .with_policy(Policy::FirstPrice)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
        );
        let mut pay = base.clone();
        pay.pricing = PricingStrategy::PayBid;
        let mut sp = base;
        sp.pricing = PricingStrategy::SecondPrice;
        let (a, _) = EconomyRun::new(pay, &trace, Tracer::Off).finish();
        let (b, _) = EconomyRun::new(sp, &trace, Tracer::Off).finish();
        prop_assert_eq!(a.placed, b.placed);
        prop_assert!(b.total_paid <= a.total_paid + 1e-9);
    }
}
