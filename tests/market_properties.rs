//! Property tests over the market layer: conservation and consistency of
//! the economy's books under arbitrary configurations.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{BudgetConfig, ClientSelection, EconomyConfig, EconomyRun, PricingStrategy};
use mbts::site::SiteConfig;
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig};
use proptest::prelude::*;

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
        (0.0f64..=1.0)
            .prop_map(|reserve_fraction| PricingStrategy::SecondPrice { reserve_fraction }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The market's books close under arbitrary selection, pricing and
    /// budgets.
    ///
    /// Every offered task leaves its arrival unfunded, unplaced, or
    /// placed under its one contract, so once the run drains
    /// `placed + unplaced + unfunded = offered`, and every contract has
    /// settled the yield its site booked.
    #[test]
    fn economy_books_close(
        seed in any::<u64>(),
        load in 0.5f64..3.0,
        selection in arb_selection(),
        pricing in arb_pricing(),
        sites in 1usize..4,
        threshold in -100.0f64..400.0,
        budgets in any::<bool>(),
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
        if budgets {
            cfg.budgets = Some(BudgetConfig {
                num_clients: 3,
                initial: 500.0,
                replenish_rate: 0.1,
                cap: 2000.0,
            });
        }
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();

        // Task conservation at the market level.
        prop_assert_eq!(out.offered, 120);
        prop_assert_eq!(out.placed + out.unplaced + out.unfunded, out.offered);
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
        // With budgets, client debits equal total charges.
        if budgets {
            let spent: f64 = out.client_spend.iter().sum();
            prop_assert!((spent - out.total_paid).abs()
                < 1e-6 * (1.0 + out.total_paid.abs()));
        }
        // Every contract settles the yield its site booked.
        prop_assert!((out.total_settled - out.total_yield()).abs()
            < 1e-6 * (1.0 + out.total_yield().abs()));
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
        sp.pricing = PricingStrategy::second_price();
        let (a, _) = EconomyRun::new(pay, &trace, Tracer::Off).finish();
        let (b, _) = EconomyRun::new(sp, &trace, Tracer::Off).finish();
        prop_assert_eq!(a.placed, b.placed);
        prop_assert!(b.total_paid <= a.total_paid + 1e-9);
    }
}
