//! Market-layer integration: negotiation, contracts, settlement, budgets
//! across the whole stack.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{BudgetConfig, ClientSelection, EconomyConfig, EconomyRun, PricingStrategy};
use mbts::site::SiteConfig;
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig, Trace};

fn trace(tasks: usize, load: f64, seed: u64) -> Trace {
    generate_trace(
        &MixConfig::millennium_default()
            .with_tasks(tasks)
            .with_processors(12)
            .with_load_factor(load)
            .with_mean_decay(0.05),
        seed,
    )
}

fn economy(selection: ClientSelection) -> EconomyConfig {
    let mut cfg = EconomyConfig::uniform(
        3,
        SiteConfig::new(4)
            .with_policy(Policy::first_reward(0.2, 0.01))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    cfg.selection = selection;
    cfg
}

#[test]
fn settlements_match_site_yields() {
    let t = trace(500, 1.0, 60);
    let (out, _) = EconomyRun::new(
        economy(ClientSelection::EarliestCompletion),
        &t,
        Tracer::Off,
    )
    .finish();
    // Every contract settled; the sum of settlements equals the sum of
    // value-function yields recorded by the sites.
    assert!(out.contracts.iter().all(|c| c.is_settled()));
    assert!((out.total_settled - out.total_yield()).abs() < 1e-6 * (1.0 + out.total_yield().abs()));
    // Conservation across the market.
    assert_eq!(out.offered, t.len());
    assert_eq!(out.placed + out.unplaced + out.unfunded, out.offered);
    assert_eq!(out.contracts.len(), out.placed);
}

#[test]
fn contracts_record_accurate_completion_promises() {
    let t = trace(400, 0.6, 61);
    let (out, _) = EconomyRun::new(
        economy(ClientSelection::EarliestCompletion),
        &t,
        Tracer::Off,
    )
    .finish();
    // At light load most negotiated completion times should be honoured.
    let violations = out.violations();
    let rate = violations as f64 / out.contracts.len().max(1) as f64;
    assert!(
        rate < 0.35,
        "light load should honour most contracts, violation rate {rate}"
    );
    // Settled on-time contracts collect exactly the negotiated price.
    for c in &out.contracts {
        if !c.was_violated() {
            let settled = c.settled_price().unwrap();
            assert!(
                settled + 1e-6 >= c.negotiated_price,
                "on-time settlement {settled} below negotiated {}",
                c.negotiated_price
            );
        }
    }
}

#[test]
fn unplaced_tasks_do_not_create_contracts_or_yield() {
    // One tiny overloaded site rejects a lot.
    let t = trace(400, 4.0, 62);
    let mut cfg = EconomyConfig::uniform(
        1,
        SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 500.0 }),
    );
    cfg.selection = ClientSelection::EarliestCompletion;
    let (out, _) = EconomyRun::new(cfg, &t, Tracer::Off).finish();
    assert!(out.unplaced > 0);
    assert_eq!(out.contracts.len(), out.placed);
    assert_eq!(
        out.per_site[0].metrics.accepted, out.placed,
        "the single site's accepts are exactly the placements"
    );
}

#[test]
fn second_price_charges_at_most_pay_bid_per_contract() {
    let t = trace(400, 1.0, 63);
    let mut pay = economy(ClientSelection::EarliestCompletion);
    pay.pricing = PricingStrategy::PayBid;
    let mut sp = economy(ClientSelection::EarliestCompletion);
    sp.pricing = PricingStrategy::second_price();
    let (a, _) = EconomyRun::new(pay, &t, Tracer::Off).finish();
    let (b, _) = EconomyRun::new(sp, &t, Tracer::Off).finish();
    // Identical placements (pricing doesn't affect scheduling)…
    assert_eq!(a.placed, b.placed);
    assert_eq!(a.total_settled, b.total_settled);
    // …but Vickrey-style charging never exceeds pay-bid in aggregate.
    assert!(b.total_paid <= a.total_paid + 1e-9);
}

#[test]
fn budgets_conserve_money() {
    let t = trace(500, 1.0, 64);
    let mut cfg = economy(ClientSelection::EarliestCompletion);
    cfg.budgets = Some(BudgetConfig {
        num_clients: 5,
        initial: 10_000.0,
        replenish_rate: 0.0,
        cap: 10_000.0,
    });
    let (out, _) = EconomyRun::new(cfg, &t, Tracer::Off).finish();
    let spent: f64 = out.client_spend.iter().sum();
    assert!(
        (spent - out.total_paid).abs() < 1e-6 * (1.0 + out.total_paid.abs()),
        "client debits {spent} vs market charges {}",
        out.total_paid
    );
}

#[test]
fn tight_budgets_reduce_market_activity() {
    let t = trace(500, 1.0, 65);
    let (rich, _) = EconomyRun::new(
        economy(ClientSelection::EarliestCompletion),
        &t,
        Tracer::Off,
    )
    .finish();
    let mut poor_cfg = economy(ClientSelection::EarliestCompletion);
    poor_cfg.budgets = Some(BudgetConfig {
        num_clients: 5,
        initial: 30.0,
        replenish_rate: 0.005,
        cap: 100.0,
    });
    let (poor, _) = EconomyRun::new(poor_cfg, &t, Tracer::Off).finish();
    assert!(
        poor.total_paid < rich.total_paid,
        "poor clients {} should transact less than rich {}",
        poor.total_paid,
        rich.total_paid
    );
    assert!(poor.unfunded > 0 || poor.placed < rich.placed);
}

#[test]
fn heterogeneous_sites_split_the_market() {
    let t = trace(600, 1.5, 66);
    let mut cfg = economy(ClientSelection::EarliestCompletion);
    cfg.sites = vec![
        SiteConfig::new(8).with_policy(Policy::first_reward(0.2, 0.01)),
        SiteConfig::new(2).with_policy(Policy::first_reward(0.2, 0.01)),
    ];
    let (out, _) = EconomyRun::new(cfg, &t, Tracer::Off).finish();
    let big = out.per_site[0].metrics.accepted;
    let small = out.per_site[1].metrics.accepted;
    assert!(
        big > small,
        "the larger site ({big}) should win more than the smaller ({small})"
    );
    assert!(small > 0, "the smaller site still wins some placements");
}

#[test]
fn all_selection_rules_produce_valid_economies() {
    let t = trace(300, 1.2, 67);
    for selection in [
        ClientSelection::EarliestCompletion,
        ClientSelection::MaxSlack,
        ClientSelection::Random,
        ClientSelection::FirstResponder,
    ] {
        let (out, _) = EconomyRun::new(economy(selection), &t, Tracer::Off).finish();
        assert_eq!(out.placed + out.unplaced, out.offered);
        assert!(out.contracts.iter().all(|c| c.is_settled()));
        assert!(out.total_yield().is_finite());
    }
}
