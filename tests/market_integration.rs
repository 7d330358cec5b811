//! Market-layer integration: negotiation, contracts and settlement
//! across the whole stack.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{ClientSelection, EconomyConfig, EconomyRun, PricingStrategy};
use mbts::site::{Disposition, SiteConfig, SiteRun};
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
    assert_eq!(out.placed + out.unplaced, out.offered);
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
    sp.pricing = PricingStrategy::SecondPrice;
    let (a, _) = EconomyRun::new(pay, &t, Tracer::Off).finish();
    let (b, _) = EconomyRun::new(sp, &t, Tracer::Off).finish();
    // Identical placements (pricing doesn't affect scheduling)…
    assert_eq!(a.placed, b.placed);
    assert_eq!(a.total_settled, b.total_settled);
    // …but Vickrey-style charging never exceeds pay-bid in aggregate.
    assert!(b.total_paid <= a.total_paid + 1e-9);
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

/// One site is a market with a single seller: every bid goes to that
/// site or is unplaced, so an economy of one schedules exactly as a
/// site run with the same configuration. Each cell compares the tasks
/// placed and their completion times (the contracts against the site
/// run's accepted jobs) and the site's total yield, bit for bit, over
/// every policy, with and without preemption, admitting everything or
/// by slack.
#[test]
fn a_one_site_market_schedules_as_the_site_alone() {
    let t = generate_trace(
        &MixConfig::millennium_default()
            .with_tasks(300)
            .with_processors(4)
            .with_load_factor(1.5),
        11,
    );
    let policies = [
        Policy::Fcfs,
        Policy::Srpt,
        Policy::Swpt,
        Policy::FirstPrice,
        Policy::EarliestDeadline,
        Policy::pv(0.01),
        Policy::first_reward(0.3, 0.01),
    ];
    let admissions = [
        AdmissionPolicy::AcceptAll,
        AdmissionPolicy::SlackThreshold { threshold: 0.0 },
    ];
    for policy in policies {
        for preemption in [false, true] {
            for admission in admissions {
                let site = SiteConfig::new(4)
                    .with_policy(policy)
                    .with_preemption(preemption)
                    .with_admission(admission);
                let cell = format!("{policy:?}, preemption {preemption}, {admission:?}");
                let (alone, _) = SiteRun::new(site.clone(), &t, Tracer::Off).finish();
                let (market, _) =
                    EconomyRun::new(EconomyConfig::uniform(1, site), &t, Tracer::Off).finish();
                let mut ran: Vec<(u64, u64)> = alone
                    .outcomes
                    .iter()
                    .filter(|o| o.disposition != Disposition::Rejected)
                    .map(|o| (o.id.0, o.finished_at.expect("accepted").as_f64().to_bits()))
                    .collect();
                let mut contracted: Vec<(u64, u64)> = market
                    .contracts
                    .iter()
                    .map(|c| match c.completed_at {
                        Some(completed_at) => (c.spec.id.0, completed_at.as_f64().to_bits()),
                        None => panic!("{cell}: an open contract"),
                    })
                    .collect();
                ran.sort_unstable();
                contracted.sort_unstable();
                assert!(!ran.is_empty(), "{cell}: nothing ran");
                assert!(
                    ran == contracted,
                    "{cell}: placements or completions differ"
                );
                assert_eq!(
                    market.per_site[0].metrics.total_yield.to_bits(),
                    alone.metrics.total_yield.to_bits(),
                    "{cell}: total yield differs"
                );
            }
        }
    }
}
