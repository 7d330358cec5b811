//! The paper's Figure 1 setting: a client/broker negotiating with several
//! task-service sites, forming contracts, and settling them.
//!
//! Three heterogeneous sites (a big risk-averse site, a small aggressive
//! site, and a mid-size cost-only site) compete for a bursty task stream.
//! The example prints per-site business outcomes and compares client
//! selection rules and pricing strategies.
//!
//! ```sh
//! cargo run --release --example grid_market
//! ```

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{ClientSelection, EconomyConfig, EconomyRun, PricingStrategy};
use mbts::site::SiteConfig;
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig};

fn sites() -> Vec<SiteConfig> {
    vec![
        // Big and risk-averse: plenty of capacity, high slack bar.
        SiteConfig::new(12)
            .with_policy(Policy::first_reward(0.2, 0.01))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 300.0 }),
        // Small and aggressive: takes anything with positive expected yield.
        SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::PositiveExpectedYield),
        // Mid-size, cost-only scheduling, moderate slack bar.
        SiteConfig::new(8)
            .with_policy(Policy::first_reward(0.0, 0.01))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 100.0 }),
    ]
}

fn main() {
    let mix = MixConfig::millennium_default()
        .with_tasks(1500)
        .with_processors(24) // total capacity across the three sites
        .with_load_factor(1.5)
        .with_mean_decay(0.05);
    let trace = generate_trace(&mix, 7);

    println!("=== Multi-site negotiation (earliest-completion clients) ===");
    let mut config = EconomyConfig::uniform(1, SiteConfig::new(1));
    config.sites = sites();
    config.selection = ClientSelection::EarliestCompletion;
    let (outcome, _) = EconomyRun::new(config.clone(), &trace, Tracer::Off).finish();
    println!(
        "offered {}  placed {}  unplaced {}  violations {}  total yield {:.0}",
        outcome.offered,
        outcome.placed,
        outcome.unplaced,
        outcome.violations(),
        outcome.total_yield()
    );
    for (i, site) in outcome.per_site.iter().enumerate() {
        let m = &site.metrics;
        println!(
            "  site {i}: won {:>4} contracts, completed {:>4}, yield {:>9.0}, yield rate {:>6.2}",
            m.accepted,
            m.completed,
            m.total_yield,
            m.yield_rate()
        );
    }

    println!("\n=== Client selection rules ===");
    for selection in [
        ClientSelection::EarliestCompletion,
        ClientSelection::MaxSlack,
        ClientSelection::Random,
        ClientSelection::FirstResponder,
    ] {
        let mut cfg = config.clone();
        cfg.selection = selection;
        cfg.seed = 99;
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();
        println!(
            "  {selection:<22?} placed {:>4}  yield {:>9.0}  violations {:>4}",
            out.placed,
            out.total_yield(),
            out.violations()
        );
    }

    println!("\n=== Pricing strategies (same placements, different charges) ===");
    for (label, pricing) in [
        ("pay-bid", PricingStrategy::PayBid),
        ("second-price", PricingStrategy::SecondPrice),
    ] {
        let mut cfg = config.clone();
        cfg.pricing = pricing;
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();
        println!(
            "  {label:<14} settled {:>10.0}  charged {:>10.0}",
            out.total_settled, out.total_paid
        );
    }
}
