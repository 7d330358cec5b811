//! Stress test: every feature at once, end to end.
//!
//! A multi-site economy where everything is switched on simultaneously —
//! gang tasks, preemption, backfilling, slack admission, expiry drops,
//! budgets, second pricing, runtime misestimation — run over a surge
//! workload, checking only the invariants that must survive any feature
//! interaction.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{
    BudgetConfig, ClientSelection, EconomyConfig, EconomyOutcome, EconomyRun, EconomySnapshot,
    PricingStrategy,
};
use mbts::site::SiteConfig;
use mbts::trace::{TraceEvent, TraceKind, Tracer, TracerSnapshot};
use mbts::workload::{generate_trace, MixConfig, Trace, WidthPolicy};

fn everything_trace() -> Trace {
    let quiet = MixConfig::millennium_default()
        .with_tasks(250)
        .with_processors(12)
        .with_load_factor(0.6)
        .with_mean_decay(0.05)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 2 })
        .with_runtime_error(0.2);
    let surge = quiet.clone().with_load_factor(2.5);
    Trace::concatenate(
        &[
            generate_trace(&quiet, 71),
            generate_trace(&surge, 72),
            generate_trace(&quiet, 73),
        ],
        25.0,
    )
}

fn everything_economy() -> EconomyConfig {
    let mut cfg = EconomyConfig::uniform(
        1,
        SiteConfig::new(8)
            .with_policy(Policy::first_reward(0.25, 0.01))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 50.0 })
            .with_preemption(true),
    );
    cfg.sites.push(
        SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::PositiveExpectedYield)
            .with_drop_expired(true),
    );
    cfg.selection = ClientSelection::EarliestCompletion;
    cfg.pricing = PricingStrategy::second_price();
    cfg.budgets = Some(BudgetConfig {
        num_clients: 5,
        initial: 5_000.0,
        replenish_rate: 1.0,
        cap: 20_000.0,
    });
    cfg
}

/// The kitchen-sink run with site 0's trace stream captured. An economy
/// traces its market layer only, so a buffer tracer is installed on site
/// 0 through the run's first snapshot and read back from its last.
fn traced_site_zero(trace: &Trace) -> (EconomyOutcome, Vec<TraceEvent>) {
    let mut snap = typed_snapshot(&EconomyRun::new(everything_economy(), trace, Tracer::Off));
    snap.sites[0].tracer = TracerSnapshot::Buffer { events: Vec::new() };
    let mut run = EconomyRun::from_snapshot(snap).expect("snapshot restores");
    while run.step() {}
    let mut snap = typed_snapshot(&run);
    let TracerSnapshot::Buffer { events } =
        std::mem::replace(&mut snap.sites[0].tracer, TracerSnapshot::Off)
    else {
        panic!("site 0 keeps a buffer tracer");
    };
    (run.finish().0, events)
}

/// A run's snapshot, read back as the typed form it writes.
fn typed_snapshot(run: &EconomyRun) -> EconomySnapshot {
    let text = serde_json::to_string(&run.snapshot()).expect("snapshots serialize");
    serde_json::from_str(&text).expect("a snapshot reads back")
}

#[test]
fn kitchen_sink_economy_stays_consistent() {
    let trace = everything_trace();
    let (out, _) = EconomyRun::new(everything_economy(), &trace, Tracer::Off).finish();

    // Market-level conservation: every offered task is placed once,
    // unplaced or unfunded (`market_properties::economy_books_close`).
    assert_eq!(out.offered, trace.len());
    assert_eq!(out.placed + out.unplaced + out.unfunded, out.offered);
    assert_eq!(out.contracts.len(), out.placed);
    assert!(out.contracts.iter().all(|c| c.is_settled()));

    // The conservation auditor found nothing wrong — at the market level
    // or inside any site — with every feature interacting.
    assert!(
        out.audit_violations.is_empty(),
        "market-level audit violations: {:?}",
        out.audit_violations
    );

    // Per-site conservation with every disposition in play.
    for site in &out.per_site {
        let m = &site.metrics;
        assert_eq!(m.cancelled, 0);
        assert_eq!(m.completed + m.dropped, m.accepted);
        assert!(m.total_yield.is_finite());
        assert!(
            site.violations.is_empty(),
            "site audit violations: {:?}",
            site.violations
        );
    }

    // Budgets: client debits equal charges.
    let spent: f64 = out.client_spend.iter().sum();
    assert!((spent - out.total_paid).abs() < 1e-6 * (1.0 + out.total_paid.abs()));

    // Site 0's trail is its trace stream: time-ordered, one completion
    // per completed task, and observational only.
    let (traced, trail) = traced_site_zero(&trace);
    assert!(!trail.is_empty());
    assert!(trail.windows(2).all(|w| w[0].at <= w[1].at));
    let completions = trail
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Completed { .. }))
        .count();
    assert_eq!(completions, out.per_site[0].metrics.completed);
    assert_eq!(traced.per_site, out.per_site);
    assert_eq!(out.total_paid.to_bits(), traced.total_paid.to_bits());

    // Determinism: the whole kitchen sink replays identically.
    let (again, _) = EconomyRun::new(everything_economy(), &trace, Tracer::Off).finish();
    assert_eq!(out.placed, again.placed);
    assert_eq!(out.unfunded, again.unfunded);
    assert_eq!(out.total_paid.to_bits(), again.total_paid.to_bits());
}

/// The kitchen sink with every site preemptive, and with none: either
/// way every contract settles and no auditor finds a violation.
#[test]
fn kitchen_sink_under_every_preemption_mode() {
    let trace = everything_trace();
    for preemption in [false, true] {
        let mut cfg = everything_economy();
        for site in &mut cfg.sites {
            site.preemption = preemption;
        }
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();
        assert!(out.contracts.iter().all(|c| c.is_settled()), "{preemption}");
        assert!(out.total_yield().is_finite(), "{preemption}");
        assert!(
            out.audit_violations.is_empty(),
            "preemption {preemption}: {:?}",
            out.audit_violations
        );
        for site in &out.per_site {
            assert!(
                site.violations.is_empty(),
                "preemption {preemption}: {:?}",
                site.violations
            );
        }
    }
}
