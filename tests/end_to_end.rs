//! End-to-end pipeline tests: workload → site → metrics, across policies
//! and configurations, checking the conservation laws any correct run
//! must satisfy.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteOutcome, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig, Trace};

fn mix(load: f64) -> MixConfig {
    MixConfig::millennium_default()
        .with_tasks(600)
        .with_processors(8)
        .with_load_factor(load)
}

fn policies() -> Vec<Policy> {
    vec![
        Policy::Fcfs,
        Policy::Srpt,
        Policy::Swpt,
        Policy::FirstPrice,
        Policy::pv(0.01),
        Policy::first_reward(0.0, 0.01),
        Policy::first_reward(0.3, 0.01),
        Policy::first_reward(1.0, 0.01),
    ]
}

fn check_conservation(trace: &Trace, outcome: &SiteOutcome) {
    let m = &outcome.metrics;
    assert_eq!(m.submitted, trace.len());
    assert_eq!(m.accepted + m.rejected, m.submitted);
    assert_eq!(m.completed + m.dropped, m.accepted);
    assert_eq!(outcome.outcomes.len(), trace.len());
    // Yield can never exceed the sum of maximum values.
    assert!(m.total_yield <= trace.stats().total_value + 1e-6);
    assert!(m.total_yield.is_finite());
    // Per-job records are consistent with the aggregate.
    let sum: f64 = outcome.outcomes.iter().map(|o| o.earned).sum();
    assert!(
        (sum - m.total_yield).abs() < 1e-6 * (1.0 + m.total_yield.abs()),
        "per-job sum {sum} vs aggregate {}",
        m.total_yield
    );
}

#[test]
fn every_policy_conserves_tasks_accept_all() {
    let trace = generate_trace(&mix(1.0), 21);
    for policy in policies() {
        let (outcome, _) =
            SiteRun::new(SiteConfig::new(8).with_policy(policy), &trace, Tracer::Off).finish();
        check_conservation(&trace, &outcome);
        assert_eq!(outcome.metrics.rejected, 0);
        assert_eq!(outcome.metrics.completed, trace.len());
    }
}

#[test]
fn every_policy_conserves_tasks_with_admission_and_preemption() {
    let trace = generate_trace(&mix(2.0), 22);
    for policy in policies() {
        let (outcome, _) = SiteRun::new(
            SiteConfig::new(8)
                .with_policy(policy)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 50.0 })
                .with_preemption(true),
            &trace,
            Tracer::Off,
        )
        .finish();
        check_conservation(&trace, &outcome);
    }
}

#[test]
fn runs_are_deterministic() {
    let trace = generate_trace(&mix(1.5), 23);
    let cfg = SiteConfig::new(8)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 100.0 })
        .with_preemption(true);
    let (a, _) = SiteRun::new(cfg.clone(), &trace, Tracer::Off).finish();
    let (b, _) = SiteRun::new(cfg, &trace, Tracer::Off).finish();
    assert_eq!(a.metrics.total_yield, b.metrics.total_yield);
    assert_eq!(a.metrics.completed, b.metrics.completed);
    assert_eq!(a.metrics.preemptions, b.metrics.preemptions);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x, y);
    }
}

#[test]
fn pv_at_zero_rate_is_exactly_first_price() {
    let trace = generate_trace(&mix(1.3), 24);
    let (fp, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::FirstPrice),
        &trace,
        Tracer::Off,
    )
    .finish();
    let (pv, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::pv(0.0)),
        &trace,
        Tracer::Off,
    )
    .finish();
    assert_eq!(fp.metrics.total_yield, pv.metrics.total_yield);
    for (x, y) in fp.outcomes.iter().zip(&pv.outcomes) {
        assert_eq!(x.finished_at, y.finished_at);
    }
}

#[test]
fn first_reward_alpha_one_zero_discount_is_first_price() {
    // §5.3: with α = 1 and discount 0, FirstReward reduces to FirstPrice.
    let trace = generate_trace(&mix(1.3), 25);
    let (fp, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::FirstPrice),
        &trace,
        Tracer::Off,
    )
    .finish();
    let (fr, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::first_reward(1.0, 0.0)),
        &trace,
        Tracer::Off,
    )
    .finish();
    assert_eq!(fp.metrics.total_yield, fr.metrics.total_yield);
}

#[test]
fn single_processor_single_task() {
    let mix = MixConfig::millennium_default()
        .with_tasks(1)
        .with_processors(1);
    let trace = generate_trace(&mix, 1);
    let (outcome, _) = SiteRun::new(SiteConfig::new(1), &trace, Tracer::Off).finish();
    assert_eq!(outcome.metrics.completed, 1);
    // A lone task starts immediately: earns full value.
    assert!((outcome.metrics.total_yield - trace.tasks[0].value).abs() < 1e-9);
    assert_eq!(outcome.outcomes[0].delay, 0.0);
}

#[test]
fn value_skew_does_not_change_what_completes_only_what_it_earns() {
    // With AcceptAll and a value-blind policy, the same tasks complete at
    // the same times regardless of the value labels.
    let a = generate_trace(&mix(1.0).with_value_skew(1.0), 30);
    let b = generate_trace(&mix(1.0).with_value_skew(9.0), 30);
    let (oa, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::Srpt),
        &a,
        Tracer::Off,
    )
    .finish();
    let (ob, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::Srpt),
        &b,
        Tracer::Off,
    )
    .finish();
    for (x, y) in oa.outcomes.iter().zip(&ob.outcomes) {
        assert_eq!(x.finished_at, y.finished_at);
    }
}

#[test]
fn overload_without_admission_hurts_more_with_unbounded_penalties() {
    let unbounded = generate_trace(&mix(3.0), 31);
    let bounded = generate_trace(
        &mix(3.0).with_bound(mbts::workload::config::BoundPolicy::ZeroFloor),
        31,
    );
    let cfg = SiteConfig::new(8).with_policy(Policy::FirstPrice);
    let (u, _) = SiteRun::new(cfg.clone(), &unbounded, Tracer::Off).finish();
    let (b, _) = SiteRun::new(cfg, &bounded, Tracer::Off).finish();
    assert!(u.metrics.total_yield < b.metrics.total_yield);
    assert!(b.metrics.total_penalty == 0.0);
    assert!(u.metrics.total_penalty < 0.0);
}

#[test]
fn preemption_strictly_helps_or_matches_under_first_price() {
    // Preemption gives the scheduler more freedom; on skewed mixes it
    // should not hurt FirstPrice (it may reorder but never blocks).
    let trace = generate_trace(&mix(1.5).with_value_skew(9.0), 32);
    let (off, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::FirstPrice),
        &trace,
        Tracer::Off,
    )
    .finish();
    let (on, _) = SiteRun::new(
        SiteConfig::new(8)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true),
        &trace,
        Tracer::Off,
    )
    .finish();
    assert!(
        on.metrics.total_yield >= off.metrics.total_yield - off.metrics.total_yield.abs() * 0.05,
        "preemption on {} vs off {}",
        on.metrics.total_yield,
        off.metrics.total_yield
    );
    assert!(on.metrics.preemptions > 0);
}
