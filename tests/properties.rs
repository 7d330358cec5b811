//! Whole-simulation property tests: for arbitrary (small) mixes, seeds,
//! policies, and site configurations, the invariants of a correct
//! value-based scheduler hold.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::{TraceKind, Tracer};
use mbts::workload::{generate_trace, BoundPolicy, MixConfig, WidthPolicy};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Srpt),
        Just(Policy::Swpt),
        Just(Policy::FirstPrice),
        (0.0f64..0.1).prop_map(Policy::pv),
        (0.0f64..=1.0, 0.0f64..0.1).prop_map(|(a, r)| Policy::first_reward(a, r)),
    ]
}

fn arb_bound() -> impl Strategy<Value = BoundPolicy> {
    prop_oneof![
        Just(BoundPolicy::Unbounded),
        Just(BoundPolicy::ZeroFloor),
        (0.0f64..1.0).prop_map(|fraction| BoundPolicy::ProportionalPenalty { fraction }),
    ]
}

fn arb_width() -> impl Strategy<Value = WidthPolicy> {
    prop_oneof![
        Just(WidthPolicy::One),
        (1usize..3, 0usize..4).prop_map(|(lo, extra)| WidthPolicy::Uniform { lo, hi: lo + extra }),
        (0u32..3).prop_map(|max_exp| WidthPolicy::PowersOfTwo { max_exp }),
    ]
}

fn arb_admission() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::AcceptAll),
        Just(AdmissionPolicy::PositiveExpectedYield),
        (-200.0f64..500.0).prop_map(|threshold| AdmissionPolicy::SlackThreshold { threshold }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Task conservation, finite yields, and the yield ceiling hold for
    /// arbitrary configurations.
    #[test]
    fn simulation_invariants(
        seed in any::<u64>(),
        load in 0.3f64..3.0,
        policy in arb_policy(),
        bound in arb_bound(),
        admission in arb_admission(),
        preemption in any::<bool>(),
        drop_expired in any::<bool>(),
        backfilling in any::<bool>(),
        width in arb_width(),
        procs in 1usize..6,
    ) {
        let mix = MixConfig::millennium_default()
            .with_tasks(120)
            .with_processors(procs)
            .with_load_factor(load)
            .with_width(width)
            .with_bound(bound);
        let trace = generate_trace(&mix, seed);
        let cfg = SiteConfig::new(procs)
            .with_policy(policy)
            .with_admission(admission)
            .with_preemption(preemption)
            .with_backfilling(backfilling)
            .with_drop_expired(drop_expired);
        let (out, _) = SiteRun::new(cfg, &trace, Tracer::Off).finish();
        let m = &out.metrics;
        prop_assert_eq!(m.submitted, 120);
        prop_assert_eq!(m.accepted + m.rejected, m.submitted);
        prop_assert_eq!(m.completed + m.dropped, m.accepted);
        prop_assert!(m.total_yield.is_finite());
        prop_assert!(m.total_yield <= trace.stats().total_value + 1e-6);
        // Bounded-at-zero mixes can never earn negative yield.
        if bound == BoundPolicy::ZeroFloor {
            prop_assert!(m.total_yield >= -1e-9);
            prop_assert_eq!(m.total_penalty, 0.0);
        }
        // Per-job earnings respect each task's floor and ceiling.
        for (o, spec) in out.outcomes.iter().zip(trace.tasks.iter()) {
            prop_assert_eq!(o.id, spec.id);
            prop_assert!(o.earned <= spec.value + 1e-9);
            prop_assert!(o.earned >= spec.bound.floor() - 1e-9);
        }
    }

    /// Without preemption, no task is ever preempted; with AcceptAll,
    /// none is rejected.
    #[test]
    fn mode_flags_are_respected(seed in any::<u64>(), policy in arb_policy()) {
        let mix = MixConfig::millennium_default()
            .with_tasks(100)
            .with_processors(3)
            .with_load_factor(2.0);
        let trace = generate_trace(&mix, seed);
        let (out, _) = SiteRun::new(SiteConfig::new(3).with_policy(policy), &trace, Tracer::Off).finish();
        prop_assert_eq!(out.metrics.preemptions, 0);
        prop_assert_eq!(out.metrics.rejected, 0);
        prop_assert!(out.outcomes.iter().all(|o| o.preemptions == 0));
    }

    /// Threshold endpoints behave like AcceptAll / RejectAll.
    ///
    /// Note: acceptance counts are *not* monotone in the threshold in
    /// closed loop — rejecting a task shrinks the queue, which can raise
    /// later tasks' slack above a stricter bar. (Per-decision
    /// monotonicity is proven in `mbts-core`'s admission proptests.)
    /// Only the endpoints are globally ordered.
    #[test]
    fn threshold_endpoints(seed in any::<u64>(), mid in -100.0f64..300.0) {
        let mix = MixConfig::millennium_default()
            .with_tasks(100)
            .with_processors(3)
            .with_load_factor(2.0);
        let trace = generate_trace(&mix, seed);
        let run = |threshold: f64| {
            SiteRun::new(SiteConfig::new(3)
                    .with_policy(Policy::FirstPrice)
                    .with_admission(AdmissionPolicy::SlackThreshold { threshold }), &trace, Tracer::Off).finish().0
            .metrics
            .accepted
        };
        let lenient = run(f64::NEG_INFINITY);
        let strict = run(f64::INFINITY);
        let middle = run(mid);
        prop_assert_eq!(lenient, 100, "−∞ threshold accepts everything");
        // Feedback makes interior thresholds incomparable, but the
        // endpoints bound every run.
        prop_assert!(strict <= lenient);
        prop_assert!(middle <= lenient);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The trace is a complete account of value flow: summing the
    /// per-task `Completed`/`Dropped` earnings in the event stream
    /// reproduces the aggregate yield the site reports, and the event
    /// counts match the metrics counters, for arbitrary configurations.
    #[test]
    fn trace_yield_matches_outcome_yield(
        seed in any::<u64>(),
        load in 0.3f64..3.0,
        policy in arb_policy(),
        bound in arb_bound(),
        preemption in any::<bool>(),
        drop_expired in any::<bool>(),
        procs in 1usize..6,
    ) {
        let mix = MixConfig::millennium_default()
            .with_tasks(120)
            .with_processors(procs)
            .with_load_factor(load)
            .with_bound(bound);
        let trace = generate_trace(&mix, seed);
        let cfg = SiteConfig::new(procs)
            .with_policy(policy)
            .with_preemption(preemption)
            .with_drop_expired(drop_expired);
        let (out, tracer) = SiteRun::new(cfg, &trace, Tracer::buffer()).finish();
        let events = tracer.into_events().expect("buffer tracer keeps events");
        let mut traced_yield = 0.0f64;
        let mut completed = 0usize;
        let mut dropped = 0usize;
        let mut arrived = 0usize;
        for ev in &events {
            match ev.kind {
                TraceKind::Completed { earned, .. } => {
                    traced_yield += earned;
                    completed += 1;
                }
                TraceKind::Dropped { earned } => {
                    traced_yield += earned;
                    dropped += 1;
                }
                TraceKind::TaskArrived { .. } => arrived += 1,
                _ => {}
            }
        }
        let m = &out.metrics;
        prop_assert_eq!(arrived, m.submitted);
        prop_assert_eq!(completed, m.completed);
        prop_assert_eq!(dropped, m.dropped);
        // Events are emitted at the very points the aggregate is
        // accumulated, in the same order, so the sums agree to within
        // one-reassociation rounding.
        let tolerance = 1e-9 * m.total_yield.abs().max(1.0);
        prop_assert!(
            (traced_yield - m.total_yield).abs() <= tolerance,
            "traced {} vs aggregate {}",
            traced_yield,
            m.total_yield
        );
    }
}
