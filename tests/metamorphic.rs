//! Metamorphic relations from the paper's algebra, checked on the
//! production site alone: each runs one workload twice, transformed so
//! that the model predicts exactly how the second run relates to the
//! first, and compares whole runs bit for bit. No oracle is needed.
//!
//! - Scaling every value, decay and absolute penalty bound by `2^k`
//!   scales every yield and score by `2^k` and leaves every ratio the
//!   scheduler compares (Eq. 7 slack, expiry times) unchanged, so every
//!   decision stays and the yield scales exactly.
//! - FirstReward at α = 1 scores `PV_i / RPT_i`, which is PV's score: the
//!   pool reaches the first through its merge sweep and the second
//!   through its bound heap, and the runs must agree.
//! - With integer arrivals and runtimes (and decays that are powers of
//!   two, so expiry times stay exact), shifting every arrival by an
//!   integer Δ shifts every start and completion by Δ and changes no
//!   yield.
//!
//! - On one processor with every bid accepted and nothing dropped, every
//!   policy is work conserving: it idles only when no work waits, so its
//!   busy periods are FCFS's whatever order it runs the work in, with or
//!   without preemption (which costs nothing, §4).
//!
//! The α = 0 relation (Eq. 5 ranks by decay alone) is a proptest in
//! `mbts-core`'s heuristics.

use std::sync::Arc;

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{segments, JobOutcome, SiteConfig, SiteRun};
use mbts::trace::{TraceKind, Tracer};
use mbts::workload::{
    generate_trace, BoundPolicy, MixConfig, PenaltyBound, TaskSpec, Trace, WidthPolicy,
};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Srpt),
        Just(Policy::Swpt),
        Just(Policy::FirstPrice),
        Just(Policy::EarliestDeadline),
        (0.0f64..0.1).prop_map(Policy::pv),
        (0.0f64..=1.0, 0.0f64..0.1).prop_map(|(a, r)| Policy::first_reward(a, r)),
    ]
}

/// A site config: the policy plus the switches that change decisions.
fn arb_site() -> impl Strategy<Value = (AdmissionPolicy, bool, bool, bool)> {
    (
        prop_oneof![
            Just(AdmissionPolicy::AcceptAll),
            (-100.0f64..300.0).prop_map(|threshold| AdmissionPolicy::SlackThreshold { threshold }),
        ],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
}

fn site_config(
    processors: usize,
    policy: Policy,
    (admission, preemption, drop_expired, backfilling): (AdmissionPolicy, bool, bool, bool),
) -> SiteConfig {
    SiteConfig::new(processors)
        .with_policy(policy)
        .with_admission(admission)
        .with_preemption(preemption)
        .with_drop_expired(drop_expired)
        .with_backfilling(backfilling)
}

/// A run's starts (time, task, backfill) in dispatch order, its per-task
/// outcomes and its total yield.
struct Run {
    starts: Vec<(f64, u64, bool)>,
    outcomes: Vec<JobOutcome>,
    total_yield: f64,
}

fn run(config: &SiteConfig, trace: &Trace) -> Run {
    let (outcome, tracer) = SiteRun::new(config.clone(), trace, Tracer::buffer()).finish();
    let starts = tracer
        .into_events()
        .expect("a buffer keeps its events")
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Scheduled { backfill, .. } => Some((e.at.as_f64(), e.task?.0, backfill)),
            _ => None,
        })
        .collect();
    Run {
        starts,
        outcomes: outcome.outcomes,
        total_yield: outcome.metrics.total_yield,
    }
}

/// `trace` with every task passed through `edit`.
fn edited(trace: &Trace, edit: impl Fn(&mut TaskSpec)) -> Trace {
    let mut out = trace.clone();
    Arc::make_mut(&mut out.tasks.bids).iter_mut().for_each(edit);
    out
}

/// Asserts `b` is `a` with every instant shifted by `shift` and every
/// yield scaled by `scale`, bit for bit.
fn assert_related(a: &Run, b: &Run, shift: f64, scale: f64) -> Result<(), String> {
    let moved = |s: &(f64, u64, bool)| ((s.0 + shift).to_bits(), s.1, s.2);
    let starts: Vec<_> = a.starts.iter().map(moved).collect();
    let theirs: Vec<_> = b.starts.iter().map(|s| (s.0.to_bits(), s.1, s.2)).collect();
    prop_assert!(starts == theirs, "the starts diverged");
    prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        let finished = x.finished_at.map(|t| (t.as_f64() + shift).to_bits());
        prop_assert!(
            (x.id, x.disposition, x.preemptions, x.delay.to_bits())
                == (y.id, y.disposition, y.preemptions, y.delay.to_bits())
                && finished == y.finished_at.map(|t| t.as_f64().to_bits())
                && (x.earned * scale).to_bits() == y.earned.to_bits(),
            "{:?} became {:?}",
            x,
            y
        );
    }
    prop_assert_eq!((a.total_yield * scale).to_bits(), b.total_yield.to_bits());
    Ok(())
}

fn mix(load: f64, bound: BoundPolicy, gangs: bool) -> MixConfig {
    let width = if gangs {
        WidthPolicy::PowersOfTwo { max_exp: 2 }
    } else {
        WidthPolicy::One
    };
    MixConfig::millennium_default()
        .with_tasks(120)
        .with_processors(4)
        .with_load_factor(load)
        .with_bound(bound)
        .with_width(width)
}

fn arb_bound() -> impl Strategy<Value = BoundPolicy> {
    prop_oneof![
        Just(BoundPolicy::Unbounded),
        Just(BoundPolicy::ZeroFloor),
        (0.0f64..1.0).prop_map(|fraction| BoundPolicy::ProportionalPenalty { fraction }),
    ]
}

/// A small trace on integer instants: integer arrivals, runtimes, values
/// and penalties, and decays that are powers of two (or zero), so that
/// every instant and yield the site computes is exact.
fn arb_integer_trace() -> impl Strategy<Value = Trace> {
    let task = (0u32..12, 1u32..40, 1u32..200, 0usize..5, 0u32..3, 1usize..3);
    proptest::collection::vec(task, 10..50).prop_map(|tasks| {
        let mut at = 0.0;
        let specs: Vec<TaskSpec> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, (gap, runtime, value, decay, bound, width))| {
                at += f64::from(gap);
                let decay = [0.0, 0.25, 0.5, 1.0, 2.0][decay];
                let bound = match bound {
                    0 => PenaltyBound::UNBOUNDED,
                    1 => PenaltyBound::ZERO,
                    _ => PenaltyBound::bounded(f64::from(value / 2)),
                };
                TaskSpec::new(
                    i as u64,
                    at,
                    f64::from(runtime),
                    f64::from(value),
                    decay,
                    bound,
                )
                .with_width(width)
            })
            .collect();
        Trace::new(MixConfig::millennium_default(), 0, specs)
    })
}

/// A run's busy periods `(start, end)` as bits: its execution segments
/// merged wherever one starts before or as the last one ends.
fn busy_periods(config: SiteConfig, trace: &Trace) -> Vec<(u64, u64)> {
    let (_, tracer) = SiteRun::new(config, trace, Tracer::buffer()).finish();
    let events = tracer.into_events().expect("a buffer keeps its events");
    let mut periods: Vec<(f64, f64)> = Vec::new();
    for s in segments(&events) {
        let (start, end) = (s.start.as_f64(), s.end.as_f64());
        match periods.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => periods.push((start, end)),
        }
    }
    periods
        .into_iter()
        .map(|(start, end)| (start.to_bits(), end.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scaling every value, decay and penalty bound by `2^k` changes no
    /// decision and scales every yield, and the total, exactly.
    #[test]
    fn scaling_value_by_a_power_of_two_scales_yield_exactly(
        seed in any::<u64>(),
        k in -3i32..4,
        (load, bound, gangs) in (0.8f64..2.5, arb_bound(), any::<bool>()),
        policy in arb_policy(),
        switches in arb_site(),
    ) {
        let c = 2f64.powi(k);
        let trace = generate_trace(&mix(load, bound, gangs), seed);
        let scaled = edited(&trace, |t| {
            t.value *= c;
            t.decay *= c;
            if let Some(max_penalty) = t.bound.max_penalty() {
                t.bound = PenaltyBound::bounded(max_penalty * c);
            }
        });
        let config = site_config(4, policy, switches);
        assert_related(&run(&config, &trace), &run(&config, &scaled), 0.0, c)?;
    }

    /// FirstReward at α = 1 is PV at the same discount rate, decision for
    /// decision and bit for bit.
    #[test]
    fn first_reward_at_alpha_one_is_pv(
        seed in any::<u64>(),
        rate in 0.0f64..0.1,
        (load, bound, gangs) in (0.8f64..2.5, arb_bound(), any::<bool>()),
        switches in arb_site(),
    ) {
        let trace = generate_trace(&mix(load, bound, gangs), seed);
        let first_reward = run(&site_config(4, Policy::first_reward(1.0, rate), switches), &trace);
        let pv = run(&site_config(4, Policy::pv(rate), switches), &trace);
        assert_related(&first_reward, &pv, 0.0, 1.0)?;
    }

    /// On integer instants, shifting every arrival by an integer Δ shifts
    /// every start and completion by Δ and changes no yield.
    #[test]
    fn shifting_integer_arrivals_shifts_every_start_and_completion(
        trace in arb_integer_trace(),
        shift in 1u32..100_000,
        processors in 2usize..5,
        policy in arb_policy(),
        switches in arb_site(),
    ) {
        let shift = f64::from(shift);
        let shifted = edited(&trace, |t| t.arrival += mbts::sim::Duration::new(shift));
        let config = site_config(processors, policy, switches);
        assert_related(&run(&config, &trace), &run(&config, &shifted), shift, 1.0)?;
    }

    /// One processor, every bid accepted, nothing dropped, no faults:
    /// each of the seven policies, with preemption off and on, keeps the
    /// processor busy over exactly FCFS's busy periods.
    #[test]
    fn every_policy_is_work_conserving_on_one_processor(
        trace in arb_integer_trace(),
        rate in 0.0f64..0.1,
        alpha in 0.0f64..=1.0,
    ) {
        let trace = edited(&trace, |t| t.width = 1);
        let config = |policy, preemption| {
            SiteConfig::new(1)
                .with_policy(policy)
                .with_admission(AdmissionPolicy::AcceptAll)
                .with_drop_expired(false)
                .with_preemption(preemption)
        };
        let fcfs = busy_periods(config(Policy::Fcfs, false), &trace);
        for policy in [
            Policy::Fcfs,
            Policy::Srpt,
            Policy::Swpt,
            Policy::FirstPrice,
            Policy::EarliestDeadline,
            Policy::pv(rate),
            Policy::first_reward(alpha, rate),
        ] {
            for preemption in [false, true] {
                let busy = busy_periods(config(policy, preemption), &trace);
                prop_assert!(
                    busy == fcfs,
                    "{} (preemption {preemption}) was busy over {busy:?}, FCFS over {fcfs:?}",
                    policy.name()
                );
            }
        }
    }
}
