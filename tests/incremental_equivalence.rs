//! The site's scheduling core keeps its scores and Eq. 4 inputs across
//! events; that is an optimization, not a behavior change. The four
//! site-level cases run a trace through the production site and through
//! an independent rebuild-per-event reference model written from the
//! paper (`tests/reference/`), and assert the same quote for every bid,
//! the same dispatch order, the same per-task outcomes and the same
//! total yield, bit for bit. One more case feeds the trace to the
//! daemon's `ServiceMachine` as submissions and holds its outcomes and
//! yield to the same model. The pool-driven dynamic candidate builder
//! must emit the exact schedule a from-scratch rescore emits — same
//! picks, same tie-breaks, same floating-point bits.

mod reference;

use mbts::core::{
    build_candidate, AdmissionPolicy, CostModel, Job, Policy, ScheduleEntry, ScheduleMode, ScoreCtx,
};
use mbts::market::{EconomyConfig, EconomyRun};
use mbts::serve::{CommandKind, MachineConfig, ServiceMachine};
use mbts::sim::Time;
use mbts::site::{Disposition, FaultPlan, JobOutcome, SiteConfig, SiteRun};
use mbts::trace::{DecisionKind, TraceKind, Tracer};
use mbts::workload::{
    generate_trace, generate_workflows, BoundPolicy, MixConfig, PenaltyBound, TaskSpec, Trace,
    WidthPolicy, WorkflowConfig, WorkflowSet, WorkflowShape,
};
use proptest::prelude::*;

/// Every dispatch policy the paper evaluates.
fn all_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("fcfs", Policy::Fcfs),
        ("srpt", Policy::Srpt),
        ("swpt", Policy::Swpt),
        ("first_price", Policy::FirstPrice),
        ("edf", Policy::EarliestDeadline),
        ("pv", Policy::pv(0.01)),
        ("first_reward", Policy::first_reward(0.3, 0.01)),
    ]
}

/// The reference model's description of a production site config.
fn reference_config(cfg: &SiteConfig) -> reference::Config {
    assert_eq!(
        cfg.schedule_mode,
        ScheduleMode::Static,
        "the model packs bids statically"
    );
    assert!(cfg.workflow_facets.is_none(), "the model has no workflows");
    reference::Config {
        processors: cfg.processors,
        policy: match cfg.policy {
            Policy::Fcfs => reference::Policy::Fcfs,
            Policy::Srpt => reference::Policy::Srpt,
            Policy::Swpt => reference::Policy::Swpt,
            Policy::FirstPrice => reference::Policy::FirstPrice,
            Policy::EarliestDeadline => reference::Policy::Edf,
            Policy::PresentValue { discount_rate } => reference::Policy::Pv {
                rate: discount_rate,
            },
            Policy::FirstReward {
                alpha,
                discount_rate,
            } => reference::Policy::FirstReward {
                alpha,
                rate: discount_rate,
            },
        },
        slack_threshold: match cfg.admission {
            AdmissionPolicy::AcceptAll => None,
            AdmissionPolicy::SlackThreshold { threshold } => Some(threshold),
            AdmissionPolicy::PositiveExpectedYield => panic!("the model admits by slack only"),
        },
        admission_rate: cfg.admission_discount_rate,
        preemption: cfg.preemption,
        backfilling: cfg.backfilling,
        drop_expired: cfg.drop_expired,
    }
}

/// Runs `trace` through the production site and the reference model and
/// asserts the same quote for every bid, the same starts in the same
/// order, the same per-task outcomes and the same total yield, bit for
/// bit. The site's quotes are read off its provenance stream, which
/// records the admission decision for every bid.
fn assert_site_matches_reference(cfg: SiteConfig, trace: &Trace, label: &str) -> reference::Run {
    let (site, tracer) =
        SiteRun::new(cfg.clone(), trace, Tracer::buffer().with_provenance()).finish();
    let model = reference::run(&reference_config(&cfg), &trace.tasks);
    let events = tracer.into_events().expect("a buffer keeps its events");

    // A trace event clamps an infinite slack to the finite range.
    let quote_bits = |task: u64, price: f64, pv: f64, cost: f64, slack: f64| {
        let slack = slack.clamp(-f64::MAX, f64::MAX);
        (
            task,
            price.to_bits(),
            pv.to_bits(),
            cost.to_bits(),
            slack.to_bits(),
        )
    };
    let quotes: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::DecisionRecord {
                decision: DecisionKind::Admission,
                candidates,
                ..
            } => {
                let c = &candidates[0];
                Some(quote_bits(c.task?.0, c.score, c.pv, c.cost, c.slack))
            }
            _ => None,
        })
        .collect();
    let expected: Vec<_> = model
        .quotes
        .iter()
        .map(|q| quote_bits(q.task.0, q.expected_yield, q.pv, q.cost, q.slack))
        .collect();
    if let Some(k) = (0..quotes.len().min(expected.len())).find(|&k| quotes[k] != expected[k]) {
        panic!(
            "{label}: quote {k} diverged: site {:?}, reference {:?}",
            quotes[k], model.quotes[k]
        );
    }
    assert_eq!(
        quotes.len(),
        expected.len(),
        "{label}: quote count diverged"
    );

    let starts: Vec<(u64, u64, bool)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Scheduled { backfill, .. } => {
                Some((e.at.as_f64().to_bits(), e.task?.0, backfill))
            }
            _ => None,
        })
        .collect();
    let expected: Vec<(u64, u64, bool)> = model
        .starts
        .iter()
        .map(|s| (s.at.to_bits(), s.task.0, s.backfill))
        .collect();
    if let Some(k) = (0..starts.len().min(expected.len())).find(|&k| starts[k] != expected[k]) {
        panic!(
            "{label}: start {k} diverged: site {:?}, reference {:?}",
            starts[k], expected[k]
        );
    }
    assert_eq!(
        starts.len(),
        expected.len(),
        "{label}: start count diverged"
    );

    assert_outcomes_match(&site.outcomes, site.metrics.total_yield, &model, label);
    model
}

/// Asserts per-task outcomes (sorted by id) and a total yield equal the
/// reference run's, bit for bit.
fn assert_outcomes_match(
    outcomes: &[JobOutcome],
    total_yield: f64,
    model: &reference::Run,
    label: &str,
) {
    assert_eq!(
        outcomes.len(),
        model.outcomes.len(),
        "{label}: outcome count"
    );
    for (got, want) in outcomes.iter().zip(&model.outcomes) {
        let fate = match got.disposition {
            Disposition::Rejected => reference::Fate::Rejected,
            Disposition::Completed => reference::Fate::Completed,
            Disposition::Dropped => reference::Fate::Dropped,
            other => panic!(
                "{label}: {} ended {other:?}, which the model cannot",
                got.id
            ),
        };
        let bits = |o: &reference::Outcome| {
            (
                o.id,
                o.fate,
                o.finished_at.map(f64::to_bits),
                o.earned.to_bits(),
                o.delay.to_bits(),
                o.preemptions,
            )
        };
        let got = reference::Outcome {
            id: got.id,
            fate,
            finished_at: got.finished_at.map(Time::as_f64),
            earned: got.earned,
            delay: got.delay,
            preemptions: got.preemptions,
        };
        assert_eq!(
            bits(&got),
            bits(want),
            "{label}: outcome diverged: site {got:?}, reference {want:?}"
        );
    }
    assert_eq!(
        total_yield.to_bits(),
        model.total_yield.to_bits(),
        "{label}: total yield diverged: site {}, reference {}",
        total_yield,
        model.total_yield
    );
}

fn assert_sites_equivalent(
    cfg: SiteConfig,
    mix: &MixConfig,
    seed: u64,
    label: &str,
) -> reference::Run {
    let trace = generate_trace(mix, seed);
    assert_site_matches_reference(cfg, &trace, &format!("{label} seed {seed}"))
}

/// Runs `trace` through the daemon's command-sourced machine — each
/// task a `Submit` stamped at its arrival, then one `Drain` — and
/// asserts the reference model's per-task outcomes and total yield, bit
/// for bit. The machine settles every completion due at or before a
/// command's stamp before applying it, so a completion at an arrival's
/// instant goes first, where the model and `SiteRun` take the arrival
/// first: when one processor frees at an arrival's instant, the machine
/// starts a task already waiting and the model may start the arrival.
/// The generated traces here draw continuous arrival times, which no
/// completion meets.
fn assert_service_matches_reference(cfg: SiteConfig, trace: &Trace, label: &str) {
    let model = reference::run(&reference_config(&cfg), &trace.tasks);
    let mut machine = ServiceMachine::new(MachineConfig {
        site: cfg,
        ..MachineConfig::default()
    });
    for spec in trace.tasks.iter() {
        let submit = machine.command(spec.arrival, CommandKind::Submit { spec: *spec });
        machine.apply(&submit);
    }
    let drain = machine.command(machine.now(), CommandKind::Drain);
    machine.apply(&drain);
    let mut outcomes = machine.site().outcomes().to_vec();
    outcomes.sort_by_key(|o| o.id);
    assert_outcomes_match(&outcomes, machine.metrics().total_yield, &model, label);
}

/// How often a run took each decision a case exists to exercise.
#[derive(Debug, Default)]
struct Engaged {
    rejected: usize,
    dropped: usize,
    preempted: u32,
    backfilled: usize,
}

impl Engaged {
    fn add(&mut self, run: &reference::Run) {
        let count = |fate| run.outcomes.iter().filter(|o| o.fate == fate).count();
        self.rejected += count(reference::Fate::Rejected);
        self.dropped += count(reference::Fate::Dropped);
        self.preempted += run.outcomes.iter().map(|o| o.preemptions).sum::<u32>();
        self.backfilled += run.starts.iter().filter(|s| s.backfill).count();
    }
}

#[test]
fn incremental_site_matches_rebuild_for_every_policy() {
    let mix = MixConfig::millennium_default()
        .with_tasks(300)
        .with_processors(4)
        .with_load_factor(1.6);
    for (label, policy) in all_policies() {
        for seed in [11, 12, 13] {
            let cfg = SiteConfig::new(4).with_policy(policy);
            assert_sites_equivalent(cfg, &mix, seed, label);
        }
    }
}

#[test]
fn incremental_site_matches_rebuild_with_preemption_and_admission() {
    let mix = MixConfig::millennium_default()
        .with_tasks(250)
        .with_processors(4)
        .with_load_factor(2.0)
        .with_bound(BoundPolicy::ZeroFloor);
    let mut engaged = Engaged::default();
    for (label, policy) in all_policies() {
        let cfg = SiteConfig::new(4)
            .with_policy(policy)
            .with_preemption(true)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 150.0 });
        engaged.add(&assert_sites_equivalent(cfg, &mix, 21, label));
    }
    assert!(engaged.preempted > 0 && engaged.rejected > 0, "{engaged:?}");
}

#[test]
fn incremental_site_matches_rebuild_on_gang_workloads() {
    // Gangs exercise the backfilling path, which walks the full score
    // vector — the pool materializes it lazily only on this path.
    let mix = MixConfig::millennium_default()
        .with_tasks(250)
        .with_processors(8)
        .with_load_factor(1.8)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 3 });
    let mut engaged = Engaged::default();
    for (label, policy) in all_policies() {
        for backfilling in [true, false] {
            let cfg = SiteConfig::new(8)
                .with_policy(policy)
                .with_backfilling(backfilling);
            engaged.add(&assert_sites_equivalent(cfg, &mix, 31, label));
        }
    }
    assert!(engaged.backfilled > 0, "{engaged:?}");
}

#[test]
fn incremental_site_matches_rebuild_with_bounded_penalties_and_expiry() {
    // Bounded penalties give finite expiry windows, so the pool's
    // deadline index and its expired-entry skip both engage;
    // drop_expired removes tasks from the middle of the pool.
    let mix = MixConfig::millennium_default()
        .with_tasks(300)
        .with_processors(4)
        .with_load_factor(2.2)
        .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 });
    let mut engaged = Engaged::default();
    for (label, policy) in all_policies() {
        for drop_expired in [false, true] {
            let cfg = SiteConfig::new(4)
                .with_policy(policy)
                .with_drop_expired(drop_expired);
            engaged.add(&assert_sites_equivalent(cfg, &mix, 41, label));
        }
    }
    assert!(engaged.dropped > 0, "{engaged:?}");
}

/// A trace on integer times: two arrivals at every integer instant and
/// integer runtimes, so every start and completion is an integer too and
/// arrivals keep landing on completion instants.
fn integer_time_trace(seed: u64) -> Trace {
    let mut x = seed;
    let mut draw = move |n: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 33) % n) as f64
    };
    let tasks: Vec<TaskSpec> = (0..120u64)
        .map(|i| {
            let (runtime, value, decay) = (1.0 + draw(6), 5.0 + draw(40), 0.05 + draw(4) / 20.0);
            TaskSpec::new(i, (i / 2) as f64, runtime, value, decay, PenaltyBound::ZERO)
        })
        .collect();
    let mix = MixConfig::millennium_default()
        .with_tasks(tasks.len())
        .with_processors(4);
    Trace::new(mix, seed, tasks)
}

#[test]
fn service_machine_matches_reference_for_every_policy() {
    let mix = MixConfig::millennium_default()
        .with_tasks(250)
        .with_processors(4)
        .with_load_factor(1.8);
    let generated = [51, 52].map(|seed| (seed, generate_trace(&mix, seed)));
    let integer = [1, 2].map(|seed| (seed, integer_time_trace(seed)));
    for (seed, trace) in &integer {
        // Arrivals do land on completion instants.
        let cfg = SiteConfig::new(4).with_policy(Policy::FirstPrice);
        let arrivals: Vec<f64> = trace.tasks.iter().map(|t| t.arrival.as_f64()).collect();
        let ties = reference::run(&reference_config(&cfg), &trace.tasks)
            .outcomes
            .iter()
            .filter(|o| o.finished_at.is_some_and(|at| arrivals.contains(&at)))
            .count();
        assert!(ties > 10, "seed {seed}: {ties} completions at an arrival");
    }
    for (seed, trace) in generated.iter().chain(&integer) {
        for (label, policy) in all_policies() {
            for preemption in [false, true] {
                let cfg = SiteConfig::new(4)
                    .with_policy(policy)
                    .with_preemption(preemption);
                let label = format!("service {label} seed {seed} preemption {preemption}");
                assert_service_matches_reference(cfg, trace, &label);
            }
        }
    }
}

/// The wide tier: more seeds, and every policy under every combination
/// of preemption, `drop_expired`, bounded or unbounded penalties and
/// slack admission, on width-1 and gang mixes. Run it in release:
/// `cargo test --release --test incremental_equivalence -- --ignored`.
#[test]
#[ignore = "wide differential tier; CI runs it in release"]
fn wide_site_matches_reference_across_every_combination() {
    let mut engaged = Engaged::default();
    let mut runs = 0;
    for bound in [
        BoundPolicy::Unbounded,
        BoundPolicy::ProportionalPenalty { fraction: 0.5 },
    ] {
        for width in [WidthPolicy::One, WidthPolicy::PowersOfTwo { max_exp: 2 }] {
            let mix = MixConfig::millennium_default()
                .with_tasks(200)
                .with_processors(4)
                .with_load_factor(2.0)
                .with_bound(bound)
                .with_width(width);
            for seed in 101..111 {
                let trace = generate_trace(&mix, seed);
                for (label, policy) in all_policies() {
                    for preemption in [false, true] {
                        for drop_expired in [false, true] {
                            for admission in [
                                AdmissionPolicy::AcceptAll,
                                AdmissionPolicy::SlackThreshold { threshold: 100.0 },
                            ] {
                                let cfg = SiteConfig::new(4)
                                    .with_policy(policy)
                                    .with_preemption(preemption)
                                    .with_drop_expired(drop_expired)
                                    .with_admission(admission);
                                let label = format!(
                                    "{label} {bound:?} {width:?} seed {seed} preemption \
                                     {preemption} drop_expired {drop_expired} {admission:?}"
                                );
                                engaged.add(&assert_site_matches_reference(cfg, &trace, &label));
                                runs += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 2 * 2 * 10 * 7 * 2 * 2 * 2);
    assert!(
        engaged.rejected > 0
            && engaged.dropped > 0
            && engaged.preempted > 0
            && engaged.backfilled > 0,
        "{engaged:?}"
    );
}

#[test]
fn zero_fault_replay_is_byte_identical_to_plain_replay() {
    // The fault layer must be pay-for-what-you-use: a fault plan under
    // which no processor fails before the workload ends takes the exact
    // same decisions as a plain replay — same outcome stream, same
    // floating-point bits, and a clean audit — for every policy the
    // paper evaluates.
    use mbts::sim::UpDown;
    let mix = MixConfig::millennium_default()
        .with_tasks(300)
        .with_processors(4)
        .with_load_factor(1.8)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 2 });
    for (label, policy) in all_policies() {
        for seed in [11, 12] {
            let trace = generate_trace(&mix, seed);
            let cfg = SiteConfig::new(4).with_policy(policy).with_preemption(true);
            let (plain, _) = SiteRun::new(cfg.clone(), &trace, Tracer::Off).finish();
            let (faulted, _) = SiteRun::with_faults(
                cfg,
                &trace,
                &FaultPlan::new(UpDown::exponential(1e15, 1.0), 99),
                Tracer::Off,
            )
            .finish();
            assert_eq!(
                plain.outcomes, faulted.outcomes,
                "outcome stream diverged: {label} seed {seed}"
            );
            assert_eq!(
                plain.metrics.total_yield.to_bits(),
                faulted.metrics.total_yield.to_bits(),
                "total yield diverged: {label} seed {seed}"
            );
            assert_eq!(
                plain.metrics.completed, faulted.metrics.completed,
                "{label} seed {seed}"
            );
            assert_eq!(faulted.metrics.crashed_procs, 0, "{label} seed {seed}");
            assert!(faulted.violations.is_empty(), "{label} seed {seed}");
        }
    }
}

#[test]
fn traced_replay_is_bit_identical_to_untraced_replay() {
    // The structured-event layer must be observational only: with a
    // buffer sink installed the replay takes the same decisions, produces the same outcome
    // stream, and earns the same floating-point yield bits as with
    // tracing off.
    use mbts::trace::{TraceKind, Tracer};
    let mix = MixConfig::millennium_default()
        .with_tasks(300)
        .with_processors(4)
        .with_load_factor(1.8)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 2 })
        .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 });
    for (label, policy) in all_policies() {
        for seed in [11, 12] {
            let trace = generate_trace(&mix, seed);
            let cfg = SiteConfig::new(4)
                .with_policy(policy)
                .with_preemption(true)
                .with_drop_expired(true);
            let (plain, _) = SiteRun::new(cfg.clone(), &trace, Tracer::Off).finish();
            let (traced, tracer) = SiteRun::new(cfg, &trace, Tracer::buffer()).finish();
            assert_eq!(
                plain.outcomes, traced.outcomes,
                "outcome stream diverged under tracing: {label} seed {seed}"
            );
            assert_eq!(
                plain.metrics.total_yield.to_bits(),
                traced.metrics.total_yield.to_bits(),
                "total yield diverged under tracing: {label} seed {seed}"
            );
            assert_eq!(
                plain.metrics.completed, traced.metrics.completed,
                "completions diverged under tracing: {label} seed {seed}"
            );
            assert_eq!(
                plain.metrics.preemptions, traced.metrics.preemptions,
                "preemptions diverged under tracing: {label} seed {seed}"
            );
            // The buffer sink really captured the replay.
            let events = tracer.into_events().expect("a buffer keeps its events");
            let completions = events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::Completed { .. }))
                .count();
            assert_eq!(
                completions, plain.metrics.completed,
                "trace completions diverged: {label} seed {seed}"
            );
        }
    }
}

#[test]
fn provenance_off_streams_are_byte_identical_to_default_streams() {
    // The provenance level must be strictly additive: with it *off*
    // (the default) the serialized event stream carries not one byte of
    // the new decision-record machinery, and with it *on* the stream is
    // exactly the default stream with `DecisionRecord` lines spliced in
    // — never a reordering, never a perturbed float.
    use mbts::trace::{to_jsonl, TraceKind, Tracer};
    let mix = MixConfig::millennium_default()
        .with_tasks(300)
        .with_processors(4)
        .with_load_factor(1.8)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 2 })
        .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 });
    for (label, policy) in all_policies() {
        for seed in [11, 12] {
            let trace = generate_trace(&mix, seed);
            let cfg = SiteConfig::new(4)
                .with_policy(policy)
                .with_preemption(true)
                .with_drop_expired(true)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 150.0 });
            let (plain_outcome, plain) =
                SiteRun::new(cfg.clone(), &trace, Tracer::buffer()).finish();
            let (prov_outcome, prov) =
                SiteRun::new(cfg, &trace, Tracer::buffer().with_provenance()).finish();
            assert_eq!(
                plain_outcome.outcomes, prov_outcome.outcomes,
                "outcome stream diverged under provenance: {label} seed {seed}"
            );
            assert_eq!(
                plain_outcome.metrics.total_yield.to_bits(),
                prov_outcome.metrics.total_yield.to_bits(),
                "total yield diverged under provenance: {label} seed {seed}"
            );
            let plain_jsonl = to_jsonl(&plain.into_events().expect("buffer keeps events"));
            let prov_events = prov.into_events().expect("buffer keeps events");
            assert!(
                prov_events
                    .iter()
                    .any(|e| matches!(e.kind, TraceKind::DecisionRecord { .. })),
                "provenance stream recorded no decisions: {label} seed {seed}"
            );
            let filtered: Vec<_> = prov_events
                .into_iter()
                .filter(|e| !matches!(e.kind, TraceKind::DecisionRecord { .. }))
                .collect();
            assert_eq!(
                to_jsonl(&filtered),
                plain_jsonl,
                "provenance-off stream is not byte-identical: {label} seed {seed}"
            );
        }
    }
}

#[test]
fn traced_faulty_replay_is_bit_identical_to_untraced_faulty_replay() {
    use mbts::sim::UpDown;
    use mbts::trace::Tracer;
    let mix = MixConfig::millennium_default()
        .with_tasks(200)
        .with_processors(4)
        .with_load_factor(1.5);
    let faults = UpDown::exponential(3_000.0, 150.0);
    for (label, policy) in all_policies() {
        let trace = generate_trace(&mix, 17);
        let cfg = SiteConfig::new(4).with_policy(policy);
        let plan = FaultPlan::new(faults.clone(), 5);
        let (plain, _) = SiteRun::with_faults(cfg.clone(), &trace, &plan, Tracer::Off).finish();
        let (traced, _) = SiteRun::with_faults(cfg, &trace, &plan, Tracer::buffer()).finish();
        assert_eq!(plain.outcomes, traced.outcomes, "{label}");
        assert_eq!(
            plain.metrics.total_yield.to_bits(),
            traced.metrics.total_yield.to_bits(),
            "{label}"
        );
        assert_eq!(plain.metrics.crashed_procs, traced.metrics.crashed_procs);
    }
}

/// The pre-pool dynamic layout algorithm, verbatim: rescore the whole
/// remaining queue (rebuilding the cost model) at every dispatch
/// instant, pick the argmax, and place it on the earliest-free
/// processors via the original repeated-min scan.
fn reference_dynamic(policy: &Policy, free: &mut [Time], jobs: &[Job]) -> Vec<ScheduleEntry> {
    let mut remaining: Vec<Job> = jobs.to_vec();
    let mut entries = Vec::with_capacity(jobs.len());
    while !remaining.is_empty() {
        let now = free.iter().copied().min().expect("non-empty");
        let model = if policy.needs_cost_model() {
            Some(CostModel::build(now, &remaining))
        } else {
            None
        };
        let ctx = match &model {
            Some(m) => ScoreCtx::with_cost(now, m),
            None => ScoreCtx::simple(now),
        };
        let best = policy.select(&remaining, &ctx).expect("non-empty queue");
        let job = remaining.swap_remove(best);

        // Original placement: width × processors repeated-min scan.
        let width = job.spec.width;
        let mut chosen: Vec<usize> = Vec::with_capacity(width);
        for _ in 0..width {
            let mut best_p = usize::MAX;
            for (i, t) in free.iter().enumerate() {
                if chosen.contains(&i) {
                    continue;
                }
                if best_p == usize::MAX || *t < free[best_p] {
                    best_p = i;
                }
            }
            chosen.push(best_p);
        }
        let start = chosen.iter().map(|&i| free[i]).max().expect("width >= 1");
        let completion = start + job.rpt;
        for &i in &chosen {
            free[i] = completion;
        }
        entries.push(ScheduleEntry {
            id: job.id(),
            start,
            completion,
            expected_yield: job.spec.yield_at(completion),
            decay: job.spec.decay,
        });
    }
    entries
}

#[test]
fn dynamic_candidate_matches_from_scratch_rescore_bit_for_bit() {
    let mix = MixConfig::millennium_default()
        .with_tasks(120)
        .with_processors(6)
        .with_load_factor(1.5)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 2 })
        .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.4 });
    for (label, policy) in all_policies() {
        for seed in [7, 8, 9] {
            let trace = generate_trace(&mix, seed);
            let now = Time::new(5.0);
            let jobs: Vec<Job> = trace.tasks.iter().map(|s| Job::new(*s)).collect();
            // Staggered free times so placement order matters.
            let free: Vec<Time> = (0..6).map(|i| Time::new(i as f64 * 0.75)).collect();

            let candidate = build_candidate(&policy, ScheduleMode::Dynamic, now, &free, &jobs);
            let mut ref_free: Vec<Time> = free.iter().map(|&t| t.max(now)).collect();
            let expected = reference_dynamic(&policy, &mut ref_free, &jobs);

            assert_eq!(
                candidate.entries.len(),
                expected.len(),
                "entry count diverged: {label} seed {seed}"
            );
            for (got, want) in candidate.entries.iter().zip(&expected) {
                assert_eq!(got.id, want.id, "pick order diverged: {label} seed {seed}");
                assert_eq!(
                    got.start.as_f64().to_bits(),
                    want.start.as_f64().to_bits(),
                    "start diverged for {}: {label} seed {seed}",
                    got.id
                );
                assert_eq!(
                    got.completion.as_f64().to_bits(),
                    want.completion.as_f64().to_bits(),
                    "completion diverged for {}: {label} seed {seed}",
                    got.id
                );
                assert_eq!(
                    got.expected_yield.to_bits(),
                    want.expected_yield.to_bits(),
                    "yield diverged for {}: {label} seed {seed}",
                    got.id
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Market pause/resume equivalence: wherever an economy run pauses for a
// snapshot, restoring it and finishing must end in an `EconomySnapshot`
// byte-identical to the uninterrupted run's.
// ---------------------------------------------------------------------------

fn market_trace(tasks: usize, seed: u64) -> Trace {
    generate_trace(
        &MixConfig::millennium_default()
            .with_tasks(tasks)
            .with_processors(16)
            .with_load_factor(1.5),
        seed,
    )
}

/// A many-site economy of small sites, slack admission and the
/// money-conservation auditor engaged.
fn market_cfg(sites: usize, policy: Policy) -> EconomyConfig {
    EconomyConfig::uniform(
        sites,
        SiteConfig::new(2)
            .with_policy(policy)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    )
}

fn snapshot_json(run: &EconomyRun) -> String {
    serde_json::to_string(&run.snapshot()).expect("serialize economy snapshot")
}

// ---------------------------------------------------------------------------
// Workflow equivalence: DAG workloads run through the market must be an
// overlay, not a fork of the engine. Whatever the provenance level or
// where the run pauses, the final state — workflow ledger included — must
// not change.
// ---------------------------------------------------------------------------

fn equivalence_wf_set(seed: u64) -> WorkflowSet {
    generate_workflows(
        &WorkflowConfig::default_set()
            .with_workflows(8)
            .with_shape(WorkflowShape::RandomLayered {
                layers: 3,
                width: 2,
                edge_prob: 0.5,
            })
            .with_processors(4)
            .with_load_factor(2.0),
        seed,
    )
}

/// A workflow economy: slack-admitting sites that carry the facet table,
/// and the release/settle overlay installed.
fn wf_market_cfg(sites: usize, policy: Policy, set: &WorkflowSet) -> EconomyConfig {
    let mut c = EconomyConfig::uniform(
        sites,
        SiteConfig::new(2)
            .with_policy(policy)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
            .with_workflow_facets(set.facets()),
    );
    c.workflows = Some(set.clone());
    c
}

#[test]
fn workflow_provenance_off_streams_are_byte_identical_to_default_streams() {
    // Same additivity contract as the flat-task version, but over a DAG
    // market: provenance must not perturb release order, settlement, or
    // a single float in the workflow ledger.
    use mbts::trace::{to_jsonl, TraceKind, Tracer};
    for (label, policy) in all_policies() {
        let set = equivalence_wf_set(82);
        let trace = set.trace();
        let cfg = wf_market_cfg(4, policy, &set);
        let (plain_outcome, plain) =
            EconomyRun::new(cfg.clone(), &trace, Tracer::buffer()).finish();
        let (prov_outcome, prov) =
            EconomyRun::new(cfg, &trace, Tracer::buffer().with_provenance()).finish();
        assert_eq!(
            plain_outcome, prov_outcome,
            "outcome diverged under provenance: {label}"
        );
        assert_eq!(
            plain_outcome.workflows, prov_outcome.workflows,
            "workflow ledger diverged under provenance: {label}"
        );
        let plain_jsonl = to_jsonl(&plain.into_events().expect("buffer keeps events"));
        let filtered: Vec<_> = prov
            .into_events()
            .expect("buffer keeps events")
            .into_iter()
            .filter(|e| !matches!(e.kind, TraceKind::DecisionRecord { .. }))
            .collect();
        assert_eq!(
            to_jsonl(&filtered),
            plain_jsonl,
            "provenance-off stream is not byte-identical: {label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pause an economy run at an arbitrary event boundary, carry its
    /// snapshot through JSON into a fresh run, and finish both: each must
    /// end byte-identical to a run that never paused. Covers the flat
    /// economy and the workflow overlay.
    #[test]
    fn paused_market_resumes_to_the_uninterrupted_snapshot(
        seed in 1u64..500,
        policy_idx in 0usize..7,
        workflows in any::<bool>(),
        pause_permille in 0u64..1000,
    ) {
        let (_, policy) = all_policies()[policy_idx];
        let (cfg, trace) = if workflows {
            let set = equivalence_wf_set(seed);
            (wf_market_cfg(6, policy, &set), set.trace())
        } else {
            (market_cfg(6, policy), market_trace(120, seed))
        };
        let mut uninterrupted = EconomyRun::new(cfg.clone(), &trace, Tracer::Off);
        while uninterrupted.step() {}
        let expected = snapshot_json(&uninterrupted);
        let pause_after = uninterrupted.events_handled() * pause_permille / 1000;

        let mut paused = EconomyRun::new(cfg, &trace, Tracer::Off);
        while paused.events_handled() < pause_after {
            prop_assert!(paused.step(), "ran dry before the pause point");
        }
        let mid = snapshot_json(&paused);
        let mut resumed = EconomyRun::from_snapshot(
            serde_json::from_str(&mid).expect("mid-run snapshot round-trips"),
        )
        .expect("mid-run snapshot restores");
        while paused.step() {}
        while resumed.step() {}
        prop_assert_eq!(&snapshot_json(&paused), &expected, "in-place continuation diverged");
        prop_assert_eq!(&snapshot_json(&resumed), &expected, "resumed continuation diverged");
    }
}
