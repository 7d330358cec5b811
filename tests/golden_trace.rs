//! Golden-trace conformance tests: small deterministic workloads whose
//! *complete* structured-event streams are committed as JSONL fixtures
//! under `tests/golden/` and diffed exactly. Any change to admission,
//! dispatch order, preemption, decay accounting, or the event layer
//! itself shows up as a fixture diff — the paper's policy-ordering
//! claims become executable conformance checks, decision by decision.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! On failure each test writes the actual stream to
//! `target/golden-diff/<name>.jsonl` so CI can upload the diff as an
//! artifact.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::sim::UpDown;
use mbts::site::{FaultPlan, SiteConfig, SiteRun};
use mbts::trace::{from_jsonl, to_jsonl, Tracer};
use mbts::workload::{
    generate_trace, generate_workflows, BoundPolicy, MixConfig, WidthPolicy, WorkflowConfig,
    WorkflowSet, WorkflowShape,
};
use std::path::PathBuf;

/// The six headline policies of the paper's evaluation (Figures 3–6).
fn roster() -> Vec<(&'static str, Policy)> {
    vec![
        ("fcfs", Policy::Fcfs),
        ("srpt", Policy::Srpt),
        ("swpt", Policy::Swpt),
        ("first_price", Policy::FirstPrice),
        ("pv", Policy::pv(0.01)),
        ("first_reward", Policy::first_reward(0.3, 0.01)),
    ]
}

/// Three seeded mini-workloads per policy. Overloaded two-processor site
/// with gangs, bounded penalties and expiry shedding, so the streams
/// exercise queueing, backfilling, preemption, and drops — not just
/// arrive/start/complete.
const SEEDS: [u64; 3] = [101, 102, 103];

fn mini_mix() -> MixConfig {
    MixConfig::millennium_default()
        .with_tasks(16)
        .with_processors(2)
        .with_load_factor(2.5)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 1 })
        .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 })
}

fn site(policy: Policy) -> SiteConfig {
    SiteConfig::new(2)
        .with_policy(policy)
        .with_preemption(true)
        .with_drop_expired(true)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn diff_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("golden-diff")
}

/// Checks `actual` against the fixture `name` (or writes it under
/// `UPDATE_GOLDEN`); a divergence is written to the diff directory and
/// noted in `failures`.
fn compare(name: &str, actual: &str, failures: &mut Vec<String>) {
    let fixture = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create fixture dir");
        std::fs::write(&fixture, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&fixture)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
    if actual != expected {
        std::fs::create_dir_all(diff_dir()).expect("create diff dir");
        let diff_path = diff_dir().join(name);
        std::fs::write(&diff_path, actual).expect("write actual stream");
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map(|i| i + 1)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()) + 1);
        failures.push(format!(
            "{name}: first divergence at line {first_diff} (actual written to {})",
            diff_path.display()
        ));
    }
}

fn actual_stream(policy: Policy, seed: u64) -> String {
    let trace = generate_trace(&mini_mix(), seed);
    let (_, tracer) = SiteRun::new(site(policy), &trace, Tracer::buffer()).finish();
    to_jsonl(&tracer.into_events().expect("buffer tracer keeps events"))
}

#[test]
fn golden_traces_match_committed_fixtures() {
    let mut failures = Vec::new();
    for (label, policy) in roster() {
        for seed in SEEDS {
            let name = format!("{label}_{seed}.jsonl");
            compare(&name, &actual_stream(policy, seed), &mut failures);
        }
    }
    assert!(
        failures.is_empty(),
        "golden traces diverged (rerun with UPDATE_GOLDEN=1 to accept):\n{}",
        failures.join("\n")
    );
}

/// Faulted fixtures: the mini workloads of two value-aware policies with
/// each processor crashing and repairing on its own seeded timeline, so
/// the streams pin crash eviction, requeueing and repair dispatch.
fn faulted_stream(policy: Policy, seed: u64) -> String {
    let trace = generate_trace(&mini_mix(), seed);
    let plan = FaultPlan::new(UpDown::exponential(150.0, 40.0), seed);
    let (_, tracer) = SiteRun::with_faults(site(policy), &trace, &plan, Tracer::buffer()).finish();
    to_jsonl(&tracer.into_events().expect("buffer tracer keeps events"))
}

#[test]
fn golden_faulted_traces_match_committed_fixtures() {
    use mbts::trace::TraceKind;
    let mut failures = Vec::new();
    let (mut crashed, mut repaired, mut requeued) = (0usize, 0usize, 0usize);
    for (label, policy) in wf_roster() {
        for seed in [101u64, 102] {
            let actual = faulted_stream(policy, seed);
            for ev in from_jsonl(&actual).expect("a stream parses") {
                match ev.kind {
                    TraceKind::Crashed { .. } => crashed += 1,
                    TraceKind::Repaired { .. } => repaired += 1,
                    TraceKind::Requeued { .. } => requeued += 1,
                    _ => {}
                }
            }
            compare(
                &format!("faulted_{label}_{seed}.jsonl"),
                &actual,
                &mut failures,
            );
        }
    }
    assert!(
        failures.is_empty(),
        "golden faulted traces diverged (rerun with UPDATE_GOLDEN=1 to accept):\n{}",
        failures.join("\n")
    );
    assert!(
        crashed > 0 && repaired > 0,
        "no fixture crashes and repairs"
    );
    assert!(requeued > 0, "no crash evicts a running task");
}

/// Workflow fixtures: two DAG shapes × two value-aware policies × two
/// seeds, on an overloaded two-processor site with slack admission, so
/// the streams exercise release ordering, stranding, and workflow
/// settlement — not just the flat-task path.
fn wf_roster() -> Vec<(&'static str, Policy)> {
    vec![
        ("first_price", Policy::FirstPrice),
        ("first_reward", Policy::first_reward(0.3, 0.01)),
    ]
}

fn wf_shapes() -> Vec<(&'static str, WorkflowShape)> {
    vec![
        ("forkjoin", WorkflowShape::ForkJoin { width: 3 }),
        ("pipeline", WorkflowShape::Pipeline { depth: 4 }),
    ]
}

fn wf_set(shape: WorkflowShape, seed: u64) -> WorkflowSet {
    generate_workflows(
        &WorkflowConfig::default_set()
            .with_workflows(4)
            .with_shape(shape)
            .with_processors(2)
            .with_load_factor(2.0),
        seed,
    )
}

fn wf_stream(policy: Policy, shape: WorkflowShape, seed: u64) -> String {
    let set = wf_set(shape, seed);
    let config = SiteConfig::new(2)
        .with_policy(policy)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
        .with_workflow_facets(set.facets());
    let (_, tracer) = SiteRun::with_workflows(config, &set, Tracer::buffer()).finish();
    to_jsonl(&tracer.into_events().expect("buffer tracer keeps events"))
}

#[test]
fn golden_workflow_traces_match_committed_fixtures() {
    let mut failures = Vec::new();
    for (shape_label, shape) in wf_shapes() {
        for (label, policy) in wf_roster() {
            for seed in [101u64, 102] {
                let name = format!("wf_{shape_label}_{label}_{seed}.jsonl");
                compare(&name, &wf_stream(policy, shape, seed), &mut failures);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden workflow traces diverged (rerun with UPDATE_GOLDEN=1 to accept):\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_workflow_fixtures_exercise_the_dag_event_layer() {
    use mbts::trace::TraceKind;
    let mut released = 0usize;
    let mut settled = 0usize;
    let mut stranded = 0usize;
    for (shape_label, _) in wf_shapes() {
        for (label, _) in wf_roster() {
            for seed in [101u64, 102] {
                let path = golden_dir().join(format!("wf_{shape_label}_{label}_{seed}.jsonl"));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
                let events = from_jsonl(&text)
                    .unwrap_or_else(|e| panic!("fixture {} does not parse: {e:?}", path.display()));
                assert!(
                    events.windows(2).all(|w| w[0].at <= w[1].at),
                    "wf_{shape_label}_{label}_{seed} is not time-ordered"
                );
                for ev in &events {
                    match ev.kind {
                        TraceKind::WorkflowReleased { .. } => released += 1,
                        TraceKind::WorkflowSettled { .. } => settled += 1,
                        TraceKind::WorkflowStranded { .. } => stranded += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(released > 0, "no fixture exercises successor release");
    assert!(settled > 0, "no fixture exercises workflow settlement");
    assert!(
        stranded > 0,
        "no fixture exercises stranding (admission never refused a DAG member)"
    );
}

/// Telemetry is observation-only: regenerating a golden stream with the
/// live-metrics registry enabled and disabled must produce the same
/// bytes (and both must match the committed fixture, which the tests
/// above already pin). Guards the tentpole invariant from the engine
/// side — no instrumentation may ever feed back into event content.
#[test]
fn golden_streams_are_byte_identical_with_telemetry_on_and_off() {
    use mbts::trace::telemetry;
    telemetry::enable();
    let task_on = actual_stream(Policy::first_reward(0.3, 0.01), SEEDS[0]);
    let wf_on = wf_stream(
        Policy::FirstPrice,
        WorkflowShape::Pipeline { depth: 4 },
        101,
    );
    telemetry::disable();
    let task_off = actual_stream(Policy::first_reward(0.3, 0.01), SEEDS[0]);
    let wf_off = wf_stream(
        Policy::FirstPrice,
        WorkflowShape::Pipeline { depth: 4 },
        101,
    );
    telemetry::enable();
    assert_eq!(task_on, task_off, "telemetry perturbed a task stream");
    assert_eq!(wf_on, wf_off, "telemetry perturbed a workflow stream");
}

#[test]
fn golden_fixtures_parse_and_exercise_rich_events() {
    // The committed fixtures must stay valid JSONL and, collectively,
    // cover more than the trivial arrive/start/complete path.
    use mbts::trace::TraceKind;
    let mut preempted = 0usize;
    let mut dropped = 0usize;
    let mut backfills = 0usize;
    for (label, _) in roster() {
        for seed in SEEDS {
            let path = golden_dir().join(format!("{label}_{seed}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            let events = from_jsonl(&text)
                .unwrap_or_else(|e| panic!("fixture {} does not parse: {e:?}", path.display()));
            assert!(!events.is_empty(), "{label}_{seed} is empty");
            assert!(
                events.windows(2).all(|w| w[0].at <= w[1].at),
                "{label}_{seed} is not time-ordered"
            );
            for ev in &events {
                match ev.kind {
                    TraceKind::Preempted { .. } => preempted += 1,
                    TraceKind::Dropped { .. } => dropped += 1,
                    TraceKind::Scheduled { backfill: true, .. } => backfills += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(preempted > 0, "no fixture exercises preemption");
    assert!(dropped > 0, "no fixture exercises expiry drops");
    assert!(backfills > 0, "no fixture exercises backfilling");
}
