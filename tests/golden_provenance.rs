//! Golden decision-provenance conformance tests: with the tracer's
//! provenance level on, every dispatch / backfill / preemption /
//! admission decision must emit an exact, committed `DecisionRecord`
//! stream — the ranked candidate set with per-candidate present-value,
//! opportunity-cost, and slack decomposition. Any change to scoring,
//! ranking, tie-breaking, or the explainers themselves shows up as a
//! fixture diff.
//!
//! The companion invariant (checked here and in
//! `incremental_equivalence.rs`): filtering the decision records back
//! *out* of a provenance stream yields a byte-identical copy of the
//! default stream, so provenance can never perturb a replay.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_provenance
//! ```

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::{from_jsonl, to_jsonl, DecisionKind, TraceKind, Tracer};
use mbts::workload::{
    generate_trace, generate_workflows, BoundPolicy, MixConfig, WidthPolicy, WorkflowConfig,
    WorkflowSet, WorkflowShape,
};
use std::path::PathBuf;

/// Two value-aware policies × two seeds: enough to pin both the
/// cost-model-free (FirstPrice) and cost-model-backed (FirstReward)
/// explainer paths without bloating the fixture set.
fn roster() -> Vec<(&'static str, Policy)> {
    vec![
        ("first_price", Policy::FirstPrice),
        ("first_reward", Policy::first_reward(0.3, 0.01)),
    ]
}

const SEEDS: [u64; 2] = [101, 102];

/// Same overloaded two-processor mini-workload as `golden_trace.rs`, so
/// the provenance streams cover queueing, backfilling, preemption, and
/// expiry drops.
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

fn provenance_stream(policy: Policy, seed: u64) -> String {
    let trace = generate_trace(&mini_mix(), seed);
    let (_, tracer) =
        SiteRun::new(site(policy), &trace, Tracer::buffer().with_provenance()).finish();
    to_jsonl(&tracer.into_events().expect("buffer tracer keeps events"))
}

#[test]
fn golden_provenance_streams_match_committed_fixtures() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (label, policy) in roster() {
        for seed in SEEDS {
            let name = format!("provenance_{label}_{seed}.jsonl");
            let fixture = golden_dir().join(&name);
            let actual = provenance_stream(policy, seed);
            if update {
                std::fs::create_dir_all(golden_dir()).expect("create fixture dir");
                std::fs::write(&fixture, &actual).expect("write fixture");
                continue;
            }
            let expected = std::fs::read_to_string(&fixture)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
            if actual != expected {
                std::fs::create_dir_all(diff_dir()).expect("create diff dir");
                let diff_path = diff_dir().join(&name);
                std::fs::write(&diff_path, &actual).expect("write actual stream");
                let first_diff = actual
                    .lines()
                    .zip(expected.lines())
                    .position(|(a, e)| a != e)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()) + 1);
                failures.push(format!(
                    "{name}: first divergence at line {first_diff} \
                     (actual written to {})",
                    diff_path.display()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "provenance streams diverged (rerun with UPDATE_GOLDEN=1 to accept):\n{}",
        failures.join("\n")
    );
}

#[test]
fn provenance_fixtures_cover_every_site_decision_kind() {
    let mut dispatches = 0usize;
    let mut backfills = 0usize;
    let mut preempts = 0usize;
    let mut admissions = 0usize;
    for (label, _) in roster() {
        for seed in SEEDS {
            let path = golden_dir().join(format!("provenance_{label}_{seed}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            let events = from_jsonl(&text)
                .unwrap_or_else(|e| panic!("fixture {} does not parse: {e:?}", path.display()));
            for ev in &events {
                let TraceKind::DecisionRecord {
                    decision,
                    considered,
                    candidates,
                } = &ev.kind
                else {
                    continue;
                };
                assert!(
                    !candidates.is_empty(),
                    "{label}_{seed}: empty candidate set"
                );
                assert!(
                    *considered >= candidates.len()
                        || candidates.iter().filter(|c| c.chosen).count()
                            > considered.saturating_sub(candidates.len()),
                    "{label}_{seed}: considered {considered} < {} kept",
                    candidates.len()
                );
                assert!(
                    candidates.windows(2).all(|w| w[0].rank <= w[1].rank),
                    "{label}_{seed}: candidates not in rank order"
                );
                assert!(
                    candidates.iter().all(|c| c.score.is_finite()
                        && c.pv.is_finite()
                        && c.cost.is_finite()
                        && c.slack.is_finite()),
                    "{label}_{seed}: non-finite decomposition leaked into fixture"
                );
                match decision {
                    DecisionKind::Dispatch => dispatches += 1,
                    DecisionKind::Backfill => backfills += 1,
                    DecisionKind::Preempt => preempts += 1,
                    DecisionKind::Admission => admissions += 1,
                    DecisionKind::BidSelection | DecisionKind::Shed => {}
                }
            }
        }
    }
    assert!(dispatches > 0, "no fixture records a dispatch decision");
    assert!(backfills > 0, "no fixture records a backfill decision");
    assert!(preempts > 0, "no fixture records a preemption decision");
    assert!(admissions > 0, "no fixture records an admission decision");
}

/// A small DAG workload with facets installed, so decision records are
/// workflow-stamped and admission sees successor structure.
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

fn wf_site(policy: Policy, set: &WorkflowSet) -> SiteConfig {
    SiteConfig::new(2)
        .with_policy(policy)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
        .with_workflow_facets(set.facets())
}

fn wf_provenance_stream(policy: Policy, shape: WorkflowShape, seed: u64) -> String {
    let set = wf_set(shape, seed);
    let (_, tracer) = SiteRun::with_workflows(
        wf_site(policy, &set),
        &set,
        Tracer::buffer().with_provenance(),
    )
    .finish();
    to_jsonl(&tracer.into_events().expect("buffer tracer keeps events"))
}

fn wf_grid() -> Vec<(&'static str, WorkflowShape, &'static str, Policy)> {
    let mut grid = Vec::new();
    for (shape_label, shape) in [
        ("forkjoin", WorkflowShape::ForkJoin { width: 3 }),
        ("pipeline", WorkflowShape::Pipeline { depth: 4 }),
    ] {
        for (label, policy) in [
            ("first_price", Policy::FirstPrice),
            ("first_reward", Policy::first_reward(0.3, 0.01)),
        ] {
            grid.push((shape_label, shape, label, policy));
        }
    }
    grid
}

#[test]
fn golden_workflow_provenance_streams_match_committed_fixtures() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (shape_label, shape, label, policy) in wf_grid() {
        let seed = 101u64;
        let name = format!("provenance_wf_{shape_label}_{label}_{seed}.jsonl");
        let fixture = golden_dir().join(&name);
        let actual = wf_provenance_stream(policy, shape, seed);
        if update {
            std::fs::create_dir_all(golden_dir()).expect("create fixture dir");
            std::fs::write(&fixture, &actual).expect("write fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
        if actual != expected {
            std::fs::create_dir_all(diff_dir()).expect("create diff dir");
            let diff_path = diff_dir().join(&name);
            std::fs::write(&diff_path, &actual).expect("write actual stream");
            failures.push(format!(
                "{name}: diverged (actual written to {})",
                diff_path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "workflow provenance streams diverged (rerun with UPDATE_GOLDEN=1 to accept):\n{}",
        failures.join("\n")
    );
}

#[test]
fn workflow_decision_records_carry_workflow_stamps() {
    // With facets installed, every candidate in every decision record
    // must name its owning workflow and critical-path membership — and
    // at least one stamped candidate must lie on a critical path.
    let mut stamped = 0usize;
    let mut critical = 0usize;
    for (shape_label, shape, label, policy) in wf_grid() {
        let text = wf_provenance_stream(policy, shape, 101);
        let events = from_jsonl(&text).expect("stream parses");
        for ev in &events {
            let TraceKind::DecisionRecord { candidates, .. } = &ev.kind else {
                continue;
            };
            for c in candidates {
                if c.task.is_some() {
                    assert!(
                        c.workflow.is_some(),
                        "{shape_label}/{label}: task candidate without a workflow stamp"
                    );
                    assert!(
                        c.critical.is_some(),
                        "{shape_label}/{label}: stamped candidate lacks critical flag"
                    );
                    stamped += 1;
                    if c.critical == Some(true) {
                        critical += 1;
                    }
                }
            }
        }
    }
    assert!(stamped > 0, "no workflow-stamped decision candidates");
    assert!(critical > 0, "no candidate on a critical path");
}

#[test]
fn filtering_workflow_decision_records_recovers_the_default_stream() {
    // Provenance can never perturb a workflow replay: the default
    // stream is a byte-identical subset, and the settlement reports
    // (earned totals, attribution) agree bitwise.
    for (shape_label, shape, label, policy) in wf_grid() {
        let set = wf_set(shape, 101);
        let (plain_outcome, plain) =
            SiteRun::with_workflows(wf_site(policy, &set), &set, Tracer::buffer()).finish();
        let (prov_outcome, prov) = SiteRun::with_workflows(
            wf_site(policy, &set),
            &set,
            Tracer::buffer().with_provenance(),
        )
        .finish();
        assert_eq!(
            plain_outcome.workflows, prov_outcome.workflows,
            "{shape_label}/{label}: provenance changed workflow settlement"
        );
        let plain_events = plain.into_events().expect("buffer keeps events");
        let filtered: Vec<_> = prov
            .into_events()
            .expect("buffer keeps events")
            .into_iter()
            .filter(|e| !matches!(e.kind, TraceKind::DecisionRecord { .. }))
            .collect();
        assert_eq!(
            to_jsonl(&filtered),
            to_jsonl(&plain_events),
            "{shape_label}/{label}: default stream is not a byte-identical \
             subset of the provenance stream"
        );
    }
}

#[test]
fn filtering_decision_records_recovers_the_default_stream() {
    for (label, policy) in roster() {
        for seed in SEEDS {
            let trace = generate_trace(&mini_mix(), seed);
            let (plain_outcome, plain) =
                SiteRun::new(site(policy), &trace, Tracer::buffer()).finish();
            let (prov_outcome, prov) =
                SiteRun::new(site(policy), &trace, Tracer::buffer().with_provenance()).finish();
            assert_eq!(
                plain_outcome.metrics.total_yield.to_bits(),
                prov_outcome.metrics.total_yield.to_bits(),
                "{label}_{seed}: provenance changed the replay"
            );
            let plain_events = plain.into_events().expect("buffer keeps events");
            let filtered: Vec<_> = prov
                .into_events()
                .expect("buffer keeps events")
                .into_iter()
                .filter(|e| !matches!(e.kind, TraceKind::DecisionRecord { .. }))
                .collect();
            assert_eq!(
                to_jsonl(&filtered),
                to_jsonl(&plain_events),
                "{label}_{seed}: default stream is not a byte-identical \
                 subset of the provenance stream"
            );
        }
    }
}
