//! Chaos-tier integration tests: the `tests/chaos/` scenario corpus run
//! through the orchestrator in-process — every fault class (disk,
//! network-adjacent serve journal) injected, every invariant checked,
//! and the `(seed, schedule)` determinism contract
//! enforced by the paired-run comparison inside `run_corpus`.

use mbts::chaos::{run_corpus, run_scenario};
use mbts::chaos_core::{FailAction, FailpointSpec, Scenario, ScenarioTarget};
use mbts::trace::TraceKind;
use std::collections::BTreeSet;
use std::path::Path;

fn corpus() -> Vec<Scenario> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/chaos");
    let loaded = Scenario::load_dir(&dir).expect("corpus dir loads");
    assert!(
        loaded.len() >= 7,
        "corpus shrank to {} scenarios — keep at least 7 spanning the disk \
         and serve classes",
        loaded.len()
    );
    loaded.into_iter().map(|(_, s)| s).collect()
}

/// The shipped corpus passes end to end: every scenario injects at least
/// one fault, every invariant holds, the three target classes are all
/// represented, and both runs of every scenario are byte-identical.
#[test]
fn shipped_corpus_is_green_and_deterministic() {
    let scenarios = corpus();
    let (report, events) = run_corpus(&scenarios, None).expect("corpus passes");
    assert_eq!(report.scenarios.len(), scenarios.len());
    assert!(report.deterministic);
    assert!(report.total_injected > 0, "a chaos corpus must inject");
    assert!(
        report.total_crashes > 0,
        "disk scenarios must force crash-recovery cycles"
    );

    let classes: BTreeSet<&str> = report.scenarios.iter().map(|s| s.class.as_str()).collect();
    assert_eq!(
        classes,
        BTreeSet::from(["market", "serve", "site"]),
        "corpus must span all three target classes"
    );
    for s in &report.scenarios {
        assert!(s.injected > 0, "scenario '{}' injected nothing", s.name);
        assert!(
            !s.checks.is_empty(),
            "scenario '{}' checked nothing",
            s.name
        );
    }

    // The trace stream carries both marker kinds so `mbts analyze` can
    // attribute yield lost per fault class.
    let injected = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ChaosInjected { .. }))
        .count() as u64;
    let recovered = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ChaosRecovered { .. }))
        .count();
    assert_eq!(
        injected, report.total_injected,
        "every fired fault must surface as a ChaosInjected event"
    );
    assert!(recovered > 0, "recoveries must be marked in the trace");
}

/// A seed override changes what fires (different streams) while each
/// overridden run still satisfies every invariant — chaos schedules are
/// reusable across seeds, which is what the CI soak exploits.
#[test]
fn seed_override_reseeds_all_streams() {
    let scenario = corpus()
        .into_iter()
        .find(|s| s.name == "site-short-writes")
        .expect("corpus names are stable");
    let (base, _) = run_scenario(&scenario, None).expect("base seed passes");
    let (re, _) = run_scenario(&scenario, Some(9001)).expect("override passes");
    assert_eq!(base.seed, 11);
    assert_eq!(re.seed, 9001);
    assert!(re.injected > 0, "override must still inject");
}

/// A schedule that names a failpoint the target never hits is a scenario
/// bug, not a silent no-op: the orchestrator fails it loudly.
#[test]
fn armed_but_never_hit_schedule_fails_loudly() {
    let scenario = Scenario {
        name: "misnamed-point".to_string(),
        seed: 5,
        target: ScenarioTarget::Site {
            tasks: 40,
            processors: 4,
            load: 1.0,
            policy: "fcfs".to_string(),
            snapshot_every: 32,
        },
        failpoints: vec![FailpointSpec::always(
            "durable.sink.wrote", // typo: no such point
            FailAction::Enospc,
        )],
        notes: String::new(),
    };
    let err = run_scenario(&scenario, None).expect_err("typo must not pass silently");
    assert!(
        err.contains("no failpoint ever fired"),
        "unexpected error: {err}"
    );
}

/// A schedule written for the removed sharded market engine still
/// loads (the `shards` key is ignored) but its `market.shard.reply` point
/// no longer exists, so it fails as armed-but-never-hit, not silently.
#[test]
fn stale_shard_reply_schedule_fails_as_never_hit() {
    let scenario = Scenario::from_json(
        r#"{
            "name": "stale-shard-schedule", "seed": 71,
            "target": {"Market": {"tasks": 40, "sites": 2, "shards": 3}},
            "failpoints": [{"point": "market.shard.reply", "action": "DropConn", "every": 11}]
        }"#,
    )
    .expect("the stale shards key is ignored");
    let err = run_scenario(&scenario, None).expect_err("a dead point must not pass silently");
    assert!(
        err.contains("no failpoint ever fired"),
        "unexpected error: {err}"
    );
}
