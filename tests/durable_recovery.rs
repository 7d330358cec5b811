//! Exhaustive kill-point recovery sweeps.
//!
//! The durability layer's headline guarantee: crash a journaled run
//! after *any* event index `k`, recover from the journal bytes written
//! so far, run to completion — and the outcome (schedule dispositions,
//! yields, account balances, trace stream) is **bit-identical** to the
//! run that was never interrupted. These tests enumerate every `k`
//! rather than sampling: determinism bugs love to hide at specific
//! boundaries (first event, mid-repair, last completion).
//!
//! Two tiers, mirroring `fault_soak.rs`:
//!
//! * smoke — small traces, always on;
//! * heavy — all six policies × both lost-work policies × three seeds,
//!   with and without fault injection; ignored in debug builds (CI runs
//!   it in release with `--include-ignored`).
//!
//! On divergence, if `MBTS_DUMP_DIR` is set the expected/actual states
//! are dumped there so CI can upload them as artifacts.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::durable::{framing, DurableRun, Journal, RecordTag, Recoverable};
use mbts::market::{
    EcoEvent, EconomyConfig, EconomyOutcome, EconomyRun, EconomySnapshot, PricingStrategy,
};
use mbts::sim::{Time, UpDown};
use mbts::site::{FaultPlan, SiteConfig, SiteOutcome, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{
    fig67_mix, generate_trace, generate_workflows, WorkflowConfig, WorkflowSet, WorkflowShape,
};

/// On mismatch, dump expected/actual to `MBTS_DUMP_DIR` (if set) and
/// return a pointer for the panic message.
fn dump_divergence(name: &str, want: &str, got: &str) -> String {
    let Ok(dir) = std::env::var("MBTS_DUMP_DIR") else {
        return String::new();
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(
        &path,
        format!("=== expected ===\n{want}\n=== got ===\n{got}\n"),
    )
    .ok();
    format!(" (state dump: {})", path.display())
}

macro_rules! assert_identical {
    ($want:expr, $got:expr, $name:expr, $what:expr, $k:expr) => {
        if $got != $want {
            let hint = dump_divergence(
                &format!("{}-k{}-{}", $name, $k, $what),
                &format!("{:#?}", $want),
                &format!("{:#?}", $got),
            );
            panic!(
                "{} diverged after kill at event {} [{}]{hint}",
                $what, $k, $name
            );
        }
    };
}

/// What a kill sweep reads off a run beyond the [`Recoverable`] fold:
/// its event count and its finished outcome plus trace stream.
trait Swept: Recoverable {
    type Final: PartialEq + std::fmt::Debug;
    fn events_handled(&self) -> u64;
    fn finish(self) -> (Self::Final, Tracer);
}

impl Swept for SiteRun {
    type Final = SiteOutcome;
    fn events_handled(&self) -> u64 {
        SiteRun::events_handled(self)
    }
    fn finish(self) -> (SiteOutcome, Tracer) {
        SiteRun::finish(self)
    }
}

impl Swept for EconomyRun {
    type Final = EconomyOutcome;
    fn events_handled(&self) -> u64 {
        EconomyRun::events_handled(self)
    }
    fn finish(self) -> (EconomyOutcome, Tracer) {
        EconomyRun::finish(self)
    }
}

/// Journals a full run (recording the journal offset at every event
/// boundary), then for each `k` truncates to that offset, recovers, and
/// finishes — asserting outcome and trace-stream identity. Returns the
/// total event count. The run's tracer decides what the trace leg
/// covers: with provenance on, recovery must resume the decision-record
/// stream without losing or duplicating records.
fn kill_sweep<R: Swept>(name: &str, run: R, snapshot_every: u64) -> u64 {
    kill_sweep_journal(name, run, snapshot_every).0
}

/// [`kill_sweep`], also returning the whole journal it swept.
fn kill_sweep_journal<R: Swept>(name: &str, run: R, snapshot_every: u64) -> (u64, Vec<u8>) {
    let mut durable = DurableRun::new(run, Journal::in_memory(), snapshot_every).unwrap();
    let mut offsets = vec![durable.offset()];
    while durable.step().unwrap() {
        offsets.push(durable.offset());
    }
    let (run, journal) = durable.into_parts();
    let total = run.events_handled();
    let (want, want_tracer) = run.finish();
    let want_events = want_tracer.into_events().unwrap();
    let bytes = journal.bytes();

    for (k, &cut) in offsets.iter().enumerate() {
        let (mut rec, _report) = DurableRun::<R>::recover(&bytes[..cut])
            .unwrap_or_else(|e| panic!("recovery failed at kill point {k} [{name}]: {e}"));
        assert_eq!(
            rec.events_handled(),
            k as u64,
            "recovered run resumed at the wrong event [{name}]"
        );
        while let Some(input) = rec.due() {
            rec.apply(&input).unwrap();
        }
        assert_eq!(rec.events_handled(), total);
        let (got, got_tracer) = rec.finish();
        assert_identical!(want, got, name, "outcome", k);
        let got_events = got_tracer.into_events().unwrap();
        assert_identical!(want_events, got_events, name, "trace", k);
    }
    (total, bytes.to_vec())
}

/// [`kill_sweep`] over an economy run whose journal must hold at least
/// one event of each kind in `kinds`, so that every kind is recovered
/// across.
fn economy_kill_sweep(name: &str, run: EconomyRun, snapshot_every: u64, kinds: &[&str]) -> u64 {
    let (total, journal) = kill_sweep_journal(name, run, snapshot_every);
    let journaled: std::collections::BTreeSet<&str> = framing::scan(&journal)
        .expect("the swept journal scans")
        .records
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Event)
        .map(|(_, payload)| {
            let (_, event): (Time, EcoEvent) = serde_json::from_slice(payload).expect("an event");
            match event {
                EcoEvent::Arrival(_) => "Arrival",
                EcoEvent::Release(_) => "Release",
                EcoEvent::Completion { .. } => "Completion",
            }
        })
        .collect();
    for kind in kinds {
        assert!(
            journaled.contains(kind),
            "[{name}] journaled no {kind} event"
        );
    }
    total
}

/// Processor faults aggressive enough that even a ~25-task smoke trace
/// sees crashes and repairs.
fn smoke_faults() -> UpDown {
    UpDown::exponential(600.0, 80.0)
}

#[test]
fn kill_every_event_site_smoke() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 17);
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true);
    let plan = FaultPlan::new(smoke_faults(), 5);
    let total = kill_sweep(
        "site-smoke",
        SiteRun::with_faults(config, &trace, &plan, Tracer::buffer()),
        32,
    );
    assert!(total > 48, "smoke sweep saw only {total} events");
}

#[test]
fn kill_every_event_site_smoke_unfaulted() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(25).with_processors(4), 23);
    let config = SiteConfig::new(4)
        .with_policy(Policy::FirstPrice)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 });
    let total = kill_sweep(
        "site-smoke-unfaulted",
        SiteRun::new(config, &trace, Tracer::buffer()),
        16,
    );
    assert!(total >= 25);
}

/// A misestimated trace: the true runtimes sit beside the bids, in the
/// snapshot's task list, and each queued or running job carries its own,
/// which a crash-evicted job runs again from the start. Recovered from
/// every kill point, a faulted site and an economy over it finish
/// bit-identically to the runs that never stopped.
#[test]
fn kill_every_event_misestimated_site_and_economy() {
    let mix = fig67_mix(1.6)
        .with_tasks(24)
        .with_processors(4)
        .with_runtime_error(0.5);
    let trace = generate_trace(&mix, 17);
    assert!(!trace.tasks.is_accurate(), "nothing misestimated");
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true);
    let plan = FaultPlan::new(smoke_faults(), 5);
    let total = kill_sweep(
        "site-misestimated",
        SiteRun::with_faults(config, &trace, &plan, Tracer::buffer()),
        16,
    );
    assert!(total > 48, "site sweep saw only {total} events");
    let config = EconomyConfig::uniform(
        2,
        SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    economy_kill_sweep(
        "economy-misestimated",
        EconomyRun::new(config, &trace, Tracer::buffer()),
        16,
        &["Arrival", "Completion"],
    );
}

#[test]
fn kill_every_event_economy_smoke() {
    let trace = generate_trace(&fig67_mix(1.5).with_tasks(24).with_processors(8), 31);
    let config = EconomyConfig::uniform(
        2,
        SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    let total = economy_kill_sweep(
        "economy-smoke",
        EconomyRun::new(config, &trace, Tracer::buffer()),
        32,
        &["Arrival", "Completion"],
    );
    assert!(total > 40, "economy sweep saw only {total} events");
}

/// Second pricing: a contract's runner-up quote lives only while the
/// contract is open, so recovery must bring back every open contract's
/// quote, or its absence, from the snapshot. At every kill point the
/// contracts, `total_paid`, the site revenues and the settlement stream must be bit-identical to the run that
/// never stopped, and the swept journal must hold snapshots with open
/// contracts both with and without a runner-up.
#[test]
fn kill_every_event_economy_second_price_smoke() {
    let trace = generate_trace(&fig67_mix(2.5).with_tasks(40).with_processors(4), 23);
    let mut config = EconomyConfig::uniform(
        2,
        SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    config.pricing = PricingStrategy::SecondPrice;
    let (total, journal) = kill_sweep_journal(
        "economy-second-price",
        EconomyRun::new(config, &trace, Tracer::buffer()),
        8,
    );
    assert!(total > 40, "second-price sweep saw only {total} events");
    let (mut quoted, mut unquoted) = (false, false);
    for (tag, payload) in framing::scan(&journal)
        .expect("the swept journal scans")
        .records
    {
        if tag == RecordTag::Snapshot {
            let snap: EconomySnapshot = serde_json::from_slice(payload).expect("a snapshot");
            quoted |= snap.open.iter().any(Option::is_some);
            unquoted |= snap.open.iter().any(Option::is_none);
        }
    }
    assert!(
        quoted,
        "no snapshot holds an open contract with a runner-up"
    );
    assert!(unquoted, "no snapshot holds an open contract without one");
}

/// Kill sweeps with the provenance verbosity level *on*: every snapshot
/// now carries a wrapped tracer cursor plus buffered `DecisionRecord`
/// events, and recovery from any kill point must reproduce the exact
/// provenance stream — same candidates, same ranks, same float bits —
/// the uninterrupted run emits.
#[test]
fn kill_every_event_site_smoke_with_provenance() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 17);
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 });
    let plan = FaultPlan::new(smoke_faults(), 5);
    let total = kill_sweep(
        "site-smoke-provenance",
        SiteRun::with_faults(config, &trace, &plan, Tracer::buffer().with_provenance()),
        32,
    );
    assert!(total > 48, "provenance sweep saw only {total} events");
}

#[test]
fn kill_every_event_economy_smoke_with_provenance() {
    let trace = generate_trace(&fig67_mix(1.5).with_tasks(20).with_processors(8), 37);
    let config = EconomyConfig::uniform(
        2,
        SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    let total = kill_sweep(
        "economy-smoke-provenance",
        EconomyRun::new(config, &trace, Tracer::buffer().with_provenance()),
        16,
    );
    assert!(
        total > 20,
        "economy provenance sweep saw only {total} events"
    );
}

/// A DAG workload for the workflow kill sweeps: enough edges that many
/// kill points land *between* a predecessor's completion and the
/// successor's `Release` event — the window where the workflow
/// overlay's released/stranded bookkeeping lives only in the snapshot.
fn smoke_wf_set(seed: u64) -> WorkflowSet {
    generate_workflows(
        &WorkflowConfig::default_set()
            .with_workflows(6)
            .with_shape(WorkflowShape::RandomLayered {
                layers: 3,
                width: 2,
                edge_prob: 0.5,
            })
            .with_processors(2)
            .with_load_factor(2.0),
        seed,
    )
}

#[test]
fn kill_every_event_site_workflow_smoke() {
    let set = smoke_wf_set(19);
    let config = SiteConfig::new(2)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
        .with_workflow_facets(set.facets());
    let total = kill_sweep(
        "site-workflow-smoke",
        SiteRun::with_workflows(config, &set, Tracer::buffer()),
        16,
    );
    // Arrivals + completions + deadline checks + releases: well past the
    // flat task count, so the sweep really crossed release boundaries.
    assert!(
        total > set.tasks.len() as u64,
        "workflow sweep saw only {total} events"
    );
}

#[test]
fn kill_every_event_economy_workflow_smoke() {
    let set = smoke_wf_set(29);
    let trace = set.trace();
    let mut config = EconomyConfig::uniform(
        2,
        SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
            .with_workflow_facets(set.facets()),
    );
    config.workflows = Some(set.clone());
    let total = economy_kill_sweep(
        "economy-workflow-smoke",
        EconomyRun::new(config, &trace, Tracer::buffer()),
        32,
        &["Arrival", "Release", "Completion"],
    );
    assert!(
        total > set.tasks.len() as u64,
        "workflow economy sweep saw only {total} events"
    );
}

#[test]
fn kill_every_event_economy_workflow_smoke_with_provenance() {
    let set = smoke_wf_set(31);
    let trace = set.trace();
    let mut config = EconomyConfig::uniform(
        2,
        SiteConfig::new(2)
            .with_policy(Policy::first_reward(0.3, 0.01))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
            .with_workflow_facets(set.facets()),
    );
    config.workflows = Some(set);
    let total = kill_sweep(
        "economy-workflow-provenance",
        EconomyRun::new(config, &trace, Tracer::buffer().with_provenance()),
        16,
    );
    assert!(
        total > 20,
        "workflow provenance sweep saw only {total} events"
    );
}

/// The kill point *between* a site's `Crash` event and its matching
/// `Repair` must recover correctly — the recovered run must re-derive the
/// same repair schedule and the evicted work's restarts from snapshot
/// state alone.
#[test]
fn crash_during_repair_kill_points_recover() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 41);
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true);
    let plan = FaultPlan::new(smoke_faults(), 7);

    // Journal with genesis-only snapshots so record i+1 is event i.
    let run = SiteRun::with_faults(config.clone(), &trace, &plan, Tracer::buffer());
    let mut durable = DurableRun::new(run, Journal::in_memory(), 0).unwrap();
    let mut offsets = vec![durable.offset()];
    while durable.step().unwrap() {
        offsets.push(durable.offset());
    }
    let (run, journal) = durable.into_parts();
    let total = run.events_handled();
    let (want, want_tracer) = run.finish();
    let want_events = want_tracer.into_events().unwrap();

    // Find every Crash event's index from the journaled payloads.
    let bytes = journal.bytes();
    let scan = framing::scan(&bytes).unwrap();
    let crash_indices: Vec<usize> = scan
        .records
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Event)
        .enumerate()
        .filter(|(_, (_, payload))| {
            let text = std::str::from_utf8(payload).unwrap();
            text.contains("Crash")
        })
        .map(|(i, _)| i)
        .collect();
    assert!(
        !crash_indices.is_empty(),
        "the fault plan must actually crash processors"
    );

    // Kill immediately after each Crash applies — its Repair is still
    // pending in the journaled queue snapshot.
    for &i in &crash_indices {
        let k = i + 1;
        let (mut rec, _) = DurableRun::<SiteRun>::recover(&bytes[..offsets[k]])
            .unwrap_or_else(|e| panic!("recovery failed mid-repair at event {k}: {e}"));
        assert_eq!(rec.events_handled(), k as u64);
        while rec.step() {}
        assert_eq!(rec.events_handled(), total);
        let (got, got_tracer) = rec.finish();
        assert_identical!(want, got, "crash-during-repair", "outcome", k);
        let got_events = got_tracer.into_events().unwrap();
        assert_identical!(want_events, got_events, "crash-during-repair", "trace", k);
    }
}

/// The six policy configurations of the fault soak, swept exhaustively.
fn soak_policies(processors: usize) -> Vec<(&'static str, SiteConfig)> {
    vec![
        (
            "fcfs",
            SiteConfig::new(processors).with_policy(Policy::Fcfs),
        ),
        (
            "srpt",
            SiteConfig::new(processors).with_policy(Policy::Srpt),
        ),
        (
            "first_price",
            SiteConfig::new(processors).with_policy(Policy::FirstPrice),
        ),
        (
            "pv",
            SiteConfig::new(processors).with_policy(Policy::pv(0.01)),
        ),
        (
            "first_reward",
            SiteConfig::new(processors).with_policy(Policy::first_reward(0.3, 0.01)),
        ),
        (
            "first_reward_ac",
            SiteConfig::new(processors)
                .with_policy(Policy::first_reward(0.3, 0.01))
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 }),
        ),
    ]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "exhaustive sweep: run in release (CI crash-restart soak job)"
)]
fn kill_every_event_all_policies_heavy() {
    let mix = fig67_mix(1.6).with_tasks(150).with_processors(8);
    let mut total = 0u64;
    for &seed in &[101, 202, 303] {
        let trace = generate_trace(&mix, seed);
        for (label, base) in soak_policies(8) {
            // Unfaulted variant.
            total += kill_sweep(
                &format!("{label}-s{seed}-plain"),
                SiteRun::new(base.clone(), &trace, Tracer::buffer()),
                64,
            );
            // Faulted; evicted work restarts from scratch.
            let config = base.clone().with_preemption(true);
            let faults = UpDown::exponential(4_000.0, 120.0);
            let plan = FaultPlan::new(faults, seed.wrapping_mul(0x9E37_79B9) ^ 0x50A4);
            total += kill_sweep(
                &format!("{label}-s{seed}-restart"),
                SiteRun::with_faults(config, &trace, &plan, Tracer::buffer()),
                64,
            );
        }
    }
    // 36 sweeps × ~330 events each (rejections mean not every task
    // yields a completion event).
    assert!(total > 10_000, "heavy sweep saw only {total} events");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "exhaustive sweep: run in release (CI crash-restart soak job)"
)]
fn kill_every_event_economy_heavy() {
    let mix = fig67_mix(1.5).with_tasks(100).with_processors(8);
    let mut total = 0u64;
    for &seed in &[7, 19] {
        let trace = generate_trace(&mix, seed);
        let config = EconomyConfig::uniform(
            2,
            SiteConfig::new(4)
                .with_policy(Policy::first_reward(0.3, 0.01))
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
        );
        total += economy_kill_sweep(
            &format!("economy-s{seed}"),
            EconomyRun::new(config, &trace, Tracer::buffer()),
            64,
            &["Arrival", "Completion"],
        );
    }
    // A task every site rejects is arrival-only, so the floor is below
    // 2 events/task.
    assert!(total > 250, "economy heavy sweep saw only {total} events");
}

/// Telemetry-plane leg of the durability contract: the live-metrics
/// registry wraps the serve hot path (journal append and apply are both
/// timed), so this sweep proves it is observation-only. The same command
/// log run with telemetry enabled and disabled must write byte-identical
/// journal bytes, and every crash point of the instrumented journal must
/// recover to the same snapshot JSON as the uninstrumented one.
#[test]
fn service_journal_is_byte_identical_with_telemetry_on_and_off() {
    use mbts::serve::{CommandKind, MachineConfig, ServiceRun, ShedReason};
    use mbts::sim::Time;
    use mbts::trace::telemetry;
    use mbts::workload::{PenaltyBound, TaskId, TaskSpec};

    let config = MachineConfig {
        provenance: true,
        ..MachineConfig::default()
    };
    let mut kinds: Vec<(f64, CommandKind)> = Vec::new();
    for i in 0..40u64 {
        let at = i as f64 * 0.3;
        let spec = TaskSpec::new(
            0,
            at,
            1.0 + (i % 4) as f64,
            1.5 + (i % 7) as f64,
            0.02 + 0.01 * (i % 3) as f64,
            PenaltyBound::ZERO,
        );
        kinds.push((at, CommandKind::Submit { spec }));
        if i % 9 == 4 {
            kinds.push((
                at,
                CommandKind::Cancel {
                    task: TaskId(i / 3),
                },
            ));
        }
        if i % 13 == 6 {
            let spec = TaskSpec::new(0, at, 2.0, 0.5, 0.4, PenaltyBound::ZERO);
            kinds.push((
                at,
                CommandKind::Shed {
                    spec,
                    queue_depth: 7,
                    reason: ShedReason::LowestValue,
                },
            ));
        }
    }
    kinds.push((15.0, CommandKind::Drain));

    let run_once = |cfg: &MachineConfig| -> (Vec<u8>, Vec<usize>) {
        let mut run = ServiceRun::new(cfg.clone(), Journal::in_memory(), 8).unwrap();
        let mut offsets = Vec::new();
        for (at, kind) in &kinds {
            run.apply(Time::new(*at), kind.clone()).unwrap();
            offsets.push(run.journal().len());
        }
        (run.journal().bytes().to_vec(), offsets)
    };

    telemetry::enable();
    let (with_tel, offsets) = run_once(&config);
    telemetry::disable();
    let (without_tel, _) = run_once(&config);
    // Restore the always-on default before any assertion can bail.
    telemetry::enable();

    assert_eq!(
        with_tel, without_tel,
        "telemetry perturbed the journal bytes"
    );
    let (on, _) = ServiceRun::recover(&with_tel).expect("recover instrumented journal");
    let (off, _) = ServiceRun::recover(&without_tel).expect("recover uninstrumented journal");
    assert_eq!(
        on.snapshot_json(),
        off.snapshot_json(),
        "telemetry perturbed the recovered state"
    );
    // Crash the instrumented journal at every command boundary; each
    // prefix must still recover (telemetry counters never reach disk).
    for (k, offset) in offsets.iter().enumerate() {
        let (recovered, _) = ServiceRun::recover(&with_tel[..*offset])
            .unwrap_or_else(|e| panic!("crash after command {k} failed to recover: {e}"));
        assert_eq!(recovered.applied() as usize, k + 1);
    }
}

/// Service-journal leg: crash an `mbts serve` command log after *every*
/// applied command. Each crash point must recover a machine — state and
/// captured provenance trace both, via the snapshot JSON — bit-identical
/// to a fresh machine fed the same accepted prefix; and feeding the
/// recovered machine the remaining suffix must land on the uncrashed
/// final state. This is the daemon's durability contract: the journal is
/// the single source of truth, and an acknowledged command is never
/// reinterpreted.
#[test]
fn kill_every_command_service_journal_smoke() {
    use mbts::serve::{CommandKind, MachineConfig, ServiceMachine, ServiceRun, ShedReason};
    use mbts::sim::Time;
    use mbts::workload::{PenaltyBound, TaskId, TaskSpec};

    let config = MachineConfig {
        provenance: true,
        ..MachineConfig::default()
    };
    // A command log exercising every verb: submits (varied value/decay so
    // the acceptance heuristic both admits and declines), cancels (hits
    // and misses), overload sheds, and a final drain.
    let mut kinds: Vec<(f64, CommandKind)> = Vec::new();
    for i in 0..60u64 {
        let at = i as f64 * 0.4;
        let spec = TaskSpec::new(
            0,
            at,
            0.8 + (i % 5) as f64,
            2.0 + (i % 9) as f64,
            0.02 + 0.01 * (i % 4) as f64,
            PenaltyBound::ZERO,
        );
        kinds.push((at, CommandKind::Submit { spec }));
        if i % 7 == 3 {
            kinds.push((
                at,
                CommandKind::Cancel {
                    task: TaskId(i / 2),
                },
            ));
        }
        if i % 11 == 5 {
            let spec = TaskSpec::new(0, at, 3.0, 0.5, 0.5, PenaltyBound::ZERO);
            kinds.push((
                at,
                CommandKind::Shed {
                    spec,
                    queue_depth: 9,
                    reason: ShedReason::LowestValue,
                },
            ));
        }
    }
    kinds.push((40.0, CommandKind::Drain));

    // Uncrashed reference run, recording the journal offset after every
    // applied command — each offset is one crash point.
    let mut reference = ServiceRun::new(config.clone(), Journal::in_memory(), 8).unwrap();
    let mut offsets = Vec::new();
    let mut commands = Vec::new();
    for (at, kind) in &kinds {
        let (cmd, _) = reference.apply(Time::new(*at), kind.clone()).unwrap();
        commands.push(cmd);
        offsets.push(reference.journal().len());
    }
    let reference_final = reference.machine().snapshot_json();
    let bytes = reference.journal().bytes().to_vec();

    for (k, offset) in offsets.iter().enumerate() {
        let (recovered, _) = ServiceRun::recover(&bytes[..*offset])
            .unwrap_or_else(|e| panic!("crash after command {k} failed to recover: {e}"));
        assert_eq!(recovered.applied() as usize, k + 1);

        let mut fresh = ServiceMachine::new(config.clone());
        for cmd in &commands[..=k] {
            fresh.apply(cmd);
        }
        assert_eq!(
            recovered.snapshot_json(),
            fresh.snapshot_json(),
            "recovered state diverged from direct replay after command {k}"
        );

        let mut recovered = recovered;
        for cmd in &commands[k + 1..] {
            recovered.apply(cmd);
        }
        assert_eq!(
            recovered.snapshot_json(),
            reference_final,
            "finishing from crash point {k} missed the uncrashed outcome"
        );
    }
}
