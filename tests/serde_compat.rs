//! The persisted formats: what is written, and the one rule for reading
//! it.
//!
//! Every document a run persists is pinned byte for byte under
//! `tests/golden/serde/`: the service commands and snapshots, a site's,
//! a site run's and an economy's snapshots, a whole journal of each kind
//! (a faulted site run, an economy, the service), and the reports
//! `mbts analyze` writes. Each is
//! rebuilt here from a deterministic run and checked three ways: typed
//! value → text, fixture → typed value → text, and fixture →
//! `serde::Value` → text. The files were first written by the value-tree
//! serde of commit 6d404e4, which the streaming serde replaced without
//! changing a byte.
//!
//! The version policy. A snapshot reaches a reader only inside a journal,
//! and a journal's header names its kind of run and the one format
//! version (`mbts::durable::framing::VERSION`). A reader reads exactly
//! the current version of the kind it expects; any other version or kind
//! is one typed error, before a snapshot is parsed. So a change to
//! anything a journal holds bumps the version, regenerates the current
//! fixtures:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test serde_compat
//! ```
//!
//! (never to paper over a writer difference), and keeps the journals it
//! replaced under `tests/golden/serde/pre<PR>/`, where
//! `cli_errors::journals_of_an_older_format_are_refused` holds them to
//! the typed refusal. No reader keeps a path for an older payload.
//!
//! Fixtures are written and read under one lock, and a test that reads
//! back a fixture another test writes runs that writer first under
//! `UPDATE_GOLDEN`, so one run at any thread count regenerates them all.
//!
//! Within a version the reader is lenient in the ways
//! `reader_leniency_rule_by_rule` lists (unknown keys skipped, among
//! them), and a document whose parts do not fit together is refused by
//! its restore: a settlement its task does not give, an economy site
//! holding per-job records. An open contract's runner-up quote is written
//! as `null` where no other site bid; one test restores a snapshot whose
//! open contracts have such quotes and settles them at the reserve. Two
//! `mbts analyze` reports written by the multi-pass analyzer pin the
//! one-pass trace fold that replaced it; they change only when a report
//! loses or gains a row.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mbts::core::{AdmissionPolicy, Policy};
use mbts::durable::framing::{self, RecordTag};
use mbts::durable::{DurableRun, Journal, Kind, RecoverError};
use mbts::market::{
    BudgetConfig, Contract, ContractStatus, EconomyConfig, EconomyRun, EconomySnapshot,
    PricingStrategy, RebindError,
};
use mbts::serve::{
    Command, CommandKind, MachineConfig, ServiceMachine, ServiceRun, ServiceSnapshot, ShedReason,
};
use mbts::sim::{Time, UpDown};
use mbts::site::{FaultPlan, SiteConfig, SiteRun, SiteRunSnapshot, SiteSnapshot};
use mbts::trace::analyze::analyze;
use mbts::trace::{AnalyzeOptions, TraceReport, Tracer};
use mbts::workload::{
    fig67_mix, generate_trace, generate_workflows, PenaltyBound, TaskId, TaskSpec, Trace,
    WorkflowConfig, WorkflowShape,
};
use serde::{Deserialize, Serialize, Value};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("serde")
}

/// `true` when the run regenerates the fixtures instead of checking them.
fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// Held by every fixture write and read, so no test thread reads a file
/// another is rewriting.
static FIXTURES: Mutex<()> = Mutex::new(());

fn fixtures_locked() -> MutexGuard<'static, ()> {
    FIXTURES.lock().unwrap_or_else(PoisonError::into_inner)
}

fn write_fixture(name: &str, bytes: &[u8]) {
    let _guard = fixtures_locked();
    std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
    std::fs::write(fixture_dir().join(name), bytes).expect("write fixture");
}

/// The fixtures that tests other than their writer read, each with the
/// test that writes it.
const READ_BACK: [(&str, fn()); 3] = [
    ("economy_snapshot.json", economy_snapshot),
    ("site_run_snapshot_faulted.json", site_snapshots),
    ("site_run_snapshot_workflows.json", site_snapshots),
];

/// Fixture `name`. Under `UPDATE_GOLDEN` its writer runs first, so the
/// reader sees the regenerated file whichever test reaches it first.
fn read_fixture(name: &str) -> Vec<u8> {
    if updating() {
        if let Some((_, write)) = READ_BACK.iter().find(|(file, _)| *file == name) {
            write();
        }
    }
    let _guard = fixtures_locked();
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn fixture_text(name: &str) -> String {
    String::from_utf8(read_fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn render<T: Serialize>(value: &T, pretty: bool) -> String {
    if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    }
    .expect("serialises")
}

/// Checks one document against its fixture; a name ending `.pretty.json`
/// uses the 2-space pretty writer.
fn check<T: Serialize + Deserialize>(name: &str, built: &T) {
    check_written::<T>(name, built);
}

/// [`check`] of a document a borrowed writer wrote, read back as `T`: a
/// snapshot is written from the live state and read as the owned type.
fn check_written<T: Serialize + Deserialize>(name: &str, built: &impl Serialize) {
    let pretty = name.ends_with(".pretty.json");
    let actual = render(built, pretty);
    if updating() {
        write_fixture(name, actual.as_bytes());
        return;
    }
    let fixture = fixture_text(name);
    assert!(actual == fixture, "{name}: typed value → text diverged");
    let typed: T = serde_json::from_str(&fixture).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        render(&typed, pretty) == fixture,
        "{name}: text → typed → text diverged"
    );
    let dynamic: Value = serde_json::from_str(&fixture).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        render(&dynamic, pretty) == fixture,
        "{name}: text → Value → text diverged"
    );
}

fn spec(id: u64, at: f64, runtime: f64, value: f64) -> TaskSpec {
    TaskSpec::new(id, at, runtime, value, 0.2, PenaltyBound::ZERO)
}

/// One command of each kind, densely sequenced so a machine applies them.
fn commands() -> Vec<(&'static str, Command)> {
    let kinds = vec![
        (
            "command_submit.json",
            0.0,
            CommandKind::Submit {
                spec: spec(0, 0.0, 6.0, 8.0),
            },
        ),
        (
            "command_submit_queued.json",
            0.5,
            CommandKind::Submit {
                spec: TaskSpec::new(
                    1,
                    0.5,
                    3.0,
                    5.5,
                    0.125,
                    PenaltyBound::Bounded { max_penalty: 2.5 },
                ),
            },
        ),
        (
            "command_shed.json",
            0.75,
            CommandKind::Shed {
                spec: spec(2, 0.75, 1.0, 0.25),
                queue_depth: 5,
                reason: ShedReason::LowestValue,
            },
        ),
        (
            "command_cancel.json",
            1.0,
            CommandKind::Cancel { task: TaskId(1) },
        ),
        ("command_drain.json", 1e21, CommandKind::Drain),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(seq, (name, at, kind))| {
            (
                name,
                Command {
                    seq: seq as u64,
                    at: Time::new(at),
                    kind,
                },
            )
        })
        .collect()
}

#[test]
fn commands_and_service_snapshot() {
    let mut machine = ServiceMachine::new(MachineConfig {
        site: SiteConfig::new(1),
        provenance: true,
        status_capacity: 3,
    });
    for (name, cmd) in commands() {
        check(name, &cmd);
        if cmd.kind == CommandKind::Drain {
            // Snapshot with work still queued, then once more drained.
            check_written::<ServiceSnapshot>("service_snapshot.json", &machine.snapshot());
        }
        machine.apply(&cmd);
    }
    check_written::<ServiceSnapshot>("service_snapshot_drained.json", &machine.snapshot());
}

/// A whole service journal (header, framing, CRCs, genesis and cadence
/// snapshots, every command kind) is the same bytes under both serdes, so
/// each recovers what the other wrote.
#[test]
fn service_journal_bytes() {
    let config = MachineConfig {
        site: SiteConfig::new(1),
        provenance: true,
        status_capacity: 3,
    };
    let mut run = ServiceRun::new(config, Journal::in_memory(), 2).expect("in-memory journal");
    for (_, cmd) in commands() {
        run.apply(cmd.at, cmd.kind).expect("in-memory append");
    }
    let live = run.machine().snapshot_json();
    let actual = run.journal().bytes().to_vec();
    if updating() {
        write_fixture("service_journal.mbtsj", &actual);
        return;
    }
    let fixture = read_fixture("service_journal.mbtsj");
    assert!(actual == fixture, "journal bytes diverged");
    let (recovered, recovery) = ServiceRun::recover(&fixture).expect("fixture recovers");
    assert_eq!(recovery.replayed, 1);
    assert_eq!(recovered.snapshot_json(), live);
}

fn smoke_faults() -> UpDown {
    UpDown::exponential(600.0, 80.0)
}

fn step_n(mut step: impl FnMut() -> bool, n: usize) {
    for _ in 0..n {
        assert!(step(), "the run ended before its snapshot point");
    }
}

#[test]
fn site_snapshots() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 17);
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 });
    let plan = FaultPlan::new(smoke_faults(), 5);

    // A faulted, preempting site mid-run with the provenance stream in
    // its tracer cursor.
    let mut run = SiteRun::with_faults(
        config.clone(),
        &trace,
        &plan,
        Tracer::buffer().with_provenance(),
    );
    step_n(|| run.step(), 40);
    check_written::<SiteSnapshot>("site_snapshot.json", &run.state().snapshot());

    // The same run as a whole snapshot, untraced: the fault injector's
    // streams and the open crashes and repairs ride along.
    let mut run = SiteRun::with_faults(config, &trace, &plan, Tracer::Off);
    step_n(|| run.step(), 40);
    check_written::<SiteRunSnapshot>("site_run_snapshot_faulted.json", &run.snapshot());

    // A workflow replay: the overlay rides in the snapshot behind
    // `skip_serializing_if`, and its facets are a `BTreeMap<u64, _>`.
    let set = generate_workflows(
        &WorkflowConfig::default_set()
            .with_workflows(4)
            .with_shape(WorkflowShape::RandomLayered {
                layers: 3,
                width: 2,
                edge_prob: 0.5,
            })
            .with_processors(2)
            .with_load_factor(2.0),
        19,
    );
    let config = SiteConfig::new(2)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
        .with_workflow_facets(set.facets());
    let mut run = SiteRun::with_workflows(config, &set, Tracer::buffer());
    step_n(|| run.step(), 20);
    check_written::<SiteRunSnapshot>("site_run_snapshot_workflows.json", &run.snapshot());
}

/// A whole journaled site run whose processors crash and repair, so its
/// events include `Crash` and `Repair` records: the fixture is the same
/// bytes, and recovers, from bytes and streamed from its file, to the run
/// that wrote it.
#[test]
fn site_journal_bytes() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 17);
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 });
    let run = SiteRun::with_faults(
        config,
        &trace,
        &FaultPlan::new(smoke_faults(), 5),
        Tracer::Off,
    );
    let mut durable = DurableRun::new(run, Journal::in_memory(), 40).expect("in-memory journal");
    durable.run_to_completion().expect("in-memory append");
    let live = serde_json::to_string(&durable.run().snapshot()).expect("serialises");
    let actual = durable.journal().bytes().to_vec();
    for record in ["{\"Crash\"", "{\"Repair\""] {
        assert!(
            actual.windows(record.len()).any(|w| w == record.as_bytes()),
            "no {record} record in the journal"
        );
    }
    if updating() {
        write_fixture("site_journal.mbtsj", &actual);
        return;
    }
    let fixture = read_fixture("site_journal.mbtsj");
    assert!(actual == fixture, "journal bytes diverged");
    let image = mbts::durable::load(fixture_dir().join("site_journal.mbtsj")).expect("fixture");
    for (recovered, _) in [
        DurableRun::<SiteRun>::recover(&fixture).expect("fixture recovers"),
        DurableRun::<SiteRun>::recover(&image).expect("fixture streams"),
    ] {
        let text = serde_json::to_string(&recovered.snapshot()).expect("serialises");
        assert!(text == live, "the recovered run is not the one that wrote");
    }
}

#[test]
fn economy_snapshot() {
    let trace = generate_trace(&fig67_mix(1.5).with_tasks(24).with_processors(8), 31);
    let mut config = EconomyConfig::uniform(
        2,
        SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    config.budgets = Some(BudgetConfig {
        num_clients: 3,
        initial: 200.0,
        replenish_rate: 0.05,
        cap: 600.0,
    });
    let mut run = EconomyRun::new(config, &trace, Tracer::buffer().with_provenance());
    step_n(|| run.step(), 40);
    check_written::<EconomySnapshot>("economy_snapshot.json", &run.snapshot());
}

/// A whole journaled economy run in which contracts are settled on time
/// and late, priced second.
fn economy_journal() -> DurableRun<EconomyRun> {
    let trace = generate_trace(&fig67_mix(2.5).with_tasks(40).with_processors(4), 23);
    let mut config = EconomyConfig::uniform(
        2,
        SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
    );
    config.pricing = PricingStrategy::second_price();
    let run = EconomyRun::new(config, &trace, Tracer::Off);
    let mut durable = DurableRun::new(run, Journal::in_memory(), 60).expect("in-memory journal");
    durable.run_to_completion().expect("in-memory append");
    durable
}

/// The journal of [`economy_journal`] is the same bytes as the fixture,
/// and the fixture recovers to the run that wrote it, from bytes and
/// streamed from its file.
#[test]
fn economy_journal_bytes() {
    let durable = economy_journal();
    let live = serde_json::to_string(&durable.run().snapshot()).expect("serialises");
    let actual = durable.journal().bytes().to_vec();
    let (run, _) = durable.into_parts();
    let (outcome, _) = run.finish();
    assert!(
        outcome.violations() > 0 && outcome.violations() < outcome.contracts.len(),
        "no contract settled on time, or none late"
    );
    assert!(
        outcome.total_paid < outcome.total_settled,
        "no contract was priced below its settlement"
    );
    if updating() {
        write_fixture("economy_journal.mbtsj", &actual);
        return;
    }
    let fixture = read_fixture("economy_journal.mbtsj");
    assert!(actual == fixture, "journal bytes diverged");
    let image = mbts::durable::load(fixture_dir().join("economy_journal.mbtsj")).expect("fixture");
    for (recovered, _) in [
        DurableRun::<EconomyRun>::recover(&fixture).expect("fixture recovers"),
        DurableRun::<EconomyRun>::recover(&image).expect("fixture streams"),
    ] {
        let text = serde_json::to_string(&recovered.snapshot()).expect("serialises");
        assert!(text == live, "the recovered run is not the one that wrote");
    }
}

/// A run keeps its contracts as rows over its trace, and a snapshot read
/// back owns the tasks its contracts carry until the run is restored: the
/// restored run, whose contracts include budget-capped ones, writes the
/// fixture back byte for byte.
#[test]
fn a_restored_economy_writes_its_snapshot_back() {
    let fixture = fixture_text("economy_snapshot.json");
    let snap: EconomySnapshot = serde_json::from_str(&fixture).expect("the fixture reads");
    let capped = snap
        .contracts
        .iter()
        .filter(|c| c.spec != snap.trace[c.spec.id.index()])
        .count();
    assert!(capped > 0, "no contract's value was capped by a budget");
    let run = EconomyRun::from_snapshot(snap).expect("the fixture restores");
    assert!(render(&run.snapshot(), false) == fixture);
}

/// A settled contract is stored as its completion and re-priced by its
/// task's value function when read, so a snapshot whose settled price or
/// violation is not that function's at its completion was not written by
/// a market run: restoring it is a typed refusal naming the contract, and
/// so is recovering a journal whose newest snapshot holds it.
#[test]
fn a_settlement_its_task_does_not_give_is_refused() {
    let fixture = fixture_text("economy_snapshot.json");
    let spoil: [fn(&mut ContractStatus); 2] = [
        |s| {
            if let ContractStatus::Settled { settled_price, .. } = s {
                *settled_price += 1.0;
            }
        },
        |s| {
            if let ContractStatus::Settled { violated, .. } = s {
                *violated = !*violated;
            }
        },
    ];
    for edit in spoil {
        let mut snap: EconomySnapshot = serde_json::from_str(&fixture).expect("the fixture reads");
        let mut contracts: Vec<Contract> = snap.contracts.iter().collect();
        let i = contracts
            .iter()
            .position(Contract::is_settled)
            .expect("a settled contract");
        edit(&mut contracts[i].status);
        let text = serde_json::to_string(&contracts).expect("serialises");
        snap.contracts = serde_json::from_str(&text).expect("a spoiled ledger still reads");
        let snap_text = render(&snap, false);
        let refusal = RebindError::Settlement {
            contract: i,
            task: contracts[i].spec.id.0,
        }
        .to_string();
        match EconomyRun::from_snapshot(snap) {
            Err(e) => assert_eq!(e, refusal),
            Ok(_) => panic!("a settlement no run gave was restored"),
        }
        let mut journal = Vec::new();
        framing::write_header(&mut journal, Kind::Economy);
        framing::append_record(&mut journal, RecordTag::Snapshot, snap_text.as_bytes());
        match DurableRun::<EconomyRun>::recover(&journal) {
            Err(RecoverError::BadSnapshot(e)) => assert_eq!(e, refusal),
            Err(e) => panic!("refused as {e}, not as a bad snapshot"),
            Ok(_) => panic!("a settlement no run gave was recovered"),
        }
    }
}

/// A contract that no other site bid on has no runner-up quote: the
/// snapshot writes it as `null`, and the run restored from that text
/// settles it at the reserve fraction, bit for bit as the run that never
/// stopped.
#[test]
fn a_null_runner_up_quote_restores_and_settles_at_the_reserve() {
    let trace = generate_trace(&fig67_mix(1.5).with_tasks(40).with_processors(4), 5);
    let site = SiteConfig::new(4)
        .with_policy(Policy::FirstPrice)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 });
    // One site: no contract has a runner-up.
    let mut config = EconomyConfig::uniform(1, site);
    config.pricing = PricingStrategy::SecondPrice {
        reserve_fraction: 0.5,
    };
    let finished = |mut run: EconomyRun| {
        while run.step() {}
        let text = render(&run.snapshot(), false);
        (run.finish().0, text)
    };
    let (whole, whole_text) = finished(EconomyRun::new(config.clone(), &trace, Tracer::Off));

    let mut run = EconomyRun::new(config, &trace, Tracer::Off);
    step_n(|| run.step(), 40);
    let snap: EconomySnapshot =
        serde_json::from_str(&render(&run.snapshot(), false)).expect("the snapshot reads");
    assert!(
        snap.open.iter().any(|&(_, _, quote)| quote.is_none()),
        "no open contract without a runner-up at the cut"
    );
    let (resumed, resumed_text) =
        finished(EconomyRun::from_snapshot(snap).expect("the snapshot restores"));
    assert!(resumed_text == whole_text, "the resumed run diverged");
    assert_eq!(resumed.total_paid.to_bits(), whole.total_paid.to_bits());

    let at_reserve: f64 = whole
        .contracts
        .iter()
        .filter_map(|c| c.settled_price())
        .map(|s| if s > 0.0 { s * 0.5 } else { s })
        .sum();
    assert!(whole.total_paid > 0.0 && whole.total_paid < whole.total_settled);
    assert!(
        (whole.total_paid - at_reserve).abs() <= 1e-9 * whole.total_settled.abs(),
        "paid {} where the reserve gives {at_reserve}",
        whole.total_paid
    );
}

#[test]
fn pretty_printed_report() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 17);
    let config = SiteConfig::new(4)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 });
    let (_, tracer) = SiteRun::new(config, &trace, Tracer::buffer().with_provenance()).finish();
    let events = tracer.into_events().expect("buffer tracer keeps events");
    let report: TraceReport = analyze("golden", &events, &AnalyzeOptions::default());
    check("trace_report.pretty.json", &report);
}

/// Reads the task array at `path` in `doc` as the `Vec<TaskSpec>` it was
/// before tasks became a shared slice, and checks that `shared` writes the
/// same text.
fn same_text_as_a_vec(name: &str, shared: &Arc<[TaskSpec]>, doc: &Value, path: &[&str]) {
    let array = path.iter().fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("{name}: no `{key}` in {path:?}"))
    });
    let tasks: Vec<TaskSpec> =
        serde_json::from_str(&render(array, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(!tasks.is_empty(), "{name}: {path:?} holds no tasks");
    assert!(
        render(shared, false) == render(&tasks, false),
        "{name}: {path:?} as a shared slice is not the text of its `Vec`"
    );
}

/// Reads a fixture as `T` and checks that it writes the fixture back.
fn round_trip<T: Serialize + Deserialize>(name: &str) -> (T, Value) {
    let fixture = fixture_text(name);
    let typed: T = serde_json::from_str(&fixture).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        render(&typed, false) == fixture,
        "{name}: text → typed → text diverged"
    );
    (typed, serde_json::from_str(&fixture).expect("a document"))
}

/// A trace's tasks, and the tasks a run snapshot or a workflow set
/// carries, are one shared slice, no longer a `Vec` each: a trace file and
/// every snapshot fixture that carries tasks still round-trip byte for
/// byte, and each task array is exactly the text its `Vec` wrote.
#[test]
fn shared_task_slices_write_what_their_vecs_wrote() {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(24).with_processors(4), 17);
    let file = trace.to_json();
    let back = Trace::from_json(&file).expect("the trace file reads");
    assert!(back.to_json() == file, "trace file → Trace → text diverged");
    let doc: Value = serde_json::from_str(&file).expect("a document");
    same_text_as_a_vec("trace file", &back.tasks, &doc, &["tasks"]);

    for name in [
        "site_run_snapshot_faulted.json",
        "site_run_snapshot_workflows.json",
    ] {
        let (snap, doc) = round_trip::<SiteRunSnapshot>(name);
        same_text_as_a_vec(name, &snap.trace, &doc, &["trace"]);
        if let Some(workflows) = &snap.workflows {
            same_text_as_a_vec(
                name,
                &workflows.set().tasks,
                &doc,
                &["workflows", "set", "tasks"],
            );
        }
    }
    let (snap, doc) = round_trip::<EconomySnapshot>("economy_snapshot.json");
    same_text_as_a_vec("economy_snapshot.json", &snap.trace, &doc, &["trace"]);
}

/// A site inside an economy keeps no per-job records, so a snapshot whose
/// site holds one was not written by a market run: today's snapshot with a
/// record spliced into a site's `outcomes` is refused, naming the site.
#[test]
fn economy_snapshots_with_site_records_are_refused() {
    let fixture = fixture_text("economy_snapshot.json");
    let row = r#""outcomes":[{"id":0,"disposition":"Completed","finished_at":9.5,"earned":22.25,"delay":0.0,"preemptions":0}"#;
    assert!(
        fixture.contains("\"outcomes\":[]"),
        "no site without records"
    );
    let old = fixture.replacen("\"outcomes\":[", row, 1);
    let snap: EconomySnapshot = serde_json::from_str(&old).expect("the spliced snapshot reads");
    assert_eq!(
        snap.sites[0].outcomes.len(),
        1,
        "the record was not spliced in"
    );
    match EconomyRun::from_snapshot(snap) {
        Err(e) => assert_eq!(
            e,
            "site 0 holds 1 per-job records, which a site inside an economy never keeps"
        ),
        Ok(_) => panic!("a site's records were restored"),
    }
}

/// The part of an `mbts analyze --format json` entry a trace fills.
#[derive(Deserialize)]
struct AnalyzeEntry {
    trace: TraceReport,
}

/// Runs the `mbts` binary in `dir` and returns its stdout.
fn mbts_in(dir: &std::path::Path, args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mbts"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn mbts");
    assert!(out.status.success(), "mbts {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `mbts analyze --format json` of a workflow trace (stranding chains,
/// per-workflow regret) and of a chaos run's trace (fault classes), as
/// written by the four-pass analyzer the one-pass fold replaced: the
/// streaming command reproduces both byte for byte, and so does the
/// in-memory `analyze` over the same events. These fixtures pin the fold
/// against the build before it, so `UPDATE_GOLDEN` leaves them alone.
#[test]
fn the_trace_fold_reproduces_the_multi_pass_reports() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let temp = std::env::temp_dir().join(format!("mbts_serde_compat_{}", std::process::id()));
    std::fs::create_dir_all(&temp).expect("temp dir");
    let scenario = root.join("tests/chaos/02-site-fsync-eio.json");
    mbts_in(
        &temp,
        &[
            "chaos",
            scenario.to_str().expect("utf-8 path"),
            "--trace-out",
            "chaos.jsonl",
        ],
    );
    for (dir, input, fixture) in [
        (
            &root,
            "tests/golden/provenance_wf_forkjoin_first_reward_101.jsonl",
            "analyze_wf_forkjoin_first_reward_101.json",
        ),
        (&temp, "chaos.jsonl", "analyze_chaos_site_fsync_eio.json"),
    ] {
        let expected = fixture_text(fixture);
        let streamed = mbts_in(dir, &["analyze", input, "--format", "json"]);
        assert!(
            streamed == expected,
            "{fixture}: the streamed report diverged"
        );
        let entries: Vec<AnalyzeEntry> = serde_json::from_str(&expected).expect("a report");
        let text = std::fs::read_to_string(dir.join(input)).expect("trace");
        let events = mbts::trace::from_jsonl(&text).expect("trace parses");
        let report = analyze(input, &events, &AnalyzeOptions::default());
        assert!(
            report == entries[0].trace,
            "{fixture}: the in-memory report diverged"
        );
    }
    std::fs::remove_dir_all(&temp).ok();
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Wrapped {
    inner: i64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(f64),
    Rect(f32, f32),
    Label {
        text: String,
        at: Option<(i32, i32)>,
    },
}

fn forty_two() -> u32 {
    42
}

/// Every scalar and shape whose text form has a rule of its own.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct EdgeValues {
    neg_zero: f64,
    big: f64,
    tiny: f64,
    integral: f64,
    single: f32,
    max: u64,
    min: i64,
    nan: Option<f64>,
    infinite: Option<f64>,
    text: String,
    ch: char,
    by_id: BTreeMap<u64, Vec<(u32, bool)>>,
    by_name: BTreeMap<String, Option<Marker>>,
    marker: Marker,
    pair: Pair,
    wrapped: Wrapped,
    boxed: Box<Shape>,
    shapes: Vec<Shape>,
    empties: (Vec<u8>, BTreeMap<String, u8>),
    #[serde(default, skip_serializing_if = "Option::is_none")]
    absent: Option<u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    present: Option<u32>,
    #[serde(default = "forty_two")]
    defaulted: u32,
}

fn edge_values() -> EdgeValues {
    EdgeValues {
        neg_zero: -0.0,
        big: 1e21,
        tiny: 5e-324,
        integral: 3.0,
        single: 0.1,
        max: u64::MAX,
        min: i64::MIN,
        nan: Some(f64::NAN),
        infinite: Some(f64::NEG_INFINITY),
        text: "quote\" slash\\ / nl\n cr\r tab\t bell\u{7} nul\u{0} esc\u{1b} del\u{7f} é 😀"
            .to_string(),
        ch: '\u{1f}',
        by_id: BTreeMap::from([
            (0, vec![]),
            (7, vec![(1, true), (2, false)]),
            (u64::MAX, vec![(3, true)]),
        ]),
        by_name: BTreeMap::from([
            ("a\"b".to_string(), Some(Marker)),
            ("none".to_string(), None),
        ]),
        marker: Marker,
        pair: Pair(255, "p".to_string()),
        wrapped: Wrapped { inner: -9 },
        boxed: Box::new(Shape::Circle(0.5)),
        shapes: vec![
            Shape::Dot,
            Shape::Circle(2.0),
            Shape::Rect(1.5, -2.25),
            Shape::Label {
                text: String::new(),
                at: Some((-1, 1)),
            },
            Shape::Label {
                text: "x".to_string(),
                at: None,
            },
        ],
        empties: (Vec::new(), BTreeMap::new()),
        absent: None,
        present: Some(1),
        defaulted: 7,
    }
}

#[test]
fn edge_values_compact_and_pretty() {
    check("edge_values.json", &edge_values());
    check("edge_values.pretty.json", &edge_values());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Probe {
    id: u8,
    rate: f64,
    #[serde(default)]
    note: Option<String>,
    #[serde(default = "forty_two")]
    limit: u32,
    shape: Shape,
}

/// What the value-tree reader accepted and refused, the streaming reader
/// accepts and refuses, with the same words.
#[test]
fn reader_leniency_rule_by_rule() {
    let probe = |id, rate, note: Option<&str>, limit, shape| {
        Ok(Probe {
            id,
            rate,
            note: note.map(str::to_string),
            limit,
            shape,
        })
    };
    let rows: Vec<(&str, &str, Result<Probe, &str>)> = vec![
        (
            "the writer's own text",
            r#"{"id":1,"rate":0.5,"note":"n","limit":9,"shape":"Dot"}"#,
            probe(1, 0.5, Some("n"), 9, Shape::Dot),
        ),
        (
            "keys in any order, whitespace anywhere",
            " {\n\t\"shape\" : \"Dot\" , \"limit\":9,\r\n \"rate\":0.5,\"id\":1 } ",
            probe(1, 0.5, None, 9, Shape::Dot),
        ),
        (
            "unknown keys are skipped, whatever they hold",
            r#"{"x":{"deep":[1,{"y":null}],"s":"\u0041\n"},"id":1,"rate":0.5,"shape":"Dot","z":[]}"#,
            probe(1, 0.5, None, 42, Shape::Dot),
        ),
        (
            "the first of a repeated key wins; the rest are not type-checked",
            r#"{"id":1,"id":"two","rate":0.5,"rate":9.5,"shape":"Dot","shape":7}"#,
            probe(1, 0.5, None, 42, Shape::Dot),
        ),
        (
            "an integer where a float belongs",
            r#"{"id":1,"rate":3,"shape":{"Circle":-2}}"#,
            probe(1, 3.0, None, 42, Shape::Circle(-2.0)),
        ),
        (
            "an integral float where an integer belongs",
            r#"{"id":1.0,"rate":0.5,"limit":2e2,"shape":{"Label":{"text":"","at":[1.0,-0.0]}}}"#,
            probe(
                1,
                0.5,
                None,
                200,
                Shape::Label {
                    text: String::new(),
                    at: Some((1, 0)),
                },
            ),
        ),
        (
            "null for an optional field; defaults for absent ones",
            r#"{"id":1,"rate":0.5,"note":null,"shape":{"Rect":[1,2]}}"#,
            probe(1, 0.5, None, 42, Shape::Rect(1.0, 2.0)),
        ),
        (
            "a tuple variant ignores elements past its arity",
            r#"{"id":1,"rate":0.5,"shape":{"Rect":[1,2,"extra",[3]]}}"#,
            probe(1, 0.5, None, 42, Shape::Rect(1.0, 2.0)),
        ),
        (
            "a missing field",
            r#"{"id":1,"shape":"Dot"}"#,
            Err("missing field `rate` while deserializing Probe"),
        ),
        (
            "a missing field of a struct variant",
            r#"{"id":1,"rate":0.5,"shape":{"Label":{"text":"t"}}}"#,
            Err("missing field `at` while deserializing Shape::Label"),
        ),
        (
            "an integer out of range",
            r#"{"id":256,"rate":0.5,"shape":"Dot"}"#,
            Err("integer 256 out of range for u8"),
        ),
        (
            "a negative integer for an unsigned field",
            r#"{"id":-1,"rate":0.5,"shape":"Dot"}"#,
            Err("integer -1 out of range for u8"),
        ),
        (
            "a fractional float where an integer belongs",
            r#"{"id":1.5,"rate":0.5,"shape":"Dot"}"#,
            Err("expected integer, found float"),
        ),
        (
            "an unknown unit variant",
            r#"{"id":1,"rate":0.5,"shape":"Blob"}"#,
            Err("unknown Shape variant `Blob`"),
        ),
        (
            "an unknown tagged variant",
            r#"{"id":1,"rate":0.5,"shape":{"Blob":1}}"#,
            Err("unknown Shape variant `Blob`"),
        ),
        (
            "a payload variant named by a bare string",
            r#"{"id":1,"rate":0.5,"shape":"Circle"}"#,
            Err("unknown Shape variant `Circle`"),
        ),
        (
            "a variant object with two tags",
            r#"{"id":1,"rate":0.5,"shape":{"Circle":1,"Dot":null}}"#,
            Err("expected Shape variant, found object"),
        ),
        (
            "a variant of the wrong JSON type",
            r#"{"id":1,"rate":0.5,"shape":[1]}"#,
            Err("expected Shape variant, found array"),
        ),
        (
            "a struct of the wrong JSON type",
            r#"[1,0.5,"Dot"]"#,
            Err("expected object for Probe, found array"),
        ),
        (
            "a tuple variant shorter than its arity",
            r#"{"id":1,"rate":0.5,"shape":{"Rect":[1]}}"#,
            Err("array too short for Shape::Rect"),
        ),
        (
            "a number where a string belongs",
            r#"{"id":1,"rate":0.5,"note":7,"shape":"Dot"}"#,
            Err("expected string, found integer"),
        ),
        (
            "trailing text",
            r#"{"id":1,"rate":0.5,"shape":"Dot"} x"#,
            Err("trailing characters at byte 34"),
        ),
    ];
    for (rule, input, want) in rows {
        let got = serde_json::from_str::<Probe>(input).map_err(|e| e.to_string());
        assert_eq!(got, want.map_err(str::to_string), "{rule}: {input}");
    }
    // A variant the type does not have: a schedule mode no site builds.
    let site = render(&SiteConfig::new(2), false);
    let unknown = site.replace(
        "\"schedule_mode\":\"Static\"",
        "\"schedule_mode\":\"Rebuild\"",
    );
    assert_ne!(site, unknown, "no schedule_mode in {site}");
    assert_eq!(
        serde_json::from_str::<SiteConfig>(&unknown).map_err(|e| e.to_string()),
        Err("unknown ScheduleMode variant `Rebuild`".to_string())
    );
    // Unit and newtype structs.
    assert_eq!(
        serde_json::from_str::<Marker>("{\"any\":[1]}").unwrap(),
        Marker
    );
    assert_eq!(
        serde_json::from_str::<Pair>("[7,\"s\",null]").unwrap(),
        Pair(7, "s".to_string())
    );
    assert_eq!(
        serde_json::from_str::<Wrapped>("-4.0").unwrap(),
        Wrapped { inner: -4 }
    );
}
