//! The `mbts chaos` scenario orchestrator.
//!
//! Runs JSON fault-injection scenarios (the `tests/chaos/` corpus)
//! against journaled site runs, journaled economy runs, and scripted
//! service runs, crashing and recovering the workload every time an
//! injected disk fault surfaces — and asserting, after every fault, the
//! invariants the rest of the test suite promises:
//!
//! * **Recovery bit-identity** — the faulted run's final state is
//!   byte-for-byte the uninjected reference's (determinism re-derives
//!   the future from whatever intact prefix the disk held).
//! * **Acked-prefix durability** (service scenarios) — every command
//!   whose journal append was acknowledged survives recovery, with its
//!   `/status` entry intact; a failed fsync may leave one command in
//!   ack limbo, and recovery must resolve it exactly once.
//! * **Conservation auditors clean** — no invariant-auditor violation
//!   anywhere in the faulted run.
//! * **No panics, no hangs** — every fault degrades to a typed error or
//!   a crash-recovery cycle.
//!
//! Determinism contract: a scenario's outcome — report, fault log, and
//! chaos trace events — is a pure function of `(seed, schedule)`. The
//! CLI runs every scenario twice and fails on any byte-level divergence
//! between the two runs, dumping both sides under [`DUMP_DIR`].
//!
//! Crash model: disk faults are fail-stop. When an append fails the
//! orchestrator abandons the process state, re-reads exactly what the
//! in-memory disk image holds (optionally flipping one seeded bit via
//! the `durable.read` failpoint), recovers, and re-journals onto a
//! fresh disk generation — the in-process equivalent of log rotation at
//! restart.

use mbts_chaos::{ChaosRegistry, Scenario, ScenarioTarget};
use mbts_durable::framing::{write_header, HEADER_LEN};
use mbts_durable::{corrupt_image, ChaosSink, DurableRun, Journal, Recoverable, SharedImage};
use mbts_market::{EconomyConfig, EconomyOutcome, EconomyRun};
use mbts_serve::{
    ApplyOutcome, Command as ServeCommand, CommandKind, MachineConfig, ServiceMachine, ServiceRun,
    ShedReason,
};
use mbts_sim::Time;
use mbts_site::{SiteConfig, SiteRun};
use mbts_trace::{to_jsonl, TraceEvent, TraceKind, Tracer};
use mbts_workload::{generate_trace, MixConfig, PenaltyBound, TaskId, TaskSpec, Trace};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where divergence dumps land when an invariant or the determinism
/// contract fails (CI uploads this directory on failure).
pub const DUMP_DIR: &str = "target/chaos";

/// Crash-recovery cycles a single scenario may consume before the
/// orchestrator declares the schedule unable to make progress.
const MAX_CRASHES: u64 = 64;

/// Per-scenario outcome, serialized into the corpus report.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name from the JSON.
    pub name: String,
    /// Target class: `site`, `market`, or `serve`.
    pub class: String,
    /// Seed actually used (after any CLI override).
    pub seed: u64,
    /// Total faults fired across every failpoint instance.
    pub injected: u64,
    /// Fires per failpoint instance.
    pub by_point: BTreeMap<String, u64>,
    /// Crash-recovery cycles the injected faults forced.
    pub crashes: u64,
    /// Journal events replayed across all recoveries.
    pub replayed: u64,
    /// Invariants that held (each would have failed the scenario).
    pub checks: Vec<String>,
}

/// The full `mbts chaos` run: every scenario, run twice, all clean.
#[derive(Debug, Clone, Serialize)]
pub struct CorpusReport {
    /// Per-scenario outcomes, in corpus order.
    pub scenarios: Vec<ScenarioReport>,
    /// Faults fired across the corpus.
    pub total_injected: u64,
    /// Crash-recovery cycles across the corpus.
    pub total_crashes: u64,
    /// Always true on success: both runs of every scenario were
    /// byte-identical (report and chaos trace events).
    pub deterministic: bool,
}

fn budget(crashes: u64, name: &str) -> Result<(), String> {
    if crashes > MAX_CRASHES {
        return Err(format!(
            "scenario '{name}': exceeded the {MAX_CRASHES}-crash recovery budget; \
             gate the fault with `every`/`max_fires` so the run can make progress"
        ));
    }
    Ok(())
}

/// Converts everything fired since the last drain into `ChaosInjected`
/// trace events stamped at `at`.
fn drain_injected(registry: &ChaosRegistry, at: Time, events: &mut Vec<TraceEvent>) {
    for fault in registry.drain_fired() {
        events.push(TraceEvent {
            at,
            task: None,
            site: None,
            kind: TraceKind::ChaosInjected {
                point: fault.point,
                action: fault.action.label().to_string(),
            },
        });
    }
}

fn push_recovered(events: &mut Vec<TraceEvent>, at: Time, point: &str, detail: String) {
    events.push(TraceEvent {
        at,
        task: None,
        site: None,
        kind: TraceKind::ChaosRecovered {
            point: point.to_string(),
            detail,
        },
    });
}

/// A fresh disk generation: an empty image behind a fault-injecting
/// sink, fsynced on every append so `durable.sink.sync` failpoints see
/// one hit per record.
fn chaos_journal(registry: &Arc<ChaosRegistry>) -> (SharedImage, Journal) {
    let image = SharedImage::new();
    let journal = Journal::with_sink(Box::new(ChaosSink::new(
        image.clone(),
        Arc::clone(registry),
    )))
    .with_fsync_every_n(1);
    (image, journal)
}

/// What recovery would read off the disk right now: header + the exact
/// bytes the sink accepted, with one read-time corruption pass applied
/// (a no-op unless the schedule arms `durable.read`).
fn disk_image_bytes(image: &SharedImage, registry: &ChaosRegistry) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + image.len());
    write_header(&mut bytes);
    bytes.extend_from_slice(&image.snapshot());
    let _flipped = corrupt_image(&mut bytes, registry);
    bytes
}

fn dump(name: &str, label: &str, payload: &str) -> String {
    let dir = std::path::Path::new(DUMP_DIR);
    let path = dir.join(format!("{name}.{label}.json"));
    let write = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, payload));
    match write {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("<dump failed: {e}>"),
    }
}

/// The per-target hooks the generic crash-recovery driver needs beyond
/// [`Recoverable`].
trait ChaosTarget: Recoverable + Sized {
    /// Current simulation time (stamps chaos trace events).
    fn sim_now(&self) -> Time;
    /// Serialized full replay state, for bit-identity comparison.
    fn state_json(&self) -> String;
}

impl ChaosTarget for SiteRun {
    fn sim_now(&self) -> Time {
        self.now()
    }
    fn state_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("site snapshots serialize")
    }
}

impl ChaosTarget for EconomyRun {
    fn sim_now(&self) -> Time {
        self.now()
    }
    fn state_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("economy snapshots serialize")
    }
}

/// Starts (or restarts) a journaled run on a fresh disk generation,
/// absorbing genesis-snapshot faults as reformat-and-retry crashes.
fn genesis<R: ChaosTarget>(
    mk: &dyn Fn() -> R,
    registry: &Arc<ChaosRegistry>,
    snapshot_every: u64,
    crashes: &mut u64,
    events: &mut Vec<TraceEvent>,
    name: &str,
) -> Result<(SharedImage, DurableRun<R>), String> {
    loop {
        let (image, journal) = chaos_journal(registry);
        let run = mk();
        let at = run.sim_now();
        match DurableRun::new(run, journal, snapshot_every) {
            Ok(durable) => return Ok((image, durable)),
            Err(err) => {
                *crashes += 1;
                budget(*crashes, name)?;
                drain_injected(registry, at, events);
                push_recovered(
                    events,
                    at,
                    "durable.sink",
                    format!("genesis snapshot failed ({err}); reformatted"),
                );
            }
        }
    }
}

/// Recovers from `disk` and re-journals the run onto a fresh disk
/// generation. `Ok(None)` means the image held no intact snapshot (the
/// caller restarts from scratch — determinism makes that equivalent).
#[allow(clippy::type_complexity)]
fn recover_and_rejournal<R: ChaosTarget>(
    disk: &[u8],
    registry: &Arc<ChaosRegistry>,
    snapshot_every: u64,
    crashes: &mut u64,
    events: &mut Vec<TraceEvent>,
    at: Time,
    name: &str,
) -> Result<Option<(SharedImage, DurableRun<R>, u64)>, String> {
    let (first, report) = match DurableRun::<R>::recover(disk) {
        Ok(pair) => pair,
        Err(_) => return Ok(None),
    };
    let mut run = Some(first);
    loop {
        let (image, journal) = chaos_journal(registry);
        // `DurableRun::new` consumes the run even when the genesis
        // append fails; re-recovering from the same bytes rebuilds it
        // bit-identically.
        let r = match run.take() {
            Some(r) => r,
            None => {
                DurableRun::<R>::recover(disk)
                    .map_err(|e| format!("scenario '{name}': re-recovery failed: {e:?}"))?
                    .0
            }
        };
        match DurableRun::new(r, journal, snapshot_every) {
            Ok(durable) => return Ok(Some((image, durable, report.replayed_events))),
            Err(err) => {
                *crashes += 1;
                budget(*crashes, name)?;
                drain_injected(registry, at, events);
                push_recovered(
                    events,
                    at,
                    "durable.sink",
                    format!("re-genesis failed ({err}); reformatted"),
                );
            }
        }
    }
}

/// Drives a journaled run to completion under disk faults, crashing and
/// recovering on every surfaced append error. Returns the finished run
/// plus (crashes, events replayed across recoveries).
fn run_durable_chaos<R: ChaosTarget>(
    mk: &dyn Fn() -> R,
    registry: &Arc<ChaosRegistry>,
    snapshot_every: u64,
    events: &mut Vec<TraceEvent>,
    name: &str,
) -> Result<(R, u64, u64), String> {
    let mut crashes = 0u64;
    let mut replayed = 0u64;
    let (mut image, mut durable) =
        genesis(mk, registry, snapshot_every, &mut crashes, events, name)?;
    loop {
        match durable.step() {
            Ok(true) => drain_injected(registry, durable.run().sim_now(), events),
            Ok(false) => break,
            Err(err) => {
                crashes += 1;
                budget(crashes, name)?;
                let at = durable.run().sim_now();
                drain_injected(registry, at, events);
                let disk = disk_image_bytes(&image, registry);
                match recover_and_rejournal::<R>(
                    &disk,
                    registry,
                    snapshot_every,
                    &mut crashes,
                    events,
                    at,
                    name,
                )? {
                    Some((ni, nd, rep)) => {
                        replayed += rep;
                        push_recovered(
                            events,
                            nd.run().sim_now(),
                            "durable.sink",
                            format!("crash on '{err}': replayed={rep}"),
                        );
                        image = ni;
                        durable = nd;
                    }
                    None => {
                        // Bit rot (or a fault during genesis) destroyed
                        // every intact snapshot. A real operator starts
                        // the run over; determinism guarantees the same
                        // final state either way.
                        push_recovered(
                            events,
                            at,
                            "durable.read",
                            format!("image unrecoverable after '{err}'; restarted from genesis"),
                        );
                        let (ni, nd) =
                            genesis(mk, registry, snapshot_every, &mut crashes, events, name)?;
                        image = ni;
                        durable = nd;
                    }
                }
            }
        }
    }
    drain_injected(registry, durable.run().sim_now(), events);
    let (run, _journal) = durable.into_parts();
    Ok((run, crashes, replayed))
}

fn bit_identity_check(
    name: &str,
    what: &str,
    reference: &str,
    chaotic: &str,
) -> Result<(), String> {
    if reference == chaotic {
        return Ok(());
    }
    let ref_path = dump(name, &format!("{what}.reference"), reference);
    let got_path = dump(name, &format!("{what}.chaotic"), chaotic);
    Err(format!(
        "scenario '{name}': {what} diverged from the uninjected reference \
         (dumps: {ref_path} vs {got_path})"
    ))
}

fn site_workload(tasks: u64, processors: usize, load: f64, seed: u64) -> Trace {
    let mix = MixConfig::millennium_default()
        .with_tasks((tasks.max(1)) as usize)
        .with_processors(processors)
        .with_load_factor(load);
    generate_trace(&mix, seed)
}

#[allow(clippy::too_many_arguments)]
fn run_site_scenario(
    name: &str,
    seed: u64,
    tasks: u64,
    processors: usize,
    load: f64,
    policy: &str,
    snapshot_every: u64,
    registry: &Arc<ChaosRegistry>,
    events: &mut Vec<TraceEvent>,
) -> Result<(u64, u64, Vec<String>), String> {
    let policy = crate::cli::parse_policy(policy)?;
    let trace = site_workload(tasks, processors, load, seed);
    let config = SiteConfig::new(processors)
        .with_policy(policy)
        .with_preemption(true);

    let mut reference = SiteRun::new(config.clone(), &trace, Tracer::Off);
    reference.run_to_completion();
    let reference_state = reference.state_json();

    let mk = || SiteRun::new(config.clone(), &trace, Tracer::Off);
    let (run, crashes, replayed) =
        run_durable_chaos::<SiteRun>(&mk, registry, snapshot_every, events, name)?;

    bit_identity_check(
        name,
        "final-site-state",
        &reference_state,
        &run.state_json(),
    )?;
    let violations = run.state().violations().len();
    if violations > 0 {
        return Err(format!(
            "scenario '{name}': {violations} auditor violations in the faulted run"
        ));
    }
    Ok((
        crashes,
        replayed,
        vec![
            "bit-identical-to-reference".to_string(),
            "auditors-clean".to_string(),
            "recovery-replay-verified".to_string(),
        ],
    ))
}

/// Invariant-auditor violations across the economy: market-level money
/// conservation plus every site's task/processor/yield audits. (Not
/// [`EconomyOutcome::violations`] — those are contract-time breaches, a
/// normal market phenomenon under load, not invariant failures.)
fn economy_audit_violations(outcome: &EconomyOutcome) -> usize {
    outcome.audit_violations.len()
        + outcome
            .per_site
            .iter()
            .map(|s| s.violations.len())
            .sum::<usize>()
}

#[allow(clippy::too_many_arguments)]
fn run_market_scenario(
    name: &str,
    seed: u64,
    tasks: u64,
    sites: usize,
    processors: usize,
    load: f64,
    policy: &str,
    snapshot_every: u64,
    registry: &Arc<ChaosRegistry>,
    events: &mut Vec<TraceEvent>,
) -> Result<(u64, u64, Vec<String>), String> {
    let policy = crate::cli::parse_policy(policy)?;
    let trace = site_workload(tasks, processors * sites.max(1), load, seed);
    let site = SiteConfig::new(processors)
        .with_policy(policy)
        .with_preemption(true);
    let config = EconomyConfig::uniform(sites, site);

    let mut reference = EconomyRun::new(config.clone(), &trace, Tracer::Off);
    reference.run_to_completion();
    let reference_state = reference.state_json();

    let mk = || EconomyRun::new(config.clone(), &trace, Tracer::Off);
    let (run, crashes, replayed) =
        run_durable_chaos::<EconomyRun>(&mk, registry, snapshot_every, events, name)?;
    bit_identity_check(
        name,
        "final-economy-state",
        &reference_state,
        &run.state_json(),
    )?;
    let (outcome, _) = run.finish();
    let audit = economy_audit_violations(&outcome);
    if audit > 0 {
        return Err(format!(
            "scenario '{name}': {audit} conservation-auditor violations in the faulted run"
        ));
    }
    Ok((
        crashes,
        replayed,
        vec![
            "bit-identical-to-reference".to_string(),
            "auditors-clean".to_string(),
            "recovery-replay-verified".to_string(),
        ],
    ))
}

// ---------------------------------------------------------------------------
// Scripted service scenarios
// ---------------------------------------------------------------------------

/// xorshift64* — same generator the failpoint streams and `mbts flood`
/// use; seeds the scripted command schedule.
struct ScriptRng(u64);

impl ScriptRng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ScriptRng((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One step of the scripted client, independent of machine state so the
/// reference and chaos runs fold the identical schedule.
enum ScriptStep {
    Submit {
        gap: f64,
        runtime: f64,
        value: f64,
        decay: f64,
    },
    Cancel {
        pick: u64,
    },
    Shed {
        gap: f64,
        runtime: f64,
        value: f64,
        decay: f64,
        depth: usize,
    },
    Drain,
}

fn build_script(seed: u64, commands: u64, queue_capacity: usize) -> Vec<ScriptStep> {
    let mut rng = ScriptRng::new(seed ^ 0xC0FF_EE00);
    let mut steps = Vec::with_capacity(commands.max(2) as usize);
    for i in 0..commands.max(2) - 1 {
        let gap = 0.05 + rng.next_f64() * 0.4;
        let runtime = 0.5 + rng.next_f64() * 4.0;
        let value = 5.0 + rng.next_f64() * 20.0;
        let decay = 0.01 + rng.next_f64() * 0.2;
        if i % 13 == 9 {
            steps.push(ScriptStep::Shed {
                gap,
                runtime,
                value,
                decay,
                depth: (rng.next_u64() as usize) % queue_capacity.max(1),
            });
        } else if i % 7 == 5 {
            steps.push(ScriptStep::Cancel {
                pick: rng.next_u64(),
            });
        } else {
            steps.push(ScriptStep::Submit {
                gap,
                runtime,
                value,
                decay,
            });
        }
    }
    steps.push(ScriptStep::Drain);
    steps
}

/// Turns a script step into a concrete command at the machine's current
/// task-id frontier; `None` when the step has nothing to act on (a
/// cancel before anything was submitted) — identically skipped by the
/// reference and chaos runs.
fn materialize(
    step: &ScriptStep,
    machine: &ServiceMachine,
    submitted: &[u64],
    clock: &mut f64,
) -> Option<(Time, CommandKind)> {
    match step {
        ScriptStep::Submit {
            gap,
            runtime,
            value,
            decay,
        } => {
            *clock += gap;
            let spec = TaskSpec::new(
                machine.next_task_id(),
                *clock,
                *runtime,
                *value,
                *decay,
                PenaltyBound::Bounded { max_penalty: 0.0 },
            );
            Some((Time::new(*clock), CommandKind::Submit { spec }))
        }
        ScriptStep::Cancel { pick } => {
            if submitted.is_empty() {
                return None;
            }
            let task = submitted[(*pick as usize) % submitted.len()];
            Some((
                Time::new(*clock),
                CommandKind::Cancel { task: TaskId(task) },
            ))
        }
        ScriptStep::Shed {
            gap,
            runtime,
            value,
            decay,
            depth,
        } => {
            *clock += gap;
            let spec = TaskSpec::new(
                machine.next_task_id(),
                *clock,
                *runtime,
                *value,
                *decay,
                PenaltyBound::Bounded { max_penalty: 0.0 },
            );
            Some((
                Time::new(*clock),
                CommandKind::Shed {
                    spec,
                    queue_depth: *depth,
                    reason: ShedReason::LowestValue,
                },
            ))
        }
        ScriptStep::Drain => Some((Time::new(*clock), CommandKind::Drain)),
    }
}

/// The uninjected reference fold: same script, infallible journal.
fn drive_reference_serve(mc: &MachineConfig, script: &[ScriptStep]) -> String {
    let mut machine = ServiceMachine::new(mc.clone());
    let mut submitted = Vec::new();
    let mut clock = 0.0f64;
    for step in script {
        let Some((at, kind)) = materialize(step, &machine, &submitted, &mut clock) else {
            continue;
        };
        let cmd = ServeCommand {
            seq: machine.applied(),
            at,
            kind,
        };
        if let ApplyOutcome::Submitted { task, .. } = machine.apply(&cmd) {
            submitted.push(task.0);
        }
    }
    machine.snapshot_json()
}

/// Opens a fresh journal generation for the service machine, absorbing
/// genesis-snapshot faults.
fn serve_generation(
    machine: &ServiceMachine,
    registry: &Arc<ChaosRegistry>,
    crashes: &mut u64,
    events: &mut Vec<TraceEvent>,
    at: Time,
    name: &str,
) -> Result<(SharedImage, Journal), String> {
    loop {
        let (image, mut journal) = chaos_journal(registry);
        match journal.append_snapshot(machine.snapshot_json().as_bytes()) {
            Ok(()) => return Ok((image, journal)),
            Err(err) => {
                *crashes += 1;
                budget(*crashes, name)?;
                drain_injected(registry, at, events);
                push_recovered(
                    events,
                    at,
                    "durable.sink",
                    format!("genesis snapshot failed ({err}); reformatted"),
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_serve_scenario(
    name: &str,
    seed: u64,
    commands: u64,
    processors: usize,
    policy: &str,
    queue_capacity: usize,
    snapshot_every: u64,
    registry: &Arc<ChaosRegistry>,
    events: &mut Vec<TraceEvent>,
) -> Result<(u64, u64, Vec<String>), String> {
    let policy = crate::cli::parse_policy(policy)?;
    let mc = MachineConfig {
        site: SiteConfig::new(processors)
            .with_policy(policy)
            .with_preemption(true),
        provenance: false,
        status_capacity: 65_536,
    };
    let script = build_script(seed, commands, queue_capacity);
    let reference_state = drive_reference_serve(&mc, &script);

    let mut crashes = 0u64;
    let mut replayed = 0u64;
    let mut machine = ServiceMachine::new(mc.clone());
    let (mut image, mut journal) =
        serve_generation(&machine, registry, &mut crashes, events, Time::ZERO, name)?;
    let mut submitted: Vec<u64> = Vec::new();
    let mut acked_tasks: Vec<u64> = Vec::new();
    let mut since_snapshot = 0u64;
    let mut clock = 0.0f64;

    // Crash + recover; returns true when the in-flight command turned
    // out to be durable after all (a failed fsync *after* the bytes
    // landed) and recovery already applied it — the ack-limbo case the
    // client must not retry.
    #[allow(clippy::too_many_arguments)]
    fn crash_recover(
        name: &str,
        err: &std::io::Error,
        at: Time,
        allow_absorbed: bool,
        machine: &mut ServiceMachine,
        image: &mut SharedImage,
        journal: &mut Journal,
        registry: &Arc<ChaosRegistry>,
        crashes: &mut u64,
        replayed: &mut u64,
        acked_tasks: &[u64],
        events: &mut Vec<TraceEvent>,
    ) -> Result<bool, String> {
        *crashes += 1;
        budget(*crashes, name)?;
        drain_injected(registry, at, events);
        let disk = disk_image_bytes(image, registry);
        let (recovered, rec) = ServiceRun::recover(&disk).map_err(|e| {
            format!("scenario '{name}': acked service state unrecoverable after '{err}': {e:?}")
        })?;
        let absorbed = recovered.applied() == machine.applied() + 1;
        if recovered.applied() != machine.applied() && !(allow_absorbed && absorbed) {
            return Err(format!(
                "scenario '{name}': acked-prefix durability violated — {} commands acked, \
                 {} recovered",
                machine.applied(),
                recovered.applied()
            ));
        }
        for &task in acked_tasks {
            if recovered.status(task).is_none() {
                return Err(format!(
                    "scenario '{name}': acked task {task} lost its /status entry across recovery"
                ));
            }
        }
        *replayed += rec.replayed;
        push_recovered(
            events,
            at,
            "durable.sink",
            format!(
                "crash on '{err}': applied={} replayed={} dropped_bytes={}{}",
                recovered.applied(),
                rec.replayed,
                rec.dropped_bytes,
                if absorbed { " absorbed-in-flight" } else { "" }
            ),
        );
        *machine = recovered;
        let (ni, nj) = serve_generation(machine, registry, crashes, events, at, name)?;
        *image = ni;
        *journal = nj;
        Ok(absorbed)
    }

    for step in &script {
        let Some((at, kind)) = materialize(step, &machine, &submitted, &mut clock) else {
            continue;
        };
        loop {
            let cmd = ServeCommand {
                seq: machine.applied(),
                at,
                kind: kind.clone(),
            };
            let payload = serde_json::to_string(&cmd)
                .map_err(|e| format!("scenario '{name}': command serialization failed: {e}"))?;
            match journal.append_event(payload.as_bytes()) {
                Ok(()) => {
                    let outcome = machine.apply(&cmd);
                    match outcome {
                        ApplyOutcome::Submitted { task, .. } => {
                            submitted.push(task.0);
                            acked_tasks.push(task.0);
                        }
                        ApplyOutcome::Shed { task, .. } => acked_tasks.push(task.0),
                        _ => {}
                    }
                    drain_injected(registry, at, events);
                    since_snapshot += 1;
                    if snapshot_every > 0 && since_snapshot >= snapshot_every {
                        match journal.append_snapshot(machine.snapshot_json().as_bytes()) {
                            Ok(()) => since_snapshot = 0,
                            Err(err) => {
                                // A snapshot is never in ack limbo: commands
                                // on disk are unaffected whether or not the
                                // snapshot record survived.
                                crash_recover(
                                    name,
                                    &err,
                                    at,
                                    false,
                                    &mut machine,
                                    &mut image,
                                    &mut journal,
                                    registry,
                                    &mut crashes,
                                    &mut replayed,
                                    &acked_tasks,
                                    events,
                                )?;
                                since_snapshot = 0;
                            }
                        }
                    }
                    break;
                }
                Err(err) => {
                    let absorbed = crash_recover(
                        name,
                        &err,
                        at,
                        true,
                        &mut machine,
                        &mut image,
                        &mut journal,
                        registry,
                        &mut crashes,
                        &mut replayed,
                        &acked_tasks,
                        events,
                    )?;
                    if absorbed {
                        // Recovery applied the in-flight command; account
                        // for its (deterministic, pre-assigned) task id
                        // and move on without retrying.
                        match &kind {
                            CommandKind::Submit { spec } | CommandKind::Shed { spec, .. } => {
                                if matches!(kind, CommandKind::Submit { .. }) {
                                    submitted.push(spec.id.0);
                                }
                                acked_tasks.push(spec.id.0);
                            }
                            _ => {}
                        }
                        since_snapshot += 1;
                        break;
                    }
                    // Not absorbed: the command never became durable —
                    // retry it against the recovered machine.
                }
            }
        }
    }

    bit_identity_check(
        name,
        "final-service-state",
        &reference_state,
        &machine.snapshot_json(),
    )?;
    if machine.violations() > 0 {
        return Err(format!(
            "scenario '{name}': {} auditor violations in the faulted service run",
            machine.violations()
        ));
    }
    if machine.counters().drains == 0 {
        return Err(format!(
            "scenario '{name}': the drain command never survived to the machine"
        ));
    }
    Ok((
        crashes,
        replayed,
        vec![
            "bit-identical-to-reference".to_string(),
            "acked-prefix-durable".to_string(),
            "auditors-clean".to_string(),
            "drained-cleanly".to_string(),
        ],
    ))
}

/// Runs one scenario once. The trace events returned are the chaos
/// markers (`ChaosInjected` / `ChaosRecovered`) the run emitted, in
/// deterministic order.
pub fn run_scenario(
    scenario: &Scenario,
    seed_override: Option<u64>,
) -> Result<(ScenarioReport, Vec<TraceEvent>), String> {
    let seed = seed_override.unwrap_or(scenario.seed);
    let registry = Arc::new(ChaosRegistry::new(seed, scenario.failpoints.clone()));
    let mut events = Vec::new();
    let name = scenario.name.as_str();
    let (crashes, replayed, checks) = match &scenario.target {
        ScenarioTarget::Site {
            tasks,
            processors,
            load,
            policy,
            snapshot_every,
        } => run_site_scenario(
            name,
            seed,
            *tasks,
            *processors,
            *load,
            policy,
            *snapshot_every,
            &registry,
            &mut events,
        )?,
        ScenarioTarget::Market {
            tasks,
            sites,
            processors,
            load,
            policy,
            snapshot_every,
        } => run_market_scenario(
            name,
            seed,
            *tasks,
            *sites,
            *processors,
            *load,
            policy,
            *snapshot_every,
            &registry,
            &mut events,
        )?,
        ScenarioTarget::Serve {
            commands,
            processors,
            policy,
            queue_capacity,
            snapshot_every,
        } => run_serve_scenario(
            name,
            seed,
            *commands,
            *processors,
            policy,
            *queue_capacity,
            *snapshot_every,
            &registry,
            &mut events,
        )?,
    };
    if !scenario.failpoints.is_empty() && registry.fired_total() == 0 {
        return Err(format!(
            "scenario '{name}': schedule armed but no failpoint ever fired — \
             check point names against DESIGN.md §15"
        ));
    }
    Ok((
        ScenarioReport {
            name: scenario.name.clone(),
            class: scenario.target.class().to_string(),
            seed,
            injected: registry.fired_total(),
            by_point: registry.fired_by_point(),
            crashes,
            replayed,
            checks,
        },
        events,
    ))
}

/// Runs every scenario **twice**, enforcing the determinism contract:
/// both runs must produce byte-identical reports and chaos traces.
pub fn run_corpus(
    scenarios: &[Scenario],
    seed_override: Option<u64>,
) -> Result<(CorpusReport, Vec<TraceEvent>), String> {
    let mut reports = Vec::with_capacity(scenarios.len());
    let mut all_events = Vec::new();
    for scenario in scenarios {
        let (r1, e1) = run_scenario(scenario, seed_override)?;
        let (r2, e2) = run_scenario(scenario, seed_override)?;
        let a = serde_json::to_string(&r1).map_err(|e| e.to_string())?;
        let b = serde_json::to_string(&r2).map_err(|e| e.to_string())?;
        let ea = to_jsonl(&e1);
        let eb = to_jsonl(&e2);
        if a != b || ea != eb {
            let first = dump(&scenario.name, "run1", &format!("{a}\n{ea}"));
            let second = dump(&scenario.name, "run2", &format!("{b}\n{eb}"));
            return Err(format!(
                "scenario '{}' is NONDETERMINISTIC: two runs with seed {} diverged \
                 (dumps: {first} vs {second})",
                scenario.name, r1.seed
            ));
        }
        reports.push(r1);
        all_events.extend(e1);
    }
    let total_injected = reports.iter().map(|r| r.injected).sum();
    let total_crashes = reports.iter().map(|r| r.crashes).sum();
    Ok((
        CorpusReport {
            scenarios: reports,
            total_injected,
            total_crashes,
            deterministic: true,
        },
        all_events,
    ))
}
