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

use mbts_chaos::{ChaosRegistry, Scenario, ScenarioTarget, Xorshift64Star};
use mbts_durable::{
    corrupt_image, ChaosSink, DurableRun, Journal, Recoverable, RecoveryReport, SharedImage,
};
use mbts_market::{EconomyConfig, EconomyOutcome, EconomyRun};
use mbts_serve::{Command as ServeCommand, CommandKind, MachineConfig, ServiceMachine, ShedReason};
use mbts_sim::Time;
use mbts_site::{SiteConfig, SiteRun};
use mbts_trace::{to_jsonl, TraceEvent, TraceKind, Tracer};
use mbts_workload::{generate_trace, MixConfig, PenaltyBound, TaskId, TaskSpec, Trace};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io;
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

/// What recovery would read off the disk right now: the exact bytes the
/// sink accepted, header included, with one read-time corruption pass
/// applied (a no-op unless the schedule arms `durable.read`).
fn disk_image_bytes(image: &SharedImage, registry: &ChaosRegistry) -> Vec<u8> {
    let mut bytes = image.snapshot();
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

/// What the crash-recovery loop needs of a run beyond [`Recoverable`]:
/// the current simulation time, which stamps chaos trace events.
trait ChaosTarget: Recoverable {
    fn sim_now(&self) -> Time;
}

impl ChaosTarget for SiteRun {
    fn sim_now(&self) -> Time {
        self.now()
    }
}

impl ChaosTarget for EconomyRun {
    fn sim_now(&self) -> Time {
        self.now()
    }
}

impl ChaosTarget for ServiceMachine {
    fn sim_now(&self) -> Time {
        self.now()
    }
}

/// Serialized full replay state, for bit-identity comparison.
fn state_json<M: Recoverable>(run: &M) -> String {
    serde_json::to_string(&run.snapshot()).expect("snapshots always serialize")
}

/// Where a chaos run's inputs come from, and what a recovery must keep.
/// The defaults are a simulation's: it feeds itself the event it has
/// due, stamps markers with its own clock, and accepts any recovery,
/// since determinism re-derives whatever the disk lost.
trait Feed<M: ChaosTarget> {
    /// The input to apply next; `None` once the run is done.
    fn next(&mut self, run: &M) -> Option<M::Input> {
        run.due()
    }

    /// The time chaos markers are stamped at.
    fn clock(&self, run: &M) -> Time {
        run.sim_now()
    }

    /// `input` is durable and applied.
    fn acked(&mut self, _input: &M::Input) {}

    /// Checks a run recovered after `crashed` failed on `input` (its
    /// append, or the cadence snapshot after it) and returns the detail
    /// of the recovery marker.
    fn recovered(
        &mut self,
        _crashed: &M,
        _recovered: &M,
        _input: &M::Input,
        report: &RecoveryReport,
        err: &io::Error,
    ) -> Result<String, String> {
        Ok(format!("crash on '{err}': replayed={}", report.replayed))
    }
}

/// A simulation's feed: see the [`Feed`] defaults.
struct Due;

impl<M: ChaosTarget> Feed<M> for Due {}

/// One scenario's crash-recovery loop and its books: the registry whose
/// faults it absorbs, the chaos markers it emits, and what its
/// recoveries cost.
struct Harness<'a> {
    name: &'a str,
    registry: &'a Arc<ChaosRegistry>,
    events: &'a mut Vec<TraceEvent>,
    snapshot_every: u64,
    crashes: u64,
    replayed: u64,
}

impl<'a> Harness<'a> {
    fn new(
        name: &'a str,
        registry: &'a Arc<ChaosRegistry>,
        events: &'a mut Vec<TraceEvent>,
        snapshot_every: u64,
    ) -> Self {
        Harness {
            name,
            registry,
            events,
            snapshot_every,
            crashes: 0,
            replayed: 0,
        }
    }

    /// Counts one crash against the budget and logs the faults fired
    /// since the last drain at `at`.
    fn crash(&mut self, at: Time) -> Result<(), String> {
        self.crashes += 1;
        budget(self.crashes, self.name)?;
        drain_injected(self.registry, at, self.events);
        Ok(())
    }

    /// Journals `run` onto a fresh disk generation, reformatting and
    /// retrying while its genesis snapshot fails (each failure a crash);
    /// `remake` rebuilds the run a failed genesis consumed.
    fn generation<M: Recoverable>(
        &mut self,
        mut run: M,
        remake: impl Fn() -> Result<M, String>,
        at: Time,
        what: &str,
    ) -> Result<(SharedImage, DurableRun<M>), String> {
        loop {
            let (image, journal) = chaos_journal(self.registry);
            match DurableRun::new(run, journal, self.snapshot_every) {
                Ok(durable) => return Ok((image, durable)),
                Err(err) => {
                    self.crash(at)?;
                    push_recovered(
                        self.events,
                        at,
                        "durable.sink",
                        format!("{what} failed ({err}); reformatted"),
                    );
                    run = remake()?;
                }
            }
        }
    }

    /// Drives `feed` through a journaled run to its end under disk
    /// faults. Every surfaced error is a crash: the process state is
    /// abandoned, the run recovered from what the disk holds and
    /// re-journaled onto a fresh generation, or — when no intact
    /// snapshot survived — restarted from genesis.
    fn drive<M: ChaosTarget>(
        &mut self,
        mk: &dyn Fn() -> M,
        feed: &mut impl Feed<M>,
    ) -> Result<M, String> {
        let name = self.name;
        let fresh = mk();
        let at = feed.clock(&fresh);
        let (mut image, mut durable) =
            self.generation(fresh, || Ok(mk()), at, "genesis snapshot")?;
        while let Some(input) = feed.next(durable.run()) {
            let err = match durable.apply(&input) {
                Ok(_) => {
                    feed.acked(&input);
                    drain_injected(self.registry, feed.clock(durable.run()), self.events);
                    continue;
                }
                Err(err) => err,
            };
            let at = feed.clock(durable.run());
            self.crash(at)?;
            let disk = disk_image_bytes(&image, self.registry);
            let (next_image, next) = match DurableRun::<M>::recover(&disk) {
                Ok((run, report)) => {
                    let remake = || {
                        DurableRun::<M>::recover(&disk)
                            .map(|(run, _)| run)
                            .map_err(|e| format!("scenario '{name}': re-recovery failed: {e:?}"))
                    };
                    let (next_image, next) = self.generation(run, remake, at, "re-genesis")?;
                    let detail = feed
                        .recovered(durable.run(), next.run(), &input, &report, &err)
                        .map_err(|e| format!("scenario '{name}': {e}"))?;
                    self.replayed += report.replayed;
                    push_recovered(self.events, feed.clock(next.run()), "durable.sink", detail);
                    (next_image, next)
                }
                Err(_) => {
                    // Bit rot (or a fault during genesis) destroyed every
                    // intact snapshot. A real operator starts the run
                    // over; determinism guarantees the same final state
                    // either way, unless the feed had acked inputs.
                    push_recovered(
                        self.events,
                        at,
                        "durable.read",
                        format!("image unrecoverable after '{err}'; restarted from genesis"),
                    );
                    let fresh = mk();
                    let at = feed.clock(&fresh);
                    let (next_image, next) =
                        self.generation(fresh, || Ok(mk()), at, "genesis snapshot")?;
                    feed.recovered(
                        durable.run(),
                        next.run(),
                        &input,
                        &RecoveryReport::default(),
                        &err,
                    )
                    .map_err(|e| format!("scenario '{name}': {e}"))?;
                    (next_image, next)
                }
            };
            image = next_image;
            durable = next;
        }
        drain_injected(self.registry, feed.clock(durable.run()), self.events);
        Ok(durable.into_parts().0)
    }
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

/// The site every scenario runs: `processors` under `policy`, preemptive.
fn scenario_site(processors: usize, policy: &str) -> Result<SiteConfig, String> {
    Ok(SiteConfig::new(processors)
        .with_policy(crate::cli::parse_policy(policy)?)
        .with_preemption(true))
}

/// The final state of `run` fed to its end without a journal: the
/// uninjected reference a faulted run must match.
fn reference_state<M: ChaosTarget>(mut run: M, feed: &mut impl Feed<M>) -> Result<String, String> {
    while let Some(input) = feed.next(&run) {
        run.apply(&input)?;
        feed.acked(&input);
    }
    Ok(state_json(&run))
}

/// Runs a simulation scenario: the run `mk` builds, once uninjected and
/// once through `harness`'s faults, which must end bit-identical to the
/// reference. `audit` counts the faulted run's invariant violations,
/// which must be none.
fn run_sim_scenario<M: ChaosTarget>(
    harness: &mut Harness,
    state: &str,
    mk: &dyn Fn() -> M,
    audit: impl FnOnce(M) -> usize,
) -> Result<Vec<String>, String> {
    let reference = reference_state(mk(), &mut Due)?;
    let run = harness.drive(mk, &mut Due)?;
    let name = harness.name;
    bit_identity_check(name, state, &reference, &state_json(&run))?;
    let violations = audit(run);
    if violations > 0 {
        return Err(format!(
            "scenario '{name}': {violations} auditor violations in the faulted run"
        ));
    }
    Ok(vec![
        "bit-identical-to-reference".to_string(),
        "auditors-clean".to_string(),
        "recovery-replay-verified".to_string(),
    ])
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

// ---------------------------------------------------------------------------
// Scripted service scenarios
// ---------------------------------------------------------------------------

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
    let mut rng = Xorshift64Star::from_seed(seed ^ 0xC0FF_EE00);
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

/// Turns a script step into a command kind at the script's clock; `None`
/// when the step has nothing to act on (a cancel before anything was
/// submitted) — identically skipped by the reference and chaos runs. The
/// machine stamps the task id.
fn materialize(
    step: &ScriptStep,
    submitted: &[u64],
    clock: &mut f64,
) -> Option<(Time, CommandKind)> {
    let bid = |clock: f64, runtime: f64, value: f64, decay: f64| {
        TaskSpec::new(0, clock, runtime, value, decay, PenaltyBound::bounded(0.0))
    };
    match step {
        ScriptStep::Submit {
            gap,
            runtime,
            value,
            decay,
        } => {
            *clock += gap;
            let spec = bid(*clock, *runtime, *value, *decay);
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
            let spec = bid(*clock, *runtime, *value, *decay);
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

/// The scripted client of a serve scenario. It holds each step's command
/// until the command is acked — one whose record never became durable is
/// re-stamped and retried against the recovered machine — and remembers
/// every task it was acked for, which recovery must never lose.
struct Script<'s> {
    steps: std::slice::Iter<'s, ScriptStep>,
    clock: f64,
    pending: Option<(Time, CommandKind)>,
    submitted: Vec<u64>,
    acked: Vec<u64>,
}

impl<'s> Script<'s> {
    fn new(steps: &'s [ScriptStep]) -> Self {
        Script {
            steps: steps.iter(),
            clock: 0.0,
            pending: None,
            submitted: Vec::new(),
            acked: Vec::new(),
        }
    }
}

impl Feed<ServiceMachine> for Script<'_> {
    fn next(&mut self, machine: &ServiceMachine) -> Option<ServeCommand> {
        while self.pending.is_none() {
            let step = self.steps.next()?;
            self.pending = materialize(step, &self.submitted, &mut self.clock);
        }
        let (at, kind) = self.pending.clone()?;
        Some(machine.command(at, kind))
    }

    fn clock(&self, _: &ServiceMachine) -> Time {
        Time::new(self.clock)
    }

    fn acked(&mut self, cmd: &ServeCommand) {
        self.pending = None;
        match &cmd.kind {
            CommandKind::Submit { spec } => {
                self.submitted.push(spec.id.0);
                self.acked.push(spec.id.0);
            }
            CommandKind::Shed { spec, .. } => self.acked.push(spec.id.0),
            _ => {}
        }
    }

    fn recovered(
        &mut self,
        crashed: &ServiceMachine,
        recovered: &ServiceMachine,
        cmd: &ServeCommand,
        report: &RecoveryReport,
        err: &io::Error,
    ) -> Result<String, String> {
        // The in-flight command is done when it applied before a cadence
        // snapshot failed, or when its record reached the disk before the
        // failure surfaced (a failed fsync after the bytes landed) and
        // recovery replayed it — the ack-limbo case, resolved exactly once
        // and never retried.
        let landed = crashed.applied() > cmd.seq;
        let absorbed = !landed && recovered.applied() == cmd.seq + 1;
        if recovered.applied() != crashed.applied() && !absorbed {
            return Err(format!(
                "acked-prefix durability violated — {} commands acked, {} recovered",
                crashed.applied(),
                recovered.applied()
            ));
        }
        if landed || absorbed {
            self.acked(cmd);
        }
        if let Some(task) = self.acked.iter().find(|&&t| recovered.status(t).is_none()) {
            return Err(format!(
                "acked task {task} lost its /status entry across recovery"
            ));
        }
        Ok(format!(
            "crash on '{err}': applied={} replayed={} dropped_bytes={}{}",
            recovered.applied(),
            report.replayed,
            report.dropped_bytes,
            if absorbed { " absorbed-in-flight" } else { "" }
        ))
    }
}

fn run_serve_scenario(
    harness: &mut Harness,
    seed: u64,
    commands: u64,
    site: SiteConfig,
    queue_capacity: usize,
) -> Result<Vec<String>, String> {
    let mc = MachineConfig {
        site,
        provenance: false,
        status_capacity: 65_536,
    };
    let script = build_script(seed, commands, queue_capacity);
    let reference = reference_state(ServiceMachine::new(mc.clone()), &mut Script::new(&script))?;
    let machine = harness.drive(
        &|| ServiceMachine::new(mc.clone()),
        &mut Script::new(&script),
    )?;

    let name = harness.name;
    bit_identity_check(
        name,
        "final-service-state",
        &reference,
        &state_json(&machine),
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
    Ok(vec![
        "bit-identical-to-reference".to_string(),
        "acked-prefix-durable".to_string(),
        "auditors-clean".to_string(),
        "drained-cleanly".to_string(),
    ])
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
    let (ScenarioTarget::Site { snapshot_every, .. }
    | ScenarioTarget::Market { snapshot_every, .. }
    | ScenarioTarget::Serve { snapshot_every, .. }) = scenario.target;
    let mut harness = Harness::new(name, &registry, &mut events, snapshot_every);
    let checks = match scenario.target {
        ScenarioTarget::Site {
            tasks,
            processors,
            load,
            ref policy,
            ..
        } => {
            let config = scenario_site(processors, policy)?;
            let trace = site_workload(tasks, processors, load, seed);
            run_sim_scenario(
                &mut harness,
                "final-site-state",
                &|| SiteRun::new(config.clone(), &trace, Tracer::Off),
                |run| run.state().violations().len(),
            )?
        }
        ScenarioTarget::Market {
            tasks,
            sites,
            processors,
            load,
            ref policy,
            ..
        } => {
            let config = EconomyConfig::uniform(sites, scenario_site(processors, policy)?);
            let trace = site_workload(tasks, processors * sites.max(1), load, seed);
            run_sim_scenario(
                &mut harness,
                "final-economy-state",
                &|| EconomyRun::new(config.clone(), &trace, Tracer::Off),
                |run| economy_audit_violations(&run.finish().0),
            )?
        }
        ScenarioTarget::Serve {
            commands,
            processors,
            ref policy,
            queue_capacity,
            ..
        } => run_serve_scenario(
            &mut harness,
            seed,
            commands,
            scenario_site(processors, policy)?,
            queue_capacity,
        )?,
    };
    let (crashes, replayed) = (harness.crashes, harness.replayed);
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
