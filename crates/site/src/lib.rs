//! # mbts-site — an event-driven task-service site
//!
//! Executes a stream of submitted tasks on a pool of interchangeable
//! processors under the paper's model (§4):
//!
//! * gang-of-one tasks, zero context-switch cost,
//! * a value-based [`Policy`](mbts_core::Policy) selects which queued task
//!   runs at each dispatch point,
//! * optional **preemption**: a newly arriving higher-priority task may
//!   suspend a running one (which can later resume on any processor),
//! * optional **admission control** (§6): each submission is evaluated
//!   against the candidate schedule and its slack before acceptance,
//! * yield accounting per Eq. 1 at the instant each task completes.
//!
//! The crate has two layers:
//!
//! * [`SiteState`] — an imperative core with explicit `submit` /
//!   `on_completion` transitions returning completion tokens. The market
//!   layer drives many of these inside one economy-wide event loop.
//! * [`SiteRun`] — one site's discrete-event replay of a whole
//!   [`mbts_workload::Trace`] (or workflow set), steppable one event at a
//!   time; [`SiteRun::finish`] runs what is left and returns the
//!   [`SiteOutcome`] metrics.
//!
//! ```
//! use mbts_core::Policy;
//! use mbts_site::{SiteConfig, SiteRun};
//! use mbts_trace::Tracer;
//! use mbts_workload::{generate_trace, MixConfig};
//!
//! let trace = generate_trace(
//!     &MixConfig::millennium_default().with_tasks(100).with_processors(4),
//!     1,
//! );
//! let config = SiteConfig::new(4)
//!     .with_policy(Policy::FirstPrice)
//!     .with_preemption(true);
//! let (outcome, _) = SiteRun::new(config, &trace, Tracer::Off).finish();
//! assert_eq!(outcome.metrics.completed, 100);
//! assert!(outcome.delay_percentile(0.95) >= outcome.delay_percentile(0.5));
//! ```

pub mod analysis;
pub mod config;
pub mod gantt;
pub mod metrics;
pub mod state;

pub use analysis::{class_breakdown, ClassReport};
pub use config::SiteConfig;
pub use gantt::{render_gantt, segments, Segment};
pub use metrics::{Disposition, JobOutcome, SiteMetrics};
pub use state::{AuditViolation, CompletionToken, SiteSnapshot, SiteSnapshotRef, SiteState};

use mbts_core::{Job, WorkflowReport, WorkflowRuntime};
use mbts_sim::{Engine, EventQueue, FaultInjector, FaultInjectorState, Model, Time, UpDown};
use mbts_trace::{TraceKind, Tracer};
use mbts_workload::{TaskId, TaskList, Trace, WorkflowSet};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result of replaying a trace through a [`SiteRun`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteOutcome {
    /// Aggregate counters and yield statistics.
    pub metrics: SiteMetrics,
    /// Per-job outcomes, sorted by task id. Empty for a site inside an
    /// economy, whose contracts are its tasks' records, so there
    /// [`delay_percentile`](Self::delay_percentile) and
    /// [`earned_percentile`](Self::earned_percentile) are `NaN`.
    pub outcomes: Vec<JobOutcome>,
    /// Conservation-audit failures recorded by the always-on auditor
    /// (release builds record; debug builds panic at the first failure,
    /// so this is always empty there). An honest run has none.
    pub violations: Vec<AuditViolation>,
    /// End-to-end workflow settlement report (workflow replays only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workflows: Option<WorkflowReport>,
}

impl SiteOutcome {
    /// The `q`-quantile (0 ≤ q ≤ 1) of completed tasks' delays, by
    /// nearest-rank over the per-job records. `NaN` with no completions.
    pub fn delay_percentile(&self, q: f64) -> f64 {
        percentile(
            self.outcomes
                .iter()
                .filter(|o| o.disposition == metrics::Disposition::Completed)
                .map(|o| o.delay),
            q,
        )
    }

    /// The `q`-quantile of per-task earnings over completed + dropped
    /// tasks. `NaN` when nothing finished.
    pub fn earned_percentile(&self, q: f64) -> f64 {
        percentile(
            self.outcomes
                .iter()
                .filter(|o| {
                    matches!(
                        o.disposition,
                        metrics::Disposition::Completed | metrics::Disposition::Dropped
                    )
                })
                .map(|o| o.earned),
            q,
        )
    }
}

/// Nearest-rank percentile over an iterator of samples.
fn percentile(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Fault-injection parameters for a single-site trace replay: each of
/// the site's processors fails and repairs on its own timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// How often a processor fails and how long its repair takes.
    pub faults: UpDown,
    /// Seed for the injector's independent per-slot streams.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan drawing every slot's timeline from `faults`.
    pub fn new(faults: UpDown, seed: u64) -> Self {
        FaultPlan { faults, seed }
    }
}

/// Upper bound on crash events across a whole faulted run, so a
/// pathological MTTF distribution cannot livelock it.
const MAX_CRASHES: u64 = 10_000;

/// The event alphabet of a single-site trace replay. Public (and
/// serializable) so the durable-recovery layer can journal every applied
/// event and replay the suffix after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// Task `i` of the trace arrives.
    Arrival(usize),
    /// Workflow task `i` of the trace had its last predecessor complete
    /// and is released into the admission path. Journaled as a
    /// first-class event so a crash between a predecessor's completion
    /// and its successors' release recovers bit-identically.
    Release(usize),
    /// A running segment finishes (stale tokens are ignored).
    Completion(CompletionToken),
    /// Processor slot `j` goes down.
    Crash(usize),
    /// The slot comes back, restoring the `n` processors its crash took.
    Repair {
        /// Which slot recovered.
        slot: usize,
        /// Processors the crash actually took (what the repair restores).
        n: usize,
    },
}

struct TraceModel {
    state: SiteState,
    /// The caller's tasks and their true runtimes, shared, not copied.
    trace: TaskList,
    /// Arrivals not yet delivered — lets fault handling detect the end
    /// of the workload and stop scheduling crashes once the site is
    /// quiescent (otherwise an injector would tick forever). In workflow
    /// mode this counts *all* member tasks: releases and strandings
    /// decrement it alongside root arrivals.
    arrivals_left: usize,
    injector: Option<FaultInjector>,
    crash_budget: u64,
    /// The workflow overlay: releases successors as predecessors
    /// complete and settles workflow-level yield. `None` for plain task
    /// traces — every hook below is then a never-taken branch.
    workflows: Option<WorkflowRuntime>,
    /// Outcome records already fed to the workflow overlay.
    outcome_cursor: usize,
}

impl TraceModel {
    fn drained(&self) -> bool {
        self.arrivals_left == 0 && self.state.is_quiescent()
    }

    /// Feeds outcome records the last transition produced into the
    /// workflow runtime: completions release successors (scheduled as
    /// [`SimEvent::Release`] at `now`), failures strand waiting
    /// descendants, and a workflow's last member settles its
    /// end-to-end yield.
    fn advance_workflows(&mut self, now: Time, queue: &mut EventQueue<SimEvent>) {
        if self.workflows.is_none() {
            return;
        }
        while self.outcome_cursor < self.state.outcomes().len() {
            let out = self.state.outcomes()[self.outcome_cursor];
            self.outcome_cursor += 1;
            let wf = self.workflows.as_mut().expect("workflow mode");
            let progress = match out.disposition {
                Disposition::Completed => wf.on_complete(out.id.0, now),
                // Stranded outcomes are recorded by this very scan; the
                // runtime accounted them inside on_failure already.
                Disposition::Stranded => continue,
                _ => wf.on_failure(out.id.0, now),
            };
            for &r in &progress.released {
                let i = r as usize;
                debug_assert_eq!(self.trace[i].id.0, r, "workflow traces are dense");
                self.state.trace_workflow(
                    now,
                    Some(TaskId(r)),
                    TraceKind::WorkflowReleased {
                        workflow: wf_of(self.workflows.as_ref(), r),
                    },
                );
                queue.schedule(now, SimEvent::Release(i));
            }
            for &s in &progress.stranded {
                self.arrivals_left -= 1;
                let workflow = wf_of(self.workflows.as_ref(), s);
                self.state.note_stranded(now, TaskId(s));
                self.state.trace_workflow(
                    now,
                    Some(TaskId(s)),
                    TraceKind::WorkflowStranded { workflow },
                );
            }
            if let Some(s) = progress.settlement {
                self.state.trace_workflow(
                    now,
                    None,
                    TraceKind::WorkflowSettled {
                        workflow: s.workflow,
                        earned: s.earned,
                        attribution: s.attribution.clone(),
                    },
                );
            }
        }
    }
}

/// Owning workflow id of task `t` (workflow mode only).
fn wf_of(workflows: Option<&WorkflowRuntime>, t: u64) -> u64 {
    let set = workflows.expect("workflow mode").set();
    set.workflow_of(t as usize)
        .map(|w| set.workflows[w].id)
        .expect("workflow task has an owner")
}

impl Model for TraceModel {
    type Event = SimEvent;

    fn handle(&mut self, now: Time, event: SimEvent, queue: &mut EventQueue<SimEvent>) {
        let tokens = match event {
            SimEvent::Arrival(i) | SimEvent::Release(i) => {
                self.arrivals_left -= 1;
                let job = Job::with_true_runtime(self.trace[i], self.trace.true_runtime(i));
                self.state.submit(now, job).1
            }
            SimEvent::Completion(tok) => self.state.on_completion(now, tok),
            SimEvent::Crash(slot) => {
                if self.drained() {
                    return; // nothing left to disturb; let the run end
                }
                let killed = self.state.crash(1, now);
                let injector = self.injector.as_mut().expect("crash without injector");
                let down = injector.downtime(slot);
                queue.schedule(now + down, SimEvent::Repair { slot, n: killed });
                Vec::new()
            }
            SimEvent::Repair { slot, n } => {
                let tokens = self.state.repair(n, now);
                // Schedule the slot's next failure unless the workload is
                // over or the crash budget is spent.
                if self.crash_budget > 0 && !self.drained() {
                    let injector = self.injector.as_mut().expect("repair without injector");
                    self.crash_budget -= 1;
                    queue.schedule(now + injector.uptime(slot), SimEvent::Crash(slot));
                }
                tokens
            }
        };
        // Workflow releases are scheduled before this event's spawned
        // completion tokens — the same seq convention the market's
        // completion handler follows.
        self.advance_workflows(now, queue);
        for tok in tokens {
            queue.schedule(tok.at, SimEvent::Completion(tok));
        }
    }
}

/// A single-site trace replay as an explicit, steppable object. Build
/// it with [`new`](Self::new), [`with_faults`](Self::with_faults) or
/// [`with_workflows`](Self::with_workflows); [`finish`](Self::finish)
/// runs what is left and returns the outcome with the run's [`Tracer`].
/// Tracing is observational only: the outcome is bit-identical to an
/// untraced replay.
///
/// The durable-recovery layer drives one event at a time via
/// [`step`](Self::step), journaling each applied event, and checkpoints
/// the whole run via [`snapshot`](Self::snapshot) — restoring from the
/// snapshot and replaying the same events is bit-identical to never
/// having stopped.
pub struct SiteRun {
    engine: Engine<TraceModel>,
}

impl SiteRun {
    /// A fault-free replay of `trace`, ready to step. All arrivals are
    /// queued; the first [`step`](Self::step) handles the earliest one.
    pub fn new(config: SiteConfig, trace: &Trace, tracer: Tracer) -> Self {
        Self::start(config, trace.tasks.clone(), None, None, tracer)
    }

    /// A workflow replay: only root tasks are queued as arrivals; every
    /// other member enters the admission path via a
    /// [`SimEvent::Release`] once its last predecessor completes. The
    /// workflow-level settlement overlay (release/settle/strand trace
    /// events, and the [`WorkflowReport`] in [`SiteOutcome::workflows`])
    /// rides on top of the ordinary per-task accounting.
    pub fn with_workflows(config: SiteConfig, set: &WorkflowSet, tracer: Tracer) -> Self {
        let runtime = WorkflowRuntime::new(set.clone());
        Self::start(config, set.tasks.clone(), Some(runtime), None, tracer)
    }

    /// A replay with crash/repair events injected per `plan`: every
    /// processor slot crashes and repairs on its own timeline.
    pub fn with_faults(
        config: SiteConfig,
        trace: &Trace,
        plan: &FaultPlan,
        tracer: Tracer,
    ) -> Self {
        Self::start(config, trace.tasks.clone(), None, Some(plan), tracer)
    }

    /// The one constructor: arrivals go in as a feed (roots only in
    /// workflow mode), then each slot's first crash, drawn up front so a
    /// slot's timeline is independent of event interleaving.
    fn start(
        config: SiteConfig,
        tasks: TaskList,
        workflows: Option<WorkflowRuntime>,
        plan: Option<&FaultPlan>,
        tracer: Tracer,
    ) -> Self {
        let mut injector = None;
        let mut crash_budget = 0;
        let mut crashes = Vec::new();
        if let Some(plan) = plan {
            let mut inj = FaultInjector::new(plan.faults.clone(), plan.seed, config.processors);
            let first = config.processors.min(MAX_CRASHES as usize);
            crashes = (0..first)
                .map(|j| (Time::ZERO + inj.uptime(j), j))
                .collect();
            crash_budget = MAX_CRASHES - first as u64;
            injector = Some(inj);
        }
        let roots = workflows.as_ref().map(WorkflowRuntime::roots);
        let mut state = SiteState::new(config);
        state.set_tracer(tracer);
        let n = tasks.len();
        let shared = Arc::clone(&tasks.bids);
        let mut engine = Engine::new(TraceModel {
            state,
            arrivals_left: n,
            trace: tasks,
            injector,
            crash_budget,
            workflows,
            outcome_cursor: 0,
        });
        let arrival = move |i: usize| shared[i].arrival;
        match roots {
            Some(roots) => engine.feed(roots, arrival, SimEvent::Arrival),
            None => engine.feed(0..n, arrival, SimEvent::Arrival),
        }
        for (at, slot) in crashes {
            engine.schedule(at, SimEvent::Crash(slot));
        }
        SiteRun { engine }
    }

    /// Handles one event; `false` when the queue has drained.
    pub fn step(&mut self) -> bool {
        self.engine.step()
    }

    /// Events handled so far (the journal's event index).
    pub fn events_handled(&self) -> u64 {
        self.engine.events_handled()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// The next event to be handled, if any.
    pub fn next_event(&self) -> Option<(Time, &SimEvent)> {
        self.engine.queue().peek()
    }

    /// Read access to the underlying site (auditors, metrics).
    pub fn state(&self) -> &SiteState {
        &self.engine.model().state
    }

    /// Captures the full replay state at the current event boundary,
    /// borrowed from the run: the text of a [`SiteRunSnapshot`].
    pub fn snapshot(&self) -> SiteRunSnapshotRef<'_> {
        let model = self.engine.model();
        SiteRunSnapshotRef {
            site: model.state.snapshot(),
            trace: &model.trace,
            arrivals_left: model.arrivals_left,
            injector: model.injector.as_ref().map(|i| i.state()),
            crash_budget: model.crash_budget,
            workflows: model.workflows.as_ref(),
            outcome_cursor: model.outcome_cursor,
            queue: self.engine.queue().snapshot_entries(),
            next_seq: self.engine.queue().next_seq(),
            now: self.engine.now(),
            handled: self.engine.events_handled(),
        }
    }

    /// Rebuilds a run from the text of a [`snapshot`](Self::snapshot), read
    /// back as a [`SiteRunSnapshot`]; stepping it
    /// replays exactly the uninterrupted run's remaining events.
    pub fn from_snapshot(snap: SiteRunSnapshot) -> Self {
        let model = TraceModel {
            state: SiteState::from_snapshot(snap.site),
            trace: snap.trace,
            arrivals_left: snap.arrivals_left,
            injector: snap.injector.map(FaultInjector::from_state),
            crash_budget: snap.crash_budget,
            workflows: snap.workflows,
            outcome_cursor: snap.outcome_cursor,
        };
        let queue = EventQueue::restore(snap.queue, snap.next_seq);
        SiteRun {
            engine: Engine::from_parts(model, queue, snap.now, snap.handled),
        }
    }

    /// Handles every event still due, then consumes the run, producing
    /// the outcome and the tracer.
    pub fn finish(mut self) -> (SiteOutcome, Tracer) {
        self.engine.run_to_completion();
        let model = self.engine.into_model();
        let mut state = model.state;
        debug_assert!(
            state.is_quiescent(),
            "site still busy after event queue drained"
        );
        let tracer = state.take_tracer();
        let outcome = SiteOutcome {
            workflows: model.workflows.map(|w| w.report()),
            ..state.into_outcome()
        };
        (outcome, tracer)
    }
}

/// A [`SiteRun`] at an event boundary as [`SiteRun::snapshot`] writes it:
/// the borrowed writer of a [`SiteRunSnapshot`]'s text, field for field.
/// It copies the events due and borrows the rest.
#[derive(Debug, Serialize)]
pub struct SiteRunSnapshotRef<'a> {
    site: SiteSnapshotRef<'a>,
    trace: &'a TaskList,
    arrivals_left: usize,
    injector: Option<FaultInjectorState>,
    crash_budget: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    workflows: Option<&'a WorkflowRuntime>,
    outcome_cursor: usize,
    queue: Vec<(Time, u64, SimEvent)>,
    next_seq: u64,
    now: Time,
    handled: u64,
}

/// Serializable image of a whole [`SiteRun`] at an event boundary, read
/// back from the text [`SiteRun::snapshot`] writes:
/// site state + workload cursor + fault-injector RNG streams + the
/// pending event queue with its sequence numbers (FIFO tie-breaks
/// replay verbatim).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteRunSnapshot {
    /// The site.
    pub site: SiteSnapshot,
    /// The workload (arrival events index into it): the run's shared
    /// tasks and their true runtimes, not a copy.
    pub trace: TaskList,
    /// Arrivals not yet delivered.
    pub arrivals_left: usize,
    /// Fault-injector RNG streams, if faults are active.
    pub injector: Option<FaultInjectorState>,
    /// Crash events still permitted.
    pub crash_budget: u64,
    /// Workflow overlay state, when the run is a workflow replay.
    /// Absent from pre-workflow snapshots (and from serialized plain
    /// runs), which keep deserializing unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workflows: Option<WorkflowRuntime>,
    /// Outcome records already fed to the workflow overlay.
    #[serde(default)]
    pub outcome_cursor: usize,
    /// Pending events as `(time, seq, event)`.
    pub queue: Vec<(Time, u64, SimEvent)>,
    /// The queue's next sequence number.
    pub next_seq: u64,
    /// Simulation clock.
    pub now: Time,
    /// Events handled so far.
    pub handled: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::{generate_trace, MixConfig};

    #[test]
    fn trace_replay_completes_everything_under_accept_all() {
        let mix = MixConfig::millennium_default()
            .with_tasks(400)
            .with_processors(4);
        let trace = generate_trace(&mix, 3);
        let config = SiteConfig::new(4).with_policy(Policy::FirstPrice);
        let (outcome, _) = SiteRun::new(config, &trace, Tracer::Off).finish();
        assert_eq!(outcome.metrics.submitted, 400);
        assert_eq!(outcome.metrics.accepted, 400);
        assert_eq!(outcome.metrics.completed, 400);
        assert_eq!(outcome.metrics.rejected, 0);
        assert_eq!(outcome.outcomes.len(), 400);
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_mean() {
        let mix = MixConfig::millennium_default()
            .with_tasks(400)
            .with_processors(4)
            .with_load_factor(2.0);
        let trace = generate_trace(&mix, 8);
        let config = SiteConfig::new(4).with_policy(Policy::FirstPrice);
        let (outcome, _) = SiteRun::new(config, &trace, Tracer::Off).finish();
        let p50 = outcome.delay_percentile(0.5);
        let p95 = outcome.delay_percentile(0.95);
        let p99 = outcome.delay_percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(outcome.delay_percentile(0.0) <= p50);
        assert!(p99 <= outcome.delay_percentile(1.0));
        // Earnings percentiles stay within the value-function range.
        let e10 = outcome.earned_percentile(0.1);
        let e90 = outcome.earned_percentile(0.9);
        assert!(e10 <= e90);
    }

    #[test]
    fn percentiles_of_empty_outcome_are_nan() {
        let outcome = SiteOutcome {
            metrics: SiteMetrics::default(),
            outcomes: vec![],
            violations: vec![],
            workflows: None,
        };
        assert!(outcome.delay_percentile(0.5).is_nan());
        assert!(outcome.earned_percentile(0.5).is_nan());
    }

    #[test]
    fn traced_replay_captures_the_full_lifecycle() {
        use mbts_trace::TraceKind;
        let mix = MixConfig::millennium_default()
            .with_tasks(120)
            .with_processors(4)
            .with_load_factor(1.5);
        let trace = generate_trace(&mix, 21);
        let config = SiteConfig::new(4)
            .with_policy(Policy::first_reward(0.3, 0.01))
            .with_preemption(true);
        let (outcome, tracer) = SiteRun::new(config, &trace, Tracer::buffer()).finish();
        let events = tracer.into_events().unwrap();
        let arrived = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TaskArrived { .. }))
            .count();
        let completed = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Completed { .. }))
            .count();
        let scheduled = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Scheduled { .. }))
            .count();
        assert_eq!(arrived as u64, outcome.metrics.submitted as u64);
        assert_eq!(completed as u64, outcome.metrics.completed as u64);
        assert!(
            scheduled >= completed,
            "every completion was preceded by at least one start"
        );
        // Events arrive in nondecreasing time order.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// The site's trail is its trace: every arrival is a submission,
    /// every start either completes or is preempted, and the earned
    /// amounts sum to the total yield.
    #[test]
    fn site_records_a_consistent_audit_trail() {
        use mbts_trace::TraceKind;
        let mix = MixConfig::millennium_default()
            .with_tasks(120)
            .with_processors(4)
            .with_load_factor(2.0);
        let trace = generate_trace(&mix, 31);
        let config = SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let (outcome, tracer) = SiteRun::new(config, &trace, Tracer::buffer()).finish();
        let trail = tracer.into_events().unwrap();
        assert!(trail.windows(2).all(|w| w[0].at <= w[1].at));
        let count =
            |pred: &dyn Fn(&TraceKind) -> bool| trail.iter().filter(|e| pred(&e.kind)).count();
        let m = &outcome.metrics;
        assert_eq!(
            count(&|k| matches!(k, TraceKind::TaskArrived { .. })),
            m.submitted
        );
        assert_eq!(
            count(&|k| matches!(k, TraceKind::Completed { .. })),
            m.completed
        );
        assert!(m.preemptions > 0, "the run exercises preemption");
        assert_eq!(
            count(&|k| matches!(k, TraceKind::Preempted { .. })) as u64,
            m.preemptions
        );
        assert_eq!(
            count(&|k| matches!(k, TraceKind::Scheduled { .. })) as u64,
            m.completed as u64 + m.preemptions
        );
        let earned: f64 = trail
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Completed { earned, .. } => Some(earned),
                _ => None,
            })
            .sum();
        assert!((earned - m.total_yield).abs() < 1e-6);
    }

    #[test]
    fn zero_fault_plan_is_identical_to_plain_replay() {
        // No processor fails before the workload ends: the injector's
        // draws and its pending crashes leave no mark on the run.
        let mix = MixConfig::millennium_default()
            .with_tasks(200)
            .with_processors(4)
            .with_load_factor(1.5);
        let trace = generate_trace(&mix, 11);
        let config = SiteConfig::new(4).with_policy(Policy::FirstPrice);
        let plan = FaultPlan::new(UpDown::exponential(1e15, 1.0), 7);
        let (plain, plain_events) = SiteRun::new(config.clone(), &trace, Tracer::buffer()).finish();
        let (faulted, faulted_events) =
            SiteRun::with_faults(config, &trace, &plan, Tracer::buffer()).finish();
        assert_eq!(plain, faulted);
        assert_eq!(plain_events.into_events(), faulted_events.into_events());
    }

    #[test]
    fn faulty_replay_completes_with_a_clean_audit() {
        let mix = MixConfig::millennium_default()
            .with_tasks(300)
            .with_processors(8)
            .with_load_factor(1.5);
        let trace = generate_trace(&mix, 12);
        let config = SiteConfig::new(8).with_policy(Policy::FirstPrice);
        let plan = FaultPlan::new(UpDown::exponential(5_000.0, 200.0), 99);
        let (outcome, _) = SiteRun::with_faults(config, &trace, &plan, Tracer::Off).finish();
        // Every accepted task still finishes (restart semantics requeue
        // evicted work until it completes).
        assert_eq!(
            outcome.metrics.completed + outcome.metrics.dropped,
            outcome.metrics.accepted
        );
        assert!(outcome.metrics.crashed_procs > 0, "faults actually fired");
        assert_eq!(
            outcome.metrics.crashed_procs, outcome.metrics.repaired_procs,
            "every crash was repaired before the run ended"
        );
        assert!(outcome.violations.is_empty());
    }

    #[test]
    fn snapshot_midway_resumes_bit_identically() {
        // Checkpoint a (traced, faulted, preempting) run at assorted
        // event boundaries, JSON-roundtrip the snapshot, resume, and
        // demand the outcome and trace stream match the uninterrupted
        // run exactly.
        let mix = MixConfig::millennium_default()
            .with_tasks(150)
            .with_processors(4)
            .with_load_factor(1.8);
        let trace = generate_trace(&mix, 17);
        let config = SiteConfig::new(4)
            .with_policy(Policy::first_reward(0.3, 0.01))
            .with_preemption(true);
        let plan = FaultPlan::new(UpDown::exponential(2_000.0, 100.0), 5);
        let mut base = SiteRun::with_faults(config.clone(), &trace, &plan, Tracer::buffer());
        while base.step() {}
        let total = base.events_handled();
        let (expect_outcome, expect_tracer) = base.finish();
        let expect_events = expect_tracer.into_events().unwrap();
        for k in [0, 1, 7, total / 2, total - 1, total] {
            let mut run = SiteRun::with_faults(config.clone(), &trace, &plan, Tracer::buffer());
            for _ in 0..k {
                assert!(run.step());
            }
            let json = serde_json::to_string(&run.snapshot()).unwrap();
            let snap: SiteRunSnapshot = serde_json::from_str(&json).unwrap();
            let mut resumed = SiteRun::from_snapshot(snap);
            assert_eq!(resumed.events_handled(), k);
            while resumed.step() {}
            assert_eq!(resumed.events_handled(), total);
            let (outcome, tracer) = resumed.finish();
            assert_eq!(outcome, expect_outcome, "kill point {k}");
            assert_eq!(
                tracer.into_events().unwrap(),
                expect_events,
                "kill point {k}"
            );
        }
    }

    #[test]
    fn workflow_replay_completes_and_settles_every_workflow() {
        use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(6)
                .with_shape(WorkflowShape::ForkJoin { width: 3 }),
            42,
        );
        let config = SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_workflow_facets(set.facets());
        let (outcome, _) = SiteRun::with_workflows(config, &set, Tracer::Off).finish();
        let report = outcome.workflows.as_ref().expect("workflow replay");
        assert_eq!(outcome.metrics.completed, set.tasks.len());
        assert_eq!(report.workflows, 6);
        assert_eq!(report.settled, 6);
        assert_eq!(report.failed, 0);
        assert!(outcome.violations.is_empty());
        for s in &report.settlements {
            let attributed: f64 = s.attribution.iter().map(|(_, v)| v).sum();
            assert_eq!(attributed.to_bits(), s.earned.to_bits());
        }
    }

    #[test]
    fn workflow_release_order_respects_dependencies() {
        use mbts_trace::TraceKind;
        use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(4)
                .with_shape(WorkflowShape::Pipeline { depth: 4 }),
            9,
        );
        let config = SiteConfig::new(2).with_policy(Policy::first_reward(0.3, 0.01));
        let (outcome, tracer) = SiteRun::with_workflows(config, &set, Tracer::buffer()).finish();
        assert_eq!(outcome.workflows.expect("workflow replay").settled, 4);
        let events = tracer.into_events().unwrap();
        // Every non-root task's arrival is preceded by its release,
        // which is preceded by each predecessor's completion.
        for (p, s) in set.edge_ids() {
            let done = events
                .iter()
                .position(|e| {
                    e.task == Some(mbts_workload::TaskId(p))
                        && matches!(e.kind, TraceKind::Completed { .. })
                })
                .expect("predecessor completed");
            let released = events
                .iter()
                .position(|e| {
                    e.task == Some(mbts_workload::TaskId(s))
                        && matches!(e.kind, TraceKind::WorkflowReleased { .. })
                })
                .expect("successor released");
            assert!(done < released, "edge {p}->{s}");
        }
        let settles = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::WorkflowSettled { .. }))
            .count();
        assert_eq!(settles, 4);
    }

    #[test]
    fn workflow_snapshot_midway_resumes_bit_identically() {
        use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
        let set = generate_workflows(
            &WorkflowConfig::default_set().with_workflows(5).with_shape(
                WorkflowShape::RandomLayered {
                    layers: 3,
                    width: 2,
                    edge_prob: 0.5,
                },
            ),
            11,
        );
        let config = SiteConfig::new(3)
            .with_policy(Policy::first_reward(0.3, 0.01))
            .with_workflow_facets(set.facets());
        let mut base = SiteRun::with_workflows(config.clone(), &set, Tracer::buffer());
        while base.step() {}
        let total = base.events_handled();
        let (expect_outcome, expect_tracer) = base.finish();
        let expect_events = expect_tracer.into_events().unwrap();
        for k in [0, 1, total / 3, total / 2, total - 1, total] {
            let mut run = SiteRun::with_workflows(config.clone(), &set, Tracer::buffer());
            for _ in 0..k {
                assert!(run.step());
            }
            let json = serde_json::to_string(&run.snapshot()).unwrap();
            let snap: SiteRunSnapshot = serde_json::from_str(&json).unwrap();
            let resumed = SiteRun::from_snapshot(snap);
            let (outcome, tracer) = resumed.finish();
            assert_eq!(outcome, expect_outcome, "kill point {k}");
            assert_eq!(
                tracer.into_events().unwrap(),
                expect_events,
                "kill point {k}"
            );
        }
    }

    #[test]
    fn workflow_member_failure_strands_descendants() {
        use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
        // An admission threshold so hostile that released members get
        // rejected: the workflow must settle failed with zero earned and
        // its waiting descendants must be stranded, not left hanging.
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(3)
                .with_shape(WorkflowShape::Pipeline { depth: 3 }),
            5,
        );
        let config = SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_admission(mbts_core::AdmissionPolicy::SlackThreshold {
                threshold: f64::INFINITY,
            })
            .with_workflow_facets(set.facets());
        let (outcome, _) = SiteRun::with_workflows(config, &set, Tracer::Off).finish();
        let report = outcome.workflows.as_ref().expect("workflow replay");
        assert_eq!(report.settled, 3);
        assert_eq!(report.failed, 3);
        assert_eq!(report.total_earned, 0.0);
        // Roots rejected, the rest stranded; nothing ran.
        assert_eq!(outcome.metrics.completed, 0);
        assert_eq!(outcome.metrics.rejected, 3);
        assert_eq!(outcome.metrics.stranded, set.tasks.len() - 3);
        assert_eq!(outcome.outcomes.len(), set.tasks.len());
        assert!(outcome.violations.is_empty());
    }

    #[test]
    fn faulty_replays_are_reproducible() {
        let mix = MixConfig::millennium_default()
            .with_tasks(150)
            .with_processors(4);
        let trace = generate_trace(&mix, 13);
        let config = SiteConfig::new(4).with_policy(Policy::pv(0.01));
        let plan = FaultPlan::new(UpDown::exponential(2_000.0, 100.0), 5);
        let run = || {
            SiteRun::with_faults(config.clone(), &trace, &plan, Tracer::Off)
                .finish()
                .0
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.metrics.crashed_procs, b.metrics.crashed_procs);
    }
}
