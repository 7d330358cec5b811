//! The service's deterministic core: a command-sourced state machine over
//! [`SiteState`].
//!
//! Every externally-visible mutation of the live service — a submission, a
//! cancellation, an overload shed, the shutdown drain — is a [`Command`]
//! carrying a server-assigned sequence number and logical timestamp. The
//! machine's state is a pure function of the command log: replaying the
//! same commands into a fresh machine reproduces the site, the completion
//! queue, the status registry, and the trace byte-for-byte. That is the
//! property the durability layer leans on — the journal holds commands,
//! not effects, and `kill -9` recovery is "restore latest snapshot,
//! re-apply the command suffix".
//!
//! Time inside the machine is *logical*: the front-end stamps each command
//! with a sim-time instant derived from the wall clock, and the machine
//! only requires stamps to be monotone (it clamps regressions). Completion
//! events scheduled by the site that fall strictly before a command's stamp
//! are drained before the command applies, and those at the stamp after
//! it: a command takes an instant before a completion does, as an arrival
//! does in a site run, so the interleaving of completions and commands is
//! fully determined by the log and is the simulator's.

use std::collections::VecDeque;

use mbts_sim::{EventQueue, Time};
use mbts_site::{
    CompletionToken, SiteConfig, SiteMetrics, SiteSnapshot, SiteSnapshotRef, SiteState,
};
use mbts_trace::{DecisionCandidate, DecisionKind, TraceEvent, TraceKind, Tracer};
use mbts_workload::{TaskId, TaskSpec};
use serde::{Deserialize, Serialize, Writer};

/// Why an overload shed chose its victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The submission's value had fully decayed (or its deadline passed)
    /// while it waited in the admission queue.
    Expired,
    /// The submission had the lowest Eq. 3 present value among the queued
    /// candidates when the queue crossed the shed threshold.
    LowestValue,
}

/// One journaled service mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommandKind {
    /// Admit a task to the site (the site's own admission control still
    /// gets the final accept/reject word).
    Submit {
        /// The bid tuple; `spec.id` is server-assigned and dense.
        spec: TaskSpec,
    },
    /// Withdraw a pending task.
    Cancel {
        /// The task to withdraw.
        task: TaskId,
    },
    /// Drop a queued submission under overload, before it reached the
    /// site. Journaled so the shed — and its provenance record — replays
    /// deterministically.
    Shed {
        /// The dropped bid tuple (`spec.id` server-assigned, dense).
        spec: TaskSpec,
        /// Admission-queue depth the shed pass scanned.
        queue_depth: usize,
        /// Why this submission was the victim.
        reason: ShedReason,
    },
    /// Graceful-shutdown marker: run every outstanding completion to
    /// quiescence. A journal whose last command is `Drain` ends a clean
    /// shutdown; its absence means the process was killed.
    Drain,
}

/// A sequenced, timestamped [`CommandKind`] — one journal event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Command {
    /// Dense sequence number; must equal the machine's applied count.
    pub seq: u64,
    /// Logical timestamp (monotone; the machine clamps regressions).
    pub at: Time,
    /// The mutation.
    pub kind: CommandKind,
}

/// Terminal-or-current disposition of a task, as served by `/status`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskStatus {
    /// Admitted to the site; pending or running.
    Admitted,
    /// Refused by the site's admission control.
    Rejected,
    /// Dropped by the front-end's overload shed.
    Shed,
    /// Withdrawn by the submitter.
    Cancelled,
    /// Finished (completed or dropped at its penalty floor); `earned` is
    /// the realized yield.
    Finished {
        /// Realized (decayed) yield, penalties included.
        earned: f64,
    },
}

/// Monotone counters over everything the machine has applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCounters {
    /// Submissions the site admitted.
    pub accepted: u64,
    /// Submissions the site's admission control refused.
    pub rejected: u64,
    /// Submissions shed by the front-end under overload.
    pub shed: u64,
    /// Pending tasks withdrawn by cancel commands.
    pub cancelled: u64,
    /// Cancel commands that found no pending task.
    pub cancel_misses: u64,
    /// Tasks that ran to a terminal outcome (completed or dropped).
    pub finished: u64,
    /// Drain commands applied.
    pub drains: u64,
}

/// What applying one command did — the payload of the HTTP reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyOutcome {
    /// A submission was admitted (or refused) by the site.
    Submitted {
        /// The server-assigned task id.
        task: TaskId,
        /// The site's admission verdict.
        accepted: bool,
    },
    /// A cancel command ran; `found` says whether it withdrew anything.
    Cancelled {
        /// The targeted task.
        task: TaskId,
        /// Whether a pending task was actually withdrawn.
        found: bool,
    },
    /// A queued submission was dropped under overload.
    Shed {
        /// The server-assigned id of the dropped submission.
        task: TaskId,
        /// Why it was the victim.
        reason: ShedReason,
    },
    /// The drain marker applied; the site is quiescent.
    Drained,
}

/// Construction parameters for a fresh [`ServiceMachine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The site the service fronts.
    pub site: SiteConfig,
    /// Emit provenance decision records (admissions and sheds).
    pub provenance: bool,
    /// Maximum `/status` registry entries retained; the oldest task ids
    /// are evicted first, deterministically.
    pub status_capacity: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            site: SiteConfig::new(4),
            provenance: false,
            status_capacity: 65_536,
        }
    }
}

/// A [`ServiceMachine`] as [`ServiceMachine::snapshot`] writes it: the
/// borrowed writer of a [`ServiceSnapshot`]'s text, field for field. It
/// copies the outstanding completions and borrows the rest.
#[derive(Debug, Serialize)]
pub struct ServiceSnapshotRef<'a> {
    site: SiteSnapshotRef<'a>,
    completions: Vec<(Time, u64, CompletionToken)>,
    completions_next_seq: u64,
    now: Time,
    applied: u64,
    next_task_id: u64,
    registry: StatusPairs<'a>,
    status_capacity: usize,
    counters: ServeCounters,
    draining: bool,
}

/// The `/status` registry as a snapshot holds it: `[id, status]` pairs,
/// ascending by task id, the first of them `first`.
#[derive(Debug)]
struct StatusPairs<'a> {
    first: u64,
    statuses: &'a VecDeque<TaskStatus>,
}

impl Serialize for StatusPairs<'_> {
    fn serialize(&self, out: &mut Writer) {
        out.begin_array();
        for pair in (self.first..).zip(self.statuses) {
            out.element();
            pair.serialize(out);
        }
        out.end_array();
    }
}

/// Serializable full state of a [`ServiceMachine`] — the snapshot payload
/// the durability layer frames into the journal, read back from the text
/// [`ServiceMachine::snapshot`] writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// The wrapped site, tracer cursor included.
    pub site: SiteSnapshot,
    /// Outstanding completion events `(at, seq, token)`.
    pub completions: Vec<(Time, u64, CompletionToken)>,
    /// The completion queue's FIFO tiebreak cursor.
    pub completions_next_seq: u64,
    /// Logical clock after the last applied command.
    pub now: Time,
    /// Commands applied so far (== the next expected `Command::seq`).
    pub applied: u64,
    /// Next server-assigned task id.
    pub next_task_id: u64,
    /// The `/status` registry, ascending task id.
    pub registry: Vec<(u64, TaskStatus)>,
    /// Registry eviction bound.
    pub status_capacity: usize,
    /// Monotone service counters.
    pub counters: ServeCounters,
    /// Whether a drain marker has applied.
    pub draining: bool,
}

/// The deterministic service core — see the module docs.
pub struct ServiceMachine {
    site: SiteState,
    completions: EventQueue<CompletionToken>,
    now: Time,
    applied: u64,
    next_task_id: u64,
    /// The `/status` registry: the statuses of the newest `len` task ids,
    /// `[next_task_id - len, next_task_id)`, oldest first. Every `Submit`
    /// and `Shed` notes its id as it takes it and eviction drops the
    /// oldest, so the ids held are always that window.
    registry: VecDeque<TaskStatus>,
    status_capacity: usize,
    counters: ServeCounters,
    draining: bool,
}

impl std::fmt::Debug for ServiceMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceMachine")
            .field("now", &self.now)
            .field("applied", &self.applied)
            .field("next_task_id", &self.next_task_id)
            .field("outstanding_completions", &self.completions.len())
            .field("counters", &self.counters)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

impl ServiceMachine {
    /// A fresh machine at logical time zero.
    pub fn new(config: MachineConfig) -> Self {
        let mut site = SiteState::new(config.site);
        if config.provenance {
            site.set_tracer(Tracer::buffer().with_provenance());
        }
        ServiceMachine {
            site,
            completions: EventQueue::new(),
            now: Time::ZERO,
            applied: 0,
            next_task_id: 0,
            registry: VecDeque::new(),
            status_capacity: config.status_capacity.max(1),
            counters: ServeCounters::default(),
            draining: false,
        }
    }

    /// Logical clock after the last applied command.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Commands applied — the `seq` the next command must carry.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The id the next `Submit`/`Shed` command must carry.
    pub fn next_task_id(&self) -> u64 {
        self.next_task_id
    }

    /// Whether the drain marker has applied.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Monotone service counters.
    pub fn counters(&self) -> &ServeCounters {
        self.counters_ref()
    }

    fn counters_ref(&self) -> &ServeCounters {
        &self.counters
    }

    /// `/status` lookup.
    pub fn status(&self, task: u64) -> Option<TaskStatus> {
        self.registry.get(self.registry_slot(task)?).copied()
    }

    /// The oldest task id the registry holds.
    fn registry_first(&self) -> u64 {
        self.next_task_id - self.registry.len() as u64
    }

    /// Where the registry holds `task`, if it still does.
    fn registry_slot(&self, task: u64) -> Option<usize> {
        usize::try_from(task.checked_sub(self.registry_first())?).ok()
    }

    /// The wrapped site (read-only).
    pub fn site(&self) -> &SiteState {
        &self.site
    }

    /// Site metrics passthrough.
    pub fn metrics(&self) -> &SiteMetrics {
        self.site.metrics()
    }

    /// Invariant-auditor violations recorded by the site so far.
    pub fn violations(&self) -> usize {
        self.site.violations().len()
    }

    /// Completion events still outstanding.
    pub fn outstanding_completions(&self) -> usize {
        self.completions.len()
    }

    /// Consumes the machine and returns the captured trace, if its tracer
    /// kept one (provenance machines do).
    pub fn into_trace_events(mut self) -> Option<Vec<TraceEvent>> {
        self.site.take_tracer().into_events()
    }

    /// Stamps `kind` as the next command this machine accepts: the dense
    /// sequence number, `at` clamped to the logical clock, and — for
    /// `Submit`/`Shed` — the dense task id.
    pub fn command(&self, at: Time, mut kind: CommandKind) -> Command {
        if let CommandKind::Submit { spec } | CommandKind::Shed { spec, .. } = &mut kind {
            spec.id = TaskId(self.next_task_id);
        }
        Command {
            seq: self.applied,
            at: at.max(self.now),
            kind,
        }
    }

    /// Applies one command. `cmd.seq` must equal [`applied`](Self::applied)
    /// and a `Submit`/`Shed` id [`next_task_id`](Self::next_task_id), as
    /// [`command`](Self::command) stamps them: any other value is a logic
    /// error here. Journal replay goes through the `Recoverable` impl,
    /// which checks both first and refuses a command that does not follow.
    pub fn apply(&mut self, cmd: &Command) -> ApplyOutcome {
        assert_eq!(
            cmd.seq, self.applied,
            "command log must be dense: expected seq {}, got {}",
            self.applied, cmd.seq
        );
        let at = cmd.at.max(self.now);
        self.advance(at);
        let outcome = match &cmd.kind {
            CommandKind::Submit { spec } => {
                let id = self.take_task_id(spec.id);
                let (accepted, tokens) = self.site.submit(self.now, *spec);
                self.schedule_all(tokens);
                if accepted {
                    self.counters.accepted += 1;
                    self.note_new_status(TaskStatus::Admitted);
                } else {
                    self.counters.rejected += 1;
                    self.note_new_status(TaskStatus::Rejected);
                }
                ApplyOutcome::Submitted { task: id, accepted }
            }
            CommandKind::Cancel { task } => {
                let found = self.site.cancel_pending(self.now, *task);
                if found {
                    self.counters.cancelled += 1;
                    self.note_status(task.0, TaskStatus::Cancelled);
                } else {
                    self.counters.cancel_misses += 1;
                }
                ApplyOutcome::Cancelled { task: *task, found }
            }
            CommandKind::Shed {
                spec,
                queue_depth,
                reason,
            } => {
                let id = self.take_task_id(spec.id);
                self.counters.shed += 1;
                self.note_new_status(TaskStatus::Shed);
                self.emit_shed_record(*spec, *queue_depth);
                ApplyOutcome::Shed {
                    task: id,
                    reason: *reason,
                }
            }
            CommandKind::Drain => {
                self.draining = true;
                self.counters.drains += 1;
                self.run_to_quiescence();
                ApplyOutcome::Drained
            }
        };
        self.applied += 1;
        outcome
    }

    /// Pops every completion due strictly before `to`, then advances the
    /// clock to `to`. A completion due at `to` waits until the command
    /// stamped `to` has applied: a site run takes every arrival at an
    /// instant before any completion at it, and the machine keeps that
    /// order.
    fn advance(&mut self, to: Time) {
        while let Some(t) = self.completions.peek_time() {
            if t >= to {
                break;
            }
            let (t, token) = self.completions.pop().expect("peeked entry exists");
            if t > self.now {
                self.now = t;
            }
            self.settle_completion(t, token);
        }
        if to > self.now {
            self.now = to;
        }
    }

    fn run_to_quiescence(&mut self) {
        while let Some((t, token)) = self.completions.pop() {
            if t > self.now {
                self.now = t;
            }
            self.settle_completion(t, token);
        }
    }

    fn settle_completion(&mut self, at: Time, token: CompletionToken) {
        let (outcome, tokens) = self.site.on_completion_detailed(at, token);
        self.schedule_all(tokens);
        if let Some(o) = outcome {
            self.counters.finished += 1;
            self.note_status(o.id.0, TaskStatus::Finished { earned: o.earned });
        }
    }

    fn schedule_all(&mut self, tokens: Vec<CompletionToken>) {
        for t in tokens {
            self.completions.schedule(t.at, t);
        }
    }

    /// Checks a journaled `Submit`/`Shed` id against the dense counter and
    /// consumes it. The front-end assigns ids from
    /// [`next_task_id`](Self::next_task_id), so replay reproduces them.
    fn take_task_id(&mut self, id: TaskId) -> TaskId {
        assert_eq!(
            id.0, self.next_task_id,
            "journaled task ids must be dense: expected {}, got {}",
            self.next_task_id, id.0
        );
        self.next_task_id += 1;
        id
    }

    /// Notes the status of the task id just taken, the newest the
    /// registry holds, evicting the oldest first at capacity so that the
    /// window never outgrows it.
    fn note_new_status(&mut self, status: TaskStatus) {
        if self.registry.len() >= self.status_capacity {
            self.registry.pop_front();
        }
        self.registry.push_back(status);
    }

    /// Updates the status of a task the registry holds; one it has
    /// evicted stays evicted.
    fn note_status(&mut self, task: u64, status: TaskStatus) {
        if let Some(slot) = self
            .registry_slot(task)
            .and_then(|i| self.registry.get_mut(i))
        {
            *slot = status;
        }
    }

    /// Emits the `DecisionKind::Shed` provenance record: the victim's
    /// Eq. 7/8 decomposition at shed time, as the site's own admission
    /// explainer would have scored it.
    fn emit_shed_record(&mut self, spec: TaskSpec, queue_depth: usize) {
        let mut tracer = self.site.take_tracer();
        if tracer.is_provenance() {
            let d = self.site.evaluate(self.now, spec);
            tracer.emit(TraceEvent {
                at: self.now,
                task: Some(spec.id),
                site: None,
                kind: TraceKind::DecisionRecord {
                    decision: DecisionKind::Shed,
                    considered: queue_depth,
                    candidates: vec![DecisionCandidate {
                        rank: 1,
                        task: Some(spec.id),
                        site: None,
                        score: TraceEvent::finite(d.present_value),
                        pv: TraceEvent::finite(d.present_value),
                        cost: TraceEvent::finite(d.cost),
                        slack: TraceEvent::finite(d.slack),
                        workflow: None,
                        critical: None,
                        chosen: true,
                    }],
                },
            });
        }
        self.site.set_tracer(tracer);
    }

    /// Full serializable state, borrowed from the machine: the text of a
    /// [`ServiceSnapshot`].
    pub fn snapshot(&self) -> ServiceSnapshotRef<'_> {
        ServiceSnapshotRef {
            site: self.site.snapshot(),
            completions: self.completions.snapshot_entries(),
            completions_next_seq: self.completions.next_seq(),
            now: self.now,
            applied: self.applied,
            next_task_id: self.next_task_id,
            registry: StatusPairs {
                first: self.registry_first(),
                statuses: &self.registry,
            },
            status_capacity: self.status_capacity,
            counters: self.counters,
            draining: self.draining,
        }
    }

    /// The snapshot as canonical JSON — the bit-identity token used by
    /// recovery tests (tracer stream included).
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("service snapshots always serialize")
    }

    /// Rebuilds a machine from the text of a [`snapshot`](Self::snapshot),
    /// read back as a [`ServiceSnapshot`], or says why the snapshot is not
    /// one a machine writes: a registry that is not the window of the
    /// newest task ids, at most its capacity long.
    pub fn try_from_snapshot(snap: ServiceSnapshot) -> Result<Self, String> {
        let status_capacity = snap.status_capacity.max(1);
        let len = snap.registry.len();
        let first = snap.next_task_id.checked_sub(len as u64);
        let window = first.is_some_and(|first| {
            (first..)
                .zip(&snap.registry)
                .all(|(id, (key, _))| *key == id)
        });
        if !window || len > status_capacity {
            return Err(format!(
                "the status registry is not the newest task ids up to {} and at most {} of \
                 them ({len} entries)",
                snap.next_task_id, status_capacity
            ));
        }
        Ok(ServiceMachine {
            site: SiteState::from_snapshot(snap.site),
            completions: EventQueue::restore(snap.completions, snap.completions_next_seq),
            now: snap.now,
            applied: snap.applied,
            next_task_id: snap.next_task_id,
            registry: snap
                .registry
                .into_iter()
                .map(|(_, status)| status)
                .collect(),
            status_capacity,
            counters: snap.counters,
            draining: snap.draining,
        })
    }

    /// [`try_from_snapshot`](Self::try_from_snapshot) of a snapshot known
    /// to be one a machine wrote.
    ///
    /// # Panics
    ///
    /// On a snapshot `try_from_snapshot` refuses.
    pub fn from_snapshot(snap: ServiceSnapshot) -> Self {
        Self::try_from_snapshot(snap).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::PenaltyBound;

    fn spec(id: u64, arrival: f64, runtime: f64, value: f64) -> TaskSpec {
        TaskSpec::new(id, arrival, runtime, value, 0.1, PenaltyBound::ZERO)
    }

    fn submit(seq: u64, at: f64, s: TaskSpec) -> Command {
        Command {
            seq,
            at: Time::new(at),
            kind: CommandKind::Submit { spec: s },
        }
    }

    #[test]
    fn submit_complete_and_status_flow() {
        let mut m = ServiceMachine::new(MachineConfig::default());
        let out = m.apply(&submit(0, 0.0, spec(0, 0.0, 2.0, 10.0)));
        assert_eq!(
            out,
            ApplyOutcome::Submitted {
                task: TaskId(0),
                accepted: true
            }
        );
        assert_eq!(m.status(0), Some(TaskStatus::Admitted));
        assert_eq!(m.outstanding_completions(), 1);
        // A later command drains the completion first.
        m.apply(&submit(1, 5.0, spec(1, 5.0, 1.0, 4.0)));
        assert!(matches!(m.status(0), Some(TaskStatus::Finished { .. })));
        assert_eq!(m.counters().finished, 1);
        assert_eq!(m.counters().accepted, 2);
    }

    /// A submission stamped at the instant a job completes is taken before
    /// the completion, as a site run takes an arrival: the completion's
    /// dispatch then sees it. One processor, FirstPrice: task 0 runs
    /// [0, 10), task 1 (value 10) waits from 1, and task 2 (value 1000)
    /// arrives at 10 and wins the processor.
    #[test]
    fn a_command_at_a_completion_instant_applies_before_the_completion() {
        let tasks = [
            spec(0, 0.0, 10.0, 10.0),
            spec(1, 1.0, 10.0, 10.0),
            spec(2, 10.0, 10.0, 1000.0),
        ];
        let site = SiteConfig::new(1).with_policy(mbts_core::Policy::FirstPrice);
        let mut m = ServiceMachine::new(MachineConfig {
            site: site.clone(),
            ..MachineConfig::default()
        });
        for (seq, t) in tasks.iter().enumerate() {
            m.apply(&submit(seq as u64, t.arrival.as_f64(), *t));
        }
        let drain = m.command(m.now(), CommandKind::Drain);
        m.apply(&drain);
        let finished = |outcomes: &[mbts_site::JobOutcome]| {
            let mut by_id: Vec<_> = outcomes.iter().map(|o| (o.id.0, o.finished_at)).collect();
            by_id.sort_by_key(|(id, _)| *id);
            by_id
                .into_iter()
                .map(|(_, at)| at.map(Time::as_f64))
                .collect::<Vec<_>>()
        };
        let expected = vec![Some(10.0), Some(30.0), Some(20.0)];
        assert_eq!(finished(m.site().outcomes()), expected);
        let trace = mbts_workload::Trace::new(
            mbts_workload::MixConfig::millennium_default(),
            0,
            tasks.to_vec(),
        );
        let (run, _) = mbts_site::SiteRun::new(site, &trace, Tracer::Off).finish();
        assert_eq!(finished(&run.outcomes), expected);
    }

    #[test]
    fn cancel_hits_pending_and_misses_unknown() {
        // Single processor: the second task queues behind the first.
        let cfg = MachineConfig {
            site: SiteConfig::new(1),
            ..MachineConfig::default()
        };
        let mut m = ServiceMachine::new(cfg);
        m.apply(&submit(0, 0.0, spec(0, 0.0, 5.0, 10.0)));
        m.apply(&submit(1, 0.0, spec(1, 0.0, 5.0, 8.0)));
        let out = m.apply(&Command {
            seq: 2,
            at: Time::new(1.0),
            kind: CommandKind::Cancel { task: TaskId(1) },
        });
        assert_eq!(
            out,
            ApplyOutcome::Cancelled {
                task: TaskId(1),
                found: true
            }
        );
        assert_eq!(m.status(1), Some(TaskStatus::Cancelled));
        let out = m.apply(&Command {
            seq: 3,
            at: Time::new(1.0),
            kind: CommandKind::Cancel { task: TaskId(99) },
        });
        assert_eq!(
            out,
            ApplyOutcome::Cancelled {
                task: TaskId(99),
                found: false
            }
        );
        assert_eq!(m.counters().cancel_misses, 1);
    }

    #[test]
    fn drain_runs_site_to_quiescence() {
        let mut m = ServiceMachine::new(MachineConfig::default());
        m.apply(&submit(0, 0.0, spec(0, 0.0, 3.0, 9.0)));
        m.apply(&Command {
            seq: 1,
            at: Time::new(0.5),
            kind: CommandKind::Drain,
        });
        assert!(m.draining());
        assert_eq!(m.outstanding_completions(), 0);
        assert!(m.site().is_quiescent());
        assert_eq!(m.counters().finished, 1);
    }

    #[test]
    fn shed_counts_and_emits_provenance_record() {
        let cfg = MachineConfig {
            provenance: true,
            ..MachineConfig::default()
        };
        let mut m = ServiceMachine::new(cfg);
        m.apply(&Command {
            seq: 0,
            at: Time::new(1.0),
            kind: CommandKind::Shed {
                spec: spec(0, 1.0, 2.0, 6.0),
                queue_depth: 7,
                reason: ShedReason::LowestValue,
            },
        });
        assert_eq!(m.counters().shed, 1);
        assert_eq!(m.status(0), Some(TaskStatus::Shed));
        let events = m
            .into_trace_events()
            .expect("provenance machine keeps a buffer");
        let shed: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    TraceKind::DecisionRecord {
                        decision: DecisionKind::Shed,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(shed.len(), 1);
        let TraceKind::DecisionRecord {
            considered,
            candidates,
            ..
        } = &shed[0].kind
        else {
            unreachable!()
        };
        assert_eq!(*considered, 7);
        assert_eq!(candidates.len(), 1);
        assert!(candidates[0].chosen);
        assert!(candidates[0].pv > 0.0);
    }

    #[test]
    fn replay_of_command_log_is_bit_identical() {
        let cfg = MachineConfig {
            site: SiteConfig::new(2),
            provenance: true,
            status_capacity: 4,
        };
        let cmds = vec![
            submit(0, 0.0, spec(0, 0.0, 2.0, 10.0)),
            submit(1, 0.5, spec(1, 0.5, 1.0, 3.0)),
            Command {
                seq: 2,
                at: Time::new(0.75),
                kind: CommandKind::Shed {
                    spec: spec(2, 0.75, 1.0, 0.5),
                    queue_depth: 3,
                    reason: ShedReason::Expired,
                },
            },
            submit(3, 4.0, spec(3, 4.0, 2.0, 5.0)),
            Command {
                seq: 4,
                at: Time::new(4.5),
                kind: CommandKind::Drain,
            },
        ];
        let mut a = ServiceMachine::new(cfg.clone());
        let mut b = ServiceMachine::new(cfg);
        for c in &cmds {
            a.apply(c);
        }
        for c in &cmds {
            b.apply(c);
        }
        assert_eq!(a.snapshot_json(), b.snapshot_json());
    }

    #[test]
    fn snapshot_round_trip_resumes_mid_run() {
        let cfg = MachineConfig {
            site: SiteConfig::new(1),
            provenance: true,
            ..MachineConfig::default()
        };
        let mut m = ServiceMachine::new(cfg);
        m.apply(&submit(0, 0.0, spec(0, 0.0, 4.0, 9.0)));
        m.apply(&submit(1, 0.2, spec(1, 0.2, 1.0, 2.0)));
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        let snap: ServiceSnapshot = serde_json::from_str(&json).unwrap();
        let mut r = ServiceMachine::from_snapshot(snap);
        let tail = vec![
            Command {
                seq: 2,
                at: Time::new(1.0),
                kind: CommandKind::Cancel { task: TaskId(1) },
            },
            Command {
                seq: 3,
                at: Time::new(1.5),
                kind: CommandKind::Drain,
            },
        ];
        for c in &tail {
            m.apply(c);
        }
        for c in &tail {
            r.apply(c);
        }
        assert_eq!(m.snapshot_json(), r.snapshot_json());
    }

    #[test]
    fn registry_evicts_oldest_ids_deterministically() {
        let cfg = MachineConfig {
            status_capacity: 2,
            ..MachineConfig::default()
        };
        let mut m = ServiceMachine::new(cfg);
        for i in 0..4u64 {
            m.apply(&submit(
                i,
                i as f64 * 0.1,
                spec(i, i as f64 * 0.1, 10.0, 5.0),
            ));
        }
        assert_eq!(m.status(0), None);
        assert_eq!(m.status(1), None);
        assert!(m.status(2).is_some());
        assert!(m.status(3).is_some());
    }

    #[test]
    fn an_evicted_task_stays_evicted_when_it_finishes() {
        let cfg = MachineConfig {
            status_capacity: 2,
            ..MachineConfig::default()
        };
        let mut m = ServiceMachine::new(cfg);
        for i in 0..3u64 {
            m.apply(&submit(i, 0.0, spec(i, 0.0, 1.0, 5.0)));
        }
        assert_eq!(m.status(0), None);
        assert_eq!(m.status(2), Some(TaskStatus::Admitted));
        // Every task finishes before this command applies: task 0's
        // completion finds it evicted and leaves it so.
        m.apply(&Command {
            seq: 3,
            at: Time::new(10.0),
            kind: CommandKind::Cancel { task: TaskId(0) },
        });
        assert_eq!(m.counters().finished, 3);
        assert_eq!(m.status(0), None);
        assert!(matches!(m.status(1), Some(TaskStatus::Finished { .. })));
        assert!(matches!(m.status(2), Some(TaskStatus::Finished { .. })));
        assert_eq!(m.status(3), None);
        let snap: ServiceSnapshot = serde_json::from_str(&m.snapshot_json()).unwrap();
        assert_eq!(
            snap.registry.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn clock_clamps_regressions() {
        let mut m = ServiceMachine::new(MachineConfig::default());
        m.apply(&submit(0, 5.0, spec(0, 5.0, 1.0, 2.0)));
        // An earlier stamp must not rewind the clock.
        m.apply(&Command {
            seq: 1,
            at: Time::new(3.0),
            kind: CommandKind::Cancel { task: TaskId(0) },
        });
        assert_eq!(m.now(), Time::new(5.0));
    }
}
