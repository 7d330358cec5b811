//! The event taxonomy: one typed record per schedulable decision.
//!
//! Events are plain data — emitting one never reads back scheduler state,
//! so a traced replay takes exactly the same decisions as an untraced one.
//! All payload floats are kept finite (`±f64::MAX` stands in for ±∞ slack)
//! so every event round-trips through JSONL.

use crate::sink::{BufferSink, TraceSink};
use mbts_sim::Time;
use mbts_workload::TaskId;
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// Cap on the number of candidates carried by one [`TraceKind::DecisionRecord`].
/// Explainers keep the top-ranked candidates plus every chosen one; the
/// record's `considered` field preserves the true candidate-set size so
/// truncation is never silent.
pub const MAX_DECISION_CANDIDATES: usize = 16;

/// Which decision point produced a [`TraceKind::DecisionRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionKind {
    /// A queue-order dispatch: candidates are the pending pool plus the
    /// job that started; the chosen candidate is the dispatched job.
    Dispatch,
    /// An EASY backfill start ahead of a held reservation.
    Backfill,
    /// A preemption sweep: candidates are the running gangs scored
    /// against the arrival; chosen candidates are the evicted victims and
    /// the record's `task` is the incoming winner.
    Preempt,
    /// Slack-based admission control (Eq. 7/8): a single candidate whose
    /// `chosen` flag is the accept/reject verdict.
    Admission,
    /// The economy's bid selection: one candidate per site, `chosen`
    /// marking the winning bid (none chosen when every site declined).
    BidSelection,
    /// Overload shedding at a live service front-end: the candidate is
    /// the dropped submission (`chosen = true`), its `pv`/`cost`/`slack`
    /// the Eq. 7/8 decomposition at shed time, and `considered` the
    /// admission-queue depth the shed pass scanned. The summed `pv` of
    /// shed candidates is the service's "regret of shedding".
    Shed,
}

/// One scored alternative inside a [`TraceKind::DecisionRecord`]: the
/// policy score next to its decomposition — Eq. 3 present value, the
/// Eq. 8 opportunity-cost term, and the Eq. 7 slack between them.
///
/// For `Admission`/`BidSelection` records the `score` is the expected
/// yield of accepting (the admission counterfactual); for the scheduling
/// kinds it is the active policy's ranking score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionCandidate {
    /// 1-based rank among the considered candidates (score descending,
    /// task id ascending as the tiebreak).
    pub rank: usize,
    /// The candidate task, if the candidate is a task.
    pub task: Option<TaskId>,
    /// The candidate site (bid-selection records only).
    pub site: Option<usize>,
    /// The score the decision ranked this candidate by.
    pub score: f64,
    /// The workflow the candidate belongs to, when the run carries a
    /// workflow facet table (absent — and absent from the JSONL — for
    /// plain task workloads).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub workflow: Option<u64>,
    /// Whether the candidate lies on its workflow's static critical
    /// path (only meaningful when `workflow` is set).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub critical: Option<bool>,
    /// Eq. 3 discounted present value at decision time.
    pub pv: f64,
    /// Eq. 8 opportunity cost charged by the competing candidates.
    pub cost: f64,
    /// Eq. 7 slack, clamped finite per [`TraceEvent::finite`].
    pub slack: f64,
    /// Whether the decision selected this candidate.
    pub chosen: bool,
}

/// What happened. Payload fields carry the decision diagnostics the paper
/// reasons about: Eq. 3 present value, Eq. 8 opportunity cost, and the
/// slack between them for `Scheduled`; realized yield for `Completed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A task reached admission control (`accepted == false` means the
    /// site turned it away at the door).
    TaskArrived { accepted: bool },
    /// A gang started running. `rank` is the task's 1-based position in
    /// the queue ordering at start time; `backfill` marks an EASY
    /// backfill start ahead of a held reservation.
    Scheduled {
        rank: usize,
        pv: f64,
        cost: f64,
        slack: f64,
        width: usize,
        backfill: bool,
    },
    /// A running gang was preempted by a better-scoring arrival and moved
    /// back into the queue.
    Preempted { width: usize },
    /// A running gang lost its processors to a crash and was requeued,
    /// its progress lost.
    Requeued { width: usize },
    /// A task ran to completion. `earned` is the realized (decayed)
    /// yield; `delay` is time past the no-wait finish.
    Completed {
        earned: f64,
        delay: f64,
        width: usize,
        preemptions: u32,
    },
    /// A fully-decayed pending task was dropped at its penalty floor.
    Dropped { earned: f64 },
    /// A pending task was withdrawn by the submitter.
    Cancelled,
    /// `procs` processors crashed.
    Crashed { procs: usize },
    /// `procs` processors came back.
    Repaired { procs: usize },
    /// A contract settled at its task's completion and the client paid
    /// `amount` under the market's pricing rule (negative when a late
    /// task's penalty outweighs its value).
    ContractSettled { amount: f64 },
    /// A workflow task's predecessors all completed and the task entered
    /// the schedulable pool. `workflow` is the owning workflow id.
    WorkflowReleased { workflow: u64 },
    /// A workflow's last member task completed: the workflow-level value
    /// function settled `earned` (a reporting overlay on the per-task
    /// contract money flow, not a second payment), attributed along the
    /// static critical path as `(task id, share)` pairs summing exactly
    /// to `earned`.
    WorkflowSettled {
        workflow: u64,
        earned: f64,
        attribution: Vec<(u64, f64)>,
    },
    /// A workflow member failed (dropped, cancelled, rejected or
    /// abandoned), stranding this still-waiting descendant; the
    /// workflow settles with zero earned.
    WorkflowStranded { workflow: u64 },
    /// Chaos: a scheduled fault fired at a named failpoint (disk or
    /// socket). `point` is the full instance name (e.g.
    /// `durable.sink.write`, `serve.conn.read`), `action` the short
    /// fault label (`short_write`, `enospc`, `drop_conn`, …).
    /// Emitted by the `mbts chaos` orchestrator — engine-produced traces
    /// never contain it, so golden fixtures are unaffected.
    ChaosInjected {
        /// Failpoint instance that fired.
        point: String,
        /// Injected action label.
        action: String,
    },
    /// Chaos: the run recovered from the most recent fault at `point` —
    /// a crash-recovery replay completed or a degraded-mode response
    /// was served. `detail` says how (`replayed=123`, …).
    ChaosRecovered {
        /// Failpoint instance recovered from.
        point: String,
        /// How the run recovered.
        detail: String,
    },
    /// Provenance: the ranked candidate set behind one scheduling,
    /// preemption, admission, or bid-selection decision. Emitted only by
    /// provenance-level tracers ([`crate::Tracer::with_provenance`]) so
    /// default traces are byte-identical with and without this variant
    /// compiled in.
    DecisionRecord {
        /// Which decision point this explains.
        decision: DecisionKind,
        /// Size of the full candidate set before truncation to
        /// [`MAX_DECISION_CANDIDATES`].
        considered: usize,
        /// Retained candidates, rank order (every chosen candidate is
        /// always retained).
        candidates: Vec<DecisionCandidate>,
    },
}

/// One timestamped event. `task` is absent for site-wide events
/// (crash/repair); `site` is set only by the multi-site economy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation time of the decision.
    pub at: Time,
    /// The task involved, if any.
    pub task: Option<TaskId>,
    /// Originating site index (multi-site runs only).
    pub site: Option<usize>,
    /// The decision itself.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Clamps a possibly-infinite diagnostic (zero-decay slack) to the
    /// finite range so the event survives a JSONL round-trip.
    pub fn finite(x: f64) -> f64 {
        x.clamp(-f64::MAX, f64::MAX)
    }
}

/// Serializes events one-per-line, newline-terminated — the on-disk
/// format of golden fixtures and `--trace` output.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("trace events always serialize"));
        out.push('\n');
    }
    out
}

/// Why a JSONL event stream could not be read.
#[derive(Debug)]
pub enum JsonlError {
    /// Reading the stream failed (including bytes that are not UTF-8).
    Io(std::io::Error),
    /// A line that is not a trace event.
    Parse {
        /// The line's 1-based number in the stream, blank lines counted.
        line: usize,
        /// What the parser objected to.
        error: serde_json::Error,
    },
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "{e}"),
            JsonlError::Parse { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for JsonlError {}

/// Reads the JSONL form one line at a time, handing each event to `sink`
/// as it is parsed; blank lines are skipped.
pub fn read_jsonl(
    mut input: impl BufRead,
    sink: &mut (impl TraceSink + ?Sized),
) -> Result<(), JsonlError> {
    let (mut line, mut number) = (String::new(), 0);
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(JsonlError::Io)? == 0 {
            return Ok(());
        }
        number += 1;
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent = serde_json::from_str(&line).map_err(|error| JsonlError::Parse {
            line: number,
            error,
        })?;
        sink.record(&ev);
    }
}

/// Parses the JSONL form back; blank lines are ignored.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, JsonlError> {
    let mut buffer = BufferSink::new();
    read_jsonl(text.as_bytes(), &mut buffer)?;
    Ok(buffer.into_events())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: Time::new(0.0),
                task: Some(TaskId(1)),
                site: None,
                kind: TraceKind::TaskArrived { accepted: true },
            },
            TraceEvent {
                at: Time::new(1.5),
                task: Some(TaskId(1)),
                site: Some(2),
                kind: TraceKind::Scheduled {
                    rank: 1,
                    pv: 9.75,
                    cost: 0.25,
                    slack: TraceEvent::finite(f64::INFINITY),
                    width: 4,
                    backfill: false,
                },
            },
            TraceEvent {
                at: Time::new(7.0),
                task: Some(TaskId(1)),
                site: None,
                kind: TraceKind::Completed {
                    earned: 8.5,
                    delay: 1.5,
                    width: 4,
                    preemptions: 0,
                },
            },
            TraceEvent {
                at: Time::new(9.0),
                task: None,
                site: Some(0),
                kind: TraceKind::Crashed { procs: 3 },
            },
            TraceEvent {
                at: Time::new(10.0),
                task: Some(TaskId(2)),
                site: None,
                kind: TraceKind::DecisionRecord {
                    decision: DecisionKind::Dispatch,
                    considered: 3,
                    candidates: vec![
                        DecisionCandidate {
                            rank: 1,
                            task: Some(TaskId(2)),
                            site: None,
                            score: 4.5,
                            pv: 9.0,
                            cost: 4.5,
                            slack: 2.25,
                            workflow: None,
                            critical: None,
                            chosen: true,
                        },
                        DecisionCandidate {
                            rank: 2,
                            task: Some(TaskId(3)),
                            site: None,
                            score: 1.0,
                            pv: 3.0,
                            cost: 2.0,
                            slack: TraceEvent::finite(f64::NEG_INFINITY),
                            workflow: None,
                            critical: None,
                            chosen: false,
                        },
                    ],
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn infinite_slack_is_clamped_to_finite() {
        assert_eq!(TraceEvent::finite(f64::INFINITY), f64::MAX);
        assert_eq!(TraceEvent::finite(f64::NEG_INFINITY), -f64::MAX);
        assert_eq!(TraceEvent::finite(1.25), 1.25);
    }

    #[test]
    fn blank_lines_are_ignored_on_parse() {
        let events = sample();
        let text = format!("\n{}\n\n", to_jsonl(&events));
        assert_eq!(from_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn a_bad_line_is_named_by_its_number() {
        // A blank line, the events, a blank line, then the bad line.
        let events = sample();
        let text = format!("\n{}\n{{\"at\":1}}\n", to_jsonl(&events));
        match from_jsonl(&text) {
            Err(JsonlError::Parse { line, .. }) => assert_eq!(line, events.len() + 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
