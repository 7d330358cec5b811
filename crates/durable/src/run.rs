//! Durable execution: wraps a stepwise simulation run so every applied
//! event is journaled ahead of application and the full replay state is
//! snapshotted at a configurable cadence.
//!
//! Recovery loads the latest intact snapshot, then replays the journaled
//! event suffix — verifying record by record that the restored state is
//! about to apply exactly the event the journal says was applied, which
//! catches a journal paired with the wrong run before any state drifts.

use crate::journal::{self, Journal, RecoverError};
use mbts_market::{EconomyConfig, EconomyRun, EconomySnapshot};
use mbts_site::{SiteConfig, SiteRun, SiteRunSnapshot};
use mbts_trace::Tracer;
use mbts_workload::Trace;
use serde::{Deserialize, Serialize};
use std::io;

/// A stepwise simulation whose complete replay state can be captured and
/// restored at any event boundary.
///
/// The contract [`DurableRun`] relies on: `restore(snapshot())` followed
/// by `step()`s is bit-identical to stepping the original, and
/// [`next_event_json`](Recoverable::next_event_json) is deterministic
/// (same state ⇒ same bytes).
pub trait Recoverable: Sized {
    /// Serialized form of the complete replay state.
    type Snapshot: Serialize + Deserialize;

    /// Captures the state at the current event boundary.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rebuilds a run from a captured state.
    fn restore(snapshot: Self::Snapshot) -> Self;

    /// The next event due, serialized as `(time, event)` JSON — `None`
    /// once the run is quiescent.
    fn next_event_json(&self) -> Option<String>;

    /// Applies the next event; `false` once the run is quiescent.
    fn step(&mut self) -> bool;

    /// Events applied so far.
    fn events_handled(&self) -> u64;
}

impl Recoverable for SiteRun {
    type Snapshot = SiteRunSnapshot;

    fn snapshot(&self) -> SiteRunSnapshot {
        SiteRun::snapshot(self)
    }

    fn restore(snapshot: SiteRunSnapshot) -> Self {
        SiteRun::from_snapshot(snapshot)
    }

    fn next_event_json(&self) -> Option<String> {
        self.next_event()
            .map(|(at, e)| serde_json::to_string(&(at, *e)).expect("sim events serialize"))
    }

    fn step(&mut self) -> bool {
        SiteRun::step(self)
    }

    fn events_handled(&self) -> u64 {
        SiteRun::events_handled(self)
    }
}

impl Recoverable for EconomyRun {
    type Snapshot = EconomySnapshot;

    fn snapshot(&self) -> EconomySnapshot {
        EconomyRun::snapshot(self)
    }

    fn restore(snapshot: EconomySnapshot) -> Self {
        EconomyRun::from_snapshot(snapshot)
    }

    fn next_event_json(&self) -> Option<String> {
        self.next_event()
            .map(|(at, e)| serde_json::to_string(&(at, *e)).expect("eco events serialize"))
    }

    fn step(&mut self) -> bool {
        EconomyRun::step(self)
    }

    fn events_handled(&self) -> u64 {
        EconomyRun::events_handled(self)
    }
}

/// What a successful recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events replayed from the journal suffix.
    pub replayed_events: u64,
    /// Event records superseded by the snapshot recovery started from.
    pub events_superseded: usize,
    /// Torn/corrupt trailing bytes discarded by the scan.
    pub dropped_bytes: usize,
}

/// A [`Recoverable`] run coupled to a write-ahead [`Journal`].
///
/// Construction writes a genesis snapshot; each [`step`](Self::step)
/// journals the due event before applying it; every `snapshot_every`
/// events a fresh snapshot record bounds how much suffix recovery must
/// replay. Killing the process at *any* byte boundary leaves a journal
/// [`recover`](Self::recover) restores bit-identically.
pub struct DurableRun<R: Recoverable> {
    run: R,
    journal: Journal,
    snapshot_every: u64,
    since_snapshot: u64,
}

impl<R: Recoverable> DurableRun<R> {
    /// Wraps `run`, writing its genesis snapshot into `journal`.
    /// `snapshot_every` = 0 means genesis-only (journal grows as pure
    /// event log).
    pub fn new(run: R, journal: Journal, snapshot_every: u64) -> io::Result<Self> {
        let mut durable = DurableRun {
            run,
            journal,
            snapshot_every,
            since_snapshot: 0,
        };
        durable.snapshot_now()?;
        Ok(durable)
    }

    /// Serializes the current state into a snapshot record immediately.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        mbts_sim::profiler::time(mbts_sim::profiler::Section::SnapshotWrite, || {
            let snapshot = self.run.snapshot();
            self.journal.append_snapshot_with(|record| {
                serde_json::to_writer(record, &snapshot).expect("snapshots always serialize")
            })?;
            self.since_snapshot = 0;
            Ok(())
        })
    }

    /// Journals the next due event, applies it, and snapshots if the
    /// cadence says so; `Ok(false)` once the run is quiescent.
    pub fn step(&mut self) -> io::Result<bool> {
        let Some(event_json) = self.run.next_event_json() else {
            return Ok(false);
        };
        self.journal.append_event(event_json.as_bytes())?;
        let stepped = self.run.step();
        debug_assert!(stepped, "a due event must be steppable");
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(true)
    }

    /// Steps until quiescent.
    pub fn run_to_completion(&mut self) -> io::Result<()> {
        while self.step()? {}
        Ok(())
    }

    /// The wrapped run.
    pub fn run(&self) -> &R {
        &self.run
    }

    /// The journal written so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Journal length in bytes — each value observed between steps is a
    /// kill point a harness can truncate to.
    pub fn offset(&self) -> usize {
        self.journal.len()
    }

    /// Unwraps into the run and its journal.
    pub fn into_parts(self) -> (R, Journal) {
        (self.run, self.journal)
    }

    /// Recovers a run from journal bytes: latest intact snapshot plus
    /// verified replay of the event suffix. Any torn or corrupt tail is
    /// discarded, never panicked on; the report says how much.
    pub fn recover(bytes: &[u8]) -> Result<(R, RecoveryReport), RecoverError> {
        let recovered = journal::recover_bytes(bytes)?;
        let snap_str = std::str::from_utf8(recovered.snapshot)
            .map_err(|e| RecoverError::BadSnapshot(e.to_string()))?;
        let snap: R::Snapshot =
            serde_json::from_str(snap_str).map_err(|e| RecoverError::BadSnapshot(e.to_string()))?;
        let mut run = R::restore(snap);
        let mut replayed = 0u64;
        for (index, journaled) in recovered.events.iter().enumerate() {
            let due = run
                .next_event_json()
                .ok_or_else(|| RecoverError::Divergence {
                    index,
                    detail: "journal holds events past quiescence".to_string(),
                })?;
            if due.as_bytes() != *journaled {
                return Err(RecoverError::Divergence {
                    index,
                    detail: format!(
                        "journal says {:?}, replay is due {:?}",
                        String::from_utf8_lossy(journaled),
                        due
                    ),
                });
            }
            run.step();
            replayed += 1;
        }
        Ok((
            run,
            RecoveryReport {
                replayed_events: replayed,
                events_superseded: recovered.events_superseded,
                dropped_bytes: recovered.dropped_bytes,
            },
        ))
    }
}

/// A journaled single-site run: genesis snapshot written, periodic
/// snapshots every `snapshot_every` events.
pub fn durable_site_run(
    config: SiteConfig,
    trace: &Trace,
    tracer: Tracer,
    journal: Journal,
    snapshot_every: u64,
) -> io::Result<DurableRun<SiteRun>> {
    DurableRun::new(SiteRun::new(config, trace, tracer), journal, snapshot_every)
}

/// A journaled workflow replay on one site: only roots are
/// pre-scheduled, successors release as predecessors complete, and the
/// workflow overlay's state rides inside every snapshot — a crash
/// between a completion and the release it triggers recovers
/// bit-identically.
pub fn durable_site_workflow_run(
    config: SiteConfig,
    set: &mbts_workload::WorkflowSet,
    tracer: Tracer,
    journal: Journal,
    snapshot_every: u64,
) -> io::Result<DurableRun<SiteRun>> {
    DurableRun::new(
        SiteRun::with_workflows(config, set, tracer),
        journal,
        snapshot_every,
    )
}

/// A journaled economy run: genesis snapshot written, periodic snapshots
/// every `snapshot_every` events.
pub fn durable_economy_run(
    config: EconomyConfig,
    trace: &Trace,
    tracer: Tracer,
    journal: Journal,
    snapshot_every: u64,
) -> io::Result<DurableRun<EconomyRun>> {
    DurableRun::new(
        EconomyRun::new(config, trace, tracer),
        journal,
        snapshot_every,
    )
}
