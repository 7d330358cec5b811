//! Durable execution: the one journal-first driver. [`DurableRun`] wraps
//! any [`Recoverable`] fold — a site run, an economy run, the service
//! machine — so every input is journaled ahead of being applied and the
//! full replay state is snapshotted at a configurable cadence.
//!
//! Recovery loads the latest intact snapshot, then replays the journaled
//! input suffix through the same [`Recoverable::apply`] the live run used.
//! That call refuses an input that cannot follow the restored state (a
//! simulation checks it against the event it has due, the service its
//! dense sequence number and task id), so a journal paired with the wrong
//! run, or one with whole records cut out, is a typed
//! [`RecoverError::Divergence`] before any state drifts.

use crate::journal::{self, Journal, JournalSource, RecoverError, Recovered};
use mbts_market::{EcoEvent, EconomyRun, EconomySnapshot};
use mbts_sim::profiler::{self, Section};
use mbts_sim::Time;
use mbts_site::{SimEvent, SiteRun, SiteRunSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::io;

/// A deterministic fold over journaled inputs whose complete replay state
/// can be captured and restored between any two inputs.
///
/// The contract [`DurableRun`] relies on: `restore` of the text
/// `snapshot()` writes, followed by the same `apply`s, is bit-identical to
/// applying them to the original, and `apply` refuses — leaving the state
/// untouched — any input that could not have been the next one.
pub trait Recoverable: Sized {
    /// One journaled input: an event record's payload.
    type Input: Serialize + Deserialize;
    /// The complete replay state, as read back from a snapshot record.
    type Snapshot: Deserialize;
    /// What applying one input reports to the caller.
    type Outcome;

    /// Profiler sections the live path times its journal append and its
    /// fold in; `None` leaves them untimed.
    const SECTIONS: Option<(Section, Section)> = None;

    /// The input a self-driven run applies next — `None` once it is
    /// quiescent, and always for a run whose inputs come from outside.
    fn due(&self) -> Option<Self::Input>;

    /// Folds one input, or says why it cannot follow the current state.
    fn apply(&mut self, input: &Self::Input) -> Result<Self::Outcome, String>;

    /// Captures the state between inputs: the text of a
    /// [`Snapshot`](Self::Snapshot), written from the live state it
    /// borrows, so that the state is never held twice.
    fn snapshot(&self) -> impl Serialize + '_;

    /// Rebuilds a run from a captured state, or says why it cannot.
    fn restore(snapshot: Self::Snapshot) -> Result<Self, String>;
}

/// The replay check of a simulation: `(at, event)` must be exactly the
/// event the run has due next.
fn is_due<E: PartialEq + Debug>(
    due: Option<(Time, &E)>,
    at: Time,
    event: &E,
) -> Result<(), String> {
    match due {
        Some((t, e)) if t == at && e == event => Ok(()),
        Some((t, e)) => Err(format!(
            "journal says {:?}, replay is due {:?}",
            (at, event),
            (t, e)
        )),
        None => Err("journal holds events past quiescence".to_string()),
    }
}

impl Recoverable for SiteRun {
    type Input = (Time, SimEvent);
    type Snapshot = SiteRunSnapshot;
    type Outcome = ();

    fn due(&self) -> Option<(Time, SimEvent)> {
        self.next_event().map(|(at, e)| (at, *e))
    }

    fn apply(&mut self, (at, event): &(Time, SimEvent)) -> Result<(), String> {
        is_due(self.next_event(), *at, event)?;
        self.step();
        Ok(())
    }

    fn snapshot(&self) -> impl Serialize + '_ {
        SiteRun::snapshot(self)
    }

    fn restore(snapshot: SiteRunSnapshot) -> Result<Self, String> {
        Ok(SiteRun::from_snapshot(snapshot))
    }
}

impl Recoverable for EconomyRun {
    type Input = (Time, EcoEvent);
    type Snapshot = EconomySnapshot;
    type Outcome = ();

    fn due(&self) -> Option<(Time, EcoEvent)> {
        self.next_event().map(|(at, e)| (at, *e))
    }

    fn apply(&mut self, (at, event): &(Time, EcoEvent)) -> Result<(), String> {
        is_due(self.next_event(), *at, event)?;
        self.step();
        Ok(())
    }

    fn snapshot(&self) -> impl Serialize + '_ {
        EconomyRun::snapshot(self)
    }

    fn restore(snapshot: EconomySnapshot) -> Result<Self, String> {
        EconomyRun::from_snapshot(snapshot)
    }
}

/// What a successful recovery did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Inputs replayed from the journal suffix.
    pub replayed: u64,
    /// Event records superseded by the snapshot recovery started from.
    pub events_superseded: usize,
    /// Torn/corrupt trailing bytes discarded by the scan.
    pub dropped_bytes: usize,
}

/// A [`Recoverable`] run coupled to a write-ahead [`Journal`].
///
/// Construction writes a genesis snapshot; each [`apply`](Self::apply)
/// journals the input before folding it; every `snapshot_every` inputs a
/// fresh snapshot record bounds how much suffix recovery must replay.
/// Killing the process at *any* byte boundary leaves a journal
/// [`recover`](Self::recover) restores bit-identically.
#[derive(Debug)]
pub struct DurableRun<M: Recoverable> {
    run: M,
    journal: Journal,
    snapshot_every: u64,
    since_snapshot: u64,
}

impl<M: Recoverable> DurableRun<M> {
    /// Wraps `run`, writing its genesis snapshot into `journal`.
    /// `snapshot_every` = 0 means genesis-only (journal grows as pure
    /// input log).
    pub fn new(run: M, journal: Journal, snapshot_every: u64) -> io::Result<Self> {
        let mut durable = DurableRun {
            run,
            journal,
            snapshot_every,
            since_snapshot: 0,
        };
        durable.snapshot_now()?;
        Ok(durable)
    }

    /// Recovers the run `journal` holds and keeps appending to it: no
    /// genesis snapshot, and the cadence counts on from the replayed
    /// suffix, as if the process had never stopped. A file-backed journal
    /// whose file can no longer be read is [`RecoverError::Io`].
    pub fn resume(
        journal: Journal,
        snapshot_every: u64,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        // A file-backed journal's file is its only copy.
        let (run, report) = match journal.path() {
            Some(path) => Self::recover(&journal::load(path)?)?,
            None => Self::recover(&journal.bytes())?,
        };
        let durable = DurableRun {
            run,
            journal,
            snapshot_every,
            since_snapshot: report.replayed,
        };
        Ok((durable, report))
    }

    /// Serializes the current state into a snapshot record immediately.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        // Above the run this holds one buffer, the record itself: the text
        // is written from the live state it borrows, where it is framed.
        profiler::time(Section::SnapshotWrite, || {
            let snapshot = self.run.snapshot();
            self.journal.append_snapshot_with(|record| {
                serde_json::to_writer(record, &snapshot).expect("snapshots always serialize")
            })
        })?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Journals `input`, folds it, and snapshots if the cadence says so.
    /// The state moves only once the input's record is written: an error
    /// from the append leaves the run where it was, one from the cadence
    /// snapshot leaves it past the input. An input the run refuses is an
    /// `InvalidInput` error after its record was written, which recovery
    /// will refuse too; callers feed the due input or stamp theirs
    /// against the run, and never see it.
    pub fn apply(&mut self, input: &M::Input) -> io::Result<M::Outcome> {
        let payload = serde_json::to_vec(input).expect("journal inputs always serialize");
        timed(M::SECTIONS.map(|s| s.0), || {
            self.journal.append_event(&payload)
        })?;
        let outcome =
            timed(M::SECTIONS.map(|s| s.1), || self.run.apply(input)).map_err(|detail| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("journaled input does not follow the run: {detail}"),
                )
            })?;
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(outcome)
    }

    /// Applies the input the run has due; `Ok(false)` once it is
    /// quiescent.
    pub fn step(&mut self) -> io::Result<bool> {
        match self.run.due() {
            Some(input) => self.apply(&input).map(|_| true),
            None => Ok(false),
        }
    }

    /// Steps until quiescent.
    pub fn run_to_completion(&mut self) -> io::Result<()> {
        while self.step()? {}
        Ok(())
    }

    /// Forces buffered journal bytes to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    /// The wrapped run.
    pub fn run(&self) -> &M {
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
    pub fn into_parts(self) -> (M, Journal) {
        (self.run, self.journal)
    }

    /// Recovers a run from a journal — bytes in memory, or a file opened
    /// with [`load`](crate::load), which is streamed: latest intact
    /// snapshot plus checked replay of the input suffix. Any torn or
    /// corrupt tail is discarded, never panicked on; the report says how
    /// much.
    pub fn recover(
        source: &(impl JournalSource + ?Sized),
    ) -> Result<(M, RecoveryReport), RecoverError> {
        Self::recover_from(&source.recovered()?)
    }

    /// Restores the run from what one pass over its journal kept: the
    /// snapshot, then checked replay of the suffix. A caller that does not
    /// know which kind of run wrote a journal reads it once and tries each.
    pub fn recover_from(recovered: &Recovered) -> Result<(M, RecoveryReport), RecoverError> {
        let snapshot: M::Snapshot = serde_json::from_slice(&recovered.snapshot)
            .map_err(|e| RecoverError::BadSnapshot(e.to_string()))?;
        let mut run = M::restore(snapshot).map_err(RecoverError::BadSnapshot)?;
        for (index, payload) in recovered.events().enumerate() {
            let input: M::Input =
                serde_json::from_slice(payload).map_err(|e| RecoverError::BadEvent {
                    index,
                    detail: e.to_string(),
                })?;
            run.apply(&input)
                .map_err(|detail| RecoverError::Divergence { index, detail })?;
        }
        Ok((
            run,
            RecoveryReport {
                replayed: recovered.events().len() as u64,
                events_superseded: recovered.events_superseded,
                dropped_bytes: recovered.dropped_bytes,
            },
        ))
    }
}

fn timed<R>(section: Option<Section>, f: impl FnOnce() -> R) -> R {
    match section {
        Some(section) => profiler::time(section, f),
        None => f(),
    }
}
