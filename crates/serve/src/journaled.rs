//! Journal-first command application: the durability contract of the live
//! service.
//!
//! A [`ServiceRun`] owns a [`ServiceMachine`] and an `mbts-durable`
//! [`Journal`]. Every command is **appended to the journal before it is
//! applied** — the journal is the single source of truth, and the machine
//! is a deterministic fold over it. `kill -9` between append and apply
//! loses nothing: recovery replays the appended command. `kill -9` mid-
//! append leaves a torn tail that the CRC framing truncates, so the
//! command was simply never accepted (and the client never saw a reply).
//!
//! Snapshots are folded into the same journal on a command-count cadence,
//! bounding replay work without a second file.

use std::fmt;
use std::io;
use std::path::Path;

use mbts_durable::{recover_bytes, Journal, RecoverError};
use mbts_sim::profiler::{self, Section};
use mbts_sim::Time;
use mbts_workload::TaskId;

use crate::machine::{
    ApplyOutcome, Command, CommandKind, MachineConfig, ServiceMachine, ServiceSnapshot,
    SERVICE_SNAPSHOT_FORMAT,
};

/// Why a service journal could not be recovered.
#[derive(Debug)]
pub enum ServiceRecoverError {
    /// The journal itself was unrecoverable (no intact snapshot).
    Journal(RecoverError),
    /// The latest snapshot payload was not a service snapshot.
    BadSnapshot(String),
    /// An event payload after the snapshot was not a valid command.
    BadCommand {
        /// Index of the offending event within the replayed suffix.
        index: usize,
        /// Parse error detail.
        detail: String,
    },
}

impl fmt::Display for ServiceRecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceRecoverError::Journal(e) => write!(f, "journal unrecoverable: {e}"),
            ServiceRecoverError::BadSnapshot(d) => {
                write!(f, "latest snapshot is not a service snapshot: {d}")
            }
            ServiceRecoverError::BadCommand { index, detail } => {
                write!(
                    f,
                    "journal event {index} is not a service command: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceRecoverError {}

impl From<RecoverError> for ServiceRecoverError {
    fn from(e: RecoverError) -> Self {
        ServiceRecoverError::Journal(e)
    }
}

/// What recovery found and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceRecovery {
    /// Commands replayed from the suffix after the latest snapshot.
    pub replayed: u64,
    /// Torn/corrupt trailing bytes discarded by the framing scan.
    pub dropped_bytes: usize,
}

/// A machine bound to its journal — see the module docs.
#[derive(Debug)]
pub struct ServiceRun {
    machine: ServiceMachine,
    journal: Journal,
    snapshot_every: u64,
    since_snapshot: u64,
}

impl ServiceRun {
    /// Starts a fresh run: writes the genesis snapshot so the journal is
    /// recoverable from its very first byte.
    pub fn new(config: MachineConfig, journal: Journal, snapshot_every: u64) -> io::Result<Self> {
        let mut run = ServiceRun {
            machine: ServiceMachine::new(config),
            journal,
            snapshot_every,
            since_snapshot: 0,
        };
        run.snapshot_now()?;
        Ok(run)
    }

    /// Replays a journal byte image into a fresh machine. Pure — no file
    /// handles involved; pair with [`Journal::reopen`] to resume on disk.
    pub fn recover(bytes: &[u8]) -> Result<(ServiceMachine, ServiceRecovery), ServiceRecoverError> {
        let rec = recover_bytes(bytes)?;
        let snap: ServiceSnapshot = serde_json::from_slice(rec.snapshot)
            .map_err(|e| ServiceRecoverError::BadSnapshot(e.to_string()))?;
        if snap.format != SERVICE_SNAPSHOT_FORMAT {
            return Err(ServiceRecoverError::BadSnapshot(format!(
                "unsupported service snapshot format {}",
                snap.format
            )));
        }
        let mut machine = ServiceMachine::from_snapshot(snap);
        for (index, payload) in rec.events.iter().enumerate() {
            let cmd: Command =
                serde_json::from_slice(payload).map_err(|e| ServiceRecoverError::BadCommand {
                    index,
                    detail: e.to_string(),
                })?;
            machine.apply(&cmd);
        }
        Ok((
            machine,
            ServiceRecovery {
                replayed: rec.events.len() as u64,
                dropped_bytes: rec.dropped_bytes,
            },
        ))
    }

    /// Resumes (or starts) a run on a journal file: truncates any torn
    /// tail, replays the surviving prefix, and keeps appending to the same
    /// file. An empty or missing file starts a fresh run.
    pub fn resume_file(
        path: impl AsRef<Path>,
        config: MachineConfig,
        snapshot_every: u64,
        fsync_every_n: u64,
    ) -> io::Result<(Self, ServiceRecovery)> {
        let path = path.as_ref();
        if !path.exists() || std::fs::metadata(path)?.len() == 0 {
            let journal = Journal::create(path)?.with_fsync_every_n(fsync_every_n);
            let run = ServiceRun::new(config, journal, snapshot_every)?;
            return Ok((
                run,
                ServiceRecovery {
                    replayed: 0,
                    dropped_bytes: 0,
                },
            ));
        }
        let (journal, truncated) = Journal::reopen(path)?;
        let journal = journal.with_fsync_every_n(fsync_every_n);
        if journal.is_empty() {
            // Every record was torn — indistinguishable from a fresh file.
            let run = ServiceRun::new(config, journal, snapshot_every)?;
            return Ok((
                run,
                ServiceRecovery {
                    replayed: 0,
                    dropped_bytes: truncated,
                },
            ));
        }
        // The image is read back for this one replay and dropped with it:
        // from here on the file is the only copy of the journal.
        let (machine, mut recovery) = Self::recover(&journal.bytes())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        recovery.dropped_bytes += truncated;
        Ok((
            ServiceRun {
                machine,
                journal,
                snapshot_every,
                since_snapshot: recovery.replayed,
            },
            recovery,
        ))
    }

    /// Journal-first apply: assigns the dense task id (for `Submit`/`Shed`),
    /// stamps and sequences the command, appends it, then folds it into
    /// the machine. Returns the journaled command alongside the outcome so
    /// callers can mirror the exact log (tests, audits).
    pub fn apply(&mut self, at: Time, kind: CommandKind) -> io::Result<(Command, ApplyOutcome)> {
        let kind = self.assign_id(kind);
        let cmd = Command {
            seq: self.machine.applied(),
            at: at.max(self.machine.now()),
            kind,
        };
        let payload = serde_json::to_vec(&cmd).expect("service commands always serialize");
        // The durability half and the compute half of the apply path are
        // timed separately (fsync stalls vs fold cost), each into one
        // series that the profile and `/metrics` both read; the timers
        // only observe wall time, never feed into `at` or the payload.
        profiler::time(Section::ServeJournalAppend, || {
            self.journal.append_event(&payload)
        })?;
        let outcome = profiler::time(Section::ServeMachineApply, || self.machine.apply(&cmd));
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok((cmd, outcome))
    }

    fn assign_id(&self, kind: CommandKind) -> CommandKind {
        let id = TaskId(self.machine.next_task_id());
        match kind {
            CommandKind::Submit { mut spec } => {
                spec.id = id;
                CommandKind::Submit { spec }
            }
            CommandKind::Shed {
                mut spec,
                queue_depth,
                reason,
            } => {
                spec.id = id;
                CommandKind::Shed {
                    spec,
                    queue_depth,
                    reason,
                }
            }
            other => other,
        }
    }

    /// Folds a snapshot into the journal now and resets the cadence.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        // Above the machine this holds the typed snapshot and one buffer,
        // the record itself: the text is written where it is framed.
        profiler::time(Section::SnapshotWrite, || {
            let snapshot = self.machine.snapshot();
            self.journal.append_snapshot_with(|record| {
                serde_json::to_writer(record, &snapshot).expect("snapshots always serialize")
            })
        })?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Forces buffered journal bytes to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    /// The machine (read-only).
    pub fn machine(&self) -> &ServiceMachine {
        &self.machine
    }

    /// The journal (read-only; its `bytes()` are the full log, read back
    /// from the file when it has one).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Consumes the run, returning its parts.
    pub fn into_parts(self) -> (ServiceMachine, Journal) {
        (self.machine, self.journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ShedReason;
    use mbts_site::SiteConfig;
    use mbts_workload::{PenaltyBound, TaskSpec};

    fn config() -> MachineConfig {
        MachineConfig {
            site: SiteConfig::new(2),
            provenance: true,
            status_capacity: 1024,
        }
    }

    fn spec(runtime: f64, value: f64, at: f64) -> TaskSpec {
        TaskSpec::new(0, at, runtime, value, 0.2, PenaltyBound::ZERO)
    }

    fn drive(run: &mut ServiceRun) {
        run.apply(
            Time::new(0.0),
            CommandKind::Submit {
                spec: spec(2.0, 8.0, 0.0),
            },
        )
        .unwrap();
        run.apply(
            Time::new(0.5),
            CommandKind::Submit {
                spec: spec(1.0, 3.0, 0.5),
            },
        )
        .unwrap();
        run.apply(
            Time::new(0.75),
            CommandKind::Shed {
                spec: spec(1.0, 0.25, 0.75),
                queue_depth: 5,
                reason: ShedReason::LowestValue,
            },
        )
        .unwrap();
        run.apply(Time::new(1.0), CommandKind::Cancel { task: TaskId(1) })
            .unwrap();
    }

    #[test]
    fn journal_replay_matches_live_machine() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let (machine, journal) = run.into_parts();
        let (recovered, rec) = ServiceRun::recover(&journal.bytes()).unwrap();
        assert_eq!(rec.replayed, 4);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(recovered.snapshot_json(), machine.snapshot_json());
    }

    #[test]
    fn snapshot_cadence_bounds_replay() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 2).unwrap();
        drive(&mut run);
        let (machine, journal) = run.into_parts();
        let (recovered, rec) = ServiceRun::recover(&journal.bytes()).unwrap();
        // Snapshots at 2 and 4 applied commands: nothing left to replay.
        assert_eq!(rec.replayed, 0);
        assert_eq!(recovered.snapshot_json(), machine.snapshot_json());
    }

    #[test]
    fn torn_tail_loses_only_unacked_suffix() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let bytes = run.journal().bytes().to_vec();
        let mut recoverable_from = None;
        for cut in 0..=bytes.len() {
            match ServiceRun::recover(&bytes[..cut]) {
                Ok((m, _)) => {
                    recoverable_from.get_or_insert(cut);
                    assert!(m.applied() <= 4, "cut at {cut}");
                }
                Err(ServiceRecoverError::Journal(_)) => {
                    // Only legal before the genesis snapshot is intact.
                    assert!(
                        recoverable_from.is_none(),
                        "recovery regressed at cut {cut}"
                    );
                }
                Err(e) => panic!("cut at {cut}: unexpected {e}"),
            }
        }
        let first = recoverable_from.expect("journal becomes recoverable");
        assert!(first < bytes.len(), "full journal recovers");
        // And the full journal replays every command.
        let (full, _) = ServiceRun::recover(&bytes).unwrap();
        assert_eq!(full.applied(), 4);
    }

    #[test]
    fn recover_rejects_foreign_snapshot() {
        let mut j = Journal::in_memory();
        j.append_snapshot(b"{\"not\":\"a service snapshot\"}")
            .unwrap();
        assert!(matches!(
            ServiceRun::recover(&j.bytes()),
            Err(ServiceRecoverError::BadSnapshot(_))
        ));
    }

    #[test]
    fn resume_file_round_trips_and_appends() {
        let dir = std::env::temp_dir().join(format!("mbts-serve-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.journal");
        let _ = std::fs::remove_file(&path);

        let (mut run, rec) = ServiceRun::resume_file(&path, config(), 0, 0).unwrap();
        assert_eq!(rec.replayed, 0);
        drive(&mut run);
        run.sync().unwrap();
        let live_json = run.machine().snapshot_json();
        drop(run);

        let (mut resumed, rec) = ServiceRun::resume_file(&path, config(), 0, 0).unwrap();
        assert_eq!(rec.replayed, 4);
        assert_eq!(resumed.machine().snapshot_json(), live_json);
        // Appends keep working after resume.
        resumed.apply(Time::new(2.0), CommandKind::Drain).unwrap();
        assert!(resumed.machine().draining());
        drop(resumed);

        let (after, rec) = ServiceRun::resume_file(&path, config(), 0, 0).unwrap();
        assert_eq!(rec.replayed, 5);
        assert!(after.machine().draining());
        std::fs::remove_dir_all(&dir).ok();
    }
}
