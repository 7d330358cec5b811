//! Journal-first command application: the durability contract of the live
//! service.
//!
//! [`ServiceMachine`] is a [`Recoverable`] fold over [`Command`]s, and a
//! [`ServiceRun`] drives it through the workspace's one journaled driver,
//! [`DurableRun`]: every command is **appended to the journal before it
//! is applied** — the journal is the single source of truth, and the
//! machine is a deterministic fold over it. `kill -9` between append and
//! apply loses nothing: recovery replays the appended command. `kill -9`
//! mid-append leaves a torn tail that the CRC framing truncates, so the
//! command was simply never accepted (and the client never saw a reply).
//!
//! What `ServiceRun` adds is the stamping: the daemon hands it a request's
//! arrival time and kind, and it assigns the sequence number, clamped
//! logical time and dense task id that make the command the machine's
//! next one. Snapshots are folded into the same journal on a
//! command-count cadence, bounding replay work without a second file.

use std::io;
use std::path::Path;

use mbts_durable::{DurableRun, Journal, JournalSource, RecoverError, Recoverable, RecoveryReport};
use mbts_sim::profiler::Section;
use mbts_sim::Time;

use crate::machine::{
    ApplyOutcome, Command, CommandKind, MachineConfig, ServiceMachine, ServiceSnapshot,
};

/// Replay's check is the one the live path's stamping guarantees: a
/// command follows when it carries the next sequence number and, for a
/// `Submit`/`Shed`, the next task id. Anything else was cut out of, or
/// spliced into, the log.
impl Recoverable for ServiceMachine {
    type Input = Command;
    type Snapshot = ServiceSnapshot;
    type Outcome = ApplyOutcome;

    // The durability half and the compute half of the apply path are
    // timed separately (fsync stalls vs fold cost), each into one series
    // that the profile and `/metrics` both read; the timers only observe
    // wall time, never feed into `at` or the payload.
    const SECTIONS: Option<(Section, Section)> =
        Some((Section::ServeJournalAppend, Section::ServeMachineApply));

    fn due(&self) -> Option<Command> {
        None
    }

    fn apply(&mut self, cmd: &Command) -> Result<ApplyOutcome, String> {
        let (seq, id) = (self.applied(), self.next_task_id());
        if cmd.seq != seq {
            return Err(format!(
                "command log must be dense: expected seq {seq}, got {}",
                cmd.seq
            ));
        }
        if let CommandKind::Submit { spec } | CommandKind::Shed { spec, .. } = &cmd.kind {
            if spec.id.0 != id {
                let got = spec.id.0;
                return Err(format!(
                    "journaled task ids must be dense: expected {id}, got {got}"
                ));
            }
        }
        Ok(ServiceMachine::apply(self, cmd))
    }

    fn snapshot(&self) -> impl serde::Serialize + '_ {
        ServiceMachine::snapshot(self)
    }

    fn restore(snapshot: ServiceSnapshot) -> Result<Self, String> {
        ServiceMachine::try_from_snapshot(snapshot)
    }
}

/// The daemon's stamping front over a journaled [`ServiceMachine`] — see
/// the module docs.
#[derive(Debug)]
pub struct ServiceRun {
    durable: DurableRun<ServiceMachine>,
}

impl ServiceRun {
    /// Starts a fresh run: writes the genesis snapshot so the journal is
    /// recoverable from its very first byte.
    pub fn new(config: MachineConfig, journal: Journal, snapshot_every: u64) -> io::Result<Self> {
        let durable = DurableRun::new(ServiceMachine::new(config), journal, snapshot_every)?;
        Ok(ServiceRun { durable })
    }

    /// Replays a journal — bytes in memory, or a file opened with
    /// [`mbts_durable::load`], which is streamed — into a fresh machine.
    /// Nothing is written; [`resume_file`](Self::resume_file) resumes on
    /// disk.
    pub fn recover(
        source: &(impl JournalSource + ?Sized),
    ) -> Result<(ServiceMachine, RecoveryReport), RecoverError> {
        DurableRun::recover(source)
    }

    /// Resumes (or starts) a run on a journal file: truncates any torn
    /// tail, replays the surviving prefix, and keeps appending to the same
    /// file. An empty or missing file starts a fresh run. The file is
    /// streamed, never read whole: what recovery holds is the latest
    /// snapshot and the commands after it.
    pub fn resume_file(
        path: impl AsRef<Path>,
        config: MachineConfig,
        snapshot_every: u64,
        fsync_every_n: u64,
    ) -> io::Result<(Self, RecoveryReport)> {
        let path = path.as_ref();
        let (journal, truncated) = if path.exists() && std::fs::metadata(path)?.len() > 0 {
            Journal::reopen(path)?
        } else {
            (Journal::create(path)?, 0)
        };
        let journal = journal.with_fsync_every_n(fsync_every_n);
        let (durable, mut report) = if journal.is_empty() {
            // A new file, or every record was torn: nothing to recover.
            let durable = DurableRun::new(ServiceMachine::new(config), journal, snapshot_every)?;
            (durable, RecoveryReport::default())
        } else {
            DurableRun::resume(journal, snapshot_every)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        };
        report.dropped_bytes += truncated;
        Ok((ServiceRun { durable }, report))
    }

    /// Journal-first apply: stamps `kind` as the machine's next command
    /// ([`ServiceMachine::command`]), appends it, then folds it into the
    /// machine. Returns the journaled command alongside the outcome so
    /// callers can mirror the exact log (tests, audits).
    pub fn apply(&mut self, at: Time, kind: CommandKind) -> io::Result<(Command, ApplyOutcome)> {
        let cmd = self.machine().command(at, kind);
        let outcome = self.durable.apply(&cmd)?;
        Ok((cmd, outcome))
    }

    /// Folds a snapshot into the journal now and resets the cadence.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        self.durable.snapshot_now()
    }

    /// Forces buffered journal bytes to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.durable.sync()
    }

    /// The machine (read-only).
    pub fn machine(&self) -> &ServiceMachine {
        self.durable.run()
    }

    /// The journal (read-only; its `bytes()` are the full log, read back
    /// from the file when it has one).
    pub fn journal(&self) -> &Journal {
        self.durable.journal()
    }

    /// Consumes the run, returning its parts.
    pub fn into_parts(self) -> (ServiceMachine, Journal) {
        self.durable.into_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ShedReason;
    use mbts_durable::framing;
    use mbts_site::SiteConfig;
    use mbts_workload::{PenaltyBound, TaskId, TaskSpec};

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
                Err(RecoverError::Framing(_) | RecoverError::NoSnapshot) => {
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
            Err(RecoverError::BadSnapshot(_))
        ));
    }

    #[test]
    fn recover_refuses_a_registry_that_is_not_the_newest_task_ids() {
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let text = run.machine().snapshot_json();
        let snap: ServiceSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap.next_task_id, 3);
        assert_eq!(
            snap.registry.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        type Edit = fn(&mut ServiceSnapshot);
        let edits: [(&str, Edit); 5] = [
            ("a gap", |s| {
                s.registry.remove(1);
            }),
            ("out of order", |s| s.registry.swap(0, 1)),
            ("short of the newest id", |s| {
                s.registry.pop();
            }),
            ("past the newest id", |s| s.next_task_id = 2),
            ("over capacity", |s| s.status_capacity = 2),
        ];
        for (what, edit) in edits {
            let mut bad = snap.clone();
            edit(&mut bad);
            let mut j = Journal::in_memory();
            j.append_snapshot(&serde_json::to_vec(&bad).unwrap())
                .unwrap();
            match ServiceRun::recover(&j.bytes()) {
                Err(RecoverError::BadSnapshot(detail)) => {
                    assert!(detail.contains("status registry"), "{what}: {detail}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
        // Unedited, the same text restores.
        let mut j = Journal::in_memory();
        j.append_snapshot(text.as_bytes()).unwrap();
        let (restored, _) = ServiceRun::recover(&j.bytes()).unwrap();
        assert_eq!(restored.snapshot_json(), text);
    }

    #[test]
    fn recover_refuses_a_log_with_a_command_cut_out() {
        // Genesis-only journal: records are [snapshot, cmd 0, cmd 1, …].
        let mut run = ServiceRun::new(config(), Journal::in_memory(), 0).unwrap();
        drive(&mut run);
        let bytes = run.journal().bytes().to_vec();
        let mut spliced = Vec::new();
        framing::write_header(&mut spliced);
        let scan = framing::scan(&bytes).unwrap();
        for (i, (tag, payload)) in scan.records.iter().enumerate() {
            // Record 2 is cmd 1, a Submit: both its seq and its id go missing.
            if i != 2 {
                framing::append_record(&mut spliced, *tag, payload);
            }
        }
        let err = ServiceRun::recover(&spliced).unwrap_err();
        assert!(
            matches!(err, RecoverError::Divergence { index: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("expected seq 1, got 2"), "{err}");
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

    #[test]
    fn resuming_a_journal_whose_file_is_gone_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("mbts-serve-gone-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.journal");
        let mut run = ServiceRun::new(config(), Journal::create(&path).unwrap(), 0).unwrap();
        drive(&mut run);
        drop(run);

        let (journal, dropped) = Journal::reopen(&path).unwrap();
        assert_eq!(dropped, 0);
        std::fs::remove_file(&path).unwrap();
        let err = DurableRun::<ServiceMachine>::resume(journal, 0).unwrap_err();
        assert!(
            matches!(
                err,
                RecoverError::Io {
                    kind: io::ErrorKind::NotFound,
                    ..
                }
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
