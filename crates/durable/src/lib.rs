//! # mbts-durable — crash-consistent runs
//!
//! A snapshot + write-ahead-journal layer that makes every stepwise state
//! in the workspace — an [`mbts_site`] run, an [`mbts_market`] economy,
//! the `mbts-serve` service machine — recoverable at **any input
//! boundary**: kill the process after any event or command — or
//! mid-write, tearing the journal's tail — and recovery reproduces the
//! uninterrupted run bit for bit (schedule, yields, account balances and
//! trace stream included).
//!
//! Three layers:
//!
//! * [`framing`] — CRC-framed records (a magic + version + [`Kind`]
//!   header; each record is `tag | len | crc32 | payload`). A scan stops
//!   at the first damaged record, so any torn tail degrades to a clean
//!   valid prefix.
//! * [`journal`] — the append-only record stream (a flushed file, or
//!   in memory for harnesses) and the recovery pass, which streams a
//!   file one record at a time and keeps only where the latest snapshot
//!   is and the events after it; the snapshot is then parsed straight
//!   from its record, checked again as it is read.
//! * [`run`] — the [`Recoverable`] fold (`due`, `apply`, `snapshot`,
//!   `restore`; implemented here by [`SiteRun`](mbts_site::SiteRun) and
//!   [`EconomyRun`](mbts_market::EconomyRun), and by `ServiceMachine` in
//!   `mbts-serve`) and [`DurableRun`], the one writer: it names the run's
//!   kind in the header, journals every input ahead of applying it,
//!   snapshots on a cadence, and recovers a journal of its own kind and
//!   version by snapshot-restore + checked input replay.
//!
//! Determinism does the heavy lifting: because the simulations derive
//! every draw from owned RNG streams and the event queue breaks ties by
//! sequence number, a snapshot of *state* (not history) plus the input
//! suffix is enough to reproduce the exact future.
//!
//! ```
//! use mbts_core::Policy;
//! use mbts_durable::{DurableRun, FramingError, Journal, Kind, RecoverError};
//! use mbts_market::EconomyRun;
//! use mbts_site::{SiteConfig, SiteRun};
//! use mbts_trace::Tracer;
//! use mbts_workload::{generate_trace, MixConfig};
//!
//! let trace = generate_trace(
//!     &MixConfig::millennium_default().with_tasks(40).with_processors(4),
//!     7,
//! );
//! let config = SiteConfig::new(4).with_policy(Policy::first_reward(0.3, 0.01));
//!
//! // Journal a run, "crashing" after 30 events.
//! let run = SiteRun::new(config.clone(), &trace, Tracer::Off);
//! let mut durable = DurableRun::new(run, Journal::in_memory(), 16).unwrap();
//! for _ in 0..30 {
//!     durable.step().unwrap();
//! }
//! let (_, journal) = durable.into_parts();
//!
//! // Recover and finish the run: same outcome as never crashing.
//! let (recovered, report) = DurableRun::<SiteRun>::recover(&journal.bytes()).unwrap();
//! assert_eq!(recovered.events_handled(), 30);
//! assert_eq!(report.replayed, 30 - 16);
//! assert_eq!(report.dropped_bytes, 0);
//!
//! let uninterrupted = SiteRun::new(config, &trace, Tracer::Off);
//! assert_eq!(recovered.finish().0, uninterrupted.finish().0);
//!
//! // Bytes that are not a journal are a typed error, never a panic, and
//! // so is a journal of another kind of run.
//! assert!(matches!(
//!     DurableRun::<SiteRun>::recover(b"not a journal"),
//!     Err(RecoverError::Framing(FramingError::NotAJournal))
//! ));
//! assert!(matches!(
//!     DurableRun::<EconomyRun>::recover(&journal.bytes()),
//!     Err(RecoverError::Framing(FramingError::Unsupported {
//!         expected: Some(Kind::Economy),
//!         ..
//!     }))
//! ));
//! ```

pub mod chaos;
pub mod framing;
pub mod journal;
pub mod run;

pub use chaos::{corrupt_image, ChaosSink, SharedImage};
pub use framing::{FramingError, Kind, RecordTag, ScanOutcome};
pub use journal::{
    load, Journal, JournalImage, JournalSink, JournalSource, RecoverError, Recovered, ShortWrite,
    SnapshotRecord,
};
pub use run::{DurableRun, Recoverable, RecoveryReport};
