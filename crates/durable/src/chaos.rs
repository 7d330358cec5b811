//! Disk-layer fault injection: a [`ChaosSink`] that wraps any
//! [`JournalSink`] and consults an [`mbts_chaos::ChaosRegistry`] on every
//! write and fsync, plus the shared in-memory "disk" image the `mbts
//! chaos` orchestrator crashes and recovers from.
//!
//! Failpoints consulted (see DESIGN.md §15 for the naming scheme):
//!
//! * `durable.sink.write` — [`FailAction::ShortWrite`] makes this call
//!   accept only a seeded `1..=max_bytes` prefix (which *does* reach the
//!   inner sink: that prefix is on disk, exactly like a torn write);
//!   [`FailAction::Enospc`] / [`FailAction::WriteErr`] fail the call
//!   outright with nothing written.
//! * `durable.sink.sync` — [`FailAction::SyncErr`] fails the fsync;
//!   bytes already handed to the inner sink remain, but the caller must
//!   treat durability as unconfirmed (the journal surfaces the error
//!   from the triggering append).
//! * `durable.read` — consulted by [`corrupt_image`] at recovery time:
//!   each fire flips one seeded bit of the journal image past the
//!   header, modeling at-rest bit rot the CRC scan must catch.
//!
//! Everything injected is a pure function of `(registry seed, schedule)`
//! and the append sequence, so a faulted run replays bit-identically.

use crate::journal::JournalSink;
use mbts_chaos::{ChaosRegistry, FailAction};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Failpoint consulted on every sink write.
pub const POINT_SINK_WRITE: &str = "durable.sink.write";
/// Failpoint consulted on every sink fsync.
pub const POINT_SINK_SYNC: &str = "durable.sink.sync";
/// Failpoint consulted per read-time corruption pass over an image.
pub const POINT_READ: &str = "durable.read";

/// A [`JournalSink`] wrapper injecting scheduled disk faults.
pub struct ChaosSink<S: JournalSink> {
    inner: S,
    registry: Arc<ChaosRegistry>,
}

impl<S: JournalSink> ChaosSink<S> {
    /// Wraps `inner`, consulting `registry` on every write and sync.
    pub fn new(inner: S, registry: Arc<ChaosRegistry>) -> Self {
        ChaosSink { inner, registry }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: JournalSink> Write for ChaosSink<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(firing) = self.registry.hit(POINT_SINK_WRITE) {
            match firing.action {
                FailAction::ShortWrite { max_bytes } if !buf.is_empty() => {
                    let cap = max_bytes.max(1).min(buf.len());
                    let n = 1 + (firing.entropy as usize % cap);
                    // The prefix really reaches the disk — that is
                    // what makes the record torn rather than absent.
                    return self.inner.write(&buf[..n]);
                }
                FailAction::Enospc => {
                    return Err(io::Error::other("injected ENOSPC: no space left on device"));
                }
                FailAction::WriteErr => {
                    return Err(io::Error::other("injected EIO: write failed"));
                }
                // Actions for other layers: ignore, never fault.
                _ => {}
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: JournalSink> JournalSink for ChaosSink<S> {
    fn sync(&mut self) -> io::Result<()> {
        if let Some(firing) = self.registry.hit(POINT_SINK_SYNC) {
            if firing.action == FailAction::SyncErr {
                return Err(io::Error::other("injected EIO: fsync failed"));
            }
        }
        self.inner.sync()
    }
}

/// An in-memory "disk": a byte buffer behind `Arc<Mutex<_>>` that a
/// [`ChaosSink`] writes through while the orchestrator keeps a handle to
/// crash at any moment and recover from exactly what the disk holds.
#[derive(Clone, Default)]
pub struct SharedImage(Arc<Mutex<Vec<u8>>>);

impl SharedImage {
    /// An empty disk image.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the bytes the disk currently holds.
    pub fn snapshot(&self) -> Vec<u8> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Bytes currently on the disk.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when nothing has reached the disk yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Write for SharedImage {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for SharedImage {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Applies one read-time corruption pass to a journal image: if the
/// `durable.read` failpoint fires, one seeded bit past the framing
/// header flips (the header is spared so corruption exercises the CRC
/// scan's truncate-and-fall-back path rather than "not a journal").
/// Returns the flipped byte offset, if any.
pub fn corrupt_image(image: &mut [u8], registry: &ChaosRegistry) -> Option<usize> {
    let firing = registry.hit(POINT_READ)?;
    if firing.action != FailAction::CorruptBit {
        return None;
    }
    let header = crate::framing::HEADER_LEN;
    if image.len() <= header {
        return None;
    }
    let span_bits = (image.len() - header) * 8;
    let bit = firing.entropy as usize % span_bits;
    let offset = header + bit / 8;
    image[offset] ^= 1 << (bit % 8);
    Some(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::Kind;
    use crate::journal::{Journal, JournalSource, ShortWrite};
    use mbts_chaos::FailpointSpec;

    /// A journal of a site run through a chaos sink over `image`.
    fn chaos_journal(image: &SharedImage, reg: Arc<ChaosRegistry>) -> Journal {
        let mut j = Journal::with_sink(Box::new(ChaosSink::new(image.clone(), reg)));
        j.begin(Kind::Site).expect("a new journal");
        j
    }

    fn registry(specs: Vec<FailpointSpec>) -> Arc<ChaosRegistry> {
        Arc::new(ChaosRegistry::new(7, specs))
    }

    #[test]
    fn clean_registry_is_a_transparent_passthrough() {
        let image = SharedImage::new();
        let reg = registry(Vec::new());
        let mut j = chaos_journal(&image, reg);
        j.append_snapshot(b"s0").expect("clean append");
        j.append_event(b"e0").expect("clean append");
        assert_eq!(image.snapshot(), *j.bytes());
    }

    #[test]
    fn injected_enospc_fails_the_append_and_leaves_a_recoverable_disk() {
        let image = SharedImage::new();
        let reg = registry(vec![FailpointSpec {
            point: POINT_SINK_WRITE.to_string(),
            action: FailAction::Enospc,
            prob: 1.0,
            after: 2,
            every: 0,
            max_fires: 1,
        }]);
        let mut j = chaos_journal(&image, reg);
        j.append_snapshot(b"s0").expect("armed after 2 hits");
        j.append_event(b"e0").expect("second append clean");
        let err = j.append_event(b"e1").expect_err("third write hits ENOSPC");
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        // What the disk holds is the intact prefix — recovery is clean.
        let r = image.snapshot().recovered().expect("disk prefix recovers");
        assert_eq!(r.snapshot, b"s0");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e0".as_slice()]);
    }

    #[test]
    fn injected_short_writes_leave_a_torn_tail_the_scan_truncates() {
        let image = SharedImage::new();
        // Every write after the first two is cut short, then ENOSPC
        // halts the append loop so the torn prefix stays torn.
        let reg = registry(vec![
            FailpointSpec {
                point: POINT_SINK_WRITE.to_string(),
                action: FailAction::ShortWrite { max_bytes: 3 },
                prob: 1.0,
                after: 2,
                every: 0,
                max_fires: 1,
            },
            FailpointSpec {
                point: POINT_SINK_WRITE.to_string(),
                action: FailAction::Enospc,
                prob: 1.0,
                after: 3,
                every: 0,
                max_fires: 1,
            },
        ]);
        let mut j = chaos_journal(&image, reg);
        j.append_snapshot(b"s0").expect("clean");
        j.append_event(b"e0").expect("clean");
        let before = image.len();
        let err = j
            .append_event(b"torn")
            .expect_err("short write then ENOSPC");
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        let torn = image.len() - before;
        assert!((1..=3).contains(&torn), "1..=3 bytes leaked: {torn}");
        let r = image.snapshot().recovered().expect("torn tail truncates");
        assert_eq!(r.events().collect::<Vec<_>>(), vec![b"e0".as_slice()]);
        assert_eq!(r.dropped_bytes, torn);
    }

    #[test]
    fn injected_sync_failure_surfaces_from_the_cadenced_append() {
        let image = SharedImage::new();
        let reg = registry(vec![FailpointSpec::always(
            POINT_SINK_SYNC,
            FailAction::SyncErr,
        )]);
        let mut j = Journal::with_sink(Box::new(ChaosSink::new(image, reg))).with_fsync_every_n(1);
        let err = j.append_event(b"e0").expect_err("fsync injected to fail");
        assert!(err.to_string().contains("fsync"), "{err}");
    }

    #[test]
    fn corrupt_image_flips_one_bit_past_the_header() {
        let mut j = chaos_journal(&SharedImage::new(), registry(Vec::new()));
        j.append_snapshot(b"s0").expect("in-memory append");
        j.append_event(b"e0").expect("in-memory append");
        j.append_event(b"e1").expect("in-memory append");
        let clean = j.bytes().to_vec();

        let reg = registry(vec![FailpointSpec::always(
            POINT_READ,
            FailAction::CorruptBit,
        )]);
        let mut image = clean.clone();
        let offset = corrupt_image(&mut image, &reg).expect("always fires");
        assert!(offset >= crate::framing::HEADER_LEN);
        assert_ne!(image, clean);
        // The CRC scan truncates at (or before) the flipped record —
        // never a panic, and whatever survives is an intact prefix.
        let r = image.recovered();
        if let Ok(r) = r {
            assert!(r.events().len() <= 2);
        }

        // Same seed + schedule → the same bit flips.
        let reg2 = registry(vec![FailpointSpec::always(
            POINT_READ,
            FailAction::CorruptBit,
        )]);
        let mut image2 = clean.clone();
        assert_eq!(corrupt_image(&mut image2, &reg2), Some(offset));
        assert_eq!(image, image2);
    }

    #[test]
    fn short_write_error_type_is_reachable_through_chaos() {
        // A sink that just stops accepting bytes (Ok(0)) — the journal
        // must diagnose it as the typed ShortWrite, not loop forever.
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl JournalSink for Stuck {
            fn sync(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut j = Journal::with_sink(Box::new(Stuck));
        let err = j.append_event(b"event").expect_err("stuck sink");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let diag = ShortWrite::from_io(&err).expect("typed payload");
        assert_eq!(diag.written, 0);
        assert!(diag.len > b"event".len(), "record framing adds overhead");
    }
}
