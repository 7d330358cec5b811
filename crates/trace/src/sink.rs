//! Pluggable event sinks and the [`Tracer`] handle threaded through the
//! schedulers.
//!
//! `Tracer` is a concrete `Clone + Send` enum rather than a boxed trait
//! object so that `SiteState` keeps its derived `Clone` and the
//! experiments harness can still fan site runs out across threads. The
//! disabled arm is the default: an untraced replay pays one predictable
//! branch per decision and never constructs an event.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Anything that can consume a stream of trace events. The built-in sinks
/// all implement it, and tests can post-process a captured buffer by
/// replaying it into any other sink.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, ev: &TraceEvent);
}

/// Bounded sink keeping only the most recent `capacity` events — the
/// cheap always-on choice for long soaks and unit tests that only care
/// about the tail of a run.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Total events offered, including ones that have since been evicted.
    seen: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring sink needs room for at least one event");
        RingSink {
            capacity,
            events: VecDeque::with_capacity(capacity),
            seen: 0,
        }
    }

    /// The retained tail, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Total events ever offered (retained or evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(ev.clone());
        self.seen += 1;
    }
}

/// Unbounded sink capturing the complete event stream in order — the
/// substrate for golden fixtures and `--trace out.jsonl`.
#[derive(Debug, Clone, Default)]
pub struct BufferSink {
    events: Vec<TraceEvent>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// The captured stream, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the captured stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

/// Streaming JSONL sink: every event is written to the file as a JSON
/// line the moment it is emitted, so a crash loses at most the OS-buffer
/// tail rather than the whole stream. The sink buffers through
/// `BufWriter`, flushes explicitly on [`flush`](Self::flush)/
/// [`finish`](Self::finish) **and on drop**, and latches the first write
/// error instead of silently dropping tail events: a latched error stops
/// further writes, is returned by `finish()`/[`error`](Self::error), and
/// is printed to stderr if the sink is dropped without being checked.
///
/// Internally `Arc<Mutex<..>>` so the sink (and a [`Tracer`] holding it)
/// stays `Clone + Send`; clones share the same file stream.
#[derive(Debug, Clone)]
pub struct JsonlSink {
    inner: Arc<Mutex<JsonlInner>>,
}

#[derive(Debug)]
struct JsonlInner {
    path: PathBuf,
    writer: Option<std::io::BufWriter<std::fs::File>>,
    written: u64,
    error: Option<String>,
    checked: bool,
}

impl JsonlSink {
    /// Creates (truncating) `path` and returns a sink streaming to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink {
            inner: Arc::new(Mutex::new(JsonlInner {
                path,
                writer: Some(std::io::BufWriter::new(file)),
                written: 0,
                error: None,
                checked: false,
            })),
        })
    }

    /// Writes one event as a JSON line. After the first write error the
    /// sink goes inert and latches the error for `finish()`/`error()`.
    pub fn record(&self, ev: &TraceEvent) {
        let mut inner = self.inner.lock().expect("jsonl sink lock poisoned");
        if inner.error.is_some() {
            return;
        }
        let line = serde_json::to_string(ev).expect("trace events always serialize");
        let res = match inner.writer.as_mut() {
            Some(w) => writeln!(w, "{line}"),
            None => return,
        };
        match res {
            Ok(()) => inner.written += 1,
            Err(e) => inner.fail(e),
        }
    }

    /// Flushes buffered lines to the OS.
    pub fn flush(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("jsonl sink lock poisoned");
        inner.flush_inner();
        inner.checked = true;
        match &inner.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Flushes and reports the final status: the number of events
    /// written, or the first error the stream hit (covering events that
    /// would otherwise be lost silently in the buffered tail).
    pub fn finish(&self) -> Result<u64, String> {
        let mut inner = self.inner.lock().expect("jsonl sink lock poisoned");
        inner.flush_inner();
        inner.checked = true;
        match &inner.error {
            Some(e) => Err(e.clone()),
            None => Ok(inner.written),
        }
    }

    /// The first write/flush error, if any occurred so far.
    pub fn error(&self) -> Option<String> {
        self.inner
            .lock()
            .expect("jsonl sink lock poisoned")
            .error
            .clone()
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.inner.lock().expect("jsonl sink lock poisoned").written
    }

    /// The file this sink streams to.
    pub fn path(&self) -> PathBuf {
        self.inner
            .lock()
            .expect("jsonl sink lock poisoned")
            .path
            .clone()
    }
}

impl JsonlInner {
    fn fail(&mut self, e: std::io::Error) {
        self.error = Some(format!("{}: {e}", self.path.display()));
        self.writer = None; // drop the stream; further writes are no-ops
    }

    fn flush_inner(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.flush() {
                self.fail(e);
            }
        }
    }
}

impl Drop for JsonlInner {
    fn drop(&mut self) {
        // Last chance: push the buffered tail out, and never swallow an
        // error nobody looked at.
        self.flush_inner();
        if let Some(e) = &self.error {
            if !self.checked {
                eprintln!("warning: trace sink lost events: {e}");
            }
        }
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        JsonlSink::record(self, ev);
    }
}

/// The tracing handle carried by `SiteState` and the market economy.
/// Defaults to [`Tracer::Off`], which makes every emission a single
/// never-taken branch.
#[derive(Debug, Clone, Default)]
pub enum Tracer {
    /// Tracing disabled: events are neither constructed nor stored.
    #[default]
    Off,
    /// Keep the last N events.
    Ring(RingSink),
    /// Keep every event.
    Buffer(BufferSink),
    /// Stream every event to a JSONL file as it happens.
    Jsonl(JsonlSink),
    /// Provenance verbosity: the wrapped tracer additionally receives
    /// [`crate::TraceKind::DecisionRecord`] events explaining each
    /// dispatch/preemption/admission/bid decision. The wrapper changes
    /// *what* is emitted, never *how* the scheduler decides, so a
    /// provenance trace minus its decision records is byte-identical to
    /// the default trace.
    Provenance(Box<Tracer>),
}

impl Tracer {
    /// A full-capture tracer.
    pub fn buffer() -> Self {
        Tracer::Buffer(BufferSink::new())
    }

    /// A tail-capture tracer retaining `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Tracer::Ring(RingSink::new(capacity))
    }

    /// A tracer streaming events to a JSONL file as they happen.
    pub fn jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Tracer::Jsonl(JsonlSink::create(path)?))
    }

    /// Raises this tracer to provenance verbosity: decision points emit
    /// [`crate::TraceKind::DecisionRecord`] events in addition to the
    /// default stream. Idempotent; wrapping `Off` stays `Off` (provenance
    /// with nowhere to record is still zero-cost).
    pub fn with_provenance(self) -> Self {
        match self {
            Tracer::Off => Tracer::Off,
            Tracer::Provenance(inner) => Tracer::Provenance(inner),
            other => Tracer::Provenance(Box::new(other)),
        }
    }

    /// Whether emissions do anything. Callers gate any event-payload
    /// computation behind this so the disabled path stays free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        match self {
            Tracer::Off => false,
            Tracer::Provenance(inner) => inner.is_enabled(),
            _ => true,
        }
    }

    /// Whether decision points should spend the (possibly O(pending))
    /// effort of building a `DecisionRecord`. Only true for an enabled
    /// tracer wrapped by [`with_provenance`](Self::with_provenance).
    #[inline]
    pub fn is_provenance(&self) -> bool {
        matches!(self, Tracer::Provenance(inner) if inner.is_enabled())
    }

    /// Routes one event to the active sink (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        match self {
            Tracer::Off => {}
            Tracer::Ring(s) => s.record(&ev),
            Tracer::Buffer(s) => s.record(&ev),
            Tracer::Jsonl(s) => s.record(&ev),
            Tracer::Provenance(inner) => inner.emit(ev),
        }
    }

    /// The captured stream, if this tracer kept one (`Buffer` only —
    /// rings forget their head).
    pub fn into_events(self) -> Option<Vec<TraceEvent>> {
        match self {
            Tracer::Buffer(s) => Some(s.into_events()),
            Tracer::Provenance(inner) => inner.into_events(),
            _ => None,
        }
    }

    /// Serializable state of this tracer — the "tracer cursor" carried in
    /// durable snapshots so a recovered run keeps appending to the same
    /// logical stream — borrowed from the live sink, so that writing it
    /// copies no event. A [`Tracer::Jsonl`] sink snapshots as `Off`: a
    /// file stream is external to the checkpoint and must be re-attached
    /// by the resuming caller (the journal already holds every event up
    /// to the snapshot).
    pub fn snapshot(&self) -> TracerSnapshotRef<'_> {
        match self {
            Tracer::Off | Tracer::Jsonl(_) => TracerSnapshotRef::Off,
            Tracer::Ring(s) => TracerSnapshotRef::Ring {
                capacity: s.capacity,
                seen: s.seen,
                events: &s.events,
            },
            Tracer::Buffer(s) => TracerSnapshotRef::Buffer { events: &s.events },
            Tracer::Provenance(inner) => TracerSnapshotRef::Provenance(Box::new(inner.snapshot())),
        }
    }

    /// Rebuilds a tracer from the text of its [`snapshot`](Self::snapshot),
    /// read back as a [`TracerSnapshot`].
    pub fn from_snapshot(snap: TracerSnapshot) -> Self {
        match snap {
            TracerSnapshot::Off => Tracer::Off,
            TracerSnapshot::Ring {
                capacity,
                seen,
                events,
            } => Tracer::Ring(RingSink {
                capacity,
                events: events.into(),
                seen,
            }),
            TracerSnapshot::Buffer { events } => Tracer::Buffer(BufferSink { events }),
            TracerSnapshot::Provenance(inner) => Tracer::from_snapshot(*inner).with_provenance(),
        }
    }
}

/// The state of a [`Tracer`] mid-run, as written by [`Tracer::snapshot`]:
/// the borrowed writer of a [`TracerSnapshot`]'s text.
#[derive(Debug, Serialize)]
pub enum TracerSnapshotRef<'a> {
    /// See [`TracerSnapshot::Off`].
    Off,
    /// See [`TracerSnapshot::Ring`].
    Ring {
        /// Maximum retained events.
        capacity: usize,
        /// Total events ever offered.
        seen: u64,
        /// The retained tail, oldest first.
        events: &'a VecDeque<TraceEvent>,
    },
    /// See [`TracerSnapshot::Buffer`].
    Buffer {
        /// The captured stream in emission order.
        events: &'a [TraceEvent],
    },
    /// See [`TracerSnapshot::Provenance`].
    Provenance(Box<TracerSnapshotRef<'a>>),
}

/// Serializable state of a [`Tracer`] mid-run, read back from the text
/// [`Tracer::snapshot`] writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TracerSnapshot {
    /// Tracing disabled (or an external file stream).
    Off,
    /// A ring sink's capacity, lifetime count, and retained tail.
    Ring {
        /// Maximum retained events.
        capacity: usize,
        /// Total events ever offered.
        seen: u64,
        /// The retained tail, oldest first.
        events: Vec<TraceEvent>,
    },
    /// A buffer sink's full capture.
    Buffer {
        /// The captured stream in emission order.
        events: Vec<TraceEvent>,
    },
    /// A provenance-level tracer wrapping the snapshot of its inner sink.
    Provenance(Box<TracerSnapshot>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;
    use mbts_sim::Time;
    use mbts_workload::TaskId;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            at: Time::new(i as f64),
            task: Some(TaskId(i)),
            site: None,
            kind: TraceKind::Cancelled,
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut ring = RingSink::new(3);
        for i in 0..7 {
            ring.record(&ev(i));
        }
        assert_eq!(ring.seen(), 7);
        assert_eq!(ring.len(), 3);
        let ids: Vec<u64> = ring.events().map(|e| e.task.unwrap().0).collect();
        assert_eq!(ids, vec![4, 5, 6]);
    }

    #[test]
    fn buffer_keeps_everything_in_order() {
        let mut buf = BufferSink::new();
        for i in 0..5 {
            buf.record(&ev(i));
        }
        let ids: Vec<u64> = buf
            .into_events()
            .iter()
            .map(|e| e.task.unwrap().0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn off_tracer_is_disabled_and_captures_nothing() {
        let mut t = Tracer::default();
        assert!(!t.is_enabled());
        t.emit(ev(0));
        assert!(t.into_events().is_none());
    }

    #[test]
    fn tracer_is_send_and_clone() {
        fn assert_send_clone<T: Send + Clone>() {}
        assert_send_clone::<Tracer>();
    }

    #[test]
    fn jsonl_sink_writes_every_event_and_flushes_on_drop() {
        let path = std::env::temp_dir().join(format!(
            "mbts-jsonl-sink-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let mut t = Tracer::jsonl(&path).unwrap();
            assert!(t.is_enabled());
            for i in 0..100 {
                t.emit(ev(i));
            }
            // No explicit flush/finish: drop must push the tail out.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events = crate::event::from_jsonl(&text).unwrap();
        assert_eq!(events.len(), 100);
        assert_eq!(events[99].task.unwrap().0, 99);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_reports_written_count_via_finish() {
        let path = std::env::temp_dir().join(format!(
            "mbts-jsonl-finish-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        for i in 0..7 {
            sink.record(&ev(i));
        }
        assert_eq!(sink.finish(), Ok(7));
        assert_eq!(sink.error(), None);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // the exact "silently lost tail" failure mode the sink must
        // surface instead of swallowing.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let sink = JsonlSink::create("/dev/full").unwrap();
        for i in 0..10_000 {
            sink.record(&ev(i));
        }
        let err = sink.finish().expect_err("writes to /dev/full must fail");
        assert!(
            err.contains("/dev/full"),
            "error should name the file: {err}"
        );
        assert!(sink.error().is_some());
        // Once failed the sink is inert, not panicking.
        sink.record(&ev(0));
    }

    #[test]
    fn provenance_wrapper_gates_decision_records() {
        // Off stays Off (and stays cheap).
        let t = Tracer::Off.with_provenance();
        assert!(!t.is_enabled());
        assert!(!t.is_provenance());

        // Plain tracers are enabled but not provenance-level.
        assert!(Tracer::buffer().is_enabled());
        assert!(!Tracer::buffer().is_provenance());

        // Wrapped tracers are both, and wrapping is idempotent.
        let mut t = Tracer::buffer().with_provenance().with_provenance();
        assert!(t.is_enabled());
        assert!(t.is_provenance());
        t.emit(ev(0));
        t.emit(ev(1));
        let events = t.into_events().expect("provenance buffer keeps events");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn provenance_snapshot_roundtrips_and_keeps_verbosity() {
        let mut t = Tracer::ring(4).with_provenance();
        for i in 0..9 {
            t.emit(ev(i));
        }
        let json = serde_json::to_string(&t.snapshot()).unwrap();
        let snap: TracerSnapshot = serde_json::from_str(&json).unwrap();
        // The borrowed writer writes the owned snapshot's text.
        assert_eq!(serde_json::to_string(&snap).unwrap(), json);
        let mut restored = Tracer::from_snapshot(snap);
        assert!(restored.is_provenance(), "verbosity survives the snapshot");
        t.emit(ev(9));
        restored.emit(ev(9));
        let (Tracer::Provenance(a), Tracer::Provenance(b)) = (&t, &restored) else {
            panic!("provenance tracers expected");
        };
        let (Tracer::Ring(a), Tracer::Ring(b)) = (a.as_ref(), b.as_ref()) else {
            panic!("ring inner expected");
        };
        assert_eq!(a.seen(), b.seen());
        assert_eq!(
            a.events().collect::<Vec<_>>(),
            b.events().collect::<Vec<_>>()
        );
    }

    #[test]
    fn provenance_over_jsonl_snapshots_as_off() {
        let path = std::env::temp_dir().join(format!(
            "mbts-prov-jsonl-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let t = Tracer::jsonl(&path).unwrap().with_provenance();
        assert!(t.is_provenance());
        // The file stream is external to a checkpoint, so the snapshot
        // degrades to Off just like a bare Jsonl tracer.
        let json = serde_json::to_string(&t.snapshot()).unwrap();
        assert_eq!(json, r#"{"Provenance":"Off"}"#);
        let restored = Tracer::from_snapshot(serde_json::from_str(&json).unwrap());
        assert!(!restored.is_enabled());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tracer_snapshot_roundtrips_ring_and_buffer() {
        // Ring: capacity, eviction count, and tail must all survive.
        let mut ring = Tracer::ring(3);
        for i in 0..7 {
            ring.emit(ev(i));
        }
        let json = serde_json::to_string(&ring.snapshot()).unwrap();
        let snap: TracerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&snap).unwrap(), json);
        let mut restored = Tracer::from_snapshot(snap);
        ring.emit(ev(7));
        restored.emit(ev(7));
        let (Tracer::Ring(a), Tracer::Ring(b)) = (&ring, &restored) else {
            panic!("ring tracers expected");
        };
        assert_eq!(a.seen(), b.seen());
        assert_eq!(
            a.events().collect::<Vec<_>>(),
            b.events().collect::<Vec<_>>()
        );

        // Buffer: the full capture survives and keeps appending.
        let mut buf = Tracer::buffer();
        for i in 0..5 {
            buf.emit(ev(i));
        }
        let json = serde_json::to_string(&buf.snapshot()).unwrap();
        let snap: TracerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&snap).unwrap(), json);
        let mut restored = Tracer::from_snapshot(snap);
        buf.emit(ev(5));
        restored.emit(ev(5));
        assert_eq!(buf.into_events(), restored.into_events());
    }
}
