//! The event sink and the [`Tracer`] handle threaded through the
//! schedulers.
//!
//! `Tracer` is a concrete `Clone + Send` enum rather than a boxed trait
//! object so that `SiteState` keeps its derived `Clone` and the
//! experiments harness can still fan site runs out across threads. The
//! disabled arm is the default: an untraced replay pays one predictable
//! branch per decision and never constructs an event.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};

/// Anything that can consume a stream of trace events: the
/// [`BufferSink`] and the trace fold behind `mbts analyze` implement it,
/// and tests can post-process a captured buffer by replaying it into
/// either.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, ev: &TraceEvent);
}

/// Unbounded sink capturing the complete event stream in order — the
/// substrate for golden fixtures and `--trace-out`, which writes the
/// captured stream as JSONL when the run ends.
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

/// The tracing handle carried by `SiteState` and the market economy.
/// Defaults to [`Tracer::Off`], which makes every emission a single
/// never-taken branch.
#[derive(Debug, Clone, Default)]
pub enum Tracer {
    /// Tracing disabled: events are neither constructed nor stored.
    #[default]
    Off,
    /// Keep every event.
    Buffer(BufferSink),
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
            Tracer::Buffer(_) => true,
            Tracer::Provenance(inner) => inner.is_enabled(),
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
            Tracer::Buffer(s) => s.record(&ev),
            Tracer::Provenance(inner) => inner.emit(ev),
        }
    }

    /// The captured stream, if this tracer kept one.
    pub fn into_events(self) -> Option<Vec<TraceEvent>> {
        match self {
            Tracer::Off => None,
            Tracer::Buffer(s) => Some(s.into_events()),
            Tracer::Provenance(inner) => inner.into_events(),
        }
    }

    /// Serializable state of this tracer — the "tracer cursor" carried in
    /// durable snapshots so a recovered run keeps appending to the same
    /// logical stream — borrowed from the live sink, so that writing it
    /// copies no event.
    pub fn snapshot(&self) -> TracerSnapshotRef<'_> {
        match self {
            Tracer::Off => TracerSnapshotRef::Off,
            Tracer::Buffer(s) => TracerSnapshotRef::Buffer { events: &s.events },
            Tracer::Provenance(inner) => TracerSnapshotRef::Provenance(Box::new(inner.snapshot())),
        }
    }

    /// Rebuilds a tracer from the text of its [`snapshot`](Self::snapshot),
    /// read back as a [`TracerSnapshot`].
    pub fn from_snapshot(snap: TracerSnapshot) -> Self {
        match snap {
            TracerSnapshot::Off => Tracer::Off,
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
    /// Tracing disabled.
    Off,
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
        let mut t = Tracer::buffer().with_provenance();
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
        assert_eq!(t.into_events(), restored.into_events());
    }

    #[test]
    fn tracer_snapshot_roundtrips_buffer() {
        // The full capture survives and keeps appending.
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
