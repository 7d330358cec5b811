//! # mbts-trace — structured observability for the task service
//!
//! A zero-cost-when-disabled event layer: every schedulable decision in
//! the site scheduler and the market economy can emit a typed
//! [`TraceEvent`] into a pluggable sink. The [`Tracer`] handle defaults
//! to [`Tracer::Off`], in which case emission sites reduce to a single
//! branch — replays are bit-identical with tracing on or off because the
//! emitters only *read* scheduler state, never mutate it.
//!
//! The one sink is [`BufferSink`], full capture, serialized to JSONL for
//! golden fixtures and `--trace-out`; [`Tracer::Off`] records nothing,
//! and [`Tracer::Provenance`] raises the verbosity of the tracer it wraps.
//!
//! A tracer's state (the "tracer cursor") is checkpointable via
//! [`Tracer::snapshot`] / [`TracerSnapshot`], so the durable-recovery
//! layer can resume a traced run without losing or duplicating events.
//!
//! Two observability layers sit on top of the raw stream:
//! - [`analyze`] — post-hoc trace analytics (yield attribution,
//!   preemption-chain trees, admission regret, utilization timelines),
//!   the engine behind `mbts analyze`: [`TraceFold`] is itself a sink,
//!   and the one fold from events to a [`TraceReport`] — a JSONL file is
//!   read into it line by line ([`read_jsonl`]), never held whole;
//! - [`profiler`] — reports over the latency registry in
//!   `mbts_sim::profiler` (the one log-linear histogram), as text or
//!   Prometheus exposition.
//!
//! The *live* counterpart is [`telemetry`]: process-global sharded
//! request counters and gauges, plus the serve latency series of that
//! same registry, which the serve daemon records into on its hot path and
//! snapshots for `GET /metrics` — always-on, observation-only,
//! scrape-anytime. [`exposition`] is the one Prometheus text writer all
//! three reports ([`TraceReport`] via [`analyze::render_prometheus`],
//! [`ProfileReport`], [`TelemetrySnapshot`]) render through.
//!
//! Provenance: wrapping any tracer with [`Tracer::with_provenance`] makes
//! decision points additionally emit [`TraceKind::DecisionRecord`] events
//! carrying the ranked candidate set with per-candidate PV /
//! opportunity-cost / slack decomposition. The wrapper only changes what
//! is *recorded*: a provenance trace with its decision records filtered
//! out is byte-identical to the default trace.

pub mod analyze;
pub mod event;
pub mod exposition;
pub mod profiler;
pub mod sink;
pub mod telemetry;

pub use analyze::{AnalyzeOptions, StrandingChain, TraceFold, TraceReport, WorkflowLedger};
pub use event::{
    from_jsonl, read_jsonl, to_jsonl, DecisionCandidate, DecisionKind, JsonlError, TraceEvent,
    TraceKind, MAX_DECISION_CANDIDATES,
};
pub use mbts_sim::latency::LatencyHistogram;
pub use profiler::{ProfileReport, ServeSummary, PROFILE_MARKER};
pub use sink::{BufferSink, TraceSink, Tracer, TracerSnapshot, TracerSnapshotRef};
pub use telemetry::TelemetrySnapshot;
