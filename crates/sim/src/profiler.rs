//! The process-global registry of latency series: a fixed set of
//! [`Section`]s, each backed by one [`AtomicLatency`], and the enable
//! mask of the two planes that record into them.
//!
//! * The **profiler** plane is off by default; `--profile` turns it on
//!   with [`enable`]. Its sections wrap the scheduler's critical paths.
//! * The **telemetry** plane (`mbts_trace::telemetry`) is on by default;
//!   its latency histograms are sections too, so where both planes time
//!   the same span (queue wait, journal append) one clock pair feeds one
//!   series and both reports read it.
//!
//! The registry lives at the bottom of the crate stack so `mbts-core`'s
//! pending pool and `mbts-durable`'s snapshot writer can wrap their hot
//! paths without new dependency edges; reports and Prometheus rendering
//! live in `mbts-trace`.
//!
//! A section none of whose planes is on costs one relaxed atomic load per
//! instrumented call — no clock read, no allocation. An enabled one costs
//! two `Instant` reads plus four relaxed atomic RMWs. Sections observe
//! wall-clock latencies only; they never feed back into simulation time
//! or scheduling decisions, so enabling them cannot perturb a replay.

use crate::latency::{elapsed_ns, AtomicLatency, LatencyHistogram};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Plane bit: the opt-in self-profiler.
pub const PROFILER: u8 = 1;
/// Plane bit: the always-on live telemetry.
pub const TELEMETRY: u8 = 2;

/// The instrumented spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `PendingPool::push` — admission into the persistent pending pool.
    PoolInsert = 0,
    /// `PendingPool::select_best` — persistent cost-model maintenance
    /// and best-candidate selection at dispatch.
    CostModelUpdate = 1,
    /// `PendingPool::scores` — full score materialization (the backfill
    /// merge sweep).
    MergeSweep = 2,
    /// Durable snapshot frame serialization + journal write.
    SnapshotWrite = 3,
    /// Live service: parsing one HTTP request off the wire.
    ServeParse = 4,
    /// Live service: a request's wait in the bounded admission queue,
    /// from enqueue to the core thread picking it up. Both planes.
    ServeQueueWait = 5,
    /// Live service: journal append + state-machine apply of one
    /// accepted command.
    ServeApply = 6,
    /// Live service: journal append (+ cadence fsync) of one accepted
    /// command — the durability half of [`Section::ServeApply`], split
    /// out so fsync stalls are visible separately from the fold. Both
    /// planes.
    ServeJournalAppend = 7,
    /// Live service: one request end to end in a connection worker,
    /// first byte parsed to reply rendered. Telemetry plane.
    ServeRequest = 8,
    /// Live service: the state-machine fold of one command — the compute
    /// half of [`Section::ServeApply`]. Telemetry plane.
    ServeMachineApply = 9,
}

/// Every section, in wire order. Indexes match `Section as usize`.
pub const SECTIONS: [Section; 10] = [
    Section::PoolInsert,
    Section::CostModelUpdate,
    Section::MergeSweep,
    Section::SnapshotWrite,
    Section::ServeParse,
    Section::ServeQueueWait,
    Section::ServeApply,
    Section::ServeJournalAppend,
    Section::ServeRequest,
    Section::ServeMachineApply,
];

impl Section {
    /// Stable snake_case name used in reports and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Section::PoolInsert => "pool_insert",
            Section::CostModelUpdate => "cost_model_update",
            Section::MergeSweep => "merge_sweep",
            Section::SnapshotWrite => "snapshot_write",
            Section::ServeParse => "serve_parse",
            Section::ServeQueueWait => "serve_queue_wait",
            Section::ServeApply => "serve_apply",
            Section::ServeJournalAppend => "serve_journal_append",
            Section::ServeRequest => "serve_request",
            Section::ServeMachineApply => "serve_machine_apply",
        }
    }

    /// The planes whose being on makes this section record.
    fn planes(self) -> u8 {
        match self {
            Section::ServeQueueWait | Section::ServeJournalAppend => PROFILER | TELEMETRY,
            Section::ServeRequest | Section::ServeMachineApply => TELEMETRY,
            _ => PROFILER,
        }
    }
}

static PLANES: AtomicU8 = AtomicU8::new(TELEMETRY);

static SERIES: [AtomicLatency; SECTIONS.len()] = [const { AtomicLatency::new() }; SECTIONS.len()];

/// Turns a plane on or off.
pub fn set_plane(plane: u8, on: bool) {
    if on {
        PLANES.fetch_or(plane, Ordering::Relaxed);
    } else {
        PLANES.fetch_and(!plane, Ordering::Relaxed);
    }
}

/// Whether any of `planes` is on.
#[inline]
pub fn plane_enabled(planes: u8) -> bool {
    PLANES.load(Ordering::Relaxed) & planes != 0
}

/// Turns profiler sampling on.
pub fn enable() {
    set_plane(PROFILER, true);
}

/// Turns profiler sampling off (counters are retained until [`reset`]).
pub fn disable() {
    set_plane(PROFILER, false);
}

/// Whether profiler sampling is currently on.
#[inline]
pub fn is_enabled() -> bool {
    plane_enabled(PROFILER)
}

/// Zeroes every series (plane state is left unchanged).
pub fn reset() {
    for series in &SERIES {
        series.reset();
    }
}

/// Folds one latency sample into a section, if one of its planes is on.
#[inline]
pub fn record_ns(section: Section, ns: u64) {
    if plane_enabled(section.planes()) {
        SERIES[section as usize].record(ns);
    }
}

/// Folds the time since `start` into a section; the clock is read only
/// if the section records.
#[inline]
pub fn record_since(section: Section, start: Instant) {
    if plane_enabled(section.planes()) {
        SERIES[section as usize].record(elapsed_ns(start));
    }
}

/// Runs `f`, timing it into `section` when one of its planes is on. The
/// disabled path is a single relaxed load and a direct call.
#[inline]
pub fn time<R>(section: Section, f: impl FnOnce() -> R) -> R {
    if !plane_enabled(section.planes()) {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record_since(section, start);
    out
}

/// A point-in-time copy of one section, named by [`Section::name`].
pub fn sample_of(section: Section) -> LatencyHistogram {
    SERIES[section as usize].snapshot(section.name())
}

/// A point-in-time copy of every section, wire order.
pub fn sample() -> Vec<LatencyHistogram> {
    SECTIONS.into_iter().map(sample_of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests in this module serialize
    // on a lock to avoid cross-test interference; tests elsewhere only
    // assert on deltas of their own sections.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn a_section_records_only_while_one_of_its_planes_is_on() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        assert_eq!(time(Section::PoolInsert, || 7), 7);
        record_ns(Section::PoolInsert, 5);
        assert_eq!(sample_of(Section::PoolInsert).count, 0);
        // Telemetry is on by default and shares the queue-wait series.
        record_ns(Section::ServeQueueWait, 5);
        assert_eq!(sample_of(Section::ServeQueueWait).count, 1);
        set_plane(TELEMETRY, false);
        record_ns(Section::ServeQueueWait, 5);
        record_ns(Section::ServeRequest, 5);
        assert_eq!(sample_of(Section::ServeQueueWait).count, 1);
        assert_eq!(sample_of(Section::ServeRequest).count, 0);
        enable();
        record_ns(Section::ServeQueueWait, 5);
        record_ns(Section::ServeRequest, 5);
        assert_eq!(sample_of(Section::ServeQueueWait).count, 2);
        assert_eq!(sample_of(Section::ServeRequest).count, 0);
        disable();
        set_plane(TELEMETRY, true);
        reset();
    }

    #[test]
    fn time_measures_when_enabled() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        let out = time(Section::SnapshotWrite, || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        disable();
        assert_eq!(out, 499_500);
        let s = &sample()[Section::SnapshotWrite as usize];
        assert_eq!(s.section, "snapshot_write");
        assert_eq!(s.count, 1);
        assert!(s.sum_ns > 0, "a timed closure takes nonzero time");
        reset();
        assert_eq!(sample_of(Section::SnapshotWrite).count, 0);
    }
}
