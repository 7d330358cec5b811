//! Live telemetry plane: process-global request counters and gauges for
//! the serve hot path, plus the four serve latency series of the shared
//! registry in `mbts_sim::profiler`.
//!
//! The other observability layers are post-mortem:
//! [`crate::analyze::TraceFold`] reports after a run ends and the
//! self-profiler is opt-in. This module is the *live* half — cheap
//! enough to stay always-on in the request path and the apply thread of a
//! flooding daemon, snapshotted at any instant by `GET /metrics` without
//! stopping the world.
//!
//! Design:
//!
//! * **Fixed metric set.** Every series is an enum variant ([`Route`],
//!   [`Outcome`], [`Hist`], [`Gauge`]) resolved to an array index at
//!   compile time — no hashing, no interning, no allocation on the
//!   write side.
//! * **Sharded writers.** Counter cells are replicated across
//!   cache-line-aligned shards, like the latency histograms; each thread
//!   picks a shard once (`mbts_sim::latency::thread_shard`) and then
//!   increments with relaxed `fetch_add`s only. Writers never contend
//!   with readers and rarely with each other.
//! * **Read-side sums.** [`snapshot`] sums the shards with relaxed
//!   loads. A scrape concurrent with recording can be skewed by a
//!   sample per cell — irrelevant at reporting granularity — but every
//!   counter is monotone across scrapes because writers only add.
//! * **Observation-only.** Nothing here feeds back into scheduling,
//!   journaling, or time: with telemetry on or off, journals, outcomes
//!   and traces are byte-identical. [`disable`] exists so tests can
//!   prove that equivalence, not because the cost requires it.
//!
//! A [`Hist`] is a name for one [`Section`] of the registry; queue wait
//! and journal append are the same series the profiler reports.

use crate::exposition;
use mbts_sim::latency::{thread_shard, LatencyHistogram, NSHARDS};
use mbts_sim::profiler::{self, Section, TELEMETRY};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Request routes the daemon serves (label `route`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /submit`.
    Submit = 0,
    /// `POST /cancel`.
    Cancel = 1,
    /// `GET /status/{id}`.
    Status = 2,
    /// `GET /stats`.
    Stats = 3,
    /// `POST /drain`.
    Drain = 4,
    /// `GET /metrics`.
    Metrics = 5,
    /// `GET /healthz` / `GET /readyz`.
    Health = 6,
    /// Anything else (unknown endpoints, unparseable requests).
    Other = 7,
}

/// Every route, in wire order; indexes match `Route as usize`.
pub const ROUTES: [Route; 8] = [
    Route::Submit,
    Route::Cancel,
    Route::Status,
    Route::Stats,
    Route::Drain,
    Route::Metrics,
    Route::Health,
    Route::Other,
];

impl Route {
    /// Stable label value.
    pub fn name(self) -> &'static str {
        match self {
            Route::Submit => "submit",
            Route::Cancel => "cancel",
            Route::Status => "status",
            Route::Stats => "stats",
            Route::Drain => "drain",
            Route::Metrics => "metrics",
            Route::Health => "health",
            Route::Other => "other",
        }
    }
}

/// Terminal request outcomes (label `outcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx success: an accepted submission, an applied cancel, a served
    /// read.
    Ack = 0,
    /// 200 on `/submit` whose admission heuristic declined the task.
    Rejected = 1,
    /// 429 from the overload shed pass.
    Shed = 2,
    /// 429 from queue-full backpressure.
    Backpressure = 3,
    /// 400 from protocol garbage the HTTP parser refused.
    Malformed = 4,
    /// 400 from a well-framed but invalid body or target.
    BadRequest = 5,
    /// 404 (unknown task or endpoint).
    NotFound = 6,
    /// 503 while draining.
    Unavailable = 7,
    /// 503 after the core-thread reply timeout.
    Timeout = 8,
    /// Anything else (405s, 5xx surprises).
    Error = 9,
}

/// Every outcome, in wire order; indexes match `Outcome as usize`.
pub const OUTCOMES: [Outcome; 10] = [
    Outcome::Ack,
    Outcome::Rejected,
    Outcome::Shed,
    Outcome::Backpressure,
    Outcome::Malformed,
    Outcome::BadRequest,
    Outcome::NotFound,
    Outcome::Unavailable,
    Outcome::Timeout,
    Outcome::Error,
];

impl Outcome {
    /// Stable label value.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ack => "ack",
            Outcome::Rejected => "rejected",
            Outcome::Shed => "shed",
            Outcome::Backpressure => "backpressure",
            Outcome::Malformed => "malformed",
            Outcome::BadRequest => "bad_request",
            Outcome::NotFound => "not_found",
            Outcome::Unavailable => "unavailable",
            Outcome::Timeout => "timeout",
            Outcome::Error => "error",
        }
    }
}

/// Latency histograms recorded on the serve path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// End-to-end request latency in a connection worker: first byte
    /// parsed to reply rendered (includes queue wait and apply).
    Request = 0,
    /// Wait in the bounded admission queue, enqueue to core pickup.
    QueueWait = 1,
    /// Journal append + fsync of one accepted command (the durability
    /// half of the apply split).
    JournalAppend = 2,
    /// State-machine fold of one command (the compute half).
    Apply = 3,
}

/// Every histogram, in wire order; indexes match `Hist as usize`.
pub const HISTS: [Hist; 4] = [
    Hist::Request,
    Hist::QueueWait,
    Hist::JournalAppend,
    Hist::Apply,
];

impl Hist {
    /// Stable metric name (Prometheus: `serve_<name>_duration_seconds`).
    pub fn name(self) -> &'static str {
        match self {
            Hist::Request => "request",
            Hist::QueueWait => "queue_wait",
            Hist::JournalAppend => "journal_append",
            Hist::Apply => "apply",
        }
    }

    /// The registry series this histogram records into.
    pub fn section(self) -> Section {
        match self {
            Hist::Request => Section::ServeRequest,
            Hist::QueueWait => Section::ServeQueueWait,
            Hist::JournalAppend => Section::ServeJournalAppend,
            Hist::Apply => Section::ServeMachineApply,
        }
    }
}

/// Point-in-time gauges published by the daemon (single atomics; gauges
/// are last-write-wins, so they need no sharding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Live admission-queue depth.
    QueueDepth = 0,
    /// Configured queue capacity.
    QueueCapacity = 1,
    /// Remaining queue slack (`capacity − depth`).
    QueueSlack = 2,
    /// 1 while draining, else 0.
    Draining = 3,
    /// EMA of journal-append + apply latency, nanoseconds — the apply
    /// thread's lag signal (what `Retry-After` is computed from).
    ApplyEmaNs = 4,
    /// Commands applied (replayed + live).
    Applied = 5,
    /// Tasks waiting in the site's pending pool.
    PendingTasks = 6,
    /// Gangs currently running.
    RunningTasks = 7,
    /// Idle processors.
    FreeProcessors = 8,
    /// Completion events still in flight inside the sim core.
    OutstandingCompletions = 9,
    /// Tasks released into the admission path over the run (f64).
    TasksSubmitted = 10,
    /// Tasks stranded by upstream workflow failures (f64).
    TasksStranded = 11,
    /// Σ earned yield settled so far (f64).
    TotalYield = 12,
    /// Σ penalties charged so far — destroyed value (f64).
    TotalPenalty = 13,
    /// Σ positive present value walked away from by the shed pass (f64).
    ShedPvLost = 14,
    /// Invariant-auditor violations.
    Violations = 15,
    /// Commands replayed from the journal at startup.
    RecoveredReplayed = 16,
    /// Torn bytes truncated from the journal at startup.
    RecoveredDroppedBytes = 17,
    /// Chaos faults injected on the socket layer so far.
    ChaosFaultsInjected = 18,
    /// Seconds since the daemon started (f64).
    UptimeSeconds = 19,
}

/// Every gauge, in wire order; indexes match `Gauge as usize`.
pub const GAUGES: [Gauge; 20] = [
    Gauge::QueueDepth,
    Gauge::QueueCapacity,
    Gauge::QueueSlack,
    Gauge::Draining,
    Gauge::ApplyEmaNs,
    Gauge::Applied,
    Gauge::PendingTasks,
    Gauge::RunningTasks,
    Gauge::FreeProcessors,
    Gauge::OutstandingCompletions,
    Gauge::TasksSubmitted,
    Gauge::TasksStranded,
    Gauge::TotalYield,
    Gauge::TotalPenalty,
    Gauge::ShedPvLost,
    Gauge::Violations,
    Gauge::RecoveredReplayed,
    Gauge::RecoveredDroppedBytes,
    Gauge::ChaosFaultsInjected,
    Gauge::UptimeSeconds,
];

impl Gauge {
    /// Stable Prometheus series name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepth => "serve_queue_depth",
            Gauge::QueueCapacity => "serve_queue_capacity",
            Gauge::QueueSlack => "serve_queue_slack",
            Gauge::Draining => "serve_draining",
            Gauge::ApplyEmaNs => "serve_apply_ema_nanoseconds",
            Gauge::Applied => "serve_applied_total",
            Gauge::PendingTasks => "serve_pending_tasks",
            Gauge::RunningTasks => "serve_running_tasks",
            Gauge::FreeProcessors => "serve_free_processors",
            Gauge::OutstandingCompletions => "serve_outstanding_completions",
            Gauge::TasksSubmitted => "serve_tasks_submitted_total",
            Gauge::TasksStranded => "serve_tasks_stranded_total",
            Gauge::TotalYield => "serve_yield_total",
            Gauge::TotalPenalty => "serve_penalty_total",
            Gauge::ShedPvLost => "serve_shed_pv_lost_total",
            Gauge::Violations => "serve_violations",
            Gauge::RecoveredReplayed => "serve_recovered_replayed_total",
            Gauge::RecoveredDroppedBytes => "serve_recovered_dropped_bytes",
            Gauge::ChaosFaultsInjected => "serve_chaos_faults_injected_total",
            Gauge::UptimeSeconds => "serve_uptime_seconds",
        }
    }

    /// Whether the gauge's `AtomicU64` cell carries `f64` bits instead
    /// of an integer.
    pub fn is_f64(self) -> bool {
        matches!(
            self,
            Gauge::TasksSubmitted
                | Gauge::TasksStranded
                | Gauge::TotalYield
                | Gauge::TotalPenalty
                | Gauge::ShedPvLost
                | Gauge::UptimeSeconds
        )
    }
}

const NROUTES: usize = ROUTES.len();
const NOUTCOMES: usize = OUTCOMES.len();
const NGAUGES: usize = GAUGES.len();

/// One shard's request-counter matrix, cache-line aligned so shards
/// never false-share.
#[repr(align(64))]
struct CounterShard {
    cells: [AtomicU64; NROUTES * NOUTCOMES],
}

static REQUESTS: [CounterShard; NSHARDS] = [const {
    CounterShard {
        cells: [const { AtomicU64::new(0) }; NROUTES * NOUTCOMES],
    }
}; NSHARDS];

static GAUGE_CELLS: [AtomicU64; NGAUGES] = [const { AtomicU64::new(0) }; NGAUGES];

/// Turns recording on (the default state — the whole point is that it
/// is cheap enough to always run).
pub fn enable() {
    profiler::set_plane(TELEMETRY, true);
}

/// Turns recording off. Only the telemetry on ≡ off byte-identity
/// tests need this.
pub fn disable() {
    profiler::set_plane(TELEMETRY, false);
}

/// Whether recording is on.
#[inline]
pub fn is_enabled() -> bool {
    profiler::plane_enabled(TELEMETRY)
}

/// Zeroes every counter, gauge and latency series (recording state is
/// left unchanged). Tests only — a live daemon's counters are monotone
/// for its whole life.
pub fn reset() {
    for shard in &REQUESTS {
        for c in &shard.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
    for g in &GAUGE_CELLS {
        g.store(0, Ordering::Relaxed);
    }
    profiler::reset();
}

/// Counts one finished request: one relaxed `fetch_add` on this
/// thread's shard.
#[inline]
pub fn count_request(route: Route, outcome: Outcome) {
    if !is_enabled() {
        return;
    }
    let cell = route as usize * NOUTCOMES + outcome as usize;
    REQUESTS[thread_shard()].cells[cell].fetch_add(1, Ordering::Relaxed);
}

/// Folds one latency sample into a histogram's series.
#[inline]
pub fn record_ns(hist: Hist, ns: u64) {
    profiler::record_ns(hist.section(), ns);
}

/// Runs `f`, timing it into `hist`'s series when that records. The
/// disabled path is a single relaxed load and a direct call — no clock
/// reads.
#[inline]
pub fn time<R>(hist: Hist, f: impl FnOnce() -> R) -> R {
    profiler::time(hist.section(), f)
}

/// Publishes an integer gauge (last write wins).
#[inline]
pub fn gauge_set(gauge: Gauge, value: u64) {
    if !is_enabled() {
        return;
    }
    GAUGE_CELLS[gauge as usize].store(value, Ordering::Relaxed);
}

/// Publishes a floating-point gauge (stored as bits, last write wins).
#[inline]
pub fn gauge_set_f64(gauge: Gauge, value: f64) {
    if !is_enabled() {
        return;
    }
    GAUGE_CELLS[gauge as usize].store(value.to_bits(), Ordering::Relaxed);
}

/// Adds to a floating-point gauge with a CAS loop. Only the single core
/// thread calls this (shed PV accumulation), so the loop never spins in
/// practice; the CAS keeps the API safe anyway.
pub fn gauge_add_f64(gauge: Gauge, delta: f64) {
    if !is_enabled() {
        return;
    }
    let cell = &GAUGE_CELLS[gauge as usize];
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Adds to an integer gauge treated as a counter (chaos fault tally).
#[inline]
pub fn gauge_add(gauge: Gauge, delta: u64) {
    if !is_enabled() {
        return;
    }
    GAUGE_CELLS[gauge as usize].fetch_add(delta, Ordering::Relaxed);
}

/// One `serve_requests_total` cell in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestCell {
    /// `route` label value.
    pub route: String,
    /// `outcome` label value.
    pub outcome: String,
    /// Monotone count.
    pub count: u64,
}

/// One gauge value in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeCell {
    /// Prometheus series name.
    pub name: String,
    /// Current value (integers widen losslessly below 2^53).
    pub value: f64,
}

/// A point-in-time copy of the whole registry, serializable and
/// renderable as Prometheus text exposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether recording was on at capture time.
    pub enabled: bool,
    /// Nonzero `serve_requests_total` cells, route-major order.
    pub requests: Vec<RequestCell>,
    /// Every histogram, named by [`Hist::name`] (present even when
    /// empty, so scrapes always expose the series).
    pub hists: Vec<LatencyHistogram>,
    /// Every gauge.
    pub gauges: Vec<GaugeCell>,
}

impl TelemetrySnapshot {
    /// Total requests across all routes and outcomes.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|c| c.count).sum()
    }

    /// Sum of one outcome's counts across routes.
    pub fn outcome_total(&self, outcome: &str) -> u64 {
        self.requests
            .iter()
            .filter(|c| c.outcome == outcome)
            .map(|c| c.count)
            .sum()
    }

    /// Looks up a gauge by series name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by short name.
    pub fn hist(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.iter().find(|h| h.section == name)
    }

    /// Renders Prometheus text exposition format (0.0.4): counters,
    /// cumulative histograms in seconds, and gauges.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let requests: Vec<_> = self
            .requests
            .iter()
            .map(|c| {
                let labels = format!("route=\"{}\",outcome=\"{}\"", c.route, c.outcome);
                (labels, c.count as f64)
            })
            .collect();
        exposition::counter(
            &mut out,
            "serve_requests_total",
            "Requests served, by route and terminal outcome",
            &requests,
        );
        for h in &self.hists {
            exposition::histogram(
                &mut out,
                &format!("serve_{}_duration_seconds", h.section),
                &format!("Serve-path latency ({})", h.section),
                &[(String::new(), h)],
            );
        }
        for g in &self.gauges {
            let row = [(String::new(), g.value)];
            if g.name.ends_with("_total") {
                exposition::counter(&mut out, &g.name, "", &row);
            } else {
                exposition::gauge(&mut out, &g.name, "", &row);
            }
        }
        out
    }
}

/// Reads a consistent-enough copy of every metric: relaxed loads summed
/// across shards. Concurrent writers can skew any one cell by an
/// in-flight sample; they can never make a counter go backwards.
pub fn snapshot() -> TelemetrySnapshot {
    let mut requests = Vec::new();
    for route in ROUTES {
        for outcome in OUTCOMES {
            let cell = route as usize * NOUTCOMES + outcome as usize;
            let count: u64 = REQUESTS
                .iter()
                .map(|s| s.cells[cell].load(Ordering::Relaxed))
                .sum();
            if count > 0 {
                requests.push(RequestCell {
                    route: route.name().to_string(),
                    outcome: outcome.name().to_string(),
                    count,
                });
            }
        }
    }
    let hists = HISTS
        .iter()
        .map(|&h| LatencyHistogram {
            section: h.name().to_string(),
            ..profiler::sample_of(h.section())
        })
        .collect();
    let gauges = GAUGES
        .iter()
        .map(|&g| {
            let raw = GAUGE_CELLS[g as usize].load(Ordering::Relaxed);
            GaugeCell {
                name: g.name().to_string(),
                value: if g.is_f64() {
                    f64::from_bits(raw)
                } else {
                    raw as f64
                },
            }
        })
        .collect();
    TelemetrySnapshot {
        enabled: is_enabled(),
        requests,
        hists,
        gauges,
    }
}

/// The body of `GET /metrics`: the live snapshot, then every registry
/// section as `mbts_profiler_latency_seconds{section=…}`. Built from
/// atomics only.
pub fn scrape_text() -> String {
    let mut text = snapshot().render_prometheus();
    text.push_str(&crate::ProfileReport::capture().render_prometheus());
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests serialize on a lock and
    // reset around themselves.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_sum_across_shards_and_stay_monotone() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        count_request(Route::Submit, Outcome::Ack);
        count_request(Route::Submit, Outcome::Ack);
        count_request(Route::Cancel, Outcome::NotFound);
        // Writers on other threads land in other shards; the snapshot
        // must still see every increment.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        count_request(Route::Submit, Outcome::Ack);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        assert_eq!(snap.outcome_total("ack"), 402);
        assert_eq!(snap.outcome_total("not_found"), 1);
        assert_eq!(snap.total_requests(), 403);
        let again = snapshot();
        assert!(again.total_requests() >= snap.total_requests());
        reset();
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let _g = LOCK.lock().unwrap();
        reset();
        disable();
        count_request(Route::Submit, Outcome::Ack);
        record_ns(Hist::Request, 1024);
        gauge_set(Gauge::QueueDepth, 9);
        gauge_add_f64(Gauge::ShedPvLost, 3.5);
        let snap = snapshot();
        assert_eq!(snap.total_requests(), 0);
        assert_eq!(snap.hist("request").unwrap().count, 0);
        assert_eq!(snap.gauge("serve_queue_depth"), Some(0.0));
        assert_eq!(snap.gauge("serve_shed_pv_lost_total"), Some(0.0));
        enable();
        reset();
    }

    #[test]
    fn a_hist_is_a_named_view_of_its_registry_section() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        record_ns(Hist::QueueWait, 1024);
        time(Hist::Apply, || ());
        let snap = snapshot();
        let h = snap.hist("queue_wait").unwrap();
        assert_eq!((h.count, h.sum_ns, h.max_ns), (1, 1024, 1024));
        assert_eq!(snap.hist("apply").unwrap().count, 1);
        // The profiler report reads the same series under its own name.
        let section = profiler::sample_of(Section::ServeQueueWait);
        assert_eq!(section.section, "serve_queue_wait");
        assert_eq!(section.buckets, h.buckets);
        reset();
    }

    #[test]
    fn gauges_hold_integers_and_floats() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        gauge_set(Gauge::QueueDepth, 17);
        gauge_set_f64(Gauge::TotalYield, 123.25);
        gauge_add_f64(Gauge::ShedPvLost, 1.5);
        gauge_add_f64(Gauge::ShedPvLost, 2.25);
        gauge_add(Gauge::ChaosFaultsInjected, 3);
        let snap = snapshot();
        assert_eq!(snap.gauge("serve_queue_depth"), Some(17.0));
        assert_eq!(snap.gauge("serve_yield_total"), Some(123.25));
        assert_eq!(snap.gauge("serve_shed_pv_lost_total"), Some(3.75));
        assert_eq!(snap.gauge("serve_chaos_faults_injected_total"), Some(3.0));
        reset();
    }

    #[test]
    fn prometheus_exposition_is_labelled_cumulative_and_parseable() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        count_request(Route::Submit, Outcome::Ack);
        count_request(Route::Submit, Outcome::Backpressure);
        record_ns(Hist::Request, 2048);
        gauge_set(Gauge::QueueDepth, 5);
        let snap = snapshot();
        let prom = snap.render_prometheus();
        assert!(prom.contains("# TYPE serve_requests_total counter"));
        assert!(prom.contains("serve_requests_total{route=\"submit\",outcome=\"ack\"} 1"));
        assert!(prom.contains("serve_requests_total{route=\"submit\",outcome=\"backpressure\"} 1"));
        assert!(prom.contains("# TYPE serve_request_duration_seconds histogram"));
        assert!(prom.contains("serve_request_duration_seconds_count 1"));
        assert!(prom.contains("serve_request_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("serve_queue_depth 5"));
        // Every non-comment line is `name[{labels}] value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
            assert!(parts.next().is_some());
        }
        reset();
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        count_request(Route::Stats, Outcome::Ack);
        record_ns(Hist::QueueWait, 500);
        let snap = snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        reset();
    }
}
