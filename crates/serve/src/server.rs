//! The live daemon: a thread-per-connection HTTP front-end over one
//! journal-first [`ServiceRun`].
//!
//! Architecture — three thread roles around a bounded admission queue:
//!
//! * **Acceptor**: polls a non-blocking listener, spawns one worker per
//!   connection, exits on the stop flag.
//! * **Workers**: parse requests ([`Section::ServeParse`]), validate, and
//!   push work onto the bounded queue. A full queue is answered
//!   immediately with `429 Too Many Requests` plus a `Retry-After`
//!   computed from queue slack × the EMA apply latency — explicit
//!   backpressure, never an unbounded buffer. Workers then block on a
//!   per-request reply channel with a timeout.
//! * **Core** (exactly one): drains the queue in batches, runs the
//!   deadline-aware shed pass when depth crosses the threshold (expired
//!   submissions first, then lowest Eq. 3 present value), and applies
//!   each surviving command journal-first ([`Section::ServeApply`]).
//!   Sheds are journaled [`CommandKind::Shed`] commands, so overload
//!   decisions replay — and explain themselves — deterministically.
//!
//! Shutdown: SIGTERM/SIGINT (or `POST /drain`) sets the stop flag. The
//! acceptor stops accepting, workers answer `503` with a `draining`
//! error, the core finishes the queue, journals the [`CommandKind::Drain`]
//! marker, folds a final snapshot, fsyncs, and the process exits 0.
//! `kill -9` at any other point recovers byte-identically via
//! [`ServiceRun::resume_file`].

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration as StdDuration, Instant};

use mbts_chaos::{ChaosRegistry, FailAction, Firing};
use mbts_core::Job;
use mbts_durable::{Journal, RecoveryReport};
use mbts_sim::latency::elapsed_ns;
use mbts_sim::pin_malloc_thresholds;
use mbts_sim::profiler::{self, Section};
use mbts_sim::Time;
use mbts_site::SiteConfig;
use mbts_trace::telemetry as tel;
use mbts_trace::ServeSummary;
use mbts_workload::{PenaltyBound, TaskId, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::http;
use crate::journaled::ServiceRun;
use crate::machine::{ApplyOutcome, CommandKind, MachineConfig, ShedReason, TaskStatus};

/// How many queue entries the core drains per lock acquisition.
const CORE_BATCH: usize = 256;

/// Failpoint consulted after each successful `accept(2)`: `accept_fail`
/// closes the fresh connection before a worker is spawned.
pub const POINT_ACCEPT: &str = "serve.accept";
/// Failpoint consulted per request on the connection read side:
/// `slow_read` stalls before parsing, `drop_conn` closes mid-exchange.
pub const POINT_CONN_READ: &str = "serve.conn.read";
/// Failpoint consulted before each response write: `partial_write`
/// sends a response prefix then closes (a torn reply on the wire),
/// `drop_conn` closes without writing at all.
pub const POINT_CONN_WRITE: &str = "serve.conn.write";

/// Process-global stop flag flipped by SIGTERM/SIGINT. Separate from the
/// per-server flag so in-process test servers are not coupled to signals.
static GLOBAL_STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    GLOBAL_STOP.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain. Called
/// by the CLI daemon only; raw `signal(2)` keeps the stack libc-shim-free.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The fronted site.
    pub site: SiteConfig,
    /// Journal file; `None` journals nothing (no durability, and so no
    /// cadence snapshots — tests and throwaway demos).
    pub journal: Option<std::path::PathBuf>,
    /// Bounded admission-queue capacity; a full queue answers 429.
    pub queue_capacity: usize,
    /// Shed pass trips while queue depth exceeds this; 0 means
    /// `queue_capacity / 2`.
    pub shed_threshold: usize,
    /// Sim-time units that elapse per wall-clock second.
    pub time_scale: f64,
    /// Snapshot cadence in applied commands (0 = genesis + final only).
    pub snapshot_every: u64,
    /// Fsync cadence in journal appends (0 = leave syncing to the OS).
    pub fsync_every_n: u64,
    /// Emit provenance decision records (admissions + sheds).
    pub provenance: bool,
    /// `/status` registry retention.
    pub status_capacity: usize,
    /// How long a worker waits for the core's reply before answering 503.
    pub request_timeout: StdDuration,
    /// Artificial per-command apply delay — a chaos/test knob that makes
    /// overload reproducible on fast machines.
    pub throttle: StdDuration,
    /// Seeded failpoint registry armed on the socket layer
    /// ([`POINT_ACCEPT`], [`POINT_CONN_READ`], [`POINT_CONN_WRITE`]);
    /// `None` disables injection entirely.
    pub chaos: Option<Arc<ChaosRegistry>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            site: SiteConfig::new(4),
            journal: None,
            queue_capacity: 1024,
            shed_threshold: 0,
            time_scale: 1.0,
            snapshot_every: 8192,
            fsync_every_n: 0,
            provenance: false,
            status_capacity: 65_536,
            request_timeout: StdDuration::from_secs(5),
            throttle: StdDuration::ZERO,
            chaos: None,
        }
    }
}

/// Final accounting returned when the daemon drains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Request counters + wall time, in the shape `mbts analyze` renders.
    pub summary: ServeSummary,
    /// Commands applied over the daemon's lifetime (replayed + live).
    pub applied: u64,
    /// Invariant-auditor violations recorded by the site.
    pub violations: usize,
    /// Commands replayed from the journal at startup.
    pub recovered_replayed: u64,
    /// Torn bytes truncated from the journal at startup.
    pub recovered_dropped_bytes: usize,
    /// Σ earned yield at drain time.
    pub total_yield: f64,
    /// Whether the drain marker + final snapshot were journaled.
    pub clean_drain: bool,
}

/// Wall-to-sim clock: `offset` carries the recovered machine's logical
/// time so resumed daemons keep a monotone clock.
struct Clock {
    t0: Instant,
    offset: f64,
    scale: f64,
}

impl Clock {
    fn now(&self) -> Time {
        Time::new(self.offset + self.t0.elapsed().as_secs_f64() * self.scale)
    }
}

/// Validated `/submit` body.
#[derive(Debug, Clone, Deserialize)]
struct SubmitBody {
    runtime: f64,
    value: f64,
    #[serde(default)]
    decay: f64,
    #[serde(default)]
    max_penalty: Option<f64>,
    #[serde(default)]
    unbounded: bool,
    #[serde(default)]
    width: Option<usize>,
}

impl SubmitBody {
    fn validate(&self) -> Result<(), &'static str> {
        if !(self.runtime.is_finite() && self.runtime > 0.0) {
            return Err("runtime must be a positive finite number");
        }
        if !self.value.is_finite() {
            return Err("value must be finite");
        }
        if !(self.decay.is_finite() && self.decay >= 0.0) {
            return Err("decay must be non-negative");
        }
        if let Some(p) = self.max_penalty {
            if !(p.is_finite() && p >= 0.0) {
                return Err("max_penalty must be non-negative");
            }
        }
        if self.width == Some(0) {
            return Err("width must be at least 1");
        }
        Ok(())
    }

    /// The bid tuple at `arrival`; `id` is assigned later by the journal.
    fn to_spec(&self, arrival: Time) -> TaskSpec {
        let bound = if self.unbounded {
            PenaltyBound::UNBOUNDED
        } else {
            match self.max_penalty {
                Some(p) => PenaltyBound::bounded(p),
                None => PenaltyBound::ZERO,
            }
        };
        TaskSpec::new(
            0,
            arrival.as_f64(),
            self.runtime,
            self.value,
            self.decay,
            bound,
        )
        .with_width(self.width.unwrap_or(1))
    }
}

#[derive(Debug, Clone, Deserialize)]
struct CancelBody {
    task: u64,
}

#[derive(Debug, Serialize)]
struct StatusView {
    task: u64,
    status: TaskStatus,
}

#[derive(Debug, Serialize)]
struct StatsView {
    now: f64,
    applied: u64,
    draining: bool,
    queue_depth: usize,
    pending: usize,
    running: usize,
    free_processors: usize,
    outstanding_completions: usize,
    total_yield: f64,
    violations: usize,
    counters: crate::machine::ServeCounters,
}

/// One queued unit of work.
enum Work {
    Submit(SubmitBody),
    Cancel(u64),
    Status(u64),
    Stats,
}

struct Pending {
    work: Work,
    arrival: Time,
    enqueued: Instant,
    reply: mpsc::SyncSender<Reply>,
}

/// A fully-formed response the core (or the worker itself) produced.
struct Reply {
    status: u16,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
    content_type: &'static str,
    /// Telemetry outcome override for statuses that are ambiguous on
    /// their own (200 ack vs admission-rejected, 429 shed vs
    /// backpressure, 503 timeout vs draining). `None` derives from the
    /// status in [`outcome_of`].
    outcome: Option<tel::Outcome>,
}

impl Reply {
    fn json(status: u16, body: impl Serialize) -> Reply {
        Reply {
            status,
            extra: Vec::new(),
            body: serde_json::to_vec(&body).expect("reply bodies always serialize"),
            content_type: "application/json",
            outcome: None,
        }
    }

    fn text(status: u16, body: Vec<u8>) -> Reply {
        Reply {
            status,
            extra: Vec::new(),
            body,
            content_type: "text/plain; version=0.0.4",
            outcome: None,
        }
    }

    fn error(status: u16, detail: &str) -> Reply {
        let detail = serde_json::to_string(detail)
            .unwrap_or_else(|_| "\"unrepresentable error detail\"".to_string());
        Reply {
            status,
            extra: Vec::new(),
            body: format!("{{\"error\":{detail}}}").into_bytes(),
            content_type: "application/json",
            outcome: None,
        }
    }

    fn with_retry_after(mut self, secs: u64) -> Reply {
        self.extra.push(("retry-after", secs.to_string()));
        self
    }

    fn tagged(mut self, outcome: tel::Outcome) -> Reply {
        self.outcome = Some(outcome);
        self
    }
}

/// Telemetry outcome of a finished request: the explicit tag when the
/// producer set one, else the status code's canonical meaning.
fn outcome_of(reply: &Reply) -> tel::Outcome {
    if let Some(o) = reply.outcome {
        return o;
    }
    match reply.status {
        200..=299 => tel::Outcome::Ack,
        400 => tel::Outcome::BadRequest,
        404 => tel::Outcome::NotFound,
        429 => tel::Outcome::Backpressure,
        503 => tel::Outcome::Unavailable,
        _ => tel::Outcome::Error,
    }
}

/// Telemetry route label for a parsed request.
fn route_of(req: &http::Request) -> tel::Route {
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/submit") => tel::Route::Submit,
        ("POST", "/cancel") => tel::Route::Cancel,
        ("POST", "/drain") => tel::Route::Drain,
        ("GET", "/stats") => tel::Route::Stats,
        ("GET", "/metrics") => tel::Route::Metrics,
        ("GET", "/healthz") | ("GET", "/readyz") => tel::Route::Health,
        ("GET", t) if t.starts_with("/status/") => tel::Route::Status,
        _ => tel::Route::Other,
    }
}

struct Shared {
    queue: Mutex<VecDeque<Pending>>,
    cv: Condvar,
    capacity: usize,
    shed_threshold: usize,
    clock: Clock,
    stop: AtomicBool,
    requests: AtomicU64,
    backpressured: AtomicU64,
    timeouts: AtomicU64,
    /// EMA of journal-append + apply latency, nanoseconds.
    ema_apply_ns: AtomicU64,
    request_timeout: StdDuration,
    /// Socket-layer failpoints (accept / per-connection read / write).
    chaos: Option<Arc<ChaosRegistry>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || GLOBAL_STOP.load(Ordering::SeqCst)
    }

    fn note_apply_ns(&self, ns: u64) {
        let old = self.ema_apply_ns.load(Ordering::Relaxed);
        self.ema_apply_ns
            .store((old.saturating_mul(7) + ns) / 8, Ordering::Relaxed);
    }

    /// `Retry-After` from queue slack: how long the backlog ahead of a
    /// retry would take at the observed apply rate.
    fn retry_after_secs(&self, depth: usize) -> u64 {
        retry_after_from(self.ema_apply_ns.load(Ordering::Relaxed), depth)
    }

    /// Registers one hit on a socket-layer failpoint.
    fn chaos_hit(&self, point: &str) -> Option<Firing> {
        let firing = self.chaos.as_ref().and_then(|c| c.hit(point));
        if firing.is_some() {
            tel::gauge_add(tel::Gauge::ChaosFaultsInjected, 1);
        }
        firing
    }
}

/// Pure `Retry-After` computation: backlog `depth` × EMA apply latency,
/// rounded up to whole seconds and clamped to `[1, 60]`. The floor keeps
/// the hint meaningful when the queue has just drained (depth 0 — an
/// instant retry would race the same overload that produced the 429) and
/// the ceiling keeps a latency spike from parking clients for minutes.
fn retry_after_from(ema_apply_ns: u64, depth: usize) -> u64 {
    let ema = ema_apply_ns.max(1);
    let secs = (depth as f64 * ema as f64) / 1e9;
    (secs.ceil() as u64).clamp(1, 60)
}

/// A running daemon: bound address plus join handles.
pub struct Server {
    /// The actually-bound address (resolves `:0`).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    accept: thread::JoinHandle<()>,
    core: thread::JoinHandle<io::Result<ServeReport>>,
    /// Startup recovery facts (0/0 for a fresh journal).
    pub recovery: RecoveryReport,
}

impl Server {
    /// Binds, recovers (or creates) the journal, and spawns the acceptor
    /// and core threads. It first fixes the allocator's mmap threshold
    /// ([`pin_malloc_thresholds`]), so the daemon's resident memory does
    /// not depend on thread timing.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        pin_malloc_thresholds();
        let machine_cfg = MachineConfig {
            site: cfg.site.clone(),
            provenance: cfg.provenance,
            status_capacity: cfg.status_capacity,
        };
        let (run, recovery) = match &cfg.journal {
            Some(path) => {
                ServiceRun::resume_file(path, machine_cfg, cfg.snapshot_every, cfg.fsync_every_n)?
            }
            None => {
                // Nothing can be recovered from a journal that keeps no
                // bytes, so cadence snapshots would be serialised only
                // to be dropped: snapshot cadence 0.
                let run = ServiceRun::new(machine_cfg, Journal::discarding(), 0)?;
                (run, RecoveryReport::default())
            }
        };
        // Startup facts for the first scrape, before any traffic.
        tel::gauge_set(tel::Gauge::RecoveredReplayed, recovery.replayed);
        tel::gauge_set(
            tel::Gauge::RecoveredDroppedBytes,
            recovery.dropped_bytes as u64,
        );
        tel::gauge_set(tel::Gauge::QueueCapacity, cfg.queue_capacity.max(1) as u64);
        tel::gauge_set(tel::Gauge::QueueSlack, cfg.queue_capacity.max(1) as u64);

        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shed_threshold = if cfg.shed_threshold == 0 {
            (cfg.queue_capacity / 2).max(1)
        } else {
            cfg.shed_threshold
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            shed_threshold,
            clock: Clock {
                t0: Instant::now(),
                offset: run.machine().now().as_f64(),
                scale: cfg.time_scale,
            },
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            backpressured: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            ema_apply_ns: AtomicU64::new(1_000),
            request_timeout: cfg.request_timeout,
            chaos: cfg.chaos.clone(),
        });

        let core = {
            let shared = Arc::clone(&shared);
            let throttle = cfg.throttle;
            let discount = cfg.site.admission_discount_rate;
            let recovery_copy = recovery;
            thread::Builder::new()
                .name("mbts-serve-core".to_string())
                .spawn(move || core_loop(run, shared, throttle, discount, recovery_copy))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("mbts-serve-accept".to_string())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Server {
            addr,
            shared,
            accept,
            core,
            recovery,
        })
    }

    /// Requests a graceful drain (what SIGTERM does).
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }

    /// Waits for the drain to finish and returns the final report.
    pub fn join(self) -> io::Result<ServeReport> {
        let _ = self.accept.join();
        self.core
            .join()
            .map_err(|_| io::Error::other("serve core thread panicked"))?
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some(firing) = shared.chaos_hit(POINT_ACCEPT) {
                    if matches!(firing.action, FailAction::AcceptFail) {
                        // Close before a worker exists: the client sees a
                        // reset, exactly like an accept-queue overflow.
                        drop(stream);
                        continue;
                    }
                }
                let shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("mbts-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(StdDuration::from_millis(5));
            }
            Err(_) => thread::sleep(StdDuration::from_millis(5)),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(StdDuration::from_millis(250)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        // Wait for bytes (or idle out) before committing to a parse, so a
        // keep-alive lull never corrupts mid-request framing.
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if shared.stopping() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if let Some(firing) = shared.chaos_hit(POINT_CONN_READ) {
            match firing.action {
                FailAction::SlowRead { delay_ms } => {
                    thread::sleep(StdDuration::from_millis(delay_ms));
                }
                FailAction::DropConn => return,
                _ => {}
            }
        }
        let t0 = Instant::now();
        let req = match profiler::time(Section::ServeParse, || http::read_request(&mut reader)) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                tel::count_request(tel::Route::Other, tel::Outcome::Malformed);
                let reply = Reply::error(400, &e.to_string());
                let _ = send_reply(&mut writer, &reply);
                let _ = writer.flush();
                return;
            }
        };
        let reply = route(&req, &shared);
        tel::count_request(route_of(&req), outcome_of(&reply));
        tel::record_ns(tel::Hist::Request, elapsed_ns(t0));
        if let Some(firing) = shared.chaos_hit(POINT_CONN_WRITE) {
            match firing.action {
                FailAction::DropConn => return,
                FailAction::PartialWrite { max_bytes } => {
                    // Render the full response, then put only a seeded
                    // prefix on the wire and close: the client sees a
                    // torn reply it must treat as a failed request.
                    let mut wire = Vec::new();
                    if send_reply(&mut wire, &reply).is_err() {
                        return;
                    }
                    let cap = max_bytes.max(1).min(wire.len()) as u64;
                    let n = (1 + firing.entropy % cap) as usize;
                    let _ = writer.write_all(&wire[..n]);
                    let _ = writer.flush();
                    return;
                }
                _ => {}
            }
        }
        if send_reply(&mut writer, &reply).is_err() {
            return;
        }
        // Flush only when no pipelined request is already buffered.
        if reader.buffer().is_empty() && writer.flush().is_err() {
            return;
        }
    }
}

fn send_reply(w: &mut impl Write, reply: &Reply) -> io::Result<()> {
    http::write_response_typed(
        w,
        reply.status,
        http::reason(reply.status),
        reply.content_type,
        &reply.extra,
        &reply.body,
    )
}

#[derive(Debug, Serialize)]
struct Healthz {
    ok: bool,
    draining: bool,
}

fn route(req: &http::Request, shared: &Arc<Shared>) -> Reply {
    if req.method == "GET" && req.target == "/healthz" {
        // Liveness must not depend on the core thread or the queue.
        return Reply::json(
            200,
            Healthz {
                ok: true,
                draining: shared.stopping(),
            },
        );
    }
    if req.method == "GET" && req.target == "/readyz" {
        // Readiness flips to 503 the moment a drain starts, so load
        // balancers stop routing before the final 503s appear.
        let draining = shared.stopping();
        let status = if draining { 503 } else { 200 };
        return Reply::json(
            status,
            Healthz {
                ok: !draining,
                draining,
            },
        );
    }
    if req.method == "GET" && req.target == "/metrics" {
        // Rendered entirely from the atomic registry in this worker
        // thread: a scrape never touches the queue, the core thread, or
        // the journal, so it cannot block or perturb admission.
        return Reply::text(200, tel::scrape_text().into_bytes());
    }
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if shared.stopping() {
        return Reply::error(503, "draining").with_retry_after(5);
    }
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/submit") => match serde_json::from_slice::<SubmitBody>(&req.body) {
            Ok(body) => match body.validate() {
                Ok(()) => dispatch(shared, Work::Submit(body)),
                Err(detail) => Reply::error(400, detail),
            },
            Err(e) => Reply::error(400, &format!("bad submit body: {e}")),
        },
        ("POST", "/cancel") => match serde_json::from_slice::<CancelBody>(&req.body) {
            Ok(body) => dispatch(shared, Work::Cancel(body.task)),
            Err(e) => Reply::error(400, &format!("bad cancel body: {e}")),
        },
        ("POST", "/drain") => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.cv.notify_all();
            Reply::json(
                200,
                Healthz {
                    ok: true,
                    draining: true,
                },
            )
        }
        ("GET", "/stats") => dispatch(shared, Work::Stats),
        ("GET", target) if target.starts_with("/status/") => {
            match target["/status/".len()..].parse::<u64>() {
                Ok(id) => dispatch(shared, Work::Status(id)),
                Err(_) => Reply::error(400, "task id must be an integer"),
            }
        }
        ("GET" | "POST", _) => Reply::error(404, "unknown endpoint"),
        _ => Reply::error(405, "unsupported method"),
    }
}

/// Enqueues work (bounded) and waits for the core's reply.
fn dispatch(shared: &Arc<Shared>, work: Work) -> Reply {
    let (tx, rx) = mpsc::sync_channel(1);
    {
        // A poisoned queue (a panicking peer mid-push) must not take the
        // whole front-end down: recover the guard and keep serving.
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= shared.capacity {
            drop(q);
            shared.backpressured.fetch_add(1, Ordering::Relaxed);
            let secs = shared.retry_after_secs(shared.capacity);
            return Reply::error(429, "backpressure: admission queue full").with_retry_after(secs);
        }
        q.push_back(Pending {
            work,
            arrival: shared.clock.now(),
            enqueued: Instant::now(),
            reply: tx,
        });
    }
    shared.cv.notify_one();
    match rx.recv_timeout(shared.request_timeout) {
        Ok(reply) => reply,
        Err(_) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            Reply::error(503, "request timed out in the service core")
                .with_retry_after(1)
                .tagged(tel::Outcome::Timeout)
        }
    }
}

/// The single core thread: shed pass + journal-first batch apply.
fn core_loop(
    mut run: ServiceRun,
    shared: Arc<Shared>,
    throttle: StdDuration,
    discount_rate: f64,
    recovery: RecoveryReport,
) -> io::Result<ServeReport> {
    let started = Instant::now();
    let mut fatal: Option<io::Error> = None;
    publish_gauges(&run, &shared, started);

    'outer: loop {
        let (victims, batch, depth) = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            while q.is_empty() && !shared.stopping() {
                // Keep scrape-visible state fresh while idle (uptime,
                // drain flag, late completions folded by earlier
                // batches). Atomic stores only; the queue lock stays
                // held, which is fine — nothing here re-locks it.
                publish_gauges_at(&run, &shared, started, 0);
                let (guard, _) = shared
                    .cv
                    .wait_timeout(q, StdDuration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            if q.is_empty() {
                break 'outer; // stopping and fully drained
            }
            let depth = q.len();
            let now = shared.clock.now();
            let victims = if depth > shared.shed_threshold {
                extract_victims(&mut q, depth - shared.shed_threshold, now, discount_rate)
            } else {
                Vec::new()
            };
            let take = q.len().min(CORE_BATCH);
            let batch: Vec<Pending> = q.drain(..take).collect();
            (victims, batch, depth)
        };

        for (victim, reason) in victims {
            if let Err(e) = shed_one(&mut run, &shared, victim, reason, depth, discount_rate) {
                fatal = Some(e);
                break 'outer;
            }
        }
        for pending in batch {
            if !throttle.is_zero() {
                thread::sleep(throttle);
            }
            if let Err(e) = handle_one(&mut run, &shared, pending) {
                fatal = Some(e);
                break 'outer;
            }
        }
        publish_gauges(&run, &shared, started);
    }

    let clean_drain = if fatal.is_none() {
        let sealed = run
            .apply(shared.clock.now(), CommandKind::Drain)
            .and_then(|_| run.snapshot_now())
            .and_then(|_| run.sync());
        match sealed {
            Ok(()) => true,
            Err(e) => {
                fatal = Some(e);
                false
            }
        }
    } else {
        // The journal already failed once; leave it untouched for forensics.
        shared.stop.store(true, Ordering::SeqCst);
        false
    };

    publish_gauges(&run, &shared, started);

    let machine = run.machine();
    let counters = *machine.counters();
    let report = ServeReport {
        summary: ServeSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            accepted: counters.accepted,
            rejected: counters.rejected,
            shed: counters.shed,
            backpressured: shared.backpressured.load(Ordering::Relaxed),
            cancelled: counters.cancelled,
            completed: counters.finished,
            timeouts: shared.timeouts.load(Ordering::Relaxed),
            wall_ns: elapsed_ns(started),
        },
        applied: machine.applied(),
        violations: machine.violations(),
        recovered_replayed: recovery.replayed,
        recovered_dropped_bytes: recovery.dropped_bytes,
        total_yield: machine.metrics().total_yield,
        clean_drain,
    };
    match fatal {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Publishes the core thread's view into the telemetry gauges with a
/// fresh queue-depth reading (takes the queue lock briefly).
fn publish_gauges(run: &ServiceRun, shared: &Shared, started: Instant) {
    if !tel::is_enabled() {
        return;
    }
    let depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    publish_gauges_at(run, shared, started, depth);
}

/// Publishes queue, machine, and economy gauges. Atomic stores only —
/// callable with the queue lock held (`depth` is passed in, never read).
/// Only the core thread calls this, so gauges are a consistent view of
/// the machine between batches.
fn publish_gauges_at(run: &ServiceRun, shared: &Shared, started: Instant, depth: usize) {
    if !tel::is_enabled() {
        return;
    }
    let m = run.machine();
    let met = m.metrics();
    let site = m.site();
    tel::gauge_set(tel::Gauge::QueueDepth, depth as u64);
    tel::gauge_set(
        tel::Gauge::QueueSlack,
        shared.capacity.saturating_sub(depth) as u64,
    );
    tel::gauge_set(tel::Gauge::Draining, u64::from(shared.stopping()));
    tel::gauge_set(
        tel::Gauge::ApplyEmaNs,
        shared.ema_apply_ns.load(Ordering::Relaxed),
    );
    tel::gauge_set(tel::Gauge::Applied, m.applied());
    tel::gauge_set(tel::Gauge::PendingTasks, site.pending_len() as u64);
    tel::gauge_set(tel::Gauge::RunningTasks, site.running_len() as u64);
    tel::gauge_set(tel::Gauge::FreeProcessors, site.free_processors() as u64);
    tel::gauge_set(
        tel::Gauge::OutstandingCompletions,
        m.outstanding_completions() as u64,
    );
    tel::gauge_set_f64(tel::Gauge::TasksSubmitted, met.submitted as f64);
    tel::gauge_set_f64(tel::Gauge::TasksStranded, met.stranded as f64);
    tel::gauge_set_f64(tel::Gauge::TotalYield, met.total_yield);
    tel::gauge_set_f64(tel::Gauge::TotalPenalty, met.total_penalty);
    tel::gauge_set(tel::Gauge::Violations, m.violations() as u64);
    tel::gauge_set_f64(tel::Gauge::UptimeSeconds, started.elapsed().as_secs_f64());
}

/// Picks `excess` shed victims out of the queue: expired submissions
/// first, then ascending present value. Non-submission work (cancels,
/// reads) is never shed.
fn extract_victims(
    q: &mut VecDeque<Pending>,
    excess: usize,
    now: Time,
    discount_rate: f64,
) -> Vec<(Pending, ShedReason)> {
    let mut out = Vec::new();
    for _ in 0..excess {
        let mut pick: Option<(usize, ShedReason, f64)> = None;
        for (i, p) in q.iter().enumerate() {
            let Work::Submit(body) = &p.work else {
                continue;
            };
            let spec = body.to_spec(p.arrival);
            if spec.expire_time() <= now {
                pick = Some((i, ShedReason::Expired, f64::NEG_INFINITY));
                break;
            }
            let pv = Job::new(spec).present_value(now, discount_rate);
            let better = match pick {
                None => true,
                Some((_, _, best)) => pv < best,
            };
            if better {
                pick = Some((i, ShedReason::LowestValue, pv));
            }
        }
        match pick {
            Some((i, reason, _)) => {
                let victim = q.remove(i).expect("picked index in bounds");
                out.push((victim, reason));
            }
            None => break,
        }
    }
    out
}

fn shed_one(
    run: &mut ServiceRun,
    shared: &Arc<Shared>,
    victim: Pending,
    reason: ShedReason,
    queue_depth: usize,
    discount_rate: f64,
) -> io::Result<()> {
    let Work::Submit(body) = &victim.work else {
        unreachable!("only submissions are shed");
    };
    let now = shared.clock.now();
    let spec = body.to_spec(victim.arrival);
    // Walked-away value: the victim's Eq. 3 present value at shed time.
    // Accumulated in telemetry only — never in machine state, so shed
    // accounting cannot change snapshot bytes.
    let pv = Job::new(spec).present_value(now, discount_rate);
    tel::gauge_add_f64(tel::Gauge::ShedPvLost, pv.max(0.0));
    let (_, outcome) = run.apply(
        now,
        CommandKind::Shed {
            spec,
            queue_depth,
            reason,
        },
    )?;
    let ApplyOutcome::Shed { task, reason } = outcome else {
        unreachable!("shed commands produce shed outcomes");
    };
    // The journaled `queue_depth` is the shed decision's input and must
    // replay as recorded; the Retry-After hint instead reflects the
    // backlog a retry would face *now* — mid-batch the two diverge (the
    // threshold may have been crossed while earlier victims drained).
    let live_depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let secs = shared.retry_after_secs(live_depth);
    let reply = Reply::json(
        429,
        ShedView {
            error: "shed under overload",
            task: task.0,
            reason,
        },
    )
    .with_retry_after(secs)
    .tagged(tel::Outcome::Shed);
    let _ = victim.reply.send(reply);
    Ok(())
}

#[derive(Debug, Serialize)]
struct ShedView {
    error: &'static str,
    task: u64,
    reason: ShedReason,
}

#[derive(Debug, Serialize)]
struct SubmitView {
    task: u64,
    accepted: bool,
    applied: u64,
}

#[derive(Debug, Serialize)]
struct CancelView {
    task: u64,
    cancelled: bool,
}

fn handle_one(run: &mut ServiceRun, shared: &Arc<Shared>, pending: Pending) -> io::Result<()> {
    profiler::record_since(Section::ServeQueueWait, pending.enqueued);
    let now = shared.clock.now();
    let reply = match &pending.work {
        Work::Submit(body) => {
            let spec = body.to_spec(pending.arrival);
            // One clock pair feeds the Retry-After EMA and the section.
            let t0 = Instant::now();
            let (_, outcome) = run.apply(now, CommandKind::Submit { spec })?;
            let apply_ns = elapsed_ns(t0);
            shared.note_apply_ns(apply_ns);
            profiler::record_ns(Section::ServeApply, apply_ns);
            let ApplyOutcome::Submitted { task, accepted } = outcome else {
                unreachable!("submit commands produce submit outcomes");
            };
            Reply::json(
                200,
                SubmitView {
                    task: task.0,
                    accepted,
                    applied: run.machine().applied(),
                },
            )
            .tagged(if accepted {
                tel::Outcome::Ack
            } else {
                tel::Outcome::Rejected
            })
        }
        Work::Cancel(task) => {
            let (_, outcome) = profiler::time(Section::ServeApply, || {
                run.apply(
                    now,
                    CommandKind::Cancel {
                        task: TaskId(*task),
                    },
                )
            })?;
            let ApplyOutcome::Cancelled { task, found } = outcome else {
                unreachable!("cancel commands produce cancel outcomes");
            };
            Reply::json(
                200,
                CancelView {
                    task: task.0,
                    cancelled: found,
                },
            )
        }
        Work::Status(task) => match run.machine().status(*task) {
            Some(status) => Reply::json(
                200,
                StatusView {
                    task: *task,
                    status,
                },
            ),
            None => Reply::error(404, "unknown task"),
        },
        Work::Stats => {
            let m = run.machine();
            let depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
            Reply::json(
                200,
                StatsView {
                    now: m.now().as_f64(),
                    applied: m.applied(),
                    draining: m.draining(),
                    queue_depth: depth,
                    pending: m.site().pending_len(),
                    running: m.site().running_len(),
                    free_processors: m.site().free_processors(),
                    outstanding_completions: m.outstanding_completions(),
                    total_yield: m.metrics().total_yield,
                    violations: m.violations(),
                    counters: *m.counters(),
                },
            )
        }
    };
    let _ = pending.reply.send(reply);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_floors_at_one_second_even_for_an_empty_queue() {
        // Queue slack 0 (just drained / shed with nothing behind it):
        // an instant-retry hint would race the same overload again.
        assert_eq!(retry_after_from(1_000, 0), 1);
        assert_eq!(retry_after_from(0, 0), 1);
        // Sub-second backlogs round up, never down to zero.
        assert_eq!(retry_after_from(1_000_000, 500), 1); // 0.5ms × 500 = 0.25s
    }

    #[test]
    fn retry_after_scales_with_backlog_and_caps_at_sixty() {
        // 2ms EMA × 5000 deep = 10s of backlog.
        assert_eq!(retry_after_from(2_000_000, 5_000), 10);
        // 2ms EMA × 1000 deep = 2s.
        assert_eq!(retry_after_from(2_000_000, 1_000), 2);
        // A latency spike must not park clients for minutes.
        assert_eq!(retry_after_from(u64::MAX, 1), 60);
        assert_eq!(retry_after_from(1_000_000_000, 100_000), 60);
    }

    #[test]
    fn retry_after_survives_zero_ema() {
        // The EMA starts life at a seed value but a zero must not panic
        // or hint zero seconds.
        assert_eq!(retry_after_from(0, 10_000), 1);
    }

    #[test]
    fn error_replies_are_valid_json_even_with_quotes_in_the_detail() {
        #[derive(Deserialize)]
        struct ErrBody {
            error: String,
        }
        let reply = Reply::error(400, "bad \"quoted\" input\r\n");
        let e: ErrBody = serde_json::from_slice(&reply.body).expect("error body parses as JSON");
        assert_eq!(e.error, "bad \"quoted\" input\r\n");
        assert_eq!(reply.status, 400);
    }

    #[test]
    fn retry_after_header_value_matches_the_computation() {
        let reply = Reply::error(429, "backpressure").with_retry_after(retry_after_from(1_000, 0));
        let (name, value) = &reply.extra[0];
        assert_eq!(*name, "retry-after");
        assert_eq!(value, "1");
    }
}
