//! The two daemon workloads: `serve-flood` (every default, so snapshots
//! at the default cadence) and `serve-durable` (`fsync_every_n = 1`).
//!
//! One round is one daemon life: an in-process `Server::start` on a file
//! journal, two closed-loop connections with sixteen requests in flight
//! each, then a drain. After the drain the journal is cut just before the
//! drain marker — the image a SIGKILL would have left — recovered, timed,
//! and checked against the machine that kept running.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mbts_durable::framing::{HEADER_LEN, RECORD_OVERHEAD};
use mbts_serve::{
    Command, CommandKind, ServeConfig, ServeReport, Server, ServiceMachine, ServiceRun,
};
use mbts_site::SiteConfig;

use crate::gen::{self, ConnScript, Op};
use crate::host;
use crate::report::{check, Check};
use crate::sim::NOMINAL_SECONDS;

/// Connections, each its own client thread (≤ `nproc` on the reference
/// host).
pub const CONNS: usize = 2;
/// Requests each connection keeps in flight. A snapshot stalls every
/// request in flight, 32 of every 8192 (0.4 %), so `latency_p99_us` is the
/// tail of ordinary requests, not the length of a stall; the stalls have
/// their own per-layer metrics (`serve.snapshot_ns_*`).
pub const WINDOW: usize = 16;
/// Sim-time units per wall second. Offered load is
/// `submits/s · mean runtime / (time_scale · processors)`; at three times
/// today's 25k req/s that is 72000·100/(400000·64) = 0.28, so the site
/// stays lightly loaded and `yield_share` does not follow throughput.
pub const TIME_SCALE: f64 = 400_000.0;

/// What tells the two daemon workloads apart.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    pub name: &'static str,
    pub fsync_every_n: u64,
    /// Requests of one daemon life at the nominal run length.
    pub requests: usize,
    /// Timed lives per run.
    pub rounds: usize,
}

/// Three lives, not five: a 120,000-request life with its recovery and
/// checks takes 6.5 s here, and five of them would not fit the run.
pub const FLOOD: ServeParams = ServeParams {
    name: "serve-flood",
    fsync_every_n: 0,
    requests: 120_000,
    rounds: 3,
};

pub const DURABLE: ServeParams = ServeParams {
    name: "serve-durable",
    fsync_every_n: 1,
    requests: 20_000,
    rounds: 6,
};

impl ServeParams {
    /// Requests per life when the run is sized for `seconds`.
    pub fn requests_for(&self, seconds: f64) -> usize {
        ((self.requests as f64 * seconds / NOMINAL_SECONDS).round() as usize)
            .max(CONNS * (gen::WARM_SUBMITS + WINDOW))
    }

    /// Every `ServeConfig` default except the journal file, the site's
    /// size, the clock scale, and (for `serve-durable`) the fsync cadence.
    pub fn config(&self, journal: &Path) -> ServeConfig {
        ServeConfig {
            site: SiteConfig::new(gen::SERVE_PROCESSORS),
            journal: Some(journal.to_path_buf()),
            time_scale: TIME_SCALE,
            fsync_every_n: self.fsync_every_n,
            ..ServeConfig::default()
        }
    }
}

/// The client's own account of what it sent and what came back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Books {
    pub submits: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub cancels: u64,
    pub cancel_hits: u64,
    pub probes: u64,
    /// 429 and 503 answers: the daemon refused or shed the request.
    pub refused: u64,
    /// Any other non-200 answer, or a 200 whose body made no sense.
    pub failed: u64,
}

impl Books {
    fn add(&mut self, o: &Books) {
        self.submits += o.submits;
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.cancels += o.cancels;
        self.cancel_hits += o.cancel_hits;
        self.probes += o.probes;
        self.refused += o.refused;
        self.failed += o.failed;
    }

    pub fn requests(&self) -> u64 {
        self.submits + self.cancels + self.probes
    }
}

/// What the traced round keeps about one request.
#[derive(Debug, Clone)]
pub struct ReqTrace {
    /// Position in the life's script (`i mod CONNS` is the connection).
    pub index: u64,
    pub wire: Vec<u8>,
    /// ns since the round's epoch: write begins, write returns, the read
    /// that delivered the reply's first byte returns, reply parsed.
    pub send_start: u64,
    pub send_end: u64,
    pub first_byte: u64,
    pub parsed: u64,
    pub status: u16,
    pub body: Vec<u8>,
    /// Task id the reply named, if any.
    pub task: Option<u64>,
    pub kind: ReqKind,
}

/// What a request of the script was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    Submit,
    Cancel,
    Status,
}

#[derive(Debug, Default)]
struct ConnResult {
    lat_ns: Vec<u64>,
    books: Books,
    /// Σ value of accepted submits, less those a cancel withdrew.
    accepted_value: f64,
    /// Ids of submits the daemon answered 200 for.
    acked: Vec<u64>,
    traces: Vec<ReqTrace>,
}

/// Reads pipelined HTTP responses off one connection without the
/// program's help: the client's cost must not move when `http.rs` does.
struct ReplyReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    last_fill: Instant,
}

struct Reply {
    status: u16,
    body: Range,
    first_byte: Instant,
}

type Range = std::ops::Range<usize>;

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl ReplyReader {
    fn new(stream: TcpStream) -> Self {
        ReplyReader {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            last_fill: Instant::now(),
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 && self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.last_fill = Instant::now();
        self.end += n;
        Ok(())
    }

    /// The next complete response; the body range stays valid until the
    /// next call.
    fn next(&mut self) -> io::Result<Reply> {
        let mut first_byte = (self.start < self.end).then_some(self.last_fill);
        loop {
            let have = &self.buf[self.start..self.end];
            if let Some(head_len) = find(have, b"\r\n\r\n").map(|p| p + 4) {
                let head = &have[..head_len];
                let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response head");
                let status = std::str::from_utf8(head.get(9..12).ok_or_else(bad)?)
                    .ok()
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(bad)?;
                let key = b"content-length: ";
                let at = find(head, key).ok_or_else(bad)? + key.len();
                let digits = head[at..].iter().take_while(|b| b.is_ascii_digit()).count();
                let len = std::str::from_utf8(&head[at..at + digits])
                    .ok()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(bad)?;
                if have.len() >= head_len + len {
                    let body = self.start + head_len..self.start + head_len + len;
                    self.start = body.end;
                    return Ok(Reply {
                        status,
                        body,
                        first_byte: first_byte.expect("a parsed reply has a first byte"),
                    });
                }
            }
            self.fill()?;
            first_byte.get_or_insert(self.last_fill);
        }
    }
}

/// `"key":<digits>` anywhere in a flat JSON body.
fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = find(body, pat.as_bytes())? + pat.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// `"key":true|false` anywhere in a flat JSON body.
fn json_bool(body: &[u8], key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let rest = &body[find(body, pat.as_bytes())? + pat.len()..];
    if rest.starts_with(b"true") {
        Some(true)
    } else if rest.starts_with(b"false") {
        Some(false)
    } else {
        None
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Drives one connection's script, closed loop, `WINDOW` in flight.
fn drive_connection(
    stream: TcpStream,
    script: &ConnScript,
    conn: usize,
    epoch: Instant,
    traced: bool,
) -> io::Result<ConnResult> {
    let mut out = ConnResult {
        lat_ns: Vec::with_capacity(script.ops.len()),
        acked: Vec::with_capacity(script.ops.len()),
        ..ConnResult::default()
    };
    let mut writer = stream.try_clone()?;
    let mut reader = ReplyReader::new(stream);
    // (op index, send instant, trace slot) of requests awaiting a reply.
    let mut inflight: VecDeque<(usize, Instant, usize)> = VecDeque::with_capacity(WINDOW);
    // (id, value, accepted) of acked submits, for probes and cancels.
    let mut recent: Vec<(u64, f64, bool)> = Vec::with_capacity(script.ops.len());
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    let mut next = 0usize;
    let total = script.ops.len();
    let target = |recent: &[(u64, f64, bool)], back: usize| {
        recent[recent.len() - 1 - back.min(recent.len() - 1)].0
    };
    while next < total || !inflight.is_empty() {
        while next < total && inflight.len() < WINDOW {
            let wire: &[u8] = match &script.ops[next] {
                Op::Submit { wire, .. } => &script.wire[wire.clone()],
                Op::Cancel { back } => {
                    scratch.clear();
                    gen::render_cancel(&mut scratch, target(&recent, *back));
                    &scratch
                }
                Op::Status { back } => {
                    scratch.clear();
                    gen::render_status(&mut scratch, target(&recent, *back));
                    &scratch
                }
            };
            let sent = Instant::now();
            writer.write_all(wire)?;
            let slot = out.traces.len();
            if traced {
                out.traces.push(ReqTrace {
                    index: (next * CONNS + conn) as u64,
                    wire: wire.to_vec(),
                    send_start: ns_since(epoch, sent),
                    send_end: ns_since(epoch, Instant::now()),
                    first_byte: 0,
                    parsed: 0,
                    status: 0,
                    body: Vec::new(),
                    task: None,
                    kind: ReqKind::Submit,
                });
            }
            inflight.push_back((next, sent, slot));
            next += 1;
        }
        let reply = reader.next()?;
        let done = Instant::now();
        let (op, sent, slot) = inflight.pop_front().expect("a reply answers a request");
        out.lat_ns.push((done - sent).as_nanos() as u64);
        let body = &reader.buf[reply.body.clone()];
        let task = json_u64(body, "task");
        let b = &mut out.books;
        let kind = match &script.ops[op] {
            Op::Submit { value, .. } => {
                b.submits += 1;
                match (reply.status, task, json_bool(body, "accepted")) {
                    (200, Some(id), Some(accepted)) => {
                        if accepted {
                            b.accepted += 1;
                            out.accepted_value += value;
                        } else {
                            b.rejected += 1;
                        }
                        out.acked.push(id);
                        recent.push((id, *value, accepted));
                    }
                    (429 | 503, ..) => b.refused += 1,
                    _ => b.failed += 1,
                }
                ReqKind::Submit
            }
            Op::Cancel { .. } => {
                b.cancels += 1;
                match (reply.status, task, json_bool(body, "cancelled")) {
                    (200, Some(id), Some(hit)) => {
                        if hit {
                            b.cancel_hits += 1;
                            // The withdrawn bid no longer counts as accepted value.
                            if let Some(r) = recent.iter().rev().find(|r| r.0 == id && r.2) {
                                out.accepted_value -= r.1;
                            }
                        }
                    }
                    (429 | 503, ..) => b.refused += 1,
                    _ => b.failed += 1,
                }
                ReqKind::Cancel
            }
            Op::Status { .. } => {
                b.probes += 1;
                match (reply.status, task) {
                    (200, Some(_)) => {}
                    (429 | 503, _) => b.refused += 1,
                    _ => b.failed += 1,
                }
                ReqKind::Status
            }
        };
        if traced {
            let t = &mut out.traces[slot];
            t.first_byte = ns_since(epoch, reply.first_byte);
            t.parsed = ns_since(epoch, done);
            t.status = reply.status;
            t.body = body.to_vec();
            t.task = task;
            t.kind = kind;
        }
    }
    Ok(out)
}

/// One record's place in a journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordAt {
    pub offset: u64,
    /// 1 = snapshot, 2 = event (`framing::RecordTag`'s wire bytes).
    pub tag: u8,
    pub len: u32,
}

const TAG_SNAPSHOT: u8 = 1;
const TAG_EVENT: u8 = 2;

/// Walks the record headers of a journal file (`tag:u8 len:u32le
/// crc:u32le payload`, after the 12-byte file header) without reading the
/// payloads or checking CRCs — recovery does that, timed, afterwards.
pub fn walk_records(path: &Path) -> io::Result<Vec<RecordAt>> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::with_capacity(1 << 16, file);
    r.seek(SeekFrom::Start(HEADER_LEN as u64))?;
    let mut at = HEADER_LEN as u64;
    let mut out = Vec::new();
    let mut head = [0u8; RECORD_OVERHEAD];
    while at + RECORD_OVERHEAD as u64 <= file_len {
        r.read_exact(&mut head)?;
        let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
        let end = at + RECORD_OVERHEAD as u64 + u64::from(len);
        if end > file_len {
            break; // torn tail
        }
        out.push(RecordAt {
            offset: at,
            tag: head[0],
            len,
        });
        r.seek_relative(i64::from(len))?;
        at = end;
    }
    Ok(out)
}

/// Where a cleanly drained journal would have ended had the process been
/// killed just before the drain marker was appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashCut {
    /// Byte offset of the drain marker's record: the image's length.
    pub cut: u64,
    /// Event records before the cut (journaled commands in the image).
    pub commands: u64,
    /// Snapshot records before the cut, the genesis one not counted.
    pub periodic_snapshots: u64,
}

/// A clean drain ends `… [Event: Drain] [Snapshot: final]`; the image is
/// everything before that event. Anything else is not a clean drain.
pub fn crash_cut(records: &[RecordAt]) -> Result<CrashCut, String> {
    let [.., drain, last] = records else {
        return Err(format!("journal holds only {} records", records.len()));
    };
    if last.tag != TAG_SNAPSHOT || drain.tag != TAG_EVENT {
        return Err(format!(
            "journal does not end in a drain marker and a final snapshot (tags {} {})",
            drain.tag, last.tag
        ));
    }
    let before = &records[..records.len() - 2];
    let snapshots = before.iter().filter(|r| r.tag == TAG_SNAPSHOT).count() as u64;
    if before.first().map(|r| r.tag) != Some(TAG_SNAPSHOT) {
        return Err("journal does not start with a genesis snapshot".to_string());
    }
    Ok(CrashCut {
        cut: drain.offset,
        commands: before.iter().filter(|r| r.tag == TAG_EVENT).count() as u64,
        periodic_snapshots: snapshots - 1,
    })
}

/// Payload of the framed record at the head of `bytes`, and what follows.
fn split_record(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(bytes.get(1..5)?.try_into().ok()?) as usize;
    let payload = bytes.get(RECORD_OVERHEAD..RECORD_OVERHEAD + len)?;
    Some((payload, &bytes[RECORD_OVERHEAD + len..]))
}

/// Measured pieces of one recovery, for the traced ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverParts {
    pub scan_ns: u64,
    pub parse_ns: u64,
    pub replay_ns: u64,
    pub replayed: u64,
}

/// One daemon life, measured.
#[derive(Debug)]
pub struct ServeRound {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Per-request latencies, ns, ascending.
    pub lat_ns: Vec<u64>,
    pub books: Books,
    pub yield_share: f64,
    pub recover_s: f64,
    pub journal_bytes_per_op: f64,
    pub image_bytes: u64,
    pub commands: u64,
    pub periodic_snapshots: u64,
    pub replayed: u64,
    pub generate_ns_per_task: f64,
    pub checks: Vec<Check>,
    /// Traced rounds keep what the replay needs.
    pub traced: Option<TracedLife>,
}

impl ServeRound {
    pub fn throughput(&self) -> f64 {
        self.books.requests() as f64 / self.wall_s
    }

    /// Requests that got no useful answer: refused, shed, or malformed.
    pub fn failed(&self) -> u64 {
        self.books.refused + self.books.failed
    }
}

/// What a traced life leaves for the single-threaded replay.
#[derive(Debug)]
pub struct TracedLife {
    pub requests: Vec<ReqTrace>,
    /// Every journaled command of the image, in order.
    pub commands: Vec<Command>,
    /// Bytes of each event record's payload, in order.
    pub record_bytes: Vec<u32>,
    pub recover: RecoverParts,
    pub image_bytes: u64,
}

fn journal_path(name: &str, round: usize) -> io::Result<PathBuf> {
    Ok(host::scratch_dir()?.join(format!("{name}-{}-{round}.journal", std::process::id())))
}

/// A daemon ready for its first request: what `setup_s` covers.
struct Ready {
    script: gen::ServeScript,
    server: Server,
    streams: Vec<TcpStream>,
    journal: PathBuf,
    setup_s: f64,
    generate_ns_per_task: f64,
}

/// Generates the life's inputs, starts the daemon on a fresh journal and
/// connects to it.
fn set_up(p: &ServeParams, seed: u64, requests: usize, idx: usize) -> io::Result<Ready> {
    let t_setup = Instant::now();
    let (script, bids) = gen::serve_script(seed, requests, CONNS);
    let generate_ns_per_task = t_setup.elapsed().as_nanos() as f64 / bids.tasks.len() as f64;
    drop(bids);
    let journal = journal_path(p.name, idx)?;
    let _ = std::fs::remove_file(&journal);
    let server = Server::start(p.config(&journal))?;
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(server.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_write_timeout(Some(Duration::from_secs(30)))?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    Ok(Ready {
        script,
        server,
        streams,
        journal,
        setup_s: t_setup.elapsed().as_secs_f64(),
        generate_ns_per_task,
    })
}

/// Sets up as a life does, times it, and tears down without a request.
pub fn setup_only(p: &ServeParams, seed: u64, requests: usize) -> io::Result<f64> {
    let ready = set_up(p, seed, requests, 0)?;
    drop(ready.streams);
    ready.server.request_stop();
    ready.server.join()?;
    std::fs::remove_file(&ready.journal)?;
    Ok(ready.setup_s)
}

/// Runs one daemon life and everything that is checked after it.
pub fn round(
    p: &ServeParams,
    seed: u64,
    requests: usize,
    idx: usize,
    traced: bool,
) -> io::Result<ServeRound> {
    let Ready {
        script,
        server,
        streams,
        journal: path,
        setup_s,
        generate_ns_per_task,
    } = set_up(p, seed, requests, idx)?;

    // ---- the timed part: every request answered -----------------------
    let barrier = Barrier::new(CONNS + 1);
    let epoch = Instant::now();
    let (results, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&script.conns)
            .enumerate()
            .map(|(c, (stream, conn))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    drive_connection(stream, conn, c, epoch, traced)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let results: Vec<io::Result<ConnResult>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, t0.elapsed().as_secs_f64())
    });

    // ---- drain ---------------------------------------------------------
    server.request_stop();
    let report = server.join()?;
    let mut books = Books::default();
    let mut lat_ns = Vec::with_capacity(requests);
    let mut accepted_value = 0.0;
    let mut acked: Vec<u64> = Vec::new();
    let mut traces: Vec<ReqTrace> = Vec::new();
    for r in results {
        let r = r?;
        books.add(&r.books);
        lat_ns.extend_from_slice(&r.lat_ns);
        accepted_value += r.accepted_value;
        acked.extend_from_slice(&r.acked);
        traces.extend(r.traces);
    }
    lat_ns.sort_unstable();

    // ---- the SIGKILL image, its recovery, and the checks ----------------
    let mut checks = Vec::new();
    let cut = crash_cut(&walk_records(&path)?).map_err(io::Error::other)?;
    let tail = {
        let mut f = OpenOptions::new().read(true).write(true).open(&path)?;
        f.seek(SeekFrom::Start(cut.cut))?;
        let mut tail = Vec::new();
        f.read_to_end(&mut tail)?;
        f.set_len(cut.cut)?;
        tail
    };
    let t_recover = Instant::now();
    let image = mbts_durable::load(&path)?;
    let (mut machine, recovery) = ServiceRun::recover(&image)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let recover_s = t_recover.elapsed().as_secs_f64();
    let traced_life = if traced {
        let (commands, record_bytes, recover) = dissect_image(&image)?;
        Some(TracedLife {
            requests: traces,
            commands,
            record_bytes,
            recover,
            image_bytes: cut.cut,
        })
    } else {
        None
    };
    drop(image);
    std::fs::remove_file(&path)?;

    verify_life(
        &mut checks,
        p,
        &books,
        &report,
        &cut,
        &tail,
        &mut machine,
        recovery.replayed,
        &acked,
    );
    let earned = report.total_yield;
    Ok(ServeRound {
        setup_s,
        wall_s,
        lat_ns,
        books,
        yield_share: earned / accepted_value,
        recover_s,
        journal_bytes_per_op: cut.cut as f64 / cut.commands as f64,
        image_bytes: cut.cut,
        commands: cut.commands,
        periodic_snapshots: cut.periodic_snapshots,
        replayed: recovery.replayed,
        generate_ns_per_task,
        checks,
        traced: traced_life,
    })
}

/// The correctness and regime checks of one life. `machine` is the one
/// recovered from the crash image; `tail` is what the cut removed.
#[allow(clippy::too_many_arguments)]
fn verify_life(
    checks: &mut Vec<Check>,
    p: &ServeParams,
    books: &Books,
    report: &ServeReport,
    cut: &CrashCut,
    tail: &[u8],
    machine: &mut ServiceMachine,
    replayed: u64,
    acked: &[u64],
) {
    let s = &report.summary;
    check(
        checks,
        "client books equal the daemon's counters",
        s.requests == books.requests()
            && s.accepted == books.accepted
            && s.rejected == books.rejected
            && s.cancelled == books.cancel_hits
            && s.shed + s.backpressured + s.timeouts == books.refused,
        format!("daemon {s:?} vs client {books:?}"),
    );
    check(
        checks,
        "applied = submits + cancels + drain",
        report.applied == books.submits + books.cancels + 1 && cut.commands + 1 == report.applied,
        format!(
            "applied {} journaled {} submits {} cancels {}",
            report.applied, cut.commands, books.submits, books.cancels
        ),
    );
    check(
        checks,
        "no auditor violations, clean drain",
        report.violations == 0 && report.clean_drain,
        format!(
            "violations {} clean_drain {}",
            report.violations, report.clean_drain
        ),
    );
    check(
        checks,
        "no request refused or failed",
        books.refused == 0 && books.failed == 0,
        format!("refused {} failed {}", books.refused, books.failed),
    );

    // Applying the cut-off drain marker to the recovered machine must
    // give the machine that never died, byte for byte.
    let parsed = split_record(tail).and_then(|(drain, rest)| {
        let cmd: Command = serde_json::from_slice(drain).ok()?;
        let (final_snapshot, _) = split_record(rest)?;
        Some((cmd, final_snapshot))
    });
    match parsed {
        Some((drain, live_snapshot)) if drain.kind == CommandKind::Drain => {
            let was_draining = machine.draining();
            machine.apply(&drain);
            let same = machine.snapshot_json().as_bytes() == live_snapshot;
            check(
                checks,
                "recovered image + drain marker = the live machine",
                same && !was_draining
                    && machine.applied() == report.applied
                    && machine.metrics().total_yield.to_bits() == report.total_yield.to_bits()
                    && machine.counters().accepted == s.accepted
                    && machine.counters().finished == s.completed,
                format!(
                    "snapshot bytes equal: {same}; applied {} vs {}; yield {} vs {}",
                    machine.applied(),
                    report.applied,
                    machine.metrics().total_yield,
                    report.total_yield
                ),
            );
        }
        _ => check(
            checks,
            "recovered image + drain marker = the live machine",
            false,
            "the record at the cut is not a drain marker followed by a snapshot".to_string(),
        ),
    }
    // Every acked id is one the recovered machine assigned, and every one
    // the `/status` registry still retains is in it.
    let next = machine.next_task_id();
    let retained_from = next.saturating_sub(ServeConfig::default().status_capacity as u64);
    let missing = acked
        .iter()
        .filter(|&&id| id >= next || (id >= retained_from && machine.status(id).is_none()))
        .count();
    check(
        checks,
        "the recovered machine holds every acked id",
        missing == 0 && acked.len() as u64 == next,
        format!("{} acked, next id {next}, {missing} missing", acked.len()),
    );
    // Regime: snapshots at the default cadence, replay bounded by it.
    let every = ServeConfig::default().snapshot_every;
    check(
        checks,
        "one snapshot per 8192 commands; recovery replays only the suffix",
        cut.periodic_snapshots == cut.commands / every && replayed == cut.commands % every,
        format!(
            "{} periodic snapshots over {} commands, {replayed} replayed",
            cut.periodic_snapshots, cut.commands
        ),
    );
    if p.fsync_every_n == 0 && books.requests() >= FLOOD.requests as u64 {
        check(
            checks,
            "serve-flood regime: at least 14 periodic snapshots in one life",
            cut.periodic_snapshots >= 14,
            format!("{}", cut.periodic_snapshots),
        );
    }
}

/// Recovery taken apart (scan, snapshot parse, suffix replay), plus every
/// command of the image for the replay passes.
fn dissect_image(image: &[u8]) -> io::Result<(Vec<Command>, Vec<u32>, RecoverParts)> {
    use mbts_durable::RecordTag;
    let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let t = Instant::now();
    let scan = mbts_durable::framing::scan(image).map_err(|e| bad(e.to_string()))?;
    let scan_ns = t.elapsed().as_nanos() as u64;
    let last_snapshot = scan
        .records
        .iter()
        .rposition(|(tag, _)| *tag == RecordTag::Snapshot)
        .ok_or_else(|| bad("image holds no snapshot".to_string()))?;
    let t = Instant::now();
    let snap: mbts_serve::ServiceSnapshot =
        serde_json::from_slice(scan.records[last_snapshot].1).map_err(|e| bad(e.to_string()))?;
    let mut machine = ServiceMachine::from_snapshot(snap);
    let parse_ns = t.elapsed().as_nanos() as u64;
    // Every command of the image is parsed (the replay passes need them
    // all); only the suffix after the last snapshot is applied and timed.
    let mut commands = Vec::new();
    let mut record_bytes = Vec::new();
    let mut replay_ns = 0;
    let mut replayed = 0;
    for (at, (tag, payload)) in scan.records.iter().enumerate() {
        if *tag != RecordTag::Event {
            continue;
        }
        let t = Instant::now();
        let cmd: Command = serde_json::from_slice(payload).map_err(|e| bad(e.to_string()))?;
        if at > last_snapshot {
            machine.apply(&cmd);
            replay_ns += t.elapsed().as_nanos() as u64;
            replayed += 1;
        }
        commands.push(cmd);
        record_bytes.push(payload.len() as u32);
    }
    Ok((
        commands,
        record_bytes,
        RecoverParts {
            scan_ns,
            parse_ns,
            replay_ns,
            replayed,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_durable::Journal;
    use mbts_serve::MachineConfig;
    use mbts_sim::Time;
    use mbts_workload::{PenaltyBound, TaskSpec};

    fn spec(at: f64) -> TaskSpec {
        TaskSpec::new(0, at, 2.0, 8.0, 0.1, PenaltyBound::ZERO)
    }

    #[test]
    fn the_cutter_lands_on_the_drain_markers_record_boundary() {
        let path = journal_path("cutter-test", 0).unwrap();
        let _ = std::fs::remove_file(&path);
        let mut run =
            ServiceRun::new(MachineConfig::default(), Journal::create(&path).unwrap(), 3).unwrap();
        for i in 0..7 {
            run.apply(
                Time::new(f64::from(i)),
                CommandKind::Submit {
                    spec: spec(f64::from(i)),
                },
            )
            .unwrap();
        }
        run.apply(Time::new(9.0), CommandKind::Drain).unwrap();
        run.snapshot_now().unwrap();
        let live = run.machine().snapshot_json();
        let (_, journal) = run.into_parts();
        let bytes = journal.bytes().to_vec();
        drop(journal);

        let records = walk_records(&path).unwrap();
        // genesis + 7 submits + 2 periodic snapshots + drain + final.
        assert_eq!(records.len(), 1 + 7 + 2 + 1 + 1);
        let cut = crash_cut(&records).unwrap();
        assert_eq!(cut.commands, 7);
        assert_eq!(cut.periodic_snapshots, 2);
        // The cut is a record boundary: the scan of the image drops nothing…
        let image = &bytes[..cut.cut as usize];
        let scan = mbts_durable::framing::scan(image).unwrap();
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.records.len(), records.len() - 2);
        // …it is before the drain: the recovered machine is not draining…
        let (mut machine, rec) = ServiceRun::recover(image).unwrap();
        assert!(!machine.draining());
        assert_eq!(machine.applied(), 7);
        assert_eq!(rec.replayed, 7 % 3);
        // …and the record at the cut is the drain marker, which brings the
        // recovered machine to the live one.
        let (drain, rest) = split_record(&bytes[cut.cut as usize..]).unwrap();
        let drain: Command = serde_json::from_slice(drain).unwrap();
        assert_eq!(drain.kind, CommandKind::Drain);
        machine.apply(&drain);
        assert_eq!(machine.snapshot_json(), live);
        assert_eq!(split_record(rest).unwrap().0, live.as_bytes());
        std::fs::remove_file(&path).unwrap();

        // A journal that was not drained has no cut.
        assert!(crash_cut(&records[..records.len() - 1]).is_err());
        assert!(crash_cut(&records[..1]).is_err());
    }

    #[test]
    fn the_reply_reader_splits_pipelined_responses() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut wire = Vec::new();
            for (status, body) in [
                (200u16, "{\"task\":7,\"accepted\":true,\"applied\":8}"),
                (404, "{\"error\":\"unknown task\"}"),
            ] {
                mbts_serve::http::write_response(
                    &mut wire,
                    status,
                    mbts_serve::http::reason(status),
                    &[],
                    body.as_bytes(),
                )
                .unwrap();
            }
            // Tear the second response across two writes.
            let split = wire.len() - 5;
            s.write_all(&wire[..split]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(&wire[split..]).unwrap();
        });
        let mut r = ReplyReader::new(TcpStream::connect(addr).unwrap());
        let a = r.next().unwrap();
        assert_eq!(a.status, 200);
        let body = r.buf[a.body.clone()].to_vec();
        assert_eq!(json_u64(&body, "task"), Some(7));
        assert_eq!(json_bool(&body, "accepted"), Some(true));
        assert_eq!(json_u64(&body, "applied"), Some(8));
        let b = r.next().unwrap();
        assert_eq!(b.status, 404);
        assert_eq!(&r.buf[b.body.clone()], b"{\"error\":\"unknown task\"}");
        assert_eq!(json_u64(&r.buf[b.body], "task"), None);
        server.join().unwrap();
    }
}
