//! `mbts flood`: a pipelined, multi-connection load generator for the
//! live daemon, with seeded-jitter retry budgets and an honest report.
//!
//! Each connection thread drives its share of submissions in pipelined
//! batches (one write, N responses), records batch round-trip latency
//! into the shared latency histogram, and obeys the daemon's backpressure:
//! a 429 reply consumes one unit of the request's bounded retry budget
//! and is retried after the server's `Retry-After` hint (capped, jittered
//! by a seeded xorshift so floods are reproducible). Connection drops —
//! expected while a chaos harness SIGKILLs the daemon — are retried with
//! a bounded reconnect loop and counted, never silently absorbed.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration as StdDuration, Instant};

use serde::{Deserialize, Serialize};

use mbts_chaos::Xorshift64Star;
use mbts_sim::latency::{elapsed_ns, LatencyHistogram};

use crate::http;

/// Configuration for one flood run.
#[derive(Debug, Clone)]
pub struct FloodConfig {
    /// Daemon address, e.g. `127.0.0.1:7741`.
    pub addr: String,
    /// Total submissions to deliver (across all connections).
    pub requests: u64,
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Pipelining depth: requests written per batch.
    pub pipeline: usize,
    /// RNG seed for bid values and retry jitter.
    pub seed: u64,
    /// Per-read socket timeout.
    pub timeout: StdDuration,
    /// Retry budget per request on 429/connection-drop.
    pub retries: u32,
    /// Issue a cancel for an earlier accepted task every N submissions
    /// (0 = never) — keeps the cancel path hot under load.
    pub cancel_every: u64,
    /// Fire one protocol-garbage request (on its own connection) every N
    /// batches per thread (0 = never): truncated request lines, bad
    /// content-lengths, invalid UTF-8 bodies. The run fails if the
    /// daemon ever answers garbage with a 2xx.
    pub malformed_every: u64,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            addr: "127.0.0.1:7741".to_string(),
            requests: 10_000,
            connections: 4,
            pipeline: 32,
            seed: 42,
            timeout: StdDuration::from_secs(5),
            retries: 3,
            cancel_every: 0,
            malformed_every: 0,
        }
    }
}

/// What one flood run observed — what `mbts flood --out` writes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FloodReport {
    /// Responses received (any status).
    pub completed: u64,
    /// Submissions the site admitted.
    pub accepted: u64,
    /// Submissions the site's admission control refused.
    pub rejected: u64,
    /// 429s with a shed body (overload victims).
    pub shed: u64,
    /// 429s from the full admission queue.
    pub backpressured: u64,
    /// 503s (drain or core timeout).
    pub unavailable: u64,
    /// Cancels acknowledged.
    pub cancelled: u64,
    /// Retries spent (429s and reconnects).
    pub retries: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub exhausted: u64,
    /// Socket-level errors (drops during chaos kills, timeouts).
    pub errors: u64,
    /// Protocol-garbage requests fired (each answered 4xx or closed).
    #[serde(default)]
    pub malformed: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Completed responses per second.
    pub rps: f64,
    /// Median batch round-trip, microseconds (bucket upper edge, within
    /// 1/16 above the exact sample and never above `max_us`).
    pub p50_us: f64,
    /// 95th-percentile batch round-trip, microseconds.
    pub p95_us: f64,
    /// 99th-percentile batch round-trip, microseconds.
    pub p99_us: f64,
    /// Worst batch round-trip, microseconds.
    pub max_us: f64,
    /// Connections used.
    pub connections: usize,
    /// Pipelining depth used.
    pub pipeline: usize,
    /// `available_parallelism()` of the machine that ran the flood.
    pub parallelism: usize,
}

#[derive(Debug, Default)]
struct ThreadTally {
    completed: u64,
    accepted: u64,
    rejected: u64,
    shed: u64,
    backpressured: u64,
    unavailable: u64,
    cancelled: u64,
    retries: u64,
    exhausted: u64,
    errors: u64,
    malformed: u64,
    hist: LatencyHistogram,
}

/// The flood's seeded xorshift64* stream — reproducible bodies and jitter.
fn seeded_rng(seed: u64) -> Xorshift64Star {
    Xorshift64Star::new(seed.wrapping_mul(0x9e3779b97f4a7c15).max(1))
}

fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

#[derive(Debug, Deserialize)]
struct SubmitReply {
    task: u64,
    accepted: bool,
}

/// One queued outbound request with its remaining retry budget.
struct Item {
    body: Vec<u8>,
    is_cancel: bool,
    /// What the item was actually sent as in the current batch. A
    /// cancel slot with no accepted task yet is late-bound into a
    /// fresh submit, so this can differ from `is_cancel` — and the
    /// response tally must follow the wire, not the intent, or the
    /// client's books drift from the daemon's request counters.
    sent_cancel: bool,
    attempts: u32,
}

/// Runs the flood and aggregates per-thread tallies.
pub fn flood(cfg: &FloodConfig) -> io::Result<FloodReport> {
    let connections = cfg.connections.max(1);
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..connections {
        let cfg = cfg.clone();
        let share = per_thread_share(cfg.requests, connections, t);
        handles.push(
            thread::Builder::new()
                .name(format!("mbts-flood-{t}"))
                .spawn(move || flood_thread(&cfg, t, share))?,
        );
    }
    let mut tally = ThreadTally::default();
    let mut first_err: Option<io::Error> = None;
    for h in handles {
        match h.join() {
            Ok(Ok(t)) => {
                tally.completed += t.completed;
                tally.accepted += t.accepted;
                tally.rejected += t.rejected;
                tally.shed += t.shed;
                tally.backpressured += t.backpressured;
                tally.unavailable += t.unavailable;
                tally.cancelled += t.cancelled;
                tally.retries += t.retries;
                tally.exhausted += t.exhausted;
                tally.errors += t.errors;
                tally.malformed += t.malformed;
                tally.hist.merge(&t.hist);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or_else(|| Some(io::Error::other("flood thread panicked")))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);
    let rps = tally.completed as f64 / wall_s;
    let parallelism = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok(FloodReport {
        completed: tally.completed,
        accepted: tally.accepted,
        rejected: tally.rejected,
        shed: tally.shed,
        backpressured: tally.backpressured,
        unavailable: tally.unavailable,
        cancelled: tally.cancelled,
        retries: tally.retries,
        exhausted: tally.exhausted,
        errors: tally.errors,
        malformed: tally.malformed,
        wall_s,
        rps,
        p50_us: tally.hist.quantile_ns(0.50) as f64 / 1e3,
        p95_us: tally.hist.quantile_ns(0.95) as f64 / 1e3,
        p99_us: tally.hist.quantile_ns(0.99) as f64 / 1e3,
        max_us: tally.hist.max_ns as f64 / 1e3,
        connections,
        pipeline: cfg.pipeline.max(1),
        parallelism,
    })
}

fn per_thread_share(total: u64, threads: usize, index: usize) -> u64 {
    let base = total / threads as u64;
    let extra = total % threads as u64;
    base + u64::from((index as u64) < extra)
}

fn connect(addr: &str, timeout: StdDuration) -> io::Result<TcpStream> {
    // Bounded reconnect loop: a chaos harness may be restarting the
    // daemon right now.
    let deadline = Instant::now() + StdDuration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                thread::sleep(StdDuration::from_millis(100));
            }
        }
    }
}

/// A body nested 20,000 arrays deep: far past the JSON reader's depth
/// limit, and enough to overflow a connection thread's stack in a parser
/// that recursed per level without one.
static DEEP_NESTING: [u8; DEEP_NESTING_HEAD.len() + 20_000] = {
    let mut wire = [b'['; DEEP_NESTING_HEAD.len() + 20_000];
    let mut i = 0;
    while i < DEEP_NESTING_HEAD.len() {
        wire[i] = DEEP_NESTING_HEAD[i];
        i += 1;
    }
    wire
};
const DEEP_NESTING_HEAD: &[u8] = b"POST /submit HTTP/1.1\r\ncontent-length: 20000\r\n\r\n";

/// Protocol-garbage corpus for the malformed-request generator. Every
/// entry must draw a `400` (or an immediate close) from the daemon —
/// never a 2xx, never a hang, never a crash. Entries cover each parser
/// layer: request line, version, headers, framing, body encoding, body
/// nesting.
const MALFORMED_CORPUS: &[&[u8]] = &[
    // Request line with no target or version.
    b"GARBAGE\r\n\r\n",
    // A version outside the HTTP/1.x subset.
    b"POST /submit HTTP/9.9\r\nhost: mbts\r\n\r\n",
    // Unparseable content-length.
    b"POST /submit HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
    // Declared body far past the server's MAX_BODY cap.
    b"POST /submit HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    // Header line with no colon.
    b"POST /submit HTTP/1.1\r\nno-colon-header\r\n\r\n",
    // Valid framing, invalid UTF-8 where a JSON body belongs.
    b"POST /submit HTTP/1.1\r\ncontent-length: 4\r\n\r\n\xff\xfe\xfd\xfc",
    // Body shorter than declared: the server's read must time out into
    // a 400, not wedge the connection worker.
    b"POST /submit HTTP/1.1\r\ncontent-length: 64\r\n\r\n{}",
    // Valid framing and UTF-8, nesting no reader should follow.
    &DEEP_NESTING,
];

/// Fires one seeded corpus entry on a throwaway connection and checks
/// the daemon survives it without ever acknowledging garbage.
fn send_malformed(
    addr: &str,
    timeout: StdDuration,
    rng: &mut Xorshift64Star,
    tally: &mut ThreadTally,
) -> io::Result<()> {
    let wire = MALFORMED_CORPUS[(rng.next_u64() % MALFORMED_CORPUS.len() as u64) as usize];
    let stream = connect(addr, timeout)?;
    tally.malformed += 1;
    let mut w = stream.try_clone()?;
    if w.write_all(wire).is_err() || w.flush().is_err() {
        return Ok(()); // daemon closed first: acceptable garbage handling
    }
    let mut reader = BufReader::new(stream);
    if let Ok(Some(resp)) = http::read_response(&mut reader) {
        if resp.status < 400 {
            return Err(io::Error::other(format!(
                "daemon answered protocol garbage with {}",
                resp.status
            )));
        }
    }
    Ok(())
}

fn submit_body(rng: &mut Xorshift64Star) -> Vec<u8> {
    let runtime = uniform(rng, 0.5, 4.0);
    let value = uniform(rng, 1.0, 10.0);
    let decay = uniform(rng, 0.0, 0.5);
    format!("{{\"runtime\":{runtime:.4},\"value\":{value:.4},\"decay\":{decay:.4}}}").into_bytes()
}

fn flood_thread(cfg: &FloodConfig, index: usize, share: u64) -> io::Result<ThreadTally> {
    let mut tally = ThreadTally::default();
    if share == 0 {
        return Ok(tally);
    }
    let mut rng = seeded_rng(cfg.seed ^ ((index as u64 + 1) * 0x517c_c1b7_2722_0a95));
    let pipeline = cfg.pipeline.max(1);

    let mut backlog: std::collections::VecDeque<Item> = (0..share)
        .map(|i| {
            let is_cancel = cfg.cancel_every > 0 && i > 0 && i % cfg.cancel_every == 0;
            Item {
                body: if is_cancel {
                    Vec::new() // filled in from a previously accepted task
                } else {
                    submit_body(&mut rng)
                },
                is_cancel,
                sent_cancel: false,
                attempts: 0,
            }
        })
        .collect();
    let mut last_accepted: Option<u64> = None;

    let mut stream = connect(&cfg.addr, cfg.timeout)?;
    let mut until_malformed = cfg.malformed_every;
    'run: while !backlog.is_empty() {
        if cfg.malformed_every > 0 {
            until_malformed -= 1;
            if until_malformed == 0 {
                until_malformed = cfg.malformed_every;
                send_malformed(&cfg.addr, cfg.timeout, &mut rng, &mut tally)?;
            }
        }
        let n = backlog.len().min(pipeline);
        let mut batch: Vec<Item> = backlog.drain(..n).collect();
        // Late-bind cancel targets to the most recently accepted task,
        // recording per item what actually goes on the wire.
        for item in &mut batch {
            if item.is_cancel {
                match last_accepted {
                    Some(id) => {
                        item.body = format!("{{\"task\":{id}}}").into_bytes();
                        item.sent_cancel = true;
                    }
                    None => {
                        item.body = submit_body(&mut rng); // nothing to cancel yet
                        item.sent_cancel = false;
                    }
                }
            }
        }
        let t0 = Instant::now();
        let wrote = (|| -> io::Result<()> {
            let mut w = BufWriter::new(stream.try_clone()?);
            for item in &batch {
                let target = if item.sent_cancel {
                    "/cancel"
                } else {
                    "/submit"
                };
                http::write_post(&mut w, target, &item.body)?;
            }
            w.flush()
        })();
        if wrote.is_err() {
            tally.errors += 1;
            backlog.extend(batch);
            stream = connect(&cfg.addr, cfg.timeout)?;
            continue 'run;
        }

        let mut reader = BufReader::new(stream.try_clone()?);
        let mut retry_after_ms: u64 = 0;
        let mut idx = 0;
        while idx < batch.len() {
            match http::read_response(&mut reader) {
                Ok(Some(resp)) => {
                    let item = &batch[idx];
                    idx += 1;
                    tally.completed += 1;
                    tally.hist.record(elapsed_ns(t0));
                    match resp.status {
                        200 => {
                            // Tally by what was sent, not what was
                            // intended — the daemon's per-route request
                            // counters must reconcile exactly against
                            // these books after a clean run.
                            if item.sent_cancel {
                                tally.cancelled += 1;
                                last_accepted = None;
                            } else if let Ok(r) = serde_json::from_slice::<SubmitReply>(&resp.body)
                            {
                                if r.accepted {
                                    tally.accepted += 1;
                                    last_accepted = Some(r.task);
                                } else {
                                    tally.rejected += 1;
                                }
                            }
                        }
                        429 => {
                            let is_shed =
                                std::str::from_utf8(&resp.body).is_ok_and(|b| b.contains("shed"));
                            if is_shed {
                                tally.shed += 1;
                            } else {
                                tally.backpressured += 1;
                            }
                            if item.attempts < cfg.retries && !item.sent_cancel {
                                let hinted = resp
                                    .header("retry-after")
                                    .and_then(|v| v.parse::<u64>().ok())
                                    .unwrap_or(1)
                                    * 1000;
                                retry_after_ms = retry_after_ms.max(hinted.min(200));
                                tally.retries += 1;
                                backlog.push_back(Item {
                                    body: item.body.clone(),
                                    is_cancel: false,
                                    sent_cancel: false,
                                    attempts: item.attempts + 1,
                                });
                            } else {
                                tally.exhausted += 1;
                            }
                        }
                        503 => tally.unavailable += 1,
                        _ => {}
                    }
                }
                Ok(None) | Err(_) => {
                    // Connection died mid-batch (chaos kill): everything
                    // unanswered goes back in the backlog and is retried
                    // on a fresh connection.
                    tally.errors += 1;
                    for item in batch.drain(idx..) {
                        backlog.push_back(item);
                    }
                    stream = connect(&cfg.addr, cfg.timeout)?;
                    continue 'run;
                }
            }
        }
        if retry_after_ms > 0 {
            // Seeded jitter: 50–150% of the (capped) server hint.
            let jittered = (retry_after_ms as f64 * uniform(&mut rng, 0.5, 1.5)) as u64;
            thread::sleep(StdDuration::from_millis(jittered.max(1)));
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_share_partitions_exactly() {
        let total: u64 = 1_003;
        let threads = 7;
        let sum: u64 = (0..threads)
            .map(|i| per_thread_share(total, threads, i))
            .sum();
        assert_eq!(sum, total);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = seeded_rng(9);
        let mut b = seeded_rng(9);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = uniform(&mut seeded_rng(9), 1.0, 2.0);
        assert!((1.0..2.0).contains(&v));
    }
}
