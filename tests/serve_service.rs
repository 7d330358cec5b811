//! Live-service integration tests: the overload contract (backpressure,
//! deadline-aware shedding, Retry-After), graceful drain, protocol
//! garbage (hand-written and the flood client's own), and the chaos
//! story — `kill -9` a daemon mid-traffic, recover the journal offline,
//! restart on the same file, and drain it cleanly with SIGTERM.
//!
//! The in-process tests drive a [`mbts::serve::Server`] over real TCP
//! with a deliberately tiny admission queue and a throttled core so
//! overload is reproducible on any machine. The process-level test
//! spawns the actual `mbts` binary (`CARGO_BIN_EXE_mbts`), parses the
//! `listening on` banner, and kills it for real.
//!
//! Every test runs under a [`Watchdog`]: one that is still running after
//! a minute prints its name and its server's `/stats`, then aborts the
//! process, so a hang fails fast with evidence instead of spinning.

use mbts::serve::{self, ServeConfig, Server, ServiceMachine, ServiceRun};
use mbts::site::SiteConfig;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a test may run before its watchdog aborts the process. Every
/// test here passes in about a second.
const WATCHDOG_LIMIT: Duration = Duration::from_secs(60);

/// The server a [`Watchdog`] reports on, once one has started: its
/// address, and its process id if it is a daemon.
type Watched = Option<(String, Option<u32>)>;

/// Aborts the process if the test holding it is still running after
/// [`WATCHDOG_LIMIT`], first printing the test's name and what the server
/// it [`watch`](Self::watch)es reports at `/stats`, and killing that
/// server if it is a daemon process. Dropping it, as the test returns or
/// unwinds, stops it.
struct Watchdog {
    done: Option<mpsc::Sender<()>>,
    server: Arc<Mutex<Watched>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn start(test: &'static str) -> Self {
        let (done, finished) = mpsc::channel::<()>();
        let server = Arc::new(Mutex::new(Watched::None));
        let watched = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            if finished.recv_timeout(WATCHDOG_LIMIT) != Err(RecvTimeoutError::Timeout) {
                return;
            }
            // Straight to the process's stderr: the test harness captures
            // `eprintln!` per test and would drop it with the abort.
            let mut report = format!("watchdog: {test} still running after {WATCHDOG_LIMIT:?}\n");
            match watched.lock().ok().and_then(|s| s.clone()) {
                Some((addr, pid)) => {
                    report += &format!("watchdog: {addr} /stats: {}\n", stats_report(&addr));
                    if let Some(pid) = pid {
                        let _ = std::process::Command::new("kill")
                            .args(["-KILL", &pid.to_string()])
                            .status();
                    }
                }
                None => report += "watchdog: no server was started yet\n",
            }
            let _ = std::io::stderr().write_all(report.as_bytes());
            std::process::abort();
        });
        Watchdog {
            done: Some(done),
            server,
            thread: Some(thread),
        }
    }

    /// Names the in-process server whose `/stats` a timeout prints.
    fn watch(&self, addr: &str) {
        self.watch_server(addr, None);
    }

    /// Names the daemon process whose `/stats` a timeout prints and which
    /// it then kills.
    fn watch_daemon(&self, addr: &str, child: &std::process::Child) {
        self.watch_server(addr, Some(child.id()));
    }

    fn watch_server(&self, addr: &str, pid: Option<u32>) {
        if let Ok(mut slot) = self.server.lock() {
            *slot = Some((addr.to_string(), pid));
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Closing the channel wakes the watchdog thread, which returns.
        drop(self.done.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// `/stats` from the server at `addr`, or why it did not answer, waiting
/// at most a few seconds for each step: the acceptor of a hung server may
/// still answer, and the watchdog must not hang in turn.
fn stats_report(addr: &str) -> String {
    let limit = Duration::from_secs(3);
    let fetch = || -> std::io::Result<serve::http::Response> {
        let at: SocketAddr = addr.parse().map_err(std::io::Error::other)?;
        let stream = TcpStream::connect_timeout(&at, limit)?;
        stream.set_read_timeout(Some(limit))?;
        stream.set_write_timeout(Some(limit))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        serve::http::write_get(&mut writer, "/stats")?;
        writer.flush()?;
        serve::http::read_response(&mut BufReader::new(stream))?
            .ok_or_else(|| std::io::Error::other("the connection closed"))
    };
    match fetch() {
        Ok(response) => format!(
            "{} {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ),
        Err(e) => format!("no answer ({e})"),
    }
}

/// One round-trip against a live daemon: POST a JSON body, read the
/// response. Panics on framing errors — these tests own both ends.
fn post(addr: &str, target: &str, body: &str) -> serve::http::Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    serve::http::write_post(&mut writer, target, body.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    serve::http::read_response(&mut reader)
        .expect("read")
        .expect("response")
}

fn get(addr: &str, target: &str) -> serve::http::Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    serve::http::write_get(&mut writer, target).expect("write");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    serve::http::read_response(&mut reader)
        .expect("read")
        .expect("response")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbts-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Under sustained 2x overload the daemon must stay responsive: a full
/// admission queue answers 429 + Retry-After instead of hanging, the
/// shed pass drops lowest-present-value submissions (journaled, with
/// provenance), `/healthz` keeps answering, and a `/drain` seals the
/// journal with a final snapshot. The journal then replays into an
/// analyze report that prices the regret of shedding.
#[test]
fn overload_stays_responsive_sheds_lowest_pv_and_drains_cleanly() {
    let dog = Watchdog::start("overload_stays_responsive_sheds_lowest_pv_and_drains_cleanly");
    let journal = scratch("overload.mbtsj");
    let _ = std::fs::remove_file(&journal);
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        journal: Some(journal.clone()),
        queue_capacity: 3,
        shed_threshold: 1,
        provenance: true,
        snapshot_every: 64,
        throttle: Duration::from_millis(1),
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    dog.watch(&addr);

    let h = get(&addr, "/healthz");
    assert_eq!(h.status, 200);

    // 8 serial clients against a 3-slot queue with a 1ms/command core:
    // guaranteed queue-full rejections and a busy shed pass.
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut backpressured = 0u64;
                let mut shed = 0u64;
                let mut bad_429 = 0u64;
                for i in 0..60u64 {
                    // Low-value fast-decay bodies make juicy shed victims;
                    // interleave high-value ones so admissions happen too.
                    let value = if i % 3 == 0 { 0.5 } else { 50.0 };
                    let body = format!("{{\"runtime\":1.5,\"value\":{value},\"decay\":0.01}}");
                    let resp = post(&addr, "/submit", &body);
                    let text = String::from_utf8_lossy(&resp.body).to_string();
                    match resp.status {
                        200 => ok += 1,
                        429 => {
                            let retry_after = resp
                                .header("retry-after")
                                .and_then(|v| v.parse::<u64>().ok());
                            if retry_after.map(|s| s >= 1) != Some(true) {
                                bad_429 += 1;
                            }
                            if text.contains("shed") {
                                shed += 1;
                            } else {
                                backpressured += 1;
                            }
                        }
                        other => panic!("worker {w}: unexpected status {other}: {text}"),
                    }
                }
                (ok, backpressured, shed, bad_429)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut backpressured = 0u64;
    let mut shed = 0u64;
    let mut bad_429 = 0u64;
    for w in workers {
        let (o, b, s, bad) = w.join().expect("worker");
        ok += o;
        backpressured += b;
        shed += s;
        bad_429 += bad;
    }
    assert_eq!(bad_429, 0, "every 429 must carry Retry-After >= 1s");
    assert!(ok > 0, "no submission ever succeeded");
    assert!(
        backpressured + shed > 0,
        "2x overload never tripped the overload path"
    );

    // Liveness under load survived; stats still answers post-overload.
    let stats = get(&addr, "/stats");
    assert_eq!(stats.status, 200);

    // Graceful drain over the wire.
    let drain = post(&addr, "/drain", "{}");
    assert_eq!(drain.status, 200);
    let report = server.join().expect("drain");
    assert!(report.clean_drain, "drain must seal the journal");
    assert_eq!(report.violations, 0, "invariant auditors must stay clean");
    assert_eq!(report.summary.accepted + report.summary.rejected, ok);
    assert_eq!(report.summary.backpressured, backpressured);
    assert_eq!(report.summary.shed, shed);

    // The journal is the whole story: recover it offline and check the
    // books against the live report, then price the shed regret.
    let bytes = std::fs::read(&journal).expect("journal bytes");
    let (machine, _) = ServiceRun::recover(&bytes).expect("recover");
    assert_eq!(machine.applied(), report.applied);
    let c = *machine.counters();
    assert_eq!(c.accepted, report.summary.accepted);
    assert_eq!(c.shed, report.summary.shed);
    assert!(c.drains >= 1, "the drain marker must be journaled");

    if shed > 0 {
        let events = machine.into_trace_events().expect("provenance trace");
        let report = mbts::trace::analyze::analyze(
            "overload",
            &events,
            &mbts::trace::AnalyzeOptions::default(),
        );
        assert_eq!(
            report.decisions.shed, shed,
            "every shed is provenance-traced"
        );
        assert_eq!(report.admission.shed, shed);
        assert!(
            report.admission.shed_pv_lost > 0.0,
            "shedding real value must show up as regret"
        );
    }
    std::fs::remove_file(&journal).ok();
}

/// A daemon with no journal still serves (in-memory journal) and a
/// programmatic `request_stop` drains exactly like SIGTERM would.
#[test]
fn request_stop_drains_like_sigterm() {
    let dog = Watchdog::start("request_stop_drains_like_sigterm");
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    dog.watch(&addr);
    let resp = post(&addr, "/submit", "{\"runtime\":1.0,\"value\":5.0}");
    assert_eq!(resp.status, 200);
    server.request_stop();
    let report = server.join().expect("drain");
    assert!(report.clean_drain);
    assert_eq!(report.summary.requests, 1);
    assert_eq!(report.summary.accepted + report.summary.rejected, 1);
    // The submit and the drain marker, and nothing after the drain.
    assert_eq!(report.applied, 2);
    assert_eq!(report.violations, 0);
}

/// Spawns the real `mbts` binary and returns (child, parsed address).
fn spawn_daemon(journal: &std::path::Path, extra: &[&str]) -> (std::process::Child, String) {
    let mut args = vec![
        "serve".to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--journal".to_string(),
        journal.display().to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mbts"))
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn mbts serve");
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("mbts serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();
    (child, addr)
}

/// The chaos contract, at process level: SIGKILL a daemon mid-traffic,
/// recover the torn journal offline — replaying the *entire* command
/// log from the genesis snapshot must reproduce the recovered state
/// byte-for-byte, and every client-acknowledged command must be in the
/// log. Then restart the daemon on the same journal, prove it serves,
/// and drain it with a real SIGTERM expecting exit code 0.
#[test]
fn sigkill_recovers_acknowledged_prefix_and_sigterm_drains() {
    let dog = Watchdog::start("sigkill_recovers_acknowledged_prefix_and_sigterm_drains");
    let journal = scratch("chaos.mbtsj");
    let _ = std::fs::remove_file(&journal);

    // Phase 1: daemon under fire, then SIGKILL. fsync-every 1 makes
    // "acknowledged" mean "on disk", so the prefix check below is exact.
    let (mut child, addr) = spawn_daemon(
        &journal,
        &[
            "--fsync-every",
            "1",
            "--throttle-us",
            "300",
            "--processors",
            "2",
        ],
    );
    dog.watch_daemon(&addr, &child);
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // Count acknowledged (status 200) submissions; stop at
                // the first socket error — that's the kill landing.
                let mut acked = 0u64;
                let Ok(stream) = TcpStream::connect(&addr) else {
                    return acked;
                };
                stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
                let Ok(read_half) = stream.try_clone() else {
                    return acked;
                };
                let mut reader = BufReader::new(read_half);
                let mut writer = BufWriter::new(stream);
                for _ in 0..400 {
                    let body = b"{\"runtime\":1.0,\"value\":5.0,\"decay\":0.01}";
                    if serve::http::write_post(&mut writer, "/submit", body).is_err()
                        || writer.flush().is_err()
                    {
                        break;
                    }
                    match serve::http::read_response(&mut reader) {
                        Ok(Some(resp)) if resp.status == 200 => acked += 1,
                        Ok(Some(_)) => {}
                        _ => break,
                    }
                }
                acked
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(400));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    let acked: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(
        acked > 0,
        "no request was ever acknowledged before the kill"
    );

    // Phase 2: offline recovery. The incremental recovery (latest
    // snapshot + suffix) must equal a from-genesis replay of the full
    // command log, byte for byte — and hold every acknowledged command.
    let bytes = std::fs::read(&journal).expect("journal bytes");
    let (recovered, _) = ServiceRun::recover(&bytes).expect("recover after SIGKILL");
    let applied_at_kill = recovered.applied();

    let scan = mbts::durable::framing::scan(&bytes).expect("scan");
    let mut records = scan.records.into_iter();
    let (first_tag, genesis) = records.next().expect("genesis snapshot");
    assert_eq!(first_tag, mbts::durable::RecordTag::Snapshot);
    let snap: mbts::serve::ServiceSnapshot =
        serde_json::from_slice(genesis).expect("genesis parses");
    let mut replayed = ServiceMachine::from_snapshot(snap);
    let mut journaled_submits = 0u64;
    for (tag, payload) in records {
        if tag != mbts::durable::RecordTag::Event {
            continue;
        }
        let cmd: mbts::serve::Command = serde_json::from_slice(payload).expect("command parses");
        if matches!(cmd.kind, mbts::serve::CommandKind::Submit { .. }) {
            journaled_submits += 1;
        }
        replayed.apply(&cmd);
    }
    assert_eq!(
        replayed.snapshot_json(),
        recovered.snapshot_json(),
        "from-genesis replay diverged from incremental recovery"
    );
    assert!(
        journaled_submits >= acked,
        "journal holds {journaled_submits} submits but clients saw {acked} acks"
    );

    // Phase 3: restart on the same journal; the daemon must pick up the
    // acknowledged prefix, keep serving, and SIGTERM must drain it to
    // exit code 0 with a sealed journal.
    let (mut child, addr) = spawn_daemon(&journal, &["--processors", "2"]);
    dog.watch_daemon(&addr, &child);
    let resp = post(&addr, "/submit", "{\"runtime\":1.0,\"value\":9.0}");
    assert_eq!(resp.status, 200, "restarted daemon must serve");
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = child.wait().expect("reap");
    assert!(
        status.success(),
        "SIGTERM drain must exit 0, got {status:?}"
    );

    let bytes = std::fs::read(&journal).expect("journal bytes");
    let (sealed, recovery) = ServiceRun::recover(&bytes).expect("recover sealed journal");
    assert_eq!(
        recovery.dropped_bytes, 0,
        "a clean drain leaves no torn tail"
    );
    assert!(sealed.applied() > applied_at_kill, "restart lost commands");
    assert!(sealed.counters().drains >= 1, "drain marker missing");
    std::fs::remove_file(&journal).ok();
}

/// One request body nested far deeper than any document the service
/// reads must draw a 400 from the JSON reader's depth limit, whether the
/// nesting sits where the typed body belongs or under a key the reader
/// skips, and the daemon must answer the next connection. (A reader that
/// recursed per level with no limit overflowed the connection thread's
/// stack on 20 KB of `[` and took the process down.)
#[test]
fn deeply_nested_bodies_draw_400_and_the_daemon_keeps_serving() {
    let dog = Watchdog::start("deeply_nested_bodies_draw_400_and_the_daemon_keeps_serving");
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        queue_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    dog.watch(&addr);

    let deep = 20_000;
    let bodies = [
        ("arrays", "[".repeat(deep)),
        ("objects", "{\"a\":".repeat(deep)),
        (
            "arrays under an unknown key",
            format!(
                "{{\"runtime\":1.0,\"value\":5.0,\"decay\":0.01,\"extra\":{}{}}}",
                "[".repeat(deep),
                "]".repeat(deep)
            ),
        ),
    ];
    for (label, body) in &bodies {
        for target in ["/submit", "/cancel"] {
            let resp = post(&addr, target, body);
            assert_eq!(
                resp.status,
                400,
                "{label} at {target}: {}",
                String::from_utf8_lossy(&resp.body)
            );
            assert_eq!(get(&addr, "/healthz").status, 200, "{label}: daemon died");
        }
    }
    let skipped = String::from_utf8_lossy(&post(&addr, "/submit", &bodies[2].1).body).into_owned();
    assert!(skipped.contains("recursion limit"), "{skipped}");

    let resp = post(
        &addr,
        "/submit",
        "{\"runtime\":1.0,\"value\":5.0,\"decay\":0.01}",
    );
    assert_eq!(resp.status, 200, "well-formed submit after the deep ones");
    server.request_stop();
    server.join().expect("clean stop");
}

/// Protocol garbage over a real socket must never crash, hang, or earn a
/// 2xx: each layer of parser damage — mangled request line, bad version,
/// unparseable or oversized content-length, colon-less header, invalid
/// UTF-8 where JSON belongs, and a body shorter than declared — draws a
/// 4xx (or an immediate close), and the daemon keeps serving well-formed
/// traffic afterwards.
#[test]
fn malformed_requests_draw_4xx_and_daemon_keeps_serving() {
    let dog = Watchdog::start("malformed_requests_draw_4xx_and_daemon_keeps_serving");
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        queue_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    dog.watch(&addr);

    let garbage: &[(&str, &[u8])] = &[
        ("truncated request line", b"POST\r\n\r\n"),
        ("not http at all", b"\x00\x01\x02\x03\x04garbage\r\n\r\n"),
        (
            "bad version",
            b"POST /submit HTTP/9.9\r\nhost: mbts\r\n\r\n",
        ),
        (
            "unparseable content-length",
            b"POST /submit HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
        ),
        (
            "oversized content-length",
            b"POST /submit HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
        ),
        (
            "colon-less header",
            b"POST /submit HTTP/1.1\r\nno-colon-header\r\n\r\n",
        ),
        (
            "invalid utf-8 body",
            b"POST /submit HTTP/1.1\r\ncontent-length: 4\r\n\r\n\xff\xfe\xfd\xfc",
        ),
        (
            "body shorter than declared",
            b"POST /submit HTTP/1.1\r\ncontent-length: 64\r\n\r\n{}",
        ),
    ];

    for (label, wire) in garbage {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let mut w = stream.try_clone().expect("clone");
        // The daemon may slam the door mid-write; that is acceptable
        // garbage handling, not a test failure.
        if w.write_all(wire).is_err() || w.flush().is_err() {
            continue;
        }
        let mut reader = BufReader::new(stream);
        // A connection closed without a response is acceptable garbage
        // handling too — only an actual reply is held to the 4xx contract.
        if let Ok(Some(resp)) = serve::http::read_response(&mut reader) {
            assert!(
                (400..500).contains(&resp.status),
                "{label}: expected 4xx, got {} ({})",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            );
        }

        // The daemon must still be alive and serving after every entry.
        let h = get(&addr, "/healthz");
        assert_eq!(h.status, 200, "{label}: daemon died");
    }

    // And real work still lands: a well-formed submit is accepted.
    let resp = post(
        &addr,
        "/submit",
        "{\"runtime\":1.0,\"value\":5.0,\"decay\":0.01}",
    );
    assert_eq!(
        resp.status,
        200,
        "well-formed submit after garbage: {}",
        String::from_utf8_lossy(&resp.body)
    );
}

/// `mbts flood --malformed-every` end to end, against an in-process
/// daemon: the flood finishes cleanly, sends garbage at the cadence it
/// promises, and none of that garbage is journaled or admitted. At this
/// seed and cadence the sixteen garbage requests draw every entry of the
/// flood's corpus, the 20,000-deep body among them.
#[test]
fn flood_with_malformed_every_journals_and_admits_no_garbage() {
    let dog = Watchdog::start("flood_with_malformed_every_journals_and_admits_no_garbage");
    let journal = scratch("flood_malformed.mbtsj");
    let _ = std::fs::remove_file(&journal);
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(4),
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    dog.watch(&addr);

    const REQUESTS: u64 = 512;
    const CONNECTIONS: usize = 2;
    const PIPELINE: usize = 8;
    const MALFORMED_EVERY: u64 = 4;
    let report = serve::flood(&serve::FloodConfig {
        addr: addr.clone(),
        requests: REQUESTS,
        connections: CONNECTIONS,
        pipeline: PIPELINE,
        seed: 42,
        malformed_every: MALFORMED_EVERY,
        ..serve::FloodConfig::default()
    })
    .expect("flood");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.exhausted, 0, "{report:?}");
    // One garbage request every `MALFORMED_EVERY` batches, per thread; no
    // batch was retried, so each thread sent its share in whole batches.
    let (bounced, retried) = (report.backpressured + report.unavailable, report.retries);
    assert_eq!((bounced, retried), (0, 0), "{report:?}");
    let share = REQUESTS / CONNECTIONS as u64;
    let batches = share.div_ceil(PIPELINE as u64);
    assert_eq!(
        report.malformed,
        CONNECTIONS as u64 * (batches / MALFORMED_EVERY)
    );
    assert_eq!(report.completed, REQUESTS);
    assert_eq!(report.accepted + report.rejected, REQUESTS);

    server.request_stop();
    let served = server.join().expect("drain");
    assert!(served.clean_drain);
    assert_eq!(served.violations, 0);
    assert_eq!(served.summary.accepted, report.accepted);
    assert_eq!(served.summary.rejected, report.rejected);
    // The journal holds the flood's submits and the drain marker, and
    // nothing the garbage could have added.
    assert_eq!(served.applied, REQUESTS + 1);
    let bytes = std::fs::read(&journal).expect("journal bytes");
    let (machine, _) = ServiceRun::recover(&bytes).expect("recover");
    assert_eq!(machine.applied(), served.applied);
    let c = *machine.counters();
    assert_eq!((c.accepted, c.rejected), (report.accepted, report.rejected));
    assert_eq!((c.shed, c.cancelled, c.cancel_misses), (0, 0, 0));
    std::fs::remove_file(&journal).ok();
}
