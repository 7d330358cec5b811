//! Telemetry-plane integration tests: `GET /metrics` under live load.
//!
//! These run in their own test binary (process) because the telemetry
//! registry is process-global — the exact cross-checks below (acked
//! submissions vs `serve_requests_total{route="submit",outcome="ack"}`)
//! only hold when no unrelated server is bumping the same counters.
//! Within the file a mutex serializes the tests for the same reason.
//!
//! The contract under test, from the design's observability section:
//! scrapes are answered by worker threads from atomics only (never the
//! core thread, the queue, or the journal), counters are monotone under
//! concurrent writers, and the exposition stays internally consistent
//! (cumulative buckets, `_count` matching the counted requests).

use mbts::serve::{self, top, ServeConfig, Server, TopConfig};
use mbts::site::SiteConfig;
use mbts::trace::telemetry;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the tests in this file: the registry is process-global.
static TELEMETRY: Mutex<()> = Mutex::new(());

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

/// Sum of `serve_requests_total` restricted to one (route, outcome).
fn requests(scrape: &top::Scrape, route: &str, outcome: &str) -> f64 {
    scrape
        .series("serve_requests_total")
        .filter(|s| s.label("route") == Some(route) && s.label("outcome") == Some(outcome))
        .map(|s| s.value)
        .sum()
}

/// `/metrics` must be a valid Prometheus text exposition with the
/// advertised content type, `/healthz` and `/readyz` must answer 200 on
/// a live daemon, and `/readyz` must stop saying ready once a drain is
/// in flight (503, or connection refused once the listener is gone).
#[test]
fn metrics_is_valid_exposition_and_readyz_reflects_drain() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::reset();
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        queue_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();

    assert_eq!(get(&addr, "/healthz").status, 200);
    assert_eq!(get(&addr, "/readyz").status, 200);

    let ok = post(
        &addr,
        "/submit",
        "{\"runtime\":1.0,\"value\":5.0,\"decay\":0.01}",
    );
    assert_eq!(ok.status, 200);

    let resp = get(&addr, "/metrics");
    assert_eq!(resp.status, 200);
    let ctype = resp.header("content-type").expect("content-type");
    assert!(
        ctype.starts_with("text/plain"),
        "exposition content type: {ctype}"
    );
    let text = String::from_utf8(resp.body).expect("utf-8 exposition");
    assert!(text.contains("# TYPE serve_requests_total counter"));
    assert!(text.contains("# TYPE serve_request_duration_seconds histogram"));
    let scrape = top::parse_exposition(&text);
    assert!(
        !scrape.samples.is_empty(),
        "exposition parsed to no samples:\n{text}"
    );
    assert_eq!(requests(&scrape, "submit", "ack"), 1.0, "one acked submit");
    // Gauges the dashboard keys on must be present.
    for gauge in [
        "serve_queue_depth",
        "serve_queue_capacity",
        "serve_uptime_seconds",
    ] {
        assert!(scrape.value(gauge).is_some(), "missing gauge {gauge}");
    }

    assert_eq!(post(&addr, "/drain", "{}").status, 200);
    // The drain window may be short: ready must no longer be 200 —
    // either an explicit 503 or, post-drain, a refused connection.
    if let Ok(stream) = TcpStream::connect(&addr) {
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        if serve::http::write_get(&mut writer, "/readyz").is_ok() && writer.flush().is_ok() {
            let mut reader = BufReader::new(stream);
            if let Ok(Some(resp)) = serve::http::read_response(&mut reader) {
                assert_eq!(resp.status, 503, "draining daemon must not claim ready");
            }
        }
    }
    let report = server.join().expect("drain");
    assert!(report.clean_drain);
}

/// The concurrency contract: scrape `/metrics` continuously while four
/// pipelined connections flood submits. Every scrape must parse, the
/// request counters must be monotone across scrapes, and the final
/// post-drain scrape must agree exactly with what the clients saw
/// (acked = accepted submissions) and with itself (histogram `_count`
/// matches the counted requests; cumulative buckets are non-decreasing).
#[test]
fn concurrent_scrapes_under_flood_stay_monotonic_and_consistent() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::reset();
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(4),
        queue_capacity: 256,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();

    const CONNS: usize = 4;
    const BATCHES: usize = 10;
    const PIPELINE: usize = 8;
    let stop = Arc::new(AtomicBool::new(false));

    // Scraper: hammer /metrics while the flood runs, checking that the
    // total request count never goes backwards.
    let scraper = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            let mut last_total = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                let scrape = serve::scrape(&addr).expect("mid-flood scrape");
                let total = scrape.sum("serve_requests_total");
                assert!(
                    total >= last_total,
                    "request counter went backwards: {total} < {last_total}"
                );
                last_total = total;
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            scrapes
        })
    };

    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = BufWriter::new(stream);
                let mut acked = 0u64;
                let mut submitted = 0u64;
                for b in 0..BATCHES {
                    for i in 0..PIPELINE {
                        let value = 1.0 + ((c + b + i) % 7) as f64;
                        let body = format!("{{\"runtime\":1.0,\"value\":{value},\"decay\":0.01}}");
                        serve::http::write_post(&mut writer, "/submit", body.as_bytes())
                            .expect("write");
                        submitted += 1;
                    }
                    writer.flush().expect("flush");
                    for _ in 0..PIPELINE {
                        let resp = serve::http::read_response(&mut reader)
                            .expect("read")
                            .expect("response");
                        assert_eq!(resp.status, 200, "submit must land under this load");
                        if String::from_utf8_lossy(&resp.body).contains("\"accepted\":true") {
                            acked += 1;
                        }
                    }
                }
                (submitted, acked)
            })
        })
        .collect();
    let mut submitted = 0u64;
    let mut acked = 0u64;
    for c in clients {
        let (s, a) = c.join().expect("client");
        submitted += s;
        acked += a;
    }
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper");
    assert!(scrapes > 0, "the scraper never got a scrape in");

    // Final scrape before drain: the books must balance exactly.
    let scrape = serve::scrape(&addr).expect("final scrape");
    let ack = requests(&scrape, "submit", "ack");
    let rejected = requests(&scrape, "submit", "rejected");
    assert_eq!(ack as u64, acked, "ack counter vs client-observed acks");
    assert_eq!(
        (ack + rejected) as u64,
        submitted,
        "every 200-answered submit is either ack or rejected"
    );
    // Internal consistency: every counted request recorded one latency
    // sample (no malformed traffic in this flood), and the cumulative
    // histogram is sane.
    let hist_count = scrape
        .value("serve_request_duration_seconds_count")
        .unwrap_or(0.0);
    let counted = scrape.sum("serve_requests_total");
    assert_eq!(
        hist_count, counted,
        "latency samples vs counted requests (scrapes included)"
    );
    let mut last = 0.0f64;
    for s in scrape.series("serve_request_duration_seconds_bucket") {
        if s.label("le") == Some("+Inf") {
            assert_eq!(s.value, hist_count, "+Inf bucket must equal _count");
            continue;
        }
        assert!(s.value >= last, "cumulative buckets must be non-decreasing");
        last = s.value;
    }
    let depth = scrape.value("serve_queue_depth").unwrap_or(f64::NAN);
    let cap = scrape.value("serve_queue_capacity").unwrap_or(f64::NAN);
    assert!(
        depth >= 0.0 && depth <= cap,
        "queue depth {depth} vs capacity {cap}"
    );

    assert_eq!(post(&addr, "/drain", "{}").status, 200);
    let report = server.join().expect("drain");
    assert_eq!(report.summary.accepted, acked, "server books agree too");
}

/// `mbts top` end to end: two frames polled off a live daemon render
/// request rates, latency quantiles, and the queue sparkline.
#[test]
fn top_dashboard_renders_frames_from_a_live_daemon() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::reset();
    let server = Server::start(ServeConfig {
        site: SiteConfig::new(2),
        queue_capacity: 32,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.addr.to_string();
    for i in 0..5 {
        let body = format!("{{\"runtime\":1.0,\"value\":{}.0,\"decay\":0.01}}", i + 1);
        assert_eq!(post(&addr, "/submit", &body).status, 200);
    }
    let mut out = Vec::new();
    let frames = serve::run_top(
        &TopConfig {
            addr: addr.clone(),
            interval: 0.05,
            count: Some(2),
        },
        &mut out,
    )
    .expect("top frames");
    assert_eq!(frames, 2);
    let text = String::from_utf8(out).expect("utf-8 frames");
    assert!(
        text.contains("mbts top — uptime"),
        "frame lacks header:\n{text}"
    );
    assert!(text.contains("/s total"), "frame lacks rates:\n{text}");
    assert!(
        text.contains("queue     depth"),
        "frame lacks queue line:\n{text}"
    );
    assert!(
        text.contains("economy   pending"),
        "frame lacks economy line:\n{text}"
    );
    server.request_stop();
    server.join().expect("drain");
}

/// Checks one exposition text the way a scraper would: every sample's
/// family has its `# TYPE` line first, and per histogram label set the
/// cumulative buckets never decrease and `+Inf` equals `_count`.
fn assert_well_formed(text: &str) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut typed: BTreeSet<&str> = BTreeSet::new();
    let mut histograms: BTreeSet<&str> = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            assert!(typed.insert(name), "second # TYPE for {name}");
            if kind == "histogram" {
                histograms.insert(name);
            }
        } else if !line.starts_with('#') {
            let name = line.split(['{', ' ']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix).filter(|f| histograms.contains(f)))
                .unwrap_or(name);
            assert!(typed.contains(family), "sample before its # TYPE: {line}");
        }
    }
    let scrape = top::parse_exposition(text);
    assert_eq!(
        scrape.samples.len(),
        text.lines().filter(|l| !l.starts_with('#')).count(),
        "every sample line parses"
    );
    for family in histograms {
        // (labels without `le`) -> (last cumulative, +Inf)
        let mut rows: BTreeMap<Vec<(String, String)>, (f64, f64)> = BTreeMap::new();
        for s in scrape.series(&format!("{family}_bucket")) {
            let mut labels = s.labels.clone();
            labels.retain(|(k, _)| k != "le");
            let row = rows.entry(labels).or_default();
            if s.label("le") == Some("+Inf") {
                row.1 = s.value;
            } else {
                assert!(s.value >= row.0, "{family}: cumulative buckets decreased");
                row.0 = s.value;
            }
        }
        for s in scrape.series(&format!("{family}_count")) {
            let (last, inf) = rows[&s.labels];
            assert_eq!(inf, s.value, "{family}: +Inf vs _count");
            assert!(last <= inf);
        }
    }
}

/// All three reports render through the one exposition module, and a
/// scrape of it rebuilds the recorder's buckets exactly — the dashboard
/// reads a percentile off the same histogram the daemon holds.
#[test]
fn every_report_round_trips_through_the_exposition_parser() {
    use mbts::sim::latency::LatencyHistogram;
    use mbts::sim::Time;
    use mbts::trace::analyze::{analyze, render_prometheus};
    use mbts::trace::{AnalyzeOptions, ProfileReport, ServeSummary, TraceEvent, TraceKind};
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::reset();

    let samples = [0, 3, 31, 32, 1_000, 45_678, 9_999_999, 1 << 33, u64::MAX];
    for ns in samples {
        telemetry::record_ns(telemetry::Hist::QueueWait, ns);
        telemetry::record_ns(telemetry::Hist::Request, ns / 2);
    }
    telemetry::count_request(telemetry::Route::Submit, telemetry::Outcome::Ack);
    telemetry::gauge_set(telemetry::Gauge::QueueDepth, 3);
    let snap = telemetry::snapshot();
    let live = snap.render_prometheus();
    assert_well_formed(&live);

    let mut profile = ProfileReport::capture();
    profile.serve = Some(ServeSummary {
        requests: 1,
        accepted: 1,
        ..ServeSummary::default()
    });
    let sections = profile.render_prometheus();
    assert_well_formed(&sections);

    // `mbts analyze --format prom`: two traces (one label needing
    // escapes), each with a busy site.
    let events: Vec<TraceEvent> = [
        TraceKind::TaskArrived { accepted: true },
        TraceKind::Scheduled {
            rank: 1,
            pv: 4.0,
            cost: 0.0,
            slack: 1.0,
            width: 2,
            backfill: false,
        },
        TraceKind::Completed {
            earned: 3.5,
            delay: 0.5,
            width: 2,
            preemptions: 0,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| TraceEvent {
        at: Time::new(i as f64),
        task: Some(mbts::workload::TaskId(1)),
        site: Some(3),
        kind,
    })
    .collect();
    let reports = [
        analyze("a.jsonl", &events, &AnalyzeOptions::default()),
        analyze("odd \"b\\.jsonl", &events, &AnalyzeOptions::default()),
    ];
    let traces = render_prometheus(&reports);
    assert_well_formed(&traces);
    let scrape = top::parse_exposition(&traces);
    let busy: Vec<_> = scrape.series("mbts_busy_processors_mean").collect();
    assert_eq!(busy.len(), 2);
    assert_eq!(busy[0].label("site"), Some("3"));
    // Two processors busy over the second half of the span.
    assert_eq!(busy[0].value, 1.0);
    let completed = scrape
        .series("mbts_tasks_total")
        .filter(|s| s.label("outcome") == Some("completed"));
    assert_eq!(completed.map(|s| s.value).collect::<Vec<_>>(), [1.0, 1.0]);

    // What `GET /metrics` answers is the first two, concatenated.
    let text = telemetry::scrape_text();
    assert_well_formed(&text);
    let scrape = top::parse_exposition(&text);
    let mut expected = LatencyHistogram::named("serve_queue_wait_duration_seconds");
    for ns in samples {
        expected.record(ns);
    }
    let rebuilt = top::scraped_histogram(&scrape, "serve_queue_wait_duration_seconds")
        .expect("queue-wait histogram");
    assert_eq!(rebuilt.buckets, expected.buckets);
    assert_eq!(rebuilt.count, expected.count);
    assert_eq!(snap.hist("queue_wait").unwrap().buckets, expected.buckets);
    // The shared series shows under the profiler's name too.
    let shared = scrape
        .series("mbts_profiler_latency_seconds_count")
        .find(|s| s.label("section") == Some("serve_queue_wait"))
        .expect("queue-wait section");
    assert_eq!(shared.value, samples.len() as f64);
    telemetry::reset();
}
