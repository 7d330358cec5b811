//! `mbts top`: a polling text dashboard over a live daemon's
//! `GET /metrics`.
//!
//! Each tick scrapes the Prometheus exposition, diffs it against the
//! previous scrape to rate-convert the monotone counters, pulls
//! p50/p95/p99 out of the cumulative latency histograms, and renders a
//! compact frame with a queue-depth sparkline across recent ticks. The
//! dashboard is a pure consumer: it holds no connection between polls
//! and asks the daemon for nothing but the scrape every worker thread
//! already serves without touching the core.
//!
//! The parser handles exactly what [`TelemetrySnapshot::render_prometheus`]
//! emits (and any exposition of the same `name{labels} value` shape);
//! unknown series are carried through untouched so the dashboard keeps
//! working as metrics are added.
//!
//! [`TelemetrySnapshot::render_prometheus`]: mbts_trace::telemetry::TelemetrySnapshot::render_prometheus

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mbts_sim::latency::LatencyHistogram;

use crate::http;

/// One parsed sample: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`serve_requests_total`, …).
    pub name: String,
    /// Label pairs, sorted by key for stable identity.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Label lookup.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed scrape: samples keyed by `name{labels}` identity.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Samples in exposition order.
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// All samples of one metric name.
    pub fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// A single unlabelled (or first) value of a metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.series(name).next().map(|s| s.value)
    }

    /// Sum of a metric across all label combinations.
    pub fn sum(&self, name: &str) -> f64 {
        self.series(name).map(|s| s.value).sum()
    }

    /// Sum across labels matching `(key, value)`.
    pub fn sum_where(&self, name: &str, key: &str, value: &str) -> f64 {
        self.series(name)
            .filter(|s| s.label(key) == Some(value))
            .map(|s| s.value)
            .sum()
    }
}

/// Parses Prometheus text exposition (`name{labels} value` lines;
/// comments and blanks skipped; malformed lines dropped, never fatal).
pub fn parse_exposition(text: &str) -> Scrape {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(sample) = parse_sample(line) else {
            continue;
        };
        samples.push(sample);
    }
    Scrape { samples }
}

fn parse_sample(line: &str) -> Option<Sample> {
    // `name{k="v",...} value`  or  `name value`
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let head = head.trim_end();
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in split_label_pairs(body) {
                let (k, v) = pair.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                labels.push((k.trim().to_string(), v.to_string()));
            }
            labels.sort();
            (name.to_string(), labels)
        }
    };
    if name.is_empty() {
        return None;
    }
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes (inside them a
/// backslash escapes the next character).
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let (mut in_quotes, mut escaped) = (false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                if start < i {
                    out.push(&body[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

/// Rebuilds the latency histogram behind a cumulative `_bucket` series
/// whose `le` edges are in seconds. Each finite edge lands in the shared
/// geometry's bucket for that value, so a scrape of our own exposition
/// reproduces the daemon's buckets exactly; `max_ns`, which the
/// exposition does not carry, becomes the highest occupied edge. `None`
/// with no observations or an unparseable edge.
pub fn scraped_histogram(scrape: &Scrape, hist: &str) -> Option<LatencyHistogram> {
    let bucket_name = format!("{hist}_bucket");
    let mut edges: Vec<(u64, u64)> = Vec::new(); // (le in ns, cumulative)
    for s in scrape.series(&bucket_name) {
        let le = s.label("le")?;
        if le != "+Inf" {
            let le_ns = (le.parse::<f64>().ok()? * 1e9).round() as u64;
            edges.push((le_ns, s.value as u64));
        }
    }
    edges.sort_unstable();
    let mut out = LatencyHistogram::named(hist);
    for (le_ns, cumulative) in edges {
        if cumulative > out.count {
            out.record_n(le_ns, cumulative - out.count);
        }
    }
    (out.count > 0).then_some(out)
}

/// Quantile of a scraped histogram in seconds, by the same estimator the
/// daemon uses ([`LatencyHistogram::quantile_ns`]).
pub fn histogram_quantile(scrape: &Scrape, hist: &str, q: f64) -> Option<f64> {
    scraped_histogram(scrape, hist).map(|h| h.quantile_ns(q) as f64 * 1e-9)
}

/// Rate-converted counter deltas between two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Rates {
    /// Requests/s by `(route, outcome)`, only pairs that moved.
    pub requests: BTreeMap<(String, String), f64>,
    /// Total requests/s across all routes and outcomes.
    pub total: f64,
}

/// Diffs `serve_requests_total` between scrapes `interval_s` apart. A
/// counter that went backwards (daemon restart) contributes 0, not a
/// negative rate.
pub fn request_rates(prev: &Scrape, cur: &Scrape, interval_s: f64) -> Rates {
    let mut rates = Rates::default();
    if interval_s <= 0.0 {
        return rates;
    }
    for s in cur.series("serve_requests_total") {
        let (Some(route), Some(outcome)) = (s.label("route"), s.label("outcome")) else {
            continue;
        };
        let before = prev
            .series("serve_requests_total")
            .find(|p| p.labels == s.labels)
            .map(|p| p.value)
            .unwrap_or(0.0);
        let rate = ((s.value - before).max(0.0)) / interval_s;
        if rate > 0.0 {
            rates
                .requests
                .insert((route.to_string(), outcome.to_string()), rate);
            rates.total += rate;
        }
    }
    rates
}

/// Unicode sparkline over recent queue depths, scaled to the window max.
pub fn sparkline(history: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = history.iter().cloned().fold(0.0f64, f64::max);
    history
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Renders one dashboard frame from the current scrape, the previous
/// one, and the queue-depth history (oldest first).
pub fn render_frame(prev: &Scrape, cur: &Scrape, interval_s: f64, depth_history: &[f64]) -> String {
    let mut out = String::with_capacity(1024);
    let uptime = cur.value("serve_uptime_seconds").unwrap_or(0.0);
    let draining = cur.value("serve_draining").unwrap_or(0.0) > 0.0;
    out.push_str(&format!(
        "mbts top — uptime {uptime:.0}s{}\n",
        if draining { "  [DRAINING]" } else { "" }
    ));

    let rates = request_rates(prev, cur, interval_s);
    out.push_str(&format!("requests  {:.0}/s total\n", rates.total));
    for ((route, outcome), rate) in &rates.requests {
        out.push_str(&format!("  {route:<8} {outcome:<13} {rate:>9.0}/s\n"));
    }

    out.push_str("latency   ");
    let mut first = true;
    for (label, hist) in [
        ("req", "serve_request_duration_seconds"),
        ("queue", "serve_queue_wait_duration_seconds"),
        ("journal", "serve_journal_append_duration_seconds"),
        ("apply", "serve_apply_duration_seconds"),
    ] {
        if let Some(h) = scraped_histogram(cur, hist) {
            if !first {
                out.push_str("\n          ");
            }
            let at = |q| fmt_secs(h.quantile_ns(q) as f64 * 1e-9);
            out.push_str(&format!(
                "{label:<8} p50 ≤{:>9} p95 ≤{:>9} p99 ≤{:>9}",
                at(0.50),
                at(0.95),
                at(0.99)
            ));
            first = false;
        }
    }
    if first {
        out.push_str("(no samples yet)");
    }
    out.push('\n');

    let depth = cur.value("serve_queue_depth").unwrap_or(0.0);
    let capacity = cur.value("serve_queue_capacity").unwrap_or(0.0);
    out.push_str(&format!(
        "queue     depth {depth:.0}/{capacity:.0}  {}\n",
        sparkline(depth_history)
    ));
    out.push_str(&format!(
        "economy   pending {:.0}  running {:.0}  free {:.0}  yield {:.2}  penalty {:.2}  shed-pv {:.2}\n",
        cur.value("serve_pending_tasks").unwrap_or(0.0),
        cur.value("serve_running_tasks").unwrap_or(0.0),
        cur.value("serve_free_processors").unwrap_or(0.0),
        cur.value("serve_yield_total").unwrap_or(0.0),
        cur.value("serve_penalty_total").unwrap_or(0.0),
        cur.value("serve_shed_pv_lost_total").unwrap_or(0.0),
    ));
    let chaos = cur
        .value("serve_chaos_faults_injected_total")
        .unwrap_or(0.0);
    let violations = cur.value("serve_violations").unwrap_or(0.0);
    if chaos > 0.0 || violations > 0.0 {
        out.push_str(&format!(
            "faults    chaos {chaos:.0}  violations {violations:.0}\n"
        ));
    }
    out
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Configuration for [`run_top`].
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Seconds between polls.
    pub interval: f64,
    /// Frames to render before exiting; `None` polls until the scrape
    /// fails (daemon gone).
    pub count: Option<u64>,
}

/// Scrapes `/metrics` once over a fresh connection.
pub fn scrape(addr: &str) -> io::Result<Scrape> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    http::write_get(&mut writer, "/metrics")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let resp = http::read_response(&mut reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty /metrics response"))?;
    if resp.status != 200 {
        return Err(io::Error::other(format!(
            "/metrics answered {}",
            resp.status
        )));
    }
    let text = String::from_utf8(resp.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 exposition"))?;
    Ok(parse_exposition(&text))
}

/// The `mbts top` loop: poll, diff, render to `out` until `count` frames
/// are drawn or the daemon stops answering. Returns the frames drawn.
pub fn run_top(cfg: &TopConfig, out: &mut (impl Write + ?Sized)) -> io::Result<u64> {
    let mut prev = scrape(&cfg.addr)?;
    let mut depth_history: Vec<f64> = vec![prev.value("serve_queue_depth").unwrap_or(0.0)];
    let mut frames = 0u64;
    loop {
        if let Some(n) = cfg.count {
            if frames >= n {
                return Ok(frames);
            }
        }
        let tick = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(cfg.interval.max(0.01)));
        let cur = match scrape(&cfg.addr) {
            Ok(s) => s,
            // A dead daemon ends the dashboard cleanly after at least
            // one frame; before the first frame it is a real error.
            Err(e) if frames > 0 => {
                writeln!(out, "mbts top: daemon gone ({e})")?;
                return Ok(frames);
            }
            Err(e) => return Err(e),
        };
        depth_history.push(cur.value("serve_queue_depth").unwrap_or(0.0));
        const SPARK_WINDOW: usize = 30;
        if depth_history.len() > SPARK_WINDOW {
            let cut = depth_history.len() - SPARK_WINDOW;
            depth_history.drain(..cut);
        }
        let frame = render_frame(&prev, &cur, tick.elapsed().as_secs_f64(), &depth_history);
        writeln!(out, "{frame}")?;
        out.flush()?;
        prev = cur;
        frames += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANNED: &str = "\
# HELP serve_requests_total Requests served, by route and terminal outcome
# TYPE serve_requests_total counter
serve_requests_total{route=\"submit\",outcome=\"ack\"} 1000
serve_requests_total{route=\"submit\",outcome=\"shed\"} 50
serve_requests_total{route=\"stats\",outcome=\"ack\"} 7
# TYPE serve_request_duration_seconds histogram
serve_request_duration_seconds_bucket{le=\"1.087e-6\"} 600
serve_request_duration_seconds_bucket{le=\"2.175e-6\"} 950
serve_request_duration_seconds_bucket{le=\"1.7825791e-2\"} 1000
serve_request_duration_seconds_bucket{le=\"+Inf\"} 1000
serve_request_duration_seconds_sum 2.5e-3
serve_request_duration_seconds_count 1000
serve_queue_depth 12
serve_queue_capacity 1024
serve_uptime_seconds 42
";

    #[test]
    fn parses_names_labels_and_values() {
        let scrape = parse_exposition(CANNED);
        assert_eq!(scrape.sum("serve_requests_total"), 1057.0);
        assert_eq!(
            scrape.sum_where("serve_requests_total", "outcome", "ack"),
            1007.0
        );
        assert_eq!(scrape.value("serve_queue_depth"), Some(12.0));
        let s = scrape
            .series("serve_requests_total")
            .find(|s| s.label("route") == Some("submit") && s.label("outcome") == Some("shed"))
            .unwrap();
        assert_eq!(s.value, 50.0);
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let scrape = parse_exposition("garbage\nserve_queue_depth 3\nname{unclosed 1\n 9\n");
        assert_eq!(scrape.samples.len(), 1);
        assert_eq!(scrape.value("serve_queue_depth"), Some(3.0));
    }

    #[test]
    fn quantiles_read_cumulative_buckets() {
        let scrape = parse_exposition(CANNED);
        let p50 = histogram_quantile(&scrape, "serve_request_duration_seconds", 0.50).unwrap();
        assert_eq!(p50, 1087.0 * 1e-9); // 500th of 1000 is in the first bucket
        let p95 = histogram_quantile(&scrape, "serve_request_duration_seconds", 0.95).unwrap();
        assert_eq!(p95, 2175.0 * 1e-9);
        let p99 = histogram_quantile(&scrape, "serve_request_duration_seconds", 0.99).unwrap();
        assert_eq!(p99, 17825791.0 * 1e-9);
        assert!(histogram_quantile(&scrape, "no_such_histogram", 0.5).is_none());
    }

    #[test]
    fn rates_diff_counters_and_clamp_restarts() {
        let prev = parse_exposition(
            "serve_requests_total{route=\"submit\",outcome=\"ack\"} 1000\n\
             serve_requests_total{route=\"stats\",outcome=\"ack\"} 7\n",
        );
        let cur = parse_exposition(
            "serve_requests_total{route=\"submit\",outcome=\"ack\"} 1500\n\
             serve_requests_total{route=\"stats\",outcome=\"ack\"} 2\n\
             serve_requests_total{route=\"cancel\",outcome=\"ack\"} 10\n",
        );
        let rates = request_rates(&prev, &cur, 2.0);
        assert_eq!(
            rates.requests[&("submit".to_string(), "ack".to_string())],
            250.0
        );
        // stats went backwards (restart): clamped to zero, not negative.
        assert!(!rates
            .requests
            .contains_key(&("stats".to_string(), "ack".to_string())));
        // cancel is new since prev: full value over the interval.
        assert_eq!(
            rates.requests[&("cancel".to_string(), "ack".to_string())],
            5.0
        );
        assert_eq!(rates.total, 255.0);
    }

    #[test]
    fn sparkline_scales_to_window_max() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let line = sparkline(&[0.0, 5.0, 10.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
    }

    #[test]
    fn frame_renders_rates_latency_and_queue() {
        let prev = parse_exposition("serve_requests_total{route=\"submit\",outcome=\"ack\"} 0\n");
        let cur = parse_exposition(CANNED);
        let frame = render_frame(&prev, &cur, 1.0, &[3.0, 12.0]);
        assert!(frame.contains("uptime 42s"));
        assert!(frame.contains("submit"));
        assert!(frame.contains("1000/s"));
        assert!(frame.contains("p50"));
        assert!(frame.contains("depth 12/1024"));
    }

    #[test]
    fn frame_survives_an_empty_scrape() {
        let empty = Scrape::default();
        let frame = render_frame(&empty, &empty, 1.0, &[]);
        assert!(frame.contains("no samples yet"));
    }
}
