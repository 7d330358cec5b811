//! Reports over the latency registry.
//!
//! `mbts_sim::profiler` owns the always-compiled-in instrumentation
//! (sections, plane mask, sharded atomic histograms); this module turns a
//! sample of it into a serializable [`ProfileReport`] and renders it as
//! text or, through [`crate::exposition`], Prometheus text. Reports carry
//! a `"mbts_profile"` marker field so `mbts analyze` can tell a saved
//! profile apart from a trace JSONL by content.

use crate::exposition;
use mbts_sim::latency::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// Marker value stored in [`ProfileReport::kind`].
pub const PROFILE_MARKER: &str = "mbts_profile";

/// Request-outcome counters of one `mbts serve` session, folded into
/// the profile report on shutdown so `mbts analyze --format prom` can export
/// accept/shed/timeout rates next to the latency histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServeSummary {
    /// Requests read off the wire (any endpoint).
    pub requests: u64,
    /// Submissions admitted by the site's acceptance heuristic.
    pub accepted: u64,
    /// Submissions the heuristic rejected (journaled, then declined).
    pub rejected: u64,
    /// Submissions dropped by overload shedding (lowest PV / expired
    /// first) before reaching the acceptance heuristic.
    pub shed: u64,
    /// Submissions bounced by queue-full backpressure (HTTP 429 without
    /// ever occupying a queue slot).
    pub backpressured: u64,
    /// Cancellations applied.
    pub cancelled: u64,
    /// Tasks completed by the sim core.
    pub completed: u64,
    /// Requests that timed out waiting for the core thread.
    pub timeouts: u64,
    /// Wall-clock nanoseconds the service was up.
    pub wall_ns: u64,
}

/// A point-in-time capture of every section, serializable to JSON for
/// `mbts analyze` and renderable as Prometheus text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Always [`PROFILE_MARKER`]; lets `analyze` detect profile files.
    pub kind: String,
    /// Whether sampling was enabled at capture time.
    pub enabled: bool,
    /// Per-section histograms (`section`, `count`, `sum_ns`, `max_ns`,
    /// `buckets`), wire order.
    pub sections: Vec<LatencyHistogram>,
    /// Service request counters, present only for `mbts serve` runs.
    #[serde(default)]
    pub serve: Option<ServeSummary>,
}

impl ProfileReport {
    /// Captures every section of the global registry.
    pub fn capture() -> Self {
        ProfileReport {
            kind: PROFILE_MARKER.to_string(),
            enabled: mbts_sim::profiler::is_enabled(),
            sections: mbts_sim::profiler::sample(),
            serve: None,
        }
    }

    /// True when no section recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.sections.iter().all(|s| s.count == 0)
    }

    /// Plain-text report: one line per section with count, mean, p50,
    /// p99 (bucket-resolution), and max.
    pub fn render_text(&self) -> String {
        let mut out = String::from("hot-path profile (log-linear ns buckets)\n");
        if self.is_empty() {
            out.push_str("  (no samples: profiler disabled or nothing instrumented ran)\n");
        } else {
            for s in &self.sections {
                if s.count == 0 {
                    out.push_str(&format!("  {:<20} no samples\n", s.section));
                    continue;
                }
                out.push_str(&format!(
                    "  {:<20} n={:<9} mean {:>10.0}ns  p50 ≤{:>10}ns  p99 ≤{:>10}ns  max {:>10}ns\n",
                    s.section,
                    s.count,
                    s.mean_ns(),
                    s.quantile_ns(0.50),
                    s.quantile_ns(0.99),
                    s.max_ns
                ));
            }
        }
        if let Some(sv) = &self.serve {
            let wall_s = sv.wall_ns as f64 * 1e-9;
            let rps = if wall_s > 0.0 {
                sv.requests as f64 / wall_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "serve ({} requests in {:.2}s, {:.0} req/s)\n  \
                 accepted {}  rejected {}  shed {}  backpressured {}  \
                 cancelled {}  completed {}  timeouts {}\n",
                sv.requests,
                wall_s,
                rps,
                sv.accepted,
                sv.rejected,
                sv.shed,
                sv.backpressured,
                sv.cancelled,
                sv.completed,
                sv.timeouts
            ));
        }
        out
    }

    /// Prometheus text exposition: one cumulative histogram family in
    /// seconds labelled by section, plus the serve summary.
    pub fn render_prometheus(&self) -> String {
        let one = |v: f64| [(String::new(), v)];
        let mut out = String::new();
        let rows: Vec<_> = self
            .sections
            .iter()
            .map(|s| (format!("section=\"{}\"", s.section), s))
            .collect();
        exposition::histogram(
            &mut out,
            "mbts_profiler_latency_seconds",
            "Latency of the instrumented spans (log-linear buckets)",
            &rows,
        );
        if let Some(sv) = &self.serve {
            let by_outcome = [
                ("accepted", sv.accepted),
                ("rejected", sv.rejected),
                ("shed", sv.shed),
                ("backpressured", sv.backpressured),
                ("cancelled", sv.cancelled),
                ("timeout", sv.timeouts),
            ]
            .map(|(outcome, n)| (format!("outcome=\"{outcome}\""), n as f64));
            exposition::counter(
                &mut out,
                "mbts_serve_requests_total",
                "Service requests by outcome",
                &by_outcome,
            );
            exposition::counter(
                &mut out,
                "mbts_serve_completed_total",
                "Tasks completed by the sim core",
                &one(sv.completed as f64),
            );
            exposition::gauge(
                &mut out,
                "mbts_serve_uptime_seconds",
                "Service wall-clock uptime",
                &one(sv.wall_ns as f64 * 1e-9),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_serializes_and_round_trips() {
        let report = ProfileReport::capture();
        assert_eq!(report.kind, PROFILE_MARKER);
        assert_eq!(report.sections.len(), 10);
        assert_eq!(report.sections[0].section, "pool_insert");
        assert_eq!(report.sections[4].section, "serve_parse");
        assert_eq!(report.sections[6].section, "serve_apply");
        assert_eq!(report.sections[7].section, "serve_journal_append");
        assert_eq!(report.sections[9].section, "serve_machine_apply");
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_labelled() {
        let mut report = ProfileReport::capture();
        report.sections[0] = LatencyHistogram::named("pool_insert");
        for ns in [2, 2, 3] {
            report.sections[0].record(ns);
        }
        let prom = report.render_prometheus();
        assert!(prom.contains("# TYPE mbts_profiler_latency_seconds histogram"));
        assert!(prom.contains(
            "mbts_profiler_latency_seconds_bucket{section=\"pool_insert\",le=\"2e-9\"} 2"
        ));
        assert!(prom.contains(
            "mbts_profiler_latency_seconds_bucket{section=\"pool_insert\",le=\"+Inf\"} 3"
        ));
        assert!(prom.contains("mbts_profiler_latency_seconds_count{section=\"pool_insert\"} 3"));
    }

    #[test]
    fn empty_report_renders_a_placeholder() {
        let report = ProfileReport {
            kind: PROFILE_MARKER.into(),
            enabled: false,
            sections: vec![],
            serve: None,
        };
        assert!(report.is_empty());
        assert!(report.render_text().contains("no samples"));
    }
}
