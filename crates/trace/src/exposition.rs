//! Prometheus text exposition (format 0.0.4): the only code in the
//! workspace that writes `# TYPE` lines and `_bucket{le=…}` samples.
//!
//! Each writer appends one metric family — header, then one sample per
//! row — to `out`. A row's labels come pre-joined (`route="submit",
//! outcome="ack"`, or empty for an unlabelled series). A family with no
//! rows writes nothing.

use mbts_sim::latency::{upper_edge_ns, LatencyHistogram};
use std::fmt::{Display, Write};

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

fn scalars(out: &mut String, name: &str, kind: &str, help: &str, rows: &[(String, f64)]) {
    if rows.is_empty() {
        return;
    }
    header(out, name, kind, help);
    for (labels, value) in rows {
        sample(out, name, labels, value);
    }
}

/// A label value with `\`, `"` and newlines escaped, ready to sit
/// between a row's quotes.
pub fn label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A counter family.
pub fn counter(out: &mut String, name: &str, help: &str, rows: &[(String, f64)]) {
    scalars(out, name, "counter", help, rows);
}

/// A gauge family.
pub fn gauge(out: &mut String, name: &str, help: &str, rows: &[(String, f64)]) {
    scalars(out, name, "gauge", help, rows);
}

/// A histogram family in seconds: per row the cumulative count at every
/// occupied bucket's inclusive upper edge, `+Inf`, `_sum` and `_count`.
pub fn histogram(out: &mut String, name: &str, help: &str, rows: &[(String, &LatencyHistogram)]) {
    if rows.is_empty() {
        return;
    }
    header(out, name, "histogram", help);
    for (labels, h) in rows {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, b) in h.buckets.iter().enumerate().filter(|(_, b)| **b > 0) {
            cumulative += b;
            let le = upper_edge_ns(i) as f64 / 1e9;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{le:e}\"}} {cumulative}"
            );
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
        sample(
            out,
            &format!("{name}_sum"),
            labels,
            format_args!("{:e}", h.sum_ns as f64 / 1e9),
        );
        sample(out, &format!("{name}_count"), labels, h.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_carry_one_header_and_labelled_samples() {
        let mut out = String::new();
        counter(
            &mut out,
            "c_total",
            "Things",
            &[("k=\"a\"".into(), 3.0), ("k=\"b\"".into(), 0.5)],
        );
        gauge(&mut out, "g", "", &[(String::new(), 7.0)]);
        gauge(&mut out, "none", "never written", &[]);
        assert_eq!(
            out,
            "# HELP c_total Things\n# TYPE c_total counter\n\
             c_total{k=\"a\"} 3\nc_total{k=\"b\"} 0.5\n\
             # TYPE g gauge\ng 7\n"
        );
    }

    #[test]
    fn histograms_are_cumulative_over_occupied_edges() {
        let mut h = LatencyHistogram::named("x");
        for ns in [2, 2, 1_000, u64::MAX] {
            h.record(ns);
        }
        let mut out = String::new();
        histogram(
            &mut out,
            "lat_seconds",
            "Latency",
            &[("section=\"x\"".into(), &h)],
        );
        histogram(
            &mut out,
            "bare_seconds",
            "",
            &[(String::new(), &LatencyHistogram::default())],
        );
        assert_eq!(
            out,
            "# HELP lat_seconds Latency\n# TYPE lat_seconds histogram\n\
             lat_seconds_bucket{section=\"x\",le=\"2e-9\"} 2\n\
             lat_seconds_bucket{section=\"x\",le=\"1.023e-6\"} 3\n\
             lat_seconds_bucket{section=\"x\",le=\"1.8446744073709553e10\"} 4\n\
             lat_seconds_bucket{section=\"x\",le=\"+Inf\"} 4\n\
             lat_seconds_sum{section=\"x\"} 1.8446744073709553e10\n\
             lat_seconds_count{section=\"x\"} 4\n\
             # TYPE bare_seconds histogram\n\
             bare_seconds_bucket{le=\"+Inf\"} 0\n\
             bare_seconds_sum 0e0\nbare_seconds_count 0\n"
        );
    }
}
