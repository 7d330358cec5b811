//! Metric names, the per-round table, and the one JSON line the driver
//! reads. The names and units here are the ones in `BENCHMARK.json`; a
//! unit test holds the two together.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats;

/// End-to-end metrics, printed by every workload with tracing off: the
/// ones `BENCHMARK.json` puts a regression bound on.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("yield_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that did not settle within a 10 % bound on every
/// workload of this host, so carry none: measured on untraced rounds like
/// the three above, reported at the head of the per-layer list (README,
/// "Demoted"). The last two exist on `serve-*` only.
pub const DEMOTED: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("recover_s", "s"),
    ("journal_bytes_per_op", "B/op"),
];

/// Per-layer metrics, printed by the traced run. A workload that does not
/// exercise a layer reports 0 for it in the driver's line (the driver
/// wants every name every time) and leaves it out of the table it prints.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("recover_s", "s"),
    ("journal_bytes_per_op", "B/op"),
    ("workload.generate_ns_per_task", "ns"),
    ("sim.queue_schedule_ns", "ns"),
    ("sim.queue_pop_ns", "ns"),
    ("core.pool_push_ns", "ns"),
    ("core.pool_select_ns", "ns"),
    ("core.pool_remove_ns", "ns"),
    ("core.pool_depth_p50", "count"),
    ("core.pool_depth_max", "count"),
    ("core.admission_quote_ns", "ns"),
    ("site.step_arrival_ns", "ns"),
    ("site.step_completion_ns", "ns"),
    ("site.evaluate_ns", "ns"),
    ("site.submit_ns", "ns"),
    ("site.completion_ns", "ns"),
    ("market.step_arrival_ns", "ns"),
    ("market.step_completion_ns", "ns"),
    ("market.step_other_ns", "ns"),
    ("market.events_per_task", "count"),
    ("durable.append_ns", "ns"),
    ("durable.record_bytes", "B"),
    ("durable.snapshot_append_ns_per_mb", "ns/MB"),
    ("durable.append_sync_ns", "ns"),
    ("durable.scan_ns_per_mb", "ns/MB"),
    ("serve.http_parse_ns", "ns"),
    ("serve.reply_write_ns", "ns"),
    ("serve.cmd_encode_ns", "ns"),
    ("serve.machine_apply_ns", "ns"),
    ("serve.run_apply_ns", "ns"),
    ("serve.snapshot_count", "count"),
    ("serve.snapshot_ns_total", "ns"),
    ("serve.snapshot_ns_max", "ns"),
    ("serve.snapshot_bytes_max", "B"),
    ("serve.snapshot_share", "share"),
    ("serve.recover_parse_ns", "ns"),
    ("serve.recover_replay_ns_per_cmd", "ns"),
    ("serve.ingress_residual_ns", "ns"),
    ("serve.refused_count", "count"),
    ("trace.telemetry_record_ns", "ns"),
    ("ledger.core_reconcile_share", "share"),
    ("ledger.gap_share", "share"),
    ("ledger.trace_overhead_share", "share"),
];

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve-flood",
    "serve-durable",
    "site-backlog",
    "market-bids",
];

/// One timed round's end-to-end numbers.
#[derive(Debug, Clone)]
pub struct Round {
    /// The round's own set-up, in a process that has set up before; the
    /// run's `setup_s` comes from fresh processes instead.
    pub setup_s: f64,
    pub wall_s: f64,
    pub throughput_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub yield_share: f64,
    /// `serve-*` only; 0 on the simulators, which journal nothing.
    pub recover_s: f64,
    pub journal_bytes_per_op: f64,
    /// Latency samples in the round, and how many lie beyond p99.
    pub samples: usize,
    pub beyond_p99: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Round {
    /// Builds the latency fields from ascending samples in nanoseconds.
    pub fn latencies(sorted_ns: &[u64]) -> (f64, f64, usize, usize) {
        (
            stats::percentile(sorted_ns, 0.50) as f64 / 1e3,
            stats::percentile(sorted_ns, 0.99) as f64 / 1e3,
            sorted_ns.len(),
            stats::beyond(sorted_ns, 0.99),
        )
    }
}

/// One named pass/fail fact about a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
    /// Whether failing it makes the run incorrect. The ledger's
    /// reconciliations do not: they judge the traced measurement, which a
    /// busy host can spoil, not the program's outputs.
    pub fatal: bool,
}

pub fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check {
        name,
        ok,
        detail,
        fatal: true,
    });
}

/// A check that is printed and, failing, warns without failing the run.
pub fn advise(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check {
        name,
        ok,
        detail,
        fatal: false,
    });
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// A finished run: what the last line of stdout says.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Untraced runs: the unbounded end-to-end metrics, printed on a line
    /// of their own before the result so that `all` and `compare` can show
    /// their spread too. Not part of the result line.
    pub unbounded: Vec<Metric>,
}

impl RunResult {
    /// A run is correct when every check passed and every number is one:
    /// a value that is not finite is reported as 0 and fails the run.
    pub fn new(checks_ok: bool, attempted: u64, failed: u64, mut metrics: Vec<Metric>) -> Self {
        let mut finite = true;
        for m in &mut metrics {
            if !m.1.is_finite() {
                finite = false;
                m.1 = 0.0;
            }
        }
        RunResult {
            correct: checks_ok && finite,
            attempted,
            failed,
            metrics,
            unbounded: Vec::new(),
        }
    }
}

/// The round a run reports: the one with the highest throughput.
///
/// Interference on a shared host only ever slows a round, so the fastest
/// round is the one least disturbed; every value but `setup_s` and
/// `peak_rss_mb` is read off that one round, so that the reported numbers
/// happened together.
pub fn best_round(rounds: &[Round]) -> &Round {
    rounds
        .iter()
        .max_by(|a, b| a.throughput_per_s.total_cmp(&b.throughput_per_s))
        .expect("a run has timed rounds")
}

fn named(names: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(names.len(), values.len());
    names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (*name, *v, *unit))
        .collect()
}

/// The bounded metrics of a run: `setup_s` is the median of the set-ups
/// timed in fresh processes, `yield_share` the best round's, `peak_rss_mb`
/// the process's `VmHWM` when its first timed round ended.
pub fn end_to_end_metrics(rounds: &[Round], setups_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    named(
        &END_TO_END,
        &[
            stats::median(setups_s),
            best_round(rounds).yield_share,
            peak_rss_mb,
        ],
    )
}

/// The unbounded end-to-end metrics of a run, all from the best round.
pub fn demoted_metrics(rounds: &[Round]) -> Vec<Metric> {
    let best = best_round(rounds);
    named(
        &DEMOTED,
        &[
            best.throughput_per_s,
            best.latency_p50_us,
            best.latency_p99_us,
            best.recover_s,
            best.journal_bytes_per_op,
        ],
    )
}

/// Prints every round, then median and quartiles per metric.
pub fn print_rounds(rounds: &[Round]) {
    println!(
        "  {:>5} {:>9} {:>8} {:>12} {:>11} {:>11} {:>9} {:>9} {:>10} {:>9} {:>7}",
        "round",
        "setup_s",
        "wall_s",
        "thr/s",
        "p50_us",
        "p99_us",
        "yield",
        "recover_s",
        "B/op",
        "samples",
        ">p99"
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "  {:>5} {:>9.4} {:>8.3} {:>12.1} {:>11.1} {:>11.1} {:>9.5} {:>9.4} {:>10.1} {:>9} {:>7}",
            i + 1,
            r.setup_s,
            r.wall_s,
            r.throughput_per_s,
            r.latency_p50_us,
            r.latency_p99_us,
            r.yield_share,
            r.recover_s,
            r.journal_bytes_per_op,
            r.samples,
            r.beyond_p99
        );
    }
    if rounds.len() < 2 {
        return;
    }
    let column = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let columns: [(&str, Vec<f64>); 4] = [
        ("throughput_per_s", column(|r| r.throughput_per_s)),
        ("latency_p50_us", column(|r| r.latency_p50_us)),
        ("latency_p99_us", column(|r| r.latency_p99_us)),
        ("recover_s", column(|r| r.recover_s)),
    ];
    for (name, v) in &columns {
        if v.iter().all(|x| *x == 0.0) {
            continue;
        }
        let (q1, q3) = stats::quartiles(v);
        println!(
            "  rounds {name:<18} median {:<12.5} q1 {:<12.5} q3 {:<12.5} spread {:.2}%",
            stats::median(v),
            q1,
            q3,
            100.0 * stats::spread(v)
        );
    }
}

/// Prints the checks and returns whether every fatal one passed.
pub fn print_checks(checks: &[Check]) -> bool {
    let mut all = true;
    for c in checks {
        if c.ok {
            println!("  ok    {}", c.name);
        } else if c.fatal {
            all = false;
            println!("  FAIL  {}: {}", c.name, c.detail);
        } else {
            println!("  warn  {}: {}", c.name, c.detail);
        }
    }
    all
}

/// Prints the named metrics of a run, one per line.
pub fn print_metrics(title: &str, metrics: &[Metric], skip_zero: bool) {
    println!("{title}");
    for (name, value, unit) in metrics {
        if skip_zero && *value == 0.0 {
            continue;
        }
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

/// The per-layer list with `values` filled in and every other name 0.
pub fn per_layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, values.get(name).copied().unwrap_or(0.0), *unit))
        .collect()
}

/// Metrics as the driver's line spells them: name → `{value, unit}`.
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The run as a JSON value: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_value(r: &RunResult) -> Value {
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.correct)),
        (
            "attempted".to_string(),
            Value::Int(i128::from(r.attempted.max(1))),
        ),
        ("failed".to_string(), Value::Int(i128::from(r.failed))),
        ("metrics".to_string(), metrics_value(&r.metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{k} is {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_of(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_of(&v, "per_layer"), own(&PER_LAYER));
        let Some(Value::Array(w)) = v.get("workloads") else {
            panic!("no workloads");
        };
        let declared: Vec<String> = w
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(declared, WORKLOADS);
    }

    #[test]
    fn a_run_reports_its_best_round_whole_and_the_median_fresh_set_up() {
        let round = |thr: f64, setup: f64| Round {
            setup_s: setup,
            wall_s: 1.0,
            throughput_per_s: thr,
            latency_p50_us: 40.0 - thr / 10.0,
            latency_p99_us: 1000.0 - thr,
            yield_share: thr / 1000.0,
            recover_s: 5.0 - thr / 100.0,
            journal_bytes_per_op: thr,
            samples: 10,
            beyond_p99: 0,
            attempted: 10,
            failed: 0,
        };
        // The middle round is the fastest; the last has the lowest p99 and
        // the quickest recovery, which are not reported.
        let rounds = [round(100.0, 0.5), round(300.0, 0.1), round(200.0, 0.3)];
        let get = |m: &[Metric], n: &str| m.iter().find(|(name, ..)| *name == n).unwrap().1;
        // The rounds' own set-ups are shown, not counted.
        let gated = end_to_end_metrics(&rounds, &[0.4, 0.9, 0.6], 77.0);
        assert_eq!(get(&gated, "setup_s"), 0.6);
        assert_eq!(get(&gated, "yield_share"), 0.3);
        assert_eq!(get(&gated, "peak_rss_mb"), 77.0);
        let free = demoted_metrics(&rounds);
        assert_eq!(get(&free, "throughput_per_s"), 300.0);
        assert_eq!(get(&free, "latency_p50_us"), 10.0);
        assert_eq!(get(&free, "latency_p99_us"), 700.0);
        assert_eq!(get(&free, "recover_s"), 2.0);
        assert_eq!(get(&free, "journal_bytes_per_op"), 300.0);
        // The demoted metrics head the per-layer list, under the same names.
        assert_eq!(PER_LAYER[..DEMOTED.len()], DEMOTED);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let r = RunResult::new(true, 5, 0, vec![("setup_s", 0.25, "s")]);
        let line = serde_json::to_string(&result_value(&r)).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        // A number that is not one fails the run and is reported as 0.
        let bad = RunResult::new(true, 5, 0, vec![("yield_share", f64::NAN, "share")]);
        assert!(!bad.correct && bad.metrics[0].1 == 0.0);
    }
}
