//! `all`: every workload, each run its own process, collected into one
//! file. `compare`: two such files held against the bounds in
//! `BENCHMARK.json` — the tool for the repeatability criterion and for any
//! later claim of a gain or a regression.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use crate::host;
use crate::report::{DEMOTED, WORKLOADS};
use crate::stats;

/// Key of the line an untraced run prints before its result: the unbounded
/// end-to-end metrics, in the result line's `metrics` format.
pub const UNBOUNDED_KEY: &str = "unbounded";

pub struct AllArgs {
    /// Which workloads, in [`WORKLOADS`] order.
    pub workloads: Vec<String>,
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<String>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs one child process of this binary and returns its result line and,
/// for an untraced run, its unbounded metrics.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<(Value, Option<Value>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exited with {}",
            out.status
        ));
    }
    let mut lines = text.lines().rev();
    let last = lines.next().ok_or("no output")?;
    let result = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    let unbounded = lines
        .next()
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .and_then(|v| v.get(UNBOUNDED_KEY).cloned());
    Ok((result, unbounded))
}

/// Runs every workload `runs` times untraced (seeds `seed`, `seed+1`, …),
/// then once traced, each run in a process of its own; prints every
/// metric by name with its unit and writes the set to `--out`.
pub fn run_all(a: &AllArgs) -> Result<ExitCode, String> {
    println!("host: {}", host::Host::probe().line());
    let mut runs: Vec<Value> = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS
        .iter()
        .filter(|w| a.workloads.iter().any(|x| x == *w))
    {
        let traces: &[bool] = if a.traced { &[false, true] } else { &[false] };
        for &trace in traces {
            let count = if trace { 1 } else { a.runs };
            for k in 0..count {
                let seed = a.seed + k as u64;
                println!("==> {workload} seed {seed} trace {}", u8::from(trace));
                let (result, unbounded) = child_run(workload, seed, a.seconds, trace, a.runs == 1)?;
                let correct = result.get("correct") == Some(&Value::Bool(true));
                all_correct &= correct;
                if a.runs > 1 {
                    println!(
                        "{}",
                        serde_json::to_string(&result).map_err(|e| e.to_string())?
                    );
                }
                let mut entry = vec![
                    ("workload", Value::Str(workload.to_string())),
                    ("seed", Value::Int(i128::from(seed))),
                    ("trace", Value::Int(i128::from(trace))),
                ];
                let Value::Object(fields) = result else {
                    return Err("result line is not an object".to_string());
                };
                let mut fields: BTreeMap<String, Value> = fields.into_iter().collect();
                for key in ["correct", "attempted", "failed", "metrics"] {
                    entry.push((
                        key,
                        fields.remove(key).ok_or(format!("result lacks {key}"))?,
                    ));
                }
                if let Some(u) = unbounded {
                    entry.push((UNBOUNDED_KEY, u));
                }
                runs.push(obj(entry));
            }
        }
    }
    if let Some(path) = &a.out {
        let set = obj(vec![
            ("host", Value::Str(host::Host::probe().line())),
            ("seconds", Value::Float(a.seconds)),
            ("runs", Value::Array(runs)),
        ]);
        std::fs::write(
            path,
            serde_json::to_string_pretty(&set).map_err(|e| e.to_string())? + "\n",
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one run reported incorrect outputs");
        ExitCode::FAILURE
    })
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn string(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Untraced runs of a set: workload → metric → one value per run, plus
/// the set's `attempted` and `failed` totals per workload.
struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: BTreeMap<String, f64>,
    failed: BTreeMap<String, f64>,
    incorrect: usize,
}

fn load_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(runs)) = v.get("runs") else {
        return Err(format!("{path}: no runs array"));
    };
    let mut set = Set {
        values: BTreeMap::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        incorrect: 0,
    };
    for run in runs {
        if number(run.get("trace")) != Some(0.0) {
            continue; // end-to-end numbers come only from untraced runs
        }
        let workload = string(run.get("workload"))
            .ok_or("run without workload")?
            .to_string();
        if run.get("correct") != Some(&Value::Bool(true)) {
            set.incorrect += 1;
        }
        *set.attempted.entry(workload.clone()).or_default() +=
            number(run.get("attempted")).unwrap_or(0.0);
        *set.failed.entry(workload.clone()).or_default() +=
            number(run.get("failed")).unwrap_or(0.0);
        let Some(metrics) = run.get("metrics").and_then(Value::as_object) else {
            return Err(format!("{path}: run without metrics"));
        };
        let unbounded = run.get(UNBOUNDED_KEY).and_then(Value::as_object);
        for (name, m) in metrics.iter().chain(unbounded.into_iter().flatten()) {
            let value = number(m.get("value")).ok_or(format!("{name} has no value"))?;
            set.values
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// One end-to-end metric as `BENCHMARK.json` declares it: bounded in
/// `end_to_end`, or one of [`DEMOTED`] in `per_layer`, which has no bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

pub fn load_bounds(path: Option<&str>) -> Result<Vec<Bound>, String> {
    let candidates: Vec<PathBuf> = match path {
        Some(p) => vec![PathBuf::from(p)],
        None => vec![
            PathBuf::from("BENCHMARK.json"),
            host::bench_dir().join("../BENCHMARK.json"),
        ],
    };
    let found = candidates
        .iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found; pass --bounds PATH")?;
    let text = std::fs::read_to_string(found).map_err(|e| e.to_string())?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", found.display()))?;
    let (Some(Value::Array(bounded)), Some(Value::Array(layers))) =
        (v.get("end_to_end"), v.get("per_layer"))
    else {
        return Err("BENCHMARK.json lacks end_to_end or per_layer".to_string());
    };
    let demoted = layers.iter().filter(|m| {
        DEMOTED
            .iter()
            .any(|(n, _)| Some(*n) == string(m.get("name")))
    });
    bounded
        .iter()
        .chain(demoted)
        .map(|m| {
            Ok(Bound {
                name: string(m.get("name"))
                    .ok_or("metric without name")?
                    .to_string(),
                unit: string(m.get("unit"))
                    .ok_or("metric without unit")?
                    .to_string(),
                lower_is_better: string(m.get("better")).ok_or("metric without better")? == "lower",
                bound: number(m.get("bound")),
            })
        })
        .collect()
}

/// What two sets of runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
    /// The metric has no bound: its numbers are shown, nothing is judged.
    NotGated,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
            Verdict::NotGated => "not gated",
        }
    }
}

/// B against A: unresolved when either set's interquartile spread exceeds
/// the bound; otherwise by how far B's median is from A's, as a share of
/// A's, in the direction that is worse for this metric.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let spread = stats::spread(a).max(stats::spread(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let v = match bound.bound {
        None => Verdict::NotGated,
        Some(b) if spread > b => Verdict::Unresolved,
        Some(b) if worse_by > b => Verdict::Worse,
        Some(b) if worse_by < -b => Verdict::Better,
        Some(_) => Verdict::WithinBound,
    };
    (v, worse_by, spread)
}

pub fn compare_files(a_path: &str, b_path: &str, bounds: Option<&str>) -> Result<ExitCode, String> {
    let bounds = load_bounds(bounds)?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let mut worse = 0;
    let mut unresolved = 0;
    println!("A = {a_path}, B = {b_path}; spread = (q3 − q1) / median, the wider of the two sets");
    for workload in WORKLOADS {
        let (Some(va), Some(vb)) = (a.values.get(workload), b.values.get(workload)) else {
            println!("{workload}: not in both sets");
            continue;
        };
        println!("{workload}");
        println!(
            "  {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
            "metric", "median A", "median B", "B worse", "spread", "bound"
        );
        for bound in &bounds {
            let (Some(xa), Some(xb)) = (va.get(&bound.name), vb.get(&bound.name)) else {
                println!("  {:<22} missing", bound.name);
                continue;
            };
            if xa.iter().chain(xb).all(|v| *v == 0.0) {
                continue; // a `serve-*` metric on a simulator
            }
            let (v, worse_by, spread) = verdict(xa, xb, bound);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "  {:<22} {:>14.5} {:>14.5} {:>+8.2}% {:>7.2}% {:>7}  {} [{}]",
                bound.name,
                stats::median(xa),
                stats::median(xb),
                100.0 * worse_by,
                100.0 * spread,
                bound
                    .bound
                    .map_or("-".to_string(), |b| format!("{:.1}%", 100.0 * b)),
                v.label(),
                bound.unit
            );
        }
        let share = |s: &Set| {
            let att = s.attempted.get(workload).copied().unwrap_or(0.0);
            let fail = s.failed.get(workload).copied().unwrap_or(0.0);
            (fail, att, if att > 0.0 { 100.0 * fail / att } else { 0.0 })
        };
        let ((fa, aa, pa), (fb, ab, pb)) = (share(&a), share(&b));
        println!("  failed/attempted: A {fa}/{aa} ({pa:.4}%), B {fb}/{ab} ({pb:.4}%)");
    }
    println!(
        "{worse} worse, {unresolved} unresolved; incorrect runs: A {}, B {}",
        a.incorrect, b.incorrect
    );
    Ok(if worse > 0 || a.incorrect + b.incorrect > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            unit: "u".to_string(),
            lower_is_better: lower,
            bound: Some(b),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        let up8 = steady.map(|v| v * 1.08);
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        // Latency (lower is better), 5 % bound: +8 % is worse, −8 % better.
        assert_eq!(verdict(&steady, &up8, &bound(true, 0.05)).0, Verdict::Worse);
        assert_eq!(
            verdict(&up8, &steady, &bound(true, 0.05)).0,
            Verdict::Better
        );
        // Throughput (higher is better): the same +8 % is a gain.
        assert_eq!(
            verdict(&steady, &up8, &bound(false, 0.05)).0,
            Verdict::Better
        );
        assert_eq!(
            verdict(&steady, &up8, &bound(false, 0.10)).0,
            Verdict::WithinBound
        );
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(
            verdict(&steady, &noisy, &bound(true, 0.05)).0,
            Verdict::Unresolved
        );
        let (_, worse_by, spread) = verdict(&steady, &up8, &bound(true, 0.05));
        assert!((worse_by - 0.08).abs() < 1e-9);
        assert!(spread < 0.02);
        // A metric without a bound is shown, not judged.
        let free = Bound {
            bound: None,
            ..bound(true, 0.0)
        };
        assert_eq!(verdict(&steady, &noisy, &free).0, Verdict::NotGated);
    }
}
