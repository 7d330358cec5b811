//! `mbts-benchmark`: the repository's one benchmark.
//!
//! ```text
//! mbts-benchmark --workload W --seed N [--seconds S] [--trace 0|1]   one run, one process
//! mbts-benchmark all [--workloads A,B] [--runs K] [--seed N] [--seconds S] [--no-trace] [--out FILE]
//! mbts-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! A run prints its host, its rounds, its checks and its metrics, and ends
//! with one JSON line: `correct`, `attempted`, `failed`, `metrics`. An
//! untraced run also starts itself as `probe-setup …` to time the set-up in
//! fresh processes. See `README.md` beside this crate for what is measured
//! and why.

mod compare;
mod gen;
mod host;
mod ledger;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::io;
use std::process::ExitCode;

use report::{advise, check, Check, Round, RunResult};
use serve::ServeParams;
use sim::{MarketBids, SimWorkload, SiteBacklog, NOMINAL_SECONDS};

/// Timed simulator rounds per run, each on fresh state, after one untimed
/// round. The daemon workloads have their own counts (`ServeParams`).
const ROUNDS: usize = 6;
/// Untraced rounds of a traced run: they give it the unbounded end-to-end
/// numbers and the wall the traced round's overhead is measured against.
const PLAIN_ROUNDS_WHEN_TRACED: usize = 2;
/// Fresh processes an untraced run starts to time the set-up in; `setup_s`
/// is their median. Set-ups repeated inside one process come out in two
/// modes (`market-bids`: 17 ms or 30 ms) by whether the allocator hands the
/// build recycled pages or fresh ones, and which mode a run lands in hangs
/// on its heap's history; a fresh process always pays for fresh pages, as
/// the user who starts `mbts serve` or `mbts run` does.
const SETUP_PROBES: usize = 11;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage:\n  mbts-benchmark --workload <{}> --seed N [--seconds S] [--trace 0|1]\n  \
         mbts-benchmark all [--workloads A,B] [--runs K] [--seed N] [--seconds S] [--no-trace] [--out FILE]\n  \
         mbts-benchmark compare A.json B.json [--bounds BENCHMARK.json]",
        report::WORKLOADS.join("|")
    )
}

/// `--flag value` pairs and bare words, in order.
fn split_args(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut flags = BTreeMap::new();
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--no-trace" {
            flags.insert(a.clone(), String::new());
        } else if a.starts_with("--") {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            flags.insert(a.clone(), v.clone());
        } else {
            words.push(a.clone());
        }
    }
    Ok((flags, words))
}

fn parse<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
    }
}

fn banner(args: &RunArgs) {
    println!(
        "mbts-benchmark workload={} seed={} seconds={} (counts scaled by {:.3}) trace={}",
        args.workload,
        args.seed,
        args.seconds,
        args.seconds / NOMINAL_SECONDS,
        u8::from(args.trace)
    );
    println!("host: {}", host::Host::probe().line());
}

/// One set-up of `args.workload` in this process, seconds.
fn setup_once(args: &RunArgs) -> io::Result<f64> {
    let serve = |p: &ServeParams| serve::setup_only(p, args.seed, p.requests_for(args.seconds));
    match args.workload.as_str() {
        "serve-flood" => serve(&serve::FLOOD),
        "serve-durable" => serve(&serve::DURABLE),
        "site-backlog" => {
            Ok(sim::setup::<SiteBacklog>(args.seed, SiteBacklog::tasks(args.seconds)).2)
        }
        "market-bids" => Ok(sim::setup::<MarketBids>(args.seed, MarketBids::tasks(args.seconds)).2),
        other => Err(unknown_workload(other)),
    }
}

fn unknown_workload(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("unknown workload {name}\n{}", usage()),
    )
}

/// Times the set-up in `SETUP_PROBES` fresh processes, one after another.
fn setup_probes(args: &RunArgs) -> io::Result<Vec<f64>> {
    let exe = std::env::current_exe()?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["probe-setup", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdin(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .output()?;
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|_| out.status.success())
                .ok_or_else(|| io::Error::other("a set-up probe failed"))
        })
        .collect()
}

/// Prints the checks and the metrics of an untraced run. `peak_rss_mb` was
/// read when the first timed round ended.
fn conclude_rounds(
    args: &RunArgs,
    rows: &[Round],
    peak_rss_mb: f64,
    checks: &[Check],
) -> io::Result<RunResult> {
    let ok = report::print_checks(checks);
    let setups_s = setup_probes(args)?;
    let (q1, q3) = stats::quartiles(&setups_s);
    println!(
        "set-up in {} fresh processes: median {:.5} s, q1 {:.5}, q3 {:.5}",
        setups_s.len(),
        stats::median(&setups_s),
        q1,
        q3
    );
    let metrics = report::end_to_end_metrics(rows, &setups_s, peak_rss_mb);
    report::print_metrics(
        "end-to-end, bounded (setup_s: fresh processes; peak_rss_mb: VmHWM after the first timed round; yield: the best round):",
        &metrics,
        false,
    );
    let unbounded = report::demoted_metrics(rows);
    report::print_metrics(
        "end-to-end, unbounded (the best round; the driver reads these from the traced run):",
        &unbounded,
        true,
    );
    Ok(RunResult {
        unbounded,
        ..RunResult::new(
            ok,
            rows.iter().map(|r| r.attempted).sum(),
            rows.iter().map(|r| r.failed).sum(),
            metrics,
        )
    })
}

/// Prints the checks and the exercised layers of a traced run; `rows` are
/// its untraced rounds.
fn conclude_layers(
    rows: &[Round],
    mut layers: BTreeMap<&'static str, f64>,
    checks: &[Check],
    attempted: u64,
    failed: u64,
) -> RunResult {
    let ok = report::print_checks(checks);
    for (name, value, _) in report::demoted_metrics(rows) {
        layers.insert(name, value);
    }
    let metrics = report::per_layer_metrics(&layers);
    report::print_metrics(
        "unbounded end-to-end (best untraced round), then per-layer (traced, replayed):",
        &metrics,
        true,
    );
    RunResult::new(ok, attempted, failed, metrics)
}

fn journal_line(r: &serve::ServeRound) -> String {
    format!(
        "journal of one life at the crash cut: {:.1} MB, {} commands, {} periodic snapshots; recovery replayed {}",
        r.image_bytes as f64 / 1e6,
        r.commands,
        r.periodic_snapshots,
        r.replayed
    )
}

fn serve_round_row(r: &serve::ServeRound) -> Round {
    let (p50, p99, samples, beyond) = Round::latencies(&r.lat_ns);
    Round {
        setup_s: r.setup_s,
        wall_s: r.wall_s,
        throughput_per_s: r.throughput(),
        latency_p50_us: p50,
        latency_p99_us: p99,
        yield_share: r.yield_share,
        recover_s: r.recover_s,
        journal_bytes_per_op: r.journal_bytes_per_op,
        samples,
        beyond_p99: beyond,
        attempted: r.books.requests(),
        failed: r.failed(),
    }
}

fn run_serve(p: &ServeParams, args: &RunArgs) -> io::Result<RunResult> {
    let requests = p.requests_for(args.seconds);
    let scratch = host::scratch_dir()?;
    println!(
        "{}: {} requests per daemon life over {} connections x {} in flight, fsync_every_n={}, \
         time_scale={}, journal on {} ({})",
        p.name,
        requests,
        serve::CONNS,
        serve::WINDOW,
        p.fsync_every_n,
        serve::TIME_SCALE,
        scratch.display(),
        host::fs_type(&scratch)
    );
    let mut checks: Vec<Check> = Vec::new();
    // The untimed life: a short one, to fault in code and page cache.
    let warm = serve::round(p, args.seed, (requests / 6).max(2_000), 0, false)?;
    checks.extend(warm.checks.into_iter().filter(|c| !c.ok));

    // Untraced lives: every check of the last one is listed, of the others
    // only what failed.
    let plain = if args.trace {
        PLAIN_ROUNDS_WHEN_TRACED
    } else {
        p.rounds
    };
    let mut rows = Vec::with_capacity(plain);
    let mut best_wall_s = f64::INFINITY;
    let mut peak_rss_mb = 0.0;
    for i in 1..=plain {
        let r = serve::round(p, args.seed, requests, i, false)?;
        if i == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
        rows.push(serve_round_row(&r));
        best_wall_s = best_wall_s.min(r.wall_s);
        if i == plain && !args.trace {
            println!("{}", journal_line(&r));
            checks.extend(r.checks);
        } else {
            checks.extend(r.checks.into_iter().filter(|c| !c.ok));
        }
    }
    report::print_rounds(&rows);
    if !args.trace {
        return conclude_rounds(args, &rows, peak_rss_mb, &checks);
    }

    let traced = serve::round(p, args.seed, requests, plain + 1, true)?;
    println!("{}", journal_line(&traced));
    checks.extend(traced.checks.iter().cloned());
    let mut replay = replay::replay(p, &traced)?;
    checks.append(&mut replay.checks);
    let path = host::trace_path(p.name)?;
    replay.ledger.write_jsonl(&path)?;
    println!(
        "traced life: {:.3} s wall against {:.3} s untraced; {} spans -> {}",
        traced.wall_s,
        best_wall_s,
        replay.ledger.len(),
        path.display()
    );
    ledger::print_rows(&replay.rows, (traced.wall_s * 1e9) as u64);
    let mut layers = replay.layers.clone();
    layers.insert("ledger.gap_share", replay::gap_share(&replay, &traced));
    layers.insert(
        "ledger.trace_overhead_share",
        traced.wall_s / best_wall_s - 1.0,
    );
    Ok(conclude_layers(
        &rows,
        layers,
        &checks,
        traced.books.requests(),
        traced.failed(),
    ))
}

fn sim_round_row(r: &sim::SimRound) -> Round {
    let (p50, p99, samples, beyond) = Round::latencies(&r.lat_ns);
    Round {
        setup_s: r.setup_s,
        wall_s: r.wall_s,
        throughput_per_s: r.throughput(),
        latency_p50_us: p50,
        latency_p99_us: p99,
        yield_share: r.outcome.earned / r.outcome.accepted_value,
        recover_s: 0.0,
        journal_bytes_per_op: 0.0,
        samples,
        beyond_p99: beyond,
        attempted: r.tasks as u64,
        failed: 0,
    }
}

fn run_sim<W: SimWorkload>(args: &RunArgs) -> io::Result<RunResult> {
    let tasks = W::tasks(args.seconds);
    println!(
        "{}: {} tasks per round over {} site(s)",
        W::NAME,
        tasks,
        W::sites().len()
    );
    let mut checks: Vec<Check> = Vec::new();
    let (warm, depth_p50) = sim::warm_up::<W>(args.seed, tasks);
    if let Some(depth) = depth_p50 {
        println!("pending-pool depth before a dispatch, median over the untimed round: {depth}");
        if args.seconds >= NOMINAL_SECONDS {
            check(
                &mut checks,
                "site-backlog regime: median pool depth at least 8000",
                depth >= 8000.0,
                format!("{depth}"),
            );
        }
    }

    let mut peak_rss_mb = 0.0;
    let plain: Vec<sim::SimRound> = (0..if args.trace {
        PLAIN_ROUNDS_WHEN_TRACED
    } else {
        ROUNDS
    })
        .map(|i| {
            let r = sim::round::<W>(args.seed, tasks);
            if i == 0 {
                peak_rss_mb = host::peak_rss_mb();
            }
            r
        })
        .collect();
    check(
        &mut checks,
        "outcomes hash-identical across rounds and audit-clean",
        plain.iter().all(|r| r.outcome == warm) && warm.audit_clean,
        format!(
            "hashes {:x} {:?}",
            warm.hash,
            plain
                .iter()
                .map(|r| format!("{:x}", r.outcome.hash))
                .collect::<Vec<_>>()
        ),
    );
    let rows: Vec<Round> = plain.iter().map(sim_round_row).collect();
    report::print_rounds(&rows);
    if !args.trace {
        return conclude_rounds(args, &rows, peak_rss_mb, &checks);
    }

    let best_wall_s = plain.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    let traced = sim::traced_round::<W>(args.seed, tasks);
    check(
        &mut checks,
        "the traced round ends like the untraced one, and the mirror followed it event for event",
        traced.outcome == warm && traced.mirror_faithful,
        traced.mirror_detail.clone(),
    );
    let gap = sim::gap_share(&traced);
    advise(
        &mut checks,
        "Σ self times reconcile with the traced wall within 15 %",
        gap.abs() <= 0.15,
        format!("gap_share {gap:.4}"),
    );
    let path = host::trace_path(W::NAME)?;
    traced.ledger.write_jsonl(&path)?;
    println!(
        "traced round: {:.3} s wall against {:.3} s untraced; {} spans -> {}",
        traced.traced_wall_s,
        best_wall_s,
        traced.ledger.len(),
        path.display()
    );
    let ledger_rows = traced.ledger.rows();
    ledger::print_rows(&ledger_rows, (traced.traced_wall_s * 1e9) as u64);
    let mean = |name: &str| ledger_rows.get(name).map_or(0.0, ledger::LayerRow::mean_ns);
    let mut layers = traced.layers.clone();
    layers.insert("workload.generate_ns_per_task", traced.generate_ns_per_task);
    if W::MARKET {
        layers.insert("core.admission_quote_ns", mean("core.admission_quote"));
        layers.insert("site.evaluate_ns", mean("site.evaluate"));
        layers.insert("market.step_arrival_ns", mean(W::STEP_SPANS[0]));
        layers.insert("market.step_completion_ns", mean(W::STEP_SPANS[1]));
        layers.insert("market.step_other_ns", mean(W::STEP_SPANS[2]));
        layers.insert(
            "market.events_per_task",
            traced.events as f64 / traced.tasks as f64,
        );
    } else {
        layers.insert("site.step_arrival_ns", mean(W::STEP_SPANS[0]));
        layers.insert("site.step_completion_ns", mean(W::STEP_SPANS[1]));
    }
    layers.insert("ledger.gap_share", gap);
    layers.insert(
        "ledger.trace_overhead_share",
        traced.traced_wall_s / best_wall_s - 1.0,
    );
    Ok(conclude_layers(
        &rows,
        layers,
        &checks,
        traced.tasks as u64,
        0,
    ))
}

fn run_one(args: &RunArgs) -> io::Result<RunResult> {
    banner(args);
    match args.workload.as_str() {
        "serve-flood" => run_serve(&serve::FLOOD, args),
        "serve-durable" => run_serve(&serve::DURABLE, args),
        "site-backlog" => run_sim::<SiteBacklog>(args),
        "market-bids" => run_sim::<MarketBids>(args),
        other => Err(unknown_workload(other)),
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, words) = split_args(&args)?;
    match words.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = words.as_slice() else {
                return Err(usage());
            };
            let bounds = flags.get("--bounds").cloned();
            compare::compare_files(a, b, bounds.as_deref())
        }
        Some("all") => compare::run_all(&compare::AllArgs {
            workloads: match flags.get("--workloads") {
                Some(list) => list.split(',').map(str::to_string).collect(),
                None => report::WORKLOADS.iter().map(|w| w.to_string()).collect(),
            },
            runs: parse(&flags, "--runs", 1usize)?,
            seed: parse(&flags, "--seed", 1u64)?,
            seconds: parse(&flags, "--seconds", NOMINAL_SECONDS)?,
            traced: !flags.contains_key("--no-trace"),
            out: flags.get("--out").cloned(),
        }),
        Some(word) if word != "probe-setup" => Err(usage()),
        probe => {
            let run = RunArgs {
                workload: flags.get("--workload").cloned().ok_or_else(usage)?,
                seed: parse(&flags, "--seed", 1u64)?,
                seconds: parse(&flags, "--seconds", NOMINAL_SECONDS)?,
                trace: parse(&flags, "--trace", 0u8)? != 0,
            };
            if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                return Err(format!(
                    "--seconds must be in (0, 600], got {}",
                    run.seconds
                ));
            }
            if probe.is_some() {
                // What `setup_probes` starts: one set-up, its seconds on stdout.
                println!("{}", setup_once(&run).map_err(|e| e.to_string())?);
                return Ok(ExitCode::SUCCESS);
            }
            let result = run_one(&run).map_err(|e| format!("run failed: {e}"))?;
            let json = |v: &serde::Value| serde_json::to_string(v).map_err(|e| e.to_string());
            if !result.unbounded.is_empty() {
                let line = serde::Value::Object(vec![(
                    compare::UNBOUNDED_KEY.to_string(),
                    report::metrics_value(&result.unbounded),
                )]);
                println!("{}", json(&line)?);
            }
            // The last line of stdout is the result, whatever came before.
            println!("{}", json(&report::result_value(&result))?);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
