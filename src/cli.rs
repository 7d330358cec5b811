//! Implementation of the `mbts` command-line tool.
//!
//! The binary (`src/bin/mbts.rs`) is a thin wrapper; everything here is a
//! plain function so parsing and command execution are unit-testable.
//! [`usage`] is the grammar: every subcommand with its flags, and the
//! policy, admission and shape specs they take. Each subcommand's flags
//! are checked against its row of one table before any is read.

use mbts_core::{AdmissionPolicy, Policy};
use mbts_durable::{DurableRun, JournalSource, Kind, RecoverError, Recoverable, RecoveryReport};
use mbts_experiments::{select, ExpParams, Family, FigureResult};
use mbts_market::{ClientSelection, EconomyConfig, EconomyRun, PricingStrategy};
use mbts_serve::{FloodConfig, ServeConfig, ServiceMachine, TopConfig};
use mbts_site::{class_breakdown, render_gantt, segments, SiteConfig, SiteRun};
use mbts_workload::{
    generate_trace, generate_workflows, BoundPolicy, MixConfig, Trace, WidthPolicy, WorkflowConfig,
    WorkflowSet, WorkflowShape,
};
use std::path::PathBuf;

/// What `mbts analyze --format` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeFormat {
    /// One readable block per input.
    Text,
    /// A JSON array with one entry per input.
    Json,
    /// Prometheus text exposition: the trace reports' series, then each
    /// profile's histograms.
    Prom,
}

/// Where `run` and `market` read their tasks: exactly one of `--trace
/// FILE` and `--workflow FILE`.
#[derive(Debug, Clone, PartialEq)]
pub enum RunInput {
    /// A stored trace.
    Trace(PathBuf),
    /// A stored workflow set: successors release as predecessors
    /// complete, and admission sees DAG structure.
    Workflow(PathBuf),
}

impl RunInput {
    /// Loads the input as a trace, plus the workflow set it came from.
    fn load(&self) -> Result<(Trace, Option<WorkflowSet>), ExecError> {
        match self {
            RunInput::Trace(path) => Ok((load_trace(path)?, None)),
            RunInput::Workflow(path) => {
                let set = WorkflowSet::load(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                Ok((set.trace(), Some(set)))
            }
        }
    }
}

/// A parsed `mbts` invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Generate a trace and write it to disk (synthetic, or imported
    /// from an SWF log with synthetic valuation).
    Gen {
        /// Output path.
        out: PathBuf,
        /// The mix to generate (or to draw values/decay from when
        /// importing).
        mix: MixConfig,
        /// Generator seed.
        seed: u64,
        /// SWF log to import instead of generating synthetically.
        swf: Option<PathBuf>,
        /// Generate a seeded DAG workflow set instead of a flat trace.
        workflow: Option<WorkflowConfig>,
    },
    /// Run one site over a stored trace or workflow set.
    Run {
        /// The trace or workflow set to replay.
        input: RunInput,
        /// Site configuration.
        site: SiteConfig,
        /// Render an ASCII Gantt chart of the schedule (drawn from the
        /// trace stream).
        gantt: bool,
        /// Print the per-value-class breakdown.
        classes: bool,
        /// Journal snapshots + events to this path (crash-recoverable).
        journal: Option<PathBuf>,
        /// Write the trace-event stream (JSON Lines) to this path.
        trace_out: Option<PathBuf>,
        /// Emit decision-provenance records into the trace stream.
        provenance: bool,
        /// Enable the hot-path self-profiler and write its report
        /// (JSON) to this path.
        profile: Option<PathBuf>,
    },
    /// Run a multi-site economy over a stored trace or workflow set
    /// (only a workflow's roots arrive at the market).
    Market {
        /// The trace or workflow set to replay.
        input: RunInput,
        /// Economy configuration.
        economy: EconomyConfig,
        /// Journal snapshots + events to this path (crash-recoverable).
        journal: Option<PathBuf>,
        /// Write the market-layer trace-event stream to this path.
        trace_out: Option<PathBuf>,
        /// Emit decision-provenance records into the trace stream.
        provenance: bool,
        /// Enable the hot-path self-profiler and write its report
        /// (JSON) to this path.
        profile: Option<PathBuf>,
    },
    /// Post-process trace / journal / profiler files into reports.
    Analyze {
        /// Input files: trace JSONL, durable journals, or profiler
        /// reports (auto-detected per file).
        inputs: Vec<PathBuf>,
        /// How the reports are written.
        format: AnalyzeFormat,
        /// Utilization-timeline bucket count.
        buckets: usize,
        /// Write the report here instead of stdout.
        out: Option<PathBuf>,
    },
    /// Recover an interrupted journaled run and finish it.
    Resume {
        /// Journal written by `run --journal`, `market --journal`, or
        /// `serve --journal`.
        journal: PathBuf,
    },
    /// Run the live task-service daemon: HTTP + JSON over the journaled
    /// deterministic sim core.
    Serve {
        /// The daemon; its failpoint registry is armed from `chaos` when
        /// the command runs.
        config: ServeConfig,
        /// Enable the self-profiler; write its report here at drain.
        profile: Option<PathBuf>,
        /// Failpoint schedule (JSON array of specs) arming the socket
        /// layer (`serve.accept`, `serve.conn.read`, `serve.conn.write`).
        chaos: Option<PathBuf>,
        /// Seed for the armed failpoint streams.
        chaos_seed: u64,
    },
    /// Load-test (and chaos-test) a live `mbts serve` daemon.
    Flood {
        /// The load to offer.
        config: FloodConfig,
        /// Write the flood report (a `FloodReport` as JSON) here.
        out: Option<PathBuf>,
    },
    /// Live text dashboard over a daemon's `GET /metrics` endpoint.
    Top(TopConfig),
    /// Paired A/B comparison of two policies on fresh seeded workloads.
    Compare {
        /// Site A.
        a: SiteConfig,
        /// Site B.
        b: SiteConfig,
        /// Workload mix.
        mix: MixConfig,
        /// Replications.
        seeds: u64,
    },
    /// Run deterministic fault-injection scenarios from JSON schedules.
    Chaos {
        /// Scenario files, or directories scanned for `*.json`.
        inputs: Vec<PathBuf>,
        /// Override every scenario's seed (determinism check still runs).
        seed: Option<u64>,
        /// Emit the corpus report as JSON instead of text.
        json: bool,
        /// Write the report here instead of stdout.
        out: Option<PathBuf>,
        /// Write the ChaosInjected/ChaosRecovered event stream (JSON
        /// Lines) to this path.
        trace_out: Option<PathBuf>,
    },
    /// Regenerate experiment families (the paper's Figures 3-7, the fault
    /// sweep, the workflow grid, the ablations) or the metrics report.
    Experiment {
        /// The target as given.
        target: String,
        /// The families to run, in table order; empty for `metrics`.
        families: Vec<(&'static str, Family)>,
        /// The scale every family runs at.
        params: ExpParams,
        /// Also write each figure as `<id>.{csv,json,md}` under this
        /// directory.
        out: Option<PathBuf>,
        /// Render ASCII plots in addition to tables.
        plot: bool,
        /// (`metrics`) Write the full event streams as JSON Lines here.
        trace_out: Option<PathBuf>,
    },
    /// Validate a stored trace.
    Validate {
        /// Input trace path.
        trace: PathBuf,
    },
    /// List available policies.
    Policies,
}

/// Parses a policy spec (`first-reward:0.3:0.01` etc.).
pub fn parse_policy(spec: &str) -> Result<Policy, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["fcfs"] => Ok(Policy::Fcfs),
        ["srpt"] => Ok(Policy::Srpt),
        ["swpt"] => Ok(Policy::Swpt),
        ["first-price"] => Ok(Policy::FirstPrice),
        ["edf"] => Ok(Policy::EarliestDeadline),
        ["pv", rate] => Ok(Policy::pv(discount_rate(spec, rate)?)),
        ["first-reward", alpha, rate] => {
            let alpha: f64 = alpha.parse().map_err(|_| format!("bad alpha in {spec}"))?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err(format!("alpha must be in [0,1], got {alpha}"));
            }
            Ok(Policy::first_reward(alpha, discount_rate(spec, rate)?))
        }
        _ => Err(format!(
            "unknown policy '{spec}' (try: fcfs, srpt, swpt, first-price, edf, \
             pv:<rate>, first-reward:<alpha>:<rate>)"
        )),
    }
}

/// A policy spec's discount rate: a finite number ≥ 0, as `Policy::pv`
/// and `Policy::first_reward` assert.
fn discount_rate(spec: &str, rate: &str) -> Result<f64, String> {
    match rate.parse::<f64>() {
        Ok(rate) if rate >= 0.0 && rate.is_finite() => Ok(rate),
        Ok(rate) => Err(format!(
            "rate must be a finite number ≥ 0, got {rate} in {spec}"
        )),
        Err(_) => Err(format!("bad rate in {spec}")),
    }
}

/// Parses an admission spec (`all`, `positive`, `slack:180`).
pub fn parse_admission(spec: &str) -> Result<AdmissionPolicy, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["all"] => Ok(AdmissionPolicy::AcceptAll),
        ["positive"] => Ok(AdmissionPolicy::PositiveExpectedYield),
        ["slack", t] => {
            let threshold: f64 = t.parse().map_err(|_| format!("bad threshold in {spec}"))?;
            Ok(AdmissionPolicy::SlackThreshold { threshold })
        }
        _ => Err(format!(
            "unknown admission policy '{spec}' (try: all, positive, slack:<threshold>)"
        )),
    }
}

/// Parses a bound spec (`zero`, `unbounded`, `prop:0.5`).
pub fn parse_bound(spec: &str) -> Result<BoundPolicy, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["zero"] => Ok(BoundPolicy::ZeroFloor),
        ["unbounded"] => Ok(BoundPolicy::Unbounded),
        ["prop", f] => {
            let fraction: f64 = f.parse().map_err(|_| format!("bad fraction in {spec}"))?;
            Ok(BoundPolicy::ProportionalPenalty { fraction })
        }
        _ => Err(format!(
            "unknown bound '{spec}' (try: zero, unbounded, prop:<fraction>)"
        )),
    }
}

/// Parses a width spec (`one`, `uniform:1:4`, `pow2:3`).
pub fn parse_widths(spec: &str) -> Result<WidthPolicy, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["one"] => Ok(WidthPolicy::One),
        ["uniform", lo, hi] => {
            let lo: usize = lo.parse().map_err(|_| format!("bad lo in {spec}"))?;
            let hi: usize = hi.parse().map_err(|_| format!("bad hi in {spec}"))?;
            if lo < 1 || hi < lo {
                return Err(format!("need 1 <= lo <= hi in {spec}"));
            }
            Ok(WidthPolicy::Uniform { lo, hi })
        }
        ["pow2", e] => {
            let max_exp: u32 = e.parse().map_err(|_| format!("bad exponent in {spec}"))?;
            Ok(WidthPolicy::PowersOfTwo { max_exp })
        }
        _ => Err(format!(
            "unknown width policy '{spec}' (try: one, uniform:<lo>:<hi>, pow2:<max_exp>)"
        )),
    }
}

/// Parses a client-selection spec.
pub fn parse_selection(spec: &str) -> Result<ClientSelection, String> {
    match spec {
        "earliest" => Ok(ClientSelection::EarliestCompletion),
        "slack" => Ok(ClientSelection::MaxSlack),
        "random" => Ok(ClientSelection::Random),
        "first" => Ok(ClientSelection::FirstResponder),
        _ => Err(format!(
            "unknown selection '{spec}' (try: earliest, slack, random, first)"
        )),
    }
}

/// Parses a DAG-shape spec: `fork-join:<width>`, `pipeline:<depth>`,
/// `layered:<layers>:<width>:<edge_prob>`.
pub fn parse_shape(spec: &str) -> Result<WorkflowShape, String> {
    let bad = || format!("unknown shape '{spec}' (try: fork-join:W, pipeline:D, layered:L:W:P)");
    let mut parts = spec.split(':');
    let kind = parts.next().ok_or_else(bad)?;
    let nums: Vec<&str> = parts.collect();
    let int = |s: &str| s.parse::<usize>().map_err(|_| bad());
    match (kind, nums.as_slice()) {
        ("fork-join", [w]) => {
            let width = int(w)?;
            if width == 0 {
                return Err("fork-join width must be at least 1".into());
            }
            Ok(WorkflowShape::ForkJoin { width })
        }
        ("pipeline", [d]) => {
            let depth = int(d)?;
            if depth == 0 {
                return Err("pipeline depth must be at least 1".into());
            }
            Ok(WorkflowShape::Pipeline { depth })
        }
        ("layered", [l, w, p]) => {
            let layers = int(l)?;
            let width = int(w)?;
            let edge_prob: f64 = p.parse().map_err(|_| bad())?;
            if layers == 0 || width == 0 {
                return Err("layered shape needs layers ≥ 1 and width ≥ 1".into());
            }
            if !(0.0..=1.0).contains(&edge_prob) {
                return Err("layered edge probability must lie in [0, 1]".into());
            }
            Ok(WorkflowShape::RandomLayered {
                layers,
                width,
                edge_prob,
            })
        }
        _ => Err(bad()),
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "usage: mbts <gen|run|market|serve|flood|top|chaos|analyze|resume|compare|experiment|validate|policies> [options]\n\
     \n\
     mbts gen    --out FILE [--swf LOG] [--tasks N] [--processors P] [--load L] [--seed S]\n\
     \x20           [--value-skew R] [--decay-skew R] [--mean-decay D]\n\
     \x20           [--bound zero|unbounded|prop:F] [--widths one|uniform:LO:HI|pow2:E]\n\
     \x20           [--workflow SHAPE [--workflows N]]  (writes a DAG workflow set)\n\
     mbts run    <--trace FILE | --workflow FILE> [--policy SPEC] [--admission SPEC]\n\
     \x20           [--processors P] [--preemption] [--drop-expired] [--gantt] [--classes]\n\
     \x20           [--journal FILE] [--trace-out FILE [--provenance]] [--profile FILE]\n\
     mbts market <--trace FILE | --workflow FILE> [--sites N] [--procs-per-site P] [--policy SPEC]\n\
     \x20           [--admission SPEC] [--selection KIND] [--second-price] [--seed S]\n\
     \x20           [--journal FILE] [--trace-out FILE [--provenance]] [--profile FILE]\n\
     mbts serve  [--addr HOST:PORT] [--journal FILE] [--processors P] [--policy SPEC]\n\
     \x20           [--admission SPEC] [--queue-cap N] [--shed-threshold N]\n\
     \x20           [--time-scale X] [--snapshot-every N] [--fsync-every N]\n\
     \x20           [--provenance] [--status-cap N] [--throttle-us U] [--profile FILE]\n\
     \x20           [--chaos SCHEDULE.json [--chaos-seed S]]  (arm socket failpoints)\n\
     mbts flood  --addr HOST:PORT [--requests N] [--connections N] [--pipeline N]\n\
     \x20           [--seed S] [--retries N] [--cancel-every N] [--malformed-every N]\n\
     \x20           [--out FILE]\n\
     mbts top    [--addr HOST:PORT] [--interval S] [--count N | --once]\n\
     \x20           (poll GET /metrics; rates, latency quantiles, queue sparkline)\n\
     mbts chaos  FILE|DIR... [--seed S] [--format text|json] [--out FILE]\n\
     \x20           [--trace-out FILE]  (runs each scenario twice; any\n\
     \x20            divergence between the runs fails the corpus)\n\
     mbts analyze FILE... [--format text|json|prom] [--buckets N] [--out FILE]\n\
     mbts resume --journal FILE\n\
     mbts compare --a SPEC --b SPEC [--tasks N] [--load L] [--seeds N]\n\
     \x20           [--processors P] [--admission SPEC] [--mean-decay D]\n\
     mbts experiment <fig3|fig4|fig5|fig6|fig7|faults|workflows|metrics|all|ablate [NAME]>\n\
     \x20           [--quick|--smoke] [--tasks N] [--seeds N] [--processors N] [--out DIR]\n\
     \x20           [--plot] [--trace-out FILE]  (a count overrides the preset; --out\n\
     \x20            is for figures, --trace-out for metrics)\n\
     mbts validate --trace FILE\n\
     mbts policies\n\
     \n\
     policy specs: fcfs srpt swpt first-price pv:<rate> first-reward:<alpha>:<rate>\n\
     admission specs: all positive slack:<threshold>\n\
     shape specs: fork-join:<width> pipeline:<depth> layered:<layers>:<width>:<edge_prob>"
}

/// One subcommand's accepted flags. [`parse`] checks every argument
/// against its subcommand's entry once, before any flag is looked up.
struct FlagTable {
    sub: &'static str,
    /// Flags that take the next token as their value.
    values: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
    /// Whether bare tokens are positional inputs.
    positional: bool,
}

#[rustfmt::skip]
const FLAG_TABLES: &[FlagTable] = &[
    FlagTable { sub: "gen", positional: false, switches: &[], values: &[
        "--out", "--swf", "--tasks", "--processors", "--load", "--seed", "--value-skew",
        "--decay-skew", "--mean-decay", "--bound", "--widths", "--workflow", "--workflows"] },
    FlagTable { sub: "run", positional: false,
        switches: &["--preemption", "--drop-expired", "--gantt", "--classes", "--provenance"],
        values: &["--trace", "--workflow", "--policy", "--admission", "--processors",
                  "--journal", "--trace-out", "--profile"] },
    FlagTable { sub: "market", positional: false,
        switches: &["--second-price", "--provenance"],
        values: &["--trace", "--workflow", "--sites", "--procs-per-site", "--policy", "--admission",
                  "--selection", "--seed", "--journal", "--trace-out", "--profile"] },
    FlagTable { sub: "serve", positional: false,
        switches: &["--provenance"],
        values: &["--addr", "--journal", "--processors", "--policy", "--admission", "--queue-cap",
                  "--shed-threshold", "--time-scale", "--snapshot-every", "--fsync-every",
                  "--status-cap", "--throttle-us", "--profile", "--chaos", "--chaos-seed"] },
    FlagTable { sub: "flood", positional: false, switches: &[], values: &[
        "--addr", "--requests", "--connections", "--pipeline", "--seed", "--retries",
        "--cancel-every", "--malformed-every", "--out"] },
    FlagTable { sub: "top", positional: false, switches: &["--once"],
        values: &["--addr", "--interval", "--count"] },
    FlagTable { sub: "chaos", positional: true, switches: &[],
        values: &["--seed", "--format", "--out", "--trace-out"] },
    FlagTable { sub: "analyze", positional: true, switches: &[],
        values: &["--format", "--buckets", "--out"] },
    FlagTable { sub: "resume", positional: false, switches: &[], values: &["--journal"] },
    FlagTable { sub: "compare", positional: false, switches: &[], values: &[
        "--a", "--b", "--tasks", "--load", "--seeds", "--processors", "--admission",
        "--mean-decay"] },
    FlagTable { sub: "experiment", positional: true, switches: &["--quick", "--smoke", "--plot"],
        values: &["--tasks", "--seeds", "--processors", "--out", "--trace-out"] },
    FlagTable { sub: "validate", positional: false, switches: &[], values: &["--trace"] },
    FlagTable { sub: "policies", positional: false, switches: &[], values: &[] },
];

/// A subcommand's arguments after the table check: every flag is known
/// to the subcommand and given once, and every value-taking flag is
/// paired with a token that is not itself a flag.
struct Flags<'a> {
    table: &'static FlagTable,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn check(table: &'static FlagTable, rest: &[&'a str]) -> Result<Self, String> {
        let sub = table.sub;
        let mut flags = Flags {
            table,
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = rest.iter().copied();
        while let Some(tok) = it.next() {
            if !tok.starts_with("--") {
                if !table.positional {
                    return Err(format!("unexpected argument '{tok}' for 'mbts {sub}'"));
                }
                flags.positional.push(tok);
            } else if flags.switches.contains(&tok) || flags.values.iter().any(|(f, _)| *f == tok) {
                return Err(format!(
                    "flag '{tok}' given more than once for 'mbts {sub}'"
                ));
            } else if table.switches.contains(&tok) {
                flags.switches.push(tok);
            } else if table.values.contains(&tok) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => flags.values.push((tok, v)),
                    Some(v) => {
                        return Err(format!(
                            "flag '{tok}' for 'mbts {sub}' needs a value, found flag '{v}'"
                        ))
                    }
                    None => return Err(format!("flag '{tok}' for 'mbts {sub}' needs a value")),
                }
            } else {
                let hint = match (sub, tok) {
                    ("market", "--shards") => {
                        ": the market engine is serial-only since the sharded \
                         engine was removed (DESIGN.md §12)"
                    }
                    _ => "",
                };
                return Err(format!("unknown flag '{tok}' for 'mbts {sub}'{hint}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(self.table.values.contains(&flag), "{flag} not in table");
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        debug_assert!(self.table.switches.contains(&flag), "{flag} not in table");
        self.switches.contains(&flag)
    }

    /// `--trace FILE | --workflow FILE` of `run` and `market`.
    fn input(&self, sub: &str) -> Result<RunInput, String> {
        match (self.get("--trace"), self.get("--workflow")) {
            (Some(trace), None) => Ok(RunInput::Trace(PathBuf::from(trace))),
            (None, Some(workflow)) => Ok(RunInput::Workflow(PathBuf::from(workflow))),
            (None, None) => Err(format!("{sub} requires --trace FILE or --workflow FILE")),
            (Some(_), Some(_)) => Err("--trace and --workflow are mutually exclusive".into()),
        }
    }

    fn num(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} needs a number")),
            None => Ok(default),
        }
    }

    /// `--load`, checked where it is parsed: `MixConfig` and
    /// `WorkflowConfig` assert a positive load factor.
    fn load(&self) -> Result<f64, String> {
        let load = self.num("--load", 1.0)?;
        if load > 0.0 {
            Ok(load)
        } else {
            Err("--load must be positive".into())
        }
    }

    fn int(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} needs an integer")),
            None => Ok(default),
        }
    }

    /// An integer flag checked where it is parsed against the least value
    /// the builder it feeds asserts.
    fn at_least(&self, flag: &str, default: usize, min: usize) -> Result<usize, String> {
        let n = self.int(flag, default)?;
        if n >= min {
            Ok(n)
        } else {
            Err(format!("{flag} must be at least {min}"))
        }
    }
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| usage().to_string())?;
    let rest: Vec<&str> = it.collect();
    let table = FLAG_TABLES
        .iter()
        .find(|t| t.sub == sub)
        .ok_or_else(|| format!("unknown subcommand '{sub}'\n{}", usage()))?;
    let flags = Flags::check(table, &rest)?;
    let get = |flag: &str| flags.get(flag);
    let has = |flag: &str| flags.has(flag);
    let num = |flag: &str, default: f64| flags.num(flag, default);
    let int = |flag: &str, default: usize| flags.int(flag, default);
    let at_least = |flag: &str, default: usize, min: usize| flags.at_least(flag, default, min);
    let load = || flags.load();

    match sub {
        "gen" => {
            let out = PathBuf::from(get("--out").ok_or("gen requires --out FILE")?);
            let mut mix = MixConfig::millennium_default()
                .with_tasks(at_least("--tasks", 5000, 1)?)
                .with_processors(at_least("--processors", 16, 1)?)
                .with_load_factor(load()?)
                .with_value_skew(num("--value-skew", 3.0)?)
                .with_decay_skew(num("--decay-skew", 5.0)?)
                .with_mean_decay(num("--mean-decay", 0.05)?);
            if let Some(b) = get("--bound") {
                mix = mix.with_bound(parse_bound(b)?);
            }
            if let Some(w) = get("--widths") {
                mix = mix.with_width(parse_widths(w)?);
            }
            let seed = int("--seed", 42)? as u64;
            let swf = get("--swf").map(PathBuf::from);
            let workflow = match get("--workflow") {
                Some(spec) => {
                    if swf.is_some() {
                        return Err("--workflow and --swf are mutually exclusive".into());
                    }
                    let mut wf = WorkflowConfig::default_set()
                        .with_workflows(at_least("--workflows", 16, 1)?)
                        .with_shape(parse_shape(spec)?)
                        .with_processors(at_least("--processors", 16, 1)?)
                        .with_load_factor(load()?);
                    if let Some(b) = get("--bound") {
                        wf = wf.with_bound(parse_bound(b)?);
                    }
                    Some(wf)
                }
                None => None,
            };
            Ok(Command::Gen {
                out,
                mix,
                seed,
                swf,
                workflow,
            })
        }
        "run" => {
            let input = flags.input(sub)?;
            let mut site = SiteConfig::new(at_least("--processors", 16, 1)?)
                .with_preemption(has("--preemption"))
                .with_drop_expired(has("--drop-expired"));
            if let Some(p) = get("--policy") {
                site = site.with_policy(parse_policy(p)?);
            }
            if let Some(a) = get("--admission") {
                site = site.with_admission(parse_admission(a)?);
            }
            let trace_out = get("--trace-out").map(PathBuf::from);
            let provenance = has("--provenance");
            if provenance && trace_out.is_none() {
                return Err("--provenance requires --trace-out FILE".into());
            }
            Ok(Command::Run {
                input,
                site,
                gantt: has("--gantt"),
                classes: has("--classes"),
                journal: get("--journal").map(PathBuf::from),
                trace_out,
                provenance,
                profile: get("--profile").map(PathBuf::from),
            })
        }
        "market" => {
            let input = flags.input(sub)?;
            let mut site = SiteConfig::new(at_least("--procs-per-site", 8, 1)?);
            if let Some(p) = get("--policy") {
                site = site.with_policy(parse_policy(p)?);
            }
            if let Some(a) = get("--admission") {
                site = site.with_admission(parse_admission(a)?);
            }
            let mut economy = EconomyConfig::uniform(at_least("--sites", 3, 1)?, site);
            if let Some(s) = get("--selection") {
                economy.selection = parse_selection(s)?;
            }
            if has("--second-price") {
                economy.pricing = PricingStrategy::second_price();
            }
            economy.seed = int("--seed", 0)? as u64;
            let trace_out = get("--trace-out").map(PathBuf::from);
            let provenance = has("--provenance");
            if provenance && trace_out.is_none() {
                return Err("--provenance requires --trace-out FILE".into());
            }
            Ok(Command::Market {
                input,
                economy,
                journal: get("--journal").map(PathBuf::from),
                trace_out,
                provenance,
                profile: get("--profile").map(PathBuf::from),
            })
        }
        "analyze" => {
            let format = match get("--format") {
                None | Some("text") => AnalyzeFormat::Text,
                Some("json") => AnalyzeFormat::Json,
                Some("prom") => AnalyzeFormat::Prom,
                Some(other) => {
                    return Err(format!("unknown format '{other}' (try: text, json, prom)"))
                }
            };
            let buckets = at_least("--buckets", 20, 1)?;
            let inputs: Vec<PathBuf> = flags.positional.iter().map(PathBuf::from).collect();
            if inputs.is_empty() {
                return Err("analyze requires at least one input file".into());
            }
            Ok(Command::Analyze {
                inputs,
                format,
                buckets,
                out: get("--out").map(PathBuf::from),
            })
        }
        "resume" => {
            let journal = PathBuf::from(get("--journal").ok_or("resume requires --journal FILE")?);
            Ok(Command::Resume { journal })
        }
        "serve" => {
            let mut site = SiteConfig::new(at_least("--processors", 4, 1)?);
            if let Some(p) = get("--policy") {
                site = site.with_policy(parse_policy(p)?);
            }
            if let Some(a) = get("--admission") {
                site = site.with_admission(parse_admission(a)?);
            }
            let queue_capacity = at_least("--queue-cap", 1024, 1)?;
            let time_scale = num("--time-scale", 1.0)?;
            if time_scale <= 0.0 || !time_scale.is_finite() {
                return Err("--time-scale must be a positive number".into());
            }
            let config = ServeConfig {
                addr: get("--addr").unwrap_or("127.0.0.1:7741").to_string(),
                site,
                journal: get("--journal").map(PathBuf::from),
                queue_capacity,
                shed_threshold: int("--shed-threshold", 0)?,
                time_scale,
                snapshot_every: int("--snapshot-every", 8192)? as u64,
                fsync_every_n: int("--fsync-every", 0)? as u64,
                provenance: has("--provenance"),
                status_capacity: int("--status-cap", 65_536)?,
                throttle: std::time::Duration::from_micros(int("--throttle-us", 0)? as u64),
                ..ServeConfig::default()
            };
            Ok(Command::Serve {
                config,
                profile: get("--profile").map(PathBuf::from),
                chaos: get("--chaos").map(PathBuf::from),
                chaos_seed: int("--chaos-seed", 42)? as u64,
            })
        }
        "flood" => {
            let addr = get("--addr").ok_or("flood requires --addr HOST:PORT")?;
            let config = FloodConfig {
                addr: addr.to_string(),
                connections: at_least("--connections", 4, 1)?,
                pipeline: at_least("--pipeline", 32, 1)?,
                requests: int("--requests", 10_000)? as u64,
                seed: int("--seed", 42)? as u64,
                retries: int("--retries", 3)? as u32,
                cancel_every: int("--cancel-every", 0)? as u64,
                malformed_every: int("--malformed-every", 0)? as u64,
                ..FloodConfig::default()
            };
            Ok(Command::Flood {
                config,
                out: get("--out").map(PathBuf::from),
            })
        }
        "top" => {
            let interval = num("--interval", 1.0)?;
            if interval.is_nan() || interval <= 0.0 {
                return Err("--interval must be positive".into());
            }
            let count = if has("--once") {
                Some(1)
            } else {
                match get("--count") {
                    Some(v) => Some(
                        v.parse::<u64>()
                            .map_err(|_| "--count needs an integer".to_string())?,
                    ),
                    None => None,
                }
            };
            Ok(Command::Top(TopConfig {
                addr: get("--addr").unwrap_or("127.0.0.1:7741").to_string(),
                interval,
                count,
            }))
        }
        "chaos" => {
            let json = match get("--format") {
                None | Some("text") => false,
                Some("json") => true,
                Some(other) => return Err(format!("unknown format '{other}' (try: text, json)")),
            };
            let seed = match get("--seed") {
                Some(v) => Some(
                    v.parse::<u64>()
                        .map_err(|_| "--seed needs an integer".to_string())?,
                ),
                None => None,
            };
            let inputs: Vec<PathBuf> = flags.positional.iter().map(PathBuf::from).collect();
            if inputs.is_empty() {
                return Err("chaos requires at least one scenario file or directory".into());
            }
            Ok(Command::Chaos {
                inputs,
                seed,
                json,
                out: get("--out").map(PathBuf::from),
                trace_out: get("--trace-out").map(PathBuf::from),
            })
        }
        "compare" => {
            let pa = parse_policy(get("--a").ok_or("compare requires --a SPEC")?)?;
            let pb = parse_policy(get("--b").ok_or("compare requires --b SPEC")?)?;
            let procs = at_least("--processors", 16, 1)?;
            let mut a = SiteConfig::new(procs).with_policy(pa);
            let mut b = SiteConfig::new(procs).with_policy(pb);
            if let Some(adm) = get("--admission") {
                let adm = parse_admission(adm)?;
                a = a.with_admission(adm);
                b = b.with_admission(adm);
            }
            let mix = MixConfig::millennium_default()
                .with_tasks(at_least("--tasks", 2000, 1)?)
                .with_processors(procs)
                .with_load_factor(load()?)
                .with_mean_decay(num("--mean-decay", 0.05)?);
            Ok(Command::Compare {
                a,
                b,
                mix,
                // A paired comparison needs two seeds.
                seeds: at_least("--seeds", 5, 2)? as u64,
            })
        }
        "experiment" => {
            let (target, ablation) = match flags.positional[..] {
                [target] => (target, None),
                ["ablate", name] => ("ablate", Some(name)),
                [] => return Err(format!("experiment requires a target\n{}", usage())),
                [.., extra] => {
                    return Err(format!(
                        "unexpected argument '{extra}' for 'mbts experiment'"
                    ))
                }
            };
            let metrics = target == "metrics";
            let families = if metrics {
                Vec::new()
            } else {
                select(target, ablation).map_err(|e| match ablation {
                    Some(_) => e,
                    None => format!("{e}\n{}", usage()),
                })?
            };
            let out = get("--out").map(PathBuf::from);
            if metrics && out.is_some() {
                return Err("--out applies only to figure targets, not metrics".into());
            }
            let trace_out = get("--trace-out").map(PathBuf::from);
            if !metrics && trace_out.is_some() {
                return Err(format!("--trace-out applies only to metrics, not {target}"));
            }
            // A preset sets every scale at once; a count given anywhere on
            // the line overrides it.
            let mut params = match (has("--quick"), has("--smoke")) {
                (true, true) => return Err("--quick and --smoke are mutually exclusive".into()),
                (true, false) => ExpParams::quick(),
                (false, true) => ExpParams::smoke(),
                (false, false) => ExpParams::paper(),
            };
            let count = |flag: &str, preset: usize| {
                at_least(flag, preset, 1)
                    .map_err(|_| format!("{flag} needs a whole number of at least 1"))
            };
            params.tasks = count("--tasks", params.tasks)?;
            params.seeds = count("--seeds", params.seeds as usize)? as u64;
            params.processors = count("--processors", params.processors)?;
            Ok(Command::Experiment {
                target: target.to_string(),
                families,
                params,
                out,
                plot: has("--plot"),
                trace_out,
            })
        }
        "validate" => {
            let trace = PathBuf::from(get("--trace").ok_or("validate requires --trace FILE")?);
            Ok(Command::Validate { trace })
        }
        "policies" => Ok(Command::Policies),
        other => unreachable!("FLAG_TABLES lists '{other}' but parse has no arm for it"),
    }
}

/// Events between journal snapshots for `--journal` runs: frequent
/// enough to bound resume replay, sparse enough that journal size stays
/// dominated by the (small) event records.
const JOURNAL_SNAPSHOT_EVERY: u64 = 4096;

/// Runs `run` to completion journaled to a new file at `path`, and
/// reports the journal's size.
fn run_journaled<M: Recoverable>(
    run: M,
    path: &std::path::Path,
    out: &mut dyn std::io::Write,
) -> Result<M, String> {
    let journal = mbts_durable::Journal::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut durable = DurableRun::new(run, journal, JOURNAL_SNAPSHOT_EVERY)
        .map_err(|e| format!("cannot journal to {}: {e}", path.display()))?;
    durable
        .run_to_completion()
        .map_err(|e| format!("journal write failed: {e}"))?;
    writeln!(
        out,
        "journal: {} bytes -> {}",
        durable.offset(),
        path.display()
    )
    .map_err(|e| e.to_string())?;
    Ok(durable.into_parts().0)
}

fn market_summary(
    outcome: &mbts_market::EconomyOutcome,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    writeln!(
        out,
        "{} sites | offered {}  placed {}  unplaced {}  violations {}",
        outcome.per_site.len(),
        outcome.offered,
        outcome.placed,
        outcome.unplaced,
        outcome.violations()
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "total yield {:.1}  settled {:.1}  charged {:.1}",
        outcome.total_yield(),
        outcome.total_settled,
        outcome.total_paid
    )
    .map_err(|e| e.to_string())?;
    if let Some(r) = &outcome.workflows {
        writeln!(
            out,
            "workflows {}  settled {}  failed {}  stranded tasks {}  workflow yield {:.1}",
            r.workflows, r.settled, r.failed, outcome.stranded, r.total_earned
        )
        .map_err(|e| e.to_string())?;
    }
    for (i, s) in outcome.per_site.iter().enumerate() {
        writeln!(
            out,
            "  site {i}: won {:>5}  completed {:>5}  yield {:>10.1}  rate {:>8.3}",
            s.metrics.accepted,
            s.metrics.completed,
            s.metrics.total_yield,
            s.metrics.yield_rate()
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn resume_banner(
    kind: &str,
    events_handled: u64,
    report: &RecoveryReport,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    writeln!(
        out,
        "recovered {kind} run at event {events_handled} \
         (replayed {} journaled events, dropped {} torn bytes)",
        report.replayed, report.dropped_bytes
    )
    .map_err(|e| e.to_string())
}

/// A journal recovered as whichever run wrote it (each boxed: they differ
/// in size by hundreds of bytes).
enum RecoveredJournal {
    Site(Box<SiteRun>, RecoveryReport),
    Economy(Box<EconomyRun>, RecoveryReport),
    Service(Box<ServiceMachine>, RecoveryReport),
}

/// Recovers a journal as the run its header names: a site run, an economy
/// run or a service machine, each parsed once. A journal that does not
/// recover is a rejected input file; one that cannot be read, or changes
/// while it is read, is a failure.
fn recover_journal(
    source: &(impl JournalSource + ?Sized),
    path: &std::path::Path,
) -> Result<RecoveredJournal, ExecError> {
    let refused = |e: RecoverError, what: String| match e {
        RecoverError::Io { .. } => ExecError::Failed(format!("{}: {e}", path.display())),
        e => ExecError::BadInput(format!(
            "cannot recover journal {}{what}: {e}",
            path.display()
        )),
    };
    let recovered = source.recovered().map_err(|e| refused(e, String::new()))?;
    let kind = recovered.kind;
    match kind {
        Kind::Site => DurableRun::<SiteRun>::recover_from(source, &recovered)
            .map(|(run, report)| RecoveredJournal::Site(Box::new(run), report)),
        Kind::Economy => DurableRun::<EconomyRun>::recover_from(source, &recovered)
            .map(|(run, report)| RecoveredJournal::Economy(Box::new(run), report)),
        Kind::Service => DurableRun::<ServiceMachine>::recover_from(source, &recovered)
            .map(|(machine, report)| RecoveredJournal::Service(Box::new(machine), report)),
    }
    .map_err(|e| refused(e, format!(" as a {kind}")))
}

/// Builds the tracer for a `run`/`market` invocation: a buffering sink
/// when the event stream is wanted, optionally provenance-wrapped.
fn make_tracer(capture: bool, provenance: bool) -> mbts_trace::Tracer {
    let tracer = if capture {
        mbts_trace::Tracer::buffer()
    } else {
        mbts_trace::Tracer::Off
    };
    if provenance {
        tracer.with_provenance()
    } else {
        tracer
    }
}

/// Arms the self-profiler for one run; returns whether it was armed.
fn start_profiling(wanted: bool) -> bool {
    if wanted {
        mbts_sim::profiler::reset();
        mbts_sim::profiler::enable();
    }
    wanted
}

/// Writes the captured event stream as JSON Lines, if requested.
fn write_trace_out(
    path: Option<&std::path::Path>,
    events: &[mbts_trace::TraceEvent],
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, mbts_trace::to_jsonl(events))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    writeln!(out, "trace: {} events -> {}", events.len(), path.display()).map_err(|e| e.to_string())
}

/// Disarms the self-profiler and saves its report, if it was armed.
fn write_profile_out(
    armed: bool,
    path: Option<&std::path::Path>,
    serve: Option<mbts_trace::ServeSummary>,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    if !armed {
        return Ok(());
    }
    let mut report = mbts_trace::ProfileReport::capture();
    report.serve = serve;
    mbts_sim::profiler::disable();
    let Some(path) = path else { return Ok(()) };
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    writeln!(out, "profile -> {}", path.display()).map_err(|e| e.to_string())
}

/// One `mbts analyze` input after auto-detection, as its entry in the
/// `--format json` output: exactly one of `trace` / `profile` is
/// populated, matching `kind`.
#[derive(serde::Serialize)]
struct AnalyzeEntry {
    /// Input file the report was computed from.
    file: String,
    /// `"trace"` or `"profile"`.
    kind: &'static str,
    /// Trace analytics, for trace / journal inputs.
    trace: Option<mbts_trace::TraceReport>,
    /// Profiler histograms, for profiler-report inputs.
    profile: Option<mbts_trace::ProfileReport>,
}

impl AnalyzeEntry {
    fn trace(file: String, report: mbts_trace::TraceReport) -> Self {
        AnalyzeEntry {
            file,
            kind: "trace",
            trace: Some(report),
            profile: None,
        }
    }

    fn profile(file: String, report: mbts_trace::ProfileReport) -> Self {
        AnalyzeEntry {
            file,
            kind: "profile",
            trace: None,
            profile: Some(report),
        }
    }
}

/// Writes a flood report for `--out`, replacing whatever is at `path`.
fn write_flood_report(
    report: &mbts_serve::FloodReport,
    path: &std::path::Path,
) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints a figure's table (and, with `plot`, its plot) to `out`, and
/// writes it as `<id>.{csv,json,md}` under `dir`.
fn emit_figure(
    fig: &FigureResult,
    plot: bool,
    dir: Option<&std::path::Path>,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    writeln!(out, "{}", fig.render_table()).map_err(|e| e.to_string())?;
    if plot {
        writeln!(out, "{}", fig.render_plot(72, 20)).map_err(|e| e.to_string())?;
    }
    let Some(dir) = dir else { return Ok(()) };
    for (ext, text) in [
        ("csv", fig.to_csv()),
        ("json", fig.to_json()),
        ("md", fig.to_markdown()),
    ] {
        let path = dir.join(format!("{}.{ext}", fig.id));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!("wrote {}/{}.{{csv,json,md}}", dir.display(), fig.id);
    Ok(())
}

/// Detects what kind of file an `analyze` input is and analyzes it:
/// durable journals are recognized by their magic header (the run is
/// replayed to completion and its captured tracer events folded),
/// profiler reports by their JSON marker, and anything else is folded as
/// a trace-event JSONL stream, one line at a time. A profile is one
/// pretty-printed document whose first line is not an event, so a file
/// whose first non-blank line is an event is a trace.
fn analyze_input(
    path: &std::path::Path,
    opts: &mbts_trace::AnalyzeOptions,
) -> Result<AnalyzeEntry, ExecError> {
    use std::io::{BufRead, Read};
    let label = path.display().to_string();
    let cannot_read = |e: std::io::Error| format!("cannot read {label}: {e}");
    let mut input = std::io::BufReader::new(std::fs::File::open(path).map_err(cannot_read)?);
    if input
        .fill_buf()
        .map_err(cannot_read)?
        .starts_with(&mbts_durable::framing::MAGIC)
    {
        let image = mbts_durable::load(path).map_err(cannot_read)?;
        let events = match recover_journal(&image, path)? {
            RecoveredJournal::Site(run, _) => run.finish().1.into_events(),
            RecoveredJournal::Economy(run, _) => run.finish().1.into_events(),
            RecoveredJournal::Service(machine, _) => machine.into_trace_events(),
        };
        let report = mbts_trace::analyze::analyze(&label, &events.unwrap_or_default(), opts);
        return Ok(AnalyzeEntry::trace(label, report));
    }
    let mut head = String::new();
    while head.trim().is_empty() && input.read_line(&mut head).map_err(cannot_read)? > 0 {}
    if serde_json::from_str::<mbts_trace::TraceEvent>(&head).is_err() {
        input.read_to_string(&mut head).map_err(cannot_read)?;
        if let Ok(report) = serde_json::from_str::<mbts_trace::ProfileReport>(&head) {
            if report.kind == mbts_trace::PROFILE_MARKER {
                return Ok(AnalyzeEntry::profile(label, report));
            }
        }
    }
    let mut fold = mbts_trace::TraceFold::default();
    mbts_trace::read_jsonl(head.as_bytes().chain(input), &mut fold).map_err(|e| match e {
        mbts_trace::JsonlError::Io(e) => ExecError::Failed(cannot_read(e)),
        e => ExecError::BadInput(format!("cannot parse {label} as a trace: {e}")),
    })?;
    let report = fold.finish(&label, opts);
    Ok(AnalyzeEntry::trace(label, report))
}

/// Executes a parsed command, writing human-readable output to `out`.
/// Why a command failed, which decides the process's exit status.
#[derive(Debug)]
pub enum ExecError {
    /// The command's input is not usable (exit 2, as for a bad flag).
    BadInput(String),
    /// Anything else: a missing file, a failed write (exit 1).
    Failed(String),
}

impl ExecError {
    /// The status `mbts` exits with.
    pub fn exit_code(&self) -> i32 {
        match self {
            ExecError::BadInput(_) => 2,
            ExecError::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ExecError::BadInput(msg) | ExecError::Failed(msg)) = self;
        f.write_str(msg)
    }
}

impl From<String> for ExecError {
    fn from(msg: String) -> Self {
        ExecError::Failed(msg)
    }
}

/// Loads a trace file and validates it at the edge: the engines assume
/// what `validate_trace` checks (ids equal to positions, positive
/// runtimes and widths, sorted arrivals) and panic or misaccount
/// otherwise. Warnings do not block.
fn load_trace(path: &std::path::Path) -> Result<Trace, ExecError> {
    const SHOWN: usize = 5;
    let trace = Trace::load(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let errors = mbts_workload::validate_trace(&trace).errors;
    if errors.is_empty() {
        return Ok(trace);
    }
    let mut msg = format!(
        "{} is not a valid trace ({} error(s); `mbts validate` lists all):",
        path.display(),
        errors.len()
    );
    for e in errors.iter().take(SHOWN) {
        msg.push_str("\n  ");
        msg.push_str(e);
    }
    Err(ExecError::BadInput(msg))
}

pub fn execute(cmd: Command, out: &mut dyn std::io::Write) -> Result<(), ExecError> {
    // Arms fail with a message (exit 1); only a rejected input file is
    // `BadInput`, raised by `?` where the file is loaded.
    let done: Result<(), String> = match cmd {
        Command::Gen {
            out: path,
            mix,
            seed,
            swf,
            workflow,
        } => {
            if let Some(wf) = workflow {
                let set = generate_workflows(&wf, seed);
                set.save(&path)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                writeln!(
                    out,
                    "wrote {} workflows ({} tasks, {} roots, {} edges) to {}",
                    set.workflows.len(),
                    set.tasks.len(),
                    set.roots().len(),
                    set.edge_ids().len(),
                    path.display()
                )
                .map_err(|e| e.to_string())?;
                return Ok(());
            }
            let trace = match swf {
                Some(swf_path) => {
                    let opts = mbts_workload::SwfOptions::new(mix, seed);
                    mbts_workload::load_swf(&swf_path, &opts)?
                }
                None => generate_trace(&mix, seed),
            };
            let stats = trace.stats();
            trace
                .save(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            writeln!(
                out,
                "wrote {} tasks to {} (offered load {:.2}, total value {:.0})",
                stats.num_tasks,
                path.display(),
                stats.offered_load,
                stats.total_value
            )
            .map_err(|e| e.to_string())
        }
        Command::Run {
            input,
            site,
            gantt,
            classes,
            journal,
            trace_out,
            provenance,
            profile,
        } => {
            let (trace, wfset) = input.load()?;
            // Workflow replays stamp provenance with each task's
            // workflow and critical-path membership.
            let site = match &wfset {
                Some(set) => site.with_workflow_facets(set.facets()),
                None => site,
            };
            // The Gantt chart is drawn from the trace, so it captures one.
            let tracer = make_tracer(trace_out.is_some() || gantt, provenance);
            let profiling = start_profiling(profile.is_some());
            let run = match &wfset {
                Some(set) => SiteRun::with_workflows(site.clone(), set, tracer),
                None => SiteRun::new(site.clone(), &trace, tracer),
            };
            let run = match journal {
                Some(path) => run_journaled(run, &path, out)?,
                None => run,
            };
            let (outcome, tracer) = run.finish();
            let events = tracer.into_events().unwrap_or_default();
            write_trace_out(trace_out.as_deref(), &events, out)?;
            write_profile_out(profiling, profile.as_deref(), None, out)?;
            let m = &outcome.metrics;
            writeln!(
                out,
                "policy {} | admission {:?} | {} processors{}",
                site.policy.name(),
                site.admission,
                site.processors,
                if site.preemption { " | preemption" } else { "" },
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "submitted {}  accepted {}  completed {}  rejected {}  dropped {}",
                m.submitted, m.accepted, m.completed, m.rejected, m.dropped
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "yield {:.1}  rate {:.3}  penalties {:.1}  mean delay {:.1}  \
                 preemptions {}  backfills {}",
                m.total_yield,
                m.yield_rate(),
                m.total_penalty,
                m.delay.mean(),
                m.preemptions,
                m.backfills
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "delay p50 {:.1}  p95 {:.1}  p99 {:.1}",
                outcome.delay_percentile(0.5),
                outcome.delay_percentile(0.95),
                outcome.delay_percentile(0.99)
            )
            .map_err(|e| e.to_string())?;
            if let Some(r) = &outcome.workflows {
                writeln!(
                    out,
                    "workflows {}  settled {}  failed {}  stranded tasks {}  \
                     workflow yield {:.1}",
                    r.workflows, r.settled, r.failed, m.stranded, r.total_earned
                )
                .map_err(|e| e.to_string())?;
            }
            if classes {
                let (high, low) = class_breakdown(&trace, &outcome);
                for c in [high, low] {
                    writeln!(
                        out,
                        "  {:<12} n {:>5}  completed {:>5}  rejected {:>5}  \
                         capture {:>5.1}%  mean delay {:>8.1}",
                        c.label,
                        c.count,
                        c.completed,
                        c.rejected,
                        c.capture_ratio * 100.0,
                        c.mean_delay
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
            if gantt {
                writeln!(out, "{}", render_gantt(&segments(&events), 100))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Command::Market {
            input,
            mut economy,
            journal,
            trace_out,
            provenance,
            profile,
        } => {
            let (trace, wfset) = input.load()?;
            // The economy runs the release/settle overlay: only roots
            // arrive, successors release as predecessors complete.
            economy.workflows = wfset;
            let tracer = make_tracer(trace_out.is_some(), provenance);
            let profiling = start_profiling(profile.is_some());
            let run = EconomyRun::new(economy, &trace, tracer);
            let run = match journal {
                Some(path) => run_journaled(run, &path, out)?,
                None => run,
            };
            let (outcome, tracer) = run.finish();
            let events = tracer.into_events().unwrap_or_default();
            write_trace_out(trace_out.as_deref(), &events, out)?;
            write_profile_out(profiling, profile.as_deref(), None, out)?;
            market_summary(&outcome, out)
        }
        Command::Analyze {
            inputs,
            format,
            buckets,
            out: out_path,
        } => {
            let opts = mbts_trace::AnalyzeOptions {
                timeline_buckets: buckets,
            };
            let entries = inputs
                .iter()
                .map(|path| analyze_input(path, &opts))
                .collect::<Result<Vec<_>, _>>()?;
            let text = match format {
                AnalyzeFormat::Text => entries
                    .iter()
                    .map(|e| match (&e.trace, &e.profile) {
                        (Some(report), _) => mbts_trace::analyze::render_text(report) + "\n",
                        (None, profile) => profile.iter().map(|p| p.render_text() + "\n").collect(),
                    })
                    .collect(),
                AnalyzeFormat::Json => {
                    serde_json::to_string_pretty(&entries).map_err(|e| e.to_string())? + "\n"
                }
                AnalyzeFormat::Prom => {
                    // The traces' families, then each profile's histograms.
                    let traces = entries.iter().filter_map(|e| e.trace.as_ref());
                    let profiles = entries.iter().filter_map(|e| e.profile.as_ref());
                    let text = mbts_trace::analyze::render_prometheus(traces);
                    text + &profiles.map(|p| p.render_prometheus()).collect::<String>()
                }
            };
            match out_path {
                Some(path) => {
                    std::fs::write(&path, &text)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    writeln!(out, "analysis -> {}", path.display()).map_err(|e| e.to_string())
                }
                None => write!(out, "{text}").map_err(|e| e.to_string()),
            }
        }
        Command::Resume { journal } => {
            let image = mbts_durable::load(&journal)
                .map_err(|e| format!("cannot read {}: {e}", journal.display()))?;
            match recover_journal(&image, &journal)? {
                RecoveredJournal::Site(run, report) => {
                    resume_banner("site", run.events_handled(), &report, out)?;
                    let (outcome, _) = run.finish();
                    let m = &outcome.metrics;
                    writeln!(
                        out,
                        "submitted {}  accepted {}  completed {}  yield {:.1}",
                        m.submitted, m.accepted, m.completed, m.total_yield
                    )
                    .map_err(|e| e.to_string())
                }
                RecoveredJournal::Economy(run, report) => {
                    resume_banner("economy", run.events_handled(), &report, out)?;
                    let (outcome, _) = run.finish();
                    market_summary(&outcome, out)
                }
                RecoveredJournal::Service(machine, report) => {
                    writeln!(
                        out,
                        "recovered service run at command {} \
                         (replayed {} journaled commands, dropped {} torn bytes)",
                        machine.applied(),
                        report.replayed,
                        report.dropped_bytes
                    )
                    .map_err(|e| e.to_string())?;
                    let c = machine.counters();
                    writeln!(
                        out,
                        "accepted {}  rejected {}  shed {}  cancelled {}  \
                         finished {}  drains {}",
                        c.accepted, c.rejected, c.shed, c.cancelled, c.finished, c.drains
                    )
                    .map_err(|e| e.to_string())?;
                    writeln!(
                        out,
                        "now {}  yield {:.1}  violations {}",
                        machine.now(),
                        machine.metrics().total_yield,
                        machine.violations()
                    )
                    .map_err(|e| e.to_string())
                }
            }
        }
        Command::Serve {
            mut config,
            profile,
            chaos,
            chaos_seed,
        } => {
            let profiling = start_profiling(profile.is_some());
            mbts_serve::install_signal_handlers();
            if let Some(path) = &chaos {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let specs: Vec<mbts_chaos::FailpointSpec> = serde_json::from_str(&text)
                    .map_err(|e| format!("bad failpoint schedule {}: {e}", path.display()))?;
                config.chaos = Some(std::sync::Arc::new(mbts_chaos::ChaosRegistry::new(
                    chaos_seed, specs,
                )));
            }
            let registry = config.chaos.clone();
            // A journal this build does not read is a rejected input file,
            // as it is for `resume`.
            let server = mbts_serve::Server::start(config).map_err(|e| {
                let msg = format!("cannot start daemon: {e}");
                match e.kind() {
                    std::io::ErrorKind::InvalidData => ExecError::BadInput(msg),
                    _ => ExecError::Failed(msg),
                }
            })?;
            // This banner is a protocol: harnesses (and the chaos tests)
            // parse the bound address off this exact line before
            // flooding, so it must be flushed before the daemon blocks.
            writeln!(out, "mbts serve listening on {}", server.addr).map_err(|e| e.to_string())?;
            let recovery = server.recovery;
            if recovery.replayed > 0 || recovery.dropped_bytes > 0 {
                writeln!(
                    out,
                    "recovered service journal: replayed {} commands, dropped {} torn bytes",
                    recovery.replayed, recovery.dropped_bytes
                )
                .map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())?;
            let report = server.join().map_err(|e| format!("daemon failed: {e}"))?;
            let summary = Some(report.summary.clone());
            write_profile_out(profiling, profile.as_deref(), summary, out)?;
            let s = &report.summary;
            writeln!(
                out,
                "requests {}  accepted {}  rejected {}  shed {}  backpressured {}  \
                 cancelled {}  timeouts {}",
                s.requests,
                s.accepted,
                s.rejected,
                s.shed,
                s.backpressured,
                s.cancelled,
                s.timeouts
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "completed {}  applied {}  yield {:.1}  violations {}",
                s.completed, report.applied, report.total_yield, report.violations
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "drain {}  wall {:.2}s",
                if report.clean_drain {
                    "clean (drain marker + final snapshot journaled)"
                } else {
                    "unclean"
                },
                s.wall_ns as f64 * 1e-9
            )
            .map_err(|e| e.to_string())?;
            if let Some(reg) = &registry {
                let by_point = reg.fired_by_point();
                let fired: Vec<String> = by_point
                    .iter()
                    .map(|(point, fires)| format!("{point} x{fires}"))
                    .collect();
                writeln!(
                    out,
                    "chaos: {} fault(s) injected{}",
                    reg.fired_total(),
                    if fired.is_empty() {
                        String::new()
                    } else {
                        format!(" ({})", fired.join(", "))
                    }
                )
                .map_err(|e| e.to_string())?;
            }
            if report.violations > 0 {
                return Err(
                    format!("{} invariant violation(s) recorded", report.violations).into(),
                );
            }
            Ok(())
        }
        Command::Flood {
            config,
            out: out_path,
        } => {
            let report = mbts_serve::flood(&config).map_err(|e| format!("flood failed: {e}"))?;
            writeln!(
                out,
                "flood: {} completed in {:.2}s -> {:.0} req/s \
                 ({} connections x pipeline {}, {}-way parallelism)",
                report.completed,
                report.wall_s,
                report.rps,
                report.connections,
                report.pipeline,
                report.parallelism
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "accepted {}  rejected {}  shed {}  backpressured {}  unavailable {}  \
                 cancelled {}",
                report.accepted,
                report.rejected,
                report.shed,
                report.backpressured,
                report.unavailable,
                report.cancelled
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "retries {}  exhausted {}  errors {}  malformed {}  p50 {:.0}us  p95 {:.0}us  \
                 p99 {:.0}us  max {:.0}us",
                report.retries,
                report.exhausted,
                report.errors,
                report.malformed,
                report.p50_us,
                report.p95_us,
                report.p99_us,
                report.max_us
            )
            .map_err(|e| e.to_string())?;
            if let Some(path) = out_path {
                write_flood_report(&report, &path)?;
                writeln!(out, "flood report -> {}", path.display()).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Command::Top(config) => {
            let frames =
                mbts_serve::run_top(&config, &mut *out).map_err(|e| format!("top failed: {e}"))?;
            writeln!(out, "top: {frames} frame(s) rendered").map_err(|e| e.to_string())?;
            Ok(())
        }
        Command::Compare { a, b, mix, seeds } => {
            let params = mbts_experiments::ExpParams {
                tasks: mix.num_tasks,
                seeds,
                base_seed: 1000,
                processors: mix.processors,
            };
            let result = mbts_experiments::compare_sites(&mix, &a, &b, &params);
            write!(out, "{}", result.render()).map_err(|e| e.to_string())
        }
        Command::Chaos {
            inputs,
            seed,
            json,
            out: out_path,
            trace_out,
        } => {
            let mut scenarios = Vec::new();
            for input in &inputs {
                if input.is_dir() {
                    let loaded = mbts_chaos::Scenario::load_dir(input)
                        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
                    if loaded.is_empty() {
                        return Err(format!("no *.json scenarios in {}", input.display()).into());
                    }
                    scenarios.extend(loaded.into_iter().map(|(_, s)| s));
                } else {
                    scenarios.push(
                        mbts_chaos::Scenario::load(input)
                            .map_err(|e| format!("cannot read {}: {e}", input.display()))?,
                    );
                }
            }
            let (report, events) = crate::chaos::run_corpus(&scenarios, seed)?;
            if json {
                let rendered = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                match &out_path {
                    Some(path) => std::fs::write(path, rendered)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
                    None => writeln!(out, "{rendered}").map_err(|e| e.to_string())?,
                }
            } else {
                let mut rendered = String::new();
                for s in &report.scenarios {
                    rendered.push_str(&format!(
                        "{:<24} [{:>6}] seed {:<12} injected {:>4}  crashes {:>3}  \
                         replayed {:>5}  ok: {}\n",
                        s.name,
                        s.class,
                        s.seed,
                        s.injected,
                        s.crashes,
                        s.replayed,
                        s.checks.join(", ")
                    ));
                }
                rendered.push_str(&format!(
                    "chaos: {} scenario(s), {} fault(s) injected, {} crash-recovery \
                     cycle(s), deterministic across paired runs\n",
                    report.scenarios.len(),
                    report.total_injected,
                    report.total_crashes
                ));
                match &out_path {
                    Some(path) => std::fs::write(path, &rendered)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
                    None => write!(out, "{rendered}").map_err(|e| e.to_string())?,
                }
            }
            if let Some(path) = &trace_out {
                std::fs::write(path, mbts_trace::to_jsonl(&events))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                writeln!(
                    out,
                    "chaos trace: {} events -> {}",
                    events.len(),
                    path.display()
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Command::Experiment {
            target,
            families,
            params,
            out: out_dir,
            plot,
            trace_out,
        } => {
            // Each output path is made before anything runs, so one that
            // cannot be is refused as a bad flag is.
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).map_err(|e| {
                    ExecError::BadInput(format!("--out: cannot create {}: {e}", dir.display()))
                })?;
            }
            if let Some(path) = &trace_out {
                std::fs::File::create(path).map_err(|e| {
                    ExecError::BadInput(format!(
                        "--trace-out: cannot write {}: {e}",
                        path.display()
                    ))
                })?;
            }
            eprintln!(
                "running {target} at {} tasks × {} seeds on {} processors",
                params.tasks, params.seeds, params.processors
            );
            let started = std::time::Instant::now();
            if families.is_empty() {
                let report = mbts_experiments::metrics::run_metrics(&params);
                writeln!(out, "{}", report.render()).map_err(|e| e.to_string())?;
                if let Some(path) = &trace_out {
                    std::fs::write(path, report.trace_jsonl())
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    eprintln!("wrote {}", path.display());
                }
            }
            for (_, family) in &families {
                emit_figure(&family(&params), plot, out_dir.as_deref(), out)?;
            }
            eprintln!("done in {:.1?}", started.elapsed());
            Ok(())
        }
        Command::Validate { trace } => {
            let trace =
                Trace::load(&trace).map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
            let report = mbts_workload::validate_trace(&trace);
            write!(out, "{}", report.render()).map_err(|e| e.to_string())?;
            if report.is_valid() {
                Ok(())
            } else {
                Err(format!("{} error(s) found", report.errors.len()))
            }
        }
        Command::Policies => writeln!(
            out,
            "fcfs                       first-come-first-served (baseline)\n\
                 srpt                       shortest remaining processing time (baseline)\n\
                 swpt                       decay/RPT — classic TWCT heuristic\n\
                 first-price                Millennium greedy unit gain (yield/RPT)\n\
                 edf                        earliest deadline first over expiration times\n\
                 pv:<rate>                  present-value discounted unit gain (paper §5.1)\n\
                 first-reward:<a>:<rate>    (a·PV − (1−a)·cost)/RPT — the paper's §5.3 heuristic"
        )
        .map_err(|e| e.to_string()),
    };
    Ok(done?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_policies() {
        assert_eq!(parse_policy("fcfs").unwrap(), Policy::Fcfs);
        assert_eq!(parse_policy("srpt").unwrap(), Policy::Srpt);
        assert_eq!(parse_policy("swpt").unwrap(), Policy::Swpt);
        assert_eq!(parse_policy("first-price").unwrap(), Policy::FirstPrice);
        assert_eq!(parse_policy("pv:0.02").unwrap(), Policy::pv(0.02));
        assert_eq!(
            parse_policy("first-reward:0.3:0.01").unwrap(),
            Policy::first_reward(0.3, 0.01)
        );
        assert!(parse_policy("nope").is_err());
        assert!(parse_policy("pv:abc").is_err());
        assert!(parse_policy("first-reward:1.5:0.01").is_err());
    }

    #[test]
    fn parse_admissions() {
        assert_eq!(parse_admission("all").unwrap(), AdmissionPolicy::AcceptAll);
        assert_eq!(
            parse_admission("positive").unwrap(),
            AdmissionPolicy::PositiveExpectedYield
        );
        assert_eq!(
            parse_admission("slack:180").unwrap(),
            AdmissionPolicy::SlackThreshold { threshold: 180.0 }
        );
        assert!(parse_admission("slack").is_err());
        assert!(parse_admission("slack:x").is_err());
    }

    #[test]
    fn parse_bounds_and_widths() {
        assert_eq!(parse_bound("zero").unwrap(), BoundPolicy::ZeroFloor);
        assert_eq!(parse_bound("unbounded").unwrap(), BoundPolicy::Unbounded);
        assert_eq!(
            parse_bound("prop:0.25").unwrap(),
            BoundPolicy::ProportionalPenalty { fraction: 0.25 }
        );
        assert_eq!(parse_widths("one").unwrap(), WidthPolicy::One);
        assert_eq!(
            parse_widths("uniform:1:4").unwrap(),
            WidthPolicy::Uniform { lo: 1, hi: 4 }
        );
        assert_eq!(
            parse_widths("pow2:3").unwrap(),
            WidthPolicy::PowersOfTwo { max_exp: 3 }
        );
        assert!(parse_widths("uniform:4:1").is_err());
    }

    #[test]
    fn parse_gen_command() {
        let cmd = parse(&args(
            "gen --out /tmp/t.json --tasks 100 --processors 8 --load 1.5 \
             --seed 7 --bound zero --widths pow2:2",
        ))
        .unwrap();
        match cmd {
            Command::Gen {
                out,
                mix,
                seed,
                swf,
                workflow,
            } => {
                assert!(swf.is_none());
                assert!(workflow.is_none());
                assert_eq!(out, PathBuf::from("/tmp/t.json"));
                assert_eq!(mix.num_tasks, 100);
                assert_eq!(mix.processors, 8);
                assert_eq!(mix.load_factor, 1.5);
                assert_eq!(mix.bound, BoundPolicy::ZeroFloor);
                assert_eq!(mix.width, WidthPolicy::PowersOfTwo { max_exp: 2 });
                assert_eq!(seed, 7);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_run_command() {
        let cmd = parse(&args(
            "run --trace t.json --policy first-reward:0.2:0.01 \
             --admission slack:100 --processors 4 --preemption --classes",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                site,
                gantt,
                classes,
                ..
            } => {
                assert_eq!(site.policy, Policy::first_reward(0.2, 0.01));
                assert_eq!(
                    site.admission,
                    AdmissionPolicy::SlackThreshold { threshold: 100.0 }
                );
                assert_eq!(site.processors, 4);
                assert!(site.preemption);
                assert!(!gantt);
                assert!(classes);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_market_command() {
        let cmd = parse(&args(
            "market --trace t.json --sites 2 --procs-per-site 6 \
             --selection random --second-price",
        ))
        .unwrap();
        match cmd {
            Command::Market { economy, .. } => {
                assert_eq!(economy.sites.len(), 2);
                assert_eq!(economy.sites[0].processors, 6);
                assert_eq!(economy.selection, ClientSelection::Random);
                assert_eq!(economy.pricing, PricingStrategy::second_price());
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_market_shards_flag() {
        // The sharded engine is gone; a stale `--shards` must not be
        // accepted and ignored.
        for stale in [
            "market --trace t.json --sites 8 --shards 4",
            "market --trace t.json --shards 1 --journal j.bin",
            "market --workflow w.json --shards 2",
        ] {
            let err = parse(&args(stale)).unwrap_err();
            assert!(
                err.contains("unknown flag '--shards' for 'mbts market'"),
                "{err}"
            );
            assert!(err.contains("serial-only"), "{err}");
        }
        assert!(!usage().contains("--shards"));
    }

    #[test]
    fn parse_shapes() {
        assert_eq!(
            parse_shape("fork-join:3").unwrap(),
            WorkflowShape::ForkJoin { width: 3 }
        );
        assert_eq!(
            parse_shape("pipeline:4").unwrap(),
            WorkflowShape::Pipeline { depth: 4 }
        );
        assert_eq!(
            parse_shape("layered:3:2:0.5").unwrap(),
            WorkflowShape::RandomLayered {
                layers: 3,
                width: 2,
                edge_prob: 0.5
            }
        );
        assert!(parse_shape("fork-join").is_err());
        assert!(parse_shape("fork-join:0").is_err());
        assert!(parse_shape("layered:3:2").is_err());
        assert!(parse_shape("layered:3:2:1.5").is_err());
        assert!(parse_shape("diamond:2").is_err());
    }

    #[test]
    fn parse_gen_workflow_flags() {
        match parse(&args(
            "gen --out /tmp/w.json --workflow pipeline:5 --workflows 12 \
             --processors 8 --load 2.0 --seed 9",
        ))
        .unwrap()
        {
            Command::Gen { workflow, seed, .. } => {
                let wf = workflow.expect("workflow config");
                assert_eq!(wf.shape, WorkflowShape::Pipeline { depth: 5 });
                assert_eq!(wf.workflows, 12);
                assert_eq!(wf.processors, 8);
                assert_eq!(wf.load_factor, 2.0);
                assert_eq!(seed, 9);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args(
            "gen --out o.json --workflow pipeline:5 --workflows 0"
        ))
        .is_err());
        assert!(parse(&args(
            "gen --out o.json --workflow pipeline:5 --swf log.swf"
        ))
        .is_err());
    }

    #[test]
    fn parse_run_and_market_workflow_flags() {
        let workflow = RunInput::Workflow(PathBuf::from("w.json"));
        match parse(&args("run --workflow w.json --policy first-price")).unwrap() {
            Command::Run { input, .. } => assert_eq!(input, workflow),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("market --workflow w.json --sites 2")).unwrap() {
            Command::Market { input, .. } => assert_eq!(input, workflow),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("run --trace t.json")).unwrap() {
            Command::Run { input, .. } => {
                assert_eq!(input, RunInput::Trace(PathBuf::from("t.json")))
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Exactly one input source.
        for sub in ["run", "market"] {
            let err = parse(&args(sub)).unwrap_err();
            assert_eq!(
                err,
                format!("{sub} requires --trace FILE or --workflow FILE")
            );
            let err = parse(&args(&format!("{sub} --trace t.json --workflow w.json"))).unwrap_err();
            assert_eq!(err, "--trace and --workflow are mutually exclusive");
        }
        // Workflow market runs journal like plain ones.
        assert!(parse(&args("market --workflow w.json --journal j.bin")).is_ok());
    }

    #[test]
    fn parse_serve_command() {
        match parse(&args("serve")).unwrap() {
            Command::Serve { config, .. } => {
                assert_eq!(config.addr, "127.0.0.1:7741");
                assert_eq!(config.journal, None);
                assert_eq!(config.queue_capacity, 1024);
                assert_eq!(config.shed_threshold, 0);
                assert_eq!(config.time_scale, 1.0);
                assert!(!config.provenance);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args(
            "serve --addr 0.0.0.0:9000 --journal svc.mbtsj --processors 8 --policy pv:0.01 \
             --queue-cap 64 --shed-threshold 8 --time-scale 60 --snapshot-every 100 \
             --fsync-every 1 --provenance --status-cap 512 --throttle-us 250 --profile p.json \
             --chaos sched.json --chaos-seed 7",
        ))
        .unwrap()
        {
            Command::Serve {
                config,
                profile,
                chaos,
                chaos_seed,
            } => {
                assert_eq!(config.addr, "0.0.0.0:9000");
                assert_eq!(config.site.processors, 8);
                assert_eq!(config.journal, Some(PathBuf::from("svc.mbtsj")));
                assert_eq!(config.queue_capacity, 64);
                assert_eq!(config.shed_threshold, 8);
                assert_eq!(config.time_scale, 60.0);
                assert_eq!(config.snapshot_every, 100);
                assert_eq!(config.fsync_every_n, 1);
                assert!(config.provenance);
                assert_eq!(config.status_capacity, 512);
                assert_eq!(config.throttle, std::time::Duration::from_micros(250));
                assert!(config.chaos.is_none(), "armed when the command runs");
                assert_eq!(profile, Some(PathBuf::from("p.json")));
                assert_eq!(chaos, Some(PathBuf::from("sched.json")));
                assert_eq!(chaos_seed, 7);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("serve --queue-cap 0")).is_err());
        assert!(parse(&args("serve --time-scale 0")).is_err());
        assert!(parse(&args("serve --time-scale -2")).is_err());
    }

    #[test]
    fn parse_flood_command() {
        assert!(parse(&args("flood")).is_err());
        match parse(&args(
            "flood --addr 127.0.0.1:7741 --requests 500 --connections 2 --pipeline 8 \
             --seed 7 --retries 1 --cancel-every 10 --malformed-every 25 --out report.json",
        ))
        .unwrap()
        {
            Command::Flood { config, out } => {
                assert_eq!(config.addr, "127.0.0.1:7741");
                assert_eq!(config.requests, 500);
                assert_eq!(config.connections, 2);
                assert_eq!(config.pipeline, 8);
                assert_eq!(config.seed, 7);
                assert_eq!(config.retries, 1);
                assert_eq!(config.cancel_every, 10);
                assert_eq!(config.malformed_every, 25);
                assert_eq!(out, Some(PathBuf::from("report.json")));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("flood --addr a:1 --connections 0")).is_err());
        assert!(parse(&args("flood --addr a:1 --pipeline 0")).is_err());
    }

    #[test]
    fn flood_report_out_replaces_the_file_and_round_trips() {
        let dir = std::env::temp_dir().join("mbts-cli-flood-out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flood-report.json");
        // Every field distinct and non-default, so a key that went
        // missing or landed in the wrong field cannot compare equal.
        let mut report = mbts_serve::FloodReport {
            completed: 101,
            accepted: 102,
            rejected: 103,
            shed: 104,
            backpressured: 105,
            unavailable: 106,
            cancelled: 107,
            retries: 108,
            exhausted: 109,
            errors: 110,
            malformed: 111,
            wall_s: 1.5,
            rps: 1000.0,
            p50_us: 10.0,
            p95_us: 20.0,
            p99_us: 30.0,
            max_us: 40.0,
            connections: 2,
            pipeline: 16,
            parallelism: 3,
        };
        write_flood_report(&report, &path).unwrap();
        report.rps = 2000.0;
        report.p95_us = 25.0;
        write_flood_report(&report, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: mbts_serve::FloodReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report, "the second write replaced the first");
        // No merged run history and none of the throughput-gate keys.
        for gone in ["history", "gate"] {
            assert!(!text.contains(gone), "stale key '{gone}' in {text}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_top_command() {
        match parse(&args("top")).unwrap() {
            Command::Top(config) => {
                assert_eq!(config.addr, "127.0.0.1:7741");
                assert_eq!(config.interval, 1.0);
                assert_eq!(config.count, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("top --addr 10.0.0.2:9000 --interval 0.25 --count 5")).unwrap() {
            Command::Top(config) => {
                assert_eq!(config.addr, "10.0.0.2:9000");
                assert_eq!(config.interval, 0.25);
                assert_eq!(config.count, Some(5));
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("top --once")).unwrap() {
            Command::Top(config) => assert_eq!(config.count, Some(1)),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("top --interval 0")).is_err());
        assert!(parse(&args("top --interval -1")).is_err());
        assert!(parse(&args("top --count soon")).is_err());
    }

    #[test]
    fn parse_experiment_command() {
        let ids = |line: &str| match parse(&args(line)).unwrap() {
            Command::Experiment { families, .. } => {
                families.into_iter().map(|(id, _)| id).collect::<Vec<_>>()
            }
            other => panic!("wrong command: {other:?}"),
        };
        assert_eq!(
            ids("experiment all"),
            ["fig3", "fig4", "fig5", "fig6", "fig7", "workflows"]
        );
        assert_eq!(ids("experiment ablate --smoke").len(), 9);
        assert_eq!(ids("experiment ablate widths"), ["ablate-widths"]);
        assert!(ids("experiment metrics").is_empty());
        match parse(&args(
            "experiment fig4 --tasks 300 --smoke --seeds 3 --out figs --plot",
        ))
        .unwrap()
        {
            Command::Experiment {
                target,
                params,
                out,
                plot,
                trace_out,
                ..
            } => {
                assert_eq!(target, "fig4");
                assert_eq!((params.tasks, params.seeds, params.processors), (300, 3, 8));
                assert_eq!(params.base_seed, ExpParams::smoke().base_seed);
                assert_eq!(out, Some(PathBuf::from("figs")));
                assert!(plot);
                assert_eq!(trace_out, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("experiment metrics --quick --trace-out t.jsonl")).unwrap() {
            Command::Experiment {
                params, trace_out, ..
            } => {
                assert_eq!(params, ExpParams::quick());
                assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("experiment fig3")).unwrap() {
            Command::Experiment { params, .. } => assert_eq!(params, ExpParams::paper()),
            other => panic!("wrong command: {other:?}"),
        }
        // The refusals `tests/cli_errors.rs` does not run.
        for (line, needle) in [
            ("experiment", "experiment requires a target"),
            ("experiment fig4 fig5", "unexpected argument 'fig5'"),
            (
                "experiment ablate widths extra",
                "unexpected argument 'extra'",
            ),
            ("experiment fig4 --seeds x", "--seeds needs a whole number"),
            ("experiment metrics --trace t", "unknown flag '--trace'"),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.contains(needle), "`{line}`: {err}");
        }
        for target in mbts_experiments::targets() {
            assert!(usage().contains(target), "{target} missing from usage");
        }
    }

    #[test]
    fn parse_chaos_command() {
        assert!(parse(&args("chaos")).is_err());
        assert!(parse(&args("chaos s.json --format yaml")).is_err());
        assert!(parse(&args("chaos s.json --seed many")).is_err());
        assert!(parse(&args("chaos s.json --frobnicate")).is_err());
        match parse(&args(
            "chaos tests/chaos a.json --seed 99 --format json --out report.json \
             --trace-out chaos.jsonl",
        ))
        .unwrap()
        {
            Command::Chaos {
                inputs,
                seed,
                json,
                out,
                trace_out,
            } => {
                assert_eq!(
                    inputs,
                    vec![PathBuf::from("tests/chaos"), PathBuf::from("a.json")]
                );
                assert_eq!(seed, Some(99));
                assert!(json);
                assert_eq!(out, Some(PathBuf::from("report.json")));
                assert_eq!(trace_out, Some(PathBuf::from("chaos.jsonl")));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args("gen")).is_err());
        assert!(parse(&args("run")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
        // --provenance is meaningless without a captured stream.
        assert!(parse(&args("run --trace t.json --provenance")).is_err());
        assert!(parse(&args("market --trace t.json --provenance")).is_err());
        assert!(parse(&args("analyze")).is_err());
        assert!(parse(&args("analyze t.jsonl --format yaml")).is_err());
        assert!(parse(&args("analyze t.jsonl --buckets 0")).is_err());
        assert!(parse(&args("analyze t.jsonl --frobnicate")).is_err());
        assert!(parse(&args("metrics")).is_err());
    }

    /// Every subcommand rejects — naming the flag and the subcommand — a
    /// flag it does not know, a value flag followed by another flag or by
    /// nothing, and a flag given twice. Nothing reaches `execute`, so no
    /// file named after a swallowed flag can appear.
    #[test]
    fn every_subcommand_checks_its_flags_against_its_table() {
        for t in FLAG_TABLES {
            let sub = t.sub;
            let rejected = |line: String, flag: &str, why: &str| {
                let err = parse(&args(&line)).expect_err(&line);
                assert!(
                    err.contains(&format!("'{flag}'"))
                        && err.contains(&format!("'mbts {sub}'"))
                        && err.contains(why),
                    "`mbts {line}`: {err}"
                );
            };
            rejected(
                format!("{sub} --no-such-flag"),
                "--no-such-flag",
                "unknown flag",
            );
            for flag in t.values {
                rejected(
                    format!("{sub} {flag} --classes"),
                    flag,
                    "found flag '--classes'",
                );
                rejected(format!("{sub} {flag}"), flag, "needs a value");
                rejected(format!("{sub} {flag} 1 {flag} 2"), flag, "more than once");
            }
            for flag in t.switches {
                rejected(format!("{sub} {flag} {flag}"), flag, "more than once");
            }
            if !t.positional {
                rejected(format!("{sub} stray"), "stray", "unexpected argument");
            }
        }
        assert!(!std::path::Path::new("--classes").exists());

        // The two silent misparses this table replaced.
        let err = parse(&args("run --trace t.json --polcy fcfs --bogus")).unwrap_err();
        assert!(
            err.contains("unknown flag '--polcy' for 'mbts run'"),
            "{err}"
        );
        let err = parse(&args("run --trace t.json --journal --classes")).unwrap_err();
        assert!(
            err.contains("flag '--journal' for 'mbts run' needs a value"),
            "{err}"
        );

        assert!(parse(&args("market --trace t.json --shards 2")).is_err());
        // Flags that fed the retired BENCH files get the ordinary error.
        let err = parse(&args("flood --addr a:1 --gate-rps 1")).unwrap_err();
        assert!(
            err.contains("unknown flag '--gate-rps' for 'mbts flood'"),
            "{err}"
        );
        let err = parse(&args("serve --no-telemetry")).unwrap_err();
        assert!(
            err.contains("unknown flag '--no-telemetry' for 'mbts serve'"),
            "{err}"
        );
        // The audit log is the trace stream: `--trace-out` writes it.
        let err = parse(&args("run --trace t.json --audit a.jsonl")).unwrap_err();
        assert!(
            err.contains("unknown flag '--audit' for 'mbts run'"),
            "{err}"
        );
        assert!(parse(&args("market --workflow w.json --journal j.bin")).is_ok());
        // A single dash is a value, not a flag: this fails on its range.
        let err = parse(&args("top --interval -1")).unwrap_err();
        assert!(err.contains("--interval must be positive"), "{err}");
    }

    #[test]
    fn parse_analyze_and_metrics_commands() {
        match parse(&args(
            "analyze a.jsonl b.bin --format json --buckets 8 --out r.json",
        ))
        .unwrap()
        {
            Command::Analyze {
                inputs,
                format,
                buckets,
                out,
            } => {
                assert_eq!(
                    inputs,
                    vec![PathBuf::from("a.jsonl"), PathBuf::from("b.bin")]
                );
                assert_eq!(format, AnalyzeFormat::Json);
                assert_eq!(buckets, 8);
                assert_eq!(out, Some(PathBuf::from("r.json")));
            }
            other => panic!("{other:?}"),
        }
        // `metrics` is gone; its exposition is `analyze --format prom`.
        match parse(&args("analyze t.jsonl p.json --format prom")).unwrap() {
            Command::Analyze { inputs, format, .. } => {
                assert_eq!(inputs.len(), 2);
                assert_eq!(format, AnalyzeFormat::Prom);
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&args("metrics --trace t.jsonl --prom m.prom")).unwrap_err();
        assert!(err.contains("metrics"), "{err}");
        match parse(&args(
            "run --trace t.json --trace-out ev.jsonl --provenance --profile p.json",
        ))
        .unwrap()
        {
            Command::Run {
                trace_out,
                provenance,
                profile,
                ..
            } => {
                assert_eq!(trace_out, Some(PathBuf::from("ev.jsonl")));
                assert!(provenance);
                assert_eq!(profile, Some(PathBuf::from("p.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_and_metrics_end_to_end() {
        let dir = std::env::temp_dir().join("mbts-cli-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let events = dir.join("events.jsonl");
        let profile = dir.join("profile.json");
        let prom = dir.join("metrics.prom");
        let (trace_s, events_s, profile_s, prom_s) = (
            trace.to_str().unwrap(),
            events.to_str().unwrap(),
            profile.to_str().unwrap(),
            prom.to_str().unwrap(),
        );

        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "gen --out {trace_s} --tasks 80 --processors 4 --load 2.0 --seed 5"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();

        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "run --trace {trace_s} --processors 4 --policy first-reward:0.3:0.01 \
                 --admission slack:180 --preemption --trace-out {events_s} --provenance \
                 --profile {profile_s}"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("trace:"), "{text}");
        assert!(text.contains("profile ->"), "{text}");

        // Text analysis covers every report section.
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!("analyze {events_s} {profile_s}"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("yield attribution"), "{text}");
        assert!(text.contains("admission regret"), "{text}");
        assert!(text.contains("decision provenance"), "{text}");
        assert!(text.contains("hot-path profile"), "{text}");

        // JSON analysis parses back.
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!("analyze {events_s} --format json"))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("\"kind\": \"trace\""), "{text}");
        assert!(text.contains("\"rejected_positive\""), "{text}");

        // Prometheus exposition of the trace, then the saved profile.
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "analyze {events_s} {profile_s} --format prom --out {prom_s}"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("analysis ->"), "{text}");
        let exposition = std::fs::read_to_string(&prom).unwrap();
        let completed = format!("mbts_tasks_total{{trace=\"{events_s}\",outcome=\"completed\"}}");
        assert!(exposition.contains(&completed), "{exposition}");
        assert!(
            exposition.contains("mbts_busy_processors_mean{"),
            "{exposition}"
        );
        assert!(
            exposition.contains("mbts_profiler_latency_seconds_bucket"),
            "{exposition}"
        );

        for p in [&trace, &events, &profile, &prom] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn analyze_loads_a_profile_that_still_carries_a_shards_key() {
        // Builds that had a sharded market engine wrote a `shards`
        // summary into `--profile` reports; the key is ignored.
        let dir = std::env::temp_dir().join("mbts-cli-legacy-profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        std::fs::write(
            &path,
            r#"{"kind":"mbts_profile","enabled":true,"sections":[],
                "shards":{"shards":[{"shard":0,"sites":4,"ops":2}],"windows":3,"threaded":true}}"#,
        )
        .unwrap();
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!("analyze {}", path.display()))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("hot-path profile"), "{text}");
        assert!(!text.contains("shard"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn end_to_end_gen_run_market() {
        let dir = std::env::temp_dir().join("mbts-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cli-trace.json");
        let path_s = path.to_str().unwrap();

        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "gen --out {path_s} --tasks 120 --processors 4 --load 1.2 --seed 3"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("wrote 120 tasks"));

        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "run --trace {path_s} --policy first-price --processors 4 --classes"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("completed 120"), "{text}");
        assert!(text.contains("high-value"), "{text}");

        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "market --trace {path_s} --sites 2 --procs-per-site 2 \
                 --admission slack:0"
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("offered 120"), "{text}");
        assert!(text.contains("site 1:"), "{text}");

        let mut buf = Vec::new();
        execute(Command::Policies, &mut buf).unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("first-reward"));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn swf_import_end_to_end() {
        let dir = std::env::temp_dir().join("mbts-cli-swf");
        std::fs::create_dir_all(&dir).unwrap();
        let swf = dir.join("log.swf");
        std::fs::write(
            &swf,
            "; tiny log\n\
             1 0 0 100 2 -1 -1 2 120 -1 1 1 1 1 1 -1 -1 -1\n\
             2 50 0 80 1 -1 -1 1 90 -1 1 1 1 1 1 -1 -1 -1\n",
        )
        .unwrap();
        let out_path = dir.join("imported.json");
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "gen --swf {} --out {} --processors 4",
                swf.display(),
                out_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("wrote 2 tasks"));
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "run --trace {} --processors 4",
                out_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("completed 2"));
        std::fs::remove_file(&swf).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn validate_subcommand() {
        let dir = std::env::temp_dir().join("mbts-cli-validate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.json");
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "gen --out {} --tasks 50 --processors 4",
                path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!("validate --trace {}", path.display()))).unwrap(),
            &mut buf,
        )
        .unwrap();
        // Valid (execute returned Ok) and the stats line is present;
        // small traces may carry load warnings, so don't require the
        // bare "trace OK" banner.
        assert!(String::from_utf8_lossy(&buf).contains("50 tasks"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_and_resume_end_to_end() {
        let dir = std::env::temp_dir().join("mbts-cli-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("j-trace.json");
        let journal = dir.join("run.mbtsj");
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "gen --out {} --tasks 80 --processors 4 --seed 5",
                trace.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();

        // A journaled run completes and reports the journal.
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "run --trace {} --policy first-price --processors 4 --journal {}",
                trace.display(),
                journal.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("journal:"), "{text}");
        assert!(text.contains("completed 80"), "{text}");

        // Tear the tail off the journal (a crash mid-write) and resume:
        // the run still finishes with every task completed.
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - bytes.len() / 3]).unwrap();
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!("resume --journal {}", journal.display()))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("recovered site run"), "{text}");
        assert!(text.contains("completed 80"), "{text}");

        // Same flow for an economy run.
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!(
                "market --trace {} --sites 2 --procs-per-site 2 --journal {}",
                trace.display(),
                journal.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("journal:"));
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - bytes.len() / 4]).unwrap();
        let mut buf = Vec::new();
        execute(
            parse(&args(&format!("resume --journal {}", journal.display()))).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf).to_string();
        assert!(text.contains("recovered economy run"), "{text}");
        assert!(text.contains("offered 80"), "{text}");

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn run_missing_trace_is_a_clean_error() {
        let cmd = parse(&args("run --trace /nonexistent/x.json")).unwrap();
        let mut buf = Vec::new();
        let err = execute(cmd, &mut buf).unwrap_err();
        assert!(
            matches!(&err, ExecError::Failed(msg) if msg.contains("cannot read")),
            "{err}"
        );
    }
}
