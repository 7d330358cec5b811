//! `mbts-experiments` — CLI regenerating the paper's evaluation.
//!
//! ```text
//! mbts-experiments <fig3|fig4|fig5|fig6|fig7|faults|workflows|metrics|all|ablate [NAME]> [options]
//!   --quick          reduced scale (1200 tasks, 3 seeds)
//!   --smoke          tiny scale for CI (250 tasks, 2 seeds)
//!   --tasks N        trace length (default 5000, as in the paper)
//!   --seeds N        replications per point (default 5)
//!   --processors N   site size (default 16)
//!                    (a count is at least 1 and overrides a preset given
//!                    anywhere on the line)
//!   --out DIR        (figures) also write <fig>.{csv,json,md} under DIR
//!   --plot           render ASCII plots in addition to tables
//!   --trace FILE     (metrics) also write the full event streams as JSONL
//! ```
//!
//! Every target but `metrics` is resolved against
//! [`mbts_experiments::FAMILIES`] while the command line is read.

use mbts_experiments::harness::ExpParams;
use mbts_experiments::report::FigureResult;
use mbts_experiments::{metrics, select, targets, Family};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

struct Cli {
    target: String,
    /// The families to run; empty for `metrics`.
    families: Vec<(&'static str, Family)>,
    params: ExpParams,
    out: Option<PathBuf>,
    plot: bool,
    /// `--trace FILE`, created while the flags are read so that a path
    /// that cannot be written is refused before anything runs.
    trace: Option<(PathBuf, File)>,
}

/// The value of a count flag: a whole number of at least 1.
fn count<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    value: Option<String>,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("{flag} needs a whole number of at least 1"))
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1).peekable();
    let target = args.next().ok_or_else(usage)?;
    let mut ablation = None;
    if target == "ablate" {
        if let Some(next) = args.peek() {
            if !next.starts_with("--") {
                ablation = args.next();
            }
        }
    }
    let families = if target == "metrics" {
        Vec::new()
    } else {
        select(&target, ablation.as_deref()).map_err(|e| match ablation {
            Some(_) => e,
            None => format!("{e}\n{}", usage()),
        })?
    };
    // A preset sets every scale at once and an explicit flag overrides
    // it, whichever comes first on the command line.
    let mut preset = None;
    let (mut tasks, mut seeds, mut processors) = (None, None, None);
    let mut out = None;
    let mut plot = false;
    let mut trace = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => preset = Some(ExpParams::quick()),
            "--smoke" => preset = Some(ExpParams::smoke()),
            "--tasks" => tasks = Some(count("--tasks", args.next())?),
            "--seeds" => seeds = Some(count("--seeds", args.next())?),
            "--processors" => processors = Some(count("--processors", args.next())?),
            "--out" if target == "metrics" => {
                return Err("--out applies only to figure targets, not metrics".into())
            }
            "--out" => {
                let dir = PathBuf::from(args.next().ok_or("--out needs a path")?);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("--out: cannot create {}: {e}", dir.display()))?;
                out = Some(dir);
            }
            "--plot" => plot = true,
            "--trace" if target != "metrics" => {
                return Err(format!("--trace applies only to metrics, not {target}"))
            }
            "--trace" => {
                let path = PathBuf::from(args.next().ok_or("--trace needs a path")?);
                let file = File::create(&path)
                    .map_err(|e| format!("--trace: cannot write {}: {e}", path.display()))?;
                trace = Some((path, file));
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let mut params = preset.unwrap_or_else(ExpParams::paper);
    params.tasks = tasks.unwrap_or(params.tasks);
    params.seeds = seeds.unwrap_or(params.seeds);
    params.processors = processors.unwrap_or(params.processors);
    Ok(Cli {
        target,
        families,
        params,
        out,
        plot,
        trace,
    })
}

fn usage() -> String {
    let targets: Vec<&str> = targets().chain(["metrics", "all", "ablate"]).collect();
    format!(
        "usage: mbts-experiments <{}> [--quick|--smoke] [--tasks N] [--seeds N] \
         [--processors N] [--out DIR] [--plot] [--trace FILE]",
        targets.join("|")
    )
}

/// Prints `fig` and writes it under `--out`; a failed write is the
/// message returned.
fn emit(fig: &FigureResult, cli: &Cli) -> Result<(), String> {
    println!("{}", fig.render_table());
    if cli.plot {
        println!("{}", fig.render_plot(72, 20));
    }
    if let Some(dir) = &cli.out {
        for (ext, text) in [
            ("csv", fig.to_csv()),
            ("json", fig.to_json()),
            ("md", fig.to_markdown()),
        ] {
            let path = dir.join(format!("{}.{ext}", fig.id));
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        eprintln!("wrote {}/{}.{{csv,json,md}}", dir.display(), fig.id);
    }
    Ok(())
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "running {} at {} tasks × {} seeds on {} processors",
        cli.target, cli.params.tasks, cli.params.seeds, cli.params.processors
    );
    let started = std::time::Instant::now();
    if cli.target == "metrics" {
        let report = metrics::run_metrics(&cli.params);
        println!("{}", report.render());
        if let Some((path, mut file)) = cli.trace {
            if let Err(e) = file.write_all(report.trace_jsonl().as_bytes()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
        eprintln!("done in {:.1?}", started.elapsed());
        return;
    }
    for (_, family) in &cli.families {
        if let Err(e) = emit(&family(&cli.params), &cli) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    eprintln!("done in {:.1?}", started.elapsed());
}
