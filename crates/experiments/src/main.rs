//! `mbts-experiments` — CLI regenerating the paper's evaluation.
//!
//! ```text
//! mbts-experiments <fig3|fig4|fig5|fig6|fig7|faults|workflows|metrics|all|ablate [NAME]> [options]
//!   --quick          reduced scale (1200 tasks, 3 seeds)
//!   --smoke          tiny scale for CI (250 tasks, 2 seeds)
//!   --tasks N        trace length (default 5000, as in the paper)
//!   --seeds N        replications per point (default 5)
//!   --processors N   site size (default 16)
//!   --out DIR        also write <fig>.csv and <fig>.json under DIR
//!   --plot           render ASCII plots in addition to tables
//!   --trace FILE     (metrics) also write the full event streams as JSONL
//! ```

use mbts_experiments::harness::ExpParams;
use mbts_experiments::report::FigureResult;
use mbts_experiments::{ablations, faults, figures, metrics, workflows};
use std::path::PathBuf;

struct Cli {
    target: String,
    ablation: Option<String>,
    params: ExpParams,
    out: Option<PathBuf>,
    plot: bool,
    trace: Option<PathBuf>,
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
    let mut params = ExpParams::paper();
    let mut out = None;
    let mut plot = false;
    let mut trace = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => params = ExpParams::quick(),
            "--smoke" => params = ExpParams::smoke(),
            "--tasks" => {
                params.tasks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--tasks needs a number")?
            }
            "--seeds" => {
                params.seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seeds needs a number")?
            }
            "--processors" => {
                params.processors = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--processors needs a number")?
            }
            "--out" => out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?)),
            "--plot" => plot = true,
            "--trace" => trace = Some(PathBuf::from(args.next().ok_or("--trace needs a path")?)),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(Cli {
        target,
        ablation,
        params,
        out,
        plot,
        trace,
    })
}

fn usage() -> String {
    "usage: mbts-experiments <fig3|fig4|fig5|fig6|fig7|faults|workflows|metrics|all|ablate> \
     [--quick|--smoke] [--tasks N] [--seeds N] [--processors N] [--out DIR] [--plot] \
     [--trace FILE]"
        .to_string()
}

fn emit(fig: &FigureResult, cli: &Cli) {
    println!("{}", fig.render_table());
    if cli.plot {
        println!("{}", fig.render_plot(72, 20));
    }
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        std::fs::write(dir.join(format!("{}.csv", fig.id)), fig.to_csv()).expect("write csv");
        std::fs::write(dir.join(format!("{}.json", fig.id)), fig.to_json()).expect("write json");
        std::fs::write(dir.join(format!("{}.md", fig.id)), fig.to_markdown()).expect("write md");
        eprintln!("wrote {}/{}.{{csv,json,md}}", dir.display(), fig.id);
    }
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
        if let Some(path) = &cli.trace {
            std::fs::write(path, report.trace_jsonl()).expect("write trace JSONL");
            eprintln!("wrote {}", path.display());
        }
        eprintln!("done in {:.1?}", started.elapsed());
        return;
    }
    let figs: Vec<FigureResult> = match cli.target.as_str() {
        "fig3" => vec![figures::fig3(&cli.params)],
        "fig4" => vec![figures::fig4(&cli.params)],
        "fig5" => vec![figures::fig5(&cli.params)],
        "fig6" => vec![figures::fig6(&cli.params)],
        "fig7" => vec![figures::fig7(&cli.params)],
        "faults" => vec![faults::fault_sweep(&cli.params)],
        "workflows" => vec![workflows::workflow_grid(&cli.params)],
        "all" => vec![
            figures::fig3(&cli.params),
            figures::fig4(&cli.params),
            figures::fig5(&cli.params),
            figures::fig6(&cli.params),
            figures::fig7(&cli.params),
            workflows::workflow_grid(&cli.params),
        ],
        "ablate" => match cli.ablation.as_deref() {
            None => ablations::all(&cli.params),
            Some("preemption") => vec![ablations::ablate_preemption(&cli.params)],
            Some("admission") => vec![ablations::ablate_admission(&cli.params)],
            Some("schedule-mode") => vec![ablations::ablate_schedule_mode(&cli.params)],
            Some("misestimation") => vec![ablations::ablate_misestimation(&cli.params)],
            Some("drop-expired") => vec![ablations::ablate_drop_expired(&cli.params)],
            Some("burstiness") => vec![ablations::ablate_burstiness(&cli.params)],
            Some("duration-dist") => vec![ablations::ablate_duration_dist(&cli.params)],
            Some("widths") => vec![ablations::ablate_widths(&cli.params)],
            Some("deadline-vs-value") => vec![ablations::ablate_deadline_vs_value(&cli.params)],
            Some(other) => {
                eprintln!(
                    "unknown ablation '{other}' (try: preemption, admission, schedule-mode, \
                     misestimation, drop-expired, burstiness, duration-dist, widths, \
                     deadline-vs-value)"
                );
                std::process::exit(2);
            }
        },
        other => {
            eprintln!("unknown target {other}\n{}", usage());
            std::process::exit(2);
        }
    };
    for fig in &figs {
        emit(fig, &cli);
    }
    eprintln!("done in {:.1?}", started.elapsed());
}
