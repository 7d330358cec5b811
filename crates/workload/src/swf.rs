//! Standard Workload Format (SWF) import.
//!
//! The Parallel Workloads Archive distributes real cluster logs in SWF:
//! one job per line, 18 whitespace-separated fields, `;` comments. This
//! module turns such a log into a [`Trace`] so the schedulers can be
//! driven by *real* arrival processes, runtimes, and processor widths —
//! the dimension the paper's synthetic methodology approximates.
//!
//! SWF records carry no economic information, so values and decay rates
//! are drawn from a [`MixConfig`]'s bimodal distributions exactly as the
//! synthetic generator does (documented substitution: real timing ×
//! synthetic valuation).
//!
//! Field reference (1-based, per the archive's standard):
//!
//! | # | field | use here |
//! |---|-------|----------|
//! | 1 | job number | ignored (ids re-densified) |
//! | 2 | submit time (s) | arrival |
//! | 4 | run time (s) | true runtime |
//! | 5 | allocated processors | width fallback |
//! | 8 | requested processors | width |
//! | 9 | requested time (s) | runtime estimate |
//!
//! Jobs with non-positive runtimes or processor counts (failed/cancelled
//! submissions) are skipped, as is archive practice.

use crate::config::MixConfig;
use crate::task::TaskSpec;
use crate::tasklist::TaskList;
use crate::trace::Trace;
use mbts_sim::{Duration, RngFactory};
use std::sync::Arc;

/// Options controlling the import. Import is strict (a malformed data
/// line is an error), keeps SWF times as they are, clamps widths to the
/// mix's processor count (wider jobs are clamped rather than dropped) and
/// has no job cap.
#[derive(Debug, Clone)]
pub struct SwfOptions {
    /// Mix supplying the value/decay distributions, the bound policy and
    /// the processor count widths clamp to.
    pub mix: MixConfig,
    /// Seed for the value/decay draws.
    pub seed: u64,
}

impl SwfOptions {
    /// Options around a mix.
    pub fn new(mix: MixConfig, seed: u64) -> Self {
        SwfOptions { mix, seed }
    }
}

/// A problem encountered while parsing SWF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Canonical name for the import error type.
pub type ParseError = SwfError;

/// Parses SWF text into a trace, assigning values/decay from the options'
/// mix. A malformed data line (too few fields, or a non-numeric field) is
/// an error; comment (`;`) and blank lines are skipped; unusable jobs
/// (zero runtime/processors) are silently dropped like the archive's own
/// tooling does.
pub fn parse_swf(text: &str, options: &SwfOptions) -> Result<Trace, SwfError> {
    let factory = RngFactory::new(options.seed);
    let mut value_rng = factory.stream("swf-unit-values");
    let mut decay_rng = factory.stream("swf-decays");
    let unit_value_dist = options.mix.unit_value_dist();
    let decay_dist = options.mix.decay_dist();

    let mut rows: Vec<(f64, f64, f64, usize)> = Vec::new(); // submit, est, run, width
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 8 {
            return Err(SwfError {
                line: lineno + 1,
                message: format!("expected ≥ 8 fields, found {}", fields.len()),
            });
        }
        let parse = |i: usize| -> Result<f64, SwfError> {
            fields[i].parse().map_err(|_| SwfError {
                line: lineno + 1,
                message: format!("field {} ('{}') is not a number", i + 1, fields[i]),
            })
        };
        let submit = parse(1)?;
        let run_time = parse(3)?;
        let allocated = parse(4)?;
        let requested_procs = parse(7)?;
        // Field 9 (requested time) is optional in practice; −1 = missing.
        let requested_time = if fields.len() > 8 { parse(8)? } else { -1.0 };

        let width = if requested_procs > 0.0 {
            requested_procs as usize
        } else if allocated > 0.0 {
            allocated as usize
        } else {
            continue; // unusable record
        };
        if run_time <= 0.0 || submit < 0.0 {
            continue;
        }
        let estimate = if requested_time > 0.0 {
            requested_time
        } else {
            run_time
        };
        rows.push((submit, estimate, run_time, width));
    }

    // SWF logs are submit-ordered in principle; enforce it for safety.
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));

    let true_runtimes = rows
        .iter()
        .map(|&(_, _, run_time, _)| Duration::new(run_time.max(1e-6)))
        .collect();
    let tasks: Arc<[TaskSpec]> = rows
        .into_iter()
        .enumerate()
        .map(|(i, (submit, estimate, _, width))| {
            let width = width.clamp(1, options.mix.processors);
            let unit_value = unit_value_dist.sample(&mut value_rng).max(0.0);
            let value = unit_value * estimate;
            let decay = decay_dist.sample(&mut decay_rng).max(0.0);
            let bound = options.mix.bound.penalty_bound(value);
            TaskSpec::new(i as u64, submit, estimate, value, decay, bound).with_width(width)
        })
        .collect();
    Ok(Trace::new(
        options.mix.clone(),
        options.seed,
        TaskList::new(tasks, true_runtimes),
    ))
}

/// Reads and parses an SWF file.
pub fn load_swf(path: &std::path::Path, options: &SwfOptions) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_swf(&text, options).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Sample SWF log (header comment)
; UnixStartTime: 0
  1   0   5  100   4  -1  -1   4  120  -1  1  1  1  1  1  -1 -1 -1
  2  50   0  200   8  -1  -1   8   -1  -1  1  1  1  1  1  -1 -1 -1
  3  60   0   -1   1  -1  -1   1   50  -1  1  1  1  1  1  -1 -1 -1
  4  70   0   30   0  -1  -1   0   40  -1  1  1  1  1  1  -1 -1 -1
  5  80   0   60   2  -1  -1  -1   90  -1  1  1  1  1  1  -1 -1 -1
";

    fn options() -> SwfOptions {
        SwfOptions::new(MixConfig::millennium_default().with_processors(16), 9)
    }

    #[test]
    fn parses_valid_jobs_and_skips_unusable_ones() {
        let trace = parse_swf(SAMPLE, &options()).unwrap();
        // Job 3 (runtime −1) and job 4 (0 processors) are dropped;
        // jobs 1, 2, 5 survive.
        assert_eq!(trace.len(), 3);
        let t0 = &trace.tasks[0];
        assert_eq!(t0.arrival.as_f64(), 0.0);
        assert_eq!(t0.runtime.as_f64(), 120.0, "estimate from field 9");
        assert_eq!(
            trace.tasks.true_runtime(0).as_f64(),
            100.0,
            "actual from field 4"
        );
        assert_eq!(t0.width, 4);
        let t1 = &trace.tasks[1];
        assert_eq!(t1.arrival.as_f64(), 50.0);
        assert_eq!(
            t1.runtime.as_f64(),
            200.0,
            "missing estimate falls back to run time"
        );
        assert_eq!(t1.width, 8);
        // Job 5: requested procs −1 → falls back to allocated (2).
        assert_eq!(trace.tasks[2].width, 2);
    }

    #[test]
    fn ids_are_densified_and_sorted() {
        let trace = parse_swf(SAMPLE, &options()).unwrap();
        for (i, t) in trace.tasks.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        assert!(trace.tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn values_come_from_the_mix_and_are_deterministic() {
        let a = parse_swf(SAMPLE, &options()).unwrap();
        let b = parse_swf(SAMPLE, &options()).unwrap();
        assert_eq!(a, b);
        assert!(a.tasks.iter().all(|t| t.value > 0.0 && t.decay >= 0.0));
        let mut other = options();
        other.seed = 10;
        let c = parse_swf(SAMPLE, &other).unwrap();
        assert!(a
            .tasks
            .iter()
            .zip(c.tasks.iter())
            .any(|(x, y)| x.value != y.value));
    }

    #[test]
    fn widths_clamp_to_mix_processors() {
        let mut opts = options();
        opts.mix = opts.mix.with_processors(4);
        let trace = parse_swf(SAMPLE, &opts).unwrap();
        assert!(trace.tasks.iter().all(|t| t.width <= 4));
    }

    #[test]
    fn malformed_line_reports_location() {
        let err = parse_swf("1 2 3\n", &options()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("fields"));
        let err = parse_swf("; ok\n1 x 0 10 1 -1 -1 1\n", &options()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("not a number"));
    }

    #[test]
    fn empty_input_yields_an_empty_trace() {
        for text in ["", "\n", "\n\n\n"] {
            assert_eq!(parse_swf(text, &options()).unwrap().len(), 0, "{text:?}");
        }
    }

    #[test]
    fn comment_only_input_yields_an_empty_trace() {
        let text = "; UnixStartTime: 0\n; MaxJobs: 1000\n;\n   ; indented comment\n";
        assert_eq!(parse_swf(text, &options()).unwrap().len(), 0);
    }

    #[test]
    fn trailing_newline_is_irrelevant() {
        let with = SAMPLE.to_string();
        let without = SAMPLE.trim_end().to_string();
        assert!(with.ends_with('\n') && !without.ends_with('\n'));
        let a = parse_swf(&with, &options()).unwrap();
        let b = parse_swf(&without, &options()).unwrap();
        assert_eq!(a, b);
        // Nor is a run of trailing blank lines.
        let padded = format!("{SAMPLE}\n\n");
        assert_eq!(parse_swf(&padded, &options()).unwrap(), a);
    }

    #[test]
    fn imported_trace_runs_through_a_site() {
        use mbts_sim::Time;
        let trace = parse_swf(SAMPLE, &options()).unwrap();
        // Quick structural sanity: the tasks are schedulable.
        for t in trace.tasks.iter() {
            assert!(t.runtime.as_f64() > 0.0);
            assert!(t.yield_at(Time::from(t.arrival.as_f64())) <= t.value);
        }
    }
}
