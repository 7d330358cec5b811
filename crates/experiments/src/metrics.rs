//! The `metrics` subcommand: replay common seeded workloads under each
//! of the six headline policies with the structured-event tracer on, and
//! fold each (policy, seed) run's stream into its own [`TraceReport`].
//!
//! Each run captures its full event stream through a
//! [`BufferSink`](mbts_trace::BufferSink) and hands it to the one trace
//! fold behind `mbts analyze`. With `--trace out.jsonl` the concatenated
//! streams are also written as JSONL, one event per line.

use crate::harness::{parallel_map, ExpParams};
use mbts_core::Policy;
use mbts_site::{SiteConfig, SiteRun};
use mbts_trace::analyze::{analyze, render_text};
use mbts_trace::{to_jsonl, AnalyzeOptions, TraceEvent, TraceReport, Tracer};
use mbts_workload::{generate_trace, MixConfig};

/// Discount rate for PV/FirstReward (1 %, as in the paper).
const DISCOUNT: f64 = 0.01;

/// The six headline policies of the paper's evaluation.
pub fn policy_roster() -> Vec<(&'static str, Policy)> {
    vec![
        ("FCFS", Policy::Fcfs),
        ("SRPT", Policy::Srpt),
        ("SWPT", Policy::Swpt),
        ("FirstPrice", Policy::FirstPrice),
        ("PV", Policy::pv(DISCOUNT)),
        ("FirstReward", Policy::first_reward(0.3, DISCOUNT)),
    ]
}

/// Everything the subcommand produces: one report per (policy, seed) run
/// plus the raw event streams for `--trace`, both in roster then seed
/// order.
pub struct MetricsReport {
    /// Per-run reports, labelled `<policy> seed <seed>`.
    pub reports: Vec<TraceReport>,
    /// Captured event streams, one per (policy, seed) run.
    pub runs: Vec<Vec<TraceEvent>>,
}

impl MetricsReport {
    /// One `mbts analyze` text block per run.
    pub fn render(&self) -> String {
        let blocks: Vec<String> = self.reports.iter().map(render_text).collect();
        blocks.join("\n")
    }

    /// All captured events concatenated as JSONL, in run order.
    pub fn trace_jsonl(&self) -> String {
        self.runs.iter().map(|events| to_jsonl(events)).collect()
    }
}

/// Runs the roster over `params.seeds` common seeded workloads and
/// reports each run.
pub fn run_metrics(params: &ExpParams) -> MetricsReport {
    let mix = MixConfig::millennium_default()
        .with_tasks(params.tasks)
        .with_processors(params.processors);
    let jobs: Vec<(&'static str, Policy, u64)> = policy_roster()
        .into_iter()
        .flat_map(|(label, policy)| {
            params
                .seed_list()
                .into_iter()
                .map(move |seed| (label, policy, seed))
        })
        .collect();
    let (reports, runs) = parallel_map(&jobs, |(label, policy, seed)| {
        let trace = generate_trace(&mix, *seed);
        let config = SiteConfig::new(params.processors)
            .with_policy(*policy)
            .with_preemption(true);
        let (_, tracer) = SiteRun::new(config, &trace, Tracer::buffer()).finish();
        let events = tracer.into_events().expect("buffer tracer keeps events");
        let label = format!("{label} seed {seed}");
        (analyze(&label, &events, &AnalyzeOptions::default()), events)
    })
    .into_iter()
    .unzip();
    MetricsReport { reports, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_trace::from_jsonl;

    #[test]
    fn metrics_report_covers_every_policy() {
        let params = ExpParams {
            tasks: 120,
            seeds: 2,
            base_seed: 7,
            processors: 4,
        };
        let report = run_metrics(&params);
        assert_eq!(report.reports.len(), 12);
        assert_eq!(report.runs.len(), 12);
        for ((label, _), r) in policy_roster()
            .into_iter()
            .flat_map(|p| [p, p])
            .zip(&report.reports)
        {
            assert!(
                r.label.starts_with(&format!("{label} seed ")),
                "{}",
                r.label
            );
            // Every submission of the run was folded in.
            assert_eq!(r.yields.arrived, params.tasks as u64);
            let busy = r.utilization[0].mean_busy;
            assert!(busy > 0.0 && busy <= params.processors as f64, "{busy}");
        }
        assert!(report.render().contains("== FirstReward seed 8 =="));
        // The JSONL side parses back to exactly the captured events.
        let parsed = from_jsonl(&report.trace_jsonl()).unwrap();
        let total: usize = report.runs.iter().map(Vec::len).sum();
        assert_eq!(parsed.len(), total);
    }
}
