//! Fault sweep: per-policy yield rate vs processor failure rate.
//!
//! Not a figure from the paper — a robustness study the fault-injection
//! subsystem enables: how gracefully does each dispatch policy's yield
//! degrade as hardware gets less reliable? Each point replays the same
//! seeded trace through [`SiteRun::with_faults`] with processor
//! MTTF scaled by the x-axis failure-rate multiplier (rate 0 is the
//! fault-free baseline, a plain replay). Evicted work restarts from
//! scratch, so faults cost real progress, and the always-on
//! conservation auditor runs throughout — any violation fails the sweep.

use crate::figures::sized;
use crate::harness::{parallel_map, ExpParams};
use crate::report::{FigureResult, Point, Series};
use mbts_core::{AdmissionPolicy, Policy};
use mbts_sim::{OnlineStats, UpDown};
use mbts_site::{FaultPlan, SiteConfig, SiteRun};
use mbts_trace::Tracer;
use mbts_workload::{fig67_mix, generate_trace};

/// Failure-rate multipliers swept (0 = reliable hardware).
pub const RATES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// Processor MTTF at multiplier 1 (time units).
pub const BASE_MTTF: f64 = 10_000.0;

/// Mean processor repair time (time units).
pub const MTTR: f64 = 150.0;

/// Slack threshold for the admission-controlled series.
pub const SLACK_THRESHOLD: f64 = 180.0;

/// Discount rate for PV/FirstReward (1 %, as in the paper).
pub const DISCOUNT: f64 = 0.01;

/// The policies compared.
fn series_configs(processors: usize) -> Vec<(String, SiteConfig)> {
    vec![
        (
            "FCFS".into(),
            SiteConfig::new(processors).with_policy(Policy::Fcfs),
        ),
        (
            "SRPT".into(),
            SiteConfig::new(processors).with_policy(Policy::Srpt),
        ),
        (
            "FirstPrice".into(),
            SiteConfig::new(processors).with_policy(Policy::FirstPrice),
        ),
        (
            "PV".into(),
            SiteConfig::new(processors).with_policy(Policy::pv(DISCOUNT)),
        ),
        (
            "FirstReward".into(),
            SiteConfig::new(processors).with_policy(Policy::first_reward(0.3, DISCOUNT)),
        ),
        (
            "FirstReward + AC".into(),
            SiteConfig::new(processors)
                .with_policy(Policy::first_reward(0.3, DISCOUNT))
                .with_admission(AdmissionPolicy::SlackThreshold {
                    threshold: SLACK_THRESHOLD,
                }),
        ),
    ]
}

/// Runs the sweep. Panics (debug) or fails the assert (release) if the
/// conservation auditor records any violation.
pub fn fault_sweep(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let configs = series_configs(params.processors);
    let mut work: Vec<(usize, usize, u64)> = Vec::new();
    for si in 0..configs.len() {
        for ri in 0..RATES.len() {
            for &s in &seeds {
                work.push((si, ri, s));
            }
        }
    }
    let labels: Vec<String> = configs.iter().map(|(l, _)| l.clone()).collect();
    let rates: Vec<f64> = parallel_map(&work, |&(si, ri, seed)| {
        let mix = sized(fig67_mix(1.5), params);
        let trace = generate_trace(&mix, seed);
        let cfg = configs[si].1.clone();
        let rate = RATES[ri];
        let run = if rate == 0.0 {
            SiteRun::new(cfg, &trace, Tracer::Off)
        } else {
            let faults = UpDown::exponential(BASE_MTTF / rate, MTTR);
            // Derive the injector seed from the workload seed so each
            // replication sees an independent failure timeline.
            let plan = FaultPlan::new(faults, seed ^ 0xFA17);
            SiteRun::with_faults(cfg, &trace, &plan, Tracer::Off)
        };
        let (outcome, _) = run.finish();
        assert!(
            outcome.violations.is_empty(),
            "conservation audit failed: {:?}",
            outcome.violations
        );
        outcome.metrics.yield_rate()
    });

    let mut series = Vec::new();
    for (si, label) in labels.into_iter().enumerate() {
        let mut points = Vec::new();
        for (ri, &rate) in RATES.iter().enumerate() {
            let mut stats = OnlineStats::new();
            for (sj, _) in seeds.iter().enumerate() {
                let idx = si * RATES.len() * seeds.len() + ri * seeds.len() + sj;
                stats.push(rates[idx]);
            }
            points.push(Point {
                x: rate,
                y: stats.summary(),
            });
        }
        series.push(Series::new(label, points));
    }
    FigureResult {
        id: "faults".into(),
        title: "Fault injection: yield rate vs processor failure rate".into(),
        x_label: "failure-rate multiplier (MTTF = 10000 / x)".into(),
        y_label: "average yield rate".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_faults_degrade_yield() {
        let params = ExpParams {
            tasks: 300,
            seeds: 2,
            base_seed: 6000,
            processors: 8,
        };
        let fig = fault_sweep(&params);
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(s.points.len(), RATES.len());
            // Heavy faults never *help* a work-conserving site (restart
            // semantics destroy progress): the heaviest-fault point must
            // not beat the fault-free baseline.
            let clean = s.points[0].y.mean;
            let worst = s.points[RATES.len() - 1].y.mean;
            assert!(
                worst <= clean + 1e-9,
                "{}: faulted {worst} vs clean {clean}",
                s.label
            );
        }
    }
}
