//! The `workflows` experiment family: DAG workloads with decaying
//! end-to-end value.
//!
//! The paper prices independent tasks; this study replays seeded DAG
//! workflow sets under every scheduling policy with per-task Eq. 7
//! slack-threshold admission. The metric is total settled *workflow*
//! yield: a workflow earns its end-to-end decayed value only if every
//! member completes, so admitting a root whose descendants will later be
//! refused strands work that pays nothing. The grid sweeps every
//! scheduling policy × three DAG shapes × the harness seed list, one
//! series per policy.
//!
//! Admission is per-task because pricing a task's downstream cone into
//! its bid (Eq. 7′/8′) lost to it under every policy on the same seeds
//! (`DESIGN.md` §14, `EXPERIMENTS.md` "Workflows").

use crate::harness::{sweep, ExpParams};
use crate::report::FigureResult;
use mbts_core::{AdmissionPolicy, Policy};
use mbts_site::{SiteConfig, SiteRun};
use mbts_trace::Tracer;
use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};

/// Slack floor (accept iff slack ≥ 0: the bid must at least break even
/// at its candidate completion).
pub const SLACK_THRESHOLD: f64 = 0.0;

/// Discount rate for the PV-based policies (1 %, as in Figure 6).
pub const DISCOUNT: f64 = 0.01;

/// Offered load the workflow sets are calibrated to. Past saturation,
/// admitting a doomed root visibly displaces payable work.
pub const LOAD_FACTOR: f64 = 2.0;

/// The DAG shapes swept (x-axis, in this order).
pub fn shapes() -> Vec<(&'static str, WorkflowShape)> {
    vec![
        ("fork-join:3", WorkflowShape::ForkJoin { width: 3 }),
        ("pipeline:4", WorkflowShape::Pipeline { depth: 4 }),
        (
            "layered:3x2",
            WorkflowShape::RandomLayered {
                layers: 3,
                width: 2,
                edge_prob: 0.5,
            },
        ),
    ]
}

/// The scheduling policies swept (one series each).
pub fn policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("FCFS", Policy::Fcfs),
        ("SRPT", Policy::Srpt),
        ("SWPT", Policy::Swpt),
        ("FirstPrice", Policy::FirstPrice),
        ("PV", Policy::pv(DISCOUNT)),
        ("FirstReward a=0.6", Policy::first_reward(0.6, DISCOUNT)),
    ]
}

/// Workflow count scaled so the grid costs roughly what a `params.tasks`
/// single-task sweep does (fork-join:3 averages ~5 tasks per workflow).
fn workflow_count(params: &ExpParams) -> usize {
    (params.tasks / 5).clamp(8, 400)
}

/// One grid cell: total settled workflow yield for (shape, policy, seed).
fn run_cell(params: &ExpParams, shape: WorkflowShape, policy: Policy, seed: u64) -> f64 {
    let wf = WorkflowConfig::default_set()
        .with_workflows(workflow_count(params))
        .with_shape(shape)
        .with_processors(params.processors)
        .with_load_factor(LOAD_FACTOR);
    let set = generate_workflows(&wf, seed);
    let cfg = SiteConfig::new(params.processors)
        .with_policy(policy)
        .with_admission(AdmissionPolicy::SlackThreshold {
            threshold: SLACK_THRESHOLD,
        });
    let (outcome, _) = SiteRun::with_workflows(cfg, &set, Tracer::Off).finish();
    outcome.workflows.expect("workflow replay").total_earned
}

/// Regenerates the workflow grid: policies × DAG shapes × seeds.
pub fn workflow_grid(params: &ExpParams) -> FigureResult {
    let shapes = shapes();
    let names: Vec<&str> = shapes.iter().map(|(name, _)| *name).collect();
    let indexed: Vec<(f64, WorkflowShape)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, shape))| (i as f64, shape))
        .collect();
    FigureResult {
        id: "workflows".into(),
        title: format!("Workflows: settled DAG yield (x: {})", names.join(", ")),
        x_label: "dag shape index".into(),
        y_label: "total settled workflow yield".into(),
        series: sweep(
            params,
            &policies(),
            &indexed,
            |&policy, &shape, seed| run_cell(params, shape, policy, seed),
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_policies_by_shapes() {
        let params = ExpParams::smoke();
        let fig = workflow_grid(&params);
        assert_eq!(fig.series.len(), policies().len());
        for s in &fig.series {
            assert_eq!(s.points.len(), shapes().len());
            for p in &s.points {
                assert!(p.y.mean.is_finite(), "{}: non-finite mean", s.label);
            }
        }
    }

    #[test]
    fn grid_is_seed_deterministic() {
        let params = ExpParams::smoke();
        let a = workflow_grid(&params);
        let b = workflow_grid(&params);
        assert_eq!(a.to_csv(), b.to_csv());
    }
}
