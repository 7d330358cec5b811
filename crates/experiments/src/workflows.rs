//! The `workflows` experiment family: DAG workloads with decaying
//! end-to-end value.
//!
//! The paper prices independent tasks; this study asks what its
//! admission machinery is worth once tasks carry successors. Each grid
//! cell replays the same seeded workflow set twice under slack-threshold
//! admission:
//!
//! * **successor-aware** — per-task workflow facets are installed, so
//!   Eq. 7 slack is evaluated with the downstream decay and value folded
//!   in (a root whose subtree cannot pay is refused at the door);
//! * **per-task greedy** — the same policy and threshold, but each task
//!   is priced in isolation, exactly as the paper's single-task model
//!   would.
//!
//! The metric is total settled *workflow* yield: a workflow earns its
//! end-to-end decayed value only if every member completes, so admitting
//! a root whose descendants will later be refused strands work that
//! pays nothing. The grid sweeps every scheduling policy × three DAG
//! shapes × the harness seed list.

use crate::harness::{parallel_map, ExpParams};
use crate::report::{FigureResult, Point, Series};
use mbts_core::{AdmissionPolicy, Policy};
use mbts_sim::OnlineStats;
use mbts_site::{SiteConfig, SiteRun};
use mbts_trace::Tracer;
use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};

/// Slack floor applied in both modes (accept iff slack ≥ 0: the bid
/// must at least break even at its candidate completion).
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

/// The scheduling policies swept (one pair of series each).
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

/// One grid cell: total settled workflow yield for (shape, policy,
/// successor-aware?, seed).
fn run_cell(
    params: &ExpParams,
    shape: WorkflowShape,
    policy: Policy,
    aware: bool,
    seed: u64,
) -> f64 {
    let wf = WorkflowConfig::default_set()
        .with_workflows(workflow_count(params))
        .with_shape(shape)
        .with_processors(params.processors)
        .with_load_factor(LOAD_FACTOR);
    let set = generate_workflows(&wf, seed);
    let mut cfg = SiteConfig::new(params.processors)
        .with_policy(policy)
        .with_admission(AdmissionPolicy::SlackThreshold {
            threshold: SLACK_THRESHOLD,
        });
    if aware {
        cfg = cfg.with_workflow_facets(set.facets());
    }
    let (outcome, _) = SiteRun::with_workflows(cfg, &set, Tracer::Off).finish();
    outcome.workflows.expect("workflow replay").total_earned
}

/// Regenerates the workflow admission grid: policies × DAG shapes ×
/// seeds, successor-aware vs per-task greedy admission.
pub fn workflow_grid(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let shapes = shapes();
    let pols = policies();
    // Work items: (policy index, aware?, shape index, seed).
    let mut work: Vec<(usize, bool, usize, u64)> = Vec::new();
    for pi in 0..pols.len() {
        for &aware in &[true, false] {
            for si in 0..shapes.len() {
                for &seed in &seeds {
                    work.push((pi, aware, si, seed));
                }
            }
        }
    }
    let earned: Vec<f64> = parallel_map(&work, |&(pi, aware, si, seed)| {
        run_cell(params, shapes[si].1, pols[pi].1, aware, seed)
    });

    let mut series = Vec::new();
    let mut idx = 0;
    for (pname, _) in &pols {
        for &aware in &[true, false] {
            let label = if aware {
                format!("{pname} (successor-aware)")
            } else {
                format!("{pname} (per-task)")
            };
            let mut points = Vec::new();
            for (si, _) in shapes.iter().enumerate() {
                let mut stats = OnlineStats::new();
                for _ in &seeds {
                    stats.push(earned[idx]);
                    idx += 1;
                }
                points.push(Point {
                    x: si as f64,
                    y: stats.summary(),
                });
            }
            series.push(Series::new(label, points));
        }
    }
    FigureResult {
        id: "workflows".into(),
        title: format!(
            "Workflow admission: settled DAG yield (x: {})",
            shapes
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        x_label: "dag shape index".into(),
        y_label: "total settled workflow yield".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_policies_by_modes_by_shapes() {
        let params = ExpParams::smoke();
        let fig = workflow_grid(&params);
        assert_eq!(fig.series.len(), policies().len() * 2);
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

    #[test]
    fn successor_awareness_pays_under_value_policies() {
        // Aggregated across shapes and seeds, pricing the subtree at the
        // root should not lose to greedy per-task admission for the
        // value-aware policies (FirstPrice, PV, FirstReward). At smoke
        // scale (2 seeds) the paired difference sits inside sampling
        // noise for some policies, so allow a few percent of slop — the
        // claim under test is "does not systematically lose", not "wins
        // every cell".
        let params = ExpParams::smoke();
        let fig = workflow_grid(&params);
        for pname in ["FirstPrice", "PV", "FirstReward a=0.6"] {
            let aware: f64 = fig
                .series_by_label(&format!("{pname} (successor-aware)"))
                .unwrap()
                .means()
                .iter()
                .sum();
            let greedy: f64 = fig
                .series_by_label(&format!("{pname} (per-task)"))
                .unwrap()
                .means()
                .iter()
                .sum();
            assert!(
                aware >= greedy * 0.95,
                "{pname}: successor-aware {aware} vs per-task {greedy}"
            );
        }
    }
}
