//! # mbts-experiments — regenerating the paper's evaluation
//!
//! One module per figure of the paper's evaluation (there are no numbered
//! tables — the evaluation is Figures 3–7), plus the ablation studies
//! DESIGN.md calls out. Every experiment:
//!
//! * replicates each configuration across several seeds with **common
//!   random numbers** (paired comparisons see identical workloads),
//! * fans the independent (configuration × seed) runs out across threads
//!   ([`harness::parallel_map`]),
//! * reports mean ± 95 % CI per point as a [`report::FigureResult`] that
//!   renders as an ASCII table, an ASCII plot, or CSV.
//!
//! | Experiment | Paper | Entry point |
//! |---|---|---|
//! | PV vs FirstPrice across discount rates & value skews | Fig. 3 | [`figures::fig3()`](figures::fig3()) |
//! | FirstReward α sweep, bounded penalties | Fig. 4 | [`figures::fig4()`](figures::fig4()) |
//! | FirstReward α sweep, unbounded penalties | Fig. 5 | [`figures::fig5()`](figures::fig5()) |
//! | Admission control vs load factor | Fig. 6 | [`figures::fig6()`](figures::fig6()) |
//! | Slack-threshold sweep per load | Fig. 7 | [`figures::fig7()`](figures::fig7()) |
//! | Preemption / admission / schedule-mode / misestimation ablations | §5–6 design choices | [`ablations`] |
//! | Per-policy yield vs processor failure rate (fault injection) | robustness study | [`faults::fault_sweep()`](faults::fault_sweep()) |
//! | Per-policy settled yield over DAG workflows | workflow extension | [`workflows::workflow_grid()`](workflows::workflow_grid()) |
//!
//! [`FAMILIES`] lists them all by figure id; `mbts experiment` resolves a target
//! against it with [`select`].

pub mod ablations;
pub mod compare;
pub mod faults;
pub mod figures;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod workflows;

pub use compare::{compare_sites, ComparisonResult};
pub use harness::{parallel_map, ExpParams};
pub use report::{FigureResult, Point, Series};

/// One experiment family: the figure it regenerates at a given scale.
pub type Family = fn(&ExpParams) -> FigureResult;

/// The id prefix of every ablation; `ablate NAME` runs `ablate-NAME`.
const ABLATION: &str = "ablate-";

/// Every experiment family, keyed by the id of the figure it returns, in
/// the order the CLI runs them: the paper's figures, the fault sweep, the
/// workflow grid, then the ablations.
pub const FAMILIES: &[(&str, Family)] = &[
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("faults", faults::fault_sweep),
    ("workflows", workflows::workflow_grid),
    ("ablate-preemption", ablations::ablate_preemption),
    ("ablate-admission", ablations::ablate_admission),
    ("ablate-schedule-mode", ablations::ablate_schedule_mode),
    ("ablate-misestimation", ablations::ablate_misestimation),
    ("ablate-drop-expired", ablations::ablate_drop_expired),
    ("ablate-burstiness", ablations::ablate_burstiness),
    ("ablate-duration-dist", ablations::ablate_duration_dist),
    ("ablate-widths", ablations::ablate_widths),
    (
        "ablate-deadline-vs-value",
        ablations::ablate_deadline_vs_value,
    ),
];

/// The targets that name one family: every id but the ablations'.
pub fn targets() -> impl Iterator<Item = &'static str> {
    FAMILIES
        .iter()
        .map(|&(id, _)| id)
        .filter(|id| !id.starts_with(ABLATION))
}

/// The ablation names `ablate NAME` takes.
fn ablation_names() -> impl Iterator<Item = &'static str> {
    FAMILIES
        .iter()
        .filter_map(|&(id, _)| id.strip_prefix(ABLATION))
}

/// The families a command line names. `all` is the paper's figures and
/// the workflow grid; `ablate` is every ablation, or with a name only
/// that one; any other target is the family of that id. The error is the
/// message to print.
pub fn select(target: &str, ablation: Option<&str>) -> Result<Vec<(&'static str, Family)>, String> {
    let chosen: Vec<_> = FAMILIES
        .iter()
        .copied()
        .filter(|&(id, _)| match (target, ablation) {
            ("all", _) => id.starts_with("fig") || id == "workflows",
            ("ablate", None) => id.starts_with(ABLATION),
            ("ablate", Some(name)) => id.strip_prefix(ABLATION) == Some(name),
            _ => id == target && !id.starts_with(ABLATION),
        })
        .collect();
    match (target, ablation) {
        _ if !chosen.is_empty() => Ok(chosen),
        ("ablate", Some(name)) => Err(format!(
            "unknown ablation '{name}' (try: {})",
            ablation_names().collect::<Vec<_>>().join(", ")
        )),
        _ => Err(format!("unknown target {target}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_returns_the_figure_its_id_names() {
        let params = ExpParams {
            tasks: 20,
            seeds: 1,
            base_seed: 1,
            processors: 2,
        };
        for &(id, family) in FAMILIES {
            assert_eq!(family(&params).id, id);
        }
    }

    #[test]
    fn targets_resolve_against_the_table() {
        let ids = |target, ablation| -> Vec<&str> {
            let chosen = select(target, ablation).unwrap();
            chosen.into_iter().map(|(id, _)| id).collect()
        };
        assert_eq!(
            ids("all", None),
            ["fig3", "fig4", "fig5", "fig6", "fig7", "workflows"]
        );
        assert_eq!(ids("ablate", None).len(), 9);
        assert_eq!(ids("ablate", Some("widths")), ["ablate-widths"]);
        assert_eq!(ids("faults", None), ["faults"]);
        assert!(select("ablate-widths", None)
            .unwrap_err()
            .contains("unknown target"));
        let hint = select("ablate", Some("bogus")).unwrap_err();
        assert!(
            hint.contains("try: preemption, admission, schedule-mode,"),
            "{hint}"
        );
        assert!(hint.ends_with("deadline-vs-value)"), "{hint}");
    }
}
