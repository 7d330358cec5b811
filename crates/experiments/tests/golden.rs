//! Every experiment family's smoke-scale figure, pinned byte for byte.
//!
//! Each family runs in-process at [`ExpParams::smoke`] and its
//! [`FigureResult::to_json`] must equal `tests/golden/experiments/<id>.json`
//! at the root of the repository. A change that moves any number, label
//! or title of any family fails here. Regenerate after an intended change
//! with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mbts-experiments --test golden
//! ```
//!
//! and name the cause of every file that changed.

use mbts_experiments::harness::ExpParams;
use mbts_experiments::report::FigureResult;
use mbts_experiments::{ablations, faults, figures, workflows};
use std::path::PathBuf;

/// The families whose points are seed-aggregated summaries.
const FAMILIES: [fn(&ExpParams) -> FigureResult; 16] = [
    figures::fig3,
    figures::fig4,
    figures::fig5,
    figures::fig6,
    figures::fig7,
    ablations::ablate_preemption,
    ablations::ablate_admission,
    ablations::ablate_schedule_mode,
    ablations::ablate_misestimation,
    ablations::ablate_drop_expired,
    ablations::ablate_burstiness,
    ablations::ablate_duration_dist,
    ablations::ablate_widths,
    ablations::ablate_deadline_vs_value,
    faults::fault_sweep,
    workflows::workflow_grid,
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/experiments")
}

#[test]
fn every_family_matches_its_golden_json() {
    let updating = std::env::var_os("UPDATE_GOLDEN").is_some();
    let params = ExpParams::smoke();
    let mut mismatched = Vec::new();
    for family in FAMILIES {
        let fig = family(&params);
        let json = fig.to_json();
        let path = golden_dir().join(format!("{}.json", fig.id));
        if updating {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, &json).expect("write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        if json != want {
            let (line, (got, exp)) = json
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .unwrap_or((0, ("(length differs)", "")));
            mismatched.push(format!(
                "{}: line {}: got `{got}`, golden `{exp}`",
                fig.id,
                line + 1
            ));
        }
    }
    assert!(
        mismatched.is_empty(),
        "figures differ from their golden JSON:\n{}",
        mismatched.join("\n")
    );
}
