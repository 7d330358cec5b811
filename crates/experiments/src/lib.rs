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
