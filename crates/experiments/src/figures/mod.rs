//! One module per figure of the paper's evaluation.

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;

pub use fig3::fig3;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use fig7::fig7;

use crate::harness::ExpParams;
use mbts_site::{SiteConfig, SiteOutcome, SiteRun};
use mbts_trace::Tracer;
use mbts_workload::{generate_trace, MixConfig};

/// Runs one (mix, seed, site) simulation to completion.
pub(crate) fn run_site(mix: &MixConfig, seed: u64, cfg: SiteConfig) -> SiteOutcome {
    let trace = generate_trace(mix, seed);
    SiteRun::new(cfg, &trace, Tracer::Off).finish().0
}

/// Percentage improvement of `treatment` over `baseline`, guarding the
/// near-zero-baseline case. Matches the paper's "Improvement over
/// FirstPrice (%)" axes (a negative baseline still reports gains as
/// positive improvements thanks to the |·|).
pub(crate) fn improvement_pct(treatment: f64, baseline: f64) -> f64 {
    if baseline.abs() < 1e-9 {
        0.0
    } else {
        (treatment - baseline) / baseline.abs() * 100.0
    }
}

/// Applies the harness params to a mix (trace length + calibration size).
pub(crate) fn sized(mix: MixConfig, params: &ExpParams) -> MixConfig {
    mix.with_tasks(params.tasks)
        .with_processors(params.processors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_pct_math() {
        assert_eq!(improvement_pct(110.0, 100.0), 10.0);
        assert_eq!(improvement_pct(90.0, 100.0), -10.0);
        // Negative baseline: getting less negative is an improvement.
        assert_eq!(improvement_pct(-50.0, -100.0), 50.0);
        assert_eq!(improvement_pct(5.0, 0.0), 0.0);
    }

    #[test]
    fn sized_overrides_scale_knobs() {
        let p = ExpParams::smoke();
        let m = sized(MixConfig::millennium_default(), &p);
        assert_eq!(m.num_tasks, p.tasks);
        assert_eq!(m.processors, p.processors);
    }
}
