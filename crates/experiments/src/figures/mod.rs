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

/// Applies the harness params to a mix (trace length + calibration size).
pub(crate) fn sized(mix: MixConfig, params: &ExpParams) -> MixConfig {
    mix.with_tasks(params.tasks)
        .with_processors(params.processors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_overrides_scale_knobs() {
        let p = ExpParams::smoke();
        let m = sized(MixConfig::millennium_default(), &p);
        assert_eq!(m.num_tasks, p.tasks);
        assert_eq!(m.processors, p.processors);
    }
}
