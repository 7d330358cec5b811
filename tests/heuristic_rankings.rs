//! Cross-crate behavioral tests: the qualitative claims of §4–§5 should
//! hold on full simulations, not just unit-level scores.

use mbts::core::Policy;
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{fig45_mix, generate_trace, BoundPolicy, MixConfig};

fn yield_of(policy: Policy, mix: &MixConfig, seeds: std::ops::Range<u64>) -> f64 {
    let mut total = 0.0;
    let n = (seeds.end - seeds.start) as f64;
    for seed in seeds {
        let trace = generate_trace(mix, seed);
        let config = SiteConfig::new(mix.processors).with_policy(policy);
        let (outcome, _) = SiteRun::new(config, &trace, Tracer::Off).finish();
        total += outcome.metrics.total_yield;
    }
    total / n
}

#[test]
fn value_aware_policies_beat_fcfs_on_skewed_mixes() {
    let mix = MixConfig::millennium_default()
        .with_tasks(800)
        .with_processors(8)
        .with_value_skew(4.0)
        .with_bound(BoundPolicy::ZeroFloor);
    let fcfs = yield_of(Policy::Fcfs, &mix, 100..103);
    let fp = yield_of(Policy::FirstPrice, &mix, 100..103);
    assert!(
        fp > fcfs,
        "FirstPrice {fp} should beat FCFS {fcfs} on a value-skewed mix"
    );
}

#[test]
fn cost_only_beats_first_price_under_unbounded_penalties() {
    // The headline of Figure 5: with unbounded penalties, considering
    // only cost (SWPT-like ordering) dominates greedy unit gain.
    let mix = fig45_mix(5.0, false).with_tasks(800).with_processors(8);
    let fp = yield_of(Policy::FirstPrice, &mix, 200..203);
    let cost_only = yield_of(Policy::first_reward(0.0, 0.01), &mix, 200..203);
    assert!(
        cost_only > fp,
        "cost-only {cost_only} should beat FirstPrice {fp} with unbounded penalties"
    );
}

#[test]
fn swpt_and_alpha_zero_agree_in_spirit_under_unbounded_penalties() {
    // Eq. 5: with unbounded penalties the α = 0 FirstReward ordering is a
    // per-unit-cost variant of SWPT. Their full-simulation yields should
    // land close together (not exactly equal: SWPT ranks by d/RPT while
    // α = 0 ranks by (d_i − D)·…/RPT which differs on ties).
    let mix = fig45_mix(5.0, false).with_tasks(800).with_processors(8);
    let swpt = yield_of(Policy::Swpt, &mix, 300..303);
    let alpha0 = yield_of(Policy::first_reward(0.0, 0.01), &mix, 300..303);
    let scale = swpt.abs().max(alpha0.abs()).max(1.0);
    assert!(
        (swpt - alpha0).abs() / scale < 0.25,
        "SWPT {swpt} vs α=0 {alpha0} diverge more than expected"
    );
}

#[test]
fn gains_matter_more_with_bounded_penalties_than_unbounded() {
    // Contrast of Figures 4 and 5: the advantage of considering gains
    // (α high vs α low) should be *less negative / more positive* when
    // penalties are bounded.
    let bounded = fig45_mix(5.0, true).with_tasks(800).with_processors(8);
    let unbounded = fig45_mix(5.0, false).with_tasks(800).with_processors(8);
    let gain_vs_cost_bounded = yield_of(Policy::first_reward(0.8, 0.01), &bounded, 400..403)
        - yield_of(Policy::first_reward(0.0, 0.01), &bounded, 400..403);
    let gain_vs_cost_unbounded = yield_of(Policy::first_reward(0.8, 0.01), &unbounded, 400..403)
        - yield_of(Policy::first_reward(0.0, 0.01), &unbounded, 400..403);
    // Normalize by total value scale to compare.
    let scale = generate_trace(&bounded, 400).stats().total_value;
    assert!(
        gain_vs_cost_bounded / scale > gain_vs_cost_unbounded / scale,
        "bounded Δ {} vs unbounded Δ {}",
        gain_vs_cost_bounded,
        gain_vs_cost_unbounded
    );
}

#[test]
fn srpt_minimizes_mean_delay() {
    // Sanity link to classic scheduling: SRPT should not lose on mean
    // delay to FCFS or FirstPrice.
    let mix = MixConfig::millennium_default()
        .with_tasks(800)
        .with_processors(8)
        .with_load_factor(1.5);
    let trace = generate_trace(&mix, 55);
    let delay = |p: Policy| {
        SiteRun::new(SiteConfig::new(8).with_policy(p), &trace, Tracer::Off)
            .finish()
            .0
            .metrics
            .delay
            .mean()
    };
    let srpt = delay(Policy::Srpt);
    assert!(srpt <= delay(Policy::Fcfs) + 1e-9);
    assert!(srpt <= delay(Policy::FirstPrice) * 1.05 + 1e-9);
}

#[test]
fn higher_load_means_lower_yield_without_admission() {
    let mk = |load: f64| {
        MixConfig::millennium_default()
            .with_tasks(800)
            .with_processors(8)
            .with_load_factor(load)
    };
    let y1 = yield_of(Policy::FirstPrice, &mk(0.7), 500..503);
    let y2 = yield_of(Policy::FirstPrice, &mk(2.0), 500..503);
    let y3 = yield_of(Policy::FirstPrice, &mk(4.0), 500..503);
    assert!(y1 > y2, "load 0.7 {y1} vs 2.0 {y2}");
    assert!(y2 > y3, "load 2.0 {y2} vs 4.0 {y3}");
}
