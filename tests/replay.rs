//! Replayability: traces serialize losslessly and replayed traces produce
//! bit-identical simulation outcomes — the property every experiment in
//! EXPERIMENTS.md depends on.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig, Trace};

fn mix() -> MixConfig {
    MixConfig::millennium_default()
        .with_tasks(400)
        .with_processors(6)
        .with_load_factor(1.4)
}

#[test]
fn trace_json_roundtrip_preserves_simulation_results() {
    let original = generate_trace(&mix(), 77);
    let replayed = Trace::from_json(&original.to_json()).expect("roundtrip");
    assert_eq!(original, replayed);

    let cfg = SiteConfig::new(6)
        .with_policy(Policy::first_reward(0.25, 0.01))
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 120.0 })
        .with_preemption(true);
    let (a, _) = SiteRun::new(cfg.clone(), &original, Tracer::Off).finish();
    let (b, _) = SiteRun::new(cfg, &replayed, Tracer::Off).finish();
    assert_eq!(
        a.metrics.total_yield.to_bits(),
        b.metrics.total_yield.to_bits()
    );
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn trace_file_roundtrip() {
    let dir = std::env::temp_dir().join("mbts-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.json");
    let original = generate_trace(&mix(), 78);
    original.save(&path).unwrap();
    let replayed = Trace::load(&path).unwrap();
    assert_eq!(original, replayed);
    std::fs::remove_file(&path).ok();
}

#[test]
fn same_seed_same_trace_different_seed_different_trace() {
    let a = generate_trace(&mix(), 79);
    let b = generate_trace(&mix(), 79);
    let c = generate_trace(&mix(), 80);
    assert_eq!(a, b);
    assert_ne!(a.tasks, c.tasks);
}

#[test]
fn generator_is_stable_across_releases() {
    // Golden values: if the stream derivation or distribution sampling
    // changes, recorded experiments stop being reproducible. This pins
    // the first task of a known (config, seed).
    let t = generate_trace(&mix(), 2024);
    let first = &t.tasks[0];
    // Pin to 6 significant digits — enough to catch any algorithmic
    // change while robust to doc formatting. The reference stream is
    // defined by the vendored `rand` shim (vendor/rand), which is part
    // of this repository and therefore stable across environments.
    assert_eq!(first.arrival.as_f64(), 0.0);
    assert!(
        (first.runtime.as_f64() - 19.766773).abs() < 1e-5,
        "runtime drifted: {}",
        first.runtime
    );
    assert!(
        (first.value - 15.790429).abs() < 1e-5,
        "value drifted: {}",
        first.value
    );
    assert!(
        (first.decay - 1.518003).abs() < 1e-5,
        "decay drifted: {}",
        first.decay
    );
}
