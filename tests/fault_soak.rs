//! Seeded fault-injection soak: long replays under processor outages,
//! with the always-on conservation auditor engaged. Any
//! [`AuditViolation`](mbts::site::AuditViolation) — task, processor, or
//! yield conservation — fails the run.
//!
//! Two tiers:
//!
//! * `soak_smoke_*` — small traces, always on, keeps `cargo test` fast;
//! * `soak_heavy_*` — ≥10k-event runs per (policy, seed); ignored in
//!   debug builds (run in release, as CI's soak job does).

use mbts::core::{AdmissionPolicy, Policy};
use mbts::sim::UpDown;
use mbts::site::{FaultPlan, SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{fig67_mix, generate_trace, MixConfig};

/// The six policy configurations the fault sweep compares.
fn soak_policies(processors: usize) -> Vec<(&'static str, SiteConfig)> {
    vec![
        (
            "fcfs",
            SiteConfig::new(processors).with_policy(Policy::Fcfs),
        ),
        (
            "srpt",
            SiteConfig::new(processors).with_policy(Policy::Srpt),
        ),
        (
            "first_price",
            SiteConfig::new(processors).with_policy(Policy::FirstPrice),
        ),
        (
            "pv",
            SiteConfig::new(processors).with_policy(Policy::pv(0.01)),
        ),
        (
            "first_reward",
            SiteConfig::new(processors).with_policy(Policy::first_reward(0.3, 0.01)),
        ),
        (
            "first_reward_ac",
            SiteConfig::new(processors)
                .with_policy(Policy::first_reward(0.3, 0.01))
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 }),
        ),
    ]
}

/// Replays `mix` through every policy × `seeds` with processor faults
/// active; evicted work restarts from scratch. Returns the total number
/// of events witnessed (arrivals + completions + crashes + repairs), so
/// callers can assert the soak was actually long.
fn soak(mix: &MixConfig, seeds: &[u64], processors: usize) -> u64 {
    let mut events = 0u64;
    for (label, base) in soak_policies(processors) {
        for &seed in seeds {
            let trace = generate_trace(mix, seed);
            let faults = UpDown::exponential(4_000.0, 120.0);
            let plan = FaultPlan::new(faults, seed.wrapping_mul(0x9E37_79B9) ^ 0x50A4);
            let (outcome, _) = SiteRun::with_faults(
                base.clone().with_preemption(true),
                &trace,
                &plan,
                Tracer::Off,
            )
            .finish();
            assert!(
                outcome.violations.is_empty(),
                "audit violations under {label} seed {seed}: {:?}",
                outcome.violations
            );
            let m = &outcome.metrics;
            assert_eq!(
                m.completed + m.dropped + m.cancelled,
                m.accepted,
                "task conservation after drain: {label} seed {seed}"
            );
            assert_eq!(
                m.crashed_procs, m.repaired_procs,
                "all crashed processors must be repaired by drain: {label} seed {seed}"
            );
            events += m.accepted as u64 + m.completed as u64 + m.crashed_procs;
        }
    }
    events
}

#[test]
fn soak_smoke_all_policies_keep_a_clean_audit() {
    let mix = fig67_mix(1.6).with_tasks(250).with_processors(8);
    let events = soak(&mix, &[1, 2], 8);
    assert!(events > 1_000, "smoke soak saw only {events} events");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy soak: run in release (CI soak job)")]
fn soak_heavy_ten_k_events_per_policy_and_seed() {
    // ≥10k events per (policy, seed): 4000 accepted-ish tasks each with
    // an arrival and a completion/drop, plus crash/repair traffic.
    let mix = fig67_mix(1.6).with_tasks(4_000).with_processors(16);
    let seeds = [101, 202, 303];
    let events = soak(&mix, &seeds, 16);
    assert!(
        events as usize > 10_000 * seeds.len(),
        "heavy soak saw only {events} events"
    );
}
