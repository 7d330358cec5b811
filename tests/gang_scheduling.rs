//! End-to-end gang-scheduling tests: mixed-width workloads through the
//! full stack (generator → site → metrics), plus SWF-imported traces.

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, parse_swf, MixConfig, SwfOptions, WidthPolicy};

fn gang_mix(load: f64) -> MixConfig {
    MixConfig::millennium_default()
        .with_tasks(400)
        .with_processors(8)
        .with_load_factor(load)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 3 })
}

#[test]
fn gang_workloads_complete_under_every_policy() {
    let trace = generate_trace(&gang_mix(1.2), 91);
    for policy in [
        Policy::Fcfs,
        Policy::Srpt,
        Policy::FirstPrice,
        Policy::EarliestDeadline,
        Policy::first_reward(0.3, 0.01),
    ] {
        let (out, _) =
            SiteRun::new(SiteConfig::new(8).with_policy(policy), &trace, Tracer::Off).finish();
        assert_eq!(out.metrics.completed, 400, "{}", policy.name());
        assert!(out.metrics.total_yield.is_finite());
    }
}

#[test]
fn gang_workloads_with_preemption_and_admission() {
    let trace = generate_trace(&gang_mix(2.0), 92);
    let (out, _) = SiteRun::new(
        SiteConfig::new(8)
            .with_policy(Policy::first_reward(0.2, 0.01))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
            .with_preemption(true),
        &trace,
        Tracer::Off,
    )
    .finish();
    let m = &out.metrics;
    assert_eq!(m.completed + m.dropped, m.accepted);
    assert_eq!(m.accepted + m.rejected, 400);
}

#[test]
fn load_calibration_accounts_for_width() {
    // With E[width] > 1 the arrival rate must slow down so that offered
    // work still matches the load factor. A single 400-task draw has
    // noticeable variance, so check the mean over several seeds (the
    // estimator must be unbiased) plus a loose per-seed band.
    let mut mean = 0.0;
    let seeds = 91..97u64;
    let n = seeds.clone().count() as f64;
    for seed in seeds {
        let load = generate_trace(&gang_mix(1.0), seed).stats().offered_load;
        assert!(
            (load - 1.0).abs() < 0.3,
            "offered load {load} (seed {seed}) far from 1.0"
        );
        mean += load / n;
    }
    assert!(
        (mean - 1.0).abs() < 0.1,
        "mean offered load {mean} should track 1.0"
    );
}

#[test]
fn backfilling_improves_utilization_on_gang_mixes() {
    let trace = generate_trace(&gang_mix(1.5), 94);
    let run = |backfill: bool| {
        SiteRun::new(
            SiteConfig::new(8)
                .with_policy(Policy::FirstPrice)
                .with_backfilling(backfill),
            &trace,
            Tracer::Off,
        )
        .finish()
        .0
    };
    let easy = run(true);
    let strict = run(false);
    assert!(
        easy.metrics.backfills > 0,
        "gang mix must trigger backfills"
    );
    assert_eq!(strict.metrics.backfills, 0);
    // Backfilling reduces average delay (fills idle holes).
    assert!(
        easy.metrics.delay.mean() <= strict.metrics.delay.mean() * 1.05,
        "easy {} vs strict {}",
        easy.metrics.delay.mean(),
        strict.metrics.delay.mean()
    );
}

#[test]
fn swf_imported_trace_runs_end_to_end() {
    // A small synthetic SWF log with mixed widths and misestimates.
    let mut swf = String::from("; synthetic log\n");
    for i in 0..60 {
        let submit = i * 20;
        let run = 50 + (i % 7) * 30;
        let req_time = run + 40;
        let procs = 1 << (i % 3);
        swf.push_str(&format!(
            "{} {} 0 {} {} -1 -1 {} {} -1 1 1 1 1 1 -1 -1 -1\n",
            i + 1,
            submit,
            run,
            procs,
            procs,
            req_time
        ));
    }
    let opts = SwfOptions::new(MixConfig::millennium_default().with_processors(8), 5);
    let trace = parse_swf(&swf, &opts).unwrap();
    assert_eq!(trace.len(), 60);
    let (out, _) = SiteRun::new(
        SiteConfig::new(8).with_policy(Policy::first_reward(0.3, 0.01)),
        &trace,
        Tracer::Off,
    )
    .finish();
    assert_eq!(out.metrics.completed, 60);
    // Misestimation is live: estimates (req_time) exceed true runtimes.
    assert!(trace
        .tasks
        .iter()
        .enumerate()
        .all(|(i, t)| trace.tasks.true_runtime(i) < t.runtime));
}
