//! Quickstart: a value function, one site, one scheduling run.
//!
//! Renders the shape of a linear-decay value function (the paper's
//! Figure 2), then runs a small bimodal task mix through a FirstReward
//! site and prints the yield accounting.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mbts::core::{AdmissionPolicy, Policy};
use mbts::sim::Time;
use mbts::site::{Site, SiteConfig};
use mbts::workload::{generate_trace, MixConfig, PenaltyBound, TaskSpec};

fn main() {
    figure2();
    run_site();
}

/// ASCII rendition of the paper's Figure 2: maximum value until the
/// minimum runtime elapses, linear decay with queueing delay, optional
/// penalty floor.
fn figure2() {
    println!("A linear-decay value function (paper Figure 2):");
    println!("  value 100, decay 2/t.u., earliest completion t=20, penalty floor −30\n");
    // Arrival 0 and runtime 20: the earliest completion is t=20.
    let task = TaskSpec::new(
        0,
        0.0,
        20.0,
        100.0,
        2.0,
        PenaltyBound::Bounded { max_penalty: 30.0 },
    );
    let (lo, hi) = (-40.0, 110.0);
    for row in 0..12 {
        let level = hi - (hi - lo) * row as f64 / 11.0;
        let mut line = String::new();
        for col in 0..60 {
            let t = col as f64 * 2.0;
            let v = task.yield_at(Time::from(t));
            let step = (hi - lo) / 11.0;
            line.push(if (v - level).abs() < step / 2.0 {
                '*'
            } else {
                ' '
            });
        }
        println!("{level:>8.1} |{line}");
    }
    println!("         +{}", "-".repeat(60));
    println!(
        "          t=0 … t=120 (expires at t={})\n",
        task.expire_time()
    );
}

fn run_site() {
    // A 5-minute-scale mix: 500 tasks, 8 processors, load factor 1.2.
    let mix = MixConfig::millennium_default()
        .with_tasks(500)
        .with_processors(8)
        .with_load_factor(1.2);
    let trace = generate_trace(&mix, 42);
    let stats = trace.stats();
    println!(
        "Generated {} tasks: offered load {:.2}, mean runtime {:.1}, mean unit value {:.2}",
        stats.num_tasks, stats.offered_load, stats.mean_runtime, stats.mean_unit_value
    );

    for (label, config) in [
        (
            "FCFS, accept all",
            SiteConfig::new(8).with_policy(Policy::Fcfs),
        ),
        (
            "FirstPrice, accept all",
            SiteConfig::new(8).with_policy(Policy::FirstPrice),
        ),
        (
            "SWPT (cost-only), accept all",
            SiteConfig::new(8).with_policy(Policy::Swpt),
        ),
        (
            "FirstReward(α=0.3) + slack admission",
            SiteConfig::new(8)
                .with_policy(Policy::first_reward(0.3, 0.01))
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 100.0 }),
        ),
    ] {
        let outcome = Site::new(config).run_trace(&trace);
        let m = &outcome.metrics;
        println!(
            "  {label:<40} yield {:>10.1}  rate {:>7.3}  completed {:>4}  rejected {:>4}  mean delay {:>7.1}",
            m.total_yield,
            m.yield_rate(),
            m.completed,
            m.rejected,
            m.delay.mean(),
        );
    }
    println!("\n(Each line replays the identical trace — the spread is pure scheduling policy.)");
}
