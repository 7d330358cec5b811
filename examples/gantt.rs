//! Visualizing schedules: gang tasks, EASY backfilling, and preemption on
//! an ASCII Gantt chart.
//!
//! Runs a small mixed-width workload twice — FCFS without preemption and
//! FirstPrice with preemption — with a buffer tracer, and renders both
//! schedules from their trace streams so the structural differences are
//! visible.
//!
//! ```sh
//! cargo run --release --example gantt
//! ```

use mbts::core::Policy;
use mbts::site::{render_gantt, segments, SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig, WidthPolicy};

fn main() {
    let mix = MixConfig::millennium_default()
        .with_tasks(24)
        .with_processors(6)
        .with_load_factor(1.4)
        .with_width(WidthPolicy::PowersOfTwo { max_exp: 2 })
        .with_value_skew(6.0);
    let trace = generate_trace(&mix, 3);
    let widths: Vec<usize> = trace.tasks.iter().map(|t| t.width).collect();
    println!("24 tasks on 6 processors, widths: {widths:?}\n");

    for (label, config) in [
        (
            "FCFS, no preemption (watch backfills slot into reservation holes)",
            SiteConfig::new(6).with_policy(Policy::Fcfs),
        ),
        (
            "FirstPrice with preemption ('>' marks a preempted segment)",
            SiteConfig::new(6)
                .with_policy(Policy::FirstPrice)
                .with_preemption(true),
        ),
    ] {
        let (outcome, tracer) = SiteRun::new(config, &trace, Tracer::buffer()).finish();
        let events = tracer
            .into_events()
            .expect("a buffer tracer keeps its events");
        println!("=== {label} ===");
        println!(
            "yield {:.0}, completed {}, preemptions {}, backfills {}",
            outcome.metrics.total_yield,
            outcome.metrics.completed,
            outcome.metrics.preemptions,
            outcome.metrics.backfills,
        );
        println!("{}", render_gantt(&segments(&events), 100));
    }
}
