//! Workload-generation tour: the §4.1 synthetic methodology.
//!
//! Builds the per-figure Millennium-style mixes, prints their descriptive
//! statistics, shows the common-random-numbers property that paired
//! comparisons rely on, and round-trips a trace through JSON.
//!
//! ```sh
//! cargo run --release --example millennium_mix
//! ```

use mbts::workload::{fig3_mix, fig45_mix, fig67_mix, generate_trace, Trace};

fn describe(label: &str, trace: &Trace) {
    let s = trace.stats();
    println!(
        "{label:<28} tasks {:>5}  load {:>5.2}  E[rt] {:>6.1}  E[v/rt] {:>5.2}  E[decay] {:>6.3}  ΣV {:>9.0}",
        s.num_tasks, s.offered_load, s.mean_runtime, s.mean_unit_value, s.mean_decay, s.total_value
    );
}

fn main() {
    println!("=== Per-figure preset mixes (seed 1, 2000 tasks, 16 procs) ===");
    for (label, mix) in [
        ("fig3 (value skew 4)", fig3_mix(4.0)),
        ("fig4 (decay skew 5, bounded)", fig45_mix(5.0, true)),
        ("fig5 (decay skew 5, unbounded)", fig45_mix(5.0, false)),
        ("fig6/7 (load 2)", fig67_mix(2.0)),
    ] {
        let trace = generate_trace(&mix.with_tasks(2000).with_processors(16), 1);
        describe(label, &trace);
    }

    println!("\n=== Common random numbers across a skew sweep ===");
    let base = fig45_mix(3.0, false).with_tasks(1000).with_processors(16);
    let a = generate_trace(&base, 5);
    let b = generate_trace(&base.clone().with_decay_skew(9.0), 5);
    let same_arrivals = a
        .tasks
        .iter()
        .zip(b.tasks.iter())
        .all(|(x, y)| x.arrival == y.arrival && x.runtime == y.runtime && x.value == y.value);
    let decay_changed = a
        .tasks
        .iter()
        .zip(b.tasks.iter())
        .any(|(x, y)| x.decay != y.decay);
    println!(
        "decay skew 3 → 9: arrivals/runtimes/values identical: {same_arrivals}; decays changed: {decay_changed}"
    );

    println!("\n=== Trace serialization ===");
    let dir = std::env::temp_dir().join("mbts-example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.json");
    a.save(&path).expect("save trace");
    let size = std::fs::metadata(&path).expect("stat").len();
    let replay = Trace::load(&path).expect("load trace");
    println!(
        "saved {} tasks to {} ({} bytes); replay identical: {}",
        replay.len(),
        path.display(),
        size,
        replay == a
    );
    std::fs::remove_file(&path).ok();
}
