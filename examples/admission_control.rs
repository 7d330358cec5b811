//! Admission control under overload: a compact, runnable version of the
//! paper's §6 story (Figures 6 and 7).
//!
//! Sweeps the load factor with and without slack-threshold admission
//! control and prints the yield rate, acceptance ratio, and contract-risk
//! numbers, then sweeps the threshold itself at a fixed overload.
//!
//! ```sh
//! cargo run --release --example admission_control
//! ```

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{fig67_mix, generate_trace};

const PROCESSORS: usize = 8;
const TASKS: usize = 1500;
const SEED: u64 = 11;

fn run(load: f64, admission: AdmissionPolicy) -> (f64, f64, f64) {
    let mix = fig67_mix(load)
        .with_tasks(TASKS)
        .with_processors(PROCESSORS);
    let trace = generate_trace(&mix, SEED);
    let config = SiteConfig::new(PROCESSORS)
        .with_policy(Policy::first_reward(0.2, 0.01))
        .with_admission(admission);
    let (outcome, _) = SiteRun::new(config, &trace, Tracer::Off).finish();
    let m = &outcome.metrics;
    (m.yield_rate(), m.acceptance_ratio(), m.total_penalty)
}

fn main() {
    println!("=== Yield rate vs load: slack admission (threshold 180) vs accept-all ===");
    println!(
        "{:>6}  {:>12} {:>8} {:>12}   {:>12} {:>8} {:>12}",
        "load", "rate(AC)", "acc%", "penalty", "rate(all)", "acc%", "penalty"
    );
    for load in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0] {
        let (r_ac, a_ac, p_ac) = run(load, AdmissionPolicy::SlackThreshold { threshold: 180.0 });
        let (r_all, a_all, p_all) = run(load, AdmissionPolicy::AcceptAll);
        println!(
            "{load:>6.1}  {r_ac:>12.2} {:>7.0}% {p_ac:>12.0}   {r_all:>12.2} {:>7.0}% {p_all:>12.0}",
            a_ac * 100.0,
            a_all * 100.0
        );
    }
    println!("\nUnder overload the accept-all site drowns in penalties; the");
    println!("slack-gated site sheds the riskiest work and its yield rate keeps rising.\n");

    println!("=== Threshold sweep at load 2 (the Figure-7 trade-off) ===");
    println!("{:>10}  {:>12} {:>8}", "threshold", "yield rate", "acc%");
    for threshold in [-200.0, 0.0, 100.0, 200.0, 400.0, 700.0, 1200.0] {
        let (rate, acc, _) = run(2.0, AdmissionPolicy::SlackThreshold { threshold });
        println!("{threshold:>10.0}  {rate:>12.2} {:>7.0}%", acc * 100.0);
    }
    println!("\nToo low a threshold admits money-losing work; too high rejects");
    println!("profitable work — the optimum sits in between and rises with load.");
}
