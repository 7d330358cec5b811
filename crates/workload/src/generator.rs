//! Trace generation.
//!
//! Turns a [`MixConfig`] into a concrete [`Trace`] using independent named
//! RNG streams per stochastic dimension (arrivals, runtimes, values,
//! decays, estimation error). Because the streams are independent,
//! changing one knob — say the decay skew — leaves every other dimension's
//! draws untouched, giving the *common random numbers* structure the
//! paper's paired heuristic comparisons rely on.

use crate::config::{ArrivalProcess, MixConfig, WidthPolicy};
use crate::task::TaskSpec;
use crate::tasklist::TaskList;
use crate::trace::Trace;
use mbts_sim::{pin_malloc_thresholds, Dist, Duration, RngFactory, Time};
use std::sync::Arc;

/// Generates a trace from `config`, deterministically in `seed`. The
/// allocator policy ([`pin_malloc_thresholds`]) is pinned before the
/// first buffer a run's inputs allocate.
pub fn generate_trace(config: &MixConfig, seed: u64) -> Trace {
    pin_malloc_thresholds();
    let factory = RngFactory::new(seed);
    let mut arrivals_rng = factory.stream("arrivals");
    let mut runtime_rng = factory.stream("runtimes");
    let mut value_rng = factory.stream("unit-values");
    let mut decay_rng = factory.stream("decays");
    let mut error_rng = factory.stream("runtime-error");
    let mut width_rng = factory.stream("widths");

    let unit_value_dist = config.unit_value_dist();
    let decay_dist = config.decay_dist();
    let gap_dist = arrival_gap_dist(config);
    let error_dist = Dist::normal_min(0.0, config.runtime_error, -0.9);

    let batch_size = match config.arrival {
        ArrivalProcess::Exponential => 1,
        ArrivalProcess::NormalBatch { batch_size, .. } => batch_size,
    };
    assert!(
        batch_size > 0,
        "NormalBatch batch_size must be positive: a zero-task arrival event never releases a task"
    );

    // Collecting an exact-size range writes the shared slice in place, with
    // no `Vec` to copy from. True runtimes are drawn, in the same loop, only
    // when the estimates are misestimated.
    let mut clock = Time::ZERO;
    let mut true_runtimes = Vec::new();
    let tasks = (0..config.num_tasks)
        .map(|i| {
            // One arrival event releases `batch_size` tasks at `clock`; the
            // next event's gap is drawn when its first task is.
            if i > 0 && i % batch_size == 0 {
                clock += Duration::new(gap_dist.sample(&mut arrivals_rng).max(0.0));
            }
            let runtime = config.runtime.sample(&mut runtime_rng).max(1e-6);
            let unit_value = unit_value_dist.sample(&mut value_rng).max(0.0);
            let value = unit_value * runtime;
            let decay = decay_dist.sample(&mut decay_rng).max(0.0);
            let bound = config.bound.penalty_bound(value);
            let width = sample_width(&config.width, config.processors, &mut width_rng);
            if config.runtime_error > 0.0 {
                let eps = error_dist.sample(&mut error_rng);
                true_runtimes.push(Duration::new((runtime * (1.0 + eps)).max(1e-6)));
            }
            TaskSpec::new(i as u64, clock.as_f64(), runtime, value, decay, bound).with_width(width)
        })
        .collect::<Arc<[TaskSpec]>>();

    let tasks = if config.runtime_error > 0.0 {
        TaskList::new(tasks, true_runtimes)
    } else {
        TaskList::accurate(tasks)
    };
    Trace::new(config.clone(), seed, tasks)
}

/// Samples a processor width, capped at the calibration site size.
fn sample_width(policy: &WidthPolicy, processors: usize, rng: &mut mbts_sim::SimRng) -> usize {
    use rand::Rng;
    let w = match policy {
        WidthPolicy::One => 1,
        WidthPolicy::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
        WidthPolicy::PowersOfTwo { max_exp } => 1usize << rng.gen_range(0..=*max_exp),
    };
    w.clamp(1, processors)
}

/// The inter-arrival-event gap distribution implied by the config's load
/// factor (see [`MixConfig::mean_arrival_gap`]).
fn arrival_gap_dist(config: &MixConfig) -> Dist {
    let mean_gap = config.mean_arrival_gap();
    match config.arrival {
        ArrivalProcess::Exponential => Dist::exponential(mean_gap),
        ArrivalProcess::NormalBatch { cv, .. } => Dist::normal_min(mean_gap, cv * mean_gap, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundPolicy;
    use crate::task::PenaltyBound;

    fn small() -> MixConfig {
        MixConfig::millennium_default()
            .with_tasks(2000)
            .with_processors(8)
    }

    #[test]
    fn trace_has_requested_length_and_sorted_arrivals() {
        let t = generate_trace(&small(), 1);
        assert_eq!(t.tasks.len(), 2000);
        assert!(t.tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Ids are dense and arrival-ordered.
        for (i, task) in t.tasks.iter().enumerate() {
            assert_eq!(task.id.index(), i);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_trace(&small(), 7);
        let b = generate_trace(&small(), 7);
        assert_eq!(a.tasks, b.tasks);
        let c = generate_trace(&small(), 8);
        assert_ne!(a.tasks, c.tasks);
    }

    #[test]
    fn realized_load_tracks_configured_load() {
        for load in [0.5, 1.0, 2.0] {
            let cfg = small().with_load_factor(load);
            let t = generate_trace(&cfg, 3);
            let stats = t.stats();
            let rel_err = (stats.offered_load - load).abs() / load;
            assert!(
                rel_err < 0.1,
                "load {load}: realized {}",
                stats.offered_load
            );
        }
    }

    #[test]
    fn value_mean_matches_config_scale() {
        let cfg = small();
        let t = generate_trace(&cfg, 11);
        let mean_unit: f64 =
            t.tasks.iter().map(|s| s.unit_value()).sum::<f64>() / t.tasks.len() as f64;
        assert!(
            (mean_unit - cfg.mean_unit_value).abs() < 0.1,
            "mean unit value {mean_unit}"
        );
        let mean_decay: f64 = t.tasks.iter().map(|s| s.decay).sum::<f64>() / t.tasks.len() as f64;
        assert!(
            (mean_decay - cfg.mean_decay).abs() < 0.1,
            "mean decay {mean_decay}"
        );
    }

    #[test]
    fn value_skew_changes_values_but_not_arrivals_or_runtimes() {
        let a = generate_trace(&small().with_value_skew(1.0), 5);
        let b = generate_trace(&small().with_value_skew(9.0), 5);
        for (x, y) in a.tasks.iter().zip(b.tasks.iter()) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.runtime, y.runtime);
            assert_eq!(x.decay, y.decay);
        }
        assert!(a
            .tasks
            .iter()
            .zip(b.tasks.iter())
            .any(|(x, y)| x.value != y.value));
    }

    #[test]
    fn load_factor_changes_arrivals_only() {
        let a = generate_trace(&small().with_load_factor(0.5), 5);
        let b = generate_trace(&small().with_load_factor(2.0), 5);
        for (x, y) in a.tasks.iter().zip(b.tasks.iter()) {
            assert_eq!(x.runtime, y.runtime);
            assert_eq!(x.value, y.value);
            assert_eq!(x.decay, y.decay);
        }
        // Higher load compresses the arrival span.
        assert!(b.stats().arrival_span < a.stats().arrival_span);
    }

    #[test]
    fn batch_arrivals_release_batches() {
        let cfg = small()
            .with_tasks(160)
            .with_arrival(ArrivalProcess::NormalBatch {
                batch_size: 16,
                cv: 0.2,
            });
        let t = generate_trace(&cfg, 2);
        // Every run of 16 consecutive tasks shares an arrival time.
        for chunk in t.tasks.chunks(16) {
            assert!(chunk.iter().all(|s| s.arrival == chunk[0].arrival));
        }
        // Distinct batches have distinct times.
        assert_ne!(t.tasks[0].arrival, t.tasks[16].arrival);
    }

    #[test]
    #[should_panic(expected = "NormalBatch batch_size must be positive")]
    fn empty_batches_are_refused_not_looped_on() {
        // A config read from a file skips the builder's check; generating
        // from it must stop at once instead of spinning on empty batches.
        let cfg = MixConfig {
            arrival: ArrivalProcess::NormalBatch {
                batch_size: 0,
                cv: 0.2,
            },
            ..small()
        };
        let _ = generate_trace(&cfg, 2);
    }

    #[test]
    fn bound_policies_apply() {
        let zero = generate_trace(&small().with_bound(BoundPolicy::ZeroFloor), 1);
        assert!(zero.tasks.iter().all(|s| s.bound == PenaltyBound::ZERO));
        let unb = generate_trace(&small().with_bound(BoundPolicy::Unbounded), 1);
        assert!(unb.tasks.iter().all(|s| s.bound.is_unbounded()));
        let prop = generate_trace(
            &small().with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 }),
            1,
        );
        for s in prop.tasks.iter() {
            let max_penalty = s.bound.max_penalty().expect("expected bounded");
            assert!((max_penalty - 0.5 * s.value).abs() < 1e-9)
        }
    }

    #[test]
    fn accurate_runtimes_by_default() {
        let t = generate_trace(&small(), 1);
        assert!(t.tasks.is_accurate());
        assert!((0..t.len()).all(|i| t.tasks.true_runtime(i) == t.tasks[i].runtime));
    }

    #[test]
    fn runtime_error_perturbs_true_runtime_only() {
        let t = generate_trace(&small().with_runtime_error(0.3), 1);
        let perturbed = (0..t.len())
            .filter(|&i| t.tasks[i].runtime != t.tasks.true_runtime(i))
            .count();
        assert!(perturbed > t.tasks.len() / 2);
        assert!((0..t.len()).all(|i| t.tasks.true_runtime(i).as_f64() > 0.0));
        // Estimates are unchanged relative to the accurate trace.
        let base = generate_trace(&small(), 1);
        for (a, b) in base.tasks.iter().zip(t.tasks.iter()) {
            assert_eq!(a.runtime, b.runtime);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any (reasonable) config generates a well-formed trace: positive
        /// runtimes, non-negative values/decays, sorted arrivals.
        #[test]
        fn traces_are_well_formed(
            seed in any::<u64>(),
            load in 0.3f64..4.0,
            value_skew in 1.0f64..10.0,
            decay_skew in 1.0f64..10.0,
            n in 10usize..200,
        ) {
            let cfg = MixConfig::millennium_default()
                .with_tasks(n)
                .with_load_factor(load)
                .with_value_skew(value_skew)
                .with_decay_skew(decay_skew);
            let t = generate_trace(&cfg, seed);
            prop_assert_eq!(t.tasks.len(), n);
            for w in t.tasks.windows(2) {
                prop_assert!(w[0].arrival <= w[1].arrival);
            }
            for s in t.tasks.iter() {
                prop_assert!(s.runtime.as_f64() > 0.0);
                prop_assert!(s.value >= 0.0);
                prop_assert!(s.decay >= 0.0);
            }
        }
    }
}
