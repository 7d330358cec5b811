//! Parallel experiment execution.
//!
//! Experiment points are embarrassingly parallel (one simulator run per
//! (configuration, seed) pair), so the harness is a work-stealing-free
//! fan-out over `std::thread::scope` — per the hpc-parallel guidance, the
//! simplest structure that saturates the cores without unsafe code or
//! shared mutable state: an atomic cursor hands out indices, results flow
//! back over an mpsc channel and are reassembled in order.
//!
//! Every experiment family is one (series × x × seed) grid over
//! [`sweep`]: the work list, the per-seed baseline pairing, the relative
//! statistic (`improvement_pct`) and the aggregation are written here
//! once.

use crate::report::{Point, Series};
use mbts_sim::OnlineStats;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Common knobs shared by every experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpParams {
    /// Trace length (the paper uses 5000).
    pub tasks: usize,
    /// Replications per point (distinct seeds, averaged).
    pub seeds: u64,
    /// First seed of the replication block.
    pub base_seed: u64,
    /// Site size the mixes are calibrated against.
    pub processors: usize,
}

impl ExpParams {
    /// Paper-scale parameters: 5000-task traces, 5 seeds, 16 processors.
    pub fn paper() -> Self {
        ExpParams {
            tasks: 5000,
            seeds: 5,
            base_seed: 1000,
            processors: 16,
        }
    }

    /// Reduced parameters for quick runs and CI: 1200-task traces,
    /// 3 seeds.
    pub fn quick() -> Self {
        ExpParams {
            tasks: 1200,
            seeds: 3,
            base_seed: 1000,
            processors: 16,
        }
    }

    /// Tiny parameters for unit tests of the experiment plumbing.
    pub fn smoke() -> Self {
        ExpParams {
            tasks: 250,
            seeds: 2,
            base_seed: 1000,
            processors: 8,
        }
    }

    /// The seed list implied by the params.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds).map(|i| self.base_seed + i).collect()
    }
}

/// Applies `f` to every element of `items` across all available cores,
/// preserving order. `f` must be `Sync` (it is called concurrently) and
/// the per-item work should dominate the scheduling overhead — true for
/// anything that runs a simulation.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(|| {
                let tx = tx; // move the clone into the worker
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    tx.send((i, r)).expect("collector outlives workers");
                }
            });
        }
        drop(tx); // close the channel once all workers hold their clones
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        debug_assert!(out[i].is_none(), "each index is produced once");
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|o| o.expect("worker produced every index"))
        .collect()
}

/// A series' reference run on one seed: the denominator of the relative
/// statistic for every cell of that series on that seed.
pub type Baseline<'a, S> = dyn Fn(&S, u64) -> f64 + Sync + 'a;

/// Percentage improvement of `treatment` over `baseline`, guarding the
/// near-zero-baseline case. Matches the paper's "Improvement over
/// FirstPrice (%)" axes (a negative baseline still reports gains as
/// positive improvements thanks to the |·|). [`seed_grid`] is its only
/// caller.
pub(crate) fn improvement_pct(treatment: f64, baseline: f64) -> f64 {
    if baseline.abs() < 1e-9 {
        0.0
    } else {
        (treatment - baseline) / baseline.abs() * 100.0
    }
}

/// Runs `cell(s, x, seed)` for every series `s`, every `x` and every seed
/// of `params`, and returns the per-seed values as `[series][x][seed]`,
/// seeds in [`ExpParams::seed_list`] order.
///
/// With a `baseline`, each value is instead `improvement_pct` of the
/// cell over `baseline(s, seed)`: the same series on the same seed
/// (common random numbers). Each baseline runs once per (series, seed).
/// Every cell and every baseline run in one [`parallel_map`] batch.
pub fn seed_grid<S: Sync, X: Sync>(
    params: &ExpParams,
    series: &[S],
    xs: &[X],
    cell: impl Fn(&S, &X, u64) -> f64 + Sync,
    baseline: Option<&Baseline<'_, S>>,
) -> Vec<Vec<Vec<f64>>> {
    let seeds = params.seed_list();
    // Per series: its baselines (when there are any), then its cells in
    // x order, each block in seed order. `x: None` is a baseline run.
    let mut runs: Vec<(usize, Option<usize>, u64)> = Vec::new();
    for si in 0..series.len() {
        if baseline.is_some() {
            runs.extend(seeds.iter().map(|&seed| (si, None, seed)));
        }
        for xi in 0..xs.len() {
            runs.extend(seeds.iter().map(|&seed| (si, Some(xi), seed)));
        }
    }
    let values = parallel_map(&runs, |&(si, xi, seed)| match (xi, baseline) {
        (Some(xi), _) => cell(&series[si], &xs[xi], seed),
        (None, Some(baseline)) => baseline(&series[si], seed),
        (None, None) => unreachable!("a baseline run is queued only with a baseline"),
    });
    let mut values = values.into_iter();
    let n = seeds.len();
    let mut grid = Vec::with_capacity(series.len());
    for _ in series {
        let base: Option<Vec<f64>> = baseline.map(|_| values.by_ref().take(n).collect());
        let row = xs
            .iter()
            .map(|_| {
                let per_seed = values.by_ref().take(n);
                match &base {
                    Some(base) => per_seed
                        .zip(base)
                        .map(|(treated, &reference)| improvement_pct(treated, reference))
                        .collect(),
                    None => per_seed.collect(),
                }
            })
            .collect();
        grid.push(row);
    }
    grid
}

/// The [`seed_grid`] of labelled series over plotted x values, each
/// cell's per-seed values aggregated (mean ± 95 % CI) into one
/// [`Point`]: one [`Series`] per `(label, s)`, one point per `(x, x_arg)`
/// at `x`.
pub fn sweep<L: AsRef<str> + Sync, S: Sync, X: Sync>(
    params: &ExpParams,
    series: &[(L, S)],
    xs: &[(f64, X)],
    cell: impl Fn(&S, &X, u64) -> f64 + Sync,
    baseline: Option<&Baseline<'_, S>>,
) -> Vec<Series> {
    let labelled = baseline.map(|baseline| move |(_, s): &(L, S), seed| baseline(s, seed));
    let grid = seed_grid(
        params,
        series,
        xs,
        |(_, s), (_, x), seed| cell(s, x, seed),
        labelled.as_ref().map(|b| b as &Baseline<'_, (L, S)>),
    );
    series
        .iter()
        .zip(grid)
        .map(|((label, _), row)| {
            let points = xs
                .iter()
                .zip(row)
                .map(|(&(x, _), per_seed)| Point {
                    x,
                    y: per_seed.into_iter().collect::<OnlineStats>().summary(),
                })
                .collect();
            Series::new(label.as_ref(), points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_singleton() {
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_handles_uneven_work() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, |&x| {
            // Simulate uneven run lengths.
            let mut acc = 0u64;
            for i in 0..(x % 7) * 1000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn improvement_pct_math() {
        assert_eq!(improvement_pct(110.0, 100.0), 10.0);
        assert_eq!(improvement_pct(90.0, 100.0), -10.0);
        // Negative baseline: getting less negative is an improvement.
        assert_eq!(improvement_pct(-50.0, -100.0), 50.0);
        assert_eq!(improvement_pct(5.0, 0.0), 0.0);
    }

    fn grid_params() -> ExpParams {
        ExpParams {
            tasks: 1,
            seeds: 3,
            base_seed: 40,
            processors: 1,
        }
    }

    /// A cell that runs nothing and spells its coordinates in its value.
    fn encode(series: &u64, x: &u64, seed: u64) -> f64 {
        (series * 10_000 + x * 100 + seed) as f64
    }

    #[test]
    fn seed_grid_is_series_then_x_then_seed() {
        let params = grid_params();
        let grid = seed_grid(&params, &[1, 2], &[3, 4, 5], encode, None);
        assert_eq!(grid.len(), 2);
        for (s, row) in [1, 2].iter().zip(&grid) {
            assert_eq!(row.len(), 3);
            for (x, per_seed) in [3, 4, 5].iter().zip(row) {
                let want: Vec<f64> = params
                    .seed_list()
                    .into_iter()
                    .map(|seed| encode(s, x, seed))
                    .collect();
                assert_eq!(per_seed, &want);
            }
        }
    }

    #[test]
    fn each_baseline_runs_once_and_pairs_with_its_own_seed() {
        let params = grid_params();
        let cells = AtomicUsize::new(0);
        let baselines = AtomicUsize::new(0);
        let reference = |series: &u64, seed: u64| (series * 1_000 + seed * seed) as f64;
        let counted = |series: &u64, seed: u64| {
            baselines.fetch_add(1, Ordering::Relaxed);
            reference(series, seed)
        };
        let grid = seed_grid(
            &params,
            &[1, 2],
            &[3, 4, 5],
            |s, x, seed| {
                cells.fetch_add(1, Ordering::Relaxed);
                encode(s, x, seed)
            },
            Some(&counted),
        );
        assert_eq!(cells.into_inner(), 2 * 3 * 3);
        assert_eq!(baselines.into_inner(), 2 * 3, "once per (series, seed)");
        for (s, row) in [1, 2].iter().zip(&grid) {
            for (x, per_seed) in [3, 4, 5].iter().zip(row) {
                let want: Vec<f64> = params
                    .seed_list()
                    .into_iter()
                    .map(|seed| improvement_pct(encode(s, x, seed), reference(s, seed)))
                    .collect();
                assert_eq!(per_seed, &want);
            }
        }
    }

    #[test]
    fn sweep_labels_each_series_and_places_each_point_at_its_x() {
        let params = grid_params();
        let series = sweep(
            &params,
            &[("a", 1), ("b", 2)],
            &[(0.5, 3), (7.0, 4)],
            encode,
            None,
        );
        let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
        let xs: Vec<f64> = series[1].points.iter().map(|p| p.x).collect();
        assert_eq!(xs, [0.5, 7.0]);
        let y = series[1].points[1].y;
        assert_eq!((y.count, y.min, y.max), (3, 20_440.0, 20_442.0));
        assert_eq!(y.mean, 20_441.0);
    }

    #[test]
    fn seed_list_is_contiguous() {
        let p = ExpParams {
            tasks: 10,
            seeds: 3,
            base_seed: 42,
            processors: 4,
        };
        assert_eq!(p.seed_list(), vec![42, 43, 44]);
    }

    #[test]
    fn presets_are_ordered_by_scale() {
        assert!(ExpParams::smoke().tasks < ExpParams::quick().tasks);
        assert!(ExpParams::quick().tasks < ExpParams::paper().tasks);
    }
}
