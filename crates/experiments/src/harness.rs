//! Parallel experiment execution.
//!
//! Experiment points are embarrassingly parallel (one simulator run per
//! (configuration, seed) pair), so the harness is a work-stealing-free
//! fan-out over `std::thread::scope` — per the hpc-parallel guidance, the
//! simplest structure that saturates the cores without unsafe code or
//! shared mutable state: an atomic cursor hands out indices, results flow
//! back over an mpsc channel and are reassembled in order.

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
