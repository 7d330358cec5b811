//! Traces: a generated task stream plus its provenance, serializable for
//! replay and inspection.

use crate::config::MixConfig;
use crate::task::{TaskId, TaskSpec};
use crate::tasklist::TaskList;
use mbts_sim::{pin_malloc_thresholds, OnlineStats, Time};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A concrete workload: tasks sorted by arrival, plus the config and seed
/// that produced them.
///
/// The tasks are one immutable shared list: cloning a trace, starting a
/// site or market run over it, and snapshotting that run all share the
/// same allocation. They are bids; what each really runs for is
/// [`TaskList::true_runtime`], kept in a column only when a task's differs
/// from its estimate (runtime misestimation, SWF imports), and a trace
/// file writes it with each task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The mix this trace was drawn from.
    pub config: MixConfig,
    /// Root seed of the generator's RNG streams.
    pub seed: u64,
    /// Tasks in arrival order with dense ids.
    pub tasks: TaskList,
}

/// Aggregate descriptive statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of tasks.
    pub num_tasks: usize,
    /// Span from first to last arrival, in time units.
    pub arrival_span: f64,
    /// Total requested work: Σ width · runtime (processor-time units).
    pub total_work: f64,
    /// Sum of maximum task values — the yield ceiling of any schedule.
    pub total_value: f64,
    /// Realized offered load: `total_work / (arrival_span · processors)`.
    pub offered_load: f64,
    /// Mean runtime estimate.
    pub mean_runtime: f64,
    /// Mean unit value (`value/runtime`).
    pub mean_unit_value: f64,
    /// Mean decay rate.
    pub mean_decay: f64,
}

impl Trace {
    /// Wraps generated tasks (a bare `Vec` or `Arc` of bids runs each for
    /// its estimate); validates ordering and id density. Every
    /// constructed trace (concatenated, read from SWF) pins the allocator
    /// policy ([`pin_malloc_thresholds`]) first.
    pub fn new(config: MixConfig, seed: u64, tasks: impl Into<TaskList>) -> Self {
        pin_malloc_thresholds();
        let tasks = tasks.into();
        debug_assert!(tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        debug_assert!(tasks.iter().enumerate().all(|(i, t)| t.id.index() == i));
        Trace {
            config,
            seed,
            tasks,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Computes descriptive statistics.
    pub fn stats(&self) -> TraceStats {
        let mut runtime = OnlineStats::new();
        let mut unit_value = OnlineStats::new();
        let mut decay = OnlineStats::new();
        let mut total_work = 0.0;
        let mut total_value = 0.0;
        for t in self.tasks.iter() {
            runtime.push(t.runtime.as_f64());
            unit_value.push(t.unit_value());
            decay.push(t.decay);
            total_work += t.work();
            total_value += t.value;
        }
        let arrival_span = match (self.tasks.first(), self.tasks.last()) {
            (Some(first), Some(last)) => (last.arrival - first.arrival).as_f64(),
            _ => 0.0,
        };
        let offered_load = if arrival_span > 0.0 {
            total_work / (arrival_span * self.config.processors as f64)
        } else {
            f64::INFINITY
        };
        TraceStats {
            num_tasks: self.tasks.len(),
            arrival_span,
            total_work,
            total_value,
            offered_load,
            mean_runtime: runtime.mean(),
            mean_unit_value: unit_value.mean(),
            mean_decay: decay.mean(),
        }
    }

    /// Concatenates phases into one trace: each phase's arrivals are
    /// shifted to start `gap` after the previous phase's last arrival and
    /// ids are re-densified. Used to build non-stationary workloads (e.g.
    /// a load surge) from stationary generator output. The resulting
    /// trace keeps the first phase's config for bookkeeping.
    pub fn concatenate(phases: &[Trace], gap: f64) -> Trace {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(gap >= 0.0, "gap must be non-negative");
        // A phase's arrival `a` moves to `a − base + offset`: `base` is its
        // first arrival, `offset` is `gap` after the previous phase's last
        // moved arrival.
        let moved = |a: Time, base: f64, offset: f64| Time::new(a.as_f64() - base + offset);
        let mut offset = 0.0;
        let shifts: Vec<(f64, f64)> = phases
            .iter()
            .map(|phase| {
                let base = phase.tasks.first().map_or(0.0, |t| t.arrival.as_f64());
                let shift = (base, offset);
                let last = phase
                    .tasks
                    .last()
                    .map_or(offset, |t| moved(t.arrival, base, offset).as_f64());
                offset = last + gap;
                shift
            })
            .collect();
        let mut source = phases
            .iter()
            .zip(shifts)
            .flat_map(|(phase, (base, offset))| {
                phase.tasks.iter().map(move |t| (*t, base, offset))
            });
        // Collecting an exact-size range writes the slice in place.
        let tasks: Arc<[TaskSpec]> = (0..phases.iter().map(Trace::len).sum())
            .map(|i| {
                let (mut t, base, offset) = source.next().expect("phase lengths were summed");
                t.id = TaskId(i as u64);
                t.arrival = moved(t.arrival, base, offset);
                t
            })
            .collect();
        let tasks = if phases.iter().all(|p| p.tasks.is_accurate()) {
            TaskList::accurate(tasks)
        } else {
            let column = phases
                .iter()
                .flat_map(|p| (0..p.len()).map(|i| p.tasks.true_runtime(i)))
                .collect();
            TaskList::new(tasks, column)
        };
        Trace::new(phases[0].config.clone(), phases[0].seed, tasks)
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the trace as JSON to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Reads a JSON trace from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MixConfig;
    use crate::generator::generate_trace;
    use crate::task::PenaltyBound;

    fn tiny() -> Trace {
        generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(300)
                .with_processors(4),
            17,
        )
    }

    #[test]
    fn stats_are_consistent() {
        let t = tiny();
        let s = t.stats();
        assert_eq!(s.num_tasks, 300);
        assert!(s.arrival_span > 0.0);
        assert!(s.total_work > 0.0);
        assert!(s.total_value > 0.0);
        assert!((s.mean_runtime - s.total_work / 300.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip() {
        let t = tiny();
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn file_roundtrip() {
        let t = tiny();
        let dir = std::env::temp_dir().join("mbts-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("mbts-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(Trace::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_stats_are_benign() {
        let t = Trace::new(MixConfig::millennium_default(), 0, vec![]);
        let s = t.stats();
        assert_eq!(s.num_tasks, 0);
        assert_eq!(s.total_work, 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn single_task_trace() {
        let spec = TaskSpec::new(0, 0.0, 10.0, 50.0, 1.0, PenaltyBound::ZERO);
        let t = Trace::new(MixConfig::millennium_default().with_tasks(1), 0, vec![spec]);
        let s = t.stats();
        assert_eq!(s.num_tasks, 1);
        assert_eq!(s.arrival_span, 0.0);
        assert!(s.offered_load.is_infinite());
        assert_eq!(s.mean_unit_value, 5.0);
    }

    #[test]
    fn a_misestimated_trace_keeps_its_true_runtimes_through_a_file_and_a_join() {
        let mix = MixConfig::millennium_default()
            .with_tasks(40)
            .with_processors(4);
        let accurate = generate_trace(&mix, 5);
        let misestimated = generate_trace(&mix.clone().with_runtime_error(0.5), 5);
        assert!(accurate.tasks.is_accurate());
        assert!(!misestimated.tasks.is_accurate());
        let back = Trace::from_json(&misestimated.to_json()).unwrap();
        assert_eq!(back, misestimated);
        let joined = Trace::concatenate(&[accurate.clone(), misestimated.clone()], 1.0);
        for i in 0..40 {
            assert_eq!(joined.tasks.true_runtime(i), accurate.tasks[i].runtime);
            assert_eq!(
                joined.tasks.true_runtime(40 + i),
                misestimated.tasks.true_runtime(i)
            );
        }
        let twice = Trace::concatenate(&[accurate.clone(), accurate], 1.0);
        assert!(twice.tasks.is_accurate());
    }

    #[test]
    fn concatenated_phases_follow_each_other_by_the_gap() {
        let first = tiny();
        let empty = Trace::new(MixConfig::millennium_default(), 0, vec![]);
        let last = generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(50)
                .with_processors(4),
            18,
        );
        let joined = Trace::concatenate(&[first.clone(), empty, last.clone()], 7.0);
        assert_eq!(joined.len(), 350);
        assert!(joined
            .tasks
            .iter()
            .enumerate()
            .all(|(i, t)| t.id.index() == i));
        // Each phase keeps its own spacing; an empty phase adds one gap.
        let base = first.tasks[0].arrival.as_f64();
        for (t, orig) in joined.tasks.iter().zip(first.tasks.iter()) {
            assert_eq!(t.arrival.as_f64(), orig.arrival.as_f64() - base);
            assert_eq!((t.runtime, t.value), (orig.runtime, orig.value));
        }
        let offset = joined.tasks[299].arrival.as_f64() + 7.0 + 7.0;
        let base = last.tasks[0].arrival.as_f64();
        for (t, orig) in joined.tasks[300..].iter().zip(last.tasks.iter()) {
            assert_eq!(t.arrival.as_f64(), orig.arrival.as_f64() - base + offset);
        }
    }
}
