//! The task list a trace, a workflow set and a run's snapshot hold: the
//! shared bids, and beside them each task's true runtime where it differs
//! from the estimate.
//!
//! A [`TaskSpec`] is the bid and carries no true runtime. The simulators
//! still need one per task (runtime misestimation and SWF imports run a
//! task for other than its estimate), so a list keeps them in a column
//! that an accurate list does not allocate. On disk nothing moved: a list
//! writes every task as the object it always was, `"true_runtime"`
//! between `"runtime"` and `"value"`, and reads the key back into the
//! column. It is the one writer and reader of that per-task key; every
//! other document that holds a spec (a command, a queued or running job,
//! a contract) writes the bid alone.

use crate::task::{PenaltyBound, TaskId, TaskSpec};
use mbts_sim::{Duration, Time};
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::ops::Deref;
use std::sync::Arc;

/// Tasks in arrival order with dense ids, and what each really runs for.
/// It reads as the slice of its bids; cloning it clones two `Arc`s, never
/// the tasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskList {
    /// The bids, shared. To edit them, call [`Arc::make_mut`] on this
    /// field, which copies them once if anyone else still holds them.
    pub bids: Arc<[TaskSpec]>,
    /// Every task's true runtime, position for position, or `None` when
    /// each equals its estimate.
    true_runtimes: Option<Arc<[Duration]>>,
}

impl TaskList {
    /// `bids` that each run for exactly their estimate: no column.
    pub fn accurate(bids: impl Into<Arc<[TaskSpec]>>) -> Self {
        TaskList {
            bids: bids.into(),
            true_runtimes: None,
        }
    }

    /// `bids` that run for `true_runtimes`, given position for position.
    /// The column is kept only if one of them differs from its task's
    /// estimate.
    pub fn new(bids: impl Into<Arc<[TaskSpec]>>, true_runtimes: Vec<Duration>) -> Self {
        let bids = bids.into();
        assert_eq!(bids.len(), true_runtimes.len(), "one true runtime a task");
        let accurate = bids
            .iter()
            .zip(&true_runtimes)
            .all(|(t, r)| t.runtime.as_f64().to_bits() == r.as_f64().to_bits());
        TaskList {
            bids,
            true_runtimes: (!accurate).then(|| true_runtimes.into()),
        }
    }

    /// What task `i` really runs for: its estimate unless the list says
    /// otherwise.
    #[inline]
    pub fn true_runtime(&self, i: usize) -> Duration {
        match &self.true_runtimes {
            None => self.bids[i].runtime,
            Some(column) => column[i],
        }
    }

    /// `true` when every task runs for its estimate.
    pub fn is_accurate(&self) -> bool {
        self.true_runtimes.is_none()
    }
}

impl Deref for TaskList {
    type Target = [TaskSpec];

    fn deref(&self) -> &[TaskSpec] {
        &self.bids
    }
}

impl From<Vec<TaskSpec>> for TaskList {
    fn from(bids: Vec<TaskSpec>) -> Self {
        TaskList::accurate(bids)
    }
}

impl From<Arc<[TaskSpec]>> for TaskList {
    fn from(bids: Arc<[TaskSpec]>) -> Self {
        TaskList::accurate(bids)
    }
}

/// One task as a file or a snapshot writes it: the bid's fields with the
/// true runtime after the estimate.
#[derive(Serialize, Deserialize)]
struct TaskRecord {
    id: TaskId,
    #[serde(default = "crate::task::default_width")]
    width: usize,
    arrival: Time,
    runtime: Duration,
    true_runtime: Duration,
    value: f64,
    decay: f64,
    bound: PenaltyBound,
}

impl Serialize for TaskList {
    fn serialize(&self, out: &mut Writer) {
        out.begin_array();
        for (i, t) in self.bids.iter().enumerate() {
            out.element();
            TaskRecord {
                id: t.id,
                width: t.width,
                arrival: t.arrival,
                runtime: t.runtime,
                true_runtime: self.true_runtime(i),
                value: t.value,
                decay: t.decay,
                bound: t.bound,
            }
            .serialize(out);
        }
        out.end_array();
    }
}

impl Deserialize for TaskList {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let mut bids = Vec::new();
        let mut true_runtimes = Vec::new();
        input.begin_array("array")?;
        while input.next_element()? {
            let r = TaskRecord::deserialize(input)?;
            bids.push(TaskSpec {
                id: r.id,
                width: r.width,
                arrival: r.arrival,
                runtime: r.runtime,
                value: r.value,
                decay: r.decay,
                bound: r.bound,
            });
            true_runtimes.push(r.true_runtime);
        }
        Ok(TaskList::new(bids, true_runtimes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bids() -> Vec<TaskSpec> {
        vec![
            TaskSpec::new(0, 0.0, 10.0, 50.0, 1.0, PenaltyBound::ZERO),
            TaskSpec::new(1, 2.0, 4.0, 8.0, 0.5, PenaltyBound::UNBOUNDED).with_width(2),
        ]
    }

    #[test]
    fn an_accurate_list_allocates_no_column() {
        let tasks = bids();
        let runtimes = tasks.iter().map(|t| t.runtime).collect();
        let list = TaskList::new(tasks.clone(), runtimes);
        assert!(list.is_accurate());
        assert_eq!(list, TaskList::accurate(tasks));
        assert_eq!(list.true_runtime(1), Duration::from(4.0));
    }

    #[test]
    fn each_task_writes_its_true_runtime_after_its_estimate() {
        let list = TaskList::new(bids(), vec![Duration::from(14.0), Duration::from(4.0)]);
        assert_eq!(list.true_runtime(0), Duration::from(14.0));
        assert_eq!(list.true_runtime(1), Duration::from(4.0));
        let written = serde_json::to_string(&list).unwrap();
        assert_eq!(
            written,
            r#"[{"id":0,"width":1,"arrival":0.0,"runtime":10.0,"true_runtime":14.0,"value":50.0,"decay":1.0,"bound":{"Bounded":{"max_penalty":0.0}}},{"id":1,"width":2,"arrival":2.0,"runtime":4.0,"true_runtime":4.0,"value":8.0,"decay":0.5,"bound":"Unbounded"}]"#
        );
        let back: TaskList = serde_json::from_str(&written).unwrap();
        assert_eq!(back, list);
        // A bid alone writes no true runtime.
        assert!(!serde_json::to_string(&list[0])
            .unwrap()
            .contains("true_runtime"));
    }

    #[test]
    fn a_task_without_a_true_runtime_is_refused() {
        let bid = serde_json::to_string(&bids()[..1]).unwrap();
        let e = serde_json::from_str::<TaskList>(&bid).unwrap_err();
        assert!(e.to_string().contains("true_runtime"), "{e}");
    }
}
