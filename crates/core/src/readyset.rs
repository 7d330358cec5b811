//! Dependency resolution for DAG workflows.
//!
//! Sites schedule *released* tasks; this module decides when release
//! happens. A [`ReadySet`] tracks unsatisfied predecessor counts and
//! hands back the newly-ready successors of each completion, so the
//! existing [`PendingPool`](crate::PendingPool) never sees a task whose
//! predecessors are still running. A [`WorkflowRuntime`] wraps the
//! ready set with per-workflow progress accounting: it notices when a
//! workflow's last task completes (or when any member fails), computes
//! the workflow-level settled yield from the workflow's decaying value
//! function, and attributes it along the static critical path (see
//! `DESIGN.md` §14).
//!
//! Everything here is deterministic — released and stranded task lists
//! come back sorted — and serializable, because workflow progress is
//! part of a run's snapshot/journal state.

use mbts_sim::Time;
use mbts_workload::workflow::{attribute_critical_path, WorkflowSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tracks which tasks are still waiting on predecessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadySet {
    /// Successor adjacency, by task id.
    succs: BTreeMap<u64, Vec<u64>>,
    /// Unsatisfied predecessor counts; a task is present iff it is
    /// still waiting (neither released nor stranded).
    pred_count: BTreeMap<u64, usize>,
}

impl ReadySet {
    /// Builds the ready set of `set`'s precedence edges. Root tasks
    /// (no predecessors) are never waiting.
    pub fn new(set: &WorkflowSet) -> Self {
        let mut succs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut pred_count: BTreeMap<u64, usize> = BTreeMap::new();
        for (p, s) in set.edge_ids() {
            succs.entry(p).or_default().push(s);
            *pred_count.entry(s).or_insert(0) += 1;
        }
        for v in succs.values_mut() {
            v.sort_unstable();
        }
        ReadySet { succs, pred_count }
    }

    /// Number of tasks still waiting on predecessors.
    pub fn waiting(&self) -> usize {
        self.pred_count.len()
    }

    /// Records `task`'s completion; returns the successors this makes
    /// ready, sorted ascending.
    pub fn on_complete(&mut self, task: u64) -> Vec<u64> {
        let mut released = Vec::new();
        for &s in self.succs.get(&task).map(|v| v.as_slice()).unwrap_or(&[]) {
            if let Some(n) = self.pred_count.get_mut(&s) {
                *n -= 1;
                if *n == 0 {
                    self.pred_count.remove(&s);
                    released.push(s);
                }
            }
        }
        released.sort_unstable();
        released
    }

    /// Records `task`'s failure; returns its transitive descendants
    /// that were still waiting — now stranded, removed from the waiting
    /// set — sorted ascending. Descendants already released (their
    /// other predecessors completed first… impossible for direct
    /// successors, possible further down) are not touched.
    pub fn on_failure(&mut self, task: u64) -> Vec<u64> {
        let mut stranded = Vec::new();
        let mut frontier = vec![task];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(t) = frontier.pop() {
            for &s in self.succs.get(&t).map(|v| v.as_slice()).unwrap_or(&[]) {
                if !seen.insert(s) {
                    continue;
                }
                if self.pred_count.remove(&s).is_some() {
                    stranded.push(s);
                }
                frontier.push(s);
            }
        }
        stranded.sort_unstable();
        stranded
    }
}

/// The settlement of one workflow: its end-to-end decayed yield and the
/// critical-path attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSettlement {
    /// Workflow id.
    pub workflow: u64,
    /// When the last member task completed (or failed).
    pub settled_at: Time,
    /// Workflow-level yield: the workflow value function evaluated at
    /// the sink completion (zero for failed workflows).
    pub earned: f64,
    /// `(task id, attributed yield)` along the static critical path,
    /// summing exactly to `earned`. Empty for failed workflows.
    pub attribution: Vec<(u64, f64)>,
    /// `true` when any member task failed (stranded, dropped,
    /// cancelled or rejected) — the workflow earns nothing.
    pub failed: bool,
}

/// What one completion or failure changed at the workflow level.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkflowProgress {
    /// Task ids released by this event, sorted ascending.
    pub released: Vec<u64>,
    /// Task ids stranded by this event, sorted ascending.
    pub stranded: Vec<u64>,
    /// The settlement, when this event finished its workflow.
    pub settlement: Option<WorkflowSettlement>,
}

/// Aggregate workflow accounting for reports and audits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkflowReport {
    /// Total workflows in the set.
    pub workflows: usize,
    /// Workflows settled so far (complete or failed).
    pub settled: usize,
    /// Of those, workflows with at least one failed member.
    pub failed: usize,
    /// Σ earned over settled workflows.
    pub total_earned: f64,
    /// Per-workflow settlements, in settlement order.
    pub settlements: Vec<WorkflowSettlement>,
}

/// Per-workflow progress bookkeeping over a [`ReadySet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowRuntime {
    set: WorkflowSet,
    ready: ReadySet,
    /// Task id → workflow id.
    owner: BTreeMap<u64, u64>,
    /// Workflow id → member tasks not yet completed or failed.
    remaining: BTreeMap<u64, usize>,
    /// Workflow ids with at least one failed member.
    failed: std::collections::BTreeSet<u64>,
    /// Workflow id → latest member completion/failure instant.
    last_event: BTreeMap<u64, Time>,
    /// Settlements in settlement order.
    settlements: Vec<WorkflowSettlement>,
}

impl WorkflowRuntime {
    /// Builds the runtime for `set`.
    pub fn new(set: WorkflowSet) -> Self {
        let ready = ReadySet::new(&set);
        let mut owner = BTreeMap::new();
        let mut remaining = BTreeMap::new();
        for w in &set.workflows {
            remaining.insert(w.id, w.tasks.len());
            for &t in &w.tasks {
                owner.insert(set.tasks[t].id.0, w.id);
            }
        }
        WorkflowRuntime {
            set,
            ready,
            owner,
            remaining,
            failed: Default::default(),
            last_event: BTreeMap::new(),
            settlements: Vec::new(),
        }
    }

    /// The underlying workflow set.
    pub fn set(&self) -> &WorkflowSet {
        &self.set
    }

    /// Global trace indices of root tasks (released at arrival).
    pub fn roots(&self) -> Vec<usize> {
        self.set.roots()
    }

    /// Number of tasks still waiting on predecessors.
    pub fn waiting(&self) -> usize {
        self.ready.waiting()
    }

    /// Records the completion of `task` at `at`: releases ready
    /// successors and settles the workflow if this was its last task.
    pub fn on_complete(&mut self, task: u64, at: Time) -> WorkflowProgress {
        let released = self.ready.on_complete(task);
        let settlement = self.note_member_done(task, at, false);
        WorkflowProgress {
            released,
            stranded: Vec::new(),
            settlement,
        }
    }

    /// Records the failure of `task` at `at` (dropped, cancelled,
    /// rejected or abandoned): strands its waiting
    /// descendants, marks the workflow failed, and settles it once no
    /// member remains outstanding. The stranded tasks are accounted
    /// done here — callers record their outcomes but must not call
    /// [`on_failure`](Self::on_failure) again for them.
    pub fn on_failure(&mut self, task: u64, at: Time) -> WorkflowProgress {
        let stranded = self.ready.on_failure(task);
        let mut settlement = self.note_member_done(task, at, true);
        for &s in &stranded {
            debug_assert_eq!(self.owner.get(&s), self.owner.get(&task));
            let settled = self.note_member_done(s, at, true);
            settlement = settlement.or(settled);
        }
        WorkflowProgress {
            released: Vec::new(),
            stranded,
            settlement,
        }
    }

    fn note_member_done(
        &mut self,
        task: u64,
        at: Time,
        failure: bool,
    ) -> Option<WorkflowSettlement> {
        let &wf = self.owner.get(&task)?;
        if failure {
            self.failed.insert(wf);
        }
        let last = self.last_event.entry(wf).or_insert(at);
        if at > *last {
            *last = at;
        }
        let rem = self.remaining.get_mut(&wf).expect("owned workflow");
        debug_assert!(*rem > 0, "workflow {wf} over-settled");
        *rem -= 1;
        if *rem > 0 {
            return None;
        }
        let settlement = self.settle(wf);
        self.settlements.push(settlement.clone());
        Some(settlement)
    }

    fn settle(&self, wf: u64) -> WorkflowSettlement {
        let w = self
            .set
            .workflows
            .iter()
            .find(|w| w.id == wf)
            .expect("settled workflow exists");
        let settled_at = self.last_event.get(&wf).copied().unwrap_or(w.arrival);
        if self.failed.contains(&wf) {
            return WorkflowSettlement {
                workflow: wf,
                settled_at,
                earned: 0.0,
                attribution: Vec::new(),
                failed: true,
            };
        }
        let critical = self.set.critical_path(w);
        let critical_rt: f64 = critical
            .iter()
            .map(|&t| self.set.tasks[t].runtime.as_f64())
            .sum();
        let earned = w.yield_at(critical_rt, settled_at);
        let attribution = attribute_critical_path(&self.set, &critical, earned);
        WorkflowSettlement {
            workflow: wf,
            settled_at,
            earned,
            attribution,
            failed: false,
        }
    }

    /// Settlements recorded so far, in settlement order.
    pub fn settlements(&self) -> &[WorkflowSettlement] {
        &self.settlements
    }

    /// Aggregate report over the settlements so far.
    pub fn report(&self) -> WorkflowReport {
        WorkflowReport {
            workflows: self.set.workflows.len(),
            settled: self.settlements.len(),
            failed: self.settlements.iter().filter(|s| s.failed).count(),
            total_earned: self.settlements.iter().map(|s| s.earned).sum(),
            settlements: self.settlements.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::workflow::{generate_workflows, WorkflowConfig, WorkflowShape};

    fn pipeline_set(depth: usize) -> WorkflowSet {
        generate_workflows(
            &WorkflowConfig::default_set()
                .with_shape(WorkflowShape::Pipeline { depth })
                .with_workflows(1),
            7,
        )
    }

    #[test]
    fn pipeline_releases_one_at_a_time() {
        let set = pipeline_set(3);
        let mut rt = WorkflowRuntime::new(set.clone());
        assert_eq!(rt.roots(), vec![0]);
        assert_eq!(rt.waiting(), 2);
        let p = rt.on_complete(0, Time::from(10.0));
        assert_eq!(p.released, vec![1]);
        assert!(p.settlement.is_none());
        let p = rt.on_complete(1, Time::from(20.0));
        assert_eq!(p.released, vec![2]);
        let p = rt.on_complete(2, Time::from(30.0));
        assert!(p.released.is_empty());
        let s = p.settlement.expect("last completion settles");
        assert_eq!(s.workflow, 0);
        assert!(!s.failed);
        assert_eq!(s.settled_at, Time::from(30.0));
        let attributed: f64 = s.attribution.iter().map(|(_, v)| v).sum();
        assert_eq!(attributed.to_bits(), s.earned.to_bits());
        assert_eq!(rt.waiting(), 0);
    }

    #[test]
    fn fork_join_waits_for_every_branch() {
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_shape(WorkflowShape::ForkJoin { width: 3 })
                .with_workflows(1),
            3,
        );
        let mut rt = WorkflowRuntime::new(set);
        // Source completes: all three branches release.
        let p = rt.on_complete(0, Time::from(5.0));
        assert_eq!(p.released, vec![1, 2, 3]);
        // Sink waits for the last branch.
        assert!(rt.on_complete(1, Time::from(8.0)).released.is_empty());
        assert!(rt.on_complete(3, Time::from(9.0)).released.is_empty());
        let p = rt.on_complete(2, Time::from(11.0));
        assert_eq!(p.released, vec![4]);
        let p = rt.on_complete(4, Time::from(20.0));
        assert!(p.settlement.is_some());
    }

    #[test]
    fn failure_strands_descendants_and_zeroes_the_workflow() {
        let set = pipeline_set(4);
        let mut rt = WorkflowRuntime::new(set);
        rt.on_complete(0, Time::from(10.0));
        // Task 1 fails: 2 and 3 are stranded, workflow settles failed.
        let p = rt.on_failure(1, Time::from(15.0));
        assert_eq!(p.stranded, vec![2, 3]);
        let s = p.settlement.expect("all members accounted");
        assert!(s.failed);
        assert_eq!(s.earned, 0.0);
        assert!(s.attribution.is_empty());
        assert_eq!(rt.waiting(), 0);
        let report = rt.report();
        assert_eq!(report.settled, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.total_earned, 0.0);
    }

    #[test]
    fn late_completion_decays_the_workflow_value() {
        let set = pipeline_set(2);
        let w = set.workflows[0].clone();
        let crit_rt = set.critical_runtime(&w);
        let mut rt = WorkflowRuntime::new(set);
        rt.on_complete(0, Time::from(1.0));
        let late = w.arrival + mbts_sim::Duration::new(crit_rt + 3.0);
        let s = rt.on_complete(1, late).settlement.unwrap();
        let expect = (w.value - 3.0 * w.decay).max(w.bound.floor());
        assert!((s.earned - expect).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip_mid_flight() {
        let set = pipeline_set(3);
        let mut rt = WorkflowRuntime::new(set);
        rt.on_complete(0, Time::from(10.0));
        let json = serde_json::to_string(&rt).unwrap();
        let mut back: WorkflowRuntime = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rt);
        // Both continue identically.
        let a = rt.on_complete(1, Time::from(20.0));
        let b = back.on_complete(1, Time::from(20.0));
        assert_eq!(a, b);
    }
}
