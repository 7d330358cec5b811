//! DAG workflows with decaying value.
//!
//! The paper prices independent tasks; this module generates *workflows* —
//! seeded DAGs of tasks where the **workflow** carries the decaying value
//! function and each task receives a work-share slice of it. Three shapes
//! cover the canonical structures of the workflow-scheduling literature
//! (fork-join, pipeline, random layered), all behind one
//! [`WorkflowConfig`] with independent named RNG streams per stochastic
//! dimension, so common-random-number comparisons survive knob changes
//! exactly as they do for [`MixConfig`](crate::MixConfig) traces.
//!
//! Beyond generation, the module computes the static critical path along
//! which settled workflow yield is attributed, with an exact-remainder
//! split so the attribution sums to the settled yield *bitwise*, and the
//! per-task [`TaskFacet`]s that stamp decision provenance.
//!
//! Structural validation returns typed [`WorkflowError`]s (cycles,
//! dangling edges, self-loops, cross-workflow edges) instead of
//! panicking; the topological order doubles as the acyclicity witness.

use crate::config::BoundPolicy;
use crate::task::{PenaltyBound, TaskSpec};
use crate::trace::Trace;
use mbts_sim::{Dist, RngFactory, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// DAG shape of every workflow in a set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkflowShape {
    /// One source fans out to `width` parallel tasks which join into one
    /// sink: `width + 2` tasks, diameter 3.
    ForkJoin {
        /// Parallel tasks between source and sink (≥ 1).
        width: usize,
    },
    /// A chain of `depth` tasks, each depending on its predecessor.
    Pipeline {
        /// Chain length (≥ 1).
        depth: usize,
    },
    /// `layers` layers of `width` tasks; each task in layer `L > 0`
    /// draws an edge from each task of layer `L − 1` with probability
    /// `edge_prob` and is guaranteed at least one predecessor (a seeded
    /// uniform pick when every coin comes up tails).
    RandomLayered {
        /// Number of layers (≥ 1).
        layers: usize,
        /// Tasks per layer (≥ 1).
        width: usize,
        /// Probability of each layer-to-layer edge, in `[0, 1]`.
        edge_prob: f64,
    },
}

impl WorkflowShape {
    /// Tasks per workflow under this shape.
    pub fn tasks_per_workflow(&self) -> usize {
        match self {
            WorkflowShape::ForkJoin { width } => width + 2,
            WorkflowShape::Pipeline { depth } => *depth,
            WorkflowShape::RandomLayered { layers, width, .. } => layers * width,
        }
    }

    /// Short label for experiment tables and fixture names.
    pub fn label(&self) -> &'static str {
        match self {
            WorkflowShape::ForkJoin { .. } => "fork-join",
            WorkflowShape::Pipeline { .. } => "pipeline",
            WorkflowShape::RandomLayered { .. } => "layered",
        }
    }
}

/// Full description of a synthetic workflow set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Number of workflows in the set.
    pub workflows: usize,
    /// DAG shape shared by every workflow.
    pub shape: WorkflowShape,
    /// Site capacity the load factor is calibrated against.
    pub processors: usize,
    /// Offered load: total requested work per unit time / capacity.
    pub load_factor: f64,
    /// Per-task runtime distribution.
    pub runtime: Dist,
    /// Mean workflow *unit value*: workflow value = unit value × total
    /// workflow runtime (drawn exponentially around this mean).
    pub mean_unit_value: f64,
    /// Mean workflow decay rate (drawn exponentially around this mean).
    pub mean_decay: f64,
    /// Penalty-bound assignment for the workflow-level value function
    /// (tasks inherit a work-share slice of it).
    pub bound: BoundPolicy,
}

impl WorkflowConfig {
    /// A small default: 8 fork-join workflows of width 3 against 4
    /// processors at load 1.
    pub fn default_set() -> Self {
        WorkflowConfig {
            workflows: 8,
            shape: WorkflowShape::ForkJoin { width: 3 },
            processors: 4,
            load_factor: 1.0,
            runtime: Dist::exponential(50.0),
            mean_unit_value: 1.0,
            mean_decay: 0.5,
            bound: BoundPolicy::ZeroFloor,
        }
    }

    /// Sets the number of workflows.
    pub fn with_workflows(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one workflow");
        self.workflows = n;
        self
    }

    /// Sets the DAG shape.
    pub fn with_shape(mut self, shape: WorkflowShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the calibration capacity.
    pub fn with_processors(mut self, p: usize) -> Self {
        assert!(p > 0, "site must have at least one processor");
        self.processors = p;
        self
    }

    /// Sets the offered load factor.
    pub fn with_load_factor(mut self, load: f64) -> Self {
        assert!(load > 0.0, "load factor must be positive");
        self.load_factor = load;
        self
    }

    /// Sets the penalty-bound policy.
    pub fn with_bound(mut self, b: BoundPolicy) -> Self {
        self.bound = b;
        self
    }

    /// Mean gap between workflow arrivals implied by the load factor:
    /// one workflow offers `tasks_per_workflow × E[runtime]`
    /// processor-time units of work.
    pub fn mean_arrival_gap(&self) -> f64 {
        let work = self.shape.tasks_per_workflow() as f64 * self.runtime.mean();
        work / (self.load_factor * self.processors as f64)
    }
}

/// One generated workflow: the decaying value function it carries plus
/// its task slice and precedence edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// Workflow id (dense, arrival-ordered).
    pub id: u64,
    /// Arrival instant (shared by every member task's value clock).
    pub arrival: Time,
    /// Maximum workflow value, earned if the sink completes by
    /// `arrival + critical-path runtime`.
    pub value: f64,
    /// Workflow value decay per unit delay beyond that.
    pub decay: f64,
    /// Penalty floor of the workflow value function.
    pub bound: PenaltyBound,
    /// Member tasks as *global* trace indices (contiguous ascending).
    pub tasks: Vec<usize>,
    /// Precedence edges as `(pred, succ)` global trace indices.
    pub edges: Vec<(usize, usize)>,
}

impl WorkflowSpec {
    /// Workflow-level yield if the last task completes at `completion`:
    /// the decaying value function referenced to `arrival +
    /// critical-path runtime`, clamped at the penalty floor.
    pub fn yield_at(&self, critical_runtime: f64, completion: Time) -> f64 {
        let spec = TaskSpec::new(
            self.id,
            self.arrival.as_f64(),
            critical_runtime.max(1e-12),
            self.value,
            self.decay,
            self.bound,
        );
        spec.yield_at(completion)
    }
}

/// A generated workflow set: the flat task trace (dense ids, arrival
/// order) plus per-workflow structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSet {
    /// The config this set was drawn from.
    pub config: WorkflowConfig,
    /// Root seed of the generator's RNG streams.
    pub seed: u64,
    /// All tasks, dense ids in arrival order (per-task value/decay are
    /// work-share slices of their workflow's). Shared, like
    /// [`Trace::tasks`], with the trace [`trace`](Self::trace) returns.
    pub tasks: Arc<[TaskSpec]>,
    /// Per-workflow structure, arrival order.
    pub workflows: Vec<WorkflowSpec>,
}

/// A structural defect in a workflow set. Typed so callers can reject
/// hand-edited or corrupted sets without panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// A workflow has no tasks.
    EmptyWorkflow {
        /// Offending workflow id.
        workflow: u64,
    },
    /// An edge endpoint is not a member task of its workflow.
    DanglingEdge {
        /// Offending workflow id.
        workflow: u64,
        /// The `(pred, succ)` edge with a foreign endpoint.
        edge: (usize, usize),
    },
    /// An edge from a task to itself.
    SelfLoop {
        /// Offending workflow id.
        workflow: u64,
        /// The task with the self-edge.
        task: usize,
    },
    /// The precedence relation contains a cycle (no topological order
    /// exists).
    CycleDetected {
        /// Offending workflow id.
        workflow: u64,
    },
    /// A task index appears in more than one workflow (or not at all).
    TaskNotOwned {
        /// The unowned or doubly-owned task index.
        task: usize,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::EmptyWorkflow { workflow } => {
                write!(f, "workflow {workflow} has no tasks")
            }
            WorkflowError::DanglingEdge { workflow, edge } => write!(
                f,
                "workflow {workflow}: edge ({}, {}) references a non-member task",
                edge.0, edge.1
            ),
            WorkflowError::SelfLoop { workflow, task } => {
                write!(f, "workflow {workflow}: task {task} depends on itself")
            }
            WorkflowError::CycleDetected { workflow } => {
                write!(f, "workflow {workflow}: precedence edges contain a cycle")
            }
            WorkflowError::TaskNotOwned { task } => {
                write!(f, "task {task} is not owned by exactly one workflow")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Per-task workflow facts stamped on decision provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskFacet {
    /// Owning workflow id.
    pub workflow: u64,
    /// `true` when the task lies on its workflow's static critical path.
    pub critical: bool,
}

/// Task-id-keyed facet table, installed into site configs so decision
/// provenance names each task's workflow.
pub type WorkflowFacets = BTreeMap<u64, TaskFacet>;

impl WorkflowSet {
    /// Validates structure: every task owned by exactly one workflow,
    /// edges internal and irreflexive, and every workflow acyclic. The
    /// per-workflow topological orders double as acyclicity witnesses.
    pub fn validate(&self) -> Result<(), WorkflowError> {
        let mut owner = vec![0usize; self.tasks.len()];
        for w in &self.workflows {
            if w.tasks.is_empty() {
                return Err(WorkflowError::EmptyWorkflow { workflow: w.id });
            }
            for &t in &w.tasks {
                if t >= self.tasks.len() {
                    return Err(WorkflowError::TaskNotOwned { task: t });
                }
                owner[t] += 1;
            }
        }
        if let Some(task) = owner.iter().position(|&n| n != 1) {
            return Err(WorkflowError::TaskNotOwned { task });
        }
        for w in &self.workflows {
            self.topological_order(w)?;
        }
        Ok(())
    }

    /// A topological order of `w`'s tasks (global indices), or the typed
    /// error that rules one out. Deterministic: ready tasks are taken in
    /// ascending index order (Kahn's algorithm over a sorted frontier).
    pub fn topological_order(&self, w: &WorkflowSpec) -> Result<Vec<usize>, WorkflowError> {
        let member: std::collections::BTreeSet<usize> = w.tasks.iter().copied().collect();
        let mut preds: BTreeMap<usize, usize> = w.tasks.iter().map(|&t| (t, 0)).collect();
        let mut succs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(p, s) in &w.edges {
            if !member.contains(&p) || !member.contains(&s) {
                return Err(WorkflowError::DanglingEdge {
                    workflow: w.id,
                    edge: (p, s),
                });
            }
            if p == s {
                return Err(WorkflowError::SelfLoop {
                    workflow: w.id,
                    task: p,
                });
            }
            *preds.get_mut(&s).expect("member") += 1;
            succs.entry(p).or_default().push(s);
        }
        let mut ready: std::collections::BTreeSet<usize> = preds
            .iter()
            .filter(|(_, &n)| n == 0)
            .map(|(&t, _)| t)
            .collect();
        let mut order = Vec::with_capacity(w.tasks.len());
        while let Some(&t) = ready.iter().next() {
            ready.remove(&t);
            order.push(t);
            for &s in succs.get(&t).map(|v| v.as_slice()).unwrap_or(&[]) {
                let n = preds.get_mut(&s).expect("member");
                *n -= 1;
                if *n == 0 {
                    ready.insert(s);
                }
            }
        }
        if order.len() != w.tasks.len() {
            return Err(WorkflowError::CycleDetected { workflow: w.id });
        }
        Ok(order)
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("workflow-set serialization cannot fail")
    }

    /// Deserializes from a JSON string and validates structure, so a
    /// hand-edited or corrupt file is refused with a typed reason
    /// instead of panicking mid-replay.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let set: WorkflowSet = serde_json::from_str(json).map_err(|e| e.to_string())?;
        set.validate().map_err(|e| format!("{e:?}"))?;
        Ok(set)
    }

    /// Writes the set as JSON to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and validates a JSON workflow set from `path`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The flat trace for replay through the existing engines. The
    /// embedded [`MixConfig`](crate::MixConfig) carries the calibration
    /// size and load for bookkeeping only.
    pub fn trace(&self) -> Trace {
        let mix = crate::config::MixConfig::millennium_default()
            .with_tasks(self.tasks.len().max(1))
            .with_processors(self.config.processors)
            .with_load_factor(self.config.load_factor);
        Trace::new(mix, self.seed, Arc::clone(&self.tasks))
    }

    /// Global indices of tasks with no predecessors (released at their
    /// workflow's arrival).
    pub fn roots(&self) -> Vec<usize> {
        let mut has_pred = vec![false; self.tasks.len()];
        for w in &self.workflows {
            for &(_, s) in &w.edges {
                if s < has_pred.len() {
                    has_pred[s] = true;
                }
            }
        }
        (0..self.tasks.len()).filter(|&i| !has_pred[i]).collect()
    }

    /// All precedence edges as `(pred, succ)` task-id pairs.
    pub fn edge_ids(&self) -> Vec<(u64, u64)> {
        self.workflows
            .iter()
            .flat_map(|w| w.edges.iter().map(|&(p, s)| (p as u64, s as u64)))
            .collect()
    }

    /// The workflow owning global task index `t`.
    pub fn workflow_of(&self, t: usize) -> Option<usize> {
        self.workflows.iter().position(|w| w.tasks.contains(&t))
    }

    /// Critical-path runtime of `w`: the longest Σ-runtime chain through
    /// the DAG (the workflow's earliest possible makespan on unbounded
    /// processors, and the reference point of its value clock).
    pub fn critical_runtime(&self, w: &WorkflowSpec) -> f64 {
        self.critical_path(w)
            .iter()
            .map(|&t| self.tasks[t].runtime.as_f64())
            .sum()
    }

    /// The static critical path of `w` as global task indices in
    /// precedence order. Ties break toward the smaller task index, so
    /// the path is deterministic. Requires a valid (acyclic) workflow.
    pub fn critical_path(&self, w: &WorkflowSpec) -> Vec<usize> {
        let order = match self.topological_order(w) {
            Ok(o) => o,
            Err(_) => return Vec::new(),
        };
        let mut succs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(p, s) in &w.edges {
            succs.entry(p).or_default().push(s);
        }
        // Longest runtime from each task to a sink, inclusive.
        let mut down: BTreeMap<usize, f64> = BTreeMap::new();
        let mut next: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        for &t in order.iter().rev() {
            let rt = self.tasks[t].runtime.as_f64();
            let mut best: Option<(f64, usize)> = None;
            for &s in succs.get(&t).map(|v| v.as_slice()).unwrap_or(&[]) {
                let d = down[&s];
                let better = match best {
                    None => true,
                    Some((bd, bs)) => d > bd || (d == bd && s < bs),
                };
                if better {
                    best = Some((d, s));
                }
            }
            down.insert(t, rt + best.map(|(d, _)| d).unwrap_or(0.0));
            next.insert(t, best.map(|(_, s)| s));
        }
        // Start at the source with the longest downstream chain.
        let mut start: Option<(f64, usize)> = None;
        let mut has_pred: std::collections::BTreeSet<usize> =
            w.edges.iter().map(|&(_, s)| s).collect();
        if w.edges.is_empty() {
            has_pred.clear();
        }
        for &t in &order {
            if has_pred.contains(&t) {
                continue;
            }
            let d = down[&t];
            let better = match start {
                None => true,
                Some((bd, bt)) => d > bd || (d == bd && t < bt),
            };
            if better {
                start = Some((d, t));
            }
        }
        let mut path = Vec::new();
        let mut cur = start.map(|(_, t)| t);
        while let Some(t) = cur {
            path.push(t);
            cur = next[&t];
        }
        path
    }

    /// Builds the full facet table: workflow membership and
    /// critical-path flags.
    pub fn facets(&self) -> WorkflowFacets {
        let mut facets = WorkflowFacets::new();
        for w in &self.workflows {
            let critical: std::collections::BTreeSet<usize> =
                self.critical_path(w).into_iter().collect();
            for &t in &w.tasks {
                let id = self.tasks[t].id.0;
                facets.insert(
                    id,
                    TaskFacet {
                        workflow: w.id,
                        critical: critical.contains(&t),
                    },
                );
            }
        }
        facets
    }
}

/// Splits `earned` across the critical-path tasks proportionally to
/// runtime, assigning the last task the exact remainder so the parts sum
/// to `earned` bitwise. Returns `(task id, attributed yield)` pairs in
/// path order; empty for an empty path.
pub fn attribute_critical_path(set: &WorkflowSet, path: &[usize], earned: f64) -> Vec<(u64, f64)> {
    if path.is_empty() {
        return Vec::new();
    }
    let total: f64 = path.iter().map(|&t| set.tasks[t].runtime.as_f64()).sum();
    let mut parts: Vec<f64> = path
        .iter()
        .map(|&t| {
            if total > 0.0 {
                earned * (set.tasks[t].runtime.as_f64() / total)
            } else {
                0.0
            }
        })
        .collect();
    // Pin the naive left-fold sum to `earned` exactly. Proportional
    // rounding can land the fold on a round-to-even midpoint one ulp
    // off, where a full-residual step on any single share overshoots
    // both ways; fractional residual steps break the tie. Bounded
    // deterministic search, first exact candidate wins.
    let target = earned.to_bits();
    let fold = |p: &[f64]| p.iter().sum::<f64>();
    for _ in 0..16 {
        let resid = earned - fold(&parts);
        if fold(&parts).to_bits() == target {
            break;
        }
        let mut pinned = false;
        'search: for idx in (0..parts.len()).rev() {
            for div in [1.0f64, 2.0, 4.0, 0.75, 1.5] {
                let cand = parts[idx] + resid / div;
                if cand == parts[idx] {
                    continue;
                }
                let old = parts[idx];
                parts[idx] = cand;
                if fold(&parts).to_bits() == target {
                    pinned = true;
                    break 'search;
                }
                parts[idx] = old;
            }
        }
        if pinned {
            break;
        }
        // No single candidate hit: take the plain residual step on the
        // last share (shrinks the error) and search again.
        let lastn = parts.len() - 1;
        let cand = parts[lastn] + resid;
        if cand == parts[lastn] {
            break;
        }
        parts[lastn] = cand;
    }
    path.iter()
        .zip(parts)
        .map(|(&t, share)| (set.tasks[t].id.0, share))
        .collect()
}

/// Generates a workflow set from `config`, deterministically in `seed`.
/// Task ids are dense and arrival-ordered (workflow arrivals ascend, and
/// every member task shares its workflow's arrival), so
/// [`WorkflowSet::trace`] is a valid replay trace.
pub fn generate_workflows(config: &WorkflowConfig, seed: u64) -> WorkflowSet {
    use rand::Rng;
    let factory = RngFactory::new(seed);
    let mut arrivals_rng = factory.stream("wf-arrivals");
    let mut runtime_rng = factory.stream("wf-runtimes");
    let mut value_rng = factory.stream("wf-values");
    let mut decay_rng = factory.stream("wf-decays");
    let mut edge_rng = factory.stream("wf-edges");

    let gap_dist = Dist::exponential(config.mean_arrival_gap());
    let unit_value_dist = Dist::exponential(config.mean_unit_value.max(1e-12));
    let decay_dist = Dist::exponential(config.mean_decay.max(1e-12));

    let mut tasks: Vec<TaskSpec> = Vec::new();
    let mut workflows: Vec<WorkflowSpec> = Vec::new();
    let mut clock = Time::ZERO;
    for wf_id in 0..config.workflows {
        let n = config.shape.tasks_per_workflow();
        let base = tasks.len();
        let runtimes: Vec<f64> = (0..n)
            .map(|_| config.runtime.sample(&mut runtime_rng).max(1e-6))
            .collect();
        let total_rt: f64 = runtimes.iter().sum();
        let unit_value = if config.mean_unit_value > 0.0 {
            unit_value_dist.sample(&mut value_rng).max(0.0)
        } else {
            0.0
        };
        let wf_value = unit_value * total_rt;
        let wf_decay = if config.mean_decay > 0.0 {
            decay_dist.sample(&mut decay_rng).max(0.0)
        } else {
            0.0
        };
        let wf_bound = match config.bound {
            BoundPolicy::Unbounded => PenaltyBound::Unbounded,
            BoundPolicy::ZeroFloor => PenaltyBound::ZERO,
            BoundPolicy::ProportionalPenalty { fraction } => PenaltyBound::Bounded {
                max_penalty: fraction * wf_value,
            },
        };
        // Edges per shape, in global indices.
        let edges: Vec<(usize, usize)> = match config.shape {
            WorkflowShape::ForkJoin { width } => {
                let src = base;
                let sink = base + width + 1;
                let mut e = Vec::with_capacity(2 * width);
                for k in 0..width {
                    e.push((src, base + 1 + k));
                    e.push((base + 1 + k, sink));
                }
                e
            }
            WorkflowShape::Pipeline { depth } => {
                (1..depth).map(|k| (base + k - 1, base + k)).collect()
            }
            WorkflowShape::RandomLayered {
                layers,
                width,
                edge_prob,
            } => {
                let mut e = Vec::new();
                for layer in 1..layers {
                    for j in 0..width {
                        let succ = base + layer * width + j;
                        let mut any = false;
                        for i in 0..width {
                            let pred = base + (layer - 1) * width + i;
                            if edge_rng.gen::<f64>() < edge_prob {
                                e.push((pred, succ));
                                any = true;
                            }
                        }
                        if !any {
                            let pick = edge_rng.gen_range(0..width);
                            e.push((base + (layer - 1) * width + pick, succ));
                        }
                    }
                }
                e
            }
        };
        // Per-task specs: work-share slices of the workflow value
        // function, all anchored at the workflow arrival.
        for (k, &rt) in runtimes.iter().enumerate() {
            let share = if total_rt > 0.0 { rt / total_rt } else { 0.0 };
            let value = wf_value * share;
            let decay = wf_decay * share;
            let bound = match wf_bound {
                PenaltyBound::Unbounded => PenaltyBound::Unbounded,
                PenaltyBound::Bounded { max_penalty } => PenaltyBound::Bounded {
                    max_penalty: max_penalty * share,
                },
            };
            tasks.push(TaskSpec::new(
                (base + k) as u64,
                clock.as_f64(),
                rt,
                value,
                decay,
                bound,
            ));
        }
        workflows.push(WorkflowSpec {
            id: wf_id as u64,
            arrival: clock,
            value: wf_value,
            decay: wf_decay,
            bound: wf_bound,
            tasks: (base..base + n).collect(),
            edges,
        });
        clock += mbts_sim::Duration::new(gap_dist.sample(&mut arrivals_rng).max(0.0));
    }
    let set = WorkflowSet {
        config: config.clone(),
        seed,
        tasks: tasks.into(),
        workflows,
    };
    debug_assert!(set.validate().is_ok());
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<WorkflowShape> {
        vec![
            WorkflowShape::ForkJoin { width: 3 },
            WorkflowShape::Pipeline { depth: 4 },
            WorkflowShape::RandomLayered {
                layers: 3,
                width: 2,
                edge_prob: 0.5,
            },
        ]
    }

    #[test]
    fn generated_sets_validate_and_are_deterministic() {
        for shape in shapes() {
            let cfg = WorkflowConfig::default_set()
                .with_shape(shape)
                .with_workflows(6);
            let a = generate_workflows(&cfg, 42);
            let b = generate_workflows(&cfg, 42);
            assert_eq!(a, b, "{shape:?} not deterministic");
            assert!(a.validate().is_ok());
            let c = generate_workflows(&cfg, 43);
            assert_ne!(a, c, "{shape:?} ignores the seed");
        }
    }

    #[test]
    fn trace_is_dense_and_arrival_sorted() {
        let set = generate_workflows(&WorkflowConfig::default_set().with_workflows(10), 7);
        let t = set.trace();
        assert!(t.tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (i, task) in t.tasks.iter().enumerate() {
            assert_eq!(task.id.index(), i);
        }
    }

    #[test]
    fn per_task_slices_sum_to_the_workflow_value() {
        let set = generate_workflows(&WorkflowConfig::default_set().with_workflows(5), 3);
        for w in &set.workflows {
            let v: f64 = w.tasks.iter().map(|&t| set.tasks[t].value).sum();
            let d: f64 = w.tasks.iter().map(|&t| set.tasks[t].decay).sum();
            assert!((v - w.value).abs() < 1e-9 * (1.0 + w.value.abs()));
            assert!((d - w.decay).abs() < 1e-9 * (1.0 + w.decay.abs()));
        }
    }

    #[test]
    fn fork_join_critical_path_is_source_widest_sink() {
        let cfg = WorkflowConfig::default_set()
            .with_shape(WorkflowShape::ForkJoin { width: 3 })
            .with_workflows(1);
        let set = generate_workflows(&cfg, 11);
        let w = &set.workflows[0];
        let path = set.critical_path(w);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], w.tasks[0]);
        assert_eq!(path[2], *w.tasks.last().unwrap());
        // The middle node is the longest-runtime parallel branch.
        let widest = w.tasks[1..w.tasks.len() - 1]
            .iter()
            .copied()
            .max_by(|&a, &b| {
                set.tasks[a]
                    .runtime
                    .as_f64()
                    .total_cmp(&set.tasks[b].runtime.as_f64())
                    .then(b.cmp(&a))
            })
            .unwrap();
        assert_eq!(path[1], widest);
    }

    #[test]
    fn cycle_and_dangling_edges_are_typed_errors() {
        let mut set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_shape(WorkflowShape::Pipeline { depth: 3 })
                .with_workflows(1),
            1,
        );
        let w0 = set.workflows[0].clone();
        // Cycle: close the pipeline.
        set.workflows[0]
            .edges
            .push((*w0.tasks.last().unwrap(), w0.tasks[0]));
        assert_eq!(
            set.validate(),
            Err(WorkflowError::CycleDetected { workflow: 0 })
        );
        // Dangling: edge to a non-member.
        set.workflows[0] = w0.clone();
        set.workflows[0].edges.push((w0.tasks[0], 999));
        assert!(matches!(
            set.validate(),
            Err(WorkflowError::DanglingEdge { .. })
        ));
        // Self-loop.
        set.workflows[0] = w0.clone();
        set.workflows[0].edges.push((w0.tasks[1], w0.tasks[1]));
        assert_eq!(
            set.validate(),
            Err(WorkflowError::SelfLoop {
                workflow: 0,
                task: w0.tasks[1]
            })
        );
        // Errors render.
        let msg = WorkflowError::CycleDetected { workflow: 0 }.to_string();
        assert!(msg.contains("cycle"));
    }

    #[test]
    fn attribution_sums_exactly_to_the_settled_yield() {
        let set = generate_workflows(&WorkflowConfig::default_set().with_workflows(4), 9);
        for w in &set.workflows {
            let path = set.critical_path(w);
            for earned in [0.0, 17.3, -4.25, 1e9 + 0.1] {
                let parts = attribute_critical_path(&set, &path, earned);
                let sum: f64 = parts.iter().map(|(_, v)| v).sum();
                assert_eq!(sum.to_bits(), earned.to_bits(), "wf {}", w.id);
            }
        }
    }

    #[test]
    fn facets_mark_critical_path_members() {
        let set = generate_workflows(&WorkflowConfig::default_set().with_workflows(3), 21);
        let facets = set.facets();
        assert_eq!(facets.len(), set.tasks.len());
        for w in &set.workflows {
            let path: std::collections::BTreeSet<usize> =
                set.critical_path(w).into_iter().collect();
            for &t in &w.tasks {
                let f = &facets[&(t as u64)];
                assert_eq!(f.workflow, w.id);
                assert_eq!(f.critical, path.contains(&t));
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let set = generate_workflows(&WorkflowConfig::default_set(), 2);
        let json = serde_json::to_string(&set).unwrap();
        let back: WorkflowSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_shape() -> impl Strategy<Value = WorkflowShape> {
        prop_oneof![
            (1usize..6).prop_map(|width| WorkflowShape::ForkJoin { width }),
            (1usize..8).prop_map(|depth| WorkflowShape::Pipeline { depth }),
            (1usize..4, 1usize..4, 0.0f64..1.0).prop_map(|(layers, width, edge_prob)| {
                WorkflowShape::RandomLayered {
                    layers,
                    width,
                    edge_prob,
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every seeded config yields an acyclic DAG — witnessed by a
        /// topological order that respects every edge — and regenerating
        /// with the same seed reproduces it bit-for-bit.
        #[test]
        fn seeded_sets_are_acyclic_with_witness_and_deterministic(
            seed in any::<u64>(),
            shape in arb_shape(),
            workflows in 1usize..6,
            load in 0.3f64..3.0,
        ) {
            let cfg = WorkflowConfig::default_set()
                .with_shape(shape)
                .with_workflows(workflows)
                .with_load_factor(load);
            let set = generate_workflows(&cfg, seed);
            prop_assert_eq!(set.validate(), Ok(()));
            for w in &set.workflows {
                let order = set.topological_order(w).expect("validated");
                prop_assert_eq!(order.len(), w.tasks.len());
                let pos: std::collections::BTreeMap<usize, usize> =
                    order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
                for &(p, s) in &w.edges {
                    prop_assert!(pos[&p] < pos[&s], "edge ({p},{s}) violates the witness");
                }
                // The critical path respects precedence and is maximal
                // in runtime among single chains ending at its sink.
                let path = set.critical_path(w);
                prop_assert!(!path.is_empty());
                for pair in path.windows(2) {
                    prop_assert!(w.edges.contains(&(pair[0], pair[1])));
                }
            }
            let again = generate_workflows(&cfg, seed);
            prop_assert_eq!(set, again);
        }

        /// Attribution is exact for arbitrary earned values.
        #[test]
        fn attribution_is_exact(seed in any::<u64>(), earned in -1e6f64..1e6) {
            let set = generate_workflows(&WorkflowConfig::default_set(), seed);
            let w = &set.workflows[0];
            let path = set.critical_path(w);
            let parts = attribute_critical_path(&set, &path, earned);
            let sum: f64 = parts.iter().map(|(_, v)| v).sum();
            prop_assert_eq!(sum.to_bits(), earned.to_bits());
        }
    }
}
