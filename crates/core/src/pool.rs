//! Incremental scheduling core: a persistent pending pool.
//!
//! The original dispatch loop rebuilt everything from scratch at every
//! scheduling point: an `O(n log n)` [`CostModel::build`] plus an `O(n)`
//! (or `O(n log n)` with per-candidate binary searches) scoring scan per
//! dispatched task. This module keeps that state alive *across* events
//! — submit, dispatch, cancel, expire — so each event pays only for what
//! actually changed:
//!
//! | event                    | rebuild-per-event     | [`PendingPool`]      |
//! |--------------------------|-----------------------|----------------------|
//! | submit (push)            | —                     | `O(log n)`           |
//! | dispatch, invariant [^i] | `O(n)` scan           | `O(log n)` heap peek |
//! | dispatch, FirstPrice/PV  | `O(n)` scan           | `O(k log n)` refresh [^k] |
//! | dispatch, FirstReward    | `O(n log n)` build + n searches | `O(n)` merge sweep |
//! | cancel / expire (remove) | `O(n)` compact        | `O(log n)`           |
//!
//! [^i]: `Fcfs`, `Srpt`, `Swpt`, `EarliestDeadline` — policies whose
//! score is fixed at submission ([`Policy::time_invariant_score`]).
//!
//! [^k]: `k` = entries whose stale bound still beats the true maximum,
//! typically O(1) between nearby dispatch instants; a periodic `O(n)`
//! rescale bounds the worst case.
//!
//! Three cooperating structures make this work:
//!
//! 1. [`IncrementalCostModel`] maintains the Eq. 4 inputs persistently:
//!    a Kahan-compensated [`DecaySum`] for never-expiring tasks and a
//!    sorted index ([`MergeMap`]: a dense run plus a small B-tree write
//!    overlay) of finite-window tasks keyed by **deadline**
//!    `expire − RPT` — the one instant at which a queued task's decay
//!    window closes. Deadlines are time-invariant while a task waits, so
//!    insert/remove are `O(log n)` amortized, and an in-order traversal
//!    yields windows already (nearly) sorted at dense-scan speed:
//!    materializing a [`CostModel`] snapshot for a new `now` is a linear
//!    pass plus an adaptive sort over presorted data.
//! 2. A lazy-deletion max-heap over `(score, lowest-id-wins)` serves
//!    time-invariant policies: selection is a peek, removal leaves a
//!    stale entry that is discarded when it surfaces (generation
//!    counters detect re-submitted ids after preemption). Time-varying
//!    simple policies (`FirstPrice`/`PresentValue`) reuse the same heap
//!    as a *bound* index: their scores only decay with time, so entries
//!    scored in the past are upper bounds, and selection refreshes just
//!    the entries that surface at the top until one survives its own
//!    refresh — with a periodic full rescale once refresh churn rivals
//!    a rebuild.
//! 3. An RPT-ordered index lets `FirstReward` score the whole frontier
//!    in one merge sweep: visiting candidates by ascending RPT makes the
//!    window split point monotone, so every Eq. 4 query is answered in
//!    `O(1)` amortized from two running sums — accumulated in exactly
//!    the order [`CostModel`]'s prefix arrays are and passed to the same
//!    term functions, keeping scores bit-identical to the rebuild path's
//!    without materializing the model at all.
//!
//! Equivalence with the rebuild-from-scratch path is part of the
//! contract: the same `(score, lowest task id)` argmax, the same
//! tie-breaks, costs within 1e-9 (the only divergence is floating-point
//! summation order). Property tests below drive both implementations
//! through randomized event sequences and compare after every event.

use crate::cost::{opportunity_cost, summed_cost, CostModel, DecaySum};
use crate::heuristics::{reward, Policy, ScoreCtx};
use crate::job::{decay_window, discount, Job};
use crate::mergemap::MergeMap;
use mbts_sim::profiler::{self, Section};
use mbts_sim::{Duration, Time};
use mbts_workload::task::{decayed_yield, delay};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// Persistently maintained inputs of the Eq. 4 opportunity-cost model.
///
/// `insert`/`remove` are `O(log n)` amortized; [`snapshot`](Self::snapshot)
/// materializes a [`CostModel`] for a given `now` in `O(n)` (reusing the
/// model's allocations) and caches it until the pool next changes.
///
/// Invariant: a job must be `remove`d with the same `rpt` and spec it
/// was `insert`ed with — true for queued jobs, whose RPT only changes
/// while running.
#[derive(Debug, Clone)]
pub struct IncrementalCostModel {
    /// Σ d_j over never-expiring tasks (infinite windows), drift-free.
    infinite: DecaySum,
    /// Finite-window tasks keyed by `(deadline, id)` where
    /// `deadline = expire − RPT` is when the task's decay window closes.
    /// Window order at any instant equals deadline order, so an in-order
    /// traversal feeds the snapshot nearly sorted — and the [`MergeMap`]
    /// makes that traversal a dense scan, since the sweep walks it once
    /// per dispatch decision.
    finite: MergeMap<(Time, u64), FiniteEntry>,
    /// Cached snapshot, valid at `model_now`.
    model: CostModel,
    model_now: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
struct FiniteEntry {
    decay: f64,
    expire: Time,
    rpt: Duration,
}

impl IncrementalCostModel {
    /// An empty model.
    pub fn new() -> Self {
        IncrementalCostModel {
            infinite: DecaySum::new(),
            finite: MergeMap::new(),
            model: CostModel::empty(),
            model_now: None,
        }
    }

    /// Adds a queued job's contribution in `O(log n)`.
    pub fn insert(&mut self, job: &Job) {
        self.model_now = None;
        let d = job.spec.decay;
        if d == 0.0 {
            return; // contributes nothing at any instant, like in build()
        }
        let expire = job.spec.expire_time();
        if expire == Time::INFINITY {
            self.infinite.add(d);
        } else {
            let prev = self.finite.insert(
                (expire - job.rpt, job.id().0),
                FiniteEntry {
                    decay: d,
                    expire,
                    rpt: job.rpt,
                },
            );
            debug_assert!(prev.is_none(), "duplicate cost entry for {}", job.id());
        }
    }

    /// Removes a previously inserted job's contribution in `O(log n)`.
    pub fn remove(&mut self, job: &Job) {
        self.model_now = None;
        let d = job.spec.decay;
        if d == 0.0 {
            return;
        }
        let expire = job.spec.expire_time();
        if expire == Time::INFINITY {
            self.infinite.remove(d);
        } else {
            let prev = self.finite.remove(&(expire - job.rpt, job.id().0));
            debug_assert!(prev.is_some(), "missing cost entry for {}", job.id());
        }
    }

    /// The cost model at `now`, rebuilt from the persistent structures
    /// only if the pool changed or `now` moved since the last call.
    ///
    /// Entries whose deadline has passed need no eager cleanup: they
    /// evaluate to a zero window here and are skipped, exactly as
    /// [`CostModel::build`] skips expired jobs.
    pub fn snapshot(&mut self, now: Time) -> &CostModel {
        if self.model_now != Some(now) {
            let mut entries = Vec::with_capacity(self.finite.len());
            self.finite.for_each(|_, e| {
                let w = decay_window(e.expire, now + e.rpt);
                if w > Duration::ZERO {
                    entries.push((w.as_f64(), e.decay));
                }
            });
            self.model.rebuild_in_place(self.infinite.total(), entries);
            self.model_now = Some(now);
        }
        &self.model
    }

    /// Number of tracked (non-zero-decay) contributions.
    pub fn len(&self) -> usize {
        self.infinite.count() + self.finite.len()
    }

    /// `true` when nothing contributes cost.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for IncrementalCostModel {
    fn default() -> Self {
        Self::new()
    }
}

/// A max-heap entry: best score first, ties to the lowest task id —
/// the same total order [`Policy::select`] implements by scanning.
///
/// For time-varying policies (FirstPrice/PV) `score` is the value as of
/// `at`, which is an **upper bound** on the score at any later instant:
/// both policies only decay with time. `at` is excluded from the order;
/// it just lets a selection skip re-scoring an entry already exact at
/// the query instant.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    id: u64,
    gen: u64,
    at: Time,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Collapses `-0.0` to `+0.0` so the heap's `total_cmp` order agrees
/// with `select()`'s `==`-based tie handling (which treats the two
/// zeros as equal and falls through to the id tie-break).
fn normalize(score: f64) -> f64 {
    debug_assert!(!score.is_nan(), "policy scores must not be NaN");
    if score == 0.0 {
        0.0
    } else {
        score
    }
}

/// Everything the FirstReward merge sweep needs about a candidate,
/// denormalized out of [`Job`] at push time so the sweep touches only
/// the RPT-ordered B-tree — no random access into the jobs vector.
/// All fields are immutable while the job is queued.
#[derive(Debug, Clone, Copy)]
struct SweepJob {
    /// Position in `jobs` (kept in sync across `swap_remove`).
    slot: usize,
    /// `spec.decay`.
    decay: f64,
    /// `spec.value`.
    value: f64,
    /// `spec.bound.floor()`.
    floor: f64,
    /// `spec.arrival + spec.runtime` — the earliest possible completion,
    /// before which no decay is charged.
    earliest: Time,
    /// `spec.expire_time()`.
    expire: Time,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Position in `jobs` (kept in sync across `swap_remove`).
    slot: usize,
    /// Incarnation counter: a re-pushed id (preemption requeue) gets a
    /// fresh generation, lazily invalidating its old heap entries.
    gen: u64,
}

/// The pending queue as a persistent, incrementally maintained
/// structure. See the [module docs](self) for the complexity story.
///
/// Selection ([`select_best`](Self::select_best)) returns the same job
/// the flat `(score, lowest id)` argmax over [`jobs`](Self::jobs) would
/// pick; positions follow `Vec::swap_remove` semantics so callers can
/// treat the pool as the plain `Vec<Job>` it replaces.
#[derive(Debug, Clone)]
pub struct PendingPool {
    policy: Policy,
    jobs: Vec<Job>,
    index: HashMap<u64, IndexEntry>,
    /// `gens[slot]` mirrors `index[jobs[slot].id].gen` — the dense copy
    /// lets a heap rebuild skip one hash lookup per job.
    gens: Vec<u64>,
    /// Lazy-deletion score heap (policies that don't need a cost model).
    heap: BinaryHeap<HeapEntry>,
    /// Watermark: the latest instant any heap entry was scored at;
    /// `None` = heap not built yet. Time-invariant policies pin scores
    /// at `Time::ZERO` and the heap never goes stale. FirstPrice/PV
    /// scores are non-increasing in time, so entries scored at or
    /// before the watermark are upper bounds for any query at or after
    /// it — selection refreshes only entries that surface at the top
    /// (periodic-rescale indexing), and a query that travels *backwards*
    /// past the watermark forces a full rebuild.
    heap_now: Option<Time>,
    /// All jobs keyed by `(RPT, id)` — the FirstReward merge sweep's
    /// visiting order, in a dense-scannable [`MergeMap`]. Only
    /// maintained when the policy needs it.
    by_rpt: MergeMap<(Duration, u64), SweepJob>,
    /// Reusable window-ordered `(window, decay)` buffer for the sweep.
    scratch: Vec<(f64, f64)>,
    generation: u64,
    cost: IncrementalCostModel,
}

impl PendingPool {
    /// An empty pool serving `policy`.
    pub fn new(policy: Policy) -> Self {
        PendingPool {
            policy,
            jobs: Vec::new(),
            index: HashMap::new(),
            gens: Vec::new(),
            heap: BinaryHeap::new(),
            heap_now: None,
            by_rpt: MergeMap::new(),
            scratch: Vec::new(),
            generation: 0,
            cost: IncrementalCostModel::new(),
        }
    }

    /// The policy the pool ranks by.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The queued jobs, in slot order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Enqueues a job in `O(log n)`. Instrumented as the profiler's
    /// `pool_insert` section (one relaxed load when profiling is off).
    pub fn push(&mut self, job: Job) {
        profiler::time(Section::PoolInsert, || self.push_impl(job))
    }

    fn push_impl(&mut self, job: Job) {
        let id = job.id().0;
        self.generation += 1;
        let gen = self.generation;
        let slot = self.jobs.len();
        let prev = self.index.insert(id, IndexEntry { slot, gen });
        debug_assert!(prev.is_none(), "task {id} is already pending");
        self.cost.insert(&job);
        if self.policy.needs_cost_model() {
            let prev = self.by_rpt.insert(
                (job.rpt, id),
                SweepJob {
                    slot,
                    decay: job.spec.decay,
                    value: job.spec.value,
                    floor: job.spec.bound.floor(),
                    earliest: job.spec.arrival + job.spec.runtime,
                    expire: job.spec.expire_time(),
                },
            );
            debug_assert!(prev.is_none(), "duplicate rpt entry for task {id}");
        } else if let Some(at) = self.heap_now {
            // Score at the watermark: exact for time-invariant policies
            // (which pin `at` to `Time::ZERO`), and a valid upper bound
            // for FirstPrice/PV queries at or after the watermark.
            let score = normalize(self.policy.score(&job, &ScoreCtx::simple(at)));
            self.heap.push(HeapEntry { score, id, gen, at });
        }
        self.gens.push(gen);
        self.jobs.push(job);
    }

    /// Removes and returns the job at `slot`, filling the hole with the
    /// last job (`Vec::swap_remove` semantics), in `O(log n)`.
    pub fn swap_remove(&mut self, slot: usize) -> Job {
        let job = self.jobs.swap_remove(slot);
        self.gens.swap_remove(slot);
        let id = job.id().0;
        let entry = self.index.remove(&id);
        debug_assert!(entry.is_some(), "pending job {id} must be indexed");
        if self.policy.needs_cost_model() {
            let prev = self.by_rpt.remove(&(job.rpt, id));
            debug_assert!(prev.is_some(), "pending job {id} must be rpt-indexed");
        }
        self.cost.remove(&job);
        // The heap entry (if any) goes stale and is discarded lazily.
        if let Some(moved) = self.jobs.get(slot) {
            let moved_id = moved.id().0;
            self.index
                .get_mut(&moved_id)
                .expect("moved job must be indexed")
                .slot = slot;
            if self.policy.needs_cost_model() {
                self.by_rpt
                    .get_mut(&(moved.rpt, moved_id))
                    .expect("moved job must be rpt-indexed")
                    .slot = slot;
            }
        }
        job
    }

    /// Slot of the best job at `now`: maximum score, ties to the lowest
    /// task id — exactly what [`Policy::select`] over [`jobs`](Self::jobs)
    /// returns, from the persistent structures. `None` when the pool is empty.
    /// Instrumented as the profiler's `cost_model_update` section.
    pub fn select_best(&mut self, now: Time) -> Option<usize> {
        if self.jobs.is_empty() {
            return None;
        }
        profiler::time(Section::CostModelUpdate, || self.select_best_impl(now))
    }

    fn select_best_impl(&mut self, now: Time) -> Option<usize> {
        if self.policy.needs_cost_model() {
            let mut best: Option<(f64, u64, usize)> = None;
            self.for_each_first_reward(now, |slot, id, score| {
                let better = match best {
                    None => true,
                    Some((bs, bid, _)) => score > bs || (score == bs && id < bid),
                };
                if better {
                    best = Some((score, id, slot));
                }
            });
            let pick = best.map(|(_, _, slot)| slot);
            #[cfg(debug_assertions)]
            {
                debug_assert_eq!(
                    pick,
                    self.select_rescan(now),
                    "merge sweep diverged from flat selection"
                );
            }
            return pick;
        }
        let invariant = self.policy.time_invariant_score();
        let rebuild_needed = match self.heap_now {
            None => true,
            // Entries are scored at instants ≤ the watermark; they are
            // upper bounds only for queries at or after it.
            Some(t) => !invariant && now < t,
        };
        if rebuild_needed {
            self.rebuild_heap(now);
        }
        if invariant {
            loop {
                let Some(top) = self.heap.peek() else {
                    // Only stale entries were left; a rebuild covers
                    // every live job and the pool is non-empty.
                    self.rebuild_heap(now);
                    continue;
                };
                match self.index.get(&top.id) {
                    Some(e) if e.gen == top.gen => return Some(e.slot),
                    _ => {
                        self.heap.pop();
                    }
                }
            }
        }
        let pick = self.select_decaying(now);
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                pick,
                self.select_rescan(now),
                "bound-heap selection diverged from flat selection"
            );
        }
        pick
    }

    /// Selection for FirstPrice/PV: heap entries hold stale *upper
    /// bounds*, so the true maximum is found by refreshing entries as
    /// they surface at the top. An entry whose refreshed score still
    /// tops the heap is exact: every other live entry's current score is
    /// ≤ its bound ≤ the top bound. Ties collapse to the same bound, so
    /// the heap's lowest-id order matches `Policy::select`. When a query
    /// has drifted far enough that refreshes thrash, one `O(n)` rescale
    /// (rebuild at `now`) makes every bound exact.
    fn select_decaying(&mut self, now: Time) -> Option<usize> {
        // Rebuild once refresh work rivals a full rescore; each refresh
        // is O(log n) against the rebuild's O(n).
        let refresh_limit = 8 + self.jobs.len() / 8;
        let mut refreshed = 0usize;
        loop {
            let Some(&top) = self.heap.peek() else {
                self.rebuild_heap(now);
                continue;
            };
            let e = match self.index.get(&top.id) {
                Some(e) if e.gen == top.gen => *e,
                _ => {
                    self.heap.pop();
                    continue;
                }
            };
            if top.at == now {
                return Some(e.slot);
            }
            let cur = normalize(
                self.policy
                    .score(&self.jobs[e.slot], &ScoreCtx::simple(now)),
            );
            debug_assert!(
                cur <= top.score,
                "decaying-policy score increased over time: {} -> {cur}",
                top.score
            );
            self.heap.pop();
            self.heap.push(HeapEntry {
                score: cur,
                id: top.id,
                gen: top.gen,
                at: now,
            });
            self.heap_now = Some(now);
            if cur == top.score {
                // The refreshed entry still carries the maximal bound,
                // and among equal bounds the heap already yielded the
                // lowest id — exact.
                return Some(e.slot);
            }
            refreshed += 1;
            if refreshed > refresh_limit {
                self.rebuild_heap(now);
            }
        }
    }

    /// Reference implementation of [`select_best`](Self::select_best):
    /// a flat scan via [`Policy::select`] over a fresh cost snapshot.
    /// Used by tests and debug assertions.
    pub fn select_rescan(&mut self, now: Time) -> Option<usize> {
        let policy = self.policy;
        if policy.needs_cost_model() {
            let model = self.cost.snapshot(now);
            let ctx = ScoreCtx::with_cost(now, model);
            policy.select(self.jobs.iter(), &ctx)
        } else {
            policy.select(self.jobs.iter(), &ScoreCtx::simple(now))
        }
    }

    /// All scores at `now`, in slot order — the backfill scan's input.
    /// Bit-identical to scoring each job with [`Policy::score`] against
    /// a fresh model. Instrumented as the profiler's `merge_sweep`
    /// section.
    pub fn scores(&mut self, now: Time) -> Vec<f64> {
        profiler::time(Section::MergeSweep, || self.scores_impl(now))
    }

    fn scores_impl(&mut self, now: Time) -> Vec<f64> {
        if self.policy.needs_cost_model() {
            let mut out = vec![0.0; self.jobs.len()];
            self.for_each_first_reward(now, |slot, _, score| out[slot] = score);
            out
        } else {
            let policy = self.policy;
            let ctx = ScoreCtx::simple(now);
            self.jobs.iter().map(|j| policy.score(j, &ctx)).collect()
        }
    }

    /// The opportunity-cost model of the queued set at `now` (cached
    /// between mutations).
    pub fn cost_model(&mut self, now: Time) -> &CostModel {
        self.cost.snapshot(now)
    }

    /// Scores every job under `FirstReward` in one RPT-ordered merge
    /// sweep. The split point into the window-ordered entries is
    /// monotone in RPT, so each Eq. 4 query is `O(1)` amortized from two
    /// running sums accumulated in the left-to-right order [`CostModel`]'s
    /// `prefix_dw`/`prefix_d` arrays are built in. `visit` receives
    /// `(slot, id, score)` with scores bit-identical to [`Policy::score`]
    /// against [`Self::cost_model`], without materializing the model:
    /// both feed the same operands to the same term functions.
    fn for_each_first_reward(&mut self, now: Time, mut visit: impl FnMut(usize, u64, f64)) {
        let Policy::FirstReward {
            alpha,
            discount_rate,
        } = self.policy
        else {
            unreachable!("merge sweep is only reached for FirstReward")
        };
        // Window order equals deadline order, so one in-order pass over
        // the deadline B-tree yields the sorted (window, decay) list a
        // from-scratch build would sort into, plus its total decay —
        // summed left-to-right like `prefix_d[len]`.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let mut total_d = 0.0f64;
        self.cost.finite.for_each(|_, e| {
            let w = decay_window(e.expire, now + e.rpt);
            if w > Duration::ZERO {
                scratch.push((w.as_f64(), e.decay));
                total_d += e.decay;
            }
        });
        let infinite = self.cost.infinite.total();
        let mut split = 0usize;
        let mut running_dw = 0.0f64; // == prefix_dw[split]
        let mut running_d = 0.0f64; // == prefix_d[split]
        self.by_rpt.for_each(|&(rpt, id), sj| {
            let rpt_f = rpt.as_f64();
            while split < scratch.len() && scratch[split].0 < rpt_f {
                let (w, d) = scratch[split];
                running_dw += d * w;
                running_d += d;
                split += 1;
            }
            let completion = now + rpt;
            let total = summed_cost(infinite, rpt_f, running_dw, running_d, total_d);
            let own_window = decay_window(sj.expire, completion);
            let cost = opportunity_cost(total, sj.decay, own_window, rpt_f);
            let expected_yield =
                decayed_yield(sj.value, sj.decay, sj.floor, delay(sj.earliest, completion));
            let pv = discount(expected_yield, discount_rate, rpt_f);
            visit(sj.slot, id, reward(alpha, pv, cost, rpt_f));
        });
        self.scratch = scratch;
    }

    /// Serializable checkpoint: the queued jobs in slot order plus the
    /// exact state of the Kahan decay accumulator. Everything else in
    /// the pool (indexes, heaps, tombstones, cached models) is derived
    /// state that [`from_checkpoint`](Self::from_checkpoint) rebuilds
    /// with selection-identical behavior.
    pub fn checkpoint(&self) -> PoolCheckpoint {
        PoolCheckpoint {
            policy: self.policy,
            jobs: self.jobs.clone(),
            decay_sum: self.cost.infinite.state(),
        }
    }

    /// Rebuilds a pool from a [`checkpoint`](Self::checkpoint). Jobs are
    /// re-pushed in slot order, reproducing the jobs vector (and thus
    /// every future `swap_remove` position) exactly; the decay
    /// accumulator is then overwritten with its checkpointed state, since
    /// Kahan compensation is history-dependent and re-adding could differ
    /// in the low-order bits that near-tied scheduling comparisons see.
    /// Lazy-deletion heap tombstones and generation counters are *not*
    /// carried over: they are performance artifacts that never change
    /// which job `select_best` returns.
    pub fn from_checkpoint(c: PoolCheckpoint) -> Self {
        let mut pool = PendingPool::new(c.policy);
        for job in c.jobs {
            pool.push(job);
        }
        debug_assert_eq!(pool.cost.infinite.count(), c.decay_sum.2);
        pool.cost.infinite = DecaySum::from_state(c.decay_sum);
        pool.cost.model_now = None;
        pool
    }

    /// Rescores every job and heapifies in `O(n)`; reuses the heap's
    /// buffer. Time-invariant policies are scored at `Time::ZERO` (any
    /// instant gives the same value) so the heap stays valid forever.
    fn rebuild_heap(&mut self, now: Time) {
        let at = if self.policy.time_invariant_score() {
            Time::ZERO
        } else {
            now
        };
        let ctx = ScoreCtx::simple(at);
        let policy = self.policy;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        entries.extend(
            self.jobs
                .iter()
                .zip(&self.gens)
                .map(|(job, &gen)| HeapEntry {
                    score: normalize(policy.score(job, &ctx)),
                    id: job.id().0,
                    gen,
                    at,
                }),
        );
        self.heap = BinaryHeap::from(entries);
        self.heap_now = Some(at);
    }
}

/// Serializable state of a [`PendingPool`] — see
/// [`PendingPool::checkpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolCheckpoint {
    /// The ranking policy.
    pub policy: Policy,
    /// Queued jobs in slot order.
    pub jobs: Vec<Job>,
    /// Exact `(sum, compensation, count)` of the infinite-window decay
    /// accumulator.
    pub decay_sum: (f64, f64, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};

    fn job(id: u64, arrival: f64, runtime: f64, value: f64, decay: f64) -> Job {
        Job::new(TaskSpec::new(
            id,
            arrival,
            runtime,
            value,
            decay,
            PenaltyBound::Unbounded,
        ))
    }

    fn bounded(id: u64, runtime: f64, value: f64, decay: f64) -> Job {
        Job::new(TaskSpec::new(
            id,
            0.0,
            runtime,
            value,
            decay,
            PenaltyBound::ZERO,
        ))
    }

    #[test]
    fn empty_pool_selects_none() {
        let mut pool = PendingPool::new(Policy::Fcfs);
        assert_eq!(pool.select_best(Time::ZERO), None);
        assert!(pool.is_empty());
    }

    #[test]
    fn fcfs_pool_serves_in_arrival_order() {
        let mut pool = PendingPool::new(Policy::Fcfs);
        pool.push(job(2, 5.0, 1.0, 10.0, 0.1));
        pool.push(job(0, 1.0, 1.0, 10.0, 0.1));
        pool.push(job(1, 3.0, 1.0, 10.0, 0.1));
        let mut order = Vec::new();
        let mut t = 10.0;
        while let Some(slot) = pool.select_best(Time::from(t)) {
            order.push(pool.swap_remove(slot).id().0);
            t += 1.0;
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn tied_scores_break_to_lowest_id_through_the_heap() {
        // Both arrive at 0.0: FCFS scores are -0.0, a negative-zero tie
        // the heap must treat exactly like select()'s `==` does.
        let mut pool = PendingPool::new(Policy::Fcfs);
        pool.push(job(5, 0.0, 1.0, 10.0, 0.1));
        pool.push(job(2, 0.0, 1.0, 10.0, 0.1));
        let slot = pool.select_best(Time::ZERO).unwrap();
        assert_eq!(pool.jobs()[slot].id().0, 2);
    }

    #[test]
    fn reinserted_job_gets_a_fresh_generation() {
        // Simulates a preemption requeue: remove, then push the same id.
        let mut pool = PendingPool::new(Policy::Srpt);
        pool.push(job(0, 0.0, 1.0, 10.0, 0.1)); // shortest: wins
        pool.push(job(1, 0.0, 4.0, 10.0, 0.1));
        let best = pool.select_best(Time::ZERO).unwrap();
        assert_eq!(pool.jobs()[best].id().0, 0);
        let mut removed = pool.swap_remove(best);
        // It "ran" a while backwards (preemption grew its RPT estimate).
        removed.rpt = mbts_sim::Duration::from(9.0);
        pool.push(removed);
        // The stale heap entry (rpt 1.0) must not win for id 0.
        let best = pool.select_best(Time::ZERO).unwrap();
        assert_eq!(pool.jobs()[best].id().0, 1);
    }

    #[test]
    fn time_varying_policy_rescores_as_now_advances() {
        // FirstPrice: a fast-decaying high-value job outranks a stable
        // one early, then falls below it.
        let mut pool = PendingPool::new(Policy::FirstPrice);
        pool.push(job(0, 0.0, 1.0, 100.0, 10.0));
        pool.push(job(1, 0.0, 1.0, 50.0, 0.0));
        let early = pool.select_best(Time::ZERO).unwrap();
        assert_eq!(pool.jobs()[early].id().0, 0);
        let late = pool.select_best(Time::from(8.0)).unwrap();
        assert_eq!(pool.jobs()[late].id().0, 1);
    }

    #[test]
    fn swap_remove_keeps_the_index_consistent() {
        let mut pool = PendingPool::new(Policy::Srpt);
        for i in 0..4 {
            pool.push(job(i, 0.0, 10.0 - i as f64, 10.0, 0.1));
        }
        // Remove a middle slot; the last job takes its place.
        pool.swap_remove(1);
        assert_eq!(pool.len(), 3);
        // Shortest remaining is id 3 (runtime 7), wherever it sits now.
        let best = pool.select_best(Time::ZERO).unwrap();
        assert_eq!(pool.jobs()[best].id().0, 3);
        pool.swap_remove(best);
        let best = pool.select_best(Time::ZERO).unwrap();
        assert_eq!(pool.jobs()[best].id().0, 2);
    }

    #[test]
    fn first_reward_matches_flat_selection_on_mixed_bounds() {
        let policy = Policy::first_reward(0.3, 0.01);
        let mut pool = PendingPool::new(policy);
        pool.push(job(0, 0.0, 7.0, 100.0, 1.0));
        pool.push(bounded(1, 2.0, 30.0, 4.0));
        pool.push(bounded(2, 15.0, 200.0, 0.5));
        pool.push(job(3, 0.0, 1.0, 5.0, 9.0));
        pool.push(bounded(4, 4.0, 0.0, 2.0)); // value 0: expired window
        for t in [0.0, 1.0, 3.5, 50.0] {
            let now = Time::from(t);
            let model = CostModel::build(now, pool.jobs());
            let ctx = ScoreCtx::with_cost(now, &model);
            let want = policy.select(pool.jobs(), &ctx).unwrap();
            let got = pool.select_best(now).unwrap();
            assert_eq!(pool.jobs()[got].id(), pool.jobs()[want].id(), "t={t}");
        }
    }

    #[test]
    fn pool_scores_match_flat_scoring() {
        let policy = Policy::first_reward(0.4, 0.02);
        let mut pool = PendingPool::new(policy);
        for i in 0..6 {
            if i % 2 == 0 {
                pool.push(job(i, 0.0, 2.0 + i as f64, 40.0, 0.5 * i as f64));
            } else {
                pool.push(bounded(i, 1.0 + i as f64, 25.0, 1.5));
            }
        }
        let now = Time::from(2.5);
        let kept = pool.scores(now);
        let model = CostModel::build(now, pool.jobs());
        let ctx = ScoreCtx::with_cost(now, &model);
        for (i, j) in pool.jobs().iter().enumerate() {
            assert!((kept[i] - policy.score(j, &ctx)).abs() < 1e-9, "slot {i}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_selection_sequence() {
        for policy in [
            Policy::Fcfs,
            Policy::Srpt,
            Policy::FirstPrice,
            Policy::pv(0.01),
            Policy::first_reward(0.3, 0.01),
        ] {
            let mut pool = PendingPool::new(policy);
            for i in 0..8 {
                if i % 2 == 0 {
                    pool.push(job(i, 0.1 * i as f64, 2.0 + i as f64, 40.0, 0.5));
                } else {
                    pool.push(bounded(i, 1.0 + i as f64, 25.0, 1.5));
                }
            }
            // Churn: dispatch a couple so the accumulator has history.
            for t in [1.0, 2.0] {
                let best = pool.select_best(Time::from(t)).unwrap();
                pool.swap_remove(best);
            }
            let ck = pool.checkpoint();
            let json = serde_json::to_string(&ck).unwrap();
            let back: PoolCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ck, "{}", policy.name());
            let mut restored = PendingPool::from_checkpoint(back);
            assert_eq!(restored.jobs(), pool.jobs());
            // Both pools must dispatch identically from here on.
            let mut t = 3.0;
            while !pool.is_empty() {
                let a = pool.select_best(Time::from(t)).unwrap();
                let b = restored.select_best(Time::from(t)).unwrap();
                assert_eq!(a, b, "{} at t={t}", policy.name());
                assert_eq!(pool.swap_remove(a), restored.swap_remove(b));
                t += 0.7;
            }
            assert!(restored.is_empty());
        }
    }

    #[test]
    fn incremental_model_tracks_inserts_and_removes() {
        let jobs = vec![
            job(0, 0.0, 7.0, 100.0, 1.0),
            bounded(1, 2.0, 30.0, 4.0),
            bounded(2, 15.0, 200.0, 0.5),
            job(3, 0.0, 1.0, 5.0, 0.0), // zero decay: no contribution
        ];
        let mut inc = IncrementalCostModel::new();
        for j in &jobs {
            inc.insert(j);
        }
        assert_eq!(inc.len(), 3);
        for t in [0.0, 4.0, 40.0] {
            let now = Time::from(t);
            let scratch = CostModel::build(now, &jobs);
            let snap = inc.snapshot(now);
            for j in &jobs {
                assert!((snap.cost_of(j, now) - scratch.cost_of(j, now)).abs() < 1e-9);
            }
        }
        inc.remove(&jobs[1]);
        let remaining: Vec<&Job> = jobs.iter().filter(|j| j.id().0 != 1).collect();
        let now = Time::from(1.0);
        let scratch = CostModel::build(now, remaining.iter().copied());
        let snap = inc.snapshot(now);
        for j in &remaining {
            assert!((snap.cost_of(j, now) - scratch.cost_of(j, now)).abs() < 1e-9);
        }
        for j in &remaining {
            inc.remove(j);
        }
        assert!(inc.is_empty());
    }

    /// A drain of a deep backlog: at every dispatch, `select_best` and
    /// the flat rescan name the same task. This replaces the checksum
    /// assert of the deleted `bench_dispatch` binary, which was the only
    /// check of the bound heap and the merge sweep at this depth in a
    /// release build, where the `debug_assert_eq!` in `select_best_impl`
    /// is compiled out (the proptest below stops at 25 jobs).
    #[test]
    fn deep_drain_matches_flat_rescan() {
        use mbts_workload::{generate_trace, BoundPolicy, MixConfig};
        const DEPTH: usize = 10_000;
        const DISPATCHES: usize = 200;
        const DT: f64 = 0.05;
        let mix = MixConfig::millennium_default()
            .with_tasks(DEPTH)
            .with_processors(8)
            .with_load_factor(4.0)
            .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 });
        let jobs: Vec<Job> = generate_trace(&mix, 97)
            .tasks
            .iter()
            .copied()
            .map(Job::new)
            .collect();
        for policy in [
            Policy::FirstPrice,
            Policy::pv(0.01),
            Policy::first_reward(0.3, 0.01),
        ] {
            let mut pool = PendingPool::new(policy);
            for job in &jobs {
                pool.push(job.clone());
            }
            let mut now = Time::ZERO;
            for step in 0..DISPATCHES {
                let got = pool
                    .select_best(now)
                    .expect("pool is deeper than the drain");
                let want = pool.select_rescan(now).expect("same pool");
                assert_eq!(
                    pool.jobs()[got].id(),
                    pool.jobs()[want].id(),
                    "{} at dispatch {step}",
                    policy.name()
                );
                if policy.needs_cost_model() {
                    // The argmax alone forgives a sweep that is one
                    // window entry out; the scores do not.
                    let swept = pool.scores(now);
                    let model = pool.cost_model(now).clone();
                    let ctx = ScoreCtx::with_cost(now, &model);
                    for (slot, job) in pool.jobs().iter().enumerate() {
                        assert_eq!(
                            swept[slot].to_bits(),
                            policy.score(job, &ctx).to_bits(),
                            "{} score of {:?} at dispatch {step}",
                            policy.name(),
                            job.id()
                        );
                    }
                }
                pool.swap_remove(got);
                now = Time::new(now.as_f64() + DT);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};
    use proptest::prelude::*;

    /// `(runtime, value, decay, bound kind)`. One decay in five is an
    /// exact zero, which a uniform `0.0..10.0` draw almost never gives.
    fn arb_spec() -> impl Strategy<Value = (f64, f64, f64, u8)> {
        (
            0.1f64..50.0,
            0.0f64..300.0,
            (0u8..5u8, 0.0f64..10.0).prop_map(|(k, d)| if k == 0 { 0.0 } else { d }),
            0u8..3u8,
        )
    }

    fn build_jobs(specs: &[(f64, f64, f64, u8)]) -> Vec<Job> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(rt, v, d, b))| {
                let bound = match b {
                    0 => PenaltyBound::Unbounded,
                    1 => PenaltyBound::ZERO,
                    _ => PenaltyBound::Bounded {
                        max_penalty: v * 0.4,
                    },
                };
                Job::new(TaskSpec::new(i as u64, 0.0, rt, v, d, bound))
            })
            .collect()
    }

    proptest! {
        /// Satellite invariant: after any interleaving of inserts,
        /// removes, and clock advances, the incrementally maintained
        /// model answers every cost query like a from-scratch
        /// `CostModel::build` over the same live set (within 1e-9).
        #[test]
        fn incremental_model_matches_scratch_build(
            specs in proptest::collection::vec(arb_spec(), 1..30),
            ops in proptest::collection::vec((0u8..9u8, 0.0f64..15.0), 1..50),
        ) {
            let jobs = build_jobs(&specs);
            let mut inc = IncrementalCostModel::new();
            let mut live: Vec<usize> = Vec::new();
            let mut next = 0usize;
            let mut now = 0.0f64;
            for &(op, dt) in &ops {
                match op % 3 {
                    0 if next < jobs.len() => {
                        inc.insert(&jobs[next]);
                        live.push(next);
                        next += 1;
                    }
                    1 if !live.is_empty() => {
                        let k = (op as usize).wrapping_mul(7) % live.len();
                        let victim = live.swap_remove(k);
                        inc.remove(&jobs[victim]);
                    }
                    _ => now += dt,
                }
                let t = Time::from(now);
                let scratch = CostModel::build(t, live.iter().map(|&i| &jobs[i]));
                let snap = inc.snapshot(t);
                prop_assert!(
                    (snap.active_decay() - scratch.active_decay()).abs() <= 1e-9,
                    "active decay diverged"
                );
                for &i in &live {
                    let a = snap.cost_of(&jobs[i], t);
                    let b = scratch.cost_of(&jobs[i], t);
                    prop_assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "job {}: maintained {} vs scratch {}", i, a, b
                    );
                }
            }
        }

        /// The pool's maintained selection equals the flat
        /// `(score, lowest id)` argmax over a from-scratch model, for
        /// every policy, through randomized push/dispatch/advance
        /// sequences.
        #[test]
        fn pool_selection_matches_flat_rescan(
            specs in proptest::collection::vec(arb_spec(), 1..25),
            ops in proptest::collection::vec((0u8..9u8, 0.0f64..10.0), 1..40),
        ) {
            let jobs = build_jobs(&specs);
            for policy in [
                Policy::Fcfs,
                Policy::Srpt,
                Policy::Swpt,
                Policy::FirstPrice,
                Policy::EarliestDeadline,
                Policy::pv(0.01),
                Policy::first_reward(0.3, 0.01),
            ] {
                let mut pool = PendingPool::new(policy);
                let mut next = 0usize;
                let mut now = 0.0f64;
                for &(op, dt) in &ops {
                    match op % 3 {
                        0 if next < jobs.len() => {
                            pool.push(jobs[next].clone());
                            next += 1;
                        }
                        1 if !pool.is_empty() => {
                            // Dispatch the incrementally chosen best.
                            let best = pool.select_best(Time::from(now)).unwrap();
                            pool.swap_remove(best);
                        }
                        _ => now += dt,
                    }
                    let t = Time::from(now);
                    let scratch = CostModel::build(t, pool.jobs());
                    let ctx = if policy.needs_cost_model() {
                        ScoreCtx::with_cost(t, &scratch)
                    } else {
                        ScoreCtx::simple(t)
                    };
                    let want = policy.select(pool.jobs(), &ctx);
                    let got = pool.select_best(t);
                    let want_id = want.map(|s| pool.jobs()[s].id().0);
                    let got_id = got.map(|s| pool.jobs()[s].id().0);
                    prop_assert!(
                        got_id == want_id,
                        "{}: pool chose {:?}, flat rescan chose {:?}",
                        policy.name(), got_id, want_id
                    );
                    if policy.needs_cost_model() {
                        // The argmax forgives a sweep term that is off
                        // for a job that does not win; the scores do not.
                        let swept = pool.scores(t);
                        let model = pool.cost_model(t).clone();
                        let ctx = ScoreCtx::with_cost(t, &model);
                        for (slot, job) in pool.jobs().iter().enumerate() {
                            prop_assert_eq!(
                                swept[slot].to_bits(),
                                policy.score(job, &ctx).to_bits(),
                                "{} score of {:?} at t={}", policy.name(), job.id(), now
                            );
                        }
                    }
                }
            }
        }
    }
}
