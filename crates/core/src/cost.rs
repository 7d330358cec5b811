//! Opportunity cost (§5.2, Equations 4 and 5).
//!
//! The opportunity cost of starting candidate task `i` is the aggregate
//! decline in yield of all *competing* (queued) tasks over the time
//! `RPT_i` that `i` would hold the processor:
//!
//! ```text
//! cost_i = Σ_{j ≠ i} d_j · min(RPT_i, window_j)          (Eq. 4)
//! ```
//!
//! where `window_j` is how much longer task `j`'s value keeps decaying
//! (finite when its penalty is bounded — an expired task can be deferred
//! for free; infinite when unbounded). With unbounded penalties every
//! window is infinite and the per-unit cost collapses to the aggregate
//! decay rate (Eq. 5):
//!
//! ```text
//! cost_i / RPT_i = Σ_{j ≠ i} d_j  =  D − d_i
//! ```
//!
//! so FirstReward's cost-only limit (α = 0) scores `d_i − D` and ranks by
//! the decay rate `d_i` alone. That is the classic SWPT order
//! (`d_i / RPT_i`) only when every RPT is equal. The paper notes the
//! naive bounded computation is `O(n)` per candidate (`O(n²)` per
//! scheduling step).
//! [`CostModel`] improves that: one `O(n log n)` build per scheduling
//! point, then `O(log n)` per candidate via binary search over
//! window-sorted prefix sums. [`DecaySum`] is the incrementally-maintained
//! aggregate for the unbounded fast path.

use crate::job::Job;
use mbts_sim::{Duration, Time};

/// Aggregate-decay accumulator for the unbounded-penalty fast path
/// (Eq. 5). Maintained incrementally by the site: `add` on arrival,
/// `remove` on dispatch-to-completion. Uses Kahan compensation so that
/// millions of add/remove pairs do not drift.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecaySum {
    sum: f64,
    compensation: f64,
    count: usize,
}

impl DecaySum {
    /// An empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task's decay rate.
    pub fn add(&mut self, decay: f64) {
        self.kahan_add(decay);
        self.count += 1;
    }

    /// Removes a previously added decay rate.
    pub fn remove(&mut self, decay: f64) {
        self.kahan_add(-decay);
        self.count -= 1;
        if self.count == 0 {
            // Snap to exactly zero so long runs can't accumulate dust.
            self.sum = 0.0;
            self.compensation = 0.0;
        }
    }

    fn kahan_add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// Current aggregate decay rate `D = Σ d_j`.
    pub fn total(&self) -> f64 {
        self.sum
    }

    /// Number of contributing tasks.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Exact internal state `(sum, compensation, count)`. The accumulator
    /// is history-dependent (Kahan compensation), so checkpoint/restore
    /// must carry this verbatim rather than rebuilding by re-adding —
    /// re-adding can differ in the low-order bits and flip near-tied
    /// scheduling comparisons on recovery.
    pub fn state(&self) -> (f64, f64, usize) {
        (self.sum, self.compensation, self.count)
    }

    /// Rebuilds the accumulator from [`state`](Self::state) output.
    pub fn from_state(state: (f64, f64, usize)) -> Self {
        DecaySum {
            sum: state.0,
            compensation: state.1,
            count: state.2,
        }
    }
}

/// A snapshot of the competing-task set at one scheduling point, answering
/// opportunity-cost queries in `O(log n)`.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Σ d_j over tasks whose decay window is infinite (unbounded
    /// penalties, or bounds not yet reachable).
    infinite_decay: f64,
    /// `(window, decay)` for finite-window tasks, sorted by window.
    finite: Vec<(f64, f64)>,
    /// `prefix_dw[k]` = Σ_{m < k} d_m · w_m over the sorted finite list.
    prefix_dw: Vec<f64>,
    /// `prefix_d[k]` = Σ_{m < k} d_m over the sorted finite list.
    prefix_d: Vec<f64>,
}

impl CostModel {
    /// Builds the model from the queued jobs at time `now`. Include the
    /// candidate itself; [`cost`](Self::cost) subtracts its own
    /// contribution, so one model serves every candidate at this point.
    pub fn build<'a>(now: Time, jobs: impl IntoIterator<Item = &'a Job>) -> Self {
        let mut model = Self::empty();
        model.refill(now, jobs);
        model
    }

    /// [`build`](Self::build) into this model's existing allocations.
    pub fn refill<'a>(&mut self, now: Time, jobs: impl IntoIterator<Item = &'a Job>) {
        self.infinite_decay = 0.0;
        self.finite.clear();
        for job in jobs {
            let d = job.spec.decay;
            if d == 0.0 {
                continue;
            }
            let w = job.decay_window(now);
            if w == Duration::INFINITY {
                self.infinite_decay += d;
            } else if w > Duration::ZERO {
                self.finite.push((w.as_f64(), d));
            }
            // w == 0 (expired): deferring is free; contributes nothing.
        }
        self.index_finite();
    }

    /// A model for an all-unbounded queue with aggregate decay `total`
    /// (the Eq. 5 fast path fed from a [`DecaySum`]).
    pub fn unbounded(total_decay: f64) -> Self {
        CostModel {
            infinite_decay: total_decay,
            finite: Vec::new(),
            prefix_dw: vec![0.0],
            prefix_d: vec![0.0],
        }
    }

    /// An empty model (no competing tasks, zero cost everywhere).
    pub fn empty() -> Self {
        Self::unbounded(0.0)
    }

    /// Refills the model in place from `(window, decay)` entries, reusing
    /// the existing allocations — the pending pool's snapshot path.
    /// Entries need not be sorted, but the caller (a deadline-ordered
    /// traversal) supplies them nearly sorted, so the adaptive sort runs
    /// in `O(n)`. The comparator and prefix-sum arithmetic are identical
    /// to [`build`](Self::build), so a snapshot reproduces a from-scratch
    /// build bit-for-bit given the same entry multiset and order.
    pub(crate) fn rebuild_in_place(
        &mut self,
        infinite_decay: f64,
        entries: impl IntoIterator<Item = (f64, f64)>,
    ) {
        self.infinite_decay = infinite_decay;
        self.finite.clear();
        self.finite.extend(entries);
        self.index_finite();
    }

    /// Sorts the finite-window entries and rebuilds both prefix sums.
    fn index_finite(&mut self) {
        self.finite.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.prefix_dw.clear();
        self.prefix_d.clear();
        self.prefix_dw.push(0.0);
        self.prefix_d.push(0.0);
        for &(w, d) in &self.finite {
            self.prefix_dw.push(self.prefix_dw.last().unwrap() + d * w);
            self.prefix_d.push(self.prefix_d.last().unwrap() + d);
        }
    }

    /// Σ_j d_j · min(rpt, w_j) over **all** tasks in the model.
    fn total_cost(&self, rpt: f64) -> f64 {
        // First index whose window ≥ rpt.
        let split = self.finite.partition_point(|&(w, _)| w < rpt);
        summed_cost(
            self.infinite_decay,
            rpt,
            self.prefix_dw[split],
            self.prefix_d[split],
            self.prefix_d[self.finite.len()],
        )
    }

    /// Opportunity cost (Eq. 4) of running `candidate` for its RPT at the
    /// model's scheduling point, excluding the candidate's own term. The
    /// candidate's `(decay, window)` must be evaluated at the same `now`
    /// the model was built with.
    pub fn cost(&self, candidate_rpt: Duration, own_decay: f64, own_window: Duration) -> f64 {
        let rpt = candidate_rpt.as_f64();
        opportunity_cost(self.total_cost(rpt), own_decay, own_window, rpt)
    }

    /// Convenience: opportunity cost of `job` at time `now` (must match
    /// the build time).
    pub fn cost_of(&self, job: &Job, now: Time) -> f64 {
        self.cost(job.rpt, job.spec.decay, job.decay_window(now))
    }

    /// Aggregate decay of all tasks in the model that are still decaying.
    pub fn active_decay(&self) -> f64 {
        self.infinite_decay + self.prefix_d[self.finite.len()]
    }
}

/// One task's Eq. 4 term, `decay · min(rpt, window)`: what `rpt` more
/// time units of waiting cost a task whose value keeps decaying for
/// `window`. Zero for a task that does not decay or has expired.
#[inline]
pub fn cost_term(decay: f64, window: Duration, rpt: f64) -> f64 {
    if decay == 0.0 || window == Duration::ZERO {
        0.0
    } else {
        decay * rpt.min(window.as_f64())
    }
}

/// Eq. 4 summed over a whole queue from its window-sorted prefix sums:
/// the never-expiring decay times `rpt`, plus `d·w` of every window
/// shorter than `rpt` (`dw_short`), plus `rpt` times the decay of the
/// longer finite windows (`d_finite − d_short`).
#[inline]
pub fn summed_cost(
    infinite_decay: f64,
    rpt: f64,
    dw_short: f64,
    d_short: f64,
    d_finite: f64,
) -> f64 {
    let cost = infinite_decay * rpt + dw_short;
    cost + (d_finite - d_short) * rpt
}

/// Eq. 4 for one candidate: the queue's `total` less the candidate's own
/// [`cost_term`], floored at zero.
#[inline]
pub fn opportunity_cost(total: f64, own_decay: f64, own_window: Duration, rpt: f64) -> f64 {
    (total - cost_term(own_decay, own_window, rpt)).max(0.0)
}

/// Reference `O(n)` implementation of Eq. 4, used by tests to validate
/// [`CostModel`].
#[cfg(test)]
fn cost_naive(now: Time, candidate: &Job, competitors: &[Job]) -> f64 {
    let rpt = candidate.rpt.as_f64();
    competitors
        .iter()
        .filter(|j| j.id() != candidate.id())
        .map(|j| {
            let w = j.decay_window(now);
            if w == Duration::ZERO {
                0.0
            } else {
                j.spec.decay * rpt.min(w.as_f64())
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};

    fn job(id: u64, runtime: f64, value: f64, decay: f64, bound: PenaltyBound) -> Job {
        Job::new(TaskSpec::new(id, 0.0, runtime, value, decay, bound))
    }

    #[test]
    fn decay_sum_add_remove() {
        let mut s = DecaySum::new();
        s.add(1.5);
        s.add(2.5);
        assert_eq!(s.total(), 4.0);
        assert_eq!(s.count(), 2);
        s.remove(1.5);
        assert_eq!(s.total(), 2.5);
        s.remove(2.5);
        assert_eq!(s.total(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn decay_sum_does_not_drift() {
        let mut s = DecaySum::new();
        for i in 0..100_000 {
            s.add(0.1 + (i % 7) as f64 * 0.013);
        }
        for i in 0..100_000 {
            s.remove(0.1 + (i % 7) as f64 * 0.013);
        }
        assert_eq!(s.total(), 0.0);
    }

    #[test]
    fn unbounded_cost_is_aggregate_decay_times_rpt() {
        // Eq. 5: cost_i = (D − d_i) · RPT_i.
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(i, 10.0, 100.0, (i + 1) as f64, PenaltyBound::Unbounded))
            .collect();
        let now = Time::ZERO;
        let model = CostModel::build(now, &jobs);
        let d_total: f64 = 1.0 + 2.0 + 3.0 + 4.0 + 5.0;
        for j in &jobs {
            let expected = (d_total - j.spec.decay) * j.rpt.as_f64();
            assert!((model.cost_of(j, now) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn bounded_windows_cap_contributions() {
        // Candidate rpt 10. Competitor A decays for only 4 more t.u.
        // (window 4): contributes d·4, not d·10.
        let candidate = job(0, 10.0, 100.0, 1.0, PenaltyBound::Unbounded);
        // B: value 8, decay 2, bounded at 0, runtime 0.1 → expire_time =
        // 0.1 + 4 = 4.1; window at now=0 is 4.1 − 0.1 = 4.
        let b = job(1, 0.1, 8.0, 2.0, PenaltyBound::ZERO);
        assert!((b.decay_window(Time::ZERO).as_f64() - 4.0).abs() < 1e-9);
        let jobs = vec![candidate.clone(), b];
        let model = CostModel::build(Time::ZERO, &jobs);
        let cost = model.cost_of(&candidate, Time::ZERO);
        assert!((cost - 2.0 * 4.0).abs() < 1e-6, "cost {cost}");
    }

    #[test]
    fn expired_tasks_cost_nothing() {
        let candidate = job(0, 10.0, 100.0, 1.0, PenaltyBound::Unbounded);
        let expired = job(1, 1.0, 5.0, 10.0, PenaltyBound::ZERO);
        // expire_time = 1 + 0.5 = 1.5; at now = 10 it's long expired.
        let now = Time::from(10.0);
        assert_eq!(expired.decay_window(now), Duration::ZERO);
        let jobs = vec![candidate.clone(), expired];
        let model = CostModel::build(now, &jobs);
        assert_eq!(model.cost_of(&candidate, now), 0.0);
    }

    #[test]
    fn zero_decay_tasks_cost_nothing() {
        let candidate = job(0, 10.0, 100.0, 1.0, PenaltyBound::Unbounded);
        let inert = job(1, 5.0, 50.0, 0.0, PenaltyBound::Unbounded);
        let jobs = vec![candidate.clone(), inert];
        let model = CostModel::build(Time::ZERO, &jobs);
        assert_eq!(model.cost_of(&candidate, Time::ZERO), 0.0);
    }

    #[test]
    fn model_matches_naive_on_mixed_queue() {
        let now = Time::from(3.0);
        let jobs: Vec<Job> = vec![
            job(0, 7.0, 100.0, 1.0, PenaltyBound::Unbounded),
            job(1, 2.0, 30.0, 4.0, PenaltyBound::ZERO),
            job(
                2,
                15.0,
                200.0,
                0.5,
                PenaltyBound::Bounded { max_penalty: 20.0 },
            ),
            job(3, 1.0, 5.0, 9.0, PenaltyBound::ZERO),
            job(4, 4.0, 0.0, 2.0, PenaltyBound::ZERO), // value 0: window 0
        ];
        let model = CostModel::build(now, &jobs);
        for candidate in &jobs {
            let fast = model.cost_of(candidate, now);
            let slow = cost_naive(now, candidate, &jobs);
            assert!(
                (fast - slow).abs() < 1e-9,
                "{}: fast {fast} slow {slow}",
                candidate.id()
            );
        }
    }

    #[test]
    fn unbounded_constructor_matches_build() {
        let jobs: Vec<Job> = (0..4)
            .map(|i| job(i, 5.0, 50.0, 0.5 + i as f64, PenaltyBound::Unbounded))
            .collect();
        let built = CostModel::build(Time::ZERO, &jobs);
        let total: f64 = jobs.iter().map(|j| j.spec.decay).sum();
        let direct = CostModel::unbounded(total);
        for j in &jobs {
            assert!((built.cost_of(j, Time::ZERO) - direct.cost_of(j, Time::ZERO)).abs() < 1e-9);
        }
        assert!((built.active_decay() - total).abs() < 1e-12);
    }

    #[test]
    fn a_candidate_is_charged_the_total_less_its_own_term() {
        // Own term d·min(rpt, window): the window binds below rpt.
        assert_eq!(cost_term(2.0, Duration::from(3.0), 10.0), 6.0);
        assert_eq!(cost_term(2.0, Duration::INFINITY, 10.0), 20.0);
        assert_eq!(cost_term(2.0, Duration::ZERO, 10.0), 0.0);
        assert_eq!(cost_term(0.0, Duration::INFINITY, 10.0), 0.0);
        // 1·10 never-expiring + 4 (short windows) + 10·(3 − 1) long.
        assert_eq!(summed_cost(1.0, 10.0, 4.0, 1.0, 3.0), 34.0);
        assert_eq!(opportunity_cost(34.0, 2.0, Duration::from(3.0), 10.0), 28.0);
        // Rounding can leave the own term above the total: never negative.
        assert_eq!(opportunity_cost(5.0, 2.0, Duration::from(3.0), 10.0), 0.0);
    }

    #[test]
    fn queue_of_only_the_candidate_costs_nothing() {
        // The model must include the candidate (cost() subtracts its own
        // term); a singleton queue therefore has zero opportunity cost.
        let candidate = job(0, 10.0, 100.0, 1.0, PenaltyBound::Unbounded);
        let model = CostModel::build(Time::ZERO, std::iter::once(&candidate));
        assert_eq!(model.cost_of(&candidate, Time::ZERO), 0.0);
        assert!((model.active_decay() - 1.0).abs() < 1e-12);
        let empty = CostModel::build(Time::ZERO, std::iter::empty());
        assert_eq!(empty.active_decay(), 0.0);
        // A zero-decay probe against the empty model is also free.
        assert_eq!(empty.cost(Duration::from(5.0), 0.0, Duration::ZERO), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};
    use proptest::prelude::*;

    fn arb_job(id: u64) -> impl Strategy<Value = Job> {
        (
            0.1f64..50.0,  // runtime
            0.0f64..300.0, // value
            0.0f64..10.0,  // decay
            prop_oneof![
                Just(PenaltyBound::Unbounded),
                Just(PenaltyBound::ZERO),
                (0.0f64..50.0).prop_map(|p| PenaltyBound::Bounded { max_penalty: p }),
            ],
        )
            .prop_map(move |(rt, v, d, b)| Job::new(TaskSpec::new(id, 0.0, rt, v, d, b)))
    }

    fn arb_queue() -> impl Strategy<Value = Vec<Job>> {
        proptest::collection::vec(any::<u8>(), 1..40).prop_flat_map(|ids| {
            ids.into_iter()
                .enumerate()
                .map(|(i, _)| arb_job(i as u64))
                .collect::<Vec<_>>()
        })
    }

    proptest! {
        /// The O(log n) CostModel agrees with the O(n) reference (Eq. 4)
        /// on arbitrary mixed queues and query times.
        #[test]
        fn model_equals_naive(jobs in arb_queue(), now in 0.0f64..100.0) {
            let now = Time::from(now);
            let model = CostModel::build(now, &jobs);
            for candidate in &jobs {
                let fast = model.cost_of(candidate, now);
                let slow = cost_naive(now, candidate, &jobs);
                prop_assert!((fast - slow).abs() < 1e-6,
                    "fast {fast} slow {slow}");
            }
        }

        /// Opportunity cost is non-negative and non-decreasing in RPT.
        #[test]
        fn cost_monotone_in_rpt(jobs in arb_queue(), now in 0.0f64..100.0,
                                rpt1 in 0.1f64..50.0, extra in 0.0f64..50.0) {
            let now = Time::from(now);
            let model = CostModel::build(now, &jobs);
            let c1 = model.cost(Duration::from(rpt1), 0.0, Duration::ZERO);
            let c2 = model.cost(Duration::from(rpt1 + extra), 0.0, Duration::ZERO);
            prop_assert!(c1 >= -1e-9);
            prop_assert!(c2 + 1e-9 >= c1);
        }

        /// DecaySum returns to (near) zero after removing everything, in
        /// any interleaving.
        #[test]
        fn decay_sum_conservation(decays in proptest::collection::vec(0.0f64..10.0, 1..100)) {
            let mut s = DecaySum::new();
            for &d in &decays { s.add(d); }
            let total: f64 = decays.iter().sum();
            prop_assert!((s.total() - total).abs() < 1e-9);
            for &d in decays.iter().rev() { s.remove(d); }
            prop_assert_eq!(s.total(), 0.0);
        }
    }
}
