//! Candidate schedules (§4, §6).
//!
//! A *candidate schedule* lays the queued tasks out over the site's
//! processors according to a [`Policy`], yielding an expected start and
//! completion time per task. Sites use it to answer two questions the
//! market layer asks (§6): *when would this task complete if accepted?*
//! and *which tasks sit behind it?* (the slack cost, Eq. 8).
//!
//! Two construction modes, an ablation called out in DESIGN.md:
//!
//! * [`ScheduleMode::Static`] — score every job once at the scheduling
//!   point, sort, and pack in score order (`O(n log n)`). This is the
//!   default used on the admission path.
//! * [`ScheduleMode::Dynamic`] — re-evaluate scores at each successive
//!   dispatch instant, exactly mirroring what the site's dispatcher will
//!   do (`O(n² log n)`). More faithful for strongly time-varying scores,
//!   and slower by that factor of `n`.

use crate::cost::CostModel;
use crate::heuristics::{Policy, ScoreCtx};
use crate::job::Job;
use crate::pool::PendingPool;
use mbts_sim::Time;
use mbts_workload::TaskId;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// How candidate schedules are constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ScheduleMode {
    /// Score once at the scheduling point, pack in score order.
    #[default]
    Static,
    /// Re-score at every dispatch instant (exact greedy).
    Dynamic,
}

/// One task's slot in a candidate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// The task.
    pub id: TaskId,
    /// Expected (re)start time.
    pub start: Time,
    /// Expected completion (`start + RPT`, Eq. 2's premise).
    pub completion: Time,
    /// Expected yield at that completion (Eq. 1).
    pub expected_yield: f64,
    /// The task's decay rate, carried so admission control can evaluate
    /// Eq. 8 from the schedule alone.
    pub decay: f64,
}

/// An expected layout of the queue over the processors, in dispatch order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CandidateSchedule {
    /// Entries in dispatch order (position = place in line).
    pub entries: Vec<ScheduleEntry>,
}

impl CandidateSchedule {
    /// Finds the entry for `id`.
    pub fn entry(&self, id: TaskId) -> Option<&ScheduleEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Dispatch position of `id` (0 = first).
    pub fn position(&self, id: TaskId) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    /// Entries strictly behind `id` in dispatch order — the tasks a newly
    /// inserted `id` delays (§6's slack cost, Eq. 8).
    pub fn behind(&self, id: TaskId) -> &[ScheduleEntry] {
        match self.position(id) {
            Some(pos) => &self.entries[pos + 1..],
            None => &[],
        }
    }

    /// Sum of expected yields over the whole layout.
    pub fn total_expected_yield(&self) -> f64 {
        self.entries.iter().map(|e| e.expected_yield).sum()
    }

    /// The latest expected completion (`Time::ZERO` when empty).
    pub fn makespan(&self) -> Time {
        self.entries
            .iter()
            .map(|e| e.completion)
            .max()
            .unwrap_or(Time::ZERO)
    }
}

/// Builds a candidate schedule for `jobs` over processors that become free
/// at `processor_free` (entries may be in the past; they are clamped to
/// `now`). Running tasks are *not* rescheduled: model them via their
/// processor's free time.
pub fn build_candidate(
    policy: &Policy,
    mode: ScheduleMode,
    now: Time,
    processor_free: &[Time],
    jobs: &[Job],
) -> CandidateSchedule {
    let free = |buf: &mut Vec<Time>| buf.extend_from_slice(processor_free);
    with_candidate_schedule(
        policy,
        mode,
        now,
        free,
        jobs,
        None,
        CandidateSchedule::clone,
    )
}

/// The buffers one layout fills. Each thread keeps a set, so that laying
/// out a queue (one admission quote) allocates nothing once they have
/// grown to the deepest queue seen.
struct Layout {
    /// Processor free times, clamped to `now`, advanced as jobs are placed.
    free: Vec<Time>,
    /// `(job index, score)` in dispatch order (static mode).
    order: Vec<(usize, f64)>,
    /// Processor indices a gang wider than one selects among.
    gang: Vec<usize>,
    /// Opportunity-cost model of the queue, for policies that need one.
    cost: Option<CostModel>,
    schedule: CandidateSchedule,
}

thread_local! {
    static LAYOUT: RefCell<Layout> = const { RefCell::new(Layout::new()) };
}

/// Lays out `jobs` plus, optionally, one `extra` job (the bid being
/// quoted, ranked as if it were pushed last onto `jobs`) exactly as
/// [`build_candidate`] does, and hands the schedule to `read` instead of
/// returning it. The schedule lives in this thread's reused buffers, and
/// `processor_free` pushes the free times onto the emptied one it is
/// given, so a caller that only reads an
/// [`AdmissionDecision`](crate::AdmissionDecision) off the schedule
/// allocates nothing in steady state.
pub fn with_candidate_schedule<R>(
    policy: &Policy,
    mode: ScheduleMode,
    now: Time,
    processor_free: impl FnOnce(&mut Vec<Time>),
    jobs: &[Job],
    extra: Option<&Job>,
    read: impl FnOnce(&CandidateSchedule) -> R,
) -> R {
    LAYOUT.with(|cell| match cell.try_borrow_mut() {
        Ok(mut layout) => read(layout.fill(policy, mode, now, processor_free, jobs, extra)),
        // `processor_free` or an outer `read` is itself laying out a
        // schedule on this thread: use fresh buffers.
        Err(_) => read(Layout::new().fill(policy, mode, now, processor_free, jobs, extra)),
    })
}

impl Layout {
    const fn new() -> Self {
        Layout {
            free: Vec::new(),
            order: Vec::new(),
            gang: Vec::new(),
            cost: None,
            schedule: CandidateSchedule {
                entries: Vec::new(),
            },
        }
    }

    fn fill(
        &mut self,
        policy: &Policy,
        mode: ScheduleMode,
        now: Time,
        processor_free: impl FnOnce(&mut Vec<Time>),
        jobs: &[Job],
        extra: Option<&Job>,
    ) -> &CandidateSchedule {
        self.free.clear();
        processor_free(&mut self.free);
        for t in &mut self.free {
            *t = (*t).max(now);
        }
        assert!(!self.free.is_empty(), "need at least one processor");
        for job in jobs.iter().chain(extra) {
            assert!(
                job.spec.width <= self.free.len(),
                "{} requests {} processors but the site has {}",
                job.id(),
                job.spec.width,
                self.free.len()
            );
        }
        self.schedule.entries.clear();
        match mode {
            ScheduleMode::Static => self.fill_static(policy, now, jobs, extra),
            ScheduleMode::Dynamic => self.fill_dynamic(policy, jobs, extra),
        }
        &self.schedule
    }

    fn fill_static(&mut self, policy: &Policy, now: Time, jobs: &[Job], extra: Option<&Job>) {
        let Layout {
            free,
            order,
            gang,
            cost,
            schedule,
        } = self;
        let ctx = if policy.needs_cost_model() {
            let model = cost.get_or_insert_with(CostModel::empty);
            model.refill(now, jobs.iter().chain(extra));
            ScoreCtx::with_cost(now, model)
        } else {
            ScoreCtx::simple(now)
        };
        order.clear();
        order.extend(
            jobs.iter()
                .chain(extra)
                .enumerate()
                .map(|(i, j)| (i, policy.score(j, &ctx))),
        );
        // Index `jobs.len()` is the extra job.
        let job_at = |i: usize| jobs.get(i).or(extra).expect("index from the enumeration");
        // Descending score; ties to lower task id for determinism.
        order.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then_with(|| job_at(a.0).id().cmp(&job_at(b.0).id()))
        });
        for &(idx, _) in order.iter() {
            schedule.entries.push(place(free, gang, job_at(idx)));
        }
    }

    fn fill_dynamic(&mut self, policy: &Policy, jobs: &[Job], extra: Option<&Job>) {
        // One persistent pool across the whole layout instead of rebuilding
        // scores (and the cost model) from scratch at every dispatch instant:
        // selection is a heap peek for time-invariant policies and an O(n)
        // re-rank over incrementally maintained state otherwise.
        let mut pool = PendingPool::new(*policy);
        for job in jobs.iter().chain(extra) {
            pool.push(job.clone());
        }
        while !pool.is_empty() {
            // Score at the next dispatch instant: the earliest processor-free
            // time (a wider pick launches later; its own entry records that).
            let t = (self.free.iter().copied().min()).expect("non-empty free list");
            let pick = pool.select_best(t).expect("non-empty pool");
            let job = pool.swap_remove(pick);
            let entry = place(&mut self.free, &mut self.gang, &job);
            self.schedule.entries.push(entry);
        }
    }
}

/// Gang-places `job` on its `width` earliest-free processors: the start is
/// the latest of those frees (the earlier ones idle until the gang can
/// launch together, the usual internal fragmentation of gang scheduling).
///
/// Tie-break: processors are ranked by `(free_time, index)`, so among
/// equally early processors the lowest-indexed ones are taken — the same
/// order the previous repeated-min scan produced, pinned here so recorded
/// schedules replay identically. Selection runs in `O(p)` expected
/// (`select_nth_unstable_by`) instead of the old `O(width · p)` repeated
/// min with an `O(width)` membership scan per probe. `gang` is scratch
/// for the processor indices a wide job selects among.
fn place(free: &mut [Time], gang: &mut Vec<usize>, job: &Job) -> ScheduleEntry {
    let width = job.spec.width;
    debug_assert!(width >= 1, "gangs have at least one member");
    debug_assert!(width <= free.len(), "width <= processor count");
    let start = if width == 1 {
        // Fast path: one scan for the earliest free, no index buffer.
        let mut best = 0;
        for (i, t) in free.iter().enumerate().skip(1) {
            if *t < free[best] {
                best = i;
            }
        }
        let s = free[best];
        free[best] = s + job.rpt;
        s
    } else {
        gang.clear();
        gang.extend(0..free.len());
        let (earlier, nth, _) =
            gang.select_nth_unstable_by(width - 1, |&a, &b| free[a].cmp(&free[b]).then(a.cmp(&b)));
        // The partition pivot is the gang's latest-free member, i.e. the
        // gang's start time; everything left of it joins the gang.
        let s = free[*nth];
        let completion = s + job.rpt;
        free[*nth] = completion;
        for &i in earlier.iter() {
            free[i] = completion;
        }
        s
    };
    let completion = start + job.rpt;
    ScheduleEntry {
        id: job.id(),
        start,
        completion,
        expected_yield: job.spec.yield_at(completion),
        decay: job.spec.decay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_sim::Duration;
    use mbts_workload::{PenaltyBound, TaskSpec};

    fn job(id: u64, runtime: f64, value: f64, decay: f64) -> Job {
        Job::new(TaskSpec::new(
            id,
            0.0,
            runtime,
            value,
            decay,
            PenaltyBound::UNBOUNDED,
        ))
    }

    fn free(n: usize) -> Vec<Time> {
        vec![Time::ZERO; n]
    }

    #[test]
    fn single_processor_fcfs_is_arrival_order() {
        let jobs = vec![job(0, 5.0, 10.0, 0.1), job(1, 3.0, 10.0, 0.1)];
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::ZERO,
            &free(1),
            &jobs,
        );
        assert_eq!(s.entries[0].id, TaskId(0));
        assert_eq!(s.entries[0].start, Time::ZERO);
        assert_eq!(s.entries[0].completion, Time::from(5.0));
        assert_eq!(s.entries[1].start, Time::from(5.0));
        assert_eq!(s.entries[1].completion, Time::from(8.0));
    }

    #[test]
    fn srpt_orders_shortest_first() {
        let jobs = vec![
            job(0, 9.0, 10.0, 0.1),
            job(1, 1.0, 10.0, 0.1),
            job(2, 4.0, 10.0, 0.1),
        ];
        let s = build_candidate(
            &Policy::Srpt,
            ScheduleMode::Static,
            Time::ZERO,
            &free(1),
            &jobs,
        );
        let ids: Vec<u64> = s.entries.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn two_processors_pack_in_parallel() {
        let jobs = vec![
            job(0, 4.0, 10.0, 0.1),
            job(1, 4.0, 10.0, 0.1),
            job(2, 4.0, 10.0, 0.1),
        ];
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::ZERO,
            &free(2),
            &jobs,
        );
        assert_eq!(s.entries[0].start, Time::ZERO);
        assert_eq!(s.entries[1].start, Time::ZERO);
        assert_eq!(s.entries[2].start, Time::from(4.0));
        assert_eq!(s.makespan(), Time::from(8.0));
    }

    #[test]
    fn busy_processors_clamp_to_free_times() {
        let jobs = vec![job(0, 2.0, 10.0, 0.1)];
        let busy = vec![Time::from(7.0), Time::from(3.0)];
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::from(1.0),
            &busy,
            &jobs,
        );
        // Goes to the processor free at t = 3.
        assert_eq!(s.entries[0].start, Time::from(3.0));
        assert_eq!(s.entries[0].completion, Time::from(5.0));
    }

    #[test]
    fn past_free_times_clamp_to_now() {
        let jobs = vec![job(0, 2.0, 10.0, 0.1)];
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::from(10.0),
            &[Time::from(1.0)],
            &jobs,
        );
        assert_eq!(s.entries[0].start, Time::from(10.0));
    }

    #[test]
    fn expected_yield_reflects_queueing_delay() {
        // Two equal tasks on one processor: the second one's yield decays.
        let jobs = vec![job(0, 10.0, 100.0, 1.0), job(1, 10.0, 100.0, 1.0)];
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::ZERO,
            &free(1),
            &jobs,
        );
        assert_eq!(s.entries[0].expected_yield, 100.0);
        // Second completes at 20, earliest possible 10 → delay 10, decay 1.
        assert_eq!(s.entries[1].expected_yield, 90.0);
        assert_eq!(s.total_expected_yield(), 190.0);
    }

    #[test]
    fn behind_returns_later_entries() {
        let jobs = vec![
            job(0, 1.0, 100.0, 1.0),
            job(1, 1.0, 50.0, 1.0),
            job(2, 1.0, 20.0, 1.0),
        ];
        let s = build_candidate(
            &Policy::FirstPrice,
            ScheduleMode::Static,
            Time::ZERO,
            &free(1),
            &jobs,
        );
        // FirstPrice: unit gains 100, 50, 20 → order 0, 1, 2.
        let behind0 = s.behind(TaskId(0));
        assert_eq!(behind0.len(), 2);
        assert!(s.behind(TaskId(2)).is_empty());
        assert!(s.behind(TaskId(99)).is_empty());
        assert_eq!(s.position(TaskId(1)), Some(1));
    }

    #[test]
    fn dynamic_mode_reevaluates_scores() {
        // Construct a case where static and dynamic disagree: a task that
        // expires (stops losing value) by the time the second slot opens.
        // Static (scored at t=0) ranks it by its t=0 yield; dynamic sees
        // its yield already floored at the later dispatch instant.
        let fresh = Job::new(TaskSpec::new(0, 0.0, 10.0, 100.0, 1.0, PenaltyBound::ZERO));
        // Expires fast: value 6, decay 3, runtime 1 → expire at t = 3.
        let dying = Job::new(TaskSpec::new(1, 0.0, 1.0, 6.0, 3.0, PenaltyBound::ZERO));
        let jobs = vec![fresh, dying];
        let sta = build_candidate(
            &Policy::FirstPrice,
            ScheduleMode::Static,
            Time::ZERO,
            &free(1),
            &jobs,
        );
        let dyn_ = build_candidate(
            &Policy::FirstPrice,
            ScheduleMode::Dynamic,
            Time::ZERO,
            &free(1),
            &jobs,
        );
        // Both agree on the first pick (dying: unit gain 3/1=3 vs 90/10=9
        // → fresh first actually). Verify yields are consistent in both.
        for s in [&sta, &dyn_] {
            for e in &s.entries {
                let j = jobs.iter().find(|j| j.id() == e.id).unwrap();
                assert_eq!(j.spec.yield_at(e.completion), e.expected_yield);
            }
        }
    }

    #[test]
    fn static_and_dynamic_agree_for_time_invariant_scores() {
        // SWPT scores don't depend on `now`: both modes give one ordering.
        let jobs: Vec<Job> = (0..10)
            .map(|i| job(i, 1.0 + (i % 4) as f64, 50.0, 0.2 + (i % 3) as f64))
            .collect();
        let a = build_candidate(
            &Policy::Swpt,
            ScheduleMode::Static,
            Time::ZERO,
            &free(3),
            &jobs,
        );
        let b = build_candidate(
            &Policy::Swpt,
            ScheduleMode::Dynamic,
            Time::ZERO,
            &free(3),
            &jobs,
        );
        let ids_a: Vec<u64> = a.entries.iter().map(|e| e.id.0).collect();
        let ids_b: Vec<u64> = b.entries.iter().map(|e| e.id.0).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn first_reward_schedule_builds_with_cost_model() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 5.0, 50.0, 1.0 + i as f64)).collect();
        for mode in [ScheduleMode::Static, ScheduleMode::Dynamic] {
            let s = build_candidate(
                &Policy::first_reward(0.3, 0.01),
                mode,
                Time::ZERO,
                &free(2),
                &jobs,
            );
            assert_eq!(s.entries.len(), 6);
        }
    }

    #[test]
    fn partially_run_jobs_use_rpt_not_runtime() {
        let mut j = job(0, 10.0, 100.0, 1.0);
        j.advance(Duration::from(7.0));
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::from(50.0),
            &free(1),
            &[j],
        );
        assert_eq!(s.entries[0].completion, Time::from(53.0));
    }

    #[test]
    fn empty_queue_empty_schedule() {
        let s = build_candidate(
            &Policy::Fcfs,
            ScheduleMode::Static,
            Time::ZERO,
            &free(2),
            &[],
        );
        assert!(s.entries.is_empty());
        assert_eq!(s.total_expected_yield(), 0.0);
        assert_eq!(s.makespan(), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn no_processors_rejected() {
        let _ = build_candidate(&Policy::Fcfs, ScheduleMode::Static, Time::ZERO, &[], &[]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};
    use proptest::prelude::*;

    proptest! {
        /// Schedule invariants, both modes, all policies: every job
        /// appears exactly once; completion = start + rpt; no processor
        /// ever runs two tasks at once; starts are never before `now`.
        #[test]
        fn schedule_invariants(
            procs in 1usize..5,
            jobs_seed in proptest::collection::vec((0.1f64..30.0, 0.0f64..200.0, 0.0f64..5.0, 1usize..=4), 1..40),
            now in 0.0f64..50.0,
            mode_dyn in any::<bool>(),
        ) {
            let jobs: Vec<Job> = jobs_seed
                .into_iter()
                .enumerate()
                .map(|(i, (rt, v, d, w))| {
                    Job::new(
                        TaskSpec::new(i as u64, 0.0, rt, v, d, PenaltyBound::UNBOUNDED)
                            .with_width(w.min(procs)),
                    )
                })
                .collect();
            let mode = if mode_dyn { ScheduleMode::Dynamic } else { ScheduleMode::Static };
            let now = Time::from(now);
            let frees = vec![Time::ZERO; procs];
            for policy in [Policy::Fcfs, Policy::Srpt, Policy::FirstPrice, Policy::first_reward(0.4, 0.01)] {
                let s = build_candidate(&policy, mode, now, &frees, &jobs);
                prop_assert_eq!(s.entries.len(), jobs.len());
                // Exactly once each.
                let mut seen: Vec<u64> = s.entries.iter().map(|e| e.id.0).collect();
                seen.sort_unstable();
                let mut expect: Vec<u64> = jobs.iter().map(|j| j.id().0).collect();
                expect.sort_unstable();
                prop_assert_eq!(seen, expect);
                // Arithmetic + causality.
                for e in &s.entries {
                    let j = jobs.iter().find(|j| j.id() == e.id).unwrap();
                    prop_assert!(e.start >= now);
                    prop_assert!(e.completion.approx_eq(e.start + j.rpt));
                }
                // Capacity: at any instant the in-flight *processor*
                // usage (Σ widths of running gangs) never exceeds the
                // pool.
                let mut events: Vec<(Time, i64)> = Vec::new();
                for e in &s.entries {
                    let j = jobs.iter().find(|j| j.id() == e.id).unwrap();
                    let w = j.spec.width as i64;
                    events.push((e.start, w));
                    events.push((e.completion, -w));
                }
                events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut in_flight: i64 = 0;
                for (_, delta) in events {
                    in_flight += delta;
                    prop_assert!(in_flight <= procs as i64);
                    prop_assert!(in_flight >= 0);
                }
            }
        }
    }
}
