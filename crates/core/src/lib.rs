//! # mbts-core — value-based scheduling: risk/reward heuristics
//!
//! The paper's primary contribution (§3–§6), as a library:
//!
//! * [`job`] — mutable per-task scheduling state: remaining processing
//!   time (RPT), preemption bookkeeping, expected yield.
//! * [`cost`] — **opportunity cost** (§5.2): the exact Eq. 4 form with
//!   per-task expiry windows in `O(log n)` per candidate via a
//!   sorted-prefix-sum [`cost::CostModel`], degrading gracefully to the
//!   Eq. 5 aggregate-decay `O(1)` form when all penalties are unbounded.
//! * [`heuristics`] — the scheduling policies: FCFS and SRPT baselines,
//!   SWPT, Millennium's **FirstPrice** (unit gain `yield/RPT`), **PV**
//!   (§5.1, discounted unit gain), and **FirstReward** (§5.3,
//!   `(α·PV − (1−α)·cost)/RPT`).
//! * [`pool`] — the **scheduling core**: a persistent
//!   pending pool maintaining policy scores and the cost model across
//!   submit/complete/cancel/expire in `O(log n)` per event instead of
//!   rebuilding from scratch at every dispatch point.
//! * [`schedule`] — candidate schedules over a pool of processors, used
//!   for negotiation (expected completion times) and admission control.
//! * [`admission`] — the slack computation of Eq. 7/8 and the
//!   slack-threshold acceptance heuristic of §6.
//!
//! Each equation term is one `#[inline]` function over plain numbers,
//! and every caller, the pool's merge sweep included, calls it:
//! `mbts_workload::task::{delay, decayed_yield}` (Eq. 1/2),
//! [`job::discount`] (Eq. 3), [`job::decay_window`],
//! [`cost::cost_term`], [`cost::summed_cost`] and
//! [`cost::opportunity_cost`] (Eq. 4), [`heuristics::reward`] (§5.3) and
//! [`admission::slack`] (Eq. 7).
//!
//! ```
//! use mbts_core::{CostModel, Job, Policy, ScoreCtx};
//! use mbts_sim::Time;
//! use mbts_workload::{PenaltyBound, TaskSpec};
//!
//! // Two queued tasks: a long valuable one and a short urgent one.
//! let calm = Job::new(TaskSpec::new(0, 0.0, 50.0, 500.0, 0.1, PenaltyBound::UNBOUNDED));
//! let urgent = Job::new(TaskSpec::new(1, 0.0, 5.0, 20.0, 5.0, PenaltyBound::UNBOUNDED));
//! let queue = vec![calm, urgent];
//!
//! // FirstPrice chases unit gain; FirstReward(α=0) weighs opportunity cost.
//! let now = Time::ZERO;
//! let model = CostModel::build(now, &queue);
//! let ctx = ScoreCtx::with_cost(now, &model);
//! assert_eq!(Policy::FirstPrice.select(&queue, &ctx), Some(0));
//! assert_eq!(Policy::first_reward(0.0, 0.01).select(&queue, &ctx), Some(1));
//! ```

pub mod admission;
pub mod cost;
pub mod explain;
pub mod heuristics;
pub mod job;
pub mod mergemap;
pub mod pool;
pub mod readyset;
pub mod schedule;

pub use admission::{
    decision_from_schedule, evaluate_admission, AdmissionDecision, AdmissionPolicy,
};
pub use cost::{CostModel, DecaySum};
pub use explain::{decompose, explain_decision, DecisionExplanation, ScoreDecomposition};
pub use heuristics::{Policy, ScoreCtx};
pub use job::Job;
pub use pool::{IncrementalCostModel, PendingPool, PoolCheckpoint};
pub use readyset::{
    ReadySet, WorkflowProgress, WorkflowReport, WorkflowRuntime, WorkflowSettlement,
};
pub use schedule::{
    build_candidate, with_candidate_schedule, CandidateSchedule, ScheduleEntry, ScheduleMode,
};
