//! Scheduling heuristics (§4 baselines, §5 risk/reward family).
//!
//! Every policy reduces to a **score**: at each dispatch point the
//! scheduler runs the queued job with the highest score (ties broken by
//! lower task id, i.e. earlier arrival — deterministic and replayable).
//!
//! | Policy | Score | Paper |
//! |---|---|---|
//! | `Fcfs` | `−arrival_i` | §4 baseline |
//! | `Srpt` | `−RPT_i` | §4 baseline |
//! | `Swpt` | `d_i / RPT_i` | §4/§5.2 (optimal for TWCT, simultaneous release) |
//! | `FirstPrice` | `yield_i / RPT_i` (unit gain) | Millennium, §4 |
//! | `PresentValue` | `PV_i / RPT_i`, `PV_i = yield_i/(1 + rate·RPT_i)` | §5.1, Eq. 3 |
//! | `FirstReward` | `(α·PV_i − (1−α)·cost_i) / RPT_i` | §5.3, Eq. 6 |
//!
//! `FirstReward` reduces to `PresentValue` at `α = 1`. At `α = 0`
//! (cost-only) with unbounded penalties it ranks by decay rate `d_i`
//! alone (Eq. 5: `cost_i / RPT_i = D − d_i`) — the paper's "variant of
//! SWPT", which orders like SWPT's `d_i / RPT_i` only when every RPT is
//! equal. Tests below pin both reductions.

use crate::cost::CostModel;
use crate::job::Job;
use mbts_sim::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A value-based scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// First Come First Served: order by arrival time.
    Fcfs,
    /// Shortest Remaining Processing Time.
    Srpt,
    /// Shortest Weighted Processing Time: order by `decay / RPT`.
    Swpt,
    /// Millennium's greedy unit-gain heuristic: order by `yield / RPT`.
    FirstPrice,
    /// §5.1: discounted unit gain, `PV / RPT`.
    PresentValue {
        /// Simple-interest discount rate per time unit (e.g. `0.01` = 1 %).
        discount_rate: f64,
    },
    /// Earliest Deadline First over the value functions' expiration
    /// times — the deadline-scheduling strawman §3 argues against: it
    /// gives the scheduler "little guidance on how to proceed if there is
    /// no feasible schedule". Tasks that never expire sort last.
    EarliestDeadline,
    /// §5.3: the configurable risk/reward balance,
    /// `(α·PV − (1−α)·cost) / RPT`.
    FirstReward {
        /// Weight on (discounted) gains; `1 − α` weighs opportunity cost.
        alpha: f64,
        /// Discount rate fed into the PV term.
        discount_rate: f64,
    },
}

impl Policy {
    /// `PresentValue` with the given discount rate.
    pub fn pv(discount_rate: f64) -> Policy {
        assert!(discount_rate >= 0.0, "discount rate must be non-negative");
        Policy::PresentValue { discount_rate }
    }

    /// `FirstReward` with the given α and discount rate.
    pub fn first_reward(alpha: f64, discount_rate: f64) -> Policy {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        assert!(discount_rate >= 0.0, "discount rate must be non-negative");
        Policy::FirstReward {
            alpha,
            discount_rate,
        }
    }

    /// `true` when scoring needs an opportunity-cost model of the queue.
    pub fn needs_cost_model(&self) -> bool {
        matches!(self, Policy::FirstReward { .. })
    }

    /// `true` when [`score`](Self::score) ignores `ctx.now`: the score of
    /// a queued job is fixed at submission (arrival, RPT, decay, and
    /// expiration are all constant while it waits). Such scores can be
    /// cached once and served from a heap instead of recomputed per
    /// dispatch instant (see [`crate::pool::PendingPool`]).
    pub fn time_invariant_score(&self) -> bool {
        matches!(
            self,
            Policy::Fcfs | Policy::Srpt | Policy::Swpt | Policy::EarliestDeadline
        )
    }

    /// Short, stable name for reports and bench labels.
    pub fn name(&self) -> String {
        match self {
            Policy::Fcfs => "FCFS".into(),
            Policy::Srpt => "SRPT".into(),
            Policy::Swpt => "SWPT".into(),
            Policy::FirstPrice => "FirstPrice".into(),
            Policy::EarliestDeadline => "EDF".into(),
            Policy::PresentValue { discount_rate } => {
                format!("PV(rate={discount_rate})")
            }
            Policy::FirstReward {
                alpha,
                discount_rate,
            } => format!("FirstReward(α={alpha},rate={discount_rate})"),
        }
    }

    /// Scores `job` at dispatch point `ctx.now`; higher runs first.
    ///
    /// Panics if the policy [`needs_cost_model`](Self::needs_cost_model)
    /// and `ctx.cost` is `None` — callers own providing the queue model.
    pub fn score(&self, job: &Job, ctx: &ScoreCtx<'_>) -> f64 {
        let rpt = job.rpt.as_f64().max(f64::MIN_POSITIVE);
        match self {
            Policy::Fcfs => -job.spec.arrival.as_f64(),
            Policy::Srpt => -rpt,
            Policy::Swpt => job.spec.decay / rpt,
            Policy::FirstPrice => job.yield_if_started(ctx.now) / rpt,
            Policy::EarliestDeadline => {
                let expire = job.spec.expire_time();
                if expire == Time::INFINITY {
                    f64::NEG_INFINITY
                } else {
                    -expire.as_f64()
                }
            }
            Policy::PresentValue { discount_rate } => {
                job.present_value(ctx.now, *discount_rate) / rpt
            }
            Policy::FirstReward {
                alpha,
                discount_rate,
            } => {
                let pv = job.present_value(ctx.now, *discount_rate);
                let cost = ctx
                    .cost
                    .expect("FirstReward requires a CostModel in ScoreCtx")
                    .cost_of(job, ctx.now);
                reward(*alpha, pv, cost, rpt)
            }
        }
    }

    /// Selects the index of the best job in `queue` at `ctx.now`
    /// (max score, ties to the lowest task id). `None` on an empty queue.
    pub fn select<'a>(
        &self,
        queue: impl IntoIterator<Item = &'a Job>,
        ctx: &ScoreCtx<'_>,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64, u64)> = None;
        for (idx, job) in queue.into_iter().enumerate() {
            let score = self.score(job, ctx);
            let id = job.id().0;
            let better = match &best {
                None => true,
                Some((_, bs, bid)) => score > *bs || (score == *bs && id < *bid),
            };
            if better {
                best = Some((idx, score, id));
            }
        }
        best.map(|(idx, _, _)| idx)
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Everything a policy may consult when scoring a job.
#[derive(Debug, Clone, Copy)]
pub struct ScoreCtx<'a> {
    /// The dispatch instant scores are evaluated at.
    pub now: Time,
    /// Opportunity-cost model of the competing queue, built at `now`.
    /// Required by [`Policy::FirstReward`], ignored by the rest.
    pub cost: Option<&'a CostModel>,
}

impl<'a> ScoreCtx<'a> {
    /// A context without a cost model (sufficient for all gain-only
    /// policies).
    pub fn simple(now: Time) -> Self {
        ScoreCtx { now, cost: None }
    }

    /// A context carrying the queue's cost model.
    pub fn with_cost(now: Time, cost: &'a CostModel) -> Self {
        ScoreCtx {
            now,
            cost: Some(cost),
        }
    }
}

/// §5.3 FirstReward score: `(α·PV − (1−α)·cost) / RPT`, the discounted
/// gain weighed against the Eq. 4 opportunity cost per unit of
/// processor time. `rpt` is floored at `f64::MIN_POSITIVE`, as in every
/// policy's score.
#[inline]
pub fn reward(alpha: f64, pv: f64, cost: f64, rpt: f64) -> f64 {
    (alpha * pv - (1.0 - alpha) * cost) / rpt.max(f64::MIN_POSITIVE)
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
            PenaltyBound::UNBOUNDED,
        ))
    }

    #[test]
    fn fcfs_prefers_earlier_arrival() {
        let a = job(0, 1.0, 10.0, 5.0, 0.1);
        let b = job(1, 2.0, 1.0, 500.0, 9.0);
        let ctx = ScoreCtx::simple(Time::from(10.0));
        assert!(Policy::Fcfs.score(&a, &ctx) > Policy::Fcfs.score(&b, &ctx));
    }

    #[test]
    fn srpt_prefers_shorter() {
        let long = job(0, 0.0, 10.0, 500.0, 9.0);
        let short = job(1, 0.0, 1.0, 5.0, 0.1);
        let ctx = ScoreCtx::simple(Time::from(10.0));
        assert!(Policy::Srpt.score(&short, &ctx) > Policy::Srpt.score(&long, &ctx));
    }

    #[test]
    fn swpt_prefers_high_decay_per_time() {
        let urgent_short = job(0, 0.0, 2.0, 10.0, 4.0); // d/rpt = 2
        let calm_long = job(1, 0.0, 10.0, 1000.0, 1.0); // d/rpt = 0.1
        let ctx = ScoreCtx::simple(Time::ZERO);
        assert!(Policy::Swpt.score(&urgent_short, &ctx) > Policy::Swpt.score(&calm_long, &ctx));
        assert_eq!(Policy::Swpt.score(&urgent_short, &ctx), 2.0);
        assert_eq!(Policy::Swpt.score(&calm_long, &ctx), 0.1);
    }

    #[test]
    fn first_price_is_unit_gain() {
        let j = job(0, 0.0, 10.0, 100.0, 1.0);
        // Started at t=5: completes 15, delay 5 → yield 95 → score 9.5.
        let ctx = ScoreCtx::simple(Time::from(5.0));
        assert!((Policy::FirstPrice.score(&j, &ctx) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn reward_weighs_present_value_against_cost_per_unit_time() {
        assert_eq!(reward(1.0, 50.0, 20.0, 10.0), 5.0);
        assert_eq!(reward(0.0, 50.0, 20.0, 10.0), -2.0);
        assert_eq!(reward(0.5, 50.0, 20.0, 10.0), 1.5);
        // A zero RPT divides by the smallest positive f64, not by zero.
        assert_eq!(reward(1.0, 1.0, 0.0, 0.0), 1.0 / f64::MIN_POSITIVE);
    }

    #[test]
    fn pv_at_zero_rate_equals_first_price() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(i, 0.0, 1.0 + i as f64, 10.0 * (i + 1) as f64, 0.3))
            .collect();
        let ctx = ScoreCtx::simple(Time::from(3.0));
        for j in &jobs {
            assert_eq!(
                Policy::pv(0.0).score(j, &ctx),
                Policy::FirstPrice.score(j, &ctx)
            );
        }
    }

    #[test]
    fn pv_discount_penalizes_long_jobs() {
        // Same unit gain, different lengths: discounting favours short.
        let short = job(0, 0.0, 1.0, 10.0, 0.0);
        let long = job(1, 0.0, 100.0, 1000.0, 0.0);
        let ctx = ScoreCtx::simple(Time::ZERO);
        // Equal under FirstPrice…
        assert!(
            (Policy::FirstPrice.score(&short, &ctx) - Policy::FirstPrice.score(&long, &ctx)).abs()
                < 1e-12
        );
        // …but short wins under PV.
        let pv = Policy::pv(0.01);
        assert!(pv.score(&short, &ctx) > pv.score(&long, &ctx));
    }

    #[test]
    fn first_reward_alpha_one_is_pv() {
        let jobs: Vec<Job> = (0..4)
            .map(|i| job(i, 0.0, 2.0 + i as f64, 50.0, 0.5 * i as f64))
            .collect();
        let model = CostModel::build(Time::from(1.0), &jobs);
        let ctx = ScoreCtx::with_cost(Time::from(1.0), &model);
        for j in &jobs {
            let fr = Policy::first_reward(1.0, 0.02).score(j, &ctx);
            let pv = Policy::pv(0.02).score(j, &ctx);
            assert!((fr - pv).abs() < 1e-12);
        }
    }

    proptest::proptest! {
        /// With unbounded penalties Eq. 5 gives `cost_i / RPT_i = D − d_i`,
        /// so at α = 0 FirstReward ranks by `d_i` alone (lowest id on
        /// ties), whatever the RPTs. SWPT ranks by `d_i / RPT_i`, so the
        /// two picks agree whenever every RPT is equal. Decays lie on a
        /// 1/4 grid so that ties occur; unequal RPTs are powers of two so
        /// that `cost_i / RPT_i` is computed exactly.
        #[test]
        fn first_reward_alpha_zero_orders_like_swpt_when_unbounded(
            queue in proptest::collection::vec((0u32..24, -2i32..6, 0.0f64..300.0), 1..20),
            equal_rpts in proptest::prelude::any::<bool>(),
            common_rpt in 0.1f64..50.0,
            now in 0.0f64..100.0,
        ) {
            // Ids run opposite to slots, so the id tie-break is not the
            // slot order.
            let n = queue.len() as u64;
            let jobs: Vec<Job> = queue
                .iter()
                .enumerate()
                .map(|(i, &(d, k, value))| {
                    let rpt = if equal_rpts { common_rpt } else { 2f64.powi(k) };
                    job(n - 1 - i as u64, 0.0, rpt, value, f64::from(d) / 4.0)
                })
                .collect();
            let now = Time::from(now);
            let model = CostModel::build(now, &jobs);
            let ctx = ScoreCtx::with_cost(now, &model);
            let pick = Policy::first_reward(0.0, 0.01).select(&jobs, &ctx);
            let by_decay = (0..jobs.len()).max_by(|&a, &b| {
                let (a, b) = (&jobs[a], &jobs[b]);
                a.spec.decay.total_cmp(&b.spec.decay).then(b.id().cmp(&a.id()))
            });
            proptest::prop_assert_eq!(pick, by_decay);
            if equal_rpts {
                let swpt = Policy::Swpt.select(&jobs, &ScoreCtx::simple(now));
                proptest::prop_assert_eq!(swpt, pick);
            }
        }
    }

    #[test]
    fn first_reward_balances_gain_and_cost() {
        // High-gain candidate vs. low-gain candidate in a queue with an
        // urgent competitor: at high α gain wins, at low α cost dominates
        // and the *shorter* (cheaper to run) task wins.
        let high_gain_long = job(0, 0.0, 20.0, 400.0, 0.1);
        let low_gain_short = job(1, 0.0, 1.0, 10.0, 0.1);
        let urgent = job(2, 0.0, 5.0, 50.0, 8.0);
        let queue = vec![high_gain_long.clone(), low_gain_short.clone(), urgent];
        let model = CostModel::build(Time::ZERO, &queue);
        let ctx = ScoreCtx::with_cost(Time::ZERO, &model);

        let gain_heavy = Policy::first_reward(1.0, 0.0);
        assert!(gain_heavy.score(&high_gain_long, &ctx) > gain_heavy.score(&low_gain_short, &ctx));

        let cost_heavy = Policy::first_reward(0.0, 0.0);
        // Per-unit cost is (D − d_i) which is equal here, so scores tie on
        // cost; gain ignored → equal. Use a small α to break toward the
        // very different per-unit gains… the long job's per-unit cost
        // equals the short one's; with α=0.1 the unit-gain difference
        // decides. unit gains: 400/20 = 20 vs 10/1 = 10 minus cost terms.
        let s_long = cost_heavy.score(&high_gain_long, &ctx);
        let s_short = cost_heavy.score(&low_gain_short, &ctx);
        assert!((s_long - s_short).abs() < 1e-9);
    }

    #[test]
    fn select_breaks_ties_by_id() {
        let a = job(3, 0.0, 5.0, 50.0, 1.0);
        let b = job(1, 0.0, 5.0, 50.0, 1.0);
        let c = job(2, 0.0, 5.0, 50.0, 1.0);
        let ctx = ScoreCtx::simple(Time::ZERO);
        let queue = vec![a, b, c];
        // All identical scores: the lowest id (1) at index 1 wins.
        assert_eq!(Policy::FirstPrice.select(&queue, &ctx), Some(1));
    }

    #[test]
    fn select_empty_queue_is_none() {
        let ctx = ScoreCtx::simple(Time::ZERO);
        assert_eq!(Policy::FirstPrice.select(&[], &ctx), None);
    }

    #[test]
    #[should_panic(expected = "requires a CostModel")]
    fn first_reward_without_model_panics() {
        let j = job(0, 0.0, 5.0, 50.0, 1.0);
        let ctx = ScoreCtx::simple(Time::ZERO);
        let _ = Policy::first_reward(0.5, 0.01).score(&j, &ctx);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn alpha_out_of_range_rejected() {
        let _ = Policy::first_reward(1.5, 0.01);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Policy::Fcfs.name(), "FCFS");
        assert_eq!(Policy::pv(0.01).name(), "PV(rate=0.01)");
        assert!(Policy::first_reward(0.3, 0.01).name().contains("α=0.3"));
    }

    #[test]
    fn serde_roundtrip() {
        for p in [
            Policy::Fcfs,
            Policy::Srpt,
            Policy::Swpt,
            Policy::FirstPrice,
            Policy::pv(0.02),
            Policy::first_reward(0.4, 0.01),
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: Policy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};
    use proptest::prelude::*;

    fn arb_job(id: u64) -> impl Strategy<Value = Job> {
        (0.1f64..50.0, 0.0f64..300.0, 0.0f64..10.0).prop_map(move |(rt, v, d)| {
            Job::new(TaskSpec::new(id, 0.0, rt, v, d, PenaltyBound::UNBOUNDED))
        })
    }

    proptest! {
        /// select() always returns the argmax of score() with lowest-id
        /// tie-break, for every policy.
        #[test]
        fn select_is_argmax(
            rts in proptest::collection::vec((0.1f64..50.0, 0.0f64..300.0, 0.0f64..10.0), 1..30),
            now in 0.0f64..100.0,
        ) {
            let jobs: Vec<Job> = rts.iter().enumerate().map(|(i, (rt, v, d))| {
                Job::new(TaskSpec::new(i as u64, 0.0, *rt, *v, *d, PenaltyBound::UNBOUNDED))
            }).collect();
            let now = Time::from(now);
            let model = CostModel::build(now, &jobs);
            for policy in [
                Policy::Fcfs, Policy::Srpt, Policy::Swpt, Policy::FirstPrice,
                Policy::pv(0.01), Policy::first_reward(0.3, 0.01),
            ] {
                let ctx = ScoreCtx::with_cost(now, &model);
                let chosen = policy.select(&jobs, &ctx).unwrap();
                let chosen_score = policy.score(&jobs[chosen], &ctx);
                for (i, j) in jobs.iter().enumerate() {
                    let s = policy.score(j, &ctx);
                    prop_assert!(s <= chosen_score + 1e-12);
                    if s == chosen_score && i != chosen {
                        prop_assert!(jobs[chosen].id().0 < j.id().0);
                    }
                }
            }
        }

        /// FirstReward interpolates: its score is a monotone function of α
        /// between the pure-cost and pure-gain extremes.
        #[test]
        fn first_reward_interpolates(j in arb_job(0), others in proptest::collection::vec(arb_job(1), 1..10), now in 0.0f64..50.0) {
            let now = Time::from(now);
            let mut all = vec![j.clone()];
            all.extend(others);
            let model = CostModel::build(now, &all);
            let ctx = ScoreCtx::with_cost(now, &model);
            let s0 = Policy::first_reward(0.0, 0.01).score(&j, &ctx);
            let s5 = Policy::first_reward(0.5, 0.01).score(&j, &ctx);
            let s1 = Policy::first_reward(1.0, 0.01).score(&j, &ctx);
            // s(α) is linear in α: midpoint equals the average.
            prop_assert!((s5 - 0.5 * (s0 + s1)).abs() < 1e-6);
        }
    }
}

#[cfg(test)]
mod edf_tests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};

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
    fn edf_orders_by_expiration() {
        // Expire times: value/decay after earliest completion.
        let soon = bounded(0, 1.0, 10.0, 10.0); // expires at 1 + 1 = 2
        let later = bounded(1, 1.0, 100.0, 1.0); // expires at 1 + 100 = 101
        let ctx = ScoreCtx::simple(Time::ZERO);
        assert!(
            Policy::EarliestDeadline.score(&soon, &ctx)
                > Policy::EarliestDeadline.score(&later, &ctx)
        );
    }

    #[test]
    fn edf_puts_deadline_free_tasks_last() {
        let dead = bounded(0, 1.0, 10.0, 1.0);
        let immortal = Job::new(TaskSpec::new(
            1,
            0.0,
            1.0,
            10.0,
            1.0,
            PenaltyBound::UNBOUNDED,
        ));
        let ctx = ScoreCtx::simple(Time::ZERO);
        assert!(
            Policy::EarliestDeadline.score(&dead, &ctx)
                > Policy::EarliestDeadline.score(&immortal, &ctx)
        );
        assert_eq!(
            Policy::EarliestDeadline.score(&immortal, &ctx),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn edf_is_time_invariant() {
        // Expiration is absolute: EDF scores don't drift with `now`.
        let j = bounded(0, 5.0, 50.0, 2.0);
        let early = Policy::EarliestDeadline.score(&j, &ScoreCtx::simple(Time::ZERO));
        let late = Policy::EarliestDeadline.score(&j, &ScoreCtx::simple(Time::from(100.0)));
        assert_eq!(early, late);
    }

    #[test]
    fn edf_name_and_serde() {
        assert_eq!(Policy::EarliestDeadline.name(), "EDF");
        let json = serde_json::to_string(&Policy::EarliestDeadline).unwrap();
        let back: Policy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Policy::EarliestDeadline);
    }
}
