//! Pure, read-only score explainers: the decomposition behind
//! decision-provenance records.
//!
//! Given the competing set at a decision point, [`explain_decision`]
//! ranks every candidate under the active policy and
//! [`decompose`] splits one candidate's score into the terms the paper
//! reasons about: the Eq. 3 present value, the Eq. 8 opportunity cost
//! charged by the rest of the set, and the Eq. 7 slack between them.
//!
//! Everything here is `&`-only over [`Job`]s and builds throwaway
//! [`CostModel`]s — never a pool's lazily-maintained one — so explaining
//! a decision can never perturb the decision itself. The site's
//! `Scheduled` diagnostics are [`decompose`] too: cost sums the *other*
//! candidates' effective decay in order times the candidate's runtime,
//! and zero-decay slack goes to ±∞ (callers clamp finite before
//! serializing).

use crate::admission::slack;
use crate::cost::CostModel;
use crate::heuristics::{Policy, ScoreCtx};
use crate::job::Job;
use mbts_sim::Time;

/// One candidate's score split into the paper's terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDecomposition {
    /// Eq. 3 discounted present value at `now`.
    pub pv: f64,
    /// Eq. 8 opportunity cost: Σ over the *other* candidates of their
    /// effective decay, times this candidate's runtime.
    pub cost: f64,
    /// Eq. 7 slack `(pv − cost) / decay`; ±∞ when the candidate's own
    /// decay is zero.
    pub slack: f64,
}

/// The ranked view of one decision's competing set.
#[derive(Debug, Clone)]
pub struct DecisionExplanation {
    scores: Vec<f64>,
    ranked: Vec<usize>,
}

impl DecisionExplanation {
    /// Candidate indexes in rank order: best score first, ties broken by
    /// ascending task id (the same total order every scheduler tiebreak
    /// uses).
    pub fn ranked(&self) -> &[usize] {
        &self.ranked
    }

    /// The policy score of candidate `idx` (slice index, not rank).
    pub fn score(&self, idx: usize) -> f64 {
        self.scores[idx]
    }

    /// 1-based rank of candidate `idx`.
    pub fn rank_of(&self, idx: usize) -> usize {
        1 + self
            .ranked
            .iter()
            .position(|&r| r == idx)
            .expect("idx is a candidate")
    }
}

/// Scores and ranks every job in `competing` under `policy` at `now`.
pub fn explain_decision(policy: &Policy, now: Time, competing: &[Job]) -> DecisionExplanation {
    let model = policy
        .needs_cost_model()
        .then(|| CostModel::build(now, competing));
    let ctx = match &model {
        Some(m) => ScoreCtx::with_cost(now, m),
        None => ScoreCtx::simple(now),
    };
    let scores: Vec<f64> = competing.iter().map(|j| policy.score(j, &ctx)).collect();
    let mut ranked: Vec<usize> = (0..competing.len()).collect();
    ranked.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| competing[a].id().cmp(&competing[b].id()))
    });
    DecisionExplanation { scores, ranked }
}

/// Decomposes `job`'s standing against `others`, the rest of its
/// competing set. `discount_rate` is the admission discount rate used
/// for the PV term; the cost sums `others`' effective decay in the order
/// given.
pub fn decompose<'a>(
    discount_rate: f64,
    now: Time,
    job: &Job,
    others: impl IntoIterator<Item = &'a Job>,
) -> ScoreDecomposition {
    let pv = job.present_value(now, discount_rate);
    let behind_decay: f64 = others.into_iter().map(|j| j.effective_decay(now)).sum();
    let cost = behind_decay * job.spec.runtime.as_f64();
    let slack = slack(pv, cost, job.effective_decay(now));
    ScoreDecomposition { pv, cost, slack }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn ranking_matches_policy_select() {
        let competing = vec![job(0, 50.0, 500.0, 0.1), job(1, 5.0, 20.0, 5.0)];
        let now = Time::ZERO;
        for policy in [
            Policy::FirstPrice,
            Policy::first_reward(0.0, 0.01),
            Policy::Fcfs,
        ] {
            let ex = explain_decision(&policy, now, &competing);
            let model = CostModel::build(now, &competing);
            let ctx = if policy.needs_cost_model() {
                ScoreCtx::with_cost(now, &model)
            } else {
                ScoreCtx::simple(now)
            };
            let best = policy.select(competing.iter(), &ctx).unwrap();
            assert_eq!(ex.ranked()[0], best, "policy {policy:?}");
            assert_eq!(ex.rank_of(best), 1);
            assert_eq!(ex.score(best), policy.score(&competing[best], &ctx));
        }
    }

    #[test]
    fn decomposition_sums_the_other_candidates_in_order() {
        let (job0, others) = (job(0, 10.0, 100.0, 2.0), [job(1, 4.0, 40.0, 1.0)]);
        let d = decompose(0.0, Time::ZERO, &job0, &others);
        // Candidate 0 is charged candidate 1's decay over its runtime.
        assert_eq!(d.cost, 1.0 * 10.0);
        assert_eq!(d.pv, 100.0);
        assert_eq!(d.slack, (100.0 - 10.0) / 2.0);
    }

    #[test]
    fn zero_decay_slack_is_signed_infinite() {
        let d = decompose(0.0, Time::ZERO, &job(0, 10.0, 100.0, 0.0), &[]);
        assert_eq!(d.slack, f64::INFINITY);
    }
}
