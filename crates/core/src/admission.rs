//! Admission control (§6, Equations 7 and 8).
//!
//! When a task bid arrives, the site integrates it into its candidate
//! schedule, reads off its expected completion and yield, and computes its
//! **slack** — the additional delay the task could absorb before its
//! reward drops below the (zero) yield threshold:
//!
//! ```text
//! slack_i = (PV_i − cost_i) / decay_i                    (Eq. 7)
//! cost_i  = Σ_{j behind i} decay_j · runtime_i           (Eq. 8)
//! ```
//!
//! `PV_i` is the present value of the expected yield at the candidate
//! completion; `cost_i` estimates the damage accepting `i` does to the
//! tasks scheduled behind it — each is pushed back by (up to) `i`'s
//! runtime, losing `decay_j · runtime_i`. (The paper's Eq. 8 subscripts
//! are ambiguous between `runtime_i` and `runtime_j`; the surrounding text
//! — "those tasks that will be delayed … by accepting this new task *i*" —
//! fixes the delay to the new task's runtime, which is what we implement.)
//!
//! The acceptance heuristic rejects tasks whose slack falls below a
//! threshold; Figure 7 shows the threshold's risk/reward trade-off.

use crate::heuristics::Policy;
use crate::job::{discount, Job};
use crate::schedule::{with_candidate_schedule, CandidateSchedule, ScheduleMode};
use mbts_sim::Time;
use serde::{Deserialize, Serialize};

/// The site's acceptance heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Accept every task (the constrained setting of §5, and the
    /// "FirstPrice w/o Admission Control" line of Figure 6).
    #[default]
    AcceptAll,
    /// Accept iff `slack_i ≥ threshold` (§6; Figure 6 uses 180).
    SlackThreshold {
        /// Minimum acceptable slack, in time units.
        threshold: f64,
    },
    /// Accept iff the expected yield at the candidate completion is
    /// positive — a simpler baseline for the `ablate admission` study.
    PositiveExpectedYield,
}

/// The outcome of evaluating one proposed task, with the quantities a
/// server bid is built from (§6: expected completion time and price).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// Whether the acceptance heuristic admits the task.
    pub accept: bool,
    /// Expected completion in the candidate schedule.
    pub expected_completion: Time,
    /// Expected yield (Eq. 1) at that completion — the server bid's price.
    pub expected_yield: f64,
    /// Present value of that yield (Eq. 3).
    pub present_value: f64,
    /// Eq. 8 cost: damage to tasks behind the candidate.
    pub cost: f64,
    /// Eq. 7 slack, in time units (±∞ for zero-decay tasks).
    pub slack: f64,
}

/// Evaluates `candidate` against a queue (which must already *include*
/// the candidate) per the §6 procedure. `processor_free` models the
/// running tasks; `discount_rate` feeds the PV term (the paper uses the
/// same 1 % as the scheduling heuristic).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_admission(
    admission: &AdmissionPolicy,
    policy: &Policy,
    mode: ScheduleMode,
    discount_rate: f64,
    now: Time,
    processor_free: &[Time],
    queue_with_candidate: &[Job],
    candidate: &Job,
) -> AdmissionDecision {
    let free = |buf: &mut Vec<Time>| buf.extend_from_slice(processor_free);
    with_candidate_schedule(
        policy,
        mode,
        now,
        free,
        queue_with_candidate,
        None,
        |schedule| decision_from_schedule(admission, discount_rate, schedule, candidate),
    )
}

/// The Eq. 7/8 decision read off an already-built candidate schedule
/// containing the candidate.
pub fn decision_from_schedule(
    admission: &AdmissionPolicy,
    discount_rate: f64,
    schedule: &CandidateSchedule,
    candidate: &Job,
) -> AdmissionDecision {
    let position = schedule
        .position(candidate.id())
        .expect("candidate must be present in its own candidate schedule");
    let (entry, behind) = (
        &schedule.entries[position],
        &schedule.entries[position + 1..],
    );
    let expected_yield = entry.expected_yield;
    let present_value = discount(expected_yield, discount_rate, candidate.rpt.as_f64());

    // Eq. 8: each task behind the candidate is pushed back by the
    // candidate's runtime.
    let runtime_i = candidate.spec.runtime.as_f64();
    let behind_decay: f64 = behind.iter().map(|e| e.decay).sum();
    let cost = behind_decay * runtime_i;

    let slack = slack(present_value, cost, candidate.spec.decay);

    let accept = match admission {
        AdmissionPolicy::AcceptAll => true,
        AdmissionPolicy::SlackThreshold { threshold } => slack >= *threshold,
        AdmissionPolicy::PositiveExpectedYield => expected_yield > 0.0,
    };

    AdmissionDecision {
        accept,
        expected_completion: entry.completion,
        expected_yield,
        present_value,
        cost,
        slack,
    }
}

/// Eq. 7 slack: `(pv − cost) / decay`, the delay a task can absorb
/// before its reward net of `cost` falls to zero. A task that does not
/// decay has `+∞` slack when `pv ≥ cost` and `−∞` otherwise.
#[inline]
pub fn slack(pv: f64, cost: f64, decay: f64) -> f64 {
    let margin = pv - cost;
    if decay > 0.0 {
        margin / decay
    } else if margin >= 0.0 {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    }
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

    fn eval(
        admission: AdmissionPolicy,
        queue: &[Job],
        candidate: &Job,
        procs: usize,
    ) -> AdmissionDecision {
        evaluate_admission(
            &admission,
            &Policy::FirstPrice,
            ScheduleMode::Static,
            0.01,
            Time::ZERO,
            &vec![Time::ZERO; procs],
            queue,
            candidate,
        )
    }

    #[test]
    fn slack_is_the_margin_over_decay_or_a_signed_infinity() {
        assert_eq!(slack(100.0, 40.0, 2.0), 30.0);
        assert_eq!(slack(40.0, 100.0, 2.0), -30.0);
        assert_eq!(slack(100.0, 40.0, 0.0), f64::INFINITY);
        assert_eq!(slack(40.0, 40.0, 0.0), f64::INFINITY);
        assert_eq!(slack(40.0, 100.0, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn lone_task_on_idle_site_has_full_slack() {
        let c = job(0, 0.0, 10.0, 100.0, 0.5);
        let d = eval(AdmissionPolicy::AcceptAll, std::slice::from_ref(&c), &c, 1);
        assert!(d.accept);
        assert_eq!(d.expected_completion, Time::from(10.0));
        assert_eq!(d.expected_yield, 100.0);
        assert_eq!(d.cost, 0.0);
        // PV = 100/(1 + 0.01·10) = 90.909…; slack = PV/0.5 ≈ 181.8
        assert!((d.present_value - 100.0 / 1.1).abs() < 1e-9);
        assert!((d.slack - (100.0 / 1.1) / 0.5).abs() < 1e-6);
    }

    #[test]
    fn slack_threshold_rejects_tight_tasks() {
        let c = job(0, 0.0, 10.0, 100.0, 0.5);
        let accept = eval(
            AdmissionPolicy::SlackThreshold { threshold: 180.0 },
            std::slice::from_ref(&c),
            &c,
            1,
        );
        assert!(accept.accept, "slack {} ≥ 180", accept.slack);
        let reject = eval(
            AdmissionPolicy::SlackThreshold { threshold: 200.0 },
            std::slice::from_ref(&c),
            &c,
            1,
        );
        assert!(!reject.accept, "slack {} < 200", reject.slack);
    }

    #[test]
    fn queueing_behind_others_reduces_yield_and_slack() {
        // A crowded queue of higher-unit-gain tasks pushes the candidate
        // back, shrinking both its expected yield and its slack.
        let mut queue: Vec<Job> = (1..=4).map(|i| job(i, 0.0, 10.0, 500.0, 0.5)).collect();
        let c = job(0, 0.0, 10.0, 100.0, 0.5);
        queue.push(c.clone());
        let crowded = eval(AdmissionPolicy::AcceptAll, &queue, &c, 1);
        let alone = eval(AdmissionPolicy::AcceptAll, std::slice::from_ref(&c), &c, 1);
        assert!(crowded.expected_yield < alone.expected_yield);
        assert!(crowded.slack < alone.slack);
        // Completion pushed to the back: 5 tasks × 10 = 50.
        assert_eq!(crowded.expected_completion, Time::from(50.0));
    }

    #[test]
    fn tasks_behind_candidate_create_cost() {
        // Candidate beats one queued task under FirstPrice, so that task
        // sits behind it and contributes decay_j · runtime_i.
        let behind = job(1, 0.0, 10.0, 10.0, 2.0); // unit gain 1
        let c = job(0, 0.0, 10.0, 500.0, 0.5); // unit gain 50
        let d = eval(
            AdmissionPolicy::AcceptAll,
            &[behind.clone(), c.clone()],
            &c,
            1,
        );
        // cost = 2.0 (behind's decay) × 10 (candidate runtime) = 20.
        assert!((d.cost - 20.0).abs() < 1e-9);
        assert!(d.slack < d.present_value / 0.5);
    }

    #[test]
    fn zero_decay_candidate_has_infinite_slack() {
        let c = job(0, 0.0, 10.0, 100.0, 0.0);
        let d = eval(
            AdmissionPolicy::SlackThreshold { threshold: 1e9 },
            std::slice::from_ref(&c),
            &c,
            1,
        );
        assert!(d.slack.is_infinite() && d.slack > 0.0);
        assert!(d.accept);
    }

    #[test]
    fn zero_decay_candidate_with_net_loss_has_negative_infinite_slack() {
        // Zero-decay candidate whose acceptance damages the queue more
        // than its PV: slack = −∞, rejected by any threshold.
        let urgent = job(1, 0.0, 10.0, 1.0, 50.0); // huge decay behind
        let c = job(0, 0.0, 10.0, 5.0, 0.0);
        let d = evaluate_admission(
            &AdmissionPolicy::SlackThreshold { threshold: -1e12 },
            &Policy::FirstPrice,
            ScheduleMode::Static,
            0.0,
            Time::ZERO,
            &[Time::ZERO],
            &[urgent.clone(), c.clone()],
            &c,
        );
        // c's unit gain (0.5) beats urgent's (0.1)? No: urgent unit gain
        // = 1/10 = 0.1, c = 5/10 = 0.5, so urgent is behind c.
        // cost = 50 × 10 = 500 ≫ PV = 5 → slack −∞.
        assert!(d.slack.is_infinite() && d.slack < 0.0);
        assert!(!d.accept);
    }

    #[test]
    fn positive_expected_yield_policy() {
        // A task whose expected completion pushes its yield negative.
        let ahead: Vec<Job> = (1..=5).map(|i| job(i, 0.0, 20.0, 1000.0, 0.5)).collect();
        let c = job(0, 0.0, 5.0, 10.0, 1.0); // unit gain 2 < 50: goes last
        let mut queue = ahead.clone();
        queue.push(c.clone());
        let d = eval(AdmissionPolicy::PositiveExpectedYield, &queue, &c, 1);
        // Completes at 105; earliest 5; delay 100 → yield 10 − 100 < 0.
        assert!(d.expected_yield < 0.0);
        assert!(!d.accept);
    }

    #[test]
    fn accept_all_accepts_even_at_a_loss() {
        let ahead: Vec<Job> = (1..=5).map(|i| job(i, 0.0, 20.0, 1000.0, 0.5)).collect();
        let c = job(0, 0.0, 5.0, 10.0, 1.0);
        let mut queue = ahead.clone();
        queue.push(c.clone());
        let d = eval(AdmissionPolicy::AcceptAll, &queue, &c, 1);
        assert!(d.accept);
    }

    #[test]
    fn more_processors_raise_slack() {
        let others: Vec<Job> = (1..=3).map(|i| job(i, 0.0, 10.0, 500.0, 0.5)).collect();
        let c = job(0, 0.0, 10.0, 100.0, 0.5);
        let mut queue = others.clone();
        queue.push(c.clone());
        let narrow = eval(AdmissionPolicy::AcceptAll, &queue, &c, 1);
        let wide = eval(AdmissionPolicy::AcceptAll, &queue, &c, 4);
        assert!(wide.slack > narrow.slack);
        assert!(wide.expected_yield > narrow.expected_yield);
    }

    #[test]
    #[should_panic(expected = "candidate must be present")]
    fn candidate_missing_from_queue_panics() {
        let c = job(0, 0.0, 10.0, 100.0, 0.5);
        let other = job(1, 0.0, 10.0, 100.0, 0.5);
        let _ = eval(AdmissionPolicy::AcceptAll, &[other], &c, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mbts_workload::{PenaltyBound, TaskSpec};
    use proptest::prelude::*;

    fn arb_queue() -> impl Strategy<Value = Vec<Job>> {
        proptest::collection::vec((0.1f64..30.0, 0.0f64..300.0, 0.0f64..5.0), 1..25).prop_map(
            |specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (rt, v, d))| {
                        Job::new(TaskSpec::new(
                            i as u64,
                            0.0,
                            rt,
                            v,
                            d,
                            PenaltyBound::Unbounded,
                        ))
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// Admission monotonicity: if a task passes threshold T it passes
        /// every threshold below T (higher thresholds accept a subset).
        #[test]
        fn threshold_monotonicity(queue in arb_queue(), t1 in -500.0f64..500.0, dt in 0.0f64..500.0) {
            let candidate = queue.last().unwrap().clone();
            let strict = evaluate_admission(
                &AdmissionPolicy::SlackThreshold { threshold: t1 + dt },
                &Policy::FirstPrice, ScheduleMode::Static, 0.01,
                Time::ZERO, &[Time::ZERO, Time::ZERO], &queue, &candidate,
            );
            let lenient = evaluate_admission(
                &AdmissionPolicy::SlackThreshold { threshold: t1 },
                &Policy::FirstPrice, ScheduleMode::Static, 0.01,
                Time::ZERO, &[Time::ZERO, Time::ZERO], &queue, &candidate,
            );
            if strict.accept {
                prop_assert!(lenient.accept);
            }
            // The diagnostics are identical regardless of policy.
            prop_assert_eq!(strict.slack, lenient.slack);
            prop_assert_eq!(strict.expected_yield, lenient.expected_yield);
        }

        /// Slack decomposes per Eq. 7 whenever decay > 0.
        #[test]
        fn slack_identity(queue in arb_queue()) {
            let candidate = queue.last().unwrap().clone();
            let d = evaluate_admission(
                &AdmissionPolicy::AcceptAll,
                &Policy::FirstPrice, ScheduleMode::Static, 0.01,
                Time::ZERO, &[Time::ZERO], &queue, &candidate,
            );
            if candidate.spec.decay > 0.0 {
                let expect = (d.present_value - d.cost) / candidate.spec.decay;
                prop_assert!((d.slack - expect).abs() < 1e-9);
            }
        }
    }
}
