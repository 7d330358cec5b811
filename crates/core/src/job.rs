//! Mutable per-task scheduling state.
//!
//! A [`Job`] wraps an immutable [`TaskSpec`] with the state a scheduler
//! mutates: remaining processing time (the paper's `RPT_i`, tracked both
//! against the user's estimate and against the true runtime for the
//! misestimation extension) and preemption bookkeeping.

use mbts_sim::{Duration, Time};
use mbts_workload::{TaskId, TaskSpec};
use serde::{Deserialize, Serialize};

/// A task in flight: spec + remaining processing time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// The immutable submitted description.
    pub spec: TaskSpec,
    /// Remaining processing time per the *estimate* — what every heuristic
    /// reasons over (`RPT_i`). Decreases as the job runs.
    pub rpt: Duration,
    /// Remaining processing time per the *true* runtime — what the
    /// simulator uses to fire the completion event.
    pub true_rpt: Duration,
    /// Number of times the job has been preempted.
    pub preemptions: u32,
    /// When the job first started executing, if ever.
    pub first_start: Option<Time>,
}

impl Job {
    /// A fresh, never-run job.
    pub fn new(spec: TaskSpec) -> Self {
        Job {
            rpt: spec.runtime,
            true_rpt: spec.true_runtime,
            spec,
            preemptions: 0,
            first_start: None,
        }
    }

    /// The task id.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.spec.id
    }

    /// Records `ran` time units of execution, reducing both RPT views.
    /// The estimate-based RPT saturates at zero (an underestimated job
    /// keeps running with `rpt == 0`).
    pub fn advance(&mut self, ran: Duration) {
        assert!(!ran.is_negative(), "cannot run for negative time");
        self.rpt = (self.rpt - ran).max_zero();
        self.true_rpt = (self.true_rpt - ran).max_zero();
    }

    /// `true` once the job has no (true) work left.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.true_rpt == Duration::ZERO
    }

    /// Expected completion time if (re)started at `now` and run without
    /// interruption, per the estimate (`start + RPT`, Eq. 2's premise).
    #[inline]
    pub fn completion_if_started(&self, now: Time) -> Time {
        now + self.rpt
    }

    /// Expected yield if (re)started at `now` (Eq. 1 + Eq. 2): the value
    /// function evaluated at `now + RPT`.
    #[inline]
    pub fn yield_if_started(&self, now: Time) -> f64 {
        self.spec.yield_at(self.completion_if_started(now))
    }

    /// Present value of the expected yield if started at `now` (Eq. 3):
    /// `PV = yield / (1 + discount_rate · RPT)`.
    #[inline]
    pub fn present_value(&self, now: Time, discount_rate: f64) -> f64 {
        discount(self.yield_if_started(now), discount_rate, self.rpt.as_f64())
    }

    /// How much longer this job's yield keeps decaying if it *stays
    /// queued* starting from `now`: the gap between its expiration time
    /// and its expected completion if started now. Zero once deferral is
    /// free (expired), infinite for unbounded penalties.
    ///
    /// This is the `expire_j` window in the opportunity-cost formula
    /// (Eq. 4).
    pub fn decay_window(&self, now: Time) -> Duration {
        decay_window(self.spec.expire_time(), self.completion_if_started(now))
    }

    /// The effective decay rate for opportunity-cost purposes at `now`:
    /// zero once the job has expired (deferring it costs nothing more).
    #[inline]
    pub fn effective_decay(&self, now: Time) -> f64 {
        if self.decay_window(now) == Duration::ZERO {
            0.0
        } else {
            self.spec.decay
        }
    }
}

/// Eq. 3 discount: `amount / (1 + discount_rate · horizon)`, the present
/// value of `amount` earned `horizon` time units from now.
#[inline]
pub fn discount(amount: f64, discount_rate: f64, horizon: f64) -> f64 {
    amount / (1.0 + discount_rate * horizon)
}

/// Eq. 4 decay window of a task that expires at `expire` and would
/// complete at `completion`: how much longer its value keeps decaying
/// while it waits. Zero once expired, infinite when it never expires.
#[inline]
pub fn decay_window(expire: Time, completion: Time) -> Duration {
    if expire == Time::INFINITY {
        Duration::INFINITY
    } else {
        (expire - completion).max_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::PenaltyBound;

    fn job(value: f64, decay: f64, bound: PenaltyBound) -> Job {
        Job::new(TaskSpec::new(0, 10.0, 5.0, value, decay, bound))
    }

    #[test]
    fn fresh_job_state() {
        let j = job(100.0, 2.0, PenaltyBound::ZERO);
        assert_eq!(j.rpt, Duration::from(5.0));
        assert!(!j.is_complete());
        assert_eq!(j.preemptions, 0);
        assert_eq!(j.first_start, None);
    }

    #[test]
    fn advance_reduces_rpt_and_completes() {
        let mut j = job(100.0, 2.0, PenaltyBound::ZERO);
        j.advance(Duration::from(2.0));
        assert_eq!(j.rpt, Duration::from(3.0));
        assert!(!j.is_complete());
        j.advance(Duration::from(3.0));
        assert!(j.is_complete());
        // Saturates rather than going negative.
        j.advance(Duration::from(1.0));
        assert_eq!(j.rpt, Duration::ZERO);
    }

    #[test]
    fn yield_if_started_now_vs_later() {
        let j = job(100.0, 2.0, PenaltyBound::ZERO);
        // Started at arrival: completes at 15, zero delay.
        assert_eq!(j.yield_if_started(Time::from(10.0)), 100.0);
        // Started 10 late: delay 10 → lose 20.
        assert_eq!(j.yield_if_started(Time::from(20.0)), 80.0);
    }

    #[test]
    fn partially_run_job_yield_accounts_for_remaining_only() {
        let mut j = job(100.0, 2.0, PenaltyBound::ZERO);
        j.advance(Duration::from(3.0));
        // Resumed at t = 30: completes at 32; earliest possible was 15;
        // delay 17 → yield 100 − 34 = 66.
        assert!((j.yield_if_started(Time::from(30.0)) - 66.0).abs() < 1e-12);
    }

    #[test]
    fn present_value_discounts_long_jobs() {
        let j = job(100.0, 0.0, PenaltyBound::ZERO);
        // yield 100, rpt 5: PV = 100 / (1 + 0.01·5)
        let pv = j.present_value(Time::from(10.0), 0.01);
        assert!((pv - 100.0 / 1.05).abs() < 1e-12);
        // Zero discount rate: PV == yield (PV heuristic ≡ FirstPrice).
        assert_eq!(j.present_value(Time::from(10.0), 0.0), 100.0);
    }

    #[test]
    fn decay_window_shrinks_and_hits_zero() {
        let j = job(100.0, 2.0, PenaltyBound::ZERO);
        // Expire time = 15 + 100/2 = 65. Started at now, completes now+5.
        assert_eq!(j.decay_window(Time::from(10.0)), Duration::from(50.0));
        assert_eq!(j.decay_window(Time::from(40.0)), Duration::from(20.0));
        assert_eq!(j.decay_window(Time::from(60.0)), Duration::ZERO);
        assert_eq!(j.decay_window(Time::from(100.0)), Duration::ZERO);
    }

    #[test]
    fn a_completion_before_the_earliest_possible_one_earns_the_value() {
        // Arrival 10, runtime 5: evaluated at t = 0 it would finish at 5,
        // ten units before it could; that is no delay, not a bonus.
        let j = job(100.0, 2.0, PenaltyBound::Unbounded);
        assert_eq!(j.yield_if_started(Time::ZERO), 100.0);
        assert_eq!(
            j.present_value(Time::ZERO, 0.01),
            discount(100.0, 0.01, 5.0)
        );
        assert_eq!(discount(100.0, 0.01, 5.0), 100.0 / 1.05);
    }

    #[test]
    fn effective_decay_zeroes_after_expiry() {
        let j = job(100.0, 2.0, PenaltyBound::ZERO);
        assert_eq!(j.effective_decay(Time::from(10.0)), 2.0);
        assert_eq!(j.effective_decay(Time::from(61.0)), 0.0);
    }

    #[test]
    fn unbounded_window_is_infinite() {
        let j = job(100.0, 2.0, PenaltyBound::Unbounded);
        assert_eq!(j.decay_window(Time::from(1e6)), Duration::INFINITY);
        assert_eq!(j.effective_decay(Time::from(1e6)), 2.0);
    }

    #[test]
    fn misestimated_job_tracks_two_rpts() {
        let mut spec = TaskSpec::new(0, 0.0, 10.0, 50.0, 1.0, PenaltyBound::ZERO);
        spec.true_runtime = Duration::from(14.0);
        let mut j = Job::new(spec);
        j.advance(Duration::from(10.0));
        assert_eq!(j.rpt, Duration::ZERO);
        assert!(!j.is_complete());
        j.advance(Duration::from(4.0));
        assert!(j.is_complete());
    }
}
