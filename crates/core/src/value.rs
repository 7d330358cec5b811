//! Value functions (§3 of the paper, Figure 2).
//!
//! A value function maps a task's **completion time** to the value the
//! user pays for it. The paper's primary form is linear decay —
//! `yield = value − delay · decay`, optionally floored at a penalty bound
//! — captured by [`LinearDecay`], the one form every task carries and
//! every contract settles on.

use mbts_sim::{Duration, Time};
use mbts_workload::{PenaltyBound, TaskSpec};
use serde::{Deserialize, Serialize};

/// A mapping from completion time to user value.
pub trait ValueFunction {
    /// Value earned for a completion at absolute time `completion`.
    fn value_at(&self, completion: Time) -> f64;

    /// The maximum attainable value.
    fn max_value(&self) -> f64;

    /// Instantaneous decay rate (value lost per unit of additional delay)
    /// at the given completion time. Zero once the function has hit its
    /// floor.
    fn decay_at(&self, completion: Time) -> f64;

    /// The earliest completion time achieving [`max_value`](Self::max_value).
    fn earliest_completion(&self) -> Time;

    /// The absolute time at which the function stops decaying
    /// ([`Time::INFINITY`] if it never does).
    fn expire_time(&self) -> Time;
}

/// The paper's linear-decay value function: full `value` for completion at
/// or before `earliest`, then decaying at `decay` per time unit, floored
/// at `-max_penalty` when bounded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearDecay {
    /// Earliest achievable completion (`arrival + runtime`).
    pub earliest: Time,
    /// Maximum value.
    pub value: f64,
    /// Decay rate per time unit of delay.
    pub decay: f64,
    /// Penalty bound.
    pub bound: PenaltyBound,
}

impl LinearDecay {
    /// The value function carried by a submitted task.
    pub fn from_spec(spec: &TaskSpec) -> Self {
        LinearDecay {
            earliest: spec.arrival + spec.runtime,
            value: spec.value,
            decay: spec.decay,
            bound: spec.bound,
        }
    }

    /// A value function anchored at an explicit earliest completion; used
    /// by contracts, whose decay is re-anchored at the *negotiated*
    /// completion time rather than the theoretical minimum.
    pub fn anchored(earliest: Time, value: f64, decay: f64, bound: PenaltyBound) -> Self {
        assert!(decay >= 0.0, "decay must be non-negative");
        LinearDecay {
            earliest,
            value,
            decay,
            bound,
        }
    }
}

impl ValueFunction for LinearDecay {
    fn value_at(&self, completion: Time) -> f64 {
        let delay = (completion - self.earliest).max_zero();
        (self.value - delay.as_f64() * self.decay).max(self.bound.floor())
    }

    fn max_value(&self) -> f64 {
        self.value
    }

    fn decay_at(&self, completion: Time) -> f64 {
        if completion >= self.expire_time() {
            0.0
        } else {
            self.decay
        }
    }

    fn earliest_completion(&self) -> Time {
        self.earliest
    }

    fn expire_time(&self) -> Time {
        match self.bound {
            PenaltyBound::Unbounded => Time::INFINITY,
            PenaltyBound::Bounded { max_penalty } => {
                if self.decay == 0.0 {
                    Time::INFINITY
                } else {
                    self.earliest + Duration::new((self.value + max_penalty) / self.decay)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec::new(0, 10.0, 5.0, 100.0, 2.0, PenaltyBound::ZERO)
    }

    #[test]
    fn linear_matches_task_spec_yield() {
        let s = spec();
        let vf = LinearDecay::from_spec(&s);
        for t in [0.0, 15.0, 20.0, 64.9, 65.0, 200.0] {
            assert_eq!(
                vf.value_at(Time::from(t)),
                s.yield_at(Time::from(t)),
                "at {t}"
            );
        }
        assert_eq!(vf.earliest_completion(), Time::from(15.0));
        assert_eq!(vf.expire_time(), s.expire_time());
        assert_eq!(vf.max_value(), 100.0);
    }

    #[test]
    fn linear_decay_rate_goes_to_zero_at_expiry() {
        let vf = LinearDecay::from_spec(&spec());
        assert_eq!(vf.decay_at(Time::from(20.0)), 2.0);
        assert_eq!(vf.decay_at(Time::from(65.0)), 0.0);
        assert_eq!(vf.decay_at(Time::from(100.0)), 0.0);
    }

    #[test]
    fn unbounded_linear_never_expires() {
        let vf = LinearDecay::anchored(Time::ZERO, 10.0, 1.0, PenaltyBound::Unbounded);
        assert_eq!(vf.expire_time(), Time::INFINITY);
        assert_eq!(vf.decay_at(Time::from(1e9)), 1.0);
        assert_eq!(vf.value_at(Time::from(100.0)), -90.0);
    }

    #[test]
    fn anchored_shifts_origin() {
        let vf = LinearDecay::anchored(Time::from(50.0), 10.0, 1.0, PenaltyBound::ZERO);
        assert_eq!(vf.value_at(Time::from(40.0)), 10.0);
        assert_eq!(vf.value_at(Time::from(55.0)), 5.0);
        assert_eq!(vf.value_at(Time::from(60.0)), 0.0);
    }
}
