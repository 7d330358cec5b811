//! Task specifications: the immutable description of a submitted task.
//!
//! A [`TaskSpec`] is exactly the bid tuple of §6 of the paper —
//! `(runtime_i, value_i, decay_i, bound_i)` — plus the task's id, width
//! and arrival (release) time. It holds no true runtime: what a task
//! really takes is the simulator's ground truth, not part of any bid, so
//! a trace keeps it beside the bids ([`TaskList`](crate::TaskList)) and a
//! running job carries it (`mbts_core::Job`).

use mbts_sim::{Duration, Time};
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::fmt;

/// Dense task identifier, unique within a trace (and used as an arena
/// index by the schedulers).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct TaskId(pub u64);

impl TaskId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// How far a task's value function may decay below zero (§3): the
/// maximum penalty, `+∞` when the penalty is unbounded.
///
/// A bounded penalty stops decaying at `-max_penalty`; the time at which
/// that floor is reached is the task's *expiration time*. Millennium
/// bounds penalties at zero; contracts in the market setting may leave
/// them unbounded as a disincentive to over-commit.
///
/// One `f64`, where an enum of the two cases took 16 B. It is written as
/// the enum was: `"Unbounded"`, or `{"Bounded":{"max_penalty":x}}`, and a
/// `Bounded` text whose `max_penalty` is not finite is refused, so that
/// only `"Unbounded"` reads as unbounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyBound(f64);

impl PenaltyBound {
    /// The Millennium case: value floors at zero (an expired task can be
    /// discarded at no cost).
    pub const ZERO: PenaltyBound = PenaltyBound(0.0);

    /// Value decays without bound; the site can always lose more by
    /// delaying the task further.
    pub const UNBOUNDED: PenaltyBound = PenaltyBound(f64::INFINITY);

    /// Value floors at `-max_penalty`, the most the site can lose on the
    /// task (≥ 0: [`TaskSpec::new`] refuses a negative or `NaN` one, and
    /// [`validate_trace`](crate::validate_trace) a trace read with one).
    #[inline]
    pub const fn bounded(max_penalty: f64) -> Self {
        PenaltyBound(max_penalty)
    }

    /// `true` when the value function never stops decaying.
    #[inline]
    pub fn is_unbounded(self) -> bool {
        self.0 == f64::INFINITY
    }

    /// The maximum penalty of a bounded value function, `None` when it is
    /// unbounded.
    #[inline]
    pub fn max_penalty(self) -> Option<f64> {
        (!self.is_unbounded()).then_some(self.0)
    }

    /// The floor of the value function (−∞ if unbounded).
    #[inline]
    pub fn floor(self) -> f64 {
        if self.is_unbounded() {
            f64::NEG_INFINITY
        } else {
            -self.0
        }
    }

    /// `false` for a bounded penalty whose maximum is negative or `NaN`:
    /// its floor would sit above the value it bounds.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 >= 0.0
    }
}

/// The text of a [`PenaltyBound`]: the enum it was before it became one
/// `f64`, so it writes and reads exactly that enum's JSON.
mod bound_text {
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub(super) enum PenaltyBound {
        Unbounded,
        Bounded { max_penalty: f64 },
    }
}

impl Serialize for PenaltyBound {
    fn serialize(&self, out: &mut Writer) {
        match self.max_penalty() {
            None => bound_text::PenaltyBound::Unbounded,
            Some(max_penalty) => bound_text::PenaltyBound::Bounded { max_penalty },
        }
        .serialize(out)
    }
}

impl Deserialize for PenaltyBound {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        match bound_text::PenaltyBound::deserialize(input)? {
            bound_text::PenaltyBound::Unbounded => Ok(PenaltyBound::UNBOUNDED),
            bound_text::PenaltyBound::Bounded { max_penalty } if max_penalty.is_finite() => {
                Ok(PenaltyBound::bounded(max_penalty))
            }
            bound_text::PenaltyBound::Bounded { max_penalty } => Err(Error::custom(format!(
                "a bounded penalty's max_penalty must be finite, found {max_penalty}"
            ))),
        }
    }
}

pub(crate) fn default_width() -> usize {
    1
}

/// An immutable submitted-task description: arrival + the bid tuple.
/// 56 B: six 8 B fields and the 8 B penalty bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique id within the trace; ids are dense and ordered by arrival.
    pub id: TaskId,
    /// Number of processors the task gang-schedules across (§4: "jobs are
    /// always gang-scheduled … with the requested number of processors").
    /// The paper's evaluation uses width 1; wider tasks exercise the
    /// backfilling extension.
    #[serde(default = "default_width")]
    pub width: usize,
    /// Release time (the paper's `arrive_i`).
    pub arrival: Time,
    /// The user's runtime estimate, used by all scheduling heuristics
    /// (the paper's `runtime_i`; assumed accurate in §4).
    pub runtime: Duration,
    /// Maximum value earned if the task completes within `runtime` of
    /// arrival (the paper's `value_i`).
    pub value: f64,
    /// Linear decay rate per time unit of delay (the paper's `decay_i`).
    pub decay: f64,
    /// Penalty bound (the paper's `bound_i`).
    pub bound: PenaltyBound,
}

impl TaskSpec {
    /// Builds a task with an accurate runtime estimate.
    pub fn new(
        id: u64,
        arrival: f64,
        runtime: f64,
        value: f64,
        decay: f64,
        bound: PenaltyBound,
    ) -> Self {
        assert!(runtime > 0.0, "runtime must be positive");
        assert!(decay >= 0.0, "decay must be non-negative");
        assert!(bound.is_valid(), "penalty bound must be non-negative");
        TaskSpec {
            id: TaskId(id),
            width: 1,
            arrival: Time::new(arrival),
            runtime: Duration::new(runtime),
            value,
            decay,
            bound,
        }
    }

    /// Returns a copy requesting `width` processors.
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width >= 1, "width must be at least 1");
        self.width = width;
        self
    }

    /// Total requested work: `width · runtime` (processor-time units).
    #[inline]
    pub fn work(&self) -> f64 {
        self.width as f64 * self.runtime.as_f64()
    }

    /// Unit value: `value_i / runtime_i`, the quantity whose class mean
    /// ratio defines the value skew ratio.
    #[inline]
    pub fn unit_value(&self) -> f64 {
        self.value / self.runtime.as_f64()
    }

    /// Delay (beyond the minimum possible completion) at which the value
    /// function stops decaying, i.e. hits the penalty floor. Infinite for
    /// unbounded penalties or zero decay.
    #[inline]
    pub fn expire_delay(&self) -> Duration {
        match self.bound.max_penalty() {
            None => Duration::INFINITY,
            Some(max_penalty) => {
                if self.decay == 0.0 {
                    Duration::INFINITY
                } else {
                    Duration::new((self.value + max_penalty) / self.decay)
                }
            }
        }
    }

    /// Absolute time at which the task expires: the earliest possible
    /// completion (`arrival + runtime`) plus [`expire_delay`](Self::expire_delay).
    #[inline]
    pub fn expire_time(&self) -> Time {
        let earliest = self.arrival + self.runtime;
        match self.expire_delay() {
            d if d == Duration::INFINITY => Time::INFINITY,
            d => earliest + d,
        }
    }

    /// The Eq. 1 delay of a completion at absolute time `completion`:
    /// how far it lies past the earliest possible completion
    /// (`arrival + runtime`), zero when on time.
    #[inline]
    pub fn delay_at(&self, completion: Time) -> Duration {
        delay(self.arrival + self.runtime, completion)
    }

    /// Evaluates the value function (Eq. 1) for a completion at absolute
    /// time `completion`: `value − delay·decay`, clamped at the penalty
    /// floor. Completions at or before the earliest possible instant earn
    /// the full value.
    #[inline]
    pub fn yield_at(&self, completion: Time) -> f64 {
        decayed_yield(
            self.value,
            self.decay,
            self.bound.floor(),
            self.delay_at(completion),
        )
    }
}

/// Eq. 1 delay: how far `completion` lies past `earliest`, the earliest
/// possible completion; zero for a completion at or before it.
#[inline]
pub fn delay(earliest: Time, completion: Time) -> Duration {
    (completion - earliest).max_zero()
}

/// Eq. 1/2 yield after `delay`: `value − delay·decay`, floored at the
/// penalty bound's `floor` (`−∞` when unbounded).
#[inline]
pub fn decayed_yield(value: f64, decay: f64, floor: f64, delay: Duration) -> f64 {
    (value - delay.as_f64() * decay).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(value: f64, decay: f64, bound: PenaltyBound) -> TaskSpec {
        TaskSpec::new(0, 10.0, 5.0, value, decay, bound)
    }

    #[test]
    fn full_value_when_on_time() {
        let t = spec(100.0, 2.0, PenaltyBound::UNBOUNDED);
        // Earliest completion is arrival + runtime = 15.
        assert_eq!(t.yield_at(Time::from(15.0)), 100.0);
        // Early completion (can't happen, but mathematically) also full value.
        assert_eq!(t.yield_at(Time::from(12.0)), 100.0);
    }

    #[test]
    fn linear_decay_with_delay() {
        let t = spec(100.0, 2.0, PenaltyBound::UNBOUNDED);
        assert_eq!(t.yield_at(Time::from(20.0)), 100.0 - 5.0 * 2.0);
        assert_eq!(t.yield_at(Time::from(65.0)), 0.0);
        // Unbounded: goes arbitrarily negative.
        assert_eq!(t.yield_at(Time::from(115.0)), -100.0);
    }

    #[test]
    fn bounded_at_zero_floors() {
        let t = spec(100.0, 2.0, PenaltyBound::ZERO);
        assert_eq!(t.yield_at(Time::from(65.0)), 0.0);
        assert_eq!(t.yield_at(Time::from(1000.0)), 0.0);
        assert_eq!(t.expire_delay(), Duration::from(50.0));
        assert_eq!(t.expire_time(), Time::from(65.0));
    }

    #[test]
    fn bounded_penalty_floors_at_minus_bound() {
        let t = spec(100.0, 2.0, PenaltyBound::bounded(30.0));
        assert_eq!(t.yield_at(Time::from(80.0)), -30.0);
        assert_eq!(t.expire_delay(), Duration::from(65.0));
        // Just before expiry still decaying.
        assert!(t.yield_at(Time::from(79.0)) > -30.0);
    }

    #[test]
    fn zero_decay_never_expires() {
        let t = spec(50.0, 0.0, PenaltyBound::ZERO);
        assert_eq!(t.expire_delay(), Duration::INFINITY);
        assert_eq!(t.expire_time(), Time::INFINITY);
        assert_eq!(t.yield_at(Time::from(1e9)), 50.0);
    }

    #[test]
    fn unbounded_never_expires() {
        let t = spec(50.0, 1.0, PenaltyBound::UNBOUNDED);
        assert_eq!(t.expire_time(), Time::INFINITY);
        assert_eq!(t.bound.floor(), f64::NEG_INFINITY);
        assert!(t.bound.is_unbounded());
    }

    #[test]
    fn delay_is_zero_until_the_earliest_completion() {
        let t = spec(100.0, 2.0, PenaltyBound::UNBOUNDED);
        assert_eq!(t.delay_at(Time::from(12.0)), Duration::ZERO);
        assert_eq!(t.delay_at(Time::from(15.0)), Duration::ZERO);
        assert_eq!(t.delay_at(Time::from(21.5)), Duration::from(6.5));
        assert_eq!(
            delay(Time::from(15.0), Time::from(21.5)),
            t.delay_at(Time::from(21.5))
        );
        // The floor binds only once the decayed value falls below it.
        assert_eq!(decayed_yield(100.0, 2.0, -30.0, Duration::from(10.0)), 80.0);
        assert_eq!(
            decayed_yield(100.0, 2.0, -30.0, Duration::from(90.0)),
            -30.0
        );
    }

    #[test]
    fn unit_value() {
        let t = spec(100.0, 2.0, PenaltyBound::ZERO);
        assert_eq!(t.unit_value(), 20.0);
    }

    #[test]
    fn serde_roundtrip() {
        let t = spec(100.0, 2.0, PenaltyBound::bounded(7.0));
        let json = serde_json::to_string(&t).unwrap();
        let back: TaskSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    /// The bound is one `f64` but writes the two-case enum it was, and
    /// only `"Unbounded"` reads back as unbounded.
    #[test]
    fn a_bound_writes_and_reads_the_enum_text() {
        let cases = [
            (PenaltyBound::UNBOUNDED, r#""Unbounded""#),
            (PenaltyBound::ZERO, r#"{"Bounded":{"max_penalty":0.0}}"#),
            (
                PenaltyBound::bounded(2.5),
                r#"{"Bounded":{"max_penalty":2.5}}"#,
            ),
        ];
        for (bound, text) in cases {
            assert_eq!(serde_json::to_string(&bound).unwrap(), text);
            let back: PenaltyBound = serde_json::from_str(text).unwrap();
            assert_eq!(back, bound);
        }
        let e = serde_json::from_str::<PenaltyBound>(r#"{"Bounded":{"max_penalty":1e999}}"#)
            .unwrap_err();
        assert!(e.to_string().contains("must be finite"), "{e}");
        assert!(serde_json::from_str::<PenaltyBound>(r#""Bounded""#).is_err());
        assert_eq!(PenaltyBound::UNBOUNDED.max_penalty(), None);
        assert_eq!(PenaltyBound::bounded(3.0).max_penalty(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "runtime must be positive")]
    fn zero_runtime_rejected() {
        let _ = TaskSpec::new(0, 0.0, 0.0, 1.0, 1.0, PenaltyBound::ZERO);
    }

    #[test]
    #[should_panic(expected = "decay must be non-negative")]
    fn negative_decay_rejected() {
        let _ = TaskSpec::new(0, 0.0, 1.0, 1.0, -1.0, PenaltyBound::ZERO);
    }

    /// A negative bound would floor a late task above its value.
    #[test]
    #[should_panic(expected = "penalty bound must be non-negative")]
    fn negative_penalty_bound_rejected() {
        let _ = TaskSpec::new(0, 0.0, 1.0, 1.0, 1.0, PenaltyBound::bounded(-50.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bound() -> impl Strategy<Value = PenaltyBound> {
        prop_oneof![
            Just(PenaltyBound::UNBOUNDED),
            (0.0f64..100.0).prop_map(PenaltyBound::bounded),
        ]
    }

    proptest! {
        /// Yield is non-increasing in completion time.
        #[test]
        fn yield_monotone_nonincreasing(
            value in 0.0f64..1000.0,
            decay in 0.0f64..50.0,
            runtime in 0.1f64..100.0,
            bound in arb_bound(),
            t1 in 0.0f64..1000.0,
            dt in 0.0f64..1000.0,
        ) {
            let t = TaskSpec::new(0, 0.0, runtime, value, decay, bound);
            let y1 = t.yield_at(Time::from(t1));
            let y2 = t.yield_at(Time::from(t1 + dt));
            prop_assert!(y2 <= y1 + 1e-9);
        }

        /// Yield is bounded above by value and below by the penalty floor.
        #[test]
        fn yield_bounds(
            value in 0.0f64..1000.0,
            decay in 0.0f64..50.0,
            runtime in 0.1f64..100.0,
            bound in arb_bound(),
            at in 0.0f64..10_000.0,
        ) {
            let t = TaskSpec::new(0, 0.0, runtime, value, decay, bound);
            let y = t.yield_at(Time::from(at));
            prop_assert!(y <= value + 1e-9);
            prop_assert!(y >= t.bound.floor());
        }

        /// The yield at the expiration time equals the penalty floor (when
        /// bounded and decaying), and never dips below it afterwards.
        #[test]
        fn expiry_is_where_the_floor_is_hit(
            value in 0.1f64..1000.0,
            decay in 0.01f64..50.0,
            max_penalty in 0.0f64..100.0,
            runtime in 0.1f64..100.0,
        ) {
            let t = TaskSpec::new(0, 0.0, runtime, value, decay,
                PenaltyBound::bounded(max_penalty));
            let at_expiry = t.yield_at(t.expire_time());
            prop_assert!((at_expiry - (-max_penalty)).abs() < 1e-6);
            let later = t.yield_at(t.expire_time() + mbts_sim::Duration::from(123.0));
            prop_assert!((later - (-max_penalty)).abs() < 1e-6);
        }
    }
}
