//! Deterministic fault injection: seeded crash/repair schedules.
//!
//! A [`FaultInjector`] turns a pair of MTTF/MTTR distributions into a
//! reproducible alternating up/down timeline for every processor slot of
//! a site. The injector owns one private RNG stream per slot (derived
//! from the experiment seed via [`RngFactory`] names), so the fault
//! process for slot A is unchanged by how often slot B's samples are
//! drawn and by the interleaving of the surrounding event loop: the same
//! `(seed, faults)` always produces the same timeline.
//!
//! The injector is deliberately passive — it only *samples*. The driving
//! model (a site trace replay) schedules the events: on a crash it asks
//! for [`downtime`](FaultInjector::downtime) and schedules the repair; on
//! a repair it asks for [`uptime`](FaultInjector::uptime) and schedules
//! the next crash. That keeps the crash/repair *event kinds* in the
//! caller's event enum, where the rest of its events live.

use crate::dist::Dist;
use crate::rng::{RngFactory, SimRng};
use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// An alternating failure/repair process: time-to-failure drawn from
/// `mttf`, downtime drawn from `mttr`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpDown {
    /// Distribution of up-time until the next failure.
    pub mttf: Dist,
    /// Distribution of repair (down) time.
    pub mttr: Dist,
}

impl UpDown {
    /// Exponential up/down times with the given means — the classic
    /// memoryless failure model.
    pub fn exponential(mttf_mean: f64, mttr_mean: f64) -> Self {
        assert!(mttf_mean > 0.0 && mttr_mean > 0.0, "means must be positive");
        UpDown {
            mttf: Dist::exponential(mttf_mean),
            mttr: Dist::exponential(mttr_mean),
        }
    }
}

/// Samples reproducible crash/repair timelines for the processor slots of
/// one site: each slot fails and repairs independently.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    faults: UpDown,
    /// One stream per processor slot.
    slots: Vec<SimRng>,
}

impl FaultInjector {
    /// An injector for a site of `processors` slots, seeded so every
    /// `(seed, faults)` pair yields the same timelines.
    pub fn new(faults: UpDown, seed: u64, processors: usize) -> Self {
        let factory = RngFactory::new(seed)
            .child("fault-injector")
            .child("processors");
        let slots = (0..processors)
            .map(|j| factory.stream_indexed("slot", j as u64))
            .collect();
        FaultInjector { faults, slots }
    }

    /// Samples the next up-time (time until `slot`'s next failure).
    pub fn uptime(&mut self, slot: usize) -> Duration {
        Duration::new(self.faults.mttf.sample(&mut self.slots[slot]).max(0.0))
    }

    /// Samples `slot`'s repair (down) time.
    pub fn downtime(&mut self, slot: usize) -> Duration {
        Duration::new(self.faults.mttr.sample(&mut self.slots[slot]).max(0.0))
    }

    /// Serializable checkpoint of the injector: the failure process plus
    /// the raw state words of every slot's RNG stream, so recovery resumes
    /// each timeline mid-stream (RNG words are tuples because the vendored
    /// serde shim has no fixed-size-array impls).
    pub fn state(&self) -> FaultInjectorState {
        FaultInjectorState {
            faults: self.faults.clone(),
            slots: self
                .slots
                .iter()
                .map(|r| {
                    let s = r.state();
                    (s[0], s[1], s[2], s[3])
                })
                .collect(),
        }
    }

    /// Rebuilds an injector from [`state`](Self::state) output; every
    /// stream continues exactly where the checkpoint left it.
    pub fn from_state(state: FaultInjectorState) -> Self {
        FaultInjector {
            faults: state.faults,
            slots: state
                .slots
                .iter()
                .map(|t| SimRng::from_state([t.0, t.1, t.2, t.3]))
                .collect(),
        }
    }
}

/// Serializable mid-stream checkpoint of a [`FaultInjector`]. Produced by
/// [`FaultInjector::state`], consumed by [`FaultInjector::from_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectorState {
    /// The failure process every slot follows.
    pub faults: UpDown,
    /// Raw xoshiro state words per processor slot.
    pub slots: Vec<(u64, u64, u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults() -> UpDown {
        UpDown::exponential(1000.0, 50.0)
    }

    #[test]
    fn timelines_are_reproducible() {
        let mut a = FaultInjector::new(faults(), 42, 4);
        let mut b = FaultInjector::new(faults(), 42, 4);
        for _ in 0..16 {
            assert_eq!(a.uptime(2), b.uptime(2));
            assert_eq!(a.downtime(2), b.downtime(2));
        }
    }

    #[test]
    fn units_draw_from_independent_streams() {
        // Draining one slot's stream must not shift another's samples.
        let mut a = FaultInjector::new(faults(), 7, 4);
        let mut b = FaultInjector::new(faults(), 7, 4);
        for _ in 0..100 {
            let _ = a.uptime(3);
        }
        for _ in 0..8 {
            assert_eq!(a.uptime(1), b.uptime(1));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = FaultInjector::new(faults(), 1, 2);
        let mut b = FaultInjector::new(faults(), 2, 2);
        let draws =
            |inj: &mut FaultInjector| -> Vec<Duration> { (0..8).map(|_| inj.uptime(0)).collect() };
        assert_ne!(draws(&mut a), draws(&mut b));
    }

    #[test]
    fn samples_are_nonnegative_and_finite() {
        let mut inj = FaultInjector::new(faults(), 3, 8);
        for slot in 0..8 {
            for _ in 0..50 {
                let up = inj.uptime(slot);
                let down = inj.downtime(slot);
                assert!(up.as_f64() >= 0.0 && up.as_f64().is_finite());
                assert!(down.as_f64() >= 0.0 && down.as_f64().is_finite());
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let f = faults();
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<UpDown>(&json).unwrap(), f);
    }

    #[test]
    fn state_checkpoint_resumes_streams_exactly() {
        let mut live = FaultInjector::new(faults(), 11, 3);
        // Advance some streams unevenly, then checkpoint mid-stream.
        for _ in 0..5 {
            let _ = live.uptime(1);
        }
        let _ = live.downtime(2);
        let state = live.state();
        let json = serde_json::to_string(&state).unwrap();
        let restored_state: FaultInjectorState = serde_json::from_str(&json).unwrap();
        assert_eq!(restored_state, state);
        let mut restored = FaultInjector::from_state(restored_state);
        for slot in 0..3 {
            for _ in 0..8 {
                assert_eq!(live.uptime(slot), restored.uptime(slot));
                assert_eq!(live.downtime(slot), restored.downtime(slot));
            }
        }
    }
}
