//! Deterministic fault injection: seeded crash/repair schedules.
//!
//! A [`FaultInjector`] turns a pair of MTTF/MTTR distributions into a
//! reproducible alternating up/down timeline for every *fault unit*, a
//! single processor of a site. The injector owns one private RNG stream
//! per unit (derived from the experiment seed via [`RngFactory`] names),
//! so the fault process for unit A is unchanged by how often unit B's
//! samples are drawn and by the interleaving of the surrounding event
//! loop: the same `(seed, config)` always produces the same timeline.
//!
//! The injector is deliberately passive — it only *samples*. The driving
//! model (a site trace replay) schedules the events: on a crash it asks
//! for [`downtime`](FaultInjector::downtime) and schedules the repair; on
//! a repair it asks for [`uptime`](FaultInjector::uptime) and schedules
//! the next crash. That keeps the crash/repair *event kinds* in the
//! caller's event enum, where the rest of its events live.

use crate::dist::Dist;
use crate::rng::{RngFactory, SimRng};
use crate::time::{Duration, Time};
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

/// Which failure process is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultConfig {
    /// Per-processor failures: each processor of each site fails and
    /// repairs independently. `None` disables processor faults.
    pub processor: Option<UpDown>,
}

impl FaultConfig {
    /// No faults at all — a run with this config is byte-identical to a
    /// run without an injector (no fault events are ever scheduled).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// `true` when no failure process is active.
    pub fn is_none(&self) -> bool {
        self.processor.is_none()
    }
}

/// One independently failing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultUnit {
    /// One processor slot of a site.
    Processor {
        /// Site index.
        site: usize,
        /// Processor slot within the site (0-based).
        slot: usize,
    },
}

/// Samples reproducible crash/repair timelines for a set of sites.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// One stream per processor slot, `proc_rngs[site][slot]`.
    proc_rngs: Vec<Vec<SimRng>>,
}

impl FaultInjector {
    /// An injector for sites of the given sizes (`procs_per_site[s]`
    /// processors at site `s`), seeded so every `(seed, config)` pair
    /// yields the same timelines.
    pub fn new(config: FaultConfig, seed: u64, procs_per_site: &[usize]) -> Self {
        let factory = RngFactory::new(seed).child("fault-injector");
        let proc_rngs = procs_per_site
            .iter()
            .enumerate()
            .map(|(s, &p)| {
                let site_factory = factory.child("processors");
                (0..p)
                    .map(|j| site_factory.stream_indexed("slot", (s as u64) << 20 | j as u64))
                    .collect()
            })
            .collect();
        FaultInjector { config, proc_rngs }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Every configured fault unit, in deterministic order (processor
    /// slots site-major).
    pub fn units(&self) -> Vec<FaultUnit> {
        let mut units = Vec::new();
        if self.config.processor.is_some() {
            for (site, rngs) in self.proc_rngs.iter().enumerate() {
                for slot in 0..rngs.len() {
                    units.push(FaultUnit::Processor { site, slot });
                }
            }
        }
        units
    }

    /// Samples the next up-time (time until `unit`'s next failure).
    /// Returns `None` when the matching failure process is disabled.
    pub fn uptime(&mut self, unit: FaultUnit) -> Option<Duration> {
        let (dist, rng) = self.process(unit)?;
        Some(Duration::new(dist.sample(rng).max(0.0)))
    }

    /// Samples `unit`'s repair (down) time. `None` when the matching
    /// failure process is disabled.
    pub fn downtime(&mut self, unit: FaultUnit) -> Option<Duration> {
        let (dist, rng) = self.repair_process(unit)?;
        Some(Duration::new(dist.sample(rng).max(0.0)))
    }

    /// First crash instants for every configured unit, measured from
    /// time 0 — what a driver schedules before running its event loop.
    pub fn initial_crashes(&mut self) -> Vec<(Time, FaultUnit)> {
        self.units()
            .into_iter()
            .map(|u| {
                let up = self.uptime(u).expect("unit comes from units()");
                (Time::ZERO + up, u)
            })
            .collect()
    }

    /// Serializable checkpoint of the injector: config plus the raw state
    /// words of every per-unit RNG stream, so recovery resumes each
    /// timeline mid-stream (RNG words are tuples because the vendored
    /// serde shim has no fixed-size-array impls).
    pub fn state(&self) -> FaultInjectorState {
        let pack = |r: &SimRng| {
            let s = r.state();
            (s[0], s[1], s[2], s[3])
        };
        FaultInjectorState {
            config: self.config.clone(),
            proc_rngs: self
                .proc_rngs
                .iter()
                .map(|site| site.iter().map(pack).collect())
                .collect(),
        }
    }

    /// Rebuilds an injector from [`state`](Self::state) output; every
    /// stream continues exactly where the checkpoint left it.
    pub fn from_state(state: FaultInjectorState) -> Self {
        let unpack = |t: &(u64, u64, u64, u64)| SimRng::from_state([t.0, t.1, t.2, t.3]);
        FaultInjector {
            config: state.config,
            proc_rngs: state
                .proc_rngs
                .iter()
                .map(|site| site.iter().map(unpack).collect())
                .collect(),
        }
    }

    fn process(&mut self, unit: FaultUnit) -> Option<(Dist, &mut SimRng)> {
        let FaultUnit::Processor { site, slot } = unit;
        let dist = self.config.processor.as_ref()?.mttf.clone();
        Some((dist, &mut self.proc_rngs[site][slot]))
    }

    fn repair_process(&mut self, unit: FaultUnit) -> Option<(Dist, &mut SimRng)> {
        let FaultUnit::Processor { site, slot } = unit;
        let dist = self.config.processor.as_ref()?.mttr.clone();
        Some((dist, &mut self.proc_rngs[site][slot]))
    }
}

/// Serializable mid-stream checkpoint of a [`FaultInjector`]. Produced by
/// [`FaultInjector::state`], consumed by [`FaultInjector::from_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectorState {
    /// The active failure processes.
    pub config: FaultConfig,
    /// Raw xoshiro state words per processor slot, `proc_rngs[site][slot]`.
    pub proc_rngs: Vec<Vec<(u64, u64, u64, u64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FaultConfig {
        FaultConfig {
            processor: Some(UpDown::exponential(1000.0, 50.0)),
        }
    }

    #[test]
    fn none_config_has_no_units() {
        let mut inj = FaultInjector::new(FaultConfig::none(), 1, &[4, 4]);
        assert!(inj.units().is_empty());
        assert!(inj.initial_crashes().is_empty());
        assert_eq!(inj.uptime(FaultUnit::Processor { site: 1, slot: 3 }), None);
        assert_eq!(
            inj.downtime(FaultUnit::Processor { site: 0, slot: 0 }),
            None
        );
    }

    #[test]
    fn units_enumerate_processors_site_major() {
        let inj = FaultInjector::new(config(), 1, &[2, 3]);
        let units = inj.units();
        assert_eq!(units.len(), 2 + 3);
        assert_eq!(units[0], FaultUnit::Processor { site: 0, slot: 0 });
        assert_eq!(units[2], FaultUnit::Processor { site: 1, slot: 0 });
        assert_eq!(units[4], FaultUnit::Processor { site: 1, slot: 2 });
    }

    #[test]
    fn timelines_are_reproducible() {
        let mut a = FaultInjector::new(config(), 42, &[4]);
        let mut b = FaultInjector::new(config(), 42, &[4]);
        assert_eq!(a.initial_crashes(), b.initial_crashes());
        let u = FaultUnit::Processor { site: 0, slot: 2 };
        for _ in 0..16 {
            assert_eq!(a.uptime(u), b.uptime(u));
            assert_eq!(a.downtime(u), b.downtime(u));
        }
    }

    #[test]
    fn units_draw_from_independent_streams() {
        // Draining one unit's stream must not shift another's samples.
        let mut a = FaultInjector::new(config(), 7, &[4]);
        let mut b = FaultInjector::new(config(), 7, &[4]);
        let victim = FaultUnit::Processor { site: 0, slot: 1 };
        let other = FaultUnit::Processor { site: 0, slot: 3 };
        for _ in 0..100 {
            let _ = a.uptime(other);
        }
        for _ in 0..8 {
            assert_eq!(a.uptime(victim), b.uptime(victim));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = FaultInjector::new(config(), 1, &[2]);
        let mut b = FaultInjector::new(config(), 2, &[2]);
        let u = FaultUnit::Processor { site: 0, slot: 0 };
        let draws = |inj: &mut FaultInjector| -> Vec<Duration> {
            (0..8).map(|_| inj.uptime(u).unwrap()).collect()
        };
        assert_ne!(draws(&mut a), draws(&mut b));
    }

    #[test]
    fn samples_are_nonnegative_and_finite() {
        let mut inj = FaultInjector::new(config(), 3, &[8]);
        for u in inj.units() {
            for _ in 0..50 {
                let up = inj.uptime(u).unwrap();
                let down = inj.downtime(u).unwrap();
                assert!(up.as_f64() >= 0.0 && up.as_f64().is_finite());
                assert!(down.as_f64() >= 0.0 && down.as_f64().is_finite());
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let c = config();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<FaultConfig>(&json).unwrap(), c);
    }

    #[test]
    fn state_checkpoint_resumes_streams_exactly() {
        let mut live = FaultInjector::new(config(), 11, &[3, 2]);
        // Advance some streams unevenly, then checkpoint mid-stream.
        let u0 = FaultUnit::Processor { site: 0, slot: 1 };
        let u1 = FaultUnit::Processor { site: 1, slot: 1 };
        for _ in 0..5 {
            let _ = live.uptime(u0);
        }
        let _ = live.downtime(u1);
        let state = live.state();
        let json = serde_json::to_string(&state).unwrap();
        let restored_state: FaultInjectorState = serde_json::from_str(&json).unwrap();
        assert_eq!(restored_state, state);
        let mut restored = FaultInjector::from_state(restored_state);
        for u in live.units() {
            for _ in 0..8 {
                assert_eq!(live.uptime(u), restored.uptime(u));
                assert_eq!(live.downtime(u), restored.downtime(u));
            }
        }
    }
}
