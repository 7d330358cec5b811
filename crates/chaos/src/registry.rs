//! The failpoint registry: named injection sites, seeded per-site
//! streams, and the fired-fault log the orchestrator turns into
//! `ChaosInjected` trace events.

use crate::rng::Xorshift64Star;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What an injection site should do when its failpoint fires. The
/// registry never performs the fault itself — each site interprets the
/// action it understands and treats anything else as a no-op, so a
/// schedule naming the wrong action for a site degrades to "nothing
/// fired" rather than undefined behavior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailAction {
    /// Disk: the sink accepts only part of the buffer this call
    /// (`1..=max_bytes`, drawn from the failpoint's stream). The journal
    /// must loop — or surface a typed short-write error — never ack a
    /// half-written record.
    ShortWrite {
        /// Cap on bytes accepted per faulted call (0 = sink-chosen 1).
        max_bytes: usize,
    },
    /// Disk: the write fails outright with an `ENOSPC`-style error.
    Enospc,
    /// Disk: the write fails outright with an `EIO`-style error.
    WriteErr,
    /// Disk: `fsync` fails; anything buffered since the last successful
    /// sync must be treated as possibly lost.
    SyncErr,
    /// Disk: read-time bit corruption — one seeded bit of the journal
    /// image flips before recovery scans it.
    CorruptBit,
    /// Network: the listener drops an accepted connection immediately.
    AcceptFail,
    /// Network: the connection stalls `delay_ms` before the next read —
    /// a slow client / slow network.
    SlowRead {
        /// Stall length in milliseconds.
        delay_ms: u64,
    },
    /// Network: the connection is severed before the request completes.
    DropConn,
    /// Network: only a prefix of the response reaches the client before
    /// the connection is severed (mid-response drop).
    PartialWrite {
        /// Cap on response bytes delivered before the cut.
        max_bytes: usize,
    },
}

impl FailAction {
    /// Short label for logs and trace events (`short_write`, `enospc`, …).
    pub fn label(&self) -> &'static str {
        match self {
            FailAction::ShortWrite { .. } => "short_write",
            FailAction::Enospc => "enospc",
            FailAction::WriteErr => "write_err",
            FailAction::SyncErr => "sync_err",
            FailAction::CorruptBit => "corrupt_bit",
            FailAction::AcceptFail => "accept_fail",
            FailAction::SlowRead { .. } => "slow_read",
            FailAction::DropConn => "drop_conn",
            FailAction::PartialWrite { .. } => "partial_write",
        }
    }
}

fn default_prob() -> f64 {
    1.0
}

/// One schedule entry: which failpoint(s) it arms, what fires, and when.
///
/// `point` matches a hit name exactly or as a dot-boundary prefix
/// (`serve.conn` arms `serve.conn.read` and `serve.conn.write`).
/// Gating composes as: skip the first `after` hits, then fire every
/// `every`-th hit (when `every > 0`) or with probability `prob` per hit
/// (when `every == 0`), stopping for good after `max_fires` fires
/// (0 = unlimited).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailpointSpec {
    /// Failpoint name or dot-boundary prefix this entry arms.
    pub point: String,
    /// The fault to inject when it fires.
    pub action: FailAction,
    /// Per-hit fire probability (used when `every == 0`; default 1.0).
    #[serde(default = "default_prob")]
    pub prob: f64,
    /// Hits to let through untouched before arming.
    #[serde(default)]
    pub after: u64,
    /// Fire deterministically on every `every`-th armed hit (0 = draw
    /// from the stream with `prob` instead).
    #[serde(default)]
    pub every: u64,
    /// Stop firing after this many fires (0 = unlimited).
    #[serde(default)]
    pub max_fires: u64,
}

impl FailpointSpec {
    /// An always-fire entry for `point` — the common test shape.
    pub fn always(point: &str, action: FailAction) -> Self {
        FailpointSpec {
            point: point.to_string(),
            action,
            prob: 1.0,
            after: 0,
            every: 0,
            max_fires: 0,
        }
    }

    fn matches(&self, hit: &str) -> bool {
        hit == self.point
            || (hit.len() > self.point.len()
                && hit.starts_with(&self.point)
                && hit.as_bytes()[self.point.len()] == b'.')
    }
}

/// A decision to inject: the action plus one draw of stream entropy the
/// site uses for fault parameters (how many bytes a short write accepts,
/// which bit corruption flips) so those too replay deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// What to inject.
    pub action: FailAction,
    /// Deterministic parameter entropy drawn from the failpoint's stream.
    pub entropy: u64,
}

/// One fault that fired, as recorded in the registry's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiredFault {
    /// The hit name (full instance, e.g. `serve.conn.read`).
    pub point: String,
    /// 1-based hit index at that instance when the fault fired.
    pub hit: u64,
    /// The injected action.
    pub action: FailAction,
}

/// Per-instance stream state: an xorshift64* generator, the hit
/// counter, and a fire counter per schedule entry (several entries may
/// arm the same point — e.g. short writes followed by a hard ENOSPC).
struct PointState {
    rng: Xorshift64Star,
    hits: u64,
    fires: Vec<u64>,
}

impl PointState {
    fn seeded(seed: u64, name: &str) -> Self {
        // FNV-1a over the instance name, mixed with the scenario seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        PointState {
            rng: Xorshift64Star::from_seed(seed.wrapping_add(h)),
            hits: 0,
            fires: Vec::new(),
        }
    }
}

struct Inner {
    points: BTreeMap<String, PointState>,
    fired: Vec<FiredFault>,
}

/// The deterministic failpoint registry.
///
/// Shared (`Arc`) across whatever threads host injection sites. Each
/// named instance owns an independent stream seeded from
/// `(registry seed, instance name)`, so the fault sequence at one site
/// depends only on that site's own hit order — never on scheduling
/// between sites — which is what makes replays bit-reproducible.
pub struct ChaosRegistry {
    seed: u64,
    specs: Vec<FailpointSpec>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ChaosRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosRegistry")
            .field("seed", &self.seed)
            .field("specs", &self.specs)
            .finish_non_exhaustive()
    }
}

impl ChaosRegistry {
    /// A registry armed with `specs`, all streams derived from `seed`.
    pub fn new(seed: u64, specs: Vec<FailpointSpec>) -> Self {
        ChaosRegistry {
            seed,
            specs,
            inner: Mutex::new(Inner {
                points: BTreeMap::new(),
                fired: Vec::new(),
            }),
        }
    }

    /// The scenario seed the streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers one hit at `point`; `Some(firing)` when a schedule
    /// entry matches and decides to fire. Entries are evaluated in
    /// schedule order and the first that fires wins the hit — later
    /// entries on the same point still see the hit counted, so
    /// "short-write at hit 3, ENOSPC at hit 4" schedules compose.
    pub fn hit(&self, point: &str) -> Option<Firing> {
        if !self.specs.iter().any(|s| s.matches(point)) {
            return None;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let state = inner
            .points
            .entry(point.to_string())
            .or_insert_with(|| PointState::seeded(self.seed, point));
        if state.fires.len() < self.specs.len() {
            state.fires.resize(self.specs.len(), 0);
        }
        state.hits += 1;
        let hit = state.hits;
        let mut winner: Option<usize> = None;
        for (idx, spec) in self.specs.iter().enumerate() {
            if !spec.matches(point) || hit <= spec.after {
                continue;
            }
            if spec.max_fires > 0 && state.fires[idx] >= spec.max_fires {
                continue;
            }
            let fire = if spec.every > 0 {
                (hit - spec.after - 1).is_multiple_of(spec.every)
            } else {
                state.rng.next_f64() < spec.prob
            };
            if fire {
                winner = Some(idx);
                break;
            }
        }
        let idx = winner?;
        state.fires[idx] += 1;
        let entropy = state.rng.next_u64();
        let action = self.specs[idx].action.clone();
        inner.fired.push(FiredFault {
            point: point.to_string(),
            hit,
            action: action.clone(),
        });
        Some(Firing {
            action: action.clone(),
            entropy,
        })
    }

    /// Takes (and clears) the log of faults fired since the last drain —
    /// the orchestrator converts these into `ChaosInjected` trace events.
    pub fn drain_fired(&self) -> Vec<FiredFault> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut inner.fired)
    }

    /// Total faults fired so far (including drained ones' counters —
    /// this counts fires, not log length).
    pub fn fired_total(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .points
            .values()
            .map(|p| p.fires.iter().sum::<u64>())
            .sum()
    }

    /// Fires per instance name, for end-of-scenario summaries.
    pub fn fired_by_point(&self) -> BTreeMap<String, u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .points
            .iter()
            .map(|(name, p)| (name.clone(), p.fires.iter().sum::<u64>()))
            .filter(|(_, fires)| *fires > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(registry: &ChaosRegistry, point: &str, hits: usize) -> Vec<Option<Firing>> {
        (0..hits).map(|_| registry.hit(point)).collect()
    }

    #[test]
    fn same_seed_and_schedule_replays_identically() {
        let specs = vec![FailpointSpec {
            point: "durable.sink.write".to_string(),
            action: FailAction::ShortWrite { max_bytes: 7 },
            prob: 0.3,
            after: 2,
            every: 0,
            max_fires: 0,
        }];
        let a = ChaosRegistry::new(42, specs.clone());
        let b = ChaosRegistry::new(42, specs);
        assert_eq!(
            drive(&a, "durable.sink.write", 200),
            drive(&b, "durable.sink.write", 200)
        );
        assert!(a.fired_total() > 0, "prob 0.3 over 198 armed hits fires");
    }

    #[test]
    fn different_seeds_diverge() {
        let spec = |_: ()| {
            vec![FailpointSpec {
                point: "p".to_string(),
                action: FailAction::SyncErr,
                prob: 0.5,
                after: 0,
                every: 0,
                max_fires: 0,
            }]
        };
        let a = ChaosRegistry::new(1, spec(()));
        let b = ChaosRegistry::new(2, spec(()));
        assert_ne!(drive(&a, "p", 100), drive(&b, "p", 100));
    }

    #[test]
    fn instances_draw_from_independent_streams() {
        let specs = vec![FailpointSpec {
            point: "serve.conn".to_string(),
            action: FailAction::DropConn,
            prob: 0.5,
            after: 0,
            every: 0,
            max_fires: 0,
        }];
        let reg = ChaosRegistry::new(9, specs.clone());
        let s0: Vec<bool> = (0..64)
            .map(|_| reg.hit("serve.conn.read").is_some())
            .collect();
        let s1: Vec<bool> = (0..64)
            .map(|_| reg.hit("serve.conn.write").is_some())
            .collect();
        assert_ne!(s0, s1, "per-instance streams must be independent");

        // Interleaving instances must not change either stream.
        let reg2 = ChaosRegistry::new(9, specs);
        let mut t0 = Vec::new();
        let mut t1 = Vec::new();
        for _ in 0..64 {
            t0.push(reg2.hit("serve.conn.read").is_some());
            t1.push(reg2.hit("serve.conn.write").is_some());
        }
        assert_eq!(s0, t0);
        assert_eq!(s1, t1);
    }

    #[test]
    fn after_every_and_max_fires_gate_deterministically() {
        let specs = vec![FailpointSpec {
            point: "p".to_string(),
            action: FailAction::WriteErr,
            prob: 1.0,
            after: 3,
            every: 2,
            max_fires: 2,
        }];
        let reg = ChaosRegistry::new(0, specs);
        let fired: Vec<bool> = (0..10).map(|_| reg.hit("p").is_some()).collect();
        // Hits 1..=3 skipped; armed hits 4,6 fire (every 2nd), then
        // max_fires = 2 disarms for good.
        assert_eq!(
            fired,
            vec![false, false, false, true, false, true, false, false, false, false]
        );
        let log = reg.drain_fired();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].hit, 4);
        assert_eq!(log[1].hit, 6);
        assert!(reg.drain_fired().is_empty(), "drain clears the log");
        assert_eq!(reg.fired_total(), 2, "fire counters survive draining");
    }

    #[test]
    fn prefix_matches_only_at_dot_boundaries() {
        let specs = vec![FailpointSpec::always("serve.conn", FailAction::DropConn)];
        let reg = ChaosRegistry::new(0, specs);
        assert!(reg.hit("serve.conn").is_some());
        assert!(reg.hit("serve.conn.read").is_some());
        assert!(reg.hit("serve.connection").is_none());
        assert!(reg.hit("serve").is_none());
    }

    #[test]
    fn unmatched_points_cost_nothing_and_never_fire() {
        let reg = ChaosRegistry::new(7, Vec::new());
        for _ in 0..10 {
            assert!(reg.hit("durable.sink.write").is_none());
        }
        assert_eq!(reg.fired_total(), 0);
        assert!(reg.fired_by_point().is_empty());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = FailpointSpec {
            point: "durable.sink.write".to_string(),
            action: FailAction::ShortWrite { max_bytes: 5 },
            prob: 0.25,
            after: 10,
            every: 0,
            max_fires: 4,
        };
        let json = serde_json::to_string(&spec).expect("specs serialize");
        let back: FailpointSpec = serde_json::from_str(&json).expect("specs parse");
        assert_eq!(back, spec);
        // Defaults fill in omitted gating fields.
        let sparse: FailpointSpec =
            serde_json::from_str(r#"{"point":"serve.accept","action":"AcceptFail"}"#)
                .expect("sparse spec parses");
        assert_eq!(sparse.prob, 1.0);
        assert_eq!(sparse.after, 0);
        assert_eq!(sparse.every, 0);
        assert_eq!(sparse.max_fires, 0);
    }
}
