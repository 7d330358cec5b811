//! # mbts-chaos — deterministic failpoint registry
//!
//! Fault injection in the spirit of tikv's `fail-rs`, but
//! **replay-deterministic**: every named failpoint draws from its own
//! seeded stream, so which hits fire — and every fault parameter (how
//! short a short write is, which bit read-corruption flips) — is a pure
//! function of `(seed, schedule)` and the per-site hit order. Running the
//! same scenario twice produces byte-identical fault sequences, which is
//! what lets the `mbts chaos` orchestrator assert recovery bit-identity
//! against an uninjected reference run instead of merely "it didn't
//! crash".
//!
//! The registry is data-only: injection sites in `mbts-durable` (journal
//! sink writes/fsyncs) and `mbts-serve` (accept/read/write socket paths)
//! call [`ChaosRegistry::hit`] with their site name and interpret the
//! returned [`FailAction`], keeping this crate free of any engine
//! dependency.
//!
//! Failpoint names form a dotted hierarchy (`layer.component.operation`,
//! e.g. `durable.sink.write`, `serve.conn.read`). A schedule entry
//! matches a hit when its `point` equals the hit name or is a
//! dot-boundary prefix of it — so one `serve.conn` entry covers both
//! `serve.conn.read` and `serve.conn.write`, while each instance still
//! draws from its own independent stream.

pub mod registry;
pub mod rng;
pub mod scenario;

pub use registry::{ChaosRegistry, FailAction, FailpointSpec, FiredFault, Firing};
pub use rng::Xorshift64Star;
pub use scenario::{Scenario, ScenarioTarget};
