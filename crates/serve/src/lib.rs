//! Live task service over the deterministic sim core.
//!
//! The service turns the paper's discrete-event site into a real daemon
//! without giving up determinism: the HTTP front-end translates requests
//! into journaled [`Command`]s, and everything the sim does is a pure
//! fold over that command log ([`machine`]). Durability is journal-first
//! ([`journaled`]): append, then apply, so `kill -9` at any instant
//! recovers byte-identically. The [`server`] adds the overload story —
//! bounded admission, explicit 429 backpressure, deadline-aware shedding
//! explained through the provenance tracer — and [`flood`] is the load
//! generator that proves it under chaos kills.
//!
//! Layering: `mbts-serve` sits above `mbts-site` (the state machine's
//! substrate), `mbts-durable` (the journal), `mbts-trace` (provenance +
//! the serve summary surfaced by `mbts analyze`), and `mbts-sim` (time,
//! event queue, self-profiler sections).
//!
//! Network paths never panic: every parse, validation, or serialization
//! problem becomes a typed 4xx/5xx JSON reply, and the lint below keeps
//! `unwrap()` out of production code (tests are exempt).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod flood;
pub mod http;
pub mod journaled;
pub mod machine;
pub mod server;
pub mod top;

pub use flood::{flood, FloodConfig, FloodReport};
pub use journaled::ServiceRun;
pub use machine::{
    ApplyOutcome, Command, CommandKind, MachineConfig, ServeCounters, ServiceMachine,
    ServiceSnapshot, ServiceSnapshotRef, ShedReason, TaskStatus, SERVICE_SNAPSHOT_FORMAT,
};
pub use server::{
    install_signal_handlers, ServeConfig, ServeReport, Server, POINT_ACCEPT, POINT_CONN_READ,
    POINT_CONN_WRITE,
};
pub use top::{run_top, scrape, TopConfig};
