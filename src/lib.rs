//! # mbts — Market-Based Task Service
//!
//! Facade crate re-exporting the full MBTS stack: a production-quality Rust
//! reproduction of *“Balancing Risk and Reward in a Market-Based Task
//! Service”* (Irwin, Grit & Chase, HPDC 2004).
//!
//! The stack, bottom-up:
//!
//! * [`sim`] — discrete-event simulation substrate (time, events, RNG
//!   streams, distributions, statistics).
//! * [`workload`] — synthetic batch workloads: bimodal value/decay mixes,
//!   load-factor calibration, trace serialization.
//! * [`core`] — the paper's contribution: linear-decay value functions,
//!   opportunity cost, and the FCFS/SRPT/SWPT/FirstPrice/PV/FirstReward
//!   scheduling heuristics plus slack-based admission control.
//! * [`site`] — an event-driven task-service site executing a trace on a
//!   pool of processors with optional preemption and admission control.
//! * [`market`] — bids, contracts, negotiation, brokers, budgets, pricing,
//!   and a multi-site economy (the paper's Figure 1 setting).
//! * [`durable`] — crash consistency: CRC-framed snapshot + write-ahead
//!   event journals that make site and economy runs recoverable at any
//!   event boundary, bit-identical to an uninterrupted run.
//! * [`serve`] — the live task service: an HTTP+JSON daemon (`mbts
//!   serve`) fronting the deterministic core with journaled admission,
//!   backpressure, deadline-aware shedding, and graceful drain, plus
//!   the `mbts flood` load/chaos client.
//! * [`experiments`] — the harness that regenerates every figure of the
//!   paper's evaluation (Figures 3–7) plus ablations.
//! * [`chaos`] — the `mbts chaos` scenario orchestrator: deterministic
//!   fault-injection schedules (disk, network) replayed
//!   against journaled runs, with recovery bit-identity, acked-prefix
//!   durability, and clean-auditor invariants checked after every fault.
//!
//! ## Quickstart
//!
//! ```
//! use mbts::core::heuristics::Policy;
//! use mbts::site::{Site, SiteConfig};
//! use mbts::workload::{MixConfig, generate_trace};
//!
//! // Generate a 200-task bimodal mix at load factor 1 on 4 processors.
//! let mix = MixConfig::millennium_default()
//!     .with_tasks(200)
//!     .with_processors(4)
//!     .with_load_factor(1.0);
//! let trace = generate_trace(&mix, 42);
//!
//! // Run it under the FirstReward heuristic with α = 0.3.
//! let config = SiteConfig::new(4)
//!     .with_policy(Policy::first_reward(0.3, 0.01))
//!     .with_preemption(true);
//! let outcome = Site::new(config).run_trace(&trace);
//! assert_eq!(outcome.metrics.completed, 200);
//! assert!(outcome.metrics.total_yield.is_finite());
//! ```

pub mod chaos;
pub mod cli;

pub use mbts_chaos as chaos_core;
pub use mbts_core as core;
pub use mbts_durable as durable;
pub use mbts_experiments as experiments;
pub use mbts_market as market;
pub use mbts_serve as serve;
pub use mbts_sim as sim;
pub use mbts_site as site;
pub use mbts_trace as trace;
pub use mbts_workload as workload;
