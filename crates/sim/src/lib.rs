//! # mbts-sim — discrete-event simulation substrate
//!
//! This crate is the foundation the rest of the market-based task service
//! (MBTS) stack is built on. It deliberately contains nothing specific to
//! scheduling or economics; it provides:
//!
//! * [`Time`] / [`Duration`] — totally-ordered simulation time,
//! * [`EventQueue`] — a stable (FIFO tie-breaking) pending-event set,
//! * [`Engine`] — a minimal next-event-time-advance loop,
//! * [`rng`] — deterministic, splittable random-number streams,
//! * [`dist`] — the distributions used by the paper's synthetic workloads
//!   (exponential, truncated normal, bimodal class mixtures, …),
//! * [`fault`] — seeded MTTF/MTTR crash-and-repair timelines for
//!   fault-injection experiments,
//! * [`stats`] — online summary statistics and confidence
//!   intervals for multi-seed replication,
//! * [`latency`] / [`profiler`] — the one wall-clock latency histogram
//!   and the process-global registry of series every crate above records
//!   into,
//! * [`malloc`] — the allocator policy every run shares
//!   ([`pin_malloc_thresholds`]).
//!
//! Everything is seeded and replayable: two runs with the same seed produce
//! bit-identical event orderings.
//!
//! ```
//! use mbts_sim::{Engine, Time, Duration};
//!
//! // Count ticks: a model that re-schedules itself 10 times.
//! struct Ticker { ticks: u32 }
//! impl mbts_sim::Model for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, now: Time, _ev: (), sched: &mut mbts_sim::EventQueue<()>) {
//!         self.ticks += 1;
//!         if self.ticks < 10 {
//!             sched.schedule(now + Duration::from(1.0), ());
//!         }
//!     }
//! }
//! let mut engine = Engine::new(Ticker { ticks: 0 });
//! engine.schedule(Time::ZERO, ());
//! engine.run_to_completion();
//! assert_eq!(engine.model().ticks, 10);
//! assert_eq!(engine.now(), Time::from(9.0));
//! ```

pub mod dist;
pub mod engine;
pub mod event;
pub mod fault;
pub mod latency;
pub mod malloc;
pub mod profiler;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Dist;
pub use engine::{Engine, Model};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultInjectorState, UpDown};
pub use malloc::pin_malloc_thresholds;
pub use rng::{RngFactory, SimRng};
pub use stats::{OnlineStats, PairedComparison, Summary};
pub use time::{Duration, Time};
