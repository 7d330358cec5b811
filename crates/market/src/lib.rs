//! # mbts-market — the service-market layer
//!
//! Implements the negotiation setting of §2 and §6 and Figure 1 of the
//! paper: clients (or a broker acting for them) submit **task bids** —
//! value-function tuples `(runtime, value, decay, bound)`, the tasks as
//! the trace holds them — to a set of task-service sites; each site
//! either rejects the bid or answers with a **server bid** (expected completion time and price) derived from its
//! candidate schedule; the client picks a site; a **contract** is formed.
//! If the site later completes the task past the negotiated time, the
//! value function determines the reduced price or penalty it actually
//! collects.
//!
//! Modules:
//!
//! * [`bid`] — server bids and the client's selection rule.
//! * [`contract`] — contracts and their settlement at completion time.
//! * [`pricing`] — settlement strategies (§2 notes pricing is orthogonal:
//!   pay-bid by default, with a second-price hook).
//! * [`economy`] — a multi-site discrete-event economy tying it together:
//!   one serial event loop, the only engine (DESIGN.md §12).
//!
//! ```
//! use mbts_core::{AdmissionPolicy, Policy};
//! use mbts_market::{EconomyConfig, EconomyRun};
//! use mbts_site::SiteConfig;
//! use mbts_trace::Tracer;
//! use mbts_workload::{generate_trace, MixConfig};
//!
//! let trace = generate_trace(
//!     &MixConfig::millennium_default().with_tasks(100).with_processors(8),
//!     7,
//! );
//! // Two sites compete for the stream; clients take the earliest bid.
//! let economy = EconomyConfig::uniform(
//!     2,
//!     SiteConfig::new(4)
//!         .with_policy(Policy::first_reward(0.2, 0.01))
//!         .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
//! );
//! let (outcome, _) = EconomyRun::new(economy, &trace, Tracer::Off).finish();
//! assert_eq!(outcome.placed + outcome.unplaced, 100);
//! assert!(outcome.contracts.iter().all(|c| c.is_settled()));
//! ```

pub mod bid;
pub mod contract;
pub mod economy;
pub mod pricing;

pub use bid::{ClientSelection, ServerBid};
pub use contract::{Contract, ContractLedger, ContractRow};
pub use economy::{
    EcoEvent, EconomyConfig, EconomyOutcome, EconomyRun, EconomySnapshot, EconomySnapshotRef,
    SiteId,
};
pub use pricing::PricingStrategy;
