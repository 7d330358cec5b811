//! # mbts-workload — synthetic batch workloads
//!
//! Implements the experimental methodology of §4.1 of the paper: synthetic
//! traces of single-processor batch jobs with
//!
//! * exponential (or, for the Millennium Figure-3 comparison, normal)
//!   inter-arrival times and durations, optionally released in batches,
//! * **bimodal** value assignments: 20 % of jobs draw their *unit value*
//!   (`value_i / runtime_i`) from a high-mean class and 80 % from a
//!   low-mean class, normal within class, the ratio of class means being
//!   the **value skew ratio**,
//! * an analogous bimodal construction for decay rates parameterized by the
//!   **decay skew ratio**, and
//! * a **load factor** knob: offered work per unit time divided by site
//!   capacity, controlled by scaling the arrival process.
//!
//! The crate also defines [`TaskSpec`] — the immutable description of a
//! submitted task, i.e. the bid tuple `(runtime, value, decay, bound)` of
//! §6 plus its arrival time — and serializable [`Trace`]s for replay,
//! which keep each task's true runtime beside the bids ([`TaskList`]).
//!
//! ```
//! use mbts_workload::{generate_trace, MixConfig};
//!
//! // A 100-task mix at load 2 against an 8-processor site, value skew 4.
//! let mix = MixConfig::millennium_default()
//!     .with_tasks(100)
//!     .with_processors(8)
//!     .with_load_factor(2.0)
//!     .with_value_skew(4.0);
//! let trace = generate_trace(&mix, 42);
//! let stats = trace.stats();
//! assert_eq!(stats.num_tasks, 100);
//! assert!((stats.offered_load - 2.0).abs() < 0.5);
//! // Replayable: the same seed gives the identical trace.
//! assert_eq!(trace, generate_trace(&mix, 42));
//! ```

pub mod config;
pub mod generator;
pub mod millennium;
pub mod swf;
pub mod task;
pub mod tasklist;
pub mod trace;
pub mod validate;
pub mod workflow;

pub use config::{ArrivalProcess, BoundPolicy, MixConfig, WidthPolicy};
pub use generator::generate_trace;
pub use millennium::{fig3_mix, fig45_mix, fig67_mix};
pub use swf::{load_swf, parse_swf, ParseError, SwfError, SwfOptions};
pub use task::{PenaltyBound, TaskId, TaskSpec};
pub use tasklist::TaskList;
pub use trace::{Trace, TraceStats};
pub use validate::{validate_trace, ValidationReport};
pub use workflow::{
    attribute_critical_path, generate_workflows, TaskFacet, WorkflowConfig, WorkflowError,
    WorkflowFacets, WorkflowSet, WorkflowShape, WorkflowSpec,
};
