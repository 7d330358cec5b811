//! Site configuration.

use mbts_core::{AdmissionPolicy, Policy, ScheduleMode};
use mbts_workload::WorkflowFacets;
use serde::{Deserialize, Serialize};

fn default_true() -> bool {
    true
}

/// Configuration of a task-service site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteConfig {
    /// Number of interchangeable processors.
    pub processors: usize,
    /// The value-based dispatch policy.
    pub policy: Policy,
    /// Acceptance heuristic applied to each submission.
    pub admission: AdmissionPolicy,
    /// Whether a new arrival may preempt a lower-priority running task.
    /// A preempted task resumes later with its progress intact (§4).
    pub preemption: bool,
    /// How candidate schedules are built on the admission path.
    pub schedule_mode: ScheduleMode,
    /// Discount rate used for the PV term in the slack computation
    /// (the paper uses the scheduling heuristic's rate, 1 %).
    pub admission_discount_rate: f64,
    /// If `true` (default), the dispatcher EASY-backfills around a
    /// head-of-line gang that does not fit; if `false`, dispatch stops at
    /// the first non-fitting task (strict score order — the `ablate
    /// widths` comparison).
    #[serde(default = "default_true")]
    pub backfilling: bool,
    /// If `true`, expired bounded-penalty tasks are discarded from the
    /// queue instead of eventually being run for their floored yield
    /// (Millennium §3: "the system incurs no cost even if it discards an
    /// expired task").
    pub drop_expired: bool,
    /// Per-task workflow facets (owning workflow, critical-path flag),
    /// stamped on decision provenance; admission never reads them.
    /// Absent for plain task workloads — and absent from serialized
    /// configs, so pre-workflow configs round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workflow_facets: Option<WorkflowFacets>,
}

impl SiteConfig {
    /// A site with `processors` processors, FirstPrice dispatch, no
    /// admission control, and preemption disabled.
    pub fn new(processors: usize) -> Self {
        assert!(processors > 0, "site needs at least one processor");
        SiteConfig {
            processors,
            policy: Policy::FirstPrice,
            admission: AdmissionPolicy::AcceptAll,
            preemption: false,
            schedule_mode: ScheduleMode::Static,
            admission_discount_rate: 0.01,
            backfilling: true,
            drop_expired: false,
            workflow_facets: None,
        }
    }

    /// Sets the dispatch policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Enables or disables preemption.
    pub fn with_preemption(mut self, on: bool) -> Self {
        self.preemption = on;
        self
    }

    /// Sets the candidate-schedule construction mode.
    pub fn with_schedule_mode(mut self, mode: ScheduleMode) -> Self {
        self.schedule_mode = mode;
        self
    }

    /// Sets the discount rate used in slack computations.
    pub fn with_admission_discount_rate(mut self, rate: f64) -> Self {
        assert!(rate >= 0.0, "discount rate must be non-negative");
        self.admission_discount_rate = rate;
        self
    }

    /// Enables or disables EASY backfilling for gang workloads.
    pub fn with_backfilling(mut self, on: bool) -> Self {
        self.backfilling = on;
        self
    }

    /// Enables or disables discarding of expired tasks.
    pub fn with_drop_expired(mut self, on: bool) -> Self {
        self.drop_expired = on;
        self
    }

    /// Installs per-task workflow facets: decision provenance is
    /// stamped with workflow/critical-path membership. Admission stays
    /// per-task Eq. 7/8 (DESIGN §14).
    pub fn with_workflow_facets(mut self, facets: WorkflowFacets) -> Self {
        self.workflow_facets = Some(facets);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = SiteConfig::new(8)
            .with_policy(Policy::pv(0.02))
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 })
            .with_preemption(true)
            .with_schedule_mode(ScheduleMode::Dynamic)
            .with_admission_discount_rate(0.05)
            .with_drop_expired(true);
        assert_eq!(c.processors, 8);
        assert_eq!(c.policy, Policy::pv(0.02));
        assert!(c.preemption);
        assert!(c.drop_expired);
        assert_eq!(c.schedule_mode, ScheduleMode::Dynamic);
        assert_eq!(c.admission_discount_rate, 0.05);
    }

    #[test]
    fn defaults_are_paperlike() {
        let c = SiteConfig::new(16);
        assert_eq!(c.policy, Policy::FirstPrice);
        assert_eq!(c.admission, AdmissionPolicy::AcceptAll);
        assert!(!c.preemption);
        assert!(!c.drop_expired);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = SiteConfig::new(0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = SiteConfig::new(4).with_policy(Policy::first_reward(0.3, 0.01));
        let json = serde_json::to_string(&c).unwrap();
        let back: SiteConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
