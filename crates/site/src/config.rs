//! Site configuration.

use mbts_core::{AdmissionPolicy, Policy, ScheduleMode};
use mbts_workload::WorkflowFacets;
use serde::{Deserialize, Serialize};

fn default_true() -> bool {
    true
}

/// What happens to a task's progress when it is preempted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PreemptionMode {
    /// The paper's §4 model: a suspended task resumes on any processor
    /// with its progress intact (negligible context-switch cost).
    #[default]
    Resume,
}

/// What survives when a **crash** evicts a running gang. Distinct from
/// [`PreemptionMode`], which governs voluntary scheduler preemption: a
/// preempted task is suspended cooperatively, a crashed one loses its
/// processors mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LostWorkPolicy {
    /// All progress is lost; the task runs from scratch when
    /// redispatched.
    #[default]
    Restart,
    /// The task checkpoints every `interval` time units: on eviction it
    /// keeps progress up to its last checkpoint and pays
    /// `restart_penalty` extra work (added to both the estimated and
    /// true remaining processing time) when redispatched.
    Checkpoint {
        /// Seconds (time units) between checkpoints.
        interval: f64,
        /// Extra work each restore must redo.
        restart_penalty: f64,
    },
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
    pub preemption: bool,
    /// Progress semantics when preempted.
    pub preemption_mode: PreemptionMode,
    /// Progress semantics when a crash evicts a running gang.
    #[serde(default)]
    pub lost_work: LostWorkPolicy,
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
    /// Per-task workflow facets (owning workflow, critical-path flag,
    /// successor context for Eq. 7′/8′ successor-aware admission).
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
            preemption_mode: PreemptionMode::Resume,
            lost_work: LostWorkPolicy::Restart,
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

    /// Sets the preemption progress semantics.
    pub fn with_preemption_mode(mut self, mode: PreemptionMode) -> Self {
        self.preemption_mode = mode;
        self
    }

    /// Sets the crash lost-work semantics.
    pub fn with_lost_work(mut self, policy: LostWorkPolicy) -> Self {
        self.lost_work = policy;
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

    /// Installs per-task workflow facets: admission becomes
    /// successor-aware (Eq. 7′/8′) and decision provenance is stamped
    /// with workflow/critical-path membership.
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
    fn lost_work_defaults_to_restart_and_roundtrips() {
        // Configs recorded before the fault layer existed must keep
        // deserializing — and get the conservative default.
        assert_eq!(
            serde_json::from_str::<SiteConfig>(
                &serde_json::to_string(&SiteConfig::new(4)).unwrap()
            )
            .unwrap()
            .lost_work,
            LostWorkPolicy::Restart
        );
        let c = SiteConfig::new(4).with_lost_work(LostWorkPolicy::Checkpoint {
            interval: 30.0,
            restart_penalty: 5.0,
        });
        assert_eq!(
            serde_json::from_str::<SiteConfig>(&serde_json::to_string(&c).unwrap()).unwrap(),
            c
        );
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
