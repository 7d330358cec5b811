//! Counting sink: folds an event stream into per-policy distributions.
//!
//! A registry is created labelled with the policy under test; feeding it
//! several runs of the same policy accumulates, and [`MetricsRegistry::absorb`]
//! merges registries for different policies into one report — the shape
//! the `metrics` experiments subcommand prints.

use crate::event::{TraceEvent, TraceKind};
use crate::exposition;
use mbts_sim::{Histogram, OnlineStats, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Histogram ranges are fixed so that registries from different runs can
/// be merged bin-wise; the tails catch outliers and the exact moments
/// live in the paired `OnlineStats`.
const DELAY_RANGE: (f64, f64, usize) = (0.0, 1000.0, 50);
const YIELD_RANGE: (f64, f64, usize) = (-250.0, 250.0, 50);
const PREEMPT_RANGE: (f64, f64, usize) = (0.0, 16.0, 16);

/// Aggregates for one policy label.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyMetrics {
    /// Tasks that reached admission.
    pub arrived: u64,
    /// Tasks admitted.
    pub accepted: u64,
    /// Gang starts (including restarts after preemption or crash).
    pub scheduled: u64,
    /// Starts that were EASY backfills.
    pub backfills: u64,
    /// Preemption events.
    pub preempted: u64,
    /// Crash-driven requeues.
    pub requeued: u64,
    /// Tasks run to completion.
    pub completed: u64,
    /// Tasks dropped at their penalty floor.
    pub dropped: u64,
    /// Tasks cancelled by the submitter.
    pub cancelled: u64,
    /// Tasks orphaned by site outages.
    pub orphaned: u64,
    /// Processors crashed / repaired.
    pub crashed_procs: u64,
    /// Processors brought back.
    pub repaired_procs: u64,
    /// Contract settlements seen and their net amount.
    pub settlements: u64,
    /// Net settled amount across all contracts.
    pub settled_total: f64,
    /// Provenance decision records seen (provenance-level tracers only).
    /// Defaulted so that registries snapshotted before the provenance
    /// layer existed still deserialize.
    #[serde(default)]
    pub decisions: u64,
    /// Candidates carried across all decision records.
    #[serde(default)]
    pub decision_candidates: u64,
    /// Delay past the no-wait finish, per completed task.
    pub delay: Histogram,
    /// Exact delay moments.
    pub delay_stats: OnlineStats,
    /// Realized yield, per completed or dropped task.
    pub yields: Histogram,
    /// Exact yield moments.
    pub yield_stats: OnlineStats,
    /// Preemptions suffered, per completed task.
    pub preemptions: Histogram,
    /// Slack (pv − cost, decay-normalized) at each schedule decision.
    pub slack_stats: OnlineStats,
    /// Crash→repair latency per site.
    pub recovery: OnlineStats,
    processors: usize,
    busy: usize,
    cursor: Option<Time>,
    run_start: Option<Time>,
    busy_time: f64,
    span: f64,
    open_crashes: OpenCrashes,
}

impl PolicyMetrics {
    fn new(processors: usize) -> Self {
        PolicyMetrics {
            arrived: 0,
            accepted: 0,
            scheduled: 0,
            backfills: 0,
            preempted: 0,
            requeued: 0,
            completed: 0,
            dropped: 0,
            cancelled: 0,
            orphaned: 0,
            crashed_procs: 0,
            repaired_procs: 0,
            settlements: 0,
            settled_total: 0.0,
            decisions: 0,
            decision_candidates: 0,
            delay: Histogram::new(DELAY_RANGE.0, DELAY_RANGE.1, DELAY_RANGE.2),
            delay_stats: OnlineStats::new(),
            yields: Histogram::new(YIELD_RANGE.0, YIELD_RANGE.1, YIELD_RANGE.2),
            yield_stats: OnlineStats::new(),
            preemptions: Histogram::new(PREEMPT_RANGE.0, PREEMPT_RANGE.1, PREEMPT_RANGE.2),
            slack_stats: OnlineStats::new(),
            recovery: OnlineStats::new(),
            processors,
            busy: 0,
            cursor: None,
            run_start: None,
            busy_time: 0.0,
            span: 0.0,
            open_crashes: OpenCrashes::default(),
        }
    }

    fn record(&mut self, ev: &TraceEvent) {
        // Advance the busy-processor integral to this event first.
        if let Some(cursor) = self.cursor {
            self.busy_time += self.busy as f64 * (ev.at - cursor).as_f64();
        } else {
            self.run_start = Some(ev.at);
        }
        self.cursor = Some(ev.at);

        match &ev.kind {
            TraceKind::TaskArrived { accepted } => {
                self.arrived += 1;
                if *accepted {
                    self.accepted += 1;
                }
            }
            &TraceKind::Scheduled {
                slack,
                width,
                backfill,
                ..
            } => {
                self.scheduled += 1;
                if backfill {
                    self.backfills += 1;
                }
                self.slack_stats.push(slack);
                // Zero-width gangs (degenerate specs) contribute nothing
                // to the busy integral; the addition is a no-op but the
                // invariant is stated here on purpose.
                self.busy += width;
            }
            &TraceKind::Preempted { width } => {
                self.preempted += 1;
                self.busy = self.busy.saturating_sub(width);
            }
            &TraceKind::Requeued { width } => {
                self.requeued += 1;
                self.busy = self.busy.saturating_sub(width);
            }
            &TraceKind::Completed {
                earned,
                delay,
                width,
                preemptions,
            } => {
                self.completed += 1;
                // Delay is time past the no-wait finish and can never be
                // meaningfully negative; a negative or NaN sample (a
                // corrupt or hand-edited trace) clamps to the zero bucket
                // instead of vanishing into the histogram underflow bin.
                let delay = delay.max(0.0);
                self.delay.record(delay);
                self.delay_stats.push(delay);
                self.yields.record(earned);
                self.yield_stats.push(earned);
                self.preemptions.record(preemptions as f64);
                self.busy = self.busy.saturating_sub(width);
            }
            &TraceKind::Dropped { earned } => {
                self.dropped += 1;
                self.yields.record(earned);
                self.yield_stats.push(earned);
            }
            TraceKind::Cancelled => self.cancelled += 1,
            TraceKind::Orphaned => self.orphaned += 1,
            &TraceKind::Crashed { procs } => {
                self.crashed_procs += procs as u64;
                self.open_crashes
                    .0
                    .entry(ev.site)
                    .or_default()
                    .push_back(ev.at);
            }
            &TraceKind::Repaired { procs } => {
                self.repaired_procs += procs as u64;
                if let Some(open) = self.open_crashes.0.get_mut(&ev.site) {
                    if let Some(crashed_at) = open.pop_front() {
                        self.recovery.push((ev.at - crashed_at).as_f64());
                    }
                }
            }
            &TraceKind::ContractSettled { amount } => {
                self.settlements += 1;
                self.settled_total += amount;
            }
            TraceKind::DecisionRecord { candidates, .. } => {
                self.decisions += 1;
                self.decision_candidates += candidates.len() as u64;
            }
            // Workflow overlay events carry no processor occupancy; the
            // per-task records above already account for the busy
            // integral and per-task yields.
            TraceKind::WorkflowReleased { .. }
            | TraceKind::WorkflowSettled { .. }
            | TraceKind::WorkflowStranded { .. } => {}
            // Chaos markers are orchestrator annotations, not scheduler
            // decisions — they carry no occupancy or yield.
            TraceKind::ChaosInjected { .. } | TraceKind::ChaosRecovered { .. } => {}
        }
    }

    /// Closes the utilization integral for one replay; must be called
    /// between runs folded into the same registry (time restarts at
    /// zero) and before reading [`utilization`](Self::utilization).
    fn finish_run(&mut self) {
        if let (Some(start), Some(cursor)) = (self.run_start, self.cursor) {
            self.span += (cursor - start).as_f64();
        }
        self.cursor = None;
        self.run_start = None;
        self.busy = 0;
        self.open_crashes.0.clear();
    }

    /// Busy processor-time over configured capacity across all finished
    /// runs. A zero-span (no events, or a single-instant run) or
    /// zero-processor configuration reports 0.0 rather than NaN so the
    /// figure always renders and merges cleanly.
    pub fn utilization(&self) -> f64 {
        let denom = self.processors as f64 * self.span;
        if denom <= 0.0 {
            return 0.0;
        }
        self.busy_time / denom
    }

    /// True when no event has ever been folded into these aggregates.
    pub fn is_empty(&self) -> bool {
        self.arrived == 0
            && self.scheduled == 0
            && self.preempted == 0
            && self.requeued == 0
            && self.completed == 0
            && self.dropped == 0
            && self.cancelled == 0
            && self.orphaned == 0
            && self.crashed_procs == 0
            && self.repaired_procs == 0
            && self.settlements == 0
            && self.decisions == 0
    }

    fn merge(&mut self, other: &PolicyMetrics) {
        self.arrived += other.arrived;
        self.accepted += other.accepted;
        self.scheduled += other.scheduled;
        self.backfills += other.backfills;
        self.preempted += other.preempted;
        self.requeued += other.requeued;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.cancelled += other.cancelled;
        self.orphaned += other.orphaned;
        self.crashed_procs += other.crashed_procs;
        self.repaired_procs += other.repaired_procs;
        self.settlements += other.settlements;
        self.settled_total += other.settled_total;
        self.decisions += other.decisions;
        self.decision_candidates += other.decision_candidates;
        self.delay.merge(&other.delay);
        self.delay_stats.merge(&other.delay_stats);
        self.yields.merge(&other.yields);
        self.yield_stats.merge(&other.yield_stats);
        self.preemptions.merge(&other.preemptions);
        self.slack_stats.merge(&other.slack_stats);
        self.recovery.merge(&other.recovery);
        self.busy_time += other.busy_time;
        self.span += other.span;
    }
}

/// Crashes awaiting their repair, per site. The vendored serde shim has no
/// impls for `VecDeque` or non-string-keyed maps, so this serializes as
/// `Vec<(Option<usize>, Vec<Time>)>`. Mid-run serialization must be
/// lossless: the durable-recovery layer snapshots a live registry (the
/// "tracer cursor") and resumes folding events into it.
#[derive(Debug, Clone, Default)]
struct OpenCrashes(BTreeMap<Option<usize>, VecDeque<Time>>);

impl Serialize for OpenCrashes {
    fn serialize(&self, out: &mut serde::Writer) {
        let open: Vec<(Option<usize>, Vec<Time>)> = self
            .0
            .iter()
            .map(|(k, v)| (*k, v.iter().copied().collect()))
            .collect();
        open.serialize(out);
    }
}

impl Deserialize for OpenCrashes {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let open: Vec<(Option<usize>, Vec<Time>)> = Deserialize::deserialize(input)?;
        Ok(OpenCrashes(
            open.into_iter().map(|(k, v)| (k, v.into())).collect(),
        ))
    }
}

/// Per-policy metrics keyed by policy label. Used either live (as a
/// [`Tracer`](crate::Tracer) sink, recording under its active label) or
/// offline by replaying a captured buffer through [`record_all`](Self::record_all).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsRegistry {
    active: String,
    processors: usize,
    policies: BTreeMap<String, PolicyMetrics>,
}

impl MetricsRegistry {
    /// A registry recording under `policy` for a site with `processors`
    /// configured processors.
    pub fn new(policy: &str, processors: usize) -> Self {
        let mut policies = BTreeMap::new();
        policies.insert(policy.to_string(), PolicyMetrics::new(processors));
        MetricsRegistry {
            active: policy.to_string(),
            processors,
            policies,
        }
    }

    /// Folds one event under the active policy label.
    pub fn record(&mut self, ev: &TraceEvent) {
        let processors = self.processors;
        self.policies
            .entry(self.active.clone())
            .or_insert_with(|| PolicyMetrics::new(processors))
            .record(ev);
    }

    /// Folds one complete replay's event stream and closes its
    /// utilization integral.
    pub fn record_all(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.record(ev);
        }
        self.finish_run();
    }

    /// Closes the current replay (see [`PolicyMetrics::utilization`]).
    pub fn finish_run(&mut self) {
        if let Some(pm) = self.policies.get_mut(&self.active) {
            pm.finish_run();
        }
    }

    /// Merges another registry (typically for a different policy) into
    /// this one. Both sides' open runs are closed first.
    pub fn absorb(&mut self, mut other: MetricsRegistry) {
        self.finish_run();
        other.finish_run();
        for (label, pm) in other.policies {
            match self.policies.get_mut(&label) {
                Some(existing) => existing.merge(&pm),
                None => {
                    self.policies.insert(label, pm);
                }
            }
        }
    }

    /// The aggregates for one policy label.
    pub fn policy(&self, label: &str) -> Option<&PolicyMetrics> {
        self.policies.get(label)
    }

    /// All labels with their aggregates, in label order.
    pub fn policies(&self) -> impl Iterator<Item = (&str, &PolicyMetrics)> {
        self.policies.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Plain-text report: one block per policy with counters, delay and
    /// yield distributions, utilization and fault-recovery latency.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.policies.is_empty() {
            out.push_str("(empty registry: no policies recorded)\n");
            return out;
        }
        for (label, pm) in &self.policies {
            out.push_str(&format!("policy {label}\n"));
            if pm.is_empty() {
                out.push_str("  (no events recorded)\n");
                continue;
            }
            out.push_str(&format!(
                "  arrived {}  accepted {}  scheduled {} (backfills {})  completed {}\n",
                pm.arrived, pm.accepted, pm.scheduled, pm.backfills, pm.completed
            ));
            out.push_str(&format!(
                "  preempted {}  requeued {}  dropped {}  cancelled {}  orphaned {}\n",
                pm.preempted, pm.requeued, pm.dropped, pm.cancelled, pm.orphaned
            ));
            // Distribution lines render only over non-empty samples so an
            // event stream without completions never prints NaN moments.
            if pm.delay_stats.count() > 0 {
                out.push_str(&format!(
                    "  delay mean {:.3}  p50 {:.3}  p99 {:.3}\n",
                    pm.delay_stats.mean(),
                    pm.delay.quantile(0.5),
                    pm.delay.quantile(0.99)
                ));
            }
            if pm.yield_stats.count() > 0 {
                out.push_str(&format!(
                    "  yield mean {:.3}  total {:.3}  p50 {:.3}\n",
                    pm.yield_stats.mean(),
                    pm.yield_stats.mean() * pm.yield_stats.count() as f64,
                    pm.yields.quantile(0.5)
                ));
            }
            if pm.scheduled > 0 {
                out.push_str(&format!(
                    "  preemptions/task p99 {:.1}  slack mean {:.3}\n",
                    pm.preemptions.quantile(0.99),
                    pm.slack_stats.mean()
                ));
            }
            out.push_str(&format!("  utilization {:.3}\n", pm.utilization()));
            if pm.recovery.count() > 0 {
                out.push_str(&format!(
                    "  fault recovery mean {:.3} (n={})  procs crashed {} repaired {}\n",
                    pm.recovery.mean(),
                    pm.recovery.count(),
                    pm.crashed_procs,
                    pm.repaired_procs
                ));
            }
            if pm.settlements > 0 {
                out.push_str(&format!(
                    "  contracts settled {}  net {:.3}\n",
                    pm.settlements, pm.settled_total
                ));
            }
            if pm.decisions > 0 {
                out.push_str(&format!(
                    "  decision records {}  candidates/decision {:.1}\n",
                    pm.decisions,
                    pm.decision_candidates as f64 / pm.decisions as f64
                ));
            }
        }
        out
    }

    /// Prometheus text-format export of the counter surface — the shape
    /// `mbts metrics --prom FILE` writes next to the profiler histograms.
    pub fn prometheus(&self) -> String {
        let mut tasks = Vec::new();
        let mut decisions = Vec::new();
        let mut yields = Vec::new();
        let mut utils = Vec::new();
        for (label, pm) in &self.policies {
            for (outcome, v) in [
                ("arrived", pm.arrived),
                ("accepted", pm.accepted),
                ("scheduled", pm.scheduled),
                ("backfilled", pm.backfills),
                ("preempted", pm.preempted),
                ("requeued", pm.requeued),
                ("completed", pm.completed),
                ("dropped", pm.dropped),
                ("cancelled", pm.cancelled),
                ("orphaned", pm.orphaned),
            ] {
                tasks.push((
                    format!("policy=\"{label}\",outcome=\"{outcome}\""),
                    v as f64,
                ));
            }
            let policy = format!("policy=\"{label}\"");
            decisions.push((policy.clone(), pm.decisions as f64));
            yields.push((
                policy.clone(),
                pm.yield_stats.mean() * pm.yield_stats.count() as f64,
            ));
            utils.push((policy, pm.utilization()));
        }
        let mut out = String::new();
        exposition::counter(
            &mut out,
            "mbts_tasks_total",
            "Task lifecycle counters per policy",
            &tasks,
        );
        exposition::counter(
            &mut out,
            "mbts_decision_records_total",
            "Provenance decision records per policy",
            &decisions,
        );
        exposition::gauge(
            &mut out,
            "mbts_yield_total",
            "Total realized yield per policy",
            &yields,
        );
        exposition::gauge(
            &mut out,
            "mbts_utilization",
            "Busy processor-time over capacity",
            &utils,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_workload::TaskId;

    fn ev(at: f64, task: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::new(at),
            task: Some(TaskId(task)),
            site: None,
            kind,
        }
    }

    #[test]
    fn counts_and_distributions_accumulate() {
        let mut reg = MetricsRegistry::new("fcfs", 2);
        reg.record_all(&[
            ev(0.0, 1, TraceKind::TaskArrived { accepted: true }),
            ev(
                0.0,
                1,
                TraceKind::Scheduled {
                    rank: 1,
                    pv: 10.0,
                    cost: 0.0,
                    slack: 4.0,
                    width: 2,
                    backfill: false,
                },
            ),
            ev(
                4.0,
                1,
                TraceKind::Completed {
                    earned: 8.0,
                    delay: 0.0,
                    width: 2,
                    preemptions: 0,
                },
            ),
        ]);
        let pm = reg.policy("fcfs").unwrap();
        assert_eq!(pm.arrived, 1);
        assert_eq!(pm.scheduled, 1);
        assert_eq!(pm.completed, 1);
        assert_eq!(pm.yield_stats.mean(), 8.0);
        // Two procs busy for the whole 4-unit span.
        assert!((pm.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crash_repair_pairs_measure_recovery_latency() {
        let mut reg = MetricsRegistry::new("pv", 4);
        reg.record_all(&[
            ev(1.0, 0, TraceKind::Crashed { procs: 2 }),
            ev(3.5, 0, TraceKind::Repaired { procs: 2 }),
        ]);
        let pm = reg.policy("pv").unwrap();
        assert_eq!(pm.crashed_procs, 2);
        assert_eq!(pm.recovery.count(), 1);
        assert!((pm.recovery.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges_across_policies_and_runs() {
        let mut a = MetricsRegistry::new("fcfs", 2);
        a.record_all(&[ev(0.0, 1, TraceKind::TaskArrived { accepted: true })]);
        let mut b = MetricsRegistry::new("srpt", 2);
        b.record_all(&[ev(0.0, 2, TraceKind::TaskArrived { accepted: false })]);
        let mut c = MetricsRegistry::new("fcfs", 2);
        c.record_all(&[ev(0.0, 3, TraceKind::TaskArrived { accepted: true })]);
        a.absorb(b);
        a.absorb(c);
        assert_eq!(a.policy("fcfs").unwrap().arrived, 2);
        assert_eq!(a.policy("srpt").unwrap().arrived, 1);
        let report = a.render();
        assert!(report.contains("policy fcfs"));
        assert!(report.contains("policy srpt"));
    }

    #[test]
    fn utilization_survives_multiple_runs() {
        let mut reg = MetricsRegistry::new("swpt", 1);
        for _ in 0..2 {
            reg.record_all(&[
                ev(
                    0.0,
                    1,
                    TraceKind::Scheduled {
                        rank: 1,
                        pv: 1.0,
                        cost: 0.0,
                        slack: 1.0,
                        width: 1,
                        backfill: false,
                    },
                ),
                ev(
                    2.0,
                    1,
                    TraceKind::Completed {
                        earned: 1.0,
                        delay: 0.0,
                        width: 1,
                        preemptions: 0,
                    },
                ),
                ev(4.0, 2, TraceKind::Cancelled),
            ]);
        }
        let pm = reg.policy("swpt").unwrap();
        // Busy 2 of each 4-unit run.
        assert!((pm.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_registry_and_no_event_policies_render_explicitly() {
        let reg = MetricsRegistry::new("idle", 4);
        let report = reg.render();
        assert!(report.contains("policy idle"));
        assert!(report.contains("(no events recorded)"));
        assert!(
            !report.contains("NaN"),
            "report must stay NaN-free: {report}"
        );
        // Zero span → utilization must be finite, not NaN.
        assert_eq!(reg.policy("idle").unwrap().utilization(), 0.0);
    }

    #[test]
    fn negative_and_nan_delay_samples_clamp_to_zero() {
        let mut reg = MetricsRegistry::new("fcfs", 1);
        for (task, delay) in [(1u64, -3.5), (2, f64::NAN), (3, 2.0)] {
            reg.record(&ev(
                1.0,
                task,
                TraceKind::Completed {
                    earned: 1.0,
                    delay,
                    width: 1,
                    preemptions: 0,
                },
            ));
        }
        reg.finish_run();
        let pm = reg.policy("fcfs").unwrap();
        assert_eq!(pm.completed, 3);
        assert_eq!(pm.delay_stats.count(), 3);
        // Two bad samples clamp to 0.0, one is 2.0 → mean 2/3.
        assert!((pm.delay_stats.mean() - 2.0 / 3.0).abs() < 1e-12);
        assert!(pm.delay_stats.mean().is_finite());
    }

    #[test]
    fn zero_width_gangs_leave_the_busy_integral_consistent() {
        let mut reg = MetricsRegistry::new("fcfs", 2);
        reg.record_all(&[
            ev(
                0.0,
                1,
                TraceKind::Scheduled {
                    rank: 1,
                    pv: 1.0,
                    cost: 0.0,
                    slack: 1.0,
                    width: 0,
                    backfill: false,
                },
            ),
            ev(
                4.0,
                1,
                TraceKind::Completed {
                    earned: 1.0,
                    delay: 0.0,
                    width: 0,
                    preemptions: 0,
                },
            ),
        ]);
        let pm = reg.policy("fcfs").unwrap();
        assert_eq!(pm.scheduled, 1);
        assert_eq!(pm.utilization(), 0.0);
        assert!(pm.utilization().is_finite());
    }

    #[test]
    fn decision_records_are_counted_not_distributed() {
        use crate::event::{DecisionCandidate, DecisionKind};
        let mut reg = MetricsRegistry::new("first_reward", 2);
        reg.record_all(&[ev(
            0.0,
            1,
            TraceKind::DecisionRecord {
                decision: DecisionKind::Dispatch,
                considered: 2,
                candidates: vec![
                    DecisionCandidate {
                        rank: 1,
                        task: Some(TaskId(1)),
                        site: None,
                        score: 2.0,
                        pv: 3.0,
                        cost: 1.0,
                        slack: 2.0,
                        workflow: None,
                        critical: None,
                        chosen: true,
                    },
                    DecisionCandidate {
                        rank: 2,
                        task: Some(TaskId(2)),
                        site: None,
                        score: 1.0,
                        pv: 2.0,
                        cost: 1.0,
                        slack: 1.0,
                        workflow: None,
                        critical: None,
                        chosen: false,
                    },
                ],
            },
        )]);
        let pm = reg.policy("first_reward").unwrap();
        assert_eq!(pm.decisions, 1);
        assert_eq!(pm.decision_candidates, 2);
        // Decision records never perturb the task counters.
        assert_eq!(pm.arrived, 0);
        assert_eq!(pm.scheduled, 0);
        let report = reg.render();
        assert!(report.contains("decision records 1"));
        let prom = reg.prometheus();
        assert!(prom.contains("mbts_decision_records_total{policy=\"first_reward\"} 1"));
        assert!(prom.contains("# TYPE mbts_tasks_total counter"));
    }
}
