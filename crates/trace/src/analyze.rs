//! Post-hoc trace analytics: the engine behind `mbts analyze`.
//!
//! [`TraceFold`] consumes a [`TraceEvent`] stream (a `--trace-out` JSONL
//! file read line by line, a replayed journal, or an in-memory buffer) in
//! one pass and produces a [`TraceReport`]: yield attribution,
//! preemption-chain trees with destroyed-yield totals, admission regret
//! (both counterfactual directions), per-site utilization timelines,
//! workflow and chaos accounting, and a summary of any provenance
//! [`DecisionRecord`](TraceKind::DecisionRecord)s present. Everything here
//! is read-only over the event stream; reports serialize to JSON
//! (`--format json`), render as text (`--format text`) and as Prometheus
//! exposition (`--format prom`).

use crate::event::{DecisionKind, TraceEvent, TraceKind};
use crate::exposition;
use crate::sink::TraceSink;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tunables for [`TraceFold::finish`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Buckets in each per-site utilization timeline.
    pub timeline_buckets: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            timeline_buckets: 20,
        }
    }
}

/// Where each unit of yield went.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct YieldAttribution {
    /// Tasks that reached admission.
    pub arrived: u64,
    /// Tasks admitted.
    pub accepted: u64,
    /// Gang starts (including restarts) and how many were backfills.
    pub scheduled: u64,
    /// EASY backfill starts.
    pub backfills: u64,
    /// Tasks run to completion and their summed realized yield.
    pub completed: u64,
    /// Sum of realized yield over completions.
    pub earned_completed: f64,
    /// Tasks dropped at the penalty floor and their summed (negative) yield.
    pub dropped: u64,
    /// Sum of realized yield over drops.
    pub earned_dropped: f64,
    /// Tasks cancelled by submitters.
    pub cancelled: u64,
    /// Preemption and crash-requeue events.
    pub preemptions: u64,
    /// Crash-driven requeues.
    pub requeues: u64,
    /// Contract settlements and their net amount.
    pub settlements: u64,
    /// Net settled amount.
    pub settled_total: f64,
    /// Total realized yield (completions + drops).
    pub total_earned: f64,
    /// Mean delay past the no-wait finish over completions.
    pub mean_delay: f64,
}

/// One preempted gang inside a chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainVictim {
    /// The evicted task.
    pub task: u64,
    /// Its gang width.
    pub width: usize,
    /// Eq. 3 present value of the victim's last `Scheduled` event in the
    /// whole trace (0 when it was never observed starting). It is read
    /// once the trace has ended, so a victim that restarted after this
    /// eviction reports the PV of its final start, not of the start this
    /// eviction cut short.
    pub pv_at_start: f64,
    /// Realized yield the victim eventually earned (0 when the trace
    /// ends before its terminal event).
    pub final_earned: f64,
    /// Destroyed yield: `max(0, pv_at_start − final_earned)` — how much
    /// of the promised value the eviction (and everything after it)
    /// burned.
    pub destroyed_yield: f64,
}

/// One preemption decision: a preemptor evicting one or more victims at
/// a single instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreemptionChain {
    /// When the eviction happened.
    pub at: f64,
    /// The incoming task that won the processors, when attributable.
    pub preemptor: Option<u64>,
    /// Index of the chain this one descends from (its preemptor was a
    /// victim of that earlier chain), if any — the tree structure.
    pub parent: Option<usize>,
    /// The evicted gangs.
    pub victims: Vec<ChainVictim>,
}

/// All preemption chains plus their destroyed-yield total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreemptionReport {
    /// Total preemption events.
    pub total_preemptions: u64,
    /// Sum of destroyed yield over all victims.
    pub destroyed_yield: f64,
    /// Chains in time order; `parent` indexes into this vec.
    pub chains: Vec<PreemptionChain>,
}

/// Admission regret in both counterfactual directions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Tasks admitted.
    pub accepted: u64,
    /// Tasks rejected at the door.
    pub rejected: u64,
    /// Admitted tasks that finished with negative realized yield — the
    /// "should have rejected" regret.
    pub accepted_negative: u64,
    /// Summed (negative) yield of those tasks.
    pub accepted_negative_yield: f64,
    /// Rejected tasks whose provenance record showed positive expected
    /// yield — the "should have accepted" regret. Requires a
    /// provenance-level trace; 0 without one.
    pub rejected_positive: u64,
    /// Summed expected yield forgone across those rejections.
    pub rejected_positive_expected: f64,
    /// Submissions dropped by a live service's overload shedding
    /// ([`DecisionKind::Shed`] records). Absent from pre-serve reports.
    #[serde(default)]
    pub shed: u64,
    /// The regret of shedding: summed positive present value of the shed
    /// submissions at the instant they were dropped.
    #[serde(default)]
    pub shed_pv_lost: f64,
    /// Whether any admission/bid provenance records were present (the
    /// rejected-* counters are only meaningful when true).
    pub has_provenance: bool,
}

/// Mean busy processors per time bucket for one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteTimeline {
    /// Site index (`None` for single-site traces).
    pub site: Option<usize>,
    /// Mean busy processors in each bucket of `[t0, t1]`.
    pub busy: Vec<f64>,
    /// Time-weighted mean busy processors across the whole trace.
    pub mean_busy: f64,
    /// Peak instantaneous busy processors.
    pub peak_busy: usize,
}

/// Counts of provenance decision records by kind.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DecisionSummary {
    /// Total decision records.
    pub records: u64,
    /// Dispatch decisions.
    pub dispatch: u64,
    /// Backfill decisions.
    pub backfill: u64,
    /// Preemption decisions.
    pub preempt: u64,
    /// Admission decisions.
    pub admission: u64,
    /// Economy bid selections.
    pub bid_selection: u64,
    /// Overload-shedding decisions (live service front-end).
    #[serde(default)]
    pub shed: u64,
    /// Mean size of the full candidate set (`considered`, pre-truncation).
    pub mean_considered: f64,
}

/// Workflow-level accounting (all zeros for plain task traces).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkflowSummary {
    /// Dependency releases: tasks whose predecessors all completed.
    pub releases: u64,
    /// Workflows settled (complete or failed).
    pub settled: u64,
    /// Of those, workflows that failed (settled with no attribution).
    pub failed: u64,
    /// Tasks stranded by an upstream failure.
    pub stranded_tasks: u64,
    /// Σ workflow-level earned yield across settlements.
    pub total_earned: f64,
    /// Top critical-path tasks by attributed workflow yield,
    /// descending (ties toward the smaller id), capped at 10.
    pub top_attributed: Vec<(u64, f64)>,
}

/// One workflow's end-to-end ledger in the per-workflow regret table.
///
/// Member tasks are mapped to their workflow through the events that
/// name both ([`TraceKind::WorkflowReleased`] /
/// [`TraceKind::WorkflowStranded`] / settle attribution, plus the
/// failure that opens a stranding cone), so workflow roots that fail
/// before releasing anything still land in the right row.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkflowLedger {
    /// Workflow id.
    pub workflow: u64,
    /// Dependency releases observed for this workflow.
    pub released: u64,
    /// Mapped members that ran to completion.
    pub completed_members: u64,
    /// Mapped members that failed (dropped, cancelled, or rejected at
    /// admission).
    pub failed_members: u64,
    /// Members stranded by an upstream failure (never released).
    pub stranded_members: u64,
    /// Whether a [`TraceKind::WorkflowSettled`] event was seen.
    pub settled: bool,
    /// Whether the workflow failed: settled with no attribution, or the
    /// trace shows strandings/failures without a successful settle.
    pub failed: bool,
    /// Workflow-level earned yield at settlement.
    pub earned: f64,
    /// Yield already realized by completed members of a *failed*
    /// workflow — investment that produced no workflow-level payoff.
    pub sunk_earned: f64,
    /// Eq. 3 present value the failed members carried at their last
    /// start, net of what they realized (never-scheduled members carry
    /// no observable PV in the trace and contribute 0 here).
    pub destroyed_pv: f64,
    /// The regret of running this workflow: `sunk_earned +
    /// destroyed_pv` when it failed, 0 when it settled successfully.
    pub regret: f64,
}

/// One member failure and the descendant cone it stranded.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StrandingChain {
    /// When the cone was stranded.
    pub at: f64,
    /// The owning workflow.
    pub workflow: u64,
    /// The member whose failure stranded the cone, when the trace shows
    /// one (the nearest preceding terminal failure in stream order).
    pub root_failure: Option<u64>,
    /// How the root failed: `dropped`, `cancelled`, `rejected`, or
    /// `unknown` when no failure event precedes the cone.
    pub failure: String,
    /// The stranded descendants, in stranding order.
    pub stranded: Vec<u64>,
    /// Present value the root failure destroyed: its PV at last start
    /// net of realized yield, floored at zero. The stranded descendants
    /// themselves never started, so their loss is visible only as the
    /// workflow settling to zero (see [`WorkflowLedger::regret`]).
    pub pv_destroyed: f64,
}

/// Per-fault-class chaos accounting.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosClassReport {
    /// Faults of this class injected.
    pub injected: u64,
    /// Recoveries attributed to this class.
    pub recovered: u64,
    /// Tasks dropped at the penalty floor while a fault of this class
    /// was open (injected, not yet recovered).
    pub dropped_during: u64,
    /// Yield lost to those drops: Σ −earned (positive = value burned)
    /// while the class was open. Attribution is per open class, so
    /// overlapping fault classes each see the loss they were open for.
    pub yield_lost_during: f64,
}

/// Chaos-injection accounting (all zeros for chaos-free traces).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Total [`TraceKind::ChaosInjected`] events.
    pub injected: u64,
    /// Total [`TraceKind::ChaosRecovered`] events.
    pub recovered: u64,
    /// Per fault-class (action label) breakdown.
    pub by_action: BTreeMap<String, ChaosClassReport>,
}

/// The full analysis of one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Caller-supplied label (usually the input file stem).
    pub label: String,
    /// Events analyzed.
    pub events: usize,
    /// First event timestamp.
    pub t0: f64,
    /// Last event timestamp.
    pub t1: f64,
    /// Yield attribution.
    pub yields: YieldAttribution,
    /// Preemption-chain trees.
    pub preemption: PreemptionReport,
    /// Admission regret.
    pub admission: AdmissionReport,
    /// Per-site utilization timelines.
    pub utilization: Vec<SiteTimeline>,
    /// Provenance decision summary (zeros without provenance records).
    pub decisions: DecisionSummary,
    /// Workflow overlay summary (zeros for plain task traces).
    #[serde(default)]
    pub workflows: WorkflowSummary,
    /// Per-workflow regret table (empty for plain task traces).
    #[serde(default)]
    pub workflow_ledgers: Vec<WorkflowLedger>,
    /// Stranding chains: which failure stranded which descendant cone.
    #[serde(default)]
    pub strandings: Vec<StrandingChain>,
    /// Chaos-injection summary (zeros for chaos-free traces).
    #[serde(default)]
    pub chaos: ChaosSummary,
}

/// What the fold keeps per task, read back in [`TraceFold::finish`].
#[derive(Default)]
struct TaskLedger {
    accepted: bool,
    /// PV of the task's latest `Scheduled` event so far.
    last_pv: f64,
    final_earned: Option<f64>,
    /// Whether the task ended badly (rejected, dropped, cancelled).
    failed: bool,
}

impl TaskLedger {
    /// The PV of its last start that the task did not realize.
    fn destroyed_pv(&self) -> f64 {
        (self.last_pv - self.final_earned.unwrap_or(0.0)).max(0.0)
    }
}

/// Where the preemption scan stands. In the emission order a preemption
/// is a run of `Preempted` events at one instant followed by the winner's
/// `Scheduled`; a provenance trace additionally leads with a
/// `DecisionRecord(Preempt)` naming the winner outright.
#[derive(Clone, Copy, Default)]
enum ChainScan {
    /// Not inside a chain.
    #[default]
    Between,
    /// A preempt record named `winner`: the next event opens its chain if
    /// it is a `Preempted`, and is skipped otherwise.
    Named(u64),
    /// Collecting the victims of the last chain, all evicted at `at`.
    Victims { at: f64, named: Option<u64> },
}

/// One site's busy-processor step function, kept as the instants at which
/// the busy count can change the integral, so that
/// [`TraceFold::finish`] buckets it over `[t0, t1]` once `t1` is known.
#[derive(Default)]
struct BusySteps {
    /// `(instant, busy processors from then on)`; an event that finds the
    /// site idle and leaves it idle adds nothing, and events at one
    /// instant share a step.
    steps: Vec<(f64, usize)>,
    busy: usize,
    peak: usize,
}

/// The one fold from a trace-event stream to a [`TraceReport`].
///
/// Feed it events in stream order through [`TraceSink::record`], then
/// call [`finish`](Self::finish). It holds no event: its state is one
/// ledger row per task, the open preemption chain, per-site busy steps,
/// and the workflow, stranding and chaos rows. Everything that depends on
/// how a task ended (a chain victim's destroyed yield, a stranding root's
/// destroyed PV, a workflow member's outcome) is resolved in `finish`
/// from the final ledger.
#[derive(Default)]
pub struct TraceFold {
    events: usize,
    t0: Option<f64>,
    t1: f64,
    ledger: BTreeMap<u64, TaskLedger>,
    yields: YieldAttribution,
    delay_sum: f64,
    decisions: DecisionSummary,
    considered_sum: u64,
    /// The regret counters; the accepted side is filled in `finish`.
    admission: AdmissionReport,
    workflows: WorkflowSummary,
    attributed: BTreeMap<u64, f64>,
    chaos: ChaosSummary,
    /// Open fault windows: per-point stack of injected action labels
    /// (recovery pops its point's most recent injection) plus a per-class
    /// open count for drop attribution.
    chaos_open_stack: BTreeMap<String, Vec<String>>,
    chaos_open_by_action: BTreeMap<String, u64>,
    /// Chains as the stream shows them: `parent` and the victims' values
    /// are filled in `finish`.
    chains: Vec<PreemptionChain>,
    scan: ChainScan,
    /// Chains whose victims are all in, still looking for their winner
    /// among the events at `searching_at`.
    searching: Vec<usize>,
    searching_at: f64,
    sites: BTreeMap<Option<usize>, BusySteps>,
    /// Task → workflow, from the events that name both (last one wins).
    member_wf: BTreeMap<u64, u64>,
    /// Stranding root → the workflow of its first cone; fills
    /// `member_wf` only where no event named the root's workflow.
    root_wf: BTreeMap<u64, u64>,
    strandings: Vec<StrandingChain>,
    last_failure: Option<(u64, &'static str)>,
    wledgers: BTreeMap<u64, WorkflowLedger>,
}

impl TraceSink for TraceFold {
    fn record(&mut self, ev: &TraceEvent) {
        let now = ev.at.as_f64();
        self.events += 1;
        self.t0.get_or_insert(now);
        self.t1 = now;
        self.note_task(ev);
        self.count(ev);
        self.scan_preemption(ev, now);
        self.step_busy(ev, now);
        self.track_workflows(ev, now);
    }
}

impl TraceFold {
    /// The task's ledger row, and the latest terminal failure.
    fn note_task(&mut self, ev: &TraceEvent) {
        let Some(t) = ev.task.map(|t| t.0) else {
            return;
        };
        let failure = match ev.kind {
            TraceKind::Dropped { .. } => Some("dropped"),
            TraceKind::Cancelled => Some("cancelled"),
            TraceKind::TaskArrived { accepted: false } => Some("rejected"),
            TraceKind::TaskArrived { .. }
            | TraceKind::Scheduled { .. }
            | TraceKind::Completed { .. } => None,
            _ => return,
        };
        let l = self.ledger.entry(t).or_default();
        match ev.kind {
            TraceKind::TaskArrived { accepted } => l.accepted = accepted,
            TraceKind::Scheduled { pv, .. } => l.last_pv = pv,
            TraceKind::Completed { earned, .. } | TraceKind::Dropped { earned } => {
                l.final_earned = Some(earned)
            }
            _ => {}
        }
        if let Some(kind) = failure {
            l.failed = true;
            self.last_failure = Some((t, kind));
        }
    }

    /// The flat counters.
    fn count(&mut self, ev: &TraceEvent) {
        let y = &mut self.yields;
        match &ev.kind {
            &TraceKind::TaskArrived { accepted } => {
                y.arrived += 1;
                y.accepted += accepted as u64;
            }
            &TraceKind::Scheduled { backfill, .. } => {
                y.scheduled += 1;
                y.backfills += backfill as u64;
            }
            TraceKind::Preempted { .. } => y.preemptions += 1,
            TraceKind::Requeued { .. } => y.requeues += 1,
            &TraceKind::Completed { earned, delay, .. } => {
                y.completed += 1;
                y.earned_completed += earned;
                self.delay_sum += delay;
            }
            &TraceKind::Dropped { earned } => {
                y.dropped += 1;
                y.earned_dropped += earned;
                // Attribute the loss to every fault class currently open
                // — a drop during overlapping faults charges each.
                for (action, _) in self.chaos_open_by_action.iter().filter(|(_, n)| **n > 0) {
                    let rep = self.chaos.by_action.entry(action.clone()).or_default();
                    rep.dropped_during += 1;
                    rep.yield_lost_during += (-earned).max(0.0);
                }
            }
            TraceKind::Cancelled => y.cancelled += 1,
            &TraceKind::ContractSettled { amount } => {
                y.settlements += 1;
                y.settled_total += amount;
            }
            TraceKind::ChaosInjected { point, action } => {
                self.chaos.injected += 1;
                let rep = self.chaos.by_action.entry(action.clone()).or_default();
                rep.injected += 1;
                *self.chaos_open_by_action.entry(action.clone()).or_insert(0) += 1;
                let stack = self.chaos_open_stack.entry(point.clone()).or_default();
                stack.push(action.clone());
            }
            TraceKind::ChaosRecovered { point, .. } => {
                self.chaos.recovered += 1;
                if let Some(action) = self.chaos_open_stack.get_mut(point).and_then(|s| s.pop()) {
                    let rep = self.chaos.by_action.entry(action.clone()).or_default();
                    rep.recovered += 1;
                    if let Some(open) = self.chaos_open_by_action.get_mut(&action) {
                        *open = open.saturating_sub(1);
                    }
                }
            }
            TraceKind::DecisionRecord {
                decision,
                considered,
                candidates,
            } => {
                let d = &mut self.decisions;
                d.records += 1;
                self.considered_sum += *considered as u64;
                let a = &mut self.admission;
                match decision {
                    DecisionKind::Dispatch => d.dispatch += 1,
                    DecisionKind::Backfill => d.backfill += 1,
                    DecisionKind::Preempt => d.preempt += 1,
                    DecisionKind::Admission | DecisionKind::BidSelection => {
                        if *decision == DecisionKind::Admission {
                            d.admission += 1;
                        } else {
                            d.bid_selection += 1;
                        }
                        a.has_provenance = true;
                        // "Should have accepted" regret: a rejected task
                        // whose best expected yield was positive.
                        let best = candidates
                            .iter()
                            .map(|c| c.score)
                            .fold(f64::NEG_INFINITY, f64::max);
                        if !candidates.iter().any(|c| c.chosen) && best > 0.0 {
                            a.rejected_positive += 1;
                            a.rejected_positive_expected += best;
                        }
                    }
                    DecisionKind::Shed => {
                        d.shed += 1;
                        a.has_provenance = true;
                        // Regret of shedding: the PV the service walked
                        // away from (expired victims contribute 0).
                        for c in candidates.iter().filter(|c| c.chosen) {
                            a.shed += 1;
                            a.shed_pv_lost += c.pv.max(0.0);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Preemption chains. A chain's winner is the preempt record's task
    /// when one named it, else the first non-backfill start at the
    /// eviction instant after its victims; events keep being scanned for
    /// new chains while earlier ones still look for their winner.
    fn scan_preemption(&mut self, ev: &TraceEvent, at: f64) {
        let evicts = matches!(ev.kind, TraceKind::Preempted { .. });
        let victim = match ev.kind {
            TraceKind::Preempted { width } => ev.task.map(|t| ChainVictim {
                task: t.0,
                width,
                pv_at_start: 0.0,
                final_earned: 0.0,
                destroyed_yield: 0.0,
            }),
            _ => None,
        };
        if let ChainScan::Victims { at: open, named } = self.scan {
            let chain = self.chains.len() - 1;
            if evicts && at == open {
                self.chains[chain].victims.extend(victim);
                self.resolve_winner(ev, at);
                return;
            }
            // The run of victims ended: the chain takes its named winner
            // or looks for one from this event on.
            match named {
                Some(winner) => self.chains[chain].preemptor = Some(winner),
                None => {
                    self.searching.push(chain);
                    self.searching_at = open;
                }
            }
            self.scan = ChainScan::Between;
        }
        self.resolve_winner(ev, at);
        // The scan is now between chains or just past a preempt record,
        // whose next event is skipped unless it opens the named chain.
        self.scan = match (self.scan, &ev.kind, ev.task) {
            (scan, TraceKind::Preempted { .. }, _) => {
                self.chains.push(PreemptionChain {
                    at,
                    preemptor: None,
                    parent: None,
                    victims: victim.into_iter().collect(),
                });
                let named = match scan {
                    ChainScan::Named(winner) => Some(winner),
                    _ => None,
                };
                ChainScan::Victims { at, named }
            }
            (
                ChainScan::Between,
                TraceKind::DecisionRecord {
                    decision: DecisionKind::Preempt,
                    ..
                },
                Some(t),
            ) => ChainScan::Named(t.0),
            _ => ChainScan::Between,
        };
    }

    /// Settles the chains looking for their winner: the first
    /// non-backfill start at their instant, or none once time moves on.
    fn resolve_winner(&mut self, ev: &TraceEvent, at: f64) {
        if self.searching.is_empty() {
            return;
        }
        let winner = match (&ev.kind, ev.task) {
            _ if at != self.searching_at => None,
            (
                TraceKind::Scheduled {
                    backfill: false, ..
                },
                Some(t),
            ) => Some(t.0),
            _ => return,
        };
        for idx in self.searching.drain(..) {
            self.chains[idx].preemptor = winner;
        }
    }

    /// Per-site busy-processor steps (gang widths in and out).
    fn step_busy(&mut self, ev: &TraceEvent, now: f64) {
        let width_delta: i64 = match ev.kind {
            TraceKind::Scheduled { width, .. } => width as i64,
            TraceKind::Preempted { width }
            | TraceKind::Requeued { width }
            | TraceKind::Completed { width, .. } => -(width as i64),
            _ => 0,
        };
        let site = self.sites.entry(ev.site).or_default();
        let before = site.busy;
        site.busy = (before as i64 + width_delta).max(0) as usize;
        site.peak = site.peak.max(site.busy);
        if before == 0 && site.busy == 0 {
            return;
        }
        match site.steps.last_mut() {
            Some(last) if last.0 == now => last.1 = site.busy,
            _ => site.steps.push((now, site.busy)),
        }
    }

    /// Workflow counters, membership, the per-workflow rows and the
    /// stranding chains.
    fn track_workflows(&mut self, ev: &TraceEvent, at: f64) {
        let task = ev.task.map(|t| t.0);
        match &ev.kind {
            &TraceKind::WorkflowReleased { workflow } => {
                self.workflows.releases += 1;
                self.member_wf.extend(task.map(|t| (t, workflow)));
                workflow_row(&mut self.wledgers, workflow).released += 1;
            }
            &TraceKind::WorkflowStranded { workflow } => {
                self.workflows.stranded_tasks += 1;
                self.member_wf.extend(task.map(|t| (t, workflow)));
                workflow_row(&mut self.wledgers, workflow).stranded_members += 1;
                self.strand(workflow, task, at);
            }
            TraceKind::WorkflowSettled {
                workflow,
                earned,
                attribution,
            } => {
                let wf = &mut self.workflows;
                wf.settled += 1;
                wf.total_earned += earned;
                wf.failed += attribution.is_empty() as u64;
                for &(t, share) in attribution {
                    *self.attributed.entry(t).or_insert(0.0) += share;
                    self.member_wf.insert(t, *workflow);
                }
                let wl = workflow_row(&mut self.wledgers, *workflow);
                wl.settled = true;
                wl.earned = *earned;
                wl.failed = attribution.is_empty();
            }
            _ => {}
        }
    }

    /// One stranded member. The engine emits a cone as a contiguous run
    /// of `WorkflowStranded` events right after the triggering member's
    /// terminal failure, so the nearest preceding failure in stream order
    /// is the root.
    fn strand(&mut self, workflow: u64, task: Option<u64>, at: f64) {
        let root = self.last_failure.map(|(t, _)| t);
        if let Some(rt) = root {
            self.root_wf.entry(rt).or_insert(workflow);
        }
        let open = self
            .strandings
            .last_mut()
            .filter(|c| c.workflow == workflow && c.at == at && c.root_failure == root);
        if let (Some(chain), Some(t)) = (open, task) {
            chain.stranded.push(t);
            return;
        }
        self.strandings.push(StrandingChain {
            at,
            workflow,
            root_failure: root,
            failure: self.last_failure.map_or("unknown", |(_, k)| k).to_string(),
            stranded: task.into_iter().collect(),
            pv_destroyed: 0.0,
        });
    }

    /// Closes the fold into the report for `label`.
    pub fn finish(mut self, label: &str, opts: &AnalyzeOptions) -> TraceReport {
        let t0 = self.t0.unwrap_or(0.0);
        let t1 = self.t1;
        let ledger = &self.ledger;
        let mut y = self.yields;
        y.total_earned = y.earned_completed + y.earned_dropped;
        y.mean_delay = if y.completed > 0 {
            self.delay_sum / y.completed as f64
        } else {
            0.0
        };
        let mut decisions = self.decisions;
        decisions.mean_considered = if decisions.records > 0 {
            self.considered_sum as f64 / decisions.records as f64
        } else {
            0.0
        };

        // Preemption chains: a chain nests under the chain its winner was
        // a victim of, and each victim's PV and final yield come from the
        // final ledger.
        if let ChainScan::Victims { named, .. } = self.scan {
            self.chains.last_mut().expect("a chain is open").preemptor = named;
        }
        let mut victim_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut chains = self.chains;
        for (idx, chain) in chains.iter_mut().enumerate() {
            chain.parent = chain.preemptor.and_then(|p| victim_of.get(&p).copied());
            for v in &mut chain.victims {
                victim_of.insert(v.task, idx);
                if let Some(l) = ledger.get(&v.task) {
                    v.pv_at_start = l.last_pv;
                    v.final_earned = l.final_earned.unwrap_or(0.0);
                    v.destroyed_yield = l.destroyed_pv();
                }
            }
        }
        let destroyed_yield = chains
            .iter()
            .flat_map(|c| &c.victims)
            .map(|v| v.destroyed_yield)
            .sum();

        // Admission regret, realized direction: admitted tasks that ended
        // with negative yield.
        let mut admission = self.admission;
        admission.accepted = y.accepted;
        admission.rejected = y.arrived - y.accepted;
        for l in ledger.values().filter(|l| l.accepted) {
            if let Some(earned) = l.final_earned.filter(|e| *e < 0.0) {
                admission.accepted_negative += 1;
                admission.accepted_negative_yield += earned;
            }
        }

        // Per-site busy-processor timelines: the stepwise integral of
        // gang widths, bucketed over [t0, t1].
        let buckets = opts.timeline_buckets.max(1);
        let span = (t1 - t0).max(0.0);
        let utilization: Vec<SiteTimeline> = self
            .sites
            .into_iter()
            .filter(|(_, s)| s.peak > 0)
            .map(|(site, s)| {
                let mut integrals = vec![0.0; buckets];
                let (mut cursor, mut busy, mut total) = (t0, 0usize, 0.0);
                for (now, after) in s.steps {
                    if busy > 0 && now > cursor && span > 0.0 {
                        let b = busy as f64;
                        total += b * (now - cursor);
                        // Spread the interval across the buckets it overlaps.
                        // The last bucket runs to `hi`, which rounding can
                        // put a hair past `buckets`.
                        let scale = buckets as f64 / span;
                        let (mut lo, hi) = ((cursor - t0) * scale, (now - t0) * scale);
                        while lo < hi {
                            let idx = (lo.floor() as usize).min(buckets - 1);
                            let edge = if idx + 1 == buckets {
                                hi
                            } else {
                                (idx as f64 + 1.0).min(hi)
                            };
                            integrals[idx] += b * (edge - lo) / scale;
                            lo = edge;
                        }
                    }
                    cursor = now;
                    busy = after;
                }
                let bucket_span = span / buckets as f64;
                SiteTimeline {
                    site,
                    busy: if bucket_span > 0.0 {
                        integrals.iter().map(|v| v / bucket_span).collect()
                    } else {
                        vec![0.0; buckets]
                    },
                    mean_busy: if span > 0.0 { total / span } else { 0.0 },
                    peak_busy: s.peak,
                }
            })
            .collect();

        let mut wf = self.workflows;
        let mut top: Vec<(u64, f64)> = self.attributed.into_iter().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(10);
        wf.top_attributed = top;

        // Workflow explainers. A stranding root that no event tied to a
        // workflow (a failed root never gets a release event) joins the
        // workflow of its first cone.
        let mut strandings = self.strandings;
        for chain in &mut strandings {
            if let Some(l) = chain.root_failure.and_then(|t| ledger.get(&t)) {
                chain.pv_destroyed = l.destroyed_pv();
            }
        }
        let mut member_wf = self.member_wf;
        for (rt, w) in self.root_wf {
            member_wf.entry(rt).or_insert(w);
        }
        // The regret table: the workflow rows, then the mapped members'
        // per-task outcomes folded in.
        let mut wledgers = self.wledgers;
        let mut completed_earned: BTreeMap<u64, f64> = BTreeMap::new();
        for (&t, &w) in &member_wf {
            let Some(l) = ledger.get(&t) else { continue };
            let wl = workflow_row(&mut wledgers, w);
            if l.failed {
                wl.failed_members += 1;
                // Never-scheduled failures carry no observed PV (last_pv 0);
                // scheduled ones destroyed what they last promised.
                wl.destroyed_pv += l.destroyed_pv();
            } else if let Some(earned) = l.final_earned {
                wl.completed_members += 1;
                *completed_earned.entry(w).or_insert(0.0) += earned.max(0.0);
            }
        }
        for wl in wledgers.values_mut() {
            // A trace that ends mid-failure (strandings but no settle) still
            // reads as a failed workflow.
            if !wl.settled && (wl.stranded_members > 0 || wl.failed_members > 0) {
                wl.failed = true;
            }
            if wl.failed {
                wl.sunk_earned = completed_earned.get(&wl.workflow).copied().unwrap_or(0.0);
                wl.regret = wl.sunk_earned + wl.destroyed_pv;
            }
        }

        TraceReport {
            label: label.to_string(),
            events: self.events,
            t0,
            t1,
            preemption: PreemptionReport {
                total_preemptions: chains.iter().map(|c| c.victims.len() as u64).sum(),
                destroyed_yield,
                chains,
            },
            admission,
            yields: y,
            utilization,
            decisions,
            workflows: wf,
            workflow_ledgers: wledgers.into_values().collect(),
            strandings,
            chaos: self.chaos,
        }
    }
}

fn workflow_row(rows: &mut BTreeMap<u64, WorkflowLedger>, w: u64) -> &mut WorkflowLedger {
    rows.entry(w).or_insert_with(|| WorkflowLedger {
        workflow: w,
        ..WorkflowLedger::default()
    })
}

/// Analyzes one event stream held in memory into a [`TraceReport`].
pub fn analyze(label: &str, events: &[TraceEvent], opts: &AnalyzeOptions) -> TraceReport {
    let mut fold = TraceFold::default();
    events.iter().for_each(|ev| fold.record(ev));
    fold.finish(label, opts)
}

/// Renders one report as the `--format text` block.
pub fn render_text(r: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} ==\n{} events over [{:.3}, {:.3}]\n",
        r.label, r.events, r.t0, r.t1
    ));

    let y = &r.yields;
    out.push_str("yield attribution\n");
    out.push_str(&format!(
        "  arrived {}  accepted {}  scheduled {} (backfills {})\n",
        y.arrived, y.accepted, y.scheduled, y.backfills
    ));
    out.push_str(&format!(
        "  completed {} earning {:.3}  dropped {} earning {:.3}  total {:.3}\n",
        y.completed, y.earned_completed, y.dropped, y.earned_dropped, y.total_earned
    ));
    out.push_str(&format!(
        "  cancelled {}  preemptions {}  requeues {}  mean delay {:.3}\n",
        y.cancelled, y.preemptions, y.requeues, y.mean_delay
    ));
    if y.settlements > 0 {
        out.push_str(&format!(
            "  contracts settled {}  net {:.3}\n",
            y.settlements, y.settled_total
        ));
    }

    out.push_str(&format!(
        "preemption chains ({} preemptions destroying {:.3} yield)\n",
        r.preemption.total_preemptions, r.preemption.destroyed_yield
    ));
    // Tree rendering: roots first, children indented under their parent.
    let chains = &r.preemption.chains;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); chains.len()];
    for (i, c) in chains.iter().enumerate() {
        if let Some(p) = c.parent {
            if p < chains.len() && p != i {
                children[p].push(i);
            }
        }
    }
    fn render_chain(
        out: &mut String,
        chains: &[PreemptionChain],
        children: &[Vec<usize>],
        idx: usize,
        depth: usize,
    ) {
        let c = &chains[idx];
        let indent = "  ".repeat(depth + 1);
        let preemptor = c.preemptor.map_or("?".to_string(), |p| format!("task {p}"));
        let destroyed: f64 = c.victims.iter().map(|v| v.destroyed_yield).sum();
        out.push_str(&format!(
            "{indent}t={:.3} {preemptor} evicted [{}] destroying {:.3}\n",
            c.at,
            c.victims
                .iter()
                .map(|v| v.task.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            destroyed
        ));
        for &ch in &children[idx] {
            render_chain(out, chains, children, ch, depth + 1);
        }
    }
    for (i, c) in chains.iter().enumerate() {
        if c.parent.is_none() {
            render_chain(&mut out, chains, &children, i, 0);
        }
    }

    let a = &r.admission;
    out.push_str("admission regret\n");
    out.push_str(&format!(
        "  accepted {}  rejected {}\n  accepted-but-negative {} (yield {:.3})\n",
        a.accepted, a.rejected, a.accepted_negative, a.accepted_negative_yield
    ));
    if a.has_provenance {
        out.push_str(&format!(
            "  rejected-but-positive {} (expected yield forgone {:.3})\n",
            a.rejected_positive, a.rejected_positive_expected
        ));
    } else {
        out.push_str(
            "  rejected-but-positive: n/a (no provenance records; rerun with --provenance)\n",
        );
    }
    if a.shed > 0 {
        out.push_str(&format!(
            "  shed under overload {} (regret of shedding: {:.3} present value lost)\n",
            a.shed, a.shed_pv_lost
        ));
    }

    if !r.utilization.is_empty() {
        out.push_str("utilization (mean busy processors per bucket)\n");
        for tl in &r.utilization {
            let site = tl
                .site
                .map_or("site -".to_string(), |s| format!("site {s}"));
            let sparkline: Vec<String> = tl.busy.iter().map(|b| format!("{b:.1}")).collect();
            out.push_str(&format!(
                "  {site}: mean {:.2} peak {}  [{}]\n",
                tl.mean_busy,
                tl.peak_busy,
                sparkline.join(" ")
            ));
        }
    }

    let w = &r.workflows;
    if w.settled > 0 || w.releases > 0 {
        out.push_str("workflow overlay\n");
        out.push_str(&format!(
            "  releases {}  settled {} (failed {})  stranded tasks {}  workflow yield {:.3}\n",
            w.releases, w.settled, w.failed, w.stranded_tasks, w.total_earned
        ));
        if !w.top_attributed.is_empty() {
            let tops: Vec<String> = w
                .top_attributed
                .iter()
                .map(|(t, v)| format!("task {t}: {v:.3}"))
                .collect();
            out.push_str(&format!(
                "  critical-path attribution (top): {}\n",
                tops.join(", ")
            ));
        }
    }

    if !r.workflow_ledgers.is_empty() {
        out.push_str("per-workflow regret (worst first)\n");
        let mut rows: Vec<&WorkflowLedger> = r.workflow_ledgers.iter().collect();
        rows.sort_by(|a, b| {
            b.regret
                .total_cmp(&a.regret)
                .then(a.workflow.cmp(&b.workflow))
        });
        let shown = rows.len().min(10);
        for wl in &rows[..shown] {
            let verdict = if wl.failed {
                "FAILED".to_string()
            } else if wl.settled {
                format!("earned {:.3}", wl.earned)
            } else {
                "unsettled".to_string()
            };
            out.push_str(&format!(
                "  wf {}: {verdict}  released {}  completed {}  failed {}  stranded {}  \
                 sunk {:.3}  destroyed pv {:.3}  regret {:.3}\n",
                wl.workflow,
                wl.released,
                wl.completed_members,
                wl.failed_members,
                wl.stranded_members,
                wl.sunk_earned,
                wl.destroyed_pv,
                wl.regret
            ));
        }
        if rows.len() > shown {
            out.push_str(&format!(
                "  ... {} more workflow(s) (see --format json)\n",
                rows.len() - shown
            ));
        }
    }

    if !r.strandings.is_empty() {
        out.push_str("stranding chains (failure -> descendant cone)\n");
        for chain in r.strandings.iter().take(10) {
            let root = chain
                .root_failure
                .map_or("?".to_string(), |t| format!("task {t}"));
            let mut cone: Vec<String> = chain.stranded.iter().take(8).map(u64::to_string).collect();
            if chain.stranded.len() > 8 {
                cone.push(format!("+{} more", chain.stranded.len() - 8));
            }
            out.push_str(&format!(
                "  t={:.3} wf {}: {root} ({}) stranded [{}] destroying {:.3} pv\n",
                chain.at,
                chain.workflow,
                chain.failure,
                cone.join(", "),
                chain.pv_destroyed
            ));
        }
        if r.strandings.len() > 10 {
            out.push_str(&format!(
                "  ... {} more chain(s) (see --format json)\n",
                r.strandings.len() - 10
            ));
        }
    }

    let c = &r.chaos;
    if c.injected > 0 || c.recovered > 0 {
        out.push_str(&format!(
            "chaos faults: {} injected, {} recovered\n",
            c.injected, c.recovered
        ));
        for (action, rep) in &c.by_action {
            out.push_str(&format!(
                "  {action}: injected {} recovered {}  dropped-during {} (yield lost {:.3})\n",
                rep.injected, rep.recovered, rep.dropped_during, rep.yield_lost_during
            ));
        }
    }

    let d = &r.decisions;
    if d.records > 0 {
        out.push_str(&format!(
            "decision provenance: {} records (dispatch {}, backfill {}, preempt {}, admission {}, bid {}, shed {})  mean candidate set {:.1}\n",
            d.records, d.dispatch, d.backfill, d.preempt, d.admission, d.bid_selection, d.shed,
            d.mean_considered
        ));
    }
    out
}

/// Renders reports as Prometheus text exposition (`--format prom`): per
/// trace, its task lifecycle counters, provenance decision records, total
/// realized yield, and each site's time-weighted mean busy processors.
pub fn render_prometheus<'a>(reports: impl IntoIterator<Item = &'a TraceReport>) -> String {
    let (mut tasks, mut decisions, mut yields, mut busy) = (vec![], vec![], vec![], vec![]);
    for r in reports {
        let trace = format!("trace=\"{}\"", exposition::label_value(&r.label));
        let y = &r.yields;
        for (outcome, v) in [
            ("arrived", y.arrived),
            ("accepted", y.accepted),
            ("scheduled", y.scheduled),
            ("backfilled", y.backfills),
            ("preempted", y.preemptions),
            ("requeued", y.requeues),
            ("completed", y.completed),
            ("dropped", y.dropped),
            ("cancelled", y.cancelled),
        ] {
            tasks.push((format!("{trace},outcome=\"{outcome}\""), v as f64));
        }
        decisions.push((trace.clone(), r.decisions.records as f64));
        yields.push((trace.clone(), y.total_earned));
        for tl in &r.utilization {
            let site = tl.site.map_or("-".to_string(), |s| s.to_string());
            busy.push((format!("{trace},site=\"{site}\""), tl.mean_busy));
        }
    }
    let mut out = String::new();
    for (name, help, rows) in [
        ("mbts_tasks_total", "Task outcomes per trace", &tasks),
        (
            "mbts_decision_records_total",
            "Decision records",
            &decisions,
        ),
    ] {
        exposition::counter(&mut out, name, help, rows);
    }
    for (name, help, rows) in [
        ("mbts_yield_total", "Realized yield per trace", &yields),
        ("mbts_busy_processors_mean", "Mean busy processors", &busy),
    ] {
        exposition::gauge(&mut out, name, help, rows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_sim::Time;
    use mbts_workload::TaskId;

    fn ev(at: f64, task: Option<u64>, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::new(at),
            task: task.map(TaskId),
            site: None,
            kind,
        }
    }

    fn sched(at: f64, task: u64, pv: f64, width: usize) -> TraceEvent {
        ev(
            at,
            Some(task),
            TraceKind::Scheduled {
                rank: 1,
                pv,
                cost: 0.0,
                slack: 1.0,
                width,
                backfill: false,
            },
        )
    }

    #[test]
    fn yield_attribution_and_utilization_integrate() {
        let events = vec![
            ev(0.0, Some(1), TraceKind::TaskArrived { accepted: true }),
            sched(0.0, 1, 10.0, 2),
            ev(
                4.0,
                Some(1),
                TraceKind::Completed {
                    earned: 8.0,
                    delay: 1.0,
                    width: 2,
                    preemptions: 0,
                },
            ),
        ];
        let r = analyze("t", &events, &AnalyzeOptions::default());
        assert_eq!(r.yields.completed, 1);
        assert_eq!(r.yields.total_earned, 8.0);
        assert_eq!(r.yields.mean_delay, 1.0);
        assert_eq!(r.utilization.len(), 1);
        let tl = &r.utilization[0];
        assert_eq!(tl.peak_busy, 2);
        // Two processors busy over the whole span.
        assert!((tl.mean_busy - 2.0).abs() < 1e-9);
        assert!(tl.busy.iter().all(|b| (b - 2.0).abs() < 1e-9));
    }

    #[test]
    fn preemption_chains_nest_and_total_destroyed_yield() {
        // Task 1 starts, task 2 preempts it, then task 3 preempts task 2:
        // chain 1 (victim 2) should nest under chain 0 (victim 1) because
        // chain 1's preemptor (2) was chain 0's... no — chain 1's
        // preemptor is 3; nesting happens when a *victim turned
        // preemptor* reappears. Here task 2 is chain 0's preemptor and
        // chain 1's victim, so chain 1 is a root too; instead make task 1
        // come back and preempt task 3 → that chain nests under chain 0.
        let events = vec![
            sched(0.0, 1, 10.0, 1),
            ev(1.0, Some(1), TraceKind::Preempted { width: 1 }),
            sched(1.0, 2, 20.0, 1),
            ev(2.0, Some(2), TraceKind::Preempted { width: 1 }),
            sched(2.0, 1, 9.0, 1),
            ev(
                5.0,
                Some(1),
                TraceKind::Completed {
                    earned: 6.0,
                    delay: 2.0,
                    width: 1,
                    preemptions: 1,
                },
            ),
        ];
        let r = analyze("t", &events, &AnalyzeOptions::default());
        assert_eq!(r.preemption.chains.len(), 2);
        assert_eq!(r.preemption.total_preemptions, 2);
        let c0 = &r.preemption.chains[0];
        assert_eq!(c0.preemptor, Some(2));
        assert_eq!(c0.parent, None);
        assert_eq!(c0.victims[0].task, 1);
        // Victim 1 was promised pv 10 at its first start... its ledger
        // records the *last* start pv (9) and final earned 6 → 3 destroyed.
        assert!((c0.victims[0].destroyed_yield - 3.0).abs() < 1e-9);
        let c1 = &r.preemption.chains[1];
        assert_eq!(c1.preemptor, Some(1));
        // Task 1 was a victim of chain 0 → chain 1 nests under it.
        assert_eq!(c1.parent, Some(0));
        // Victim 2 never finished: its whole pv 20 counts as destroyed.
        assert!((c1.victims[0].destroyed_yield - 20.0).abs() < 1e-9);
        assert!((r.preemption.destroyed_yield - 23.0).abs() < 1e-9);
        let text = render_text(&r);
        assert!(text.contains("preemption chains"));
        assert!(text.contains("task 2 evicted [1]"));
    }

    #[test]
    fn a_victims_pv_at_start_is_its_final_start_in_the_trace() {
        // Task 1 starts promising 10, is evicted by task 2, restarts
        // promising 4 and completes earning 3. The chain reports the PV
        // of the final start (4), not of the start the eviction cut
        // short (10): 1 destroyed, not 7.
        let events = vec![
            sched(0.0, 1, 10.0, 1),
            ev(1.0, Some(1), TraceKind::Preempted { width: 1 }),
            sched(1.0, 2, 20.0, 1),
            ev(
                2.0,
                Some(2),
                TraceKind::Completed {
                    earned: 20.0,
                    delay: 0.0,
                    width: 1,
                    preemptions: 0,
                },
            ),
            sched(2.0, 1, 4.0, 1),
            ev(
                3.0,
                Some(1),
                TraceKind::Completed {
                    earned: 3.0,
                    delay: 2.0,
                    width: 1,
                    preemptions: 1,
                },
            ),
        ];
        let r = analyze("t", &events, &AnalyzeOptions::default());
        let victim = &r.preemption.chains[0].victims[0];
        assert_eq!((victim.task, victim.pv_at_start), (1, 4.0));
        assert_eq!(victim.final_earned, 3.0);
        assert_eq!(victim.destroyed_yield, 1.0);
    }

    #[test]
    fn chains_find_their_winner_as_the_stream_goes_by() {
        use crate::event::DecisionCandidate;
        let backfill = |at: f64, task: u64| {
            let mut e = sched(at, task, 1.0, 1);
            if let TraceKind::Scheduled { backfill, .. } = &mut e.kind {
                *backfill = true;
            }
            e
        };
        let record = |at: f64, winner: u64| {
            ev(
                at,
                Some(winner),
                TraceKind::DecisionRecord {
                    decision: DecisionKind::Preempt,
                    considered: 1,
                    candidates: vec![DecisionCandidate {
                        rank: 1,
                        task: Some(TaskId(9)),
                        site: None,
                        score: 1.0,
                        pv: 1.0,
                        cost: 0.0,
                        slack: 0.0,
                        workflow: None,
                        critical: None,
                        chosen: true,
                    }],
                },
            )
        };
        let events = vec![
            // Two runs of victims at t=1 split by a backfill start: both
            // chains go to the first non-backfill start after them (5).
            ev(1.0, Some(1), TraceKind::Preempted { width: 1 }),
            backfill(1.0, 4),
            ev(1.0, Some(2), TraceKind::Preempted { width: 1 }),
            sched(1.0, 5, 1.0, 1),
            // A chain whose instant ends before any start has no winner.
            ev(2.0, Some(5), TraceKind::Preempted { width: 1 }),
            // A preempt record names its winner (7) outright, even when
            // another task starts first at that instant.
            record(3.0, 7),
            ev(3.0, Some(9), TraceKind::Preempted { width: 1 }),
            sched(3.0, 8, 1.0, 1),
            record(4.0, 6),
            ev(4.0, Some(8), TraceKind::Preempted { width: 1 }),
            // The event after a record that opens no chain is skipped, a
            // second record included, so these victims have no winner.
            record(5.0, 3),
            record(5.0, 4),
            ev(5.0, Some(2), TraceKind::Preempted { width: 1 }),
        ];
        let r = analyze("t", &events, &AnalyzeOptions::default());
        let winners: Vec<(f64, Option<u64>, Vec<u64>)> = r
            .preemption
            .chains
            .iter()
            .map(|c| {
                (
                    c.at,
                    c.preemptor,
                    c.victims.iter().map(|v| v.task).collect(),
                )
            })
            .collect();
        assert_eq!(
            winners,
            vec![
                (1.0, Some(5), vec![1]),
                (1.0, Some(5), vec![2]),
                (2.0, None, vec![5]),
                (3.0, Some(7), vec![9]),
                (4.0, Some(6), vec![8]),
                (5.0, None, vec![2]),
            ]
        );
        // Task 5 won the first two chains and is the third's victim.
        assert_eq!(r.preemption.chains[2].parent, None);
        assert_eq!(r.preemption.total_preemptions, 6);
    }

    #[test]
    fn a_span_that_rounds_past_the_last_bucket_still_terminates() {
        // 1171.6916099137463 × (20 / 1171.6916099137463) rounds to
        // 20.000000000000004: the last bucket absorbs the excess.
        let t1 = 1171.6916099137463;
        let events = vec![
            sched(0.0, 1, 10.0, 2),
            ev(
                t1,
                Some(1),
                TraceKind::Completed {
                    earned: 8.0,
                    delay: 0.0,
                    width: 2,
                    preemptions: 0,
                },
            ),
        ];
        let r = analyze("t", &events, &AnalyzeOptions::default());
        let tl = &r.utilization[0];
        assert!(tl.busy.iter().all(|b| (b - 2.0).abs() < 1e-9), "{tl:?}");
    }

    #[test]
    fn admission_regret_reads_both_directions() {
        use crate::event::DecisionCandidate;
        let events = vec![
            ev(0.0, Some(1), TraceKind::TaskArrived { accepted: true }),
            ev(
                1.0,
                Some(2),
                TraceKind::DecisionRecord {
                    decision: DecisionKind::Admission,
                    considered: 1,
                    candidates: vec![DecisionCandidate {
                        rank: 1,
                        task: Some(TaskId(2)),
                        site: None,
                        score: 5.5,
                        pv: 7.0,
                        cost: 1.5,
                        slack: -0.5,
                        workflow: None,
                        critical: None,
                        chosen: false,
                    }],
                },
            ),
            ev(1.0, Some(2), TraceKind::TaskArrived { accepted: false }),
            ev(9.0, Some(1), TraceKind::Dropped { earned: -2.5 }),
        ];
        let r = analyze("t", &events, &AnalyzeOptions::default());
        assert!(r.admission.has_provenance);
        assert_eq!(r.admission.accepted_negative, 1);
        assert!((r.admission.accepted_negative_yield + 2.5).abs() < 1e-9);
        assert_eq!(r.admission.rejected_positive, 1);
        assert!((r.admission.rejected_positive_expected - 5.5).abs() < 1e-9);
        assert_eq!(r.decisions.admission, 1);
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn workflow_explainers_attribute_regret_and_stranding_cones() {
        // Workflow 1 settles cleanly; workflow 2's released member (20)
        // drops mid-run and strands its descendant cone {21, 22}, after
        // member 19 already completed (sunk yield).
        let events = vec![
            // wf 1: one member, completes, settles with attribution.
            ev(0.0, Some(10), TraceKind::TaskArrived { accepted: true }),
            sched(0.0, 10, 5.0, 1),
            ev(
                2.0,
                Some(10),
                TraceKind::Completed {
                    earned: 4.0,
                    delay: 0.0,
                    width: 1,
                    preemptions: 0,
                },
            ),
            ev(
                2.0,
                None,
                TraceKind::WorkflowSettled {
                    workflow: 1,
                    earned: 4.0,
                    attribution: vec![(10, 4.0)],
                },
            ),
            // wf 2: member 19 completes and releases 20; 20 drops and
            // strands 21 and 22; the workflow settles to zero.
            ev(0.0, Some(19), TraceKind::TaskArrived { accepted: true }),
            sched(0.0, 19, 6.0, 1),
            ev(
                1.0,
                Some(19),
                TraceKind::Completed {
                    earned: 3.0,
                    delay: 0.0,
                    width: 1,
                    preemptions: 0,
                },
            ),
            ev(1.0, Some(20), TraceKind::WorkflowReleased { workflow: 2 }),
            sched(1.0, 20, 8.0, 1),
            ev(3.0, Some(20), TraceKind::Dropped { earned: -1.0 }),
            ev(3.0, Some(21), TraceKind::WorkflowStranded { workflow: 2 }),
            ev(3.0, Some(22), TraceKind::WorkflowStranded { workflow: 2 }),
            ev(
                3.0,
                None,
                TraceKind::WorkflowSettled {
                    workflow: 2,
                    earned: 0.0,
                    attribution: vec![],
                },
            ),
        ];
        let r = analyze("wf", &events, &AnalyzeOptions::default());
        // One cone: task 20's drop stranded [21, 22], destroying the pv
        // it carried at start net of its realized (negative) yield.
        assert_eq!(r.strandings.len(), 1);
        let chain = &r.strandings[0];
        assert_eq!(chain.workflow, 2);
        assert_eq!(chain.root_failure, Some(20));
        assert_eq!(chain.failure, "dropped");
        assert_eq!(chain.stranded, vec![21, 22]);
        assert!(
            (chain.pv_destroyed - 9.0).abs() < 1e-9,
            "{}",
            chain.pv_destroyed
        );
        // Regret table: wf 1 clean, wf 2 failed with sunk + destroyed.
        assert_eq!(r.workflow_ledgers.len(), 2);
        let w1 = &r.workflow_ledgers[0];
        assert_eq!((w1.workflow, w1.failed, w1.regret), (1, false, 0.0));
        assert!((w1.earned - 4.0).abs() < 1e-9);
        let w2 = &r.workflow_ledgers[1];
        assert_eq!(w2.workflow, 2);
        assert!(w2.failed && w2.settled);
        assert_eq!(w2.released, 1);
        assert_eq!(w2.stranded_members, 2);
        assert_eq!(w2.failed_members, 1);
        // Member 19 is mapped only through... it released 20 but no
        // event names both 19 and wf 2 — except the release cone: 19
        // completed before 20 was released, so it joins via nothing.
        // The sunk yield therefore counts mapped members only.
        assert!((w2.destroyed_pv - 9.0).abs() < 1e-9);
        assert!((w2.regret - w2.sunk_earned - 9.0).abs() < 1e-9);
        // Round-trips through JSON and renders both blocks.
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let text = render_text(&r);
        assert!(text.contains("per-workflow regret"));
        assert!(text.contains("stranding chains"));
        assert!(text.contains("task 20 (dropped) stranded [21, 22]"));
    }

    #[test]
    fn empty_trace_produces_an_empty_but_valid_report() {
        let r = analyze("empty", &[], &AnalyzeOptions::default());
        assert_eq!(r.events, 0);
        assert_eq!(r.yields.total_earned, 0.0);
        assert!(r.utilization.is_empty());
        let text = render_text(&r);
        assert!(text.contains("== empty =="));
        assert!(!text.contains("NaN"));
    }
}
