//! A multi-site task-service economy (Figure 1).
//!
//! One discrete-event loop drives any number of sites. Each task arrival
//! triggers the §6 negotiation:
//!
//! 1. the client's task bid — the task as the trace holds it — is
//!    broadcast to every site;
//! 2. each site evaluates the bid against its candidate schedule and
//!    either rejects it or answers with a [`ServerBid`];
//! 3. the client's [`ClientSelection`] rule picks a winner (or the task
//!    goes unplaced if every site rejected);
//! 4. a [`Contract`](crate::Contract) is formed at the winner's quoted
//!    completion, priced by the task's value function there;
//! 5. at actual completion the contract settles: on-time completions
//!    collect the negotiated price; late ones collect the decayed value
//!    or pay a penalty, filtered through the [`PricingStrategy`].

use crate::bid::{ClientSelection, ServerBid};
use crate::contract::{ContractLedger, ContractRow};
use crate::pricing::PricingStrategy;
use mbts_core::{AdmissionDecision, Job, WorkflowProgress, WorkflowReport, WorkflowRuntime};
use mbts_sim::{rng::splitmix64, Engine, EventQueue, Model, Time};
use mbts_site::{
    AuditViolation, CompletionToken, SiteConfig, SiteOutcome, SiteSnapshot, SiteSnapshotRef,
    SiteState,
};
use mbts_trace::{
    DecisionCandidate, DecisionKind, TraceEvent, TraceKind, Tracer, TracerSnapshot,
    TracerSnapshotRef, MAX_DECISION_CANDIDATES,
};
use mbts_workload::{TaskId, TaskList, TaskSpec, Trace, WorkflowFacets, WorkflowSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Index of a site within an economy.
pub type SiteId = usize;

/// Configuration of a multi-site economy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EconomyConfig {
    /// One config per site (sites may differ in capacity and policy).
    pub sites: Vec<SiteConfig>,
    /// How clients choose among server bids.
    pub selection: ClientSelection,
    /// How settlements are priced.
    pub pricing: PricingStrategy,
    /// DAG workflow structure over the submission stream; `None` (the
    /// default, and absent from serialized configs) = independent tasks.
    /// With workflows installed only root tasks arrive on their own:
    /// successors enter negotiation via [`EcoEvent::Release`] when their
    /// last predecessor completes. Incompatible with `drop_expired`
    /// sites (a silent site-local drop would never reach the market's
    /// workflow accounting).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workflows: Option<WorkflowSet>,
    /// Seed for the economy's own randomness (random client selection).
    pub seed: u64,
}

impl EconomyConfig {
    /// `n` identical sites with default selection and pricing.
    pub fn uniform(n: usize, site: SiteConfig) -> Self {
        EconomyConfig {
            sites: vec![site; n],
            selection: ClientSelection::default(),
            pricing: PricingStrategy::default(),
            workflows: None,
            seed: 0,
        }
    }

    /// Installs a DAG workflow overlay: only root tasks arrive on their
    /// own; successors are released as predecessors complete. The trace
    /// run through the economy must be `set.trace()`.
    pub fn with_workflows(mut self, set: WorkflowSet) -> Self {
        self.workflows = Some(set);
        self
    }
}

/// Result of running a trace through an economy.
#[derive(Debug, Clone, PartialEq)]
pub struct EconomyOutcome {
    /// Per-site outcomes: each site's metrics and audit violations. Their
    /// `outcomes` are empty: a site inside an economy keeps no per-job
    /// records, because the contracts are the placed tasks' records.
    pub per_site: Vec<SiteOutcome>,
    /// All contracts formed, in formation order: one compact row per
    /// contract over the run's tasks, read as [`Contract`](crate::Contract)
    /// values (`get`, `iter`, `for c in &outcome.contracts`).
    pub contracts: ContractLedger,
    /// Tasks offered to the market.
    pub offered: usize,
    /// Tasks placed at some site.
    pub placed: usize,
    /// Tasks every site rejected.
    pub unplaced: usize,
    /// Σ value-function settlements over settled contracts.
    pub total_settled: f64,
    /// Σ amounts actually charged after pricing.
    pub total_paid: f64,
    /// Per-site revenue after pricing (Σ payments).
    pub site_revenue: Vec<f64>,
    /// Market-level audit failures (money accounting, and a completion
    /// with no open contract to settle; release builds record, debug
    /// builds panic). Per-site task/processor/yield violations live in
    /// each [`SiteOutcome::violations`].
    pub audit_violations: Vec<AuditViolation>,
    /// Workflow members never offered to the market because an upstream
    /// member failed (workflow mode only).
    pub stranded: usize,
    /// End-to-end workflow settlement report (workflow mode only).
    pub workflows: Option<WorkflowReport>,
}

impl EconomyOutcome {
    /// Σ site yields (value-function accounting).
    pub fn total_yield(&self) -> f64 {
        self.per_site.iter().map(|s| s.metrics.total_yield).sum()
    }

    /// Number of settled contracts that violated their negotiated time.
    pub fn violations(&self) -> usize {
        self.contracts.iter().filter(|c| c.was_violated()).count()
    }

    /// Fraction of offered tasks that found a home.
    pub fn placement_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.placed as f64 / self.offered as f64
        }
    }
}

/// A stepwise economy simulation: the market's replay of a trace,
/// exposed one event at a time so callers (journals, debuggers,
/// kill-point harnesses) can observe, checkpoint and resume it at any
/// event boundary. [`finish`](Self::finish) runs what is left and
/// returns the outcome.
pub struct EconomyRun {
    engine: Engine<EcoModel>,
}

impl EconomyRun {
    /// Sets up the economy over `trace` with all arrivals scheduled.
    /// `tracer` is installed on the market layer: every contract
    /// settlement emits a [`TraceKind::ContractSettled`] event stamped
    /// with the site it ran on. Tracing is observational only.
    pub fn new(config: EconomyConfig, trace: &Trace, tracer: Tracer) -> Self {
        assert!(!config.sites.is_empty(), "economy needs at least one site");
        assert!(
            trace
                .tasks
                .iter()
                .enumerate()
                .all(|(i, t)| t.id.index() == i),
            "task ids must equal trace positions (`validate_trace` reports which do not): \
             the per-task ledgers are indexed by id"
        );
        let workflows = config.workflows.as_ref().map(|set| {
            assert!(
                config.sites.iter().all(|s| !s.drop_expired),
                "workflow mode is incompatible with drop_expired sites: a \
                 site-local drop never reaches the market, so successor \
                 release and workflow settlement would deadlock"
            );
            assert_eq!(
                set.tasks.len(),
                trace.tasks.len(),
                "workflow set does not match the trace; run `set.trace()`"
            );
            WorkflowRuntime::new(set.clone())
        });
        let wf_facets = config.workflows.as_ref().map(|set| set.facets());
        // Sequence numbers, and therefore tie-breaks, are part of the
        // replay contract. In workflow mode only roots arrive on their
        // own; successors enter via EcoEvent::Release when their last
        // predecessor completes.
        let roots = workflows.as_ref().map(|rt| rt.roots());
        let model = EcoModel {
            sites: config
                .sites
                .iter()
                .map(|c| SiteState::new(c.clone()))
                .collect(),
            trace: trace.tasks.clone(),
            selection: config.selection,
            pricing: config.pricing,
            contracts: ContractLedger::new(Arc::clone(&trace.tasks.bids)),
            open: BTreeMap::new(),
            decisions: Vec::new(),
            bids: Vec::new(),
            offered: 0,
            placed: 0,
            unplaced: 0,
            total_settled: 0.0,
            total_paid: 0.0,
            coin_state: config.seed ^ 0x8E51_2CAF_3B5E_71A9,
            site_accounts: vec![0.0; config.sites.len()],
            audit_violations: Vec::new(),
            workflows,
            wf_facets,
            stranded: 0,
            tracer,
        };
        let mut engine = Engine::new(model);
        let shared = Arc::clone(&trace.tasks.bids);
        let arrival = move |i: usize| shared[i].arrival;
        match roots {
            Some(roots) => engine.feed(roots, arrival, EcoEvent::Arrival),
            None => engine.feed(0..trace.tasks.len(), arrival, EcoEvent::Arrival),
        }
        EconomyRun { engine }
    }

    /// Applies the next event; `false` once the queue has run dry.
    pub fn step(&mut self) -> bool {
        self.engine.step()
    }

    /// Events applied so far.
    pub fn events_handled(&self) -> u64 {
        self.engine.events_handled()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// The next event due, if any (FIFO among ties, as the engine pops).
    pub fn next_event(&self) -> Option<(Time, &EcoEvent)> {
        self.engine.queue().peek()
    }

    /// Captures the complete replay state at the current event boundary,
    /// borrowed from the run: the text of an [`EconomySnapshot`].
    pub fn snapshot(&self) -> EconomySnapshotRef<'_> {
        let m = self.engine.model();
        EconomySnapshotRef {
            sites: m.sites.iter().map(|s| s.snapshot()).collect(),
            trace: &m.trace,
            selection: m.selection,
            pricing: m.pricing,
            contracts: &m.contracts,
            open: m.open_quotes(),
            offered: m.offered,
            placed: m.placed,
            unplaced: m.unplaced,
            total_settled: m.total_settled,
            total_paid: m.total_paid,
            coin_state: m.coin_state,
            site_accounts: &m.site_accounts,
            audit_violations: &m.audit_violations,
            workflows: m.workflows.as_ref(),
            stranded: m.stranded,
            tracer: m.tracer.snapshot(),
            queue: self.engine.queue().snapshot_entries(),
            next_seq: self.engine.queue().next_seq(),
            now: self.engine.now(),
            handled: self.engine.events_handled(),
        }
    }

    /// Reconstructs a run from the text of a [`snapshot`](Self::snapshot),
    /// read back as an [`EconomySnapshot`]; the resumed
    /// run replays bit-identically to the one that was captured. A
    /// snapshot whose parts do not fit together — an id outside its
    /// trace, an index past its sites, runner-up quotes other than one
    /// for each unsettled contract, a task open twice, a site holding
    /// per-job records, which a site inside an economy never keeps — is
    /// refused with the first such fault.
    pub fn from_snapshot(snap: EconomySnapshot) -> Result<Self, String> {
        check_snapshot(&snap)?;
        let open = open_table(&snap.contracts, &snap.open)?;
        let contracts = ContractLedger::restore(Arc::clone(&snap.trace.bids), &snap.contracts);
        let model = EcoModel {
            sites: snap
                .sites
                .into_iter()
                .map(SiteState::from_snapshot)
                .collect(),
            trace: snap.trace,
            selection: snap.selection,
            pricing: snap.pricing,
            contracts,
            open,
            decisions: Vec::new(),
            bids: Vec::new(),
            offered: snap.offered,
            placed: snap.placed,
            unplaced: snap.unplaced,
            total_settled: snap.total_settled,
            total_paid: snap.total_paid,
            coin_state: snap.coin_state,
            site_accounts: snap.site_accounts,
            audit_violations: snap.audit_violations,
            wf_facets: snap.workflows.as_ref().map(|w| w.set().facets()),
            workflows: snap.workflows,
            stranded: snap.stranded,
            tracer: Tracer::from_snapshot(snap.tracer),
        };
        let queue = EventQueue::restore(snap.queue, snap.next_seq);
        Ok(EconomyRun {
            engine: Engine::from_parts(model, queue, snap.now, snap.handled),
        })
    }

    /// Applies every event still due, then consumes the run, yielding
    /// the outcome and the tracer.
    pub fn finish(mut self) -> (EconomyOutcome, Tracer) {
        self.engine.run_to_completion();
        let mut model = self.engine.into_model();
        let tracer = std::mem::take(&mut model.tracer);
        let outcome = EconomyOutcome {
            stranded: model.stranded,
            workflows: model.workflows.as_ref().map(|w| w.report()),
            per_site: model.sites.into_iter().map(|s| s.into_outcome()).collect(),
            contracts: model.contracts,
            offered: model.offered,
            placed: model.placed,
            unplaced: model.unplaced,
            total_settled: model.total_settled,
            total_paid: model.total_paid,
            site_revenue: model.site_accounts,
            audit_violations: model.audit_violations,
        };
        (outcome, tracer)
    }
}

/// The checks [`EconomyRun::from_snapshot`] makes before it builds
/// anything: every index the snapshot holds points inside what it holds,
/// and no site holds per-job records.
fn check_snapshot(snap: &EconomySnapshot) -> Result<(), String> {
    let (tasks, sites) = (snap.trace.len(), snap.sites.len());
    let task = |what: &str, id: u64| match usize::try_from(id) {
        Ok(i) if i < tasks => Ok(()),
        _ => Err(format!(
            "{what} names task {id}, outside the {tasks}-task trace"
        )),
    };
    let below = |what: &str, i: usize, n: usize, of: &str| {
        if i < n {
            Ok(())
        } else {
            Err(format!("{what} {i} is past the snapshot's {n} {of}"))
        }
    };
    if snap.site_accounts.len() != sites {
        return Err("revenue accounts do not match the sites".to_string());
    }
    if let Some((i, site)) = snap
        .sites
        .iter()
        .enumerate()
        .find(|(_, s)| !s.outcomes.is_empty())
    {
        return Err(format!(
            "site {i} holds {} per-job records, which a site inside an economy never keeps",
            site.outcomes.len()
        ));
    }
    for (i, &(id, site, _, _)) in snap.contracts.iter().enumerate() {
        task(&format!("contract {i}"), id)?;
        below(&format!("contract {i}'s site"), site, sites, "sites")?;
    }
    for (_, _, event) in &snap.queue {
        match event {
            EcoEvent::Arrival(i) | EcoEvent::Release(i) => task("queued arrival", *i as u64)?,
            EcoEvent::Completion { site, .. } => {
                below("queued completion site", *site, sites, "sites")?
            }
        }
    }
    Ok(())
}

/// The open-contract table of the ledger of `rows`: each unsettled row
/// under its task, with the runner-up quote `quotes` lists for it in
/// ledger order. Refused unless there is one quote for each unsettled row
/// and no task is open twice.
fn open_table(rows: &[ContractRow], quotes: &[Option<f64>]) -> Result<BTreeMap<u64, Open>, String> {
    let unsettled = rows.iter().filter(|row| row.3.is_none()).count();
    if unsettled != quotes.len() {
        return Err(format!(
            "the snapshot lists {} runner-up quotes for {unsettled} unsettled contracts",
            quotes.len()
        ));
    }
    let mut open = BTreeMap::new();
    let unsettled = rows.iter().enumerate().filter(|(_, row)| row.3.is_none());
    for ((i, &(task, ..)), &runner_up) in unsettled.zip(quotes) {
        // The ledger numbers its contracts in `u32`.
        let entry = Open {
            contract: i as u32,
            runner_up,
        };
        if let Some(first) = open.insert(task, entry) {
            return Err(format!(
                "task {task} is open twice, in contracts {} and {i}",
                first.contract
            ));
        }
    }
    Ok(open)
}

/// An [`EconomyRun`] at an event boundary as [`EconomyRun::snapshot`]
/// writes it: the borrowed writer of an [`EconomySnapshot`]'s text, field
/// for field. It copies the events due and the open contracts and
/// borrows the rest.
#[derive(Debug, Serialize)]
pub struct EconomySnapshotRef<'a> {
    sites: Vec<SiteSnapshotRef<'a>>,
    trace: &'a TaskList,
    selection: ClientSelection,
    pricing: PricingStrategy,
    contracts: &'a ContractLedger,
    open: Vec<Option<f64>>,
    offered: usize,
    placed: usize,
    unplaced: usize,
    total_settled: f64,
    total_paid: f64,
    coin_state: u64,
    site_accounts: &'a [f64],
    audit_violations: &'a [AuditViolation],
    #[serde(skip_serializing_if = "Option::is_none")]
    workflows: Option<&'a WorkflowRuntime>,
    stranded: usize,
    tracer: TracerSnapshotRef<'a>,
    queue: Vec<(Time, u64, EcoEvent)>,
    next_seq: u64,
    now: Time,
    handled: u64,
}

/// Complete replay state of an [`EconomyRun`] at an event boundary, read
/// back from the text [`EconomyRun::snapshot`] writes:
/// restoring it and running to completion is bit-identical to never
/// having stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EconomySnapshot {
    /// Per-site replay state.
    pub sites: Vec<SiteSnapshot>,
    /// The full submission stream (arrivals index into it): the run's
    /// shared tasks and their true runtimes, not a copy.
    pub trace: TaskList,
    /// Client selection rule.
    pub selection: ClientSelection,
    /// Settlement pricing strategy.
    pub pricing: PricingStrategy,
    /// Every contract formed, in formation order, as its ledger row.
    pub contracts: Vec<ContractRow>,
    /// The runner-up quote of each unsettled contract, in ledger order:
    /// `null` where no other site bid.
    pub open: Vec<Option<f64>>,
    /// Tasks offered so far.
    pub offered: usize,
    /// Contracts formed so far.
    pub placed: usize,
    /// Tasks every site rejected.
    pub unplaced: usize,
    /// Σ contract settlements.
    pub total_settled: f64,
    /// Σ amounts actually paid after pricing.
    pub total_paid: f64,
    /// Selection-coin PRNG state.
    pub coin_state: u64,
    /// Per-site revenue ledgers.
    pub site_accounts: Vec<f64>,
    /// Money-conservation violations recorded so far.
    pub audit_violations: Vec<AuditViolation>,
    /// Workflow overlay state (release tracking + settlement ledger), if
    /// the run is in workflow mode. Absent from pre-workflow snapshots.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workflows: Option<WorkflowRuntime>,
    /// Workflow members stranded so far.
    #[serde(default)]
    pub stranded: usize,
    /// Market-layer tracer state.
    pub tracer: TracerSnapshot,
    /// Pending event-queue entries `(at, seq, event)`.
    pub queue: Vec<(Time, u64, EcoEvent)>,
    /// The queue's next sequence number.
    pub next_seq: u64,
    /// Simulation clock.
    pub now: Time,
    /// Events applied so far.
    pub handled: u64,
}

/// One scheduled occurrence in the economy's discrete-event timeline.
///
/// Public (with serde support) so durability layers can journal the
/// pending event queue verbatim; user code never constructs these.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EcoEvent {
    /// Task `trace[i]` arrives and enters negotiation.
    Arrival(usize),
    /// Workflow successor `trace[i]` released by its last predecessor's
    /// completion; enters negotiation exactly like an arrival. A
    /// first-class journaled event so a crash between predecessor
    /// settlement and successor negotiation recovers bit-identically.
    Release(usize),
    /// A site's schedule predicts a completion at this token.
    Completion {
        /// Which site the completion fires on.
        site: SiteId,
        /// The site-local completion token.
        token: CompletionToken,
    },
}

/// A contract formed and not yet settled, as the run keeps it under its
/// task's id until the completion settles it: the contract's index in the
/// ledger and the runner-up quote second pricing charges, if another site
/// bid.
#[derive(Debug, Clone, Copy)]
struct Open {
    contract: u32,
    runner_up: Option<f64>,
}

struct EcoModel {
    sites: Vec<SiteState>,
    /// The caller's tasks and their true runtimes, shared, not copied.
    trace: TaskList,
    selection: ClientSelection,
    pricing: PricingStrategy,
    contracts: ContractLedger,
    /// The open contracts by task id: what only settlement reads of a
    /// negotiation. [`place`](Self::place) inserts a task's entry and
    /// [`settle_completion`](Self::settle_completion) removes it, so the
    /// table holds the contracts in flight, not every one formed.
    open: BTreeMap<u64, Open>,
    /// Every site's verdict on the latest bid, and the willing sites'
    /// server bids: buffers [`place`](Self::place) refills per bid,
    /// never read across bids and so not part of replay state.
    decisions: Vec<(usize, AdmissionDecision)>,
    bids: Vec<ServerBid>,
    offered: usize,
    placed: usize,
    unplaced: usize,
    total_settled: f64,
    total_paid: f64,
    coin_state: u64,
    /// Per-site revenue after pricing — the market-side half of the
    /// money-conservation audit (Σ over sites must equal `total_paid`).
    site_accounts: Vec<f64>,
    audit_violations: Vec<AuditViolation>,
    /// DAG workflow overlay (release tracking + end-to-end settlement);
    /// `None` = independent tasks.
    workflows: Option<WorkflowRuntime>,
    /// Facet table for provenance stamping, derived from the workflow
    /// set (never serialized — rebuilt on restore).
    wf_facets: Option<WorkflowFacets>,
    /// Workflow members stranded by upstream failures (never offered).
    stranded: usize,
    /// Market-layer structured-event sink (settlement events only; off
    /// by default).
    tracer: Tracer,
}

impl EcoModel {
    /// Records a market-level audit failure: panic in debug builds,
    /// report in release.
    #[cold]
    fn market_violation(&mut self, at: Time, rule: &'static str, detail: String) {
        debug_assert!(false, "market audit [{rule}] failed at {at}: {detail}");
        self.audit_violations.push(AuditViolation {
            at,
            rule: rule.to_string(),
            detail,
        });
    }

    /// The runner-up quote of each open contract, in ledger order: the
    /// snapshot's `open` list.
    fn open_quotes(&self) -> Vec<Option<f64>> {
        let mut open: Vec<&Open> = self.open.values().collect();
        open.sort_unstable_by_key(|o| o.contract);
        open.into_iter().map(|o| o.runner_up).collect()
    }

    /// Money-conservation audit, run after every settlement: every unit
    /// of currency paid by a client is booked to exactly one site's
    /// revenue account. Relative tolerance absorbs summation-order drift.
    fn audit_money(&mut self, now: Time) {
        let tol = 1e-6 * (1.0 + self.total_paid.abs());
        let site_total: f64 = self.site_accounts.iter().sum();
        if (site_total - self.total_paid).abs() > tol {
            let total_paid = self.total_paid;
            self.market_violation(
                now,
                "money-conservation",
                format!("site revenues sum to {site_total} but clients paid {total_paid}"),
            );
        }
    }

    /// Provenance record for one §6 negotiation round: every site's
    /// admission verdict as a candidate (score = expected yield, plus
    /// the Eq. 7/8 decomposition the site computed), with `chosen`
    /// marking the winning site. Emitted even when no site bids — the
    /// losing counterfactuals are exactly what admission-regret
    /// analysis needs.
    fn bid_selection_event(
        &self,
        now: Time,
        spec: TaskSpec,
        decisions: &[(usize, AdmissionDecision)],
        winner: Option<usize>,
    ) -> TraceEvent {
        // Rank by expected yield (descending; site index breaks ties).
        let mut order: Vec<usize> = (0..decisions.len()).collect();
        order.sort_by(|&a, &b| {
            decisions[b]
                .1
                .expected_yield
                .partial_cmp(&decisions[a].1.expected_yield)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| decisions[a].0.cmp(&decisions[b].0))
        });
        let mut keep: Vec<(usize, usize)> = Vec::new(); // (rank, decisions idx)
        for (rank0, &i) in order.iter().enumerate() {
            let is_winner = winner == Some(decisions[i].0);
            if keep.len() < MAX_DECISION_CANDIDATES || is_winner {
                keep.push((rank0 + 1, i));
            }
        }
        let candidates = keep
            .into_iter()
            .map(|(rank, i)| {
                let (s, d) = &decisions[i];
                let facet = self.wf_facets.as_ref().and_then(|f| f.get(&spec.id.0));
                DecisionCandidate {
                    rank,
                    task: None,
                    site: Some(*s),
                    score: TraceEvent::finite(d.expected_yield),
                    pv: TraceEvent::finite(d.present_value),
                    cost: TraceEvent::finite(d.cost),
                    slack: TraceEvent::finite(d.slack),
                    workflow: facet.map(|f| f.workflow),
                    critical: facet.map(|f| f.critical),
                    chosen: winner == Some(*s),
                }
            })
            .collect();
        TraceEvent {
            at: now,
            task: Some(spec.id),
            site: None,
            kind: TraceKind::DecisionRecord {
                decision: DecisionKind::BidSelection,
                considered: decisions.len(),
                candidates,
            },
        }
    }

    /// Emits a [`TraceKind::ContractSettled`] event (no-op when the
    /// tracer is off).
    #[inline]
    fn trace_settlement(&mut self, at: Time, site: SiteId, task: TaskId, amount: f64) {
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent {
                at,
                task: Some(task),
                site: Some(site),
                kind: TraceKind::ContractSettled { amount },
            });
        }
    }

    /// Paper-level workflow id owning global task `t`.
    fn owner_workflow(&self, t: u64) -> u64 {
        let set = self.workflows.as_ref().expect("workflow mode").set();
        set.workflow_of(t as usize)
            .map(|w| set.workflows[w].id)
            .expect("task belongs to a workflow")
    }

    #[inline]
    fn trace_workflow(&mut self, at: Time, task: Option<TaskId>, kind: TraceKind) {
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent {
                at,
                task,
                site: None,
                kind,
            });
        }
    }

    /// Advances the workflow overlay for a member that ran to completion:
    /// successors whose last predecessor this was are released into
    /// negotiation (journaled as [`EcoEvent::Release`]), and a finished
    /// workflow settles its end-to-end decayed value.
    fn workflow_complete(&mut self, now: Time, task: TaskId, queue: &mut EventQueue<EcoEvent>) {
        let Some(wf) = self.workflows.as_mut() else {
            return;
        };
        let progress = wf.on_complete(task.0, now);
        self.apply_workflow_progress(now, progress, queue);
    }

    /// Advances the overlay for a member that terminally failed at the
    /// market level, every site having rejected it: transitive waiting
    /// descendants strand — they are never offered — and the workflow
    /// settles at zero once its last member resolves.
    fn workflow_fail(&mut self, now: Time, task: TaskId, queue: &mut EventQueue<EcoEvent>) {
        let Some(wf) = self.workflows.as_mut() else {
            return;
        };
        let progress = wf.on_failure(task.0, now);
        self.apply_workflow_progress(now, progress, queue);
    }

    fn apply_workflow_progress(
        &mut self,
        now: Time,
        progress: WorkflowProgress,
        queue: &mut EventQueue<EcoEvent>,
    ) {
        for &r in &progress.released {
            let workflow = self.owner_workflow(r);
            self.trace_workflow(
                now,
                Some(TaskId(r)),
                TraceKind::WorkflowReleased { workflow },
            );
            queue.schedule(now, EcoEvent::Release(r as usize));
        }
        for &s in &progress.stranded {
            self.stranded += 1;
            let workflow = self.owner_workflow(s);
            self.trace_workflow(
                now,
                Some(TaskId(s)),
                TraceKind::WorkflowStranded { workflow },
            );
        }
        if let Some(s) = progress.settlement {
            self.trace_workflow(
                now,
                None,
                TraceKind::WorkflowSettled {
                    workflow: s.workflow,
                    earned: s.earned,
                    attribution: s.attribution,
                },
            );
        }
    }

    fn handle_arrival(&mut self, now: Time, idx: usize, queue: &mut EventQueue<EcoEvent>) {
        let spec = self.trace[idx];
        self.offered += 1;
        if !self.place(
            now,
            Job::with_true_runtime(spec, self.trace.true_runtime(idx)),
            queue,
        ) {
            self.unplaced += 1;
            self.workflow_fail(now, spec.id, queue);
        }
    }

    /// Runs one round of the §6 negotiation for `job`'s bid; returns
    /// whether a contract was formed (and wires up its events).
    fn place(&mut self, now: Time, job: Job, queue: &mut EventQueue<EcoEvent>) -> bool {
        let spec = job.spec;
        // Broadcast the bid; every site's verdict is collected (evaluate
        // is read-only) and willing sites become server bids.
        self.decisions.clear();
        self.bids.clear();
        for (s, site) in self.sites.iter().enumerate() {
            let d = site.evaluate(now, spec);
            if d.accept {
                self.bids.push(ServerBid::from_decision(s, &d));
            }
            self.decisions.push((s, d));
        }

        let coin = splitmix64(&mut self.coin_state);
        let winner = self.selection.choose(&self.bids, coin);
        if self.tracer.is_provenance() {
            let ev = self.bid_selection_event(now, spec, &self.decisions, winner.map(|w| w.site));
            self.tracer.emit(ev);
        }
        let Some(winner) = winner else {
            return false;
        };
        self.placed += 1;

        // Runner-up quote for second pricing.
        let runner_up = self
            .bids
            .iter()
            .filter(|b| b.site != winner.site)
            .map(|b| b.price)
            .max_by(|a, b| a.total_cmp(b));

        // The ledger derives the price from the negotiated completion, as
        // the winning site quoted it.
        let contract = self
            .contracts
            .form(spec.id, winner.site, winner.expected_completion);
        // The ledger numbers its contracts in `u32`.
        let contract = contract as u32;
        self.open.insert(
            spec.id.0,
            Open {
                contract,
                runner_up,
            },
        );

        self.sites[winner.site].note_offer(now);
        for token in self.sites[winner.site].accept(now, job) {
            queue.schedule(
                token.at,
                EcoEvent::Completion {
                    site: winner.site,
                    token,
                },
            );
        }
        self.sites[winner.site].clear_outcomes();
        true
    }

    /// Settles the open contract of a finished task and closes it:
    /// value-function settlement, pricing filter, ledger postings, trace
    /// event, conservation audit. A task with no open contract — never
    /// placed, or settled already — is an audit failure, not a payment.
    fn settle_completion(&mut self, now: Time, site: SiteId, task: TaskId) {
        let Some(open) = self.open.remove(&task.0) else {
            let id = task.0;
            self.market_violation(
                now,
                "contract-settlement",
                format!("task {id} completed at site {site} with no open contract"),
            );
            return;
        };
        let ci = open.contract as usize;
        let settled = self.contracts.settle(ci, now);
        self.total_settled += settled;
        let paid = self.pricing.settle(settled, open.runner_up);
        self.total_paid += paid;
        self.site_accounts[site] += paid;
        self.trace_settlement(now, site, task, paid);
        self.audit_money(now);
    }

    fn handle_completion(
        &mut self,
        now: Time,
        site: SiteId,
        token: CompletionToken,
        queue: &mut EventQueue<EcoEvent>,
    ) {
        let (finished, tokens) = self.sites[site].on_completion_detailed(now, token);
        self.sites[site].clear_outcomes();
        if let Some(outcome) = finished {
            self.settle_completion(now, site, outcome.id);
            // Scheduling order is settle → releases → spawned tokens.
            self.workflow_complete(now, outcome.id, queue);
        }
        for t in tokens {
            queue.schedule(t.at, EcoEvent::Completion { site, token: t });
        }
    }
}

impl Model for EcoModel {
    type Event = EcoEvent;

    fn handle(&mut self, now: Time, event: EcoEvent, queue: &mut EventQueue<EcoEvent>) {
        match event {
            EcoEvent::Arrival(i) | EcoEvent::Release(i) => self.handle_arrival(now, i, queue),
            EcoEvent::Completion { site, token } => self.handle_completion(now, site, token, queue),
        }
        // The contract ledger is a placed task's one record: a site keeps
        // none between events.
        debug_assert!(self.sites.iter().all(|s| s.outcomes().is_empty()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_core::{AdmissionPolicy, Policy};
    use mbts_workload::{generate_trace, MixConfig};

    fn small_trace(tasks: usize, load: f64, seed: u64) -> Trace {
        generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(tasks)
                .with_processors(8) // total capacity across sites
                .with_load_factor(load),
            seed,
        )
    }

    fn run(config: EconomyConfig, trace: &Trace) -> EconomyOutcome {
        EconomyRun::new(config, trace, Tracer::Off).finish().0
    }

    fn site(procs: usize) -> SiteConfig {
        SiteConfig::new(procs)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
    }

    #[test]
    fn traced_settlements_account_for_every_unit_paid() {
        let trace = small_trace(300, 0.8, 1);
        let cfg = EconomyConfig::uniform(2, site(4));
        let plain = run(cfg.clone(), &trace);
        let (traced, tracer) = EconomyRun::new(cfg, &trace, Tracer::buffer()).finish();
        // Tracing is observational: same economy outcome, bit for bit.
        assert_eq!(
            plain.total_paid.to_bits(),
            traced.total_paid.to_bits(),
            "tracing changed the replay"
        );
        let events = tracer.into_events().unwrap();
        assert_eq!(events.len(), traced.contracts.len());
        let traced_paid: f64 = events
            .iter()
            .map(|e| match &e.kind {
                TraceKind::ContractSettled { amount } => *amount,
                other => panic!("market tracer emitted {other:?}"),
            })
            .sum();
        assert!((traced_paid - traced.total_paid).abs() < 1e-9 * (1.0 + traced.total_paid.abs()));
        // Per-site settlement sums match the revenue ledgers.
        for (i, revenue) in traced.site_revenue.iter().enumerate() {
            let site_sum: f64 = events
                .iter()
                .filter(|e| e.site == Some(i))
                .map(|e| match e.kind {
                    TraceKind::ContractSettled { amount } => amount,
                    _ => 0.0,
                })
                .sum();
            assert!((site_sum - revenue).abs() < 1e-9 * (1.0 + revenue.abs()));
        }
    }

    #[test]
    fn two_site_economy_places_and_settles() {
        let trace = small_trace(300, 0.8, 1);
        let out = run(EconomyConfig::uniform(2, site(4)), &trace);
        assert_eq!(out.offered, 300);
        assert_eq!(out.placed + out.unplaced, 300);
        assert!(
            out.placed > 250,
            "moderate load mostly places: {}",
            out.placed
        );
        // Every placed task's contract eventually settles.
        assert!(out.contracts.iter().all(|c| c.is_settled()));
        assert_eq!(out.contracts.len(), out.placed);
        assert!((out.total_settled - out.total_yield()).abs() < 1e-6);
        // Pay-bid: paid == settled.
        assert!((out.total_paid - out.total_settled).abs() < 1e-9);
    }

    #[test]
    fn overload_gets_rejected_everywhere() {
        let trace = small_trace(300, 6.0, 2);
        let out = run(EconomyConfig::uniform(2, site(4)), &trace);
        assert!(out.unplaced > 0, "heavy overload must reject somewhere");
        assert!(out.placement_ratio() < 1.0);
    }

    #[test]
    fn more_sites_place_more_work() {
        let trace = small_trace(400, 2.0, 3);
        let two = run(EconomyConfig::uniform(2, site(4)), &trace);
        let four = run(EconomyConfig::uniform(4, site(4)), &trace);
        assert!(four.placed >= two.placed);
        assert!(four.total_yield() > two.total_yield());
    }

    #[test]
    fn earliest_completion_beats_random_selection() {
        // Greedy earliest-completion is a heuristic, not dominant on
        // every draw, so compare mean yield over a few seeds instead of
        // demanding a win on a single trace.
        let mut smart_total = 0.0;
        let mut random_total = 0.0;
        for seed in [4, 5, 6, 7] {
            let trace = small_trace(400, 1.5, seed);
            let mut cfg = EconomyConfig::uniform(3, site(4));
            cfg.selection = ClientSelection::EarliestCompletion;
            smart_total += run(cfg.clone(), &trace).total_yield();
            cfg.selection = ClientSelection::Random;
            random_total += run(cfg, &trace).total_yield();
        }
        assert!(
            smart_total >= random_total,
            "earliest-completion {smart_total} vs random {random_total}"
        );
    }

    #[test]
    fn violations_happen_without_admission_control() {
        // AcceptAll + overload → completions drift past negotiated times.
        let trace = small_trace(300, 3.0, 5);
        let cfg = EconomyConfig::uniform(1, SiteConfig::new(4).with_policy(Policy::FirstPrice));
        let out = run(cfg, &trace);
        assert!(
            out.violations() > 0,
            "overloaded AcceptAll site must miss contracts"
        );
    }

    #[test]
    fn admission_control_reduces_violation_rate() {
        let trace = small_trace(400, 3.0, 6);
        let no_ac = run(
            EconomyConfig::uniform(2, SiteConfig::new(4).with_policy(Policy::FirstPrice)),
            &trace,
        );
        let ac = run(
            EconomyConfig::uniform(
                2,
                SiteConfig::new(4)
                    .with_policy(Policy::FirstPrice)
                    .with_admission(AdmissionPolicy::SlackThreshold { threshold: 50.0 }),
            ),
            &trace,
        );
        let rate = |o: &EconomyOutcome| {
            if o.contracts.is_empty() {
                0.0
            } else {
                o.violations() as f64 / o.contracts.len() as f64
            }
        };
        assert!(
            rate(&ac) <= rate(&no_ac),
            "AC violation rate {} vs no-AC {}",
            rate(&ac),
            rate(&no_ac)
        );
    }

    #[test]
    fn second_pricing_never_charges_more_than_pay_bid() {
        let trace = small_trace(300, 1.0, 7);
        let mut cfg = EconomyConfig::uniform(3, site(4));
        cfg.pricing = PricingStrategy::PayBid;
        let pay = run(cfg.clone(), &trace);
        cfg.pricing = PricingStrategy::SecondPrice;
        let vickrey = run(cfg, &trace);
        assert!(vickrey.total_paid <= pay.total_paid + 1e-9);
        // The value-function settlements are identical — pricing only
        // changes what is charged.
        assert!((vickrey.total_settled - pay.total_settled).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = small_trace(200, 1.2, 9);
        let mut cfg = EconomyConfig::uniform(3, site(2));
        cfg.selection = ClientSelection::Random;
        cfg.seed = 77;
        let a = run(cfg.clone(), &trace);
        let b = run(cfg, &trace);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.total_yield(), b.total_yield());
        let sites_a: Vec<usize> = a.contracts.iter().map(|c| c.site).collect();
        let sites_b: Vec<usize> = b.contracts.iter().map(|c| c.site).collect();
        assert_eq!(sites_a, sites_b);
    }

    /// FNV-1a over the outcome's `Debug` text: equal hashes, equal
    /// outcomes.
    fn outcome_hash(out: &EconomyOutcome) -> u64 {
        format!("{out:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn unsorted_arrivals_replay_in_time_then_position_order() {
        // Valid ids, arrival times shuffled (and a run of ties): the feed
        // must order them as scheduling each in turn did. The hash is the
        // outcome of the engine that pushed every arrival into the heap,
        // read as `Debug` text since a contract is its row. The same
        // outcome hashed as JSON, each contract written whole with its
        // formation time and status, to 3_995_330_435_483_962_845 once
        // the outcome lost its migration counters and its
        // contracts their terms, its sites their per-job records, the
        // outcome its five fault counters, its sites' metrics their
        // `orphaned` count, the outcome its budget keys (a count of
        // tasks no client could fund and a per-client spend list) and its
        // contracts their client, and each contract's task its true
        // runtime (the same outcome less those keys:
        // 12_140_116_056_354_289_765 with each task's `true_runtime`
        // after its `runtime`; 16_358_527_777_702_562_041 with the count
        // 0, the list empty and every client 0 too;
        // 6_978_841_760_120_419_641 with the two `orphaned` counts too,
        // both zero; 17_392_548_782_443_348_599 with the five counters
        // too; 2_572_550_470_487_751_036 with the records too).
        let mut trace = small_trace(300, 1.2, 11);
        let mut arrivals: Vec<Time> = trace.tasks.iter().map(|t| t.arrival).collect();
        for i in 10..20 {
            arrivals[i] = arrivals[10];
        }
        let mut state = 0x5EED;
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
        }
        for (task, at) in Arc::make_mut(&mut trace.tasks.bids)
            .iter_mut()
            .zip(arrivals)
        {
            task.arrival = at;
        }
        let out = run(EconomyConfig::uniform(2, site(4)), &trace);
        assert_eq!(out.offered, 300);
        assert_eq!(
            outcome_hash(&out),
            9_553_209_249_024_882_271,
            "outcome moved"
        );
    }

    #[test]
    #[should_panic(expected = "task ids must equal trace positions")]
    fn sparse_task_ids_are_rejected_before_any_ledger_is_sized() {
        let mut trace = small_trace(10, 1.0, 1);
        Arc::make_mut(&mut trace.tasks.bids)[9].id = TaskId(1_000_000_000_000);
        let _ = EconomyRun::new(EconomyConfig::uniform(1, site(4)), &trace, Tracer::Off);
    }

    /// Every queue entry is an event: the widest payload is a
    /// completion's site and token (24 B), and the tag takes one word
    /// more.
    #[test]
    fn an_event_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<EcoEvent>() <= 32);
    }

    /// A trace is its bids: a task is six 8 B fields and its penalty
    /// bound, one `f64` (72 B while the bound was a two-case enum and the
    /// bid carried its true runtime). A job adds its two remaining times,
    /// its true runtime, a preemption count and its first start. These
    /// are exact so that a wider record is a decision; they may only go
    /// down.
    #[test]
    fn a_task_is_56_bytes_and_a_job_104() {
        use mbts_workload::PenaltyBound;
        assert_eq!(std::mem::size_of::<PenaltyBound>(), 8);
        assert_eq!(std::mem::size_of::<TaskSpec>(), 56);
        assert_eq!(std::mem::size_of::<Job>(), 104);
    }

    /// The open table holds a task's entry from its contract's formation
    /// to its settlement, and nothing else: at every event boundary it
    /// lists exactly the unsettled contracts, each under its own task, and
    /// a drained run holds none.
    #[test]
    fn the_open_table_holds_exactly_the_unsettled_contracts() {
        let trace = small_trace(300, 1.5, 26);
        let mut run = EconomyRun::new(kitchen_sink_cfg(), &trace, Tracer::Off);
        let mut most = 0;
        loop {
            let m = run.engine.model();
            let unsettled: Vec<(u64, u32)> = (&m.contracts)
                .into_iter()
                .enumerate()
                .filter(|(_, c)| !c.is_settled())
                .map(|(i, c)| (c.spec.id.0, i as u32))
                .collect();
            let mut open: Vec<(u64, u32)> = m.open.iter().map(|(&t, o)| (t, o.contract)).collect();
            open.sort_unstable_by_key(|&(_, ci)| ci);
            assert_eq!(open, unsettled, "at event {}", run.events_handled());
            most = most.max(open.len());
            if !run.step() {
                break;
            }
        }
        assert!(most > 1, "never more than {most} contracts open at once");
        assert!(run.engine.model().open.is_empty());
    }

    /// Second pricing charges the best losing quote: the entry a contract
    /// opens with holds the highest price any site other than the winner
    /// bid, and none where no other site bid, and its settlement charges
    /// that quote, bit for bit.
    #[test]
    fn second_pricing_charges_the_best_losing_quote() {
        let trace = small_trace(300, 1.5, 12);
        let mut cfg = EconomyConfig::uniform(4, site(2));
        cfg.pricing = PricingStrategy::SecondPrice;
        let mut run = EconomyRun::new(cfg.clone(), &trace, Tracer::buffer());
        let mut runner_up = vec![None; trace.tasks.len()];
        let (mut formed, mut contested, mut alone) = (0, 0, 0);
        while run.step() {
            let m = run.engine.model();
            if m.contracts.len() == formed {
                continue;
            }
            formed = m.contracts.len();
            let c = m.contracts.get(formed - 1).unwrap();
            let losing: Vec<f64> = m
                .bids
                .iter()
                .filter(|b| b.site != c.site)
                .map(|b| b.price)
                .collect();
            let best = losing.iter().copied().reduce(f64::max);
            let open = m.open[&c.spec.id.0];
            assert_eq!(open.runner_up.map(f64::to_bits), best.map(f64::to_bits));
            runner_up[c.spec.id.index()] = best;
            if losing.iter().any(|&p| Some(p) != best) {
                contested += 1;
            }
            if best.is_none() {
                alone += 1;
            }
        }
        assert!(contested > 0, "no contract had two unequal losing quotes");
        assert!(alone > 0, "every contract had a runner-up");
        let (out, tracer) = run.finish();
        let mut settled = vec![0.0; trace.tasks.len()];
        for c in &out.contracts {
            settled[c.spec.id.index()] = c.settled_price().unwrap();
        }
        for e in tracer.into_events().unwrap() {
            let TraceKind::ContractSettled { amount } = e.kind else {
                continue;
            };
            let task = e.task.unwrap().index();
            let charged = cfg.pricing.settle(settled[task], runner_up[task]);
            assert_eq!(amount.to_bits(), charged.to_bits(), "task {task}");
        }
    }

    /// A completion whose task has no open contract — one never placed, or
    /// one settled already — pays nothing and is a named audit failure
    /// (a panic in debug builds, like every market audit).
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "contract-settlement"))]
    fn a_completion_with_no_open_contract_is_an_audit_failure() {
        let trace = small_trace(50, 0.8, 3);
        let cfg = EconomyConfig::uniform(2, site(4));
        let mut run = EconomyRun::new(cfg, &trace, Tracer::Off);
        while run.engine.model().total_settled == 0.0 {
            assert!(run.step(), "no contract settled");
        }
        let now = run.now();
        let mut m = run.engine.into_model();
        let settled = (&m.contracts).into_iter().find(|c| c.is_settled()).unwrap();
        let paid = m.total_paid;
        m.settle_completion(now, settled.site, settled.spec.id);
        m.settle_completion(now, 0, TaskId(49));
        assert_eq!(m.total_paid.to_bits(), paid.to_bits());
        let rules: Vec<&str> = m.audit_violations.iter().map(|v| v.rule.as_str()).collect();
        assert_eq!(rules, ["contract-settlement"; 2]);
    }

    /// Second pricing: each open contract carries its runner-up quote,
    /// the widest state an economy keeps per contract.
    fn kitchen_sink_cfg() -> EconomyConfig {
        let mut cfg = EconomyConfig::uniform(2, site(4));
        cfg.pricing = PricingStrategy::SecondPrice;
        cfg
    }

    #[test]
    fn snapshot_midway_resumes_bit_identically() {
        let trace = small_trace(300, 1.5, 26);
        let mut base = EconomyRun::new(kitchen_sink_cfg(), &trace, Tracer::buffer());
        while base.step() {}
        let total = base.events_handled();
        let (want, want_tracer) = base.finish();
        let want_events = want_tracer.into_events().unwrap();

        for k in [0, 1, 9, total / 2, total - 1, total] {
            let mut run = EconomyRun::new(kitchen_sink_cfg(), &trace, Tracer::buffer());
            for _ in 0..k {
                assert!(run.step(), "ran dry before event {k}");
            }
            // Round-trip through JSON: what a journal would persist.
            let json = serde_json::to_string(&run.snapshot()).unwrap();
            let snap: EconomySnapshot = serde_json::from_str(&json).unwrap();
            let mut resumed = EconomyRun::from_snapshot(snap).expect("snapshot restores");
            assert_eq!(resumed.events_handled(), k);
            while resumed.step() {}
            assert_eq!(resumed.events_handled(), total);
            let (got, got_tracer) = resumed.finish();
            assert_eq!(got, want, "outcome diverged after kill at event {k}");
            assert_eq!(
                got_tracer.into_events().unwrap(),
                want_events,
                "trace diverged after kill at event {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_economy_rejected() {
        let config = EconomyConfig {
            sites: vec![],
            selection: ClientSelection::default(),
            pricing: PricingStrategy::default(),
            workflows: None,
            seed: 0,
        };
        let _ = EconomyRun::new(config, &small_trace(10, 1.0, 1), Tracer::Off);
    }
}

#[cfg(test)]
mod workflow_market_tests {
    use super::*;
    use mbts_core::{AdmissionPolicy, Policy};
    use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
    use std::collections::HashMap;

    fn wf_site(procs: usize) -> SiteConfig {
        SiteConfig::new(procs)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
    }

    #[test]
    fn workflow_market_settles_every_workflow_on_ample_capacity() {
        let set = generate_workflows(&WorkflowConfig::default_set().with_workflows(6), 42);
        let trace = set.trace();
        let cfg = EconomyConfig::uniform(2, wf_site(8)).with_workflows(set.clone());
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();
        let report = out.workflows.as_ref().expect("workflow mode report");
        assert_eq!(report.workflows, 6);
        assert_eq!(report.settled + report.failed, 6);
        // Every task was either offered to the market or stranded.
        assert_eq!(out.offered + out.stranded, trace.tasks.len());
        // On ample capacity (2×8 procs for a 4-proc-calibrated set) every
        // member places and every workflow settles with positive yield.
        assert_eq!(report.failed, 0, "no workflow should fail: {report:?}");
        assert_eq!(out.stranded, 0);
        assert_eq!(out.placed, trace.tasks.len());
        assert!(report.total_earned > 0.0);
        // Attribution is conserved per settlement (bitwise exact).
        for s in &report.settlements {
            let sum: f64 = s.attribution.iter().map(|(_, v)| v).sum();
            assert_eq!(sum.to_bits(), s.earned.to_bits(), "attribution drift");
        }
    }

    #[test]
    fn rejected_roots_strand_their_descendants_at_market_level() {
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(3)
                .with_shape(WorkflowShape::Pipeline { depth: 4 }),
            7,
        );
        let trace = set.trace();
        // Admission threshold no task can meet: every root goes unplaced.
        let cfg = EconomyConfig::uniform(
            2,
            wf_site(4).with_admission(AdmissionPolicy::SlackThreshold {
                threshold: f64::INFINITY,
            }),
        )
        .with_workflows(set.clone());
        let (out, _) = EconomyRun::new(cfg, &trace, Tracer::Off).finish();
        let report = out.workflows.as_ref().expect("workflow mode report");
        assert_eq!(report.failed, 3);
        assert_eq!(report.settled, 3); // failed workflows settle at zero
        assert_eq!(report.total_earned, 0.0);
        // Only roots were ever offered; everything downstream stranded.
        let roots = set.roots().len();
        assert_eq!(out.offered, roots);
        assert_eq!(out.stranded, trace.tasks.len() - roots);
        assert_eq!(out.unplaced, roots);
    }

    #[test]
    fn workflow_release_events_only_fire_after_predecessor_completion() {
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(4)
                .with_shape(WorkflowShape::Pipeline { depth: 3 }),
            11,
        );
        let trace = set.trace();
        let cfg = EconomyConfig::uniform(2, wf_site(8)).with_workflows(set.clone());
        let (_, tracer) = EconomyRun::new(cfg, &trace, Tracer::buffer()).finish();
        let events = tracer.into_events().unwrap();
        // Per edge: the successor's WorkflowReleased event must come
        // after the predecessor's contract settlement.
        let mut settled_at: HashMap<u64, usize> = HashMap::new();
        let mut released_at: HashMap<u64, usize> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            match &e.kind {
                TraceKind::ContractSettled { .. } => {
                    settled_at.insert(e.task.unwrap().0, i);
                }
                TraceKind::WorkflowReleased { .. } => {
                    released_at.insert(e.task.unwrap().0, i);
                }
                _ => {}
            }
        }
        let mut checked = 0;
        for (pred, succ) in set.edge_ids() {
            if let Some(&r) = released_at.get(&succ) {
                let s = settled_at.get(&pred).copied().filter(|&s| s < r).is_some();
                // The releasing predecessor is whichever finished last;
                // at least the released task must postdate ALL its
                // predecessors' settlements, this edge included.
                assert!(s, "task {succ} released before predecessor {pred} settled");
                checked += 1;
            }
        }
        assert!(checked > 0, "no edges exercised");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::WorkflowSettled { .. })));
    }

    #[test]
    fn workflow_snapshot_midway_resumes_bit_identically() {
        let set = generate_workflows(
            &WorkflowConfig::default_set().with_workflows(5).with_shape(
                WorkflowShape::RandomLayered {
                    layers: 3,
                    width: 2,
                    edge_prob: 0.5,
                },
            ),
            13,
        );
        let trace = set.trace();
        let cfg = EconomyConfig::uniform(2, wf_site(8)).with_workflows(set);
        let mut reference = EconomyRun::new(cfg.clone(), &trace, Tracer::Off);
        while reference.step() {}
        let total = reference.events_handled();
        let (ref_out, _) = reference.finish();
        for kill in [0, 1, total / 3, total / 2, total - 1] {
            let mut run = EconomyRun::new(cfg.clone(), &trace, Tracer::Off);
            for _ in 0..kill {
                assert!(run.step(), "ran dry before kill point {kill}");
            }
            let json = serde_json::to_string(&run.snapshot()).unwrap();
            let snap: EconomySnapshot = serde_json::from_str(&json).unwrap();
            let resumed = EconomyRun::from_snapshot(snap).expect("snapshot restores");
            let (out, _) = resumed.finish();
            assert_eq!(ref_out, out, "divergence after kill at {kill}");
        }
    }

    #[test]
    #[should_panic(expected = "incompatible with drop_expired")]
    fn drop_expired_sites_are_rejected_in_workflow_mode() {
        let set = generate_workflows(&WorkflowConfig::default_set(), 1);
        let trace = set.trace();
        let cfg = EconomyConfig::uniform(1, wf_site(4).with_drop_expired(true)).with_workflows(set);
        let _ = EconomyRun::new(cfg, &trace, Tracer::Off);
    }
}
