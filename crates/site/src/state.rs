//! The imperative site core: queueing, dispatch, backfilling, preemption,
//! completion.
//!
//! [`SiteState`] is deliberately engine-agnostic: every transition returns
//! the [`CompletionToken`]s for newly started run segments, and the caller
//! (single-site [`SiteRun`](crate::SiteRun) or the multi-site market
//! economy) turns them into events. Preempted segments are invalidated by
//! an epoch counter — a stale token is simply ignored.
//!
//! Processors are interchangeable (§4), so the site tracks only a free
//! count plus the set of running gangs — no per-processor slots. Tasks may
//! request a `width > 1` gang; when the best-scoring task does not fit the
//! current free count, the dispatcher holds an **EASY backfilling**
//! reservation for it: lower-ranked tasks may start out of order only if
//! they fit the free processors *and* their expected completion does not
//! push past the reservation.

use crate::config::SiteConfig;
use crate::metrics::{Disposition, JobOutcome, SiteMetrics};
use crate::SiteOutcome;
use mbts_core::{
    decision_from_schedule, decompose, explain_decision, with_candidate_schedule,
    AdmissionDecision, AdmissionPolicy, CostModel, Job, PendingPool, PoolCheckpoint, ScoreCtx,
    ScoreDecomposition,
};
use mbts_sim::{Duration, Time};
use mbts_trace::{
    DecisionCandidate, DecisionKind, TraceEvent, TraceKind, Tracer, TracerSnapshot,
    TracerSnapshotRef, MAX_DECISION_CANDIDATES,
};
use mbts_workload::{TaskFacet, TaskSpec};
use serde::{Deserialize, Serialize};

/// Handle for a scheduled run-to-completion: fires at `at` unless the
/// segment was preempted (then the epoch no longer matches and the token
/// is stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionToken {
    /// When the running segment will finish (true-runtime based).
    pub at: Time,
    /// Assignment epoch; must match a currently running gang.
    pub epoch: u64,
}

#[derive(Debug, Clone)]
struct Running {
    job: Job,
    started: Time,
    epoch: u64,
}

impl Running {
    /// Remaining processing time per the estimate, as of `now`.
    fn remaining_estimate(&self, now: Time) -> Duration {
        (self.job.rpt - (now - self.started)).max_zero()
    }

    /// Current view of the running job, advanced to `now`.
    fn view(&self, now: Time) -> Job {
        let mut view = self.job.clone();
        view.advance(now - self.started);
        view
    }
}

/// One failed conservation check from the always-on auditor.
///
/// The auditor re-verifies the site's books after every state
/// transition: task conservation (accepted = queued + running +
/// completed + dropped + cancelled), submission accounting
/// (submitted = accepted + rejected), processor conservation
/// (Σ running widths + free = capacity), and yield consistency (the
/// per-job outcome records sum to the metrics' total yield). A failure
/// panics in debug builds; in release it is recorded here and surfaced
/// through [`SiteOutcome::violations`](crate::SiteOutcome::violations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditViolation {
    /// When the check failed.
    pub at: Time,
    /// Which conservation rule failed.
    pub rule: String,
    /// Human-readable account of the imbalance.
    pub detail: String,
}

/// A task-service site: pending queue + processor pool + accounting.
///
/// The site keeps no history of its own beyond the per-job outcomes
/// (which a site inside an economy empties after every event): every
/// transition is a [`TraceEvent`] on its tracer.
#[derive(Debug, Clone)]
pub struct SiteState {
    config: SiteConfig,
    /// Current capacity (starts at `config.processors`; crashes and
    /// repairs change it).
    capacity: usize,
    /// The queue. The pool keeps its scores and Eq. 4 cost inputs across
    /// events, and every dispatch decision reads them; its slot order
    /// follows `Vec::swap_remove` semantics, so indices behave exactly
    /// like a plain `Vec<Job>`.
    pending: PendingPool,
    running: Vec<Running>,
    free_procs: usize,
    epoch_counter: u64,
    metrics: SiteMetrics,
    outcomes: Vec<JobOutcome>,
    /// Yield as re-derived from the per-job outcome records, accumulated
    /// in push order — the conservation auditor cross-checks it against
    /// `metrics.total_yield` after every event.
    earned_recorded: f64,
    /// Conservation-audit failures (release builds only; debug panics).
    violations: Vec<AuditViolation>,
    /// Structured-event sink ([`Tracer::Off`] by default: every emission
    /// site reduces to one never-taken branch).
    tracer: Tracer,
}

impl SiteState {
    /// An idle site.
    pub fn new(config: SiteConfig) -> Self {
        let free_procs = config.processors;
        let pending = PendingPool::new(config.policy);
        SiteState {
            capacity: config.processors,
            config,
            pending,
            running: Vec::new(),
            free_procs,
            epoch_counter: 0,
            metrics: SiteMetrics::default(),
            outcomes: Vec::new(),
            earned_recorded: 0.0,
            violations: Vec::new(),
            tracer: Tracer::Off,
        }
    }

    /// Installs a trace sink; subsequent transitions emit structured
    /// [`TraceEvent`]s into it. Tracing is observational only — a traced
    /// replay takes exactly the same decisions as an untraced one.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Detaches and returns the tracer (typically right before
    /// [`into_outcome`](Self::into_outcome)), leaving tracing off.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Emits a workflow-overlay event (release/settle/strand) through
    /// this site's tracer. The overlay drives the run from outside the
    /// site core, so it needs an emission path that shares the site's
    /// sink.
    pub fn trace_workflow(
        &mut self,
        at: Time,
        task: Option<mbts_workload::TaskId>,
        kind: TraceKind,
    ) {
        self.trace(at, task, kind);
    }

    #[inline]
    fn trace(&mut self, at: Time, task: Option<mbts_workload::TaskId>, kind: TraceKind) {
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent {
                at,
                task,
                site: None,
                kind,
            });
        }
    }

    /// Records a conservation failure: panic in debug builds, report in
    /// release (the run keeps going so the operator gets the full list).
    #[cold]
    fn violation(&mut self, at: Time, rule: &'static str, detail: String) {
        debug_assert!(
            false,
            "conservation audit [{rule}] failed at {at}: {detail}"
        );
        self.violations.push(AuditViolation {
            at,
            rule: rule.to_string(),
            detail,
        });
    }

    /// The always-on conservation auditor: re-verifies the site's books
    /// after every externally driven state transition. All checks are
    /// O(running gangs) and read-only, so enabling faults (or not)
    /// never changes scheduling behaviour.
    fn audit_check(&mut self, now: Time) {
        let queued = self.pending.len();
        let running = self.running.len();
        let m = &self.metrics;
        let (submitted, accepted, rejected) = (m.submitted, m.accepted, m.rejected);
        let (completed, dropped, cancelled) = (m.completed, m.dropped, m.cancelled);
        let total_yield = m.total_yield;
        let accounted = queued + running + completed + dropped + cancelled;
        if accepted != accounted {
            self.violation(
                now,
                "task-conservation",
                format!(
                    "accepted {accepted} != queued {queued} + running {running} + \
                     completed {completed} + dropped {dropped} + cancelled {cancelled}"
                ),
            );
        }
        if submitted != accepted + rejected {
            self.violation(
                now,
                "submission-accounting",
                format!("submitted {submitted} != accepted {accepted} + rejected {rejected}"),
            );
        }
        let busy: usize = self.running.iter().map(|r| r.job.spec.width).sum();
        if busy + self.free_procs != self.capacity {
            self.violation(
                now,
                "processor-conservation",
                format!(
                    "busy {busy} + free {} != capacity {}",
                    self.free_procs, self.capacity
                ),
            );
        }
        let drift = (self.earned_recorded - total_yield).abs();
        if drift > 1e-9 * (1.0 + total_yield.abs()) {
            self.violation(
                now,
                "yield-consistency",
                format!(
                    "per-job outcomes sum to {} but metrics report {total_yield}",
                    self.earned_recorded
                ),
            );
        }
    }

    /// Conservation-audit failures recorded so far (always empty in
    /// debug builds, which panic at the first failed check instead).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// The configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// Aggregate metrics so far.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// Per-job outcome records so far, in push (event) order — the
    /// workflow overlay scans these to advance its release/settle state.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Empties the per-job records, keeping their capacity. The metrics
    /// and the auditor's running sum keep counting, so the audit is
    /// unchanged; an economy calls this after every call into a site,
    /// because its contract ledger is a placed task's one record.
    pub fn clear_outcomes(&mut self) {
        self.outcomes.clear();
    }

    /// Records a workflow member stranded by a predecessor's failure: the
    /// task was never released (so never submitted/accepted — it stays
    /// outside the task-conservation identity) and earns nothing. The
    /// workflow-level `WorkflowStranded` trace event is emitted by the
    /// overlay driving the run, which knows the owning workflow.
    pub fn note_stranded(&mut self, now: Time, id: mbts_workload::TaskId) {
        self.metrics.stranded += 1;
        self.outcomes.push(JobOutcome {
            id,
            disposition: Disposition::Stranded,
            finished_at: Some(now),
            earned: 0.0,
            delay: 0.0,
            preemptions: 0,
        });
        self.audit_check(now);
    }

    /// Number of queued (not running) tasks.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of busy processors.
    pub fn running_len(&self) -> usize {
        self.capacity - self.free_procs
    }

    /// Current capacity: the configured processors less those a crash
    /// took and no repair has restored yet.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of running gangs (tasks in execution).
    pub fn running_tasks(&self) -> usize {
        self.running.len()
    }

    /// Idle processors.
    pub fn free_processors(&self) -> usize {
        self.free_procs
    }

    /// `true` when nothing is queued or running.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// Per-processor expected-free times at `now` per the runtime
    /// *estimates* (what the candidate schedule believes): one `now` entry
    /// per idle processor, then `width` copies of each running gang's
    /// expected completion.
    pub fn free_times(&self, now: Time) -> Vec<Time> {
        let mut free = Vec::with_capacity(self.capacity);
        self.push_free_times(now, &mut free);
        free
    }

    /// Fills the empty `free` with [`free_times`](Self::free_times).
    fn push_free_times(&self, now: Time, free: &mut Vec<Time>) {
        free.extend(std::iter::repeat_n(now, self.free_procs));
        for r in &self.running {
            let at = now + r.remaining_estimate(now);
            free.extend(std::iter::repeat_n(at, r.job.spec.width));
        }
        debug_assert_eq!(free.len(), self.capacity);
    }

    /// Evaluates a proposed task against the current mix without mutating
    /// anything — the §6 negotiation step a server bid is built from.
    /// Tasks wider than the site are rejected outright, and so is every
    /// task while a crash has left a queued gang wider than the processors
    /// still up: until a repair the site cannot lay its queue out, so it
    /// has no completion time to promise.
    pub fn evaluate(&self, now: Time, spec: TaskSpec) -> AdmissionDecision {
        let stranded_gang = || {
            self.capacity < self.config.processors
                && self
                    .pending
                    .jobs()
                    .iter()
                    .any(|j| j.spec.width > self.capacity)
        };
        if spec.width > self.capacity || stranded_gang() {
            return AdmissionDecision {
                accept: false,
                expected_completion: Time::INFINITY,
                expected_yield: 0.0,
                present_value: 0.0,
                cost: 0.0,
                slack: f64::NEG_INFINITY,
            };
        }
        // The queue is borrowed and the candidate ranked as its last
        // member, in the core's per-thread layout buffers.
        let candidate = Job::new(spec);
        with_candidate_schedule(
            &self.config.policy,
            self.config.schedule_mode,
            now,
            |free| self.push_free_times(now, free),
            self.pending.jobs(),
            Some(&candidate),
            |schedule| {
                decision_from_schedule(
                    &self.config.admission,
                    self.config.admission_discount_rate,
                    schedule,
                    &candidate,
                )
            },
        )
    }

    /// Workflow facet of a task, when the config carries a facet table.
    fn facet_of(&self, id: u64) -> Option<&TaskFacet> {
        self.config
            .workflow_facets
            .as_ref()
            .and_then(|f| f.get(&id))
    }

    /// Full submission path: admission (unless `AcceptAll`), then enqueue,
    /// dispatch, and (if enabled) preemption. Returns whether the task was
    /// accepted plus the completion tokens of newly started segments.
    ///
    /// `job` is a bid (a [`TaskSpec`], which runs for its estimate) or a
    /// [`Job`] that carries its true runtime; admission sees only the bid.
    pub fn submit(&mut self, now: Time, job: impl Into<Job>) -> (bool, Vec<CompletionToken>) {
        let job = job.into();
        let spec = job.spec;
        self.metrics.note_submission(now);
        let infeasible = spec.width > self.capacity;
        // The admission decision is evaluated when the policy needs it —
        // and additionally, read-only, when a provenance tracer wants the
        // Eq. 7/8 decomposition that an `AcceptAll` site never computes.
        let decision = if infeasible {
            None
        } else if matches!(self.config.admission, AdmissionPolicy::AcceptAll) {
            self.tracer
                .is_provenance()
                .then(|| self.evaluate(now, spec))
        } else {
            Some(self.evaluate(now, spec))
        };
        let accept = !infeasible
            && match self.config.admission {
                // Wider-than-site tasks are infeasible regardless of policy.
                AdmissionPolicy::AcceptAll => true,
                _ => decision.as_ref().is_some_and(|d| d.accept),
            };
        if self.tracer.is_provenance() {
            let ev = self.admission_decision_event(now, spec, decision.as_ref(), accept);
            self.tracer.emit(ev);
        }
        self.trace(
            now,
            Some(spec.id),
            TraceKind::TaskArrived { accepted: accept },
        );
        if !accept {
            self.metrics.rejected += 1;
            self.outcomes.push(JobOutcome {
                id: spec.id,
                disposition: Disposition::Rejected,
                finished_at: None,
                earned: 0.0,
                delay: 0.0,
                preemptions: 0,
            });
            self.audit_check(now);
            return (false, Vec::new());
        }
        let tokens = self.accept(now, job);
        (true, tokens)
    }

    /// Commits an already-negotiated task (the market layer calls this
    /// after the client picks this site's bid), bypassing re-evaluation.
    /// `job` is taken as [`submit`](Self::submit) takes it.
    pub fn accept(&mut self, now: Time, job: impl Into<Job>) -> Vec<CompletionToken> {
        let job = job.into();
        assert!(
            job.spec.width <= self.capacity,
            "{} requests {} processors but the site has {}",
            job.spec.id,
            job.spec.width,
            self.capacity
        );
        self.metrics.accepted += 1;
        self.pending.push(job);
        let mut tokens = self.dispatch(now);
        if self.config.preemption {
            tokens.extend(self.try_preempt(now));
        }
        self.audit_check(now);
        tokens
    }

    /// Records a submission that was offered to this site but placed
    /// elsewhere (keeps market-level acceptance ratios meaningful).
    pub fn note_offer(&mut self, now: Time) {
        self.metrics.note_submission(now);
    }

    /// Withdraws a *queued* task (the daemon's `/cancel`). Running or
    /// already-finished tasks are not cancellable — returns `false` and
    /// leaves them untouched. The site earns nothing for a cancelled
    /// task.
    pub fn cancel_pending(&mut self, now: Time, id: mbts_workload::TaskId) -> bool {
        let Some(idx) = self.pending.jobs().iter().position(|j| j.id() == id) else {
            return false;
        };
        let job = self.pending.swap_remove(idx);
        self.metrics.cancelled += 1;
        self.trace(now, Some(job.id()), TraceKind::Cancelled);
        self.outcomes.push(JobOutcome {
            id: job.id(),
            disposition: Disposition::Cancelled,
            finished_at: Some(now),
            earned: 0.0,
            delay: job.spec.delay_at(now).as_f64(),
            preemptions: job.preemptions,
        });
        self.audit_check(now);
        true
    }

    /// Handles a completion token. Stale tokens (the segment was
    /// preempted) are ignored. Returns tokens for any newly dispatched
    /// segments.
    pub fn on_completion(&mut self, now: Time, token: CompletionToken) -> Vec<CompletionToken> {
        self.on_completion_detailed(now, token).1
    }

    /// Like [`on_completion`](Self::on_completion) but also returns the
    /// completed task's outcome (if the token was fresh) — the market
    /// layer uses it to settle the task's contract.
    pub fn on_completion_detailed(
        &mut self,
        now: Time,
        token: CompletionToken,
    ) -> (Option<JobOutcome>, Vec<CompletionToken>) {
        let Some(idx) = self.running.iter().position(|r| r.epoch == token.epoch) else {
            return (None, Vec::new()); // stale: the segment was preempted
        };
        let Running {
            mut job, started, ..
        } = self.running.swap_remove(idx);
        self.free_procs += job.spec.width;
        job.advance(now - started);
        debug_assert!(
            job.true_rpt.as_f64() < 1e-6,
            "completion fired with {} true work left",
            job.true_rpt
        );
        let earned = job.spec.yield_at(now);
        let delay = job.spec.delay_at(now);
        self.metrics.completed += 1;
        self.metrics.note_finish(now, earned);
        self.metrics.delay.push(delay.as_f64());
        self.trace(
            now,
            Some(job.id()),
            TraceKind::Completed {
                earned,
                delay: delay.as_f64(),
                width: job.spec.width,
                preemptions: job.preemptions,
            },
        );
        let outcome = JobOutcome {
            id: job.id(),
            disposition: Disposition::Completed,
            finished_at: Some(now),
            earned,
            delay: delay.as_f64(),
            preemptions: job.preemptions,
        };
        self.earned_recorded += outcome.earned;
        self.outcomes.push(outcome);
        let tokens = self.dispatch(now);
        self.audit_check(now);
        (Some(outcome), tokens)
    }

    /// Consumes the site, producing the final outcome (per-job records
    /// sorted by task id).
    pub fn into_outcome(mut self) -> SiteOutcome {
        // Unstable, so in place: a site run records each task once.
        self.outcomes.sort_unstable_by_key(|o| o.id);
        debug_assert!(
            self.outcomes.windows(2).all(|w| w[0].id < w[1].id),
            "a site run recorded a task twice"
        );
        SiteOutcome {
            metrics: self.metrics,
            outcomes: self.outcomes,
            violations: self.violations,
            workflows: None,
        }
    }

    /// Fills idle processors from the pending queue, best score first,
    /// with EASY backfilling when the best task's gang does not fit.
    ///
    /// The head of line is the pool's `(score, lowest id)` argmax, and
    /// the full per-job score vector is materialized only if the
    /// backfill scan needs it.
    fn dispatch(&mut self, now: Time) -> Vec<CompletionToken> {
        let mut tokens = Vec::new();
        loop {
            if self.config.drop_expired {
                self.drop_expired_pending(now);
            }
            if self.free_procs == 0 {
                break;
            }
            let Some(best) = self.pending.select_best(now) else {
                break;
            };
            let width = self.pending.jobs()[best].spec.width;
            if width <= self.free_procs {
                let job = self.pending.swap_remove(best);
                tokens.push(self.start(job, now, false));
                continue;
            }
            if !self.config.backfilling {
                break;
            }
            // The head-of-line gang does not fit: reserve its start and
            // backfill around it.
            let reserve_at = self.reservation_time(width, now);
            let scores = self.pending.scores(now);
            let mut fill: Option<usize> = None;
            for (i, job) in self.pending.jobs().iter().enumerate() {
                if i == best || job.spec.width > self.free_procs {
                    continue;
                }
                // EASY condition: must not delay the reservation.
                if now + job.rpt > reserve_at {
                    continue;
                }
                let better = match fill {
                    None => true,
                    Some(f) => {
                        scores[i] > scores[f]
                            || (scores[i] == scores[f]
                                && self.pending.jobs()[i].id() < self.pending.jobs()[f].id())
                    }
                };
                if better {
                    fill = Some(i);
                }
            }
            let Some(fill) = fill else {
                break;
            };
            let job = self.pending.swap_remove(fill);
            self.metrics.backfills += 1;
            tokens.push(self.start(job, now, true));
        }
        tokens
    }

    /// Earliest instant at which `width` processors are expected to be
    /// simultaneously free, per the running gangs' runtime estimates.
    fn reservation_time(&self, width: usize, now: Time) -> Time {
        let mut completions: Vec<(Time, usize)> = self
            .running
            .iter()
            .map(|r| (now + r.remaining_estimate(now), r.job.spec.width))
            .collect();
        completions.sort_by_key(|a| a.0);
        let mut avail = self.free_procs;
        for (at, w) in completions {
            if avail >= width {
                break;
            }
            avail += w;
            if avail >= width {
                return at;
            }
        }
        if avail >= width {
            now
        } else {
            // Unreachable in practice: submit() rejects width > processors.
            Time::INFINITY
        }
    }

    /// Decision diagnostics for a `Scheduled` trace event: the started
    /// job's Eq. 3 present value, its Eq. 8 opportunity cost against the
    /// tasks left behind in the queue, the resulting Eq. 7 slack, and
    /// its 1-based rank under the site policy at start time. Read-only —
    /// scores are computed against a throwaway cost model (never the
    /// pool's lazily maintained one), so tracing cannot perturb replay.
    fn schedule_event(&self, job: &Job, now: Time, backfill: bool) -> TraceEvent {
        let ScoreDecomposition { pv, cost, slack } = decompose(
            self.config.admission_discount_rate,
            now,
            job,
            self.pending.jobs(),
        );
        let competing = self.pending.jobs().iter().chain(Some(job));
        let model = self
            .config
            .policy
            .needs_cost_model()
            .then(|| CostModel::build(now, competing));
        let ctx = match &model {
            Some(m) => ScoreCtx::with_cost(now, m),
            None => ScoreCtx::simple(now),
        };
        let own = self.config.policy.score(job, &ctx);
        let rank = 1 + self
            .pending
            .jobs()
            .iter()
            .filter(|j| {
                let s = self.config.policy.score(j, &ctx);
                s > own || (s == own && j.id() < job.id())
            })
            .count();
        TraceEvent {
            at: now,
            task: Some(job.id()),
            site: None,
            kind: TraceKind::Scheduled {
                rank,
                pv,
                cost,
                slack: TraceEvent::finite(slack),
                width: job.spec.width,
                backfill,
            },
        }
    }

    /// Builds the provenance candidate list for one decision: maps the
    /// retained competing-set indexes through the pure explainers of
    /// `mbts-core`, keeping every chosen candidate plus the best-ranked
    /// others at index `first_eligible` or later, up to
    /// [`MAX_DECISION_CANDIDATES`], in rank order. Read-only, like
    /// [`schedule_event`](Self::schedule_event).
    fn provenance_candidates(
        &self,
        now: Time,
        competing: &[Job],
        chosen: &[usize],
        first_eligible: usize,
    ) -> Vec<DecisionCandidate> {
        let ex = explain_decision(&self.config.policy, now, competing);
        let mut keep: Vec<usize> = chosen.to_vec();
        for &idx in ex.ranked() {
            if keep.len() >= MAX_DECISION_CANDIDATES.max(chosen.len()) {
                break;
            }
            if idx >= first_eligible && !chosen.contains(&idx) {
                keep.push(idx);
            }
        }
        keep.sort_by_key(|&idx| ex.rank_of(idx));
        keep.into_iter()
            .map(|idx| {
                let others = competing[..idx].iter().chain(&competing[idx + 1..]);
                let d = decompose(
                    self.config.admission_discount_rate,
                    now,
                    &competing[idx],
                    others,
                );
                let facet = self.facet_of(competing[idx].id().0);
                DecisionCandidate {
                    rank: ex.rank_of(idx),
                    task: Some(competing[idx].id()),
                    site: None,
                    score: TraceEvent::finite(ex.score(idx)),
                    pv: TraceEvent::finite(d.pv),
                    cost: TraceEvent::finite(d.cost),
                    slack: TraceEvent::finite(d.slack),
                    workflow: facet.map(|f| f.workflow),
                    critical: facet.map(|f| f.critical),
                    chosen: chosen.contains(&idx),
                }
            })
            .collect()
    }

    /// Provenance record for a dispatch or backfill start: the pending
    /// queue plus the started job, ranked and decomposed.
    fn dispatch_decision_event(&self, job: &Job, now: Time, backfill: bool) -> TraceEvent {
        let mut competing: Vec<Job> = self.pending.jobs().to_vec();
        competing.push(job.clone());
        let chosen = competing.len() - 1;
        let candidates = self.provenance_candidates(now, &competing, &[chosen], 0);
        TraceEvent {
            at: now,
            task: Some(job.id()),
            site: None,
            kind: TraceKind::DecisionRecord {
                decision: if backfill {
                    DecisionKind::Backfill
                } else {
                    DecisionKind::Dispatch
                },
                considered: competing.len(),
                candidates,
            },
        }
    }

    /// Provenance record for the §6 admission verdict: one candidate
    /// whose score is the expected yield of accepting (the admission
    /// counterfactual `mbts analyze` reads regret from).
    fn admission_decision_event(
        &self,
        now: Time,
        spec: TaskSpec,
        decision: Option<&AdmissionDecision>,
        accept: bool,
    ) -> TraceEvent {
        let (score, pv, cost, slack) = match decision {
            Some(d) => (d.expected_yield, d.present_value, d.cost, d.slack),
            // Infeasible width: no candidate schedule exists.
            None => (0.0, 0.0, 0.0, f64::NEG_INFINITY),
        };
        let facet = self.facet_of(spec.id.0);
        TraceEvent {
            at: now,
            task: Some(spec.id),
            site: None,
            kind: TraceKind::DecisionRecord {
                decision: DecisionKind::Admission,
                considered: 1,
                candidates: vec![DecisionCandidate {
                    rank: 1,
                    task: Some(spec.id),
                    site: None,
                    score: TraceEvent::finite(score),
                    pv: TraceEvent::finite(pv),
                    cost: TraceEvent::finite(cost),
                    slack: TraceEvent::finite(slack),
                    workflow: facet.map(|f| f.workflow),
                    critical: facet.map(|f| f.critical),
                    chosen: accept,
                }],
            },
        }
    }

    /// Provenance record for a preemption round: the running gangs as
    /// candidates (ranked within queue ∪ running, the same competing set
    /// the victim scores were computed over), with `chosen` marking the
    /// victims and the event's task naming the preempting winner.
    fn preempt_decision_event(
        &self,
        now: Time,
        running_views: &[Job],
        chosen_running: &[usize],
        winner: mbts_workload::TaskId,
    ) -> TraceEvent {
        let base = self.pending.len();
        let mut competing: Vec<Job> = self.pending.jobs().to_vec();
        competing.extend(running_views.iter().cloned());
        let chosen: Vec<usize> = chosen_running.iter().map(|&ri| base + ri).collect();
        let candidates = self.provenance_candidates(now, &competing, &chosen, base);
        TraceEvent {
            at: now,
            task: Some(winner),
            site: None,
            kind: TraceKind::DecisionRecord {
                decision: DecisionKind::Preempt,
                considered: running_views.len(),
                candidates,
            },
        }
    }

    /// Starts `job` at `now`, consuming its gang's processors; returns the
    /// completion token.
    fn start(&mut self, mut job: Job, now: Time, backfill: bool) -> CompletionToken {
        let width = job.spec.width;
        assert!(width <= self.free_procs, "gang does not fit");
        if self.tracer.is_enabled() {
            if self.tracer.is_provenance() {
                let ev = self.dispatch_decision_event(&job, now, backfill);
                self.tracer.emit(ev);
            }
            let ev = self.schedule_event(&job, now, backfill);
            self.tracer.emit(ev);
        }
        self.free_procs -= width;
        if job.first_start.is_none() {
            job.first_start = Some(now);
        }
        self.epoch_counter += 1;
        let epoch = self.epoch_counter;
        let at = now + job.true_rpt;
        self.running.push(Running {
            job,
            started: now,
            epoch,
        });
        CompletionToken { at, epoch }
    }

    /// Discards pending tasks whose value function has fully decayed —
    /// they can be deferred for free, so a `drop_expired` site sheds them
    /// (earning the penalty floor) rather than ever running them.
    fn drop_expired_pending(&mut self, now: Time) {
        let mut i = 0;
        while i < self.pending.len() {
            let job = &self.pending.jobs()[i];
            let expired = !job.spec.bound.is_unbounded() && job.decay_window(now) == Duration::ZERO;
            if expired {
                let job = self.pending.swap_remove(i);
                let floor = job.spec.bound.floor();
                self.trace(now, Some(job.id()), TraceKind::Dropped { earned: floor });
                self.metrics.dropped += 1;
                self.metrics.note_finish(now, floor);
                self.earned_recorded += floor;
                self.outcomes.push(JobOutcome {
                    id: job.id(),
                    disposition: Disposition::Dropped,
                    finished_at: Some(now),
                    earned: floor,
                    delay: job.spec.delay_at(now).as_f64(),
                    preemptions: job.preemptions,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Arrival-triggered preemption (§4): while the best queued task
    /// outscores enough running gangs to free its width, suspend them and
    /// start it. Scores are evaluated at `now` over the union of the queue
    /// and the running tasks' current states, so opportunity-cost terms
    /// see the full competing set. Bounded iterations guarantee
    /// termination.
    fn try_preempt(&mut self, now: Time) -> Vec<CompletionToken> {
        let mut tokens = Vec::new();
        let max_rounds = self.pending.len() + self.running.len() + self.capacity + 1;
        for _ in 0..max_rounds {
            // Start whatever fits outright (including backfills) first.
            tokens.extend(self.dispatch(now));
            if self.pending.is_empty() || self.running.is_empty() {
                break;
            }
            // One model over queue + running views: every candidate's
            // competing set is "everyone else at this site".
            let running_views: Vec<Job> = self.running.iter().map(|r| r.view(now)).collect();
            let model = self.config.policy.needs_cost_model().then(|| {
                let mut all: Vec<Job> = self.pending.jobs().to_vec();
                all.extend(running_views.iter().cloned());
                CostModel::build(now, &all)
            });
            let ctx = match &model {
                Some(m) => ScoreCtx::with_cost(now, m),
                None => ScoreCtx::simple(now),
            };
            let best_idx = self
                .config
                .policy
                .select(self.pending.jobs(), &ctx)
                .expect("pending non-empty");
            let best_score = self
                .config
                .policy
                .score(&self.pending.jobs()[best_idx], &ctx);
            let need = self.pending.jobs()[best_idx].spec.width;

            // Victims: strictly lower-scoring running gangs, weakest
            // first, until the incoming gang fits.
            let mut victims: Vec<(usize, f64)> = running_views
                .iter()
                .enumerate()
                .map(|(i, v)| (i, self.config.policy.score(v, &ctx)))
                .filter(|(_, s)| *s < best_score)
                .collect();
            victims.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut chosen: Vec<usize> = Vec::new();
            let mut avail = self.free_procs;
            for (ri, _) in &victims {
                if avail >= need {
                    break;
                }
                avail += self.running[*ri].job.spec.width;
                chosen.push(*ri);
            }
            if avail < need || chosen.is_empty() {
                break;
            }
            if self.tracer.is_provenance() {
                let winner = self.pending.jobs()[best_idx].id();
                let ev = self.preempt_decision_event(now, &running_views, &chosen, winner);
                self.tracer.emit(ev);
            }
            // Suspend the victims back into the queue (descending index
            // keeps the remaining indices valid under swap_remove)…
            chosen.sort_unstable_by(|a, b| b.cmp(a));
            for ri in chosen {
                let Running {
                    mut job, started, ..
                } = self.running.swap_remove(ri);
                self.free_procs += job.spec.width;
                job.advance(now - started);
                job.preemptions += 1;
                self.metrics.preemptions += 1;
                let (id, width) = (job.id(), job.spec.width);
                self.trace(now, Some(id), TraceKind::Preempted { width });
                self.pending.push(job);
            }
            // …and start the winner in their place.
            let winner = self.pending.swap_remove(best_idx);
            tokens.push(self.start(winner, now, false));
        }
        tokens
    }

    /// A fault kills up to `n` processors at `now`. Idle processors die
    /// first; if more must go, running gangs are evicted back into the
    /// queue (most recently started first, so the gang with the least
    /// sunk work absorbs the hit), to restart from scratch. An evicted
    /// gang's surviving processors become free; its completion token goes
    /// stale via the epoch counter. The
    /// decay clocks of evicted tasks keep running — crash delay is real
    /// delay. Returns how many processors actually died (bounded by the
    /// current capacity; the site may end at zero capacity, in which
    /// state every submission is rejected until a repair).
    pub fn crash(&mut self, n: usize, now: Time) -> usize {
        let dead = n.min(self.capacity);
        if dead == 0 {
            return 0;
        }
        self.trace(now, None, TraceKind::Crashed { procs: dead });
        self.metrics.crashed_procs += dead as u64;
        let idle = dead.min(self.free_procs);
        self.free_procs -= idle;
        self.capacity -= idle;
        let mut still = dead - idle;
        while still > 0 {
            let victim = self
                .running
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.epoch)
                .map(|(i, _)| i)
                .expect("processors still owed but nothing is running");
            let Running { mut job, .. } = self.running.swap_remove(victim);
            let width = job.spec.width;
            job.rpt = job.spec.runtime;
            job.true_rpt = job.true_runtime;
            job.preemptions += 1;
            self.metrics.preemptions += 1;
            self.metrics.evictions += 1;
            let id = job.id();
            self.trace(now, Some(id), TraceKind::Requeued { width });
            self.pending.push(job);
            // Of the gang's released processors, `died` go down with the
            // fault and the rest return to the free pool.
            let died = still.min(width);
            self.capacity -= died;
            self.free_procs += width - died;
            still -= died;
        }
        self.audit_check(now);
        dead
    }

    /// A repair restores `n` processors; queued work dispatches onto
    /// them immediately. The returned tokens are the new run segments.
    pub fn repair(&mut self, n: usize, now: Time) -> Vec<CompletionToken> {
        if n == 0 {
            return Vec::new();
        }
        self.trace(now, None, TraceKind::Repaired { procs: n });
        self.metrics.repaired_procs += n as u64;
        self.capacity += n;
        self.free_procs += n;
        let tokens = self.dispatch(now);
        self.audit_check(now);
        tokens
    }

    /// Captures the complete replayable state of the site at an event
    /// boundary. Restoring via [`from_snapshot`](Self::from_snapshot)
    /// yields a site whose every future decision — dispatch order,
    /// backfill picks, preemption victims, yield accounting down to the
    /// last Kahan-compensation bit — is identical to this one's.
    ///
    /// The capture borrows the site's records and tracer stream rather
    /// than copying them: it is a [`SiteSnapshot`]'s text, written from
    /// the live state. The tracer is captured as a [`TracerSnapshot`];
    /// file-backed sinks serialize as detached (the resuming caller
    /// re-attaches a stream).
    pub fn snapshot(&self) -> SiteSnapshotRef<'_> {
        SiteSnapshotRef {
            config: &self.config,
            capacity: self.capacity,
            pending: self.pending.checkpoint(),
            running: self
                .running
                .iter()
                .map(|r| (&r.job, r.started, r.epoch))
                .collect(),
            free_procs: self.free_procs,
            epoch_counter: self.epoch_counter,
            metrics: &self.metrics,
            outcomes: &self.outcomes,
            earned_recorded: self.earned_recorded,
            violations: &self.violations,
            tracer: self.tracer.snapshot(),
        }
    }

    /// Rebuilds a site from the text of a [`snapshot`](Self::snapshot),
    /// read back as a [`SiteSnapshot`]. The pending
    /// pool is reconstructed in slot order (so `swap_remove` indices
    /// replay exactly) and its decay accumulator is overwritten with the
    /// checkpointed Kahan state rather than re-summed.
    pub fn from_snapshot(snap: SiteSnapshot) -> Self {
        SiteState {
            config: snap.config,
            capacity: snap.capacity,
            pending: PendingPool::from_checkpoint(snap.pending),
            running: snap
                .running
                .into_iter()
                .map(|(job, started, epoch)| Running {
                    job,
                    started,
                    epoch,
                })
                .collect(),
            free_procs: snap.free_procs,
            epoch_counter: snap.epoch_counter,
            metrics: snap.metrics,
            outcomes: snap.outcomes,
            earned_recorded: snap.earned_recorded,
            violations: snap.violations,
            tracer: Tracer::from_snapshot(snap.tracer),
        }
    }
}

/// A [`SiteState`] at an event boundary as [`SiteState::snapshot`] writes
/// it: the borrowed writer of a [`SiteSnapshot`]'s text, field for field.
/// Only live work (the queue and the running gangs) is copied into it;
/// the records, which grow with the site's history, are borrowed.
#[derive(Debug, Serialize)]
pub struct SiteSnapshotRef<'a> {
    config: &'a SiteConfig,
    capacity: usize,
    pending: PoolCheckpoint,
    running: Vec<(&'a Job, Time, u64)>,
    free_procs: usize,
    epoch_counter: u64,
    metrics: &'a SiteMetrics,
    outcomes: &'a [JobOutcome],
    earned_recorded: f64,
    violations: &'a [AuditViolation],
    tracer: TracerSnapshotRef<'a>,
}

/// Serializable image of a [`SiteState`] at an event boundary — the
/// per-site payload of the durable-recovery layer's snapshot records, read
/// back from the text [`SiteState::snapshot`] writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSnapshot {
    /// The site configuration (policies, modes, toggles).
    pub config: SiteConfig,
    /// Current capacity.
    pub capacity: usize,
    /// The queue, including the cost model's exact accumulator state.
    pub pending: PoolCheckpoint,
    /// Running gangs as `(job, started, epoch)` in slot order.
    pub running: Vec<(Job, Time, u64)>,
    /// Idle processors.
    pub free_procs: usize,
    /// Assignment-epoch counter (stale-token invalidation).
    pub epoch_counter: u64,
    /// Aggregate counters and statistics.
    pub metrics: SiteMetrics,
    /// Per-job outcome records so far.
    pub outcomes: Vec<JobOutcome>,
    /// Yield re-derived from outcome records (conservation cross-check).
    pub earned_recorded: f64,
    /// Conservation-audit failures recorded so far.
    pub violations: Vec<AuditViolation>,
    /// The tracer cursor.
    pub tracer: TracerSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::PenaltyBound;

    fn spec(id: u64, arrival: f64, runtime: f64, value: f64, decay: f64) -> TaskSpec {
        TaskSpec::new(id, arrival, runtime, value, decay, PenaltyBound::UNBOUNDED)
    }

    fn drain(site: &mut SiteState, mut tokens: Vec<CompletionToken>) -> Time {
        // Minimal event loop for tests: process tokens in time order.
        let mut last = Time::ZERO;
        while !tokens.is_empty() {
            tokens.sort_by_key(|t| std::cmp::Reverse(t.at));
            let tok = tokens.pop().unwrap();
            last = tok.at;
            tokens.extend(site.on_completion(tok.at, tok));
        }
        last
    }

    #[test]
    fn single_task_lifecycle() {
        let mut site = SiteState::new(SiteConfig::new(1));
        let (ok, tokens) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 1.0));
        assert!(ok);
        assert_eq!(tokens.len(), 1);
        assert_eq!(tokens[0].at, Time::from(10.0));
        assert_eq!(site.running_len(), 1);
        let end = drain(&mut site, tokens);
        assert_eq!(end, Time::from(10.0));
        assert!(site.is_quiescent());
        let m = site.metrics();
        assert_eq!(m.completed, 1);
        assert_eq!(m.total_yield, 100.0);
        assert_eq!(m.delay.mean(), 0.0);
    }

    #[test]
    fn fifo_queueing_on_one_processor() {
        let mut site = SiteState::new(SiteConfig::new(1).with_policy(Policy::Fcfs));
        let (_, mut t) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 1.0));
        let (_, t2) = site.submit(Time::ZERO, spec(1, 0.0, 10.0, 100.0, 2.0));
        assert!(t2.is_empty(), "second task queues");
        assert_eq!(site.pending_len(), 1);
        t.extend(t2);
        drain(&mut site, t);
        let m = site.metrics();
        assert_eq!(m.completed, 2);
        // Task 1 completed at 20 with delay 10 → yield 100 − 20 = 80.
        assert_eq!(m.total_yield, 180.0);
    }

    #[test]
    fn two_processors_run_in_parallel() {
        let mut site = SiteState::new(SiteConfig::new(2));
        let (_, mut t) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 1.0));
        let (_, t2) = site.submit(Time::ZERO, spec(1, 0.0, 10.0, 100.0, 1.0));
        assert_eq!(t2.len(), 1);
        t.extend(t2);
        let end = drain(&mut site, t);
        assert_eq!(end, Time::from(10.0));
        assert_eq!(site.metrics().total_yield, 200.0);
    }

    #[test]
    fn first_price_picks_highest_unit_gain() {
        let mut site = SiteState::new(SiteConfig::new(1).with_policy(Policy::FirstPrice));
        // Occupy the processor, then queue two competitors.
        let (_, t) = site.submit(Time::ZERO, spec(0, 0.0, 5.0, 10.0, 0.1));
        assert!(site.submit(Time::ZERO, spec(1, 0.0, 10.0, 50.0, 0.1)).0);
        assert!(site.submit(Time::ZERO, spec(2, 0.0, 10.0, 500.0, 0.1)).0);
        drain(&mut site, t);
        let out = site.clone().into_outcome();
        // Task 2 (unit gain 50) must run before task 1 (unit gain 5):
        let f1 = out.outcomes[1].finished_at.unwrap();
        let f2 = out.outcomes[2].finished_at.unwrap();
        assert!(f2 < f1, "high unit gain finishes first");
    }

    #[test]
    fn preemption_suspends_lower_priority_work() {
        let cfg = SiteConfig::new(1)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let mut site = SiteState::new(cfg);
        // Low-value long task starts…
        let (_, t1) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 100.0, 0.1));
        assert_eq!(t1.len(), 1);
        // …then a high-unit-gain task arrives at t = 10 and preempts.
        let (_, t2) = site.submit(Time::from(10.0), spec(1, 10.0, 5.0, 500.0, 0.1));
        assert_eq!(t2.len(), 1, "preemption starts the new task");
        assert_eq!(site.metrics().preemptions, 1);
        assert_eq!(site.pending_len(), 1, "victim re-queued");
        // The victim's original completion token (t = 100) is now stale.
        let mut all = t1;
        all.extend(t2);
        drain(&mut site, all);
        assert!(site.is_quiescent());
        let out = site.clone().into_outcome();
        assert_eq!(out.outcomes[0].preemptions, 1);
        // Victim ran 10, was suspended 5, resumed: completes at 105.
        assert_eq!(out.outcomes[0].finished_at.unwrap(), Time::from(105.0));
        assert_eq!(out.outcomes[1].finished_at.unwrap(), Time::from(15.0));
        // Yields: task 1 on time → 500 (delay 0); task 0 delay 5 → 99.5.
        assert!((out.outcomes[1].earned - 500.0).abs() < 1e-9);
        assert!((out.outcomes[0].earned - 99.5).abs() < 1e-9);
    }

    #[test]
    fn no_preemption_when_disabled() {
        let cfg = SiteConfig::new(1).with_policy(Policy::FirstPrice);
        let mut site = SiteState::new(cfg);
        let (_, t1) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 100.0, 0.1));
        let (_, t2) = site.submit(Time::from(10.0), spec(1, 10.0, 5.0, 500.0, 0.1));
        assert!(t2.is_empty());
        assert_eq!(site.metrics().preemptions, 0);
        let mut all = t1;
        all.extend(t2);
        drain(&mut site, all);
        let out = site.clone().into_outcome();
        assert_eq!(out.outcomes[0].finished_at.unwrap(), Time::from(100.0));
        assert_eq!(out.outcomes[1].finished_at.unwrap(), Time::from(105.0));
    }

    #[test]
    fn equal_priority_does_not_preempt() {
        let cfg = SiteConfig::new(1)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let mut site = SiteState::new(cfg);
        site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 0.0));
        // Identical unit gain arriving later: no preemption.
        let (_, t2) = site.submit(Time::ZERO, spec(1, 0.0, 10.0, 100.0, 0.0));
        assert!(t2.is_empty());
        assert_eq!(site.metrics().preemptions, 0);
    }

    #[test]
    fn slack_admission_rejects_overload() {
        let cfg = SiteConfig::new(1)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 100.0 });
        let mut site = SiteState::new(cfg);
        // Slack of a lone task: PV/decay ≈ (100/1.1)/0.5 ≈ 181 > 100 → accept.
        let (ok, _) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 0.5));
        assert!(ok);
        // Pile on identical tasks; each queues behind more work, slack
        // shrinks, eventually rejected.
        let mut accepted = 1;
        let mut rejected = 0;
        for i in 1..20 {
            let (ok, _) = site.submit(Time::ZERO, spec(i, 0.0, 10.0, 100.0, 0.5));
            if ok {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted > 1, "some backlog accepted");
        assert!(rejected > 0, "overload eventually rejected");
        assert_eq!(site.metrics().rejected, rejected);
        // Once rejecting, it keeps rejecting identical tasks (slack only
        // shrinks as the queue grows — monotone backlog).
        let (ok, _) = site.submit(Time::ZERO, spec(99, 0.0, 10.0, 100.0, 0.5));
        assert!(!ok);
    }

    #[test]
    fn rejected_tasks_do_not_run() {
        let cfg = SiteConfig::new(1).with_admission(AdmissionPolicy::SlackThreshold {
            threshold: f64::INFINITY,
        });
        let mut site = SiteState::new(cfg);
        let (ok, tokens) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 0.5));
        assert!(!ok);
        assert!(tokens.is_empty());
        assert!(site.is_quiescent());
        let out = site.clone().into_outcome();
        assert_eq!(out.outcomes[0].disposition, Disposition::Rejected);
        assert_eq!(out.metrics.rejected, 1);
        assert_eq!(out.metrics.total_yield, 0.0);
    }

    #[test]
    fn drop_expired_sheds_dead_tasks() {
        let cfg = SiteConfig::new(1)
            .with_policy(Policy::FirstPrice)
            .with_drop_expired(true);
        let mut site = SiteState::new(cfg);
        // Occupy the processor for a long time.
        let (_, t1) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 1000.0, 0.0));
        // Queue a task that expires at t = 2 + 10/10 = 3 (bounded at 0).
        let dying = TaskSpec::new(1, 0.0, 2.0, 10.0, 10.0, PenaltyBound::ZERO);
        site.submit(Time::ZERO, dying);
        assert_eq!(site.pending_len(), 1);
        // At the long task's completion (t = 100) the dying task is long
        // expired: dispatch drops it instead of running it.
        drain(&mut site, t1);
        let m = site.metrics();
        assert_eq!(m.completed, 1);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.total_yield, 1000.0, "drop earns the zero floor");
        assert!(site.is_quiescent());
    }

    #[test]
    fn without_drop_expired_dead_tasks_still_run() {
        let cfg = SiteConfig::new(1).with_policy(Policy::FirstPrice);
        let mut site = SiteState::new(cfg);
        let (_, t1) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 1000.0, 0.0));
        let dying = TaskSpec::new(1, 0.0, 2.0, 10.0, 10.0, PenaltyBound::ZERO);
        site.submit(Time::ZERO, dying);
        drain(&mut site, t1);
        assert_eq!(site.metrics().completed, 2);
        assert_eq!(site.metrics().dropped, 0);
        assert_eq!(site.metrics().total_yield, 1000.0, "expired task earns 0");
    }

    #[test]
    fn free_times_reflect_running_estimates() {
        let mut site = SiteState::new(SiteConfig::new(2));
        site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 1.0));
        let mut free = site.free_times(Time::from(4.0));
        free.sort();
        assert_eq!(free, vec![Time::from(4.0), Time::from(10.0)]);
    }

    #[test]
    fn stale_tokens_are_ignored() {
        let cfg = SiteConfig::new(1)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let mut site = SiteState::new(cfg);
        let (_, t1) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 100.0, 0.1));
        site.submit(Time::from(10.0), spec(1, 10.0, 5.0, 500.0, 0.1));
        // Victim's original token fires at t=100 but its epoch is stale.
        let out = site.on_completion(t1[0].at, t1[0]);
        assert!(out.is_empty());
        assert_eq!(site.metrics().completed, 0);
    }

    #[test]
    fn misestimated_runtime_completes_at_true_time() {
        let s = spec(0, 0.0, 10.0, 100.0, 1.0);
        let mut site = SiteState::new(SiteConfig::new(1));
        let (_, t) = site.submit(Time::ZERO, Job::with_true_runtime(s, Duration::from(15.0)));
        assert_eq!(t[0].at, Time::from(15.0));
        drain(&mut site, t);
        let out = site.clone().into_outcome();
        // Yield per the *negotiated* (estimate-anchored) value function:
        // earliest = 10, completion 15, delay 5 → 95.
        assert!((out.outcomes[0].earned - 95.0).abs() < 1e-9);
    }

    /// A crash evicts a running job and requeues it from the start: its
    /// true runtime, which its bid does not carry, runs again in full.
    #[test]
    fn a_crash_evicted_job_runs_its_whole_true_runtime_again() {
        let s = spec(0, 0.0, 10.0, 100.0, 1.0);
        let mut site = SiteState::new(SiteConfig::new(1));
        let (_, t) = site.submit(Time::ZERO, Job::with_true_runtime(s, Duration::from(15.0)));
        assert_eq!(t[0].at, Time::from(15.0));
        assert_eq!(site.crash(1, Time::from(5.0)), 1);
        let t = site.repair(1, Time::from(7.0));
        assert_eq!(t[0].at, Time::from(22.0));
    }

    #[test]
    fn evaluate_is_pure() {
        let site = SiteState::new(SiteConfig::new(1));
        let d = site.evaluate(Time::ZERO, spec(0, 0.0, 10.0, 100.0, 0.5));
        assert!(d.accept);
        assert_eq!(site.pending_len(), 0);
        assert_eq!(site.metrics().submitted, 0);
    }

    #[test]
    fn first_reward_dispatch_works_end_to_end() {
        let cfg = SiteConfig::new(2).with_policy(Policy::first_reward(0.3, 0.01));
        let mut site = SiteState::new(cfg);
        let mut tokens = Vec::new();
        for i in 0..20 {
            let (_, t) = site.submit(
                Time::from(i as f64),
                spec(i as u64, i as f64, 5.0, 50.0, 0.2 + (i % 5) as f64 * 0.3),
            );
            tokens.extend(t);
            // Interleave completions that are due.
            tokens.sort_by_key(|t| std::cmp::Reverse(t.at));
            while tokens.last().is_some_and(|t| t.at <= Time::from(i as f64)) {
                let tok = tokens.pop().unwrap();
                tokens.extend(site.on_completion(tok.at, tok));
            }
        }
        drain(&mut site, tokens);
        assert!(site.is_quiescent());
        assert_eq!(site.metrics().completed, 20);
    }

    // ---- gang scheduling & backfilling ----

    fn wide(id: u64, arrival: f64, runtime: f64, value: f64, width: usize) -> TaskSpec {
        spec(id, arrival, runtime, value, 0.1).with_width(width)
    }

    #[test]
    fn gang_occupies_its_width() {
        let mut site = SiteState::new(SiteConfig::new(4));
        let (_, t) = site.submit(Time::ZERO, wide(0, 0.0, 10.0, 100.0, 3));
        assert_eq!(t.len(), 1);
        assert_eq!(site.running_len(), 3);
        assert_eq!(site.free_processors(), 1);
        assert_eq!(site.running_tasks(), 1);
        drain(&mut site, t);
        assert_eq!(site.free_processors(), 4);
    }

    #[test]
    fn too_wide_tasks_are_rejected_even_under_accept_all() {
        let mut site = SiteState::new(SiteConfig::new(4));
        let (ok, tokens) = site.submit(Time::ZERO, wide(0, 0.0, 10.0, 100.0, 5));
        assert!(!ok);
        assert!(tokens.is_empty());
        assert_eq!(site.metrics().rejected, 1);
    }

    #[test]
    fn gangs_queue_until_width_fits() {
        let mut site = SiteState::new(SiteConfig::new(4).with_policy(Policy::Fcfs));
        let (_, mut t) = site.submit(Time::ZERO, wide(0, 0.0, 10.0, 100.0, 3));
        // A 2-wide gang cannot start (only 1 free).
        let (ok, t2) = site.submit(Time::ZERO, wide(1, 0.0, 10.0, 100.0, 2));
        assert!(ok);
        assert!(t2.is_empty());
        assert_eq!(site.pending_len(), 1);
        t.extend(t2);
        drain(&mut site, t);
        let out = site.clone().into_outcome();
        // Second gang starts when the first finishes: completes at 20.
        assert_eq!(out.outcomes[1].finished_at.unwrap(), Time::from(20.0));
    }

    #[test]
    fn easy_backfilling_fills_holes_without_delaying_the_reservation() {
        // FCFS on 4 procs: a 3-wide gang runs (10 t.u.), a 4-wide gang is
        // head-of-line (reserved at t=10), a short 1-wide task (3 t.u.)
        // backfills into the idle processor because it finishes before the
        // reservation.
        let mut site = SiteState::new(SiteConfig::new(4).with_policy(Policy::Fcfs));
        let (_, mut t) = site.submit(Time::ZERO, wide(0, 0.0, 10.0, 100.0, 3));
        let (_, t2) = site.submit(Time::ZERO, wide(1, 0.0, 10.0, 100.0, 4));
        assert!(t2.is_empty(), "4-wide gang must wait");
        let (_, t3) = site.submit(Time::ZERO, wide(2, 0.0, 3.0, 30.0, 1));
        assert_eq!(t3.len(), 1, "short narrow task backfills");
        assert_eq!(site.metrics().backfills, 1);
        t.extend(t2);
        t.extend(t3);
        drain(&mut site, t);
        let out = site.clone().into_outcome();
        assert_eq!(out.outcomes[2].finished_at.unwrap(), Time::from(3.0));
        // The reservation was not delayed: the 4-wide gang starts at 10.
        assert_eq!(out.outcomes[1].finished_at.unwrap(), Time::from(20.0));
    }

    #[test]
    fn backfill_refuses_jobs_that_would_delay_the_reservation() {
        let mut site = SiteState::new(SiteConfig::new(4).with_policy(Policy::Fcfs));
        let (_, t) = site.submit(Time::ZERO, wide(0, 0.0, 10.0, 100.0, 3));
        site.submit(Time::ZERO, wide(1, 0.0, 10.0, 100.0, 4));
        // 20-t.u. task would run past the t=10 reservation: must wait.
        let (ok, t3) = site.submit(Time::ZERO, wide(2, 0.0, 20.0, 30.0, 1));
        assert!(ok);
        assert!(t3.is_empty(), "long task must not backfill");
        assert_eq!(site.metrics().backfills, 0);
        drain(&mut site, t);
    }

    #[test]
    fn wide_preemption_evicts_enough_victims() {
        let cfg = SiteConfig::new(4)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let mut site = SiteState::new(cfg);
        // Four low-value singles occupy the site.
        let mut tokens = Vec::new();
        for i in 0..4 {
            let (_, t) = site.submit(Time::ZERO, wide(i, 0.0, 100.0, 10.0, 1));
            tokens.extend(t);
        }
        assert_eq!(site.free_processors(), 0);
        // A high-value 3-wide gang arrives and evicts three of them.
        let (_, t) = site.submit(Time::from(5.0), wide(9, 5.0, 10.0, 5000.0, 3));
        assert_eq!(t.len(), 1);
        assert_eq!(site.metrics().preemptions, 3);
        assert_eq!(site.pending_len(), 3);
        assert_eq!(site.free_processors(), 0);
        tokens.extend(t);
        drain(&mut site, tokens);
        assert!(site.is_quiescent());
        assert_eq!(site.metrics().completed, 5);
    }

    #[test]
    fn preemption_does_not_evict_when_not_enough_weak_victims() {
        let cfg = SiteConfig::new(2)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let mut site = SiteState::new(cfg);
        // One weak and one strong single running.
        site.submit(Time::ZERO, wide(0, 0.0, 100.0, 1.0, 1));
        site.submit(Time::ZERO, wide(1, 0.0, 100.0, 100_000.0, 1));
        // A 2-wide gang that outscores only the weak task: cannot free 2
        // procs from strictly-weaker victims, so nothing is preempted.
        let (_, t) = site.submit(Time::from(1.0), wide(2, 1.0, 10.0, 500.0, 2));
        assert!(t.is_empty());
        assert_eq!(site.metrics().preemptions, 0);
        assert_eq!(site.pending_len(), 1);
    }
}

#[cfg(test)]
mod backfill_toggle_tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::PenaltyBound;

    fn wide(id: u64, runtime: f64, width: usize) -> TaskSpec {
        TaskSpec::new(id, 0.0, runtime, 100.0, 0.1, PenaltyBound::UNBOUNDED).with_width(width)
    }

    #[test]
    fn disabling_backfilling_enforces_strict_order() {
        let mut site = SiteState::new(
            SiteConfig::new(4)
                .with_policy(Policy::Fcfs)
                .with_backfilling(false),
        );
        site.submit(Time::ZERO, wide(0, 10.0, 3));
        site.submit(Time::ZERO, wide(1, 10.0, 4)); // head of line, blocked
        let (ok, t3) = site.submit(Time::ZERO, wide(2, 3.0, 1));
        assert!(ok);
        assert!(t3.is_empty(), "no backfilling: short task waits in line");
        assert_eq!(site.metrics().backfills, 0);
        assert_eq!(site.pending_len(), 2);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::PenaltyBound;

    fn spec(id: u64, arrival: f64, runtime: f64, value: f64) -> TaskSpec {
        TaskSpec::new(id, arrival, runtime, value, 0.1, PenaltyBound::UNBOUNDED)
    }

    fn drain(site: &mut SiteState, mut tokens: Vec<CompletionToken>) {
        while !tokens.is_empty() {
            tokens.sort_by_key(|t| std::cmp::Reverse(t.at));
            let tok = tokens.pop().unwrap();
            tokens.extend(site.on_completion(tok.at, tok));
        }
    }

    #[test]
    fn crash_takes_idle_processors_first() {
        let mut site = SiteState::new(SiteConfig::new(4));
        let (_, t) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0));
        assert_eq!(site.free_processors(), 3);
        // Two idle processors die; the running task is untouched.
        assert_eq!(site.crash(2, Time::from(1.0)), 2);
        assert_eq!(site.capacity(), 2);
        assert_eq!(site.free_processors(), 1);
        assert_eq!(site.metrics().evictions, 0);
        assert_eq!(site.metrics().crashed_procs, 2);
        drain(&mut site, t);
        assert_eq!(site.metrics().completed, 1);
        assert!(site.violations().is_empty());
    }

    /// A crash can leave a queued gang wider than the processors still
    /// up. Quoting a bid lays the whole queue out, so until a repair the
    /// site quotes nothing instead of failing the layout.
    #[test]
    fn a_gang_wider_than_the_live_site_stops_quotes_until_a_repair() {
        let mut site = SiteState::new(SiteConfig::new(4));
        let (_, t) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0));
        let (queued, _) = site.submit(Time::ZERO, spec(1, 0.0, 10.0, 100.0).with_width(4));
        assert!(queued);
        assert_eq!(site.crash(1, Time::from(1.0)), 1);
        assert_eq!(site.capacity(), 3);
        let bid = spec(2, 1.0, 5.0, 50.0);
        assert!(!site.evaluate(Time::from(1.0), bid).accept);
        assert!(site.repair(1, Time::from(2.0)).is_empty());
        assert!(site.evaluate(Time::from(2.0), bid).accept);
        drain(&mut site, t);
        assert!(site.violations().is_empty());
    }

    #[test]
    fn crash_evicts_running_work_and_restart_loses_progress() {
        let mut site = SiteState::new(SiteConfig::new(1));
        let (_, t) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 1000.0));
        // The lone processor dies at t = 40: the task restarts from
        // scratch once a repair restores capacity at t = 50.
        assert_eq!(site.crash(1, Time::from(40.0)), 1);
        assert_eq!(site.capacity(), 0);
        assert_eq!(site.metrics().evictions, 1);
        assert_eq!(site.pending_len(), 1);
        // The original completion token (t = 100) is stale now.
        assert!(site.on_completion(t[0].at, t[0]).is_empty());
        let t2 = site.repair(1, Time::from(50.0));
        assert_eq!(t2.len(), 1);
        assert_eq!(t2[0].at, Time::from(150.0), "restart loses 40 units");
        assert_eq!(site.metrics().repaired_procs, 1);
        drain(&mut site, t2);
        assert_eq!(site.metrics().completed, 1);
        assert!(site.violations().is_empty());
    }

    #[test]
    fn site_at_zero_capacity_rejects_submissions_until_repair() {
        let mut site = SiteState::new(SiteConfig::new(2));
        site.crash(2, Time::ZERO);
        assert_eq!(site.capacity(), 0);
        let (ok, _) = site.submit(Time::from(1.0), spec(0, 1.0, 5.0, 10.0));
        assert!(!ok, "a dead site accepts nothing");
        site.repair(2, Time::from(2.0));
        let (ok, t) = site.submit(Time::from(3.0), spec(1, 3.0, 5.0, 10.0));
        assert!(ok);
        assert_eq!(t.len(), 1);
        drain(&mut site, t);
        assert!(site.violations().is_empty());
    }

    #[test]
    fn crash_wider_than_victim_gang_evicts_multiple_gangs() {
        let mut site = SiteState::new(SiteConfig::new(4).with_policy(Policy::Fcfs));
        let mut tokens = Vec::new();
        for i in 0..4 {
            let (_, t) = site.submit(Time::ZERO, spec(i, 0.0, 50.0, 100.0));
            tokens.extend(t);
        }
        assert_eq!(site.running_tasks(), 4);
        // Three processors die: three gangs evicted (most recent first).
        assert_eq!(site.crash(3, Time::from(10.0)), 3);
        assert_eq!(site.capacity(), 1);
        assert_eq!(site.running_tasks(), 1);
        assert_eq!(site.pending_len(), 3);
        assert_eq!(site.metrics().evictions, 3);
        tokens.extend(site.repair(3, Time::from(20.0)));
        drain(&mut site, tokens);
        assert_eq!(site.metrics().completed, 4);
        assert!(site.violations().is_empty());
    }

    #[test]
    fn audit_trail_counts_crash_events() {
        let mut site = SiteState::new(SiteConfig::new(2));
        site.set_tracer(Tracer::buffer());
        let (_, t) = site.submit(Time::ZERO, spec(0, 0.0, 10.0, 100.0));
        site.crash(2, Time::from(1.0));
        site.repair(2, Time::from(2.0));
        let trail = site.take_tracer().into_events().unwrap();
        let kinds: Vec<&TraceKind> = trail.iter().map(|e| &e.kind).collect();
        assert!(kinds.contains(&&TraceKind::Crashed { procs: 2 }));
        assert!(kinds.contains(&&TraceKind::Repaired { procs: 2 }));
        assert!(kinds.contains(&&TraceKind::Requeued { width: 1 }));
        drop(t);
    }
}

#[cfg(test)]
mod preemption_mode_tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::PenaltyBound;

    fn spec(id: u64, arrival: f64, runtime: f64, value: f64) -> TaskSpec {
        TaskSpec::new(id, arrival, runtime, value, 0.1, PenaltyBound::UNBOUNDED)
    }

    fn drain(site: &mut SiteState, mut tokens: Vec<CompletionToken>) {
        while !tokens.is_empty() {
            tokens.sort_by_key(|t| std::cmp::Reverse(t.at));
            let tok = tokens.pop().unwrap();
            tokens.extend(site.on_completion(tok.at, tok));
        }
    }

    /// One low-value long task is preempted at t = 10 by a 5-t.u. task;
    /// returns the victim's completion time.
    fn victim_completion() -> Time {
        let cfg = SiteConfig::new(1)
            .with_policy(Policy::FirstPrice)
            .with_preemption(true);
        let mut site = SiteState::new(cfg);
        let (_, mut tokens) = site.submit(Time::ZERO, spec(0, 0.0, 100.0, 100.0));
        let (_, t2) = site.submit(Time::from(10.0), spec(1, 10.0, 5.0, 5000.0));
        tokens.extend(t2);
        drain(&mut site, tokens);
        site.clone().into_outcome().outcomes[0].finished_at.unwrap()
    }

    #[test]
    fn resume_keeps_progress() {
        // Ran 10, suspended 5, remaining 90 → completes at 105.
        assert_eq!(victim_completion(), Time::from(105.0));
    }
}

#[cfg(test)]
mod quote_equivalence_tests {
    use super::*;
    use mbts_core::{build_candidate, Policy, ScheduleMode};
    use mbts_workload::PenaltyBound;
    use proptest::prelude::*;

    /// What `evaluate` did before it borrowed the queue: copy it, push
    /// the candidate, lay the copy out, read the decision off.
    fn reference(site: &SiteState, now: Time, spec: TaskSpec) -> Option<AdmissionDecision> {
        if spec.width > site.capacity {
            return None;
        }
        let candidate = Job::new(spec);
        let mut queue = site.pending.jobs().to_vec();
        queue.push(candidate.clone());
        let schedule = build_candidate(
            &site.config.policy,
            site.config.schedule_mode,
            now,
            &site.free_times(now),
            &queue,
        );
        Some(decision_from_schedule(
            &site.config.admission,
            site.config.admission_discount_rate,
            &schedule,
            &candidate,
        ))
    }

    fn bits(d: &AdmissionDecision) -> (bool, [u64; 5]) {
        let fields = [
            d.expected_completion.as_f64(),
            d.expected_yield,
            d.present_value,
            d.cost,
            d.slack,
        ];
        (d.accept, fields.map(f64::to_bits))
    }

    fn assert_quote_matches(site: &SiteState, now: Time, spec: TaskSpec) {
        let got = site.evaluate(now, spec);
        match reference(site, now, spec) {
            Some(want) => assert_eq!(bits(&got), bits(&want), "{got:?} vs {want:?}"),
            None => assert!(!got.accept && got.slack == f64::NEG_INFINITY),
        }
    }

    type JobSeed = (f64, f64, f64, usize, bool);

    fn spec_from(
        id: u64,
        arrival: f64,
        (runtime, value, decay, width, bounded): JobSeed,
    ) -> TaskSpec {
        let bound = if bounded {
            PenaltyBound::bounded(value / 2.0)
        } else {
            PenaltyBound::UNBOUNDED
        };
        TaskSpec::new(id, arrival, runtime, value, decay, bound).with_width(width)
    }

    fn job_seed() -> impl Strategy<Value = JobSeed> {
        (
            0.5f64..40.0,
            0.0f64..300.0,
            0.0f64..4.0,
            1usize..=3,
            any::<bool>(),
        )
    }

    /// A site of `procs` busy processors with `pool` queued behind them.
    fn busy_site(config: SiteConfig, pool: &[JobSeed]) -> SiteState {
        let procs = config.processors;
        let mut site = SiteState::new(config);
        for p in 0..procs {
            let filler = (60.0 + p as f64, 10.0, 0.1, 1, false);
            site.note_offer(Time::ZERO);
            site.accept(Time::ZERO, spec_from(1000 + p as u64, 0.0, filler));
        }
        for (i, &(runtime, value, decay, width, bounded)) in pool.iter().enumerate() {
            let seed = (runtime, value, decay, width.min(procs), bounded);
            site.note_offer(Time::ZERO);
            site.accept(Time::ZERO, spec_from(i as u64, 0.0, seed));
        }
        assert_eq!(site.pending_len(), pool.len());
        site
    }

    proptest! {
        /// `evaluate` equals the copy-and-push reference field for field,
        /// bit for bit: twice in a row, after a quote on a differently
        /// shaped site, and after an intervening `submit`, so that a
        /// stale per-thread buffer would show.
        #[test]
        fn evaluate_matches_the_copying_reference(
            pool in proptest::collection::vec(job_seed(), 0..=12),
            procs in 1usize..=4,
            policy in 0usize..7,
            dynamic in any::<bool>(),
            first in job_seed(),
            second in job_seed(),
            now in 0.0f64..50.0,
        ) {
            let policy = [
                Policy::Fcfs,
                Policy::Srpt,
                Policy::Swpt,
                Policy::EarliestDeadline,
                Policy::FirstPrice,
                Policy::pv(0.01),
                Policy::first_reward(0.3, 0.01),
            ][policy];
            let mode = if dynamic { ScheduleMode::Dynamic } else { ScheduleMode::Static };
            let config = SiteConfig::new(procs)
                .with_policy(policy)
                .with_schedule_mode(mode)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 });
            let mut site = busy_site(config, &pool);
            let other = busy_site(SiteConfig::new(procs + 2).with_policy(Policy::FirstPrice), &pool);
            let now = Time::from(now);
            // Wider than the site on purpose now and then: width is 1..=3.
            let first = spec_from(500, now.as_f64(), first);
            let second = spec_from(501, now.as_f64(), second);

            assert_quote_matches(&site, now, first);
            assert_quote_matches(&site, now, first);
            assert_quote_matches(&other, now, second);
            assert_quote_matches(&site, now, second);
            site.submit(now, first);
            assert_quote_matches(&site, now, second);
            assert_quote_matches(&site, now + Duration::from(5.0), second);
        }
    }
}
