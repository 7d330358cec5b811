//! The two simulator workloads: `site-backlog` (one site, a pending pool
//! thousands deep) and `market-bids` (64 shallow sites quoting every bid).
//! Both drive the program only through `step()` and time each call.

use std::time::Instant;

use mbts_core::{AdmissionPolicy, Policy};
use mbts_market::{EcoEvent, EconomyConfig, EconomyRun};
use mbts_sim::Time;
use mbts_site::{CompletionToken, Disposition, SimEvent, SiteConfig, SiteOutcome, SiteRun};
use mbts_trace::Tracer;
use mbts_workload::{TaskSpec, Trace};

use crate::gen;
use crate::stats;

/// What the next `step()` will handle, in terms a mirror can replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// Task `trace[i]` arrives (and, in the market, is put out to bid).
    Arrival(usize),
    /// A running segment finishes at `site`.
    Completion { site: usize, token: CompletionToken },
    /// Anything else (faults, retries): none of the workloads has any.
    Other,
}

impl Ev {
    /// Index into [`SimWorkload::STEP_SPANS`].
    fn span(&self) -> usize {
        match self {
            Ev::Arrival(_) => 0,
            Ev::Completion { .. } => 1,
            Ev::Other => 2,
        }
    }
}

/// What a finished run produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// FNV-1a over every per-task outcome and the money totals: equal
    /// hashes mean bit-identical results.
    pub hash: u64,
    /// Σ earned yield.
    pub earned: f64,
    /// Σ value at zero delay of the tasks some site accepted.
    pub accepted_value: f64,
    /// Conservation auditors recorded nothing.
    pub audit_clean: bool,
    /// Tasks that reached a site's queue.
    pub accepted: usize,
    /// Site each task was placed at, by task id (`UNPLACED` if none).
    pub placement: Vec<u32>,
}

/// [`SimOutcome::placement`] of a task no site took.
pub const UNPLACED: u32 = u32::MAX;

/// A stepwise run the benchmark can drive and conclude.
pub trait Sim {
    /// Handles the next event; false once the run is quiescent.
    fn step(&mut self) -> bool;
    /// The event the next `step()` handles, and its sim time.
    fn next_ev(&self) -> Option<(Time, Ev)>;
    /// Pending-pool depth, where the run has one pool to speak of.
    fn pool_depth(&self) -> Option<usize>;
    fn conclude(self, trace: &Trace) -> SimOutcome;
}

pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_site(h: &mut Fnv, o: &SiteOutcome) {
    for j in &o.outcomes {
        h.u64(j.id.0);
        h.u64(j.disposition as u64);
        h.f64(j.finished_at.map_or(f64::NAN, |t| t.as_f64()));
        h.f64(j.earned);
        h.f64(j.delay);
        h.u64(u64::from(j.preemptions));
    }
    h.f64(o.metrics.total_yield);
    h.f64(o.metrics.total_penalty);
    h.u64(o.metrics.completed as u64);
}

impl Sim for SiteRun {
    fn step(&mut self) -> bool {
        SiteRun::step(self)
    }

    fn next_ev(&self) -> Option<(Time, Ev)> {
        self.next_event().map(|(at, e)| {
            let ev = match *e {
                SimEvent::Arrival(i) => Ev::Arrival(i),
                SimEvent::Completion(token) => Ev::Completion { site: 0, token },
                _ => Ev::Other,
            };
            (at, ev)
        })
    }

    fn pool_depth(&self) -> Option<usize> {
        Some(self.state().pending_len())
    }

    fn conclude(self, trace: &Trace) -> SimOutcome {
        let (o, _) = self.finish();
        let mut h = Fnv::new();
        hash_site(&mut h, &o);
        SimOutcome {
            hash: h.finish(),
            earned: o.metrics.total_yield,
            accepted_value: o
                .outcomes
                .iter()
                .filter(|j| j.disposition != Disposition::Rejected)
                .map(|j| trace.tasks[j.id.index()].value)
                .sum(),
            audit_clean: o.violations.is_empty(),
            accepted: o.metrics.accepted,
            placement: o
                .outcomes
                .iter()
                .map(|j| match j.disposition {
                    Disposition::Rejected => UNPLACED,
                    _ => 0,
                })
                .collect(),
        }
    }
}

impl Sim for EconomyRun {
    fn step(&mut self) -> bool {
        EconomyRun::step(self)
    }

    fn next_ev(&self) -> Option<(Time, Ev)> {
        self.next_event().map(|(at, e)| {
            let ev = match *e {
                EcoEvent::Arrival(i) => Ev::Arrival(i),
                EcoEvent::Completion { site, token } => Ev::Completion { site, token },
                _ => Ev::Other,
            };
            (at, ev)
        })
    }

    fn pool_depth(&self) -> Option<usize> {
        None
    }

    fn conclude(self, trace: &Trace) -> SimOutcome {
        let (o, _) = self.finish();
        let mut placement = vec![UNPLACED; trace.tasks.len()];
        for c in &o.contracts {
            placement[c.spec.id.index()] = c.site as u32;
        }
        let mut h = Fnv::new();
        for s in &o.per_site {
            hash_site(&mut h, s);
        }
        for c in &o.contracts {
            h.u64(c.spec.id.0);
            h.u64(c.site as u64);
            h.f64(c.negotiated_price);
        }
        h.f64(o.total_settled);
        h.f64(o.total_paid);
        SimOutcome {
            hash: h.finish(),
            earned: o.total_yield(),
            accepted_value: o.contracts.iter().map(|c| c.spec.value).sum(),
            audit_clean: o.audit_violations.is_empty()
                && o.per_site.iter().all(|s| s.violations.is_empty()),
            accepted: o.placed,
            placement,
        }
    }
}

/// One simulator workload: how its inputs are drawn and its run built.
pub trait SimWorkload {
    type Run: Sim;
    const NAME: &'static str;
    /// Span names for arrival, completion and other steps.
    const STEP_SPANS: [&'static str; 3];
    /// Whether an arrival goes out to bid at every site (quotes, then an
    /// award) or is submitted to the one site there is.
    const MARKET: bool;
    /// Tasks per round when the run is sized for `seconds`.
    fn tasks(seconds: f64) -> usize;
    /// The round's inputs, from the seed.
    fn trace(tasks: usize, seed: u64) -> Trace;
    /// One config per site, as the run under test is built.
    fn sites() -> Vec<SiteConfig>;
    fn build(trace: &Trace) -> Self::Run;
}

/// Run length the task counts below were sized for on the reference
/// host (`nproc` = 2): `--seconds` scales them, never a clock cut-off.
pub const NOMINAL_SECONDS: f64 = 20.0;

pub struct SiteBacklog;

impl SiteBacklog {
    pub fn site_config() -> SiteConfig {
        SiteConfig::new(gen::BACKLOG_PROCESSORS).with_policy(Policy::first_reward(0.3, 0.01))
    }
}

impl SimWorkload for SiteBacklog {
    type Run = SiteRun;
    const NAME: &'static str = "site-backlog";
    const STEP_SPANS: [&'static str; 3] = [
        "site.step_arrival",
        "site.step_completion",
        "site.step_other",
    ];

    const MARKET: bool = false;

    fn tasks(seconds: f64) -> usize {
        (24_000.0 * seconds / NOMINAL_SECONDS).round().max(64.0) as usize
    }

    fn trace(tasks: usize, seed: u64) -> Trace {
        gen::backlog_trace(tasks, seed)
    }

    fn sites() -> Vec<SiteConfig> {
        vec![Self::site_config()]
    }

    fn build(trace: &Trace) -> SiteRun {
        SiteRun::new(Self::site_config(), trace, Tracer::Off)
    }
}

pub struct MarketBids;

impl MarketBids {
    pub const SITES: usize = 64;
    pub const PROCS_PER_SITE: usize = 2;

    pub fn site_config() -> SiteConfig {
        SiteConfig::new(Self::PROCS_PER_SITE)
            .with_policy(Policy::FirstPrice)
            .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 })
    }
}

impl SimWorkload for MarketBids {
    type Run = EconomyRun;
    const NAME: &'static str = "market-bids";
    const STEP_SPANS: [&'static str; 3] = [
        "market.step_arrival",
        "market.step_completion",
        "market.step_other",
    ];

    const MARKET: bool = true;

    fn tasks(seconds: f64) -> usize {
        (160_000.0 * seconds / NOMINAL_SECONDS).round().max(64.0) as usize
    }

    fn trace(tasks: usize, seed: u64) -> Trace {
        gen::market_trace(tasks, seed, Self::SITES, Self::PROCS_PER_SITE)
    }

    fn sites() -> Vec<SiteConfig> {
        vec![Self::site_config(); Self::SITES]
    }

    fn build(trace: &Trace) -> EconomyRun {
        let mut config = EconomyConfig::uniform(Self::SITES, Self::site_config());
        config.sites = Self::sites();
        EconomyRun::new(config, trace, Tracer::Off)
    }
}

/// One timed round on fresh state.
#[derive(Debug)]
pub struct SimRound {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Wall time between successive task completions, ns, ascending: one
    /// sample per retired task, covering its completion `step()` and the
    /// arrival `step()`s absorbed since the previous completion.
    pub lat_ns: Vec<u64>,
    pub tasks: usize,
    pub outcome: SimOutcome,
}

impl SimRound {
    pub fn throughput(&self) -> f64 {
        self.tasks as f64 / self.wall_s
    }
}

/// Generates the inputs and builds the run: the round's set-up.
pub fn setup<W: SimWorkload>(seed: u64, tasks: usize) -> (Trace, W::Run, f64, f64) {
    let t0 = Instant::now();
    let trace = W::trace(tasks, seed);
    let gen_ns = t0.elapsed().as_nanos() as f64 / tasks as f64;
    let run = W::build(&trace);
    (trace, run, t0.elapsed().as_secs_f64(), gen_ns)
}

/// One untraced round: set up, then `step()` until quiescent, reading the
/// clock when a task completes.
///
/// A latency sample is the wall time to retire one task. A single
/// `step()` would not do: half the steps are arrivals and half are
/// completions, one of the two is a hundred times dearer than the other on
/// either simulator, and the median of that mixture sits on the edge
/// between the two modes where it measures nothing.
pub fn round<W: SimWorkload>(seed: u64, tasks: usize) -> SimRound {
    let (trace, mut run, setup_s, _) = setup::<W>(seed, tasks);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(tasks + 16);
    let t0 = Instant::now();
    let mut last = t0;
    while let Some((_, ev)) = run.next_ev() {
        run.step();
        if matches!(ev, Ev::Completion { .. }) {
            let now = Instant::now();
            lat_ns.push((now - last).as_nanos() as u64);
            last = now;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    SimRound {
        setup_s,
        wall_s,
        lat_ns,
        tasks,
        outcome: run.conclude(&trace),
    }
}

/// The untimed warm-up round: the same inputs stepped once to fault in
/// code and heap, reading the pending pool's depth before every completion
/// (the regime check of `site-backlog`) where the timed rounds read only
/// the clock.
pub fn warm_up<W: SimWorkload>(seed: u64, tasks: usize) -> (SimOutcome, Option<f64>) {
    let (trace, mut run, _, _) = setup::<W>(seed, tasks);
    let mut depths: Vec<f64> = Vec::new();
    while let Some((_, ev)) = run.next_ev() {
        if let (Ev::Completion { .. }, Some(d)) = (ev, run.pool_depth()) {
            depths.push(d as f64);
        }
        run.step();
    }
    let depth_p50 = (!depths.is_empty()).then(|| stats::median(&depths));
    (run.conclude(&trace), depth_p50)
}

// ---- the traced round and its replay -----------------------------------

use std::collections::BTreeMap;

use mbts_core::{evaluate_admission, Job, PendingPool};
use mbts_sim::EventQueue;
use mbts_site::SiteState;

use crate::ledger::{self, LayerRow, Ledger, SpanId};

/// One `step()` of the traced round, as seen from outside.
#[derive(Debug, Clone, Copy)]
struct StepRec {
    at: Time,
    ev: Ev,
    start_ns: u64,
    end_ns: u64,
}

/// Cost of reading the clock twice: subtracted from every replayed child
/// so that spans of a few dozen nanoseconds are not mostly timer.
pub(crate) fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Nanoseconds since `t`, less the cost of reading the clock.
pub(crate) fn timed(t: Instant, timer_ns: u64) -> u64 {
    (t.elapsed().as_nanos() as u64).saturating_sub(timer_ns)
}

/// One site of the mirror: a `SiteState` driven exactly as the run under
/// test drives its own, and beside it a bare `PendingPool` that receives
/// the same pushes and dispatches, so the pool's share of `submit` and
/// `on_completion` can be timed by itself.
pub(crate) struct SiteMirror {
    pub site: SiteState,
    pub pool: PendingPool,
    /// Pool depth seen by each `select_best`.
    pub depths: Vec<f64>,
    timer_ns: u64,
}

impl SiteMirror {
    pub fn new(config: &SiteConfig, timer_ns: u64) -> Self {
        SiteMirror {
            site: SiteState::new(config.clone()),
            pool: PendingPool::new(config.policy),
            depths: Vec::new(),
            timer_ns,
        }
    }

    /// Shadows on the bare pool what the site's own pool just did: an
    /// optional push, then as many dispatches as the site's pool lost.
    fn shadow_pool(&mut self, ledger: &mut Ledger, parent: SpanId, now: Time, push: Option<Job>) {
        if let Some(job) = push {
            let t = Instant::now();
            self.pool.push(job);
            ledger.child(parent, "core.pool_push", timed(t, self.timer_ns), 1);
        }
        while self.pool.len() > self.site.pending_len() {
            self.depths.push(self.pool.len() as f64);
            let t = Instant::now();
            let best = self.pool.select_best(now);
            ledger.child(parent, "core.pool_select", timed(t, self.timer_ns), 1);
            let Some(slot) = best else { break };
            let t = Instant::now();
            let job = self.pool.swap_remove(slot);
            ledger.child(parent, "core.pool_remove", timed(t, self.timer_ns), 1);
            std::hint::black_box(job);
        }
    }

    /// `submit` (or, for a market award, `note_offer` + `accept`) as a
    /// `site.submit` child of `parent`, with the pool's part beneath it.
    pub fn submit(
        &mut self,
        ledger: &mut Ledger,
        parent: SpanId,
        now: Time,
        spec: TaskSpec,
        award: bool,
    ) -> Vec<CompletionToken> {
        let t = Instant::now();
        let (accepted, tokens) = if award {
            self.site.note_offer(now);
            (true, self.site.accept(now, spec))
        } else {
            self.site.submit(now, spec)
        };
        let span = ledger.child(parent, "site.submit", timed(t, self.timer_ns), 1);
        self.shadow_pool(ledger, span, now, accepted.then(|| Job::new(spec)));
        tokens
    }

    /// `on_completion_detailed` as a `site.completion` child of `parent`.
    pub fn complete(
        &mut self,
        ledger: &mut Ledger,
        parent: SpanId,
        now: Time,
        token: CompletionToken,
    ) -> (Option<mbts_site::JobOutcome>, Vec<CompletionToken>) {
        let t = Instant::now();
        let (outcome, tokens) = self.site.on_completion_detailed(now, token);
        let span = ledger.child(parent, "site.completion", timed(t, self.timer_ns), 1);
        self.shadow_pool(ledger, span, now, None);
        (outcome, tokens)
    }

    /// `cancel_pending`, mirrored on the bare pool slot for slot.
    pub fn cancel(&mut self, now: Time, id: mbts_workload::TaskId) -> bool {
        let slot = self.pool.jobs().iter().position(|j| j.id() == id);
        let found = self.site.cancel_pending(now, id);
        if let (true, Some(slot)) = (found, slot) {
            self.pool.swap_remove(slot);
        }
        found
    }
}

/// The per-layer values every mirror replay yields, whoever drove it:
/// mean ns per call of the queue, the pool and the site frame around it,
/// and the depths `select_best` saw.
pub(crate) fn mirror_layers<'a>(
    rows: &BTreeMap<&'static str, LayerRow>,
    mirrors: impl Iterator<Item = &'a SiteMirror>,
) -> BTreeMap<&'static str, f64> {
    let (depth_p50, depth_max) = depth_stats(mirrors);
    let mut layers = BTreeMap::from([
        ("core.pool_depth_p50", depth_p50),
        ("core.pool_depth_max", depth_max),
    ]);
    for (metric, span) in [
        ("sim.queue_schedule_ns", "sim.queue_schedule"),
        ("sim.queue_pop_ns", "sim.queue_pop"),
        ("core.pool_push_ns", "core.pool_push"),
        ("core.pool_select_ns", "core.pool_select"),
        ("core.pool_remove_ns", "core.pool_remove"),
        ("site.submit_ns", "site.submit"),
        ("site.completion_ns", "site.completion"),
    ] {
        layers.insert(metric, rows.get(span).map_or(0.0, LayerRow::mean_ns));
    }
    layers
}

/// Median and maximum of the depths the mirrors' `select_best` calls saw.
fn depth_stats<'a>(mirrors: impl Iterator<Item = &'a SiteMirror>) -> (f64, f64) {
    let mut depths: Vec<f64> = mirrors.flat_map(|m| m.depths.iter().copied()).collect();
    depths.sort_by(f64::total_cmp);
    (
        depths.get(depths.len() / 2).copied().unwrap_or(0.0),
        depths.last().copied().unwrap_or(0.0),
    )
}

/// What the traced round and its replay produced.
pub struct TracedSim {
    pub ledger: Ledger,
    pub traced_wall_s: f64,
    pub events: u64,
    pub tasks: usize,
    pub generate_ns_per_task: f64,
    /// [`mirror_layers`] of this replay.
    pub layers: BTreeMap<&'static str, f64>,
    pub outcome: SimOutcome,
    /// The mirror popped the same events, held the same depths and earned
    /// the same yield as the run it shadows.
    pub mirror_faithful: bool,
    pub mirror_detail: String,
}

/// Runs one round with a span around every `step()`, then replays the
/// same events through a mirror of the layers below to fill in children.
pub fn traced_round<W: SimWorkload>(seed: u64, tasks: usize) -> TracedSim {
    let (trace, mut run, _, generate_ns_per_task) = setup::<W>(seed, tasks);
    let mut recs: Vec<StepRec> = Vec::with_capacity(2 * tasks + 16);
    let epoch = Instant::now();
    while let Some((at, ev)) = run.next_ev() {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        run.step();
        let end_ns = epoch.elapsed().as_nanos() as u64;
        recs.push(StepRec {
            at,
            ev,
            start_ns,
            end_ns,
        });
    }
    let traced_wall_s = epoch.elapsed().as_secs_f64();
    let events = recs.len() as u64;
    let outcome = run.conclude(&trace);

    // ---- replay ---------------------------------------------------------
    let timer = timer_overhead_ns();
    let configs = W::sites();
    let mut mirror: Vec<SiteMirror> = configs.iter().map(|c| SiteMirror::new(c, timer)).collect();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, spec) in trace.tasks.iter().enumerate() {
        queue.schedule(spec.arrival, Ev::Arrival(i));
    }
    let mut ledger = Ledger::with_capacity(recs.len() * 6);
    let mut diverged: Option<String> = None;

    for (i, rec) in recs.iter().enumerate() {
        let step = ledger.root(
            W::STEP_SPANS[rec.ev.span()],
            rec.start_ns,
            rec.end_ns,
            i as u64,
        );
        let t = Instant::now();
        let popped = queue.pop();
        ledger.child(step, "sim.queue_pop", timed(t, timer), 1);
        if popped != Some((rec.at, rec.ev)) && diverged.is_none() {
            diverged = Some(format!(
                "step {i}: run handled {:?}, mirror popped {popped:?}",
                rec.ev
            ));
        }
        let now = rec.at;
        let (site_idx, tokens) = match rec.ev {
            Ev::Arrival(idx) => {
                let spec = trace.tasks[idx];
                if W::MARKET {
                    // Every site quotes the bid (read-only)…
                    let t = Instant::now();
                    for m in &mirror {
                        std::hint::black_box(m.site.evaluate(now, spec));
                    }
                    let quotes =
                        ledger.child(step, "site.evaluate", timed(t, timer), mirror.len() as u32);
                    // …and inside each quote, the core's candidate schedule.
                    let candidate = Job::new(spec);
                    let mut core_ns = 0;
                    for (m, c) in mirror.iter().zip(&configs) {
                        let mut with_candidate = m.pool.jobs().to_vec();
                        with_candidate.push(candidate.clone());
                        let free = m.site.free_times(now);
                        let t = Instant::now();
                        std::hint::black_box(evaluate_admission(
                            &c.admission,
                            &c.policy,
                            c.schedule_mode,
                            c.admission_discount_rate,
                            now,
                            &free,
                            &with_candidate,
                            &candidate,
                        ));
                        core_ns += timed(t, timer);
                    }
                    ledger.child(quotes, "core.admission_quote", core_ns, mirror.len() as u32);
                }
                match outcome.placement[idx] {
                    UNPLACED => (0, Vec::new()),
                    s => (
                        s as usize,
                        mirror[s as usize].submit(&mut ledger, step, now, spec, W::MARKET),
                    ),
                }
            }
            Ev::Completion { site, token } => {
                (site, mirror[site].complete(&mut ledger, step, now, token).1)
            }
            Ev::Other => (0, Vec::new()),
        };
        if !tokens.is_empty() {
            let t = Instant::now();
            for token in &tokens {
                queue.schedule(
                    token.at,
                    Ev::Completion {
                        site: site_idx,
                        token: *token,
                    },
                );
            }
            ledger.child(
                step,
                "sim.queue_schedule",
                timed(t, timer),
                tokens.len() as u32,
            );
        }
    }

    let mirror_yield: f64 = mirror.iter().map(|m| m.site.metrics().total_yield).sum();
    let quiescent = mirror
        .iter()
        .all(|m| m.site.is_quiescent() && m.pool.is_empty());
    let faithful = diverged.is_none()
        && queue.is_empty()
        && quiescent
        && mirror_yield.to_bits() == outcome.earned.to_bits();
    let mirror_detail = diverged.unwrap_or_else(|| {
        format!(
            "queue empty {}, sites quiescent {quiescent}, yield {mirror_yield} vs {}",
            queue.is_empty(),
            outcome.earned
        )
    });
    let layers = mirror_layers(&ledger.rows(), mirror.iter());
    TracedSim {
        ledger,
        traced_wall_s,
        events,
        tasks,
        generate_ns_per_task,
        layers,
        outcome,
        mirror_faithful: faithful,
        mirror_detail,
    }
}

/// `1 − Σ self / traced wall` over a traced simulator round.
pub fn gap_share(t: &TracedSim) -> f64 {
    ledger::gap_share(t.ledger.self_total_ns(), (t.traced_wall_s * 1e9) as u64)
}
