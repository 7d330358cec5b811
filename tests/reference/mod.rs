//! A reference model of one site, written from the paper's model
//! (PAPER.md) and DESIGN §1, to check the production site against.
//!
//! It shares no code with the scheduler it checks: it reads the
//! workload's input types (`Trace`, `TaskSpec`, `PenaltyBound`, `TaskId`)
//! and nothing else, does all arithmetic on plain `f64`, and keeps no index
//! and no cache. Every event it rescans the whole queue: every score is
//! recomputed from its equation, and Eq. 4 is the literal double loop.
//!
//! What it models:
//! - Eq. 1/2 yield: `value − delay · decay`, floored at `−max_penalty`
//!   when the penalty is bounded, never when it is unbounded.
//! - Eq. 3 present value: `yield / (1 + rate · RPT)`.
//! - Eq. 4 opportunity cost: `Σ_{j≠i} d_j · min(RPT_i, window_j)`, where
//!   a task's window is how long its value keeps decaying if it waits;
//!   Eq. 5 (`(D − d_i) · RPT_i`) is its all-unbounded special case.
//! - The seven policies' scores, best first, ties to the lower task id.
//! - Eq. 7/8 admission: the bid's slack `(PV − cost) / decay` over a
//!   candidate schedule that packs the queue plus the bid in score order,
//!   with `cost = Σ_{j behind} decay_j · runtime_bid`.
//! - A k-processor gang list scheduler: each event drops expired tasks
//!   (with `drop_expired`), starts the best queued task while it fits,
//!   and otherwise holds an EASY reservation for it and backfills a task
//!   that fits and finishes by then. With preemption an arrival may
//!   suspend lower-scoring running gangs, weakest first, to start the
//!   best queued task; a suspended task resumes later with its progress.
//!
//! Order, where the paper leaves it open:
//! - Events at one instant: arrivals (in trace order) before
//!   completions, and completions in the order their segments started.
//! - Sums run left to right, as DESIGN §7 asks (same order, same bits):
//!   Eq. 8 over the schedule in dispatch order, the total yield in the
//!   order tasks finish.
//! - A candidate schedule ranks by `f64::total_cmp` (so +0 ranks above
//!   −0), ties to the lower task id.
//! - The queue and the running gangs are plain vectors: new entries are
//!   appended, and a removed entry's place is taken by the last one
//!   (`Vec::swap_remove`). Only the order in which tasks that expire at
//!   one instant are dropped depends on it (and through it the order
//!   their floors enter the total yield), and the order in which one
//!   preemption's victims rejoin the queue: from the last running
//!   position down.
//!
//! Tolerance, stated once: Eq. 4 costs, and so FirstReward's scores,
//! agree with production to 1e-9 relative, not bit for bit. Production
//! keeps the never-expiring tasks' decay in a compensated running sum
//! and the rest in window-sorted prefix sums; this model adds the
//! literal terms in queue order. Every other quantity (times, yields,
//! Eq. 3/7/8 values, the other six policies' scores) is computed by the
//! same operations in the same order, so its bits match; decisions match
//! exactly unless two FirstReward scores lie within that tolerance.

use mbts_workload::{PenaltyBound, TaskId, TaskSpec, Trace};

/// The dispatch policies of §4 and §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    Fcfs,
    Srpt,
    Swpt,
    FirstPrice,
    /// Earliest expiration first; tasks that never expire go last.
    Edf,
    Pv {
        rate: f64,
    },
    FirstReward {
        alpha: f64,
        rate: f64,
    },
}

/// One site.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub processors: usize,
    pub policy: Policy,
    /// §6 admission: accept a bid iff its slack is at least this. `None`
    /// accepts every bid that fits the site.
    pub slack_threshold: Option<f64>,
    /// The discount rate of the PV in Eq. 7.
    pub admission_rate: f64,
    pub preemption: bool,
    pub backfilling: bool,
    pub drop_expired: bool,
}

/// What finally happened to a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    Rejected,
    Completed,
    Dropped,
}

/// One task's record, as the site keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub id: TaskId,
    pub fate: Fate,
    pub finished_at: Option<f64>,
    pub earned: f64,
    pub delay: f64,
    pub preemptions: u32,
}

/// One started run segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Start {
    pub at: f64,
    pub task: TaskId,
    pub backfill: bool,
}

/// A bid's §6 quote: its expected yield in the candidate schedule (the
/// price), that yield's PV, the Eq. 8 cost and the Eq. 7 slack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quote {
    pub task: TaskId,
    pub expected_yield: f64,
    pub pv: f64,
    pub cost: f64,
    pub slack: f64,
}

/// A whole run: outcomes by task id, starts in dispatch order, and the
/// quote of every bid that fits the site, in arrival order.
#[derive(Debug, Clone)]
pub struct Run {
    pub outcomes: Vec<Outcome>,
    pub starts: Vec<Start>,
    pub quotes: Vec<Quote>,
    pub total_yield: f64,
}

fn earliest(spec: &TaskSpec) -> f64 {
    spec.arrival.as_f64() + spec.runtime.as_f64()
}

/// When the value function stops decaying: never for an unbounded
/// penalty or a task that does not decay.
fn expire(spec: &TaskSpec) -> f64 {
    match spec.bound.max_penalty() {
        Some(max_penalty) if spec.decay != 0.0 => {
            earliest(spec) + (spec.value + max_penalty) / spec.decay
        }
        _ => f64::INFINITY,
    }
}

fn floor(spec: &TaskSpec) -> f64 {
    match spec.bound.max_penalty() {
        None => f64::NEG_INFINITY,
        Some(max_penalty) => -max_penalty,
    }
}

/// `x` if positive, else 0.
fn positive(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Eq. 1/2: the yield of completing at `completion`.
pub fn yield_at(spec: &TaskSpec, completion: f64) -> f64 {
    let delay = positive(completion - earliest(spec));
    (spec.value - delay * spec.decay).max(floor(spec))
}

/// A task in the system: its spec and remaining processing time, per
/// the estimate (what policies see) and per the truth (when it ends).
#[derive(Debug, Clone)]
struct Task {
    spec: TaskSpec,
    rpt: f64,
    true_rpt: f64,
    preemptions: u32,
}

impl Task {
    fn new(spec: TaskSpec, true_runtime: f64) -> Self {
        Task {
            spec,
            rpt: spec.runtime.as_f64(),
            true_rpt: true_runtime,
            preemptions: 0,
        }
    }

    fn advance(&mut self, ran: f64) {
        self.rpt = positive(self.rpt - ran);
        self.true_rpt = positive(self.true_rpt - ran);
    }

    /// Eq. 3: PV of the yield if started at `now`.
    fn pv(&self, now: f64, rate: f64) -> f64 {
        yield_at(&self.spec, now + self.rpt) / (1.0 + rate * self.rpt)
    }

    /// How much longer the value keeps decaying if the task waits from
    /// `now`: 0 once it has expired, infinite if it never does.
    fn window(&self, now: f64) -> f64 {
        let expire = expire(&self.spec);
        if expire == f64::INFINITY {
            f64::INFINITY
        } else {
            positive(expire - (now + self.rpt))
        }
    }
}

/// Eq. 4, the literal double loop's inner sum: what starting `task` now
/// costs the other tasks in `competing`.
fn eq4_cost(task: &Task, competing: &[Task], now: f64) -> f64 {
    let mut cost = 0.0;
    for other in competing {
        if other.spec.id == task.spec.id {
            continue;
        }
        let window = other.window(now);
        if window > 0.0 {
            cost += other.spec.decay * task.rpt.min(window);
        }
    }
    cost
}

/// Eq. 5: Eq. 4 when no competitor's value stops decaying.
fn eq5_cost(task: &Task, competing: &[Task]) -> f64 {
    let total: f64 = competing.iter().map(|t| t.spec.decay).sum();
    (total - task.spec.decay) * task.rpt
}

/// The policy's score of `task` at `now` against `competing` (which
/// includes it); higher runs first.
fn score(policy: Policy, task: &Task, competing: &[Task], now: f64) -> f64 {
    let rpt = task.rpt.max(f64::MIN_POSITIVE);
    match policy {
        Policy::Fcfs => -task.spec.arrival.as_f64(),
        Policy::Srpt => -rpt,
        Policy::Swpt => task.spec.decay / rpt,
        Policy::FirstPrice => yield_at(&task.spec, now + task.rpt) / rpt,
        Policy::Edf => match expire(&task.spec) {
            e if e == f64::INFINITY => f64::NEG_INFINITY,
            e => -e,
        },
        Policy::Pv { rate } => task.pv(now, rate) / rpt,
        Policy::FirstReward { alpha, rate } => {
            let cost = eq4_cost(task, competing, now);
            (alpha * task.pv(now, rate) - (1.0 - alpha) * cost) / rpt
        }
    }
}

/// `(score, id)` ranks above `(other_score, other_id)`.
fn above(score: f64, id: TaskId, other_score: f64, other_id: TaskId) -> bool {
    score > other_score || (score == other_score && id < other_id)
}

/// Position of the best of `candidates` (positions into `tasks`).
fn best_of(
    scores: &[f64],
    tasks: &[Task],
    candidates: impl Iterator<Item = usize>,
) -> Option<usize> {
    candidates.fold(None, |best, i| match best {
        Some(b) if !above(scores[i], tasks[i].spec.id, scores[b], tasks[b].spec.id) => Some(b),
        _ => Some(i),
    })
}

/// The bid's quote: pack `queue` plus the bid over processors free at
/// `free_at`, best score first, and read the bid's place.
fn quote(config: &Config, now: f64, mut free_at: Vec<f64>, queue: &[Task], bid: &Task) -> Quote {
    let mut all = queue.to_vec();
    all.push(bid.clone());
    let mut ranked: Vec<(f64, &Task)> = all
        .iter()
        .map(|t| (score(config.policy, t, &all, now), t))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.spec.id.cmp(&b.1.spec.id)));
    let mut bid_completion = None;
    let mut behind = Vec::new();
    for (_, task) in ranked {
        free_at.sort_by(f64::total_cmp);
        let width = task.spec.width;
        let completion = free_at[width - 1] + task.rpt;
        free_at[..width].fill(completion);
        if task.spec.id == bid.spec.id {
            bid_completion = Some(completion);
        } else if bid_completion.is_some() {
            behind.push(task.spec.decay);
        }
    }
    let completion = bid_completion.expect("the bid is in its own schedule");
    let expected_yield = yield_at(&bid.spec, completion);
    let pv = expected_yield / (1.0 + config.admission_rate * bid.rpt);
    let cost = behind.iter().sum::<f64>() * bid.spec.runtime.as_f64();
    let slack = if bid.spec.decay > 0.0 {
        (pv - cost) / bid.spec.decay
    } else if pv - cost >= 0.0 {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    Quote {
        task: bid.spec.id,
        expected_yield,
        pv,
        cost,
        slack,
    }
}

#[derive(Debug)]
struct Running {
    task: Task,
    started: f64,
    ends: f64,
    /// Start order, which orders completions at one instant.
    order: u64,
}

impl Running {
    /// The task as of `now`, progress deducted.
    fn view(&self, now: f64) -> Task {
        let mut task = self.task.clone();
        task.advance(now - self.started);
        task
    }
}

struct Site {
    config: Config,
    free: usize,
    queue: Vec<Task>,
    running: Vec<Running>,
    starts: Vec<Start>,
    quotes: Vec<Quote>,
    outcomes: Vec<Outcome>,
    total_yield: f64,
}

impl Site {
    fn record(&mut self, task: &Task, fate: Fate, now: Option<f64>, earned: f64) {
        let delay = now.map_or(0.0, |now| positive(now - earliest(&task.spec)));
        self.outcomes.push(Outcome {
            id: task.spec.id,
            fate,
            finished_at: now,
            earned,
            delay,
            preemptions: task.preemptions,
        });
        if fate != Fate::Rejected {
            self.total_yield += earned;
        }
    }

    fn arrive(&mut self, now: f64, spec: TaskSpec, true_runtime: f64) {
        let task = Task::new(spec, true_runtime);
        let mut accept = spec.width <= self.config.processors;
        if accept {
            let quote = quote(&self.config, now, self.free_at(now), &self.queue, &task);
            self.quotes.push(quote);
            accept = self
                .config
                .slack_threshold
                .is_none_or(|threshold| quote.slack >= threshold);
        }
        if !accept {
            self.record(&task, Fate::Rejected, None, 0.0);
            return;
        }
        self.queue.push(task);
        self.dispatch(now);
        if self.config.preemption {
            self.preempt(now);
        }
    }

    fn complete(&mut self, now: f64, position: usize) {
        let done = self.running.swap_remove(position);
        self.free += done.task.spec.width;
        let earned = yield_at(&done.task.spec, now);
        self.record(&done.task, Fate::Completed, Some(now), earned);
        self.dispatch(now);
    }

    /// When each processor is expected to be free, per the estimates.
    fn free_at(&self, now: f64) -> Vec<f64> {
        let mut free = vec![now; self.free];
        for r in &self.running {
            free.extend(std::iter::repeat_n(
                now + r.view(now).rpt,
                r.task.spec.width,
            ));
        }
        free
    }

    fn start(&mut self, position: usize, now: f64, backfill: bool) {
        let task = self.queue.swap_remove(position);
        assert!(task.spec.width <= self.free, "gang does not fit");
        self.free -= task.spec.width;
        self.starts.push(Start {
            at: now,
            task: task.spec.id,
            backfill,
        });
        let order = self.starts.len() as u64;
        let ends = now + task.true_rpt;
        self.running.push(Running {
            task,
            started: now,
            ends,
            order,
        });
    }

    fn drop_expired(&mut self, now: f64) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].window(now) == 0.0 {
                let task = self.queue.swap_remove(i);
                self.record(&task, Fate::Dropped, Some(now), floor(&task.spec));
            } else {
                i += 1;
            }
        }
    }

    fn scores(&self, now: f64, competing: &[Task]) -> Vec<f64> {
        let policy = self.config.policy;
        self.queue
            .iter()
            .map(|t| score(policy, t, competing, now))
            .collect()
    }

    /// Start queued work while processors are free: the best task if it
    /// fits, else a backfill that ends before the best one's reservation.
    fn dispatch(&mut self, now: f64) {
        loop {
            if self.config.drop_expired {
                self.drop_expired(now);
            }
            if self.free == 0 {
                return;
            }
            let scores = self.scores(now, &self.queue);
            let Some(best) = best_of(&scores, &self.queue, 0..self.queue.len()) else {
                return;
            };
            let width = self.queue[best].spec.width;
            if width <= self.free {
                self.start(best, now, false);
                continue;
            }
            if !self.config.backfilling {
                return;
            }
            let reserve = self.reservation(width, now);
            let fits = (0..self.queue.len()).filter(|&i| {
                let t = &self.queue[i];
                i != best && t.spec.width <= self.free && now + t.rpt <= reserve
            });
            let Some(fill) = best_of(&scores, &self.queue, fits) else {
                return;
            };
            self.start(fill, now, true);
        }
    }

    /// The earliest instant `width` processors are expected free at once.
    fn reservation(&self, width: usize, now: f64) -> f64 {
        let mut ends: Vec<(f64, usize)> = self
            .running
            .iter()
            .map(|r| (now + r.view(now).rpt, r.task.spec.width))
            .collect();
        ends.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut free = self.free;
        if free >= width {
            return now;
        }
        for (at, w) in ends {
            free += w;
            if free >= width {
                return at;
            }
        }
        f64::INFINITY
    }

    /// While the best queued task outscores enough running gangs to free
    /// its width, suspend them (weakest first) and start it.
    fn preempt(&mut self, now: f64) {
        let rounds = self.queue.len() + self.running.len() + self.config.processors + 1;
        for _ in 0..rounds {
            self.dispatch(now);
            if self.queue.is_empty() || self.running.is_empty() {
                return;
            }
            let views: Vec<Task> = self.running.iter().map(|r| r.view(now)).collect();
            let mut competing = self.queue.clone();
            competing.extend(views.iter().cloned());
            let scores = self.scores(now, &competing);
            let best = best_of(&scores, &self.queue, 0..self.queue.len()).expect("queued");
            let need = self.queue[best].spec.width;
            let policy = self.config.policy;
            let mut weaker: Vec<(usize, f64)> = views
                .iter()
                .map(|v| score(policy, v, &competing, now))
                .enumerate()
                .filter(|&(_, s)| s < scores[best])
                .collect();
            weaker.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut free = self.free;
            let mut victims = Vec::new();
            for (i, _) in weaker {
                if free >= need {
                    break;
                }
                free += views[i].spec.width;
                victims.push(i);
            }
            if free < need || victims.is_empty() {
                return;
            }
            victims.sort_unstable_by(|a, b| b.cmp(a));
            for i in victims {
                let r = self.running.swap_remove(i);
                let mut task = r.task;
                task.advance(now - r.started);
                task.preemptions += 1;
                self.free += task.spec.width;
                self.queue.push(task);
            }
            self.start(best, now, false);
        }
    }
}

/// Runs `trace`'s tasks through a site until every accepted task has
/// finished, each for its true runtime.
pub fn run(config: &Config, trace: &Trace) -> Run {
    let tasks = &trace.tasks;
    let mut arrivals: Vec<usize> = (0..tasks.len()).collect();
    arrivals.sort_by(|&a, &b| {
        tasks[a]
            .arrival
            .as_f64()
            .total_cmp(&tasks[b].arrival.as_f64())
    });
    let mut arrivals = arrivals.into_iter().peekable();
    let mut site = Site {
        config: *config,
        free: config.processors,
        queue: Vec::new(),
        running: Vec::new(),
        starts: Vec::new(),
        quotes: Vec::new(),
        outcomes: Vec::new(),
        total_yield: 0.0,
    };
    loop {
        let next_end = (0..site.running.len()).min_by(|&a, &b| {
            let (a, b) = (&site.running[a], &site.running[b]);
            a.ends.total_cmp(&b.ends).then(a.order.cmp(&b.order))
        });
        let end_at = next_end.map_or(f64::INFINITY, |i| site.running[i].ends);
        match arrivals.peek() {
            Some(&i) if tasks[i].arrival.as_f64() <= end_at => {
                let spec = tasks[i];
                arrivals.next();
                site.arrive(
                    spec.arrival.as_f64(),
                    spec,
                    trace.tasks.true_runtime(i).as_f64(),
                );
            }
            _ => match next_end {
                Some(i) => site.complete(end_at, i),
                None => break,
            },
        }
    }
    assert!(
        site.queue.is_empty(),
        "work left queued with nothing running"
    );
    site.outcomes.sort_by_key(|o| o.id);
    Run {
        outcomes: site.outcomes,
        starts: site.starts,
        quotes: site.quotes,
        total_yield: site.total_yield,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, runtime: f64, value: f64, decay: f64, bound: PenaltyBound) -> Task {
        Task::new(
            TaskSpec::new(id, 0.0, runtime, value, decay, bound),
            runtime,
        )
    }

    #[test]
    fn eq5_is_eq4_when_no_penalty_is_bounded() {
        let queue: Vec<Task> = (0..6)
            .map(|i| {
                task(
                    i,
                    1.0 + i as f64,
                    40.0,
                    0.25 * i as f64,
                    PenaltyBound::UNBOUNDED,
                )
            })
            .collect();
        for t in &queue {
            let (eq4, eq5) = (eq4_cost(t, &queue, 3.0), eq5_cost(t, &queue));
            assert!(
                (eq4 - eq5).abs() <= 1e-9 * (1.0 + eq5.abs()),
                "{eq4} vs {eq5}"
            );
        }
    }

    #[test]
    fn a_bounded_penalty_caps_eq4_at_the_window() {
        // Expires at 10 + 20/2 = 20: started at 0 it would finish at 10,
        // so waiting costs decay only for the 10 units left.
        let short = task(0, 10.0, 20.0, 2.0, PenaltyBound::ZERO);
        let long = task(1, 50.0, 100.0, 1.0, PenaltyBound::UNBOUNDED);
        let queue = [short.clone(), long.clone()];
        assert_eq!(eq4_cost(&long, &queue, 0.0), 2.0 * 10.0);
        assert_eq!(eq4_cost(&short, &queue, 0.0), 1.0 * 10.0);
        assert_eq!(yield_at(&short.spec, 100.0), -0.0);
        assert_eq!(yield_at(&long.spec, 100.0), 50.0);
    }
}
