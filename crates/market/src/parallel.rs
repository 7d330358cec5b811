//! Sharded parallel market: deterministic conservative PDES across sites.
//!
//! The serial [`EconomyRun`] drives every site from one event loop; its
//! global `(time, seq)` pop order is the replay contract every other
//! layer (golden traces, provenance, kill-point recovery) depends on.
//! This module parallelizes the loop **without changing that order**:
//!
//! * Sites are partitioned into contiguous **shards**, each owned by a
//!   worker (a thread, or executed inline on one core). Sites never
//!   share state, so shard-local work needs no locks.
//! * Events split into two classes. `Completion`s are **site-local**:
//!   handling one touches exactly one site plus (on job finish) the
//!   market ledgers. Everything else — arrivals, retries, crashes,
//!   repairs, orphan re-bids, deadline checks — reads or writes global
//!   state (the selection coin, the ledgers, many sites at once) and is
//!   handled on the coordinator in strict serial order.
//! * The coordinator pops maximal **runs of `Completion` events** from
//!   the queue. The key of the next non-completion event is the
//!   **lookahead barrier**: every completion in the run, and every
//!   completion transitively spawned before the barrier time, is safe
//!   to execute shard-locally because no global event can interleave
//!   (all arrivals are pre-scheduled, so the barrier is exact, not an
//!   estimate).
//! * Each shard executes its slice of the window in local `(time, key)`
//!   order, where carried events keep their serial sequence numbers and
//!   spawned completions get shard-local keys above the window's
//!   `base_key` (the queue's `next_seq` at window start). Within a
//!   shard this reproduces the serial relative order exactly: spawned
//!   events always sort after carried ones at equal times, just as
//!   fresh sequence numbers do in the serial engine.
//! * The coordinator then **merge-replays** the window: a heap seeded
//!   with the carried records interleaves all shards' records back into
//!   global `(time, seq)` order, assigning each spawned completion the
//!   sequence number the serial engine would have drawn, settling each
//!   finished contract in exact serial order (the f64 ledger sums are
//!   order-sensitive), and re-queueing spawned events that fell past
//!   the barrier with their serial sequence numbers.
//!
//! All RNG draws (selection coin, re-bid jitter, fault injector) happen
//! in coordinator events, so no stream is ever split across threads.
//! The result: `ShardedEconomyRun` is **bit-identical** to
//! [`EconomyRun`] — same outcome, same trace events, same snapshots —
//! at any shard count, threaded or inline.
//!
//! # Chaos: the lost-reply protocol
//!
//! A [`ChaosRegistry`] armed via [`ShardedEconomyRun::new_with_chaos`]
//! injects faults on the shard **reply fabric** — failpoint instance
//! `market.shard.reply.{i}` for shard `i` (a spec naming the bare
//! prefix [`POINT_SHARD_REPLY`] arms every shard). Two actions apply:
//! `delay_reply` makes the worker sleep before sending (a slow shard,
//! booked as barrier stall) and `drop_reply` makes it **stash** the
//! reply instead of sending it (a lost message). With chaos armed the
//! coordinator bounds every reply wait; on timeout it sends
//! `Op::Resend` and the worker re-delivers its stash if — and only
//! if — the op sequence number matches. Original-send and stash are
//! mutually exclusive and a stash is delivered at most once, so exactly
//! one reply per op reaches the coordinator: faults perturb *timing*,
//! never *content*, and the bit-identity contract above survives any
//! schedule of delays and drops. Inline mode has no reply fabric, so
//! the registry is inert there.

use crate::economy::{
    EcoEvent, EcoModel, EconomyConfig, EconomyOutcome, EconomyRun, EconomySnapshot, SiteCluster,
    SiteId,
};
use mbts_core::{AdmissionDecision, Job};
use mbts_sim::latency::elapsed_ns;
use mbts_sim::profiler::{self, Section};
use mbts_sim::{EventQueue, Model, Time};
use mbts_site::{CompletionToken, JobOutcome, SiteOutcome, SiteSnapshot, SiteState};
use mbts_trace::Tracer;
use mbts_workload::{TaskId, TaskSpec, Trace};
use mbts_chaos::{ChaosRegistry, FailAction};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failpoint name prefix for shard reply faults; shard `i` consults the
/// instance `market.shard.reply.{i}`. Dot-boundary prefix matching means
/// a spec naming this bare prefix arms every shard at once.
pub const POINT_SHARD_REPLY: &str = "market.shard.reply";

/// How long the coordinator waits for a shard reply before suspecting a
/// dropped message and issuing an `Op::Resend`. Only applies when a
/// chaos registry is armed; plain runs block indefinitely (no timeout
/// syscalls on the hot path).
const RESEND_TIMEOUT: Duration = Duration::from_millis(25);

/// How a [`ShardCluster`] executes its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardExecMode {
    /// Threads when more than one shard and more than one core are
    /// available, inline otherwise.
    Auto,
    /// Every shard executes on the calling thread (deterministic
    /// debugging, single-core boxes). Same code path as workers run.
    Inline,
    /// One worker thread per shard regardless of core count.
    Threads,
}

impl ShardExecMode {
    fn wants_threads(self, shards: usize) -> bool {
        match self {
            ShardExecMode::Inline => false,
            ShardExecMode::Threads => shards > 1,
            ShardExecMode::Auto => {
                shards > 1
                    && std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        > 1
            }
        }
    }
}

/// One completion event handed to a shard, carrying its serial sequence
/// number so shard-local ordering matches the serial engine's.
struct CarriedEvent {
    at: Time,
    seq: u64,
    site: SiteId,
    token: CompletionToken,
}

/// Where a spawned completion ended up.
enum Resolution {
    /// Enqueued in-window but not yet executed (transient; never
    /// escapes a shard).
    Pending,
    /// Executed in-window; the index of its [`WindowRecord`].
    Processed(usize),
    /// Fell at or past the barrier; the coordinator re-queues it with
    /// its serial sequence number.
    Leftover,
}

/// A completion spawned while executing a window.
struct SpawnInfo {
    at: Time,
    site: SiteId,
    token: CompletionToken,
    resolution: Resolution,
}

/// One executed completion, in shard-local order.
struct WindowRecord {
    at: Time,
    /// The serial sequence number for events carried into the window;
    /// `None` for completions spawned inside it.
    carried_seq: Option<u64>,
    site: SiteId,
    /// The finished task, if this completion retired a job.
    finished: Option<TaskId>,
    /// Indices into [`WindowResult::spawns`], in generation order.
    spawned: Vec<usize>,
}

/// Everything a shard reports back from one window.
struct WindowResult {
    records: Vec<WindowRecord>,
    spawns: Vec<SpawnInfo>,
}

/// Requests a worker understands. Site ids are global; each core maps
/// them to its slice.
enum Op {
    Evaluate {
        now: Time,
        spec: TaskSpec,
    },
    Award {
        site: SiteId,
        now: Time,
        spec: TaskSpec,
    },
    Cancel {
        site: SiteId,
        now: Time,
        task: TaskId,
    },
    CrashProcs {
        site: SiteId,
        n: usize,
        now: Time,
    },
    CrashSite {
        site: SiteId,
        now: Time,
    },
    Repair {
        site: SiteId,
        n: usize,
        now: Time,
    },
    Complete {
        site: SiteId,
        now: Time,
        token: CompletionToken,
    },
    Window {
        events: Vec<CarriedEvent>,
        barrier: Option<Time>,
        base_key: u64,
    },
    Quiescent,
    Snapshot,
    Stats,
    Finish,
    /// Chaos recovery: the coordinator timed out waiting for the reply
    /// to the op with this transport sequence number and asks the worker
    /// to re-deliver its stash. Handled in the worker loop, never by
    /// [`ShardCore::exec`]; inline mode never sends it.
    Resend,
}

enum Reply {
    Decisions(Vec<(usize, AdmissionDecision)>),
    Tokens(Vec<CompletionToken>),
    Flag(bool),
    Count(usize),
    Crashed(usize, Vec<Job>),
    Completion(Option<JobOutcome>, Vec<CompletionToken>),
    Window(WindowResult),
    Snapshots(Vec<SiteSnapshot>),
    Stats {
        sites: usize,
        busy_ns: u64,
        ops: u64,
    },
    Outcomes(Vec<SiteOutcome>),
}

/// A shard's state plus its op interpreter. The same `exec` body runs on
/// a worker thread or inline on the coordinator, so the two modes cannot
/// diverge.
struct ShardCore {
    /// This shard's contiguous site slice.
    sites: Vec<SiteState>,
    /// Global id of `sites[0]`.
    base: usize,
    busy_ns: u64,
    ops: u64,
}

impl ShardCore {
    fn exec(&mut self, op: Op) -> Reply {
        let start = Instant::now();
        self.ops += 1;
        let reply = match op {
            Op::Evaluate { now, spec } => Reply::Decisions(
                self.sites
                    .iter()
                    .enumerate()
                    .map(|(i, site)| (self.base + i, site.evaluate(now, spec)))
                    .collect(),
            ),
            Op::Award { site, now, spec } => {
                let s = &mut self.sites[site - self.base];
                s.note_offer(now);
                Reply::Tokens(s.accept(now, spec))
            }
            Op::Cancel { site, now, task } => {
                Reply::Flag(self.sites[site - self.base].cancel_pending(now, task))
            }
            Op::CrashProcs { site, n, now } => {
                Reply::Count(self.sites[site - self.base].crash(n, now))
            }
            Op::CrashSite { site, now } => {
                let s = &mut self.sites[site - self.base];
                let cap = s.capacity();
                let killed = s.crash(cap, now);
                let orphans = s.orphan_pending(now);
                Reply::Crashed(killed, orphans)
            }
            Op::Repair { site, n, now } => {
                Reply::Tokens(self.sites[site - self.base].repair(n, now))
            }
            Op::Complete { site, now, token } => {
                let (outcome, tokens) =
                    self.sites[site - self.base].on_completion_detailed(now, token);
                Reply::Completion(outcome, tokens)
            }
            Op::Window {
                events,
                barrier,
                base_key,
            } => {
                let t0 = Instant::now();
                let result = self.exec_window(events, barrier, base_key);
                profiler::record_since(Section::ShardWindow, t0);
                Reply::Window(result)
            }
            Op::Quiescent => Reply::Flag(self.sites.iter().all(|s| s.is_quiescent())),
            Op::Snapshot => Reply::Snapshots(self.sites.iter().map(|s| s.snapshot()).collect()),
            Op::Stats => Reply::Stats {
                sites: self.sites.len(),
                busy_ns: self.busy_ns,
                ops: self.ops,
            },
            Op::Finish => Reply::Outcomes(self.sites.drain(..).map(|s| s.into_outcome()).collect()),
            Op::Resend => unreachable!("Resend is intercepted by the worker loop"),
        };
        self.busy_ns += elapsed_ns(start);
        reply
    }

    /// Executes this shard's slice of a completion window in local
    /// `(time, key)` order. Carried events keep their serial sequence
    /// numbers; spawned completions take keys counting up from
    /// `base_key`, which exceeds every carried sequence number — exactly
    /// the relative order the serial engine's fresh sequence numbers
    /// would produce. Spawns landing at or past the barrier are recorded
    /// as leftovers for the coordinator to re-queue.
    fn exec_window(
        &mut self,
        events: Vec<CarriedEvent>,
        barrier: Option<Time>,
        base_key: u64,
    ) -> WindowResult {
        enum Pend {
            Carried {
                seq: u64,
                site: SiteId,
                token: CompletionToken,
            },
            Spawned(usize),
        }
        let mut pend: Vec<Pend> = Vec::with_capacity(events.len());
        let mut heap: BinaryHeap<Reverse<(Time, u64, usize)>> =
            BinaryHeap::with_capacity(events.len());
        for e in events {
            heap.push(Reverse((e.at, e.seq, pend.len())));
            pend.push(Pend::Carried {
                seq: e.seq,
                site: e.site,
                token: e.token,
            });
        }
        let mut records: Vec<WindowRecord> = Vec::new();
        let mut spawns: Vec<SpawnInfo> = Vec::new();
        let mut next_key = base_key;
        while let Some(Reverse((at, _, pi))) = heap.pop() {
            let (carried_seq, site, token, spawn_idx) = match pend[pi] {
                Pend::Carried { seq, site, token } => (Some(seq), site, token, None),
                Pend::Spawned(idx) => {
                    let s = &spawns[idx];
                    (None, s.site, s.token, Some(idx))
                }
            };
            let (finished, tokens) = self.sites[site - self.base].on_completion_detailed(at, token);
            let rec = records.len();
            if let Some(idx) = spawn_idx {
                spawns[idx].resolution = Resolution::Processed(rec);
            }
            let mut spawned = Vec::with_capacity(tokens.len());
            for t in tokens {
                let in_window = barrier.is_none_or(|b| t.at < b);
                let sidx = spawns.len();
                spawns.push(SpawnInfo {
                    at: t.at,
                    site,
                    token: t,
                    resolution: if in_window {
                        Resolution::Pending
                    } else {
                        Resolution::Leftover
                    },
                });
                spawned.push(sidx);
                if in_window {
                    heap.push(Reverse((t.at, next_key, pend.len())));
                    next_key += 1;
                    pend.push(Pend::Spawned(sidx));
                }
            }
            records.push(WindowRecord {
                at,
                carried_seq,
                site,
                finished: finished.map(|o| o.id),
                spawned,
            });
        }
        WindowResult { records, spawns }
    }
}

/// Handle to one shard's thread. Ops and replies carry a transport
/// sequence number so the chaos lost-reply protocol can never pair a
/// reply with the wrong request.
struct Worker {
    tx: Sender<(u64, Op)>,
    rx: Receiver<(u64, Reply)>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    /// Receives the reply for op `seq`. Without chaos the wait is
    /// unbounded (replies cannot be lost). With chaos armed the wait is
    /// bounded by [`RESEND_TIMEOUT`]: on expiry the coordinator suspects
    /// a dropped reply and asks the worker to re-send its stash. The
    /// resend is seq-matched on both sides, so a reply that was merely
    /// delayed is never duplicated.
    fn recv_reply(&self, seq: u64, chaos_armed: bool) -> Reply {
        if !chaos_armed {
            let (rseq, reply) = self.rx.recv().expect("shard worker died");
            debug_assert_eq!(rseq, seq, "reply out of order without chaos");
            return reply;
        }
        loop {
            match self.rx.recv_timeout(RESEND_TIMEOUT) {
                Ok((rseq, reply)) if rseq == seq => return reply,
                // A reply the protocol already settled — impossible by
                // construction (one outstanding op per worker, stash
                // delivered at most once); dropped if it ever shows.
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    self.tx
                        .send((seq, Op::Resend))
                        .expect("shard worker hung up");
                }
                Err(RecvTimeoutError::Disconnected) => panic!("shard worker died"),
            }
        }
    }
}

enum Exec {
    Inline(Vec<ShardCore>),
    Threads(Vec<Worker>),
}

/// A pool of site shards implementing [`SiteCluster`]: the coordinator's
/// `EcoModel` drives it exactly as it drives the serial site vector, and
/// the windowed driver ([`ShardedEconomyRun`]) dispatches completion
/// windows through it.
pub(crate) struct ShardCluster {
    exec: Exec,
    /// Sites per shard (contiguous partition; the last shard may be
    /// short).
    chunk: usize,
    shards: usize,
    /// Σ time the coordinator spent blocked at a barrier after the first
    /// shard's reply arrived (threaded mode only).
    stall_ns: u64,
    /// Seeded failpoint registry the workers consult before each reply
    /// send; `None` keeps the plain unbounded-recv fast path.
    chaos: Option<Arc<ChaosRegistry>>,
    /// Transport-level op sequence counter (tags every request).
    op_seq: u64,
}

impl ShardCluster {
    fn new(
        sites: Vec<SiteState>,
        shards: usize,
        mode: ShardExecMode,
        chaos: Option<Arc<ChaosRegistry>>,
    ) -> Self {
        assert!(shards >= 1, "cluster needs at least one shard");
        let shards = shards.min(sites.len()).max(1);
        let chunk = sites.len().div_ceil(shards);
        let mut cores: Vec<ShardCore> = Vec::with_capacity(shards);
        let mut rest = sites;
        let mut base = 0;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let tail = rest.split_off(take);
            cores.push(ShardCore {
                sites: rest,
                base,
                busy_ns: 0,
                ops: 0,
            });
            base += take;
            rest = tail;
        }
        let shards = cores.len();
        let exec = if mode.wants_threads(shards) {
            Exec::Threads(
                cores
                    .into_iter()
                    .enumerate()
                    .map(|(idx, mut core)| {
                        let (op_tx, op_rx) = std::sync::mpsc::channel::<(u64, Op)>();
                        let (reply_tx, reply_rx) = std::sync::mpsc::channel::<(u64, Reply)>();
                        let chaos = chaos.clone();
                        let point = format!("{POINT_SHARD_REPLY}.{idx}");
                        let join = std::thread::Builder::new()
                            .name(format!("mbts-shard-{idx}"))
                            .spawn(move || {
                                // Lost-reply protocol: a computed reply is
                                // either sent (possibly after a delay) or
                                // stashed — never both — and a stash is
                                // delivered at most once, on a seq-matched
                                // Resend. Exactly one reply per op reaches
                                // the coordinator.
                                let mut stash: Option<(u64, Reply, bool)> = None;
                                while let Ok((seq, op)) = op_rx.recv() {
                                    if matches!(op, Op::Resend) {
                                        if let Some((sseq, reply, fin)) = stash.take() {
                                            if sseq == seq {
                                                if reply_tx.send((sseq, reply)).is_err() || fin {
                                                    break;
                                                }
                                                continue;
                                            }
                                            stash = Some((sseq, reply, fin));
                                        }
                                        continue;
                                    }
                                    let fin = matches!(op, Op::Finish);
                                    let reply = core.exec(op);
                                    if let Some(firing) =
                                        chaos.as_ref().and_then(|c| c.hit(&point))
                                    {
                                        match firing.action {
                                            FailAction::DropReply => {
                                                // Keep looping even after a
                                                // Finish: the coordinator's
                                                // Resend must still be
                                                // answered before exiting.
                                                stash = Some((seq, reply, fin));
                                                continue;
                                            }
                                            FailAction::DelayReply { delay_ms } => {
                                                std::thread::sleep(Duration::from_millis(
                                                    delay_ms,
                                                ));
                                            }
                                            _ => {}
                                        }
                                    }
                                    if reply_tx.send((seq, reply)).is_err() || fin {
                                        break;
                                    }
                                }
                            })
                            .expect("spawn shard worker");
                        Worker {
                            tx: op_tx,
                            rx: reply_rx,
                            join: Some(join),
                        }
                    })
                    .collect(),
            )
        } else {
            Exec::Inline(cores)
        };
        ShardCluster {
            exec,
            chunk,
            shards,
            stall_ns: 0,
            chaos,
            op_seq: 0,
        }
    }

    fn shard_of(&self, site: SiteId) -> usize {
        site / self.chunk
    }

    fn num_shards(&self) -> usize {
        self.shards
    }

    fn is_threaded(&self) -> bool {
        matches!(self.exec, Exec::Threads(_))
    }

    /// One request to one shard, synchronously.
    fn call(&mut self, shard: usize, op: Op) -> Reply {
        let chaos_armed = self.chaos.is_some();
        match &mut self.exec {
            Exec::Inline(cores) => cores[shard].exec(op),
            Exec::Threads(ws) => {
                let seq = self.op_seq;
                self.op_seq += 1;
                ws[shard].tx.send((seq, op)).expect("shard worker hung up");
                ws[shard].recv_reply(seq, chaos_armed)
            }
        }
    }

    /// The same request to every shard; replies in shard order. In
    /// threaded mode the time between the first and last reply is
    /// booked as barrier stall.
    fn broadcast(&mut self, make: impl Fn() -> Op) -> Vec<Reply> {
        let chaos_armed = self.chaos.is_some();
        match &mut self.exec {
            Exec::Inline(cores) => cores.iter_mut().map(|c| c.exec(make())).collect(),
            Exec::Threads(ws) => {
                let base = self.op_seq;
                self.op_seq += ws.len() as u64;
                for (i, w) in ws.iter().enumerate() {
                    w.tx
                        .send((base + i as u64, make()))
                        .expect("shard worker hung up");
                }
                let mut first: Option<Instant> = None;
                let replies: Vec<Reply> = ws
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        let r = w.recv_reply(base + i as u64, chaos_armed);
                        first.get_or_insert_with(Instant::now);
                        r
                    })
                    .collect();
                if let Some(t) = first {
                    let ns = elapsed_ns(t);
                    self.stall_ns += ns;
                    profiler::record_ns(Section::BarrierStall, ns);
                }
                replies
            }
        }
    }

    /// Dispatches one window's batches to their shards (in parallel when
    /// threaded) and collects the results in batch order.
    fn run_windows(
        &mut self,
        batches: Vec<(usize, Vec<CarriedEvent>)>,
        barrier: Option<Time>,
        base_key: u64,
    ) -> Vec<WindowResult> {
        let unwrap = |r: Reply| match r {
            Reply::Window(w) => w,
            _ => unreachable!("window op answered with a non-window reply"),
        };
        let chaos_armed = self.chaos.is_some();
        match &mut self.exec {
            Exec::Inline(cores) => batches
                .into_iter()
                .map(|(s, events)| {
                    unwrap(cores[s].exec(Op::Window {
                        events,
                        barrier,
                        base_key,
                    }))
                })
                .collect(),
            Exec::Threads(ws) => {
                let mut order: Vec<(usize, u64)> = Vec::with_capacity(batches.len());
                for (s, events) in batches {
                    let seq = self.op_seq;
                    self.op_seq += 1;
                    order.push((s, seq));
                    ws[s]
                        .tx
                        .send((
                            seq,
                            Op::Window {
                                events,
                                barrier,
                                base_key,
                            },
                        ))
                        .expect("shard worker hung up");
                }
                let mut first: Option<Instant> = None;
                let results: Vec<WindowResult> = order
                    .iter()
                    .map(|&(s, seq)| {
                        let r = ws[s].recv_reply(seq, chaos_armed);
                        first.get_or_insert_with(Instant::now);
                        unwrap(r)
                    })
                    .collect();
                if results.len() > 1 {
                    if let Some(t) = first {
                        let ns = elapsed_ns(t);
                        self.stall_ns += ns;
                        profiler::record_ns(Section::BarrierStall, ns);
                    }
                }
                results
            }
        }
    }

    fn snapshots(&mut self) -> Vec<SiteSnapshot> {
        self.broadcast(|| Op::Snapshot)
            .into_iter()
            .flat_map(|r| match r {
                Reply::Snapshots(s) => s,
                _ => unreachable!(),
            })
            .collect()
    }

    fn take_outcomes(&mut self) -> Vec<SiteOutcome> {
        self.broadcast(|| Op::Finish)
            .into_iter()
            .flat_map(|r| match r {
                Reply::Outcomes(o) => o,
                _ => unreachable!(),
            })
            .collect()
    }

    fn stats(&mut self) -> Vec<ShardStat> {
        self.broadcast(|| Op::Stats)
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Reply::Stats {
                    sites,
                    busy_ns,
                    ops,
                } => ShardStat {
                    shard: i,
                    sites,
                    busy_ns,
                    ops,
                },
                _ => unreachable!(),
            })
            .collect()
    }
}

impl Drop for ShardCluster {
    fn drop(&mut self) {
        if let Exec::Threads(ws) = &mut self.exec {
            for w in ws.iter_mut() {
                // Dropping the op sender ends the worker's recv loop.
                let (dead_tx, _) = std::sync::mpsc::channel::<(u64, Op)>();
                drop(std::mem::replace(&mut w.tx, dead_tx));
                if let Some(join) = w.join.take() {
                    let _ = join.join();
                }
            }
        }
    }
}

impl SiteCluster for ShardCluster {
    fn evaluate_all(&mut self, now: Time, spec: TaskSpec) -> Vec<(usize, AdmissionDecision)> {
        self.broadcast(|| Op::Evaluate { now, spec })
            .into_iter()
            .flat_map(|r| match r {
                Reply::Decisions(d) => d,
                _ => unreachable!(),
            })
            .collect()
    }

    fn award(&mut self, site: SiteId, now: Time, spec: TaskSpec) -> Vec<CompletionToken> {
        match self.call(self.shard_of(site), Op::Award { site, now, spec }) {
            Reply::Tokens(t) => t,
            _ => unreachable!(),
        }
    }

    fn cancel_pending(&mut self, site: SiteId, now: Time, task: TaskId) -> bool {
        match self.call(self.shard_of(site), Op::Cancel { site, now, task }) {
            Reply::Flag(f) => f,
            _ => unreachable!(),
        }
    }

    fn crash_processors(&mut self, site: SiteId, n: usize, now: Time) -> usize {
        match self.call(self.shard_of(site), Op::CrashProcs { site, n, now }) {
            Reply::Count(k) => k,
            _ => unreachable!(),
        }
    }

    fn crash_site(&mut self, site: SiteId, now: Time) -> (usize, Vec<Job>) {
        match self.call(self.shard_of(site), Op::CrashSite { site, now }) {
            Reply::Crashed(k, orphans) => (k, orphans),
            _ => unreachable!(),
        }
    }

    fn repair(&mut self, site: SiteId, n: usize, now: Time) -> Vec<CompletionToken> {
        match self.call(self.shard_of(site), Op::Repair { site, n, now }) {
            Reply::Tokens(t) => t,
            _ => unreachable!(),
        }
    }

    fn on_completion(
        &mut self,
        site: SiteId,
        now: Time,
        token: CompletionToken,
    ) -> (Option<JobOutcome>, Vec<CompletionToken>) {
        match self.call(self.shard_of(site), Op::Complete { site, now, token }) {
            Reply::Completion(outcome, tokens) => (outcome, tokens),
            _ => unreachable!(),
        }
    }

    fn all_quiescent(&mut self) -> bool {
        self.broadcast(|| Op::Quiescent)
            .into_iter()
            .all(|r| match r {
                Reply::Flag(f) => f,
                _ => unreachable!(),
            })
    }
}

/// One shard's utilization counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Shard index.
    pub shard: usize,
    /// Sites owned by this shard.
    pub sites: usize,
    /// Wall time spent executing ops on this shard's sites.
    pub busy_ns: u64,
    /// Ops executed (windows, evaluations, awards, …).
    pub ops: u64,
}

impl ShardStat {
    /// Fraction of `wall_ns` this shard spent busy.
    pub fn utilization(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / wall_ns as f64
    }
}

/// Utilization summary of a sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Per-shard counters, shard order.
    pub shards: Vec<ShardStat>,
    /// Completion windows dispatched (multi-event only; single
    /// completions take the direct path).
    pub windows: u64,
    /// Σ coordinator wait after the first shard's reply at each barrier
    /// (threaded mode; 0 inline).
    pub barrier_stall_ns: u64,
    /// Wall time since the run was constructed.
    pub wall_ns: u64,
    /// Whether shards ran on worker threads.
    pub threaded: bool,
}

/// The sharded counterpart of [`EconomyRun`]: same construction inputs,
/// same observable behavior (outcome, trace, snapshots — bit-identical),
/// with completion windows executed across shards.
///
/// One [`step`](Self::step) applies either one coordinator event or one
/// whole completion window (many events), so `events_handled` — not step
/// count — is the comparable progress measure.
pub struct ShardedEconomyRun {
    model: EcoModel<ShardCluster>,
    queue: EventQueue<EcoEvent>,
    now: Time,
    handled: u64,
    windows: u64,
    started: Instant,
}

impl ShardedEconomyRun {
    /// Sets up the economy exactly as [`EconomyRun::new`] does, with
    /// sites partitioned into `shards` shards.
    pub fn new(
        config: EconomyConfig,
        trace: &Trace,
        tracer: Tracer,
        shards: usize,
        mode: ShardExecMode,
    ) -> Self {
        Self::new_with_chaos(config, trace, tracer, shards, mode, None)
    }

    /// Like [`new`](Self::new) with a failpoint registry armed on the
    /// shard reply fabric (`market.shard.reply.{i}`). Injected delays
    /// and drops perturb timing only — the outcome, trace, and snapshots
    /// stay bit-identical to the serial engine (see the module docs'
    /// lost-reply protocol). Inert in inline mode.
    pub fn new_with_chaos(
        config: EconomyConfig,
        trace: &Trace,
        tracer: Tracer,
        shards: usize,
        mode: ShardExecMode,
        chaos: Option<Arc<ChaosRegistry>>,
    ) -> Self {
        let sites: Vec<SiteState> = config
            .sites
            .iter()
            .map(|c| SiteState::new(c.clone()))
            .collect();
        let cluster = ShardCluster::new(sites, shards, mode, chaos);
        let (model, initial) = EconomyRun::build_parts(config, trace, tracer, cluster);
        let mut queue = EventQueue::new();
        for (at, ev) in initial {
            queue.schedule(at, ev);
        }
        ShardedEconomyRun {
            model,
            queue,
            now: Time::ZERO,
            handled: 0,
            windows: 0,
            started: Instant::now(),
        }
    }

    /// Resumes a run from a (serial or sharded — the format is shared)
    /// snapshot.
    pub fn from_snapshot(snap: EconomySnapshot, shards: usize, mode: ShardExecMode) -> Self {
        Self::from_snapshot_with_chaos(snap, shards, mode, None)
    }

    /// [`from_snapshot`](Self::from_snapshot) with the shard reply
    /// fabric chaos-armed, as in [`new_with_chaos`](Self::new_with_chaos).
    pub fn from_snapshot_with_chaos(
        mut snap: EconomySnapshot,
        shards: usize,
        mode: ShardExecMode,
        chaos: Option<Arc<ChaosRegistry>>,
    ) -> Self {
        let sites: Vec<SiteState> = std::mem::take(&mut snap.sites)
            .into_iter()
            .map(SiteState::from_snapshot)
            .collect();
        let cluster = ShardCluster::new(sites, shards, mode, chaos);
        let (model, entries, next_seq, now, handled) = EconomyRun::restore_parts(snap, cluster);
        ShardedEconomyRun {
            model,
            queue: EventQueue::restore(entries, next_seq),
            now,
            handled,
            windows: 0,
            started: Instant::now(),
        }
    }

    /// Applies the next coordinator event or completion window; `false`
    /// once the queue has run dry.
    pub fn step(&mut self) -> bool {
        let Some((_, head)) = self.queue.peek() else {
            return false;
        };
        if !matches!(head, EcoEvent::Completion { .. }) {
            let (at, _, ev) = self.queue.pop_entry().expect("peeked event vanished");
            self.now = at;
            self.handled += 1;
            self.model.handle(at, ev, &mut self.queue);
            return true;
        }
        // Workflow barrier: while any member is still unreleased, a
        // completion may release successors — global negotiation events
        // that must interleave with later completions in serial order —
        // so windowing is unsound. Process completions one at a time,
        // exactly as the serial engine does, until the DAG is fully
        // released; from then on completions only settle and windows are
        // safe again.
        if self.model.workflow_barrier() {
            let (at, _, ev) = self.queue.pop_entry().expect("peeked event vanished");
            self.now = at;
            self.handled += 1;
            self.model.handle(at, ev, &mut self.queue);
            return true;
        }
        // Maximal run of completions up to the next global event.
        let mut carried: Vec<(Time, u64, SiteId, CompletionToken)> = Vec::new();
        while let Some((_, EcoEvent::Completion { .. })) = self.queue.peek() {
            let (at, seq, ev) = self.queue.pop_entry().expect("peeked event vanished");
            let EcoEvent::Completion { site, token } = ev else {
                unreachable!()
            };
            carried.push((at, seq, site, token));
        }
        if carried.len() == 1 {
            // Single completion: the round-trip-per-event path is exactly
            // the serial engine's, windowing would only add overhead.
            let (at, _, site, token) = carried.pop().expect("one element");
            self.now = at;
            self.handled += 1;
            self.model
                .handle(at, EcoEvent::Completion { site, token }, &mut self.queue);
        } else {
            self.run_window(carried);
        }
        true
    }

    /// Executes one multi-event completion window: shard dispatch, then
    /// the deterministic merge-replay that restores global serial order.
    fn run_window(&mut self, carried: Vec<(Time, u64, SiteId, CompletionToken)>) {
        let barrier = self.queue.peek_key().map(|(t, _)| t);
        let base_key = self.queue.next_seq();
        let results: Vec<WindowResult> = {
            let cluster = self.model.cluster_mut();
            let mut batches: Vec<Vec<CarriedEvent>> = Vec::new();
            batches.resize_with(cluster.num_shards(), Vec::new);
            for (at, seq, site, token) in carried {
                batches[cluster.shard_of(site)].push(CarriedEvent {
                    at,
                    seq,
                    site,
                    token,
                });
            }
            let batches: Vec<(usize, Vec<CarriedEvent>)> = batches
                .into_iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .collect();
            cluster.run_windows(batches, barrier, base_key)
        };
        self.windows += 1;

        // Merge-replay: interleave all shards' records back into global
        // (time, seq) order, assigning spawned completions the sequence
        // numbers the serial engine would have drawn and settling
        // finished contracts in that exact order.
        let mut heap: BinaryHeap<Reverse<(Time, u64, usize, usize)>> = BinaryHeap::new();
        for (ri, res) in results.iter().enumerate() {
            for (i, rec) in res.records.iter().enumerate() {
                if let Some(seq) = rec.carried_seq {
                    heap.push(Reverse((rec.at, seq, ri, i)));
                }
            }
        }
        let mut next_seq = base_key;
        while let Some(Reverse((at, _, ri, rec_i))) = heap.pop() {
            self.now = at;
            self.handled += 1;
            let rec = &results[ri].records[rec_i];
            if let Some(task) = rec.finished {
                self.model.settle_completion(at, rec.site, task);
                // Windows only run once the DAG is fully released, so
                // this can settle workflows but never release successors
                // (it schedules nothing): same order as the serial
                // settle → workflow-advance sequence.
                self.model.workflow_complete(at, task, &mut self.queue);
            }
            for &sidx in &rec.spawned {
                let sp = &results[ri].spawns[sidx];
                let seq = next_seq;
                next_seq += 1;
                match sp.resolution {
                    Resolution::Processed(child) => {
                        heap.push(Reverse((sp.at, seq, ri, child)));
                    }
                    Resolution::Leftover => self.queue.schedule_with_seq(
                        sp.at,
                        seq,
                        EcoEvent::Completion {
                            site: sp.site,
                            token: sp.token,
                        },
                    ),
                    Resolution::Pending => unreachable!("window left a spawn pending"),
                }
            }
        }
        self.queue.advance_seq_to(next_seq);
    }

    /// Runs every remaining event.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// `true` once no events remain.
    pub fn is_done(&self) -> bool {
        self.queue.is_empty()
    }

    /// Events applied so far (windows count each member event).
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Shards in the cluster (after clamping to the site count).
    pub fn shards(&mut self) -> usize {
        self.model.cluster_mut().num_shards()
    }

    /// The workflow ledger's current report (workflow mode only).
    pub fn workflow_report(&self) -> Option<mbts_core::WorkflowReport> {
        self.model.workflow_report()
    }

    /// Captures the complete replay state — byte-identical to the serial
    /// [`EconomyRun::snapshot`] at the same event boundary.
    pub fn snapshot(&mut self) -> EconomySnapshot {
        let entries = self.queue.snapshot_entries();
        let next_seq = self.queue.next_seq();
        let (now, handled) = (self.now, self.handled);
        let sites = self.model.cluster_mut().snapshots();
        EconomyRun::snapshot_parts(&self.model, sites, entries, next_seq, now, handled)
    }

    /// Per-shard utilization and barrier-stall counters.
    pub fn shard_stats(&mut self) -> ShardStats {
        let wall_ns = elapsed_ns(self.started);
        let windows = self.windows;
        let cluster = self.model.cluster_mut();
        let shards = cluster.stats();
        ShardStats {
            shards,
            windows,
            barrier_stall_ns: cluster.stall_ns,
            wall_ns,
            threaded: cluster.is_threaded(),
        }
    }

    /// Consumes the (finished) run, yielding the outcome and the tracer.
    pub fn finish(mut self) -> (EconomyOutcome, Tracer) {
        debug_assert!(
            self.queue.is_empty(),
            "finish() on a run with pending events"
        );
        let per_site = self.model.cluster_mut().take_outcomes();
        EconomyRun::outcome_parts(self.model, per_site)
    }
}

impl crate::economy::Economy {
    /// Like [`run_trace_traced`](Self::run_trace_traced) but executed on
    /// a sharded cluster. Bit-identical to the serial replay.
    pub fn run_trace_sharded(
        &self,
        trace: &Trace,
        tracer: Tracer,
        shards: usize,
        mode: ShardExecMode,
    ) -> (EconomyOutcome, Tracer) {
        let mut run = ShardedEconomyRun::new(self.config().clone(), trace, tracer, shards, mode);
        run.run_to_completion();
        run.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economy::{Economy, EconomyConfig, MarketFaultConfig, MigrationConfig};
    use mbts_core::{AdmissionPolicy, Policy};
    use mbts_sim::{FaultConfig, UpDown};
    use mbts_site::SiteConfig;
    use mbts_workload::{generate_trace, MixConfig};

    fn trace(tasks: usize, seed: u64) -> Trace {
        generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(tasks)
                .with_processors(16)
                .with_load_factor(1.5),
            seed,
        )
    }

    fn cfg(sites: usize) -> EconomyConfig {
        EconomyConfig::uniform(
            sites,
            SiteConfig::new(2)
                .with_policy(Policy::FirstPrice)
                .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 }),
        )
    }

    fn faulty_cfg(sites: usize) -> EconomyConfig {
        let mut c = cfg(sites);
        c.migration = Some(MigrationConfig {
            grace: 50.0,
            max_attempts: 3,
        });
        let mut faults = MarketFaultConfig::new(
            FaultConfig {
                processor: Some(UpDown::exponential(2_500.0, 120.0)),
                site: Some(UpDown::exponential(15_000.0, 500.0)),
            },
            5,
        );
        faults.orphan_backoff = 30.0;
        faults.orphan_jitter = 0.25;
        c.faults = Some(faults);
        c
    }

    fn assert_bit_identical(a: &EconomyOutcome, b: &EconomyOutcome, label: &str) {
        assert_eq!(a.placed, b.placed, "{label}: placed");
        assert_eq!(a.crashes, b.crashes, "{label}: crashes");
        assert_eq!(a.orphaned, b.orphaned, "{label}: orphaned");
        assert_eq!(a.cancelled, b.cancelled, "{label}: cancelled");
        assert_eq!(
            a.total_paid.to_bits(),
            b.total_paid.to_bits(),
            "{label}: total_paid bits"
        );
        assert_eq!(
            a.total_settled.to_bits(),
            b.total_settled.to_bits(),
            "{label}: total_settled bits"
        );
        for (i, (ra, rb)) in a.site_revenue.iter().zip(&b.site_revenue).enumerate() {
            assert_eq!(ra.to_bits(), rb.to_bits(), "{label}: site {i} revenue bits");
        }
        assert_eq!(a.contracts.len(), b.contracts.len(), "{label}: contracts");
        for (ca, cb) in a.contracts.iter().zip(&b.contracts) {
            assert_eq!(ca.site, cb.site, "{label}: contract site");
            assert_eq!(
                ca.negotiated_price.to_bits(),
                cb.negotiated_price.to_bits(),
                "{label}: contract price bits"
            );
        }
        assert_eq!(a.per_site.len(), b.per_site.len());
        for (sa, sb) in a.per_site.iter().zip(&b.per_site) {
            assert_eq!(sa.outcomes, sb.outcomes, "{label}: per-site outcomes");
            assert_eq!(
                sa.metrics.total_yield.to_bits(),
                sb.metrics.total_yield.to_bits(),
                "{label}: yield bits"
            );
        }
        assert_eq!(a, b, "{label}: full outcome");
    }

    #[test]
    fn inline_sharded_run_matches_serial_bit_for_bit() {
        let t = trace(300, 11);
        let eco = Economy::new(cfg(4));
        let serial = eco.run_trace(&t);
        for shards in [1, 2, 3, 4] {
            let (sharded, _) =
                eco.run_trace_sharded(&t, Tracer::Off, shards, ShardExecMode::Inline);
            assert_bit_identical(&serial, &sharded, &format!("inline x{shards}"));
        }
    }

    #[test]
    fn threaded_sharded_run_matches_serial_bit_for_bit() {
        let t = trace(300, 12);
        let eco = Economy::new(cfg(4));
        let serial = eco.run_trace(&t);
        for shards in [2, 4] {
            let (sharded, _) =
                eco.run_trace_sharded(&t, Tracer::Off, shards, ShardExecMode::Threads);
            assert_bit_identical(&serial, &sharded, &format!("threads x{shards}"));
        }
    }

    #[test]
    fn chaos_dropped_and_delayed_replies_stay_bit_identical_to_serial() {
        use mbts_chaos::FailpointSpec;
        let t = trace(300, 18);
        let eco = Economy::new(cfg(4));
        let serial = eco.run_trace(&t);
        // Drop every 9th reply cluster-wide and delay every 5th on shard
        // 1: exercises stash+Resend and the delayed-reply/timeout race.
        let mut drops = FailpointSpec::always(POINT_SHARD_REPLY, FailAction::DropReply);
        drops.every = 9;
        drops.max_fires = 25; // each drop costs one RESEND_TIMEOUT; bound the wall clock
        let mut delays = FailpointSpec::always(
            &format!("{POINT_SHARD_REPLY}.1"),
            FailAction::DelayReply { delay_ms: 30 },
        );
        delays.every = 5;
        delays.max_fires = 4;
        let registry = Arc::new(ChaosRegistry::new(99, vec![drops, delays]));
        let mut run = ShardedEconomyRun::new_with_chaos(
            eco.config().clone(),
            &t,
            Tracer::Off,
            4,
            ShardExecMode::Threads,
            Some(Arc::clone(&registry)),
        );
        run.run_to_completion();
        let (chaotic, _) = run.finish();
        assert!(
            registry.fired_total() > 0,
            "schedule must actually inject faults"
        );
        let by_point = registry.fired_by_point();
        assert!(
            by_point.keys().all(|p| p.starts_with(POINT_SHARD_REPLY)),
            "only shard reply points may fire: {by_point:?}"
        );
        assert_bit_identical(&serial, &chaotic, "chaos threads x4");
    }

    #[test]
    fn sharded_run_with_faults_and_migration_matches_serial() {
        let t = trace(400, 13);
        let eco = Economy::new(faulty_cfg(4));
        let serial = eco.run_trace(&t);
        assert!(serial.crashes > 0, "faults must actually fire");
        for (shards, mode) in [
            (2, ShardExecMode::Inline),
            (4, ShardExecMode::Inline),
            (4, ShardExecMode::Threads),
        ] {
            let (sharded, _) = eco.run_trace_sharded(&t, Tracer::Off, shards, mode);
            assert_bit_identical(&serial, &sharded, &format!("{mode:?} x{shards}"));
        }
    }

    #[test]
    fn sharded_trace_stream_is_identical_to_serial() {
        let t = trace(250, 14);
        let eco = Economy::new(faulty_cfg(3));
        let (_, serial_tracer) = eco.run_trace_traced(&t, Tracer::buffer());
        let (_, sharded_tracer) =
            eco.run_trace_sharded(&t, Tracer::buffer(), 3, ShardExecMode::Threads);
        let a = serial_tracer.into_events().unwrap();
        let b = sharded_tracer.into_events().unwrap();
        assert_eq!(a, b, "settlement event streams diverged");
    }

    #[test]
    fn sharded_final_snapshot_is_byte_identical_to_serial() {
        let t = trace(200, 15);
        let c = faulty_cfg(4);
        let mut serial = EconomyRun::new(c.clone(), &t, Tracer::Off);
        serial.run_to_completion();
        let mut sharded = ShardedEconomyRun::new(c, &t, Tracer::Off, 4, ShardExecMode::Threads);
        sharded.run_to_completion();
        assert_eq!(serial.events_handled(), sharded.events_handled());
        let a = serde_json::to_string(&serial.snapshot()).unwrap();
        let b = serde_json::to_string(&sharded.snapshot()).unwrap();
        assert_eq!(a, b, "final snapshots diverged");
    }

    #[test]
    fn sharded_snapshot_resumes_in_the_serial_engine_and_vice_versa() {
        let t = trace(250, 16);
        let c = faulty_cfg(4);
        // Reference: pure serial.
        let mut reference = EconomyRun::new(c.clone(), &t, Tracer::Off);
        reference.run_to_completion();
        let (ref_out, _) = reference.finish();
        // Sharded to the halfway point, snapshot, resume serially.
        let mut sharded =
            ShardedEconomyRun::new(c.clone(), &t, Tracer::Off, 4, ShardExecMode::Inline);
        while sharded.events_handled() < 300 && sharded.step() {}
        let mut resumed_serial = EconomyRun::from_snapshot(sharded.snapshot());
        resumed_serial.run_to_completion();
        let (a, _) = resumed_serial.finish();
        assert_bit_identical(&ref_out, &a, "sharded→serial resume");
        // Serial to the halfway point, snapshot, resume sharded.
        let mut serial = EconomyRun::new(c, &t, Tracer::Off);
        for _ in 0..300 {
            if !serial.step() {
                break;
            }
        }
        let mut resumed_sharded =
            ShardedEconomyRun::from_snapshot(serial.snapshot(), 2, ShardExecMode::Threads);
        resumed_sharded.run_to_completion();
        let (b, _) = resumed_sharded.finish();
        assert_bit_identical(&ref_out, &b, "serial→sharded resume");
    }

    #[test]
    fn shard_stats_account_for_the_cluster() {
        let t = trace(200, 17);
        let mut run = ShardedEconomyRun::new(cfg(4), &t, Tracer::Off, 4, ShardExecMode::Threads);
        run.run_to_completion();
        let stats = run.shard_stats();
        assert!(stats.threaded);
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.shards.iter().map(|s| s.sites).sum::<usize>(), 4);
        assert!(stats.shards.iter().all(|s| s.ops > 0));
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn sharded_workflow_run_matches_serial_bit_for_bit() {
        use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
        let set = generate_workflows(
            &WorkflowConfig::default_set().with_workflows(8).with_shape(
                WorkflowShape::RandomLayered {
                    layers: 3,
                    width: 2,
                    edge_prob: 0.5,
                },
            ),
            21,
        );
        let t = set.trace();
        let mut c = cfg(4);
        c.workflows = Some(set);
        let eco = Economy::new(c);
        let (serial, serial_tracer) = eco.run_trace_traced(&t, Tracer::buffer());
        let serial_events = serial_tracer.into_events().unwrap();
        let report = serial.workflows.as_ref().expect("workflow report");
        assert_eq!(report.settled + report.failed, 8);
        for (shards, mode) in [
            (1, ShardExecMode::Inline),
            (2, ShardExecMode::Inline),
            (4, ShardExecMode::Inline),
            (4, ShardExecMode::Threads),
        ] {
            let (sharded, tracer) = eco.run_trace_sharded(&t, Tracer::buffer(), shards, mode);
            assert_bit_identical(&serial, &sharded, &format!("workflows {mode:?} x{shards}"));
            assert_eq!(serial.workflows, sharded.workflows, "workflow reports");
            assert_eq!(serial.stranded, sharded.stranded);
            assert_eq!(
                serial_events,
                tracer.into_events().unwrap(),
                "workflow trace streams diverged at {mode:?} x{shards}"
            );
        }
    }

    #[test]
    fn sharded_workflow_snapshot_resumes_across_engines() {
        use mbts_workload::{generate_workflows, WorkflowConfig, WorkflowShape};
        let set = generate_workflows(
            &WorkflowConfig::default_set()
                .with_workflows(6)
                .with_shape(WorkflowShape::Pipeline { depth: 4 }),
            22,
        );
        let t = set.trace();
        let mut c = cfg(4);
        c.workflows = Some(set);
        let mut reference = EconomyRun::new(c.clone(), &t, Tracer::Off);
        reference.run_to_completion();
        let (ref_out, _) = reference.finish();
        // Shard to midway (inside the release cascade), resume serially.
        let mut sharded =
            ShardedEconomyRun::new(c.clone(), &t, Tracer::Off, 4, ShardExecMode::Inline);
        while sharded.events_handled() < 20 && sharded.step() {}
        let mut resumed = EconomyRun::from_snapshot(sharded.snapshot());
        resumed.run_to_completion();
        let (a, _) = resumed.finish();
        assert_bit_identical(&ref_out, &a, "workflow sharded→serial resume");
        // Serial to midway, resume sharded.
        let mut serial = EconomyRun::new(c, &t, Tracer::Off);
        for _ in 0..20 {
            if !serial.step() {
                break;
            }
        }
        let mut resumed_sharded =
            ShardedEconomyRun::from_snapshot(serial.snapshot(), 2, ShardExecMode::Inline);
        resumed_sharded.run_to_completion();
        let (b, _) = resumed_sharded.finish();
        assert_bit_identical(&ref_out, &b, "workflow serial→sharded resume");
    }

    #[test]
    fn shard_count_above_site_count_is_clamped() {
        let t = trace(100, 18);
        let eco = Economy::new(cfg(2));
        let serial = eco.run_trace(&t);
        let mut run = ShardedEconomyRun::new(cfg(2), &t, Tracer::Off, 8, ShardExecMode::Inline);
        assert_eq!(run.shards(), 2);
        run.run_to_completion();
        let (out, _) = run.finish();
        assert_bit_identical(&serial, &out, "clamped shards");
    }
}
