//! The traced daemon life, replayed: what the client recorded — wire
//! bytes, replies — and what the journal recorded — every command — go
//! back through each layer's public functions on one thread, one layer at
//! a time, and the timings are hung under the client's spans.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mbts_durable::framing::RECORD_OVERHEAD;
use mbts_durable::{Journal, JournalSink};
use mbts_serve::{
    http, Command, CommandKind, MachineConfig, ServeConfig, ServiceMachine, ServiceRun,
};
use mbts_sim::{EventQueue, Time};
use mbts_site::{CompletionToken, SiteConfig};
use mbts_trace::telemetry as tel;

use crate::gen;
use crate::host;
use crate::ledger::{self, LayerRow, Ledger, SpanId};
use crate::report::{advise, check, Check};
use crate::serve::{ReqKind, ReqTrace, ServeParams, ServeRound, CONNS};
use crate::sim::{mirror_layers, timed, timer_overhead_ns, SiteMirror};

/// A journal file that counts its syncs, so "one sync per command" is an
/// observation and not a reading of the configuration.
struct CountingFile {
    file: File,
    syncs: Arc<AtomicU64>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl JournalSink for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.file.sync_data()
    }
}

/// What the replay of a traced life produced.
pub struct TracedServe {
    pub ledger: Ledger,
    pub rows: BTreeMap<&'static str, LayerRow>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Σ self time of the core-thread spans, for `ledger.gap_share`.
    pub core_self_ns: u64,
}

fn machine_config() -> MachineConfig {
    let d = ServeConfig::default();
    MachineConfig {
        site: SiteConfig::new(gen::SERVE_PROCESSORS),
        provenance: d.provenance,
        status_capacity: d.status_capacity,
    }
}

/// Replays what the traced life recorded — wire bytes, commands, replies —
/// through the public functions of each layer, one thread, one layer at a
/// time, and hangs the timings under the client's spans.
pub fn replay(p: &ServeParams, round: &ServeRound) -> io::Result<TracedServe> {
    let life = round.traced.as_ref().expect("replay needs a traced round");
    let timer = timer_overhead_ns();
    let every = ServeConfig::default().snapshot_every as usize;
    let n = life.commands.len();
    let mut checks = Vec::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- the client's view: one tree per request ------------------------
    let mut ledger = Ledger::with_capacity(life.requests.len() * 10 + 64);
    let mut wait_of: HashMap<u64, SpanId> = HashMap::with_capacity(life.requests.len());
    for r in &life.requests {
        let req = ledger.root("client.request", r.send_start, r.parsed, r.index);
        ledger.child_at(req, "client.send", r.send_start, r.send_end);
        let wait = ledger.child_at(req, "client.wait", r.send_end, r.first_byte.max(r.send_end));
        ledger.child_at(req, "client.read", r.first_byte.max(r.send_end), r.parsed);
        wait_of.insert(r.index, wait);
    }

    // ---- connection threads: parse the request, write the reply --------
    for c in 0..CONNS {
        let mine: Vec<&ReqTrace> = life
            .requests
            .iter()
            .filter(|r| r.index as usize % CONNS == c)
            .collect();
        let wire: Vec<u8> = mine.iter().flat_map(|r| r.wire.iter().copied()).collect();
        let mut reader = BufReader::new(io::Cursor::new(wire));
        let mut sink: Vec<u8> = Vec::with_capacity(512);
        for r in mine {
            let t = Instant::now();
            let parsed = http::read_request(&mut reader)?;
            let ns = timed(t, timer);
            std::hint::black_box(parsed);
            ledger.child(wait_of[&r.index], "serve.http_parse", ns, 1);
            sink.clear();
            let t = Instant::now();
            http::write_response(&mut sink, r.status, http::reason(r.status), &[], &r.body)?;
            let ns = timed(t, timer);
            ledger.child(wait_of[&r.index], "serve.reply_write", ns, 1);
        }
    }

    // Which request caused which command: a submit's reply names the task
    // its command carries; cancels of one task pair off in script order.
    let mut submit_req: HashMap<u64, u64> = HashMap::new();
    let mut cancel_req: HashMap<u64, VecDeque<u64>> = HashMap::new();
    let mut by_index: Vec<&ReqTrace> = life.requests.iter().collect();
    by_index.sort_by_key(|r| r.index);
    for r in by_index {
        match (r.kind, r.task) {
            (ReqKind::Submit, Some(task)) => {
                submit_req.insert(task, r.index);
            }
            (ReqKind::Cancel, Some(task)) => cancel_req.entry(task).or_default().push_back(r.index),
            _ => {}
        }
    }
    let parent_of =
        |cmd: &Command, cancel_req: &mut HashMap<u64, VecDeque<u64>>| -> Option<SpanId> {
            let index = match &cmd.kind {
                CommandKind::Submit { spec } | CommandKind::Shed { spec, .. } => {
                    submit_req.get(&spec.id.0).copied()
                }
                CommandKind::Cancel { task } => {
                    cancel_req.get_mut(&task.0).and_then(VecDeque::pop_front)
                }
                CommandKind::Drain => None,
            };
            index.map(|i| wait_of[&i])
        };

    // ---- pass B: the core thread's call, whole -------------------------
    // `ServiceRun::apply` per command, `snapshot_now` at the daemon's
    // cadence, on a file journal with the workload's fsync setting.
    let scratch = host::scratch_dir()?;
    let path_b = scratch.join(format!(
        "{}-{}-replay-b.journal",
        p.name,
        std::process::id()
    ));
    let mut run_ns: Vec<u64> = Vec::with_capacity(n);
    let mut snap_ns: Vec<u64> = Vec::new();
    let mut run = ServiceRun::new(
        machine_config(),
        Journal::create(&path_b)?.with_fsync_every_n(p.fsync_every_n),
        0,
    )?;
    for (i, cmd) in life.commands.iter().enumerate() {
        let kind = cmd.kind.clone();
        let t = Instant::now();
        run.apply(cmd.at, kind)?;
        run_ns.push(timed(t, timer));
        if (i + 1) % every == 0 {
            let t = Instant::now();
            run.snapshot_now()?;
            snap_ns.push(timed(t, timer));
        }
    }
    let whole_json = run.machine().snapshot_json();
    drop(run);
    std::fs::remove_file(&path_b)?;

    // ---- pass A: the same work, one layer at a time ---------------------
    let path_a = scratch.join(format!(
        "{}-{}-replay-a.journal",
        p.name,
        std::process::id()
    ));
    let syncs = Arc::new(AtomicU64::new(0));
    let mut journal = Journal::with_sink(Box::new(CountingFile {
        file: File::create(&path_a)?,
        syncs: Arc::clone(&syncs),
    }))
    .with_fsync_every_n(p.fsync_every_n);
    let mut machine = ServiceMachine::new(machine_config());
    let mut cancel_left = cancel_req.clone();
    let (mut enc_total, mut app_total, mut apl_total) = (0u64, 0u64, 0u64);
    let (mut snap_ser_total, mut snap_app_total, mut snap_bytes_total, mut snap_bytes_max) =
        (0u64, 0u64, 0u64, 0u64);
    let mut snapshots = 0usize;
    let mut apply_span: Vec<SpanId> = Vec::with_capacity(n);
    let append_name = if p.fsync_every_n == 1 {
        "durable.append_sync"
    } else {
        "durable.append"
    };
    for (i, cmd) in life.commands.iter().enumerate() {
        let t = Instant::now();
        let payload = serde_json::to_vec(cmd).expect("commands serialize");
        let enc = timed(t, timer);
        let t = Instant::now();
        journal.append_event(&payload)?;
        let app = timed(t, timer);
        let t = Instant::now();
        std::hint::black_box(machine.apply(cmd));
        let apl = timed(t, timer);
        enc_total += enc;
        app_total += app;
        apl_total += apl;
        // The whole call from pass B is the parent; the parts go under it.
        let call = match parent_of(cmd, &mut cancel_left) {
            Some(wait) => ledger.child(wait, "serve.run_apply", run_ns[i], 1),
            None => ledger.root("serve.run_apply", 0, run_ns[i], u64::MAX),
        };
        ledger.child(call, "serve.cmd_encode", enc, 1);
        ledger.child(call, append_name, app, 1);
        apply_span.push(ledger.child(call, "serve.machine_apply", apl, 1));
        if (i + 1) % every == 0 {
            let t = Instant::now();
            let snap = serde_json::to_vec(&machine.snapshot()).expect("snapshots serialize");
            let ser = timed(t, timer);
            let t = Instant::now();
            journal.append_snapshot(&snap)?;
            let sapp = timed(t, timer);
            let whole = ledger.root("serve.snapshot", 0, snap_ns[snapshots], i as u64);
            ledger.child(whole, "serve.snapshot_serialize", ser, 1);
            ledger.child(whole, "durable.snapshot_append", sapp, 1);
            snap_ser_total += ser;
            snap_app_total += sapp;
            snap_bytes_total += snap.len() as u64;
            snap_bytes_max = snap_bytes_max.max(snap.len() as u64);
            snapshots += 1;
        }
    }
    let parts_json = machine.snapshot_json();
    let machine_yield = machine.metrics().total_yield;
    drop(machine);
    drop(journal);
    std::fs::remove_file(&path_a)?;

    // ---- pass C: the site and its pool, under `machine_apply` -----------
    let mut mirror = SiteMirror::new(&machine_config().site, timer);
    let mut completions: EventQueue<CompletionToken> = EventQueue::new();
    let mut now = Time::ZERO;
    for (cmd, &span) in life.commands.iter().zip(&apply_span) {
        let at = cmd.at.max(now);
        while completions.peek_time().is_some_and(|t| t <= at) {
            let t = Instant::now();
            let (due, token) = completions.pop().expect("peeked");
            ledger.child(span, "sim.queue_pop", timed(t, timer), 1);
            now = now.max(due);
            let (_, tokens) = mirror.complete(&mut ledger, span, due, token);
            schedule_all(&mut ledger, span, &mut completions, &tokens, timer);
        }
        now = now.max(at);
        match &cmd.kind {
            CommandKind::Submit { spec } => {
                let tokens = mirror.submit(&mut ledger, span, now, *spec, false);
                schedule_all(&mut ledger, span, &mut completions, &tokens, timer);
            }
            CommandKind::Cancel { task } => {
                mirror.cancel(now, *task);
            }
            CommandKind::Shed { .. } | CommandKind::Drain => {}
        }
    }

    // ---- telemetry: what the hot path pays per request -------------------
    const PAIRS: u64 = 200_000;
    let t = Instant::now();
    for i in 0..PAIRS {
        tel::count_request(tel::Route::Submit, tel::Outcome::Ack);
        tel::record_ns(tel::Hist::Request, 1_000 + i);
    }
    let telemetry_ns = t.elapsed().as_nanos() as f64 / PAIRS as f64;

    // ---- the numbers ------------------------------------------------------
    let rows = ledger.rows();
    let mean = |name: &str| rows.get(name).map_or(0.0, LayerRow::mean_ns);
    let run_total: u64 = run_ns.iter().sum();
    let snap_total: u64 = snap_ns.iter().sum();
    let parts_total = enc_total + app_total + apl_total + snap_ser_total + snap_app_total;
    let reconcile = parts_total as f64 / (run_total + snap_total).max(1) as f64;
    let ops = round.books.requests() as f64;
    let wall_per_op = round.wall_s * 1e9 / ops;
    let core_per_op = (run_total + snap_total) as f64 / ops;
    let mb = |bytes: u64| bytes as f64 / 1e6;

    layers.extend(mirror_layers(&rows, std::iter::once(&mirror)));
    layers.insert("workload.generate_ns_per_task", round.generate_ns_per_task);
    if p.fsync_every_n == 1 {
        layers.insert("durable.append_sync_ns", mean(append_name));
    } else {
        layers.insert("durable.append_ns", mean(append_name));
    }
    layers.insert(
        "durable.record_bytes",
        life.record_bytes.iter().map(|&b| f64::from(b)).sum::<f64>() / n.max(1) as f64
            + RECORD_OVERHEAD as f64,
    );
    if snapshots > 0 {
        layers.insert(
            "durable.snapshot_append_ns_per_mb",
            snap_app_total as f64 / mb(snap_bytes_total),
        );
    }
    layers.insert(
        "durable.scan_ns_per_mb",
        life.recover.scan_ns as f64 / mb(life.image_bytes),
    );
    layers.insert("serve.http_parse_ns", mean("serve.http_parse"));
    layers.insert("serve.reply_write_ns", mean("serve.reply_write"));
    layers.insert("serve.cmd_encode_ns", mean("serve.cmd_encode"));
    layers.insert("serve.machine_apply_ns", mean("serve.machine_apply"));
    layers.insert("serve.run_apply_ns", mean("serve.run_apply"));
    layers.insert("serve.snapshot_count", snapshots as f64);
    layers.insert("serve.snapshot_ns_total", snap_total as f64);
    layers.insert(
        "serve.snapshot_ns_max",
        snap_ns.iter().copied().max().unwrap_or(0) as f64,
    );
    layers.insert("serve.snapshot_bytes_max", snap_bytes_max as f64);
    layers.insert(
        "serve.snapshot_share",
        snap_total as f64 / (run_total + snap_total).max(1) as f64,
    );
    layers.insert("serve.recover_parse_ns", life.recover.parse_ns as f64);
    layers.insert(
        "serve.recover_replay_ns_per_cmd",
        life.recover.replay_ns as f64 / life.recover.replayed.max(1) as f64,
    );
    layers.insert("serve.ingress_residual_ns", wall_per_op - core_per_op);
    layers.insert("serve.refused_count", round.books.refused as f64);
    layers.insert("trace.telemetry_record_ns", telemetry_ns);
    layers.insert("ledger.core_reconcile_share", reconcile);

    advise(
        &mut checks,
        "replayed core-thread layers reconcile with run_apply within 15 %",
        (0.85..=1.15).contains(&reconcile),
        format!(
            "encode+append+apply+snapshots {:.1} ms vs run_apply+snapshot_now {:.1} ms",
            parts_total as f64 / 1e6,
            (run_total + snap_total) as f64 / 1e6
        ),
    );
    check(
        &mut checks,
        "both replays end in the same machine, and the mirror site in the same yield",
        whole_json == parts_json
            && mirror.site.metrics().total_yield.to_bits() == machine_yield.to_bits(),
        format!(
            "snapshots equal: {}; mirror yield {} vs {machine_yield}",
            whole_json == parts_json,
            mirror.site.metrics().total_yield
        ),
    );
    let synced = syncs.load(Ordering::Relaxed);
    check(
        &mut checks,
        "one sync per journaled command exactly when fsync_every_n = 1",
        synced == (n + snapshots) as u64 * p.fsync_every_n,
        format!("{synced} syncs over {n} commands and {snapshots} snapshots"),
    );
    if p.fsync_every_n == 0 && n >= 14 * every {
        let share = layers["serve.snapshot_share"];
        check(
            &mut checks,
            "serve-flood regime: snapshots a large minority of core-thread time, > 1 KB/op",
            share >= 0.25 && round.journal_bytes_per_op > 1000.0,
            format!(
                "snapshot_share {share:.3}, {:.0} B/op",
                round.journal_bytes_per_op
            ),
        );
    }
    let core_self_ns = [
        "serve.run_apply",
        "serve.cmd_encode",
        append_name,
        "serve.machine_apply",
        "site.submit",
        "site.completion",
        "core.pool_push",
        "core.pool_select",
        "core.pool_remove",
        "sim.queue_pop",
        "sim.queue_schedule",
        "serve.snapshot",
        "serve.snapshot_serialize",
        "durable.snapshot_append",
    ]
    .iter()
    .filter_map(|name| rows.get(name))
    .map(LayerRow::self_ns)
    .sum();
    Ok(TracedServe {
        rows,
        ledger,
        layers,
        checks,
        core_self_ns,
    })
}

fn schedule_all(
    ledger: &mut Ledger,
    parent: SpanId,
    queue: &mut EventQueue<CompletionToken>,
    tokens: &[CompletionToken],
    timer: u64,
) {
    if tokens.is_empty() {
        return;
    }
    let t = Instant::now();
    for token in tokens {
        queue.schedule(token.at, *token);
    }
    ledger.child(
        parent,
        "sim.queue_schedule",
        timed(t, timer),
        tokens.len() as u32,
    );
}

/// `1 − Σ core-thread self time / traced wall`: the share of the life the
/// core thread's measured layers do not account for.
pub fn gap_share(t: &TracedServe, round: &ServeRound) -> f64 {
    ledger::gap_share(t.core_self_ns, (round.wall_s * 1e9) as u64)
}
