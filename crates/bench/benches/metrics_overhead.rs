//! Overhead of the one metrics substrate (`mbts_sim::profiler` sections,
//! `mbts_trace::telemetry` counters) on the two hot paths that carry it.
//!
//! * `dispatch/{disabled,enabled}` — the pool's hot paths (`push`,
//!   `select_best`, `scores`) run inside profiler sections. Disabled is
//!   the default: one relaxed atomic load each, which must stay within
//!   noise of uninstrumented code (the `bench_dispatch` ≥5× gate runs
//!   over the same instrumented pool and is the CI enforcement of that
//!   claim). Enabled is the price of `mbts run --profile`.
//! * `request/{disabled,enabled}` — exactly the calls `serve` issues per
//!   accepted submit: route counter, request latency sample, and the
//!   journal-append and machine-apply timers. Enabled is the default for
//!   a daemon; disabled is `serve --no-telemetry`.
//! * `scrape` — what one `GET /metrics` poll costs a worker thread
//!   (`telemetry::scrape_text`), over a populated registry so bucket
//!   skipping doesn't flatter it.

use criterion::{criterion_group, criterion_main, Criterion};
use mbts_bench::hotpath::{drain_incremental, pending_queue, pool_of};
use mbts_core::Policy;
use mbts_sim::profiler;
use mbts_trace::telemetry::{self, Hist, Outcome, Route};
use std::hint::black_box;

const EVENTS: usize = 200;
const DT: f64 = 0.05;
const PENDING: usize = 10_000;

fn instrument_one_request(i: u64) {
    telemetry::count_request(Route::Submit, Outcome::Ack);
    telemetry::record_ns(Hist::Request, 1_000 + (i % 512) * 37);
    telemetry::time(Hist::JournalAppend, || black_box(i.wrapping_mul(0x9e37)));
    telemetry::time(Hist::Apply, || black_box(i.wrapping_add(0x79b9)));
}

fn metrics_overhead(c: &mut Criterion) {
    let jobs = pending_queue(PENDING);
    let policy = Policy::first_reward(0.3, 0.01);
    telemetry::reset();
    for (name, on) in [("disabled", false), ("enabled", true)] {
        profiler::set_plane(profiler::PROFILER, on);
        c.bench_function(format!("metrics/dispatch/{name}"), |b| {
            b.iter(|| {
                let mut pool = pool_of(policy, &jobs);
                black_box(drain_incremental(&mut pool, EVENTS, DT))
            })
        });
        profiler::set_plane(profiler::TELEMETRY, on);
        c.bench_function(format!("metrics/request/{name}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                instrument_one_request(black_box(i));
            })
        });
    }

    for (r, route) in telemetry::ROUTES.iter().enumerate() {
        for (o, outcome) in telemetry::OUTCOMES.iter().enumerate() {
            telemetry::count_request(*route, *outcome);
            telemetry::record_ns(Hist::Request, ((r + 1) * (o + 1) * 911) as u64);
        }
    }
    c.bench_function("metrics/scrape", |b| {
        b.iter(|| black_box(telemetry::scrape_text()))
    });
    profiler::disable();
}

criterion_group!(benches, metrics_overhead);
criterion_main!(benches);
