//! What a market run and a site run hold, measured: after construction
//! about one copy of the trace (the arrivals are a 16-byte-per-task feed,
//! the per-task ledgers plain vectors), at quiescence only what the run
//! produced, and per bid a handful of allocations rather than one set of
//! buffers per site quoted.
//!
//! A test binary of its own because it installs a counting global
//! allocator, and one test so that nothing else allocates while it counts.
//! Every bound is on exact allocator counts (requested sizes, so reserved
//! capacity counts too), not on RSS: the same run gives the same numbers
//! on any host. The recipe is the benchmark's `market-bids` at an eighth
//! of its size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbts::core::{AdmissionPolicy, Policy};
use mbts::market::{Contract, EconomyConfig, EconomyRun};
use mbts::site::{JobOutcome, SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig, TaskSpec, Trace};

/// Bytes currently allocated, and allocator calls that handed out memory.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it never touch the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p`, `layout` and `new_size` are the caller's, unchanged.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn calls() -> usize {
    CALLS.load(Ordering::Relaxed)
}

const TASKS: usize = 20_000;
const SITES: usize = 64;
const PROCS_PER_SITE: usize = 2;

fn market_trace() -> Trace {
    generate_trace(
        &MixConfig::millennium_default()
            .with_tasks(TASKS)
            .with_processors(SITES * PROCS_PER_SITE)
            .with_load_factor(1.2),
        1,
    )
}

fn market_config() -> EconomyConfig {
    let site = SiteConfig::new(PROCS_PER_SITE)
        .with_policy(Policy::FirstPrice)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 0.0 });
    EconomyConfig::uniform(SITES, site)
}

#[test]
fn runs_hold_what_is_live_and_quote_without_allocating() {
    let trace = market_trace();
    let trace_bytes = (trace.tasks.len() * std::mem::size_of::<TaskSpec>()) as f64;

    // ---- a market run -------------------------------------------------
    let entry = live();
    let mut run = EconomyRun::new(market_config(), &trace, Tracer::Off);
    let after_new = live() - entry;
    // Its own copy of the tasks, 16 B of feed and 12 B of ledgers a task,
    // 64 idle sites. (One heap entry per arrival made this 3.6.)
    let ratio = after_new as f64 / trace_bytes;
    assert!(
        ratio <= 1.5,
        "EconomyRun::new holds {after_new} B, {ratio:.2}x the trace"
    );

    let calls_before = calls();
    run.run_to_completion();
    let per_task = (calls() - calls_before) as f64 / TASKS as f64;
    // A contract, an outcome, a few completion-token vectors and the
    // occasional doubling. (Copying 64 queues per bid made this 386.)
    assert!(
        per_task <= 8.0,
        "{per_task:.2} allocations per offered task over the stepped part"
    );

    let grown = live() as f64 - entry as f64 - after_new as f64;
    let (outcome, _) = run.finish();
    assert_eq!(outcome.offered, TASKS);
    let outcomes: usize = outcome.per_site.iter().map(|s| s.outcomes.len()).sum();
    let per_contract = std::mem::size_of::<Contract>() + std::mem::size_of::<Option<f64>>();
    let results = (outcome.contracts.len() * per_contract
        + outcomes * std::mem::size_of::<JobOutcome>()) as f64;
    // At quiescence nothing is in flight and the feed is gone: what the
    // run added since `new` is its results, in vectors grown by doubling
    // (so up to twice their length in requested capacity) and nothing
    // that scales with the bids handled.
    assert!(
        grown <= 2.0 * results,
        "heap grew {grown} B over the run for {results} B of contracts and outcomes"
    );
    drop(outcome);

    // ---- a site run ---------------------------------------------------
    let entry = live();
    let run = SiteRun::new(SiteConfig::new(SITES * PROCS_PER_SITE), &trace, Tracer::Off);
    let after_new = live() - entry;
    let ratio = after_new as f64 / trace_bytes;
    assert!(
        ratio <= 1.5,
        "SiteRun::new holds {after_new} B, {ratio:.2}x the trace"
    );
    drop(run);
}
