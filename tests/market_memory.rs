//! What a market run and a site run hold, measured. The trace is generated
//! in one allocation, and a run and its snapshots share it instead of
//! copying it, so after construction a run holds only its own bookkeeping
//! (the arrivals are a feed that reads each time from the shared tasks as
//! it comes due, and a market run keeps nothing per task), a fresh run's
//! snapshot costs its event queue and sites but no tasks, at quiescence a
//! run holds only what it produced, and per bid it makes a handful of
//! allocations rather than one set of buffers per site quoted. A contract
//! is a 24 B row over the shared tasks: it names its task by index, and
//! what its task gives (the price at the negotiated completion and the
//! settlement) is derived when read. It
//! is also a placed task's one record (a site inside an economy keeps
//! none), so what a run produces per contract is that row. Its runner-up
//! quote and its task → contract entry live only while it is open, and a
//! queued event names its task rather than carrying it. A finished site
//! run sorts its records in place.
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
use mbts::market::{EconomyConfig, EconomyRun};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{generate_trace, MixConfig, TaskSpec, Trace};

/// Bytes currently allocated, the most ever allocated at once, bytes
/// ever requested, and allocator calls that handed out memory.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Counts `added` more bytes live, `freed` fewer, and raises the peak.
fn moved(added: usize, freed: usize) {
    let now = LIVE.fetch_add(added, Ordering::Relaxed) + added;
    PEAK.fetch_max(now, Ordering::Relaxed);
    LIVE.fetch_sub(freed, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it never touch the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            moved(layout.size(), 0);
            REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
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
            moved(new_size, layout.size());
            REQUESTED.fetch_add(new_size, Ordering::Relaxed);
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

fn requested() -> usize {
    REQUESTED.load(Ordering::Relaxed)
}

/// `f`'s result, the bytes it still holds, and the bytes it requested in
/// total (freed again or not).
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (live_before, requested_before) = (live(), requested());
    let value = f();
    let held = live() as f64 - live_before as f64;
    (value, held, (requested() - requested_before) as f64)
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
    let (trace, _, generated) = measured(market_trace);
    let trace_bytes = (trace.tasks.len() * std::mem::size_of::<TaskSpec>()) as f64;
    // The tasks are written in place into the shared slice: one allocation
    // of the trace's size plus the generator's small change. (Filling a
    // `Vec` and converting it to the shared slice would make this 2.0.)
    let ratio = generated / trace_bytes;
    assert!(
        ratio <= 1.05,
        "generate_trace requests {generated} B, {ratio:.3}x the trace"
    );

    // ---- a market run -------------------------------------------------
    let (mut run, after_new, _) =
        measured(|| EconomyRun::new(market_config(), &trace, Tracer::Off));
    // 64 idle sites and nothing a task: the tasks are the caller's, and so
    // are the arrival times; 3.02 B a task measured. (A 4 B task →
    // contract ledger a task made this 7.1; a 16 B feed item a task as
    // well 23; two more 4 B ledgers, for migration attempts and retries,
    // 31; a copy of the tasks 104, and one heap entry per arrival before
    // that 259.) Every bound in this test is in bytes a task, so that a
    // smaller task record does not tighten it.
    let bytes_a_task = after_new / TASKS as f64;
    assert!(
        bytes_a_task <= 3.6,
        "EconomyRun::new holds {after_new} B, {bytes_a_task:.2} B a task"
    );
    // A fresh run's snapshot is its queue entries and 64 empty sites; it
    // shares the tasks. An entry is 48 B a pending arrival (a 32 B
    // `EcoEvent`, its time and its sequence number); 48.64 B a task
    // measured. (An `OrphanRebid` that carried its `TaskSpec` inline made
    // an event 96 B and this 114; cloning the tasks made it 186.)
    let (snapshot, held, _) = measured(|| run.snapshot());
    let bytes_a_task = held / TASKS as f64;
    assert!(
        bytes_a_task <= 50.4,
        "EconomyRun::snapshot holds {held} B, {bytes_a_task:.2} B a task"
    );
    drop(snapshot);

    let calls_before = calls();
    let start = live();
    PEAK.store(start, Ordering::Relaxed);
    let ((), grown, _) = measured(|| while run.step() {});
    let high_water = (PEAK.load(Ordering::Relaxed) - start) as f64;
    let per_task = (calls() - calls_before) as f64 / TASKS as f64;
    // A few completion-token vectors, the contract rows' occasional
    // doubling and the open table's nodes; 1.05 measured. (Copying 64
    // queues per bid made this 386.)
    assert!(
        per_task <= 8.0,
        "{per_task:.2} allocations per offered task over the stepped part"
    );

    let (outcome, _) = run.finish();
    assert_eq!(outcome.offered, TASKS);
    let contracts = outcome.contracts.len() as f64;
    let per_contract = grown / contracts;
    // At quiescence nothing is in flight: what the run added since `new`
    // is its results — per contract a 24 B ledger row (the price and
    // settlement are derived when read) in a
    // vector grown by doubling — and nothing that scales with the bids
    // handled; 53.7 measured, 54.0 while the sites' emptied queues held
    // 112 B jobs. (A 32 B row that kept the price, with an 8 B
    // runner-up quote a contract kept to the end, made this 84.0; a 56 B
    // row that kept the rest too 129.0; a 16 B `Option` quote beside it
    // 144, less the 18 B a contract of a copied feed that `new` held and
    // the run freed, 125.7; each site's 48 B `JobOutcome` a job, in 64
    // more doubling vectors, 207.7; a contract that copied its task and
    // terms, 160 B, 403.)
    assert!(
        per_contract <= 58.0,
        "heap grew {grown} B over the run, {per_contract:.1} B per contract"
    );
    // Nor does the run hold much more on the way: above its start it
    // peaks at its results so far, the events in flight, and a results
    // vector's old and new buffers while it doubles (a `realloc` counts
    // both); 77.0 measured, 77.3 with 112 B jobs. (With 32 B rows and
    // 8 B quotes it was 106.5, with 56 B rows 174.0, with 16 B quotes as
    // well 181.5, and with the sites' per-job records 241.7.)
    let high_water = high_water / contracts;
    assert!(
        high_water <= 82.0,
        "heap peaked {high_water:.1} B per contract above its start over the run"
    );
    drop(outcome);

    // ---- a site run ---------------------------------------------------
    let (mut run, after_new, requested_new) =
        measured(|| SiteRun::new(SiteConfig::new(SITES * PROCS_PER_SITE), &trace, Tracer::Off));
    // An idle site and a feed that reads the shared tasks: nothing a
    // task, 32 B in all measured. (A 16 B feed item a task made this
    // 16.0 B a task, and a copy of the tasks 88.)
    let bytes_a_task = after_new / TASKS as f64;
    assert!(
        bytes_a_task <= 0.72,
        "SiteRun::new holds {after_new} B, {bytes_a_task:.4} B a task"
    );
    // Nor does it ask for more on the way, 32 B measured. (Copying the
    // arrivals into a feed made this 16.0 B a task, and a second list of
    // them 32.0.)
    let bytes_a_task = requested_new / TASKS as f64;
    assert!(
        bytes_a_task <= 0.72,
        "SiteRun::new requested {requested_new} B, {bytes_a_task:.4} B a task"
    );
    // A queue entry a pending arrival and an idle site; 40.0 B a task
    // measured. (Cloning the tasks made this 120.)
    let (snapshot, held, _) = measured(|| run.snapshot());
    let bytes_a_task = held / TASKS as f64;
    assert!(
        bytes_a_task <= 54.0,
        "SiteRun::snapshot holds {held} B, {bytes_a_task:.2} B a task"
    );
    drop(snapshot);

    // Finishing sorts the per-job records by id in place: 0 B requested
    // measured. (A stable sort's scratch, one 48 B record a task, made
    // this 48.)
    while run.step() {}
    let ((outcome, _), _, requested_finish) = measured(|| run.finish());
    assert_eq!(outcome.outcomes.len(), TASKS);
    let bytes_a_task = requested_finish / TASKS as f64;
    assert!(
        bytes_a_task <= 0.72,
        "SiteRun::finish requested {requested_finish} B, {bytes_a_task:.4} B a task"
    );
}
