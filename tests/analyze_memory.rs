//! What `mbts analyze` holds while it reads a JSONL trace, measured. The
//! trace fold keeps one ledger row per task, the open preemption chain
//! and per-site busy steps, never an event or the input text, so folding
//! a file line by line peaks far below reading it whole, parsing every
//! event and analyzing the slice.
//!
//! A test binary of its own because it installs a counting global
//! allocator, and one gated test so that nothing else allocates while it
//! counts. Peaks are exact allocator counts (requested sizes, reserved
//! capacity included), not RSS, so the same trace gives the same numbers
//! on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbts::core::{AdmissionPolicy, Policy};
use mbts::site::{SiteConfig, SiteRun};
use mbts::trace::analyze::analyze;
use mbts::trace::{from_jsonl, read_jsonl, AnalyzeOptions, TraceFold, TraceReport, Tracer};
use mbts::workload::{generate_trace, MixConfig};

/// Bytes currently allocated, and the most ever live since the last
/// [`peak_of`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it never touch the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
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
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its value with the peak live heap above what was
/// live when it began.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let value = f();
    (value, PEAK.load(Ordering::Relaxed) - base)
}

/// Writes the provenance trace of a `tasks`-task FirstReward run with
/// preemption to `path` and returns its event count.
fn write_trace(tasks: usize, path: &Path) -> usize {
    let trace = generate_trace(
        &MixConfig::millennium_default()
            .with_tasks(tasks)
            .with_processors(8)
            .with_load_factor(1.2),
        41,
    );
    let config = SiteConfig::new(8)
        .with_policy(Policy::first_reward(0.3, 0.01))
        .with_preemption(true)
        .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 });
    let (_, tracer) = SiteRun::new(config, &trace, Tracer::buffer().with_provenance()).finish();
    let events = tracer.into_events().expect("a buffer keeps its events");
    let mut out = BufWriter::new(std::fs::File::create(path).expect("create trace"));
    for ev in &events {
        let line = serde_json::to_string(ev).expect("events serialize");
        writeln!(out, "{line}").expect("write trace");
    }
    out.flush().expect("write trace");
    events.len()
}

/// Analyzes `path` both ways: the whole file read, parsed into a slice
/// and analyzed; and folded line by line. Returns both peaks after
/// checking that the reports agree.
fn both_peaks(path: &Path) -> (usize, usize) {
    let opts = AnalyzeOptions::default();
    let (slice, slice_peak) = peak_of(|| {
        let text = std::fs::read_to_string(path).expect("read trace");
        let events = from_jsonl(&text).expect("trace parses");
        analyze("t", &events, &opts)
    });
    let (fold, fold_peak): (TraceReport, usize) = peak_of(|| {
        let mut fold = TraceFold::default();
        let file = std::fs::File::open(path).expect("open trace");
        read_jsonl(BufReader::new(file), &mut fold).expect("trace parses");
        fold.finish("t", &opts)
    });
    assert!(slice == fold, "the two paths disagree");
    (slice_peak, fold_peak)
}

fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mbts_analyze_memory_{}_{name}", std::process::id()))
}

#[test]
fn folding_a_trace_line_by_line_peaks_below_half_the_slice_path() {
    let path = temp_file("gate.jsonl");
    let events = write_trace(3_000, &path);
    let (slice_peak, fold_peak) = both_peaks(&path);
    eprintln!(
        "{events} events: slice path peaks at {slice_peak} B, fold at {fold_peak} B ({:.3}x)",
        fold_peak as f64 / slice_peak as f64
    );
    assert!(events > 5_000, "{events} events");
    assert!(
        2 * fold_peak <= slice_peak,
        "fold peaks at {fold_peak} B, slice path at {slice_peak} B"
    );
    std::fs::remove_file(&path).ok();
}

/// The peaks at about 100k and 1M events, for the record: not a gate,
/// and slow in a debug build.
#[test]
#[ignore = "minutes in a debug build; run with --release --ignored --nocapture"]
fn peak_heap_at_100k_and_1m_events() {
    for tasks in [38_000, 380_000] {
        let path = temp_file(&format!("{tasks}.jsonl"));
        let events = write_trace(tasks, &path);
        let bytes = std::fs::metadata(&path).expect("trace written").len();
        let (slice_peak, fold_peak) = both_peaks(&path);
        eprintln!(
            "{events} events, {bytes} B of JSONL: slice path peaks at {slice_peak} B, \
             fold at {fold_peak} B ({:.3}x)",
            fold_peak as f64 / slice_peak as f64
        );
        std::fs::remove_file(&path).ok();
    }
}
