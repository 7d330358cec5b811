//! The daemon's heap, measured: resident memory is the typed state plus
//! one record being written, and tracks neither the bytes journalled so
//! far nor the size of the JSON read or written. The state is held once:
//! a snapshot is written from the live state it borrows, so writing one
//! costs its record and not a copy of the state (1.004× the payload), and
//! recovery streams the journal once to find the newest snapshot, then
//! parses that snapshot straight from its record through a fixed window,
//! never holding the file or the snapshot's text. So it peaks at the typed
//! state (0.734× the payload), and a restart allocates 0.66 MiB beyond the
//! run it leaves. Earlier builds measured 1.52× and 2.55× (each cloned the
//! state, or held a second snapshot, beside the text) and then 1.73×,
//! while recovery read the snapshot's text into a buffer to parse it.
//!
//! This is a test binary of its own because it installs a counting global
//! allocator, and it holds one test so that nothing else allocates while
//! it counts. Every bound is on exact allocator byte counts (requested
//! sizes, so capacity a buffer reserved and never touched counts too),
//! not on RSS: the same run gives the same numbers on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbts::durable::{framing, Journal, RecordTag};
use mbts::serve::{CommandKind, MachineConfig, ServiceRun};
use mbts::sim::Time;
use mbts::site::SiteConfig;
use mbts::workload::{PenaltyBound, TaskSpec};

/// Bytes currently allocated, and the most that ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it never touch the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // A block that grows counts its growth, not a second copy: `System`
    // extends a large block in place or remaps it.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p`, `layout` and `new_size` are the caller's, unchanged.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the most the heap stood above its
/// level at entry while `f` ran.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let entry = live();
    PEAK.store(entry, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - entry)
}

const SUBMITS: u64 = 30_000;
const SNAPSHOT_EVERY: u64 = 8192;

fn config() -> MachineConfig {
    MachineConfig {
        site: SiteConfig::new(64),
        ..MachineConfig::default()
    }
}

/// A lightly loaded site, as `serve-flood` keeps it: every task finishes
/// and leaves its outcome, segment and registry entry behind.
fn submit(run: &mut ServiceRun, i: u64) {
    let at = i as f64 * 2.0;
    let spec = TaskSpec::new(
        0,
        at,
        40.0 + (i % 17) as f64,
        10.0 + (i % 7) as f64,
        0.01,
        PenaltyBound::ZERO,
    );
    run.apply(Time::new(at), CommandKind::Submit { spec })
        .expect("append to a file in the temp dir");
}

/// Payload length of the last snapshot record in a journal image.
fn last_snapshot_len(image: &[u8]) -> usize {
    let scan = framing::scan(image).expect("a journal");
    let (_, payload) = scan
        .records
        .iter()
        .rev()
        .find(|(tag, _)| *tag == RecordTag::Snapshot)
        .expect("a snapshot record");
    payload.len()
}

/// A recovery's peak heap is the typed state parsed from the newest
/// snapshot, never its text — at most 0.75× the snapshot's payload
/// (0.734× measured; 1.73× while the text was read into a buffer to be
/// parsed) — and well under the journal it reads.
fn assert_recovery_is_bounded(what: &str, peak: usize, payload: usize, file_len: usize) {
    assert!(
        peak * 4 <= payload * 3 && peak * 2 <= file_len,
        "{what} peaked {peak} B for a {payload} B snapshot in a {file_len} B journal"
    );
}

#[test]
fn resident_memory_does_not_track_journal_bytes_or_json_size() {
    let dir = std::env::temp_dir().join(format!("mbts-serve-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("service.journal");
    let _ = std::fs::remove_file(&path);
    let file_len = || std::fs::metadata(&path).expect("journal file").len() as usize;

    // ---- a daemon life: the heap it leaves is its state, not its log ----
    let before = live();
    let (mut run, _) =
        ServiceRun::resume_file(&path, config(), SNAPSHOT_EVERY, 0).expect("fresh journal");
    for i in 0..SUBMITS {
        submit(&mut run, i);
    }
    let held = live() - before;
    assert!(
        held <= file_len() / 4,
        "after {SUBMITS} submits the run holds {held} B of heap for a {} B journal",
        file_len()
    );

    // ---- a journal-less daemon life: the same state and no stream --------
    // What `Server::start` runs on when `ServeConfig::journal` is `None`.
    let before = live();
    let mut unjournaled =
        ServiceRun::new(config(), Journal::discarding(), 0).expect("a journal with no sink");
    for i in 0..SUBMITS {
        submit(&mut unjournaled, i);
    }
    let held_unjournaled = live() - before;
    assert!(
        unjournaled.journal().len() > SUBMITS as usize * 200,
        "{} B framed measures nothing",
        unjournaled.journal().len()
    );
    assert!(
        held_unjournaled.abs_diff(held) <= 64 * 1024,
        "a journal-less run holds {held_unjournaled} B after {SUBMITS} submits, \
         a file-backed one {held} B"
    );
    drop(unjournaled);

    // ---- one snapshot: the record, and no copy of the state or tree -----
    let journal_before = file_len();
    let ((), peak) = peak_above_entry(|| run.snapshot_now().expect("snapshot"));
    let payload = file_len() - journal_before - framing::RECORD_OVERHEAD;
    assert!(
        payload > 1_000_000,
        "a {payload} B snapshot measures nothing"
    );
    // The record's buffer doubles up from `SCRATCH_START`, to 4 MiB for
    // this payload just under it; what else the write holds is the live
    // work it copies (the queue and the completions due).
    assert!(
        peak * 10 <= payload * 11,
        "snapshot_now peaked {peak} B above entry for a {payload} B payload"
    );
    drop(run);

    // ---- recovery streams the file: the typed state, not the log ----
    // Three periodic snapshots and the final one: a pass checks each as it
    // streams past and keeps where the newest starts and the commands
    // after it; the newest is then parsed from its record.
    let (image, loaded) = peak_above_entry(|| mbts::durable::load(&path).expect("journal file"));
    assert!(loaded < 4096, "load allocated {loaded} B");
    assert_eq!(image.len(), file_len());
    let ((machine, recovery), peak) =
        peak_above_entry(|| ServiceRun::recover(&image).expect("the journal recovers"));
    assert_eq!(recovery.replayed, 0);
    assert_eq!(machine.applied(), SUBMITS);
    assert_recovery_is_bounded("recover", peak, payload, file_len());
    drop(machine);
    // The whole-image view, read only now, holds the same newest snapshot.
    assert_eq!(last_snapshot_len(&image), payload);
    let snapshots = framing::scan(&image)
        .expect("a journal")
        .records
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Snapshot)
        .count();
    assert_eq!(
        snapshots, 5,
        "genesis, three periodic and the final snapshot"
    );
    drop(image);

    // ---- a restart: the image it recovers from is not kept ---------------
    let before = live();
    let ((resumed, recovery), peak) = peak_above_entry(|| {
        ServiceRun::resume_file(&path, config(), SNAPSHOT_EVERY, 0).expect("resume")
    });
    assert_eq!(recovery.replayed, 0);
    assert_eq!(resumed.machine().applied(), SUBMITS);
    assert_recovery_is_bounded("resume_file", peak, payload, file_len());
    let held = live() - before;
    assert!(
        held < file_len(),
        "a resumed run holds {held} B of heap for a {} B journal",
        file_len()
    );
    // The pass that truncates the tail and finds the snapshot, and the
    // parse from the record, cost less than 1 MiB beyond the state they
    // leave (0.66 MiB measured: the scan's 64 KiB buffer, the parser's
    // 64 KiB window, and the typed snapshot while it becomes the machine).
    assert!(
        peak - held < 1024 * 1024,
        "resume_file peaked {peak} B to leave a run holding {held} B"
    );
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();
}
