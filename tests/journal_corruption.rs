//! Property tests over journal damage: truncating or corrupting an
//! arbitrary suffix of a journal must never panic, must always recover
//! the valid prefix (or fail with a clean error when nothing intact
//! remains), and a recovered run finished to completion must be
//! bit-identical to the uninterrupted run — conservation auditors clean.

use mbts::core::Policy;
use mbts::durable::{
    framing, load, DurableRun, FramingError, Journal, JournalSource, Kind, RecordTag, RecoverError,
    Recoverable, RecoveryReport,
};
use mbts::market::{EconomyConfig, EconomyRun};
use mbts::serve::{CommandKind, MachineConfig, ServiceMachine, ServiceRun, ShedReason};
use mbts::sim::Time;
use mbts::sim::UpDown;
use mbts::site::{FaultPlan, SiteConfig, SiteOutcome, SiteRun};
use mbts::trace::Tracer;
use mbts::workload::{fig67_mix, generate_trace, PenaltyBound, TaskId, TaskSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Reference journal and uninterrupted outcome, built once: a faulted,
/// preempting site run journaled with frequent snapshots so damage at
/// different depths lands before, between, and after snapshot records.
fn reference() -> &'static (Vec<u8>, SiteOutcome, u64) {
    static REF: OnceLock<(Vec<u8>, SiteOutcome, u64)> = OnceLock::new();
    REF.get_or_init(|| {
        let trace = generate_trace(&fig67_mix(1.6).with_tasks(20).with_processors(4), 11);
        let config = SiteConfig::new(4)
            .with_policy(Policy::first_reward(0.3, 0.01))
            .with_preemption(true);
        let plan = FaultPlan::new(UpDown::exponential(600.0, 80.0), 3);
        let run = SiteRun::with_faults(config, &trace, &plan, Tracer::Off);
        let mut durable = DurableRun::new(run, Journal::in_memory(), 8).unwrap();
        durable.run_to_completion().unwrap();
        let (run, journal) = durable.into_parts();
        let total = run.events_handled();
        let (outcome, _) = run.finish();
        (journal.bytes().to_vec(), outcome, total)
    })
}

/// Recovery of damaged bytes either fails cleanly or yields a run that
/// finishes bit-identically to the uninterrupted reference.
fn check_damaged(bytes: &[u8]) -> Result<(), String> {
    // The framing scan itself must never panic on any input.
    let _ = framing::scan(bytes);
    let _ = bytes.recovered();
    match DurableRun::<SiteRun>::recover(bytes) {
        Ok((mut run, report)) => {
            let (_, want, total) = reference();
            prop_assert!(run.events_handled() <= *total);
            while run.step() {}
            prop_assert_eq!(run.events_handled(), *total);
            let (got, _) = run.finish();
            prop_assert!(
                got.violations.is_empty(),
                "conservation auditors tripped after recovery: {:?}",
                got.violations
            );
            prop_assert_eq!(&got, want, "recovered run diverged from reference");
            // Damage only ever costs the tail, never the whole journal.
            prop_assert!(report.dropped_bytes <= bytes.len());
        }
        // Nothing intact to recover is a clean, typed refusal.
        Err(
            RecoverError::Framing(_)
            | RecoverError::NoSnapshot
            | RecoverError::BadSnapshot(_)
            | RecoverError::BadEvent { .. },
        ) => {}
        Err(RecoverError::Divergence { index, detail }) => {
            return Err(format!(
                "suffix damage must not masquerade as divergence (event {index}: {detail})"
            ));
        }
        Err(e @ RecoverError::Io { .. }) => {
            return Err(format!("bytes in memory cannot fail to read: {e}"));
        }
    }
    Ok(())
}

/// An economy and a service reference journal, built once, for the
/// record-splicing property: snapshots every 8 inputs, so a cut lands
/// before, between and after snapshot records.
fn economy_reference() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let trace = generate_trace(&fig67_mix(1.5).with_tasks(16).with_processors(8), 9);
        let config = EconomyConfig::uniform(2, SiteConfig::new(4).with_policy(Policy::FirstPrice));
        let run = EconomyRun::new(config, &trace, Tracer::Off);
        let mut durable = DurableRun::new(run, Journal::in_memory(), 8).unwrap();
        durable.run_to_completion().unwrap();
        durable.journal().bytes().to_vec()
    })
}

fn service_reference() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let mut run = ServiceRun::new(MachineConfig::default(), Journal::in_memory(), 8).unwrap();
        for i in 0..30u64 {
            let at = Time::new(i as f64 * 0.5);
            let spec = TaskSpec::new(0, i as f64 * 0.5, 2.0, 6.0, 0.05, PenaltyBound::ZERO);
            let kind = match i % 5 {
                3 => CommandKind::Cancel {
                    task: TaskId(i / 2),
                },
                4 => CommandKind::Shed {
                    spec,
                    queue_depth: 4,
                    reason: ShedReason::LowestValue,
                },
                _ => CommandKind::Submit { spec },
            };
            run.apply(at, kind).unwrap();
        }
        run.apply(Time::new(20.0), CommandKind::Drain).unwrap();
        run.journal().bytes().to_vec()
    })
}

/// `bytes` with the records at the `cut` positions left out and every
/// other record framed exactly as before: a CRC-valid journal.
fn without_records(bytes: &[u8], cut: &[usize]) -> Vec<u8> {
    let scan = framing::scan(bytes).unwrap();
    let mut out = Vec::new();
    framing::write_header(&mut out, scan.kind);
    for (i, (tag, payload)) in scan.records.iter().enumerate() {
        if !cut.contains(&i) {
            framing::append_record(&mut out, *tag, payload);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cutting one or two whole records out of a site, an economy or a
    /// service journal leaves every CRC valid, so only replay can notice.
    /// Recovery returns a run or a typed error — here `Divergence` is the
    /// expected one — and never panics.
    #[test]
    fn splicing_out_whole_records_never_panics_recovery(
        kind in 0usize..3,
        first in 0.0f64..1.0,
        second in 0.0f64..1.0,
        two in any::<bool>(),
    ) {
        let bytes: &[u8] = match kind {
            0 => &reference().0,
            1 => economy_reference(),
            _ => service_reference(),
        };
        let records = framing::scan(bytes).unwrap().records.len();
        let pick = |f: f64| ((records as f64) * f) as usize;
        let cut = if two { vec![pick(first), pick(second)] } else { vec![pick(first)] };
        let spliced = without_records(bytes, &cut);
        let outcome = match kind {
            0 => DurableRun::<SiteRun>::recover(&spliced).map(|_| ()),
            1 => DurableRun::<EconomyRun>::recover(&spliced).map(|_| ()),
            _ => ServiceRun::recover(&spliced).map(|_| ()),
        };
        if let Err(e) = outcome {
            // Every refusal is typed and says why.
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Truncating the journal at any byte boundary recovers the valid
    /// prefix and replays to the reference outcome.
    #[test]
    fn truncation_at_any_byte_recovers_the_valid_prefix(cut_fraction in 0.0f64..=1.0) {
        let (bytes, _, _) = reference();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        check_damaged(&bytes[..cut.min(bytes.len())])?;
    }

    /// XOR-corrupting everything from an arbitrary position onward is
    /// contained by the CRC framing: the undamaged prefix still recovers
    /// and finishes identically.
    #[test]
    fn corrupting_an_arbitrary_suffix_is_contained(
        start_fraction in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let (bytes, _, _) = reference();
        let start = ((bytes.len() as f64) * start_fraction) as usize;
        let mut damaged = bytes.clone();
        for b in &mut damaged[start..] {
            *b ^= xor;
        }
        check_damaged(&damaged)?;
    }

    /// A single flipped bit anywhere — header, snapshot, event, or
    /// framing fields — never panics and never silently corrupts the
    /// recovered state.
    #[test]
    fn a_single_bit_flip_never_panics_or_corrupts(
        pos_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (bytes, _, _) = reference();
        let pos = (((bytes.len() - 1) as f64) * pos_fraction) as usize;
        let mut damaged = bytes.clone();
        damaged[pos] ^= 1 << bit;
        check_damaged(&damaged)?;
    }

    /// Truncation after corruption (a torn write on top of bit rot)
    /// still degrades gracefully.
    #[test]
    fn corrupt_then_truncate_degrades_gracefully(
        start_fraction in 0.0f64..1.0,
        cut_fraction in 0.0f64..=1.0,
        xor in 1u8..=255,
    ) {
        let (bytes, _, _) = reference();
        let start = ((bytes.len() as f64) * start_fraction) as usize;
        let mut damaged = bytes.clone();
        for b in &mut damaged[start..] {
            *b ^= xor;
        }
        let cut = ((damaged.len() as f64) * cut_fraction) as usize;
        check_damaged(&damaged[..cut.min(damaged.len())])?;
    }

    /// The scanner survives entirely arbitrary bytes (no journal header
    /// at all) without panicking.
    #[test]
    fn arbitrary_bytes_never_panic_the_scanner(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = framing::scan(&bytes);
        let _ = bytes.recovered();
        let _ = DurableRun::<SiteRun>::recover(&bytes);
        let _ = DurableRun::<EconomyRun>::recover(&bytes);
        let _ = ServiceRun::recover(&bytes);
    }
}

/// Deterministic companion: an economy journal with a corrupted suffix
/// recovers with clean money-conservation books.
#[test]
fn economy_journal_suffix_corruption_keeps_the_books_closed() {
    let trace = generate_trace(&fig67_mix(1.5).with_tasks(20).with_processors(8), 9);
    let config = EconomyConfig::uniform(2, SiteConfig::new(4).with_policy(Policy::FirstPrice));
    let run = EconomyRun::new(config, &trace, Tracer::Off);
    let mut durable = DurableRun::new(run, Journal::in_memory(), 8).unwrap();
    durable.run_to_completion().unwrap();
    let (run, journal) = durable.into_parts();
    let (want, _) = run.finish();
    let bytes = journal.bytes();

    for start in (framing::HEADER_LEN..bytes.len()).step_by(97) {
        let mut damaged = bytes.to_vec();
        for b in &mut damaged[start..] {
            *b ^= 0xA5;
        }
        match DurableRun::<EconomyRun>::recover(&damaged) {
            Ok((rec, _)) => {
                let (got, _) = rec.finish();
                assert!(got.audit_violations.is_empty());
                assert_eq!(got, want, "books diverged after corruption at {start}");
            }
            Err(RecoverError::NoSnapshot | RecoverError::BadSnapshot(_)) => {}
            Err(e) => panic!("unexpected recovery error at {start}: {e}"),
        }
    }
}

/// Satellite: the `kill -9` story told from the filesystem's side. A
/// live writer appends service commands while a reader concurrently
/// snapshots the file bytes; every image the reader can observe must
/// recover — without panicking — to a clean, monotonically growing
/// prefix of the final command log. Then, deterministically, truncating
/// the finished journal at every byte of its tail must do the same.
#[test]
fn concurrent_writer_torn_tail_recovers_a_clean_prefix() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("mbts-torn-tail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.mbtsj");
    let _ = std::fs::remove_file(&path);

    const COMMANDS: u64 = 300;
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let path = path.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (mut run, _) =
                ServiceRun::resume_file(&path, MachineConfig::default(), 16, 0).unwrap();
            for i in 0..COMMANDS {
                let at = i as f64 * 0.25;
                let spec =
                    TaskSpec::new(0, at, 1.0 + (i % 7) as f64, 5.0, 0.05, PenaltyBound::ZERO);
                run.apply(Time::new(at), CommandKind::Submit { spec })
                    .unwrap();
                if i % 16 == 0 {
                    // Give the reader a chance to catch torn interleavings.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
            run.apply(Time::new(COMMANDS as f64), CommandKind::Drain)
                .unwrap();
            run.sync().unwrap();
            done.store(true, Ordering::SeqCst);
            run
        })
    };

    // Reader: hammer the file while the writer runs. Append-only means
    // recovered length is monotone; a clean *error* is only legal
    // before the genesis snapshot record is fully on disk.
    let mut best = 0u64;
    while !done.load(Ordering::SeqCst) {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        match ServiceRun::recover(&bytes) {
            Ok((machine, _)) => {
                assert!(
                    machine.applied() >= best,
                    "recovery went backwards: {} -> {}",
                    best,
                    machine.applied()
                );
                best = machine.applied();
                assert!(machine.applied() <= COMMANDS + 1);
            }
            Err(_) => assert_eq!(best, 0, "recovery regressed to an error mid-run"),
        }
        std::thread::yield_now();
    }

    // The final image recovers bit-identically to the live writer.
    let run = writer.join().unwrap();
    let final_bytes = std::fs::read(&path).unwrap();
    let (recovered, _) = ServiceRun::recover(&final_bytes).unwrap();
    assert_eq!(recovered.applied(), COMMANDS + 1);
    assert_eq!(recovered.snapshot_json(), run.machine().snapshot_json());

    // Deterministic sweep: cut the finished journal at every byte of
    // its tail; each cut is some prefix a crash could have left behind.
    let start = final_bytes.len().saturating_sub(1024);
    let mut prev = 0u64;
    for cut in start..final_bytes.len() {
        let (machine, _) = ServiceRun::recover(&final_bytes[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut} failed to recover: {e}"));
        assert!(machine.applied() >= prev, "applied regressed at cut {cut}");
        prev = machine.applied();
    }
    assert!(prev <= COMMANDS + 1);
    std::fs::remove_file(&path).ok();
}

/// A small site journal and a small service journal, three or more
/// snapshots each, for the exhaustive streamed-against-in-memory sweeps.
fn small_site_journal() -> Vec<u8> {
    let trace = generate_trace(&fig67_mix(1.6).with_tasks(2).with_processors(2), 5);
    let config = SiteConfig::new(2).with_policy(Policy::first_reward(0.3, 0.01));
    let run = SiteRun::new(config, &trace, Tracer::Off);
    let mut durable = DurableRun::new(run, Journal::in_memory(), 2).unwrap();
    durable.run_to_completion().unwrap();
    durable.journal().bytes().to_vec()
}

fn small_service_journal() -> Vec<u8> {
    let config = MachineConfig {
        site: SiteConfig::new(2),
        provenance: false,
        status_capacity: 4,
    };
    let mut run = ServiceRun::new(config, Journal::in_memory(), 2).unwrap();
    for i in 0..4u64 {
        let at = i as f64;
        let spec = TaskSpec::new(0, at, 2.0, 6.0, 0.05, PenaltyBound::ZERO);
        run.apply(Time::new(at), CommandKind::Submit { spec })
            .unwrap();
    }
    run.journal().bytes().to_vec()
}

/// What a recovery came to, in the terms the two paths must agree on: the
/// recovered state's snapshot JSON and the report, or which error.
type Verdict = Result<(String, RecoveryReport), std::mem::Discriminant<RecoverError>>;

fn verdict<M: Recoverable>(recovery: Result<(M, RecoveryReport), RecoverError>) -> Verdict {
    recovery
        .map(|(run, report)| (serde_json::to_string(&run.snapshot()).unwrap(), report))
        .map_err(|e| std::mem::discriminant(&e))
}

/// Every byte cut and every single-bit flip of `bytes`, made to a file:
/// recovering the file through [`load`] streams it, and must come to what
/// recovering the same bytes in memory does.
fn streamed_recovery_matches_in_memory<M: Recoverable>(name: &str, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let snapshots = framing::scan(bytes)
        .unwrap()
        .records
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Snapshot)
        .count();
    assert!(snapshots >= 3, "{name}: {snapshots} snapshots");
    let dir = std::env::temp_dir().join(format!("mbts-streamed-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.mbtsj");
    let mut file = std::fs::File::create(&path).unwrap();
    let check = |image: &[u8], what: &str, at: usize| {
        let streamed = verdict(DurableRun::<M>::recover(&load(&path).unwrap()));
        let in_memory = verdict(DurableRun::<M>::recover(image));
        assert_eq!(streamed, in_memory, "{name}: {what} {at}");
    };
    // The file is edited in place, the same way as the bytes beside it.
    file.write_all(bytes).unwrap();
    for cut in (0..=bytes.len()).rev() {
        file.set_len(cut as u64).unwrap();
        check(&bytes[..cut], "cut at", cut);
    }
    file.rewind().unwrap();
    file.write_all(bytes).unwrap();
    let mut flipped = bytes.to_vec();
    let mut put = |flipped: &[u8], at: usize| {
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&flipped[at..at + 1]).unwrap();
    };
    for bit in 0..bytes.len() * 8 {
        let at = bit / 8;
        flipped[at] ^= 1 << (bit % 8);
        put(&flipped, at);
        check(&flipped, "bit flipped", bit);
        flipped[at] ^= 1 << (bit % 8);
        put(&flipped, at);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_streamed_site_journal_recovers_as_its_bytes_do() {
    streamed_recovery_matches_in_memory::<SiteRun>("site", &small_site_journal());
}

#[test]
fn a_streamed_service_journal_recovers_as_its_bytes_do() {
    streamed_recovery_matches_in_memory::<ServiceMachine>("service", &small_service_journal());
}

/// A length field of `u32::MAX` in a 100-byte file is a torn record, read
/// as one on both paths, and never a 4 GiB buffer.
#[test]
fn an_oversized_length_in_a_small_file_is_a_torn_record() {
    let mut bytes = Vec::new();
    framing::write_header(&mut bytes, Kind::Site);
    bytes.push(1); // Snapshot tag
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.resize(100, 0);
    let dir = std::env::temp_dir().join(format!("mbts-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oversized.mbtsj");
    std::fs::write(&path, &bytes).unwrap();
    let image = load(&path).unwrap();
    assert_eq!(image.recovered().unwrap_err(), RecoverError::NoSnapshot);
    assert_eq!(bytes.recovered().unwrap_err(), RecoverError::NoSnapshot);
    assert_eq!(
        verdict(ServiceRun::recover(&image)),
        verdict(ServiceRun::recover(&bytes))
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// What a slice scan makes of a journal: the newest intact snapshot, the
/// events after it, and the report a recovery from them gives. This is
/// how recovery read a journal before it streamed one, holding every
/// record at once, and so the reference for the streamed reader.
fn scanned(bytes: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>, RecoveryReport) {
    let scan = framing::scan(bytes).unwrap();
    let newest = scan
        .records
        .iter()
        .rposition(|(tag, _)| *tag == RecordTag::Snapshot)
        .expect("an intact snapshot");
    let events: Vec<Vec<u8>> = scan.records[newest + 1..]
        .iter()
        .map(|(_, payload)| payload.to_vec())
        .collect();
    let superseded = scan.records[..newest]
        .iter()
        .filter(|(tag, _)| *tag == RecordTag::Event)
        .count();
    let report = RecoveryReport {
        replayed: events.len() as u64,
        events_superseded: superseded,
        dropped_bytes: scan.dropped_bytes,
    };
    (scan.records[newest].1.to_vec(), events, report)
}

/// A torn or corrupt newest snapshot record falls back to the snapshot
/// before it: every cut through the newest snapshot record, and a flip of
/// one of its payload bytes (every 61st and the last), recovers that
/// snapshot and its suffix with the report of a slice scan, from bytes and
/// from a file. A cut is found at the record's length field; a flip only
/// once the streamed reader has read the payload over the snapshot it
/// held, which it then reads again where that one's record starts.
#[test]
fn a_torn_newest_snapshot_recovers_the_one_before_it() {
    let bytes = small_service_journal();
    let scan = framing::scan(&bytes).unwrap();
    let mut at = framing::HEADER_LEN;
    let mut starts = Vec::new();
    for (tag, payload) in &scan.records {
        starts.push((*tag, at, payload.len()));
        at += framing::RECORD_OVERHEAD + payload.len();
    }
    let snapshots: Vec<_> = starts
        .iter()
        .filter(|(tag, ..)| *tag == RecordTag::Snapshot)
        .collect();
    assert!(snapshots.len() >= 2, "{} snapshots", snapshots.len());
    let &&(_, start, len) = snapshots.last().unwrap();
    let end = start + framing::RECORD_OVERHEAD + len;
    let before = &bytes[..start];

    let dir = std::env::temp_dir().join(format!("mbts-torn-newest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.mbtsj");
    let check = |image: &[u8], what: &str| {
        let (snapshot, events, report) = scanned(image);
        assert_eq!(scanned(before).0, snapshot, "{what}: the previous snapshot");
        std::fs::write(&path, image).unwrap();
        let file = load(&path).unwrap();
        for (source, recovered) in [("bytes", image.recovered()), ("file", file.recovered())] {
            let recovered = recovered.unwrap();
            assert_eq!(recovered.snapshot, snapshot, "{what} from {source}");
            assert!(recovered.events().eq(events.iter().map(Vec::as_slice)));
            assert_eq!(recovered.events_superseded, report.events_superseded);
            assert_eq!(recovered.dropped_bytes, report.dropped_bytes);
        }
        let from_bytes = ServiceRun::recover(image).unwrap();
        let from_file = ServiceRun::recover(&file).unwrap();
        assert_eq!(from_bytes.1, report, "{what} from bytes");
        assert_eq!(from_file.1, report, "{what} from the file");
        assert_eq!(from_bytes.0.snapshot_json(), from_file.0.snapshot_json());
    };
    for cut in start..end {
        check(&bytes[..cut], &format!("cut at {cut}"));
    }
    let payload = start + framing::RECORD_OVERHEAD;
    for at in (payload..end).step_by(61).chain([end - 1]) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x20;
        check(&flipped, &format!("byte {at} flipped"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What recovering as an `M` came to, in full: the restored state's
/// snapshot JSON and the report, or the error itself, text and all.
type FullVerdict = Result<(String, RecoveryReport), RecoverError>;

fn full_verdict<M: Recoverable>(
    recovery: Result<(M, RecoveryReport), RecoverError>,
) -> FullVerdict {
    recovery.map(|(run, report)| (serde_json::to_string(&run.snapshot()).unwrap(), report))
}

/// Recovering `bytes` in memory and from a file that holds them comes to
/// the same restored state, or the same error, as each kind of run.
fn bytes_and_file_agree(what: &str, path: &std::path::Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
    let file = load(path).unwrap();
    assert_eq!(
        full_verdict(DurableRun::<SiteRun>::recover(&file)),
        full_verdict(DurableRun::<SiteRun>::recover(bytes)),
        "{what}: as a site run"
    );
    assert_eq!(
        full_verdict(DurableRun::<EconomyRun>::recover(&file)),
        full_verdict(DurableRun::<EconomyRun>::recover(bytes)),
        "{what}: as an economy run"
    );
    assert_eq!(
        full_verdict(ServiceRun::recover(&file)),
        full_verdict(ServiceRun::recover(bytes)),
        "{what}: as a service journal"
    );
}

/// Where each record of `bytes` starts, with its tag and payload length.
fn record_starts(bytes: &[u8]) -> Vec<(RecordTag, usize, usize)> {
    let mut at = framing::HEADER_LEN;
    let mut starts = Vec::new();
    for (tag, payload) in framing::scan(bytes).unwrap().records {
        starts.push((tag, at, payload.len()));
        at += framing::RECORD_OVERHEAD + payload.len();
    }
    starts
}

/// Every journal fixture under `tests/golden/serde/` — those that recover
/// and those of an older format version, refused with a typed error —
/// recovers alike from its bytes and from its file, as each kind of run;
/// and those that recover do so too cut through their newest snapshot
/// record, and with a byte of that snapshot's payload flipped.
#[test]
fn every_fixture_journal_recovers_alike_from_bytes_and_from_a_file() {
    fn journals(dir: &std::path::Path, found: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                journals(&path, found);
            } else if path.extension().is_some_and(|e| e == "mbtsj") {
                found.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serde");
    let mut fixtures = Vec::new();
    journals(&root, &mut fixtures);
    fixtures.sort();
    assert!(fixtures.len() >= 8, "{fixtures:?}");
    let dir = std::env::temp_dir().join(format!("mbts-fixtures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.mbtsj");
    for fixture in &fixtures {
        let name = fixture.strip_prefix(&root).unwrap().display().to_string();
        let bytes = std::fs::read(fixture).unwrap();
        bytes_and_file_agree(&name, &path, &bytes);
        if framing::scan(&bytes).is_err() {
            continue;
        }
        let &(_, start, len) = record_starts(&bytes)
            .iter()
            .rfind(|(tag, ..)| *tag == RecordTag::Snapshot)
            .expect("a snapshot");
        let payload = start + framing::RECORD_OVERHEAD;
        bytes_and_file_agree(
            &format!("{name} cut mid-snapshot"),
            &path,
            &bytes[..payload + len / 2],
        );
        let mut flipped = bytes.clone();
        flipped[payload + len / 2] ^= 0x08;
        bytes_and_file_agree(
            &format!("{name} with a snapshot byte flipped"),
            &path,
            &flipped,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal whose newest snapshot record changes after the scan found it
/// and before the parse reads it again is refused as one that changed
/// while it was read: never a state built from the changed bytes, and
/// never a bad snapshot, whichever byte of the record changed and whether
/// or not its new text parses. From a file that is rewritten under an
/// open handle, and from bytes in memory that are not the ones scanned.
#[test]
fn a_snapshot_changed_between_the_scan_and_the_parse_is_refused() {
    let bytes = small_service_journal();
    let &(_, start, len) = record_starts(&bytes)
        .iter()
        .rfind(|(tag, ..)| *tag == RecordTag::Snapshot)
        .expect("a snapshot");
    let dir = std::env::temp_dir().join(format!("mbts-changed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.mbtsj");
    std::fs::write(&path, &bytes).unwrap();
    let file = load(&path).unwrap();
    let recovered = file.recovered().unwrap();
    assert_eq!(recovered.snapshot.at(), start);
    assert!(ServiceRun::recover(&file).is_ok());

    let changed = |err: &RecoverError| {
        matches!(
            err,
            RecoverError::Io {
                kind: std::io::ErrorKind::InvalidData,
                ..
            }
        ) && err.to_string().contains("no longer checks out")
    };
    let mut writer = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let mut put = |at: usize, byte: u8| {
        use std::io::{Seek, SeekFrom, Write};
        writer.seek(SeekFrom::Start(at as u64)).unwrap();
        writer.write_all(&[byte]).unwrap();
    };
    for at in start..start + framing::RECORD_OVERHEAD + len {
        for flip in [0x01, 0x20] {
            let what = format!("byte {at} ^ {flip:#x}");
            put(at, bytes[at] ^ flip);
            match DurableRun::<ServiceMachine>::recover_from(&file, &recovered) {
                Err(err) => assert!(changed(&err), "{what} from the file: {err:?}"),
                Ok(_) => panic!("{what} from the file: recovered from changed bytes"),
            }
            put(at, bytes[at]);
            let mut in_memory = bytes.clone();
            in_memory[at] ^= flip;
            match DurableRun::<ServiceMachine>::recover_from(&in_memory, &recovered) {
                Err(err) => assert!(changed(&err), "{what} in memory: {err:?}"),
                Ok(_) => panic!("{what} in memory: recovered from changed bytes"),
            }
        }
    }
    // A file cut short of the record is refused the same way.
    drop(file);
    let file = load(&path).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len((start + len / 2) as u64)
        .unwrap();
    let err = DurableRun::<ServiceMachine>::recover_from(&file, &recovered).unwrap_err();
    assert!(changed(&err), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A newest snapshot whose record checks out but whose text does not
/// parse is a bad snapshot with the parser's words, the same from bytes
/// and from a file: the check that the record is unchanged does not hide
/// or reword what the parser found.
#[test]
fn a_snapshot_that_checks_out_but_does_not_parse_is_a_bad_snapshot() {
    let dir = std::env::temp_dir().join(format!("mbts-unparsed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.mbtsj");
    for (text, words) in [
        (&b"{\"applied\":1,"[..], "unexpected end of input"),
        (b"[1,2]", "expected object for ServiceSnapshot, found array"),
        (b"{\"applied\":1,}", "unexpected character `}` at byte 13"),
        (b"{\"\xff\":1}", "invalid utf-8 at byte 2"),
    ] {
        let mut bytes = Vec::new();
        framing::write_header(&mut bytes, Kind::Service);
        framing::append_record(&mut bytes, RecordTag::Snapshot, text);
        std::fs::write(&path, &bytes).unwrap();
        let file = load(&path).unwrap();
        let want = RecoverError::BadSnapshot(words.to_string());
        assert_eq!(ServiceRun::recover(&bytes).unwrap_err(), want);
        assert_eq!(ServiceRun::recover(&file).unwrap_err(), want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovers `source` as the kind of run `kind` names.
fn recover_as(kind: Kind, source: &(impl JournalSource + ?Sized)) -> Result<(), RecoverError> {
    match kind {
        Kind::Site => DurableRun::<SiteRun>::recover(source).map(drop),
        Kind::Economy => DurableRun::<EconomyRun>::recover(source).map(drop),
        Kind::Service => DurableRun::<ServiceMachine>::recover(source).map(drop),
    }
}

/// A journal is read as the one kind of run its header names, in the one
/// format version. Each kind's journal read as each other kind is the
/// typed `Unsupported` error naming both kinds, never a bad snapshot; a
/// header of another version is refused before its kind is read; both
/// from bytes and from a file. The daemon refuses a site journal the same
/// way, and leaves it as it was.
#[test]
fn a_journal_is_read_only_as_its_own_kind_and_version() {
    const KINDS: [Kind; 3] = [Kind::Site, Kind::Economy, Kind::Service];
    let journals = [
        small_site_journal(),
        economy_reference().to_vec(),
        small_service_journal(),
    ];
    let dir = std::env::temp_dir().join(format!("mbts-kinds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.mbtsj");
    for (written, bytes) in KINDS.into_iter().zip(&journals) {
        assert_eq!(framing::scan(bytes).unwrap().kind, written);
        std::fs::write(&path, bytes).unwrap();
        let file = load(&path).unwrap();
        for reader in KINDS {
            for result in [recover_as(reader, bytes), recover_as(reader, &file)] {
                let what = format!("a {written} read as a {reader}");
                if reader == written {
                    assert_eq!(result, Ok(()), "{what}");
                    continue;
                }
                let err = result.unwrap_err();
                assert!(
                    matches!(
                        err,
                        RecoverError::Framing(FramingError::Unsupported {
                            version: framing::VERSION,
                            kind: Some(_),
                            expected: Some(k),
                        }) if k == reader
                    ),
                    "{what}: {err:?}"
                );
                let text = err.to_string();
                assert!(
                    text.contains(&format!("({written})")) && text.contains(&format!("({reader})")),
                    "{what}: {text}"
                );
            }
        }
        for version in [framing::VERSION - 1, framing::VERSION + 1] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            let file = load(&path).unwrap();
            for result in [recover_as(written, &old), recover_as(written, &file)] {
                assert_eq!(
                    result,
                    Err(RecoverError::Framing(FramingError::Unsupported {
                        version,
                        kind: None,
                        expected: Some(written),
                    })),
                    "a {written} of version {version}"
                );
            }
        }
    }
    // `mbts serve --journal` resumes through `resume_file`.
    std::fs::write(&path, &journals[0]).unwrap();
    let err = ServiceRun::resume_file(&path, MachineConfig::default(), 0, 0).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains(&format!(
            "(site run); this reader reads version {} (service run)",
            framing::VERSION
        )),
        "{err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), journals[0]);
    std::fs::remove_dir_all(&dir).ok();
}
