//! Bad input at the command line is an error message and exit status 2,
//! never a panic: trace files are validated when `mbts run` and
//! `mbts market` load them, and `--load`, counts and discount rates where
//! they are parsed.
//!
//! Each case runs the real binary (`CARGO_BIN_EXE_mbts`): the exit status
//! and the absence of a panic message are what a shell user sees.

use mbts::workload::{generate_trace, MixConfig};
use std::path::PathBuf;
use std::process::{Command, Output};

fn mbts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mbts"))
        .args(args)
        .output()
        .expect("spawn mbts")
}

/// Asserts exit 2, no panic, and `needle` in the message.
fn assert_rejected(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(stderr.contains(needle), "{what}: {stderr}");
}

/// Writes a 6-task generated trace with `field` of task `id` set to
/// `value` (any JSON number), and returns the file's path.
fn trace_with(name: &str, id: u64, field: &str, value: &str) -> PathBuf {
    let mix = MixConfig::millennium_default()
        .with_tasks(6)
        .with_processors(4);
    let json = generate_trace(&mix, 3).to_json();
    let task = json.find(&format!("\"id\":{id},")).expect("task in trace");
    let key = format!("\"{field}\":");
    let from = task + json[task..].find(&key).expect("field in task") + key.len();
    let to = from + json[from..].find(',').expect("a field follows");
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, format!("{}{value}{}", &json[..from], &json[to..])).expect("write trace");
    path
}

/// Both commands that take `--trace` reject the file, naming `needle`.
fn run_and_market_reject(path: &PathBuf, needle: &str) {
    let path_s = path.to_str().expect("utf-8 temp path");
    assert_rejected(
        &mbts(&["run", "--trace", path_s, "--processors", "4"]),
        needle,
        "run",
    );
    assert_rejected(
        &mbts(&["market", "--trace", path_s, "--sites", "2"]),
        needle,
        "market",
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn a_valid_trace_file_still_runs() {
    let path = trace_with("good.json", 3, "width", "1");
    let path_s = path.to_str().unwrap();
    for args in [
        ["run", "--trace", path_s, "--processors", "4"],
        ["market", "--trace", path_s, "--sites", "2"],
    ] {
        let out = mbts(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn negative_runtime_is_rejected() {
    let path = trace_with("negative.json", 3, "runtime", "-5.0");
    run_and_market_reject(&path, "non-positive runtime");
}

#[test]
fn zero_width_is_rejected() {
    let path = trace_with("zero_width.json", 3, "width", "0");
    run_and_market_reject(&path, "zero width");
}

#[test]
fn duplicated_id_is_rejected() {
    let path = trace_with("duplicate.json", 3, "id", "2");
    run_and_market_reject(&path, "id out of order");
}

#[test]
fn sparse_id_is_rejected() {
    let path = trace_with("sparse.json", 5, "id", "1000000000000");
    run_and_market_reject(&path, "id out of order");
}

#[test]
fn unsorted_arrivals_are_rejected() {
    let path = trace_with("unsorted.json", 3, "arrival", "1.0");
    run_and_market_reject(&path, "arrivals not sorted");
}

#[test]
fn non_positive_load_is_rejected_where_it_is_parsed() {
    let workflow = ["gen", "--out", "/dev/null", "--workflow", "layered:3:2:0.5"];
    for args in [
        &["compare", "--a", "fcfs", "--b", "srpt", "--load", "-1"][..],
        &["gen", "--out", "/dev/null", "--load", "0"][..],
        &[&workflow[..], &["--load", "-2.5"]].concat(),
    ] {
        assert_rejected(&mbts(args), "--load must be positive", &format!("{args:?}"));
    }
}

/// `run` and `market` read a trace or a workflow set: with neither flag
/// they exit 2 naming both.
#[test]
fn run_and_market_without_an_input_are_rejected() {
    for sub in ["run", "market"] {
        assert_rejected(
            &mbts(&[sub, "--policy", "fcfs"]),
            &format!("{sub} requires --trace FILE or --workflow FILE"),
            sub,
        );
    }
}

/// A count or rate the library builders assert on is checked where it is
/// parsed: zero processors, sites, tasks or seeds too few to pair, and
/// negative or NaN discount rates exit 2 naming the flag or spec.
#[test]
fn zero_and_negative_numbers_are_rejected_where_they_are_parsed() {
    let out = ["--out", "/dev/null"];
    let trace = ["--trace", "unused.json"];
    let compare = ["compare", "--a", "fcfs", "--b", "srpt"];
    let rows: [(Vec<&str>, &str); 16] = [
        (
            [&["run"][..], &trace, &["--processors", "0"]].concat(),
            "--processors must be at least 1",
        ),
        (
            vec!["serve", "--processors", "0"],
            "--processors must be at least 1",
        ),
        (
            [&compare[..], &["--processors", "0"]].concat(),
            "--processors must be at least 1",
        ),
        (
            [&["gen"][..], &out, &["--processors", "0"]].concat(),
            "--processors must be at least 1",
        ),
        (
            [
                &["gen"][..],
                &out,
                &["--workflow", "layered:3:2:0.5", "--processors", "0"],
            ]
            .concat(),
            "--processors must be at least 1",
        ),
        (
            [&["market"][..], &trace, &["--sites", "0"]].concat(),
            "--sites must be at least 1",
        ),
        (
            [&["market"][..], &trace, &["--procs-per-site", "0"]].concat(),
            "--procs-per-site must be at least 1",
        ),
        (
            [&["gen"][..], &out, &["--tasks", "0"]].concat(),
            "--tasks must be at least 1",
        ),
        (
            [&compare[..], &["--tasks", "0"]].concat(),
            "--tasks must be at least 1",
        ),
        (
            [&compare[..], &["--seeds", "0"]].concat(),
            "--seeds must be at least 2",
        ),
        (
            [&compare[..], &["--seeds", "1"]].concat(),
            "--seeds must be at least 2",
        ),
        (
            [&["run"][..], &trace, &["--policy", "pv:-1"]].concat(),
            "got -1 in pv:-1",
        ),
        (
            [&["run"][..], &trace, &["--policy", "first-reward:0.5:-1"]].concat(),
            "got -1 in first-reward:0.5:-1",
        ),
        (
            [&["run"][..], &trace, &["--policy", "pv:NaN"]].concat(),
            "got NaN in pv:NaN",
        ),
        (
            [
                &["market"][..],
                &trace,
                &["--policy", "first-reward:0.5:NaN"],
            ]
            .concat(),
            "got NaN in first-reward:0.5:NaN",
        ),
        (
            [&["serve"][..], &["--policy", "pv:-0.5"]].concat(),
            "got -0.5 in pv:-0.5",
        ),
    ];
    for (args, needle) in rows {
        assert_rejected(&mbts(&args), needle, &format!("{args:?}"));
    }
}

/// `mbts experiment` refuses a bad target or flag with exit 2 and a
/// message before it runs anything: no `running` banner.
#[test]
fn bad_experiment_lines_exit_2_with_a_message() {
    let rows = [
        ("fig4 --smoke --tasks 0", "--tasks needs"),
        ("fig3 --smoke --processors 0", "--processors needs"),
        ("workflows --smoke --processors 0", "--processors needs"),
        ("fig4 --smoke --seeds 0", "--seeds needs"),
        ("fig4 --smoke --tasks abc", "--tasks needs"),
        (
            "workflows --smoke --out /dev/null/x",
            "--out: cannot create",
        ),
        (
            "metrics --smoke --trace-out /dev/null/x",
            "--trace-out: cannot write",
        ),
        (
            "fig4 --smoke --trace-out t.jsonl",
            "applies only to metrics",
        ),
        (
            "fig4 --smoke --bogus",
            "unknown flag '--bogus' for 'mbts experiment'",
        ),
        ("figz --smoke", "unknown target figz"),
        (
            "ablate bogus --smoke",
            "unknown ablation 'bogus' (try: preemption,",
        ),
        (
            "metrics --smoke --out /dev/null/x",
            "--out applies only to figure targets",
        ),
        (
            "fig4 --smoke --tasks 300 --tasks 400",
            "flag '--tasks' given more than once for 'mbts experiment'",
        ),
        (
            "fig4 --quick --smoke",
            "--quick and --smoke are mutually exclusive",
        ),
    ];
    for (line, message) in rows {
        let args: Vec<&str> = ["experiment"].into_iter().chain(line.split(' ')).collect();
        let out = mbts(&args);
        assert_rejected(&out, message, line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("running"), "{line} ran: {stderr}");
    }
}

/// A refused `mbts experiment` line creates neither `--out` nor
/// `--trace-out`.
#[test]
fn a_refused_experiment_line_creates_no_file() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("experiment-refused");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("out");
    let trace = dir.join("t.jsonl");
    let (out_s, trace_s) = (out.to_str().unwrap(), trace.to_str().unwrap());
    for line in [
        &["figz", "--smoke", "--out", out_s][..],
        &["ablate", "bogus", "--out", out_s],
        &["figz", "--smoke", "--trace-out", trace_s],
        &["metrics", "--smoke", "--out", out_s],
        &["fig4", "--quick", "--smoke", "--out", out_s],
        &["fig4", "--smoke", "--out", out_s, "--out", out_s],
        &["metrics", "--smoke", "--trace-out", trace_s, "--tasks", "0"],
    ] {
        let args = [&["experiment"][..], line].concat();
        let output = mbts(&args);
        assert_eq!(output.status.code(), Some(2), "{line:?}: {output:?}");
        assert!(!out.exists() && !trace.exists(), "{line:?} created a file");
    }
}

/// A count given before a preset outlives it.
#[test]
fn an_explicit_count_outlives_a_later_preset() {
    let out = mbts(&["experiment", "fig4", "--tasks", "300", "--smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("running fig4 at 300 tasks × 2 seeds on 8 processors"),
        "{stderr}"
    );
}

/// A journal of another format version, or of a kind no reader knows, is
/// refused from its header, before anything after the version (or, at
/// this version, the kind) is read. The journals under
/// `tests/golden/serde/pre*/` are version 1, whose 12-byte header names no
/// kind. Every version from 2 to `VERSION - 1`, and an unknown kind code at
/// `VERSION`, is forged into the header of a copy of each current fixture.
/// Each is refused with the typed error: through the library, and by the
/// two commands that read journals (exit 2, never a panic), naming its
/// own version and the reader's.
#[test]
fn journals_of_an_older_format_are_refused() {
    use mbts::durable::{framing, load, DurableRun, FramingError, Kind, RecoverError};
    use mbts::market::EconomyRun;
    use mbts::serve::ServiceRun;
    use mbts::site::SiteRun;
    /// No `Kind` has this code.
    const UNKNOWN_KIND: u32 = 3;
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serde");
    let version_1 = [
        ("pre26/service_journal.mbtsj", Kind::Service),
        ("pre33/economy_journal.mbtsj", Kind::Economy),
        ("pre34/economy_journal.mbtsj", Kind::Economy),
        ("pre38/economy_journal.mbtsj", Kind::Economy),
        ("pre40/economy_journal.mbtsj", Kind::Economy),
        ("pre40/service_journal.mbtsj", Kind::Service),
    ];
    let mut on_disk: Vec<_> = std::fs::read_dir(&golden)
        .expect("fixture dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir())
        .flat_map(|d| std::fs::read_dir(d).expect("fixture dir"))
        .map(|e| e.expect("entry").path())
        .map(|p| {
            p.strip_prefix(&golden)
                .expect("under dir")
                .display()
                .to_string()
        })
        .collect();
    on_disk.sort();
    assert_eq!(
        on_disk,
        version_1.map(|(name, _)| name),
        "every old fixture has a row"
    );
    let reader = framing::VERSION;
    // (journal, the kind it holds, its version, the kind code a refusal
    // reads: none when the version is refused first)
    let mut rows: Vec<(PathBuf, Kind, u32, Option<u32>)> = version_1
        .iter()
        .map(|&(name, kind)| (golden.join(name), kind, 1, None))
        .collect();
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (kind, fixture) in [
        (Kind::Site, "site_journal.mbtsj"),
        (Kind::Economy, "economy_journal.mbtsj"),
        (Kind::Service, "service_journal.mbtsj"),
    ] {
        let current = std::fs::read(golden.join(fixture)).expect("fixture");
        let forgeries = (2..reader)
            .map(|version| (version, None))
            .chain([(reader, Some(UNKNOWN_KIND))]);
        for (version, code) in forgeries {
            let mut forged = current.clone();
            forged[8..12].copy_from_slice(&version.to_le_bytes());
            if let Some(code) = code {
                forged[12..16].copy_from_slice(&code.to_le_bytes());
            }
            let path = dir.join(format!("v{version}_k{}_{fixture}", code.unwrap_or(0)));
            std::fs::write(&path, forged).expect("write forged journal");
            rows.push((path, kind, version, code));
        }
    }
    assert_eq!(rows.len(), 6 + 3 * (reader as usize - 1));
    for (path, kind, version, code) in rows {
        let name = path.display();
        let bytes = std::fs::read(&path).expect("journal");
        let refusal = Err(RecoverError::Framing(FramingError::Unsupported {
            version,
            kind: code,
            expected: None,
        }));
        assert_eq!(
            framing::scan(&bytes)
                .map(drop)
                .map_err(RecoverError::Framing),
            refusal,
            "{name}"
        );
        let found = match code {
            None => "kind not read".to_string(),
            Some(code) => format!("unknown kind {code}"),
        };
        let image = load(&path).expect("journal");
        let library = match kind {
            Kind::Site => [
                DurableRun::<SiteRun>::recover(&bytes).map(drop),
                DurableRun::<SiteRun>::recover(&image).map(drop),
            ],
            Kind::Economy => [
                DurableRun::<EconomyRun>::recover(&bytes).map(drop),
                DurableRun::<EconomyRun>::recover(&image).map(drop),
            ],
            Kind::Service => [
                ServiceRun::recover(&bytes).map(drop),
                ServiceRun::recover(&image).map(drop),
            ],
        };
        for result in library {
            let Err(RecoverError::Framing(FramingError::Unsupported { expected, .. })) = result
            else {
                panic!("{name}: {result:?}");
            };
            assert_eq!(expected, Some(kind), "{name}");
            let text = result.unwrap_err().to_string();
            assert!(
                text.contains(&format!(
                    "version {version} ({found}); this reader reads version {reader} ({kind})"
                )),
                "{name}: {text}"
            );
        }
        let path_s = path.to_str().expect("utf-8 path");
        let message = format!(
            "journal holds format version {version} ({found}); \
             this reader reads version {reader}"
        );
        for args in [&["resume", "--journal", path_s][..], &["analyze", path_s]] {
            assert_rejected(&mbts(args), &message, &format!("{args:?}"));
        }
        if path.starts_with(&dir) {
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A journal is read only as the kind of run its header names: `mbts
/// serve` pointed at a site run's journal refuses it (exit 2), naming
/// both kinds, and leaves the file as it was.
#[test]
fn the_daemon_refuses_a_site_journal() {
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("site_for_serve.json");
    let mix = MixConfig::millennium_default()
        .with_tasks(6)
        .with_processors(4);
    std::fs::write(&trace, generate_trace(&mix, 3).to_json()).expect("write trace");
    let journal = dir.join("site_for_serve.mbtsj");
    let (trace_s, journal_s) = (trace.to_str().unwrap(), journal.to_str().unwrap());
    let out = mbts(&[
        "run",
        "--trace",
        trace_s,
        "--policy",
        "fcfs",
        "--journal",
        journal_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read(&journal).expect("site journal");
    assert_rejected(
        &mbts(&["serve", "--addr", "127.0.0.1:0", "--journal", journal_s]),
        &format!(
            "(site run); this reader reads version {} (service run)",
            mbts::durable::framing::VERSION
        ),
        "serve",
    );
    assert_eq!(std::fs::read(&journal).expect("site journal"), written);
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&journal).ok();
}

/// A service journal with whole records cut out keeps every CRC valid, so
/// only replay sees the hole: `resume` and `analyze` reject it (exit 2)
/// instead of aborting on the machine's dense-sequence assert.
#[test]
fn a_service_journal_missing_whole_records_is_rejected() {
    use mbts::durable::framing;
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serde/service_journal.mbtsj"
    ))
    .expect("service journal fixture");
    // Records are [snap, ev, ev, snap, ev, ev, snap, ev]: drop the first
    // event after the second snapshot and the last snapshot, and frame
    // every other record exactly as the fixture does.
    let scan = framing::scan(&fixture).expect("the fixture is a journal");
    assert_eq!(scan.records.len(), 8);
    let mut spliced = Vec::new();
    framing::write_header(&mut spliced, scan.kind);
    for (i, (tag, payload)) in scan.records.iter().enumerate() {
        if i != 4 && i != 6 {
            framing::append_record(&mut spliced, *tag, payload);
        }
    }
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("spliced_service.mbtsj");
    std::fs::write(&path, &spliced).expect("write spliced journal");
    let path_s = path.to_str().expect("utf-8 temp path");
    for args in [&["resume", "--journal", path_s][..], &["analyze", path_s]] {
        assert_rejected(&mbts(args), "expected seq 2, got 3", &format!("{args:?}"));
    }
    std::fs::remove_file(&path).ok();
}

/// A CRC-valid service journal whose snapshot does not parse is parsed
/// once, as the kind its header names: one refusal (exit 2) that names the
/// service kind and no other.
#[test]
fn a_service_snapshot_that_does_not_parse_is_refused_as_a_service_run() {
    use mbts::durable::{framing, Kind, RecordTag};
    let mut journal = Vec::new();
    framing::write_header(&mut journal, Kind::Service);
    framing::append_record(&mut journal, RecordTag::Snapshot, b"{\"applied\":1} x");
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("unparsed_service.mbtsj");
    std::fs::write(&path, &journal).expect("write journal");
    let path_s = path.to_str().expect("utf-8 temp path");
    for args in [&["resume", "--journal", path_s][..], &["analyze", path_s]] {
        let out = mbts(args);
        assert_rejected(
            &out,
            "as a service run: latest snapshot cannot be restored",
            &format!("{args:?}"),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("site run") && !stderr.contains("economy"),
            "{stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// An economy journal whose newest snapshot holds an index that points
/// outside what it holds — a queued arrival's task among them — a task
/// unlike its trace's, a settlement its task's value function does not
/// give, or an open-contract table other than the unsettled contracts,
/// each once in task order, keeps every CRC valid, so only the restore
/// sees it: `resume` and `analyze` reject it (exit 2, naming the fault)
/// instead of panicking on the out-of-range index, settling a contract
/// twice or leaving one open for ever.
#[test]
fn an_economy_snapshot_with_an_index_outside_it_is_rejected() {
    use mbts::durable::framing::{self, RecordTag};
    use mbts::market::{Contract, ContractStatus, EcoEvent, EconomySnapshot};
    use std::sync::Arc;
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serde/economy_journal.mbtsj"
    ))
    .expect("economy journal fixture");
    let scan = framing::scan(&fixture).expect("the fixture is a journal");
    let last = scan
        .records
        .iter()
        .rposition(|(tag, _)| *tag == RecordTag::Snapshot)
        .expect("a snapshot record");
    // (what is spoiled, how, what the refusal names)
    type Spoil = (&'static str, fn(&mut EconomySnapshot), &'static str);
    let spoil: [Spoil; 9] = [
        (
            "open task",
            |s| s.open.push((1_000_000, 0, None)),
            "open contract names task 1000000",
        ),
        (
            "arrival task",
            |s| {
                // An arrival queued behind everything else the snapshot holds.
                s.queue
                    .push((s.now, s.next_seq, EcoEvent::Arrival(1_000_000)));
                s.next_seq += 1;
            },
            "queued arrival names task 1000000",
        ),
        (
            "open index",
            |s| s.open[0].1 = s.contracts.len(),
            "open contract index",
        ),
        (
            "open settled",
            |s| {
                s.open[0].1 = s
                    .contracts
                    .iter()
                    .position(|c| c.is_settled())
                    .expect("a settled contract")
            },
            "names settled contract",
        ),
        (
            "open other task",
            |s| {
                let (a, b) = (s.open[0].1, s.open[1].1);
                (s.open[0].1, s.open[1].1) = (b, a);
            },
            "names contract",
        ),
        (
            "open order",
            |s| s.open.swap(0, 1),
            "open contracts are not ascending",
        ),
        (
            "open missing",
            |s| {
                s.open.remove(0);
            },
            "is unsettled but not an open contract",
        ),
        (
            "trace",
            |s| {
                let id = s.contracts.get(0).expect("a contract").spec.id;
                Arc::make_mut(&mut s.trace)[id.index()].value += 1.0;
            },
            "unlike the trace's",
        ),
        (
            "settlement",
            |s| {
                // A settled price its task's value function does not give.
                let mut contracts: Vec<Contract> = s.contracts.iter().collect();
                let settled = contracts
                    .iter_mut()
                    .find(|c| c.is_settled())
                    .expect("a settled contract");
                if let ContractStatus::Settled { settled_price, .. } = &mut settled.status {
                    *settled_price += 1.0;
                }
                let text = serde_json::to_string(&contracts).expect("serialises");
                s.contracts = serde_json::from_str(&text).expect("the ledger reads");
            },
            "other than its value function does",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, edit, needle) in spoil {
        let mut spoiled = Vec::new();
        framing::write_header(&mut spoiled, scan.kind);
        for (i, (tag, payload)) in scan.records.iter().enumerate() {
            if i == last {
                let mut snap: EconomySnapshot =
                    serde_json::from_slice(payload).expect("the snapshot reads");
                edit(&mut snap);
                let payload = serde_json::to_vec(&snap).expect("serialises");
                framing::append_record(&mut spoiled, *tag, &payload);
            } else {
                framing::append_record(&mut spoiled, *tag, payload);
            }
        }
        let path = dir.join(format!("spoiled_{}.mbtsj", name.replace(' ', "_")));
        std::fs::write(&path, &spoiled).expect("write spoiled journal");
        let path_s = path.to_str().expect("utf-8 temp path");
        for args in [&["resume", "--journal", path_s][..], &["analyze", path_s]] {
            assert_rejected(&mbts(args), needle, &format!("{name}: {args:?}"));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `mbts analyze` reads a JSONL trace line by line and names the first
/// line that is not an event, counting blank lines (which it skips), in
/// every output format.
#[test]
fn a_trace_line_that_is_not_an_event_is_named_by_number() {
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fcfs_101.jsonl"),
    )
    .expect("golden trace");
    let mut lines: Vec<&str> = golden.lines().take(4).collect();
    lines.insert(1, "");
    lines.insert(3, "   ");
    let dir = std::env::temp_dir().join(format!("mbts_cli_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("blank_lines.jsonl");
    std::fs::write(&good, lines.join("\n")).expect("write trace");
    let good_s = good.to_str().expect("utf-8 temp path");
    let out = mbts(&["analyze", good_s]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 events over"));

    lines.insert(5, r#"{"at":3.0,"task":1,"site":null,"kind":"Teleported"}"#);
    let bad = dir.join("bad_line.jsonl");
    std::fs::write(&bad, lines.join("\n")).expect("write trace");
    let bad_s = bad.to_str().expect("utf-8 temp path");
    for format in ["text", "json", "prom"] {
        assert_rejected(
            &mbts(&["analyze", good_s, bad_s, "--format", format]),
            "line 6",
            format,
        );
    }
    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&bad).ok();
}
