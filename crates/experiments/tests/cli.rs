//! `mbts-experiments` refuses a bad flag with exit 2 and a message before
//! it runs anything, and a preset never overrides an explicit count.
//!
//! Each row runs the real binary (`CARGO_BIN_EXE_mbts-experiments`).

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mbts-experiments"))
        .args(args)
        .output()
        .expect("the binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flags_exit_2_with_a_message() {
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
            "metrics --smoke --trace /dev/null/x",
            "--trace: cannot write",
        ),
        ("fig4 --smoke --trace t.jsonl", "applies only to metrics"),
        ("fig4 --smoke --bogus", "unknown option --bogus"),
        ("figz --smoke", "unknown target figz"),
        (
            "ablate bogus --smoke",
            "unknown ablation 'bogus' (try: preemption,",
        ),
        (
            "metrics --smoke --out /dev/null/x",
            "--out applies only to figure targets",
        ),
    ];
    for (line, message) in rows {
        let args: Vec<&str> = line.split(' ').collect();
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("running"), "{args:?} ran: {stderr}");
    }
}

/// A refused target or flag creates neither `--out` nor `--trace`.
#[test]
fn a_refused_line_creates_no_file() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-refused");
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("out");
    let trace = dir.join("t.jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    for line in [
        ["figz", "--smoke", "--out", out.to_str().unwrap()],
        ["ablate", "bogus", "--out", out.to_str().unwrap()],
        ["figz", "--smoke", "--trace", trace.to_str().unwrap()],
        ["metrics", "--smoke", "--out", out.to_str().unwrap()],
    ] {
        let (code, stderr) = run(&line);
        assert_eq!(code, Some(2), "{line:?}: {stderr}");
        assert!(!out.exists() && !trace.exists(), "{line:?} created a file");
    }
}

#[test]
fn an_explicit_count_outlives_a_later_preset() {
    let (code, stderr) = run(&["fig4", "--tasks", "300", "--smoke"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("running fig4 at 300 tasks × 2 seeds on 8 processors"),
        "{stderr}"
    );
}
