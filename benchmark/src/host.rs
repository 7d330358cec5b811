//! What the numbers were measured on: every run prints this, because a
//! time without its host is not comparable with anything.

use std::fs;
use std::path::{Path, PathBuf};

/// The facts a reader needs to place a measurement.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `Cpus_allowed_list` of this process. The benchmark pins nothing, so
    /// this is also the mask of every thread it or the daemon starts.
    pub affinity: String,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `MemTotal`, MiB.
    pub mem_total_mb: u64,
    /// cpufreq governor of cpu0, if the host exposes one.
    pub governor: String,
    /// One-minute load average when the run started.
    pub loadavg_1m: String,
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim())
}

impl Host {
    /// Reads the fingerprint from `/proc` and `/sys`; a missing file
    /// leaves its field as `"unknown"`, never an error.
    pub fn probe() -> Host {
        let or_unknown = |s: Option<&str>| s.unwrap_or("unknown").to_string();
        let status = read("/proc/self/status");
        let meminfo = read("/proc/meminfo");
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            affinity: or_unknown(field(&status, "Cpus_allowed_list")),
            cpu_model: or_unknown(field(&read("/proc/cpuinfo"), "model name")),
            kernel: or_unknown(
                Some(read("/proc/sys/kernel/osrelease").trim()).filter(|s| !s.is_empty()),
            ),
            mem_total_mb: field(&meminfo, "MemTotal")
                .and_then(|v| v.split_whitespace().next())
                .and_then(|kb| kb.parse::<u64>().ok())
                .map_or(0, |kb| kb / 1024),
            governor: or_unknown(
                Some(read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor").trim())
                    .filter(|s| !s.is_empty()),
            ),
            loadavg_1m: or_unknown(read("/proc/loadavg").split_whitespace().next()),
        }
    }

    /// One line for the run banner.
    pub fn line(&self) -> String {
        format!(
            "nproc={} affinity={} cpu=\"{}\" kernel={} mem={}MiB governor={} load1={}",
            self.nproc,
            self.affinity,
            self.cpu_model,
            self.kernel,
            self.mem_total_mb,
            self.governor,
            self.loadavg_1m
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    field(&read("/proc/self/status"), "VmHWM")
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes it. `append_sync` times belong to
/// this filesystem, not to the program.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in read("/proc/self/mountinfo").lines() {
        // "... mount-point opts ... - fstype source superopts"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split_whitespace().nth(4) else {
            continue;
        };
        let fstype = right.split_whitespace().next().unwrap_or("unknown");
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when the run starts at the checkout's root (the driver's
/// case, and one that survives a moved checkout), else where it was built.
pub fn bench_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Scratch directory for journals: `target/tmp` under the benchmark's own
/// directory — inside the checkout, and ignored by git.
pub fn scratch_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("target").join("tmp");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Where a traced run leaves its span file.
pub fn trace_path(workload: &str) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("target");
    fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("trace-{workload}.jsonl")))
}
