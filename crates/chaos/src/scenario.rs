//! JSON chaos-scenario schedules — the on-disk shape of the
//! `tests/chaos/` corpus that `mbts chaos` runs.
//!
//! A scenario is pure data: a seed, a workload target, and the failpoint
//! schedule to arm. The orchestrator (in the `mbts` facade crate)
//! interprets the target — this crate stays engine-free so every layer
//! can depend on it.

use crate::registry::FailpointSpec;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

fn default_tasks() -> u64 {
    200
}
fn default_processors() -> usize {
    4
}
fn default_load() -> f64 {
    1.2
}
fn default_policy() -> String {
    "first-reward:0.3:0.01".to_string()
}
fn default_sites() -> usize {
    4
}
fn default_snapshot_every() -> u64 {
    64
}
fn default_commands() -> u64 {
    300
}
fn default_queue_capacity() -> usize {
    64
}

/// Which workload the scenario injects faults into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioTarget {
    /// A journaled single-site run (`DurableRun<SiteRun>`): disk-layer
    /// faults hit the write-ahead journal under the run.
    Site {
        /// Synthetic trace size.
        #[serde(default = "default_tasks")]
        tasks: u64,
        /// Site processors.
        #[serde(default = "default_processors")]
        processors: usize,
        /// Workload load factor.
        #[serde(default = "default_load")]
        load: f64,
        /// Scheduling policy spec (CLI syntax, e.g. `first-reward:0.3:0.01`).
        #[serde(default = "default_policy")]
        policy: String,
        /// Snapshot cadence in events.
        #[serde(default = "default_snapshot_every")]
        snapshot_every: u64,
    },
    /// A journaled economy run (`DurableRun<EconomyRun>`): disk-layer
    /// faults hit the write-ahead journal under the run.
    Market {
        /// Synthetic trace size.
        #[serde(default = "default_tasks")]
        tasks: u64,
        /// Economy sites.
        #[serde(default = "default_sites")]
        sites: usize,
        /// Processors per site.
        #[serde(default = "default_processors")]
        processors: usize,
        /// Workload load factor.
        #[serde(default = "default_load")]
        load: f64,
        /// Scheduling policy spec.
        #[serde(default = "default_policy")]
        policy: String,
        /// Snapshot cadence in events.
        #[serde(default = "default_snapshot_every")]
        snapshot_every: u64,
    },
    /// A scripted service run: a seeded submit/cancel command schedule
    /// folded through a journaled `DurableRun<ServiceMachine>` while disk
    /// faults hit the journal underneath. Fully deterministic — no sockets; the
    /// live socket path is exercised by `tests/serve_service.rs` and the
    /// CI chaos-soak flood.
    Serve {
        /// Commands in the scripted schedule.
        #[serde(default = "default_commands")]
        commands: u64,
        /// Site processors behind the service.
        #[serde(default = "default_processors")]
        processors: usize,
        /// Scheduling policy spec.
        #[serde(default = "default_policy")]
        policy: String,
        /// Admission-queue capacity the script models.
        #[serde(default = "default_queue_capacity")]
        queue_capacity: usize,
        /// Snapshot cadence in applied commands.
        #[serde(default = "default_snapshot_every")]
        snapshot_every: u64,
    },
}

impl ScenarioTarget {
    /// Short class label for reports (`site` / `market` / `serve`).
    pub fn class(&self) -> &'static str {
        match self {
            ScenarioTarget::Site { .. } => "site",
            ScenarioTarget::Market { .. } => "market",
            ScenarioTarget::Serve { .. } => "serve",
        }
    }
}

/// One chaos scenario: `(seed, target, schedule)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reports, dump filenames).
    pub name: String,
    /// Seed for both the workload and every failpoint stream.
    pub seed: u64,
    /// What to run.
    pub target: ScenarioTarget,
    /// The failpoint schedule to arm.
    pub failpoints: Vec<FailpointSpec>,
    /// Free-form description carried in the JSON for corpus readers.
    #[serde(default)]
    pub notes: String,
}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad scenario JSON: {e}"))
    }

    /// Serializes the scenario as pretty JSON (corpus format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenarios serialize")
    }

    /// Loads one scenario file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Loads every `*.json` scenario in a corpus directory, sorted by
    /// file name so corpus order is stable across platforms.
    pub fn load_dir(dir: &Path) -> io::Result<Vec<(PathBuf, Scenario)>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            let scenario = Self::load(&path)?;
            out.push((path, scenario));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FailAction;

    #[test]
    fn scenario_round_trips_and_defaults_fill() {
        let scenario = Scenario {
            name: "disk-short-writes".to_string(),
            seed: 11,
            target: ScenarioTarget::Site {
                tasks: 150,
                processors: 4,
                load: 1.0,
                policy: "pv:0.01".to_string(),
                snapshot_every: 32,
            },
            failpoints: vec![FailpointSpec::always(
                "durable.sink.write",
                FailAction::ShortWrite { max_bytes: 9 },
            )],
            notes: String::new(),
        };
        let back = Scenario::from_json(&scenario.to_json()).expect("round trip");
        assert_eq!(back, scenario);

        let sparse = r#"{
            "name": "x", "seed": 1,
            "target": {"Serve": {}},
            "failpoints": []
        }"#;
        let parsed = Scenario::from_json(sparse).expect("defaults fill");
        match parsed.target {
            ScenarioTarget::Serve {
                commands,
                processors,
                queue_capacity,
                ..
            } => {
                assert_eq!(commands, 300);
                assert_eq!(processors, 4);
                assert_eq!(queue_capacity, 64);
            }
            other => panic!("wrong target: {other:?}"),
        }
        assert_eq!(parsed.target.class(), "serve");
    }
}
