//! The benchmark's input generator. The seed goes in here and nowhere
//! else: the program under test only ever sees the generated inputs.
//!
//! Bids are drawn by the repository's own `generate_trace` (the paper's
//! §4.1 mix), so `workload.generate_ns_per_task` is a layer of every
//! workload; which request of a daemon life is a cancel or a status probe
//! comes from the benchmark's own splitmix64 stream.

use std::ops::Range;

use mbts_sim::Dist;
use mbts_workload::{generate_trace, ArrivalProcess, BoundPolicy, MixConfig, Trace};

/// splitmix64: small, seedable, and good enough to shuffle request kinds.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `site-backlog`: one site of 8 processors whose pending pool is filled
/// by a burst and then *held* deep: 40 % of the tasks arrive at time zero,
/// the rest evenly spaced at the rate the site retires them, and only then
/// does the pool drain. Most dispatches therefore see the same depth, so
/// the per-task latencies sit in one narrow mode instead of sweeping from
/// an empty pool to a full one and back, and p50 and p99 say the same
/// thing for every seed. (FirstReward runs short, valuable tasks first, so
/// "the rate the site retires them" is above the nominal capacity: load
/// 1.2 holds the depth where load 1.0 lets it sink.) The decay is scaled
/// to the backlog's life: the default mix would floor every task's value
/// within the first percent of the run, and `yield_share` could no longer
/// tell a good dispatch order from a bad one.
pub fn backlog_trace(tasks: usize, seed: u64) -> Trace {
    let burst = ((tasks as f64 * BACKLOG_BURST_SHARE).round() as usize).clamp(1, tasks.max(2) - 1);
    let phase = |n: usize, batch_size: usize, seed: u64| {
        generate_trace(
            &MixConfig::millennium_default()
                .with_tasks(n)
                .with_processors(BACKLOG_PROCESSORS)
                .with_load_factor(BACKLOG_HELD_LOAD)
                .with_arrival(ArrivalProcess::NormalBatch {
                    batch_size,
                    cv: 0.0,
                })
                .with_mean_decay(BACKLOG_MEAN_DECAY)
                .with_bound(BoundPolicy::ProportionalPenalty { fraction: 0.5 }),
            seed,
        )
    };
    Trace::concatenate(
        &[
            phase(burst, burst, seed),
            phase(tasks.max(2) - burst, 1, seed ^ 0x9e37_79b9_7f4a_7c15),
        ],
        0.0,
    )
}

/// Processors of the backlogged site.
pub const BACKLOG_PROCESSORS: usize = 8;
/// Share of the tasks that arrive in the opening burst.
pub const BACKLOG_BURST_SHARE: f64 = 0.40;
/// Offered load of the evenly spaced arrivals that hold the pool's depth.
pub const BACKLOG_HELD_LOAD: f64 = 1.2;
/// Mean decay of the backlog mix, value units per time unit.
pub const BACKLOG_MEAN_DECAY: f64 = 0.0005;

/// `market-bids`: the `bench_market` recipe — tasks offered to 64 sites of
/// 2 processors at load 1.2.
pub fn market_trace(tasks: usize, seed: u64, sites: usize, procs_per_site: usize) -> Trace {
    generate_trace(
        &MixConfig::millennium_default()
            .with_tasks(tasks)
            .with_processors(sites * procs_per_site)
            .with_load_factor(1.2),
        seed,
    )
}

/// `serve-*`: the bids a daemon life receives. Arrival times are unused
/// (the daemon stamps its own), runtimes keep the mix's default scale and
/// the daemon's `time_scale` is chosen against them. At that scale the
/// default decay would floor a bid in 500 µs of wall time and
/// `yield_share` would be a second latency metric; [`SERVE_MEAN_DECAY`]
/// stretches that to 50 ms, so a bid loses value to a stall, a batch
/// delay or a queue, not to an ordinary round trip.
pub fn bid_mix(submits: usize) -> MixConfig {
    MixConfig::millennium_default()
        .with_tasks(submits.max(1))
        .with_processors(SERVE_PROCESSORS)
        .with_runtime(Dist::exponential(SERVE_MEAN_RUNTIME))
        .with_mean_decay(SERVE_MEAN_DECAY)
        .with_bound(BoundPolicy::ZeroFloor)
}

/// Mean decay of a bid, value units per sim-time unit.
pub const SERVE_MEAN_DECAY: f64 = 0.005;

/// Processors of the fronted site.
pub const SERVE_PROCESSORS: usize = 64;
/// Mean bid runtime, sim-time units.
pub const SERVE_MEAN_RUNTIME: f64 = 100.0;

/// One request of a connection's script.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /submit`; the wire bytes are pre-rendered.
    Submit {
        /// Range into [`ConnScript::wire`].
        wire: Range<usize>,
        /// The bid's value at zero delay.
        value: f64,
    },
    /// `POST /cancel` of the id acked `back` submits before the latest.
    Cancel { back: usize },
    /// `GET /status/ID` of the id acked `back` submits before the latest.
    Status { back: usize },
}

/// Everything one connection will send, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnScript {
    pub ops: Vec<Op>,
    /// Concatenated wire bytes of this connection's submits.
    pub wire: Vec<u8>,
}

/// One daemon life's requests, split over the connections.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScript {
    pub conns: Vec<ConnScript>,
    /// Bids drawn (= submits in the script).
    pub submits: usize,
}

/// A cancel or status probe looks this far back among the connection's
/// acked ids, so its target is recent (and inside the `/status` registry).
pub const LOOKBACK: usize = 16;
/// Ops at the head of each connection that are always submits, so a
/// cancel never lacks an acked id (must exceed window + `LOOKBACK`).
pub const WARM_SUBMITS: usize = 96;

/// Renders one `/submit` request exactly as `mbts flood` frames it.
fn render_submit(out: &mut Vec<u8>, runtime: f64, value: f64, decay: f64) {
    let body = format!("{{\"runtime\":{runtime},\"value\":{value},\"decay\":{decay}}}");
    out.extend_from_slice(
        format!(
            "POST /submit HTTP/1.1\r\nhost: mbts\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
}

/// Renders a `/cancel` request for `task`.
pub fn render_cancel(out: &mut Vec<u8>, task: u64) {
    let body = format!("{{\"task\":{task}}}");
    out.extend_from_slice(
        format!(
            "POST /cancel HTTP/1.1\r\nhost: mbts\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// Renders a `/status/ID` request for `task`.
pub fn render_status(out: &mut Vec<u8>, task: u64) {
    out.extend_from_slice(format!("GET /status/{task} HTTP/1.1\r\nhost: mbts\r\n\r\n").as_bytes());
}

/// Builds one life of `requests` requests over `conns` connections:
/// 96 % submits, 2 % cancels, 2 % status probes, request `i` going to
/// connection `i mod conns`. Returns the script and the trace the bids
/// came from (its generation is timed by the caller).
pub fn serve_script(seed: u64, requests: usize, conns: usize) -> (ServeScript, Trace) {
    assert!(conns > 0 && requests >= conns);
    let mut rng = SplitMix64::new(seed ^ 0x5e72_7665_2d6d_6978);
    // Decide the kinds first: the number of submits sizes the bid trace.
    let kinds: Vec<u8> = (0..requests)
        .map(|i| {
            if i / conns < WARM_SUBMITS {
                0
            } else {
                match rng.below(100) {
                    0 | 1 => 1,
                    2 | 3 => 2,
                    _ => 0,
                }
            }
        })
        .collect();
    let submits = kinds.iter().filter(|&&k| k == 0).count();
    let trace = generate_trace(&bid_mix(submits), seed);
    let mut scripts: Vec<ConnScript> = (0..conns)
        .map(|_| ConnScript {
            ops: Vec::with_capacity(requests / conns + 1),
            wire: Vec::new(),
        })
        .collect();
    let mut bids = trace.tasks.iter();
    for (i, kind) in kinds.iter().enumerate() {
        let conn = &mut scripts[i % conns];
        let op = match kind {
            0 => {
                let bid = bids.next().expect("one bid per submit");
                let start = conn.wire.len();
                render_submit(&mut conn.wire, bid.runtime.as_f64(), bid.value, bid.decay);
                Op::Submit {
                    wire: start..conn.wire.len(),
                    value: bid.value,
                }
            }
            1 => Op::Cancel {
                back: rng.below(LOOKBACK as u64) as usize,
            },
            _ => Op::Status {
                back: rng.below(LOOKBACK as u64) as usize,
            },
        };
        conn.ops.push(op);
    }
    (
        ServeScript {
            conns: scripts,
            submits,
        },
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte the generator decides, flattened.
    fn image(s: &ServeScript) -> Vec<u8> {
        let mut out = Vec::new();
        for c in &s.conns {
            out.extend_from_slice(&c.wire);
            for op in &c.ops {
                match op {
                    Op::Submit { wire, .. } => {
                        out.extend_from_slice(&(wire.end as u64).to_le_bytes())
                    }
                    Op::Cancel { back } => out.extend_from_slice(&[1, *back as u8]),
                    Op::Status { back } => out.extend_from_slice(&[2, *back as u8]),
                }
            }
        }
        out
    }

    #[test]
    fn equal_seeds_give_byte_identical_inputs_and_unequal_seeds_do_not() {
        let (a, ta) = serve_script(7, 4_000, 2);
        let (b, tb) = serve_script(7, 4_000, 2);
        let (c, _) = serve_script(8, 4_000, 2);
        assert_eq!(image(&a), image(&b));
        assert_eq!(ta, tb);
        assert_ne!(image(&a), image(&c));
        let market = |seed| market_trace(500, seed, 64, 2);
        for make in [
            &(|seed| backlog_trace(500, seed)) as &dyn Fn(u64) -> Trace,
            &market,
        ] {
            let x = make(7);
            assert_eq!(x.to_json(), make(7).to_json());
            assert_ne!(x.to_json(), make(8).to_json());
            assert_eq!(x.tasks.len(), 500);
            assert!(x.tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        }
    }

    #[test]
    fn the_mix_is_96_2_2_and_every_probe_has_a_target() {
        let (s, trace) = serve_script(3, 50_000, 2);
        let all: Vec<&Op> = s.conns.iter().flat_map(|c| c.ops.iter()).collect();
        assert_eq!(all.len(), 50_000);
        let cancels = all
            .iter()
            .filter(|o| matches!(o, Op::Cancel { .. }))
            .count();
        let probes = all
            .iter()
            .filter(|o| matches!(o, Op::Status { .. }))
            .count();
        assert_eq!(s.submits + cancels + probes, 50_000);
        assert_eq!(trace.tasks.len(), s.submits);
        for share in [cancels, probes] {
            let pct = 100.0 * share as f64 / 50_000.0;
            assert!((1.5..2.5).contains(&pct), "{pct}");
        }
        for c in &s.conns {
            assert!(c.ops[..WARM_SUBMITS]
                .iter()
                .all(|o| matches!(o, Op::Submit { .. })));
        }
    }

    #[test]
    fn rendered_requests_parse_with_the_daemons_own_reader() {
        let (s, _) = serve_script(1, 200, 2);
        let submits = s.conns[0]
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Submit { .. }))
            .count();
        let mut wire = s.conns[0].wire.clone();
        render_cancel(&mut wire, 17);
        render_status(&mut wire, 18);
        let mut r = std::io::BufReader::new(std::io::Cursor::new(wire));
        let mut seen = Vec::new();
        while let Some(req) = mbts_serve::http::read_request(&mut r).unwrap() {
            seen.push((req.method, req.target, req.body));
        }
        assert_eq!(seen.len(), submits + 2);
        assert!(seen[..submits]
            .iter()
            .all(|(m, t, _)| m == "POST" && t == "/submit"));
        assert_eq!(seen[submits].1, "/cancel");
        assert_eq!(seen[submits].2, b"{\"task\":17}");
        assert_eq!(seen[submits + 1].1, "/status/18");
    }
}
