//! The one latency histogram: log-linear nanosecond buckets in two forms
//! that share [`bucket_of`], [`upper_edge_ns`] and
//! [`LatencyHistogram::quantile_ns`].
//!
//! * [`LatencyHistogram`] — a plain serializable value with `record` and
//!   `merge`: what reports carry, what `mbts flood` tallies into, and
//!   what `mbts top` rebuilds from a scrape.
//! * [`AtomicLatency`] — a sharded relaxed-atomic recorder for
//!   process-global series written from hot paths and read by scrapes.
//!
//! Geometry is fixed: values below 32 ns get a bucket each; every octave
//! above is cut into [`SUB_BUCKETS`] equal sub-buckets, so a bucket's
//! width is at most 1/16 of its lower edge. The last bucket absorbs
//! everything from 2^40 ns (≈ 18 minutes) up.
//!
//! This is the workspace's one histogram. It measures wall-clock latency;
//! distributions over simulated time (delays, yields) are reported as
//! exact sums and means by the trace fold in `mbts-trace`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

const SUB_BITS: u32 = 4;

/// Sub-buckets per octave.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Buckets per histogram: 32 exact values, then 16 per octave from 2^5
/// up to 2^40 ns.
pub const LATENCY_BUCKETS: usize = (40 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Writer shards of an [`AtomicLatency`] (and of the telemetry request
/// counters, which reuse [`thread_shard`]).
pub const NSHARDS: usize = 8;

/// Index of the bucket a sample falls in.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    // Octaves below 2^4 share shift 0, so 0..32 map to themselves.
    let shift = 63 - (ns | SUB_BUCKETS as u64).leading_zeros() - SUB_BITS;
    (((shift as usize) << SUB_BITS) + (ns >> shift) as usize).min(LATENCY_BUCKETS - 1)
}

/// Largest sample that falls in `bucket` — the inclusive edge a
/// Prometheus `le` label wants. The tail bucket is unbounded.
pub fn upper_edge_ns(bucket: usize) -> u64 {
    if bucket >= LATENCY_BUCKETS - 1 {
        return u64::MAX;
    }
    let shift = (bucket >> SUB_BITS).saturating_sub(1);
    let mantissa = (bucket - (shift << SUB_BITS)) as u64;
    ((mantissa + 1) << shift) - 1
}

/// Nanoseconds since `start`, saturating.
#[inline]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One latency distribution as a value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Series name (`pool_insert`, `serve_apply`, `request`, …); empty
    /// for an anonymous tally.
    #[serde(default)]
    pub section: String,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub sum_ns: u64,
    /// Largest single sample, in nanoseconds.
    pub max_ns: u64,
    /// Per-bucket counts, [`LATENCY_BUCKETS`] long; see [`bucket_of`].
    pub buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::named("")
    }
}

impl LatencyHistogram {
    /// An empty histogram for series `section`.
    pub fn named(section: &str) -> Self {
        LatencyHistogram {
            section: section.to_string(),
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: vec![0; LATENCY_BUCKETS],
        }
    }

    /// Folds `n` samples of `ns` each into the histogram.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        self.count += n;
        self.sum_ns = self.sum_ns.saturating_add(ns.saturating_mul(n));
        self.max_ns = self.max_ns.max(ns);
        // A deserialized value may carry a shorter vector.
        if self.buckets.len() < LATENCY_BUCKETS {
            self.buckets.resize(LATENCY_BUCKETS, 0);
        }
        self.buckets[bucket_of(ns)] += n;
    }

    /// Folds one sample into the histogram.
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Adds every sample of `other`; the result equals having recorded
    /// the union.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean sample latency in nanoseconds (0 with no samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64
    }

    /// Nearest-rank quantile estimate: the upper edge of the bucket
    /// holding the `ceil(q·count)`-th sample, clamped to `max_ns`. Never
    /// below the exact nearest-rank sample and at most 1/16 above it.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return upper_edge_ns(i).min(self.max_ns);
            }
        }
        // Empty, or a racy read whose buckets trail its count.
        self.max_ns
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NSHARDS;
}

/// The shard this thread writes to: a round-robin ticket drawn once per
/// thread, so two busy threads usually land on different cache lines.
#[inline]
pub fn thread_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// A latency recorder many threads can write without locks: every field
/// is a statistic that publishes no other data, so all accesses are
/// `Relaxed`. A snapshot racing a writer can be off by the in-flight
/// sample; counts never go backwards.
pub struct AtomicLatency {
    shards: [Shard; NSHARDS],
}

impl AtomicLatency {
    /// An empty recorder (usable in a `static`).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        AtomicLatency {
            shards: [const {
                Shard {
                    count: AtomicU64::new(0),
                    sum_ns: AtomicU64::new(0),
                    max_ns: AtomicU64::new(0),
                    buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
                }
            }; NSHARDS],
        }
    }

    /// Folds one sample in: four relaxed RMWs on this thread's shard.
    #[inline]
    pub fn record(&self, ns: u64) {
        let shard = &self.shards[thread_shard()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
        shard.max_ns.fetch_max(ns, Ordering::Relaxed);
        shard.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the shards into a value named `section`.
    pub fn snapshot(&self, section: &str) -> LatencyHistogram {
        let mut out = LatencyHistogram::named(section);
        for shard in &self.shards {
            out.count += shard.count.load(Ordering::Relaxed);
            out.sum_ns = out
                .sum_ns
                .saturating_add(shard.sum_ns.load(Ordering::Relaxed));
            out.max_ns = out.max_ns.max(shard.max_ns.load(Ordering::Relaxed));
            for (acc, b) in out.buckets.iter_mut().zip(&shard.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Zeroes every cell.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.count.store(0, Ordering::Relaxed);
            shard.sum_ns.store(0, Ordering::Relaxed);
            shard.max_ns.store(0, Ordering::Relaxed);
            for b in &shard.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn recorded(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for &ns in samples {
            h.record(ns);
        }
        h
    }

    #[test]
    fn geometry_is_contiguous_and_edges_invert_bucket_of() {
        assert_eq!(LATENCY_BUCKETS, 592);
        for b in 0..LATENCY_BUCKETS - 1 {
            let hi = upper_edge_ns(b);
            assert_eq!(bucket_of(hi), b, "upper edge of {b} maps back");
            assert_eq!(bucket_of(hi + 1), b + 1, "edge + 1 starts the next bucket");
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(1 << 40), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(upper_edge_ns(LATENCY_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn empty_and_degenerate_quantiles() {
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_ns(0.5), 0);
        assert_eq!(empty.mean_ns(), 0.0);
        // q = 0 asks for rank 1, not an empty bucket 0.
        let h = recorded(&[5_000, 7_000]);
        assert!(h.quantile_ns(0.0) >= 5_000);
        // The tail bucket reports the recorded max, not 2^40.
        let huge = recorded(&[u64::MAX]);
        assert_eq!(huge.quantile_ns(0.99), u64::MAX);
        let mut short = LatencyHistogram {
            buckets: vec![],
            ..LatencyHistogram::default()
        };
        short.record(1_000);
        short.merge(&h);
        assert_eq!(short.count, 3);
    }

    fn sample() -> impl Strategy<Value = u64> {
        // Spread over the octaves below the unbounded tail bucket.
        (0u32..40, 0u64..1 << 20).prop_map(|(exp, frac)| (1u64 << exp) + (frac << exp >> 20))
    }

    proptest! {
        #[test]
        fn quantiles_bracket_the_exact_nearest_rank(
            samples in collection::vec(sample(), 1..200),
            q in 0.0f64..=1.0,
        ) {
            let h = recorded(&samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let exact = exact_nearest_rank(&sorted, q);
            let est = h.quantile_ns(q);
            prop_assert!(est >= exact, "estimate {est} below exact {exact}");
            prop_assert!(est <= h.max_ns);
            prop_assert!(est - exact <= exact / 16, "estimate {est} vs exact {exact}");
            prop_assert!(h.quantile_ns(q / 2.0) <= est, "quantiles are monotone in q");
        }

        #[test]
        fn atomic_and_plain_recorders_agree_and_merge_is_union(
            a in collection::vec(sample(), 0..60),
            b in collection::vec(sample(), 0..60),
            c in collection::vec(sample(), 0..60),
        ) {
            let atomic = AtomicLatency::new();
            for &ns in &a {
                atomic.record(ns);
            }
            prop_assert_eq!(atomic.snapshot(""), recorded(&a));

            let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            let (ha, hb, hc) = (recorded(&a), recorded(&b), recorded(&c));
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(&left, &recorded(&union));
        }
    }
}
