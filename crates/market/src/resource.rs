//! The reseller model (§7): a task service buying raw resources.
//!
//! The paper positions its yield measures as "the basis for a bidding
//! strategy for raw resources in a computational resource market" — the
//! task service resells capacity it rents from a shared pool (SHARP /
//! Muse / Cluster-on-Demand lineage). This module implements the closed
//! loop:
//!
//! * a [`ResourcePool`] leases processors at a fixed rent per
//!   processor-time,
//! * a [`ProvisioningPolicy`] reviews the site periodically and grows or
//!   shrinks its capacity by comparing internal signals (queue pressure,
//!   marginal unit gain of queued work) against the rent,
//! * [`run_elastic`] drives the whole thing over a trace and accounts
//!   **profit = yield − rent**.

use mbts_sim::{Duration, Engine, EventQueue, Model, Time};
use mbts_site::{CompletionToken, SiteConfig, SiteOutcome, SiteState};
use mbts_workload::Trace;
use serde::{Deserialize, Serialize};

/// A shared pool of processors for rent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourcePool {
    /// Processors the pool owns.
    pub total: usize,
    /// Processors currently leased out.
    pub leased: usize,
    /// Rent per processor per time unit.
    pub price: f64,
}

impl ResourcePool {
    /// A pool of `total` processors at `price` rent.
    pub fn new(total: usize, price: f64) -> Self {
        assert!(price >= 0.0, "price must be non-negative");
        ResourcePool {
            total,
            leased: 0,
            price,
        }
    }

    /// Processors still available for lease.
    pub fn available(&self) -> usize {
        self.total - self.leased
    }

    /// Leases up to `want` processors; returns how many were granted.
    pub fn lease(&mut self, want: usize) -> usize {
        let granted = want.min(self.available());
        self.leased += granted;
        granted
    }

    /// Returns `n` processors to the pool.
    pub fn release(&mut self, n: usize) {
        assert!(n <= self.leased, "releasing more than leased");
        self.leased -= n;
    }
}

/// How the reseller adjusts its leased capacity at each review.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProvisioningPolicy {
    /// Never adjust (the baseline fixed-capacity site).
    Static,
    /// Track the backlog: grow by `step` while queued work per processor
    /// exceeds `target_backlog` time units; shrink by `step` when it
    /// falls below half the target (never below the starting capacity...
    /// capacity floors at 1).
    QueuePressure {
        /// Desired queued work per processor, in time units.
        target_backlog: f64,
        /// Processors leased/released per review.
        step: usize,
    },
    /// Economic: while the queue's mean expected unit gain exceeds
    /// `margin ×` the rent, lease enough capacity to clear the backlog
    /// within one review interval (at most `step` new processors per
    /// review); release `step` when the queue is empty.
    MarginalGain {
        /// Required markup of unit gain over rent before leasing.
        margin: f64,
        /// Maximum processors leased/released per review.
        step: usize,
    },
}

/// Configuration of an elastic reseller run.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The site (its `processors` is the *initial* lease).
    pub site: SiteConfig,
    /// Pool size (including the initial lease) and rent.
    pub pool_total: usize,
    /// Rent per processor per time unit.
    pub rent: f64,
    /// Provisioning policy.
    pub policy: ProvisioningPolicy,
    /// Time between provisioning reviews.
    pub review_interval: f64,
}

/// Result of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// The site's scheduling outcome.
    pub site: SiteOutcome,
    /// Total rent paid (capacity integrated over time × price).
    pub rent_paid: f64,
    /// Peak capacity reached.
    pub max_capacity: usize,
    /// Time-average capacity.
    pub mean_capacity: f64,
}

impl ElasticOutcome {
    /// The reseller's bottom line: yield earned minus rent paid.
    pub fn profit(&self) -> f64 {
        self.site.metrics.total_yield - self.rent_paid
    }
}

enum Ev {
    Arrival(usize),
    Completion(CompletionToken),
    Review,
}

struct ElasticModel {
    site: SiteState,
    pool: ResourcePool,
    policy: ProvisioningPolicy,
    review_interval: Duration,
    trace: Vec<mbts_workload::TaskSpec>,
    arrivals_left: usize,
    // Rent accounting: capacity integrated over time.
    last_event: Time,
    capacity_time: f64,
    max_capacity: usize,
    horizon: Time,
}

impl ElasticModel {
    /// Grows by up to `want` processors: cancelled shrink debt first
    /// (those never left the lease), fresh leases for the remainder.
    fn grow(&mut self, want: usize, now: Time, queue: &mut EventQueue<Ev>) {
        let kept = self.site.cancel_shrink(want);
        let granted = self.pool.lease(want - kept);
        for t in self.site.grow(granted, now) {
            queue.schedule(t.at, Ev::Completion(t));
        }
    }

    fn accrue(&mut self, now: Time) {
        let dt = (now - self.last_event).as_f64();
        self.capacity_time += dt * self.site.capacity() as f64;
        self.last_event = now;
        self.max_capacity = self.max_capacity.max(self.site.capacity());
    }

    fn review(&mut self, now: Time, queue: &mut EventQueue<Ev>) {
        match self.policy {
            ProvisioningPolicy::Static => {}
            ProvisioningPolicy::QueuePressure {
                target_backlog,
                step,
            } => {
                let per_proc = self.site.pending_work() / self.site.capacity() as f64;
                if per_proc > target_backlog {
                    self.grow(step, now, queue);
                } else if per_proc < target_backlog / 2.0 {
                    let released = self.site.shrink(step);
                    self.pool.release(released);
                }
            }
            ProvisioningPolicy::MarginalGain { margin, step } => {
                // Marginal value of a processor: the better of (a) the
                // queue's mean unit gain — value an extra processor earns
                // directly — and (b) the queue's aggregate decay spread
                // over current capacity — value an extra processor saves
                // by draining the backlog sooner. (b) dominates under
                // unbounded penalties, where a long-delayed queue has
                // negative expected gains but enormous carrying cost.
                let direct = self.site.pending_unit_gain(now);
                let avoided = self.site.pending_decay_rate(now) / self.site.capacity() as f64;
                let gain = direct.max(avoided);
                let backlog = self.site.pending_work();
                if gain > margin * self.pool.price && backlog > 0.0 {
                    // Size the lease to clear the backlog within one
                    // review interval, bounded by the per-review step.
                    let needed = (backlog / self.review_interval.as_f64()).ceil() as usize;
                    let want = needed.saturating_sub(self.site.capacity()).min(step).max(1);
                    self.grow(want, now, queue);
                } else if self.site.pending_len() == 0 {
                    let released = self.site.shrink(step);
                    self.pool.release(released);
                }
            }
        }
    }
}

impl Model for ElasticModel {
    type Event = Ev;

    fn handle(&mut self, now: Time, event: Ev, queue: &mut EventQueue<Ev>) {
        self.accrue(now);
        // Debt processors retired since the last event go back to the pool.
        let settled = self.site.take_settled_shrink();
        self.pool.release(settled);
        match event {
            Ev::Arrival(i) => {
                self.arrivals_left -= 1;
                let (_, tokens) = self.site.submit(now, self.trace[i]);
                for t in tokens {
                    queue.schedule(t.at, Ev::Completion(t));
                }
            }
            Ev::Completion(token) => {
                for t in self.site.on_completion(now, token) {
                    queue.schedule(t.at, Ev::Completion(t));
                }
            }
            Ev::Review => {
                self.review(now, queue);
                // Keep reviewing while work remains anywhere.
                if self.arrivals_left > 0 || !self.site.is_quiescent() {
                    queue.schedule(now + self.review_interval, Ev::Review);
                } else {
                    // Run ended: release everything still leased.
                    let released = self.site.shrink(self.site.capacity() - 1);
                    self.pool.release(released);
                    self.horizon = now;
                }
            }
        }
    }
}

/// Runs `trace` through an elastic reseller site.
pub fn run_elastic(config: &ElasticConfig, trace: &Trace) -> ElasticOutcome {
    assert!(
        config.site.processors <= config.pool_total,
        "initial lease exceeds the pool"
    );
    assert!(
        config.review_interval > 0.0,
        "review interval must be positive"
    );
    let mut pool = ResourcePool::new(config.pool_total, config.rent);
    pool.lease(config.site.processors);
    let model = ElasticModel {
        site: SiteState::new(config.site.clone()),
        pool,
        policy: config.policy,
        review_interval: Duration::new(config.review_interval),
        trace: trace.tasks.clone(),
        arrivals_left: trace.tasks.len(),
        last_event: Time::ZERO,
        capacity_time: 0.0,
        max_capacity: config.site.processors,
        horizon: Time::ZERO,
    };
    let mut engine = Engine::new(model);
    engine.feed(
        trace.tasks.iter().enumerate().map(|(i, t)| (t.arrival, i)),
        Ev::Arrival,
    );
    engine.schedule(Time::from(config.review_interval), Ev::Review);
    engine.run_to_completion();
    let model = engine.into_model();
    let span = model.last_event.as_f64().max(1e-9);
    ElasticOutcome {
        rent_paid: model.capacity_time * config.rent,
        max_capacity: model.max_capacity,
        mean_capacity: model.capacity_time / span,
        site: model.site.into_outcome(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbts_core::Policy;
    use mbts_workload::{generate_trace, MixConfig};

    fn surge_trace(seed: u64) -> Trace {
        // Quiet (load 0.4) → surge (load 3) → quiet again.
        let quiet = MixConfig::millennium_default()
            .with_tasks(150)
            .with_processors(4)
            .with_load_factor(0.4)
            .with_mean_decay(0.05);
        let surge = quiet.clone().with_load_factor(3.0);
        let a = generate_trace(&quiet, seed);
        let b = generate_trace(&surge, seed + 1);
        let c = generate_trace(&quiet, seed + 2);
        Trace::concatenate(&[a, b, c], 50.0)
    }

    fn config(policy: ProvisioningPolicy) -> ElasticConfig {
        ElasticConfig {
            site: SiteConfig::new(4).with_policy(Policy::FirstPrice),
            pool_total: 32,
            rent: 0.05,
            policy,
            review_interval: 50.0,
        }
    }

    #[test]
    fn pool_lease_release_accounting() {
        let mut pool = ResourcePool::new(10, 1.0);
        assert_eq!(pool.lease(4), 4);
        assert_eq!(pool.available(), 6);
        assert_eq!(pool.lease(100), 6, "grants only what it has");
        assert_eq!(pool.available(), 0);
        pool.release(10);
        assert_eq!(pool.available(), 10);
    }

    #[test]
    #[should_panic(expected = "releasing more than leased")]
    fn over_release_panics() {
        let mut pool = ResourcePool::new(2, 1.0);
        pool.release(1);
    }

    #[test]
    fn static_policy_never_changes_capacity() {
        let trace = surge_trace(42);
        let out = run_elastic(&config(ProvisioningPolicy::Static), &trace);
        assert_eq!(out.max_capacity, 4);
        assert!((out.mean_capacity - 4.0).abs() < 1e-9);
        assert_eq!(out.site.metrics.completed, 450);
    }

    #[test]
    fn queue_pressure_grows_through_the_surge_and_shrinks_after() {
        let trace = surge_trace(42);
        let out = run_elastic(
            &config(ProvisioningPolicy::QueuePressure {
                target_backlog: 100.0,
                step: 2,
            }),
            &trace,
        );
        assert!(out.max_capacity > 4, "surge must trigger growth");
        assert!(
            out.mean_capacity < out.max_capacity as f64,
            "capacity must come back down"
        );
        assert_eq!(out.site.metrics.completed, 450);
    }

    #[test]
    fn elastic_beats_static_profit_under_surges() {
        let trace = surge_trace(7);
        let fixed = run_elastic(&config(ProvisioningPolicy::Static), &trace);
        let elastic = run_elastic(
            &config(ProvisioningPolicy::QueuePressure {
                target_backlog: 100.0,
                step: 2,
            }),
            &trace,
        );
        assert!(
            elastic.profit() > fixed.profit(),
            "elastic {} vs static {}",
            elastic.profit(),
            fixed.profit()
        );
    }

    #[test]
    fn marginal_gain_policy_only_buys_profitable_capacity() {
        let trace = surge_trace(9);
        let cheap = run_elastic(
            &config(ProvisioningPolicy::MarginalGain {
                margin: 2.0,
                step: 2,
            }),
            &trace,
        );
        // With rent far above any task's unit gain, the economic policy
        // must refuse to grow.
        let mut expensive_cfg = config(ProvisioningPolicy::MarginalGain {
            margin: 2.0,
            step: 2,
        });
        expensive_cfg.rent = 1e6;
        let expensive = run_elastic(&expensive_cfg, &trace);
        assert!(cheap.max_capacity > 4);
        assert_eq!(expensive.max_capacity, 4, "unprofitable capacity refused");
    }

    #[test]
    fn rent_scales_with_mean_capacity() {
        let trace = surge_trace(11);
        let out = run_elastic(&config(ProvisioningPolicy::Static), &trace);
        // rent = mean_capacity × span × price; with static capacity 4:
        let span = out.rent_paid / (4.0 * 0.05);
        assert!(span > 0.0);
        assert!((out.mean_capacity - 4.0).abs() < 1e-9);
    }
}
