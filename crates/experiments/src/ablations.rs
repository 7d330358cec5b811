//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These are not paper figures; they quantify the knobs the paper leaves
//! implicit (preemption, admission heuristic family, candidate-schedule
//! fidelity, runtime misestimation, expired-task shedding).

use crate::figures::{run_site, sized};
use crate::harness::{sweep, ExpParams};
use crate::report::FigureResult;
use mbts_core::{AdmissionPolicy, Policy, ScheduleMode};
use mbts_site::SiteConfig;
use mbts_workload::{fig3_mix, fig45_mix, fig67_mix, MixConfig};

/// Preemption on/off for the gain-based heuristics on the Figure-3 mix.
pub fn ablate_preemption(params: &ExpParams) -> FigureResult {
    let mix = sized(fig3_mix(4.0), params);
    let policies = [
        (0.0, Policy::FirstPrice),
        (1.0, Policy::pv(0.01)),
        (2.0, Policy::Srpt),
    ];
    FigureResult {
        id: "ablate-preemption".into(),
        title: "Preemption ablation (x: 0=FirstPrice, 1=PV, 2=SRPT)".into(),
        x_label: "policy index".into(),
        y_label: "total yield".into(),
        series: sweep(
            params,
            &[("preemption off", false), ("preemption on", true)],
            &policies,
            |&on, &policy, seed| {
                let site = SiteConfig::new(params.processors)
                    .with_policy(policy)
                    .with_preemption(on);
                run_site(&mix, seed, site).metrics.total_yield
            },
            None,
        ),
    }
}

/// Admission heuristic families across load (AcceptAll vs positive-yield
/// vs slack threshold), FirstReward scheduler.
pub fn ablate_admission(params: &ExpParams) -> FigureResult {
    let admissions = [
        ("AcceptAll", AdmissionPolicy::AcceptAll),
        (
            "PositiveExpectedYield",
            AdmissionPolicy::PositiveExpectedYield,
        ),
        (
            "SlackThreshold(180)",
            AdmissionPolicy::SlackThreshold { threshold: 180.0 },
        ),
    ];
    FigureResult {
        id: "ablate-admission".into(),
        title: "Admission heuristic families across load".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series: sweep(
            params,
            &admissions,
            &[0.5, 1.0, 2.0, 3.0].map(|load| (load, load)),
            |&admission, &load, seed| {
                let mix = sized(fig67_mix(load), params);
                let site = SiteConfig::new(params.processors)
                    .with_policy(Policy::first_reward(0.2, 0.01))
                    .with_admission(admission);
                run_site(&mix, seed, site).metrics.yield_rate()
            },
            None,
        ),
    }
}

/// Static vs dynamic candidate schedules on the admission path.
pub fn ablate_schedule_mode(params: &ExpParams) -> FigureResult {
    let modes = [
        ("static candidate schedule", ScheduleMode::Static),
        ("dynamic candidate schedule", ScheduleMode::Dynamic),
    ];
    FigureResult {
        id: "ablate-schedule-mode".into(),
        title: "Candidate-schedule fidelity on the admission path".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series: sweep(
            params,
            &modes,
            &[1.0, 2.0, 3.0].map(|load| (load, load)),
            |&mode, &load, seed| {
                let mix = sized(fig67_mix(load), params);
                let site = SiteConfig::new(params.processors)
                    .with_policy(Policy::first_reward(0.2, 0.01))
                    .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 })
                    .with_schedule_mode(mode);
                run_site(&mix, seed, site).metrics.yield_rate()
            },
            None,
        ),
    }
}

/// Robustness to runtime misestimation (the paper assumes accurate
/// estimates; §4 flags exceedance handling as future work): each policy
/// at each error level against the same policy with accurate estimates,
/// on the same seed.
pub fn ablate_misestimation(params: &ExpParams) -> FigureResult {
    let accurate = sized(fig45_mix(5.0, false), params);
    let policies = [
        ("FirstPrice", Policy::FirstPrice),
        ("FirstReward(0.2)", Policy::first_reward(0.2, 0.01)),
        ("SWPT", Policy::Swpt),
    ];
    let total_yield = |mix: &MixConfig, policy: Policy, seed| {
        let site = SiteConfig::new(params.processors).with_policy(policy);
        run_site(mix, seed, site).metrics.total_yield
    };
    FigureResult {
        id: "ablate-misestimation".into(),
        title: "Yield change under runtime misestimation".into(),
        x_label: "relative runtime error (sigma)".into(),
        y_label: "yield change vs accurate estimates (%)".into(),
        series: sweep(
            params,
            &policies,
            &[0.0, 0.1, 0.25, 0.5].map(|error| (error, error)),
            |&policy, &error, seed| {
                let noisy = accurate.clone().with_runtime_error(error);
                total_yield(&noisy, policy, seed)
            },
            Some(&|&policy, seed| total_yield(&accurate, policy, seed)),
        ),
    }
}

/// Shedding expired tasks vs running them out, bounded-penalty mix.
pub fn ablate_drop_expired(params: &ExpParams) -> FigureResult {
    FigureResult {
        id: "ablate-drop-expired".into(),
        title: "Shedding expired bounded-penalty tasks".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series: sweep(
            params,
            &[("run expired tasks", false), ("drop expired tasks", true)],
            &[1.0, 2.0, 3.0].map(|load| (load, load)),
            |&drop, &load, seed| {
                let mix = sized(fig45_mix(5.0, true), params).with_load_factor(load);
                let site = SiteConfig::new(params.processors)
                    .with_policy(Policy::FirstPrice)
                    .with_drop_expired(drop);
                run_site(&mix, seed, site).metrics.yield_rate()
            },
            None,
        ),
    }
}

/// Discount-rate sensitivity under stationary (Poisson) vs bursty
/// (batch) arrivals — DESIGN.md ablation 5. PV's risk aversion targets
/// uncertainty in the future job mix, so its sensitivity to the discount
/// rate should differ between smooth and bursty streams.
pub fn ablate_burstiness(params: &ExpParams) -> FigureResult {
    use mbts_workload::ArrivalProcess;
    let arrivals = [
        ("stationary (Poisson)", ArrivalProcess::Exponential),
        (
            "bursty (batches of 16)",
            ArrivalProcess::NormalBatch {
                batch_size: 16,
                cv: 0.5,
            },
        ),
    ]
    .map(|(label, arrival)| (label, sized(fig3_mix(4.0), params).with_arrival(arrival)));
    let total_yield = |mix: &MixConfig, policy: Policy, seed| {
        let site = SiteConfig::new(params.processors)
            .with_policy(policy)
            .with_preemption(true);
        run_site(mix, seed, site).metrics.total_yield
    };
    FigureResult {
        id: "ablate-burstiness".into(),
        title: "PV discount-rate sensitivity: stationary vs bursty arrivals".into(),
        x_label: "discount rate (%)".into(),
        y_label: "improvement over FirstPrice (%)".into(),
        series: sweep(
            params,
            &arrivals,
            &[0.0, 1e-4, 1e-3, 1e-2, 1e-1].map(|rate| (rate * 100.0, Policy::pv(rate))),
            |mix, &pv, seed| total_yield(mix, pv, seed),
            Some(&|mix, seed| total_yield(mix, Policy::FirstPrice, seed)),
        ),
    }
}

/// Tests the claim the paper's methodology leans on (§4.1, citing Lo et
/// al.): job-duration distributions "rarely affect the relative ranking
/// of scheduling algorithms". Runs the policy ladder under exponential,
/// normal, lognormal, Weibull, and hyperexponential durations at equal
/// mean and load and reports yield per policy per distribution.
pub fn ablate_duration_dist(params: &ExpParams) -> FigureResult {
    use mbts_sim::Dist;
    let policies = [
        (0.0, Policy::Fcfs),
        (1.0, Policy::Srpt),
        (2.0, Policy::FirstPrice),
        (3.0, Policy::first_reward(0.2, 0.01)),
    ];
    let dists = [
        ("exponential", Dist::exponential(100.0)),
        ("normal(cv=0.2)", Dist::normal_min(100.0, 20.0, 1.0)),
        ("lognormal(σ=1)", Dist::lognormal(100.0, 1.0)),
        ("weibull(k=0.7)", Dist::weibull(100.0, 0.7)),
        ("hyperexp(scv=4)", Dist::hyperexp(100.0, 4.0)),
    ]
    .map(|(label, dist)| (label, sized(fig67_mix(1.5), params).with_runtime(dist)));
    FigureResult {
        id: "ablate-duration-dist".into(),
        title: "Policy ranking across duration distributions \
                (x: 0=FCFS, 1=SRPT, 2=FirstPrice, 3=FirstReward)"
            .into(),
        x_label: "policy index".into(),
        y_label: "total yield".into(),
        series: sweep(
            params,
            &dists,
            &policies,
            |mix, &policy, seed| {
                let site = SiteConfig::new(params.processors).with_policy(policy);
                run_site(mix, seed, site).metrics.total_yield
            },
            None,
        ),
    }
}

/// Gang widths and EASY backfilling: yield rate across width policies
/// with backfilling on vs off (an extension study; the paper assumes
/// width-1 tasks and cites gang scheduling with backfilling as the
/// deployed norm).
pub fn ablate_widths(params: &ExpParams) -> FigureResult {
    use mbts_workload::WidthPolicy;
    let widths = [
        (1.0, WidthPolicy::One),
        (2.0, WidthPolicy::Uniform { lo: 1, hi: 4 }),
        (3.0, WidthPolicy::PowersOfTwo { max_exp: 2 }),
        (4.0, WidthPolicy::PowersOfTwo { max_exp: 3 }),
    ];
    FigureResult {
        id: "ablate-widths".into(),
        title: "Gang widths × backfilling (x: 1=width-1, 2=uniform 1-4, \
                3=pow2≤4, 4=pow2≤8)"
            .into(),
        x_label: "width policy index".into(),
        y_label: "average yield rate".into(),
        series: sweep(
            params,
            &[("EASY backfilling", true), ("strict score order", false)],
            &widths,
            |&backfill, &width, seed| {
                let mix = sized(fig67_mix(1.5), params).with_width(width);
                let site = SiteConfig::new(params.processors)
                    .with_policy(Policy::first_reward(0.2, 0.01))
                    .with_backfilling(backfill);
                run_site(&mix, seed, site).metrics.yield_rate()
            },
            None,
        ),
    }
}

/// Deadline scheduling vs value-based scheduling (§3's argument):
/// EDF over expiration times treats every deadline as equally binding
/// and gives no guidance once the schedule is infeasible; value-based
/// policies degrade gracefully by sacrificing the least valuable work.
/// Sweeps load on a bounded-penalty mix.
pub fn ablate_deadline_vs_value(params: &ExpParams) -> FigureResult {
    let policies = [
        ("EDF", Policy::EarliestDeadline),
        ("FirstPrice", Policy::FirstPrice),
        ("FirstReward(0.3)", Policy::first_reward(0.3, 0.01)),
    ];
    FigureResult {
        id: "ablate-deadline-vs-value".into(),
        title: "Deadline (EDF) vs value-based scheduling across load".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series: sweep(
            params,
            &policies,
            &[0.5, 1.0, 1.5, 2.0, 3.0].map(|load| (load, load)),
            |&policy, &load, seed| {
                // Tight deadlines (fast decay: the mean task expires
                // after ~2 mean runtimes of delay) — the regime where
                // infeasible schedules appear and §3's argument bites.
                let mix = sized(fig45_mix(5.0, true), params)
                    .with_mean_decay(0.5)
                    .with_load_factor(load);
                let site = SiteConfig::new(params.processors).with_policy(policy);
                run_site(&mix, seed, site).metrics.yield_rate()
            },
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExpParams {
        ExpParams {
            tasks: 250,
            seeds: 2,
            base_seed: 9000,
            processors: 8,
        }
    }

    #[test]
    fn value_scheduling_beats_edf_under_overload() {
        let fig = ablate_deadline_vs_value(&smoke());
        let edf = fig.series_by_label("EDF").unwrap();
        let fr = fig.series_by_label("FirstReward(0.3)").unwrap();
        // At the heaviest load value-based scheduling must win: EDF burns
        // capacity on tasks whose deadlines are already hopeless.
        let last = edf.points.len() - 1;
        assert!(
            fr.points[last].y.mean > edf.points[last].y.mean,
            "FirstReward {} vs EDF {} at overload",
            fr.points[last].y.mean,
            edf.points[last].y.mean
        );
    }

    #[test]
    fn backfilling_never_hurts_gang_mixes() {
        let fig = ablate_widths(&smoke());
        let easy = fig.series_by_label("EASY backfilling").unwrap();
        let strict = fig.series_by_label("strict score order").unwrap();
        // Width-1 workloads are identical under both (nothing to backfill).
        assert!((easy.points[0].y.mean - strict.points[0].y.mean).abs() < 1e-9);
        // Gang mixes: backfilling fills reservation holes; allow a small
        // tolerance for smoke-scale noise but demand a win somewhere.
        let mut wins = 0;
        for (e, s) in easy.points.iter().zip(&strict.points).skip(1) {
            assert!(e.y.mean >= s.y.mean - s.y.mean.abs() * 0.15 - 0.5);
            if e.y.mean > s.y.mean {
                wins += 1;
            }
        }
        assert!(wins >= 1, "backfilling should win on some gang mix");
    }

    #[test]
    fn duration_dist_preserves_policy_ranking() {
        // The §4.1 claim under test (citing Lo et al.): duration
        // distributions rarely affect the *relative ranking* of the
        // scheduling algorithms. On this unbounded-penalty mix the stable
        // ranking is: delay-bounding policies (SRPT, cost-aware
        // FirstReward) on top, FCFS in the middle, greedy FirstPrice last
        // (it starves low-value tasks into unbounded penalties). Assert
        // the ranking holds under all five duration models.
        let fig = ablate_duration_dist(&smoke());
        for s in &fig.series {
            let fcfs = s.points[0].y.mean;
            let srpt = s.points[1].y.mean;
            let first_price = s.points[2].y.mean;
            let first_reward = s.points[3].y.mean;
            let top_pair_floor = srpt.min(first_reward);
            assert!(
                top_pair_floor >= fcfs.max(first_price),
                "{}: ranking broke — SRPT {srpt}, FR {first_reward}, \
                 FCFS {fcfs}, FP {first_price}",
                s.label
            );
            assert!(
                first_price <= fcfs,
                "{}: FirstPrice {first_price} should trail FCFS {fcfs} \
                 under unbounded penalties",
                s.label
            );
        }
    }

    #[test]
    fn burstiness_ablation_runs() {
        let fig = ablate_burstiness(&smoke());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 5);
        // Rate 0 is exactly FirstPrice: zero improvement by construction.
        for s in &fig.series {
            assert!(s.points[0].y.mean.abs() < 1e-9);
        }
    }

    #[test]
    fn preemption_ablation_runs() {
        let fig = ablate_preemption(&smoke());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 3);
    }

    #[test]
    fn admission_ablation_slack_wins_overload() {
        let fig = ablate_admission(&smoke());
        let slack = fig.series_by_label("SlackThreshold(180)").unwrap();
        let accept_all = fig.series_by_label("AcceptAll").unwrap();
        // At the heaviest load, slack-based admission should not lose to
        // AcceptAll.
        let last = slack.points.len() - 1;
        assert!(slack.points[last].y.mean >= accept_all.points[last].y.mean - 1e-6);
    }

    /// The misestimation claim: cost-aware heuristics degrade more
    /// gracefully than FirstPrice. At σ = 0.5 FirstReward(0.2) and SWPT
    /// each lose less yield than FirstPrice (smoke: −1.20 % and −0.98 %
    /// against −4.35 %; paper scale in `results_ablate.txt`: −2.03 % and
    /// −1.31 % against −8.46 %).
    #[test]
    fn cost_aware_heuristics_degrade_more_gracefully_under_misestimation() {
        let fig = ablate_misestimation(&ExpParams::smoke());
        let at_half = |label: &str| {
            let s = fig.series_by_label(label).unwrap();
            let last = s.points.last().unwrap();
            assert_eq!(last.x, 0.5);
            last.y.mean
        };
        let first_price = at_half("FirstPrice");
        assert!(first_price < 0.0, "FirstPrice {first_price} %");
        for label in ["FirstReward(0.2)", "SWPT"] {
            let loss = at_half(label);
            assert!(
                loss > first_price,
                "{label} {loss} % vs FirstPrice {first_price} %"
            );
        }
    }

    #[test]
    fn drop_expired_never_hurts_bounded_mixes() {
        let fig = ablate_drop_expired(&smoke());
        let keep = fig.series_by_label("run expired tasks").unwrap();
        let drop = fig.series_by_label("drop expired tasks").unwrap();
        for (k, d) in keep.points.iter().zip(&drop.points) {
            // Dropping zero-value work can only free capacity sooner; at
            // smoke scale allow a little noise.
            assert!(d.y.mean >= k.y.mean - k.y.mean.abs() * 0.2 - 1.0);
        }
    }
}
