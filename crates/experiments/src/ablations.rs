//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These are not paper figures; they quantify the knobs the paper leaves
//! implicit (preemption, admission heuristic family, candidate-schedule
//! fidelity, runtime misestimation, expired-task shedding).

use crate::figures::{improvement_pct, run_site, sized};
use crate::harness::{parallel_map, ExpParams};
use crate::report::{FigureResult, Point, Series};
use mbts_core::{AdmissionPolicy, Policy, ScheduleMode};
use mbts_sim::OnlineStats;
use mbts_site::SiteConfig;
use mbts_workload::{fig3_mix, fig45_mix, fig67_mix, MixConfig};

fn aggregate(values: &[f64]) -> mbts_sim::Summary {
    values.iter().copied().collect::<OnlineStats>().summary()
}

/// Preemption on/off for the gain-based heuristics on the Figure-3 mix.
pub fn ablate_preemption(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let mix = sized(fig3_mix(4.0), params);
    let policies = [Policy::FirstPrice, Policy::pv(0.01), Policy::Srpt];
    let mut series = Vec::new();
    for (on, label) in [(false, "preemption off"), (true, "preemption on")] {
        let work: Vec<(usize, u64)> = policies
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| seeds.iter().map(move |&s| (pi, s)))
            .collect();
        let yields: Vec<f64> = parallel_map(&work, |&(pi, seed)| {
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(policies[pi])
                    .with_preemption(on),
            )
            .metrics
            .total_yield
        });
        let points = policies
            .iter()
            .enumerate()
            .map(|(pi, _)| Point {
                x: pi as f64,
                y: aggregate(&yields[pi * seeds.len()..(pi + 1) * seeds.len()]),
            })
            .collect();
        series.push(Series::new(label, points));
    }
    FigureResult {
        id: "ablate-preemption".into(),
        title: "Preemption ablation (x: 0=FirstPrice, 1=PV, 2=SRPT)".into(),
        x_label: "policy index".into(),
        y_label: "total yield".into(),
        series,
    }
}

/// Admission heuristic families across load (AcceptAll vs positive-yield
/// vs slack threshold), FirstReward scheduler.
pub fn ablate_admission(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let loads = [0.5, 1.0, 2.0, 3.0];
    let policies: Vec<(String, AdmissionPolicy)> = vec![
        ("AcceptAll".into(), AdmissionPolicy::AcceptAll),
        (
            "PositiveExpectedYield".into(),
            AdmissionPolicy::PositiveExpectedYield,
        ),
        (
            "SlackThreshold(180)".into(),
            AdmissionPolicy::SlackThreshold { threshold: 180.0 },
        ),
    ];
    let mut series = Vec::new();
    for (label, admission) in &policies {
        let work: Vec<(usize, u64)> = loads
            .iter()
            .enumerate()
            .flat_map(|(li, _)| seeds.iter().map(move |&s| (li, s)))
            .collect();
        let rates: Vec<f64> = parallel_map(&work, |&(li, seed)| {
            let mix = sized(fig67_mix(loads[li]), params);
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(Policy::first_reward(0.2, 0.01))
                    .with_admission(*admission),
            )
            .metrics
            .yield_rate()
        });
        let points = loads
            .iter()
            .enumerate()
            .map(|(li, &load)| Point {
                x: load,
                y: aggregate(&rates[li * seeds.len()..(li + 1) * seeds.len()]),
            })
            .collect();
        series.push(Series::new(label.clone(), points));
    }
    FigureResult {
        id: "ablate-admission".into(),
        title: "Admission heuristic families across load".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series,
    }
}

/// Static vs dynamic candidate schedules on the admission path.
pub fn ablate_schedule_mode(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let loads = [1.0, 2.0, 3.0];
    let mut series = Vec::new();
    for (mode, label) in [
        (ScheduleMode::Static, "static candidate schedule"),
        (ScheduleMode::Dynamic, "dynamic candidate schedule"),
    ] {
        let work: Vec<(usize, u64)> = loads
            .iter()
            .enumerate()
            .flat_map(|(li, _)| seeds.iter().map(move |&s| (li, s)))
            .collect();
        let rates: Vec<f64> = parallel_map(&work, |&(li, seed)| {
            let mix = sized(fig67_mix(loads[li]), params);
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(Policy::first_reward(0.2, 0.01))
                    .with_admission(AdmissionPolicy::SlackThreshold { threshold: 180.0 })
                    .with_schedule_mode(mode),
            )
            .metrics
            .yield_rate()
        });
        let points = loads
            .iter()
            .enumerate()
            .map(|(li, &load)| Point {
                x: load,
                y: aggregate(&rates[li * seeds.len()..(li + 1) * seeds.len()]),
            })
            .collect();
        series.push(Series::new(label, points));
    }
    FigureResult {
        id: "ablate-schedule-mode".into(),
        title: "Candidate-schedule fidelity on the admission path".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series,
    }
}

/// Robustness to runtime misestimation (the paper assumes accurate
/// estimates; §4 flags exceedance handling as future work).
pub fn ablate_misestimation(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let errors = [0.0, 0.1, 0.25, 0.5];
    let policies = [
        ("FirstPrice", Policy::FirstPrice),
        ("FirstReward(0.2)", Policy::first_reward(0.2, 0.01)),
        ("SWPT", Policy::Swpt),
    ];
    // One flat (policy × error × seed) grid: the per-policy loops would
    // otherwise serialize, leaving threads idle between policies.
    let mut work = Vec::with_capacity(policies.len() * errors.len() * seeds.len());
    for pi in 0..policies.len() {
        for ei in 0..errors.len() {
            for &seed in &seeds {
                work.push((pi, ei, seed));
            }
        }
    }
    let rel: Vec<f64> = parallel_map(&work, |&(pi, ei, seed)| {
        let accurate = sized(fig45_mix(5.0, false), params);
        let noisy = accurate.clone().with_runtime_error(errors[ei]);
        let cfg = SiteConfig::new(params.processors).with_policy(policies[pi].1);
        let base = run_site(&accurate, seed, cfg.clone()).metrics.total_yield;
        let pert = run_site(&noisy, seed, cfg).metrics.total_yield;
        improvement_pct(pert, base)
    });
    let per_policy = errors.len() * seeds.len();
    let series = policies
        .iter()
        .enumerate()
        .map(|(pi, (label, _))| {
            let chunk = &rel[pi * per_policy..(pi + 1) * per_policy];
            let points = errors
                .iter()
                .enumerate()
                .map(|(ei, &e)| Point {
                    x: e,
                    y: aggregate(&chunk[ei * seeds.len()..(ei + 1) * seeds.len()]),
                })
                .collect();
            Series::new(*label, points)
        })
        .collect();
    FigureResult {
        id: "ablate-misestimation".into(),
        title: "Yield change under runtime misestimation".into(),
        x_label: "relative runtime error (sigma)".into(),
        y_label: "yield change vs accurate estimates (%)".into(),
        series,
    }
}

/// Shedding expired tasks vs running them out, bounded-penalty mix.
pub fn ablate_drop_expired(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let loads = [1.0, 2.0, 3.0];
    let mut series = Vec::new();
    for (drop, label) in [(false, "run expired tasks"), (true, "drop expired tasks")] {
        let work: Vec<(usize, u64)> = loads
            .iter()
            .enumerate()
            .flat_map(|(li, _)| seeds.iter().map(move |&s| (li, s)))
            .collect();
        let rates: Vec<f64> = parallel_map(&work, |&(li, seed)| {
            let mix: MixConfig = sized(fig45_mix(5.0, true), params).with_load_factor(loads[li]);
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(Policy::FirstPrice)
                    .with_drop_expired(drop),
            )
            .metrics
            .yield_rate()
        });
        let points = loads
            .iter()
            .enumerate()
            .map(|(li, &load)| Point {
                x: load,
                y: aggregate(&rates[li * seeds.len()..(li + 1) * seeds.len()]),
            })
            .collect();
        series.push(Series::new(label, points));
    }
    FigureResult {
        id: "ablate-drop-expired".into(),
        title: "Shedding expired bounded-penalty tasks".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series,
    }
}

/// Discount-rate sensitivity under stationary (Poisson) vs bursty
/// (batch) arrivals — DESIGN.md ablation 5. PV's risk aversion targets
/// uncertainty in the future job mix, so its sensitivity to the discount
/// rate should differ between smooth and bursty streams.
pub fn ablate_burstiness(params: &ExpParams) -> FigureResult {
    use mbts_workload::ArrivalProcess;
    let seeds = params.seed_list();
    let rates = [0.0, 1e-4, 1e-3, 1e-2, 1e-1];
    let mut series = Vec::new();
    for (label, arrival) in [
        ("stationary (Poisson)", ArrivalProcess::Exponential),
        (
            "bursty (batches of 16)",
            ArrivalProcess::NormalBatch {
                batch_size: 16,
                cv: 0.5,
            },
        ),
    ] {
        let mix = sized(fig3_mix(4.0), params).with_arrival(arrival);
        let baselines: Vec<f64> = parallel_map(&seeds, |&seed| {
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(Policy::FirstPrice)
                    .with_preemption(true),
            )
            .metrics
            .total_yield
        });
        let work: Vec<(usize, u64)> = rates
            .iter()
            .enumerate()
            .flat_map(|(ri, _)| seeds.iter().map(move |&s| (ri, s)))
            .collect();
        let yields: Vec<f64> = parallel_map(&work, |&(ri, seed)| {
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(Policy::pv(rates[ri]))
                    .with_preemption(true),
            )
            .metrics
            .total_yield
        });
        let points = rates
            .iter()
            .enumerate()
            .map(|(ri, &rate)| {
                let imp: Vec<f64> = (0..seeds.len())
                    .map(|si| improvement_pct(yields[ri * seeds.len() + si], baselines[si]))
                    .collect();
                Point {
                    x: rate * 100.0,
                    y: aggregate(&imp),
                }
            })
            .collect();
        series.push(Series::new(label, points));
    }
    FigureResult {
        id: "ablate-burstiness".into(),
        title: "PV discount-rate sensitivity: stationary vs bursty arrivals".into(),
        x_label: "discount rate (%)".into(),
        y_label: "improvement over FirstPrice (%)".into(),
        series,
    }
}

/// Tests the claim the paper's methodology leans on (§4.1, citing Lo et
/// al.): job-duration distributions "rarely affect the relative ranking
/// of scheduling algorithms". Runs the policy ladder under exponential,
/// normal, lognormal, Weibull, and hyperexponential durations at equal
/// mean and load and reports yield per policy per distribution.
pub fn ablate_duration_dist(params: &ExpParams) -> FigureResult {
    use mbts_sim::Dist;
    let seeds = params.seed_list();
    let policies = [
        ("FCFS", Policy::Fcfs),
        ("SRPT", Policy::Srpt),
        ("FirstPrice", Policy::FirstPrice),
        ("FirstReward(0.2)", Policy::first_reward(0.2, 0.01)),
    ];
    let dists: Vec<(&str, Dist)> = vec![
        ("exponential", Dist::exponential(100.0)),
        ("normal(cv=0.2)", Dist::normal_min(100.0, 20.0, 1.0)),
        ("lognormal(σ=1)", Dist::lognormal(100.0, 1.0)),
        ("weibull(k=0.7)", Dist::weibull(100.0, 0.7)),
        ("hyperexp(scv=4)", Dist::hyperexp(100.0, 4.0)),
    ];
    let mut series = Vec::new();
    for (dlabel, dist) in &dists {
        let mix = sized(fig67_mix(1.5), params).with_runtime(dist.clone());
        let work: Vec<(usize, u64)> = policies
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| seeds.iter().map(move |&s| (pi, s)))
            .collect();
        let yields: Vec<f64> = parallel_map(&work, |&(pi, seed)| {
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors).with_policy(policies[pi].1),
            )
            .metrics
            .total_yield
        });
        let points = policies
            .iter()
            .enumerate()
            .map(|(pi, _)| Point {
                x: pi as f64,
                y: aggregate(&yields[pi * seeds.len()..(pi + 1) * seeds.len()]),
            })
            .collect();
        series.push(Series::new(*dlabel, points));
    }
    FigureResult {
        id: "ablate-duration-dist".into(),
        title: "Policy ranking across duration distributions                 (x: 0=FCFS, 1=SRPT, 2=FirstPrice, 3=FirstReward)"
            .into(),
        x_label: "policy index".into(),
        y_label: "total yield".into(),
        series,
    }
}

/// Gang widths and EASY backfilling: yield rate across width policies
/// with backfilling on vs off (an extension study; the paper assumes
/// width-1 tasks and cites gang scheduling with backfilling as the
/// deployed norm).
pub fn ablate_widths(params: &ExpParams) -> FigureResult {
    use mbts_workload::WidthPolicy;
    let seeds = params.seed_list();
    let widths: Vec<(f64, WidthPolicy)> = vec![
        (1.0, WidthPolicy::One),
        (2.0, WidthPolicy::Uniform { lo: 1, hi: 4 }),
        (3.0, WidthPolicy::PowersOfTwo { max_exp: 2 }),
        (4.0, WidthPolicy::PowersOfTwo { max_exp: 3 }),
    ];
    let mut series = Vec::new();
    for (backfill, label) in [(true, "EASY backfilling"), (false, "strict score order")] {
        let work: Vec<(usize, u64)> = widths
            .iter()
            .enumerate()
            .flat_map(|(wi, _)| seeds.iter().map(move |&s| (wi, s)))
            .collect();
        let rates: Vec<f64> = parallel_map(&work, |&(wi, seed)| {
            let mix = sized(fig67_mix(1.5), params).with_width(widths[wi].1);
            run_site(
                &mix,
                seed,
                SiteConfig::new(params.processors)
                    .with_policy(Policy::first_reward(0.2, 0.01))
                    .with_backfilling(backfill),
            )
            .metrics
            .yield_rate()
        });
        let points = widths
            .iter()
            .enumerate()
            .map(|(wi, (x, _))| Point {
                x: *x,
                y: aggregate(&rates[wi * seeds.len()..(wi + 1) * seeds.len()]),
            })
            .collect();
        series.push(Series::new(label, points));
    }
    FigureResult {
        id: "ablate-widths".into(),
        title: "Gang widths × backfilling (x: 1=width-1, 2=uniform 1-4,                 3=pow2≤4, 4=pow2≤8)"
            .into(),
        x_label: "width policy index".into(),
        y_label: "average yield rate".into(),
        series,
    }
}

/// Deadline scheduling vs value-based scheduling (§3's argument):
/// EDF over expiration times treats every deadline as equally binding
/// and gives no guidance once the schedule is infeasible; value-based
/// policies degrade gracefully by sacrificing the least valuable work.
/// Sweeps load on a bounded-penalty mix.
pub fn ablate_deadline_vs_value(params: &ExpParams) -> FigureResult {
    let seeds = params.seed_list();
    let loads = [0.5, 1.0, 1.5, 2.0, 3.0];
    let policies = [
        ("EDF", Policy::EarliestDeadline),
        ("FirstPrice", Policy::FirstPrice),
        ("FirstReward(0.3)", Policy::first_reward(0.3, 0.01)),
    ];
    // Flat (policy × load × seed) grid — see ablate_misestimation.
    let mut work = Vec::with_capacity(policies.len() * loads.len() * seeds.len());
    for pi in 0..policies.len() {
        for li in 0..loads.len() {
            for &seed in &seeds {
                work.push((pi, li, seed));
            }
        }
    }
    let rates: Vec<f64> = parallel_map(&work, |&(pi, li, seed)| {
        // Tight deadlines (fast decay: the mean task expires after
        // ~2 mean runtimes of delay) — the regime where infeasible
        // schedules appear and §3's argument bites.
        let mix = sized(fig45_mix(5.0, true), params)
            .with_mean_decay(0.5)
            .with_load_factor(loads[li]);
        run_site(
            &mix,
            seed,
            SiteConfig::new(params.processors).with_policy(policies[pi].1),
        )
        .metrics
        .yield_rate()
    });
    let per_policy = loads.len() * seeds.len();
    let series = policies
        .iter()
        .enumerate()
        .map(|(pi, (label, _))| {
            let chunk = &rates[pi * per_policy..(pi + 1) * per_policy];
            let points = loads
                .iter()
                .enumerate()
                .map(|(li, &load)| Point {
                    x: load,
                    y: aggregate(&chunk[li * seeds.len()..(li + 1) * seeds.len()]),
                })
                .collect();
            Series::new(*label, points)
        })
        .collect();
    FigureResult {
        id: "ablate-deadline-vs-value".into(),
        title: "Deadline (EDF) vs value-based scheduling across load".into(),
        x_label: "load factor".into(),
        y_label: "average yield rate".into(),
        series,
    }
}

/// Runs every ablation.
pub fn all(params: &ExpParams) -> Vec<FigureResult> {
    vec![
        ablate_preemption(params),
        ablate_admission(params),
        ablate_schedule_mode(params),
        ablate_misestimation(params),
        ablate_drop_expired(params),
        ablate_burstiness(params),
        ablate_duration_dist(params),
        ablate_widths(params),
        ablate_deadline_vs_value(params),
    ]
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
                "{}: ranking broke — SRPT {srpt}, FR {first_reward},                  FCFS {fcfs}, FP {first_price}",
                s.label
            );
            assert!(
                first_price <= fcfs,
                "{}: FirstPrice {first_price} should trail FCFS {fcfs}                  under unbounded penalties",
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
