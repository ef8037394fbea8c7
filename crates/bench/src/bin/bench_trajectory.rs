//! `bench_trajectory` — the PR's machine-readable perf trajectory.
//!
//! Times the workloads recent PRs optimized and emits `BENCH_pr10.json`
//! at the repository root (override with `--out PATH`):
//!
//! * the candidate variance scan, pointer-chasing vs flat SoA engine,
//!   at the ablation shape (n≈800 samples, 64 trees, 1944 candidates);
//! * the flow-level DES on a collective trace, binary-heap vs calendar
//!   event queue;
//! * one end-to-end tune on the tiny grid (wall time, flat engine),
//!   paired telemetry-off vs telemetry-on — the `telemetry_overhead`
//!   ratio is the cost of the observability contract and should stay
//!   near 1.0;
//! * one warm rule query through the `acclaim-serve` service (cache
//!   hit against a pre-warmed serving model — the daemon's steady-state
//!   lookup path, expected well under a millisecond);
//! * the analytic-priors cold-start comparison (`acclaim-analytic`):
//!   iterations-to-convergence and simulated benchmark cost of a cold
//!   tune with and without Hockney/LogGP priors, medians over seeds
//!   0–4 — deterministic simulator quantities, not host timings, so
//!   they reproduce exactly on any machine.
//!
//! `--compare BASELINE.json` re-reads a committed trajectory and prints
//! soft warnings for medians that regressed beyond a 25% band — it
//! never fails the process, so CI surfaces drift without flaking on
//! noisy runners.
//!
//! Timing is a hand-rolled warmup + median loop (the vendored criterion
//! subset has no machine-readable export): medians over a small odd
//! sample count are robust to scheduler noise, and every workload is
//! deterministic so spread comes only from the host.

use acclaim_bench::simulation_env;
use acclaim_collectives::{Algorithm, Collective};
use acclaim_core::{
    all_candidates, rank_by_variance, rank_by_variance_flat, Acclaim, AcclaimConfig,
    CriterionConfig, PerfModel, TrainingSample, VarianceConvergence,
};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};
use acclaim_ml::ForestConfig;
use acclaim_netsim::{Allocation, Cluster, FlowSim, QueueEngine};
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Schema version of the emitted file; bump on layout changes.
/// v2 added the `analytic` block (PR 10).
const BENCH_SCHEMA_VERSION: u32 = 2;

#[derive(Serialize)]
struct Shape {
    n_samples: usize,
    n_trees: usize,
    candidates: usize,
}

#[derive(Serialize)]
struct MediansUs {
    variance_scan_pointer: f64,
    variance_scan_flat: f64,
    des_binary_heap: f64,
    des_calendar: f64,
    tune_e2e: f64,
    tune_e2e_obs: f64,
    serve_query_warm: f64,
}

#[derive(Serialize)]
struct Speedups {
    variance_scan: f64,
    des: f64,
    /// Telemetry-on over telemetry-off e2e tune wall time (≈1.0 when
    /// the instrumentation keeps its behaviorally-inert promise cheap).
    telemetry_overhead: f64,
}

/// Cold-start cost with vs without analytical priors: medians over
/// seeds 0–4 of one bcast tune on the tiny grid. All four numbers are
/// simulated (deterministic) quantities.
#[derive(Serialize)]
struct AnalyticPriors {
    cold_iterations: f64,
    priors_iterations: f64,
    cold_bench_cost_us: f64,
    priors_bench_cost_us: f64,
    /// cold / priors — >1.0 means priors converge in fewer iterations.
    iterations_speedup: f64,
    /// cold / priors — >1.0 means priors collect cheaper.
    bench_cost_speedup: f64,
}

#[derive(Serialize)]
struct Trajectory {
    pr: u32,
    schema_version: u32,
    shape: Shape,
    medians_us: MediansUs,
    speedups: Speedups,
    analytic: AnalyticPriors,
}

/// Median wall time of `f` in µs after `warmup` discarded runs.
fn median_us(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Paired medians of two workloads, alternating `a` and `b` within
/// each rep so slow drift in host load (thermal, neighbors) hits both
/// sides equally instead of skewing their ratio.
fn paired_median_us(
    warmup: usize,
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    for _ in 0..warmup {
        a();
        b();
    }
    let (mut ta, mut tb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let start = Instant::now();
        a();
        ta.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        b();
        tb.push(start.elapsed().as_secs_f64() * 1e6);
    }
    ta.sort_by(f64::total_cmp);
    tb.sort_by(f64::total_cmp);
    (ta[reps / 2], tb[reps / 2])
}

/// Samples for the first `n` candidates of the space, interleaved the
/// same way as the `jackknife_incremental_vs_scratch` ablation.
fn collect_samples(n: usize) -> Vec<TrainingSample> {
    let (db, space) = simulation_env();
    let mut cands = all_candidates(Collective::Bcast, &space);
    cands.sort_by_key(|c| {
        (
            c.point.msg_bytes % 7,
            c.point.nodes,
            c.algorithm.index_within_collective(),
            c.point.msg_bytes,
        )
    });
    cands
        .into_iter()
        .take(n)
        .map(|c| TrainingSample {
            point: c.point,
            algorithm: c.algorithm,
            time_us: db.time(c.algorithm, c.point),
        })
        .collect()
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut compare: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().map(PathBuf::from),
            "--compare" => compare = args.next().map(PathBuf::from),
            other => {
                eprintln!("usage: bench_trajectory [--out PATH] [--compare BASELINE]");
                panic!("unknown argument {other}");
            }
        }
    }
    let out = out
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr10.json"));

    // -- Variance scan, pointer vs flat, at the ablation shape. --------
    const N_SAMPLES: usize = 800;
    let (_, space) = simulation_env();
    let candidates = all_candidates(Collective::Bcast, &space);
    let config = ForestConfig::default();
    let samples = collect_samples(N_SAMPLES);
    let model = PerfModel::fit(Collective::Bcast, &samples, &config);
    eprintln!(
        "shape: {} samples, {} trees, {} candidates",
        N_SAMPLES,
        config.n_trees,
        candidates.len()
    );

    let (pointer, flat) = paired_median_us(
        2,
        15,
        || {
            black_box(rank_by_variance(&model, &candidates));
        },
        || {
            black_box(rank_by_variance_flat(&model, &candidates));
        },
    );
    eprintln!("variance_scan_pointer: {pointer:.1} µs");
    eprintln!("variance_scan_flat:    {flat:.1} µs");

    // -- DES event queue, binary heap vs calendar. ---------------------
    let base = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&base.topology, 8);
    let cl = base.with_allocation(alloc);
    let sched = Algorithm::BcastScatterRingAllgather
        .schedule(16, 65_536)
        .materialize();
    let mut heap_sim = FlowSim::new().with_queue(QueueEngine::BinaryHeap);
    let mut cal_sim = FlowSim::new().with_queue(QueueEngine::Calendar);
    let (des_heap, des_cal) = paired_median_us(
        3,
        15,
        || {
            black_box(heap_sim.simulate(&cl, 2, &sched));
        },
        || {
            black_box(cal_sim.simulate(&cl, 2, &sched));
        },
    );
    eprintln!("des_binary_heap: {des_heap:.1} µs");
    eprintln!("des_calendar:    {des_cal:.1} µs");

    // -- End-to-end tune on the tiny grid (flat engine), telemetry
    // off vs fully instrumented. Both sides keep their memoized
    // database across reps so the pairing isolates the recorder cost;
    // the shared recorder's span log grows across the handful of reps,
    // which is negligible next to a tune. -------------------------------
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    let obs = acclaim_obs::Obs::enabled();
    let db_obs = BenchmarkDatabase::new(DatasetConfig::tiny()).with_obs(&obs);
    let mut tune_cfg = AcclaimConfig::new(FeatureSpace::tiny());
    tune_cfg.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    let (tune, tune_obs) = paired_median_us(
        1,
        3,
        || {
            black_box(Acclaim::new(tune_cfg.clone()).tune(&db, &[Collective::Bcast]));
        },
        || {
            black_box(Acclaim::new(tune_cfg.clone()).tune_with_obs(
                &db_obs,
                &[Collective::Bcast],
                &obs,
            ));
        },
    );
    eprintln!("tune_e2e:     {tune:.1} µs");
    eprintln!("tune_e2e_obs: {tune_obs:.1} µs");

    // -- Warm rule query through the serving layer. --------------------
    let serve_query = {
        use acclaim_serve::{JobStatus, QueryRequest, ServeConfig, TuneService};
        let dir = std::env::temp_dir().join("acclaim-bench-serve-latency");
        std::fs::remove_dir_all(&dir).ok();
        let service = TuneService::open(&dir, ServeConfig::default(), acclaim_obs::Obs::disabled())
            .expect("open serve store");
        let request = acclaim_serve::loadgen::request_pool(1, 7)[0].clone();
        let JobStatus::Done(_) = service.submit(request.clone()).wait() else {
            panic!("serve warmup tune failed");
        };
        let query = QueryRequest {
            dataset: request.dataset.clone(),
            config: request.config.clone(),
            collective: request.collectives[0],
            point: acclaim_dataset::Point::new(4, 2, 1024),
        };
        let median = median_us(200, 1001, || {
            black_box(service.query(&query));
        });
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
        median
    };
    eprintln!("serve_query_warm: {serve_query:.1} µs");

    // -- Analytic-priors cold-start comparison (deterministic). --------
    let median_f64 = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut cold_iters, mut warm_iters) = (Vec::new(), Vec::new());
    let (mut cold_cost, mut warm_cost) = (Vec::new(), Vec::new());
    for seed in 0..5u64 {
        let mut cfg = tune_cfg.clone();
        cfg.learner.seed = seed;
        let cold = Acclaim::new(cfg.clone()).tune(&db, &[Collective::Bcast]);
        cfg.learner.analytic_priors.enabled = true;
        let warm = acclaim_analytic::tune_with_analytic(
            &cfg,
            &db,
            &[Collective::Bcast],
            &acclaim_obs::Obs::disabled(),
        );
        let (cold, warm) = (&cold.reports[0].1, &warm.reports[0].1);
        cold_iters.push(cold.log.len() as f64);
        warm_iters.push(warm.log.len() as f64);
        cold_cost.push(cold.stats.wall_us);
        warm_cost.push(warm.stats.wall_us);
    }
    let analytic = AnalyticPriors {
        cold_iterations: median_f64(cold_iters),
        priors_iterations: median_f64(warm_iters),
        cold_bench_cost_us: median_f64(cold_cost),
        priors_bench_cost_us: median_f64(warm_cost),
        iterations_speedup: 0.0,
        bench_cost_speedup: 0.0,
    };
    let analytic = AnalyticPriors {
        iterations_speedup: analytic.cold_iterations / analytic.priors_iterations,
        bench_cost_speedup: analytic.cold_bench_cost_us / analytic.priors_bench_cost_us,
        ..analytic
    };
    eprintln!(
        "analytic_priors: {} -> {} iterations, {:.0} -> {:.0} µs bench cost",
        analytic.cold_iterations,
        analytic.priors_iterations,
        analytic.cold_bench_cost_us,
        analytic.priors_bench_cost_us
    );

    let trajectory = Trajectory {
        pr: 10,
        schema_version: BENCH_SCHEMA_VERSION,
        shape: Shape {
            n_samples: N_SAMPLES,
            n_trees: config.n_trees,
            candidates: candidates.len(),
        },
        medians_us: MediansUs {
            variance_scan_pointer: pointer,
            variance_scan_flat: flat,
            des_binary_heap: des_heap,
            des_calendar: des_cal,
            tune_e2e: tune,
            tune_e2e_obs: tune_obs,
            serve_query_warm: serve_query,
        },
        speedups: Speedups {
            variance_scan: pointer / flat,
            des: des_heap / des_cal,
            telemetry_overhead: tune_obs / tune,
        },
        analytic,
    };
    let text = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(&out, format!("{text}\n")).expect("write trajectory");
    println!("{text}");
    eprintln!("[saved {}]", out.display());

    // -- Soft regression check against a committed baseline. -----------
    if let Some(baseline) = compare {
        compare_against(&baseline, &trajectory);
    }
}

/// Print soft warnings for medians that regressed >25% vs `baseline`.
/// Never exits nonzero: bench runners are noisy, and the trajectory is
/// a trend signal, not a gate.
fn compare_against(baseline: &PathBuf, current: &Trajectory) {
    let text = match std::fs::read_to_string(baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("warning: cannot read baseline {}: {e}", baseline.display());
            return;
        }
    };
    let old: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("warning: cannot parse baseline {}: {e}", baseline.display());
            return;
        }
    };
    let pairs = [
        (
            "variance_scan_pointer",
            current.medians_us.variance_scan_pointer,
        ),
        ("variance_scan_flat", current.medians_us.variance_scan_flat),
        ("des_binary_heap", current.medians_us.des_binary_heap),
        ("des_calendar", current.medians_us.des_calendar),
        ("tune_e2e", current.medians_us.tune_e2e),
        ("tune_e2e_obs", current.medians_us.tune_e2e_obs),
        ("serve_query_warm", current.medians_us.serve_query_warm),
    ];
    let mut regressed = 0;
    for (name, now) in pairs {
        let Some(was) = old
            .get("medians_us")
            .and_then(|m| m.get(name))
            .and_then(|v| v.as_f64())
        else {
            eprintln!("warning: baseline is missing medians_us.{name}");
            continue;
        };
        if now > was * 1.25 {
            regressed += 1;
            eprintln!(
                "warning: {name} regressed {:.0}% ({was:.1} -> {now:.1} µs)",
                (now / was - 1.0) * 100.0
            );
        }
    }
    if regressed == 0 {
        eprintln!("baseline comparison: no median regressed beyond the 25% band");
    }
}
