//! Ablation: a cold variance scan.
//!
//! A cold scan (`VarianceScanCache::new`, one full `refresh`,
//! `ranking`) descends each tree once and writes every leaf's value
//! over the candidate-lattice cells its box covers, then computes the
//! jackknife column-wise. Shape matches the BENCH_pr6.json
//! trajectory: n≈800 samples, 64 trees, 1944 candidates.

use acclaim_bench::simulation_env;
use acclaim_collectives::Collective;
use acclaim_core::{all_candidates, PerfModel, TrainingSample, VarianceScanCache};
use acclaim_ml::{ForestConfig, TreeUpdate};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Samples for the first `n` candidates of the space, in the same
/// interleaved order as `jackknife_incremental_vs_scratch`.
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

fn painted_scan(c: &mut Criterion) {
    let (_, space) = simulation_env();
    let candidates = all_candidates(Collective::Bcast, &space);
    let samples = collect_samples(800);
    let config = ForestConfig::default();
    let model = PerfModel::fit(Collective::Bcast, &samples, &config);

    let mut group = c.benchmark_group("variance_scan");
    group.sample_size(10);
    group.bench_function("painted", |b| {
        b.iter(|| {
            let mut cache = VarianceScanCache::new(candidates.clone());
            cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
            black_box(cache.ranking())
        })
    });
    group.finish();
}

criterion_group!(benches, painted_scan);
criterion_main!(benches);
