//! Criterion benchmarks of the autotuner's per-iteration costs,
//! including the `jackknife_vs_random` and
//! `parallel_vs_sequential_collection` ablations from DESIGN.md.

use acclaim_collectives::Collective;
use acclaim_core::collector::schedule_wave;
use acclaim_core::{
    all_candidates, generate_rules, rank_by_variance, ActiveLearner, LearnerConfig, PerfModel,
    SelectionPolicy, TrainingSample,
};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};
use acclaim_ml::ForestConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn fixture() -> (BenchmarkDatabase, FeatureSpace, PerfModel) {
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    let space = FeatureSpace::tiny();
    let collective = Collective::Bcast;
    let samples: Vec<TrainingSample> = space
        .points()
        .into_iter()
        .flat_map(|p| collective.algorithms().iter().map(move |&a| (p, a)))
        .map(|(p, a)| TrainingSample {
            point: p,
            algorithm: a,
            time_us: db.time(a, p),
        })
        .collect();
    let model = PerfModel::fit(collective, &samples, &ForestConfig::for_n_features(5));
    (db, space, model)
}

fn variance_ranking(c: &mut Criterion) {
    let (_, _, model) = fixture();
    // A production-sized candidate pool.
    let space = FeatureSpace::p2_simulation();
    let candidates = all_candidates(Collective::Bcast, &space);
    c.bench_function("rank_by_variance_1944_candidates", |b| {
        b.iter(|| black_box(rank_by_variance(&model, black_box(&candidates))))
    });
}

fn wave_scheduling(c: &mut Criterion) {
    let (_, _, model) = fixture();
    let _ = model;
    let space = FeatureSpace::p2_simulation();
    let candidates = all_candidates(Collective::Bcast, &space);
    let cluster = acclaim_netsim::Cluster::bebop_like();
    c.bench_function("schedule_wave_1944_candidates", |b| {
        b.iter(|| {
            black_box(schedule_wave(
                &cluster.topology,
                &cluster.allocation,
                black_box(&candidates),
            ))
        })
    });
}

fn rule_generation(c: &mut Criterion) {
    let (_, space, model) = fixture();
    c.bench_function("generate_rules_tiny_grid", |b| {
        b.iter(|| black_box(generate_rules(&model, black_box(&space))))
    });
}

/// Ablation: wall-clock of a full (small) training run under each
/// selection policy and collection strategy.
fn policy_ablation(c: &mut Criterion) {
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    let space = FeatureSpace::tiny();
    let mut group = c.benchmark_group("train_30_points");
    group.sample_size(10);
    let configs: Vec<(&str, LearnerConfig)> = vec![
        (
            "jackknife_sequential",
            LearnerConfig::acclaim_sequential().with_budget(30),
        ),
        (
            "jackknife_parallel",
            LearnerConfig::acclaim().with_budget(30),
        ),
        (
            "random_sequential",
            LearnerConfig {
                policy: SelectionPolicy::Random,
                ..LearnerConfig::acclaim_sequential().with_budget(30)
            },
        ),
    ];
    for (name, cfg) in configs {
        let cfg = LearnerConfig {
            forest: ForestConfig {
                n_trees: 16,
                ..ForestConfig::for_n_features(5)
            },
            ..cfg
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(ActiveLearner::new(cfg.clone()).train(
                    &db,
                    Collective::Reduce,
                    &space,
                    None,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    variance_ranking,
    wave_scheduling,
    rule_generation,
    policy_ablation
);
criterion_main!(benches);
