//! Criterion benchmarks of collective-schedule generation: the per-round
//! streaming generators must stay allocation-light so dataset generation
//! is simulator-bound, not schedule-bound.

use acclaim_collectives::Algorithm;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn schedule_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_generation");
    let cases = [
        ("bcast_binomial_2048", Algorithm::BcastBinomial, 2048u32),
        (
            "bcast_scatter_rd_2048",
            Algorithm::BcastScatterRecursiveDoublingAllgather,
            2048,
        ),
        ("allgather_ring_512", Algorithm::AllgatherRing, 512),
        ("allgather_brucks_2048", Algorithm::AllgatherBrucks, 2048),
        (
            "allreduce_rsag_2048",
            Algorithm::AllreduceReduceScatterAllgather,
            2048,
        ),
        (
            "reduce_scatter_gather_2048",
            Algorithm::ReduceScatterGather,
            2048,
        ),
    ];
    for (name, alg, ranks) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ranks, |b, &ranks| {
            let sched = alg.schedule(ranks, 1 << 20);
            b.iter(|| {
                // Walk every round, counting messages (the simulator's
                // access pattern without pricing).
                let mut msgs = 0u64;
                sched.visit_rounds(&mut |round| msgs += round.len() as u64);
                black_box(msgs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, schedule_generation);
criterion_main!(benches);
