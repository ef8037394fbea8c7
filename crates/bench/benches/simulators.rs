//! Criterion benchmarks of the two simulation engines, including the
//! `roundsim_vs_des` ablation from DESIGN.md: the round-synchronous
//! engine must be orders of magnitude faster than the flow-level DES to
//! make exhaustive dataset generation viable.

use acclaim_collectives::Algorithm;
use acclaim_netsim::{Allocation, Cluster, FlowSim, RoundSim};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn cluster(nodes: u32) -> Cluster {
    let base = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&base.topology, nodes);
    base.with_allocation(alloc)
}

fn roundsim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundsim");
    let cases = [
        ("bcast_binomial_64x16_1MB", Algorithm::BcastBinomial, 64u32, 16u32, 1u64 << 20),
        ("allgather_ring_64x4_64KB", Algorithm::AllgatherRing, 64, 4, 65_536),
        ("allgather_ring_64x32_1MB", Algorithm::AllgatherRing, 64, 32, 1 << 20),
        (
            "allreduce_rsag_32x8_256KB",
            Algorithm::AllreduceReduceScatterAllgather,
            32,
            8,
            262_144,
        ),
    ];
    for (name, alg, nodes, ppn, bytes) in cases {
        let cl = cluster(nodes);
        let sched = alg.schedule(nodes * ppn, bytes);
        let mut sim = RoundSim::new();
        group.bench_function(name, |b| {
            b.iter(|| black_box(sim.simulate(&cl, ppn, sched.as_ref())))
        });
    }
    group.finish();
}

fn roundsim_vs_des(c: &mut Criterion) {
    // Ablation: identical workload through both engines.
    let mut group = c.benchmark_group("roundsim_vs_des");
    let cl = cluster(8);
    let sched = Algorithm::BcastScatterRingAllgather
        .schedule(16, 65_536)
        .materialize();
    group.bench_with_input(BenchmarkId::new("roundsim", "bcast_sra_8x2"), &sched, |b, s| {
        let mut sim = RoundSim::new();
        b.iter(|| black_box(sim.simulate(&cl, 2, s)))
    });
    group.bench_with_input(BenchmarkId::new("des", "bcast_sra_8x2"), &sched, |b, s| {
        let mut sim = FlowSim::new();
        b.iter(|| black_box(sim.simulate(&cl, 2, s)))
    });
    group.finish();
}

criterion_group!(benches, roundsim_throughput, roundsim_vs_des);
criterion_main!(benches);
