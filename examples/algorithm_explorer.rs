//! The Sec. II-B story, reproduced: why collective algorithm selection
//! is hard. Sweeps `MPI_Reduce`'s two algorithms across message sizes
//! and job placements, showing the crossover move — the reason static
//! heuristics lose and autotuners win.
//!
//! ```text
//! cargo run --release --example algorithm_explorer
//! ```

use acclaim::collectives::analysis;
use acclaim::prelude::*;

fn main() {
    let machine = Cluster::bebop_like();
    let allocation = Allocation::contiguous(&machine.topology, 16);
    let nodes = 16u32;
    let ppn = 1u32;

    // Structural view: what each algorithm actually does on the wire.
    println!("schedule structure at 16 ranks, 1 MiB:");
    for alg in [Algorithm::ReduceBinomial, Algorithm::ReduceScatterGather] {
        let stats = analysis::stats(alg.schedule(nodes * ppn, 1 << 20).as_ref());
        println!(
            "  {:<22} {:>2} rounds  {:>4} messages  {:>6.1} MiB moved  (largest message {} KiB)",
            alg.name(),
            stats.rounds,
            stats.messages,
            stats.bytes as f64 / (1 << 20) as f64,
            stats.max_message_bytes >> 10,
        );
    }

    // Performance view: the crossover, and how placement latency
    // (the paper measured >2x across Theta jobs) moves it.
    let mut sim = RoundSim::new();
    println!("\nreduce time (µs) and winner by message size and placement latency factor:");
    println!(
        "{:>10} | {:>26} | {:>26} | {:>26}",
        "msg size", "factor 1.0", "factor 2.0", "factor 4.0"
    );
    for e in (6..=20).step_by(2) {
        let m = 1u64 << e;
        let mut cells = Vec::new();
        for factor in [1.0f64, 2.0, 4.0] {
            let cluster = machine
                .clone()
                .with_allocation(allocation.clone())
                .with_job_latency_factor(factor);
            let t_bin = sim.simulate(
                &cluster,
                ppn,
                Algorithm::ReduceBinomial.schedule(nodes * ppn, m).as_ref(),
            );
            let t_sg = sim.simulate(
                &cluster,
                ppn,
                Algorithm::ReduceScatterGather
                    .schedule(nodes * ppn, m)
                    .as_ref(),
            );
            let winner = if t_bin <= t_sg {
                "binomial"
            } else {
                "scat_gath"
            };
            cells.push(format!(
                "{winner:<9} {:>6.0} vs {:>6.0}",
                t_bin.min(t_sg),
                t_bin.max(t_sg)
            ));
        }
        println!("{:>10} | {} | {} | {}", m, cells[0], cells[1], cells[2]);
    }

    println!(
        "\nNote how higher placement latency extends the binomial tree's winning range \
         upward in message size —\nthe paper's argument for retraining the autotuner on \
         every job's actual allocation."
    );
}
