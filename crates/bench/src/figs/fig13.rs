//! Fig. 13 — parallel data collection across four simulated 64-node
//! allocations: Single Rack, Single Rack Pair, Two Rack Pairs, and
//! "Max Parallel" (one node per rack pair). Reports the speedup over
//! sequential collection and the average number of benchmarks run in
//! parallel, per collective.

use crate::{simulation_env, table};
use acclaim_collectives::Collective;
use acclaim_core::collector::{schedule_wave, CollectionStats};
use acclaim_core::{ActiveLearner, Candidate, LearnerConfig};
use acclaim_netsim::{Allocation, Topology};

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let (db, space) = simulation_env();

    // A big virtual machine whose racks can express all four shapes.
    let topo = Topology::new(64, 128);
    let allocations: Vec<(&str, Allocation)> = vec![
        ("Single Rack", Allocation::single_rack(&topo, 64)),
        ("Single Rack Pair", Allocation::rack_pair(&topo, 64)),
        ("Two Rack Pairs", Allocation::two_pairs(&topo, 64)),
        ("Max Parallel", Allocation::max_parallel(&topo, 64)),
    ];

    let mut speedup_rows = Vec::new();
    let mut par_rows = Vec::new();
    for c in Collective::ALL {
        db.prefill(c, &space);
        // The benchmark list ACCLAiM would collect, in selection order.
        let run = ActiveLearner::new(LearnerConfig::acclaim_sequential().with_budget(120))
            .train(&db, c, &space, None);
        let list: Vec<(Candidate, f64)> = run
            .collected
            .iter()
            .map(|s| {
                (
                    Candidate {
                        point: s.point,
                        algorithm: s.algorithm,
                    },
                    db.sample(s.algorithm, s.point).wall_us,
                )
            })
            .collect();

        let mut srow = vec![c.name().to_string()];
        let mut prow = vec![c.name().to_string()];
        for (_, alloc) in &allocations {
            let mut remaining = list.clone();
            let mut stats = CollectionStats::default();
            while !remaining.is_empty() {
                let cands: Vec<Candidate> = remaining.iter().map(|&(c, _)| c).collect();
                let wave = schedule_wave(&topo, alloc, &cands);
                let take = wave.parallelism().max(1);
                let costs: Vec<f64> = remaining.drain(..take).map(|(_, w)| w).collect();
                stats.add_wave(&costs);
            }
            srow.push(format!("{:.2}x", stats.speedup()));
            prow.push(format!("{:.2}", stats.average_parallelism()));
        }
        speedup_rows.push(srow);
        par_rows.push(prow);
    }

    let headers = [
        "collective",
        "Single Rack",
        "Rack Pair",
        "Two Pairs",
        "Max Parallel",
    ];
    let mut out =
        String::from("Fig. 13(a) — collection speedup over sequential, by allocation shape\n\n");
    out.push_str(&table(&headers, &speedup_rows));
    out.push_str("\nFig. 13(b) — average benchmarks running in parallel\n\n");
    out.push_str(&table(&headers, &par_rows));
    out.push_str(
        "\npaper shape: 1x on a single rack (no parallelism is safe) rising to ~1.4x with\n\
         1-4 benchmarks in parallel as the allocation spreads over more rack pairs; the\n\
         greedy schedule can occasionally lose a little on Max Parallel (Sec. VI-D).\n",
    );
    out
}
