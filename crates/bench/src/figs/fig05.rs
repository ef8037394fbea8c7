//! Fig. 5 — FACT (trained on P2 points only) evaluated on three
//! `MPI_Bcast` test sets: "All P2", "Non-P2 Nodes", and "Non-P2 Message
//! Size". The P2-trained model fails to learn the non-P2 message-size
//! trends regardless of how much training data it gets.

use crate::{simulation_env, table};
use acclaim_collectives::Collective;
use acclaim_core::{ActiveLearner, LearnerConfig};
use rand::{rngs::StdRng, SeedableRng};

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let (db, space) = simulation_env();
    let collective = Collective::Bcast;
    db.prefill(collective, &space);

    let mut rng = StdRng::seed_from_u64(0x00F1_6005);
    let all_p2 = acclaim_dataset::splits::p2_test_set(&space);
    let nonp2_nodes = acclaim_dataset::splits::nonp2_nodes_test_set(&space, 1, &mut rng);
    let nonp2_msg = acclaim_dataset::splits::nonp2_msg_test_set(&space, 3, &mut rng);

    // One long FACT run; measure each test set from snapshots of the log
    // by retraining at the matching budgets.
    let budgets: Vec<usize> = [0.05f64, 0.1, 0.2, 0.4, 0.6, 0.8]
        .iter()
        .map(|f| ((space.len() * collective.algorithms().len()) as f64 * f) as usize)
        .collect();

    let mut rows = Vec::new();
    for &budget in &budgets {
        let cfg = LearnerConfig::fact().with_budget(budget);
        let out = ActiveLearner::new(cfg).train(&db, collective, &space, None);
        let m = &out.model;
        rows.push(vec![
            format!("{:.0}%", 100.0 * budget as f64 / (space.len() * 3) as f64),
            format!(
                "{:.3}",
                db.average_slowdown(collective, &all_p2, |p| m.select(p))
            ),
            format!(
                "{:.3}",
                db.average_slowdown(collective, &nonp2_nodes, |p| m.select(p))
            ),
            format!(
                "{:.3}",
                db.average_slowdown(collective, &nonp2_msg, |p| m.select(p))
            ),
        ]);
    }

    let mut out = String::from(
        "Fig. 5 — FACT trained on P2 points only, tested on P2 and non-P2 sets (MPI_Bcast)\n\n",
    );
    out.push_str(&table(
        &["train %", "All P2", "Non-P2 Nodes", "Non-P2 Msg Size"],
        &rows,
    ));
    out.push_str(
        "\npaper shape: All-P2 approaches optimal; Non-P2 Nodes tracks it with a penalty;\n\
         Non-P2 Message Size stays elevated at every training size (trends unlearnable\n\
         from P2 data alone).\n",
    );
    out
}
