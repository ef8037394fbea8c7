//! Calibration probe: learning curves of random vs variance-driven
//! sampling per collective (slowdown vs number of samples).

use acclaim_bench::simulation_env;
use acclaim_collectives::Collective;
use acclaim_core::{ActiveLearner, LearnerConfig, SelectionPolicy};

fn main() {
    let (db, space) = simulation_env();
    let pts = space.points();
    let trees: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let only: Option<String> = std::env::args().nth(2);
    for collective in Collective::ALL {
        if only.as_deref().is_some_and(|o| o != collective.name()) {
            continue;
        }
        db.prefill(collective, &space);
        println!("=== {} ===", collective.name());
        for (name, policy) in [
            ("own-variance", SelectionPolicy::OwnVariance),
            ("random", SelectionPolicy::Random),
        ] {
            let mut cfg = LearnerConfig {
                policy: policy.clone(),
                nonp2_every: None,
                ..LearnerConfig::acclaim_sequential().with_budget(500)
            };
            cfg.forest.n_trees = trees;
            cfg.explore_every = std::env::args()
                .nth(3)
                .and_then(|a| a.parse().ok())
                .or(Some(4));
            let out = ActiveLearner::new(cfg).train(&db, collective, &space, Some(&pts));
            let mut line = format!("{name:<14}");
            for target in [25usize, 50, 100, 200, 300, 400, 500] {
                if let Some(r) = out.log.iter().find(|r| r.samples >= target) {
                    line.push_str(&format!(" {}:{:.3}", target, r.oracle_slowdown.unwrap()));
                }
            }
            println!("{line}");
        }
    }
}
