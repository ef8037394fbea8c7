//! Calibration probe: the slowdown floor of a model trained on the
//! *entire* candidate set (selection cannot beat this).

use acclaim_bench::simulation_env;
use acclaim_collectives::Collective;
use acclaim_core::{PerfModel, TrainingSample};
use acclaim_ml::ForestConfig;

fn main() {
    let (db, space) = simulation_env();
    let pts = space.points();
    for collective in Collective::ALL {
        db.prefill(collective, &space);
        let samples: Vec<TrainingSample> = pts
            .iter()
            .flat_map(|&p| collective.algorithms().iter().map(move |&a| (p, a)))
            .map(|(p, a)| TrainingSample {
                point: p,
                algorithm: a,
                time_us: db.time(a, p),
            })
            .collect();
        for n_trees in [64usize, 128] {
            let model = PerfModel::fit(
                collective,
                &samples,
                &ForestConfig {
                    n_trees,
                    ..ForestConfig::for_n_features(4)
                },
            );
            let slowdown = db.average_slowdown(collective, &pts, |p| model.select(p));
            // Worst individual point.
            let worst = pts
                .iter()
                .map(|&p| db.slowdown(p, model.select(p)))
                .fold(0.0f64, f64::max);
            println!(
                "{:<10} trees={n_trees:<4} exhaustive-train slowdown {:.4}  worst point {:.2}",
                collective.name(),
                slowdown,
                worst
            );
        }
    }
}
