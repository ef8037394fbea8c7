//! Fig. 7 — cumulative jackknife variance and average slowdown over one
//! training run: the variance tracks the slowdown, including its
//! fine-grained spikes, qualifying it as a convergence proxy.

use crate::{simulation_env, table};
use acclaim_collectives::Collective;
use acclaim_core::{ActiveLearner, LearnerConfig};

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let (db, space) = simulation_env();
    let collective = Collective::Bcast;
    db.prefill(collective, &space);
    let eval = space.points();

    let cfg = LearnerConfig::acclaim_sequential().with_budget(260);
    let out = ActiveLearner::new(cfg).train(&db, collective, &space, Some(&eval));

    let mut rows = Vec::new();
    for r in out.log.iter().step_by(8) {
        rows.push(vec![
            format!("{:.1}", r.wall_us / 1e6),
            format!("{}", r.samples),
            format!("{:.4}", r.cumulative_variance),
            format!("{:.2}", r.model_update_us / 1e3),
            format!("{:.3}", r.oracle_slowdown.expect("eval enabled")),
        ]);
    }

    // Correlation between the two series (Pearson, on iteration pairs).
    let xs: Vec<f64> = out.log.iter().map(|r| r.cumulative_variance).collect();
    let ys: Vec<f64> = out.log.iter().map(|r| r.oracle_slowdown.unwrap()).collect();
    let corr = pearson(&xs, &ys);

    let mut out_s = String::from(
        "Fig. 7 — cumulative variance vs average slowdown over training time (MPI_Bcast)\n\n",
    );
    out_s.push_str(&table(
        &[
            "time (s)",
            "samples",
            "cum. variance",
            "model upd (ms)",
            "avg slowdown",
        ],
        &rows,
    ));
    out_s.push_str(&format!(
        "\nPearson correlation(variance, slowdown) = {corr:.3}\n\
         paper shape: both series trend downward together and spike together —\n\
         variance can stand in for slowdown as the convergence signal.\n\
         The model-update column is the per-iteration cost of keeping that\n\
         signal fresh (incremental refit + cached variance scan), reported\n\
         separately from the collection time of the first column.\n"
    ));
    out_s
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    cov / (vx.sqrt() * vy.sqrt()).max(f64::MIN_POSITIVE)
}
