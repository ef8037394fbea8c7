//! Fig. 3 — Hunold et al. vs FACT: average slowdown as a function of
//! the percentage of the feature space used as training data. FACT
//! (active learning) stays below the 1.03 convergence criterion with
//! far less data than random sampling needs.

use crate::{simulation_env, table};
use acclaim_collectives::Collective;
use acclaim_core::baselines::HunoldAutotuner;
use acclaim_core::{ActiveLearner, LearnerConfig};
use acclaim_ml::CONVERGENCE_SLOWDOWN;

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let (db, space) = simulation_env();
    let fractions = [0.02f64, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80];
    let eval: Vec<_> = space.points();

    // FACT once per collective with a large budget; slowdowns at each
    // fraction come from its iteration log.
    let mut fact_runs = Vec::new();
    for c in Collective::ALL {
        db.prefill(c, &space);
        let budget = (space.len() as f64 * 0.85) as usize * c.algorithms().len();
        let cfg = LearnerConfig::fact().with_budget(budget);
        fact_runs.push((
            c,
            ActiveLearner::new(cfg).train(&db, c, &space, Some(&eval)),
        ));
    }

    let mut rows = Vec::new();
    for &fraction in &fractions {
        let mut hunold_sum = 0.0;
        let mut fact_sum = 0.0;
        for (c, fact) in &fact_runs {
            let h = HunoldAutotuner::default().train_with_fraction(&db, *c, &space, fraction);
            hunold_sum += db.average_slowdown(*c, &eval, |p| h.select(p));

            let target = (space.len() as f64 * fraction) as usize * c.algorithms().len();
            let rec = fact
                .log
                .iter()
                .rfind(|r| r.samples <= target.max(1))
                .or(fact.log.first())
                .expect("non-empty log");
            fact_sum += rec.oracle_slowdown.expect("eval enabled");
        }
        rows.push(vec![
            format!("{:.0}%", fraction * 100.0),
            format!("{:.3}", hunold_sum / 4.0),
            format!("{:.3}", fact_sum / 4.0),
        ]);
    }

    let mut out = String::from(
        "Fig. 3 — average slowdown vs training data fraction (mean over the 4 collectives)\n\n",
    );
    out.push_str(&table(&["train %", "Hunold et al.", "FACT"], &rows));
    out.push_str(&format!(
        "\nconvergence criterion: average slowdown <= {CONVERGENCE_SLOWDOWN}\n\
         paper shape: FACT reaches the criterion with far less training data than Hunold.\n"
    ));
    out
}
