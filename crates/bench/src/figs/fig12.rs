//! Fig. 12 — when does the cumulative-variance criterion fire compared
//! with the average-slowdown criterion, and how good is the model at
//! each stop? The paper's result: variance stops slightly late on some
//! collectives and slightly early on others (model quality ~1.04
//! there), for a net 1.19x training-time reduction — with no test set.

use crate::figs::fig10::sustained_time_to;
use crate::figs::fig10::REPRO_SLOWDOWN;
use crate::{fmt_secs, simulation_env, table};
use acclaim_collectives::Collective;
use acclaim_core::{ActiveLearner, LearnerConfig, VarianceConvergence};

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let (db, space) = simulation_env();
    let eval = space.points();

    let mut rows = Vec::new();
    let mut total_var = 0.0;
    let mut total_slow = 0.0;
    for c in Collective::ALL {
        db.prefill(c, &space);
        let cap = (space.len() * c.algorithms().len() / 2).min(450);
        let cfg = LearnerConfig::acclaim_sequential().with_budget(cap);
        let out = ActiveLearner::new(cfg).train(&db, c, &space, Some(&eval));

        // Replay the variance detector over the logged series.
        let mut detector = VarianceConvergence::paper_default();
        let var_stop = out
            .log
            .iter()
            .find(|r| detector.push(r.cumulative_variance));
        let slow_stop_t = sustained_time_to(&out, REPRO_SLOWDOWN, 2);

        let (vt, vq) = var_stop
            .map(|r| (r.wall_us, r.oracle_slowdown.unwrap()))
            .unwrap_or((
                out.stats.wall_us,
                out.log.last().unwrap().oracle_slowdown.unwrap(),
            ));
        let st = slow_stop_t.unwrap_or(out.stats.wall_us);
        total_var += vt;
        total_slow += st;
        rows.push(vec![
            c.name().to_string(),
            format!(
                "{}{}",
                fmt_secs(vt),
                if var_stop.is_none() { "*" } else { "" }
            ),
            format!("{vq:.3}"),
            format!(
                "{}{}",
                fmt_secs(st),
                if slow_stop_t.is_none() { "*" } else { "" }
            ),
            format!("{:.2}x", st / vt),
        ]);
    }
    rows.push(vec![
        "cumulative".to_string(),
        fmt_secs(total_var),
        String::new(),
        fmt_secs(total_slow),
        format!("{:.2}x", total_slow / total_var),
    ]);

    let mut out = String::from(
        "Fig. 12 — variance-criterion stop vs slowdown-criterion stop (per collective)\n\n",
    );
    out.push_str(&table(
        &[
            "collective",
            "variance stop",
            "slowdown@stop",
            "slowdown stop",
            "slow/var",
        ],
        &rows,
    ));
    out.push_str(
        "\n* criterion never fired within the budget; budget time shown.\n\
         paper shape: variance stops near the slowdown criterion (sometimes slightly\n\
         early with model quality ~1.04, sometimes ~1.007x late), netting a 1.19x\n\
         faster stop overall while avoiding the 6-11x test-set collection entirely.\n",
    );
    out
}
