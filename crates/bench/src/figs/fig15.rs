//! Fig. 15 — the minimum application runtime needed to recoup
//! ACCLAiM's training time, as a function of the whole-application
//! speedup improved selections deliver. The paper's example: a 1.01x
//! speedup pays for training within 6.4-9.5 hours.

use crate::figs::fig14::production_training;
use crate::table;
use acclaim_dataset::traces::min_runtime_for_profit;

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let results = production_training();
    let speedups = [1.005f64, 1.01, 1.02, 1.05, 1.10];

    let mut rows = Vec::new();
    for r in &results {
        let mut cells = vec![r.collective.name().to_string()];
        for &s in &speedups {
            cells.push(format!(
                "{:.2} h",
                min_runtime_for_profit(r.wall_us, s) / 3.6e9
            ));
        }
        rows.push(cells);
    }
    let total: f64 = results.iter().map(|r| r.wall_us).sum();
    let mut cells = vec!["all four".to_string()];
    for &s in &speedups {
        cells.push(format!("{:.2} h", min_runtime_for_profit(total, s) / 3.6e9));
    }
    rows.push(cells);

    let mut out = String::from(
        "Fig. 15 — minimum application runtime for a net speedup, by app-level speedup\n\
         (training times from the Fig. 14 production run)\n\n",
    );
    out.push_str(&table(
        &[
            "collectives tuned",
            "1.005x",
            "1.01x",
            "1.02x",
            "1.05x",
            "1.10x",
        ],
        &rows,
    ));
    out.push_str(
        "\npaper shape: applications gaining even 1.01x from better selections recoup the\n\
         training cost within a few hours — well inside common production job lengths.\n",
    );
    out
}
