//! Fig. 4 — percentage of non-power-of-two message sizes in HPC
//! application traces (LLNL trace set; 1024-node ParaDis unavailable).

use crate::table;
use acclaim_dataset::traces;

/// Regenerate the figure; returns the report text.
pub fn run() -> String {
    let max_msg = 1u64 << 20;
    let mut rows = Vec::new();
    for name in traces::trace_app_names() {
        let mut cells = vec![name.to_string()];
        for scale in [64u32, 1_024] {
            match traces::synthetic_trace(name, scale, max_msg) {
                Some(t) => cells.push(format!("{:.1}%", t.nonp2_fraction() * 100.0)),
                None => cells.push("n/a".to_string()),
            }
        }
        rows.push(cells);
    }
    let aggregate = traces::aggregate_nonp2_fraction(&traces::all_traces(max_msg));

    let mut out = String::from("Fig. 4 — non-power-of-two message sizes in application traces\n\n");
    out.push_str(&table(&["application", "64-node", "1024-node"], &rows));
    out.push_str(&format!(
        "\naggregate across available traces: {:.1}% (paper: 15.7%)\n\
         paper shape: a significant share of calls is non-P2, stable across job scales;\n\
         ParaDis has no 1024-node trace.\n",
        aggregate * 100.0
    ));
    out
}
