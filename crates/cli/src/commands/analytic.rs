//! `acclaim analytic` — inspect the analytical cost-model catalog:
//! per-algorithm predictions, the derived Hockney/LogGP parameters,
//! and the guideline verdicts that would prune candidates.

use crate::args::Args;
use crate::context::cluster_from;
use acclaim_analytic::{CostModel, GuidelineSet};
use acclaim_collectives::Collective;
use acclaim_dataset::Point;
use acclaim_obs::Diag;
use std::fmt::Write;

/// Run the subcommand; returns the catalog printed to stdout.
pub fn run(args: &Args, diag: &Diag) -> Result<String, String> {
    match args.action.as_deref() {
        Some("predict") | None => predict(args, diag),
        Some(other) => Err(format!("unknown analytic action '{other}' (predict)")),
    }
}

/// `acclaim analytic predict` — the model catalog's verdicts at one
/// (nodes, ppn, msg) signature.
fn predict(args: &Args, diag: &Diag) -> Result<String, String> {
    let cluster = cluster_from(args)?;
    let ppn: u32 = args.num_or("ppn", 8)?;
    let msg: u64 = args.num_or("msg", 65_536)?;
    let margin: f64 = args.num_or("prune-margin", 3.0)?;
    if margin < 1.0 {
        return Err("option --prune-margin: must be >= 1".into());
    }
    let collectives: Vec<Collective> = match args.get("collective") {
        Some(name) => {
            vec![Collective::parse(name).ok_or_else(|| format!("unknown --collective '{name}'"))?]
        }
        None => Collective::ALL.to_vec(),
    };
    let nodes = cluster.num_nodes();
    let point = Point::new(nodes, ppn, msg);

    let model = CostModel::new(cluster);
    let set = GuidelineSet::standard(margin);
    let params = model.params_at(point);
    let mut out = format!(
        "analytical model at {nodes} nodes x {ppn} ppn, {msg} B\n\
         (alpha {:.3} µs/msg, beta {:.6} µs/B, gamma {:.6} µs/B, prune margin {margin}x)\n",
        params.alpha_us, params.beta_us_per_byte, params.gamma_us_per_byte
    );
    for &c in &collectives {
        let mut rows = model.predictions(c, point);
        rows.sort_by(|x, y| x.1.total_cmp(&y.1));
        let violations = set.violations_at(&model, c, point);
        let _ = writeln!(out, "{}:", c.name());
        for (i, (a, t)) in rows.iter().enumerate() {
            let verdicts: Vec<String> = violations
                .iter()
                .filter(|v| v.candidate.algorithm == *a)
                .map(|v| format!("{} {:.1}x", v.guideline, v.ratio))
                .collect();
            let _ = writeln!(
                out,
                "  {:<40} {:>12.1} µs{}{}",
                a.name(),
                t,
                if i == 0 { "   <- analytic best" } else { "" },
                if verdicts.is_empty() {
                    String::new()
                } else {
                    format!("   [pruned: {}]", verdicts.join(", "))
                }
            );
        }
    }
    diag.progress(&format!(
        "predicted {} collective(s) analytically",
        collectives.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn predict_prints_the_catalog_for_every_collective() {
        let args = parse(&["analytic", "predict", "--nodes", "8", "--ppn", "4"]);
        let out = run(&args, &Diag::new(true)).unwrap();
        for c in Collective::ALL {
            assert!(out.contains(&format!("{}:", c.name())), "{out}");
        }
        assert!(out.contains("<- analytic best"), "{out}");
        assert!(out.contains("alpha") && out.contains("beta") && out.contains("gamma"));
    }

    #[test]
    fn predict_narrows_to_one_collective_and_flags_pruning() {
        let args = parse(&[
            "analytic",
            "predict",
            "--nodes",
            "16",
            "--ppn",
            "8",
            "--msg",
            "1048576",
            "--collective",
            "allreduce",
            "--prune-margin",
            "1.5",
        ]);
        let out = run(&args, &Diag::new(true)).unwrap();
        assert!(out.contains("allreduce:"));
        assert!(!out.contains("bcast:"), "{out}");
        // At a tight margin the large-message loser violates dominance.
        assert!(out.contains("[pruned:"), "{out}");
    }

    #[test]
    fn bad_action_and_margin_are_rejected() {
        let args = parse(&["analytic", "frobnicate"]);
        assert!(run(&args, &Diag::new(true))
            .unwrap_err()
            .contains("predict"));
        let args = parse(&["analytic", "predict", "--prune-margin", "0.5"]);
        assert!(run(&args, &Diag::new(true))
            .unwrap_err()
            .contains("--prune-margin"));
    }
}
