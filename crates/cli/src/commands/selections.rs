//! `acclaim selections` — show what a tuning file (or the MPICH
//! default heuristic) selects across message sizes at one job shape.

use crate::args::Args;
use acclaim_collectives::{mpich_default, Collective};
use acclaim_core::{TunedSelector, TuningFile};
use acclaim_dataset::Point;
use acclaim_obs::Diag;
use std::fmt::Write;

/// Run the subcommand; returns the table printed to stdout.
pub fn run(args: &Args, diag: &Diag) -> Result<String, String> {
    let nodes: u32 = args.num_or("nodes", 16)?;
    let ppn: u32 = args.num_or("ppn", 8)?;
    let collective = Collective::parse(args.get_or("collective", "bcast"))
        .ok_or_else(|| "unknown --collective".to_string())?;

    let selector = match args.get("tuning") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let value: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            diag.progress(&format!("loaded tuning file {path}"));
            TunedSelector::new(TuningFile::from_mpich_json(&value)?)
        }
        None => TunedSelector::default(),
    };

    let mut out = format!(
        "selections for {} at {nodes} nodes x {ppn} ppn ({}):\n",
        collective.name(),
        if args.get("tuning").is_some() {
            "tuned"
        } else {
            "MPICH defaults"
        }
    );
    let mut msg = args.num_or("min-msg", 8u64)?;
    let max: u64 = args.num_or("max-msg", 1 << 20)?;
    while msg <= max {
        let p = Point::new(nodes, ppn, msg);
        let tuned = selector.select(collective, p);
        let default = mpich_default(collective, p.ranks(), msg);
        let marker = if tuned == default { " " } else { "*" };
        let _ = writeln!(out, "  {msg:>8} B  {}{marker}", tuned.name(),);
        msg *= 2;
    }
    out.push_str("  (* differs from the MPICH default)\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    #[test]
    fn defaults_table_renders_without_a_file() {
        let args = Args::parse(
            ["selections", "--collective", "reduce", "--nodes", "32"].map(String::from),
        )
        .unwrap();
        let out = run(&args, &Diag::new(true)).unwrap();
        assert!(out.contains("reduce"));
        assert!(out.contains("binomial"));
        assert!(out.contains("MPICH defaults"));
    }

    #[test]
    fn unknown_collective_is_an_error() {
        let args = Args::parse(["selections", "--collective", "scan"].map(String::from)).unwrap();
        assert!(run(&args, &Diag::new(true)).is_err());
    }
}
