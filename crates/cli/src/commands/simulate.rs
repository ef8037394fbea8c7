//! `acclaim simulate` — price every algorithm of a collective at one
//! point on the simulated machine (the Sec. II-B exploration, as a
//! command).

use crate::args::Args;
use crate::context::cluster_from;
use crate::trace::TraceOutputs;
use acclaim_collectives::{analysis, mpich_default, Collective};
use acclaim_netsim::{FlowSim, RoundSim};
use acclaim_obs::Diag;
use std::fmt::Write;

/// Run the subcommand; returns the table printed to stdout.
pub fn run(args: &Args, diag: &Diag) -> Result<String, String> {
    let (obs, outputs) = TraceOutputs::from_args(args)?;
    let cluster = cluster_from(args)?;
    let collective = Collective::parse(args.get_or("collective", "bcast"))
        .ok_or_else(|| "unknown --collective".to_string())?;
    let ppn: u32 = args.num_or("ppn", 8)?;
    let msg: u64 = args.num_or("msg", 65_536)?;
    let engine = args.get_or("engine", "rounds");
    if engine != "rounds" && engine != "flows" {
        return Err(format!("unknown --engine '{engine}' (rounds | flows)"));
    }
    let nodes = cluster.num_nodes();
    let ranks = nodes * ppn;

    let mut round_sim = RoundSim::with_obs(&obs);
    let mut flow_sim = FlowSim::with_obs(&obs);
    let mut rows: Vec<(f64, String)> = Vec::new();
    {
        let _span = obs.span("cli", "simulate");
        for &a in collective.algorithms() {
            let sched = a.schedule(ranks, msg);
            let stats = analysis::stats(sched.as_ref());
            let t = if engine == "flows" {
                flow_sim.simulate(&cluster, ppn, &sched.materialize())
            } else {
                round_sim.simulate(&cluster, ppn, sched.as_ref())
            };
            rows.push((
                t,
                format!(
                    "  {:<40} {:>12.1} µs   ({} rounds, {} messages)",
                    a.name(),
                    t,
                    stats.rounds,
                    stats.messages
                ),
            ));
        }
    }
    rows.sort_by(|x, y| x.0.total_cmp(&y.0));
    diag.progress(&format!(
        "priced {} algorithms with the {engine} engine",
        rows.len()
    ));

    let default = mpich_default(collective, ranks, msg);
    let mut out = format!(
        "{} at {nodes} nodes x {ppn} ppn, {msg} B (latency factor {}):\n",
        collective.name(),
        cluster.job_latency_factor
    );
    for (i, (_, line)) in rows.iter().enumerate() {
        let _ = writeln!(out, "{line}{}", if i == 0 { "   <- fastest" } else { "" });
    }
    let _ = writeln!(
        out,
        "MPICH default heuristic would pick: {}",
        default.name()
    );
    for line in outputs.write(&obs)? {
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    #[test]
    fn prices_all_algorithms_and_marks_the_winner() {
        let args = Args::parse(
            [
                "simulate",
                "--nodes",
                "8",
                "--ppn",
                "2",
                "--collective",
                "allgather",
                "--msg",
                "4096",
            ]
            .map(String::from),
        )
        .unwrap();
        let out = run(&args, &Diag::new(true)).unwrap();
        assert!(out.contains("ring"));
        assert!(out.contains("brucks"));
        assert!(out.contains("<- fastest"));
        assert!(out.contains("MPICH default"));
    }

    #[test]
    fn flows_engine_traces_des_metrics() {
        let trace = std::env::temp_dir().join("acclaim-cli-simulate-trace-test.jsonl");
        let args = Args::parse(
            [
                "simulate",
                "--nodes",
                "4",
                "--ppn",
                "2",
                "--collective",
                "bcast",
                "--msg",
                "1024",
                "--engine",
                "flows",
                "--trace-out",
                trace.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        let out = run(&args, &Diag::new(true)).unwrap();
        assert!(out.contains("trace (jsonl) written"));
        let text = std::fs::read_to_string(&trace).unwrap();
        acclaim_obs::schema::validate_trace(&text).unwrap();
        assert!(text.contains("netsim.des.events"));
        assert!(text.contains("netsim.des.sim_us"));
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn unknown_engine_is_rejected() {
        let args = Args::parse(["simulate", "--engine", "magic"].map(String::from)).unwrap();
        assert!(run(&args, &Diag::new(true)).unwrap_err().contains("magic"));
    }
}
