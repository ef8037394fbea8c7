//! `acclaim` — command-line interface to the ACCLAiM collective
//! autotuner reproduction.
//!
//! ```text
//! acclaim tune       --machine theta --nodes 32 --ppn 16 --collectives bcast,allreduce \
//!                    --out tuning.json [--db cache.json] [--budget N] [--sequential] \
//!                    [--store DIR | --no-store] [--analytic-priors]
//! acclaim analytic   predict --machine bebop --nodes 8 --ppn 4 --msg 65536
//! acclaim selections --tuning tuning.json --collective bcast --nodes 16 --ppn 8
//! acclaim simulate   --machine bebop --nodes 16 --ppn 4 --collective reduce --msg 262144
//! acclaim store      ls|gc|export|import --store DIR [--out FILE] [--in FILE]
//! acclaim serve      --store DIR [--socket PATH] [--workers N] [--slots N]
//! acclaim client     --socket PATH --op tune|query|stats|shutdown | --load N
//! acclaim traces
//! ```
//!
//! `tune` runs the full Fig. 1(b) pipeline on the simulated machine and
//! writes the MPICH-style JSON tuning file; `selections` shows what that
//! file (or the MPICH default heuristic) picks; `simulate` prices every
//! algorithm at one point; `store` inspects and maintains the
//! persistent cross-job tuning store; `serve` runs the tuning daemon on
//! a Unix socket with `client` as its matching client (including a
//! deterministic `--load` generator); `traces` summarizes the synthetic
//! application traces.

mod args;
mod commands;
mod context;
mod trace;

use acclaim_obs::Diag;
use args::Args;

const USAGE: &str = "\
usage: acclaim <command> [options]

common options:
  --quiet                suppress progress notes on stderr
  --trace-out FILE       write a structured trace (tune, simulate)
  --trace-format FMT     jsonl (default) | chrome (chrome://tracing)
  --metrics-out FILE     write counters/gauges/histograms as JSONL

commands:
  tune        train ACCLAiM and write an MPICH JSON tuning file
              --machine bebop|theta  --nodes N  --ppn N  --max-msg BYTES
              --collectives a,b,c    --out FILE [--db FILE] [--seed N]
              [--budget POINTS] [--max-iterations N] [--sequential]
              [--latency-factor F]
              [--faults none|production] [--max-retries N] [--repeats N]
              [--bench-timeout-factor F] [--robust-agg median|mean]
              [--store DIR] [--no-store]
              [--analytic-priors] [--no-analytic-priors] [--no-prune]
              [--prune-margin F]
              (--store warm-starts from and persists to a cross-job
               tuning store; --no-store wins when both are given;
               --analytic-priors seeds cold runs with Hockney/LogGP
               cost-model predictions and prunes guideline violators —
               --no-analytic-priors wins when both are given,
               --no-prune keeps every candidate live, --prune-margin
               sets the violation threshold)
  analytic    inspect the analytical cost-model catalog
              predict --machine bebop|theta --nodes N --ppn N
                      [--msg BYTES] [--collective NAME]
                      [--prune-margin F] [--latency-factor F]
              (prints each algorithm's predicted cost, the derived
               alpha/beta/gamma parameters, and the guideline verdicts
               at the given margin)
  selections  print the selections of a tuning file (or the defaults)
              [--tuning FILE] --collective NAME --nodes N --ppn N
              [--min-msg B --max-msg B]
  simulate    price every algorithm of a collective at one point
              --machine bebop|theta --nodes N --ppn N --collective NAME
              --msg BYTES [--latency-factor F] [--engine rounds|flows]
  store       inspect/maintain a persistent tuning store
              ls     --store DIR        list cached entries
              gc     --store DIR        drop corrupt/foreign-version files
              export --store DIR --out FILE   bundle entries to one file
              import --store DIR --in FILE    merge a bundle (local wins)
  serve       run the tuning-as-a-service daemon on a local socket
              --store DIR [--socket PATH] [--workers N] [--slots N]
              [--shards N] [--format json|binary]
              [--flight N] [--slow-log FACTOR]
              [--drift-band F] [--drift-min-obs N] [--drift-cooldown N]
              [--drift-deweight F] [--drift-max-signatures N]
              (runs until a client sends shutdown; prints serve.*
               counters, gauges, and phase-latency quantiles on exit;
               --slow-log warns on requests slower than FACTOR x the
               running median; the --drift-* options arm the observed-
               cost drift watch and its warm re-tune trigger)
  client      talk to a running daemon over line-delimited JSON
              --socket PATH [--wait-server SECS]
              <op> or --op OP, where OP is
                tune|query|stats|shutdown
                  [--pool N] [--pool-index I] [--seed N]
                  [--priority low|normal|high] [--nodes N --ppn N --msg B]
                metrics  scrape live metrics [--json]
                trace    dump recent flight records [--last N] [--json]
                observe  feed observed costs to the drift watch
                  [--pool-index I] [--count N] [--factor F]
                drift    print the drift watch's tracked signatures
                watch    refreshing live summary
                  [--refresh N] [--interval-ms MS]
              --load N  drive N deterministic tune sessions
                [--clients N] [--pool N] [--seed N] [--queries N]
  traces      summarize the synthetic application traces [--max-msg B]
";

fn dispatch(args: Args, diag: &Diag) -> Result<String, String> {
    // Only `store`, `client`, and `analytic` take an action positional.
    if !matches!(
        args.command.as_deref(),
        Some("store") | Some("client") | Some("analytic")
    ) {
        if let Some(action) = &args.action {
            return Err(format!("unexpected positional argument '{action}'"));
        }
    }
    match args.command.as_deref() {
        Some("tune") => commands::tune::run(&args, diag),
        Some("analytic") => commands::analytic::run(&args, diag),
        Some("selections") => commands::selections::run(&args, diag),
        Some("simulate") => commands::simulate::run(&args, diag),
        Some("store") => commands::store::run(&args, diag),
        Some("serve") => commands::serve::serve(&args, diag),
        Some("client") => commands::serve::client(&args, diag),
        Some("traces") => commands::traces::run(&args, diag),
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn main() {
    let parsed = Args::parse(std::env::args().skip(1));
    let diag = Diag::new(parsed.as_ref().map(|a| a.flag("quiet")).unwrap_or(false));
    let outcome = parsed.and_then(|a| dispatch(a, &diag));
    match outcome {
        Ok(report) => print!("{report}"),
        Err(message) => {
            diag.error(&message);
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, String> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        dispatch(args, &Diag::new(true))
    }

    #[test]
    fn unknown_command_shows_usage() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.contains("unknown command"));
        assert!(e.contains("usage:"));
    }

    #[test]
    fn no_command_shows_usage() {
        let e = run(&[]).unwrap_err();
        assert!(e.starts_with("usage:"));
    }

    #[test]
    fn traces_command_dispatches() {
        assert!(run(&["traces"]).unwrap().contains("AMG"));
    }
}
