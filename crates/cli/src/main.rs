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
use std::collections::BTreeSet;

const USAGE: &str = "\
usage: acclaim <command> [options]

common options:
  --help                 print this usage
  --quiet                suppress progress notes on stderr

trace options (tune, simulate, store, serve):
  --trace-out FILE       write a structured trace
  --trace-format FMT     jsonl (default) | chrome (chrome://tracing)
  --metrics-out FILE     write counters/gauges/histograms as JSONL

commands:
  tune        train ACCLAiM and write an MPICH JSON tuning file
              --machine bebop|theta  --nodes N  --ppn N  --max-msg BYTES
              [--min-msg BYTES]
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
              [--flight N] [--slow-log FACTOR] [--cache-cap N]
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

/// The options `command` accepts, read off [`USAGE`]: every `--flag`
/// in its block of the command list, and in each option section whose
/// header names it in parentheses or names no command at all.
fn accepted_options(command: &str) -> BTreeSet<&'static str> {
    let mut accepted = BTreeSet::new();
    let (mut in_commands, mut applies) = (false, false);
    for line in USAGE.lines() {
        if let Some(header) = line.strip_suffix(':').filter(|_| !line.starts_with(' ')) {
            in_commands = header == "commands";
            applies = match header.split_once('(') {
                Some((_, names)) => names
                    .trim_end_matches(')')
                    .split(", ")
                    .any(|n| n == command),
                None => !in_commands,
            };
        } else if in_commands && line.starts_with("  ") && !line.starts_with("   ") {
            applies = line.split_whitespace().next() == Some(command);
        }
        if applies {
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flags = words.filter_map(|w| w.strip_prefix("--"));
            accepted.extend(flags.filter(|f| f.ends_with(|c: char| c.is_ascii_alphanumeric())));
        }
    }
    accepted
}

/// Reject an option `command` does not accept, before it does any work.
fn check_options(command: &str, args: &Args) -> Result<(), String> {
    let accepted = accepted_options(command);
    match args.options().find(|key| !accepted.contains(key)) {
        Some(key) => Err(format!("unknown option --{key} for '{command}'\n\n{USAGE}")),
        None => Ok(()),
    }
}

fn dispatch(args: Args, diag: &Diag) -> Result<String, String> {
    if args.options().any(|key| key == "help") {
        return Ok(USAGE.to_string());
    }
    // Only `store`, `client`, and `analytic` take an action positional.
    if !matches!(
        args.command.as_deref(),
        Some("store") | Some("client") | Some("analytic")
    ) {
        if let Some(action) = &args.action {
            return Err(format!("unexpected positional argument '{action}'"));
        }
    }
    type Command = fn(&Args, &Diag) -> Result<String, String>;
    let (command, run): (&str, Command) = match args.command.as_deref() {
        Some(c @ "tune") => (c, commands::tune::run),
        Some(c @ "analytic") => (c, commands::analytic::run),
        Some(c @ "selections") => (c, commands::selections::run),
        Some(c @ "simulate") => (c, commands::simulate::run),
        Some(c @ "store") => (c, commands::store::run),
        Some(c @ "serve") => (c, commands::serve::serve),
        Some(c @ "client") => (c, commands::serve::client),
        Some(c @ "traces") => (c, commands::traces::run),
        Some(other) => return Err(format!("unknown command '{other}'\n\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    };
    check_options(command, &args)?;
    run(&args, diag)
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

    #[test]
    fn help_prints_usage_and_writes_no_file() {
        let out = std::env::temp_dir().join("acclaim-cli-help-test.json");
        let _ = std::fs::remove_file(&out);
        let path = out.to_str().unwrap();
        assert!(run(&["--help"]).unwrap().starts_with("usage:"));
        assert!(run(&["tune", "--help", "--out", path])
            .unwrap()
            .starts_with("usage:"));
        assert!(!out.exists(), "tune --help ran a tune");
    }

    #[test]
    fn mistyped_tune_flag_fails_before_any_work() {
        let out = std::env::temp_dir().join("acclaim-cli-typo-test.json");
        let _ = std::fs::remove_file(&out);
        let e = run(&["tune", "--nodse", "8", "--out", out.to_str().unwrap()]).unwrap_err();
        assert!(e.starts_with("unknown option --nodse for 'tune'"), "{e}");
        assert!(e.contains("usage:"));
        assert!(!out.exists());
        // A flag of another command is unknown here too.
        assert!(run(&["traces", "--socket", "s"])
            .unwrap_err()
            .contains("--socket"));
    }

    /// The options each command reads, including those scripts, CI and
    /// the README pass, are in its usage block.
    #[test]
    fn usage_lists_every_option_each_command_reads() {
        let reads: [(&str, &[&str]); 8] = [
            (
                "tune",
                &[
                    "quiet",
                    "machine",
                    "nodes",
                    "ppn",
                    "min-msg",
                    "max-msg",
                    "collectives",
                    "out",
                    "db",
                    "seed",
                    "budget",
                    "max-iterations",
                    "sequential",
                    "latency-factor",
                    "faults",
                    "max-retries",
                    "repeats",
                    "bench-timeout-factor",
                    "robust-agg",
                    "store",
                    "no-store",
                    "analytic-priors",
                    "no-analytic-priors",
                    "no-prune",
                    "prune-margin",
                    "trace-out",
                    "trace-format",
                    "metrics-out",
                ],
            ),
            (
                "analytic",
                &[
                    "machine",
                    "nodes",
                    "ppn",
                    "msg",
                    "collective",
                    "prune-margin",
                    "latency-factor",
                ],
            ),
            (
                "selections",
                &["tuning", "collective", "nodes", "ppn", "min-msg", "max-msg"],
            ),
            (
                "simulate",
                &[
                    "machine",
                    "nodes",
                    "ppn",
                    "collective",
                    "msg",
                    "latency-factor",
                    "engine",
                    "trace-out",
                ],
            ),
            ("store", &["store", "out", "in", "trace-out", "metrics-out"]),
            (
                "serve",
                &[
                    "store",
                    "socket",
                    "workers",
                    "slots",
                    "shards",
                    "format",
                    "flight",
                    "slow-log",
                    "cache-cap",
                    "drift-band",
                    "drift-min-obs",
                    "drift-cooldown",
                    "drift-deweight",
                    "drift-max-signatures",
                    "trace-out",
                    "metrics-out",
                ],
            ),
            (
                "client",
                &[
                    "socket",
                    "wait-server",
                    "op",
                    "pool",
                    "pool-index",
                    "seed",
                    "priority",
                    "nodes",
                    "ppn",
                    "msg",
                    "json",
                    "last",
                    "count",
                    "factor",
                    "refresh",
                    "interval-ms",
                    "load",
                    "clients",
                    "queries",
                ],
            ),
            ("traces", &["max-msg", "quiet", "help"]),
        ];
        for (command, options) in reads {
            let accepted = accepted_options(command);
            for option in options {
                assert!(accepted.contains(option), "{command} --{option}");
            }
        }
        assert!(!accepted_options("traces").contains("trace-out"));
        assert!(!accepted_options("tune").contains("drift"));
    }
}
