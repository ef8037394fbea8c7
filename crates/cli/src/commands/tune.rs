//! `acclaim tune` — the Fig. 1(b) job flow: train models for the
//! requested collectives and write the MPICH JSON tuning file.

use crate::args::Args;
use crate::context::{cluster_from, collectives_from, database_from, maybe_save_db, space_from};
use crate::trace::TraceOutputs;
use acclaim_core::{
    AcclaimConfig, CollectionPolicy, CollectionStrategy, CriterionConfig, RobustAgg,
};
use acclaim_obs::{Diag, Obs};
use acclaim_store::{tune_with_store, TuningStore};

/// Parse the fault-tolerant collection options into a policy.
fn collection_from(args: &Args) -> Result<CollectionPolicy, String> {
    let mut policy = match args.get("faults") {
        None | Some("none") => CollectionPolicy::default(),
        Some("production") => CollectionPolicy::production(),
        Some(other) => {
            return Err(format!(
                "option --faults: unknown model '{other}' (none | production)"
            ))
        }
    };
    if let Some(n) = args.get_num::<u32>("max-retries")? {
        policy.max_retries = n;
    }
    if let Some(f) = args.get_num::<f64>("bench-timeout-factor")? {
        if f < 1.0 {
            return Err("option --bench-timeout-factor: must be >= 1".into());
        }
        policy.bench_timeout_factor = f;
    }
    if let Some(n) = args.get_num::<u32>("repeats")? {
        if n == 0 {
            return Err("option --repeats: must be >= 1".into());
        }
        policy.repeats = n;
    }
    if let Some(spec) = args.get("robust-agg") {
        policy.agg = RobustAgg::parse(spec).ok_or_else(|| {
            format!("option --robust-agg: unknown aggregation '{spec}' (median | mean)")
        })?;
    }
    Ok(policy)
}

/// One `<label> counters (obs): …` report line: every counter named
/// under `prefix`, with the prefix stripped, or `none recorded`.
fn counter_line(counters: &[(String, u64)], prefix: &str, label: &str) -> String {
    let found: Vec<String> = counters
        .iter()
        .filter_map(|(name, value)| Some(format!("{}={value}", name.strip_prefix(prefix)?)))
        .collect();
    let found = if found.is_empty() {
        "none recorded".to_string()
    } else {
        found.join(" ")
    };
    format!("{label} counters (obs): {found}\n")
}

/// Run the subcommand; returns the report printed to stdout.
pub fn run(args: &Args, diag: &Diag) -> Result<String, String> {
    let (obs, outputs) = TraceOutputs::from_args(args)?;
    let cluster = cluster_from(args)?;
    let space = space_from(args, &cluster)?;
    let collectives = collectives_from(args)?;
    let out_path = args.get_or("out", "tuning.json").to_string();

    let mut config = AcclaimConfig::new(space);
    config.learner.seed = args.num_or("seed", config.learner.seed)?;
    if args.flag("sequential") {
        config.learner.strategy = CollectionStrategy::Sequential;
    }
    if let Some(budget) = args.get_num::<usize>("budget")? {
        config.learner.criterion = CriterionConfig::MaxPoints(budget);
    }
    if let Some(iters) = args.get_num::<usize>("max-iterations")? {
        config.learner.max_iterations = iters;
    }
    config.learner.collection = collection_from(args)?;
    let faults = config.learner.collection.is_enabled();

    // Analytical cost-model priors: `--analytic-priors` seeds cold
    // runs with the Hockney/LogGP sketch and prunes guideline
    // violators; `--no-analytic-priors` wins when both are given
    // (same override convention as --no-store), and `--no-prune`
    // keeps the priors but leaves every candidate live.
    config.learner.analytic_priors.enabled =
        args.flag("analytic-priors") && !args.flag("no-analytic-priors");
    if args.flag("no-prune") {
        config.learner.analytic_priors.prune = false;
    }
    if let Some(margin) = args.get_num::<f64>("prune-margin")? {
        if margin < 1.0 {
            return Err("option --prune-margin: must be >= 1".into());
        }
        config.learner.analytic_priors.prune_margin = margin;
    }
    let analytic = config.learner.analytic_priors.enabled;

    // Persistent tuning store: `--store DIR` warm-starts from (and
    // writes back to) a cross-job cache; `--no-store` wins when both
    // are given, so scripts can override an aliased default.
    let store_dir = args.get("store").filter(|_| !args.flag("no-store"));

    // Fault handling and store traffic are counted through acclaim-obs,
    // so both force the recorder on even without a trace output — the
    // report's counter lines are sourced from the metrics snapshot.
    let obs = if (faults || store_dir.is_some() || analytic) && !obs.is_enabled() {
        Obs::enabled()
    } else {
        obs
    };
    let db = database_from(args, cluster)?.with_obs(&obs);

    diag.progress(&format!(
        "training {} collective model(s)",
        collectives.len()
    ));
    let tuning = {
        let _span = obs.span("cli", "tune");
        let store = store_dir
            .map(|dir| TuningStore::open(dir).map_err(|e| format!("opening store {dir}: {e}")))
            .transpose()?;
        tune_with_store(store.as_ref(), &config, &db, &collectives, &obs)
            .map_err(|e| format!("store-backed tuning: {e}"))?
    };
    let json = serde_json::to_string_pretty(&tuning.tuning_file.to_mpich_json())
        .expect("tuning file serializes");
    std::fs::write(&out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    maybe_save_db(args, &db)?;
    diag.progress(&format!("tuning file written to {out_path}"));

    let mut report = String::new();
    report.push_str(&tuning.summary());
    let counters = obs.metrics_snapshot().counters;
    for (on, prefix, label) in [
        (store_dir.is_some(), "store.", "store"),
        (analytic, "analytic.", "analytic"),
        (faults, "collect.", "fault"),
    ] {
        if on {
            report.push_str(&counter_line(&counters, prefix, label));
        }
    }
    report.push_str(&format!("tuning file written to {out_path}\n"));
    for line in outputs.write(&obs)? {
        report.push_str(&line);
        report.push('\n');
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use acclaim_core::TuningFile;

    fn tune_args(extra: &[&str], out: &std::path::Path) -> Args {
        let mut tokens = vec![
            "tune",
            "--nodes",
            "8",
            "--ppn",
            "2",
            "--max-msg",
            "4096",
            "--min-msg",
            "64",
            "--collectives",
            "reduce",
            "--budget",
            "20",
            "--max-iterations",
            "10",
            "--out",
            out.to_str().unwrap(),
        ];
        tokens.extend_from_slice(extra);
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn tune_writes_a_parseable_tuning_file() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-test.json");
        let _ = std::fs::remove_file(&out);
        let args = tune_args(&[], &out);
        let report = run(&args, &Diag::new(true)).unwrap();
        assert!(report.contains("reduce"));
        assert!(report.contains("tuning file written"));
        assert!(report.contains("cost split"));
        let text = std::fs::read_to_string(&out).unwrap();
        let parsed = TuningFile::from_mpich_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed.collectives.len(), 1);
        for ctx in &parsed.collectives[0].contexts {
            assert!(ctx.is_complete() && ctx.is_pruned());
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn tune_with_production_faults_reports_obs_counters() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-faults-test.json");
        let _ = std::fs::remove_file(&out);
        let args = tune_args(&["--faults", "production"], &out);
        let report = run(&args, &Diag::new(true)).unwrap();
        // The counter line is sourced from the acclaim-obs snapshot and
        // must be present (the recorder is forced on by --faults).
        assert!(
            report.contains("fault counters (obs):"),
            "missing fault counter line:\n{report}"
        );
        assert!(report.contains("retries="), "missing retries:\n{report}");
        let text = std::fs::read_to_string(&out).unwrap();
        let parsed = TuningFile::from_mpich_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed.collectives.len(), 1);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn tune_with_store_warm_starts_the_second_run() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-store-test.json");
        let dir = std::env::temp_dir().join("acclaim-cli-tune-store-test-cache");
        std::fs::remove_dir_all(&dir).ok();
        let store_args = ["--store", dir.to_str().unwrap()];
        let cold = run(&tune_args(&store_args, &out), &Diag::new(true)).unwrap();
        assert!(
            cold.contains("store counters (obs):") && cold.contains("misses=1"),
            "first run should miss:\n{cold}"
        );
        let warm = run(&tune_args(&store_args, &out), &Diag::new(true)).unwrap();
        assert!(
            warm.contains("exact_hits=1") && warm.contains("points_reused="),
            "second run should hit:\n{warm}"
        );
        // --no-store overrides --store and silences the counter line.
        let off = run(
            &tune_args(&["--store", dir.to_str().unwrap(), "--no-store"], &out),
            &Diag::new(true),
        )
        .unwrap();
        assert!(!off.contains("store counters"), "{off}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn analytic_priors_report_their_counters() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-analytic-test.json");
        let report = run(&tune_args(&["--analytic-priors"], &out), &Diag::new(true)).unwrap();
        assert!(
            report.contains("analytic counters (obs):") && report.contains("priors_injected="),
            "missing analytic counter line:\n{report}"
        );
        assert!(report.contains("candidates_pruned="), "{report}");
        // --no-analytic-priors wins over --analytic-priors, silencing
        // the counter line (the run is bit-identical to a plain tune).
        let off = run(
            &tune_args(&["--analytic-priors", "--no-analytic-priors"], &out),
            &Diag::new(true),
        )
        .unwrap();
        assert!(!off.contains("analytic counters"), "{off}");
        // --no-prune keeps the priors but retires nothing.
        let noprune = run(
            &tune_args(&["--analytic-priors", "--no-prune"], &out),
            &Diag::new(true),
        )
        .unwrap();
        assert!(noprune.contains("priors_injected="), "{noprune}");
        assert!(!noprune.contains("candidates_pruned="), "{noprune}");
        std::fs::remove_file(&out).ok();
    }

    /// `acclaim tune` at 8 nodes x 2 ppn, 64 B to 4 KiB, bcast only,
    /// plus `extra`: the smoke shape whose report lines are asserted
    /// below.
    fn smoke_tune(extra: &[&str], out: &std::path::Path) -> String {
        let mut tokens = vec![
            "tune",
            "--nodes",
            "8",
            "--ppn",
            "2",
            "--min-msg",
            "64",
            "--max-msg",
            "4096",
            "--collectives",
            "bcast",
        ];
        tokens.extend_from_slice(extra);
        tokens.extend(["--out", out.to_str().unwrap()]);
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        run(&args, &Diag::new(true)).unwrap()
    }

    /// Whether the report's `bcast` summary line says it converged.
    fn bcast_converged(report: &str) -> bool {
        report
            .lines()
            .any(|l| l.starts_with("bcast ") && l.contains("converged"))
    }

    /// The value of `name` on the report's `<label> counters (obs):`
    /// line.
    fn counter(report: &str, label: &str, name: &str) -> Option<u64> {
        let line = report
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{label} counters (obs): ")))?;
        line.split(' ')
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
    }

    #[test]
    fn bcast_converges_under_production_faults_with_a_valid_trace() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-fault-smoke.json");
        let trace = std::env::temp_dir().join("acclaim-cli-tune-fault-smoke.jsonl");
        let report = smoke_tune(
            &[
                "--budget",
                "40",
                "--faults",
                "production",
                "--trace-out",
                trace.to_str().unwrap(),
            ],
            &out,
        );
        assert!(bcast_converged(&report), "{report}");
        assert!(counter(&report, "fault", "retries").is_some(), "{report}");
        let text = std::fs::read_to_string(&trace).unwrap();
        acclaim_obs::schema::validate_trace(&text).unwrap();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn analytic_priors_cold_start_converges_injecting_and_pruning() {
        // The budget sits above the injected prior rows (they count
        // toward it), leaving headroom for real measurements.
        let out = std::env::temp_dir().join("acclaim-cli-tune-analytic-smoke.json");
        let report = smoke_tune(&["--analytic-priors", "--budget", "160"], &out);
        assert!(bcast_converged(&report), "{report}");
        for name in ["priors_injected", "candidates_pruned"] {
            let n = counter(&report, "analytic", name);
            assert!(n.is_some_and(|n| n > 0), "{name}: {report}");
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn counter_line_strips_the_prefix_or_says_none_recorded() {
        let counters = vec![
            ("collect.retries".to_string(), 3),
            ("store.misses".to_string(), 1),
        ];
        assert_eq!(
            counter_line(&counters, "store.", "store"),
            "store counters (obs): misses=1\n"
        );
        assert_eq!(
            counter_line(&counters, "analytic.", "analytic"),
            "analytic counters (obs): none recorded\n"
        );
        assert_eq!(
            counter_line(&[], "collect.", "fault"),
            "fault counters (obs): none recorded\n"
        );
    }

    #[test]
    fn tune_rejects_bad_fault_options() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-badfaults-test.json");
        for bad in [
            &["--faults", "chaos"][..],
            &["--robust-agg", "mode"][..],
            &["--repeats", "0"][..],
            &["--bench-timeout-factor", "0.5"][..],
        ] {
            let args = tune_args(bad, &out);
            let e = run(&args, &Diag::new(true)).unwrap_err();
            assert!(e.contains("option --"), "bad error for {bad:?}: {e}");
        }
    }

    #[test]
    fn tune_trace_covers_all_instrumented_layers() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-trace-test.json");
        let trace = std::env::temp_dir().join("acclaim-cli-tune-trace-test.jsonl");
        let _ = std::fs::remove_file(&trace);
        let args = tune_args(&["--trace-out", trace.to_str().unwrap()], &out);
        let report = run(&args, &Diag::new(true)).unwrap();
        assert!(report.contains("trace (jsonl) written"));
        let text = std::fs::read_to_string(&trace).unwrap();
        acclaim_obs::schema::validate_trace(&text).unwrap();
        // The trace must cover all four instrumented layers: the CLI,
        // the learner loop, the collection scheduler (sim-timeline slot
        // spans), and the network simulator.
        for needle in [
            "\"cat\":\"cli\"",
            "\"cat\":\"learner\"",
            "\"cat\":\"collect\"",
            "\"cat\":\"netsim\"",
            "netsim.roundsim.rounds",
            "learner.non_p2_injections",
        ] {
            assert!(text.contains(needle), "{needle} missing from trace");
        }
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace).ok();
    }

    fn str_field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(|x| x.as_str())
    }

    #[test]
    fn every_train_span_nests_under_the_tune_span_whichever_thread_trains() {
        // The four collectives train on the worker pool, so some train
        // on a helper thread; each `learner/train` span must still be a
        // child of `cli/tune`.
        let out = std::env::temp_dir().join("acclaim-cli-tune-nesting-test.json");
        let trace = std::env::temp_dir().join("acclaim-cli-tune-nesting-test.jsonl");
        let tokens = [
            "tune",
            "--nodes",
            "8",
            "--ppn",
            "2",
            "--min-msg",
            "64",
            "--max-msg",
            "4096",
            "--collectives",
            "bcast,reduce,allreduce,allgather",
            "--budget",
            "20",
            "--out",
            out.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ];
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        run(&args, &Diag::new(true)).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        acclaim_obs::schema::validate_trace(&text).unwrap();
        let spans: Vec<serde_json::Value> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .filter(|v: &serde_json::Value| str_field(v, "type") == Some("span"))
            .collect();
        let named = |cat: &str, name: &str| -> Vec<&serde_json::Value> {
            spans
                .iter()
                .filter(|v| str_field(v, "cat") == Some(cat) && str_field(v, "name") == Some(name))
                .collect()
        };
        let id_field = |v: &serde_json::Value, key: &str| v.get(key).and_then(|x| x.as_u64());
        let tune = named("cli", "tune");
        assert_eq!(tune.len(), 1);
        let trains = named("learner", "train");
        assert_eq!(trains.len(), 4);
        for train in trains {
            let parent = id_field(train, "parent");
            assert_eq!(parent, id_field(tune[0], "id"), "{train:?}");
        }
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn tune_chrome_trace_is_valid_json() {
        let out = std::env::temp_dir().join("acclaim-cli-tune-chrome-test.json");
        let trace = std::env::temp_dir().join("acclaim-cli-tune-chrome-test.trace");
        let args = tune_args(
            &[
                "--trace-out",
                trace.to_str().unwrap(),
                "--trace-format",
                "chrome",
            ],
            &out,
        );
        let report = run(&args, &Diag::new(true)).unwrap();
        assert!(report.contains("trace (chrome) written"));
        let text = std::fs::read_to_string(&trace).unwrap();
        // Top-level JSON array form of the trace_event format.
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        match v {
            serde_json::Value::Array(events) => assert!(events.len() > 10),
            other => panic!("expected an event array, got {other:?}"),
        }
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace).ok();
    }
}
