//! Layer-attributed benchmark of the `acclaim` CLI and serve daemon.
//!
//! ```text
//! perfbench-harness --acclaim PATH --workload NAME --seed N --seconds S --trace 0|1
//!                   [--reduced] [--print-inputs]
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `tune-small` — cold `acclaim tune` processes at 32 nodes × 4 ppn
//!   up to 4 MiB: learner-bound (fit and variance scan);
//! * `tune-large` — the same at 64 × 32 (2048 ranks): simulator-bound;
//! * `serve-socket` — the `acclaim serve` daemon over its Unix socket:
//!   cold `Tune`s of distinct signatures, then closed-loop `Query`
//!   traffic with warm `Tune`s mixed in: protocol- and IO-bound.
//!
//! Every workload also serves its own tuned signatures through the
//! daemon, so each run reports every metric. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it re-runs the
//! seed's first operations and replays each layer's calls on their
//! inputs under in-memory spans, reporting per-layer metrics (spans go
//! to `.bench_run/traces/`). The program only ever sees generated
//! flags and request lines; everything derives from `--seed`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (name → value and unit).

mod jobs;
mod replay;
mod serve;
mod serve_workload;
mod trace;
mod tune_workload;
mod util;

use std::path::{Path, PathBuf};
use trace::Tracer;

/// One run's settings.
pub struct Ctx {
    /// The `acclaim` binary under test.
    pub acclaim: PathBuf,
    /// Scratch directory of this run (stores, sockets, tuning files).
    pub dir: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Shrink every run-length knob (the benchmark's self-test).
    pub reduced: bool,
}

impl Ctx {
    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        Path::new(RUN_ROOT)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// Operations attempted and failed, and the metrics of one run.
#[derive(Default)]
pub struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Count one operation; `ok` when it succeeded and its output
    /// passed the checks.
    pub fn op(&mut self, ok: bool) {
        self.ops(1, usize::from(!ok));
    }

    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Per-layer metrics shared by every workload, normalised per cold
/// tune. `e2e_ms` is the untraced time of one such tune and
/// `replayed_ms` the part the replayed layers account for.
pub fn layer_metrics(
    rep: &mut Report,
    tr: &Tracer,
    c: &replay::Counts,
    e2e_ms: f64,
    replayed_ms: f64,
) {
    let per_tune = |x: f64| x / c.tunes as f64;
    rep.metric("ml.fit_ms", per_tune(tr.self_ms("ml.fit")), "ms");
    rep.metric("ml.scan_ms", per_tune(tr.self_ms("ml.scan")), "ms");
    rep.metric("ml.flatten_ms", per_tune(tr.self_ms("ml.flatten")), "ms");
    rep.metric("ml.trees_refit", per_tune(c.trees_refit as f64), "count");
    rep.metric(
        "ml.cells_recomputed_share",
        c.cells_recomputed as f64 / c.cells_total as f64,
        "ratio",
    );
    let microbench_ms = tr.self_ms("netsim.microbench");
    rep.metric("netsim.microbench_ms", per_tune(microbench_ms), "ms");
    rep.metric(
        "netsim.microbench_calls",
        per_tune(c.microbench_calls as f64),
        "count",
    );
    rep.metric("netsim.msgs", per_tune(c.msgs as f64), "count");
    rep.metric(
        "netsim.ns_per_msg",
        microbench_ms * 1e6 / c.msgs as f64,
        "ns",
    );
    rep.metric("core.iterations", per_tune(c.iterations as f64), "count");
    rep.metric("core.points", per_tune(c.points as f64), "count");
    rep.metric("core.waves", per_tune(c.waves as f64), "count");
    rep.metric("core.rules_ms", per_tune(tr.self_ms("core.rules")), "ms");
    rep.metric(
        "dataset.entries",
        per_tune(c.dataset_entries as f64),
        "count",
    );
    rep.metric("core.other_ms", e2e_ms - replayed_ms, "ms");
    rep.metric("closure_ratio", replayed_ms / e2e_ms, "ratio");
    rep.metric(
        "store.put_ms",
        tr.self_ms("store.put") / c.store_puts as f64,
        "ms",
    );
    rep.metric(
        "store.probe_us",
        tr.self_ms("store.probe") * 1e3 / c.store_probes as f64,
        "us",
    );
    rep.metric(
        "store.entry_kb",
        c.store_bytes as f64 / 1024.0 / c.store_puts as f64,
        "KiB",
    );
}

/// Serve-layer metrics: codec and in-process query costs, the socket
/// remainder of the median `Query` round trip, the daemon's own phase
/// means (queue wait, refit, write-back), the `Query` tail, and how
/// fast the daemon's resident memory grows under read traffic. The
/// tail is reported here rather than end to end because on a shared
/// two-core host its run-to-run spread reached the end-to-end bound.
pub fn serve_layer_metrics(
    rep: &mut Report,
    read: &serve::ReadOutcome,
    decode_us: f64,
    encode_us: f64,
    lib_us: f64,
    phases: [f64; 3],
) {
    let query_rtt_us = util::median(&read.query_us);
    rep.metric("serve.decode_us", decode_us, "us");
    rep.metric("serve.encode_us", encode_us, "us");
    rep.metric("serve.query_lib_us", lib_us, "us");
    rep.metric(
        "serve.socket_us",
        query_rtt_us - decode_us - lib_us - encode_us,
        "us",
    );
    rep.metric("serve.queue_wait_us", phases[0], "us");
    rep.metric("serve.refit_us", phases[1], "us");
    rep.metric("serve.write_back_us", phases[2], "us");
    rep.metric("query_p99_us", util::quantile(&read.query_us, 0.99), "us");
    rep.metric(
        "serve.rss_kb_per_kreq",
        read.rss_growth_mb * 1024.0 * 1e3 / read.attempted as f64,
        "KiB",
    );
}

/// Scratch root, relative to the checkout the benchmark runs in.
const RUN_ROOT: &str = ".bench_run";

const WORKLOADS: [&str; 3] = ["tune-small", "tune-large", "serve-socket"];

fn parse_args() -> Result<(Ctx, bool, bool), String> {
    let mut acclaim = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut reduced, mut print_inputs) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--acclaim" => acclaim = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--reduced" => reduced = true,
            "--print-inputs" => print_inputs = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join(" | ")
        ));
    }
    let seed = seed.ok_or("missing --seed")?;
    let seconds = seconds.unwrap_or(0.0);
    let positive = seconds > 0.0; // false for NaN
    if !print_inputs && !positive {
        return Err("--seconds must be positive".into());
    }
    let dir = Path::new(RUN_ROOT).join(format!("{workload}-seed{seed}-pid{}", std::process::id()));
    Ok((
        Ctx {
            acclaim: acclaim.unwrap_or_default(),
            dir,
            workload,
            seed,
            seconds,
            reduced,
        },
        trace.unwrap_or(false),
        print_inputs,
    ))
}

fn run(ctx: &Ctx, traced: bool) -> std::io::Result<Report> {
    if !ctx.acclaim.is_file() {
        return Err(std::io::Error::other(format!(
            "no acclaim binary at {}",
            ctx.acclaim.display()
        )));
    }
    std::fs::create_dir_all(&ctx.dir)?;
    std::fs::create_dir_all(ctx.trace_path().parent().expect("trace dir"))?;
    let result = match (ctx.workload.as_str(), traced) {
        ("tune-small", false) => tune_workload::run(ctx, &tune_workload::SMALL),
        ("tune-small", true) => tune_workload::run_traced(ctx, &tune_workload::SMALL),
        ("tune-large", false) => tune_workload::run(ctx, &tune_workload::LARGE),
        ("tune-large", true) => tune_workload::run_traced(ctx, &tune_workload::LARGE),
        ("serve-socket", false) => serve_workload::run(ctx),
        (_, _) => serve_workload::run_traced(ctx),
    };
    std::fs::remove_dir_all(&ctx.dir)?;
    result
}

fn main() {
    let (ctx, traced, print_inputs) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    if print_inputs {
        match ctx.workload.as_str() {
            "tune-small" => tune_workload::print_inputs(&ctx, &tune_workload::SMALL),
            "tune-large" => tune_workload::print_inputs(&ctx, &tune_workload::LARGE),
            _ => serve_workload::print_inputs(&ctx),
        }
        return;
    }
    match run(&ctx, traced)
        .map_err(|e| e.to_string())
        .and_then(|rep| rep.to_json())
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-harness: {} failed: {e}", ctx.workload);
            let _ = std::fs::remove_dir_all(&ctx.dir);
            std::process::exit(1);
        }
    }
}
