//! `tune-small` and `tune-large`: cold `acclaim tune` processes at one
//! job shape, then the daemon serving that shape's signature.

use crate::jobs::{Job, Shape};
use crate::replay::{replay_store, replay_tune, Counts, TUNE_LAYERS};
use crate::serve::{
    check, codec_us, cold_tune, plan_reads, read_phase, scrape_phases, ReadOutcome, ReadPlan,
    Reader,
};
use crate::trace::Tracer;
use crate::util::{derive, mean, median, quantile, run_measured, Daemon, Usage};
use crate::{Ctx, Report};
use acclaim_core::{Acclaim, TuningFile};
use acclaim_dataset::{BenchmarkDatabase, FeatureSpace, Point};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::io;
use std::time::{Duration, Instant};

const STREAM_TUNE: u64 = 0x7E5E;
const STREAM_WARMUP: u64 = 0x3A53;
const STREAM_ORACLE: u64 = 0x04AC;

/// Store entries probed per traced run: a probe parses the whole entry,
/// which takes seconds at these shapes.
const PROBES: usize = 1;

/// A tune workload: a job shape and how much of it one run measures.
pub struct TuneWorkload {
    pub shape: Shape,
    /// Cold tunes the exact metrics cover; the timed loop runs at
    /// least this many, whatever `--seconds` says.
    pub exact_tunes: usize,
    /// Grid points per collective on which the oracle scores a tune.
    pub oracle_points: usize,
    /// Set-up tunes the `setup_s` median is taken over.
    pub warmups: usize,
}

/// 32 nodes × 4 ppn with a wide message grid: many learner iterations
/// over cheap simulations, so ml dominates.
pub const SMALL: TuneWorkload = TuneWorkload {
    shape: Shape {
        nodes: 32,
        ppn: 4,
        max_msg: Some(4_194_304),
    },
    exact_tunes: 20,
    oracle_points: 48,
    warmups: 15,
};

/// 64 nodes × 32 ppn (2048 ranks): the simulator prices large
/// schedules, so netsim dominates.
pub const LARGE: TuneWorkload = TuneWorkload {
    shape: Shape {
        nodes: 64,
        ppn: 32,
        max_msg: None,
    },
    exact_tunes: 20,
    oracle_points: 16,
    warmups: 5,
};

/// Run-length knobs, shrunk by `--reduced` for the self-test.
struct Knobs {
    warmups: usize,
    exact_tunes: usize,
    oracle_points: usize,
    /// Share of `--seconds` given to the read phase, split into one
    /// window after each of the first `exact_tunes` cold tunes (and as
    /// long again after each later one); the cold tunes get the rest.
    read_share: f64,
    traced_repeats: usize,
}

impl Knobs {
    fn read_secs(&self, seconds: f64) -> f64 {
        (seconds * self.read_share).max(MIN_READ_SECS)
    }
}

/// Shortest read phase, seconds.
const MIN_READ_SECS: f64 = 0.3;

impl TuneWorkload {
    fn knobs(&self, reduced: bool) -> Knobs {
        if reduced {
            Knobs {
                warmups: 1,
                exact_tunes: 2,
                oracle_points: 4,
                read_share: 0.0,
                traced_repeats: 1,
            }
        } else {
            Knobs {
                warmups: self.warmups,
                exact_tunes: self.exact_tunes,
                oracle_points: self.oracle_points,
                read_share: 0.2,
                traced_repeats: 3,
            }
        }
    }
}

/// Seed of the `i`-th cold tune of a run.
fn tune_seed(seed: u64, i: usize) -> u64 {
    derive(seed, STREAM_TUNE, i as u64)
}

/// Arguments of the `j`-th set-up tune: the workload's flags, capped at
/// one learner iteration.
fn warmup_args(shape: &Shape, seed: u64, j: usize, out: &str) -> Vec<String> {
    let mut args = shape.tune_args(derive(seed, STREAM_WARMUP, j as u64), out);
    args.extend(["--max-iterations".to_string(), "1".to_string()]);
    args
}

/// One finished `acclaim tune` process and its checked output.
struct CliTune {
    usage: Usage,
    /// Simulated machine minutes spent collecting ("total training
    /// time" in the report).
    sim_min: f64,
    /// Deterministic report lines: per-collective points, waves, and
    /// simulated minutes.
    summary: Vec<String>,
    file_text: String,
    file: TuningFile,
}

impl CliTune {
    fn same_result(&self, other: &CliTune) -> bool {
        self.sim_min == other.sim_min
            && self.summary == other.summary
            && self.file_text == other.file_text
    }
}

/// The tuning file covers every requested collective and every grid
/// (nodes, ppn) context with a complete rule set.
fn covers(file: &TuningFile, job: &Job) -> bool {
    let space = &job.config.space;
    file.collectives.len() == job.collectives.len()
        && job.collectives.iter().all(|&c| {
            file.collectives.iter().any(|table| {
                table.collective == c
                    && table.contexts.iter().all(|ctx| ctx.is_complete())
                    && space.nodes.iter().all(|&n| {
                        space.ppns.iter().all(|&p| {
                            table
                                .contexts
                                .iter()
                                .any(|ctx| ctx.nodes == n && ctx.ppn == p)
                        })
                    })
            })
        })
}

/// Run the CLI once and check its output. `None` when the process
/// failed or its output did not pass the checks.
fn cli_tune(
    ctx: &Ctx,
    args: Vec<String>,
    out: &std::path::Path,
    job: &Job,
) -> io::Result<Option<CliTune>> {
    let _ = std::fs::remove_file(out);
    let (usage, report) = run_measured(&ctx.acclaim, &args, &ctx.dir.join("cli.err"))?;
    if !usage.success {
        return Ok(None);
    }
    let sim_min = report
        .lines()
        .find_map(|l| l.strip_prefix("total training time:"))
        .and_then(|v| v.trim().trim_end_matches("min").trim().parse::<f64>().ok());
    let summary = report
        .lines()
        .filter(|l| l.contains(" points "))
        .map(str::to_string)
        .collect();
    let Ok(file_text) = std::fs::read_to_string(out) else {
        return Ok(None);
    };
    let file = serde_json::from_str(&file_text)
        .ok()
        .and_then(|v| TuningFile::from_mpich_json(&v).ok())
        .filter(|f| covers(f, job));
    Ok(match (sim_min, file) {
        (Some(sim_min), Some(file)) => Some(CliTune {
            usage,
            sim_min,
            summary,
            file_text,
            file,
        }),
        _ => None,
    })
}

/// A seeded subset of the trained grid on which the oracle scores the
/// `i`-th cold tune; each tune gets its own subset.
fn oracle_points(space: &FeatureSpace, seed: u64, i: usize, n: usize) -> Vec<Point> {
    let mut points = space.points();
    points.shuffle(&mut StdRng::seed_from_u64(derive(
        seed,
        STREAM_ORACLE,
        i as u64,
    )));
    points.truncate(n);
    points
}

/// Slowdown of `file`'s picks against the simulated oracle's best at
/// every point of `points`, for every collective of `job`. `None` when
/// the file has no table for one of them.
pub fn oracle_slowdowns(
    db: &BenchmarkDatabase,
    job: &Job,
    file: &TuningFile,
    points: &[Point],
) -> Option<Vec<f64>> {
    let mut slowdowns = Vec::new();
    for &c in &job.collectives {
        db.prefill_points(c, points);
        for &p in points {
            slowdowns.push(db.slowdown(p, file.select(c, p)?));
        }
    }
    Some(slowdowns)
}

/// The generated inputs of a run: every CLI argument list of its
/// set-up and first cold tunes, and the read-phase request lines.
pub fn print_inputs(ctx: &Ctx, w: &TuneWorkload) {
    let k = w.knobs(ctx.reduced);
    for j in 0..k.warmups {
        println!(
            "{}",
            warmup_args(&w.shape, ctx.seed, j, "tuning.json").join(" ")
        );
    }
    for i in 0..64 {
        println!(
            "{}",
            w.shape
                .tune_args(tune_seed(ctx.seed, i), "tuning.json")
                .join(" ")
        );
    }
    for line in read_plan(ctx, w).lines.iter().flatten() {
        print!("{}", line.text);
    }
}

fn read_plan(ctx: &Ctx, w: &TuneWorkload) -> ReadPlan {
    let request = w.shape.job(tune_seed(ctx.seed, 0)).request();
    plan_reads(ctx.seed, std::slice::from_ref(&request))
}

/// A fresh daemon that cold-tuned the first job, ready to serve its
/// signature.
fn serve_first(ctx: &Ctx, w: &TuneWorkload, rep: &mut Report) -> io::Result<Daemon> {
    let job = w.shape.job(tune_seed(ctx.seed, 0));
    let (daemon, _) = Daemon::start(
        &ctx.acclaim,
        &ctx.dir.join("store"),
        &ctx.dir.join("d.sock"),
        &[],
        &ctx.dir.join("daemon.log"),
    )?;
    let (_, ok) = cold_tune(&mut daemon.connect()?, &job.request())?;
    rep.op(ok);
    Ok(daemon)
}

/// Scrape the daemon's phase means, shut it down, and check the read
/// phase's answers against an in-process service that tuned the same
/// job and against the CLI's tuning file `first`. Returns the phase
/// means (µs: queue wait, refit, write-back) and the in-process query
/// time (µs).
fn finish_serving(
    ctx: &Ctx,
    w: &TuneWorkload,
    daemon: Daemon,
    plan: &ReadPlan,
    read: &ReadOutcome,
    first: &CliTune,
    rep: &mut Report,
) -> io::Result<([f64; 3], f64)> {
    let phases = scrape_phases(&mut daemon.connect()?)?;
    daemon.shutdown()?;
    let request = w.shape.job(tune_seed(ctx.seed, 0)).request();
    let lib_us = check(
        ctx,
        std::slice::from_ref(&request),
        plan,
        read,
        |_| &first.file,
        rep,
    )?;
    Ok((phases, lib_us))
}

/// Untraced run: the end-to-end metrics.
pub fn run(ctx: &Ctx, w: &TuneWorkload) -> io::Result<Report> {
    let k = w.knobs(ctx.reduced);
    let mut rep = Report::default();
    let out = ctx.dir.join("tuning.json");
    let out_arg = out.display().to_string();

    // Set-up: warm-up tunes (binary load, page cache, simulator
    // bring-up, corner seeding, first fit), median of several.
    let mut setup = Vec::new();
    for j in 0..k.warmups {
        let job = w.shape.job(derive(ctx.seed, STREAM_WARMUP, j as u64));
        let run = cli_tune(
            ctx,
            warmup_args(&w.shape, ctx.seed, j, &out_arg),
            &out,
            &job,
        )?;
        rep.op(run.is_some());
        setup.extend(run.map(|t| t.usage.wall_s));
    }

    // Timed cold tunes, each on its own derived seed, each followed by
    // a read window against a daemon serving the first job, so both
    // sample the whole run.
    let daemon = serve_first(ctx, w, &mut rep)?;
    let plan = read_plan(ctx, w);
    let mut reader = Reader::open(&daemon, &plan)?;
    let window = Duration::from_secs_f64(k.read_secs(ctx.seconds) / k.exact_tunes as f64);
    let started = Instant::now();
    let mut tunes: Vec<(usize, CliTune)> = Vec::new();
    let mut i = 0;
    while i < k.exact_tunes || started.elapsed().as_secs_f64() < ctx.seconds {
        let seed = tune_seed(ctx.seed, i);
        let run = cli_tune(
            ctx,
            w.shape.tune_args(seed, &out_arg),
            &out,
            &w.shape.job(seed),
        )?;
        rep.op(run.is_some());
        tunes.extend(run.map(|t| (i, t)));
        i += 1;
        reader.window(window)?;
    }
    let read = reader.finish();
    let Some((0, first)) = tunes.first() else {
        return Err(io::Error::other("the first cold tune failed"));
    };

    // A repeat of the first seed must reproduce it exactly.
    let job0 = w.shape.job(tune_seed(ctx.seed, 0));
    let again = cli_tune(
        ctx,
        w.shape.tune_args(tune_seed(ctx.seed, 0), &out_arg),
        &out,
        &job0,
    )?;
    rep.op(again.is_some_and(|a| a.same_result(first)));

    finish_serving(ctx, w, daemon, &plan, &read, first, &mut rep)?;

    // Exact metrics over the first `exact_tunes` seeds, scored untimed.
    let exact: Vec<&(usize, CliTune)> = tunes.iter().filter(|(i, _)| *i < k.exact_tunes).collect();
    let mut slowdowns = Vec::new();
    for (i, t) in &exact {
        let job = w.shape.job(tune_seed(ctx.seed, *i));
        let points = oracle_points(&job.config.space, ctx.seed, *i, k.oracle_points);
        let db = BenchmarkDatabase::new(job.dataset.clone());
        let scored = oracle_slowdowns(&db, &job, &t.file, &points);
        rep.op(scored.is_some());
        slowdowns.extend(scored.into_iter().flatten());
    }
    if slowdowns.is_empty() {
        return Err(io::Error::other("no tune could be scored"));
    }

    let timed: Vec<&CliTune> = tunes.iter().map(|(_, t)| t).collect();
    let sim: Vec<f64> = exact.iter().map(|(_, t)| t.sim_min).collect();
    rep.metric("setup_s", median(&setup), "s");
    rep.metric(
        "tune_p50_s",
        median(&timed.iter().map(|t| t.usage.wall_s).collect::<Vec<_>>()),
        "s",
    );
    rep.metric(
        "tune_cpu_s",
        median(&timed.iter().map(|t| t.usage.cpu_s).collect::<Vec<_>>()),
        "s",
    );
    rep.metric("sim_train_min", mean(&sim), "min");
    rep.metric("avg_slowdown", mean(&slowdowns), "ratio");
    rep.metric("p95_slowdown", quantile(&slowdowns, 0.95), "ratio");
    rep.metric(
        "peak_rss_mb",
        median(
            &timed
                .iter()
                .map(|t| t.usage.peak_rss_mb)
                .collect::<Vec<_>>(),
        ),
        "MiB",
    );
    rep.metric("warm_tune_p50_us", median(&read.tune_us), "us");
    rep.metric("query_p50_us", median(&read.query_us), "us");
    rep.metric(
        "query_rps",
        read.query_us.len() as f64 / read.elapsed_s,
        "1/s",
    );
    rep.metric("ok_share", rep.ok_share(), "ratio");
    let walls: Vec<String> = timed
        .iter()
        .map(|t| format!("{:.2}", t.usage.wall_s))
        .collect();
    eprintln!(
        "{} cold tunes ({} exact; wall s: {}), {} read-phase requests",
        timed.len(),
        exact.len(),
        walls.join(" "),
        read.attempted
    );
    Ok(rep)
}

/// Traced run: the per-layer metrics of the first seed's tune.
pub fn run_traced(ctx: &Ctx, w: &TuneWorkload) -> io::Result<Report> {
    let k = w.knobs(ctx.reduced);
    let mut rep = Report::default();
    let out = ctx.dir.join("tuning.json");
    let out_arg = out.display().to_string();
    let seed0 = tune_seed(ctx.seed, 0);
    let job = w.shape.job(seed0);

    // The measured tune end to end, untraced and with --trace-out,
    // alternating; every repeat must reproduce the first.
    let trace_out = ctx.dir.join("cli-trace.jsonl").display().to_string();
    let mut reference: Option<CliTune> = None;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..k.traced_repeats {
        for traced in [false, true] {
            let mut args = w.shape.tune_args(seed0, &out_arg);
            if traced {
                args.extend(["--trace-out".to_string(), trace_out.clone()]);
            }
            let run = cli_tune(ctx, args, &out, &job)?;
            let Some(run) = run else {
                rep.op(false);
                continue;
            };
            rep.op(reference.as_ref().is_none_or(|r| r.same_result(&run)));
            (if traced { &mut traced_s } else { &mut plain_s }).push(run.usage.wall_s);
            reference.get_or_insert(run);
        }
    }
    let (Some(reference), false, false) = (reference, plain_s.is_empty(), traced_s.is_empty())
    else {
        return Err(io::Error::other("the measured tune failed"));
    };
    let e2e_ms = median(&plain_s) * 1e3;

    // The same tune in process; its tuning file must equal the CLI's
    // byte for byte, so the replay below sees the measured run's inputs.
    let db = BenchmarkDatabase::new(job.dataset.clone());
    let tuning = Acclaim::new(job.config.clone()).tune(&db, &job.collectives);
    let text = serde_json::to_string_pretty(&tuning.tuning_file.to_mpich_json())
        .map_err(|e| io::Error::other(e.to_string()))?;
    rep.op(text == reference.file_text);

    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    tr.span("replay", |tr| {
        replay_tune(tr, &job, &tuning, db.len(), &mut counts)
    });
    tr.span("replay", |tr| {
        replay_store(
            tr,
            &ctx.dir.join("replay-store"),
            &job,
            &tuning,
            PROBES,
            &mut counts,
        )
    })?;
    rep.op(counts.mismatches == 0);

    let daemon = serve_first(ctx, w, &mut rep)?;
    let plan = read_plan(ctx, w);
    let read = read_phase(
        &daemon,
        &plan,
        Duration::from_secs_f64(k.read_secs(ctx.seconds)),
    )?;
    let (phases, lib_us) = finish_serving(ctx, w, daemon, &plan, &read, &reference, &mut rep)?;
    let (decode_us, encode_us) = codec_us(&plan, &read.answers);
    tr.write_jsonl(&ctx.trace_path())?;

    let replayed_ms: f64 = TUNE_LAYERS.iter().map(|l| tr.self_ms(l)).sum();
    crate::layer_metrics(&mut rep, &tr, &counts, e2e_ms, replayed_ms);
    crate::serve_layer_metrics(&mut rep, &read, decode_us, encode_us, lib_us, phases);
    rep.metric(
        "obs.trace_overhead",
        median(&traced_s) / median(&plain_s),
        "ratio",
    );
    Ok(rep)
}
