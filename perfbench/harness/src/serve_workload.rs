//! `serve-socket`: the real daemon on a Unix socket, driven in two
//! phases — cold `Tune`s of distinct signatures over one connection,
//! then closed-loop `Query` traffic with warm `Tune`s mixed in.

use crate::replay::{replay_store, replay_tune, Counts, TUNE_LAYERS};
use crate::serve::{check, codec_us, cold_tune, plan_reads, read_phase, scrape_phases};
use crate::trace::Tracer;
use crate::tune_workload::oracle_slowdowns;
use crate::util::{derive, mean, median, proc_cpu_s, proc_peak_rss_mb, quantile, Daemon};
use crate::{jobs::Job, Ctx, Report};
use acclaim_core::{Acclaim, JobTuning};
use acclaim_dataset::BenchmarkDatabase;
use acclaim_serve::loadgen::request_pool;
use acclaim_serve::protocol::{encode_request, WireRequest};
use acclaim_serve::TuneRequest;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const STREAM_POOL: u64 = 0x9001;

/// Store entries probed per traced run: a probe parses the whole entry.
const PROBES: usize = 4;

/// Run-length knobs, shrunk by `--reduced` for the self-test.
struct Knobs {
    /// Daemon start-ups the set-up median is taken over.
    setups: usize,
    /// Distinct signatures cold-tuned in the write phase.
    signatures: usize,
    /// Shortest read phase, seconds.
    min_read_secs: f64,
    /// Read phase of the traced run, seconds.
    traced_read_secs: f64,
}

fn knobs(reduced: bool) -> Knobs {
    if reduced {
        Knobs {
            setups: 2,
            signatures: 8,
            min_read_secs: 0.5,
            traced_read_secs: 0.5,
        }
    } else {
        Knobs {
            setups: 15,
            signatures: 512,
            min_read_secs: 3.0,
            traced_read_secs: 4.0,
        }
    }
}

fn pool(ctx: &Ctx, k: &Knobs) -> Vec<TuneRequest> {
    request_pool(k.signatures, derive(ctx.seed, STREAM_POOL, 0))
}

fn job_of(r: &TuneRequest) -> Job {
    Job {
        dataset: r.dataset.clone(),
        config: r.config.clone(),
        collectives: r.collectives.clone(),
    }
}

/// The generated inputs of a run: the write phase's `Tune` lines, then
/// the read phase's request lines.
pub fn print_inputs(ctx: &Ctx) {
    let k = knobs(ctx.reduced);
    let pool = pool(ctx, &k);
    for r in &pool {
        println!(
            "{}",
            encode_request(&WireRequest::Tune { request: r.clone() })
        );
    }
    for line in plan_reads(ctx.seed, &pool).lines.iter().flatten() {
        print!("{}", line.text);
    }
}

/// A fresh store directory (and its daemon socket) under the run dir.
fn fresh(ctx: &Ctx, name: &str) -> io::Result<(PathBuf, PathBuf)> {
    let store = ctx.dir.join(name);
    if store.exists() {
        std::fs::remove_dir_all(&store)?;
    }
    Ok((store, ctx.dir.join(format!("{name}.sock"))))
}

fn start(ctx: &Ctx, store: &Path, socket: &Path, extra: &[String]) -> io::Result<(Daemon, f64)> {
    Daemon::start(
        &ctx.acclaim,
        store,
        socket,
        extra,
        &ctx.dir.join("daemon.log"),
    )
}

/// Cold-tune every pool signature over one connection; round trips in
/// µs. Every reply must report a fresh training run.
fn write_phase(daemon: &Daemon, pool: &[TuneRequest], rep: &mut Report) -> io::Result<Vec<f64>> {
    let mut conn = daemon.connect()?;
    let mut rtt = Vec::with_capacity(pool.len());
    for r in pool {
        let (us, ok) = cold_tune(&mut conn, r)?;
        rep.op(ok);
        rtt.push(us);
    }
    Ok(rtt)
}

/// The in-process twin of every write-phase tune (a cold tune of the
/// same request on an empty store trains identically).
fn tune_in_process(pool: &[TuneRequest]) -> Vec<(Job, BenchmarkDatabase, JobTuning)> {
    pool.iter()
        .map(|r| {
            let job = job_of(r);
            let db = BenchmarkDatabase::new(job.dataset.clone());
            let tuning = Acclaim::new(job.config.clone()).tune(&db, &job.collectives);
            (job, db, tuning)
        })
        .collect()
}

/// Untraced run: the end-to-end metrics.
pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let k = knobs(ctx.reduced);
    let mut rep = Report::default();
    let pool = pool(ctx, &k);
    let plan = plan_reads(ctx.seed, &pool);

    // Set-up: spawn to first answered `Stats`, on a fresh store each
    // time; the last daemon stays up for the measurement.
    let mut setup = Vec::new();
    let mut running: Option<Daemon> = None;
    for _ in 0..k.setups {
        if let Some(d) = running.take() {
            d.shutdown()?;
        }
        let (store, socket) = fresh(ctx, "store")?;
        let (d, secs) = start(ctx, &store, &socket, &[])?;
        rep.op(true);
        setup.push(secs);
        running = Some(d);
    }
    let daemon = running.expect("at least one set-up");
    let pid = daemon.pid();

    let started = Instant::now();
    let cpu_before = proc_cpu_s(pid)?;
    let writes = write_phase(&daemon, &pool, &mut rep)?;
    let tune_cpu_s = (proc_cpu_s(pid)? - cpu_before) / pool.len() as f64;
    // Peak RSS holding every tuned signature; growth under read
    // traffic is the traced run's `serve.rss_kb_per_kreq`.
    let peak_rss_mb = proc_peak_rss_mb(pid)?;
    let read_secs = (ctx.seconds - started.elapsed().as_secs_f64()).max(k.min_read_secs);
    let read = read_phase(&daemon, &plan, Duration::from_secs_f64(read_secs))?;
    daemon.shutdown()?;

    // Exact metrics from the in-process twins, scored untimed over each
    // signature's whole (tiny) grid.
    let twins = tune_in_process(&pool);
    check(
        ctx,
        &pool,
        &plan,
        &read,
        |r| &twins[r].2.tuning_file,
        &mut rep,
    )?;
    let mut sim = Vec::new();
    let mut slowdowns = Vec::new();
    for (job, db, tuning) in &twins {
        sim.push(tuning.training_wall_us() / 60e6);
        let scored = oracle_slowdowns(db, job, &tuning.tuning_file, &job.config.space.points());
        rep.op(scored.is_some());
        slowdowns.extend(scored.into_iter().flatten());
    }

    rep.metric("setup_s", median(&setup), "s");
    rep.metric("tune_p50_s", median(&writes) / 1e6, "s");
    rep.metric("tune_cpu_s", tune_cpu_s, "s");
    rep.metric("sim_train_min", mean(&sim), "min");
    rep.metric("avg_slowdown", mean(&slowdowns), "ratio");
    rep.metric("p95_slowdown", quantile(&slowdowns, 0.95), "ratio");
    rep.metric("peak_rss_mb", peak_rss_mb, "MiB");
    rep.metric("warm_tune_p50_us", median(&read.tune_us), "us");
    rep.metric("query_p50_us", median(&read.query_us), "us");
    rep.metric(
        "query_rps",
        read.query_us.len() as f64 / read.elapsed_s,
        "1/s",
    );
    rep.metric("ok_share", rep.ok_share(), "ratio");
    eprintln!(
        "{} cold tunes (round trip ms p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2}), {} read-phase requests in {:.1} s",
        writes.len(),
        quantile(&writes, 0.1) / 1e3,
        quantile(&writes, 0.25) / 1e3,
        quantile(&writes, 0.5) / 1e3,
        quantile(&writes, 0.75) / 1e3,
        quantile(&writes, 0.9) / 1e3,
        read.attempted,
        read.elapsed_s
    );
    Ok(rep)
}

/// Traced run: the per-layer metrics of the write and read phases.
pub fn run_traced(ctx: &Ctx) -> io::Result<Report> {
    let k = knobs(ctx.reduced);
    let mut rep = Report::default();
    let pool = pool(ctx, &k);
    let plan = plan_reads(ctx.seed, &pool);

    // Both phases against an untraced daemon, with its phase scrape.
    let (store, socket) = fresh(ctx, "store")?;
    let (daemon, _) = start(ctx, &store, &socket, &[])?;
    let writes = write_phase(&daemon, &pool, &mut rep)?;
    let read = read_phase(&daemon, &plan, Duration::from_secs_f64(k.traced_read_secs))?;
    let phases = scrape_phases(&mut daemon.connect()?)?;
    daemon.shutdown()?;

    // The write phase again against a daemon tracing to a file.
    let (traced_store, traced_socket) = fresh(ctx, "traced-store")?;
    let trace_out = [
        "--trace-out".to_string(),
        ctx.dir.join("daemon-trace.jsonl").display().to_string(),
    ];
    let (traced, _) = start(ctx, &traced_store, &traced_socket, &trace_out)?;
    let traced_writes = write_phase(&traced, &pool, &mut rep)?;
    traced.shutdown()?;

    // Replay every write-phase tune in process.
    let twins = tune_in_process(&pool);
    let lib_us = check(
        ctx,
        &pool,
        &plan,
        &read,
        |r| &twins[r].2.tuning_file,
        &mut rep,
    )?;
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let replay_store_dir = ctx.dir.join("replay-store");
    for (job, db, tuning) in &twins {
        tr.span("replay", |tr| {
            replay_tune(tr, job, tuning, db.len(), &mut counts)
        });
        tr.span("replay", |tr| {
            replay_store(tr, &replay_store_dir, job, tuning, PROBES, &mut counts)
        })?;
    }
    rep.op(counts.mismatches == 0);
    let (decode_us, encode_us) = codec_us(&plan, &read.answers);
    tr.write_jsonl(&ctx.trace_path())?;

    // A write-phase tune is refit plus write-back behind the socket, so
    // the store's put joins the replayed layers.
    let e2e_ms = mean(&writes) / 1e3;
    let replayed_ms = (TUNE_LAYERS.iter().map(|l| tr.self_ms(l)).sum::<f64>()
        + tr.self_ms("store.put"))
        / counts.tunes as f64;
    crate::layer_metrics(&mut rep, &tr, &counts, e2e_ms, replayed_ms);
    crate::serve_layer_metrics(&mut rep, &read, decode_us, encode_us, lib_us, phases);
    rep.metric(
        "obs.trace_overhead",
        median(&traced_writes) / median(&writes),
        "ratio",
    );
    Ok(rep)
}
