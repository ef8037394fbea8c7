//! `acclaim serve` / `acclaim client` — tuning-as-a-service over a
//! local socket.
//!
//! `serve` runs the daemon: a [`acclaim_serve::TuneService`] listening
//! on a Unix socket, speaking the line-delimited JSON protocol of
//! [`acclaim_serve::protocol`]. One request per line, one response per
//! line; `Tune` blocks its connection until the job finishes
//! (identical concurrent requests coalesce server-side).
//!
//! `client` is the matching client. An op (positional, or `--op`) of
//! `tune|query|observe|drift|stats|metrics|trace|watch|shutdown` sends
//! requests: `metrics` scrapes the live metrics (Prometheus text, or
//! the JSON exposition with `--json`), `trace` dumps recent
//! flight-recorder records, `observe` feeds back observed costs at
//! `--factor ×` the served prediction (exercising the drift policy),
//! `drift` reports the detector's per-signature state, and `watch`
//! polls a refreshing one-line summary. `--load N`
//! drives N deterministic tune sessions (each with follow-up queries
//! and drift observations) over `--clients` concurrent connections
//! using the seeded request pool from [`acclaim_serve::loadgen`] — the
//! first summary line it prints (including the run fingerprint) depends
//! only on `--seed`, never on scheduling, so CI can assert on it
//! verbatim; a second line reports client-observed latency quantiles.

use crate::args::Args;
use crate::trace::TraceOutputs;
use acclaim_obs::Diag;

#[cfg(unix)]
pub use unix::{client, serve};

#[cfg(not(unix))]
pub fn serve(_args: &Args, _diag: &Diag) -> Result<String, String> {
    Err("`acclaim serve` requires Unix domain sockets (unsupported on this platform)".into())
}

#[cfg(not(unix))]
pub fn client(_args: &Args, _diag: &Diag) -> Result<String, String> {
    Err("`acclaim client` requires Unix domain sockets (unsupported on this platform)".into())
}

/// Shared option parsing: the socket path.
fn socket_path(args: &Args) -> String {
    args.get_or("socket", "acclaim-serve.sock").to_string()
}

#[cfg(unix)]
mod unix {
    use super::*;
    use acclaim_dataset::BenchmarkDatabase;
    use acclaim_obs::{FlightRecorder, HistogramSnapshot, Obs};
    use acclaim_serve::protocol::{
        decode_request, decode_response, encode_request, encode_response, handle_request,
        WireRequest, WireResponse,
    };
    use acclaim_serve::{loadgen, DriftConfig, Priority, QueryRequest, ServeConfig, TuneService};
    use acclaim_store::EntryFormat;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    fn parse_priority(args: &Args) -> Result<Priority, String> {
        match args.get_or("priority", "normal") {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!(
                "unknown --priority '{other}' (low | normal | high)"
            )),
        }
    }

    /// `acclaim serve --store DIR [--socket PATH] [--workers N]
    /// [--slots N] [--shards N] [--format json|binary] [--flight N]
    /// [--slow-log FACTOR] [--cache-cap N] [--drift-band B]
    /// [--drift-min-obs N] [--drift-cooldown N] [--drift-deweight W]
    /// [--drift-max-signatures N]`
    ///
    /// `--drift-band` > 1 arms the drift policy engine: signatures
    /// whose mean observed/predicted ratio leaves `[1/B, B]` get a
    /// Low-priority warm re-tune queued automatically. The default
    /// band (0) keeps the daemon measurement-only.
    ///
    /// Runs until a client sends `Shutdown`; the exit report prints the
    /// `serve.*`/`drift.*` counters and gauges plus phase-latency
    /// quantiles.
    pub fn serve(args: &Args, diag: &Diag) -> Result<String, String> {
        let dir = args
            .get("store")
            .ok_or("missing required option --store DIR")?
            .to_string();
        let socket = socket_path(args);
        let (obs, outputs) = TraceOutputs::from_args(args)?;
        // The service's counters are the daemon's exit report either way;
        // without a trace output no span is kept, so a long-running
        // daemon's recorder stays bounded.
        let obs = if obs.is_enabled() {
            obs
        } else {
            acclaim_obs::Obs::metrics_only()
        };
        let config = ServeConfig {
            workers: args.num_or("workers", 2usize)?,
            slots: args.num_or("slots", 4usize)?,
            shards: args.num_or("shards", 16usize)?,
            format: match args.get_or("format", "binary") {
                "json" => EntryFormat::Json,
                "binary" => EntryFormat::Binary,
                other => return Err(format!("unknown --format '{other}' (json | binary)")),
            },
            flight_capacity: args.num_or("flight", 256usize)?,
            slow_log_factor: args.get_num::<f64>("slow-log")?,
            cache_capacity: args.num_or("cache-cap", 0usize)?,
            drift: {
                let defaults = DriftConfig::default();
                DriftConfig {
                    band: args.num_or("drift-band", defaults.band)?,
                    min_obs: args.num_or("drift-min-obs", defaults.min_obs)?,
                    cooldown_obs: args.num_or("drift-cooldown", defaults.cooldown_obs)?,
                    deweight: args.num_or("drift-deweight", defaults.deweight)?,
                    max_signatures: args.num_or("drift-max-signatures", defaults.max_signatures)?,
                }
            },
            diag: *diag,
            ..ServeConfig::default()
        };

        // A leftover socket file from a dead daemon is reclaimable; a
        // live one is not.
        if std::path::Path::new(&socket).exists() {
            if UnixStream::connect(&socket).is_ok() {
                return Err(format!("socket {socket} is in use by a running daemon"));
            }
            std::fs::remove_file(&socket).map_err(|e| format!("removing stale {socket}: {e}"))?;
        }
        let listener = UnixListener::bind(&socket).map_err(|e| format!("binding {socket}: {e}"))?;
        let service = Arc::new(
            TuneService::open(&dir, config, obs.clone())
                .map_err(|e| format!("opening store {dir}: {e}"))?,
        );
        diag.progress(&format!(
            "serving store {dir} on {socket} ({} cached signatures)",
            service.shared().len()
        ));

        let stop = Arc::new(AtomicBool::new(false));
        let conns: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
        for incoming in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            let service = service.clone();
            let stop = stop.clone();
            let socket = socket.clone();
            let handle = std::thread::spawn(move || {
                handle_connection(stream, &service, &stop, &socket);
            });
            conns.lock().unwrap().push(handle);
        }
        for handle in conns.into_inner().unwrap() {
            let _ = handle.join();
        }
        service.shutdown();
        std::fs::remove_file(&socket).ok();

        let snap = obs.snapshot();
        let telemetry = |name: &str| name.starts_with("serve.") || name.starts_with("drift.");
        let counters: Vec<String> = snap
            .metrics
            .counters
            .iter()
            .filter(|(name, _)| telemetry(name))
            .map(|(name, value)| format!("{}={value}", name.trim_start_matches("serve.")))
            .collect();
        let mut report = format!(
            "serve counters (obs): {}\n",
            if counters.is_empty() {
                "none recorded".to_string()
            } else {
                counters.join(" ")
            }
        );
        let gauges: Vec<String> = snap
            .metrics
            .gauges
            .iter()
            .filter(|(name, _)| telemetry(name))
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        if !gauges.is_empty() {
            report.push_str(&format!("serve gauges (obs): {}\n", gauges.join(" ")));
        }
        for (name, hist) in snap
            .metrics
            .histograms
            .iter()
            .filter(|(name, hist)| telemetry(name) && hist.count > 0)
        {
            report.push_str(&format!(
                "serve histogram {name}: count={} p50={:.0}us p95={:.0}us p99={:.0}us\n",
                hist.count,
                hist.quantile(0.5),
                hist.quantile(0.95),
                hist.quantile(0.99),
            ));
        }
        for line in outputs.write(&obs)? {
            report.push_str(&line);
            report.push('\n');
        }
        Ok(report)
    }

    /// Longest request line the daemon buffers, in bytes. Requests are
    /// a few KiB at most; a longer line is answered with an error and
    /// discarded up to its newline.
    const MAX_REQUEST_LINE: usize = 1 << 20;

    fn handle_connection(
        stream: UnixStream,
        service: &TuneService,
        stop: &AtomicBool,
        socket: &str,
    ) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match (&mut reader)
                .take(MAX_REQUEST_LINE as u64 + 1)
                .read_until(b'\n', &mut buf)
            {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            // A line that is too long or not UTF-8 gets an error reply;
            // the connection stays open for the next one.
            let too_long = buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n');
            let (response, shutdown) = if too_long {
                let _ = reader.skip_until(b'\n');
                let message = format!("bad request: line longer than {MAX_REQUEST_LINE} bytes");
                (WireResponse::Error { message }, false)
            } else {
                match std::str::from_utf8(&buf) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => match decode_request(line) {
                        Ok(request) => handle_request(service, request),
                        Err(message) => (WireResponse::Error { message }, false),
                    },
                    Err(e) => (
                        WireResponse::Error {
                            message: format!("bad request: {e}"),
                        },
                        false,
                    ),
                }
            };
            let mut payload = encode_response(&response);
            payload.push('\n');
            if writer.write_all(payload.as_bytes()).is_err() {
                break;
            }
            let _ = writer.flush();
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so the daemon can exit.
                let _ = UnixStream::connect(socket);
                break;
            }
        }
    }

    /// One connected client: send a line, read a line.
    struct Connection {
        reader: BufReader<UnixStream>,
        writer: UnixStream,
    }

    impl Connection {
        fn open(socket: &str, wait_secs: u64) -> Result<Connection, String> {
            // --wait-server: the daemon may still be binding.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait_secs);
            let stream = loop {
                match UnixStream::connect(socket) {
                    Ok(s) => break s,
                    Err(e) => {
                        if std::time::Instant::now() >= deadline {
                            return Err(format!("connecting to {socket}: {e}"));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                }
            };
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| format!("cloning socket: {e}"))?,
            );
            Ok(Connection {
                reader,
                writer: stream,
            })
        }

        fn round_trip(&mut self, request: &WireRequest) -> Result<WireResponse, String> {
            let mut line = encode_request(request);
            line.push('\n');
            self.writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("sending request: {e}"))?;
            self.writer.flush().map_err(|e| format!("flushing: {e}"))?;
            let mut reply = String::new();
            self.reader
                .read_line(&mut reply)
                .map_err(|e| format!("reading response: {e}"))?;
            if reply.is_empty() {
                return Err("server closed the connection".into());
            }
            decode_response(&reply)
        }
    }

    /// `acclaim client [--socket PATH] [--wait-server SECS]
    /// (<op> | --op OP | --load N)` where OP is
    /// `tune|query|observe|drift|stats|metrics|trace|watch|shutdown`,
    /// plus the request shape options (`--pool`, `--pool-index`,
    /// `--seed`, `--priority`, `--clients`, `--queries`, `--nodes`,
    /// `--ppn`, `--msg`, `--last`, `--json`, `--refresh`,
    /// `--interval-ms`, `--count`, `--factor`).
    pub fn client(args: &Args, diag: &Diag) -> Result<String, String> {
        let socket = socket_path(args);
        let wait = args.num_or("wait-server", 0u64)?;
        let seed = args.num_or("seed", 0u64)?;
        let pool_size = args.num_or("pool", 16usize)?.max(1);

        if let Some(sessions) = args.get_num::<usize>("load")? {
            return load(args, diag, &socket, wait, seed, pool_size, sessions);
        }

        let mut conn = Connection::open(&socket, wait)?;
        // `client metrics` and `client --op metrics` are equivalent;
        // the positional form reads better for the telemetry verbs.
        let op = match args.action.as_deref() {
            Some(action) => action,
            None => args.get_or("op", "stats"),
        };
        if op == "watch" {
            return watch(args, diag, &mut conn);
        }
        if op == "observe" {
            return observe(args, &mut conn, seed, pool_size);
        }
        let request = match op {
            "tune" => {
                let index = args.num_or("pool-index", 0usize)?;
                let pool = loadgen::request_pool(pool_size.max(index + 1), seed);
                let mut request = pool[index].clone();
                request.priority = parse_priority(args)?;
                WireRequest::Tune { request }
            }
            "query" => {
                let index = args.num_or("pool-index", 0usize)?;
                let pool = loadgen::request_pool(pool_size.max(index + 1), seed);
                let base = &pool[index];
                WireRequest::Query {
                    request: QueryRequest {
                        dataset: base.dataset.clone(),
                        config: base.config.clone(),
                        collective: base.collectives[0],
                        point: acclaim_dataset::Point::new(
                            args.num_or("nodes", 2u32)?,
                            args.num_or("ppn", 2u32)?,
                            args.num_or("msg", 1024u64)?,
                        ),
                    },
                }
            }
            "stats" => WireRequest::Stats,
            "drift" => WireRequest::DriftStatus,
            "metrics" => WireRequest::Metrics,
            "trace" => WireRequest::Trace {
                last: args.num_or("last", 32u64)?,
            },
            "shutdown" => WireRequest::Shutdown,
            other => {
                return Err(format!(
                    "unknown op '{other}' (tune | query | observe | drift | stats | metrics | \
                     trace | watch | shutdown)"
                ))
            }
        };
        let response = conn.round_trip(&request)?;
        render_response(&response, args.flag("json"))
    }

    /// `client watch`: poll stats + metrics every `--interval-ms`,
    /// emitting one summary line per refresh through `diag` (so it
    /// streams) and returning the transcript. `--refresh N` bounds the
    /// ticks, keeping the command scriptable.
    fn watch(args: &Args, diag: &Diag, conn: &mut Connection) -> Result<String, String> {
        let refresh = args.num_or("refresh", 5usize)?.max(1);
        let interval_ms = args.num_or("interval-ms", 1000u64)?;
        let mut out = String::new();
        for tick in 0..refresh {
            let stats = match conn.round_trip(&WireRequest::Stats)? {
                WireResponse::Stats { stats } => stats,
                other => return Err(format!("unexpected reply to Stats: {other:?}")),
            };
            let json = match conn.round_trip(&WireRequest::Metrics)? {
                WireResponse::Metrics { json, .. } => json,
                other => return Err(format!("unexpected reply to Metrics: {other:?}")),
            };
            let parsed: serde_json::Value = serde_json::from_str(&json)
                .map_err(|e| format!("daemon sent unparseable metrics JSON: {e}"))?;
            let hist_p50 = |name: &str| {
                parsed
                    .get("histograms")
                    .and_then(|h| h.get(name))
                    .and_then(|h| h.get("p50"))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            };
            let gauge = |name: &str| {
                parsed
                    .get("gauges")
                    .and_then(|g| g.get(name))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            };
            let line = format!(
                "watch[{tick}] queue={} active={} slots_free={} entries={} models={} \
                 requests={} trained={} cached={} queries={} e2e_p50={:.0}us query_p50={:.0}us \
                 drift_obs={:.0}",
                stats.queue_depth,
                gauge("serve.active_jobs"),
                stats.slots_free,
                stats.entries,
                stats.cached_models,
                stats.tune_requests,
                stats.trained,
                stats.cache_served,
                stats.queries,
                hist_p50("serve.phase.total_us"),
                hist_p50("serve.query_latency_us"),
                parsed
                    .get("counters")
                    .and_then(|c| c.get("drift.observations"))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0),
            );
            diag.progress(&line);
            out.push_str(&line);
            out.push('\n');
            if tick + 1 < refresh {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        Ok(out)
    }

    /// `client observe`: query the daemon for one point, then feed back
    /// `--count` observed costs at `--factor ×` the served prediction —
    /// the scriptable way to exercise the drift policy engine (a factor
    /// outside the daemon's `--drift-band` drives the signature toward
    /// a warm re-tune).
    fn observe(
        args: &Args,
        conn: &mut Connection,
        seed: u64,
        pool_size: usize,
    ) -> Result<String, String> {
        let index = args.num_or("pool-index", 0usize)?;
        let pool = loadgen::request_pool(pool_size.max(index + 1), seed);
        let base = &pool[index];
        let query = QueryRequest {
            dataset: base.dataset.clone(),
            config: base.config.clone(),
            collective: base.collectives[0],
            point: acclaim_dataset::Point::new(
                args.num_or("nodes", 2u32)?,
                args.num_or("ppn", 2u32)?,
                args.num_or("msg", 1024u64)?,
            ),
        };
        let reply = conn.round_trip(&WireRequest::Query {
            request: query.clone(),
        })?;
        let WireResponse::Selected { response } = reply else {
            return Err(format!("unexpected reply to Query: {reply:?}"));
        };
        let Some(predicted) = response.predicted_us else {
            return Err(format!(
                "selection '{}' came from {:?} without a prediction; tune the signature first",
                response.algorithm, response.source
            ));
        };
        let count = args.num_or("count", 1usize)?;
        let factor = args.num_or("factor", 1.0f64)?;
        let mut matched = 0usize;
        let mut last_ratio = None;
        for _ in 0..count {
            match conn.round_trip(&WireRequest::Observe {
                request: query.clone(),
                algorithm: response.algorithm.clone(),
                observed_us: predicted * factor,
            })? {
                WireResponse::Drift { sample } => {
                    matched += usize::from(sample.matched);
                    last_ratio = sample.ratio.or(last_ratio);
                }
                other => return Err(format!("unexpected reply to Observe: {other:?}")),
            }
        }
        Ok(format!(
            "observe: algorithm={} predicted={predicted:.2}us factor={factor} count={count} \
             matched={matched}{}\n",
            response.algorithm,
            last_ratio
                .map(|r| format!(" ratio={r:.3}"))
                .unwrap_or_default(),
        ))
    }

    fn render_response(response: &WireResponse, json: bool) -> Result<String, String> {
        match response {
            WireResponse::Tuned {
                job,
                cached,
                converged,
                iterations,
                fresh_points,
                keys,
            } => Ok(format!(
                "tuned: job {job} {} converged={converged} iterations={iterations} \
                 fresh_points={fresh_points} keys=[{}]\n",
                if *cached { "(cached)" } else { "(trained)" },
                keys.join(","),
            )),
            WireResponse::Selected { response } => Ok(format!(
                "selected: {} (source {:?}{})\n",
                response.algorithm,
                response.source,
                response
                    .predicted_us
                    .map(|p| format!(", predicted {p:.2} us"))
                    .unwrap_or_default(),
            )),
            WireResponse::Cancelled { job, effective } => {
                Ok(format!("cancelled: job {job} effective={effective}\n"))
            }
            WireResponse::StatusIs { job, state } => Ok(format!("status: job {job} {state}\n")),
            WireResponse::Stats { stats } => Ok(format!(
                "stats: entries={} cached_models={} queue_depth={} slots_free={} \
                 requests={} completed={} trained={} cache_served={} coalesced={} \
                 attached={} retuned={} drift_triggered={} cache_evicted={} \
                 cancelled={} failed={} queries={} defaults={} p50_query_us={:.1}\n",
                stats.entries,
                stats.cached_models,
                stats.queue_depth,
                stats.slots_free,
                stats.tune_requests,
                stats.completed,
                stats.trained,
                stats.cache_served,
                stats.coalesced,
                stats.attached,
                stats.retuned,
                stats.drift_triggered,
                stats.cache_evicted,
                stats.cancelled,
                stats.failed,
                stats.queries,
                stats.query_defaults,
                stats.query_latency_p50_us,
            )),
            WireResponse::Metrics {
                prometheus,
                json: payload,
            } => {
                if json {
                    Ok(format!("{payload}\n"))
                } else {
                    let mut out = prometheus.clone();
                    if !out.ends_with('\n') {
                        out.push('\n');
                    }
                    Ok(out)
                }
            }
            WireResponse::Flight { records } => {
                if json {
                    Ok(FlightRecorder::to_jsonl(records))
                } else {
                    let mut out = format!("flight: {} records\n", records.len());
                    for r in records {
                        out.push_str(&format!(
                            "  id={} class={} outcome={} riders={} slow={} total={:.0}us \
                             (queue={:.0} probe={:.0} collect={:.0} refit={:.0} \
                             write_back={:.0})\n",
                            r.id,
                            r.class,
                            r.outcome,
                            r.riders,
                            r.slow,
                            r.phases.total_us,
                            r.phases.queue_wait_us,
                            r.phases.probe_us,
                            r.phases.collect_us,
                            r.phases.refit_us,
                            r.phases.write_back_us,
                        ));
                    }
                    Ok(out)
                }
            }
            WireResponse::DriftReport { report } => {
                if json {
                    let mut out = serde_json::to_string(report)
                        .map_err(|e| format!("serializing drift report: {e}"))?;
                    out.push('\n');
                    return Ok(out);
                }
                let mut out = format!(
                    "drift: band={} enabled={} min_obs={} cooldown={} tracked={} triggered={} \
                     completed={} suppressed={} evicted={}\n",
                    report.band,
                    report.enabled,
                    report.min_obs,
                    report.cooldown_obs,
                    report.tracked,
                    report.triggered,
                    report.completed,
                    report.suppressed,
                    report.evicted,
                );
                for s in &report.signatures {
                    out.push_str(&format!(
                        "  {} obs={} window={} mean={:.3} last={:.3} armed={} in_flight={} \
                         cooldown_left={} retunes={}\n",
                        s.key,
                        s.observations,
                        s.window,
                        s.mean,
                        s.last_ratio,
                        s.armed,
                        s.in_flight,
                        s.cooldown_left,
                        s.retunes,
                    ));
                }
                Ok(out)
            }
            WireResponse::Drift { sample } => Ok(format!(
                "drift: matched={}{}{}\n",
                sample.matched,
                sample
                    .predicted_us
                    .map(|p| format!(" predicted={p:.2}us"))
                    .unwrap_or_default(),
                sample
                    .ratio
                    .map(|r| format!(" ratio={r:.3}"))
                    .unwrap_or_default(),
            )),
            WireResponse::Bye => Ok("server shutting down\n".to_string()),
            WireResponse::Error { message } => Err(format!("server error: {message}")),
        }
    }

    /// Deterministic over-the-wire load run: the socket twin of
    /// [`loadgen::run`]. Sessions are distributed round-robin over
    /// `--clients` connections; the printed summary (sessions, ok,
    /// distinct keys, fingerprint) depends only on the seed.
    fn load(
        args: &Args,
        diag: &Diag,
        socket: &str,
        wait: u64,
        seed: u64,
        pool_size: usize,
        sessions: usize,
    ) -> Result<String, String> {
        let clients = args.num_or("clients", 8usize)?.max(1);
        let queries_per_session = args.num_or("queries", 1usize)?;
        let pool = loadgen::request_pool(pool_size, seed);
        diag.progress(&format!(
            "driving {sessions} sessions over {clients} connections (pool {pool_size}, seed {seed})"
        ));
        // Client-observed latency aggregates live in a recorder local
        // to this run; the daemon's own metrics are scraped separately.
        let recorder = Obs::enabled();
        let tune_latency = recorder.histogram("load.tune_latency_us");
        let query_latency = recorder.histogram("load.query_latency_us");

        struct SessionResult {
            session: usize,
            pool_index: usize,
            ok: bool,
            cached: bool,
            keys: Vec<String>,
            digest: u64,
        }

        let results: Vec<(Vec<SessionResult>, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let pool = &pool;
                    let tune_latency = tune_latency.clone();
                    let query_latency = query_latency.clone();
                    scope.spawn(move || -> Result<(Vec<SessionResult>, usize), String> {
                        let mut conn = Connection::open(socket, wait.max(5))?;
                        let mut out = Vec::new();
                        let mut observed = 0usize;
                        let mut session = client;
                        while session < sessions {
                            let mut rng = StdRng::seed_from_u64(
                                seed ^ (session as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                            );
                            let pool_index = rng.random_range(0..pool.len());
                            let mut request = pool[pool_index].clone();
                            request.priority = match rng.random_range(0..3u32) {
                                0 => Priority::Low,
                                1 => Priority::Normal,
                                _ => Priority::High,
                            };
                            let base = request.clone();
                            let started = std::time::Instant::now();
                            let response = conn.round_trip(&WireRequest::Tune { request })?;
                            tune_latency.record(started.elapsed().as_secs_f64() * 1e6);
                            let result = match response {
                                WireResponse::Tuned { cached, keys, .. } => SessionResult {
                                    session,
                                    pool_index,
                                    ok: true,
                                    cached,
                                    digest: {
                                        let mut f = acclaim_netsim::Fingerprint::new();
                                        for k in &keys {
                                            f.write_str(k);
                                        }
                                        f.finish()
                                    },
                                    keys,
                                },
                                _ => SessionResult {
                                    session,
                                    pool_index,
                                    ok: false,
                                    cached: false,
                                    keys: Vec::new(),
                                    digest: 0,
                                },
                            };
                            // Follow-up queries + drift feedback over
                            // the wire, mirroring loadgen::run.
                            let db = (queries_per_session > 0)
                                .then(|| BenchmarkDatabase::new(base.dataset.clone()));
                            for _ in 0..queries_per_session {
                                let space = &base.config.space;
                                let point = acclaim_dataset::Point::new(
                                    space.nodes[rng.random_range(0..space.nodes.len())],
                                    space.ppns[rng.random_range(0..space.ppns.len())],
                                    space.msg_sizes[rng.random_range(0..space.msg_sizes.len())],
                                );
                                let query = QueryRequest {
                                    dataset: base.dataset.clone(),
                                    config: base.config.clone(),
                                    collective: base.collectives[0],
                                    point,
                                };
                                let started = std::time::Instant::now();
                                let reply = conn.round_trip(&WireRequest::Query {
                                    request: query.clone(),
                                })?;
                                query_latency.record(started.elapsed().as_secs_f64() * 1e6);
                                let WireResponse::Selected { response } = reply else {
                                    continue;
                                };
                                let (Some(db), Some(algorithm)) = (
                                    db.as_ref(),
                                    base.collectives[0]
                                        .algorithms()
                                        .iter()
                                        .copied()
                                        .find(|a| a.name() == response.algorithm),
                                ) else {
                                    continue;
                                };
                                let observed_us = db.time(algorithm, point);
                                if let WireResponse::Drift { sample } =
                                    conn.round_trip(&WireRequest::Observe {
                                        request: query,
                                        algorithm: algorithm.name().to_string(),
                                        observed_us,
                                    })?
                                {
                                    observed += usize::from(sample.matched);
                                }
                            }
                            out.push(result);
                            session += clients;
                        }
                        Ok((out, observed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client panicked"))
                .collect::<Result<Vec<_>, String>>()
        })?;

        let observed: usize = results.iter().map(|(_, n)| n).sum();
        let mut all: Vec<SessionResult> = results.into_iter().flat_map(|(o, _)| o).collect();
        all.sort_by_key(|r| r.session);
        let ok = all.iter().filter(|r| r.ok).count();
        let cached = all.iter().filter(|r| r.cached).count();
        let distinct: BTreeSet<&String> = all.iter().flat_map(|r| r.keys.iter()).collect();
        let mut f = acclaim_netsim::Fingerprint::new();
        for r in &all {
            f.write_u64(r.session as u64);
            f.write_u64(r.pool_index as u64);
            f.write_u64(r.digest);
            f.write_u32(u32::from(r.ok));
        }
        let quantiles = |h: &HistogramSnapshot| {
            format!(
                "p50={:.0} p95={:.0} p99={:.0}",
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99)
            )
        };
        let mut report = format!(
            "load: sessions={} ok={ok} cached={cached} distinct_keys={} fingerprint={:016x}\n",
            all.len(),
            distinct.len(),
            f.finish(),
        );
        let tune = tune_latency.snapshot();
        let query = query_latency.snapshot();
        report.push_str(&format!(
            "load latency (us): tune {} | query {} (queries={} observed={observed})\n",
            quantiles(&tune),
            quantiles(&query),
            query.count,
        ));
        Ok(report)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(tokens: &[&str]) -> Args {
            Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
        }

        fn temp(name: &str) -> std::path::PathBuf {
            let p = std::env::temp_dir().join(name);
            std::fs::remove_dir_all(&p).ok();
            std::fs::remove_file(&p).ok();
            p
        }

        #[test]
        fn daemon_and_client_round_trip_over_the_socket() {
            let store = temp("acclaim-cli-serve-store");
            let socket = temp("acclaim-cli-serve.sock");
            let diag = Diag::new(true);
            let server = {
                let store = store.clone();
                let socket = socket.clone();
                std::thread::spawn(move || {
                    serve(
                        &args(&[
                            "serve",
                            "--store",
                            store.to_str().unwrap(),
                            "--socket",
                            socket.to_str().unwrap(),
                            "--workers",
                            "2",
                        ]),
                        &Diag::new(true),
                    )
                })
            };
            let sock = socket.to_str().unwrap();
            let base = [
                "client",
                "--socket",
                sock,
                "--wait-server",
                "10",
                "--seed",
                "5",
            ];

            // Tune twice: trained, then cached.
            let mut tune = base.to_vec();
            tune.extend(["--op", "tune", "--pool-index", "1"]);
            let out = client(&args(&tune), &diag).unwrap();
            assert!(out.contains("(trained)"), "{out}");
            let out = client(&args(&tune), &diag).unwrap();
            assert!(out.contains("(cached)"), "{out}");

            // Query the tuned signature.
            let mut query = base.to_vec();
            query.extend(["--op", "query", "--pool-index", "1"]);
            let out = client(&args(&query), &diag).unwrap();
            assert!(out.contains("source Tuned"), "{out}");

            // A small load run and its determinism: the daemon keeps
            // state, so only the fingerprint (not cached counts) is
            // comparable across runs — and here we just assert shape.
            let mut load_args = base.to_vec();
            load_args.extend(["--load", "6", "--clients", "3", "--pool", "4"]);
            let out = client(&args(&load_args), &diag).unwrap();
            assert!(out.contains("sessions=6 ok=6"), "{out}");
            assert!(out.contains("load latency (us): tune p50="), "{out}");
            assert!(out.contains("observed=6"), "{out}");

            let mut stats = base.to_vec();
            stats.extend(["--op", "stats"]);
            let out = client(&args(&stats), &diag).unwrap();
            assert!(out.contains("stats: entries="), "{out}");
            assert!(out.contains("drift_triggered=0"), "{out}");
            assert!(out.contains("cache_evicted=0"), "{out}");

            // Feed back observations at exactly the prediction, then
            // read the detector state: tracked, never triggered (the
            // daemon runs with the default disabled band).
            let mut observe = base.to_vec();
            observe.extend(["observe", "--pool-index", "1", "--count", "3"]);
            let out = client(&args(&observe), &diag).unwrap();
            assert!(out.contains("count=3 matched=3"), "{out}");
            assert!(out.contains("ratio=1.000"), "{out}");

            let mut drift = base.to_vec();
            drift.extend(["drift"]);
            let out = client(&args(&drift), &diag).unwrap();
            assert!(out.contains("drift: band=0 enabled=false"), "{out}");
            assert!(out.contains("triggered=0"), "{out}");
            assert!(out.contains("armed=true"), "{out}");

            let mut drift_json = base.to_vec();
            drift_json.extend(["drift", "--json"]);
            let out = client(&args(&drift_json), &diag).unwrap();
            let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert!(
                parsed.get("tracked").and_then(|v| v.as_u64()).unwrap_or(0) >= 1,
                "{out}"
            );

            // Live telemetry verbs: Prometheus text, metrics JSON,
            // flight dump (human + JSONL), and the watch summary.
            let mut metrics = base.to_vec();
            metrics.extend(["metrics"]);
            let out = client(&args(&metrics), &diag).unwrap();
            assert!(out.contains("# TYPE serve_tune_requests counter"), "{out}");
            assert!(out.contains("serve_phase_queue_wait_us_bucket"), "{out}");
            assert!(out.contains("drift_observations"), "{out}");

            let mut metrics_json = base.to_vec();
            metrics_json.extend(["metrics", "--json"]);
            let out = client(&args(&metrics_json), &diag).unwrap();
            acclaim_obs::schema::validate_metrics_json(&out).unwrap();

            let mut trace = base.to_vec();
            trace.extend(["trace", "--last", "4"]);
            let out = client(&args(&trace), &diag).unwrap();
            assert!(out.starts_with("flight: 4 records"), "{out}");

            let mut trace_json = base.to_vec();
            trace_json.extend(["trace", "--json"]);
            let out = client(&args(&trace_json), &diag).unwrap();
            // 2 tunes + 6 load sessions, minus whatever coalesced
            // behind a rider (interleaving-dependent).
            let n = acclaim_obs::schema::validate_flight_records(&out).unwrap();
            assert!((4..=8).contains(&n), "unexpected flight count {n}: {out}");

            let mut watch_args = base.to_vec();
            watch_args.extend(["watch", "--refresh", "2", "--interval-ms", "10"]);
            let out = client(&args(&watch_args), &diag).unwrap();
            assert!(out.contains("watch[0]"), "{out}");
            assert!(out.contains("watch[1]"), "{out}");
            assert!(out.contains("e2e_p50="), "{out}");

            let mut shutdown = base.to_vec();
            shutdown.extend(["--op", "shutdown"]);
            let out = client(&args(&shutdown), &diag).unwrap();
            assert!(out.contains("shutting down"), "{out}");

            let report = server.join().unwrap().unwrap();
            assert!(report.contains("serve counters"), "{report}");
            assert!(report.contains("tune_requests"), "{report}");
            assert!(report.contains("serve gauges (obs):"), "{report}");
            assert!(report.contains("serve.cache_size="), "{report}");
            assert!(
                report.contains("serve histogram serve.phase.total_us: count="),
                "{report}"
            );
            assert!(report.contains("p99="), "{report}");
            std::fs::remove_dir_all(&store).ok();
            std::fs::remove_file(&socket).ok();
        }

        #[test]
        fn client_without_server_fails_fast() {
            let socket = temp("acclaim-cli-serve-nosrv.sock");
            let e = client(
                &args(&[
                    "client",
                    "--socket",
                    socket.to_str().unwrap(),
                    "--op",
                    "stats",
                ]),
                &Diag::new(true),
            )
            .unwrap_err();
            assert!(e.contains("connecting to"), "{e}");
        }

        #[test]
        fn non_utf8_line_gets_an_error_and_keeps_the_connection() {
            let store = temp("acclaim-cli-serve-utf8-store");
            let socket = temp("acclaim-cli-serve-utf8.sock");
            let server = {
                let (store, socket) = (store.clone(), socket.clone());
                std::thread::spawn(move || {
                    serve(
                        &args(&[
                            "serve",
                            "--store",
                            store.to_str().unwrap(),
                            "--socket",
                            socket.to_str().unwrap(),
                        ]),
                        &Diag::new(true),
                    )
                })
            };
            let mut conn = Connection::open(socket.to_str().unwrap(), 10).unwrap();
            conn.writer.write_all(b"{\"Stats\xff\xfe\n").unwrap();
            let mut reply = String::new();
            conn.reader.read_line(&mut reply).unwrap();
            match decode_response(&reply).unwrap() {
                WireResponse::Error { message } => {
                    assert!(message.contains("utf-8"), "{message}")
                }
                other => panic!("expected an error reply, got {other:?}"),
            }
            let stats = conn.round_trip(&WireRequest::Stats).unwrap();
            assert!(matches!(stats, WireResponse::Stats { .. }), "{stats:?}");
            let bye = conn.round_trip(&WireRequest::Shutdown).unwrap();
            assert!(matches!(bye, WireResponse::Bye), "{bye:?}");
            server.join().unwrap().unwrap();
            std::fs::remove_dir_all(&store).ok();
        }

        #[test]
        fn oversized_line_gets_an_error_and_keeps_the_connection() {
            let store = temp("acclaim-cli-serve-long-store");
            let socket = temp("acclaim-cli-serve-long.sock");
            let server = {
                let (store, socket) = (store.clone(), socket.clone());
                std::thread::spawn(move || {
                    serve(
                        &args(&[
                            "serve",
                            "--store",
                            store.to_str().unwrap(),
                            "--socket",
                            socket.to_str().unwrap(),
                        ]),
                        &Diag::new(true),
                    )
                })
            };
            let mut conn = Connection::open(socket.to_str().unwrap(), 10).unwrap();
            // Three times the cap, written from a second thread so the
            // write does not wait on the socket buffer.
            let mut line = vec![b'x'; 3 * MAX_REQUEST_LINE];
            line.push(b'\n');
            let mut writer = conn.writer.try_clone().unwrap();
            let sender = std::thread::spawn(move || writer.write_all(&line).unwrap());
            let mut reply = String::new();
            conn.reader.read_line(&mut reply).unwrap();
            sender.join().unwrap();
            match decode_response(&reply).unwrap() {
                WireResponse::Error { message } => {
                    assert!(message.contains("longer than"), "{message}")
                }
                other => panic!("expected an error reply, got {other:?}"),
            }
            let stats = conn.round_trip(&WireRequest::Stats).unwrap();
            assert!(matches!(stats, WireResponse::Stats { .. }), "{stats:?}");
            let bye = conn.round_trip(&WireRequest::Shutdown).unwrap();
            assert!(matches!(bye, WireResponse::Bye), "{bye:?}");
            server.join().unwrap().unwrap();
            std::fs::remove_dir_all(&store).ok();
        }
    }
}
