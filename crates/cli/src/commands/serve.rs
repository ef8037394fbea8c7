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
    use acclaim_dataset::Point;
    use acclaim_obs::{FlightRecorder, HistogramSnapshot};
    use acclaim_serve::loadgen::{self, LoadGenConfig};
    use acclaim_serve::protocol::{
        decode_request, decode_response, encode_request, encode_response, handle_request,
        WireRequest, WireResponse,
    };
    use acclaim_serve::{
        DriftConfig, Priority, QueryRequest, ServeConfig, TuneRequest, TuneService,
    };
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

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
    /// [--shards N] [--flight N] [--slow-log FACTOR] [--cache-cap N]
    /// [--drift-band B] [--drift-min-obs N] [--drift-cooldown N]
    /// [--drift-deweight W] [--drift-max-signatures N]`
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
        let dir = args.require("store")?.to_string();
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
        let defaults = ServeConfig::default();
        let config = ServeConfig {
            workers: args.num_or("workers", defaults.workers)?,
            shards: args.num_or("shards", defaults.shards)?,
            flight_capacity: args.num_or("flight", defaults.flight_capacity)?,
            slow_log_factor: args.get_num::<f64>("slow-log")?,
            cache_capacity: args.num_or("cache-cap", defaults.cache_capacity)?,
            drift: DriftConfig {
                band: args.num_or("drift-band", defaults.drift.band)?,
                min_obs: args.num_or("drift-min-obs", defaults.drift.min_obs)?,
                cooldown_obs: args.num_or("drift-cooldown", defaults.drift.cooldown_obs)?,
                deweight: args.num_or("drift-deweight", defaults.drift.deweight)?,
                max_signatures: args
                    .num_or("drift-max-signatures", defaults.drift.max_signatures)?,
            },
            diag: *diag,
            ..defaults
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
        let mut conns = Vec::new();
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
            retain_live(&mut conns);
            conns.push(handle);
        }
        for handle in conns {
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

    /// Drop the handles of connection threads that have exited, so a
    /// long-running daemon holds one handle per open connection rather
    /// than one per connection it ever served.
    fn retain_live(conns: &mut Vec<JoinHandle<()>>) {
        conns.retain(|handle| !handle.is_finished());
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
            let config = LoadGenConfig {
                sessions,
                clients: args.num_or("clients", 8usize)?.max(1),
                pool: pool_size,
                seed,
                queries_per_session: args.num_or("queries", 1usize)?,
            };
            diag.progress(&format!(
                "driving {sessions} sessions over {} connections (pool {pool_size}, seed {seed})",
                config.clients
            ));
            return load(&config, &socket, wait);
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
            "tune" => WireRequest::Tune {
                request: TuneRequest {
                    priority: parse_priority(args)?,
                    ..pool_slot(args, seed, pool_size)?
                },
            },
            "query" => WireRequest::Query {
                request: pool_query(args, seed, pool_size)?,
            },
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

    /// The `--pool-index` slot of the seeded request pool.
    fn pool_slot(args: &Args, seed: u64, pool_size: usize) -> Result<TuneRequest, String> {
        let index = args.num_or("pool-index", 0usize)?;
        Ok(loadgen::request_pool(pool_size.max(index + 1), seed).swap_remove(index))
    }

    /// The `--pool-index` slot queried at `--nodes`/`--ppn`/`--msg`.
    fn pool_query(args: &Args, seed: u64, pool_size: usize) -> Result<QueryRequest, String> {
        let point = Point::new(
            args.num_or("nodes", 2u32)?,
            args.num_or("ppn", 2u32)?,
            args.num_or("msg", 1024u64)?,
        );
        Ok(loadgen::query(&pool_slot(args, seed, pool_size)?, point))
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
                "watch[{tick}] queue={} active={} entries={} models={} requests={} \
                 trained={} cached={} queries={} e2e_p50={:.0}us query_p50={:.0}us \
                 drift_obs={:.0}",
                stats.queue_depth,
                gauge("serve.active_jobs"),
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
        let query = pool_query(args, seed, pool_size)?;
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
                "stats: entries={} cached_models={} queue_depth={} requests={} \
                 completed={} trained={} cache_served={} coalesced={} \
                 attached={} retuned={} drift_triggered={} cache_evicted={} \
                 cancelled={} failed={} queries={} defaults={} p50_query_us={:.1}\n",
                stats.entries,
                stats.cached_models,
                stats.queue_depth,
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

    /// `client --load N`: [`loadgen::run`] over `--clients` socket
    /// connections, one per client thread. The first line printed
    /// (sessions, ok, distinct keys, fingerprint) depends only on the
    /// seed, pool and session count.
    fn load(config: &LoadGenConfig, socket: &str, wait: u64) -> Result<String, String> {
        let report = loadgen::run(config, || {
            let mut conn = Connection::open(socket, wait.max(5))?;
            Ok(move |request: WireRequest| conn.round_trip(&request))
        })?;
        let quantiles = |h: &HistogramSnapshot| {
            format!(
                "p50={:.0} p95={:.0} p99={:.0}",
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99)
            )
        };
        Ok(format!(
            "load: sessions={} ok={} cached={} distinct_keys={} fingerprint={:016x}\n\
             load latency (us): tune {} | query {} (queries={} observed={})\n",
            report.outcomes.len(),
            report.outcomes.iter().filter(|o| o.ok).count(),
            report.outcomes.iter().filter(|o| o.cached).count(),
            report.distinct_keys().len(),
            report.fingerprint(),
            quantiles(&report.tune_latency),
            quantiles(&report.query_latency),
            report.queries,
            report.observations,
        ))
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

        /// Start `serve` with `extra` flags on a fresh store and socket
        /// in a thread.
        fn spawn_daemon(
            name: &str,
            extra: &[&str],
        ) -> (
            std::path::PathBuf,
            std::path::PathBuf,
            std::thread::JoinHandle<Result<String, String>>,
        ) {
            let store = temp(&format!("acclaim-cli-{name}-store"));
            let socket = temp(&format!("acclaim-cli-{name}.sock"));
            let mut tokens = vec![
                "serve",
                "--store",
                store.to_str().unwrap(),
                "--socket",
                socket.to_str().unwrap(),
            ];
            tokens.extend_from_slice(extra);
            let serve_args = args(&tokens);
            let server = std::thread::spawn(move || serve(&serve_args, &Diag::new(true)));
            (store, socket, server)
        }

        /// Run `client` against `socket` with `extra` flags.
        fn client_at(socket: &str, extra: &[&str]) -> Result<String, String> {
            let mut tokens = vec!["client", "--socket", socket, "--wait-server", "10"];
            tokens.extend_from_slice(extra);
            client(&args(&tokens), &Diag::new(true))
        }

        #[test]
        fn out_of_band_observations_trigger_exactly_one_warm_retune() {
            // One burst of 8 observations at 2x the served prediction,
            // outside the 1.3 band with min_obs 4, triggers exactly
            // once: the in-flight mark and the cooldown suppress the
            // rest.
            let trace = temp("acclaim-cli-serve-drift-trace.jsonl");
            let (store, socket, server) = spawn_daemon(
                "serve-drift",
                &[
                    "--drift-band",
                    "1.3",
                    "--drift-min-obs",
                    "4",
                    "--drift-cooldown",
                    "8",
                    "--flight",
                    "64",
                    "--trace-out",
                    trace.to_str().unwrap(),
                ],
            );
            let sock = socket.to_str().unwrap();
            let out =
                client_at(sock, &["--op", "tune", "--pool-index", "0", "--seed", "7"]).unwrap();
            assert!(out.contains("(trained)"), "{out}");
            let out = client_at(
                sock,
                &[
                    "--seed",
                    "7",
                    "observe",
                    "--pool-index",
                    "0",
                    "--count",
                    "8",
                    "--factor",
                    "2.0",
                ],
            )
            .unwrap();
            assert!(out.contains("factor=2 count=8 matched=8"), "{out}");

            // The re-tune runs in the background: poll until the
            // detector reports it done and its flight record landed
            // (the record is written just after the job settles).
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
            let retuned = |l: &str| l.contains("\"outcome\":\"retuned\"");
            let (report, flight) = loop {
                let report = client_at(sock, &["drift"]).unwrap();
                let flight = client_at(sock, &["--op", "trace", "--last", "64", "--json"]).unwrap();
                let done = report.contains("completed=1") && flight.lines().any(retuned);
                if done || std::time::Instant::now() > deadline {
                    break (report, flight);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            };
            assert!(report.contains("drift: band=1.3 enabled=true"), "{report}");
            assert!(
                report.contains("tracked=1 triggered=1 completed=1"),
                "{report}"
            );
            assert!(report.contains("retunes=1"), "{report}");
            acclaim_obs::schema::validate_flight_records(&flight).unwrap();
            assert!(
                flight
                    .lines()
                    .any(|l| retuned(l) && l.contains("\"class\":\"low\"")),
                "{flight}"
            );
            let stats = client_at(sock, &["--op", "stats"]).unwrap();
            assert!(stats.contains(" retuned=1 "), "{stats}");
            assert!(stats.contains(" drift_triggered=1 "), "{stats}");

            client_at(sock, &["--op", "shutdown"]).unwrap();
            let exit = server.join().unwrap().unwrap();
            assert!(exit.contains("drift.observations=8"), "{exit}");
            assert!(exit.contains("drift.triggered=1"), "{exit}");
            let text = std::fs::read_to_string(&trace).unwrap();
            acclaim_obs::schema::validate_trace(&text).unwrap();
            std::fs::remove_dir_all(&store).ok();
            std::fs::remove_file(&trace).ok();
        }

        #[test]
        fn in_process_and_socket_loads_print_one_fingerprint() {
            // The fingerprint `client --load` printed for this config
            // against a fresh daemon before both transports shared one
            // driver.
            let pinned = "f060a74362e93369";
            let config = LoadGenConfig {
                seed: 3,
                ..LoadGenConfig::default()
            };
            let dir = temp("acclaim-cli-load-in-process");
            let service =
                TuneService::open(&dir, ServeConfig::default(), acclaim_obs::Obs::disabled())
                    .unwrap();
            let report = loadgen::run(&config, || Ok(loadgen::in_process(&service))).unwrap();
            drop(service);
            std::fs::remove_dir_all(&dir).ok();
            assert!(report.all_ok());
            assert_eq!(format!("{:016x}", report.fingerprint()), pinned);

            let (store, socket, server) = spawn_daemon("load-socket", &[]);
            let sock = socket.to_str().unwrap();
            let out = client(
                &args(&[
                    "client",
                    "--socket",
                    sock,
                    "--wait-server",
                    "10",
                    "--load",
                    "64",
                    "--clients",
                    "8",
                    "--pool",
                    "16",
                    "--seed",
                    "3",
                    "--queries",
                    "2",
                ]),
                &Diag::new(true),
            )
            .unwrap();
            client(
                &args(&["client", "--socket", sock, "--op", "shutdown"]),
                &Diag::new(true),
            )
            .unwrap();
            server.join().unwrap().unwrap();
            std::fs::remove_dir_all(&store).ok();

            assert!(out.contains("load: sessions=64 ok=64 "), "{out}");
            assert!(out.contains(&format!("fingerprint={pinned}\n")), "{out}");
        }

        #[test]
        fn retain_live_keeps_only_running_connection_threads() {
            let (release, wait) = std::sync::mpsc::channel::<()>();
            let live = std::thread::spawn(move || {
                let _ = wait.recv();
            });
            let live_id = live.thread().id();
            let mut conns = vec![std::thread::spawn(|| {}), live, std::thread::spawn(|| {})];
            while !(conns[0].is_finished() && conns[2].is_finished()) {
                std::thread::yield_now();
            }
            retain_live(&mut conns);
            assert_eq!(conns.len(), 1);
            assert_eq!(conns[0].thread().id(), live_id);
            release.send(()).unwrap();
            conns.pop().unwrap().join().unwrap();
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
            let (store, socket, server) = spawn_daemon("serve-utf8", &[]);
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
            let (store, socket, server) = spawn_daemon("serve-long", &[]);
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

        #[test]
        fn hostile_lines_get_bad_request_and_the_daemon_keeps_answering() {
            // A 20,000-deep array, bare and as the value of an unknown
            // key the decoder skips, and a request of 1,000 unknown
            // keys: each gets a `bad request` reply, not a crash.
            let (store, socket, server) = spawn_daemon("serve-hostile", &[]);
            let mut conn = Connection::open(socket.to_str().unwrap(), 10).unwrap();
            let deep = "[".repeat(20_000);
            let keys: Vec<String> = (0..1000).map(|i| format!("\"k{i}\":[{i}]")).collect();
            let lines = [
                deep.clone(),
                format!("{{\"Query\":{{\"request\":{{\"x\":{deep}"),
                format!("{{\"Query\":{{\"request\":{{{}}}}}}}", keys.join(",")),
            ];
            for line in lines {
                conn.writer
                    .write_all(format!("{line}\n").as_bytes())
                    .unwrap();
                let mut reply = String::new();
                conn.reader.read_line(&mut reply).unwrap();
                match decode_response(&reply).unwrap() {
                    WireResponse::Error { message } => {
                        assert!(message.starts_with("bad request"), "{message}")
                    }
                    other => panic!("expected an error reply, got {other:?}"),
                }
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
