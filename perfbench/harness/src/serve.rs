//! Socket-level serving: the read phase every workload runs against
//! its own tuned signatures, the write phase and set-up of the
//! `serve-socket` workload, and the in-process twins used to check
//! and attribute the daemon's answers.

use crate::util::{derive, median, proc_peak_rss_mb, Conn, Daemon, METRICS_LINE};
use crate::{Ctx, Report};
use acclaim_core::TuningFile;
use acclaim_dataset::Point;
use acclaim_obs::Obs;
use acclaim_serve::loadgen::LoadGenConfig;
use acclaim_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use acclaim_serve::{
    JobStatus, QueryRequest, QueryResponse, QuerySource, ServeConfig, TuneRequest, TuneService,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

const STREAM_READ: u64 = 0x5EAD;

/// Read-phase connections: one per core, each a closed-loop client
/// (a job launcher waiting for its answer before asking again).
pub const CONNECTIONS: usize = 2;

/// Distinct sessions per connection; connections cycle through theirs
/// until the phase ends.
const SESSIONS_PER_CONNECTION: usize = 86;

/// A read-phase query and the tuned request it targets.
pub struct PlannedQuery {
    pub request: usize,
    pub query: QueryRequest,
}

/// One request line, newline-terminated, ready to send.
pub struct PlannedLine {
    pub text: String,
    /// Index into [`ReadPlan::queries`]; `None` for a warm `Tune`.
    pub query: Option<usize>,
}

/// The read phase's inputs, generated from the workload seed alone.
pub struct ReadPlan {
    pub queries: Vec<PlannedQuery>,
    pub lines: Vec<Vec<PlannedLine>>,
}

fn line(wire: &WireRequest, query: Option<usize>) -> PlannedLine {
    let mut text = encode_request(wire);
    text.push('\n');
    PlannedLine { text, query }
}

/// Draw the read-phase request lines over `requests` (all tuned by
/// the time the phase starts). The mix is the repository's own model
/// of a daemon client, `loadgen`'s default session: a `Tune` of one
/// signature (here already tuned, so a cache hit), then
/// `queries_per_session` `Query`s on that signature at random points.
pub fn plan_reads(seed: u64, requests: &[TuneRequest]) -> ReadPlan {
    let queries_per_session = LoadGenConfig::default().queries_per_session;
    let mut queries = Vec::new();
    let mut lines = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut rng = StdRng::seed_from_u64(derive(seed, STREAM_READ, conn as u64));
        let mut mine = Vec::new();
        for _ in 0..SESSIONS_PER_CONNECTION {
            let r = rng.random_range(0..requests.len());
            let request = &requests[r];
            mine.push(line(
                &WireRequest::Tune {
                    request: request.clone(),
                },
                None,
            ));
            for _ in 0..queries_per_session {
                let space = &request.config.space;
                let query = QueryRequest {
                    dataset: request.dataset.clone(),
                    config: request.config.clone(),
                    collective: request.collectives[rng.random_range(0..request.collectives.len())],
                    point: Point::new(
                        space.nodes[rng.random_range(0..space.nodes.len())],
                        space.ppns[rng.random_range(0..space.ppns.len())],
                        space.msg_sizes[rng.random_range(0..space.msg_sizes.len())],
                    ),
                };
                mine.push(line(
                    &WireRequest::Query {
                        request: query.clone(),
                    },
                    Some(queries.len()),
                ));
                queries.push(PlannedQuery { request: r, query });
            }
        }
        lines.push(mine);
    }
    ReadPlan { queries, lines }
}

/// What the read phase observed.
#[derive(Default)]
pub struct ReadOutcome {
    /// `Query` round trips, µs.
    pub query_us: Vec<f64>,
    /// Warm `Tune` round trips, µs.
    pub tune_us: Vec<f64>,
    /// Time spent driving requests, summed over the phase's windows.
    pub elapsed_s: f64,
    /// Growth of the daemon's peak RSS while requests were driven, MiB.
    pub rss_growth_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// The first answer to each planned query, decoded.
    pub answers: HashMap<usize, QueryResponse>,
    /// Round trips per planned query that returned its first answer.
    pub answered: HashMap<usize, usize>,
}

/// One closed-loop client: its connection and lines, the first reply
/// to each line, where it is in its cycle of lines, and what it saw.
struct Client<'p> {
    conn: Conn,
    lines: &'p [PlannedLine],
    first: Vec<Option<(String, bool)>>,
    next: usize,
    out: ReadOutcome,
}

impl Client<'_> {
    /// Send lines in a closed loop until `deadline`, continuing the
    /// cycle where the last window left it. A `Query` line's first
    /// answer is decoded and kept for [`check`]; a repeat must return
    /// the same bytes, and [`check`] fails every round trip that
    /// carried a wrong answer. Every warm `Tune` answer must report a
    /// cache hit (its job id differs each time).
    fn drive(&mut self, deadline: Instant) -> io::Result<()> {
        let out = &mut self.out;
        while Instant::now() < deadline {
            let i = self.next;
            self.next = (i + 1) % self.lines.len();
            let line = &self.lines[i];
            let sent = Instant::now();
            let reply = self.conn.round_trip(&line.text)?;
            let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
            out.attempted += 1;
            let ok = match line.query {
                None => {
                    out.tune_us.push(rtt_us);
                    matches!(decode_response(reply), Ok(WireResponse::Tuned { cached: true, keys, .. }) if !keys.is_empty())
                }
                Some(q) => {
                    out.query_us.push(rtt_us);
                    let decoded = match &self.first[i] {
                        Some((expected, decoded)) => *decoded && reply == expected,
                        None => {
                            let decoded = match decode_response(reply) {
                                Ok(WireResponse::Selected { response }) => {
                                    out.answers.insert(q, response);
                                    true
                                }
                                _ => false,
                            };
                            self.first[i] = Some((reply.to_string(), decoded));
                            decoded
                        }
                    };
                    if decoded {
                        *out.answered.entry(q).or_default() += 1;
                    }
                    decoded
                }
            };
            if !ok {
                out.failed += 1;
            }
        }
        Ok(())
    }
}

/// The read phase: [`CONNECTIONS`] closed-loop clients on one daemon,
/// driven in one or more windows (the tune workloads drive one after
/// every cold tune, so reads and tunes span the same time).
pub struct Reader<'p> {
    clients: Vec<Client<'p>>,
    pid: u32,
    elapsed_s: f64,
    rss_growth_mb: f64,
}

impl<'p> Reader<'p> {
    /// Connect the clients, one per connection of `plan`.
    pub fn open(daemon: &Daemon, plan: &'p ReadPlan) -> io::Result<Reader<'p>> {
        let clients = plan
            .lines
            .iter()
            .map(|lines| {
                Ok(Client {
                    conn: daemon.connect()?,
                    lines,
                    first: vec![None; lines.len()],
                    next: 0,
                    out: ReadOutcome::default(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Reader {
            clients,
            pid: daemon.pid(),
            elapsed_s: 0.0,
            rss_growth_mb: 0.0,
        })
    }

    /// Drive every client for `duration`, one on this thread and one
    /// on a scoped thread.
    pub fn window(&mut self, duration: Duration) -> io::Result<()> {
        let rss_before = proc_peak_rss_mb(self.pid)?;
        let started = Instant::now();
        let deadline = started + duration;
        let [mine, other] = &mut self.clients[..] else {
            unreachable!("{CONNECTIONS} read-phase connections")
        };
        let (a, b) = std::thread::scope(|s| {
            let b = s.spawn(|| other.drive(deadline));
            (
                mine.drive(deadline),
                b.join().expect("read-phase client panicked"),
            )
        });
        a?;
        b?;
        self.elapsed_s += started.elapsed().as_secs_f64();
        self.rss_growth_mb += proc_peak_rss_mb(self.pid)? - rss_before;
        Ok(())
    }

    /// Close the connections and merge what the clients observed.
    pub fn finish(self) -> ReadOutcome {
        let mut all = ReadOutcome {
            elapsed_s: self.elapsed_s,
            rss_growth_mb: self.rss_growth_mb,
            ..ReadOutcome::default()
        };
        for c in self.clients {
            all.query_us.extend(c.out.query_us);
            all.tune_us.extend(c.out.tune_us);
            all.attempted += c.out.attempted;
            all.failed += c.out.failed;
            all.answers.extend(c.out.answers);
            all.answered.extend(c.out.answered);
        }
        all
    }
}

/// Run the read phase in one window of `duration`.
pub fn read_phase(daemon: &Daemon, plan: &ReadPlan, duration: Duration) -> io::Result<ReadOutcome> {
    let mut reader = Reader::open(daemon, plan)?;
    reader.window(duration)?;
    Ok(reader.finish())
}

/// Check the read phase's answers and count its operations. Every
/// `Query` answer must be `Tuned` and equal both an in-process
/// [`TuneService`] that tuned the same `requests` on a fresh store and
/// the pick of `file_of(request)`, the tuning file of the job the query
/// targets; every round trip that carried a wrong answer fails. Returns
/// the mean in-process query time (µs).
///
/// The twin tunes instead of reopening the daemon's store because
/// opening a store parses every entry, which costs seconds per entry
/// at the tune workloads' sizes.
pub fn check<'a>(
    ctx: &Ctx,
    requests: &[TuneRequest],
    plan: &ReadPlan,
    read: &ReadOutcome,
    file_of: impl Fn(usize) -> &'a TuningFile,
    rep: &mut Report,
) -> io::Result<f64> {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let service = TuneService::open(ctx.dir.join("twin-store"), config, Obs::disabled())?;
    for r in requests {
        if !matches!(service.submit(r.clone()).wait(), JobStatus::Done(_)) {
            return Err(io::Error::other("in-process twin tune failed"));
        }
    }
    let mut wrong = 0;
    for (&q, daemon) in &read.answers {
        let planned = &plan.queries[q];
        let lib = service.query(&planned.query);
        let same_prediction = match (lib.predicted_us, daemon.predicted_us) {
            (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            _ => false,
        };
        let in_file = file_of(planned.request)
            .select(planned.query.collective, planned.query.point)
            .map(|alg| alg.name());
        let ok = daemon.source == QuerySource::Tuned
            && lib.source == QuerySource::Tuned
            && lib.algorithm == daemon.algorithm
            && same_prediction
            && in_file == Some(daemon.algorithm.as_str());
        if !ok {
            wrong += read.answered[&q];
        }
    }
    rep.ops(read.attempted, read.failed + wrong);
    rep.op(!read.answers.is_empty());
    let queries: Vec<&QueryRequest> = read
        .answers
        .keys()
        .map(|&q| &plan.queries[q].query)
        .collect();
    let lib_us = per_item_us(&queries, |q| {
        black_box(service.query(q));
    });
    service.shutdown();
    Ok(lib_us)
}

/// Per-item cost of `f` over `items`, µs: the median over several
/// passes of each pass's mean.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    const PASSES: usize = 7;
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            items.iter().for_each(&mut f);
            started.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&passes)
}

/// Per-line µs to decode the plan's `Query` lines and to encode the
/// daemon's answers, with the crate's own protocol functions.
pub fn codec_us(plan: &ReadPlan, answers: &HashMap<usize, QueryResponse>) -> (f64, f64) {
    let lines: Vec<&str> = plan
        .lines
        .iter()
        .flatten()
        .filter(|l| l.query.is_some())
        .map(|l| l.text.as_str())
        .collect();
    let decode = per_item_us(&lines, |l| {
        black_box(decode_request(l).expect("planned lines decode"));
    });
    let responses: Vec<WireResponse> = answers
        .values()
        .map(|r| WireResponse::Selected {
            response: r.clone(),
        })
        .collect();
    let encode = per_item_us(&responses, |r| {
        black_box(encode_response(r));
    });
    (decode, encode)
}

/// The daemon's own phase means (µs) from a `Metrics` scrape:
/// queue wait, refit, and store write-back.
pub fn scrape_phases(conn: &mut Conn) -> io::Result<[f64; 3]> {
    let WireResponse::Metrics { json, .. } = conn.call(METRICS_LINE)? else {
        return Err(io::Error::other("unexpected Metrics reply"));
    };
    let doc: serde_json::Value =
        serde_json::from_str(&json).map_err(|e| io::Error::other(e.to_string()))?;
    let mean = |name: &str| -> io::Result<f64> {
        doc.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("mean"))
            .and_then(|m| m.as_f64())
            .ok_or_else(|| io::Error::other(format!("metrics scrape lacks {name}")))
    };
    Ok([
        mean("serve.phase.queue_wait_us")?,
        mean("serve.phase.refit_us")?,
        mean("serve.phase.write_back_us")?,
    ])
}

/// One cold `Tune` round trip (µs); the reply must report a fresh
/// training run, not a cache hit.
pub fn cold_tune(conn: &mut Conn, request: &TuneRequest) -> io::Result<(f64, bool)> {
    let mut line = encode_request(&WireRequest::Tune {
        request: request.clone(),
    });
    line.push('\n');
    let sent = Instant::now();
    let reply = conn.call(&line)?;
    let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
    let ok = matches!(reply, WireResponse::Tuned { cached: false, .. });
    Ok((rtt_us, ok))
}
