//! Pins the daemon's per-request telemetry: the host spans on each
//! `req <id>` track, the flight record, and the `serve.phase.*`
//! histogram sample counts, for every way a request can end.
//!
//! One single-worker service is driven through five outcomes in a
//! fixed order:
//!
//! 1. a cold tune (`trained`);
//! 2. the same request again (`cached`);
//! 3. a tune held mid-run by the `before_collective` hook and
//!    cancelled there (`cancelled`, after the probe);
//! 4. a tune cancelled while still queued behind 3 (no record at all:
//!    it never reached a worker);
//! 5. a drift re-tune of 1's signature, triggered by one
//!    out-of-band observation (`retuned`, priority class `low`).
//!
//! Time values are not pinned, only which phases ran (nonzero) and how
//! the spans are named, laid out and attributed. Each phase span must
//! also last exactly as long as the phase time the flight record
//! reports for it.

use acclaim::obs::{AttrValue, FlightRecord, SpanRecord};
use acclaim::prelude::*;
use acclaim::serve::{loadgen, DriftConfig, JobId, QueryRequest, ServiceHooks};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A `before_collective` hook that, once armed, blocks the next call
/// until released. With one worker the next call belongs to the next
/// job that trains.
#[derive(Default)]
struct Hold {
    armed: AtomicBool,
    entered: (Mutex<bool>, Condvar),
    released: (Mutex<bool>, Condvar),
}

impl Hold {
    fn hook(self: &Arc<Self>) -> Arc<dyn Fn(JobId) + Send + Sync> {
        let hold = self.clone();
        Arc::new(move |_id| {
            if !hold.armed.swap(false, Ordering::SeqCst) {
                return;
            }
            set_and_notify(&hold.entered);
            wait_for(&hold.released);
        })
    }
}

fn set_and_notify(flag: &(Mutex<bool>, Condvar)) {
    *flag.0.lock().unwrap() = true;
    flag.1.notify_all();
}

fn wait_for(flag: &(Mutex<bool>, Condvar)) {
    let mut set = flag.0.lock().unwrap();
    while !*set {
        set = flag.1.wait(set).unwrap();
    }
}

/// Poll until `done` holds (the worker writes its telemetry just after
/// the job's waiters wake).
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    for _ in 0..10_000 {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

/// One span as pinned: everything but its time stamps and time-valued
/// attributes (whose keys are kept, their values replaced).
#[derive(Debug, PartialEq)]
struct Pinned {
    cat: String,
    name: String,
    track: String,
    attrs: Vec<(String, AttrValue)>,
}

const TIME_ATTRS: [&str; 1] = ["refit_us"];

fn pin(span: &SpanRecord) -> Pinned {
    Pinned {
        cat: span.cat.clone(),
        name: span.name.clone(),
        track: span.track.clone(),
        attrs: span
            .attrs
            .iter()
            .map(|(k, v)| {
                let v = if TIME_ATTRS.contains(&k.as_str()) {
                    AttrValue::Str("<time>".into())
                } else {
                    v.clone()
                };
                (k.clone(), v)
            })
            .collect(),
    }
}

fn expect(name: &str, id: JobId, attrs: Vec<(&str, AttrValue)>) -> Pinned {
    Pinned {
        cat: "serve".into(),
        name: name.into(),
        track: format!("req {id}"),
        attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }
}

fn u(v: usize) -> AttrValue {
    AttrValue::U64(v as u64)
}

fn s(v: &str) -> AttrValue {
    AttrValue::Str(v.into())
}

/// The spans a request that went through probe, collect and
/// write-back leaves on its track.
#[allow(clippy::too_many_arguments)]
fn full_run(
    id: JobId,
    class: &str,
    warm_hits: usize,
    iterations: usize,
    fresh_points: usize,
    fingerprint: u64,
    outcome: &str,
) -> Vec<Pinned> {
    vec![
        queue_wait(id, class),
        expect(
            "probe",
            id,
            vec![("collectives", u(1)), ("warm_hits", u(warm_hits))],
        ),
        expect("collect", id, vec![("refit_us", s("<time>"))]),
        expect(
            "write_back",
            id,
            vec![
                ("iterations", u(iterations)),
                ("fresh_points", u(fresh_points)),
            ],
        ),
        envelope(id, fingerprint, class, outcome),
    ]
}

fn queue_wait(id: JobId, class: &str) -> Pinned {
    expect(
        "queue_wait",
        id,
        vec![("id", u(id as usize)), ("class", s(class))],
    )
}

fn envelope(id: JobId, fingerprint: u64, class: &str, outcome: &str) -> Pinned {
    expect(
        "request",
        id,
        vec![
            ("id", u(id as usize)),
            ("fingerprint", AttrValue::U64(fingerprint)),
            ("class", s(class)),
            ("outcome", s(outcome)),
            ("riders", u(0)),
            ("slow", AttrValue::Bool(false)),
        ],
    )
}

/// Which phase fields of a flight record are nonzero, in
/// `PhaseTimings` field order.
fn nonzero_phases(record: &FlightRecord) -> Vec<&'static str> {
    let p = &record.phases;
    [
        ("queue_wait_us", p.queue_wait_us),
        ("probe_us", p.probe_us),
        ("collect_us", p.collect_us),
        ("refit_us", p.refit_us),
        ("write_back_us", p.write_back_us),
        ("total_us", p.total_us),
    ]
    .into_iter()
    .filter(|(_, us)| *us > 0.0)
    .map(|(name, _)| name)
    .collect()
}

#[test]
fn every_outcome_emits_its_pinned_spans_flight_record_and_phase_samples() {
    let dir = temp_dir("acclaim-serve-spans");
    let hold = Arc::new(Hold::default());
    let config = ServeConfig {
        workers: 1,
        flight_capacity: 64,
        drift: DriftConfig {
            band: 1.4,
            min_obs: 1,
            cooldown_obs: 1_000,
            ..DriftConfig::default()
        },
        hooks: ServiceHooks {
            before_collective: Some(hold.hook()),
            ..ServiceHooks::default()
        },
        ..ServeConfig::default()
    };
    let obs = Obs::enabled();
    let service = TuneService::open(&dir, config, obs.clone()).unwrap();
    let pool = loadgen::request_pool(3, 5);
    let (a, b, c) = (pool[0].clone(), pool[1].clone(), pool[2].clone());

    // 1 and 2: trained, then cached.
    let trained = service.submit(a.clone());
    let JobStatus::Done(first) = trained.wait() else {
        panic!("the cold tune must finish");
    };
    let cached = service.submit(a.clone());
    assert!(matches!(cached.wait(), JobStatus::Done(r) if r.cached));

    // 3 and 4: hold B inside its first collective, queue C behind it
    // and cancel C there, then cancel B at the hook.
    hold.armed.store(true, Ordering::SeqCst);
    let held = service.submit(b.clone());
    wait_for(&hold.entered);
    let queued = service.submit(c.clone());
    assert!(matches!(queued.status(), JobStatus::Queued));
    assert!(queued.cancel());
    assert!(matches!(queued.wait(), JobStatus::Cancelled));
    assert!(held.cancel());
    set_and_notify(&hold.released);
    assert!(matches!(held.wait(), JobStatus::Cancelled));

    // 5: one observation ten times the prediction triggers a re-tune.
    let query = QueryRequest {
        dataset: a.dataset.clone(),
        config: a.config.clone(),
        collective: a.collectives[0],
        point: a.config.space.points()[0],
    };
    let served = service.query(&query);
    let predicted = served.predicted_us.expect("A is tuned");
    assert!(
        service
            .observe(&query, &served.algorithm, predicted * 10.0)
            .matched
    );
    eventually("the re-tune's flight record", || {
        service
            .flight_recent(64)
            .iter()
            .any(|r| r.outcome == "retuned")
    });
    eventually("every request span", || {
        obs.snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "request")
            .count()
            == 4
    });

    // Flight records: one per request that reached a worker.
    let records = service.flight_recent(64);
    let summary: Vec<(JobId, &str, &str, u64, Vec<&str>)> = records
        .iter()
        .map(|r| {
            (
                r.id,
                r.outcome.as_str(),
                r.class.as_str(),
                r.riders,
                nonzero_phases(r),
            )
        })
        .collect();
    let all = vec![
        "queue_wait_us",
        "probe_us",
        "collect_us",
        "refit_us",
        "write_back_us",
        "total_us",
    ];
    let (t, h, q) = (trained.id(), held.id(), queued.id());
    let retune_id = q + 1;
    assert_eq!(
        summary,
        vec![
            (t, "trained", "normal", 0, all.clone()),
            (
                cached.id(),
                "cached",
                "normal",
                0,
                vec!["queue_wait_us", "total_us"]
            ),
            (
                h,
                "cancelled",
                "normal",
                0,
                vec![
                    "queue_wait_us",
                    "probe_us",
                    "collect_us",
                    "write_back_us",
                    "total_us",
                ],
            ),
            (retune_id, "retuned", "low", 0, all),
        ]
    );
    let retune_fingerprint = records[3].fingerprint;
    assert_ne!(retune_fingerprint, a.work_fingerprint());

    // Spans, per request track, in emission order.
    let snapshot = obs.snapshot();
    let mut spans: Vec<&SpanRecord> = snapshot.spans.iter().filter(|s| s.cat == "serve").collect();
    spans.sort_by_key(|s| s.id);
    let track = |id: JobId| -> Vec<Pinned> {
        spans
            .iter()
            .filter(|s| s.track == format!("req {id}"))
            .map(|s| pin(s))
            .collect()
    };
    assert_eq!(
        track(t),
        full_run(
            t,
            "normal",
            0,
            first.iterations,
            first.fresh_points,
            a.work_fingerprint(),
            "trained"
        )
    );
    assert_eq!(
        track(cached.id()),
        vec![
            queue_wait(cached.id(), "normal"),
            envelope(cached.id(), a.work_fingerprint(), "normal", "cached"),
        ]
    );
    assert_eq!(
        track(h),
        full_run(h, "normal", 0, 0, 0, b.work_fingerprint(), "cancelled")
    );
    assert!(
        track(q).is_empty(),
        "a job cancelled in the queue never ran"
    );
    let entry = service
        .shared()
        .store()
        .get(&first.keys[0])
        .unwrap()
        .expect("the re-tune republished A's entry");
    assert_eq!(
        track(retune_id),
        full_run(
            retune_id,
            "low",
            1,
            entry.iterations,
            entry.samples.len(),
            retune_fingerprint,
            "retuned"
        )
    );
    // Each span lasts what the flight record reports for its phase:
    // both come from one clock reading per phase boundary.
    for r in &records {
        let p = &r.phases;
        for span in spans.iter().filter(|s| s.track == format!("req {}", r.id)) {
            let reported = match span.name.as_str() {
                "queue_wait" => p.queue_wait_us,
                "probe" => p.probe_us,
                "collect" => p.collect_us + p.refit_us,
                "write_back" => p.write_back_us,
                "request" => p.total_us,
                other => panic!("unexpected span {other:?}"),
            };
            assert!(
                (span.duration_us() - reported).abs() <= 1e-9 * span.end_us.max(1.0),
                "req {} {}: span {} us, flight record {} us",
                r.id,
                span.name,
                span.duration_us(),
                reported
            );
        }
    }
    // Off the request tracks: one guarded `job` span per request that
    // passed the cancellation check at pop, and the one `query`.
    let mut other: Vec<&str> = spans
        .iter()
        .filter(|s| !s.track.starts_with("req "))
        .map(|s| s.name.as_str())
        .collect();
    other.sort_unstable();
    assert_eq!(other, vec!["job", "job", "job", "job", "query"]);

    // Histogram sample counts.
    let mut counts: Vec<(String, u64)> = snapshot
        .metrics
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("serve.phase."))
        .map(|(n, h)| (n.clone(), h.count))
        .collect();
    counts.sort();
    let expected: Vec<(String, u64)> = [
        ("serve.phase.collect_us", 3),
        ("serve.phase.probe_us", 3),
        ("serve.phase.queue_wait_us", 4),
        ("serve.phase.refit_us", 3),
        ("serve.phase.total_us", 4),
        ("serve.phase.write_back_us", 3),
    ]
    .into_iter()
    .map(|(n, c)| (n.to_string(), c))
    .collect();
    assert_eq!(counts, expected);

    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}
