//! Golden inertness tests for the serve telemetry subsystem.
//!
//! The contract under test (DESIGN.md "Serve telemetry"): with
//! telemetry off the daemon spends nothing and behaves exactly as
//! before; with telemetry *on* — request tracing, phase histograms,
//! flight recorder, slow-log, drift watch — it observes but never
//! feeds back. Concretely:
//!
//! 1. **Bit-identity, seeds 0–4** — the same tune request through a
//!    telemetry-off service and a fully instrumented one (enabled
//!    recorder, flight ring, zero-threshold slow log) produces the
//!    same tuning-file JSON and byte-identical store entries.
//! 2. **Drift is measurement-only** — feeding observed costs back via
//!    `observe` changes gauges, never the store or subsequent answers.
//! 3. **Expositions are schema-valid** — the Prometheus text and JSON
//!    scrapes and the flight-recorder dump validate under the
//!    `obs-check` contracts and cover the documented series.

use acclaim::obs::schema::{validate_flight_records, validate_metrics_json};
use acclaim::obs::{to_metrics_json, to_prometheus, FlightRecorder};
use acclaim::prelude::*;
use acclaim::serve::loadgen;
use acclaim::serve::QueryRequest;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Read every entry of a store as `key -> canonical JSON`.
fn entry_snapshot(store: &TuningStore) -> BTreeMap<String, String> {
    store
        .keys()
        .unwrap()
        .into_iter()
        .map(|k| {
            let entry = store.get(&k).unwrap().expect("entry must be readable");
            (k, serde_json::to_string(&entry).unwrap())
        })
        .collect()
}

/// A fully instrumented config: flight ring, slow-log at the most
/// aggressive possible threshold, quiet diagnostics.
fn instrumented() -> ServeConfig {
    ServeConfig {
        flight_capacity: 64,
        slow_log_factor: Some(0.0),
        diag: Diag::new(true),
        ..ServeConfig::default()
    }
}

/// Tune `request` once on a fresh store and return the tuning-file
/// JSON plus the store bytes, leaving the service alive for follow-ups.
fn tune_once(
    service: &TuneService,
    request: &TuneRequest,
    label: &str,
) -> (String, BTreeMap<String, String>) {
    let JobStatus::Done(result) = service.submit(request.clone()).wait() else {
        panic!("{label}: job did not finish");
    };
    (
        serde_json::to_string(&result.tuning_file).unwrap(),
        entry_snapshot(service.shared().store()),
    )
}

#[test]
fn telemetry_on_is_bit_identical_to_telemetry_off_for_seeds_0_to_4() {
    // Seeds 0..5 over the 4-wide pool cover all four collectives.
    for seed in 0..5u64 {
        let request = {
            let pool = loadgen::request_pool(4, seed);
            pool[(seed as usize) % 4].clone()
        };

        let dir_off = temp_dir(&format!("acclaim-telemetry-off-{seed}"));
        let off = TuneService::open(&dir_off, ServeConfig::default(), Obs::disabled()).unwrap();
        let (tuning_off, entries_off) = tune_once(&off, &request, &format!("seed {seed} off"));

        let dir_on = temp_dir(&format!("acclaim-telemetry-on-{seed}"));
        let on = TuneService::open(&dir_on, instrumented(), Obs::enabled()).unwrap();
        let (tuning_on, entries_on) = tune_once(&on, &request, &format!("seed {seed} on"));

        assert_eq!(
            tuning_off, tuning_on,
            "seed {seed}: telemetry changed the tuning file"
        );
        assert_eq!(
            entries_off, entries_on,
            "seed {seed}: telemetry changed the store bytes"
        );

        // Drift feedback and repeat traffic on the instrumented side
        // move gauges only: the store stays byte-identical and the
        // cached answer matches the trained one.
        let point = request.config.space.points()[0];
        let query = QueryRequest {
            dataset: request.dataset.clone(),
            config: request.config.clone(),
            collective: request.collectives[0],
            point,
        };
        let selected = on.query(&query);
        let sample = on.observe(&query, &selected.algorithm, 100.0);
        assert!(
            sample.matched,
            "seed {seed}: drift must match the freshly tuned signature"
        );
        let (tuning_again, entries_again) =
            tune_once(&on, &request, &format!("seed {seed} repeat"));
        assert_eq!(
            tuning_off, tuning_again,
            "seed {seed}: cache served different rules"
        );
        assert_eq!(
            entries_off, entries_again,
            "seed {seed}: drift observation perturbed the store"
        );

        drop(off);
        drop(on);
        std::fs::remove_dir_all(&dir_off).ok();
        std::fs::remove_dir_all(&dir_on).ok();
    }
}

#[test]
fn expositions_validate_and_cover_the_documented_series() {
    let request = loadgen::request_pool(1, 42)[0].clone();
    let dir = temp_dir("acclaim-telemetry-expose");
    let service = TuneService::open(&dir, instrumented(), Obs::enabled()).unwrap();

    // One trained request, then enough cached repeats to arm the
    // slow-log warm-up (8 samples) — with factor 0 every request after
    // that is "slow".
    for _ in 0..10 {
        let JobStatus::Done(_) = service.submit(request.clone()).wait() else {
            panic!("job did not finish");
        };
    }
    // `wait()` returns when the job result lands; the worker records
    // telemetry just after. The flight record is the *last* thing a
    // request writes, so once the ring holds all ten the histograms
    // and counters are settled too.
    for _ in 0..2000 {
        if service.flight_recent(32).len() == 10 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let point = request.config.space.points()[0];
    let query = QueryRequest {
        dataset: request.dataset.clone(),
        config: request.config.clone(),
        collective: request.collectives[0],
        point,
    };
    let selected = service.query(&query);
    assert!(service.observe(&query, &selected.algorithm, 80.0).matched);
    assert!(!service.observe(&query, "no_such_algorithm", 80.0).matched);

    // Both expositions hold the obs-check contracts.
    let snapshot = service.metrics();
    validate_metrics_json(&to_metrics_json(&snapshot)).expect("metrics JSON validates");
    let prometheus = to_prometheus(&snapshot);
    for series in [
        "# TYPE serve_tune_requests counter",
        "serve_phase_queue_wait_us_bucket",
        "serve_phase_total_us_count 10",
        "serve_queue_depth 0",
        "drift_observations 1",
        "drift_unmatched 1",
    ] {
        assert!(
            prometheus.contains(series),
            "missing {series:?} in:\n{prometheus}"
        );
    }

    // The flight dump: one record per request — one trained, the rest
    // cached (ring order is telemetry-completion order, which can lag
    // job-completion order across workers) — and it validates as a
    // flight JSONL stream.
    let records = service.flight_recent(32);
    assert_eq!(records.len(), 10);
    assert_eq!(records.iter().filter(|r| r.outcome == "trained").count(), 1);
    assert_eq!(records.iter().filter(|r| r.outcome == "cached").count(), 9);
    assert!(records.iter().all(|r| r.phases.total_us > 0.0));
    let dump = FlightRecorder::to_jsonl(&records);
    assert_eq!(validate_flight_records(&dump).unwrap(), 10);

    // The slow log fired once the warm-up was over.
    let slow = snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "serve.slow_requests")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(slow >= 1, "zero-threshold slow log never fired");

    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}
