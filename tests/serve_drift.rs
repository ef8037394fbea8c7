//! End-to-end tests for the drift policy engine (DESIGN.md Sec. 13).
//!
//! The contract under test:
//!
//! 1. **Self-healing without restart** — when the measurement regime
//!    shifts underneath a served model (here: degraded network
//!    parameters behind the test database hook), `Observe` feedback
//!    drives the detector out of band, the daemon queues itself a
//!    Low-priority warm re-tune, republishes the refreshed model, and
//!    the observed/predicted ratios converge back — all on a daemon
//!    with telemetry *disabled* (policy must not depend on the
//!    recorder) and with at most 2 triggers for one shift.
//! 2. **The re-tune is warm** — it reuses the store rows as deweighted
//!    priors and converges in strictly fewer iterations than a cold
//!    tune of the shifted regime.
//! 3. **Band 0 is inert** — with the default (disabled) band, heavy
//!    `Observe` traffic leaves tuning files and store bytes
//!    bit-identical to a service that never saw an observation, for
//!    seeds 0–4.
//! 4. **The re-tune is the library plan** — a drift re-tune writes the
//!    same tuning file and store entry as `StorePlan` with the same
//!    drift weight, run on a copy of the store over the shifted
//!    database.

use acclaim::prelude::*;
use acclaim::serve::{loadgen, DriftConfig, QueryRequest, ServiceHooks};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The same environment after a network degradation: every layer
/// slower, injection bandwidth at a third, slower CPUs. The dataset
/// *config* in requests stays unchanged — the shift happens underneath
/// the signature, which is exactly what drift means.
fn degraded(mut config: DatasetConfig) -> DatasetConfig {
    for l in &mut config.cluster.params.latency_us {
        *l *= 3.0;
    }
    config.cluster.params.nic_bandwidth /= 3.0;
    config.cluster.params.mem_bandwidth /= 3.0;
    config.cluster.params.cpu_overhead_us *= 3.0;
    config
}

/// A one-worker daemon config whose database hook trains on
/// `degraded` once `shifted` is set, with a drift band that triggers.
fn shifting_config(shifted: &Arc<AtomicBool>) -> ServeConfig {
    let hook_shifted = shifted.clone();
    let hooks = ServiceHooks {
        database: Some(Arc::new(move |cfg: &DatasetConfig| {
            if hook_shifted.load(Ordering::SeqCst) {
                BenchmarkDatabase::new(degraded(cfg.clone()))
            } else {
                BenchmarkDatabase::new(cfg.clone())
            }
        })),
        ..ServiceHooks::default()
    };
    let drift = DriftConfig {
        band: 1.4,
        min_obs: 6,
        cooldown_obs: 12,
        deweight: 0.75,
        ..DriftConfig::default()
    };
    ServeConfig {
        workers: 1,
        drift,
        hooks,
        ..ServeConfig::default()
    }
}

fn one_collective_request() -> TuneRequest {
    let mut r = loadgen::request_pool(1, 9)[0].clone();
    r.collectives.truncate(1);
    r
}

#[test]
fn regime_shift_triggers_warm_retune_and_converges_back() {
    let dir = temp_dir("acclaim-serve-drift-shift");
    let shifted = Arc::new(AtomicBool::new(false));
    // Telemetry disabled: the policy engine must not be blind without
    // the metrics recorder.
    let service = TuneService::open(&dir, shifting_config(&shifted), Obs::disabled()).unwrap();
    let request = one_collective_request();
    let collective = request.collectives[0];

    // Phase 1: cold tune under the healthy regime.
    let JobStatus::Done(cold) = service.submit(request.clone()).wait() else {
        panic!("cold tune did not finish");
    };
    assert!(!cold.cached && cold.iterations > 0);
    let key = cold.keys[0].clone();

    // Phase 2: the regime shifts. Future in-service measurements (the
    // re-tune) and our simulated application feedback both come from
    // the degraded environment.
    shifted.store(true, Ordering::SeqCst);
    let shifted_db = BenchmarkDatabase::new(degraded(request.dataset.clone()));

    // What would a from-scratch tune of the shifted regime cost? The
    // warm re-tune must beat this.
    let cold_shifted = Acclaim::new(request.config.clone()).tune(&shifted_db, &[collective]);
    let cold_shifted_iterations = cold_shifted.reports[0].1.log.len();

    // Phase 3: drive Observe with real degraded-regime costs until at
    // least one self-submitted re-tune completes AND the detector's
    // fresh post-re-tune window settles back inside the band. A first
    // re-tune may land between regimes (deweighted stale priors pull
    // the forest back); the detector is allowed one more trigger to
    // finish the job.
    let points = request.config.space.points();
    let mut settled = false;
    'drive: for round in 0..400 {
        for &point in &points {
            let query = QueryRequest {
                dataset: request.dataset.clone(),
                config: request.config.clone(),
                collective,
                point,
            };
            let selected = service.query(&query);
            let alg = collective
                .algorithms()
                .iter()
                .copied()
                .find(|a| a.name() == selected.algorithm)
                .expect("served algorithm must belong to the collective");
            let observed = shifted_db.sample(alg, point).mean_us;
            let sample = service.observe(&query, &selected.algorithm, observed);
            assert!(sample.matched, "round {round}: observation must match");
            let report = service.drift_status();
            if report.completed >= 1 {
                let sig = report
                    .signatures
                    .iter()
                    .find(|s| s.key == key)
                    .expect("the tuned signature must be tracked");
                // The window resets on a successful re-tune, so an
                // in-band mean over a full window is post-re-tune
                // evidence only.
                if !sig.in_flight && sig.window >= 6 && sig.mean < 1.4 && sig.mean > 1.0 / 1.4 {
                    settled = true;
                    break 'drive;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(settled, "the daemon never converged back after the shift");

    let report = service.drift_status();
    assert!(report.enabled);
    assert!(
        (1..=2).contains(&report.triggered),
        "one regime shift must trigger at most 2 re-tunes, got {}",
        report.triggered
    );
    // The flight recorder runs even with telemetry disabled; the
    // re-tune lands there as a Low-priority "retuned" record (the
    // record is written just after the detector learns of completion,
    // so give it a moment).
    let mut retuned_record = false;
    for _ in 0..2000 {
        if service
            .flight_recent(64)
            .iter()
            .any(|r| r.outcome == "retuned" && r.class == "low")
        {
            retuned_record = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        retuned_record,
        "the re-tune must fly as low-priority 'retuned'"
    );

    // The re-tune was warm: the republished entry's training run used
    // strictly fewer iterations than the cold shifted baseline.
    let entry = service
        .shared()
        .store()
        .get(&key)
        .unwrap()
        .expect("the re-tuned entry must exist");
    assert!(
        entry.iterations < cold_shifted_iterations,
        "warm re-tune took {} iterations, cold shifted tune {}",
        entry.iterations,
        cold_shifted_iterations
    );

    // The refreshed model predicts the degraded regime: fresh
    // observations land inside the trigger band again.
    let mut ratios = Vec::new();
    for &point in &points {
        let query = QueryRequest {
            dataset: request.dataset.clone(),
            config: request.config.clone(),
            collective,
            point,
        };
        let selected = service.query(&query);
        let alg = collective
            .algorithms()
            .iter()
            .copied()
            .find(|a| a.name() == selected.algorithm)
            .unwrap();
        let observed = shifted_db.sample(alg, point).mean_us;
        ratios.push(observed / selected.predicted_us.unwrap());
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean < 1.4 && mean > 1.0 / 1.4,
        "post-re-tune mean ratio {mean} must sit inside the band"
    );

    drop(service);
    std::fs::remove_dir_all(&dir).ok();
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

#[test]
fn disabled_band_with_observe_traffic_is_bit_identical_for_seeds_0_to_4() {
    for seed in 0..5u64 {
        let request = {
            let pool = loadgen::request_pool(4, seed);
            pool[(seed as usize) % 4].clone()
        };

        // Reference: default service, no observations ever.
        let dir_ref = temp_dir(&format!("acclaim-drift-ref-{seed}"));
        let reference =
            TuneService::open(&dir_ref, ServeConfig::default(), Obs::disabled()).unwrap();
        let JobStatus::Done(ref_result) = reference.submit(request.clone()).wait() else {
            panic!("seed {seed}: reference tune did not finish");
        };
        let ref_tuning = serde_json::to_string(&ref_result.tuning_file).unwrap();
        let ref_entries = entry_snapshot(reference.shared().store());

        // Under test: the default (band 0) drift config with heavy
        // observation traffic interleaved before and after tuning.
        let dir_obs = temp_dir(&format!("acclaim-drift-observed-{seed}"));
        let observed =
            TuneService::open(&dir_obs, ServeConfig::default(), Obs::disabled()).unwrap();
        let JobStatus::Done(obs_result) = observed.submit(request.clone()).wait() else {
            panic!("seed {seed}: observed tune did not finish");
        };
        let query = QueryRequest {
            dataset: request.dataset.clone(),
            config: request.config.clone(),
            collective: request.collectives[0],
            point: request.config.space.points()[0],
        };
        let selected = observed.query(&query);
        for i in 0..40 {
            // Wildly drifted costs: with the band disabled the
            // detector tracks them and never acts.
            let sample = observed.observe(&query, &selected.algorithm, 1e6 + f64::from(i));
            assert!(sample.matched);
        }
        let report = observed.drift_status();
        assert!(!report.enabled, "the default band must disable triggering");
        assert_eq!(report.triggered, 0);
        assert_eq!(report.tracked, 1, "the detector still tracks blind");

        // Re-tune after the observation burst: still cache-served.
        let JobStatus::Done(again) = observed.submit(request.clone()).wait() else {
            panic!("seed {seed}: repeat tune did not finish");
        };
        assert!(again.cached);

        assert_eq!(
            serde_json::to_string(&obs_result.tuning_file).unwrap(),
            ref_tuning,
            "seed {seed}: observations changed the tuning file"
        );
        assert_eq!(
            serde_json::to_string(&again.tuning_file).unwrap(),
            ref_tuning,
            "seed {seed}: observations changed the cached answer"
        );
        assert_eq!(
            entry_snapshot(observed.shared().store()),
            ref_entries,
            "seed {seed}: observations perturbed the store bytes"
        );
        assert_eq!(observed.stats().drift_triggered, 0);

        drop(reference);
        drop(observed);
        std::fs::remove_dir_all(&dir_ref).ok();
        std::fs::remove_dir_all(&dir_obs).ok();
    }
}

#[test]
fn drift_retune_is_the_library_plan_on_the_shifted_database() {
    // The daemon's re-tune must be exactly the store plan with the
    // drift weight, run over a copy of the store it probed and on the
    // database the hook shifted: same tuning file, same written entry.
    let dir = temp_dir("acclaim-serve-drift-pin");
    let copy = temp_dir("acclaim-serve-drift-pin-copy");
    let shifted = Arc::new(AtomicBool::new(false));
    let config = shifting_config(&shifted);
    let deweight = config.drift.deweight;
    let min_obs = config.drift.min_obs;
    let service = TuneService::open(&dir, config, Obs::disabled()).unwrap();
    let request = one_collective_request();
    let JobStatus::Done(cold) = service.submit(request.clone()).wait() else {
        panic!("cold tune did not finish");
    };
    std::fs::create_dir_all(&copy).unwrap();
    for file in std::fs::read_dir(&dir).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), copy.join(file.file_name())).unwrap();
    }

    // Shift the regime, then report costs far out of band until the
    // detector queues exactly one re-tune, and wait for it.
    shifted.store(true, Ordering::SeqCst);
    let query = QueryRequest {
        dataset: request.dataset.clone(),
        config: request.config.clone(),
        collective: request.collectives[0],
        point: request.config.space.points()[0],
    };
    let selected = service.query(&query);
    let observed = 10.0 * selected.predicted_us.expect("a tuned model predicts");
    for _ in 0..min_obs {
        assert!(
            service
                .observe(&query, &selected.algorithm, observed)
                .matched
        );
    }
    let mut waited = 0;
    while service.drift_status().completed == 0 {
        assert!(waited < 60_000, "the re-tune never completed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        waited += 1;
    }
    assert_eq!(service.drift_status().triggered, 1);

    // The library side: the same plan on the copy and the shifted db.
    let store = TuningStore::open(&copy).unwrap();
    let shifted_db = BenchmarkDatabase::new(degraded(request.dataset.clone()));
    let obs = Obs::disabled();
    let plan = StorePlan::probe(
        &request.dataset,
        &request.config,
        &request.collectives,
        Some(deweight),
        Some(|sig: &ClusterSignature| store.probe(sig)),
        &obs,
    )
    .unwrap();
    let tuning = Acclaim::new(request.config.clone()).tune_with_warm(
        &shifted_db,
        &request.collectives,
        &obs,
        |c| plan.warm(c),
    );
    assert!(
        tuning.reports[0].1.prior_points > 0,
        "the re-tune starts warm"
    );
    let written = plan
        .write_back(&tuning, |entry| store.put(entry).map(drop), &obs)
        .unwrap();
    assert_eq!(written.keys, cold.keys);

    // The daemon serves the re-tuned rules from its cache.
    let JobStatus::Done(served) = service.submit(request.clone()).wait() else {
        panic!("repeat tune did not finish");
    };
    assert!(served.cached);
    assert_eq!(
        serde_json::to_string(&served.tuning_file).unwrap(),
        serde_json::to_string(&tuning.tuning_file).unwrap(),
        "the re-tuned rules differ from the library plan's"
    );
    assert_eq!(
        entry_snapshot(service.shared().store()),
        entry_snapshot(&store),
        "the re-tuned entry differs from the library plan's"
    );

    drop(service);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}
