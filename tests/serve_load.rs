//! Deterministic load tests for the `acclaim-serve` tuning service.
//!
//! The properties under test:
//!
//! 1. **Convergence at scale** — a thousand-plus concurrent tune
//!    sessions (16 virtual clients, seeded draws over a
//!    pairwise-incompatible request pool) all reach `Done` with
//!    converged rules, and the store holds exactly one entry per
//!    distinct signature touched.
//! 2. **Seed reproducibility** — rerunning the same load with the same
//!    seed against a fresh store produces the same per-session pool
//!    slots and store keys (fingerprint equality) and bit-identical
//!    store entries, hence the same rules, no matter how the scheduler
//!    interleaved the two runs.
//! 3. **Bit-identity with the library path** — a single session through
//!    the service produces the same tuning file and the same store
//!    entry as `tune_with_store` on the same inputs, for every seed, and
//!    a store of JSON copies of the daemon's binary entries serves the
//!    same tuning file and `Query` answers.
//!
//! Nothing here asserts on wall time or real randomness: every input is
//! derived from a seed, and every asserted digest excludes
//! interleaving-dependent facts (cache-hit vs. trained, iteration
//! counts).

use acclaim::prelude::*;
use acclaim::serve::loadgen::{self, LoadGenConfig};
use acclaim::serve::{QuerySource, ServeConfig, TuneService};
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

#[test]
fn thousand_concurrent_sessions_converge_and_reproduce_by_seed() {
    let load = LoadGenConfig {
        sessions: 1024,
        clients: 16,
        pool: 16,
        seed: 11,
        queries_per_session: 1,
    };

    let run_once = |name: &str| {
        let dir = temp_dir(name);
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
        let report = loadgen::run(&load, || Ok(loadgen::in_process(&service))).unwrap();
        let entries = entry_snapshot(service.shared().store());
        let index_len = service.shared().len();
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
        (report, entries, index_len)
    };

    let (report_a, entries_a, index_a) = run_once("acclaim-serve-load-a");

    assert_eq!(report_a.outcomes.len(), 1024);
    assert!(report_a.all_ok(), "every session must reach Done");
    assert!(report_a.all_converged(), "every session must converge");
    assert_eq!(report_a.queries, 1024);
    assert_eq!(
        report_a.default_selections, 0,
        "every query targets a signature its session just tuned"
    );
    // One store entry per distinct signature touched — no duplicates,
    // no stragglers.
    assert_eq!(index_a, report_a.distinct_keys().len());
    assert_eq!(entries_a.len(), report_a.distinct_keys().len());

    // Same seed, fresh store: same keys per session, same bytes in the
    // store — regardless of which sessions trained vs. hit the cache.
    let (report_b, entries_b, _) = run_once("acclaim-serve-load-b");
    assert_eq!(
        report_a.fingerprint(),
        report_b.fingerprint(),
        "same seed must reproduce every session's slot and keys"
    );
    assert_eq!(entries_a, entries_b, "store contents must be bit-identical");

    // A different seed draws a different pool and touches different
    // keys (everything is seeded, so this is deterministic too).
    let other = LoadGenConfig {
        seed: 12,
        ..load.clone()
    };
    let dir = temp_dir("acclaim-serve-load-d");
    let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
    let report_d = loadgen::run(&other, || Ok(loadgen::in_process(&service))).unwrap();
    assert_ne!(report_a.fingerprint(), report_d.fingerprint());
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_session_is_bit_identical_to_tune_with_store() {
    // The service must be `tune_with_store` plus scheduling — nothing
    // about queueing, slots, or the shared index may perturb training.
    // Seeds 0..5 cover all four collectives via the pool layout.
    for seed in 0..5u64 {
        let request = {
            let pool = loadgen::request_pool(4, seed);
            pool[(seed as usize) % 4].clone()
        };

        // Library path.
        let dir_lib = temp_dir(&format!("acclaim-serve-ident-lib-{seed}"));
        let store = TuningStore::open(&dir_lib).unwrap();
        let db = BenchmarkDatabase::new(request.dataset.clone());
        let direct = tune_with_store(
            Some(&store),
            &request.config,
            &db,
            &request.collectives,
            &Obs::disabled(),
        )
        .unwrap();

        // Service path (binary rows): same rules, same store rows,
        // despite the different on-disk encoding.
        let dir_srv = temp_dir(&format!("acclaim-serve-ident-srv-{seed}"));
        let service = TuneService::open(&dir_srv, ServeConfig::default(), Obs::disabled()).unwrap();
        let handle = service.submit(request.clone());
        let JobStatus::Done(result) = handle.wait() else {
            panic!("seed {seed}: service job did not finish");
        };

        assert_eq!(
            serde_json::to_string(&direct.tuning_file).unwrap(),
            serde_json::to_string(&result.tuning_file).unwrap(),
            "seed {seed}: tuning files must be bit-identical"
        );
        assert_eq!(
            entry_snapshot(&store),
            entry_snapshot(service.shared().store()),
            "seed {seed}: store entries must be bit-identical across formats"
        );

        drop(service);
        std::fs::remove_dir_all(&dir_lib).ok();
        std::fs::remove_dir_all(&dir_srv).ok();
    }
}

#[test]
fn json_and_binary_row_formats_serve_identical_results() {
    // The daemon writes binary rows and the CLI writes JSON. A store
    // holding JSON copies of the daemon's entries must serve exactly
    // what the daemon's own store serves.
    let request = loadgen::request_pool(1, 99)[0].clone();
    let dir_bin = temp_dir("acclaim-serve-fmt-bin");
    let daemon = TuneService::open(&dir_bin, ServeConfig::default(), Obs::disabled()).unwrap();
    let JobStatus::Done(trained) = daemon.submit(request.clone()).wait() else {
        panic!("job did not finish");
    };

    let dir_json = temp_dir("acclaim-serve-fmt-json");
    let json_store = TuningStore::open(&dir_json).unwrap();
    let binary_store = daemon.shared().store();
    for key in binary_store.keys().unwrap() {
        json_store
            .put(&binary_store.get(&key).unwrap().unwrap())
            .unwrap();
    }
    // One collective, one entry: binary rows where the daemon wrote
    // it, JSON in the copy.
    let [key] = &trained.keys[..] else {
        panic!("one collective must touch one key");
    };
    assert!(dir_bin.join(format!("{key}.bin")).is_file());
    assert!(dir_json.join(format!("{key}.json")).is_file());

    let reopened = TuneService::open(&dir_json, ServeConfig::default(), Obs::disabled()).unwrap();
    assert_eq!(
        entry_snapshot(binary_store),
        entry_snapshot(reopened.shared().store())
    );

    let tuned: Vec<String> = [&daemon, &reopened]
        .into_iter()
        .map(|service| {
            let JobStatus::Done(result) = service.submit(request.clone()).wait() else {
                panic!("cached job did not finish");
            };
            assert!(
                result.cached,
                "a stored signature must be served from cache"
            );
            serde_json::to_string(&result.tuning_file).unwrap()
        })
        .collect();
    assert_eq!(tuned[0], tuned[1]);

    let space = &request.config.space;
    for &nodes in &space.nodes {
        for &ppn in &space.ppns {
            for &msg in &space.msg_sizes {
                let query = loadgen::query(&request, Point::new(nodes, ppn, msg));
                let answer = daemon.query(&query);
                assert_eq!(answer.source, QuerySource::Tuned);
                assert_eq!(answer, reopened.query(&query));
            }
        }
    }

    drop((daemon, reopened));
    std::fs::remove_dir_all(&dir_bin).ok();
    std::fs::remove_dir_all(&dir_json).ok();
}
