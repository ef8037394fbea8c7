//! Store durability under crashes, corruption, and concurrent sweeps.
//!
//! The properties under test:
//!
//! 1. **Crash simulation** — a writer that dies mid-`put` can leave
//!    `*.json.tmp` debris but never a torn entry at the final name;
//!    `gc` reclaims the debris. A torn entry planted at the final name
//!    (simulating the pre-fsync failure mode) reads as absent, degrades
//!    a probe to a counted quarantine instead of an error, and is
//!    reclaimed by `gc`.
//! 2. **Race tolerance** — a sweep driven with stale keys (files that
//!    vanished after the listing) counts them as skipped and keeps
//!    going; two sweeps racing each other both succeed and reclaim
//!    every corrupt file exactly once in aggregate.
//! 3. **Warm-start resilience** — a corrupt entry turns the second
//!    tune into a cold run (with the quarantine surfaced on the obs
//!    counters) rather than an `Err`.

use acclaim::prelude::*;
use acclaim::store::{EntryFormat, GcReport};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn db() -> BenchmarkDatabase {
    BenchmarkDatabase::new(DatasetConfig::tiny())
}

fn config() -> AcclaimConfig {
    let mut config = AcclaimConfig::new(FeatureSpace::tiny());
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    config
}

/// Count the `*.json.tmp` files under the store root.
fn tmp_debris(store: &TuningStore) -> usize {
    std::fs::read_dir(store.root())
        .unwrap()
        .filter(|f| {
            f.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".json.tmp")
        })
        .count()
}

#[test]
fn put_roundtrip_leaves_no_debris_and_survives_overwrite() {
    let dir = temp_dir("acclaim-durability-put");
    let store = TuningStore::open(&dir).unwrap();
    let cfg = config();

    tune_with_store(&store, &cfg, &db(), &[Collective::Bcast], &Obs::disabled()).unwrap();
    assert_eq!(store.keys().unwrap().len(), 1);
    assert_eq!(tmp_debris(&store), 0, "put must not leave temp files");

    // Overwrite the same key (second run rewrites the entry) — still
    // exactly one file, still readable.
    tune_with_store(&store, &cfg, &db(), &[Collective::Bcast], &Obs::disabled()).unwrap();
    let keys = store.keys().unwrap();
    assert_eq!(keys.len(), 1);
    assert!(store.get(&keys[0]).unwrap().is_some());
    assert_eq!(tmp_debris(&store), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_entry_quarantines_probe_and_tune_degrades_to_cold() {
    let dir = temp_dir("acclaim-durability-torn");
    let store = TuningStore::open(&dir).unwrap();
    let cfg = config();
    let db = db();

    tune_with_store(&store, &cfg, &db, &[Collective::Bcast], &Obs::disabled()).unwrap();
    let key = store.keys().unwrap().remove(0);

    // Simulate a torn write published at the final name: truncate the
    // entry to half its bytes, mid-JSON.
    let path = store.root().join(format!("{key}.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();

    // The torn entry reads as absent, never as garbage or an error.
    assert!(store.get(&key).unwrap().is_none());

    // A second tune degrades to a cold run — no Err — and surfaces the
    // quarantine through the obs counters.
    let obs = Obs::enabled();
    let rerun = tune_with_store(&store, &cfg, &db, &[Collective::Bcast], &obs).unwrap();
    assert!(rerun.reports[0].1.converged);
    assert_eq!(
        rerun.reports[0].1.reused_points, 0,
        "torn entry was trusted"
    );
    let snap = obs.snapshot();
    let counter = |name: &str| {
        snap.metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("store.quarantined_entries"), 1);
    assert_eq!(counter("store.misses"), 1);

    // The cold rerun rewrote the entry over the torn file; corrupt it
    // again and let gc reclaim it.
    std::fs::write(&path, "{ torn").unwrap();
    let report = store.gc().unwrap();
    assert_eq!(
        report,
        GcReport {
            kept: 0,
            removed: 1,
            skipped: 0,
            failed: 0
        }
    );
    assert!(store.keys().unwrap().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_sweeps_crashed_writer_debris() {
    let dir = temp_dir("acclaim-durability-debris");
    let store = TuningStore::open(&dir).unwrap();
    let cfg = config();

    tune_with_store(&store, &cfg, &db(), &[Collective::Reduce], &Obs::disabled()).unwrap();

    // A writer that died between create and rename leaves a temp file;
    // it is never listed as a key and never served.
    let debris = store.root().join("0123456789abcdef.json.tmp");
    std::fs::write(&debris, "{\"version\":1,").unwrap();
    assert_eq!(store.keys().unwrap().len(), 1, "debris must not be a key");

    let report = store.gc().unwrap();
    assert_eq!(
        report,
        GcReport {
            kept: 1,
            removed: 1,
            skipped: 0,
            failed: 0
        }
    );
    assert!(!debris.exists(), "debris survived the sweep");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_skips_keys_that_vanish_mid_sweep() {
    let dir = temp_dir("acclaim-durability-race");
    let store = TuningStore::open(&dir).unwrap();

    // Two corrupt files on disk, plus one phantom key that "vanished"
    // between the directory listing and the sweep: the sweep must skip
    // the phantom and still reclaim both real files.
    std::fs::write(store.root().join("aaaaaaaaaaaaaaaa.json"), "torn{").unwrap();
    std::fs::write(store.root().join("bbbbbbbbbbbbbbbb.json"), "torn{").unwrap();
    let keys = vec![
        "aaaaaaaaaaaaaaaa".to_string(),
        "0000000000000000".to_string(), // phantom
        "bbbbbbbbbbbbbbbb".to_string(),
    ];
    let report = store.gc_keys(&keys);
    assert_eq!(
        report,
        GcReport {
            kept: 0,
            removed: 2,
            skipped: 1,
            failed: 0
        }
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn gc_counts_unremovable_files_as_failed_and_continues() {
    use std::os::unix::fs::PermissionsExt;

    let dir = temp_dir("acclaim-durability-perms");
    let store = TuningStore::open(&dir).unwrap();
    std::fs::write(store.root().join("cccccccccccccccc.json"), "torn{").unwrap();
    std::fs::write(store.root().join("dddddddddddddddd.json"), "torn{").unwrap();

    // A read-only directory rejects unlinks: every reclaim attempt
    // fails, but the sweep still visits every key and reports it.
    let writable = std::fs::metadata(&dir).unwrap().permissions();
    let mut readonly = writable.clone();
    readonly.set_mode(0o555);
    std::fs::set_permissions(&dir, readonly).unwrap();
    // Root bypasses permission checks; skip the assertion in that case.
    let probe_unlink = std::fs::remove_file(store.root().join("cccccccccccccccc.json"));
    if probe_unlink.is_err() {
        let report = store.gc().unwrap();
        assert_eq!(
            report,
            GcReport {
                kept: 0,
                removed: 0,
                skipped: 0,
                failed: 2
            }
        );
    }
    std::fs::set_permissions(&dir, writable).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_rows_survive_roundtrip_and_torn_binary_quarantines() {
    let dir = temp_dir("acclaim-durability-binary");
    let store = TuningStore::open(&dir).unwrap();
    let cfg = config();
    let db = db();

    // Tune once (JSON rows), then promote the entry to the binary row
    // format; the stale JSON file is retired and the key still serves.
    tune_with_store(&store, &cfg, &db, &[Collective::Bcast], &Obs::disabled()).unwrap();
    let key = store.keys().unwrap().remove(0);
    let entry = store.get(&key).unwrap().unwrap();
    store.put_with(&entry, EntryFormat::Binary).unwrap();
    assert!(!store.root().join(format!("{key}.json")).exists());
    let bin_path = store.root().join(format!("{key}.bin"));
    assert!(bin_path.exists());

    // The binary row round-trips bit-identically.
    let reread = store.get(&key).unwrap().unwrap();
    assert_eq!(
        serde_json::to_string(&entry).unwrap(),
        serde_json::to_string(&reread).unwrap(),
        "binary rows must round-trip without drift"
    );

    // Torn binary write published at the final name: reads as absent,
    // degrades the probe to a counted quarantine, and gc reclaims it —
    // the same contract the JSON format keeps.
    let bytes = std::fs::read(&bin_path).unwrap();
    std::fs::write(&bin_path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(store.get(&key).unwrap().is_none());
    let probe = store.probe(&entry.signature).unwrap();
    assert!(probe.exact.is_none() && probe.near.is_none());
    assert_eq!(probe.quarantined, 1);
    let report = store.gc().unwrap();
    assert_eq!(
        report,
        GcReport {
            kept: 0,
            removed: 1,
            skipped: 0,
            failed: 0
        }
    );
    assert!(!bin_path.exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_sweeps_crashed_binary_writer_debris() {
    let dir = temp_dir("acclaim-durability-bin-debris");
    let store = TuningStore::open(&dir).unwrap();

    // A binary writer that died between create and rename leaves
    // `<key>.bin.tmp`; it is never listed as a key and gc reclaims it.
    let debris = store.root().join("fedcba9876543210.bin.tmp");
    std::fs::write(&debris, [0u8; 7]).unwrap();
    assert!(store.keys().unwrap().is_empty(), "debris must not be a key");
    let report = store.gc().unwrap();
    assert_eq!(
        report,
        GcReport {
            kept: 0,
            removed: 1,
            skipped: 0,
            failed: 0
        }
    );
    assert!(!debris.exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sweeps_reclaim_each_corrupt_file_exactly_once() {
    let dir = temp_dir("acclaim-durability-concurrent");
    let store = TuningStore::open(&dir).unwrap();
    let n = 40;
    for i in 0..n {
        std::fs::write(store.root().join(format!("{i:016x}.json")), "torn{").unwrap();
    }

    let reports: Vec<GcReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                s.spawn(move || store.gc().unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every sweep completed without error; in aggregate every corrupt
    // file was removed exactly once (the others saw it vanish), and
    // nothing is left behind.
    let removed: usize = reports.iter().map(|r| r.removed).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    assert_eq!(removed, n, "each file reclaimed exactly once: {reports:?}");
    assert_eq!(failed, 0, "no sweep may fail: {reports:?}");
    assert!(store.keys().unwrap().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}
