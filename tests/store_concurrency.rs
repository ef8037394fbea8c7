//! Concurrency stress for the persistent tuning store: writers, gc
//! sweeps, and readers all churning the same directory.
//!
//! The properties under test:
//!
//! 1. **No lost entries** — N writer threads each publish a disjoint
//!    set of entries (mixed JSON/binary row formats) while M gc threads
//!    sweep continuously; afterwards every written key is present and
//!    readable. In particular, a sweep that unlinks a writer's
//!    in-flight `*.tmp` (mistaking it for crashed-writer debris) must
//!    not lose the put — the writer republishes.
//! 2. **No quarantines of valid files** — readers probing signatures
//!    mid-churn never see a valid entry counted as quarantined, and a
//!    final sweep keeps everything (`removed == 0`, `failed == 0`).
//! 3. **Export round-trips mid-churn** — a bundle exported while
//!    writers and sweeps are racing imports cleanly into a fresh store,
//!    and everything it carries is a valid entry that was actually
//!    written.
//!
//! Thread interleaving varies run to run; every assertion is on
//! invariants that must hold under *any* interleaving, never on counts
//! that depend on who won a race.

use acclaim::prelude::*;
use acclaim::store::{EntryFormat, GcReport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config() -> AcclaimConfig {
    let mut config = AcclaimConfig::new(FeatureSpace::tiny());
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    config
}

/// One real tuned entry to use as the payload template; variants get
/// distinct signatures (distinct dataset seeds ⇒ pairwise-incompatible,
/// so probes only ever exact-hit or miss). `name` keeps parallel tests
/// out of each other's scratch directory.
fn template_entry(name: &str) -> StoreEntry {
    let dir = temp_dir(name);
    let store = TuningStore::open(&dir).unwrap();
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    tune_with_store(
        &store,
        &config(),
        &db,
        &[Collective::Bcast],
        &Obs::disabled(),
    )
    .unwrap();
    let key = store.keys().unwrap().remove(0);
    let entry = store.get(&key).unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    entry
}

/// Increments a counter on drop — including during a panic's unwind —
/// so coordinator loops waiting on thread completion can never hang on
/// a failed assertion in another thread.
struct DoneGuard<'a>(&'a AtomicUsize);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn variant(template: &StoreEntry, seed: u64) -> StoreEntry {
    let mut dataset = DatasetConfig::tiny();
    dataset.seed = seed;
    let cfg = config();
    let mut entry = template.clone();
    entry.signature = ClusterSignature::new(
        &dataset,
        &cfg.space,
        Collective::Bcast,
        &cfg.learner.collection,
    );
    entry
}

#[test]
fn writers_gc_and_readers_race_without_losing_entries() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 24;
    const GC_THREADS: usize = 2;
    const READERS: usize = 2;

    let dir = temp_dir("acclaim-store-conc-churn");
    let store = TuningStore::open(&dir).unwrap();
    let template = template_entry("acclaim-store-conc-template-churn");
    let done_writing = AtomicBool::new(false);
    let writers_done = AtomicUsize::new(0);
    let gc_failures = AtomicUsize::new(0);
    let quarantines_seen = AtomicUsize::new(0);
    let exports: std::sync::Mutex<Vec<(PathBuf, usize)>> = std::sync::Mutex::new(Vec::new());

    // The refresher overwrites one fixed key repeatedly, alternating
    // row formats, while sweeps race it.
    let refresher_entry = variant(&template, 999_999);
    let refresher_key = refresher_entry.key();

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = store.clone();
            let template = &template;
            let counter = &writers_done;
            s.spawn(move || {
                let _done = DoneGuard(counter);
                for j in 0..PER_WRITER {
                    let i = w * PER_WRITER + j;
                    let entry = variant(template, 1000 + i as u64);
                    let format = if i.is_multiple_of(2) {
                        EntryFormat::Json
                    } else {
                        EntryFormat::Binary
                    };
                    store.put_with(&entry, format).expect("put must not fail");
                }
            });
        }
        {
            let store = store.clone();
            let entry = &refresher_entry;
            let counter = &writers_done;
            s.spawn(move || {
                let _done = DoneGuard(counter);
                for round in 0..20 {
                    let format = if round % 2 == 0 {
                        EntryFormat::Binary
                    } else {
                        EntryFormat::Json
                    };
                    store
                        .put_with(entry, format)
                        .expect("refresh must not fail");
                }
            });
        }
        for _ in 0..GC_THREADS {
            let store = store.clone();
            let done = &done_writing;
            let failures = &gc_failures;
            s.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let report = store.gc().expect("sweep must not error");
                    failures.fetch_add(report.failed, Ordering::SeqCst);
                }
            });
        }
        for r in 0..READERS {
            let store = store.clone();
            let template = &template;
            let done = &done_writing;
            let quarantines = &quarantines_seen;
            s.spawn(move || {
                let mut i = r;
                while !done.load(Ordering::SeqCst) {
                    let sig = variant(template, 1000 + (i % (WRITERS * PER_WRITER)) as u64)
                        .signature
                        .clone();
                    let probe = store.probe(&sig).expect("probe must not error");
                    quarantines.fetch_add(probe.quarantined, Ordering::SeqCst);
                    // Either the writer got there (exact hit) or it
                    // hasn't yet (miss); never a near-match, never junk.
                    assert!(probe.near.is_none(), "variants are pairwise incompatible");
                    i += READERS;
                }
            });
        }
        {
            // Exporter: bundle mid-churn, twice.
            let store = store.clone();
            let exports = &exports;
            s.spawn(move || {
                for n in 0..2 {
                    let path =
                        std::env::temp_dir().join(format!("acclaim-store-conc-bundle-{n}.json"));
                    std::fs::remove_file(&path).ok();
                    let count = store.export(&path).expect("export must not error");
                    exports.lock().unwrap().push((path, count));
                }
            });
        }

        // Coordinator: the sweepers and readers loop until every writer
        // thread is finished (drop guards fire even on panic, so a
        // failed assertion can never hang the scope), then the churn
        // winds down (scoped threads join on scope exit).
        let done = &done_writing;
        let counter = &writers_done;
        s.spawn(move || {
            while counter.load(Ordering::SeqCst) < WRITERS + 1 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
        });
    });

    // 1. No lost entries: every written key present and readable, in
    // spite of the sweeps racing the writes.
    let keys = store.keys().unwrap();
    assert_eq!(
        keys.len(),
        WRITERS * PER_WRITER + 1,
        "every put must survive the churn"
    );
    for i in 0..WRITERS * PER_WRITER {
        let key = variant(&template, 1000 + i as u64).key();
        assert!(
            store.get(&key).unwrap().is_some(),
            "entry {i} ({key}) was lost"
        );
    }
    assert!(store.get(&refresher_key).unwrap().is_some());

    // 2. No quarantines of valid files, no failed reclaims, and a
    // steady-state sweep keeps everything.
    assert_eq!(quarantines_seen.load(Ordering::SeqCst), 0);
    assert_eq!(gc_failures.load(Ordering::SeqCst), 0);
    let report = store.gc().unwrap();
    assert_eq!(
        report,
        GcReport {
            kept: WRITERS * PER_WRITER + 1,
            removed: 0,
            skipped: 0,
            failed: 0
        }
    );

    // 3. Export round-trips: whatever a mid-churn bundle carried
    // imports cleanly into a fresh store, and all of it is real.
    let exports = exports.into_inner().unwrap();
    assert_eq!(exports.len(), 2);
    for (path, count) in &exports {
        let fresh_dir = temp_dir(&format!(
            "acclaim-store-conc-import-{}",
            path.file_name().unwrap().to_string_lossy()
        ));
        let fresh = TuningStore::open(&fresh_dir).unwrap();
        let report = fresh.import(path).unwrap();
        assert_eq!(report.imported, *count, "bundle must round-trip whole");
        for key in fresh.keys().unwrap() {
            let entry = fresh.get(&key).unwrap().expect("imported entry unreadable");
            assert_eq!(entry.key(), key);
            assert!(
                keys.contains(&key),
                "imported key {key} was never written to the source store"
            );
        }
        std::fs::remove_dir_all(&fresh_dir).ok();
        std::fs::remove_file(path).ok();
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sweep_stealing_the_tmp_file_does_not_lose_the_put() {
    // A gc sweep that runs between a put's fsync and its rename
    // unlinks the in-flight `*.tmp` as presumed debris; the put must
    // republish rather than fail. Drive puts against a continuous
    // sweeper and require every one to land — the retry loop in
    // `write_atomic` makes this a certainty under any interleaving,
    // not a probability.
    let dir = temp_dir("acclaim-store-conc-steal");
    let store = TuningStore::open(&dir).unwrap();
    let template = template_entry("acclaim-store-conc-template-steal");
    let stop = AtomicBool::new(false);
    let writer_done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        {
            let store = store.clone();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    store.gc().expect("sweep must not error");
                }
            });
        }
        {
            let store = store.clone();
            let counter = &writer_done;
            let template = &template;
            s.spawn(move || {
                // The guard stops the sweeper even if an assertion
                // below unwinds — a failure must fail, not hang.
                let _done = DoneGuard(counter);
                for i in 0..64u64 {
                    let entry = variant(template, 5000 + i);
                    store
                        .put_with(&entry, EntryFormat::Binary)
                        .expect("put must survive concurrent sweeps");
                    assert!(
                        store.get(&entry.key()).unwrap().is_some(),
                        "put {i} published nothing"
                    );
                }
            });
        }
        let stop = &stop;
        let counter = &writer_done;
        s.spawn(move || {
            while counter.load(Ordering::SeqCst) < 1 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::SeqCst);
        });
    });
    assert_eq!(store.keys().unwrap().len(), 64);
    std::fs::remove_dir_all(&dir).ok();
}
