//! A lock-safe, sharded signature index over a [`TuningStore`].
//!
//! The on-disk store is already safe for concurrent processes (atomic
//! temp→rename puts, quarantine-on-read for damage), but its
//! [`TuningStore::probe`] re-reads and re-parses *every* entry to find
//! near matches — fine for one probe per job, far too slow for a
//! service probing on every request. [`SharedStore`] keeps the
//! signatures (a few hundred bytes each, not the row payloads) in
//! memory, sharded across `RwLock`s by key hash so concurrent probes
//! never contend on one lock. The index is rebuilt from disk on open
//! and updated on every put; entry payloads are still read from disk
//! exactly once per hit, preserving the store's crash-consistency
//! story.
//!
//! Probe semantics match [`TuningStore::probe`] bit for bit on a
//! quiescent store: exact hit beats near, the best near weight wins,
//! and ties keep the smallest key (the store scans keys in sorted
//! order and replaces only on strictly greater weight).

use acclaim_store::{Compatibility, EntryFormat, Probe, StoreEntry, TuningStore};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::RwLock;

/// Sharded in-memory signature index over an on-disk [`TuningStore`].
#[derive(Debug)]
pub struct SharedStore {
    store: TuningStore,
    shards: Vec<RwLock<HashMap<String, acclaim_store::ClusterSignature>>>,
}

impl SharedStore {
    /// Open the store at `dir` and build the signature index from
    /// every readable entry. Corrupt entries are skipped (exactly as
    /// [`TuningStore::probe`] skips them).
    pub fn open(dir: impl AsRef<Path>, shards: usize) -> io::Result<Self> {
        Self::open_with(dir, shards, |_| {})
    }

    /// Like [`SharedStore::open`], additionally invoking `on_entry`
    /// for every entry scanned during the prewarm pass — the service
    /// uses this to populate its rule cache in the same single read.
    pub fn open_with(
        dir: impl AsRef<Path>,
        shards: usize,
        mut on_entry: impl FnMut(&StoreEntry),
    ) -> io::Result<Self> {
        let store = TuningStore::open(dir)?;
        let this = SharedStore {
            store,
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        };
        for key in this.store.keys()? {
            if let Some(entry) = this.store.get(&key)? {
                on_entry(&entry);
                this.index_signature(entry.signature.clone());
            }
        }
        Ok(this)
    }

    fn shard_for(&self, key: &str) -> &RwLock<HashMap<String, acclaim_store::ClusterSignature>> {
        let mut f = acclaim_netsim::Fingerprint::new();
        f.write_str(key);
        &self.shards[(f.finish() % self.shards.len() as u64) as usize]
    }

    /// Record a signature in the index (idempotent).
    fn index_signature(&self, sig: acclaim_store::ClusterSignature) {
        let key = sig.key();
        self.shard_for(&key).write().unwrap().insert(key, sig);
    }

    /// Persist an entry in the binary row format and index its
    /// signature.
    pub fn put(&self, entry: &StoreEntry) -> io::Result<String> {
        let key = self.store.put_with(entry, EntryFormat::Binary)?;
        self.index_signature(entry.signature.clone());
        Ok(key)
    }

    /// Probe for prior work compatible with `sig`, consulting the
    /// in-memory index first and touching disk only for the winning
    /// entry (at most two file reads, usually one).
    ///
    /// `quarantined` counts only files *this probe* tried and failed
    /// to read — the index never holds unreadable entries, so a warm
    /// service reports 0 where a cold [`TuningStore::probe`] would
    /// count every corrupt file in the directory.
    pub fn probe(&self, sig: &acclaim_store::ClusterSignature) -> io::Result<Probe> {
        let key = sig.key();
        let mut quarantined = 0;
        if self.shard_for(&key).read().unwrap().contains_key(&key) {
            match self.store.get(&key)? {
                Some(entry) if sig.compatibility(&entry.signature) == Compatibility::Exact => {
                    return Ok(Probe {
                        exact: Some(entry),
                        near: None,
                        quarantined,
                    });
                }
                Some(_) => {}
                None => {
                    // The indexed entry vanished or went corrupt on
                    // disk (external gc, torn overwrite): self-heal.
                    self.shard_for(&key).write().unwrap().remove(&key);
                    quarantined += 1;
                }
            }
        }
        // Near matches: scan the in-memory signatures, then read only
        // the winner. Strictly-greater-weight-wins with smallest key on
        // ties reproduces TuningStore::probe's sorted-scan behavior.
        let mut best: Option<(String, f64)> = None;
        for shard in &self.shards {
            for (k, s) in shard.read().unwrap().iter() {
                if let Compatibility::Near(w) = sig.compatibility(s) {
                    let better = match &best {
                        None => true,
                        Some((bk, bw)) => w > *bw || (w == *bw && *k < *bk),
                    };
                    if better {
                        best = Some((k.clone(), w));
                    }
                }
            }
        }
        let mut near = None;
        if let Some((k, _)) = best {
            match self.store.get(&k)? {
                // Re-derive the weight from the entry actually read —
                // it may have been replaced since the index lookup.
                Some(entry) => {
                    if let Compatibility::Near(w) = sig.compatibility(&entry.signature) {
                        near = Some((entry, w));
                    }
                }
                None => {
                    self.shard_for(&k).write().unwrap().remove(&k);
                    quarantined += 1;
                }
            }
        }
        Ok(Probe {
            exact: None,
            near,
            quarantined,
        })
    }

    /// Number of indexed signatures.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every indexed key, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().unwrap().keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }

    /// The underlying on-disk store.
    pub fn store(&self) -> &TuningStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_collectives::Collective;
    use acclaim_core::AcclaimConfig;
    use acclaim_dataset::{DatasetConfig, FeatureSpace};
    use acclaim_store::{tune_with_store, ClusterSignature};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("acclaim-serve-index-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Populate a store with one tuned entry and return its signature.
    fn seed_store(dir: &std::path::Path) -> (ClusterSignature, AcclaimConfig, DatasetConfig) {
        let store = TuningStore::open(dir).unwrap();
        let dataset = DatasetConfig::tiny();
        let db = acclaim_dataset::BenchmarkDatabase::new(dataset.clone());
        let mut config = AcclaimConfig::new(FeatureSpace::tiny());
        config.learner.max_iterations = 12;
        tune_with_store(
            Some(&store),
            &config,
            &db,
            &[Collective::Bcast],
            &acclaim_obs::Obs::disabled(),
        )
        .unwrap();
        let sig = ClusterSignature::new(
            &dataset,
            &config.space,
            Collective::Bcast,
            &config.learner.collection,
        );
        (sig, config, dataset)
    }

    #[test]
    fn probe_matches_tuning_store_probe() {
        let dir = temp_dir("parity");
        let (sig, config, dataset) = seed_store(&dir);
        let shared = SharedStore::open(&dir, 4).unwrap();
        assert_eq!(shared.len(), 1);

        // Exact parity.
        let plain = shared.store().probe(&sig).unwrap();
        let indexed = shared.probe(&sig).unwrap();
        assert!(plain.exact.is_some() && indexed.exact.is_some());
        assert_eq!(
            serde_json::to_string(&plain.exact.unwrap()).unwrap(),
            serde_json::to_string(&indexed.exact.unwrap()).unwrap()
        );

        // Near parity: shrink the node axis so compatibility is Near.
        let mut near_space = config.space.clone();
        near_space.nodes = vec![near_space.nodes[0]];
        let near_sig = ClusterSignature::new(
            &dataset,
            &near_space,
            Collective::Bcast,
            &config.learner.collection,
        );
        let plain = shared.store().probe(&near_sig).unwrap();
        let indexed = shared.probe(&near_sig).unwrap();
        let (pe, pw) = plain.near.expect("plain near hit");
        let (ie, iw) = indexed.near.expect("indexed near hit");
        assert_eq!(pw, iw);
        assert_eq!(
            serde_json::to_string(&pe).unwrap(),
            serde_json::to_string(&ie).unwrap()
        );

        // A different collective misses in both.
        let miss_sig = ClusterSignature::new(
            &dataset,
            &config.space,
            Collective::Allreduce,
            &config.learner.collection,
        );
        assert!(shared.store().probe(&miss_sig).unwrap().exact.is_none());
        let miss = shared.probe(&miss_sig).unwrap();
        assert!(miss.exact.is_none() && miss.near.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_index_records_self_heal() {
        let dir = temp_dir("self-heal");
        let (sig, _, _) = seed_store(&dir);
        let shared = SharedStore::open(&dir, 2).unwrap();
        // Delete the entry behind the index's back.
        for f in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
        let probe = shared.probe(&sig).unwrap();
        assert!(probe.exact.is_none() && probe.near.is_none());
        assert_eq!(probe.quarantined, 1, "the dangling read is counted");
        assert_eq!(shared.len(), 0, "the stale record is dropped");
        // The next probe is a clean miss.
        assert_eq!(shared.probe(&sig).unwrap().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_indexes_immediately() {
        let dir = temp_dir("put");
        let (sig, _, _) = seed_store(&dir);
        let entry = {
            let store = TuningStore::open(&dir).unwrap();
            store.get(&sig.key()).unwrap().unwrap()
        };
        std::fs::remove_dir_all(&dir).ok();

        let dir2 = temp_dir("put2");
        let shared = SharedStore::open(&dir2, 4).unwrap();
        assert!(shared.is_empty());
        let key = shared.put(&entry).unwrap();
        assert_eq!(key, sig.key());
        assert_eq!(shared.keys(), vec![key]);
        assert!(shared.probe(&sig).unwrap().exact.is_some());
        std::fs::remove_dir_all(&dir2).ok();
    }
}
