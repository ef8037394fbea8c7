//! The daemon's one sharded key map over a [`TuningStore`].
//!
//! The on-disk store is already safe for concurrent processes (atomic
//! temp→rename puts, quarantine-on-read for damage), but its
//! [`TuningStore::probe`] re-reads and re-parses *every* entry to find
//! near matches — fine for one probe per job, far too slow for a
//! service probing on every request. [`SharedStore`] keeps one slot per
//! store key in memory, sharded across `RwLock`s by key hash so
//! concurrent probes and queries never contend on one lock. A slot
//! holds the entry's signature (a few hundred bytes, not the row
//! payloads), its pre-warmed serving model and a recency stamp. The map
//! is built from disk on open and updated on every put; a probe still
//! reads its winning entry from disk, preserving the store's
//! crash-consistency story.
//!
//! Serving models are bounded per shard with least-recently-used
//! eviction. Eviction clears only the model: the signature stays, so
//! near probes still see the entry, and the next query re-warms the
//! model from disk bit-identically. The store entry is the source of
//! truth; a model only skips the disk read and the re-flatten.
//!
//! Probe semantics match [`TuningStore::probe`] bit for bit on a
//! quiescent store: exact hit beats near, the best near weight wins,
//! and ties keep the smallest key (the store scans keys in sorted
//! order and replaces only on strictly greater weight).

use acclaim_core::CollectiveRules;
use acclaim_ml::FlatForest;
use acclaim_obs::{Counter, Gauge, Obs};
use acclaim_store::{ClusterSignature, Compatibility, EntryFormat, Probe, StoreEntry, TuningStore};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// A pre-warmed, immutable serving snapshot of one store entry: the
/// rule table for sub-microsecond selection plus a [`FlatForest`] for
/// latency prediction.
#[derive(Debug)]
pub(crate) struct ServedModel {
    pub(crate) rules: CollectiveRules,
    pub(crate) forest: FlatForest,
}

/// One store key's state.
#[derive(Debug)]
struct Slot {
    signature: ClusterSignature,
    /// `None` once the capacity bound evicted the model.
    model: Option<Arc<ServedModel>>,
    /// Recency stamp; atomic so a hit bumps it under the shard's read
    /// lock.
    last_used: AtomicU64,
}

type Shard = RwLock<HashMap<String, Slot>>;

/// The daemon's sharded key map over an on-disk [`TuningStore`].
#[derive(Debug)]
pub struct SharedStore {
    store: TuningStore,
    shards: Vec<Shard>,
    /// Global recency clock; monotone, shared by all shards.
    tick: AtomicU64,
    /// Serving models one shard may hold (`0` = unbounded).
    per_shard_cap: usize,
    /// Serving models held, across shards.
    models: AtomicUsize,
    /// `serve.cache_evicted`: models dropped by the capacity bound.
    evicted: Counter,
    /// `serve.cache_size`: models held.
    size: Gauge,
}

impl SharedStore {
    /// Open the store at `dir` and load every readable entry: its
    /// signature, and its serving model within `capacity` models across
    /// all shards (`0` = unbounded). Corrupt entries are skipped
    /// (exactly as [`TuningStore::probe`] skips them). The map records
    /// `serve.prewarmed_models`, `serve.cache_evicted` and
    /// `serve.cache_size` on `obs`.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
        capacity: usize,
        obs: &Obs,
    ) -> io::Result<Self> {
        let shards = shards.max(1);
        let this = SharedStore {
            store: TuningStore::open(dir)?,
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            tick: AtomicU64::new(0),
            per_shard_cap: if capacity == 0 {
                0
            } else {
                capacity.div_ceil(shards).max(1)
            },
            models: AtomicUsize::new(0),
            evicted: obs.counter("serve.cache_evicted"),
            size: obs.gauge("serve.cache_size"),
        };
        for key in this.store.keys()? {
            if let Some(entry) = this.store.get(&key)? {
                // Prewarm evictions are not counted: nothing was served.
                this.install(&entry);
            }
        }
        obs.incr_counter("serve.prewarmed_models", this.models() as u64);
        Ok(this)
    }

    fn shard_for(&self, key: &str) -> &Shard {
        let mut f = acclaim_netsim::Fingerprint::new();
        f.write_str(key);
        &self.shards[(f.finish() % self.shards.len() as u64) as usize]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Publish `entry`'s signature and a fresh serving model under one
    /// write lock. A key that holds no model yet takes one from a full
    /// shard's least recently used slot, which keeps its signature.
    /// Returns the model and the number of models evicted (0 or 1);
    /// the caller counts them.
    fn install(&self, entry: &StoreEntry) -> (Arc<ServedModel>, u64) {
        let model = Arc::new(ServedModel {
            rules: entry.rules.clone(),
            forest: FlatForest::from_forest(entry.model.forest()),
        });
        let key = entry.signature.key();
        let stamp = self.touch();
        let mut shard = self.shard_for(&key).write().unwrap();
        let mut evicted = 0;
        if shard.get(&key).is_none_or(|slot| slot.model.is_none()) {
            if self.per_shard_cap > 0 {
                let held: Vec<&mut Slot> =
                    shard.values_mut().filter(|s| s.model.is_some()).collect();
                if held.len() >= self.per_shard_cap {
                    if let Some(lru) = held
                        .into_iter()
                        .min_by_key(|s| s.last_used.load(Ordering::Relaxed))
                    {
                        lru.model = None;
                        evicted = 1;
                        self.models.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            self.models.fetch_add(1, Ordering::Relaxed);
        }
        shard.insert(
            key,
            Slot {
                signature: entry.signature.clone(),
                model: Some(model.clone()),
                last_used: AtomicU64::new(stamp),
            },
        );
        drop(shard);
        self.size.set(self.models() as f64);
        (model, evicted)
    }

    /// Drop `key`'s slot, model and all: its file vanished or went
    /// corrupt on disk (external gc, torn overwrite).
    fn forget(&self, key: &str) {
        let slot = self.shard_for(key).write().unwrap().remove(key);
        if slot.is_some_and(|s| s.model.is_some()) {
            self.models.fetch_sub(1, Ordering::Relaxed);
            self.size.set(self.models() as f64);
        }
    }

    /// Persist an entry in the binary row format and publish its
    /// signature and serving model.
    pub fn put(&self, entry: &StoreEntry) -> io::Result<String> {
        let key = self.store.put_with(entry, EntryFormat::Binary)?;
        let (_, evicted) = self.install(entry);
        self.evicted.add(evicted);
        Ok(key)
    }

    /// The serving model for `sig`. When the map holds none (first
    /// touch, eviction, or another process's put) the entry is read
    /// from disk and published, signature included. `None` when no
    /// exactly compatible entry exists.
    pub(crate) fn serving_model(&self, sig: &ClusterSignature) -> Option<Arc<ServedModel>> {
        let key = sig.key();
        if let Some(slot) = self.shard_for(&key).read().unwrap().get(&key) {
            if let Some(model) = &slot.model {
                slot.last_used.store(self.touch(), Ordering::Relaxed);
                return (sig.compatibility(&slot.signature) == Compatibility::Exact)
                    .then(|| model.clone());
            }
        }
        let entry = self.store.get(&key).ok().flatten()?;
        if sig.compatibility(&entry.signature) != Compatibility::Exact {
            return None;
        }
        let (model, evicted) = self.install(&entry);
        self.evicted.add(evicted);
        Some(model)
    }

    /// Probe for prior work compatible with `sig`, consulting the
    /// in-memory signatures first and touching disk only for the
    /// winning entry (at most two file reads, usually one).
    ///
    /// `quarantined` counts only files *this probe* tried and failed
    /// to read — the map never holds unreadable entries, so a warm
    /// service reports 0 where a cold [`TuningStore::probe`] would
    /// count every corrupt file in the directory.
    pub fn probe(&self, sig: &ClusterSignature) -> io::Result<Probe> {
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
                    self.forget(&key);
                    quarantined += 1;
                }
            }
        }
        // Near matches: scan the in-memory signatures, then read only
        // the winner. Strictly-greater-weight-wins with smallest key on
        // ties reproduces TuningStore::probe's sorted-scan behavior.
        let mut best: Option<(String, f64)> = None;
        for shard in &self.shards {
            for (k, slot) in shard.read().unwrap().iter() {
                if let Compatibility::Near(w) = sig.compatibility(&slot.signature) {
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
                // it may have been replaced since the map lookup.
                Some(entry) => {
                    if let Compatibility::Near(w) = sig.compatibility(&entry.signature) {
                        near = Some((entry, w));
                    }
                }
                None => {
                    self.forget(&k);
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

    /// Number of keys in the map.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serving models held (at most the capacity, when one is set).
    pub fn models(&self) -> usize {
        self.models.load(Ordering::Relaxed)
    }

    /// Serving models dropped by the capacity bound so far (0 when
    /// `obs` is disabled).
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Every key in the map, sorted.
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
    use acclaim_store::tune_with_store;

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

    /// `config`'s signature with the node axis shrunk to its first
    /// value: Near to the seeded entry, never Exact.
    fn near_signature(config: &AcclaimConfig, dataset: &DatasetConfig) -> ClusterSignature {
        let mut space = config.space.clone();
        space.nodes = vec![space.nodes[0]];
        ClusterSignature::new(
            dataset,
            &space,
            Collective::Bcast,
            &config.learner.collection,
        )
    }

    fn remove_every_file(dir: &std::path::Path) {
        for f in std::fs::read_dir(dir).unwrap() {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
    }

    #[test]
    fn probe_matches_tuning_store_probe() {
        let dir = temp_dir("parity");
        let (sig, config, dataset) = seed_store(&dir);
        let shared = SharedStore::open(&dir, 4, 0, &Obs::disabled()).unwrap();
        assert_eq!(shared.len(), 1);

        // Exact parity.
        let plain = shared.store().probe(&sig).unwrap();
        let indexed = shared.probe(&sig).unwrap();
        assert!(plain.exact.is_some() && indexed.exact.is_some());
        assert_eq!(
            serde_json::to_string(&plain.exact.unwrap()).unwrap(),
            serde_json::to_string(&indexed.exact.unwrap()).unwrap()
        );

        // Near parity.
        let near_sig = near_signature(&config, &dataset);
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
        let shared = SharedStore::open(&dir, 2, 0, &Obs::disabled()).unwrap();
        // Delete the entry behind the map's back.
        remove_every_file(&dir);
        let probe = shared.probe(&sig).unwrap();
        assert!(probe.exact.is_none() && probe.near.is_none());
        assert_eq!(probe.quarantined, 1, "the dangling read is counted");
        assert_eq!(shared.len(), 0, "the stale record is dropped");
        // The next probe is a clean miss.
        assert_eq!(shared.probe(&sig).unwrap().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_keeps_the_signature_for_near_probes() {
        let dir = temp_dir("evict-near");
        let (sig, config, dataset) = seed_store(&dir);
        let shared = SharedStore::open(&dir, 1, 1, &Obs::enabled()).unwrap();
        // A second key on the only shard takes the only model.
        let mut other = shared.store().get(&sig.key()).unwrap().unwrap();
        other.signature.collective = Collective::Allreduce;
        shared.put(&other).unwrap();
        assert_eq!((shared.len(), shared.models(), shared.evicted()), (2, 1, 1));
        let (near, _) = shared
            .probe(&near_signature(&config, &dataset))
            .unwrap()
            .near
            .expect("the evicted key's signature is still in the map");
        assert_eq!(near.signature, sig);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_heal_drops_the_serving_model_too() {
        let dir = temp_dir("self-heal-model");
        let (sig, _, _) = seed_store(&dir);
        let shared = SharedStore::open(&dir, 2, 0, &Obs::disabled()).unwrap();
        assert!(shared.serving_model(&sig).is_some());
        remove_every_file(&dir);
        assert_eq!(shared.probe(&sig).unwrap().quarantined, 1);
        assert_eq!(shared.models(), 0);
        // No orphaned model answers: the lookup re-reads disk.
        assert!(shared.serving_model(&sig).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_served_foreign_entry_joins_the_map() {
        let dir = temp_dir("foreign");
        let shared = SharedStore::open(&dir, 4, 0, &Obs::disabled()).unwrap();
        // Another process writes an entry after the map was built.
        let (sig, config, dataset) = seed_store(&dir);
        let near_sig = near_signature(&config, &dataset);
        assert!(shared.is_empty());
        assert!(shared.probe(&near_sig).unwrap().near.is_none());
        assert!(shared.serving_model(&sig).is_some());
        assert_eq!(shared.keys(), vec![sig.key()]);
        assert_eq!(shared.models(), 1);
        let (near, _) = shared
            .probe(&near_sig)
            .unwrap()
            .near
            .expect("the served entry is indexed");
        assert_eq!(near.signature, sig);
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
        let shared = SharedStore::open(&dir2, 4, 0, &Obs::disabled()).unwrap();
        assert!(shared.is_empty());
        let key = shared.put(&entry).unwrap();
        assert_eq!(key, sig.key());
        assert_eq!(shared.keys(), vec![key]);
        assert!(shared.probe(&sig).unwrap().exact.is_some());
        std::fs::remove_dir_all(&dir2).ok();
    }
}
