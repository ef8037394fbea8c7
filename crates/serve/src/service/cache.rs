//! The serving-model cache `Query` answers from.

use acclaim_core::CollectiveRules;
use acclaim_ml::FlatForest;
use acclaim_netsim::Fingerprint;
use acclaim_store::{ClusterSignature, StoreEntry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A pre-warmed, immutable serving snapshot of one store entry: the
/// rule table for sub-microsecond selection plus a [`FlatForest`] for
/// latency prediction.
#[derive(Debug)]
pub(super) struct ServedModel {
    pub(super) signature: ClusterSignature,
    pub(super) rules: CollectiveRules,
    pub(super) forest: FlatForest,
}

impl ServedModel {
    pub(super) fn from_entry(entry: &StoreEntry) -> Self {
        ServedModel {
            signature: entry.signature.clone(),
            rules: entry.rules.clone(),
            forest: FlatForest::from_forest(entry.model.forest()),
        }
    }
}

/// One cached serving model plus its recency stamp. The stamp is
/// atomic so `get` can bump it under the shard's *read* lock.
#[derive(Debug)]
struct CacheSlot {
    model: Arc<ServedModel>,
    last_used: AtomicU64,
}

/// Sharded map from store key to [`ServedModel`], bounded per shard
/// with least-recently-used eviction. Evicted models are not lost —
/// the service re-warms them from the store on the next touch,
/// bit-identically (the store entry is the source of truth; the cache
/// only skips the disk read and re-flatten).
#[derive(Debug)]
pub(super) struct RuleCache {
    shards: Vec<RwLock<HashMap<String, CacheSlot>>>,
    /// Global recency clock; monotone, shared by all shards.
    tick: AtomicU64,
    /// Per-shard capacity (`0` = unbounded).
    per_shard_cap: usize,
}

impl RuleCache {
    pub(super) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        RuleCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            tick: AtomicU64::new(0),
            per_shard_cap: if capacity == 0 {
                0
            } else {
                capacity.div_ceil(shards).max(1)
            },
        }
    }

    fn shard_for(&self, key: &str) -> &RwLock<HashMap<String, CacheSlot>> {
        let mut f = Fingerprint::new();
        f.write_str(key);
        &self.shards[(f.finish() % self.shards.len() as u64) as usize]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Insert (or replace) a model; at capacity the shard's least
    /// recently used entry makes room first. Returns evictions (0/1).
    pub(super) fn insert(&self, model: Arc<ServedModel>) -> usize {
        let key = model.signature.key();
        let tick = self.touch();
        let mut shard = self.shard_for(&key).write().unwrap();
        let mut evicted = 0;
        if self.per_shard_cap > 0 && !shard.contains_key(&key) && shard.len() >= self.per_shard_cap
        {
            if let Some(stale) = shard
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                shard.remove(&stale);
                evicted = 1;
            }
        }
        shard.insert(
            key,
            CacheSlot {
                model,
                last_used: AtomicU64::new(tick),
            },
        );
        evicted
    }

    pub(super) fn get(&self, key: &str) -> Option<Arc<ServedModel>> {
        let shard = self.shard_for(key).read().unwrap();
        let slot = shard.get(key)?;
        slot.last_used.store(self.touch(), Ordering::Relaxed);
        Some(slot.model.clone())
    }

    pub(super) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }
}
