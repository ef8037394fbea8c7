//! The on-disk store: one file per entry, addressed by signature.
//!
//! Layout: `<root>/<key>.json` or `<root>/<key>.bin`, where `<key>` is
//! [`ClusterSignature::key`] — 16 hex digits of a stable hash over the
//! signature. Each file holds a complete [`StoreEntry`]: the signature
//! it was collected under, every raw measurement, the converged forest
//! snapshot, and the emitted rule table. Two on-disk representations
//! share that schema ([`EntryFormat`]):
//!
//! * **Json** — one JSON document. Round-trips are exact (the vendored
//!   `serde_json` prints floats in shortest-roundtrip form), so a
//!   reloaded forest predicts bit-identically — verified by the
//!   `warm_start` integration test. The CLI default: inspectable with
//!   a pager.
//! * **Binary** — a small container: magic + schema version + a JSON
//!   header (the entry minus its rows) + a checksummed packed row
//!   block (see the `rows` module). Written by the `acclaim-serve`
//!   daemon, where entries are machine-consumed and the row array
//!   dominates both file size and parse time.
//!
//! Every read path (`get`, `probe`, `export`, `gc`, …) understands
//! both; [`TuningStore::export`] bundles are always JSON so they stay
//! portable and diffable.

use crate::rows::{decode_rows, encode_rows};
use crate::signature::{ClusterSignature, Compatibility};
use acclaim_core::{CollectiveRules, PerfModel, TrainingSample};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

/// Entry schema version; bumped on any incompatible layout change.
/// [`TuningStore::gc`] drops entries from other versions.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Magic prefix of a binary-format entry file.
const BIN_MAGIC: [u8; 4] = *b"ACLB";

/// On-disk representation of a written entry (the read paths accept
/// both, whichever a store mixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntryFormat {
    /// One JSON document per entry (the CLI default — inspectable).
    #[default]
    Json,
    /// JSON header plus a checksummed packed binary row block (the
    /// serving daemon's default — compact, cheap to parse).
    Binary,
}

/// Everything the store keeps for one converged tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreEntry {
    /// Schema version this entry was written under.
    pub version: u32,
    /// The signature the measurements were collected under.
    pub signature: ClusterSignature,
    /// Raw microbenchmark measurements, in collection order. Foreign
    /// prior rows from a near-key warm start are excluded — every row
    /// here was measured (or trusted as exact) under `signature`.
    pub samples: Vec<TrainingSample>,
    /// The converged forest snapshot.
    pub model: PerfModel,
    /// The emitted rule table for the signature's collective.
    pub rules: CollectiveRules,
    /// Iterations the producing run took (for cold-vs-warm accounting).
    pub iterations: usize,
    /// Simulated machine time the producing run spent collecting (µs).
    pub collection_wall_us: f64,
}

impl StoreEntry {
    /// The entry's content address ([`ClusterSignature::key`]).
    pub fn key(&self) -> String {
        self.signature.key()
    }
}

/// One line of [`TuningStore::summaries`] — an entry without its bulk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Content address of the entry.
    pub key: String,
    /// MPI-style collective name.
    pub collective: String,
    /// Number of cached measurements.
    pub points: usize,
    /// Iterations the producing run took.
    pub iterations: usize,
    /// Simulated collection time of the producing run (µs).
    pub collection_wall_us: f64,
    /// The signature's node axis (human-readable context).
    pub nodes: Vec<u32>,
    /// The signature's ppn axis.
    pub ppns: Vec<u32>,
}

/// What [`TuningStore::probe`] found for a signature.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// An entry whose signature matches exactly.
    pub exact: Option<StoreEntry>,
    /// The best near-compatible entry and its prior weight, when no
    /// exact entry exists.
    pub near: Option<(StoreEntry, f64)>,
    /// Entries quarantined during the scan: files that exist but are
    /// corrupt (torn write, foreign schema) or unreadable. They are
    /// skipped — a warm-start probe degrades to a miss instead of
    /// failing — and can be reclaimed with [`TuningStore::gc`].
    pub quarantined: usize,
}

impl Probe {
    /// Whether the probe found anything usable.
    pub fn is_hit(&self) -> bool {
        self.exact.is_some() || self.near.is_some()
    }
}

/// Result of a [`TuningStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries that parsed cleanly and were kept.
    pub kept: usize,
    /// Files removed: unparseable, wrong schema version, stored under
    /// a filename that does not match their signature's key, or
    /// crashed-writer `*.json.tmp` debris.
    pub removed: usize,
    /// Files that vanished mid-sweep (a concurrent gc or writer beat
    /// this sweep to them) — benign, nothing left to do.
    pub skipped: usize,
    /// Files the sweep could not read or remove (per-entry I/O
    /// errors); left in place rather than aborting the sweep.
    pub failed: usize,
}

/// Result of a [`TuningStore::import`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Entries written (keys that were not already present).
    pub imported: usize,
    /// Entries skipped because their key already existed.
    pub skipped: usize,
}

/// A persistent, content-addressed tuning store rooted at a directory.
///
/// ```
/// use acclaim_store::TuningStore;
///
/// let dir = std::env::temp_dir().join("acclaim-store-doc-open");
/// # std::fs::remove_dir_all(&dir).ok();
/// let store = TuningStore::open(&dir).unwrap();
/// assert!(store.keys().unwrap().is_empty());
/// // Corrupt files are reclaimed by gc, not served by get.
/// std::fs::write(store.root().join("deadbeefdeadbeef.json"), "not json").unwrap();
/// assert!(store.get("deadbeefdeadbeef").unwrap().is_none());
/// let report = store.gc().unwrap();
/// assert_eq!((report.kept, report.removed), (0, 1));
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct TuningStore {
    root: PathBuf,
    fence: Arc<RwLock<()>>,
}

/// Per-directory write fence, shared by every in-process handle on the
/// same root: `put` holds it shared for the create→rename window, the
/// gc debris sweep holds it exclusively while unlinking `*.tmp` files.
/// Without it, a sweep can unlink an in-flight temp file on every
/// attempt (the temp name is deterministic) and livelock writers that
/// share the directory with an aggressive sweeper. Cross-*process*
/// sweeps are still possible and still handled — by the bounded rewrite
/// retry in `write_atomic` — but can no longer starve same-process
/// writers.
fn write_fence(root: &Path) -> Arc<RwLock<()>> {
    static FENCES: OnceLock<Mutex<std::collections::HashMap<PathBuf, Weak<RwLock<()>>>>> =
        OnceLock::new();
    let key = std::fs::canonicalize(root).unwrap_or_else(|_| root.to_path_buf());
    let mut fences = FENCES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(fence) = fences.get(&key).and_then(Weak::upgrade) {
        return fence;
    }
    // Opportunistically drop fences whose stores are all gone.
    fences.retain(|_, w| w.strong_count() > 0);
    let fence = Arc::new(RwLock::new(()));
    fences.insert(key, Arc::downgrade(&fence));
    fence
}

impl TuningStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let fence = write_fence(&root);
        Ok(TuningStore { root, fence })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    fn bin_path_for(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.bin"))
    }

    /// Durable-atomic write: `bytes` go to `<path>.tmp`, are fsynced,
    /// renamed into place, and the parent directory is fsynced
    /// (best-effort) so the rename itself survives a crash. A crashed
    /// writer can leave `*.tmp` debris behind but never a half-entry at
    /// the final name; [`TuningStore::gc`] sweeps the debris.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // A concurrent `gc` can mistake the in-flight `<path>.tmp` for
        // crashed-writer debris and unlink it between our fsync and
        // the rename, which then fails `NotFound`. Nothing is published
        // until the rename succeeds, so the write is simply redone; the
        // sweep that raced us has already moved past this name.
        for _ in 0..8 {
            match self.write_atomic_once(path, bytes) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                other => return other,
            }
        }
        self.write_atomic_once(path, bytes)
    }

    fn write_atomic_once(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        // Shared: concurrent puts proceed freely; only the gc debris
        // sweep (exclusive holder) is fenced out of the publish window.
        let _put = self.fence.read().unwrap_or_else(|e| e.into_inner());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Flush file contents to disk *before* the rename publishes the
        // name — otherwise a crash can leave a fully-named empty or
        // truncated entry, exactly the torn write the rename is meant
        // to rule out.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself. Directory fsync is not supported
        // everywhere (and never on Windows), so failures here are
        // ignored: the entry is still correct, just not yet durable.
        if let Ok(dir) = std::fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Write (or overwrite) an entry at its content address in JSON
    /// form; returns the key. Shorthand for [`TuningStore::put_with`]
    /// with [`EntryFormat::Json`].
    pub fn put(&self, entry: &StoreEntry) -> io::Result<String> {
        self.put_with(entry, EntryFormat::Json)
    }

    /// Write (or overwrite) an entry at its content address in the
    /// requested on-disk format; returns the key. The write is
    /// durable-atomic (temp file → fsync → rename → directory fsync),
    /// and any same-key file in the *other* format is then removed
    /// (best-effort) so the key is served from the fresh write. A crash
    /// inside that window leaves both files; entries are
    /// content-addressed, so either serves the key correctly.
    pub fn put_with(&self, entry: &StoreEntry, format: EntryFormat) -> io::Result<String> {
        let key = entry.key();
        let (path, stale) = match format {
            EntryFormat::Json => (self.path_for(&key), self.bin_path_for(&key)),
            EntryFormat::Binary => (self.bin_path_for(&key), self.path_for(&key)),
        };
        let bytes = match format {
            EntryFormat::Json => serde_json::to_string(entry)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                .into_bytes(),
            EntryFormat::Binary => encode_binary_entry(entry)?,
        };
        self.write_atomic(&path, &bytes)?;
        let _ = std::fs::remove_file(stale);
        Ok(key)
    }

    /// Load the entry at `key`, if present and readable in either
    /// format. Entries from a different schema version read as absent
    /// (use [`TuningStore::gc`] to reclaim them).
    pub fn get(&self, key: &str) -> io::Result<Option<StoreEntry>> {
        match self.load(key) {
            Loaded::Present(e) => Ok(Some(*e)),
            Loaded::Absent | Loaded::Quarantined => Ok(None),
        }
    }

    /// All keys currently stored (in either format), sorted and
    /// deduplicated.
    pub fn keys(&self) -> io::Result<Vec<String>> {
        let mut keys = Vec::new();
        for f in std::fs::read_dir(&self.root)? {
            let name = f?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name
                .strip_suffix(".json")
                .or_else(|| name.strip_suffix(".bin"))
            {
                keys.push(stem.to_string());
            }
        }
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    /// Classify the entry at `key` without ever failing on a bad file:
    /// corrupt or unreadable files come back `Quarantined` so scans can
    /// count and skip them instead of aborting. The binary file is
    /// preferred when both formats exist (a crashed [`put_with`] — see
    /// there); a corrupt file in one format never shadows a valid entry
    /// in the other.
    ///
    /// [`put_with`]: TuningStore::put_with
    fn load(&self, key: &str) -> Loaded {
        let mut damaged = false;
        for (path, binary) in [(self.bin_path_for(key), true), (self.path_for(key), false)] {
            match std::fs::read(&path) {
                Ok(bytes) => match parse_entry_bytes(&bytes, binary) {
                    Some(e) => return Loaded::Present(Box::new(e)),
                    None => damaged = true,
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(_) => damaged = true,
            }
        }
        if damaged {
            Loaded::Quarantined
        } else {
            Loaded::Absent
        }
    }

    /// One [`StoreSummary`] per readable entry, sorted by key.
    /// Quarantined (corrupt/unreadable) entries are skipped.
    pub fn summaries(&self) -> io::Result<Vec<StoreSummary>> {
        let mut out = Vec::new();
        for key in self.keys()? {
            if let Loaded::Present(e) = self.load(&key) {
                out.push(StoreSummary {
                    key,
                    collective: e.signature.collective.name().to_string(),
                    points: e.samples.len(),
                    iterations: e.iterations,
                    collection_wall_us: e.collection_wall_us,
                    nodes: e.signature.nodes,
                    ppns: e.signature.ppns,
                });
            }
        }
        Ok(out)
    }

    /// Find reusable prior work for `sig`: the exact entry if one
    /// exists, else the highest-weight near-compatible entry.
    /// Incompatible entries — params-hash drift above all — are never
    /// returned. Corrupt or unreadable entries never fail the probe;
    /// they are counted in [`Probe::quarantined`] and skipped, so a
    /// damaged store degrades to a (partial) miss instead of blocking
    /// warm-start entirely.
    pub fn probe(&self, sig: &ClusterSignature) -> io::Result<Probe> {
        // The exact entry is a direct O(1) lookup at the key.
        if let Loaded::Present(e) = self.load(&sig.key()) {
            if sig.compatibility(&e.signature) == Compatibility::Exact {
                return Ok(Probe {
                    exact: Some(*e),
                    ..Probe::default()
                });
            }
        }
        // Near matches require a scan; keep the best weight.
        let mut best: Option<(StoreEntry, f64)> = None;
        let mut quarantined = 0;
        for key in self.keys()? {
            match self.load(&key) {
                Loaded::Present(e) => {
                    if let Compatibility::Near(w) = sig.compatibility(&e.signature) {
                        if best.as_ref().is_none_or(|(_, bw)| w > *bw) {
                            best = Some((*e, w));
                        }
                    }
                }
                Loaded::Quarantined => quarantined += 1,
                Loaded::Absent => {}
            }
        }
        Ok(Probe {
            exact: None,
            near: best,
            quarantined,
        })
    }

    /// Sweep the store: drop files that fail to parse, carry a foreign
    /// schema version, or sit at a filename that does not match their
    /// signature's key, plus `*.json.tmp` debris from crashed writers.
    ///
    /// The sweep is race- and fault-tolerant: files that vanish
    /// mid-sweep (a concurrent gc or writer) are counted as skipped,
    /// and per-entry I/O errors are counted as failed — neither aborts
    /// the rest of the sweep. Only listing the directory itself can
    /// return `Err`.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = self.gc_keys(&self.keys()?);
        // Crashed-writer debris: a put() that died between create and
        // rename leaves `<key>.json.tmp` / `<key>.bin.tmp` behind.
        // Never live data (the rename is the publish step), so always
        // reclaimable. List first, lock only if something needs
        // sweeping: the exclusive fence keeps the unlinks from eating a
        // same-process writer's in-flight temp file, and skipping it on
        // the (common) debris-free pass keeps sweeps off writers'
        // backs. A temp observed mid-put has vanished (renamed into
        // place) by the time the fence is held — that counts as
        // skipped, same as any file another sweep got to first.
        let mut tmps = Vec::new();
        for f in std::fs::read_dir(&self.root)? {
            let Ok(f) = f else {
                report.failed += 1;
                continue;
            };
            let name = f.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json.tmp") || name.ends_with(".bin.tmp") {
                tmps.push(f.path());
            }
        }
        if !tmps.is_empty() {
            let _sweep = self.fence.write().unwrap_or_else(|e| e.into_inner());
            for path in tmps {
                match std::fs::remove_file(path) {
                    Ok(()) => report.removed += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => report.skipped += 1,
                    Err(_) => report.failed += 1,
                }
            }
        }
        Ok(report)
    }

    /// The entry-sweeping half of [`TuningStore::gc`], over an explicit
    /// key list. Split out so tests can drive the sweep with phantom or
    /// stale keys to simulate concurrent-gc races deterministically.
    ///
    /// Counts are per *file*: a key whose `.json` and `.bin` files both
    /// exist (a crashed [`TuningStore::put_with`]) contributes each file
    /// separately. A key with no file at all counts once as skipped.
    #[doc(hidden)]
    pub fn gc_keys(&self, keys: &[String]) -> GcReport {
        let mut report = GcReport::default();
        for key in keys {
            let mut seen = 0usize;
            for (path, binary) in [(self.path_for(key), false), (self.bin_path_for(key), true)] {
                let keep = match std::fs::read(&path) {
                    Ok(bytes) => parse_entry_bytes(&bytes, binary).is_some_and(|e| e.key() == *key),
                    // Never written in this format, or vanished since
                    // the listing (a concurrent sweep or writer got
                    // there first). Nothing to reclaim at this path.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    // Unreadable but present: treat as corrupt and try
                    // to reclaim it below.
                    Err(_) => false,
                };
                seen += 1;
                if keep {
                    report.kept += 1;
                } else {
                    match std::fs::remove_file(&path) {
                        Ok(()) => report.removed += 1,
                        Err(e) if e.kind() == io::ErrorKind::NotFound => report.skipped += 1,
                        Err(_) => report.failed += 1,
                    }
                }
            }
            if seen == 0 {
                // Phantom key: no file in either format.
                report.skipped += 1;
            }
        }
        report
    }

    /// Export every readable entry into a single JSON file at `path`
    /// (a JSON array of entries); returns how many were written.
    /// Quarantined (corrupt/unreadable) entries are skipped.
    pub fn export(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let mut entries = Vec::new();
        for key in self.keys()? {
            if let Loaded::Present(e) = self.load(&key) {
                entries.push(*e);
            }
        }
        let text = serde_json::to_string(&entries)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, text)?;
        Ok(entries.len())
    }

    /// Merge entries from an [`TuningStore::export`] file into this
    /// store. Keys already present are left untouched (the local entry
    /// wins); entries with a foreign schema version are skipped.
    pub fn import(&self, path: impl AsRef<Path>) -> io::Result<ImportReport> {
        let text = std::fs::read_to_string(path)?;
        let entries: Vec<serde_json::Value> = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut report = ImportReport::default();
        let existing = self.keys()?;
        for v in entries {
            let text = serde_json::to_string(&v)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let Some(entry) = parse_entry(&text) else {
                report.skipped += 1;
                continue;
            };
            if existing.contains(&entry.key()) {
                report.skipped += 1;
            } else {
                self.put(&entry)?;
                report.imported += 1;
            }
        }
        Ok(report)
    }
}

/// Outcome of loading one on-disk entry for a scan.
enum Loaded {
    /// Parsed cleanly under the current schema (boxed: an entry is
    /// hundreds of bytes inline, the other variants are zero-sized).
    Present(Box<StoreEntry>),
    /// No file at the key (never written, or removed concurrently).
    Absent,
    /// A file exists but is corrupt, foreign-schema, or unreadable.
    Quarantined,
}

/// Parse an entry, treating malformed text or a foreign schema version
/// as absent.
fn parse_entry(text: &str) -> Option<StoreEntry> {
    let entry: StoreEntry = serde_json::from_str(text).ok()?;
    (entry.version == STORE_SCHEMA_VERSION).then_some(entry)
}

/// Parse the raw bytes of an entry file in the expected format.
fn parse_entry_bytes(bytes: &[u8], binary: bool) -> Option<StoreEntry> {
    if binary {
        parse_binary_entry(bytes)
    } else {
        parse_entry(std::str::from_utf8(bytes).ok()?)
    }
}

/// Binary entry container:
///
/// ```text
/// offset  size  field
/// 0       4     magic "ACLB"
/// 4       4     schema version (u32 LE, == STORE_SCHEMA_VERSION)
/// 8       8     header length H (u64 LE)
/// 16      H     JSON header: the StoreEntry with `samples: []`
/// 16+H    ...   packed row block (see the rows module)
/// ```
fn encode_binary_entry(entry: &StoreEntry) -> io::Result<Vec<u8>> {
    // The header is the entry with its rows stripped — they live in
    // the packed block instead. Cloning the row-less shell is cheap
    // next to serializing the forest.
    let header_entry = StoreEntry {
        samples: Vec::new(),
        ..entry.clone()
    };
    let header = serde_json::to_string(&header_entry)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let rows = encode_rows(&entry.samples);
    let mut out = Vec::with_capacity(16 + header.len() + rows.len());
    out.extend_from_slice(&BIN_MAGIC);
    out.extend_from_slice(&STORE_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(header.len() as u64).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&rows);
    Ok(out)
}

/// Decode [`encode_binary_entry`] output; `None` on any damage or a
/// foreign schema version.
fn parse_binary_entry(bytes: &[u8]) -> Option<StoreEntry> {
    if bytes.len() < 16 || bytes[..4] != BIN_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("bounds checked"));
    if version != STORE_SCHEMA_VERSION {
        return None;
    }
    let header_len = u64::from_le_bytes(bytes[8..16].try_into().expect("bounds checked"));
    let rows_at = 16usize.checked_add(usize::try_from(header_len).ok()?)?;
    if rows_at > bytes.len() {
        return None;
    }
    let header = std::str::from_utf8(&bytes[16..rows_at]).ok()?;
    let mut entry = parse_entry(header)?;
    entry.samples = decode_rows(&bytes[rows_at..])?;
    Some(entry)
}
