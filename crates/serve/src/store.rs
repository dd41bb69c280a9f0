//! Pluggable model storage behind the serving registry.
//!
//! The [`ModelStore`] trait is the API the service (and each shard of a
//! sharded server) talks to instead of a concrete [`Registry`]: get,
//! put, list, and — the part sharding needs — a versioned
//! [`snapshot`](ModelStore::snapshot) / [`restore`](ModelStore::restore)
//! pair. Snapshots carry every stored version as the registry's own
//! plain-text entry format, which round-trips coefficients exactly, so a
//! shard restored from a snapshot answers **bit-identical** estimates.
//!
//! Two implementations ship:
//!
//! - [`MemoryStore`] — an in-memory replica (the default store, and what
//!   a fresh failover shard restores into);
//! - [`FileStore`] — the file-backed registry: loads a directory at open
//!   and writes every [`put`](ModelStore::put) through to disk, one
//!   plain-text file per version.

use crate::registry::{decode_entry, encode_entry, ModelKey, Registry, RegistryError, StoredModel};
use pmca_mlkit::export::ModelParams;
use pmca_obs::{log, MetricsRegistry};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A point-in-time copy of a store's full contents.
///
/// `entries` hold one plain-text registry entry per stored version (see
/// [`encode_entry`]); `mutations` is the store's mutation count at the
/// moment the snapshot was taken, so a router can tell which of two
/// snapshots of the same store is newer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Mutation count of the source store when the snapshot was taken.
    pub mutations: u64,
    /// Every stored version, encoded with [`encode_entry`].
    pub entries: Vec<String>,
}

impl RegistrySnapshot {
    /// Number of model versions the snapshot carries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot carries no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Storage API the service and shards program against.
///
/// All methods take `&self`: implementations are internally synchronized
/// and shared as `Arc<dyn ModelStore>` across connection handlers, event
/// loops, and the stream hub's publication hook.
pub trait ModelStore: Send + Sync + fmt::Debug {
    /// Store a model, assigning the next version for its key; returns
    /// the stored entry.
    fn put(
        &self,
        platform: &str,
        family: &str,
        feature_order: Vec<String>,
        residual_std: f64,
        training_rows: usize,
        params: ModelParams,
    ) -> Arc<StoredModel>;

    /// Latest version for an exact key, if any.
    fn get(&self, key: &ModelKey) -> Option<Arc<StoredModel>>;

    /// A specific version for a key.
    fn get_version(&self, key: &ModelKey, version: u32) -> Option<Arc<StoredModel>>;

    /// Serve-path lookup: best model on `platform` for exactly this PMC
    /// set (order-insensitive, online family preferred, then version).
    fn lookup_names(&self, platform: &str, names: &[&str]) -> Option<Arc<StoredModel>>;

    /// Latest model of `family` on `platform`, across PMC sets.
    fn latest_of_family(&self, platform: &str, family: &str) -> Option<Arc<StoredModel>>;

    /// Every stored version, sorted by key then version.
    fn list(&self) -> Vec<Arc<StoredModel>>;

    /// Number of stored versions.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total mutations (puts and restores) applied to this store.
    fn mutations(&self) -> u64;

    /// A point-in-time copy of the full contents, taken under one read
    /// lock so it is consistent even while other threads keep putting.
    fn snapshot(&self) -> RegistrySnapshot;

    /// Replace the store's contents with a snapshot's; returns the
    /// number of versions restored. Restoring preserves every entry's
    /// original version number, so estimates served from the restored
    /// store are bit-identical to the snapshot's source.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when an entry fails to decode (the
    /// store is left unchanged) or, for file-backed stores, on
    /// filesystem failure.
    fn restore(&self, snapshot: &RegistrySnapshot) -> Result<usize, RegistryError>;
}

/// Decode every snapshot entry into a fresh [`Registry`], preserving
/// stored version numbers. Shared by both store implementations so a
/// bad entry fails the whole restore before any state changes.
fn registry_from_snapshot(snapshot: &RegistrySnapshot) -> Result<Registry, RegistryError> {
    let mut registry = Registry::new();
    for entry in &snapshot.entries {
        registry.insert_stored(decode_entry(entry)?);
    }
    Ok(registry)
}

/// The in-memory replica: a [`Registry`] behind a `RwLock`, plus a
/// mutation counter for snapshot ordering.
#[derive(Debug)]
pub struct MemoryStore {
    inner: RwLock<Registry>,
    mutations: AtomicU64,
}

impl Default for MemoryStore {
    fn default() -> Self {
        MemoryStore::new()
    }
}

impl MemoryStore {
    /// An empty store with standalone (unexported) counters.
    pub fn new() -> Self {
        MemoryStore {
            inner: RwLock::new(Registry::new()),
            mutations: AtomicU64::new(0),
        }
    }

    /// An empty store whose registry counters are exported as
    /// `pmca_model_registry_*` in `metrics`.
    pub fn with_metrics(metrics: &MetricsRegistry) -> Self {
        MemoryStore {
            inner: RwLock::new(Registry::with_metrics(metrics)),
            mutations: AtomicU64::new(0),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Registry> {
        self.inner.read().expect("registry poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Registry> {
        self.inner.write().expect("registry poisoned")
    }

    /// Replace the registry contents (keeping metric counters wired) and
    /// count one mutation.
    fn adopt(&self, registry: Registry) {
        self.write().adopt(registry);
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }
}

impl ModelStore for MemoryStore {
    fn put(
        &self,
        platform: &str,
        family: &str,
        feature_order: Vec<String>,
        residual_std: f64,
        training_rows: usize,
        params: ModelParams,
    ) -> Arc<StoredModel> {
        let stored = self.write().register(
            platform,
            family,
            feature_order,
            residual_std,
            training_rows,
            params,
        );
        self.mutations.fetch_add(1, Ordering::Relaxed);
        stored
    }

    fn get(&self, key: &ModelKey) -> Option<Arc<StoredModel>> {
        self.read().latest(key)
    }

    fn get_version(&self, key: &ModelKey, version: u32) -> Option<Arc<StoredModel>> {
        self.read().version(key, version)
    }

    fn lookup_names(&self, platform: &str, names: &[&str]) -> Option<Arc<StoredModel>> {
        self.read().lookup_names(platform, names)
    }

    fn latest_of_family(&self, platform: &str, family: &str) -> Option<Arc<StoredModel>> {
        self.read().latest_of_family(platform, family)
    }

    fn list(&self) -> Vec<Arc<StoredModel>> {
        self.read().entries()
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> RegistrySnapshot {
        let registry = self.read();
        RegistrySnapshot {
            mutations: self.mutations.load(Ordering::Relaxed),
            entries: registry.entries().iter().map(|m| encode_entry(m)).collect(),
        }
    }

    fn restore(&self, snapshot: &RegistrySnapshot) -> Result<usize, RegistryError> {
        let registry = registry_from_snapshot(snapshot)?;
        let count = registry.len();
        self.adopt(registry);
        Ok(count)
    }
}

/// The file-backed registry: an in-memory replica mirrored to one
/// plain-text file per version under `dir` (the PR-1 on-disk format, so
/// existing registry directories load unchanged).
///
/// Writes go through on every [`put`](ModelStore::put); a write failure
/// is logged and the in-memory state stays authoritative, matching how
/// the serving path treats the directory as a persistence mirror rather
/// than the source of truth.
#[derive(Debug)]
pub struct FileStore {
    memory: MemoryStore,
    dir: PathBuf,
}

impl FileStore {
    /// Open the store over `dir`, loading any `*.model` files already
    /// there (an absent directory opens empty).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] on I/O failure or a malformed file.
    pub fn open(dir: impl Into<PathBuf>, metrics: &MetricsRegistry) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let store = FileStore {
            memory: MemoryStore::with_metrics(metrics),
            dir,
        };
        let loaded = Registry::load_dir(&store.dir)?;
        if !loaded.is_empty() {
            store.memory.adopt(loaded);
        }
        Ok(store)
    }

    /// The directory this store mirrors to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_through(&self, model: &StoredModel) {
        let write = || -> Result<(), RegistryError> {
            fs::create_dir_all(&self.dir)?;
            let path = self.dir.join(crate::registry::file_name(model));
            fs::write(path, encode_entry(model))?;
            Ok(())
        };
        if let Err(e) = write() {
            log::error(
                "serve",
                "registry write-through failed",
                &[
                    ("dir", &self.dir.display().to_string()),
                    ("error", &e.to_string()),
                ],
            );
        }
    }
}

impl ModelStore for FileStore {
    fn put(
        &self,
        platform: &str,
        family: &str,
        feature_order: Vec<String>,
        residual_std: f64,
        training_rows: usize,
        params: ModelParams,
    ) -> Arc<StoredModel> {
        let stored = self.memory.put(
            platform,
            family,
            feature_order,
            residual_std,
            training_rows,
            params,
        );
        self.write_through(&stored);
        stored
    }

    fn get(&self, key: &ModelKey) -> Option<Arc<StoredModel>> {
        self.memory.get(key)
    }

    fn get_version(&self, key: &ModelKey, version: u32) -> Option<Arc<StoredModel>> {
        self.memory.get_version(key, version)
    }

    fn lookup_names(&self, platform: &str, names: &[&str]) -> Option<Arc<StoredModel>> {
        self.memory.lookup_names(platform, names)
    }

    fn latest_of_family(&self, platform: &str, family: &str) -> Option<Arc<StoredModel>> {
        self.memory.latest_of_family(platform, family)
    }

    fn list(&self) -> Vec<Arc<StoredModel>> {
        self.memory.list()
    }

    fn len(&self) -> usize {
        self.memory.len()
    }

    fn mutations(&self) -> u64 {
        self.memory.mutations()
    }

    fn snapshot(&self) -> RegistrySnapshot {
        self.memory.snapshot()
    }

    fn restore(&self, snapshot: &RegistrySnapshot) -> Result<usize, RegistryError> {
        let registry = registry_from_snapshot(snapshot)?;
        // Remove stale mirror files before rewriting, so versions absent
        // from the snapshot do not resurrect on the next open.
        if self.dir.exists() {
            for entry in fs::read_dir(&self.dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "model") {
                    fs::remove_file(path)?;
                }
            }
        }
        registry.save_dir(&self.dir)?;
        let count = registry.len();
        self.memory.adopt(registry);
        Ok(count)
    }
}

/// Read a registry directory into a snapshot without opening a store
/// over it — how [`EnergyService::load_registry`] pulls a directory into
/// whatever store the service runs on.
///
/// [`EnergyService::load_registry`]: crate::service::EnergyService::load_registry
///
/// # Errors
///
/// Returns [`RegistryError`] on I/O failure or a malformed file.
pub fn snapshot_from_dir(dir: &Path) -> Result<RegistrySnapshot, RegistryError> {
    let registry = Registry::load_dir(dir)?;
    Ok(RegistrySnapshot {
        mutations: 0,
        entries: registry.entries().iter().map(|m| encode_entry(m)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(coeffs: &[f64]) -> ModelParams {
        ModelParams::Linear {
            coefficients: coeffs.to_vec(),
            intercept: 0.0,
        }
    }

    fn names(ns: &[&str]) -> Vec<String> {
        ns.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pmca-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn memory_store_snapshot_restores_bit_identically() {
        let store = MemoryStore::new();
        store.put(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.25e-3,
            20,
            linear(&[1.000000000000004, 2.7182818284590455]),
        );
        store.put(
            "skylake",
            "online",
            names(&["A", "B"]),
            0.5,
            22,
            linear(&[1.1, 2.2]),
        );
        store.put("haswell", "neural", names(&["C"]), 0.4, 8, linear(&[7.0]));
        let snapshot = store.snapshot();
        assert_eq!(snapshot.len(), 3);
        assert_eq!(snapshot.mutations, 3);

        let replica = MemoryStore::new();
        assert_eq!(replica.restore(&snapshot).unwrap(), 3);
        assert_eq!(replica.len(), 3);
        // Exact equality of every entry, version numbers included: the
        // plain-text format round-trips coefficients bit-for-bit.
        let originals = store.list();
        let restored = replica.list();
        for (a, b) in originals.iter().zip(&restored) {
            assert_eq!(**a, **b);
        }
        let key = ModelKey::new("skylake", &names(&["A", "B"]), "online");
        assert_eq!(replica.get(&key).unwrap().version, 2);
        assert_eq!(replica.get_version(&key, 1).unwrap().residual_std, 1.25e-3);
    }

    #[test]
    fn restore_rejects_garbage_and_leaves_the_store_unchanged() {
        let store = MemoryStore::new();
        store.put("skylake", "online", names(&["A"]), 1.0, 5, linear(&[0.5]));
        let bad = RegistrySnapshot {
            mutations: 9,
            entries: vec!["not a registry entry".to_string()],
        };
        assert!(store.restore(&bad).is_err());
        assert_eq!(store.len(), 1, "failed restore must not clobber");
    }

    #[test]
    fn file_store_writes_through_and_reopens() {
        let dir = temp_dir("writethrough");
        let _ = fs::remove_dir_all(&dir);
        let metrics = MetricsRegistry::new();
        let store = FileStore::open(&dir, &metrics).unwrap();
        assert!(store.is_empty());
        store.put(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.0,
            10,
            linear(&[1.0, 2.0]),
        );
        store.put(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.5,
            12,
            linear(&[1.1, 2.1]),
        );
        // Every put landed on disk without an explicit save.
        let reopened = FileStore::open(&dir, &metrics).unwrap();
        assert_eq!(reopened.len(), 2);
        let key = ModelKey::new("skylake", &names(&["A", "B"]), "online");
        assert_eq!(reopened.get(&key).unwrap().version, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_restore_rewrites_the_mirror() {
        let dir = temp_dir("restore");
        let _ = fs::remove_dir_all(&dir);
        let metrics = MetricsRegistry::new();
        let store = FileStore::open(&dir, &metrics).unwrap();
        store.put("skylake", "online", names(&["A"]), 1.0, 5, linear(&[0.5]));
        store.put("haswell", "online", names(&["B"]), 1.0, 5, linear(&[0.25]));

        let donor = MemoryStore::new();
        donor.put("skylake", "linear", names(&["Z"]), 2.0, 9, linear(&[4.0]));
        assert_eq!(store.restore(&donor.snapshot()).unwrap(), 1);
        assert_eq!(store.len(), 1);
        // The mirror matches the restored contents: stale files are gone.
        let reopened = FileStore::open(&dir, &metrics).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened
            .get(&ModelKey::new("skylake", &names(&["Z"]), "linear"))
            .is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_from_dir_matches_a_store_snapshot() {
        let dir = temp_dir("fromdir");
        let _ = fs::remove_dir_all(&dir);
        let metrics = MetricsRegistry::new();
        let store = FileStore::open(&dir, &metrics).unwrap();
        store.put("skylake", "online", names(&["A"]), 1.0, 5, linear(&[0.5]));
        let from_dir = snapshot_from_dir(&dir).unwrap();
        assert_eq!(from_dir.entries, store.snapshot().entries);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_are_object_safe_and_shareable() {
        let store: Arc<dyn ModelStore> = Arc::new(MemoryStore::new());
        store.put("skylake", "online", names(&["A"]), 1.0, 5, linear(&[0.5]));
        assert_eq!(store.len(), 1);
        assert!(store.lookup_names("SKYLAKE", &["A"]).is_some());
        assert!(store.latest_of_family("skylake", "online").is_some());
        assert_eq!(store.mutations(), 1);
    }
}
