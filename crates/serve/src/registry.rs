//! Versioned model registry.
//!
//! Stores trained model artifacts keyed by (platform, PMC set, model
//! family). Registering the same key again creates a new version rather
//! than overwriting — a served estimate always reports which version
//! produced it, and older versions stay available for comparison. Entries
//! persist to plain-text files (one per version) under a registry
//! directory, conventionally `results/registry/`, wrapping the
//! `pmca_mlkit::export` model format with registry metadata lines.

use crate::engine::Lowering;
use pmca_mlkit::export::{self, ModelParams};
use pmca_obs::trace;
use pmca_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Identity of a model line in the registry: every version of the same
/// (platform, PMC set, family) shares one key. PMC names are kept sorted
/// so the key is insensitive to the order counters were listed in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Platform name, lower-case (`"haswell"`, `"skylake"`).
    pub platform: String,
    /// Sorted PMC names.
    pub pmc_set: Vec<String>,
    /// Model family tag (`"online"`, `"linear"`, `"forest"`, `"neural"`).
    pub family: String,
}

impl ModelKey {
    /// Build a key, normalising platform case and PMC order.
    pub fn new(platform: &str, pmc_names: &[String], family: &str) -> Self {
        let mut pmc_set: Vec<String> = pmc_names.to_vec();
        pmc_set.sort();
        ModelKey {
            platform: platform.to_ascii_lowercase(),
            pmc_set,
            family: family.to_string(),
        }
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}[{}]",
            self.platform,
            self.family,
            self.pmc_set.join(",")
        )
    }
}

/// One registered model version.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredModel {
    /// The registry key (sorted PMC set).
    pub key: ModelKey,
    /// Version number, starting at 1 per key.
    pub version: u32,
    /// PMC names in **feature order** — the order `params` expects counts
    /// in, which may differ from the key's sorted order.
    pub feature_order: Vec<String>,
    /// Standard deviation of training residuals, joules.
    pub residual_std: f64,
    /// Number of training observations.
    pub training_rows: usize,
    /// The model parameters themselves.
    pub params: ModelParams,
    /// What serving derives from this version, built on first use.
    pub(crate) derived: Derived,
}

impl StoredModel {
    /// The feature-name list app-level run-cache keys share, so building
    /// a key clones an `Arc` rather than the whole name vector.
    pub(crate) fn shared_events(&self) -> Arc<Vec<String>> {
        Arc::clone(
            self.derived
                .events
                .get_or_init(|| Arc::new(self.feature_order.clone())),
        )
    }
}

/// Serving state derived from one [`StoredModel`]: the engine's lowering
/// and the run-cache event list. It lives inside the version it derives
/// from, so it is dropped with that version and no cache elsewhere has
/// to hold the version alive. Clones start empty and equality ignores
/// it — it is a function of the public fields.
#[derive(Default)]
pub(crate) struct Derived {
    pub(crate) lowering: OnceLock<Lowering>,
    events: OnceLock<Arc<Vec<String>>>,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived")
            .field("lowered", &self.lowering.get().is_some())
            .finish_non_exhaustive()
    }
}

/// Registry errors (I/O and format problems surfaced on save/load).
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A registry file did not parse.
    Malformed {
        /// File the problem was found in (empty for in-memory decode).
        file: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::Malformed { file, detail } if file.is_empty() => {
                write!(f, "malformed registry entry: {detail}")
            }
            RegistryError::Malformed { file, detail } => {
                write!(f, "malformed registry entry {file}: {detail}")
            }
        }
    }
}

impl Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// An in-memory [`RegistryError::Malformed`] (no file attached yet).
fn malformed(detail: impl Into<String>) -> RegistryError {
    RegistryError::Malformed {
        file: String::new(),
        detail: detail.into(),
    }
}

/// Usage counters of one registry. Standalone by default; wired into a
/// [`MetricsRegistry`] by [`Registry::with_metrics`].
#[derive(Debug, Clone)]
struct RegistryCounters {
    lookup_hits: Counter,
    lookup_misses: Counter,
    registers: Counter,
}

impl RegistryCounters {
    fn standalone() -> Self {
        RegistryCounters {
            lookup_hits: Counter::standalone(),
            lookup_misses: Counter::standalone(),
            registers: Counter::standalone(),
        }
    }

    fn from_registry(metrics: &MetricsRegistry) -> Self {
        RegistryCounters {
            lookup_hits: metrics.counter("pmca_model_registry_lookups_total", &[("result", "hit")]),
            lookup_misses: metrics
                .counter("pmca_model_registry_lookups_total", &[("result", "miss")]),
            registers: metrics.counter("pmca_model_registry_registers_total", &[]),
        }
    }
}

impl Default for RegistryCounters {
    fn default() -> Self {
        RegistryCounters::standalone()
    }
}

/// The in-memory registry: all versions of all model lines.
#[derive(Debug, Default)]
pub struct Registry {
    models: HashMap<ModelKey, Vec<Arc<StoredModel>>>,
    counters: RegistryCounters,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry whose lookup and register counters are exported
    /// as `pmca_model_registry_*` in `metrics`.
    pub fn with_metrics(metrics: &MetricsRegistry) -> Self {
        Registry {
            models: HashMap::new(),
            counters: RegistryCounters::from_registry(metrics),
        }
    }

    /// Replace this registry's contents with `other`'s models, keeping the
    /// metric counters wired at construction (used when loading a saved
    /// registry directory into a live service).
    pub fn adopt(&mut self, other: Registry) {
        self.models = other.models;
    }

    /// Register a model, assigning the next version for its key.
    /// `feature_order` is the PMC order the model's features follow.
    pub fn register(
        &mut self,
        platform: &str,
        family: &str,
        feature_order: Vec<String>,
        residual_std: f64,
        training_rows: usize,
        params: ModelParams,
    ) -> Arc<StoredModel> {
        self.counters.registers.inc();
        let key = ModelKey::new(platform, &feature_order, family);
        let versions = self.models.entry(key.clone()).or_default();
        let version = versions.last().map_or(1, |m| m.version + 1);
        let stored = Arc::new(StoredModel {
            key,
            version,
            feature_order,
            residual_std,
            training_rows,
            params,
            derived: Derived::default(),
        });
        versions.push(Arc::clone(&stored));
        stored
    }

    /// Latest version for an exact key, if any.
    pub fn latest(&self, key: &ModelKey) -> Option<Arc<StoredModel>> {
        self.models.get(key).and_then(|v| v.last().cloned())
    }

    /// A specific version for a key.
    pub fn version(&self, key: &ModelKey, version: u32) -> Option<Arc<StoredModel>> {
        self.models
            .get(key)?
            .iter()
            .find(|m| m.version == version)
            .cloned()
    }

    /// Serve-path lookup: the best model on `platform` for exactly this
    /// PMC set (order-insensitive), any family. Online models win over
    /// generic ones (they carry the paper's deployability guarantee), then
    /// higher versions win.
    pub fn lookup(&self, platform: &str, pmc_names: &[String]) -> Option<Arc<StoredModel>> {
        let names: Vec<&str> = pmc_names.iter().map(String::as_str).collect();
        self.lookup_names(platform, &names)
    }

    /// [`lookup`](Registry::lookup) over borrowed names — the serving hot
    /// path's entry point: no owned `String`s are built, and the platform
    /// is compared case-insensitively (keys are stored lowercase) instead
    /// of allocating a lowercased copy per request.
    pub fn lookup_names(&self, platform: &str, names: &[&str]) -> Option<Arc<StoredModel>> {
        let mut wanted: Vec<&str> = names.to_vec();
        wanted.sort_unstable();
        let found = self
            .models
            .iter()
            .filter(|(k, _)| {
                k.platform.eq_ignore_ascii_case(platform)
                    && k.pmc_set.len() == wanted.len()
                    && k.pmc_set
                        .iter()
                        .map(String::as_str)
                        .eq(wanted.iter().copied())
            })
            .filter_map(|(_, versions)| versions.last())
            .max_by_key(|m| (m.key.family == "online", m.version))
            .cloned();
        self.note_lookup(found.is_some());
        found
    }

    /// Latest model of `family` on `platform`, across PMC sets (used by
    /// app-level estimation, where the server picks the counter set).
    pub fn latest_of_family(&self, platform: &str, family: &str) -> Option<Arc<StoredModel>> {
        let found = self
            .models
            .iter()
            .filter(|(k, _)| k.platform.eq_ignore_ascii_case(platform) && k.family == family)
            .filter_map(|(_, versions)| versions.last())
            .max_by_key(|m| m.version)
            .cloned();
        self.note_lookup(found.is_some());
        found
    }

    /// Record a lookup outcome: the hit/miss counter pair and, when the
    /// calling thread carries a request trace, a `registry.lookup`
    /// instant marking which way it went.
    fn note_lookup(&self, hit: bool) {
        if hit {
            self.counters.lookup_hits.inc();
        } else {
            self.counters.lookup_misses.inc();
        }
        trace::instant(
            "registry.lookup",
            &[("result", if hit { "hit" } else { "miss" })],
        );
    }

    /// Every stored version, sorted by key then version (stable listing
    /// for the MODELS command and for saving).
    pub fn entries(&self) -> Vec<Arc<StoredModel>> {
        let mut all: Vec<Arc<StoredModel>> = self.models.values().flatten().cloned().collect();
        all.sort_by(|a, b| {
            (&a.key.platform, &a.key.family, &a.key.pmc_set, a.version).cmp(&(
                &b.key.platform,
                &b.key.family,
                &b.key.pmc_set,
                b.version,
            ))
        });
        all
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.models.values().map(Vec::len).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Write every entry under `dir` (created if missing), one file per
    /// version. Returns the number of files written.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Io`] on filesystem failure.
    pub fn save_dir(&self, dir: &Path) -> Result<usize, RegistryError> {
        fs::create_dir_all(dir)?;
        let entries = self.entries();
        for model in &entries {
            let path = dir.join(file_name(model));
            fs::write(path, encode_entry(model))?;
        }
        Ok(entries.len())
    }

    /// Load every `*.model` file under `dir` into a fresh registry.
    /// Versions are preserved as stored, provided each file decodes.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] on I/O failure or the first malformed
    /// file.
    pub fn load_dir(dir: &Path) -> Result<Self, RegistryError> {
        let mut registry = Registry::new();
        if !dir.exists() {
            return Ok(registry);
        }
        let mut paths: Vec<_> = fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "model"))
            .collect();
        paths.sort();
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let model = decode_entry(&text).map_err(|e| match e {
                RegistryError::Malformed { detail, .. } => RegistryError::Malformed {
                    file: path.display().to_string(),
                    detail,
                },
                other => other,
            })?;
            registry.insert_stored(model);
        }
        Ok(registry)
    }

    /// Insert an already-versioned entry as stored — snapshot restores
    /// and directory loads must preserve version numbers rather than
    /// re-assigning them through [`register`](Registry::register).
    pub(crate) fn insert_stored(&mut self, model: StoredModel) {
        let versions = self.models.entry(model.key.clone()).or_default();
        versions.push(Arc::new(model));
        versions.sort_by_key(|m| m.version);
    }
}

/// Stable, filesystem-safe file name for one entry.
pub(crate) fn file_name(model: &StoredModel) -> String {
    // FNV-1a over the sorted PMC set keeps names short while distinct
    // counter sets stay distinct.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in &model.key.pmc_set {
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!(
        "{}__{}__{h:016x}__v{}.model",
        model.key.platform, model.key.family, model.version
    )
}

/// Encode one entry: registry metadata lines, then the mlkit model block.
pub fn encode_entry(model: &StoredModel) -> String {
    let mut out = String::from("pmca-registry v1\n");
    out.push_str(&format!("platform {}\n", model.key.platform));
    out.push_str(&format!("family {}\n", model.key.family));
    out.push_str(&format!("version {}\n", model.version));
    out.push_str(&format!("pmcs {}\n", model.feature_order.join(" ")));
    out.push_str(&format!("residual-std {}\n", model.residual_std));
    out.push_str(&format!("training-rows {}\n", model.training_rows));
    out.push_str(&export::encode(&model.params));
    out
}

/// Decode one entry produced by [`encode_entry`].
///
/// # Errors
///
/// Returns [`RegistryError::Malformed`] describing the first problem
/// found (with no file attached; [`Registry::load_dir`] adds it).
pub fn decode_entry(text: &str) -> Result<StoredModel, RegistryError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| malformed("empty entry"))?;
    if header.trim() != "pmca-registry v1" {
        return Err(malformed(format!(
            "expected `pmca-registry v1` header, found {header:?}"
        )));
    }
    let mut platform = None;
    let mut family = None;
    let mut version = None;
    let mut pmcs: Option<Vec<String>> = None;
    let mut residual_std = None;
    let mut training_rows = None;
    let mut consumed = 1;
    for line in lines {
        consumed += 1;
        let line = line.trim();
        let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
        match keyword {
            "platform" => platform = Some(rest.to_string()),
            "family" => family = Some(rest.to_string()),
            "version" => {
                version = Some(
                    rest.parse::<u32>()
                        .map_err(|_| malformed(format!("bad version {rest:?}")))?,
                );
            }
            "pmcs" => {
                pmcs = Some(rest.split_whitespace().map(str::to_string).collect());
            }
            "residual-std" => {
                residual_std = Some(
                    rest.parse::<f64>()
                        .map_err(|_| malformed(format!("bad residual-std {rest:?}")))?,
                );
            }
            "training-rows" => {
                training_rows = Some(
                    rest.parse::<usize>()
                        .map_err(|_| malformed(format!("bad training-rows {rest:?}")))?,
                );
            }
            "pmca-model" => {
                consumed -= 1;
                break;
            }
            other => return Err(malformed(format!("unknown registry field {other:?}"))),
        }
    }
    let model_block: String = text
        .lines()
        .skip(consumed)
        .map(|l| format!("{l}\n"))
        .collect();
    let params = export::decode(&model_block).map_err(|e| malformed(e.to_string()))?;
    let platform = platform.ok_or_else(|| malformed("missing platform"))?;
    let family = family.ok_or_else(|| malformed("missing family"))?;
    let version = version.ok_or_else(|| malformed("missing version"))?;
    let feature_order = pmcs.ok_or_else(|| malformed("missing pmcs"))?;
    if feature_order.len() != params.width() {
        return Err(malformed(format!(
            "{} PMC names for a width-{} model",
            feature_order.len(),
            params.width()
        )));
    }
    Ok(StoredModel {
        key: ModelKey::new(&platform, &feature_order, &family),
        version,
        feature_order,
        residual_std: residual_std.ok_or_else(|| malformed("missing residual-std"))?,
        training_rows: training_rows.ok_or_else(|| malformed("missing training-rows"))?,
        params,
        derived: Derived::default(),
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

    #[test]
    fn versions_increment_per_key() {
        let mut r = Registry::new();
        let a = r.register(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.0,
            10,
            linear(&[1.0, 2.0]),
        );
        let b = r.register(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.5,
            12,
            linear(&[1.1, 2.1]),
        );
        let other = r.register(
            "haswell",
            "online",
            names(&["A", "B"]),
            1.0,
            10,
            linear(&[1.0, 2.0]),
        );
        assert_eq!(a.version, 1);
        assert_eq!(b.version, 2);
        assert_eq!(other.version, 1);
        assert_eq!(r.latest(&a.key).unwrap().version, 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn lookup_is_order_insensitive_and_prefers_online() {
        let mut r = Registry::new();
        r.register(
            "skylake",
            "linear",
            names(&["B", "A"]),
            1.0,
            10,
            linear(&[1.0, 2.0]),
        );
        let online = r.register(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.0,
            10,
            linear(&[3.0, 4.0]),
        );
        let hit = r.lookup("skylake", &names(&["B", "A"])).unwrap();
        assert_eq!(hit.key, online.key);
        assert!(r.lookup("skylake", &names(&["A", "C"])).is_none());
        assert!(r.lookup("haswell", &names(&["A", "B"])).is_none());
    }

    #[test]
    fn feature_order_is_preserved_even_though_keys_sort() {
        let mut r = Registry::new();
        let m = r.register(
            "skylake",
            "online",
            names(&["Z", "A"]),
            1.0,
            10,
            linear(&[9.0, 1.0]),
        );
        assert_eq!(m.feature_order, names(&["Z", "A"]));
        assert_eq!(m.key.pmc_set, names(&["A", "Z"]));
    }

    #[test]
    fn entry_text_round_trips() {
        let mut r = Registry::new();
        let m = r.register(
            "haswell",
            "online",
            names(&["X", "Y"]),
            2.25,
            28,
            linear(&[0.5, 1.5e-9]),
        );
        let decoded = decode_entry(&encode_entry(&m)).unwrap();
        assert_eq!(*m, decoded);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_entry("").is_err());
        assert!(decode_entry("pmca-registry v2\n").is_err());
        let mut r = Registry::new();
        let m = r.register("haswell", "online", names(&["X"]), 1.0, 5, linear(&[0.5]));
        let bad = encode_entry(&m).replace("training-rows 5", "training-rows five");
        assert!(decode_entry(&bad).is_err());
        let missing = encode_entry(&m).replace("platform haswell\n", "");
        assert!(decode_entry(&missing).is_err());
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("pmca-registry-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut r = Registry::new();
        r.register(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.0,
            10,
            linear(&[1.0, 2.0]),
        );
        r.register(
            "skylake",
            "online",
            names(&["A", "B"]),
            1.2,
            12,
            linear(&[1.1, 2.2]),
        );
        r.register("haswell", "neural", names(&["C"]), 0.4, 8, linear(&[7.0]));
        assert_eq!(r.save_dir(&dir).unwrap(), 3);
        let loaded = Registry::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 3);
        let key = ModelKey::new("skylake", &names(&["A", "B"]), "online");
        assert_eq!(loaded.latest(&key).unwrap().version, 2);
        assert_eq!(loaded.version(&key, 1).unwrap().residual_std, 1.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_of_missing_dir_is_empty() {
        let r = Registry::load_dir(Path::new("/nonexistent/registry/path")).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn decode_errors_are_typed_and_display() {
        let err = decode_entry("pmca-registry v2\n").unwrap_err();
        assert!(matches!(err, RegistryError::Malformed { ref file, .. } if file.is_empty()));
        assert!(err.to_string().contains("malformed registry entry"));
        let boxed: Box<dyn Error> = Box::new(err);
        assert!(boxed.to_string().contains("pmca-registry"));
    }

    #[test]
    fn metric_counters_track_lookups_and_registers() {
        let metrics = MetricsRegistry::new();
        let mut r = Registry::with_metrics(&metrics);
        r.register("skylake", "online", names(&["A"]), 1.0, 10, linear(&[1.0]));
        let _ = r.lookup("skylake", &names(&["A"]));
        let _ = r.lookup("skylake", &names(&["B"]));
        let _ = r.latest_of_family("skylake", "online");
        let lines = metrics.render();
        assert!(
            lines.contains(&"pmca_model_registry_registers_total 1".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"pmca_model_registry_lookups_total{result=\"hit\"} 2".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"pmca_model_registry_lookups_total{result=\"miss\"} 1".to_string()),
            "{lines:?}"
        );
    }
}
