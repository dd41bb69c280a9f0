//! The stream hub: every open stream, the per-platform online models,
//! and their publication into the serving store.
//!
//! Lock layout, in acquisition order:
//!
//! 1. one of `shards` (per-stream state, hashed by stream id) —
//!    held only while mutating one stream's ring;
//! 2. `online` (per-platform RLS model + training buffer) — held for the
//!    O(width²) recursive update of a labelled push;
//! 3. `snapshots` (read-mostly `RwLock`) — what polls read; writes are a
//!    single `Arc` insert.
//!
//! A poll therefore touches one shard mutex and a snapshot read lock. The
//! only model the hub fits is the platform's linear online model: every
//! [`PUBLISH_EVERY`]-th labelled window, and on every entry into the
//! drifting health state, its snapshot is handed to the installed
//! [`PublishFn`] (the serving registry's versioned store) after the
//! `online` lock is released. Entering drifting first refits that model
//! from the windows labelled since the platform last left `ok`, so the
//! served coefficients follow the new regime instead of its whole history.

use crate::window::{PushOutcome, WindowSample, WindowState};
use pmca_additivity::AdditivityTest;
use pmca_mlkit::RecursiveLeastSquares;
use pmca_obs::{Counter, Gauge, HealthRegistry, HealthState, HealthTransition};
use pmca_obs::{Histogram, MetricsRegistry, Tracer};
use pmca_simd::Isa;
use pmca_stats::confidence::t_critical;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Each pushed window covers one second of telemetry by convention, so a
/// predicted joules-per-window divided by this is a power in watts.
pub const WINDOW_SECONDS: f64 = 1.0;

/// Labelled windows per platform between cadence publications of its
/// online model into the serving store.
pub const PUBLISH_EVERY: u64 = 256;

/// Labelled windows per platform retained for a drift refit.
const TRAIN_BUFFER: usize = 1_024;

/// The paper's deployable 4-PMC set — the default feature order streams
/// push counts in.
pub const DEFAULT_PMC_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

/// Stream-level failures, each mapping to one `ERR` protocol reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// OPEN named a stream id that is already open.
    AlreadyOpen(String),
    /// The stream id is not open.
    Unknown(String),
    /// The hub is at its configured stream limit.
    TooManyStreams {
        /// The configured limit.
        limit: usize,
    },
    /// A pushed sample was unusable (wrong width, non-finite values).
    BadSample(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::AlreadyOpen(id) => write!(f, "stream {id:?} is already open"),
            StreamError::Unknown(id) => write!(f, "no open stream {id:?}"),
            StreamError::TooManyStreams { limit } => {
                write!(f, "too many open streams (limit {limit})")
            }
            StreamError::BadSample(detail) => write!(f, "bad sample: {detail}"),
        }
    }
}

impl Error for StreamError {}

/// Callback through which the hub publishes a platform's online model
/// into the serving registry's versioned store: `(platform, snapshot)`,
/// the snapshot's coefficients in the configured feature order.
pub type PublishFn = dyn Fn(&str, &ModelSnapshot) + Send + Sync;

/// Configuration for a [`StreamHub`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHubConfig {
    shards: usize,
    max_streams: usize,
    idle_ttl: Duration,
    pmc_names: Vec<String>,
}

impl Default for StreamHubConfig {
    /// 16 shards, 65 536 streams, 5-minute idle eviction, and the
    /// paper's deployable 4-PMC feature order.
    fn default() -> Self {
        StreamHubConfig {
            shards: 16,
            max_streams: 65_536,
            idle_ttl: Duration::from_secs(300),
            pmc_names: DEFAULT_PMC_SET.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl StreamHubConfig {
    /// Stream-table shards (≥ 1; default 16).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Maximum concurrently open streams (≥ 1; default 65 536).
    pub fn max_streams(mut self, max_streams: usize) -> Self {
        self.max_streams = max_streams.max(1);
        self
    }

    /// Idle TTL after which a stream is evicted (default 5 minutes).
    pub fn idle_ttl(mut self, ttl: Duration) -> Self {
        self.idle_ttl = ttl;
        self
    }

    /// Feature order pushed counts follow (default the paper's 4-PMC set).
    pub fn pmc_names(mut self, names: Vec<String>) -> Self {
        assert!(!names.is_empty(), "streams need at least one PMC feature");
        self.pmc_names = names;
        self
    }

    /// The configured feature order.
    pub fn feature_order(&self) -> &[String] {
        &self.pmc_names
    }
}

/// The linear model a poll predicts with: an immutable snapshot swapped
/// atomically (one `Arc` store) on every online update.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Model family tag (`"online"` for hub-fitted snapshots).
    pub family: String,
    /// Snapshot version, bumped on every publish for its platform.
    pub version: u64,
    /// Non-negative, zero-intercept coefficients in feature order.
    pub coefficients: Vec<f64>,
    /// Standard deviation of training residuals, joules.
    pub residual_std: f64,
    /// Rows the model has seen.
    pub training_rows: usize,
}

impl ModelSnapshot {
    /// Predicted joules for one window of counts (clamped non-negative,
    /// matching the serving engine) — the same dispatched pairwise dot
    /// the serving kernels use, so stream estimates and served
    /// estimates of the same coefficients agree bit for bit.
    pub fn predict(&self, counts: &[f64]) -> f64 {
        pmca_simd::dot_f64(Isa::active(), counts, &self.coefficients).max(0.0)
    }

    /// Predicted joules for many windows at once, appending one
    /// clamped estimate per window to `out`. Bit-identical to
    /// [`predict`](ModelSnapshot::predict) per window; the batch form
    /// exists so ring-wide estimates hit the SIMD kernel without a
    /// per-window dispatch lookup.
    pub fn predict_windows_into<'a>(
        &self,
        windows: impl Iterator<Item = &'a [f64]>,
        out: &mut Vec<f64>,
    ) {
        let isa = Isa::active();
        out.extend(windows.map(|w| pmca_simd::dot_f64(isa, w, &self.coefficients).max(0.0)));
    }

    /// Half-width of the 95% prediction interval — the same Student-t
    /// construction the serving engine uses: 0 until the model has rows
    /// and a positive residual spread.
    pub fn prediction_half_width(&self) -> f64 {
        if self.residual_std <= 0.0 || self.training_rows == 0 {
            return 0.0;
        }
        let df = self
            .training_rows
            .saturating_sub(self.coefficients.len())
            .max(1);
        t_critical(df, 0.95) * self.residual_std
    }
}

/// Reply to one push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushReply {
    /// What happened to the window.
    pub outcome: PushOutcome,
    /// Windows retained after the push.
    pub retained: usize,
    /// The stream's high-water window id after the push.
    pub highest: u64,
}

/// A snapshot of one stream's state and current estimates — the POLL and
/// CLOSE reply, and one row of a LIST.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStatus {
    /// Stream id.
    pub stream: String,
    /// Application tag the stream was opened with.
    pub app: String,
    /// Platform the stream's counts come from.
    pub platform: String,
    /// Ring capacity in windows.
    pub capacity: usize,
    /// Windows currently retained.
    pub retained: usize,
    /// Windows accepted over the stream's lifetime.
    pub accepted: u64,
    /// Pushes rejected as duplicates.
    pub duplicates: u64,
    /// Pushes rejected as too old.
    pub late: u64,
    /// Highest accepted window id.
    pub highest: u64,
    /// Predicted dynamic energy of the newest retained window, joules.
    pub joules: f64,
    /// Mean predicted power over the retained ring, watts.
    pub watts: f64,
    /// Half-width of the 95% prediction interval, joules.
    pub ci95: f64,
    /// Family of the model that produced the estimates (`"none"` before
    /// any model exists for the platform).
    pub family: String,
    /// Snapshot version of that model.
    pub version: u64,
    /// Rows that model was fitted on.
    pub rows: usize,
    /// Milliseconds since the stream last accepted activity.
    pub idle_ms: u64,
}

/// Per-platform online-update state.
struct PlatformOnline {
    rls: RecursiveLeastSquares,
    /// Most recent labelled windows, the drift refit's training set.
    buffer: VecDeque<(Vec<f64>, f64)>,
    /// Labelled windows over the platform's lifetime.
    labelled: u64,
    /// Labelled windows since the platform's health last left `ok`.
    since_ok: usize,
}

/// Why the hub published a platform's online model into the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Publication {
    /// The platform's [`PUBLISH_EVERY`]-th labelled window.
    Cadence,
    /// The platform entered the drifting health state.
    Drift,
}

/// One open stream.
struct StreamEntry {
    app: String,
    platform: String,
    state: WindowState,
    last_push: Instant,
}

/// Hub instruments (`pmca_stream_*`).
#[derive(Clone)]
struct StreamMetrics {
    open_streams: Gauge,
    accepted: Counter,
    duplicates: Counter,
    late: Counter,
    cadence_refits: Counter,
    drift_refits: Counter,
    evicted: Counter,
    /// Out-of-order arrival lag. Recorded as `lag` seconds so the
    /// rendered (seconds-valued) quantiles read directly in windows.
    lag: Histogram,
}

thread_local! {
    /// Scratch for the batched ring-wide window estimates in
    /// `status_of` — reused across polls so a warm status costs no
    /// allocation.
    static ESTIMATE_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl StreamMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        // Advertise the dispatched kernel instruction set (shared with
        // the serving engine, which registers the same gauge id).
        registry
            .gauge("pmca_simd_isa", &[("isa", Isa::active().as_str())])
            .set(1.0);
        let windows =
            |result: &str| registry.counter("pmca_stream_windows_total", &[("result", result)]);
        StreamMetrics {
            open_streams: registry.gauge("pmca_stream_open_streams", &[]),
            accepted: windows("accepted"),
            duplicates: windows("duplicate"),
            late: windows("late"),
            cadence_refits: registry.counter("pmca_stream_refits_total", &[("reason", "cadence")]),
            drift_refits: registry.counter("pmca_stream_refits_total", &[("reason", "drift")]),
            evicted: registry.counter("pmca_stream_evicted_total", &[]),
            lag: registry.histogram("pmca_stream_window_lag_windows", &[]),
        }
    }
}

/// The shared registry of open streams. See the module docs for the
/// locking and publication design.
pub struct StreamHub {
    config: StreamHubConfig,
    shards: Vec<Mutex<HashMap<String, StreamEntry>>>,
    online: Mutex<HashMap<String, PlatformOnline>>,
    snapshots: RwLock<HashMap<String, Arc<ModelSnapshot>>>,
    publish: RwLock<Option<Arc<PublishFn>>>,
    tracer: RwLock<Option<Arc<Tracer>>>,
    health: RwLock<Option<Arc<HealthRegistry>>>,
    /// Rolling per-`(platform, app)` counter means, the base side of the
    /// online compound-vs-sum additivity checks.
    additivity_means: Mutex<HashMap<(String, String), CounterMeans>>,
    open_count: AtomicUsize,
    publications: AtomicU64,
    drift_refits: AtomicU64,
    metrics: StreamMetrics,
}

/// Running per-counter means of one `(platform, app)`'s windows.
#[derive(Debug)]
struct CounterMeans {
    sums: Vec<f64>,
    n: u64,
}

impl CounterMeans {
    fn means(&self) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)] // window counts, far below 2^52
        let n = (self.n.max(1)) as f64;
        self.sums.iter().map(|s| s / n).collect()
    }
}

impl fmt::Debug for StreamHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamHub")
            .field("config", &self.config)
            .field("open_streams", &self.open_streams())
            .field("publications", &self.publications())
            .finish_non_exhaustive()
    }
}

impl StreamHub {
    /// A hub recording into the process-global metrics registry.
    pub fn new(config: StreamHubConfig) -> Self {
        Self::with_registry(config, MetricsRegistry::global())
    }

    /// A hub recording into an explicit metrics registry.
    pub fn with_registry(config: StreamHubConfig, metrics: &MetricsRegistry) -> Self {
        let shards = (0..config.shards)
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        StreamHub {
            metrics: StreamMetrics::from_registry(metrics),
            shards,
            online: Mutex::new(HashMap::new()),
            snapshots: RwLock::new(HashMap::new()),
            publish: RwLock::new(None),
            tracer: RwLock::new(None),
            health: RwLock::new(None),
            additivity_means: Mutex::new(HashMap::new()),
            open_count: AtomicUsize::new(0),
            publications: AtomicU64::new(0),
            drift_refits: AtomicU64::new(0),
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &StreamHubConfig {
        &self.config
    }

    /// Install the callback online models are published through
    /// (typically a put into the serving registry's store).
    pub fn set_publish(&self, publish: Arc<PublishFn>) {
        *self.publish.write().expect("publish poisoned") = Some(publish);
    }

    /// Attach a tracer; drift transitions record `health.drift` traces
    /// into its flight recorder.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write().expect("tracer poisoned") = Some(tracer);
    }

    /// Attach a health registry: every labelled accepted window feeds
    /// the platform's calibration tracker (predicted ± half-width vs.
    /// the measured label, *before* the online update so the residual
    /// is out of sample), and compound-app windows feed the per-counter
    /// additivity checks. Drift transitions record a `health.drift`
    /// flight-recorder trace, and entering drifting refits and publishes
    /// the platform's online model.
    pub fn set_health(&self, health: Arc<HealthRegistry>) {
        *self.health.write().expect("health poisoned") = Some(health);
    }

    /// The attached health registry, if any.
    pub fn health(&self) -> Option<Arc<HealthRegistry>> {
        self.health.read().expect("health poisoned").clone()
    }

    /// Seed `platform`'s snapshot from an already-trained linear model,
    /// if the hub has none yet — how the serving layer hands a
    /// registry-trained online model to streams before any labelled
    /// window arrives.
    pub fn seed_snapshot(
        &self,
        platform: &str,
        coefficients: Vec<f64>,
        residual_std: f64,
        training_rows: usize,
    ) {
        let mut snapshots = self.snapshots.write().expect("snapshots poisoned");
        snapshots
            .entry(platform.to_ascii_lowercase())
            .or_insert_with(|| {
                Arc::new(ModelSnapshot {
                    family: "online".to_string(),
                    version: 1,
                    coefficients,
                    residual_std,
                    training_rows,
                })
            });
    }

    /// The current snapshot for `platform`, if any.
    pub fn snapshot(&self, platform: &str) -> Option<Arc<ModelSnapshot>> {
        self.snapshots
            .read()
            .expect("snapshots poisoned")
            .get(&platform.to_ascii_lowercase())
            .cloned()
    }

    /// Streams currently open.
    pub fn open_streams(&self) -> usize {
        self.open_count.load(Ordering::Relaxed)
    }

    /// Online models published so far, for either reason.
    pub fn publications(&self) -> u64 {
        self.publications.load(Ordering::Relaxed)
    }

    /// Publications made on entering the drifting health state.
    pub fn drift_refits(&self) -> u64 {
        self.drift_refits.load(Ordering::Relaxed)
    }

    fn shard(&self, id: &str) -> &Mutex<HashMap<String, StreamEntry>> {
        // FNV-1a: stable, cheap, and good enough to spread ids.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in id.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1_0000_0000_01b3);
        }
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Open a stream. `window` is the sliding-ring capacity in windows
    /// (clamped as by [`WindowState::new`]); returns the clamped value.
    ///
    /// Opening first sweeps idle streams, so a hub at its limit recovers
    /// capacity from abandoned producers without an external sweeper.
    ///
    /// # Errors
    ///
    /// [`StreamError::AlreadyOpen`] for an id already open,
    /// [`StreamError::TooManyStreams`] at the configured limit.
    pub fn open(
        &self,
        id: &str,
        app: &str,
        platform: &str,
        window: usize,
    ) -> Result<usize, StreamError> {
        if self.open_count.load(Ordering::Relaxed) >= self.config.max_streams {
            self.evict_idle();
        }
        if self.open_count.load(Ordering::Relaxed) >= self.config.max_streams {
            return Err(StreamError::TooManyStreams {
                limit: self.config.max_streams,
            });
        }
        let state = WindowState::new(window);
        let capacity = state.capacity();
        let mut shard = self.shard(id).lock().expect("shard poisoned");
        if shard.contains_key(id) {
            return Err(StreamError::AlreadyOpen(id.to_string()));
        }
        shard.insert(
            id.to_string(),
            StreamEntry {
                app: app.to_string(),
                platform: platform.to_ascii_lowercase(),
                state,
                last_push: Instant::now(),
            },
        );
        self.open_count.fetch_add(1, Ordering::Relaxed);
        self.metrics.open_streams.add(1.0);
        Ok(capacity)
    }

    /// Push one window into a stream. A labelled window (with measured
    /// `joules`) additionally feeds the platform's online model.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unknown`] for an unopened id,
    /// [`StreamError::BadSample`] for wrong-width or non-finite values.
    pub fn push(
        &self,
        id: &str,
        window_id: u64,
        counts: &[f64],
        joules: Option<f64>,
    ) -> Result<PushReply, StreamError> {
        let width = self.config.pmc_names.len();
        if counts.len() != width {
            return Err(StreamError::BadSample(format!(
                "expected {width} counts, got {}",
                counts.len()
            )));
        }
        if counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(StreamError::BadSample(
                "counts must be finite and non-negative".to_string(),
            ));
        }
        if let Some(j) = joules {
            if !j.is_finite() || j < 0.0 {
                return Err(StreamError::BadSample(
                    "joules must be finite and non-negative".to_string(),
                ));
            }
        }
        let (reply, platform, app) = {
            let mut shard = self.shard(id).lock().expect("shard poisoned");
            let entry = shard
                .get_mut(id)
                .ok_or_else(|| StreamError::Unknown(id.to_string()))?;
            entry.last_push = Instant::now();
            let outcome = entry.state.push(WindowSample {
                id: window_id,
                counts: counts.to_vec(),
                joules,
            });
            let reply = PushReply {
                outcome,
                retained: entry.state.retained(),
                highest: entry.state.highest(),
            };
            (reply, entry.platform.clone(), entry.app.clone())
        };
        match reply.outcome {
            PushOutcome::Accepted { lag } => {
                self.metrics.accepted.inc();
                // Seconds-valued histogram, abused on purpose: lag is
                // recorded as `lag` whole seconds so the rendered
                // quantiles read directly as windows.
                self.metrics
                    .lag
                    .record_ns(lag.saturating_mul(1_000_000_000));
                self.note_additivity(&platform, &app, counts);
                if let Some(j) = joules {
                    // Calibration first: the residual against the
                    // *current* snapshot is out of sample only before
                    // the online update folds this window in.
                    let transition = self.observe_calibration(&platform, counts, j);
                    if let Some(transition) = &transition {
                        self.note_drift(transition);
                    }
                    let due = self.online_update(&platform, counts, j, transition.as_ref());
                    if let Some((snapshot, reason)) = due {
                        self.publish(&platform, &snapshot, reason);
                    }
                }
            }
            PushOutcome::Duplicate => self.metrics.duplicates.inc(),
            PushOutcome::TooOld => self.metrics.late.inc(),
        }
        Ok(reply)
    }

    /// Current state and estimates for a stream.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unknown`] for an unopened id.
    pub fn poll(&self, id: &str) -> Result<StreamStatus, StreamError> {
        let shard = self.shard(id).lock().expect("shard poisoned");
        let entry = shard
            .get(id)
            .ok_or_else(|| StreamError::Unknown(id.to_string()))?;
        Ok(self.status_of(id, entry))
    }

    /// Close a stream, returning its final state.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unknown`] for an unopened id.
    pub fn close(&self, id: &str) -> Result<StreamStatus, StreamError> {
        let removed = {
            let mut shard = self.shard(id).lock().expect("shard poisoned");
            shard
                .remove_entry(id)
                .ok_or_else(|| StreamError::Unknown(id.to_string()))?
        };
        self.open_count.fetch_sub(1, Ordering::Relaxed);
        self.metrics.open_streams.add(-1.0);
        Ok(self.status_of(&removed.0, &removed.1))
    }

    /// All open streams, sorted by id.
    pub fn list(&self) -> Vec<StreamStatus> {
        let mut statuses: Vec<StreamStatus> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            statuses.extend(shard.iter().map(|(id, entry)| self.status_of(id, entry)));
        }
        statuses.sort_by(|a, b| a.stream.cmp(&b.stream));
        statuses
    }

    /// Evict streams idle past the configured TTL; returns how many.
    pub fn evict_idle(&self) -> usize {
        self.evict_idle_older_than(self.config.idle_ttl)
    }

    /// Evict streams whose last activity is older than `ttl` — the
    /// sweep behind [`StreamHub::evict_idle`], with the horizon explicit
    /// so tests need not wait out a real TTL.
    pub fn evict_idle_older_than(&self, ttl: Duration) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            let before = shard.len();
            shard.retain(|_, entry| entry.last_push.elapsed() < ttl);
            evicted += before - shard.len();
        }
        if evicted > 0 {
            self.open_count.fetch_sub(evicted, Ordering::Relaxed);
            self.metrics.open_streams.add(-(evicted as f64));
            self.metrics.evicted.add(evicted as u64);
        }
        evicted
    }

    fn status_of(&self, id: &str, entry: &StreamEntry) -> StreamStatus {
        let snapshot = self.snapshot(&entry.platform);
        let (joules, watts, ci95, family, version, rows) = match &snapshot {
            Some(s) => {
                let latest = entry.state.latest().map_or(0.0, |w| s.predict(&w.counts));
                let retained = entry.state.retained();
                let mean = if retained == 0 {
                    0.0
                } else {
                    // Ring-wide estimates go through the batched SIMD
                    // kernel with thread-local scratch; the sum runs
                    // in the same window order as a per-row loop, so
                    // the mean's bits are unchanged.
                    ESTIMATE_SCRATCH.with(|cell| {
                        let buf = &mut *cell.borrow_mut();
                        buf.clear();
                        s.predict_windows_into(
                            entry.state.samples().map(|w| w.counts.as_slice()),
                            buf,
                        );
                        buf.iter().sum::<f64>() / retained as f64
                    })
                };
                (
                    latest,
                    mean / WINDOW_SECONDS,
                    s.prediction_half_width(),
                    s.family.clone(),
                    s.version,
                    s.training_rows,
                )
            }
            None => (0.0, 0.0, 0.0, "none".to_string(), 0, 0),
        };
        StreamStatus {
            stream: id.to_string(),
            app: entry.app.clone(),
            platform: entry.platform.clone(),
            capacity: entry.state.capacity(),
            retained: entry.state.retained(),
            accepted: entry.state.accepted(),
            duplicates: entry.state.duplicates(),
            late: entry.state.late(),
            highest: entry.state.highest(),
            joules,
            watts,
            ci95,
            family,
            version,
            rows,
            idle_ms: u64::try_from(entry.last_push.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// Feed one labelled window's out-of-sample residual into the
    /// attached health registry; returns the drift transition it caused.
    fn observe_calibration(
        &self,
        platform: &str,
        counts: &[f64],
        joules: f64,
    ) -> Option<HealthTransition> {
        let health = self.health()?;
        if !health.is_enabled() {
            return None;
        }
        let snapshot = self.snapshot(platform)?;
        health.observe(
            platform,
            snapshot.version,
            snapshot.predict(counts),
            snapshot.prediction_half_width(),
            joules,
        )
    }

    /// A drift transition is worth a flight-recorder entry.
    fn note_drift(&self, transition: &HealthTransition) {
        if let Some(tracer) = self.tracer.read().expect("tracer poisoned").clone() {
            if let Some(trace) = tracer.start(
                "health.drift",
                &[
                    ("platform", transition.platform.as_str()),
                    ("from", transition.from.as_str()),
                    ("to", transition.to.as_str()),
                    ("score", &format!("{:.3}", transition.score)),
                    ("version", &transition.version.to_string()),
                ],
            ) {
                tracer.finish(&trace);
            }
        }
    }

    /// Fold one accepted window into the additivity monitor: a base app
    /// (no `;`) contributes to its rolling counter means; a two-part
    /// compound (`a;b`) is checked against the sum of its parts' means
    /// with the paper's equation-1 error, per counter.
    fn note_additivity(&self, platform: &str, app: &str, counts: &[f64]) {
        let Some(health) = self.health() else { return };
        if !health.is_enabled() {
            return;
        }
        let parts: Vec<&str> = app.split(';').filter(|part| !part.is_empty()).collect();
        let (base1, base2) = {
            let mut means = self.additivity_means.lock().expect("additivity poisoned");
            match parts.as_slice() {
                [_single] => {
                    let entry = means
                        .entry((platform.to_string(), app.to_string()))
                        .or_insert_with(|| CounterMeans {
                            sums: vec![0.0; counts.len()],
                            n: 0,
                        });
                    for (sum, count) in entry.sums.iter_mut().zip(counts) {
                        *sum += count;
                    }
                    entry.n += 1;
                    return;
                }
                [a, b] => {
                    let base1 = means.get(&(platform.to_string(), (*a).to_string()));
                    let base2 = means.get(&(platform.to_string(), (*b).to_string()));
                    match (base1, base2) {
                        // Both bases must have been seen, or the check
                        // would compare against nothing.
                        (Some(b1), Some(b2)) if b1.n > 0 && b2.n > 0 => (b1.means(), b2.means()),
                        _ => return,
                    }
                }
                _ => return,
            }
        };
        let tolerance = AdditivityTest::default().tolerance_pct;
        for ((name, (b1, b2)), compound) in self
            .config
            .pmc_names
            .iter()
            .zip(base1.iter().zip(&base2))
            .zip(counts)
        {
            let error_pct = AdditivityTest::equation_1_error_pct(*b1, *b2, *compound);
            health.observe_additivity(platform, name, error_pct, tolerance);
        }
    }

    /// Fold one labelled window into the platform's online model: an
    /// O(width²) recursive-least-squares update and an immediate snapshot
    /// publish. Returns the snapshot when it is also due in the serving
    /// store: on entering drifting (after a refit from the windows since
    /// the platform left `ok`), or on every [`PUBLISH_EVERY`]-th window.
    fn online_update(
        &self,
        platform: &str,
        counts: &[f64],
        joules: f64,
        transition: Option<&HealthTransition>,
    ) -> Option<(Arc<ModelSnapshot>, Publication)> {
        let width = self.config.pmc_names.len();
        let mut online = self.online.lock().expect("online poisoned");
        let entry = online
            .entry(platform.to_string())
            .or_insert_with(|| PlatformOnline {
                rls: RecursiveLeastSquares::paper_constrained(width),
                buffer: VecDeque::new(),
                labelled: 0,
                since_ok: 0,
            });
        if transition.is_some_and(|t| t.from == HealthState::Ok) {
            entry.since_ok = 0;
        }
        let drifted = transition.is_some_and(|t| t.to == HealthState::Drifting);
        if drifted {
            // RLS sums its whole history with no forgetting, so the old
            // regime would keep outweighing the new one: start over from
            // the windows since the platform left `ok`, never fewer than
            // a well-posed handful.
            let take = entry.since_ok.max(width.max(8)).min(entry.buffer.len());
            entry.rls = RecursiveLeastSquares::paper_constrained(width);
            for (row, target) in entry.buffer.iter().skip(entry.buffer.len() - take) {
                entry.rls.observe(row, *target);
            }
        }
        entry.rls.observe(counts, joules);
        // Rows > 0 after observe, so the refit cannot fail.
        let _ = entry.rls.refit();
        if entry.buffer.len() == TRAIN_BUFFER {
            entry.buffer.pop_front();
        }
        entry.buffer.push_back((counts.to_vec(), joules));
        entry.labelled += 1;
        entry.since_ok += 1;
        let snapshot = self.publish_snapshot(
            platform,
            entry.rls.coefficients().to_vec(),
            entry.rls.residual_std(),
            entry.rls.rows(),
        );
        if drifted {
            Some((snapshot, Publication::Drift))
        } else if entry.labelled.is_multiple_of(PUBLISH_EVERY) {
            Some((snapshot, Publication::Cadence))
        } else {
            None
        }
    }

    fn publish_snapshot(
        &self,
        platform: &str,
        coefficients: Vec<f64>,
        residual_std: f64,
        training_rows: usize,
    ) -> Arc<ModelSnapshot> {
        let mut snapshots = self.snapshots.write().expect("snapshots poisoned");
        let version = snapshots.get(platform).map_or(1, |s| s.version + 1);
        let snapshot = Arc::new(ModelSnapshot {
            family: "online".to_string(),
            version,
            coefficients,
            residual_std,
            training_rows,
        });
        snapshots.insert(platform.to_string(), Arc::clone(&snapshot));
        snapshot
    }

    /// Hand a due snapshot to the installed [`PublishFn`] and count it.
    fn publish(&self, platform: &str, snapshot: &ModelSnapshot, reason: Publication) {
        self.publications.fetch_add(1, Ordering::Relaxed);
        match reason {
            Publication::Cadence => self.metrics.cadence_refits.inc(),
            Publication::Drift => {
                self.drift_refits.fetch_add(1, Ordering::Relaxed);
                self.metrics.drift_refits.inc();
            }
        }
        if let Some(publish) = self.publish.read().expect("publish poisoned").clone() {
            publish(platform, snapshot);
        }
    }
}

impl Drop for StreamHub {
    /// Give back the hub's share of the `pmca_stream_open_streams`
    /// gauge. Every service a process builds records into the one
    /// global registry, so a hub dropped while holding open streams
    /// would otherwise inflate the gauge forever.
    fn drop(&mut self) {
        let open = self.open_count.load(Ordering::Relaxed);
        if open > 0 {
            #[allow(clippy::cast_precision_loss)] // gauge display
            self.metrics.open_streams.add(-(open as f64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmca_obs::HealthConfig;

    fn quiet_hub(config: StreamHubConfig) -> StreamHub {
        StreamHub::with_registry(config, &MetricsRegistry::new())
    }

    fn counts(scale: f64) -> Vec<f64> {
        vec![4.0 * scale, 3.0 * scale, 2.0 * scale, 1.0 * scale]
    }

    #[test]
    fn open_push_poll_close_lifecycle() {
        let hub = quiet_hub(StreamHubConfig::default());
        hub.seed_snapshot("skylake", vec![2.0, 0.0, 0.0, 0.0], 0.5, 20);
        assert_eq!(hub.open("s1", "dgemm:9000", "SKYLAKE", 8).unwrap(), 8);
        assert_eq!(hub.open_streams(), 1);
        for id in 1..=3 {
            let reply = hub.push("s1", id, &counts(id as f64), None).unwrap();
            assert_eq!(reply.outcome, PushOutcome::Accepted { lag: 0 });
        }
        let status = hub.poll("s1").unwrap();
        assert_eq!(status.platform, "skylake", "platform normalised");
        assert_eq!(status.retained, 3);
        assert_eq!(status.highest, 3);
        // Latest window: counts(3) · [2,0,0,0] = 24.
        assert!((status.joules - 24.0).abs() < 1e-12);
        // Mean over [8, 16, 24] at 1 s windows.
        assert!((status.watts - 16.0).abs() < 1e-12);
        assert!(status.ci95 > 0.0, "seeded model carries an interval");
        assert_eq!(status.family, "online");
        let closed = hub.close("s1").unwrap();
        assert_eq!(closed.accepted, 3);
        assert_eq!(hub.open_streams(), 0);
        assert_eq!(hub.poll("s1"), Err(StreamError::Unknown("s1".to_string())));
    }

    #[test]
    fn labelled_pushes_refresh_the_snapshot() {
        let hub = quiet_hub(StreamHubConfig::default());
        hub.open("s1", "app", "skylake", 16).unwrap();
        assert!(hub.snapshot("skylake").is_none());
        // y = 2·c0: ten labelled windows pin the coefficients.
        for id in 1..=10 {
            let c = counts(id as f64);
            let joules = 2.0 * c[0];
            hub.push("s1", id, &c, Some(joules)).unwrap();
        }
        let snapshot = hub.snapshot("skylake").expect("labelled pushes publish");
        assert_eq!(snapshot.training_rows, 10);
        assert_eq!(snapshot.version, 10, "one publish per labelled window");
        let status = hub.poll("s1").unwrap();
        let c = counts(10.0);
        // The paper-constrained ridge (l2 = 0.01) shrinks coefficients a
        // touch, so compare within 1%.
        assert!(
            (status.joules - 2.0 * c[0]).abs() < 0.01 * 2.0 * c[0],
            "poll predicts with the refreshed model: {}",
            status.joules
        );
    }

    #[test]
    fn bad_samples_are_rejected_before_any_state_changes() {
        let hub = quiet_hub(StreamHubConfig::default());
        hub.open("s1", "app", "skylake", 4).unwrap();
        assert!(matches!(
            hub.push("s1", 1, &[1.0, 2.0], None),
            Err(StreamError::BadSample(_))
        ));
        assert!(matches!(
            hub.push("s1", 1, &[1.0, 2.0, 3.0, f64::NAN], None),
            Err(StreamError::BadSample(_))
        ));
        assert!(matches!(
            hub.push("s1", 1, &counts(1.0), Some(-1.0)),
            Err(StreamError::BadSample(_))
        ));
        assert_eq!(hub.poll("s1").unwrap().accepted, 0);
    }

    #[test]
    fn duplicate_open_and_stream_limit_are_errors() {
        let hub = quiet_hub(StreamHubConfig::default().max_streams(2));
        hub.open("a", "app", "skylake", 4).unwrap();
        assert_eq!(
            hub.open("a", "app", "skylake", 4),
            Err(StreamError::AlreadyOpen("a".to_string()))
        );
        hub.open("b", "app", "skylake", 4).unwrap();
        assert_eq!(
            hub.open("c", "app", "skylake", 4),
            Err(StreamError::TooManyStreams { limit: 2 })
        );
    }

    #[test]
    fn idle_eviction_frees_stream_slots() {
        let hub = quiet_hub(StreamHubConfig::default());
        hub.open("a", "app", "skylake", 4).unwrap();
        hub.open("b", "app", "skylake", 4).unwrap();
        assert_eq!(hub.evict_idle_older_than(Duration::from_secs(60)), 0);
        assert_eq!(hub.evict_idle_older_than(Duration::ZERO), 2);
        assert_eq!(hub.open_streams(), 0);
    }

    /// Every `(platform, snapshot)` a publish hook saw, in order.
    type Published = Arc<Mutex<Vec<(String, ModelSnapshot)>>>;

    fn recording_hub() -> (StreamHub, Published) {
        let hub = quiet_hub(StreamHubConfig::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        hub.set_publish(Arc::new(move |platform: &str, snapshot: &ModelSnapshot| {
            sink.lock()
                .unwrap()
                .push((platform.to_string(), snapshot.clone()));
        }));
        (hub, seen)
    }

    #[test]
    fn cadence_publishes_only_the_online_model_once_per_256_labels() {
        let (hub, seen) = recording_hub();
        hub.open("labelled", "app", "skylake", 16).unwrap();
        hub.open("unlabelled", "app", "skylake", 16).unwrap();
        for id in 1..=3 * PUBLISH_EVERY {
            let c = counts(1.0 + (id % 8) as f64);
            hub.push("labelled", id, &c, Some(2.0 * c[0] + 0.5 * c[1]))
                .unwrap();
            // Unlabelled windows never count towards the cadence.
            hub.push("unlabelled", id, &c, None).unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3, "one publication per {PUBLISH_EVERY} labels");
        for (i, (platform, snapshot)) in seen.iter().enumerate() {
            let rows = (i + 1) * PUBLISH_EVERY as usize;
            assert_eq!(platform, "skylake");
            assert_eq!(snapshot.family, "online");
            assert_eq!(snapshot.training_rows, rows);
            assert_eq!(snapshot.version, rows as u64, "the snapshot of that label");
        }
        assert_eq!(hub.publications(), 3);
        assert_eq!(hub.drift_refits(), 0);
        // Publication happens on the pushing thread: the last published
        // snapshot is exactly what polls serve now.
        assert_eq!(*hub.snapshot("skylake").unwrap(), seen[2].1);
    }

    #[test]
    fn polls_without_a_model_report_family_none() {
        let hub = quiet_hub(StreamHubConfig::default());
        hub.open("s1", "app", "haswell", 4).unwrap();
        hub.push("s1", 1, &counts(1.0), None).unwrap();
        let status = hub.poll("s1").unwrap();
        assert_eq!(status.family, "none");
        assert_eq!(status.joules, 0.0);
        assert_eq!(status.ci95, 0.0);
    }

    #[test]
    fn list_reports_every_open_stream_sorted() {
        let hub = quiet_hub(StreamHubConfig::default());
        for id in ["z", "a", "m"] {
            hub.open(id, "app", "skylake", 4).unwrap();
        }
        let ids: Vec<String> = hub.list().into_iter().map(|s| s.stream).collect();
        assert_eq!(ids, ["a", "m", "z"]);
    }

    #[test]
    fn labelled_pushes_feed_the_calibration_tracker_out_of_sample() {
        let hub = quiet_hub(StreamHubConfig::default());
        let health = Arc::new(HealthRegistry::new(HealthConfig::default()));
        hub.set_health(Arc::clone(&health));
        hub.seed_snapshot("skylake", vec![2.0, 0.0, 0.0, 0.0], 0.5, 20);
        hub.open("s1", "app", "skylake", 16).unwrap();
        for id in 1..=6u64 {
            let c = counts(id as f64);
            // Exactly what the current snapshot predicts: every residual
            // is zero and every interval covers.
            let joules = 2.0 * c[0];
            hub.push("s1", id, &c, Some(joules)).unwrap();
        }
        let cal = health.calibration();
        assert_eq!(cal.len(), 1);
        let c = &cal[0];
        assert_eq!(c.platform, "skylake");
        assert_eq!(c.samples, 6);
        // Each labelled push re-publishes a ridge fit, which shrinks the
        // coefficients a touch — residuals stay small but not zero.
        assert!(c.mae < 0.5, "residuals vs the pre-update snapshot: {c:?}");
        assert!(c.mpe.abs() < 2.0);
        assert_eq!(c.coverage, 1.0);
        assert_eq!(c.state, HealthState::Ok);
        // The tracker reports the *latest* snapshot version it scored
        // against; labelled pushes bump it each time.
        assert!(c.version >= 1);
    }

    #[test]
    fn compound_windows_drive_the_additivity_monitor() {
        let hub = quiet_hub(StreamHubConfig::default());
        let health = Arc::new(HealthRegistry::new(HealthConfig::default()));
        hub.set_health(Arc::clone(&health));
        hub.open("a", "dgemm", "skylake", 8).unwrap();
        hub.open("b", "stream", "skylake", 8).unwrap();
        hub.open("c", "dgemm;stream", "skylake", 8).unwrap();
        // Base means: dgemm = counts(1), stream = counts(2).
        hub.push("a", 1, &counts(1.0), None).unwrap();
        hub.push("b", 1, &counts(2.0), None).unwrap();
        // A compound window equal to the sum of the bases is perfectly
        // additive; one at half the sum violates equation 1 everywhere.
        hub.push("c", 1, &counts(3.0), None).unwrap();
        hub.push("c", 2, &counts(1.5), None).unwrap();
        let rows = health.additivity();
        assert_eq!(rows.len(), 4, "one row per configured counter");
        for row in &rows {
            assert_eq!(row.platform, "skylake");
            assert_eq!(row.checks, 2);
            assert_eq!(row.violations, 1, "{row:?}");
            assert!((row.rate - 0.5).abs() < 1e-12);
            assert!((row.worst_error_pct - 50.0).abs() < 1e-9);
        }
        // Base windows never count as checks.
        hub.push("a", 2, &counts(1.0), None).unwrap();
        assert_eq!(health.additivity()[0].checks, 2);
    }

    #[test]
    fn entering_drifting_refits_the_online_model_onto_the_new_regime() {
        let (hub, seen) = recording_hub();
        let health = Arc::new(HealthRegistry::new(HealthConfig {
            min_samples: 1,
            degraded_threshold: 0.2,
            // A −60% residual scores ~0.58/step: one regime-B window
            // lands in Degraded, the next crosses into Drifting.
            drifting_threshold: 0.9,
            ..HealthConfig::default()
        }));
        hub.set_health(Arc::clone(&health));
        hub.open("s1", "app", "skylake", 64).unwrap();
        let state = || health.calibration()[0].state;
        // Push window `id` labelled y = slope·c0; returns the label.
        let label = |id: u64, slope: f64| {
            let c = counts(1.0 + (id % 8) as f64);
            hub.push("s1", id, &c, Some(slope * c[0])).unwrap();
            slope * c[0]
        };
        // Regime A: 300 windows of y = 2·c0 — enough history that a model
        // summing every row would take hundreds of windows to follow a
        // shift.
        for id in 1..=300 {
            label(id, 2.0);
        }
        assert_eq!(health.transitions(), 0, "converged model stays Ok");
        assert_eq!(seen.lock().unwrap().len(), 1, "the 256th label published");
        // Regime B: y = 5·c0. Ok → Degraded → Drifting in two windows.
        label(301, 5.0);
        label(302, 5.0);
        assert_eq!(state(), HealthState::Drifting);
        assert_eq!(hub.drift_refits(), 1);
        {
            let seen = seen.lock().unwrap();
            let (platform, published) = seen.last().unwrap();
            assert_eq!(platform, "skylake");
            assert_eq!(*published, *hub.snapshot("skylake").unwrap());
            // Refit on the newest 8 buffered windows plus this one, not
            // on all 302 rows.
            assert_eq!(published.training_rows, 9);
        }
        // The refit model starts from the 8-window floor (seven of them
        // regime A) and keeps learning: POLL serves the new regime to
        // within 5% 73 windows after the transition, inside the 80 this
        // test allows. A model summing all 300 regime-A rows is still
        // ~45% low 100 windows in.
        let tracked = (303..=382)
            .find(|&id| {
                let truth = label(id, 5.0);
                (hub.poll("s1").unwrap().joules - truth).abs() <= 0.05 * truth
            })
            .expect("POLL within 5% of the new regime 80 windows after drifting");
        // HEALTH is not reset by the refit: the CUSUM built up while the
        // model caught up decays by the drift tolerance per well-predicted
        // window, so the state walks back to ok 1143 windows after the
        // transition.
        let back_to_ok = (tracked + 1..=2_302).find(|&id| {
            label(id, 5.0);
            state() == HealthState::Ok
        });
        assert!(
            back_to_ok.is_some_and(|id| (1_000..=1_300).contains(&(id - 302))),
            "HEALTH back to ok at window {back_to_ok:?}"
        );
        assert_eq!(hub.drift_refits(), 1, "one refit per entry into drifting");
    }

    #[test]
    fn a_disabled_health_registry_is_inert() {
        let hub = quiet_hub(StreamHubConfig::default());
        let health = Arc::new(HealthRegistry::disabled());
        hub.set_health(Arc::clone(&health));
        hub.open("a", "dgemm", "skylake", 8).unwrap();
        hub.open("c", "dgemm;dgemm", "skylake", 8).unwrap();
        for id in 1..=4u64 {
            let c = counts(id as f64);
            hub.push("a", id, &c, Some(2.0 * c[0])).unwrap();
            hub.push("c", id, &c, None).unwrap();
        }
        assert!(health.calibration().is_empty());
        assert!(health.additivity().is_empty());
    }

    #[test]
    fn dropping_a_hub_returns_its_open_streams_gauge_share() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("pmca_stream_open_streams", &[]);
        let survivor = StreamHub::with_registry(StreamHubConfig::default(), &registry);
        survivor.open("keep", "app", "skylake", 4).unwrap();
        {
            let replaced = StreamHub::with_registry(StreamHubConfig::default(), &registry);
            replaced.open("x", "app", "skylake", 4).unwrap();
            replaced.open("y", "app", "skylake", 4).unwrap();
            assert_eq!(gauge.get(), 3.0);
        }
        // The dropped hub gave back exactly its own share.
        assert_eq!(gauge.get(), 1.0);
    }
}
