//! The energy estimation service: registry + engine + run cache + the
//! simulated platforms, behind one façade both the TCP server and
//! in-process callers (examples, benches) use.
//!
//! The service owns one simulated [`Machine`] per platform for app-level
//! collection, a [`ModelStore`] of trained models, an [`InferenceEngine`]
//! answering on the calling thread, and a [`RunCache`] memoising
//! collection runs. Every estimate, on either tier, goes through one
//! core, [`EnergyService::estimate_many_ref`]. Training
//! happens through the paper's online-model path ([`OnlineModel`]), so
//! every served model is single-run deployable.

use crate::cache::{RunCache, RunKey};
use crate::engine::{EngineError, Estimate, InferenceEngine, Row};
use crate::protocol::{Tier, TraceScope};
use crate::registry::{self, RegistryError, StoredModel};
use crate::store::{snapshot_from_dir, FileStore, MemoryStore, ModelStore};
use pmca_core::online::OnlineModel;
use pmca_cpusim::{Machine, PlatformSpec};
use pmca_mlkit::export::ModelParams;
use pmca_obs::trace::{self, ActiveTrace};
use pmca_obs::{
    AdditivitySnapshot, CalibrationSnapshot, Counter, HealthConfig, HealthRegistry, Histogram,
    HistoryRing, HistorySnapshot, MetricsRegistry, Span, Trace, Tracer, TracerConfig,
};
use pmca_pmctools::collector::collect_all;
use pmca_powermeter::{HclWattsUp, Methodology};
use pmca_stream::{
    ModelSnapshot, PushReply, StreamError, StreamHub, StreamHubConfig, StreamStatus,
};
use pmca_workloads::parse::app_from_spec;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

/// Which connection transport the TCP front end runs (see
/// [`crate::server::Server`]): the A/B switch between the original
/// thread-per-connection model and the nonblocking event loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One handler thread per connection (the original model).
    #[default]
    Threaded,
    /// Nonblocking sockets swept by a fixed set of event-loop threads —
    /// the shape that survives many mostly-idle connections.
    Evented,
}

impl Transport {
    /// Stable lower-case name (`"threaded"` / `"evented"`), used in CLI
    /// flags, logs, and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Threaded => "threaded",
            Transport::Evented => "evented",
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("threaded") {
            Ok(Transport::Threaded)
        } else if s.eq_ignore_ascii_case("evented") {
            Ok(Transport::Evented)
        } else {
            Err(format!(
                "unknown transport {s:?} (expected threaded or evented)"
            ))
        }
    }
}

/// Service-level failures, each mapping to one `ERR` protocol reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The platform name is not simulated here.
    UnknownPlatform(String),
    /// No registered model matches the request.
    NoModel(String),
    /// Training failed.
    Train(String),
    /// The request itself was malformed.
    BadRequest(String),
    /// PMC collection failed.
    Collect(String),
    /// The inference engine rejected the request.
    Engine(EngineError),
    /// The stream hub rejected the request.
    Stream(StreamError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownPlatform(name) => {
                write!(f, "unknown platform {name:?} (expected haswell or skylake)")
            }
            ServiceError::NoModel(detail) => write!(f, "no model: {detail}"),
            ServiceError::Train(detail) => write!(f, "training failed: {detail}"),
            ServiceError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ServiceError::Collect(detail) => write!(f, "collection failed: {detail}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::Stream(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<StreamError> for ServiceError {
    fn from(e: StreamError) -> Self {
        ServiceError::Stream(e)
    }
}

impl ServiceError {
    /// Stable label this error carries in `pmca_serve_errors_total{kind=...}`.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::UnknownPlatform(_) => "unknown-platform",
            ServiceError::NoModel(_) => "no-model",
            ServiceError::Train(_) => "train",
            ServiceError::BadRequest(_) => "bad-request",
            ServiceError::Collect(_) => "collect",
            ServiceError::Engine(_) => "engine",
            ServiceError::Stream(_) => "stream",
        }
    }
}

/// One estimate request of a batch (see
/// [`EnergyService::estimate_many_ref`]), borrowing its names — the TCP
/// server builds it straight from the parsed request line, so the
/// serving hot path never owns a platform, app, or PMC-name `String`.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchRequestRef<'a> {
    /// Counter-level: named PMC counts borrowed from the request line.
    Counts {
        /// Target platform.
        platform: &'a str,
        /// `(pmc name, count)` pairs.
        counts: Vec<(&'a str, f64)>,
        /// Which inference tier the request asked for.
        tier: Tier,
    },
    /// App-level: a workload spec collected via the run cache.
    App {
        /// Target platform.
        platform: &'a str,
        /// Workload spec (e.g. `dgemm:12000`).
        app: &'a str,
        /// Which inference tier the request asked for.
        tier: Tier,
    },
}

impl BatchRequestRef<'_> {
    /// The tier this request asked for.
    pub fn tier(&self) -> Tier {
        match self {
            BatchRequestRef::Counts { tier, .. } | BatchRequestRef::App { tier, .. } => *tier,
        }
    }
}

/// The rows of one estimate batch that one model version answers on one
/// tier, with each row's position in the batch.
struct RowGroup {
    model: Arc<StoredModel>,
    tier: Tier,
    positions: Vec<usize>,
    rows: Vec<Row>,
}

/// Counters reported by the STATS command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Estimates answered successfully.
    pub served: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Run-cache hits.
    pub cache_hits: u64,
    /// Run-cache misses.
    pub cache_misses: u64,
    /// Run-cache entries evicted to stay within capacity.
    pub cache_evictions: u64,
    /// Runs currently cached.
    pub cache_entries: usize,
    /// Model versions registered.
    pub models: usize,
    /// Telemetry streams currently open.
    pub streams: usize,
    /// Stream-learned online models published into the store, on the
    /// labelled-window cadence or on entering drifting.
    pub stream_refits: u64,
    /// The subset of `stream_refits` made on entering drifting.
    pub stream_drift_refits: u64,
}

/// Configuration for an [`EnergyService`].
///
/// # Examples
///
/// ```no_run
/// use pmca_serve::ServiceConfig;
///
/// let service = ServiceConfig::default()
///     .cache_capacity(512)
///     .seed(42)
///     .metrics(true)
///     .build()
///     .expect("service");
/// assert_eq!(service.stats().models, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    cache_capacity: usize,
    seed: u64,
    registry_dir: Option<PathBuf>,
    metrics: bool,
    tracing: bool,
    trace_capacity: usize,
    trace_slow_ms: Option<u64>,
    trace_log: Option<PathBuf>,
    streams: bool,
    stream_idle_ttl_secs: u64,
    transport: Transport,
    event_loops: usize,
    health: bool,
    history_capacity: usize,
}

impl Default for ServiceConfig {
    /// A 256-run cache, seed 1, no registry directory, metrics exported
    /// to the process-global registry, tracing on with a 64-trace flight
    /// recorder (no slow threshold, no JSONL sink), streaming enabled
    /// with a 5-minute idle TTL, threaded transport (with 4 event loops
    /// once switched to [`Transport::Evented`]), and the model-health
    /// plane on with a 32-snapshot metrics history.
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 256,
            seed: 1,
            registry_dir: None,
            metrics: true,
            tracing: true,
            trace_capacity: 64,
            trace_slow_ms: None,
            trace_log: None,
            streams: true,
            stream_idle_ttl_secs: 300,
            transport: Transport::Threaded,
            event_loops: 4,
            health: true,
            history_capacity: 32,
        }
    }
}

impl ServiceConfig {
    /// Run-cache capacity in entries (≥ 1; default 256).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Seed of the simulated platforms (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Load a persisted model registry from `dir` at build time. The
    /// directory does not need to exist (an absent one loads empty).
    pub fn registry_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.registry_dir = Some(dir.into());
        self
    }

    /// Whether the service records into the process-global metrics
    /// registry (default `true`). With `false` every instrument the
    /// service owns is disabled — spans never read the clock.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Whether the service traces requests (default `true`). With
    /// `false` the tracer never starts a trace, so every trace span on
    /// the request path collapses to one thread-local check — zero
    /// clock reads, mirroring [`ServiceConfig::metrics`]`(false)`.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Capacity of the flight recorder holding the most recent
    /// completed request traces (default 64).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Latency threshold in milliseconds above which a request's full
    /// trace is retained in the slow-trace ring (default: none).
    pub fn trace_slow_ms(mut self, threshold_ms: u64) -> Self {
        self.trace_slow_ms = Some(threshold_ms);
        self
    }

    /// Append completed traces as JSONL to this file: every trace when
    /// no slow threshold is set, only slow traces otherwise.
    pub fn trace_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_log = Some(path.into());
        self
    }

    /// Whether the service accepts telemetry streams (default `true`).
    /// With `false` every `STREAM` command answers an error.
    pub fn streams(mut self, enabled: bool) -> Self {
        self.streams = enabled;
        self
    }

    /// Seconds a stream may sit idle before eviction (default 300).
    pub fn stream_idle_ttl_secs(mut self, secs: u64) -> Self {
        self.stream_idle_ttl_secs = secs;
        self
    }

    /// Which connection transport the TCP server runs (default
    /// [`Transport::Threaded`]). [`Transport::Evented`] switches
    /// [`crate::server::Server`] to nonblocking sockets swept by
    /// [`event_loops`](ServiceConfig::event_loops) event-loop threads.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Event-loop threads for [`Transport::Evented`] (≥ 1; default 4).
    /// Ignored by the threaded transport.
    pub fn event_loops(mut self, loops: usize) -> Self {
        self.event_loops = loops.max(1);
        self
    }

    /// Whether the model-health plane is live (default `true`):
    /// calibration trackers fed by labelled stream windows and TRAIN
    /// holdouts, drift detection, and the additivity monitor. With
    /// `false` every health structure is inert — no locks, no clock
    /// reads — and `HEALTH` answers an empty listing.
    pub fn health(mut self, enabled: bool) -> Self {
        self.health = enabled;
        self
    }

    /// Snapshot capacity of the metrics history ring behind `HISTORY`
    /// (min 2; default 32).
    pub fn history_capacity(mut self, capacity: usize) -> Self {
        self.history_capacity = capacity;
        self
    }

    /// Build the service.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when a configured registry directory
    /// exists but fails to load, or when the trace JSONL sink cannot be
    /// opened.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn build(self) -> Result<EnergyService, RegistryError> {
        let metrics_registry = if self.metrics {
            Arc::clone(MetricsRegistry::global())
        } else {
            Arc::new(MetricsRegistry::disabled())
        };
        self.build_with_registry(metrics_registry)
    }

    /// [`build`](ServiceConfig::build) against an explicit metrics
    /// registry instead of the global/disabled pair — lets tests assert
    /// exact instrument values without cross-test interference.
    pub(crate) fn build_with_registry(
        self,
        metrics_registry: Arc<MetricsRegistry>,
    ) -> Result<EnergyService, RegistryError> {
        let tracer = if self.tracing {
            let mut config = TracerConfig::new().capacity(self.trace_capacity);
            if let Some(threshold_ms) = self.trace_slow_ms {
                config = config.slow_threshold(Duration::from_millis(threshold_ms));
            }
            if let Some(path) = &self.trace_log {
                config = config.log_path(path.clone());
            }
            config.build()?
        } else {
            Tracer::disabled()
        };
        let tracer = Arc::new(tracer);
        // The storage layer behind the registry API: file-backed (loads
        // the directory now, writes every put through) when a registry
        // directory is configured, an in-memory replica otherwise.
        let store: Arc<dyn ModelStore> = match &self.registry_dir {
            Some(dir) => Arc::new(FileStore::open(dir, &metrics_registry)?),
            None => Arc::new(MemoryStore::with_metrics(&metrics_registry)),
        };
        // Per-service health registry: the metrics registry may be the
        // process-wide one, health trackers never are.
        let health = if self.health {
            Arc::new(HealthRegistry::new(HealthConfig::default()))
        } else {
            Arc::new(HealthRegistry::disabled())
        };
        let streams = if self.streams {
            let hub_config =
                StreamHubConfig::default().idle_ttl(Duration::from_secs(self.stream_idle_ttl_secs));
            let hub = Arc::new(StreamHub::with_registry(hub_config, &metrics_registry));
            hub.set_health(Arc::clone(&health));
            // The hub's online model goes through the same versioned
            // store as TRAIN, so ESTIMATE answers from stream-learned
            // coefficients too.
            let store = Arc::clone(&store);
            let feature_order = hub.config().feature_order().to_vec();
            hub.set_publish(Arc::new(move |platform: &str, snapshot: &ModelSnapshot| {
                store.put(
                    platform,
                    "online",
                    feature_order.clone(),
                    snapshot.residual_std,
                    snapshot.training_rows,
                    ModelParams::Linear {
                        coefficients: snapshot.coefficients.clone(),
                        intercept: 0.0,
                    },
                );
            }));
            hub.set_tracer(Arc::clone(&tracer));
            Some(hub)
        } else {
            None
        };
        Ok(EnergyService {
            store,
            engine: InferenceEngine::with_registry(&metrics_registry),
            cache: RunCache::with_registry(self.cache_capacity, &metrics_registry),
            machines: Mutex::new(HashMap::new()),
            seed: self.seed,
            metrics: ServeMetrics::from_registry(&metrics_registry),
            metrics_registry,
            tracer,
            streams,
            transport: self.transport,
            event_loops: self.event_loops,
            health,
            history: HistoryRing::new(self.history_capacity),
        })
    }
}

/// Service-level instruments: training latency and errors by kind.
#[derive(Debug)]
struct ServeMetrics {
    train_seconds: Histogram,
    err_unknown_platform: Counter,
    err_no_model: Counter,
    err_train: Counter,
    err_bad_request: Counter,
    err_collect: Counter,
    err_engine: Counter,
    err_stream: Counter,
}

impl ServeMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        let err = |kind: &str| registry.counter("pmca_serve_errors_total", &[("kind", kind)]);
        ServeMetrics {
            train_seconds: registry.histogram("pmca_serve_train_seconds", &[]),
            err_unknown_platform: err("unknown-platform"),
            err_no_model: err("no-model"),
            err_train: err("train"),
            err_bad_request: err("bad-request"),
            err_collect: err("collect"),
            err_engine: err("engine"),
            err_stream: err("stream"),
        }
    }

    fn record_error(&self, error: &ServiceError) {
        match error {
            ServiceError::UnknownPlatform(_) => self.err_unknown_platform.inc(),
            ServiceError::NoModel(_) => self.err_no_model.inc(),
            ServiceError::Train(_) => self.err_train.inc(),
            ServiceError::BadRequest(_) => self.err_bad_request.inc(),
            ServiceError::Collect(_) => self.err_collect.inc(),
            ServiceError::Engine(_) => self.err_engine.inc(),
            ServiceError::Stream(_) => self.err_stream.inc(),
        }
    }
}

/// The serving façade. Thread-safe: the TCP server shares one instance
/// across connection handler threads via `Arc`.
#[derive(Debug)]
pub struct EnergyService {
    store: Arc<dyn ModelStore>,
    engine: InferenceEngine,
    cache: RunCache,
    machines: Mutex<HashMap<String, Machine>>,
    seed: u64,
    metrics: ServeMetrics,
    metrics_registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    /// Telemetry-stream hub, `None` when streaming is disabled. Its
    /// online models land in `store` via the publish hook installed at
    /// build time.
    streams: Option<Arc<StreamHub>>,
    transport: Transport,
    event_loops: usize,
    /// Model-health plane: calibration/drift trackers and the
    /// additivity monitor, fed by labelled stream windows (via the hub)
    /// and TRAIN-time holdout residuals. Inert when built with
    /// [`ServiceConfig::health`]`(false)`.
    health: Arc<HealthRegistry>,
    /// Windowed metrics time series behind `HISTORY`, demand-sampled on
    /// each `HEALTH`/`HISTORY` request — no background clock ticks.
    history: HistoryRing,
}

impl EnergyService {
    fn platform_spec(name: &str) -> Result<PlatformSpec, ServiceError> {
        match name.to_ascii_lowercase().as_str() {
            "haswell" => Ok(PlatformSpec::intel_haswell()),
            "skylake" => Ok(PlatformSpec::intel_skylake()),
            other => Err(ServiceError::UnknownPlatform(other.to_string())),
        }
    }

    /// Run `f` with this platform's machine (created on first use).
    fn with_machine<T>(
        &self,
        platform: &str,
        f: impl FnOnce(&mut Machine) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let spec = Self::platform_spec(platform)?;
        let mut machines = self.machines.lock().expect("machine table poisoned");
        let machine = machines
            .entry(platform.to_ascii_lowercase())
            .or_insert_with(|| Machine::new(spec, self.seed));
        f(machine)
    }

    /// Train an online model on `platform` from workload specs (e.g.
    /// `["dgemm:9000", "fft:23000", ...]`) and register it. Returns the
    /// stored entry (family `"online"`).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the platform, PMC set, or workload
    /// specs are invalid, or training fails.
    pub fn train_online(
        &self,
        platform: &str,
        pmc_names: &[String],
        app_specs: &[String],
    ) -> Result<Arc<StoredModel>, ServiceError> {
        let trace = self.tracer.start("train", &[("platform", platform)]);
        let result = {
            let _scope = trace::scope(trace.as_ref());
            let _span = Span::enter(&self.metrics.train_seconds);
            self.train_online_inner(platform, pmc_names, app_specs)
                .inspect_err(|e| self.note_error(e, trace.as_ref()))
        };
        if let Some(trace) = &trace {
            self.tracer.finish(trace);
        }
        result
    }

    /// Count an error and, when the request is traced, mark its kind as
    /// an `error` instant so the failure shows up in the dumped trace.
    fn note_error(&self, error: &ServiceError, trace: Option<&ActiveTrace>) {
        self.metrics.record_error(error);
        if let Some(trace) = trace {
            trace.instant("error", &[("kind", error.kind())]);
        }
    }

    fn train_online_inner(
        &self,
        platform: &str,
        pmc_names: &[String],
        app_specs: &[String],
    ) -> Result<Arc<StoredModel>, ServiceError> {
        if app_specs.is_empty() {
            return Err(ServiceError::BadRequest(
                "no training workloads given".to_string(),
            ));
        }
        let apps = app_specs
            .iter()
            .map(|spec| app_from_spec(spec).map_err(|e| ServiceError::BadRequest(e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;
        let names: Vec<&str> = pmc_names.iter().map(String::as_str).collect();
        let (spec, fit) = self.with_machine(platform, |machine| {
            let mut meter = HclWattsUp::with_methodology(machine, self.seed, Methodology::quick());
            let refs: Vec<&dyn pmca_cpusim::app::Application> =
                apps.iter().map(|a| a.as_ref()).collect();
            let model = OnlineModel::train(machine, &mut meter, &names, &refs)
                .map_err(|e| ServiceError::Train(e.to_string()))?;
            Ok((model.to_spec(), model.training_fit().to_vec()))
        })?;
        let stored = self.store.put(
            platform,
            "online",
            spec.pmc_names.clone(),
            spec.residual_std,
            spec.training_rows,
            ModelParams::Linear {
                coefficients: spec.coefficients.clone(),
                intercept: 0.0,
            },
        );
        // TRAIN-time holdout: seed the calibration tracker with the
        // model's own (predicted, measured) training pairs against its
        // 95% interval, so HEALTH reports coverage before any labelled
        // stream window arrives. In-sample residuals are systematic,
        // so they go in as baseline pairs that never feed the drift
        // detectors — only live labelled windows can move the state.
        if self.health.is_enabled() {
            let half_width = crate::engine::prediction_half_width(&stored);
            for (predicted, measured) in fit {
                self.health.observe_baseline(
                    platform,
                    u64::from(stored.version),
                    predicted,
                    half_width,
                    measured,
                );
            }
        }
        Ok(stored)
    }

    /// Register an externally trained model (any family).
    pub fn register(
        &self,
        platform: &str,
        family: &str,
        feature_order: Vec<String>,
        residual_std: f64,
        training_rows: usize,
        params: ModelParams,
    ) -> Arc<StoredModel> {
        self.store.put(
            platform,
            family,
            feature_order,
            residual_std,
            training_rows,
            params,
        )
    }

    /// The storage layer behind this service's registry API — the
    /// handle a snapshot is taken from and restored into.
    pub fn store(&self) -> &Arc<dyn ModelStore> {
        &self.store
    }

    /// The connection transport this service was configured for.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Event-loop threads the evented transport runs with.
    pub fn event_loops(&self) -> usize {
        self.event_loops
    }

    /// Estimate from named PMC counts on the f64 tier — a one-request
    /// [`estimate_many_ref`](EnergyService::estimate_many_ref). The
    /// counter set must exactly match a registered model's set
    /// (order-insensitive); counts are reordered to the model's feature
    /// order before inference.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when no model matches or the engine
    /// rejects the request.
    pub fn estimate(
        &self,
        platform: &str,
        counts: &[(String, f64)],
    ) -> Result<Estimate, ServiceError> {
        let counts = counts.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        self.estimate_one(BatchRequestRef::Counts {
            platform,
            counts,
            tier: Tier::F64,
        })
    }

    /// Resolve a counter-level request to its model and feature-ordered
    /// counts, without running inference. No PMC-name `String` is ever
    /// built, only the final feature-ordered `Vec<f64>` for the engine.
    fn resolve_counts(
        &self,
        platform: &str,
        counts: &[(&str, f64)],
    ) -> Result<(Arc<StoredModel>, Vec<f64>), ServiceError> {
        Self::platform_spec(platform)?;
        if counts.is_empty() {
            return Err(ServiceError::BadRequest("no PMC counts given".to_string()));
        }
        let model = {
            // Borrowed-name views, allocated per request but holding only
            // pointers — the old path cloned every name `String`.
            let names: Vec<&str> = counts.iter().map(|(n, _)| *n).collect();
            self.store.lookup_names(platform, &names).ok_or_else(|| {
                ServiceError::NoModel(format!(
                    "no model on {platform} for PMC set {}",
                    names.join(",")
                ))
            })?
        };
        // Counter sets are ≤ a handful of entries: linear scans beat a
        // per-request hash map on the serving hot path.
        if counts
            .iter()
            .enumerate()
            .any(|(i, (n, _))| counts[..i].iter().any(|(m, _)| m == n))
        {
            return Err(ServiceError::BadRequest("duplicate PMC name".to_string()));
        }
        let ordered: Vec<f64> = model
            .feature_order
            .iter()
            .map(|name| {
                counts
                    .iter()
                    .find(|(n, _)| *n == name.as_str())
                    .map(|(_, v)| *v)
            })
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| ServiceError::BadRequest("PMC set mismatch".to_string()))?;
        Ok((model, ordered))
    }

    /// Estimate a whole application's dynamic energy on the f64 tier — a
    /// one-request [`estimate_many_ref`](EnergyService::estimate_many_ref):
    /// collect its PMCs on the simulated platform (memoised in the run
    /// cache), then run the latest online model for that platform over
    /// the counts.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the platform or workload spec is
    /// invalid or no online model is registered for the platform.
    pub fn estimate_app(&self, platform: &str, app_spec: &str) -> Result<Estimate, ServiceError> {
        self.estimate_one(BatchRequestRef::App {
            platform,
            app: app_spec,
            tier: Tier::F64,
        })
    }

    /// Resolve an app-level request to its model and collected (cached)
    /// counts, without running inference.
    fn resolve_app(
        &self,
        platform: &str,
        app_spec: &str,
    ) -> Result<(Arc<StoredModel>, Vec<f64>), ServiceError> {
        let model = self
            .store
            .latest_of_family(platform, "online")
            .ok_or_else(|| {
                ServiceError::NoModel(format!("no online model trained for {platform}"))
            })?;
        let key = RunKey {
            app: app_spec.to_string(),
            platform: platform.to_ascii_lowercase(),
            seed: self.seed,
            events: model.shared_events(),
        };
        let counts = self.cache.get_or_compute(&key, || {
            let app =
                app_from_spec(app_spec).map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            self.with_machine(platform, |machine| {
                let names: Vec<&str> = model.feature_order.iter().map(String::as_str).collect();
                let events = machine
                    .catalog()
                    .ids(&names)
                    .map_err(|name| ServiceError::Collect(format!("unknown event {name}")))?;
                let pmcs = collect_all(machine, app.as_ref(), &events)
                    .map_err(|e| ServiceError::Collect(e.to_string()))?;
                Ok(pmcs.in_order(&events))
            })
        })?;
        Ok((model, counts.to_vec()))
    }

    /// Answer a batch of estimate requests in request order — the one
    /// service core every ESTIMATE and ESTIMATE-APP goes through, with
    /// names still borrowing the request lines. Requests are resolved,
    /// grouped by the model and tier that will answer them, and each
    /// group is evaluated by the engine core on the calling thread.
    pub fn estimate_many_ref(
        &self,
        requests: &[BatchRequestRef<'_>],
    ) -> Vec<Result<Estimate, ServiceError>> {
        // Every request in the batch gets its *own* trace — a pipelined
        // batch interleaves independent requests, so the thread-local
        // current trace would misattribute them. Resolution runs under
        // each request's scope; the engine rows carry their trace
        // explicitly.
        let traces: Vec<Option<ActiveTrace>> = requests
            .iter()
            .map(|request| match request {
                BatchRequestRef::Counts { platform, .. } => {
                    self.tracer.start("estimate", &[("platform", platform)])
                }
                BatchRequestRef::App { platform, app, .. } => self
                    .tracer
                    .start("estimate-app", &[("platform", platform), ("app", app)]),
            })
            .collect();
        let mut out: Vec<Option<Result<Estimate, ServiceError>>> = vec![None; requests.len()];
        // Groups are keyed by (model, tier): a mixed batch costs one
        // engine call per distinct model per tier, and each tier keeps
        // its own kernel.
        let mut groups: Vec<RowGroup> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let resolved = {
                let _scope = trace::scope(traces[i].as_ref());
                match request {
                    BatchRequestRef::Counts {
                        platform, counts, ..
                    } => self.resolve_counts(platform, counts),
                    BatchRequestRef::App { platform, app, .. } => self.resolve_app(platform, app),
                }
            };
            let (model, counts) = match resolved {
                Ok(pair) => pair,
                Err(e) => {
                    out[i] = Some(Err(e));
                    continue;
                }
            };
            let tier = request.tier();
            let row = (counts, traces[i].clone());
            match groups
                .iter_mut()
                .find(|g| Arc::ptr_eq(&g.model, &model) && g.tier == tier)
            {
                Some(group) => {
                    group.positions.push(i);
                    group.rows.push(row);
                }
                None => groups.push(RowGroup {
                    model,
                    tier,
                    positions: vec![i],
                    rows: vec![row],
                }),
            }
        }
        for group in groups {
            let answers = self
                .engine
                .estimate_rows(&group.model, group.tier, &group.rows);
            for (i, answer) in group.positions.into_iter().zip(answers) {
                out[i] = Some(answer.map_err(ServiceError::Engine));
            }
        }
        let results: Vec<Result<Estimate, ServiceError>> = out
            .into_iter()
            .zip(&traces)
            .map(|(slot, trace)| {
                slot.expect("every request is resolved or answered")
                    .inspect_err(|e| self.note_error(e, trace.as_ref()))
            })
            .collect();
        for trace in traces.iter().flatten() {
            self.tracer.finish(trace);
        }
        results
    }

    /// [`estimate_many_ref`](EnergyService::estimate_many_ref) for one
    /// request.
    fn estimate_one(&self, request: BatchRequestRef<'_>) -> Result<Estimate, ServiceError> {
        let mut answers = self.estimate_many_ref(&[request]);
        answers.pop().expect("one answer per request")
    }

    /// Render the service's metrics registry as Prometheus-style
    /// exposition lines — the body of the METRICS reply. Empty only for a
    /// service built with [`ServiceConfig::metrics`]`(false)` before any
    /// instrument registered.
    pub fn metrics_lines(&self) -> Vec<String> {
        self.metrics_registry.render()
    }

    /// Whether this service's instruments are live (built with metrics on).
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_registry.is_enabled()
    }

    /// The tracer this service's requests record into (disabled for a
    /// service built with [`ServiceConfig::tracing`]`(false)`). The TCP
    /// server uses it for connection ids.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Render retained traces as JSONL — the body of the TRACE reply.
    /// `limit` caps how many traces (not lines) are dumped, keeping the
    /// **newest**; `None` dumps everything retained in `scope`.
    pub fn trace_lines(&self, scope: TraceScope, limit: Option<usize>) -> Vec<String> {
        let traces: Vec<Arc<Trace>> = match scope {
            TraceScope::Recent => self.tracer.recent(),
            TraceScope::Slow => self.tracer.slow(),
            TraceScope::Slowest => self.tracer.slowest().into_iter().collect(),
        };
        let skip = limit.map_or(0, |limit| traces.len().saturating_sub(limit));
        traces
            .iter()
            .skip(skip)
            .flat_map(|trace| trace.to_jsonl())
            .collect()
    }

    /// The metrics registry this service records into (global, or a
    /// disabled local one for metrics-off services).
    pub(crate) fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics_registry
    }

    /// This service's model-health registry (inert when built with
    /// [`ServiceConfig::health`]`(false)`).
    pub fn health(&self) -> &Arc<HealthRegistry> {
        &self.health
    }

    /// Calibration rows for the HEALTH listing, sorted by platform.
    pub fn health_calibration(&self) -> Vec<CalibrationSnapshot> {
        self.health.calibration()
    }

    /// Additivity rows for the HEALTH listing, sorted by
    /// `(platform, counter)`.
    pub fn health_additivity(&self) -> Vec<AdditivitySnapshot> {
        self.health.additivity()
    }

    /// Record one metrics snapshot into the history ring (the dispatcher
    /// calls this on every `HEALTH`/`HISTORY` request, so history cadence
    /// follows observation cadence — no background ticker, no clock
    /// reads); returns the snapshot's sequence number.
    pub fn record_history(&self) -> u64 {
        self.history.record(&self.metrics_registry.sample())
    }

    /// The newest `limit` history snapshots, oldest first.
    pub fn history_snapshots(&self, limit: usize) -> Vec<HistorySnapshot> {
        self.history.snapshots(limit)
    }

    /// Snapshot capacity of the history ring.
    pub fn history_capacity(&self) -> usize {
        self.history.capacity()
    }

    /// One describing line per registered model version.
    pub fn model_lines(&self) -> Vec<String> {
        self.store
            .list()
            .iter()
            .map(|m| {
                format!(
                    "{} {} v{} rows={} residual-std={:.6} pmcs={}",
                    m.key.platform,
                    m.key.family,
                    m.version,
                    m.training_rows,
                    m.residual_std,
                    m.feature_order.join(",")
                )
            })
            .collect()
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStats {
        let models = self.store.len();
        ServiceStats {
            served: self.engine.served(),
            errors: self.engine.errors(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            cache_entries: self.cache.len(),
            models,
            streams: self.streams.as_ref().map_or(0, |hub| hub.open_streams()),
            stream_refits: self.streams.as_ref().map_or(0, |hub| hub.publications()),
            stream_drift_refits: self.streams.as_ref().map_or(0, |hub| hub.drift_refits()),
        }
    }

    /// The stream hub, when streaming is enabled.
    fn hub(&self) -> Result<&Arc<StreamHub>, ServiceError> {
        self.streams.as_ref().ok_or_else(|| {
            ServiceError::BadRequest("streaming is disabled on this server".to_string())
        })
    }

    /// The stream hub, for callers (benches, tests) that need direct
    /// access; `None` when streaming is disabled.
    pub fn stream_hub(&self) -> Option<&Arc<StreamHub>> {
        self.streams.as_ref()
    }

    /// Open a telemetry stream for `app` on `platform` with a sliding
    /// ring of `window` windows; returns the clamped ring capacity.
    ///
    /// If the registry already holds an `online` model for the platform
    /// whose feature set matches the hub's deployable PMC set, the hub is
    /// seeded with its coefficients so unlabelled streams estimate from
    /// the first window.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for an unknown platform, a duplicate
    /// stream id, or a hub at its stream limit.
    pub fn stream_open(
        &self,
        id: &str,
        app: &str,
        platform: &str,
        window: usize,
    ) -> Result<usize, ServiceError> {
        let trace = self.tracer.start("stream-open", &[("platform", platform)]);
        let result = {
            let _scope = trace::scope(trace.as_ref());
            let run = || -> Result<usize, ServiceError> {
                Self::platform_spec(platform)?;
                let hub = self.hub()?;
                self.seed_stream_snapshot(hub, platform);
                Ok(hub.open(id, app, platform, window)?)
            };
            run().inspect_err(|e| self.note_error(e, trace.as_ref()))
        };
        if let Some(trace) = &trace {
            self.tracer.finish(trace);
        }
        result
    }

    /// Seed the hub's per-platform snapshot from the newest registered
    /// `online` model whose features match the hub's PMC set (reordered
    /// to the hub's order). A mismatched or absent model seeds nothing —
    /// the stream then reports `family=none` until labelled windows
    /// arrive.
    fn seed_stream_snapshot(&self, hub: &StreamHub, platform: &str) {
        if hub.snapshot(platform).is_some() {
            return;
        }
        let stored = self.store.latest_of_family(platform, "online");
        let Some(stored) = stored else { return };
        let ModelParams::Linear { coefficients, .. } = &stored.params else {
            return;
        };
        let hub_order = hub.config().feature_order();
        if stored.feature_order.len() != hub_order.len() {
            return;
        }
        let reordered: Option<Vec<f64>> = hub_order
            .iter()
            .map(|name| {
                stored
                    .feature_order
                    .iter()
                    .position(|n| n == name)
                    .map(|i| coefficients[i])
            })
            .collect();
        if let Some(reordered) = reordered {
            hub.seed_snapshot(
                platform,
                reordered,
                stored.residual_std,
                stored.training_rows,
            );
        }
    }

    /// Push one window of PMC counts (optionally labelled with measured
    /// joules) into an open stream. Hot path: untraced, like `estimate`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for an unopened stream or a malformed
    /// sample.
    pub fn stream_push(
        &self,
        id: &str,
        window: u64,
        counts: &[f64],
        joules: Option<f64>,
    ) -> Result<PushReply, ServiceError> {
        let run = || -> Result<PushReply, ServiceError> {
            Ok(self.hub()?.push(id, window, counts, joules)?)
        };
        run().inspect_err(|e| self.note_error(e, None))
    }

    /// Current status and energy estimate for an open stream. Hot path:
    /// untraced.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for an unopened stream.
    pub fn stream_poll(&self, id: &str) -> Result<StreamStatus, ServiceError> {
        let run = || -> Result<StreamStatus, ServiceError> { Ok(self.hub()?.poll(id)?) };
        run().inspect_err(|e| self.note_error(e, None))
    }

    /// Close a stream, returning its final status.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for an unopened stream.
    pub fn stream_close(&self, id: &str) -> Result<StreamStatus, ServiceError> {
        let trace = self.tracer.start("stream-close", &[]);
        let result = {
            let _scope = trace::scope(trace.as_ref());
            let run = || -> Result<StreamStatus, ServiceError> { Ok(self.hub()?.close(id)?) };
            run().inspect_err(|e| self.note_error(e, trace.as_ref()))
        };
        if let Some(trace) = &trace {
            self.tracer.finish(trace);
        }
        result
    }

    /// Status rows for every open stream, sorted by id.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when streaming is disabled.
    pub fn stream_list(&self) -> Result<Vec<StreamStatus>, ServiceError> {
        let run = || -> Result<Vec<StreamStatus>, ServiceError> { Ok(self.hub()?.list()) };
        run().inspect_err(|e| self.note_error(e, None))
    }

    /// Persist the store's contents under `dir` (one plain-text file per
    /// version, the same format [`crate::store::FileStore`] mirrors to);
    /// returns files written.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] on filesystem failure.
    pub fn save_registry(&self, dir: &Path) -> Result<usize, RegistryError> {
        std::fs::create_dir_all(dir)?;
        let entries = self.store.list();
        for model in &entries {
            std::fs::write(
                dir.join(registry::file_name(model)),
                registry::encode_entry(model),
            )?;
        }
        Ok(entries.len())
    }

    /// Replace the store's contents with the entries saved under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] on I/O failure or a malformed entry.
    pub fn load_registry(&self, dir: &Path) -> Result<usize, RegistryError> {
        self.store.restore(&snapshot_from_dir(dir)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_SET: [&str; 4] = [
        "UOPS_EXECUTED_CORE",
        "FP_ARITH_INST_RETIRED_DOUBLE",
        "MEM_INST_RETIRED_ALL_STORES",
        "UOPS_DISPATCHED_PORT_PORT_4",
    ];

    fn good_set() -> Vec<String> {
        GOOD_SET.iter().map(|s| s.to_string()).collect()
    }

    fn ladder() -> Vec<String> {
        let mut specs = Vec::new();
        for i in 0..10 {
            specs.push(format!("dgemm:{}", 7_000 + 1_900 * i));
            specs.push(format!("fft:{}", 23_000 + 1_300 * i));
        }
        specs
    }

    fn trained_service() -> EnergyService {
        let service = ServiceConfig::default()
            .cache_capacity(64)
            .seed(42)
            .build()
            .unwrap();
        service
            .train_online("skylake", &good_set(), &ladder())
            .unwrap();
        service
    }

    #[test]
    fn train_then_estimate_round_trips() {
        let service = trained_service();
        let stored = service
            .store()
            .latest_of_family("skylake", "online")
            .unwrap();
        assert_eq!(stored.version, 1);
        assert_eq!(stored.training_rows, 20);
        // Estimate straight from counts, in shuffled name order.
        let counts: Vec<(String, f64)> = stored
            .feature_order
            .iter()
            .rev()
            .map(|n| (n.clone(), 1.0e10))
            .collect();
        let estimate = service.estimate("skylake", &counts).unwrap();
        assert!(estimate.joules.is_finite() && estimate.joules >= 0.0);
        assert!(
            estimate.ci_half_width > 0.0,
            "trained models carry an interval"
        );
        assert_eq!(estimate.family, "online");
    }

    #[test]
    fn fixed_tier_requests_stay_within_the_lowered_bound() {
        let service = trained_service();
        let stored = service
            .store()
            .latest_of_family("skylake", "online")
            .unwrap();
        let counts: Vec<(String, f64)> = stored
            .feature_order
            .iter()
            .map(|n| (n.clone(), 2.5e10))
            .collect();
        let slow = service.estimate("skylake", &counts).unwrap();
        let fast = service
            .estimate_one(BatchRequestRef::Counts {
                platform: "skylake",
                counts: counts.iter().map(|(n, v)| (n.as_str(), *v)).collect(),
                tier: Tier::Fixed,
            })
            .unwrap();
        // The bound the engine folded into the interval is exactly the
        // interval growth, and the answers agree within it.
        let bound = fast.ci_half_width - slow.ci_half_width;
        assert!(bound > 0.0, "fixed tier widens the interval");
        assert!(
            (fast.joules - slow.joules).abs() <= bound,
            "|{} - {}| > {bound}",
            fast.joules,
            slow.joules
        );
        // A mixed batch groups per tier and answers both correctly.
        let refs: Vec<(&str, f64)> = counts.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let requests = [Tier::F64, Tier::Fixed].map(|tier| BatchRequestRef::Counts {
            platform: "skylake",
            counts: refs.clone(),
            tier,
        });
        let results = service.estimate_many_ref(&requests);
        assert_eq!(results[0].as_ref().unwrap(), &slow);
        assert_eq!(results[1].as_ref().unwrap(), &fast);
    }

    #[test]
    fn estimate_app_is_cached_per_spec() {
        let service = trained_service();
        let first = service.estimate_app("skylake", "dgemm:11500").unwrap();
        let again = service.estimate_app("skylake", "dgemm:11500").unwrap();
        assert_eq!(
            first, again,
            "deterministic cached counts give identical answers"
        );
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn errors_are_specific() {
        let service = ServiceConfig::default().cache_capacity(8).build().unwrap();
        assert!(matches!(
            service.estimate("epyc", &[("X".to_string(), 1.0)]),
            Err(ServiceError::UnknownPlatform(_))
        ));
        assert!(matches!(
            service.estimate("skylake", &[("X".to_string(), 1.0)]),
            Err(ServiceError::NoModel(_))
        ));
        assert!(matches!(
            service.estimate_app("skylake", "dgemm:9000"),
            Err(ServiceError::NoModel(_))
        ));
        assert!(matches!(
            service.train_online("skylake", &good_set(), &[]),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            service.train_online("skylake", &good_set(), &["warp:9".to_string()]),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            service.train_online("skylake", &["NOT_AN_EVENT".to_string()], &ladder()),
            Err(ServiceError::Train(_))
        ));
    }

    #[test]
    fn retraining_bumps_the_version() {
        let service = trained_service();
        let second = service
            .train_online("skylake", &good_set(), &ladder())
            .unwrap();
        assert_eq!(second.version, 2);
        assert_eq!(service.stats().models, 2);
        assert_eq!(
            service
                .store()
                .latest_of_family("skylake", "online")
                .unwrap()
                .version,
            2
        );
    }

    #[test]
    fn registry_persists_through_disk() {
        let dir = std::env::temp_dir().join(format!("pmca-service-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = trained_service();
        let feature_order = service
            .store()
            .latest_of_family("skylake", "online")
            .unwrap()
            .feature_order
            .clone();
        let counts: Vec<(String, f64)> =
            feature_order.iter().map(|n| (n.clone(), 2.0e10)).collect();
        let direct = service.estimate("skylake", &counts).unwrap();
        assert_eq!(service.save_registry(&dir).unwrap(), 1);

        let revived = ServiceConfig::default()
            .cache_capacity(8)
            .seed(42)
            .registry_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(revived.stats().models, 1, "registry_dir loads at build");
        // Fixed counts give bit-identical answers (the text format round
        // trips coefficients exactly). App-level estimates on the revived
        // machine see different simulated run noise, so only the fixed
        // path is compared exactly.
        let served = revived.estimate("skylake", &counts).unwrap();
        assert_eq!(served, direct, "persisted model answers identically");
        let app = revived.estimate_app("skylake", "fft:24000").unwrap();
        assert!(app.joules.is_finite() && app.joules >= 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn requests_leave_full_traces_in_the_flight_recorder() {
        let service = trained_service();
        let _ = service.estimate_app("skylake", "dgemm:11500").unwrap();
        let _ = service.estimate_app("skylake", "dgemm:11500").unwrap();
        let recent = service.tracer().recent();
        // train + two estimate-app requests.
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].label, "train");
        let miss = &recent[1];
        let hit = &recent[2];
        let names =
            |t: &Trace| -> Vec<String> { t.events.iter().map(|e| e.name.clone()).collect() };
        // First app estimate misses the cache and fills it (one full
        // simulated collection run inside `cache.fill`).
        for stage in ["cache.lookup", "cache.fill", "engine.compute"] {
            assert!(
                names(miss).contains(&stage.to_string()),
                "{:?}",
                names(miss)
            );
        }
        assert!(names(miss).contains(&"cache.miss".to_string()));
        assert!(names(miss).contains(&"registry.lookup".to_string()));
        // Second one hits: no fill stage.
        assert!(names(hit).contains(&"cache.hit".to_string()));
        assert!(!names(hit).contains(&"cache.fill".to_string()));
        // The dump renders and parses back.
        let lines = service.trace_lines(TraceScope::Recent, Some(2));
        let parsed = Trace::parse_dump(&lines).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1], *hit.as_ref());
    }

    #[test]
    fn traced_errors_are_marked_with_their_kind() {
        let service = ServiceConfig::default().cache_capacity(8).build().unwrap();
        let _ = service.estimate("epyc", &[("X".to_string(), 1.0)]);
        let trace = service.tracer().slowest().expect("error request traced");
        assert!(trace.events.iter().any(|e| e.name == "error"
            && e.attrs
                .contains(&("kind".to_string(), "unknown-platform".to_string()))));
    }

    #[test]
    fn batch_requests_each_get_their_own_trace() {
        let service = trained_service();
        let requests = ["skylake", "epyc"].map(|platform| BatchRequestRef::App {
            platform,
            app: "dgemm:11500",
            tier: Tier::F64,
        });
        let results = service.estimate_many_ref(&requests);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        let recent = service.tracer().recent();
        assert_eq!(recent.len(), 3, "train + 2 batch rows");
        assert!(recent[1].events.iter().any(|e| e.name == "engine.compute"));
        assert!(recent[2].events.iter().any(|e| e.name == "error"));
    }

    #[test]
    fn tracing_off_services_retain_nothing() {
        let service = ServiceConfig::default()
            .cache_capacity(8)
            .tracing(false)
            .build()
            .unwrap();
        assert!(!service.tracer().is_enabled());
        let _ = service.estimate("skylake", &[("X".to_string(), 1.0)]);
        assert!(service.trace_lines(TraceScope::Recent, None).is_empty());
        assert!(service.trace_lines(TraceScope::Slowest, None).is_empty());
    }

    #[test]
    fn metrics_off_services_render_inert_instruments() {
        let service = ServiceConfig::default()
            .cache_capacity(8)
            .metrics(false)
            .build()
            .unwrap();
        assert!(!service.metrics_enabled());
        let _ = service.estimate("skylake", &[("X".to_string(), 1.0)]);
        // The no-model error is still counted (counters stay live; only
        // span timing is gated), but nothing leaks to the global registry.
        let lines = service.metrics_lines();
        assert!(
            lines.contains(&"pmca_serve_errors_total{kind=\"no-model\"} 1".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"pmca_serve_train_seconds_count 0".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn metrics_on_services_count_errors_by_kind() {
        let service = ServiceConfig::default().cache_capacity(8).build().unwrap();
        assert!(service.metrics_enabled());
        let _ = service.estimate("epyc", &[("X".to_string(), 1.0)]);
        let lines = service.metrics_lines();
        // Global registry: other tests may have bumped it too, so assert
        // presence rather than exact counts.
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("pmca_serve_errors_total{kind=\"unknown-platform\"} ")),
            "{lines:?}"
        );
    }

    #[test]
    fn stats_expose_cache_evictions() {
        let service = trained_service();
        // Capacity 64 won't evict here; just check the field is wired.
        let _ = service.estimate_app("skylake", "dgemm:11000").unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_evictions, 0);
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn dropping_a_service_returns_its_open_streams_gauge_share() {
        // `build()` puts every service in a process on the global
        // registry, so a dropped service's hub must hand back its share
        // of the shared gauge.
        let registry = Arc::new(MetricsRegistry::new());
        let gauge = registry.gauge("pmca_stream_open_streams", &[]);
        let build = || {
            ServiceConfig::default()
                .cache_capacity(8)
                .build_with_registry(Arc::clone(&registry))
                .unwrap()
        };
        let survivor = build();
        survivor
            .stream_open("keep", "dgemm:8000", "skylake", 8)
            .unwrap();
        {
            let dropped = build();
            dropped
                .stream_open("x", "dgemm:8000", "skylake", 8)
                .unwrap();
            dropped.stream_open("y", "fft:24000", "skylake", 8).unwrap();
            assert_eq!(gauge.get(), 3.0);
        }
        assert_eq!(gauge.get(), 1.0, "only the survivor's stream remains");
    }

    #[test]
    fn service_error_kinds_are_stable() {
        assert_eq!(ServiceError::NoModel(String::new()).kind(), "no-model");
        assert_eq!(ServiceError::Engine(EngineError::BadCount).kind(), "engine");
        assert_eq!(
            ServiceError::UnknownPlatform(String::new()).kind(),
            "unknown-platform"
        );
    }
}
