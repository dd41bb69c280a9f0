//! Model-health monitoring: calibration, drift, additivity, history.
//!
//! The serving stack's accuracy story rests on two claims that only hold
//! *at training time* unless something keeps checking them: that the
//! deployed model's errors stay small and its prediction intervals keep
//! their nominal coverage, and that the platform's PMC event set stays
//! additive under production workloads. This module is the bookkeeping
//! for both, plus a windowed snapshot ring that turns the metrics
//! registry into a short time series:
//!
//! - [`HealthRegistry`] — per-platform calibration trackers fed one
//!   `(predicted, half_width, measured)` triple per labelled window or
//!   training holdout row. Each tracker keeps rolling MAE / MPE /
//!   empirical 95%-PI coverage over a fixed window, plus two-sided CUSUM
//!   and Page–Hinkley drift scores over the relative residuals. Drift
//!   crossing the configured thresholds walks the
//!   [`HealthState`] machine `Ok → Degraded → Drifting` (and back down
//!   as the scores recover); every transition is returned to the caller
//!   so serving layers can emit flight-recorder events and refit the
//!   model on entering drifting.
//! - Per-counter **additivity-violation rates**
//!   ([`HealthRegistry::observe_additivity`]): the paper's equation-1
//!   compound-vs-sum error, checked online, folded into a violation
//!   rate per `(platform, counter)`.
//! - [`HistoryRing`] — a fixed-capacity ring of registry snapshots with
//!   per-metric deltas against the previous snapshot, the backing store
//!   of the `HISTORY` protocol verb.
//!
//! Everything here is `std`-only and never reads a clock: snapshots are
//! ordered by a sequence number, and a disabled registry answers
//! [`HealthRegistry::observe`] with a single relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Health of one platform's deployed model, worst-first ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Drift scores below every threshold.
    Ok,
    /// Drift scores past the degraded threshold: accuracy is slipping.
    Degraded,
    /// Drift scores past the drifting threshold: the model no longer
    /// matches the stream; the stream hub refits it on entry.
    Drifting,
}

impl HealthState {
    /// Wire name (`ok` / `degraded` / `drifting`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Drifting => "drifting",
        }
    }

    /// Parse a wire name back into a state.
    pub fn parse(text: &str) -> Option<HealthState> {
        match text {
            "ok" => Some(HealthState::Ok),
            "degraded" => Some(HealthState::Degraded),
            "drifting" => Some(HealthState::Drifting),
            _ => None,
        }
    }
}

/// Tuning for the calibration trackers.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Rolling-window capacity in samples for MAE/MPE/coverage.
    pub window: usize,
    /// Nominal prediction-interval coverage the empirical rate is
    /// compared against (reporting only; 0.95 by construction upstream).
    pub coverage_target: f64,
    /// Drift-detector drift magnitude tolerance on the relative
    /// residual: deviations smaller than this never accumulate.
    pub drift_tolerance: f64,
    /// Drift score past which the state is [`HealthState::Degraded`].
    pub degraded_threshold: f64,
    /// Drift score past which the state is [`HealthState::Drifting`].
    pub drifting_threshold: f64,
    /// Samples a tracker must see before it may leave
    /// [`HealthState::Ok`] — keeps a cold model from flapping.
    pub min_samples: u64,
}

impl Default for HealthConfig {
    /// 128-sample windows, 95% nominal coverage, 2% residual tolerance,
    /// degraded at a cumulative score of 1.0, drifting at 2.5, after at
    /// least 8 samples.
    fn default() -> Self {
        HealthConfig {
            window: 128,
            coverage_target: 0.95,
            drift_tolerance: 0.02,
            degraded_threshold: 1.0,
            drifting_threshold: 2.5,
            min_samples: 8,
        }
    }
}

/// A state change returned by [`HealthRegistry::observe`], for callers
/// that emit flight-recorder events or refit on entering drifting.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTransition {
    /// Platform whose tracker changed state.
    pub platform: String,
    /// Model version of the observation that caused the change.
    pub version: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// The drift score that caused the change.
    pub score: f64,
}

/// Point-in-time calibration readout for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Platform (lowercased upstream).
    pub platform: String,
    /// Model version of the most recent observation.
    pub version: u64,
    /// Lifetime observations.
    pub samples: u64,
    /// Rolling mean absolute error, joules.
    pub mae: f64,
    /// Rolling mean percentage error, percent, signed (negative means
    /// the model under-predicts).
    pub mpe: f64,
    /// Empirical prediction-interval coverage over interval-bearing
    /// samples in the window (0 when no sample carried an interval).
    pub coverage: f64,
    /// Window samples that carried a positive interval half-width.
    pub covered_samples: u64,
    /// Two-sided CUSUM score over relative residuals.
    pub cusum: f64,
    /// Two-sided Page–Hinkley score over relative residuals.
    pub page_hinkley: f64,
    /// Current health state.
    pub state: HealthState,
}

/// Point-in-time additivity readout for one `(platform, counter)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdditivitySnapshot {
    /// Platform (lowercased upstream).
    pub platform: String,
    /// PMC name.
    pub counter: String,
    /// Compound-vs-sum checks performed.
    pub checks: u64,
    /// Checks whose equation-1 error exceeded the tolerance.
    pub violations: u64,
    /// `violations / checks` (0 when no checks ran).
    pub rate: f64,
    /// Largest equation-1 error seen, percent.
    pub worst_error_pct: f64,
}

/// One calibration sample retained in the rolling window.
#[derive(Debug, Clone, Copy)]
struct WindowSample {
    abs_err: f64,
    pct_err: f64,
    /// `None` when the observation carried no interval (half-width 0).
    covered: Option<bool>,
}

/// Per-platform calibration state. All math runs under the tracker's
/// mutex; there is no clock anywhere.
#[derive(Debug)]
struct CalTracker {
    version: u64,
    samples: u64,
    /// Samples that fed the drift detectors — baseline observations
    /// (e.g. training-time holdout pairs) count toward accuracy and
    /// coverage but not toward drift evidence.
    drift_samples: u64,
    window: Vec<WindowSample>,
    next: usize,
    // Two-sided CUSUM over relative residuals.
    cusum_up: f64,
    cusum_down: f64,
    // Page–Hinkley: running mean plus cumulative deviations and their
    // extrema for the upward and downward tests.
    mean: f64,
    ph_up: f64,
    ph_up_min: f64,
    ph_down: f64,
    ph_down_max: f64,
    state: HealthState,
}

impl CalTracker {
    fn new() -> Self {
        CalTracker {
            version: 0,
            samples: 0,
            drift_samples: 0,
            window: Vec::new(),
            next: 0,
            cusum_up: 0.0,
            cusum_down: 0.0,
            mean: 0.0,
            ph_up: 0.0,
            ph_up_min: 0.0,
            ph_down: 0.0,
            ph_down_max: 0.0,
            state: HealthState::Ok,
        }
    }

    fn cusum(&self) -> f64 {
        self.cusum_up.max(self.cusum_down)
    }

    fn page_hinkley(&self) -> f64 {
        (self.ph_up - self.ph_up_min).max(self.ph_down_max - self.ph_down)
    }

    fn score(&self) -> f64 {
        self.cusum().max(self.page_hinkley())
    }

    fn observe(&mut self, config: &HealthConfig, sample: WindowSample, drift: bool) {
        self.samples += 1;
        if self.window.len() < config.window {
            self.window.push(sample);
        } else {
            self.window[self.next] = sample;
            self.next = (self.next + 1) % config.window.max(1);
        }
        if !drift {
            return;
        }
        // Drift detectors run on the relative residual so platforms with
        // very different energy scales share one set of thresholds.
        self.drift_samples += 1;
        let x = sample.pct_err / 100.0;
        let k = config.drift_tolerance;
        self.cusum_up = (self.cusum_up + x - k).max(0.0);
        self.cusum_down = (self.cusum_down - x - k).max(0.0);
        #[allow(clippy::cast_precision_loss)] // sample index, far below 2^52
        let n = self.drift_samples as f64;
        self.mean += (x - self.mean) / n;
        self.ph_up += x - self.mean - k;
        self.ph_up_min = self.ph_up_min.min(self.ph_up);
        self.ph_down += x - self.mean + k;
        self.ph_down_max = self.ph_down_max.max(self.ph_down);
    }

    fn next_state(&self, config: &HealthConfig) -> HealthState {
        if self.samples < config.min_samples {
            return HealthState::Ok;
        }
        let score = self.score();
        if score >= config.drifting_threshold {
            HealthState::Drifting
        } else if score >= config.degraded_threshold {
            HealthState::Degraded
        } else {
            HealthState::Ok
        }
    }

    fn snapshot(&self, platform: &str) -> CalibrationSnapshot {
        let mut abs_sum = 0.0;
        let mut pct_sum = 0.0;
        let mut covered = 0u64;
        let mut with_interval = 0u64;
        for sample in &self.window {
            abs_sum += sample.abs_err;
            pct_sum += sample.pct_err;
            if let Some(hit) = sample.covered {
                with_interval += 1;
                covered += u64::from(hit);
            }
        }
        #[allow(clippy::cast_precision_loss)] // window is small
        let n = self.window.len().max(1) as f64;
        #[allow(clippy::cast_precision_loss)]
        let coverage = if with_interval == 0 {
            0.0
        } else {
            covered as f64 / with_interval as f64
        };
        CalibrationSnapshot {
            platform: platform.to_string(),
            version: self.version,
            samples: self.samples,
            mae: abs_sum / n,
            mpe: pct_sum / n,
            coverage,
            covered_samples: with_interval,
            cusum: self.cusum(),
            page_hinkley: self.page_hinkley(),
            state: self.state,
        }
    }
}

/// Per-`(platform, counter)` additivity state.
#[derive(Debug, Default)]
struct AddTracker {
    checks: u64,
    violations: u64,
    worst_error_pct: f64,
}

/// Calibration, drift, and additivity bookkeeping for a set of
/// platforms. Shared as `Arc<HealthRegistry>` between a service and its
/// stream hub; a disabled registry ignores every observation after one
/// atomic load and holds no state.
#[derive(Debug)]
pub struct HealthRegistry {
    enabled: AtomicBool,
    config: HealthConfig,
    calibration: Mutex<HashMap<String, CalTracker>>,
    /// Per platform, then per counter.
    additivity: Mutex<HashMap<String, HashMap<String, AddTracker>>>,
    transitions: AtomicU64,
}

impl Default for HealthRegistry {
    fn default() -> Self {
        HealthRegistry::new(HealthConfig::default())
    }
}

impl HealthRegistry {
    /// An enabled registry with the given tuning.
    pub fn new(config: HealthConfig) -> Self {
        HealthRegistry {
            enabled: AtomicBool::new(true),
            config,
            calibration: Mutex::new(HashMap::new()),
            additivity: Mutex::new(HashMap::new()),
            transitions: AtomicU64::new(0),
        }
    }

    /// A registry that drops every observation — the opt-out path, one
    /// relaxed load per call and zero retained state.
    pub fn disabled() -> Self {
        let registry = HealthRegistry::new(HealthConfig::default());
        registry.enabled.store(false, Ordering::Relaxed);
        registry
    }

    /// Whether observations are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The tuning in force.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Health-state transitions since startup, across all platforms.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Fold one out-of-sample observation into `platform`'s tracker:
    /// `predicted ± half_width` against the `measured` label. Returns a
    /// transition when the drift scores moved the health state.
    pub fn observe(
        &self,
        platform: &str,
        version: u64,
        predicted: f64,
        half_width: f64,
        measured: f64,
    ) -> Option<HealthTransition> {
        let covered = covers(predicted, half_width, measured);
        self.fold(platform, version, predicted, covered, measured, true)
    }

    /// [`observe`](HealthRegistry::observe) for a caller that has
    /// already decided whether `measured` lies inside the prediction
    /// interval — `covered` is `Some(|predicted − measured| ≤
    /// half_width)`, or `None` when the prediction carried no interval —
    /// and so need not compute the half-width itself.
    pub fn observe_with_coverage(
        &self,
        platform: &str,
        version: u64,
        predicted: f64,
        covered: Option<bool>,
        measured: f64,
    ) -> Option<HealthTransition> {
        self.fold(platform, version, predicted, covered, measured, true)
    }

    /// Record a baseline calibration pair — typically a training-time
    /// holdout residual — that seeds the accuracy and coverage view
    /// without counting as drift evidence. In-sample fit error is
    /// systematic, so letting it feed the CUSUM/Page-Hinkley detectors
    /// would flag a freshly trained model as drifting before it served
    /// a single live window.
    pub fn observe_baseline(
        &self,
        platform: &str,
        version: u64,
        predicted: f64,
        half_width: f64,
        measured: f64,
    ) {
        let covered = covers(predicted, half_width, measured);
        self.fold(platform, version, predicted, covered, measured, false);
    }

    fn fold(
        &self,
        platform: &str,
        version: u64,
        predicted: f64,
        covered: Option<bool>,
        measured: f64,
        drift: bool,
    ) -> Option<HealthTransition> {
        if !self.is_enabled() {
            return None;
        }
        if !predicted.is_finite() || !measured.is_finite() {
            return None;
        }
        let residual = predicted - measured;
        // Percentage error against the measurement, with a floor so a
        // zero-energy label cannot blow the percentage up to infinity.
        let base = measured.abs().max(f64::MIN_POSITIVE.max(1e-12));
        let sample = WindowSample {
            abs_err: residual.abs(),
            pct_err: 100.0 * residual / base,
            covered,
        };
        let mut trackers = self.calibration.lock().expect("calibration poisoned");
        let tracker = slot(&mut trackers, platform, CalTracker::new);
        tracker.version = version;
        tracker.observe(&self.config, sample, drift);
        if !drift {
            return None;
        }
        let next = tracker.next_state(&self.config);
        if next == tracker.state {
            return None;
        }
        let from = tracker.state;
        tracker.state = next;
        self.transitions.fetch_add(1, Ordering::Relaxed);
        Some(HealthTransition {
            platform: platform.to_string(),
            version,
            from,
            to: next,
            score: tracker.score(),
        })
    }

    /// Fold one online compound-vs-sum check for `counter` on
    /// `platform`: `error_pct` is the paper's equation-1 error, a
    /// violation when it exceeds `tolerance_pct`.
    pub fn observe_additivity(
        &self,
        platform: &str,
        counter: &str,
        error_pct: f64,
        tolerance_pct: f64,
    ) {
        if !self.is_enabled() || !error_pct.is_finite() {
            return;
        }
        let mut platforms = self.additivity.lock().expect("additivity poisoned");
        let tracker = slot(
            slot(&mut platforms, platform, HashMap::new),
            counter,
            AddTracker::default,
        );
        tracker.checks += 1;
        tracker.violations += u64::from(error_pct > tolerance_pct);
        tracker.worst_error_pct = tracker.worst_error_pct.max(error_pct);
    }

    /// Calibration readouts, sorted by platform.
    pub fn calibration(&self) -> Vec<CalibrationSnapshot> {
        let trackers = self.calibration.lock().expect("calibration poisoned");
        let mut snapshots: Vec<CalibrationSnapshot> = trackers
            .iter()
            .map(|(platform, tracker)| tracker.snapshot(platform))
            .collect();
        snapshots.sort_by(|a, b| a.platform.cmp(&b.platform));
        snapshots
    }

    /// Additivity readouts, sorted by platform then counter.
    pub fn additivity(&self) -> Vec<AdditivitySnapshot> {
        let platforms = self.additivity.lock().expect("additivity poisoned");
        let mut snapshots: Vec<AdditivitySnapshot> = platforms
            .iter()
            .flat_map(|(platform, trackers)| trackers.iter().map(move |entry| (platform, entry)))
            .map(|(platform, (counter, tracker))| AdditivitySnapshot {
                platform: platform.clone(),
                counter: counter.clone(),
                checks: tracker.checks,
                violations: tracker.violations,
                #[allow(clippy::cast_precision_loss)]
                rate: if tracker.checks == 0 {
                    0.0
                } else {
                    tracker.violations as f64 / tracker.checks as f64
                },
                worst_error_pct: tracker.worst_error_pct,
            })
            .collect();
        snapshots.sort_by(|a, b| (&a.platform, &a.counter).cmp(&(&b.platform, &b.counter)));
        snapshots
    }
}

/// The value under `key`, inserting `make()` first if absent — the key
/// is copied only then, so a per-observation lookup allocates nothing.
fn slot<'m, V>(map: &'m mut HashMap<String, V>, key: &str, make: impl FnOnce() -> V) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), make());
    }
    map.get_mut(key).expect("inserted above")
}

/// Whether `measured` lies inside `predicted ± half_width`; `None` when
/// there is no interval (half-width 0).
fn covers(predicted: f64, half_width: f64, measured: f64) -> Option<bool> {
    (half_width > 0.0).then(|| (predicted - measured).abs() <= half_width)
}

/// One metric's reading inside a [`HistorySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Exposition id (`name{label="v"}` or a quantile/`_count` line id).
    pub metric: String,
    /// Value at snapshot time.
    pub value: f64,
    /// Change since the previous snapshot (the value itself for a
    /// metric's first appearance).
    pub delta: f64,
}

/// One windowed snapshot of the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySnapshot {
    /// Monotonic snapshot sequence number, from 1.
    pub seq: u64,
    /// Per-metric readings, in the sampled order.
    pub entries: Vec<HistoryEntry>,
}

/// A fixed-capacity ring of [`HistorySnapshot`]s with per-metric deltas
/// against the previous snapshot — a short time series over whatever
/// sampler feeds it (the serving stack feeds it
/// `MetricsRegistry::sample`). No clocks: ordering is the sequence
/// number, and the cadence is whatever the caller's is.
#[derive(Debug)]
pub struct HistoryRing {
    capacity: usize,
    inner: Mutex<HistoryInner>,
}

#[derive(Debug, Default)]
struct HistoryInner {
    seq: u64,
    /// Last raw reading per metric, the delta baseline.
    last: HashMap<String, f64>,
    snapshots: Vec<HistorySnapshot>,
}

impl HistoryRing {
    /// A ring retaining at most `capacity` snapshots (min 2 — a ring
    /// that cannot hold a delta pair is useless).
    pub fn new(capacity: usize) -> Self {
        HistoryRing {
            capacity: capacity.max(2),
            inner: Mutex::new(HistoryInner::default()),
        }
    }

    /// Snapshot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one snapshot from `(metric, value)` samples; returns its
    /// sequence number. The oldest snapshot falls off past capacity.
    pub fn record(&self, samples: &[(String, f64)]) -> u64 {
        let mut inner = self.inner.lock().expect("history poisoned");
        inner.seq += 1;
        let seq = inner.seq;
        let entries = samples
            .iter()
            .map(|(metric, value)| HistoryEntry {
                metric: metric.clone(),
                value: *value,
                delta: value - inner.last.get(metric).copied().unwrap_or(0.0),
            })
            .collect();
        for (metric, value) in samples {
            inner.last.insert(metric.clone(), *value);
        }
        inner.snapshots.push(HistorySnapshot { seq, entries });
        if inner.snapshots.len() > self.capacity {
            inner.snapshots.remove(0);
        }
        seq
    }

    /// Snapshots recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("history poisoned").snapshots.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The newest `limit` retained snapshots, oldest first.
    pub fn snapshots(&self, limit: usize) -> Vec<HistorySnapshot> {
        let inner = self.inner.lock().expect("history poisoned");
        let skip = inner.snapshots.len().saturating_sub(limit);
        inner.snapshots[skip..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_n(registry: &HealthRegistry, n: usize, predicted: f64, measured: f64) {
        for _ in 0..n {
            registry.observe("skylake", 3, predicted, 1.0, measured);
        }
    }

    #[test]
    fn accurate_predictions_stay_ok_with_full_coverage() {
        let registry = HealthRegistry::default();
        observe_n(&registry, 50, 100.0, 100.5);
        let cal = registry.calibration();
        assert_eq!(cal.len(), 1);
        let c = &cal[0];
        assert_eq!(c.platform, "skylake");
        assert_eq!(c.version, 3);
        assert_eq!(c.samples, 50);
        assert!((c.mae - 0.5).abs() < 1e-9, "mae {}", c.mae);
        assert!(c.mpe < 0.0, "under-prediction is negative MPE: {}", c.mpe);
        assert_eq!(c.coverage, 1.0, "residual 0.5 inside half-width 1.0");
        assert_eq!(c.covered_samples, 50);
        assert_eq!(c.state, HealthState::Ok);
        assert!(c.cusum < 1e-9, "0.5% error is inside the 2% tolerance");
    }

    #[test]
    fn baseline_observations_record_calibration_without_drift_evidence() {
        let registry = HealthRegistry::default();
        // A systematic +25% in-sample fit error, far past the drift
        // tolerance — as a baseline feed it must not move the detectors.
        for _ in 0..40 {
            registry.observe_baseline("skylake", 1, 125.0, 1.0, 100.0);
        }
        let cal = registry.calibration();
        assert_eq!(cal.len(), 1);
        let c = &cal[0];
        assert_eq!(c.samples, 40);
        assert!((c.mae - 25.0).abs() < 1e-9, "mae {}", c.mae);
        assert!(c.mpe > 20.0, "baseline still reports accuracy: {}", c.mpe);
        assert_eq!(c.coverage, 0.0, "residual 25 outside half-width 1");
        assert_eq!(c.state, HealthState::Ok);
        assert_eq!(c.cusum, 0.0, "baseline samples are not drift evidence");
        assert_eq!(c.page_hinkley, 0.0);
        assert_eq!(registry.transitions(), 0);
        // Live observations layered on top start the detectors fresh.
        for _ in 0..60 {
            registry.observe("skylake", 1, 120.0, 1.0, 100.0);
        }
        let c = &registry.calibration()[0];
        assert_eq!(c.state, HealthState::Drifting);
        assert_eq!(registry.transitions(), 2);
    }

    #[test]
    fn a_biased_model_walks_ok_degraded_drifting() {
        let registry = HealthRegistry::default();
        let mut states = Vec::new();
        for _ in 0..60 {
            if let Some(t) = registry.observe("skylake", 7, 120.0, 1.0, 100.0) {
                states.push((t.from, t.to));
            }
        }
        assert_eq!(
            states,
            vec![
                (HealthState::Ok, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Drifting),
            ],
            "a +20% bias escalates through both thresholds exactly once"
        );
        assert_eq!(registry.transitions(), 2);
        let c = &registry.calibration()[0];
        assert_eq!(c.state, HealthState::Drifting);
        assert!(c.cusum > 2.5, "cusum accumulates: {}", c.cusum);
        assert_eq!(c.coverage, 0.0, "residual 20 outside half-width 1");
    }

    #[test]
    fn min_samples_gate_holds_early_noise_at_ok() {
        let registry = HealthRegistry::new(HealthConfig {
            min_samples: 100,
            ..HealthConfig::default()
        });
        observe_n(&registry, 50, 200.0, 100.0);
        assert_eq!(registry.calibration()[0].state, HealthState::Ok);
    }

    #[test]
    fn recovery_walks_the_state_back_down() {
        let registry = HealthRegistry::new(HealthConfig {
            window: 16,
            ..HealthConfig::default()
        });
        for _ in 0..40 {
            registry.observe("skylake", 1, 120.0, 1.0, 100.0);
        }
        assert_eq!(registry.calibration()[0].state, HealthState::Drifting);
        // An accurate model drains the CUSUM side; Page–Hinkley decays as
        // the running mean converges back toward zero.
        let mut recovered = false;
        for _ in 0..4000 {
            if let Some(t) = registry.observe("skylake", 2, 100.0, 1.0, 100.0) {
                if t.to == HealthState::Ok {
                    recovered = true;
                }
            }
        }
        assert!(recovered, "{:?}", registry.calibration());
    }

    #[test]
    fn observations_without_intervals_do_not_count_toward_coverage() {
        let registry = HealthRegistry::default();
        registry.observe("haswell", 1, 10.0, 0.0, 10.0);
        registry.observe("haswell", 1, 10.0, 0.0, 10.0);
        let c = &registry.calibration()[0];
        assert_eq!(c.covered_samples, 0);
        assert_eq!(c.coverage, 0.0);
        registry.observe("haswell", 1, 10.0, 1.0, 10.0);
        assert_eq!(registry.calibration()[0].covered_samples, 1);
        assert_eq!(registry.calibration()[0].coverage, 1.0);
    }

    #[test]
    fn disabled_registries_hold_no_state() {
        let registry = HealthRegistry::disabled();
        assert!(!registry.is_enabled());
        assert!(registry.observe("skylake", 1, 500.0, 1.0, 100.0).is_none());
        registry.observe_additivity("skylake", "X", 50.0, 5.0);
        assert!(registry.calibration().is_empty());
        assert!(registry.additivity().is_empty());
    }

    #[test]
    fn additivity_rates_accumulate_per_platform_counter() {
        let registry = HealthRegistry::default();
        registry.observe_additivity("skylake", "UOPS", 2.0, 5.0);
        registry.observe_additivity("skylake", "UOPS", 9.0, 5.0);
        registry.observe_additivity("skylake", "FP", 1.0, 5.0);
        registry.observe_additivity("haswell", "UOPS", 30.0, 5.0);
        let rows = registry.additivity();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].platform.as_str(), rows[0].counter.as_str()),
            ("haswell", "UOPS")
        );
        let skylake_uops = rows
            .iter()
            .find(|r| r.platform == "skylake" && r.counter == "UOPS")
            .unwrap();
        assert_eq!(skylake_uops.checks, 2);
        assert_eq!(skylake_uops.violations, 1);
        assert!((skylake_uops.rate - 0.5).abs() < 1e-12);
        assert!((skylake_uops.worst_error_pct - 9.0).abs() < 1e-12);
    }

    #[test]
    fn history_ring_keeps_deltas_and_drops_past_capacity() {
        let ring = HistoryRing::new(3);
        assert_eq!(ring.capacity(), 3);
        for step in 1..=5u64 {
            #[allow(clippy::cast_precision_loss)]
            let samples = vec![
                ("a_total".to_string(), 10.0 * step as f64),
                ("b".to_string(), 7.0),
            ];
            assert_eq!(ring.record(&samples), step);
        }
        let snapshots = ring.snapshots(usize::MAX);
        assert_eq!(snapshots.len(), 3, "capacity bounds retention");
        assert_eq!(snapshots[0].seq, 3);
        assert_eq!(snapshots[2].seq, 5);
        let newest = &snapshots[2];
        assert_eq!(newest.entries[0].metric, "a_total");
        assert_eq!(newest.entries[0].value, 50.0);
        assert_eq!(newest.entries[0].delta, 10.0, "counter delta per step");
        assert_eq!(newest.entries[1].delta, 0.0, "flat gauge has no delta");
        assert_eq!(ring.snapshots(1).len(), 1);
        assert_eq!(ring.snapshots(1)[0].seq, 5);
    }

    #[test]
    fn first_history_snapshot_baselines_deltas_at_the_value() {
        let ring = HistoryRing::new(4);
        ring.record(&[("x_total".to_string(), 42.0)]);
        let only = &ring.snapshots(10)[0];
        assert_eq!(only.entries[0].delta, 42.0);
    }

    #[test]
    fn health_state_names_round_trip() {
        for state in [
            HealthState::Ok,
            HealthState::Degraded,
            HealthState::Drifting,
        ] {
            assert_eq!(HealthState::parse(state.as_str()), Some(state));
        }
        assert_eq!(HealthState::parse("weird"), None);
        assert!(HealthState::Drifting > HealthState::Degraded);
    }
}
