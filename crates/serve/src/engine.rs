//! Inference engine: answers "PMC vector → dynamic energy" requests on
//! the calling thread.
//!
//! Every estimate, on either tier, goes through one core,
//! [`InferenceEngine::estimate_rows`], which takes a model, a tier and a
//! batch of rows and evaluates them where it was called: the connection
//! thread on the threaded transport, the loop thread on the evented one.
//! There is no queue and no worker pool — the deployed model is a
//! 4-wide dot product, cheaper than any hand-off.
//!
//! * **Lowered once per version.** The first estimate against a model
//!   version lowers it — a [`pmca_mlkit::CompiledModel`] for the f64
//!   tier (flat branch-free trees, fused linear dot products, transposed
//!   network weights) and, where representable, a
//!   [`pmca_mlkit::FixedModel`] for the fixed-point tier — and stores
//!   the lowering inside that [`StoredModel`]. Calling threads share it,
//!   and it is dropped with the version: the engine holds no model.
//! * **Fixed-point tier.** `tier=fixed` rows are quantized into a
//!   per-thread SoA scratch and evaluated with integer arithmetic, no
//!   allocation once the scratch is warm. A model that cannot be lowered,
//!   or a batch carrying a count above the lowered domain, is served by
//!   the f64 path, bit-identically.
//!
//! Every estimate carries a 95 % prediction half-width derived from the
//! model's training residuals via the Student-t critical value — the same
//! machinery the measurement methodology uses for energy CIs. The fixed
//! tier widens it by the lowering's proven error bound.

use crate::protocol::Tier;
use crate::registry::StoredModel;
use pmca_mlkit::{CompiledModel, FixedBatch, FixedModel};
use pmca_obs::trace::{self, ActiveTrace, TraceSpan};
use pmca_obs::{Histogram, MetricsRegistry, Span};
use pmca_simd::Isa;
use pmca_stats::confidence::t_critical;
use std::borrow::Cow;
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Confidence level of served prediction intervals.
const CONFIDENCE: f64 = 0.95;

/// Per-feature input domain the fixed-point tier is lowered for: PMC
/// counts up to ten trillion, comfortably above anything a one-second
/// telemetry window produces. A batch carrying a larger (but otherwise
/// valid) count is served by the f64 path instead — correctness never
/// depends on the domain, only tier selection does.
const FIXED_FEATURE_MAX: f64 = 1.0e13;

/// One answered estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Predicted dynamic energy, joules (clamped non-negative).
    pub joules: f64,
    /// Half-width of the 95 % prediction interval, joules. Zero when the
    /// model recorded no residual spread.
    pub ci_half_width: f64,
    /// Family of the model that answered (`"online"`, `"forest"`, …).
    /// Borrowed (`'static`) for the known families, so the hot path never
    /// clones a family string.
    pub family: Cow<'static, str>,
    /// Registry version of the model that answered.
    pub version: u32,
}

/// Map a family tag onto its `'static` spelling when it is one of the
/// known families, avoiding a per-request `String` clone.
pub(crate) fn intern_family(family: &str) -> Cow<'static, str> {
    match family {
        "online" => Cow::Borrowed("online"),
        "linear" => Cow::Borrowed("linear"),
        "forest" => Cow::Borrowed("forest"),
        "neural" => Cow::Borrowed("neural"),
        other => Cow::Owned(other.to_string()),
    }
}

/// Why a request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The PMC vector width does not match the model.
    Shape {
        /// Features the model expects.
        expected: usize,
        /// Features the request carried.
        got: usize,
    },
    /// A count was NaN, infinite, or negative.
    BadCount,
    /// The stored parameters failed to instantiate.
    Model(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Shape { expected, got } => {
                write!(f, "model expects {expected} counts, request has {got}")
            }
            EngineError::BadCount => write!(f, "counts must be finite and non-negative"),
            EngineError::Model(detail) => write!(f, "model error: {detail}"),
        }
    }
}

impl Error for EngineError {}

/// One row of a batch: feature-ordered counts and the trace of the
/// request it belongs to. A pipelined batch interleaves rows of
/// different requests, so each row carries its own trace rather than
/// trusting the thread's current one.
pub type Row = (Vec<f64>, Option<ActiveTrace>);

/// A stored model lowered for serving, plus the per-model constants a
/// reply needs — computed once per version so the per-request path does
/// no string cloning or t-table lookups. Held by the version itself
/// (see [`StoredModel`]), never by the engine.
#[derive(Debug)]
pub(crate) struct Lowering {
    /// The f64 predictor, or why it could not be built.
    compiled: Result<CompiledModel, EngineError>,
    /// The fixed-point predictor with its widened half-width; `None`
    /// when the model cannot be lowered (unsupported family or
    /// unrepresentable coefficients) — such models always serve f64.
    fixed: Option<(FixedModel, f64)>,
    half_width: f64,
    family: Cow<'static, str>,
    version: u32,
    width: usize,
}

impl Lowering {
    /// The lowering of `model`, built on its first estimate.
    fn of(model: &StoredModel) -> &Lowering {
        model.derived.lowering.get_or_init(|| {
            let half_width = prediction_half_width(model);
            Lowering {
                compiled: CompiledModel::compile(&model.params)
                    .map_err(|e| EngineError::Model(e.to_string())),
                fixed: FixedModel::lower(&model.params, FIXED_FEATURE_MAX)
                    .ok()
                    .map(|fixed| {
                        let widened = half_width
                            + fixed
                                .direct_error_bound()
                                .unwrap_or_else(|| fixed.error_bound());
                        (fixed, widened)
                    }),
                half_width,
                family: intern_family(&model.key.family),
                version: model.version,
                width: model.params.width(),
            }
        })
    }

    /// Reject a row of the wrong width or with an unusable count.
    fn check(&self, counts: &[f64]) -> Result<(), EngineError> {
        if counts.len() != self.width {
            return Err(EngineError::Shape {
                expected: self.width,
                got: counts.len(),
            });
        }
        if counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(EngineError::BadCount);
        }
        Ok(())
    }

    fn reply(&self, joules: f64, ci_half_width: f64) -> Estimate {
        Estimate {
            joules: joules.max(0.0),
            ci_half_width,
            family: self.family.clone(),
            version: self.version,
        }
    }
}

/// Time-attribution instruments of one engine: per-row f64 inference,
/// and the fixed tier's whole-batch SoA evaluations.
#[derive(Debug, Clone)]
struct EngineMetrics {
    compute: Histogram,
    fixed_batch: Histogram,
}

impl EngineMetrics {
    fn standalone() -> Self {
        EngineMetrics {
            compute: Histogram::standalone(),
            fixed_batch: Histogram::standalone(),
        }
    }

    fn from_registry(registry: &MetricsRegistry) -> Self {
        // Advertise which SIMD instruction set the inference kernels
        // dispatched to (the stream hub registers the same gauge id,
        // so shared registries carry it once).
        registry
            .gauge("pmca_simd_isa", &[("isa", Isa::active().as_str())])
            .set(1.0);
        EngineMetrics {
            compute: registry.histogram("pmca_engine_compute_seconds", &[]),
            fixed_batch: registry.histogram("pmca_engine_fixed_batch_seconds", &[]),
        }
    }
}

/// Per-thread scratch for the fixed tier: the SoA batch, the output
/// vector, and the valid-row index map. Reused across batches so a warm
/// fixed-tier request allocates nothing beyond the transient slice
/// gather its bulk ingestion hands to `push_rows`.
struct FixedScratch {
    batch: FixedBatch,
    out: Vec<f64>,
    valid: Vec<usize>,
}

thread_local! {
    static FIXED_SCRATCH: RefCell<FixedScratch> = RefCell::new(FixedScratch {
        batch: FixedBatch::new(),
        out: Vec::new(),
        valid: Vec::new(),
    });
}

/// Serves energy estimates on the calling thread and counts them.
#[derive(Debug)]
pub struct InferenceEngine {
    metrics: EngineMetrics,
    served: AtomicU64,
    errors: AtomicU64,
}

impl InferenceEngine {
    /// An engine with standalone (unexported) metrics.
    ///
    /// The argument is ignored: estimates run on the calling thread, so
    /// there is no pool to size. It remains only so existing callers
    /// keep compiling.
    pub fn new(_workers: usize) -> Self {
        InferenceEngine::build(EngineMetrics::standalone())
    }

    /// An engine whose compute histograms are registered as
    /// `pmca_engine_*_seconds` in `registry`. With a disabled registry
    /// the engine never reads the clock.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        InferenceEngine::build(EngineMetrics::from_registry(registry))
    }

    fn build(metrics: EngineMetrics) -> Self {
        InferenceEngine {
            metrics,
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Answer one request on the f64 tier.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for a malformed request or model.
    pub fn estimate(
        &self,
        model: &Arc<StoredModel>,
        counts: Vec<f64>,
    ) -> Result<Estimate, EngineError> {
        self.estimate_one(model, Tier::F64, counts)
    }

    /// Answer one request on the fixed-point tier (see
    /// [`estimate_rows`](InferenceEngine::estimate_rows) for its
    /// fallback rules).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for a malformed request or model.
    pub fn estimate_fixed(
        &self,
        model: &Arc<StoredModel>,
        counts: Vec<f64>,
    ) -> Result<Estimate, EngineError> {
        self.estimate_one(model, Tier::Fixed, counts)
    }

    fn estimate_one(
        &self,
        model: &StoredModel,
        tier: Tier,
        counts: Vec<f64>,
    ) -> Result<Estimate, EngineError> {
        let mut answers = self.estimate_rows(model, tier, &[(counts, trace::current())]);
        answers.pop().expect("one answer per row")
    }

    /// Answer a batch of f64 requests against one model, in input order.
    pub fn estimate_batch(
        &self,
        model: &Arc<StoredModel>,
        rows: Vec<Vec<f64>>,
    ) -> Vec<Result<Estimate, EngineError>> {
        let rows: Vec<Row> = rows.into_iter().map(|counts| (counts, None)).collect();
        self.estimate_rows(model, Tier::F64, &rows)
    }

    /// The engine core: answer `rows` against `model` on `tier`, on the
    /// calling thread, one result per row in input order. Malformed rows
    /// (shape mismatch, non-finite or negative counts) error
    /// individually on both tiers.
    ///
    /// [`Tier::Fixed`] quantizes the whole batch into a reusable SoA
    /// scratch and evaluates it with integer-only arithmetic; its
    /// intervals are widened by the lowered model's proven error bound,
    /// so they still cover the f64 answer. The batch is served by the
    /// f64 path instead, bit-identically, when the model cannot be
    /// lowered to fixed point or any count exceeds the lowered input
    /// domain — mixed batches would interleave the two evaluators for
    /// no latency win.
    pub fn estimate_rows(
        &self,
        model: &StoredModel,
        tier: Tier,
        rows: &[Row],
    ) -> Vec<Result<Estimate, EngineError>> {
        let lowering = Lowering::of(model);
        let answers = match (tier, &lowering.fixed) {
            (Tier::Fixed, Some((fixed, widened)))
                if !rows
                    .iter()
                    .any(|(counts, _)| counts.iter().any(|c| *c > FIXED_FEATURE_MAX)) =>
            {
                self.fixed_rows(lowering, fixed, *widened, rows)
            }
            _ => self.f64_rows(lowering, rows),
        };
        let ok = answers.iter().filter(|r| r.is_ok()).count() as u64;
        self.served.fetch_add(ok, Ordering::Relaxed);
        self.errors
            .fetch_add(answers.len() as u64 - ok, Ordering::Relaxed);
        answers
    }

    /// The f64 tier: one compiled prediction per row, each timed and
    /// traced into its own request.
    fn f64_rows(&self, lowering: &Lowering, rows: &[Row]) -> Vec<Result<Estimate, EngineError>> {
        rows.iter()
            .map(|(counts, trace)| {
                let _trace_scope = trace::scope(trace.as_ref());
                let _compute_trace = TraceSpan::enter("engine.compute");
                let _compute = Span::enter(&self.metrics.compute);
                let compiled = lowering.compiled.as_ref().map_err(Clone::clone)?;
                lowering.check(counts)?;
                Ok(lowering.reply(compiled.predict_one(counts), lowering.half_width))
            })
            .collect()
    }

    /// The fixed tier: the valid rows of the batch in one SoA pass.
    fn fixed_rows(
        &self,
        lowering: &Lowering,
        fixed: &FixedModel,
        widened: f64,
        rows: &[Row],
    ) -> Vec<Result<Estimate, EngineError>> {
        let started = self.metrics.fixed_batch.enabled().then(Instant::now);
        for trace in rows.iter().filter_map(|(_, trace)| trace.as_ref()) {
            trace.begin("engine.fixed", &[]);
        }
        let mut answers: Vec<Result<Estimate, EngineError>> = rows
            .iter()
            .map(|(counts, _)| {
                lowering
                    .check(counts)
                    .map(|()| lowering.reply(0.0, widened))
            })
            .collect();
        FIXED_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.batch.clear();
            scratch.out.clear();
            scratch.valid.clear();
            scratch
                .valid
                .extend((0..rows.len()).filter(|&i| answers[i].is_ok()));
            // Bulk ingestion: one width check and one column reservation
            // for the whole batch instead of one per row. Single-row
            // batches — the pipelined ESTIMATE hot path — skip the slice
            // gather so they stay allocation-free.
            match scratch.valid.as_slice() {
                &[i] => fixed.push_row(&mut scratch.batch, &rows[i].0),
                valid => {
                    let valid_rows: Vec<&[f64]> =
                        valid.iter().map(|&i| rows[i].0.as_slice()).collect();
                    fixed.push_rows(&mut scratch.batch, &valid_rows);
                }
            }
            fixed.predict_batch_into(&mut scratch.batch, &mut scratch.out);
            for (&i, joules) in scratch.valid.iter().zip(&scratch.out) {
                if let Ok(estimate) = &mut answers[i] {
                    estimate.joules = joules.max(0.0);
                }
            }
        });
        for trace in rows.iter().filter_map(|(_, trace)| trace.as_ref()) {
            trace.end("engine.fixed");
        }
        if let Some(started) = started {
            self.metrics.fixed_batch.record(started.elapsed());
        }
        answers
    }

    /// Requests answered successfully.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests answered with an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// 95 % prediction half-width from the model's training residuals.
pub(crate) fn prediction_half_width(model: &StoredModel) -> f64 {
    if model.residual_std <= 0.0 || model.training_rows == 0 {
        return 0.0;
    }
    let df = model
        .training_rows
        .saturating_sub(model.params.width())
        .max(1);
    t_critical(df, CONFIDENCE) * model.residual_std
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use pmca_mlkit::export::ModelParams;
    use std::sync::Weak;

    fn registered(coeffs: &[f64], residual_std: f64, rows: usize) -> Arc<StoredModel> {
        let mut registry = Registry::new();
        let names: Vec<String> = (0..coeffs.len()).map(|i| format!("E{i}")).collect();
        registry.register(
            "skylake",
            "online",
            names,
            residual_std,
            rows,
            ModelParams::Linear {
                coefficients: coeffs.to_vec(),
                intercept: 0.0,
            },
        )
    }

    #[test]
    fn estimates_match_the_model_arithmetic() {
        let engine = InferenceEngine::new(2);
        let model = registered(&[2.0, 0.5], 0.0, 20);
        let estimate = engine.estimate(&model, vec![10.0, 4.0]).unwrap();
        assert!((estimate.joules - 22.0).abs() < 1e-12);
        assert_eq!(estimate.ci_half_width, 0.0);
        assert_eq!(estimate.family, "online");
        assert_eq!(estimate.version, 1);
        assert_eq!(engine.served(), 1);
        assert_eq!(engine.errors(), 0);
    }

    #[test]
    fn prediction_interval_uses_student_t() {
        let model = registered(&[1.0, 1.0], 2.0, 22);
        // df = 22 - 2 = 20.
        let expected = t_critical(20, 0.95) * 2.0;
        assert!((prediction_half_width(&model) - expected).abs() < 1e-12);
        let engine = InferenceEngine::new(1);
        let estimate = engine.estimate(&model, vec![1.0, 1.0]).unwrap();
        assert!((estimate.ci_half_width - expected).abs() < 1e-12);
    }

    #[test]
    fn malformed_requests_are_rejected_and_counted() {
        let engine = InferenceEngine::new(1);
        let model = registered(&[1.0, 1.0], 0.0, 10);
        assert_eq!(
            engine.estimate(&model, vec![1.0]).unwrap_err(),
            EngineError::Shape {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            engine.estimate(&model, vec![1.0, f64::NAN]).unwrap_err(),
            EngineError::BadCount
        );
        assert_eq!(
            engine.estimate(&model, vec![1.0, -2.0]).unwrap_err(),
            EngineError::BadCount
        );
        assert_eq!(engine.errors(), 3);
        assert_eq!(engine.served(), 0);
    }

    #[test]
    fn core_rows_keep_their_order_and_their_own_errors() {
        let engine = InferenceEngine::new(1);
        let model = registered(&[1.0], 0.0, 10);
        let mut rows: Vec<Row> = (0..64).map(|i| (vec![f64::from(i)], None)).collect();
        rows.insert(5, (vec![1.0, 2.0], None)); // shape error
        rows.insert(40, (vec![f64::INFINITY], None)); // bad count
        let answers = engine.estimate_rows(&model, Tier::F64, &rows);
        assert_eq!(answers.len(), 66);
        assert_eq!(
            answers[5],
            Err(EngineError::Shape {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(answers[40], Err(EngineError::BadCount));
        let values: Vec<f64> = answers
            .iter()
            .filter_map(|answer| answer.as_ref().ok().map(|e| e.joules))
            .collect();
        assert_eq!(values, (0..64).map(f64::from).collect::<Vec<_>>());
        assert_eq!(engine.served(), 64);
        assert_eq!(engine.errors(), 2);
        // An empty batch answers nothing and counts nothing.
        assert!(engine.estimate_rows(&model, Tier::Fixed, &[]).is_empty());
        assert_eq!(engine.served() + engine.errors(), 66);
    }

    #[test]
    fn negative_predictions_are_clamped_to_zero() {
        // An imported generic linear model may carry a negative intercept.
        let mut registry = Registry::new();
        let model = registry.register(
            "skylake",
            "linear",
            vec!["E0".to_string()],
            0.0,
            10,
            ModelParams::Linear {
                coefficients: vec![1.0],
                intercept: -100.0,
            },
        );
        let engine = InferenceEngine::new(1);
        assert_eq!(engine.estimate(&model, vec![1.0]).unwrap().joules, 0.0);
    }

    #[test]
    fn registry_backed_engines_attribute_time() {
        let registry = MetricsRegistry::new();
        let engine = InferenceEngine::with_registry(&registry);
        let model = registered(&[1.0], 0.0, 10);
        let _ = engine.estimate(&model, vec![1.0]).unwrap();
        let lines = registry.render();
        assert!(
            lines.contains(&"pmca_engine_compute_seconds_count 1".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn batch_rows_record_into_their_own_traces() {
        use pmca_obs::TracerConfig;

        let tracer = TracerConfig::new().build().unwrap();
        let engine = InferenceEngine::new(1);
        let model = registered(&[1.0], 0.0, 10);
        let traces: Vec<ActiveTrace> = (0..8)
            .map(|_| tracer.start("estimate", &[]).unwrap())
            .collect();
        let rows: Vec<Row> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| (vec![i as f64], Some(trace.clone())))
            .collect();
        let answers = engine.estimate_rows(&model, Tier::F64, &rows);
        assert!(answers.iter().all(Result::is_ok));
        for trace in &traces {
            tracer.finish(trace);
        }
        let recent = tracer.recent();
        assert_eq!(recent.len(), 8);
        for completed in recent {
            // Each request trace got exactly its own compute stage.
            assert_eq!(
                completed
                    .events
                    .iter()
                    .filter(|e| e.name == "engine.compute")
                    .count(),
                2,
                "{:?}",
                completed.events
            );
            assert!(completed
                .span_durations()
                .iter()
                .any(|(name, _)| name == "engine.compute"));
        }
    }

    #[test]
    fn disabled_registries_keep_the_engine_clock_free() {
        let registry = MetricsRegistry::disabled();
        let engine = InferenceEngine::with_registry(&registry);
        assert!(
            !engine.metrics.compute.enabled() && !engine.metrics.fixed_batch.enabled(),
            "no clock read when metrics are off"
        );
        let model = registered(&[1.0], 0.0, 10);
        let _ = engine.estimate(&model, vec![1.0]).unwrap();
        assert!(registry
            .render()
            .contains(&"pmca_engine_compute_seconds_count 0".to_string()));
    }

    #[test]
    fn dropped_versions_are_not_pinned_by_the_engine() {
        // Once the store and every caller let go of a version, nothing
        // the engine derived from it may keep it alive.
        let engine = InferenceEngine::new(1);
        let mut registry = Registry::new();
        let model = registry.register(
            "skylake",
            "online",
            vec!["E0".to_string(), "E1".to_string()],
            0.5,
            20,
            ModelParams::Linear {
                coefficients: vec![2.0e-9, 1.0e-9],
                intercept: 0.0,
            },
        );
        let row = vec![1.0e10, 2.0e9];
        engine.estimate(&model, row.clone()).unwrap();
        engine.estimate_fixed(&model, row).unwrap();
        let _ = model.shared_events();
        let weak: Weak<StoredModel> = Arc::downgrade(&model);
        drop(registry);
        drop(model);
        assert!(
            weak.upgrade().is_none(),
            "the engine pins a dropped version"
        );
    }

    #[test]
    fn fixed_tier_answers_stay_within_the_lowered_error_bound() {
        let engine = InferenceEngine::new(2);
        let model = registered(&[2.0e-9, 0.5e-9], 1.5, 20);
        let fixed = FixedModel::lower(&model.params, FIXED_FEATURE_MAX).unwrap();
        let bound = fixed.direct_error_bound().unwrap();
        for i in 0..16 {
            let row = vec![1.0e10 + 3.7e9 * f64::from(i), 2.5e9 * f64::from(i)];
            let f64_answer = engine.estimate(&model, row.clone()).unwrap();
            let fast = engine.estimate_fixed(&model, row).unwrap();
            assert!(
                (fast.joules - f64_answer.joules).abs() <= bound,
                "|{} - {}| > {bound}",
                fast.joules,
                f64_answer.joules
            );
            // The fixed tier widens the interval by the proven bound so
            // it still covers the f64 answer.
            assert!((fast.ci_half_width - (f64_answer.ci_half_width + bound)).abs() < 1e-15);
            assert_eq!(fast.family, f64_answer.family);
            assert_eq!(fast.version, f64_answer.version);
        }
    }

    #[test]
    fn fixed_batches_preserve_order_and_report_per_row_errors() {
        let engine = InferenceEngine::new(2);
        let model = registered(&[1.0e-9], 0.0, 10);
        let mut rows: Vec<Row> = (0..32)
            .map(|i| (vec![1.0e9 * f64::from(i)], None))
            .collect();
        rows.insert(7, (vec![1.0, 2.0], None)); // shape error
        rows.insert(21, (vec![-3.0], None)); // bad count
        let answers = engine.estimate_rows(&model, Tier::Fixed, &rows);
        assert_eq!(answers.len(), 34);
        assert!(matches!(answers[7], Err(EngineError::Shape { .. })));
        assert_eq!(answers[21], Err(EngineError::BadCount));
        let fixed = FixedModel::lower(&model.params, FIXED_FEATURE_MAX).unwrap();
        let bound = fixed.direct_error_bound().unwrap();
        for (i, answer) in answers.iter().enumerate() {
            if i == 7 || i == 21 {
                continue;
            }
            let logical = if i < 7 {
                i
            } else if i < 21 {
                i - 1
            } else {
                i - 2
            };
            let expected = 1.0e9 * logical as f64 * 1.0e-9;
            assert!(
                (answer.as_ref().unwrap().joules - expected).abs() <= bound,
                "row {i}"
            );
        }
        assert_eq!(engine.served(), 32);
        assert_eq!(engine.errors(), 2);
    }

    #[test]
    fn fixed_tier_falls_back_for_unlowerable_models_and_huge_counts() {
        let engine = InferenceEngine::new(1);
        // Out-of-domain count: the whole batch takes the f64 path, so the
        // answer is bit-identical to the plain engine's.
        let model = registered(&[2.5e-9, 1.25e-9], 0.75, 20);
        let row = vec![5.0e13, 1.0e9];
        let direct = engine.estimate(&model, row.clone()).unwrap();
        let fast = engine.estimate_fixed(&model, row).unwrap();
        assert_eq!(fast, direct, "oversized counts fall back bit-identically");
        // Unsupported family: the cached entry remembers the failed
        // lowering and every request serves f64.
        let mut registry = Registry::new();
        let neural = registry.register(
            "skylake",
            "neural",
            vec!["E0".to_string()],
            0.0,
            10,
            ModelParams::Neural(pmca_mlkit::nn::NetworkWeights {
                activation: pmca_mlkit::nn::Activation::Linear,
                layers: vec![pmca_mlkit::nn::LayerWeights {
                    weights: vec![vec![2.0]],
                    biases: vec![0.5],
                }],
                feature_means: vec![0.0],
                feature_stds: vec![1.0],
                target_mean: 0.0,
                target_std: 1.0,
            }),
        );
        let direct = engine.estimate(&neural, vec![3.0]).unwrap();
        let fast = engine.estimate_fixed(&neural, vec![3.0]).unwrap();
        assert_eq!(fast, direct, "unlowerable models fall back bit-identically");
    }

    #[test]
    fn fixed_batches_record_into_their_histogram_and_traces() {
        use pmca_obs::TracerConfig;

        let registry = MetricsRegistry::new();
        let engine = InferenceEngine::with_registry(&registry);
        let model = registered(&[1.0e-9], 0.0, 10);
        let tracer = TracerConfig::new().build().unwrap();
        let request_trace = tracer.start("estimate", &[]).unwrap();
        let rows = vec![(vec![1.0e9], Some(request_trace.clone()))];
        let answers = engine.estimate_rows(&model, Tier::Fixed, &rows);
        assert!(answers[0].is_ok());
        tracer.finish(&request_trace);
        let completed = tracer.slowest().expect("trace finished");
        assert!(
            completed
                .span_durations()
                .iter()
                .any(|(name, _)| name == "engine.fixed"),
            "{:?}",
            completed.events
        );
        assert!(registry
            .render()
            .contains(&"pmca_engine_fixed_batch_seconds_count 1".to_string()));
    }

    #[test]
    fn compiled_answers_match_uncompiled_instantiation() {
        // The engine serves the compiled lowering; spot-check against the
        // uncompiled revived predictor for bit-identity.
        let model = registered(&[2.5, -0.0, 1.25], 0.0, 30);
        let engine = InferenceEngine::new(2);
        let revived = model.params.instantiate().unwrap();
        for i in 0..32 {
            let row = vec![f64::from(i), f64::from(i * 3 % 7), f64::from(100 - i)];
            let served = engine.estimate(&model, row.clone()).unwrap().joules;
            assert_eq!(served, revived.predict_one(&row).max(0.0));
        }
    }
}
