//! Recursive least squares for the paper-constrained linear model.
//!
//! A streaming deployment (fleet monitoring, windowed telemetry) cannot
//! afford to re-scan its history on every new window, but the paper's
//! linear model is defined by its *normal equations* — `G = XᵀX` and
//! `b = Xᵀy` — and those are plain sums over rows. [`RecursiveLeastSquares`]
//! therefore keeps the sufficient statistics `(G, b, Σy², n)` and folds
//! each new observation in with O(width²) work; a refit re-solves the
//! same ridge-penalised non-negative problem as
//! [`LinearRegression::paper_constrained`](crate::LinearRegression::paper_constrained)
//! from those statistics with the exact active-set NNLS solver — a
//! handful of width × width Cholesky solves, independent of how many
//! rows have ever been observed.
//!
//! # Exactness
//!
//! The accumulator adds rows in the same per-row floating-point order as
//! the batch fit (`crate::linreg::accumulate_normal_equations` is shared
//! code), and the refit runs the identical active-set solver on the
//! same statistics. N recursive updates over rows
//! `r₁..r_N` therefore produce *the same* coefficients as one batch
//! `fit` over `[r₁..r_N]` — bit-identical in practice; the property
//! tests assert agreement within a relative tolerance of `1e-9` to
//! leave headroom for platforms whose intermediate float width differs.
//!
//! A zero-sample update (`update(&[], &[])`) touches nothing: same
//! statistics, same coefficients, same residual estimate.

use crate::linreg::{accumulate_normal_equations, solve_nonnegative};
use crate::model::{fit_span, ModelError};

/// Streaming estimator for the paper-constrained linear model (zero
/// intercept, non-negative coefficients, per-feature-scaled ridge).
///
/// # Examples
///
/// ```
/// use pmca_mlkit::rls::RecursiveLeastSquares;
///
/// let mut rls = RecursiveLeastSquares::paper_constrained(1);
/// for i in 1..=8 {
///     rls.update(&[vec![i as f64]], &[2.0 * i as f64]).unwrap();
/// }
/// // The ridge shrinks the exact slope of 2.0 by about 1%.
/// assert!((rls.coefficients()[0] - 2.0).abs() < 0.05);
/// assert!((rls.predict_one(&[10.0]) - 20.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RecursiveLeastSquares {
    width: usize,
    l2: f64,
    /// Gram matrix XᵀX, upper triangle only (`j ≥ i`), un-ridged.
    gram: Vec<Vec<f64>>,
    /// Xᵀy.
    xty: Vec<f64>,
    /// Σy² — closes the residual-sum-of-squares identity.
    yty: f64,
    rows: usize,
    coefficients: Vec<f64>,
    fitted: bool,
}

impl RecursiveLeastSquares {
    /// An empty accumulator for `width` features with the paper's
    /// configuration (ridge `l2 = 0.01`, matching
    /// [`LinearRegression::paper_constrained`](crate::LinearRegression::paper_constrained)).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn paper_constrained(width: usize) -> Self {
        assert!(width > 0, "need at least one feature");
        RecursiveLeastSquares {
            width,
            l2: 0.01,
            gram: vec![vec![0.0; width]; width],
            xty: vec![0.0; width],
            yty: 0.0,
            rows: 0,
            coefficients: vec![0.0; width],
            fitted: false,
        }
    }

    /// Override the ridge penalty (relative to each feature's Gram
    /// diagonal, like [`LinearRegression::with_l2`](crate::LinearRegression::with_l2)).
    ///
    /// # Panics
    ///
    /// Panics if `l2` is negative or non-finite.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2.is_finite() && l2 >= 0.0, "l2 must be non-negative");
        self.l2 = l2;
        self
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of observations folded in so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether at least one refit has produced coefficients.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Fold one observation into the sufficient statistics **without**
    /// refitting. Call [`RecursiveLeastSquares::refit`] (or use
    /// [`RecursiveLeastSquares::update`]) to refresh the coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have `width` entries.
    pub fn observe(&mut self, row: &[f64], target: f64) {
        assert_eq!(row.len(), self.width, "feature width mismatch");
        accumulate_normal_equations(&mut self.gram, &mut self.xty, row, target);
        self.yty += target * target;
        self.rows += 1;
    }

    /// The recursive update: fold `x`/`y` into the statistics and refit.
    ///
    /// An empty batch is a **no-op** — statistics, coefficients, and
    /// residual estimate are all left exactly as they were (in
    /// particular, no refit runs, so an unfitted model stays unfitted).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] when `x` and `y` disagree in
    /// length or a row has the wrong width. The statistics are not
    /// modified on error.
    pub fn update(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), ModelError> {
        if x.len() != y.len() {
            return Err(ModelError::ShapeMismatch {
                detail: format!("{} rows vs {} targets", x.len(), y.len()),
            });
        }
        if let Some(bad) = x.iter().find(|row| row.len() != self.width) {
            return Err(ModelError::ShapeMismatch {
                detail: format!("row has {} features, model has {}", bad.len(), self.width),
            });
        }
        if x.is_empty() {
            return Ok(());
        }
        for (row, &target) in x.iter().zip(y) {
            self.observe(row, target);
        }
        self.refit()
    }

    /// Re-solve the non-negative ridge problem from the accumulated
    /// statistics: a few width × width Cholesky solves, independent of
    /// the row count.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTrainingSet`] when no observation has
    /// been folded in yet.
    pub fn refit(&mut self) -> Result<(), ModelError> {
        if self.rows == 0 {
            return Err(ModelError::EmptyTrainingSet);
        }
        let _span = fit_span("rls");
        self.coefficients = solve_nonnegative(&self.gram, &self.xty, self.l2, None);
        self.fitted = true;
        Ok(())
    }

    /// Fitted coefficients (one per feature).
    ///
    /// # Panics
    ///
    /// Panics if no refit has run yet.
    pub fn coefficients(&self) -> &[f64] {
        assert!(self.fitted, "model not fitted");
        &self.coefficients
    }

    /// Predict one target (zero intercept, like the batch model).
    ///
    /// # Panics
    ///
    /// Panics if no refit has run yet or `row` has the wrong width.
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        assert!(self.fitted, "model not fitted");
        assert_eq!(row.len(), self.width, "feature width mismatch");
        row.iter()
            .zip(&self.coefficients)
            .map(|(a, b)| a * b)
            .sum::<f64>()
    }

    /// Standard deviation of the fit's residuals over *all* observed
    /// rows, from the algebraic identity
    /// `RSS = Σy² − 2βᵀb + βᵀGβ` — no history replay needed. Uses the
    /// same biased `/n` normalisation as the offline online-model
    /// trainer, so served prediction intervals are like-for-like.
    ///
    /// # Panics
    ///
    /// Panics if no refit has run yet.
    pub fn residual_std(&self) -> f64 {
        assert!(self.fitted, "model not fitted");
        let beta = &self.coefficients;
        let mut quad = 0.0;
        for i in 0..self.width {
            quad += self.gram[i][i] * beta[i] * beta[i];
            for j in (i + 1)..self.width {
                quad += 2.0 * self.gram[i][j] * beta[i] * beta[j];
            }
        }
        let cross: f64 = beta.iter().zip(&self.xty).map(|(b, x)| b * x).sum();
        let rss = (self.yty - 2.0 * cross + quad).max(0.0);
        (rss / self.rows as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Regressor;
    use crate::LinearRegression;

    fn synthetic_rows(n: usize, width: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // PMC-scale features with an exact non-negative generating model
        // plus deterministic "noise" from the row index.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..width)
                    .map(|j| 1e9 * ((i * (j + 3) + 7) % 23) as f64 + 5e8)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, v)| v * 2e-9 * (j + 1) as f64)
                    .sum::<f64>()
                    + ((i % 5) as f64 - 2.0)
            })
            .collect();
        (x, y)
    }

    #[test]
    fn single_update_matches_batch_fit_exactly() {
        let (x, y) = synthetic_rows(40, 4);
        let mut rls = RecursiveLeastSquares::paper_constrained(4);
        rls.update(&x, &y).unwrap();
        let mut batch = LinearRegression::paper_constrained();
        batch.fit(&x, &y).unwrap();
        assert_eq!(rls.coefficients(), batch.coefficients());
    }

    #[test]
    fn row_by_row_updates_match_batch_fit() {
        let (x, y) = synthetic_rows(60, 3);
        let mut rls = RecursiveLeastSquares::paper_constrained(3);
        for (row, &target) in x.iter().zip(&y) {
            rls.update(std::slice::from_ref(row), &[target]).unwrap();
        }
        let mut batch = LinearRegression::paper_constrained();
        batch.fit(&x, &y).unwrap();
        for (a, b) in rls.coefficients().iter().zip(batch.coefficients()) {
            let scale = a.abs().max(b.abs()).max(1e-300);
            assert!((a - b).abs() / scale < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_sample_update_is_a_noop() {
        let (x, y) = synthetic_rows(20, 2);
        let mut rls = RecursiveLeastSquares::paper_constrained(2);
        rls.update(&x, &y).unwrap();
        let before = rls.clone();
        rls.update(&[], &[]).unwrap();
        assert_eq!(rls, before);
        // And on a fresh accumulator: still unfitted, no phantom rows.
        let mut fresh = RecursiveLeastSquares::paper_constrained(2);
        fresh.update(&[], &[]).unwrap();
        assert_eq!(fresh.rows(), 0);
        assert!(!fresh.is_fitted());
    }

    #[test]
    fn residual_std_matches_direct_residual_scan() {
        let (x, y) = synthetic_rows(50, 4);
        let mut rls = RecursiveLeastSquares::paper_constrained(4);
        rls.update(&x, &y).unwrap();
        let direct: f64 = {
            let ss: f64 = x
                .iter()
                .zip(&y)
                .map(|(row, &t)| {
                    let r = rls.predict_one(row) - t;
                    r * r
                })
                .sum();
            (ss / y.len() as f64).sqrt()
        };
        let scale = direct.max(1e-300);
        assert!(
            (rls.residual_std() - direct).abs() / scale < 1e-6,
            "identity {} vs scan {}",
            rls.residual_std(),
            direct
        );
    }

    #[test]
    fn refit_before_any_data_is_an_error() {
        let mut rls = RecursiveLeastSquares::paper_constrained(2);
        assert_eq!(rls.refit(), Err(ModelError::EmptyTrainingSet));
    }

    #[test]
    fn update_rejects_mismatched_shapes() {
        let mut rls = RecursiveLeastSquares::paper_constrained(2);
        assert!(matches!(
            rls.update(&[vec![1.0, 2.0]], &[]),
            Err(ModelError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            rls.update(&[vec![1.0]], &[2.0]),
            Err(ModelError::ShapeMismatch { .. })
        ));
        // Rejected batches leave the statistics untouched.
        assert_eq!(rls.rows(), 0);
    }

    #[test]
    fn coefficients_stay_nonnegative() {
        // y anti-correlated with the second feature.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 50.0 - i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        let mut rls = RecursiveLeastSquares::paper_constrained(2);
        rls.update(&x, &y).unwrap();
        assert!(rls.coefficients().iter().all(|&c| c >= 0.0));
    }

    #[test]
    #[should_panic(expected = "model not fitted")]
    fn predict_before_fit_panics() {
        let rls = RecursiveLeastSquares::paper_constrained(2);
        let _ = rls.predict_one(&[1.0, 2.0]);
    }
}
