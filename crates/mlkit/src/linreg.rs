//! Linear regression with the paper's constraints.
//!
//! The paper's linear energy models are *"built using penalized linear
//! regression … that forces the coefficients to be non-negative. All the
//! models also have zero intercept."* Negative energy coefficients would
//! be physically meaningless (no work item removes energy), and a zero
//! intercept encodes that zero activity consumes zero dynamic energy.
//!
//! Unconstrained fits use the normal equations; non-negative fits solve
//! the ridge-scaled normal equations exactly with the Lawson–Hanson
//! active-set NNLS method (Lawson & Hanson, 1974), the one solver the
//! batch fit and the recursive updater in [`crate::rls`] share.

use crate::model::{validate_training_set, ModelError, Regressor};
use pmca_stats::Matrix;

/// Linear regression model.
///
/// # Examples
///
/// ```
/// use pmca_mlkit::{LinearRegression, Regressor};
///
/// let x = vec![vec![1.0], vec![2.0], vec![3.0]];
/// let y = vec![2.0, 4.0, 6.0];
/// let mut lr = LinearRegression::paper_constrained();
/// lr.fit(&x, &y).unwrap();
/// // The ridge shrinks the exact slope of 2.0 by about 1%.
/// assert!((lr.coefficients()[0] - 2.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    intercept_enabled: bool,
    nonnegative: bool,
    l2: f64,
    feature_penalties: Option<Vec<f64>>,
    coefficients: Vec<f64>,
    intercept: f64,
    fitted: bool,
}

impl LinearRegression {
    /// Ordinary least squares with intercept, no constraints.
    pub fn ordinary() -> Self {
        LinearRegression {
            intercept_enabled: true,
            nonnegative: false,
            l2: 0.0,
            feature_penalties: None,
            coefficients: Vec::new(),
            intercept: 0.0,
            fitted: false,
        }
    }

    /// The paper's configuration: zero intercept, non-negative
    /// coefficients, ridge penalty.
    ///
    /// The penalty matters beyond numerics: PMC predictors are strongly
    /// mutually correlated, and the ridge spreads weight across them the
    /// way the paper's penalized fits do (Table 3 shows several nonzero
    /// coefficients per model) instead of concentrating on one arbitrary
    /// representative.
    pub fn paper_constrained() -> Self {
        LinearRegression {
            intercept_enabled: false,
            nonnegative: true,
            l2: 0.01,
            feature_penalties: None,
            coefficients: Vec::new(),
            intercept: 0.0,
            fitted: false,
        }
    }

    /// Override the ridge penalty (relative to each feature's Gram
    /// diagonal).
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2.is_finite() && l2 >= 0.0, "l2 must be non-negative");
        self.l2 = l2;
        self
    }

    /// Set *per-feature* penalty multipliers: feature `j`'s effective
    /// ridge becomes `l2 · multipliers[j]`. This is the hook for
    /// domain-informed penalties — the additivity-weighted regression of
    /// `pmca-core` penalises each PMC in proportion to its additivity-test
    /// error, the direction the paper sketches as future work.
    ///
    /// # Panics
    ///
    /// Panics if any multiplier is negative or non-finite.
    pub fn with_feature_penalties(mut self, multipliers: Vec<f64>) -> Self {
        assert!(
            multipliers.iter().all(|m| m.is_finite() && *m >= 0.0),
            "penalty multipliers must be non-negative"
        );
        self.feature_penalties = Some(multipliers);
        self
    }

    /// Reconstruct a fitted model from exported parameters (the inverse of
    /// reading [`LinearRegression::coefficients`] and
    /// [`LinearRegression::intercept`]). Used by the model registry to
    /// revive persisted models without retraining.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients` is empty or any parameter is non-finite.
    pub fn from_coefficients(coefficients: Vec<f64>, intercept: f64) -> Self {
        assert!(!coefficients.is_empty(), "need at least one coefficient");
        assert!(
            coefficients.iter().all(|c| c.is_finite()) && intercept.is_finite(),
            "parameters must be finite"
        );
        LinearRegression {
            intercept_enabled: intercept != 0.0,
            nonnegative: coefficients.iter().all(|&c| c >= 0.0),
            l2: 0.0,
            feature_penalties: None,
            coefficients,
            intercept,
            fitted: true,
        }
    }

    /// Fitted coefficients (one per feature).
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    pub fn coefficients(&self) -> &[f64] {
        assert!(self.fitted, "model not fitted");
        &self.coefficients
    }

    /// Fitted intercept (always `0.0` for the paper configuration).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    fn fit_unconstrained(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        width: usize,
    ) -> Result<(), ModelError> {
        let cols = if self.intercept_enabled {
            width + 1
        } else {
            width
        };
        let mut data = Vec::with_capacity(x.len() * cols);
        for row in x {
            if self.intercept_enabled {
                data.push(1.0);
            }
            data.extend_from_slice(row);
        }
        let a = Matrix::from_rows_slice(x.len(), cols, &data).map_err(|e| {
            ModelError::ShapeMismatch {
                detail: e.to_string(),
            }
        })?;
        let beta = a.least_squares(y).map_err(|_| ModelError::NoConvergence)?;
        if self.intercept_enabled {
            self.intercept = beta[0];
            self.coefficients = beta[1..].to_vec();
        } else {
            self.intercept = 0.0;
            self.coefficients = beta;
        }
        Ok(())
    }

    fn fit_nonnegative(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        width: usize,
    ) -> Result<(), ModelError> {
        // Normal equations: G = XᵀX (+ ridge), b = Xᵀy.
        let mut g = vec![vec![0.0; width]; width];
        let mut b = vec![0.0; width];
        for (row, &t) in x.iter().zip(y) {
            accumulate_normal_equations(&mut g, &mut b, row, t);
        }
        self.coefficients = solve_nonnegative(&g, &b, self.l2, self.feature_penalties.as_deref());
        self.intercept = 0.0;
        Ok(())
    }
}

/// Fold one observation into upper-triangular normal equations:
/// `b[i] += row[i]·t`, `g[i][j] += row[i]·row[j]` for `j ≥ i`.
///
/// This is the shared accumulation step of the batch fit and the
/// recursive-least-squares updater in [`crate::rls`]: both add rows in
/// the same per-row floating-point order, which is what makes N
/// recursive updates agree with one batch fit over the same rows to the
/// last bit rather than merely to rounding tolerance.
pub(crate) fn accumulate_normal_equations(
    g: &mut [Vec<f64>],
    b: &mut [f64],
    row: &[f64],
    target: f64,
) {
    let width = b.len();
    for i in 0..width {
        b[i] += row[i] * target;
        for j in i..width {
            g[i][j] += row[i] * row[j];
        }
    }
}

/// The ridge-scaled symmetric Gram matrix `XᵀX + Λ`, row-major
/// `width × width`, built from the upper triangle `g` (as
/// [`accumulate_normal_equations`] fills it).
///
/// The ridge is scaled to each feature's own Gram diagonal — equivalent
/// to penalising *standardised* coefficients, as R's
/// penalised-regression packages do by default. A uniform penalty would
/// silently exclude small-magnitude PMCs (icache misses count in the 1e7
/// range, uops in the 1e12 range). A zero diagonal (an all-zero column)
/// is floored to the smallest positive normal so the matrix stays
/// positive on its diagonal.
pub(crate) fn ridged_gram(g: &[Vec<f64>], l2: f64, feature_penalties: Option<&[f64]>) -> Vec<f64> {
    let width = g.len();
    let mut a = vec![0.0; width * width];
    for (i, row) in g.iter().enumerate() {
        for j in i..width {
            a[i * width + j] = row[j];
            a[j * width + i] = row[j];
        }
    }
    for i in 0..width {
        let multiplier = feature_penalties
            .and_then(|m| m.get(i).copied())
            .unwrap_or(1.0);
        let d = &mut a[i * width + i];
        *d *= 1.0 + l2 * multiplier;
        if *d <= 0.0 {
            *d = f64::MIN_POSITIVE;
        }
    }
    a
}

/// Relative size below which a gradient entry counts as zero: about ten
/// thousand ulps of the terms it is computed from, far above their
/// rounding.
const GRADIENT_TOL: f64 = 1e-12;

/// Relative Cholesky pivot below which a column is taken as linearly
/// dependent on the passive columns already factored.
const PIVOT_TOL: f64 = 1e-12;

/// Solve the ridge-penalised non-negative normal equations — minimise
/// `½βᵀAβ − bᵀβ` over `β ≥ 0`, `A = XᵀX + Λ` — with the Lawson–Hanson
/// active-set method, in its normal-equation form.
///
/// `g` is the Gram matrix with only the upper triangle filled (as
/// [`accumulate_normal_equations`] builds it); [`ridged_gram`] mirrors
/// it and applies the ridge. Starting from `β = 0`, the coordinate with
/// the largest positive gradient `bⱼ − (Aβ)ⱼ` joins the passive set; the
/// passive block is solved exactly by Cholesky, and a solution that
/// leaves the feasible region is pulled back along the segment from the
/// current `β` until the first coordinate hits zero, which leaves the
/// set. It stops when no free coordinate has a positive gradient —
/// the KKT conditions — which takes a handful of width² solves, so the
/// cost is independent of how ill-conditioned the counters are.
///
/// A gradient counts as positive only past [`GRADIENT_TOL`] of the terms
/// it is computed from, and a coordinate whose pivot shows it dependent
/// on the passive columns (duplicate counters under a zero ridge) or
/// whose own solution would be non-positive stays out until `β` moves.
pub(crate) fn solve_nonnegative(
    g: &[Vec<f64>],
    b: &[f64],
    l2: f64,
    feature_penalties: Option<&[f64]>,
) -> Vec<f64> {
    let a = ridged_gram(g, l2, feature_penalties);
    ActiveSet::new(&a, b).solve()
}

/// Working state of one [`solve_nonnegative`] call.
struct ActiveSet<'a> {
    /// Ridge-scaled Gram matrix, row-major.
    a: &'a [f64],
    b: &'a [f64],
    width: usize,
    beta: Vec<f64>,
    /// Passive (free) coordinates, in the order they entered — the
    /// Cholesky factor's row order.
    passive: Vec<usize>,
    /// Coordinates refused entry at the current `β`.
    refused: Vec<bool>,
    /// Lower-triangular Cholesky factor of the passive block, row-major
    /// with stride `width`.
    chol: Vec<f64>,
    /// Passive-block solution, in passive order.
    trial: Vec<f64>,
}

impl<'a> ActiveSet<'a> {
    fn new(a: &'a [f64], b: &'a [f64]) -> Self {
        let width = b.len();
        ActiveSet {
            a,
            b,
            width,
            beta: vec![0.0; width],
            passive: Vec::with_capacity(width),
            refused: vec![false; width],
            chol: vec![0.0; width * width],
            trial: vec![0.0; width],
        }
    }

    fn solve(mut self) -> Vec<f64> {
        // Every pass either refuses a coordinate at the current β or
        // strictly lowers the objective; the cap only guards against
        // rounding-induced cycling, and leaves a feasible β.
        for _ in 0..4 * self.width + 8 {
            let Some(entering) = self.entering() else {
                break;
            };
            self.passive.push(entering);
            let mut first = true;
            loop {
                if !self.solve_passive() {
                    if !first {
                        // Refactoring a subset of a block that factored
                        // cannot fail in exact arithmetic; if rounding
                        // says otherwise, the feasible β stands.
                        return self.beta;
                    }
                    // The entering column depends on the passive ones.
                    self.passive.pop();
                    self.refused[entering] = true;
                    break;
                }
                let last = self.passive.len() - 1;
                if first && self.trial[last] <= 0.0 {
                    // A rounding-level gradient: the exact step would
                    // not move this coordinate off zero.
                    self.passive.pop();
                    self.refused[entering] = true;
                    break;
                }
                first = false;
                if self.trial[..self.passive.len()].iter().all(|&s| s > 0.0) {
                    for (&j, &s) in self.passive.iter().zip(&self.trial) {
                        self.beta[j] = s;
                    }
                    self.refused.fill(false);
                    break;
                }
                self.step_to_boundary();
            }
        }
        self.beta
    }

    /// The free coordinate with the largest clearly positive gradient.
    fn entering(&self) -> Option<usize> {
        let w = self.width;
        let mut best: Option<(usize, f64)> = None;
        for j in 0..w {
            if self.refused[j] || self.passive.contains(&j) {
                continue;
            }
            let row = &self.a[j * w..(j + 1) * w];
            let mut gradient = self.b[j];
            let mut scale = self.b[j].abs();
            for (&ajk, &bk) in row.iter().zip(&self.beta) {
                gradient -= ajk * bk;
                scale += (ajk * bk).abs();
            }
            if gradient > GRADIENT_TOL * scale && best.is_none_or(|(_, g)| gradient > g) {
                best = Some((j, gradient));
            }
        }
        best.map(|(j, _)| j)
    }

    /// Factor the passive block and solve it into `trial`; `false` when
    /// a pivot shows a column dependent on the ones before it.
    fn solve_passive(&mut self) -> bool {
        let (w, n) = (self.width, self.passive.len());
        for r in 0..n {
            let pr = self.passive[r];
            for c in 0..=r {
                let pc = self.passive[c];
                let mut sum = self.a[pr * w + pc];
                for k in 0..c {
                    sum -= self.chol[r * w + k] * self.chol[c * w + k];
                }
                if c < r {
                    self.chol[r * w + c] = sum / self.chol[c * w + c];
                } else if sum <= PIVOT_TOL * self.a[pr * w + pr] {
                    return false;
                } else {
                    self.chol[r * w + r] = sum.sqrt();
                }
            }
        }
        // Forward then back substitution: L·y = b_P, Lᵀ·s = y.
        for r in 0..n {
            let mut sum = self.b[self.passive[r]];
            for k in 0..r {
                sum -= self.chol[r * w + k] * self.trial[k];
            }
            self.trial[r] = sum / self.chol[r * w + r];
        }
        for r in (0..n).rev() {
            let mut sum = self.trial[r];
            for k in r + 1..n {
                sum -= self.chol[k * w + r] * self.trial[k];
            }
            self.trial[r] = sum / self.chol[r * w + r];
        }
        true
    }

    /// Move `β` towards the infeasible trial solution as far as
    /// feasibility allows, then drop every passive coordinate that
    /// reached zero (at least the one that set the step).
    fn step_to_boundary(&mut self) {
        let n = self.passive.len();
        let mut alpha = f64::INFINITY;
        let mut blocking = 0;
        for (k, &j) in self.passive.iter().enumerate() {
            let s = self.trial[k];
            if s <= 0.0 {
                let ratio = self.beta[j] / (self.beta[j] - s);
                if ratio < alpha {
                    alpha = ratio;
                    blocking = k;
                }
            }
        }
        for k in 0..n {
            let j = self.passive[k];
            self.beta[j] += alpha * (self.trial[k] - self.beta[j]);
        }
        let blocking = self.passive[blocking];
        self.beta[blocking] = 0.0;
        let beta = &mut self.beta;
        self.passive.retain(|&j| {
            if beta[j] <= 0.0 {
                beta[j] = 0.0;
                false
            } else {
                true
            }
        });
    }
}

impl Regressor for LinearRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), ModelError> {
        let _span = crate::model::fit_span("linear");
        let width = validate_training_set(x, y)?;
        if self.nonnegative {
            self.fit_nonnegative(x, y, width)?;
        } else {
            self.fit_unconstrained(x, y, width)?;
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        assert!(self.fitted, "model not fitted");
        assert_eq!(row.len(), self.coefficients.len(), "feature width mismatch");
        // The dispatched pairwise dot — the same kernel (and therefore
        // the same bits) as the compiled linear model and the stream
        // hub's window estimates.
        self.intercept + pmca_simd::dot_f64(pmca_simd::Isa::active(), row, &self.coefficients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmca_stats::rng::{Rng, Xoshiro256pp};

    #[test]
    fn ordinary_recovers_affine_relation() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 5.0 + 2.5 * i as f64).collect();
        let mut lr = LinearRegression::ordinary();
        lr.fit(&x, &y).unwrap();
        assert!((lr.intercept() - 5.0).abs() < 1e-6);
        assert!((lr.coefficients()[0] - 2.5).abs() < 1e-8);
    }

    #[test]
    fn constrained_fit_has_zero_intercept() {
        let x: Vec<Vec<f64>> = (1..30).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let y: Vec<f64> = (1..30).map(|i| 3.0 * i as f64).collect();
        let mut lr = LinearRegression::paper_constrained();
        lr.fit(&x, &y).unwrap();
        assert_eq!(lr.intercept(), 0.0);
    }

    #[test]
    fn constrained_coefficients_are_nonnegative() {
        // y strongly anti-correlated with x₁: unconstrained OLS would put a
        // negative weight on it; NNLS must clamp to zero.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 50.0 - i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        let mut lr = LinearRegression::paper_constrained();
        lr.fit(&x, &y).unwrap();
        for (k, &c) in lr.coefficients().iter().enumerate() {
            assert!(c >= 0.0, "coefficient {k} is negative: {c}");
        }
    }

    #[test]
    fn nnls_matches_ols_when_unconstrained_solution_is_feasible() {
        let x: Vec<Vec<f64>> = (1..40)
            .map(|i| vec![i as f64, (i % 7) as f64 + 1.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 0.5 * r[1]).collect();
        let mut nnls = LinearRegression::paper_constrained().with_l2(0.0);
        nnls.fit(&x, &y).unwrap();
        assert!((nnls.coefficients()[0] - 2.0).abs() < 1e-6);
        assert!((nnls.coefficients()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn handles_pmc_scale_features() {
        // PMC counts are ~1e9–1e12 and energies ~1e2: coefficients ~1e-9,
        // like the paper's Table 3.
        let x: Vec<Vec<f64>> = (1..60)
            .map(|i| vec![1e10 * i as f64, 3e9 * i as f64])
            .collect();
        let y: Vec<f64> = (1..60).map(|i| 45.0 * i as f64).collect();
        let mut lr = LinearRegression::paper_constrained();
        lr.fit(&x, &y).unwrap();
        let pred = lr.predict_one(&[1e10 * 30.0, 3e9 * 30.0]);
        // Ridge shrinkage keeps the prediction within ~2% of truth.
        assert!((pred - 45.0 * 30.0).abs() < 30.0, "pred {pred}");
        assert!(lr.coefficients().iter().all(|c| *c < 1e-7));
    }

    #[test]
    fn zero_feature_column_gets_zero_coefficient() {
        let x: Vec<Vec<f64>> = (1..20).map(|i| vec![i as f64, 0.0]).collect();
        let y: Vec<f64> = (1..20).map(|i| 4.0 * i as f64).collect();
        let mut lr = LinearRegression::paper_constrained();
        lr.fit(&x, &y).unwrap();
        assert_eq!(lr.coefficients()[1], 0.0);
        assert!((lr.coefficients()[0] - 4.0).abs() < 0.05);
    }

    #[test]
    fn collinear_features_do_not_explode() {
        let x: Vec<Vec<f64>> = (1..30).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (1..30).map(|i| 6.0 * i as f64).collect();
        let mut lr = LinearRegression::paper_constrained();
        lr.fit(&x, &y).unwrap();
        let pred = lr.predict_one(&[10.0, 20.0]);
        assert!((pred - 60.0).abs() < 1.0, "pred {pred}");
    }

    /// Normal equations plus ridge: the arguments of one solve.
    struct System {
        g: Vec<Vec<f64>>,
        b: Vec<f64>,
        l2: f64,
        penalties: Option<Vec<f64>>,
    }

    /// A random ridge-scaled NNLS problem at PMC scale: independent
    /// columns of magnitude 1e7–1e12, all-zero columns, exact multiples
    /// and non-negative mixtures of earlier columns, targets from a
    /// signed generating model (so constraints bind), and ridge
    /// multipliers that are zero on some columns.
    fn random_system(rng: &mut Xoshiro256pp) -> System {
        let width = rng.gen_range_usize(1, 13);
        let rows = rng.gen_range_usize(1, 3 * width + 6);
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(width);
        for j in 0..width {
            let column = match rng.gen_range_usize(0, 6) {
                0 => vec![0.0; rows],
                1 if j > 0 => {
                    let c = rng.gen_range_f64(0.1, 10.0);
                    columns[rng.gen_range_usize(0, j)]
                        .iter()
                        .map(|v| c * v)
                        .collect()
                }
                2 if j > 1 => {
                    let (p, q) = (rng.gen_range_usize(0, j), rng.gen_range_usize(0, j));
                    let (c, d) = (rng.gen_range_f64(0.0, 3.0), rng.gen_range_f64(0.0, 3.0));
                    (0..rows)
                        .map(|i| c * columns[p][i] + d * columns[q][i])
                        .collect()
                }
                _ => {
                    let scale = 10f64.powf(rng.gen_range_f64(7.0, 12.0));
                    (0..rows)
                        .map(|_| scale * rng.gen_range_f64(0.5, 1.5))
                        .collect()
                }
            };
            columns.push(column);
        }
        let truth: Vec<f64> = columns
            .iter()
            .map(|col| {
                let size = col.iter().fold(1.0_f64, |m, v| m.max(*v));
                rng.gen_range_f64(-1.0, 2.0) * 100.0 / size
            })
            .collect();
        let mut g = vec![vec![0.0; width]; width];
        let mut b = vec![0.0; width];
        for i in 0..rows {
            let row: Vec<f64> = columns.iter().map(|col| col[i]).collect();
            let target = row.iter().zip(&truth).map(|(x, t)| x * t).sum::<f64>()
                + rng.gen_range_f64(-5.0, 5.0);
            accumulate_normal_equations(&mut g, &mut b, &row, target);
        }
        let l2 = [0.0, 0.01, 0.3][rng.gen_range_usize(0, 3)];
        let penalties = (rng.gen_range_usize(0, 2) == 0).then(|| {
            (0..width)
                .map(|_| {
                    if rng.gen_range_usize(0, 3) == 0 {
                        0.0
                    } else {
                        rng.gen_range_f64(0.0, 2.0)
                    }
                })
                .collect()
        });
        System {
            g,
            b,
            l2,
            penalties,
        }
    }

    #[test]
    fn active_set_solutions_satisfy_kkt_on_random_pmc_scale_systems() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x004b_4b54);
        for case in 0..3_000 {
            let System {
                g,
                b,
                l2,
                penalties,
            } = random_system(&mut rng);
            let beta = solve_nonnegative(&g, &b, l2, penalties.as_deref());
            let a = ridged_gram(&g, l2, penalties.as_deref());
            let width = b.len();
            for j in 0..width {
                assert!(
                    beta[j].is_finite() && beta[j] >= 0.0,
                    "case {case}: β{j} = {}",
                    beta[j]
                );
                // Gradient of the objective's negative, and the size of
                // the terms it is computed from (|aⱼₖ| ≤ √(aⱼⱼaₖₖ)).
                let mut gradient = b[j];
                let mut scale = b[j].abs();
                for k in 0..width {
                    gradient -= a[j * width + k] * beta[k];
                    scale += (a[j * width + j] * a[k * width + k]).sqrt() * beta[k];
                }
                let tol = 1e-9 * scale;
                if beta[j] == 0.0 {
                    assert!(
                        gradient <= tol,
                        "case {case}: β{j} = 0 but gradient {gradient} > {tol}"
                    );
                } else {
                    assert!(
                        gradient.abs() <= tol,
                        "case {case}: β{j} > 0 but |gradient| {gradient} > {tol}"
                    );
                }
            }
        }
    }

    #[test]
    fn fit_rejects_empty() {
        let mut lr = LinearRegression::paper_constrained();
        assert_eq!(lr.fit(&[], &[]), Err(ModelError::EmptyTrainingSet));
    }

    #[test]
    fn feature_penalties_suppress_penalised_duplicates() {
        // Two identical columns; a heavy penalty on the second pushes the
        // weight onto the first.
        let x: Vec<Vec<f64>> = (1..40).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (1..40).map(|i| 4.0 * i as f64).collect();
        let mut even = LinearRegression::paper_constrained().with_l2(0.1);
        even.fit(&x, &y).unwrap();
        let ratio_even = even.coefficients()[1] / even.coefficients()[0].max(1e-300);
        let mut skewed = LinearRegression::paper_constrained()
            .with_l2(0.1)
            .with_feature_penalties(vec![0.0, 50.0]);
        skewed.fit(&x, &y).unwrap();
        let ratio_skewed = skewed.coefficients()[1] / skewed.coefficients()[0].max(1e-300);
        assert!(
            ratio_even > 0.9,
            "even ridge should split, got {ratio_even}"
        );
        assert!(
            ratio_skewed < 0.3,
            "penalised duplicate should shrink, got {ratio_skewed}"
        );
    }

    #[test]
    fn zero_penalties_match_unpenalised_fit() {
        let x: Vec<Vec<f64>> = (1..30)
            .map(|i| vec![i as f64, (i % 5) as f64 + 1.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + r[1]).collect();
        let mut plain = LinearRegression::paper_constrained().with_l2(0.0);
        plain.fit(&x, &y).unwrap();
        let mut zeroed = LinearRegression::paper_constrained()
            .with_l2(0.3)
            .with_feature_penalties(vec![0.0, 0.0]);
        zeroed.fit(&x, &y).unwrap();
        for (a, b) in plain.coefficients().iter().zip(zeroed.coefficients()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "penalty multipliers must be non-negative")]
    fn rejects_negative_penalty_multiplier() {
        let _ = LinearRegression::paper_constrained().with_feature_penalties(vec![-1.0]);
    }

    #[test]
    #[should_panic(expected = "model not fitted")]
    fn predict_before_fit_panics() {
        let lr = LinearRegression::ordinary();
        let _ = lr.predict_one(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_with_wrong_width_panics() {
        let mut lr = LinearRegression::paper_constrained();
        lr.fit(&[vec![1.0]], &[1.0]).unwrap();
        let _ = lr.predict_one(&[1.0, 2.0]);
    }
}
