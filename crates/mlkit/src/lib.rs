//! From-scratch regression models for the SLOPE-PMC reproduction.
//!
//! The paper builds its energy predictive models with three techniques:
//!
//! 1. **Linear regression** — *"penalized linear regression … that forces
//!    the coefficients to be non-negative. All the models also have zero
//!    intercept"* ([`linreg::LinearRegression`] with non-negativity and no
//!    intercept, solved exactly by Lawson–Hanson active-set NNLS);
//! 2. **Random forests** — bagged CART regression trees
//!    ([`forest::RandomForest`]);
//! 3. **Neural networks** — a small multilayer perceptron with a linear
//!    output transfer function ([`nn::NeuralNet`]).
//!
//! The calibration band for this reproduction notes the Rust ML ecosystem
//! is thin, so everything here is implemented from first principles on
//! `f64` slices — no external numerical dependencies beyond the in-repo
//! `pmca-stats` linear algebra.
//!
//! # Examples
//!
//! ```
//! use pmca_mlkit::linreg::LinearRegression;
//! use pmca_mlkit::model::Regressor;
//!
//! // y = 2·x₀ + 3·x₁, recovered under the paper's constraints
//! // (zero intercept, non-negative coefficients).
//! let x = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]];
//! let y = vec![2.0, 3.0, 5.0, 7.0];
//! let mut lr = LinearRegression::paper_constrained();
//! lr.fit(&x, &y).unwrap();
//! assert!((lr.predict_one(&[3.0, 3.0]) - 15.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod cv;
pub mod dataset;
pub mod export;
pub mod fixed;
pub mod forest;
pub mod importance;
pub mod linreg;
pub mod metrics;
pub mod model;
pub mod nn;
pub mod rls;
pub mod tree;

pub use compiled::CompiledModel;
pub use cv::{k_fold, k_fold_with_pool, CvResults};
pub use dataset::Dataset;
pub use export::ModelParams;
pub use fixed::{FixedBatch, FixedError, FixedModel};
pub use forest::RandomForest;
pub use linreg::LinearRegression;
pub use metrics::PredictionErrors;
pub use model::{ModelError, Regressor};
pub use nn::NeuralNet;
pub use rls::RecursiveLeastSquares;
