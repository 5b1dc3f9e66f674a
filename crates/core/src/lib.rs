//! Learned selectivity estimation — the paper's core contribution.
//!
//! This crate implements Section 3 of *"Selectivity Functions of Range
//! Queries are Learnable"* (SIGMOD 2022): generic query-driven estimators
//! that see only a workload of `(range, selectivity)` pairs — never the
//! data — and learn a distribution whose selectivity function minimizes
//! the empirical loss.
//!
//! Every estimator follows the paper's two-phase recipe:
//!
//! 1. **Bucket design** — choose regions (histogram buckets) or points
//!    (discrete-distribution support):
//!    * [`QuadHist`] (Section 3.2): quadtree partitioning guided by query
//!      geometry and selectivity, for low dimensions;
//!    * [`PtsHist`] (Section 3.3): points sampled from query interiors
//!      proportionally to selectivity, for high dimensions;
//!    * [`ArrangementHist`] (Section 3.1): the exact arrangement-based
//!      procedure whose optimality Lemma 3.1 proves.
//! 2. **Weight estimation** ([`weights`]) — solve the simplex-constrained
//!    least-squares program of Equation (8) (or its `L∞` variant,
//!    Section 4.6) for bucket masses.
//!
//! All models implement [`SelectivityEstimator`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arrangement_hist;
pub mod assemble;
pub mod error;
pub mod estimator;
pub mod frozen;
pub mod online;
pub mod persist;
pub mod ptshist;
pub mod qerror;
pub mod quadhist;
pub mod quadtree;
pub mod quantize;
pub mod weights;

pub use arrangement_hist::{ArrangementHist, ArrangementHistConfig};
pub use assemble::assemble_design_matrix;
pub use error::{check_labels, SelearnError};
pub use estimator::{BoxedEstimator, SelectivityEstimator, SharedEstimator, TrainingQuery};
pub use frozen::FrozenEstimator;
pub use online::{OnlineQuadHist, OnlineSnapshot};
pub use persist::{
    load_frozen, load_ptshist, load_quadhist, save_ptshist, save_quadhist, PersistError,
};
pub use ptshist::{PtsHist, PtsHistConfig};
pub use qerror::{q_error, Q_ERROR_FLOOR};
pub use quadhist::{QuadHist, QuadHistConfig};
pub use quadtree::QuadTree;
pub use quantize::{
    quantize_ball_key, quantize_ball_key_into, quantize_halfspace_key,
    quantize_halfspace_key_into, quantize_rect_key, quantize_rect_key_into,
};
pub use weights::{estimate_weights, estimate_weights_with_report, Objective, WeightSolver};
