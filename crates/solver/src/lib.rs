//! Numerical optimization substrate for learned selectivity estimation.
//!
//! The paper's weight-estimation phase (Section 3.1, Equation 8) solves the
//! convex quadratic program
//!
//! ```text
//! minimize   Σ_i (s_D(R_i) − s_i)²
//! subject to Σ_j w_j = 1,   0 ≤ w_j ≤ 1
//! ```
//!
//! over bucket weights `w`. The authors used `scipy.optimize.nnls`; this
//! crate re-implements everything from scratch:
//!
//! * [`DenseMatrix`] — minimal dense linear algebra (matvec, Gram matrices,
//!   Cholesky) sized for the paper's problem scales;
//! * [`CsrMatrix`] — the sparse design matrix FISTA runs on, with kernels
//!   bit-identical to the dense ones;
//! * [`nnls::nnls`] — Lawson–Hanson non-negative least squares, with a penalty
//!   row enforcing `Σ w = 1` (the scipy-style pathway);
//! * [`simplex_projection`] — Euclidean projection onto the probability
//!   simplex (Duchi et al. 2008), plus [`fista_simplex_ls`]: accelerated
//!   projected gradient descent on a [`CsrMatrix`], the default scalable
//!   solver;
//! * [`linprog::linprog`] — a dense two-phase simplex LP solver used for the exact
//!   `L∞` objective of Section 4.6 and for linear-separability tests in the
//!   theory crate;
//! * [`linf`] — `L∞`-loss fitting, exact (LP) and smoothed (log-sum-exp);
//! * [`ipf`] — iterative proportional fitting for the maximum-entropy
//!   weight assignment used by the ISOMER baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csr;
pub mod error;
pub mod fista;
pub mod ipf;
pub mod linf;
pub mod linprog;
pub mod matrix;
pub mod nnls;
pub mod report;
pub mod simplex_proj;

pub use csr::CsrMatrix;
pub use error::SolverError;
pub use fista::{fista_simplex_ls, FistaOptions, FistaResult};
pub use ipf::{ipf_max_entropy, IpfOptions, IpfResult};
pub use linf::{linf_fit_exact, linf_fit_smoothed, LinfOptions};
pub use linprog::{linprog, Constraint, ConstraintOp, LpResult, LpStatus};
pub use matrix::DenseMatrix;
pub use nnls::{nnls, nnls_simplex, NnlsOptions};
pub use report::SolveReport;
pub use simplex_proj::{simplex_projection, try_simplex_projection};
