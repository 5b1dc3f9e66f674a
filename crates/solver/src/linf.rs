//! `L∞`-loss weight fitting (Section 4.6).
//!
//! The paper compares training with the `L2` objective of Equation (8)
//! against the `L∞` objective `min max_i |s_D(R_i) − s_i|`. Over the
//! probability simplex this is a linear program; we provide
//!
//! * [`linf_fit_exact`] — the LP formulation solved with the dense simplex
//!   method (exact, for small/medium instances), and
//! * [`linf_fit_smoothed`] — a scalable smoothed variant minimizing the
//!   log-sum-exp soft maximum with projected gradient descent.

use crate::error::{check_finite, check_len, SolverError};
use crate::linprog::{linprog, Constraint, ConstraintOp, LpStatus};
use crate::matrix::DenseMatrix;
use crate::report::SolveReport;
use crate::simplex_proj::simplex_projection;

/// Options for the smoothed solver.
#[derive(Clone, Debug)]
pub struct LinfOptions {
    /// Smoothing temperature: larger is closer to the true max.
    pub beta: f64,
    /// Maximum gradient iterations.
    pub max_iters: usize,
    /// Step size decay base.
    pub step0: f64,
}

impl Default for LinfOptions {
    fn default() -> Self {
        Self {
            beta: 200.0,
            max_iters: 3000,
            step0: 0.5,
        }
    }
}

/// `L∞` error of a weight vector: `max_i |(Aw)_i − s_i|`.
pub fn linf_error(a: &DenseMatrix, w: &[f64], s: &[f64]) -> f64 {
    a.residual(w, s)
        .iter()
        .map(|r| r.abs())
        .fold(0.0, f64::max)
}

/// Exactly minimizes `max_i |(Aw)_i − s_i|` over the probability simplex
/// via LP: variables `(w, z)`, minimize `z` s.t. `±(Aw − s) ≤ z`, `Σw = 1`.
///
/// Returns a typed [`SolverError`] on invalid input, or
/// [`SolverError::LpNotOptimal`] if the inner LP fails to find an optimum
/// (it should not on well-formed inputs — the feasible set is nonempty and
/// bounded).
pub fn linf_fit_exact(a: &DenseMatrix, s: &[f64]) -> Result<Vec<f64>, SolverError> {
    validate_linf("linf-exact", a, s)?;
    let n = a.rows();
    let m = a.cols();
    let mut cons = Vec::with_capacity(2 * n + 1);
    #[allow(clippy::needless_range_loop)] // indexed form is clearer here
    for i in 0..n {
        // (Aw)_i − z ≤ s_i
        let mut row = a.row(i).to_vec();
        row.push(-1.0);
        cons.push(Constraint::new(row, ConstraintOp::Le, s[i]));
        // −(Aw)_i − z ≤ −s_i
        let mut row = a.row(i).iter().map(|v| -v).collect::<Vec<_>>();
        row.push(-1.0);
        cons.push(Constraint::new(row, ConstraintOp::Le, -s[i]));
    }
    let mut sum_row = vec![1.0; m];
    sum_row.push(0.0);
    cons.push(Constraint::new(sum_row, ConstraintOp::Eq, 1.0));
    let mut c = vec![0.0; m];
    c.push(1.0);
    let r = linprog(&c, &cons)?;
    if r.status != LpStatus::Optimal {
        return Err(SolverError::LpNotOptimal {
            solver: "linf-exact",
            status: match r.status {
                LpStatus::Infeasible => "infeasible",
                LpStatus::Unbounded => "unbounded",
                LpStatus::Optimal => "optimal",
            },
        });
    }
    let mut w = r.x[..m].to_vec();
    // Clean up numerical drift.
    simplex_projection(&mut w);
    Ok(w)
}

/// Shared input validation for the `L∞` fitters.
fn validate_linf(solver: &'static str, a: &DenseMatrix, s: &[f64]) -> Result<(), SolverError> {
    if a.cols() == 0 {
        return Err(SolverError::EmptyProblem { solver });
    }
    check_len(solver, "labels", a.rows(), s.len())?;
    if let Some((index, value)) = a.first_non_finite() {
        return Err(SolverError::NonFiniteInput {
            solver,
            what: "design matrix",
            index,
            value,
        });
    }
    check_finite(solver, "labels", s)
}

/// Scalable smoothed `L∞` fit: minimizes the soft maximum
/// `(1/β) log Σ_i (e^{β r_i} + e^{−β r_i})` of the residuals `r = Aw − s`
/// with projected gradient descent over the simplex.
///
/// Returns the weights with a [`SolveReport`]. The subgradient method
/// runs a fixed budget and keeps the best iterate seen, so there is no
/// classic stopping criterion; `converged` is defined as "the best
/// iterate was found in the first 90% of the budget" — `false` means the
/// incumbent was still improving at the end and more iterations would
/// likely help.
pub fn linf_fit_smoothed(
    a: &DenseMatrix,
    s: &[f64],
    opts: &LinfOptions,
) -> Result<(Vec<f64>, SolveReport), SolverError> {
    validate_linf("linf-smoothed", a, s)?;
    if !opts.beta.is_finite() || opts.beta <= 0.0 {
        return Err(SolverError::InvalidOptions {
            solver: "linf-smoothed",
            what: "beta",
        });
    }
    if !opts.step0.is_finite() || opts.step0 <= 0.0 {
        return Err(SolverError::InvalidOptions {
            solver: "linf-smoothed",
            what: "step0",
        });
    }
    let m = a.cols();
    let mut w = vec![1.0 / m as f64; m];
    let mut best_w = w.clone();
    let mut best_err = linf_error(a, &w, s);
    let mut best_iter = 0usize;
    let mut iters = 0usize;

    for k in 0..opts.max_iters {
        iters = k + 1;
        let r = a.residual(&w, s);
        // softmax weights over ±residuals; subtract the max for stability
        let beta = opts.beta;
        let mmax = r.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let mut coeff = vec![0.0f64; r.len()];
        let mut z = 0.0f64;
        for (i, &ri) in r.iter().enumerate() {
            let ep = (beta * (ri - mmax)).exp();
            let en = (beta * (-ri - mmax)).exp();
            coeff[i] = ep - en;
            z += ep + en;
        }
        if z <= f64::MIN_POSITIVE {
            break;
        }
        for c in &mut coeff {
            *c /= z;
        }
        // gradient of softmax(|r|) wrt w is Aᵀ coeff
        let g = a.matvec_t(&coeff);
        let step = opts.step0 / (1.0 + k as f64).sqrt();
        for (wi, gi) in w.iter_mut().zip(&g) {
            *wi -= step * gi;
        }
        simplex_projection(&mut w);
        let err = linf_error(a, &w, s);
        if err < best_err {
            best_err = err;
            best_w = w.clone();
            best_iter = k;
        }
    }
    let report = SolveReport {
        solver: "linf-smoothed",
        iters,
        max_iters: opts.max_iters,
        converged: best_iter < (opts.max_iters * 9) / 10,
        final_residual: best_err,
    };
    report.emit();
    Ok((best_w, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_achieves_zero_when_consistent() {
        let a = DenseMatrix::identity(3);
        let s = vec![0.2, 0.3, 0.5];
        let w = linf_fit_exact(&a, &s).unwrap();
        assert!(linf_error(&a, &w, &s) < 1e-7);
    }

    #[test]
    fn exact_balances_infeasible_targets() {
        // One bucket, two incompatible targets 0.2 and 0.8 with A = [1; 1]:
        // w must be 1, residuals are ±0.3... wait, Σw = 1 forces w = 1, so
        // errors are |1−0.2| and |1−0.8|; L∞ = 0.8. Use two buckets where
        // only their sum matters: any simplex w gives (Aw) = (1, 1); the
        // minimax error is max(0.8, 0.2) = 0.8 regardless.
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let s = vec![0.2, 0.8];
        let w = linf_fit_exact(&a, &s).unwrap();
        assert!((linf_error(&a, &w, &s) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn exact_minimax_splits_error() {
        // A = I (2 buckets), targets (0.9, 0.5): simplex forces w1+w2 = 1.
        // Optimum splits the overflow evenly: w = (0.7, 0.3), error 0.2.
        let a = DenseMatrix::identity(2);
        let s = vec![0.9, 0.5];
        let w = linf_fit_exact(&a, &s).unwrap();
        let err = linf_error(&a, &w, &s);
        assert!((err - 0.2).abs() < 1e-6, "err = {err}, w = {w:?}");
    }

    #[test]
    fn smoothed_close_to_exact() {
        let a = DenseMatrix::from_rows(&[
            vec![0.9, 0.1, 0.3],
            vec![0.2, 0.8, 0.6],
            vec![0.5, 0.5, 0.1],
            vec![0.7, 0.2, 0.9],
        ]);
        let s = vec![0.4, 0.6, 0.3, 0.7];
        let we = linf_fit_exact(&a, &s).unwrap();
        let ws = linf_fit_smoothed(&a, &s, &LinfOptions::default())
            .unwrap()
            .0;
        let ee = linf_error(&a, &we, &s);
        let es = linf_error(&a, &ws, &s);
        assert!(
            es <= ee + 0.02,
            "smoothed {es} much worse than exact {ee}"
        );
    }

    #[test]
    fn smoothed_output_on_simplex() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let w = linf_fit_smoothed(&a, &[0.4, 0.6], &LinfOptions::default())
            .unwrap()
            .0;
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-7);
        assert!(w.iter().all(|&v| v >= 0.0));
        assert!(linf_error(&a, &w, &[0.4, 0.6]) < 1e-2);
    }

    #[test]
    fn linf_error_definition() {
        let a = DenseMatrix::identity(2);
        assert!((linf_error(&a, &[0.5, 0.5], &[0.0, 1.0]) - 0.5).abs() < 1e-12);
    }
}
