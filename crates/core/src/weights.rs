//! Weight estimation — the second phase of the generic procedure
//! (Section 3.1, Equation 8).
//!
//! Given buckets `B_1 … B_m` and training queries `(R_i, s_i)`, solve
//!
//! ```text
//! minimize   Σ_i (s_D(R_i) − s_i)²      (or  max_i |s_D(R_i) − s_i|)
//! subject to Σ_j w_j = 1,  0 ≤ w_j ≤ 1
//! ```
//!
//! where `s_D(R_i) = Σ_j A[i][j] · w_j` with the design matrix
//! `A[i][j] = vol(B_j ∩ R_i)/vol(B_j)` for histogram buckets (Equation 6)
//! or `A[i][j] = 1(B_j ∈ R_i)` for discrete support points (Equation 7).
//!
//! The design matrix arrives sparse ([`CsrMatrix`]); FISTA, the default,
//! runs on it directly. Only the NNLS and `L∞` solvers, which need dense
//! columns, densify it.

use selearn_solver::{
    fista_simplex_ls, linf_fit_exact, linf_fit_smoothed, nnls_simplex, CsrMatrix, FistaOptions,
    LinfOptions, NnlsOptions, SolveReport, SolverError,
};

use crate::error::SelearnError;

/// Which algorithm solves the constrained fit.
#[derive(Clone, Debug, Default)]
pub enum WeightSolver {
    /// Accelerated projected gradient (FISTA) on the simplex — the default,
    /// scales to thousands of buckets.
    #[default]
    Fista,
    /// Lawson–Hanson NNLS with a penalty row for `Σ w = 1`: the pathway the
    /// paper's reference implementation used (`scipy.optimize.nnls`).
    NnlsPenalty,
}

/// Training objective (Section 4.6 compares `L2` against `L∞`).
#[derive(Clone, Debug, Default)]
pub enum Objective {
    /// Squared loss — Equation (8).
    #[default]
    L2,
    /// Exact minimax loss via LP (small/medium instances).
    LInfExact,
    /// Smoothed minimax loss via projected subgradient (large instances).
    LInfSmoothed,
}

/// Solves the weight-estimation program over the design matrix `a`
/// (rows = training queries, columns = buckets) and targets `s`.
///
/// Returns weights on the probability simplex with the underlying
/// solver's [`SolveReport`]. An empty bucket set or a non-finite entry is
/// a typed [`SelearnError`]; an empty query set returns the uniform
/// distribution (no information).
///
/// The report is `None` when no iterative solver ran: an empty query set
/// (uniform fallback) or an exact-LP `L∞` fit. A report with
/// `converged == false` means the solver exhausted its iteration budget
/// and returned the last iterate — surfaced here with a debug log (not a
/// panic: the iterate is still feasible and usually near-optimal; see
/// `solver::report`).
pub fn estimate_weights(
    a: &CsrMatrix,
    s: &[f64],
    objective: &Objective,
    solver: &WeightSolver,
) -> Result<(Vec<f64>, Option<SolveReport>), SelearnError> {
    if a.cols() == 0 {
        return Err(SolverError::EmptyProblem {
            solver: "estimate-weights",
        }
        .into());
    }
    if a.rows() == 0 {
        return Ok((vec![1.0 / a.cols() as f64; a.cols()], None));
    }
    let _span = selearn_obs::span!("estimate_weights");
    let (w, report) = match objective {
        Objective::L2 => match solver {
            WeightSolver::Fista => {
                let r = fista_simplex_ls(a, s, &FistaOptions::default())?;
                let report = r.report();
                (r.weights, Some(report))
            }
            WeightSolver::NnlsPenalty => {
                let (w, report) = nnls_simplex(&a.to_dense(), s, &NnlsOptions::default())?;
                (w, Some(report))
            }
        },
        Objective::LInfExact => {
            let dense = a.to_dense();
            match linf_fit_exact(&dense, s) {
                Ok(w) => (w, None), // exact LP: no iterative report
                // The LP failing to reach an optimum (degenerate pivoting)
                // is recoverable: fall back to the smoothed solver. Real
                // input errors propagate.
                Err(SolverError::LpNotOptimal { .. }) => {
                    let (w, report) = linf_fit_smoothed(&dense, s, &LinfOptions::default())?;
                    (w, Some(report))
                }
                Err(e) => return Err(e.into()),
            }
        }
        Objective::LInfSmoothed => {
            let (w, report) = linf_fit_smoothed(&a.to_dense(), s, &LinfOptions::default())?;
            (w, Some(report))
        }
    };
    if let Some(r) = &report {
        if !r.converged {
            // Deliberately a log, not an assert: budget exhaustion yields a
            // feasible (if slightly suboptimal) iterate, and some workloads
            // legitimately hit it. It must be *visible*, not fatal.
            selearn_obs::debug!(
                "{} exhausted {}/{} iterations without converging (residual {:.3e}) \
                 on a {}x{} system",
                r.solver,
                r.iters,
                r.max_iters,
                r.final_residual,
                a.rows(),
                a.cols()
            );
        }
    }
    Ok((w, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> (CsrMatrix, Vec<f64>) {
        let a = CsrMatrix::from_rows(&[
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.5],
            vec![1.0, 1.0, 1.0],
        ]);
        let s = vec![0.3, 0.7, 1.0];
        (a, s)
    }

    #[test]
    fn l2_solvers_agree() {
        let (a, s) = design();
        let w1 = estimate_weights(&a, &s, &Objective::L2, &WeightSolver::Fista)
            .unwrap()
            .0;
        let w2 = estimate_weights(&a, &s, &Objective::L2, &WeightSolver::NnlsPenalty)
            .unwrap()
            .0;
        assert!((a.residual_sq(&w1, &s) - a.residual_sq(&w2, &s)).abs() < 1e-5);
    }

    #[test]
    fn linf_variants_feasible() {
        let (a, s) = design();
        for obj in [Objective::LInfExact, Objective::LInfSmoothed] {
            let w = estimate_weights(&a, &s, &obj, &WeightSolver::Fista)
                .unwrap()
                .0;
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(w.iter().all(|&v| v >= -1e-9));
        }
    }

    #[test]
    fn no_queries_gives_uniform() {
        let a = CsrMatrix::with_cols(4);
        let w = estimate_weights(&a, &[], &Objective::L2, &WeightSolver::Fista)
            .unwrap()
            .0;
        for &v in &w {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_buckets_is_typed_error() {
        let a = CsrMatrix::from_rows(&[vec![]]);
        let err = estimate_weights(&a, &[0.5], &Objective::L2, &WeightSolver::Fista).unwrap_err();
        assert!(matches!(
            err,
            SelearnError::Solver(SolverError::EmptyProblem { .. })
        ));
    }

    #[test]
    fn nan_labels_are_typed_errors() {
        let (a, _) = design();
        let s = vec![0.3, f64::NAN, 1.0];
        for obj in [Objective::L2, Objective::LInfExact, Objective::LInfSmoothed] {
            let err = estimate_weights(&a, &s, &obj, &WeightSolver::Fista).unwrap_err();
            assert!(
                matches!(
                    err,
                    SelearnError::Solver(SolverError::NonFiniteInput { .. })
                ),
                "{obj:?} gave {err}"
            );
        }
    }

    #[test]
    fn length_mismatch_is_typed_error() {
        let (a, _) = design();
        let err = estimate_weights(&a, &[0.5], &Objective::L2, &WeightSolver::Fista).unwrap_err();
        assert!(matches!(
            err,
            SelearnError::Solver(SolverError::DimensionMismatch { .. })
        ));
    }
}
