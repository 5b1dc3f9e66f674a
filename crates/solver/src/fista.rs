//! FISTA — accelerated projected gradient descent on the simplex.
//!
//! Default solver for the weight-estimation QP (Equation 8):
//! `min ‖Aw − s‖²` over the probability simplex. Each iteration costs
//! three sparse matrix-vector products, so it scales to the paper's
//! largest instances (2000 training queries × 8000 buckets) where an
//! active-set method would struggle. Uses the Beck–Teboulle momentum
//! schedule with adaptive restart (O'Donoghue–Candès) for robustness.

use crate::error::{check_finite, check_len, SolverError};
use crate::csr::CsrMatrix;
use crate::report::SolveReport;
use crate::simplex_proj::simplex_projection_into;

/// FISTA configuration.
#[derive(Clone, Debug)]
pub struct FistaOptions {
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Stop when the squared-loss improvement over an iteration falls below
    /// this value (relative to the current loss + 1e-12).
    pub rel_tol: f64,
    /// Power-iteration count used to estimate the gradient Lipschitz
    /// constant `L = λ_max(AᵀA)`.
    pub power_iters: usize,
}

impl Default for FistaOptions {
    fn default() -> Self {
        // 700 accelerated iterations reach ~1e-6 relative accuracy on the
        // well-scaled design matrices of Equation (6) — far below the
        // statistical error of the estimators — while keeping training of
        // the largest paper configurations (thousands of buckets) fast.
        Self {
            max_iters: 700,
            rel_tol: 1e-10,
            power_iters: 30,
        }
    }
}

/// FISTA output.
#[derive(Clone, Debug)]
pub struct FistaResult {
    /// The weight vector on the simplex.
    pub weights: Vec<f64>,
    /// Final squared loss `‖Aw − s‖²`.
    pub loss: f64,
    /// Iterations actually performed.
    pub iters: usize,
    /// `true` when the relative-improvement criterion fired; `false` when
    /// `max_iters` was exhausted and the last iterate was returned as-is.
    pub converged: bool,
    /// The `max_iters` budget the solve ran with (for the report).
    pub max_iters: usize,
}

impl FistaResult {
    /// This solve's outcome as a [`SolveReport`] (`final_residual` is the
    /// LS residual norm `‖Aw − s‖`, the square root of [`Self::loss`]).
    pub fn report(&self) -> SolveReport {
        SolveReport {
            solver: "fista",
            iters: self.iters,
            max_iters: self.max_iters,
            converged: self.converged,
            final_residual: self.loss.max(0.0).sqrt(),
        }
    }
}

/// Minimizes `‖Aw − s‖²` over the probability simplex.
///
/// `a` is sparse: each iteration's three products (`A y`, `Aᵀ r` and the
/// loss's `A w`) touch only stored entries, and every product is
/// bit-identical to the dense kernel's (see [`crate::csr`]), so the
/// iterates do not depend on the storage. The iteration buffers are
/// allocated once per solve.
///
/// Returns a typed [`SolverError`] when `a` has zero columns, the row
/// count differs from `s`, any input entry is NaN/infinite (design entries
/// reported by row-major flat index), or `rel_tol` is negative or NaN.
pub fn fista_simplex_ls(
    a: &CsrMatrix,
    s: &[f64],
    opts: &FistaOptions,
) -> Result<FistaResult, SolverError> {
    if a.cols() == 0 {
        return Err(SolverError::EmptyProblem { solver: "fista" });
    }
    check_len("fista", "labels", a.rows(), s.len())?;
    if let Some((index, value)) = a.first_non_finite() {
        return Err(SolverError::NonFiniteInput {
            solver: "fista",
            what: "design matrix",
            index,
            value,
        });
    }
    check_finite("fista", "labels", s)?;
    if !opts.rel_tol.is_finite() || opts.rel_tol < 0.0 {
        return Err(SolverError::InvalidOptions {
            solver: "fista",
            what: "rel_tol",
        });
    }
    let m = a.cols();

    // Lipschitz constant of ∇f(w) = 2Aᵀ(Aw − s) is 2 λ_max(AᵀA).
    let lambda = a.gram_spectral_norm(opts.power_iters);
    let lip = (2.0 * lambda).max(1e-12);
    let step = 1.0 / lip;

    // Iteration buffers: residual, gradient, candidate iterate and the
    // projection's sort scratch.
    let mut r = vec![0.0; a.rows()];
    let mut g = vec![0.0; m];
    let mut w_next = vec![0.0; m];
    let mut sorted = Vec::with_capacity(m);
    // ‖A x − s‖², through the residual buffer.
    let loss_at = |x: &[f64], r: &mut [f64]| -> f64 {
        a.residual_into(x, s, r);
        r.iter().map(|ri| ri * ri).sum()
    };
    // out = Π_Δ(x − 2·step·∇f(x)/2): the projected gradient step from x.
    let mut gradient_step = |x: &[f64], out: &mut [f64], r: &mut [f64], g: &mut [f64]| {
        a.residual_into(x, s, r);
        a.matvec_t_into(r, g); // = ∇f(x) / 2
        for ((o, &xi), &gi) in out.iter_mut().zip(x).zip(g.iter()) {
            *o = xi - 2.0 * step * gi;
        }
        simplex_projection_into(out, &mut sorted);
    };

    // Start from the uniform distribution.
    let mut w = vec![1.0 / m as f64; m];
    let mut y = w.clone();
    let mut t = 1.0f64;
    let mut loss_prev = loss_at(&w, &mut r);
    let mut iters = 0;
    let mut converged = false;

    for k in 0..opts.max_iters {
        iters = k + 1;
        if selearn_obs::enabled() {
            selearn_obs::solver_iteration("fista", k, loss_prev.max(0.0).sqrt(), step);
        }
        // gradient step at the extrapolated point y
        gradient_step(&y, &mut w_next, &mut r, &mut g);
        let loss = loss_at(&w_next, &mut r);
        // adaptive restart: if the objective went up, drop the momentum
        if loss > loss_prev {
            t = 1.0;
            // re-take a plain projected-gradient step from w (into w_next,
            // whose rejected candidate is no longer needed)
            gradient_step(&w, &mut w_next, &mut r, &mut g);
            let loss_pg = loss_at(&w_next, &mut r);
            let mut stop = false;
            if loss_pg <= loss_prev {
                std::mem::swap(&mut w, &mut w_next);
                stop = loss_prev - loss_pg < opts.rel_tol * (loss_prev + 1e-12);
                loss_prev = loss_pg;
            }
            y.copy_from_slice(&w);
            if stop {
                converged = true;
                break;
            }
            continue;
        }

        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_next;
        for ((yi, &wn), &wo) in y.iter_mut().zip(&w_next).zip(&w) {
            *yi = wn + beta * (wn - wo);
        }
        let improved = loss_prev - loss;
        let stop = improved >= 0.0 && improved < opts.rel_tol * (loss_prev + 1e-12);
        std::mem::swap(&mut w, &mut w_next);
        t = t_next;
        loss_prev = loss;
        if stop {
            converged = true;
            break;
        }
    }

    let result = FistaResult {
        loss: loss_prev,
        weights: w,
        iters,
        converged,
        max_iters: opts.max_iters,
    };
    if selearn_obs::sink_installed() {
        result.report().emit();
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;

    fn on_simplex(v: &[f64]) -> bool {
        (v.iter().sum::<f64>() - 1.0).abs() < 1e-7 && v.iter().all(|&x| x >= -1e-12)
    }

    #[test]
    fn recovers_exact_simplex_solution() {
        // A = I, s on the simplex ⇒ w = s exactly, loss 0.
        let a = CsrMatrix::from_dense(&DenseMatrix::identity(3));
        let s = vec![0.2, 0.3, 0.5];
        let r = fista_simplex_ls(&a, &s, &FistaOptions::default()).unwrap();
        assert!(on_simplex(&r.weights));
        assert!(r.loss < 1e-12, "loss = {}", r.loss);
        for (w, t) in r.weights.iter().zip(&s) {
            assert!((w - t).abs() < 1e-6);
        }
    }

    #[test]
    fn infeasible_target_projects() {
        // s outside the simplex image: best fit is the simplex projection.
        let a = CsrMatrix::from_dense(&DenseMatrix::identity(2));
        let s = vec![2.0, 0.0];
        let r = fista_simplex_ls(&a, &s, &FistaOptions::default()).unwrap();
        assert!(on_simplex(&r.weights));
        // projection of (2, 0) onto the simplex is (1, 0)
        assert!((r.weights[0] - 1.0).abs() < 1e-6, "{:?}", r.weights);
    }

    #[test]
    fn overdetermined_consistent_system() {
        // Two buckets, three consistent observations: w = (0.25, 0.75).
        let a = CsrMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ]);
        let s = vec![0.25, 0.75, 1.0];
        let r = fista_simplex_ls(&a, &s, &FistaOptions::default()).unwrap();
        assert!(r.loss < 1e-10, "loss = {}", r.loss);
        assert!((r.weights[0] - 0.25).abs() < 1e-5);
        assert!((r.weights[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn matches_brute_force_on_2d() {
        // Dense 1-D sweep over the 1-simplex validates global optimality.
        let a = CsrMatrix::from_rows(&[vec![0.8, 0.1], vec![0.3, 0.9], vec![0.5, 0.5]]);
        let s = vec![0.4, 0.6, 0.55];
        let r = fista_simplex_ls(&a, &s, &FistaOptions::default()).unwrap();
        let mut best = f64::INFINITY;
        for i in 0..=10_000 {
            let w0 = i as f64 / 10_000.0;
            let w = [w0, 1.0 - w0];
            best = best.min(a.residual_sq(&w, &s));
        }
        assert!(r.loss <= best + 1e-8, "fista {} vs brute {}", r.loss, best);
    }

    #[test]
    fn zero_matrix_stays_feasible() {
        let a = CsrMatrix::from_dense(&DenseMatrix::zeros(2, 3));
        let s = vec![0.5, 0.5];
        let r = fista_simplex_ls(&a, &s, &FistaOptions::default()).unwrap();
        assert!(on_simplex(&r.weights));
        assert!((r.loss - 0.5).abs() < 1e-12); // residual is −s regardless
    }

    #[test]
    fn respects_iteration_budget() {
        let a = CsrMatrix::from_dense(&DenseMatrix::identity(4));
        let s = vec![0.25; 4];
        let opts = FistaOptions {
            max_iters: 3,
            ..Default::default()
        };
        let r = fista_simplex_ls(&a, &s, &opts).unwrap();
        assert!(r.iters <= 3);
    }

    #[test]
    fn budget_exhaustion_is_reported_not_silent() {
        // A non-trivial system with a 1-iteration budget cannot meet the
        // rel_tol criterion; the report must say so instead of pretending.
        let a = CsrMatrix::from_rows(&[vec![0.8, 0.1], vec![0.3, 0.9], vec![0.5, 0.5]]);
        let s = vec![0.4, 0.6, 0.55];
        let opts = FistaOptions {
            max_iters: 1,
            ..Default::default()
        };
        let r = fista_simplex_ls(&a, &s, &opts).unwrap();
        assert!(!r.converged);
        let rep = r.report();
        assert_eq!(rep.solver, "fista");
        assert_eq!(rep.max_iters, 1);
        assert!(!rep.converged);
        assert!(rep.final_residual.is_finite());

        // ...and a generous budget converges and reports it.
        let r = fista_simplex_ls(&a, &s, &FistaOptions::default()).unwrap();
        assert!(r.converged);
        assert!(r.iters < r.max_iters);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_feasible_and_no_worse_than_uniform(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0f64..1.0, 4), 1..12),
            s in proptest::collection::vec(0.0f64..1.0, 12),
        ) {
            let n = rows.len();
            let a = CsrMatrix::from_rows(&rows);
            let s = &s[..n];
            let r = fista_simplex_ls(&a, s, &FistaOptions::default()).unwrap();
            proptest::prop_assert!(on_simplex(&r.weights));
            let uniform = vec![0.25; 4];
            proptest::prop_assert!(r.loss <= a.residual_sq(&uniform, s) + 1e-8);
        }
    }
}
