//! Lawson–Hanson non-negative least squares.
//!
//! The paper's reference implementation solved Equation (8) with
//! `scipy.optimize.nnls` (reference 1 of the paper). scipy's `nnls` *is*
//! the Lawson–Hanson active-set algorithm (Solving Least Squares Problems,
//! 1974, Ch. 23), re-implemented here. The simplex constraint `Σ w = 1` is
//! enforced the same way the authors' code does it: by appending a heavily
//! weighted penalty row `√ρ · 1ᵀ w = √ρ`.

use crate::error::{check_finite, check_len, SolverError};
use crate::matrix::DenseMatrix;
use crate::report::SolveReport;

/// NNLS configuration.
#[derive(Clone, Debug)]
pub struct NnlsOptions {
    /// Maximum number of outer (active-set) iterations; `0` means the
    /// conventional `3 · cols` bound.
    pub max_iters: usize,
    /// Dual-feasibility tolerance on `Aᵀ(b − Ax)`.
    pub tol: f64,
    /// Penalty weight `ρ` for the `Σ w = 1` row in [`nnls_simplex`].
    pub sum_penalty: f64,
}

impl Default for NnlsOptions {
    fn default() -> Self {
        Self {
            max_iters: 0,
            tol: 1e-10,
            sum_penalty: 1e4,
        }
    }
}

/// Shared input validation for the NNLS entry points.
fn validate_nnls(a: &DenseMatrix, b: &[f64], opts: &NnlsOptions) -> Result<(), SolverError> {
    check_len("nnls", "labels", a.rows(), b.len())?;
    if let Some((index, value)) = a.first_non_finite() {
        return Err(SolverError::NonFiniteInput {
            solver: "nnls",
            what: "design matrix",
            index,
            value,
        });
    }
    check_finite("nnls", "labels", b)?;
    if !opts.tol.is_finite() || opts.tol < 0.0 {
        return Err(SolverError::InvalidOptions {
            solver: "nnls",
            what: "tol",
        });
    }
    if !opts.sum_penalty.is_finite() || opts.sum_penalty <= 0.0 {
        return Err(SolverError::InvalidOptions {
            solver: "nnls",
            what: "sum_penalty",
        });
    }
    Ok(())
}

/// Solves `min ‖Ax − b‖²` subject to `x ≥ 0` (Lawson–Hanson).
///
/// Returns the nonnegative least-squares solution with a [`SolveReport`],
/// or a typed [`SolverError`] on shape mismatches and NaN/infinite input.
/// The report's `converged` is `true` when the KKT conditions were
/// satisfied, `false` when the active-set budget was exhausted and the
/// last iterate was returned. The passive-set subproblems are solved
/// through the normal equations with Cholesky, which is accurate for the
/// well-scaled design matrices produced by Equation (6) (entries in
/// `[0, 1]`). Emits per-iteration convergence events and a terminal
/// `solver-report` event when observability is enabled; bumps the
/// `active_set_swaps` counter on every passive-set change.
pub fn nnls(
    a: &DenseMatrix,
    b: &[f64],
    opts: &NnlsOptions,
) -> Result<(Vec<f64>, SolveReport), SolverError> {
    validate_nnls(a, b, opts)?;
    let m = a.cols();
    let max_iters = if opts.max_iters == 0 {
        3 * m.max(1)
    } else {
        opts.max_iters
    };

    let mut x = vec![0.0f64; m];
    let mut passive = vec![false; m];
    let mut n_passive = 0usize;
    let mut iters = 0usize;
    let mut converged = false;
    let mut last_res = f64::NAN;

    for k in 0..max_iters {
        iters = k + 1;
        // dual w = Aᵀ(b − Ax)
        let r: Vec<f64> = {
            let ax = a.matvec(&x);
            b.iter().zip(ax).map(|(&bi, axi)| bi - axi).collect()
        };
        let w = a.matvec_t(&r);

        // pick the most violated dual among the active set
        let mut best: Option<(usize, f64)> = None;
        for j in 0..m {
            if !passive[j] && w[j] > opts.tol
                && best.is_none_or(|(_, bw)| w[j] > bw) {
                    best = Some((j, w[j]));
                }
        }
        last_res = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if selearn_obs::enabled() {
            selearn_obs::solver_iteration("nnls", k, last_res, best.map_or(0.0, |(_, v)| v));
        }
        let Some((enter, _)) = best else {
            converged = true; // KKT satisfied
            iters = k;
            break;
        };
        passive[enter] = true;
        n_passive += 1;
        selearn_obs::counter_add("active_set_swaps", 1);

        // inner loop: solve LS on the passive set; backtrack if infeasible
        loop {
            let idx: Vec<usize> = (0..m).filter(|&j| passive[j]).collect();
            let z = solve_ls_subset(a, b, &idx);
            let Some(z) = z else {
                // singular subproblem: drop the entering variable and stop
                passive[enter] = false;
                n_passive -= 1;
                break;
            };
            if z.iter().all(|&v| v > 0.0) {
                for (k, &j) in idx.iter().enumerate() {
                    x[j] = z[k];
                }
                break;
            }
            // step toward z as far as feasibility allows
            let mut alpha = f64::INFINITY;
            for (k, &j) in idx.iter().enumerate() {
                if z[k] <= 0.0 {
                    let denom = x[j] - z[k];
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            let alpha = alpha.clamp(0.0, 1.0);
            for (k, &j) in idx.iter().enumerate() {
                x[j] += alpha * (z[k] - x[j]);
            }
            // deactivate variables that hit zero
            for &j in &idx {
                if x[j] <= opts.tol * opts.tol {
                    x[j] = 0.0;
                    if passive[j] {
                        passive[j] = false;
                        n_passive -= 1;
                        selearn_obs::counter_add("active_set_swaps", 1);
                    }
                }
            }
            if n_passive == 0 {
                break;
            }
        }
    }

    // On the KKT exit `x` is unchanged since `last_res` was measured; on
    // budget exhaustion it is not, so recompute (rare, diagnostic path).
    let final_residual = if converged && last_res.is_finite() {
        last_res
    } else {
        let ax = a.matvec(&x);
        b.iter()
            .zip(ax)
            .map(|(&bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
    };
    let report = SolveReport {
        solver: "nnls",
        iters,
        max_iters,
        converged,
        final_residual,
    };
    report.emit();
    Ok((x, report))
}

/// Unconstrained least squares restricted to the columns `idx`, via normal
/// equations + Cholesky with a tiny ridge for numerical safety.
fn solve_ls_subset(a: &DenseMatrix, b: &[f64], idx: &[usize]) -> Option<Vec<f64>> {
    let p = idx.len();
    if p == 0 {
        return Some(vec![]);
    }
    let mut gram = DenseMatrix::zeros(p, p);
    let mut rhs = vec![0.0f64; p];
    #[allow(clippy::needless_range_loop)] // indexed form is clearer here
    for r in 0..a.rows() {
        let row = a.row(r);
        for (ki, &i) in idx.iter().enumerate() {
            let v = row[i];
            if v == 0.0 {
                continue;
            }
            rhs[ki] += v * b[r];
            for (kj, &j) in idx.iter().enumerate().skip(ki) {
                gram[(ki, kj)] += v * row[j];
            }
        }
    }
    // symmetrize + ridge
    for i in 0..p {
        gram[(i, i)] += 1e-12;
        for j in (i + 1)..p {
            gram[(j, i)] = gram[(i, j)];
        }
    }
    // A singular subproblem is a normal active-set event (backtrack), not
    // an input error, so the typed error collapses back to Option here.
    gram.solve_spd(&rhs).ok()
}

/// Solves Equation (8) — simplex-constrained least squares — through NNLS
/// with a penalty row: minimize `‖Aw − s‖² + ρ (Σ w − 1)²` over `w ≥ 0`,
/// then renormalize the tiny residual drift so `Σ w = 1` exactly.
///
/// Returns the weights with the inner solve's [`SolveReport`], whose
/// `final_residual` is re-measured on the *original* system after the
/// simplex renormalization, so it is directly comparable to FISTA's.
pub fn nnls_simplex(
    a: &DenseMatrix,
    s: &[f64],
    opts: &NnlsOptions,
) -> Result<(Vec<f64>, SolveReport), SolverError> {
    validate_nnls(a, s, opts)?;
    let m = a.cols();
    if m == 0 {
        return Err(SolverError::EmptyProblem { solver: "nnls" });
    }
    let rho = opts.sum_penalty.sqrt();
    let mut aug = DenseMatrix::zeros(0, 0);
    for i in 0..a.rows() {
        aug.push_row(a.row(i));
    }
    aug.push_row(&vec![rho; m]);
    let mut b = s.to_vec();
    b.push(rho);
    let (mut w, mut report) = nnls(&aug, &b, opts)?;
    let total: f64 = w.iter().sum();
    if total > 1e-9 {
        for v in &mut w {
            *v /= total;
        }
    } else {
        // degenerate: fall back to uniform
        w = vec![1.0 / m as f64; m];
    }
    report.final_residual = a.residual_sq(&w, s).sqrt();
    Ok((w, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        // A = I, b ≥ 0 ⇒ x = b.
        let a = DenseMatrix::identity(3);
        let b = vec![1.0, 2.0, 3.0];
        let x = nnls(&a, &b, &NnlsOptions::default()).unwrap().0;
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn clips_negative_components() {
        // A = I, b = (1, −1) ⇒ x = (1, 0).
        let a = DenseMatrix::identity(2);
        let x = nnls(&a, &[1.0, -1.0], &NnlsOptions::default()).unwrap().0;
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn overdetermined_regression() {
        // Fit y = 2u with design [[1],[2],[3]] and b = [2,4,6].
        let a = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let x = nnls(&a, &[2.0, 4.0, 6.0], &NnlsOptions::default())
            .unwrap()
            .0;
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn correlated_columns() {
        // Classic NNLS example where the unconstrained solution is negative.
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.9],
            vec![0.9, 1.0],
            vec![0.5, 0.5],
        ]);
        let b = vec![1.0, 0.0, 0.3];
        let x = nnls(&a, &b, &NnlsOptions::default()).unwrap().0;
        assert!(x.iter().all(|&v| v >= 0.0));
        // KKT: dual Aᵀ(b − Ax) must be ≤ tol on active, ≈ 0 on passive.
        let r: Vec<f64> = {
            let ax = a.matvec(&x);
            b.iter().zip(ax).map(|(&bi, v)| bi - v).collect()
        };
        let w = a.matvec_t(&r);
        for (j, &xj) in x.iter().enumerate() {
            if xj > 0.0 {
                assert!(w[j].abs() < 1e-7, "stationarity violated: w[{j}] = {}", w[j]);
            } else {
                assert!(w[j] <= 1e-7, "dual feasibility violated: w[{j}] = {}", w[j]);
            }
        }
    }

    #[test]
    fn simplex_variant_sums_to_one() {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.5],
        ]);
        let s = vec![0.3, 0.7];
        let w = nnls_simplex(&a, &s, &NnlsOptions::default()).unwrap().0;
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&v| v >= 0.0));
        // achieved loss should be near-zero: w = (0.3, 0.7, 0) works
        assert!(a.residual_sq(&w, &s) < 1e-6);
    }

    #[test]
    fn simplex_variant_agrees_with_fista() {
        use crate::fista::{fista_simplex_ls, FistaOptions};
        let a = DenseMatrix::from_rows(&[
            vec![0.9, 0.1, 0.4],
            vec![0.2, 0.8, 0.5],
            vec![0.6, 0.6, 0.1],
            vec![0.3, 0.3, 0.9],
        ]);
        let s = vec![0.35, 0.55, 0.4, 0.5];
        let w1 = nnls_simplex(&a, &s, &NnlsOptions::default()).unwrap().0;
        let w2 = fista_simplex_ls(&crate::CsrMatrix::from_dense(&a), &s, &FistaOptions::default()).unwrap().weights;
        let l1 = a.residual_sq(&w1, &s);
        let l2 = a.residual_sq(&w2, &s);
        assert!(
            (l1 - l2).abs() < 1e-4,
            "losses diverge: nnls {l1} vs fista {l2}"
        );
    }

    #[test]
    fn report_tracks_kkt_convergence() {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.9],
            vec![0.9, 1.0],
            vec![0.5, 0.5],
        ]);
        let b = vec![1.0, 0.0, 0.3];
        let (x, rep) = nnls(&a, &b, &NnlsOptions::default()).unwrap();
        assert_eq!(rep.solver, "nnls");
        assert!(rep.converged, "well-posed instance must meet KKT");
        assert!(rep.iters <= rep.max_iters);
        // final_residual is the LS residual norm at the solution
        let expect = a.residual_sq(&x, &b).sqrt();
        assert!((rep.final_residual - expect).abs() < 1e-9);

        // exhausting a 1-iteration budget must be flagged
        let tight = NnlsOptions {
            max_iters: 1,
            ..Default::default()
        };
        let (_, rep) = nnls(&a, &b, &tight).unwrap();
        assert!(!rep.converged);
        assert_eq!(rep.iters, 1);
    }

    #[test]
    fn all_zero_design_stays_feasible() {
        // With a zero design every simplex point is equally optimal; the
        // active-set method picks a vertex — we only require feasibility.
        let a = DenseMatrix::zeros(2, 4);
        let w = nnls_simplex(&a, &[0.5, 0.5], &NnlsOptions::default())
            .unwrap()
            .0;
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&v| v >= 0.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_nonnegative_and_kkt(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0f64..1.0, 3), 2..8),
            b in proptest::collection::vec(0.0f64..1.0, 8),
        ) {
            let a = DenseMatrix::from_rows(&rows);
            let b = &b[..rows.len()];
            let x = nnls(&a, b, &NnlsOptions::default()).unwrap().0;
            proptest::prop_assert!(x.iter().all(|&v| v >= 0.0));
            // objective no worse than the zero vector
            let zero = vec![0.0; 3];
            proptest::prop_assert!(
                a.residual_sq(&x, b) <= a.residual_sq(&zero, b) + 1e-9);
        }
    }
}
