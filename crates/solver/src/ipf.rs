//! Iterative proportional fitting (IPF) for maximum-entropy weights.
//!
//! The ISOMER baseline [Srivastava et al., ICDE 2006] assigns bucket
//! densities by choosing the **maximum-entropy** distribution consistent
//! with the observed query selectivities. With fractional bucket coverage
//! `f_ij = vol(B_j ∩ R_i)/vol(B_j)` and constraints `Σ_j f_ij w_j = s_i`,
//! `Σ_j w_j = 1`, the I-projection can be computed by cyclically rescaling:
//! for each constraint `i`, multiply the weights by
//! `(s_i/ŝ_i)^{f_ij} · ((1−s_i)/(1−ŝ_i))^{1−f_ij}` — the classic
//! raking/GIS update, which preserves the total mass constraint in the
//! binary-membership case and converges to the max-entropy solution when
//! the constraints are consistent.

use crate::error::{check_finite, check_len, SolverError};
use crate::matrix::DenseMatrix;
use crate::report::SolveReport;

/// IPF configuration.
#[derive(Clone, Debug)]
pub struct IpfOptions {
    /// Maximum full passes over the constraint set.
    pub max_passes: usize,
    /// Stop once every constraint is satisfied to this absolute tolerance.
    pub tol: f64,
    /// Clamp on per-step multiplicative factors, for robustness against
    /// inconsistent constraints (real query feedback can be noisy).
    pub max_factor: f64,
}

impl Default for IpfOptions {
    fn default() -> Self {
        Self {
            max_passes: 200,
            tol: 1e-6,
            max_factor: 1e3,
        }
    }
}

/// IPF output.
#[derive(Clone, Debug)]
pub struct IpfResult {
    /// Bucket weights (sum to 1).
    pub weights: Vec<f64>,
    /// Worst absolute constraint violation at termination.
    pub max_violation: f64,
    /// Passes performed.
    pub passes: usize,
    /// `true` when every constraint was met to tolerance; `false` when
    /// the pass budget ran out (e.g. on inconsistent query feedback).
    pub converged: bool,
    /// The `max_passes` budget the solve ran with (for the report).
    pub max_passes: usize,
}

impl IpfResult {
    /// This solve's outcome as a [`SolveReport`] (`final_residual` is the
    /// worst absolute constraint violation).
    pub fn report(&self) -> SolveReport {
        SolveReport {
            solver: "ipf",
            iters: self.passes,
            max_iters: self.max_passes,
            converged: self.converged,
            final_residual: self.max_violation,
        }
    }
}

/// Computes max-entropy-style weights satisfying `A w ≈ s`, `Σ w = 1`,
/// `w ≥ 0`, where `A[i][j] ∈ [0, 1]` is the fraction of bucket `j` covered
/// by query `i`.
///
/// Returns a typed [`SolverError`] on empty problems, shape mismatches,
/// non-finite inputs, or invalid options.
pub fn ipf_max_entropy(
    a: &DenseMatrix,
    s: &[f64],
    opts: &IpfOptions,
) -> Result<IpfResult, SolverError> {
    let m = a.cols();
    if m == 0 {
        return Err(SolverError::EmptyProblem { solver: "ipf" });
    }
    check_len("ipf", "labels", a.rows(), s.len())?;
    if let Some((index, value)) = a.first_non_finite() {
        return Err(SolverError::NonFiniteInput {
            solver: "ipf",
            what: "coverage matrix",
            index,
            value,
        });
    }
    check_finite("ipf", "labels", s)?;
    if !opts.tol.is_finite() || opts.tol < 0.0 {
        return Err(SolverError::InvalidOptions {
            solver: "ipf",
            what: "tol",
        });
    }
    if !opts.max_factor.is_finite() || opts.max_factor < 1.0 {
        return Err(SolverError::InvalidOptions {
            solver: "ipf",
            what: "max_factor",
        });
    }
    let mut w = vec![1.0 / m as f64; m];
    let mut passes = 0;
    let mut max_violation = violation(a, &w, s);

    for pass in 0..opts.max_passes {
        passes = pass + 1;
        #[allow(clippy::needless_range_loop)] // indexed form is clearer here
        for i in 0..a.rows() {
            let row = a.row(i);
            let shat: f64 = row.iter().zip(&w).map(|(f, wj)| f * wj).sum();
            let si = s[i].clamp(0.0, 1.0);
            // in-factor for covered mass, out-factor to preserve Σw = 1
            let fin = if shat > 1e-12 {
                (si / shat).clamp(1.0 / opts.max_factor, opts.max_factor)
            } else if si > 1e-12 {
                opts.max_factor
            } else {
                1.0
            };
            let fout = if shat < 1.0 - 1e-12 {
                ((1.0 - si) / (1.0 - shat)).clamp(1.0 / opts.max_factor, opts.max_factor)
            } else {
                1.0
            };
            for (j, wj) in w.iter_mut().enumerate() {
                let f = row[j].clamp(0.0, 1.0);
                // geometric interpolation between in- and out-factors
                *wj *= fin.powf(f) * fout.powf(1.0 - f);
            }
            // renormalize (exact for binary coverage, corrective otherwise)
            let total: f64 = w.iter().sum();
            if total > 1e-12 {
                for wj in &mut w {
                    *wj /= total;
                }
            }
        }
        max_violation = violation(a, &w, s);
        if max_violation < opts.tol {
            break;
        }
    }

    let result = IpfResult {
        weights: w,
        max_violation,
        passes,
        converged: max_violation < opts.tol,
        max_passes: opts.max_passes,
    };
    result.report().emit();
    Ok(result)
}

fn violation(a: &DenseMatrix, w: &[f64], s: &[f64]) -> f64 {
    a.residual(w, s).iter().map(|r| r.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_binary_constraint() {
        // Buckets {1, 2}; query covers bucket 1 fully with s = 0.3.
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0]]);
        let r = ipf_max_entropy(&a, &[0.3], &IpfOptions::default()).unwrap();
        assert!(r.max_violation < 1e-6);
        assert!((r.weights[0] - 0.3).abs() < 1e-5);
        assert!((r.weights[1] - 0.7).abs() < 1e-5);
    }

    #[test]
    fn max_entropy_spreads_mass_uniformly() {
        // 3 buckets; query covers buckets 1–2 with s = 0.5. Max-entropy
        // splits 0.5 evenly inside and leaves 0.5 on bucket 3.
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 0.0]]);
        let r = ipf_max_entropy(&a, &[0.5], &IpfOptions::default()).unwrap();
        assert!(r.max_violation < 1e-6);
        assert!((r.weights[0] - 0.25).abs() < 1e-4);
        assert!((r.weights[1] - 0.25).abs() < 1e-4);
        assert!((r.weights[2] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn two_overlapping_constraints() {
        // Buckets {a, b, c}; q1 = {a, b} with s = 0.6, q2 = {b, c} with 0.7.
        // Consistency: w_a + w_b = 0.6, w_b + w_c = 0.7, Σ = 1 ⇒ w_b = 0.3.
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 1.0]]);
        let r = ipf_max_entropy(&a, &[0.6, 0.7], &IpfOptions::default()).unwrap();
        assert!(r.max_violation < 1e-5, "violation {}", r.max_violation);
        assert!((r.weights[1] - 0.3).abs() < 1e-3, "{:?}", r.weights);
    }

    #[test]
    fn weights_remain_simplex() {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.5, 0.0, 0.2],
            vec![0.0, 0.5, 1.0, 0.8],
        ]);
        let r = ipf_max_entropy(&a, &[0.4, 0.5], &IpfOptions::default()).unwrap();
        let total: f64 = r.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.weights.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn inconsistent_constraints_dont_blow_up() {
        // Contradictory: same bucket must have weight 0.2 and 0.8.
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let r = ipf_max_entropy(&a, &[0.2, 0.8], &IpfOptions::default()).unwrap();
        assert!(r.weights.iter().all(|v| v.is_finite()));
        let total: f64 = r.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_coverage() {
        // Query covers half of bucket 1 (f = 0.5): 0.5 w1 = 0.2 ⇒ w1 = 0.4.
        let a = DenseMatrix::from_rows(&[vec![0.5, 0.0]]);
        let r = ipf_max_entropy(&a, &[0.2], &IpfOptions::default()).unwrap();
        assert!(r.max_violation < 1e-5);
        assert!((r.weights[0] - 0.4).abs() < 1e-3, "{:?}", r.weights);
    }

    #[test]
    fn zero_selectivity_query_empties_buckets() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0, 0.0]]);
        let r = ipf_max_entropy(&a, &[0.0], &IpfOptions::default()).unwrap();
        assert!(r.weights[0] < 1e-6);
        assert!((r.weights[1] - 0.5).abs() < 1e-4);
    }
}
