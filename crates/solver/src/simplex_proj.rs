//! Euclidean projection onto the probability simplex.
//!
//! `Δ = {w : Σ w_j = 1, w_j ≥ 0}` is the feasible region of Equation (8)
//! (the constraint `w_j ≤ 1` is implied). The projection is computed with
//! the sort-based algorithm of Duchi, Shalev-Shwartz, Singer & Chandra
//! (ICML 2008), `O(m log m)`.

use crate::error::{check_finite, SolverError};

/// Projects `v` onto the probability simplex in place.
///
/// NaN entries cannot occur on the validated solver paths (every public
/// solver checks its inputs first); if one slips in anyway the NaN-total
/// ordering keeps the sort deterministic instead of panicking, and the
/// output degrades to NaN rather than aborting the process. Untrusted
/// input should go through [`try_simplex_projection`].
///
/// An empty vector is a no-op (the zero-dimensional simplex is empty, so
/// there is nothing to project — callers that need to treat this as an
/// error use the checked variant).
pub fn simplex_projection(v: &mut [f64]) {
    simplex_projection_into(v, &mut Vec::new());
}

/// [`simplex_projection`] with a caller-owned sort buffer, so an
/// iterative solver projects every iterate without allocating.
pub(crate) fn simplex_projection_into(v: &mut [f64], sorted: &mut Vec<f64>) {
    if v.is_empty() {
        return;
    }
    // Sort a copy in descending order. `total_cmp` is a total order on bit
    // patterns, so the unstable sort yields the same sequence as a stable
    // one, and NaNs sort to a deterministic position instead of violating
    // the comparator contract and panicking.
    sorted.clear();
    sorted.extend_from_slice(v);
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    // θ at ρ = max{ j : u_j − (Σ_{k≤j} u_k − 1)/j > 0 }.
    let mut cumsum = 0.0;
    let mut theta = 0.0;
    for (j, &uj) in sorted.iter().enumerate() {
        cumsum += uj;
        let t = (cumsum - 1.0) / (j as f64 + 1.0);
        if uj - t > 0.0 {
            theta = t;
        }
    }
    for w in v.iter_mut() {
        *w = (*w - theta).max(0.0);
    }
}

/// Validating projection for untrusted input: rejects empty and non-finite
/// vectors with a typed [`SolverError`] instead of panicking or silently
/// producing NaN weights.
pub fn try_simplex_projection(v: &mut [f64]) -> Result<(), SolverError> {
    if v.is_empty() {
        return Err(SolverError::EmptyProblem {
            solver: "simplex-projection",
        });
    }
    check_finite("simplex-projection", "input vector", v)?;
    simplex_projection(v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_on_simplex(v: &[f64]) {
        let s: f64 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum = {s}");
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn already_on_simplex_is_fixed_point() {
        let mut v = vec![0.2, 0.3, 0.5];
        simplex_projection(&mut v);
        assert!((v[0] - 0.2).abs() < 1e-12);
        assert!((v[1] - 0.3).abs() < 1e-12);
        assert!((v[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_shift_removed() {
        // Adding a constant to a simplex point projects back to it.
        let mut v = vec![0.2 + 5.0, 0.3 + 5.0, 0.5 + 5.0];
        simplex_projection(&mut v);
        assert!((v[0] - 0.2).abs() < 1e-9);
        assert!((v[1] - 0.3).abs() < 1e-9);
        assert!((v[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn negative_entries_clipped() {
        let mut v = vec![-1.0, 2.0];
        simplex_projection(&mut v);
        assert_on_simplex(&v);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singleton() {
        let mut v = vec![42.0];
        simplex_projection(&mut v);
        assert_eq!(v, vec![1.0]);
    }

    #[test]
    fn zero_vector_projects_to_uniform() {
        let mut v = vec![0.0; 4];
        simplex_projection(&mut v);
        for &x in &v {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_is_idempotent() {
        let mut v = vec![0.9, -0.4, 1.7, 0.05, -2.0];
        simplex_projection(&mut v);
        assert_on_simplex(&v);
        let w = v.clone();
        simplex_projection(&mut v);
        for (a, b) in v.iter().zip(&w) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_minimizes_distance() {
        // Brute-force check against a fine grid on the 2-simplex.
        let target = [0.9, 0.7, -0.1];
        let mut v = target.to_vec();
        simplex_projection(&mut v);
        assert_on_simplex(&v);
        let dist = |w: &[f64]| -> f64 {
            w.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        let proj_d = dist(&v);
        let steps = 200;
        for i in 0..=steps {
            for j in 0..=(steps - i) {
                let w = [
                    i as f64 / steps as f64,
                    j as f64 / steps as f64,
                    (steps - i - j) as f64 / steps as f64,
                ];
                assert!(dist(&w) >= proj_d - 1e-9);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_output_on_simplex(v in proptest::collection::vec(-10.0f64..10.0, 1..50)) {
            let mut w = v;
            simplex_projection(&mut w);
            let s: f64 = w.iter().sum();
            proptest::prop_assert!((s - 1.0).abs() < 1e-8);
            proptest::prop_assert!(w.iter().all(|&x| x >= 0.0));
        }

        #[test]
        fn prop_order_preserved(v in proptest::collection::vec(-10.0f64..10.0, 2..30)) {
            // Projection is order-preserving: v_i ≥ v_j ⇒ w_i ≥ w_j.
            let mut w = v.clone();
            simplex_projection(&mut w);
            for i in 0..v.len() {
                for j in 0..v.len() {
                    if v[i] >= v[j] {
                        proptest::prop_assert!(w[i] >= w[j] - 1e-9);
                    }
                }
            }
        }
    }
}
