//! Property-based invariants for the weight solvers.
//!
//! These are the contracts the estimation pipeline (Equation 8) leans on:
//! the simplex projection really lands on the simplex and is idempotent,
//! and both simplex-constrained least-squares solvers return distributions.

use proptest::prelude::*;
use selearn_solver::{
    fista_simplex_ls, nnls_simplex, simplex_projection, CsrMatrix, DenseMatrix, FistaOptions,
    NnlsOptions,
};

const MAX_ROWS: usize = 12;
const MAX_COLS: usize = 8;

/// Builds an `r × c` design matrix from a fixed-size entry pool.
fn matrix_from(entries: &[f64], r: usize, c: usize) -> DenseMatrix {
    DenseMatrix::from_vec(r, c, entries[..r * c].to_vec())
}

fn assert_on_simplex(w: &[f64], cols: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.len(), cols);
    prop_assert!(w.iter().all(|&x| x >= 0.0), "negative weight in {w:?}");
    let total: f64 = w.iter().sum();
    prop_assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simplex_projection_is_on_simplex_and_idempotent(
        v in proptest::collection::vec(-20.0f64..20.0, 1..40)
    ) {
        let mut w = v;
        simplex_projection(&mut w);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        let s: f64 = w.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-8, "sum = {s}");
        // idempotency: projecting a point already on the simplex is a no-op
        let mut again = w.clone();
        simplex_projection(&mut again);
        for (a, b) in again.iter().zip(&w) {
            prop_assert!((a - b).abs() < 1e-9, "not idempotent: {a} vs {b}");
        }
    }

    #[test]
    fn fista_output_stays_on_simplex(
        entries in proptest::collection::vec(0.0f64..1.0, MAX_ROWS * MAX_COLS),
        s_pool in proptest::collection::vec(0.0f64..1.0, MAX_ROWS),
        r in 1usize..MAX_ROWS,
        c in 1usize..MAX_COLS,
    ) {
        let a = matrix_from(&entries, r, c);
        let out = fista_simplex_ls(&CsrMatrix::from_dense(&a), &s_pool[..r], &FistaOptions::default())
            .unwrap();
        assert_on_simplex(&out.weights, c)?;
        prop_assert!(out.loss >= 0.0);
    }

    #[test]
    fn nnls_simplex_output_stays_on_simplex(
        entries in proptest::collection::vec(0.0f64..1.0, MAX_ROWS * MAX_COLS),
        s_pool in proptest::collection::vec(0.0f64..1.0, MAX_ROWS),
        r in 1usize..MAX_ROWS,
        c in 1usize..MAX_COLS,
    ) {
        let a = matrix_from(&entries, r, c);
        let w = nnls_simplex(&a, &s_pool[..r], &NnlsOptions::default()).unwrap().0;
        assert_on_simplex(&w, c)?;
    }
}
