//! The sparse kernels against the dense ones, bit for bit.
//!
//! FISTA runs on [`CsrMatrix`]; its iterates (and so every trained weight)
//! stay identical to the dense solver's only if `A x`, `Aᵀ x` and the
//! power iteration return the same bits as [`DenseMatrix`]'s, sign of zero
//! included. Matrices cover densities 0, ≈0.3 and 1 with forced all-zero
//! rows and columns and some `−0.0` entries; vectors mix positive,
//! negative, `+0.0` and `−0.0` entries.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_solver::{CsrMatrix, DenseMatrix};

/// An entry that is nonzero with probability `density`; nonzeros are
/// mostly in (0, 1] like Equation (6) coverage fractions, sometimes
/// negative or `−0.0`.
fn entry(rng: &mut StdRng, density: f64) -> f64 {
    if rng.gen::<f64>() >= density {
        return 0.0;
    }
    match rng.gen_range(0u32..10) {
        0 => -rng.gen::<f64>(),
        1 => -0.0,
        _ => rng.gen::<f64>(),
    }
}

/// A vector entry: positive, negative, `+0.0` or `−0.0`.
fn x_entry(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..6) {
        0 => 0.0,
        1 => -0.0,
        2 => -rng.gen::<f64>() * 3.0,
        _ => rng.gen::<f64>() * 3.0,
    }
}

/// A `rows × cols` matrix at `density`, with row 0 and column 0 all zero
/// when `blank` is set.
fn matrix(rng: &mut StdRng, rows: usize, cols: usize, density: f64, blank: bool) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            if !(blank && (i == 0 || j == 0)) {
                a[(i, j)] = entry(rng, density);
            }
        }
    }
    a
}

fn vector(rng: &mut StdRng, n: usize, all_negative: bool) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let v = x_entry(rng);
            if all_negative {
                -v.abs()
            } else {
                v
            }
        })
        .collect()
}

fn same_bits(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{what}[{k}]: sparse {g:e} ({:#x}) vs dense {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

/// Every kernel of the sparse form of `a` against the dense kernel.
fn check_kernels(a: &DenseMatrix, rng: &mut StdRng, all_negative: bool) -> Result<(), TestCaseError> {
    let csr = CsrMatrix::from_dense(a);
    prop_assert_eq!(&csr.to_dense(), a);
    let x = vector(rng, a.cols(), all_negative);
    let z = vector(rng, a.rows(), all_negative);
    same_bits(&csr.matvec(&x), &a.matvec(&x), "Ax")?;
    same_bits(&csr.matvec_t(&z), &a.matvec_t(&z), "Atx")?;
    let b = vector(rng, a.rows(), false);
    same_bits(&csr.residual(&x, &b), &a.residual(&x, &b), "Ax-b")?;
    same_bits(&[csr.residual_sq(&x, &b)], &[a.residual_sq(&x, &b)], "|Ax-b|^2")?;
    same_bits(
        &[csr.gram_spectral_norm(12)],
        &[a.gram_spectral_norm(12)],
        "lambda_max",
    )?;
    Ok(())
}

const DENSITIES: [f64; 3] = [0.0, 0.3, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_kernels_match_dense_bitwise(
        seed in 0u64..u64::MAX,
        rows in 1usize..24,
        cols in 1usize..24,
        density in 0usize..3,
        flags in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = matrix(&mut rng, rows, cols, DENSITIES[density], flags & 1 == 1);
        check_kernels(&a, &mut rng, flags & 2 == 2)?;
    }
}

