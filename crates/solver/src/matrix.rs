//! Minimal dense linear algebra.
//!
//! Sized for the paper's problem scales: design matrices with up to a few
//! thousand rows (training queries) and columns (buckets). Row-major
//! storage; no BLAS, no unsafe.

use crate::error::SolverError;

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested rows (for tests and small problems).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length differs from `cols` (unless the matrix is
    /// empty, in which case it sets the width).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot(self.row(i), x);
        }
        y
    }

    /// `y = Aᵀ x`, skipping zero entries of `x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        let mut y = vec![0.0; self.cols];
        #[allow(clippy::needless_range_loop)] // indexed form is clearer here
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += a * xi;
            }
        }
        y
    }

    /// Residual `A x − b`.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let mut r = self.matvec(x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        r
    }

    /// Squared residual norm `‖A x − b‖²`.
    pub fn residual_sq(&self, x: &[f64], b: &[f64]) -> f64 {
        self.residual(x, b).iter().map(|r| r * r).sum()
    }

    /// Largest eigenvalue of `AᵀA` (squared spectral norm of `A`) estimated
    /// by power iteration; used as the Lipschitz constant of the
    /// least-squares gradient in FISTA. Each iteration is one
    /// [`Self::matvec`] plus one [`Self::matvec_t`].
    pub fn gram_spectral_norm(&self, iters: usize) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        // deterministic start vector
        let mut v: Vec<f64> = (0..self.cols)
            .map(|j| 1.0 + (j as f64 * 0.618_033_988_749).fract())
            .collect();
        let mut lambda = 0.0;
        for _ in 0..iters {
            let av = self.matvec(&v);
            let atav = self.matvec_t(&av);
            let norm = atav.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm <= f64::MIN_POSITIVE {
                return 0.0;
            }
            lambda = norm;
            for (vi, ai) in v.iter_mut().zip(&atav) {
                *vi = ai / norm;
            }
        }
        lambda
    }

    /// Index (flat, row-major) and value of the first non-finite entry.
    pub fn first_non_finite(&self) -> Option<(usize, f64)> {
        self.data
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .map(|(i, &v)| (i, v))
    }

    /// Solves the symmetric positive-definite system `M x = b` via
    /// Cholesky, where `M` is `self` (must be square SPD). Returns
    /// [`SolverError::NotSpd`] when the factorization breaks down (matrix
    /// not SPD to tolerance) and a dimension error on shape mismatches.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        if self.rows != self.cols {
            return Err(SolverError::DimensionMismatch {
                solver: "solve_spd",
                what: "matrix must be square",
                expected: self.rows,
                got: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SolverError::DimensionMismatch {
                solver: "solve_spd",
                what: "right-hand side",
                expected: self.rows,
                got: b.len(),
            });
        }
        let n = self.rows;
        // Cholesky factor L (lower), column-oriented.
        let mut l = vec![0.0f64; n * n];
        for j in 0..n {
            let mut diag = self[(j, j)];
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            if diag.is_nan() || diag <= 1e-14 {
                // non-positive or NaN pivot: not SPD to tolerance
                return Err(SolverError::NotSpd);
            }
            let dj = diag.sqrt();
            l[j * n + j] = dj;
            for i in (j + 1)..n {
                let mut v = self[(i, j)];
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / dj;
            }
        }
        // forward substitution L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                let t = l[i * n + k] * y[k];
                y[i] -= t;
            }
            y[i] /= l[i * n + i];
        }
        // back substitution Lᵀ x = y
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let t = l[k * n + i] * x[k];
                x[i] -= t;
            }
            x[i] /= l[i * n + i];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_basic() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.matvec_t(&[1.0, 0.0, 1.0]), vec![6.0, 8.0]);
    }

    #[test]
    fn residual_and_norm() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let r = a.residual(&[2.0, 3.0], &[1.0, 1.0]);
        assert_eq!(r, vec![1.0, 2.0]);
        assert_eq!(a.residual_sq(&[2.0, 3.0], &[1.0, 1.0]), 5.0);
    }

    #[test]
    fn push_row_builds_matrix() {
        let mut m = DenseMatrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_matvec() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spd_solve_exact() {
        // M = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11]
        let m = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = m.solve_spd(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn spd_solve_rejects_indefinite() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(m.solve_spd(&[1.0, 1.0]), Err(SolverError::NotSpd));
    }

    #[test]
    fn spd_solve_rejects_shape_mismatch() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(matches!(
            m.solve_spd(&[1.0]),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            rect.solve_spd(&[1.0, 1.0]),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn spd_solve_nan_matrix_is_error_not_panic() {
        let m = DenseMatrix::from_rows(&[vec![f64::NAN, 0.0], vec![0.0, 1.0]]);
        assert_eq!(m.solve_spd(&[1.0, 1.0]), Err(SolverError::NotSpd));
    }

    #[test]
    fn spd_solve_larger_system() {
        // Build SPD M = AᵀA + I for a random-ish A and verify M x̂ ≈ b.
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, 1.5],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let n = a.cols();
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..a.rows() {
                    s += a[(k, i)] * a[(k, j)];
                }
                m[(i, j)] = s;
            }
        }
        let b = vec![1.0, -2.0, 3.0];
        let x = m.solve_spd(&b).unwrap();
        let back = m.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let m = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        // ‖A‖² = 9 for diag(3,1)
        let s = m.gram_spectral_norm(100);
        assert!((s - 9.0).abs() < 1e-6, "s = {s}");
    }

    #[test]
    fn spectral_norm_upper_bounds_rayleigh() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let s = a.gram_spectral_norm(200);
        // Rayleigh quotient of any unit vector is ≤ s (plus tolerance).
        for v in [[1.0, 0.0], [0.0, 1.0], [0.707, 0.707]] {
            let av = a.matvec(&v);
            let num: f64 = av.iter().map(|x| x * x).sum();
            let den: f64 = v.iter().map(|x| x * x).sum();
            assert!(num / den <= s + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_size_mismatch_panics() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
