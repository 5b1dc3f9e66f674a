//! Compressed sparse row (CSR) design matrices.
//!
//! A training query overlaps only some buckets, so the design matrices of
//! Equations (6)–(8) are mostly zeros (25–40% nonzero on typical
//! workloads). [`CsrMatrix`] stores only the entries that are not `+0.0`:
//! row pointers, `u32` column indices and `f64` values, rows in order and
//! columns ascending within a row.
//!
//! # Exactness
//!
//! Every kernel returns the same bits as its [`DenseMatrix`] counterpart
//! on the densified matrix, sign of zero included, for finite `x`:
//!
//! * `A x` folds each row's stored products in ascending column order from
//!   the start value of `Iterator::sum` — the fold [`crate::matrix::dot`]
//!   uses; the folds of four rows advance side by side, each in its own
//!   order. An unstored `+0.0` contributes a `±0.0` product, which leaves
//!   a nonzero accumulator unchanged and a `+0.0` one at `+0.0`; it can
//!   only turn a `−0.0` into `+0.0`. A dense fold ends at `−0.0` exactly
//!   when every product is `−0.0`, so a row whose stored products end at
//!   `−0.0` is fixed up by checking the sign of `x` on the unstored
//!   columns (their product `+0.0 · x_j` carries the sign of `x_j`). A
//!   `−0.0` entry is stored like any nonzero for that reason.
//! * `Aᵀ x` accumulates each column from `+0.0` over rows in ascending
//!   order, skipping `x_i == 0.0` as the dense kernel does. From `+0.0` an
//!   accumulator never reaches `−0.0`, so the dropped `±0.0` products
//!   never change a bit.

use crate::matrix::DenseMatrix;

/// Rows whose dot products the `A x` kernel folds side by side.
const DOT_LANES: usize = 4;

/// A sparse row-major matrix; entries equal to `+0.0` are not stored.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// An empty matrix with `cols` columns and no rows.
    ///
    /// # Panics
    /// Panics if `cols` does not fit a `u32` column index.
    pub fn with_cols(cols: usize) -> Self {
        assert!(u32::try_from(cols).is_ok(), "too many columns for u32 indices");
        Self {
            rows: 0,
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Compresses a dense matrix.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        let mut m = Self::with_cols(a.cols());
        for i in 0..a.rows() {
            m.push_row(a.row(i));
        }
        m
    }

    /// Creates a matrix from nested dense rows (for tests and small
    /// problems).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let mut m = Self::with_cols(rows.first().map_or(0, Vec::len));
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Appends a dense row, storing every entry that is not `+0.0`.
    ///
    /// # Panics
    /// Panics if the row length differs from `cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        for (j, &v) in row.iter().enumerate() {
            if v.to_bits() != 0 {
                self.col_idx.push(j as u32);
                self.vals.push(v);
            }
        }
        self.row_ptr.push(self.vals.len());
        self.rows += 1;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row `i`'s stored column indices (ascending) and values.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// The equivalent dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut data = vec![0.0; self.rows * self.cols];
        for i in 0..self.rows {
            let (idx, vals) = self.row(i);
            let dense = &mut data[i * self.cols..(i + 1) * self.cols];
            for (&j, &v) in idx.iter().zip(vals) {
                dense[j as usize] = v;
            }
        }
        DenseMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Row-major flat index (`row · cols + col`) and value of the first
    /// non-finite entry — the index [`DenseMatrix::first_non_finite`]
    /// reports for the same matrix.
    pub fn first_non_finite(&self) -> Option<(usize, f64)> {
        let k = self.vals.iter().position(|v| !v.is_finite())?;
        let row = self.row_ptr.partition_point(|&p| p <= k) - 1;
        Some((row * self.cols + self.col_idx[k] as usize, self.vals[k]))
    }

    /// Rows `i0 .. i0 + out.len()` (at most [`DOT_LANES`]) of `A x`,
    /// each bit-identical to the dense row dot. Every row is folded over
    /// its own entries in ascending column order from the start value of
    /// `Iterator::sum`; the folds only advance in lockstep, so their
    /// additions overlap in the pipeline instead of each waiting on the
    /// previous one.
    fn row_dots(&self, i0: usize, x: &[f64], out: &mut [f64]) {
        let start: f64 = std::iter::empty::<f64>().sum();
        let rows: [(&[u32], &[f64]); DOT_LANES] = std::array::from_fn(|q| {
            if q < out.len() {
                self.row(i0 + q)
            } else {
                (&[][..], &[][..])
            }
        });
        let common = rows.iter().map(|(idx, _)| idx.len()).min().unwrap_or(0);
        let mut acc = [start; DOT_LANES];
        let idx: [&[u32]; DOT_LANES] = std::array::from_fn(|q| &rows[q].0[..common]);
        let vals: [&[f64]; DOT_LANES] = std::array::from_fn(|q| &rows[q].1[..common]);
        for k in 0..common {
            for q in 0..DOT_LANES {
                acc[q] += vals[q][k] * x[idx[q][k] as usize];
            }
        }
        for (q, o) in out.iter_mut().enumerate() {
            let (idx, vals) = rows[q];
            let mut sum = acc[q];
            for (&a, &j) in vals[common..].iter().zip(&idx[common..]) {
                sum += a * x[j as usize];
            }
            *o = self.dense_zero_sign(sum, idx, x);
        }
    }

    /// The dense fold's result for a row whose stored products fold to
    /// `sum` (see the module docs for the zero-sign argument).
    fn dense_zero_sign(&self, sum: f64, idx: &[u32], x: &[f64]) -> f64 {
        if sum.to_bits() == (-0.0f64).to_bits()
            && idx.len() < self.cols
            && !unstored_all_sign_negative(idx, x)
        {
            return 0.0;
        }
        sum
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `out = A x`, written into a caller-owned buffer of length `rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (g, chunk) in out.chunks_mut(DOT_LANES).enumerate() {
            self.row_dots(g * DOT_LANES, x, chunk);
        }
    }

    /// `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// `out = Aᵀ x`, written into a caller-owned buffer of length `cols`:
    /// a scatter over rows in ascending order, skipping `x_i == 0.0`.
    pub fn matvec_t_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (idx, vals) = self.row(i);
            for (&j, &a) in idx.iter().zip(vals) {
                out[j as usize] += a * xi;
            }
        }
    }

    /// Residual `A x − b`.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; self.rows];
        self.residual_into(x, b, &mut r);
        r
    }

    /// `out = A x − b`, written into a caller-owned buffer of length `rows`.
    pub fn residual_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        self.matvec_into(x, out);
        for (ri, bi) in out.iter_mut().zip(b) {
            *ri -= bi;
        }
    }

    /// Squared residual norm `‖A x − b‖²`.
    pub fn residual_sq(&self, x: &[f64], b: &[f64]) -> f64 {
        self.residual(x, b).iter().map(|r| r * r).sum()
    }

    /// Largest eigenvalue of `AᵀA` by power iteration, from the same start
    /// vector and with the same arithmetic as
    /// [`DenseMatrix::gram_spectral_norm`].
    pub fn gram_spectral_norm(&self, iters: usize) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        let mut v: Vec<f64> = (0..self.cols)
            .map(|j| 1.0 + (j as f64 * 0.618_033_988_749).fract())
            .collect();
        let mut av = vec![0.0; self.rows];
        let mut atav = vec![0.0; self.cols];
        let mut lambda = 0.0;
        for _ in 0..iters {
            self.matvec_into(&v, &mut av);
            self.matvec_t_into(&av, &mut atav);
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
}

/// `true` when `x_j` is sign-negative on every column not in `idx` (the
/// row's stored columns, ascending): then every unstored `+0.0 · x_j` is
/// `−0.0` and the dense row fold ends at `−0.0` too.
fn unstored_all_sign_negative(idx: &[u32], x: &[f64]) -> bool {
    let mut stored = idx.iter().map(|&j| j as usize).peekable();
    x.iter().enumerate().all(|(j, xj)| {
        if stored.peek() == Some(&j) {
            stored.next();
            true
        } else {
            xj.is_sign_negative()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_positive_zeros_only() {
        let a = CsrMatrix::from_rows(&[vec![0.0, 2.0, -0.0], vec![0.0, 0.0, 0.0]]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.row(0).0, &[1, 2]);
        assert_eq!(a.row(1).0, &[] as &[u32]);
        assert_eq!(a.to_dense().row(0)[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn first_non_finite_reports_row_major_index() {
        let a = CsrMatrix::from_rows(&[vec![0.0, 1.0, 0.0], vec![0.0, 0.0, f64::NAN]]);
        let (k, v) = a.first_non_finite().unwrap();
        assert_eq!(k, 5);
        assert!(v.is_nan());
        assert_eq!(
            a.to_dense().first_non_finite().map(|(k, _)| k),
            Some(5)
        );
    }

    #[test]
    fn zero_row_keeps_dense_zero_sign() {
        let a = CsrMatrix::from_rows(&[vec![0.0, 0.0]]);
        let d = a.to_dense();
        for x in [[-1.0, -2.0], [-1.0, 2.0], [0.0, -0.0], [-0.0, -0.0]] {
            assert_eq!(a.matvec(&x)[0].to_bits(), d.matvec(&x)[0].to_bits(), "x = {x:?}");
        }
    }
}
