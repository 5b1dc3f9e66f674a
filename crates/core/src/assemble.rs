//! Design-matrix assembly shared by the estimators.
//!
//! Every estimator's phase 2 builds a design matrix with one row per
//! training query (Equations 7 and 8). A query overlaps only some buckets,
//! so each row is compressed as it is built and the matrix is assembled
//! directly in sparse ([`CsrMatrix`]) form: the dense `rows × cols` buffer
//! never exists.

#[cfg(doc)]
use crate::estimator::TrainingQuery;
use selearn_solver::CsrMatrix;

/// Builds the `queries.len() × cols` design matrix, one `build_row` call
/// per training query (usually a [`TrainingQuery`]; any per-row input
/// works), rows in query order. `build_row` must return a dense row of
/// exactly `cols` entries.
///
/// Counts `design_matrix_entries` (`rows × cols`) and
/// `design_matrix_nonzeros` (stored entries) when observability is on.
pub fn assemble_design_matrix<Q, F>(queries: &[Q], cols: usize, build_row: F) -> CsrMatrix
where
    F: Fn(&Q) -> Vec<f64>,
{
    let _span = selearn_obs::span!("assemble");
    let mut a = CsrMatrix::with_cols(cols);
    for q in queries {
        a.push_row(&build_row(q));
    }
    selearn_obs::counter_add("design_matrix_entries", (queries.len() * cols) as u64);
    selearn_obs::counter_add("design_matrix_nonzeros", a.nnz() as u64);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::TrainingQuery;
    use selearn_geom::Rect;

    fn queries(n: usize) -> Vec<TrainingQuery> {
        (0..n)
            .map(|i| TrainingQuery::new(Rect::unit(2), i as f64 / n as f64))
            .collect()
    }

    #[test]
    fn assembles_rows_in_query_order() {
        let qs = queries(50);
        let a = assemble_design_matrix(&qs, 3, |q| {
            vec![q.selectivity, 2.0 * q.selectivity, 1.0]
        });
        assert_eq!(a.rows(), 50);
        assert_eq!(a.cols(), 3);
        let dense = a.to_dense();
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(dense[(i, 0)], q.selectivity);
            assert_eq!(dense[(i, 1)], 2.0 * q.selectivity);
        }
        // row 0 has selectivity 0: only the constant column is stored
        assert_eq!(a.row(0).0, &[2]);
        assert_eq!(a.nnz(), 50 + 2 * 49);
    }

    #[test]
    fn empty_workload_yields_empty_matrix() {
        let a = assemble_design_matrix(&[] as &[TrainingQuery], 4, |_| vec![0.0; 4]);
        assert_eq!(a.rows(), 0);
    }
}
