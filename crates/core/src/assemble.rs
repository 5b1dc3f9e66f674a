//! Design-matrix assembly shared by the estimators.
//!
//! Every estimator's phase 2 builds a design matrix with one row per
//! training query (Equations 7 and 8). A query overlaps only some buckets,
//! so each row is compressed as it is built and the matrix is assembled
//! directly in sparse ([`CsrMatrix`]) form: the dense `rows × cols` buffer
//! never exists. Rows are mutually independent — row `i` is a pure
//! function of query `i` and the (fixed) bucket layout — so with the
//! `parallel` feature they are built and compressed concurrently and
//! concatenated in query order. The same row-builder closure runs in both
//! paths, so the assembled matrix is bitwise identical either way.

#[cfg(doc)]
use crate::estimator::TrainingQuery;
use selearn_solver::CsrMatrix;

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Entry count below which parallel assembly is skipped: a scoped thread
/// spawn costs more than a handful of cheap rows.
#[cfg(feature = "parallel")]
const PAR_ENTRY_THRESHOLD: usize = 2_048;

/// Builds the `queries.len() × cols` design matrix, one `build_row` call
/// per training query (usually a [`TrainingQuery`]; any per-row input
/// works). `build_row` must return a dense row of exactly `cols` entries
/// and must be a pure function of its query (it runs concurrently under
/// the `parallel` feature).
///
/// Counts `design_matrix_entries` (`rows × cols`) and
/// `design_matrix_nonzeros` (stored entries) when observability is on.
pub fn assemble_design_matrix<Q, F>(queries: &[Q], cols: usize, build_row: F) -> CsrMatrix
where
    Q: Sync,
    F: Fn(&Q) -> Vec<f64> + Sync,
{
    let _span = selearn_obs::span!("assemble");
    let a = compress_rows(queries, cols, &build_row);
    selearn_obs::counter_add("design_matrix_entries", (queries.len() * cols) as u64);
    selearn_obs::counter_add("design_matrix_nonzeros", a.nnz() as u64);
    a
}

/// Builds and compresses one row per query, in query order.
fn compress_rows<Q, F>(queries: &[Q], cols: usize, build_row: &F) -> CsrMatrix
where
    Q: Sync,
    F: Fn(&Q) -> Vec<f64> + Sync,
{
    let mut a = CsrMatrix::with_cols(cols);
    #[cfg(feature = "parallel")]
    if queries.len() * cols >= PAR_ENTRY_THRESHOLD && rayon::current_num_threads() > 1 {
        let pieces: Vec<CsrMatrix> = queries
            .par_iter()
            .map(|q| {
                let mut piece = CsrMatrix::with_cols(cols);
                piece.push_row(&build_row(q));
                piece
            })
            .collect();
        for piece in &pieces {
            a.append(piece);
        }
        return a;
    }
    for q in queries {
        a.push_row(&build_row(q));
    }
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

    /// Crosses the parallel dispatch threshold and demands bitwise equality
    /// with a hand-rolled serial assembly.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_assembly_matches_serial_bitwise() {
        let qs = queries(600);
        let build = |q: &TrainingQuery| -> Vec<f64> {
            (0..8)
                .map(|j| ((q.selectivity + j as f64) * 0.37).sin())
                .collect()
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let a = pool.install(|| assemble_design_matrix(&qs, 8, build));
        let mut want = CsrMatrix::with_cols(8);
        for q in &qs {
            want.push_row(&build(q));
        }
        assert_eq!(a, want);
    }
}
