//! The estimator interface shared by all learned models.

use selearn_geom::Range;
use selearn_solver::SolveReport;

/// The one batch evaluation loop every path funnels through:
/// [`SelectivityEstimator::estimate_all`] and the serving worker's reused
/// buffers (via `estimate_into`). Records **one** `predict.latency_us`
/// sample per batch — the mean per-query latency — instead of bracketing
/// every query with two `Instant::now()` calls, whose overhead used to
/// rival a sub-microsecond frozen traversal.
pub(crate) fn estimate_batch_into<F: FnMut(&Range) -> f64>(
    mut per_query: F,
    ranges: &[Range],
    out: &mut [f64],
) {
    debug_assert_eq!(ranges.len(), out.len());
    if ranges.is_empty() {
        return;
    }
    if selearn_obs::enabled() {
        let t0 = std::time::Instant::now();
        for (o, r) in out.iter_mut().zip(ranges) {
            *o = per_query(r);
        }
        let per_query_us = t0.elapsed().as_secs_f64() * 1e6 / ranges.len() as f64;
        selearn_obs::histogram_record("predict.latency_us", per_query_us);
    } else {
        for (o, r) in out.iter_mut().zip(ranges) {
            *o = per_query(r);
        }
    }
}

/// One training example `z = (R, s)`: a query range and its observed
/// selectivity. The agnostic-learning model (Section 2.1) does *not*
/// require `s = s_D(R)` for any real distribution `D` — labels may be
/// noisy; the learner just minimizes empirical loss over its family.
#[derive(Clone, Debug)]
pub struct TrainingQuery {
    /// The query range.
    pub range: Range,
    /// Observed selectivity in `[0, 1]`.
    pub selectivity: f64,
}

impl TrainingQuery {
    /// Convenience constructor.
    pub fn new(range: impl Into<Range>, selectivity: f64) -> Self {
        Self {
            range: range.into(),
            selectivity,
        }
    }
}

/// A trained selectivity estimator: a concrete distribution `D` from the
/// model family, queried through its selectivity function `s_D`.
pub trait SelectivityEstimator {
    /// Estimated selectivity `ŝ(R) ∈ [0, 1]`.
    fn estimate(&self, range: &Range) -> f64;

    /// Model complexity: the number of buckets (histogram cells or support
    /// points). This is the x-axis of Figure 9 and the y-axis of Figure 10.
    fn num_buckets(&self) -> usize;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// The [`SolveReport`] of the weight-estimation solve this model was
    /// trained with, if an iterative solver ran and the model retained it.
    /// Default `None` (closed-form models, loaded models, baselines
    /// without an iterative phase).
    fn solve_report(&self) -> Option<SolveReport> {
        None
    }

    /// Batch estimation into a caller-provided buffer: `out[i]` receives
    /// the estimate for `ranges[i]`. The allocation-free primitive the
    /// serving hot loop reuses buffers through; `estimate_all` is
    /// expressed on top of it.
    ///
    /// # Panics
    /// Panics if `ranges` and `out` differ in length.
    fn estimate_into(&self, ranges: &[Range], out: &mut [f64]) {
        assert_eq!(
            ranges.len(),
            out.len(),
            "estimate_into: output buffer length mismatch"
        );
        estimate_batch_into(|r| self.estimate(r), ranges, out);
    }

    /// Batch estimation: one estimate per input range, in input order.
    fn estimate_all(&self, ranges: &[Range]) -> Vec<f64> {
        let mut out = vec![0.0; ranges.len()];
        self.estimate_into(ranges, &mut out);
        out
    }
}

/// The boxed estimator type used wherever models are handled dynamically.
/// `Send + Sync` like [`SharedEstimator`], so a boxed model can be moved
/// into one.
pub type BoxedEstimator = Box<dyn SelectivityEstimator + Send + Sync>;

/// The reference-counted estimator type used where one trained model is
/// shared across threads without ownership — the serving layer clones one
/// of these per request so a background hot-swap never blocks or
/// invalidates in-flight readers.
pub type SharedEstimator = std::sync::Arc<dyn SelectivityEstimator + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_geom::Rect;

    struct Constant(f64);
    impl SelectivityEstimator for Constant {
        fn estimate(&self, _r: &Range) -> f64 {
            self.0
        }
        fn num_buckets(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    #[test]
    fn batch_default_impl() {
        let c = Constant(0.25);
        let ranges: Vec<Range> = vec![Rect::unit(2).into(), Rect::unit(2).into()];
        assert_eq!(c.estimate_all(&ranges), vec![0.25, 0.25]);
        assert_eq!(c.name(), "const");
        assert_eq!(c.num_buckets(), 1);
    }

    #[test]
    fn estimate_into_reuses_buffer() {
        let c = Constant(0.5);
        let ranges: Vec<Range> = (0..5).map(|_| Rect::unit(2).into()).collect();
        let mut out = vec![f64::NAN; 5];
        c.estimate_into(&ranges, &mut out);
        assert_eq!(out, vec![0.5; 5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn estimate_into_rejects_short_buffer() {
        let c = Constant(0.5);
        let ranges: Vec<Range> = vec![Rect::unit(2).into(), Rect::unit(2).into()];
        let mut out = vec![0.0; 1];
        c.estimate_into(&ranges, &mut out);
    }

    #[test]
    fn estimate_all_does_not_require_sync() {
        // Cell<f64> is !Sync: this only compiles because the serial batch
        // path dropped its historical `Self: Sync` bound.
        struct NotSync(std::cell::Cell<f64>);
        impl SelectivityEstimator for NotSync {
            fn estimate(&self, _r: &Range) -> f64 {
                self.0.set(self.0.get() + 1.0);
                self.0.get()
            }
            fn num_buckets(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "not-sync"
            }
        }
        let e = NotSync(std::cell::Cell::new(0.0));
        let ranges: Vec<Range> = (0..3).map(|_| Rect::unit(1).into()).collect();
        assert_eq!(e.estimate_all(&ranges), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn training_query_constructor() {
        let q = TrainingQuery::new(Rect::unit(2), 0.4);
        assert_eq!(q.selectivity, 0.4);
    }
}
