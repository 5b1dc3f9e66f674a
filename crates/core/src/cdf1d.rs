//! Exact 1-D CDF learning — the optimizer "bread and butter" case.
//!
//! The paper's introduction singles out 1-D range selectivity as the
//! classic cost-based-optimizer problem. In one dimension the generic
//! procedure of Section 3.1 specializes beautifully: every query
//! `[a, b]` constrains the CDF by `F(b) − F(a) = s`, the arrangement is
//! just the sorted endpoint sequence, and the family of histograms on
//! that arrangement corresponds exactly to piecewise-linear monotone CDFs
//! with knots at the endpoints. [`Cdf1D`] fits the loss-minimizing such
//! CDF by projected gradient descent, with the monotonicity projection
//! computed exactly by PAVA (isotonic regression) — so it inherits
//! Lemma 3.1's optimality in the 1-D case.

use crate::error::SelearnError;
use crate::estimator::{SelectivityEstimator, TrainingQuery};
use selearn_geom::{Range, RangeQuery, Rect};
use selearn_solver::isotonic_regression;

/// Configuration for [`Cdf1D`].
#[derive(Clone, Debug)]
pub struct Cdf1DConfig {
    /// Projected-gradient iterations.
    pub max_iters: usize,
    /// Stop when the loss improvement falls below this.
    pub tol: f64,
}

impl Default for Cdf1DConfig {
    fn default() -> Self {
        Self {
            max_iters: 4000,
            tol: 1e-12,
        }
    }
}

/// A monotone piecewise-linear CDF learned from 1-D interval feedback.
#[derive(Clone, Debug)]
pub struct Cdf1D {
    /// Sorted knot positions, starting at 0 and ending at 1.
    knots: Vec<f64>,
    /// CDF values at the knots (monotone, `values[0] = 0`, last = 1).
    values: Vec<f64>,
}

impl Cdf1D {
    /// Fits the CDF to a workload of 1-D interval queries.
    ///
    /// Returns a typed [`SelearnError`] if a training range is not
    /// one-dimensional or a label is non-finite.
    pub fn fit(queries: &[TrainingQuery], config: &Cdf1DConfig) -> Result<Self, SelearnError> {
        crate::error::check_labels(queries)?;
        // knots: all clipped interval endpoints + domain boundaries
        let unit = Rect::unit(1);
        let mut knots = vec![0.0, 1.0];
        let mut intervals: Vec<(f64, f64, f64)> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            if q.range.dim() != 1 {
                return Err(SelearnError::UnsupportedQuery {
                    model: "cdf1d",
                    query: i,
                    what: "1-D ranges required",
                });
            }
            // every 1-D range (box, halfline, ball) clips to an interval
            if let Some(seg) = q.range.bounding_box(&unit) {
                let (a, b) = (seg.lo()[0], seg.hi()[0]);
                knots.push(a);
                knots.push(b);
                intervals.push((a, b, q.selectivity));
            } else {
                // range entirely outside the domain: selectivity target 0
                // carries no constraint on F within [0,1]
            }
        }
        knots.sort_by(f64::total_cmp);
        knots.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        let m = knots.len();
        let index_of = |x: f64| -> usize {
            knots
                .binary_search_by(|k| k.total_cmp(&x))
                .unwrap_or_else(|i| i.min(m - 1))
        };
        let constraints: Vec<(usize, usize, f64)> = intervals
            .iter()
            .map(|&(a, b, s)| (index_of(a), index_of(b), s))
            .collect();

        // initial guess: the uniform CDF
        let mut f: Vec<f64> = knots.clone();
        // anchor weights pin F(0) = 0 and F(1) = 1 inside the projection
        let mut weights = vec![1.0f64; m];
        weights[0] = 1e9;
        weights[m - 1] = 1e9;

        // Lipschitz bound: each knot appears in ≤ (incident constraints)
        // residual terms with unit coefficients
        let mut incident = vec![0usize; m];
        for &(a, b, _) in &constraints {
            incident[a] += 1;
            incident[b] += 1;
        }
        // Each constraint contributes 2·vvᵀ with v = e_b − e_a (‖v‖² = 2)
        // to the Hessian, so λ_max ≤ 4 · max incident count.
        let lip = 4.0 * incident.iter().copied().max().unwrap_or(1).max(1) as f64;
        let step = 1.0 / lip;

        let loss = |f: &[f64]| -> f64 {
            constraints
                .iter()
                .map(|&(a, b, s)| {
                    let r = f[b] - f[a] - s;
                    r * r
                })
                .sum()
        };
        let mut prev = loss(&f);
        for _ in 0..config.max_iters {
            if constraints.is_empty() {
                break;
            }
            let mut grad = vec![0.0f64; m];
            for &(a, b, s) in &constraints {
                let r = f[b] - f[a] - s;
                grad[b] += 2.0 * r;
                grad[a] -= 2.0 * r;
            }
            for j in 0..m {
                f[j] -= step * grad[j];
            }
            // exact projection: pin anchors, isotonic-project, clamp
            f[0] = 0.0;
            f[m - 1] = 1.0;
            f = isotonic_regression(&f, &weights)?;
            for v in f.iter_mut() {
                *v = v.clamp(0.0, 1.0);
            }
            f[0] = 0.0;
            f[m - 1] = 1.0;
            let cur = loss(&f);
            // stop only on a genuine (nonnegative) stall — a transient
            // uptick from the projection just keeps iterating
            if cur <= prev && prev - cur < config.tol * (prev + 1e-15) {
                break;
            }
            prev = cur;
        }

        Ok(Self { knots, values: f })
    }

    /// The learned CDF at `x` (piecewise-linear between knots; 0 below the
    /// domain, 1 above).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.knots[0] {
            return 0.0;
        }
        let m = self.knots.len();
        if x >= self.knots[m - 1] {
            return 1.0;
        }
        let i = self
            .knots
            .partition_point(|&k| k <= x)
            .min(m - 1)
            .max(1);
        let (x0, x1) = (self.knots[i - 1], self.knots[i]);
        let (y0, y1) = (self.values[i - 1], self.values[i]);
        if x1 <= x0 {
            return y1;
        }
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Training loss of the fit on a workload.
    pub fn training_loss(&self, queries: &[TrainingQuery]) -> f64 {
        queries
            .iter()
            .map(|q| {
                let e = self.estimate(&q.range);
                (e - q.selectivity) * (e - q.selectivity)
            })
            .sum()
    }

    /// Number of CDF knots.
    pub fn num_knots(&self) -> usize {
        self.knots.len()
    }
}

impl SelectivityEstimator for Cdf1D {
    /// Estimates the selectivity of a 1-D range. A range of any other
    /// dimensionality cannot intersect the learned domain and estimates 0.
    fn estimate(&self, range: &Range) -> f64 {
        if range.dim() != 1 {
            return 0.0;
        }
        match range.bounding_box(&Rect::unit(1)) {
            Some(seg) => (self.cdf(seg.hi()[0]) - self.cdf(seg.lo()[0])).clamp(0.0, 1.0),
            None => 0.0,
        }
    }

    fn num_buckets(&self) -> usize {
        self.knots.len().saturating_sub(1)
    }

    fn name(&self) -> &'static str {
        "Cdf1D"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_geom::{Ball, Halfspace, Point};

    fn iv(a: f64, b: f64, s: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(vec![a], vec![b]), s)
    }

    #[test]
    fn consistent_intervals_fit_exactly() {
        // Labels from F(x) = x² (density 2x): consistent, so loss → 0.
        let truth = |a: f64, b: f64| b * b - a * a;
        let queries: Vec<TrainingQuery> = [
            (0.0, 0.5),
            (0.25, 0.75),
            (0.5, 1.0),
            (0.1, 0.9),
            (0.3, 0.6),
        ]
        .iter()
        .map(|&(a, b)| iv(a, b, truth(a, b)))
        .collect();
        let cdf = Cdf1D::fit(&queries, &Cdf1DConfig::default()).unwrap();
        let loss = cdf.training_loss(&queries);
        assert!(loss < 1e-8, "loss = {loss}");
        // knots pinned by a query touching the anchored boundary match the
        // truth exactly; knots only constrained through free neighbours
        // (e.g. 0.75 via (0.25, 0.75)) are underdetermined at zero loss,
        // which the agnostic framework permits.
        assert!((cdf.cdf(0.5) - 0.25).abs() < 1e-3);
        assert!((cdf.cdf(0.9) - cdf.cdf(0.1) - 0.8).abs() < 1e-3);
    }

    #[test]
    fn cdf_is_monotone_and_anchored() {
        let queries = vec![iv(0.2, 0.4, 0.7), iv(0.5, 0.9, 0.1), iv(0.0, 0.3, 0.5)];
        let cdf = Cdf1D::fit(&queries, &Cdf1DConfig::default()).unwrap();
        assert_eq!(cdf.cdf(0.0), 0.0);
        assert_eq!(cdf.cdf(1.0), 1.0);
        let mut prev = 0.0;
        let mut x = 0.0;
        while x <= 1.0 {
            let v = cdf.cdf(x);
            assert!(v >= prev - 1e-12, "CDF decreases at {x}");
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn contradictory_feedback_compromises() {
        let queries = vec![iv(0.2, 0.8, 0.9), iv(0.2, 0.8, 0.1)];
        let cdf = Cdf1D::fit(&queries, &Cdf1DConfig::default()).unwrap();
        let e = cdf.estimate(&Range::Rect(Rect::new(vec![0.2], vec![0.8])));
        assert!((e - 0.5).abs() < 0.05, "compromise = {e}");
    }

    #[test]
    fn answers_halfspace_and_ball_ranges() {
        let queries = vec![iv(0.0, 0.5, 0.8), iv(0.5, 1.0, 0.2)];
        let cdf = Cdf1D::fit(&queries, &Cdf1DConfig::default()).unwrap();
        // x ≥ 0.5 should get ≈ 0.2
        let h: Range = Halfspace::new(vec![1.0], 0.5).into();
        assert!((cdf.estimate(&h) - 0.2).abs() < 0.02);
        // ball |x − 0.25| ≤ 0.25 = [0, 0.5] should get ≈ 0.8
        let b: Range = Ball::new(Point::new(vec![0.25]), 0.25).into();
        assert!((cdf.estimate(&b) - 0.8).abs() < 0.02);
    }

    #[test]
    fn empty_workload_is_uniform() {
        let cdf = Cdf1D::fit(&[], &Cdf1DConfig::default()).unwrap();
        assert!((cdf.cdf(0.3) - 0.3).abs() < 1e-12);
        let r: Range = Rect::new(vec![0.25], vec![0.75]).into();
        assert!((cdf.estimate(&r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beats_quadhist_on_1d_consistency() {
        // In 1-D the CDF model's arrangement-aligned knots should fit at
        // least as well as a quadtree (binary) partition of similar size.
        use crate::quadhist::{QuadHist, QuadHistConfig};
        let truth = |a: f64, b: f64| b.powi(3) - a.powi(3); // F(x) = x³
        let queries: Vec<TrainingQuery> = (0..12)
            .map(|i| {
                let a = i as f64 / 16.0;
                let b = (a + 0.3).min(1.0);
                iv(a, b, truth(a, b))
            })
            .collect();
        let cdf = Cdf1D::fit(&queries, &Cdf1DConfig::default()).unwrap();
        let qh = QuadHist::fit_with_bucket_target(
            Rect::unit(1),
            &queries,
            cdf.num_buckets(),
            &QuadHistConfig::default(),
        ).unwrap();
        let qh_loss: f64 = queries
            .iter()
            .map(|q| (qh.estimate(&q.range) - q.selectivity).powi(2))
            .sum();
        assert!(
            cdf.training_loss(&queries) <= qh_loss + 1e-9,
            "cdf {} vs quadhist {qh_loss}",
            cdf.training_loss(&queries)
        );
    }

    #[test]
    fn out_of_domain_ranges() {
        let queries = vec![iv(0.0, 1.0, 1.0)];
        let cdf = Cdf1D::fit(&queries, &Cdf1DConfig::default()).unwrap();
        let far: Range = Ball::new(Point::new(vec![5.0]), 0.5).into();
        assert_eq!(cdf.estimate(&far), 0.0);
    }

    #[test]
    fn rejects_multidimensional_ranges() {
        let q = TrainingQuery::new(Rect::unit(2), 0.5);
        let err = Cdf1D::fit(&[q], &Cdf1DConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            SelearnError::UnsupportedQuery {
                model: "cdf1d",
                query: 0,
                ..
            }
        ));
    }

    #[test]
    fn rejects_nan_labels() {
        let q = iv(0.2, 0.8, f64::NAN);
        let err = Cdf1D::fit(&[q], &Cdf1DConfig::default()).unwrap_err();
        assert!(matches!(err, SelearnError::InvalidLabel { query: 0, .. }));
    }
}
