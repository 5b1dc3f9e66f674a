//! QuickSel — selectivity learning with uniform mixture models
//! [Park, Zhong & Mozafari, SIGMOD 2020].
//!
//! QuickSel models the data distribution as a **mixture of uniform
//! distributions** whose supports ("kernels") are hyper-rectangles derived
//! from the query workload — conceptually overlapping histogram buckets.
//! Training solves a quadratic program making the mixture consistent with
//! the observed selectivities; we use the same simplex-constrained
//! least-squares machinery as Equation (8), which keeps the comparison
//! apples-to-apples (the paper evaluates all methods "under the same
//! framework").
//!
//! Following the paper's experimental convention (Section 4.1), the number
//! of mixture components is `4×` the number of training queries: each
//! query range contributes its own kernel, and the remaining kernels are
//! sampled sub-boxes anchored at query boxes (QuickSel's kernel-population
//! step), plus one domain-wide kernel so uncovered space can carry mass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_core::{
    assemble_design_matrix, check_labels, estimate_weights, Objective, SelearnError,
    SelectivityEstimator, TrainingQuery, WeightSolver,
};
use selearn_geom::{Range, RangeQuery, Rect, VolumeEstimator, EPS};
use selearn_solver::SolveReport;

/// QuickSel configuration.
#[derive(Clone, Debug)]
pub struct QuickSelConfig {
    /// Mixture components per training query (paper convention: 4).
    pub kernels_per_query: usize,
    /// RNG seed for kernel population.
    pub seed: u64,
    /// Volume backend for non-rectangular queries.
    pub volume: VolumeEstimator,
}

impl Default for QuickSelConfig {
    fn default() -> Self {
        Self {
            kernels_per_query: 4,
            seed: 0x9c5e1,
            volume: VolumeEstimator::default(),
        }
    }
}

/// A trained QuickSel model: weighted uniform kernels.
#[derive(Clone, Debug)]
pub struct QuickSel {
    kernels: Vec<Rect>,
    weights: Vec<f64>,
    volume: VolumeEstimator,
    solve_report: Option<SolveReport>,
}

impl QuickSel {
    /// Trains QuickSel over the data space `root`.
    ///
    /// Returns [`SelearnError::InvalidLabel`] on a non-finite selectivity
    /// and propagates weight-solver errors.
    pub fn fit(
        root: Rect,
        queries: &[TrainingQuery],
        config: &QuickSelConfig,
    ) -> Result<Self, SelearnError> {
        let _span = selearn_obs::span!("fit.quicksel");
        check_labels(queries)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut kernels: Vec<Rect> = Vec::new();
        // the domain-wide kernel catches mass outside all queries
        kernels.push(root.clone());
        for q in queries {
            // primary kernel: the query's own (clipped) bounding box
            if let Some(bb) = q.range.bounding_box(&root) {
                if bb.volume() > EPS {
                    kernels.push(bb.clone());
                    // populate additional sub-kernels inside the box
                    for _ in 1..config.kernels_per_query {
                        kernels.push(random_subbox(&bb, &mut rng));
                    }
                }
            }
        }
        // drop degenerate kernels
        kernels.retain(|k| k.volume() > EPS);

        let a = assemble_design_matrix(queries, kernels.len(), |q| {
            kernels
                .iter()
                .map(|k| {
                    (q.range.intersection_volume(k, &config.volume) / k.volume()).clamp(0.0, 1.0)
                })
                .collect()
        });
        let s: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();
        let (weights, solve_report) = if a.rows() == 0 {
            (vec![1.0 / kernels.len() as f64; kernels.len()], None)
        } else {
            estimate_weights(&a, &s, &Objective::L2, &WeightSolver::Fista)?
        };

        Ok(Self {
            kernels,
            weights,
            volume: config.volume.clone(),
            solve_report,
        })
    }

    /// The weighted kernels, for introspection.
    pub fn kernels(&self) -> impl Iterator<Item = (&Rect, f64)> {
        self.kernels.iter().zip(self.weights.iter().copied())
    }
}

/// A random axis-aligned sub-box of `b` with side fractions in [0.3, 1.0].
fn random_subbox<R: Rng + ?Sized>(b: &Rect, rng: &mut R) -> Rect {
    let d = b.dim();
    let mut lo = Vec::with_capacity(d);
    let mut hi = Vec::with_capacity(d);
    for i in 0..d {
        let w = b.width(i);
        let frac: f64 = rng.gen_range(0.3..1.0);
        let span = w * frac;
        let start = b.lo()[i] + rng.gen_range(0.0..=(w - span).max(f64::MIN_POSITIVE));
        lo.push(start.min(b.hi()[i]));
        hi.push((start + span).min(b.hi()[i]));
    }
    Rect::new(lo, hi)
}

impl SelectivityEstimator for QuickSel {
    fn estimate(&self, range: &Range) -> f64 {
        let total: f64 = self
            .kernels
            .iter()
            .zip(&self.weights)
            .map(|(k, &w)| {
                if w <= 0.0 {
                    return 0.0;
                }
                (range.intersection_volume(k, &self.volume) / k.volume()).clamp(0.0, 1.0) * w
            })
            .sum();
        total.clamp(0.0, 1.0)
    }

    fn num_buckets(&self) -> usize {
        self.kernels.len()
    }

    fn name(&self) -> &'static str {
        "QuickSel"
    }

    fn solve_report(&self) -> Option<SolveReport> {
        self.solve_report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tq(lo: Vec<f64>, hi: Vec<f64>, s: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(lo, hi), s)
    }

    #[test]
    fn kernel_count_convention() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.5),
            tq(vec![0.4, 0.4], vec![0.9, 0.9], 0.3),
        ];
        let qs = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        // 4 per query + 1 domain kernel
        assert_eq!(qs.num_buckets(), 9);
    }

    #[test]
    fn consistent_on_training_queries() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.7),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.2),
        ];
        let qs = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        for q in &queries {
            let est = qs.estimate(&q.range);
            assert!(
                (est - q.selectivity).abs() < 0.05,
                "est = {est}, true = {}",
                q.selectivity
            );
        }
    }

    #[test]
    fn weights_form_distribution() {
        let queries = vec![tq(vec![0.2, 0.2], vec![0.8, 0.8], 0.6)];
        let qs = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        let total: f64 = qs.kernels().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(qs.kernels().all(|(_, w)| w >= -1e-9));
    }

    #[test]
    fn untrained_model_is_uniform() {
        let qs = QuickSel::fit(Rect::unit(2), &[], &QuickSelConfig::default()).unwrap();
        assert_eq!(qs.num_buckets(), 1);
        let r: Range = Rect::new(vec![0.0, 0.0], vec![0.5, 1.0]).into();
        assert!((qs.estimate(&r) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn handles_ball_and_halfspace_queries() {
        use selearn_geom::{Ball, Halfspace, Point};
        let queries = vec![
            TrainingQuery::new(Ball::new(Point::splat(2, 0.4), 0.3), 0.5),
            TrainingQuery::new(Halfspace::new(vec![1.0, 0.0], 0.6), 0.3),
        ];
        let qs = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        for q in &queries {
            let est = qs.estimate(&q.range);
            assert!(
                (est - q.selectivity).abs() < 0.1,
                "est = {est}, true = {}",
                q.selectivity
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let queries = vec![tq(vec![0.1, 0.1], vec![0.6, 0.6], 0.4)];
        let a = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        let b = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        let wa: Vec<f64> = a.kernels().map(|(_, w)| w).collect();
        let wb: Vec<f64> = b.kernels().map(|(_, w)| w).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn degenerate_query_boxes_skipped() {
        let queries = vec![
            tq(vec![0.3, 0.0], vec![0.3, 1.0], 0.2), // zero-volume box
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.5),
        ];
        let qs = QuickSel::fit(Rect::unit(2), &queries, &QuickSelConfig::default()).unwrap();
        // only the non-degenerate query contributes kernels (4) + domain
        assert_eq!(qs.num_buckets(), 5);
    }
}
