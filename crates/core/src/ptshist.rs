//! PtsHist — the discrete distribution of Section 3.3.
//!
//! For high dimensions, rectangles are poor density carriers and
//! box/range intersection volumes get expensive, so PtsHist represents the
//! learned distribution as a set of weighted **points**. Bucket design:
//! given target model size `k`,
//!
//! 1. draw `0.9k` points from training-query interiors, each query
//!    receiving a share proportional to its selectivity
//!    (`s_i / Σ_j s_j · 0.9k` points, rejection-sampled from the query's
//!    smallest bounding box — Appendix A.2);
//! 2. draw the remaining `0.1k` uniformly from the whole space, so regions
//!    not covered by any training query can still receive density.
//!
//! The sample is *not* unbiased for any data distribution — and need not
//! be (Section 3.3, Remarks): the weight-estimation phase makes the model
//! consistent with the workload.

use crate::assemble::assemble_design_matrix;
use crate::error::SelearnError;
use crate::estimator::{SelectivityEstimator, TrainingQuery};
use crate::frozen::{FrozenEstimator, FrozenPts};
use crate::weights::{estimate_weights, Objective, WeightSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_geom::{sample_in_rect, Point, Range, RangeQuery, Rect, RejectionSampler};
use selearn_solver::SolveReport;

/// PtsHist configuration.
#[derive(Clone, Debug)]
pub struct PtsHistConfig {
    /// Target model size `k` (number of support points).
    pub model_size: usize,
    /// Fraction of points drawn from query interiors (paper: 0.9).
    pub interior_fraction: f64,
    /// RNG seed for the (stochastic) bucket design.
    pub seed: u64,
    /// Training objective.
    pub objective: Objective,
    /// Weight solver.
    pub solver: WeightSolver,
}

impl Default for PtsHistConfig {
    fn default() -> Self {
        Self {
            model_size: 400,
            interior_fraction: 0.9,
            seed: 0x5e1ec7,
            objective: Objective::L2,
            solver: WeightSolver::Fista,
        }
    }
}

impl PtsHistConfig {
    /// Config with a given model size `k`.
    pub fn with_model_size(k: usize) -> Self {
        Self {
            model_size: k,
            ..Default::default()
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the weight solver.
    pub fn solver(mut self, solver: WeightSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the interior/uniform split (ablation knob).
    pub fn interior_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction out of range");
        self.interior_fraction = f;
        self
    }
}

/// A trained PtsHist model: weighted support points (Equation 7), plus
/// their frozen k-d layout so prediction prunes instead of scanning all
/// `k` points.
#[derive(Clone, Debug)]
pub struct PtsHist {
    points: Vec<Point>,
    weights: Vec<f64>,
    /// Always [`FrozenEstimator::Pts`]; carries the root and the solve
    /// report (None for loaded models).
    frozen: FrozenEstimator,
}

impl PtsHist {
    /// Trains a PtsHist over the data space `root` from a workload.
    ///
    /// Returns a typed [`SelearnError`] on `k = 0`, an interior fraction
    /// outside `[0, 1]`, or a non-finite training label; an empty workload
    /// is fine (uniform model).
    pub fn fit(
        root: Rect,
        queries: &[TrainingQuery],
        config: &PtsHistConfig,
    ) -> Result<Self, SelearnError> {
        if config.model_size == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "ptshist",
                what: "model size must be >= 1",
            });
        }
        if !(0.0..=1.0).contains(&config.interior_fraction) {
            return Err(SelearnError::InvalidConfig {
                model: "ptshist",
                what: "interior fraction must be in [0, 1]",
            });
        }
        crate::error::check_labels(queries)?;
        let _span = selearn_obs::span!("fit.ptshist");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k = config.model_size;
        let k_interior = (config.interior_fraction * k as f64).round() as usize;

        // Step 1: interior points, shares proportional to selectivity.
        // Labels are clamped at zero for the allocation only: finite
        // out-of-band labels are legal in the agnostic setting, but a
        // negative share would let one query's floor exceed k_interior
        // and underflow the shortfall below.
        let mut points: Vec<Point> = Vec::with_capacity(k);
        let total_s: f64 = queries.iter().map(|q| q.selectivity.max(0.0)).sum();
        if total_s > 0.0 && k_interior > 0 {
            // Largest-remainder allocation of k_interior shares.
            let raw: Vec<f64> = queries
                .iter()
                .map(|q| q.selectivity.max(0.0) / total_s * k_interior as f64)
                .collect();
            let mut alloc: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
            let mut remainder: Vec<(usize, f64)> = raw
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r - r.floor()))
                .collect();
            remainder.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut short = k_interior.saturating_sub(alloc.iter().sum::<usize>());
            for (i, _) in remainder {
                if short == 0 {
                    break;
                }
                alloc[i] += 1;
                short -= 1;
            }
            for (q, &n) in queries.iter().zip(&alloc) {
                if n == 0 {
                    continue;
                }
                let sampler = RejectionSampler::new(q.range.clone(), &root);
                points.extend(sampler.sample_n(n, &mut rng));
            }
        }

        // Step 2: fill the rest uniformly from the whole space.
        while points.len() < k {
            points.push(sample_in_rect(&root, &mut rng));
        }

        // Weight estimation with the indicator design matrix (Equation 7).
        let a = assemble_design_matrix(queries, points.len(), |q| {
            points
                .iter()
                .map(|p| if q.range.contains(p) { 1.0 } else { 0.0 })
                .collect()
        });
        let s: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();
        let (weights, solve_report) = if a.rows() == 0 {
            (vec![1.0 / points.len() as f64; points.len()], None)
        } else {
            estimate_weights(&a, &s, &config.objective, &config.solver)?
        };

        Ok(Self::new(root, points, weights, solve_report))
    }

    fn new(
        root: Rect,
        points: Vec<Point>,
        weights: Vec<f64>,
        solve_report: Option<SolveReport>,
    ) -> Self {
        let frozen = FrozenEstimator::Pts(FrozenPts::build(&points, &weights, root, solve_report));
        Self {
            points,
            weights,
            frozen,
        }
    }

    /// The weighted support, for introspection (Figure 7 renders these).
    pub fn support(&self) -> impl Iterator<Item = (&Point, f64)> {
        self.points.iter().zip(self.weights.iter().copied())
    }

    /// The data-space box the model was trained over.
    pub fn root(&self) -> &Rect {
        self.frozen.root()
    }

    /// The model's pointer-free [`FrozenEstimator`]: a k-d tree over the
    /// support flattened into SoA lanes (see [`crate::frozen`]). It is the
    /// layout this model's own estimates go through, so both answer
    /// identically.
    pub fn freeze(&self) -> FrozenEstimator {
        self.frozen.clone()
    }

    /// [`PtsHist::freeze`] without the copy, for callers done with the
    /// model.
    pub(crate) fn into_frozen(self) -> FrozenEstimator {
        self.frozen
    }

    /// Reconstructs a model from its weighted support (the inverse of
    /// [`PtsHist::support`], used when loading persisted models).
    ///
    /// Returns a typed [`SelearnError`] if lengths differ or a weight is
    /// non-finite.
    pub fn from_support(
        root: Rect,
        points: Vec<Point>,
        weights: Vec<f64>,
    ) -> Result<Self, SelearnError> {
        if points.len() != weights.len() {
            return Err(SelearnError::LengthMismatch {
                what: "ptshist support",
                expected: points.len(),
                got: weights.len(),
            });
        }
        if let Some((i, w)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            return Err(SelearnError::CorruptModel {
                what: format!("support point {i} has non-finite weight {w}"),
            });
        }
        Ok(Self::new(root, points, weights, None))
    }
}

impl SelectivityEstimator for PtsHist {
    fn estimate(&self, range: &Range) -> f64 {
        self.frozen.estimate(range)
    }

    fn num_buckets(&self) -> usize {
        self.points.len()
    }

    fn name(&self) -> &'static str {
        "PtsHist"
    }

    fn solve_report(&self) -> Option<SolveReport> {
        self.frozen.solve_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_geom::{Ball, Halfspace};

    fn tq(lo: Vec<f64>, hi: Vec<f64>, s: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(lo, hi), s)
    }

    #[test]
    fn model_size_respected() {
        let queries = vec![tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.6)];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(100),
        ).unwrap();
        assert_eq!(ph.num_buckets(), 100);
    }

    #[test]
    fn interior_points_follow_selectivity_shares() {
        // Two disjoint queries with selectivities 0.8 and 0.2: roughly 4×
        // as many interior points should land in the first.
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.8),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.2),
        ];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(1000),
        ).unwrap();
        let r0 = queries[0].range.clone();
        let r1 = queries[1].range.clone();
        let in0 = ph.support().filter(|(p, _)| r0.contains(p)).count();
        let in1 = ph.support().filter(|(p, _)| r1.contains(p)).count();
        // shares: 0.9k · 0.8 = 720 vs 0.9k · 0.2 = 180 (+ uniform spillover)
        assert!(in0 > 600 && in0 < 850, "in0 = {in0}");
        assert!(in1 > 120 && in1 < 350, "in1 = {in1}");
    }

    #[test]
    fn uniform_share_covers_uncovered_space() {
        // One tiny query: 10% of points must still land elsewhere.
        let queries = vec![tq(vec![0.0, 0.0], vec![0.1, 0.1], 0.5)];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(500),
        ).unwrap();
        let outside = ph
            .support()
            .filter(|(p, _)| !queries[0].range.contains(p))
            .count();
        assert!(outside > 20, "outside = {outside}");
    }

    #[test]
    fn weights_form_distribution() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.7),
            tq(vec![0.3, 0.3], vec![1.0, 1.0], 0.5),
        ];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(200),
        ).unwrap();
        let total: f64 = ph.support().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(ph.support().all(|(_, w)| w >= -1e-9));
    }

    #[test]
    fn reproduces_training_selectivities() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.75),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.25),
        ];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(400),
        ).unwrap();
        for q in &queries {
            let est = ph.estimate(&q.range);
            assert!(
                (est - q.selectivity).abs() < 0.02,
                "est = {est}, true = {}",
                q.selectivity
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let queries = vec![tq(vec![0.1, 0.1], vec![0.7, 0.7], 0.5)];
        let cfg = PtsHistConfig::with_model_size(100).seed(7);
        let a = PtsHist::fit(Rect::unit(2), &queries, &cfg).unwrap();
        let b = PtsHist::fit(Rect::unit(2), &queries, &cfg).unwrap();
        let ra: Vec<f64> = a.support().map(|(_, w)| w).collect();
        let rb: Vec<f64> = b.support().map(|(_, w)| w).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn high_dimensional_fit() {
        // 6-D: PtsHist's home turf.
        let d = 6;
        let queries = vec![
            TrainingQuery::new(Rect::new(vec![0.0; d], vec![0.5; d]), 0.4),
            TrainingQuery::new(Rect::new(vec![0.3; d], vec![1.0; d]), 0.3),
        ];
        let ph = PtsHist::fit(
            Rect::unit(d),
            &queries,
            &PtsHistConfig::with_model_size(300),
        ).unwrap();
        for q in &queries {
            let est = ph.estimate(&q.range);
            assert!((est - q.selectivity).abs() < 0.05, "est = {est}");
        }
    }

    #[test]
    fn works_with_ball_and_halfspace_queries() {
        let queries = vec![
            TrainingQuery::new(Ball::new(Point::splat(2, 0.3), 0.25), 0.5),
            TrainingQuery::new(Halfspace::new(vec![1.0, 1.0], 1.2), 0.2),
        ];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(400),
        ).unwrap();
        for q in &queries {
            let est = ph.estimate(&q.range);
            assert!(
                (est - q.selectivity).abs() < 0.05,
                "est = {est}, true = {}",
                q.selectivity
            );
        }
    }

    #[test]
    fn empty_workload_gives_uniform_weights() {
        let ph = PtsHist::fit(Rect::unit(3), &[], &PtsHistConfig::with_model_size(50)).unwrap();
        assert_eq!(ph.num_buckets(), 50);
        let total: f64 = ph.support().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // estimate of the whole space is 1
        let all: Range = Rect::unit(3).into();
        assert!((ph.estimate(&all) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_selectivity_workload() {
        // All-empty queries: all interior shares are zero, everything
        // uniform; estimator should learn ~0 for those regions.
        let queries = vec![tq(vec![0.8, 0.8], vec![0.9, 0.9], 0.0)];
        let ph = PtsHist::fit(
            Rect::unit(2),
            &queries,
            &PtsHistConfig::with_model_size(200),
        ).unwrap();
        let est = ph.estimate(&queries[0].range);
        assert!(est < 0.05, "est = {est}");
    }
}
