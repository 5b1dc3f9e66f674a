//! The arrangement-based generic procedure of Section 3.1.
//!
//! Buckets are the cells of the arrangement of the training ranges: each
//! cell lies in the same subset of ranges, so a histogram over these cells
//! can express the **loss-minimizing** distribution — Lemma 3.1 proves
//! both the histogram and the discrete variant are optimal over their
//! families. The price is a worst-case `O(n^d)` cell count, which is why
//! the paper turns to QuadHist/PtsHist for bounded complexity; this type
//! exists to realize the optimality guarantee and serves as the exactness
//! reference in tests.
//!
//! Implemented for orthogonal-range workloads, whose arrangement has the
//! canonical grid refinement; a `max_cells` guard fails fast instead of
//! exhausting memory.

use crate::assemble::assemble_design_matrix;
use crate::error::SelearnError;
use crate::estimator::{SelectivityEstimator, TrainingQuery};
use crate::weights::{estimate_weights, Objective, WeightSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_geom::{grid_arrangement, sample_in_rect, Point, Range, RangeQuery, Rect, EPS};

/// Configuration for [`ArrangementHist`].
#[derive(Clone, Debug)]
pub struct ArrangementHistConfig {
    /// Abort (with [`SelearnError::ResourceExhausted`]) if the arrangement
    /// would exceed this many cells.
    pub max_cells: usize,
    /// Build the discrete variant (one random point per cell, Equation 7)
    /// instead of the histogram variant (Equation 6).
    pub discrete: bool,
    /// Seed for the discrete variant's per-cell point choice.
    pub seed: u64,
    /// Training objective.
    pub objective: Objective,
    /// Weight solver.
    pub solver: WeightSolver,
}

impl Default for ArrangementHistConfig {
    fn default() -> Self {
        Self {
            max_cells: 200_000,
            discrete: false,
            seed: 0xa11a,
            objective: Objective::L2,
            solver: WeightSolver::Fista,
        }
    }
}

/// The exact arrangement-cell estimator (Section 3.1).
#[derive(Clone, Debug)]
pub struct ArrangementHist {
    cells: Vec<Rect>,
    /// Discrete-variant representative points (empty in histogram mode).
    points: Vec<Point>,
    weights: Vec<f64>,
    discrete: bool,
}

impl ArrangementHist {
    /// Trains over the data space `root`. Only orthogonal-range training
    /// queries are supported.
    ///
    /// Returns a typed [`SelearnError`] if a training range is not a
    /// rectangle, a label is non-finite, or the arrangement exceeds
    /// `config.max_cells` cells.
    pub fn fit(
        root: Rect,
        queries: &[TrainingQuery],
        config: &ArrangementHistConfig,
    ) -> Result<Self, SelearnError> {
        crate::error::check_labels(queries)?;
        let mut rects: Vec<Rect> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let Some(r) = q.range.as_rect() else {
                return Err(SelearnError::UnsupportedQuery {
                    model: "arrangement",
                    query: i,
                    what: "orthogonal ranges only",
                });
            };
            rects.push(r.clone());
        }
        let arrangement = grid_arrangement(&rects, &root);
        if arrangement.num_cells() > config.max_cells {
            return Err(SelearnError::ResourceExhausted {
                what: "arrangement cells",
                limit: config.max_cells,
                got: arrangement.num_cells(),
            });
        }
        let cells: Vec<Rect> = arrangement.to_cells();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let points: Vec<Point> = if config.discrete {
            cells.iter().map(|c| sample_in_rect(c, &mut rng)).collect()
        } else {
            Vec::new()
        };

        // Design matrix: each cell is entirely in or out of each range, so
        // entries are (numerically) 0/1 in histogram mode too.
        let a = if config.discrete {
            assemble_design_matrix(queries, points.len(), |q| {
                points
                    .iter()
                    .map(|p| if q.range.contains(p) { 1.0 } else { 0.0 })
                    .collect()
            })
        } else {
            assemble_design_matrix(&rects, cells.len(), |rect| {
                cells
                    .iter()
                    .map(|c| {
                        let cv = c.volume();
                        if cv <= EPS {
                            0.0
                        } else {
                            (rect.intersection_volume(c) / cv).clamp(0.0, 1.0)
                        }
                    })
                    .collect()
            })
        };
        let s: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();
        let weights = if a.rows() == 0 {
            vec![1.0 / cells.len() as f64; cells.len()]
        } else {
            estimate_weights(&a, &s, &config.objective, &config.solver)?.0
        };

        Ok(Self {
            cells,
            points,
            weights,
            discrete: config.discrete,
        })
    }

    /// Training loss `Σ_i (ŝ(R_i) − s_i)²` of the fitted model on a
    /// workload — Lemma 3.1 says this is minimal over all histograms
    /// (resp. discrete distributions).
    pub fn training_loss(&self, queries: &[TrainingQuery]) -> f64 {
        queries
            .iter()
            .map(|q| {
                let e = self.estimate(&q.range);
                (e - q.selectivity) * (e - q.selectivity)
            })
            .sum()
    }
}

impl SelectivityEstimator for ArrangementHist {
    fn estimate(&self, range: &Range) -> f64 {
        let total: f64 = if self.discrete {
            self.points
                .iter()
                .zip(&self.weights)
                .filter(|(p, _)| range.contains(p))
                .map(|(_, &w)| w)
                .sum()
        } else {
            self.cells
                .iter()
                .zip(&self.weights)
                .map(|(c, &w)| {
                    let cv = c.volume();
                    if cv <= EPS || w <= 0.0 {
                        return 0.0;
                    }
                    if let Range::Rect(r) = range {
                        (r.intersection_volume(c) / cv).clamp(0.0, 1.0) * w
                    } else {
                        let est = selearn_geom::VolumeEstimator::default();
                        (range.intersection_volume(c, &est) / cv).clamp(0.0, 1.0) * w
                    }
                })
                .sum()
        };
        total.clamp(0.0, 1.0)
    }

    fn num_buckets(&self) -> usize {
        self.cells.len()
    }

    fn name(&self) -> &'static str {
        if self.discrete {
            "ArrangementPts"
        } else {
            "ArrangementHist"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tq(lo: Vec<f64>, hi: Vec<f64>, s: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(lo, hi), s)
    }

    #[test]
    fn zero_training_loss_on_consistent_workload() {
        // Labels generated by an actual distribution ⇒ the arrangement
        // model must fit them exactly (Lemma 3.1: it minimizes the loss,
        // and the true distribution achieves 0 on its own arrangement).
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.4),
            tq(vec![0.5, 0.0], vec![1.0, 0.5], 0.1),
            tq(vec![0.0, 0.5], vec![0.5, 1.0], 0.3),
            tq(vec![0.25, 0.25], vec![0.75, 0.75], 0.35),
        ];
        let ah = ArrangementHist::fit(
            Rect::unit(2),
            &queries,
            &ArrangementHistConfig::default(),
        ).unwrap();
        let loss = ah.training_loss(&queries);
        assert!(loss < 1e-6, "loss = {loss}");
    }

    #[test]
    fn discrete_variant_matches_histogram_loss() {
        // Lemma 3.1's proof: per arrangement cell, a point bucket can carry
        // the same mass as the cell, so both variants reach the same loss.
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.6, 0.6], 0.5),
            tq(vec![0.4, 0.4], vec![1.0, 1.0], 0.3),
        ];
        let hist = ArrangementHist::fit(
            Rect::unit(2),
            &queries,
            &ArrangementHistConfig::default(),
        ).unwrap();
        let disc = ArrangementHist::fit(
            Rect::unit(2),
            &queries,
            &ArrangementHistConfig {
                discrete: true,
                ..Default::default()
            },
        ).unwrap();
        let lh = hist.training_loss(&queries);
        let ld = disc.training_loss(&queries);
        assert!((lh - ld).abs() < 1e-6, "hist {lh} vs discrete {ld}");
        assert_eq!(disc.name(), "ArrangementPts");
        assert_eq!(hist.name(), "ArrangementHist");
    }

    #[test]
    fn beats_or_matches_quadhist_on_training_loss() {
        use crate::quadhist::{QuadHist, QuadHistConfig};
        let queries = vec![
            tq(vec![0.1, 0.1], vec![0.45, 0.6], 0.37),
            tq(vec![0.3, 0.2], vec![0.9, 0.75], 0.52),
            tq(vec![0.05, 0.5], vec![0.5, 0.95], 0.21),
        ];
        let ah = ArrangementHist::fit(
            Rect::unit(2),
            &queries,
            &ArrangementHistConfig::default(),
        ).unwrap();
        let qh = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.01),
        ).unwrap();
        let qh_loss: f64 = queries
            .iter()
            .map(|q| (qh.estimate(&q.range) - q.selectivity).powi(2))
            .sum();
        assert!(
            ah.training_loss(&queries) <= qh_loss + 1e-6,
            "arrangement {} vs quadhist {qh_loss}",
            ah.training_loss(&queries)
        );
    }

    #[test]
    fn cell_count_guard() {
        let queries: Vec<TrainingQuery> = (0..40)
            .map(|i| {
                let x = i as f64 / 50.0;
                tq(vec![x, x], vec![x + 0.1, x + 0.1], 0.01)
            })
            .collect();
        let cfg = ArrangementHistConfig {
            max_cells: 100,
            ..Default::default()
        };
        let err = ArrangementHist::fit(Rect::unit(2), &queries, &cfg).unwrap_err();
        assert!(
            matches!(err, SelearnError::ResourceExhausted { limit: 100, .. }),
            "guard should trip, got {err}"
        );
    }

    #[test]
    fn empty_workload_is_uniform() {
        let ah = ArrangementHist::fit(Rect::unit(2), &[], &ArrangementHistConfig::default()).unwrap();
        assert_eq!(ah.num_buckets(), 1);
        let r: Range = Rect::new(vec![0.0, 0.0], vec![0.5, 1.0]).into();
        assert!((ah.estimate(&r) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn non_rect_training_query_is_typed_error() {
        use selearn_geom::{Ball, Point};
        let q = TrainingQuery::new(Ball::new(Point::splat(2, 0.5), 0.2), 0.1);
        let err =
            ArrangementHist::fit(Rect::unit(2), &[q], &ArrangementHistConfig::default())
                .unwrap_err();
        assert!(matches!(
            err,
            SelearnError::UnsupportedQuery {
                model: "arrangement",
                query: 0,
                ..
            }
        ));
    }
}
