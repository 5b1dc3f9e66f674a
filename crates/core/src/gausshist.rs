//! GaussHist — a Gaussian-mixture selectivity model (Section 6 extension).
//!
//! The paper's conclusion names this an open problem: *"Although our
//! framework does not assume query ranges to be bounded and thus works
//! even if we consider data distributions with unbounded support, e.g.,
//! Gaussian mixtures, developing an algorithm that computes a Gaussian
//! mixture (or another model) with a small loss given a training sample is
//! also an open problem."*
//!
//! Fitting all GMM parameters to query feedback is non-convex; following
//! the paper's own two-phase recipe we sidestep that: **bucket design**
//! places isotropic Gaussian kernels at PtsHist-style support points
//! (interior-sampled proportionally to selectivity + a uniform share), and
//! **weight estimation** reuses the convex Equation-(8) machinery — so the
//! result is the loss-minimizing mixture over the chosen kernels, fully
//! inside the learnability framework (a mixture's selectivity function is
//! still a selectivity function of a distribution on `R^d`).
//!
//! Kernel masses are exact for rectangles (products of normal CDFs) and
//! halfspaces (a 1-D normal CDF along the normal direction), and
//! deterministic quasi-Monte-Carlo for balls and semi-algebraic ranges.

use crate::assemble::assemble_design_matrix;
use crate::error::SelearnError;
use crate::estimator::{SelectivityEstimator, TrainingQuery};
use crate::weights::{estimate_weights, Objective, WeightSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_geom::volume::halton;
use selearn_geom::{
    inv_std_normal_cdf, normal_mass, sample_in_rect, std_normal_cdf, Point, Range, RangeQuery,
    Rect, RejectionSampler,
};

/// GaussHist configuration.
#[derive(Clone, Debug)]
pub struct GaussHistConfig {
    /// Number of Gaussian kernels `k`.
    pub model_size: usize,
    /// Isotropic kernel bandwidth σ (in normalized domain units).
    pub bandwidth: f64,
    /// Fraction of kernel centers drawn from query interiors (PtsHist
    /// convention: 0.9).
    pub interior_fraction: f64,
    /// RNG seed for center placement.
    pub seed: u64,
    /// QMC samples for ranges without a closed-form Gaussian mass.
    pub qmc_samples: usize,
    /// Training objective.
    pub objective: Objective,
    /// Weight solver.
    pub solver: WeightSolver,
}

impl Default for GaussHistConfig {
    fn default() -> Self {
        Self {
            model_size: 400,
            bandwidth: 0.05,
            interior_fraction: 0.9,
            seed: 0x9a55,
            qmc_samples: 2048,
            objective: Objective::L2,
            solver: WeightSolver::Fista,
        }
    }
}

impl GaussHistConfig {
    /// Config with a given kernel count.
    pub fn with_model_size(k: usize) -> Self {
        Self {
            model_size: k,
            ..Default::default()
        }
    }

    /// Sets the kernel bandwidth.
    pub fn bandwidth(mut self, sigma: f64) -> Self {
        assert!(sigma > 0.0, "bandwidth must be positive");
        self.bandwidth = sigma;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained Gaussian-mixture selectivity model.
#[derive(Clone, Debug)]
pub struct GaussHist {
    centers: Vec<Point>,
    weights: Vec<f64>,
    sigma: f64,
    qmc_samples: usize,
}

impl GaussHist {
    /// Trains a GaussHist over the data space `root` from a workload.
    ///
    /// Returns a typed [`SelearnError`] on `k = 0`, a non-positive or
    /// non-finite bandwidth, an interior fraction outside `[0, 1]`, or a
    /// non-finite training label.
    pub fn fit(
        root: Rect,
        queries: &[TrainingQuery],
        config: &GaussHistConfig,
    ) -> Result<Self, SelearnError> {
        if config.model_size == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "gausshist",
                what: "model size must be >= 1",
            });
        }
        if !(config.bandwidth.is_finite() && config.bandwidth > 0.0) {
            return Err(SelearnError::InvalidConfig {
                model: "gausshist",
                what: "bandwidth must be finite and positive",
            });
        }
        if !(0.0..=1.0).contains(&config.interior_fraction) {
            return Err(SelearnError::InvalidConfig {
                model: "gausshist",
                what: "interior fraction must be in [0, 1]",
            });
        }
        crate::error::check_labels(queries)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k = config.model_size;
        let k_interior = (config.interior_fraction * k as f64).round() as usize;

        // Center placement: PtsHist-style (Section 3.3).
        let mut centers: Vec<Point> = Vec::with_capacity(k);
        let total_s: f64 = queries.iter().map(|q| q.selectivity).sum();
        if total_s > 0.0 && k_interior > 0 {
            for q in queries {
                let share =
                    (q.selectivity / total_s * k_interior as f64).round() as usize;
                if share == 0 {
                    continue;
                }
                let sampler = RejectionSampler::new(q.range.clone(), &root);
                centers.extend(sampler.sample_n(share, &mut rng));
            }
        }
        while centers.len() < k {
            centers.push(sample_in_rect(&root, &mut rng));
        }
        centers.truncate(k);

        // Weight estimation over exact / QMC kernel masses.
        let probe = GaussHist {
            centers,
            weights: Vec::new(),
            sigma: config.bandwidth,
            qmc_samples: config.qmc_samples,
        };
        let a = assemble_design_matrix(queries, probe.centers.len(), |q| {
            probe
                .centers
                .iter()
                .map(|c| probe.kernel_mass(c, &q.range))
                .collect()
        });
        let s: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();
        let weights = if a.rows() == 0 {
            vec![1.0 / probe.centers.len() as f64; probe.centers.len()]
        } else {
            estimate_weights(&a, &s, &config.objective, &config.solver)?
        };
        Ok(GaussHist { weights, ..probe })
    }

    /// The mixture components `(center, weight)`; every component has the
    /// shared isotropic bandwidth [`GaussHist::bandwidth`].
    pub fn components(&self) -> impl Iterator<Item = (&Point, f64)> {
        self.centers.iter().zip(self.weights.iter().copied())
    }

    /// The shared kernel bandwidth σ.
    pub fn bandwidth(&self) -> f64 {
        self.sigma
    }

    /// Mass of the isotropic Gaussian `N(center, σ²I)` inside `range`.
    fn kernel_mass(&self, center: &Point, range: &Range) -> f64 {
        let sigma = self.sigma;
        match range {
            Range::Rect(r) => {
                let mut m = 1.0;
                for i in 0..r.dim() {
                    m *= normal_mass(center[i], sigma, r.lo()[i], r.hi()[i]);
                    if m == 0.0 {
                        break;
                    }
                }
                m
            }
            Range::Halfspace(h) => {
                // a·X ≥ b with X ~ N(c, σ²I): a·X ~ N(a·c, σ²‖a‖²)
                let mu = center.dot(h.normal());
                let norm: f64 = h.normal().iter().map(|v| v * v).sum::<f64>().sqrt();
                std_normal_cdf((mu - h.offset()) / (sigma * norm))
            }
            _ => {
                // deterministic QMC: Halton uniforms → normal samples
                let d = center.dim();
                let mut hits = 0usize;
                let mut p = Point::zeros(d);
                for n in 0..self.qmc_samples {
                    for (i, c) in p.coords_mut().iter_mut().enumerate() {
                        let u = halton(n as u64 + 1, PRIMES[i % PRIMES.len()]);
                        // clamp away from {0,1} for the quantile function
                        let u = u.clamp(1e-12, 1.0 - 1e-12);
                        *c = center[i] + sigma * inv_std_normal_cdf(u);
                    }
                    if range.contains(&p) {
                        hits += 1;
                    }
                }
                hits as f64 / self.qmc_samples as f64
            }
        }
    }
}

const PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

impl SelectivityEstimator for GaussHist {
    fn estimate(&self, range: &Range) -> f64 {
        let total: f64 = self
            .centers
            .iter()
            .zip(&self.weights)
            .filter(|(_, &w)| w > 0.0)
            .map(|(c, &w)| w * self.kernel_mass(c, range))
            .sum();
        total.clamp(0.0, 1.0)
    }

    fn num_buckets(&self) -> usize {
        self.centers.len()
    }

    fn name(&self) -> &'static str {
        "GaussHist"
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
    fn fits_disjoint_quadrants() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.7),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.2),
        ];
        let gh = GaussHist::fit(
            Rect::unit(2),
            &queries,
            &GaussHistConfig::with_model_size(300),
        ).unwrap();
        for q in &queries {
            let est = gh.estimate(&q.range);
            assert!(
                (est - q.selectivity).abs() < 0.05,
                "est = {est}, true = {}",
                q.selectivity
            );
        }
    }

    #[test]
    fn weights_form_distribution() {
        let queries = vec![tq(vec![0.2, 0.2], vec![0.8, 0.8], 0.5)];
        let gh = GaussHist::fit(
            Rect::unit(2),
            &queries,
            &GaussHistConfig::with_model_size(100),
        ).unwrap();
        let total: f64 = gh.components().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(gh.components().all(|(_, w)| w >= -1e-9));
        assert_eq!(gh.num_buckets(), 100);
        assert_eq!(gh.name(), "GaussHist");
    }

    #[test]
    fn unbounded_support_mass_leaks_gracefully() {
        // Kernels near the boundary put some mass outside [0,1]^2, so the
        // whole-cube estimate is slightly below the total weight — the
        // "unbounded support" behavior the paper's conclusion discusses.
        let queries = vec![tq(vec![0.0, 0.0], vec![1.0, 1.0], 1.0)];
        let gh = GaussHist::fit(
            Rect::unit(2),
            &queries,
            &GaussHistConfig::with_model_size(200).bandwidth(0.1),
        ).unwrap();
        let all: Range = Rect::unit(2).into();
        let est = gh.estimate(&all);
        assert!(est > 0.85 && est <= 1.0, "est = {est}");
        // ...and a much larger box recovers (almost) everything
        let big: Range = Rect::new(vec![-1.0, -1.0], vec![2.0, 2.0]).into();
        assert!(gh.estimate(&big) > 0.999);
    }

    #[test]
    fn halfspace_mass_is_exact() {
        // single kernel at the center: halfspace through it gets mass 1/2
        let gh = GaussHist {
            centers: vec![Point::splat(2, 0.5)],
            weights: vec![1.0],
            sigma: 0.05,
            qmc_samples: 1024,
        };
        let h: Range = Halfspace::new(vec![1.0, 1.0], 1.0).into();
        assert!((gh.estimate(&h) - 0.5).abs() < 1e-12);
        // far halfspace gets ~0
        let far: Range = Halfspace::new(vec![1.0, 0.0], 0.9).into();
        assert!(gh.estimate(&far) < 1e-8);
    }

    #[test]
    fn ball_mass_via_qmc_matches_analytic_radius() {
        // Mass of N(c, σ²I₂) within radius r of c is 1 − exp(−r²/2σ²).
        let sigma = 0.05;
        let gh = GaussHist {
            centers: vec![Point::splat(2, 0.5)],
            weights: vec![1.0],
            sigma,
            qmc_samples: 20_000,
        };
        for r in [0.05, 0.1, 0.15] {
            let want = 1.0 - (-(r * r) / (2.0 * sigma * sigma)).exp();
            let b: Range = Ball::new(Point::splat(2, 0.5), r).into();
            let got = gh.estimate(&b);
            assert!(
                (got - want).abs() < 0.02,
                "r = {r}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn smoother_than_ptshist_between_training_queries() {
        // A Gaussian mixture interpolates: a probe box midway between two
        // trained boxes should get an estimate strictly between 0 and the
        // trained masses (no hard histogram cliffs).
        let queries = vec![
            tq(vec![0.1, 0.4], vec![0.3, 0.6], 0.5),
            tq(vec![0.7, 0.4], vec![0.9, 0.6], 0.5),
        ];
        let gh = GaussHist::fit(
            Rect::unit(2),
            &queries,
            &GaussHistConfig::with_model_size(200).bandwidth(0.08),
        ).unwrap();
        let mid: Range = Rect::new(vec![0.4, 0.4], vec![0.6, 0.6]).into();
        let est = gh.estimate(&mid);
        assert!(est > 0.001 && est < 0.5, "est = {est}");
    }

    #[test]
    fn deterministic_per_seed() {
        let queries = vec![tq(vec![0.1, 0.1], vec![0.7, 0.7], 0.4)];
        let cfg = GaussHistConfig::with_model_size(64).seed(5);
        let a = GaussHist::fit(Rect::unit(2), &queries, &cfg).unwrap();
        let b = GaussHist::fit(Rect::unit(2), &queries, &cfg).unwrap();
        let wa: Vec<f64> = a.components().map(|(_, w)| w).collect();
        let wb: Vec<f64> = b.components().map(|(_, w)| w).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn empty_workload_uniform_mixture() {
        let gh = GaussHist::fit(Rect::unit(2), &[], &GaussHistConfig::with_model_size(32)).unwrap();
        let total: f64 = gh.components().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
