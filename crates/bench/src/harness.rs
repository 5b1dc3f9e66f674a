//! Shared machinery for the experiment drivers: method registry, workload
//! caching, timing, and result rows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_baselines::{Isomer, IsomerConfig, QuickSel, QuickSelConfig, UniformBaseline};
use selearn_core::{
    BoxedEstimator, Objective, PtsHist, PtsHistConfig, QuadHist, QuadHistConfig, SelearnError,
    TrainingQuery, WeightSolver,
};
use selearn_data::{
    l_inf_error, q_error_quantiles, rms_error, Dataset, Workload, WorkloadSpec,
};
use selearn_geom::{Range, Rect};
use std::time::Instant;

/// Experiment scale knobs; `--quick` shrinks everything so `all` finishes
/// in about a minute for smoke-testing.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentScale {
    /// Rows per synthetic dataset.
    pub rows: usize,
    /// Training-set size sweep.
    pub train_sizes: &'static [usize],
    /// Held-out test queries per configuration.
    pub test_n: usize,
    /// Largest training size ISOMER is allowed to attempt (the paper's
    /// ISOMER could not finish 500 queries within 30 minutes).
    pub isomer_limit: usize,
}

impl ExperimentScale {
    /// Default reproduction scale. The paper sweeps up to 2000 training
    /// queries; we cap the sweep at 1000 (the trends are established well
    /// before that) so the complete `all` run finishes in tens of minutes
    /// on a laptop — see EXPERIMENTS.md. Pass `fig10_12` etc. individually
    /// with a custom scale for the n = 2000 points.
    pub fn full() -> Self {
        Self {
            rows: 40_000,
            train_sizes: &[50, 200, 500, 1000],
            test_n: 300,
            isomer_limit: 200,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Self {
            rows: 8_000,
            train_sizes: &[50, 200],
            test_n: 100,
            isomer_limit: 50,
        }
    }

    /// Rejects degenerate scales before any experiment runs.
    ///
    /// An empty or zero-containing `train_sizes` (and a zero `rows` or
    /// `test_n`) would otherwise only surface as a panic deep inside a
    /// sweep; drivers call this right after parsing their configuration.
    pub fn validate(&self) -> Result<(), SelearnError> {
        if self.train_sizes.is_empty() {
            return Err(SelearnError::InvalidConfig {
                model: "experiment scale",
                what: "train_sizes must be non-empty",
            });
        }
        if self.train_sizes.contains(&0) {
            return Err(SelearnError::InvalidConfig {
                model: "experiment scale",
                what: "train_sizes entries must be positive",
            });
        }
        if self.rows == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "experiment scale",
                what: "rows must be positive",
            });
        }
        if self.test_n == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "experiment scale",
                what: "test_n must be positive",
            });
        }
        Ok(())
    }
}

/// Estimator registry entry used by the sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// QuadHist with its model size pegged to `4×` training queries.
    QuadHist,
    /// PtsHist with model size `4×` training queries.
    PtsHist,
    /// QuickSel with 4 kernels per query.
    QuickSel,
    /// ISOMER (self-chosen bucket count; slow).
    Isomer,
    /// The uniformity-assumption floor.
    Uniform,
    /// QuadHist trained with the smoothed `L∞` objective (Section 4.6).
    QuadHistLInf,
    /// QuadHist with the NNLS weight solver (ablation).
    QuadHistNnls,
}

impl Method {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::QuadHist => "QuadHist",
            Method::PtsHist => "PtsHist",
            Method::QuickSel => "QuickSel",
            Method::Isomer => "Isomer",
            Method::Uniform => "Uniform",
            Method::QuadHistLInf => "QuadHist-Linf",
            Method::QuadHistNnls => "QuadHist-NNLS",
        }
    }

    /// Trains the method, returning the model and the training wall time in
    /// milliseconds, or the typed training error.
    pub fn fit(
        self,
        root: &Rect,
        train: &[TrainingQuery],
    ) -> Result<(BoxedEstimator, f64), SelearnError> {
        let target = (4 * train.len()).max(4);
        let t0 = Instant::now();
        let model: BoxedEstimator = match self {
            Method::QuadHist => Box::new(QuadHist::fit_with_bucket_target(
                root.clone(),
                train,
                target,
                &QuadHistConfig::default(),
            )?),
            Method::QuadHistLInf => Box::new(QuadHist::fit_with_bucket_target(
                root.clone(),
                train,
                target,
                &QuadHistConfig::default().objective(Objective::LInfSmoothed),
            )?),
            Method::QuadHistNnls => Box::new(QuadHist::fit_with_bucket_target(
                root.clone(),
                train,
                target,
                &QuadHistConfig::default().solver(WeightSolver::NnlsPenalty),
            )?),
            Method::PtsHist => Box::new(PtsHist::fit(
                root.clone(),
                train,
                &PtsHistConfig::with_model_size(target),
            )?),
            Method::QuickSel => Box::new(QuickSel::fit(
                root.clone(),
                train,
                &QuickSelConfig::default(),
            )?),
            Method::Isomer => Box::new(Isomer::fit(
                root.clone(),
                train,
                &IsomerConfig::default(),
            )?),
            Method::Uniform => Box::new(UniformBaseline::new(root.clone())),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok((model, ms))
    }
}

/// One result row of an accuracy sweep.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Method name.
    pub method: &'static str,
    /// Training-set size.
    pub train_size: usize,
    /// Ambient dimension.
    pub dim: usize,
    /// Model complexity (bucket count).
    pub buckets: usize,
    /// RMS error on the test set.
    pub rms: f64,
    /// `L∞` error on the test set.
    pub linf: f64,
    /// Q-error quantiles on the test set: 50th, 95th, 99th, max.
    pub q: [f64; 4],
    /// Training wall time in milliseconds.
    pub train_wall_ms: f64,
    /// Batch-prediction wall time over the whole test set, milliseconds.
    pub predict_wall_ms: f64,
    /// Iterations the weight solver ran (`None` when the method has no
    /// iterative solve — e.g. Uniform, or an exact LP path).
    pub solver_iters: Option<usize>,
    /// Whether the weight solver met its tolerance within budget.
    pub solver_converged: Option<bool>,
}

impl AccuracyRow {
    /// Stringifies into CSV cells matching [`label_row`]'s header.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.method.to_string(),
            self.train_size.to_string(),
            self.dim.to_string(),
            self.buckets.to_string(),
            format!("{:.5}", self.rms),
            format!("{:.5}", self.linf),
            format!("{:.3}", self.q[0]),
            format!("{:.3}", self.q[1]),
            format!("{:.3}", self.q[2]),
            format!("{:.3}", self.q[3]),
            format!("{:.1}", self.train_wall_ms),
            format!("{:.2}", self.predict_wall_ms),
            self.solver_iters
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            self.solver_converged
                .map_or_else(|| "-".to_string(), |c| c.to_string()),
        ]
    }
}

/// CSV header for [`AccuracyRow`].
pub fn label_row() -> Vec<&'static str> {
    vec![
        "method", "train_size", "dim", "buckets", "rms", "linf", "q50", "q95", "q99", "qmax",
        "train_wall_ms", "predict_wall_ms", "solver_iters", "solver_converged",
    ]
}

/// Generates a labeled workload deterministically from `(spec, n, seed)`.
pub fn gen_workload(
    dataset: &Dataset,
    spec: &WorkloadSpec,
    n: usize,
    seed: u64,
) -> Result<Workload, SelearnError> {
    let mut rng = StdRng::seed_from_u64(seed);
    Workload::generate(dataset, spec, n, &mut rng)
}

/// Runs a full accuracy sweep: for each training size and method, train on
/// a fresh prefix workload and evaluate on a shared held-out test set.
pub fn run_methods(
    dataset: &Dataset,
    spec: &WorkloadSpec,
    methods: &[Method],
    scale: &ExperimentScale,
    seed: u64,
) -> Result<Vec<AccuracyRow>, SelearnError> {
    let root = Rect::unit(dataset.dim());
    let max_train = scale.train_sizes.iter().copied().max().unwrap_or(0);
    let all = gen_workload(dataset, spec, max_train + scale.test_n, seed)?;
    let (train_pool, test) = all.split(max_train);
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let test_ranges: Vec<Range> = test.queries().iter().map(|q| q.range.clone()).collect();

    let mut rows = Vec::new();
    for &n in scale.train_sizes {
        let (train_w, _) = train_pool.split(n);
        let train: Vec<TrainingQuery> = train_w
            .queries()
            .iter()
            .map(|q| TrainingQuery {
                range: q.range.clone(),
                selectivity: q.selectivity,
            })
            .collect();
        for &m in methods {
            if m == Method::Isomer && n > scale.isomer_limit {
                continue; // matches the paper: ISOMER times out beyond this
            }
            let (model, train_wall_ms) = m.fit(&root, &train)?;
            let t0 = Instant::now();
            let est = model.estimate_all(&test_ranges);
            let predict_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let q = q_error_quantiles(&est, &truth);
            let report = model.solve_report();
            rows.push(AccuracyRow {
                method: m.name(),
                train_size: n,
                dim: dataset.dim(),
                buckets: model.num_buckets(),
                rms: rms_error(&est, &truth),
                linf: l_inf_error(&est, &truth),
                q: [q.p50, q.p95, q.p99, q.max],
                train_wall_ms,
                predict_wall_ms,
                solver_iters: report.map(|r| r.iters),
                solver_converged: report.map(|r| r.converged),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_data::{power_like, CenterDistribution, QueryType};

    #[test]
    fn sweep_produces_rows_for_all_methods_and_sizes() {
        let data = power_like(2_000, 5).project(&[0, 1]);
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
        let scale = ExperimentScale {
            rows: 2_000,
            train_sizes: &[20, 50],
            test_n: 40,
            isomer_limit: 20,
        };
        let rows = run_methods(
            &data,
            &spec,
            &[Method::QuadHist, Method::PtsHist, Method::Isomer],
            &scale,
            1,
        )
        .unwrap();
        // Isomer only runs at n = 20 (limit), others at both sizes → 5 rows
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.rms >= 0.0 && r.rms <= 1.0);
            assert!(r.buckets >= 1);
            assert!(r.q[0] >= 1.0);
            assert!(r.train_wall_ms >= 0.0);
            assert!(r.predict_wall_ms >= 0.0);
            assert_eq!(r.cells().len(), label_row().len());
            // every method here runs an iterative weight solve
            assert!(r.solver_iters.is_some(), "{} missing report", r.method);
            assert!(r.solver_converged.is_some());
        }
    }

    #[test]
    fn more_training_reduces_error_for_quadhist() {
        let data = power_like(5_000, 6).project(&[0, 1]);
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
        let scale = ExperimentScale {
            rows: 5_000,
            train_sizes: &[20, 200],
            test_n: 100,
            isomer_limit: 0,
        };
        let rows = run_methods(&data, &spec, &[Method::QuadHist], &scale, 2).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].rms <= rows[0].rms * 1.2,
            "rms grew with training size: {} -> {}",
            rows[0].rms,
            rows[1].rms
        );
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let data = power_like(1_000, 9).project(&[0, 1]);
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::Random);
        let a = gen_workload(&data, &spec, 10, 3).unwrap();
        let b = gen_workload(&data, &spec, 10, 3).unwrap();
        for (x, y) in a.queries().iter().zip(b.queries()) {
            assert_eq!(x.selectivity, y.selectivity);
        }
    }
}
