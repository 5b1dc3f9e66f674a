//! # selearn — learned selectivity estimation for range queries
//!
//! A Rust implementation of *"Selectivity Functions of Range Queries are
//! Learnable"* (Hu, Liu, Xiu, Agarwal, Panigrahi, Roy & Yang —
//! SIGMOD 2022): provably sample-efficient, query-driven selectivity
//! estimation for orthogonal-range, halfspace, ball, and semi-algebraic
//! queries.
//!
//! The theory (Theorem 2.1): if a class of selection queries has
//! VC-dimension `λ`, the family of its selectivity functions is agnostically
//! learnable from `Õ(1/ε^{λ+3})` training queries — and not learnable at
//! all if `λ = ∞`. The system side instantiates the theory with two simple
//! generic estimators, **QuadHist** (low dimensions) and **PtsHist** (high
//! dimensions), that match purpose-built state-of-the-art methods.
//!
//! ## Quickstart
//!
//! ```
//! use selearn::prelude::*;
//!
//! // A hidden dataset (the estimator never sees it — only query feedback).
//! let data = power_like(10_000, 42).project(&[0, 1]);
//!
//! // Generate a workload of labeled training queries.
//! let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let workload = Workload::generate(&data, &spec, 300, &mut rng)?;
//! let (train, test) = workload.split(200);
//!
//! // Train QuadHist from the workload alone.
//! let model = QuadHist::fit(
//!     Rect::unit(2),
//!     &to_training(&train),
//!     &QuadHistConfig::with_tau(0.01),
//! )?;
//!
//! // Evaluate on held-out queries.
//! let report = evaluate(&model, &test);
//! assert!(report.rms < 0.1, "rms = {}", report.rms);
//! # Ok::<(), SelearnError>(())
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`geom`] | ranges, intersection volumes, sampling, arrangements |
//! | [`solver`] | NNLS, FISTA, LP simplex, IPF, L∞ fitting |
//! | [`data`] | datasets, workloads, metrics |
//! | [`core`] | QuadHist, PtsHist, ArrangementHist, weight estimation |
//! | [`baselines`] | ISOMER, QuickSel, uniformity baseline |
//! | [`theory`] | VC/fat-shattering oracles, sample-complexity bounds |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod predicate;

pub use selearn_baselines as baselines;
pub use selearn_core as core;
pub use selearn_data as data;
pub use selearn_geom as geom;
pub use selearn_solver as solver;
pub use selearn_theory as theory;

use selearn_core::{SelectivityEstimator, TrainingQuery};
use selearn_data::{l_inf_error, q_error_quantiles, rms_error, QErrorSummary, Workload};

/// Converts a generated workload into the trainer input format.
pub fn to_training(workload: &Workload) -> Vec<TrainingQuery> {
    workload
        .queries()
        .iter()
        .map(|q| TrainingQuery {
            range: q.range.clone(),
            selectivity: q.selectivity,
        })
        .collect()
}

/// Accuracy report over a test workload.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Root-mean-square error.
    pub rms: f64,
    /// Max absolute error.
    pub l_inf: f64,
    /// Q-error quantiles (50/95/99/max).
    pub q_error: QErrorSummary,
    /// Number of test queries.
    pub n: usize,
}

/// Evaluates a trained estimator on a labeled test workload.
pub fn evaluate<E: SelectivityEstimator + ?Sized>(model: &E, test: &Workload) -> EvalReport {
    assert!(!test.is_empty(), "empty test workload");
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let est: Vec<f64> = test
        .queries()
        .iter()
        .map(|q| model.estimate(&q.range))
        .collect();
    EvalReport {
        rms: rms_error(&est, &truth),
        l_inf: l_inf_error(&est, &truth),
        q_error: q_error_quantiles(&est, &truth),
        n: truth.len(),
    }
}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::{evaluate, to_training, EvalReport};
    pub use rand::SeedableRng;
    pub use selearn_baselines::{Isomer, IsomerConfig, QuickSel, QuickSelConfig, UniformBaseline};
    pub use crate::predicate::parse_predicate;
    pub use selearn_core::{
        ArrangementHist, ArrangementHistConfig, FrozenEstimator, GaussHist, GaussHistConfig,
        Objective, OnlineQuadHist, PtsHist, PtsHistConfig, QuadHist, QuadHistConfig,
        SelearnError, SelectivityEstimator, TrainingQuery, WeightSolver,
    };
    pub use selearn_data::{
        census_like, dmv_like, forest_like, power_like, CenterDistribution, Dataset, QueryType,
        Workload, WorkloadSpec,
    };
    pub use selearn_geom::{
        Ball, Halfspace, Point, Range, RangeClass, RangeQuery, Rect, SemiAlgebraicSet,
    };
    pub use selearn_theory::training_set_size;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    

    #[test]
    fn end_to_end_quadhist_pipeline() {
        let data = power_like(5_000, 1).project(&[0, 1]);
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let w = Workload::generate(&data, &spec, 150, &mut rng).unwrap();
        let (train, test) = w.split(100);
        let model = QuadHist::fit(
            Rect::unit(2),
            &to_training(&train),
            &QuadHistConfig::with_tau(0.02),
        )
        .unwrap();
        let report = evaluate(&model, &test);
        assert!(report.rms < 0.15, "rms = {}", report.rms);
        assert_eq!(report.n, 50);
        assert!(report.q_error.p50 >= 1.0);
    }

    #[test]
    fn to_training_preserves_labels() {
        let data = power_like(1_000, 3).project(&[0, 1]);
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::Random);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let w = Workload::generate(&data, &spec, 10, &mut rng).unwrap();
        let t = to_training(&w);
        assert_eq!(t.len(), 10);
        for (a, b) in t.iter().zip(w.queries()) {
            assert_eq!(a.selectivity, b.selectivity);
        }
    }
}
