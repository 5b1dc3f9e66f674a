//! Metamorphic properties of the trained estimators.
//!
//! Every model in this crate represents a probability distribution, so its
//! selectivity function must behave like a measure regardless of the
//! (noisy, random) workload it was trained on:
//!
//! * **range of values** — `ŝ(R) ∈ [0, 1]` for any query range;
//! * **containment monotonicity** — `R₁ ⊆ R₂ ⇒ ŝ(R₁) ≤ ŝ(R₂)`.
//!
//! The workloads here are synthetic and deliberately arbitrary (random
//! rectangles with random pseudo-labels): the properties must hold for
//! *any* training input, not just realistic ones.

use proptest::prelude::*;
use selearn_core::{
    PtsHist, PtsHistConfig, QuadHist, QuadHistConfig, SelectivityEstimator, TrainingQuery,
};
use selearn_geom::{Point, Range, Rect};

/// Slack for the monotonicity checks: QuadHist compares two closed-form
/// rect intersections per bucket, so only rounding noise is tolerated.
const MONO_TOL: f64 = 1e-9;

/// Builds a 2-D training workload from a flat parameter pool: each query
/// consumes five values (center x/y, width x/y, label).
fn training_2d(pool: &[f64]) -> Vec<TrainingQuery> {
    pool.chunks_exact(5)
        .map(|c| {
            let center = Point::new(vec![c[0], c[1]]);
            let widths = [c[2].max(0.05), c[3].max(0.05)];
            TrainingQuery::new(Rect::from_center_widths(&center, &widths), c[4])
        })
        .collect()
}

/// A nested query pair inside the unit square: the inner rect shrinks the
/// outer one toward its center by the (positive) factors in `t`.
fn nested_pair(c: &[f64]) -> (Range, Range) {
    let center = Point::new(vec![c[0], c[1]]);
    let outer_w = [c[2].max(0.1), c[3].max(0.1)];
    let inner_w = [outer_w[0] * c[4], outer_w[1] * c[5]];
    let outer = Rect::from_center_widths(&center, &outer_w);
    let inner = Rect::from_center_widths(&center, &inner_w);
    (Range::Rect(inner), Range::Rect(outer))
}

fn check_model(
    model: &dyn SelectivityEstimator,
    pairs: &[(Range, Range)],
) -> Result<(), TestCaseError> {
    for (inner, outer) in pairs {
        let si = model.estimate(inner);
        let so = model.estimate(outer);
        prop_assert!((0.0..=1.0).contains(&si), "estimate out of range: {si}");
        prop_assert!((0.0..=1.0).contains(&so), "estimate out of range: {so}");
        prop_assert!(
            si <= so + MONO_TOL,
            "containment violated: inner {si} > outer {so} ({})",
            model.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn quadhist_estimates_bounded_and_monotone(
        train_pool in proptest::collection::vec(0.0f64..1.0, 60),
        query_pool in proptest::collection::vec(0.01f64..1.0, 60),
    ) {
        let train = training_2d(&train_pool);
        let model = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let pairs: Vec<_> = query_pool.chunks_exact(6).map(nested_pair).collect();
        check_model(&model, &pairs)?;
    }

    #[test]
    fn ptshist_estimates_bounded_and_monotone(
        train_pool in proptest::collection::vec(0.0f64..1.0, 60),
        query_pool in proptest::collection::vec(0.01f64..1.0, 60),
        seed in 0u64..1_000,
    ) {
        let train = training_2d(&train_pool);
        let mut cfg = PtsHistConfig::with_model_size(64);
        cfg.seed = seed;
        let model = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let pairs: Vec<_> = query_pool.chunks_exact(6).map(nested_pair).collect();
        check_model(&model, &pairs)?;
    }
}
