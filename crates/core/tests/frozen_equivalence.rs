//! Frozen-vs-original equivalence: `freeze()` is a pure layout change.
//!
//! The contract (see `selearn_core::frozen`) is that a [`FrozenEstimator`]
//! returns **bit-identical** estimates to the pointer-based model it was
//! compiled from — same traversal order, same operand order, same clamps.
//! These properties exercise that contract for both frozen families
//! (`QuadHist`, `PtsHist`) on adversarial query mixes:
//!
//! * random rects straddling the domain boundary,
//! * degenerate (zero-width) rects,
//! * rects entirely outside the trained root (empty intersection),
//! * rects covering the whole domain,
//! * non-rectangular ranges (balls, halfspaces) on the generic path,
//! * batch entry points (`estimate_into`, `estimate_all`),
//! * persist round-trips restored straight into the frozen layout.

use proptest::prelude::*;
use selearn_core::{
    load_frozen, save_ptshist, save_quadhist, FrozenEstimator, PtsHist, PtsHistConfig, QuadHist,
    QuadHistConfig, SelectivityEstimator, TrainingQuery,
};
use selearn_geom::{Ball, Halfspace, Point, Range, Rect};

/// 2-D training workload from a flat parameter pool; five values per query
/// (center x/y, width x/y, label).
fn training_2d(pool: &[f64]) -> Vec<TrainingQuery> {
    pool.chunks_exact(5)
        .map(|c| {
            let center = Point::new(vec![c[0], c[1]]);
            let widths = [c[2].max(0.05), c[3].max(0.05)];
            TrainingQuery::new(Rect::from_center_widths(&center, &widths), c[4])
        })
        .collect()
}

/// Adversarial 2-D query mix from a flat pool (four values per rect),
/// plus fixed degenerate / outside / covering cases.
fn query_mix_2d(pool: &[f64]) -> Vec<Range> {
    let mut out: Vec<Range> = pool
        .chunks_exact(4)
        .map(|c| {
            // Straddle the unit domain: lo ∈ [-0.5, 1.5).
            let lo = [c[0] * 2.0 - 0.5, c[1] * 2.0 - 0.5];
            Rect::new(
                vec![lo[0], lo[1]],
                vec![lo[0] + c[2] * 0.8, lo[1] + c[3] * 0.8],
            )
            .into()
        })
        .collect();
    // Degenerate: zero width in one / both dims.
    out.push(Rect::new(vec![0.3, 0.1], vec![0.3, 0.9]).into());
    out.push(Rect::new(vec![0.25, 0.75], vec![0.25, 0.75]).into());
    // Entirely outside the unit root: every intersection is empty.
    out.push(Rect::new(vec![1.5, 1.5], vec![2.0, 1.75]).into());
    out.push(Rect::new(vec![-3.0, -2.0], vec![-1.0, -0.5]).into());
    // Covers the whole domain (and then some).
    out.push(Rect::new(vec![-1.0, -1.0], vec![2.0, 2.0]).into());
    out
}

/// Mixed-shape 2-D training workload from a flat parameter pool; five
/// values per query, cycling rect → halfspace → ball so every fit path
/// sees every shape family in one batch.
fn training_mixed_2d(pool: &[f64]) -> Vec<TrainingQuery> {
    pool.chunks_exact(5)
        .enumerate()
        .map(|(i, c)| {
            let center = Point::new(vec![c[0], c[1]]);
            let range: Range = match i % 3 {
                0 => {
                    let widths = [c[2].max(0.05), c[3].max(0.05)];
                    Rect::from_center_widths(&center, &widths).into()
                }
                1 => {
                    // Angle from the pool; the plane passes through center.
                    let theta = c[2] * std::f64::consts::TAU;
                    let normal = vec![theta.cos(), theta.sin()];
                    Halfspace::through_point(&center, normal).into()
                }
                _ => Ball::new(center, c[2].max(0.05) * 0.5).into(),
            };
            TrainingQuery::new(range, c[4])
        })
        .collect()
}

/// Randomized non-rectangular queries from a flat pool (four values per
/// query, alternating halfspace / ball), exercising the generic path with
/// shapes the fixed spot checks cannot cover.
fn random_generic_queries_2d(pool: &[f64]) -> Vec<Range> {
    pool.chunks_exact(4)
        .enumerate()
        .map(|(i, c)| {
            let center = Point::new(vec![c[0], c[1]]);
            if i % 2 == 0 {
                let theta = c[2] * std::f64::consts::TAU;
                Halfspace::through_point(&center, vec![theta.cos(), theta.sin()]).into()
            } else {
                Ball::new(center, c[2] * 0.7 + 0.01).into()
            }
        })
        .collect()
}

/// Non-rectangular spot checks for the generic estimation path.
fn generic_queries_2d() -> Vec<Range> {
    vec![
        Ball::new(Point::new(vec![0.4, 0.6]), 0.25).into(),
        Ball::new(Point::new(vec![1.8, 1.8]), 0.1).into(),
        Halfspace::new(vec![1.0, 0.0], 0.5).into(),
        Halfspace::new(vec![-1.0, -1.0], -0.3).into(),
    ]
}

/// Asserts bit-identical estimates plus batch-path agreement.
fn assert_equivalent(
    model: &dyn SelectivityEstimator,
    frozen: &FrozenEstimator,
    queries: &[Range],
) -> Result<(), TestCaseError> {
    for q in queries {
        let a = model.estimate(q);
        let b = frozen.estimate(q);
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "frozen {} diverged from {}: {} vs {} on {:?}",
            frozen.name(),
            model.name(),
            a,
            b,
            q
        );
    }
    // Batch entry points reduce to the same per-query scalar path.
    let mut out = vec![f64::NAN; queries.len()];
    frozen.estimate_into(queries, &mut out);
    let all = model.estimate_all(queries);
    for (i, (x, y)) in out.iter().zip(&all).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "batch divergence at query {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn quadhist_freeze_is_bitwise(
        train_pool in proptest::collection::vec(0.0f64..1.0, 50),
        query_pool in proptest::collection::vec(0.0f64..1.0, 48),
    ) {
        let train = training_2d(&train_pool);
        let model =
            QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let frozen = model.freeze();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(generic_queries_2d());
        assert_equivalent(&model, &frozen, &queries)?;
        prop_assert_eq!(model.num_buckets(), frozen.num_buckets());
        prop_assert_eq!(frozen.name(), "FrozenQuadHist");
    }

    #[test]
    fn ptshist_freeze_is_bitwise(
        train_pool in proptest::collection::vec(0.0f64..1.0, 50),
        query_pool in proptest::collection::vec(0.0f64..1.0, 48),
    ) {
        let train = training_2d(&train_pool);
        let cfg = PtsHistConfig { model_size: 64, ..Default::default() };
        let model = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let frozen = model.freeze();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(generic_queries_2d());
        assert_equivalent(&model, &frozen, &queries)?;
        prop_assert_eq!(model.num_buckets(), frozen.num_buckets());
        prop_assert_eq!(frozen.name(), "FrozenPtsHist");
    }

    #[test]
    fn quadhist_fit_on_mixed_shapes_freezes_bitwise(
        train_pool in proptest::collection::vec(0.0f64..1.0, 60),
        query_pool in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        // The estimator is trained on a batch mixing rects, halfspaces,
        // and balls — the end-to-end mixed-shape contract — then frozen;
        // both forms must agree bitwise on an equally mixed query stream.
        let train = training_mixed_2d(&train_pool);
        let model =
            QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let frozen = model.freeze();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(random_generic_queries_2d(&query_pool));
        queries.extend(generic_queries_2d());
        assert_equivalent(&model, &frozen, &queries)?;
        prop_assert_eq!(model.num_buckets(), frozen.num_buckets());
    }

    #[test]
    fn ptshist_fit_on_mixed_shapes_freezes_bitwise(
        train_pool in proptest::collection::vec(0.0f64..1.0, 60),
        query_pool in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        let train = training_mixed_2d(&train_pool);
        let cfg = PtsHistConfig { model_size: 64, ..Default::default() };
        let model = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let frozen = model.freeze();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(random_generic_queries_2d(&query_pool));
        assert_equivalent(&model, &frozen, &queries)?;
    }

    #[test]
    fn persist_round_trip_restores_frozen_layout(
        train_pool in proptest::collection::vec(0.0f64..1.0, 40),
        query_pool in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        let train = training_2d(&train_pool);
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(generic_queries_2d());

        // QuadHist: save → load_frozen must agree bitwise with the frozen
        // form of the reloaded pointer model (restore goes straight into
        // the flat layout — no pointer tree is ever rebuilt for serving).
        let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        let frozen = load_frozen(&buf[..]).unwrap();
        prop_assert_eq!(frozen.name(), "FrozenQuadHist");
        let reloaded = selearn_core::load_quadhist(&buf[..]).unwrap();
        assert_equivalent(&reloaded, &frozen, &queries)?;

        // PtsHist: same contract through the other loader arm.
        let cfg = PtsHistConfig { model_size: 48, ..Default::default() };
        let ph = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let mut buf = Vec::new();
        save_ptshist(&ph, &mut buf).unwrap();
        let frozen = load_frozen(&buf[..]).unwrap();
        prop_assert_eq!(frozen.name(), "FrozenPtsHist");
        let reloaded = selearn_core::load_ptshist(&buf[..]).unwrap();
        assert_equivalent(&reloaded, &frozen, &queries)?;
    }
}

#[test]
fn load_frozen_rejects_unknown_family() {
    let text = "selearn-model v1\ngausshist 2\nend\n";
    assert!(load_frozen(text.as_bytes()).is_err());
}

#[test]
fn frozen_root_exposes_trained_domain() {
    let train = vec![TrainingQuery::new(
        Rect::new(vec![0.1, 0.1], vec![0.6, 0.6]),
        0.4,
    )];
    let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.1)).unwrap();
    let frozen = qh.freeze();
    assert_eq!(frozen.root(), &Rect::unit(2));
    assert!(frozen.solve_report().is_some());
}
