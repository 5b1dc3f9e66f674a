//! Frozen-kernel accuracy: every QuadHist and PtsHist estimate goes
//! through a `selearn_core::frozen` kernel, and these properties check the
//! kernels' values against brute-force oracles written here. The oracles
//! evaluate Equation (6) over every `buckets()` leaf and Equation (7) over
//! every `support()` point, with no pruning, on adversarial query mixes:
//!
//! * random rects straddling the domain boundary,
//! * degenerate (zero-width) rects,
//! * rects entirely outside the trained root (empty intersection),
//! * rects covering the whole domain,
//! * non-rectangular ranges (balls, halfspaces) on the generic path,
//! * batch entry points (`estimate_into`, `estimate_all`),
//! * persist round-trips restored straight into the frozen layout.
//!
//! The exact bits the kernels return are pinned by `tests/golden_weights.rs`
//! at the workspace root.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_core::{
    load_frozen, save_ptshist, save_quadhist, FrozenEstimator, PtsHist, PtsHistConfig, QuadHist,
    QuadHistConfig, SelectivityEstimator, TrainingQuery,
};
use selearn_geom::{Ball, Halfspace, Point, Range, RangeQuery, Rect, VolumeEstimator, EPS};

/// Absolute tolerance between a kernel and its oracle: the two sum the
/// same terms in different orders.
const TOL: f64 = 1e-12;

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

/// Equation (6) without pruning: every leaf's covered fraction times its
/// weight. Leaves with non-positive weight or a degenerate cell carry no
/// mass.
fn quad_oracle(buckets: &[(Rect, f64)], range: &Range) -> f64 {
    let volume = VolumeEstimator::default();
    let mut total = 0.0;
    for (cell, w) in buckets {
        let cv = cell.volume();
        if *w <= 0.0 || cv <= EPS {
            continue;
        }
        total += (range.intersection_volume(cell, &volume) / cv).clamp(0.0, 1.0) * w;
    }
    total.clamp(0.0, 1.0)
}

/// Equation (7) without pruning: the weight of every support point the
/// range contains.
fn pts_oracle<'a>(support: impl Iterator<Item = (&'a Point, f64)>, range: &Range) -> f64 {
    support
        .filter(|(p, _)| range.contains(p))
        .map(|(_, w)| w)
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// Checks `model` against `oracle` on every query, and its batch entry
/// points against its per-query path bitwise.
fn assert_matches_oracle(
    model: &dyn SelectivityEstimator,
    oracle: impl Fn(&Range) -> f64,
    queries: &[Range],
) -> Result<(), TestCaseError> {
    for q in queries {
        let (got, want) = (model.estimate(q), oracle(q));
        prop_assert!(
            (got - want).abs() <= TOL,
            "{} estimate {} vs oracle {} on {:?}",
            model.name(),
            got,
            want,
            q
        );
    }
    let mut out = vec![f64::NAN; queries.len()];
    model.estimate_into(queries, &mut out);
    let all = model.estimate_all(queries);
    for (i, q) in queries.iter().enumerate() {
        let single = model.estimate(q).to_bits();
        prop_assert_eq!(out[i].to_bits(), single, "estimate_into divergence at query {}", i);
        prop_assert_eq!(all[i].to_bits(), single, "estimate_all divergence at query {}", i);
    }
    Ok(())
}

/// Round-trips `frozen` against the model it was restored from.
fn assert_same_estimates(
    model: &dyn SelectivityEstimator,
    frozen: &FrozenEstimator,
    queries: &[Range],
) -> Result<(), TestCaseError> {
    for q in queries {
        let (a, b) = (model.estimate(q), frozen.estimate(q));
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {} on {:?}", a, b, q);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn quadhist_matches_oracle(
        train_pool in proptest::collection::vec(0.0f64..1.0, 50),
        query_pool in proptest::collection::vec(0.0f64..1.0, 48),
    ) {
        let train = training_2d(&train_pool);
        let model =
            QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let buckets = model.buckets();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(generic_queries_2d());
        assert_matches_oracle(&model, |q| quad_oracle(&buckets, q), &queries)?;
        let frozen = model.freeze();
        prop_assert_eq!(model.num_buckets(), frozen.num_buckets());
        prop_assert_eq!(frozen.name(), "FrozenQuadHist");
    }

    #[test]
    fn ptshist_matches_oracle(
        train_pool in proptest::collection::vec(0.0f64..1.0, 50),
        query_pool in proptest::collection::vec(0.0f64..1.0, 48),
    ) {
        let train = training_2d(&train_pool);
        let cfg = PtsHistConfig { model_size: 64, ..Default::default() };
        let model = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(generic_queries_2d());
        assert_matches_oracle(&model, |q| pts_oracle(model.support(), q), &queries)?;
        let frozen = model.freeze();
        prop_assert_eq!(model.num_buckets(), frozen.num_buckets());
        prop_assert_eq!(frozen.name(), "FrozenPtsHist");
    }

    #[test]
    fn quadhist_fit_on_mixed_shapes_matches_oracle(
        train_pool in proptest::collection::vec(0.0f64..1.0, 60),
        query_pool in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        // The estimator is trained on a batch mixing rects, halfspaces,
        // and balls — the end-to-end mixed-shape contract — and queried
        // with an equally mixed stream.
        let train = training_mixed_2d(&train_pool);
        let model =
            QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let buckets = model.buckets();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(random_generic_queries_2d(&query_pool));
        queries.extend(generic_queries_2d());
        assert_matches_oracle(&model, |q| quad_oracle(&buckets, q), &queries)?;
    }

    #[test]
    fn ptshist_fit_on_mixed_shapes_matches_oracle(
        train_pool in proptest::collection::vec(0.0f64..1.0, 60),
        query_pool in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        let train = training_mixed_2d(&train_pool);
        let cfg = PtsHistConfig { model_size: 64, ..Default::default() };
        let model = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(random_generic_queries_2d(&query_pool));
        assert_matches_oracle(&model, |q| pts_oracle(model.support(), q), &queries)?;
    }

    #[test]
    fn persist_round_trip_restores_frozen_layout(
        train_pool in proptest::collection::vec(0.0f64..1.0, 40),
        query_pool in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        let train = training_2d(&train_pool);
        let mut queries = query_mix_2d(&query_pool);
        queries.extend(generic_queries_2d());

        // QuadHist: save → load_frozen must answer bitwise like the model
        // it was saved from and like the reloaded model.
        let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        let frozen = load_frozen(&buf[..]).unwrap();
        prop_assert_eq!(frozen.name(), "FrozenQuadHist");
        assert_same_estimates(&qh, &frozen, &queries)?;
        let reloaded = selearn_core::load_quadhist(&buf[..]).unwrap();
        assert_same_estimates(&reloaded, &frozen, &queries)?;

        // PtsHist: same contract through the other loader arm.
        let cfg = PtsHistConfig { model_size: 48, ..Default::default() };
        let ph = PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap();
        let mut buf = Vec::new();
        save_ptshist(&ph, &mut buf).unwrap();
        let frozen = load_frozen(&buf[..]).unwrap();
        prop_assert_eq!(frozen.name(), "FrozenPtsHist");
        assert_same_estimates(&ph, &frozen, &queries)?;
        let reloaded = selearn_core::load_ptshist(&buf[..]).unwrap();
        assert_same_estimates(&reloaded, &frozen, &queries)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ptshist_support_matches_oracle_on_small_rects(
        coords in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..80),
        qlo in (0.0f64..0.9, 0.0f64..0.9),
        qsize in (0.0f64..0.6, 0.0f64..0.6),
    ) {
        let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(vec![x, y])).collect();
        let ws = vec![1.0 / pts.len() as f64; pts.len()];
        let model = PtsHist::from_support(Rect::unit(2), pts, ws).unwrap();
        let q: Range = Rect::new(
            vec![qlo.0, qlo.1],
            vec![(qlo.0 + qsize.0).min(1.0), (qlo.1 + qsize.1).min(1.0)],
        )
        .into();
        assert_matches_oracle(&model, |r| pts_oracle(model.support(), r), &[q])?;
    }
}

/// Uniform random points in the unit `d`-cube with normalized weights.
fn random_support(n: usize, d: usize, seed: u64) -> (Vec<Point>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new((0..d).map(|_| rng.gen()).collect()))
        .collect();
    let mut ws: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let total: f64 = ws.iter().sum();
    for w in &mut ws {
        *w /= total;
    }
    (pts, ws)
}

/// `PtsHist::from_support(..).estimate` against the brute-force sum.
fn check_support(pts: Vec<Point>, ws: Vec<f64>, queries: &[Range]) {
    let d = pts.first().map_or(2, Point::dim);
    let model = PtsHist::from_support(Rect::unit(d), pts, ws).unwrap();
    for q in queries {
        let (got, want) = (model.estimate(q), pts_oracle(model.support(), q));
        assert!((got - want).abs() <= TOL, "got {got}, want {want} on {q:?}");
    }
}

#[test]
fn ptshist_support_matches_oracle_2d() {
    let (pts, ws) = random_support(500, 2, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let queries: Vec<Range> = (0..200)
        .map(|_| {
            let lo = [rng.gen::<f64>() * 0.8, rng.gen::<f64>() * 0.8];
            let hi = vec![
                lo[0] + rng.gen::<f64>() * 0.2,
                lo[1] + rng.gen::<f64>() * 0.2,
            ];
            Rect::new(lo.to_vec(), hi).into()
        })
        .collect();
    check_support(pts, ws, &queries);
}

#[test]
fn ptshist_support_matches_oracle_high_dim() {
    let (pts, ws) = random_support(300, 6, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let queries: Vec<Range> = (0..50)
        .map(|_| {
            let lo: Vec<f64> = (0..6).map(|_| rng.gen::<f64>() * 0.5).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen::<f64>() * 0.5).collect();
            Rect::new(lo, hi).into()
        })
        .collect();
    check_support(pts, ws, &queries);
}

#[test]
fn ptshist_support_matches_oracle_on_balls_and_halfspaces() {
    let (pts, ws) = random_support(400, 2, 6);
    check_support(
        pts,
        ws,
        &[Ball::new(Point::new(vec![0.4, 0.6]), 0.25).into()],
    );
    let (pts, ws) = random_support(400, 3, 7);
    check_support(pts, ws, &[Halfspace::new(vec![1.0, -0.5, 0.3], 0.2).into()]);
}

#[test]
fn ptshist_support_edge_cases() {
    // The whole space holds all the mass.
    let (pts, ws) = random_support(200, 3, 5);
    let model = PtsHist::from_support(Rect::unit(3), pts, ws).unwrap();
    assert!((model.estimate(&Rect::unit(3).into()) - 1.0).abs() <= TOL);
    // Empty and single-point supports.
    let empty = PtsHist::from_support(Rect::unit(2), vec![], vec![]).unwrap();
    assert_eq!(empty.estimate(&Rect::unit(2).into()), 0.0);
    let one =
        PtsHist::from_support(Rect::unit(2), vec![Point::new(vec![0.5, 0.5])], vec![1.0]).unwrap();
    assert_eq!(one.estimate(&Rect::unit(2).into()), 1.0);
    let off: Range = Rect::new(vec![0.6, 0.6], vec![1.0, 1.0]).into();
    assert_eq!(one.estimate(&off), 0.0);
    // Duplicate points, including a zero-volume query on them.
    let p = Point::new(vec![0.5, 0.5]);
    let dup = PtsHist::from_support(
        Rect::unit(2),
        vec![p.clone(), p.clone(), p],
        vec![0.2, 0.3, 0.5],
    )
    .unwrap();
    assert!((dup.estimate(&Rect::unit(2).into()) - 1.0).abs() <= TOL);
    let exact: Range = Rect::new(vec![0.5, 0.5], vec![0.5, 0.5]).into();
    assert!((dup.estimate(&exact) - 1.0).abs() <= TOL);
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
