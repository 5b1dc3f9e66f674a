//! Query workload generation (Section 4, "Workloads").
//!
//! Every query is parameterized by a **center point** plus shape
//! parameters:
//!
//! * orthogonal range: per-dimension side lengths drawn `U[0,1]`
//!   (width 0 — an equality predicate — on categorical attributes);
//! * ball: radius drawn `U[0,1]`;
//! * halfspace: the center lies on the boundary plane and a uniformly
//!   random unit normal fixes the orientation.
//!
//! Centers come from one of three distributions: **Data-driven** (uniform
//! over dataset tuples), **Random** (uniform over `[0,1]^d`) or
//! **Gaussian** (isotropic, mean 0.5 and σ 0.167 in the paper's main
//! setup; Figure 16 shifts the mean). Training and test sets are sampled
//! i.i.d. from the same workload unless an experiment says otherwise.

use crate::dataset::Dataset;
use crate::synth::standard_normal;
use rand::Rng;
use selearn_core::SelearnError;
use selearn_geom::{Ball, Halfspace, Point, Range, Rect};

/// Query shape family (Section 2.2's three running examples).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryType {
    /// Orthogonal range queries.
    Rect,
    /// Linear-inequality (halfspace) queries.
    Halfspace,
    /// Distance-based (ball) queries.
    Ball,
    /// Per-query draw among the three shapes, weighted by
    /// [`WorkloadSpec::shape_mix`] — the mixed-shape streams of the
    /// serving and drift experiments.
    Mixed,
}

/// Distribution of query center points.
#[derive(Clone, Debug, PartialEq)]
pub enum CenterDistribution {
    /// Centers sampled uniformly from the dataset tuples.
    DataDriven,
    /// Centers sampled uniformly from `[0,1]^d`.
    Random,
    /// Centers sampled from an isotropic Gaussian (clamped to `[0,1]^d`).
    Gaussian {
        /// Per-dimension mean.
        mean: f64,
        /// Per-dimension standard deviation (paper: 0.167).
        std: f64,
    },
}

impl CenterDistribution {
    /// The paper's default Gaussian workload: mean 0.5, σ 0.167.
    pub fn default_gaussian() -> Self {
        CenterDistribution::Gaussian {
            mean: 0.5,
            std: 0.167,
        }
    }
}

/// Full workload specification.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Query shape family.
    pub query_type: QueryType,
    /// Center-point distribution.
    pub center: CenterDistribution,
    /// Attribute indices treated as categorical: orthogonal queries place
    /// equality predicates there, with the predicate value drawn from the
    /// data so it can actually match (the paper generates "equality
    /// predicates for categorical attributes").
    pub categorical_dims: Vec<usize>,
    /// Width of categorical equality predicates, as a fraction of the
    /// attribute's observed category gap (the minimum distance between
    /// distinct codes). A literal width of 0 gives the box zero volume,
    /// which volume-based histograms cannot learn from; a slab spanning
    /// (most of) the category's share of the normalized domain selects
    /// exactly one code *and* keeps the uniform-within-bucket assumption
    /// meaningful — the discretize-then-normalize treatment the paper
    /// applies to categorical attributes. Must be in `(0, 1]`; values
    /// < 1 leave a margin so neighbouring codes stay excluded under
    /// floating-point wobble.
    pub categorical_width: f64,
    /// Shape-mix weights `[rect, halfspace, ball]`, consulted only when
    /// `query_type` is [`QueryType::Mixed`]. Weights need not sum to 1;
    /// they are normalized at generation time. Each must be finite and
    /// non-negative, and at least one must be positive.
    pub shape_mix: [f64; 3],
}

impl WorkloadSpec {
    /// Spec with no categorical attributes.
    pub fn new(query_type: QueryType, center: CenterDistribution) -> Self {
        Self {
            query_type,
            center,
            categorical_dims: Vec::new(),
            categorical_width: 0.95,
            shape_mix: [1.0, 1.0, 1.0],
        }
    }

    /// Adds categorical attribute indices.
    pub fn with_categorical(mut self, dims: Vec<usize>) -> Self {
        self.categorical_dims = dims;
        self
    }

    /// Sets the `[rect, halfspace, ball]` weights used by
    /// [`QueryType::Mixed`].
    pub fn with_shape_mix(mut self, mix: [f64; 3]) -> Self {
        self.shape_mix = mix;
        self
    }
}

/// One training/test example `z = (R, s)`: a range and its true
/// selectivity under the (hidden) data distribution.
#[derive(Clone, Debug)]
pub struct LabeledQuery {
    /// The query range.
    pub range: Range,
    /// Ground-truth selectivity `s_D(R) ∈ [0, 1]`.
    pub selectivity: f64,
}

/// A generated workload: an i.i.d. sequence of labeled queries.
#[derive(Clone, Debug)]
pub struct Workload {
    queries: Vec<LabeledQuery>,
    dim: usize,
}

impl Workload {
    /// Generates `n` labeled queries against `dataset` under `spec`.
    ///
    /// Returns [`SelearnError::Dataset`] on an empty dataset (there is
    /// nothing to sample centers or labels from) and
    /// [`SelearnError::InvalidConfig`] on a non-finite Gaussian center
    /// distribution or a categorical width outside `(0, 1]`.
    pub fn generate<R: Rng + ?Sized>(
        dataset: &Dataset,
        spec: &WorkloadSpec,
        n: usize,
        rng: &mut R,
    ) -> Result<Workload, SelearnError> {
        let _span = selearn_obs::span!("workload.generate");
        if dataset.is_empty() {
            return Err(SelearnError::Dataset {
                message: "cannot generate a workload over an empty dataset".into(),
            });
        }
        if !(spec.categorical_width > 0.0 && spec.categorical_width <= 1.0) {
            return Err(SelearnError::InvalidConfig {
                model: "workload",
                what: "categorical width must be in (0, 1]",
            });
        }
        if let CenterDistribution::Gaussian { mean, std } = spec.center {
            if !(mean.is_finite() && std.is_finite() && std >= 0.0) {
                return Err(SelearnError::InvalidConfig {
                    model: "workload",
                    what: "gaussian center distribution needs finite mean and std >= 0",
                });
            }
        }
        if spec.query_type == QueryType::Mixed {
            let ok = spec.shape_mix.iter().all(|w| w.is_finite() && *w >= 0.0)
                && spec.shape_mix.iter().sum::<f64>() > 0.0;
            if !ok {
                return Err(SelearnError::InvalidConfig {
                    model: "workload",
                    what: "shape mix weights must be finite, non-negative, with a positive sum",
                });
            }
        }
        let d = dataset.dim();
        // per-categorical-dim equality-slab widths: a fraction of the
        // observed gap between distinct codes
        let cat_width: Vec<f64> = (0..d)
            .map(|i| {
                if spec.categorical_dims.contains(&i) {
                    category_gap(dataset, i) * spec.categorical_width
                } else {
                    0.0
                }
            })
            .collect();
        // Phase 1: draw every range. All randomness happens here, in a
        // fixed order.
        let mut ranges = Vec::with_capacity(n);
        for _ in 0..n {
            // Mixed streams spend exactly one extra draw per query on the
            // shape choice, keeping the serial draw order fixed.
            let shape = match spec.query_type {
                QueryType::Mixed => sample_shape(&spec.shape_mix, rng),
                concrete => concrete,
            };
            let center = sample_center(dataset, &spec.center, rng);
            ranges.push(draw_range(dataset, spec, &cat_width, shape, center, rng));
        }
        // Phase 2: label each range with its true selectivity — a pure,
        // RNG-free scan per range.
        let labels = {
            let _span = selearn_obs::span!("workload.label");
            selearn_obs::counter_add(
                "label_scan_rows",
                (ranges.len() * dataset.len()) as u64,
            );
            label_ranges(dataset, &ranges)
        };
        let queries = ranges
            .into_iter()
            .zip(labels)
            .map(|(range, selectivity)| LabeledQuery { range, selectivity })
            .collect();
        Ok(Workload { queries, dim: d })
    }

    /// The labeled queries.
    pub fn queries(&self) -> &[LabeledQuery] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Splits into a training prefix of size `n_train` and a test suffix.
    ///
    /// # Panics
    /// Panics if `n_train > len`.
    pub fn split(&self, n_train: usize) -> (Workload, Workload) {
        assert!(n_train <= self.len(), "training split larger than workload");
        let (a, b) = self.queries.split_at(n_train);
        (
            Workload {
                queries: a.to_vec(),
                dim: self.dim,
            },
            Workload {
                queries: b.to_vec(),
                dim: self.dim,
            },
        )
    }

    /// Retains only queries with selectivity strictly above `threshold`
    /// (Figure 14 evaluates on the non-empty subset of the Random
    /// workload).
    pub fn filter_nonempty(&self, threshold: f64) -> Workload {
        Workload {
            queries: self
                .queries
                .iter()
                .filter(|q| q.selectivity > threshold)
                .cloned()
                .collect(),
            dim: self.dim,
        }
    }

    /// Builds a workload directly from labeled queries (for tests).
    pub fn from_queries(queries: Vec<LabeledQuery>, dim: usize) -> Workload {
        Workload { queries, dim }
    }

    /// Generates a concatenated stream whose spec shifts between
    /// segments — the drifting workloads of the serving experiments
    /// (center distribution and shape mix can both change mid-stream).
    /// All segments draw from the one `rng` in order, so the whole
    /// stream is deterministic given a seed, and a query's position in
    /// the stream encodes which regime produced it.
    pub fn generate_drift<R: Rng + ?Sized>(
        dataset: &Dataset,
        segments: &[DriftSegment],
        rng: &mut R,
    ) -> Result<Workload, SelearnError> {
        let mut queries = Vec::with_capacity(segments.iter().map(|s| s.queries).sum());
        for segment in segments {
            let part = Workload::generate(dataset, &segment.spec, segment.queries, rng)?;
            queries.extend(part.queries);
        }
        Ok(Workload {
            queries,
            dim: dataset.dim(),
        })
    }
}

/// One regime of a drifting query stream: a workload spec and how many
/// queries it emits before the stream shifts to the next segment.
#[derive(Clone, Debug)]
pub struct DriftSegment {
    /// The workload active during this segment.
    pub spec: WorkloadSpec,
    /// Number of queries this segment contributes.
    pub queries: usize,
}

impl DriftSegment {
    /// Convenience constructor.
    pub fn new(spec: WorkloadSpec, queries: usize) -> Self {
        Self { spec, queries }
    }
}

/// Ground-truth selectivity for each range, in input order.
fn label_ranges(dataset: &Dataset, ranges: &[Range]) -> Vec<f64> {
    ranges.iter().map(|r| dataset.selectivity(r)).collect()
}

/// Minimum distance between distinct values on attribute `dim` (1.0 when
/// the attribute is constant) — the lattice gap of a normalized
/// categorical column.
fn category_gap(dataset: &Dataset, dim: usize) -> f64 {
    let mut vals: Vec<f64> = dataset.rows().map(|r| r[dim]).collect();
    vals.sort_by(f64::total_cmp);
    vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    vals.windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// Draws a concrete shape kind from normalized `[rect, halfspace, ball]`
/// weights with a single RNG draw.
fn sample_shape<R: Rng + ?Sized>(mix: &[f64; 3], rng: &mut R) -> QueryType {
    let total: f64 = mix.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (kind, w) in [QueryType::Rect, QueryType::Halfspace, QueryType::Ball]
        .into_iter()
        .zip(mix)
    {
        if u < *w {
            return kind;
        }
        u -= w;
    }
    QueryType::Ball
}

/// Draws one range of the given concrete shape around `center`, spending
/// RNG draws in a fixed per-shape order (the determinism contract).
fn draw_range<R: Rng + ?Sized>(
    dataset: &Dataset,
    spec: &WorkloadSpec,
    cat_width: &[f64],
    shape: QueryType,
    center: Point,
    rng: &mut R,
) -> Range {
    let d = dataset.dim();
    match shape {
        QueryType::Rect => {
            let mut widths = vec![0.0f64; d];
            let mut center = center;
            for (i, w) in widths.iter_mut().enumerate() {
                if spec.categorical_dims.contains(&i) {
                    *w = cat_width[i];
                    // equality predicates must hit actual category
                    // codes; snap to a data value on this attribute
                    let row = rng.gen_range(0..dataset.len());
                    center[i] = dataset.row(row)[i];
                } else {
                    *w = rng.gen();
                }
            }
            Range::Rect(Rect::from_center_widths(&center, &widths))
        }
        QueryType::Ball => {
            let radius: f64 = rng.gen();
            Range::Ball(Ball::new(center, radius))
        }
        // `Mixed` is resolved to a concrete kind before this call; treat a
        // stray value as a halfspace rather than panicking in a generator.
        QueryType::Halfspace | QueryType::Mixed => {
            let normal = random_unit_vector(d, rng);
            Range::Halfspace(Halfspace::through_point(&center, normal))
        }
    }
}

fn sample_center<R: Rng + ?Sized>(
    dataset: &Dataset,
    dist: &CenterDistribution,
    rng: &mut R,
) -> Point {
    let d = dataset.dim();
    match dist {
        CenterDistribution::DataDriven => {
            let i = rng.gen_range(0..dataset.len());
            dataset.point(i)
        }
        CenterDistribution::Random => Point::new((0..d).map(|_| rng.gen()).collect()),
        CenterDistribution::Gaussian { mean, std } => Point::new(
            (0..d)
                .map(|_| (mean + std * standard_normal(rng)).clamp(0.0, 1.0))
                .collect(),
        ),
    }
}

fn random_unit_vector<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realistic::power_like;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selearn_geom::RangeQuery;

    fn data2d() -> Dataset {
        power_like(5_000, 17).project(&[0, 2])
    }

    #[test]
    fn rect_workload_labels_are_consistent() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
        let mut rng = StdRng::seed_from_u64(1);
        let w = Workload::generate(&d, &spec, 50, &mut rng).unwrap();
        assert_eq!(w.len(), 50);
        for q in w.queries() {
            assert!((0.0..=1.0).contains(&q.selectivity));
            assert!((d.selectivity(&q.range) - q.selectivity).abs() < 1e-12);
        }
    }

    #[test]
    fn data_driven_centers_hit_data() {
        // Data-driven rect queries contain their (data) center → positive
        // selectivity, always.
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
        let mut rng = StdRng::seed_from_u64(2);
        let w = Workload::generate(&d, &spec, 100, &mut rng).unwrap();
        for q in w.queries() {
            assert!(q.selectivity > 0.0);
        }
    }

    #[test]
    fn random_workload_has_many_empty_queries_on_skewed_data() {
        // The paper observes up to 97% near-zero-selectivity Random queries
        // on Power; at minimum a noticeable share should be tiny here.
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::Random);
        let mut rng = StdRng::seed_from_u64(3);
        let w = Workload::generate(&d, &spec, 300, &mut rng).unwrap();
        let tiny = w
            .queries()
            .iter()
            .filter(|q| q.selectivity < 1e-3)
            .count();
        assert!(tiny > 30, "only {tiny} near-empty queries");
        let filtered = w.filter_nonempty(0.0);
        assert!(filtered.len() < w.len());
        for q in filtered.queries() {
            assert!(q.selectivity > 0.0);
        }
    }

    #[test]
    fn gaussian_centers_cluster_near_mean() {
        let d = data2d();
        let spec = WorkloadSpec::new(
            QueryType::Ball,
            CenterDistribution::Gaussian {
                mean: 0.3,
                std: 0.05,
            },
        );
        let mut rng = StdRng::seed_from_u64(4);
        let w = Workload::generate(&d, &spec, 200, &mut rng).unwrap();
        let mut mean = [0.0f64; 2];
        for q in w.queries() {
            if let Range::Ball(b) = &q.range {
                mean[0] += b.center()[0];
                mean[1] += b.center()[1];
            } else {
                panic!("expected ball");
            }
        }
        assert!((mean[0] / 200.0 - 0.3).abs() < 0.02);
        assert!((mean[1] / 200.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn halfspace_center_on_boundary() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Halfspace, CenterDistribution::Random);
        let mut rng = StdRng::seed_from_u64(5);
        let w = Workload::generate(&d, &spec, 20, &mut rng).unwrap();
        for q in w.queries() {
            let Range::Halfspace(h) = &q.range else {
                panic!("expected halfspace")
            };
            // unit normal
            let norm: f64 = h.normal().iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn categorical_dims_get_equality_predicates() {
        let d = crate::realistic::census_like(3_000, 7).project(&[0, 8]);
        // dim 0 is categorical (workclass), dim 1 numeric (age)
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven)
            .with_categorical(vec![0]);
        let mut rng = StdRng::seed_from_u64(6);
        let w = Workload::generate(&d, &spec, 50, &mut rng).unwrap();
        for q in w.queries() {
            let r = q.range.as_rect().unwrap();
            assert!(
                r.width(0) > 0.0 && r.width(0) < 1.0,
                "categorical predicate must be a positive-volume slab"
            );
            // the slab selects exactly one category code
            let codes: std::collections::BTreeSet<u64> = d
                .rows()
                .filter(|row| r.lo()[0] <= row[0] && row[0] <= r.hi()[0])
                .map(|row| (row[0] * 1e9).round() as u64)
                .collect();
            assert_eq!(codes.len(), 1, "slab spans {} codes", codes.len());
        }
    }

    #[test]
    fn split_preserves_order_and_counts() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
        let mut rng = StdRng::seed_from_u64(8);
        let w = Workload::generate(&d, &spec, 30, &mut rng).unwrap();
        let (train, test) = w.split(20);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(
            train.queries()[0].selectivity,
            w.queries()[0].selectivity
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Ball, CenterDistribution::Random);
        let a = Workload::generate(&d, &spec, 10, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = Workload::generate(&d, &spec, 10, &mut StdRng::seed_from_u64(9)).unwrap();
        for (x, y) in a.queries().iter().zip(b.queries()) {
            assert_eq!(x.selectivity, y.selectivity);
        }
    }

    #[test]
    fn mixed_workload_draws_all_three_shapes() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Mixed, CenterDistribution::Random);
        let mut rng = StdRng::seed_from_u64(21);
        let w = Workload::generate(&d, &spec, 300, &mut rng).unwrap();
        let mut rects = 0;
        let mut halfspaces = 0;
        let mut balls = 0;
        for q in w.queries() {
            match &q.range {
                Range::Rect(_) => rects += 1,
                Range::Halfspace(_) => halfspaces += 1,
                Range::Ball(_) => balls += 1,
                other => panic!("unexpected range {other:?}"),
            }
            assert!((0.0..=1.0).contains(&q.selectivity));
        }
        // Equal weights: each shape should land near 100 of 300.
        for (name, n) in [("rect", rects), ("halfspace", halfspaces), ("ball", balls)] {
            assert!((60..=140).contains(&n), "{name}: {n} of 300");
        }
    }

    #[test]
    fn shape_mix_weights_bias_the_draw() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Mixed, CenterDistribution::Random)
            .with_shape_mix([0.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(22);
        let w = Workload::generate(&d, &spec, 50, &mut rng).unwrap();
        assert!(w.queries().iter().all(|q| matches!(q.range, Range::Ball(_))));
    }

    #[test]
    fn degenerate_shape_mix_is_rejected() {
        let d = data2d();
        for mix in [[0.0, 0.0, 0.0], [f64::NAN, 1.0, 1.0], [-1.0, 1.0, 1.0]] {
            let spec = WorkloadSpec::new(QueryType::Mixed, CenterDistribution::Random)
                .with_shape_mix(mix);
            let mut rng = StdRng::seed_from_u64(23);
            assert!(
                Workload::generate(&d, &spec, 5, &mut rng).is_err(),
                "mix {mix:?} must be rejected"
            );
        }
        // Non-mixed workloads ignore the weights entirely.
        let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::Random)
            .with_shape_mix([0.0, 0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(23);
        assert!(Workload::generate(&d, &spec, 5, &mut rng).is_ok());
    }

    #[test]
    fn mixed_generation_is_deterministic_per_seed() {
        let d = data2d();
        let spec = WorkloadSpec::new(QueryType::Mixed, CenterDistribution::Random)
            .with_shape_mix([2.0, 1.0, 1.0]);
        let a = Workload::generate(&d, &spec, 40, &mut StdRng::seed_from_u64(24)).unwrap();
        let b = Workload::generate(&d, &spec, 40, &mut StdRng::seed_from_u64(24)).unwrap();
        for (x, y) in a.queries().iter().zip(b.queries()) {
            assert_eq!(x.selectivity, y.selectivity);
            assert_eq!(
                std::mem::discriminant(&x.range),
                std::mem::discriminant(&y.range)
            );
        }
    }

    #[test]
    fn drift_stream_shifts_regime_at_segment_boundaries() {
        let d = data2d();
        let segments = [
            DriftSegment::new(
                WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven),
                30,
            ),
            DriftSegment::new(
                WorkloadSpec::new(QueryType::Mixed, CenterDistribution::Random)
                    .with_shape_mix([0.0, 1.0, 1.0]),
                30,
            ),
        ];
        let mut rng = StdRng::seed_from_u64(25);
        let w = Workload::generate_drift(&d, &segments, &mut rng).unwrap();
        assert_eq!(w.len(), 60);
        assert_eq!(w.dim(), 2);
        // Segment 1 is all rects; segment 2 excludes rects by weight.
        assert!(w.queries()[..30]
            .iter()
            .all(|q| matches!(q.range, Range::Rect(_))));
        assert!(w.queries()[30..]
            .iter()
            .all(|q| !matches!(q.range, Range::Rect(_))));
        // Deterministic under a shared seed.
        let again =
            Workload::generate_drift(&d, &segments, &mut StdRng::seed_from_u64(25)).unwrap();
        for (x, y) in w.queries().iter().zip(again.queries()) {
            assert_eq!(x.selectivity, y.selectivity);
        }
    }

    #[test]
    fn ranges_have_correct_dim() {
        let d = data2d();
        for qt in [QueryType::Rect, QueryType::Halfspace, QueryType::Ball] {
            let spec = WorkloadSpec::new(qt, CenterDistribution::DataDriven);
            let mut rng = StdRng::seed_from_u64(10);
            let w = Workload::generate(&d, &spec, 5, &mut rng).unwrap();
            for q in w.queries() {
                assert_eq!(q.range.dim(), 2);
            }
        }
    }
}
