//! Seeded input preparation. Nothing here is timed: the dataset, the
//! labelled pools, the persisted model dump and the store image are all
//! built from `--seed` before any measurement starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_core::{save_quadhist, QuadHist, QuadHistConfig, TrainingQuery};
use selearn_data::{power_like, CenterDistribution, Dataset, QueryType, Workload, WorkloadSpec};
use selearn_geom::{Ball, Halfspace, Range, Rect};
use selearn_serve::{Feedback, Request, Shape, DEFAULT_MODEL};
use selearn_store::{ModelStore, StoreConfig};
use std::path::Path;

/// Rows of the power-like dataset.
pub const ROWS: usize = 40_000;
/// The two attributes the dataset is projected onto: global active power
/// and global intensity, a correlated pair.
pub const DIMS: [usize; 2] = [0, 3];
/// Training queries behind the serving model; the model gets 4x as many
/// buckets (the paper's bucket rule).
pub const SERVING_TRAIN: usize = 500;
/// Feedback-window cap of the online model on `feedback-mixed`.
pub const HISTORY_CAP: usize = 256;
/// Acked records between checkpoints (the server binary's default).
pub const CHECKPOINT_EVERY: u64 = 256;
/// Records in the seeded store image: the checkpoint covers the first
/// `IMAGE_CHECKPOINTED`, the WAL holds `IMAGE_TAIL` more past it.
pub const IMAGE_CHECKPOINTED: usize = 320;
pub const IMAGE_TAIL: usize = 40;

/// Independent RNG stream `stream` of run seed `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// The 2-D power-like dataset for `seed`, normalized to the unit square.
pub fn dataset(seed: u64) -> Dataset {
    power_like(ROWS, seed).project(&DIMS)
}

pub fn root() -> Rect {
    Rect::unit(DIMS.len())
}

/// `n` labelled queries with data-driven centres (paper §4).
pub fn labelled(ds: &Dataset, kind: QueryType, n: usize, rng: &mut StdRng) -> Vec<TrainingQuery> {
    let spec = WorkloadSpec::new(kind, CenterDistribution::DataDriven);
    Workload::generate(ds, &spec, n, rng)
        .expect("workload over a non-empty dataset")
        .queries()
        .iter()
        .map(|q| TrainingQuery::new(q.range.clone(), q.selectivity))
        .collect()
}

/// One unlabelled query of the given kind with a data-driven centre,
/// drawn the way paper §4 describes: box sides U[0,1], ball radius
/// U[0,1], halfspace through the centre with a uniform random normal.
pub fn draw_range(ds: &Dataset, kind: QueryType, rng: &mut StdRng) -> Range {
    let centre = ds.point(rng.gen_range(0..ds.len()));
    let d = ds.dim();
    match kind {
        QueryType::Rect => {
            let widths: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
            Range::Rect(Rect::from_center_widths(&centre, &widths))
        }
        QueryType::Ball => Range::Ball(Ball::new(centre, rng.gen())),
        QueryType::Halfspace | QueryType::Mixed => loop {
            // Box-Muller normals give a uniformly oriented unit normal.
            let v: Vec<f64> = (0..d)
                .map(|_| {
                    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                })
                .collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-9 {
                let normal = v.into_iter().map(|x| x / norm).collect();
                break Range::Halfspace(Halfspace::through_point(&centre, normal));
            }
        },
    }
}

/// A fresh shape cycling rect → halfspace → ball by `i`.
pub fn draw_mixed(ds: &Dataset, i: u64, rng: &mut StdRng) -> Range {
    let kind = [QueryType::Rect, QueryType::Halfspace, QueryType::Ball][(i % 3) as usize];
    draw_range(ds, kind, rng)
}

/// The wire shape of a range (rects, halfspaces and balls only).
pub fn shape_of(range: &Range) -> Shape {
    match range {
        Range::Rect(r) => Shape::Rect {
            lo: r.lo().to_vec(),
            hi: r.hi().to_vec(),
        },
        Range::Halfspace(h) => Shape::Halfspace {
            normal: h.normal().to_vec(),
            offset: h.offset(),
        },
        Range::Ball(b) => Shape::Ball {
            center: b.center().coords().to_vec(),
            radius: b.radius(),
        },
        Range::SemiAlgebraic { .. } => unreachable!("the benchmark draws no semi-algebraic ranges"),
    }
}

/// The request line for `shape` with id `id`.
pub fn request_line(shape: &Shape, id: u64) -> String {
    Request {
        est: DEFAULT_MODEL.to_string(),
        shape: shape.clone(),
        id: Some(id),
    }
    .to_json()
}

/// The feedback line for a labelled rect with id `id`.
pub fn feedback_line(q: &TrainingQuery, id: u64) -> String {
    let Range::Rect(r) = &q.range else {
        unreachable!("feedback pools hold rects only")
    };
    Feedback::rect(
        DEFAULT_MODEL,
        r.lo().to_vec(),
        r.hi().to_vec(),
        q.selectivity,
        Some(id),
    )
    .to_json()
}

/// The serving model: QuadHist fitted on a mixed rect/halfspace/ball
/// workload with 4x as many buckets as training queries, and its dump.
pub fn serving_model(ds: &Dataset, seed: u64) -> (QuadHist, Vec<u8>) {
    let train = labelled(ds, QueryType::Mixed, SERVING_TRAIN, &mut rng(seed, 1));
    let model = QuadHist::fit_with_bucket_target(
        root(),
        &train,
        4 * SERVING_TRAIN,
        &QuadHistConfig::default(),
    )
    .expect("serving model fits");
    let mut dump = Vec::new();
    save_quadhist(&model, &mut dump).expect("serving model serializes");
    (model, dump)
}

/// Production store defaults except the feedback-window cap (see the
/// README for what the default cap costs).
pub fn store_config() -> StoreConfig {
    let mut config = StoreConfig::new(root());
    config.history_cap = HISTORY_CAP;
    config
}

/// Writes the seeded store image into `dir`: `IMAGE_CHECKPOINTED`
/// records then a checkpoint, then `IMAGE_TAIL` records left in the WAL.
/// The window is full (`IMAGE_CHECKPOINTED` > `HISTORY_CAP`), so a run
/// starts at steady-state refit cost. Returns the image's last LSN.
pub fn write_store_image(dir: &Path, feedback: &[TrainingQuery]) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ModelStore::open(dir, store_config()).expect("fresh store opens");
    for q in &feedback[..IMAGE_CHECKPOINTED] {
        store.observe(q.clone()).expect("image observe");
    }
    store.checkpoint().expect("image checkpoint");
    for q in &feedback[IMAGE_CHECKPOINTED..IMAGE_CHECKPOINTED + IMAGE_TAIL] {
        store.observe(q.clone()).expect("image observe");
    }
    store.last_lsn()
}

/// Copies a flat store directory (checkpoints, manifest, WAL segments).
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("read store image") {
        let entry = entry.expect("store image entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
    }
}

/// Point-in-range labels of `ranges` against the dataset.
pub fn truth(ds: &Dataset, ranges: &[Range]) -> Vec<f64> {
    ranges.iter().map(|r| ds.selectivity(r)).collect()
}
