//! Scale tests for the restore path and the online learner: thousands of
//! buckets and tens of thousands of feedback records, with explicit
//! performance guards on the indexed (non-quadratic) restore.

use selearn_core::{
    load_quadhist, save_quadhist, OnlineQuadHist, QuadHist, QuadHistConfig, SelectivityEstimator,
    TrainingQuery,
};
use selearn_geom::{Rect, VolumeEstimator};
use std::collections::VecDeque;
use std::time::Instant;

/// BFS-splits `root` into at least `target` congruent-by-level quadtree
/// leaves (each split replaces one leaf with 2^d children).
fn partition(root: &Rect, target: usize) -> Vec<Rect> {
    let mut queue: VecDeque<Rect> = VecDeque::from([root.clone()]);
    while queue.len() < target {
        let cell = queue.pop_front().unwrap();
        queue.extend(cell.split());
    }
    queue.into()
}

/// Deterministic pseudo-random stream without a dev-dependency: a 64-bit
/// splitmix step mapped to `[0, 1)`.
struct Mix(u64);
impl Mix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn weighted_buckets(cells: Vec<Rect>) -> Vec<(Rect, f64)> {
    let n = cells.len();
    let total: f64 = (1..=n).map(|i| i as f64).sum();
    cells
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, (i + 1) as f64 / total))
        .collect()
}

#[test]
fn five_thousand_bucket_round_trip_is_bit_for_bit() {
    let root = Rect::new(vec![0.0, 0.0], vec![1e6, 1e6]);
    let buckets = weighted_buckets(partition(&root, 5000));
    assert!(buckets.len() >= 5000);

    let model = QuadHist::from_buckets(root.clone(), &buckets, VolumeEstimator::default())
        .expect("restore");
    let mut dump = Vec::new();
    save_quadhist(&model, &mut dump).expect("save");

    let t0 = Instant::now();
    let loaded = load_quadhist(dump.as_slice()).expect("load");
    let load_time = t0.elapsed();

    // The hex-bit persist format plus the lattice-indexed restore must
    // round-trip every coordinate and weight exactly.
    let a = model.buckets();
    let b = loaded.buckets();
    assert_eq!(a.len(), b.len());
    for ((ra, wa), (rb, wb)) in a.iter().zip(&b) {
        assert_eq!(wa.to_bits(), wb.to_bits(), "weight not bit-for-bit");
        assert_eq!(ra.lo(), rb.lo());
        assert_eq!(ra.hi(), rb.hi());
    }

    // Restore-time guard: parsing + rebuilding 5k buckets is indexed work,
    // not quadratic search. Generous bound for slow CI machines — the
    // old find-based path took tens of seconds here.
    assert!(
        load_time.as_secs_f64() < 5.0,
        "5k-bucket load took {load_time:?}"
    );

    // And the loaded model answers like the original.
    let probe: selearn_geom::Range = Rect::new(vec![1e5, 2e5], vec![6e5, 7e5]).into();
    assert_eq!(
        model.estimate(&probe).to_bits(),
        loaded.estimate(&probe).to_bits()
    );
}

#[test]
fn indexed_restore_beats_linear_find_by_10x_at_10k_buckets() {
    let root = Rect::unit(2);
    let buckets = weighted_buckets(partition(&root, 10_000));
    assert!(buckets.len() >= 10_000);

    // Indexed path: the real restore.
    let t0 = Instant::now();
    let model = QuadHist::from_buckets(root.clone(), &buckets, VolumeEstimator::default())
        .expect("restore");
    let indexed = t0.elapsed();
    assert_eq!(model.num_buckets(), buckets.len());

    // Reference: the pre-fix matching strategy — for every leaf, linearly
    // scan the bucket list comparing corners under tolerance. Same work
    // the old `find`-based loop did per leaf, reproduced here so the
    // speedup assertion keeps guarding the O(n log n) property.
    let leaves = model.buckets();
    let t1 = Instant::now();
    let mut matched = 0usize;
    for (cell, _) in &leaves {
        let hit = buckets.iter().position(|(r, _)| {
            r.lo()
                .iter()
                .zip(cell.lo())
                .chain(r.hi().iter().zip(cell.hi()))
                .all(|(a, b)| (a - b).abs() < 1e-9)
        });
        matched += usize::from(hit.is_some());
    }
    let linear = t1.elapsed();
    assert_eq!(matched, leaves.len(), "reference matcher must succeed");

    assert!(
        linear >= indexed * 10,
        "indexed restore must be >= 10x faster than linear find: \
         indexed {indexed:?}, linear {linear:?}"
    );
}

#[test]
fn online_survives_50k_record_stream_with_bounded_window() {
    const STREAM: usize = 50_000;
    const CAP: usize = 1_000;

    let root = Rect::unit(2);
    let config = QuadHistConfig {
        max_leaves: 128,
        ..QuadHistConfig::with_tau(0.05)
    };
    let make = || {
        OnlineQuadHist::new(root.clone(), config.clone(), 5_000)
            .expect("construct")
            .with_history_cap(CAP)
    };
    let mut online = make();
    let mut twin = make();

    let mut rng = Mix(42);
    for i in 0..STREAM {
        let (a, b) = (rng.next_f64(), rng.next_f64());
        let (c, d) = (rng.next_f64(), rng.next_f64());
        let lo = vec![a.min(b), c.min(d)];
        let hi = vec![a.max(b), c.max(d)];
        // Uniform ground truth: selectivity = box volume.
        let sel: f64 = lo.iter().zip(&hi).map(|(l, h)| h - l).product();
        let q = TrainingQuery::new(Rect::new(lo, hi), sel);
        online.observe(q.clone()).expect("observe");
        twin.observe(q).expect("observe twin");
        // The memory bound must hold throughout the stream, not just at
        // the end — a late trim would still be unbounded growth.
        if i % 10_000 == 0 {
            assert!(online.history_len() <= CAP);
        }
    }

    assert_eq!(online.observations(), STREAM);
    assert_eq!(online.history_len(), CAP, "window must sit exactly at cap");
    online.refit().expect("refit");
    twin.refit().expect("refit twin");

    // Estimates are valid probabilities, track uniform truth sanely, and
    // the whole ingest→refit pipeline is deterministic.
    let mut probe_rng = Mix(7);
    let mut worst: f64 = 0.0;
    for _ in 0..200 {
        let (a, b) = (probe_rng.next_f64(), probe_rng.next_f64());
        let (c, d) = (probe_rng.next_f64(), probe_rng.next_f64());
        let lo = vec![a.min(b), c.min(d)];
        let hi = vec![a.max(b), c.max(d)];
        let truth: f64 = lo.iter().zip(&hi).map(|(l, h)| h - l).product();
        let probe: selearn_geom::Range = Rect::new(lo, hi).into();
        let est = online.estimate(&probe);
        assert!((0.0..=1.0).contains(&est), "estimate {est} out of range");
        assert_eq!(
            est.to_bits(),
            twin.estimate(&probe).to_bits(),
            "same stream, same cap => bitwise-identical estimates"
        );
        worst = worst.max((est - truth).abs());
    }
    assert!(worst < 0.15, "uniform-data model off by {worst}");

    // Freezing at scale hands out the model's own partition, no refit.
    let frozen = online.freeze().expect("freeze");
    assert_eq!(frozen.num_buckets(), online.num_buckets());
}
