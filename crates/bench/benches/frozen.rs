//! Frozen QuadHist inference on a 10k-bucket model: single queries and a
//! 512-query `estimate_into` batch. The frozen artifact walks implicit
//! array-indexed nodes and multiplies clamped per-dimension overlaps in
//! flat coordinate lanes; `perf-suite` gates the same two numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_core::{QuadHist, SelectivityEstimator};
use selearn_geom::{Range, Rect, VolumeEstimator};
use std::collections::VecDeque;

/// BFS-splits the unit square into at least `target` quadtree leaves with
/// normalized weights — a cheap way to a 10k-bucket model without running
/// the trainer inside a benchmark.
fn buckets(target: usize) -> Vec<(Rect, f64)> {
    let mut queue: VecDeque<Rect> = VecDeque::from([Rect::unit(2)]);
    while queue.len() < target {
        let cell = match queue.pop_front() {
            Some(c) => c,
            None => break,
        };
        queue.extend(cell.split());
    }
    let n = queue.len();
    queue
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, 1.0 / n as f64 * ((i % 7) + 1) as f64 / 4.0))
        .collect()
}

fn probes(n: usize, seed: u64) -> Vec<Range> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cx: f64 = rng.gen();
            let cy: f64 = rng.gen();
            let w: f64 = rng.gen::<f64>() * 0.3 + 0.01;
            Rect::new(
                vec![(cx - w).max(0.0), (cy - w).max(0.0)],
                vec![(cx + w).min(1.0), (cy + w).min(1.0)],
            )
            .into()
        })
        .collect()
}

fn bench_frozen(c: &mut Criterion) {
    let model = QuadHist::from_buckets(Rect::unit(2), &buckets(10_000), VolumeEstimator::default())
        .expect("BFS buckets tile the unit square");
    let queries = probes(64, 9);
    let n_buckets = model.num_buckets();

    let mut g = c.benchmark_group("frozen_single");
    g.bench_with_input(BenchmarkId::new("frozen", n_buckets), &model, |b, m| {
        b.iter(|| {
            queries
                .iter()
                .map(|r| m.estimate(black_box(r)))
                .sum::<f64>()
        })
    });
    g.finish();

    let batch = probes(512, 10);
    let mut out = vec![0.0; batch.len()];
    let mut g = c.benchmark_group("frozen_batch512");
    g.bench_with_input(BenchmarkId::new("frozen", n_buckets), &model, |b, m| {
        b.iter(|| {
            m.estimate_into(black_box(&batch), &mut out);
            out[0]
        })
    });
    g.finish();
}

criterion_group!(benches, bench_frozen);
criterion_main!(benches);
