//! Model-restore benchmarks: `QuadHist::from_buckets` rebuilds a trained
//! model from its persisted bucket list in one keyed pass. Each bucket is
//! keyed once by its integer lattice key (depth + per-dim cell index),
//! then the tree is grown top-down, each node looking its own key up, so
//! the rebuild is linear in the bucket count up to hashing. The
//! pre-index strategy — a linear corner-matching scan per leaf — is
//! reproduced here as the baseline so the ~n²/n separation stays visible
//! in bench history.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use selearn_core::{QuadHist, SelectivityEstimator};
use selearn_geom::{Rect, VolumeEstimator};
use std::collections::VecDeque;

/// BFS-splits the unit square into at least `target` quadtree leaves and
/// assigns normalized weights.
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

fn bench_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("restore");
    for size in [1_000usize, 4_000, 10_000] {
        let bs = buckets(size);
        g.bench_with_input(BenchmarkId::new("indexed", size), &bs, |b, bs| {
            b.iter(|| {
                QuadHist::from_buckets(
                    Rect::unit(2),
                    black_box(bs),
                    VolumeEstimator::default(),
                )
                .map(|m| m.num_buckets())
            })
        });
    }
    // The linear-find baseline only at the smallest size — at 10k buckets
    // a quadratic scan per iteration would dominate the whole bench run.
    let bs = buckets(1_000);
    g.bench_with_input(BenchmarkId::new("linear_find", 1_000), &bs, |b, bs| {
        b.iter(|| {
            let mut matched = 0usize;
            for (cell, _) in bs.iter() {
                let hit = bs.iter().position(|(r, _)| {
                    r.lo()
                        .iter()
                        .zip(cell.lo())
                        .chain(r.hi().iter().zip(cell.hi()))
                        .all(|(a, b)| (a - b).abs() < 1e-9)
                });
                matched += usize::from(hit.is_some());
            }
            black_box(matched)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_restore);
criterion_main!(benches);
