//! k-d range-aggregation benchmarks: PtsHist's prediction path, which
//! walks the frozen k-d layout. Demonstrates the pruned traversal beating
//! the linear scan that Equation (7) implies when implemented naively.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_core::{PtsHist, SelectivityEstimator};
use selearn_geom::{Point, Range, Rect};

fn setup(n: usize, d: usize) -> (Vec<Point>, Vec<f64>, Vec<Rect>) {
    let mut rng = StdRng::seed_from_u64(17);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new((0..d).map(|_| rng.gen()).collect()))
        .collect();
    let ws = vec![1.0 / n as f64; n];
    let queries: Vec<Rect> = (0..64)
        .map(|_| {
            let lo: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() * 0.7).collect();
            let hi: Vec<f64> = lo.iter().map(|l| (l + 0.3).min(1.0)).collect();
            Rect::new(lo, hi)
        })
        .collect();
    (pts, ws, queries)
}

fn bench_kdtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("kdtree_range_weight");
    for &(n, d) in &[(1_000usize, 2usize), (8_000, 2), (8_000, 6)] {
        let (pts, ws, queries) = setup(n, d);
        let model =
            PtsHist::from_support(Rect::unit(d), pts.clone(), ws.clone()).expect("finite weights");
        let ranges: Vec<Range> = queries.iter().cloned().map(Range::from).collect();
        g.bench_with_input(
            BenchmarkId::new("kdtree", format!("{n}pts_{d}d")),
            &model,
            |b, m| b.iter(|| ranges.iter().map(|q| m.estimate(black_box(q))).sum::<f64>()),
        );
        g.bench_with_input(
            BenchmarkId::new("linear_scan", format!("{n}pts_{d}d")),
            &(&pts, &ws),
            |b, (pts, ws)| {
                b.iter(|| {
                    queries
                        .iter()
                        .map(|q| {
                            pts.iter()
                                .zip(ws.iter())
                                .filter(|(p, _)| q.contains(p))
                                .map(|(_, &w)| w)
                                .sum::<f64>()
                        })
                        .sum::<f64>()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_kdtree);
criterion_main!(benches);
