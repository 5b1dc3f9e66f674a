//! Weight-estimation solver benchmarks: FISTA vs NNLS vs IPF on design
//! matrices shaped like Equation (6)'s (queries × buckets).
//!
//! FISTA runs on the sparse design matrix, as every estimator calls it;
//! NNLS and IPF take the dense one. `fista/128x512@35%` matches the
//! density of the QuadHist/PtsHist matrices of a 128-query fit with the
//! 4× bucket rule (30–40% nonzero).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_solver::{
    fista_simplex_ls, ipf_max_entropy, nnls_simplex, CsrMatrix, DenseMatrix, FistaOptions,
    IpfOptions, NnlsOptions,
};

/// Coverage matrix with entries in [0, 1] like Equation (6), each nonzero
/// with probability `density`.
fn design(n: usize, m: usize, density: f64, seed: u64) -> (DenseMatrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = DenseMatrix::zeros(0, 0);
    for _ in 0..n {
        let row: Vec<f64> = (0..m)
            .map(|_| {
                if rng.gen::<f64>() < density {
                    rng.gen::<f64>()
                } else {
                    0.0
                }
            })
            .collect();
        a.push_row(&row);
    }
    let s: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 0.5).collect();
    (a, s)
}

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("weight_solvers");
    g.sample_size(10);
    for (n, m) in [(50usize, 200usize), (200, 800)] {
        let (a, s) = design(n, m, 0.2, 5);
        let sparse = CsrMatrix::from_dense(&a);
        g.bench_with_input(
            BenchmarkId::new("fista", format!("{n}x{m}")),
            &(&sparse, &s),
            |b, (a, s)| b.iter(|| fista_simplex_ls(black_box(a), s, &FistaOptions::default())),
        );
        g.bench_with_input(
            BenchmarkId::new("nnls", format!("{n}x{m}")),
            &(&a, &s),
            |b, (a, s)| b.iter(|| nnls_simplex(black_box(a), s, &NnlsOptions::default())),
        );
        g.bench_with_input(
            BenchmarkId::new("ipf", format!("{n}x{m}")),
            &(&a, &s),
            |b, (a, s)| b.iter(|| ipf_max_entropy(black_box(a), s, &IpfOptions::default())),
        );
    }
    let (a, s) = design(128, 512, 0.35, 7);
    let sparse = CsrMatrix::from_dense(&a);
    g.bench_with_input(
        BenchmarkId::new("fista", "128x512@35%"),
        &(&sparse, &s),
        |b, (a, s)| b.iter(|| fista_simplex_ls(black_box(a), s, &FistaOptions::default())),
    );
    g.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
