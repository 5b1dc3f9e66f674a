//! Serial-vs-parallel equivalence suite.
//!
//! Only meaningful with the `parallel` feature: it trains and evaluates
//! the estimators under a forced 4-thread policy and under a forced
//! 1-thread (fully serial) policy — `rayon::ThreadPool::install` scopes
//! the thread count — and demands the results agree to 1e-12 or better.
//! The parallel kernels are designed to be *bitwise* deterministic
//! (order-preserving chunking, serial reduction order), so these tests
//! should never be anywhere near the tolerance.

#![cfg(feature = "parallel")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn::prelude::*;
use selearn_data::Dataset;

const TOL: f64 = 1e-12;

/// Runs `f` under a scoped rayon thread-count policy, so both the
/// parallel (4 threads) and the serial (1 thread) paths are exercised
/// deterministically regardless of the host's core count.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

fn fixture() -> (Dataset, Vec<TrainingQuery>, Vec<Range>) {
    let data = power_like(20_000, 11).project(&[0, 1]);
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
    let mut rng = StdRng::seed_from_u64(42);
    let w = Workload::generate(&data, &spec, 1_400, &mut rng).unwrap();
    let (train_w, test_w) = w.split(400);
    let train = selearn::to_training(&train_w);
    let test: Vec<Range> = test_w.queries().iter().map(|q| q.range.clone()).collect();
    assert_eq!(test.len(), 1_000);
    (data, train, test)
}

#[test]
fn quadhist_weights_and_estimates_match_serial() {
    let (_, train, test) = fixture();
    let cfg = QuadHistConfig::with_tau(0.01);
    let par = with_threads(4, || QuadHist::fit(Rect::unit(2), &train, &cfg).unwrap());
    let ser = with_threads(1, || QuadHist::fit(Rect::unit(2), &train, &cfg).unwrap());

    let pb = par.buckets();
    let sb = ser.buckets();
    assert_eq!(pb.len(), sb.len(), "partition differs");
    for ((pr, pw), (sr, sw)) in pb.iter().zip(&sb) {
        assert_eq!(pr.lo(), sr.lo());
        assert_eq!(pr.hi(), sr.hi());
        assert!((pw - sw).abs() <= TOL, "weight drift: {pw} vs {sw}");
    }

    let pe = with_threads(4, || par.par_estimate_all(&test));
    let se = with_threads(1, || ser.estimate_all(&test));
    for (a, b) in pe.iter().zip(&se) {
        assert!((a - b).abs() <= TOL, "estimate drift: {a} vs {b}");
    }
}

#[test]
fn ptshist_weights_and_estimates_match_serial() {
    let (_, train, test) = fixture();
    let cfg = PtsHistConfig::with_model_size(256);
    let par = with_threads(4, || PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap());
    let ser = with_threads(1, || PtsHist::fit(Rect::unit(2), &train, &cfg).unwrap());

    let ps: Vec<_> = par.support().collect();
    let ss: Vec<_> = ser.support().collect();
    assert_eq!(ps.len(), ss.len());
    for ((pp, pw), (sp, sw)) in ps.iter().zip(&ss) {
        // the support is sampled by the (serial) RNG phase — identical points
        assert_eq!(pp.coords(), sp.coords(), "support point differs");
        assert!((pw - sw).abs() <= TOL, "weight drift: {pw} vs {sw}");
    }

    let pe = with_threads(4, || par.par_estimate_all(&test));
    let se = with_threads(1, || ser.estimate_all(&test));
    for (a, b) in pe.iter().zip(&se) {
        assert!((a - b).abs() <= TOL, "estimate drift: {a} vs {b}");
    }
}

#[test]
fn par_estimate_all_matches_per_query_loop() {
    let (_, train, test) = fixture();
    let model = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.02)).unwrap();
    // batch is ≥ the dispatch threshold, so with 4 threads this takes the
    // parallel path; serial `estimate_all` and the per-query loop agree
    // with it bitwise by the order-preserving chunking contract
    let batch = with_threads(4, || model.par_estimate_all(&test));
    let serial = model.estimate_all(&test);
    let single: Vec<f64> = test.iter().map(|r| model.estimate(r)).collect();
    assert_eq!(batch.len(), single.len());
    for ((a, b), c) in batch.iter().zip(&single).zip(&serial) {
        assert_eq!(a.to_bits(), b.to_bits(), "batch vs single drift: {a} vs {b}");
        assert_eq!(a.to_bits(), c.to_bits(), "batch vs serial drift: {a} vs {c}");
    }
}

#[test]
fn workload_generation_matches_serial() {
    let data = power_like(20_000, 13).project(&[0, 1]);
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::Random);
    let par = with_threads(4, || {
        Workload::generate(&data, &spec, 400, &mut StdRng::seed_from_u64(7)).unwrap()
    });
    let ser = with_threads(1, || {
        Workload::generate(&data, &spec, 400, &mut StdRng::seed_from_u64(7)).unwrap()
    });
    for (a, b) in par.queries().iter().zip(ser.queries()) {
        assert_eq!(a.selectivity.to_bits(), b.selectivity.to_bits());
    }
}

/// Wall-clock comparison of serial vs parallel QuadHist training on a
/// ~10k-query workload. Ignored by default (it is a measurement, not an
/// assertion — speedup depends on the host's core count); run with
///
/// ```sh
/// cargo test --release --features parallel speedup -- --ignored --nocapture
/// ```
#[test]
#[ignore = "timing measurement; run explicitly with --ignored --nocapture"]
fn speedup_measurement_quadhist_10k() {
    use std::time::Instant;

    let data = power_like(50_000, 11).project(&[0, 1]);
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
    let mut rng = StdRng::seed_from_u64(42);
    let w = Workload::generate(&data, &spec, 10_000, &mut rng).unwrap();
    let train = selearn::to_training(&w);
    let test: Vec<Range> = w.queries().iter().map(|q| q.range.clone()).collect();
    let cfg = QuadHistConfig::with_tau(0.005);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut timings = Vec::new();
    for threads in [1usize, cores.max(4)] {
        let t0 = Instant::now();
        let model = with_threads(threads, || QuadHist::fit(Rect::unit(2), &train, &cfg).unwrap());
        let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let est = with_threads(threads, || model.par_estimate_all(&test));
        let predict_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "threads={threads:>2}  fit {fit_ms:>9.1} ms   par_estimate_all({}) {predict_ms:>8.1} ms",
            est.len()
        );
        timings.push((threads, fit_ms, predict_ms));
    }
    let (_, sf, sp) = timings[0];
    let (pt, pf, pp) = timings[1];
    println!(
        "host cores={cores}  fit speedup {:.2}x, predict speedup {:.2}x at {pt} threads",
        sf / pf,
        sp / pp
    );
}

#[test]
fn frozen_parallel_batching_matches_serial() {
    let (_, train, test) = fixture();
    let model = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.02)).unwrap();
    let frozen = model.freeze();
    // The frozen artifact's parallel chunked path must agree bitwise with
    // its serial batch path, not just per query.
    let ft = with_threads(4, || frozen.par_estimate_all(&test));
    let fs = frozen.estimate_all(&test);
    for (a, c) in ft.iter().zip(&fs) {
        assert_eq!(a.to_bits(), c.to_bits(), "parallel vs serial drift: {a} vs {c}");
    }
}

#[test]
fn quadhist_linf_and_nnls_solvers_match_serial() {
    let (_, train, test) = fixture();
    for cfg in [
        QuadHistConfig::with_tau(0.02).objective(Objective::LInfSmoothed),
        QuadHistConfig::with_tau(0.02).solver(WeightSolver::NnlsPenalty),
    ] {
        let par = with_threads(4, || QuadHist::fit(Rect::unit(2), &train, &cfg).unwrap());
        let ser = with_threads(1, || QuadHist::fit(Rect::unit(2), &train, &cfg).unwrap());
        let pe = with_threads(4, || par.par_estimate_all(&test));
        let se = with_threads(1, || ser.estimate_all(&test));
        for (a, b) in pe.iter().zip(&se) {
            assert!((a - b).abs() <= TOL, "estimate drift: {a} vs {b}");
        }
    }
}
