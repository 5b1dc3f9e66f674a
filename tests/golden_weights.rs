//! Golden trained-bits regression: fixed-seed fits of every estimator
//! that ends in the FISTA weight solve, pinned by an FNV-1a hash over the
//! trained weights' bit patterns plus the iteration count of every solve
//! the fit ran. A kernel or solver change that moves a single ulp of any
//! weight — or one iteration of any solve — changes the hash.
//!
//! The hashes were recorded from the dense-matrix solver; the sparse
//! design matrices must reproduce them exactly. A second set pins the
//! bits of the models' estimates on a fixed probe set; those hashes were
//! recorded from the pointer-tree walks that answered estimates before
//! the frozen kernels became the only inference code. A third pins what
//! restoring a QuadHist dump builds: the bytes of the restored model's
//! own dump (its arena order and weight bits), recorded from the
//! three-index restore the one-pass restore replaced, and its estimates.
//! Tests share the global obs sink (to read each solve's
//! `SolverReport`), so a file-local lock serializes them.

use selearn::prelude::*;
use selearn_obs::{Event, MemorySink};
use std::sync::{Arc, Mutex};

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs `fit` with a memory sink installed and hashes the weights it
/// returns together with the `iters` of every solver report it emitted.
/// Returns the hash and the iteration counts (for the failure message).
fn golden(fit: impl FnOnce() -> Vec<f64>) -> (u64, Vec<usize>) {
    let _g = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = Arc::new(MemorySink::new());
    selearn_obs::set_sink(sink.clone());
    let weights = fit();
    selearn_obs::clear_sink();
    let iters: Vec<usize> = sink
        .take()
        .into_iter()
        .filter_map(|e| match e {
            Event::SolverReport { iters, .. } => Some(iters),
            _ => None,
        })
        .collect();
    assert!(!iters.is_empty(), "the fit ran no solve");
    let mut h = Fnv::new();
    for w in &weights {
        h.word(w.to_bits());
    }
    for &it in &iters {
        h.word(it as u64);
    }
    (h.0, iters)
}

fn workload(n: usize, seed: u64) -> Vec<TrainingQuery> {
    let data = power_like(20_000, 11).project(&[0, 1]);
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let w = Workload::generate(&data, &spec, n, &mut rng).unwrap();
    to_training(&w)
}

fn check(name: &str, (got, iters): (u64, Vec<usize>), want: u64) {
    assert_eq!(
        got, want,
        "{name}: trained weights or solver iterations changed (iters {iters:?}); \
         got hash {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn quadhist_bucket_target_weights_are_pinned() {
    let train = workload(128, 1);
    let got = golden(|| {
        let m = QuadHist::fit_with_bucket_target(
            Rect::unit(2),
            &train,
            4 * train.len(),
            &QuadHistConfig::default(),
        )
        .unwrap();
        m.buckets().into_iter().map(|(_, w)| w).collect()
    });
    check("quadhist", got, 0xc324_047c_bb0b_5e00);
}

#[test]
fn ptshist_weights_are_pinned() {
    let train = workload(128, 2);
    let got = golden(|| {
        let m = PtsHist::fit(
            Rect::unit(2),
            &train,
            &PtsHistConfig::with_model_size(4 * train.len()),
        )
        .unwrap();
        m.support().map(|(_, w)| w).collect()
    });
    check("ptshist", got, 0x0839_9912_bbcc_5261);
}

#[test]
fn online_quadhist_refits_are_pinned() {
    let train = workload(160, 3);
    let got = golden(|| {
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::with_tau(0.005), 64)
            .unwrap()
            .with_history_cap(96);
        // 160 observations: refits after the 64th and the 128th.
        for q in &train {
            m.observe(q.clone()).unwrap();
        }
        m.snapshot().node_weight
    });
    assert_eq!(got.1.len(), 2, "two refits");
    check("online-quadhist refits", got, 0x583c_1b7f_098e_b8f7);
}

#[test]
fn quicksel_weights_are_pinned() {
    let train = workload(64, 5);
    let got = golden(|| {
        let m = QuickSel::fit(Rect::unit(2), &train, &QuickSelConfig::default()).unwrap();
        m.kernels().map(|(_, w)| w).collect()
    });
    check("quicksel", got, 0x2bcf_0d38_7d7c_6c08);
}

#[test]
fn converging_quadhist_weights_are_pinned() {
    // A coarse partition the solve converges on before its budget, so the
    // pinned bits also cover FISTA's restart and stopping branches.
    let train = workload(48, 6);
    let got = golden(|| {
        let m = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.2)).unwrap();
        m.buckets().into_iter().map(|(_, w)| w).collect()
    });
    assert!(got.1[0] < 700, "expected convergence, ran {:?}", got.1);
    check("quadhist-converging", got, 0x8916_7392_1b19_ae0a);
}

/// The fixed estimate probe set: held-out data-driven rects, rects that
/// straddle the root, degenerate rects, rects outside and covering the
/// root, halfspaces and balls.
fn estimate_probes() -> Vec<Range> {
    let mut out: Vec<Range> = workload(48, 9).into_iter().map(|q| q.range).collect();
    let rect = |lo: [f64; 2], hi: [f64; 2]| -> Range { Rect::new(lo.to_vec(), hi.to_vec()).into() };
    out.extend([
        rect([-0.2, 0.3], [0.4, 1.3]),
        rect([0.7, -0.1], [1.2, 0.5]),
        rect([-0.5, -0.5], [0.05, 0.05]),
        rect([0.3, 0.1], [0.3, 0.9]),
        rect([0.25, 0.75], [0.25, 0.75]),
        rect([1.5, 1.5], [2.0, 1.75]),
        rect([-3.0, -2.0], [-1.0, -0.5]),
        rect([-1.0, -1.0], [2.0, 2.0]),
        rect([0.0, 0.0], [1.0, 1.0]),
    ]);
    out.extend([
        Range::from(Halfspace::new(vec![1.0, 0.0], 0.5)),
        Halfspace::new(vec![-1.0, -1.0], -0.3).into(),
        Halfspace::through_point(&Point::new(vec![0.3, 0.6]), vec![0.6, -0.8]).into(),
        Halfspace::new(vec![1.0, 1.0], 5.0).into(),
        Ball::new(Point::new(vec![0.4, 0.6]), 0.25).into(),
        Ball::new(Point::new(vec![0.1, 0.05]), 0.12).into(),
        Ball::new(Point::new(vec![1.8, 1.8]), 0.1).into(),
        Ball::new(Point::new(vec![0.5, 0.5]), 2.0).into(),
    ]);
    out
}

/// FNV-1a over the bit patterns of `model`'s estimates on the probe set.
fn estimate_hash(model: &dyn SelectivityEstimator, probes: &[Range]) -> u64 {
    let mut h = Fnv::new();
    for r in probes {
        h.word(model.estimate(r).to_bits());
    }
    h.0
}

fn check_estimates(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: estimate bits changed; got hash {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn quadhist_estimates_are_pinned() {
    let _g = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let train = workload(128, 1);
    let m = QuadHist::fit_with_bucket_target(
        Rect::unit(2),
        &train,
        4 * train.len(),
        &QuadHistConfig::default(),
    )
    .unwrap();
    check_estimates("quadhist", estimate_hash(&m, &estimate_probes()), 0x1c78_6543_12d5_9be9);
}

#[test]
fn ptshist_estimates_are_pinned() {
    let _g = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let train = workload(128, 2);
    let m = PtsHist::fit(
        Rect::unit(2),
        &train,
        &PtsHistConfig::with_model_size(4 * train.len()),
    )
    .unwrap();
    check_estimates("ptshist", estimate_hash(&m, &estimate_probes()), 0x2c40_8596_db30_d671);
}

#[test]
fn online_quadhist_estimates_are_pinned() {
    let _g = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let train = workload(160, 3);
    let probes = estimate_probes();
    let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::with_tau(0.005), 64)
        .unwrap()
        .with_history_cap(96);
    let mut got = Vec::new();
    // 40: interim weights only; 128: right after the second refit; 160:
    // refit weights plus interim splits since.
    for (i, q) in train.iter().enumerate() {
        m.observe(q.clone()).unwrap();
        if matches!(i + 1, 40 | 128 | 160) {
            got.push(estimate_hash(&m, &probes));
        }
    }
    check_estimates("online-quadhist interim", got[0], 0xed20_f9e3_b0bc_99e9);
    check_estimates("online-quadhist refit", got[1], 0x03d9_a933_00bd_a60c);
    check_estimates("online-quadhist refit+interim", got[2], 0xebc2_7f11_4587_6a24);

    // freeze hands out the live model itself: no solve, the same bits
    let sink = Arc::new(MemorySink::new());
    selearn_obs::set_sink(sink.clone());
    let frozen = m.freeze().unwrap();
    selearn_obs::clear_sink();
    let solved = sink
        .take()
        .iter()
        .any(|e| matches!(e, Event::SolverReport { .. }));
    assert!(!solved, "freeze must not solve");
    check_estimates(
        "online-quadhist freeze",
        estimate_hash(&frozen.freeze(), &probes),
        0xebc2_7f11_4587_6a24,
    );
}

#[test]
fn restored_quadhist_is_pinned() {
    use selearn::core::{load_frozen, load_quadhist, save_quadhist};
    let _g = SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let train = workload(128, 1);
    let m = QuadHist::fit_with_bucket_target(
        Rect::unit(2),
        &train,
        4 * train.len(),
        &QuadHistConfig::default(),
    )
    .unwrap();
    let mut dump = Vec::new();
    save_quadhist(&m, &mut dump).unwrap();
    // Saving the restored model pins its arena order (the bucket lines
    // follow it) and every weight's bits.
    let mut resaved = Vec::new();
    save_quadhist(&load_quadhist(&dump[..]).unwrap(), &mut resaved).unwrap();
    let mut h = Fnv::new();
    h.bytes(&resaved);
    assert_eq!(
        h.0, 0x231d_8faa_77b4_8f97,
        "restored quadhist: arena order or weight bits changed; got hash {:#018x}",
        h.0
    );
    let frozen = load_frozen(&dump[..]).unwrap();
    check_estimates(
        "restored quadhist",
        estimate_hash(&frozen, &estimate_probes()),
        0x1c78_6543_12d5_9be9,
    );
}
