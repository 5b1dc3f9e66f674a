//! Crash-injection recovery properties — the acceptance gate for the
//! durable store.
//!
//! A "process" is a [`ModelStore`] opened over a [`FaultVfs`] with a
//! byte budget: when the budget runs out mid-write, the store is dead and
//! the directory holds exactly what a `kill -9` at that byte would have
//! left. The properties, for **every** kill point:
//!
//! 1. recovery never fails, let alone panics;
//! 2. no acknowledged record is lost (`recovered last_lsn ≥ acked`);
//! 3. the recovered model is **bitwise identical** (estimates compared
//!    via `to_bits`) to a fresh model that ingested the surviving prefix
//!    from scratch — checkpoint + tail replay adds nothing and loses
//!    nothing;
//! 4. rollback to any retained generation restores that generation's
//!    exact estimates, and a crash inside a rollback leaves a store that
//!    recovers to a prefix between the target and the old end.
//!
//! One test enumerates every byte of a fixed workload exhaustively and
//! one every kill point of a rollback; the proptest cases layer
//! arbitrary streams × arbitrary kill points and double-crash scenarios
//! on top.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use selearn_core::{OnlineQuadHist, SelectivityEstimator, TrainingQuery};
use selearn_geom::{Range, Rect};
use selearn_store::{FaultVfs, ModelStore, StdVfs, StoreConfig};

fn test_dir(tag: &str) -> PathBuf {
    // The sweep opens thousands of stores, each fsyncing every append;
    // prefer a tmpfs so each simulated fsync doesn't hit a real disk.
    let shm = PathBuf::from("/dev/shm");
    let root = if shm.is_dir() { shm } else { std::env::temp_dir() };
    // Tests run concurrently and some share a tag (the budget probe), so
    // every call gets its own directory.
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let d = root.join(format!("selearn-crash-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config() -> StoreConfig {
    let mut c = StoreConfig::new(Rect::unit(2));
    c.refit_every = 5;
    c.history_cap = 64;
    c.segment_bytes = 256; // rotate aggressively: more crash surfaces
    // Bound the partition: keeps checkpoints small, which keeps the
    // exhaustive byte-by-byte kill sweep's domain (and runtime) small
    // without removing any code path.
    c.quadhist.max_leaves = 24;
    c
}

/// Deterministic feedback stream from a seed pool (proptest supplies the
/// pool; the fixed tests use a counter).
fn feedback(x: f64, y: f64, s: f64) -> TrainingQuery {
    let lo = [x * 0.6, y * 0.6];
    TrainingQuery::new(
        Rect::new(vec![lo[0], lo[1]], vec![lo[0] + 0.3, lo[1] + 0.35]),
        s,
    )
}

fn fixed_stream(n: usize) -> Vec<TrainingQuery> {
    (0..n)
        .map(|i| {
            let x = ((i * 7 + 3) % 11) as f64 / 11.0;
            let y = ((i * 5 + 1) % 13) as f64 / 13.0;
            let s = ((i * 3 + 2) % 17) as f64 / 17.0;
            feedback(x, y, s)
        })
        .collect()
}

fn probes() -> Vec<Range> {
    let mut out: Vec<Range> = (0..20)
        .map(|i| {
            let a = (i as f64 + 0.5) / 20.0;
            Rect::new(vec![a * 0.4, 0.1], vec![a, 0.8 + a / 10.0]).into()
        })
        .collect();
    out.push(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).into());
    out.push(Rect::new(vec![0.45, 0.45], vec![0.45, 0.45]).into());
    out
}

fn estimates(model: &OnlineQuadHist) -> Vec<u64> {
    probes().iter().map(|q| model.estimate(q).to_bits()).collect()
}

/// Replays `stream[..n]` into a fresh model exactly the way the store
/// does (refit errors recorded, not fatal) — the recovery oracle.
fn oracle_estimates(stream: &[TrainingQuery], n: usize) -> Vec<u64> {
    let c = config();
    let mut model = OnlineQuadHist::new(c.root.clone(), c.quadhist.clone(), c.refit_every)
        .expect("oracle model")
        .with_history_cap(c.history_cap);
    for q in &stream[..n] {
        let _ = model.observe(q.clone());
    }
    estimates(&model)
}

/// Runs one doomed process: feeds `stream`, checkpointing every
/// `checkpoint_every` records, until the fault budget kills it (or the
/// stream ends). Returns the highest acknowledged LSN.
fn run_until_crash(
    dir: &std::path::Path,
    budget: i64,
    stream: &[TrainingQuery],
    checkpoint_every: usize,
) -> u64 {
    let vfs = Arc::new(FaultVfs::new(StdVfs, budget));
    let Ok(mut store) = ModelStore::open_with_vfs(vfs, dir, config()) else {
        return 0; // crashed during open/recovery itself
    };
    let mut acked = store.last_lsn();
    for (i, q) in stream.iter().enumerate() {
        match store.observe(q.clone()) {
            Ok(lsn) => acked = lsn,
            Err(_) => return acked,
        }
        if (i + 1) % checkpoint_every == 0 && store.checkpoint().is_err() {
            return acked;
        }
    }
    acked
}

/// The recovery contract, checked after any crash.
fn assert_recovers_bitwise(dir: &std::path::Path, stream: &[TrainingQuery], acked: u64) {
    let store = ModelStore::open(dir, config())
        .unwrap_or_else(|e| panic!("recovery failed after crash (acked {acked}): {e}"));
    let last = store.last_lsn();
    assert!(
        last >= acked,
        "lost acknowledged records: acked lsn {acked}, recovered only {last}"
    );
    assert!(
        last as usize <= stream.len(),
        "recovered {last} records from a stream of {}",
        stream.len()
    );
    assert_eq!(
        estimates(store.model()),
        oracle_estimates(stream, last as usize),
        "recovered model diverges from fit-from-surviving-prefix at lsn {last}"
    );
}

/// Budget spent by an undisturbed full run — the kill-point domain.
fn full_run_budget(stream: &[TrainingQuery], checkpoint_every: usize) -> i64 {
    let dir = test_dir("budget-probe");
    const HUGE: i64 = i64::MAX / 2;
    let vfs = Arc::new(FaultVfs::new(StdVfs, HUGE));
    let mut store = ModelStore::open_with_vfs(Arc::clone(&vfs) as _, &dir, config())
        .expect("probe open");
    for (i, q) in stream.iter().enumerate() {
        store.observe(q.clone()).expect("probe observe");
        if (i + 1) % checkpoint_every == 0 {
            store.checkpoint().expect("probe checkpoint");
        }
    }
    drop(store);
    let spent = HUGE - vfs.remaining();
    let _ = std::fs::remove_dir_all(&dir);
    spent
}

/// Property 1–3 at EVERY kill point of a fixed workload: budgets from 0
/// (killed before the first directory entry) through a full clean run.
/// The oracle is memoized per surviving-prefix length, so the sweep cost
/// is the doomed run + recovery, not a refit per kill point.
#[test]
fn every_kill_point_recovers_bitwise() {
    let stream = fixed_stream(14);
    let checkpoint_every = 5;
    let total = full_run_budget(&stream, checkpoint_every);
    assert!(total > 0, "probe run spent nothing");
    let oracles: Vec<Vec<u64>> = (0..=stream.len())
        .map(|n| oracle_estimates(&stream, n))
        .collect();
    let dir = test_dir("exhaustive");
    for budget in 0..=total {
        let _ = std::fs::remove_dir_all(&dir);
        let acked = run_until_crash(&dir, budget, &stream, checkpoint_every);
        let store = ModelStore::open(&dir, config())
            .unwrap_or_else(|e| panic!("recovery failed at kill point {budget}: {e}"));
        let last = store.last_lsn();
        assert!(
            last >= acked,
            "kill point {budget}: lost acknowledged records ({acked} acked, {last} recovered)"
        );
        assert_eq!(
            estimates(store.model()),
            oracles[last as usize],
            "kill point {budget}: recovered model diverges from prefix replay at lsn {last}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash during *recovery* (the second process also dies) must leave
/// the directory recoverable by a third, healthy process.
#[test]
fn double_crash_recovers_bitwise() {
    let stream = fixed_stream(14);
    let checkpoint_every = 4;
    let total = full_run_budget(&stream, checkpoint_every);
    let dir = test_dir("double");
    // Sample first-crash points across the run; for each, sweep the
    // second (recovery-time) crash over a small budget range where the
    // repair/truncate work happens.
    let step = (total / 23).max(1);
    for first in (0..=total).step_by(step as usize) {
        let _ = std::fs::remove_dir_all(&dir);
        let acked = run_until_crash(&dir, first, &stream, checkpoint_every);
        for second in 0..12 {
            // This process may die mid-repair; its partial work must not
            // damage the log. It never acks anything new.
            let _ = run_until_crash(&dir, second, &[], checkpoint_every);
        }
        assert_recovers_bitwise(&dir, &stream, acked);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rollback to each retained generation restores that generation's
/// estimates bit-for-bit, even after a crash and recovery in between.
#[test]
fn rollback_restores_retained_generations_bitwise() {
    let stream = fixed_stream(40);
    let dir = test_dir("rollback");
    let mut store = ModelStore::open(&dir, config()).expect("open");
    let mut per_gen: Vec<(u64, Vec<u64>)> = Vec::new();
    for (i, q) in stream.iter().enumerate() {
        store.observe(q.clone()).expect("observe");
        if (i + 1) % 10 == 0 {
            let generation = store.checkpoint().expect("checkpoint");
            per_gen.push((generation, estimates(store.model())));
        }
    }
    // 4 checkpoints, 3 retained: the menu is the last three.
    let retained = store.generations().expect("generations");
    assert_eq!(retained.len(), 3);
    let expected: Vec<&(u64, Vec<u64>)> = per_gen
        .iter()
        .filter(|(g, _)| retained.contains(g))
        .collect();
    assert_eq!(expected.len(), 3);
    // Crash + recover first: rollback must work from a recovered store.
    drop(store);
    let mut store = ModelStore::open(&dir, config()).expect("reopen");
    for (generation, est) in expected.iter().rev() {
        store.rollback(*generation).expect("rollback");
        assert_eq!(
            &estimates(store.model()),
            est,
            "generation {generation} estimates diverged after rollback"
        );
    }
    // The pruned 4th generation is typed, not a panic.
    let gone = per_gen[0].0;
    assert!(!retained.contains(&gone));
    assert!(store.rollback(gone).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kill point inside `open` + `rollback(oldest retained)`: a
/// rollback commits in two steps (delete the newer checkpoints, then cut
/// the WAL newest-first), and a crash anywhere in between must leave a
/// store that recovers bitwise to some prefix from the rollback target
/// up to the old end of the log.
#[test]
fn every_kill_point_inside_rollback_recovers_bitwise() {
    let stream = fixed_stream(45);
    let base = test_dir("rollback-base");
    let mut store = ModelStore::open(&base, config()).expect("open");
    for (i, q) in stream.iter().enumerate() {
        store.observe(q.clone()).expect("observe");
        if (i + 1) % 10 == 0 {
            store.checkpoint().expect("checkpoint");
        }
    }
    let target = store.generations().expect("generations")[0];
    drop(store);
    let copy_base = |to: &std::path::Path| {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).expect("mkdir");
        for entry in std::fs::read_dir(&base).expect("read base") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
        }
    };
    let roll_back = |dir: &std::path::Path, budget: i64| -> Arc<FaultVfs<StdVfs>> {
        let vfs = Arc::new(FaultVfs::new(StdVfs, budget));
        if let Ok(mut store) = ModelStore::open_with_vfs(Arc::clone(&vfs) as _, dir, config()) {
            let _ = store.rollback(target);
        }
        vfs
    };

    let dir = test_dir("rollback-kill");
    const HUGE: i64 = i64::MAX / 2;
    copy_base(&dir);
    let probe = roll_back(&dir, HUGE);
    assert!(!probe.tripped());
    let total = HUGE - probe.remaining();
    let target_lsn = ModelStore::open(&dir, config()).expect("probe reopen").last_lsn();
    assert_eq!(target_lsn, 20, "generation {target} covers lsn 20");

    let oracles: Vec<Vec<u64>> = (0..=stream.len())
        .map(|n| oracle_estimates(&stream, n))
        .collect();
    for budget in 0..=total {
        copy_base(&dir);
        roll_back(&dir, budget);
        let store = ModelStore::open(&dir, config())
            .unwrap_or_else(|e| panic!("recovery failed at rollback kill point {budget}: {e}"));
        let last = store.last_lsn();
        assert!(
            (target_lsn..=stream.len() as u64).contains(&last),
            "rollback kill point {budget}: recovered lsn {last}"
        );
        assert_eq!(
            estimates(store.model()),
            oracles[last as usize],
            "rollback kill point {budget}: recovered model diverges from prefix replay at lsn {last}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}

proptest! {
    // 24 cases: each one runs a full crash + recovery cycle.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary streams × arbitrary kill points: the recovered model is
    /// bitwise identical to replaying the surviving prefix from scratch.
    #[test]
    fn arbitrary_stream_and_kill_point_recover_bitwise(
        pool in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 5..60),
        checkpoint_every in 3usize..12,
        kill_frac in 0.0f64..1.0,
        case in 0u32..u32::MAX,
    ) {
        let stream: Vec<TrainingQuery> =
            pool.iter().map(|&(x, y, s)| feedback(x, y, s)).collect();
        let total = full_run_budget(&stream, checkpoint_every);
        let budget = (kill_frac * total as f64) as i64;
        let dir = test_dir(&format!("prop-{case}"));
        let acked = run_until_crash(&dir, budget, &stream, checkpoint_every);
        assert_recovers_bitwise(&dir, &stream, acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After crash recovery the store keeps working: more feedback, a
    /// checkpoint, a clean reopen — generations stay monotonic.
    #[test]
    fn recovered_store_resumes_cleanly(
        pool in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 10..40),
        kill_frac in 0.1f64..0.9,
        case in 0u32..u32::MAX,
    ) {
        let stream: Vec<TrainingQuery> =
            pool.iter().map(|&(x, y, s)| feedback(x, y, s)).collect();
        let total = full_run_budget(&stream, 6);
        let budget = (kill_frac * total as f64) as i64;
        let dir = test_dir(&format!("resume-{case}"));
        let _ = run_until_crash(&dir, budget, &stream, 6);

        let mut store = ModelStore::open(&dir, config()).expect("recover");
        let gen_before = store.generation();
        let lsn_before = store.last_lsn();
        for q in &stream {
            store.observe(q.clone()).expect("post-recovery observe");
        }
        prop_assert_eq!(store.last_lsn(), lsn_before + stream.len() as u64);
        let generation = store.checkpoint().expect("post-recovery checkpoint");
        prop_assert!(generation > gen_before, "generation went backwards");
        drop(store);
        let store = ModelStore::open(&dir, config()).expect("final reopen");
        prop_assert_eq!(store.generation(), generation);
        prop_assert_eq!(store.last_lsn(), lsn_before + stream.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

