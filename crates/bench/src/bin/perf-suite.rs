//! `perf-suite` — the fixed, versioned performance suite.
//!
//! Runs five measurements and writes one machine-readable JSON report
//! (default `BENCH_9.json`, the PR-10 schema):
//!
//! * **single-query p50** — per-query latency of the frozen SoA artifact
//!   on a 10k-bucket 2-D QuadHist;
//! * **batch throughput** — queries/second through the allocation-free
//!   `estimate_into` batch path;
//! * **restore** — wall time of `load_quadhist` (`tree_ms`) and of
//!   `load_frozen` (`frozen_ms`). Both now run the same code: the loaded
//!   model builds its frozen layout, and `load_frozen` moves it out.
//!   `tree_ms` stays only for schema-9 compatibility and goes at the
//!   next schema bump;
//! * **serve** — client-observed p50/p95/p99 latency through a live
//!   in-process `selearn-serve` TCP server under a closed-loop replay,
//!   plus (v8) the same closed loop while 500 idle connections sit on
//!   the poller and a mixed-tenant replay spread across 8 namespaced
//!   models, plus (new in v9) a mixed-shape replay cycling rect,
//!   halfspace, and ball requests against a mixed-trained model;
//! * **wal** — per-record `ModelStore::observe` cost with durable acks,
//!   and the cold-reopen recovery time over the resulting log.
//!
//! Usage: `perf-suite [--out FILE] [--buckets N] [--compare PREV.json]
//! [--compare-slack F]`.
//!
//! With `--compare PREV.json` the
//! fresh numbers are checked against a previous report (v6 through v9): a
//! regression of more than `--compare-slack` (default 0.15 = 15%) in
//! single-query frozen p50, batch frozen qps, frozen restore time, or —
//! when the baseline carries a `serve` section — closed-loop serve
//! p50/p95 exits non-zero — how CI catches perf regressions against the
//! committed baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_core::{
    load_frozen, load_quadhist, save_quadhist, QuadHist, SelectivityEstimator, TrainingQuery,
};
use selearn_geom::{Range, Rect, VolumeEstimator};
use selearn_obs::json;
use selearn_serve::{
    run_load, start, synth, LoadOptions, ModelRegistry, ServerConfig, DEFAULT_MODEL,
};
use selearn_store::{ModelStore, StoreConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// BFS-splits the unit square into at least `target` quadtree leaves with
/// normalized weights.
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

/// Median of per-query microseconds: each probe is timed over `repeats`
/// back-to-back evaluations (amortizing clock overhead), and the p50 is
/// taken across probes.
fn single_query_p50_us<M: SelectivityEstimator>(
    model: &M,
    queries: &[Range],
    repeats: usize,
) -> f64 {
    let mut samples: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..repeats {
                acc += model.estimate(q);
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / repeats as f64;
            assert!(acc.is_finite());
            us
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Batch throughput in queries/second through `estimate_into`.
fn batch_qps<M: SelectivityEstimator>(model: &M, queries: &[Range], repeats: usize) -> f64 {
    let mut out = vec![0.0; queries.len()];
    let t0 = Instant::now();
    for _ in 0..repeats {
        model.estimate_into(queries, &mut out);
    }
    (queries.len() * repeats) as f64 / t0.elapsed().as_secs_f64()
}

/// Serve-path numbers: closed-loop percentiles, the same closed loop
/// with an idle-connection herd parked on the poller, and a
/// mixed-tenant replay.
struct ServeNumbers {
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    idle_conns: usize,
    idle_p50_us: f64,
    tenants: usize,
    multi_tenant_p50_us: f64,
    mixed_shape_p50_us: f64,
}

/// One closed-loop replay (with warm-up) against `addr`; exits on any
/// protocol error or lost request.
fn replay(addr: &str, pool: &[selearn_serve::Request], total: usize) -> (f64, f64, f64) {
    let options = LoadOptions {
        connections: 2,
        total_requests: total,
        rate: None,
    };
    // Warm-up pass so connection setup and first-touch costs stay out of
    // the measured percentiles.
    let warm = LoadOptions {
        total_requests: 200,
        ..options
    };
    let report = run_load(addr, pool, &warm).and_then(|_| run_load(addr, pool, &options));
    match report {
        Ok(r) if r.errors == 0 && r.ok + r.degraded == total as u64 => (
            r.percentile_us(0.50),
            r.percentile_us(0.95),
            r.percentile_us(0.99),
        ),
        Ok(r) => {
            eprintln!(
                "serve bench lost requests: sent {} ok {} degraded {} errors {}",
                r.sent, r.ok, r.degraded, r.errors
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("serve bench replay failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Client-observed serve latency through a live in-process server over a
/// loopback TCP socket. The compared p50/p95 are best-of-`rounds`; the
/// idle-herd and multi-tenant replays run once (informational).
fn serve_numbers(rounds: usize) -> ServeNumbers {
    const IDLE_CONNS: usize = 500;
    const TENANTS: usize = 8;
    let (model, root) = match synth::synthetic_model(2, 200, 11) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot fit serve bench model: {e}");
            std::process::exit(1);
        }
    };
    let model: selearn_core::SharedEstimator = Arc::new(model);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::clone(&model), root.clone());
    for i in 0..TENANTS {
        registry.register(&format!("t{i}.m"), Arc::clone(&model), root.clone());
    }
    // A model trained on the mixed-shape synthetic workload backs the
    // shape replay, so halfspace/ball answers come from real training.
    let (mixed_model, mixed_root) = match synth::synthetic_mixed_model(2, 240, 13) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot fit mixed-shape serve bench model: {e}");
            std::process::exit(1);
        }
    };
    registry.register("shapes.m", Arc::new(mixed_model), mixed_root);
    let handle = match start(ServerConfig::default(), registry) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start serve bench server: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr().to_string();
    let pool = synth::synthetic_requests(2, 256, 23);

    let (mut p50, mut p95, mut p99) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let (r50, r95, r99) = replay(&addr, &pool, 2000);
        p50 = p50.min(r50);
        p95 = p95.min(r95);
        p99 = p99.min(r99);
    }

    // The same closed loop with an idle herd parked on the poller: the
    // readiness loop should make silent sockets free for the hot path.
    let idle: Vec<std::net::TcpStream> = (0..IDLE_CONNS)
        .map(|i| match std::net::TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("idle conn {i} failed: {e}");
                std::process::exit(1);
            }
        })
        .collect();
    let (idle_p50, _, _) = replay(&addr, &pool, 2000);
    drop(idle);

    // Mixed-tenant replay: the pool cycled across the tenant namespaces,
    // exercising per-tenant admission and cache partitions.
    let mut tenant_pool = pool.clone();
    for (i, req) in tenant_pool.iter_mut().enumerate() {
        req.est = format!("t{}.m", i % TENANTS);
    }
    let (mt_p50, _, _) = replay(&addr, &tenant_pool, 2000);

    // Mixed-shape replay: rect → halfspace → ball cycled over a finite
    // pool, exercising the shape-aware cache keys and generic estimate
    // paths end-to-end over the socket.
    let mut shape_pool = synth::synthetic_mixed_requests(2, 255, 27);
    for req in shape_pool.iter_mut() {
        req.est = "shapes.m".to_string();
    }
    let (shape_p50, _, _) = replay(&addr, &shape_pool, 2000);

    handle.shutdown();
    ServeNumbers {
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
        idle_conns: IDLE_CONNS,
        idle_p50_us: idle_p50,
        tenants: TENANTS,
        multi_tenant_p50_us: mt_p50,
        mixed_shape_p50_us: shape_p50,
    }
}

/// WAL numbers with production defaults (durable acks, refit every 64):
/// `(observe_us, recovery_ms, records)` — mean per-record observe cost
/// over `records` appends, then the cold-reopen recovery time over the
/// uncheckpointed log.
fn wal_numbers(records: usize) -> (f64, f64, u64) {
    let dir = std::env::temp_dir().join(format!("selearn-perf-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig::new(Rect::unit(2));
    let mut store = match ModelStore::open(&dir, config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open wal bench store: {e}");
            std::process::exit(1);
        }
    };
    let t0 = Instant::now();
    for i in 0..records {
        let a = ((i % 23) as f64 + 1.0) / 25.0;
        let fb = TrainingQuery::new(Rect::new(vec![0.0, a / 2.0], vec![a, 0.9]), a * 0.5);
        if let Err(e) = store.observe(fb) {
            eprintln!("wal bench observe failed: {e}");
            std::process::exit(1);
        }
    }
    let observe_us = t0.elapsed().as_secs_f64() * 1e6 / records as f64;
    drop(store);
    let t0 = Instant::now();
    let store = match ModelStore::open(&dir, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wal bench recovery failed: {e}");
            std::process::exit(1);
        }
    };
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed = store.recovery().replayed_records;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (observe_us, recovery_ms, replayed)
}

/// The compared metrics of a report. The first three exist in every
/// schema since v6; the serve pair appears from v7 on (absent in the
/// baseline means the serve gate is skipped).
struct Compared {
    frozen_p50_us: f64,
    frozen_qps: f64,
    restore_frozen_ms: f64,
    serve_p50_us: Option<f64>,
    serve_p95_us: Option<f64>,
}

/// Pulls the compared metrics out of a previous report file.
fn load_compared(path: &str) -> Result<Compared, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = json::parse(&raw).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let opt = |section: &str, key: &str| -> Option<f64> {
        root.get(section)
            .and_then(|s| s.get(key))
            .and_then(json::Json::as_num)
    };
    let num = |section: &str, key: &str| -> Result<f64, String> {
        opt(section, key).ok_or_else(|| format!("{path} has no numeric {section}.{key}"))
    };
    Ok(Compared {
        frozen_p50_us: num("single_query", "frozen_p50_us")?,
        frozen_qps: num("batch", "frozen_qps")?,
        restore_frozen_ms: num("restore", "frozen_ms")?,
        serve_p50_us: opt("serve", "p50_us"),
        serve_p95_us: opt("serve", "p95_us"),
    })
}

/// Checks `fresh` against `prev` with `slack` relative tolerance; returns
/// the list of human-readable regression messages (empty = pass).
fn regressions(prev: &Compared, fresh: &Compared, slack: f64) -> Vec<String> {
    let mut out = Vec::new();
    // Latencies and restore times regress upward, throughput downward.
    if fresh.frozen_p50_us > prev.frozen_p50_us * (1.0 + slack) {
        out.push(format!(
            "single-query frozen p50 regressed: {:.3}us vs baseline {:.3}us (+{:.0}% allowed)",
            fresh.frozen_p50_us,
            prev.frozen_p50_us,
            slack * 100.0
        ));
    }
    if fresh.frozen_qps < prev.frozen_qps * (1.0 - slack) {
        out.push(format!(
            "batch frozen qps regressed: {:.0} vs baseline {:.0} (-{:.0}% allowed)",
            fresh.frozen_qps,
            prev.frozen_qps,
            slack * 100.0
        ));
    }
    if fresh.restore_frozen_ms > prev.restore_frozen_ms * (1.0 + slack) {
        out.push(format!(
            "frozen restore regressed: {:.3}ms vs baseline {:.3}ms (+{:.0}% allowed)",
            fresh.restore_frozen_ms,
            prev.restore_frozen_ms,
            slack * 100.0
        ));
    }
    for (name, prev_v, fresh_v) in [
        ("serve p50", prev.serve_p50_us, fresh.serve_p50_us),
        ("serve p95", prev.serve_p95_us, fresh.serve_p95_us),
    ] {
        if let (Some(p), Some(f)) = (prev_v, fresh_v) {
            if f > p * (1.0 + slack) {
                out.push(format!(
                    "{name} regressed: {f:.1}us vs baseline {p:.1}us (+{:.0}% allowed)",
                    slack * 100.0
                ));
            }
        }
    }
    out
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = take_value(&mut args, "--out").unwrap_or_else(|| "BENCH_9.json".to_string());
    let n_buckets: usize = take_value(&mut args, "--buckets")
        .map(|v| v.parse().unwrap_or(10_000))
        .unwrap_or(10_000);
    let compare_path = take_value(&mut args, "--compare");
    let compare_slack: f64 = take_value(&mut args, "--compare-slack")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        std::process::exit(2);
    }

    let bs = buckets(n_buckets);
    let model = match QuadHist::from_buckets(Rect::unit(2), &bs, VolumeEstimator::default()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot build bench model: {e}");
            std::process::exit(1);
        }
    };
    let single = probes(128, 9);
    let batch = probes(1024, 10);

    // Warm-up so first-touch page faults don't land in the numbers.
    let _ = single_query_p50_us(&model, &single[..16], 2);

    // Every compared metric is best-of-3: the gate compares absolute
    // wall-clock numbers across runs (and in CI across machines), and
    // scheduler noise on small shared boxes easily exceeds the slack.
    // Taking the best of three is the standard microbenchmark de-noiser —
    // the fastest observation is the one closest to the code's true cost.
    const ROUNDS: usize = 3;
    let best = |f: &mut dyn FnMut() -> f64, lower_is_better: bool| -> f64 {
        (0..ROUNDS)
            .map(|_| f())
            .fold(if lower_is_better { f64::INFINITY } else { 0.0 }, |a, b| {
                if lower_is_better {
                    a.min(b)
                } else {
                    a.max(b)
                }
            })
    };
    let frozen_p50 = best(&mut || single_query_p50_us(&model, &single, 24), true);
    let frozen_qps = best(&mut || batch_qps(&model, &batch, 8), false);

    let mut dump = Vec::new();
    if let Err(e) = save_quadhist(&model, &mut dump) {
        eprintln!("cannot serialize bench model: {e}");
        std::process::exit(1);
    }
    let mut restore_tree_ms = f64::INFINITY;
    let mut restore_frozen_ms = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let restored_tree = load_quadhist(&dump[..]);
        restore_tree_ms = restore_tree_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let restored_frozen = load_frozen(&dump[..]);
        restore_frozen_ms = restore_frozen_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if restored_tree.is_err() || restored_frozen.is_err() {
            eprintln!("bench model failed to round-trip");
            std::process::exit(1);
        }
    }

    let serve = serve_numbers(ROUNDS);
    let wal_records = 500;
    let (wal_observe_us, wal_recovery_ms, wal_replayed) = wal_numbers(wal_records);

    let json_out = format!(
        "{{\n  \"schema\": \"selearn-bench\",\n  \"version\": 9,\n  \"suite\": \"frozen-inference\",\n  \"config\": {{\n    \"model\": \"quadhist\",\n    \"dim\": 2,\n    \"buckets\": {},\n    \"single_probes\": {},\n    \"batch_probes\": {},\n    \"serve_requests\": 2000,\n    \"wal_records\": {}\n  }},\n  \"single_query\": {{\n    \"frozen_p50_us\": {:.3}\n  }},\n  \"batch\": {{\n    \"frozen_qps\": {:.0}\n  }},\n  \"restore\": {{\n    \"tree_ms\": {:.3},\n    \"frozen_ms\": {:.3}\n  }},\n  \"serve\": {{\n    \"p50_us\": {:.1},\n    \"p95_us\": {:.1},\n    \"p99_us\": {:.1},\n    \"idle_conns\": {},\n    \"idle_p50_us\": {:.1},\n    \"tenants\": {},\n    \"multi_tenant_p50_us\": {:.1},\n    \"mixed_shape_p50_us\": {:.1}\n  }},\n  \"wal\": {{\n    \"observe_us\": {:.1},\n    \"recovery_ms\": {:.3},\n    \"replayed_records\": {}\n  }}\n}}\n",
        model.num_buckets(),
        single.len(),
        batch.len(),
        wal_records,
        frozen_p50,
        frozen_qps,
        restore_tree_ms,
        restore_frozen_ms,
        serve.p50_us,
        serve.p95_us,
        serve.p99_us,
        serve.idle_conns,
        serve.idle_p50_us,
        serve.tenants,
        serve.multi_tenant_p50_us,
        serve.mixed_shape_p50_us,
        wal_observe_us,
        wal_recovery_ms,
        wal_replayed,
    );
    if let Err(e) = std::fs::write(&out_path, &json_out) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json_out}");

    if let Some(prev_path) = compare_path {
        let prev = match load_compared(&prev_path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        };
        let fresh = Compared {
            frozen_p50_us: frozen_p50,
            frozen_qps,
            restore_frozen_ms,
            serve_p50_us: Some(serve.p50_us),
            serve_p95_us: Some(serve.p95_us),
        };
        let found = regressions(&prev, &fresh, compare_slack);
        if !found.is_empty() {
            for msg in &found {
                eprintln!("FAIL: {msg}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "OK: no >{:.0}% regression vs {prev_path} (frozen p50 {:.3}us vs {:.3}us, qps {:.0} vs {:.0}, restore {:.3}ms vs {:.3}ms)",
            compare_slack * 100.0,
            fresh.frozen_p50_us,
            prev.frozen_p50_us,
            fresh.frozen_qps,
            prev.frozen_qps,
            fresh.restore_frozen_ms,
            prev.restore_frozen_ms,
        );
    }
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}
