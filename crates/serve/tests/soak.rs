//! In-process soak and behavior tests for the serving layer: a real
//! server on a real localhost socket, driven by the crate's own client.

use selearn_core::{SelearnError, SelectivityEstimator, SharedEstimator, TrainingQuery};
use selearn_geom::{Range, Rect};
use selearn_serve::synth::{
    synthetic_mixed_model, synthetic_mixed_requests, synthetic_model, synthetic_requests,
    synthetic_selectivity, synthetic_shape_selectivity,
};
use selearn_serve::{
    run_load, start, start_with_feedback, Client, DegradeReason, DurableFeedback, FeedbackAck,
    FeedbackSink, LoadOptions, ModelRegistry, Request, Response, ServerConfig, ShapeKind,
    DEFAULT_MODEL,
};
use selearn_store::{ModelStore, StoreConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn serve_synthetic(config: ServerConfig) -> (selearn_serve::ServerHandle, Rect) {
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root.clone());
    let handle = start(config, registry).expect("server start");
    (handle, root)
}

#[test]
fn request_response_paths() {
    let (handle, _root) = serve_synthetic(ServerConfig::default());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // A real estimate.
    let req = Request::rect(DEFAULT_MODEL, vec![0.1, 0.2], vec![0.6, 0.7], Some(1));
    let first = client.call(&req).expect("first call");
    let Response::Estimate {
        id,
        sel,
        degraded,
        cached,
        ..
    } = first
    else {
        panic!("expected estimate, got {first:?}");
    };
    assert_eq!(id, Some(1));
    assert!((0.0..=1.0).contains(&sel));
    assert_eq!(degraded, None);
    assert!(!cached, "first sighting cannot be a cache hit");

    // The identical query must now hit the cache with the same answer.
    let second = client.call(&req).expect("second call");
    let Response::Estimate {
        sel: sel2, cached, ..
    } = second
    else {
        panic!("expected estimate, got {second:?}");
    };
    assert!(cached, "repeat of an identical query must be cached");
    assert_eq!(sel2, sel);

    // Malformed lines answer an error and keep the connection usable.
    client.send_line("{this is not json").expect("send garbage");
    let err = client.recv().expect("error response");
    assert!(matches!(err, Response::Error { .. }), "got {err:?}");

    // Unknown model, wrong dimensionality, inverted box: typed errors.
    for (line, what) in [
        (r#"{"est":"nope","lo":[0.1,0.1],"hi":[0.2,0.2]}"#, "unknown"),
        (r#"{"lo":[0.1],"hi":[0.2]}"#, "dimension"),
        (r#"{"lo":[0.9,0.9],"hi":[0.1,0.1]}"#, "inverted"),
    ] {
        client.send_line(line).expect("send");
        let resp = client.recv().expect("recv");
        assert!(matches!(resp, Response::Error { .. }), "{what}: {resp:?}");
    }

    // The connection still serves real queries after all those errors.
    let again = client.call(&req).expect("call after errors");
    assert!(matches!(again, Response::Estimate { .. }));

    handle.shutdown();
}

#[test]
fn mixed_shape_requests_round_trip_end_to_end() {
    // The tentpole acceptance test: a model trained on a mixed-shape
    // workload serves rect, halfspace, and ball queries over a real
    // socket — correct non-degraded answers, per-shape counters, a
    // shape-aware cache, typed errors for non-finite parameters, and
    // computed answers bitwise equal to the in-process model's.
    let (model, root) = synthetic_mixed_model(2, 360, 11).expect("mixed synthetic fit");
    let model: SharedEstimator = Arc::new(model);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::clone(&model), root);
    let handle = start(ServerConfig::default(), registry).expect("server start");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    // A small mixed pool: first sightings must be uncached, correct, and
    // non-degraded; exact repeats must hit the cache with the same answer.
    let pool = synthetic_mixed_requests(2, 12, 23);
    let mut first_answers = Vec::new();
    for req in &pool {
        let resp = client.call(req).expect("first pass call");
        let Response::Estimate {
            sel,
            degraded,
            cached,
            ..
        } = resp
        else {
            panic!("expected estimate, got {resp:?}");
        };
        assert_eq!(degraded, None, "mixed-shape answers must not degrade");
        assert!(!cached, "first sighting of a shape cannot be a cache hit");
        let truth = synthetic_shape_selectivity(&req.shape);
        assert!(
            (sel - truth).abs() < 0.3,
            "{} answer {sel} too far from truth {truth}",
            req.shape.kind().as_str()
        );
        first_answers.push(sel);
    }
    let hits_before_repeat = handle.cache().hits();
    for (req, &expected) in pool.iter().zip(&first_answers) {
        let resp = client.call(req).expect("repeat pass call");
        let Response::Estimate { sel, cached, .. } = resp else {
            panic!("expected estimate, got {resp:?}");
        };
        assert!(cached, "exact repeat of {:?} missed the cache", req.shape.kind());
        assert_eq!(sel, expected, "cached answer diverged");
    }
    assert_eq!(
        handle.cache().hits() - hits_before_repeat,
        pool.len() as u64,
        "every repeat must be a cache hit"
    );

    // Per-shape counters saw both passes (12 requests × 2 = 8 per shape).
    let stats = handle.stats();
    assert_eq!(stats.rect_requests(), 8);
    assert_eq!(stats.halfspace_requests(), 8);
    assert_eq!(stats.ball_requests(), 8);

    // Cross-shape isolation: a rect, a halfspace, and a ball engineered
    // over the same center never alias each other's cache entries — each
    // first sighting is a miss even with the others already cached.
    let probes = [
        Request::rect(DEFAULT_MODEL, vec![0.2, 0.2], vec![0.8, 0.8], None),
        Request::halfspace(DEFAULT_MODEL, vec![1.0, 0.0], 0.5, None),
        Request::ball(DEFAULT_MODEL, vec![0.5, 0.5], 0.3, None),
    ];
    for probe in &probes {
        let resp = client.call(probe).expect("probe");
        let Response::Estimate { cached, .. } = resp else {
            panic!("expected estimate, got {resp:?}");
        };
        assert!(
            !cached,
            "fresh {:?} probe aliased another shape's cache entry",
            probe.shape.kind()
        );
    }
    assert_eq!(
        [ShapeKind::Rect, ShapeKind::Halfspace, ShapeKind::Ball].len(),
        probes.len()
    );

    // Non-finite parameters answer typed errors — never a clamped or
    // poisoned estimate — and leave the connection usable.
    for line in [
        r#"{"est":"default","lo":[0.1,1e999],"hi":[0.5,0.5]}"#,
        r#"{"est":"default","shape":"halfspace","normal":[1e999,0.0],"offset":0.5}"#,
        r#"{"est":"default","shape":"ball","center":[0.5,0.5],"radius":1e999}"#,
    ] {
        client.send_line(line).expect("send non-finite");
        let resp = client.recv().expect("recv");
        assert!(
            matches!(resp, Response::Error { .. }),
            "non-finite line answered {resp:?}"
        );
    }
    let resp = client.call(&probes[1]).expect("call after errors");
    assert!(matches!(resp, Response::Estimate { cached: true, .. }));

    // Differential check: a random pool of a few hundred shapes, pipelined
    // 32 at a time so workers answer batches. Every answer the server
    // computed (neither degraded nor cached) must carry the bits of the
    // in-process model's estimate on the same shape.
    let pool = synthetic_mixed_requests(2, 300, 41);
    let mut computed = 0;
    for (chunk_no, chunk) in pool.chunks(32).enumerate() {
        for (i, req) in chunk.iter().enumerate() {
            let id = (chunk_no * 32 + i) as u64;
            let line = Request {
                id: Some(id),
                ..req.clone()
            }
            .to_json();
            client.send_line(&line).expect("send pipelined");
        }
        for _ in chunk {
            let resp = client.recv().expect("recv pipelined");
            let Response::Estimate {
                id: Some(id),
                sel,
                degraded: None,
                cached: false,
                ..
            } = resp
            else {
                continue;
            };
            let req = &pool[id as usize];
            let range = req.shape.to_range().expect("pool shapes are valid");
            assert_eq!(
                sel.to_bits(),
                model.estimate(&range).to_bits(),
                "served {} answer {sel} differs from the model's",
                req.shape.kind().as_str()
            );
            computed += 1;
        }
    }
    assert!(
        computed >= pool.len() / 2,
        "only {computed} answers were computed"
    );

    handle.shutdown();
}

#[test]
fn hot_swap_changes_answers_and_invalidates_cache() {
    struct Constant(f64);
    impl SelectivityEstimator for Constant {
        fn estimate(&self, _r: &Range) -> f64 {
            self.0
        }
        fn num_buckets(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(Constant(0.25)), Rect::unit(2));
    let handle = start(ServerConfig::default(), Arc::clone(&registry)).expect("start");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let req = Request::rect(DEFAULT_MODEL, vec![0.1, 0.1], vec![0.4, 0.4], None);
    // Warm the cache with the old model's answer.
    for _ in 0..2 {
        client.call(&req).expect("warm");
    }
    assert!(handle.cache().hits() >= 1);

    assert!(registry.swap(DEFAULT_MODEL, Arc::new(Constant(0.75))));
    let resp = client.call(&req).expect("post-swap call");
    let Response::Estimate { sel, cached, .. } = resp else {
        panic!("expected estimate, got {resp:?}");
    };
    assert!(
        !cached,
        "generation bump must invalidate pre-swap cache entries"
    );
    assert_eq!(sel, 0.75, "post-swap answers come from the new model");

    handle.shutdown();
}

#[test]
fn sheds_load_with_degraded_answers_when_queue_saturated() {
    // A deliberately slow model behind a 1-deep queue and 1 worker: a
    // burst of pipelined requests must split into real answers and
    // explicit shed fallbacks, with nothing dropped.
    struct Slow;
    impl SelectivityEstimator for Slow {
        fn estimate(&self, _r: &Range) -> f64 {
            std::thread::sleep(Duration::from_millis(30));
            0.5
        }
        fn num_buckets(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(Slow), Rect::unit(1));
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0, // cache off so every request reaches the model
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    let handle = start(config, registry).expect("start");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let burst = 12;
    for i in 0..burst {
        // Distinct boxes so answers are distinguishable from caching.
        let req = Request::rect(
            DEFAULT_MODEL,
            vec![0.01 * i as f64],
            vec![0.5 + 0.01 * i as f64],
            Some(i),
        );
        client.send_line(&req.to_json()).expect("pipeline send");
    }
    let mut real = 0;
    let mut shed = 0;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..burst {
        match client.recv().expect("burst response") {
            Response::Estimate {
                id: Some(id),
                degraded,
                ..
            } => {
                assert!(seen.insert(id), "duplicate response id {id}");
                match degraded {
                    None => real += 1,
                    Some(DegradeReason::Shed) => shed += 1,
                    Some(other) => panic!("unexpected degrade reason {other:?}"),
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(real + shed, burst as usize, "every request gets an answer");
    assert!(shed > 0, "a 1-deep queue under a 12-burst must shed");
    assert!(real > 0, "some requests must still reach the model");
    assert_eq!(handle.stats().shed(), shed as u64);

    handle.shutdown();
}

#[test]
fn soak_10k_requests_with_concurrent_hot_swap() {
    // The acceptance soak: 4 workers, 10k mixed requests over localhost
    // with a hot-swap happening mid-run. Zero dropped connections, every
    // response either real or explicitly degraded, repeats hit the cache.
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let (handle, root) = serve_synthetic(config);
    let addr = handle.addr().to_string();

    // Mid-run hot-swaps: refit-quality replacement models swapped in
    // while load is flowing.
    let registry = Arc::clone(handle.registry());
    let swapper = std::thread::spawn(move || {
        for seed in [101u64, 102] {
            std::thread::sleep(Duration::from_millis(150));
            let (model, _root) = synthetic_model(2, 200, seed).expect("refit");
            let next: SharedEstimator = Arc::new(model);
            assert!(registry.swap(DEFAULT_MODEL, next));
        }
    });

    // 256-request pool cycled to 10k total: plenty of repeats for the
    // cache, mixed across 8 closed-loop connections.
    let pool = synthetic_requests(2, 256, 29);
    let options = LoadOptions {
        connections: 8,
        total_requests: 10_000,
        rate: None,
    };
    let report = run_load(&addr, &pool, &options).expect("soak run must not drop connections");
    swapper.join().expect("swapper");

    assert_eq!(report.sent, 10_000);
    assert_eq!(
        report.ok + report.degraded,
        10_000,
        "every response is real or explicitly degraded (errors: {})",
        report.errors
    );
    assert_eq!(report.errors, 0);
    assert!(
        report.cached > 0,
        "a cycled pool must produce estimate-cache hits"
    );
    assert!(report.percentile_us(0.99) > 0.0);

    let stats = handle.stats();
    assert_eq!(stats.requests(), 10_000);
    assert_eq!(stats.errors(), 0);
    assert_eq!(
        stats.model_answers() + stats.cache_answers() + stats.degraded(),
        10_000
    );
    assert!(handle.cache().hits() > 0);
    // Degraded answers stay bounded: the uniform fallback over the unit
    // root is still a probability.
    let mut probe = Client::connect(&addr).expect("probe connect");
    let resp = probe
        .call(&Request::rect(
            DEFAULT_MODEL,
            root.lo().to_vec(),
            root.hi().to_vec(),
            None,
        ))
        .expect("probe");
    match resp {
        Response::Estimate { sel, .. } => assert!((0.0..=1.0).contains(&sel)),
        other => panic!("probe got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn open_loop_load_reports_latency() {
    let (handle, _root) = serve_synthetic(ServerConfig::default());
    let pool = synthetic_requests(2, 64, 31);
    let options = LoadOptions {
        connections: 2,
        total_requests: 400,
        rate: Some(4000.0),
    };
    let report = run_load(&handle.addr().to_string(), &pool, &options).expect("open loop");
    assert_eq!(report.sent, 400);
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok + report.degraded, 400);
    assert!(report.percentile_us(0.5) > 0.0);
    assert!(report.percentile_us(0.99) >= report.percentile_us(0.5));
    handle.shutdown();
}

/// Forwards to a [`DurableFeedback`] and remembers whether any ack
/// reported a registry swap.
struct SwapWatch {
    inner: Arc<DurableFeedback>,
    swapped: AtomicBool,
}

impl FeedbackSink for SwapWatch {
    fn observe(&self, feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError> {
        let ack = self.inner.observe(feedback)?;
        if ack.swapped {
            self.swapped.store(true, Ordering::SeqCst);
        }
        Ok(ack)
    }
}

#[test]
fn served_answers_are_the_store_models_after_a_swap() {
    // The durable server must answer from the model its store persists
    // and recovers: after a checkpoint swap, every uncached answer is the
    // store's online model's estimate, bit for bit, for every shape.
    let dir = std::env::temp_dir().join(format!("selearn-served-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store_config = StoreConfig::new(Rect::unit(2));
    store_config.refit_every = 16;
    store_config.history_cap = 256;
    store_config.quadhist.max_leaves = 64;
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let store = ModelStore::open(&dir, store_config).expect("open store");
    // A checkpoint every 40 records: two refits, then 8 records of
    // interim weights, so the swapped model is not a fresh refit.
    let durable = Arc::new(DurableFeedback::new(
        store,
        Arc::clone(&registry),
        DEFAULT_MODEL,
        40,
    ));
    let watch = Arc::new(SwapWatch {
        inner: Arc::clone(&durable),
        swapped: AtomicBool::new(false),
    });
    let config = ServerConfig {
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    let handle = start_with_feedback(
        config,
        Arc::clone(&registry),
        Some(Arc::clone(&watch) as Arc<dyn FeedbackSink>),
    )
    .expect("start");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let mut sent = 0u64;
    while !watch.swapped.load(Ordering::SeqCst) {
        assert!(sent < 1000, "no ack reported a swap");
        let a = (sent % 37) as f64 / 37.0;
        let b = (sent % 23) as f64 / 23.0;
        let lo = vec![a * 0.6, b * 0.55];
        let hi = vec![(a * 0.6 + 0.3).min(1.0), (b * 0.55 + 0.35).min(1.0)];
        let sel = synthetic_selectivity(&lo, &hi);
        let fb = selearn_serve::Feedback::rect(DEFAULT_MODEL, lo, hi, sel, Some(sent));
        let resp = client.feedback(&fb).expect("feedback");
        assert!(matches!(resp, Response::Ack { .. }), "feedback got {resp:?}");
        sent += 1;
    }

    let mut checked = [0usize; 3];
    for req in synthetic_mixed_requests(2, 90, 41) {
        let resp = client.call(&req).expect("estimate");
        let Response::Estimate {
            sel,
            degraded,
            cached,
            ..
        } = resp
        else {
            panic!("expected estimate, got {resp:?}");
        };
        assert_eq!(degraded, None);
        if cached {
            continue;
        }
        let range = req.shape.to_range().expect("valid shape");
        let want = durable.store().model().estimate(&range).clamp(0.0, 1.0);
        assert_eq!(
            sel.to_bits(),
            want.to_bits(),
            "{} served {sel}, store model says {want}",
            req.shape.kind().as_str()
        );
        checked[req.shape.kind() as usize] += 1;
    }
    assert!(checked.iter().all(|&n| n > 0), "uncached answers per shape: {checked:?}");

    handle.shutdown();
    drop(client);
    drop(watch);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_restart_loses_no_acknowledged_feedback() {
    // The durability soak: a server with a WAL'd feedback store takes 2k
    // mixed requests, gets killed mid-stream with pipelined feedback
    // still in flight (no final checkpoint, no clean close), and is
    // restarted on the same directory. Every acknowledged record must
    // survive, and LSNs/generations must resume monotonically.
    let dir = std::env::temp_dir().join(format!("selearn-soak-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_config = || {
        let mut c = StoreConfig::new(Rect::unit(2));
        c.refit_every = 16;
        c.history_cap = 256;
        c.quadhist.max_leaves = 24;
        c
    };
    let bx = |i: usize| -> (Vec<f64>, Vec<f64>) {
        let a = (i % 37) as f64 / 37.0;
        let b = (i % 23) as f64 / 23.0;
        let lo = vec![a * 0.55, b * 0.5];
        let hi = vec![(a * 0.55 + 0.35).min(1.0), (b * 0.5 + 0.4).min(1.0)];
        (lo, hi)
    };

    // Phase 1: serve with a durable sink under a checkpoint-every-64
    // cadence, interleaving feedback (even ids) with estimates (odd).
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let store = ModelStore::open(&dir, store_config()).expect("open store");
    let durable = Arc::new(DurableFeedback::new(
        store,
        Arc::clone(&registry),
        DEFAULT_MODEL,
        64,
    ));
    let handle = start_with_feedback(
        ServerConfig::default(),
        Arc::clone(&registry),
        Some(Arc::clone(&durable) as Arc<dyn FeedbackSink>),
    )
    .expect("start");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let mut acked: Vec<(u64, u64)> = Vec::new(); // (lsn, generation)
    for i in 0..1200usize {
        let (lo, hi) = bx(i);
        if i % 2 == 0 {
            let sel = synthetic_selectivity(&lo, &hi);
            let fb = selearn_serve::Feedback::rect(DEFAULT_MODEL, lo, hi, sel, Some(i as u64));
            match client.feedback(&fb).expect("feedback") {
                Response::Ack {
                    lsn, generation, ..
                } => acked.push((lsn, generation)),
                other => panic!("feedback got {other:?}"),
            }
        } else {
            let resp = client
                .call(&Request::rect(DEFAULT_MODEL, lo, hi, Some(i as u64)))
                .expect("estimate");
            assert!(matches!(resp, Response::Estimate { .. }), "got {resp:?}");
        }
    }
    // The kill: pipeline the remaining 800 without waiting, and shut the
    // server down underneath them. In-flight feedback either acks (and
    // must then survive) or errors/vanishes (and owes the client nothing)
    // — what must never happen is an ack for a record that's gone.
    for i in 1200..2000usize {
        let (lo, hi) = bx(i);
        let sel = synthetic_selectivity(&lo, &hi);
        let fb = selearn_serve::Feedback::rect(DEFAULT_MODEL, lo, hi, sel, Some(i as u64));
        if client.send_line(&fb.to_json()).is_err() {
            break; // server already tore the connection down
        }
    }
    let killer = std::thread::spawn(move || handle.shutdown());
    loop {
        match client.recv() {
            Ok(Response::Ack {
                lsn, generation, ..
            }) => acked.push((lsn, generation)),
            Ok(_) => {}
            Err(_) => break, // EOF: the server is gone
        }
    }
    killer.join().expect("killer");
    drop(client);
    // Crash semantics: drop the store with the WAL tail unsnapshotted.
    assert!(
        durable.store().unflushed_records() > 0 || durable.store().generation() > 0,
        "test must exercise a non-trivial store state"
    );
    drop(durable);
    drop(registry);

    // Restart: recovery must cover every acknowledged record.
    let store = ModelStore::open(&dir, store_config()).expect("recover");
    assert!(acked.len() >= 600, "expected most feedback acked");
    let max_lsn = acked.iter().map(|a| a.0).max().expect("acks");
    let max_gen = acked.iter().map(|a| a.1).max().expect("acks");
    assert!(
        store.last_lsn() >= max_lsn,
        "lost acknowledged records: recovered to lsn {}, acked through {max_lsn}",
        store.last_lsn()
    );
    assert!(
        store.generation() >= max_gen,
        "generation went backwards across the restart"
    );
    let mut lsns: Vec<u64> = acked.iter().map(|a| a.0).collect();
    lsns.sort_unstable();
    lsns.dedup();
    assert_eq!(lsns.len(), acked.len(), "duplicate ack LSNs");

    // Phase 2: resume serving on the recovered store. LSNs continue
    // gaplessly from the recovered tail; generations only move forward.
    let recovered_lsn = store.last_lsn();
    let recovered_gen = store.generation();
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let durable = Arc::new(DurableFeedback::new(
        store,
        Arc::clone(&registry),
        DEFAULT_MODEL,
        64,
    ));
    let handle = start_with_feedback(
        ServerConfig::default(),
        Arc::clone(&registry),
        Some(Arc::clone(&durable) as Arc<dyn FeedbackSink>),
    )
    .expect("restart");
    let mut client = Client::connect(&handle.addr().to_string()).expect("reconnect");
    for i in 0..100usize {
        let (lo, hi) = bx(i * 7);
        let sel = synthetic_selectivity(&lo, &hi);
        let fb = selearn_serve::Feedback::rect(DEFAULT_MODEL, lo, hi, sel, Some(i as u64));
        match client.feedback(&fb).expect("post-restart feedback") {
            Response::Ack {
                lsn, generation, ..
            } => {
                assert_eq!(
                    lsn,
                    recovered_lsn + i as u64 + 1,
                    "LSNs must resume gaplessly after recovery"
                );
                assert!(generation >= recovered_gen, "generation regressed");
            }
            other => panic!("post-restart feedback got {other:?}"),
        }
    }
    let final_gen = durable.checkpoint_now().expect("final checkpoint");
    assert!(final_gen > max_gen, "generations must stay monotone");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feedback_without_a_store_answers_a_typed_error() {
    let (handle, _root) = serve_synthetic(ServerConfig::default());
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let fb =
        selearn_serve::Feedback::rect(DEFAULT_MODEL, vec![0.1, 0.1], vec![0.4, 0.4], 0.2, Some(1));
    let resp = client.feedback(&fb).expect("feedback");
    let Response::Error { id, message } = resp else {
        panic!("expected error, got {resp:?}");
    };
    assert_eq!(id, Some(1));
    assert!(message.contains("--store-dir"), "{message}");
    // The connection still serves estimates afterwards.
    let resp = client
        .call(&Request::rect(
            DEFAULT_MODEL,
            vec![0.1, 0.1],
            vec![0.4, 0.4],
            None,
        ))
        .expect("estimate after rejected feedback");
    assert!(matches!(resp, Response::Estimate { .. }));
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_under_load() {
    let (handle, _root) = serve_synthetic(ServerConfig::default());
    let addr = handle.addr().to_string();
    let pool = synthetic_requests(2, 32, 37);
    let report = run_load(
        &addr,
        &pool,
        &LoadOptions {
            connections: 2,
            total_requests: 200,
            rate: None,
        },
    )
    .expect("pre-shutdown load");
    assert_eq!(report.sent, 200);
    handle.shutdown();
    // The port must actually be released/refusing after shutdown.
    assert!(Client::connect(&addr)
        .and_then(|mut c| c.call(&Request::rect(
            DEFAULT_MODEL,
            vec![0.1, 0.1],
            vec![0.2, 0.2],
            None,
        )))
        .is_err());
}
