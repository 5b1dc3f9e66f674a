//! Admin-plane integration tests: a real server with its admin listener
//! on the same event loop, scraped over HTTP while the data port is under
//! load.
//!
//! Obs registries are process-global, and the thread-count test reads
//! `/proc/self/task`, so tests in this binary serialize on one lock
//! instead of fighting over counters and threads.

use selearn_serve::synth::{
    synthetic_mixed_model, synthetic_mixed_requests, synthetic_model, synthetic_requests,
};
use selearn_serve::{
    run_load, start, start_with_feedback, Client, DriftConfig, DriftMonitor, DurableFeedback,
    FeedbackSink, LoadOptions, ModelRegistry, Request, Response, ServerConfig, ServerHandle,
    DEFAULT_MODEL,
};
use selearn_store::{ModelStore, StoreConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs the calling test alone among this binary's tests. A failed test
/// poisons the lock; the next one still runs, so each failure is
/// reported once.
fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server defaults plus an admin listener on a free port.
fn with_admin() -> ServerConfig {
    ServerConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    }
}

/// The bound admin address of a server started with [`with_admin`].
fn admin_addr(handle: &ServerHandle) -> String {
    handle.admin_addr().expect("admin plane configured").to_string()
}

/// A server with the synthetic 2-D model and the admin plane up.
fn serve_synthetic_with_admin() -> ServerHandle {
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    start(with_admin(), registry).expect("server")
}

/// Live threads in this process, via `/proc/self/task`.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Sends raw bytes on a fresh admin connection and reads until the server
/// closes it.
fn http_raw(addr: &str, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("admin connect");
    stream.write_all(request).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// One HTTP GET against the admin plane: `(status, body)`.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let raw = http_raw(addr, format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes());
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Structural exposition check: every sample line is `name{labels}? value`
/// with a grammar-legal metric name; returns the value of `series` (exact
/// match on the part before the space) when present.
fn check_exposition(body: &str, series: &str) -> Option<f64> {
    assert!(!body.is_empty(), "empty exposition body");
    let mut found = None;
    for line in body.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "bad comment line {line:?}"
            );
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let name_end = name_part.find('{').unwrap_or(name_part.len());
        let name = &name_part[..name_end];
        assert!(
            !name.is_empty()
                && name.chars().enumerate().all(|(i, c)| c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit())),
            "bad metric name in {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
            "bad sample value in {line:?}"
        );
        if name_part == series {
            found = value.parse::<f64>().ok();
        }
    }
    found
}

#[test]
fn concurrent_scrapes_stay_valid_during_1k_request_soak() {
    let _g = obs_lock();
    selearn_obs::enable_stats(true);

    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let handle = start(with_admin(), registry).expect("server");
    let admin_addr = admin_addr(&handle);

    // Scraper thread: hammer /metrics concurrently with the soak,
    // recording the requests-total counter from each valid scrape.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let admin_addr = admin_addr.clone();
        std::thread::spawn(move || {
            let mut totals = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = http_get(&admin_addr, "/metrics");
                assert_eq!(status, 200);
                if let Some(v) = check_exposition(&body, "serve_requests_total") {
                    totals.push(v);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            totals
        })
    };

    let pool = synthetic_requests(2, 128, 23);
    let report = run_load(
        &handle.addr().to_string(),
        &pool,
        &LoadOptions {
            connections: 4,
            total_requests: 1000,
            rate: None,
        },
    )
    .expect("soak");
    stop.store(true, Ordering::Relaxed);
    let totals = scraper.join().expect("scraper");

    // The data port never saw an error or a dropped request while being
    // scraped. (A strict with/without-scrape latency A/B would be flaky
    // on 1-CPU CI boxes; zero errors plus a sane p99 is the stable form
    // of "scrapes don't impact the data port".)
    assert_eq!(report.sent, 1000);
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok + report.degraded, 1000);
    assert!(report.percentile_us(0.99) < 2_000_000.0, "p99 blew up");

    // Counters are monotone across concurrent scrapes.
    assert!(totals.len() >= 2, "expected several mid-soak scrapes");
    assert!(
        totals.windows(2).all(|w| w[0] <= w[1]),
        "counter went backwards across scrapes: {totals:?}"
    );

    // A final scrape exposes the serve histogram with cumulative buckets.
    let (status, body) = http_get(&admin_addr, "/metrics");
    assert_eq!(status, 200);
    check_exposition(&body, "");
    assert!(body.contains("# TYPE serve_latency_us histogram"), "{body}");
    assert!(body.contains("serve_latency_us_bucket{le=\"+Inf\"}"));
    assert!(body.contains("serve_latency_us_count"));
    assert!(body.contains("# TYPE serve_requests_total counter"));
    assert!(body.contains("process_uptime_seconds"));

    // /stats and /readyz answer sensibly alongside.
    let (status, stats_body) = http_get(&admin_addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats_body.contains("\"requests\":"), "{stats_body}");
    let (status, ready_body) = http_get(&admin_addr, "/readyz");
    assert_eq!(status, 200, "{ready_body}");

    handle.shutdown();
    selearn_obs::enable_stats(false);
}

/// `/metrics` reads the server's own counts, not the obs registry: with
/// obs stats off, after a quiesced load over every shape plus error,
/// unknown-model and over-quota lines, each serving family equals the
/// getter `/stats` reads.
#[test]
fn metrics_serving_families_equal_the_servers_own_counts() {
    let _g = obs_lock();
    selearn_obs::enable_stats(false);

    let (model, root) = synthetic_mixed_model(2, 200, 11).expect("synthetic fit");
    let model: selearn_core::SharedEstimator = Arc::new(model);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::clone(&model), root.clone());
    registry.register("q.m", model, root);
    // Tenant `q` admits one request, then sheds with reason "quota".
    assert!(registry.set_quota("q", Some((1e-6, 1.0))));
    let handle = start(with_admin(), registry).expect("server");
    let addr = handle.addr().to_string();

    let report = run_load(
        &addr,
        &synthetic_mixed_requests(2, 48, 23),
        &LoadOptions {
            connections: 2,
            total_requests: 300,
            rate: None,
        },
    )
    .expect("load");
    assert_eq!((report.sent, report.errors), (300, 0));
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..3 {
        let resp = client
            .call(&Request::rect(
                "q.m",
                vec![0.1, 0.1],
                vec![0.4, 0.4],
                Some(1),
            ))
            .expect("quota call");
        assert!(matches!(resp, Response::Estimate { .. }), "{resp:?}");
    }
    for line in ["not json", r#"{"est":"nope","lo":[0.1],"hi":[0.2]}"#] {
        client.send_line(line).expect("send");
        let resp = client.recv().expect("recv");
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    }
    // Every answer is in: the counts are quiescent from here on.

    let (status, body) = http_get(&admin_addr(&handle), "/metrics");
    assert_eq!(status, 200);
    let (s, cache) = (handle.stats(), handle.cache());
    assert_eq!(s.requests(), 305);
    assert_eq!((s.quota_shed(), s.errors()), (2, 2));
    assert!(s.rect_requests() > 0 && s.halfspace_requests() > 0 && s.ball_requests() > 0);
    assert!(cache.hits() > 0 && cache.misses() > 0);
    // Admin answers are not data-port writes; batched answers share one.
    assert!(s.write_calls() > 0 && s.write_calls() <= s.requests());
    for (family, count) in [
        ("serve_requests_total", s.requests()),
        ("serve_requests_shed", s.shed()),
        ("serve_requests_deadline", s.deadline_expired()),
        ("serve_requests_quota", s.quota_shed()),
        ("serve_request_errors", s.errors()),
        ("serve_connections", s.connections()),
        ("serve_slow_client_drops", s.slow_client_drops()),
        ("serve_feedback_acks", s.feedback_acks()),
        ("serve_requests_rect", s.rect_requests()),
        ("serve_requests_halfspace", s.halfspace_requests()),
        ("serve_requests_ball", s.ball_requests()),
        ("serve_write_calls", s.write_calls()),
        ("serve_cache_hits", cache.hits()),
        ("serve_cache_misses", cache.misses()),
    ] {
        assert_eq!(
            check_exposition(&body, family),
            Some(count as f64),
            "{family}\n{body}"
        );
        assert_eq!(
            body.matches(&format!("# TYPE {family} counter\n")).count(),
            1
        );
    }
    assert!(!body.contains("serve_requests_swap_degraded"), "{body}");

    handle.shutdown();
}

/// The `serve.stage_us` histograms count what the server counts: with obs
/// stats on, after a quiesced load of fresh rects (misses), repeats
/// (cache hits) and acked feedback lines, each stage's sample count
/// equals the matching `ServeStats` getter. With stats off no stage
/// sample is taken, so no stage family renders.
#[test]
fn stage_histograms_count_what_the_server_counts() {
    let _g = obs_lock();
    selearn_obs::reset();
    selearn_obs::enable_stats(true);

    let dir = std::env::temp_dir().join(format!("selearn-admin-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store_config = StoreConfig::new(selearn_geom::Rect::unit(2));
    store_config.refit_every = 1024;
    store_config.quadhist.max_leaves = 16;
    let store = ModelStore::open(&dir, store_config).expect("store");
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let durable = Arc::new(DurableFeedback::new(
        store,
        Arc::clone(&registry),
        DEFAULT_MODEL,
        0,
    ));
    let handle = start_with_feedback(
        with_admin(),
        registry,
        Some(durable as Arc<dyn FeedbackSink>),
    )
    .expect("server");
    let admin_addr = admin_addr(&handle);

    // Rect `i` starts two cache cells (1/32) right of rect `i - 1`, so
    // every first ask misses and every repeat hits.
    let rect = |i: u64| {
        let x = i as f64 / 32.0;
        Request::rect(DEFAULT_MODEL, vec![x, 0.1], vec![x + 0.5, 0.6], Some(i))
    };
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    for i in 0..12 {
        for _ in 0..3 {
            let resp = client.call(&rect(i)).expect("estimate");
            assert!(matches!(resp, Response::Estimate { .. }), "{resp:?}");
        }
    }
    for i in 0..8 {
        let fb = selearn_serve::Feedback::rect(
            DEFAULT_MODEL,
            vec![0.2, 0.2],
            vec![0.5, 0.5],
            0.1,
            Some(i),
        );
        let resp = client.feedback(&fb).expect("feedback");
        assert!(matches!(resp, Response::Ack { .. }), "{resp:?}");
    }
    // Every answer is in: the counts are quiescent from here on.

    let (status, body) = http_get(&admin_addr, "/metrics");
    assert_eq!(status, 200);
    let s = handle.stats();
    assert_eq!((s.requests(), s.errors()), (44, 0));
    assert!(s.cache_answers() > 0 && s.model_answers() > 0, "{body}");
    assert_eq!(s.feedback_acks(), 8);
    // Every line here is admitted, so each one not shed is dequeued.
    let dequeued = s.requests() - s.shed();
    for (stage, count) in [
        ("queue_wait", dequeued),
        ("cache_hit", s.cache_answers()),
        ("estimate", s.model_answers()),
        ("wal_append", s.feedback_acks()),
    ] {
        let series = format!("serve_stage_us_count{{stage=\"{stage}\"}}");
        assert_eq!(
            check_exposition(&body, &series),
            Some(count as f64),
            "{series}\n{body}"
        );
    }
    assert_eq!(body.matches("# TYPE serve_stage_us histogram\n").count(), 1);

    selearn_obs::reset();
    selearn_obs::enable_stats(false);
    for resp in [
        client.call(&rect(0)).expect("hit"),
        client.call(&rect(15)).expect("miss"),
    ] {
        assert!(matches!(resp, Response::Estimate { .. }), "{resp:?}");
    }
    let (status, body) = http_get(&admin_addr, "/metrics");
    assert_eq!(status, 200);
    assert!(!body.contains("serve_stage_us"), "{body}");
    assert!(!body.contains("serve_latency_us"), "{body}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Online refits show on `/metrics`: the refit's span timings (the refit
/// itself and its weight solve) and the solver's iterations and
/// convergence, from acked feedback alone.
#[test]
fn metrics_show_online_refit_spans_and_solver_exits() {
    let _g = obs_lock();
    selearn_obs::reset();
    selearn_obs::enable_stats(true);

    let dir = std::env::temp_dir().join(format!("selearn-admin-refits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store_config = StoreConfig::new(selearn_geom::Rect::unit(2));
    store_config.refit_every = 8;
    store_config.quadhist.max_leaves = 16;
    let refit_every = store_config.refit_every;
    let store = ModelStore::open(&dir, store_config).expect("store");
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let durable = Arc::new(DurableFeedback::new(
        store,
        Arc::clone(&registry),
        DEFAULT_MODEL,
        0,
    ));
    let handle = start_with_feedback(
        with_admin(),
        registry,
        Some(durable as Arc<dyn FeedbackSink>),
    )
    .expect("server");
    let admin_addr = admin_addr(&handle);

    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    for i in 0..2 * refit_every as u64 + 3 {
        let x = (i % 5) as f64 / 10.0;
        let fb = selearn_serve::Feedback::rect(
            DEFAULT_MODEL,
            vec![x, 0.1],
            vec![x + 0.4, 0.7],
            0.1 + x / 2.0,
            Some(i),
        );
        let resp = client.feedback(&fb).expect("feedback");
        assert!(matches!(resp, Response::Ack { .. }), "{resp:?}");
    }

    let (status, body) = http_get(&admin_addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "span_wall_us_count{path=\"refit.online\"}",
        "span_wall_us_count{path=\"refit.online/estimate_weights\"}",
        "solver_iters_count{solver=\"fista\"}",
        "solver_final_residual_count{solver=\"fista\"}",
    ] {
        let count = check_exposition(&body, series).unwrap_or(0.0);
        assert!(count >= 1.0, "{series} = {count}\n{body}");
    }
    assert_eq!(
        body.matches("# TYPE span_wall_us histogram\n").count(),
        1,
        "{body}"
    );
    let unconverged = check_exposition(&body, "solver_unconverged{solver=\"fista\"}");
    assert!(unconverged.is_some(), "{body}");

    handle.shutdown();
    selearn_obs::enable_stats(false);
    selearn_obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each server's `/metrics` reports its own requests, not a process-wide
/// total.
#[test]
fn two_servers_in_one_process_report_their_own_requests() {
    let _g = obs_lock();
    selearn_obs::enable_stats(false);

    let servers = [serve_synthetic_with_admin(), serve_synthetic_with_admin()];
    for (handle, n) in servers.iter().zip([3u64, 5]) {
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        for id in 0..n {
            let resp = client
                .call(&Request::rect(
                    DEFAULT_MODEL,
                    vec![0.1, 0.1],
                    vec![0.5, 0.5],
                    Some(id),
                ))
                .expect("call");
            assert!(matches!(resp, Response::Estimate { .. }), "{resp:?}");
        }
    }
    for (handle, n) in servers.iter().zip([3.0, 5.0]) {
        let (_, body) = http_get(&admin_addr(handle), "/metrics");
        assert_eq!(
            check_exposition(&body, "serve_requests_total"),
            Some(n),
            "{body}"
        );
    }
    for handle in servers {
        handle.shutdown();
    }
}

/// Decodes a `{key="value"}` label suffix written with the exposition's
/// escapes (`\\`, `\"`, `\n`); `None` when it does not parse as one.
fn decode_single_label(labels: &str, key: &str) -> Option<String> {
    let rest = labels.strip_prefix('{')?.strip_prefix(key)?.strip_prefix("=\"")?;
    let mut value = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => break,
            '\\' => match chars.next()? {
                '\\' => value.push('\\'),
                '"' => value.push('"'),
                'n' => value.push('\n'),
                _ => return None,
            },
            c => value.push(c),
        }
    }
    (chars.as_str() == "}").then_some(value)
}

/// A tenant namespace carrying `"` and `\` still renders as one
/// well-formed per-tenant series whose label decodes back to the name.
#[test]
fn tenant_labels_are_escaped_in_the_exposition() {
    let _g = obs_lock();
    selearn_obs::enable_stats(true);

    let name = "a\"b\\c.m";
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(name, Arc::new(model), root);
    let handle = start(with_admin(), registry).expect("server");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let resp = client
        .call(&Request::rect(name, vec![0.2, 0.2], vec![0.5, 0.5], Some(1)))
        .expect("estimate");
    assert!(matches!(resp, Response::Estimate { degraded: None, .. }), "{resp:?}");

    let (status, body) = http_get(&admin_addr(&handle), "/metrics");
    assert_eq!(status, 200);
    check_exposition(&body, "");
    let counted: Vec<(String, &str)> = body
        .lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let labels = series.strip_prefix("serve_tenant_requests")?;
            let tenant = decode_single_label(labels, "tenant")
                .unwrap_or_else(|| panic!("unparseable tenant series {line:?}"));
            Some((tenant, value))
        })
        .collect();
    assert!(
        counted.contains(&("a\"b\\c".to_string(), "1")),
        "{counted:?}\n{body}"
    );

    handle.shutdown();
    selearn_obs::enable_stats(false);
}

#[test]
fn readyz_flips_after_drift_alarm_and_recovers() {
    let _g = obs_lock();
    selearn_obs::enable_stats(true);

    let dir = std::env::temp_dir().join(format!("selearn-admin-drift-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store_config = StoreConfig::new(selearn_geom::Rect::unit(2));
    store_config.refit_every = 1024; // keep the online model inert
    store_config.quadhist.max_leaves = 16;
    let store = ModelStore::open(&dir, store_config).expect("store");

    // The served model answers ~0.1 over the probe box; the drift monitor
    // scores acked labels against it.
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root.clone());
    let slot = registry.slot(DEFAULT_MODEL).expect("slot");
    let probe: selearn_geom::Range =
        selearn_geom::Rect::new(vec![0.2, 0.2], vec![0.5, 0.5]).into();
    let (served, _) = slot.get();
    let baseline = served.estimate(&probe).clamp(1e-4, 1.0);

    let durable = Arc::new(DurableFeedback::new(
        store,
        Arc::clone(&registry),
        DEFAULT_MODEL,
        0, // no checkpoints: the served model must stay fixed for scoring
    ));
    let monitor = Arc::new(DriftMonitor::new(
        DriftConfig {
            window: 8,
            threshold: 4.0,
            consecutive: 2,
        },
        Arc::clone(&registry),
    ));
    durable.attach_drift(Arc::clone(&monitor));

    let handle = start_with_feedback(
        with_admin(),
        Arc::clone(&registry),
        Some(Arc::clone(&durable) as Arc<dyn FeedbackSink>),
    )
    .expect("server");
    let admin_addr = admin_addr(&handle);

    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let send_feedback = |client: &mut Client, sel: f64, n: usize| {
        for i in 0..n {
            let fb = selearn_serve::Feedback::rect(
                DEFAULT_MODEL,
                vec![0.2, 0.2],
                vec![0.5, 0.5],
                sel,
                Some(i as u64),
            );
            let resp = client.feedback(&fb).expect("feedback");
            assert!(
                matches!(resp, selearn_serve::Response::Ack { .. }),
                "{resp:?}"
            );
        }
    };

    // Stationary stream: labels agree with the served model → ready.
    send_feedback(&mut client, baseline, 24);
    let (status, body) = http_get(&admin_addr, "/readyz");
    assert_eq!(status, 200, "stationary stream must stay ready: {body}");
    assert!(body.contains("\"drift_alarms\":[]"), "{body}");
    assert!(body.contains("\"store_writable\":true"), "{body}");

    // Label shift: true selectivity jumps 8x past the alarm threshold.
    // K=2 windows of 8 breach the monitor deterministically.
    let shifted = (baseline * 8.0).min(1.0);
    send_feedback(&mut client, shifted, 16);
    let (status, body) = http_get(&admin_addr, "/readyz");
    assert_eq!(status, 503, "drift alarm must flip readiness: {body}");
    assert!(body.contains("\"ready\":false"), "{body}");
    assert!(body.contains("\"drift_alarms\":[\"default\"]"), "{body}");

    // The alarm is scrapeable too.
    let (_, metrics) = http_get(&admin_addr, "/metrics");
    assert!(metrics.contains("serve_drift_alarms 1"), "{metrics}");
    assert!(
        metrics.contains("serve_qerror_p95{model=\"default\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("serve_drift_alarm{model=\"default\"} 1"),
        "{metrics}"
    );

    // Back to stationary: one healthy window clears the alarm.
    send_feedback(&mut client, baseline, 8);
    let (status, body) = http_get(&admin_addr, "/readyz");
    assert_eq!(status, 200, "healthy window must clear the alarm: {body}");

    handle.shutdown();
    selearn_obs::enable_stats(false);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_answers_over_a_real_socket() {
    let _g = obs_lock();
    let handle = serve_synthetic_with_admin();
    let addr = admin_addr(&handle);

    let ok = http_raw(&addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    assert!(ok.contains("\r\nConnection: close\r\n"), "{ok}");
    assert!(ok.ends_with("ok\n"), "{ok}");
    let post = http_raw(&addr, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(post.starts_with("HTTP/1.1 405"), "{post}");
    let missing = http_raw(&addr, b"GET /whatever HTTP/1.1\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    // A bare-newline head ends the request just as CRLF does.
    let lf = http_raw(&addr, b"GET /healthz HTTP/1.0\n\n");
    assert!(lf.starts_with("HTTP/1.1 200 OK\r\n"), "{lf}");
    // Admin connections are not data-port connections.
    assert_eq!(handle.stats().connections(), 0);

    handle.shutdown();
}

/// Idle admin sockets are poll-set entries, not parked threads: holding
/// 32 of them open leaves the process thread count where it was.
#[test]
fn idle_admin_connections_add_no_threads() {
    let _g = obs_lock();
    let handle = serve_synthetic_with_admin();
    let addr = admin_addr(&handle);
    let threads_baseline = live_threads();

    let idle: Vec<TcpStream> = (0..32)
        .map(|i| TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    // The listener accepts in arrival order, so once a later connection
    // is answered every idle one has been accepted.
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert!(
        live_threads() <= threads_baseline,
        "32 idle admin connections grew threads: {threads_baseline} -> {}",
        live_threads()
    );

    drop(idle);
    handle.shutdown();
}

/// A client that stops mid-head is answered from what it sent once the
/// 2 s head budget runs out; meanwhile the poller keeps answering other
/// admin connections and the data port.
#[test]
fn stalled_head_is_answered_after_the_budget_without_blocking_others() {
    let _g = obs_lock();
    let handle = serve_synthetic_with_admin();
    let addr = admin_addr(&handle);

    let started = Instant::now();
    let mut stalled = TcpStream::connect(&addr).expect("stalled connect");
    stalled.write_all(b"GET /hea").expect("partial head");

    let (status, _) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    let mut client = Client::connect(&handle.addr().to_string()).expect("data connect");
    let resp = client
        .call(&Request::rect(
            DEFAULT_MODEL,
            vec![0.1, 0.1],
            vec![0.5, 0.5],
            Some(1),
        ))
        .expect("data call");
    assert!(matches!(resp, Response::Estimate { .. }), "{resp:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a stalled admin head held up other connections for {:?}",
        started.elapsed()
    );

    let mut raw = String::new();
    stalled.read_to_string(&mut raw).expect("read stalled answer");
    let waited = started.elapsed();
    assert!(raw.starts_with("HTTP/1.1 404 Not Found\r\n"), "{raw}");
    assert!(
        waited >= Duration::from_millis(1900) && waited < Duration::from_secs(5),
        "stalled head answered after {waited:?}, budget is 2 s"
    );

    handle.shutdown();
}

/// A head that never ends is answered once it passes the 8 KiB cap, from
/// its request line, and the connection is closed.
#[test]
fn over_cap_head_is_answered_and_closed() {
    let _g = obs_lock();
    let handle = serve_synthetic_with_admin();
    let addr = admin_addr(&handle);

    let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(8 * 1024 + 100, b'a');
    let started = Instant::now();
    let raw = http_raw(&addr, &head);
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(raw.ends_with("ok\n"), "{raw}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "over-cap head waited for the head budget"
    );

    handle.shutdown();
}

#[test]
fn admin_port_refuses_connections_after_shutdown() {
    let _g = obs_lock();
    let handle = serve_synthetic_with_admin();
    let addr = admin_addr(&handle);
    assert_eq!(http_get(&addr, "/healthz").0, 200);

    handle.shutdown();
    assert!(
        TcpStream::connect(&addr).is_err(),
        "admin port still accepts after shutdown"
    );
}
