//! Event-loop regression tests: thread-leak churn, idle-connection
//! scaling, slow-reader backpressure, per-tenant quota isolation, lines
//! that are not UTF-8, feedback bursts against the client's delayed ACK,
//! and the model name every answer echoes.
//!
//! These pin the properties the readiness poller was built for — a real
//! server on a real localhost socket, with assertions against
//! `/proc/self` for thread and memory accounting. Those counts are
//! process-wide, so the tests in this binary serialize on one lock: a
//! server another test starts or stops mid-count would skew them.

use selearn_core::{SelearnError, SelectivityEstimator, TrainingQuery};
use selearn_geom::{Range, Rect};
use selearn_serve::synth::synthetic_model;
use selearn_serve::{
    parse_response, start, start_with_feedback, Client, DegradeReason, FeedbackAck, FeedbackSink,
    ModelRegistry, Request, Response, ServerConfig, ServerHandle, DEFAULT_MODEL,
};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the calling test alone among this binary's tests. A failed test
/// poisons the lock; the next one still runs.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live threads in this process, via `/proc/self/task`.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Resident set size in KiB, via `/proc/self/status`.
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Soft limit on open files, via `/proc/self/limits`.
fn fd_soft_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

fn serve_synthetic(config: ServerConfig) -> ServerHandle {
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    start(config, registry).expect("server start")
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

/// The regression test for the reader-thread leak: the old server spawned
/// (and never joined) one reader thread per accepted connection, so 10k
/// short-lived connections left 10k parked threads. The event loop owns
/// every socket on one poller thread — churn must leave the thread count
/// where it started and drain `open_connections` back to zero.
#[test]
fn connection_churn_leaves_o1_threads() {
    let _serial = serial();
    let handle = serve_synthetic(ServerConfig::default());
    let addr = handle.addr().to_string();

    // Steady state: server running, one connection already seen.
    drop(TcpStream::connect(&addr).expect("prime connect"));
    let threads_before = live_threads();

    const CHURN: usize = 10_000;
    for i in 0..CHURN {
        match TcpStream::connect(&addr) {
            Ok(stream) => drop(stream),
            // Transient backlog overflow under churn: brief retry.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                drop(TcpStream::connect(&addr).unwrap_or_else(|e| {
                    panic!("connect {i} failed twice: {e}");
                }));
            }
        }
    }

    let threads_after = live_threads();
    assert!(
        threads_after <= threads_before + 4,
        "thread leak: {threads_before} threads before churn, {threads_after} after"
    );
    assert!(
        wait_until(Duration::from_secs(10), || handle.open_connections() == 0),
        "connections not reaped: {} still open",
        handle.open_connections()
    );
    // Near-total, not exact: a client that disconnects fast enough can be
    // reaped from the kernel accept queue before the server ever sees it.
    assert!(
        handle.stats().connections() >= (CHURN - CHURN / 20) as u64,
        "server accepted only {} of {CHURN} connections",
        handle.stats().connections()
    );

    // The server still answers after the churn.
    let mut client = Client::connect(&addr).expect("post-churn connect");
    let resp = client
        .call(&Request::rect(
            DEFAULT_MODEL,
            vec![0.1, 0.2],
            vec![0.6, 0.7],
            Some(1),
        ))
        .expect("post-churn call");
    assert!(matches!(resp, Response::Estimate { .. }), "got {resp:?}");

    handle.shutdown();
}

/// Idle-connection scaling: thousands of open-but-silent sockets cost the
/// server one poller thread and bounded memory, and wake no workers.
#[test]
fn idle_connections_are_cheap() {
    let _serial = serial();
    // Each idle connection holds 3 fds in this process (client end +
    // server read/write halves); leave generous headroom under the limit.
    let budget = (fd_soft_limit().saturating_sub(512) / 3) as usize;
    let target = budget.min(5_000);
    if target < 1_000 {
        eprintln!("skipping: fd limit {} too low for idle-scaling test", fd_soft_limit());
        return;
    }

    let handle = serve_synthetic(ServerConfig::default());
    let addr = handle.addr().to_string();
    let threads_baseline = live_threads();
    let rss_baseline = rss_kb();

    let mut idle = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(&addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => panic!("idle connect {i} failed: {e}"),
        }
    }
    assert!(
        wait_until(Duration::from_secs(30), || {
            handle.open_connections() == target
        }),
        "server holds {} of {target} idle connections",
        handle.open_connections()
    );

    // Silent sockets admit nothing: no request ever reached the queue.
    assert_eq!(handle.stats().requests(), 0, "idle sockets woke a worker");
    // And they cost no threads — the poller owns them all.
    assert!(
        live_threads() <= threads_baseline + 2,
        "idle connections grew threads: {} -> {}",
        threads_baseline,
        live_threads()
    );
    // Memory stays bounded: well under 24 KiB per connection end-to-end
    // (both client and server halves live in this process).
    let rss_grown = rss_kb().saturating_sub(rss_baseline);
    assert!(
        rss_grown < 24 * target as u64,
        "idle connections cost {rss_grown} KiB RSS for {target} conns"
    );

    // A live client is still served while the idle herd is connected.
    let mut client = Client::connect(&addr).expect("live connect");
    let resp = client
        .call(&Request::rect(
            DEFAULT_MODEL,
            vec![0.2, 0.2],
            vec![0.5, 0.5],
            Some(7),
        ))
        .expect("live call");
    assert!(matches!(resp, Response::Estimate { .. }), "got {resp:?}");

    drop(idle);
    handle.shutdown();
}

/// Slow-reader backpressure: a client that writes requests but never
/// reads responses must be disconnected once its write buffer cap is
/// exceeded — with the drop counted — while other clients stay live.
/// A worker must never block on a client socket.
#[test]
fn slow_reader_is_dropped_not_blocking() {
    let _serial = serial();
    let handle = serve_synthetic(ServerConfig::default());
    let addr = handle.addr().to_string();
    let stats = Arc::clone(handle.stats());

    let mut slow = TcpStream::connect(&addr).expect("slow connect");
    slow.set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    let line = format!(
        "{{\"est\":\"{DEFAULT_MODEL}\",\"lo\":[0.1,0.2],\"hi\":[0.6,0.7],\"id\":9}}\n"
    );
    // Pipeline requests without ever reading. Responses fill the socket
    // buffers, then the ConnWriter's 1 MiB pending buffer (≈11k responses
    // of ≈95 bytes), then the cap trips — far inside the 500k bound.
    let mut sent = 0usize;
    while stats.slow_client_drops() == 0 && sent < 500_000 {
        match slow.write_all(line.as_bytes()) {
            Ok(()) => sent += 1,
            // Connection already doomed server-side, or momentarily full.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || stats.slow_client_drops() >= 1),
        "slow client was never dropped after {sent} pipelined requests"
    );
    assert!(
        wait_until(Duration::from_secs(10), || handle.open_connections() == 0),
        "doomed connection not reaped"
    );

    // A well-behaved client on the same server is unaffected.
    let mut client = Client::connect(&addr).expect("good connect");
    let resp = client
        .call(&Request::rect(
            DEFAULT_MODEL,
            vec![0.3, 0.3],
            vec![0.8, 0.8],
            Some(2),
        ))
        .expect("good call");
    assert!(matches!(resp, Response::Estimate { .. }), "got {resp:?}");

    drop(slow);
    handle.shutdown();
}

/// Per-tenant quota shedding: saturating tenant `a` flips its answers to
/// `degraded:"quota"` uniform fallbacks without touching tenant `b`.
#[test]
fn tenant_quota_isolation() {
    let _serial = serial();
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
    registry.register("a.m", Arc::new(Constant(0.25)), Rect::unit(2));
    registry.register("b.m", Arc::new(Constant(0.5)), Rect::unit(2));
    // Tenant `a` gets a tiny bucket; tenant `b` stays unlimited.
    assert!(registry.set_quota("a", Some((1.0, 4.0))));
    let handle = start(ServerConfig::default(), Arc::clone(&registry)).expect("start");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let req =
        |est: &str, id: u64| Request::rect(est, vec![0.1, 0.1], vec![0.4, 0.4], Some(id));

    let mut a_quota_degraded = 0u64;
    let mut a_served = 0u64;
    for i in 0..30 {
        match client.call(&req("a.m", i)).expect("tenant a call") {
            Response::Estimate {
                degraded: Some(DegradeReason::Quota),
                sel,
                ..
            } => {
                a_quota_degraded += 1;
                // Degraded answers are the uniform fallback, not silence.
                assert!((0.0..=1.0).contains(&sel));
            }
            Response::Estimate { degraded: None, .. } => a_served += 1,
            other => panic!("tenant a: unexpected {other:?}"),
        }
    }
    assert!(a_served >= 1, "burst should admit some of tenant a");
    assert!(
        a_quota_degraded >= 20,
        "tenant a saturated its bucket but only {a_quota_degraded}/30 were shed"
    );
    assert!(handle.stats().quota_shed() >= a_quota_degraded);

    // Feedback over quota is refused loudly (an ack would lie about
    // durability), not silently dropped.
    client
        .send_line(r#"{"feedback":true,"est":"a.m","lo":[0.1,0.1],"hi":[0.4,0.4],"sel":0.2}"#)
        .expect("send feedback");
    let fb = client.recv().expect("feedback response");
    assert!(matches!(fb, Response::Error { .. }), "got {fb:?}");

    // Tenant b is untouched by a's saturation: every answer undegraded.
    for i in 0..30 {
        match client.call(&req("b.m", i)).expect("tenant b call") {
            Response::Estimate { degraded: None, .. } => {}
            other => panic!("tenant b degraded by tenant a's quota: {other:?}"),
        }
    }

    handle.shutdown();
}

/// Lines that are not UTF-8 each answer the typed error, count exactly
/// one error, and leave the connection serving: an invalid lead byte
/// pair, a lone continuation byte, and a 3-byte sequence cut short by
/// the newline. A valid line whose multi-byte model name is split
/// mid-character across two writes is reassembled and answered.
#[test]
fn invalid_utf8_lines_are_typed_errors_and_the_connection_keeps_serving() {
    let _serial = serial();
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let model: selearn_core::SharedEstimator = Arc::new(model);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::clone(&model), root.clone());
    registry.register("zürich", model, root);
    let handle = start(ServerConfig::default(), registry).expect("server start");
    let stats = Arc::clone(handle.stats());

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut recv = move || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        parse_response(line.trim_end()).expect("parse response")
    };
    let good =
        format!("{{\"est\":\"{DEFAULT_MODEL}\",\"lo\":[0.1,0.2],\"hi\":[0.6,0.7],\"id\":7}}\n");

    let bad_lines: [&[u8]; 3] = [b"\xff\xfe\n", b"\x80\n", b"\xe2\x82\n"];
    for (i, bad) in bad_lines.iter().enumerate() {
        stream.write_all(bad).expect("write bad line");
        match recv() {
            Response::Error { id: None, message } => {
                assert_eq!(message, "request is not valid UTF-8", "line {bad:?}");
            }
            other => panic!("line {bad:?}: expected a UTF-8 error, got {other:?}"),
        }
        assert_eq!(stats.errors(), i as u64 + 1, "line {bad:?}");
        stream.write_all(good.as_bytes()).expect("write good line");
        let resp = recv();
        assert!(
            matches!(
                resp,
                Response::Estimate {
                    id: Some(7),
                    degraded: None,
                    ..
                }
            ),
            "after line {bad:?}: {resp:?}"
        );
        assert_eq!(stats.errors(), i as u64 + 1, "after line {bad:?}");
    }

    // "ü" is 0xc3 0xbc; the first write ends between the two bytes.
    let split = "{\"est\":\"zürich\",\"lo\":[0.1,0.2],\"hi\":[0.6,0.7],\"id\":8}\n";
    let split = split.as_bytes();
    let cut = split.iter().position(|&b| b == 0xc3).expect("lead byte") + 1;
    stream.write_all(&split[..cut]).expect("write first half");
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(&split[cut..]).expect("write second half");
    let resp = recv();
    assert!(
        matches!(
            resp,
            Response::Estimate {
                id: Some(8),
                degraded: None,
                ..
            }
        ),
        "split multi-byte name: {resp:?}"
    );
    assert_eq!(stats.errors(), 3);

    handle.shutdown();
}

/// A feedback sink that acks at once with the next LSN: no log, no
/// fsync, so a round trip is the server's own read and write path.
struct InstantAck(Mutex<u64>);

impl FeedbackSink for InstantAck {
    fn observe(&self, _feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError> {
        let mut lsn = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        *lsn += 1;
        Ok(FeedbackAck {
            lsn: *lsn,
            generation: 0,
            swapped: false,
        })
    }
}

/// The delayed-ACK regression. A client with default socket settings
/// writes 10 bursts of 16 feedback lines, each burst in one `write`, and
/// waits for its 16 acks. A server that sends one burst's acks in more
/// than one segment with Nagle on holds every segment after the first
/// until the client's delayed ACK (≈40 ms on Linux), so the round trip
/// reads 40+ ms; batched writes with `TCP_NODELAY` answer in well under
/// a millisecond of work.
#[test]
fn feedback_bursts_are_acked_without_waiting_for_the_delayed_ack() {
    let _serial = serial();
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::new(model), root);
    let sink: Arc<dyn FeedbackSink> = Arc::new(InstantAck(Mutex::new(0)));
    let handle =
        start_with_feedback(ServerConfig::default(), registry, Some(sink)).expect("server start");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (bursts, per_burst) = (10u64, 16u64);
    let mut lsns = Vec::new();
    let mut round_trips = Vec::new();
    for burst in 0..bursts {
        let mut lines = String::new();
        for i in 0..per_burst {
            let id = burst * per_burst + i;
            let _ = writeln!(
                lines,
                "{{\"lo\":[0.1,0.2],\"hi\":[0.5,0.6],\"sel\":0.2,\"id\":{id}}}"
            );
        }
        let t0 = Instant::now();
        stream.write_all(lines.as_bytes()).expect("write burst");
        for _ in 0..per_burst {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read ack");
            match parse_response(line.trim_end()) {
                Ok(Response::Ack { lsn, .. }) => lsns.push(lsn),
                other => panic!("burst {burst}: expected an ack, got {other:?}"),
            }
        }
        round_trips.push(t0.elapsed());
    }
    lsns.sort_unstable();
    assert_eq!(
        lsns,
        (1..=bursts * per_burst).collect::<Vec<_>>(),
        "acks lost or LSNs not gapless"
    );
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median burst round trip {median:?} (all: {round_trips:?})"
    );

    handle.shutdown();
}

/// Every estimate answer echoes the registry name the request addressed,
/// whichever path answered it: the model, the cache, or the quota
/// fallback. (The estimator's own type name is the same for every model
/// of its kind and would not say which one answered.)
#[test]
fn every_estimate_answer_echoes_the_addressed_model_name() {
    let _serial = serial();
    let (model, root) = synthetic_model(2, 200, 11).expect("synthetic fit");
    let type_name = model.name();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("t.m", Arc::new(model), root);
    // Tenant `t` admits two requests, then sheds with reason "quota".
    assert!(registry.set_quota("t", Some((1e-6, 2.0))));
    let handle = start(ServerConfig::default(), registry).expect("server start");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let req = Request::rect("t.m", vec![0.1, 0.2], vec![0.6, 0.7], Some(1));
    let mut answers = Vec::new();
    for _ in 0..3 {
        match client.call(&req).expect("call") {
            Response::Estimate {
                est,
                degraded,
                cached,
                ..
            } => answers.push((est, degraded, cached)),
            other => panic!("expected an estimate, got {other:?}"),
        }
    }
    let name = "t.m".to_string();
    assert_eq!(
        answers,
        vec![
            (name.clone(), None, false),
            (name.clone(), None, true),
            (name, Some(DegradeReason::Quota), false),
        ],
        "model answer, cache hit, quota fallback"
    );
    assert_ne!(type_name, "t.m");

    handle.shutdown();
}
