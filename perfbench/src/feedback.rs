//! `feedback-mixed`: one connection streams labelled feedback with a
//! window in flight while the other reads estimates from a hot pool on
//! the same model. The store lives on a real directory, recovered at
//! set-up from a seeded checkpoint plus WAL image (the `--store-dir`
//! path).

use crate::check::{self, accuracy};
use crate::inputs::{self, feedback_line, labelled, CHECKPOINT_EVERY};
use crate::load::{drive, with_id, Drive, Outcome, Reply, Stop, Window};
use crate::serving::{self, first_answer, HOT_POOL};
use crate::stats::{median_and_tail, quantile, Metrics, Tally};
use crate::trace::{self, median_ms, Tracer};
use crate::{Args, Run};
use selearn_core::{SelearnError, SelectivityEstimator, SharedEstimator, TrainingQuery};
use selearn_data::QueryType;
use selearn_geom::Range;
use selearn_serve::{
    start_with_feedback, DurableFeedback, FeedbackAck, FeedbackSink, ModelRegistry, ServerConfig,
    ServerHandle, DEFAULT_MODEL,
};
use selearn_store::{wal, ModelStore, StdVfs, WalWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Feedback lines the write connection sends together, in one write; the
/// next burst goes when all of them are acked. With a refit every 64 acks
/// and a checkpoint every 256, every 4th burst waits for a refit and
/// every 16th also for a checkpoint.
pub const FEEDBACK_BURST: usize = 16;
/// Percentile of ack latency reported as `tail_ms`: about 75% of acks
/// wait for no refit, 19% for a refit and 6% also for a checkpoint, so
/// p90 sits inside the refit stalls. The few checkpoint stalls of a run
/// move p99 too much to gate on (it is printed on the `#` line).
const ACK_TAIL: f64 = 0.90;
/// The read connection keeps one estimate in flight and sends at most
/// one per `READ_PACE`: a steady planner beside the feedback stream,
/// whose own rate does not swing the CPU left to the writes.
pub const READ_PACE: Duration = Duration::from_millis(1);
/// Labelled feedback records prepared (the image uses the first ones).
const FEEDBACK_POOL: usize = 6000;
/// Timed set-ups per run (each one recovers and freezes).
const SETUPS: usize = 11;

/// The production sink, plus a record of every model it swaps into the
/// registry so reads can be checked against the model that served them.
struct Recording {
    inner: DurableFeedback,
    registry: Arc<ModelRegistry>,
    served: Mutex<Vec<SharedEstimator>>,
}

impl FeedbackSink for Recording {
    fn observe(&self, feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError> {
        // Held across the observe so no second swap can land before the
        // swapped-in model is recorded.
        let mut served = self.served.lock().expect("served-model log");
        let ack = self.inner.observe(feedback)?;
        if ack.swapped {
            if let Some(slot) = self.registry.slot(DEFAULT_MODEL) {
                served.push(slot.get().0);
            }
        }
        Ok(ack)
    }
}

/// Server defaults, except the queue deadline: reads queued behind an
/// inline refit would otherwise be answered degraded after the default
/// 100 ms, and with it off the stall shows as read latency instead.
fn config() -> ServerConfig {
    ServerConfig {
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    }
}

/// Set-up child: recover the store image copy at `path` (the
/// `selearn-serve --store-dir` path), freeze, start and answer once.
pub fn setup_probe(path: &Path) -> f64 {
    let t0 = Instant::now();
    let server = start_server(path, &config(), &serving::first_line());
    let secs = t0.elapsed().as_secs_f64();
    server.handle.shutdown();
    secs
}

struct Server {
    handle: ServerHandle,
    sink: Arc<Recording>,
}

/// Recovery, freeze, server start and the first answer.
fn start_server(dir: &Path, config: &ServerConfig, first: &str) -> Server {
    let store = ModelStore::open(dir, inputs::store_config()).expect("store recovers");
    let model: SharedEstimator = Arc::new(
        store
            .model()
            .clone()
            .freeze()
            .expect("recovered model freezes")
            .freeze(),
    );
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, Arc::clone(&model), inputs::root());
    let sink = Arc::new(Recording {
        inner: DurableFeedback::new(
            store,
            Arc::clone(&registry),
            DEFAULT_MODEL,
            CHECKPOINT_EVERY,
        ),
        registry: Arc::clone(&registry),
        served: Mutex::new(vec![model]),
    });
    let dyn_sink: Arc<dyn FeedbackSink> = sink.clone();
    let handle =
        start_with_feedback(config.clone(), registry, Some(dyn_sink)).expect("server starts");
    first_answer(&handle, first);
    Server { handle, sink }
}

/// One phase: feedback on one connection, reads on the other.
struct Phase {
    acks: Drive,
    reads: Drive,
}

fn phase(
    server: &Server,
    feedback: &[TrainingQuery],
    next_feedback: usize,
    read_prefixes: &[String],
    stop: Stop,
    traced: bool,
) -> Phase {
    let addr = server.handle.addr().to_string();
    let probe = server.handle.queue_probe();
    let probe_ref: &(dyn Fn() -> (usize, usize) + Sync) = &*probe;
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            drive(
                &addr,
                Window::Burst(FEEDBACK_BURST),
                stop,
                None,
                |seq| {
                    let idx = (next_feedback + seq as usize) % feedback.len();
                    (feedback_line(&feedback[idx], seq), idx as u32)
                },
                traced.then_some(probe_ref),
            )
            .expect("feedback connection")
        });
        let reads = drive(
            &addr,
            Window::Sliding(1),
            stop,
            Some(READ_PACE),
            |seq| {
                let idx = seq as usize % read_prefixes.len();
                (with_id(&read_prefixes[idx], seq), idx as u32)
            },
            traced.then_some(probe_ref),
        )
        .expect("read connection");
        Phase {
            acks: writer.join().expect("feedback thread"),
            reads,
        }
    })
}

fn ack_lsns(d: &Drive, tally: &mut Tally) -> Vec<u64> {
    let mut lsns = Vec::with_capacity(d.replies.len());
    for r in &d.replies {
        tally.attempted += 1;
        match r.outcome {
            Outcome::Ack { lsn } => lsns.push(lsn),
            _ => tally.failed += 1,
        }
    }
    lsns
}

pub fn run(args: &Args) -> Run {
    // ---- inputs (untimed) ----
    let ds = inputs::dataset(args.seed);
    let feedback = labelled(
        &ds,
        QueryType::Rect,
        FEEDBACK_POOL,
        &mut inputs::rng(args.seed, 3),
    );
    let pool: Vec<Range> = labelled(
        &ds,
        QueryType::Rect,
        HOT_POOL,
        &mut inputs::rng(args.seed, 2),
    )
    .into_iter()
    .map(|q| q.range)
    .collect();
    let pool_truth = inputs::truth(&ds, &pool);
    let read_prefixes: Vec<String> = pool.iter().map(serving::prefix_of).collect();
    let work = crate::work_dir(args);
    let image = work.join("image");
    let image_last_lsn = inputs::write_store_image(&image, &feedback);
    let first_feedback = inputs::IMAGE_CHECKPOINTED + inputs::IMAGE_TAIL;

    // ---- set-up (timed, in fresh processes; the image copies are not) ----
    let (setup_s, peak_rss_mb) = crate::setup::in_children(args, SETUPS, |i| {
        let dir = work.join(format!("setup-{i}"));
        inputs::copy_dir(&image, &dir);
        dir
    });
    let live_dir: PathBuf = work.join("live");
    inputs::copy_dir(&image, &live_dir);
    let server = start_server(&live_dir, &config(), &serving::first_line());

    // ---- warm-up (untimed): fill the read cache ----
    let warm = drive(
        &server.handle.addr().to_string(),
        Window::Sliding(serving::WINDOW),
        Stop::After(HOT_POOL as u64),
        None,
        |seq| {
            let idx = seq as usize % read_prefixes.len();
            (with_id(&read_prefixes[idx], seq), idx as u32)
        },
        None,
    )
    .expect("warm-up connection");

    // ---- measured phase ----
    let measured = phase(
        &server,
        &feedback,
        first_feedback,
        &read_prefixes,
        Stop::At(Instant::now() + Duration::from_secs(args.seconds)),
        false,
    );
    let mut tally = Tally::default();
    let mut lsns = ack_lsns(&measured.acks, &mut tally);
    let mut ack_lat = measured.acks.latencies_ms();
    let p50 = quantile(&mut ack_lat, 0.5);
    let tail = quantile(&mut ack_lat, ACK_TAIL);
    let ack_p99 = quantile(&mut ack_lat, 0.99);
    let acks_per_s = measured.acks.replies.len() as f64 / measured.acks.seconds();
    let mut read_lat = measured.reads.latencies_ms();
    let (read_p50, read_tail, _) = median_and_tail(&mut read_lat);
    let pairs: Vec<(f64, f64)> = measured
        .reads
        .replies
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Estimate {
                sel,
                degraded: false,
                ..
            } => Some((sel, pool_truth[r.idx as usize])),
            _ => None,
        })
        .collect();
    let qerr = accuracy(&pairs).0;
    println!(
        "# feedback-mixed: {} acks, ack p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, {:.1} acks/s; {} reads, p50 {:.4} ms, p99 {:.3} ms; {} models served",
        ack_lat.len(),
        p50,
        tail,
        ack_p99,
        acks_per_s,
        read_lat.len(),
        read_p50,
        read_tail,
        server.sink.served.lock().expect("served-model log").len()
    );

    let mut m = Metrics::default();
    let mut traced_phase = None;
    let mut tracer = None;
    if args.trace {
        let t = Tracer::start();
        let next = first_feedback + measured.acks.replies.len();
        traced_phase = Some(phase(
            &server,
            &feedback,
            next,
            &read_prefixes,
            Stop::At(Instant::now() + Duration::from_secs(args.seconds)),
            true,
        ));
        tracer = Some(t);
    }
    if let Some(tp) = &traced_phase {
        lsns.extend(ack_lsns(&tp.acks, &mut tally));
    }

    // ---- unloaded read round trip (traced run), then stop ----
    let unloaded = args
        .trace
        .then(|| serving::unloaded_rtt(&server.handle, &read_prefixes));
    let degraded = server.handle.stats().degraded();
    server.handle.shutdown();

    // ---- checks: reads against every served model, acks durable ----
    let served: Vec<SharedEstimator> = server.sink.served.lock().expect("served-model log").clone();
    let models: Vec<&(dyn SelectivityEstimator + Sync)> = served
        .iter()
        .map(|m| {
            let r: &(dyn SelectivityEstimator + Sync) = &**m;
            r
        })
        .collect();
    let root = inputs::root();
    let mut parts: Vec<(&[Range], &[Reply])> =
        vec![(&pool, &warm.replies), (&pool, &measured.reads.replies)];
    if let Some(tp) = &traced_phase {
        parts.push((&pool, &tp.reads.replies));
    }
    tally.add(check::check_estimates(
        &root,
        &parts,
        &[serving::first_range()],
        &models,
    ));
    lsns.sort_unstable();
    let gapless = lsns
        .iter()
        .enumerate()
        .all(|(i, &lsn)| lsn == image_last_lsn + 1 + i as u64);
    if !gapless {
        eprintln!("ack LSNs are not gapless after {image_last_lsn}");
        tally.wrong += 1;
        tally.failed += 1;
    }
    drop(server.sink);
    let reopened = ModelStore::open(&live_dir, inputs::store_config()).expect("store reopens");
    let max_acked = lsns.last().copied().unwrap_or(image_last_lsn);
    if reopened.last_lsn() < max_acked {
        eprintln!(
            "reopened store ends at LSN {} but LSN {max_acked} was acked",
            reopened.last_lsn()
        );
        tally.wrong += 1;
        tally.failed += 1;
    }
    drop(reopened);

    let holdout: Vec<Range> = labelled(
        &ds,
        QueryType::Rect,
        check::HOLDOUT,
        &mut inputs::rng(args.seed, 6),
    )
    .into_iter()
    .map(|q| q.range)
    .collect();
    let last_served: &dyn SelectivityEstimator = &**served.last().expect("a served model");
    let rmse = check::holdout_rmse(last_served, &holdout, &inputs::truth(&ds, &holdout));
    if !args.trace {
        m.put("setup_s", setup_s, "s");
        m.put("p50_ms", p50, "ms");
        m.put("tail_ms", tail, "ms");
        m.put("throughput_per_s", acks_per_s, "1/s");
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put("served_qerror_p50", qerr, "ratio");
        return Run { tally, metrics: m };
    }

    // ---- traced run: layer probes ----
    let tracer = tracer.expect("tracer");
    let tp = traced_phase.expect("traced phase");
    let mut traced_lat = tp.acks.latencies_ms();
    let traced_p50 = quantile(&mut traced_lat, 0.5);
    for (conn, d) in [&tp.acks, &tp.reads].into_iter().enumerate() {
        for &(seq, sent, received) in &d.sampled {
            let name = if conn == 0 {
                "client.feedback"
            } else {
                "client.read"
            };
            tracer.record(name, 0, ((conn as u64) << 48) | seq, sent, received);
        }
    }
    let depths: Vec<f64> = [&tp.acks, &tp.reads]
        .iter()
        .flat_map(|d| d.queue_depths.iter().map(|&x| x as f64))
        .collect();
    let events = tracer.take_events();
    let probes = serving::serve_probes(&tracer, &pool, last_served, None);
    let store = store_probes(&tracer, &work, &image, &feedback[first_feedback..]);
    let (rtt_ms, replay_hits) = unloaded.expect("unloaded replay ran");
    let hits = tp
        .reads
        .replies
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Estimate { cached: true, .. }))
        .count();
    let layers = serving::ServeLayers {
        rtt_ms,
        replay_hits,
        depth_mean: serving::mean(&depths),
        degraded,
        read_p50_ms: read_p50,
        read_tail_ms: read_tail,
        hit_ratio: hits as f64 / tp.reads.replies.len().max(1) as f64,
        stage_sum_us: probes.parse_us + probes.key_us + probes.probe_us + probes.render_us,
    };
    serving::put_serve_layers(&mut m, &layers, &probes);
    m.put("store.wal.append_us", store.append_us, "us");
    m.put("store.wal.fsync_us", store.fsync_us, "us");
    m.put("core.online.observe_us", store.observe_us, "us");
    m.put("core.online.refit_ms", store.refit_ms, "ms");
    m.put("solver.iters", store.iters as f64, "count");
    m.put("solver.converged", store.converged as f64, "count");
    m.put("store.checkpoint_ms", store.checkpoint_ms, "ms");
    m.put("serve.feedback.swap_ms", store.swap_ms, "ms");
    m.put("store.recovery_ms", store.recovery_ms, "ms");
    m.put("store.replayed_records", store.replayed as f64, "count");
    m.put("quality.model_rmse", rmse, "selectivity");
    crate::put_overhead(&mut m, p50, traced_p50);
    crate::finish_trace(tracer, args, &events);
    Run { tally, metrics: m }
}

struct StoreProbes {
    append_us: f64,
    fsync_us: f64,
    observe_us: f64,
    refit_ms: f64,
    iters: usize,
    converged: usize,
    checkpoint_ms: f64,
    swap_ms: f64,
    recovery_ms: f64,
    replayed: u64,
}

/// Per-call costs of the store and online-model layers, each on a fresh
/// copy of the seeded image.
fn store_probes(
    tracer: &Tracer,
    work: &Path,
    image: &Path,
    records: &[TrainingQuery],
) -> StoreProbes {
    let suite = tracer.record("probe.store", 0, 0, Instant::now(), Instant::now());
    let probe_dir = work.join("probe-store");

    // Recovery: open a fresh copy of the image (the copy is not timed).
    let mut recovery = Vec::new();
    let mut replayed = 0;
    let mut store = None;
    for _ in 0..3 {
        inputs::copy_dir(image, &probe_dir);
        let t0 = Instant::now();
        let s = tracer.span("store::ModelStore::open", suite, || {
            ModelStore::open(&probe_dir, inputs::store_config()).expect("probe store recovers")
        });
        recovery.push(t0.elapsed().as_secs_f64() * 1e3);
        replayed = s.recovery().replayed_records;
        store = Some(s);
    }
    let recovery_ms = quantile(&mut recovery, 0.5);
    let mut store = store.expect("a recovered store");

    // WAL: appends without sync, and the sync on its own.
    let wal_dir = work.join("probe-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("wal probe dir");
    let scan = wal::scan_wal(&StdVfs, &wal_dir).expect("empty wal scans");
    let mut writer = WalWriter::open(Arc::new(StdVfs), &wal_dir, &scan, 1, 1 << 20, false)
        .expect("wal writer opens");
    let mut appends = Vec::new();
    let mut syncs = Vec::new();
    tracer.span("store::wal", suite, || {
        for q in records.iter().take(256) {
            let t0 = Instant::now();
            writer.append(q).expect("wal append");
            let t1 = Instant::now();
            writer.sync().expect("wal sync");
            appends.push((t1 - t0).as_secs_f64() * 1e6);
            syncs.push(t1.elapsed().as_secs_f64() * 1e6);
        }
    });
    let append_us = quantile(&mut appends, 0.5);
    let fsync_us = quantile(&mut syncs, 0.5);
    drop(writer);

    // Online model: observes that do not refit, then explicit refits.
    let mut online = store.model().clone();
    let refit_every = online.refit_every();
    let since = online.snapshot().observed_since_refit;
    let mut observes = Vec::new();
    tracer.span("core::online::observe", suite, || {
        for q in records.iter().take(refit_every - 1 - since % refit_every) {
            let t0 = Instant::now();
            online.observe(q.clone()).expect("observe");
            observes.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    });
    let observe_us = quantile(&mut observes, 0.5);
    let mut first_refit = Vec::new();
    let refit_ms = tracer.span("core::online::refit", suite, || {
        median_ms(3, || {
            let before = tracer.pending_events();
            online.refit().expect("refit");
            if first_refit.is_empty() {
                first_refit = trace::solver_reports(&tracer.events_since(before));
            }
        })
    });
    let (iters, converged) = first_refit.iter().fold((0, 0), |(i, c), &(it, conv)| {
        (i + it, c + usize::from(conv))
    });

    let checkpoint_ms = tracer.span("store::ModelStore::checkpoint", suite, || {
        median_ms(3, || {
            store.checkpoint().expect("checkpoint");
        })
    });
    let registry = ModelRegistry::new();
    registry.register(
        DEFAULT_MODEL,
        Arc::new(store.model().clone()),
        inputs::root(),
    );
    let swap_ms = tracer.span("serve::feedback::swap", suite, || {
        median_ms(3, || {
            let batch = store.model().clone().freeze().expect("freeze");
            registry.swap(DEFAULT_MODEL, Arc::new(batch.freeze()));
        })
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&probe_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    StoreProbes {
        append_us,
        fsync_us,
        observe_us,
        refit_ms,
        iters,
        converged,
        checkpoint_ms,
        swap_ms,
        recovery_ms,
        replayed,
    }
}
