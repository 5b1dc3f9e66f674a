//! `estimate-hot` and `estimate-cold`: a windowed closed loop over two
//! connections against an in-process server restored from a persisted
//! QuadHist (the `selearn-serve --model` restart path).

use crate::check::{self, accuracy};
use crate::inputs::{self, draw_mixed, labelled, request_line, shape_of};
use crate::load::{drive, id_prefix, windowed, with_id, Drive, Outcome, Reply, Stop, Window};
use crate::stats::{quantile, Metrics};
use crate::trace::{self, per_call_us, Tracer};
use crate::{Args, Run};
use rand::rngs::StdRng;
use selearn_core::{
    load_frozen, load_quadhist, save_quadhist, SelectivityEstimator, SharedEstimator,
};
use selearn_data::{Dataset, QueryType};
use selearn_geom::Range;
use selearn_serve::{
    parse_line, start, CacheKey, EstimateCache, ModelRegistry, Response, ServerConfig,
    ServerHandle, DEFAULT_MODEL,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections, and requests each keeps in flight.
pub const CONNECTIONS: usize = 2;
pub const WINDOW: usize = 16;
/// Length of the time windows a measured phase is cut into; latency and
/// throughput figures are medians over them.
pub const WINDOW_S: f64 = 0.5;
/// The latency percentile `tail_ms` reports. p99 of a sub-millisecond
/// round trip on a shared 2-vCPU host moves by 2x from window to window
/// with the host's scheduling; p90 still shows queueing and slow shapes.
pub const TAIL_Q: f64 = 0.90;
/// Rects in the hot pool: well inside the default 4096-entry tenant cache.
pub const HOT_POOL: usize = 1024;
/// Cold requests labelled (after the run) for the accuracy figures.
pub const COLD_LABELLED: usize = 4096;

/// How requests are chosen.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Cycle a fixed pool of rects: almost every answer is a cache hit.
    Hot,
    /// Fresh mixed shapes: the kernel answers, except where a shape's
    /// quantized cache key matches an earlier one.
    Cold,
}

/// Set-ups timed per run, each in a fresh process (see `setup.rs`).
/// `load_frozen` in a fresh process takes 2.8 to 7 ms from one child to
/// the next on the reference machine, so a run takes many.
const SETUPS: usize = 31;

/// Server defaults, except two workers instead of four: one per vCPU of
/// the reference machine, so that the poller, the workers and the two
/// load threads do not queue for the CPUs behind idle-woken workers.
pub fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// Restores the model from its dump and starts a server on it.
fn start_from_dump(dump: &[u8], config: &ServerConfig) -> ServerHandle {
    let model: SharedEstimator = Arc::new(load_frozen(dump).expect("dump restores"));
    let registry = Arc::new(ModelRegistry::new());
    registry.register(DEFAULT_MODEL, model, inputs::root());
    start(config.clone(), registry).expect("server starts")
}

/// The query every server start answers first.
pub fn first_range() -> Range {
    selearn_geom::Rect::new(vec![0.1, 0.1], vec![0.6, 0.6]).into()
}

/// The request line of [`first_range`].
pub fn first_line() -> String {
    request_line(&shape_of(&first_range()), 1)
}

/// Set-up child: restore the dump at `path` (the `selearn-serve --model`
/// path), start the server and get the first answer. Returns seconds.
pub fn setup_probe(path: &std::path::Path) -> f64 {
    let t0 = Instant::now();
    let bytes = std::fs::read(path).expect("model dump readable");
    let handle = start_from_dump(&bytes, &config());
    first_answer(&handle, &first_line());
    let secs = t0.elapsed().as_secs_f64();
    handle.shutdown();
    secs
}

/// Sends one line on a fresh connection and waits for its answer.
pub fn first_answer(handle: &ServerHandle, line: &str) {
    let mut client =
        selearn_serve::Client::connect(&handle.addr().to_string()).expect("first connection");
    client.send_line(line).expect("first request");
    match client.recv().expect("first answer") {
        Response::Estimate { degraded: None, .. } => {}
        other => panic!("first answer failed: {other:?}"),
    }
}

/// A request source for one connection: the hot pool, or a seeded
/// stream of fresh shapes that records what it sent.
struct Source {
    mode: Mode,
    conn: usize,
    pool_prefixes: Arc<Vec<String>>,
    rng: StdRng,
    sent: Vec<Range>,
}

/// The request line for `range` up to its id (see [`with_id`]).
pub fn prefix_of(range: &Range) -> String {
    id_prefix(
        &selearn_serve::Request {
            est: DEFAULT_MODEL.to_string(),
            shape: shape_of(range),
            id: None,
        }
        .to_json(),
    )
}

impl Source {
    fn next(&mut self, ds: &Dataset, seq: u64) -> (String, u32) {
        match self.mode {
            Mode::Hot => {
                let n = self.pool_prefixes.len();
                // Each connection walks the pool from its own offset.
                let idx = (seq as usize + self.conn * n / 2) % n;
                (with_id(&self.pool_prefixes[idx], seq), idx as u32)
            }
            Mode::Cold => {
                let range = draw_mixed(ds, seq, &mut self.rng);
                let line = request_line(&shape_of(&range), seq);
                self.sent.push(range);
                (line, (self.sent.len() - 1) as u32)
            }
        }
    }
}

/// One measured phase over both connections.
struct Phase {
    drives: Vec<Drive>,
    sources: Vec<Source>,
    hits: u64,
    misses: u64,
}

#[allow(clippy::too_many_arguments)]
fn phase(
    handle: &ServerHandle,
    ds: &Dataset,
    mode: Mode,
    pool_prefixes: &Arc<Vec<String>>,
    seed: u64,
    stream: u64,
    stop: Stop,
    traced: bool,
) -> Phase {
    let addr = handle.addr().to_string();
    let probe = handle.queue_probe();
    let probe_ref: &(dyn Fn() -> (usize, usize) + Sync) = &*probe;
    let (hits0, misses0) = (handle.cache().hits(), handle.cache().misses());
    let results: Vec<(Drive, Source)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let addr = addr.clone();
                let mut source = Source {
                    mode,
                    conn,
                    pool_prefixes: Arc::clone(pool_prefixes),
                    rng: inputs::rng(seed, stream + conn as u64),
                    sent: Vec::new(),
                };
                s.spawn(move || {
                    let d = drive(
                        &addr,
                        Window::Sliding(WINDOW),
                        stop,
                        None,
                        |seq| source.next(ds, seq),
                        traced.then_some(probe_ref),
                    )
                    .expect("load connection");
                    (d, source)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread"))
            .collect()
    });
    let (drives, sources) = results.into_iter().unzip();
    Phase {
        drives,
        sources,
        hits: handle.cache().hits() - hits0,
        misses: handle.cache().misses() - misses0,
    }
}

impl Phase {
    /// Request tables paired with their replies, for the checks.
    fn parts<'a>(&'a self, pool: &'a [Range]) -> Vec<(&'a [Range], &'a [Reply])> {
        self.drives
            .iter()
            .zip(&self.sources)
            .map(|(d, src)| {
                let table = if src.mode == Mode::Hot {
                    pool
                } else {
                    &src.sent[..]
                };
                (table, &d.replies[..])
            })
            .collect()
    }
}

/// Runs `estimate-hot` or `estimate-cold`.
pub fn run(args: &Args, mode: Mode) -> Run {
    // ---- inputs (untimed) ----
    let ds = inputs::dataset(args.seed);
    let (tree_model, dump) = inputs::serving_model(&ds, args.seed);
    let reference = tree_model.freeze();
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
    let pool_prefixes: Arc<Vec<String>> = Arc::new(pool.iter().map(prefix_of).collect());
    let work = crate::work_dir(args);
    std::fs::create_dir_all(&work).expect("work dir");
    let dump_path = work.join("model.sel");
    std::fs::write(&dump_path, &dump).expect("model dump written");

    // ---- set-up (timed, in fresh processes) ----
    let (setup_s, peak_rss_mb) = crate::setup::in_children(args, SETUPS, |_| dump_path.clone());
    let handle = start_from_dump(&dump, &config());
    first_answer(&handle, &first_line());

    // ---- warm-up (untimed): fill the cache / settle the connections ----
    let warm = phase(
        &handle,
        &ds,
        mode,
        &pool_prefixes,
        args.seed,
        200,
        Stop::After(HOT_POOL as u64),
        false,
    );

    // ---- measured phase ----
    let measured = phase(
        &handle,
        &ds,
        mode,
        &pool_prefixes,
        args.seed,
        100,
        Stop::At(Instant::now() + Duration::from_secs(args.seconds)),
        false,
    );
    let (p50, tail, throughput) = windowed(&measured.drives, args.seconds as f64, WINDOW_S, TAIL_Q);
    let degraded = handle.stats().degraded();
    let errors = handle.stats().errors();

    // Accuracy of the served answers against dataset truth.
    let pairs: Vec<(f64, f64)> = match mode {
        Mode::Hot => measured
            .drives
            .iter()
            .flat_map(|d| d.replies.iter())
            .filter_map(|r| match r.outcome {
                Outcome::Estimate {
                    sel,
                    degraded: false,
                    ..
                } => Some((sel, pool_truth[r.idx as usize])),
                _ => None,
            })
            .collect(),
        Mode::Cold => {
            let src = &measured.sources[0];
            let n = src.sent.len().min(COLD_LABELLED);
            let truth = inputs::truth(&ds, &src.sent[..n]);
            measured.drives[0]
                .replies
                .iter()
                .filter(|r| (r.idx as usize) < n)
                .filter_map(|r| match r.outcome {
                    Outcome::Estimate {
                        sel,
                        degraded: false,
                        ..
                    } => Some((sel, truth[r.idx as usize])),
                    _ => None,
                })
                .collect()
        }
    };
    let qerr = accuracy(&pairs).0;
    let holdout: Vec<Range> = labelled(
        &ds,
        QueryType::Mixed,
        check::HOLDOUT,
        &mut inputs::rng(args.seed, 5),
    )
    .into_iter()
    .map(|q| q.range)
    .collect();
    let rmse = check::holdout_rmse(&reference, &holdout, &inputs::truth(&ds, &holdout));
    println!(
        "# {}: {} requests; median over {WINDOW_S} s windows: p50 {:.4} ms, p90 {:.4} ms, {:.0}/s; cache hits {} misses {}, degraded {degraded}, errors {errors}",
        args.workload,
        measured.drives.iter().map(|d| d.replies.len()).sum::<usize>(),
        p50,
        tail,
        throughput,
        measured.hits,
        measured.misses
    );

    let mut m = Metrics::default();
    let models: [&(dyn SelectivityEstimator + Sync); 1] = [&reference];
    let extra = [first_range()];
    if !args.trace {
        let mut parts = warm.parts(&pool);
        parts.extend(measured.parts(&pool));
        let tally = check::check_estimates(&inputs::root(), &parts, &extra, &models);
        m.put("setup_s", setup_s, "s");
        m.put("p50_ms", p50, "ms");
        m.put("tail_ms", tail, "ms");
        m.put("throughput_per_s", throughput, "1/s");
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put("served_qerror_p50", qerr, "ratio");
        handle.shutdown();
        return Run { tally, metrics: m };
    }

    // ---- traced run: the same phase with tracing on, then layer probes ----
    let tracer = Tracer::start();
    let traced = phase(
        &handle,
        &ds,
        mode,
        &pool_prefixes,
        args.seed,
        300,
        Stop::At(Instant::now() + Duration::from_secs(args.seconds)),
        true,
    );
    let traced_p50 = windowed(&traced.drives, args.seconds as f64, WINDOW_S, TAIL_Q).0;
    let mut parts = warm.parts(&pool);
    parts.extend(measured.parts(&pool));
    parts.extend(traced.parts(&pool));
    let tally = check::check_estimates(&inputs::root(), &parts, &extra, &models);
    for (conn, d) in traced.drives.iter().enumerate() {
        for &(seq, sent, received) in &d.sampled {
            tracer.record(
                "client.request",
                0,
                ((conn as u64) << 48) | seq,
                sent,
                received,
            );
        }
    }
    let depths: Vec<f64> = traced
        .drives
        .iter()
        .flat_map(|d| d.queue_depths.iter().map(|&x| x as f64))
        .collect();
    let events = tracer.take_events();

    // Layer probes on this workload's own requests.
    let sample: Vec<Range> = match mode {
        Mode::Hot => pool.clone(),
        Mode::Cold => traced.sources[0]
            .sent
            .iter()
            .take(HOT_POOL)
            .cloned()
            .collect(),
    };
    let probes = serve_probes(&tracer, &sample, &reference, Some(&dump));
    // Unloaded round trip: one request in flight, over the hot pool (all
    // hits) or over fresh shapes (all misses).
    let (rtt_ms, replay_hits) = match mode {
        Mode::Hot => unloaded_rtt(&handle, &pool_prefixes),
        Mode::Cold => {
            let mut rng = inputs::rng(args.seed, 400);
            let fresh: Vec<String> = (0..HOT_POOL as u64)
                .map(|i| prefix_of(&draw_mixed(&ds, i, &mut rng)))
                .collect();
            unloaded_rtt(&handle, &fresh)
        }
    };
    let mut stage_sum_us = probes.parse_us + probes.key_us + probes.probe_us + probes.render_us;
    if mode == Mode::Cold {
        stage_sum_us += probes.kernel_mixed_us + probes.insert_us;
    }
    let layers = ServeLayers {
        rtt_ms,
        replay_hits,
        depth_mean: mean(&depths),
        degraded: handle.stats().degraded(),
        read_p50_ms: p50,
        read_tail_ms: tail,
        hit_ratio: measured.hits as f64 / (measured.hits + measured.misses).max(1) as f64,
        stage_sum_us,
    };
    put_serve_layers(&mut m, &layers, &probes);
    m.put("quality.model_rmse", rmse, "selectivity");
    crate::put_overhead(&mut m, p50, traced_p50);
    handle.shutdown();
    crate::finish_trace(tracer, args, &events);
    Run { tally, metrics: m }
}

/// Sequential replay of a request pool with one request in flight: the
/// unloaded round-trip median in ms, and the cache hits it scored.
pub fn unloaded_rtt(handle: &ServerHandle, prefixes: &[String]) -> (f64, u64) {
    let hits0 = handle.cache().hits();
    let d = drive(
        &handle.addr().to_string(),
        Window::Sliding(1),
        Stop::After(prefixes.len() as u64),
        None,
        |seq| (with_id(&prefixes[seq as usize], seq), seq as u32),
        None,
    )
    .expect("unloaded replay");
    let mut lat = d.latencies_ms();
    (quantile(&mut lat, 0.5), handle.cache().hits() - hits0)
}

/// Traced-run figures of the serving layers, shared by every workload
/// that serves.
pub struct ServeLayers {
    pub rtt_ms: f64,
    pub replay_hits: u64,
    pub depth_mean: f64,
    pub degraded: u64,
    pub read_p50_ms: f64,
    pub read_tail_ms: f64,
    pub hit_ratio: f64,
    /// Stage sum the handoff is the remainder of (µs).
    pub stage_sum_us: f64,
}

pub fn put_serve_layers(m: &mut Metrics, l: &ServeLayers, p: &ServeProbes) {
    m.put("serve.handoff_us", l.rtt_ms * 1e3 - l.stage_sum_us, "us");
    m.put("serve.queue.depth_mean", l.depth_mean, "requests");
    m.put("serve.degraded", l.degraded as f64, "count");
    m.put("serve.read_p50_ms", l.read_p50_ms, "ms");
    m.put("serve.read_tail_ms", l.read_tail_ms, "ms");
    m.put("serve.protocol.parse_us", p.parse_us, "us");
    m.put("serve.protocol.render_us", p.render_us, "us");
    m.put("serve.cache.hit_ratio", l.hit_ratio, "ratio");
    m.put("serve.cache.replay_hits", l.replay_hits as f64, "count");
    m.put("serve.cache.probe_us", p.probe_us, "us");
    m.put("serve.cache.insert_us", p.insert_us, "us");
    m.put("core.quantize.key_us", p.key_us, "us");
    m.put("core.frozen.rect_us", p.rect_us, "us");
    m.put("core.frozen.generic_us", p.generic_us, "us");
    m.put("geom.mc_samples_per_est", p.mc_per_est, "count");
    m.put("core.persist.save_ms", p.save_ms, "ms");
    m.put("core.persist.load_frozen_ms", p.load_frozen_ms, "ms");
    m.put("core.persist.load_tree_ms", p.load_tree_ms, "ms");
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Per-call costs of the serving layers, measured on `sample`.
pub struct ServeProbes {
    pub parse_us: f64,
    pub render_us: f64,
    pub key_us: f64,
    pub probe_us: f64,
    pub insert_us: f64,
    pub rect_us: f64,
    pub generic_us: f64,
    /// Kernel cost of this sample's shape mix.
    pub kernel_mixed_us: f64,
    pub mc_per_est: f64,
    pub save_ms: f64,
    pub load_frozen_ms: f64,
    pub load_tree_ms: f64,
}

pub fn serve_probes(
    tracer: &Tracer,
    sample: &[Range],
    model: &dyn SelectivityEstimator,
    dump: Option<&[u8]>,
) -> ServeProbes {
    let root = inputs::root();
    let suite = tracer.record("probe.serve", 0, 0, Instant::now(), Instant::now());
    let lines: Vec<String> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| request_line(&shape_of(r), i as u64))
        .collect();
    let n = lines.len();
    let parse_us = tracer.span("serve::protocol::parse_line", suite, || {
        per_call_us(4 * n, 32, |i| {
            std::hint::black_box(parse_line(std::hint::black_box(&lines[i % n])).is_ok());
        })
    });
    let responses: Vec<Response> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| Response::Estimate {
            id: Some(i as u64),
            est: model.name().to_string(),
            sel: model.estimate(r),
            us: 12.5 + i as f64,
            degraded: None,
            cached: i % 2 == 0,
        })
        .collect();
    let render_us = tracer.span("serve::protocol::Response::to_json", suite, || {
        per_call_us(4 * n, 32, |i| {
            std::hint::black_box(responses[i % n].to_json());
        })
    });
    let key_us = tracer.span("core::quantize", suite, || {
        per_call_us(4 * n, 32, |i| {
            std::hint::black_box(check::cache_key(
                &root,
                std::hint::black_box(&sample[i % n]),
            ));
        })
    });
    let keys: Vec<CacheKey> = sample
        .iter()
        .map(|r| {
            let (shape, cells) = check::cache_key(&root, r).unwrap_or((0, Vec::new()));
            CacheKey {
                model: 0,
                generation: 0,
                shape,
                cells,
            }
        })
        .collect();
    let cache = EstimateCache::new(4096, 8);
    let insert_us = tracer.span("serve::cache::insert", suite, || {
        per_call_us(n, 32, |i| cache.insert(0, &keys[i], i as f64))
    });
    let probe_us = tracer.span("serve::cache::get", suite, || {
        per_call_us(4 * n, 32, |i| {
            std::hint::black_box(cache.get(0, &keys[i % n]));
        })
    });
    // Kernel cost per shape family, over this workload's own shapes; a
    // family the workload never sends reads 0.
    let (rects, generic): (Vec<&Range>, Vec<&Range>) =
        sample.iter().partition(|r| matches!(r, Range::Rect(_)));
    let kernel_us = |name: &str, shapes: &[&Range]| {
        if shapes.is_empty() {
            return 0.0;
        }
        tracer.span(name, suite, || {
            per_call_us(2 * shapes.len(), 8, |i| {
                std::hint::black_box(model.estimate(shapes[i % shapes.len()]));
            })
        })
    };
    let rect_us = kernel_us("core::frozen::estimate(rect)", &rects);
    let mc0 = selearn_obs::counter_get("mc_samples_drawn");
    let generic_us = kernel_us("core::frozen::estimate(generic)", &generic);
    let mc_per_est = (selearn_obs::counter_get("mc_samples_drawn") - mc0) as f64
        / (2 * generic.len()).max(1) as f64;
    let kernel_mixed_us = per_call_us(2 * n, 8, |i| {
        std::hint::black_box(model.estimate(&sample[i % n]));
    });
    let (save_ms, load_frozen_ms, load_tree_ms) = match dump {
        Some(dump) => persist_probes(tracer, suite, dump),
        None => (0.0, 0.0, 0.0),
    };
    ServeProbes {
        parse_us,
        render_us,
        key_us,
        probe_us,
        insert_us,
        rect_us,
        generic_us,
        kernel_mixed_us,
        mc_per_est,
        save_ms,
        load_frozen_ms,
        load_tree_ms,
    }
}

/// Median ms of `save_quadhist`, `load_frozen` and `load_quadhist` on
/// a model dump.
pub fn persist_probes(tracer: &Tracer, parent: u64, dump: &[u8]) -> (f64, f64, f64) {
    let tree = load_quadhist(dump).expect("dump restores");
    let save_ms = tracer.span("core::persist::save_quadhist", parent, || {
        trace::median_ms(5, || {
            let mut out = Vec::with_capacity(dump.len());
            save_quadhist(&tree, &mut out).expect("save");
        })
    });
    let load_frozen_ms = tracer.span("core::persist::load_frozen", parent, || {
        trace::median_ms(5, || {
            std::hint::black_box(load_frozen(dump).expect("load_frozen"));
        })
    });
    let load_tree_ms = tracer.span("core::persist::load_quadhist", parent, || {
        trace::median_ms(5, || {
            std::hint::black_box(load_quadhist(dump).expect("load_quadhist"));
        })
    });
    (save_ms, load_frozen_ms, load_tree_ms)
}
