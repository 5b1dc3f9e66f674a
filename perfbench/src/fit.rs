//! `fit`: offline, single-threaded training. One op fits QuadHist (4x
//! bucket rule) and PtsHist on one labelled training set, then runs
//! freeze → `save_quadhist` → `load_frozen`.

use crate::check::accuracy;
use crate::inputs::{self, labelled};
use crate::serving::persist_probes;
use crate::stats::{median_and_tail, quantile, Metrics, Tally};
use crate::trace::{self, Tracer};
use crate::{Args, Run};
use selearn_core::{
    load_frozen, save_quadhist, FrozenEstimator, PtsHist, PtsHistConfig, QuadHist, QuadHistConfig,
    SelectivityEstimator, TrainingQuery,
};
use selearn_data::QueryType;
use selearn_geom::Range;
use std::time::{Duration, Instant};

/// Training queries per fit; QuadHist gets 4x as many buckets and
/// PtsHist 4x as many points.
pub const TRAIN: usize = 128;
/// Distinct training sets the ops cycle through.
pub const SETS: usize = 8;
/// Labelled holdout queries.
pub const HOLDOUT: usize = 4000;
/// Set-ups timed per run (each in a fresh process that also runs one fit
/// op for its peak RSS).
const SETUPS: usize = 11;

/// Wall time of one op's parts, in ms.
struct OpTimes {
    total: f64,
    quadhist: f64,
    ptshist: f64,
}

/// One fit op. Returns the in-process frozen model, the artifact
/// restored from its dump, the dump, and the op's timings.
fn fit_op(set: &[TrainingQuery]) -> (FrozenEstimator, FrozenEstimator, Vec<u8>, OpTimes) {
    let t0 = Instant::now();
    let quad = QuadHist::fit_with_bucket_target(
        inputs::root(),
        set,
        4 * set.len(),
        &QuadHistConfig::default(),
    )
    .expect("quadhist fits");
    let t1 = Instant::now();
    let pts = PtsHist::fit(
        inputs::root(),
        set,
        &PtsHistConfig::with_model_size(4 * set.len()),
    )
    .expect("ptshist fits");
    let t2 = Instant::now();
    let frozen = quad.freeze();
    let mut dump = Vec::new();
    save_quadhist(&quad, &mut dump).expect("quadhist saves");
    let loaded = load_frozen(&dump[..]).expect("dump restores");
    let t3 = Instant::now();
    std::hint::black_box(&pts);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    (
        frozen,
        loaded,
        dump,
        OpTimes {
            total: ms(t0, t3),
            quadhist: ms(t0, t1),
            ptshist: ms(t1, t2),
        },
    )
}

/// Ops until `until` (at least one per training set). Each restored
/// artifact is checked bitwise against the in-process freeze on the
/// holdout; the first op on each set also scores holdout accuracy.
fn ops(
    sets: &[Vec<TrainingQuery>],
    holdout: &[Range],
    truth: &[f64],
    until: Instant,
    tally: &mut Tally,
    accuracy_per_set: &mut Vec<(f64, f64)>,
) -> (Vec<OpTimes>, f64) {
    let mut times = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i < SETS || Instant::now() < until {
        let (frozen, loaded, _, t) = fit_op(&sets[i % SETS]);
        times.push(t);
        tally.attempted += 1;
        let answers: Vec<f64> = holdout.iter().map(|r| loaded.estimate(r)).collect();
        let same = holdout
            .iter()
            .zip(&answers)
            .all(|(r, a)| frozen.estimate(r).to_bits() == a.to_bits());
        if !same {
            eprintln!("fit op {i}: load_frozen(save(model)) differs from model.freeze()");
            tally.failed += 1;
            tally.wrong += 1;
        }
        if accuracy_per_set.len() < SETS && i < SETS {
            let pairs: Vec<(f64, f64)> =
                answers.iter().copied().zip(truth.iter().copied()).collect();
            accuracy_per_set.push(accuracy(&pairs));
        }
        i += 1;
    }
    (times, started.elapsed().as_secs_f64())
}

/// Set-up child: restore the fitted artifact at `path` and answer one
/// query (timed), then run one fit op on the first training set so the
/// child's peak RSS covers a fit.
pub fn setup_probe(args: &Args, path: &std::path::Path) -> f64 {
    let t0 = Instant::now();
    let file = std::fs::File::open(path).expect("artifact readable");
    let model = load_frozen(std::io::BufReader::new(file)).expect("artifact restores");
    std::hint::black_box(model.estimate(&crate::serving::first_range()));
    let secs = t0.elapsed().as_secs_f64();
    let ds = inputs::dataset(args.seed);
    let set = labelled(&ds, QueryType::Rect, TRAIN, &mut inputs::rng(args.seed, 10));
    std::hint::black_box(fit_op(&set));
    secs
}

pub fn run(args: &Args) -> Run {
    // ---- inputs (untimed) ----
    let ds = inputs::dataset(args.seed);
    let sets: Vec<Vec<TrainingQuery>> = (0..SETS as u64)
        .map(|k| {
            labelled(
                &ds,
                QueryType::Rect,
                TRAIN,
                &mut inputs::rng(args.seed, 10 + k),
            )
        })
        .collect();
    let holdout: Vec<Range> = labelled(
        &ds,
        QueryType::Rect,
        HOLDOUT,
        &mut inputs::rng(args.seed, 9),
    )
    .into_iter()
    .map(|q| q.range)
    .collect();
    let truth = inputs::truth(&ds, &holdout);
    let (_, _, reference_dump, _) = fit_op(&sets[0]);
    let work = crate::work_dir(args);
    std::fs::create_dir_all(&work).expect("work dir");
    let artifact = work.join("artifact.sel");
    std::fs::write(&artifact, &reference_dump).expect("artifact written");

    // ---- set-up (timed, in fresh processes) ----
    let (setup_s, peak_rss_mb) = crate::setup::in_children(args, SETUPS, |_| artifact.clone());

    // ---- measured ops ----
    let mut tally = Tally::default();
    let mut acc = Vec::new();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let (times, secs) = ops(&sets, &holdout, &truth, until, &mut tally, &mut acc);
    let mut lat: Vec<f64> = times.iter().map(|t| t.total).collect();
    let (p50, tail, tail_q) = median_and_tail(&mut lat);
    let throughput = times.len() as f64 / secs;
    let qerr = acc.iter().map(|a| a.0).sum::<f64>() / acc.len() as f64;
    let rmse = acc.iter().map(|a| a.1).sum::<f64>() / acc.len() as f64;
    println!(
        "# fit: {} ops, p50 {:.2} ms, tail p{:.1} {:.2} ms, {:.2} ops/s, holdout q-error p50 {:.4}, rmse {:.5}",
        times.len(),
        p50,
        tail_q * 100.0,
        tail,
        throughput,
        qerr,
        rmse
    );

    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", setup_s, "s");
        m.put("p50_ms", p50, "ms");
        m.put("tail_ms", tail, "ms");
        m.put("throughput_per_s", throughput, "1/s");
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put("served_qerror_p50", qerr, "ratio");
        return Run { tally, metrics: m };
    }

    // ---- traced run: the same ops with the program's obs on ----
    let tracer = Tracer::start();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let mut traced_times = Vec::new();
    let mut i = 0;
    while i < SETS || Instant::now() < until {
        let start = Instant::now();
        let (_, _, _, t) = fit_op(&sets[i % SETS]);
        tracer.record("fit.op", 0, i as u64 + 1, start, Instant::now());
        traced_times.push(t);
        i += 1;
    }
    let mut traced_lat: Vec<f64> = traced_times.iter().map(|t| t.total).collect();
    let traced_p50 = quantile(&mut traced_lat, 0.5);
    let design_ns: u64 = selearn_obs::span::timing_snapshot()
        .iter()
        .filter(|(path, _)| path.ends_with("design_buckets"))
        .map(|(_, s)| s.total_ns)
        .sum();
    let design_ms = design_ns as f64 / 1e6 / traced_times.len() as f64;
    let mut events = tracer.take_events();

    // Exact counts of one op on the first training set.
    let suite = tracer.record("probe.fit", 0, 0, Instant::now(), Instant::now());
    let entries0 = selearn_obs::counter_get("design_matrix_entries");
    let (_, _, dump, _) = tracer.span("fit.op(set 0)", suite, || fit_op(&sets[0]));
    let entries = selearn_obs::counter_get("design_matrix_entries") - entries0;
    let op_events = tracer.take_events();
    let reports = trace::solver_reports(&op_events);
    events.extend(op_events);
    let (save_ms, load_frozen_ms, load_tree_ms) = persist_probes(&tracer, suite, &dump);

    let mut quad: Vec<f64> = traced_times.iter().map(|t| t.quadhist).collect();
    let mut pts: Vec<f64> = traced_times.iter().map(|t| t.ptshist).collect();
    m.put("core.quadhist.design_ms", design_ms, "ms");
    m.put("core.quadhist.fit_ms", quantile(&mut quad, 0.5), "ms");
    m.put("core.ptshist.fit_ms", quantile(&mut pts, 0.5), "ms");
    m.put("core.assemble.entries", entries as f64, "count");
    m.put(
        "solver.iters",
        reports.iter().map(|r| r.0).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "solver.converged",
        reports.iter().filter(|r| r.1).count() as f64,
        "count",
    );
    m.put("core.persist.save_ms", save_ms, "ms");
    m.put("core.persist.load_frozen_ms", load_frozen_ms, "ms");
    m.put("core.persist.load_tree_ms", load_tree_ms, "ms");
    m.put("quality.model_rmse", rmse, "selectivity");
    crate::put_overhead(&mut m, p50, traced_p50);
    crate::finish_trace(tracer, args, &events);
    Run { tally, metrics: m }
}
