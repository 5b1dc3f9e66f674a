//! Experiment driver regenerating every table and figure of the paper's
//! evaluation (Section 4 + Appendix B) plus the theory checks of Section 2.
//!
//! Usage:
//! ```text
//! cargo run -p selearn-bench --release --bin experiments -- all [--quick]
//! cargo run -p selearn-bench --release --bin experiments -- fig9 table1 ...
//! cargo run -p selearn-bench --release --bin experiments -- accuracy --trace-out trace.jsonl
//! ```
//!
//! Each experiment writes `results/<id>.csv`, prints an aligned table,
//! and finishes with an observability report (span timing tree + counter
//! dump). `--trace-out <path>` additionally streams every structured
//! event — spans, counters, histograms, solver iterations and reports,
//! metrics summaries — as one JSON object per line. Progress logging is
//! leveled: `SELEARN_LOG=off|info|debug` (default `info`).
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record.

// The panic-free gate: unwrap/expect are banned outside test code.
#![deny(clippy::unwrap_used, clippy::expect_used)]
use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_bench::harness::{
    gen_workload, label_row, run_methods, AccuracyRow, ExperimentScale, Method,
};
use selearn_bench::table::{render_table, write_csv};
use selearn_core::{
    Objective, PtsHist, PtsHistConfig, QuadHist, QuadHistConfig, SelearnError,
    SelectivityEstimator, TrainingQuery,
};
use selearn_data::{
    census_like, dmv_like, forest_like, l_inf_error, power_like, rms_error, CenterDistribution,
    Dataset, QueryType, Workload, WorkloadSpec,
};
use selearn_geom::{Point, Range, RangeClass, Rect, VolumeEstimator};
use selearn_theory as theory;
use std::collections::BTreeSet;
use std::time::Instant;

const SEED: u64 = 0x5e1e_c7ed;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_flag_value(&mut args, "--trace-out");
    let rows_override = take_flag_value(&mut args, "--rows");
    let test_n_override = take_flag_value(&mut args, "--test-n");
    let train_sizes_override = take_flag_value(&mut args, "--train-sizes");
    let quick = args.iter().any(|a| a == "--quick");
    let mut scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };
    if let Some(v) = rows_override {
        scale.rows = parse_count("--rows", &v);
    }
    if let Some(v) = test_n_override {
        scale.test_n = parse_count("--test-n", &v);
    }
    if let Some(v) = train_sizes_override {
        let sizes: Vec<usize> = v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_count("--train-sizes", s))
            .collect();
        scale.train_sizes = Box::leak(sizes.into_boxed_slice());
    }
    // Reject degenerate scales here, before any experiment starts: an
    // empty `train_sizes` used to surface as an unwrap panic deep inside
    // fig9/fig13 instead of a readable configuration error.
    if let Err(e) = scale.validate() {
        eprintln!("invalid experiment configuration: {e}");
        std::process::exit(2);
    }
    let mut wanted: BTreeSet<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if wanted.is_empty() || wanted.contains("all") {
        wanted = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }

    // Aggregation (spans/counters/histograms) is on by default in the
    // driver: it feeds the per-experiment report and costs well under the
    // 5% overhead budget (DESIGN.md). `SELEARN_OBS=off` turns it off (the
    // CI overhead check A/Bs the two modes); --trace-out adds streaming.
    let stats_off = std::env::var("SELEARN_OBS").is_ok_and(|v| v == "off" || v == "0");
    selearn_obs::enable_stats(!stats_off);
    if let Some(path) = &trace_out {
        install_trace_sink(path);
    }

    let t0 = Instant::now();
    for id in &wanted {
        let start = Instant::now();
        selearn_obs::info!("== running {id} ==");
        let result: Result<(), SelearnError> = match id.as_str() {
            "fig7" => fig7(&scale),
            "fig9" => fig9(&scale),
            "fig10_12" => workload_sweep(
                "fig10_12",
                &scale,
                power2d(&scale),
                rect_spec(CenterDistribution::DataDriven),
                true,
            ),
            "fig13_14" => fig13_14(&scale),
            "fig15" => workload_sweep(
                "fig15",
                &scale,
                power2d(&scale),
                rect_spec(CenterDistribution::default_gaussian()),
                true,
            ),
            "fig16" => fig16(&scale),
            "fig17" => fig17(&scale),
            "fig18_19" => fig18_19(&scale),
            "fig20_21" => query_type_sweep("fig20_21", &scale, QueryType::Halfspace),
            "fig22_23" => query_type_sweep("fig22_23", &scale, QueryType::Ball),
            "fig24_29" => fig24_29(&scale),
            "table1" => table_qerror("table1", &scale, power2d(&scale), true),
            "table3" => table_qerror("table3", &scale, forest2d(&scale), true),
            "table4" => table_qerror("table4", &scale, dmv_proj(&scale), false),
            "table5" => table_qerror("table5", &scale, census_proj(&scale), false),
            "appendix_b" => appendix_b(&scale),
            "theory_vc" => theory_vc(),
            "theory_fat" => theory_fat(),
            "theory_bounds" => theory_bounds(),
            "ablation_solver" => ablation_solver(&scale),
            "ablation_ptshist_split" => ablation_ptshist_split(&scale),
            "ablation_quadhist_cap" => ablation_quadhist_cap(&scale),
            "ablation_volume" => ablation_volume(),
            "extension_models" => extension_models(&scale),
            "drift_adaptation" => drift_adaptation(&scale),
            "accuracy" => accuracy(&scale),
            "serve_export" => serve_export(&scale),
            other => {
                selearn_obs::info!("unknown experiment id: {other}");
                Ok(())
            }
        };
        if let Err(e) = result {
            eprintln!("experiment {id} failed: {e}");
            std::process::exit(1);
        }
        selearn_obs::info!("== {id} done in {:.1}s ==", start.elapsed().as_secs_f64());
        finish_experiment(id);
    }
    selearn_obs::info!("total: {:.1}s", t0.elapsed().as_secs_f64());
    selearn_obs::flush_sink();
}

/// Parses a numeric CLI flag value, exiting with a usage error otherwise.
/// Range validity (non-zero, non-empty sweep) is checked separately by
/// `ExperimentScale::validate`.
fn parse_count(flag: &str, value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("{flag} expects a non-negative integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// Removes `flag <value>` from `args`, returning the value when present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} requires a path argument");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn install_trace_sink(path: &str) {
    match selearn_obs::JsonlSink::create(std::path::Path::new(path)) {
        Ok(sink) => selearn_obs::set_sink(std::sync::Arc::new(sink)),
        Err(e) => {
            eprintln!("cannot open trace file {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Ends one experiment's observability scope: streams the aggregate
/// registries into the trace (if any), prints the text report, and clears
/// the registries so the next experiment starts from zero.
fn finish_experiment(id: &str) {
    selearn_obs::flush_aggregates();
    let report = selearn_obs::report::render();
    if !report.is_empty() {
        println!("\n--- {id}: observability ---");
        print!("{report}");
    }
    selearn_obs::reset();
}

const ALL_IDS: &[&str] = &[
    "fig7",
    "fig9",
    "fig10_12",
    "fig13_14",
    "fig15",
    "fig16",
    "fig17",
    "fig18_19",
    "fig20_21",
    "fig22_23",
    "fig24_29",
    "table1",
    "table3",
    "table4",
    "table5",
    "appendix_b",
    "theory_vc",
    "theory_fat",
    "theory_bounds",
    "ablation_solver",
    "ablation_ptshist_split",
    "ablation_quadhist_cap",
    "ablation_volume",
    "extension_models",
    "drift_adaptation",
    "accuracy",
    "serve_export",
];

// ---------- dataset + spec helpers ----------

fn power2d(scale: &ExperimentScale) -> Dataset {
    power_like(scale.rows, SEED).project(&[0, 2])
}

fn forest2d(scale: &ExperimentScale) -> Dataset {
    forest_like(scale.rows, SEED).project(&[0, 1])
}

fn forest_d(scale: &ExperimentScale, d: usize) -> Dataset {
    forest_like(scale.rows, SEED).project(&(0..d).collect::<Vec<_>>())
}

fn dmv_proj(scale: &ExperimentScale) -> Dataset {
    // 2 categorical + 1 numeric attribute, echoing the paper's random
    // projections of DMV (10 categorical + 1 numeric)
    dmv_like(scale.rows, SEED).project(&[1, 8, 10])
}

fn census_proj(scale: &ExperimentScale) -> Dataset {
    // 1 categorical + 2 numeric
    census_like(scale.rows, SEED).project(&[0, 8, 12])
}

fn rect_spec(center: CenterDistribution) -> WorkloadSpec {
    WorkloadSpec::new(QueryType::Rect, center)
}

fn to_training(w: &Workload) -> Vec<TrainingQuery> {
    w.queries()
        .iter()
        .map(|q| TrainingQuery {
            range: q.range.clone(),
            selectivity: q.selectivity,
        })
        .collect()
}

fn emit(id: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    write_csv(format!("results/{id}.csv"), header, rows)?;
    println!("\n--- {id} ---");
    println!("{}", render_table(header, rows));
    Ok(())
}

fn emit_accuracy(id: &str, rows: &[AccuracyRow]) -> std::io::Result<()> {
    let cells: Vec<Vec<String>> = rows.iter().map(AccuracyRow::cells).collect();
    emit(id, &label_row(), &cells)
}

// ---------- Section 4.1 ----------

/// Figure 9: RMS error vs model complexity, one curve per training size.
fn fig9(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let max_n = scale.train_sizes.iter().copied().max().unwrap_or(0);
    let all = gen_workload(&data, &spec, max_n + scale.test_n, SEED)?;
    let (pool, test) = all.split(max_n);
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let taus = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001];

    let mut rows = Vec::new();
    for &n in scale.train_sizes {
        let (train_w, _) = pool.split(n);
        let train = to_training(&train_w);
        for &tau in &taus {
            let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(tau))?;
            let est: Vec<f64> = test
                .queries()
                .iter()
                .map(|q| qh.estimate(&q.range))
                .collect();
            rows.push(vec![
                n.to_string(),
                format!("{tau}"),
                qh.num_buckets().to_string(),
                format!("{:.5}", rms_error(&est, &truth)),
            ]);
        }
    }
    emit("fig9", &["train_size", "tau", "buckets", "rms"], &rows)?;
    Ok(())
}

/// Shared driver for Figures 10–12 / 13 / 15 / 31–45: model complexity,
/// RMS error, and training time vs training size for the four methods.
fn workload_sweep(
    id: &str,
    scale: &ExperimentScale,
    data: Dataset,
    spec: WorkloadSpec,
    with_isomer: bool,
) -> Result<(), SelearnError> {
    let mut methods = vec![
        Method::QuadHist,
        Method::PtsHist,
        Method::QuickSel,
        Method::Uniform,
    ];
    if with_isomer {
        methods.push(Method::Isomer);
    }
    let rows = run_methods(&data, &spec, &methods, scale, SEED ^ hash(id))?;
    emit_accuracy(id, &rows)?;
    Ok(())
}

// ---------- Section 4.2 ----------

/// Figures 13/32 + Figure 14: Random workload, all queries and the
/// non-empty subset.
fn fig13_14(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::Random);
    workload_sweep("fig13", scale, data.clone(), spec.clone(), true)?;

    // Figure 14: evaluate on the non-empty test queries only.
    let max_n = scale.train_sizes.iter().copied().max().unwrap_or(0);
    let all = gen_workload(&data, &spec, max_n + 4 * scale.test_n, SEED ^ 0xf14)?;
    let (pool, test_all) = all.split(max_n);
    let test = test_all.filter_nonempty(0.0);
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let mut rows = Vec::new();
    for &n in scale.train_sizes {
        let (train_w, _) = pool.split(n);
        let train = to_training(&train_w);
        for m in [
            Method::QuadHist,
            Method::PtsHist,
            Method::QuickSel,
            Method::Isomer,
        ] {
            if m == Method::Isomer && n > scale.isomer_limit {
                continue;
            }
            let (model, ms) = m.fit(&Rect::unit(2), &train)?;
            let est: Vec<f64> = test
                .queries()
                .iter()
                .map(|q| model.estimate(&q.range))
                .collect();
            let q = selearn_data::q_error_quantiles(&est, &truth);
            rows.push(vec![
                m.name().to_string(),
                n.to_string(),
                test.len().to_string(),
                format!("{:.5}", rms_error(&est, &truth)),
                format!("{:.3}", q.p50),
                format!("{:.3}", q.p95),
                format!("{:.3}", q.p99),
                format!("{:.3}", q.max),
                format!("{ms:.1}"),
            ]);
        }
    }
    emit(
        "fig14_nonempty",
        &[
            "method",
            "train_size",
            "test_n",
            "rms",
            "q50",
            "q95",
            "q99",
            "qmax",
            "train_wall_ms",
        ],
        &rows,
    )?;
    Ok(())
}

/// Figure 7: dump the learned bucket structures for visual inspection.
fn fig7(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::Random);
    let w = gen_workload(&data, &spec, 1000, SEED ^ 0x7)?;
    let train = to_training(&w);

    // data sample
    let mut rng = StdRng::seed_from_u64(SEED);
    let pts = data.sample_points(1000, &mut rng);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| vec![format!("{:.5}", p[0]), format!("{:.5}", p[1])])
        .collect();
    write_csv("results/fig7_data.csv", &["x", "y"], &rows)?;

    // QuadHist buckets (τ = 0.01 as in the figure caption)
    let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.01))?;
    let rows: Vec<Vec<String>> = qh
        .buckets()
        .iter()
        .map(|(r, w)| {
            vec![
                format!("{:.5}", r.lo()[0]),
                format!("{:.5}", r.lo()[1]),
                format!("{:.5}", r.hi()[0]),
                format!("{:.5}", r.hi()[1]),
                format!("{:.6}", w),
            ]
        })
        .collect();
    write_csv(
        "results/fig7_quadhist.csv",
        &["lo_x", "lo_y", "hi_x", "hi_y", "weight"],
        &rows,
    )?;

    // PtsHist support of size 1000
    let ph = PtsHist::fit(
        Rect::unit(2),
        &train,
        &PtsHistConfig::with_model_size(1000),
    )?;
    let rows: Vec<Vec<String>> = ph
        .support()
        .map(|(p, w)| {
            vec![
                format!("{:.5}", p[0]),
                format!("{:.5}", p[1]),
                format!("{:.6}", w),
            ]
        })
        .collect();
    write_csv("results/fig7_ptshist.csv", &["x", "y", "weight"], &rows)?;

    println!("\n--- fig7 ---");
    println!(
        "wrote results/fig7_data.csv (1000 pts), fig7_quadhist.csv ({} buckets), fig7_ptshist.csv (1000 pts)",
        qh.num_buckets()
    );
    let _ = scale;
    Ok(())
}

// ---------- Section 4.3 ----------

/// Figure 16: train/test Gaussian-shift heat map for QuadHist.
fn fig16(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let means = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let n_train = if scale.train_sizes.len() > 2 { 500 } else { 100 };
    // paper: covariance 0.033 ⇒ σ ≈ 0.18
    let sigma = 0.182;

    // pre-generate one workload per mean
    let workloads: Vec<Workload> = means
        .iter()
        .map(|&mu| {
            gen_workload(
                &data,
                &rect_spec(CenterDistribution::Gaussian {
                    mean: mu,
                    std: sigma,
                }),
                n_train + scale.test_n,
                SEED ^ ((mu * 100.0) as u64),
            )
        })
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    for (i, &mu_tr) in means.iter().enumerate() {
        let (train_w, _) = workloads[i].split(n_train);
        let train = to_training(&train_w);
        let qh = QuadHist::fit_with_bucket_target(
            Rect::unit(2),
            &train,
            4 * n_train,
            &QuadHistConfig::default(),
        )?;
        for (j, &mu_te) in means.iter().enumerate() {
            let (_, test) = workloads[j].split(n_train);
            let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
            let est: Vec<f64> = test
                .queries()
                .iter()
                .map(|q| qh.estimate(&q.range))
                .collect();
            rows.push(vec![
                format!("{mu_tr}"),
                format!("{mu_te}"),
                format!("{:.5}", rms_error(&est, &truth)),
            ]);
        }
    }
    emit("fig16", &["train_mean", "test_mean", "rms"], &rows)?;
    Ok(())
}

// ---------- Section 4.4 ----------

/// Figure 17: PtsHist RMS vs training size across dimensions (Forest).
fn fig17(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let dims: &[usize] = if scale.train_sizes.len() > 2 {
        &[2, 4, 6, 8, 10]
    } else {
        &[2, 4]
    };
    let mut rows = Vec::new();
    for &d in dims {
        let data = forest_d(scale, d);
        let spec = rect_spec(CenterDistribution::DataDriven);
        let sweep = run_methods(&data, &spec, &[Method::PtsHist], scale, SEED ^ d as u64)?;
        for r in sweep {
            rows.push(vec![
                d.to_string(),
                r.train_size.to_string(),
                r.buckets.to_string(),
                format!("{:.5}", r.rms),
                format!("{:.1}", r.train_wall_ms),
            ]);
        }
    }
    emit(
        "fig17",
        &["dim", "train_size", "buckets", "rms", "train_wall_ms"],
        &rows,
    )?;
    Ok(())
}

/// Figures 18–19: RMS and training time vs dimension at n = 1000.
fn fig18_19(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let dims: &[usize] = if scale.train_sizes.len() > 2 {
        &[2, 4, 6, 8, 10]
    } else {
        &[2, 3]
    };
    let n = if scale.train_sizes.len() > 2 { 1000 } else { 100 };
    let mut rows = Vec::new();
    for &d in dims {
        let data = forest_d(scale, d);
        let spec = rect_spec(CenterDistribution::DataDriven);
        let all = gen_workload(&data, &spec, n + scale.test_n, SEED ^ ((d as u64) << 8))?;
        let (train_w, test) = all.split(n);
        let train = to_training(&train_w);
        let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
        for m in [Method::QuadHist, Method::PtsHist, Method::QuickSel] {
            // QuadHist's 2^d splitting and box intersections stop making
            // sense in high d — the paper also omits it there.
            if m == Method::QuadHist && d > 6 {
                continue;
            }
            let (model, ms) = m.fit(&Rect::unit(d), &train)?;
            let est: Vec<f64> = test
                .queries()
                .iter()
                .map(|q| model.estimate(&q.range))
                .collect();
            rows.push(vec![
                m.name().to_string(),
                d.to_string(),
                model.num_buckets().to_string(),
                format!("{:.5}", rms_error(&est, &truth)),
                format!("{ms:.1}"),
            ]);
        }
    }
    emit(
        "fig18_19",
        &["method", "dim", "buckets", "rms", "train_wall_ms"],
        &rows,
    )?;
    Ok(())
}

// ---------- Section 4.5 ----------

/// Figures 20–23: halfspace / ball queries across dimensions.
fn query_type_sweep(id: &str, scale: &ExperimentScale, qt: QueryType) -> Result<(), SelearnError> {
    let dims: &[usize] = if scale.train_sizes.len() > 2 {
        &[2, 4, 6, 8]
    } else {
        &[2, 3]
    };
    let mut rows = Vec::new();
    for &d in dims {
        let data = forest_d(scale, d);
        let spec = WorkloadSpec::new(qt, CenterDistribution::DataDriven);
        for &n in scale.train_sizes {
            let all = gen_workload(
                &data,
                &spec,
                n + scale.test_n,
                SEED ^ hash(id) ^ ((d as u64) << 4) ^ (n as u64),
            )?;
            let (train_w, test) = all.split(n);
            let train = to_training(&train_w);
            let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
            let mut methods = vec![Method::PtsHist];
            // QuadHist only in 2D (intersection volumes get too slow
            // otherwise — exactly the paper's observation)
            if d == 2 && n <= 500 {
                methods.push(Method::QuadHist);
            }
            for m in methods {
                let (model, ms) = m.fit(&Rect::unit(d), &train)?;
                let est: Vec<f64> = test
                    .queries()
                    .iter()
                    .map(|q| model.estimate(&q.range))
                    .collect();
                rows.push(vec![
                    m.name().to_string(),
                    d.to_string(),
                    n.to_string(),
                    model.num_buckets().to_string(),
                    format!("{:.5}", rms_error(&est, &truth)),
                    format!("{ms:.1}"),
                ]);
            }
        }
    }
    emit(
        id,
        &["method", "dim", "train_size", "buckets", "rms", "train_wall_ms"],
        &rows,
    )?;
    Ok(())
}

// ---------- Section 4.6 ----------

/// Figures 24–29: L2 vs L∞ training objectives (train/test RMS and L∞
/// versus model complexity).
fn fig24_29(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let n = if scale.train_sizes.len() > 2 { 500 } else { 100 };
    let all = gen_workload(&data, &spec, n + scale.test_n, SEED ^ 0x2429)?;
    let (train_w, test) = all.split(n);
    let train = to_training(&train_w);
    let truth_train: Vec<f64> = train.iter().map(|q| q.selectivity).collect();
    let truth_test: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();

    let mut rows = Vec::new();
    for &target in &[100usize, 200, 400, 800, 1600] {
        for (obj_name, obj) in [("L2", Objective::L2), ("Linf", Objective::LInfSmoothed)] {
            let qh = QuadHist::fit_with_bucket_target(
                Rect::unit(2),
                &train,
                target,
                &QuadHistConfig::default().objective(obj.clone()),
            )?;
            let est_train: Vec<f64> = train.iter().map(|q| qh.estimate(&q.range)).collect();
            let est_test: Vec<f64> = test
                .queries()
                .iter()
                .map(|q| qh.estimate(&q.range))
                .collect();
            rows.push(vec![
                obj_name.to_string(),
                qh.num_buckets().to_string(),
                format!("{:.5}", rms_error(&est_train, &truth_train)),
                format!("{:.5}", rms_error(&est_test, &truth_test)),
                format!("{:.5}", l_inf_error(&est_train, &truth_train)),
                format!("{:.5}", l_inf_error(&est_test, &truth_test)),
            ]);
        }
    }
    emit(
        "fig24_29",
        &[
            "objective",
            "buckets",
            "train_rms",
            "test_rms",
            "train_linf",
            "test_linf",
        ],
        &rows,
    )?;
    Ok(())
}

// ---------- Tables 1, 3, 4, 5 ----------

/// Q-error tables over a dataset: workloads × training sizes × methods.
fn table_qerror(id: &str, scale: &ExperimentScale, data: Dataset, all_workloads: bool) -> Result<(), SelearnError> {
    let workloads: Vec<(&str, WorkloadSpec)> = if all_workloads {
        vec![
            ("Data-driven", rect_spec(CenterDistribution::DataDriven)),
            ("Random", rect_spec(CenterDistribution::Random)),
            ("Gaussian", rect_spec(CenterDistribution::default_gaussian())),
        ]
    } else {
        // Census/DMV: the paper reports Data-driven only; flag the
        // categorical dims so equality predicates are generated.
        let cat_dims: Vec<usize> = if id == "table4" { vec![0, 1] } else { vec![0] };
        vec![(
            "Data-driven",
            rect_spec(CenterDistribution::DataDriven).with_categorical(cat_dims),
        )]
    };

    let mut rows = Vec::new();
    for (wname, spec) in &workloads {
        let sweep = run_methods(
            &data,
            spec,
            &[
                Method::Isomer,
                Method::QuickSel,
                Method::QuadHist,
                Method::PtsHist,
            ],
            scale,
            SEED ^ hash(id) ^ hash(wname),
        )?;
        for r in sweep {
            rows.push(vec![
                wname.to_string(),
                r.method.to_string(),
                r.train_size.to_string(),
                format!("{:.3}", r.q[0]),
                format!("{:.3}", r.q[1]),
                format!("{:.3}", r.q[2]),
                format!("{:.3}", r.q[3]),
            ]);
        }
    }
    emit(
        id,
        &["workload", "method", "train_size", "q50", "q95", "q99", "qmax"],
        &rows,
    )?;
    Ok(())
}

// ---------- Appendix B ----------

/// Figures 31–51: the complexity/error/time sweeps for the remaining
/// dataset × workload combinations.
fn appendix_b(scale: &ExperimentScale) -> Result<(), SelearnError> {
    workload_sweep(
        "fig31_33_power_random",
        scale,
        power2d(scale),
        rect_spec(CenterDistribution::Random),
        true,
    )?;
    workload_sweep(
        "fig34_36_power_gaussian",
        scale,
        power2d(scale),
        rect_spec(CenterDistribution::default_gaussian()),
        true,
    )?;
    workload_sweep(
        "fig37_39_forest_datadriven",
        scale,
        forest2d(scale),
        rect_spec(CenterDistribution::DataDriven),
        true,
    )?;
    workload_sweep(
        "fig40_42_forest_random",
        scale,
        forest2d(scale),
        rect_spec(CenterDistribution::Random),
        true,
    )?;
    workload_sweep(
        "fig43_45_forest_gaussian",
        scale,
        forest2d(scale),
        rect_spec(CenterDistribution::default_gaussian()),
        true,
    )?;
    workload_sweep(
        "fig46_48_dmv_datadriven",
        scale,
        dmv_proj(scale),
        rect_spec(CenterDistribution::DataDriven).with_categorical(vec![0, 1]),
        true,
    )?;
    workload_sweep(
        "fig49_51_census_datadriven",
        scale,
        census_proj(scale),
        rect_spec(CenterDistribution::DataDriven).with_categorical(vec![0]),
        true,
    )?;
    Ok(())
}

// ---------- Theory experiments ----------

/// Section 2.2 claims: empirical VC lower bounds vs known values.
fn theory_vc() -> Result<(), SelearnError> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut rows = Vec::new();
    for (name, d, known, f) in [
        (
            "rect",
            2usize,
            RangeClass::Rect.vc_dim(2),
            theory::rects_can_realize as fn(&[Point], u64) -> bool,
        ),
        (
            "halfspace",
            2,
            RangeClass::Halfspace.vc_dim(2),
            theory::halfspaces_can_realize,
        ),
        ("ball", 2, 3, theory::balls_can_realize), // exact disc VC-dim is 3 (≤ d+2 bound)
        ("rect", 3, RangeClass::Rect.vc_dim(3), theory::rects_can_realize),
        (
            "halfspace",
            3,
            RangeClass::Halfspace.vc_dim(3),
            theory::halfspaces_can_realize,
        ),
    ] {
        let bound = theory::empirical_vc_lower_bound(d, known + 1, 400, f, &mut rng);
        rows.push(vec![
            name.to_string(),
            d.to_string(),
            known.to_string(),
            bound.to_string(),
        ]);
    }
    // polygons: shattering grows without bound
    for k in [4usize, 8, 12] {
        let pts = theory::shattered_circle_points(k);
        // every subset of convex-position points is polygon-realizable
        rows.push(vec![
            "convex-polygon".to_string(),
            "2".to_string(),
            "inf".to_string(),
            format!(">= {}", pts.len()),
        ]);
    }
    emit(
        "theory_vc",
        &["range_class", "dim", "known_vc", "empirical_lower_bound"],
        &rows,
    )?;
    Ok(())
}

/// Lemma 2.7 construction + Lemma 2.4 crossing-number growth.
fn theory_fat() -> Result<(), SelearnError> {
    let mut rows = Vec::new();
    for k in 1..=3usize {
        let (ranges, sigma, cands) = theory::delta_distribution_fat_construction(k);
        let shattered = theory::is_gamma_shattered(&ranges, &sigma, 0.49, &cands);
        rows.push(vec![format!("fat_construction_k{k}"), shattered.to_string()]);
    }
    emit("theory_fat", &["check", "result"], &rows)?;

    // crossing numbers: identity vs greedy orderings on random rects
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xfa7);
    let mut rows = Vec::new();
    for k in [8usize, 16, 32, 64] {
        use rand::Rng;
        let ranges: Vec<Range> = (0..k)
            .map(|_| {
                let cx: f64 = rng.gen();
                let cy: f64 = rng.gen();
                let w: f64 = rng.gen::<f64>() * 0.4;
                Rect::new(
                    vec![(cx - w).max(0.0), (cy - w).max(0.0)],
                    vec![(cx + w).min(1.0), (cy + w).min(1.0)],
                )
                .into()
            })
            .collect();
        let pts: Vec<Point> = (0..2000)
            .map(|_| Point::new(vec![rng.gen(), rng.gen()]))
            .collect();
        let identity: Vec<usize> = (0..k).collect();
        let greedy = theory::greedy_low_crossing_ordering(&ranges, &pts);
        rows.push(vec![
            k.to_string(),
            theory::max_point_crossings(&ranges, &identity, &pts).to_string(),
            theory::max_point_crossings(&ranges, &greedy, &pts).to_string(),
        ]);
    }
    emit(
        "theory_crossings",
        &["k", "identity_max_crossings", "greedy_max_crossings"],
        &rows,
    )?;
    Ok(())
}

/// Theorem 2.1 sample-size calculator across classes and dimensions.
fn theory_bounds() -> Result<(), SelearnError> {
    let mut rows = Vec::new();
    for class in [RangeClass::Rect, RangeClass::Halfspace, RangeClass::Ball] {
        for d in [2usize, 4, 6] {
            for eps in [0.2f64, 0.1, 0.05] {
                let n0 = theory::training_set_size(class, d, eps, 0.05);
                rows.push(vec![
                    format!("{class:?}"),
                    d.to_string(),
                    format!("{eps}"),
                    format!("{:.3e}", n0),
                ]);
            }
        }
    }
    emit("theory_bounds", &["class", "dim", "eps", "n0"], &rows)?;
    Ok(())
}

// ---------- Ablations ----------

/// FISTA vs NNLS weight solvers on the same buckets.
fn ablation_solver(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let sizes: &[usize] = if scale.train_sizes.len() > 2 {
        &[50, 200, 500]
    } else {
        &[50]
    };
    let small = ExperimentScale {
        train_sizes: sizes,
        ..*scale
    };
    let rows = run_methods(
        &data,
        &spec,
        &[Method::QuadHist, Method::QuadHistNnls],
        &small,
        SEED ^ 0xab1,
    )?;
    emit_accuracy("ablation_solver", &rows)?;
    Ok(())
}

/// PtsHist interior/uniform split sweep (paper fixes 0.9/0.1).
fn ablation_ptshist_split(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let n = 500.min(scale.train_sizes.last().copied().unwrap_or(500));
    let all = gen_workload(&data, &spec, n + scale.test_n, SEED ^ 0xab2)?;
    let (train_w, test) = all.split(n);
    let train = to_training(&train_w);
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let mut rows = Vec::new();
    for frac in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let ph = PtsHist::fit(
            Rect::unit(2),
            &train,
            &PtsHistConfig::with_model_size(4 * n).interior_fraction(frac),
        )?;
        let est: Vec<f64> = test
            .queries()
            .iter()
            .map(|q| ph.estimate(&q.range))
            .collect();
        rows.push(vec![
            format!("{frac}"),
            format!("{:.5}", rms_error(&est, &truth)),
        ]);
    }
    emit("ablation_ptshist_split", &["interior_fraction", "rms"], &rows)?;
    Ok(())
}

/// τ-driven vs cap-driven QuadHist model-size control.
fn ablation_quadhist_cap(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let n = 200;
    let all = gen_workload(&data, &spec, n + scale.test_n, SEED ^ 0xab3)?;
    let (train_w, test) = all.split(n);
    let train = to_training(&train_w);
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let mut rows = Vec::new();
    for target in [100usize, 400, 800] {
        // knob A: calibrated τ with a hard cap
        let a = QuadHist::fit_with_bucket_target(
            Rect::unit(2),
            &train,
            target,
            &QuadHistConfig::default(),
        )?;
        // knob B: tiny fixed τ + hard cap only (first-come refinement)
        let mut cfg = QuadHistConfig::with_tau(1e-4);
        cfg.max_leaves = target;
        let b = QuadHist::fit(Rect::unit(2), &train, &cfg)?;
        for (knob, model) in [("calibrated_tau", &a), ("cap_only", &b)] {
            let est: Vec<f64> = test
                .queries()
                .iter()
                .map(|q| model.estimate(&q.range))
                .collect();
            rows.push(vec![
                knob.to_string(),
                target.to_string(),
                model.num_buckets().to_string(),
                format!("{:.5}", rms_error(&est, &truth)),
            ]);
        }
    }
    emit(
        "ablation_quadhist_cap",
        &["knob", "target", "buckets", "rms"],
        &rows,
    )?;
    Ok(())
}

/// Exact Irwin–Hall halfspace volumes vs quasi-Monte-Carlo.
fn ablation_volume() -> Result<(), SelearnError> {
    use selearn_geom::Halfspace;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xab4);
    let mut rows = Vec::new();
    for d in [2usize, 4, 6, 8] {
        use rand::Rng;
        let mut max_err = 0.0f64;
        let mut t_exact = 0.0;
        let mut t_qmc = 0.0;
        let est = VolumeEstimator::qmc(4096);
        for _ in 0..50 {
            let normal: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            if normal.iter().all(|v| v.abs() < 1e-6) {
                continue;
            }
            let off: f64 = rng.gen_range(-0.5..1.0);
            let h = Halfspace::new(normal, off);
            let cube = Rect::unit(d);
            let t0 = Instant::now();
            let exact = h.intersection_volume(&cube);
            t_exact += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let qmc = est.volume_in_rect(&cube, |p| h.contains(p));
            t_qmc += t0.elapsed().as_secs_f64();
            max_err = max_err.max((exact - qmc).abs());
        }
        rows.push(vec![
            d.to_string(),
            format!("{:.5}", max_err),
            format!("{:.3}", t_exact * 1e3),
            format!("{:.3}", t_qmc * 1e3),
        ]);
    }
    emit(
        "ablation_volume",
        &["dim", "max_abs_diff", "exact_ms_per_50", "qmc_ms_per_50"],
        &rows,
    )?;
    Ok(())
}

/// Extensions beyond the paper: GaussHist (the conclusion's
/// Gaussian-mixture open problem) and OnlineQuadHist (streaming feedback),
/// benchmarked against the batch estimators, plus a GaussHist bandwidth
/// sweep.
fn extension_models(scale: &ExperimentScale) -> Result<(), SelearnError> {
    use selearn_core::{GaussHist, GaussHistConfig, OnlineQuadHist};
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let n = 500.min(scale.train_sizes.last().copied().unwrap_or(500));
    let all = gen_workload(&data, &spec, n + scale.test_n, SEED ^ 0xe7)?;
    let (train_w, test) = all.split(n);
    let train = to_training(&train_w);
    let truth: Vec<f64> = test.queries().iter().map(|q| q.selectivity).collect();
    let mut rows = Vec::new();

    // batch models + extensions
    let mut add = |name: String, model: &dyn SelectivityEstimator, ms: f64| {
        let est: Vec<f64> = test
            .queries()
            .iter()
            .map(|q| model.estimate(&q.range))
            .collect();
        rows.push(vec![
            name,
            model.num_buckets().to_string(),
            format!("{:.5}", rms_error(&est, &truth)),
            format!("{ms:.1}"),
        ]);
    };

    for m in [Method::QuadHist, Method::PtsHist] {
        let (model, ms) = m.fit(&Rect::unit(2), &train)?;
        add(m.name().to_string(), model.as_ref(), ms);
    }
    for bw in [0.01f64, 0.03, 0.05, 0.1] {
        let t0 = Instant::now();
        let gh = GaussHist::fit(
            Rect::unit(2),
            &train,
            &GaussHistConfig::with_model_size(4 * n).bandwidth(bw),
        )?;
        add(
            format!("GaussHist(bw={bw})"),
            &gh,
            t0.elapsed().as_secs_f64() * 1e3,
        );
    }
    // online variant after consuming the same stream
    let t0 = Instant::now();
    let mut online = OnlineQuadHist::new(
        Rect::unit(2),
        QuadHistConfig::with_tau(0.005),
        usize::MAX / 2, // refit once at the end
    )?;
    for q in &train {
        online.observe(q.clone())?;
    }
    online.refit()?;
    add(
        "OnlineQuadHist".to_string(),
        &online,
        t0.elapsed().as_secs_f64() * 1e3,
    );

    emit(
        "extension_models",
        &["model", "buckets", "rms", "train_wall_ms"],
        &rows,
    )?;
    Ok(())
}

/// Workload-drift adaptation suite: a query stream whose center
/// distribution *and* shape mix shift at segment boundaries, served by an
/// [`OnlineQuadHist`] that refits periodically from its feedback history.
/// Each evaluation window reports the online model's prequential q-error
/// (estimate first, observe after) next to a hindsight oracle — a QuadHist
/// refit from scratch on everything seen so far — and the regret-style gap
/// between them. Recovery shows as the regret spiking at each boundary and
/// shrinking again within a few windows.
fn drift_adaptation(scale: &ExperimentScale) -> Result<(), SelearnError> {
    use selearn_core::OnlineQuadHist;
    use selearn_data::{q_error, DriftSegment};

    let data = power2d(scale);
    let window = 64usize;
    let seg_len = 4 * window;
    let tau = 0.005;

    // Three regimes: data-driven rects, then a center shift with shapes
    // mixed in, then a shape-dominated stream on a different center.
    let segments = [
        DriftSegment::new(
            WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven),
            seg_len,
        ),
        DriftSegment::new(
            WorkloadSpec::new(
                QueryType::Mixed,
                CenterDistribution::Gaussian {
                    mean: 0.7,
                    std: 0.1,
                },
            ),
            seg_len,
        ),
        DriftSegment::new(
            WorkloadSpec::new(QueryType::Mixed, CenterDistribution::Random)
                .with_shape_mix([0.2, 0.4, 0.4]),
            seg_len,
        ),
    ];
    let mut rng = StdRng::seed_from_u64(SEED ^ hash("drift_adaptation"));
    let stream = Workload::generate_drift(&data, &segments, &mut rng)?;

    let root = Rect::unit(data.dim());
    let mut online = OnlineQuadHist::new(root.clone(), QuadHistConfig::with_tau(tau), window)?;
    let mut seen: Vec<TrainingQuery> = Vec::new();
    let mut rows = Vec::new();
    let qtile = |sorted: &[f64], p: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    for (w, window_queries) in stream.queries().chunks(window).enumerate() {
        // Prequential pass: the online model answers each query before
        // learning from it, exactly like the serve feedback loop.
        let mut online_q = Vec::with_capacity(window_queries.len());
        for q in window_queries {
            let est = online.estimate(&q.range);
            online_q.push(q_error(est, q.selectivity));
            online.observe(TrainingQuery::new(q.range.clone(), q.selectivity))?;
            seen.push(TrainingQuery::new(q.range.clone(), q.selectivity));
        }
        // Hindsight oracle: refit from scratch on everything seen so far
        // (this window included), then score the same window.
        let oracle = QuadHist::fit(root.clone(), &seen, &QuadHistConfig::with_tau(tau))?;
        let oracle_q: Vec<f64> = window_queries
            .iter()
            .map(|q| q_error(oracle.estimate(&q.range), q.selectivity))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let mut online_sorted = online_q.clone();
        online_sorted.sort_by(f64::total_cmp);
        let (online_mean, oracle_mean) = (mean(&online_q), mean(&oracle_q));
        let segment = (w * window) / seg_len;
        rows.push(vec![
            w.to_string(),
            (w * window).to_string(),
            match segment {
                0 => "rect/data-driven".to_string(),
                1 => "mixed/gauss-0.7".to_string(),
                _ => "shape-heavy/random".to_string(),
            },
            format!("{online_mean:.3}"),
            format!("{:.3}", qtile(&online_sorted, 0.95)),
            format!("{oracle_mean:.3}"),
            format!("{:.3}", online_mean - oracle_mean),
        ]);
    }
    emit(
        "drift_adaptation",
        &[
            "window",
            "stream_pos",
            "regime",
            "online_mean_q",
            "online_p95_q",
            "oracle_mean_q",
            "regret",
        ],
        &rows,
    )?;
    Ok(())
}

/// Compact accuracy sweep with solver-convergence columns — the canonical
/// trace-producing experiment (`accuracy --trace-out trace.jsonl`): the
/// four main methods on Power (data-driven rects), reporting
/// `solver_iters` / `solver_converged` alongside the error metrics.
fn accuracy(scale: &ExperimentScale) -> Result<(), SelearnError> {
    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let rows = run_methods(
        &data,
        &spec,
        &[
            Method::QuadHist,
            Method::PtsHist,
            Method::QuickSel,
            Method::Uniform,
        ],
        scale,
        SEED ^ hash("accuracy"),
    )?;
    emit_accuracy("accuracy", &rows)?;
    Ok(())
}

/// Serving artifacts: trains a QuadHist on the power workload and writes
/// `results/serve_model.model` (for `selearn-serve --model`) plus
/// `results/serve_workload.jsonl` — one protocol request line per held-out
/// test query (for `selearn-load --workload`).
fn serve_export(scale: &ExperimentScale) -> Result<(), SelearnError> {
    use selearn_obs::json::fmt_f64_into;

    let data = power2d(scale);
    let spec = rect_spec(CenterDistribution::DataDriven);
    let train_n = scale.train_sizes.iter().copied().max().unwrap_or(1000);
    let train = gen_workload(&data, &spec, train_n, SEED ^ hash("serve_export"))?;
    let queries: Vec<TrainingQuery> = train
        .queries()
        .iter()
        .map(|q| TrainingQuery::new(q.range.clone(), q.selectivity))
        .collect();
    let model = QuadHist::fit(
        Rect::unit(data.dim()),
        &queries,
        &QuadHistConfig::default(),
    )?;

    std::fs::create_dir_all("results")?;
    let mut file =
        std::io::BufWriter::new(std::fs::File::create("results/serve_model.model")?);
    selearn_core::save_quadhist(&model, &mut file)?;
    std::io::Write::flush(&mut file)?;

    let test = gen_workload(&data, &spec, scale.test_n, SEED ^ hash("serve_export_test"))?;
    let mut out = String::new();
    let mut exported = 0usize;
    for q in test.queries() {
        // The serving protocol speaks boxes; non-rectangular ranges
        // cannot appear in this rect-spec workload, but skip defensively.
        let Some(rect) = q.range.as_rect() else {
            continue;
        };
        out.push_str("{\"lo\":[");
        for (i, v) in rect.lo().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            fmt_f64_into(&mut out, *v);
        }
        out.push_str("],\"hi\":[");
        for (i, v) in rect.hi().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            fmt_f64_into(&mut out, *v);
        }
        out.push_str("]}\n");
        exported += 1;
    }
    std::fs::write("results/serve_workload.jsonl", out)?;

    emit(
        "serve_export",
        &["artifact", "value"],
        &[
            vec!["model_buckets".into(), model.num_buckets().to_string()],
            vec!["train_queries".into(), queries.len().to_string()],
            vec!["workload_requests".into(), exported.to_string()],
            vec!["model_file".into(), "results/serve_model.model".into()],
            vec![
                "workload_file".into(),
                "results/serve_workload.jsonl".into(),
            ],
        ],
    )?;
    Ok(())
}

fn hash(s: &str) -> u64 {
    s.bytes().fold(1469598103934665603u64, |h, b| {
        (h ^ b as u64).wrapping_mul(1099511628211)
    })
}
