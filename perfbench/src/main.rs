//! The selearn benchmark: four seeded workloads against an in-process
//! `selearn-serve` server and the `selearn-core` fit API.
//!
//! ```text
//! selearn-perfbench --workload <estimate-hot|estimate-cold|feedback-mixed|fit>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! repeats the measurement with tracing on and prints the per-layer
//! metrics (spans and program obs events go to `.bench_work/`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A wrong answer or a lost ack makes the exit code 1.

mod check;
mod feedback;
mod fit;
mod inputs;
mod load;
mod serving;
mod setup;
mod stats;
mod trace;

use stats::{Metrics, Tally};
use std::path::PathBuf;

/// End-to-end metrics, printed by every untraced run in this order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("served_qerror_p50", "ratio"),
];

/// Per-layer metrics, printed by every traced run in this order. A layer
/// a workload does not exercise reads 0 there (see README.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.handoff_us", "us"),
    ("serve.queue.depth_mean", "requests"),
    ("serve.degraded", "count"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.replay_hits", "count"),
    ("serve.cache.probe_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("core.quantize.key_us", "us"),
    ("core.frozen.rect_us", "us"),
    ("core.frozen.generic_us", "us"),
    ("geom.mc_samples_per_est", "count"),
    ("store.wal.append_us", "us"),
    ("store.wal.fsync_us", "us"),
    ("core.online.observe_us", "us"),
    ("core.online.refit_ms", "ms"),
    ("solver.iters", "count"),
    ("solver.converged", "count"),
    ("store.checkpoint_ms", "ms"),
    ("serve.feedback.swap_ms", "ms"),
    ("store.recovery_ms", "ms"),
    ("store.replayed_records", "count"),
    ("core.quadhist.design_ms", "ms"),
    ("core.quadhist.fit_ms", "ms"),
    ("core.ptshist.fit_ms", "ms"),
    ("core.assemble.entries", "count"),
    ("core.persist.save_ms", "ms"),
    ("core.persist.load_frozen_ms", "ms"),
    ("core.persist.load_tree_ms", "ms"),
    ("quality.model_rmse", "selectivity"),
    ("failed_ratio", "ratio"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    /// Set when this process is a set-up child (see `setup.rs`).
    pub setup_probe: Option<PathBuf>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one workload hands back.
pub struct Run {
    pub tally: Tally,
    pub metrics: Metrics,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--setup-probe" => setup_probe = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        setup_probe,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space of one run, under the working directory.
pub fn work_dir(args: &Args) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, args.seed))
}

/// Records the untraced and traced medians and their difference.
pub fn put_overhead(m: &mut Metrics, untraced_p50: f64, traced_p50: f64) {
    m.put("trace.untraced_p50_ms", untraced_p50, "ms");
    m.put("trace.traced_p50_ms", traced_p50, "ms");
    m.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
}

/// Writes the traced run's spans and events next to the scratch space.
pub fn finish_trace(tracer: trace::Tracer, args: &Args, events: &[selearn_obs::Event]) {
    let path =
        PathBuf::from(".bench_work").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.finish(&path, events);
    println!("# spans and obs events written to {}", path.display());
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.setup_probe {
        setup::child(&args, path);
        return;
    }
    let run = match args.workload.as_str() {
        "estimate-hot" => serving::run(&args, serving::Mode::Hot),
        "estimate-cold" => serving::run(&args, serving::Mode::Cold),
        "feedback-mixed" => feedback::run(&args),
        "fit" => fit::run(&args),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(work_dir(&args));

    let mut out = Metrics::default();
    let (names, mut given) = if args.trace {
        let mut m = run.metrics;
        m.put(
            "failed_ratio",
            run.tally.failed as f64 / run.tally.attempted.max(1) as f64,
            "ratio",
        );
        (PER_LAYER, m)
    } else {
        (END_TO_END, run.metrics)
    };
    for &(name, unit) in names {
        out.put(name, given.take(name).unwrap_or(0.0), unit);
    }
    assert!(
        given.is_empty(),
        "metrics outside the declared set: {:?}",
        given.names()
    );
    println!("{}", stats::result_line(&run.tally, &out));
    if run.tally.wrong > 0 {
        std::process::exit(1);
    }
}
