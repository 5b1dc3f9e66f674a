//! `setup_s` and `peak_rss_mb`: the program's start, timed in fresh
//! child processes of this binary (`--setup-probe PATH`), so every
//! start pays the same cold-heap costs a restarted server pays.

use crate::Args;
use std::path::Path;
use std::process::Command;

/// The quantile of the children's start times reported as `setup_s`.
/// A start in a fresh process is bimodal on the reference machine (a
/// serving start reads about 3.4 or about 5.0 ms, and the share of each
/// mode changes from run to run with the host), so the median of a run
/// jumps between the modes. The fast mode shows up in every run, so the
/// 10th percentile is steady, and work added to the start still moves it.
const SETUP_Q: f64 = 0.1;

/// Runs `reps` set-up children; `prepare(i)` readies (untimed) the input
/// of child `i` and returns its path. Returns the [`SETUP_Q`]-quantile of
/// the set-up seconds and the median peak RSS (MiB) of the children.
pub fn in_children(
    args: &Args,
    reps: usize,
    mut prepare: impl FnMut(usize) -> std::path::PathBuf,
) -> (f64, f64) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut secs = Vec::with_capacity(reps);
    let mut rss = Vec::with_capacity(reps);
    for i in 0..reps {
        let path = prepare(i);
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-probe")
            .arg(&path)
            .output()
            .expect("set-up child runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<f64> = stdout
            .lines()
            .last()
            .unwrap_or("")
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect();
        if !out.status.success() || fields.len() != 2 {
            eprintln!("{}", String::from_utf8_lossy(&out.stderr));
            panic!("set-up child {i} failed: {}", out.status);
        }
        secs.push(fields[0]);
        rss.push(fields[1]);
    }
    (
        crate::stats::quantile(&mut secs, SETUP_Q),
        crate::stats::quantile(&mut rss, 0.5),
    )
}

/// The child side: time one start of the workload's program from `path`
/// and print `seconds peak_rss_mib`.
pub fn child(args: &Args, path: &Path) {
    let secs = match args.workload.as_str() {
        "estimate-hot" | "estimate-cold" => crate::serving::setup_probe(path),
        "feedback-mixed" => crate::feedback::setup_probe(path),
        "fit" => crate::fit::setup_probe(args, path),
        other => panic!("no set-up for workload {other}"),
    };
    println!("{secs:?} {:?}", crate::stats::peak_rss_mb());
}
