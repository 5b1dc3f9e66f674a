//! Experiment harness reproducing every table and figure of Section 4.
//!
//! The binary `experiments` (`cargo run -p selearn-bench --release --bin
//! experiments -- <id>|all [--quick]`) regenerates each artifact as a CSV
//! under `results/` plus a rendered text table on stdout; EXPERIMENTS.md
//! records paper-vs-measured shapes, and timing columns (`train_wall_ms`,
//! `predict_wall_ms`) ride in the same rows. The binary `perf-suite`
//! times frozen inference, restore, live serving and the WAL into one
//! versioned `BENCH_<n>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod harness;
pub mod table;

pub use harness::{
    gen_workload, label_row, run_methods, AccuracyRow, ExperimentScale, Method,
};
pub use table::{render_table, write_csv};
