//! `selearn-load` — load generator for `selearn-serve`.
//!
//! ```text
//! # closed loop: 4 connections, 10k requests, synthetic 2-d pool
//! selearn-load --addr 127.0.0.1:7878 --synthetic 2 --requests 10000 --conns 4
//!
//! # open loop at 5000 req/s replaying an exported workload file
//! selearn-load --addr 127.0.0.1:7878 --workload results/serve_workload.jsonl \
//!              --requests 20000 --rate 5000
//! ```
//!
//! The workload file holds one protocol request per line (the format the
//! experiments binary's `serve_export` writes). The pool is cycled when
//! `--requests` exceeds it — deliberately, so the server's estimate cache
//! sees repeats. Prints a single JSON summary line with latency
//! percentiles and throughput; exits 1 when any response was a
//! protocol-level error (or the run died early).

mod common;

use selearn_serve::{parse_line, run_load, LoadOptions, Request, RequestLine};

const USAGE: &str = "usage: selearn-load --addr HOST:PORT \
(--workload FILE | --synthetic DIM) [--requests N] [--conns N] \
[--rate RPS] [--pool N] [--tenants N] [--allow-errors]";

fn main() {
    let mut args = common::Args::from_env(USAGE);
    let addr = args.value("--addr");
    let workload = args.value("--workload");
    let synthetic = args.value("--synthetic");
    let requests = args.num::<usize>("--requests");
    let conns = args.num::<usize>("--conns");
    let rate = args.num::<f64>("--rate");
    let pool = args.num::<usize>("--pool");
    let tenants = args.num::<usize>("--tenants");
    let allow_errors = args.flag("--allow-errors");
    args.finish();
    let Some(addr) = addr else {
        eprintln!("--addr is required\n{USAGE}");
        std::process::exit(2);
    };

    let pool_size = pool.unwrap_or(256);
    let mut requests_pool: Vec<Request> = match (workload, synthetic) {
        (Some(path), None) => match load_workload(&path) {
            Ok(pool) => pool,
            Err(e) => {
                eprintln!("cannot load workload {path}: {e}");
                std::process::exit(2);
            }
        },
        (None, Some(dim)) => {
            let dim = common::synthetic_dim(&dim);
            selearn_serve::synth::synthetic_requests(dim, pool_size, 23)
        }
        _ => {
            eprintln!("exactly one of --workload or --synthetic is required\n{USAGE}");
            std::process::exit(2);
        }
    };
    if requests_pool.is_empty() {
        eprintln!("request pool is empty");
        std::process::exit(2);
    }
    // Mixed-tenant mode: cycle the pool's `est` names across the server's
    // `--synthetic-tenants` namespaces (`t<i>.m`) so one run exercises
    // every tenant's quota bucket and cache partition.
    if let Some(n) = tenants.filter(|n| *n > 0) {
        for (i, req) in requests_pool.iter_mut().enumerate() {
            req.est = format!("t{}.m", i % n);
        }
    }

    let options = LoadOptions {
        connections: conns.unwrap_or(4),
        total_requests: requests.unwrap_or(1000),
        rate,
    };
    match run_load(&addr, &requests_pool, &options) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.errors > 0 && !allow_errors {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("load run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Reads a one-request-per-line workload file, skipping blank lines.
fn load_workload(path: &str) -> Result<Vec<Request>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(|(i, line)| match parse_line(line) {
            Ok(RequestLine::Estimate(req)) => Ok(req),
            Ok(RequestLine::Feedback(_)) => Err(format!("line {}: a feedback line", i + 1)),
            Err(e) => Err(format!("line {}: {e}", i + 1)),
        })
        .collect()
}
