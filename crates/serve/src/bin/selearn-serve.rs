//! `selearn-serve` — serve a selectivity model over TCP.
//!
//! ```text
//! selearn-serve --model results/serve_model.model --addr 127.0.0.1:7878
//! selearn-serve --synthetic 2 --run-secs 30 --trace-out trace.jsonl
//! ```
//!
//! The model comes either from a persisted dump (`--model FILE`, the
//! format written by `selearn_core::save_quadhist` / `save_ptshist` /
//! the experiments binary's `serve_export`) or from a self-contained
//! synthetic fit (`--synthetic DIM`). Either way the server evaluates a
//! **frozen** artifact: persisted models restore straight into the
//! pointer-free layout via `selearn_core::load_frozen`, and synthetic
//! fits are compiled with `freeze()` before registration under the name
//! `"default"`. The startup line prints the bound address so scripts can
//! scrape the OS-assigned port.
//!
//! With `--store-dir DIR` the server also accepts **feedback** lines
//! (estimate requests carrying an observed `"sel"`): each one is
//! appended to a write-ahead log in DIR before it is acknowledged, the
//! online model learns from it, and every `--checkpoint-every` records a
//! checkpoint is cut and the online model itself, in the frozen layout,
//! hot-swapped into the serving slot. On restart the store recovers
//! (newest valid checkpoint + WAL tail replay) and prints a
//! machine-readable `{"recovered":…}` line;
//! `--rollback GEN` rewinds to a retained generation before serving.

mod common;

use selearn_serve::{
    start_with_feedback, DriftConfig, DriftMonitor, DurableFeedback, FeedbackSink, ServerConfig,
};
use selearn_store::{ModelStore, StoreConfig};
use std::sync::Arc;

const USAGE: &str = "usage: selearn-serve (--model FILE | --synthetic DIM) \
[--addr HOST:PORT] [--admin-addr HOST:PORT] [--workers N] [--queue N] \
[--cache-capacity N] [--deadline-ms N] [--run-secs N] [--stats] \
[--synthetic-tenants N] [--tenant-rps X] [--tenant-burst X] \
[--trace-out FILE] [--store-dir DIR] \
[--checkpoint-every N] [--rollback GEN] [--drift-threshold X] \
[--drift-windows K] [--drift-window-size N]";

fn main() {
    let mut args = common::Args::from_env(USAGE);
    let model_path = args.value("--model");
    let synthetic = args.value("--synthetic");
    let addr = args.value("--addr");
    let admin_addr = args.value("--admin-addr");
    let workers = args.num::<usize>("--workers");
    let queue = args.num::<usize>("--queue");
    let cache_capacity = args.num::<usize>("--cache-capacity");
    let deadline_ms = args.num::<u64>("--deadline-ms");
    let run_secs = args.num::<u64>("--run-secs");
    let synthetic_tenants = args.num::<usize>("--synthetic-tenants");
    let tenant_rps = args.num::<f64>("--tenant-rps");
    let tenant_burst = args.num::<f64>("--tenant-burst");
    let stats = args.flag("--stats");
    let trace_out = args.value("--trace-out");
    let store_dir = args.value("--store-dir");
    let checkpoint_every = args.num::<u64>("--checkpoint-every");
    let rollback = args.num::<u64>("--rollback");
    let drift_threshold = args.num::<f64>("--drift-threshold");
    let drift_windows = args.num::<u32>("--drift-windows");
    let drift_window_size = args.num::<usize>("--drift-window-size");
    args.finish();

    // The admin plane scrapes the metric registries, so it implies stats.
    if stats || trace_out.is_some() || admin_addr.is_some() {
        selearn_obs::enable_stats(true);
    }
    if let Some(path) = &trace_out {
        if let Err(e) = selearn_obs::install_trace_file(std::path::Path::new(path)) {
            eprintln!("cannot open trace file {path}: {e}");
            std::process::exit(2);
        }
    }

    let (mut model, root): (selearn_core::SharedEstimator, selearn_geom::Rect) =
        match (model_path, synthetic) {
            (Some(path), None) => {
                let file = match std::fs::File::open(&path) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot open model file {path}: {e}");
                        std::process::exit(2);
                    }
                };
                // Restore straight into the frozen inference layout — the
                // serving hot path never walks a pointer tree.
                match selearn_core::load_frozen(std::io::BufReader::new(file)) {
                    Ok(m) => {
                        let root = m.root().clone();
                        (Arc::new(m), root)
                    }
                    Err(e) => {
                        eprintln!("cannot load model {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            (None, Some(dim)) => {
                let dim = common::synthetic_dim(&dim);
                match selearn_serve::synth::synthetic_model(dim, 400, 17) {
                    Ok((m, root)) => (Arc::new(m.freeze()), root),
                    Err(e) => {
                        eprintln!("synthetic fit failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
            _ => {
                eprintln!("exactly one of --model or --synthetic is required\n{USAGE}");
                std::process::exit(2);
            }
        };

    let mut config = ServerConfig {
        admin_addr,
        ..ServerConfig::default()
    };
    if let Some(addr) = addr {
        config.addr = addr;
    }
    if let Some(workers) = workers {
        config.workers = workers;
    }
    if let Some(queue) = queue {
        config.queue_capacity = queue;
    }
    if let Some(cap) = cache_capacity {
        config.cache_capacity = cap;
    }
    if let Some(ms) = deadline_ms {
        config.deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(rps) = tenant_rps {
        config.tenant_quota_rps = rps;
    }
    if let Some(burst) = tenant_burst {
        config.tenant_quota_burst = burst;
    }

    if store_dir.is_none() && (checkpoint_every.is_some() || rollback.is_some()) {
        eprintln!("--checkpoint-every and --rollback require --store-dir\n{USAGE}");
        std::process::exit(2);
    }
    if store_dir.is_none()
        && (drift_threshold.is_some() || drift_windows.is_some() || drift_window_size.is_some())
    {
        eprintln!("drift monitoring scores acked feedback and requires --store-dir\n{USAGE}");
        std::process::exit(2);
    }

    let registry = Arc::new(selearn_serve::ModelRegistry::new());
    let mut durable: Option<Arc<DurableFeedback>> = None;
    if let Some(dir) = &store_dir {
        let store_config = StoreConfig::new(root.clone());
        let mut store = match ModelStore::open(std::path::Path::new(dir), store_config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                std::process::exit(1);
            }
        };
        // Machine-readable recovery summary: what the store found on disk
        // (the CI crash smoke greps this after a kill -9).
        let r = store.recovery();
        println!(
            "{{\"recovered\":{{\"generation\":{},\"checkpoint_lsn\":{},\"replayed\":{},\"truncated_bytes\":{},\"torn_tail\":{},\"skipped_checkpoints\":{},\"last_lsn\":{}}}}}",
            r.generation,
            r.checkpoint_lsn,
            r.replayed_records,
            r.truncated_bytes,
            r.torn_tail.is_some(),
            r.skipped_checkpoints,
            store.last_lsn(),
        );
        if let Some(generation) = rollback {
            if let Err(e) = store.rollback(generation) {
                eprintln!("cannot roll back to generation {generation}: {e}");
                std::process::exit(1);
            }
            println!(
                "{{\"rolled_back\":{{\"generation\":{generation},\"last_lsn\":{}}}}}",
                store.last_lsn()
            );
        }
        // Serve what the store learned, not the stale base artifact —
        // the base model only seeds a store with no history.
        if store.model().observations() > 0 {
            match store.model().freeze() {
                Ok(quad) => model = Arc::new(quad.freeze()),
                Err(e) => {
                    eprintln!("warning: cannot freeze recovered model, serving the base model: {e}");
                }
            }
        }
        durable = Some(Arc::new(DurableFeedback::new(
            store,
            Arc::clone(&registry),
            selearn_serve::DEFAULT_MODEL,
            checkpoint_every.unwrap_or(256),
        )));
    }

    // With a store, every WAL-acked feedback record is scored against the
    // currently served model; the monitor's alarm feeds /readyz through
    // the sink.
    if let Some(durable) = &durable {
        let mut drift_config = DriftConfig::default();
        if let Some(t) = drift_threshold {
            drift_config.threshold = t;
        }
        if let Some(k) = drift_windows {
            drift_config.consecutive = k;
        }
        if let Some(w) = drift_window_size {
            drift_config.window = w;
        }
        let monitor = Arc::new(DriftMonitor::new(drift_config, Arc::clone(&registry)));
        durable.attach_drift(monitor);
    }

    // Multi-tenant smoke mode: register N namespaced handles to the same
    // frozen artifact (`t<i>.m`) beside "default". Sharing the Arc keeps
    // a thousand registrations at a thousand slots, one model.
    if let Some(n) = synthetic_tenants {
        for i in 0..n {
            registry.register(&format!("t{i}.m"), model.clone(), root.clone());
        }
        println!("{{\"synthetic_tenants\":{n}}}");
    }
    registry.register(selearn_serve::DEFAULT_MODEL, model, root);
    let sink = durable
        .as_ref()
        .map(|d| Arc::clone(d) as Arc<dyn FeedbackSink>);
    let handle = match start_with_feedback(config, registry, sink) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    // Machine-readable startup lines: scripts scrape the bound addresses.
    println!("{{\"listening\":\"{}\"}}", handle.addr());
    if let Some(admin) = handle.admin_addr() {
        println!("{{\"admin\":\"{admin}\"}}");
    }

    match run_secs {
        // Bounded run: serve for N seconds, then drain and summarize —
        // how the CI smoke test gets a clean exit (and a flushed trace).
        Some(secs) if secs > 0 => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let stats_snapshot = Arc::clone(handle.stats());
            let (hits, misses) = (handle.cache().hits(), handle.cache().misses());
            handle.shutdown();
            // Park the tail of the feedback stream in a final checkpoint
            // so the next start replays nothing.
            if let Some(durable) = &durable {
                if durable.store().unflushed_records() > 0 {
                    if let Err(e) = durable.checkpoint_now() {
                        eprintln!("warning: final checkpoint failed: {e}");
                    }
                }
            }
            selearn_obs::flush_aggregates();
            selearn_obs::flush_sink();
            println!(
                "{{\"requests\":{},\"model\":{},\"cached\":{},\"degraded\":{},\"errors\":{},\"feedback\":{},\"write_calls\":{},\"cache_hits\":{hits},\"cache_misses\":{misses}}}",
                stats_snapshot.requests(),
                stats_snapshot.model_answers(),
                stats_snapshot.cache_answers(),
                stats_snapshot.degraded(),
                stats_snapshot.errors(),
                stats_snapshot.feedback_acks(),
                stats_snapshot.write_calls(),
            );
        }
        // Unbounded run: park forever (terminate with a signal).
        _ => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}
