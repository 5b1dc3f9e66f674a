//! Integration tests for the sink layer: span nesting shape through a
//! `MemorySink`, and a golden-file check that `JsonlSink` output parses
//! line-by-line.
//!
//! These tests mutate process-global observability state, so the file
//! keeps them in one `#[test]` sequence per concern and resets around
//! each block; `cargo test` runs separate integration-test binaries in
//! separate processes, so no cross-file interference is possible.

use selearn_obs::{Event, MemorySink};
use std::sync::{Arc, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn with_clean_state<R>(f: impl FnOnce() -> R) -> R {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    selearn_obs::clear_sink();
    selearn_obs::reset();
    let r = f();
    selearn_obs::clear_sink();
    selearn_obs::enable_stats(false);
    selearn_obs::reset();
    r
}

#[test]
fn memory_sink_observes_span_nesting_and_timing_tree_shape() {
    with_clean_state(|| {
        let mem = Arc::new(MemorySink::new());
        selearn_obs::set_sink(mem.clone());

        {
            let _fit = selearn_obs::span!("fit.quadhist");
            {
                let _asm = selearn_obs::span!("assemble");
            }
            for _ in 0..3 {
                let _solve = selearn_obs::span!("solve");
            }
        }
        {
            let _pred = selearn_obs::span!("predict.quadhist");
        }

        // Events arrive in close order: inner spans before their parents.
        let spans: Vec<(String, usize)> = mem
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Span { path, depth, .. } => Some((path.clone(), *depth)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![
                ("fit.quadhist/assemble".to_string(), 1),
                ("fit.quadhist/solve".to_string(), 1),
                ("fit.quadhist/solve".to_string(), 1),
                ("fit.quadhist/solve".to_string(), 1),
                ("fit.quadhist".to_string(), 0),
                ("predict.quadhist".to_string(), 0),
            ]
        );

        // The aggregate timing tree is path-keyed and sorted: parent
        // first, children under it, repeat counts folded.
        let tree: Vec<(String, u64)> = selearn_obs::span::timing_snapshot()
            .into_iter()
            .map(|(p, s)| (p, s.count))
            .collect();
        assert_eq!(
            tree,
            vec![
                ("fit.quadhist".to_string(), 1),
                ("fit.quadhist/assemble".to_string(), 1),
                ("fit.quadhist/solve".to_string(), 3),
                ("predict.quadhist".to_string(), 1),
            ]
        );
    });
}

#[test]
fn solver_iteration_helper_emits_event_and_residual_histogram() {
    with_clean_state(|| {
        let mem = Arc::new(MemorySink::new());
        selearn_obs::set_sink(mem.clone());
        selearn_obs::solver_iteration("fista", 0, 1e-3, 0.5);
        selearn_obs::solver_iteration("fista", 1, 1e-5, 0.5);
        let iters: Vec<usize> = mem
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SolverIteration { iter, .. } => Some(*iter),
                _ => None,
            })
            .collect();
        assert_eq!(iters, vec![0, 1]);
        let h = selearn_obs::metrics::histogram_get("fista.residual").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1e-3);
    });
}

#[test]
fn jsonl_sink_golden_file_parses_line_by_line() {
    use selearn_obs::json::{parse, Json};
    use selearn_obs::JsonlSink;

    let path = std::env::temp_dir().join("selearn_obs_golden_trace.jsonl");
    with_clean_state(|| {
        let sink = Arc::new(JsonlSink::create(&path).expect("create trace file"));
        selearn_obs::set_sink(sink);

        // One event of every kind, including strings that exercise the
        // escaper, written through the real global emission path.
        {
            let _s = selearn_obs::span!("golden.fit");
        }
        selearn_obs::counter_add("mc_samples_drawn", 4096);
        selearn_obs::gauge_set("tau", 0.0125);
        selearn_obs::histogram_record("predict.latency_us", 17.0);
        selearn_obs::solver_iteration("nnls", 4, 3.2e-7, 1.0);
        selearn_obs::emit(&Event::SolverReport {
            solver: "nnls",
            iters: 5,
            max_iters: 600,
            converged: true,
            final_residual: 3.2e-7,
        });
        selearn_obs::emit(&Event::MetricsSummary {
            name: "q_error".into(),
            count: 100,
            p50: 1.1,
            p90: 2.0,
            p95: 2.6,
            p99: 4.2,
            max: f64::INFINITY, // must serialise as null, not break the line
        });
        selearn_obs::log::log(selearn_obs::Level::Info, "golden \"quoted\"\tline");
        selearn_obs::flush_aggregates();
        selearn_obs::flush_sink();
    });

    let contents = std::fs::read_to_string(&path).expect("read trace file");
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 8, "expected ≥8 events, got {}", lines.len());
    let mut kinds = std::collections::BTreeSet::new();
    for line in &lines {
        let event = parse(line).unwrap_or_else(|e| panic!("invalid JSONL line {line}: {e}"));
        assert!(matches!(event, Json::Obj(_)), "not an object: {line}");
        let kind = event.get("kind").and_then(Json::as_str).unwrap_or_default();
        kinds.insert(kind.to_string());
    }
    for expected in [
        "span",
        "counter",
        "gauge",
        "histogram",
        "solver-iteration",
        "solver-report",
        "metrics-summary",
        "log",
    ] {
        assert!(kinds.contains(expected), "missing kind {expected}: {kinds:?}");
    }
    let _ = std::fs::remove_file(&path);
}
