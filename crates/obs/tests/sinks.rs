//! Integration tests for the instruments' one output format: span nesting
//! through `timing_snapshot` and the exposition, and the span and solver
//! histogram families as `/metrics` renders them.
//!
//! These tests mutate process-global observability state, so the file
//! keeps them in one `#[test]` sequence per concern and resets around
//! each block; `cargo test` runs separate integration-test binaries in
//! separate processes, so no cross-file interference is possible.

use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn with_clean_state<R>(f: impl FnOnce() -> R) -> R {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    selearn_obs::clear_sink();
    selearn_obs::reset();
    selearn_obs::enable_stats(true);
    let r = f();
    selearn_obs::clear_sink();
    selearn_obs::enable_stats(false);
    selearn_obs::reset();
    r
}

/// The value of sample line `series` in an exposition body.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(name, _)| *name == series)
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn span_nesting_shows_in_the_timing_snapshot_and_the_exposition() {
    with_clean_state(|| {
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

        // The snapshot is path-keyed and sorted: parent first, children
        // under it, repeat counts folded.
        let snapshot = selearn_obs::span::timing_snapshot();
        let tree: Vec<(&str, u64)> = snapshot
            .iter()
            .map(|(p, s)| (p.as_str(), s.count))
            .collect();
        assert_eq!(
            tree,
            vec![
                ("fit.quadhist", 1),
                ("fit.quadhist/assemble", 1),
                ("fit.quadhist/solve", 3),
                ("predict.quadhist", 1),
            ]
        );
        // A parent's wall time covers its children's.
        let total = |path: &str| snapshot.iter().find(|(p, _)| p == path).unwrap().1.total_ns;
        assert!(
            total("fit.quadhist") >= total("fit.quadhist/assemble") + total("fit.quadhist/solve")
        );

        // The same counts are one histogram family in the exposition.
        let body = selearn_obs::expo::render(&[]);
        assert_eq!(
            body.matches("# TYPE span_wall_us histogram\n").count(),
            1,
            "{body}"
        );
        for (path, count) in tree {
            let series = format!("span_wall_us_count{{path=\"{path}\"}}");
            assert_eq!(
                sample(&body, &series),
                Some(count as f64),
                "{series}\n{body}"
            );
        }
        let sum = sample(&body, "span_wall_us_sum{path=\"fit.quadhist\"}").unwrap();
        assert!(
            (sum * 1e3 - total("fit.quadhist") as f64).abs() <= 1.0,
            "{sum}"
        );
    });
}

#[test]
fn solver_exits_render_as_histograms_and_an_unconverged_counter() {
    with_clean_state(|| {
        // Two labelled solver families, as `SolveReport::emit` records
        // them: a converged and an unconverged FISTA solve.
        for (iters, unconverged) in [(12u32, 0u64), (700, 1)] {
            selearn_obs::histogram_record("solver.iters{solver=\"fista\"}", f64::from(iters));
            selearn_obs::histogram_record("solver.final_residual{solver=\"fista\"}", 1e-3);
            selearn_obs::counter_add("solver.unconverged{solver=\"fista\"}", unconverged);
        }
        let body = selearn_obs::expo::render(&[]);
        assert!(body.contains("# TYPE solver_iters histogram\n"), "{body}");
        assert_eq!(
            sample(&body, "solver_iters_count{solver=\"fista\"}"),
            Some(2.0),
            "{body}"
        );
        assert_eq!(
            sample(&body, "solver_iters_sum{solver=\"fista\"}"),
            Some(712.0),
            "{body}"
        );
        assert!(
            body.contains("solver_iters_bucket{solver=\"fista\",le=\"+Inf\"} 2\n"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE solver_final_residual histogram\n"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE solver_unconverged counter\n"),
            "{body}"
        );
        assert_eq!(
            sample(&body, "solver_unconverged{solver=\"fista\"}"),
            Some(1.0),
            "{body}"
        );
    });
}
