//! `selearn-obs` — zero-dependency structured observability for the
//! selectivity-learning pipeline.
//!
//! Every other `selearn-*` crate links against this one, so it is built
//! from scratch on `std` alone (the workspace is offline-vendored; no
//! registry crates). It provides four instruments:
//!
//! * **Spans** — RAII timing guards ([`span()`] / the [`span!`] macro) that
//!   nest through a thread-local stack into a hierarchical timing tree
//!   (`fit.quadhist/assemble`, …);
//! * **Counters & gauges** — monotonic [`counter_add`] / latest-value
//!   [`gauge_set`] registries backed by `AtomicU64`, safe to bump from
//!   serve worker threads;
//! * **Histograms** — lock-free log₂-bucketed distributions
//!   ([`histogram_record`]) for per-query predict latency and
//!   per-iteration residual norms;
//! * **Events** — structured [`Event`]s pushed to a pluggable [`ObsSink`]
//!   (solver iterations, solve reports, metrics summaries, logs).
//!
//! # Overhead contract
//!
//! Everything is **off by default**: with no sink installed and stats
//! disabled, every instrumentation call is a single relaxed atomic load
//! and a predictable branch — the no-sink configuration budgeted at
//! < 5 % end-to-end overhead in DESIGN.md (in practice unmeasurable).
//! Aggregation (counters/spans/histograms) is enabled by
//! [`enable_stats`]; event emission is enabled by installing a sink with
//! [`set_sink`]. Installing a sink implies stats.
//!
//! # Determinism contract
//!
//! When several threads (the server's workers) are instrumented, raw event
//! *order* across them is scheduler-dependent, but every **aggregate** is
//! not: counters are atomic sums of the same bump set, histograms are
//! atomic bucket counts, and the timing tree is keyed by span *path*, so
//! its shape (node set, nesting, per-node call counts) does not depend on
//! the interleaving — only wall-clock durations vary. Sinks receive
//! per-thread events as they close; [`flush_aggregates`] then emits the
//! merged registries in deterministic (sorted) order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod expo;
pub mod json;
pub mod log;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;

pub use event::Event;
pub use log::{set_level, Level};
pub use metrics::{
    counter_add, counter_get, gauge_set, histogram_record, HistogramExport, HistogramSummary,
};
pub use sink::{JsonlSink, MemorySink, ObsSink};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Fast gate for the aggregation instruments (spans, counters,
/// histograms). Relaxed is sufficient: a stale read only delays the first
/// few bumps after enabling, never corrupts state.
static STATS: AtomicBool = AtomicBool::new(false);
/// Fast gate for event emission, mirrored from the sink slot so the hot
/// path never takes the `RwLock`.
static SINK_INSTALLED: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn ObsSink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn ObsSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// `true` when the aggregation instruments are live (stats enabled or a
/// sink installed). Instrumented hot paths early-return on `false`.
#[inline]
pub fn enabled() -> bool {
    STATS.load(Ordering::Relaxed) || SINK_INSTALLED.load(Ordering::Relaxed)
}

/// `true` when a sink is installed (events will be recorded).
#[inline]
pub fn sink_installed() -> bool {
    SINK_INSTALLED.load(Ordering::Relaxed)
}

/// Turns the aggregation instruments on or off without touching the sink.
/// The experiments binary enables stats so the end-of-run text report has
/// data even when no trace is being written.
pub fn enable_stats(on: bool) {
    STATS.store(on, Ordering::Relaxed);
}

/// Installs the global event sink, replacing any previous one.
pub fn set_sink(sink: Arc<dyn ObsSink>) {
    *sink_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(sink);
    SINK_INSTALLED.store(true, Ordering::Relaxed);
}

/// Creates (truncating) a JSON-lines trace file at `path` and installs it
/// as the global event sink — what the binaries' `--trace-out` flag does.
pub fn install_trace_file(path: &std::path::Path) -> std::io::Result<()> {
    set_sink(Arc::new(JsonlSink::create(path)?));
    Ok(())
}

/// Removes the global event sink (reverting to the implicit null sink).
pub fn clear_sink() {
    SINK_INSTALLED.store(false, Ordering::Relaxed);
    *sink_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Records one event into the installed sink, if any.
pub fn emit(event: &Event) {
    if !sink_installed() {
        return;
    }
    if let Some(sink) = sink_slot().read().unwrap_or_else(std::sync::PoisonError::into_inner).as_ref() {
        sink.record(event);
    }
}

/// Flushes the installed sink (no-op without one).
pub fn flush_sink() {
    if !sink_installed() {
        return;
    }
    if let Some(sink) = sink_slot().read().unwrap_or_else(std::sync::PoisonError::into_inner).as_ref() {
        sink.flush();
    }
}

/// Emits one per-iteration convergence event for an iterative solver and
/// folds the residual into the `<solver>.residual` histogram.
pub fn solver_iteration(solver: &'static str, iter: usize, residual: f64, step: f64) {
    if !enabled() {
        return;
    }
    metrics::histogram_record_str(format!("{solver}.residual"), residual);
    emit(&Event::SolverIteration {
        solver,
        iter,
        residual,
        step,
    });
}

/// Emits every counter, gauge and histogram in the registries as events
/// (in sorted-name order) and resets nothing — call at the end of an
/// experiment so traces contain the final aggregate values.
pub fn flush_aggregates() {
    if !sink_installed() {
        return;
    }
    for (name, value) in metrics::counter_snapshot() {
        emit(&Event::Counter { name, value });
    }
    for (name, value) in metrics::gauge_snapshot() {
        emit(&Event::Gauge { name, value });
    }
    for (name, h) in metrics::histogram_snapshot() {
        emit(&Event::Histogram {
            name,
            count: h.count,
            min: h.min,
            max: h.max,
            mean: h.mean,
            p50: h.p50,
            p90: h.p90,
            p95: h.p95,
            p99: h.p99,
        });
    }
}

/// Clears every aggregate registry (counters, gauges, histograms, timing
/// tree). Used between experiments and by tests.
pub fn reset() {
    metrics::reset();
    span::reset_timings();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Global-state tests must not interleave.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_gates_work() {
        let _g = TEST_LOCK.lock().unwrap();
        clear_sink();
        enable_stats(false);
        assert!(!enabled());
        counter_add("never", 3);
        assert_eq!(counter_get("never"), 0);

        enable_stats(true);
        assert!(enabled());
        counter_add("now", 2);
        assert_eq!(counter_get("now"), 2);
        enable_stats(false);
        reset();
    }

    #[test]
    fn sink_receives_events_and_implies_enabled() {
        let _g = TEST_LOCK.lock().unwrap();
        clear_sink();
        enable_stats(false);
        let mem = Arc::new(MemorySink::new());
        set_sink(mem.clone());
        assert!(enabled() && sink_installed());
        emit(&Event::Counter {
            name: "x".into(),
            value: 7,
        });
        let events = mem.events();
        assert_eq!(events.len(), 1);
        clear_sink();
        emit(&Event::Counter {
            name: "y".into(),
            value: 1,
        });
        assert_eq!(mem.events().len(), 1, "no recording after clear_sink");
        reset();
    }

    #[test]
    fn flush_aggregates_emits_sorted_registry_events() {
        let _g = TEST_LOCK.lock().unwrap();
        clear_sink();
        reset();
        let mem = Arc::new(MemorySink::new());
        set_sink(mem.clone());
        counter_add("b_counter", 2);
        counter_add("a_counter", 1);
        gauge_set("g", 0.5);
        histogram_record("h", 1.0);
        flush_aggregates();
        let kinds: Vec<&'static str> = mem.events().iter().map(Event::kind).collect();
        assert_eq!(kinds, vec!["counter", "counter", "gauge", "histogram"]);
        match &mem.events()[0] {
            Event::Counter { name, value } => {
                assert_eq!(name, "a_counter");
                assert_eq!(*value, 1);
            }
            other => panic!("unexpected event {other:?}"),
        }
        clear_sink();
        reset();
    }
}
