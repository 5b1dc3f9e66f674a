//! `selearn-obs` — zero-dependency observability for the
//! selectivity-learning pipeline.
//!
//! Every other `selearn-*` crate links against this one, so it is built
//! from scratch on `std` alone (the workspace is offline-vendored; no
//! registry crates). It keeps two instruments, and one output format for
//! both, the Prometheus text exposition of [`expo::render`]:
//!
//! * **Counters & gauges** — monotonic [`counter_add`] / latest-value
//!   [`gauge_set`] registries backed by `AtomicU64`, safe to bump from
//!   serve worker threads;
//! * **Histograms** — lock-free log₂-bucketed distributions
//!   ([`histogram_record`]). Timing spans ([`span()`] / the [`span!`]
//!   macro) nest through a thread-local stack and record their wall µs
//!   into `span.wall_us{path="fit.quadhist/assemble"}`; solver exits
//!   record `solver.iters{solver="…"}` and `solver.final_residual{…}`.
//!
//! A [`MemorySink`] installed with [`set_sink`] also collects solver
//! reports and the [`flush_aggregates`] snapshot as [`Event`]s, for
//! in-process readers (the golden-weight tests, the benchmark's traced
//! runs).
//!
//! # Overhead contract
//!
//! Everything is **off by default**: with no sink installed and stats
//! disabled, every instrumentation call is a single relaxed atomic load
//! and a predictable branch — the no-sink configuration budgeted at
//! < 5 % end-to-end overhead in DESIGN.md (in practice unmeasurable).
//! Aggregation is enabled by [`enable_stats`]; installing a sink implies
//! stats.
//!
//! # Determinism contract
//!
//! When several threads (the server's workers) are instrumented, every
//! aggregate is independent of the interleaving: counters are atomic sums
//! of the same bump set, histograms are atomic bucket counts, and span
//! histograms are keyed by span *path*, so their set and per-path counts
//! do not depend on the scheduler — only wall-clock durations vary.

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
pub mod sink;
pub mod span;

pub use event::Event;
pub use log::Level;
pub use metrics::{
    counter_add, counter_get, gauge_set, histogram_record, HistogramExport, HistogramSummary,
};
pub use sink::MemorySink;
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Fast gate for the aggregation instruments. Relaxed is sufficient: a
/// stale read only delays the first few bumps after enabling, never
/// corrupts state.
static STATS: AtomicBool = AtomicBool::new(false);
/// Fast gate for event collection, mirrored from the sink slot so the hot
/// path never takes the `RwLock`.
static SINK_INSTALLED: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<MemorySink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<MemorySink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// `true` when the aggregation instruments are live (stats enabled or a
/// sink installed). Instrumented hot paths early-return on `false`.
#[inline]
pub fn enabled() -> bool {
    STATS.load(Ordering::Relaxed) || SINK_INSTALLED.load(Ordering::Relaxed)
}

/// Turns the aggregation instruments on or off without touching the sink.
/// The binaries turn them on when asked for `--metrics-out` (and the
/// server also for `--stats` or `--admin-addr`).
pub fn enable_stats(on: bool) {
    STATS.store(on, Ordering::Relaxed);
}

/// Installs the global event sink, replacing any previous one.
pub fn set_sink(sink: Arc<MemorySink>) {
    *sink_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(sink);
    SINK_INSTALLED.store(true, Ordering::Relaxed);
}

/// Removes the global event sink.
pub fn clear_sink() {
    SINK_INSTALLED.store(false, Ordering::Relaxed);
    *sink_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Records one event into the installed sink, if any.
pub fn emit(event: &Event) {
    if !SINK_INSTALLED.load(Ordering::Relaxed) {
        return;
    }
    if let Some(sink) = sink_slot().read().unwrap_or_else(std::sync::PoisonError::into_inner).as_ref() {
        sink.record(event);
    }
}

/// Emits every counter, gauge and histogram in the registries as events
/// (in sorted-name order) into the installed sink and resets nothing.
pub fn flush_aggregates() {
    if !SINK_INSTALLED.load(Ordering::Relaxed) {
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

/// Clears every registry (counters, gauges, histograms — span timings
/// included). Used between experiments and by tests.
pub fn reset() {
    metrics::reset();
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
        assert!(enabled());
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
