//! Hierarchical timing spans, recorded as histograms.
//!
//! [`span`] returns an RAII guard; while it lives, its name sits on a
//! thread-local stack, so nested guards form '/'-joined paths
//! (`fit.quadhist/assemble`). On drop, the guard records its wall time in
//! µs into the histogram `span.wall_us{path="<path>"}`, one series per
//! path, which `/metrics` renders like any other histogram. Span names
//! are code literals and must not contain `"` or `\`.
//!
//! Each thread (e.g. each serve worker) has its own stack, so a span
//! opened on one thread nests under whatever that thread has open
//! (usually nothing) rather than corrupting another thread's stack.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Registry name of a span histogram up to its path.
const PREFIX: &str = "span.wall_us{path=\"";
/// Registry name of a span histogram after its path.
const SUFFIX: &str = "\"}";

/// Aggregate for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times this exact path was entered.
    pub count: u64,
    /// Total wall time across entries, in nanoseconds.
    pub total_ns: u64,
}

/// RAII guard for one timed span; created by [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span named `name` on the current thread. When observability is
/// disabled ([`crate::enabled`] is false) this is a single branch and the
/// returned guard is inert.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall_us = start.elapsed().as_nanos() as f64 / 1e3;
        let name = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let mut name = String::with_capacity(64);
            name.push_str(PREFIX);
            for (i, part) in stack.iter().enumerate() {
                if i > 0 {
                    name.push('/');
                }
                name.push_str(part);
            }
            name.push_str(SUFFIX);
            stack.pop();
            name
        });
        crate::histogram_record(&name, wall_us);
    }
}

/// Opens a span; identical to calling [`span`], provided as a macro so
/// call sites read as annotations: `let _s = selearn_obs::span!("fit.quadhist");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Count and total wall time of every span path, sorted by path, read
/// from the `span.wall_us` histograms.
pub fn timing_snapshot() -> Vec<(String, SpanStat)> {
    let mut spans: Vec<(String, SpanStat)> = crate::metrics::histogram_export_snapshot()
        .into_iter()
        .filter_map(|(name, h)| {
            let path = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
            let stat = SpanStat {
                count: h.count,
                total_ns: (h.sum * 1e3).round() as u64,
            };
            Some((path.to_string(), stat))
        })
        .collect();
    spans.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn nested_spans_build_joined_paths() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::reset();
        crate::enable_stats(true);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        crate::enable_stats(false);
        let snap = timing_snapshot();
        let paths: Vec<(&str, u64)> = snap.iter().map(|(p, s)| (p.as_str(), s.count)).collect();
        assert_eq!(paths, vec![("outer", 1), ("outer/inner", 2)]);
        let inner = crate::metrics::histogram_get("span.wall_us{path=\"outer/inner\"}").unwrap();
        assert_eq!(inner.count, 2);
        crate::reset();
    }

    #[test]
    fn disabled_spans_touch_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::enable_stats(false);
        crate::reset();
        {
            let _s = span("ghost");
        }
        assert!(timing_snapshot().is_empty());
    }
}
