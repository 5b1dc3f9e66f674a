//! Hierarchical timing spans.
//!
//! [`span`] returns an RAII guard; while it lives, its name sits on a
//! thread-local stack, so nested guards form '/'-joined paths
//! (`fit.quadhist/assemble`). On drop, the guard (a) folds the duration
//! into a global path-keyed timing registry — a `BTreeMap`, so the
//! rendered tree is deterministically ordered — and (b) emits a
//! [`Event::Span`] if a sink is installed.
//!
//! Each thread (e.g. each serve worker) has its own stack, so a span
//! opened on one thread nests under whatever that thread has open
//! (usually nothing) rather than corrupting another thread's stack.

use crate::event::Event;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregate for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times this exact path was entered.
    pub count: u64,
    /// Total wall time across entries, in nanoseconds.
    pub total_ns: u64,
}

fn registry() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static REG: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
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
        let elapsed = start.elapsed();
        let (path, depth) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            (path, stack.len())
        });
        {
            let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let stat = reg.entry(path.clone()).or_default();
            stat.count += 1;
            stat.total_ns += elapsed.as_nanos() as u64;
        }
        crate::emit(&Event::Span {
            path,
            depth,
            wall_us: elapsed.as_micros() as u64,
        });
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

/// Snapshot of the timing registry, sorted by path.
pub fn timing_snapshot() -> Vec<(String, SpanStat)> {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Clears the timing registry (the thread-local stacks empty themselves
/// as guards drop).
pub fn reset_timings() {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
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
