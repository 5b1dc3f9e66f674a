//! Pluggable event sinks.
//!
//! The sink contract ([`ObsSink`]) is deliberately tiny: `record` must be
//! callable concurrently from any thread (the trait requires
//! `Send + Sync`), must not panic, and should be cheap — instrumented
//! code calls it synchronously. `flush` is best-effort and called at
//! experiment boundaries, not per event.

use crate::event::Event;
use std::sync::Mutex;

/// Receives structured events. Implementations must tolerate concurrent
/// `record` calls (events arrive from serve worker threads).
pub trait ObsSink: Send + Sync {
    /// Records one event. Must not panic.
    fn record(&self, event: &Event);
    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Buffers events in memory for test assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObsSink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

/// Writes one JSON object per line to a file (the `--trace-out` format).
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl ObsSink for JsonlSink {
    fn record(&self, event: &Event) {
        use std::io::Write;
        let line = event.to_json();
        // Sinks must not panic: swallow I/O errors (disk-full traces are
        // best-effort diagnostics, not results).
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
    }

    fn flush(&self) {
        use std::io::Write;
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}
