//! The in-memory event sink.
//!
//! [`MemorySink`] is the one sink: installed with [`crate::set_sink`], it
//! buffers every emitted [`Event`] (solver reports, the
//! [`crate::flush_aggregates`] snapshot) for a reader in the same process.
//! `record` is called concurrently from any instrumented thread and never
//! panics.

use crate::event::Event;
use std::sync::Mutex;

/// Buffers events in memory for in-process readers.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event.
    pub(crate) fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
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
