//! `selearn-serve` — the production serving layer for learned selectivity
//! estimators.
//!
//! A trained model (Section 3 of the paper) is only useful to a query
//! optimizer if it can answer over the wire at query-planning latencies.
//! This crate turns any [`selearn_core::SelectivityEstimator`] into a TCP
//! service with the operational affordances a planner-facing component
//! needs:
//!
//! * **Wire protocol** ([`protocol`]) — one JSON object per line in, one
//!   per line out; dependency-free parsing and rendering
//!   ([`selearn_obs::json`]).
//! * **Worker pool + bounded queue** ([`server`], [`queue`]) — a fixed
//!   number of evaluation threads behind an admission-controlled queue.
//! * **Hot-swap registry** ([`registry`]) — named models behind
//!   `RwLock<(Arc<dyn …>, generation)>`; refits swap in atomically and
//!   in-flight requests keep their handle.
//! * **Estimate cache** ([`cache`]) — sharded LRU keyed by
//!   [quantized](selearn_core::quantize_rect_key) query rects and model
//!   generation.
//! * **Graceful degradation** — overload, queue-deadline expiry, and
//!   exhausted tenant quotas all answer with the uniform-selectivity
//!   fallback, flagged `"degraded":true` with a reason, never with
//!   silence.
//! * **Durable feedback** ([`feedback`]) — observed selectivities stream
//!   through a [`FeedbackSink`] into a write-ahead-logged
//!   [`selearn_store::ModelStore`]; every ack carries the record's WAL
//!   LSN, and periodic checkpoints hot-swap a frozen snapshot of the
//!   online model back into the registry.
//! * **Load generation** ([`client`]) — closed- and open-loop replay with
//!   client-observed latency percentiles, driving the `selearn-load` bin.
//! * **Admin plane** ([`ServerConfig::admin_addr`]) — a std-only HTTP
//!   listener beside the data port, served by the same event loop:
//!   `/metrics` (Prometheus exposition), `/healthz`, `/readyz` (queue,
//!   store, and drift-aware readiness), `/stats`.
//! * **Drift monitor** ([`drift`]) — every WAL-acked feedback record is
//!   scored against the currently served model into rolling q-error
//!   windows; sustained breaches raise a scrapeable alarm.
//!
//! Serving counts (requests, degradations by reason, errors, cache hits
//! and misses, …) live once, in each server's [`ServeStats`] and
//! [`EstimateCache`]; `/stats` and `/metrics` read them there. The
//! process-wide `selearn-obs` registries carry the rest: `serve.qps` /
//! `serve.queue_depth` gauges, the `serve.latency_us` and
//! `serve.stage_us{stage="queue_wait|cache_hit|estimate|wal_append"}`
//! histograms (µs from receipt to answer, and to each stage a request
//! reaches), and the per-tenant, model-swap, feedback and drift counters.

// `deny` (not `forbid`) so the one scoped `#[allow(unsafe_code)]` in
// `poller::sys` — the crate's single `poll(2)` declaration — can exist;
// everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admin;
pub mod cache;
pub mod client;
pub mod drift;
pub mod feedback;
pub mod poller;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod synth;

pub use admin::render_metrics;
pub use cache::{CacheKey, EstimateCache};
pub use drift::{DriftConfig, DriftMonitor, DriftStatus};
pub use client::{parse_response, run_load, Client, LoadOptions, LoadReport};
pub use feedback::{DurableFeedback, FeedbackAck, FeedbackSink};
pub use protocol::{
    parse_line, DegradeReason, Feedback, Request, RequestLine, Response, Shape, ShapeKind,
    DEFAULT_MODEL,
};
pub use queue::BoundedQueue;
pub use registry::{
    tenant_namespace, uniform_fallback, ModelRegistry, ModelSlot, Tenant, TokenBucket,
};
pub use server::{start, start_with_feedback, ServeStats, ServerConfig, ServerHandle};
