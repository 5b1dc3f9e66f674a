//! The traced run's instruments, all on the benchmark's side: an
//! in-memory span log around calls into each layer, per-call timing of a
//! layer's public functions, and the program's own `selearn-obs` events
//! collected in a memory sink. Everything is written out when the run
//! ends.

use selearn_obs::{Event, MemorySink};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span: `trace` groups the spans of one request or probe,
/// `parent` is the id of the span that caused it (0 = none).
struct SpanRec {
    id: u64,
    parent: u64,
    trace: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    sink: Arc<MemorySink>,
}

impl Tracer {
    /// Starts collecting: installs a memory sink for the program's obs
    /// events (which also switches on its counters and span timings).
    pub fn start() -> Self {
        selearn_obs::reset();
        let sink = Arc::new(MemorySink::new());
        selearn_obs::set_sink(sink.clone());
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            sink,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that has already closed; returns its id.
    pub fn record(&self, name: &str, parent: u64, trace: u64, start: Instant, end: Instant) -> u64 {
        let mut spans = self.spans.lock().expect("span log lock");
        let id = spans.len() as u64 + 1;
        spans.push(SpanRec {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, parent, start, Instant::now());
        out
    }

    /// Program obs events collected so far (drained).
    pub fn take_events(&self) -> Vec<Event> {
        self.sink.take()
    }

    /// Number of program obs events collected and not yet drained.
    pub fn pending_events(&self) -> usize {
        self.sink.len()
    }

    /// Program obs events collected after the first `from` still pending
    /// (not drained).
    pub fn events_since(&self, from: usize) -> Vec<Event> {
        self.sink.events().split_off(from)
    }

    /// Writes spans, the program's obs events and its span-timing tree as
    /// JSON lines, then uninstalls the sink.
    pub fn finish(self, path: &Path, events: &[Event]) {
        selearn_obs::flush_aggregates();
        let mut out = Vec::new();
        for s in self.spans.lock().expect("span log lock").iter() {
            let _ = writeln!(
                out,
                "{{\"type\":\"bench_span\",\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        for e in events.iter().chain(self.sink.take().iter()) {
            let _ = writeln!(out, "{}", e.to_json());
        }
        for (path, stat) in selearn_obs::span::timing_snapshot() {
            let _ = writeln!(
                out,
                "{{\"type\":\"obs_timing\",\"path\":\"{path}\",\"count\":{},\"total_ns\":{}}}",
                stat.count, stat.total_ns
            );
        }
        selearn_obs::clear_sink();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

/// Median per-call microseconds of `f` over `calls` calls, timed in
/// blocks of `block` calls so clock reads stay out of sub-microsecond
/// figures.
pub fn per_call_us(calls: usize, block: usize, mut f: impl FnMut(usize)) -> f64 {
    let block = block.max(1);
    let mut samples = Vec::with_capacity(calls / block + 1);
    let mut i = 0;
    while i < calls {
        let n = block.min(calls - i);
        let t0 = Instant::now();
        for k in 0..n {
            f(i + k);
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / n as f64);
        i += n;
    }
    crate::stats::quantile(&mut samples, 0.5)
}

/// Median milliseconds of `reps` calls of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::quantile(&mut samples, 0.5)
}

/// Iterations and convergence of the solver reports among `events`.
pub fn solver_reports(events: &[Event]) -> Vec<(usize, bool)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::SolverReport {
                iters, converged, ..
            } => Some((*iters, *converged)),
            _ => None,
        })
        .collect()
}
