//! Events a [`crate::MemorySink`] collects: the registries' aggregates
//! ([`crate::flush_aggregates`]) and one report per solver exit. The
//! `kind` string and [`Event::to_json`] give each a one-line rendering.

use crate::json::{escape_into, fmt_f64_into};

/// One structured observability event.
///
/// Names use `String` (not `&'static str`) so labelled registry names
/// (`span.wall_us{path="…"}`) work; hot paths that only bump aggregates
/// never allocate — aggregate events are built at flush time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Final value of a monotonic counter.
    Counter {
        /// Registry name, e.g. `mc_samples_drawn`.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// Latest value of a gauge.
    Gauge {
        /// Registry name.
        name: String,
        /// Last value set.
        value: f64,
    },
    /// Summary of a recorded distribution.
    Histogram {
        /// Registry name, e.g. `predict.latency_us`.
        name: String,
        /// Number of samples recorded.
        count: u64,
        /// Minimum sample.
        min: f64,
        /// Maximum sample.
        max: f64,
        /// Arithmetic mean.
        mean: f64,
        /// Approximate median (sub-bucket midpoint).
        p50: f64,
        /// Approximate 90th percentile.
        p90: f64,
        /// Approximate 95th percentile.
        p95: f64,
        /// Approximate 99th percentile.
        p99: f64,
    },
    /// Terminal summary of one solve call.
    SolverReport {
        /// Solver identifier.
        solver: &'static str,
        /// Iterations actually performed.
        iters: usize,
        /// Iteration budget.
        max_iters: usize,
        /// Whether the convergence criterion was met (vs budget exhausted).
        converged: bool,
        /// Residual at exit.
        final_residual: f64,
    },
}

impl Event {
    /// Stable wire identifier of this event's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "histogram",
            Event::SolverReport { .. } => "solver-report",
        }
    }

    /// Renders the event as one compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"kind\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::Counter { name, value } => {
                s.push_str(",\"name\":");
                escape_into(&mut s, name);
                s.push_str(",\"value\":");
                s.push_str(&value.to_string());
            }
            Event::Gauge { name, value } => {
                s.push_str(",\"name\":");
                escape_into(&mut s, name);
                s.push_str(",\"value\":");
                fmt_f64_into(&mut s, *value);
            }
            Event::Histogram {
                name,
                count,
                min,
                max,
                mean,
                p50,
                p90,
                p95,
                p99,
            } => {
                s.push_str(",\"name\":");
                escape_into(&mut s, name);
                s.push_str(",\"count\":");
                s.push_str(&count.to_string());
                for (key, v) in [
                    ("min", min),
                    ("max", max),
                    ("mean", mean),
                    ("p50", p50),
                    ("p90", p90),
                    ("p95", p95),
                    ("p99", p99),
                ] {
                    s.push_str(",\"");
                    s.push_str(key);
                    s.push_str("\":");
                    fmt_f64_into(&mut s, *v);
                }
            }
            Event::SolverReport {
                solver,
                iters,
                max_iters,
                converged,
                final_residual,
            } => {
                s.push_str(",\"solver\":");
                escape_into(&mut s, solver);
                s.push_str(",\"iters\":");
                s.push_str(&iters.to_string());
                s.push_str(",\"max_iters\":");
                s.push_str(&max_iters.to_string());
                s.push_str(",\"converged\":");
                s.push_str(if *converged { "true" } else { "false" });
                s.push_str(",\"final_residual\":");
                fmt_f64_into(&mut s, *final_residual);
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn every_kind_serialises_to_valid_json() {
        let events = [
            Event::Counter {
                name: "mc_samples_drawn".into(),
                value: 42,
            },
            Event::Gauge {
                name: "tau".into(),
                value: 0.015,
            },
            Event::Histogram {
                name: "predict.latency_us".into(),
                count: 10,
                min: 0.5,
                max: 9.0,
                mean: 3.2,
                p50: 3.0,
                p90: 8.0,
                p95: 8.5,
                p99: 9.0,
            },
            Event::SolverReport {
                solver: "nnls",
                iters: 17,
                max_iters: 600,
                converged: true,
                final_residual: 2.5e-9,
            },
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for e in &events {
            let js = e.to_json();
            assert!(matches!(parse(&js), Ok(Json::Obj(_))), "invalid JSON: {js}");
            kinds.insert(e.kind());
        }
        assert_eq!(kinds.len(), 4, "four distinct event kinds");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::Gauge {
            name: "g".into(),
            value: f64::NAN,
        };
        assert!(e.to_json().contains("\"value\":null"));
        let e = Event::SolverReport {
            solver: "fista",
            iters: 700,
            max_iters: 700,
            converged: false,
            final_residual: f64::INFINITY,
        };
        assert!(e.to_json().contains("\"final_residual\":null"));
    }
}
