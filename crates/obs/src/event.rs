//! Structured event taxonomy.
//!
//! Every observable fact in the pipeline is one of these variants; the
//! `kind` string is the stable wire identifier used in JSONL output and
//! asserted by the acceptance criteria (≥ 6 distinct kinds in a trace).

use crate::json::{escape_into, fmt_f64_into};

/// One structured observability event.
///
/// Names use `String` (not `&'static str`) so dynamically composed names
/// (`"fista.residual"`, per-method spans) work; hot paths that only bump
/// aggregates never allocate — events are built at flush/report time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed span: full '/'-joined path, nesting depth and duration.
    Span {
        /// '/'-joined path from the root span, e.g. `fit.quadhist/solve`.
        path: String,
        /// Nesting depth (root span = 0).
        depth: usize,
        /// Wall-clock duration in microseconds.
        wall_us: u64,
    },
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
    /// One iteration of an iterative solver.
    SolverIteration {
        /// Solver identifier (`nnls`, `fista`, `ipf`, `linf-smoothed`).
        solver: &'static str,
        /// Iteration index (0-based).
        iter: usize,
        /// Residual / objective value at this iteration.
        residual: f64,
        /// Step size (or pass-specific scalar; 0.0 when not applicable).
        step: f64,
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
    /// Quantile summary of an error metric (q-error over a test workload).
    MetricsSummary {
        /// Metric name, e.g. `q_error`.
        name: String,
        /// Number of observations summarised.
        count: usize,
        /// 50th percentile.
        p50: f64,
        /// 90th percentile.
        p90: f64,
        /// 95th percentile.
        p95: f64,
        /// 99th percentile.
        p99: f64,
        /// Maximum.
        max: f64,
    },
    /// A leveled log line.
    Log {
        /// `warn`, `info` or `debug`.
        level: &'static str,
        /// Message text.
        message: String,
    },
}

impl Event {
    /// Stable wire identifier of this event's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Span { .. } => "span",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "histogram",
            Event::SolverIteration { .. } => "solver-iteration",
            Event::SolverReport { .. } => "solver-report",
            Event::MetricsSummary { .. } => "metrics-summary",
            Event::Log { .. } => "log",
        }
    }

    /// Renders the event as one compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"kind\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::Span {
                path,
                depth,
                wall_us,
            } => {
                s.push_str(",\"path\":");
                escape_into(&mut s, path);
                s.push_str(",\"depth\":");
                s.push_str(&depth.to_string());
                s.push_str(",\"wall_us\":");
                s.push_str(&wall_us.to_string());
            }
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
            Event::SolverIteration {
                solver,
                iter,
                residual,
                step,
            } => {
                s.push_str(",\"solver\":");
                escape_into(&mut s, solver);
                s.push_str(",\"iter\":");
                s.push_str(&iter.to_string());
                s.push_str(",\"residual\":");
                fmt_f64_into(&mut s, *residual);
                s.push_str(",\"step\":");
                fmt_f64_into(&mut s, *step);
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
            Event::MetricsSummary {
                name,
                count,
                p50,
                p90,
                p95,
                p99,
                max,
            } => {
                s.push_str(",\"name\":");
                escape_into(&mut s, name);
                s.push_str(",\"count\":");
                s.push_str(&count.to_string());
                for (key, v) in [
                    ("p50", p50),
                    ("p90", p90),
                    ("p95", p95),
                    ("p99", p99),
                    ("max", max),
                ] {
                    s.push_str(",\"");
                    s.push_str(key);
                    s.push_str("\":");
                    fmt_f64_into(&mut s, *v);
                }
            }
            Event::Log { level, message } => {
                s.push_str(",\"level\":");
                escape_into(&mut s, level);
                s.push_str(",\"message\":");
                escape_into(&mut s, message);
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
            Event::Span {
                path: "fit.quadhist/solve".into(),
                depth: 1,
                wall_us: 1234,
            },
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
            Event::SolverIteration {
                solver: "fista",
                iter: 3,
                residual: 1e-6,
                step: 0.01,
            },
            Event::SolverReport {
                solver: "nnls",
                iters: 17,
                max_iters: 600,
                converged: true,
                final_residual: 2.5e-9,
            },
            Event::MetricsSummary {
                name: "q_error".into(),
                count: 1000,
                p50: 1.1,
                p90: 1.9,
                p95: 2.4,
                p99: 4.0,
                max: 11.0,
            },
            Event::Log {
                level: "info",
                message: "quoted \"text\" and\nnewline".into(),
            },
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for e in &events {
            let js = e.to_json();
            assert!(matches!(parse(&js), Ok(Json::Obj(_))), "invalid JSON: {js}");
            kinds.insert(e.kind());
        }
        assert_eq!(kinds.len(), 8, "eight distinct event kinds");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::Gauge {
            name: "g".into(),
            value: f64::NAN,
        };
        assert!(e.to_json().contains("\"value\":null"));
        let e = Event::SolverIteration {
            solver: "fista",
            iter: 0,
            residual: f64::INFINITY,
            step: 0.0,
        };
        assert!(e.to_json().contains("\"residual\":null"));
    }
}
