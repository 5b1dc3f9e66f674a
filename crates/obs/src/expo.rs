//! Prometheus text exposition (version 0.0.4) for the metric registries.
//!
//! [`render`] walks the counter, gauge and histogram registries, plus the
//! counters its caller keeps itself (the server's own serving stats), and
//! produces the `text/plain` body served by the admin plane's `/metrics`
//! endpoint. The registries keep their internal dotted names
//! (`serve.latency_us`); exposition rewrites them to the Prometheus
//! grammar (`serve_latency_us`) without touching the registries, so
//! existing JSONL traces and text reports are unchanged.
//!
//! # Label convention
//!
//! A registry name may carry a literal label suffix, e.g.
//! `serve.qerror_p95{model="default"}`. Only the part before the first
//! `{` is sanitised; the suffix is passed through verbatim, which lets
//! per-model series share one metric family:
//!
//! ```text
//! # TYPE serve_qerror_p95 gauge
//! serve_qerror_p95{model="default"} 1.3
//! serve_qerror_p95{model="canary"} 2.7
//! ```
//!
//! Histograms follow the cumulative-bucket convention: `_bucket` lines
//! with `le` upper bounds (the registry's sub-bucket edges), a closing
//! `le="+Inf"` equal to `_count`, and an exact `_sum`.

use crate::metrics::{counter_snapshot, gauge_snapshot, histogram_export_snapshot};
use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Marks the process start time for `process_uptime_seconds`. Idempotent;
/// the first call wins. Called by the admin plane on startup, but safe to
/// call from anywhere (tests, other bins).
pub fn mark_start() {
    let _ = START.get_or_init(Instant::now);
}

/// Seconds since [`mark_start`] was first called, or `0.0` if it never was.
pub fn uptime_seconds() -> f64 {
    START.get().map_or(0.0, |s| s.elapsed().as_secs_f64())
}

/// Splits a registry name into a sanitised Prometheus metric name and a
/// verbatim `{label="value"}` suffix (empty when the name carries none).
///
/// Sanitisation maps `.` (and any other character outside
/// `[a-zA-Z0-9_:]`) to `_`, and prefixes `_` when the name would start
/// with a digit, matching the Prometheus metric-name grammar.
pub fn sanitize(name: &str) -> (String, &str) {
    let (raw, labels) = match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    };
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, c) in raw.chars().enumerate() {
        let keep = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if keep {
            out.push(c);
        } else if c.is_ascii_digit() {
            // leading digit: prefix rather than drop, to stay unambiguous
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    (out, labels)
}

/// Escapes a label value for the text exposition: `\`, `"` and newline
/// become `\\`, `\"` and `\n`, so any string (a model or tenant
/// name from a client) renders as one well-formed `{label="value"}`.
pub fn escape_label_value(value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            c => escaped.push(c),
        }
    }
    escaped
}

/// Formats a sample value the way the exposition format expects:
/// `NaN`, `+Inf`, `-Inf`, or the shortest round-trip decimal.
fn fmt_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        // Rust's `{}` for f64 is the shortest round-trip decimal.
        let _ = std::fmt::Write::write_fmt(out, format_args!("{v}"));
    }
}

/// Emits one `# TYPE` header the first time a metric family appears.
/// Snapshots are name-sorted, so same-family series (differing only in
/// labels) are adjacent and share a single header.
fn type_header(out: &mut String, last: &mut String, family: &str, kind: &str) {
    if family != last.as_str() {
        out.push_str("# TYPE ");
        out.push_str(family);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        last.clear();
        last.push_str(family);
    }
}

/// Renders the full exposition body: every counter (as `counter`), every
/// gauge (as `gauge`), every histogram (as `histogram` with cumulative
/// `le` buckets, `_sum` and `_count`), plus `process_uptime_seconds`.
/// `counters` are `(registry-style name, value)` pairs the caller keeps
/// outside the registry; they render in the same name-sorted counter pass,
/// whether or not stats are enabled. Deterministic: every pass is in
/// sorted-name order.
pub fn render(counters: &[(&str, u64)]) -> String {
    let mut out = String::with_capacity(4096);
    let mut last_family = String::new();

    let mut all = counter_snapshot();
    all.extend(
        counters
            .iter()
            .map(|&(name, value)| (name.to_string(), value)),
    );
    all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (name, value) in all {
        let (family, labels) = sanitize(&name);
        type_header(&mut out, &mut last_family, &family, "counter");
        out.push_str(&family);
        out.push_str(labels);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }

    last_family.clear();
    for (name, value) in gauge_snapshot() {
        let (family, labels) = sanitize(&name);
        type_header(&mut out, &mut last_family, &family, "gauge");
        out.push_str(&family);
        out.push_str(labels);
        out.push(' ');
        fmt_value(&mut out, value);
        out.push('\n');
    }

    last_family.clear();
    for (name, export) in histogram_export_snapshot() {
        let (family, labels) = sanitize(&name);
        type_header(&mut out, &mut last_family, &family, "histogram");
        // `{model="x"}` + `le` must merge into one label set.
        let label_body = labels
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .unwrap_or("");
        for (upper, cumulative) in &export.cumulative {
            out.push_str(&family);
            out.push_str("_bucket{");
            if !label_body.is_empty() {
                out.push_str(label_body);
                out.push(',');
            }
            out.push_str("le=\"");
            fmt_value(&mut out, *upper);
            out.push_str("\"} ");
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
        out.push_str(&family);
        out.push_str("_bucket{");
        if !label_body.is_empty() {
            out.push_str(label_body);
            out.push(',');
        }
        out.push_str("le=\"+Inf\"} ");
        out.push_str(&export.count.to_string());
        out.push('\n');
        out.push_str(&family);
        out.push_str("_sum");
        out.push_str(labels);
        out.push(' ');
        fmt_value(&mut out, export.sum);
        out.push('\n');
        out.push_str(&family);
        out.push_str("_count");
        out.push_str(labels);
        out.push(' ');
        out.push_str(&export.count.to_string());
        out.push('\n');
    }

    out.push_str("# TYPE process_uptime_seconds gauge\nprocess_uptime_seconds ");
    fmt_value(&mut out, uptime_seconds());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;
    use crate::{counter_add, enable_stats, gauge_set, histogram_record, reset};

    #[test]
    fn sanitize_rewrites_dots_and_preserves_labels() {
        assert_eq!(sanitize("serve.latency_us"), ("serve_latency_us".into(), ""));
        assert_eq!(
            sanitize("serve.qerror_p95{model=\"default\"}"),
            ("serve_qerror_p95".into(), "{model=\"default\"}")
        );
        assert_eq!(sanitize("1weird-name"), ("_1weird_name".into(), ""));
        assert_eq!(sanitize("solver:residual"), ("solver:residual".into(), ""));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("default"), "default");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn render_produces_valid_exposition() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        enable_stats(true);
        mark_start();
        counter_add("serve.requests", 3);
        counter_add("store.appended_records", 2);
        gauge_set("serve.qerror_p95{model=\"default\"}", 1.5);
        gauge_set("serve.qerror_p95{model=\"canary\"}", 2.25);
        histogram_record("serve.latency_us", 100.0);
        histogram_record("serve.latency_us", 200.0);
        let body = render(&[]);
        enable_stats(false);
        reset();

        assert!(body.contains("# TYPE serve_requests counter\nserve_requests 3\n"));
        assert!(body.contains("store_appended_records 2\n"));
        // Two per-model series under ONE family header.
        assert_eq!(body.matches("# TYPE serve_qerror_p95 gauge").count(), 1);
        assert!(body.contains("serve_qerror_p95{model=\"canary\"} 2.25\n"));
        assert!(body.contains("serve_qerror_p95{model=\"default\"} 1.5\n"));
        // Histogram family with cumulative buckets, +Inf == count.
        assert!(body.contains("# TYPE serve_latency_us histogram"));
        assert!(body.contains("serve_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(body.contains("serve_latency_us_sum 300\n"));
        assert!(body.contains("serve_latency_us_count 2\n"));
        assert!(body.contains("# TYPE process_uptime_seconds gauge"));

        // Structural pass: every non-comment line is `name{labels}? value`.
        let mut bucket_cums = Vec::new();
        for line in body.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(!series.is_empty() && !value.is_empty(), "line {line:?}");
            let name_end = series.find('{').unwrap_or(series.len());
            let name = &series[..name_end];
            assert!(
                name.chars().enumerate().all(|(i, c)| c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit())),
                "bad metric name in {line:?}"
            );
            if name == "serve_latency_us_bucket" {
                bucket_cums.push(value.parse::<u64>().unwrap());
            }
        }
        // Cumulative buckets must be monotone nondecreasing up to +Inf.
        assert!(bucket_cums.windows(2).all(|w| w[0] <= w[1]), "{bucket_cums:?}");
        assert_eq!(*bucket_cums.last().unwrap(), 2);
    }

    #[test]
    fn non_finite_gauges_render_prometheus_style() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        enable_stats(true);
        gauge_set("weird.inf", f64::INFINITY);
        gauge_set("weird.nan", f64::NAN);
        let body = render(&[]);
        enable_stats(false);
        reset();
        assert!(body.contains("weird_inf +Inf\n"));
        assert!(body.contains("weird_nan NaN\n"));
    }

    #[test]
    fn caller_counters_merge_into_the_sorted_counter_pass() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        enable_stats(true);
        counter_add("serve.b", 2);
        counter_add("serve.tenant{t=\"x\"}", 5);
        enable_stats(false);
        // Caller counters render with stats off; the registry's stay.
        let body = render(&[("serve.c", 3), ("serve.a", 1)]);
        reset();
        let counters: Vec<&str> = body
            .lines()
            .take_while(|l| !l.starts_with("# TYPE process_uptime_seconds"))
            .collect();
        assert_eq!(
            counters,
            [
                "# TYPE serve_a counter",
                "serve_a 1",
                "# TYPE serve_b counter",
                "serve_b 2",
                "# TYPE serve_c counter",
                "serve_c 3",
                "# TYPE serve_tenant counter",
                "serve_tenant{t=\"x\"} 5",
            ]
        );
    }
}
