//! Order statistics, process memory, and the one-line JSON result.

use std::fmt::Write as _;

/// Sorts in place and returns the `q`-quantile by nearest rank.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The tail percentile a sample of `n` supports: p99, or lower when fewer
/// than ten samples would lie beyond p99 (then exactly ten lie beyond),
/// but never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    let supported = n.saturating_sub(10) as f64 / n.max(1) as f64;
    supported.clamp(0.5, 0.99)
}

/// Median and supported tail of a latency sample, with the tail's
/// percentile (0..1).
pub fn median_and_tail(samples: &mut [f64]) -> (f64, f64, f64) {
    let q = tail_quantile(samples.len());
    let p50 = quantile(samples, 0.5);
    let tail = quantile(samples, q);
    (p50, tail, q)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Removes and returns the value of `name`.
    pub fn take(&mut self, name: &str) -> Option<f64> {
        let i = self.entries.iter().position(|(n, _, _)| n == name)?;
        Some(self.entries.remove(i).1)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }
}

/// Outcome counters of one run.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Errors, degraded answers and check mismatches.
    pub failed: u64,
    /// Check mismatches only (wrong answers, lost acks).
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Renders the result line the benchmark prints last.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        let n = 40;
        let q = tail_quantile(n);
        let beyond = n - (q * n as f64).ceil() as usize;
        assert_eq!(beyond, 10);
    }
}
