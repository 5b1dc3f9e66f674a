//! Counter, gauge, and histogram registries.
//!
//! Registration (first use of a name) takes a `RwLock` write; every
//! subsequent bump is lock-free on an `Arc<AtomicU64>` fetched under the
//! read lock, so concurrent bumps from serve workers never serialise on
//! a mutex. Registries are `BTreeMap`s so snapshots are deterministically
//! sorted by name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

type Registry = RwLock<BTreeMap<String, Arc<AtomicU64>>>;

fn counters() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn gauges() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn histograms() -> &'static RwLock<BTreeMap<String, Arc<Histogram>>> {
    static REG: OnceLock<RwLock<BTreeMap<String, Arc<Histogram>>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn cell(reg: &'static Registry, name: &str) -> Arc<AtomicU64> {
    if let Some(c) = reg.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(name) {
        return Arc::clone(c);
    }
    let mut w = reg.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(w.entry(name.to_string()).or_default())
}

/// Adds `n` to the monotonic counter `name`. No-op while observability is
/// disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    cell(counters(), name).fetch_add(n, Ordering::Relaxed);
}

/// Current value of counter `name` (0 if never bumped).
pub fn counter_get(name: &str) -> u64 {
    counters()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Sets gauge `name` to `value` (last-writer-wins). No-op while disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    cell(gauges(), name).store(value.to_bits(), Ordering::Relaxed);
}

/// Sorted snapshot of every counter.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    counters()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect()
}

/// Sorted snapshot of every gauge.
pub fn gauge_snapshot() -> Vec<(String, f64)> {
    gauges()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
        .collect()
}

/// Octaves covered by the histogram: binary exponents `-OFFSET ..
/// OFFSET + OCTAVES - 1`, spanning ~1e-193 … ~1e+193 — far wider than
/// any latency or residual we record.
const OCTAVES: usize = 1284;
const OFFSET: i32 = 642;
/// Linear sub-buckets per octave. Pure log₂ buckets make quantiles
/// coarse (up to a factor of 2 off); four equal-width slices per octave
/// bound the midpoint's relative error at 1/8 = 12.5%.
const SUBS: usize = 4;
/// Bucket 0 catches non-finite and non-positive samples; the rest are
/// `OCTAVES × SUBS` linear-in-octave slices.
const BUCKETS: usize = 1 + OCTAVES * SUBS;

/// Lock-free histogram: log₂ octaves split into [`SUBS`] linear
/// sub-buckets, plus CAS-maintained exact min/max/sum, all `AtomicU64`.
/// Non-finite and non-positive samples go to bucket 0 (they still
/// count; min/max/sum skip non-finite values).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits; ordering maintained by CAS loops.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let e = v.log2().floor() as i32;
    let octave = (e + OFFSET).clamp(0, OCTAVES as i32 - 1) as usize;
    // Mantissa in [1, 2); floating-point rounding at octave edges can
    // push it fractionally outside, so the slice index is clamped.
    let mantissa = v / 2f64.powi(e);
    let sub = (((mantissa - 1.0) * SUBS as f64) as usize).min(SUBS - 1);
    1 + octave * SUBS + sub
}

/// `(lower, upper)` edges of bucket `i ≥ 1`.
fn bucket_edges(i: usize) -> (f64, f64) {
    let k = i - 1;
    let base = 2f64.powi((k / SUBS) as i32 - OFFSET);
    let sub = (k % SUBS) as f64;
    (
        base * (1.0 + sub / SUBS as f64),
        base * (1.0 + (sub + 1.0) / SUBS as f64),
    )
}

fn bucket_midpoint(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let (lo, hi) = bucket_edges(i);
    (lo + hi) / 2.0
}

impl Histogram {
    fn record(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if !v.is_finite() {
            return;
        }
        // CAS loops for min/max/sum. The sum is *not* deterministic when
        // threads record concurrently (float addition is non-associative),
        // but it is only used for the mean in reports, never in results.
        let mut cur = self.min_bits.load(Ordering::Relaxed);
        while v < f64::from_bits(cur) {
            match self.min_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    let mid = bucket_midpoint(i);
                    // The tracked exact extremes tighten the edge
                    // buckets: no quantile can sit outside [min, max].
                    if min.is_finite() && max.is_finite() && min <= max {
                        return mid.clamp(min, max);
                    }
                    return mid;
                }
            }
            bucket_midpoint(BUCKETS - 1)
        };
        HistogramSummary {
            count,
            min: if count == 0 || !min.is_finite() { 0.0 } else { min },
            max: if count == 0 || !max.is_finite() { 0.0 } else { max },
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            p50: quantile(0.50),
            p90: quantile(0.90),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }

    /// Raw bucket export for the Prometheus exposition: cumulative
    /// counts at the upper edge of every non-empty bucket (ascending),
    /// plus the exact running sum. Bucket 0 (non-positive / non-finite
    /// samples) exports with an upper bound of `0`.
    fn export(&self) -> HistogramExport {
        let mut cumulative = Vec::new();
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            let upper = if i == 0 { 0.0 } else { bucket_edges(i).1 };
            cumulative.push((upper, seen));
        }
        HistogramExport {
            cumulative,
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time summary of one histogram. Quantiles are linear
/// sub-bucket midpoints clamped to the exact tracked min/max — accurate
/// to within ~12.5% relative error, plenty for latency/residual
/// distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact minimum finite sample (0.0 when empty).
    pub min: f64,
    /// Exact maximum finite sample (0.0 when empty).
    pub max: f64,
    /// Arithmetic mean of finite samples.
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 90th percentile.
    pub p90: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
}

/// Raw cumulative-bucket view of one histogram, shaped for the
/// Prometheus text exposition (`le` upper bounds with cumulative
/// counts, exact `sum`, total `count`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramExport {
    /// `(upper_bound, cumulative_count)` for every non-empty bucket,
    /// ascending by bound. The final entry's count equals `count`.
    pub cumulative: Vec<(f64, u64)>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact running sum of finite samples.
    pub sum: f64,
}

fn histogram_cell(name: &str) -> Arc<Histogram> {
    if let Some(h) = histograms()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
    {
        return Arc::clone(h);
    }
    let mut w = histograms().write().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(w.entry(name.to_string()).or_default())
}

/// Records `value` into histogram `name`. No-op while disabled.
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    histogram_cell(name).record(value);
}

/// Like [`histogram_record`] but takes an owned name (for composed
/// names); still no-op while disabled, checked before use.
#[inline]
pub(crate) fn histogram_record_str(name: String, value: f64) {
    if !crate::enabled() {
        return;
    }
    histogram_cell(&name).record(value);
}

/// Sorted snapshot of every histogram's summary.
pub fn histogram_snapshot() -> Vec<(String, HistogramSummary)> {
    histograms()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.summary()))
        .collect()
}

/// Summary of one named histogram, if it exists.
pub fn histogram_get(name: &str) -> Option<HistogramSummary> {
    histograms()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
        .map(|h| h.summary())
}

/// Sorted snapshot of every histogram's raw cumulative buckets (the
/// `/metrics` exposition view).
pub fn histogram_export_snapshot() -> Vec<(String, HistogramExport)> {
    histograms()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.export()))
        .collect()
}

/// Clears all three registries.
pub fn reset() {
    counters().write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    gauges().write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    histograms()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn histogram_summary_tracks_distribution() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::reset();
        crate::enable_stats(true);
        for i in 1..=1000u32 {
            histogram_record("lat", f64::from(i));
        }
        let s = histogram_get("lat").unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        assert!((s.mean - 500.5).abs() < 1e-9);
        // sub-bucketed quantiles: within ~12.5% of the truth
        assert!((s.p50 / 500.0 - 1.0).abs() <= 0.13, "p50 = {}", s.p50);
        assert!((s.p99 / 990.0 - 1.0).abs() <= 0.13, "p99 = {}", s.p99);
        crate::enable_stats(false);
        crate::reset();
    }

    /// The satellite acceptance bound: on known distributions every
    /// reported quantile lands within ~12.5% relative error (linear
    /// quarter-octave sub-buckets, midpoints clamped to exact min/max).
    #[test]
    fn quantile_error_is_bounded_on_known_distributions() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::reset();
        crate::enable_stats(true);
        // Uniform on [1, 10000], geometric 2^(i/100) spanning ~10 octaves,
        // and a bimodal latency-like mix.
        let uniform: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let geometric: Vec<f64> = (0..1000).map(|i| 2f64.powf(i as f64 / 100.0)).collect();
        let bimodal: Vec<f64> = (0..1000)
            .map(|i| if i % 10 == 9 { 900.0 + i as f64 } else { 3.0 + (i % 7) as f64 * 0.1 })
            .collect();
        for (name, samples) in [
            ("qbound.uniform", uniform),
            ("qbound.geometric", geometric),
            ("qbound.bimodal", bimodal),
        ] {
            for &v in &samples {
                histogram_record(name, v);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let s = histogram_get(name).unwrap();
            for (q, got) in [(0.50, s.p50), (0.90, s.p90), (0.95, s.p95), (0.99, s.p99)] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let rel = (got / truth - 1.0).abs();
                assert!(
                    rel <= 0.125 + 1e-9,
                    "{name} p{}: got {got}, truth {truth}, rel err {rel:.4}",
                    (q * 100.0) as u32
                );
            }
        }
        crate::enable_stats(false);
        crate::reset();
    }

    #[test]
    fn export_is_cumulative_and_monotone() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::reset();
        crate::enable_stats(true);
        for v in [0.5, 1.0, 1.3, 2.0, 2.6, 100.0, -1.0] {
            histogram_record("expo.h", v);
        }
        let export = histogram_export_snapshot()
            .into_iter()
            .find(|(n, _)| n == "expo.h")
            .map(|(_, e)| e)
            .unwrap();
        assert_eq!(export.count, 7);
        assert!((export.sum - (0.5 + 1.0 + 1.3 + 2.0 + 2.6 + 100.0 - 1.0)).abs() < 1e-12);
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = 0;
        for &(bound, cum) in &export.cumulative {
            assert!(bound > prev_bound, "bounds ascend");
            assert!(cum > prev_cum, "cumulative counts strictly grow");
            prev_bound = bound;
            prev_cum = cum;
        }
        assert_eq!(export.cumulative.last().unwrap().1, 7);
        // -1.0 lands in the catch-all bucket with bound 0.
        assert_eq!(export.cumulative[0], (0.0, 1));
        crate::enable_stats(false);
        crate::reset();
    }

    #[test]
    fn histogram_handles_degenerate_samples() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::reset();
        crate::enable_stats(true);
        histogram_record("weird", 0.0);
        histogram_record("weird", -3.0);
        histogram_record("weird", f64::NAN);
        histogram_record("weird", 1e-200);
        let s = histogram_get("weird").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 1e-200);
        crate::enable_stats(false);
        crate::reset();
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::clear_sink();
        crate::reset();
        crate::enable_stats(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        counter_add("threaded", 1);
                    }
                });
            }
        });
        assert_eq!(counter_get("threaded"), 40_000);
        crate::enable_stats(false);
        crate::reset();
    }
}
