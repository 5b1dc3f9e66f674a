//! Error measures for selectivity estimators (Section 4, "Error Measures").
//!
//! * **RMS error** `√(1/n Σ (ŝ − s)²)` — the paper's primary accuracy plot
//!   metric;
//! * **Q-error** `max(ŝ, s)/min(ŝ, s)` quantiles [Moerkotte et al. 2009] —
//!   better at capturing relatively large errors on selective queries
//!   (Tables 1, 3, 4, 5);
//! * **L∞ error** `max |ŝ − s|` — used in the objective-function study
//!   (Section 4.6).

/// Root-mean-square error between estimates and truths.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn rms_error(estimated: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimated.len(), truth.len(), "length mismatch");
    assert!(!truth.is_empty(), "no test queries");
    let mse: f64 = estimated
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum::<f64>()
        / truth.len() as f64;
    mse.sqrt()
}

/// Mean absolute error.
pub fn mean_error(estimated: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimated.len(), truth.len(), "length mismatch");
    assert!(!truth.is_empty(), "no test queries");
    estimated
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t).abs())
        .sum::<f64>()
        / truth.len() as f64
}

/// `L∞` (max absolute) error.
pub fn l_inf_error(estimated: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimated.len(), truth.len(), "length mismatch");
    estimated
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t).abs())
        .fold(0.0, f64::max)
}

/// The single-estimate Q-error and its selectivity floor live in
/// `selearn-core`, shared with the serving drift monitor.
pub use selearn_core::{q_error, Q_ERROR_FLOOR};

/// Q-error quantile summary, matching the columns of the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QErrorSummary {
    /// 50th percentile (median).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl std::fmt::Display for QErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} / {:.3} / {:.3} / {:.3}",
            self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Computes the `{50, 95, 99, max}` Q-error quantiles over a test set.
///
/// # Panics
/// Panics if inputs are empty or of different lengths.
pub fn q_error_quantiles(estimated: &[f64], truth: &[f64]) -> QErrorSummary {
    assert_eq!(estimated.len(), truth.len(), "length mismatch");
    assert!(!truth.is_empty(), "no test queries");
    let mut qs: Vec<f64> = estimated
        .iter()
        .zip(truth)
        .map(|(&e, &t)| q_error(e, t))
        .collect();
    qs.sort_by(f64::total_cmp);
    QErrorSummary {
        p50: quantile_sorted(&qs, 0.50),
        p90: quantile_sorted(&qs, 0.90),
        p95: quantile_sorted(&qs, 0.95),
        p99: quantile_sorted(&qs, 0.99),
        max: qs[qs.len() - 1],
    }
}

impl QErrorSummary {
    /// Exports this summary as a [`selearn_obs::Event::MetricsSummary`] so
    /// traces carry exactly the quantiles the bench tables print — both
    /// come from the one [`q_error_quantiles`] computation. `name` labels
    /// the estimator/workload; `count` is the number of test queries.
    pub fn emit(&self, name: &str, count: usize) {
        if !selearn_obs::sink_installed() {
            return;
        }
        selearn_obs::emit(&selearn_obs::Event::MetricsSummary {
            name: format!("q_error.{name}"),
            count,
            p50: self.p50,
            p90: self.p90,
            p95: self.p95,
            p99: self.p99,
            max: self.max,
        });
    }
}

/// The `p`-quantile (nearest-rank with linear interpolation) of an
/// ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&p), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_known_value() {
        // errors 0.3 and 0.4 → RMS = 0.25·... √((0.09+0.16)/2) = √0.125
        let r = rms_error(&[0.5, 0.9], &[0.2, 0.5]);
        assert!((r - 0.125f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rms_zero_when_exact() {
        assert_eq!(rms_error(&[0.1, 0.2], &[0.1, 0.2]), 0.0);
    }

    #[test]
    fn mean_and_linf() {
        let e = [0.5, 0.0];
        let t = [0.2, 0.1];
        assert!((mean_error(&e, &t) - 0.2).abs() < 1e-12);
        assert!((l_inf_error(&e, &t) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn q_error_symmetric_ratio() {
        assert!((q_error(0.2, 0.1) - 2.0).abs() < 1e-12);
        assert!((q_error(0.1, 0.2) - 2.0).abs() < 1e-12);
        assert_eq!(q_error(0.3, 0.3), 1.0);
    }

    #[test]
    fn q_error_floors_zero_truth() {
        // estimated 0.1 vs true 0 → ratio vs floor, finite.
        let q = q_error(0.1, 0.0);
        assert!((q - 0.1 / Q_ERROR_FLOOR).abs() < 1e-9);
        assert!(q.is_finite());
        // both zero → 1
        assert_eq!(q_error(0.0, 0.0), 1.0);
    }

    #[test]
    fn quantiles_of_known_sample() {
        let e = [1.0, 2.0, 3.0, 4.0, 5.0];
        let t = [1.0; 5]; // q-errors are exactly e
        let s = q_error_quantiles(&e, &t);
        assert!((s.p50 - 3.0).abs() < 1e-12);
        assert_eq!(s.max, 5.0);
        assert!(s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.p50 <= s.p95);
    }

    #[test]
    fn quantile_interpolation() {
        let v = [0.0, 1.0];
        assert!((quantile_sorted(&v, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 1.0);
    }

    #[test]
    fn quantile_singleton() {
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = rms_error(&[0.1], &[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "no test queries")]
    fn empty_inputs_panic() {
        let _ = rms_error(&[], &[]);
    }

    proptest::proptest! {
        #[test]
        fn prop_qerror_at_least_one(e in 0.0f64..1.0, t in 0.0f64..1.0) {
            proptest::prop_assert!(q_error(e, t) >= 1.0);
        }

        #[test]
        fn prop_rms_bounded_by_linf(
            pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40)
        ) {
            let e: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let t: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            proptest::prop_assert!(rms_error(&e, &t) <= l_inf_error(&e, &t) + 1e-12);
            proptest::prop_assert!(mean_error(&e, &t) <= l_inf_error(&e, &t) + 1e-12);
        }
    }
}
