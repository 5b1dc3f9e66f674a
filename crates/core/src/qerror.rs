//! Q-error, the ratio error measure shared by offline evaluation and the
//! serving drift monitor, so both agree on what counts as an empty range.

/// Selectivity floor applied before computing Q-error ratios. A selectivity
/// of exactly 0 would make the ratio infinite; systems conventionally floor
/// at "one tuple" — with the harness's 100K-row datasets that is 1e-5.
pub const Q_ERROR_FLOOR: f64 = 1e-5;

/// Q-error of a single estimate: `max(ŝ', s')/min(ŝ', s')` where both
/// values are floored at [`Q_ERROR_FLOOR`].
pub fn q_error(estimated: f64, truth: f64) -> f64 {
    let e = estimated.max(Q_ERROR_FLOOR);
    let t = truth.max(Q_ERROR_FLOOR);
    if e > t {
        e / t
    } else {
        t / e
    }
}
