//! Output checks: socket answers against the in-process estimators.
//!
//! A cache miss must equal some served model's `estimate` bitwise; a hit
//! must equal the answer to a request with the same cache key. Degraded
//! answers and errors count as failed, not as wrong.

use crate::load::{Outcome, Reply};
use crate::stats::Tally;
use selearn_core::{
    quantize_ball_key_into, quantize_halfspace_key_into, quantize_rect_key_into,
    SelectivityEstimator,
};
use selearn_geom::{Range, Rect};
use std::collections::HashMap;

/// The server's default cache-key grid (`ServerConfig::cache_grid`).
pub const CACHE_GRID: u32 = 64;

/// The cache key the server derives for `range` (without model id and
/// generation, which are the same for every request of one model).
pub fn cache_key(root: &Rect, range: &Range) -> Option<(u8, Vec<u32>)> {
    let mut cells = Vec::new();
    let (shape, ok) = match range {
        Range::Rect(r) => (
            0,
            quantize_rect_key_into(root, r.lo(), r.hi(), CACHE_GRID, &mut cells),
        ),
        Range::Halfspace(h) => (
            1,
            quantize_halfspace_key_into(root, h.normal(), h.offset(), CACHE_GRID, &mut cells),
        ),
        Range::Ball(b) => (
            2,
            quantize_ball_key_into(
                root,
                b.center().coords(),
                b.radius(),
                CACHE_GRID,
                &mut cells,
            ),
        ),
        Range::SemiAlgebraic { .. } => (3, false),
    };
    ok.then_some((shape, cells))
}

/// Expected answers of a request table under every served model, as
/// `f64` bits, computed on two threads.
pub fn expected(ranges: &[Range], models: &[&(dyn SelectivityEstimator + Sync)]) -> Vec<Vec<u64>> {
    let half = ranges.len() / 2;
    let run = |part: &[Range]| -> Vec<Vec<u64>> {
        part.iter()
            .map(|r| {
                models
                    .iter()
                    .map(|m| m.estimate(r).clamp(0.0, 1.0).to_bits())
                    .collect()
            })
            .collect()
    };
    std::thread::scope(|s| {
        let first = s.spawn(|| run(&ranges[..half]));
        let mut second = run(&ranges[half..]);
        let mut out = first.join().expect("check thread");
        out.append(&mut second);
        out
    })
}

/// Checks estimate replies. Each part pairs a request table with the
/// replies that index into it; `extra` lists requests sent without a
/// checked reply (they can still have filled the cache). A hit may come
/// from any request in any part with the same cache key.
pub fn check_estimates(
    root: &Rect,
    parts: &[(&[Range], &[Reply])],
    extra: &[Range],
    models: &[&(dyn SelectivityEstimator + Sync)],
) -> Tally {
    let mut ranges: Vec<Range> = extra.to_vec();
    let mut offsets = Vec::with_capacity(parts.len());
    for (table, _) in parts {
        offsets.push(ranges.len());
        ranges.extend_from_slice(table);
    }
    let expected = expected(&ranges, models);
    let keys: Vec<Option<(u8, Vec<u32>)>> = ranges.iter().map(|r| cache_key(root, r)).collect();
    let mut groups: HashMap<&(u8, Vec<u32>), Vec<usize>> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        if let Some(k) = k {
            groups.entry(k).or_default().push(i);
        }
    }
    let mut tally = Tally::default();
    for ((_, replies), offset) in parts.iter().zip(offsets) {
        for r in replies.iter() {
            tally.attempted += 1;
            let Outcome::Estimate {
                sel,
                cached,
                degraded,
            } = r.outcome
            else {
                tally.failed += 1;
                tally.wrong += 1;
                continue;
            };
            if degraded {
                tally.failed += 1;
                continue;
            }
            let idx = offset + r.idx as usize;
            let bits = sel.to_bits();
            let ok = if cached {
                keys[idx]
                    .as_ref()
                    .is_some_and(|k| groups[k].iter().any(|&j| expected[j].contains(&bits)))
            } else {
                expected[idx].contains(&bits)
            };
            if !ok {
                tally.failed += 1;
                tally.wrong += 1;
                if tally.wrong <= 3 {
                    eprintln!(
                        "mismatch: {} answered {sel:e}, expected one of {:?}",
                        if cached { "cache hit" } else { "model answer" },
                        expected[idx]
                            .iter()
                            .map(|b| f64::from_bits(*b))
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }
    tally
}

/// Labelled queries a served model's `model_rmse` is taken over.
pub const HOLDOUT: usize = 4096;

/// RMSE of `model` against `truth` on `holdout`.
pub fn holdout_rmse(model: &dyn SelectivityEstimator, holdout: &[Range], truth: &[f64]) -> f64 {
    let pairs: Vec<(f64, f64)> = holdout
        .iter()
        .zip(truth)
        .map(|(r, &t)| (model.estimate(r), t))
        .collect();
    accuracy(&pairs).1
}

/// Median q-error and RMSE of `(estimate, truth)` pairs.
pub fn accuracy(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mut q: Vec<f64> = pairs
        .iter()
        .map(|&(e, t)| selearn_data::q_error(e, t))
        .collect();
    let qerr = crate::stats::quantile(&mut q, 0.5);
    let mse =
        pairs.iter().map(|&(e, t)| (e - t) * (e - t)).sum::<f64>() / pairs.len().max(1) as f64;
    (qerr, mse.sqrt())
}
