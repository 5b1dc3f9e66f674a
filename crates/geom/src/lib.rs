//! Geometry substrate for learned selectivity estimation.
//!
//! This crate implements the geometric machinery required by
//! *"Selectivity Functions of Range Queries are Learnable"* (SIGMOD 2022):
//!
//! * [`Point`] — points in `R^d` with runtime dimensionality;
//! * [`Rect`] — axis-aligned hyper-rectangles (orthogonal range queries,
//!   histogram buckets, quadtree cells);
//! * [`Halfspace`] — linear-inequality queries `a · x ≥ b`;
//! * [`Ball`] — distance-based (`ℓ2`-ball) queries;
//! * [`SemiAlgebraicSet`] — Boolean combinations of polynomial inequalities
//!   (Section 2.2 of the paper), including the disc-intersection lifting;
//! * [`Range`] — the closed query-range enum implementing [`RangeQuery`];
//! * exact and Monte-Carlo **intersection volumes** (`vol(B ∩ R)`), the
//!   central quantity of the paper's Equation (6);
//! * **smallest bounding boxes** and **rejection sampling** from query
//!   interiors (Appendix A.2), used by PtsHist;
//! * the **arrangement** decomposition of a set of rectangles (Section 3.1).
//!
//! All sampling is seeded and deterministic; all exact-volume routines are
//! closed-form (rectangles, halfspaces via the Irwin–Hall formula, 1-D/2-D
//! balls) with deterministic quadrature / stratified Monte-Carlo fallbacks
//! in higher dimensions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arrangement;
pub mod ball;
pub mod error;
pub mod halfspace;
pub mod kdtree;
pub mod point;
pub mod range;
pub mod rect;
pub mod sampling;
pub mod semialgebraic;
pub mod volume;

pub use arrangement::{grid_arrangement, Arrangement};
pub use ball::Ball;
pub use error::GeomError;
pub use halfspace::Halfspace;
pub use kdtree::{KdNodeView, KdTree};
pub use point::Point;
pub use range::{Range, RangeClass, RangeQuery};
pub use rect::Rect;
pub use sampling::{sample_in_range, sample_in_rect, RejectionSampler};
pub use semialgebraic::{Polynomial, SemiAlgebraicSet};
pub use volume::{VolumeEstimator, VolumeMethod};

/// Numerical tolerance used throughout geometric predicates.
pub const EPS: f64 = 1e-12;
