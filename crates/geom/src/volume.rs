//! Volume estimation utilities.
//!
//! The paper's Equation (6) needs `vol(B ∩ R)` for every bucket `B` and
//! query range `R`. For rectangles and halfspaces this crate computes it in
//! closed form; for balls in `d ≥ 3` dimensions and for general
//! semi-algebraic ranges the paper suggests Monte-Carlo estimation
//! (Section 3.1, citing MCMC sampling). We use a *deterministic*
//! low-discrepancy (Halton) quasi-Monte-Carlo integrator instead, so the
//! whole pipeline stays reproducible.

use crate::point::Point;
use crate::rect::Rect;

/// First 20 primes, used as Halton bases.
const PRIMES: [u64; 20] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
];

/// How `vol(B ∩ R)` should be computed for ranges without a closed form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeMethod {
    /// Deterministic Halton quasi-Monte-Carlo with the given sample count.
    QuasiMonteCarlo {
        /// Number of low-discrepancy samples.
        samples: usize,
    },
}

impl Default for VolumeMethod {
    fn default() -> Self {
        VolumeMethod::QuasiMonteCarlo { samples: 4096 }
    }
}

/// A reusable volume estimator for indicator functions over boxes.
#[derive(Clone, Debug, Default)]
pub struct VolumeEstimator {
    method: VolumeMethod,
}

impl VolumeEstimator {
    /// Creates an estimator with the given method.
    pub fn new(method: VolumeMethod) -> Self {
        Self { method }
    }

    /// Creates a quasi-Monte-Carlo estimator with `samples` points.
    pub fn qmc(samples: usize) -> Self {
        Self::new(VolumeMethod::QuasiMonteCarlo { samples })
    }

    /// Estimates `vol({x ∈ rect : inside(x)})`.
    ///
    /// Returns 0 for degenerate boxes. Deterministic: the same inputs always
    /// produce the same estimate.
    pub fn volume_in_rect<F: Fn(&Point) -> bool>(&self, rect: &Rect, inside: F) -> f64 {
        let vol = rect.volume();
        if vol <= 0.0 {
            return 0.0;
        }
        let VolumeMethod::QuasiMonteCarlo { samples } = self.method;
        // One bump per call, not per sample: cheap enough to leave on the
        // hot path, and the trace still reconstructs total QMC work.
        selearn_obs::counter_add("mc_samples_drawn", samples as u64);
        let d = rect.dim();
        let mut hits = 0usize;
        let mut p = Point::zeros(d);
        for k in 0..samples {
            for (i, c) in p.coords_mut().iter_mut().enumerate() {
                let u = halton(k as u64 + 1, PRIMES[i % PRIMES.len()]);
                *c = rect.lo()[i] + rect.width(i) * u;
            }
            if inside(&p) {
                hits += 1;
            }
        }
        vol * hits as f64 / samples as f64
    }

    /// Estimates the *fraction* of `rect` satisfying the predicate.
    pub fn fraction_in_rect<F: Fn(&Point) -> bool>(&self, rect: &Rect, inside: F) -> f64 {
        let vol = rect.volume();
        if vol <= 0.0 {
            return 0.0;
        }
        self.volume_in_rect(rect, inside) / vol
    }
}

/// The `k`-th element of the van der Corput sequence in the given base
/// (radical inverse). `k ≥ 1`.
pub fn halton(mut k: u64, base: u64) -> f64 {
    let mut f = 1.0;
    let mut r = 0.0;
    let b = base as f64;
    while k > 0 {
        f /= b;
        r += f * (k % base) as f64;
        k /= base;
    }
    r
}

/// Adaptive Simpson quadrature of `f` over `[a, b]` with absolute tolerance
/// `tol`. Used for the exact-to-tolerance 2-D circle/box intersection area.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, tol: f64) -> f64 {
    let c = 0.5 * (a + b);
    let fa = f(a);
    let fb = f(b);
    let fc = f(c);
    let whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb);
    simpson_rec(f, a, b, fa, fb, fc, whole, tol, 50)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fb: f64,
    fc: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let c = 0.5 * (a + b);
    let d = 0.5 * (a + c);
    let e = 0.5 * (c + b);
    let fd = f(d);
    let fe = f(e);
    let left = (c - a) / 6.0 * (fa + 4.0 * fd + fc);
    let right = (b - c) / 6.0 * (fc + 4.0 * fe + fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        simpson_rec(f, a, c, fa, fc, fd, left, tol / 2.0, depth - 1)
            + simpson_rec(f, c, b, fc, fb, fe, right, tol / 2.0, depth - 1)
    }
}

/// Volume of the unit `d`-ball, `π^{d/2} / Γ(d/2 + 1)`, computed by the
/// stable recurrence `V_d = 2π/d · V_{d−2}`.
pub fn unit_ball_volume(d: usize) -> f64 {
    match d {
        0 => 1.0,
        1 => 2.0,
        _ => 2.0 * std::f64::consts::PI / d as f64 * unit_ball_volume(d - 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::Ball;

    #[test]
    fn halton_is_in_unit_interval_and_low_discrepancy() {
        let n = 1000;
        let mut sum = 0.0;
        for k in 1..=n {
            let v = halton(k, 2);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        // mean of a low-discrepancy sequence converges fast to 1/2
        assert!((sum / n as f64 - 0.5).abs() < 1e-2);
    }

    #[test]
    fn adaptive_simpson_polynomial_exact() {
        let v = adaptive_simpson(&|x| x * x, 0.0, 1.0, 1e-12);
        assert!((v - 1.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn adaptive_simpson_sqrt_singularity() {
        // ∫_0^1 sqrt(1 − x²) dx = π/4 (quarter circle), an endpoint-singular
        // integrand like our chord-length function.
        let v = adaptive_simpson(&|x| (1.0 - x * x).max(0.0).sqrt(), 0.0, 1.0, 1e-10);
        assert!((v - std::f64::consts::FRAC_PI_4).abs() < 1e-7, "v = {v}");
    }

    #[test]
    fn unit_ball_volumes_match_known_values() {
        assert!((unit_ball_volume(1) - 2.0).abs() < 1e-12);
        assert!((unit_ball_volume(2) - std::f64::consts::PI).abs() < 1e-12);
        assert!((unit_ball_volume(3) - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-12);
        // V_4 = π²/2
        assert!((unit_ball_volume(4) - std::f64::consts::PI.powi(2) / 2.0).abs() < 1e-12);
        // V_5 = 8π²/15
        assert!(
            (unit_ball_volume(5) - 8.0 * std::f64::consts::PI.powi(2) / 15.0).abs() < 1e-12
        );
    }

    #[test]
    fn qmc_estimates_ball_volume_3d() {
        let ball = Ball::new(Point::splat(3, 0.5), 0.4);
        let est = VolumeEstimator::qmc(200_000);
        let v = est.volume_in_rect(&Rect::unit(3), |p| ball.contains(p));
        let exact = unit_ball_volume(3) * 0.4f64.powi(3);
        assert!((v - exact).abs() < 2e-3, "v = {v}, exact = {exact}");
    }

    #[test]
    fn qmc_zero_volume_rect() {
        let r = Rect::new(vec![0.3, 0.1], vec![0.3, 0.9]);
        let est = VolumeEstimator::default();
        assert_eq!(est.volume_in_rect(&r, |_| true), 0.0);
    }

    #[test]
    fn qmc_constant_predicates() {
        let est = VolumeEstimator::qmc(128);
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(est.volume_in_rect(&r, |_| true), 6.0);
        assert_eq!(est.volume_in_rect(&r, |_| false), 0.0);
    }

    #[test]
    fn qmc_deterministic() {
        let ball = Ball::new(Point::splat(2, 0.5), 0.3);
        let est = VolumeEstimator::qmc(1024);
        let a = est.volume_in_rect(&Rect::unit(2), |p| ball.contains(p));
        let b = est.volume_in_rect(&Rect::unit(2), |p| ball.contains(p));
        assert_eq!(a, b);
    }
}
