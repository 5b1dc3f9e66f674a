//! Solve-outcome reporting.
//!
//! Every iterative solver in this crate can exhaust its iteration budget
//! and silently return the last iterate — acceptable for well-conditioned
//! Equation (8) instances, but invisible to callers. [`SolveReport`]
//! makes the exit condition a first-class return value: every iterative
//! solver returns its report beside the solution, one entry point each.

/// Terminal summary of one iterative solve call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Solver identifier (`"nnls"`, `"fista"`, `"ipf"`, `"linf-smoothed"`).
    pub solver: &'static str,
    /// Iterations actually performed.
    pub iters: usize,
    /// Iteration budget the solver was run with.
    pub max_iters: usize,
    /// `true` when the convergence criterion was met; `false` when the
    /// budget was exhausted and the last iterate was returned as-is.
    pub converged: bool,
    /// Solver-specific residual at exit (LS residual norm for NNLS/FISTA,
    /// max constraint violation for IPF, smoothed loss for L∞).
    pub final_residual: f64,
}

impl SolveReport {
    /// Emits this report as a [`selearn_obs::Event::SolverReport`] into
    /// the installed sink (no-op without one).
    pub fn emit(&self) {
        selearn_obs::emit(&selearn_obs::Event::SolverReport {
            solver: self.solver,
            iters: self.iters,
            max_iters: self.max_iters,
            converged: self.converged,
            final_residual: self.final_residual,
        });
    }
}
