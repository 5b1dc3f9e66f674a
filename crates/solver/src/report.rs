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
    /// Records this solve's exit while obs stats are on: its iterations
    /// into the histogram `solver.iters{solver="…"}`, its residual into
    /// `solver.final_residual{solver="…"}`, and 1 (unconverged) or 0 into
    /// the counter `solver.unconverged{solver="…"}`, so every solver that
    /// ran has that series. An installed sink also receives the report as
    /// a [`selearn_obs::Event::SolverReport`].
    pub fn emit(&self) {
        if !selearn_obs::enabled() {
            return;
        }
        let label = format!("{{solver=\"{}\"}}", self.solver);
        selearn_obs::histogram_record(&format!("solver.iters{label}"), self.iters as f64);
        selearn_obs::histogram_record(
            &format!("solver.final_residual{label}"),
            self.final_residual,
        );
        selearn_obs::counter_add(
            &format!("solver.unconverged{label}"),
            u64::from(!self.converged),
        );
        selearn_obs::emit(&selearn_obs::Event::SolverReport {
            solver: self.solver,
            iters: self.iters,
            max_iters: self.max_iters,
            converged: self.converged,
            final_residual: self.final_residual,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_records_iterations_residual_and_convergence() {
        selearn_obs::enable_stats(true);
        for (iters, converged) in [(5, true), (9, false)] {
            SolveReport {
                solver: "emit-test",
                iters,
                max_iters: 9,
                converged,
                final_residual: 0.25,
            }
            .emit();
        }
        selearn_obs::enable_stats(false);
        let iters =
            selearn_obs::metrics::histogram_get("solver.iters{solver=\"emit-test\"}").unwrap();
        assert_eq!((iters.count, iters.min, iters.max), (2, 5.0, 9.0));
        let residual =
            selearn_obs::metrics::histogram_get("solver.final_residual{solver=\"emit-test\"}")
                .unwrap();
        assert_eq!((residual.count, residual.max), (2, 0.25));
        assert_eq!(
            selearn_obs::counter_get("solver.unconverged{solver=\"emit-test\"}"),
            1
        );
    }
}
