//! The crate-spanning error type for the estimation pipeline.
//!
//! Every fallible public API in `selearn-core` (and the crates layered on
//! top of it) returns [`SelearnError`]. The lower layers keep their own
//! typed errors — [`GeomError`] for geometry, [`SolverError`] for the
//! numerical solvers, [`PersistError`] for model (de)serialization — and
//! `SelearnError` wraps each with a `From` impl so `?` composes across the
//! stack while `matches!` still reaches the precise cause.
//!
//! Design rules (see DESIGN.md, "Error handling"):
//!
//! * untrusted input (workload labels, persisted bytes, CSV cells, config
//!   files) → typed `Err`, never a panic;
//! * each variant carries enough context to locate the offending input —
//!   a query index, a CSV row/column, a solver name — without re-running;
//! * an empty workload is *not* an error: estimators fall back to the
//!   uniform distribution, which is the information-free answer.

use std::fmt;

use selearn_geom::GeomError;
use selearn_solver::SolverError;

use crate::persist::PersistError;

/// Errors produced by the selectivity-learning pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum SelearnError {
    /// A geometric primitive rejected its input (NaN coordinate,
    /// inverted rectangle corners, dimension mismatch, …).
    Geom(GeomError),
    /// A numerical solver rejected its input or failed to produce an
    /// optimum.
    Solver(SolverError),
    /// Loading or saving a persisted model failed.
    Persist(PersistError),
    /// An estimator configuration value is out of its documented domain
    /// (`k = 0`, `τ ∉ (0, 1)`, a non-positive bandwidth, …).
    InvalidConfig {
        /// The model or subsystem rejecting the configuration.
        model: &'static str,
        /// Which knob, and what it requires.
        what: &'static str,
    },
    /// A training label (observed selectivity) is NaN or infinite.
    InvalidLabel {
        /// Index of the offending query in the workload.
        query: usize,
        /// The offending selectivity value.
        value: f64,
    },
    /// A training query's range is unusable for this estimator (wrong
    /// dimensionality, non-rectangular where rectangles are required, …).
    UnsupportedQuery {
        /// The estimator rejecting the query.
        model: &'static str,
        /// Index of the offending query in the workload.
        query: usize,
        /// What the estimator requires.
        what: &'static str,
    },
    /// Two runtime quantities that must agree in length did not.
    LengthMismatch {
        /// What was being matched up.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A reconstructed or deserialized model violates a structural
    /// invariant (leaves that don't tile the root, non-finite weights, …).
    CorruptModel {
        /// Description of the violated invariant.
        what: String,
    },
    /// A resource-guard ceiling was exceeded (e.g. the arrangement cell
    /// bound of `ArrangementHistConfig::max_cells`).
    ResourceExhausted {
        /// The guarded quantity.
        what: &'static str,
        /// The configured ceiling.
        limit: usize,
        /// The value that exceeded it.
        got: usize,
    },
    /// A malformed cell in tabular input (CSV ingestion).
    Csv {
        /// Zero-based data-row index (header excluded).
        row: usize,
        /// Zero-based column index.
        col: usize,
        /// What went wrong with the cell.
        message: String,
    },
    /// A dataset-level ingestion failure (unreadable file, empty input,
    /// ragged rows, header/width mismatch, …) with no single cell to blame.
    Dataset {
        /// What went wrong.
        message: String,
    },
    /// A workload file or generator produced an unusable record.
    Workload {
        /// Index of the offending record.
        record: usize,
        /// What went wrong.
        message: String,
    },
    /// A write-ahead-log segment violates the log's structural invariants
    /// at a point recovery cannot treat as a torn tail (a mid-log CRC
    /// failure is truncated, not errored; this variant is for logical
    /// corruption like an out-of-sequence LSN or a gap between segments).
    WalCorrupt {
        /// Segment file name.
        segment: String,
        /// Byte offset of the offending record within the segment.
        offset: u64,
        /// The violated invariant.
        what: String,
    },
    /// A model checkpoint failed validation (bad CRC, wrong magic,
    /// truncated state, config fingerprint mismatch).
    CheckpointCorrupt {
        /// The checkpoint's generation number.
        generation: u64,
        /// What failed.
        what: String,
    },
    /// The store manifest is unreadable or points at state that does not
    /// exist.
    ManifestCorrupt {
        /// What failed.
        what: String,
    },
    /// A rollback or checkpoint lookup named a generation the store does
    /// not retain.
    UnknownGeneration {
        /// The requested generation.
        requested: u64,
        /// Generations currently retained, ascending.
        retained: Vec<u64>,
    },
}

impl fmt::Display for SelearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelearnError::Geom(e) => write!(f, "geometry error: {e}"),
            SelearnError::Solver(e) => write!(f, "solver error: {e}"),
            SelearnError::Persist(e) => write!(f, "persistence error: {e}"),
            SelearnError::InvalidConfig { model, what } => {
                write!(f, "invalid {model} configuration: {what}")
            }
            SelearnError::InvalidLabel { query, value } => {
                write!(f, "training query {query} has non-finite selectivity {value}")
            }
            SelearnError::UnsupportedQuery { model, query, what } => {
                write!(f, "{model} cannot use training query {query}: {what}")
            }
            SelearnError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "length mismatch in {what}: expected {expected}, got {got}"),
            SelearnError::CorruptModel { what } => write!(f, "corrupt model: {what}"),
            SelearnError::ResourceExhausted { what, limit, got } => {
                write!(f, "{what} exceeded its limit: {got} > {limit}")
            }
            SelearnError::Csv { row, col, message } => {
                write!(f, "csv error at row {row}, column {col}: {message}")
            }
            SelearnError::Dataset { message } => write!(f, "dataset error: {message}"),
            SelearnError::Workload { record, message } => {
                write!(f, "workload record {record}: {message}")
            }
            SelearnError::WalCorrupt {
                segment,
                offset,
                what,
            } => write!(f, "wal corruption in {segment} at byte {offset}: {what}"),
            SelearnError::CheckpointCorrupt { generation, what } => {
                write!(f, "checkpoint generation {generation} is corrupt: {what}")
            }
            SelearnError::ManifestCorrupt { what } => {
                write!(f, "store manifest is corrupt: {what}")
            }
            SelearnError::UnknownGeneration { requested, retained } => write!(
                f,
                "generation {requested} is not retained (have {retained:?})"
            ),
        }
    }
}

impl std::error::Error for SelearnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelearnError::Geom(e) => Some(e),
            SelearnError::Solver(e) => Some(e),
            SelearnError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for SelearnError {
    fn from(e: GeomError) -> Self {
        SelearnError::Geom(e)
    }
}

impl From<SolverError> for SelearnError {
    fn from(e: SolverError) -> Self {
        SelearnError::Solver(e)
    }
}

impl From<PersistError> for SelearnError {
    fn from(e: PersistError) -> Self {
        SelearnError::Persist(e)
    }
}

impl From<std::io::Error> for SelearnError {
    fn from(e: std::io::Error) -> Self {
        SelearnError::Persist(PersistError::Io(e))
    }
}

/// Rejects the first non-finite training label, with its query index.
///
/// Every estimator's `fit` runs this before touching the workload; it is
/// exported so baseline implementations can apply the same gate.
pub fn check_labels(queries: &[crate::TrainingQuery]) -> Result<(), SelearnError> {
    for (i, q) in queries.iter().enumerate() {
        if !q.selectivity.is_finite() {
            return Err(SelearnError::InvalidLabel {
                query: i,
                value: q.selectivity,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SelearnError::InvalidLabel {
            query: 7,
            value: f64::NAN,
        };
        let msg = e.to_string();
        assert!(msg.contains('7'), "{msg}");
        assert!(msg.contains("NaN"), "{msg}");

        let e = SelearnError::Csv {
            row: 3,
            col: 1,
            message: "not a number: 'x'".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("row 3") && msg.contains("column 1"), "{msg}");
    }

    #[test]
    fn from_impls_wrap_sources() {
        let g: SelearnError = GeomError::ZeroNormal.into();
        assert!(matches!(g, SelearnError::Geom(GeomError::ZeroNormal)));
        let s: SelearnError = SolverError::EmptyProblem { solver: "fista" }.into();
        assert!(matches!(s, SelearnError::Solver(_)));
        assert!(std::error::Error::source(&s).is_some());
    }
}
