//! Durable online learning for selectivity estimation.
//!
//! The paper's online setting (feedback `(range, selectivity)` pairs
//! arriving one at a time) meets production reality here: feedback must
//! survive crashes, fitted models must be cheap to reload, and a bad
//! refit must be reversible. This crate wraps
//! [`OnlineQuadHist`](selearn_core::OnlineQuadHist) in a [`ModelStore`]
//! built from three pieces:
//!
//! * **WAL** ([`wal`]) — every observation is appended to a
//!   length-prefixed, CRC-32-framed segment log *before* it touches the
//!   model; the returned LSN is the durability acknowledgement.
//! * **Checkpoints** ([`checkpoint`]) — the model's exact state
//!   (arena layout, bit-exact weights, feedback window) under
//!   monotonically increasing generation numbers, each committed by the
//!   atomic rename of its own file; the last three generations are
//!   retained for instant rollback.
//! * **Recovery** ([`store`]) — on open, load the newest valid
//!   checkpoint and replay only the WAL tail past its LSN, truncating a
//!   torn tail at the first corrupt record. Recovery is *bitwise*: the
//!   restored model's estimates equal those of a model that ingested the
//!   surviving prefix from scratch.
//!
//! Everything talks to disk through the [`vfs::Vfs`] trait, so the
//! crash-recovery suite can inject a deterministic "power cut" at any
//! byte offset ([`vfs::FaultVfs`]) and prove those guarantees hold at
//! every kill point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic-free gate: unwrap/expect are banned outside test code
// (clippy.toml exempts #[cfg(test)]); CI runs clippy with -D warnings.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod crc;
pub mod record;
pub mod store;
pub mod vfs;
pub mod wal;

pub use checkpoint::{config_fingerprint, CheckpointData};
pub use record::FeedbackRecord;
pub use store::{ModelStore, RecoveryReport, StoreConfig};
pub use vfs::{FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{WalScan, WalWriter};
