//! Durable feedback ingestion: the bridge between the serving layer and
//! the write-ahead-logged model store.
//!
//! The server itself is storage-agnostic — workers hand feedback lines to
//! a [`FeedbackSink`] and relay the acknowledgement. [`DurableFeedback`]
//! is the production sink: it serializes observations through a
//! [`ModelStore`] (log-before-observe, so the ack LSN it returns is a
//! real durability token), cuts a checkpoint every `checkpoint_every`
//! acknowledged records, and at each checkpoint hot-swaps the online
//! model itself, in the **frozen** layout, into the [`ModelRegistry`], so
//! the estimate hot path keeps serving pointer-free artifacts while the
//! online model keeps learning behind it, and serves exactly what the
//! checkpoint persists.
//!
//! Failure policy, deliberately asymmetric:
//!
//! * a **WAL append failure** fails the observe — the client gets an
//!   error, no ack, and may retry;
//! * a **checkpoint or freeze failure after a durable append** does *not*
//!   fail the observe — the record is already history, so the ack stands
//!   and the failure is logged as a warning and counted in
//!   `serve.feedback_checkpoint_errors` instead.

use crate::drift::DriftMonitor;
use crate::registry::ModelRegistry;
use selearn_core::{SelearnError, SharedEstimator, TrainingQuery};
use selearn_store::ModelStore;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a sink reports back for one accepted feedback record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeedbackAck {
    /// WAL sequence number of the record — the durability token.
    pub lsn: u64,
    /// Committed model generation after this observe (0 = none yet).
    pub generation: u64,
    /// True when this observe triggered a checkpoint + registry swap.
    pub swapped: bool,
}

/// Where the server routes feedback lines. Implementations must be
/// internally synchronized — every worker thread calls through one
/// shared instance.
pub trait FeedbackSink: Send + Sync {
    /// Ingests one observation. `Ok` means the record is durable and the
    /// returned LSN may be handed to the client as an acknowledgement.
    fn observe(&self, feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError>;

    /// Whether the sink's store directory accepts writes, for `/readyz`.
    /// `None` (the default) means the sink has no store to check.
    fn store_writable(&self) -> Option<bool> {
        None
    }

    /// Models whose drift alarm is active, for `/readyz`. Empty (the
    /// default) when no drift monitor is attached.
    fn drift_alarms(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The production [`FeedbackSink`]: a mutex-serialized [`ModelStore`]
/// with periodic checkpointing and registry hot-swap. See the module
/// docs for the failure policy.
pub struct DurableFeedback {
    store: Mutex<ModelStore>,
    /// The store's directory, probed for writability without taking the
    /// store lock (a refit may hold it for a while).
    dir: PathBuf,
    registry: Arc<ModelRegistry>,
    model_name: String,
    checkpoint_every: u64,
    drift: Mutex<Option<Arc<DriftMonitor>>>,
}

impl DurableFeedback {
    /// Wraps an opened store. `checkpoint_every` is the number of
    /// acknowledged records between automatic checkpoints (0 disables
    /// them — checkpoints then happen only via [`checkpoint_now`]).
    ///
    /// [`checkpoint_now`]: DurableFeedback::checkpoint_now
    pub fn new(
        store: ModelStore,
        registry: Arc<ModelRegistry>,
        model_name: &str,
        checkpoint_every: u64,
    ) -> Self {
        Self {
            dir: store.dir().to_path_buf(),
            store: Mutex::new(store),
            registry,
            model_name: model_name.to_string(),
            checkpoint_every,
            drift: Mutex::new(None),
        }
    }

    /// Locked access to the underlying store, for inspection (tests,
    /// admin paths). Holding the guard blocks feedback ingestion.
    pub fn store(&self) -> MutexGuard<'_, ModelStore> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cuts a checkpoint immediately and swaps the frozen snapshot into
    /// the registry. Returns the committed generation.
    pub fn checkpoint_now(&self) -> Result<u64, SelearnError> {
        let mut store = self.store();
        let generation = store.checkpoint()?;
        self.swap_frozen(&store);
        Ok(generation)
    }

    /// Scores every WAL-acked record with `monitor`, replacing any
    /// previous one: the score is taken as soon as the append is durable
    /// and before any checkpoint or swap, so the monitor judges exactly
    /// what was acknowledged against the model the fleet was serving at
    /// that moment. The monitor's alarms also feed
    /// [`FeedbackSink::drift_alarms`].
    pub fn attach_drift(&self, monitor: Arc<DriftMonitor>) {
        *self.drift.lock().unwrap_or_else(PoisonError::into_inner) = Some(monitor);
    }

    fn park_error(&self, e: SelearnError) {
        selearn_obs::counter_add("serve.feedback_checkpoint_errors", 1);
        selearn_obs::warn!("{} after a durable feedback append: {e}", self.model_name);
    }

    /// Hot-swaps the online model's own layout — its current partition
    /// and weights, no refit and no batch fit — under the registry name,
    /// so the server answers exactly what the store persists. A freeze
    /// failure keeps the previous serving model — estimates merely stay
    /// one checkpoint stale.
    fn swap_frozen(&self, store: &ModelStore) {
        match store.model().freeze() {
            Ok(quad) => {
                let next: SharedEstimator = Arc::new(quad.freeze());
                if self.registry.swap(&self.model_name, next) {
                    selearn_obs::counter_add("serve.feedback_swaps", 1);
                }
            }
            Err(e) => self.park_error(e),
        }
    }
}

impl FeedbackSink for DurableFeedback {
    fn observe(&self, feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError> {
        let mut store = self.store();
        let scored = self
            .drift
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|monitor| (Arc::clone(monitor), feedback.clone()));
        let lsn = store.observe(feedback)?;
        if let Some((monitor, feedback)) = scored {
            monitor.score(&self.model_name, &feedback);
        }
        if let Some(e) = store.take_refit_error() {
            self.park_error(e);
        }
        let mut swapped = false;
        if self.checkpoint_every > 0 && store.unflushed_records() >= self.checkpoint_every {
            match store.checkpoint() {
                Ok(_) => {
                    self.swap_frozen(&store);
                    swapped = true;
                }
                // The record is durable; only the snapshot cadence
                // slipped. Recovery replays the longer tail instead.
                Err(e) => self.park_error(e),
            }
        }
        Ok(FeedbackAck {
            lsn,
            generation: store.generation(),
            swapped,
        })
    }

    /// Writes and removes a `.writable-probe` file in the store directory.
    fn store_writable(&self) -> Option<bool> {
        let probe = self.dir.join(".writable-probe");
        let ok = std::fs::write(&probe, b"probe").is_ok();
        let _ = std::fs::remove_file(&probe);
        Some(ok)
    }

    fn drift_alarms(&self) -> Vec<String> {
        self.drift
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|d| d.alarmed())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_core::SelectivityEstimator;
    use selearn_geom::Rect;
    use selearn_store::StoreConfig;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "selearn-feedback-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn config() -> StoreConfig {
        let mut c = StoreConfig::new(Rect::unit(2));
        c.refit_every = 4;
        c.history_cap = 64;
        c.quadhist.max_leaves = 24;
        c
    }

    fn feedback(i: usize) -> TrainingQuery {
        let a = ((i % 23) as f64 + 1.0) / 25.0;
        TrainingQuery::new(Rect::new(vec![0.0, a / 2.0], vec![a, 0.9]), a * 0.5)
    }

    #[test]
    fn acks_are_monotonic_and_checkpoints_swap_the_registry() {
        let dir = tmp_dir("swap");
        let store = ModelStore::open(&dir, config()).expect("open");
        let registry = Arc::new(ModelRegistry::new());
        // Seed the slot with a placeholder the swap will replace.
        struct Half;
        impl SelectivityEstimator for Half {
            fn estimate(&self, _r: &selearn_geom::Range) -> f64 {
                0.5
            }
            fn num_buckets(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "half"
            }
        }
        registry.register("default", Arc::new(Half), Rect::unit(2));
        let sink = DurableFeedback::new(store, Arc::clone(&registry), "default", 6);

        let slot = registry.slot("default").expect("slot");
        let gen0 = slot.get().1;
        let mut last_lsn = 0;
        let mut swaps = 0;
        for i in 0..13 {
            let ack = sink.observe(feedback(i)).expect("observe");
            assert_eq!(ack.lsn, last_lsn + 1, "acks must be gapless");
            last_lsn = ack.lsn;
            if ack.swapped {
                swaps += 1;
            }
        }
        assert_eq!(swaps, 2, "13 records / checkpoint-every-6");
        assert_eq!(sink.store().generation(), 2);
        assert!(
            slot.get().1 > gen0,
            "checkpoint must hot-swap the serving model"
        );
        // The swapped-in model is the frozen snapshot, not the placeholder.
        let (model, _) = slot.get();
        assert_ne!(model.name(), "half");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_feedback_is_rejected_without_consuming_an_lsn() {
        let dir = tmp_dir("reject");
        let store = ModelStore::open(&dir, config()).expect("open");
        let registry = Arc::new(ModelRegistry::new());
        let sink = DurableFeedback::new(store, registry, "default", 0);
        sink.observe(feedback(0)).expect("good record");
        let bad = TrainingQuery::new(Rect::unit(2), f64::NAN);
        assert!(sink.observe(bad).is_err());
        let ack = sink.observe(feedback(1)).expect("next good record");
        assert_eq!(ack.lsn, 2, "the reject must not burn an LSN");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readiness_probes_watch_the_store_directory() {
        let dir = tmp_dir("ready");
        let store = ModelStore::open(&dir, config()).expect("open");
        let sink = DurableFeedback::new(store, Arc::new(ModelRegistry::new()), "default", 0);
        assert_eq!(sink.store_writable(), Some(true));
        assert!(sink.drift_alarms().is_empty(), "no monitor attached");
        std::fs::remove_dir_all(&dir).expect("remove store dir");
        assert_eq!(sink.store_writable(), Some(false));
    }

    #[test]
    fn checkpoint_now_commits_and_recovery_sees_it() {
        let dir = tmp_dir("ckptnow");
        let store = ModelStore::open(&dir, config()).expect("open");
        let registry = Arc::new(ModelRegistry::new());
        let sink = DurableFeedback::new(store, registry, "default", 0);
        for i in 0..9 {
            sink.observe(feedback(i)).expect("observe");
        }
        assert_eq!(sink.checkpoint_now().expect("checkpoint"), 1);
        drop(sink);
        let store = ModelStore::open(&dir, config()).expect("reopen");
        assert_eq!(store.generation(), 1);
        assert_eq!(store.last_lsn(), 9);
        assert_eq!(store.recovery().replayed_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
