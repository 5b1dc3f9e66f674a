//! [`ModelStore`]: the durable façade over an [`OnlineQuadHist`].
//!
//! Protocol, in one paragraph: every observation is appended to the WAL
//! *before* it touches the model (log-before-observe) and its LSN is the
//! acknowledgement the caller may hand out; [`ModelStore::checkpoint`]
//! freezes the model state under the next generation number and commits
//! it by renaming the checkpoint file into place; [`ModelStore::open`]
//! recovers by loading the newest valid checkpoint and replaying only the
//! WAL tail past its recorded LSN, truncating a torn tail first;
//! [`ModelStore::rollback`] rewinds to any retained generation,
//! discarding the log after it.
//!
//! Recovery resolution order:
//!
//! 1. every on-disk checkpoint, newest first: the first that reads back
//!    and restores clean wins (each one passed over counts in
//!    `skipped_checkpoints` of the [`RecoveryReport`]);
//! 2. otherwise a fresh model — but only when the WAL reaches back to
//!    LSN 1, because anything shorter cannot reproduce the lost state.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use selearn_core::{OnlineQuadHist, QuadHistConfig, SelearnError, TrainingQuery};
use selearn_geom::Rect;
use selearn_obs::{counter_add, gauge_set};

use crate::checkpoint::{
    checkpoint_name, config_fingerprint, list_checkpoints, read_checkpoint, write_checkpoint,
    CheckpointData,
};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{
    repair_torn_tail, scan_wal, truncate_after_lsn, WalScan, WalWriter, SEGMENT_HEADER_LEN,
};

/// Checkpoint generations kept on disk for rollback.
const RETAIN_GENERATIONS: usize = 3;

/// Deployment configuration for a [`ModelStore`]. Everything here is
/// *owned by the caller*, not the store directory — a checkpoint records
/// only a fingerprint of it and refuses to load under a different one.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// The data-space root of the online model.
    pub root: Rect,
    /// QuadHist partitioning/refit knobs.
    pub quadhist: QuadHistConfig,
    /// Observations per scheduled weight refit.
    pub refit_every: usize,
    /// Feedback-window cap (0 = unbounded).
    pub history_cap: usize,
    /// WAL segment rotation threshold, in bytes.
    pub segment_bytes: u64,
}

impl StoreConfig {
    /// A config with production defaults over the given data space:
    /// refit every 64 observations, 4096-record window, 1 MiB segments.
    pub fn new(root: Rect) -> Self {
        Self {
            root,
            quadhist: QuadHistConfig::default(),
            refit_every: 64,
            history_cap: 4096,
            segment_bytes: 1 << 20,
        }
    }
}

/// What recovery found and did, for logs and tests.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Generation restored from (0 = started fresh).
    pub generation: u64,
    /// The LSN that checkpoint covered.
    pub checkpoint_lsn: u64,
    /// WAL records replayed past the checkpoint.
    pub replayed_records: u64,
    /// Bytes of torn tail truncated from the log.
    pub truncated_bytes: u64,
    /// Why the tail was torn, when it was.
    pub torn_tail: Option<String>,
    /// Checkpoint files passed over because they failed to read back
    /// (CRC, magic, structure, config fingerprint) or to restore.
    pub skipped_checkpoints: u64,
}

/// A durable, crash-recoverable online model. See the module docs for
/// the protocol.
pub struct ModelStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    config: StoreConfig,
    fingerprint: u32,
    model: OnlineQuadHist,
    wal: WalWriter,
    generation: u64,
    last_checkpoint_lsn: u64,
    last_refit_error: Option<SelearnError>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("last_lsn", &self.last_lsn())
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

impl ModelStore {
    /// Opens (or creates) a store on the real filesystem.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<Self, SelearnError> {
        Self::open_with_vfs(Arc::new(StdVfs), dir, config)
    }

    /// Opens (or creates) a store through an explicit [`Vfs`] — the
    /// entry point the crash-injection harness uses.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: StoreConfig,
    ) -> Result<Self, SelearnError> {
        if config.refit_every == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "selearn-store",
                what: "refit_every must be >= 1",
            });
        }
        vfs.create_dir_all(dir)?;
        let fingerprint = config_fingerprint(
            &config.root,
            &config.quadhist,
            config.refit_every,
            config.history_cap,
        );

        let mut report = RecoveryReport::default();
        let mut base = None;
        let on_disk = list_checkpoints(vfs.as_ref(), dir)?;
        for &generation in on_disk.iter().rev() {
            match load_checkpoint(vfs.as_ref(), dir, &config, fingerprint, generation) {
                Ok((lsn, model)) => {
                    base = Some((generation, lsn, model));
                    break;
                }
                Err(_) => report.skipped_checkpoints += 1,
            }
        }

        let scan = scan_wal(vfs.as_ref(), dir)?;
        if let Some(torn) = &scan.torn {
            report.torn_tail = Some(format!("{} at byte {}: {}", torn.segment, torn.offset, torn.what));
            // Everything past the valid prefix is debris — the whole file
            // when its header never made it (`offset` 0).
            report.truncated_bytes = torn.file_len - torn.offset;
            repair_torn_tail(vfs.as_ref(), dir, &scan)?;
        }

        let checkpoint_lsn = base.as_ref().map_or(0, |&(_, lsn, _)| lsn);
        if let Some(first) = scan.first_lsn() {
            if first > checkpoint_lsn + 1 {
                return Err(SelearnError::WalCorrupt {
                    segment: scan.segments.first().map_or_else(String::new, |s| s.name.clone()),
                    offset: SEGMENT_HEADER_LEN,
                    what: format!(
                        "log starts at lsn {first} but the newest usable checkpoint covers only lsn {checkpoint_lsn}: records {}..{first} are gone",
                        checkpoint_lsn + 1
                    ),
                });
            }
        }

        report.generation = base.as_ref().map_or(0, |&(generation, _, _)| generation);
        let loaded = base.as_ref().map(|&(generation, lsn, _)| (generation, lsn));
        let mut model = match base {
            Some((_, _, model)) => model,
            None => OnlineQuadHist::new(
                config.root.clone(),
                config.quadhist.clone(),
                config.refit_every,
            )?
            .with_history_cap(config.history_cap),
        };

        let mut last_refit_error = None;
        for record in &scan.records {
            if record.lsn <= checkpoint_lsn {
                continue;
            }
            // The CRC vouches for the bytes, not for a record this store
            // could have acknowledged (a range of the wrong dimension, a
            // label outside [0, 1]): such a record cannot be replayed.
            if let Err(e) = model.check_feedback(&record.feedback) {
                let (segment, offset) = scan.record_start(record.lsn).unwrap_or_default();
                return Err(SelearnError::WalCorrupt {
                    segment,
                    offset,
                    what: format!("record lsn {}: {e}", record.lsn),
                });
            }
            // A durably acknowledged record must reach the model; refit
            // (solver) failures are deterministic on replay and recorded
            // rather than fatal, exactly as on the live path.
            if let Err(e) = model.observe(record.feedback.clone()) {
                last_refit_error = Some(e);
            }
            report.replayed_records += 1;
        }

        let next_lsn = scan.next_lsn.max(checkpoint_lsn + 1);
        let wal = WalWriter::open(
            Arc::clone(&vfs),
            dir,
            &scan,
            next_lsn,
            config.segment_bytes,
            true,
        )?;

        report.checkpoint_lsn = checkpoint_lsn;
        counter_add("store.recoveries", 1);
        counter_add("store.replayed_records", report.replayed_records);
        counter_add("store.truncated_bytes", report.truncated_bytes);
        if report.torn_tail.is_some() {
            counter_add("store.torn_tails", 1);
        }
        counter_add("store.skipped_checkpoints", report.skipped_checkpoints);
        gauge_set("store.generation", report.generation as f64);

        let store = Self {
            vfs,
            dir: dir.to_path_buf(),
            config,
            fingerprint,
            model,
            wal,
            generation: report.generation,
            last_checkpoint_lsn: checkpoint_lsn,
            last_refit_error,
            recovery: report,
        };
        // The repaired scan describes the log on disk, and nothing above
        // touched a checkpoint file: prune from what recovery already read.
        store.prune(&on_disk, loaded, Some(&scan))?;
        Ok(store)
    }

    /// Ingests one feedback record durably: validates, appends to the
    /// WAL, *then* applies to the model. Returns the record's LSN — the
    /// acknowledgement token; a record whose LSN was returned survives
    /// any crash. Validation failures ([`SelearnError::InvalidLabel`] for
    /// a label outside `[0, 1]`, [`SelearnError::Geom`] for a range of the
    /// wrong dimension, [`SelearnError::UnsupportedQuery`]) leave both log
    /// and model untouched. A refit (solver) failure after the durable append is
    /// *not* an error here — the observation is history; the failure is
    /// parked in [`ModelStore::take_refit_error`].
    pub fn observe(&mut self, feedback: TrainingQuery) -> Result<u64, SelearnError> {
        self.model.check_feedback(&feedback)?;
        let lsn = self.wal.append(&feedback)?;
        if let Err(e) = self.model.observe(feedback) {
            self.last_refit_error = Some(e);
        }
        counter_add("store.appended_records", 1);
        Ok(lsn)
    }

    /// Freezes the current model state under the next generation number
    /// and commits it. On return the checkpoint is durable and current;
    /// a crash before its rename leaves the previous generation current.
    /// Returns the new generation.
    pub fn checkpoint(&mut self) -> Result<u64, SelearnError> {
        self.wal.sync()?;
        let on_disk = list_checkpoints(self.vfs.as_ref(), &self.dir)?;
        // Skip past newer files recovery passed over as well as the
        // current generation — numbers are never reused.
        let generation = on_disk.last().copied().unwrap_or(0).max(self.generation) + 1;
        let lsn = self.wal.next_lsn() - 1;
        let data = CheckpointData {
            generation,
            lsn,
            snapshot: self.model.snapshot(),
        };
        write_checkpoint(self.vfs.as_ref(), &self.dir, &data, self.fingerprint)?;
        self.generation = generation;
        self.last_checkpoint_lsn = lsn;
        counter_add("store.checkpoints", 1);
        gauge_set("store.generation", generation as f64);
        let mut gens = on_disk;
        gens.push(generation);
        self.prune(&gens, None, None)?;
        Ok(generation)
    }

    /// Rewinds to a retained generation: that checkpoint becomes current,
    /// every newer checkpoint is deleted, and the WAL is truncated to its
    /// LSN (feedback after it is *discarded* — rollback is the one
    /// operation that forgets acknowledged records, by design). The
    /// ordering is crash-safe: newer checkpoints go first, so no crash
    /// point can leave a checkpoint referring to LSNs the rewound log
    /// will hand out again, and the log is then cut newest-first, so a
    /// crash mid-rewind leaves a shorter but valid log.
    pub fn rollback(&mut self, generation: u64) -> Result<(), SelearnError> {
        let retained = self.generations()?;
        if !retained.contains(&generation) {
            return Err(SelearnError::UnknownGeneration {
                requested: generation,
                retained,
            });
        }
        let (lsn, model) = load_checkpoint(
            self.vfs.as_ref(),
            &self.dir,
            &self.config,
            self.fingerprint,
            generation,
        )?;

        for newer in self.generations()?.into_iter().filter(|&g| g > generation) {
            self.vfs
                .remove_file(&self.dir.join(checkpoint_name(newer)))?;
        }
        self.vfs.sync_dir(&self.dir)?;
        let scan = scan_wal(self.vfs.as_ref(), &self.dir)?;
        truncate_after_lsn(self.vfs.as_ref(), &self.dir, &scan, lsn)?;

        self.model = model;
        self.generation = generation;
        self.last_checkpoint_lsn = lsn;
        let scan = scan_wal(self.vfs.as_ref(), &self.dir)?;
        self.wal = WalWriter::open(
            Arc::clone(&self.vfs),
            &self.dir,
            &scan,
            scan.next_lsn.max(lsn + 1),
            self.config.segment_bytes,
            true,
        )?;
        counter_add("store.rollbacks", 1);
        gauge_set("store.generation", generation as f64);
        Ok(())
    }

    /// Deletes checkpoints beyond the retention window and WAL segments
    /// no retained generation could ever need for replay. `gens` lists
    /// the checkpoints on disk, ascending; `known` is a `(generation,
    /// lsn)` recovery has just read and restored, so it need not be read
    /// again; `scan` describes the log on disk, or `None` to scan it here.
    fn prune(
        &self,
        gens: &[u64],
        known: Option<(u64, u64)>,
        scan: Option<&WalScan>,
    ) -> Result<(), SelearnError> {
        let cut = gens.len().saturating_sub(RETAIN_GENERATIONS);
        if cut > 0 {
            for &g in &gens[..cut] {
                self.vfs.remove_file(&self.dir.join(checkpoint_name(g)))?;
            }
            self.vfs.sync_dir(&self.dir)?;
        }
        // The oldest retained checkpoint anchors replay: records at or
        // before its LSN are dead. A segment may go only when the *next*
        // segment already covers everything past that anchor.
        let Some(&oldest) = gens.get(cut) else {
            return Ok(());
        };
        let anchor = match known {
            Some((generation, lsn)) if generation == oldest => lsn,
            _ => match read_checkpoint(self.vfs.as_ref(), &self.dir, oldest, self.fingerprint) {
                Ok(data) => data.lsn,
                Err(_) => return Ok(()), // recovery will sort it out; never prune blind
            },
        };
        let fresh;
        let scan = match scan {
            Some(scan) => scan,
            None => {
                fresh = scan_wal(self.vfs.as_ref(), &self.dir)?;
                &fresh
            }
        };
        for pair in scan.segments.windows(2) {
            if pair[1].first_lsn <= anchor + 1 {
                self.vfs.remove_file(&self.dir.join(&pair[0].name))?;
                self.vfs.sync_dir(&self.dir)?;
            } else {
                break;
            }
        }
        Ok(())
    }

    /// The live model (read access: estimates, counters, freezing a
    /// serving snapshot).
    pub fn model(&self) -> &OnlineQuadHist {
        &self.model
    }

    /// The directory the store was opened on.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The currently committed generation (0 = none yet).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generations currently on disk, ascending — the rollback menu.
    pub fn generations(&self) -> Result<Vec<u64>, SelearnError> {
        list_checkpoints(self.vfs.as_ref(), &self.dir)
    }

    /// LSN of the last acknowledged record (0 = none).
    pub fn last_lsn(&self) -> u64 {
        self.wal.next_lsn() - 1
    }

    /// Records acknowledged since the committed checkpoint.
    pub fn unflushed_records(&self) -> u64 {
        self.last_lsn().saturating_sub(self.last_checkpoint_lsn)
    }

    /// Takes the most recent refit failure, if one happened after a
    /// durable append (see [`ModelStore::observe`]).
    pub fn take_refit_error(&mut self) -> Option<SelearnError> {
        self.last_refit_error.take()
    }
}

/// Reads checkpoint `generation` and rebuilds its model. Returns the LSN
/// the checkpoint covers and the restored model.
fn load_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    config: &StoreConfig,
    fingerprint: u32,
    generation: u64,
) -> Result<(u64, OnlineQuadHist), SelearnError> {
    let data = read_checkpoint(vfs, dir, generation, fingerprint)?;
    let model = OnlineQuadHist::restore(
        config.root.clone(),
        config.quadhist.clone(),
        config.refit_every,
        config.history_cap,
        data.snapshot,
    )?;
    Ok((data.lsn, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_core::SelectivityEstimator;
    use selearn_geom::Range;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("selearn-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_config() -> StoreConfig {
        let mut c = StoreConfig::new(Rect::unit(2));
        c.refit_every = 8;
        c.history_cap = 128;
        c.segment_bytes = 512; // force rotation in tests
        c
    }

    fn feedback(i: usize) -> TrainingQuery {
        let a = ((i % 37) as f64 + 1.0) / 40.0;
        TrainingQuery::new(Rect::new(vec![0.0, a / 3.0], vec![a, 0.9]), a * 0.6)
    }

    fn probes() -> Vec<Range> {
        (0..25)
            .map(|i| {
                let a = (i as f64 + 0.5) / 25.0;
                Rect::new(vec![a / 4.0, 0.0], vec![a, a]).into()
            })
            .collect()
    }

    #[test]
    fn reopen_replays_the_tail_bitwise() {
        let dir = tmp_dir("replay");
        let mut store = ModelStore::open(&dir, small_config()).expect("open");
        for i in 0..40 {
            assert_eq!(store.observe(feedback(i)).expect("observe"), i as u64 + 1);
        }
        store.checkpoint().expect("checkpoint");
        for i in 40..70 {
            store.observe(feedback(i)).expect("observe");
        }
        let live: Vec<u64> = probes()
            .iter()
            .map(|q| store.model().estimate(q).to_bits())
            .collect();
        drop(store);

        let store = ModelStore::open(&dir, small_config()).expect("reopen");
        assert_eq!(store.recovery().generation, 1);
        assert_eq!(store.recovery().checkpoint_lsn, 40);
        assert_eq!(store.recovery().replayed_records, 30);
        assert_eq!(store.last_lsn(), 70);
        let recovered: Vec<u64> = probes()
            .iter()
            .map(|q| store.model().estimate(q).to_bits())
            .collect();
        assert_eq!(live, recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_restores_exact_generation_estimates() {
        let dir = tmp_dir("rollback");
        let mut store = ModelStore::open(&dir, small_config()).expect("open");
        let mut per_gen: Vec<(u64, Vec<u64>)> = Vec::new();
        for round in 0..3 {
            for i in round * 25..(round + 1) * 25 {
                store.observe(feedback(i)).expect("observe");
            }
            let generation = store.checkpoint().expect("checkpoint");
            let est = probes()
                .iter()
                .map(|q| store.model().estimate(q).to_bits())
                .collect();
            per_gen.push((generation, est));
        }
        for i in 75..90 {
            store.observe(feedback(i)).expect("observe");
        }
        // Roll back to each retained generation, oldest last.
        for (generation, expected) in per_gen.iter().rev() {
            store.rollback(*generation).expect("rollback");
            assert_eq!(store.generation(), *generation);
            let got: Vec<u64> = probes()
                .iter()
                .map(|q| store.model().estimate(q).to_bits())
                .collect();
            assert_eq!(&got, expected, "generation {generation} estimates diverged");
        }
        // The store keeps working after a rollback, and reopening holds.
        let g1 = per_gen[0].0;
        assert_eq!(store.last_lsn(), 25);
        store.observe(feedback(200)).expect("observe");
        assert_eq!(store.last_lsn(), 26);
        drop(store);
        let store = ModelStore::open(&dir, small_config()).expect("reopen");
        assert_eq!(store.generation(), g1);
        assert_eq!(store.last_lsn(), 26);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_generation_is_typed() {
        let dir = tmp_dir("unknown");
        let mut store = ModelStore::open(&dir, small_config()).expect("open");
        store.observe(feedback(0)).expect("observe");
        store.checkpoint().expect("checkpoint");
        let err = store.rollback(99).unwrap_err();
        assert!(matches!(
            err,
            SelearnError::UnknownGeneration { requested: 99, .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_old_generations_and_segments() {
        let dir = tmp_dir("retain");
        let mut store = ModelStore::open(&dir, small_config()).expect("open");
        for round in 0..6 {
            for i in round * 20..(round + 1) * 20 {
                store.observe(feedback(i)).expect("observe");
            }
            store.checkpoint().expect("checkpoint");
        }
        let gens = store.generations().expect("generations");
        assert_eq!(gens, vec![4, 5, 6]);
        // Pruned WAL must still fully support recovery from any retained
        // generation (the oldest anchors the log).
        drop(store);
        let store = ModelStore::open(&dir, small_config()).expect("reopen");
        assert_eq!(store.generation(), 6);
        assert_eq!(store.last_lsn(), 120);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The retention rule as a standalone pass that reads everything it
    /// needs back from disk: the oracle `prune` must agree with.
    fn prune_by_rereading(dir: &Path, config: &StoreConfig) {
        let fingerprint = config_fingerprint(
            &config.root,
            &config.quadhist,
            config.refit_every,
            config.history_cap,
        );
        let gens = list_checkpoints(&StdVfs, dir).unwrap();
        let cut = gens.len().saturating_sub(RETAIN_GENERATIONS);
        for &g in &gens[..cut] {
            std::fs::remove_file(dir.join(checkpoint_name(g))).unwrap();
        }
        let gens = list_checkpoints(&StdVfs, dir).unwrap();
        let Some(&oldest) = gens.first() else {
            return;
        };
        let Ok(data) = read_checkpoint(&StdVfs, dir, oldest, fingerprint) else {
            return;
        };
        let scan = scan_wal(&StdVfs, dir).unwrap();
        for pair in scan.segments.windows(2) {
            if pair[1].first_lsn > data.lsn + 1 {
                break;
            }
            std::fs::remove_file(dir.join(&pair[0].name)).unwrap();
        }
    }

    /// File names and lengths in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    e.metadata().unwrap().len(),
                )
            })
            .collect();
        files.sort();
        files
    }

    /// Copies every file of `from` into `to`, overwriting.
    fn copy_files(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for e in std::fs::read_dir(from).unwrap() {
            let e = e.unwrap();
            std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }

    /// Every file a store ever held, at its last length: what a store
    /// directory looks like when no prune ran after each checkpoint (a
    /// crash between a checkpoint's rename and its prune, repeated).
    fn unpruned_image(tag: &str, rounds: usize, per_round: usize, tail: usize) -> PathBuf {
        let live = tmp_dir(&format!("{tag}-live"));
        let image = tmp_dir(&format!("{tag}-image"));
        let mut store = ModelStore::open(&live, small_config()).unwrap();
        let mut i = 0;
        for _ in 0..rounds {
            for _ in 0..per_round {
                store.observe(feedback(i)).unwrap();
                i += 1;
                copy_files(&live, &image);
            }
            store.checkpoint().unwrap();
            copy_files(&live, &image);
        }
        for _ in 0..tail {
            store.observe(feedback(i)).unwrap();
            i += 1;
        }
        copy_files(&live, &image);
        drop(store);
        let _ = std::fs::remove_dir_all(&live);
        image
    }

    #[test]
    fn open_prunes_the_files_the_rereading_rule_prunes() {
        // Five generations (two beyond retention) and one generation, each
        // over many 512-byte segments.
        for (tag, rounds) in [("prune-open5", 5), ("prune-open1", 1)] {
            let image = unpruned_image(tag, rounds, 20, 10);
            let (opened, oracle) = (tmp_dir(&format!("{tag}-a")), tmp_dir(&format!("{tag}-b")));
            copy_files(&image, &opened);
            copy_files(&image, &oracle);
            let store = ModelStore::open(&opened, small_config()).unwrap();
            assert_eq!(store.last_lsn(), rounds as u64 * 20 + 10);
            drop(store);
            prune_by_rereading(&oracle, &small_config());
            let (before, after) = (listing(&image), listing(&opened));
            assert_eq!(after, listing(&oracle), "{tag}");
            let segments =
                |l: &[(String, u64)]| l.iter().filter(|f| f.0.starts_with("wal-")).count();
            assert!(
                segments(&after) < segments(&before),
                "{tag}: no segment was pruned"
            );
            assert!(
                segments(&after) >= 2,
                "{tag}: the test needs a multi-segment log"
            );
            let gens = |l: &[(String, u64)]| l.iter().filter(|f| f.0.starts_with("ckpt-")).count();
            assert_eq!(gens(&after), rounds.min(RETAIN_GENERATIONS), "{tag}");
            for d in [image, opened, oracle] {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }

    #[test]
    fn checkpoint_prunes_the_files_the_rereading_rule_prunes() {
        let dir = tmp_dir("prune-ckpt");
        let oracle = tmp_dir("prune-ckpt-oracle");
        let mut store = ModelStore::open(&dir, small_config()).unwrap();
        let mut pruned = 0;
        for round in 0..6 {
            for i in round * 20..(round + 1) * 20 {
                store.observe(feedback(i)).unwrap();
            }
            let _ = std::fs::remove_dir_all(&oracle);
            copy_files(&dir, &oracle);
            let before = listing(&oracle).len();
            let generation = store.checkpoint().unwrap();
            let name = checkpoint_name(generation);
            std::fs::copy(dir.join(&name), oracle.join(&name)).unwrap();
            prune_by_rereading(&oracle, &small_config());
            let after = listing(&dir);
            assert_eq!(after, listing(&oracle), "round {round}");
            pruned += (before + 1).saturating_sub(after.len());
        }
        assert!(
            pruned > 3,
            "only {pruned} files pruned over six checkpoints"
        );
        drop(store);
        for d in [dir, oracle] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn invalid_feedback_is_rejected_before_logging() {
        let dir = tmp_dir("invalid");
        let mut store = ModelStore::open(&dir, small_config()).expect("open");
        store.observe(feedback(0)).expect("observe");
        let bad = TrainingQuery::new(Rect::unit(2), f64::NAN);
        assert!(matches!(
            store.observe(bad).unwrap_err(),
            SelearnError::InvalidLabel { .. }
        ));
        let neg = TrainingQuery::new(Rect::unit(2), -0.25);
        assert!(matches!(
            store.observe(neg).unwrap_err(),
            SelearnError::InvalidLabel { .. }
        ));
        use selearn_geom::SemiAlgebraicSet;
        let semi = TrainingQuery::new(
            Range::SemiAlgebraic {
                set: SemiAlgebraicSet::disc_intersection_query(0.5, 0.5, 0.1),
                dim: 2,
            },
            0.1,
        );
        assert!(matches!(
            store.observe(semi).unwrap_err(),
            SelearnError::UnsupportedQuery { .. }
        ));
        // None of the rejects consumed an LSN.
        assert_eq!(store.last_lsn(), 1);
        drop(store);
        let store = ModelStore::open(&dir, small_config()).expect("reopen");
        assert_eq!(store.last_lsn(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_store_with_partial_wal_is_an_error() {
        let dir = tmp_dir("gapfresh");
        let mut store = ModelStore::open(&dir, small_config()).expect("open");
        for i in 0..10 {
            store.observe(feedback(i)).expect("observe");
        }
        drop(store);
        // No checkpoint was ever cut; now also lose the first segment: the WAL no longer reaches back to LSN 1.
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert!(scan.segments.len() >= 2, "need rotation for this test");
        std::fs::remove_file(dir.join(&scan.segments[0].name)).expect("rm");
        let err = ModelStore::open(&dir, small_config()).unwrap_err();
        assert!(matches!(err, SelearnError::WalCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
