//! Generational model checkpoints.
//!
//! A checkpoint (`ckpt-{generation:020}.sel`) is a line-oriented text
//! file in the `core::persist` idiom — floats as 16-hex-digit IEEE-754
//! bit patterns so restore is bitwise exact — closed by a CRC-32 trailer
//! over everything before it. It captures an [`OnlineSnapshot`] (exact
//! arena layout, node weights, feedback window, counters) plus the WAL
//! LSN it is consistent with and a fingerprint of the deployment config
//! (root, τ, solver, refit interval, …). The config itself is *not*
//! persisted: the caller owns it, and the fingerprint catches a restart
//! under a different one before it can produce silently different
//! estimates.
//!
//! A checkpoint is written to a `.tmp` name, synced, and renamed into
//! place, so a crash mid-checkpoint leaves either no new file or a
//! complete one — never a half-written checkpoint under a committed
//! name. That rename is the commit: the current generation is the
//! newest checkpoint file that reads back clean, and no other file
//! records it.

use std::path::Path;

use selearn_core::{OnlineSnapshot, QuadHistConfig, SelearnError, TrainingQuery};
use selearn_geom::Rect;

use crate::crc::crc32;
use crate::record::{decode_payload, encode_payload};
use crate::vfs::Vfs;

const CHECKPOINT_MAGIC: &str = "SELCKPT v1";

/// Formats the checkpoint file name for a generation.
pub fn checkpoint_name(generation: u64) -> String {
    format!("ckpt-{generation:020}.sel")
}

/// Parses a generation number out of a checkpoint file name.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".sel")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Generations with a checkpoint file on disk, ascending.
pub fn list_checkpoints(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<u64>, SelearnError> {
    let mut gens: Vec<u64> = vfs
        .list(dir)?
        .iter()
        .filter_map(|n| parse_checkpoint_name(n))
        .collect();
    gens.sort_unstable();
    Ok(gens)
}

/// CRC-32 fingerprint of the deployment configuration a checkpoint is
/// only valid under. Covers everything that steers future refits and
/// splits: the data-space root, every [`QuadHistConfig`] knob, the refit
/// interval, and the window cap.
pub fn config_fingerprint(
    root: &Rect,
    config: &QuadHistConfig,
    refit_every: usize,
    history_cap: usize,
) -> u32 {
    let mut canon = String::new();
    canon.push_str("root");
    for &c in root.lo().iter().chain(root.hi().iter()) {
        canon.push_str(&format!(" {:016x}", c.to_bits()));
    }
    canon.push_str(&format!(
        "|tau {:016x}|max_leaves {}|objective {:?}|solver {:?}|volume {:?}|refit_every {refit_every}|history_cap {history_cap}",
        config.tau.to_bits(),
        config.max_leaves,
        config.objective,
        config.solver,
        config.volume,
    ));
    crc32(canon.as_bytes())
}

/// A checkpoint's decoded contents.
#[derive(Clone, Debug)]
pub struct CheckpointData {
    /// The checkpoint's generation number.
    pub generation: u64,
    /// The highest LSN whose effects this checkpoint includes; recovery
    /// replays the WAL strictly past it.
    pub lsn: u64,
    /// The captured model state.
    pub snapshot: OnlineSnapshot,
}

fn corrupt(generation: u64, what: impl Into<String>) -> SelearnError {
    SelearnError::CheckpointCorrupt {
        generation,
        what: what.into(),
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

/// Writes and commits one checkpoint: serializes to `ckpt-….sel.tmp`,
/// syncs, atomically renames into place and syncs the directory. Once
/// this returns, the generation is current.
pub fn write_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    data: &CheckpointData,
    fingerprint: u32,
) -> Result<(), SelearnError> {
    let snap = &data.snapshot;
    let mut body = String::new();
    body.push_str(CHECKPOINT_MAGIC);
    body.push('\n');
    body.push_str(&format!("generation {}\n", data.generation));
    body.push_str(&format!("lsn {}\n", data.lsn));
    body.push_str(&format!("fingerprint {fingerprint:08x}\n"));
    body.push_str(&format!("nodes {}\n", snap.first_child.len()));
    body.push_str("arena");
    for link in &snap.first_child {
        match link {
            Some(c) => body.push_str(&format!(" {c}")),
            None => body.push_str(" -"),
        }
    }
    body.push('\n');
    if snap.node_weight.len() != snap.first_child.len() {
        return Err(corrupt(
            data.generation,
            format!(
                "snapshot has {} weights for {} nodes",
                snap.node_weight.len(),
                snap.first_child.len()
            ),
        ));
    }
    body.push_str("weights");
    for w in &snap.node_weight {
        body.push_str(&format!(" {:016x}", w.to_bits()));
    }
    body.push('\n');
    body.push_str(&format!("history {}\n", snap.history.len()));
    let mut payload = Vec::new();
    for (i, q) in snap.history.iter().enumerate() {
        payload.clear();
        encode_payload(i as u64, q, &mut payload)?;
        body.push_str("q ");
        body.push_str(&hex_encode(&payload));
        body.push('\n');
    }
    body.push_str(&format!("total {}\n", snap.total_observed));
    body.push_str(&format!("since_refit {}\n", snap.observed_since_refit));
    let trailer = format!("crc {:08x}\n", crc32(body.as_bytes()));
    body.push_str(&trailer);

    let final_path = dir.join(checkpoint_name(data.generation));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_name(data.generation)));
    let mut file = vfs.create(&tmp_path)?;
    file.write_all(body.as_bytes())?;
    file.sync()?;
    drop(file);
    vfs.rename(&tmp_path, &final_path)?;
    vfs.sync_dir(dir)?;
    Ok(())
}

struct Lines<'a> {
    lines: std::str::Lines<'a>,
    generation: u64,
}

impl<'a> Lines<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, SelearnError> {
        self.lines
            .next()
            .ok_or_else(|| corrupt(self.generation, format!("truncated before {what}")))
    }

    fn keyed(&mut self, key: &str) -> Result<&'a str, SelearnError> {
        let line = self.next(key)?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| corrupt(self.generation, format!("expected `{key} …`, found `{line}`")))
    }

    fn keyed_u64(&mut self, key: &str) -> Result<u64, SelearnError> {
        let v = self.keyed(key)?;
        v.parse()
            .map_err(|_| corrupt(self.generation, format!("`{key}` is not an integer: `{v}`")))
    }
}

/// Reads and fully validates one checkpoint: CRC trailer, magic, field
/// structure and counts, and the config fingerprint. Every failure is
/// [`SelearnError::CheckpointCorrupt`] — the caller decides whether to
/// fall back to an older generation or surface the error.
pub fn read_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    expected_fingerprint: u32,
) -> Result<CheckpointData, SelearnError> {
    let path = dir.join(checkpoint_name(generation));
    let bytes = vfs
        .read(&path)
        .map_err(|e| corrupt(generation, format!("unreadable: {e}")))?;
    let text =
        std::str::from_utf8(&bytes).map_err(|_| corrupt(generation, "not valid utf-8"))?;

    // Split off and verify the CRC trailer first: everything else only
    // gets parsed once we know the bytes are the ones that were written.
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let (body_end, trailer) = match trimmed.rfind('\n') {
        Some(i) => (i + 1, &trimmed[i + 1..]),
        None => (0, trimmed),
    };
    let stated = trailer
        .strip_prefix("crc ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| corrupt(generation, "missing crc trailer"))?;
    let actual = crc32(&text.as_bytes()[..body_end]);
    if stated != actual {
        return Err(corrupt(
            generation,
            format!("crc mismatch: stated {stated:08x}, computed {actual:08x}"),
        ));
    }

    let mut lines = Lines {
        lines: text[..body_end].lines(),
        generation,
    };
    let magic = lines.next("magic")?;
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt(generation, format!("bad magic `{magic}`")));
    }
    let stated_gen = lines.keyed_u64("generation")?;
    if stated_gen != generation {
        return Err(corrupt(
            generation,
            format!("file claims generation {stated_gen}"),
        ));
    }
    let lsn = lines.keyed_u64("lsn")?;
    let fp = lines.keyed("fingerprint")?;
    let fp = u32::from_str_radix(fp, 16)
        .map_err(|_| corrupt(generation, format!("bad fingerprint field `{fp}`")))?;
    if fp != expected_fingerprint {
        return Err(corrupt(
            generation,
            format!(
                "config fingerprint mismatch: checkpoint {fp:08x}, deployment {expected_fingerprint:08x}"
            ),
        ));
    }
    // Counts are checked against what was actually parsed, never used to
    // size an allocation: a CRC only proves the bytes are the ones that
    // were written, not that whoever wrote them was honest.
    let nodes = lines.keyed_u64("nodes")?;

    let arena_line = lines.keyed("arena")?;
    let mut first_child = Vec::new();
    for tok in arena_line.split(' ').filter(|t| !t.is_empty()) {
        if tok == "-" {
            first_child.push(None);
        } else {
            let c: usize = tok
                .parse()
                .map_err(|_| corrupt(generation, format!("bad arena link `{tok}`")))?;
            first_child.push(Some(c));
        }
    }
    if first_child.len() as u64 != nodes {
        return Err(corrupt(
            generation,
            format!("arena has {} links for {nodes} nodes", first_child.len()),
        ));
    }

    let weights_line = lines.keyed("weights")?;
    let mut node_weight = Vec::with_capacity(first_child.len());
    for tok in weights_line.split(' ').filter(|t| !t.is_empty()) {
        let bits = u64::from_str_radix(tok, 16)
            .map_err(|_| corrupt(generation, format!("bad weight `{tok}`")))?;
        node_weight.push(f64::from_bits(bits));
    }
    if node_weight.len() != first_child.len() {
        return Err(corrupt(
            generation,
            format!("{} weights for {nodes} nodes", node_weight.len()),
        ));
    }

    let m = lines.keyed_u64("history")?;
    let mut history: Vec<TrainingQuery> = Vec::new();
    for i in 0..m {
        let hex = lines.keyed("q")?;
        let payload = hex_decode(hex)
            .map_err(|e| corrupt(generation, format!("history record {i}: {e}")))?;
        let record = decode_payload(&payload)
            .map_err(|e| corrupt(generation, format!("history record {i}: {e}")))?;
        history.push(record.feedback);
    }
    let total_observed = lines.keyed_u64("total")? as usize;
    let observed_since_refit = lines.keyed_u64("since_refit")? as usize;
    if lines.lines.next().is_some() {
        return Err(corrupt(generation, "trailing content after counters"));
    }
    // The store logs every record before the model observes it, so a
    // checkpoint's model has observed exactly the records up to its LSN;
    // and the log must still be able to number the record after it.
    if total_observed as u64 != lsn || lsn == u64::MAX {
        return Err(corrupt(
            generation,
            format!("model counts {total_observed} observations at lsn {lsn}"),
        ));
    }

    Ok(CheckpointData {
        generation,
        lsn,
        snapshot: OnlineSnapshot {
            first_child,
            node_weight,
            history,
            total_observed,
            observed_since_refit,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use selearn_core::OnlineQuadHist;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("selearn-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn trained_model() -> OnlineQuadHist {
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::default(), 8)
            .expect("model")
            .with_history_cap(64);
        for i in 0..30 {
            let a = (i as f64 + 1.0) / 40.0;
            let q = TrainingQuery::new(Rect::new(vec![0.0, 0.0], vec![a, 0.5 + a / 4.0]), a / 2.0);
            m.observe(q).expect("observe");
        }
        m
    }

    #[test]
    fn checkpoint_round_trip_is_bitwise() {
        let dir = tmp_dir("round");
        let model = trained_model();
        let fp = config_fingerprint(model.root(), &QuadHistConfig::default(), 8, 64);
        let data = CheckpointData {
            generation: 3,
            lsn: 30,
            snapshot: model.snapshot(),
        };
        write_checkpoint(&StdVfs, &dir, &data, fp).expect("write");
        let loaded = read_checkpoint(&StdVfs, &dir, 3, fp).expect("read");
        assert_eq!(loaded.lsn, 30);
        let restored = OnlineQuadHist::restore(
            model.root().clone(),
            QuadHistConfig::default(),
            8,
            64,
            loaded.snapshot,
        )
        .expect("restore");
        use selearn_core::SelectivityEstimator;
        for i in 0..50 {
            let a = (i as f64 + 0.5) / 50.0;
            let q: selearn_geom::Range = Rect::new(vec![0.0, a / 3.0], vec![a, 0.9]).into();
            assert_eq!(
                model.estimate(&q).to_bits(),
                restored.estimate(&q).to_bits(),
                "estimate diverged at probe {i}"
            );
        }
        assert_eq!(list_checkpoints(&StdVfs, &dir).expect("list"), vec![3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let dir = tmp_dir("fp");
        let model = trained_model();
        let fp = config_fingerprint(model.root(), &QuadHistConfig::default(), 8, 64);
        let data = CheckpointData {
            generation: 1,
            lsn: 30,
            snapshot: model.snapshot(),
        };
        write_checkpoint(&StdVfs, &dir, &data, fp).expect("write");
        // A different refit interval fingerprints differently.
        let other = config_fingerprint(model.root(), &QuadHistConfig::default(), 9, 64);
        assert_ne!(fp, other);
        let err = read_checkpoint(&StdVfs, &dir, 1, other).unwrap_err();
        assert!(matches!(err, SelearnError::CheckpointCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lsn_without_a_successor_is_rejected() {
        let dir = tmp_dir("maxlsn");
        let model = trained_model();
        let fp = config_fingerprint(model.root(), &QuadHistConfig::default(), 8, 64);
        let mut snapshot = model.snapshot();
        snapshot.total_observed = usize::MAX;
        let data = CheckpointData {
            generation: 1,
            lsn: u64::MAX,
            snapshot,
        };
        write_checkpoint(&StdVfs, &dir, &data, fp).expect("write");
        let err = read_checkpoint(&StdVfs, &dir, 1, fp).unwrap_err();
        assert!(matches!(err, SelearnError::CheckpointCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_the_crc() {
        let dir = tmp_dir("flip");
        let model = trained_model();
        let fp = config_fingerprint(model.root(), &QuadHistConfig::default(), 8, 64);
        let data = CheckpointData {
            generation: 1,
            lsn: 30,
            snapshot: model.snapshot(),
        };
        write_checkpoint(&StdVfs, &dir, &data, fp).expect("write");
        let path = dir.join(checkpoint_name(1));
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).expect("write");
        let err = read_checkpoint(&StdVfs, &dir, 1, fp).unwrap_err();
        assert!(matches!(err, SelearnError::CheckpointCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
