//! The write-ahead log: length-prefixed, CRC-framed feedback records in
//! rotating segment files.
//!
//! On-disk layout of one segment (`wal-{first_lsn:020}.seg`):
//!
//! ```text
//! [8B magic "SELWAL1\n"][u64 first_lsn LE]        — 16-byte header
//! [u32 len LE][u32 crc32(payload) LE][payload]…   — records, back to back
//! ```
//!
//! LSNs are 1-based and increase by exactly 1 across the whole log; a
//! segment's name and header both carry the LSN of its first record, so
//! the segment chain can be validated without reading every byte twice.
//!
//! Recovery policy (the heart of the crash story):
//!
//! * a framing/CRC/decode failure in the **last** segment is a torn tail —
//!   the crash interrupted an append; everything before it is history,
//!   everything from it on is noise to truncate;
//! * the same failure in any **earlier** segment is real corruption
//!   ([`SelearnError::WalCorrupt`]) — later appends succeeded, so the
//!   damage cannot be a torn write;
//! * a record whose CRC passes but whose LSN is out of sequence is always
//!   corruption: CRC-valid bytes are never produced by a partial flush.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use selearn_core::{SelearnError, TrainingQuery};

use crate::crc::crc32;
use crate::record::{decode_payload, encode_payload, FeedbackRecord};
use crate::vfs::{Vfs, VfsFile};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SELWAL1\n";
/// Bytes of segment header (magic + first LSN).
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Bytes of per-record framing (length + CRC).
pub const RECORD_HEADER_LEN: u64 = 8;
/// Upper bound on one record's payload; anything larger in a length
/// prefix is garbage, not a record (a 64-dim rect payload is ~1 KiB).
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// Formats the segment file name for a first LSN.
pub fn segment_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:020}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn wal_corrupt(segment: &str, offset: u64, what: impl Into<String>) -> SelearnError {
    SelearnError::WalCorrupt {
        segment: segment.to_string(),
        offset,
        what: what.into(),
    }
}

/// One scanned segment.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// File name within the store directory.
    pub name: String,
    /// LSN of the segment's first record (from name + header).
    pub first_lsn: u64,
    /// Byte offsets just past each valid record, paired with its LSN.
    pub record_ends: Vec<(u64, u64)>,
    /// Total file length on disk.
    pub file_len: u64,
}

impl SegmentInfo {
    /// Byte length of the valid prefix (header + intact records).
    pub fn valid_len(&self) -> u64 {
        self.record_ends
            .last()
            .map_or(SEGMENT_HEADER_LEN, |&(_, end)| end)
    }

    /// LSN of the last intact record, if any.
    pub fn last_lsn(&self) -> Option<u64> {
        self.record_ends.last().map(|&(lsn, _)| lsn)
    }
}

/// A torn tail found at the end of the log: bytes past `offset` in
/// `segment` are debris from an interrupted append.
#[derive(Clone, Debug)]
pub struct TornTail {
    /// Segment file name.
    pub segment: String,
    /// Byte offset at which the valid prefix ends.
    pub offset: u64,
    /// Length of the segment file as scanned, so the debris past
    /// `offset` is `file_len - offset` bytes.
    pub file_len: u64,
    /// Why the tail failed validation (for the recovery report).
    pub what: String,
}

/// Result of scanning a store directory's WAL.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Segments in LSN order. A last segment that was entirely torn
    /// (header never completed) is *not* listed here; it shows up only
    /// via [`WalScan::torn`].
    pub segments: Vec<SegmentInfo>,
    /// All intact records, in LSN order.
    pub records: Vec<FeedbackRecord>,
    /// The torn tail, if the log ends mid-record (or mid-header).
    pub torn: Option<TornTail>,
    /// The LSN the next append must carry.
    pub next_lsn: u64,
}

impl WalScan {
    /// LSN of the first record present in the log, if any.
    pub fn first_lsn(&self) -> Option<u64> {
        self.records.first().map(|r| r.lsn)
    }

    /// Segment name and byte offset at which the record `lsn` starts, if
    /// the log holds it.
    pub fn record_start(&self, lsn: u64) -> Option<(String, u64)> {
        self.segments.iter().find_map(|seg| {
            let i = seg.record_ends.iter().position(|&(l, _)| l == lsn)?;
            let start = match i {
                0 => SEGMENT_HEADER_LEN,
                _ => seg.record_ends[i - 1].1,
            };
            Some((seg.name.clone(), start))
        })
    }
}

/// Reads u32 LE at `offset` from `bytes` (caller guarantees bounds).
fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes([
        bytes[offset],
        bytes[offset + 1],
        bytes[offset + 2],
        bytes[offset + 3],
    ])
}

/// Scans every WAL segment under `dir`, validating the chain and
/// classifying damage per the module-level policy. Files that do not
/// match the segment naming scheme are ignored.
pub fn scan_wal(vfs: &dyn Vfs, dir: &Path) -> Result<WalScan, SelearnError> {
    let mut named: Vec<(u64, String)> = vfs
        .list(dir)?
        .into_iter()
        .filter_map(|n| parse_segment_name(&n).map(|lsn| (lsn, n)))
        .collect();
    named.sort();

    let mut scan = WalScan {
        next_lsn: 1,
        ..WalScan::default()
    };
    let mut expected_lsn: Option<u64> = None;
    let last_index = named.len().wrapping_sub(1);

    for (index, (name_lsn, name)) in named.iter().enumerate() {
        let is_last = index == last_index;
        let bytes = vfs.read(&dir.join(name))?;

        // --- header ---
        if (bytes.len() as u64) < SEGMENT_HEADER_LEN {
            let what = format!(
                "segment header truncated at {} of {SEGMENT_HEADER_LEN} bytes",
                bytes.len()
            );
            if is_last {
                // Torn segment creation: the file may legally be removed.
                scan.torn = Some(TornTail {
                    segment: name.clone(),
                    offset: 0,
                    file_len: bytes.len() as u64,
                    what,
                });
                if let Some(lsn) = expected_lsn {
                    scan.next_lsn = lsn;
                }
                return Ok(scan);
            }
            return Err(wal_corrupt(name, 0, what));
        }
        if &bytes[..8] != SEGMENT_MAGIC {
            return Err(wal_corrupt(name, 0, "bad segment magic"));
        }
        let mut lsn_bytes = [0u8; 8];
        lsn_bytes.copy_from_slice(&bytes[8..16]);
        let header_lsn = u64::from_le_bytes(lsn_bytes);
        if header_lsn != *name_lsn {
            return Err(wal_corrupt(
                name,
                8,
                format!("header first-lsn {header_lsn} disagrees with file name"),
            ));
        }
        if let Some(expected) = expected_lsn {
            if header_lsn != expected {
                return Err(wal_corrupt(
                    name,
                    8,
                    format!("segment chain gap: expected first lsn {expected}, found {header_lsn}"),
                ));
            }
        }

        // --- records ---
        let mut seg = SegmentInfo {
            name: name.clone(),
            first_lsn: header_lsn,
            record_ends: Vec::new(),
            file_len: bytes.len() as u64,
        };
        let mut lsn = header_lsn;
        let mut pos = SEGMENT_HEADER_LEN as usize;
        let mut torn: Option<TornTail> = None;
        while pos < bytes.len() {
            let fail = |what: String| TornTail {
                segment: name.clone(),
                offset: pos as u64,
                file_len: bytes.len() as u64,
                what,
            };
            if bytes.len() - pos < RECORD_HEADER_LEN as usize {
                torn = Some(fail(format!(
                    "record framing truncated: {} trailing bytes",
                    bytes.len() - pos
                )));
                break;
            }
            let len = read_u32(&bytes, pos);
            if len == 0 || len > MAX_PAYLOAD_LEN {
                torn = Some(fail(format!("implausible record length {len}")));
                break;
            }
            let crc = read_u32(&bytes, pos + 4);
            let body_start = pos + RECORD_HEADER_LEN as usize;
            let body_end = body_start + len as usize;
            if body_end > bytes.len() {
                torn = Some(fail(format!(
                    "record payload truncated: wanted {len} bytes, {} remain",
                    bytes.len() - body_start
                )));
                break;
            }
            let payload = &bytes[body_start..body_end];
            if crc32(payload) != crc {
                torn = Some(fail("record crc mismatch".to_string()));
                break;
            }
            // CRC-valid bytes are never a torn write: from here on,
            // failures are corruption regardless of position.
            let record = decode_payload(payload)
                .map_err(|what| wal_corrupt(name, pos as u64, what))?;
            if record.lsn != lsn {
                return Err(wal_corrupt(
                    name,
                    pos as u64,
                    format!("lsn out of sequence: expected {lsn}, record carries {}", record.lsn),
                ));
            }
            scan.records.push(record);
            seg.record_ends.push((lsn, body_end as u64));
            lsn += 1;
            pos = body_end;
        }

        if let Some(t) = torn {
            if !is_last {
                return Err(wal_corrupt(&t.segment, t.offset, t.what));
            }
            scan.torn = Some(t);
        }
        expected_lsn = Some(lsn);
        scan.segments.push(seg);
    }

    if let Some(lsn) = expected_lsn {
        scan.next_lsn = lsn;
    }
    Ok(scan)
}

/// Makes the on-disk log match a scan's valid prefix: truncates the torn
/// tail (or removes a last segment whose header never hit the disk).
/// Afterwards the scan describes the log exactly, except for the repaired
/// segment's `file_len` and `torn` itself, so a writer can open on it
/// without a second scan. Idempotent — a crash mid-repair re-runs it from
/// the same scan.
pub fn repair_torn_tail(vfs: &dyn Vfs, dir: &Path, scan: &WalScan) -> Result<(), SelearnError> {
    let Some(torn) = &scan.torn else {
        return Ok(());
    };
    let path = dir.join(&torn.segment);
    match scan.segments.iter().find(|s| s.name == torn.segment) {
        // The header (and possibly records before the tear) are valid.
        Some(segment) => vfs.truncate(&path, segment.valid_len())?,
        None if vfs.exists(&path) => vfs.remove_file(&path)?,
        None => {}
    }
    vfs.sync_dir(dir)?;
    Ok(())
}

/// Rewinds the log so `last_lsn` is its newest record: removes segments
/// that start past it and truncates the one containing it. Newest-first
/// so a crash mid-rewind leaves a valid (shorter-rewound) log.
pub fn truncate_after_lsn(
    vfs: &dyn Vfs,
    dir: &Path,
    scan: &WalScan,
    last_lsn: u64,
) -> Result<(), SelearnError> {
    for seg in scan.segments.iter().rev() {
        let path = dir.join(&seg.name);
        if seg.first_lsn > last_lsn {
            vfs.remove_file(&path)?;
            vfs.sync_dir(dir)?;
            continue;
        }
        let keep = seg
            .record_ends
            .iter()
            .take_while(|&&(lsn, _)| lsn <= last_lsn)
            .last()
            .map_or(SEGMENT_HEADER_LEN, |&(_, end)| end);
        if keep < seg.file_len {
            vfs.truncate(&path, keep)?;
        }
        break;
    }
    Ok(())
}

/// The append half of the log.
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    file: Option<Box<dyn VfsFile>>,
    segment_first_lsn: u64,
    bytes_in_segment: u64,
    segment_bytes: u64,
    next_lsn: u64,
    sync_on_append: bool,
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Opens a writer that continues a scanned (and repaired) log:
    /// appends to the newest segment if it has room, otherwise rotates
    /// on the next append. `next_lsn` is what the next record will
    /// carry — normally `scan.next_lsn`, but after a rollback that
    /// emptied the log it is the checkpoint's LSN + 1 (segment
    /// continuity only permits attaching to the last segment when the
    /// two agree). `segment_bytes` is the rotation threshold;
    /// `sync_on_append` trades throughput for per-record durability.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        scan: &WalScan,
        next_lsn: u64,
        segment_bytes: u64,
        sync_on_append: bool,
    ) -> Result<Self, SelearnError> {
        let mut writer = Self {
            vfs,
            dir: dir.to_path_buf(),
            file: None,
            segment_first_lsn: 0,
            bytes_in_segment: 0,
            segment_bytes: segment_bytes.max(SEGMENT_HEADER_LEN + RECORD_HEADER_LEN),
            next_lsn,
            sync_on_append,
            scratch: Vec::new(),
        };
        if let Some(last) = scan.segments.last() {
            if next_lsn == scan.next_lsn && last.valid_len() < writer.segment_bytes {
                writer.file = Some(writer.vfs.open_append(&dir.join(&last.name))?);
                writer.segment_first_lsn = last.first_lsn;
                writer.bytes_in_segment = last.valid_len();
            }
        }
        Ok(writer)
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    fn rotate(&mut self) -> Result<(), SelearnError> {
        let name = segment_name(self.next_lsn);
        let mut file = self.vfs.create(&self.dir.join(name))?;
        file.write_all(SEGMENT_MAGIC)?;
        file.write_all(&self.next_lsn.to_le_bytes())?;
        file.sync()?;
        self.vfs.sync_dir(&self.dir)?;
        self.file = Some(file);
        self.segment_first_lsn = self.next_lsn;
        self.bytes_in_segment = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Appends one feedback record, returning its LSN. The record is on
    /// disk (and, with `sync_on_append`, durable) when this returns —
    /// callers acknowledge feedback only after this succeeds.
    pub fn append(&mut self, feedback: &TrainingQuery) -> Result<u64, SelearnError> {
        let lsn = self.next_lsn;
        self.scratch.clear();
        let mut payload = std::mem::take(&mut self.scratch);
        encode_payload(lsn, feedback, &mut payload)?;
        let result = self.append_payload(&payload);
        self.scratch = payload;
        let () = result?;
        self.next_lsn = lsn + 1;
        Ok(lsn)
    }

    fn append_payload(&mut self, payload: &[u8]) -> Result<(), SelearnError> {
        if self.file.is_none() || self.bytes_in_segment >= self.segment_bytes {
            self.rotate()?;
        }
        let file = self.file.as_mut().ok_or(SelearnError::InvalidConfig {
            model: "selearn-store",
            what: "wal writer lost its segment file",
        })?;
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        file.write_all(&frame)?;
        if self.sync_on_append {
            file.sync()?;
        }
        self.bytes_in_segment += frame.len() as u64;
        Ok(())
    }

    /// Durably flushes everything appended so far.
    pub fn sync(&mut self) -> Result<(), SelearnError> {
        if let Some(file) = self.file.as_mut() {
            file.sync()?;
        }
        Ok(())
    }

    /// Drops the open segment handle (the next append reopens/rotates).
    /// Used by rollback, which truncates segments out from under the
    /// writer.
    pub fn detach(&mut self) {
        self.file = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use selearn_geom::Rect;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("selearn-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn feedback(i: usize) -> TrainingQuery {
        let a = (i as f64 + 1.0) / 100.0;
        TrainingQuery::new(Rect::new(vec![0.0, a / 2.0], vec![a, 0.9]), a)
    }

    fn write_log(dir: &Path, n: usize, segment_bytes: u64) -> WalWriter {
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let scan = scan_wal(vfs.as_ref(), dir).expect("scan");
        let mut w =
            WalWriter::open(vfs, dir, &scan, scan.next_lsn, segment_bytes, true).expect("open");
        for i in 0..n {
            let lsn = w.append(&feedback(i)).expect("append");
            assert_eq!(lsn, scan.next_lsn + i as u64);
        }
        w
    }

    #[test]
    fn append_scan_round_trip_with_rotation() {
        let dir = tmp_dir("round");
        // Tiny segments force several rotations for 20 records.
        write_log(&dir, 20, 200);
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 20);
        assert_eq!(scan.next_lsn, 21);
        assert!(scan.segments.len() > 1, "expected rotation");
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64 + 1);
            assert_eq!(
                r.feedback.selectivity.to_bits(),
                feedback(i).selectivity.to_bits()
            );
        }
        // Reopen appends where the scan left off.
        write_log(&dir, 5, 200);
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert_eq!(scan.records.len(), 25);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_errored() {
        let dir = tmp_dir("torn");
        write_log(&dir, 6, 1 << 20);
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        let seg = &scan.segments[0];
        let full = seg.valid_len();
        // Chop mid-way through the final record.
        let cut = seg.record_ends[4].1 + 3;
        StdVfs.truncate(&dir.join(&seg.name), cut).expect("chop");
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert_eq!(scan.records.len(), 5);
        assert!(scan.torn.is_some());
        assert_eq!(scan.next_lsn, 6);
        repair_torn_tail(&StdVfs, &dir, &scan).expect("repair");
        let healed = scan_wal(&StdVfs, &dir).expect("scan");
        assert!(healed.torn.is_none());
        assert_eq!(healed.records.len(), 5);
        assert!(healed.segments[0].file_len < full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let dir = tmp_dir("midcorrupt");
        write_log(&dir, 10, 150); // several segments
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert!(scan.segments.len() >= 2);
        // Flip a payload byte in the FIRST segment: not a torn tail.
        let name = scan.segments[0].name.clone();
        let mut bytes = std::fs::read(dir.join(&name)).expect("read");
        let off = SEGMENT_HEADER_LEN as usize + RECORD_HEADER_LEN as usize + 2;
        bytes[off] ^= 0x40;
        std::fs::write(dir.join(&name), bytes).expect("write");
        let err = scan_wal(&StdVfs, &dir).unwrap_err();
        assert!(matches!(err, SelearnError::WalCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_chain_gap_is_corruption() {
        let dir = tmp_dir("gap");
        write_log(&dir, 12, 150);
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert!(scan.segments.len() >= 3);
        // Delete a middle segment: the chain no longer covers its LSNs.
        std::fs::remove_file(dir.join(&scan.segments[1].name)).expect("rm");
        let err = scan_wal(&StdVfs, &dir).unwrap_err();
        assert!(matches!(err, SelearnError::WalCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_after_lsn_rewinds_across_segments() {
        let dir = tmp_dir("rewind");
        write_log(&dir, 15, 150);
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        truncate_after_lsn(&StdVfs, &dir, &scan, 7).expect("rewind");
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert_eq!(scan.records.len(), 7);
        assert_eq!(scan.next_lsn, 8);
        // And the log still accepts appends after the rewind.
        write_log(&dir, 1, 150);
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        assert_eq!(scan.next_lsn, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
