//! The corruption matrix: deliberate on-disk damage × expected behavior.
//!
//! Crashes tear the *tail* of the log; bit rot, operator error, and
//! partial restores damage *anything*. The store's contract is that every
//! damage class is either repaired silently (when provably just a torn
//! tail), survived via a documented fallback (older checkpoint), or
//! reported as a typed [`SelearnError`] — never a panic, never silently
//! wrong data.
//!
//! | damage                                | expected                       |
//! |---------------------------------------|--------------------------------|
//! | bit flip in last WAL segment tail     | truncated, clean recovery      |
//! | bit flip in non-last WAL segment      | `WalCorrupt`                   |
//! | bit flip in newest checkpoint         | fallback to older generation   |
//! | wrong segment magic                   | `WalCorrupt`                   |
//! | zero-length last segment              | removed, clean recovery        |
//! | zero-length middle segment            | `WalCorrupt`                   |
//! | duplicate LSN (CRC-valid replay)      | `WalCorrupt`                   |
//! | newest checkpoint deleted             | fallback to surviving one      |
//! | every checkpoint destroyed            | fresh replay iff WAL is whole  |
//! | CRC-valid checkpoint, hostile content | `CheckpointCorrupt`, fallback  |
//! | CRC-valid WAL record, hostile content | `WalCorrupt` or clean recovery |
//! | CRC-valid record of the wrong dim     | `WalCorrupt` at its offset     |
//! | feedback the model would refuse       | refused before the log         |

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use selearn_core::{SelearnError, SelectivityEstimator, TrainingQuery};
use selearn_geom::{GeomError, Range, Rect};
use selearn_store::checkpoint::{checkpoint_name, config_fingerprint, read_checkpoint};
use selearn_store::crc::crc32;
use selearn_store::record::encode_payload;
use selearn_store::wal::{scan_wal, segment_name, SEGMENT_HEADER_LEN, SEGMENT_MAGIC};
use selearn_store::{ModelStore, StdVfs, StoreConfig};

fn test_dir(tag: &str) -> PathBuf {
    // Proptest cases share a tag, so every call gets its own directory.
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "selearn-corrupt-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config() -> StoreConfig {
    let mut c = StoreConfig::new(Rect::unit(2));
    c.refit_every = 6;
    c.history_cap = 64;
    c.segment_bytes = 300;
    c
}

fn feedback(i: usize) -> TrainingQuery {
    let a = ((i % 29) as f64 + 1.0) / 30.0;
    TrainingQuery::new(Rect::new(vec![0.0, a / 3.0], vec![a, 0.85]), a * 0.7)
}

fn probes() -> Vec<Range> {
    (0..15)
        .map(|i| {
            let a = (i as f64 + 0.5) / 15.0;
            Rect::new(vec![0.0, a / 4.0], vec![a, 0.9]).into()
        })
        .collect()
}

/// Seeds a store: `n` records, checkpointing after each `ckpt_at` count.
/// Returns the generations created.
fn seed(dir: &Path, n: usize, ckpt_every: usize) -> Vec<u64> {
    let mut store = ModelStore::open(dir, config()).expect("seed open");
    let mut gens = Vec::new();
    for i in 0..n {
        store.observe(feedback(i)).expect("seed observe");
        if (i + 1) % ckpt_every == 0 {
            gens.push(store.checkpoint().expect("seed checkpoint"));
        }
    }
    gens
}

fn flip_byte(path: &Path, offset_from: FlipAt, bit: u8) {
    let mut bytes = std::fs::read(path).expect("read victim");
    let at = match offset_from {
        FlipAt::Offset(o) => o.min(bytes.len() - 1),
        FlipAt::Middle => bytes.len() / 2,
        FlipAt::FromEnd(o) => bytes.len().saturating_sub(o),
    };
    bytes[at] ^= bit;
    std::fs::write(path, bytes).expect("write victim");
}

enum FlipAt {
    Offset(usize),
    Middle,
    FromEnd(usize),
}

#[test]
fn bit_flip_in_last_segment_tail_is_truncated() {
    let dir = test_dir("tail-flip");
    seed(&dir, 20, 50); // no checkpoint: everything lives in the WAL
    let scan = scan_wal(&StdVfs, &dir).expect("scan");
    let last = scan.segments.last().expect("segments").name.clone();
    // Damage the final record's payload: CRC fails, tail truncated.
    flip_byte(&dir.join(&last), FlipAt::FromEnd(5), 0x10);
    let store = ModelStore::open(&dir, config()).expect("recover");
    assert!(store.recovery().torn_tail.is_some());
    assert!(store.recovery().truncated_bytes > 0);
    assert!(store.last_lsn() < 20, "damaged record was kept");
    assert!(store.last_lsn() >= 19 - 1, "truncated more than the tail");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery reports exactly the debris bytes it cut, for a tear inside a
/// record, for junk after the last record, and for a segment whose header
/// never completed; the repaired log then takes appends and reopens clean.
#[test]
fn torn_tails_report_the_exact_truncated_bytes() {
    // (damage, expected truncated bytes, expected last lsn)
    let cases = [
        ("mid-record", 5, 19),
        ("trailing", 7, 20),
        ("header", 10, 20),
    ];
    for (damage, bytes, last_lsn) in cases {
        let dir = test_dir(damage);
        seed(&dir, 20, 50); // no checkpoint: everything lives in the WAL
        let scan = scan_wal(&StdVfs, &dir).expect("scan");
        let last = scan.segments.last().expect("segments");
        let path = dir.join(&last.name);
        match damage {
            "mid-record" => {
                // Keep 5 bytes of the final record.
                let ends = &last.record_ends;
                let start = ends
                    .len()
                    .checked_sub(2)
                    .map_or(SEGMENT_HEADER_LEN, |i| ends[i].1);
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(start + 5))
                    .expect("cut");
            }
            "trailing" => {
                let mut file = std::fs::read(&path).expect("read");
                file.extend_from_slice(&[0xab; 7]);
                std::fs::write(&path, file).expect("append junk");
            }
            _ => {
                // 10 of the 16 header bytes: magic plus two LSN bytes.
                let header = [&SEGMENT_MAGIC[..], &[0; 2]].concat();
                std::fs::write(dir.join(segment_name(scan.next_lsn)), header).expect("header");
            }
        }
        let mut store = ModelStore::open(&dir, config()).expect("recover");
        assert!(store.recovery().torn_tail.is_some(), "{damage}");
        assert_eq!(store.recovery().truncated_bytes, bytes, "{damage}");
        assert_eq!(store.last_lsn(), last_lsn, "{damage}");
        assert_eq!(
            store.observe(feedback(99)).expect("append"),
            last_lsn + 1,
            "{damage}"
        );
        drop(store);
        let store = ModelStore::open(&dir, config()).expect("reopen");
        assert!(store.recovery().torn_tail.is_none(), "{damage}");
        assert_eq!(store.last_lsn(), last_lsn + 1, "{damage}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bit_flip_in_earlier_segment_is_typed_corruption() {
    let dir = test_dir("mid-flip");
    seed(&dir, 20, 50);
    let scan = scan_wal(&StdVfs, &dir).expect("scan");
    assert!(scan.segments.len() >= 2, "need rotation");
    let first = scan.segments[0].name.clone();
    flip_byte(&dir.join(&first), FlipAt::Offset(30), 0x04);
    let err = ModelStore::open(&dir, config()).unwrap_err();
    assert!(matches!(err, SelearnError::WalCorrupt { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_newest_checkpoint_falls_back_a_generation() {
    let dir = test_dir("ckpt-flip");
    let gens = seed(&dir, 24, 8); // generations 1, 2, 3
    assert_eq!(gens, vec![1, 2, 3]);
    flip_byte(&dir.join(checkpoint_name(3)), FlipAt::Middle, 0x01);
    let store = ModelStore::open(&dir, config()).expect("recover");
    assert_eq!(store.recovery().skipped_checkpoints, 1);
    assert_eq!(store.recovery().generation, 2);
    assert_eq!(store.last_lsn(), 24, "fallback lost acknowledged records");
    // Fallback replays a longer tail, landing on the same state.
    let oracle_dir = test_dir("ckpt-flip-oracle");
    seed(&oracle_dir, 24, 8);
    let oracle = ModelStore::open(&oracle_dir, config()).expect("oracle");
    for (i, q) in probes().iter().enumerate() {
        assert_eq!(
            store.model().estimate(q).to_bits(),
            oracle.model().estimate(q).to_bits(),
            "probe {i} diverged after checkpoint fallback"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&oracle_dir);
}

#[test]
fn wrong_segment_magic_is_typed_corruption() {
    let dir = test_dir("magic");
    seed(&dir, 6, 50);
    let scan = scan_wal(&StdVfs, &dir).expect("scan");
    let name = scan.segments[0].name.clone();
    flip_byte(&dir.join(&name), FlipAt::Offset(0), 0xFF);
    let err = ModelStore::open(&dir, config()).unwrap_err();
    assert!(matches!(err, SelearnError::WalCorrupt { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_last_segment_is_cleaned_up() {
    let dir = test_dir("zero-last");
    seed(&dir, 10, 50);
    let scan = scan_wal(&StdVfs, &dir).expect("scan");
    let next = scan.next_lsn;
    // A crash immediately after segment creation: empty file.
    std::fs::write(dir.join(format!("wal-{next:020}.seg")), b"").expect("empty segment");
    let mut store = ModelStore::open(&dir, config()).expect("recover");
    assert_eq!(store.last_lsn(), 10);
    assert!(store.recovery().torn_tail.is_some());
    // The debris is gone and the LSN sequence continues unharmed.
    assert_eq!(store.observe(feedback(11)).expect("observe"), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_middle_segment_is_typed_corruption() {
    let dir = test_dir("zero-mid");
    seed(&dir, 20, 50);
    let scan = scan_wal(&StdVfs, &dir).expect("scan");
    assert!(scan.segments.len() >= 2, "need rotation");
    std::fs::write(dir.join(&scan.segments[0].name), b"").expect("truncate to zero");
    let err = ModelStore::open(&dir, config()).unwrap_err();
    assert!(matches!(err, SelearnError::WalCorrupt { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_lsn_is_typed_corruption_even_with_valid_crc() {
    let dir = test_dir("dup-lsn");
    seed(&dir, 8, 50);
    let scan = scan_wal(&StdVfs, &dir).expect("scan");
    let seg = scan.segments.last().expect("segments");
    let path = dir.join(&seg.name);
    let bytes = std::fs::read(&path).expect("read");
    // Re-append the final record's frame verbatim: its CRC passes, but
    // its LSN repeats — a replayed write, not a torn one.
    let &(_, end) = seg.record_ends.last().expect("records");
    let start = seg.record_ends.len().checked_sub(2).map_or(16, |i| seg.record_ends[i].1) as usize;
    let frame = bytes[start..end as usize].to_vec();
    let mut grown = bytes;
    grown.extend_from_slice(&frame);
    std::fs::write(&path, grown).expect("write");
    let err = ModelStore::open(&dir, config()).unwrap_err();
    match err {
        SelearnError::WalCorrupt { what, .. } => {
            assert!(what.contains("out of sequence"), "{what}")
        }
        other => panic!("expected WalCorrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaces the framed record `lsn` with `payload` under a fresh length
/// prefix and CRC, so only the record's content is hostile.
fn rewrite_record(dir: &Path, lsn: u64, payload: &[u8]) {
    let scan = scan_wal(&StdVfs, dir).expect("scan");
    let (segment, start) = scan.record_start(lsn).expect("record in log");
    let seg = scan
        .segments
        .iter()
        .find(|s| s.name == segment)
        .expect("segment");
    let &(_, end) = seg
        .record_ends
        .iter()
        .find(|&&(l, _)| l == lsn)
        .expect("record end");
    let path = dir.join(&segment);
    let bytes = std::fs::read(&path).expect("read");
    let mut out = bytes[..start as usize].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[end as usize..]);
    std::fs::write(&path, out).expect("write");
}

/// The payload of record `lsn` as the log holds it.
fn record_payload(dir: &Path, lsn: u64) -> Vec<u8> {
    let scan = scan_wal(&StdVfs, dir).expect("scan");
    let (segment, start) = scan.record_start(lsn).expect("record in log");
    let seg = scan
        .segments
        .iter()
        .find(|s| s.name == segment)
        .expect("segment");
    let &(_, end) = seg
        .record_ends
        .iter()
        .find(|&&(l, _)| l == lsn)
        .expect("record end");
    let bytes = std::fs::read(dir.join(&segment)).expect("read");
    bytes[(start + 8) as usize..end as usize].to_vec()
}

#[test]
fn feedback_the_model_refuses_never_reaches_the_log() {
    // Regression: a 3-D rect on a 2-D store was appended to the log and
    // then panicked in the model, and every later open panicked replaying
    // it; a label of 1e300 was appended and then split the model's
    // partition until memory ran out.
    let dir = test_dir("refused");
    seed(&dir, 5, 50);
    let mut store = ModelStore::open(&dir, config()).expect("open");
    let wrong_dim = TrainingQuery::new(Rect::new(vec![0.1; 3], vec![0.6; 3]), 0.2);
    let err = store.observe(wrong_dim).unwrap_err();
    assert!(
        matches!(
            err,
            SelearnError::Geom(GeomError::DimensionMismatch {
                expected: 2,
                got: 3,
                ..
            })
        ),
        "{err}"
    );
    let huge = TrainingQuery::new(Rect::new(vec![0.1; 2], vec![0.6; 2]), 1e300);
    let err = store.observe(huge).unwrap_err();
    assert!(matches!(err, SelearnError::InvalidLabel { .. }), "{err}");
    assert_eq!(
        store.last_lsn(),
        5,
        "a refused record must not reach the log"
    );
    assert_eq!(
        store.observe(feedback(5)).expect("observe after refusal"),
        6
    );
    drop(store);
    let store = ModelStore::open(&dir, config()).expect("reopen");
    assert_eq!(store.last_lsn(), 6);
    assert_eq!(store.recovery().replayed_records, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crc_valid_record_of_the_wrong_dimension_is_corruption_at_its_offset() {
    let dir = test_dir("wrong-dim-record");
    seed(&dir, 8, 50);
    let bad = TrainingQuery::new(Rect::new(vec![0.1; 3], vec![0.6; 3]), 0.2);
    let mut payload = Vec::new();
    encode_payload(7, &bad, &mut payload).expect("encode");
    rewrite_record(&dir, 7, &payload);
    let scan = scan_wal(&StdVfs, &dir).expect("a CRC-valid 3-D record scans");
    let (segment, offset) = scan.record_start(7).expect("record 7");
    match ModelStore::open(&dir, config()).unwrap_err() {
        SelearnError::WalCorrupt {
            segment: s,
            offset: o,
            what,
        } => {
            assert_eq!((s, o), (segment, offset));
            assert!(what.contains("dimension mismatch"), "{what}");
        }
        other => panic!("expected WalCorrupt, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn newest_checkpoint_deleted_falls_back() {
    let dir = test_dir("newest-deleted");
    let gens = seed(&dir, 16, 8); // generations 1, 2
    assert_eq!(gens, vec![1, 2]);
    std::fs::remove_file(dir.join(checkpoint_name(2))).expect("rm checkpoint");
    let store = ModelStore::open(&dir, config()).expect("recover");
    assert_eq!(store.recovery().skipped_checkpoints, 0, "nothing left to skip");
    assert_eq!(store.recovery().generation, 1);
    assert_eq!(store.last_lsn(), 16, "fallback lost acknowledged records");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn total_checkpoint_loss_replays_from_scratch_only_if_wal_is_whole() {
    let dir = test_dir("total-loss");
    seed(&dir, 12, 6);
    for g in [1u64, 2] {
        std::fs::remove_file(dir.join(checkpoint_name(g))).expect("rm checkpoint");
    }
    // WAL still reaches back to LSN 1 (nothing was pruned past gen 1's
    // anchor in this short run only if segment pruning kept them —
    // verify either full recovery or a typed error, never a panic).
    match ModelStore::open(&dir, config()) {
        Ok(store) => {
            assert_eq!(store.recovery().generation, 0);
            assert_eq!(store.last_lsn(), 12);
        }
        Err(e) => assert!(matches!(e, SelearnError::WalCorrupt { .. }), "{e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_under_existing_checkpoint_is_typed() {
    let dir = test_dir("config-drift");
    seed(&dir, 8, 4);
    // A different refit interval is a different deployment: the
    // fingerprint must refuse the checkpoint rather than silently
    // diverge. With the checkpoint refused and the WAL whole, recovery
    // legally falls back to a fresh replay under the *new* config.
    let mut drifted = config();
    drifted.refit_every = 7;
    let store = ModelStore::open(&dir, drifted).expect("recover");
    assert_eq!(store.recovery().skipped_checkpoints, 2);
    assert_eq!(store.recovery().generation, 0, "foreign checkpoint was accepted");
    assert_eq!(store.last_lsn(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One edit to a checkpoint body, applied before its CRC is recomputed.
#[derive(Clone, Debug)]
enum Mutation {
    /// Sets the value of the `key …` line to a hostile count.
    Count { key: &'static str, value: CountValue },
    /// Removes the `n`-th space-separated token of the body.
    DropToken(usize),
    /// Repeats the `n`-th space-separated token of the body.
    DuplicateToken(usize),
    /// Flips one bit of the body.
    FlipBit { byte: usize, bit: u32 },
}

#[derive(Clone, Copy, Debug)]
enum CountValue {
    Zero,
    MinusOne,
    PlusOne,
    TwoPow32,
    Max,
}

const COUNT_KEYS: [&str; 5] = ["lsn", "nodes", "history", "total", "since_refit"];
const COUNT_VALUES: [CountValue; 5] = [
    CountValue::Zero,
    CountValue::MinusOne,
    CountValue::PlusOne,
    CountValue::TwoPow32,
    CountValue::Max,
];

/// Count edits get two draws in five, each of the other kinds one.
fn mutation() -> impl Strategy<Value = Mutation> {
    (0u32..5, 0usize..5, 0usize..5, 0usize..1 << 20, 0u32..8).prop_map(
        |(kind, key, value, n, bit)| match kind {
            0 | 1 => Mutation::Count {
                key: COUNT_KEYS[key],
                value: COUNT_VALUES[value],
            },
            2 => Mutation::DropToken(n),
            3 => Mutation::DuplicateToken(n),
            _ => Mutation::FlipBit { byte: n, bit },
        },
    )
}

/// Applies `m` to the body of a checkpoint file (everything before its
/// `crc` trailer) and returns the file with a freshly computed trailer.
fn mutate_checkpoint(file: &[u8], m: &Mutation) -> Vec<u8> {
    let text = std::str::from_utf8(file).expect("checkpoints are utf-8");
    let body_end = text.trim_end_matches('\n').rfind('\n').expect("trailer") + 1;
    let body = &text[..body_end];
    let mut out: Vec<u8> = match m {
        Mutation::Count { key, value } => body
            .lines()
            .map(|line| match line.strip_prefix(key).and_then(|r| r.strip_prefix(' ')) {
                Some(v) => {
                    let v: u64 = v.parse().expect("count");
                    let hostile = match value {
                        CountValue::Zero => 0,
                        CountValue::MinusOne => v.wrapping_sub(1),
                        CountValue::PlusOne => v.wrapping_add(1),
                        CountValue::TwoPow32 => 1 << 32,
                        CountValue::Max => u64::MAX,
                    };
                    format!("{key} {hostile}\n")
                }
                None => format!("{line}\n"),
            })
            .collect::<String>()
            .into_bytes(),
        Mutation::DropToken(n) | Mutation::DuplicateToken(n) => {
            let mut lines: Vec<Vec<String>> = body
                .lines()
                .map(|l| l.split(' ').map(str::to_string).collect())
                .collect();
            let total: usize = lines.iter().map(Vec::len).sum();
            let mut k = n % total;
            for line in &mut lines {
                if k < line.len() {
                    if matches!(m, Mutation::DropToken(_)) {
                        line.remove(k);
                    } else {
                        let tok = line[k].clone();
                        line.insert(k, tok);
                    }
                    break;
                }
                k -= line.len();
            }
            lines
                .iter()
                .map(|l| format!("{}\n", l.join(" ")))
                .collect::<String>()
                .into_bytes()
        }
        Mutation::FlipBit { byte, bit } => {
            let mut b = body.as_bytes().to_vec();
            let at = byte % b.len();
            b[at] ^= 1 << bit;
            b
        }
    };
    let trailer = format!("crc {:08x}\n", crc32(&out));
    out.extend_from_slice(trailer.as_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A checkpoint whose CRC is valid but whose content is hostile — a
    /// count that disagrees with the data, a missing or repeated token, a
    /// flipped bit — is rejected as `CheckpointCorrupt` or read as some
    /// well-formed state; recovery with it as the newest generation never
    /// panics and never loses an acknowledged record.
    #[test]
    fn crc_valid_hostile_checkpoint_never_panics(m in mutation()) {
        let dir = test_dir("hostile");
        prop_assert_eq!(seed(&dir, 20, 8), vec![1, 2]);
        let path = dir.join(checkpoint_name(2));
        let mutated = mutate_checkpoint(&std::fs::read(&path).expect("read"), &m);
        std::fs::write(&path, mutated).expect("write");

        let c = config();
        let fp = config_fingerprint(&c.root, &c.quadhist, c.refit_every, c.history_cap);
        let read = read_checkpoint(&StdVfs, &dir, 2, fp);
        prop_assert!(
            matches!(read, Ok(_) | Err(SelearnError::CheckpointCorrupt { .. })),
            "{:?}: untyped read error {:?}", m, read.err()
        );
        let store = match ModelStore::open(&dir, config()) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("{m:?}: recovery failed: {e}"))),
        };
        prop_assert_eq!(store.last_lsn(), 20);
        let generation = store.recovery().generation;
        prop_assert!(generation == 1 || generation == 2, "{:?}: generation {}", m, generation);
        prop_assert_eq!(store.recovery().skipped_checkpoints, 2 - generation);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One hostile edit of a WAL record's payload (layout in
/// `selearn_store::record`: lsn, sel, tag, dim, coordinates). The frame's
/// length and CRC are recomputed afterwards.
#[derive(Clone, Debug)]
enum WalMutation {
    /// Replaces the range tag byte.
    Tag(u8),
    /// Re-encodes the record as a well-formed `tag` range of `dim`
    /// dimensions.
    Dim { tag: u8, dim: u16 },
    /// Overwrites coordinate `index` (of the 2-D rect's four) with `value`.
    Coord { index: usize, value: f64 },
    /// Overwrites the selectivity.
    Sel(f64),
    /// Appends `n` bytes after the record.
    Trailing(usize),
    /// XORs the LSN with a mask.
    Lsn(u64),
}

const TAGS: [u8; 5] = [b'R', b'B', b'H', b'Z', 0];
/// Two of five disagree with the 2-D root but decode: they reach replay.
const DIMS: [u16; 5] = [0, 1, 3, 65, 2];
const HOSTILE: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1e300];
const LSN_MASKS: [u64; 5] = [1, 2, 3, 1 << 32, u64::MAX];

/// Dimension edits get two draws in seven, each of the other kinds one.
fn wal_mutation() -> impl Strategy<Value = (u64, WalMutation)> {
    (1u64..=8, 0u32..7, 0usize..5, 0usize..4, 1usize..16).prop_map(|(lsn, kind, pick, index, n)| {
        let m = match kind {
            0 | 1 => WalMutation::Dim {
                tag: TAGS[index % 3],
                dim: DIMS[pick],
            },
            2 => WalMutation::Tag(TAGS[pick]),
            3 => WalMutation::Coord {
                index,
                value: HOSTILE[pick],
            },
            4 => WalMutation::Sel(HOSTILE[pick]),
            5 => WalMutation::Trailing(n),
            _ => WalMutation::Lsn(LSN_MASKS[pick]),
        };
        (lsn, m)
    })
}

fn mutate_payload(payload: &[u8], m: &WalMutation) -> Vec<u8> {
    let mut p = payload.to_vec();
    let put = |p: &mut Vec<u8>, at: usize, v: f64| {
        p[at..at + 8].copy_from_slice(&v.to_bits().to_le_bytes());
    };
    match *m {
        WalMutation::Tag(tag) => p[16] = tag,
        WalMutation::Dim { tag, dim } => {
            p.truncate(16);
            p.push(tag);
            p.extend_from_slice(&dim.to_le_bytes());
            let d = usize::from(dim);
            let coords: Vec<f64> = match tag {
                b'R' => [vec![0.1; d], vec![0.6; d]].concat(),
                b'B' => [vec![0.5; d], vec![0.2]].concat(),
                _ => [vec![1.0; d], vec![0.5]].concat(),
            };
            for c in coords {
                p.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        WalMutation::Coord { index, value } => put(&mut p, 19 + 8 * index, value),
        WalMutation::Sel(value) => put(&mut p, 8, value),
        WalMutation::Trailing(n) => p.extend(std::iter::repeat_n(0xA5, n)),
        WalMutation::Lsn(mask) => {
            let mut lsn = [0u8; 8];
            lsn.copy_from_slice(&p[..8]);
            p[..8].copy_from_slice(&(u64::from_le_bytes(lsn) ^ mask).to_le_bytes());
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A WAL record whose CRC is valid but whose content is hostile — an
    /// unknown tag, a dimension of 0, 65 or one that disagrees with the
    /// root, a non-finite or inverted coordinate, a bad selectivity,
    /// trailing bytes, a wrong LSN — either replays as a well-formed
    /// record or fails recovery with `WalCorrupt`; it never panics and is
    /// never dropped silently.
    #[test]
    fn crc_valid_hostile_wal_record_never_panics(case in wal_mutation()) {
        let (lsn, m) = case;
        let dir = test_dir("hostile-wal");
        seed(&dir, 8, 50);
        let mutated = mutate_payload(&record_payload(&dir, lsn), &m);
        rewrite_record(&dir, lsn, &mutated);
        match ModelStore::open(&dir, config()) {
            Ok(store) => prop_assert_eq!(store.last_lsn(), 8, "{:?} at lsn {}", m, lsn),
            Err(SelearnError::WalCorrupt { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("{m:?} at lsn {lsn}: untyped recovery error {e}"))),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
