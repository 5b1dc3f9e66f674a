//! Saving and loading trained models.
//!
//! Estimators are deployed inside long-running optimizer processes;
//! retraining on every restart wastes the feedback history. This module
//! persists the two headline models (QuadHist, PtsHist) in a
//! versioned, human-readable, line-oriented text format — no external
//! serialization dependency, values round-tripped exactly via hex-encoded
//! IEEE-754 bits.
//!
//! ```text
//! selearn-model v1
//! quadhist 2
//! root <lo...> <hi...>
//! buckets <n>
//! <lo...> <hi...> <weight>
//! ...
//! end
//! ```

use crate::ptshist::PtsHist;
use crate::quadhist::QuadHist;
use selearn_geom::{Point, Rect, VolumeEstimator};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Persistence failure: I/O error or malformed input.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural/format failure with a message.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
            PersistError::Format(m) => write!(f, "persist format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::Format(msg.into()))
}

/// Lossless float encoding: hex of the IEEE-754 bit pattern.
fn enc(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn dec(s: &str) -> Result<f64, PersistError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| PersistError::Format(format!("bad float '{s}': {e}")))
}

fn write_coords(out: &mut String, coords: &[f64]) {
    for c in coords {
        out.push(' ');
        out.push_str(&enc(*c));
    }
}

const MAGIC: &str = "selearn-model v1";

/// Serializes a QuadHist.
pub fn save_quadhist<W: Write>(model: &QuadHist, mut w: W) -> Result<(), PersistError> {
    let root = model.root();
    let d = root.dim();
    let mut s = String::new();
    s.push_str(MAGIC);
    s.push('\n');
    s.push_str(&format!("quadhist {d}\nroot"));
    write_coords(&mut s, root.lo());
    write_coords(&mut s, root.hi());
    s.push('\n');
    let buckets = model.buckets();
    s.push_str(&format!("buckets {}\n", buckets.len()));
    for (rect, weight) in &buckets {
        let mut line = String::new();
        write_coords(&mut line, rect.lo());
        write_coords(&mut line, rect.hi());
        line.push(' ');
        line.push_str(&enc(*weight));
        s.push_str(line.trim_start());
        s.push('\n');
    }
    s.push_str("end\n");
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Reads the whole model file. Every loader parses the text in one pass
/// over borrowed lines.
fn read_text<R: BufRead>(mut r: R) -> Result<String, PersistError> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    Ok(text)
}

fn next_line<'a>(lines: &mut std::str::Lines<'a>) -> Result<&'a str, PersistError> {
    lines
        .next()
        .ok_or_else(|| PersistError::Format("unexpected end of file".into()))
}

/// Decodes the whitespace-separated hex fields of `line`, which must
/// number exactly `want`. Room is reserved from the line's length, never
/// from `want` alone, which comes from the file's own header.
fn fields(line: &str, want: usize, what: &str) -> Result<Vec<f64>, PersistError> {
    let mut out = Vec::with_capacity(want.min(line.len()));
    for tok in line.split_whitespace() {
        if out.len() == want {
            return bad(format!("{what} has more than {want} fields"));
        }
        out.push(dec(tok)?);
    }
    if out.len() != want {
        return bad(format!("{what} has {} fields, expected {want}", out.len()));
    }
    Ok(out)
}

/// Reads the preamble both model files share: the magic, the
/// `<family> <d>` header, the root line and the `<count_tag> <n>` line.
/// Returns `(d, root, n)`. `n` is only a claim of the file's: callers
/// read that many lines without reserving room for them first.
fn read_preamble(
    lines: &mut std::str::Lines<'_>,
    family: &str,
    count_tag: &str,
) -> Result<(usize, Rect, usize), PersistError> {
    if next_line(lines)? != MAGIC {
        return bad("missing magic header");
    }
    let mut it = next_line(lines)?.split_whitespace();
    if it.next() != Some(family) {
        return bad(format!("expected '{family}' section"));
    }
    let d: usize = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| PersistError::Format("bad dimension".into()))?;
    let root = parse_rect_line(next_line(lines)?, "root", d)?;
    let n: usize = next_line(lines)?
        .strip_prefix(count_tag)
        .and_then(|v| v.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| PersistError::Format(format!("bad {count_tag} count")))?;
    Ok((d, root, n))
}

fn read_trailer(lines: &mut std::str::Lines<'_>) -> Result<(), PersistError> {
    if next_line(lines)? != "end" {
        return bad("missing trailer");
    }
    Ok(())
}

/// Deserializes a QuadHist (with the default volume backend).
pub fn load_quadhist<R: BufRead>(r: R) -> Result<QuadHist, PersistError> {
    parse_quadhist(&read_text(r)?)
}

fn parse_quadhist(text: &str) -> Result<QuadHist, PersistError> {
    let mut lines = text.lines();
    let (d, root, n) = read_preamble(&mut lines, "quadhist", "buckets")?;
    let mut buckets = Vec::new();
    for _ in 0..n {
        // `2·d` fits: the root line held that many fields
        let mut lo = fields(next_line(&mut lines)?, 2 * d + 1, "bucket line")?;
        let weight = lo.pop().unwrap_or_default();
        let hi = lo.split_off(d);
        let rect = Rect::try_new(lo, hi)
            .map_err(|e| PersistError::Format(format!("bad bucket box: {e}")))?;
        buckets.push((rect, weight));
    }
    read_trailer(&mut lines)?;
    QuadHist::from_buckets(root, &buckets, VolumeEstimator::default())
        .map_err(|e| PersistError::Format(e.to_string()))
}

/// Serializes a PtsHist.
pub fn save_ptshist<W: Write>(model: &PtsHist, mut w: W) -> Result<(), PersistError> {
    let root = model.root();
    let d = root.dim();
    let mut s = String::new();
    s.push_str(MAGIC);
    s.push('\n');
    s.push_str(&format!("ptshist {d}\nroot"));
    write_coords(&mut s, root.lo());
    write_coords(&mut s, root.hi());
    s.push('\n');
    let support: Vec<(&Point, f64)> = model.support().collect();
    s.push_str(&format!("points {}\n", support.len()));
    for (p, weight) in support {
        let mut line = String::new();
        write_coords(&mut line, p.coords());
        line.push(' ');
        line.push_str(&enc(weight));
        s.push_str(line.trim_start());
        s.push('\n');
    }
    s.push_str("end\n");
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Deserializes a PtsHist.
pub fn load_ptshist<R: BufRead>(r: R) -> Result<PtsHist, PersistError> {
    parse_ptshist(&read_text(r)?)
}

fn parse_ptshist(text: &str) -> Result<PtsHist, PersistError> {
    let mut lines = text.lines();
    let (d, root, n) = read_preamble(&mut lines, "ptshist", "points")?;
    let mut points = Vec::new();
    let mut weights = Vec::new();
    for _ in 0..n {
        let mut coords = fields(next_line(&mut lines)?, d + 1, "point line")?;
        weights.push(coords.pop().unwrap_or_default());
        if let Some(c) = coords.iter().find(|c| !c.is_finite()) {
            return bad(format!("non-finite point coordinate {c}"));
        }
        points.push(Point::new(coords));
    }
    read_trailer(&mut lines)?;
    PtsHist::from_support(root, points, weights)
        .map_err(|e| PersistError::Format(e.to_string()))
}

/// Loads any supported model file and returns its pointer-free
/// [`crate::frozen::FrozenEstimator`] — the restore path servers use. The
/// file is read once and parsed by the family's own loader; the layout it
/// builds is moved out of the loaded model, not copied. The section
/// header (`quadhist` / `ptshist`) selects the family.
pub fn load_frozen<R: BufRead>(r: R) -> Result<crate::frozen::FrozenEstimator, PersistError> {
    let text = read_text(r)?;
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return bad("missing magic header");
    }
    match lines.next().and_then(|h| h.split_whitespace().next()) {
        Some("quadhist") => Ok(parse_quadhist(&text)?.into_frozen()),
        Some("ptshist") => Ok(parse_ptshist(&text)?.into_frozen()),
        other => bad(format!("unknown model family '{}'", other.unwrap_or(""))),
    }
}

fn parse_rect_line(line: &str, tag: &str, d: usize) -> Result<Rect, PersistError> {
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| PersistError::Format(format!("expected '{tag}' line")))?;
    let Some(want) = d.checked_mul(2) else {
        return bad(format!("dimension {d} is too large"));
    };
    let mut lo = fields(rest, want, &format!("{tag} line"))?;
    let hi = lo.split_off(d);
    Rect::try_new(lo, hi).map_err(|e| PersistError::Format(format!("bad {tag} box: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{SelectivityEstimator, TrainingQuery};
    use crate::ptshist::PtsHistConfig;
    use crate::quadhist::QuadHistConfig;
    use selearn_geom::Range;

    fn workload() -> Vec<TrainingQuery> {
        vec![
            TrainingQuery::new(Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]), 0.6),
            TrainingQuery::new(Rect::new(vec![0.25, 0.25], vec![0.9, 0.9]), 0.35),
            TrainingQuery::new(Rect::new(vec![0.6, 0.1], vec![0.95, 0.45]), 0.2),
        ]
    }

    fn probes() -> Vec<Range> {
        vec![
            Rect::new(vec![0.0, 0.0], vec![0.3, 0.7]).into(),
            Rect::new(vec![0.2, 0.4], vec![0.9, 0.8]).into(),
            Rect::unit(2).into(),
        ]
    }

    #[test]
    fn quadhist_round_trip_is_exact() {
        let qh = QuadHist::fit(
            Rect::unit(2),
            &workload(),
            &QuadHistConfig::with_tau(0.02),
        ).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        let back = load_quadhist(&buf[..]).unwrap();
        assert_eq!(back.num_buckets(), qh.num_buckets());
        for p in probes() {
            assert_eq!(back.estimate(&p), qh.estimate(&p), "estimates must be bit-identical");
        }
    }

    #[test]
    fn ptshist_round_trip_is_exact() {
        let ph = PtsHist::fit(
            Rect::unit(2),
            &workload(),
            &PtsHistConfig::with_model_size(64),
        ).unwrap();
        let mut buf = Vec::new();
        save_ptshist(&ph, &mut buf).unwrap();
        let back = load_ptshist(&buf[..]).unwrap();
        assert_eq!(back.num_buckets(), 64);
        for p in probes() {
            assert_eq!(back.estimate(&p), ph.estimate(&p));
        }
    }

    #[test]
    fn format_is_versioned_and_validated() {
        let e = load_quadhist("not a model\n".as_bytes()).unwrap_err();
        assert!(matches!(e, PersistError::Format(_)));
        let e = load_quadhist("selearn-model v1\nptshist 2\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("quadhist"));
        // truncated file
        let qh = QuadHist::fit(Rect::unit(2), &workload(), &QuadHistConfig::with_tau(0.05)).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        let cut = &buf[..buf.len() / 2];
        assert!(load_quadhist(cut).is_err());
    }

    #[test]
    fn float_encoding_is_lossless() {
        for v in [0.0, 1.0, -0.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(dec(&enc(v)).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn tree_reconstruction_from_buckets() {
        // direct check of the QuadTree rebuild on a nested partition
        let qh = QuadHist::fit(
            Rect::unit(2),
            &workload(),
            &QuadHistConfig::with_tau(0.01),
        ).unwrap();
        let rebuilt = QuadHist::from_buckets(
            Rect::unit(2),
            &qh.buckets(),
            VolumeEstimator::default(),
        ).unwrap();
        assert_eq!(rebuilt.num_buckets(), qh.num_buckets());
        let total: f64 = rebuilt.buckets().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }
}
