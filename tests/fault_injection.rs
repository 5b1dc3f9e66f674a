//! Fault-injection suite: the panic-free contract, verified.
//!
//! Every public `fit`/`generate`/`load` entry point is fed untrusted and
//! degenerate input — non-finite labels, empty workloads, zero-volume
//! ranges, zeroed configs, truncated and bit-flipped model files — and
//! must return a typed [`SelearnError`]/[`PersistError`] or a finite
//! answer. A panic anywhere fails the suite (proptest and the test
//! harness both convert panics into failures). See DESIGN.md's "Error
//! handling" section for the policy this enforces.

use proptest::prelude::*;
use selearn::core::{
    load_frozen, load_ptshist, load_quadhist, save_ptshist, save_quadhist, PersistError,
};
use selearn::prelude::*;

fn rect_query(x: f64, y: f64, w: f64, h: f64, s: f64) -> TrainingQuery {
    TrainingQuery::new(
        Rect::new(
            vec![x.clamp(0.0, 1.0), y.clamp(0.0, 1.0)],
            vec![(x + w).clamp(0.0, 1.0), (y + h).clamp(0.0, 1.0)],
        ),
        s,
    )
}

/// Labels drawn from the full hostile range: valid, out-of-band, and
/// non-finite.
fn hostile_label() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..1.0).prop_map(|(pick, v)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -3.5,
        4 => 7.0,
        _ => v,
    })
}

/// Boxes including duplicates and zero-volume degenerate slabs.
fn hostile_workload() -> impl Strategy<Value = Vec<TrainingQuery>> {
    proptest::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6, hostile_label()),
        0..10,
    )
    .prop_map(|specs| {
        let mut qs: Vec<TrainingQuery> = specs
            .iter()
            .map(|&(x, y, w, h, s)| rect_query(x, y, w, h, s))
            .collect();
        // duplicate the first query to exercise redundant-row paths
        if let Some(first) = qs.first().cloned() {
            qs.push(first);
        }
        qs
    })
}

/// Every estimate from a successfully trained model must be finite and
/// inside [0, 1]; a rejected workload must be a typed error, not a panic.
fn assert_fit_contract<M: SelectivityEstimator>(
    fit: Result<M, SelearnError>,
    probes: &[Range],
) -> Result<(), TestCaseError> {
    if let Ok(model) = fit {
        for p in probes {
            let e = model.estimate(p);
            prop_assert!(e.is_finite() && (0.0..=1.0).contains(&e), "estimate {e}");
        }
    }
    Ok(())
}

/// A load of a damaged file must fail with a typed error, or yield a
/// model whose answers on the probes are finite and in [0, 1].
fn assert_typed_or_sound<M: SelectivityEstimator>(
    got: Result<M, PersistError>,
) -> Result<(), TestCaseError> {
    match got {
        Ok(model) => {
            for p in probes() {
                let e = model.estimate(&p);
                prop_assert!((0.0..=1.0).contains(&e), "estimate {e}");
            }
        }
        Err(e) => {
            prop_assert!(matches!(e, PersistError::Format(_) | PersistError::Io(_)), "{e}");
        }
    }
    Ok(())
}

fn probes() -> Vec<Range> {
    vec![
        Rect::new(vec![0.0, 0.0], vec![0.4, 0.9]).into(),
        Rect::new(vec![0.3, 0.3], vec![0.3, 0.3]).into(), // zero volume
        Rect::unit(2).into(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quadhist_never_panics(train in hostile_workload()) {
        let r = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05));
        assert_fit_contract(r, &probes())?;
    }

    #[test]
    fn ptshist_never_panics(train in hostile_workload()) {
        let r = PtsHist::fit(Rect::unit(2), &train, &PtsHistConfig::with_model_size(32));
        assert_fit_contract(r, &probes())?;
    }

    #[test]
    fn quicksel_never_panics(train in hostile_workload()) {
        let r = QuickSel::fit(Rect::unit(2), &train, &QuickSelConfig::default());
        assert_fit_contract(r, &probes())?;
    }

    #[test]
    fn isomer_never_panics(train in hostile_workload()) {
        let r = Isomer::fit(Rect::unit(2), &train, &IsomerConfig::default());
        assert_fit_contract(r, &probes())?;
    }

    /// Loading a prefix of a valid model file must fail cleanly (or, for
    /// a prefix that happens to end on a record boundary, never panic).
    #[test]
    fn quadhist_load_truncated_never_panics(cut_frac in 0.0f64..1.0) {
        let train = vec![
            rect_query(0.1, 0.1, 0.5, 0.5, 0.6),
            rect_query(0.4, 0.4, 0.4, 0.4, 0.3),
        ];
        let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        let cut = (buf.len() as f64 * cut_frac) as usize;
        let r = load_quadhist(&buf[..cut.min(buf.len())]);
        if cut < buf.len() {
            prop_assert!(matches!(r, Err(PersistError::Format(_) | PersistError::Io(_))));
        }
    }

    /// Single-bit corruption anywhere in the file must never panic: a
    /// typed error, or (when the flip lands in a weight's mantissa and
    /// keeps the invariants) a loadable model with finite estimates.
    #[test]
    fn ptshist_load_bitflipped_never_panics(byte_frac in 0.0f64..1.0, bit in 0u32..8) {
        let train = vec![
            rect_query(0.1, 0.1, 0.5, 0.5, 0.6),
            rect_query(0.4, 0.4, 0.4, 0.4, 0.3),
        ];
        let ph = PtsHist::fit(Rect::unit(2), &train, &PtsHistConfig::with_model_size(16)).unwrap();
        let mut buf = Vec::new();
        save_ptshist(&ph, &mut buf).unwrap();
        let idx = ((buf.len() as f64 * byte_frac) as usize).min(buf.len() - 1);
        buf[idx] ^= 1u8 << bit;
        if let Ok(model) = load_ptshist(&buf[..]) {
            for p in probes() {
                let e = model.estimate(&p);
                prop_assert!(e.is_finite(), "estimate {e} after bit flip");
            }
        }
    }

    /// Line-level corruption of a QuadHist dump: a dropped, duplicated or
    /// swapped bucket line, one coordinate replaced by the next line's
    /// value in the same field, or one flipped bit — with the `buckets`
    /// count left as it was or rewritten to the new line count, so that
    /// damage reaches the partition check as well as the parser. Both
    /// loaders must return a typed error or a model whose answers are
    /// finite and in [0, 1].
    #[test]
    fn quadhist_load_mutated_lines_never_panics(mutation in (
        0u32..5, 0.0f64..1.0, 0.0f64..1.0, 0u32..8, 0u32..2,
    )) {
        let (kind, i_frac, j_frac, bit, recount) = mutation;
        let train = vec![
            rect_query(0.1, 0.1, 0.5, 0.5, 0.6),
            rect_query(0.4, 0.4, 0.4, 0.4, 0.3),
        ];
        let qh = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.05)).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        // magic, header, root, count, the bucket lines, `end`, and the
        // empty rest after the final newline
        let mut lines: Vec<Vec<u8>> = buf.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        let n = lines.len() - 6;
        prop_assume!(n >= 2);
        let i = 4 + ((n as f64 * i_frac) as usize).min(n - 1);
        let j = 4 + ((n as f64 * j_frac) as usize).min(n - 1);
        match kind {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            2 => lines.swap(i, j),
            3 => {
                // one of the 2·d = 4 coordinates, from the next bucket line
                let field = j % 4;
                let next = if i + 1 < 4 + n { i + 1 } else { 4 };
                let split = |line: &[u8]| -> Vec<Vec<u8>> {
                    line.split(|&b| b == b' ').map(<[u8]>::to_vec).collect()
                };
                let mut fields = split(&lines[i]);
                fields[field] = split(&lines[next]).swap_remove(field);
                lines[i] = fields.join(&b' ');
            }
            _ => {
                let at = ((lines[i].len() as f64 * j_frac) as usize).min(lines[i].len() - 1);
                lines[i][at] ^= 1u8 << bit;
            }
        }
        if recount == 1 {
            lines[3] = format!("buckets {}", lines.len() - 6).into_bytes();
        }
        let dump = lines.join(&b'\n');
        assert_typed_or_sound(load_quadhist(&dump[..]))?;
        assert_typed_or_sound(load_frozen(&dump[..]))?;
    }

    /// The same line-level corruption of a PtsHist dump: a dropped,
    /// duplicated or swapped support-point line, one field (a coordinate
    /// or the weight) replaced by the next line's, or one flipped bit —
    /// with the `points` count left as it was or rewritten. Both loaders
    /// must return a typed error or a model whose answers are finite and
    /// in [0, 1].
    #[test]
    fn ptshist_load_mutated_lines_never_panics(mutation in (
        0u32..5, 0.0f64..1.0, 0.0f64..1.0, 0u32..8, 0u32..2,
    )) {
        let (kind, i_frac, j_frac, bit, recount) = mutation;
        let train = vec![
            rect_query(0.1, 0.1, 0.5, 0.5, 0.6),
            rect_query(0.4, 0.4, 0.4, 0.4, 0.3),
        ];
        let ph = PtsHist::fit(Rect::unit(2), &train, &PtsHistConfig::with_model_size(16)).unwrap();
        let mut buf = Vec::new();
        save_ptshist(&ph, &mut buf).unwrap();
        // magic, header, root, count, the point lines, `end`, and the
        // empty rest after the final newline
        let mut lines: Vec<Vec<u8>> = buf.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        let n = lines.len() - 6;
        prop_assume!(n >= 2);
        let i = 4 + ((n as f64 * i_frac) as usize).min(n - 1);
        let j = 4 + ((n as f64 * j_frac) as usize).min(n - 1);
        match kind {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            2 => lines.swap(i, j),
            3 => {
                // one of the d + 1 = 3 fields, from the next point line
                let field = j % 3;
                let next = if i + 1 < 4 + n { i + 1 } else { 4 };
                let split = |line: &[u8]| -> Vec<Vec<u8>> {
                    line.split(|&b| b == b' ').map(<[u8]>::to_vec).collect()
                };
                let mut fields = split(&lines[i]);
                fields[field] = split(&lines[next]).swap_remove(field);
                lines[i] = fields.join(&b' ');
            }
            _ => {
                let at = ((lines[i].len() as f64 * j_frac) as usize).min(lines[i].len() - 1);
                lines[i][at] ^= 1u8 << bit;
            }
        }
        if recount == 1 {
            lines[3] = format!("points {}", lines.len() - 6).into_bytes();
        }
        let dump = lines.join(&b'\n');
        assert_typed_or_sound(load_ptshist(&dump[..]))?;
        assert_typed_or_sound(load_frozen(&dump[..]))?;
    }

    /// Round trip: save → load reproduces the model bit-for-bit.
    #[test]
    fn persistence_round_trip_property(train in proptest::collection::vec(
        (0.0f64..0.8, 0.0f64..0.8, 0.05f64..0.4, 0.05f64..0.4, 0.0f64..1.0),
        1..6,
    )) {
        let qs: Vec<TrainingQuery> = train
            .iter()
            .map(|&(x, y, w, h, s)| rect_query(x, y, w, h, s))
            .collect();
        let qh = QuadHist::fit(Rect::unit(2), &qs, &QuadHistConfig::with_tau(0.05)).unwrap();
        let mut buf = Vec::new();
        save_quadhist(&qh, &mut buf).unwrap();
        let back = load_quadhist(&buf[..]).unwrap();
        for p in probes() {
            prop_assert_eq!(back.estimate(&p).to_bits(), qh.estimate(&p).to_bits());
        }

        let ph = PtsHist::fit(Rect::unit(2), &qs, &PtsHistConfig::with_model_size(16)).unwrap();
        let mut buf = Vec::new();
        save_ptshist(&ph, &mut buf).unwrap();
        let back = load_ptshist(&buf[..]).unwrap();
        for p in probes() {
            prop_assert_eq!(back.estimate(&p).to_bits(), ph.estimate(&p).to_bits());
        }
    }
}

#[test]
fn non_finite_labels_are_typed_errors() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let train = vec![rect_query(0.1, 0.1, 0.5, 0.5, bad)];
        for (name, err) in [
            (
                "quadhist",
                QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::default()).err(),
            ),
            (
                "ptshist",
                PtsHist::fit(Rect::unit(2), &train, &PtsHistConfig::with_model_size(8)).err(),
            ),
            (
                "quicksel",
                QuickSel::fit(Rect::unit(2), &train, &QuickSelConfig::default()).err(),
            ),
            (
                "isomer",
                Isomer::fit(Rect::unit(2), &train, &IsomerConfig::default()).err(),
            ),
        ] {
            assert!(
                matches!(err, Some(SelearnError::InvalidLabel { query: 0, .. })),
                "{name} accepted label {bad}: {err:?}"
            );
        }
    }
}

#[test]
fn empty_workload_is_not_an_error() {
    // The documented contract: no feedback means the uniform fallback,
    // not a failure.
    let qh = QuadHist::fit(Rect::unit(2), &[], &QuadHistConfig::default()).unwrap();
    let r: Range = Rect::new(vec![0.0, 0.0], vec![0.5, 1.0]).into();
    assert!((qh.estimate(&r) - 0.5).abs() < 1e-9);
}

#[test]
fn zeroed_configs_are_typed_errors() {
    let train = vec![rect_query(0.1, 0.1, 0.5, 0.5, 0.4)];
    let tau0 = QuadHist::fit(Rect::unit(2), &train, &QuadHistConfig::with_tau(0.0));
    assert!(matches!(tau0, Err(SelearnError::InvalidConfig { .. })), "{tau0:?}");
    let k0 = PtsHist::fit(Rect::unit(2), &train, &PtsHistConfig::with_model_size(0));
    assert!(matches!(k0, Err(SelearnError::InvalidConfig { .. })), "{k0:?}");
}

#[test]
fn workload_generation_rejects_degenerate_inputs() {
    use rand::rngs::StdRng;
    let empty = Dataset::new("empty", 2, vec![]);
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::Random);
    let mut rng = StdRng::seed_from_u64(1);
    let err = Workload::generate(&empty, &spec, 10, &mut rng).unwrap_err();
    assert!(matches!(err, SelearnError::Dataset { .. }), "{err}");

    let data = power_like(500, 3).project(&[0, 1]);
    let bad_spec = WorkloadSpec::new(
        QueryType::Rect,
        CenterDistribution::Gaussian {
            mean: f64::NAN,
            std: 0.1,
        },
    );
    let err = Workload::generate(&data, &bad_spec, 10, &mut rng).unwrap_err();
    assert!(matches!(err, SelearnError::InvalidConfig { .. }), "{err}");
}

#[test]
fn wrong_magic_is_a_typed_error() {
    for junk in [
        "",
        "garbage",
        "selearn-model v2\nquadhist 2\n",
        "selearn-model v1\nwrongkind 2\n",
        "selearn-model v1\nquadhist not-a-number\n",
    ] {
        assert!(
            matches!(load_quadhist(junk.as_bytes()), Err(PersistError::Format(_))),
            "accepted {junk:?}"
        );
        assert!(
            matches!(load_ptshist(junk.as_bytes()), Err(PersistError::Format(_))),
            "accepted {junk:?}"
        );
    }
}

/// The hex encoding model files use for `v`.
fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// A box line: `d` encoded copies of `lo`, then of `hi`, then `tail`.
fn box_line(d: usize, lo: f64, hi: f64, tail: &[f64]) -> String {
    let mut fields = vec![hex(lo); d];
    fields.extend(vec![hex(hi); d]);
    fields.extend(tail.iter().map(|&v| hex(v)));
    fields.join(" ")
}

/// A model file with a `d`-dimensional unit root, the given count line
/// and body lines.
fn model_file(family: &str, d: usize, count: &str, body: &[String]) -> String {
    let root = box_line(d, 0.0, 1.0, &[]);
    let mut text = format!("selearn-model v1\n{family} {d}\nroot {root}\n{count}\n");
    for line in body {
        text.push_str(line);
        text.push('\n');
    }
    text.push_str("end\n");
    text
}

fn assert_format_error<T>(got: Result<T, PersistError>, what: &str) {
    assert!(matches!(got, Err(PersistError::Format(_))), "accepted {what}");
}

#[test]
fn huge_declared_counts_are_typed_errors() {
    // Neither count is backed by lines; the loaders must not reserve room
    // for them up front (capacity overflow, or a 56 GB allocation).
    for n in ["4000000000000000000", "1000000000"] {
        let quad = model_file("quadhist", 2, &format!("buckets {n}"), &[]);
        assert_format_error(load_quadhist(quad.as_bytes()), &quad);
        assert_format_error(load_frozen(quad.as_bytes()), &quad);
        let pts = model_file("ptshist", 2, &format!("points {n}"), &[]);
        assert_format_error(load_ptshist(pts.as_bytes()), &pts);
        assert_format_error(load_frozen(pts.as_bytes()), &pts);
    }
}

#[test]
fn overflowing_dimension_is_a_typed_error() {
    // 2·d overflows usize.
    for family in ["quadhist", "ptshist"] {
        let text = format!("selearn-model v1\n{family} 9223372036854775808\nroot\nbuckets 1\n");
        assert_format_error(load_frozen(text.as_bytes()), &text);
    }
    let text = "selearn-model v1\nquadhist 9223372036854775808\nroot\nbuckets 1\n";
    assert_format_error(load_quadhist(text.as_bytes()), text);
    let text = "selearn-model v1\nptshist 9223372036854775808\nroot\npoints 1\n";
    assert_format_error(load_ptshist(text.as_bytes()), text);
}

#[test]
fn quadhist_dimension_past_the_fanout_width_is_a_typed_error() {
    // One bucket equal to the root: valid-looking, but 2^64 overflows.
    let text = model_file("quadhist", 64, "buckets 1", &[box_line(64, 0.0, 1.0, &[1.0])]);
    assert_format_error(load_frozen(text.as_bytes()), &text);
    assert_format_error(load_quadhist(text.as_bytes()), &text);
}

#[test]
fn quadhist_fanout_beyond_the_bucket_count_is_a_typed_error() {
    // Two depth-1 cells of a 62-dimensional root: a partition with more
    // than one bucket has at least 2^62 of them.
    let d = 62;
    let cells = [box_line(d, 0.0, 0.5, &[0.5]), box_line(d, 0.5, 1.0, &[0.5])];
    let text = model_file("quadhist", d, "buckets 2", &cells);
    assert_format_error(load_quadhist(text.as_bytes()), &text);
    assert_format_error(load_frozen(text.as_bytes()), &text);
}
