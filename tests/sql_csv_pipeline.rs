//! End-to-end "adoption path" test: load a relation from CSV, train a
//! model from query feedback with equality predicates on the categorical
//! column, and evaluate it on held-out queries.

use selearn::data::{load_csv, parse_csv};
use selearn::prelude::*;

/// A small synthetic CSV relation with one categorical column.
fn make_csv() -> String {
    let mut s = String::from("price,region,qty\n");
    let mut seed = 7u64;
    let mut next = move || {
        // xorshift for a dependency-free deterministic stream
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 10_000) as f64 / 10_000.0
    };
    for _ in 0..3_000 {
        let u = next();
        // skewed price, correlated qty, 3-way region
        let price = (u * u * 100.0).round() / 100.0;
        let region = match (next() * 10.0) as u32 {
            0..=5 => "east",
            6..=8 => "west",
            _ => "north",
        };
        let qty = ((0.5 * u + 0.5 * next()) * 50.0).round();
        s.push_str(&format!("{price},{region},{qty}\n"));
    }
    s
}

#[test]
fn csv_to_sql_estimation_pipeline() {
    let (data, schema) = parse_csv(&make_csv(), true, "orders".into()).unwrap();
    assert_eq!(data.dim(), 3);
    assert_eq!(schema.categorical_dims(), vec![1]); // region

    // train from a data-driven workload with equality predicates on region
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven)
        .with_categorical(schema.categorical_dims());
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let workload = Workload::generate(&data, &spec, 400, &mut rng).unwrap();
    let (train, test) = workload.split(300);
    let model = PtsHist::fit(
        Rect::unit(3),
        &to_training(&train),
        &PtsHistConfig::with_model_size(1200),
    )
    .unwrap();
    let report = evaluate(&model, &test);
    assert!(report.rms < 0.1, "rms = {}", report.rms);
}

#[test]
fn csv_loader_and_workloads_respect_categorical_codes() {
    let (data, schema) = parse_csv(&make_csv(), true, "orders".into()).unwrap();
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven)
        .with_categorical(schema.categorical_dims());
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let w = Workload::generate(&data, &spec, 60, &mut rng).unwrap();
    // region has 3 codes {0, 0.5, 1}; each equality slab must select
    // exactly one, so selectivity equals that region's frequency
    for q in w.queries() {
        let r = q.range.as_rect().unwrap();
        let (lo, hi) = (r.lo()[1], r.hi()[1]);
        let codes: std::collections::BTreeSet<u64> = data
            .rows()
            .filter(|row| lo <= row[1] && row[1] <= hi)
            .map(|row| (row[1] * 100.0).round() as u64)
            .collect();
        assert_eq!(codes.len(), 1, "slab [{lo}, {hi}] spans {codes:?}");
    }
}

#[test]
fn file_roundtrip_pipeline() {
    let dir = std::env::temp_dir().join("selearn_sqlcsv_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("orders.csv");
    std::fs::write(&path, make_csv()).unwrap();
    let (data, schema) = load_csv(&path, true).unwrap();
    assert_eq!(data.len(), 3_000);
    assert_eq!(schema.names, vec!["price", "region", "qty"]);
    std::fs::remove_dir_all(&dir).ok();
}
