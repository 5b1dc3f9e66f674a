//! Streaming query feedback.
//!
//! ```text
//! cargo run --release --example online_feedback
//! ```
//!
//! Production optimizers receive selectivity feedback one executed query
//! at a time. `OnlineQuadHist` refines its partition per observation
//! (Algorithm 2 is naturally incremental; Lemma A.4 makes arrival order
//! irrelevant) and refits weights periodically. We track test error as the
//! stream progresses.

use selearn::prelude::*;

fn main() -> Result<(), SelearnError> {
    let data = power_like(40_000, 42).project(&[0, 2]);
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let stream = Workload::generate(&data, &spec, 500, &mut rng)?;
    let test = Workload::generate(&data, &spec, 200, &mut rng)?;

    // --- online learning curve ---
    println!("online QuadHist: test RMS along the feedback stream");
    let mut online = OnlineQuadHist::new(
        Rect::unit(2),
        selearn::core::QuadHistConfig::with_tau(0.005),
        50, // refit every 50 observations
    )?;
    let mut prev_rms = f64::INFINITY;
    let mut improvements = 0;
    for (i, q) in stream.queries().iter().enumerate() {
        online.observe(TrainingQuery {
            range: q.range.clone(),
            selectivity: q.selectivity,
        })?;
        if (i + 1) % 100 == 0 {
            let r = evaluate(&online, &test);
            println!(
                "  after {:>4} queries: rms = {:.5} ({} buckets)",
                i + 1,
                r.rms,
                online.num_buckets()
            );
            if r.rms < prev_rms {
                improvements += 1;
            }
            prev_rms = r.rms;
        }
    }
    assert!(improvements >= 3, "the learning curve should mostly descend");

    Ok(())
}
