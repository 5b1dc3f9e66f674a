//! Online accuracy-drift monitor: rolling q-error windows over WAL-acked
//! feedback, scored against the *currently served* model.
//!
//! The paper's guarantee is bounded q-error on the training distribution;
//! when the workload shifts (the online regime of arXiv 2607.02895), that
//! bound silently stops applying. [`DriftMonitor::score`] turns every
//! durably acknowledged feedback record `(query, sel)` into a live check:
//! it asks the registry's current model for its estimate of the same
//! query, folds the q-error into a per-model rolling window, and when a
//! window fills publishes `serve.qerror_p50{model="…"}` /
//! `serve.qerror_p95{model="…"}` gauges. A window whose p95 exceeds
//! [`DriftConfig::threshold`] counts a breach; [`DriftConfig::consecutive`]
//! breaches in a row raise the alarm — a `warn` log, a bump of the
//! `serve.drift_alarms` counter, a `serve.drift_alarm{model="…"}` gauge of
//! 1, and a flipped `/readyz` detail — until a healthy window clears it.
//!
//! Scoring happens at the WAL-ack point, as soon as the append is durable
//! and before any checkpoint swaps the label into the served model, so
//! the monitor measures what the serving fleet actually answered, not
//! what the model would say after learning from this very record.

use crate::registry::ModelRegistry;
use selearn_core::{q_error, TrainingQuery};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Drift-monitor tuning. `Default` is sized for the serve bin: 64-record
/// windows, alarm at p95 q-error > 4 for 3 consecutive windows.
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// Records per rolling window (minimum 1).
    pub window: usize,
    /// Window-p95 q-error above this counts as a breach.
    pub threshold: f64,
    /// Consecutive breached windows before the alarm raises.
    pub consecutive: u32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 64,
            threshold: 4.0,
            consecutive: 3,
        }
    }
}

/// Per-model rolling state.
#[derive(Default)]
struct ModelDrift {
    window: Vec<f64>,
    breaches: u32,
    alarmed: bool,
    windows: u64,
    last_p50: f64,
    last_p95: f64,
}

/// One model's public drift status, for `/readyz` detail and tests.
#[derive(Clone, Debug)]
pub struct DriftStatus {
    /// Registry model name.
    pub model: String,
    /// True while the alarm is raised.
    pub alarmed: bool,
    /// Current consecutive-breach count.
    pub breaches: u32,
    /// Completed windows scored so far.
    pub windows: u64,
    /// p50 q-error of the last completed window (0 before the first).
    pub last_p50: f64,
    /// p95 q-error of the last completed window (0 before the first).
    pub last_p95: f64,
}

/// The monitor. One instance serves every model name; state is keyed by
/// the name the feedback targeted.
pub struct DriftMonitor {
    config: DriftConfig,
    registry: Arc<ModelRegistry>,
    state: Mutex<HashMap<String, ModelDrift>>,
}

impl DriftMonitor {
    /// Creates a monitor scoring against `registry`'s current models.
    pub fn new(config: DriftConfig, registry: Arc<ModelRegistry>) -> Self {
        let config = DriftConfig {
            window: config.window.max(1),
            ..config
        };
        Self {
            config,
            registry,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Scores one acknowledged feedback record against the model currently
    /// served under `model_name`. No-op when the name is not registered
    /// (the feedback path already rejected it) or the label is non-finite.
    pub fn score(&self, model_name: &str, feedback: &TrainingQuery) {
        if !feedback.selectivity.is_finite() {
            return;
        }
        let Some(slot) = self.registry.slot(model_name) else {
            return;
        };
        // Blocking read is fine off the estimate hot path: swaps hold the
        // write lock only for the pointer exchange.
        let (model, _generation) = slot.get();
        let predicted = model.estimate(&feedback.range);
        let actual = feedback.selectivity;
        let qerror = q_error(predicted, actual);

        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let drift = state.entry(model_name.to_string()).or_default();
        drift.window.push(qerror);
        if drift.window.len() < self.config.window {
            return;
        }
        // Window complete: publish, judge, reset.
        drift
            .window
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p50 = window_quantile(&drift.window, 0.50);
        let p95 = window_quantile(&drift.window, 0.95);
        drift.window.clear();
        drift.windows += 1;
        drift.last_p50 = p50;
        drift.last_p95 = p95;
        let label = model_label(model_name);
        selearn_obs::gauge_set(&format!("serve.qerror_p50{label}"), p50);
        selearn_obs::gauge_set(&format!("serve.qerror_p95{label}"), p95);

        if p95 > self.config.threshold {
            drift.breaches += 1;
            if drift.breaches >= self.config.consecutive && !drift.alarmed {
                drift.alarmed = true;
                selearn_obs::counter_add("serve.drift_alarms", 1);
                selearn_obs::gauge_set(&format!("serve.drift_alarm{label}"), 1.0);
                selearn_obs::warn!(
                    "drift alarm: model \"{model_name}\" window q-error p95 {p95:.2} > {:.2} for {} consecutive windows",
                    self.config.threshold,
                    drift.breaches
                );
            }
        } else {
            if drift.alarmed {
                selearn_obs::gauge_set(&format!("serve.drift_alarm{label}"), 0.0);
                selearn_obs::info!(
                    "drift alarm cleared: model \"{model_name}\" window q-error p95 {p95:.2}"
                );
            }
            drift.breaches = 0;
            drift.alarmed = false;
        }
    }

    /// Names currently under an active drift alarm, sorted.
    pub fn alarmed(&self) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<String> = state
            .iter()
            .filter(|(_, d)| d.alarmed)
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Full per-model status, sorted by name.
    pub fn status(&self) -> Vec<DriftStatus> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<DriftStatus> = state
            .iter()
            .map(|(name, d)| DriftStatus {
                model: name.clone(),
                alarmed: d.alarmed,
                breaches: d.breaches,
                windows: d.windows,
                last_p50: d.last_p50,
                last_p95: d.last_p95,
            })
            .collect();
        out.sort_by(|a, b| a.model.cmp(&b.model));
        out
    }
}

/// Nearest-rank quantile of an ascending-sorted non-empty window.
fn window_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Renders the `{model="…"}` label suffix used on per-model registry
/// names, escaping the value per the Prometheus label grammar.
fn model_label(name: &str) -> String {
    format!("{{model=\"{}\"}}", selearn_obs::expo::escape_label_value(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_core::SelectivityEstimator;
    use selearn_geom::{Range, Rect};

    struct Constant(f64);
    impl SelectivityEstimator for Constant {
        fn estimate(&self, _r: &Range) -> f64 {
            self.0
        }
        fn num_buckets(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    fn monitor(window: usize, threshold: f64, consecutive: u32) -> DriftMonitor {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Arc::new(Constant(0.1)), Rect::unit(2));
        DriftMonitor::new(
            DriftConfig {
                window,
                threshold,
                consecutive,
            },
            registry,
        )
    }

    fn feedback(sel: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(vec![0.1, 0.1], vec![0.6, 0.6]), sel)
    }

    #[test]
    fn stationary_stream_never_alarms() {
        let m = monitor(8, 4.0, 2);
        // Labels match the model's constant 0.1 answer: q-error ≈ 1.
        for _ in 0..100 {
            m.score("default", &feedback(0.1));
        }
        assert!(m.alarmed().is_empty());
        let status = m.status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].windows, 12, "100 records / 8-record windows");
        assert!((status[0].last_p95 - 1.0).abs() < 1e-9);
        assert_eq!(status[0].breaches, 0);
    }

    #[test]
    fn label_shift_alarms_within_k_windows_and_clears() {
        let m = monitor(8, 4.0, 2);
        // Stationary warm-up: two clean windows.
        for _ in 0..16 {
            m.score("default", &feedback(0.1));
        }
        assert!(m.alarmed().is_empty());
        // Shift: true selectivity jumps to 0.9 while the model says 0.1 —
        // q-error 9 > 4. The first breached window arms, the second alarms.
        for i in 0..16 {
            m.score("default", &feedback(0.9));
            if i < 15 {
                assert!(m.alarmed().is_empty(), "must take K=2 full windows");
            }
        }
        assert_eq!(m.alarmed(), vec!["default".to_string()]);
        assert!(m.status()[0].last_p95 > 4.0);
        // Recovery: one healthy window clears the alarm.
        for _ in 0..8 {
            m.score("default", &feedback(0.1));
        }
        assert!(m.alarmed().is_empty());
        assert_eq!(m.status()[0].breaches, 0);
    }

    #[test]
    fn unknown_model_and_bad_labels_are_ignored() {
        let m = monitor(2, 4.0, 1);
        m.score("nope", &feedback(0.9));
        m.score("default", &feedback(f64::NAN));
        assert!(m.status().iter().all(|s| s.windows == 0));
    }

    #[test]
    fn tiny_selectivities_use_the_epsilon_floor() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Arc::new(Constant(0.0)), Rect::unit(2));
        let m = DriftMonitor::new(
            DriftConfig {
                window: 2,
                threshold: 4.0,
                consecutive: 1,
            },
            registry,
        );
        // Model answers 0, label is 0: q-error must be 1, not 0/0.
        m.score("default", &feedback(0.0));
        m.score("default", &feedback(0.0));
        assert!((m.status()[0].last_p95 - 1.0).abs() < 1e-9);
        assert!(m.alarmed().is_empty());
    }

    #[test]
    fn model_label_escapes_quotes() {
        assert_eq!(model_label("a\"b\\c"), "{model=\"a\\\"b\\\\c\"}");
    }
}
