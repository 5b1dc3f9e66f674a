//! Online (incremental) learned selectivity estimation.
//!
//! The query-driven setting is naturally *streaming*: every executed query
//! returns its true cardinality as free feedback (this is how STHoles and
//! ISOMER were deployed). QuadHist's bucket design is already incremental
//! — Algorithm 1 processes queries one at a time and Lemma A.4 guarantees
//! the partition never depends on arrival order — so an online wrapper
//! only has to (a) refine the tree per observation and (b) decide when to
//! re-run the weight-estimation phase.
//!
//! [`OnlineQuadHist`] refits weights lazily: estimates are served from the
//! last fitted weights until `refit_every` new observations accumulate (or
//! [`OnlineQuadHist::refit`] is called). Between refits, freshly created
//! leaves inherit their parent's mass proportionally to volume, so
//! estimates remain a valid distribution at all times.

use crate::error::SelearnError;
use crate::estimator::{SelectivityEstimator, TrainingQuery};
use crate::frozen::{FrozenEstimator, FrozenQuad};
use crate::quadhist::{solve_leaf_weights, update_quad, QuadHist, QuadHistConfig};
use crate::quadtree::{QuadTree, ROOT};
use selearn_geom::{Range, Rect, EPS};
use std::collections::VecDeque;

/// The complete mutable state of an [`OnlineQuadHist`], captured by
/// [`OnlineQuadHist::snapshot`] and rebuilt by [`OnlineQuadHist::restore`].
/// Deployment configuration (root, [`QuadHistConfig`], refit interval,
/// window cap) is deliberately *not* part of the snapshot: a durable store
/// owns the config and persists only this state.
#[derive(Clone, Debug)]
pub struct OnlineSnapshot {
    /// Arena link per tree node (`None` = leaf), in node-id order — the
    /// exact layout, because estimate summation order follows it.
    pub first_child: Vec<Option<usize>>,
    /// Weight per tree node (nonzero at leaves, plus interim split mass).
    pub node_weight: Vec<f64>,
    /// The retained feedback window, oldest first.
    pub history: Vec<TrainingQuery>,
    /// Lifetime observation count.
    pub total_observed: usize,
    /// Observations since the last weight refit.
    pub observed_since_refit: usize,
}

/// An incrementally trained QuadHist.
#[derive(Clone, Debug)]
pub struct OnlineQuadHist {
    config: QuadHistConfig,
    root: Rect,
    tree: QuadTree,
    /// Weight per node; kept distribution-valid between refits by pushing
    /// mass down to new leaves on split.
    node_weight: Vec<f64>,
    /// Sliding window of the most recent feedback (all of it when
    /// `history_cap` is 0). A long-running server otherwise accumulates
    /// unbounded memory *and* pays an ever-growing refit bill.
    history: VecDeque<TrainingQuery>,
    /// Window cap; 0 = unbounded.
    history_cap: usize,
    /// Lifetime feedback count (keeps counting past evictions).
    total_observed: usize,
    /// Per-node volume cache: `node_volume[id] == tree.rect(id).volume()`.
    /// Volumes are immutable once a node exists, so the cache only ever
    /// appends — refits stop recomputing `∏(hi−lo)` for every leaf × query.
    node_volume: Vec<f64>,
    observed_since_refit: usize,
    refit_every: usize,
}

impl OnlineQuadHist {
    /// Creates an empty online estimator over the data space `root` that
    /// re-runs weight estimation every `refit_every` observations.
    ///
    /// Returns [`SelearnError::InvalidConfig`] on a zero refit interval or
    /// a `τ` outside `(0, 1)`.
    pub fn new(
        root: Rect,
        config: QuadHistConfig,
        refit_every: usize,
    ) -> Result<Self, SelearnError> {
        if refit_every == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "online-quadhist",
                what: "refit interval must be >= 1",
            });
        }
        if !(config.tau > 0.0 && config.tau < 1.0) {
            return Err(SelearnError::InvalidConfig {
                model: "online-quadhist",
                what: "tau must be in (0, 1)",
            });
        }
        let tree = QuadTree::new(root.clone());
        let root_volume = root.volume();
        Ok(Self {
            config,
            root,
            node_weight: vec![1.0; 1], // single leaf carries all mass
            tree,
            history: VecDeque::new(),
            history_cap: 0,
            total_observed: 0,
            node_volume: vec![root_volume],
            observed_since_refit: 0,
            refit_every,
        })
    }

    /// Caps the feedback window at `cap` records (0 = unbounded, the
    /// default): once full, each new observation evicts the oldest one, so
    /// a long-running server holds bounded memory and each refit costs
    /// `O(cap · leaves)` instead of `O(total · leaves)`. Evicted feedback
    /// still left its mark on the partition — only weight estimation
    /// forgets it.
    pub fn with_history_cap(mut self, cap: usize) -> Self {
        self.history_cap = cap;
        self.trim_history();
        self
    }

    fn trim_history(&mut self) {
        if self.history_cap > 0 {
            while self.history.len() > self.history_cap {
                self.history.pop_front();
            }
        }
    }

    /// Ingests one piece of query feedback: refines the partition
    /// (Algorithm 2) and schedules a weight refit.
    ///
    /// Returns [`SelearnError::InvalidLabel`] on a non-finite **or
    /// negative** selectivity (the model is left unchanged), or a solver
    /// error from a scheduled refit. Batch `fit` tolerates finite
    /// out-of-band labels (the agnostic setting), but feedback arriving
    /// one record at a time is a *measurement* of a probability — a
    /// negative value can only be an upstream bug, and admitting it into
    /// the window would silently poison every refit until it ages out.
    pub fn observe(&mut self, feedback: TrainingQuery) -> Result<(), SelearnError> {
        if !feedback.selectivity.is_finite() || feedback.selectivity < 0.0 {
            return Err(SelearnError::InvalidLabel {
                query: self.total_observed,
                value: feedback.selectivity,
            });
        }
        let nodes_before = self.tree.num_nodes();
        let vol_r = feedback.range.volume_in(&self.root, &self.config.volume);
        if vol_r > EPS {
            update_quad(
                &mut self.tree,
                ROOT,
                &feedback.range,
                feedback.selectivity,
                vol_r,
                &self.config,
            );
        }
        // keep the interim weights a valid distribution: push split mass
        // down to children proportionally to volume
        if self.tree.num_nodes() > nodes_before {
            for id in self.node_volume.len()..self.tree.num_nodes() {
                self.node_volume.push(self.tree.rect(id).volume());
            }
            self.node_weight.resize(self.tree.num_nodes(), 0.0);
            // children always get higher ids than their parent, so one
            // ascending pass also carries mass through deep splits
            for id in 0..self.tree.num_nodes() {
                if !self.tree.is_leaf(id) && self.node_weight[id] > 0.0 {
                    let w = std::mem::take(&mut self.node_weight[id]);
                    let kids: Vec<_> = self.tree.children(id).collect();
                    let total: f64 = kids.iter().map(|&c| self.node_volume[c]).sum();
                    for c in kids {
                        let share = if total > 0.0 {
                            self.node_volume[c] / total
                        } else {
                            0.0
                        };
                        self.node_weight[c] += w * share;
                    }
                }
            }
        }
        self.history.push_back(feedback);
        self.total_observed += 1;
        self.trim_history();
        self.observed_since_refit += 1;
        if self.observed_since_refit >= self.refit_every {
            self.refit()?;
        }
        Ok(())
    }

    /// Re-runs the weight-estimation phase (Equation 8) over the retained
    /// feedback window on the current partition, through the same leaf
    /// solve [`QuadHist::fit`] runs, with per-leaf volumes read from the
    /// node-volume cache.
    ///
    /// On a solver error the interim (still distribution-valid) weights
    /// are kept and the error is returned.
    pub fn refit(&mut self) -> Result<(), SelearnError> {
        let _span = selearn_obs::span!("refit.online");
        self.observed_since_refit = 0;
        if self.history.is_empty() {
            return Ok(());
        }
        let window = self.history.make_contiguous();
        let node_volume = &self.node_volume;
        let (node_weight, _) =
            solve_leaf_weights(&self.tree, |leaf| node_volume[leaf], window, &self.config)?;
        self.node_weight = node_weight;
        Ok(())
    }

    /// Captures the complete mutable state of the model — the exact arena
    /// layout of the partition tree, per-node weights, the retained
    /// feedback window, and the observation counters. Restoring the
    /// snapshot with [`OnlineQuadHist::restore`] (same root and config)
    /// yields a model whose estimates *and whose response to any future
    /// feedback stream* are bitwise identical to the original — the
    /// contract durable checkpoints are built on.
    pub fn snapshot(&self) -> OnlineSnapshot {
        OnlineSnapshot {
            first_child: (0..self.tree.num_nodes())
                .map(|id| self.tree.first_child(id))
                .collect(),
            node_weight: self.node_weight.clone(),
            history: self.history.iter().cloned().collect(),
            total_observed: self.total_observed,
            observed_since_refit: self.observed_since_refit,
        }
    }

    /// Rebuilds a model from a [`snapshot`](OnlineQuadHist::snapshot). The
    /// caller supplies the same `root`, `config`, `refit_every`, and
    /// `history_cap` the snapshotted model was built with — a durable
    /// store treats those as deployment configuration and persists only
    /// the state (validating a config fingerprint separately).
    ///
    /// Returns [`SelearnError::InvalidConfig`] on a bad config, or
    /// [`SelearnError::CorruptModel`] when the snapshot is internally
    /// inconsistent (arena/weight length mismatch, non-finite weight,
    /// invalid history label, window over the cap, a refit overdue).
    pub fn restore(
        root: Rect,
        config: QuadHistConfig,
        refit_every: usize,
        history_cap: usize,
        snapshot: OnlineSnapshot,
    ) -> Result<Self, SelearnError> {
        let fresh = Self::new(root.clone(), config.clone(), refit_every)?;
        let tree = QuadTree::from_arena(root.clone(), &snapshot.first_child)?;
        if snapshot.node_weight.len() != tree.num_nodes() {
            return Err(SelearnError::CorruptModel {
                what: format!(
                    "snapshot has {} weights for {} nodes",
                    snapshot.node_weight.len(),
                    tree.num_nodes()
                ),
            });
        }
        if let Some(w) = snapshot.node_weight.iter().find(|w| !w.is_finite()) {
            return Err(SelearnError::CorruptModel {
                what: format!("snapshot contains non-finite node weight {w}"),
            });
        }
        // `observe` refits (and resets the count) the moment it reaches
        // `refit_every`, so a snapshot can never hold a larger one.
        if snapshot.observed_since_refit >= refit_every {
            return Err(SelearnError::CorruptModel {
                what: format!(
                    "snapshot has {} observations since a refit due every {refit_every}",
                    snapshot.observed_since_refit
                ),
            });
        }
        if history_cap > 0 && snapshot.history.len() > history_cap {
            return Err(SelearnError::CorruptModel {
                what: format!(
                    "snapshot window of {} exceeds the history cap {}",
                    snapshot.history.len(),
                    history_cap
                ),
            });
        }
        for (i, q) in snapshot.history.iter().enumerate() {
            if !q.selectivity.is_finite() || q.selectivity < 0.0 {
                return Err(SelearnError::CorruptModel {
                    what: format!(
                        "snapshot window record {i} has invalid selectivity {}",
                        q.selectivity
                    ),
                });
            }
        }
        let node_volume = (0..tree.num_nodes())
            .map(|id| tree.rect(id).volume())
            .collect();
        Ok(Self {
            tree,
            node_weight: snapshot.node_weight,
            history: snapshot.history.into(),
            history_cap,
            total_observed: snapshot.total_observed,
            node_volume,
            observed_since_refit: snapshot.observed_since_refit,
            ..fresh
        })
    }

    /// The data-space root this model was built over.
    pub fn root(&self) -> &Rect {
        &self.root
    }

    /// The model's refit interval (observations per scheduled refit).
    pub fn refit_every(&self) -> usize {
        self.refit_every
    }

    /// The feedback-window cap (0 = unbounded).
    pub fn history_cap(&self) -> usize {
        self.history_cap
    }

    /// Lifetime number of feedback records ingested (not reduced by
    /// window eviction).
    pub fn observations(&self) -> usize {
        self.total_observed
    }

    /// Number of feedback records currently retained for refits — at most
    /// the [`OnlineQuadHist::with_history_cap`] window.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// The model as it stands — its own partition and current (possibly
    /// interim) weights — as a [`QuadHist`] that answers every query
    /// bit-for-bit like [`OnlineQuadHist::estimate`]. Runs no solve.
    pub fn freeze(&self) -> Result<QuadHist, SelearnError> {
        Ok(QuadHist::new(
            self.tree.clone(),
            self.node_weight.clone(),
            self.config.volume.clone(),
            None,
        ))
    }

    /// The current tree and (possibly interim) weights in the frozen
    /// layout every QuadHist estimate goes through. Built per call: the
    /// model changes with every observation, and servers answer from
    /// [`OnlineQuadHist::freeze`]d swaps instead.
    fn frozen(&self) -> FrozenEstimator {
        FrozenEstimator::Quad(FrozenQuad::build(
            &self.tree,
            &self.node_weight,
            self.config.volume.clone(),
            None,
        ))
    }
}

impl SelectivityEstimator for OnlineQuadHist {
    fn estimate(&self, range: &Range) -> f64 {
        self.frozen().estimate(range)
    }

    /// Builds the frozen layout once for the whole batch.
    fn estimate_into(&self, ranges: &[Range], out: &mut [f64]) {
        self.frozen().estimate_into(ranges, out);
    }

    fn num_buckets(&self) -> usize {
        self.tree.num_leaves()
    }

    fn name(&self) -> &'static str {
        "OnlineQuadHist"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tq(lo: Vec<f64>, hi: Vec<f64>, s: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(lo, hi), s)
    }

    fn stream() -> Vec<TrainingQuery> {
        vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.6),
            tq(vec![0.25, 0.25], vec![0.9, 0.9], 0.35),
            tq(vec![0.6, 0.1], vec![0.95, 0.45], 0.2),
            tq(vec![0.1, 0.55], vec![0.4, 0.95], 0.15),
            tq(vec![0.0, 0.0], vec![0.25, 0.25], 0.3),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.25),
        ]
    }

    #[test]
    fn mass_stays_valid_without_refit() {
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::with_tau(0.02), 1000).unwrap();
        for q in stream() {
            m.observe(q).unwrap();
            // interim estimates remain a distribution: whole space ≈ 1
            let all: Range = Rect::unit(2).into();
            let e = m.estimate(&all);
            assert!((e - 1.0).abs() < 1e-6, "mass drifted to {e}");
        }
    }

    #[test]
    fn refit_matches_batch_partition() {
        // After observing the full stream and refitting, the online model
        // must agree with the batch model (same τ, same queries) — a
        // consequence of Lemma A.4 plus shared weight estimation.
        let cfg = QuadHistConfig::with_tau(0.02);
        let mut online = OnlineQuadHist::new(Rect::unit(2), cfg.clone(), 1).unwrap();
        for q in stream() {
            online.observe(q).unwrap();
        }
        let batch = QuadHist::fit(Rect::unit(2), &stream(), &cfg).unwrap();
        assert_eq!(online.num_buckets(), batch.num_buckets());
        for q in stream() {
            let a = online.estimate(&q.range);
            let b = batch.estimate(&q.range);
            assert!((a - b).abs() < 1e-5, "online {a} vs batch {b}");
        }
    }

    #[test]
    fn accuracy_improves_along_the_stream() {
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::with_tau(0.02), 2).unwrap();
        let qs = stream();
        let probe = &qs[0];
        let mut err_first = None;
        for q in &qs {
            m.observe(q.clone()).unwrap();
            let e = (m.estimate(&probe.range) - 0.6f64).abs();
            err_first.get_or_insert(e);
        }
        m.refit().unwrap();
        let final_err = (m.estimate(&probe.range) - 0.6f64).abs();
        assert!(final_err <= err_first.unwrap() + 1e-9);
        assert!(final_err < 0.05, "final error {final_err}");
        assert_eq!(m.observations(), qs.len());
    }

    #[test]
    fn freeze_answers_like_the_live_model_on_the_batch_partition() {
        let cfg = QuadHistConfig::with_tau(0.05);
        let mut online = OnlineQuadHist::new(Rect::unit(2), cfg.clone(), 3).unwrap();
        for q in stream() {
            online.observe(q).unwrap();
        }
        let frozen = online.freeze().unwrap();
        // Lemma A.4: the partition is the batch fit's
        let batch = QuadHist::fit(Rect::unit(2), &stream(), &cfg).unwrap();
        assert_eq!(frozen.num_buckets(), batch.num_buckets());
        assert!(frozen.solve_report().is_none(), "freeze runs no solve");
        let probes = stream().into_iter().map(|q| q.range).chain([
            Rect::unit(2).into(),
            Rect::new(vec![0.3, 0.1], vec![0.7, 0.8]).into(),
        ]);
        for r in probes {
            assert_eq!(frozen.estimate(&r).to_bits(), online.estimate(&r).to_bits());
        }
    }

    #[test]
    fn empty_online_model_is_uniform() {
        let m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::default(), 10).unwrap();
        let half: Range = Rect::new(vec![0.0, 0.0], vec![0.5, 1.0]).into();
        assert!((m.estimate(&half) - 0.5).abs() < 1e-9);
        assert_eq!(m.num_buckets(), 1);
        assert_eq!(m.name(), "OnlineQuadHist");
    }

    #[test]
    fn history_cap_bounds_retained_window() {
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::with_tau(0.05), 1000)
            .unwrap()
            .with_history_cap(3);
        for _ in 0..4 {
            for q in stream() {
                m.observe(q).unwrap();
            }
        }
        assert_eq!(m.observations(), 24, "lifetime count keeps counting");
        assert_eq!(m.history_len(), 3, "window stays capped");
        m.refit().unwrap();
        // weights refit on the window still form a distribution
        let all: Range = Rect::unit(2).into();
        assert!((m.estimate(&all) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn windowed_refit_matches_window_only_weights() {
        // Same partition + same retained window ⇒ same weights, no matter
        // how much older feedback was evicted along the way.
        let cfg = QuadHistConfig::with_tau(0.02);
        let qs = stream();
        let cap = 3;
        let mut windowed = OnlineQuadHist::new(Rect::unit(2), cfg.clone(), usize::MAX)
            .unwrap()
            .with_history_cap(cap);
        let mut unbounded = OnlineQuadHist::new(Rect::unit(2), cfg, usize::MAX).unwrap();
        for q in &qs {
            windowed.observe(q.clone()).unwrap();
            unbounded.observe(q.clone()).unwrap();
        }
        // rebuild the unbounded model's history down to the same window
        let unbounded = unbounded.with_history_cap(cap);
        let (mut a, mut b) = (windowed, unbounded);
        a.refit().unwrap();
        b.refit().unwrap();
        for q in &qs {
            let (ea, eb) = (a.estimate(&q.range), b.estimate(&q.range));
            assert!((ea - eb).abs() < 1e-12, "windowed {ea} vs trimmed {eb}");
        }
    }

    #[test]
    fn nan_and_negative_feedback_are_rejected_untouched() {
        // Regression: negative selectivities used to slide into the window
        // silently and poison every refit until they aged out.
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::with_tau(0.05), 2).unwrap();
        m.observe(tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.5)).unwrap();
        let before = m.history_len();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.2, -1e-12] {
            let err = m
                .observe(tq(vec![0.1, 0.1], vec![0.6, 0.6], bad))
                .unwrap_err();
            assert!(
                matches!(err, SelearnError::InvalidLabel { .. }),
                "{bad}: {err}"
            );
        }
        assert_eq!(m.history_len(), before, "rejected feedback must not be retained");
        assert_eq!(m.observations(), 1, "rejected feedback must not be counted");
        // -0.0 is a legal (zero) selectivity, not a negative one.
        m.observe(tq(vec![0.2, 0.2], vec![0.3, 0.3], -0.0)).unwrap();
    }

    #[test]
    fn snapshot_restore_round_trips_bitwise() {
        let cfg = QuadHistConfig::with_tau(0.02);
        let mut m = OnlineQuadHist::new(Rect::unit(2), cfg.clone(), 4)
            .unwrap()
            .with_history_cap(5);
        for q in stream() {
            m.observe(q).unwrap();
        }
        let snap = m.snapshot();
        let mut back =
            OnlineQuadHist::restore(Rect::unit(2), cfg, 4, 5, snap).expect("restore");
        assert_eq!(back.observations(), m.observations());
        assert_eq!(back.history_len(), m.history_len());
        assert_eq!(back.num_buckets(), m.num_buckets());
        for q in stream() {
            assert_eq!(
                back.estimate(&q.range).to_bits(),
                m.estimate(&q.range).to_bits(),
                "restored estimates must be bit-identical"
            );
        }
        // Future behavior must also match: feed both the same tail.
        for q in stream() {
            m.observe(q.clone()).unwrap();
            back.observe(q).unwrap();
        }
        for q in stream() {
            assert_eq!(back.estimate(&q.range).to_bits(), m.estimate(&q.range).to_bits());
        }
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let cfg = QuadHistConfig::with_tau(0.05);
        let mut m = OnlineQuadHist::new(Rect::unit(2), cfg.clone(), 4).unwrap();
        for q in stream() {
            m.observe(q).unwrap();
        }
        let good = m.snapshot();

        let mut short = good.clone();
        short.node_weight.pop();
        assert!(matches!(
            OnlineQuadHist::restore(Rect::unit(2), cfg.clone(), 4, 0, short),
            Err(SelearnError::CorruptModel { .. })
        ));

        let mut nan = good.clone();
        nan.node_weight[0] = f64::NAN;
        assert!(matches!(
            OnlineQuadHist::restore(Rect::unit(2), cfg.clone(), 4, 0, nan),
            Err(SelearnError::CorruptModel { .. })
        ));

        let mut bad_hist = good.clone();
        bad_hist.history[0].selectivity = -0.5;
        assert!(matches!(
            OnlineQuadHist::restore(Rect::unit(2), cfg.clone(), 4, 0, bad_hist),
            Err(SelearnError::CorruptModel { .. })
        ));

        let mut overdue = good.clone();
        overdue.observed_since_refit = 4;
        assert!(matches!(
            OnlineQuadHist::restore(Rect::unit(2), cfg.clone(), 4, 0, overdue),
            Err(SelearnError::CorruptModel { .. })
        ));

        // Window larger than the declared cap.
        assert!(matches!(
            OnlineQuadHist::restore(Rect::unit(2), cfg, 4, 1, good),
            Err(SelearnError::CorruptModel { .. })
        ));
    }

    #[test]
    fn degenerate_feedback_is_tolerated() {
        let mut m = OnlineQuadHist::new(Rect::unit(2), QuadHistConfig::default(), 2).unwrap();
        m.observe(tq(vec![0.3, 0.0], vec![0.3, 1.0], 0.2)).unwrap(); // zero volume
        m.observe(tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.5)).unwrap();
        let all: Range = Rect::unit(2).into();
        assert!((m.estimate(&all) - 1.0).abs() < 1e-6);
    }
}
