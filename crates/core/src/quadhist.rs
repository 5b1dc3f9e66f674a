//! QuadHist — the quadtree-partitioned histogram of Section 3.2.
//!
//! Bucket design follows Algorithms 1–2 (Appendix A.1): starting from a
//! single bucket spanning the data space, each training query `(R, s)`
//! recursively splits every node `u` whose estimated density contribution
//! `vol(u ∩ R)/vol(R) · s` exceeds a threshold `τ` — so the partition ends
//! up finer exactly where queries and data are denser. The resulting
//! partition is **order-independent** (Lemma A.4) and the node-visit cost
//! per query is `O(s(R)/τ · log(s(R)/(τ·vol(R))))` (Lemma A.2).
//!
//! Weights then come from the shared estimation phase (Equation 8), and
//! prediction applies Equation (6) through the model's frozen layout
//! ([`crate::frozen`]), built once when the model is fitted or restored.

use crate::assemble::assemble_design_matrix;
use crate::error::SelearnError;
use crate::estimator::{SelectivityEstimator, TrainingQuery};
use crate::frozen::{FrozenEstimator, FrozenQuad};
use crate::quadtree::{NodeId, QuadTree, ROOT};
use crate::weights::{estimate_weights, Objective, WeightSolver};
use selearn_geom::{Range, RangeQuery, Rect, VolumeEstimator, EPS};
use selearn_solver::SolveReport;
use std::collections::HashMap;

/// QuadHist configuration.
#[derive(Clone, Debug)]
pub struct QuadHistConfig {
    /// Split threshold `τ ∈ (0, 1)`: smaller values produce finer
    /// partitions (more buckets). Figure 9 sweeps this knob.
    pub tau: f64,
    /// Hard cap on the number of leaves (`0` = unlimited). The paper:
    /// "we can control the model size k by varying τ or adding a hard
    /// termination condition on the number of leaves".
    pub max_leaves: usize,
    /// Training objective (Section 4.6).
    pub objective: Objective,
    /// Weight solver.
    pub solver: WeightSolver,
    /// Volume backend for non-rectangular queries.
    pub volume: VolumeEstimator,
}

impl Default for QuadHistConfig {
    fn default() -> Self {
        Self {
            tau: 0.01,
            max_leaves: 0,
            objective: Objective::L2,
            solver: WeightSolver::Fista,
            volume: VolumeEstimator::default(),
        }
    }
}

impl QuadHistConfig {
    /// Config with a given `τ`.
    pub fn with_tau(tau: f64) -> Self {
        Self {
            tau,
            ..Default::default()
        }
    }

    /// Sets the leaf cap.
    pub fn max_leaves(mut self, cap: usize) -> Self {
        self.max_leaves = cap;
        self
    }

    /// Sets the objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the weight solver.
    pub fn solver(mut self, solver: WeightSolver) -> Self {
        self.solver = solver;
        self
    }
}

/// A trained QuadHist model: a quadtree partition plus a weight per leaf,
/// and the frozen layout every estimate goes through.
#[derive(Clone, Debug)]
pub struct QuadHist {
    tree: QuadTree,
    /// Weight per node id; nonzero only at leaves.
    node_weight: Vec<f64>,
    /// Always [`FrozenEstimator::Quad`]; carries the volume backend and
    /// the solve report (None for loaded models).
    frozen: FrozenEstimator,
}

impl QuadHist {
    pub(crate) fn new(
        tree: QuadTree,
        node_weight: Vec<f64>,
        volume: VolumeEstimator,
        solve_report: Option<SolveReport>,
    ) -> Self {
        let frozen =
            FrozenEstimator::Quad(FrozenQuad::build(&tree, &node_weight, volume, solve_report));
        Self {
            tree,
            node_weight,
            frozen,
        }
    }

    /// Trains a QuadHist over the data space `root` from a workload.
    ///
    /// Training queries whose clipped volume is (numerically) zero cannot
    /// drive volume-based refinement and are skipped during bucket design,
    /// but still participate in weight estimation.
    ///
    /// Returns a typed [`SelearnError`] on a `τ` outside `(0, 1)` or a
    /// non-finite training label; an empty workload is fine (uniform model).
    pub fn fit(
        root: Rect,
        queries: &[TrainingQuery],
        config: &QuadHistConfig,
    ) -> Result<Self, SelearnError> {
        let _span = selearn_obs::span!("fit.quadhist");
        let tree = Self::design_buckets(&root, queries, config)?;
        Self::fit_weights(tree, queries, config)
    }

    /// Trains a QuadHist whose bucket count approaches (but never exceeds)
    /// `target` by bisecting `τ` — the paper's experiments peg the model
    /// size to `4×` the training-query count this way (Section 4.1).
    pub fn fit_with_bucket_target(
        root: Rect,
        queries: &[TrainingQuery],
        target: usize,
        config: &QuadHistConfig,
    ) -> Result<Self, SelearnError> {
        if target == 0 {
            return Err(SelearnError::InvalidConfig {
                model: "quadhist",
                what: "bucket target must be >= 1",
            });
        }
        // Validate once up front so the probe closure cannot fail.
        Self::validate(queries, config)?;
        let _span = selearn_obs::span!("fit.quadhist.calibrate");
        // Bisect log τ: leaf count is monotone nonincreasing in τ. Leaf
        // counts move in jumps (each split adds 2^d − 1 leaves at once), so
        // an exact hit may not exist; we land on the finest τ *above* the
        // target and let the hard cap trim the partition to ≤ target.
        let mut lo = 1e-7f64.ln(); // finest (most leaves)
        let mut hi = 0.5f64.ln(); // coarsest (fewest leaves)
        // "saturated" = the cap is what stopped refinement, so the count
        // sits within one split of the target.
        let saturated = target.saturating_sub((1usize << root.dim()) - 1).max(1);
        // A probe only asks whether τ saturates, and leaf counts only grow
        // as queries are inserted, so it stops at the first query that
        // brings the count to `saturated`: the answer, and so every
        // bisection step and the chosen τ, is the full build's.
        let saturates = |tau: f64| {
            let mut cand = config.clone();
            cand.tau = tau;
            cand.max_leaves = target;
            Self::design_buckets_unchecked(&root, queries, &cand, saturated).num_leaves() >= saturated
        };
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if saturates(mid.exp()) {
                lo = mid; // still saturated → τ can be coarser
            } else {
                hi = mid; // under target → τ must get finer
            }
        }
        let mut best = config.clone();
        // lo is the finest-known saturating τ (or the fine end if the
        // workload cannot drive `target` leaves at any τ).
        best.tau = lo.exp().min(0.5);
        best.max_leaves = target;
        Self::fit(root, queries, &best)
    }

    /// Rejects the config/workload combinations `fit` cannot handle:
    /// `τ ∉ (0, 1)` (NaN included) and non-finite labels.
    fn validate(queries: &[TrainingQuery], config: &QuadHistConfig) -> Result<(), SelearnError> {
        if !(config.tau > 0.0 && config.tau < 1.0) {
            return Err(SelearnError::InvalidConfig {
                model: "quadhist",
                what: "tau must be in (0, 1)",
            });
        }
        crate::error::check_labels(queries)
    }

    /// Phase 1 only: the bucket-design pass (Algorithm 1), exposed for
    /// calibration and benchmarking.
    pub fn design_buckets(
        root: &Rect,
        queries: &[TrainingQuery],
        config: &QuadHistConfig,
    ) -> Result<QuadTree, SelearnError> {
        Self::validate(queries, config)?;
        Ok(Self::design_buckets_unchecked(root, queries, config, usize::MAX))
    }

    /// [`QuadHist::design_buckets`] after validation has already run,
    /// stopped before the next query once the partition has `stop_at`
    /// leaves (`usize::MAX` = the full pass).
    fn design_buckets_unchecked(
        root: &Rect,
        queries: &[TrainingQuery],
        config: &QuadHistConfig,
        stop_at: usize,
    ) -> QuadTree {
        let _span = selearn_obs::span!("design_buckets");
        let mut tree = QuadTree::new(root.clone());
        for q in queries {
            if tree.num_leaves() >= stop_at {
                break;
            }
            let vol_r = q.range.volume_in(root, &config.volume);
            if vol_r <= EPS {
                continue;
            }
            update_quad(
                &mut tree,
                ROOT,
                &q.range,
                q.selectivity,
                vol_r,
                config,
            );
        }
        tree
    }

    /// Phase 2 only: weight estimation over an existing partition.
    fn fit_weights(
        tree: QuadTree,
        queries: &[TrainingQuery],
        config: &QuadHistConfig,
    ) -> Result<Self, SelearnError> {
        let (node_weight, solve_report) =
            solve_leaf_weights(&tree, |leaf| tree.rect(leaf).volume(), queries, config)?;
        Ok(Self::new(tree, node_weight, config.volume.clone(), solve_report))
    }

    /// The data-space box the model was trained over.
    pub fn root(&self) -> &Rect {
        self.frozen.root()
    }

    /// Reconstructs a model from its bucket dump (`(leaf box, weight)`
    /// pairs as produced by [`QuadHist::buckets`]) — the inverse used when
    /// loading persisted models.
    ///
    /// Every cell of a quadtree partition is identified by its depth plus
    /// its integer lattice position within the root, so the restore is
    /// one keyed pass: each bucket is keyed once, then the tree is grown
    /// top-down from the root, every node carrying the key its parent's
    /// key and split mask give it. A node keyed by a bucket becomes that
    /// bucket's leaf once its split-derived box matches the bucket's
    /// corners; any other node is split. Children are pushed in mask
    /// order and popped last-in-first-out, which fixes the arena order,
    /// and so the order of [`QuadHist::buckets`] and of the file
    /// [`crate::persist::save_quadhist`] writes. Matching tolerates
    /// coordinate error up to a small fraction of the cell width plus an
    /// absolute term scaled by the root's coordinate magnitude, so dumps
    /// written with decimal-rounded coordinates load on any domain scale
    /// (a `[0, 1e9]` CSV domain as well as sub-1e-9 cells of the unit
    /// cube).
    ///
    /// Returns [`SelearnError::CorruptModel`] if the boxes do not form a
    /// quadtree partition of `root` (an off-lattice or duplicate box, a
    /// hole, a box at an internal position, a `2^d` fanout that overflows
    /// or exceeds the bucket count) or carry non-finite weights.
    pub fn from_buckets(
        root: Rect,
        buckets: &[(Rect, f64)],
        volume: VolumeEstimator,
    ) -> Result<Self, SelearnError> {
        let _span = selearn_obs::span!("restore.quadhist");
        if let Some((i, (_, w))) = buckets
            .iter()
            .enumerate()
            .find(|(_, (_, w))| !w.is_finite())
        {
            return Err(SelearnError::CorruptModel {
                what: format!("bucket {i} has non-finite weight {w}"),
            });
        }
        if let Some((i, (r, _))) = buckets
            .iter()
            .enumerate()
            .find(|(_, (r, _))| r.dim() != root.dim())
        {
            return Err(SelearnError::CorruptModel {
                what: format!(
                    "bucket {i} has dimension {}, root has {}",
                    r.dim(),
                    root.dim()
                ),
            });
        }
        let d = root.dim();
        let fanout = u32::try_from(d)
            .ok()
            .and_then(|d| 1usize.checked_shl(d))
            .ok_or_else(|| SelearnError::CorruptModel {
                what: format!("dimension {d} overflows the 2^d fanout"),
            })?;
        let mut index: HashMap<CellKey, usize> = HashMap::with_capacity(buckets.len());
        let mut max_depth = 0u32;
        for (i, (r, _)) in buckets.iter().enumerate() {
            let Some(key) = cell_key(&root, r) else {
                return Err(SelearnError::CorruptModel {
                    what: format!("bucket {i} ({r:?}) is not a quadtree cell of the root"),
                });
            };
            max_depth = max_depth.max(key.0);
            if index.insert(key, i).is_some() {
                return Err(SelearnError::CorruptModel {
                    what: format!("bucket {i} ({r:?}) duplicates another bucket's cell"),
                });
            }
        }
        let mut tree = QuadTree::new(root);
        let mut node_weight = vec![0.0];
        let mut matched = 0usize;
        let mut stack: Vec<(NodeId, CellKey)> = vec![(ROOT, (0, vec![0; d]))];
        while let Some((id, key)) = stack.pop() {
            if let Some(&i) = index.get(&key) {
                let (cell, w) = &buckets[i];
                if !cells_match(tree.rect(ROOT), cell, tree.rect(id)) {
                    return Err(SelearnError::CorruptModel {
                        what: format!("bucket {i} ({cell:?}) is off its cell {:?}", tree.rect(id)),
                    });
                }
                node_weight[id] = *w;
                matched += 1;
                continue;
            }
            if key.0 >= max_depth {
                return Err(SelearnError::CorruptModel {
                    what: format!("no bucket covers the cell {:?}", tree.rect(id)),
                });
            }
            // Leaves only grow, and each ends up one distinct bucket, so a
            // split past the bucket count cannot lead to a partition. This
            // bounds the tree at O(buckets) nodes, and a lone bucket, or a
            // `2^d` above the bucket count, never splits the root.
            if tree.num_leaves() + fanout - 1 > buckets.len() {
                return Err(SelearnError::CorruptModel {
                    what: format!(
                        "{} buckets cannot partition a root of fanout 2^{d}",
                        buckets.len()
                    ),
                });
            }
            let first = tree.split(id);
            node_weight.resize(tree.num_nodes(), 0.0);
            let (depth, lattice) = key;
            for mask in 0..fanout {
                let child = lattice
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| 2 * i + (mask as u64 >> k & 1))
                    .collect();
                stack.push((first + mask, (depth + 1, child)));
            }
        }
        if matched != buckets.len() {
            return Err(SelearnError::CorruptModel {
                what: format!(
                    "{} of {} buckets are not leaves of the partition",
                    buckets.len() - matched,
                    buckets.len()
                ),
            });
        }
        // Free the index before the frozen layout is built, so restore
        // peaks at the larger of the two phases, not their sum.
        drop(index);
        Ok(Self::new(tree, node_weight, volume, None))
    }

    /// The model's pointer-free [`FrozenEstimator`]: the quadtree arena
    /// flattened into implicit-index SoA lanes with contiguous per-subtree
    /// leaf ranges (see [`crate::frozen`]). It is the layout this model's
    /// own estimates go through, so both answer identically.
    pub fn freeze(&self) -> FrozenEstimator {
        self.frozen.clone()
    }

    /// [`QuadHist::freeze`] without the copy, for callers done with the
    /// model.
    pub(crate) fn into_frozen(self) -> FrozenEstimator {
        self.frozen
    }

    /// `(bucket, weight)` pairs, for introspection (Figure 7 renders these).
    pub fn buckets(&self) -> Vec<(Rect, f64)> {
        self.tree
            .leaves()
            .into_iter()
            .map(|l| (self.tree.rect(l).clone(), self.node_weight[l]))
            .collect()
    }
}

/// Equation 8 over the leaves of a quadtree partition: solves one weight
/// per leaf against `queries` and returns them per node id (zero at
/// internal nodes), with the solver's report. Row `q` holds, per leaf in
/// arena order, the covered fraction `vol(q ∩ leaf) / vol(leaf)` clamped
/// to `[0, 1]`, or 0 for a leaf of volume `≤ EPS`. `leaf_volume` is read
/// once per leaf, not once per row.
pub(crate) fn solve_leaf_weights(
    tree: &QuadTree,
    leaf_volume: impl Fn(NodeId) -> f64,
    queries: &[TrainingQuery],
    config: &QuadHistConfig,
) -> Result<(Vec<f64>, Option<SolveReport>), SelearnError> {
    let leaves = tree.leaves();
    let cells: Vec<(&Rect, f64)> = leaves
        .iter()
        .map(|&leaf| (tree.rect(leaf), leaf_volume(leaf)))
        .collect();
    let a = assemble_design_matrix(queries, cells.len(), |q| {
        cells
            .iter()
            .map(|&(cell, cv)| {
                if cv <= EPS {
                    0.0
                } else {
                    (q.range.intersection_volume(cell, &config.volume) / cv).clamp(0.0, 1.0)
                }
            })
            .collect()
    });
    let s: Vec<f64> = queries.iter().map(|q| q.selectivity).collect();
    let (w, solve_report) =
        estimate_weights(&a, &s, &config.objective, &config.solver)?;
    let mut node_weight = vec![0.0; tree.num_nodes()];
    for (&leaf, w) in leaves.iter().zip(w) {
        node_weight[leaf] = w;
    }
    Ok((node_weight, solve_report))
}

/// Identity of one quadtree cell: refinement depth plus the integer
/// lattice position of its lower corner at that depth. Splits halve every
/// dimension at once, so a cell at depth `k` has lower corner
/// `root.lo[d] + i_d · root.width(d) / 2^k` with `i_d ∈ [0, 2^k)` — the
/// pair `(k, i)` is a collision-free key for restore-time indexing.
type CellKey = (u32, Vec<u64>);

/// Deepest cell the restore index will key: beyond this the lattice
/// arithmetic loses integer precision, and `update_quad`'s volume guard
/// stops refinement far earlier anyway.
const MAX_RESTORE_DEPTH: u32 = 60;

/// Computes the [`CellKey`] of `cell` within `root`, or `None` when `cell`
/// cannot be a quadtree cell of `root` (wrong dimension, width ratio not a
/// power of two, or lower corner outside the root).
fn cell_key(root: &Rect, cell: &Rect) -> Option<CellKey> {
    if cell.dim() != root.dim() {
        return None;
    }
    // Depth from the width ratio in the first non-degenerate dimension;
    // degenerate (zero-width) dimensions stay zero-width at every depth.
    let d_ref = (0..root.dim()).find(|&d| root.width(d) > 0.0)?;
    let ratio = root.width(d_ref) / cell.width(d_ref);
    if !ratio.is_finite() || ratio < 1.0 - 1e-6 {
        return None;
    }
    let k = ratio.log2().round();
    if !(0.0..=MAX_RESTORE_DEPTH as f64).contains(&k) {
        return None;
    }
    let k = k as u32;
    let cells = (1u64 << k) as f64;
    let mut key = Vec::with_capacity(root.dim());
    for d in 0..root.dim() {
        let w = root.width(d);
        if w <= 0.0 {
            key.push(0);
            continue;
        }
        let i = ((cell.lo()[d] - root.lo()[d]) / w * cells).round();
        if !(0.0..cells).contains(&i) {
            return None;
        }
        key.push(i as u64);
    }
    Some((k, key))
}

/// Verifies that two boxes sharing a [`CellKey`] really are the same cell,
/// with a relative-or-absolute tolerance: a small fraction of the cell
/// width (relative part, so deep sub-1e-9 cells of the unit cube are never
/// cross-matched) plus a term scaled by the root's coordinate magnitude
/// (absolute part, so decimal-rounded dumps of unnormalized domains like
/// `[0, 1e9]` are not spuriously rejected).
fn cells_match(root: &Rect, a: &Rect, b: &Rect) -> bool {
    (0..root.dim()).all(|d| {
        let scale = root.lo()[d].abs().max(root.hi()[d].abs());
        let tol = 1e-6 * b.width(d) + 1e-12 * scale;
        (a.lo()[d] - b.lo()[d]).abs() <= tol && (a.hi()[d] - b.hi()[d]).abs() <= tol
    })
}

/// Algorithm 2 (UpdateQuad): recursively refine under a training query.
pub(crate) fn update_quad(
    tree: &mut QuadTree,
    node: NodeId,
    range: &Range,
    selectivity: f64,
    vol_r: f64,
    config: &QuadHistConfig,
) {
    let p = range.intersection_volume(tree.rect(node), &config.volume) / vol_r * selectivity;
    if p <= config.tau {
        return;
    }
    let fanout = 1usize << tree.dim();
    if tree.is_leaf(node) {
        let within_cap = config.max_leaves == 0
            || tree.num_leaves() + fanout - 1 <= config.max_leaves;
        if !within_cap {
            return;
        }
        // guard against unbounded recursion on pathologically tiny cells
        if tree.rect(node).volume() <= 1e-15 {
            return;
        }
        tree.split(node);
        selearn_obs::counter_add("quadtree_splits", 1);
    }
    let Some(first) = tree.first_child(node) else {
        return;
    };
    for c in first..first + fanout {
        update_quad(tree, c, range, selectivity, vol_r, config);
    }
}

impl SelectivityEstimator for QuadHist {
    fn estimate(&self, range: &Range) -> f64 {
        self.frozen.estimate(range)
    }

    fn num_buckets(&self) -> usize {
        self.frozen.num_buckets()
    }

    fn name(&self) -> &'static str {
        "QuadHist"
    }

    fn solve_report(&self) -> Option<SolveReport> {
        self.frozen.solve_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_geom::{Ball, Halfspace, Point};

    fn tq(lo: Vec<f64>, hi: Vec<f64>, s: f64) -> TrainingQuery {
        TrainingQuery::new(Rect::new(lo, hi), s)
    }

    #[test]
    fn no_queries_uniform_model() {
        let qh = QuadHist::fit(Rect::unit(2), &[], &QuadHistConfig::default()).unwrap();
        assert_eq!(qh.num_buckets(), 1);
        let r: Range = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]).into();
        // single uniform bucket: estimate = covered fraction = 0.25
        assert!((qh.estimate(&r) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn splits_dense_regions() {
        // A small, dense query forces refinement near it.
        let queries = vec![tq(vec![0.0, 0.0], vec![0.25, 0.25], 0.9)];
        let qh = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.05),
        ).unwrap();
        assert!(qh.num_buckets() > 1, "expected refinement");
        // the learned model reproduces the training selectivity well
        let est = qh.estimate(&queries[0].range);
        assert!((est - 0.9).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn order_independence_lemma_a4() {
        // Lemma A.4: the partition is invariant under query reordering.
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.6),
            tq(vec![0.25, 0.25], vec![0.9, 0.9], 0.3),
            tq(vec![0.6, 0.1], vec![0.95, 0.45], 0.25),
            tq(vec![0.1, 0.55], vec![0.4, 0.95], 0.15),
        ];
        let cfg = QuadHistConfig::with_tau(0.02);
        let a = QuadHist::fit(Rect::unit(2), &queries, &cfg).unwrap();
        let mut rev = queries.clone();
        rev.reverse();
        let b = QuadHist::fit(Rect::unit(2), &rev, &cfg).unwrap();
        let mut ra: Vec<String> = a
            .buckets()
            .iter()
            .map(|(r, _)| format!("{:?}", r))
            .collect();
        let mut rb: Vec<String> = b
            .buckets()
            .iter()
            .map(|(r, _)| format!("{:?}", r))
            .collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb, "partition depends on insertion order");
    }

    #[test]
    fn smaller_tau_more_buckets() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.7),
            tq(vec![0.4, 0.4], vec![0.9, 0.9], 0.3),
        ];
        let coarse = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.2),
        ).unwrap();
        let fine = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.01),
        ).unwrap();
        assert!(fine.num_buckets() > coarse.num_buckets());
    }

    #[test]
    fn leaf_cap_respected() {
        let queries = vec![tq(vec![0.0, 0.0], vec![0.1, 0.1], 0.99)];
        let cfg = QuadHistConfig::with_tau(0.001).max_leaves(16);
        let qh = QuadHist::fit(Rect::unit(2), &queries, &cfg).unwrap();
        assert!(qh.num_buckets() <= 16, "{} leaves", qh.num_buckets());
    }

    #[test]
    fn weights_form_distribution() {
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.8),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.1),
        ];
        let qh = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.05),
        ).unwrap();
        let total: f64 = qh.buckets().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-6, "total mass {total}");
        assert!(qh.buckets().iter().all(|(_, w)| *w >= -1e-9));
    }

    #[test]
    fn disjoint_queries_fit_exactly() {
        // Two disjoint quadrant queries with complementary mass.
        let queries = vec![
            tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.75),
            tq(vec![0.5, 0.5], vec![1.0, 1.0], 0.25),
        ];
        let qh = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.05),
        ).unwrap();
        assert!((qh.estimate(&queries[0].range) - 0.75).abs() < 1e-3);
        assert!((qh.estimate(&queries[1].range) - 0.25).abs() < 1e-3);
    }

    #[test]
    fn estimate_clamped_to_unit_interval() {
        let queries = vec![tq(vec![0.0, 0.0], vec![1.0, 1.0], 1.0)];
        let qh = QuadHist::fit(Rect::unit(2), &queries, &QuadHistConfig::default()).unwrap();
        let r: Range = Rect::unit(2).into();
        let est = qh.estimate(&r);
        assert!((0.0..=1.0).contains(&est));
        assert!((est - 1.0).abs() < 1e-6);
    }

    #[test]
    fn query_outside_root_estimates_zero() {
        let queries = vec![tq(vec![0.0, 0.0], vec![0.5, 0.5], 0.5)];
        let qh = QuadHist::fit(Rect::unit(2), &queries, &QuadHistConfig::default()).unwrap();
        let outside: Range = Ball::new(Point::new(vec![5.0, 5.0]), 0.1).into();
        assert_eq!(qh.estimate(&outside), 0.0);
    }

    #[test]
    fn works_with_halfspace_queries() {
        let h = Halfspace::new(vec![1.0, 1.0], 1.0);
        let queries = vec![TrainingQuery::new(h.clone(), 0.5)];
        let qh = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.05),
        ).unwrap();
        let est = qh.estimate(&Range::Halfspace(h));
        assert!((est - 0.5).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn works_with_ball_queries() {
        let b = Ball::new(Point::splat(2, 0.5), 0.3);
        let queries = vec![TrainingQuery::new(b.clone(), 0.4)];
        let qh = QuadHist::fit(
            Rect::unit(2),
            &queries,
            &QuadHistConfig::with_tau(0.05),
        ).unwrap();
        let est = qh.estimate(&Range::Ball(b));
        assert!((est - 0.4).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn degenerate_volume_query_skipped_in_design() {
        // zero-volume query can't drive refinement but must not crash
        let queries = vec![TrainingQuery::new(
            Rect::new(vec![0.3, 0.0], vec![0.3, 1.0]),
            0.2,
        )];
        let qh = QuadHist::fit(Rect::unit(2), &queries, &QuadHistConfig::default()).unwrap();
        assert_eq!(qh.num_buckets(), 1);
    }

    #[test]
    fn bucket_target_calibration() {
        let queries: Vec<TrainingQuery> = (0..12)
            .map(|i| {
                let t = i as f64 / 16.0;
                tq(vec![t, t], vec![(t + 0.3).min(1.0), (t + 0.3).min(1.0)], 0.2)
            })
            .collect();
        for target in [8usize, 32, 64] {
            let qh = QuadHist::fit_with_bucket_target(
                Rect::unit(2),
                &queries,
                target,
                &QuadHistConfig::default(),
            ).unwrap();
            assert!(
                qh.num_buckets() <= target,
                "target {target}, got {}",
                qh.num_buckets()
            );
            // we should also get reasonably close to the target from below
            assert!(
                qh.num_buckets() * 6 >= target,
                "target {target}, got only {}",
                qh.num_buckets()
            );
        }
    }

    /// Builds a pure partition of `root` with `target` leaves (uniform
    /// weights) by breadth-first splitting — no training involved, so
    /// tests can produce large bucket dumps instantly.
    fn synthetic_buckets(root: &Rect, target: usize) -> Vec<(Rect, f64)> {
        let mut tree = crate::quadtree::QuadTree::new(root.clone());
        let mut frontier = std::collections::VecDeque::from([ROOT]);
        while tree.num_leaves() < target {
            let Some(id) = frontier.pop_front() else { break };
            let first = tree.split(id);
            for k in 0..(1usize << tree.dim()) {
                frontier.push_back(first + k);
            }
        }
        let n = tree.num_leaves() as f64;
        tree.leaves()
            .into_iter()
            .map(|l| (tree.rect(l).clone(), 1.0 / n))
            .collect()
    }

    #[test]
    fn restore_accepts_decimal_rounded_dump_on_large_domain() {
        // Regression: the old absolute 1e-9 match rejected valid dumps on
        // unnormalized (CSV-scale) domains, where writing coordinates in
        // decimal loses far more than 1e-9 of absolute precision.
        let root = Rect::new(vec![0.0, 0.0], vec![1e9, 1e9]);
        let buckets = synthetic_buckets(&root, 64);
        // perturb inward by 1e-5 — what a %.12g dump of 1e9-scale
        // coordinates can lose, and 10^4 times the old tolerance
        let perturbed: Vec<(Rect, f64)> = buckets
            .iter()
            .map(|(r, w)| {
                let lo: Vec<f64> = r.lo().iter().map(|&c| c + 1e-5).collect();
                let hi: Vec<f64> = r.hi().iter().map(|&c| c - 1e-5).collect();
                (Rect::new(lo, hi), *w)
            })
            .collect();
        let restored =
            QuadHist::from_buckets(root, &perturbed, VolumeEstimator::default()).unwrap();
        assert_eq!(restored.num_buckets(), buckets.len());
    }

    #[test]
    fn restore_rejects_off_lattice_buckets() {
        // A box shifted by half a cell is NOT the same cell — the relative
        // tolerance must not degenerate into "accept anything".
        let root = Rect::unit(2);
        let mut buckets = synthetic_buckets(&root, 16);
        let shift = buckets[0].0.width(0) * 0.5;
        let (r, w) = buckets[0].clone();
        let lo: Vec<f64> = r.lo().iter().map(|&c| c + shift).collect();
        let hi: Vec<f64> = r.hi().iter().map(|&c| c + shift).collect();
        buckets[0] = (Rect::new(lo, hi), w);
        let err = QuadHist::from_buckets(root, &buckets, VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_duplicate_cells() {
        let root = Rect::unit(2);
        let mut buckets = synthetic_buckets(&root, 16);
        buckets[1] = buckets[0].clone();
        let err = QuadHist::from_buckets(root, &buckets, VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_a_hole() {
        let root = Rect::unit(2);
        let mut buckets = synthetic_buckets(&root, 16);
        buckets.remove(5);
        let err = QuadHist::from_buckets(root, &buckets, VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_a_parent_beside_its_children() {
        let root = Rect::unit(2);
        let mut buckets = synthetic_buckets(&root, 16);
        // every leaf is a depth-2 cell; list their depth-1 parent too
        buckets.push((Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]), 0.0));
        let err = QuadHist::from_buckets(root, &buckets, VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_a_cell_off_by_a_fraction_of_its_width() {
        // 0.3 of a cell width still rounds to the right lattice key, so
        // only the corner check can catch it.
        let root = Rect::unit(2);
        let mut buckets = synthetic_buckets(&root, 16);
        let (r, w) = buckets[3].clone();
        let shift = 0.3 * r.width(0);
        let lo: Vec<f64> = r.lo().iter().map(|&c| c + shift).collect();
        let hi: Vec<f64> = r.hi().iter().map(|&c| c + shift).collect();
        buckets[3] = (Rect::new(lo, hi), w);
        let err = QuadHist::from_buckets(root, &buckets, VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_an_empty_bucket_list() {
        let err = QuadHist::from_buckets(Rect::unit(2), &[], VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_a_single_deep_bucket_without_splitting() {
        // One depth-3 cell of a 20-dimensional root: growing the tree
        // towards it would allocate 2^20 children per level.
        let cell = Rect::new(vec![0.0; 20], vec![0.125; 20]);
        let err =
            QuadHist::from_buckets(Rect::unit(20), &[(cell, 1.0)], VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_dimension_mismatch() {
        let err = QuadHist::from_buckets(
            Rect::unit(2),
            &[(Rect::unit(3), 1.0)],
            VolumeEstimator::default(),
        );
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_rejects_fanout_it_cannot_represent() {
        // 2^64 children overflow usize even for a single-leaf partition.
        let root = Rect::unit(64);
        let err = QuadHist::from_buckets(root.clone(), &[(root, 1.0)], VolumeEstimator::default());
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
        // Two depth-1 cells cannot partition a root whose split makes 2^62.
        let cell = |lo: f64, hi: f64| (Rect::new(vec![lo; 62], vec![hi; 62]), 0.5);
        let err = QuadHist::from_buckets(
            Rect::unit(62),
            &[cell(0.0, 0.5), cell(0.5, 1.0)],
            VolumeEstimator::default(),
        );
        assert!(matches!(err, Err(SelearnError::CorruptModel { .. })));
    }

    #[test]
    fn restore_round_trips_deep_unit_domain_partition() {
        // sub-cell tolerance must stay relative: a fine partition of the
        // unit cube restores exactly, cell-for-cell.
        let root = Rect::unit(2);
        let buckets = synthetic_buckets(&root, 1000);
        let restored =
            QuadHist::from_buckets(root, &buckets, VolumeEstimator::default()).unwrap();
        let mut got: Vec<String> = restored
            .buckets()
            .iter()
            .map(|(r, w)| format!("{r:?}|{w}"))
            .collect();
        let mut want: Vec<String> = buckets
            .iter()
            .map(|(r, w)| format!("{r:?}|{w}"))
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn figure6_style_refinement_depth() {
        // A query with selectivity 0.2 and τ = 0.026 splits until the
        // per-cell density estimate drops below τ (compare Figure 6).
        let q = tq(vec![0.1, 0.1], vec![0.6, 0.35], 0.2);
        let vol_r = 0.5 * 0.25;
        let qh = QuadHist::fit(
            Rect::unit(2),
            std::slice::from_ref(&q),
            &QuadHistConfig::with_tau(0.026),
        ).unwrap();
        // every leaf must satisfy the stopping rule of Algorithm 2
        for (cell, _) in qh.buckets() {
            let p = q.range.intersection_volume(&cell, &VolumeEstimator::default()) / vol_r * 0.2;
            assert!(p <= 0.026 + 1e-9, "leaf violates stopping rule: p = {p}");
        }
    }
}
