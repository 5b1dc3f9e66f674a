//! Frozen (pointer-free) inference artifacts: the only code in the crate
//! that evaluates the paper's prediction rules, Equation (6) for
//! [`crate::QuadHist`] and Equation (7) for [`crate::PtsHist`].
//!
//! Training produces pointer-rich structures — `QuadTree` arenas with
//! `Option<usize>` child links, k-d trees of boxed `Rect`s — that are
//! convenient to grow but hostile to the inference hot path. Each model
//! compiles its structure once, when it is fitted or restored, into a
//! structure-of-arrays layout the traversal reads front-to-back, and
//! answers every estimate through it:
//!
//! ```text
//!   nodes (implicit tree, arena order)      leaves (DFS preorder)
//!   ┌──────────┬──────────┬─────────────┐   ┌─────────┬─────────┬───┬────┐
//!   │ node_lo  │ node_hi  │ first_child │   │ leaf_lo │ leaf_hi │ w │ cv │
//!   │ n·d lane │ n·d lane │ u32 (0=leaf)│   │ k·d lane│ k·d lane│ k │ k  │
//!   └──────────┴──────────┴─────────────┘   └─────────┴─────────┴───┴────┘
//!              child(id, j) = first_child[id] + j
//!   leaf_begin[id] .. leaf_end[id]  = the node's subtree leaves, contiguous
//! ```
//!
//! The rectangle kernel never materializes an intersection box: the
//! per-dimension overlap `max(0, min(q_hi, hi) − max(q_lo, lo))` is
//! multiplied straight into the running volume, a branch-free form the
//! auto-vectorizer handles. A node fully contained in the query switches
//! to a tight sequential sweep over its contiguous leaf range. Excluded
//! leaves (non-positive weight or degenerate cell) are encoded as
//! `w = 0, cv = 1` so they contribute an exact `+0.0` instead of
//! branching.
//!
//! `tests/golden_weights.rs` pins the bits of these kernels' estimates;
//! `tests/frozen_equivalence.rs` checks their values against unpruned
//! brute-force sums over every bucket or support point.

use crate::quadtree::{QuadTree, ROOT};
use selearn_geom::{KdTree, Point, Range, RangeQuery, Rect, VolumeEstimator, EPS};
use selearn_solver::SolveReport;

use crate::estimator::SelectivityEstimator;

/// Sentinel child id meaning "absent" in flattened k-d layouts.
const NONE: u32 = u32::MAX;

/// Depth-first traversal stack with inline storage. Tree depth is bounded
/// (quadtree cells stop splitting near volume `1e-15`; restore caps depth
/// at 60), so the inline segment covers real models and the heap spill
/// only exists to keep adversarial inputs panic-free.
struct TraversalStack {
    inline: [u32; 128],
    len: usize,
    spill: Vec<u32>,
}

#[cfg(test)]
thread_local! {
    /// Nodes pushed onto any traversal stack on this thread — every pushed
    /// node is popped and visited once, so tests read this to check pruning.
    static VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl TraversalStack {
    fn new() -> Self {
        Self {
            inline: [0; 128],
            len: 0,
            spill: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, v: u32) {
        #[cfg(test)]
        VISITS.with(|n| n.set(n.get() + 1));
        if self.len < self.inline.len() {
            self.inline[self.len] = v;
            self.len += 1;
        } else {
            self.spill.push(v);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        // The spill holds the most recently pushed entries, so draining it
        // first preserves LIFO order.
        if let Some(v) = self.spill.pop() {
            return Some(v);
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.inline[self.len])
    }
}

/// `true` when boxes `[a_lo, a_hi]` and `[b_lo, b_hi]` share no point —
/// the same predicate as [`Rect::intersects`], without building the
/// intersection box.
#[inline]
fn boxes_disjoint(a_lo: &[f64], a_hi: &[f64], b_lo: &[f64], b_hi: &[f64]) -> bool {
    for j in 0..a_lo.len() {
        if a_lo[j].max(b_lo[j]) > a_hi[j].min(b_hi[j]) {
            return true;
        }
    }
    false
}

/// `true` when `[b_lo, b_hi] ⊆ [a_lo, a_hi]` exactly (closed, no epsilon).
/// Used only as a sufficient condition to absorb a subtree: exact
/// containment guarantees every descendant passes the intersection test,
/// so skipping those tests cannot change which leaves are visited.
#[inline]
fn box_contains(a_lo: &[f64], a_hi: &[f64], b_lo: &[f64], b_hi: &[f64]) -> bool {
    for j in 0..a_lo.len() {
        if a_lo[j] > b_lo[j] || b_hi[j] > a_hi[j] {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// FrozenQuad
// ---------------------------------------------------------------------------

/// Flattened [`crate::QuadHist`]: implicit `2^d`-ary tree over SoA lanes.
#[derive(Clone, Debug)]
pub struct FrozenQuad {
    dim: usize,
    fanout: usize,
    root: Rect,
    /// Node boxes, arena order, `node * dim + j` lanes.
    node_lo: Vec<f64>,
    node_hi: Vec<f64>,
    /// First child id per node; `0` marks a leaf (the root is never a child).
    first_child: Vec<u32>,
    /// Contiguous range of this node's subtree leaves in the leaf lanes.
    leaf_begin: Vec<u32>,
    leaf_end: Vec<u32>,
    /// Leaf boxes in DFS preorder, `leaf * dim + j` lanes.
    leaf_lo: Vec<f64>,
    leaf_hi: Vec<f64>,
    /// Effective leaf weight: `0.0` for leaves the tree path skips
    /// (non-positive weight or cell volume ≤ EPS).
    leaf_w: Vec<f64>,
    /// Effective leaf cell volume; `1.0` for excluded leaves so the
    /// branch-free kernel divides by a harmless constant.
    leaf_cv: Vec<f64>,
    num_leaves: usize,
    volume: VolumeEstimator,
    solve_report: Option<SolveReport>,
}

impl FrozenQuad {
    pub(crate) fn build(
        tree: &QuadTree,
        node_weight: &[f64],
        volume: VolumeEstimator,
        solve_report: Option<SolveReport>,
    ) -> Self {
        let dim = tree.dim();
        let fanout = 1usize << dim;
        let n = tree.num_nodes();
        debug_assert!(n <= u32::MAX as usize, "quadtree too large to freeze");
        let mut node_lo = Vec::with_capacity(n * dim);
        let mut node_hi = Vec::with_capacity(n * dim);
        let mut first_child = vec![0u32; n];
        for (id, fc) in first_child.iter_mut().enumerate() {
            let r = tree.rect(id);
            node_lo.extend_from_slice(r.lo());
            node_hi.extend_from_slice(r.hi());
            if !tree.is_leaf(id) {
                if let Some(c) = tree.children(id).next() {
                    *fc = c as u32;
                }
            }
        }
        // DFS preorder (children ascending — the order the pointer tree's
        // traversal pops them) assigns every leaf its lane slot and every
        // node its contiguous subtree-leaf range.
        let mut leaf_begin = vec![0u32; n];
        let mut leaf_end = vec![0u32; n];
        let mut leaf_lo = Vec::with_capacity(tree.num_leaves() * dim);
        let mut leaf_hi = Vec::with_capacity(tree.num_leaves() * dim);
        let mut leaf_w = Vec::with_capacity(tree.num_leaves());
        let mut leaf_cv = Vec::with_capacity(tree.num_leaves());
        let mut leaf_count = 0u32;
        enum Ev {
            Enter(usize),
            Exit(usize),
        }
        let mut stack = vec![Ev::Enter(ROOT)];
        while let Some(ev) = stack.pop() {
            match ev {
                Ev::Enter(id) => {
                    leaf_begin[id] = leaf_count;
                    if tree.is_leaf(id) {
                        let cell = tree.rect(id);
                        leaf_lo.extend_from_slice(cell.lo());
                        leaf_hi.extend_from_slice(cell.hi());
                        let w = node_weight[id];
                        let cv = cell.volume();
                        if w <= 0.0 || cv <= EPS {
                            leaf_w.push(0.0);
                            leaf_cv.push(1.0);
                        } else {
                            leaf_w.push(w);
                            leaf_cv.push(cv);
                        }
                        leaf_count += 1;
                        leaf_end[id] = leaf_count;
                    } else {
                        stack.push(Ev::Exit(id));
                        let fc = first_child[id] as usize;
                        for k in (0..fanout).rev() {
                            stack.push(Ev::Enter(fc + k));
                        }
                    }
                }
                Ev::Exit(id) => leaf_end[id] = leaf_count,
            }
        }
        Self {
            dim,
            fanout,
            root: tree.rect(ROOT).clone(),
            node_lo,
            node_hi,
            first_child,
            leaf_begin,
            leaf_end,
            leaf_lo,
            leaf_hi,
            leaf_w,
            leaf_cv,
            num_leaves: tree.num_leaves(),
            volume,
            solve_report,
        }
    }

    /// One leaf's contribution: clamped per-dimension overlap product,
    /// divided by the cell volume, clamped, scaled by the leaf weight —
    /// the overlap volume `Rect::intersect` would give, minus its two
    /// `Vec` allocations.
    #[inline]
    fn leaf_term(&self, leaf: usize, q_lo: &[f64], q_hi: &[f64]) -> f64 {
        let base = leaf * self.dim;
        let mut iv = 1.0;
        for j in 0..self.dim {
            let l = q_lo[j].max(self.leaf_lo[base + j]);
            let h = q_hi[j].min(self.leaf_hi[base + j]);
            iv *= (h - l).max(0.0);
        }
        (iv / self.leaf_cv[leaf]).clamp(0.0, 1.0) * self.leaf_w[leaf]
    }

    /// Rectangle fast path. Pruning against the unclipped query is
    /// equivalent to pruning against `query ∩ root` because every cell is
    /// a subset of the root.
    fn estimate_rect(&self, q: &Rect) -> f64 {
        assert_eq!(q.dim(), self.dim, "dimension mismatch");
        let (q_lo, q_hi) = (q.lo(), q.hi());
        let mut total = 0.0;
        let mut stack = TraversalStack::new();
        stack.push(ROOT as u32);
        while let Some(id) = stack.pop() {
            let id = id as usize;
            let base = id * self.dim;
            let n_lo = &self.node_lo[base..base + self.dim];
            let n_hi = &self.node_hi[base..base + self.dim];
            if boxes_disjoint(q_lo, q_hi, n_lo, n_hi) {
                continue;
            }
            if box_contains(q_lo, q_hi, n_lo, n_hi) {
                // absorbed subtree: sequential sweep over its leaf lanes
                for leaf in self.leaf_begin[id] as usize..self.leaf_end[id] as usize {
                    total += self.leaf_term(leaf, q_lo, q_hi);
                }
                continue;
            }
            let fc = self.first_child[id];
            if fc == 0 {
                total += self.leaf_term(self.leaf_begin[id] as usize, q_lo, q_hi);
            } else {
                for k in (0..self.fanout as u32).rev() {
                    stack.push(fc + k);
                }
            }
        }
        total.clamp(0.0, 1.0)
    }

    /// Non-rectangular ranges: prune by the clipped bounding box, evaluate
    /// every surviving leaf through the range's own `intersection_volume`.
    fn estimate_generic(&self, range: &Range) -> f64 {
        let Some(bbox) = range.bounding_box(&self.root) else {
            return 0.0;
        };
        let (b_lo, b_hi) = (bbox.lo(), bbox.hi());
        let mut total = 0.0;
        let mut stack = TraversalStack::new();
        stack.push(ROOT as u32);
        while let Some(id) = stack.pop() {
            let id = id as usize;
            let base = id * self.dim;
            let n_lo = &self.node_lo[base..base + self.dim];
            let n_hi = &self.node_hi[base..base + self.dim];
            if boxes_disjoint(n_lo, n_hi, b_lo, b_hi) {
                continue;
            }
            let fc = self.first_child[id];
            if fc != 0 {
                for k in (0..self.fanout as u32).rev() {
                    stack.push(fc + k);
                }
                continue;
            }
            let leaf = self.leaf_begin[id] as usize;
            let w = self.leaf_w[leaf];
            if w <= 0.0 {
                continue;
            }
            let lb = leaf * self.dim;
            let cell = Rect::new(
                self.leaf_lo[lb..lb + self.dim].to_vec(),
                self.leaf_hi[lb..lb + self.dim].to_vec(),
            );
            let frac = range.intersection_volume(&cell, &self.volume) / self.leaf_cv[leaf];
            total += frac.clamp(0.0, 1.0) * w;
        }
        total.clamp(0.0, 1.0)
    }

    fn estimate(&self, range: &Range) -> f64 {
        match range {
            Range::Rect(r) => self.estimate_rect(r),
            _ => self.estimate_generic(range),
        }
    }

    /// The data-space box the source model was trained over.
    pub fn root(&self) -> &Rect {
        &self.root
    }
}

// ---------------------------------------------------------------------------
// FrozenPts
// ---------------------------------------------------------------------------

/// Flattened [`crate::PtsHist`]: a k-d tree over the support points,
/// copied id-for-id into SoA lanes. Subtrees entirely inside a rectangle
/// query are absorbed through their aggregated weight, subtrees entirely
/// outside its bounding box are skipped, and the remaining nodes test
/// their own point.
#[derive(Clone, Debug)]
pub struct FrozenPts {
    dim: usize,
    root: Rect,
    root_id: u32,
    /// Subtree bounding boxes, `node * dim + j` lanes.
    bbox_lo: Vec<f64>,
    bbox_hi: Vec<f64>,
    /// The node's own point, `node * dim + j` lanes.
    pt: Vec<f64>,
    /// The node's own weight.
    w: Vec<f64>,
    /// Aggregated subtree weight (absorbed when the query contains the bbox).
    subw: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    /// Node-order point copies for the generic (non-rect) membership test.
    points: Vec<Point>,
    num_points: usize,
    solve_report: Option<SolveReport>,
}

impl FrozenPts {
    pub(crate) fn build(
        points: &[Point],
        weights: &[f64],
        root: Rect,
        solve_report: Option<SolveReport>,
    ) -> Self {
        let index = KdTree::build(points.to_vec(), weights.to_vec());
        let dim = root.dim();
        let n = index.num_nodes();
        debug_assert!(n < NONE as usize, "kd-tree too large to freeze");
        let mut bbox_lo = Vec::with_capacity(n * dim);
        let mut bbox_hi = Vec::with_capacity(n * dim);
        let mut pt = Vec::with_capacity(n * dim);
        let mut w = Vec::with_capacity(n);
        let mut subw = Vec::with_capacity(n);
        let mut left = Vec::with_capacity(n);
        let mut right = Vec::with_capacity(n);
        let mut points = Vec::with_capacity(n);
        for id in 0..n {
            let v = index.node(id);
            bbox_lo.extend_from_slice(v.bbox.lo());
            bbox_hi.extend_from_slice(v.bbox.hi());
            pt.extend_from_slice(v.point.coords());
            w.push(v.weight);
            subw.push(v.subtree_weight);
            left.push(v.left.map_or(NONE, |l| l as u32));
            right.push(v.right.map_or(NONE, |r| r as u32));
            points.push(v.point.clone());
        }
        Self {
            dim,
            root,
            root_id: index.root_id().map_or(NONE, |r| r as u32),
            bbox_lo,
            bbox_hi,
            pt,
            w,
            subw,
            left,
            right,
            points,
            num_points: index.len(),
            solve_report,
        }
    }

    /// `Rect::contains_rect` on raw lanes (same epsilon slack).
    #[inline]
    fn query_contains_bbox(&self, q_lo: &[f64], q_hi: &[f64], base: usize) -> bool {
        for j in 0..self.dim {
            if !(q_lo[j] <= self.bbox_lo[base + j] + EPS
                && q_hi[j] + EPS >= self.bbox_hi[base + j])
            {
                return false;
            }
        }
        true
    }

    /// Closed-interval point membership, exactly `Rect::contains`.
    #[inline]
    fn query_contains_point(&self, q_lo: &[f64], q_hi: &[f64], base: usize) -> bool {
        for j in 0..self.dim {
            let x = self.pt[base + j];
            if !(q_lo[j] <= x && x <= q_hi[j]) {
                return false;
            }
        }
        true
    }

    fn weight_in_rect(&self, q: &Rect) -> f64 {
        if self.root_id == NONE {
            return 0.0;
        }
        assert_eq!(q.dim(), self.dim, "dimension mismatch");
        let (q_lo, q_hi) = (q.lo(), q.hi());
        let mut total = 0.0;
        let mut stack = TraversalStack::new();
        stack.push(self.root_id);
        while let Some(id) = stack.pop() {
            let id = id as usize;
            let base = id * self.dim;
            if boxes_disjoint(
                q_lo,
                q_hi,
                &self.bbox_lo[base..base + self.dim],
                &self.bbox_hi[base..base + self.dim],
            ) {
                continue;
            }
            if self.query_contains_bbox(q_lo, q_hi, base) {
                total += self.subw[id];
                continue;
            }
            if self.query_contains_point(q_lo, q_hi, base) {
                total += self.w[id];
            }
            if self.left[id] != NONE {
                stack.push(self.left[id]);
            }
            if self.right[id] != NONE {
                stack.push(self.right[id]);
            }
        }
        total
    }

    fn weight_in_range(&self, query: &Range) -> f64 {
        if let Range::Rect(r) = query {
            return self.weight_in_rect(r);
        }
        if self.root_id == NONE {
            return 0.0;
        }
        let Some(qbox) = query.bounding_box(&self.root) else {
            return 0.0;
        };
        let (b_lo, b_hi) = (qbox.lo(), qbox.hi());
        let mut total = 0.0;
        let mut stack = TraversalStack::new();
        stack.push(self.root_id);
        while let Some(id) = stack.pop() {
            let id = id as usize;
            let base = id * self.dim;
            if boxes_disjoint(
                b_lo,
                b_hi,
                &self.bbox_lo[base..base + self.dim],
                &self.bbox_hi[base..base + self.dim],
            ) {
                continue;
            }
            if query.contains(&self.points[id]) {
                total += self.w[id];
            }
            if self.left[id] != NONE {
                stack.push(self.left[id]);
            }
            if self.right[id] != NONE {
                stack.push(self.right[id]);
            }
        }
        total
    }

    fn estimate(&self, range: &Range) -> f64 {
        self.weight_in_range(range).clamp(0.0, 1.0)
    }

    /// The data-space box the source model was trained over.
    pub fn root(&self) -> &Rect {
        &self.root
    }
}

// ---------------------------------------------------------------------------
// FrozenEstimator
// ---------------------------------------------------------------------------

/// A pointer-free inference artifact, returned by an estimator's
/// `freeze()`. Its source model answers through this same artifact, so
/// registries and callers hot-swap it in anywhere a trained model is
/// accepted and get the same estimates.
#[derive(Clone, Debug)]
pub enum FrozenEstimator {
    /// Frozen [`crate::QuadHist`].
    Quad(FrozenQuad),
    /// Frozen [`crate::PtsHist`].
    Pts(FrozenPts),
}

impl FrozenEstimator {
    /// The data-space box the source model was trained over.
    pub fn root(&self) -> &Rect {
        match self {
            FrozenEstimator::Quad(q) => q.root(),
            FrozenEstimator::Pts(p) => p.root(),
        }
    }
}

impl SelectivityEstimator for FrozenEstimator {
    fn estimate(&self, range: &Range) -> f64 {
        match self {
            FrozenEstimator::Quad(q) => q.estimate(range),
            FrozenEstimator::Pts(p) => p.estimate(range),
        }
    }

    fn num_buckets(&self) -> usize {
        match self {
            FrozenEstimator::Quad(q) => q.num_leaves,
            FrozenEstimator::Pts(p) => p.num_points,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FrozenEstimator::Quad(_) => "FrozenQuadHist",
            FrozenEstimator::Pts(_) => "FrozenPtsHist",
        }
    }

    fn solve_report(&self) -> Option<SolveReport> {
        match self {
            FrozenEstimator::Quad(q) => q.solve_report,
            FrozenEstimator::Pts(p) => p.solve_report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_geom::Ball;

    #[test]
    fn traversal_stack_is_lifo_across_spill() {
        let mut s = TraversalStack::new();
        for i in 0..300u32 {
            s.push(i);
        }
        for i in (0..300u32).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn disjoint_and_contains_predicates() {
        let a = (vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = (vec![0.25, 0.25], vec![0.5, 0.5]);
        let c = (vec![2.0, 2.0], vec![3.0, 3.0]);
        assert!(!boxes_disjoint(&a.0, &a.1, &b.0, &b.1));
        assert!(boxes_disjoint(&a.0, &a.1, &c.0, &c.1));
        assert!(box_contains(&a.0, &a.1, &b.0, &b.1));
        assert!(!box_contains(&b.0, &b.1, &a.0, &a.1));
        // touching boxes intersect (closed boxes), like Rect::intersects
        let d = (vec![1.0, 0.0], vec![2.0, 1.0]);
        assert!(!boxes_disjoint(&a.0, &a.1, &d.0, &d.1));
    }

    /// Nodes the kernel visits answering `range`.
    fn visits(model: &FrozenEstimator, range: Range) -> usize {
        VISITS.with(|n| n.set(0));
        model.estimate(&range);
        VISITS.with(|n| n.get())
    }

    #[test]
    fn pts_kernel_prunes_small_queries() {
        let mut rng = 8u64;
        let mut next = || {
            // xorshift64: a fixed, dependency-free point cloud
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..4096)
            .map(|_| Point::new(vec![next(), next()]))
            .collect();
        let ws = vec![1.0 / 4096.0; 4096];
        let model = FrozenEstimator::Pts(FrozenPts::build(&pts, &ws, Rect::unit(2), None));
        let tiny = Rect::new(vec![0.4, 0.4], vec![0.45, 0.45]);
        let v = visits(&model, tiny.into());
        assert!(v < 4096 / 4, "visited {v} of 4096 nodes for a tiny query");
        // whole-space query is absorbed at the root
        assert_eq!(visits(&model, Rect::unit(2).into()), 1);
    }

    #[test]
    fn quad_kernel_prunes_small_queries() {
        // complete depth-6 quadtree: 4096 leaves, 5461 nodes
        let mut tree = QuadTree::new(Rect::unit(2));
        let mut frontier = vec![ROOT];
        for _ in 0..6 {
            frontier = frontier
                .into_iter()
                .flat_map(|id| {
                    let first = tree.split(id);
                    first..first + 4
                })
                .collect();
        }
        assert_eq!(tree.num_leaves(), 4096);
        let weights = vec![1.0 / 4096.0; tree.num_nodes()];
        let model = FrozenEstimator::Quad(FrozenQuad::build(
            &tree,
            &weights,
            VolumeEstimator::default(),
            None,
        ));
        let tiny = Rect::new(vec![0.4, 0.4], vec![0.45, 0.45]);
        let v = visits(&model, tiny.into());
        assert!(v < 4096 / 4, "visited {v} of 5461 nodes for a tiny query");
        let v = visits(&model, Ball::new(Point::new(vec![0.42, 0.42]), 0.02).into());
        assert!(v < 4096 / 4, "visited {v} of 5461 nodes for a tiny ball");
        // a query covering the root absorbs the whole tree without descending
        assert_eq!(visits(&model, Rect::unit(2).into()), 1);
    }
}
