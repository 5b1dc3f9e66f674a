//! A static weighted k-d tree with per-subtree bounding boxes and
//! aggregated subtree weights.
//!
//! PtsHist's prediction (Equation 7) sums the weights of support points
//! inside the query; done naively that is `O(k)` point tests per estimate.
//! With this tree, subtrees entirely inside the query are absorbed in
//! `O(1)` and subtrees entirely outside are skipped, so rectangle queries
//! run in `O(k^{1−1/d} + answer)` — the classic orthogonal-range-counting
//! bound. The tree is only built here; `selearn_core::frozen` flattens it
//! node by node and runs the range aggregation on the flat copy.

use crate::point::Point;
use crate::rect::Rect;

#[derive(Clone, Debug)]
struct Node {
    /// Index into the point/weight arrays.
    item: usize,
    /// Bounding box of every point in this subtree.
    bbox: Rect,
    /// Total weight in this subtree (including this node).
    subtree_weight: f64,
    left: Option<usize>,
    right: Option<usize>,
}

/// Borrowed view of one k-d tree node, exposed for flattening the tree
/// into pointer-free inference layouts (see `selearn_core::frozen`).
#[derive(Clone, Copy, Debug)]
pub struct KdNodeView<'a> {
    /// The point stored at this node.
    pub point: &'a Point,
    /// The weight of this node's own point.
    pub weight: f64,
    /// Bounding box of every point in this subtree.
    pub bbox: &'a Rect,
    /// Total weight in this subtree (including this node).
    pub subtree_weight: f64,
    /// Left child id, if any.
    pub left: Option<usize>,
    /// Right child id, if any.
    pub right: Option<usize>,
}

/// A static k-d tree over weighted points.
#[derive(Clone, Debug)]
pub struct KdTree {
    points: Vec<Point>,
    weights: Vec<f64>,
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl KdTree {
    /// Builds a tree from parallel point/weight arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length or points differ in dimension.
    pub fn build(points: Vec<Point>, weights: Vec<f64>) -> Self {
        assert_eq!(points.len(), weights.len(), "length mismatch");
        if let Some(first) = points.first() {
            let d = first.dim();
            assert!(
                points.iter().all(|p| p.dim() == d),
                "ragged point dimensions"
            );
        }
        let mut tree = Self {
            nodes: Vec::with_capacity(points.len()),
            root: None,
            points,
            weights,
        };
        let mut idx: Vec<usize> = (0..tree.points.len()).collect();
        tree.root = tree.build_rec(&mut idx, 0);
        tree
    }

    fn build_rec(&mut self, idx: &mut [usize], depth: usize) -> Option<usize> {
        if idx.is_empty() {
            return None;
        }
        let d = self.points[idx[0]].dim();
        let axis = depth % d;
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            self.points[a][axis].total_cmp(&self.points[b][axis])
        });
        let item = idx[mid];
        // compute subtree bbox and weight over the whole slice
        let mut lo = self.points[idx[0]].coords().to_vec();
        let mut hi = lo.clone();
        let mut w = 0.0;
        for &i in idx.iter() {
            w += self.weights[i];
            for k in 0..d {
                lo[k] = lo[k].min(self.points[i][k]);
                hi[k] = hi[k].max(self.points[i][k]);
            }
        }
        let node_id = self.nodes.len();
        self.nodes.push(Node {
            item,
            bbox: Rect::new(lo, hi),
            subtree_weight: w,
            left: None,
            right: None,
        });
        let (l, r) = idx.split_at_mut(mid);
        let left = self.build_rec(l, depth + 1);
        let right = self.build_rec(&mut r[1..], depth + 1);
        self.nodes[node_id].left = left;
        self.nodes[node_id].right = right;
        Some(node_id)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Root node id, or `None` for an empty tree. Node ids index the
    /// arena in build order and stay stable for the tree's lifetime, so
    /// flattened inference layouts copy nodes out by id.
    pub fn root_id(&self) -> Option<usize> {
        self.root
    }

    /// Total arena node count (equals [`KdTree::len`] — one node per point).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Read-only view of one arena node, for building flattened layouts.
    pub fn node(&self, id: usize) -> KdNodeView<'_> {
        let n = &self.nodes[id];
        KdNodeView {
            point: &self.points[n.item],
            weight: self.weights[n.item],
            bbox: &n.bbox,
            subtree_weight: n.subtree_weight,
            left: n.left,
            right: n.right,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_tree() {
        let t = KdTree::build(vec![], vec![]);
        assert!(t.is_empty());
        assert_eq!(t.root_id(), None);
        assert_eq!(t.num_nodes(), 0);
    }

    #[test]
    fn subtrees_aggregate_their_points() {
        // Every node's bbox holds every point of its subtree, and its
        // subtree weight is their sum: the facts range aggregation prunes
        // and absorbs with.
        let mut rng = StdRng::seed_from_u64(1);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen()).collect()))
            .collect();
        let ws: Vec<f64> = (0..300).map(|_| rng.gen()).collect();
        let t = KdTree::build(pts, ws.clone());
        assert_eq!((t.len(), t.num_nodes()), (300, 300));
        fn walk(t: &KdTree, id: usize, out: &mut Vec<usize>) {
            out.push(id);
            let v = t.node(id);
            for c in [v.left, v.right].into_iter().flatten() {
                walk(t, c, out);
            }
        }
        let mut all = Vec::new();
        walk(&t, t.root_id().unwrap(), &mut all);
        assert_eq!(all.len(), 300, "every node reachable once");
        for id in 0..t.num_nodes() {
            let mut sub = Vec::new();
            walk(&t, id, &mut sub);
            let v = t.node(id);
            let sum: f64 = sub.iter().map(|&c| t.node(c).weight).sum();
            assert!((v.subtree_weight - sum).abs() < 1e-9);
            assert!(sub.iter().all(|&c| v.bbox.contains(t.node(c).point)));
        }
        let total: f64 = ws.iter().sum();
        assert!((t.node(t.root_id().unwrap()).subtree_weight - total).abs() < 1e-9);
    }
}
