//! A `2^d`-ary space-partitioning tree (quadtree / octree / …).
//!
//! QuadHist's bucket-design phase (Algorithm 1) incrementally refines this
//! tree; its leaves become the histogram buckets. The paper notes
//! (Section 3.2, third remark) that the quadtree "doubles up as a
//! convenient data structure for speeding up" range operations: prediction
//! walks it in its flattened form, [`crate::frozen`].
//!
//! A tree only ever grows by [`QuadTree::split`]: bucket design and
//! online feedback split where queries are dense, and
//! [`crate::QuadHist::from_buckets`] restores a dump by splitting
//! towards its keyed cells in one pass. [`QuadTree::from_arena`] rebuilds
//! a tree from its exact serialized node links instead, for durable
//! snapshots of an online model.

use crate::error::SelearnError;
use selearn_geom::Rect;

#[derive(Clone, Debug)]
struct Node {
    rect: Rect,
    /// Index of the first of `2^d` contiguous children; `None` for leaves.
    first_child: Option<usize>,
}

/// An arena-allocated `2^d`-ary partition tree over a root box.
#[derive(Clone, Debug)]
pub struct QuadTree {
    dim: usize,
    nodes: Vec<Node>,
    num_leaves: usize,
}

/// Identifier of a tree node.
pub type NodeId = usize;

/// The root node id.
pub const ROOT: NodeId = 0;

impl QuadTree {
    /// Creates a single-leaf tree covering `root`.
    pub fn new(root: Rect) -> Self {
        let dim = root.dim();
        Self {
            dim,
            nodes: vec![Node {
                rect: root,
                first_child: None,
            }],
            num_leaves: 1,
        }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current leaf count (histogram bucket count).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The box covered by a node.
    pub fn rect(&self, id: NodeId) -> &Rect {
        &self.nodes[id].rect
    }

    /// `true` if the node has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id].first_child.is_none()
    }

    /// Child ids of an internal node (empty for leaves).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        let fanout = 1usize << self.dim;
        let base = self.nodes[id].first_child;
        (0..fanout).filter_map(move |k| base.map(|b| b + k))
    }

    /// Splits a leaf into `2^d` children and returns the first child id.
    ///
    /// # Panics
    /// Panics if the node is not a leaf.
    pub fn split(&mut self, id: NodeId) -> NodeId {
        assert!(self.is_leaf(id), "can only split leaves");
        let first = self.nodes.len();
        let kids = self.nodes[id].rect.split();
        debug_assert_eq!(kids.len(), 1 << self.dim);
        for rect in kids {
            self.nodes.push(Node {
                rect,
                first_child: None,
            });
        }
        self.nodes[id].first_child = Some(first);
        self.num_leaves += (1 << self.dim) - 1;
        first
    }

    /// Index of the first of `2^d` contiguous children, `None` for a leaf
    /// — the raw arena link. Exposed so durable stores can serialize the
    /// exact node layout: estimates sum over leaves in arena order, so a
    /// recovered tree must reproduce the layout bit-for-bit, not just the
    /// same leaf set.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id].first_child
    }

    /// Rebuilds a tree from its exact arena layout: `first_child[i]` is
    /// the serialized link of node `i` (`None` for leaves). Node rects are
    /// rederived by re-splitting top-down — children always carry a higher
    /// index than their parent, so one ascending pass assigns every rect —
    /// which reproduces the original coordinates exactly (the split
    /// midpoint computation is deterministic).
    ///
    /// Returns [`SelearnError::CorruptModel`] when the links do not
    /// describe a tree this crate could have grown: a link to a
    /// non-contiguous child block, an out-of-range index, a child index
    /// not past its parent, or nodes not reachable from the root.
    pub fn from_arena(root: Rect, first_child: &[Option<usize>]) -> Result<Self, SelearnError> {
        let n = first_child.len();
        if n == 0 {
            return Err(SelearnError::CorruptModel {
                what: "arena tree must contain at least the root node".into(),
            });
        }
        let dim = root.dim();
        let fanout = 1usize << dim;
        if !(n - 1).is_multiple_of(fanout) {
            return Err(SelearnError::CorruptModel {
                what: format!("arena of {n} nodes is not 1 + k·2^{dim}"),
            });
        }
        let mut rects: Vec<Option<Rect>> = vec![None; n];
        rects[ROOT] = Some(root);
        let mut num_leaves = 0usize;
        let mut claimed = vec![false; n];
        claimed[ROOT] = true;
        for i in 0..n {
            let Some(rect) = rects[i].clone() else {
                return Err(SelearnError::CorruptModel {
                    what: format!("arena node {i} is not reachable from the root"),
                });
            };
            match first_child[i] {
                None => num_leaves += 1,
                Some(first) => {
                    if first <= i || first >= n || n - first < fanout {
                        return Err(SelearnError::CorruptModel {
                            what: format!("arena node {i} links children at {first}"),
                        });
                    }
                    let kids = rect.split();
                    for (k, kid) in kids.into_iter().enumerate() {
                        let c = first + k;
                        if claimed[c] {
                            return Err(SelearnError::CorruptModel {
                                what: format!("arena node {c} claimed by two parents"),
                            });
                        }
                        claimed[c] = true;
                        rects[c] = Some(kid);
                    }
                }
            }
        }
        let nodes = rects
            .into_iter()
            .zip(first_child)
            .map(|(rect, fc)| {
                Some(Node {
                    rect: rect?,
                    first_child: *fc,
                })
            })
            .collect::<Option<Vec<Node>>>()
            .ok_or_else(|| SelearnError::CorruptModel {
                what: "arena contains unreachable nodes".into(),
            })?;
        Ok(Self {
            dim,
            nodes,
            num_leaves,
        })
    }

    /// All leaf ids, in deterministic (arena) order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.is_leaf(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_is_single_leaf() {
        let t = QuadTree::new(Rect::unit(2));
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_leaves(), 1);
        assert!(t.is_leaf(ROOT));
        assert_eq!(t.leaves(), vec![ROOT]);
    }

    #[test]
    fn split_2d_makes_four_children() {
        let mut t = QuadTree::new(Rect::unit(2));
        let first = t.split(ROOT);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_leaves(), 4);
        assert!(!t.is_leaf(ROOT));
        let kids: Vec<_> = t.children(ROOT).collect();
        assert_eq!(kids, vec![first, first + 1, first + 2, first + 3]);
        let total: f64 = kids.iter().map(|&k| t.rect(k).volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_3d_makes_eight_children() {
        let mut t = QuadTree::new(Rect::unit(3));
        t.split(ROOT);
        assert_eq!(t.num_leaves(), 8);
    }

    #[test]
    fn nested_splits_update_leaf_count() {
        let mut t = QuadTree::new(Rect::unit(2));
        let first = t.split(ROOT);
        t.split(first); // split one child again
        assert_eq!(t.num_leaves(), 7); // 4 − 1 + 4
        assert_eq!(t.leaves().len(), 7);
    }

    #[test]
    fn leaves_tile_the_root() {
        let mut t = QuadTree::new(Rect::unit(2));
        let c = t.split(ROOT);
        t.split(c + 1);
        t.split(c + 2);
        let total: f64 = t.leaves().iter().map(|&l| t.rect(l).volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arena_round_trip_preserves_layout() {
        let mut t = QuadTree::new(Rect::unit(2));
        let c = t.split(ROOT);
        t.split(c + 2);
        t.split(c + 1);
        let links: Vec<Option<usize>> = (0..t.num_nodes()).map(|i| t.first_child(i)).collect();
        let back = QuadTree::from_arena(Rect::unit(2), &links).unwrap();
        assert_eq!(back.num_nodes(), t.num_nodes());
        assert_eq!(back.num_leaves(), t.num_leaves());
        for i in 0..t.num_nodes() {
            assert_eq!(back.first_child(i), t.first_child(i));
            assert_eq!(back.rect(i).lo(), t.rect(i).lo(), "node {i} lo");
            assert_eq!(back.rect(i).hi(), t.rect(i).hi(), "node {i} hi");
        }
    }

    #[test]
    fn from_arena_rejects_malformed_links() {
        // wrong node count for the fanout
        assert!(QuadTree::from_arena(Rect::unit(2), &[Some(1), None, None]).is_err());
        // child block out of range
        assert!(QuadTree::from_arena(Rect::unit(2), &[Some(3), None, None, None, None]).is_err());
        // child block whose end overflows usize
        let links = [Some(usize::MAX), None, None, None, None];
        assert!(QuadTree::from_arena(Rect::unit(2), &links).is_err());
        // child index not past its parent
        let links = [Some(1), None, None, None, None, Some(1), None, None, None];
        assert!(QuadTree::from_arena(Rect::unit(2), &links).is_err());
        // unreachable tail nodes
        let links = [None, None, None, None, None];
        assert!(QuadTree::from_arena(Rect::unit(2), &links).is_err());
        // empty arena
        assert!(QuadTree::from_arena(Rect::unit(2), &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "can only split leaves")]
    fn double_split_panics() {
        let mut t = QuadTree::new(Rect::unit(2));
        t.split(ROOT);
        t.split(ROOT);
    }
}
