//! STR bulk-loaded (packed) R-tree: the one STR hierarchy of the workspace.
//!
//! It has two users. The paper's indexed baselines use bulk-loaded R-trees: the
//! indexed nested loop joins dataset B against an R-tree on A, and the "RTree"
//! baseline performs a synchronous traversal of R-trees built on both datasets
//! (Brinkhoff et al., SIGMOD '93). Per Section 6, an STR-packed R-tree is used
//! because it performs best on non-extreme real-world data. And TOUCH's own
//! hierarchy over dataset A (Algorithm 2, `touch_core::TouchTree`) is a
//! `PackedRTree` whose leaves are TOUCH's STR buckets, packed by
//! [`PackedRTree::from_tiled`]; touch-core keeps only what TOUCH adds beside it.
//!
//! The tree is stored as a flat arena: all objects live in one `Vec` in STR (tile)
//! order, and all nodes live in one `Vec` built level by level, each node referencing
//! a contiguous range of either objects (leaves) or child nodes (inner nodes). No
//! per-node allocations, no pointers — small and cache-friendly, and the memory
//! footprint the evaluation reports is simply the sum of the two vectors.

use crate::str_pack::str_sort;
use std::ops::Range;
use touch_geom::{Aabb, SpatialObject};
use touch_metrics::{vec_bytes, Counters, MemoryUsage};

/// One node of a [`PackedRTree`].
#[derive(Debug, Clone, Copy)]
pub struct RTreeNode {
    /// MBR enclosing everything below this node.
    pub mbr: Aabb,
    /// Tree level: 0 for leaves, increasing towards the root.
    pub level: u32,
    first: u32,
    count: u32,
    is_leaf: bool,
}

impl RTreeNode {
    /// `true` if this node is a leaf (its range indexes objects, not child nodes).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// For a leaf: the range of object indices it covers.
    /// For an inner node: the range of child-node indices it covers.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.first as usize..(self.first + self.count) as usize
    }

    /// Number of entries (objects or children) under this node.
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` if the node has no entries (only possible for an empty tree's root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// An STR bulk-loaded R-tree over a set of [`SpatialObject`]s.
#[derive(Debug, Clone)]
pub struct PackedRTree {
    items: Vec<SpatialObject>,
    nodes: Vec<RTreeNode>,
    /// Node-index ranges of each level, from leaves (index 0) to the root level.
    levels: Vec<Range<usize>>,
    leaf_capacity: usize,
    fanout: usize,
    /// `false` if some item's MBR has a NaN coordinate. Node MBRs are unions,
    /// and unions drop NaN coordinates (`f64::min`/`max` ignore them), so such
    /// an item is not bounded by the nodes above it.
    nan_free: bool,
}

impl PackedRTree {
    /// Bulk-loads a tree from `objects` with the given leaf capacity and inner-node
    /// fanout: the STR sort, then [`PackedRTree::from_tiled`].
    ///
    /// The paper's R-tree baselines use small nodes ("a fanout of 2 and nodes of
    /// 2 KB"); [`PackedRTree::paper_default`] mirrors that configuration.
    ///
    /// # Panics
    /// Panics if `leaf_capacity` is zero or `fanout < 2`.
    pub fn build(objects: &[SpatialObject], leaf_capacity: usize, fanout: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        assert!(fanout > 1, "fanout must be at least 2"); // fail before the O(n log n) sort
        let mut items = objects.to_vec();
        str_sort(&mut items, |o| o.mbr.center(), leaf_capacity);
        Self::from_tiled(items, leaf_capacity, fanout)
    }

    /// Packs a tree over `items` that are **already in STR tile order**, as
    /// [`str_sort`] with the same `leaf_capacity` leaves them. Leaf `k` holds
    /// items `[k·leaf_capacity, min((k+1)·leaf_capacity, n))`; node `j` of each
    /// upper level groups nodes `[j·fanout, min((j+1)·fanout, len))` of the level
    /// below, until one root remains. Any order packs a valid tree; the tiling
    /// only decides how well its nodes prune.
    ///
    /// # Panics
    /// Panics if `leaf_capacity` is zero or `fanout < 2`.
    // Packing invariants, not fallible paths: every chunk and every group is
    // non-empty by construction.
    #[allow(clippy::expect_used)]
    pub fn from_tiled(items: Vec<SpatialObject>, leaf_capacity: usize, fanout: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        assert!(fanout > 1, "fanout must be at least 2");
        let (mut nodes, mut nan_free) = (Vec::new(), true);
        for (k, bucket) in items.chunks(leaf_capacity).enumerate() {
            // The NaN check rides on the union's pass over the items.
            let mbr = Aabb::union_all(bucket.iter().map(|o| {
                nan_free &= !o.mbr.has_nan();
                o.mbr
            }));
            nodes.push(RTreeNode {
                mbr: mbr.expect("non-empty leaf"),
                level: 0,
                first: (k * leaf_capacity) as u32,
                count: bucket.len() as u32,
                is_leaf: true,
            });
        }
        let mut levels = Vec::new();
        if !nodes.is_empty() {
            levels.push(0..nodes.len());
        }
        while let Some(below) = levels.last().filter(|level| level.len() > 1).cloned() {
            let start = nodes.len();
            for first in below.clone().step_by(fanout) {
                let end = (first + fanout).min(below.end);
                nodes.push(RTreeNode {
                    mbr: Aabb::union_all(nodes[first..end].iter().map(|n| n.mbr))
                        .expect("non-empty inner node"),
                    level: levels.len() as u32,
                    first: first as u32,
                    count: (end - first) as u32,
                    is_leaf: false,
                });
            }
            levels.push(start..nodes.len());
        }
        PackedRTree { items, nodes, levels, leaf_capacity, fanout, nan_free }
    }

    /// The paper's R-tree configuration for the baselines: fanout 2 and ~2 KB nodes
    /// (64 objects of 32 bytes per leaf).
    pub fn paper_default(objects: &[SpatialObject]) -> Self {
        Self::build(objects, 64, 2)
    }

    /// Number of indexed objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the tree indexes no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of tree levels (0 for an empty tree; 1 if the root is a leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf capacity the tree was built with.
    #[inline]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Inner-node fanout the tree was built with.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// `true` unless some item's MBR has a NaN coordinate: only then does
    /// every node's MBR bound each item below it on every axis.
    #[inline]
    pub fn is_nan_free(&self) -> bool {
        self.nan_free
    }

    /// Index of the root node, or `None` for an empty tree.
    #[inline]
    pub fn root_index(&self) -> Option<usize> {
        self.levels.last().map(|r| r.start)
    }

    /// The root node, or `None` for an empty tree.
    #[inline]
    pub fn root(&self) -> Option<&RTreeNode> {
        self.root_index().map(|i| &self.nodes[i])
    }

    /// The node at `index`.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[inline]
    pub fn node(&self, index: usize) -> &RTreeNode {
        &self.nodes[index]
    }

    /// The objects stored in a leaf node.
    ///
    /// # Panics
    /// Panics if `node` is not a leaf.
    #[inline]
    pub fn leaf_entries(&self, node: &RTreeNode) -> &[SpatialObject] {
        assert!(node.is_leaf, "leaf_entries called on an inner node");
        &self.items[node.range()]
    }

    /// The node indices of the children of an inner node.
    ///
    /// # Panics
    /// Panics if `node` is a leaf.
    #[inline]
    pub fn child_indices(&self, node: &RTreeNode) -> Range<usize> {
        assert!(!node.is_leaf, "child_indices called on a leaf node");
        node.range()
    }

    /// All objects in STR order.
    #[inline]
    pub fn items(&self) -> &[SpatialObject] {
        &self.items
    }

    /// Consumes the tree and returns its item buffer in STR order, capacity
    /// intact, for a caller that refills it and packs again.
    #[inline]
    pub fn into_items(self) -> Vec<SpatialObject> {
        self.items
    }

    /// All nodes: the leaves first, then each level up to the root. A node's
    /// children, and so its whole subtree, precede it.
    #[inline]
    pub fn nodes(&self) -> &[RTreeNode] {
        &self.nodes
    }

    /// Runs a range query: calls `on_hit` for every object whose MBR intersects
    /// `query`.
    ///
    /// Node-level MBR tests are recorded as `node_tests`; object-level tests at the
    /// leaves are recorded as `comparisons`, matching the paper's definition of a
    /// comparison (object against object).
    pub fn query(
        &self,
        query: &Aabb,
        counters: &mut Counters,
        mut on_hit: impl FnMut(&SpatialObject),
    ) {
        let Some(root) = self.root_index() else { return };
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if node.is_leaf {
                for obj in &self.items[node.range()] {
                    counters.record_comparison();
                    if obj.mbr.intersects(query) {
                        on_hit(obj);
                    }
                }
            } else {
                for child in node.range() {
                    counters.record_node_test();
                    if self.nodes[child].mbr.intersects(query) {
                        stack.push(child);
                    }
                }
            }
        }
    }

    /// Collects the ids of all objects whose MBR intersects `query`.
    pub fn query_ids(&self, query: &Aabb, counters: &mut Counters) -> Vec<u32> {
        let mut out = Vec::new();
        self.query(query, counters, |o| out.push(o.id));
        out
    }
}

impl MemoryUsage for PackedRTree {
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.items) + vec_bytes(&self.nodes) + vec_bytes(&self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Dataset, Point3};

    fn lattice(side: usize) -> Dataset {
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(x as f64 * 2.0, y as f64 * 2.0, z as f64 * 2.0);
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(1.0)));
                }
            }
        }
        ds
    }

    #[test]
    fn builds_expected_shape() {
        let ds = lattice(4); // 64 objects
        let tree = PackedRTree::build(ds.objects(), 8, 2);
        assert_eq!(tree.len(), 64);
        assert_eq!(tree.height(), 4); // 8 leaves -> 4 -> 2 -> 1
        assert!(tree.root().is_some());
        assert_eq!(tree.node_count(), 8 + 4 + 2 + 1);
        assert!(tree.memory_bytes() > 0);
    }

    #[test]
    fn empty_tree() {
        let tree = PackedRTree::build(&[], 8, 2);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree.root().is_none());
        let mut c = Counters::new();
        let hits = tree.query_ids(&Aabb::new(Point3::ORIGIN, Point3::splat(1.0)), &mut c);
        assert!(hits.is_empty());
        assert_eq!(c.comparisons, 0);
    }

    #[test]
    fn single_leaf_tree() {
        let ds = lattice(1);
        let tree = PackedRTree::build(ds.objects(), 8, 2);
        assert_eq!(tree.height(), 1);
        let root = tree.root().unwrap();
        assert!(root.is_leaf());
        assert_eq!(tree.leaf_entries(root).len(), 1);
    }

    #[test]
    fn node_mbrs_contain_their_subtrees() {
        let ds = lattice(5);
        let tree = PackedRTree::build(ds.objects(), 7, 3);
        for idx in 0..tree.node_count() {
            let node = tree.node(idx);
            if node.is_leaf() {
                for obj in tree.leaf_entries(node) {
                    assert!(node.mbr.contains(&obj.mbr));
                }
            } else {
                for child in tree.child_indices(node) {
                    assert!(node.mbr.contains(&tree.node(child).mbr));
                    assert_eq!(tree.node(child).level + 1, node.level);
                }
            }
        }
        // Root contains everything.
        let root = tree.root().unwrap();
        for o in ds.iter() {
            assert!(root.mbr.contains(&o.mbr));
        }
    }

    #[test]
    fn every_object_is_in_exactly_one_leaf() {
        let ds = lattice(4);
        let tree = PackedRTree::build(ds.objects(), 5, 2);
        let mut seen = vec![0u32; ds.len()];
        for idx in 0..tree.node_count() {
            let node = tree.node(idx);
            if node.is_leaf() {
                for obj in tree.leaf_entries(node) {
                    seen[obj.id as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each object appears exactly once");
    }

    #[test]
    fn query_matches_brute_force() {
        let ds = lattice(6);
        let tree = PackedRTree::build(ds.objects(), 8, 2);
        let queries = [
            Aabb::new(Point3::ORIGIN, Point3::splat(3.0)),
            Aabb::new(Point3::splat(4.5), Point3::splat(7.5)),
            Aabb::new(Point3::new(0.0, 0.0, 9.0), Point3::new(11.0, 11.0, 11.0)),
            Aabb::new(Point3::splat(100.0), Point3::splat(110.0)), // empty
        ];
        for q in &queries {
            let mut c = Counters::new();
            let mut hits = tree.query_ids(q, &mut c);
            hits.sort_unstable();
            let mut expected: Vec<u32> =
                ds.iter().filter(|o| o.mbr.intersects(q)).map(|o| o.id).collect();
            expected.sort_unstable();
            assert_eq!(hits, expected);
        }
    }

    #[test]
    fn query_counts_comparisons_and_node_tests() {
        let ds = lattice(4);
        let tree = PackedRTree::build(ds.objects(), 8, 2);
        let mut c = Counters::new();
        let q = Aabb::new(Point3::ORIGIN, Point3::splat(1.5));
        tree.query(&q, &mut c, |_| {});
        assert!(c.comparisons > 0, "leaf entries must be tested");
        assert!(c.node_tests > 0, "inner nodes must be tested");
        // A selective query must not test every object in the dataset.
        assert!(c.comparisons < ds.len() as u64, "query should prune most leaves");
    }

    #[test]
    fn paper_default_configuration() {
        let ds = lattice(4);
        let tree = PackedRTree::paper_default(ds.objects());
        assert_eq!(tree.fanout(), 2);
        assert_eq!(tree.leaf_capacity(), 64);
        assert_eq!(tree.len(), 64);
        assert_eq!(tree.height(), 1, "64 objects fit in one paper-sized leaf");
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 2")]
    fn fanout_one_is_rejected() {
        let ds = lattice(2);
        let _ = PackedRTree::build(ds.objects(), 4, 1);
    }
}
