//! Synchronous R-tree traversal join (Brinkhoff, Kriegel & Seeger, SIGMOD '93).
//!
//! Both datasets are indexed with STR-packed R-trees; the join descends both trees
//! simultaneously, only expanding pairs of nodes whose MBRs intersect, and compares
//! objects when two leaves meet. The paper calls this baseline "RTree" and notes that
//! it needs almost the same number of object comparisons as the indexed nested loop
//! but is faster because the trees are traversed once, synchronously, instead of once
//! per probe object — at the cost of keeping two trees in memory.

use touch_core::{
    deliver, join_contained, kernels, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::{Dataset, ObjectId};
use touch_index::{PackedRTree, RTreeNode};
use touch_metrics::{Counters, MemoryUsage, Phase, RunReport};

/// The synchronous R-tree traversal join.
#[derive(Debug, Clone, Copy)]
pub struct RTreeSyncJoin {
    leaf_capacity: usize,
    fanout: usize,
}

impl RTreeSyncJoin {
    /// Synchronous traversal with an explicit R-tree configuration (both trees use
    /// the same parameters).
    pub fn new(leaf_capacity: usize, fanout: usize) -> Self {
        RTreeSyncJoin { leaf_capacity, fanout }
    }

    /// The paper's R-tree configuration (fanout 2, ~2 KB nodes).
    pub fn paper_default() -> Self {
        RTreeSyncJoin { leaf_capacity: 64, fanout: 2 }
    }
}

impl SpatialJoinAlgorithm for RTreeSyncJoin {
    fn name(&self) -> String {
        "RTree".to_string()
    }

    fn try_join(
        &self,
        a: &Dataset,
        b: &Dataset,
        shape: Shape,
        sink: &mut dyn PairSink,
        report: &mut RunReport,
        ctl: ExecControl<'_>,
    ) -> Result<(), JoinError> {
        join_contained(shape, sink, report, ctl, |sink, report| {
            let mut counters = std::mem::take(&mut report.counters);

            // Build one tree per dataset.
            let (tree_a, tree_b) = report.timer.time(Phase::Build, || {
                (
                    PackedRTree::build(a.objects(), self.leaf_capacity, self.fanout),
                    PackedRTree::build(b.objects(), self.leaf_capacity, self.fanout),
                )
            });

            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                if let (Some(ra), Some(rb)) = (tree_a.root_index(), tree_b.root_index()) {
                    let _ =
                        sync_traverse(&tree_a, &tree_b, ra, rb, &mut counters, &mut |ia, ib| {
                            deliver(sink, ia, ib, &mut results)
                        });
                }
            });

            counters.results += results;
            report.counters = counters;
            report.memory_bytes = tree_a.memory_bytes() + tree_b.memory_bytes();
        })
    }
}

/// Recursive synchronous traversal of two nodes whose MBRs are known (or assumed at
/// the roots) to be worth exploring. Shared with the seeded-tree join, which performs
/// the same traversal between the A-tree and each of its grown B-subtrees.
///
/// `emit` follows the early-termination convention of [`touch_core::kernels`]:
/// returning `false` aborts the whole traversal, and `sync_traverse` propagates
/// the verdict (`false` = stopped) to its caller.
pub(crate) fn sync_traverse(
    tree_a: &PackedRTree,
    tree_b: &PackedRTree,
    idx_a: usize,
    idx_b: usize,
    counters: &mut Counters,
    emit: &mut dyn FnMut(ObjectId, ObjectId) -> bool,
) -> bool {
    let node_a: &RTreeNode = tree_a.node(idx_a);
    let node_b: &RTreeNode = tree_b.node(idx_b);
    counters.record_node_test();
    if !node_a.mbr.intersects(&node_b.mbr) {
        return true;
    }
    match (node_a.is_leaf(), node_b.is_leaf()) {
        (true, true) => {
            let mut go_on = true;
            kernels::all_pairs(
                tree_a.leaf_entries(node_a),
                tree_b.leaf_entries(node_b),
                counters,
                &mut |ia, ib| {
                    go_on = emit(ia, ib);
                    go_on
                },
            );
            go_on
        }
        (false, true) => {
            for child in tree_a.child_indices(node_a) {
                if !sync_traverse(tree_a, tree_b, child, idx_b, counters, emit) {
                    return false;
                }
            }
            true
        }
        (true, false) => {
            for child in tree_b.child_indices(node_b) {
                if !sync_traverse(tree_a, tree_b, idx_a, child, counters, emit) {
                    return false;
                }
            }
            true
        }
        (false, false) => {
            // Descend the taller tree first so both reach their leaves together.
            if node_a.level >= node_b.level {
                for child in tree_a.child_indices(node_a) {
                    if !sync_traverse(tree_a, tree_b, child, idx_b, counters, emit) {
                        return false;
                    }
                }
            } else {
                for child in tree_b.child_indices(node_b) {
                    if !sync_traverse(tree_a, tree_b, idx_a, child, counters, emit) {
                        return false;
                    }
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexedNestedLoopJoin, NestedLoopJoin};
    use touch_core::collect_join;
    use touch_geom::{Aabb, Point3};

    fn sample(n: usize, seed: u64) -> Dataset {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * 60.0, next() * 60.0, next() * 60.0);
            Aabb::new(min, min + Point3::splat(0.2 + next() * 2.5))
        }))
    }

    #[test]
    fn matches_nested_loop() {
        let a = sample(300, 1);
        let b = sample(350, 2);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (pairs, report) = collect_join(&RTreeSyncJoin::paper_default(), &a, &b);
        assert_eq!(pairs, expected);
        assert!(report.counters.node_tests > 0);
        assert!(report.memory_bytes > 0);
    }

    #[test]
    fn comparable_comparisons_to_inl_but_two_trees_of_memory() {
        // The paper: INL and RTree need almost the same number of comparisons, but
        // RTree keeps one tree per dataset and therefore needs more memory.
        let a = sample(400, 3);
        let b = sample(400, 4);
        let (_, inl) = collect_join(&IndexedNestedLoopJoin::paper_default(), &a, &b);
        let (_, rt) = collect_join(&RTreeSyncJoin::paper_default(), &a, &b);
        let ratio = rt.counters.comparisons as f64 / inl.counters.comparisons.max(1) as f64;
        assert!(ratio < 3.0 && ratio > 0.3, "comparison counts should be similar, ratio {ratio}");
        assert!(rt.memory_bytes > inl.memory_bytes);
    }

    #[test]
    fn different_tree_heights_are_handled() {
        // A tiny dataset A (single leaf) joined with a large B exercises the
        // unbalanced descent paths.
        let a = sample(5, 5);
        let b = sample(500, 6);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (pairs, _) = collect_join(&RTreeSyncJoin::new(4, 2), &a, &b);
        assert_eq!(pairs, expected);
        let (pairs_rev, _) = collect_join(&RTreeSyncJoin::new(4, 2), &b, &a);
        let expected_rev: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> = expected.iter().map(|&(x, y)| (y, x)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(pairs_rev, expected_rev);
    }

    #[test]
    fn disjoint_datasets_produce_nothing_cheaply() {
        let a = sample(100, 7);
        let b = Dataset::from_mbrs((0..100).map(|i| {
            let min = Point3::new(1000.0 + i as f64, 1000.0, 1000.0);
            Aabb::new(min, min + Point3::splat(1.0))
        }));
        let (pairs, report) = collect_join(&RTreeSyncJoin::paper_default(), &a, &b);
        assert!(pairs.is_empty());
        assert_eq!(report.counters.comparisons, 0, "root MBRs do not intersect");
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new();
        let b = sample(10, 8);
        let (pairs, _) = collect_join(&RTreeSyncJoin::paper_default(), &empty, &b);
        assert!(pairs.is_empty());
    }
}
