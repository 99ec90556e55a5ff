//! Indexed nested loop join (Section 2.2.2).
//!
//! Requires an index on one dataset only: an STR-packed R-tree is bulk-loaded on
//! dataset A and every object of dataset B is issued as a range query against it.
//! "Executing a query for each object is a substantial overhead" (the repeated
//! root-to-leaf traversals), which is why the paper finds INL slower than the
//! synchronous R-tree traversal even though both perform almost the same number of
//! object comparisons.

use touch_core::{
    deliver, join_contained, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::Dataset;
use touch_index::PackedRTree;
use touch_metrics::{MemoryUsage, Phase, RunReport};

/// The indexed nested loop join.
#[derive(Debug, Clone, Copy)]
pub struct IndexedNestedLoopJoin {
    leaf_capacity: usize,
    fanout: usize,
}

impl IndexedNestedLoopJoin {
    /// INL with an explicit R-tree configuration.
    pub fn new(leaf_capacity: usize, fanout: usize) -> Self {
        IndexedNestedLoopJoin { leaf_capacity, fanout }
    }

    /// The paper's R-tree configuration (fanout 2, ~2 KB nodes).
    pub fn paper_default() -> Self {
        IndexedNestedLoopJoin { leaf_capacity: 64, fanout: 2 }
    }
}

impl SpatialJoinAlgorithm for IndexedNestedLoopJoin {
    fn name(&self) -> String {
        "Indexed NL".to_string()
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

            // Build the index on dataset A only.
            let tree = report.timer.time(Phase::Build, || {
                PackedRTree::build(a.objects(), self.leaf_capacity, self.fanout)
            });

            // Loop over dataset B, querying the index once per object; an
            // early-terminating sink stops the probe loop between queries. The R-tree
            // query itself cannot be aborted mid-probe, so `deliver` guards every
            // push: once the sink reports done the remaining hits of the current
            // probe are discarded, keeping `results` equal to the delivered pairs.
            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                for ob in b.iter() {
                    if sink.is_done() {
                        break;
                    }
                    tree.query(&ob.mbr, &mut counters, |oa| {
                        let _ = deliver(sink, oa.id, ob.id, &mut results);
                    });
                }
            });

            counters.results += results;
            report.counters = counters;
            report.memory_bytes = tree.memory_bytes();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedLoopJoin;
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
    fn matches_nested_loop_with_far_fewer_comparisons() {
        let a = sample(300, 1);
        let b = sample(400, 2);
        let (expected, nl) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (pairs, inl) = collect_join(&IndexedNestedLoopJoin::new(16, 2), &a, &b);
        assert_eq!(pairs, expected);
        assert!(
            inl.counters.comparisons < nl.counters.comparisons / 4,
            "INL did {} comparisons, NL did {}",
            inl.counters.comparisons,
            nl.counters.comparisons
        );
        assert!(inl.counters.node_tests > 0, "per-object queries traverse the tree");
        assert!(inl.memory_bytes > 0);
    }

    #[test]
    fn alternate_tree_configurations_agree() {
        let a = sample(200, 3);
        let b = sample(150, 4);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        for (cap, fanout) in [(4, 2), (16, 4), (64, 8)] {
            let (pairs, _) = collect_join(&IndexedNestedLoopJoin::new(cap, fanout), &a, &b);
            assert_eq!(pairs, expected, "configuration ({cap},{fanout}) changed the result");
        }
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new();
        let b = sample(10, 5);
        let (pairs, _) = collect_join(&IndexedNestedLoopJoin::paper_default(), &empty, &b);
        assert!(pairs.is_empty());
        let (pairs, _) = collect_join(&IndexedNestedLoopJoin::paper_default(), &b, &empty);
        assert!(pairs.is_empty());
    }
}
