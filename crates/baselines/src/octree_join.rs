//! Octree join — the 3-D quadtree double-index traversal of Section 2.2.1.
//!
//! Both datasets are indexed with region octrees built over the same joint extent and
//! with the same split structure is *not* required: the join simply walks the leaves
//! of the A-octree and, for each leaf, joins the objects assigned to it against the
//! B-objects whose octree candidates overlap that region. Because the octrees use
//! multiple assignment (objects are duplicated into every overlapping leaf, like the
//! R+-tree), the same pair can be discovered in several leaves and must be
//! de-duplicated — the paper's argument for why TOUCH avoids this style of indexing.
//! De-duplication uses the same reference-point rule as PBSM, so no extra result
//! memory is needed.
//!
//! This baseline is not part of the paper's measured suite (the paper discusses it in
//! related work); it is included to complete the design-space coverage and as an
//! additional correctness cross-check.

use crate::join_extent;
use touch_core::{
    deliver, join_contained, kernels, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::{Dataset, SpatialObject};
use touch_index::Octree;
use touch_metrics::{vec_bytes, MemoryUsage, Phase, RunReport};

/// The octree double-index join.
#[derive(Debug, Clone, Copy)]
pub struct OctreeJoin {
    leaf_capacity: usize,
    max_depth: u32,
}

impl OctreeJoin {
    /// Octree join with an explicit leaf capacity and maximum depth.
    pub fn new(leaf_capacity: usize, max_depth: u32) -> Self {
        OctreeJoin { leaf_capacity, max_depth }
    }

    /// A default configuration comparable to the R-tree baselines (32-object leaves).
    pub fn with_defaults() -> Self {
        OctreeJoin { leaf_capacity: 32, max_depth: 8 }
    }
}

impl Default for OctreeJoin {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl SpatialJoinAlgorithm for OctreeJoin {
    fn name(&self) -> String {
        "Octree".to_string()
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

            let Some(extent) = join_extent(a, b) else {
                report.counters = counters;
                return;
            };

            // Index both datasets over the joint extent.
            let (tree_a, tree_b) = report.timer.time(Phase::Build, || {
                (
                    Octree::build(extent, a.objects(), self.leaf_capacity, self.max_depth),
                    Octree::build(extent, b.objects(), self.leaf_capacity, self.max_depth),
                )
            });
            counters.replicas += (tree_a.total_assignments() - a.len()) as u64
                + (tree_b.total_assignments() - b.len()) as u64;

            // Join: for every non-empty A leaf, fetch the B candidates overlapping the
            // leaf region and compare, reporting a pair only from the leaf containing its
            // reference point.
            let mut peak_scratch = 0usize;
            let mut suppressed = 0u64;
            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                let mut scratch_a: Vec<SpatialObject> = Vec::new();
                let mut scratch_b: Vec<SpatialObject> = Vec::new();
                tree_a.for_each_leaf(|region, ids_a| {
                    if sink.is_done() {
                        return;
                    }
                    let candidates_b = tree_b.query_candidates(region);
                    if candidates_b.is_empty() {
                        return;
                    }
                    scratch_a.clear();
                    scratch_b.clear();
                    scratch_a.extend(ids_a.iter().map(|&id| *a.get(id)));
                    scratch_b.extend(candidates_b.iter().map(|&id| *b.get(id)));
                    peak_scratch = peak_scratch.max(vec_bytes(&scratch_a) + vec_bytes(&scratch_b));
                    kernels::plane_sweep(
                        &mut scratch_a,
                        &mut scratch_b,
                        &mut counters,
                        &mut |ia, ib| {
                            let rp = a.get(ia).mbr.intersection_reference_point(&b.get(ib).mbr);
                            if tree_a.owns_point(region, &rp) {
                                deliver(sink, ia, ib, &mut results)
                            } else {
                                suppressed += 1;
                                !sink.is_done()
                            }
                        },
                    );
                });
            });
            counters.duplicates_suppressed += suppressed;

            counters.results += results;
            report.counters = counters;
            report.memory_bytes = tree_a.memory_bytes() + tree_b.memory_bytes() + peak_scratch;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedLoopJoin;
    use touch_core::collect_join;
    use touch_geom::{Aabb, Point3};

    fn sample(n: usize, seed: u64, spread: f64) -> Dataset {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * spread, next() * spread, next() * spread);
            Aabb::new(min, min + Point3::splat(0.2 + next() * 2.5))
        }))
    }

    #[test]
    fn matches_nested_loop_without_duplicates() {
        let a = sample(300, 1, 50.0);
        let b = sample(400, 2, 50.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (pairs, report) = collect_join(&OctreeJoin::with_defaults(), &a, &b);
        assert_eq!(pairs, expected);
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), pairs.len());
        assert!(report.memory_bytes > 0);
    }

    #[test]
    fn replication_is_reported() {
        // Large objects straddling octant boundaries must be replicated.
        let mut a = sample(200, 3, 30.0);
        a.push_mbr(Aabb::new(Point3::splat(1.0), Point3::splat(29.0)));
        let b = sample(300, 4, 30.0);
        let (_, report) = collect_join(&OctreeJoin::new(8, 6), &a, &b);
        assert!(report.counters.replicas > 0, "octree multiple assignment must replicate");
    }

    #[test]
    fn alternate_configurations_agree() {
        let a = sample(250, 5, 40.0);
        let b = sample(250, 6, 40.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        for (cap, depth) in [(4, 4), (16, 6), (64, 2)] {
            let (pairs, _) = collect_join(&OctreeJoin::new(cap, depth), &a, &b);
            assert_eq!(pairs, expected, "configuration ({cap},{depth}) changed the result");
        }
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new();
        let b = sample(10, 7, 10.0);
        let (pairs, _) = collect_join(&OctreeJoin::with_defaults(), &empty, &b);
        assert!(pairs.is_empty());
    }
}
