//! # touch-baselines — the competitor algorithms of the TOUCH evaluation
//!
//! The paper compares TOUCH against every in-memory spatial join it could reasonably
//! be compared with (Section 2 and Section 6): the two genuinely in-memory approaches
//! (nested loop and plane-sweep) and four disk-based approaches executed in memory
//! (PBSM, S3, indexed nested loop and the synchronous R-tree traversal). All six are
//! implemented here from scratch on top of the `touch-index` substrates and the
//! `touch-core` join interface, with the same counting conventions as TOUCH so the
//! reproduced figures compare like with like.
//!
//! | Algorithm | Paper section | Type |
//! |---|---|---|
//! | [`NestedLoopJoin`] | §2.1 | in-memory, no index |
//! | [`PlaneSweepJoin`] | §2.1 | in-memory, sort-based |
//! | [`PbsmJoin`] (PBSM-100 / PBSM-500) | §2.2.3 | multiple assignment grid |
//! | [`S3Join`] | §2.2.3 | multiple matching, hierarchical grids |
//! | [`IndexedNestedLoopJoin`] | §2.2.2 | one dataset indexed (R-tree) |
//! | [`RTreeSyncJoin`] | §2.2.1 | both datasets indexed (R-trees) |
//!
//! Two further approaches the paper discusses in related work but does not measure
//! are also provided for completeness: [`OctreeJoin`] (the 3-D quadtree double-index
//! traversal with duplicated objects, §2.2.1) and [`SeededTreeJoin`] (the seeded-tree
//! join, §2.2.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod indexed_nl;
mod nested_loop;
mod octree_join;
mod pbsm;
mod plane_sweep;
mod rtree_join;
mod s3;
mod seeded_tree;

pub use indexed_nl::IndexedNestedLoopJoin;
pub use nested_loop::NestedLoopJoin;
pub use octree_join::OctreeJoin;
pub use pbsm::PbsmJoin;
pub use plane_sweep::PlaneSweepJoin;
pub use rtree_join::RTreeSyncJoin;
pub use s3::S3Join;
pub use seeded_tree::SeededTreeJoin;

use touch_core::{SpatialJoinAlgorithm, TouchJoin};
use touch_geom::{Aabb, Dataset};

/// The full algorithm suite of the paper's small-dataset experiment (Figure 8):
/// NL, PS, PBSM-500, PBSM-100, S3, INL, RTree and TOUCH, each in its paper
/// configuration.
pub fn full_suite() -> Vec<Box<dyn SpatialJoinAlgorithm>> {
    vec![
        Box::new(NestedLoopJoin::new()),
        Box::new(PlaneSweepJoin::new()),
        Box::new(PbsmJoin::pbsm_500()),
        Box::new(PbsmJoin::pbsm_100()),
        Box::new(S3Join::paper_default()),
        Box::new(IndexedNestedLoopJoin::paper_default()),
        Box::new(RTreeSyncJoin::paper_default()),
        Box::new(TouchJoin::default()),
    ]
}

/// The algorithm suite of the paper's large-dataset experiments (Figures 9–12, 15,
/// 16): the quadratic NL and PS are excluded, exactly as in the paper.
pub fn large_scale_suite() -> Vec<Box<dyn SpatialJoinAlgorithm>> {
    vec![
        Box::new(PbsmJoin::pbsm_500()),
        Box::new(PbsmJoin::pbsm_100()),
        Box::new(S3Join::paper_default()),
        Box::new(IndexedNestedLoopJoin::paper_default()),
        Box::new(RTreeSyncJoin::paper_default()),
        Box::new(TouchJoin::default()),
    ]
}

/// The extent the space-oriented baselines partition: the union of both
/// datasets' extents, or `None` when either side is empty (nothing can join).
pub(crate) fn join_extent(a: &Dataset, b: &Dataset) -> Option<Aabb> {
    match (a.extent(), b.extent()) {
        (Some(ea), Some(eb)) => Some(ea.union(&eb)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_the_papers_algorithms() {
        let names: Vec<String> = full_suite().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["NL", "PS", "PBSM-500", "PBSM-100", "S3", "Indexed NL", "RTree", "TOUCH"]
        );
        let large: Vec<String> = large_scale_suite().iter().map(|a| a.name()).collect();
        assert!(!large.contains(&"NL".to_string()));
        assert!(!large.contains(&"PS".to_string()));
        assert_eq!(large.len(), 6);
    }
}
