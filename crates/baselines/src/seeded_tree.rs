//! Seeded-tree join (Lo & Ravishankar, SIGMOD '94) — Section 2.2.2 of the paper.
//!
//! The seeded tree assumes one dataset (A) is already indexed with an R-tree and uses
//! the *top levels of that index as seeds* to build the R-tree on dataset B: every
//! object of B is routed to the seed slot whose MBR needs the least enlargement, and
//! each slot's objects are bulk-grown into their own subtree. Because the two trees
//! are aligned, the subsequent synchronous traversal compares far fewer bounding
//! boxes than two independently built trees would.
//!
//! Like the octree join, this baseline is discussed in the paper's related work but
//! not part of its measured suite; it completes the "one dataset indexed" design
//! space next to the indexed nested loop.

use crate::rtree_join::sync_traverse;
use touch_core::{
    deliver, join_contained, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::{Aabb, Dataset, SpatialObject};
use touch_index::PackedRTree;
use touch_metrics::{vec_bytes, MemoryUsage, Phase, RunReport};

/// The seeded-tree spatial join.
#[derive(Debug, Clone, Copy)]
pub struct SeededTreeJoin {
    leaf_capacity: usize,
    fanout: usize,
    /// Minimum number of seed slots carved out of the A-tree's top levels.
    min_seeds: usize,
}

impl SeededTreeJoin {
    /// Seeded-tree join with an explicit R-tree configuration and seed count.
    pub fn new(leaf_capacity: usize, fanout: usize, min_seeds: usize) -> Self {
        assert!(min_seeds > 0, "at least one seed slot is required");
        SeededTreeJoin { leaf_capacity, fanout, min_seeds }
    }

    /// The paper-comparable configuration: the R-tree settings of the other R-tree
    /// baselines and 16 seed slots.
    pub fn paper_comparable() -> Self {
        SeededTreeJoin { leaf_capacity: 64, fanout: 2, min_seeds: 16 }
    }

    /// Picks the seed MBRs: the nodes of the highest A-tree level that has at least
    /// `min_seeds` nodes (or the leaf level for shallow trees).
    fn seed_mbrs(&self, tree: &PackedRTree) -> Vec<Aabb> {
        if tree.is_empty() {
            return Vec::new();
        }
        // Walk levels from the root downwards until one is wide enough.
        #[allow(clippy::expect_used)] // is_empty() returned above
        let mut level_nodes: Vec<usize> = vec![tree.root_index().expect("non-empty tree")];
        loop {
            let wide_enough = level_nodes.len() >= self.min_seeds;
            let all_leaves = level_nodes.iter().all(|&i| tree.node(i).is_leaf());
            if wide_enough || all_leaves {
                return level_nodes.iter().map(|&i| tree.node(i).mbr).collect();
            }
            let mut next = Vec::with_capacity(level_nodes.len() * self.fanout);
            for &idx in &level_nodes {
                let node = tree.node(idx);
                if node.is_leaf() {
                    next.push(idx);
                } else {
                    next.extend(tree.child_indices(node));
                }
            }
            level_nodes = next;
        }
    }
}

impl Default for SeededTreeJoin {
    fn default() -> Self {
        Self::paper_comparable()
    }
}

impl SpatialJoinAlgorithm for SeededTreeJoin {
    fn name(&self) -> String {
        "Seeded tree".to_string()
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

            // The existing index on dataset A.
            let tree_a = report.timer.time(Phase::Build, || {
                PackedRTree::build(a.objects(), self.leaf_capacity, self.fanout)
            });
            let seeds = self.seed_mbrs(&tree_a);

            // Seed the B-tree: route every B object to the slot needing least enlargement,
            // then bulk-grow one subtree per slot.
            let slots: Vec<Vec<SpatialObject>> = report.timer.time(Phase::Assignment, || {
                let mut slots: Vec<Vec<SpatialObject>> = vec![Vec::new(); seeds.len().max(1)];
                for ob in b.iter() {
                    let slot = best_slot(&seeds, &ob.mbr);
                    slots[slot].push(*ob);
                }
                slots
            });
            let slot_trees: Vec<PackedRTree> = report.timer.time(Phase::Assignment, || {
                slots
                    .iter()
                    .map(|objs| PackedRTree::build(objs, self.leaf_capacity, self.fanout))
                    .collect()
            });

            // Join: synchronous traversal of the A-tree against every grown subtree.
            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                let mut emit = |ia, ib| deliver(sink, ia, ib, &mut results);
                if let Some(root_a) = tree_a.root_index() {
                    for slot_tree in &slot_trees {
                        if let Some(root_b) = slot_tree.root_index() {
                            if !sync_traverse(
                                &tree_a,
                                slot_tree,
                                root_a,
                                root_b,
                                &mut counters,
                                &mut emit,
                            ) {
                                break;
                            }
                        }
                    }
                }
            });

            counters.results += results;
            report.counters = counters;
            report.memory_bytes = tree_a.memory_bytes()
                + slot_trees.iter().map(MemoryUsage::memory_bytes).sum::<usize>()
                + slots.iter().map(vec_bytes).sum::<usize>();
        })
    }
}

/// The slot whose seed MBR needs the least volume enlargement to cover `mbr`
/// (ties broken by the smaller resulting volume, then by index).
fn best_slot(seeds: &[Aabb], mbr: &Aabb) -> usize {
    if seeds.is_empty() {
        return 0;
    }
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_volume = f64::INFINITY;
    for (i, seed) in seeds.iter().enumerate() {
        let grown = seed.union(mbr);
        let enlargement = grown.volume() - seed.volume();
        if enlargement < best_enlargement
            || (enlargement == best_enlargement && grown.volume() < best_volume)
        {
            best = i;
            best_enlargement = enlargement;
            best_volume = grown.volume();
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedLoopJoin;
    use touch_core::collect_join;
    use touch_geom::Point3;

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
    fn matches_nested_loop() {
        let a = sample(300, 1, 50.0);
        let b = sample(450, 2, 50.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (pairs, report) = collect_join(&SeededTreeJoin::paper_comparable(), &a, &b);
        assert_eq!(pairs, expected);
        assert!(report.memory_bytes > 0);
        // No duplicates: each B object lives in exactly one slot tree.
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), pairs.len());
    }

    #[test]
    fn seed_slots_cover_the_a_tree_width() {
        let a = sample(2_000, 3, 80.0);
        let join = SeededTreeJoin::new(8, 2, 16);
        let tree = PackedRTree::build(a.objects(), 8, 2);
        let seeds = join.seed_mbrs(&tree);
        assert!(seeds.len() >= 16);
        // Every seed is contained in the root MBR.
        let root = tree.root().unwrap().mbr;
        assert!(seeds.iter().all(|s| root.contains(s)));
    }

    #[test]
    fn best_slot_prefers_containing_seed() {
        let seeds = vec![
            Aabb::new(Point3::ORIGIN, Point3::splat(10.0)),
            Aabb::new(Point3::splat(20.0), Point3::splat(30.0)),
        ];
        let inside_second = Aabb::new(Point3::splat(22.0), Point3::splat(23.0));
        assert_eq!(best_slot(&seeds, &inside_second), 1);
        let inside_first = Aabb::new(Point3::splat(1.0), Point3::splat(2.0));
        assert_eq!(best_slot(&seeds, &inside_first), 0);
        assert_eq!(best_slot(&[], &inside_first), 0);
    }

    #[test]
    fn alternate_configurations_agree() {
        let a = sample(250, 5, 40.0);
        let b = sample(350, 6, 40.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        for (cap, fanout, seeds) in [(4, 2, 4), (16, 4, 8), (64, 2, 64)] {
            let (pairs, _) = collect_join(&SeededTreeJoin::new(cap, fanout, seeds), &a, &b);
            assert_eq!(
                pairs, expected,
                "configuration ({cap},{fanout},{seeds}) changed the result"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new();
        let b = sample(10, 7, 10.0);
        let (pairs, _) = collect_join(&SeededTreeJoin::default(), &empty, &b);
        assert!(pairs.is_empty());
        let (pairs, _) = collect_join(&SeededTreeJoin::default(), &b, &empty);
        assert!(pairs.is_empty());
    }
}
