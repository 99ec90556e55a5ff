//! S3 — Size Separation Spatial Join (Koudas & Sevcik, SIGMOD '97).
//!
//! S3 avoids replication (multiple *matching* instead of multiple *assignment*): it
//! maintains a hierarchy of `L` equi-width grids of increasing granularity for each
//! dataset and assigns every object to the single cell of the finest level at which
//! the object overlaps exactly one cell. Because every object is fully contained in
//! its cell, two objects can only intersect if one object's cell encloses the
//! other's; the join therefore visits, for every non-empty cell of one hierarchy, the
//! corresponding and enclosing cells of the other hierarchy and joins the cell
//! contents with a plane-sweep.
//!
//! S3 uses space-oriented partitioning, so it degrades on skewed (clustered) data:
//! large or boundary-straddling objects are promoted towards the coarse levels where
//! they are compared against nearly everything — the behaviour the paper's Figures
//! 9–11 highlight and that TOUCH's data-oriented partitioning avoids.

use touch_core::{
    deliver, join_contained, kernels, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::{Aabb, Dataset, SpatialObject};
use touch_index::{HierGridIndex, HierarchicalGrid, LevelCell};
use touch_metrics::{vec_bytes, MemoryUsage, Phase, RunReport};

/// The S3 spatial join.
#[derive(Debug, Clone, Copy)]
pub struct S3Join {
    levels: u32,
    refinement: u32,
}

impl S3Join {
    /// S3 with an arbitrary number of levels and refinement factor between levels.
    ///
    /// # Panics
    /// Panics if `levels` is zero or `refinement < 2`.
    pub fn new(levels: u32, refinement: u32) -> Self {
        assert!(levels >= 1, "levels must be at least 1");
        assert!(refinement >= 2, "refinement must be at least 2");
        S3Join { levels, refinement }
    }

    /// The paper's configuration: "a fanout of 3 and 5 levels".
    pub fn paper_default() -> Self {
        S3Join { levels: 5, refinement: 3 }
    }

    /// Number of levels in each hierarchy.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Refinement factor between consecutive levels.
    pub fn refinement(&self) -> u32 {
        self.refinement
    }

    /// Joins the contents of two cells with a plane-sweep, counting delivered
    /// pairs into `results` and honouring the sink's early termination.
    #[allow(clippy::too_many_arguments)]
    fn join_cells(
        a: &Dataset,
        b: &Dataset,
        ids_a: &[u32],
        ids_b: &[u32],
        counters: &mut touch_metrics::Counters,
        scratch_a: &mut Vec<SpatialObject>,
        scratch_b: &mut Vec<SpatialObject>,
        sink: &mut dyn PairSink,
        results: &mut u64,
    ) {
        if ids_a.is_empty() || ids_b.is_empty() || sink.is_done() {
            return;
        }
        scratch_a.clear();
        scratch_b.clear();
        scratch_a.extend(ids_a.iter().map(|&id| *a.get(id)));
        scratch_b.extend(ids_b.iter().map(|&id| *b.get(id)));
        kernels::plane_sweep(scratch_a, scratch_b, counters, &mut |ia, ib| {
            deliver(sink, ia, ib, results)
        });
    }
}

impl SpatialJoinAlgorithm for S3Join {
    fn name(&self) -> String {
        "S3".to_string()
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
            let hier = HierarchicalGrid::new(extent, self.levels, self.refinement);

            // Build one hierarchy per dataset (single assignment, no replication).
            let index_a =
                report.timer.time(Phase::Build, || HierGridIndex::build(hier, a.objects()));
            let index_b =
                report.timer.time(Phase::Assignment, || HierGridIndex::build(hier, b.objects()));

            let mut peak_scratch = 0usize;
            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                let mut scratch_a: Vec<SpatialObject> = Vec::new();
                let mut scratch_b: Vec<SpatialObject> = Vec::new();

                // For every non-empty B cell: join with the A cell at the same position
                // and with every enclosing (coarser) A cell.
                for (cell_b, ids_b) in index_b.non_empty_cells() {
                    for level_a in 0..=cell_b.level {
                        let ancestor = hier.ancestor(cell_b, level_a);
                        if let Some(ids_a) = index_a.cell(ancestor) {
                            Self::join_cells(
                                a,
                                b,
                                ids_a,
                                ids_b,
                                &mut counters,
                                &mut scratch_a,
                                &mut scratch_b,
                                sink,
                                &mut results,
                            );
                            peak_scratch =
                                peak_scratch.max(vec_bytes(&scratch_a) + vec_bytes(&scratch_b));
                        }
                    }
                }
                // Remaining enclosing relations: A cells that are *strictly finer* than
                // the B cell enclosing them (same-level pairs were handled above).
                for (cell_a, ids_a) in index_a.non_empty_cells() {
                    for level_b in 0..cell_a.level {
                        let ancestor: LevelCell = hier.ancestor(cell_a, level_b);
                        if let Some(ids_b) = index_b.cell(ancestor) {
                            Self::join_cells(
                                a,
                                b,
                                ids_a,
                                ids_b,
                                &mut counters,
                                &mut scratch_a,
                                &mut scratch_b,
                                sink,
                                &mut results,
                            );
                            peak_scratch =
                                peak_scratch.max(vec_bytes(&scratch_a) + vec_bytes(&scratch_b));
                        }
                    }
                }
            });

            counters.results += results;
            report.counters = counters;
            report.memory_bytes = index_a.memory_bytes() + index_b.memory_bytes() + peak_scratch;
        })
    }
}

fn join_extent(a: &Dataset, b: &Dataset) -> Option<Aabb> {
    match (a.extent(), b.extent()) {
        (Some(ea), Some(eb)) => Some(ea.union(&eb)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedLoopJoin;
    use touch_core::collect_join;
    use touch_geom::Point3;

    fn sample(n: usize, seed: u64, spread: f64, max_side: f64) -> Dataset {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * spread, next() * spread, next() * spread);
            Aabb::new(min, min + Point3::splat(0.1 + next() * max_side))
        }))
    }

    #[test]
    fn matches_nested_loop_for_various_configurations() {
        let a = sample(150, 1, 50.0, 2.0);
        let b = sample(180, 2, 50.0, 2.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        for (levels, refinement) in [(2, 2), (3, 3), (5, 3), (4, 2)] {
            let (pairs, _) = collect_join(&S3Join::new(levels, refinement), &a, &b);
            assert_eq!(pairs, expected, "S3({levels},{refinement}) changed the result");
        }
    }

    #[test]
    fn handles_large_objects_via_coarse_levels() {
        // Mix tiny and huge objects: the huge ones must be promoted but still join.
        let mut a = sample(60, 3, 40.0, 1.0);
        a.push_mbr(Aabb::new(Point3::ORIGIN, Point3::splat(39.0)));
        let b = sample(80, 4, 40.0, 1.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (pairs, _) = collect_join(&S3Join::paper_default(), &a, &b);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn no_duplicates_thanks_to_single_assignment() {
        let a = sample(200, 5, 25.0, 3.0);
        let b = sample(200, 6, 25.0, 3.0);
        let (pairs, report) = collect_join(&S3Join::paper_default(), &a, &b);
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(pairs.len(), dedup.len());
        assert_eq!(report.counters.replicas, 0, "S3 never replicates objects");
        assert_eq!(report.counters.duplicates_suppressed, 0);
    }

    #[test]
    fn paper_default_configuration() {
        let s3 = S3Join::paper_default();
        assert_eq!(s3.levels(), 5);
        assert_eq!(s3.refinement(), 3);
        assert_eq!(s3.name(), "S3");
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new();
        let a = sample(10, 7, 10.0, 1.0);
        let (pairs, report) = collect_join(&S3Join::paper_default(), &a, &empty);
        assert!(pairs.is_empty());
        assert_eq!(report.result_pairs(), 0);
    }
}
