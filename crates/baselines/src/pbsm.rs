//! PBSM — Partition Based Spatial-Merge join (Patel & DeWitt, SIGMOD '96).
//!
//! PBSM partitions the joint extent of both datasets into a uniform grid and assigns
//! every object to **all** cells it overlaps (multiple assignment). Matching cells of
//! the two assignments are then joined with a plane-sweep. Replication means a pair
//! can be found in several cells, so results are de-duplicated *during* the join with
//! the reference-point rule (Dittrich & Seeger) — like the paper's implementation,
//! which "deduplicates during the join and thus does not need additional memory".
//!
//! The paper evaluates two configurations that bracket the comparisons/memory
//! trade-off: PBSM-500 (500 cells per dimension — fastest, but roughly two orders of
//! magnitude more memory than everything else) and PBSM-100 (100 cells per
//! dimension — less memory, more comparisons).

use touch_core::{
    deliver, join_contained, kernels, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::{Aabb, Dataset};
use touch_index::{MultiAssignGrid, UniformGrid};
use touch_metrics::{vec_bytes, MemoryUsage, Phase, RunReport};

/// The PBSM spatial join.
#[derive(Debug, Clone, Copy)]
pub struct PbsmJoin {
    cells_per_dim: usize,
    label: &'static str,
    threads: usize,
}

impl PbsmJoin {
    /// PBSM with an arbitrary grid resolution (cells per dimension).
    ///
    /// # Panics
    /// Panics if `cells_per_dim` is zero.
    pub fn new(cells_per_dim: usize) -> Self {
        assert!(cells_per_dim > 0, "cells_per_dim must be positive");
        PbsmJoin { cells_per_dim, label: "PBSM", threads: 1 }
    }

    /// The paper's fast, memory-hungry configuration: 500 cells per dimension.
    pub fn pbsm_500() -> Self {
        PbsmJoin { cells_per_dim: 500, label: "PBSM-500", threads: 1 }
    }

    /// The paper's compact configuration: 100 cells per dimension.
    pub fn pbsm_100() -> Self {
        PbsmJoin { cells_per_dim: 100, label: "PBSM-100", threads: 1 }
    }

    /// A PBSM with an explicit resolution and report label (used by the experiment
    /// harness when scaling the paper's resolutions to smaller workloads).
    pub fn with_label(cells_per_dim: usize, label: &'static str) -> Self {
        assert!(cells_per_dim > 0, "cells_per_dim must be positive");
        PbsmJoin { cells_per_dim, label, threads: 1 }
    }

    /// This PBSM building its two partition grids with `threads` workers
    /// ([`MultiAssignGrid::build_parallel`]). Pairs, emission order and every
    /// counter — including replicas — are identical at any width; only the
    /// build and assignment phase wall-clock changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Grid resolution (cells per dimension).
    pub fn cells_per_dim(&self) -> usize {
        self.cells_per_dim
    }

    /// Partition-build worker count (1 = the sequential build).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl SpatialJoinAlgorithm for PbsmJoin {
    fn name(&self) -> String {
        self.label.to_string()
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
            let grid = UniformGrid::new(extent, self.cells_per_dim);

            // Partition dataset A (build) and dataset B (assignment), replicating each
            // object into every cell it overlaps.
            let grid_a = report.timer.time(Phase::Build, || {
                MultiAssignGrid::build_parallel(grid, a.objects(), self.threads)
            });
            let grid_b = report.timer.time(Phase::Assignment, || {
                MultiAssignGrid::build_parallel(grid, b.objects(), self.threads)
            });
            counters.replicas += (grid_a.replicas() + grid_b.replicas()) as u64;

            // Join matching cells with a plane-sweep; suppress duplicates with the
            // reference-point rule.
            let mut peak_scratch = 0usize;
            let mut suppressed = 0u64;
            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                let mut scratch_a = Vec::new();
                let mut scratch_b = Vec::new();
                for cell in grid_a.non_empty_cells() {
                    if sink.is_done() {
                        break;
                    }
                    let ids_a = grid_a.cell_entries(cell);
                    let ids_b = grid_b.cell_entries(cell);
                    if ids_a.is_empty() || ids_b.is_empty() {
                        continue;
                    }
                    scratch_a.clear();
                    scratch_b.clear();
                    scratch_a.extend(ids_a.iter().map(|&id| *a.get(id)));
                    scratch_b.extend(ids_b.iter().map(|&id| *b.get(id)));
                    peak_scratch = peak_scratch.max(vec_bytes(&scratch_a) + vec_bytes(&scratch_b));
                    kernels::plane_sweep(
                        &mut scratch_a,
                        &mut scratch_b,
                        &mut counters,
                        &mut |ia, ib| {
                            // A pair replicated into several cells is reported only from the
                            // cell containing the lower corner of its MBR intersection.
                            let ref_point =
                                a.get(ia).mbr.intersection_reference_point(&b.get(ib).mbr);
                            if grid.linear_index(grid.cell_of_point(&ref_point)) == cell {
                                deliver(sink, ia, ib, &mut results)
                            } else {
                                suppressed += 1;
                                !sink.is_done()
                            }
                        },
                    );
                }
            });
            counters.duplicates_suppressed += suppressed;

            counters.results += results;
            report.counters = counters;
            report.memory_bytes = grid_a.memory_bytes() + grid_b.memory_bytes() + peak_scratch;
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

    fn sample(n: usize, seed: u64, spread: f64) -> Dataset {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * spread, next() * spread, next() * spread);
            Aabb::new(min, min + Point3::splat(0.3 + next() * 2.0))
        }))
    }

    #[test]
    fn matches_nested_loop_and_deduplicates() {
        let a = sample(150, 1, 40.0);
        let b = sample(200, 2, 40.0);
        let (expected, _) = collect_join(&NestedLoopJoin::new(), &a, &b);
        for resolution in [4, 16, 50] {
            let (pairs, report) = collect_join(&PbsmJoin::new(resolution), &a, &b);
            assert_eq!(pairs, expected, "resolution {resolution} changed the result");
            let mut dedup = pairs.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), pairs.len(), "duplicates leaked at resolution {resolution}");
            assert!(report.memory_bytes > 0);
        }
    }

    #[test]
    fn finer_grids_replicate_more_and_use_more_memory() {
        // Keep the cells well above the object size (~1–2 units) so the paper's
        // PBSM-500 vs PBSM-100 trade-off applies: a finer grid needs more memory
        // (replication) but fewer comparisons.
        let a = sample(400, 3, 120.0);
        let b = sample(400, 4, 120.0);
        let (_, coarse) = collect_join(&PbsmJoin::new(5), &a, &b);
        let (_, fine) = collect_join(&PbsmJoin::new(25), &a, &b);
        assert!(fine.counters.replicas > coarse.counters.replicas);
        assert!(fine.memory_bytes > coarse.memory_bytes);
        assert!(
            fine.counters.comparisons < coarse.counters.comparisons,
            "fine: {}, coarse: {}",
            fine.counters.comparisons,
            coarse.counters.comparisons
        );
    }

    #[test]
    fn threaded_partition_build_changes_nothing_observable() {
        let a = sample(300, 7, 60.0);
        let b = sample(250, 8, 60.0);
        let (expected_pairs, expected) = collect_join(&PbsmJoin::new(12), &a, &b);
        for threads in [2, 4, 8] {
            let (pairs, report) = collect_join(&PbsmJoin::new(12).with_threads(threads), &a, &b);
            assert_eq!(pairs, expected_pairs, "{threads} threads: pairs diverged");
            assert_eq!(report.counters, expected.counters, "{threads} threads: counters diverged");
            assert_eq!(report.memory_bytes, expected.memory_bytes);
        }
        assert_eq!(PbsmJoin::new(12).with_threads(4).threads(), 4);
        assert_eq!(PbsmJoin::new(12).threads(), 1);
    }

    #[test]
    fn paper_configurations_have_expected_names() {
        assert_eq!(PbsmJoin::pbsm_500().name(), "PBSM-500");
        assert_eq!(PbsmJoin::pbsm_100().name(), "PBSM-100");
        assert_eq!(PbsmJoin::pbsm_500().cells_per_dim(), 500);
        assert_eq!(PbsmJoin::pbsm_100().cells_per_dim(), 100);
        assert_eq!(PbsmJoin::with_label(50, "PBSM-50").name(), "PBSM-50");
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new();
        let a = sample(10, 5, 10.0);
        let (pairs, report) = collect_join(&PbsmJoin::new(10), &empty, &a);
        assert!(pairs.is_empty());
        assert_eq!(report.result_pairs(), 0);
    }
}
