//! The nested loop join — the textbook worst case (Section 2.1).

use touch_core::{
    deliver, join_contained, kernels, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::Dataset;
use touch_metrics::{Phase, RunReport};

/// Nested loop join: compares every object of A against every object of B.
///
/// `O(|A|·|B|)` comparisons, but no auxiliary data structure at all — the paper keeps
/// it in the comparison because it is "broadly used (as part of disk-based joins and
/// otherwise)" and it anchors the memory axis at zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoopJoin;

impl NestedLoopJoin {
    /// Creates the nested loop join.
    pub fn new() -> Self {
        NestedLoopJoin
    }
}

impl SpatialJoinAlgorithm for NestedLoopJoin {
    fn name(&self) -> String {
        "NL".to_string()
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
            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                kernels::all_pairs(a.objects(), b.objects(), &mut counters, &mut |x, y| {
                    deliver(sink, x, y, &mut results)
                });
            });
            counters.results += results;
            report.counters = counters;
            report.memory_bytes = 0;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_core::collect_join;
    use touch_geom::{Aabb, Point3};

    #[test]
    fn exact_comparison_count_and_results() {
        let a = Dataset::from_mbrs((0..5).map(|i| {
            let min = Point3::new(i as f64 * 2.0, 0.0, 0.0);
            Aabb::new(min, min + Point3::splat(1.0))
        }));
        let b = Dataset::from_mbrs((0..4).map(|i| {
            let min = Point3::new(i as f64 * 2.0 + 0.5, 0.0, 0.0);
            Aabb::new(min, min + Point3::splat(1.0))
        }));
        let (pairs, report) = collect_join(&NestedLoopJoin::new(), &a, &b);
        assert_eq!(report.counters.comparisons, 20);
        assert_eq!(report.memory_bytes, 0);
        // b_i = [2i+0.5, 2i+1.5] overlaps exactly a_i = [2i, 2i+1].
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(report.result_pairs(), 4);
    }

    #[test]
    fn empty_datasets() {
        let empty = Dataset::new();
        let a = Dataset::from_mbrs([Aabb::new(Point3::ORIGIN, Point3::splat(1.0))]);
        let (pairs, report) = collect_join(&NestedLoopJoin::new(), &empty, &a);
        assert!(pairs.is_empty());
        assert_eq!(report.counters.comparisons, 0);
    }
}
