//! The plane-sweep join (Section 2.1).

use touch_core::{
    deliver, join_contained, kernels, ExecControl, JoinError, PairSink, Shape, SpatialJoinAlgorithm,
};
use touch_geom::Dataset;
use touch_metrics::{vec_bytes, Phase, RunReport};

/// Plane-sweep join over the full datasets.
///
/// Both datasets are sorted along x and scanned synchronously; objects whose
/// x-intervals overlap are compared. Because the data is only sorted in one
/// dimension, objects far apart in y/z still get compared — the redundant
/// comparisons the paper blames for the plane-sweep's poor showing — but it remains
/// the standard local join inside partition-based approaches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneSweepJoin;

impl PlaneSweepJoin {
    /// Creates the plane-sweep join.
    pub fn new() -> Self {
        PlaneSweepJoin
    }
}

impl SpatialJoinAlgorithm for PlaneSweepJoin {
    fn name(&self) -> String {
        "PS".to_string()
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

            // Build phase: the sort working copies.
            let (mut sa, mut sb) =
                report.timer.time(Phase::Build, || (a.objects().to_vec(), b.objects().to_vec()));
            report.memory_bytes = vec_bytes(&sa) + vec_bytes(&sb);

            let mut results = 0u64;
            report.timer.time(Phase::Join, || {
                kernels::plane_sweep(&mut sa, &mut sb, &mut counters, &mut |x, y| {
                    deliver(sink, x, y, &mut results)
                });
            });
            counters.results += results;
            report.counters = counters;
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
            let min = Point3::new(next() * 30.0, next() * 30.0, next() * 30.0);
            Aabb::new(min, min + Point3::splat(next() * 2.0))
        }))
    }

    #[test]
    fn agrees_with_nested_loop_with_fewer_comparisons() {
        let a = sample(120, 1);
        let b = sample(150, 2);
        let (nl_pairs, nl_report) = collect_join(&NestedLoopJoin::new(), &a, &b);
        let (ps_pairs, ps_report) = collect_join(&PlaneSweepJoin::new(), &a, &b);
        assert_eq!(nl_pairs, ps_pairs);
        assert!(ps_report.counters.comparisons < nl_report.counters.comparisons);
        assert!(ps_report.memory_bytes > 0, "sorted working copies are accounted");
    }

    #[test]
    fn handles_empty_inputs() {
        let a = sample(10, 3);
        let empty = Dataset::new();
        let (pairs, report) = collect_join(&PlaneSweepJoin::new(), &a, &empty);
        assert!(pairs.is_empty());
        assert_eq!(report.counters.comparisons, 0);
    }
}
