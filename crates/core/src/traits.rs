//! The spatial-join algorithm interface and the legacy convenience wrappers.
//!
//! [`SpatialJoinAlgorithm`] is the engine-side contract: report every intersecting
//! pair into a [`PairSink`] and fill in a [`RunReport`]. The user-side entrypoint
//! is the [`crate::JoinQuery`] builder, which owns predicate translation (ε
//! extension), report labelling and sink lifecycle; the free functions here
//! ([`distance_join`], [`collect_join`], [`count_join`]) are thin wrappers over it
//! kept for existing call sites — see `MIGRATION.md` at the workspace root.

use crate::control::{catch_phase, ExecControl, JoinError};
use crate::plan::JoinPlan;
use crate::{CollectingSink, CountingSink, JoinQuery, PairSink, Predicate, SelfPairSink};
use touch_geom::{Dataset, ObjectId};
use touch_metrics::{Phase, RunReport};

/// The shape of a join: two datasets, or one dataset joined with itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shape {
    /// `a ⋈ b`: every intersecting pair `(id_a, id_b)`, identities included
    /// when the two datasets share objects.
    #[default]
    Pair,
    /// `a ⋈ a`: every **unordered** pair `(x, y)` with `x < y` whose members
    /// intersect, exactly once — identity pairs are skipped, and of each
    /// mirrored duplicate only the index-ordered orientation survives.
    ///
    /// The engine still receives two datasets so the query layer can apply the
    /// ε extension to one side: `a` is the (possibly extended) probe-side view
    /// and `b` the original dataset, with identical, aligned object ids.
    /// Extension of one side is sufficient for a distance self-join because
    /// per-axis AABB extension is symmetric: `ext(x) ∩ y ⟺ ext(y) ∩ x`.
    SelfJoin,
}

/// A two-way spatial intersection join over MBR datasets.
///
/// Implemented by [`crate::TouchJoin`], the parallel and streaming engines, and by
/// every baseline in `touch-baselines` (nested loop, plane-sweep, PBSM, S3, indexed
/// nested loop, synchronous R-tree traversal, octree, seeded tree). An
/// implementation must report **every** pair `(a, b)` with
/// `a.mbr.intersects(b.mbr)` **exactly once** into the sink — the paper's
/// completeness, soundness and no-duplication guarantees (Theorem 1, Lemma 3) —
/// and fill in the [`RunReport`] counters it is responsible for. The only
/// exception to completeness is an early-terminating sink: once
/// [`PairSink::is_done`] is observed the engine may stop enumerating.
///
/// The trait is object-safe: engines are driven as `&dyn SpatialJoinAlgorithm`
/// with a `&mut dyn PairSink`, which is how [`crate::JoinQuery`] dispatches over
/// heterogeneous engines. It has one entry point, [`SpatialJoinAlgorithm::try_join`];
/// the infallible, untraced conveniences live on [`crate::JoinQuery`].
pub trait SpatialJoinAlgorithm {
    /// Human-readable name used in reports and figures (e.g. `"TOUCH"`, `"PBSM-500"`).
    fn name(&self) -> String;

    /// The [`JoinPlan`] this engine would execute for `a` and `b` joined in
    /// `shape`, if it is a planned engine: the TOUCH engines return the
    /// faithful translation of their configuration (or the pinned plan they
    /// were built from), the auto engines return the planner's output (a
    /// self-join is costed on one dataset's statistics, its pair estimate
    /// halved). Baselines — which have no TOUCH plan — return `None` (the
    /// default).
    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape) -> Option<JoinPlan> {
        let _ = (a, b, shape);
        None
    }

    /// Joins datasets `a` and `b` in `shape`, pushing every result pair into
    /// `sink` exactly once, and records phase times, counters and memory into
    /// `report`.
    ///
    /// The caller creates `report` (via [`RunReport::new`]) and owns its identity
    /// fields — label, dataset sizes and `epsilon`, which the query layer sets
    /// **before** the join runs so partial records emitted mid-run already carry
    /// it. The engine must only *add* its measurements, never reset the report.
    ///
    /// Contract:
    ///
    /// * `ctl.cancel` is polled cooperatively (between phases and at chunk /
    ///   node granularity in the TOUCH engines); a tripped token stops the run
    ///   in an orderly way and returns `Ok(())` with the **partial** report's
    ///   [`completion`](RunReport::completion) stamped
    ///   [`Cancelled`](touch_metrics::Completion::Cancelled) or
    ///   [`DeadlineExceeded`](touch_metrics::Completion::DeadlineExceeded) —
    ///   cancellation of a report-producing run is not an error,
    /// * a panic inside the engine is contained and surfaces as
    ///   `Err(`[`JoinError::WorkerPanicked`]`)` with the phase and worker
    ///   attributed,
    /// * `ctl.trace` receives execution spans (per-node local joins, assignment
    ///   chunks, steals, epochs) from the engines that have them; **tracing
    ///   must not influence the join** — pairs and counters are bit-identical
    ///   whatever the sink,
    /// * with a never-triggering token and no panic the run is complete.
    ///
    /// Engines without internal cancel points implement this with
    /// [`join_contained`].
    fn try_join(
        &self,
        a: &Dataset,
        b: &Dataset,
        shape: Shape,
        sink: &mut dyn PairSink,
        report: &mut RunReport,
        ctl: ExecControl<'_>,
    ) -> Result<(), JoinError>;
}

/// [`SpatialJoinAlgorithm::try_join`] for an engine without internal cancel
/// points: checks the token once up front, then runs `join` — the engine's
/// plain two-dataset join of the datasets it captured — inside one
/// [`catch_phase`] attributed to [`Phase::Join`] / worker 0.
///
/// For [`Shape::SelfJoin`] the sink is wrapped in a [`SelfPairSink`], so
/// `join` enumerates both orientations and the filter keeps each unordered
/// pair once; the post-filter results counter is re-derived on every orderly
/// exit, keeping partial reports consistent with what the sink observed.
pub fn join_contained(
    shape: Shape,
    sink: &mut dyn PairSink,
    report: &mut RunReport,
    ctl: ExecControl<'_>,
    join: impl FnOnce(&mut dyn PairSink, &mut RunReport),
) -> Result<(), JoinError> {
    if let Some(cause) = ctl.cancel.triggered() {
        report.completion = cause.completion();
        return Ok(());
    }
    match shape {
        Shape::Pair => catch_phase(Phase::Join, 0, || join(sink, report)),
        Shape::SelfJoin => {
            let mut filter = SelfPairSink::new(sink);
            catch_phase(Phase::Join, 0, || join(&mut filter, report))?;
            report.counters.results = filter.delivered();
            Ok(())
        }
    }
}

impl<T: SpatialJoinAlgorithm + ?Sized> SpatialJoinAlgorithm for &T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape) -> Option<JoinPlan> {
        (**self).plan_for(a, b, shape)
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
        (**self).try_join(a, b, shape, sink, report, ctl)
    }
}

impl<T: SpatialJoinAlgorithm + ?Sized> SpatialJoinAlgorithm for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape) -> Option<JoinPlan> {
        (**self).plan_for(a, b, shape)
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
        (**self).try_join(a, b, shape, sink, report, ctl)
    }
}

/// Runs `algo` as a **distance join** with threshold `eps`.
///
/// Equivalent to `JoinQuery::new(a, b).predicate(Predicate::WithinDistance(eps))
/// .engine(algo).run(sink)`: following Section 4 of the paper, the distance join
/// is translated into an intersection join by enlarging every MBR of dataset A by
/// `eps` and testing the enlarged boxes against dataset B. The returned report
/// carries `eps` so the experiment harness can label its rows.
pub fn distance_join(
    algo: &dyn SpatialJoinAlgorithm,
    a: &Dataset,
    b: &Dataset,
    eps: f64,
    sink: &mut dyn PairSink,
) -> RunReport {
    JoinQuery::new(a, b).predicate(Predicate::WithinDistance(eps)).engine(algo).run(sink)
}

/// Convenience wrapper: runs an intersection join and returns the materialised,
/// lexicographically sorted result pairs together with the report.
pub fn collect_join(
    algo: &dyn SpatialJoinAlgorithm,
    a: &Dataset,
    b: &Dataset,
) -> (Vec<(ObjectId, ObjectId)>, RunReport) {
    let mut sink = CollectingSink::new();
    let report = JoinQuery::new(a, b).engine(algo).run(&mut sink);
    (sink.sorted_pairs(), report)
}

/// Convenience wrapper: runs an intersection join in counting mode and returns the
/// report only.
pub fn count_join(algo: &dyn SpatialJoinAlgorithm, a: &Dataset, b: &Dataset) -> RunReport {
    JoinQuery::new(a, b).engine(algo).run(&mut CountingSink::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Point3};

    /// A deliberately naive reference implementation used to test the wrappers.
    struct BruteForce;

    impl SpatialJoinAlgorithm for BruteForce {
        fn name(&self) -> String {
            "BruteForce".into()
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
                'scan: for oa in a.iter() {
                    for ob in b.iter() {
                        report.counters.record_comparison();
                        if oa.mbr.intersects(&ob.mbr) {
                            if sink.is_done() {
                                break 'scan;
                            }
                            report.counters.record_result();
                            sink.push(oa.id, ob.id);
                        }
                    }
                }
            })
        }
    }

    fn boxes(offsets: &[f64]) -> Dataset {
        Dataset::from_mbrs(offsets.iter().map(|&x| {
            let min = Point3::new(x, 0.0, 0.0);
            Aabb::new(min, min + Point3::splat(1.0))
        }))
    }

    #[test]
    fn distance_join_extends_only_a() {
        let a = boxes(&[0.0]);
        let b = boxes(&[3.0]);
        // Gap of 2 between the boxes.
        let algo = BruteForce;
        let mut sink = CountingSink::new();
        let miss = distance_join(&algo, &a, &b, 1.0, &mut sink);
        assert_eq!(miss.result_pairs(), 0);
        assert_eq!(miss.epsilon, 1.0);
        let mut sink = CountingSink::new();
        let hit = distance_join(&algo, &a, &b, 2.0, &mut sink);
        assert_eq!(hit.result_pairs(), 1);
        assert_eq!(hit.epsilon, 2.0);
    }

    #[test]
    fn collect_and_count_wrappers_agree() {
        let a = boxes(&[0.0, 2.0, 4.0]);
        let b = boxes(&[0.5, 10.0]);
        let algo = BruteForce;
        let (pairs, report) = collect_join(&algo, &a, &b);
        let count_report = count_join(&algo, &a, &b);
        assert_eq!(pairs.len() as u64, report.result_pairs());
        assert_eq!(report.result_pairs(), count_report.result_pairs());
        assert_eq!(pairs, vec![(0, 0)]);
        assert_eq!(report.counters.comparisons, 6);
    }

    #[test]
    fn default_join_builds_a_labelled_report() {
        let a = boxes(&[0.0]);
        let b = boxes(&[0.5]);
        let mut sink = CollectingSink::new();
        let report = JoinQuery::new(&a, &b).engine(BruteForce).run(&mut sink);
        assert_eq!(report.algorithm, "BruteForce");
        assert_eq!((report.dataset_a, report.dataset_b), (1, 1));
        assert_eq!(sink.pairs(), &[(0, 0)]);
    }

    #[test]
    fn default_self_join_filters_identities_and_mirrors() {
        // Boxes 0 and 1 overlap; box 2 is far away. A⋈A enumerates 5 raw hits
        // ((0,0),(0,1),(1,0),(1,1),(2,2)); the self-join keeps exactly (0,1).
        let a = boxes(&[0.0, 0.5, 10.0]);
        let mut sink = CollectingSink::new();
        let report = JoinQuery::self_join(&a).engine(BruteForce).run(&mut sink);
        assert_eq!(sink.pairs(), &[(0, 1)]);
        assert_eq!(report.result_pairs(), 1, "results counter is post-filter");
        assert_eq!((report.dataset_a, report.dataset_b), (3, 3));
    }

    #[test]
    fn blanket_impls_delegate() {
        let algo = BruteForce;
        let by_ref: &dyn SpatialJoinAlgorithm = &&algo;
        assert_eq!(by_ref.name(), "BruteForce");
        let boxed: Box<dyn SpatialJoinAlgorithm> = Box::new(BruteForce);
        let a = boxes(&[0.0]);
        let b = boxes(&[0.5]);
        let (pairs, _) = collect_join(&boxed, &a, &b);
        assert_eq!(pairs, vec![(0, 0)]);
    }
}
