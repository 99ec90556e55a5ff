//! The unified query layer: [`JoinQuery`], [`Predicate`] and [`IntoEngine`].
//!
//! Every one-shot join in the workspace — TOUCH at any width and all eight
//! baselines — runs through the same builder:
//!
//! ```
//! use touch_core::{CollectingSink, JoinQuery, Predicate, TouchConfig};
//! use touch_geom::{Aabb, Dataset, Point3};
//!
//! let a = Dataset::from_mbrs((0..50).map(|i| {
//!     let min = Point3::new(i as f64 * 3.0, 0.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//! let b = Dataset::from_mbrs((0..50).map(|i| {
//!     let min = Point3::new(i as f64 * 3.0 + 1.5, 0.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//!
//! let mut sink = CollectingSink::new();
//! let report = JoinQuery::new(&a, &b)
//!     .predicate(Predicate::WithinDistance(1.0))
//!     .engine(TouchConfig::default())
//!     .run(&mut sink);
//! assert_eq!(report.result_pairs() as usize, sink.pairs().len());
//! assert_eq!(report.epsilon, 1.0);
//! ```
//!
//! The query layer owns everything that used to be scattered across wrappers and
//! engines: the ε-translation of distance joins (including the scratch buffer that
//! replaces the old per-call clone of dataset A), the A/B orientation contract,
//! report identity (label, sizes, `epsilon` — set *before* the engine runs) and
//! the sink lifecycle ([`crate::PairSink::finish`] after the join).

use crate::control::{CancelToken, ExecControl, JoinError};
use crate::plan::{AutoEngine, JoinPlan};
use crate::{PairSink, Shape, SpatialJoinAlgorithm, TouchConfig, TouchJoin};
use touch_geom::{Dataset, ValidationPolicy};
use touch_metrics::{NoTrace, RunReport, TraceSink};

/// The disabled trace sink a query without `.trace(…)` runs against.
static NO_TRACE: NoTrace = NoTrace;

/// The join predicate of a [`JoinQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Predicate {
    /// Report pairs whose MBRs intersect (the default).
    #[default]
    Intersects,
    /// Report pairs whose MBRs are within distance ε of each other, translated
    /// into an intersection join by extending dataset A's MBRs by ε (Section 4 of
    /// the paper).
    WithinDistance(f64),
}

impl Predicate {
    /// The ε this predicate contributes to [`RunReport::epsilon`] (0 for a plain
    /// intersection join).
    #[inline]
    pub fn epsilon(&self) -> f64 {
        match *self {
            Predicate::Intersects => 0.0,
            Predicate::WithinDistance(eps) => eps,
        }
    }
}

/// Conversion into the boxed engine a [`JoinQuery`] runs on.
///
/// Implemented blanket-wise for everything that implements
/// [`SpatialJoinAlgorithm`] — owned engines (`TouchJoin`, a baseline struct),
/// borrowed ones (`&algo`, `&dyn SpatialJoinAlgorithm`) and boxed ones — plus
/// plain [`TouchConfig`] as shorthand for a [`TouchJoin`] with that
/// configuration. Downstream crates implement it for their own selectors (the
/// `touch` facade's `Engine` enum).
pub trait IntoEngine<'a> {
    /// Boxes `self` as the engine the query will run.
    fn into_engine(self) -> Box<dyn SpatialJoinAlgorithm + 'a>;
}

impl<'a, T: SpatialJoinAlgorithm + 'a> IntoEngine<'a> for T {
    fn into_engine(self) -> Box<dyn SpatialJoinAlgorithm + 'a> {
        Box::new(self)
    }
}

impl<'a> IntoEngine<'a> for TouchConfig {
    fn into_engine(self) -> Box<dyn SpatialJoinAlgorithm + 'a> {
        Box::new(TouchJoin::new(self))
    }
}

/// A configured spatial join over two datasets: the single entrypoint shared by
/// every engine and every result consumer.
///
/// Build with [`JoinQuery::new`], refine with the builder methods, execute with
/// [`JoinQuery::run`] against any [`PairSink`]. A query can be run multiple times
/// (e.g. against different sinks); distance queries reuse an internal scratch
/// buffer for the ε-extended dataset A across runs instead of cloning A per call.
pub struct JoinQuery<'a> {
    a: &'a Dataset,
    b: &'a Dataset,
    predicate: Predicate,
    engine: Box<dyn SpatialJoinAlgorithm + 'a>,
    /// Reused ε-extension buffer: the query layer's replacement for the old
    /// `Dataset::extended` clone inside `distance_join`.
    scratch: Option<Dataset>,
    /// Trace sink the run reports execution spans to (`None` = untraced).
    trace: Option<&'a dyn TraceSink>,
    /// Cancel token [`JoinQuery::try_run`] polls (`None` = never cancelled).
    cancel: Option<&'a CancelToken>,
    /// How [`JoinQuery::try_run`] treats invalid geometry (non-finite or
    /// inverted MBRs) in its inputs.
    validation: ValidationPolicy,
    /// Reused buffers for [`ValidationPolicy::SkipInvalid`]: the compacted
    /// (A, B) datasets, allocated on first use like the ε `scratch`.
    valid_scratch: Option<(Dataset, Dataset)>,
    /// [`Shape::SelfJoin`] for a [`JoinQuery::self_join`] (identity pairs
    /// skipped, each unordered pair once), [`Shape::Pair`] otherwise.
    shape: Shape,
}

impl std::fmt::Debug for JoinQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinQuery")
            .field("a_len", &self.a.len())
            .field("b_len", &self.b.len())
            .field("predicate", &self.predicate)
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl<'a> JoinQuery<'a> {
    /// A query joining datasets `a` and `b` with the default predicate
    /// ([`Predicate::Intersects`]) and the default engine: **automatic
    /// planning** on one worker (`AutoEngine::with_threads(1)`) — dataset
    /// statistics are collected when the query runs and every TOUCH knob
    /// (partitioning, fanout, grid sizing, the all-pairs cutoff) is derived from
    /// them by the [`JoinPlanner`](crate::JoinPlanner).
    ///
    /// Pass [`AutoEngine::new`] (the facade crate's `Engine::Auto`) to plan for
    /// the machine's parallelism, or an explicit engine with
    /// [`JoinQuery::engine`] to bypass planning entirely.
    pub fn new(a: &'a Dataset, b: &'a Dataset) -> Self {
        JoinQuery {
            a,
            b,
            predicate: Predicate::Intersects,
            engine: Box::new(AutoEngine::with_threads(1)),
            scratch: None,
            trace: None,
            cancel: None,
            validation: ValidationPolicy::default(),
            valid_scratch: None,
            shape: Shape::Pair,
        }
    }

    /// A **self-join** query over one dataset: reports every unordered pair
    /// `(x, y)` with `x < y` whose members satisfy the predicate, exactly once —
    /// identity pairs are never reported. This is the collision/sensor-detection
    /// form (`A ⋈ A`): `JoinQuery::new(&a, &a)` would instead report identities
    /// and both orientations of every pair.
    ///
    /// All builder methods apply as usual; a distance predicate extends one side
    /// into the query's scratch buffer exactly like a two-dataset query (per-axis
    /// AABB extension is symmetric, so one extended side finds every pair).
    pub fn self_join(a: &'a Dataset) -> Self {
        JoinQuery { shape: Shape::SelfJoin, ..JoinQuery::new(a, a) }
    }

    /// Sets the join predicate.
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Shorthand for `.predicate(Predicate::WithinDistance(eps))`.
    pub fn within_distance(self, eps: f64) -> Self {
        self.predicate(Predicate::WithinDistance(eps))
    }

    /// Sets the engine executing the join: a [`TouchConfig`], any
    /// [`SpatialJoinAlgorithm`] (owned, borrowed or boxed), or a facade-level
    /// selector such as the `touch` crate's `Engine` enum.
    pub fn engine(mut self, engine: impl IntoEngine<'a>) -> Self {
        self.engine = engine.into_engine();
        self
    }

    /// Attaches an execution-trace sink: the engine reports spans (phases,
    /// per-node local joins, assignment chunks, epochs) to it while running, and
    /// the returned report carries the sink's [`TraceSummary`] (node-time and
    /// candidate-count percentiles, worker utilization) in [`RunReport::trace`].
    ///
    /// Tracing is observational only: pairs and counters are bit-identical with
    /// and without a trace attached (locked down by the trace-equivalence
    /// suite). Pass a [`touch_metrics::ExecTrace`] to record; a query without
    /// `.trace(…)` runs every hook against [`touch_metrics::NoTrace`], which
    /// costs one predictable branch per hook.
    ///
    /// [`TraceSummary`]: touch_metrics::TraceSummary
    pub fn trace(mut self, trace: &'a dyn TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a [`CancelToken`] the run polls cooperatively (between phases
    /// and at chunk/node granularity inside the TOUCH engines).
    ///
    /// Only [`JoinQuery::try_run`] honours it: a token tripped by
    /// [`CancelToken::cancel`] or by its deadline
    /// ([`CancelToken::with_deadline`]) stops the run in an orderly way and
    /// yields `Ok` with a **partial** report whose
    /// [`completion`](RunReport::completion) says how the run ended. An
    /// untriggered token changes nothing: pairs and counters are bit-identical
    /// to an un-cancellable run (locked down by the cancellation-equivalence
    /// suite and the perfsmoke counter gate).
    pub fn cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets how [`JoinQuery::try_run`] treats invalid geometry — objects whose
    /// MBR has a non-finite coordinate or an inverted extent (`min > max`).
    ///
    /// [`ValidationPolicy::Reject`] (the default) fails the run with
    /// [`JoinError::InvalidInput`] naming the first offender;
    /// [`ValidationPolicy::SkipInvalid`] compacts the inputs into internal
    /// scratch datasets (invalid objects dropped, survivors **re-identified
    /// densely** in order) and records the drop count in
    /// [`RunReport::invalid_skipped`]. The policy applies to [`JoinQuery::run`]
    /// too (it is a thin wrapper over `try_run`), where a rejection panics.
    pub fn validation(mut self, policy: ValidationPolicy) -> Self {
        self.validation = policy;
        self
    }

    /// The configured predicate.
    pub fn predicate_ref(&self) -> &Predicate {
        &self.predicate
    }

    /// The [`JoinPlan`] the configured engine would execute for this query, or
    /// `None` for engines without a TOUCH plan (the baselines).
    ///
    /// For a distance query the plan is computed over the ε-extended dataset A —
    /// exactly what the engine will see — reusing the query's extension
    /// scratch, with the query's ε, which the run plans with too.
    /// The plan is recomputed per call (planning is a cheap linear pass); note
    /// that an auto engine may still refine the *strategy* at run time from
    /// sink hints ([`PairSink::pair_limit`]) the query cannot know here.
    pub fn plan(&mut self) -> Option<JoinPlan> {
        let eps = self.predicate.epsilon();
        let a_run: &Dataset = if eps > 0.0 {
            let scratch = self.scratch.get_or_insert_with(Dataset::new);
            self.a.extend_into(eps, scratch);
            scratch
        } else {
            self.a
        };
        self.engine.plan_for(a_run, self.b, self.shape, eps)
    }

    /// The name of the configured engine (the label runs will carry).
    pub fn engine_name(&self) -> String {
        self.engine.name()
    }

    /// Executes the query, pushing every result pair into `sink` and returning
    /// the measurement report.
    ///
    /// Responsibilities handled here, identically for every engine:
    ///
    /// * **ε-translation** — for [`Predicate::WithinDistance`], dataset A's MBRs
    ///   are extended by ε into a scratch buffer that is reused across runs of
    ///   this query (no per-call clone of A), and the intersection join runs over
    ///   the extended boxes.
    /// * **Report identity** — the report is created with the engine's label and
    ///   the *original* dataset sizes, and [`RunReport::epsilon`] is set **before**
    ///   the engine runs, so partial records the engine emits mid-run (cumulative
    ///   streaming reports, progress rows) already carry it.
    /// * **Orientation** — pairs always arrive as `(id_in_A, id_in_B)`, no matter
    ///   which side the engine indexed.
    /// * **Sink lifecycle** — [`PairSink::finish`] is invoked exactly once after
    ///   the engine returns (also after an early termination).
    pub fn run(&mut self, sink: &mut dyn PairSink) -> RunReport {
        let eps = self.predicate.epsilon();
        debug_assert!(eps >= 0.0, "distance-join ε must be non-negative, got {eps}");
        self.try_run(sink).unwrap_or_else(|e| panic!("join failed: {e}"))
    }

    /// Fallible form of [`JoinQuery::run`]: the identical join (`run` is this
    /// plus a panic on `Err`), with input validation, cooperative cancellation
    /// and panic containment.
    ///
    /// On top of `run`'s responsibilities (ε-translation, report identity,
    /// orientation, sink lifecycle) this entry point:
    ///
    /// * **validates the inputs** per [`JoinQuery::validation`] — a non-finite
    ///   or negative ε, or (under [`ValidationPolicy::Reject`]) an invalid MBR,
    ///   yields [`JoinError::InvalidInput`] before any phase runs; under
    ///   [`ValidationPolicy::SkipInvalid`] offenders are dropped and counted in
    ///   [`RunReport::invalid_skipped`],
    /// * **polls the attached [`CancelToken`]** ([`JoinQuery::cancel`]): a
    ///   tripped token ends the run in an orderly way with `Ok` and a partial
    ///   report stamped via [`RunReport::completion`] — cancellation is not an
    ///   error when there is a report to return,
    /// * **contains engine panics**, surfacing them as
    ///   [`JoinError::WorkerPanicked`] with the phase and worker attributed.
    ///
    /// [`PairSink::finish`] runs exactly once on every orderly exit (complete
    /// or cancelled); after `Err` the sink's contents are unspecified and
    /// `finish` is **not** invoked.
    pub fn try_run(&mut self, sink: &mut dyn PairSink) -> Result<RunReport, JoinError> {
        let eps = self.predicate.epsilon();
        if !eps.is_finite() || eps < 0.0 {
            return Err(JoinError::InvalidInput {
                detail: format!("distance-join ε must be finite and non-negative, got {eps}"),
            });
        }
        let mut report = RunReport::new(self.engine.name(), self.a.len(), self.b.len());
        report.epsilon = eps;

        // Validation resolves the (possibly compacted) base datasets first; the
        // ε extension then runs over the compacted A so dropped objects never
        // reach the engine.
        let same_input = std::ptr::eq(self.a, self.b);
        let (a_base, b_run): (&Dataset, &Dataset) = match self.validation {
            ValidationPolicy::Reject => {
                self.a
                    .validate()
                    .map_err(|e| JoinError::InvalidInput { detail: format!("dataset A: {e}") })?;
                if !same_input {
                    self.b.validate().map_err(|e| JoinError::InvalidInput {
                        detail: format!("dataset B: {e}"),
                    })?;
                }
                (self.a, self.b)
            }
            ValidationPolicy::SkipInvalid => {
                let (fa, fb) = self.valid_scratch.get_or_insert_with(Default::default);
                let mut skipped = self.a.retain_valid_into(fa);
                if same_input {
                    fb.clone_from(fa);
                } else {
                    skipped += self.b.retain_valid_into(fb);
                }
                report.invalid_skipped = skipped;
                report.dataset_a = fa.len();
                report.dataset_b = fb.len();
                (fa, fb)
            }
        };

        let a_run: &Dataset = if eps > 0.0 {
            let scratch = self.scratch.get_or_insert_with(Dataset::new);
            a_base.extend_into(eps, scratch);
            scratch
        } else {
            a_base
        };

        let ctl = ExecControl {
            cancel: self.cancel.unwrap_or_else(|| CancelToken::never()),
            trace: self.trace.unwrap_or(&NO_TRACE),
        };
        self.engine.try_join(a_run, b_run, self.shape, sink, &mut report, ctl)?;
        if let Some(trace) = self.trace {
            report.trace = trace.summary();
        }
        sink.finish();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CallbackSink, CollectingSink, CountingSink, FirstKSink};
    use touch_geom::{Aabb, Point3};

    fn row(n: usize, offset: f64) -> Dataset {
        Dataset::from_mbrs((0..n).map(|i| {
            let min = Point3::new(i as f64 * 3.0 + offset, 0.0, 0.0);
            Aabb::new(min, min + Point3::splat(1.0))
        }))
    }

    #[test]
    fn default_query_plans_automatically_with_intersects() {
        let a = row(10, 0.0);
        let b = row(10, 0.5);
        let mut sink = CollectingSink::new();
        let mut query = JoinQuery::new(&a, &b);
        assert_eq!(query.engine_name(), "TOUCH-AUTO");
        assert_eq!(*query.predicate_ref(), Predicate::Intersects);
        let plan = query.plan().expect("the auto engine always has a plan");
        assert!(plan.partitions >= 1);
        let report = query.run(&mut sink);
        assert_eq!(report.algorithm, "TOUCH-AUTO → TOUCH");
        assert_eq!(report.epsilon, 0.0);
        assert_eq!(report.result_pairs(), 10);
        assert_eq!(sink.count(), 10);
        let executed = report.plan.expect("auto runs record their plan");
        assert_eq!(executed.strategy, "sequential");
        assert_eq!(executed.partitions, plan.partitions);
    }

    #[test]
    fn explicit_engines_report_their_plan_too() {
        let a = row(12, 0.0);
        let b = row(12, 0.5);
        let mut query = JoinQuery::new(&a, &b).engine(TouchConfig::default());
        let plan = query.plan().expect("TouchJoin translates its config into a plan");
        assert_eq!(plan.partitions, TouchConfig::default().partitions);
        let report = query.run(&mut CountingSink::new());
        assert_eq!(report.plan.unwrap().partitions, TouchConfig::default().partitions);
    }

    #[test]
    fn distance_predicate_extends_a_on_the_fly() {
        let a = row(10, 0.0); // boxes at 3i..3i+1
        let b = row(10, 1.5); // gap of 0.5 to each neighbour
        let mut miss = CountingSink::new();
        let miss_report = JoinQuery::new(&a, &b).within_distance(0.2).run(&mut miss);
        assert_eq!(miss_report.result_pairs(), 0);
        assert_eq!(miss_report.epsilon, 0.2);

        let mut hit = CountingSink::new();
        let hit_report = JoinQuery::new(&a, &b).within_distance(0.6).run(&mut hit);
        assert!(hit_report.result_pairs() > 0);
        assert_eq!(hit_report.epsilon, 0.6);
        // The original dataset is untouched by the scratch extension.
        assert_eq!(a.get(0).mbr.max.x, 1.0);
    }

    #[test]
    fn rerunning_a_query_reuses_the_scratch_and_agrees() {
        let a = row(20, 0.0);
        let b = row(20, 1.2);
        let mut query = JoinQuery::new(&a, &b).within_distance(0.8);
        let mut first = CollectingSink::new();
        let r1 = query.run(&mut first);
        let mut second = CollectingSink::new();
        let r2 = query.run(&mut second);
        assert_eq!(first.sorted_pairs(), second.sorted_pairs());
        assert_eq!(r1.result_pairs(), r2.result_pairs());
    }

    #[test]
    fn engine_accepts_configs_and_references() {
        let a = row(8, 0.0);
        let b = row(8, 0.5);
        let mut via_cfg = CollectingSink::new();
        let _ = JoinQuery::new(&a, &b).engine(TouchConfig::default()).run(&mut via_cfg);
        let touch = TouchJoin::default();
        let mut via_ref = CollectingSink::new();
        let _ = JoinQuery::new(&a, &b).engine(&touch).run(&mut via_ref);
        let dynamic: &dyn SpatialJoinAlgorithm = &touch;
        let mut via_dyn = CollectingSink::new();
        let _ = JoinQuery::new(&a, &b).engine(dynamic).run(&mut via_dyn);
        assert_eq!(via_cfg.sorted_pairs(), via_ref.sorted_pairs());
        assert_eq!(via_cfg.sorted_pairs(), via_dyn.sorted_pairs());
    }

    #[test]
    fn callback_sink_streams_without_materialising() {
        let a = row(10, 0.0);
        let b = row(10, 0.5);
        let mut seen = 0u64;
        let mut sink = CallbackSink::new(|_, _| seen += 1);
        let report = JoinQuery::new(&a, &b).run(&mut sink);
        assert_eq!(sink.count(), report.result_pairs());
        assert_eq!(seen, report.result_pairs());
    }

    #[test]
    fn traced_query_attaches_a_summary_and_changes_nothing() {
        let a = row(32, 0.0);
        let b = row(32, 0.5);
        let mut plain_sink = CollectingSink::new();
        let plain = JoinQuery::new(&a, &b).engine(TouchConfig::default()).run(&mut plain_sink);

        let trace = touch_metrics::ExecTrace::new();
        let mut traced_sink = CollectingSink::new();
        let traced = JoinQuery::new(&a, &b)
            .engine(TouchConfig::default())
            .trace(&trace)
            .run(&mut traced_sink);

        assert_eq!(plain_sink.sorted_pairs(), traced_sink.sorted_pairs());
        assert_eq!(plain.counters, traced.counters, "tracing must not perturb counters");
        assert!(plain.trace.is_none());
        let summary = traced.trace.as_ref().expect("traced runs carry a summary");
        assert!(summary.node_time_us.count > 0, "per-node spans were recorded");
        assert_eq!(summary.pairs_per_node.sum, traced.result_pairs());
        assert!(!trace.is_empty());
    }

    #[test]
    fn self_join_skips_identities_and_mirrors() {
        // Boxes at 3i..3i+1: no two distinct boxes intersect, so a plain
        // intersection self-join is empty while new(&a, &a) reports identities.
        let a = row(10, 0.0);
        let mut self_sink = CollectingSink::new();
        let self_report = JoinQuery::self_join(&a).run(&mut self_sink);
        assert_eq!(self_report.result_pairs(), 0);
        let mut pair_sink = CollectingSink::new();
        let pair_report = JoinQuery::new(&a, &a).run(&mut pair_sink);
        assert_eq!(pair_report.result_pairs(), 10, "the two-dataset form keeps identities");

        // With ε = 2.5 each box reaches its neighbours (gap 2.0): 9 unordered pairs.
        let mut eps_sink = CollectingSink::new();
        let eps_report = JoinQuery::self_join(&a).within_distance(2.5).run(&mut eps_sink);
        assert_eq!(eps_report.result_pairs(), 9);
        assert!(eps_sink.sorted_pairs().iter().all(|&(x, y)| x < y));
        assert_eq!(eps_report.epsilon, 2.5);
        assert_eq!((eps_report.dataset_a, eps_report.dataset_b), (10, 10));
    }

    #[test]
    fn self_join_plans_through_the_self_planner() {
        let a = row(32, 0.0);
        let mut query = JoinQuery::self_join(&a);
        let plan = query.plan().expect("the auto engine plans self-joins");
        assert!(plan.build_on_a);
        assert_eq!(plan.estimated_work, 32, "half the naive a ⋈ a estimate");
    }

    #[test]
    fn plan_reports_the_plan_the_run_uses() {
        // Rows 3 apart with gaps of 2: a distance of 2.5 reaches the
        // neighbours, so both the pair join and the self-join find pairs.
        let a = row(40, 0.0);
        let b = row(40, 1.5);
        for threads in [1, 4] {
            for eps in [0.0, 2.5] {
                for self_join in [false, true] {
                    let query =
                        if self_join { JoinQuery::self_join(&a) } else { JoinQuery::new(&a, &b) };
                    let mut query =
                        query.within_distance(eps).engine(AutoEngine::with_threads(threads));
                    let planned = query.plan().expect("the auto engine plans").summary();
                    let report = query.run(&mut CountingSink::new());
                    let mut executed = report.plan.expect("auto runs record their plan");
                    executed.stats_time = std::time::Duration::ZERO;
                    assert_eq!(planned, executed, "eps {eps}, self-join {self_join}");
                    assert!(planned.estimate.is_some(), "the planner records its estimate");
                }
            }
        }
    }

    #[test]
    fn first_k_terminates_the_default_engine_early() {
        let a = row(64, 0.0);
        let b = row(64, 0.5);
        let mut sink = FirstKSink::new(3);
        let report = JoinQuery::new(&a, &b).run(&mut sink);
        assert_eq!(sink.count(), 3);
        assert_eq!(report.result_pairs(), 3, "results counter reflects the early stop");
    }
}
