//! Engine selection for [`JoinQuery`](touch_core::JoinQuery): the [`Engine`] and
//! [`Baseline`] enums.
//!
//! `touch-core` cannot name the parallel/streaming engines or the baselines (they
//! live in downstream crates), so the facade provides the closed selector that
//! spans the whole workspace. `Engine` itself implements
//! [`SpatialJoinAlgorithm`] by delegating to the selected engine, which means it
//! plugs into `JoinQuery::engine(...)` through the blanket
//! [`touch_core::IntoEngine`] impl — and doubles as a serialisable-ish "engine
//! id" for per-query engine selection in services.

use touch_baselines::{
    IndexedNestedLoopJoin, NestedLoopJoin, OctreeJoin, PbsmJoin, PlaneSweepJoin, RTreeSyncJoin,
    S3Join, SeededTreeJoin,
};
use touch_core::{
    ExecControl, ExecutionStrategy, JoinError, JoinPlan, JoinPlanner, PairSink, PlanEnv, Shape,
    SpatialJoinAlgorithm, TouchConfig, TouchJoin,
};
use touch_geom::Dataset;
use touch_metrics::RunReport;
use touch_parallel::{ParallelConfig, ParallelTouchJoin};
use touch_streaming::{OneShotStreaming, StreamingConfig};

/// One of the paper's competitor algorithms, in its evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Nested loop join (§2.1).
    NestedLoop,
    /// Plane-sweep join (§2.1).
    PlaneSweep,
    /// PBSM with 500 grid cells per dimension (§2.2.3).
    Pbsm500,
    /// PBSM with 100 grid cells per dimension (§2.2.3).
    Pbsm100,
    /// Size Separation Spatial Join (§2.2.3).
    S3,
    /// Indexed nested loop over an R-tree on dataset A (§2.2.2).
    IndexedNestedLoop,
    /// Synchronous R-tree traversal, both datasets indexed (§2.2.1).
    RTree,
    /// Octree double-index traversal (related work, §2.2.1).
    Octree,
    /// Seeded-tree join (related work, §2.2.2).
    SeededTree,
}

impl Baseline {
    /// Every baseline, in the order of the paper's Figure 8 suite (the two
    /// related-work algorithms last).
    pub const ALL: [Baseline; 9] = [
        Baseline::NestedLoop,
        Baseline::PlaneSweep,
        Baseline::Pbsm500,
        Baseline::Pbsm100,
        Baseline::S3,
        Baseline::IndexedNestedLoop,
        Baseline::RTree,
        Baseline::Octree,
        Baseline::SeededTree,
    ];

    /// Instantiates the baseline in its paper configuration.
    pub fn build(self) -> Box<dyn SpatialJoinAlgorithm> {
        match self {
            Baseline::NestedLoop => Box::new(NestedLoopJoin::new()),
            Baseline::PlaneSweep => Box::new(PlaneSweepJoin::new()),
            Baseline::Pbsm500 => Box::new(PbsmJoin::pbsm_500()),
            Baseline::Pbsm100 => Box::new(PbsmJoin::pbsm_100()),
            Baseline::S3 => Box::new(S3Join::paper_default()),
            Baseline::IndexedNestedLoop => Box::new(IndexedNestedLoopJoin::paper_default()),
            Baseline::RTree => Box::new(RTreeSyncJoin::paper_default()),
            Baseline::Octree => Box::new(OctreeJoin::with_defaults()),
            Baseline::SeededTree => Box::new(SeededTreeJoin::paper_comparable()),
        }
    }
}

/// The engine a [`JoinQuery`](touch_core::JoinQuery) executes on: the single
/// selector spanning every join implementation of the workspace.
///
/// ```
/// use touch::{CountingSink, Engine, JoinQuery, ParallelConfig, Predicate};
/// use touch::{Aabb, Dataset, Point3};
///
/// let a: Dataset = (0..100)
///     .map(|i| {
///         let min = Point3::new(i as f64 * 3.0, 0.0, 0.0);
///         Aabb::new(min, min + Point3::splat(1.0))
///     })
///     .collect();
/// let b: Dataset = (0..100)
///     .map(|i| {
///         let min = Point3::new(i as f64 * 3.0 + 1.5, 0.0, 0.0);
///         Aabb::new(min, min + Point3::splat(1.0))
///     })
///     .collect();
///
/// let mut sink = CountingSink::new();
/// let report = JoinQuery::new(&a, &b)
///     .predicate(Predicate::WithinDistance(1.0))
///     .engine(Engine::Parallel(ParallelConfig::with_threads(2)))
///     .run(&mut sink);
/// assert_eq!(report.result_pairs(), sink.count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Engine {
    /// **Automatic planning** (the default): collect
    /// [`DatasetStats`](touch_core::DatasetStats) for both inputs, derive every
    /// TOUCH knob with the [`JoinPlanner`] cost model, and dispatch to the
    /// sequential, parallel or streaming engine — whichever the plan selects
    /// for this query on this machine ([`AutoEngine`]).
    #[default]
    Auto,
    /// A pre-computed, fully resolved [`JoinPlan`] — executed verbatim by the
    /// engine its strategy names. This is the explicit form of what
    /// [`Engine::Auto`] does internally, and the hook the planner equivalence
    /// suite uses to pin `Auto` against the engine it resolves to.
    Planned(JoinPlan),
    /// The sequential TOUCH join ([`TouchJoin`]).
    Touch(TouchConfig),
    /// The multi-threaded TOUCH join ([`ParallelTouchJoin`]).
    Parallel(ParallelConfig),
    /// The streaming engine run one-shot: build the tree, push B as one epoch
    /// ([`OneShotStreaming`]).
    Streaming(StreamingConfig),
    /// One of the paper's competitor algorithms.
    Baseline(Baseline),
}

impl Engine {
    /// The default TOUCH engine in the paper's configuration.
    pub fn touch() -> Self {
        Engine::Touch(TouchConfig::default())
    }

    /// The parallel engine with auto-detected thread count.
    pub fn parallel() -> Self {
        Engine::Parallel(ParallelConfig::default())
    }

    /// Instantiates the selected engine.
    pub fn build(&self) -> Box<dyn SpatialJoinAlgorithm> {
        match *self {
            Engine::Auto => Box::new(AutoEngine::new()),
            Engine::Planned(plan) => AutoEngine::resolve(plan),
            Engine::Touch(cfg) => Box::new(TouchJoin::new(cfg)),
            Engine::Parallel(cfg) => Box::new(ParallelTouchJoin::new(cfg)),
            Engine::Streaming(cfg) => Box::new(OneShotStreaming::new(cfg)),
            Engine::Baseline(baseline) => baseline.build(),
        }
    }
}

impl SpatialJoinAlgorithm for Engine {
    fn name(&self) -> String {
        self.build().name()
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape) -> Option<JoinPlan> {
        self.build().plan_for(a, b, shape)
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
        self.build().try_join(a, b, shape, sink, report, ctl)
    }
}

/// The workspace-wide auto-planning engine behind [`Engine::Auto`].
///
/// Where `touch-core`'s [`touch_core::AutoJoin`] can only execute its plans
/// sequentially (the parallel and streaming engines live downstream of it),
/// this engine spans the whole workspace: it collects
/// [`DatasetStats`](touch_core::DatasetStats) for both
/// inputs (one cheap linear pass each, measured and recorded as
/// `PlanSummary::stats_time` on the report), plans with the machine's available
/// parallelism and the sink's pair budget, and dispatches to
/// [`TouchJoin`], [`ParallelTouchJoin`] or [`OneShotStreaming`] — whichever the
/// plan's strategy names. The executed plan is recorded on
/// [`RunReport::plan`] and the resolved engine's name is appended to the
/// report's algorithm label (e.g. `"TOUCH-AUTO → TOUCH-P4"`).
///
/// Because a [`JoinPlan`] pins every algorithmic decision, the dispatched run is
/// bit-identical — pairs *and* counters — to running `Engine::Planned(plan)`
/// (or the matching engine's `from_plan` constructor) directly; the planner
/// equivalence suite locks this down at 1/2/4/8 threads.
#[derive(Debug, Clone)]
pub struct AutoEngine {
    planner: JoinPlanner,
    env: PlanEnv,
}

impl AutoEngine {
    /// An auto engine planning with the default [`JoinPlanner`] and the
    /// machine's detected parallelism.
    pub fn new() -> Self {
        AutoEngine { planner: JoinPlanner::default(), env: PlanEnv::detect() }
    }

    /// An auto engine planning for an explicit worker budget (used by the
    /// equivalence suites to exercise every strategy deterministically).
    pub fn with_threads(threads: usize) -> Self {
        AutoEngine { planner: JoinPlanner::default(), env: PlanEnv::detect().with_threads(threads) }
    }

    /// An auto engine with a custom planner and environment.
    pub fn with_planner(planner: JoinPlanner, env: PlanEnv) -> Self {
        AutoEngine { planner, env }
    }

    /// The planner this engine consults.
    pub fn planner(&self) -> &JoinPlanner {
        &self.planner
    }

    /// Instantiates the engine a resolved plan's strategy names.
    pub fn resolve(plan: JoinPlan) -> Box<dyn SpatialJoinAlgorithm> {
        match plan.strategy {
            ExecutionStrategy::Sequential => Box::new(TouchJoin::from_plan(plan)),
            ExecutionStrategy::Parallel { .. } => Box::new(ParallelTouchJoin::from_plan(plan)),
            ExecutionStrategy::Streaming { .. } => Box::new(OneShotStreaming::from_plan(plan)),
        }
    }
}

impl Default for AutoEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SpatialJoinAlgorithm for AutoEngine {
    fn name(&self) -> String {
        "TOUCH-AUTO".to_string()
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape) -> Option<JoinPlan> {
        Some(self.planner.plan_datasets(a, b, shape, &self.env).0)
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
        // Check before the stats pass so a pre-cancelled run skips even
        // planning; the resolved engine then owns all finer-grained polling.
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            return Ok(());
        }
        // Self-joins are costed on the single input's statistics (work estimate
        // halved — see `JoinPlanner::plan_self`); the dispatched engine then runs
        // its in-kernel index-order filter, so pairs and counters stay identical
        // to the explicitly selected engine at every width.
        let mut env = self.env.with_pair_limit(sink.pair_limit());
        env.epsilon = report.epsilon;
        let (plan, stats_time) = self.planner.plan_datasets(a, b, shape, &env);
        let engine = Self::resolve(plan);
        report.algorithm = format!("TOUCH-AUTO → {}", engine.name());
        engine.try_join(a, b, shape, sink, report, ctl)?;
        if let Some(summary) = &mut report.plan {
            summary.stats_time = stats_time;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_core::{collect_join, CollectingSink, JoinQuery};
    use touch_geom::Point3;

    fn sample(n: usize, seed: u64) -> Dataset {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = touch_geom::Point3::new(next() * 40.0, next() * 40.0, next() * 40.0);
            touch_geom::Aabb::new(min, min + Point3::splat(0.3 + next() * 2.0))
        }))
    }

    #[test]
    fn every_engine_variant_agrees_through_join_query() {
        let a = sample(120, 1);
        let b = sample(150, 2);
        let (expected, _) = collect_join(&TouchJoin::default(), &a, &b);
        let engines = [
            Engine::touch(),
            Engine::Parallel(ParallelConfig::with_threads(2)),
            Engine::Streaming(StreamingConfig::default()),
            Engine::Baseline(Baseline::RTree),
        ];
        for engine in engines {
            let mut sink = CollectingSink::new();
            let report = JoinQuery::new(&a, &b).engine(engine).run(&mut sink);
            assert_eq!(sink.sorted_pairs(), expected, "engine {engine:?}");
            assert_eq!(report.algorithm, engine.name());
        }
    }

    #[test]
    fn baseline_names_match_the_paper() {
        let names: Vec<String> = Baseline::ALL.iter().map(|b| b.build().name()).collect();
        assert_eq!(
            names,
            vec![
                "NL",
                "PS",
                "PBSM-500",
                "PBSM-100",
                "S3",
                "Indexed NL",
                "RTree",
                "Octree",
                "Seeded tree"
            ]
        );
    }
}
