//! Engine selection for [`JoinQuery`](touch_core::JoinQuery): the [`Engine`] and
//! [`Baseline`] enums.
//!
//! `touch-core` cannot name the baselines (they live in a downstream crate), so
//! the facade provides the closed selector that spans every one-shot join of
//! the workspace. The streaming engine is not among them: its point is a tree
//! that outlives one query, so it is driven directly as
//! [`StreamingTouchJoin`](touch_streaming::StreamingTouchJoin). `Engine` itself
//! implements [`SpatialJoinAlgorithm`] by delegating to the selected engine,
//! which means it plugs into `JoinQuery::engine(...)` through the blanket
//! [`touch_core::IntoEngine`] impl — and doubles as a serialisable-ish "engine
//! id" for per-query engine selection in services.

use touch_baselines::{
    IndexedNestedLoopJoin, NestedLoopJoin, OctreeJoin, PbsmJoin, PlaneSweepJoin, RTreeSyncJoin,
    S3Join, SeededTreeJoin,
};
use touch_core::{
    AutoEngine, ExecControl, JoinError, JoinPlan, PairSink, Shape, SpatialJoinAlgorithm,
    TouchConfig, TouchJoin,
};
use touch_geom::Dataset;
use touch_metrics::RunReport;

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
/// selector spanning every one-shot join implementation of the workspace.
///
/// ```
/// use touch::{CountingSink, Engine, JoinQuery, Predicate, TouchJoin};
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
///     .engine(Engine::touch())
///     .run(&mut sink);
/// assert_eq!(report.result_pairs(), sink.count());
///
/// // The width is a setting of the one TOUCH engine, not a variant of its own.
/// let mut wide = CountingSink::new();
/// let report = JoinQuery::new(&a, &b)
///     .predicate(Predicate::WithinDistance(1.0))
///     .engine(TouchJoin::default().with_threads(2))
///     .run(&mut wide);
/// assert_eq!(wide.count(), sink.count());
/// assert_eq!(report.threads, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Engine {
    /// **Automatic planning** (the default): collect
    /// [`DatasetStats`](touch_core::DatasetStats) for both inputs, derive every
    /// TOUCH knob with the [`JoinPlanner`](touch_core::JoinPlanner) cost model
    /// for this machine's parallelism, and run the plan on [`TouchJoin`]
    /// ([`AutoEngine::new`]).
    #[default]
    Auto,
    /// A pre-computed, fully resolved [`JoinPlan`] — executed verbatim by
    /// [`TouchJoin::from_plan`] at the plan's width, on the plan's tree side,
    /// whatever its strategy. This is the explicit form of what
    /// [`Engine::Auto`] does internally, and the hook the planner equivalence
    /// suite uses to pin `Auto` against the plan it resolves to.
    Planned(JoinPlan),
    /// The TOUCH join ([`TouchJoin`]) on one worker; for more, pass
    /// `TouchJoin::new(cfg).with_threads(n)` to the query instead.
    Touch(TouchConfig),
    /// One of the paper's competitor algorithms.
    Baseline(Baseline),
}

impl Engine {
    /// The default TOUCH engine in the paper's configuration.
    pub fn touch() -> Self {
        Engine::Touch(TouchConfig::default())
    }

    /// Instantiates the selected engine.
    pub fn build(&self) -> Box<dyn SpatialJoinAlgorithm> {
        match *self {
            Engine::Auto => Box::new(AutoEngine::new()),
            Engine::Planned(plan) => Box::new(TouchJoin::from_plan(plan)),
            Engine::Touch(cfg) => Box::new(TouchJoin::new(cfg)),
            Engine::Baseline(baseline) => baseline.build(),
        }
    }
}

impl SpatialJoinAlgorithm for Engine {
    fn name(&self) -> String {
        self.build().name()
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape, epsilon: f64) -> Option<JoinPlan> {
        self.build().plan_for(a, b, shape, epsilon)
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
            Engine::Planned(
                TouchJoin::default().with_threads(2).plan_for(&a, &b, Shape::Pair, 0.0).unwrap(),
            ),
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
