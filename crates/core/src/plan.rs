//! The join planning layer: [`JoinPlanner`], [`JoinPlan`] and the core
//! [`AutoJoin`] engine.
//!
//! TOUCH's performance hinges on tuning knobs the paper sets per workload — tree
//! partitioning and fanout, the grid cell floor, the grid-vs-all-pairs cutoff —
//! and on picking the right execution strategy for the machine and the query.
//! This module turns those hand-set constants into **derived quantities**: a
//! [`JoinPlanner`] reads [`DatasetStats`](crate::DatasetStats) (one cheap pass
//! per dataset) plus a [`PlanEnv`] (thread availability, the sink's pair limit,
//! the ε of the predicate, the expected number of probe epochs) and emits a
//! [`JoinPlan`] — the **complete, pinned parameterisation of one join**.
//!
//! Every TOUCH engine executes from a `JoinPlan`. Explicit configurations
//! ([`TouchConfig`], `ParallelConfig`, `StreamingConfig`) are translated into
//! plans by faithful constructors ([`JoinPlan::from_touch_config`],
//! [`JoinPlan::from_streaming_tree`]) that reproduce the historical decisions
//! bit-for-bit, so the explicit paths behave exactly as before the planning
//! layer existed. Because a plan pins *resolved* values — which side the tree is
//! built on, the concrete minimum cell size — the same plan executed by the
//! sequential, parallel or streaming engine performs the identical computation:
//! same pairs, same counters. That is what makes automatic strategy selection
//! safe.
//!
//! ## The cost model
//!
//! The planner is deliberately transparent — a handful of closed-form rules over
//! the statistics, each unit-testable on its own:
//!
//! * **Tree side** — the smaller dataset (the paper's *join order*
//!   recommendation, Section 5.2.3): it is likely sparser, filters more of the
//!   probe side and keeps the hierarchy small.
//! * **Leaf size / partitions** — leaves target `√n` objects
//!   (clamped to `[16, 2048]`): scale-free middle ground between grid-build
//!   amortisation (bigger leaves) and extent tightness (smaller leaves);
//!   `partitions = ⌈n / leaf⌉`, capped at 65 536.
//! * **Fanout** — 2 (the paper's default, maximising single-assignment
//!   filtering) until the hierarchy grows past 4 096 partitions, then 4 to cap
//!   the assignment descent depth.
//! * **Minimum grid cell size** — `2 ×` the larger of the two datasets' mean
//!   object extents (Section 5.2.2: cells must stay "considerably larger than
//!   the average object"). For a distance join the planner sees the ε-extended
//!   A, so ε inflates the floor automatically.
//! * **All-pairs cutoff** — `leaf/16` (clamped to `[8, 128]`): nodes whose
//!   subtree holds fewer A-objects than this do not repay building a grid.
//! * **Strategy** — a sink that stops after a handful of pairs
//!   ([`PlanEnv::pair_limit`]) favours the sequential engine (earliest possible
//!   termination, no worker spin-up to waste); a multi-epoch probe side
//!   ([`PlanEnv::epochs`]) selects the streaming engine (build once, amortise);
//!   otherwise the parallel engine is chosen whenever more than one thread is
//!   available and the input is large enough ([`JoinPlanner::parallel_min_work`])
//!   for the fork/join overhead to pay off.

use crate::control::{ExecControl, JoinError};
use crate::stats::DatasetStats;
use crate::{LocalJoinParams, PairSink, Shape, SpatialJoinAlgorithm, TouchConfig, TouchJoin};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use touch_geom::Dataset;
use touch_metrics::{PlanSummary, RunReport};

/// The execution strategy a [`JoinPlan`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionStrategy {
    /// Single-threaded `TouchJoin`.
    Sequential,
    /// Work-stealing `ParallelTouchJoin` at the given worker count.
    Parallel {
        /// Resolved worker count (≥ 2).
        threads: usize,
    },
    /// Persistent-tree `StreamingTouchJoin` (one-shot runs push B as one epoch).
    Streaming {
        /// Resolved worker count per epoch (1 = sequential epochs).
        threads: usize,
    },
}

impl ExecutionStrategy {
    /// The worker count this strategy runs with (1 for [`ExecutionStrategy::Sequential`]).
    pub fn threads(&self) -> usize {
        match *self {
            ExecutionStrategy::Sequential => 1,
            ExecutionStrategy::Parallel { threads } | ExecutionStrategy::Streaming { threads } => {
                threads.max(1)
            }
        }
    }

    /// Stable label used in reports: `"sequential"`, `"parallel(4)"`, `"streaming(2)"`.
    pub fn label(&self) -> String {
        match *self {
            ExecutionStrategy::Sequential => "sequential".to_string(),
            ExecutionStrategy::Parallel { threads } => format!("parallel({threads})"),
            ExecutionStrategy::Streaming { threads } => format!("streaming({threads})"),
        }
    }
}

/// The complete, pinned parameterisation of one join execution.
///
/// A plan holds only **resolved** values: which dataset the hierarchy is built
/// on, concrete partition/fanout counts, the [`LocalJoinParams`] with the
/// minimum cell size already computed. Executing the same plan on the same
/// datasets therefore performs the identical computation on every engine —
/// pairs, emission per node and all counters — which the planner equivalence
/// suite (`tests/planner_equivalence.rs`) locks down.
///
/// Obtain one from [`JoinPlanner::plan`] (statistics-driven), from
/// [`JoinPlan::from_touch_config`] (faithful translation of an explicit
/// configuration), or from [`crate::JoinQuery::plan`] for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinPlan {
    /// Selected execution strategy.
    pub strategy: ExecutionStrategy,
    /// `true` to build the hierarchy on dataset A, `false` on dataset B.
    pub build_on_a: bool,
    /// STR partitions (leaf buckets) of the hierarchy.
    pub partitions: usize,
    /// Fanout of the hierarchy.
    pub fanout: usize,
    /// The per-node local-join parameterisation (grid kind, cells per dimension,
    /// resolved minimum cell size, all-pairs cutoff).
    pub params: LocalJoinParams,
    /// Probe objects per parallel-assignment work unit.
    pub chunk_size: usize,
    /// Inputs of at most this many objects are STR-sorted on one thread at
    /// build; larger ones spread the sort's slabs over the workers.
    pub sort_threshold: usize,
    /// The planner's work proxy (|A| + |B|); recorded for transparency, not used
    /// by the engines.
    pub estimated_work: u64,
}

impl JoinPlan {
    /// Translates an explicit [`TouchConfig`] into the plan the sequential engine
    /// has always executed: same tree side ([`TouchConfig::builds_tree_on_a`]),
    /// same partitioning, same grid sizing
    /// ([`TouchConfig::min_local_cell_size`]). Guarantees the explicit-config
    /// path stays bit-identical to the pre-planning implementation.
    pub fn from_touch_config(cfg: &TouchConfig, a: &Dataset, b: &Dataset) -> JoinPlan {
        JoinPlan {
            strategy: ExecutionStrategy::Sequential,
            build_on_a: cfg.builds_tree_on_a(a, b),
            partitions: cfg.partitions,
            fanout: cfg.fanout,
            params: cfg.local_join_params(cfg.min_local_cell_size(a, b)),
            chunk_size: JoinPlanner::DEFAULT_CHUNK_SIZE,
            sort_threshold: JoinPlanner::DEFAULT_SORT_THRESHOLD,
            estimated_work: (a.len() + b.len()) as u64,
        }
    }

    /// Translates an explicit streaming configuration into a plan: the hierarchy
    /// is always on the dataset handed to the builder (`build_on_a`), and the
    /// cell floor comes from the **tree dataset only**
    /// ([`TouchConfig::min_local_cell_size_of`]) — the stream's global average
    /// object size is unknowable at build time.
    pub fn from_streaming_tree(
        cfg: &TouchConfig,
        tree_ds: &Dataset,
        threads: usize,
        chunk_size: usize,
        sort_threshold: usize,
    ) -> JoinPlan {
        JoinPlan {
            strategy: ExecutionStrategy::Streaming { threads },
            build_on_a: true,
            partitions: cfg.partitions,
            fanout: cfg.fanout,
            params: cfg.local_join_params(cfg.min_local_cell_size_of(tree_ds)),
            chunk_size,
            sort_threshold,
            estimated_work: tree_ds.len() as u64,
        }
    }

    /// This plan with a different execution strategy (the knobs stay pinned).
    pub fn with_strategy(mut self, strategy: ExecutionStrategy) -> JoinPlan {
        self.strategy = strategy;
        self
    }

    /// This plan with explicit parallel execution knobs.
    pub fn with_execution(mut self, chunk_size: usize, sort_threshold: usize) -> JoinPlan {
        self.chunk_size = chunk_size;
        self.sort_threshold = sort_threshold;
        self
    }

    /// The worker count the plan runs with (1 for sequential).
    pub fn threads(&self) -> usize {
        self.strategy.threads()
    }

    /// The measurement-side record of this plan (attached to
    /// [`RunReport::plan`]; `stats_time` starts at zero and is filled in by the
    /// auto engine that actually collected statistics).
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            strategy: self.strategy.label(),
            build_on_a: self.build_on_a,
            partitions: self.partitions,
            fanout: self.fanout,
            cells_per_dim: self.params.cells_per_dim,
            min_cell_size: self.params.min_cell_size,
            allpairs_max_a: self.params.allpairs_max_a,
            threads: self.threads(),
            stats_time: std::time::Duration::ZERO,
        }
    }

    /// The equivalent [`TouchConfig`] — the explicit configuration that would
    /// reproduce this plan's algorithmic decisions on the datasets it was
    /// planned for. Used by engines that are constructed
    /// [`from_plan`](crate::TouchJoin::from_plan) but still expose a `config()`.
    pub fn as_touch_config(&self) -> TouchConfig {
        TouchConfig {
            partitions: self.partitions,
            fanout: self.fanout,
            local_cells_per_dim: self.params.cells_per_dim,
            min_cell_factor: TouchConfig::default().min_cell_factor,
            local_join: crate::LocalJoinStrategy::from_kind(self.params.kind),
            join_order: if self.build_on_a {
                crate::JoinOrder::TreeOnA
            } else {
                crate::JoinOrder::TreeOnB
            },
            grid_allpairs_max_a: self.params.allpairs_max_a,
            adapt: self.params.adapt,
        }
    }
}

/// The planning environment: everything the cost model consults besides the
/// dataset statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEnv {
    /// Worker threads available to the query (≥ 1). [`PlanEnv::detect`] resolves
    /// the machine's parallelism; pass 1 to restrict planning to sequential
    /// execution.
    pub threads: usize,
    /// The sink's pair budget ([`PairSink::pair_limit`]), if any: small budgets
    /// favour early-terminating sequential plans.
    pub pair_limit: Option<u64>,
    /// The ε of the distance predicate (0 for a plain intersection join). The
    /// planner usually sees the ε-extended dataset A already, so this is
    /// informational.
    pub epsilon: f64,
    /// Expected number of probe epochs: 1 for a one-shot query; > 1 selects the
    /// streaming engine (build the tree once, amortise it over the epochs).
    pub epochs: usize,
}

impl PlanEnv {
    /// A one-shot environment with the machine's available parallelism.
    pub fn detect() -> Self {
        PlanEnv {
            threads: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            pair_limit: None,
            epsilon: 0.0,
            epochs: 1,
        }
    }

    /// A one-shot environment restricted to sequential execution.
    pub fn sequential() -> Self {
        PlanEnv { threads: 1, pair_limit: None, epsilon: 0.0, epochs: 1 }
    }

    /// This environment with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// This environment with a sink pair budget.
    pub fn with_pair_limit(mut self, limit: Option<u64>) -> Self {
        self.pair_limit = limit;
        self
    }

    /// This environment expecting the probe side in `epochs` batches.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }
}

/// The statistics-driven cost model: derives a [`JoinPlan`] from two
/// [`DatasetStats`] and a [`PlanEnv`]. All tuning constants are public fields
/// with documented defaults, so the model is transparent and each rule is
/// unit-testable (see the module docs for the rules themselves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPlanner {
    /// Grid cells stay at least this multiple of the mean object extent
    /// (Section 5.2.2). Default: 2.0, the paper's evaluated factor.
    pub min_cell_factor: f64,
    /// Target grid cells per dimension before the cell floor caps the
    /// resolution. Default: 500, the paper's evaluated resolution.
    pub cells_per_dim: usize,
    /// Minimum total work (|A| + |B|) before a parallel plan pays for its
    /// fork/join overhead. Default: 16 384 objects.
    pub parallel_min_work: u64,
    /// Pair budgets at or below this select a sequential plan: the sequential
    /// engine stops at exactly the k-th pair, while parallel workers overshoot
    /// by design. Default: 1 024.
    pub early_stop_limit: u64,
    /// Probe objects per parallel-assignment work unit. Default: 4 096.
    pub chunk_size: usize,
    /// Inputs of at most this many objects are STR-sorted on one thread; larger
    /// ones spread the sort's slabs over the workers. Default: 8 192.
    pub sort_threshold: usize,
}

impl JoinPlanner {
    /// Default assignment chunk size (shared with `ParallelConfig`).
    pub const DEFAULT_CHUNK_SIZE: usize = 4096;
    /// Default sequential-sort threshold (shared with `ParallelConfig`).
    pub const DEFAULT_SORT_THRESHOLD: usize = 8192;

    /// The leaf-size target for a tree over `n` objects: `√n` clamped to
    /// `[16, 2048]`.
    pub fn target_leaf_size(tree_count: usize) -> usize {
        ((tree_count.max(1) as f64).sqrt().round() as usize).clamp(16, 2048)
    }

    /// The buffered-mutation count past which folding a delta into the next
    /// serving generation stops paying off and the tree should be rebuilt from
    /// scratch (a fresh STR sort).
    ///
    /// A delta fold splices the previous generation's tile order — correct for
    /// any order ([`crate::TouchTree::from_tiled`]), but every fold degrades
    /// tiling quality a little, and quality is what the assignment descent
    /// prunes with. The rule: one target leaf's worth of objects
    /// ([`JoinPlanner::target_leaf_size`]) or ⅛ of the live set, whichever is
    /// larger. Small trees rebuild eagerly (a rebuild is cheap), large trees
    /// tolerate proportionally more buffered churn before paying the
    /// O(n log n) re-sort.
    pub fn delta_rebuild_limit(&self, live: usize) -> usize {
        Self::target_leaf_size(live).max(live / 8)
    }

    /// Plans a one-shot (or epoch-hinted) join of `a` and `b`.
    ///
    /// `a` must be the statistics of the dataset the engine will actually see —
    /// for a distance join, the ε-extended A (which is what
    /// [`crate::JoinQuery`] hands every engine).
    pub fn plan(&self, a: &DatasetStats, b: &DatasetStats, env: &PlanEnv) -> JoinPlan {
        let build_on_a = a.count() <= b.count();
        let tree_count = if build_on_a { a.count() } else { b.count() };
        let work = (a.count() + b.count()) as u64;
        self.plan_with_tree_side(a, b, env, build_on_a, tree_count, work)
    }

    /// Plans a **self-join** of one dataset: the hierarchy is always on the
    /// (single) input, every knob is derived from its statistics alone, and the
    /// work estimate is halved relative to the naive `a ⋈ a` reading — a
    /// self-join enumerates each unordered pair once, not both orientations.
    ///
    /// `a` must be the statistics of the dataset the engine will actually see —
    /// for a distance self-join, the ε-extended view.
    pub fn plan_self(&self, a: &DatasetStats, env: &PlanEnv) -> JoinPlan {
        self.plan_with_tree_side(a, a, env, true, a.count(), a.count() as u64)
    }

    /// Collects the statistics a join of `shape` is costed on — both datasets
    /// for [`Shape::Pair`] ([`JoinPlanner::plan`]), `a` alone for
    /// [`Shape::SelfJoin`] ([`JoinPlanner::plan_self`]) — and plans with them.
    /// Also returns how long the statistics pass took (recorded by the auto
    /// engines as `PlanSummary::stats_time`).
    pub fn plan_datasets(
        &self,
        a: &Dataset,
        b: &Dataset,
        shape: Shape,
        env: &PlanEnv,
    ) -> (JoinPlan, Duration) {
        let start = Instant::now();
        let stats_a = DatasetStats::from_dataset(a);
        let stats_b = (shape == Shape::Pair).then(|| DatasetStats::from_dataset(b));
        let stats_time = start.elapsed();
        let plan = match &stats_b {
            Some(stats_b) => self.plan(&stats_a, stats_b, env),
            None => self.plan_self(&stats_a, env),
        };
        (plan, stats_time)
    }

    /// Plans a streaming join whose hierarchy is pinned to the tree dataset
    /// (`tree`), probing a stream summarised by `probe` — which may be
    /// [`DatasetStats::new`] (empty) before the first stream, in which case the
    /// cell floor comes from the tree side alone, exactly like the explicit
    /// streaming configuration.
    pub fn plan_streaming(
        &self,
        tree: &DatasetStats,
        probe: &DatasetStats,
        env: &PlanEnv,
    ) -> JoinPlan {
        let work = (tree.count() + probe.count()) as u64;
        let plan = self.plan_with_tree_side(tree, probe, env, true, tree.count(), work);
        let threads = match plan.strategy {
            ExecutionStrategy::Sequential => 1,
            s => s.threads(),
        };
        plan.with_strategy(ExecutionStrategy::Streaming { threads })
    }

    fn plan_with_tree_side(
        &self,
        a: &DatasetStats,
        b: &DatasetStats,
        env: &PlanEnv,
        build_on_a: bool,
        tree_count: usize,
        work: u64,
    ) -> JoinPlan {
        let target_leaf = Self::target_leaf_size(tree_count);
        let partitions = tree_count.div_ceil(target_leaf).clamp(1, 65_536);
        let fanout = if partitions > 4096 { 4 } else { 2 };
        let min_cell = self.min_cell_factor * a.mean_side_all_axes().max(b.mean_side_all_axes());
        let allpairs_max_a = (target_leaf / 16).clamp(8, 128);
        // Per-node adaptive strategy selection, pinned to the *probe* side's
        // global density at plan time (the side streamed against the tree).
        // An empty or volume-less probe summary — notably a streaming plan made
        // before the first epoch — yields no density and falls back to the
        // global cutoff, so such plans stay exactly the historical decisions.
        let probe = if build_on_a { b } else { a };
        let adapt = match probe.density() {
            d if d > 0.0 => Some(crate::AdaptiveParams::with_density(d)),
            _ => None,
        };

        let strategy = if env.pair_limit.is_some_and(|k| k <= self.early_stop_limit) {
            ExecutionStrategy::Sequential
        } else if env.epochs > 1 {
            ExecutionStrategy::Streaming { threads: self.parallel_width(env, work) }
        } else if env.threads > 1 && work >= self.parallel_min_work {
            ExecutionStrategy::Parallel { threads: env.threads }
        } else {
            ExecutionStrategy::Sequential
        };

        JoinPlan {
            strategy,
            build_on_a,
            partitions,
            fanout,
            params: LocalJoinParams {
                kind: crate::LocalJoinKind::Grid,
                cells_per_dim: self.cells_per_dim,
                min_cell_size: min_cell,
                allpairs_max_a,
                adapt,
            },
            chunk_size: self.chunk_size,
            sort_threshold: self.sort_threshold,
            estimated_work: work,
        }
    }

    /// The worker count a non-sequential plan runs with: the available threads
    /// if the work justifies them, 1 otherwise.
    fn parallel_width(&self, env: &PlanEnv, work: u64) -> usize {
        if env.threads > 1 && work >= self.parallel_min_work {
            env.threads
        } else {
            1
        }
    }
}

impl Default for JoinPlanner {
    fn default() -> Self {
        JoinPlanner {
            min_cell_factor: 2.0,
            cells_per_dim: 500,
            parallel_min_work: 16_384,
            early_stop_limit: 1024,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            sort_threshold: Self::DEFAULT_SORT_THRESHOLD,
        }
    }
}

/// The core auto-planned engine: collects [`DatasetStats`], runs the
/// [`JoinPlanner`] and executes the plan **sequentially**.
///
/// This is what a bare [`crate::JoinQuery`] (no `.engine(…)`) runs. `touch-core`
/// cannot name the parallel or streaming engines (they live downstream), so this
/// engine plans with [`PlanEnv::sequential`] — every knob is statistics-derived,
/// the strategy is always [`ExecutionStrategy::Sequential`], and the recorded
/// plan always matches what actually ran. The facade crate's `Engine::Auto`
/// plans with the machine's full parallelism and dispatches across all three
/// engines; it is the form the experiment harness and benchmarks use.
#[derive(Debug, Clone, Default)]
pub struct AutoJoin {
    planner: JoinPlanner,
}

impl AutoJoin {
    /// An auto engine with the default planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An auto engine with a custom planner.
    pub fn with_planner(planner: JoinPlanner) -> Self {
        AutoJoin { planner }
    }

    /// The planner this engine consults.
    pub fn planner(&self) -> &JoinPlanner {
        &self.planner
    }
}

impl SpatialJoinAlgorithm for AutoJoin {
    fn name(&self) -> String {
        "TOUCH-AUTO".to_string()
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape) -> Option<JoinPlan> {
        Some(self.planner.plan_datasets(a, b, shape, &PlanEnv::sequential()).0)
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
        // Check before the stats pass so a pre-cancelled run skips even planning.
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            return Ok(());
        }
        let env = PlanEnv::sequential().with_pair_limit(sink.pair_limit()).with_threads(1);
        let (plan, stats_time) = self.planner.plan_datasets(a, b, shape, &env);
        TouchJoin::from_plan(plan).try_join(a, b, shape, sink, report, ctl)?;
        if let Some(summary) = &mut report.plan {
            summary.stats_time = stats_time;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Point3};

    fn cloud(n: usize, seed: u64, side: f64) -> Dataset {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * 50.0, next() * 50.0, next() * 50.0);
            Aabb::new(min, min + Point3::splat(side))
        }))
    }

    fn stats(n: usize, seed: u64, side: f64) -> DatasetStats {
        DatasetStats::from_dataset(&cloud(n, seed, side))
    }

    #[test]
    fn tree_goes_on_the_smaller_side() {
        let planner = JoinPlanner::default();
        let small = stats(100, 1, 1.0);
        let large = stats(1000, 2, 1.0);
        assert!(planner.plan(&small, &large, &PlanEnv::sequential()).build_on_a);
        assert!(!planner.plan(&large, &small, &PlanEnv::sequential()).build_on_a);
        // Ties go to A, like JoinOrder::SmallerAsTree.
        assert!(planner.plan(&small, &stats(100, 3, 1.0), &PlanEnv::sequential()).build_on_a);
    }

    #[test]
    fn leaf_sizing_is_scale_free_and_monotonic() {
        assert_eq!(JoinPlanner::target_leaf_size(0), 16);
        assert_eq!(JoinPlanner::target_leaf_size(256), 16);
        assert_eq!(JoinPlanner::target_leaf_size(10_000), 100);
        assert_eq!(JoinPlanner::target_leaf_size(1_600_000), 1265);
        assert_eq!(JoinPlanner::target_leaf_size(usize::MAX / 4), 2048);

        let planner = JoinPlanner::default();
        let env = PlanEnv::sequential();
        let mut last = 0;
        for n in [64, 1_000, 50_000, 500_000] {
            let plan = planner.plan(&stats(n, 1, 1.0), &stats(n, 2, 1.0), &env);
            assert!(plan.partitions >= last, "partitions must not shrink as n grows");
            assert!(plan.partitions <= n.max(1));
            last = plan.partitions;
        }
    }

    #[test]
    fn min_cell_tracks_the_larger_mean_extent() {
        let planner = JoinPlanner::default();
        let env = PlanEnv::sequential();
        let small_objs = stats(500, 1, 0.5);
        let large_objs = stats(500, 2, 3.0);
        let plan = planner.plan(&small_objs, &large_objs, &env);
        assert!((plan.params.min_cell_size - 6.0).abs() < 0.2, "2 × the larger mean side");
        // ε-extension inflates A's extents, which inflates the floor.
        let extended = DatasetStats::from_dataset(&cloud(500, 1, 0.5).extended(1.0));
        let eps_plan = planner.plan(&extended, &large_objs, &env);
        assert!(eps_plan.params.min_cell_size >= plan.params.min_cell_size);
    }

    #[test]
    fn strategy_rules() {
        let planner = JoinPlanner::default();
        let a = stats(20_000, 1, 1.0);
        let b = stats(20_000, 2, 1.0);

        // Enough work + threads → parallel.
        let par = planner.plan(&a, &b, &PlanEnv::sequential().with_threads(4));
        assert_eq!(par.strategy, ExecutionStrategy::Parallel { threads: 4 });
        assert_eq!(par.threads(), 4);

        // One thread → sequential, whatever the size.
        let seq = planner.plan(&a, &b, &PlanEnv::sequential());
        assert_eq!(seq.strategy, ExecutionStrategy::Sequential);

        // Small input → sequential even with threads.
        let tiny = planner.plan(
            &stats(50, 1, 1.0),
            &stats(50, 2, 1.0),
            &PlanEnv::sequential().with_threads(8),
        );
        assert_eq!(tiny.strategy, ExecutionStrategy::Sequential);

        // A small pair budget forces the early-terminating sequential plan.
        let first_k =
            planner.plan(&a, &b, &PlanEnv::sequential().with_threads(8).with_pair_limit(Some(5)));
        assert_eq!(first_k.strategy, ExecutionStrategy::Sequential);
        // …but a huge budget does not.
        let bulk = planner.plan(
            &a,
            &b,
            &PlanEnv::sequential().with_threads(8).with_pair_limit(Some(1 << 40)),
        );
        assert_eq!(bulk.strategy, ExecutionStrategy::Parallel { threads: 8 });

        // Multi-epoch probes select streaming.
        let streaming =
            planner.plan(&a, &b, &PlanEnv::sequential().with_threads(4).with_epochs(16));
        assert_eq!(streaming.strategy, ExecutionStrategy::Streaming { threads: 4 });
    }

    #[test]
    fn planning_is_deterministic() {
        let planner = JoinPlanner::default();
        let a = stats(5_000, 7, 1.5);
        let b = stats(9_000, 8, 0.5);
        let env = PlanEnv::sequential().with_threads(4);
        assert_eq!(planner.plan(&a, &b, &env), planner.plan(&a, &b, &env));
        // Thread availability changes only the strategy, never the knobs.
        let seq = planner.plan(&a, &b, &PlanEnv::sequential());
        let par = planner.plan(&a, &b, &env);
        assert_eq!(seq.with_strategy(par.strategy), par);
    }

    #[test]
    fn from_touch_config_reproduces_the_historical_decisions() {
        let a = cloud(300, 1, 1.0);
        let b = cloud(200, 2, 2.0);
        let cfg = TouchConfig::default();
        let plan = JoinPlan::from_touch_config(&cfg, &a, &b);
        assert_eq!(plan.build_on_a, cfg.builds_tree_on_a(&a, &b));
        assert_eq!(plan.partitions, cfg.partitions);
        assert_eq!(plan.fanout, cfg.fanout);
        assert_eq!(plan.params, cfg.local_join_params(cfg.min_local_cell_size(&a, &b)));
        assert_eq!(plan.strategy, ExecutionStrategy::Sequential);
        // And the round-trip back to a config preserves the knobs.
        let back = plan.as_touch_config();
        assert_eq!(back.partitions, cfg.partitions);
        assert_eq!(back.fanout, cfg.fanout);
        assert_eq!(back.grid_allpairs_max_a, cfg.grid_allpairs_max_a);
        assert_eq!(back.join_order, crate::JoinOrder::TreeOnB, "tree side is resolved");
    }

    #[test]
    fn self_join_plans_cost_one_dataset_and_halve_the_work() {
        let planner = JoinPlanner::default();
        let a = stats(10_000, 1, 1.0);
        let env = PlanEnv::sequential().with_threads(8);

        let self_plan = planner.plan_self(&a, &env);
        assert!(self_plan.build_on_a, "the hierarchy is always on the single input");
        assert_eq!(self_plan.estimated_work, 10_000, "half the naive a ⋈ a estimate");
        // 10k entities < parallel_min_work once the estimate is halved, so the
        // self-join stays sequential where the naive reading would go parallel.
        assert_eq!(self_plan.strategy, ExecutionStrategy::Sequential);
        assert_eq!(planner.plan(&a, &a, &env).strategy, ExecutionStrategy::Parallel { threads: 8 });

        // The knobs themselves match the two-dataset plan of a ⋈ a.
        let pair_plan = planner.plan(&a, &a, &env);
        assert_eq!(self_plan.partitions, pair_plan.partitions);
        assert_eq!(self_plan.fanout, pair_plan.fanout);
        assert_eq!(self_plan.params, pair_plan.params);

        // Enough work → parallel, same as the two-dataset rule.
        let big = stats(20_000, 2, 1.0);
        assert_eq!(
            planner.plan_self(&big, &env).strategy,
            ExecutionStrategy::Parallel { threads: 8 }
        );
    }

    #[test]
    fn streaming_plans_pin_the_tree_side() {
        let planner = JoinPlanner::default();
        let tree = stats(50_000, 1, 1.0);
        // Even a much smaller (or empty) probe summary never flips the tree side.
        let plan = planner.plan_streaming(&tree, &DatasetStats::new(), &PlanEnv::sequential());
        assert!(plan.build_on_a);
        assert!(matches!(plan.strategy, ExecutionStrategy::Streaming { .. }));
        // With an empty probe summary the cell floor comes from the tree alone.
        let expected = 2.0 * tree.mean_side_all_axes();
        assert!((plan.params.min_cell_size - expected).abs() < 1e-12);
    }

    #[test]
    fn summary_carries_the_knobs() {
        let planner = JoinPlanner::default();
        let plan = planner.plan(
            &stats(30_000, 1, 1.0),
            &stats(30_000, 2, 1.0),
            &PlanEnv::sequential().with_threads(2),
        );
        let summary = plan.summary();
        assert_eq!(summary.strategy, "parallel(2)");
        assert_eq!(summary.partitions, plan.partitions);
        assert_eq!(summary.threads, 2);
        assert!(summary.compact().starts_with("parallel(2):p"));
    }
}
