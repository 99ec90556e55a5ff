//! The join planning layer: [`JoinPlanner`], [`JoinPlan`] and the
//! [`AutoEngine`] that plans for [`TouchJoin`].
//!
//! TOUCH's performance hinges on tuning knobs the paper sets per workload — tree
//! partitioning and fanout, the grid cell floor, the grid-vs-all-pairs cutoff —
//! and on picking the right execution strategy for the machine and the query.
//! This module turns those hand-set constants into **derived quantities**: a
//! [`JoinPlanner`] reads [`DatasetStats`](crate::DatasetStats) (one cheap pass
//! per dataset) plus a [`PlanEnv`] (thread availability, the sink's pair limit,
//! the ε of the predicate) and emits a [`JoinPlan`] — the **complete, pinned
//! parameterisation of one join**.
//!
//! Every TOUCH engine executes from a `JoinPlan`. Explicit configurations
//! ([`TouchConfig`], `StreamingConfig`) are translated into plans by faithful
//! constructors ([`JoinPlan::from_touch_config`],
//! [`JoinPlan::from_streaming_tree`]) that reproduce the historical decisions
//! bit-for-bit, so the explicit paths behave exactly as before the planning
//! layer existed. Because a plan pins *resolved* values — which side the tree is
//! built on, the concrete minimum cell size — the same plan performs the
//! identical computation at every width and in every epoch split: same pairs,
//! same counters. That is what makes automatic strategy selection safe.
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
//! * **Minimum grid cell size** — the side that minimises [`CellModel`]'s
//!   estimated cost of the grid local joins: cell visits, candidate tests,
//!   replicas and duplicate hits, each in closed form from the two sides' mean
//!   extents and counts and the probe side's density, weighted by unit costs
//!   traced on touchbench, with visits priced higher below the cell at which
//!   the largest grid needs the sparse directory. The search spans ×¼ to ×4
//!   around twice the larger mean extent (Section 5.2.2: cells "considerably
//!   larger than the average object"). For a distance join the tree side is
//!   the ε-extended A; a self-join's probe side is the input itself,
//!   [`PlanEnv::epsilon`] narrower. The plan keeps the estimate at the chosen
//!   cell ([`JoinPlan::estimate`]) for the report.
//! * **All-pairs cutoff** — `leaf/16` (clamped to `[8, 128]`): nodes whose
//!   subtree holds fewer A-objects than this do not repay building a grid.
//! * **Strategy** — a sink that stops after a handful of pairs
//!   ([`PlanEnv::pair_limit`]) favours one worker (earliest possible
//!   termination, no worker spin-up to waste); otherwise the plan goes parallel
//!   whenever more than one thread is available and the input is large enough
//!   ([`JoinPlanner::PARALLEL_MIN_WORK`]) for the fork/join overhead to pay off.
//!   The planner never makes a streaming plan: the epoch engine runs
//!   [`JoinPlan::from_streaming_tree`] of its explicit configuration, pinned
//!   when it builds the tree it amortises over every stream.

use crate::control::{ExecControl, JoinError};
use crate::stats::DatasetStats;
use crate::{LocalJoinParams, PairSink, Shape, SpatialJoinAlgorithm, TouchConfig, TouchJoin};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use touch_geom::Dataset;
use touch_metrics::{PlanEstimate, PlanSummary, RunReport};

/// The execution strategy a [`JoinPlan`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionStrategy {
    /// One worker: the phases run in-thread.
    Sequential,
    /// [`TouchJoin`]'s phases over scoped workers at the given count.
    Parallel {
        /// Resolved worker count (≥ 2).
        threads: usize,
    },
    /// The plan of a persistent-tree `StreamingTouchJoin`, made by
    /// [`JoinPlan::from_streaming_tree`]; reports label it `streaming(n)`. Run
    /// one-shot ([`TouchJoin::from_plan`]), it is the one-shot executor at this
    /// width, on the plan's tree side.
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
    /// Probe objects per assignment work unit, at every width: the unit a
    /// worker claims, the cancel token is polled before and an
    /// `AssignChunk` span covers.
    pub chunk_size: usize,
    /// Inputs of at most this many objects are STR-sorted on one thread at
    /// build; larger ones spread the sort's slabs over the workers.
    pub sort_threshold: usize,
    /// The planner's work proxy (|A| + |B|); recorded for transparency, not used
    /// by the engines.
    pub estimated_work: u64,
    /// What the planner expects the grid local joins to do at the cell it
    /// chose for `params.min_cell_size` ([`CellModel::estimate`]); `None` for
    /// plans translated from an explicit configuration. Recorded for the
    /// report, not used by the engines.
    pub estimate: Option<PlanEstimate>,
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
            estimate: None,
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
            estimate: None,
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
            estimate: self.estimate,
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
    /// The ε of the distance predicate (0 for a plain intersection join). A
    /// pair plan already sees the ε-extended dataset A in its statistics; a
    /// self-join plan ([`JoinPlanner::plan_self`]) sees only the extended view
    /// and reads ε to size its probe side, the input without the extension.
    pub epsilon: f64,
}

impl PlanEnv {
    /// A one-shot environment with the machine's available parallelism.
    pub fn detect() -> Self {
        PlanEnv {
            threads: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            pair_limit: None,
            epsilon: 0.0,
        }
    }

    /// A one-shot environment restricted to sequential execution.
    pub fn sequential() -> Self {
        PlanEnv { threads: 1, pair_limit: None, epsilon: 0.0 }
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
}

/// The statistics-driven cost model: derives a [`JoinPlan`] from two
/// [`DatasetStats`] and a [`PlanEnv`]. All tuning constants are public
/// associated constants, so the model is transparent and each rule is
/// unit-testable (see the module docs for the rules themselves).
///
/// The planner has no settings; make one with `JoinPlanner::default()`.
/// It is `#[non_exhaustive]`, so that stays the one way to make it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct JoinPlanner;

impl JoinPlanner {
    /// Target grid cells per dimension before the cell floor caps the
    /// resolution: 500, the paper's evaluated resolution.
    pub const CELLS_PER_DIM: usize = 500;
    /// [`CellModel`]'s price of one cell visit in a dense directory, in ns:
    /// the traced join time per cell lookup of the two lookup-bound
    /// touchbench workloads together, `uniform_stream`'s epoch and
    /// `clustered_paper`'s join (40 ms over 797k lookups).
    pub const NS_PER_VISIT: f64 = 50.0;
    /// [`CellModel`]'s price of one cell visit in a sparse directory, in ns:
    /// a binary search over the occupied cells on top of a dense visit,
    /// priced at twice it.
    pub const NS_PER_SPARSE_VISIT: f64 = 100.0;
    /// [`CellModel`]'s price of one candidate test, in ns: the traced join
    /// time per comparison of `neuro_synapse`, the comparison-bound
    /// touchbench workload.
    pub const NS_PER_CANDIDATE: f64 = 4.7;
    /// [`CellModel`]'s price of one replica, in ns: one more cell in the
    /// directory's count and fill passes. Halving or doubling it moves no
    /// pick of the planner's cell sweep by more than 1%.
    pub const NS_PER_REPLICA: f64 = 10.0;
    /// [`CellModel`]'s price of one duplicate hit, in ns: the scalar
    /// confirmation and reference-point test of a lane the filter kept.
    /// Halving or doubling it moves no pick of the cell sweep by more than 1%.
    pub const NS_PER_DUPLICATE: f64 = 5.0;
    /// Minimum total work (|A| + |B|) before a parallel plan pays for its
    /// fork/join overhead: 16 384 objects.
    pub const PARALLEL_MIN_WORK: u64 = 16_384;
    /// Pair budgets at or below this select a sequential plan: the sequential
    /// engine stops at exactly the k-th pair, while parallel workers overshoot
    /// by design.
    pub const EARLY_STOP_LIMIT: u64 = 1024;
    /// Probe objects per assignment work unit (shared with
    /// `StreamingConfig`).
    pub const DEFAULT_CHUNK_SIZE: usize = 4096;
    /// Inputs of at most this many objects are STR-sorted on one thread;
    /// larger ones spread the sort's slabs over the workers (shared with
    /// `StreamingConfig`).
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

    /// Plans a one-shot join of `a` and `b`.
    ///
    /// `a` must be the statistics of the dataset the engine will actually see —
    /// for a distance join, the ε-extended A (which is what
    /// [`crate::JoinQuery`] hands every engine). Equal statistics on both
    /// sides are taken for one dataset joined with itself
    /// ([`CellModel::pair`]).
    pub fn plan(&self, a: &DatasetStats, b: &DatasetStats, env: &PlanEnv) -> JoinPlan {
        let build_on_a = a.count() <= b.count();
        let tree_count = if build_on_a { a.count() } else { b.count() };
        let work = (a.count() + b.count()) as u64;
        let probe = if build_on_a { b } else { a };
        let model = CellModel::pair(a, b, build_on_a);
        self.plan_with_tree_side(probe, env, build_on_a, tree_count, work, model)
    }

    /// Plans a **self-join** of one dataset: the hierarchy is always on the
    /// (single) input, every knob is derived from its statistics alone, and the
    /// work estimate is halved relative to the naive `a ⋈ a` reading — a
    /// self-join enumerates each unordered pair once, not both orientations.
    ///
    /// `a` must be the statistics of the dataset the engine will actually see —
    /// for a distance self-join, the ε-extended view, whose boxes visit the
    /// grid cells. The probe side is the dataset itself, `env.epsilon`
    /// narrower on every side ([`CellModel::self_join`]).
    pub fn plan_self(&self, a: &DatasetStats, env: &PlanEnv) -> JoinPlan {
        let model = CellModel::self_join(a, env.epsilon);
        self.plan_with_tree_side(a, env, true, a.count(), a.count() as u64, model)
    }

    /// Collects the statistics a join of `shape` is costed on — both datasets
    /// for [`Shape::Pair`] ([`JoinPlanner::plan`]), `a` alone for
    /// [`Shape::SelfJoin`] ([`JoinPlanner::plan_self`]) — and plans with them.
    /// Also returns how long the statistics pass took (recorded by the auto
    /// engine as `PlanSummary::stats_time`).
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

    fn plan_with_tree_side(
        &self,
        probe: &DatasetStats,
        env: &PlanEnv,
        build_on_a: bool,
        tree_count: usize,
        work: u64,
        model: CellModel,
    ) -> JoinPlan {
        let target_leaf = Self::target_leaf_size(tree_count);
        let partitions = tree_count.div_ceil(target_leaf).clamp(1, 65_536);
        let fanout = if partitions > 4096 { 4 } else { 2 };
        let min_cell = model.best_cell();
        let allpairs_max_a = (target_leaf / 16).clamp(8, 128);
        // Per-node adaptive strategy selection, pinned to the *probe* side's
        // global density at plan time (the side streamed against the tree).
        // An empty or volume-less probe summary yields no density and falls
        // back to the global cutoff, so such plans stay exactly the historical
        // decisions.
        let adapt = match probe.density() {
            d if d > 0.0 => Some(crate::AdaptiveParams::with_density(d)),
            _ => None,
        };

        let strategy = if env.pair_limit.is_some_and(|k| k <= Self::EARLY_STOP_LIMIT) {
            ExecutionStrategy::Sequential
        } else if env.threads > 1 && work >= Self::PARALLEL_MIN_WORK {
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
                cells_per_dim: Self::CELLS_PER_DIM,
                min_cell_size: min_cell,
                allpairs_max_a,
                adapt,
            },
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            sort_threshold: Self::DEFAULT_SORT_THRESHOLD,
            estimated_work: work,
            estimate: (min_cell > 0.0)
                .then(|| model.estimate(min_cell))
                .filter(|e| [e.candidates, e.replicas, e.duplicates].iter().all(|v| v.is_finite())),
        }
    }
}

/// The planner's estimate of what the grid local joins cost at a given
/// minimum cell side, and the side that minimises it.
///
/// A grid local join copies each object of the **probe side** (the dataset
/// assigned to the tree's nodes) into every cell it overlaps, and each object
/// of the **tree side** (for a distance join, the ε-extended side) visits the
/// cells it overlaps and tests every candidate it finds there. An object of
/// mean side `s` overlaps `(s/c + 1)³` cells of side `c` on average, and a
/// cell meets `ρ_P (p + c)³` probe objects. With the tree side's mean side
/// `t` and count `n_T`, and the probe side's mean side `p`, count `n_P` and
/// density `ρ_P` ([`DatasetStats::density`]), a cell side `c` costs:
///
/// * **cell visits** `n_T (t/c + 1)³`;
/// * **candidate tests** `n_T ρ_P (t + c)³ (p + c)³ / c³`;
/// * **replicas** `n_P ((p/c + 1)³ − 1)`;
/// * **duplicate hits** `pairs · ((min(t, p)/c + 1)³ − 1)`, where the
///   expected pairs are `n_T ρ_P (t + p)³`: a pair is found in every cell
///   its intersection overlaps and reported from one.
///
/// When both sides are one dataset every object also meets itself: one more
/// pair per object, tested in every cell the smaller box overlaps.
///
/// A node's grid with more than 2²¹ cells falls back to a binary-searched
/// sparse directory. The largest node spans the tree side's extent, so below
/// the cell side at which the grid over that extent crosses 2²¹ cells, visits
/// are priced at the sparse rate.
///
/// The figures are weighted by the unit costs `JoinPlanner::NS_PER_*`. Each
/// term is a sum of powers of `c` with positive weights, so the cost is
/// convex in `ln c` on either side of the directory limit; the planner finds
/// each side's minimum from the sign of the derivative and keeps the
/// lower. The result is a pure function of the statistics, continuous in
/// them wherever the two sides' minima do not cost the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellModel {
    tree_side: f64,
    tree_count: f64,
    /// Per-axis extent of the tree side: the extent of the largest node grid.
    tree_extent: [f64; 3],
    probe_side: f64,
    probe_count: f64,
    probe_density: f64,
    /// Every tree object also meets itself on the probe side.
    self_meets: bool,
}

impl CellModel {
    /// The model of a pair join with its tree on `a` (`build_on_a`) or `b`.
    /// Equal statistics on both sides are taken for one dataset joined with
    /// itself, so every object also meets itself.
    pub fn pair(a: &DatasetStats, b: &DatasetStats, build_on_a: bool) -> Self {
        let (tree, probe) = if build_on_a { (a, b) } else { (b, a) };
        CellModel {
            probe_side: probe.mean_side_all_axes(),
            probe_count: probe.count() as f64,
            probe_density: probe.density(),
            self_meets: a == b,
            ..Self::tree(tree)
        }
    }

    /// The model of a self-join whose tree side `a` is the input extended by
    /// `epsilon`: the probe side is the same objects, `epsilon` narrower on
    /// every side, so their mean side is `t − 2ε` and their extent `2ε`
    /// narrower on every axis.
    pub fn self_join(a: &DatasetStats, epsilon: f64) -> Self {
        let narrow = |side: f64| (side - 2.0 * epsilon).max(0.0);
        let model = Self::tree(a);
        let volume: f64 = model.tree_extent.iter().map(|&side| narrow(side)).product();
        CellModel {
            probe_side: narrow(model.tree_side),
            probe_count: model.tree_count,
            probe_density: if volume > 0.0 { model.tree_count / volume } else { 0.0 },
            self_meets: true,
            ..model
        }
    }

    /// The tree-side half of a model; the probe side is left empty.
    fn tree(tree: &DatasetStats) -> Self {
        let extent = tree.mbr().map_or([0.0; 3], |m| [m.side(0), m.side(1), m.side(2)]);
        CellModel {
            tree_side: tree.mean_side_all_axes(),
            tree_count: tree.count() as f64,
            tree_extent: extent,
            probe_side: 0.0,
            probe_count: 0.0,
            probe_density: 0.0,
            self_meets: false,
        }
    }

    /// Twice the larger mean side (Section 5.2.2: cells "considerably larger
    /// than the average object"): the centre of the range the planner
    /// searches, ×¼ to ×4 around it.
    pub fn reference_cell(&self) -> f64 {
        2.0 * self.tree_side.max(self.probe_side)
    }

    /// The expected work of the grid local joins at minimum cell side `cell`
    /// (`cell > 0`).
    pub fn estimate(&self, cell: f64) -> PlanEstimate {
        let t = self.terms(cell);
        PlanEstimate {
            candidates: t.candidates.0,
            replicas: t.replicas.0,
            duplicates: t.duplicates.0,
        }
    }

    /// The estimated cost of the grid local joins at `cell`, in nanoseconds.
    fn cost_ns(&self, cell: f64) -> f64 {
        self.priced(&self.terms(cell), cell < self.dense_from(), |(value, _)| value)
    }

    /// The planner's pick: the cell side in `[¼, 4] ×`
    /// [`CellModel::reference_cell`] with the lowest [`CellModel::cost_ns`].
    /// Inputs with nothing to weigh — an empty side, or objects without
    /// extent — get the reference cell itself, and a non-finite mean side
    /// gets 0 (no floor), so the result is always finite and non-negative.
    fn best_cell(&self) -> f64 {
        let reference = self.reference_cell();
        if !reference.is_finite() {
            return 0.0;
        }
        if reference <= 0.0 || self.tree_count == 0.0 || self.probe_count == 0.0 {
            return reference;
        }
        let (lo, hi) = ((reference / 4.0).ln(), (reference * 4.0).ln());
        // Below `split` the largest grid is sparse, from it on dense.
        let split = self.dense_from().ln().clamp(lo, hi);
        let sparse = (lo < split).then(|| self.convex_min(lo, split, true));
        let dense = (split < hi).then(|| self.convex_min(split, hi, false));
        match (sparse, dense) {
            (Some(s), Some(d)) if self.cost_ns(s) < self.cost_ns(d) => s,
            (_, Some(d)) => d,
            (s, None) => s.unwrap_or(reference),
        }
    }

    /// The smallest cell side at which the grid over the tree side's extent
    /// fits the dense directory, sized as `UniformGrid::with_min_cell_size`
    /// sizes a node's grid (at most `JoinPlanner::CELLS_PER_DIM` per axis).
    fn dense_from(&self) -> f64 {
        let limit = crate::scratch::DENSE_DIRECTORY_MAX_CELLS as f64;
        let cap = JoinPlanner::CELLS_PER_DIM as f64;
        let cells = |cell: f64| -> f64 {
            self.tree_extent.iter().map(|&side| (side / cell).floor().clamp(1.0, cap)).product()
        };
        let longest = self.tree_extent.iter().fold(0.0f64, |m, &side| m.max(side));
        if !(longest.is_finite() && cells(f64::MIN_POSITIVE) > limit) {
            return 0.0;
        }
        // The cell count only falls as the cell grows: bisect on it.
        bisect(f64::MIN_POSITIVE.ln(), longest.ln(), |x| cells(x.exp()) <= limit).exp()
    }

    /// The cell side minimising the cost over `[from, to]` (in ln c), with
    /// visits at the sparse or the dense rate. The cost is convex in ln c, so
    /// this is where its derivative changes sign.
    fn convex_min(&self, from: f64, to: f64, sparse: bool) -> f64 {
        let rising = |x: f64| self.priced(&self.terms(x.exp()), sparse, |(_, slope)| slope) >= 0.0;
        bisect(from, to, rising).exp()
    }

    /// The cost of the figures or of their derivatives (`pick`), at the
    /// sparse or the dense visit rate.
    fn priced(&self, t: &Terms, sparse: bool, pick: fn((f64, f64)) -> f64) -> f64 {
        let visit =
            if sparse { JoinPlanner::NS_PER_SPARSE_VISIT } else { JoinPlanner::NS_PER_VISIT };
        visit * pick(t.visits)
            + JoinPlanner::NS_PER_CANDIDATE * pick(t.candidates)
            + JoinPlanner::NS_PER_REPLICA * pick(t.replicas)
            + JoinPlanner::NS_PER_DUPLICATE * pick(t.duplicates)
    }

    /// The four figures at `cell`, each with its derivative in ln c.
    fn terms(&self, c: f64) -> Terms {
        let (t, p) = (self.tree_side, self.probe_side);
        // The cells a box of side `s` overlaps, (s/c + 1)³, and its derivative.
        let cover = |s: f64| ((s / c + 1.0).powi(3), -3.0 * (s / c) * (s / c + 1.0).powi(2));
        let met = self.tree_count * self.probe_density;
        let shared = met * (t + c).powi(3) * (p + c).powi(3) / c.powi(3);
        let d_shared = 3.0 * shared * (c / (t + c) + c / (p + c) - 1.0);
        let selves = if self.self_meets { self.tree_count } else { 0.0 };
        let pairs = met * (t + p).powi(3) + selves;
        let (tree, probe, pair) = (cover(t), cover(p), cover(t.min(p)));
        Terms {
            visits: (self.tree_count * tree.0, self.tree_count * tree.1),
            candidates: (shared + selves * pair.0, d_shared + selves * pair.1),
            replicas: (self.probe_count * (probe.0 - 1.0), self.probe_count * probe.1),
            duplicates: (pairs * (pair.0 - 1.0), pairs * pair.1),
        }
    }
}

/// The point where `up` turns true on `[lo, hi]`, for an `up` that is false
/// and then true: `lo` if it is true throughout, `hi` if it never is.
fn bisect(mut lo: f64, mut hi: f64, up: impl Fn(f64) -> bool) -> f64 {
    if up(lo) {
        return lo;
    }
    if !up(hi) {
        return hi;
    }
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return hi;
        }
        if up(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// [`CellModel`]'s figures at one cell side, each as `(value, derivative
/// in ln c)`.
struct Terms {
    visits: (f64, f64),
    candidates: (f64, f64),
    replicas: (f64, f64),
    duplicates: (f64, f64),
}

/// The auto-planned TOUCH engine: collects [`DatasetStats`] for the inputs, runs
/// the [`JoinPlanner`] for a worker budget, and executes the plan with
/// [`TouchJoin::from_plan`].
///
/// A bare [`crate::JoinQuery`] (no `.engine(…)`) runs
/// `AutoEngine::with_threads(1)`, whose plans are always sequential; the facade
/// crate's `Engine::Auto` runs [`AutoEngine::new`], which plans for the
/// machine's parallelism. The statistics pass is timed and recorded as
/// `PlanSummary::stats_time` on the report, the executed plan is recorded on
/// [`RunReport::plan`], and the executing engine's name is appended to the
/// report's label (e.g. `"TOUCH-AUTO → TOUCH-P4"`).
///
/// Because a [`JoinPlan`] pins every algorithmic decision, the run is
/// bit-identical — pairs *and* counters — to running
/// [`TouchJoin::from_plan`] on the same plan directly; the planner equivalence
/// suite locks this down at 1/2/4/8 threads.
#[derive(Debug, Clone)]
pub struct AutoEngine {
    env: PlanEnv,
}

impl AutoEngine {
    /// An auto engine planning for the machine's detected parallelism.
    pub fn new() -> Self {
        AutoEngine { env: PlanEnv::detect() }
    }

    /// An auto engine planning for an explicit worker budget (1 keeps every
    /// plan sequential; the equivalence suites use it to exercise every
    /// strategy deterministically).
    pub fn with_threads(threads: usize) -> Self {
        AutoEngine { env: PlanEnv::sequential().with_threads(threads) }
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

    fn plan_for(&self, a: &Dataset, b: &Dataset, shape: Shape, epsilon: f64) -> Option<JoinPlan> {
        let env = PlanEnv { epsilon, ..self.env };
        Some(JoinPlanner::default().plan_datasets(a, b, shape, &env).0)
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
        // planning; the executor then owns all finer-grained polling.
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            return Ok(());
        }
        // Self-joins are costed on the single input's statistics (work estimate
        // halved — see `JoinPlanner::plan_self`); the executor then runs its
        // in-kernel index-order filter, so pairs and counters stay identical to
        // an explicitly pinned plan at every width.
        let mut env = self.env.with_pair_limit(sink.pair_limit());
        env.epsilon = report.epsilon;
        let (plan, stats_time) = JoinPlanner::default().plan_datasets(a, b, shape, &env);
        let engine = TouchJoin::from_plan(plan);
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
    use touch_geom::{Aabb, Point3};

    fn cloud(n: usize, seed: u64, side: f64) -> Dataset {
        spread(n, seed, side, 50.0)
    }

    /// `n` cubes of side `side` placed uniformly in `[0, space]³`.
    fn spread(n: usize, seed: u64, side: f64, space: f64) -> Dataset {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * space, next() * space, next() * space);
            Aabb::new(min, min + Point3::splat(side))
        }))
    }

    /// The rule the cost model replaced: twice the larger mean side.
    fn old_floor(a: &DatasetStats, b: &DatasetStats) -> f64 {
        2.0 * a.mean_side_all_axes().max(b.mean_side_all_axes())
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
    fn dense_probe_distance_joins_get_a_cell_below_the_old_floor() {
        // Extended tree boxes against a probe side dense enough that each tree
        // box meets hundreds of candidates at the old floor.
        let tree = DatasetStats::from_dataset(&cloud(2_000, 1, 1.0).extended(5.0));
        let probe = stats(40_000, 2, 1.0);
        let mut env = PlanEnv::sequential();
        env.epsilon = 5.0;
        let plan = JoinPlanner::default().plan(&tree, &probe, &env);
        assert!(plan.build_on_a);
        let (cell, floor) = (plan.params.min_cell_size, old_floor(&tree, &probe));
        assert!(cell < 0.75 * floor, "cell {cell} vs the old floor {floor}");
        // The plan keeps the model's estimate at the chosen cell.
        let model = CellModel::pair(&tree, &probe, true);
        assert_eq!(plan.estimate, Some(model.estimate(cell)));
        assert_eq!(plan.summary().estimate, plan.estimate);
        assert!(model.cost_ns(cell) < model.cost_ns(floor));
    }

    #[test]
    fn sparse_tick_like_self_joins_keep_at_least_the_old_floor() {
        // A sparse world of small boxes, self-joined within ε = 3: each
        // extended box meets a handful of others, and smaller cells would
        // only add visits.
        let eps = 3.0;
        let extended = DatasetStats::from_dataset(&spread(20_000, 3, 0.75, 1000.0).extended(eps));
        let mut env = PlanEnv::sequential().with_threads(2);
        env.epsilon = eps;
        let plan = JoinPlanner::default().plan_self(&extended, &env);
        let (cell, floor) = (plan.params.min_cell_size, old_floor(&extended, &extended));
        assert!(cell >= floor, "cell {cell} vs the old floor {floor}");
        assert!(cell <= 4.0 * floor, "the search stays within ×4 of the reference");
        // The probe side is the raw boxes: every one meets itself.
        let estimate = plan.estimate.expect("planned cells carry their estimate");
        assert!(estimate.candidates >= 20_000.0, "{estimate:?}");
    }

    #[test]
    fn degenerate_stats_plan_a_finite_non_negative_cell() {
        let points = Dataset::from_mbrs((0..50).map(|i| {
            let p = Point3::new(i as f64, 2.0 * i as f64, 0.5);
            Aabb::new(p, p)
        }));
        let flat = Dataset::from_mbrs((0..50).map(|i| {
            let min = Point3::new(i as f64, 0.0, 0.0);
            Aabb::new(min, min + Point3::new(1.0, 1.0, 0.0))
        }));
        let cases = [
            DatasetStats::new(),
            stats(1, 4, 1.0),
            DatasetStats::from_dataset(&points),
            DatasetStats::from_dataset(&flat),
            stats(300, 5, 0.0),
            stats(300, 6, 2.0),
            // Extents whose cubes overflow: the estimate is dropped, not NaN.
            DatasetStats::from_dataset(&spread(40, 7, 1e120, 1e120)),
        ];
        let planner = JoinPlanner::default();
        for eps in [0.0, 2.0] {
            let mut env = PlanEnv::sequential();
            env.epsilon = eps;
            for a in &cases {
                let mut plans = vec![planner.plan_self(a, &env)];
                plans.extend(cases.iter().map(|b| planner.plan(a, b, &env)));
                for plan in plans {
                    let cell = plan.params.min_cell_size;
                    assert!(cell.is_finite() && cell >= 0.0, "cell {cell} for {a:?}");
                    if let Some(e) = plan.estimate {
                        let figures = [e.candidates, e.replicas, e.duplicates];
                        assert!(figures.iter().all(|v| v.is_finite() && *v >= 0.0), "{e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_planned_cell_minimises_the_estimated_cost() {
        let tree = DatasetStats::from_dataset(&cloud(3_000, 7, 1.5).extended(2.0));
        for probe in [stats(30_000, 8, 0.5), stats(300, 9, 0.5)] {
            let model = CellModel::pair(&tree, &probe, true);
            let best = model.best_cell();
            let reference = model.reference_cell();
            assert!((reference / 4.0..=reference * 4.0).contains(&best));
            for step in [0.9, 0.99, 1.01, 1.1] {
                let near = (best * step).clamp(reference / 4.0, reference * 4.0);
                assert!(model.cost_ns(best) <= model.cost_ns(near) * (1.0 + 1e-12));
            }
        }
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
    }

    #[test]
    fn self_join_plans_cost_one_dataset_and_halve_the_work() {
        let planner = JoinPlanner::default();
        let a = stats(10_000, 1, 1.0);
        let env = PlanEnv::sequential().with_threads(8);

        let self_plan = planner.plan_self(&a, &env);
        assert!(self_plan.build_on_a, "the hierarchy is always on the single input");
        assert_eq!(self_plan.estimated_work, 10_000, "half the naive a ⋈ a estimate");
        // 10k entities < PARALLEL_MIN_WORK once the estimate is halved, so the
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
        // The hierarchy is always on the tree dataset; no probe side is seen.
        let tree = cloud(5_000, 1, 1.0);
        let cfg = TouchConfig::default();
        let plan = JoinPlan::from_streaming_tree(&cfg, &tree, 3, 64, 128);
        assert!(plan.build_on_a);
        assert_eq!(plan.strategy, ExecutionStrategy::Streaming { threads: 3 });
        assert_eq!((plan.chunk_size, plan.sort_threshold), (64, 128));
        // The cell floor comes from the tree dataset alone.
        assert_eq!(plan.params, cfg.local_join_params(cfg.min_local_cell_size_of(&tree)));
        assert!(plan.summary().compact().starts_with("streaming(3):p"));
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
