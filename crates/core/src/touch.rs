//! The TOUCH join algorithm: configuration and the [`SpatialJoinAlgorithm`]
//! implementation tying the three phases together (Algorithm 1).

use crate::control::{ExecControl, JoinError};
use crate::phases::{assign_and_join, build_tree, resolve_threads};
use crate::plan::{ExecutionStrategy, JoinPlan};
use crate::tree::LocalJoinKind;
use crate::{PairSink, ScratchPool, Shape, SpatialJoinAlgorithm};
use serde::{Deserialize, Serialize};
use touch_geom::Dataset;
use touch_metrics::{MemoryUsage, RunReport};

/// Which dataset the hierarchy is built on (Section 5.2.3, *Join Order*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinOrder {
    /// Build the tree on the smaller dataset (the paper's recommendation and the
    /// default): it is likely sparser, filters more of the other dataset, and keeps
    /// the hierarchy small.
    SmallerAsTree,
    /// Always build the tree on dataset A as given.
    TreeOnA,
    /// Always build the tree on dataset B.
    TreeOnB,
}

/// Configuration of the TOUCH join.
///
/// The defaults are the paper's evaluated configuration (Section 6.1): 1024
/// partitions, fanout 2, 500 grid cells per dimension for the local join, grid local
/// join, smaller dataset first.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TouchConfig {
    /// Number of STR buckets (leaves) the tree is built from. Paper default: 1024.
    pub partitions: usize,
    /// Fanout of the hierarchy. Paper default: 2.
    pub fanout: usize,
    /// Target number of grid cells per dimension for the local join. Paper default:
    /// 500. The effective resolution is capped so cells stay larger than
    /// `min_cell_factor ×` the average object side (Section 5.2.2).
    pub local_cells_per_dim: usize,
    /// The local-join cell size is at least this multiple of the average object side.
    pub min_cell_factor: f64,
    /// Local-join strategy.
    pub local_join: LocalJoinKind,
    /// Which dataset the hierarchy is built on.
    pub join_order: JoinOrder,
    /// Nodes whose subtree holds at most this many A-objects use an all-pairs scan
    /// instead of building a local-join grid. The cutoff looks only at the A side —
    /// never at how many B-objects the node holds — so per-node strategy decisions
    /// are identical whether B is joined in one shot or streamed in epochs (see
    /// [`crate::LocalJoinParams`]).
    pub grid_allpairs_max_a: usize,
}

impl Default for TouchConfig {
    fn default() -> Self {
        TouchConfig {
            partitions: 1024,
            fanout: 2,
            local_cells_per_dim: 500,
            min_cell_factor: 2.0,
            local_join: LocalJoinKind::Grid,
            join_order: JoinOrder::SmallerAsTree,
            grid_allpairs_max_a: 8,
        }
    }
}

/// The TOUCH in-memory spatial join (the paper's contribution), at any width:
/// the one one-shot TOUCH engine.
///
/// It holds either an explicit [`TouchConfig`] with a worker count, translated
/// per run with [`JoinPlan::from_touch_config`] (reproducing the pre-planning
/// behaviour exactly), or a pinned [`JoinPlan`] ([`TouchJoin::from_plan`]), the
/// form the planning layer dispatches to, which runs at its own width,
/// [`JoinPlan::threads`]. [`TouchJoin::new`] runs on one worker and
/// [`TouchJoin::with_threads`] sets the width. The tree, the assignment, the
/// pairs and the counters are the same at every width; only the arrival order
/// of pairs and the wall-clock times vary.
#[derive(Debug, Clone)]
pub struct TouchJoin {
    source: Source,
}

/// What a [`TouchJoin`] executes.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// An explicit configuration on `threads` workers (`0` detects them).
    Config { config: TouchConfig, threads: usize },
    /// A pinned plan, run at [`JoinPlan::threads`].
    Plan(JoinPlan),
}

impl Default for TouchJoin {
    fn default() -> Self {
        TouchJoin::new(TouchConfig::default())
    }
}

impl TouchConfig {
    /// Whether the hierarchy is built on dataset A under this configuration's
    /// [`JoinOrder`]: the one place the decision is made.
    pub fn builds_tree_on_a(&self, a: &Dataset, b: &Dataset) -> bool {
        match self.join_order {
            JoinOrder::TreeOnA => true,
            JoinOrder::TreeOnB => false,
            JoinOrder::SmallerAsTree => a.len() <= b.len(),
        }
    }

    /// The minimum local-join grid cell size for joining `a` and `b`: grid cells
    /// must stay larger than the average object (Section 5.2.2), measured over both
    /// inputs.
    pub fn min_local_cell_size(&self, a: &Dataset, b: &Dataset) -> f64 {
        self.min_local_cell_size_of(a).max(self.min_local_cell_size_of(b))
    }

    /// The minimum local-join grid cell size derived from a single dataset. This is
    /// what `touch-streaming` uses: when B arrives in epochs its global average
    /// object size is unknown at build time, so the streaming engine sizes its grid
    /// cells from the tree dataset alone. Equals [`TouchConfig::min_local_cell_size`]
    /// whenever the tree dataset's objects are at least as large on average as the
    /// probe dataset's.
    pub fn min_local_cell_size_of(&self, ds: &Dataset) -> f64 {
        self.min_local_cell_size_of_objects(ds.objects())
    }

    /// The bare-slice form of [`TouchConfig::min_local_cell_size_of`]: identical
    /// arithmetic (same summation order, so the result is bit-identical to the
    /// [`Dataset`] form over the same objects) for callers that hold object
    /// slices rather than datasets — the serving layer resolves its per-query
    /// grid floor from the frozen generation's A-objects and the probe batch
    /// through this.
    pub fn min_local_cell_size_of_objects(&self, objects: &[touch_geom::SpatialObject]) -> f64 {
        let side = |axis: usize| {
            if objects.is_empty() {
                return 0.0;
            }
            objects.iter().map(|o| o.mbr.side(axis)).sum::<f64>() / objects.len() as f64
        };
        let avg = (0..3).map(side).sum::<f64>() / 3.0;
        avg * self.min_cell_factor
    }

    /// The [`LocalJoinParams`](crate::LocalJoinParams) this configuration selects for
    /// the given minimum cell size — the single place the per-node join knobs are
    /// assembled, shared by the one-shot and streaming execution paths. An
    /// explicit configuration keeps the single global `grid_allpairs_max_a`
    /// cutoff; only the planner sets [`crate::LocalJoinParams::adapt`].
    pub fn local_join_params(&self, min_cell_size: f64) -> crate::LocalJoinParams {
        crate::LocalJoinParams {
            kind: self.local_join,
            cells_per_dim: self.local_cells_per_dim,
            min_cell_size,
            allpairs_max_a: self.grid_allpairs_max_a,
            adapt: None,
        }
    }
}

impl TouchJoin {
    /// Creates a TOUCH join with the given configuration, on one worker.
    pub fn new(config: TouchConfig) -> Self {
        TouchJoin { source: Source::Config { config, threads: 1 } }
    }

    /// Creates a TOUCH join that executes a pre-computed, fully resolved
    /// [`JoinPlan`] (the planner's output) at the plan's width. The plan pins
    /// every decision — tree side, partitioning, grid sizing, worker count — so
    /// it should be executed on the datasets it was planned for.
    pub fn from_plan(plan: JoinPlan) -> Self {
        TouchJoin { source: Source::Plan(plan) }
    }

    /// Creates a TOUCH join with the paper's default configuration but a custom
    /// fanout (used by the fanout-impact experiment, Figure 14).
    pub fn with_fanout(fanout: usize) -> Self {
        TouchJoin::new(TouchConfig { fanout, ..TouchConfig::default() })
    }

    /// This join on `threads` workers; `0` detects the machine's available
    /// parallelism ([`resolve_threads`]). A configured join records its plan as
    /// `sequential` on one worker and `parallel(n)` on more; a plan-pinned join
    /// keeps its knobs and takes the new width as its strategy.
    pub fn with_threads(self, threads: usize) -> Self {
        let source = match self.source {
            Source::Config { config, .. } => Source::Config { config, threads },
            Source::Plan(plan) => Source::Plan(plan.with_strategy(strategy_for(threads))),
        };
        TouchJoin { source }
    }

    /// The plan this join executes for datasets `a` and `b`: the pinned plan if
    /// one was provided, otherwise the faithful translation of the configuration
    /// at the configured width.
    fn resolve_plan(&self, a: &Dataset, b: &Dataset) -> JoinPlan {
        match self.source {
            Source::Config { config, threads } => {
                JoinPlan::from_touch_config(&config, a, b).with_strategy(strategy_for(threads))
            }
            Source::Plan(plan) => plan,
        }
    }
}

/// The strategy of a configured width: one worker runs `sequential`, more run
/// `parallel(n)`, and `0` resolves to the machine's parallelism first.
fn strategy_for(threads: usize) -> ExecutionStrategy {
    match resolve_threads(threads) {
        1 => ExecutionStrategy::Sequential,
        threads => ExecutionStrategy::Parallel { threads },
    }
}

/// Executes a resolved [`JoinPlan`] at its width, [`JoinPlan::threads`]: the one
/// execution path behind [`TouchJoin`] and, through it, the planning layer's
/// [`crate::AutoEngine`], so no width or plan can diverge. It is the two entries
/// of [`crate::phases`]: [`build_tree`] on the plan's tree side, then
/// [`assign_and_join`] of the other side over the tree's own store. At one
/// worker the phases run in-thread, at more they spread over scoped workers
/// that claim the units from one list, and the tree, the assignment, the pairs
/// and the counters are the same at every width. `ctl.trace` receives phase
/// spans, per-chunk assignment spans and per-node join spans.
///
/// For [`Shape::SelfJoin`] the index-order filter sits inside the emit closures
/// — identity pairs and mirrored duplicates are dropped *before* the sink sees
/// them, so early termination budgets are spent on post-filter pairs only
/// while the comparison/node-test counters stay identical to the raw `a ⋈ b`
/// run.
///
/// Cooperation contract:
///
/// * the cancel token is polled before the build, between the phases, per
///   assignment chunk and per join node; a tripped token stops the run in an
///   orderly way and returns `Ok` with the partial report stamped
///   ([`Completion`](touch_metrics::Completion)),
/// * each phase, its trace hook included, runs inside
///   [`catch_phase`](crate::catch_phase), and each worker inside a containment
///   of its own, so a panic surfaces as `Err(`[`JoinError::WorkerPanicked`]`)`
///   (phase and worker attributed) with the report's counters and phase times
///   covering the work completed before the panic,
/// * with an untriggered token the run is bit-identical — pairs *and* counters
///   — to the pre-fault-tolerance code path (locked by the equivalence suites
///   and the perfsmoke counter gate).
///
/// `memory_bytes` is the tree plus the transient buffers of every phase
/// reached: the STR sort keys, the assignment batches and the join scratch.
fn execute(
    plan: &JoinPlan,
    a: &Dataset,
    b: &Dataset,
    shape: Shape,
    sink: &mut dyn PairSink,
    report: &mut RunReport,
    ctl: ExecControl<'_>,
) -> Result<(), JoinError> {
    report.plan = Some(plan.summary());
    report.threads = plan.threads();
    let (tree_ds, probe_ds) = if plan.build_on_a { (a, b) } else { (b, a) };
    if let Some(cause) = ctl.cancel.triggered() {
        report.completion = cause.completion();
        return Ok(());
    }
    let (mut tree, sort_aux) =
        build_tree(tree_ds.objects(), Vec::new(), plan, &mut report.timer, ctl.trace)?;
    // The pool's scratches live for the whole join, so the per-node grid
    // directories and sweep buffers allocate once per worker.
    let mut pool = ScratchPool::new();
    let (counters, timer) = (&mut report.counters, &mut report.timer);
    let (aux, cause) = tree.with_store(|store, tree| {
        let probe = probe_ds.objects();
        assign_and_join(tree, store, probe, plan, shape, sink, &mut pool, counters, timer, ctl)
    })?;
    report.memory_bytes = tree.memory_bytes() + sort_aux + aux;
    if let Some(cause) = cause {
        report.completion = cause.completion();
    }
    Ok(())
}

impl SpatialJoinAlgorithm for TouchJoin {
    /// `TOUCH` on one worker, `TOUCH-P{n}` on `n`, and `TOUCH-P` when the width
    /// is detected at run time.
    fn name(&self) -> String {
        let threads = match self.source {
            Source::Config { threads, .. } => threads,
            Source::Plan(plan) => plan.threads(),
        };
        match threads {
            1 => "TOUCH".to_string(),
            0 => "TOUCH-P".to_string(),
            n => format!("TOUCH-P{n}"),
        }
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, _shape: Shape, _epsilon: f64) -> Option<JoinPlan> {
        Some(self.resolve_plan(a, b))
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
        execute(&self.resolve_plan(a, b), a, b, shape, sink, report, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_join;
    use touch_geom::{Aabb, Point3};

    fn lattice(side: usize, spacing: f64, box_side: f64, offset: f64) -> Dataset {
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(
                        x as f64 * spacing + offset,
                        y as f64 * spacing + offset,
                        z as f64 * spacing + offset,
                    );
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(box_side)));
                }
            }
        }
        ds
    }

    fn brute_pairs(a: &Dataset, b: &Dataset) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if oa.mbr.intersects(&ob.mbr) {
                    out.push((oa.id, ob.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn default_configuration_matches_the_paper() {
        let c = TouchConfig::default();
        assert_eq!(c.partitions, 1024);
        assert_eq!(c.fanout, 2);
        assert_eq!(c.local_cells_per_dim, 500);
        assert_eq!(c.local_join, LocalJoinKind::Grid);
        assert_eq!(c.join_order, JoinOrder::SmallerAsTree);
        assert_eq!(c.grid_allpairs_max_a, 8);
        assert_eq!(TouchJoin::default().name(), "TOUCH");
    }

    #[test]
    fn matches_brute_force_on_overlapping_lattices() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let b = lattice(6, 1.3, 0.9, 0.4);
        let expected = brute_pairs(&a, &b);
        let (pairs, report) = collect_join(&TouchJoin::default(), &a, &b);
        assert_eq!(pairs, expected);
        assert_eq!(report.result_pairs(), expected.len() as u64);
        assert!(report.memory_bytes > 0);
    }

    #[test]
    fn join_order_does_not_change_results_or_orientation() {
        let a = lattice(4, 1.4, 1.0, 0.0);
        let b = lattice(6, 1.1, 0.8, 0.3); // larger than a
        let expected = brute_pairs(&a, &b);
        for order in [JoinOrder::SmallerAsTree, JoinOrder::TreeOnA, JoinOrder::TreeOnB] {
            let algo = TouchJoin::new(TouchConfig { join_order: order, ..TouchConfig::default() });
            let (pairs, _) = collect_join(&algo, &a, &b);
            assert_eq!(pairs, expected, "join order {order:?} changed the result");
        }
    }

    #[test]
    fn all_local_join_strategies_agree() {
        let a = lattice(4, 1.2, 1.0, 0.0);
        let b = lattice(5, 1.0, 0.7, 0.2);
        let expected = brute_pairs(&a, &b);
        for strategy in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep, LocalJoinKind::AllPairs] {
            let algo =
                TouchJoin::new(TouchConfig { local_join: strategy, ..TouchConfig::default() });
            let (pairs, _) = collect_join(&algo, &a, &b);
            assert_eq!(pairs, expected, "strategy {strategy:?} changed the result");
        }
    }

    #[test]
    fn fanout_variants_agree_and_report_filtering() {
        // Dataset A in a corner, half of B far away: those B objects are filtered.
        let a = lattice(4, 1.5, 1.0, 0.0);
        let mut b = lattice(4, 1.5, 1.0, 0.5);
        for i in 0..32 {
            b.push_mbr(Aabb::new(
                Point3::splat(500.0 + i as f64 * 3.0),
                Point3::splat(501.0 + i as f64 * 3.0),
            ));
        }
        let expected = brute_pairs(&a, &b);
        for fanout in [2, 4, 8, 16] {
            let algo = TouchJoin::with_fanout(fanout);
            let (pairs, report) = collect_join(&algo, &a, &b);
            assert_eq!(pairs, expected, "fanout {fanout} changed the result");
            assert_eq!(report.counters.filtered, 32, "far-away B objects must be filtered");
        }
    }

    #[test]
    fn self_join_matches_brute_force_unordered_pairs() {
        let a = lattice(5, 1.2, 1.5, 0.0); // side > spacing: every neighbour pair overlaps
        let expected: Vec<(u32, u32)> =
            brute_pairs(&a, &a).into_iter().filter(|&(x, y)| x < y).collect();
        assert!(!expected.is_empty());
        let mut sink = crate::CollectingSink::new();
        let report = crate::JoinQuery::self_join(&a).engine(TouchJoin::default()).run(&mut sink);
        assert_eq!(sink.sorted_pairs(), expected);
        assert_eq!(report.result_pairs(), expected.len() as u64);
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let empty = Dataset::new();
        let b = lattice(3, 2.0, 1.0, 0.0);
        let (pairs, report) = collect_join(&TouchJoin::default(), &empty, &b);
        assert!(pairs.is_empty());
        assert_eq!(report.result_pairs(), 0);
        let (pairs, _) = collect_join(&TouchJoin::default(), &b, &empty);
        assert!(pairs.is_empty());
    }

    #[test]
    fn phase_times_are_populated() {
        let a = lattice(6, 1.5, 1.0, 0.0);
        let b = lattice(6, 1.5, 1.0, 0.2);
        let mut sink = crate::CountingSink::new();
        let report = crate::JoinQuery::new(&a, &b).engine(TouchJoin::default()).run(&mut sink);
        assert!(report.total_time() > std::time::Duration::ZERO);
        assert_eq!(report.dataset_a, a.len());
        assert_eq!(report.dataset_b, b.len());
        assert_eq!(report.result_pairs(), sink.count());
    }
}
