//! The parallel TOUCH join: the three phases of Algorithm 1 executed on a thread
//! pool, with results and counters sharded per worker and merged at the end.

use crate::phases::{par_assign_ctl, par_build_tree, par_join_into_ctl};
use crate::ParallelConfig;
use touch_core::{
    catch_phase, time_phase_traced, ExecControl, ExecutionStrategy, JoinError, JoinPlan, PairSink,
    ScratchPool, Shape, SpatialJoinAlgorithm,
};
use touch_geom::Dataset;
use touch_metrics::{MemoryUsage, Phase, RunReport};

/// Multi-threaded TOUCH (implements [`SpatialJoinAlgorithm`]).
///
/// Algorithmically this is exactly [`touch_core::TouchJoin`] — same hierarchy, same
/// assignment rule, same local joins — executed on `threads` workers:
///
/// 1. **Build**: the STR sort of the tree dataset spreads its slabs over the
///    workers ([`crate::sort::par_str_sort`]), then the hierarchy is assembled
///    with [`touch_core::TouchTree::from_tiled`].
/// 2. **Assignment**: the probe dataset is cut into [`ParallelConfig::chunk_size`]
///    chunks; workers claim chunks from work-stealing queues and compute each
///    object's target node with the read-only [`touch_core::TouchTree::assignment_target`]; the
///    coordinator applies the batches in chunk order, reproducing the sequential
///    assignment exactly.
/// 3. **Join**: the nodes holding B-objects are sorted by estimated cost
///    (descending) and distributed over work-stealing deques
///    ([`crate::scheduler::StealQueues`]); each worker drains nodes through
///    [`touch_core::TouchTree::local_join_node`] into its own [`touch_core::SinkShard`] and
///    [`touch_metrics::Counters`], merged when the phase joins.
///
/// **Determinism**: because the parallel STR sort is stable and bit-identical to the
/// sequential sort, the tree, the assignment and every per-node local join are the
/// same for *every* thread count — the sorted result set **and all counters** equal
/// the sequential `TouchJoin` run configured with the same
/// [`touch_core::TouchConfig`]. Only the arrival order of pairs in the sink (and the
/// wall-clock phase times) vary between runs.
#[derive(Debug, Clone, Default)]
pub struct ParallelTouchJoin {
    config: ParallelConfig,
    plan: Option<JoinPlan>,
}

impl ParallelTouchJoin {
    /// Creates a parallel TOUCH join with the given configuration.
    pub fn new(config: ParallelConfig) -> Self {
        ParallelTouchJoin { config, plan: None }
    }

    /// Creates a parallel TOUCH join that executes a pre-computed, fully
    /// resolved [`JoinPlan`] (the planner's output): tree side, partitioning and
    /// grid sizing are pinned by the plan, the worker count comes from the
    /// plan's strategy. Like every `from_plan` constructor, the plan should be
    /// executed on the datasets it was planned for.
    pub fn from_plan(plan: JoinPlan) -> Self {
        ParallelTouchJoin {
            config: ParallelConfig {
                threads: plan.threads(),
                chunk_size: plan.chunk_size,
                sort_threshold: plan.sort_threshold,
                touch: plan.as_touch_config(),
            },
            plan: Some(plan),
        }
    }

    /// Default algorithmic configuration pinned to an explicit thread count
    /// (`with_threads(1)` is the sequential algorithm on the pool machinery).
    pub fn with_threads(threads: usize) -> Self {
        ParallelTouchJoin::new(ParallelConfig::with_threads(threads))
    }

    /// The configuration this join runs with (for a plan-pinned join, the
    /// equivalent explicit configuration).
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// The plan this join executes for datasets `a` and `b`: the pinned plan if
    /// one was provided, otherwise the faithful translation of the configuration.
    fn resolve_plan(&self, a: &Dataset, b: &Dataset) -> JoinPlan {
        self.plan.unwrap_or_else(|| {
            JoinPlan::from_touch_config(&self.config.touch, a, b)
                .with_strategy(ExecutionStrategy::Parallel {
                    threads: self.config.effective_threads(),
                })
                .with_execution(self.config.chunk_size, self.config.sort_threshold)
        })
    }
}

/// Executes a resolved [`JoinPlan`] on the work-stealing machinery: the one
/// parallel execution path behind [`ParallelTouchJoin`]'s
/// [`SpatialJoinAlgorithm::try_join`], shared by explicit configurations and the
/// planning layer so the two can never diverge. `ctl.trace` receives phase
/// spans, per-chunk assignment spans, per-node join spans and steal events.
/// [`Shape::SelfJoin`] pushes the index-order filter into the worker emit
/// closures (via [`par_join_into_ctl`]'s `self_join` flag), so shared pair
/// budgets are spent on post-filter pairs only, and pairs, counters and the
/// tree are bit-identical at every worker count.
///
/// The cooperation contract matches the sequential engine's: the token is
/// polled between phases and — inside [`par_assign_ctl`] /
/// [`par_join_into_ctl`] — per chunk and per node by every worker; a tripped
/// token ends the run in an orderly way with the partial report's completion
/// stamped, a panicked worker is contained and surfaced as
/// `Err(`[`JoinError::WorkerPanicked`]`)` (its siblings stop via a shared abort
/// flag), and with an untriggered token the run is bit-identical at every
/// thread count.
fn execute_parallel(
    plan: &JoinPlan,
    a: &Dataset,
    b: &Dataset,
    shape: Shape,
    sink: &mut dyn PairSink,
    report: &mut RunReport,
    ctl: ExecControl<'_>,
) -> Result<(), JoinError> {
    report.plan = Some(plan.summary());
    let threads = plan.threads();
    report.threads = threads;
    let build_on_a = plan.build_on_a;
    let (tree_ds, probe_ds) = if build_on_a { (a, b) } else { (b, a) };
    if let Some(cause) = ctl.cancel.triggered() {
        report.completion = cause.completion();
        return Ok(());
    }

    // Phase 1: parallel STR sort, then hierarchy assembly (Algorithm 2). Each
    // phase is timed at its fork/join point, so the recorded duration is wall
    // clock — correct no matter how many workers ran inside. The sort has no
    // internal cancel points (it is memory-bound and brief relative to the
    // join), so the token is re-checked right after it.
    let (mut tree, sort_aux) = catch_phase(Phase::Build, 0, || {
        time_phase_traced(report, Phase::Build, ctl.trace, || {
            par_build_tree(
                tree_ds.objects(),
                plan.partitions,
                plan.fanout,
                threads,
                plan.sort_threshold,
            )
        })
    })?;
    if let Some(cause) = ctl.cancel.triggered() {
        report.memory_bytes = tree.memory_bytes() + sort_aux;
        report.completion = cause.completion();
        return Ok(());
    }

    // Phase 2: chunked parallel assignment (Algorithm 3).
    let mut counters = std::mem::take(&mut report.counters);
    let assigned = time_phase_traced(report, Phase::Assignment, ctl.trace, || {
        par_assign_ctl(&mut tree, probe_ds.objects(), plan.chunk_size, threads, &mut counters, ctl)
    });
    let assign_aux = match assigned {
        Ok((aux, None)) => aux,
        Ok((aux, Some(cause))) => {
            report.counters = counters;
            report.memory_bytes = tree.memory_bytes() + sort_aux + aux;
            report.completion = cause.completion();
            return Ok(());
        }
        Err(e) => {
            report.counters = counters;
            return Err(e);
        }
    };

    // Phase 3: work-stealing local joins (Algorithm 4). Grid sizing is pinned by
    // the plan — the same resolved parameters the sequential engine executes.
    let mut pool = ScratchPool::new();
    let joined = time_phase_traced(report, Phase::Join, ctl.trace, || {
        par_join_into_ctl(
            &tree,
            &plan.params,
            threads,
            !build_on_a,
            shape == Shape::SelfJoin,
            sink,
            &mut pool,
            &mut counters,
            ctl,
        )
    });
    match joined {
        Ok((aux_bytes, cause)) => {
            report.counters = counters;
            // Charge the transient buffers of every phase, not just the local
            // joins: unlike the sequential join, the parallel one buffers sort
            // scratch and assignment batches, and hiding them would flatter
            // TOUCH-P in the experiments' memory comparison.
            report.memory_bytes = tree.memory_bytes() + sort_aux + assign_aux + aux_bytes;
            if let Some(cause) = cause {
                report.completion = cause.completion();
            }
            Ok(())
        }
        Err(e) => {
            report.counters = counters;
            report.memory_bytes = tree.memory_bytes() + sort_aux + assign_aux;
            Err(e)
        }
    }
}

impl SpatialJoinAlgorithm for ParallelTouchJoin {
    fn name(&self) -> String {
        if self.config.threads > 0 {
            format!("TOUCH-P{}", self.config.threads)
        } else {
            "TOUCH-P".to_string()
        }
    }

    fn plan_for(&self, a: &Dataset, b: &Dataset, _shape: Shape) -> Option<JoinPlan> {
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
        execute_parallel(&self.resolve_plan(a, b), a, b, shape, sink, report, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_core::{
        collect_join, distance_join, CountingSink, JoinOrder, JoinQuery, LocalJoinStrategy,
        TouchConfig, TouchJoin,
    };
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

    /// A config that actually exercises the parallel paths on test-sized inputs.
    fn busy_config(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            chunk_size: 16,
            sort_threshold: 32,
            touch: TouchConfig { partitions: 16, ..TouchConfig::default() },
        }
    }

    #[test]
    fn matches_brute_force_for_every_thread_count() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let b = lattice(6, 1.3, 0.9, 0.4);
        let expected = brute_pairs(&a, &b);
        for threads in [1, 2, 3, 8] {
            let algo = ParallelTouchJoin::new(busy_config(threads));
            let (pairs, report) = collect_join(&algo, &a, &b);
            assert_eq!(pairs, expected, "threads = {threads}");
            assert_eq!(report.result_pairs(), expected.len() as u64);
            assert_eq!(report.threads, threads);
        }
    }

    #[test]
    fn is_bit_deterministic_against_the_sequential_join() {
        let a = lattice(5, 1.4, 1.0, 0.0);
        let b = lattice(6, 1.1, 0.8, 0.3);
        let touch_cfg = TouchConfig { partitions: 16, ..TouchConfig::default() };
        let (seq_pairs, seq_report) = collect_join(&TouchJoin::new(touch_cfg), &a, &b);
        for threads in [1, 2, 8] {
            let algo = ParallelTouchJoin::new(ParallelConfig {
                threads,
                chunk_size: 16,
                sort_threshold: 32,
                touch: touch_cfg,
            });
            let (pairs, report) = collect_join(&algo, &a, &b);
            assert_eq!(pairs, seq_pairs, "threads = {threads}: result set diverged");
            assert_eq!(
                report.counters, seq_report.counters,
                "threads = {threads}: counters diverged from the sequential join"
            );
        }
    }

    #[test]
    fn all_local_join_strategies_agree() {
        let a = lattice(4, 1.2, 1.0, 0.0);
        let b = lattice(5, 1.0, 0.7, 0.2);
        let expected = brute_pairs(&a, &b);
        for strategy in
            [LocalJoinStrategy::Grid, LocalJoinStrategy::PlaneSweep, LocalJoinStrategy::AllPairs]
        {
            let mut config = busy_config(4);
            config.touch.local_join = strategy;
            let (pairs, _) = collect_join(&ParallelTouchJoin::new(config), &a, &b);
            assert_eq!(pairs, expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn join_order_does_not_change_results_or_orientation() {
        let a = lattice(4, 1.4, 1.0, 0.0);
        let b = lattice(6, 1.1, 0.8, 0.3); // larger than a
        let expected = brute_pairs(&a, &b);
        for order in [JoinOrder::SmallerAsTree, JoinOrder::TreeOnA, JoinOrder::TreeOnB] {
            let mut config = busy_config(4);
            config.touch.join_order = order;
            let (pairs, _) = collect_join(&ParallelTouchJoin::new(config), &a, &b);
            assert_eq!(pairs, expected, "join order {order:?}");
        }
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let empty = Dataset::new();
        let b = lattice(3, 2.0, 1.0, 0.0);
        for threads in [1, 4] {
            let algo = ParallelTouchJoin::with_threads(threads);
            let (pairs, report) = collect_join(&algo, &empty, &b);
            assert!(pairs.is_empty());
            assert_eq!(report.result_pairs(), 0);
            let (pairs, report) = collect_join(&algo, &b, &empty);
            assert!(pairs.is_empty());
            // With an empty tree every probe object is filtered, like sequentially.
            assert_eq!(report.counters.filtered, b.len() as u64);
        }
    }

    #[test]
    fn self_join_matches_sequential_self_join_at_every_thread_count() {
        let a = lattice(5, 1.2, 1.5, 0.0); // side > spacing: every neighbour pair overlaps
        let touch_cfg = TouchConfig { partitions: 16, ..TouchConfig::default() };
        let mut seq_sink = touch_core::CollectingSink::new();
        let seq_report =
            JoinQuery::self_join(&a).engine(TouchJoin::new(touch_cfg)).run(&mut seq_sink);
        assert!(seq_report.result_pairs() > 0);
        assert!(seq_sink.sorted_pairs().iter().all(|&(x, y)| x < y));

        for threads in [1, 2, 8] {
            let algo = ParallelTouchJoin::new(ParallelConfig {
                threads,
                chunk_size: 16,
                sort_threshold: 32,
                touch: touch_cfg,
            });
            let mut sink = touch_core::CollectingSink::new();
            let report = JoinQuery::self_join(&a).engine(algo).run(&mut sink);
            assert_eq!(sink.sorted_pairs(), seq_sink.sorted_pairs(), "threads = {threads}");
            assert_eq!(report.counters, seq_report.counters, "threads = {threads}");
        }
    }

    #[test]
    fn distance_join_translation_works() {
        let a = lattice(3, 3.0, 1.0, 0.0);
        let b = lattice(3, 3.0, 1.0, 1.6); // gap of 0.6 between neighbours
        let algo = ParallelTouchJoin::new(busy_config(4));
        let mut sink = CountingSink::new();
        let miss = distance_join(&algo, &a, &b, 0.3, &mut sink);
        let mut sink = CountingSink::new();
        let hit = distance_join(&algo, &a, &b, 0.8, &mut sink);
        assert!(hit.result_pairs() > miss.result_pairs());
        assert_eq!(hit.epsilon, 0.8);
    }

    #[test]
    fn phase_times_and_name_are_reported() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let b = lattice(5, 1.5, 1.0, 0.2);
        let algo = ParallelTouchJoin::with_threads(2);
        assert_eq!(algo.name(), "TOUCH-P2");
        assert_eq!(ParallelTouchJoin::default().name(), "TOUCH-P");
        let mut sink = CountingSink::new();
        let report = JoinQuery::new(&a, &b).engine(algo).run(&mut sink);
        assert!(report.total_time() > std::time::Duration::ZERO);
        assert_eq!(report.threads, 2);
        assert!(report.memory_bytes > 0);
        assert_eq!(report.result_pairs(), sink.count());
    }
}
