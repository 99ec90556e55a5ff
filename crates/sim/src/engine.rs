//! The tick engine: one planned ε self-join per simulation step, with all
//! per-tick memory reused across ticks.

use std::fmt::Write as _;
use std::time::Instant;

use touch_core::phases::{par_assign_ctl, par_join_into_ctl, resolve_threads};
use touch_core::{
    catch_phase, CountingSink, DatasetStats, ExecControl, JoinError, JoinPlan, JoinPlanner,
    PairSink, PlanEnv, ScratchPool, TouchTree,
};
use touch_geom::{Dataset, ObjectId, SpatialObject};
use touch_metrics::{Counters, Phase, PlanSummary, TickSummary};
use touch_parallel::sort::par_str_sort;

use crate::World;

/// Configuration of a tick loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickConfig {
    /// Collision/sensor distance: entities within `epsilon` of each other (box
    /// distance) are reported as a pair. `0.0` reports touching boxes only.
    pub epsilon: f64,
    /// Worker threads offered to the planner (0 = auto-detect). The plan decides
    /// how many it actually uses; the result set is identical at every count.
    pub threads: usize,
    /// Integration time step.
    pub dt: f64,
    /// `true` (the default) materialises the per-tick pair list — required by
    /// the determinism suite. `false` only counts pairs, the cheap mode for
    /// throughput measurements at large entity counts.
    pub collect_pairs: bool,
    /// Re-plan when the tree-side statistics drift by more than this relative
    /// fraction (count, density or mean volume) since the last plan. `0.0`
    /// re-plans every tick; `f64::INFINITY` never re-plans.
    pub replan_drift: f64,
}

impl Default for TickConfig {
    fn default() -> Self {
        TickConfig { epsilon: 0.0, threads: 1, dt: 1.0, collect_pairs: true, replan_drift: 0.5 }
    }
}

impl TickConfig {
    /// This configuration with a collision distance.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// This configuration with a worker-thread count (0 = auto-detect).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// This configuration counting pairs instead of materialising them.
    pub fn counting_only(mut self) -> Self {
        self.collect_pairs = false;
        self
    }
}

/// The record of one completed tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickRecord {
    /// 1-based index of the tick.
    pub tick: usize,
    /// Collision/sensor pairs found this tick.
    pub pairs: u64,
    /// Wall-clock latency of the tick in microseconds (≥ 1).
    pub latency_us: u64,
    /// `true` if statistics drift triggered a re-plan this tick.
    pub replanned: bool,
}

/// The aggregated report of a tick-loop run: the latency/pair summary plus the
/// run's fixed parameters and the currently active plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Latency distribution and exact tallies.
    pub summary: TickSummary,
    /// Collision distance of the run.
    pub epsilon: f64,
    /// Integration time step.
    pub dt: f64,
    /// Worker threads the active plan runs with.
    pub threads: usize,
    /// Summary of the plan active when the report was taken.
    pub plan: PlanSummary,
}

impl TickReport {
    /// Flat JSON rendering of the report (hand-rolled; the vendored serde is a
    /// no-op stub). The `ticks` object matches [`TickSummary::to_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"epsilon\":{},\"dt\":{},\"threads\":{},\"plan\":{},\"ticks\":{}}}",
            self.epsilon,
            self.dt,
            self.threads,
            touch_metrics::json_str(&self.plan.compact()),
            self.summary.to_json(),
        );
        out
    }

    /// CSV rendering: the [`TickSummary`] header line followed by its row.
    pub fn to_csv(&self) -> String {
        format!("{}\n{}\n", TickSummary::csv_header(), self.summary.to_csv_row())
    }
}

/// Drives a [`World`] with one planned self-join per tick.
///
/// Each [`TickEngine::tick`]:
///
/// 1. integrates positions ([`World::step`]),
/// 2. rebuilds the collision dataset and (for ε > 0) its ε-extension into
///    reused buffers,
/// 3. checks the tree-side [`DatasetStats`] against the stats the active plan
///    was derived from, re-planning only when the relative drift exceeds
///    [`TickConfig::replan_drift`],
/// 4. rebuilds the TOUCH hierarchy *into the buffer reclaimed from last tick's
///    tree* ([`TouchTree::into_items`]), assigns, and runs the self-join local
///    joins through a reused [`ScratchPool`],
/// 5. records the tick's wall-clock latency into the [`TickSummary`].
///
/// The per-tick pair set is bit-identical at every thread count and across the
/// sequential/parallel engines — the kernels' determinism contract — so the
/// simulation itself is reproducible: same world, same seed, same pairs, at any
/// parallelism.
#[derive(Debug)]
pub struct TickEngine {
    world: World,
    config: TickConfig,
    planner: JoinPlanner,
    env: PlanEnv,
    plan: JoinPlan,
    plan_stats: DatasetStats,
    dataset: Dataset,
    extended: Dataset,
    tree_buf: Vec<SpatialObject>,
    pool: ScratchPool,
    pairs: Vec<(ObjectId, ObjectId)>,
    summary: TickSummary,
    counters: Counters,
    ticks: usize,
}

impl TickEngine {
    /// Builds a tick engine over `world`, planning the self-join from the
    /// world's initial statistics.
    pub fn new(world: World, config: TickConfig) -> Self {
        let mut dataset = Dataset::new();
        world.fill_dataset(&mut dataset);
        let mut extended = Dataset::new();
        if config.epsilon > 0.0 {
            dataset.extend_into(config.epsilon, &mut extended);
        }
        let tree_side = if config.epsilon > 0.0 { &extended } else { &dataset };
        let plan_stats = DatasetStats::from_dataset(tree_side);
        let mut env = PlanEnv::sequential().with_threads(resolve_threads(config.threads));
        env.epsilon = config.epsilon;
        let planner = JoinPlanner::default();
        let plan = planner.plan_self(&plan_stats, &env);
        let entities = world.len();
        let engine = format!("tick:{}", plan.summary().strategy);
        TickEngine {
            world,
            config,
            planner,
            env,
            plan,
            plan_stats,
            dataset,
            extended,
            tree_buf: Vec::new(),
            pool: ScratchPool::new(),
            pairs: Vec::new(),
            summary: TickSummary::new(engine, entities),
            counters: Counters::new(),
            ticks: 0,
        }
    }

    /// Runs one tick: integrate, join, record. Returns the tick's record; the
    /// pair list (when collected) is available from [`TickEngine::pairs`].
    ///
    /// # Panics
    /// Panics if a join phase panics — use [`TickEngine::try_tick`] to contain
    /// that instead.
    pub fn tick(&mut self) -> TickRecord {
        self.try_tick(ExecControl::infallible()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TickEngine::tick`]: polls `ctl.cancel` between and inside
    /// the join phases and contains phase panics.
    ///
    /// A tick is **all-or-nothing** — there is no meaningful "partial tick" —
    /// so a token tripping mid-tick returns [`JoinError::Cancelled`] /
    /// [`JoinError::DeadlineExceeded`] rather than a partial record:
    ///
    /// * a trip **before** the tick starts leaves the engine and world
    ///   completely untouched;
    /// * a trip (or contained panic) **mid-tick** abandons the tick — the
    ///   world has integrated one step, but no record is produced, nothing is
    ///   added to the summary or counters, the pair list is cleared and
    ///   [`TickEngine::ticks`] does not advance — and the engine stays fully
    ///   usable for the next tick.
    pub fn try_tick(&mut self, ctl: ExecControl<'_>) -> Result<TickRecord, JoinError> {
        if let Some(cause) = ctl.cancel.triggered() {
            return Err(cause.into_error());
        }
        let start = Instant::now();
        self.world.step(self.config.dt);
        self.world.fill_dataset(&mut self.dataset);
        let eps = self.config.epsilon;
        if eps > 0.0 {
            self.dataset.extend_into(eps, &mut self.extended);
        }
        // Re-plan only when the world has drifted: the stats pass is O(n), the
        // re-plan itself is O(1), and a stale plan is still correct — just
        // possibly mis-tuned.
        let stats = DatasetStats::from_objects(if eps > 0.0 {
            self.extended.objects()
        } else {
            self.dataset.objects()
        });
        let replanned = self.maybe_replan(&stats);
        let threads = self.plan.threads();

        // Rebuild the hierarchy into last tick's reclaimed item buffer. A
        // panicking build loses the buffer (the next tick re-allocates it) but
        // nothing else: the tree never existed, the engine state is pre-tick.
        let mut items = std::mem::take(&mut self.tree_buf);
        items.clear();
        items.extend_from_slice(if eps > 0.0 {
            self.extended.objects()
        } else {
            self.dataset.objects()
        });
        let partitions = self.plan.partitions;
        let fanout = self.plan.fanout;
        let sort_threshold = self.plan.sort_threshold;
        let mut tree = catch_phase(Phase::Build, 0, move || {
            if !items.is_empty() {
                let cap = TouchTree::leaf_capacity(items.len(), partitions);
                par_str_sort(&mut items, cap, threads, sort_threshold);
            }
            TouchTree::from_tiled(items, partitions, fanout)
        })?;

        let mut counters = Counters::new();
        let assigned = par_assign_ctl(
            &mut tree,
            self.dataset.objects(),
            self.plan.chunk_size,
            threads,
            &mut counters,
            ctl,
        );
        let assign_cause = match assigned {
            Ok((_, cause)) => cause,
            Err(e) => {
                self.tree_buf = tree.into_items();
                return Err(e);
            }
        };
        if let Some(cause) = assign_cause {
            self.tree_buf = tree.into_items();
            return Err(cause.into_error());
        }

        self.pairs.clear();
        // The self-join phase; `par_join_into_ctl` credits `counters.results`
        // with exactly the pairs the sink received.
        let mut collect = VecPairSink { pairs: &mut self.pairs };
        let mut count = CountingSink::default();
        let sink: &mut dyn PairSink =
            if self.config.collect_pairs { &mut collect } else { &mut count };
        let params = &self.plan.params;
        let pool = &mut self.pool;
        let joined =
            par_join_into_ctl(&tree, params, threads, false, true, sink, pool, &mut counters, ctl)
                .map(|(_, cause)| cause);
        self.tree_buf = tree.into_items();
        match joined {
            Ok(None) => {}
            // An abandoned tick must not leave a half-collected pair list
            // posing as a tick's output.
            Ok(Some(cause)) => {
                self.pairs.clear();
                return Err(cause.into_error());
            }
            Err(e) => {
                self.pairs.clear();
                return Err(e);
            }
        }
        if self.config.collect_pairs {
            // Sorting makes the list identical across thread counts; the *set*
            // already is, but parallel shard merge order is not.
            self.pairs.sort_unstable();
        }

        let latency_us = (start.elapsed().as_micros() as u64).max(1);
        let pairs = counters.results;
        self.counters.merge(&counters);
        self.summary.record(latency_us, pairs, replanned);
        self.ticks += 1;
        Ok(TickRecord { tick: self.ticks, pairs, latency_us, replanned })
    }

    /// Runs `ticks` ticks, returning the per-tick records.
    pub fn run(&mut self, ticks: usize) -> Vec<TickRecord> {
        (0..ticks).map(|_| self.tick()).collect()
    }

    /// Last tick's collision pairs as sorted entity-index pairs `(i, j)` with
    /// `i < j` (empty in counting-only mode).
    pub fn pairs(&self) -> &[(ObjectId, ObjectId)] {
        &self.pairs
    }

    /// The simulated world (positions reflect all ticks run so far).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Number of completed ticks — the `tick` field of the last returned
    /// [`TickRecord`]. An abandoned tick (fault or cancellation mid-tick)
    /// does not advance it.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The currently active plan.
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// The running latency/pair summary.
    pub fn summary(&self) -> &TickSummary {
        &self.summary
    }

    /// Work counters accumulated over every tick so far. Deterministic for a
    /// given world, seed and configuration — the regression gate's record of
    /// how much work the tick loop performs.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The aggregated report of the run so far.
    pub fn report(&self) -> TickReport {
        TickReport {
            summary: self.summary.clone(),
            epsilon: self.config.epsilon,
            dt: self.config.dt,
            threads: self.plan.threads(),
            plan: self.plan.summary(),
        }
    }

    /// Re-plans if `stats` drifted past the configured threshold; returns
    /// whether it did.
    fn maybe_replan(&mut self, stats: &DatasetStats) -> bool {
        let drift = relative_drift(self.plan_stats.count() as f64, stats.count() as f64)
            .max(relative_drift(self.plan_stats.density(), stats.density()))
            .max(relative_drift(self.plan_stats.mean_volume(), stats.mean_volume()));
        if drift <= self.config.replan_drift {
            return false;
        }
        self.plan = self.planner.plan_self(stats, &self.env);
        self.plan_stats = stats.clone();
        true
    }
}

/// Relative change from `old` to `new`, treating a zero baseline as infinite
/// drift (unless the value stayed zero).
fn relative_drift(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((new - old) / old).abs()
    }
}

/// A sink appending into a borrowed pair vector — the tick loop's collecting
/// sink, reusing the engine's allocation across ticks.
struct VecPairSink<'a> {
    pairs: &'a mut Vec<(ObjectId, ObjectId)>,
}

impl PairSink for VecPairSink<'_> {
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        self.pairs.push((a, b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn brute_force(engine: &TickEngine, eps: f64) -> BTreeSet<(ObjectId, ObjectId)> {
        let mut ds = Dataset::new();
        engine.world().fill_dataset(&mut ds);
        let ext = ds.extended(eps);
        let mut pairs = BTreeSet::new();
        for x in ext.objects() {
            for y in ds.objects() {
                if x.id < y.id && x.mbr.intersects(&y.mbr) {
                    pairs.insert((x.id, y.id));
                }
            }
        }
        pairs
    }

    #[test]
    fn tick_pairs_match_brute_force_every_tick() {
        let config = TickConfig::default().with_epsilon(20.0);
        let mut engine = TickEngine::new(World::random(150, 11), config);
        for _ in 0..5 {
            let rec = engine.tick();
            let expected = brute_force(&engine, 20.0);
            let got: BTreeSet<_> = engine.pairs().iter().copied().collect();
            assert_eq!(got, expected, "tick {}", rec.tick);
            assert_eq!(rec.pairs as usize, expected.len(), "tick {}", rec.tick);
        }
    }

    #[test]
    fn pair_sets_are_identical_across_thread_counts() {
        let baseline: Vec<Vec<(ObjectId, ObjectId)>> = {
            let mut e =
                TickEngine::new(World::random(120, 5), TickConfig::default().with_epsilon(30.0));
            (0..4)
                .map(|_| {
                    e.tick();
                    e.pairs().to_vec()
                })
                .collect()
        };
        for threads in [2, 4] {
            let config = TickConfig::default().with_epsilon(30.0).with_threads(threads);
            let mut e = TickEngine::new(World::random(120, 5), config);
            for (t, expected) in baseline.iter().enumerate() {
                e.tick();
                assert_eq!(e.pairs(), &expected[..], "threads {threads}, tick {t}");
            }
        }
    }

    #[test]
    fn counting_mode_reports_the_same_totals() {
        let collect = {
            let mut e =
                TickEngine::new(World::random(100, 9), TickConfig::default().with_epsilon(25.0));
            e.run(3).iter().map(|r| r.pairs).collect::<Vec<_>>()
        };
        let mut e = TickEngine::new(
            World::random(100, 9),
            TickConfig::default().with_epsilon(25.0).counting_only(),
        );
        let counted: Vec<u64> = e.run(3).iter().map(|r| r.pairs).collect();
        assert_eq!(collect, counted);
        assert!(e.pairs().is_empty());
    }

    #[test]
    fn zero_drift_threshold_replans_every_tick() {
        let mut config = TickConfig::default().with_epsilon(10.0);
        config.replan_drift = 0.0;
        let mut e = TickEngine::new(World::random(80, 2), config);
        let records = e.run(3);
        assert!(records.iter().all(|r| r.replanned));
        assert_eq!(e.summary().replans, 3);

        // And an infinite threshold never re-plans.
        config.replan_drift = f64::INFINITY;
        let mut e = TickEngine::new(World::random(80, 2), config);
        assert!(e.run(3).iter().all(|r| !r.replanned));
    }

    #[test]
    fn report_renders_json_and_csv() {
        let mut e = TickEngine::new(World::random(60, 1), TickConfig::default().with_epsilon(15.0));
        e.run(2);
        let report = e.report();
        let json = report.to_json();
        assert!(json.starts_with("{\"epsilon\":15,"));
        assert!(json.contains("\"ticks\":{\"engine\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let csv = report.to_csv();
        assert!(csv.starts_with(TickSummary::csv_header()));
        assert_eq!(csv.lines().count(), 2);
    }
}
