//! `tick_collision`: a moving world self-joined every tick through
//! `TickEngine::try_tick`. The tree is rebuilt every op, so this is the
//! build-heavy counterpart of `uniform_stream`. Ticks run in fixed-length
//! episodes from a few seed-derived spawn states: a clustered crowd disperses
//! as it moves, and episodes keep every run sampling the same stretch of that
//! evolution however many ticks it gets through.

use super::{
    counters_delta, kernel_sample, plane_sweep_digest, same_as_entry_point, tree_memory, JoinCase,
    OpOutput, Scale, TracedOp, Workload,
};
use crate::measure::{derive_seed, PairDigest};
use crate::spans::Recorder;
use touch::core::deliver;
use touch::geom::{Aabb, Dataset, ObjectId, SpatialObject};
use touch::parallel::phases::{par_assign, par_join_into};
use touch::parallel::sort::par_str_sort;
use touch::{
    CollectingSink, Counters, DatasetStats, ExecControl, JoinPlan, PairSink, ScratchPool,
    TickConfig, TickEngine, TouchTree, World,
};

const EPS: f64 = 3.0;
const THREADS: usize = 2;
/// Every this-many-th tick is checked against the plane-sweep oracle.
const CHECK_EVERY: u64 = 25;

pub struct Tick {
    /// Spawn states; episode `e` starts from `worlds[e % worlds.len()]`.
    worlds: Vec<World>,
    episode_ticks: usize,
    episodes: usize,
    /// Ticks run in the current episode.
    ticks: usize,
    engine: TickEngine,
    config: TickConfig,
    checked: u64,
    /// Memory of the tree a tick builds, with its assignment: measured at each
    /// oracle check (the engine reports none).
    index_bytes: usize,
    /// The traced ops' reused buffers, as the engine keeps them.
    ds: Dataset,
    ext: Dataset,
    items: Vec<SpatialObject>,
    pool: ScratchPool,
    case: Option<JoinCase>,
}

impl Tick {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (n, worlds, episode_ticks) = match scale {
            Scale::Full => (80_000, 4, 20),
            Scale::Smoke => (2_000, 2, 4),
        };
        let worlds: Vec<World> =
            (0..worlds).map(|i| World::random(n, derive_seed(seed, 300 + i))).collect();
        let config = TickConfig::default().with_epsilon(EPS).with_threads(THREADS);
        Tick {
            engine: TickEngine::new(worlds[0].clone(), config),
            worlds,
            episode_ticks,
            episodes: 0,
            ticks: 0,
            config,
            checked: 0,
            index_bytes: 0,
            ds: Dataset::new(),
            ext: Dataset::new(),
            items: Vec::new(),
            pool: ScratchPool::new(),
            case: None,
        }
    }

    /// Counts a tick; after the episode's last one, the next episode starts
    /// from the next spawn state.
    fn advance(&mut self) {
        self.ticks += 1;
        if self.ticks == self.episode_ticks {
            self.ticks = 0;
            self.episodes += 1;
            let world = self.worlds[self.episodes % self.worlds.len()].clone();
            self.engine = TickEngine::new(world, self.config);
        }
    }

    /// One tick of `world` as `try_tick` runs it under `plan`: integrate,
    /// refill and extend the boxes, collect statistics, rebuild the tree,
    /// assign, self-join, sort the pairs.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        world: &mut World,
        plan: &JoinPlan,
    ) -> (Counters, Vec<(ObjectId, ObjectId)>, TouchTree) {
        let dt = self.config.dt;
        rec.span("sim.step", || world.step(dt));
        rec.span("sim.fill", || world.fill_dataset(&mut self.ds));
        rec.span("geom.extend", || self.ds.extend_into(EPS, &mut self.ext));
        rec.span("core.stats", || {
            std::hint::black_box(DatasetStats::from_objects(self.ext.objects()))
        });

        let threads = plan.threads();
        let mut items = std::mem::take(&mut self.items);
        rec.span("parallel.str_sort", || {
            items.clear();
            items.extend_from_slice(self.ext.objects());
            if !items.is_empty() {
                let cap = TouchTree::leaf_capacity(items.len(), plan.partitions);
                par_str_sort(&mut items, cap, threads, plan.sort_threshold);
            }
        });
        let mut tree =
            rec.span("core.tile", || TouchTree::from_tiled(items, plan.partitions, plan.fanout));
        let mut counters = Counters::new();
        rec.span("parallel.assign", || {
            par_assign(&mut tree, self.ds.objects(), plan.chunk_size, threads, &mut counters)
        });
        let mut sink = CollectingSink::new();
        rec.span("parallel.join", || {
            if threads <= 1 {
                let mut results = 0;
                tree.join_assigned(
                    &plan.params,
                    self.pool.primary(),
                    &mut counters,
                    &mut |a, b| {
                        if a < b {
                            deliver(&mut sink, a, b, &mut results)
                        } else {
                            !sink.is_done()
                        }
                    },
                );
                counters.results += results;
            } else {
                par_join_into(
                    &tree,
                    &plan.params,
                    threads,
                    false,
                    true,
                    &mut sink,
                    &mut self.pool,
                    &mut counters,
                );
            }
        });
        let pairs = rec.span("sim.sort_pairs", || {
            let mut pairs = sink.into_pairs();
            pairs.sort_unstable();
            pairs
        });
        (counters, pairs, tree)
    }

    /// Every `CHECK_EVERY`-th tick: the pairs against a plane-sweep self-join
    /// of the world as the tick left it, and the memory of the tree it built.
    fn check(&mut self, out: &OpOutput) -> Result<(), String> {
        let tick = self.checked;
        self.checked += 1;
        if tick % CHECK_EVERY != 0 {
            return Ok(());
        }
        let mut ds = Dataset::new();
        self.engine.world().fill_dataset(&mut ds);
        let ext = ds.extended(EPS);
        let plan = self.engine.plan();
        self.index_bytes = tree_memory(ext.objects(), ds.objects(), plan.partitions, plan.fanout);
        let expected = plane_sweep_digest(ext.objects(), ds.objects(), |x, y| x < y);
        if out.digest != expected {
            return Err(format!("tick pairs {:?}, the oracle {expected:?}", out.digest));
        }
        Ok(())
    }
}

impl Workload for Tick {
    fn objects_per_op(&self) -> u64 {
        self.engine.world().len() as u64
    }

    fn op(&mut self) -> Result<OpOutput, String> {
        let before = *self.engine.counters();
        let record = self.engine.try_tick(ExecControl::infallible()).map_err(|e| e.to_string())?;
        let digest = PairDigest::of(self.engine.pairs());
        if digest.count != record.pairs {
            return Err(format!("tick reports {} pairs but lists {}", record.pairs, digest.count));
        }
        Ok(OpOutput {
            digest,
            counters: counters_delta(self.engine.counters(), &before),
            memory_bytes: self.index_bytes,
            plan: None,
        })
    }

    fn after_op(&mut self, out: &OpOutput) -> Result<(), String> {
        let checked = self.check(out);
        self.advance();
        checked
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> Result<TracedOp, String> {
        let mut world = self.engine.world().clone();
        let before = *self.engine.counters();
        self.engine.try_tick(ExecControl::infallible()).map_err(|e| e.to_string())?;
        let entry_counters = counters_delta(self.engine.counters(), &before);
        let entry_digest = PairDigest::of(self.engine.pairs());
        let plan = *self.engine.plan();
        self.advance();
        if let Some(case) = self.case.take() {
            self.items = case.tree.into_items();
        }

        let op = rec.begin_op();
        let (counters, pairs, tree) = self.replay(rec, &mut world, &plan);
        rec.end(op);

        let digest = PairDigest::of(&pairs);
        same_as_entry_point((&counters, digest), (&entry_counters, entry_digest))?;
        let traced = TracedOp {
            counters,
            digest,
            probe_objects: self.ds.len() as u64,
            join_nodes: tree.nodes_with_assignments().len(),
            tree_nodes: tree.node_count(),
            tree_height: tree.height(),
        };
        self.case = Some(JoinCase { tree, params: plan.params, swap: false, self_join: true });
        Ok(traced)
    }

    fn take_join_case(&mut self) -> Option<JoinCase> {
        self.case.take()
    }

    fn kernel_boxes(&self) -> (Vec<Aabb>, Vec<Aabb>) {
        let mut ds = Dataset::new();
        self.engine.world().fill_dataset(&mut ds);
        kernel_sample(ds.extended(EPS).objects(), ds.objects())
    }
}
