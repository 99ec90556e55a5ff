//! `neuro_synapse` and `clustered_paper`: one-shot distance joins through
//! `JoinQuery::try_run`. Ops cycle over a few input instances generated from
//! the seed, so a run's median does not hinge on one draw of the data.

use super::{
    completed, kernel_sample, same_as_entry_point, tree_memory, JoinCase, OpOutput, Scale,
    TracedOp, Workload,
};
use crate::measure::{derive_seed, digest_run, PairDigest};
use crate::spans::Recorder;
use touch::core::deliver;
use touch::datagen::{NeuroscienceSpec, SyntheticDistribution, SyntheticSpec};
use touch::geom::{Aabb, Dataset};
use touch::index::str_sort;
use touch::{
    AutoEngine, Counters, DatasetStats, ExecutionStrategy, JoinPlan, JoinPlanner, JoinQuery,
    LocalJoinScratch, PlanEnv, PlaneSweepJoin, TouchConfig, TouchJoin, TouchTree,
};

/// The worker budget `AutoEngine` plans for (see `OneShot::neuro`).
const AUTO_THREADS: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Engine {
    /// `AutoEngine` planning for `AUTO_THREADS` workers.
    Auto,
    /// `TouchJoin` with an explicit configuration.
    Touch(TouchConfig),
}

struct Instance {
    a: Dataset,
    b: Dataset,
    /// The plane-sweep oracle's pairs.
    expected: Option<PairDigest>,
    /// Memory of the tree the resolved plan builds, with its assignment.
    index_bytes: usize,
    /// The instance's first checked op: later ops and traced ops must equal it.
    reference: Option<OpOutput>,
}

pub struct OneShot {
    instances: Vec<Instance>,
    eps: f64,
    engine: Engine,
    /// Ops run so far (op `i` joins instance `i % instances.len()`).
    ops: usize,
    traced_ops: usize,
    /// The traced ops' ε-extension buffer (the query's scratch counterpart).
    ext: Dataset,
    case: Option<JoinCase>,
}

impl OneShot {
    /// Synthetic axons (A) against dendrites (B), the paper's Fig. 16 setting,
    /// planned by `AutoEngine` for one thread: at two, the parallel join over
    /// this workload's handful of large nodes made a run's median wander by
    /// 10–13 % between seeds even at the reference speed.
    pub fn neuro(seed: u64, scale: Scale) -> Self {
        let (size, count) = match scale {
            Scale::Full => (0.015, 8),
            Scale::Smoke => (0.0005, 2),
        };
        let instances = (0..count).map(|i| {
            let data = NeuroscienceSpec::scaled(size).generate(derive_seed(seed, 100 + i));
            (data.axons, data.dendrites)
        });
        OneShot::new(instances, 5.0, Engine::Auto)
    }

    /// Clustered A against uniform B at the paper's configuration, one thread.
    pub fn clustered(seed: u64, scale: Scale) -> Self {
        let (n, count) = match scale {
            Scale::Full => (160_000, 4),
            Scale::Smoke => (4_000, 2),
        };
        let instances = (0..count).map(|i| {
            let a = SyntheticSpec::new(n, SyntheticDistribution::paper_clustered())
                .generate(derive_seed(seed, 200 + 2 * i));
            let b = touch::datagen::uniform(n, derive_seed(seed, 201 + 2 * i));
            (a, b)
        });
        OneShot::new(instances, 1.5, Engine::Touch(TouchConfig::default()))
    }

    fn new(instances: impl Iterator<Item = (Dataset, Dataset)>, eps: f64, engine: Engine) -> Self {
        let instances = instances
            .map(|(a, b)| Instance { a, b, expected: None, index_bytes: 0, reference: None })
            .collect();
        OneShot { instances, eps, engine, ops: 0, traced_ops: 0, ext: Dataset::new(), case: None }
    }

    /// The entry point's query over `instance`.
    fn query<'a>(&self, instance: &'a Instance) -> JoinQuery<'a> {
        let query = JoinQuery::new(&instance.a, &instance.b).within_distance(self.eps);
        match self.engine {
            Engine::Auto => query.engine(AutoEngine::with_threads(AUTO_THREADS)),
            Engine::Touch(cfg) => query.engine(TouchJoin::new(cfg)),
        }
    }

    fn last_op_instance(&mut self) -> &mut Instance {
        let k = self.instances.len();
        &mut self.instances[(self.ops + k - 1) % k]
    }

    /// The plan the entry point resolves for the extended inputs, with the
    /// statistics and planning calls it makes (each in its span).
    fn resolve_plan(&self, rec: &mut Recorder, b: &Dataset) -> JoinPlan {
        let ext = &self.ext;
        match self.engine {
            Engine::Auto => {
                let (sa, sb) = rec.span("core.stats", || {
                    (DatasetStats::from_dataset(ext), DatasetStats::from_dataset(b))
                });
                rec.span("core.plan", || {
                    let mut env = PlanEnv::detect().with_threads(AUTO_THREADS);
                    env.epsilon = self.eps;
                    JoinPlanner::default().plan(&sa, &sb, &env)
                })
            }
            Engine::Touch(cfg) => {
                rec.span("core.plan", || JoinPlan::from_touch_config(&cfg, ext, b))
            }
        }
    }

    /// The traced op's body over instance `i`: validation, ε-extension,
    /// planning, then the three phases of the sequential engine.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        i: usize,
    ) -> Result<(PairDigest, Counters, JoinPlan), String> {
        let Instance { a, b, .. } = &self.instances[i];
        rec.span("geom.validate", || a.validate().and_then(|()| b.validate()))
            .map_err(|e| format!("invalid input: {e}"))?;
        let (eps, ext) = (self.eps, &mut self.ext);
        rec.span("geom.extend", || a.extend_into(eps, ext));
        let plan = self.resolve_plan(rec, b);

        let ext = &self.ext;
        let (tree_ds, probe_ds) = if plan.build_on_a { (ext, b) } else { (b, ext) };
        let cap = TouchTree::leaf_capacity(tree_ds.len().max(1), plan.partitions);
        let mut counters = Counters::new();
        // Both engines run their plans on one thread: `TouchJoin` always, and
        // `AutoEngine` with a budget of one.
        if plan.strategy != ExecutionStrategy::Sequential {
            return Err(format!("no replay for the plan {}", plan.summary().compact()));
        }
        let items = rec.span("index.str_sort", || {
            let mut items = tree_ds.objects().to_vec();
            if !items.is_empty() {
                str_sort(&mut items, |o| o.mbr.center(), cap);
            }
            items
        });
        let mut tree =
            rec.span("core.tile", || TouchTree::from_tiled(items, plan.partitions, plan.fanout));
        rec.span("core.assign", || tree.assign(probe_ds.objects(), &mut counters));
        let mut scratch = LocalJoinScratch::new();
        let mut results = 0;
        let ((), digest) = rec.span("core.join", || {
            digest_run(|sink| {
                tree.join_assigned(&plan.params, &mut scratch, &mut counters, &mut |t, p| {
                    let (x, y) = if plan.build_on_a { (t, p) } else { (p, t) };
                    deliver(sink, x, y, &mut results)
                });
            })
        });
        counters.results += results;
        self.case =
            Some(JoinCase { tree, params: plan.params, swap: !plan.build_on_a, self_join: false });
        Ok((digest, counters, plan))
    }
}

impl Workload for OneShot {
    fn objects_per_op(&self) -> u64 {
        let total: usize = self.instances.iter().map(|i| i.a.len() + i.b.len()).sum();
        (total / self.instances.len()) as u64
    }

    fn prepare(&mut self) {
        for i in 0..self.instances.len() {
            let instance = &self.instances[i];
            let (report, digest) = digest_run(|sink| {
                JoinQuery::new(&instance.a, &instance.b)
                    .within_distance(self.eps)
                    .engine(PlaneSweepJoin::new())
                    .try_run(sink)
            });
            let index_bytes = self.query(instance).plan().map_or(0, |plan| {
                let ext = instance.a.extended(self.eps);
                let (tree, probe) =
                    if plan.build_on_a { (&ext, &instance.b) } else { (&instance.b, &ext) };
                tree_memory(tree.objects(), probe.objects(), plan.partitions, plan.fanout)
            });
            let instance = &mut self.instances[i];
            instance.expected = report.ok().map(|_| digest);
            instance.index_bytes = index_bytes;
        }
    }

    fn op(&mut self) -> Result<OpOutput, String> {
        let instance = &self.instances[self.ops % self.instances.len()];
        self.ops += 1;
        let (report, digest) = digest_run(|sink| self.query(instance).try_run(sink));
        let report = report.map_err(|e| e.to_string())?;
        completed(report.completion)?;
        Ok(OpOutput {
            digest,
            counters: report.counters,
            memory_bytes: instance.index_bytes,
            plan: report.plan.map(|p| p.compact()),
        })
    }

    fn after_op(&mut self, out: &OpOutput) -> Result<(), String> {
        let instance = self.last_op_instance();
        if Some(out.digest) != instance.expected {
            return Err(format!(
                "pairs {:?} differ from the oracle's {:?}",
                out.digest, instance.expected
            ));
        }
        match &instance.reference {
            None => instance.reference = Some(out.clone()),
            Some(first)
                if (first.digest, first.counters, &first.plan)
                    != (out.digest, out.counters, &out.plan) =>
            {
                return Err(format!(
                    "op differs from the instance's first op: {out:?} vs {first:?}"
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> Result<TracedOp, String> {
        let i = self.traced_ops % self.instances.len();
        self.traced_ops += 1;
        let op = rec.begin_op();
        let replayed = self.replay(rec, i);
        rec.end(op);
        let (digest, counters, plan) = replayed?;
        let instance = &self.instances[i];
        let entry = instance.reference.as_ref().ok_or("no untraced op to compare with")?;
        same_as_entry_point((&counters, digest), (&entry.counters, entry.digest))?;
        let compact = plan.summary().compact();
        if entry.plan.as_deref() != Some(compact.as_str()) {
            return Err(format!("traced plan {compact} differs from {:?}", entry.plan));
        }
        let tree = &self.case.as_ref().ok_or("the replay kept no tree")?.tree;
        let probe_objects = if plan.build_on_a { instance.b.len() } else { instance.a.len() };
        Ok(TracedOp {
            counters,
            digest,
            probe_objects: probe_objects as u64,
            join_nodes: tree.nodes_with_assignments().len(),
            tree_nodes: tree.node_count(),
            tree_height: tree.height(),
        })
    }

    fn take_join_case(&mut self) -> Option<JoinCase> {
        self.case.take()
    }

    fn kernel_boxes(&self) -> (Vec<Aabb>, Vec<Aabb>) {
        let first = &self.instances[0];
        let (candidates, probes) = kernel_sample(first.a.objects(), first.b.objects());
        (candidates.iter().map(|mbr| mbr.extended(self.eps)).collect(), probes)
    }
}
