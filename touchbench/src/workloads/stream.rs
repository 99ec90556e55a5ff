//! `uniform_stream`: one persistent ε-extended tree probed epoch after epoch
//! through `StreamingTouchJoin::try_push_batch`; an op is one epoch.

use super::{
    completed, kernel_sample, same_as_entry_point, JoinCase, OpOutput, Scale, TracedOp, Workload,
};
use crate::measure::{derive_seed, digest_run, PairDigest};
use crate::spans::Recorder;
use std::ops::Range;
use touch::core::deliver;
use touch::geom::{Aabb, Dataset};
use touch::metrics::MemoryUsage;
use touch::{
    Counters, DatasetStats, ExecControl, JoinQuery, LocalJoinScratch, PlaneSweepJoin,
    StreamingConfig, StreamingTouchJoin, TouchTree,
};

const EPS: f64 = 3.0;

pub struct Stream {
    a: Dataset,
    b: Dataset,
    engine: StreamingTouchJoin,
    /// Epochs per stream; epoch `k` pushes the `k`-th `batch` objects of B.
    epochs: usize,
    batch: usize,
    /// Epoch the next op pushes.
    next_epoch: usize,
    /// The plane-sweep oracle's pairs for one whole stream.
    expected: Option<PairDigest>,
    /// Digest of the current stream so far, and whether its first epoch was
    /// checked (only streams checked from the start go to the oracle).
    stream: PairDigest,
    stream_checked_from_start: bool,
    /// Each epoch's first output: every later stream must repeat it exactly.
    epoch_refs: Vec<Option<OpOutput>>,
    replica: Option<Replica>,
}

/// The traced pass's copy of the engine's tree, advanced epoch by epoch.
struct Replica {
    tree: TouchTree,
    stats: DatasetStats,
    scratch: LocalJoinScratch,
    next_epoch: usize,
}

fn batch_range(len: usize, batch: usize, epoch: usize) -> Range<usize> {
    let start = (epoch * batch).min(len);
    start..(start + batch).min(len)
}

impl Stream {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (n, epochs) = match scale {
            Scale::Full => (80_000, 16),
            Scale::Smoke => (2_000, 4),
        };
        let a = touch::datagen::uniform(n, derive_seed(seed, 4));
        let b = touch::datagen::uniform(n, derive_seed(seed, 5));
        let engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
        Stream {
            batch: n.div_ceil(epochs),
            a,
            b,
            engine,
            epochs,
            next_epoch: 0,
            expected: None,
            stream: PairDigest::default(),
            stream_checked_from_start: false,
            epoch_refs: vec![None; epochs],
            replica: None,
        }
    }
}

impl Workload for Stream {
    fn objects_per_op(&self) -> u64 {
        self.batch as u64
    }

    fn prepare(&mut self) {
        let (report, digest) = digest_run(|sink| {
            JoinQuery::new(&self.a, &self.b)
                .within_distance(EPS)
                .engine(PlaneSweepJoin::new())
                .try_run(sink)
        });
        self.expected = report.ok().map(|_| digest);
    }

    fn op(&mut self) -> Result<OpOutput, String> {
        let batch = &self.b.objects()[batch_range(self.b.len(), self.batch, self.next_epoch)];
        let (report, digest) =
            digest_run(|sink| self.engine.try_push_batch(batch, sink, ExecControl::infallible()));
        let report = report.map_err(|e| e.to_string())?;
        completed(report.completion)?;
        self.next_epoch += 1;
        Ok(OpOutput {
            digest,
            counters: report.counters,
            memory_bytes: self.engine.tree().memory_bytes(),
            plan: None,
        })
    }

    fn after_op(&mut self, out: &OpOutput) -> Result<(), String> {
        let epoch = self.next_epoch - 1;
        if epoch == 0 {
            self.stream = PairDigest::default();
            self.stream_checked_from_start = true;
        }
        self.stream.merge(out.digest);
        let mut result = Ok(());
        // Memory is left out: the tree's per-node lists keep the capacity the
        // largest epoch so far needed.
        match &self.epoch_refs[epoch] {
            None => self.epoch_refs[epoch] = Some(out.clone()),
            Some(first) if (first.digest, first.counters) != (out.digest, out.counters) => {
                result = Err(format!("epoch {epoch} differs from its first run: {out:?}"));
            }
            Some(_) => {}
        }
        if epoch + 1 == self.epochs {
            if std::mem::take(&mut self.stream_checked_from_start)
                && Some(self.stream) != self.expected
            {
                result = Err(format!(
                    "stream {:?} differs from the oracle's {:?}",
                    self.stream, self.expected
                ));
            }
            // The stream is complete: the next op starts another over the same tree.
            self.engine.reset();
            self.next_epoch = 0;
        }
        result
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> Result<TracedOp, String> {
        let mut replica = self.replica.take().unwrap_or_else(|| Replica {
            tree: self.engine.tree().clone(),
            stats: DatasetStats::new(),
            scratch: LocalJoinScratch::new(),
            next_epoch: 0,
        });
        let epoch = replica.next_epoch;
        if epoch == 0 {
            replica.stats = DatasetStats::new();
        }
        let batch = &self.b.objects()[batch_range(self.b.len(), self.batch, epoch)];
        let params = self.engine.plan().params;
        let Replica { tree, stats, scratch, .. } = &mut replica;
        let mut counters = Counters::new();
        let mut results = 0;

        let op = rec.begin_op();
        rec.span("core.clear", || tree.clear_assignment());
        rec.span("core.stats", || stats.merge(&DatasetStats::from_objects(batch)));
        rec.span("core.assign", || tree.assign(batch, &mut counters));
        let ((), digest) = rec.span("core.join", || {
            digest_run(|sink| {
                tree.join_assigned(&params, scratch, &mut counters, &mut |a, b| {
                    deliver(sink, a, b, &mut results)
                });
            })
        });
        rec.end(op);
        counters.results += results;

        let entry = self.epoch_refs[epoch].as_ref().ok_or("no untraced epoch to compare with")?;
        same_as_entry_point((&counters, digest), (&entry.counters, entry.digest))?;
        let traced = TracedOp {
            counters,
            digest,
            probe_objects: batch.len() as u64,
            join_nodes: tree.nodes_with_assignments().len(),
            tree_nodes: tree.node_count(),
            tree_height: tree.height(),
        };
        replica.next_epoch = (epoch + 1) % self.epochs;
        self.replica = Some(replica);
        Ok(traced)
    }

    fn take_join_case(&mut self) -> Option<JoinCase> {
        self.replica.take().map(|replica| JoinCase {
            tree: replica.tree,
            params: self.engine.plan().params,
            swap: false,
            self_join: false,
        })
    }

    fn kernel_boxes(&self) -> (Vec<Aabb>, Vec<Aabb>) {
        kernel_sample(self.engine.tree().a_objects(), self.b.objects())
    }
}
