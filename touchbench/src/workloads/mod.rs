//! The five workloads. Each one generates its inputs from the run's seed,
//! drives one entry point of the system through its fallible `try_*` form,
//! checks every op against the previous ops and a plane-sweep oracle, and can
//! replay an op layer by layer for the traced pass.

mod one_shot;
mod serve;
mod stream;
mod tick;

use crate::measure::PairDigest;
use crate::spans::Recorder;
use touch::core::kernels;
use touch::geom::{Aabb, ObjectId, SpatialObject};
use touch::metrics::MemoryUsage;
use touch::{Completion, Counters, LocalJoinParams, TouchTree};

/// The workloads, in the order a full run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NeuroSynapse,
    ClusteredPaper,
    UniformStream,
    ServeRw,
    TickCollision,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::NeuroSynapse,
        Kind::ClusteredPaper,
        Kind::UniformStream,
        Kind::ServeRw,
        Kind::TickCollision,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NeuroSynapse => "neuro_synapse",
            Kind::ClusteredPaper => "clustered_paper",
            Kind::UniformStream => "uniform_stream",
            Kind::ServeRw => "serve_rw",
            Kind::TickCollision => "tick_collision",
        }
    }

    /// Worker threads the workload's ops use.
    pub fn threads(self) -> usize {
        match self {
            Kind::TickCollision => 2,
            Kind::NeuroSynapse | Kind::ClusteredPaper | Kind::UniformStream | Kind::ServeRw => 1,
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generates the inputs and builds the long-lived state of one instance.
    pub fn setup(self, seed: u64, scale: Scale) -> Box<dyn Workload> {
        match self {
            Kind::NeuroSynapse => Box::new(one_shot::OneShot::neuro(seed, scale)),
            Kind::ClusteredPaper => Box::new(one_shot::OneShot::clustered(seed, scale)),
            Kind::UniformStream => Box::new(stream::Stream::new(seed, scale)),
            Kind::ServeRw => Box::new(serve::Serve::new(seed, scale)),
            Kind::TickCollision => Box::new(tick::Tick::new(seed, scale)),
        }
    }
}

/// Input sizes: the benchmark's own, or a tiny variant for the in-tree tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Scale {
    Full,
    Smoke,
}

/// What one untimed-checkable op produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    pub digest: PairDigest,
    pub counters: Counters,
    /// Memory of the index the op joined against: the tree with its
    /// assigned objects, as `TouchTree::memory_bytes` counts it.
    pub memory_bytes: usize,
    /// The compact plan the op executed, where the entry point reports one.
    pub plan: Option<String>,
}

/// What one traced op measured besides its spans.
#[derive(Debug, Clone)]
pub struct TracedOp {
    pub counters: Counters,
    pub digest: PairDigest,
    /// Probe objects the op assigned to the tree.
    pub probe_objects: u64,
    /// Tree nodes the join phase visited (nodes holding assigned objects).
    pub join_nodes: usize,
    pub tree_nodes: usize,
    pub tree_height: usize,
}

/// A tree with its assignment, as a traced op left it, and how to join it.
pub struct JoinCase {
    pub tree: TouchTree,
    pub params: LocalJoinParams,
    pub swap: bool,
    pub self_join: bool,
}

pub trait Workload {
    /// Input objects one op processes (the numerator of `kobj_per_s`).
    fn objects_per_op(&self) -> u64;

    /// Untimed preparation after set-up: the plane-sweep results later checks
    /// compare against and the index memory, where they can be computed ahead.
    fn prepare(&mut self) {}

    /// Runs one op through the entry point's fallible form.
    fn op(&mut self) -> Result<OpOutput, String>;

    /// Checks the op just run against earlier ops and the oracle, and readies
    /// the next op (untimed).
    fn after_op(&mut self, out: &OpOutput) -> Result<(), String>;

    /// Runs one op by calling, in the entry point's order and with its
    /// resolved plan, the public functions the entry point calls — each inside
    /// a span — and checks that pairs and counters equal the entry point's.
    fn traced_op(&mut self, rec: &mut Recorder) -> Result<TracedOp, String>;

    /// The tree the last traced op joined, for the thread-scaling probe.
    fn take_join_case(&mut self) -> Option<JoinCase>;

    /// Candidate and probe boxes for the batch-overlap kernel probe.
    fn kernel_boxes(&self) -> (Vec<Aabb>, Vec<Aabb>);
}

/// Every op must run to completion: a cut-short report is a failed op.
fn completed(completion: Completion) -> Result<(), String> {
    match completion {
        Completion::Complete => Ok(()),
        other => Err(format!("op ended early: {}", other.name())),
    }
}

/// `after - before`, field by field (counters only grow).
fn counters_delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        comparisons: after.comparisons - before.comparisons,
        node_tests: after.node_tests - before.node_tests,
        results: after.results - before.results,
        filtered: after.filtered - before.filtered,
        duplicates_suppressed: after.duplicates_suppressed - before.duplicates_suppressed,
        replicas: after.replicas - before.replicas,
        batch_lanes: after.batch_lanes - before.batch_lanes,
        batch_hits: after.batch_hits - before.batch_hits,
    }
}

/// Fails unless a traced op reproduced the entry point's pairs and counters.
fn same_as_entry_point(
    traced: (&Counters, PairDigest),
    entry: (&Counters, PairDigest),
) -> Result<(), String> {
    if traced.1 != entry.1 {
        return Err(format!("traced op emitted {:?}, the entry point {:?}", traced.1, entry.1));
    }
    if traced.0 != entry.0 {
        return Err(format!("traced op counted {:?}, the entry point {:?}", traced.0, entry.0));
    }
    Ok(())
}

/// Memory of a tree over `tree_side` in `partitions` leaves of `fanout`, with
/// `probe` assigned: the index a join builds, for entry points that report
/// no memory of their own or report it with their transient join scratch.
fn tree_memory(
    tree_side: &[SpatialObject],
    probe: &[SpatialObject],
    partitions: usize,
    fanout: usize,
) -> usize {
    let mut tree = TouchTree::build(tree_side, partitions, fanout);
    tree.assign(probe, &mut Counters::new());
    tree.memory_bytes()
}

/// The plane-sweep oracle over object slices: the digest of every pair
/// `(x, y)` of `tree × probe` with intersecting MBRs that `keep` accepts.
fn plane_sweep_digest(
    tree: &[SpatialObject],
    probe: &[SpatialObject],
    keep: impl Fn(ObjectId, ObjectId) -> bool,
) -> PairDigest {
    let (mut a, mut b) = (tree.to_vec(), probe.to_vec());
    let mut digest = PairDigest::default();
    kernels::plane_sweep(&mut a, &mut b, &mut Counters::new(), &mut |x, y| {
        if keep(x, y) {
            digest.add(x, y);
        }
        true
    });
    digest
}

/// Candidate boxes for the kernel probe: up to 4 096, sampled evenly.
const KERNEL_CANDIDATES: usize = 4096;
/// Probe boxes the kernel probe tests every candidate against.
const KERNEL_PROBES: usize = 64;

/// Samples the kernel probe's inputs evenly from a tree side and a probe side.
fn kernel_sample(tree: &[SpatialObject], probe: &[SpatialObject]) -> (Vec<Aabb>, Vec<Aabb>) {
    let sample = |objs: &[SpatialObject], n: usize| -> Vec<Aabb> {
        let step = (objs.len() / n).max(1);
        objs.iter().step_by(step).take(n).map(|o| o.mbr).collect()
    };
    (sample(tree, KERNEL_CANDIDATES), sample(probe, KERNEL_PROBES))
}
