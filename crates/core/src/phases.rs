//! The building blocks of the three TOUCH phases, at any worker count.
//!
//! [`crate::TouchJoin`] composes these into the one-shot join at its plan's
//! width; the `touch-streaming` engine composes the same blocks into its
//! per-epoch pipeline (build once, then assignment + local join per pushed
//! batch), and the `touch-sim` tick loop into its per-tick one. At one worker
//! every block runs in-thread; at more, the work spreads over work-stealing
//! workers ([`crate::scheduler::StealQueues`]). Keeping the blocks in one place
//! guarantees the engines can never diverge in how they run a phase.
//!
//! Every block preserves the determinism contract: for a fixed input and
//! [`crate::TouchConfig`], the produced tree, assignment and local joins — and
//! therefore the result set and all counters — are identical at every worker
//! count.

use crate::scheduler::StealQueues;
use crate::{
    catch_phase, deliver, panic_message, CancelCause, ExecControl, JoinError, LocalJoinParams,
    LocalJoinScratch, PairSink, ScratchPool, ShardedSink, TouchTree,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use touch_geom::SpatialObject;
use touch_index::par_str_sort;
use touch_metrics::{Counters, Phase, TraceEvent};

/// What one fault-contained worker thread hands back: its partial work on
/// success (with the cancel cause it observed, if any), or the message of the
/// panic it contained.
type WorkerOutcome<T> = Result<(Counters, T, Option<CancelCause>), String>;

/// Folds per-worker outcomes into the phase result: counters of every
/// *successful* worker are merged into `counters` (a contained panic discards
/// that worker's partial tallies — they may be mid-update), successful
/// payloads are collected, and the first panicked worker (by index) becomes
/// [`JoinError::WorkerPanicked`] for `phase`.
fn fold_workers<T>(
    per_worker: Vec<WorkerOutcome<T>>,
    phase: Phase,
    counters: &mut Counters,
) -> Result<(Vec<T>, Option<CancelCause>), JoinError> {
    let mut payloads = Vec::with_capacity(per_worker.len());
    let mut cause = None;
    let mut panicked: Option<(usize, String)> = None;
    for (worker, outcome) in per_worker.into_iter().enumerate() {
        match outcome {
            Ok((local, payload, c)) => {
                counters.merge(&local);
                payloads.push(payload);
                cause = cause.or(c);
            }
            Err(detail) => {
                panicked.get_or_insert((worker, detail));
            }
        }
    }
    match panicked {
        Some((worker, detail)) => Err(JoinError::WorkerPanicked { phase, worker, detail }),
        None => Ok((payloads, cause)),
    }
}

/// Resolves a configured worker count: an explicit value is used as-is, `0`
/// auto-detects the machine's available parallelism (falling back to 1). The single
/// resolution rule shared by `touch-parallel`'s `ParallelConfig`, the streaming
/// engine's configuration and the tick loop's.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    }
}

/// Phase 1: builds the TOUCH hierarchy with the STR sort ([`par_str_sort`], its
/// slabs spread over `threads` workers) and [`TouchTree::from_tiled`]. Returns the
/// tree and the sort's transient bytes. The tile order does not depend on the
/// thread count, so the tree is the same for every `threads` value (including 1).
pub fn par_build_tree(
    objects: &[SpatialObject],
    partitions: usize,
    fanout: usize,
    threads: usize,
    sort_threshold: usize,
) -> (TouchTree, usize) {
    let mut items = objects.to_vec();
    let mut sort_aux = 0;
    if !items.is_empty() {
        let cap = TouchTree::leaf_capacity(items.len(), partitions);
        sort_aux = par_str_sort(&mut items, cap, threads, sort_threshold);
    }
    (TouchTree::from_tiled(items, partitions, fanout), sort_aux)
}

/// One worker's claim share of the assignment phase: the chunk index and the
/// `(node, object)` placements computed for it.
type ChunkBatch = (usize, Vec<(usize, SpatialObject)>);

/// Phase 2: computes assignment targets on `workers` threads (read-only tree
/// traversals over work-stealing chunk queues), then applies the batches in chunk
/// order so the per-node B-lists match the sequential [`TouchTree::assign`] exactly.
/// Returns the bytes of the transient batch buffers (0 on the sequential fallback).
/// This is [`par_assign_ctl`] with [`ExecControl::infallible`].
///
/// # Panics
/// Re-raises a contained worker panic with the attributed
/// [`JoinError::WorkerPanicked`] rendering.
pub fn par_assign(
    tree: &mut TouchTree,
    probe: &[SpatialObject],
    chunk_size: usize,
    workers: usize,
    counters: &mut Counters,
) -> usize {
    par_assign_ctl(tree, probe, chunk_size, workers, counters, ExecControl::infallible())
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// The one parallel-assignment code path ([`par_assign`] is this with
/// [`ExecControl::infallible`]). With `ctl.trace` enabled it records one
/// [`TraceEvent::AssignChunk`] span per claimed chunk — attributed to the
/// worker that computed it — and a [`TraceEvent::Steal`] per cross-queue
/// claim; the sequential fallback records the whole probe batch as a single
/// chunk on worker 0.
///
/// Fault-tolerance contract (the assignment half of
/// [`SpatialJoinAlgorithm::try_join`](crate::SpatialJoinAlgorithm::try_join)):
///
/// * workers poll the cancel token per claimed chunk; on a trip every worker
///   stops claiming, the chunks already computed are still applied (in chunk
///   order) and the observed [`CancelCause`] is returned — the tree holds a
///   consistent subset of the full assignment,
/// * each worker's drain loop runs inside `catch_unwind`: one panicked worker
///   makes its siblings stop via a shared abort flag and surfaces as
///   `Err(`[`JoinError::WorkerPanicked`]`)` (lowest worker index wins); no
///   batch is applied to the tree and the panicked worker's partial counters
///   are discarded,
/// * with no trip and no panic the assignment is bit-identical to the
///   sequential [`TouchTree::assign`] at every worker count, as before.
pub fn par_assign_ctl(
    tree: &mut TouchTree,
    probe: &[SpatialObject],
    chunk_size: usize,
    workers: usize,
    counters: &mut Counters,
    ctl: ExecControl<'_>,
) -> Result<(usize, Option<CancelCause>), JoinError> {
    if probe.is_empty() {
        return Ok((0, None));
    }
    let trace = ctl.trace;
    let chunk_size = chunk_size.max(1);
    let chunk_count = probe.len().div_ceil(chunk_size);
    // Never spawn more workers than there are chunks to claim.
    let workers = workers.min(chunk_count);
    if workers <= 1 {
        let start_us = if trace.is_enabled() { trace.now_us() } else { 0 };
        // The chunk hook runs *inside* the catch region, mirroring the worker
        // loop below: a panicking trace sink surfaces as `WorkerPanicked`
        // instead of unwinding through the coordinator.
        let cause = catch_phase(Phase::Assignment, 0, || {
            let cause = tree.assign_ctl(probe, counters, ctl.cancel);
            if trace.is_enabled() {
                trace.record(TraceEvent::AssignChunk {
                    chunk: 0,
                    worker: 0,
                    objects: probe.len(),
                    start_us,
                    duration_us: trace.now_us().saturating_sub(start_us),
                });
            }
            cause
        })?;
        return Ok((0, cause));
    }

    let queues = StealQueues::distribute(0..chunk_count, workers);
    let abort = AtomicBool::new(false);
    let tree_ref: &TouchTree = tree;
    let per_worker: Vec<WorkerOutcome<Vec<ChunkBatch>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (queues, abort) = (&queues, &abort);
                scope.spawn(move || {
                    let mut local = Counters::new();
                    let mut batches = Vec::new();
                    let mut cause = None;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        while !abort.load(Ordering::Relaxed) {
                            if let Some(c) = ctl.cancel.triggered() {
                                cause = Some(c);
                                break;
                            }
                            let Some((chunk, stolen_from)) = queues.claim_tracked(w) else {
                                break;
                            };
                            if trace.is_enabled() {
                                if let Some(victim) = stolen_from {
                                    trace.record(TraceEvent::Steal {
                                        worker: w,
                                        victim,
                                        at_us: trace.now_us(),
                                    });
                                }
                            }
                            let start_us = if trace.is_enabled() { trace.now_us() } else { 0 };
                            let lo = chunk * chunk_size;
                            let hi = (lo + chunk_size).min(probe.len());
                            let mut assigned = Vec::new();
                            for obj in &probe[lo..hi] {
                                match tree_ref.assignment_target(&obj.mbr, &mut local) {
                                    Some(node) => assigned.push((node, *obj)),
                                    None => local.record_filtered(),
                                }
                            }
                            if trace.is_enabled() {
                                trace.record(TraceEvent::AssignChunk {
                                    chunk,
                                    worker: w,
                                    objects: hi - lo,
                                    start_us,
                                    duration_us: trace.now_us().saturating_sub(start_us),
                                });
                            }
                            batches.push((chunk, assigned));
                        }
                    }));
                    match outcome {
                        Ok(()) => Ok((local, batches, cause)),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            Err(panic_message(payload.as_ref()))
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            // The worker closures contain every unwind via `catch_unwind`,
            // so `join` cannot fail — the expect documents that invariant.
            .map(|h| {
                #[allow(clippy::expect_used)]
                h.join().expect("fault-contained worker cannot panic")
            })
            .collect()
    });

    let (per_worker_batches, cause) = fold_workers(per_worker, Phase::Assignment, counters)?;
    let mut all_batches = Vec::with_capacity(chunk_count);
    for batches in per_worker_batches {
        all_batches.extend(batches);
    }
    // Peak transient footprint of this phase: every placement buffered at once,
    // just before application.
    let batch_elem = std::mem::size_of::<(usize, SpatialObject)>();
    let aux_bytes: usize =
        all_batches.iter().map(|(_, assigned)| assigned.capacity() * batch_elem).sum();
    // Apply in chunk order: B-objects land in their nodes in probe-dataset order,
    // exactly as the sequential assignment would have placed them.
    all_batches.sort_unstable_by_key(|(chunk, _)| *chunk);
    for (_, assigned) in all_batches {
        tree.extend_assigned(assigned);
    }
    Ok((aux_bytes, cause))
}

/// Phase 3, sharded: drains `work` through per-worker local joins, one worker
/// per shard of `sharded` with its own reusable [`LocalJoinScratch`]. The nodes
/// are ordered by descending estimated cost before distribution (round-robin
/// seeding then spreads the heavy nodes across workers, and owner pops and
/// steals both take the largest remaining task first — LPT); the sort happens
/// in place, so a caller-retained `work` buffer is reused without reallocating.
/// Pairs are pushed as `(tree_id, probe_id)`, flipped when `swap_pairs` is set,
/// and filtered to `x < y` when `self_join` is set (see [`par_join_into_ctl`]).
/// Workers honour the sharded sink's early-termination protocol: once a shard
/// reports done (its share of a [`PairSink::pair_limit`] budget is spent) the
/// worker stops claiming nodes. With `ctl.trace` enabled every node records a
/// [`TraceEvent::NodeJoin`] span attributed to the worker that joined it, and
/// every cross-queue claim a [`TraceEvent::Steal`]. Returns the sum over
/// workers of each worker's reserved scratch bytes (concurrent footprints
/// coexist, unlike the in-thread join which charges a single scratch).
///
/// Fault-tolerance contract: workers poll the cancel token per claimed node
/// (pairs already pushed into the shards stay — a cancelled run's shards hold
/// a subset of the full result); each worker's drain loop is contained by
/// `catch_unwind`, a panicked worker trips a shared abort flag and surfaces as
/// `Err(`[`JoinError::WorkerPanicked`]`)` with its partial counters discarded.
///
/// # Panics
/// Panics if `scratches` provides fewer scratches than `sharded` has shards.
#[allow(clippy::too_many_arguments)]
fn par_local_join_ctl(
    tree: &TouchTree,
    work: &mut [usize],
    params: &LocalJoinParams,
    swap_pairs: bool,
    self_join: bool,
    sharded: &mut ShardedSink,
    scratches: &mut [LocalJoinScratch],
    counters: &mut Counters,
    ctl: ExecControl<'_>,
) -> Result<(usize, Option<CancelCause>), JoinError> {
    assert!(
        scratches.len() >= sharded.shard_count(),
        "need one scratch per worker: {} shards, {} scratches",
        sharded.shard_count(),
        scratches.len()
    );
    let trace = ctl.trace;
    work.sort_by_key(|&idx| {
        let cost = tree.node(idx).a_count() as u64 * tree.assigned_b(idx).len() as u64;
        std::cmp::Reverse(cost)
    });
    let queues = StealQueues::distribute(work.iter().copied(), sharded.shard_count());
    let abort = AtomicBool::new(false);

    let per_worker: Vec<WorkerOutcome<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sharded
            .shards_mut()
            .iter_mut()
            .zip(scratches.iter_mut())
            .enumerate()
            .map(|(w, (shard, scratch))| {
                let (queues, abort) = (&queues, &abort);
                scope.spawn(move || {
                    let mut local = Counters::new();
                    let mut peak_aux = 0usize;
                    let mut cause = None;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        while !abort.load(Ordering::Relaxed) {
                            if let Some(c) = ctl.cancel.triggered() {
                                cause = Some(c);
                                break;
                            }
                            let Some((idx, stolen_from)) = queues.claim_tracked(w) else {
                                break;
                            };
                            if trace.is_enabled() {
                                if let Some(victim) = stolen_from {
                                    trace.record(TraceEvent::Steal {
                                        worker: w,
                                        victim,
                                        at_us: trace.now_us(),
                                    });
                                }
                            }
                            let aux = tree.local_join_node(
                                idx,
                                tree.assigned_b(idx),
                                params,
                                scratch,
                                &mut local,
                                &mut |tree_id, probe_id| {
                                    let (x, y) = if swap_pairs {
                                        (probe_id, tree_id)
                                    } else {
                                        (tree_id, probe_id)
                                    };
                                    if !self_join || x < y {
                                        shard.push(x, y);
                                    }
                                    !shard.is_done()
                                },
                                trace,
                                w,
                            );
                            peak_aux = peak_aux.max(aux);
                            if shard.is_done() {
                                break;
                            }
                        }
                    }));
                    match outcome {
                        Ok(()) => Ok((local, peak_aux, cause)),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            Err(panic_message(payload.as_ref()))
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            // The worker closures contain every unwind via `catch_unwind`,
            // so `join` cannot fail — the expect documents that invariant.
            .map(|h| {
                #[allow(clippy::expect_used)]
                h.join().expect("fault-contained worker cannot panic")
            })
            .collect()
    });

    let (peaks, cause) = fold_workers(per_worker, Phase::Join, counters)?;
    Ok((peaks.into_iter().sum(), cause))
}

/// Phase 3: the complete join phase against any [`PairSink`] — the one place
/// the worker-capping/sharding decision lives, so the one-shot joins, the
/// streaming engine and the tick loop cannot diverge on it. This is
/// [`par_join_into_ctl`] with [`ExecControl::infallible`]; returns the
/// auxiliary bytes charged to the join phase.
///
/// # Panics
/// Re-raises a contained worker panic with the attributed
/// [`JoinError::WorkerPanicked`] rendering.
#[allow(clippy::too_many_arguments)]
pub fn par_join_into(
    tree: &TouchTree,
    params: &LocalJoinParams,
    threads: usize,
    swap_pairs: bool,
    self_join: bool,
    sink: &mut dyn PairSink,
    pool: &mut ScratchPool,
    counters: &mut Counters,
) -> usize {
    let ctl = ExecControl::infallible();
    par_join_into_ctl(tree, params, threads, swap_pairs, self_join, sink, pool, counters, ctl)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// The one join-phase code path. Pairs reach `sink` as `(tree_id, probe_id)`,
/// or flipped when `swap_pairs` is set (the caller built the tree on dataset
/// B). When `self_join` is set the two sides are the same dataset (aligned
/// ids) and only pairs whose A-oriented ids satisfy `x < y` reach the sink —
/// identity pairs and mirrored duplicates are dropped **before** the pair
/// budget is spent, while the comparison/node-test counters stay identical to
/// the raw two-dataset run. The pairs the sink actually received are added to
/// `counters.results`.
///
/// `pool` owns the per-worker scratches and the work-list buffer; a persistent
/// engine passes the same pool every epoch, so the join phase stops allocating
/// once the pool has warmed up. A one-shot join passes a fresh pool.
///
/// * **One worker** — `threads` ≤ 1, or at most one node to join: the nodes
///   are joined in-thread, in ascending node order, through
///   [`TouchTree::join_assigned_ctl`] on the pool's primary scratch, inside
///   one [`catch_phase`]; no thread is spawned and no shard buffers pairs.
///   Pairs stream straight into `sink`, so after a contained panic the sink
///   holds what the join delivered before it.
/// * **Several workers** — the work list is capped at the available work
///   (never more shards than nodes) and drained by the per-worker local joins
///   into a [`ShardedSink`] adapting the sink's mode and pair budget. On an
///   orderly exit — complete *or* cancelled — the shards are merged into
///   `sink`, so a cancelled run's sink holds a consistent subset of the full
///   result; on `Err` (a contained worker panic) the shards are discarded and
///   the sink receives nothing from this phase.
///
/// Returns the auxiliary bytes charged to the join phase and the cancel cause
/// the workers observed, if any.
#[allow(clippy::too_many_arguments)]
pub fn par_join_into_ctl(
    tree: &TouchTree,
    params: &LocalJoinParams,
    threads: usize,
    swap_pairs: bool,
    self_join: bool,
    sink: &mut dyn PairSink,
    pool: &mut ScratchPool,
    counters: &mut Counters,
    ctl: ExecControl<'_>,
) -> Result<(usize, Option<CancelCause>), JoinError> {
    let mut work = pool.take_work();
    // At one thread the work list is not needed to decide: the in-thread path
    // builds its own.
    let workers = if threads > 1 {
        tree.nodes_with_assignments_into(&mut work);
        threads.min(work.len())
    } else {
        1
    };
    if workers <= 1 {
        pool.restore_work(work);
        let mut results = 0u64;
        let joined = catch_phase(Phase::Join, 0, || {
            let mut emit = |tree_id, probe_id| {
                let (x, y) = if swap_pairs { (probe_id, tree_id) } else { (tree_id, probe_id) };
                if !self_join || x < y {
                    deliver(sink, x, y, &mut results)
                } else {
                    !sink.is_done()
                }
            };
            tree.join_assigned_ctl(params, pool.primary(), counters, &mut emit, ctl, 0)
        });
        counters.results += results;
        return joined;
    }
    let mut sharded = ShardedSink::for_sink(sink, workers);
    let joined = par_local_join_ctl(
        tree,
        &mut work,
        params,
        swap_pairs,
        self_join,
        &mut sharded,
        pool.worker_scratches(workers),
        counters,
        ctl,
    );
    pool.restore_work(work);
    let (aux_bytes, cause) = joined?;
    // Credit only the pairs the sink actually received: a sink that became done
    // without declaring a pair budget makes merge_into stop delivering early.
    counters.results += sharded.merge_into(sink);
    Ok((aux_bytes, cause))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectingSink, FirstKSink, LocalJoinKind, TouchConfig};
    use touch_geom::{Aabb, Dataset, Point3};

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

    #[test]
    fn par_build_tree_matches_sequential_build() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let sequential = TouchTree::build(a.objects(), 16, 2);
        for threads in [1, 2, 4] {
            let (tree, _) = par_build_tree(a.objects(), 16, 2, threads, 8);
            assert_eq!(tree.node_count(), sequential.node_count(), "threads = {threads}");
            for idx in tree.node_indices() {
                assert_eq!(tree.node(idx).mbr, sequential.node(idx).mbr, "threads = {threads}");
            }
            assert_eq!(tree.a_objects(), sequential.a_objects(), "threads = {threads}");
        }
    }

    #[test]
    fn par_assign_matches_sequential_assign() {
        let a = lattice(4, 2.0, 1.0, 0.0);
        let b = lattice(5, 1.6, 0.9, 0.3);
        let mut sequential = TouchTree::build(a.objects(), 8, 2);
        let mut seq_counters = Counters::new();
        sequential.assign(b.objects(), &mut seq_counters);
        for workers in [1, 2, 4] {
            let mut tree = TouchTree::build(a.objects(), 8, 2);
            let mut counters = Counters::new();
            par_assign(&mut tree, b.objects(), 16, workers, &mut counters);
            assert_eq!(counters, seq_counters, "workers = {workers}");
            for idx in tree.node_indices() {
                assert_eq!(
                    tree.assigned_b(idx).len(),
                    sequential.assigned_b(idx).len(),
                    "workers = {workers}, node {idx}"
                );
            }
        }
    }

    /// A recording trace sink that notes the thread every event arrives from.
    #[derive(Default)]
    struct ThreadLog(std::sync::Mutex<Vec<std::thread::ThreadId>>);

    impl touch_metrics::TraceSink for ThreadLog {
        fn is_enabled(&self) -> bool {
            true
        }

        fn record(&self, _event: TraceEvent) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    /// `(tree_id, probe_id)` pairs in emission order, and the counters, of the
    /// sequential `join_assigned_ctl` — the one-worker reference.
    fn sequential_join(tree: &TouchTree, params: &LocalJoinParams) -> (Vec<(u32, u32)>, Counters) {
        let (mut pairs, mut counters) = (Vec::new(), Counters::new());
        let mut emit = |x, y| {
            pairs.push((x, y));
            true
        };
        let ctl = ExecControl::infallible();
        tree.join_assigned_ctl(
            params,
            &mut LocalJoinScratch::new(),
            &mut counters,
            &mut emit,
            ctl,
            0,
        );
        counters.results = pairs.len() as u64;
        (pairs, counters)
    }

    #[test]
    fn par_local_join_matches_join_assigned() {
        let a = lattice(4, 1.5, 1.0, 0.0);
        let b = lattice(5, 1.2, 0.8, 0.2);
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        let params = TouchConfig::default().local_join_params(0.5);
        assert_eq!(params.kind, LocalJoinKind::Grid);
        let (in_order, seq_counters) = sequential_join(&tree, &params);
        let mut expected = in_order.clone();
        expected.sort_unstable();

        for workers in [1, 3] {
            for swap_pairs in [false, true] {
                let case = format!("workers = {workers}, swap = {swap_pairs}");
                let log = ThreadLog::default();
                let mut sink = CollectingSink::new();
                let mut pool = ScratchPool::new();
                let mut counters = Counters::new();
                let ctl = ExecControl::with_trace(&log);
                let (_, cause) = par_join_into_ctl(
                    &tree,
                    &params,
                    workers,
                    swap_pairs,
                    false,
                    &mut sink,
                    &mut pool,
                    &mut counters,
                    ctl,
                )
                .unwrap();
                assert!(cause.is_none());
                let flip = |&(x, y): &(u32, u32)| if swap_pairs { (y, x) } else { (x, y) };
                let mut sorted: Vec<(u32, u32)> = sink.pairs().iter().map(flip).collect();
                sorted.sort_unstable();
                assert_eq!(sorted, expected, "{case}");
                assert_eq!(counters, seq_counters, "{case}");
                if workers == 1 {
                    // One worker joins in-thread, in ascending node order.
                    let emitted: Vec<(u32, u32)> = sink.pairs().iter().map(flip).collect();
                    assert_eq!(emitted, in_order, "{case}: emission order");
                    let here = std::thread::current().id();
                    let threads = log.0.lock().unwrap();
                    assert!(!threads.is_empty() && threads.iter().all(|&t| t == here), "{case}");
                    assert_eq!(pool.workers(), 1, "{case}: no per-worker scratches");
                }
            }
        }

        // A first-k sink stops the in-thread join at exactly K.
        let mut sink = FirstKSink::new(3);
        let mut pool = ScratchPool::new();
        let mut counters = Counters::new();
        par_join_into(&tree, &params, 1, false, false, &mut sink, &mut pool, &mut counters);
        assert_eq!(sink.count(), 3);
        assert_eq!(counters.results, 3);
        assert!(counters.comparisons < seq_counters.comparisons, "the join stopped early");

        // An empty work list at any width takes the in-thread path: nothing
        // joins and no per-worker scratch is allocated.
        let empty = TouchTree::build(a.objects(), 8, 2);
        let mut sink = CollectingSink::new();
        let mut pool = ScratchPool::new();
        let mut counters = Counters::new();
        par_join_into(&empty, &params, 4, false, false, &mut sink, &mut pool, &mut counters);
        assert!(sink.pairs().is_empty());
        assert_eq!(counters, Counters::new());
        assert!(pool.workers() <= 1, "an empty work list spawns no workers");
    }

    #[test]
    fn self_join_flag_keeps_each_unordered_pair_once() {
        let a = lattice(4, 1.2, 1.5, 0.0); // side > spacing: every neighbour pair overlaps
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let mut counters = Counters::new();
        tree.assign(a.objects(), &mut counters);
        let params = TouchConfig::default().local_join_params(0.5);

        // Brute-force unordered reference.
        let mut expected = Vec::new();
        for oa in a.iter() {
            for ob in a.iter() {
                if oa.id < ob.id && oa.mbr.intersects(&ob.mbr) {
                    expected.push((oa.id, ob.id));
                }
            }
        }
        expected.sort_unstable();
        assert!(!expected.is_empty());
        // The one-worker path filters the sequential emission stream in place.
        let (in_order, seq_counters) = sequential_join(&tree, &params);
        let filtered: Vec<(u32, u32)> = in_order.into_iter().filter(|&(x, y)| x < y).collect();

        for workers in [1, 4] {
            let mut sink = CollectingSink::new();
            let mut pool = ScratchPool::new();
            let mut counters = Counters::new();
            par_join_into(
                &tree,
                &params,
                workers,
                false,
                true,
                &mut sink,
                &mut pool,
                &mut counters,
            );
            assert_eq!(sink.sorted_pairs(), expected, "workers = {workers}");
            assert_eq!(counters.results, expected.len() as u64, "workers = {workers}");
            let raw = Counters { results: seq_counters.results, ..counters };
            assert_eq!(raw, seq_counters, "workers = {workers}: pre-filter work is unchanged");
            if workers == 1 {
                assert_eq!(sink.pairs(), filtered.as_slice(), "emission order");
            }
        }
    }
}
