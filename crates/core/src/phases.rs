//! The three TOUCH phases, at any worker count, behind two entries.
//!
//! [`build_tree`] runs phase 1 (Algorithm 2) and [`assign_and_join`] phases 2
//! and 3 (Algorithms 3 and 4). They are the only code that runs the phases:
//! [`crate::TouchJoin`] calls both per join, the `touch-streaming` engine
//! builds once and assigns and joins per epoch, a `touch-serve` reader assigns
//! and joins per query over a frozen, shared tree, and the `touch-sim` tick
//! loop calls both per tick. Each entry runs every phase inside
//! [`catch_phase`], times it into the caller's [`PhaseTimer`] and, on an
//! enabled trace, records a [`TraceEvent::Phase`] span, so every surface
//! contains panics at its phase boundaries and reports the same spans.
//!
//! The assignment and the join are each one loop over independent units:
//! probe chunks of [`JoinPlan::chunk_size`] objects, and nodes holding
//! assigned objects. One controlled loop runs them at every width: it polls
//! the cancel token before each unit, runs the unit and stops when the unit
//! says so. At one worker it runs in the calling thread over the units in
//! order; at more, one spawner runs it on scoped threads that claim the
//! entries of one shared list in list order, so the join's cost-sorted nodes
//! start largest first. So cancellation and the [`TraceEvent::AssignChunk`]
//! spans are per chunk at every width.
//!
//! Every phase preserves the determinism contract: for a fixed input and
//! [`JoinPlan`], the produced tree, assignment and local joins — and therefore
//! the result set and all counters — are identical at every worker count.
//! [`par_assign`] and [`par_join_into`] run one inner phase alone, on a tree's
//! own store, for callers that replay the phases one at a time.

use crate::{
    catch_phase, deliver, AssignmentBuffer, CancelCause, ExecControl, JoinError, JoinPlan,
    LocalJoinParams, LocalJoinScratch, PairSink, ScratchPool, Shape, ShardedSink, TouchTree,
};
use std::convert::identity;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use touch_geom::{ObjectId, SpatialObject};
use touch_index::par_str_sort;
use touch_metrics::{Counters, MemoryUsage, Phase, PhaseTimer, TraceEvent, TraceSink};

/// Resolves a configured worker count: an explicit value is used as-is, `0`
/// auto-detects the machine's available parallelism (falling back to 1). The single
/// resolution rule shared by [`crate::TouchJoin::with_threads`], the streaming
/// engine's configuration and the tick loop's.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    }
}

/// Runs `f` as `phase`: times it into `timer` and, when `trace` is enabled,
/// records it as a [`TraceEvent::Phase`] span, so the spans line up with the
/// reported phase times. A panic in `f` returns [`JoinError::WorkerPanicked`]
/// once the phase's time and span are closed, and a panic in the span's own
/// trace hook is contained too. Every phase of the two entries runs in it.
fn run_phase<T>(
    timer: &mut PhaseTimer,
    phase: Phase,
    trace: &dyn TraceSink,
    f: impl FnOnce() -> Result<T, JoinError>,
) -> Result<T, JoinError> {
    catch_phase(phase, 0, || {
        let start_us = if trace.is_enabled() { trace.now_us() } else { 0 };
        let out = timer.time(phase, || catch_phase(phase, 0, f).and_then(identity));
        if trace.is_enabled() {
            let duration_us = trace.now_us().saturating_sub(start_us);
            trace.record(TraceEvent::Phase { phase, start_us, duration_us });
        }
        out
    })
    .and_then(identity)
}

/// Phase 1 (Algorithm 2): copies `tree_side` into `items`, the caller's
/// reusable buffer, STR-sorts it at the plan's width ([`par_str_sort`]) and
/// hands it to [`TouchTree::from_tiled`]. Returns the tree and the sort's
/// transient bytes. The tile order, and so the tree, does not depend on the
/// width. A tick loop passes the buffer it reclaimed from last tick's tree
/// ([`TouchTree::into_items`]); an empty `Vec` is sized exactly to the input.
/// A panic returns [`JoinError::WorkerPanicked`] and loses the buffer.
pub fn build_tree(
    tree_side: &[SpatialObject],
    mut items: Vec<SpatialObject>,
    plan: &JoinPlan,
    timer: &mut PhaseTimer,
    trace: &dyn TraceSink,
) -> Result<(TouchTree, usize), JoinError> {
    run_phase(timer, Phase::Build, trace, || {
        items.clear();
        items.reserve_exact(tree_side.len());
        items.extend_from_slice(tree_side);
        let mut sort_aux = 0;
        if !items.is_empty() {
            let cap = TouchTree::leaf_capacity(items.len(), plan.partitions);
            sort_aux = par_str_sort(&mut items, cap, plan.threads(), plan.sort_threshold);
        }
        Ok((TouchTree::from_tiled(items, plan.partitions, plan.fanout), sort_aux))
    })
}

/// Phases 2 and 3 (Algorithms 3 and 4): assigns `probe` to `tree` into
/// `store`, then, unless the assignment was cancelled, joins the nodes holding
/// assigned objects into `sink`, at the plan's width, chunk size and
/// local-join parameters. Pairs reach `sink` as `(tree_id, probe_id)`, flipped
/// when the plan builds on B; a [`Shape::SelfJoin`] keeps only pairs with
/// `x < y`. The work is added to `counters` and the phase times to `timer`;
/// `pool` is the join's reusable scratch.
///
/// The store is explicit: a serving reader passes its own buffer over a tree
/// many readers share, and the other surfaces pass their tree's own store
/// through [`TouchTree::with_store`]. The join runs over everything the store
/// holds, so the caller clears it first (a streaming window keeps the epochs
/// still in the window).
///
/// Both phases run through the one controlled loop (see the module docs), in
/// the calling thread at one worker and on scoped workers at more:
///
/// * `ctl.cancel` is polled before the assignment, then before every
///   assignment chunk and every join node, at every width. A trip returns `Ok`
///   with its cause; the store and the sink then hold consistent subsets of
///   the assignment and of the pairs.
/// * With `ctl.trace` enabled, every chunk records a
///   [`TraceEvent::AssignChunk`] span and every node a
///   [`TraceEvent::NodeJoin`] span, attributed to the worker that ran it.
/// * Each phase, its span included, runs inside [`catch_phase`], and each
///   spawned worker's loop inside a containment of its own, so a panic returns
///   [`JoinError::WorkerPanicked`] attributed to its phase and worker.
/// * With an untriggered token and no panic, pairs and counters are the same
///   at every width, traced or not.
///
/// Returns the transient bytes of both phases (the assignment batches and the
/// join scratch) and the cancel cause, if any.
#[allow(clippy::too_many_arguments)]
pub fn assign_and_join(
    tree: &TouchTree,
    store: &mut AssignmentBuffer,
    probe: &[SpatialObject],
    plan: &JoinPlan,
    shape: Shape,
    sink: &mut dyn PairSink,
    pool: &mut ScratchPool,
    counters: &mut Counters,
    timer: &mut PhaseTimer,
    ctl: ExecControl<'_>,
) -> Result<(usize, Option<CancelCause>), JoinError> {
    // A pre-tripped token leaves the store untouched and records no span.
    if let Some(cause) = ctl.cancel.triggered() {
        return Ok((0, Some(cause)));
    }
    let threads = plan.threads();
    let (assign_aux, cause) = run_phase(timer, Phase::Assignment, ctl.trace, || {
        par_assign_ctl(tree, store, probe, plan.chunk_size, threads, counters, ctl)
    })?;
    if cause.is_some() {
        return Ok((assign_aux, cause));
    }
    let (swap_pairs, self_join) = (!plan.build_on_a, shape == Shape::SelfJoin);
    let (join_aux, cause) = run_phase(timer, Phase::Join, ctl.trace, || {
        let params = &plan.params;
        par_join_into_ctl(
            tree, store, params, threads, swap_pairs, self_join, sink, pool, counters, ctl,
        )
    })?;
    Ok((assign_aux + join_aux, cause))
}

/// The one controlled loop: polls `ctl.cancel`, takes the next unit of
/// `units` and runs it, until `units` runs dry, the token trips (its cause is
/// returned) or `run` returns `false`.
fn drain<U>(
    ctl: ExecControl<'_>,
    mut units: impl Iterator<Item = U>,
    mut run: impl FnMut(U) -> bool,
) -> Option<CancelCause> {
    loop {
        if let Some(cause) = ctl.cancel.triggered() {
            return Some(cause);
        }
        if !run(units.next()?) {
            return None;
        }
    }
}

/// The one spawner: runs [`drain`] on one scoped thread per entry of
/// `states`, over one claim list. Every worker claims the next unclaimed
/// entry of `units` through a shared counter, so the entries start in list
/// order whichever worker takes them. Worker `w` owns `states[w]` and tallies
/// into counters of its own; `run` is one unit of one worker. Each worker's
/// loop runs inside [`catch_phase`] for `phase`, and a contained panic sets a
/// shared abort flag, so its siblings stop claiming.
///
/// The fold: the counters of every worker that finished are merged into
/// `counters` (a panicked worker's are dropped, they may be mid-update). If a
/// worker panicked, the lowest-index one becomes the error; otherwise the
/// finished workers' states come back in worker order, with the first cancel
/// cause any of them saw.
fn spawn_workers<U: Copy + Sync, S: Send>(
    units: &[U],
    states: impl IntoIterator<Item = S>,
    phase: Phase,
    counters: &mut Counters,
    ctl: ExecControl<'_>,
    run: impl Fn(&mut S, &mut Counters, U, usize) -> bool + Sync,
) -> Result<(Vec<S>, Option<CancelCause>), JoinError> {
    let (next, abort, run) = (&AtomicUsize::new(0), &AtomicBool::new(false), &run);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (states.into_iter().enumerate())
            .map(|(w, mut state)| {
                scope.spawn(move || {
                    let mut local = Counters::new();
                    let claim = std::iter::from_fn(|| match abort.load(Ordering::Relaxed) {
                        true => None,
                        false => units.get(next.fetch_add(1, Ordering::Relaxed)).copied(),
                    });
                    let outcome = catch_phase(phase, w, || {
                        drain(ctl, claim, |unit| run(&mut state, &mut local, unit, w))
                    });
                    if outcome.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    outcome.map(|cause| (local, state, cause))
                })
            })
            .collect();
        handles
            .into_iter()
            // `catch_phase` contains every unwind, so `join` cannot fail —
            // the expect documents that invariant.
            .map(|h| {
                #[allow(clippy::expect_used)]
                h.join().expect("fault-contained worker cannot panic")
            })
            .collect()
    });
    let (mut states, mut cause, mut panicked) = (Vec::new(), None, None);
    for outcome in outcomes {
        match outcome {
            Ok((local, state, c)) => {
                counters.merge(&local);
                states.push(state);
                cause = cause.or(c);
            }
            Err(e) => {
                panicked.get_or_insert(e);
            }
        }
    }
    panicked.map_or(Ok((states, cause)), Err)
}

/// Runs `f`, the work of assignment chunk `chunk`, and records it as a
/// [`TraceEvent::AssignChunk`] span of `worker` when `trace` is enabled.
fn traced_chunk<T>(
    trace: &dyn TraceSink,
    chunk: usize,
    worker: usize,
    objects: usize,
    f: impl FnOnce() -> T,
) -> T {
    if !trace.is_enabled() {
        return f();
    }
    let start_us = trace.now_us();
    let out = f();
    let duration_us = trace.now_us().saturating_sub(start_us);
    trace.record(TraceEvent::AssignChunk { chunk, worker, objects, start_us, duration_us });
    out
}

/// One chunk's share of the assignment phase: the chunk index and the
/// `(node, object)` placements computed for it.
type ChunkBatch = (usize, Vec<(usize, SpatialObject)>);

/// The assignment phase of [`assign_and_join`] on the tree's own store,
/// untimed and never cancelled: computes assignment targets on `workers`
/// threads (read-only tree traversals, the chunks claimed in index order),
/// then applies the batches in chunk order so the per-node B-lists match the
/// sequential [`TouchTree::assign`] exactly. Returns the bytes of the
/// transient batch buffers (0 at one worker).
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
    let ctl = ExecControl::infallible();
    tree.with_store(|store, tree| {
        par_assign_ctl(tree, store, probe, chunk_size, workers, counters, ctl)
    })
    .unwrap_or_else(|e| panic!("{e}"))
    .0
}

/// The assignment phase, into `store`, one unit per `chunk_size` chunk of
/// `probe`. The width is capped at the chunk count.
///
/// * **One worker** — the chunks are assigned in order, straight into the
///   store with [`AssignmentBuffer::assign`]; nothing is buffered.
/// * **Several workers** — the workers claim the chunks in index order from
///   one list, and each buffers its chunks' placements. On an orderly exit,
///   complete *or* cancelled, the batches are applied in chunk order, so
///   B-objects land in their nodes in probe order; on a panic none is
///   applied.
///
/// Either way a cancelled store holds a consistent subset of the full
/// assignment, and a complete one is bit-identical to the sequential
/// [`AssignmentBuffer::assign`] at every width. Returns the bytes of the
/// batches (0 at one worker) and the cancel cause, if any.
fn par_assign_ctl(
    tree: &TouchTree,
    store: &mut AssignmentBuffer,
    probe: &[SpatialObject],
    chunk_size: usize,
    workers: usize,
    counters: &mut Counters,
    ctl: ExecControl<'_>,
) -> Result<(usize, Option<CancelCause>), JoinError> {
    let chunk_size = chunk_size.max(1);
    let chunk_count = probe.len().div_ceil(chunk_size);
    let chunk = |c: usize| &probe[c * chunk_size..((c + 1) * chunk_size).min(probe.len())];
    let workers = workers.min(chunk_count);
    if workers <= 1 {
        let cause = drain(ctl, 0..chunk_count, |c| {
            let objects = chunk(c);
            traced_chunk(ctl.trace, c, 0, objects.len(), || store.assign(tree, objects, counters));
            true
        });
        return Ok((0, cause));
    }

    let chunks: Vec<usize> = (0..chunk_count).collect();
    let batches = (0..workers).map(|_| Vec::<ChunkBatch>::new());
    let (per_worker, cause) = spawn_workers(
        &chunks,
        batches,
        Phase::Assignment,
        counters,
        ctl,
        |batches, local, c, w| {
            let objects = chunk(c);
            let placed = traced_chunk(ctl.trace, c, w, objects.len(), || {
                let mut placed = Vec::new();
                for obj in objects {
                    match tree.assignment_target(&obj.mbr, local) {
                        Some(node) => placed.push((node, *obj)),
                        None => local.record_filtered(),
                    }
                }
                placed
            });
            batches.push((c, placed));
            true
        },
    )?;
    let mut batches: Vec<ChunkBatch> = per_worker.into_iter().flatten().collect();
    // Peak transient footprint of this phase: every placement buffered at once,
    // just before application.
    let batch_elem = std::mem::size_of::<(usize, SpatialObject)>();
    let aux_bytes = batches.iter().map(|(_, placed)| placed.capacity() * batch_elem).sum();
    batches.sort_unstable_by_key(|(chunk, _)| *chunk);
    store.extend(tree, batches.into_iter().flat_map(|(_, placed)| placed));
    Ok((aux_bytes, cause))
}

/// The join phase of [`assign_and_join`] on the tree's own store, untimed
/// and never cancelled: the nodes holding assigned objects are joined into
/// `sink` at `threads` workers, with the orientation and self-join filter of
/// `swap_pairs` and `self_join`. Returns the auxiliary bytes charged to the
/// join phase.
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
    let (store, ctl) = (tree.store(), ExecControl::infallible());
    par_join_into_ctl(
        tree, store, params, threads, swap_pairs, self_join, sink, pool, counters, ctl,
    )
    .unwrap_or_else(|e| panic!("{e}"))
    .0
}

/// The join phase, over the lists of `store`, one unit per node. Pairs reach
/// `sink` as `(tree_id, probe_id)`, or flipped when `swap_pairs` is set (the
/// caller built the tree on dataset B). When `self_join` is set the two sides
/// are the same dataset (aligned ids) and only pairs whose A-oriented ids
/// satisfy `x < y` reach the sink — identity pairs and mirrored duplicates are
/// dropped **before** the pair budget is spent, while the
/// comparison/node-test counters stay identical to the raw two-dataset run.
/// The pairs the sink actually received are added to `counters.results`.
///
/// `pool` owns the per-worker scratches and the work-list buffer. The width is
/// capped at the node count.
///
/// * **One worker** — [`join_in_order`] on the pool's primary scratch: pairs
///   stream straight into `sink`, and the loop stops after the node in which
///   the sink refused a pair.
/// * **Several workers** — the nodes are sorted by descending estimated cost
///   (subtree A-count × B-list length), and every worker claims the next
///   node of that one list, so the largest remaining node always starts
///   first (LPT list scheduling). Each worker joins on a scratch of its own
///   into its shard of a [`ShardedSink`], which adapts the sink's mode and
///   pair budget, and stops when its shard is done. On an orderly exit —
///   complete *or* cancelled — the shards are merged into `sink`; on a panic
///   they are discarded.
///
/// Either way a cancelled sink holds a consistent subset of the full result.
/// Returns the join scratch's bytes (at several workers the sum of each
/// worker's high-water mark, as their footprints coexist) and the cancel
/// cause, if any.
#[allow(clippy::too_many_arguments)]
fn par_join_into_ctl(
    tree: &TouchTree,
    store: &AssignmentBuffer,
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
    // At one thread the work list is not needed to decide: the in-thread loop
    // keeps its own on the primary scratch.
    let workers = if threads > 1 {
        store.work_into(tree, &mut work);
        threads.min(work.len())
    } else {
        1
    };
    if workers <= 1 {
        pool.restore_work(work);
        let mut results = 0u64;
        let emit = |t, p| {
            let (x, y) = if swap_pairs { (p, t) } else { (t, p) };
            if !self_join || x < y {
                deliver(sink, x, y, &mut results)
            } else {
                !sink.is_done()
            }
        };
        let joined = join_in_order(tree, store, params, pool.primary(), counters, emit, ctl);
        counters.results += results;
        return Ok(joined);
    }

    work.sort_by_key(|&idx| {
        let cost = tree.a_count(idx) as u64 * store.node_objects(idx).len() as u64;
        std::cmp::Reverse(cost)
    });
    let mut sharded = ShardedSink::for_sink(sink, workers);
    let shards = sharded.shards_mut().iter_mut().zip(pool.worker_scratches(workers));
    let states = shards.map(|(shard, scratch)| (shard, scratch, 0usize));
    let joined =
        spawn_workers(&work, states, Phase::Join, counters, ctl, |state, local, idx, w| {
            let (shard, scratch, peak) = state;
            let mut emit = |t, p| {
                let (x, y) = if swap_pairs { (p, t) } else { (t, p) };
                if !self_join || x < y {
                    shard.push(x, y);
                }
                !shard.is_done()
            };
            let objs = store.node_objects(idx);
            let aux =
                tree.local_join_node(idx, objs, params, scratch, local, &mut emit, ctl.trace, w);
            *peak = (*peak).max(aux);
            !shard.is_done()
        })
        .map(|(states, cause)| (states.iter().map(|(_, _, peak)| peak).sum(), cause));
    pool.restore_work(work);
    let (aux_bytes, cause) = joined?;
    // Credit only the pairs the sink actually received: a sink that became done
    // without declaring a pair budget makes merge_into stop delivering early.
    counters.results += sharded.merge_into(sink);
    Ok((aux_bytes, cause))
}

/// The join at one worker, in the calling thread: the nodes holding objects
/// of `store` in ascending order, through [`drain`], on `scratch`, which also
/// holds the work list (so its bytes count it). `emit` returning `false`
/// abandons the node's local join and stops the loop after it. Returns the
/// scratch's bytes and the cancel cause, if any. [`AssignmentBuffer::join`]
/// is this with [`ExecControl::infallible`].
pub(crate) fn join_in_order(
    tree: &TouchTree,
    store: &AssignmentBuffer,
    params: &LocalJoinParams,
    scratch: &mut LocalJoinScratch,
    counters: &mut Counters,
    mut emit: impl FnMut(ObjectId, ObjectId) -> bool,
    ctl: ExecControl<'_>,
) -> (usize, Option<CancelCause>) {
    let mut work = std::mem::take(&mut scratch.work);
    store.work_into(tree, &mut work);
    let cause = drain(ctl, work.iter().copied(), |idx| {
        let mut refused = false;
        let mut watched = |a, b| {
            refused = !emit(a, b);
            !refused
        };
        let objs = store.node_objects(idx);
        tree.local_join_node(idx, objs, params, scratch, counters, &mut watched, ctl.trace, 0);
        !refused
    });
    scratch.work = work;
    (scratch.memory_bytes(), cause)
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

    /// Runs `units` over `spawn_workers` at `workers` workers; each worker
    /// records the units it ran, in the order it ran them, and counts one
    /// comparison per unit.
    fn spawn_recording(units: &[usize], workers: usize) -> (Vec<Vec<usize>>, Counters) {
        let mut counters = Counters::new();
        let states = (0..workers).map(|_| Vec::new());
        let ctl = ExecControl::infallible();
        let (ran, cause) =
            spawn_workers(units, states, Phase::Join, &mut counters, ctl, |ran, local, u, _| {
                ran.push(u);
                local.comparisons += 1;
                true
            })
            .unwrap();
        assert!(cause.is_none());
        (ran, counters)
    }

    #[test]
    fn claims_every_task_exactly_once() {
        let n = 10_000;
        let units: Vec<usize> = (0..n).collect();
        let (ran, counters) = spawn_recording(&units, 8);
        let mut runs = vec![0u32; n];
        for &u in ran.iter().flatten() {
            runs[u] += 1;
        }
        assert!(runs.iter().all(|&r| r == 1), "a unit ran twice or never");
        assert_eq!(counters.comparisons, n as u64, "every worker's counters are merged");
    }

    #[test]
    fn concurrent_workers_partition_the_tasks() {
        let n = 10_000;
        let units: Vec<usize> = (0..n).collect();
        let (ran, _) = spawn_recording(&units, 8);
        assert_eq!(ran.len(), 8, "one state per worker, in worker order");
        for mine in &ran {
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "a worker claims in list order");
        }
        let mut all: Vec<usize> = ran.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, units, "every task exactly once");
    }

    #[test]
    fn a_single_spawned_worker_runs_the_list_in_list_order() {
        let units = [7, 3, 9, 0, 5, 5, 2];
        let (ran, _) = spawn_recording(&units, 1);
        assert_eq!(ran, vec![units.to_vec()]);
    }

    #[test]
    fn build_tree_matches_sequential_build() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let sequential = TouchTree::build(a.objects(), 16, 2);
        let cfg = TouchConfig { partitions: 16, ..TouchConfig::default() };
        for threads in [1, 2, 4] {
            let plan = JoinPlan::from_touch_config(&cfg, &a, &a)
                .with_strategy(crate::ExecutionStrategy::Parallel { threads })
                .with_execution(16, 8);
            let mut timer = PhaseTimer::new();
            let items = Vec::with_capacity(3); // a reused buffer, smaller than the input
            let (tree, _) =
                build_tree(a.objects(), items, &plan, &mut timer, &touch_metrics::NoTrace).unwrap();
            assert_eq!(tree.node_count(), sequential.node_count(), "threads = {threads}");
            for idx in tree.node_indices() {
                assert_eq!(tree.node(idx).mbr, sequential.node(idx).mbr, "threads = {threads}");
            }
            assert_eq!(tree.a_objects(), sequential.a_objects(), "threads = {threads}");
            assert!(timer.get(Phase::Build) > std::time::Duration::ZERO, "the build is timed");
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
    /// sequential `join_assigned` — the one-worker reference.
    fn sequential_join(tree: &TouchTree, params: &LocalJoinParams) -> (Vec<(u32, u32)>, Counters) {
        let (mut pairs, mut counters) = (Vec::new(), Counters::new());
        let mut emit = |x, y| {
            pairs.push((x, y));
            true
        };
        tree.join_assigned(params, &mut LocalJoinScratch::new(), &mut counters, &mut emit);
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
                    tree.store(),
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

    /// The workload of the unified-loop tests: a 64-object tree and 343 probe
    /// objects, and a plan at `threads` workers with chunks of `chunk_size`.
    fn unified_case(threads: usize, chunk_size: usize) -> (TouchTree, Dataset, JoinPlan) {
        let a = lattice(4, 2.0, 1.0, 0.0);
        let b = lattice(7, 1.1, 0.5, 0.3);
        let plan = JoinPlan::from_touch_config(&TouchConfig::default(), &a, &b)
            .with_strategy(crate::ExecutionStrategy::Parallel { threads })
            .with_execution(chunk_size, 8);
        assert!(plan.build_on_a);
        (TouchTree::build(a.objects(), 8, 2), b, plan)
    }

    /// Phases 2 and 3 of `case` into a fresh store, under `ctl`.
    fn run_unified(
        (tree, b, plan): &(TouchTree, Dataset, JoinPlan),
        sink: &mut dyn PairSink,
        ctl: ExecControl<'_>,
    ) -> (AssignmentBuffer, Counters, Option<CancelCause>) {
        let (mut store, mut counters, mut timer) =
            (AssignmentBuffer::new(), Counters::new(), PhaseTimer::new());
        let mut pool = ScratchPool::new();
        let probe = b.objects();
        let (_, cause) = assign_and_join(
            tree,
            &mut store,
            probe,
            plan,
            Shape::Pair,
            sink,
            &mut pool,
            &mut counters,
            &mut timer,
            ctl,
        )
        .unwrap();
        (store, counters, cause)
    }

    #[test]
    fn assignment_records_one_span_per_chunk_at_every_width() {
        let (n, chunk_size) = (343, 50);
        let reference =
            run_unified(&unified_case(1, n), &mut CollectingSink::new(), ExecControl::infallible());
        for threads in [1, 2] {
            let case = unified_case(threads, chunk_size);
            assert_eq!(case.1.len(), n);
            let trace = touch_metrics::ExecTrace::new();
            let mut sink = CollectingSink::new();
            let (_, counters, cause) =
                run_unified(&case, &mut sink, ExecControl::with_trace(&trace));
            assert!(cause.is_none());
            assert_eq!(counters, reference.1, "threads = {threads}");
            let mut chunks: Vec<(usize, usize)> = (trace.events().into_iter())
                .filter_map(|e| match e {
                    TraceEvent::AssignChunk { chunk, objects, .. } => Some((chunk, objects)),
                    _ => None,
                })
                .collect();
            chunks.sort_unstable();
            let indices: Vec<usize> = chunks.iter().map(|&(chunk, _)| chunk).collect();
            assert_eq!(
                indices,
                (0..n.div_ceil(chunk_size)).collect::<Vec<_>>(),
                "threads = {threads}"
            );
            let objects: usize = chunks.iter().map(|&(_, objects)| objects).sum();
            assert_eq!(objects, n, "threads = {threads}");
        }
    }

    /// A recording trace sink that trips `token` on the first assignment chunk.
    struct CancelOnChunk<'a> {
        token: &'a crate::CancelToken,
        events: std::sync::Mutex<Vec<TraceEvent>>,
    }

    impl touch_metrics::TraceSink for CancelOnChunk<'_> {
        fn is_enabled(&self) -> bool {
            true
        }

        fn record(&self, event: TraceEvent) {
            if matches!(event, TraceEvent::AssignChunk { .. }) {
                self.token.cancel();
            }
            self.events.lock().unwrap().push(event);
        }
    }

    #[test]
    fn one_worker_cancels_between_assignment_chunks() {
        let chunk_size = 50;
        let case = unified_case(1, chunk_size);
        let token = crate::CancelToken::new();
        let trace = CancelOnChunk { token: &token, events: Default::default() };
        let mut sink = CollectingSink::new();
        let (store, counters, cause) =
            run_unified(&case, &mut sink, ExecControl { cancel: &token, trace: &trace });
        assert_eq!(cause, Some(CancelCause::Cancelled));

        // The store holds exactly the first chunk's placements.
        let (tree, b, _) = &case;
        let (mut expected, mut first_chunk) = (AssignmentBuffer::new(), Counters::new());
        expected.assign(tree, &b.objects()[..chunk_size], &mut first_chunk);
        assert_eq!(store.assigned_count(), expected.assigned_count());
        for idx in tree.node_indices() {
            assert_eq!(store.node_objects(idx), expected.node_objects(idx), "node {idx}");
        }
        assert_eq!(counters, first_chunk);

        // No join ran.
        assert!(sink.pairs().is_empty());
        let events = trace.events.into_inner().unwrap();
        let chunks = events.iter().filter(|e| matches!(e, TraceEvent::AssignChunk { .. })).count();
        assert_eq!(chunks, 1);
        assert!(events.iter().all(|e| !matches!(
            e,
            TraceEvent::NodeJoin { .. } | TraceEvent::Phase { phase: Phase::Join, .. }
        )));
    }

    /// A first-k sink that takes no pair: one worker joins the nodes up to the
    /// first one with a hit and stops after it. The counters are pinned to
    /// their values from before the one-worker join ran on the shared loop.
    #[test]
    fn one_worker_first_zero_join_keeps_its_counters() {
        let a = lattice(4, 2.0, 1.0, 0.0);
        // Probe boxes in the x-gaps between A's boxes, joined without a pair,
        // and one box across the whole tree, which hits in the root.
        let mut b = Dataset::new();
        for x in 0..3 {
            for y in 0..4 {
                for z in 0..4 {
                    let at = |i: i32, base: f64| base + 2.0 * f64::from(i);
                    let min = Point3::new(at(x, 1.2), at(y, 0.2), at(z, 0.2));
                    b.push_mbr(Aabb::new(min, min + Point3::splat(0.6)));
                }
            }
        }
        b.push_mbr(Aabb::new(Point3::splat(0.5), Point3::splat(6.5)));
        let plan = JoinPlan::from_touch_config(&TouchConfig::default(), &a, &b);
        let case = (TouchTree::build(a.objects(), 8, 2), b, plan.with_execution(4, 8));
        let trace = touch_metrics::ExecTrace::new();
        let mut sink = FirstKSink::new(0);
        let (_, counters, cause) = run_unified(&case, &mut sink, ExecControl::with_trace(&trace));
        assert!(cause.is_none());
        assert_eq!(sink.count(), 0);
        let nodes =
            (trace.events().iter()).filter(|e| matches!(e, TraceEvent::NodeJoin { .. })).count();
        assert_eq!(nodes, 9, "the nodes without a hit, then the first one with one");
        let expected = Counters {
            comparisons: 257,
            node_tests: 226,
            results: 0,
            filtered: 16,
            duplicates_suppressed: 0,
            replicas: 26,
            batch_lanes: 257,
            batch_hits: 1,
        };
        assert_eq!(counters, expected);
    }
}
