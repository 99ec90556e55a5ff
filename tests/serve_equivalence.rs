//! Equivalence of the `touch-serve` snapshot layer: a query against a published
//! generation must reproduce the one-shot `TouchJoin` over the generation's
//! **logical live contents** (survivors in arrival order, then inserts in
//! arrival order) — bit-identical pairs *and counters* for fully rebuilt
//! generations, at every reader-thread count; identical pair sets (and
//! deterministic counters) for incrementally folded ones.
//!
//! The one-shot reference is driven through the real `TouchJoin` on a dense
//! re-identification of the live objects (the `Dataset` invariant requires ids
//! `0..n`): ids are payload, never inputs, to every phase — the STR sort keys
//! on centres, the kernels on geometry — so the remap changes nothing but the
//! labels, which the test maps back before comparing.

use std::sync::mpsc::channel;
use std::sync::Arc;
use touch::{
    collect_join, Aabb, BoundedSink, CollectingSink, Counters, Dataset, ExecControl, ExecTrace,
    JoinOrder, JoinServer, LocalJoinStrategy, Point3, ReaderPool, RunReport, ServeConfig,
    SpatialObject, TouchConfig, TouchJoin, TraceEvent, TraceSink,
};

fn touch_cfg() -> TouchConfig {
    TouchConfig { partitions: 16, join_order: JoinOrder::TreeOnA, ..TouchConfig::default() }
}

fn serve_cfg(delta_limit: Option<usize>) -> ServeConfig {
    ServeConfig { touch: touch_cfg(), delta_limit, hazard_slots: 8 }
}

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

fn cube(at: Point3, side: f64) -> Aabb {
    Aabb::new(at, at + Point3::splat(side))
}

/// The one-shot reference over arbitrary (non-dense-id) live contents: join a
/// densely re-identified copy through the real `TouchJoin`, then translate the
/// pair labels back. Counters are id-independent, so they transfer verbatim.
fn reference_join(live: &[SpatialObject], b: &Dataset) -> (Vec<(u32, u32)>, RunReport) {
    let dense: Vec<SpatialObject> =
        live.iter().enumerate().map(|(i, o)| SpatialObject::new(i as u32, o.mbr)).collect();
    let back: Vec<u32> = live.iter().map(|o| o.id).collect();
    let (pairs, report) =
        collect_join(&TouchJoin::new(touch_cfg()), &Dataset::from_objects(dense), b);
    let mut mapped: Vec<(u32, u32)> =
        pairs.into_iter().map(|(a, b)| (back[a as usize], b)).collect();
    mapped.sort_unstable();
    (mapped, report)
}

/// Replays `server`'s canonical live-order semantics on the test's side.
struct Shadow {
    live: Vec<SpatialObject>,
}

impl Shadow {
    fn remove(&mut self, id: u32) {
        self.live.retain(|o| o.id != id);
    }
    fn insert(&mut self, id: u32, mbr: Aabb) {
        self.live.push(SpatialObject::new(id, mbr));
    }
}

/// The headline contract: after every publish of a **fully rebuilt**
/// generation (`delta_limit = Some(0)`), concurrent snapshot queries at 1, 2,
/// 4 and 8 reader threads are bit-identical — pairs AND counters — to the
/// one-shot reference over the logical live contents.
#[test]
fn snapshot_queries_match_the_one_shot_reference_at_every_thread_count() {
    let a = lattice(5, 1.5, 1.0, 0.0);
    let b = lattice(6, 1.3, 0.8, 0.4);
    let batch: Arc<Vec<SpatialObject>> = Arc::new(b.objects().to_vec());

    let server = Arc::new(JoinServer::new(&a, serve_cfg(Some(0))));
    let mut shadow = Shadow { live: a.objects().to_vec() };

    // Round 0 queries the seed generation; each later round mutates + publishes.
    for round in 0..4 {
        if round > 0 {
            // A mixed delta: retire a few survivors, add a few newcomers.
            for k in 0..3u32 {
                let victim = shadow.live[(round * 7 + k as usize * 11) % shadow.live.len()].id;
                assert!(server.remove(victim), "round {round}: {victim} should be live");
                shadow.remove(victim);
            }
            for k in 0..4 {
                let at = Point3::new(
                    (round as f64) * 1.1 + (k as f64) * 0.9,
                    (k as f64) * 1.3,
                    (round as f64) * 0.7,
                );
                let id = server.insert(cube(at, 1.0));
                shadow.insert(id, cube(at, 1.0));
            }
            assert_eq!(server.pending_delta(), 7);
            let version = server.publish();
            assert_eq!(version, round as u64);
            assert_eq!(server.snapshot().live(), shadow.live.len());
        }

        let (expected_pairs, expected) = reference_join(&shadow.live, &b);
        for threads in [1usize, 2, 4, 8] {
            let pool = ReaderPool::new(threads);
            let (tx, rx) = channel::<(Vec<(u32, u32)>, Counters, Option<u64>)>();
            let queries = threads * 2;
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..queries)
                .map(|_| {
                    let mut reader = server.reader();
                    let batch = Arc::clone(&batch);
                    let tx = tx.clone();
                    Box::new(move || {
                        let mut sink = CollectingSink::new();
                        let report = reader.query(&batch, &mut sink);
                        tx.send((sink.sorted_pairs(), report.counters, report.generation)).unwrap();
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_all(jobs);
            for _ in 0..queries {
                let (pairs, counters, generation) = rx.recv().unwrap();
                assert_eq!(pairs, expected_pairs, "round {round}, {threads} reader threads");
                assert_eq!(
                    counters, expected.counters,
                    "round {round}, {threads} reader threads: counters must be bit-identical"
                );
                assert_eq!(generation, Some(round as u64));
            }
        }
    }
}

/// Incremental folds (`delta_limit = Some(usize::MAX)`) reuse the previous
/// generation's tiling: the pair set must still be exact, the run must be
/// deterministic (two identically driven servers report identical counters),
/// and the mutation semantics (cancel pending inserts, reject unknown ids)
/// must hold.
#[test]
fn incremental_folds_preserve_the_result_set() {
    let a = lattice(4, 1.6, 1.1, 0.0);
    let b = lattice(5, 1.4, 0.9, 0.3);
    let drive = |server: &JoinServer| -> Vec<(Vec<(u32, u32)>, Counters)> {
        let mut out = Vec::new();
        let mut reader = server.reader();
        for round in 0..3u32 {
            let keep = server.insert(cube(Point3::new(round as f64, 0.3, 0.9), 1.2));
            let cancelled = server.insert(cube(Point3::new(9.9, 9.9, 9.9), 0.5));
            assert!(server.remove(cancelled), "a pending insert is cancellable");
            assert!(!server.remove(cancelled), "...exactly once");
            assert!(server.remove(round * 2), "seed ids stay removable");
            assert!(!server.remove(keep + 10_000), "unknown ids are rejected");
            server.publish();
            let mut sink = CollectingSink::new();
            let report = reader.query(b.objects(), &mut sink);
            out.push((sink.sorted_pairs(), report.counters));
        }
        out
    };

    let first = drive(&JoinServer::new(&a, serve_cfg(Some(usize::MAX))));
    let second = drive(&JoinServer::new(&a, serve_cfg(Some(usize::MAX))));
    assert_eq!(first, second, "folded generations must be deterministic");

    // And the pair sets match the logical reference at every round.
    let mut shadow = Shadow { live: a.objects().to_vec() };
    let mut next_id = a.len() as u32;
    for (round, (pairs, _)) in first.iter().enumerate() {
        let keep = next_id;
        next_id += 2; // one kept insert + one cancelled insert per round
        shadow.insert(keep, cube(Point3::new(round as f64, 0.3, 0.9), 1.2));
        shadow.remove(round as u32 * 2);
        let (expected_pairs, _) = reference_join(&shadow.live, &b);
        assert_eq!(pairs, &expected_pairs, "round {round}: fold changed the result set");
    }
}

/// The planner-decided default: small deltas fold (the generation keeps the
/// old tiling), big deltas rebuild. Observable through `Generation::delta` and
/// the generation's tiled order.
#[test]
fn the_delta_threshold_picks_fold_or_rebuild() {
    let a = lattice(5, 1.5, 1.0, 0.0); // 125 objects
    let server = JoinServer::new(&a, serve_cfg(None));
    let seed_order: Vec<u32> = server.snapshot().tree().a_objects().iter().map(|o| o.id).collect();

    // One insert: far below any sensible threshold — the fold appends.
    let id = server.insert(cube(Point3::new(50.0, 50.0, 50.0), 1.0));
    server.publish();
    let folded = server.snapshot();
    assert_eq!(folded.delta(), 1);
    let folded_order: Vec<u32> = folded.tree().a_objects().iter().map(|o| o.id).collect();
    assert_eq!(folded_order[..seed_order.len()], seed_order[..], "a fold keeps the old tiling");
    assert_eq!(*folded_order.last().unwrap(), id, "...and appends the insert");

    // A delta bigger than the whole dataset: must re-tile (the far-away block
    // ends up spatially sorted, not appended).
    for i in 0..200u32 {
        let _ = server.insert(cube(Point3::new(-20.0 - (i as f64 % 10.0), 0.0, 0.0), 1.0));
    }
    server.publish();
    let rebuilt = server.snapshot();
    assert_eq!(rebuilt.delta(), 200);
    assert_eq!(rebuilt.live(), a.len() + 201);
    let rebuilt_order: Vec<u32> = rebuilt.tree().a_objects().iter().map(|o| o.id).collect();
    assert_ne!(
        rebuilt_order[..seed_order.len()],
        seed_order[..],
        "a rebuild re-tiles from scratch"
    );
}

/// Mutations are invisible until published, publishes with nothing pending are
/// free, and every report carries the generation it actually ran against.
#[test]
fn mutations_are_invisible_until_publish() {
    let a = lattice(4, 2.0, 1.0, 0.0);
    let b = lattice(4, 2.0, 1.0, 0.5);
    let server = JoinServer::new(&a, serve_cfg(Some(0)));
    let mut reader = server.reader();

    let mut sink = CollectingSink::new();
    let before = reader.query(b.objects(), &mut sink);
    let baseline_pairs = sink.sorted_pairs();
    assert_eq!(before.generation, Some(0));
    assert_eq!(server.publish(), 0, "publishing an empty delta is a no-op");

    // A box overlapping everything in b's first cell, buffered but unpublished.
    let id = server.insert(cube(Point3::new(0.4, 0.4, 0.4), 1.0));
    let mut sink = CollectingSink::new();
    let during = reader.query(b.objects(), &mut sink);
    assert_eq!(sink.sorted_pairs(), baseline_pairs, "unpublished inserts must stay invisible");
    assert_eq!(during.generation, Some(0));

    assert_eq!(server.publish(), 1);
    let mut sink = CollectingSink::new();
    let after = reader.query(b.objects(), &mut sink);
    assert_eq!(after.generation, Some(1));
    assert!(sink.sorted_pairs().len() > baseline_pairs.len());
    assert!(sink.sorted_pairs().iter().any(|&(a_id, _)| a_id == id));

    // Remove it again: back to the baseline, two generations later.
    assert!(server.remove(id));
    assert_eq!(server.publish(), 2);
    let mut sink = CollectingSink::new();
    let restored = reader.query(b.objects(), &mut sink);
    assert_eq!(sink.sorted_pairs(), baseline_pairs);
    assert_eq!(restored.generation, Some(2));
    assert_eq!(restored.counters, before.counters, "a full rebuild restores the exact run");
}

/// Tracing is observational (bit-identical pairs and counters), and publishes
/// record `Generation` spans with the folded delta.
#[test]
fn traced_serving_changes_nothing_and_records_generations() {
    let a = lattice(4, 1.6, 1.0, 0.0);
    let b = lattice(5, 1.3, 0.8, 0.3);
    let trace = ExecTrace::new();
    let server = JoinServer::new(&a, serve_cfg(Some(0)));
    let mut reader = server.reader();

    let _ = server.insert(cube(Point3::new(1.0, 1.0, 1.0), 1.0));
    assert!(server.remove(0));
    let ctl = ExecControl::with_trace(&trace);
    server.try_publish(ctl).unwrap();

    let mut traced_sink = CollectingSink::new();
    let traced = reader.try_query(b.objects(), &mut traced_sink, ctl).unwrap();
    let mut plain_sink = CollectingSink::new();
    let plain = reader.query(b.objects(), &mut plain_sink);
    assert_eq!(traced_sink.sorted_pairs(), plain_sink.sorted_pairs());
    assert_eq!(traced.counters, plain.counters);

    let generations: Vec<_> = trace
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Generation { generation, live, delta, .. } => {
                Some((generation, live, delta))
            }
            _ => None,
        })
        .collect();
    assert_eq!(generations, vec![(1, a.len(), 2)]);
    assert_eq!(trace.summary().expect("recording sink").generations, 1);
}

/// Bounded sinks on the serving path: flushing loses nothing under a fixed
/// memory bound; truncating stops the engine early through the standard
/// protocol.
#[test]
fn bounded_sinks_bound_memory_on_the_query_path() {
    let a = lattice(5, 1.5, 1.0, 0.0);
    let b = lattice(5, 1.5, 1.0, 0.2);
    let server = JoinServer::new(&a, serve_cfg(Some(0)));
    let mut reader = server.reader();

    let mut collected = CollectingSink::new();
    let full = reader.query(b.objects(), &mut collected);

    let mut spilled: Vec<(u32, u32)> = Vec::new();
    let spilled_report = {
        let mut bounded = BoundedSink::flushing(16, |chunk| spilled.extend_from_slice(chunk));
        let report = reader.query(b.objects(), &mut bounded);
        assert_eq!(bounded.total(), full.result_pairs());
        assert!(bounded.buffered().is_empty(), "query finish flushes the tail");
        report
    };
    spilled.sort_unstable();
    assert_eq!(spilled, collected.sorted_pairs(), "a flushing bound loses nothing");
    assert_eq!(spilled_report.counters, full.counters);

    let mut truncated = BoundedSink::truncating(8);
    let report = reader.query(b.objects(), &mut truncated);
    assert_eq!(truncated.total(), 8);
    assert_eq!(report.result_pairs(), 8);
    assert!(
        report.counters.comparisons < full.counters.comparisons,
        "truncation must stop the join early, not just drop pairs"
    );
}

/// A query's memory report counts the reader's B-lists, as the resident
/// engines count theirs inside the tree. All-pairs local joins leave only the
/// work list in the reader's scratch, so the assigned objects' bytes can come
/// from nowhere but the buffer.
#[test]
fn query_memory_counts_the_readers_assignment() {
    use touch::metrics::MemoryUsage;
    let a = lattice(5, 1.5, 1.0, 0.0);
    let b = lattice(5, 1.5, 1.0, 0.2);
    let touch = TouchConfig { local_join: LocalJoinStrategy::AllPairs, ..touch_cfg() };
    let server = JoinServer::new(&a, ServeConfig { touch, ..serve_cfg(None) });
    let mut reader = server.reader();
    let report = reader.query(b.objects(), &mut CollectingSink::new());
    let assigned = b.len() - report.counters.filtered as usize;
    assert!(assigned > 0, "the batch must land in the tree");
    let floor =
        server.snapshot().tree().memory_bytes() + assigned * std::mem::size_of::<SpatialObject>();
    assert!(report.memory_bytes >= floor, "{} < {floor}", report.memory_bytes);
}
