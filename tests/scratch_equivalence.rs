//! Scratch/CSR equivalence: the cache-conscious join core — the CSR grid
//! directory, the SoA MBR caches and the reused [`LocalJoinScratch`] — must be
//! **observationally identical** to the seed implementation (per-node
//! `HashMap<cell, Vec<pos>>` directories, fresh plane-sweep clones): same pairs,
//! same *emission order*, same counters. The suite pins that equivalence three
//! ways:
//!
//! 1. against a test-local re-implementation of the seed's local joins,
//! 2. across the one-shot executor at 1/2/4/8 worker threads,
//! 3. across streaming epoch splits (property-tested), with the engine's shared
//!    [`ScratchPool`] serving every epoch and stream.
//!
//! The seed semantics scan every A-object of a node's subtree, so they also pin
//! the probe's leaf-run pruning — including on the NaN, inverted and infinite
//! A-boxes that unvalidated entry points let into a tree — and compute the
//! reference point literally, which pins the probe's division-free cell test
//! on boxes whose corners lie exactly on cell boundaries. The seed reference
//! can stop after any number of pairs, counting the way the unbatched scalar
//! walk does, so early termination is pinned at every stop point too.

mod common;

use common::{busy, Forced};
use proptest::prelude::*;
use std::collections::HashMap;
use touch::core::simd::{self, Backend};
use touch::core::{kernels, LocalJoinKind};
use touch::geom::{Aabb, Point3, SpatialObject};
use touch::index::UniformGrid;
use touch::{
    collect_join, CollectingSink, Counters, Dataset, ExecTrace, JoinOrder, JoinQuery,
    LocalJoinParams, LocalJoinScratch, SpatialJoinAlgorithm, StreamingConfig, StreamingTouchJoin,
    SyntheticDistribution, SyntheticSpec, TouchConfig, TouchJoin, TouchTree, TraceEvent,
};

/// Tree-side (A) workload: larger objects on average than [`probe`]'s, so the
/// streaming engine's tree-only minimum cell size equals the one-shot joins'
/// two-sided minimum and every engine performs the identical grid work (the same
/// arrangement the streaming equivalence suite uses).
fn tree_side(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Uniform,
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 3.0 },
    }
    .generate(seed)
}

/// Probe-side (B) workload: smaller objects than [`tree_side`]'s.
fn probe(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Uniform,
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 1.5 },
    }
    .generate(seed)
}

/// A clustered tree-side workload with the same large-object guarantee.
fn clustered_tree_side(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Clustered { clusters: 6, std_dev: 14.0 },
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 3.0 },
    }
    .generate(seed)
}

/// An emitter that records pairs and stops the join the way a
/// `FirstKSink(k)` does: the `k`-th pair is taken and stops the scan, and
/// with `k = 0` the first pair is refused. `None` never stops.
fn first_k(pairs: &mut Vec<(u32, u32)>, limit: Option<usize>) -> impl FnMut(u32, u32) -> bool + '_ {
    move |a, b| {
        if limit.is_some_and(|k| pairs.len() >= k) {
            return false;
        }
        pairs.push((a, b));
        limit.map_or(true, |k| pairs.len() < k)
    }
}

/// One probe object against one candidate run, counted the way the unbatched
/// scalar walk counts it: a batch per `LANES` candidates recorded before its
/// lanes, then one comparison per candidate, in run order. `hit` handles each
/// intersecting candidate and returns `false` to stop. Returns `false` if it
/// stopped.
fn seed_run<'o>(
    a: &SpatialObject,
    run: &[&'o SpatialObject],
    counters: &mut Counters,
    mut hit: impl FnMut(&'o SpatialObject, &mut Counters) -> bool,
) -> bool {
    for batch in run.chunks(simd::LANES) {
        let hits = batch.iter().filter(|b| a.mbr.intersects(&b.mbr)).count();
        counters.record_batch(batch.len() as u64, hits as u64);
        for &b in batch {
            counters.record_comparison();
            if a.mbr.intersects(&b.mbr) && !hit(b, counters) {
                return false;
            }
        }
    }
    true
}

/// The all-pairs local join as a plain nested loop over [`seed_run`].
fn seed_all_pairs(
    a_objs: &[SpatialObject],
    b_objs: &[SpatialObject],
    counters: &mut Counters,
    emit: &mut impl FnMut(u32, u32) -> bool,
) -> bool {
    let run: Vec<&SpatialObject> = b_objs.iter().collect();
    a_objs.iter().all(|a| seed_run(a, &run, counters, |b, _| emit(a.id, b.id)))
}

/// The seed implementation of one node's local join, re-implemented verbatim:
/// a fresh per-cell `HashMap` directory per grid node, the reference
/// point mapped to its cell literally, fresh `to_vec()` clones per
/// plane-sweep node, and an in-test nested loop for all-pairs nodes. Returns
/// `false` if `emit` stopped the join.
fn seed_local_join(
    tree: &TouchTree,
    index: usize,
    params: &LocalJoinParams,
    counters: &mut Counters,
    emit: &mut impl FnMut(u32, u32) -> bool,
) -> bool {
    let node = tree.node(index);
    let a_objs = tree.subtree_a_objects(index);
    let b_objs = tree.assigned_b(index);
    match params.kind {
        LocalJoinKind::AllPairs => seed_all_pairs(a_objs, b_objs, counters, emit),
        LocalJoinKind::PlaneSweep => {
            let mut sa = a_objs.to_vec();
            let mut sb = b_objs.to_vec();
            let mut go_on = true;
            kernels::plane_sweep(&mut sa, &mut sb, counters, &mut |a, b| {
                go_on = emit(a, b);
                go_on
            });
            go_on
        }
        LocalJoinKind::Grid => {
            if a_objs.len() <= params.allpairs_max_a {
                return seed_all_pairs(a_objs, b_objs, counters, emit);
            }
            let grid = UniformGrid::with_min_cell_size(
                node.mbr,
                params.cells_per_dim.max(1),
                params.min_cell_size,
            );
            let mut cells: HashMap<usize, Vec<&SpatialObject>> = HashMap::new();
            for b in b_objs {
                let mut first = true;
                grid.for_each_overlapped_cell(&b.mbr, |cell| {
                    cells.entry(cell).or_default().push(b);
                    if first {
                        first = false;
                    } else {
                        counters.record_replica();
                    }
                });
            }
            for a in a_objs {
                // The cells of `for_each_overlapped_cell`, as loops that can stop.
                let (lo, hi) = grid.cell_range(&a.mbr);
                for z in lo[2]..=hi[2] {
                    for y in lo[1]..=hi[1] {
                        for x in lo[0]..=hi[0] {
                            let cell = grid.linear_index([x, y, z]);
                            let Some(candidates) = cells.get(&cell) else { continue };
                            let go_on = seed_run(a, candidates, counters, |b, counters| {
                                let rp = a.mbr.intersection_reference_point(&b.mbr);
                                if grid.linear_index(grid.cell_of_point(&rp)) == cell {
                                    emit(a.id, b.id)
                                } else {
                                    counters.record_duplicate_suppressed();
                                    true
                                }
                            });
                            if !go_on {
                                return false;
                            }
                        }
                    }
                }
            }
            true
        }
    }
}

/// Joins every assigned node with the seed-semantics local join, in the same node
/// order the scratch path uses, stopping after `limit` pairs.
fn seed_join(
    tree: &TouchTree,
    params: &LocalJoinParams,
    limit: Option<usize>,
) -> (Vec<(u32, u32)>, Counters) {
    let mut counters = Counters::new();
    let mut pairs = Vec::new();
    let mut emit = first_k(&mut pairs, limit);
    for idx in tree.nodes_with_assignments() {
        if !seed_local_join(tree, idx, params, &mut counters, &mut emit) {
            break;
        }
    }
    drop(emit);
    (pairs, counters)
}

/// Joins through the production scratch path, stopping after `limit` pairs.
fn scratch_join(
    tree: &TouchTree,
    params: &LocalJoinParams,
    scratch: &mut LocalJoinScratch,
    limit: Option<usize>,
) -> (Vec<(u32, u32)>, Counters) {
    let mut counters = Counters::new();
    let mut pairs = Vec::new();
    tree.join_assigned(params, scratch, &mut counters, &mut first_k(&mut pairs, limit));
    (pairs, counters)
}

#[test]
fn csr_path_reproduces_the_seed_semantics_exactly() {
    let a = tree_side(900, 11);
    let b = probe(1100, 12);
    let mut uniform = TouchTree::build(a.objects(), 24, 2);
    uniform.assign(b.objects(), &mut Counters::new());
    let lattice = lattice_tree();

    // Each tree with its (cells_per_dim, min_cell_size, all-pairs cutoff)
    // table. On the lattice, a minimum cell size of 1 gives every node grid
    // cells of side 1 or 2 whose boundaries are integers, so box corners lie
    // exactly on them.
    let cases = [
        ("uniform", &uniform, [(500, 5.0, 8), (20, 0.5, 8), (64, 2.0, 64)]),
        ("lattice", &lattice, [(500, 1.0, 0), (2, 1.0, 0), (500, 1.0, 8)]),
    ];
    // A shared scratch across every strategy and parameterisation: reuse must be
    // invisible in pairs, order and counters alike.
    let mut scratch = LocalJoinScratch::new();
    for (name, tree, table) in cases {
        for kind in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep, LocalJoinKind::AllPairs] {
            for (cells, min_cell, cutoff) in table {
                let params = LocalJoinParams {
                    kind,
                    cells_per_dim: cells,
                    min_cell_size: min_cell,
                    allpairs_max_a: cutoff,
                    adapt: None,
                };
                let label = format!("{name} {kind:?}/{cells}/{min_cell}/{cutoff}");
                let (seed_pairs, seed_counters) = seed_join(tree, &params, None);
                let (pairs, counters) = scratch_join(tree, &params, &mut scratch, None);
                assert!(!seed_pairs.is_empty(), "{label}: workload produced no pairs");
                assert_eq!(
                    pairs, seed_pairs,
                    "{label}: pairs or emission order diverged from seed"
                );
                assert_eq!(counters, seed_counters, "{label}: counters diverged from seed");
                assert!(scratch.directory_is_clean(), "{label}: scratch left dirty");
            }
        }
    }
}

/// A tree over an integer lattice, with the B side assigned. A holds unit
/// cubes sharing faces, edges and corners, a zero-extent point, a flat
/// square, an edge segment and boxes with −0.0 coordinates; B holds boxes of
/// side 0, 1 and 2 at integer corners that coincide with or touch A on
/// faces, edges and corners, with −0.0 coordinates too.
fn lattice_tree() -> TouchTree {
    let mut a = Vec::new();
    for z in 0..4 {
        for y in 0..4 {
            for x in 0..4 {
                let min = [f64::from(x), f64::from(y), f64::from(z)];
                a.push(raw(a.len() as u32, min, min.map(|v| v + 1.0)));
            }
        }
    }
    let extra_a = [
        ([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]), // a point on eight cubes' shared corner
        ([1.0, 1.0, 3.0], [3.0, 3.0, 3.0]), // a flat square on a cell face
        ([0.0, 2.0, 1.0], [4.0, 2.0, 1.0]), // a segment along a cell edge
        ([-0.0, 0.0, 0.0], [1.0, 1.0, -0.0]), // a flat square at z = −0.0
        ([-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]),
    ];
    for (min, max) in extra_a {
        a.push(raw(a.len() as u32, min, max));
    }

    let mut b = Vec::new();
    for (side, step) in [(0.0, 1), (1.0, 2), (2.0, 3)] {
        for z in (0..5).step_by(step) {
            for y in (0..5).step_by(step) {
                for x in (0..5).step_by(step) {
                    let min = [f64::from(x), f64::from(y), f64::from(z)];
                    b.push(raw(b.len() as u32, min, min.map(|v| v + side)));
                }
            }
        }
    }
    let extra_b = [
        ([-0.0, 0.0, 0.0], [-0.0, 4.0, 4.0]), // the x = −0.0 face of the lattice
        ([1.0, -0.0, 1.0], [3.0, 0.0, 3.0]),  // a flat square on y = ±0.0
        ([4.0, 4.0, 4.0], [5.0, 5.0, 5.0]),   // the far corner, touching one cube
        ([2.0, 0.0, 0.0], [2.0, 4.0, 0.0]),   // a segment along a cell edge
    ];
    for (min, max) in extra_b {
        b.push(raw(b.len() as u32, min, max));
    }

    let mut tree = TouchTree::build(&a, 8, 2);
    tree.assign(&b, &mut Counters::new());
    tree
}

/// An object with arbitrary corners: unlike `Aabb::new`, no finiteness or
/// ordering check.
fn raw(id: u32, min: [f64; 3], max: [f64; 3]) -> SpatialObject {
    let point = |c: [f64; 3]| Point3::new(c[0], c[1], c[2]);
    SpatialObject { id, mbr: Aabb { min: point(min), max: point(max) } }
}

/// A row of small boxes along x, an inverted box, a box reaching z = +∞ and
/// the object 17 whose min.x is `nan_min_x`. Listed last, object 17 stays
/// last through the STR sort even with a NaN sort key, so it lands in the
/// highest-x leaf, whose MBR drops a NaN and so starts far above x = 58.
fn invalid_geometry_side(nan_min_x: f64) -> Vec<SpatialObject> {
    let mut a: Vec<_> = (0..15)
        .map(|i| raw(i, [6.0 * i as f64, 0.0, 0.0], [6.0 * i as f64 + 2.0, 1.0, 1.0]))
        .collect();
    a.push(raw(15, [62.0, 0.9, 0.9], [58.0, 0.1, 0.1]));
    a.push(raw(16, [20.0, 0.0, 0.0], [22.0, 1.0, f64::INFINITY]));
    a.push(raw(17, [nan_min_x, 0.0, 0.0], [95.0, 1.0, 1.0]));
    a
}

#[test]
fn invalid_a_geometry_joins_like_the_full_seed_scan() {
    // Both B-objects straddle the root's two halves, so the root holds them,
    // and both sit far below the highest leaf in x; the first covers the
    // root grid's x cell 0, the one a NaN coordinate maps to.
    let b = [raw(0, [0.0, 0.2, 0.2], [58.0, 0.8, 0.8]), raw(1, [44.0, 0.0, 0.0], [56.0, 1.0, 1.0])];
    for nan_min_x in [f64::NAN, 80.0] {
        let mut tree = TouchTree::build(&invalid_geometry_side(nan_min_x), 4, 2);
        tree.assign(&b, &mut Counters::new());
        let root = tree.root_index().expect("non-empty tree");
        assert_eq!(tree.assigned_b(root).len(), b.len(), "the root must hold B");
        let top_leaf = tree
            .node_indices()
            .find(|&i| {
                tree.node(i).is_leaf() && tree.subtree_a_objects(i).iter().any(|o| o.id == 17)
            })
            .map(|i| tree.node(i))
            .expect("object 17 is in a leaf");
        assert!(top_leaf.mbr.min.x > 58.0, "object 17's leaf must lie above B: {top_leaf:?}");

        let mut scratch = LocalJoinScratch::new();
        for (cells, min_cell) in [(20, 1.0), (64, 0.5), (500, 5.0)] {
            let params = LocalJoinParams {
                kind: LocalJoinKind::Grid,
                cells_per_dim: cells,
                min_cell_size: min_cell,
                allpairs_max_a: 0,
                adapt: None,
            };
            let label = format!("min.x={nan_min_x} cells={cells} min_cell={min_cell}");
            let (seed_pairs, seed_counters) = seed_join(&tree, &params, None);
            let (pairs, counters) = scratch_join(&tree, &params, &mut scratch, None);
            assert!(!seed_pairs.is_empty(), "{label}: no pairs");
            assert_eq!(pairs, seed_pairs, "{label}: pairs or emission order diverged");
            assert_eq!(counters, seed_counters, "{label}: counters diverged");

            // The trace shows whether the root's probe pruned: never with a
            // NaN in the tree, and the top leaf without one.
            let trace = ExecTrace::new();
            tree.local_join_node(
                root,
                tree.assigned_b(root),
                &params,
                &mut scratch,
                &mut Counters::new(),
                &mut |_, _| true,
                &trace,
                0,
            );
            let Some(TraceEvent::NodeJoin { a_count, a_probed, .. }) = trace.events().pop() else {
                panic!("{label}: no node-join span");
            };
            assert_eq!(a_count, 18);
            if nan_min_x.is_nan() {
                assert_eq!(a_probed, a_count, "{label}: a tree with NaN must not prune");
            } else {
                assert!(a_probed < a_count, "{label}: the top leaf should be pruned");
            }
        }
    }
}

/// A small tree whose nodes hold candidate runs longer than the run-level
/// filter's width: 70 near-identical B-boxes sit on a spot three A-boxes
/// cover, so one grid cell, one all-pairs window and one sweep window each
/// hold them all.
fn long_run_tree() -> TouchTree {
    let space = touch::datagen::SpaceConfig { size: 30.0, max_object_side: 3.0 };
    let uniform = |count, seed| {
        SyntheticSpec { count, distribution: SyntheticDistribution::Uniform, space }.generate(seed)
    };
    let mut a = uniform(160, 31).objects().to_vec();
    for i in 0..3 {
        let at = 13.5 + f64::from(i) * 0.5;
        a.push(raw(a.len() as u32, [at; 3], [at + 3.0; 3]));
    }
    let mut b = uniform(200, 32).objects().to_vec();
    for i in 0..70 {
        let at = 15.0 + f64::from(i % 7) * 0.01;
        b.push(raw(b.len() as u32, [at; 3], [at + 0.5; 3]));
    }
    let mut tree = TouchTree::build(&a, 8, 2);
    tree.assign(&b, &mut Counters::new());
    tree
}

#[test]
fn early_termination_counts_exactly_at_every_stop_point_on_every_backend() {
    let tree = long_run_tree();
    assert!(
        tree.node_indices().any(|i| tree.assigned_b(i).len() > simd::RUN_MAX),
        "some node must hold a run longer than the filter's width"
    );
    // Scalar first: its plane-sweep results are what the other backends match.
    let backends: Vec<Backend> = [Backend::Scalar, Backend::Avx2, Backend::Sse2, Backend::Neon]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    let mut scratch = LocalJoinScratch::new();
    for kind in [LocalJoinKind::Grid, LocalJoinKind::AllPairs, LocalJoinKind::PlaneSweep] {
        let params = LocalJoinParams {
            kind,
            cells_per_dim: 4,
            min_cell_size: 0.5,
            allpairs_max_a: 2,
            adapt: None,
        };
        let (all, _) = seed_join(&tree, &params, None);
        assert!(all.len() > 2 * simd::RUN_MAX, "{kind:?}: too few pairs to stop late in a run");
        let mut sweep_reference = Vec::new();
        for &backend in &backends {
            let _forced = Forced::new(backend);
            for k in 0..=all.len() {
                let got = scratch_join(&tree, &params, &mut scratch, Some(k));
                let label = format!("{kind:?} on {} stopped after {k} pairs", backend.name());
                let expected = match kind {
                    LocalJoinKind::PlaneSweep if backend == Backend::Scalar => {
                        sweep_reference.push(got.clone());
                        continue;
                    }
                    LocalJoinKind::PlaneSweep => sweep_reference[k].clone(),
                    _ => seed_join(&tree, &params, Some(k)),
                };
                assert_eq!(got.0, expected.0, "{label}: pairs diverged");
                assert_eq!(got.1, expected.1, "{label}: counters diverged");
                assert!(scratch.directory_is_clean(), "{label}: scratch left dirty");
            }
        }
    }
}

/// The pinned configuration the cross-engine comparisons run with (tree on A so
/// the streaming engine's build-side decisions line up, as in the other suites).
fn cfg() -> TouchConfig {
    TouchConfig { partitions: 24, join_order: JoinOrder::TreeOnA, ..TouchConfig::default() }
}

#[test]
fn all_engines_and_thread_counts_agree_on_pairs_and_counters() {
    let a = clustered_tree_side(700, 3);
    let b = probe(900, 4);
    for eps in [0.0, 1.5] {
        let reference_algo = TouchJoin::new(cfg());
        let mut reference = CollectingSink::new();
        let reference_report =
            JoinQuery::new(&a, &b).within_distance(eps).engine(&reference_algo).run(&mut reference);

        for threads in [1, 2, 4, 8] {
            let query = JoinQuery::new(&a, &b).within_distance(eps).engine(&reference_algo);
            let engine = busy(query, threads);
            let mut sink = CollectingSink::new();
            let report = JoinQuery::new(&a, &b).within_distance(eps).engine(&engine).run(&mut sink);
            assert_eq!(
                sink.sorted_pairs(),
                reference.sorted_pairs(),
                "{} eps={eps}: pairs diverged",
                engine.name()
            );
            assert_eq!(
                report.counters,
                reference_report.counters,
                "{} eps={eps}: counters diverged",
                engine.name()
            );
        }
    }
}

#[test]
fn streaming_scratch_pool_survives_epochs_and_streams() {
    let a = tree_side(800, 21);
    let b = probe(1000, 22);
    let (one_shot_pairs, one_shot) = collect_join(&TouchJoin::new(cfg()), &a, &b);

    for threads in [1, 2, 4, 8] {
        let streaming_cfg =
            StreamingConfig { touch: cfg(), threads, chunk_size: 64, sort_threshold: 128 };
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg);
        // Three consecutive streams over the same engine: the pooled scratches and
        // work list are reused across every epoch of every stream, and each stream
        // must be indistinguishable from the first (and from the one-shot join).
        for stream in 0..3 {
            for epochs in [4] {
                let mut sink = CollectingSink::new();
                let chunk = b.len().div_ceil(epochs).max(1);
                for batch in b.objects().chunks(chunk) {
                    let _ = engine.push_batch(batch, &mut sink);
                }
                assert_eq!(
                    sink.sorted_pairs(),
                    one_shot_pairs,
                    "threads={threads} stream={stream}: pairs diverged"
                );
                assert_eq!(
                    engine.cumulative_report().counters,
                    one_shot.counters,
                    "threads={threads} stream={stream}: counters diverged"
                );
                engine.reset();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any epoch split at any worker width reproduces the one-shot pairs and
    /// counters through the shared scratch pool.
    #[test]
    fn any_epoch_split_matches_the_one_shot_join(
        epochs in 1usize..9,
        threads in 1usize..5,
        seed in 0u64..400,
    ) {
        let a = tree_side(300, seed.wrapping_add(1));
        let b = probe(400, seed.wrapping_add(2));
        let (expected_pairs, expected) = collect_join(&TouchJoin::new(cfg()), &a, &b);

        let streaming_cfg =
            StreamingConfig { touch: cfg(), threads, chunk_size: 32, sort_threshold: 64 };
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg);
        let mut sink = CollectingSink::new();
        let chunk = b.len().div_ceil(epochs).max(1);
        for batch in b.objects().chunks(chunk) {
            let _ = engine.push_batch(batch, &mut sink);
        }
        prop_assert_eq!(sink.sorted_pairs(), expected_pairs);
        prop_assert_eq!(engine.cumulative_report().counters, expected.counters);
    }
}
