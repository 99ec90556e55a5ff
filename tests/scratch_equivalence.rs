//! Scratch/CSR equivalence: the cache-conscious join core — the CSR grid
//! directory, the SoA MBR caches and the reused [`LocalJoinScratch`] — must be
//! **observationally identical** to the seed implementation (per-node
//! `HashMap<cell, Vec<pos>>` directories, fresh plane-sweep clones): same pairs,
//! same *emission order*, same counters. The suite pins that equivalence three
//! ways:
//!
//! 1. against a test-local re-implementation of the seed's local joins,
//! 2. across all three engines at 1/2/4/8 worker threads,
//! 3. across streaming epoch splits (property-tested), with the engine's shared
//!    [`ScratchPool`] serving every epoch and stream.
//!
//! The seed semantics scan every A-object of a node's subtree, so they also pin
//! the probe's leaf-run pruning — including on the NaN, inverted and infinite
//! A-boxes that unvalidated entry points let into a tree.

use proptest::prelude::*;
use std::collections::HashMap;
use touch::core::{kernels, LocalJoinKind};
use touch::geom::{Aabb, Point3, SpatialObject};
use touch::index::UniformGrid;
use touch::{
    collect_join, CollectingSink, Counters, Dataset, ExecTrace, JoinOrder, JoinQuery,
    LocalJoinParams, LocalJoinScratch, ParallelConfig, ParallelTouchJoin, SpatialJoinAlgorithm,
    StreamingConfig, StreamingTouchJoin, SyntheticDistribution, SyntheticSpec, TouchConfig,
    TouchJoin, TouchTree, TraceEvent,
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

/// The seed implementation of one node's local join, re-implemented verbatim:
/// a fresh `HashMap<cell, Vec<pos>>` directory per grid node, fresh `to_vec()`
/// clones per plane-sweep node, identical counting conventions.
fn seed_local_join(
    tree: &TouchTree,
    index: usize,
    params: &LocalJoinParams,
    counters: &mut Counters,
    pairs: &mut Vec<(u32, u32)>,
) {
    let node = tree.node(index);
    let a_objs = tree.subtree_a_objects(node);
    let b_objs = node.assigned_b();
    let mut emit = |a: u32, b: u32| {
        pairs.push((a, b));
        true
    };
    match params.kind {
        LocalJoinKind::AllPairs => kernels::all_pairs(a_objs, b_objs, counters, &mut emit),
        LocalJoinKind::PlaneSweep => {
            let mut sa = a_objs.to_vec();
            let mut sb = b_objs.to_vec();
            kernels::plane_sweep(&mut sa, &mut sb, counters, &mut emit);
        }
        LocalJoinKind::Grid => {
            if a_objs.len() <= params.allpairs_max_a {
                kernels::all_pairs(a_objs, b_objs, counters, &mut emit);
                return;
            }
            let grid = UniformGrid::with_min_cell_size(
                node.mbr,
                params.cells_per_dim.max(1),
                params.min_cell_size,
            );
            let mut cells: HashMap<usize, Vec<u32>> = HashMap::new();
            for (pos, b) in b_objs.iter().enumerate() {
                let mut first = true;
                grid.for_each_overlapped_cell(&b.mbr, |cell| {
                    cells.entry(cell).or_default().push(pos as u32);
                    if first {
                        first = false;
                    } else {
                        counters.record_replica();
                    }
                });
            }
            for a in a_objs {
                grid.for_each_overlapped_cell(&a.mbr, |cell| {
                    let Some(candidates) = cells.get(&cell) else { return };
                    for &bpos in candidates {
                        let b = &b_objs[bpos as usize];
                        counters.record_comparison();
                        // The production path feeds candidate runs through the
                        // batched MBR filter in LANES-wide groups; the batch
                        // mask is exact, so accounting the batch counters per
                        // candidate here yields the identical totals.
                        counters.record_batch(1, u64::from(a.mbr.intersects(&b.mbr)));
                        if a.mbr.intersects(&b.mbr) {
                            let rp = a.mbr.intersection_reference_point(&b.mbr);
                            let rp_cell = grid.linear_index(grid.cell_of_point(&rp));
                            if rp_cell == cell {
                                emit(a.id, b.id);
                            } else {
                                counters.record_duplicate_suppressed();
                            }
                        }
                    }
                });
            }
        }
    }
}

/// Joins every assigned node with the seed-semantics local join, in the same node
/// order the scratch path uses.
fn seed_join(tree: &TouchTree, params: &LocalJoinParams) -> (Vec<(u32, u32)>, Counters) {
    let mut counters = Counters::new();
    let mut pairs = Vec::new();
    for idx in tree.nodes_with_assignments() {
        seed_local_join(tree, idx, params, &mut counters, &mut pairs);
    }
    (pairs, counters)
}

/// Joins through the production scratch path.
fn scratch_join(
    tree: &TouchTree,
    params: &LocalJoinParams,
    scratch: &mut LocalJoinScratch,
) -> (Vec<(u32, u32)>, Counters) {
    let mut counters = Counters::new();
    let mut pairs = Vec::new();
    tree.join_assigned(params, scratch, &mut counters, &mut |a, b| {
        pairs.push((a, b));
        true
    });
    (pairs, counters)
}

#[test]
fn csr_path_reproduces_the_seed_semantics_exactly() {
    let a = tree_side(900, 11);
    let b = probe(1100, 12);
    let mut tree = TouchTree::build(a.objects(), 24, 2);
    let mut assign_counters = Counters::new();
    tree.assign(b.objects(), &mut assign_counters);

    // A shared scratch across every strategy and parameterisation: reuse must be
    // invisible in pairs, order and counters alike.
    let mut scratch = LocalJoinScratch::new();
    for kind in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep, LocalJoinKind::AllPairs] {
        for (cells, min_cell, cutoff) in [(500, 5.0, 8), (20, 0.5, 8), (64, 2.0, 64)] {
            let params = LocalJoinParams {
                kind,
                cells_per_dim: cells,
                min_cell_size: min_cell,
                allpairs_max_a: cutoff,
                adapt: None,
            };
            let (seed_pairs, seed_counters) = seed_join(&tree, &params);
            let (pairs, counters) = scratch_join(&tree, &params, &mut scratch);
            assert!(!seed_pairs.is_empty(), "workload produced no pairs for {kind:?}");
            assert_eq!(
                pairs, seed_pairs,
                "{kind:?}/{cells}/{min_cell}/{cutoff}: pairs or emission order diverged from seed"
            );
            assert_eq!(
                counters, seed_counters,
                "{kind:?}/{cells}/{min_cell}/{cutoff}: counters diverged from seed"
            );
            assert!(scratch.directory_is_clean(), "scratch left dirty after {kind:?}");
        }
    }
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
        assert_eq!(tree.node(root).assigned_b().len(), b.len(), "the root must hold B");
        let top_leaf = tree
            .node_indices()
            .map(|i| tree.node(i))
            .find(|n| n.is_leaf() && tree.subtree_a_objects(n).iter().any(|o| o.id == 17))
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
            let (seed_pairs, seed_counters) = seed_join(&tree, &params);
            let (pairs, counters) = scratch_join(&tree, &params, &mut scratch);
            assert!(!seed_pairs.is_empty(), "{label}: no pairs");
            assert_eq!(pairs, seed_pairs, "{label}: pairs or emission order diverged");
            assert_eq!(counters, seed_counters, "{label}: counters diverged");

            // The trace shows whether the root's probe pruned: never with a
            // NaN in the tree, and the top leaf without one.
            let trace = ExecTrace::new();
            tree.local_join_node(
                root,
                tree.node(root).assigned_b(),
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

        let mut engines: Vec<Box<dyn SpatialJoinAlgorithm>> = Vec::new();
        for threads in [1, 2, 4, 8] {
            engines.push(Box::new(ParallelTouchJoin::new(ParallelConfig {
                threads,
                chunk_size: 64,
                sort_threshold: 128,
                touch: cfg(),
            })));
            engines.push(Box::new(touch::OneShotStreaming::new(StreamingConfig {
                touch: cfg(),
                threads,
                chunk_size: 64,
                sort_threshold: 128,
            })));
        }
        for engine in engines {
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
