//! Cross-sink equivalence: every engine and baseline must deliver the **same pair
//! multiset** into every [`PairSink`] implementation — counting, collecting and
//! the zero-materialisation callback — and must honour the early-termination
//! protocol of [`FirstKSink`] inside its local-join loops (satisfying the
//! query-layer contract that a done sink stops the scan).

use proptest::prelude::*;
use touch::{
    Baseline, CallbackSink, CollectingSink, CountingSink, Dataset, Engine, ExecControl, FirstKSink,
    JoinQuery, NestedLoopJoin, PbsmJoin, RunReport, Shape, SpatialJoinAlgorithm,
    SyntheticDistribution, SyntheticSpec, TouchConfig, TouchJoin,
};

/// Every one-shot engine of the workspace: TOUCH on one worker (through the
/// facade's `Engine` selector) and at two wider widths, and every baseline.
/// PBSM runs at resolutions scaled to the ~100-unit test space (the paper's
/// 500/100 cells per dimension would allocate a 1.25e8-cell grid for a toy
/// workload), like the other integration suites do.
fn all_engines() -> Vec<Box<dyn SpatialJoinAlgorithm>> {
    vec![
        Engine::Touch(TouchConfig::default()).build(),
        Box::new(TouchJoin::default().with_threads(2)),
        Box::new(TouchJoin::default().with_threads(4)),
        Engine::Baseline(Baseline::NestedLoop).build(),
        Engine::Baseline(Baseline::PlaneSweep).build(),
        Box::new(PbsmJoin::with_label(50, "PBSM-fine")),
        Box::new(PbsmJoin::with_label(12, "PBSM-coarse")),
        Engine::Baseline(Baseline::S3).build(),
        Engine::Baseline(Baseline::IndexedNestedLoop).build(),
        Engine::Baseline(Baseline::RTree).build(),
        Engine::Baseline(Baseline::Octree).build(),
        Engine::Baseline(Baseline::SeededTree).build(),
    ]
}

fn synthetic(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Uniform,
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 2.0 },
    }
    .generate(seed)
}

/// A dense row of identical boxes: every (a, b) pair intersects, so a nested loop
/// would perform exactly |A|·|B| comparisons if never stopped.
fn all_intersecting(n: usize) -> Dataset {
    Dataset::from_mbrs(
        (0..n).map(|_| touch::Aabb::new(touch::Point3::ORIGIN, touch::Point3::splat(1.0))),
    )
}

#[test]
fn all_sinks_see_the_same_pairs_from_every_engine() {
    let a = synthetic(500, 1);
    let b = synthetic(800, 2);
    for eps in [0.0, 2.0] {
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for engine in all_engines() {
            let engine = engine.as_ref();
            let name = engine.name();

            let mut collecting = CollectingSink::new();
            let collect_report =
                JoinQuery::new(&a, &b).within_distance(eps).engine(engine).run(&mut collecting);
            let collected = collecting.sorted_pairs();

            let mut streamed = Vec::new();
            let mut callback = CallbackSink::new(|x, y| streamed.push((x, y)));
            let callback_report =
                JoinQuery::new(&a, &b).within_distance(eps).engine(engine).run(&mut callback);
            let forwarded = callback.count();
            streamed.sort_unstable();

            let mut counting = CountingSink::new();
            let count_report =
                JoinQuery::new(&a, &b).within_distance(eps).engine(engine).run(&mut counting);

            assert_eq!(streamed, collected, "{name}: callback and collecting sinks diverged");
            assert_eq!(forwarded, collected.len() as u64, "{name}: callback count diverged");
            assert_eq!(counting.count(), collected.len() as u64, "{name}: counting diverged");
            for report in [&collect_report, &callback_report, &count_report] {
                assert_eq!(report.result_pairs(), collected.len() as u64, "{name}: report");
                assert_eq!(report.epsilon, eps, "{name}: epsilon must be on every report");
            }
            match &reference {
                None => reference = Some(collected),
                Some(expected) => {
                    assert_eq!(&collected, expected, "{name}: engines disagree (eps = {eps})")
                }
            }
        }
    }
}

#[test]
fn first_k_stops_the_nested_loop_before_the_full_scan() {
    // 200 × 300 identical boxes: every comparison is a hit. Without early
    // termination the nested loop performs exactly 60 000 comparisons.
    let a = all_intersecting(200);
    let b = all_intersecting(300);
    const K: usize = 5;
    let mut sink = FirstKSink::new(K);
    let report =
        JoinQuery::new(&a, &b).engine(Engine::Baseline(Baseline::NestedLoop)).run(&mut sink);
    assert_eq!(sink.count(), K as u64);
    assert_eq!(report.result_pairs(), K as u64);
    assert!(
        report.counters.comparisons < (a.len() * b.len()) as u64,
        "FirstKSink must stop the scan early: {} comparisons for k = {K}",
        report.counters.comparisons
    );
    // The sequential scan stops right at the k-th hit.
    assert_eq!(report.counters.comparisons, K as u64);
}

#[test]
fn first_k_yields_exactly_k_valid_pairs_from_every_engine() {
    let a = synthetic(400, 3);
    let b = synthetic(600, 4);
    // Ground truth for validity checks and the full result size.
    let mut full = CollectingSink::new();
    let _ = JoinQuery::new(&a, &b).within_distance(1.0).run(&mut full);
    let universe: std::collections::HashSet<(u32, u32)> = full.pairs().iter().copied().collect();
    assert!(universe.len() > 16, "workload must produce enough pairs for the test");

    for engine in all_engines() {
        let engine = engine.as_ref();
        let name = engine.name();
        for k in [0usize, 1, 7, 16] {
            let mut sink = FirstKSink::new(k);
            let report = JoinQuery::new(&a, &b).within_distance(1.0).engine(engine).run(&mut sink);
            let expected = k.min(universe.len());
            assert_eq!(sink.count(), expected as u64, "{name}: k = {k}");
            assert_eq!(report.result_pairs(), expected as u64, "{name}: k = {k} report");
            for pair in sink.pairs() {
                assert!(universe.contains(pair), "{name}: k = {k} produced bogus pair {pair:?}");
            }
        }
    }
}

#[test]
fn first_k_under_the_parallel_engine_shares_one_budget_across_workers() {
    let a = all_intersecting(300);
    let b = all_intersecting(300);
    const K: usize = 9;
    for threads in [2, 4, 8] {
        let mut sink = FirstKSink::new(K);
        let report = JoinQuery::new(&a, &b)
            .engine(TouchJoin::default().with_threads(threads))
            .run(&mut sink);
        assert_eq!(sink.count(), K as u64, "threads = {threads}");
        assert_eq!(report.result_pairs(), K as u64, "threads = {threads}");
        assert!(
            report.counters.comparisons < (a.len() * b.len()) as u64,
            "threads = {threads}: the shared budget must stop the workers early"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On arbitrary workloads, the pair multiset delivered to a `CallbackSink` and
    /// to a `CollectingSink` is identical for every engine and baseline.
    #[test]
    fn callback_and_collecting_sinks_agree_on_arbitrary_workloads(
        seed_a in 0u64..1_000,
        seed_b in 0u64..1_000,
        eps in 0.0..4.0f64,
    ) {
        let a = synthetic(150, seed_a);
        let b = synthetic(220, seed_b.wrapping_add(7_777));
        for engine in all_engines() {
            let engine = engine.as_ref();
            let mut collecting = CollectingSink::new();
            let _ = JoinQuery::new(&a, &b).within_distance(eps).engine(engine).run(&mut collecting);
            let mut streamed = Vec::new();
            let mut callback = CallbackSink::new(|x, y| streamed.push((x, y)));
            let _ = JoinQuery::new(&a, &b).within_distance(eps).engine(engine).run(&mut callback);
            streamed.sort_unstable();
            prop_assert_eq!(
                streamed,
                collecting.sorted_pairs(),
                "{} diverged between sinks",
                engine.name()
            );
        }
    }
}

/// Regression: the indexed nested loop cannot abort an R-tree query mid-probe,
/// but it must never push into a done sink — `results` has to equal the pairs
/// the sink actually received even when a probe's hit list straddles the k
/// boundary (every A box hits here, so probe #1 alone would overshoot k = 1).
#[test]
fn indexed_nl_never_pushes_into_a_done_sink() {
    let a = all_intersecting(50);
    let b = all_intersecting(50);
    let mut sink = FirstKSink::new(1);
    let report =
        JoinQuery::new(&a, &b).engine(Engine::Baseline(Baseline::IndexedNestedLoop)).run(&mut sink);
    assert_eq!(sink.count(), 1);
    assert_eq!(report.result_pairs(), 1, "results must count delivered pairs, not found pairs");
}

/// A sink that stops via `is_done` but does NOT declare a `pair_limit`: the
/// parallel engine's shards run unbudgeted and the merge must stop delivering —
/// and the report must count only what was delivered.
#[derive(Default)]
struct DoneWithoutLimit {
    limit: usize,
    pairs: Vec<(u32, u32)>,
}

impl touch::PairSink for DoneWithoutLimit {
    fn push(&mut self, a: u32, b: u32) {
        if self.pairs.len() < self.limit {
            self.pairs.push((a, b));
        }
    }

    fn is_done(&self) -> bool {
        self.pairs.len() >= self.limit
    }
}

#[test]
fn parallel_merge_credits_only_delivered_pairs_for_unbudgeted_done_sinks() {
    let a = all_intersecting(40);
    let b = all_intersecting(40);
    for threads in [1, 4] {
        let mut sink = DoneWithoutLimit { limit: 5, pairs: Vec::new() };
        let report = JoinQuery::new(&a, &b)
            .engine(TouchJoin::default().with_threads(threads))
            .run(&mut sink);
        assert_eq!(sink.pairs.len(), 5, "threads = {threads}");
        assert_eq!(
            report.result_pairs(),
            5,
            "threads = {threads}: results must match the pairs the sink accepted"
        );
    }
}

/// Direct-trait sanity check: the raw `SpatialJoinAlgorithm::try_join` entry
/// (without the query layer) also honours early termination.
#[test]
fn raw_trait_join_honours_first_k() {
    let a = all_intersecting(50);
    let b = all_intersecting(50);
    let mut sink = FirstKSink::new(3);
    let mut report = RunReport::new("NL", a.len(), b.len());
    let ctl = ExecControl::infallible();
    NestedLoopJoin::new().try_join(&a, &b, Shape::Pair, &mut sink, &mut report, ctl).unwrap();
    assert_eq!(sink.count(), 3);
    assert_eq!(report.counters.comparisons, 3);
}

/// One [`touch::LocalJoinScratch`] shared across every sink kind and an
/// early-terminating run in between: the tree-level join driven the way a
/// persistent application would drive it. Every sink must observe the same pair
/// stream no matter how dirty the scratch's buffers are from previous consumers,
/// and an aborted [`FirstKSink`] run must not leak state into the next one.
#[test]
fn every_sink_sees_the_same_pairs_through_a_shared_scratch() {
    let a = synthetic(600, 31);
    let b = synthetic(800, 32);
    let cfg = TouchConfig { partitions: 16, ..TouchConfig::default() };
    let mut tree = touch::TouchTree::build(a.objects(), cfg.partitions, cfg.fanout);
    let mut counters = touch::Counters::new();
    tree.assign(b.objects(), &mut counters);
    let params = cfg.local_join_params(cfg.min_local_cell_size(&a, &b));

    let mut scratch = touch::LocalJoinScratch::new();
    let run = |scratch: &mut touch::LocalJoinScratch, emit: &mut dyn FnMut(u32, u32) -> bool| {
        let mut counters = touch::Counters::new();
        tree.join_assigned(&params, scratch, &mut counters, &mut |x, y| emit(x, y));
        counters
    };

    // Collecting through the shared scratch is the reference.
    let mut collected = Vec::new();
    let reference_counters = run(&mut scratch, &mut |x, y| {
        collected.push((x, y));
        true
    });
    assert!(!collected.is_empty());

    // An early-terminated pass in between must deliver a prefix and leave the
    // scratch reusable.
    let mut first_two = Vec::new();
    run(&mut scratch, &mut |x, y| {
        first_two.push((x, y));
        first_two.len() < 2
    });
    assert_eq!(first_two, collected[..2].to_vec());

    // Counting and callback consumers over the same dirty scratch see the
    // identical stream and work.
    let mut count = 0u64;
    let counting_counters = run(&mut scratch, &mut |_, _| {
        count += 1;
        true
    });
    assert_eq!(count, collected.len() as u64);
    assert_eq!(counting_counters, reference_counters);

    let mut replayed = Vec::new();
    let callback_counters = run(&mut scratch, &mut |x, y| {
        replayed.push((x, y));
        true
    });
    assert_eq!(replayed, collected, "shared scratch changed the pair stream");
    assert_eq!(callback_counters, reference_counters);
}
