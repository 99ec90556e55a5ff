//! Property-based integration tests: on randomly generated workloads (arbitrary box
//! positions, sizes, aspect ratios and ε), every algorithm in the workspace must
//! produce exactly the nested-loop result set, with no duplicates, and TOUCH's
//! counters must satisfy its structural invariants.

use proptest::prelude::*;
use touch::baselines::{IndexedNestedLoopJoin, PbsmJoin, PlaneSweepJoin, RTreeSyncJoin, S3Join};
use touch::{
    Aabb, CollectingSink, Dataset, JoinOrder, JoinQuery, LocalJoinKind, NestedLoopJoin, Point3,
    SpatialJoinAlgorithm, TouchConfig, TouchJoin,
};

/// An arbitrary box inside a ~100-unit space with sides up to 8 units (occasionally
/// degenerate), so that random workloads contain both isolated and heavily
/// overlapping objects.
fn arb_box() -> impl Strategy<Value = Aabb> {
    (0.0..100.0f64, 0.0..100.0f64, 0.0..100.0f64, 0.0..8.0f64, 0.0..8.0f64, 0.0..8.0f64).prop_map(
        |(x, y, z, w, h, d)| {
            let min = Point3::new(x, y, z);
            Aabb::new(min, min + Point3::new(w, h, d))
        },
    )
}

fn arb_dataset(max: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(arb_box(), 1..max).prop_map(Dataset::from_mbrs)
}

fn ground_truth(a: &Dataset, b: &Dataset, eps: f64) -> Vec<(u32, u32)> {
    run(&NestedLoopJoin::new(), a, b, eps)
}

fn run(algo: &dyn SpatialJoinAlgorithm, a: &Dataset, b: &Dataset, eps: f64) -> Vec<(u32, u32)> {
    let mut sink = CollectingSink::new();
    let _ = JoinQuery::new(a, b).within_distance(eps).engine(algo).run(&mut sink);
    sink.sorted_pairs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn touch_matches_the_nested_loop_on_arbitrary_workloads(
        a in arb_dataset(120),
        b in arb_dataset(160),
        eps in 0.0..10.0f64,
    ) {
        let expected = ground_truth(&a, &b, eps);
        let pairs = run(&TouchJoin::default(), &a, &b, eps);
        prop_assert_eq!(pairs, expected);
    }

    #[test]
    fn touch_configuration_variants_match_on_arbitrary_workloads(
        a in arb_dataset(80),
        b in arb_dataset(120),
        eps in 0.0..6.0f64,
        fanout in 2usize..10,
        partitions in 1usize..64,
    ) {
        let expected = ground_truth(&a, &b, eps);
        for strategy in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep] {
            for order in [JoinOrder::SmallerAsTree, JoinOrder::TreeOnB] {
                let config = TouchConfig {
                    partitions,
                    fanout,
                    local_join: strategy,
                    join_order: order,
                    ..TouchConfig::default()
                };
                let pairs = run(&TouchJoin::new(config), &a, &b, eps);
                prop_assert_eq!(
                    &pairs, &expected,
                    "config {:?}/{:?} fanout {} partitions {} diverged",
                    strategy, order, fanout, partitions
                );
            }
        }
    }

    #[test]
    fn every_baseline_matches_the_nested_loop_on_arbitrary_workloads(
        a in arb_dataset(90),
        b in arb_dataset(130),
        eps in 0.0..6.0f64,
    ) {
        let expected = ground_truth(&a, &b, eps);
        let algorithms: Vec<Box<dyn SpatialJoinAlgorithm>> = vec![
            Box::new(PlaneSweepJoin::new()),
            Box::new(PbsmJoin::new(12)),
            Box::new(S3Join::new(4, 3)),
            Box::new(IndexedNestedLoopJoin::new(8, 2)),
            Box::new(RTreeSyncJoin::new(8, 2)),
        ];
        for algo in &algorithms {
            let pairs = run(algo.as_ref(), &a, &b, eps);
            prop_assert_eq!(&pairs, &expected, "{} diverged", algo.name());
        }
    }

    #[test]
    fn touch_counter_invariants_hold(
        a in arb_dataset(100),
        b in arb_dataset(150),
        eps in 0.0..6.0f64,
    ) {
        let mut sink = CollectingSink::new();
        let report = JoinQuery::new(&a, &b).within_distance(eps).run(&mut sink);
        // Results reported == pairs delivered.
        prop_assert_eq!(report.result_pairs(), sink.pairs().len() as u64);
        // Filtered objects are a subset of the probe dataset (TOUCH builds its tree
        // on the smaller input and probes with the other, so the probe side may be
        // either A or B).
        prop_assert!(report.counters.filtered <= a.len().max(b.len()) as u64);
        // Every result came out of a comparison.
        prop_assert!(report.counters.comparisons >= report.result_pairs());
        // A filtered object can never appear in a result pair.
        if report.counters.filtered > 0 {
            prop_assert!(sink.pairs().len() < a.len() * b.len());
        }
        // Selectivity is a probability.
        prop_assert!(report.selectivity() >= 0.0 && report.selectivity() <= 1.0);
    }
}
