//! Self-join equivalence: [`JoinQuery::self_join`] must report exactly the
//! unordered pairs of the brute-force `A ⋈ A` with the `i < j` filter — pairs
//! **and** counters — on every engine and at every thread count. The in-kernel
//! index-order filter (TOUCH engines) and the [`SelfPairSink`] adapter
//! (baselines) are two implementations of one contract; this suite pins them to
//! each other and to the ground truth.

use proptest::prelude::*;
use touch::{
    Baseline, CollectingSink, Dataset, Engine, FirstKSink, IntoEngine, JoinQuery, ObjectId,
    Predicate, RunReport, SyntheticDistribution, SyntheticSpec, TouchJoin, World,
};

fn synthetic(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Clustered { clusters: 6, std_dev: 18.0 },
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 3.0 },
    }
    .generate(seed)
}

/// Ground truth: every unordered pair `(i, j)`, `i < j`, whose boxes are within
/// `eps` of each other (ε-extension of the first side, like the engines).
fn brute_force(a: &Dataset, eps: f64) -> Vec<(ObjectId, ObjectId)> {
    let ext = a.extended(eps);
    let mut pairs = Vec::new();
    for x in ext.objects() {
        for y in a.objects() {
            if x.id < y.id && x.mbr.intersects(&y.mbr) {
                pairs.push((x.id, y.id));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

fn run_self<'a>(
    a: &'a Dataset,
    eps: f64,
    engine: impl IntoEngine<'a>,
) -> (Vec<(ObjectId, ObjectId)>, RunReport) {
    let mut sink = CollectingSink::new();
    let mut query = JoinQuery::self_join(a).engine(engine);
    if eps > 0.0 {
        query = query.predicate(Predicate::WithinDistance(eps));
    }
    let report = query.run(&mut sink);
    (sink.sorted_pairs(), report)
}

/// TOUCH at thread counts 1/2/4/8: identical pairs, and counters identical to
/// the sequential run at every width.
#[test]
fn every_engine_and_thread_count_matches_brute_force() {
    let a = synthetic(600, 42);
    let eps = 2.5;
    let expected = brute_force(&a, eps);
    assert!(!expected.is_empty());

    let (seq_pairs, seq_report) = run_self(&a, eps, Engine::touch());
    assert_eq!(seq_pairs, expected, "sequential TOUCH");
    assert_eq!(seq_report.result_pairs() as usize, expected.len());

    for threads in [1, 2, 4, 8] {
        let (pairs, report) = run_self(&a, eps, TouchJoin::default().with_threads(threads));
        assert_eq!(pairs, expected, "parallel, {threads} threads");
        assert_eq!(report.counters, seq_report.counters, "parallel counters, {threads} threads");
    }

    // The automatic planner must dispatch to one of the above.
    let (pairs, report) = run_self(&a, eps, Engine::Auto);
    assert_eq!(pairs, expected, "auto");
    assert_eq!(report.result_pairs() as usize, expected.len());
}

/// Baselines have no in-kernel filter; the default trait path wraps their sink
/// in the `SelfPairSink` adapter. Same pairs, and the results counter reflects
/// the *delivered* (post-filter) pairs.
#[test]
fn baseline_default_path_filters_through_the_adapter() {
    let a = synthetic(250, 7);
    let expected = brute_force(&a, 0.0);
    assert!(!expected.is_empty());
    for baseline in [Baseline::NestedLoop, Baseline::RTree, Baseline::Pbsm100] {
        let (pairs, report) = run_self(&a, 0.0, Engine::Baseline(baseline));
        assert_eq!(pairs, expected, "{baseline:?}");
        assert_eq!(report.result_pairs() as usize, expected.len(), "{baseline:?}");
    }
}

/// A pair budget on a self-join stops after exactly `k` *filtered* pairs —
/// budgets are post-filter, so the mirrored orientations an engine skips do not
/// eat into them.
#[test]
fn pair_budgets_count_filtered_pairs_only() {
    let a = synthetic(400, 3);
    let eps = 6.0;
    let expected = brute_force(&a, eps);
    assert!(expected.len() > 16);
    for engine in [TouchJoin::default(), TouchJoin::default().with_threads(4)] {
        let mut sink = FirstKSink::new(16);
        let _ = JoinQuery::self_join(&a)
            .predicate(Predicate::WithinDistance(eps))
            .engine(engine)
            .run(&mut sink);
        assert_eq!(sink.count(), 16);
        for pair in sink.pairs() {
            assert!(expected.binary_search(pair).is_ok(), "invalid pair {pair:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random moving-object worlds of random sizes: the dataset a tick derives
    /// from the world self-joins identically on one and four workers, and equal
    /// to brute force.
    #[test]
    fn random_worlds_self_join_identically(
        count in 20usize..150,
        seed in 0u64..500,
        eps in 0.0f64..60.0,
    ) {
        let world = World::random(count, seed);
        let mut a = Dataset::new();
        world.fill_dataset(&mut a);
        let expected = brute_force(&a, eps);

        let (seq, seq_report) = run_self(&a, eps, Engine::touch());
        prop_assert_eq!(&seq, &expected);
        let (par, par_report) =
            run_self(&a, eps, TouchJoin::default().with_threads(4));
        prop_assert_eq!(&par, &expected);
        prop_assert_eq!(par_report.counters, seq_report.counters);
    }
}
