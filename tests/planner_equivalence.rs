//! Planner determinism and equivalence: `Engine::Auto` must be a pure
//! *planner* — the plan it derives produces **bit-identical pairs and
//! counters** to explicitly running `TouchJoin` on the same plan, at every
//! thread count and under every strategy. And the statistics the planner runs
//! on must accumulate exactly: merging per-batch [`DatasetStats`] equals
//! collecting them in one shot.

use proptest::prelude::*;
use touch::{
    AutoEngine, CollectingSink, Counters, Dataset, DatasetStats, Engine, ExecutionStrategy,
    FirstKSink, JoinPlanner, JoinQuery, NeuroscienceSpec, PlanEnv, RunReport, Shape,
    SpatialJoinAlgorithm, SyntheticDistribution, SyntheticSpec,
};

fn synthetic(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Uniform,
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 2.0 },
    }
    .generate(seed)
}

fn clustered(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Clustered { clusters: 8, std_dev: 22.0 },
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 2.0 },
    }
    .generate(seed)
}

fn run(
    engine: impl SpatialJoinAlgorithm,
    a: &Dataset,
    b: &Dataset,
) -> (Vec<(u32, u32)>, RunReport) {
    let mut sink = CollectingSink::new();
    let report = JoinQuery::new(a, b).engine(engine).run(&mut sink);
    (sink.sorted_pairs(), report)
}

/// `Engine::Auto` vs. an explicitly pinned run of the plan it resolves to,
/// across thread budgets that exercise the sequential (1) and parallel (2/4/8)
/// strategies. Pairs and every counter must match bit-for-bit.
#[test]
fn auto_matches_the_engine_it_resolves_to_at_every_thread_count() {
    // Workload 1 is large enough (|A| + |B| ≥ the planner's PARALLEL_MIN_WORK)
    // to resolve to the parallel engine whenever threads are available;
    // workload 2 stays below the bar and must resolve sequential regardless.
    let workloads =
        [(synthetic(9000, 1), synthetic(10_000, 2)), (clustered(1000, 3), synthetic(700, 4))];
    for (wl, (a, b)) in workloads.iter().enumerate() {
        for threads in [1, 2, 4, 8] {
            let auto = AutoEngine::with_threads(threads);
            let plan = auto.plan_for(a, b, Shape::Pair, 0.0).expect("auto engines always plan");
            if wl == 0 && threads > 1 {
                assert_eq!(
                    plan.strategy,
                    ExecutionStrategy::Parallel { threads },
                    "the large workload must go parallel at {threads} threads"
                );
            } else {
                assert_eq!(plan.strategy, ExecutionStrategy::Sequential, "workload {wl}");
            }

            let (auto_pairs, auto_report) = run(&auto, a, b);
            let (resolved_pairs, resolved_report) = run(Engine::Planned(plan), a, b);

            assert_eq!(auto_pairs, resolved_pairs, "threads = {threads}: pairs diverged");
            assert_eq!(
                auto_report.counters, resolved_report.counters,
                "threads = {threads}: counters diverged"
            );
            let executed = auto_report.plan.expect("auto records its plan");
            assert_eq!(executed.strategy, plan.strategy.label());
            assert!(
                auto_report.algorithm.starts_with("TOUCH-AUTO → "),
                "the report names the resolved engine, got {}",
                auto_report.algorithm
            );
        }
    }
}

/// The same plan is the same computation under every strategy, with the tree
/// on either side: a plan pins its tree side whatever strategy runs it.
#[test]
fn one_plan_is_bit_identical_on_every_engine() {
    let inputs = [(synthetic(800, 5), synthetic(1000, 6)), (synthetic(1000, 5), synthetic(800, 6))];
    let mut sides = Vec::new();
    for (a, b) in &inputs {
        let plan = AutoEngine::with_threads(1).plan_for(a, b, Shape::Pair, 0.0).unwrap();
        sides.push(plan.build_on_a);
        let side = if plan.build_on_a { "tree on A" } else { "tree on B" };
        let (seq_pairs, seq_report) =
            run(Engine::Planned(plan.with_strategy(ExecutionStrategy::Sequential)), a, b);
        for strategy in [
            ExecutionStrategy::Parallel { threads: 2 },
            ExecutionStrategy::Parallel { threads: 8 },
            ExecutionStrategy::Streaming { threads: 1 },
            ExecutionStrategy::Streaming { threads: 3 },
        ] {
            let (pairs, report) = run(Engine::Planned(plan.with_strategy(strategy)), a, b);
            assert_eq!(pairs, seq_pairs, "{side}, {strategy:?}: pairs diverged");
            assert_eq!(
                report.counters, seq_report.counters,
                "{side}, {strategy:?}: counters diverged"
            );
        }
    }
    assert_eq!(sides, [true, false], "the inputs cover both tree sides");
}

/// Auto through the unified query builder (the zero-config path) still answers
/// correctly and reports its plan — including the distance-join translation.
#[test]
fn zero_config_query_is_correct_for_distance_joins() {
    let a = synthetic(400, 7);
    let b = synthetic(500, 8);
    for eps in [0.0, 2.5] {
        let mut auto_sink = CollectingSink::new();
        let auto_report =
            JoinQuery::new(&a, &b).within_distance(eps).engine(Engine::Auto).run(&mut auto_sink);
        let mut fixed_sink = CollectingSink::new();
        let _ = JoinQuery::new(&a, &b)
            .within_distance(eps)
            .engine(Engine::touch())
            .run(&mut fixed_sink);
        assert_eq!(
            auto_sink.sorted_pairs(),
            fixed_sink.sorted_pairs(),
            "eps = {eps}: auto changed the answer"
        );
        assert_eq!(auto_report.epsilon, eps);
        assert!(auto_report.plan.is_some(), "the executed plan must be on the report");
    }
}

/// Planning twice over the same inputs yields the same plan, and the planner's
/// knob derivation is independent of the thread budget (only the strategy moves).
#[test]
fn planning_is_deterministic_and_thread_budget_only_moves_the_strategy() {
    let a = synthetic(2000, 11);
    let b = clustered(1500, 12);
    let (sa, sb) = (DatasetStats::from_dataset(&a), DatasetStats::from_dataset(&b));
    let planner = JoinPlanner::default();
    let first = planner.plan(&sa, &sb, &PlanEnv::sequential().with_threads(4));
    let second = planner.plan(&sa, &sb, &PlanEnv::sequential().with_threads(4));
    assert_eq!(first, second, "planning must be deterministic");
    for threads in [1, 2, 8] {
        let other = planner.plan(&sa, &sb, &PlanEnv::sequential().with_threads(threads));
        assert_eq!(other.with_strategy(first.strategy), first, "knobs moved with the budget");
    }
}

/// A tiny pair budget steers Auto to the early-terminating sequential engine —
/// and the query still stops at exactly k pairs.
#[test]
fn small_pair_budgets_resolve_to_sequential_early_termination() {
    let a = synthetic(3000, 13);
    let b = synthetic(3000, 14);
    let mut sink = FirstKSink::new(4);
    let report = JoinQuery::new(&a, &b).engine(AutoEngine::with_threads(8)).run(&mut sink);
    assert_eq!(sink.count(), 4);
    assert_eq!(report.result_pairs(), 4);
    let executed = report.plan.expect("auto records its plan");
    assert_eq!(executed.strategy, "sequential", "a 4-pair budget must not spin up workers");
    assert!(
        report.counters.comparisons < (a.len() * b.len()) as u64 / 10,
        "early termination must cut the scan short"
    );
}

// `DatasetStats` accumulated batch by batch equals one-shot stats, and plans
// made from either agree.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stats_merge_equals_one_shot(
        n in 1usize..400,
        seed in 0u64..1000,
        epochs in 1usize..12,
    ) {
        let ds = synthetic(n, seed.wrapping_add(100));
        let one_shot = DatasetStats::from_dataset(&ds);
        let chunk = ds.len().div_ceil(epochs).max(1);
        let mut merged = DatasetStats::new();
        for batch in ds.objects().chunks(chunk) {
            merged.merge(&DatasetStats::from_objects(batch));
        }
        prop_assert_eq!(merged.count(), one_shot.count());
        prop_assert_eq!(merged.mbr(), one_shot.mbr());
        for axis in 0..3 {
            prop_assert_eq!(
                merged.extent_histogram(axis),
                one_shot.extent_histogram(axis),
                "histograms must merge exactly"
            );
            let (m, o) = (merged.mean_side(axis), one_shot.mean_side(axis));
            prop_assert!((m - o).abs() <= 1e-9 * o.abs().max(1.0), "mean side drifted: {} vs {}", m, o);
        }
    }

    /// Plans derived from merged stats equal plans derived from one-shot stats:
    /// the f64 sum tolerance never reaches the planner's decisions for these
    /// workloads, so statistics accumulated batch by batch plan exactly like
    /// statistics collected over the whole dataset.
    #[test]
    fn plans_from_merged_stats_match_one_shot_plans(
        n in 64usize..600,
        seed in 0u64..500,
        epochs in 1usize..8,
    ) {
        let a = synthetic(200, seed.wrapping_add(7000));
        let b = synthetic(n, seed.wrapping_add(9000));
        let sa = DatasetStats::from_dataset(&a);
        let one_shot = DatasetStats::from_dataset(&b);
        let chunk = b.len().div_ceil(epochs).max(1);
        let mut merged = DatasetStats::new();
        for batch in b.objects().chunks(chunk) {
            merged.merge(&DatasetStats::from_objects(batch));
        }
        let planner = JoinPlanner::default();
        let env = PlanEnv::sequential().with_threads(4);
        let plan_one_shot = planner.plan(&sa, &one_shot, &env);
        let plan_merged = planner.plan(&sa, &merged, &env);
        prop_assert_eq!(plan_one_shot.build_on_a, plan_merged.build_on_a);
        prop_assert_eq!(plan_one_shot.partitions, plan_merged.partitions);
        prop_assert_eq!(plan_one_shot.fanout, plan_merged.fanout);
        prop_assert_eq!(plan_one_shot.params.allpairs_max_a, plan_merged.params.allpairs_max_a);
        let (c1, c2) = (plan_one_shot.params.min_cell_size, plan_merged.params.min_cell_size);
        prop_assert!((c1 - c2).abs() <= 1e-9 * c1.abs().max(1.0), "cell floor drifted: {} vs {}", c1, c2);
    }
}

/// On the paper's neuroscience join, the cost-picked cell does less work than
/// the old floor (twice the larger mean side) for the same pairs.
#[test]
fn the_cost_picked_cell_beats_the_old_floor_on_the_neuroscience_join() {
    let data = NeuroscienceSpec::scaled(0.002).generate(42);
    let (axons, dendrites) = (&data.axons, &data.dendrites);
    let eps = 5.0;
    let mut query = JoinQuery::new(axons, dendrites).within_distance(eps);
    let plan = query.plan().expect("the default engine plans");
    let mut auto_sink = CollectingSink::new();
    let auto = query.run(&mut auto_sink);

    let extended = DatasetStats::from_dataset(&axons.extended(eps));
    let probe = DatasetStats::from_dataset(dendrites);
    let old_floor = 2.0 * extended.mean_side_all_axes().max(probe.mean_side_all_axes());
    let mut at_old_floor = plan;
    at_old_floor.params.min_cell_size = old_floor;
    let mut old_sink = CollectingSink::new();
    let old = JoinQuery::new(axons, dendrites)
        .within_distance(eps)
        .engine(Engine::Planned(at_old_floor))
        .run(&mut old_sink);

    assert!(plan.params.min_cell_size < old_floor);
    assert_eq!(auto_sink.sorted_pairs(), old_sink.sorted_pairs());
    assert!(
        auto.counters.comparisons < old.counters.comparisons,
        "{} comparisons at cell {} against {} at the old floor {old_floor}",
        auto.counters.comparisons,
        plan.params.min_cell_size,
        old.counters.comparisons
    );
}

/// Sanity anchor: the counters equality above is meaningful — a *different*
/// plan really does produce different counters on these workloads.
#[test]
fn different_plans_are_observably_different() {
    let a = synthetic(900, 1);
    let b = synthetic(1200, 2);
    let plan = AutoEngine::with_threads(1).plan_for(&a, &b, Shape::Pair, 0.0).unwrap();
    let (_, planned) = run(Engine::Planned(plan), &a, &b);
    let (_, paper) = run(Engine::touch(), &a, &b);
    assert_eq!(planned.result_pairs(), paper.result_pairs(), "answers agree…");
    assert_ne!(
        Counters { results: 0, ..planned.counters },
        Counters { results: 0, ..paper.counters },
        "…but the planned configuration does different work than the paper defaults"
    );
}
