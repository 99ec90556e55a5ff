//! SIMD equivalence: the batched MBR filter is an *exact* pre-filter — every
//! backend (AVX2/SSE2/NEON where supported, plus the scalar-unrolled fallback)
//! must produce **bit-identical pairs, emission order and counters** on every
//! engine at every worker width. The suite also pins the per-node adaptive
//! strategy layer: a planner-derived run on a clustered workload must actually
//! exercise more than one local-join kind, and adaptivity must never change
//! the pairs.

mod common;

use common::{busy, Forced, FORCE_LOCK};
use proptest::prelude::*;
use std::sync::PoisonError;
use touch::core::simd::Backend;
use touch::{
    collect_join, CollectingSink, Dataset, ExecTrace, JoinOrder, JoinQuery, SpatialJoinAlgorithm,
    SyntheticDistribution, SyntheticSpec, TouchConfig, TouchJoin, TraceEvent,
};

fn uniform(count: usize, seed: u64, side: f64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Uniform,
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: side },
    }
    .generate(seed)
}

fn clustered(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Clustered { clusters: 5, std_dev: 2.0 },
        space: touch::datagen::SpaceConfig { size: 100.0, max_object_side: 2.5 },
    }
    .generate(seed)
}

fn cfg() -> TouchConfig {
    TouchConfig { partitions: 24, join_order: JoinOrder::TreeOnA, ..TouchConfig::default() }
}

/// TOUCH on one worker and at a given worker budget, pinned to one config so
/// every run performs the same plan for `query`.
fn engines(
    query: JoinQuery<'_>,
    threads: usize,
) -> Vec<(&'static str, Box<dyn SpatialJoinAlgorithm>)> {
    vec![
        ("touch", Box::new(TouchJoin::new(cfg())) as Box<dyn SpatialJoinAlgorithm>),
        ("parallel", Box::new(busy(query.engine(TouchJoin::new(cfg())), threads))),
    ]
}

/// The tentpole obligation: every supported backend vs. the forced
/// scalar-unrolled fallback — both engines × 1/2/4/8 threads, pairs AND
/// counters (including the batch counters) bit-identical. The sequential
/// engine is additionally compared in raw emission order.
#[test]
fn all_backends_are_bit_identical_on_every_engine_and_thread_count() {
    let a = uniform(700, 51, 3.0);
    let b = uniform(900, 52, 1.5);

    // Reference: the scalar fallback, which shares the exact `Aabb::intersects`
    // predicate with the per-survivor confirmation pass.
    let mut reference = Vec::new();
    {
        let _forced = Forced::new(Backend::Scalar);
        for threads in [1, 2, 4, 8] {
            let query = JoinQuery::new(&a, &b).within_distance(1.0);
            for (name, algo) in engines(query, threads) {
                let mut sink = CollectingSink::new();
                let report =
                    JoinQuery::new(&a, &b).within_distance(1.0).engine(&algo).run(&mut sink);
                assert!(report.counters.batch_lanes > 0, "{name}: filter never ran");
                assert_eq!(
                    report.counters.batch_lanes, report.counters.comparisons,
                    "{name}: every candidate passes through the batch filter"
                );
                reference.push((name, threads, sink.pairs().to_vec(), report.counters));
            }
        }
    }

    for backend in Backend::ALL {
        if !backend.is_supported() || backend == Backend::Scalar {
            continue;
        }
        let _forced = Forced::new(backend);
        let mut expected = reference.iter();
        for threads in [1, 2, 4, 8] {
            let query = JoinQuery::new(&a, &b).within_distance(1.0);
            for (name, algo) in engines(query, threads) {
                let mut sink = CollectingSink::new();
                let report =
                    JoinQuery::new(&a, &b).within_distance(1.0).engine(&algo).run(&mut sink);
                let (_, _, ref_pairs, ref_counters) =
                    expected.next().unwrap_or_else(|| unreachable!("reference exhausted"));
                let label = format!("{}({threads}) on {}", name, backend.name());
                if name == "touch" {
                    // Single-threaded: raw emission order must match too.
                    assert_eq!(sink.pairs(), &ref_pairs[..], "{label}: emission order diverged");
                } else {
                    let mut got = sink.pairs().to_vec();
                    let mut want = ref_pairs.clone();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{label}: pairs diverged");
                }
                assert_eq!(report.counters, *ref_counters, "{label}: counters diverged");
            }
        }
    }
}

/// A planner-driven run on the clustered workload exercises the per-node
/// adaptive layer: at least two distinct local-join kinds fire (the NodeJoin
/// trace spans are labelled from the same `effective_kind` the join executes),
/// and the adaptive pairs equal a fixed single-cutoff run's.
#[test]
fn adaptive_planner_mixes_strategies_on_the_clustered_workload() {
    // Tight clusters make leaves small (low expected probe work → all-pairs)
    // while the upper nodes stay wide and dense (→ grid); the uniform probe
    // side reaches both, so a planned run exercises the adaptive split.
    let a = clustered(1200, 61);
    let b = uniform(1600, 62, 1.5);

    // Fixed global-cutoff reference (adapt: None, historical behaviour).
    let (expected_pairs, _) = collect_join(&TouchJoin::new(cfg()), &a, &b);

    // Bare query → the statistics-driven planner, which derives AdaptiveParams
    // from the probe side's density.
    let trace = ExecTrace::new();
    let mut sink = CollectingSink::new();
    let _ = JoinQuery::new(&a, &b).trace(&trace).run(&mut sink);
    assert_eq!(sink.sorted_pairs(), expected_pairs, "adaptivity changed the result");

    let mut kinds: Vec<&'static str> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeJoin { strategy, .. } => Some(*strategy),
            _ => None,
        })
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(
        kinds.len() >= 2,
        "expected the per-node adaptive layer to pick at least two strategies, got {kinds:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random datasets: the detected backend and the forced scalar fallback
    /// agree on pairs, emission order and every counter through the sequential
    /// engine (which exercises all three kernels via the planner's grid kind
    /// plus the small-node fallbacks).
    #[test]
    fn random_datasets_agree_between_detected_and_scalar(
        seed in 0u64..500,
        count_a in 80usize..260,
        count_b in 80usize..260,
        eps in 0.0..2.0f64,
    ) {
        let a = uniform(count_a, seed.wrapping_add(1), 3.0);
        let b = uniform(count_b, seed.wrapping_add(2), 1.5);
        let run = || {
            let mut sink = CollectingSink::new();
            let report = JoinQuery::new(&a, &b)
                .within_distance(eps)
                .engine(TouchJoin::new(cfg()))
                .run(&mut sink);
            (sink.pairs().to_vec(), report.counters)
        };
        let (scalar_pairs, scalar_counters) = {
            let _forced = Forced::new(Backend::Scalar);
            run()
        };
        let (auto_pairs, auto_counters) = {
            let _lock = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            run()
        };
        prop_assert_eq!(scalar_pairs, auto_pairs);
        prop_assert_eq!(scalar_counters, auto_counters);
    }
}
