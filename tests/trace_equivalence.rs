//! Tracing is observational: attaching an [`ExecTrace`] to any engine changes
//! neither the pairs nor a single counter, at any thread count — the traced and
//! untraced runs are the *same computation*, one of them narrated. Plus the
//! histogram algebra the trace summaries rest on: merging is exact, associative
//! and commutative, so worker-sharded and epoch-split recordings aggregate to
//! the one-shot answer.

use proptest::prelude::*;
use touch::{
    CollectingSink, Dataset, ExecControl, ExecTrace, Histogram, JoinQuery, ParallelTouchJoin,
    RunReport, SpatialJoinAlgorithm, StreamingConfig, StreamingTouchJoin, TouchJoin, TraceSink,
};

mod common;
use common::{engines, synthetic};

const EPS: f64 = 1.5;

fn run(
    algo: &dyn SpatialJoinAlgorithm,
    a: &Dataset,
    b: &Dataset,
    trace: Option<&ExecTrace>,
) -> (Vec<(u32, u32)>, RunReport) {
    let mut sink = CollectingSink::new();
    let mut query = JoinQuery::new(a, b).within_distance(EPS).engine(algo);
    if let Some(trace) = trace {
        query = query.trace(trace);
    }
    let report = query.run(&mut sink);
    (sink.sorted_pairs(), report)
}

/// The tentpole obligation: `NoTrace` vs. a recording `ExecTrace`, three
/// engines × 1/2/4/8 threads — pairs AND counters bit-identical.
#[test]
fn tracing_changes_nothing_for_every_engine_and_thread_count() {
    let a = synthetic(700, 41);
    let b = synthetic(900, 42);
    for threads in [1, 2, 4, 8] {
        for (name, algo) in engines(threads) {
            let (plain_pairs, plain_report) = run(algo.as_ref(), &a, &b, None);
            let trace = ExecTrace::new();
            let (traced_pairs, traced_report) = run(algo.as_ref(), &a, &b, Some(&trace));

            assert_eq!(traced_pairs, plain_pairs, "{name}({threads}): pairs diverged");
            assert_eq!(
                traced_report.counters, plain_report.counters,
                "{name}({threads}): counters diverged"
            );
            assert!(!trace.is_empty(), "{name}({threads}): the trace must have recorded");
            let summary = traced_report.trace.expect("traced runs carry a summary");
            assert_eq!(
                summary.pairs_per_node.sum,
                plain_report.result_pairs(),
                "{name}({threads}): every emitted pair is attributed to a node join"
            );
            assert!(plain_report.trace.is_none(), "untraced runs stay lean");
        }
    }
}

/// The per-node candidate skew the trace reports is a property of the plan,
/// not of the schedule: the parallel engine's histogram equals the sequential
/// one at every width, and the attributed candidates never exceed the
/// comparison counter they are carved out of.
#[test]
fn candidate_histograms_are_schedule_independent() {
    let a = synthetic(600, 43);
    let b = synthetic(800, 44);
    let trace = ExecTrace::new();
    let (_, report) = run(&TouchJoin::default(), &a, &b, Some(&trace));
    let reference = report.trace.expect("traced");
    assert!(reference.candidates.sum <= report.counters.comparisons);
    for threads in [2, 4, 8] {
        let trace = ExecTrace::new();
        let (_, report) = run(&ParallelTouchJoin::with_threads(threads), &a, &b, Some(&trace));
        let summary = report.trace.expect("traced");
        assert_eq!(
            summary.candidates, reference.candidates,
            "threads = {threads}: candidate skew must not depend on scheduling"
        );
        assert_eq!(summary.pairs_per_node, reference.pairs_per_node, "threads = {threads}");
    }
}

/// Epoch-split invariance extends to traced streams: however the probe side is
/// batched, the traced stream emits the same pairs and counters as the
/// untraced one, and its summary counts one epoch per push.
#[test]
fn traced_streams_are_epoch_split_invariant() {
    let a = synthetic(500, 45);
    let b = synthetic(700, 46);
    let reference = {
        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
        let mut sink = CollectingSink::new();
        let _ = engine.push_batch(b.objects(), &mut sink);
        (sink.sorted_pairs(), engine.cumulative_report().counters)
    };
    for epochs in [1, 3, 8] {
        let trace = ExecTrace::new();
        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
        let mut sink = CollectingSink::new();
        let chunk = b.len().div_ceil(epochs).max(1);
        let mut pushes = 0;
        for batch in b.objects().chunks(chunk) {
            engine.try_push_batch(batch, &mut sink, ExecControl::with_trace(&trace)).unwrap();
            pushes += 1;
        }
        assert_eq!(sink.sorted_pairs(), reference.0, "epochs = {epochs}: pairs diverged");
        assert_eq!(
            engine.cumulative_report().counters,
            reference.1,
            "epochs = {epochs}: counters diverged"
        );
        let summary = trace.summary().expect("recording sink summarises");
        assert_eq!(summary.epochs, pushes, "epochs = {epochs}");
    }
}

/// The traced run exports well-formed artifacts: a Chrome `trace_events` JSON
/// document with one complete event per recorded span, and a text profile that
/// names every phase.
#[test]
fn trace_exports_are_well_formed() {
    let a = synthetic(400, 47);
    let b = synthetic(500, 48);
    let trace = ExecTrace::new();
    let _ = run(&ParallelTouchJoin::with_threads(4), &a, &b, Some(&trace));
    let chrome = trace.to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"name\":\"node-join\""));
    assert!(chrome.trim_end().ends_with('}'));
    let profile = trace.text_profile();
    for needle in ["phase build", "phase assignment", "phase join", "candidates/node"] {
        assert!(profile.contains(needle), "profile lacks {needle:?}:\n{profile}");
    }
}

fn one_shot(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

// The histogram algebra: merge is exact over any split, associative and
// commutative — which is what makes worker-sharded and epoch-split trace
// aggregation equal the one-shot recording.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn histogram_merge_is_exact_for_any_split(
        values in prop::collection::vec(0u64..1_000_000, 0..200),
        cut in 0usize..200,
    ) {
        let cut = cut.min(values.len());
        let mut left = one_shot(&values[..cut]);
        left.merge(&one_shot(&values[cut..]));
        prop_assert_eq!(left, one_shot(&values));
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in prop::collection::vec(0u64..100_000, 0..60),
        ys in prop::collection::vec(0u64..100_000, 0..60),
        zs in prop::collection::vec(0u64..100_000, 0..60),
    ) {
        let (hx, hy, hz) = (one_shot(&xs), one_shot(&ys), one_shot(&zs));
        // (x ∪ y) ∪ z == x ∪ (y ∪ z)
        let mut left = hx.clone();
        left.merge(&hy);
        left.merge(&hz);
        let mut right_tail = hy.clone();
        right_tail.merge(&hz);
        let mut right = hx.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);
        // x ∪ y == y ∪ x
        let mut xy = hx.clone();
        xy.merge(&hy);
        let mut yx = hy.clone();
        yx.merge(&hx);
        prop_assert_eq!(xy, yx);
    }

    /// Round-robin sharding over any worker count — the shape in which the
    /// parallel engine's per-worker observations reach the summary — merges to
    /// the one-shot histogram exactly.
    #[test]
    fn worker_sharded_recording_equals_one_shot(
        values in prop::collection::vec(0u64..1_000_000, 0..150),
        workers in 1usize..9,
    ) {
        let mut shards = vec![Histogram::new(); workers];
        for (i, &v) in values.iter().enumerate() {
            shards[i % workers].record(v);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(merged, one_shot(&values));
    }

    /// Percentiles answered from the merged histogram are the percentiles of
    /// the union: they always land inside the observed range and never below
    /// the bucket a lower quantile lands in.
    #[test]
    fn percentiles_are_monotone_and_within_range(
        values in prop::collection::vec(0u64..1_000_000, 1..150),
    ) {
        let h = one_shot(&values);
        let (lo, hi) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
        let mut last = 0u64;
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let p = h.percentile(q);
            prop_assert!(p >= lo && p <= hi, "p{q} = {} outside [{lo}, {hi}]", p);
            prop_assert!(p >= last, "percentiles must be monotone in q");
            last = p;
        }
    }
}
