//! Cooperative cancellation and deadlines: an untriggered [`CancelToken`]
//! changes nothing — pairs AND counters bit-identical to an un-cancellable
//! run, for every engine at every thread count — while a tripped one ends the
//! run in an orderly way with a *partial* report whose pairs are a subset of
//! the full result and whose counters describe exactly the work done. The
//! pre-trip vs. mid-trip semantics of the stateful engines (streaming epochs,
//! serve queries and publishes, simulation ticks) are pinned here too.

use proptest::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use touch::{
    Aabb, CancelToken, CollectingSink, Completion, Dataset, ExecControl, FaultPlan, FirstKSink,
    JoinError, JoinQuery, JoinServer, ObjectId, PairSink, Point3, Seam, StreamingConfig,
    StreamingTouchJoin, TickConfig, TickEngine, TouchJoin, World,
};

mod common;
use common::{dense, engines, serve_cfg, synthetic};

const EPS: f64 = 1.5;

/// Collects pairs and trips `token` after `cancel_after` pushes, modelling a
/// consumer that decides mid-stream it has seen enough.
struct TripwireSink<'a> {
    pairs: Vec<(ObjectId, ObjectId)>,
    cancel_after: usize,
    token: &'a CancelToken,
}

impl<'a> TripwireSink<'a> {
    fn new(cancel_after: usize, token: &'a CancelToken) -> Self {
        TripwireSink { pairs: Vec::new(), cancel_after, token }
    }
}

impl PairSink for TripwireSink<'_> {
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        self.pairs.push((a, b));
        if self.pairs.len() == self.cancel_after {
            self.token.cancel();
        }
    }
}

/// The headline equivalence: a live token — plain or with a generous deadline —
/// is invisible. Pairs and counters are bit-identical to the infallible run,
/// for every engine at 1/2/4/8 threads, and the report says `Complete`.
#[test]
fn untriggered_tokens_change_nothing_for_every_engine_and_thread_count() {
    let a = synthetic(600, 11);
    let b = synthetic(800, 12);
    for threads in [1, 2, 4, 8] {
        for (name, algo) in engines(threads) {
            let mut plain_sink = CollectingSink::new();
            let plain = JoinQuery::new(&a, &b)
                .within_distance(EPS)
                .engine(algo.as_ref())
                .run(&mut plain_sink);
            for token in [CancelToken::new(), CancelToken::with_deadline(Duration::from_secs(3600))]
            {
                let mut sink = CollectingSink::new();
                let report = JoinQuery::new(&a, &b)
                    .within_distance(EPS)
                    .engine(algo.as_ref())
                    .cancel(&token)
                    .try_run(&mut sink)
                    .expect("a live token is not an error");
                assert_eq!(report.completion, Completion::Complete, "{name}({threads})");
                assert_eq!(
                    sink.sorted_pairs(),
                    plain_sink.sorted_pairs(),
                    "{name}({threads}): pairs diverged"
                );
                assert_eq!(report.counters, plain.counters, "{name}({threads}): counters diverged");
            }
        }
    }
}

/// A token tripped before the run starts yields an empty report stamped with
/// the cause — not an error — and the sink stays empty but finished.
#[test]
fn pre_cancelled_queries_return_stamped_empty_reports() {
    let a = synthetic(300, 13);
    let b = synthetic(300, 14);
    for threads in [1, 4] {
        for (name, algo) in engines(threads) {
            let token = CancelToken::new();
            token.cancel();
            let mut sink = CollectingSink::new();
            let report = JoinQuery::new(&a, &b)
                .within_distance(EPS)
                .engine(algo.as_ref())
                .cancel(&token)
                .try_run(&mut sink)
                .expect("cancellation with a report to return is not an error");
            assert_eq!(report.completion, Completion::Cancelled, "{name}({threads})");
            assert_eq!(report.result_pairs(), 0, "{name}({threads})");
            assert!(sink.pairs().is_empty(), "{name}({threads})");
        }
    }
}

/// A token tripped mid-run (here: by the sink itself after the first pair)
/// stops the sequential engine early: the emitted pairs are a strict subset of
/// the full result and the partial counters match what was emitted.
#[test]
fn mid_run_cancellation_emits_a_consistent_subset() {
    let a = synthetic(700, 15);
    let b = synthetic(900, 16);
    let algo = TouchJoin::default();
    let mut full = CollectingSink::new();
    let full_report = JoinQuery::new(&a, &b).within_distance(EPS).engine(&algo).run(&mut full);
    let full_pairs: HashSet<(ObjectId, ObjectId)> = full.pairs().iter().copied().collect();
    assert!(full_pairs.len() > 8, "workload too sparse to test cancellation");

    let token = CancelToken::new();
    let mut sink = TripwireSink::new(1, &token);
    let report = JoinQuery::new(&a, &b)
        .within_distance(EPS)
        .engine(&algo)
        .cancel(&token)
        .try_run(&mut sink)
        .expect("cancellation is not an error");
    assert_eq!(report.completion, Completion::Cancelled);
    assert!(!sink.pairs.is_empty(), "the tripping pair itself was emitted");
    assert!(sink.pairs.len() < full_pairs.len(), "the run must have stopped early");
    assert!(
        sink.pairs.iter().all(|p| full_pairs.contains(p)),
        "emitted a pair the full join does not contain"
    );
    assert_eq!(
        report.result_pairs(),
        sink.pairs.len() as u64,
        "the partial counters must match the emitted pairs"
    );
    assert!(
        report.counters.comparisons <= full_report.counters.comparisons,
        "a cancelled run cannot have done more work than the full one"
    );
}

/// Deadline budget + slack: a stalled node join (injected delay) blows a small
/// budget; the next cooperative poll trips `DeadlineExceeded` and the run winds
/// down promptly with a consistent partial result.
#[test]
fn deadlines_cut_runs_short_with_bounded_slack() {
    let a = synthetic(700, 17);
    let b = synthetic(900, 18);
    let mut full = CollectingSink::new();
    let _ = JoinQuery::new(&a, &b).within_distance(EPS).engine(TouchJoin::default()).run(&mut full);
    let full_pairs: HashSet<(ObjectId, ObjectId)> = full.pairs().iter().copied().collect();

    let plan = FaultPlan::seeded(17).delay_on(Seam::NodeJoin, None, 1, Duration::from_millis(200));
    let token = CancelToken::with_deadline(Duration::from_millis(50));
    let started = Instant::now();
    let mut sink = CollectingSink::new();
    let report = JoinQuery::new(&a, &b)
        .within_distance(EPS)
        .engine(TouchJoin::default())
        .trace(&plan)
        .cancel(&token)
        .try_run(&mut sink)
        .expect("an elapsed deadline is not an error");
    let elapsed = started.elapsed();
    assert_eq!(report.completion, Completion::DeadlineExceeded);
    assert!(sink.pairs().len() < full_pairs.len(), "the run must have been cut short");
    assert!(sink.pairs().iter().all(|p| full_pairs.contains(p)));
    assert_eq!(report.result_pairs(), sink.pairs().len() as u64);
    // Slack: after the trip the engine winds down cooperatively instead of
    // running to completion; generous bound so slow CI machines stay green.
    assert!(elapsed < Duration::from_secs(30), "wind-down took {elapsed:?}");
}

/// A deadline that elapsed before the run even starts stamps
/// `DeadlineExceeded` — the deadline-flavoured twin of the pre-cancel test.
#[test]
fn an_elapsed_deadline_stamps_deadline_exceeded() {
    let a = synthetic(200, 19);
    let b = synthetic(200, 20);
    let token = CancelToken::with_deadline(Duration::from_millis(0));
    std::thread::sleep(Duration::from_millis(2));
    let mut sink = CollectingSink::new();
    let report = JoinQuery::new(&a, &b)
        .within_distance(EPS)
        .engine(TouchJoin::default())
        .cancel(&token)
        .try_run(&mut sink)
        .expect("a deadline with a report to return is not an error");
    assert_eq!(report.completion, Completion::DeadlineExceeded);
    assert_eq!(report.result_pairs(), 0);
    assert!(sink.pairs().is_empty());
}

/// Sink-driven early termination and token-driven cancellation compose: a
/// `FirstKSink` stopping the engine is a *complete* run (the sink got all it
/// asked for), while a pre-tripped token wins over the sink and emits nothing.
#[test]
fn first_k_composes_with_cancellation() {
    let a = synthetic(500, 21);
    let b = synthetic(600, 22);

    let token = CancelToken::new();
    let mut sink = FirstKSink::new(3);
    let report = JoinQuery::new(&a, &b)
        .within_distance(EPS)
        .engine(TouchJoin::default())
        .cancel(&token)
        .try_run(&mut sink)
        .expect("first-k with a live token");
    assert_eq!(sink.count(), 3);
    assert_eq!(report.result_pairs(), 3);
    assert_eq!(
        report.completion,
        Completion::Complete,
        "a sink-driven early stop is a complete run, not a cancellation"
    );

    let token = CancelToken::new();
    token.cancel();
    let mut sink = FirstKSink::new(3);
    let report = JoinQuery::new(&a, &b)
        .within_distance(EPS)
        .engine(TouchJoin::default())
        .cancel(&token)
        .try_run(&mut sink)
        .expect("pre-cancelled first-k");
    assert_eq!(sink.count(), 0, "a pre-tripped token wins over the sink");
    assert_eq!(report.completion, Completion::Cancelled);
}

/// Streaming pre-trip semantics: a token tripped before the epoch starts
/// leaves the engine completely untouched — the epoch is not counted, nothing
/// merges, no assignment or window epoch moves — so retrying the same batch is
/// indistinguishable from a first push, for plain and sliding-window epochs.
/// The retry runs under a live token, which changes neither pairs nor counters.
#[test]
fn streaming_pre_trip_leaves_the_engine_untouched_and_retryable() {
    let (a, b, warmup) = (synthetic(400, 23), synthetic(500, 24), synthetic(200, 29));
    let tripped = CancelToken::new();
    tripped.cancel();
    let live = CancelToken::with_deadline(Duration::from_secs(3600));
    for window in [None, Some(2)] {
        let push = |engine: &mut StreamingTouchJoin, batch: &Dataset, ctl| {
            let mut sink = CollectingSink::new();
            match window {
                None => engine.try_push_batch(batch.objects(), &mut sink, ctl),
                Some(w) => engine.try_push_windowed(batch.objects(), w, &mut sink, ctl),
            }
            .map(|report| (report, sink.sorted_pairs()))
        };
        let mut reference = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
        for stream in [&mut reference, &mut engine] {
            push(stream, &warmup, ExecControl::infallible()).expect("warm-up push");
        }
        let (_, ref_pairs) = push(&mut reference, &b, ExecControl::infallible()).unwrap();

        let before = (engine.tree().assigned_b_count(), engine.window_epochs());
        let (report, pairs) = push(&mut engine, &b, ExecControl::with_cancel(&tripped))
            .expect("a pre-tripped epoch is not an error");
        assert_eq!(report.completion, Completion::Cancelled);
        assert!(pairs.is_empty());
        assert_eq!(engine.epochs(), 1, "window = {window:?}: a pre-trip epoch is not counted");
        let after = (engine.tree().assigned_b_count(), engine.window_epochs());
        assert_eq!(after, before, "window = {window:?}: nothing moved");

        let (report, pairs) =
            push(&mut engine, &b, ExecControl::with_cancel(&live)).expect("retry");
        assert_eq!(report.completion, Completion::Complete);
        assert_eq!(pairs, ref_pairs, "retry must equal a first push");
        assert_eq!(engine.cumulative_report().counters, reference.cumulative_report().counters);
        assert_eq!(engine.epochs(), 2);
    }
}

/// Streaming mid-trip semantics: the cancelled epoch *is* counted — its pairs
/// reached the sink and its counters describe real work — and the cumulative
/// record stays an honest account of the partial epoch.
#[test]
fn streaming_mid_trip_counts_the_partial_epoch() {
    let a = synthetic(400, 25);
    let b = synthetic(500, 26);
    let mut reference = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
    let mut ref_sink = CollectingSink::new();
    let _ = reference.push_batch(b.objects(), &mut ref_sink);
    let full_pairs: HashSet<(ObjectId, ObjectId)> = ref_sink.pairs().iter().copied().collect();
    assert!(full_pairs.len() > 8, "workload too sparse to test mid-epoch cancellation");

    let mut engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
    let token = CancelToken::new();
    let mut sink = TripwireSink::new(1, &token);
    let report = engine
        .try_push_batch(b.objects(), &mut sink, ExecControl::with_cancel(&token))
        .expect("a mid-epoch trip is not an error");
    assert_eq!(report.completion, Completion::Cancelled);
    assert_eq!(engine.epochs(), 1, "a mid-trip epoch is counted");
    assert!(!sink.pairs.is_empty());
    assert!(sink.pairs.len() < full_pairs.len(), "the epoch must have stopped early");
    assert!(sink.pairs.iter().all(|p| full_pairs.contains(p)));
    assert_eq!(
        engine.cumulative_report().counters.results,
        sink.pairs.len() as u64,
        "the cumulative record covers exactly the partial epoch"
    );
}

/// The serving layer: queries stamp partial reports like every other engine,
/// while a publish — which has no meaningful partial result — refuses with an
/// error and keeps the buffered delta intact for a later retry.
#[test]
fn serve_queries_and_publishes_honour_tokens() {
    let a = dense(400, 27);
    let b = dense(300, 28);
    let server = JoinServer::new(&a, serve_cfg());
    let mut reader = server.reader();
    let batch = b.objects();

    let mut clean = CollectingSink::new();
    let clean_report = reader.query(batch, &mut clean);
    let full_pairs: HashSet<(ObjectId, ObjectId)> = clean.pairs().iter().copied().collect();
    assert!(full_pairs.len() > 4, "workload too sparse");

    // Pre-cancelled query: stamped empty report against the same generation.
    let token = CancelToken::new();
    token.cancel();
    let mut sink = CollectingSink::new();
    let report = reader
        .try_query(batch, &mut sink, ExecControl::with_cancel(&token))
        .expect("a pre-cancelled query is not an error");
    assert_eq!(report.completion, Completion::Cancelled);
    assert!(sink.pairs().is_empty());
    assert_eq!(report.generation, clean_report.generation);

    // Mid-query trip: consistent subset.
    let token = CancelToken::new();
    let mut tripwire = TripwireSink::new(1, &token);
    let report = reader
        .try_query(batch, &mut tripwire, ExecControl::with_cancel(&token))
        .expect("a mid-query trip is not an error");
    assert_eq!(report.completion, Completion::Cancelled);
    assert!(!tripwire.pairs.is_empty());
    assert!(tripwire.pairs.len() < full_pairs.len());
    assert!(tripwire.pairs.iter().all(|p| full_pairs.contains(p)));
    assert_eq!(report.result_pairs(), tripwire.pairs.len() as u64);

    // A cancelled publish has no partial result: hard refusal, delta intact.
    let _ = server.insert(Aabb::new(Point3::new(1.0, 2.0, 3.0), Point3::new(2.0, 3.0, 4.0)));
    assert_eq!(server.pending_delta(), 1);
    let token = CancelToken::new();
    token.cancel();
    let err = server
        .try_publish(ExecControl::with_cancel(&token))
        .expect_err("a publish has nothing partial to return");
    assert_eq!(err, JoinError::Cancelled);
    assert_eq!(server.pending_delta(), 1, "the buffered delta survives the refusal");
    assert_eq!(Some(server.generation()), clean_report.generation);

    // The retry commits and readers move to the new generation.
    let version = server.try_publish(ExecControl::infallible()).expect("retry publishes");
    assert_eq!(Some(version), clean_report.generation.map(|g| g + 1));
    assert_eq!(server.snapshot().live(), a.len() + 1);
}

/// A simulation tick is all-or-nothing: a pre-trip refusal is an error that
/// leaves the engine *bit-identically* pre-tick — the next tick replays what an
/// un-refused engine computes — and a dead deadline refuses the same way.
#[test]
fn pre_trip_ticks_leave_the_world_untouched() {
    let config = TickConfig::default().with_epsilon(30.0);
    let mut clean = TickEngine::new(World::random(300, 99), config);
    let clean_record = clean.tick();

    let mut engine = TickEngine::new(World::random(300, 99), config);
    let token = CancelToken::new();
    token.cancel();
    let err = engine
        .try_tick(ExecControl::with_cancel(&token))
        .expect_err("a tick has nothing partial to return");
    assert_eq!(err, JoinError::Cancelled);

    let record = engine.try_tick(ExecControl::infallible()).expect("clean tick after refusal");
    assert_eq!(record.tick, 1, "the refused tick must not have advanced the counter");
    assert_eq!(record.pairs, clean_record.pairs);
    assert_eq!(engine.pairs(), clean.pairs(), "the refused engine replays the clean run");
    assert_eq!(engine.world(), clean.world());

    let token = CancelToken::with_deadline(Duration::from_millis(0));
    std::thread::sleep(Duration::from_millis(2));
    let err = engine
        .try_tick(ExecControl::with_cancel(&token))
        .expect_err("an elapsed deadline refuses the tick");
    assert_eq!(err, JoinError::DeadlineExceeded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wherever the cancel point lands, the partial result is consistent:
    /// every emitted pair belongs to the full result, the counters match the
    /// emission count and never exceed the full run's work, and a run that
    /// reports `Complete` emitted everything.
    #[test]
    fn any_cancel_point_yields_a_consistent_subset(
        cancel_after in 1usize..200,
        seed in 0u64..4,
    ) {
        let a = synthetic(250, 31 + seed);
        let b = synthetic(250, 47 + seed);
        let mut full = CollectingSink::new();
        let full_report = JoinQuery::new(&a, &b)
            .within_distance(EPS)
            .engine(TouchJoin::default())
            .run(&mut full);
        let full_set: HashSet<(ObjectId, ObjectId)> = full.pairs().iter().copied().collect();

        let token = CancelToken::new();
        let mut sink = TripwireSink::new(cancel_after, &token);
        let report = JoinQuery::new(&a, &b)
            .within_distance(EPS)
            .engine(TouchJoin::default())
            .cancel(&token)
            .try_run(&mut sink)
            .expect("cancellation is not an error");

        prop_assert!(sink.pairs.iter().all(|p| full_set.contains(p)));
        prop_assert_eq!(report.result_pairs(), sink.pairs.len() as u64);
        prop_assert!(report.counters.comparisons <= full_report.counters.comparisons);
        match report.completion {
            Completion::Complete => {
                prop_assert_eq!(sink.pairs.len(), full_set.len());
                prop_assert_eq!(&report.counters, &full_report.counters);
            }
            Completion::Cancelled => {
                prop_assert!(sink.pairs.len() >= cancel_after, "the tripping pair was emitted");
            }
            Completion::DeadlineExceeded => prop_assert!(false, "no deadline was armed"),
        }
    }
}
