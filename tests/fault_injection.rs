//! Deterministic fault injection: a seeded [`FaultPlan`] panics at an exact
//! seam × worker × invocation of a run, and every engine contains the blast —
//! the `try_*` entry points return [`JoinError::WorkerPanicked`] with the
//! phase attributed, the process never aborts, and the faulted component
//! (stream, server, reader, tick engine) stays fully usable afterwards.
//!
//! Seam placement matters: a trigger is only *contained* if the trace hook it
//! fires from runs inside an engine's `catch_phase` region. The matrix below
//! arms exactly the contained seams of each engine — the sequential engine's
//! coordinator phase boundaries, every engine's worker-level chunk/node hooks,
//! and the serving layer's pre-commit generation build.

use std::collections::HashSet;
use std::sync::Once;
use std::time::Duration;
use touch::{
    BoundedSink, CollectingSink, Completion, Engine, ExecControl, FaultPlan, JoinError, JoinQuery,
    JoinServer, ObjectId, OneShotStreaming, ParallelTouchJoin, Phase, Seam, SpatialJoinAlgorithm,
    StreamingConfig, StreamingTouchJoin, TickConfig, TickEngine, TouchJoin, World,
};

mod common;
use common::{dense, serve_cfg, synthetic};

const EPS: f64 = 1.5;

static HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that swallows the expected
/// `fault-injection:` panics — they are thrown on purpose and always caught —
/// so a green run of this suite does not spray backtraces, while every other
/// panic keeps the default reporting.
fn silence_fault_panics() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            // Only the injected panics *start* with the marker; a failing
            // assertion that quotes it mid-message must still be reported.
            if !message.starts_with("fault-injection:") {
                previous(info);
            }
        }));
    });
}

/// The phase a contained panic at this seam is attributed to.
fn expected_phase(seam: Seam) -> Phase {
    match seam {
        Seam::Build => Phase::Build,
        Seam::Assignment | Seam::AssignChunk => Phase::Assignment,
        _ => Phase::Join,
    }
}

/// The acceptance matrix: a seeded panic per contained seam × engine × 1/2/4/8
/// threads surfaces as `JoinError::WorkerPanicked` (correct phase, the
/// injected detail preserved) without aborting the process, and the engine
/// answers the next clean query bit-identically to a never-faulted baseline.
#[test]
fn seeded_fault_matrix_returns_errors_without_aborting() {
    silence_fault_panics();
    let a = synthetic(400, 51);
    let b = synthetic(500, 52);
    let mut baseline = CollectingSink::new();
    let _ =
        JoinQuery::new(&a, &b).within_distance(EPS).engine(TouchJoin::default()).run(&mut baseline);
    let baseline_pairs = baseline.sorted_pairs();
    assert!(!baseline_pairs.is_empty(), "degenerate workload");

    let mut cases = 0u64;
    for threads in [1usize, 2, 4, 8] {
        // Per engine, the seams whose hooks run inside its catch regions: the
        // one-shot executor, at one worker or several, wraps all three phase
        // boundaries and its worker loops; the streaming engine wraps its
        // (assignment, join) worker loops.
        let one_shot =
            vec![Seam::Build, Seam::Assignment, Seam::Join, Seam::AssignChunk, Seam::NodeJoin];
        let combos: Vec<(&str, Box<dyn SpatialJoinAlgorithm>, Vec<Seam>)> = vec![
            ("touch", Box::new(TouchJoin::default()), one_shot.clone()),
            ("parallel", Box::new(ParallelTouchJoin::with_threads(threads)), one_shot),
            (
                "streaming",
                Box::new(OneShotStreaming::new(StreamingConfig {
                    threads,
                    ..StreamingConfig::default()
                })),
                vec![Seam::AssignChunk, Seam::NodeJoin],
            ),
        ];
        for (name, algo, seams) in combos {
            for seam in seams {
                cases += 1;
                let plan = FaultPlan::seeded(cases).panic_on(seam, None, 1, "matrix");
                let mut sink = CollectingSink::new();
                let err = JoinQuery::new(&a, &b)
                    .within_distance(EPS)
                    .engine(algo.as_ref())
                    .trace(&plan)
                    .try_run(&mut sink)
                    .expect_err("the injected panic must surface as an error");
                assert_eq!(plan.fired(), 1, "{name}({threads})/{seam:?}: trigger must fire");
                match err {
                    JoinError::WorkerPanicked { phase, detail, .. } => {
                        assert_eq!(
                            phase,
                            expected_phase(seam),
                            "{name}({threads})/{seam:?}: wrong phase attribution"
                        );
                        assert!(
                            detail.contains("fault-injection: matrix"),
                            "{name}({threads})/{seam:?}: detail lost: {detail}"
                        );
                    }
                    other => {
                        panic!("{name}({threads})/{seam:?}: expected WorkerPanicked, got {other}")
                    }
                }
                // The fault left no residue: a clean rerun agrees with the baseline.
                let mut retry = CollectingSink::new();
                let _ = JoinQuery::new(&a, &b)
                    .within_distance(EPS)
                    .engine(algo.as_ref())
                    .run(&mut retry);
                assert_eq!(
                    retry.sorted_pairs(),
                    baseline_pairs,
                    "{name}({threads})/{seam:?}: post-fault rerun diverged"
                );
            }
        }
    }
}

/// The auto engine contains faults in whatever engine its plan resolves to.
#[test]
fn auto_engine_contains_node_join_faults() {
    silence_fault_panics();
    let a = synthetic(400, 53);
    let b = synthetic(500, 54);
    let plan = FaultPlan::seeded(9).panic_on(Seam::NodeJoin, None, 1, "auto");
    let mut sink = CollectingSink::new();
    let err = JoinQuery::new(&a, &b)
        .within_distance(EPS)
        .engine(Engine::Auto)
        .trace(&plan)
        .try_run(&mut sink)
        .expect_err("the injected panic must surface through the auto engine");
    assert!(matches!(err, JoinError::WorkerPanicked { phase: Phase::Join, .. }), "{err}");
    assert_eq!(plan.fired(), 1);

    let mut retry = CollectingSink::new();
    let report = JoinQuery::new(&a, &b).within_distance(EPS).engine(Engine::Auto).run(&mut retry);
    assert!(report.result_pairs() > 0, "the auto engine recovers");
}

/// A trigger pinned to one logical worker fires on exactly that worker, and
/// the error attributes the panic to it — at every parallel width.
///
/// The per-node joins of a small workload are microseconds, so an unaided
/// pinned trigger would race thread spawn: worker 0 can drain every queue
/// before its siblings start. The same plan therefore stalls every *other*
/// worker's first node join; the work queues are seeded round-robin, so the
/// target worker always claims from its own non-empty queue long before any
/// stalled sibling could finish a node and steal it — the pinned trigger
/// fires deterministically.
#[test]
fn worker_restricted_triggers_attribute_the_panic() {
    silence_fault_panics();
    let a = synthetic(500, 55);
    let b = synthetic(600, 56);
    for threads in [2usize, 4, 8] {
        let target = threads - 1;
        let mut plan =
            FaultPlan::seeded(threads as u64).panic_on(Seam::NodeJoin, Some(target), 1, "pinned");
        for w in 0..threads {
            if w != target {
                plan = plan.delay_on(Seam::NodeJoin, Some(w), 1, Duration::from_millis(25));
            }
        }
        let mut sink = CollectingSink::new();
        let err = JoinQuery::new(&a, &b)
            .within_distance(EPS)
            .engine(ParallelTouchJoin::with_threads(threads))
            .trace(&plan)
            .try_run(&mut sink)
            .expect_err("the pinned panic must surface");
        // The panic trigger fired (the stall triggers may or may not have,
        // depending on how far the siblings got before the abort flag).
        assert!(plan.fired() >= 1, "threads = {threads}");
        match err {
            JoinError::WorkerPanicked { phase, worker, detail } => {
                assert_eq!(phase, Phase::Join, "threads = {threads}");
                assert_eq!(worker, target, "threads = {threads}: wrong worker attribution");
                assert!(detail.contains("fault-injection: pinned"), "{detail}");
            }
            other => panic!("threads = {threads}: expected WorkerPanicked, got {other}"),
        }
    }
}

/// A panicked epoch worker fails that epoch only: it is not counted, nothing
/// merges into the cumulative record, its assignments (and in window mode the
/// window) are dropped, and the same batch pushed cleanly afterwards
/// reproduces a never-faulted stream — at 1 and 4 threads, plain and windowed.
#[test]
fn streaming_fault_drops_the_epoch_and_keeps_the_stream_usable() {
    silence_fault_panics();
    let a = synthetic(400, 57);
    let b = synthetic(500, 58);
    for (threads, window) in [(1usize, None), (4, None), (1, Some(2)), (4, Some(2))] {
        let case = format!("threads = {threads}, window = {window:?}");
        let config = StreamingConfig { threads, ..StreamingConfig::default() };
        let push = |engine: &mut StreamingTouchJoin, ctl| {
            let mut sink = CollectingSink::new();
            match window {
                None => engine.try_push_batch(b.objects(), &mut sink, ctl),
                Some(w) => engine.try_push_windowed(b.objects(), w, &mut sink, ctl),
            }
            .map(|report| (report, sink.sorted_pairs()))
        };
        let mut reference = StreamingTouchJoin::build_extended(&a, EPS, config);
        let (_, ref_pairs) = push(&mut reference, ExecControl::infallible()).unwrap();

        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, config);
        let plan =
            FaultPlan::seeded(threads as u64).panic_on(Seam::NodeJoin, None, 1, "epoch-fault");
        let err = push(&mut engine, ExecControl::with_trace(&plan))
            .expect_err("the injected panic must surface");
        assert!(matches!(err, JoinError::WorkerPanicked { phase: Phase::Join, .. }), "{err}");
        assert_eq!(engine.epochs(), 0, "{case}: a failed epoch is not counted");
        assert_eq!(engine.cumulative_report().counters.results, 0, "{case}");
        let residue = (engine.window_epochs(), engine.tree().assigned_b_count());
        assert_eq!(residue, (0, 0), "{case}: no window epoch or assignment survives");

        let (report, pairs) = push(&mut engine, ExecControl::infallible()).expect("clean retry");
        assert_eq!(report.completion, Completion::Complete);
        assert_eq!(pairs, ref_pairs, "{case}");
        let (got, want) = (engine.cumulative_report(), reference.cumulative_report());
        assert_eq!(got.counters, want.counters, "{case}: the recovered stream is never-faulted");
        assert_eq!(engine.epochs(), 1, "{case}");
    }
}

/// A panic inside the pre-commit generation build is contained before any
/// writer state moves: the version stays, the buffered delta survives, readers
/// keep serving the old generation bit-identically, and the retry commits.
#[test]
fn a_publish_panic_leaves_the_served_generation_intact() {
    silence_fault_panics();
    let a = dense(400, 59);
    let b = dense(400, 60);
    let server = JoinServer::new(&a, serve_cfg());
    let mut reader = server.reader();
    let mut before = CollectingSink::new();
    let before_report = reader.query(b.objects(), &mut before);
    let g0 = server.generation();

    let _ = server.insert(touch::Aabb::new(
        touch::Point3::new(1.0, 2.0, 3.0),
        touch::Point3::new(2.0, 3.0, 4.0),
    ));
    assert!(server.remove(0), "seed object 0 must be live");
    let delta = server.pending_delta();
    assert_eq!(delta, 2);

    let plan = FaultPlan::seeded(4).panic_on(Seam::Generation, None, 1, "publish");
    let err = server
        .try_publish(ExecControl::with_trace(&plan))
        .expect_err("the publish panic must be contained");
    assert!(matches!(err, JoinError::WorkerPanicked { .. }), "{err}");
    assert_eq!(plan.fired(), 1);
    assert_eq!(server.generation(), g0, "a failed publish must not move the version");
    assert_eq!(server.pending_delta(), delta, "the delta survives for retry");

    // Readers are unperturbed: same generation, same pairs.
    let mut after = CollectingSink::new();
    let after_report = reader.query(b.objects(), &mut after);
    assert_eq!(after_report.generation, before_report.generation);
    assert_eq!(after.sorted_pairs(), before.sorted_pairs());

    // The retry commits the buffered delta in full.
    let version = server.try_publish(ExecControl::infallible()).expect("retry publishes");
    assert_eq!(version, g0 + 1);
    assert_eq!(server.pending_delta(), 0);
    assert_eq!(server.snapshot().live(), a.len(), "one removal + one insert");
}

/// A panic anywhere inside a snapshot query — either coordinator phase
/// boundary or a node join — leaves the reader and the served generation fully
/// usable: the next clean query over the same reader agrees bit-identically.
#[test]
fn a_reader_query_panic_leaves_the_reader_usable() {
    silence_fault_panics();
    let a = dense(400, 61);
    let b = dense(400, 62);
    let server = JoinServer::new(&a, serve_cfg());
    let mut reader = server.reader();
    let mut clean = CollectingSink::new();
    let _ = reader.query(b.objects(), &mut clean);

    for (i, seam) in [Seam::Assignment, Seam::Join, Seam::NodeJoin].into_iter().enumerate() {
        let plan = FaultPlan::seeded(i as u64).panic_on(seam, None, 1, "query");
        let mut sink = CollectingSink::new();
        let err = reader
            .try_query(b.objects(), &mut sink, ExecControl::with_trace(&plan))
            .expect_err("the injected query panic must surface");
        match err {
            JoinError::WorkerPanicked { phase, .. } => {
                assert_eq!(phase, expected_phase(seam), "{seam:?}");
            }
            other => panic!("{seam:?}: expected WorkerPanicked, got {other}"),
        }
        assert_eq!(plan.fired(), 1, "{seam:?}");

        let mut retry = CollectingSink::new();
        let _ = reader
            .try_query(b.objects(), &mut retry, ExecControl::infallible())
            .expect("clean retry after the fault");
        assert_eq!(retry.sorted_pairs(), clean.sorted_pairs(), "{seam:?}");
    }
}

/// A tick fault abandons the tick — no record, no counters, pairs cleared,
/// tick counter unmoved — and the engine keeps ticking afterwards.
#[test]
fn a_tick_fault_abandons_the_tick_and_the_engine_recovers() {
    silence_fault_panics();
    let config = TickConfig::default().with_epsilon(30.0);
    let mut engine = TickEngine::new(World::random(300, 63), config);
    let first = engine.tick();
    assert!(first.pairs > 0, "degenerate world: no collisions in tick 1");

    let plan = FaultPlan::seeded(6).panic_on(Seam::NodeJoin, None, 1, "tick");
    let err = engine
        .try_tick(ExecControl::with_trace(&plan))
        .expect_err("the tick panic must be contained");
    assert!(matches!(err, JoinError::WorkerPanicked { phase: Phase::Join, .. }), "{err}");
    assert_eq!(plan.fired(), 1);
    assert!(engine.pairs().is_empty(), "the abandoned tick's pairs are cleared");
    assert_eq!(
        engine.counters().results,
        first.pairs,
        "the failed tick added nothing to the running counters"
    );

    let record = engine.try_tick(ExecControl::infallible()).expect("the engine keeps ticking");
    assert_eq!(record.tick, 2, "the abandoned tick never advanced the counter");
}

/// Injected delays model stalled workers, not failures: with no token armed
/// they perturb nothing but wall clock — pairs and counters bit-identical.
#[test]
fn delays_perturb_nothing_but_time() {
    let a = synthetic(400, 64);
    let b = synthetic(500, 65);
    let mut reference = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
    let mut ref_sink = CollectingSink::new();
    let _ = reference.push_batch(b.objects(), &mut ref_sink);

    let plan = FaultPlan::seeded(7)
        .delay_on(Seam::AssignChunk, None, 1, Duration::from_millis(2))
        .delay_on(Seam::NodeJoin, None, 2, Duration::from_millis(2))
        .delay_on(Seam::Epoch, None, 1, Duration::from_millis(2));
    let mut engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
    let mut sink = CollectingSink::new();
    let report = engine
        .try_push_batch(b.objects(), &mut sink, ExecControl::with_trace(&plan))
        .expect("delays are not failures");
    assert_eq!(report.completion, Completion::Complete);
    assert_eq!(plan.fired(), 3, "all three stalls must have fired");
    assert_eq!(sink.sorted_pairs(), ref_sink.sorted_pairs());
    assert_eq!(engine.cumulative_report().counters, reference.cumulative_report().counters);
}

/// A truncating bounded sink that would overflow is a hard
/// `ResourceExhausted` — never a silently clipped success — while a flushing
/// sink of the same capacity spills and completes.
#[test]
fn bounded_queries_exhaust_instead_of_silently_truncating() {
    let a = dense(500, 66);
    let b = dense(500, 67);
    let server = JoinServer::new(&a, serve_cfg());
    let mut reader = server.reader();
    let mut clean = CollectingSink::new();
    let clean_report = reader.query(b.objects(), &mut clean);
    let total = clean_report.result_pairs();
    assert!(total > 4, "workload too sparse to overflow a capacity of 3");

    let mut truncating = BoundedSink::truncating(3);
    let err = reader
        .try_query_bounded(b.objects(), &mut truncating, ExecControl::infallible())
        .expect_err("a clipped result set is a budget failure");
    match err {
        JoinError::ResourceExhausted { detail } => {
            assert!(detail.contains('3'), "the budget size is named: {detail}");
        }
        other => panic!("expected ResourceExhausted, got {other}"),
    }

    let mut roomy = BoundedSink::truncating(total as usize + 8);
    let report = reader
        .try_query_bounded(b.objects(), &mut roomy, ExecControl::infallible())
        .expect("a roomy budget is a plain success");
    assert_eq!(report.result_pairs(), total);

    let mut spilled: Vec<(ObjectId, ObjectId)> = Vec::new();
    let mut flushing = BoundedSink::flushing(3, |chunk| spilled.extend_from_slice(chunk));
    let report = reader
        .try_query_bounded(b.objects(), &mut flushing, ExecControl::infallible())
        .expect("flushing sinks spill instead of exhausting");
    assert_eq!(report.result_pairs(), total);
    assert_eq!(flushing.total(), total);
    let buffered = flushing.buffered().len() as u64;
    drop(flushing);
    let mut all: Vec<(ObjectId, ObjectId)> = spilled;
    assert_eq!(all.len() as u64 + buffered, total, "spill + buffer covers every pair");
    all.sort_unstable();
    let clean_set: HashSet<(ObjectId, ObjectId)> = clean.pairs().iter().copied().collect();
    assert!(all.iter().all(|p| clean_set.contains(p)));
}
