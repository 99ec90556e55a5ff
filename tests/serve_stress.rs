//! Stress tests for the `touch-serve` concurrency protocol: a writer hammering
//! insert/remove/publish while reader threads validate every snapshot they
//! observe. What the suite pins down:
//!
//! * **snapshot stability** — a held [`Generation`](touch::Generation) never
//!   changes, no matter how many generations the writer publishes past it:
//!   joining against it always reproduces the brute force over its own frozen
//!   A-objects,
//! * **monotonic publication** — versions observed by any one thread never go
//!   backwards,
//! * **final convergence** — once the writer stops, the served contents are
//!   exactly the writer's logical live set,
//! * **rotation pressure** — with many readers against a publisher rotating
//!   generations as fast as it can, no generation is freed out from under a
//!   reader that holds it.
//!
//! Randomness comes from an inline LCG so every run replays the same schedule
//! of mutations (the *interleaving* with readers is what varies).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use touch::{
    Aabb, AssignmentBuffer, CollectingSink, Counters, Dataset, JoinOrder, JoinServer,
    LocalJoinScratch, Point3, ServeConfig, SpatialObject, TouchConfig,
};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn boxed(&mut self) -> Aabb {
        let min = Point3::new(
            self.below(900) as f64 / 100.0,
            self.below(900) as f64 / 100.0,
            self.below(900) as f64 / 100.0,
        );
        Aabb::new(min, min + Point3::splat(0.5 + self.below(100) as f64 / 100.0))
    }
}

fn touch_cfg() -> TouchConfig {
    TouchConfig { partitions: 16, join_order: JoinOrder::TreeOnA, ..TouchConfig::default() }
}

fn brute(a_objects: &[SpatialObject], batch: &[SpatialObject]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in a_objects {
        for b in batch {
            if a.mbr.intersects(&b.mbr) {
                out.push((a.id, b.id));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Joins `batch` against a frozen generation exactly the way a reader does —
/// but against *this* generation, not whichever is current.
fn join_generation(
    snapshot: &touch::Generation,
    batch: &[SpatialObject],
    cfg: &TouchConfig,
) -> Vec<(u32, u32)> {
    let params = cfg
        .local_join_params(snapshot.a_cell_floor().max(cfg.min_local_cell_size_of_objects(batch)));
    let mut buffer = AssignmentBuffer::new();
    let mut scratch = LocalJoinScratch::default();
    let mut counters = Counters::default();
    buffer.assign(snapshot.tree(), batch, &mut counters);
    let mut pairs = Vec::new();
    buffer.join(snapshot.tree(), &params, &mut scratch, &mut counters, &mut |a, b| {
        pairs.push((a, b));
        true
    });
    pairs.sort_unstable();
    pairs
}

#[test]
fn held_snapshots_stay_valid_under_a_mutation_storm() {
    const WRITER_ROUNDS: u64 = 60;
    const READER_ITERATIONS: usize = 120;
    const READERS: usize = 3;

    let mut rng = Lcg(0x5eed_cafe);
    let mut a = Dataset::new();
    for _ in 0..150 {
        a.push_mbr(rng.boxed());
    }
    let batch: Arc<Vec<SpatialObject>> =
        Arc::new((0..120u32).map(|i| SpatialObject::new(i, rng.boxed())).collect());

    let config = ServeConfig { touch: touch_cfg(), ..ServeConfig::default() };
    let server = Arc::new(JoinServer::new(&a, config));
    let start = Arc::new(Barrier::new(READERS + 1));
    let stopped = Arc::new(AtomicBool::new(false));

    let writer = {
        let server = Arc::clone(&server);
        let start = Arc::clone(&start);
        let stopped = Arc::clone(&stopped);
        let mut live: Vec<u32> = (0..a.len() as u32).collect();
        thread::spawn(move || {
            start.wait();
            let mut rng = Lcg(0xfeed_beef);
            for round in 0..WRITER_ROUNDS {
                for _ in 0..=rng.below(4) {
                    if rng.below(3) == 0 && live.len() > 20 {
                        let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                        assert!(server.remove(victim), "{victim} should have been live");
                    } else {
                        live.push(server.insert(rng.boxed()));
                    }
                }
                assert_eq!(server.publish(), round + 1, "versions advance one per publish");
            }
            stopped.store(true, Ordering::SeqCst);
            live
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let server = Arc::clone(&server);
            let start = Arc::clone(&start);
            let batch = Arc::clone(&batch);
            thread::spawn(move || {
                start.wait();
                let cfg = touch_cfg();
                let mut reader = server.reader();
                let mut last_version = 0u64;
                let mut exact_hits = 0usize;
                for _ in 0..READER_ITERATIONS {
                    // A held snapshot must equal the brute force over its own
                    // frozen contents, however far the writer has moved on.
                    let held = server.snapshot();
                    assert!(held.version() >= last_version, "versions went backwards");
                    last_version = held.version();
                    assert_eq!(
                        join_generation(&held, &batch, &cfg),
                        brute(held.tree().a_objects(), &batch),
                        "generation {} was corrupted while held",
                        held.version()
                    );

                    // Opportunistic end-to-end check: when the reader's own
                    // query lands on a version we can still observe, its
                    // result must be that generation's exact answer.
                    let mut sink = CollectingSink::new();
                    let report = reader.query(&batch, &mut sink);
                    let version = report.generation.expect("serve reports stamp a generation");
                    assert!(version >= last_version);
                    let after = server.snapshot();
                    if after.version() == version {
                        assert_eq!(sink.sorted_pairs(), brute(after.tree().a_objects(), &batch));
                        exact_hits += 1;
                    }
                }
                exact_hits
            })
        })
        .collect();

    let live = writer.join().expect("writer panicked");
    let exact_hits: usize = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
    assert!(exact_hits > 0, "no reader ever caught a stable generation");

    // Convergence: the final generation serves exactly the writer's live set.
    let final_snapshot = server.snapshot();
    assert_eq!(final_snapshot.version(), WRITER_ROUNDS);
    let mut served: Vec<u32> = final_snapshot.tree().a_objects().iter().map(|o| o.id).collect();
    let mut expected = live;
    served.sort_unstable();
    expected.sort_unstable();
    assert_eq!(served, expected, "served contents diverged from the writer's live set");
    let mut sink = CollectingSink::new();
    let _ = server.reader().query(&batch, &mut sink);
    assert_eq!(sink.sorted_pairs(), brute(final_snapshot.tree().a_objects(), &batch));
}

/// Six readers against a publisher rotating 150 generations as fast as it
/// can: a generation a reader holds must never be freed or changed (reads
/// would return garbage pairs — caught by the per-snapshot brute force), and
/// contention on the served generation must degrade to waiting, not to
/// corruption.
#[test]
fn readers_survive_a_publisher_rotating_generations() {
    const PUBLISHES: u64 = 150;
    const READERS: usize = 6;

    let mut rng = Lcg(0x0dd_ba11);
    let mut a = Dataset::new();
    for _ in 0..60 {
        a.push_mbr(rng.boxed());
    }
    let batch: Arc<Vec<SpatialObject>> =
        Arc::new((0..40u32).map(|i| SpatialObject::new(i, rng.boxed())).collect());

    let config = ServeConfig { touch: touch_cfg(), delta_limit: None };
    let server = Arc::new(JoinServer::new(&a, config));
    let start = Arc::new(Barrier::new(READERS + 1));
    let stopped = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let server = Arc::clone(&server);
            let start = Arc::clone(&start);
            let stopped = Arc::clone(&stopped);
            let batch = Arc::clone(&batch);
            thread::spawn(move || {
                start.wait();
                let cfg = touch_cfg();
                let mut validated = 0usize;
                while !stopped.load(Ordering::SeqCst) || validated == 0 {
                    let held = server.snapshot();
                    assert_eq!(
                        join_generation(&held, &batch, &cfg),
                        brute(held.tree().a_objects(), &batch),
                        "generation {} freed or corrupted while held",
                        held.version()
                    );
                    validated += 1;
                }
                validated
            })
        })
        .collect();

    start.wait();
    let mut rng = Lcg(0xbad_5eed);
    let mut inserted: Vec<u32> = Vec::new();
    for round in 0..PUBLISHES {
        // Alternate growth and shrink so both fold directions rotate through.
        if round % 2 == 0 || inserted.is_empty() {
            inserted.push(server.insert(rng.boxed()));
        } else {
            let victim = inserted.swap_remove(rng.below(inserted.len() as u64) as usize);
            assert!(server.remove(victim));
        }
        assert_eq!(server.publish(), round + 1);
    }
    stopped.store(true, Ordering::SeqCst);
    for reader in readers {
        assert!(reader.join().expect("reader panicked") > 0);
    }
    assert_eq!(server.generation(), PUBLISHES);
}
