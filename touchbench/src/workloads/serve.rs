//! `serve_rw`: writes beside reads on one served tree. An op is one round of
//! 64 inserts and 64 removals of the oldest inserts, one
//! `JoinServer::try_publish`, then 8 `SnapshotReader::try_query` calls over
//! consecutive windows of B.

use super::{
    completed, kernel_sample, plane_sweep_digest, same_as_entry_point, JoinCase, OpOutput, Scale,
    TracedOp, Workload,
};
use crate::measure::{derive_seed, digest_run, PairDigest};
use crate::spans::Recorder;
use std::collections::VecDeque;
use std::ops::Range;
use touch::core::deliver;
use touch::geom::{Aabb, Dataset, SpatialObject};
use touch::metrics::MemoryUsage;
use touch::{
    AssignmentBuffer, Counters, ExecControl, JoinServer, LocalJoinParams, LocalJoinScratch,
    ServeConfig, SnapshotReader,
};

const EPS: f64 = 3.0;
/// Inserts (and removals) per round.
const WRITES: usize = 64;
/// Inserted objects kept live: set up before the first round, then each round
/// inserts `WRITES` and removes the `WRITES` oldest.
const LIVE_INSERTS: usize = 256;
const QUERIES: usize = 8;
/// Every this-many-th query is checked against the plane-sweep oracle.
const CHECK_EVERY: u64 = 25;

pub struct Serve {
    /// Generation 0 of the served side: ε-extended A.
    a_ext: Dataset,
    b: Dataset,
    /// Raw boxes the rounds insert, in order (cycled).
    pool: Vec<Aabb>,
    next_insert: usize,
    /// The next round's inserts, ε-extended.
    exts: Vec<Aabb>,
    server: JoinServer,
    reader: SnapshotReader,
    query_len: usize,
    /// Start of the next query window in B.
    cursor: usize,
    /// The harness-side mirror of the live inserts (with their server ids),
    /// oldest first; the live set is `a_ext` plus these.
    inserted: VecDeque<SpatialObject>,
    queries: u64,
    /// The last round's queries: window, query number and digest.
    last_round: Vec<(Range<usize>, u64, PairDigest)>,
    /// The traced ops' reader-side memory (a `SnapshotReader` holds the same).
    buffer: AssignmentBuffer,
    scratch: LocalJoinScratch,
    work: Vec<usize>,
}

/// One query of a traced round, as the replay ran it.
struct ReplayedQuery {
    window: Range<usize>,
    counters: Counters,
    digest: PairDigest,
    join_nodes: usize,
}

impl Serve {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (n, query_len, pool) = match scale {
            Scale::Full => (80_000, 2_048, 16_384),
            Scale::Smoke => (2_000, 128, 1_024),
        };
        let a_ext = touch::datagen::uniform(n, derive_seed(seed, 6)).extended(EPS);
        let b = touch::datagen::uniform(n, derive_seed(seed, 7));
        let pool =
            touch::datagen::uniform(pool, derive_seed(seed, 8)).iter().map(|o| o.mbr).collect();
        let server = JoinServer::new(&a_ext, ServeConfig::default());
        let reader = server.reader();
        let mut serve = Serve {
            a_ext,
            b,
            pool,
            next_insert: 0,
            exts: Vec::with_capacity(WRITES),
            server,
            reader,
            query_len,
            cursor: 0,
            inserted: VecDeque::new(),
            queries: 0,
            last_round: Vec::new(),
            buffer: AssignmentBuffer::new(),
            scratch: LocalJoinScratch::new(),
            work: Vec::new(),
        };
        for _ in 0..LIVE_INSERTS / WRITES {
            serve.extend_inserts();
            serve.insert();
        }
        serve.server.publish();
        serve
    }

    /// ε-extends the next round's inserts from the pool.
    fn extend_inserts(&mut self) {
        self.exts.clear();
        for _ in 0..WRITES {
            self.exts.push(self.pool[self.next_insert % self.pool.len()].extended(EPS));
            self.next_insert += 1;
        }
    }

    fn insert(&mut self) {
        for &mbr in &self.exts {
            let id = self.server.insert(mbr);
            self.inserted.push_back(SpatialObject::new(id, mbr));
        }
    }

    /// Buffers the round's writes: the inserts, then removal of the oldest.
    fn mutate(&mut self) -> Result<(), String> {
        self.insert();
        for _ in 0..WRITES {
            let oldest = self.inserted.pop_front().ok_or("no live insert to remove")?;
            if !self.server.remove(oldest.id) {
                return Err(format!("the server does not know live object {}", oldest.id));
            }
        }
        Ok(())
    }

    fn publish(&self) -> Result<(), String> {
        self.server.try_publish(ExecControl::infallible()).map(|_| ()).map_err(|e| e.to_string())
    }

    fn next_window(&mut self) -> Range<usize> {
        if self.cursor + self.query_len > self.b.len() {
            self.cursor = 0;
        }
        self.cursor += self.query_len;
        self.cursor - self.query_len..self.cursor
    }

    /// The entry point's per-query local-join parameters for `batch`.
    fn params(&self, a_cell_floor: f64, batch: &[SpatialObject]) -> LocalJoinParams {
        let cfg = self.server.config().touch;
        cfg.local_join_params(a_cell_floor.max(cfg.min_local_cell_size_of_objects(batch)))
    }

    /// The traced round: writes and publish through the server, then each
    /// query as `try_query` runs it, over the published snapshot's tree.
    fn replay(&mut self, rec: &mut Recorder) -> Result<Vec<ReplayedQuery>, String> {
        rec.span("geom.extend", || self.extend_inserts());
        rec.span("serve.mutate", || self.mutate())?;
        rec.span("serve.publish", || self.publish())?;
        let mut queries = Vec::with_capacity(QUERIES);
        for _ in 0..QUERIES {
            let window = self.next_window();
            let snapshot = rec.span("serve.snapshot", || self.server.snapshot());
            let batch = &self.b.objects()[window.clone()];
            let params = rec.span("core.plan", || self.params(snapshot.a_cell_floor(), batch));
            let mut counters = Counters::new();
            rec.span("core.assign", || {
                self.buffer.clear();
                self.buffer.assign(snapshot.tree(), batch, &mut counters);
            });
            let mut results = 0;
            let ((), digest) = rec.span("core.join", || {
                digest_run(|sink| {
                    self.buffer.join(
                        snapshot.tree(),
                        &params,
                        &mut self.scratch,
                        &mut counters,
                        &mut |a, b| deliver(sink, a, b, &mut results),
                    );
                })
            });
            counters.results += results;
            self.buffer.work_into(snapshot.tree(), &mut self.work);
            queries.push(ReplayedQuery { window, counters, digest, join_nodes: self.work.len() });
        }
        Ok(queries)
    }
}

impl Workload for Serve {
    fn objects_per_op(&self) -> u64 {
        (2 * WRITES + QUERIES * self.query_len) as u64
    }

    fn op(&mut self) -> Result<OpOutput, String> {
        self.extend_inserts();
        self.mutate()?;
        self.publish()?;
        // The index is the published tree; the reader's join scratch is left
        // out (it keeps the capacity of the largest node joined so far).
        let mut out = OpOutput {
            digest: PairDigest::default(),
            counters: Counters::new(),
            memory_bytes: self.server.snapshot().tree().memory_bytes(),
            plan: None,
        };
        self.last_round.clear();
        for _ in 0..QUERIES {
            let window = self.next_window();
            let batch = &self.b.objects()[window.clone()];
            let (report, digest) =
                digest_run(|sink| self.reader.try_query(batch, sink, ExecControl::infallible()));
            let report = report.map_err(|e| e.to_string())?;
            completed(report.completion)?;
            out.digest.merge(digest);
            out.counters.merge(&report.counters);
            self.last_round.push((window, self.queries, digest));
            self.queries += 1;
        }
        Ok(out)
    }

    fn after_op(&mut self, _: &OpOutput) -> Result<(), String> {
        for (window, query, digest) in &self.last_round {
            if query % CHECK_EVERY != 0 {
                continue;
            }
            let mut live = self.a_ext.objects().to_vec();
            live.extend(self.inserted.iter().copied());
            let expected =
                plane_sweep_digest(&live, &self.b.objects()[window.clone()], |_, _| true);
            if *digest != expected {
                return Err(format!("query {query}: {digest:?}, the oracle {expected:?}"));
            }
        }
        Ok(())
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> Result<TracedOp, String> {
        let op = rec.begin_op();
        let replayed = self.replay(rec);
        rec.end(op);
        let queries = replayed?;

        let mut traced = TracedOp {
            counters: Counters::new(),
            digest: PairDigest::default(),
            probe_objects: 0,
            join_nodes: 0,
            tree_nodes: 0,
            tree_height: 0,
        };
        for ReplayedQuery { window, counters, digest, join_nodes } in queries {
            let batch = &self.b.objects()[window];
            let (report, entry_digest) =
                digest_run(|sink| self.reader.try_query(batch, sink, ExecControl::infallible()));
            let report = report.map_err(|e| e.to_string())?;
            same_as_entry_point((&counters, digest), (&report.counters, entry_digest))?;
            traced.counters.merge(&counters);
            traced.digest.merge(digest);
            traced.probe_objects += batch.len() as u64;
            traced.join_nodes += join_nodes;
        }
        let snapshot = self.server.snapshot();
        traced.tree_nodes = snapshot.tree().node_count();
        traced.tree_height = snapshot.tree().height();
        Ok(traced)
    }

    fn take_join_case(&mut self) -> Option<JoinCase> {
        let snapshot = self.server.snapshot();
        let window = self.cursor - self.query_len..self.cursor;
        let batch = &self.b.objects()[window];
        let mut tree = snapshot.tree().clone();
        tree.assign(batch, &mut Counters::new());
        let params = self.params(snapshot.a_cell_floor(), batch);
        Some(JoinCase { tree, params, swap: false, self_join: false })
    }

    fn kernel_boxes(&self) -> (Vec<Aabb>, Vec<Aabb>) {
        kernel_sample(self.a_ext.objects(), self.b.objects())
    }
}
