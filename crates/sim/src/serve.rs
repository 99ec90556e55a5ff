//! The serve-backed tick loop: each tick republishes the world through
//! [`JoinServer::publish`] and reads the pairs back through a snapshot reader.
//!
//! This is the integration path a live system would use — the simulation is
//! just another writer on the serving layer's A-side, and collision queries are
//! ordinary snapshot reads that could run concurrently with other readers. The
//! kernel-mode [`crate::TickEngine`] is the faster choice when the join is the
//! only consumer; this loop exists to prove (and test) that both paths see the
//! same physics: the per-tick **pair set is identical** to kernel mode
//! (counters differ — the server's full-rebuild path does its own accounting).

use std::time::Instant;

use touch_core::PairSink;
use touch_geom::{Dataset, ObjectId};
use touch_metrics::TickSummary;
use touch_serve::{JoinServer, ServeConfig, SnapshotReader};

use crate::{TickConfig, TickRecord, World};

/// A tick loop that maintains the world inside a [`JoinServer`].
///
/// Every tick replaces the whole A-side — remove last tick's ids, insert the
/// new (ε-extended) collision boxes, [`JoinServer::publish`] — and then joins
/// the *unextended* boxes against the fresh snapshot. A full replacement always
/// exceeds the server's delta-fold limit, so each publish takes the bulk
/// rebuild path: exactly the fresh STR sort the kernel-mode engine performs.
///
/// Server-side ids are monotonic, so tick `t`'s insertions occupy a contiguous
/// id range; the reader's sink subtracts the range base to recover entity
/// indices and keeps each unordered pair once (`i < j`), making the emitted
/// pairs directly comparable with [`crate::TickEngine::pairs`].
#[derive(Debug)]
pub struct ServeTickLoop {
    world: World,
    config: TickConfig,
    server: JoinServer,
    reader: SnapshotReader,
    live: Vec<ObjectId>,
    dataset: Dataset,
    extended: Dataset,
    pairs: Vec<(ObjectId, ObjectId)>,
    summary: TickSummary,
    ticks: usize,
}

impl ServeTickLoop {
    /// Builds the loop: the server's generation 0 holds `world`'s initial
    /// (ε-extended) boxes. `config.threads` and `config.collect_pairs` are
    /// ignored — the serving layer plans its own rebuilds, and a snapshot read
    /// always materialises its pairs.
    ///
    /// # Panics
    /// Panics if `config.epsilon` is negative, NaN or infinite, as
    /// [`TickEngine::new`](crate::TickEngine::new) does.
    pub fn new(world: World, config: TickConfig) -> Self {
        let eps = config.epsilon;
        assert!(
            eps.is_finite() && eps >= 0.0,
            "distance-join ε must be finite and non-negative, got {eps}"
        );
        let mut dataset = Dataset::new();
        world.fill_dataset(&mut dataset);
        let mut extended = Dataset::new();
        let initial = if config.epsilon > 0.0 {
            dataset.extend_into(config.epsilon, &mut extended);
            &extended
        } else {
            &dataset
        };
        let server = JoinServer::new(initial, ServeConfig::default());
        let live: Vec<ObjectId> = (0..world.len() as ObjectId).collect();
        let reader = server.reader();
        let entities = world.len();
        ServeTickLoop {
            world,
            config,
            server,
            reader,
            live,
            dataset,
            extended,
            pairs: Vec::new(),
            summary: TickSummary::new("tick:serve", entities),
            ticks: 0,
        }
    }

    /// Runs one tick: integrate, republish the A-side, snapshot-join.
    pub fn tick(&mut self) -> TickRecord {
        let start = Instant::now();
        self.world.step(self.config.dt);
        self.world.fill_dataset(&mut self.dataset);
        let eps = self.config.epsilon;
        let boxes = if eps > 0.0 {
            self.dataset.extend_into(eps, &mut self.extended);
            &self.extended
        } else {
            &self.dataset
        };
        for &id in &self.live {
            self.server.remove(id);
        }
        self.live.clear();
        for obj in boxes.objects() {
            self.live.push(self.server.insert(obj.mbr));
        }
        self.server.publish();

        let base = self.live.first().copied().unwrap_or(0);
        self.pairs.clear();
        let mut sink = OffsetSelfSink { base, pairs: &mut self.pairs };
        let _ = self.reader.query(self.dataset.objects(), &mut sink);
        self.pairs.sort_unstable();

        let latency_us = (start.elapsed().as_micros() as u64).max(1);
        let pairs = self.pairs.len() as u64;
        self.summary.record(latency_us, pairs, false);
        self.ticks += 1;
        TickRecord { tick: self.ticks, pairs, latency_us, replanned: false }
    }

    /// Runs `ticks` ticks, returning the per-tick records.
    pub fn run(&mut self, ticks: usize) -> Vec<TickRecord> {
        (0..ticks).map(|_| self.tick()).collect()
    }

    /// Last tick's collision pairs as sorted entity-index pairs `(i, j)` with
    /// `i < j`.
    pub fn pairs(&self) -> &[(ObjectId, ObjectId)] {
        &self.pairs
    }

    /// The simulated world (positions reflect all ticks run so far).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The snapshot generation currently published by the server.
    pub fn generation(&self) -> u64 {
        self.server.generation()
    }

    /// The running latency/pair summary.
    pub fn summary(&self) -> &TickSummary {
        &self.summary
    }
}

/// Maps server-side tree ids back to entity indices and keeps each unordered
/// pair once.
///
/// The reader emits `(tree_id, probe_id)` where the tree id lives in this
/// tick's contiguous server range and the probe id is already an entity index
/// (the batch is the entity dataset). Both orientations of every entity pair
/// arrive — the tree holds all entities, the batch holds all entities — so the
/// `i < j` filter keeps exactly one.
struct OffsetSelfSink<'a> {
    base: ObjectId,
    pairs: &'a mut Vec<(ObjectId, ObjectId)>,
}

impl PairSink for OffsetSelfSink<'_> {
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        let entity = a - self.base;
        if entity < b {
            self.pairs.push((entity, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TickEngine;

    #[test]
    fn serve_mode_sees_the_same_pairs_as_kernel_mode() {
        let config = TickConfig::default().with_epsilon(25.0);
        let mut kernel = TickEngine::new(World::random(130, 17), config);
        let mut serve = ServeTickLoop::new(World::random(130, 17), config);
        for t in 0..4 {
            let kr = kernel.tick();
            let sr = serve.tick();
            assert_eq!(kernel.pairs(), serve.pairs(), "tick {t}");
            assert_eq!(kr.pairs, sr.pairs, "tick {t}");
            assert_eq!(kernel.world(), serve.world(), "tick {t}");
        }
    }

    #[test]
    fn each_tick_advances_the_published_generation() {
        let mut serve = ServeTickLoop::new(World::random(40, 3), TickConfig::default());
        let g0 = serve.generation();
        serve.tick();
        let g1 = serve.generation();
        serve.tick();
        let g2 = serve.generation();
        assert!(g0 < g1 && g1 < g2);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_negative_epsilon_is_rejected() {
        let _ = ServeTickLoop::new(World::random(10, 1), TickConfig::default().with_epsilon(-1.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_nan_epsilon_is_rejected() {
        let config = TickConfig::default().with_epsilon(f64::NAN);
        let _ = ServeTickLoop::new(World::random(10, 1), config);
    }
}
