//! Result collection: the [`PairSink`] trait and its standard implementations.
//!
//! Every join engine in the workspace reports its result pairs through a
//! `&mut dyn PairSink`. The trait decouples *finding* pairs from *consuming* them:
//! the same engine can count ([`CountingSink`]), materialise ([`CollectingSink`]),
//! stream pairs into arbitrary user code without buffering ([`CallbackSink`]) or
//! stop early once enough results arrived ([`FirstKSink`]) — and parallel engines
//! go through the same interface via the [`ShardedSink`] adapter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use touch_geom::ObjectId;

/// A consumer of spatial-join result pairs.
///
/// Engines report **every** result pair `(a, b)` — oriented as `(id_in_A, id_in_B)`
/// regardless of the join order chosen internally — through [`PairSink::push`],
/// exactly once per pair.
///
/// # Early termination
///
/// A sink may signal that it has seen enough by returning `true` from
/// [`PairSink::is_done`]. Engines honour the signal inside their local-join loops:
/// they stop scanning as soon as they observe it (sequential engines check after
/// every delivered pair; the parallel engines propagate a shared pair budget from
/// [`PairSink::pair_limit`] to their worker shards). The signal is a *permission to
/// stop*, not an obligation — a sink must tolerate further `push` calls after
/// reporting done.
///
/// # Counting-only consumers
///
/// A sink that does not need the pair identities returns `false` from
/// [`PairSink::wants_pairs`]. Engines still `push` every pair they find one by one,
/// but *merging* paths (e.g. a [`ShardedSink`] draining its per-worker shards) may
/// instead transfer whole tallies through [`PairSink::add_count`] — such a sink
/// **must** override `add_count`, or bulk counts are silently dropped by the
/// default no-op.
pub trait PairSink {
    /// Consumes one result pair `(id_in_A, id_in_B)`.
    fn push(&mut self, a: ObjectId, b: ObjectId);

    /// `true` (the default) if the sink needs the identities of the pairs; `false`
    /// if a tally is enough ([`CountingSink`]), letting merge paths skip pair
    /// materialisation entirely.
    fn wants_pairs(&self) -> bool {
        true
    }

    /// `true` once the sink has seen enough pairs; engines stop their local-join
    /// loops as soon as they observe it. Defaults to `false` (never stop).
    fn is_done(&self) -> bool {
        false
    }

    /// Upper bound on the number of further pairs this sink will accept, or `None`
    /// (the default) for unbounded sinks. Parallel engines convert the limit into a
    /// budget shared by their worker shards so early termination also works when
    /// pairs are produced concurrently.
    fn pair_limit(&self) -> Option<u64> {
        None
    }

    /// Consumes a tally of `n` pairs whose identities were not materialised.
    ///
    /// Only called by merge paths, and only when [`PairSink::wants_pairs`] is
    /// `false`. The default implementation drops the tally — counting sinks must
    /// override it.
    fn add_count(&mut self, n: u64) {
        let _ = n;
    }

    /// Called exactly once by the query layer after the join completed, giving
    /// buffering sinks a flush point. Defaults to a no-op.
    fn finish(&mut self) {}
}

/// Delivers one result pair to `sink` following the early-termination protocol,
/// and counts it in `results` only if it was actually pushed.
///
/// This is the one implementation of the per-pair delivery step every engine's
/// emit closure needs: nothing is pushed into a sink that already reported
/// [`PairSink::is_done`], `results` stays equal to the pairs the sink received,
/// and the returned value follows the [`kernels`](crate::kernels) emit
/// convention — `true` to continue the scan, `false` to stop it. Engines use it
/// as `&mut |a, b| deliver(sink, a, b, &mut results)`.
#[inline]
pub fn deliver(sink: &mut dyn PairSink, a: ObjectId, b: ObjectId, results: &mut u64) -> bool {
    if sink.is_done() {
        return false;
    }
    sink.push(a, b);
    *results += 1;
    !sink.is_done()
}

/// A sink that tallies result pairs without materialising them.
///
/// This is the mode the experiment harness runs in: at the paper's dataset sizes
/// the result set can reach billions of pairs, and only the count matters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    count: u64,
}

impl CountingSink {
    /// A fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pairs reported so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl PairSink for CountingSink {
    #[inline]
    fn push(&mut self, _a: ObjectId, _b: ObjectId) {
        self.count += 1;
    }

    fn wants_pairs(&self) -> bool {
        false
    }

    fn add_count(&mut self, n: u64) {
        self.count += n;
    }
}

/// A sink that materialises every result pair in arrival order.
#[derive(Debug, Clone, Default)]
pub struct CollectingSink {
    pairs: Vec<(ObjectId, ObjectId)>,
}

impl CollectingSink {
    /// A fresh collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pairs collected so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.pairs.len() as u64
    }

    /// The materialised pairs, in arrival order.
    #[inline]
    pub fn pairs(&self) -> &[(ObjectId, ObjectId)] {
        &self.pairs
    }

    /// Consumes the sink and returns the materialised pairs.
    pub fn into_pairs(self) -> Vec<(ObjectId, ObjectId)> {
        self.pairs
    }

    /// The pairs sorted lexicographically — convenient for comparing the output of
    /// different algorithms in tests.
    pub fn sorted_pairs(&self) -> Vec<(ObjectId, ObjectId)> {
        let mut p = self.pairs.clone();
        p.sort_unstable();
        p
    }

    /// Resets the sink to its empty state, keeping the allocation.
    pub fn clear(&mut self) {
        self.pairs.clear();
    }
}

impl PairSink for CollectingSink {
    #[inline]
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        self.pairs.push((a, b));
    }
}

/// A sink that hands every pair to a closure, materialising nothing.
///
/// This is the zero-copy streaming consumer: pairs flow straight from the join's
/// inner loops into user code (a network writer, an aggregation, a spill file)
/// without ever being buffered by the join.
#[derive(Debug, Clone)]
pub struct CallbackSink<F: FnMut(ObjectId, ObjectId)> {
    callback: F,
    count: u64,
}

impl<F: FnMut(ObjectId, ObjectId)> CallbackSink<F> {
    /// Wraps `callback` as a sink.
    pub fn new(callback: F) -> Self {
        CallbackSink { callback, count: 0 }
    }

    /// Number of pairs forwarded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consumes the sink, returning the wrapped callback.
    pub fn into_inner(self) -> F {
        self.callback
    }
}

impl<F: FnMut(ObjectId, ObjectId)> PairSink for CallbackSink<F> {
    #[inline]
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        self.count += 1;
        (self.callback)(a, b);
    }
}

/// A sink that keeps only the first `k` pairs and then tells the engine to stop.
///
/// Engines honour the stop signal in their local-join loops, so a `FirstKSink`
/// over a selective query ends the join long before the full result set is
/// enumerated — the building block for `EXISTS`-style probes and top-k previews.
/// Under a parallel engine the *number* of returned pairs is still exactly
/// `min(k, |result|)`, but *which* pairs arrive first depends on worker scheduling.
#[derive(Debug, Clone)]
pub struct FirstKSink {
    limit: usize,
    pairs: Vec<(ObjectId, ObjectId)>,
}

impl FirstKSink {
    /// A sink that accepts at most `limit` pairs.
    pub fn new(limit: usize) -> Self {
        FirstKSink { limit, pairs: Vec::new() }
    }

    /// The configured limit `k`.
    #[inline]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Number of pairs accepted so far (at most `k`).
    #[inline]
    pub fn count(&self) -> u64 {
        self.pairs.len() as u64
    }

    /// The accepted pairs, in arrival order.
    #[inline]
    pub fn pairs(&self) -> &[(ObjectId, ObjectId)] {
        &self.pairs
    }

    /// Consumes the sink and returns the accepted pairs.
    pub fn into_pairs(self) -> Vec<(ObjectId, ObjectId)> {
        self.pairs
    }

    /// Restores the full budget of `k` pairs, discarding everything accepted so
    /// far (the capacity is kept).
    ///
    /// A `FirstKSink` is stateful across joins by design — its budget is
    /// *consumed*, so reusing one sink for a second stream silently starts with
    /// `k - count()` remaining (and a [`ShardedSink`] built from it derives an
    /// already-spent shared budget from [`PairSink::pair_limit`]). Engines that
    /// reset their own state between streams (`StreamingTouchJoin::reset`)
    /// cannot reach into the caller's sink; call this alongside the engine
    /// reset so stream 2 observes the same early-termination behaviour as
    /// stream 1.
    pub fn reset(&mut self) {
        self.pairs.clear();
    }
}

impl PairSink for FirstKSink {
    #[inline]
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        if self.pairs.len() < self.limit {
            self.pairs.push((a, b));
        }
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.pairs.len() >= self.limit
    }

    fn pair_limit(&self) -> Option<u64> {
        Some((self.limit - self.pairs.len().min(self.limit)) as u64)
    }
}

/// A self-join filter adapter: forwards only pairs `(a, b)` with `a < b` to the
/// wrapped sink, dropping identity pairs and one orientation of every mirrored
/// duplicate.
///
/// This is the correctness backstop behind [`crate::join_contained`]'s
/// [`Shape::SelfJoin`](crate::Shape::SelfJoin) form: any engine that joins a dataset against itself emits each unordered pair
/// twice (once per orientation) plus every identity pair, and wrapping its sink
/// in a `SelfPairSink` reduces that stream to each unordered pair exactly once.
/// The TOUCH engines do **not** rely on it — they apply the same index-order
/// filter inside their local-join kernels, so shared pair budgets
/// ([`PairSink::pair_limit`]) are spent on post-filter pairs only — but the
/// baselines reach self-join correctness through this adapter alone.
///
/// The adapter always reports [`PairSink::wants_pairs`]` == true` (it must see
/// identities to filter) and deliberately drops [`PairSink::add_count`] tallies:
/// bulk counts are pre-filter and would double-count.
pub struct SelfPairSink<'a> {
    inner: &'a mut dyn PairSink,
    delivered: u64,
}

impl std::fmt::Debug for SelfPairSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfPairSink").field("delivered", &self.delivered).finish_non_exhaustive()
    }
}

impl<'a> SelfPairSink<'a> {
    /// Wraps `inner`, forwarding only pairs with `a < b`.
    pub fn new(inner: &'a mut dyn PairSink) -> Self {
        SelfPairSink { inner, delivered: 0 }
    }

    /// Number of pairs that passed the filter and reached the inner sink.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl PairSink for SelfPairSink<'_> {
    #[inline]
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        if a < b {
            self.inner.push(a, b);
            self.delivered += 1;
        }
    }

    /// Always `true`: the filter needs pair identities even when the inner sink
    /// only counts, otherwise merge paths would transfer unfiltered tallies.
    fn wants_pairs(&self) -> bool {
        true
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn pair_limit(&self) -> Option<u64> {
        self.inner.pair_limit()
    }

    /// Dropped by design: a bulk tally carries no identities, so it cannot be
    /// filtered and would double-count mirrored pairs.
    fn add_count(&mut self, _n: u64) {}
}

/// One shard of a [`ShardedSink`]: a private result collector owned by a single
/// worker thread.
///
/// A shard is deliberately *not* shared: each worker pushes into its own shard
/// without synchronisation, and the shards are merged into the caller's
/// [`PairSink`] when the parallel section is over. A shard mirrors the caller's
/// [`PairSink::wants_pairs`] mode — so merging never materialises more than the
/// caller asked for — and participates in the sink's early-termination protocol
/// through a budget of pairs shared atomically between all shards (see
/// [`ShardedSink::for_sink`]).
#[derive(Debug, Clone)]
pub struct SinkShard {
    collect: bool,
    count: u64,
    pairs: Vec<(ObjectId, ObjectId)>,
    /// Remaining global pair budget shared with the sibling shards, when the
    /// target sink declared a [`PairSink::pair_limit`].
    budget: Option<Arc<AtomicU64>>,
    exhausted: bool,
}

impl SinkShard {
    /// Number of pairs reported into this shard so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The pairs materialised in this shard (empty in counting mode).
    #[inline]
    pub fn pairs(&self) -> &[(ObjectId, ObjectId)] {
        &self.pairs
    }

    /// Tries to reserve one unit of the shared pair budget. Returns `false` — and
    /// marks the shard exhausted — once the budget is spent.
    #[inline]
    fn reserve(&mut self) -> bool {
        let Some(budget) = &self.budget else { return true };
        if budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1)).is_ok() {
            true
        } else {
            self.exhausted = true;
            false
        }
    }
}

impl PairSink for SinkShard {
    /// Reports one result pair `(a, b)` into this shard. When the shared pair
    /// budget is exhausted the pair is dropped and [`PairSink::is_done`] starts
    /// returning `true`, which makes the owning worker stop its local joins.
    #[inline]
    fn push(&mut self, a: ObjectId, b: ObjectId) {
        if self.exhausted || !self.reserve() {
            return;
        }
        self.count += 1;
        if self.collect {
            self.pairs.push((a, b));
        }
    }

    fn wants_pairs(&self) -> bool {
        self.collect
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.exhausted
    }
}

/// A thread-safe result-collection adapter for parallel joins: one [`SinkShard`]
/// per worker, all presenting the caller's [`PairSink`] contract.
///
/// `PairSink::push` takes `&mut self`, so a user sink cannot be shared between
/// workers. `ShardedSink` is the concurrent counterpart used by the multi-worker
/// join phase ([`crate::phases::par_join_into_ctl`]):
/// it is split into independent shards handed to worker threads (via
/// [`ShardedSink::shards_mut`] and `split_at_mut`-style slice borrows, e.g.
/// `iter_mut` inside [`std::thread::scope`]), then drained back into the caller's
/// sink with [`ShardedSink::merge_into`]. No locks are involved for the pairs
/// themselves — disjoint `&mut` borrows are the synchronisation — and the only
/// shared state is the optional atomic pair budget that propagates
/// [`PairSink::pair_limit`] early termination across workers.
#[derive(Debug, Clone)]
pub struct ShardedSink {
    shards: Vec<SinkShard>,
}

impl ShardedSink {
    /// A sharded sink whose shards only count result pairs.
    pub fn counting(shards: usize) -> Self {
        Self::with_mode(false, shards, None)
    }

    /// A sharded sink whose shards count and materialise result pairs.
    pub fn collecting(shards: usize) -> Self {
        Self::with_mode(true, shards, None)
    }

    /// A sharded sink matching `sink`'s collection mode and pair budget, so that
    /// [`ShardedSink::merge_into`] loses nothing the caller asked for and
    /// early-terminating sinks stop the workers.
    pub fn for_sink(sink: &dyn PairSink, shards: usize) -> Self {
        let budget = sink.pair_limit().map(|limit| Arc::new(AtomicU64::new(limit)));
        Self::with_mode(sink.wants_pairs(), shards, budget)
    }

    fn with_mode(collect: bool, shards: usize, budget: Option<Arc<AtomicU64>>) -> Self {
        assert!(shards > 0, "a sharded sink needs at least one shard");
        ShardedSink {
            shards: vec![
                SinkShard {
                    collect,
                    count: 0,
                    pairs: Vec::new(),
                    budget,
                    exhausted: false
                };
                shards
            ],
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Mutable access to the shards, for handing one to each worker thread.
    #[inline]
    pub fn shards_mut(&mut self) -> &mut [SinkShard] {
        &mut self.shards
    }

    /// Total number of pairs reported across all shards.
    pub fn total_count(&self) -> u64 {
        self.shards.iter().map(|s| s.count).sum()
    }

    /// Drains every shard into `sink`, in shard order, and returns the number of
    /// pairs the sink actually received.
    ///
    /// If `sink` wants pairs, the materialised pairs are pushed one by one
    /// (stopping early if the sink reports done — which is why the returned count,
    /// not [`ShardedSink::total_count`], is what belongs in `counters.results`);
    /// otherwise the shard tallies are transferred in bulk through
    /// [`PairSink::add_count`].
    pub fn merge_into(self, sink: &mut dyn PairSink) -> u64 {
        let mut delivered = 0u64;
        if sink.wants_pairs() {
            'drain: for shard in self.shards {
                for (a, b) in shard.pairs {
                    if !deliver(sink, a, b, &mut delivered) {
                        break 'drain;
                    }
                }
            }
        } else {
            delivered = self.total_count();
            sink.add_count(delivered);
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tallies_without_materialising() {
        let mut s = CountingSink::new();
        assert!(!s.wants_pairs());
        s.push(1, 2);
        s.push(3, 4);
        s.add_count(5);
        assert_eq!(s.count(), 7);
        assert!(!s.is_done());
        assert_eq!(s.pair_limit(), None);
    }

    #[test]
    fn collecting_sink_materialises_in_order() {
        let mut s = CollectingSink::new();
        assert!(s.wants_pairs());
        s.push(3, 4);
        s.push(1, 2);
        assert_eq!(s.count(), 2);
        assert_eq!(s.pairs(), &[(3, 4), (1, 2)]);
        assert_eq!(s.sorted_pairs(), vec![(1, 2), (3, 4)]);
        s.clear();
        assert_eq!(s.count(), 0);
        s.push(9, 9);
        assert_eq!(s.into_pairs(), vec![(9, 9)]);
    }

    #[test]
    fn callback_sink_forwards_without_buffering() {
        let mut seen = Vec::new();
        let mut s = CallbackSink::new(|a, b| seen.push((a, b)));
        s.push(1, 10);
        s.push(2, 20);
        assert_eq!(s.count(), 2);
        assert_eq!(seen, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn first_k_sink_stops_at_the_limit() {
        let mut s = FirstKSink::new(2);
        assert_eq!(s.limit(), 2);
        assert_eq!(s.pair_limit(), Some(2));
        assert!(!s.is_done());
        s.push(1, 1);
        assert_eq!(s.pair_limit(), Some(1));
        s.push(2, 2);
        assert!(s.is_done());
        assert_eq!(s.pair_limit(), Some(0));
        s.push(3, 3); // ignored: the sink is full
        assert_eq!(s.count(), 2);
        assert_eq!(s.into_pairs(), vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn zero_limit_first_k_is_done_immediately() {
        let s = FirstKSink::new(0);
        assert!(s.is_done());
        assert_eq!(s.pair_limit(), Some(0));
    }

    #[test]
    fn sharded_sink_merges_counts_and_pairs() {
        let mut sink = CollectingSink::new();
        let mut sharded = ShardedSink::for_sink(&sink, 3);
        assert_eq!(sharded.shard_count(), 3);
        sharded.shards_mut()[0].push(1, 10);
        sharded.shards_mut()[2].push(2, 20);
        sharded.shards_mut()[2].push(3, 30);
        assert_eq!(sharded.total_count(), 3);
        assert_eq!(sharded.shards_mut()[2].count(), 2);
        assert_eq!(sharded.shards_mut()[2].pairs(), &[(2, 20), (3, 30)]);
        sharded.merge_into(&mut sink);
        assert_eq!(sink.count(), 3);
        assert_eq!(sink.sorted_pairs(), vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn sharded_sink_counting_mode_transfers_tallies() {
        let mut sink = CountingSink::new();
        let mut sharded = ShardedSink::for_sink(&sink, 2);
        assert!(!sharded.shards_mut()[0].wants_pairs());
        sharded.shards_mut()[0].push(1, 1);
        sharded.shards_mut()[1].push(2, 2);
        assert!(sharded.shards_mut()[0].pairs().is_empty(), "counting shards buffer nothing");
        sharded.merge_into(&mut sink);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn sharded_sink_merge_preserves_prior_sink_contents() {
        let mut sink = CollectingSink::new();
        sink.push(9, 9);
        let mut sharded = ShardedSink::collecting(2);
        sharded.shards_mut()[1].push(5, 5);
        sharded.merge_into(&mut sink);
        assert_eq!(sink.count(), 2);
        assert_eq!(sink.sorted_pairs(), vec![(5, 5), (9, 9)]);
    }

    #[test]
    fn shared_budget_caps_pairs_across_shards() {
        let mut sink = FirstKSink::new(3);
        let mut sharded = ShardedSink::for_sink(&sink, 2);
        for i in 0..10 {
            sharded.shards_mut()[(i % 2) as usize].push(i, i);
        }
        assert_eq!(sharded.total_count(), 3, "the shared budget caps accepted pairs");
        assert!(sharded.shards_mut().iter().all(|s| s.is_done()), "all shards observed the cap");
        sharded.merge_into(&mut sink);
        assert_eq!(sink.count(), 3);
        assert!(sink.is_done());
    }

    #[test]
    fn merge_into_respects_a_sink_that_became_done() {
        let mut sink = FirstKSink::new(1);
        let mut sharded = ShardedSink::collecting(2); // no budget: unbounded shards
        sharded.shards_mut()[0].push(1, 1);
        sharded.shards_mut()[1].push(2, 2);
        sharded.merge_into(&mut sink);
        assert_eq!(sink.count(), 1, "merge stops pushing once the sink is done");
    }

    #[test]
    fn shards_can_be_used_from_scoped_threads() {
        let mut sharded = ShardedSink::collecting(4);
        std::thread::scope(|scope| {
            for (i, shard) in sharded.shards_mut().iter_mut().enumerate() {
                scope.spawn(move || {
                    for j in 0..10 {
                        shard.push(i as ObjectId, j);
                    }
                });
            }
        });
        assert_eq!(sharded.total_count(), 40);
    }

    #[test]
    fn budgeted_shards_are_exact_under_concurrency() {
        let mut sink = FirstKSink::new(25);
        let mut sharded = ShardedSink::for_sink(&sink, 4);
        std::thread::scope(|scope| {
            for (i, shard) in sharded.shards_mut().iter_mut().enumerate() {
                scope.spawn(move || {
                    for j in 0..100 {
                        shard.push(i as ObjectId, j);
                    }
                });
            }
        });
        assert_eq!(sharded.total_count(), 25, "exactly k pairs survive the shared budget");
        sharded.merge_into(&mut sink);
        assert_eq!(sink.count(), 25);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedSink::counting(0);
    }

    #[test]
    fn self_pair_sink_keeps_only_strictly_ordered_pairs() {
        let mut inner = CollectingSink::new();
        let mut filter = SelfPairSink::new(&mut inner);
        assert!(filter.wants_pairs(), "forced on so merges never bulk-transfer");
        filter.push(1, 2); // kept
        filter.push(2, 1); // mirrored duplicate — dropped
        filter.push(3, 3); // identity — dropped
        filter.add_count(100); // pre-filter tally — dropped
        assert_eq!(filter.delivered(), 1);
        assert_eq!(inner.pairs(), &[(1, 2)]);
    }

    #[test]
    fn self_pair_sink_delegates_termination_to_the_inner_sink() {
        let mut inner = FirstKSink::new(2);
        let mut filter = SelfPairSink::new(&mut inner);
        assert_eq!(filter.pair_limit(), Some(2));
        filter.push(0, 1);
        filter.push(1, 0); // dropped — budget untouched
        assert!(!filter.is_done());
        filter.push(2, 5);
        assert!(filter.is_done());
        assert_eq!(filter.pair_limit(), Some(0));
        assert_eq!(filter.delivered(), 2);
        assert_eq!(inner.into_pairs(), vec![(0, 1), (2, 5)]);
    }
}
