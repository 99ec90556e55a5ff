//! Comparison counters shared by all join algorithms.

use serde::{Deserialize, Serialize};

/// Counters incremented by every join algorithm while it runs.
///
/// The paper's headline metric is `comparisons`: the number of pairwise
/// *object–object* MBR intersection tests. Index-level tests (node MBR against node or
/// object MBR) are tracked separately in `node_tests` so that the reproduction counts
/// exactly what the paper counts. The remaining counters capture TOUCH-specific
/// behaviour (filtered objects, Figure 13) and de-duplication work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Object–object MBR intersection tests (the paper's "number of comparisons").
    pub comparisons: u64,
    /// Index-level MBR tests: node–node or node–object, not counted as comparisons.
    pub node_tests: u64,
    /// Result pairs reported.
    pub results: u64,
    /// Objects of dataset B discarded by filtering (TOUCH / S3), Figure 13.
    pub filtered: u64,
    /// Candidate pairs suppressed by the reference-point de-duplication rule
    /// (PBSM and the TOUCH grid local join).
    pub duplicates_suppressed: u64,
    /// Object replicas created by multiple-assignment partitioning (PBSM grid cells,
    /// TOUCH local-join grid cells). Drives the memory overhead the paper attributes
    /// to PBSM.
    pub replicas: u64,
    /// Candidate lanes fed through the run-level MBR filter
    /// (`simd::overlap_gathered` / `simd::overlap_contiguous`), counted in
    /// 4-lane batches: a run walked to the end adds all its candidates; a run
    /// the emitter stopped adds the lanes of the 4-lane batches up to and
    /// including the stopping lane. Counts *logical* lanes, so the value is
    /// machine-independent: the same join reports the same number whether the
    /// filter ran on AVX2, SSE2, NEON or the scalar fallback. Joins that do not
    /// use the filter (the R-tree probe of the indexed nested loop, for one)
    /// count comparisons but leave this at zero.
    pub batch_lanes: u64,
    /// Lanes the batched MBR filter passed on to the exact scalar confirmation
    /// (popcount of the overlap bitmask). Machine-independent like `batch_lanes`;
    /// `batch_hits / batch_lanes` is the filter's selectivity.
    pub batch_hits: u64,
}

impl Counters {
    /// A zeroed set of counters.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one object–object comparison.
    #[inline]
    pub fn record_comparison(&mut self) {
        self.comparisons += 1;
    }

    /// Records `n` object–object comparisons at once.
    #[inline]
    pub fn record_comparisons(&mut self, n: u64) {
        self.comparisons += n;
    }

    /// Records one index-level (node) MBR test.
    #[inline]
    pub fn record_node_test(&mut self) {
        self.node_tests += 1;
    }

    /// Records one reported result pair.
    #[inline]
    pub fn record_result(&mut self) {
        self.results += 1;
    }

    /// Records one filtered object of dataset B.
    #[inline]
    pub fn record_filtered(&mut self) {
        self.filtered += 1;
    }

    /// Records one pair suppressed by the reference-point rule.
    #[inline]
    pub fn record_duplicate_suppressed(&mut self) {
        self.duplicates_suppressed += 1;
    }

    /// Records one object replica created by multiple assignment.
    #[inline]
    pub fn record_replica(&mut self) {
        self.replicas += 1;
    }

    /// Records one batched MBR filter evaluation: `lanes` candidate lanes tested,
    /// of which `hits` survived the bitmask and went to the exact scalar check.
    #[inline]
    pub fn record_batch(&mut self, lanes: u64, hits: u64) {
        self.batch_lanes += lanes;
        self.batch_hits += hits;
    }

    /// Adds another set of counters to this one (e.g. to aggregate per-partition runs).
    pub fn merge(&mut self, other: &Counters) {
        self.comparisons += other.comparisons;
        self.node_tests += other.node_tests;
        self.results += other.results;
        self.filtered += other.filtered;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.replicas += other.replicas;
        self.batch_lanes += other.batch_lanes;
        self.batch_hits += other.batch_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = Counters::new();
        assert_eq!(c, Counters::default());
        assert_eq!(c.comparisons, 0);
        assert_eq!(c.results, 0);
    }

    #[test]
    fn increments() {
        let mut c = Counters::new();
        c.record_comparison();
        c.record_comparisons(4);
        c.record_node_test();
        c.record_result();
        c.record_filtered();
        c.record_duplicate_suppressed();
        c.record_replica();
        c.record_batch(4, 3);
        assert_eq!(c.comparisons, 5);
        assert_eq!(c.node_tests, 1);
        assert_eq!(c.results, 1);
        assert_eq!(c.filtered, 1);
        assert_eq!(c.duplicates_suppressed, 1);
        assert_eq!(c.replicas, 1);
        assert_eq!(c.batch_lanes, 4);
        assert_eq!(c.batch_hits, 3);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = Counters {
            comparisons: 1,
            node_tests: 2,
            results: 3,
            filtered: 4,
            duplicates_suppressed: 5,
            replicas: 6,
            batch_lanes: 7,
            batch_hits: 8,
        };
        let b = Counters {
            comparisons: 10,
            node_tests: 20,
            results: 30,
            filtered: 40,
            duplicates_suppressed: 50,
            replicas: 60,
            batch_lanes: 70,
            batch_hits: 80,
        };
        a.merge(&b);
        assert_eq!(a.comparisons, 11);
        assert_eq!(a.node_tests, 22);
        assert_eq!(a.results, 33);
        assert_eq!(a.filtered, 44);
        assert_eq!(a.duplicates_suppressed, 55);
        assert_eq!(a.replicas, 66);
        assert_eq!(a.batch_lanes, 77);
        assert_eq!(a.batch_hits, 88);
    }
}
