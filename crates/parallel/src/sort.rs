//! Multi-threaded Sort-Tile-Recursive (STR) partitioning.
//!
//! The tree-building phase of TOUCH is dominated by the STR sort of dataset A.
//! [`par_str_sort`] is [`touch_index::par_str_sort`], the one STR implementation,
//! re-exported here under its old path; the phases' build entry
//! ([`crate::phases::build_tree`]) sorts with it. After its x-pass it spreads the disjoint slabs over the worker threads; each pass is a
//! stable keyed sort, so the tile order, and with it the tree, is the same for
//! every thread count.

pub use touch_index::par_str_sort;

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Dataset, Point3, SpatialObject};
    use touch_index::str_sort;

    fn pseudo_random_objects(n: usize, seed: u64) -> Vec<SpatialObject> {
        // Deterministic LCG-scattered boxes, including duplicate centres to
        // exercise tie stability.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 10.0
        };
        let mut ds = Dataset::new();
        for i in 0..n {
            let min = if i % 7 == 0 {
                Point3::new(50.0, 50.0, 50.0) // repeated centre: tie-break stress
            } else {
                Point3::new(next(), next(), next())
            };
            ds.push_mbr(Aabb::new(min, min + Point3::splat(1.0)));
        }
        ds.objects().to_vec()
    }

    #[test]
    fn matches_sequential_str_sort_for_every_thread_count() {
        for n in [0usize, 1, 63, 64, 1000, 4097] {
            let original = pseudo_random_objects(n, 42);
            let mut expected = original.clone();
            let cap = n.div_ceil(16).max(1);
            str_sort(&mut expected, |o| o.mbr.center(), cap);
            for threads in [1, 2, 3, 8] {
                let mut actual = original.clone();
                // Tiny threshold so the parallel path actually runs.
                par_str_sort(&mut actual, cap, threads, 8);
                let expected_ids: Vec<u32> = expected.iter().map(|o| o.id).collect();
                let actual_ids: Vec<u32> = actual.iter().map(|o| o.id).collect();
                assert_eq!(
                    actual_ids, expected_ids,
                    "n = {n}, threads = {threads}: tile order must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn is_a_permutation() {
        let original = pseudo_random_objects(2500, 7);
        let mut sorted = original.clone();
        par_str_sort(&mut sorted, 40, 4, 16);
        let mut before: Vec<u32> = original.iter().map(|o| o.id).collect();
        let mut after: Vec<u32> = sorted.iter().map(|o| o.id).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn aux_bytes_reflect_the_merge_scratch() {
        // One cached `(key, position)` pair per item, on the parallel path
        // (threshold below n) and the sequential one (threshold above n) alike.
        let pairs = 2000 * std::mem::size_of::<(u64, usize)>();
        for threshold in [16, 1_000_000] {
            let mut objs = pseudo_random_objects(2000, 9);
            assert_eq!(par_str_sort(&mut objs, 40, 4, threshold), pairs, "threshold {threshold}");
        }
        // A single bucket sorts nothing.
        let mut objs = pseudo_random_objects(40, 9);
        assert_eq!(par_str_sort(&mut objs, 40, 4, 16), 0);
    }

    #[test]
    fn small_inputs_stay_below_threshold() {
        let mut objs = pseudo_random_objects(100, 3);
        let expected = {
            let mut e = objs.clone();
            str_sort(&mut e, |o| o.mbr.center(), 10);
            e.iter().map(|o| o.id).collect::<Vec<_>>()
        };
        par_str_sort(&mut objs, 10, 8, 8192); // threshold keeps it sequential
        assert_eq!(objs.iter().map(|o| o.id).collect::<Vec<_>>(), expected);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let mut objs = pseudo_random_objects(8, 1);
        par_str_sort(&mut objs, 0, 2, 1);
    }

    /// Boxes with every fifth `min.x` NaN: centres `partial_cmp` cannot order.
    fn nan_every_fifth(n: usize) -> Vec<SpatialObject> {
        let mut objs = pseudo_random_objects(n, 5);
        for o in objs.iter_mut().step_by(5) {
            o.mbr.min.x = f64::NAN;
        }
        objs
    }

    #[test]
    fn nan_centres_match_the_sequential_sort_at_every_thread_count() {
        let original = nan_every_fifth(100);
        let mut expected = original.clone();
        str_sort(&mut expected, |o| o.mbr.center(), 9);
        let expected: Vec<u32> = expected.iter().map(|o| o.id).collect();
        for threads in [1, 2, 3, 8] {
            let mut actual = original.clone();
            par_str_sort(&mut actual, 9, threads, 16);
            let actual: Vec<u32> = actual.iter().map(|o| o.id).collect();
            assert_eq!(actual, expected, "threads = {threads}");
        }
    }

    #[test]
    fn signed_zero_ties_keep_input_order_in_parallel() {
        // Zero-extent boxes whose coordinates are ±0.0 in every sign pattern:
        // all keys tie on every axis, so every pass must keep input order.
        let zero = |bit: usize| if bit == 1 { -0.0 } else { 0.0 };
        let original: Vec<SpatialObject> = (0..64)
            .map(|i| {
                let p = Point3::new(zero(i & 1), zero(i >> 1 & 1), zero(i >> 2 & 1));
                SpatialObject { id: i as u32, mbr: Aabb { min: p, max: p } }
            })
            .collect();
        for threads in [1, 2, 3, 8] {
            let mut objs = original.clone();
            par_str_sort(&mut objs, 4, threads, 8);
            let ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
            assert_eq!(ids, (0..64).collect::<Vec<_>>(), "threads = {threads}");
        }
    }
}
