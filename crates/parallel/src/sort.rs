//! Multi-threaded Sort-Tile-Recursive (STR) partitioning.
//!
//! The tree-building phase of TOUCH is dominated by the STR sort of dataset A
//! (`O(n log n)` against the `O(n)` of bucket-MBR computation), so this module
//! parallelises exactly that. The structure of STR is reproduced from
//! [`touch_index::str_sort`] pass for pass:
//!
//! 1. the whole array is sorted by the x-centre — here with a **parallel stable
//!    merge sort** (per-thread stable chunk sorts + stable merges),
//! 2. the array is cut into vertical slabs, and each slab recurses on the remaining
//!    axes — here with the **slabs distributed over the worker threads** (they are
//!    disjoint sub-slices, so this is plain fork/join parallelism).
//!
//! Because every pass is *stable* and uses the same slab arithmetic as the
//! sequential implementation, [`par_str_sort`] produces **bit-identical tile order**
//! to `str_sort` for every thread count — the parallel join builds the exact same
//! tree as the sequential one, which is what makes its counters (not just its result
//! set) reproducible run-to-run and thread-count-to-thread-count.

use std::cmp::Ordering;
use touch_geom::{SpatialObject, DIMS};
use touch_index::cmp_coord;

/// Reorders `items` in place so that consecutive chunks of `cap` items form STR
/// tiles, using up to `threads` worker threads. Inputs of `seq_threshold` objects or
/// fewer are sorted sequentially (the merge overhead would outweigh the win).
///
/// Produces exactly the order of `touch_index::str_sort(items, |o| o.mbr.center(), cap)`.
/// Returns an upper bound on the peak auxiliary bytes the sort allocated (the merge
/// scratch buffers; 0 when every pass stayed sequential) so callers can fold the
/// transient footprint into their memory reports.
///
/// # Panics
/// Panics if `cap` is zero.
pub fn par_str_sort(
    items: &mut [SpatialObject],
    cap: usize,
    threads: usize,
    seq_threshold: usize,
) -> usize {
    assert!(cap > 0, "bucket capacity must be positive");
    str_axis(items, cap, 0, threads.max(1), seq_threshold.max(1))
}

// The sort workers run pure comparisons over slices — no panic sources short
// of allocation failure, where propagating the abort is the right outcome.
#[allow(clippy::expect_used)]
fn str_axis(
    items: &mut [SpatialObject],
    cap: usize,
    axis: usize,
    threads: usize,
    threshold: usize,
) -> usize {
    let n = items.len();
    if n <= cap {
        return 0;
    }
    // Below the sequential threshold nothing forks — neither the merge sort nor
    // the per-slab recursion; thread-spawn overhead would outweigh the work.
    let threads = if n <= threshold { 1 } else { threads };
    // The axis sort's scratch is freed before the slab recursion starts, so the
    // peak is the max of the two stages, not their sum.
    let sort_aux = par_sort_by_axis(items, axis, threads, threshold);
    if axis + 1 >= DIMS {
        return sort_aux;
    }
    // Same slab arithmetic as the sequential STR: S = ceil(P^(1/d_remaining)).
    let buckets = n.div_ceil(cap);
    let remaining_dims = (DIMS - axis) as f64;
    let slabs = (buckets as f64).powf(1.0 / remaining_dims).ceil() as usize;
    let slabs = slabs.clamp(1, buckets);
    let slab_size = n.div_ceil(slabs);

    // Cut into disjoint slab slices.
    let mut slices = Vec::with_capacity(slabs);
    let mut rest = items;
    while !rest.is_empty() {
        let take = slab_size.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        slices.push(head);
        rest = tail;
    }

    if threads <= 1 || slices.len() <= 1 {
        // Sequential slabs run one after another: peak = the largest single slab.
        let mut slab_aux = 0usize;
        for slab in slices {
            slab_aux = slab_aux.max(str_axis(slab, cap, axis + 1, 1, threshold));
        }
        return sort_aux.max(slab_aux);
    }

    // Fork/join: distribute the slabs round-robin over the workers; each slab
    // recurses sequentially (slab counts comfortably exceed thread counts for the
    // paper's 1024 partitions).
    let workers = threads.min(slices.len());
    let mut bundles: Vec<Vec<&mut [SpatialObject]>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slab) in slices.into_iter().enumerate() {
        bundles[i % workers].push(slab);
    }
    let slab_aux: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = bundles
            .into_iter()
            .map(|bundle| {
                scope.spawn(move || {
                    let mut peak = 0usize;
                    for slab in bundle {
                        peak = peak.max(str_axis(slab, cap, axis + 1, 1, threshold));
                    }
                    peak
                })
            })
            .collect();
        // Bundles run concurrently, so their peaks can coexist: sum them.
        handles.into_iter().map(|h| h.join().expect("sort worker panicked")).sum()
    });
    sort_aux.max(slab_aux)
}

#[inline]
fn cmp_axis(a: &SpatialObject, b: &SpatialObject, axis: usize) -> Ordering {
    cmp_coord(a.mbr.center().coord(axis), b.mbr.center().coord(axis))
}

/// Stable parallel sort of `items` by MBR-centre coordinate `axis`: stable
/// per-thread chunk sorts, then stable bottom-up merging. Stability makes the result
/// identical to a sequential `sort_by` for any thread count. Returns the bytes of
/// merge scratch allocated (0 on the sequential path).
fn par_sort_by_axis(
    items: &mut [SpatialObject],
    axis: usize,
    threads: usize,
    threshold: usize,
) -> usize {
    let n = items.len();
    if threads <= 1 || n <= threshold {
        items.sort_by(|a, b| cmp_axis(a, b, axis));
        return 0;
    }

    // Chunk boundaries: `threads` nearly equal runs.
    let chunk = n.div_ceil(threads);
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut at = 0;
    while at < n {
        bounds.push(at);
        at = (at + chunk).min(n);
    }
    bounds.push(n);

    // Sort the runs in parallel (disjoint sub-slices).
    std::thread::scope(|scope| {
        let mut rest = &mut *items;
        for window in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut(window[1] - window[0]);
            scope.spawn(move || head.sort_by(|a, b| cmp_axis(a, b, axis)));
            rest = tail;
        }
    });

    merge_runs(items, bounds, axis);
    std::mem::size_of_val(items) // the scratch buffer merge_runs used
}

/// Bottom-up stable merging of the sorted runs delimited by `bounds`.
fn merge_runs(items: &mut [SpatialObject], mut bounds: Vec<usize>, axis: usize) {
    let mut scratch: Vec<SpatialObject> = Vec::with_capacity(items.len());
    while bounds.len() > 2 {
        scratch.clear();
        let mut new_bounds = Vec::with_capacity(bounds.len() / 2 + 2);
        new_bounds.push(0);
        let mut i = 0;
        // Merge adjacent run pairs.
        while i + 2 < bounds.len() {
            merge_two(
                &items[bounds[i]..bounds[i + 1]],
                &items[bounds[i + 1]..bounds[i + 2]],
                &mut scratch,
                axis,
            );
            new_bounds.push(scratch.len());
            i += 2;
        }
        // Odd run out: carried over unchanged.
        if i + 1 < bounds.len() {
            scratch.extend_from_slice(&items[bounds[i]..bounds[i + 1]]);
            new_bounds.push(scratch.len());
        }
        items.copy_from_slice(&scratch);
        bounds = new_bounds;
    }
}

/// Stable two-way merge: on equal keys the left run's element goes first.
fn merge_two(
    left: &[SpatialObject],
    right: &[SpatialObject],
    out: &mut Vec<SpatialObject>,
    axis: usize,
) {
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if cmp_axis(&left[i], &right[j], axis) != Ordering::Greater {
            out.push(left[i]);
            i += 1;
        } else {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Dataset, Point3};
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
        let mut objs = pseudo_random_objects(2000, 9);
        // Parallel path: the x-axis merge sort allocates a full-size scratch.
        let aux = par_str_sort(&mut objs, 40, 4, 16);
        assert!(aux >= 2000 * std::mem::size_of::<SpatialObject>());
        // Sequential path (threshold above n): no scratch at all.
        let mut objs = pseudo_random_objects(2000, 9);
        assert_eq!(par_str_sort(&mut objs, 40, 4, 1_000_000), 0);
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

    /// Boxes with every fifth `min.x` NaN: the sort key the comparator must
    /// keep a total order on.
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
