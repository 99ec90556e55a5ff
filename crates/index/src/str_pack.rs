//! Sort-Tile-Recursive (STR) bulk-loading partitioner.
//!
//! STR (Leutenegger, Lopez & Edgington, ICDE '97) groups spatially close objects into
//! buckets of (nearly) equal size: it sorts objects by the centre of their MBR along
//! the first dimension, cuts the sequence into vertical *slabs*, and recurses into
//! each slab with the remaining dimensions. The resulting consecutive runs of `cap`
//! objects have compact MBRs, which is why the paper uses STR both for TOUCH's
//! tree-building phase (Section 5.1) and for the bulk-loaded R-tree baseline.
//!
//! This is the workspace's only STR. Each axis pass is a stable sort on a `u64`
//! key per item ([`slice::sort_by_cached_key`]), so the tile order depends only
//! on the input order and the centres. [`par_str_sort`] runs the same recursion
//! and spreads the disjoint slabs over worker threads, which cannot change that
//! order: every thread count builds the same tiles as [`str_sort`].

use std::mem::size_of;
use touch_geom::{Point3, SpatialObject, DIMS};

/// Reorders `items` in place so that consecutive chunks of `cap` items form STR tiles
/// (spatially coherent buckets).
///
/// `center` extracts the point used for sorting — typically the centre of the item's
/// MBR. After the call, `items.chunks(cap)` are the STR buckets in tile order.
///
/// # Panics
/// Panics if `cap` is zero.
pub fn str_sort<T: Send>(items: &mut [T], center: impl Fn(&T) -> Point3 + Sync, cap: usize) {
    assert!(cap > 0, "bucket capacity must be positive");
    str_axis(items, &center, cap, 0, 1);
}

/// [`str_sort`] of `items` by MBR centre on up to `threads` worker threads: after
/// the x-pass, the slabs are dealt round-robin to the workers. Inputs of
/// `seq_threshold` objects or fewer are sorted on the calling thread, where
/// spawning would cost more than it saves. The order equals `str_sort`'s for every
/// `threads` and `seq_threshold`.
///
/// Returns an upper bound on the transient bytes the sort allocates, for callers'
/// memory reports: each pass holds one `(key, position)` pair per item it sorts
/// and concurrent slabs hold disjoint items, so the peak is one pair per item
/// (0 when `items` fit in one bucket and nothing is sorted).
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
    let n = items.len();
    let workers = if n <= seq_threshold { 1 } else { threads.max(1) };
    str_axis(items, &|o: &SpatialObject| o.mbr.center(), cap, 0, workers);
    if n <= cap {
        0
    } else {
        size_of::<(u64, usize)>() * n
    }
}

/// Sorts `items` along `axis`, cuts them into slabs and recurses into each slab
/// with the next axis. With `workers > 1` the slabs of this pass run on that many
/// scoped threads, each recursing on one thread.
fn str_axis<T: Send, C: Fn(&T) -> Point3 + Sync>(
    items: &mut [T],
    center: &C,
    cap: usize,
    axis: usize,
    workers: usize,
) {
    let n = items.len();
    if n <= cap {
        return;
    }
    items.sort_by_cached_key(|t| sort_key(center(t).coord(axis)));
    if axis + 1 >= DIMS {
        // Last dimension: the sorted order is the final tile order.
        return;
    }
    // Number of buckets still to form and number of slabs along this axis:
    // S = ceil(P^(1/d_remaining)) where P = ceil(n / cap).
    let buckets = n.div_ceil(cap);
    let remaining_dims = (DIMS - axis) as f64;
    let slabs = (buckets as f64).powf(1.0 / remaining_dims).ceil() as usize;
    let slab_size = n.div_ceil(slabs.clamp(1, buckets));
    let workers = workers.min(n.div_ceil(slab_size));
    if workers <= 1 {
        for slab in items.chunks_mut(slab_size) {
            str_axis(slab, center, cap, axis + 1, 1);
        }
        return;
    }
    let mut bundles: Vec<Vec<&mut [T]>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slab) in items.chunks_mut(slab_size).enumerate() {
        bundles[i % workers].push(slab);
    }
    // A worker panic is re-raised here once every worker has been joined.
    std::thread::scope(|scope| {
        for bundle in bundles {
            scope.spawn(move || {
                for slab in bundle {
                    str_axis(slab, center, cap, axis + 1, 1);
                }
            });
        }
    });
}

/// The key STR sorts a coordinate by: a `u64` whose unsigned order is IEEE
/// `total_cmp` after folding −0.0 onto +0.0. On non-NaN values that is
/// `partial_cmp`, so ±0.0 tie and the stable sort keeps their input order; a NaN
/// sorts beyond ±∞ by its sign, so NaN centres still leave a total order.
#[inline]
fn sort_key(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    // Negative values flip every bit (a larger magnitude sorts lower); the rest
    // set the sign bit, which lifts them above every negative value.
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use touch_geom::{Aabb, Dataset};

    fn grid_objects(side: usize) -> Vec<SpatialObject> {
        // side³ unit boxes on an integer lattice.
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(x as f64, y as f64, z as f64);
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(0.9)));
                }
            }
        }
        ds.objects().to_vec()
    }

    fn bucket_mbr(objs: &[SpatialObject]) -> Aabb {
        Aabb::union_all(objs.iter().map(|o| o.mbr)).unwrap()
    }

    fn ids(objs: &[SpatialObject]) -> Vec<u32> {
        objs.iter().map(|o| o.id).collect()
    }

    #[test]
    fn partition_preserves_every_item_exactly_once() {
        let mut objs = grid_objects(6);
        let mut before = ids(&objs);
        before.sort_unstable();
        str_sort(&mut objs, |o| o.mbr.center(), 16);
        let mut after = ids(&objs);
        after.sort_unstable();
        assert_eq!(before, after, "STR must be a permutation");
    }

    #[test]
    fn bucket_sizes_are_capacity_except_last() {
        let mut objs = grid_objects(5); // 125 objects
        str_sort(&mut objs, |o| o.mbr.center(), 16);
        let sizes: Vec<usize> = objs.chunks(16).map(<[_]>::len).collect();
        assert_eq!(sizes, [16, 16, 16, 16, 16, 16, 16, 125 - 7 * 16]);
    }

    #[test]
    fn str_buckets_are_tighter_than_shuffled_buckets() {
        // The point of STR: buckets of spatially close objects have far smaller MBR
        // volume than buckets formed from a scrambled object order.
        let mut shuffled = grid_objects(8); // 512 objects
        shuffled.sort_by_key(|o| (o.id as usize).wrapping_mul(2654435761) % 4096);
        let cap = 64;
        let shuffled_volume: f64 = shuffled.chunks(cap).map(|c| bucket_mbr(c).volume()).sum();
        let mut sorted = shuffled.clone();
        str_sort(&mut sorted, |o| o.mbr.center(), cap);
        let str_volume: f64 = sorted.chunks(cap).map(|c| bucket_mbr(c).volume()).sum();
        assert!(
            str_volume < shuffled_volume * 0.5,
            "STR volume {str_volume} should be well below shuffled volume {shuffled_volume}"
        );
    }

    #[test]
    fn small_inputs_are_single_bucket() {
        let mut objs = grid_objects(2); // 8 objects
        str_sort(&mut objs, |o| o.mbr.center(), 100);
        assert_eq!(ids(&objs), (0..8).collect::<Vec<_>>(), "one bucket keeps input order");
        assert_eq!(objs.chunks(100).count(), 1);
        let mut empty: Vec<SpatialObject> = Vec::new();
        str_sort(&mut empty, |o| o.mbr.center(), 4);
        assert_eq!(empty.chunks(4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let mut objs = grid_objects(2);
        str_sort(&mut objs, |o| o.mbr.center(), 0);
    }

    #[test]
    fn last_axis_is_sorted_within_slabs() {
        // For a 1-D-like dataset (all y=z=0) STR degenerates to a plain sort by x.
        let mut ds = Dataset::new();
        for x in [5.0, 1.0, 9.0, 3.0, 7.0, 0.0, 2.0, 8.0] {
            let min = Point3::new(x, 0.0, 0.0);
            ds.push_mbr(Aabb::new(min, min + Point3::splat(0.5)));
        }
        let mut objs = ds.objects().to_vec();
        str_sort(&mut objs, |o| o.mbr.center(), 2);
        let xs: Vec<f64> = objs.iter().map(|o| o.mbr.min.x).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(xs, sorted);
    }

    /// The comparator the reference STR sorts by: `partial_cmp`, with
    /// `total_cmp` where a NaN leaves it undefined.
    fn cmp_coord(a: f64, b: f64) -> Ordering {
        a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
    }

    /// The reference STR the keyed sort must reproduce, sharing no code with it:
    /// a stable `sort_by(cmp_coord)` per axis and its own slab arithmetic.
    fn reference_str(items: &mut [SpatialObject], cap: usize, axis: usize) {
        let n = items.len();
        if n <= cap {
            return;
        }
        items.sort_by(|a, b| cmp_coord(a.mbr.center().coord(axis), b.mbr.center().coord(axis)));
        if axis + 1 >= DIMS {
            return;
        }
        let buckets = n.div_ceil(cap);
        let slabs = (buckets as f64).powf(1.0 / (DIMS - axis) as f64).ceil() as usize;
        let slab_size = n.div_ceil(slabs.clamp(1, buckets));
        let mut start = 0;
        while start < n {
            let end = (start + slab_size).min(n);
            reference_str(&mut items[start..end], cap, axis + 1);
            start = end;
        }
    }

    fn fold(v: f64) -> f64 {
        if v == 0.0 {
            0.0
        } else {
            v
        }
    }

    #[test]
    fn cmp_coord_is_total_cmp_after_folding_zeros() {
        // Pins the reference comparator to the order `sort_key` must produce.
        let values = crate::float_cases::edge_values(-1.0, 0.5, 4);
        for &a in &values {
            for &b in &values {
                assert_eq!(cmp_coord(a, b), fold(a).total_cmp(&fold(b)), "{a:e} vs {b:e}");
                if !a.is_nan() && !b.is_nan() {
                    assert_eq!(Some(cmp_coord(a, b)), a.partial_cmp(&b), "{a:e} vs {b:e}");
                }
            }
        }
    }

    fn key_order(a: f64, b: f64) -> (Ordering, Ordering) {
        (sort_key(a).cmp(&sort_key(b)), fold(a).total_cmp(&fold(b)))
    }

    #[test]
    fn sort_key_orders_edge_values_as_folded_total_cmp() {
        let mut values = crate::float_cases::edge_values(0.0, 1.0, 4);
        values.extend(crate::float_cases::edge_values(-1e3, 0.1, 6));
        for &a in &values {
            for &b in &values {
                let (key, expected) = key_order(a, b);
                assert_eq!(
                    key,
                    expected,
                    "{a:e} ({:#018x}) vs {b:e} ({:#018x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        #[test]
        fn sort_key_orders_any_bit_pattern_as_folded_total_cmp(
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
        ) {
            let (a, b) = (f64::from_bits(a), f64::from_bits(b));
            for (x, y) in [(a, b), (a, -a), (-a, b), (b, -b)] {
                let (key, expected) = key_order(x, y);
                proptest::prop_assert_eq!(
                    key, expected, "{:e} ({:#018x}) vs {:e} ({:#018x})",
                    x, x.to_bits(), y, y.to_bits()
                );
            }
        }
    }

    /// Deterministic LCG-scattered boxes; every seventh shares one centre.
    fn pseudo_random_objects(n: usize, seed: u64) -> Vec<SpatialObject> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 10.0
        };
        let mut ds = Dataset::new();
        for i in 0..n {
            let min = if i % 7 == 0 {
                Point3::new(50.0, 50.0, 50.0)
            } else {
                Point3::new(next(), next(), next())
            };
            ds.push_mbr(Aabb::new(min, min + Point3::splat(1.0)));
        }
        ds.objects().to_vec()
    }

    /// Zero-extent boxes at every point of `coords`³, `copies` times over, so
    /// each centre is repeated.
    fn lattice_points(coords: &[f64], copies: usize) -> Vec<SpatialObject> {
        let mut objs = Vec::new();
        for _ in 0..copies {
            for &x in coords {
                for &y in coords {
                    for &z in coords {
                        let p = Point3::new(x, y, z);
                        let id = objs.len() as u32;
                        objs.push(SpatialObject { id, mbr: Aabb { min: p, max: p } });
                    }
                }
            }
        }
        objs
    }

    /// Boxes with every fifth `min.x` NaN: a sort key on which
    /// `partial_cmp(..).unwrap_or(Equal)` is not a total order.
    fn nan_every_fifth(n: usize) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                let min = Point3::new((f * 7.3) % 20.0, (f * 3.1) % 20.0, (f * 5.7) % 20.0);
                let mut mbr = Aabb { min, max: min + Point3::splat(1.0) };
                if i % 5 == 0 {
                    mbr.min.x = f64::NAN;
                }
                SpatialObject { id: i as u32, mbr }
            })
            .collect()
    }

    #[test]
    fn keyed_sorts_reproduce_the_comparator_str_at_every_thread_count() {
        let mut nans = pseudo_random_objects(300, 5);
        for (i, o) in nans.iter_mut().enumerate() {
            match i % 5 {
                0 => o.mbr.min.x = f64::NAN,
                1 => o.mbr.max.y = -f64::NAN,
                2 => o.mbr.min.z = f64::NAN,
                _ => {}
            }
        }
        let mut infinities = lattice_points(&[f64::NEG_INFINITY, -1.0, 1.0, f64::INFINITY], 2);
        let n = infinities.len() as u32;
        let everywhere =
            Aabb { min: Point3::splat(f64::NEG_INFINITY), max: Point3::splat(f64::INFINITY) };
        infinities.push(SpatialObject { id: n, mbr: everywhere }); // centre NaN on every axis
        let inputs = [
            ("NaN centres", nans),
            ("signed zeros", lattice_points(&[-0.0, 0.0], 16)),
            ("signed zeros beside ±1", lattice_points(&[1.0, -0.0, -1.0, 0.0], 3)),
            ("duplicate centres", lattice_points(&[2.0, 0.5, 1.0], 9)),
            ("infinities", infinities),
            ("pseudo-random", pseudo_random_objects(4097, 42)),
        ];
        for (name, original) in inputs {
            let n = original.len();
            for cap in [1, 3, n.div_ceil(16)] {
                let mut expected = original.clone();
                reference_str(&mut expected, cap, 0);
                let expected = ids(&expected);
                let mut actual = original.clone();
                str_sort(&mut actual, |o| o.mbr.center(), cap);
                assert_eq!(ids(&actual), expected, "{name}: str_sort, cap {cap}");
                for threads in [1, 2, 3, 8] {
                    let mut actual = original.clone();
                    par_str_sort(&mut actual, cap, threads, n / 2);
                    assert_eq!(ids(&actual), expected, "{name}: {threads} threads, cap {cap}");
                }
            }
        }
    }

    #[test]
    fn nan_centres_sort_without_panicking() {
        // 33 objects in buckets of 9: the sort `TouchTree::build` runs for 4
        // partitions.
        let mut objs = nan_every_fifth(33);
        str_sort(&mut objs, |o| o.mbr.center(), 9);
        let mut ids = ids(&objs);
        ids.sort_unstable();
        assert_eq!(ids, (0..33).collect::<Vec<_>>(), "STR must stay a permutation");
    }

    #[test]
    fn signed_zero_ties_keep_input_order() {
        // Zero-extent boxes at x = ±0.0 only: every key ties, so the stable
        // sort must leave them where they were.
        let mut objs: Vec<SpatialObject> = (0..12)
            .map(|i| {
                let x = if i % 3 == 0 { -0.0 } else { 0.0 };
                let p = Point3::new(x, 0.0, 0.0);
                SpatialObject { id: i, mbr: Aabb { min: p, max: p } }
            })
            .collect();
        str_sort(&mut objs, |o| o.mbr.center(), 2);
        assert_eq!(ids(&objs), (0..12).collect::<Vec<_>>());
    }
}
