//! Sort-Tile-Recursive (STR) bulk-loading partitioner.
//!
//! STR (Leutenegger, Lopez & Edgington, ICDE '97) groups spatially close objects into
//! buckets of (nearly) equal size: it sorts objects by the centre of their MBR along
//! the first dimension, cuts the sequence into vertical *slabs*, and recurses into
//! each slab with the remaining dimensions. The resulting consecutive runs of `cap`
//! objects have compact MBRs, which is why the paper uses STR both for TOUCH's
//! tree-building phase (Section 5.1) and for the bulk-loaded R-tree baseline.

use std::cmp::Ordering;
use touch_geom::Point3;

/// Reorders `items` in place so that consecutive chunks of `cap` items form STR tiles
/// (spatially coherent buckets).
///
/// `center` extracts the point used for sorting — typically the centre of the item's
/// MBR. After the call, `items.chunks(cap)` are the STR buckets in tile order.
pub fn str_sort<T>(items: &mut [T], center: impl Fn(&T) -> Point3 + Copy, cap: usize) {
    assert!(cap > 0, "bucket capacity must be positive");
    str_sort_axis(items, center, cap, 0);
}

/// Reorders `items` in place with [`str_sort`] and returns the bucket boundaries as
/// index ranges (`start..end` into the reordered slice).
pub fn str_partition<T>(
    items: &mut [T],
    center: impl Fn(&T) -> Point3 + Copy,
    cap: usize,
) -> Vec<std::ops::Range<usize>> {
    str_sort(items, center, cap);
    let n = items.len();
    let mut ranges = Vec::with_capacity(n.div_ceil(cap.max(1)));
    let mut start = 0;
    while start < n {
        let end = (start + cap).min(n);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

fn str_sort_axis<T>(
    items: &mut [T],
    center: impl Fn(&T) -> Point3 + Copy,
    cap: usize,
    axis: usize,
) {
    let n = items.len();
    if n <= cap {
        return;
    }
    sort_by_axis(items, center, axis);
    if axis + 1 >= touch_geom::DIMS {
        // Last dimension: the sorted order is the final tile order.
        return;
    }
    // Number of buckets still to form and number of slabs along this axis:
    // S = ceil(P^(1/d_remaining)) where P = ceil(n / cap).
    let buckets = n.div_ceil(cap);
    let remaining_dims = (touch_geom::DIMS - axis) as f64;
    let slabs = (buckets as f64).powf(1.0 / remaining_dims).ceil() as usize;
    let slabs = slabs.clamp(1, buckets);
    let slab_size = n.div_ceil(slabs);
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        str_sort_axis(&mut items[start..end], center, cap, axis + 1);
        start = end;
    }
}

fn sort_by_axis<T>(items: &mut [T], center: impl Fn(&T) -> Point3 + Copy, axis: usize) {
    items.sort_by(|a, b| cmp_coord(center(a).coord(axis), center(b).coord(axis)));
}

/// The order STR sorts coordinates by: IEEE `total_cmp` after folding −0.0
/// onto +0.0. It equals `partial_cmp` on every pair of non-NaN values (so
/// ±0.0 tie and a stable sort keeps their input order), and stays a total
/// order when a centre is NaN: NaN sorts beyond ±∞ by its sign, where
/// `partial_cmp(..).unwrap_or(Equal)` would call it equal to everything and
/// let the standard library's sort panic. `touch-parallel`'s STR sort uses the
/// same comparator, so both produce one tile order.
///
/// Computed as `partial_cmp` with a `total_cmp` fallback, which is the same
/// order: the two agree on every non-NaN pair once zeros are folded, and on a
/// pair holding a NaN the fold changes nothing. The fast path keeps the sort
/// as cheap as the `partial_cmp` it replaces.
#[inline]
pub fn cmp_coord(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Dataset, SpatialObject};

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

    #[test]
    fn partition_preserves_every_item_exactly_once() {
        let mut objs = grid_objects(6);
        let before: Vec<u32> = {
            let mut ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            ids
        };
        let ranges = str_partition(&mut objs, |o| o.mbr.center(), 16);
        let mut after: Vec<u32> = objs.iter().map(|o| o.id).collect();
        after.sort_unstable();
        assert_eq!(before, after, "STR must be a permutation");
        // Ranges cover 0..n without gaps or overlap.
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, objs.len());
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, objs.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn bucket_sizes_are_capacity_except_last() {
        let mut objs = grid_objects(5); // 125 objects
        let ranges = str_partition(&mut objs, |o| o.mbr.center(), 16);
        assert_eq!(ranges.len(), 8);
        for r in &ranges[..ranges.len() - 1] {
            assert_eq!(r.len(), 16);
        }
        assert_eq!(ranges.last().unwrap().len(), 125 - 7 * 16);
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
        let ranges = str_partition(&mut sorted, |o| o.mbr.center(), cap);
        let str_volume: f64 = ranges.iter().map(|r| bucket_mbr(&sorted[r.clone()]).volume()).sum();
        assert!(
            str_volume < shuffled_volume * 0.5,
            "STR volume {str_volume} should be well below shuffled volume {shuffled_volume}"
        );
    }

    #[test]
    fn small_inputs_are_single_bucket() {
        let mut objs = grid_objects(2); // 8 objects
        let ranges = str_partition(&mut objs, |o| o.mbr.center(), 100);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0], 0..8);
        let mut empty: Vec<SpatialObject> = Vec::new();
        assert!(str_partition(&mut empty, |o| o.mbr.center(), 4).is_empty());
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

    #[test]
    fn cmp_coord_is_total_cmp_after_folding_zeros() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            2.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let fold = |v: f64| if v == 0.0 { 0.0 } else { v };
        for a in values {
            for b in values {
                assert_eq!(cmp_coord(a, b), fold(a).total_cmp(&fold(b)), "{a:e} vs {b:e}");
                if !a.is_nan() && !b.is_nan() {
                    assert_eq!(Some(cmp_coord(a, b)), a.partial_cmp(&b), "{a:e} vs {b:e}");
                }
            }
        }
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
    fn nan_centres_sort_without_panicking() {
        // 33 objects in buckets of 9: the sort `TouchTree::build` runs for 4
        // partitions.
        let mut objs = nan_every_fifth(33);
        str_sort(&mut objs, |o| o.mbr.center(), 9);
        let mut ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
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
        assert_eq!(objs.iter().map(|o| o.id).collect::<Vec<_>>(), (0..12).collect::<Vec<_>>());
    }
}
