//! Pairwise join kernels shared by the local joins of TOUCH and of the baselines.
//!
//! Every partition-based algorithm (TOUCH, PBSM, S3, the R-tree traversal) eventually
//! joins two small sets of objects against each other. The paper's baselines use a
//! plane-sweep for this *local join*; TOUCH additionally offers a grid-based local
//! join (implemented next to the tree in [`crate::TouchTree`]) and the trivial
//! all-pairs scan. The two list kernels live here so that `touch-baselines` can reuse
//! them without duplicating the counting conventions.

//!
//! Both kernels follow the workspace's early-termination convention: `emit`
//! returns `true` to continue and `false` to stop the scan immediately (the way a
//! [`crate::PairSink`] that reports [`crate::PairSink::is_done`] — e.g.
//! [`crate::FirstKSink`] — cuts a join short). Emitters that never stop simply
//! return `true` unconditionally.
//!
//! Both kernels run their candidate tests through the run-level SIMD MBR
//! filter ([`crate::simd::overlap_contiguous`]): one call tests a whole
//! candidate window, up to [`simd::RUN_MAX`] candidates, and only lanes the
//! (exact) bitmask keeps reach the scalar confirmation, in candidate order.
//! Comparisons and batch counters are added per run afterwards, by the rule
//! in the [`simd`] module docs: a run walked to the end counts every
//! candidate, a run the emitter stopped counts up to the stopping lane and
//! its 4-lane batch. The totals equal counting one comparison per candidate
//! before its test, so pairs, emission order and counters are bit-identical
//! to the scalar reference on every backend, including under early
//! termination.

use crate::simd::{self, Backend};
use touch_geom::{ObjectId, SpatialObject};
use touch_metrics::Counters;

/// One probe object tested against a window of candidates through the
/// run-level filter. Returns `true` if `emit` stopped the scan. Emits
/// `(probe, other)` unless `flip` is set (the sweep's B-opens-first branch
/// emits `(other, probe)`).
#[inline]
fn probe_window(
    probe: &SpatialObject,
    window: &[SpatialObject],
    flip: bool,
    backend: Backend,
    counters: &mut Counters,
    emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
) -> bool {
    for run in window.chunks(simd::RUN_MAX) {
        let mask = simd::overlap_contiguous(backend, &probe.mbr, run);
        for lane in simd::set_lanes(mask) {
            let other = &run[lane];
            if probe.mbr.intersects(&other.mbr) {
                let go = if flip { emit(other.id, probe.id) } else { emit(probe.id, other.id) };
                if !go {
                    simd::record_run(counters, run.len(), mask, Some(lane));
                    return true;
                }
            }
        }
        simd::record_run(counters, run.len(), mask, None);
    }
    false
}

/// Compares every object of `a` against every object of `b` and emits the
/// intersecting pairs. `O(|a|·|b|)` comparisons, fewer if `emit` stops the scan.
pub fn all_pairs(
    a: &[SpatialObject],
    b: &[SpatialObject],
    counters: &mut Counters,
    emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
) {
    let backend = simd::backend();
    for oa in a {
        if probe_window(oa, b, false, backend, counters, emit) {
            return;
        }
    }
}

/// Plane-sweep join of two object lists (Preparata & Shamos).
///
/// Both lists are sorted by the lower x-coordinate of their MBRs, then scanned in
/// lock-step: each object is compared against the objects of the other list whose
/// x-interval overlaps its own (the classic *forward sweep*). Objects that are close
/// in x but far apart in y/z are still compared — exactly the redundant comparisons
/// the paper attributes to the plane-sweep approach — but objects separated in x are
/// never compared.
///
/// The slices are sorted in place; callers that need to preserve their order should
/// pass clones (the partition-based algorithms own their per-partition scratch lists,
/// so in-place sorting is what the paper's implementations do as well).
pub fn plane_sweep(
    a: &mut [SpatialObject],
    b: &mut [SpatialObject],
    counters: &mut Counters,
    emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    sort_by_xmin(a);
    sort_by_xmin(b);
    // SoA copy of the sort keys: the sweep advances and bounds its windows on
    // these two flat f64 arrays instead of re-reading a full 56-byte object per
    // probe — the window end is found before any candidate is touched, and the
    // window itself then goes through the batched filter.
    let a_xmin: Vec<f64> = a.iter().map(|o| o.mbr.min.x).collect();
    let b_xmin: Vec<f64> = b.iter().map(|o| o.mbr.min.x).collect();
    let backend = simd::backend();
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        if a_xmin[i] <= b_xmin[j] {
            // a[i] opens first: its window is the b-run still overlapping it in x.
            let upper = a[i].mbr.max.x;
            let mut end = j;
            while end < b.len() && b_xmin[end] <= upper {
                end += 1;
            }
            if probe_window(&a[i], &b[j..end], false, backend, counters, emit) {
                return;
            }
            i += 1;
        } else {
            let upper = b[j].mbr.max.x;
            let mut end = i;
            while end < a.len() && a_xmin[end] <= upper {
                end += 1;
            }
            if probe_window(&b[j], &a[i..end], true, backend, counters, emit) {
                return;
            }
            j += 1;
        }
    }
}

fn sort_by_xmin(objs: &mut [SpatialObject]) {
    // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: the latter is not a
    // total order when NaN coordinates slip in (NaN would compare "equal" to
    // everything), and `sort_unstable_by` may produce an arbitrary permutation —
    // or worse — under an inconsistent comparator. IEEE total ordering keeps the
    // sweep deterministic for every input.
    objs.sort_unstable_by(|p, q| p.mbr.min.x.total_cmp(&q.mbr.min.x));
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Dataset, Point3};

    fn dataset(seeds: &[(f64, f64, f64, f64)]) -> Dataset {
        // (x, y, z, side)
        Dataset::from_mbrs(seeds.iter().map(|&(x, y, z, s)| {
            let min = Point3::new(x, y, z);
            Aabb::new(min, min + Point3::splat(s))
        }))
    }

    fn brute(a: &Dataset, b: &Dataset) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if oa.mbr.intersects(&ob.mbr) {
                    out.push((oa.id, ob.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn pseudo_random_dataset(n: usize, seed: u64) -> Dataset {
        // Small deterministic LCG so the kernel tests need no external crates.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * 50.0, next() * 50.0, next() * 50.0);
            Aabb::new(min, min + Point3::splat(0.5 + next() * 3.0))
        }))
    }

    #[test]
    fn all_pairs_matches_brute_force_and_counts_everything() {
        let a = pseudo_random_dataset(40, 1);
        let b = pseudo_random_dataset(60, 2);
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        all_pairs(a.objects(), b.objects(), &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        pairs.sort_unstable();
        assert_eq!(pairs, brute(&a, &b));
        assert_eq!(counters.comparisons, 40 * 60);
    }

    #[test]
    fn plane_sweep_matches_brute_force() {
        let a = pseudo_random_dataset(80, 3);
        let b = pseudo_random_dataset(120, 4);
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let mut sa = a.objects().to_vec();
        let mut sb = b.objects().to_vec();
        plane_sweep(&mut sa, &mut sb, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        pairs.sort_unstable();
        assert_eq!(pairs, brute(&a, &b));
        // The sweep never does more work than the nested loop.
        assert!(counters.comparisons <= 80 * 120);
    }

    #[test]
    fn plane_sweep_prunes_x_separated_objects() {
        // Two groups far apart along x: the sweep must not compare across groups.
        let a = dataset(&[(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (100.0, 0.0, 0.0, 1.0)]);
        let b = dataset(&[(0.5, 0.0, 0.0, 1.0), (101.0, 0.0, 0.0, 1.0)]);
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let mut sa = a.objects().to_vec();
        let mut sb = b.objects().to_vec();
        plane_sweep(&mut sa, &mut sb, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        pairs.sort_unstable();
        assert_eq!(pairs, brute(&a, &b));
        assert!(
            counters.comparisons < 6,
            "sweep should skip cross-group tests, did {} comparisons",
            counters.comparisons
        );
    }

    #[test]
    fn plane_sweep_still_compares_y_separated_objects() {
        // Same x-interval, far apart in y: the paper's criticism of the plane-sweep —
        // the comparison happens (and is counted) even though it cannot match.
        let a = dataset(&[(0.0, 0.0, 0.0, 1.0)]);
        let b = dataset(&[(0.0, 50.0, 0.0, 1.0)]);
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let mut sa = a.objects().to_vec();
        let mut sb = b.objects().to_vec();
        plane_sweep(&mut sa, &mut sb, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        assert!(pairs.is_empty());
        assert_eq!(counters.comparisons, 1);
    }

    #[test]
    fn empty_inputs() {
        let a = pseudo_random_dataset(5, 9);
        let empty = Dataset::new();
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        all_pairs(a.objects(), empty.objects(), &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        let mut sa = a.objects().to_vec();
        let mut se = empty.objects().to_vec();
        plane_sweep(&mut sa, &mut se, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        plane_sweep(&mut se, &mut sa, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        assert!(pairs.is_empty());
        assert_eq!(counters.comparisons, 0);
    }

    #[test]
    fn duplicate_coordinates_are_handled() {
        // Many identical boxes: every pair intersects, reported exactly once per pair.
        let a = dataset(&[(0.0, 0.0, 0.0, 1.0); 5]);
        let b = dataset(&[(0.0, 0.0, 0.0, 1.0); 7]);
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let mut sa = a.objects().to_vec();
        let mut sb = b.objects().to_vec();
        plane_sweep(&mut sa, &mut sb, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        assert_eq!(pairs.len(), 35);
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 35, "no duplicates");
    }

    #[test]
    fn all_pairs_stops_when_emit_says_so() {
        // 5 × 7 identical boxes: every comparison matches. Stopping after the 3rd
        // emitted pair must leave the scan at 3 comparisons, not 35.
        let a = dataset(&[(0.0, 0.0, 0.0, 1.0); 5]);
        let b = dataset(&[(0.0, 0.0, 0.0, 1.0); 7]);
        let mut counters = Counters::new();
        let mut emitted = 0;
        all_pairs(a.objects(), b.objects(), &mut counters, &mut |_, _| {
            emitted += 1;
            emitted < 3
        });
        assert_eq!(emitted, 3);
        assert_eq!(counters.comparisons, 3, "the scan must stop with the emitter");
    }

    #[test]
    fn sort_by_xmin_is_total_even_with_nan_coordinates() {
        // A NaN x-min must not poison the comparator: `total_cmp` orders NaN after
        // every finite value, so the sweep stays deterministic and the finite
        // objects still join correctly against each other.
        let a = dataset(&[(5.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 1.0)]);
        let b = dataset(&[(0.5, 0.0, 0.0, 1.0), (4.8, 0.0, 0.0, 1.0)]);
        let mut sa = a.objects().to_vec();
        sa[1].mbr.min.x = f64::NAN;
        let mut expected = Vec::new();
        for oa in &sa {
            for ob in b.iter() {
                if oa.mbr.intersects(&ob.mbr) {
                    expected.push((oa.id, ob.id));
                }
            }
        }
        expected.sort_unstable();
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let mut sb = b.objects().to_vec();
        plane_sweep(&mut sa, &mut sb, &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        // NaN sorts last (IEEE total order), so the finite objects are swept in
        // ascending x and their intersections are all found.
        assert!(sa.last().unwrap().mbr.min.x.is_nan());
        pairs.sort_unstable();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn plane_sweep_stops_when_emit_says_so() {
        let a = dataset(&[(0.0, 0.0, 0.0, 1.0); 5]);
        let b = dataset(&[(0.0, 0.0, 0.0, 1.0); 7]);
        let mut counters = Counters::new();
        let mut sa = a.objects().to_vec();
        let mut sb = b.objects().to_vec();
        let mut emitted = 0;
        plane_sweep(&mut sa, &mut sb, &mut counters, &mut |_, _| {
            emitted += 1;
            emitted < 3
        });
        assert_eq!(emitted, 3);
        assert!(counters.comparisons < 35, "the sweep must stop with the emitter");
    }
}
