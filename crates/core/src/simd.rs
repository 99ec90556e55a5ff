//! Runtime-dispatched SIMD primitives for the join kernels: the run-level
//! MBR overlap filter and the counting rule that goes with it.
//!
//! The join phase of TOUCH is bounded by one operation: testing a probe MBR
//! against a run of candidate MBRs. [`overlap_gathered`] (a CSR candidate run:
//! indices into an MBR array) and [`overlap_contiguous`] (a slice of objects)
//! test up to [`RUN_MAX`] candidates per call and return a `u64` mask, with
//! `core::arch` intrinsics — AVX2 or SSE2 on `x86_64`, NEON on `aarch64` —
//! selected **at runtime** by feature detection, with a scalar fallback
//! everywhere else. Each backend has one loop body that walks the whole run
//! inside a single dispatch, so the dispatch, the AVX2 feature re-check and
//! the probe-vector set-up are paid once per run, not once per [`LANES`]
//! candidates. Both forms are *zero-copy*: candidate corners are
//! vector-loaded straight out of the `repr(C)` [`Aabb`]s against precomputed
//! probe vectors, with no transpose into SoA form. [`overlap_run`] is the
//! gathered form restricted to at most [`LANES`] candidates.
//!
//! ## The bit-identity contract
//!
//! The SIMD pass produces a *candidate bitmask*, never a decision. Every lane
//! the mask keeps is re-confirmed by the exact scalar [`Aabb::intersects`]
//! before a pair is emitted, and the mask itself is exact by construction: all
//! six comparisons are IEEE-754 `<=` on `f64`, which every backend (vector or
//! scalar) evaluates identically, including the all-false behaviour on NaN.
//! A short run tests only its valid lanes, so the bits above them stay
//! clear. Consequently pairs, emission order and every [`Counters`] field
//! are bit-identical across AVX2, SSE2, NEON and the scalar fallback — the
//! invariant `tests/simd_equivalence.rs` locks down.
//!
//! ## Counting a run
//!
//! The kernels walk only the set bits of a run's mask, in ascending lane
//! order, and count the run in bulk afterwards. A run of `n` candidates with
//! mask `m` that was walked to the end adds `n` comparisons, `n` batch lanes
//! and `popcount(m)` batch hits. If the emitter stopped the join at lane `ℓ`,
//! the run adds `ℓ + 1` comparisons, and batch lanes and hits for the
//! [`LANES`]-wide batches up to and including the one holding `ℓ`:
//! `e = min(n, LANES·(ℓ/LANES + 1))` lanes and `popcount(m & (2^e − 1))`
//! hits. These are exactly the totals of counting one comparison per
//! candidate and one batch per [`LANES`] candidates, as the unbatched scalar
//! walk does, including under early termination.
//!
//! ## Forcing the fallback
//!
//! * `TOUCH_NO_SIMD=1` (any non-empty value other than `0`) in the environment
//!   disables the vector backends at startup;
//! * building `touch-core` with the `scalar-only` feature compiles them out
//!   entirely;
//! * [`force_backend`] overrides the dispatch at runtime (test harnesses use
//!   this to run every backend inside one process).
//!
//! [`Counters`]: touch_metrics::Counters
//! [`Aabb::intersects`]: touch_geom::Aabb::intersects

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use touch_geom::{Aabb, SpatialObject};
use touch_metrics::Counters;

/// The *logical* batch width the counters are kept in, and the most
/// candidates one [`overlap_run`] call takes. Every backend reports the same
/// 4-lane batches, so batch-level counters are machine-independent.
pub const LANES: usize = 4;

/// The most candidates one run-level call ([`overlap_gathered`],
/// [`overlap_contiguous`]) takes: the width of the mask it returns. A multiple
/// of [`LANES`], so chunking a run by `RUN_MAX` keeps the 4-lane batch
/// boundaries where they were.
pub const RUN_MAX: usize = 64;

/// The instruction set a run is filtered on. Obtain the detected one with
/// [`backend`]; pass a specific one to [`overlap_gathered`] or
/// [`overlap_contiguous`] to pin it (kernels read [`backend`] once per call
/// and pass it down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 256-bit AVX2 path: all four lanes in one register per coordinate
    /// (`x86_64` only).
    Avx2,
    /// 128-bit SSE2 path: two lanes per register, two halves per batch
    /// (`x86_64` only; SSE2 is part of the baseline ISA).
    Sse2,
    /// 128-bit NEON path: two lanes per register (`aarch64` only; NEON is part
    /// of the baseline ISA).
    Neon,
    /// Scalar-unrolled fallback; also the only backend under the `scalar-only`
    /// feature or `TOUCH_NO_SIMD=1`.
    Scalar,
}

impl Backend {
    /// Every backend, preferred first. Useful for equivalence harnesses:
    /// filter with [`Backend::is_supported`] and run each.
    pub const ALL: [Backend; 4] = [Backend::Avx2, Backend::Sse2, Backend::Neon, Backend::Scalar];

    /// Stable lowercase name (documentation, traces, bench output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Sse2 => "sse2",
            Backend::Neon => "neon",
            Backend::Scalar => "scalar",
        }
    }

    /// `true` if this backend can execute on the running machine (and was not
    /// compiled out by the `scalar-only` feature). [`Backend::Scalar`] is
    /// always supported.
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
            Backend::Sse2 => true,
            #[cfg(all(target_arch = "aarch64", not(feature = "scalar-only")))]
            Backend::Neon => true,
            Backend::Scalar => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

/// The backend [`detect`]ion chose at startup, honouring `TOUCH_NO_SIMD`.
fn detected() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let disabled = std::env::var("TOUCH_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0");
        if disabled {
            return Backend::Scalar;
        }
        [Backend::Avx2, Backend::Sse2, Backend::Neon]
            .into_iter()
            .find(|b| b.is_supported())
            .unwrap_or(Backend::Scalar)
    })
}

/// Runtime override slot: 0 = none, otherwise `backend as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The backend the kernels dispatch to: the [`force_backend`] override if one
/// is set, else the feature-detected best. One relaxed atomic load — kernels
/// call this once per invocation and thread the value through their batches.
pub fn backend() -> Backend {
    match FORCED.load(Ordering::Relaxed) {
        1 => Backend::Avx2,
        2 => Backend::Sse2,
        3 => Backend::Neon,
        4 => Backend::Scalar,
        _ => detected(),
    }
}

/// Overrides (or, with `None`, restores) the dispatched backend at runtime.
///
/// Returns `false` — leaving the dispatch unchanged — if the requested backend
/// is not [supported](Backend::is_supported) on this machine, so a forced
/// backend can never reach an illegal instruction. Intended for equivalence
/// tests and benchmarks that exercise every path in one process; the override
/// is global, so concurrent joins all see it.
pub fn force_backend(backend: Option<Backend>) -> bool {
    match backend {
        None => {
            FORCED.store(0, Ordering::Relaxed);
            true
        }
        Some(b) if b.is_supported() => {
            let code = match b {
                Backend::Avx2 => 1,
                Backend::Sse2 => 2,
                Backend::Neon => 3,
                Backend::Scalar => 4,
            };
            FORCED.store(code, Ordering::Relaxed);
            true
        }
        Some(_) => false,
    }
}

/// Run-level test over a gathered candidate run (at most [`RUN_MAX`] indices
/// into `mbrs`): bit `i` set ⇔ `mbrs[indices[i]]` overlaps `probe`. This is
/// what the grid probe calls on its CSR runs. The mask is **exact** — the same
/// six `<=` comparisons as [`Aabb::intersects`](touch_geom::Aabb::intersects)
/// — but callers must still confirm survivors with the scalar test: the SIMD
/// pass filters candidates, it never decides a pair.
///
/// An unsupported `backend` (possible only by constructing one directly
/// instead of via [`backend`]/[`force_backend`]) falls back to the scalar
/// path rather than executing illegal instructions.
///
/// # Panics
/// Panics if `indices` holds more than [`RUN_MAX`] candidates or an index
/// out of bounds of `mbrs`.
#[inline]
pub fn overlap_gathered(backend: Backend, probe: &Aabb, mbrs: &[Aabb], indices: &[u32]) -> u64 {
    assert!(indices.len() <= RUN_MAX, "a run holds at most RUN_MAX candidates");
    dispatch(backend, probe, indices.iter().map(|&i| &mbrs[i as usize]))
}

/// Run-level test over a contiguous slice of objects (at most [`RUN_MAX`]):
/// bit `i` set ⇔ `objs[i].mbr` overlaps `probe`. Same exact mask and
/// fallback as [`overlap_gathered`]; the list kernels call it on their
/// candidate windows.
///
/// # Panics
/// Panics if `objs` holds more than [`RUN_MAX`] candidates.
#[inline]
pub fn overlap_contiguous(backend: Backend, probe: &Aabb, objs: &[SpatialObject]) -> u64 {
    assert!(objs.len() <= RUN_MAX, "a run holds at most RUN_MAX candidates");
    dispatch(backend, probe, objs.iter().map(|o| &o.mbr))
}

/// [`overlap_gathered`] for a run of at most [`LANES`] candidates, with the
/// mask narrowed to a `u8`.
#[inline]
pub fn overlap_run(backend: Backend, probe: &Aabb, mbrs: &[Aabb], indices: &[u32]) -> u8 {
    debug_assert!(indices.len() <= LANES);
    overlap_gathered(backend, probe, mbrs, indices) as u8
}

/// One backend body per call: the whole run is filtered inside this dispatch.
#[inline]
fn dispatch<'a>(backend: Backend, probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u64 {
    match backend {
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 availability was just confirmed (cached detection).
            unsafe { mask_avx2(probe, boxes) }
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        Backend::Sse2 => mask_sse2(probe, boxes),
        #[cfg(all(target_arch = "aarch64", not(feature = "scalar-only")))]
        Backend::Neon => mask_neon(probe, boxes),
        _ => mask_scalar(probe, boxes),
    }
}

/// The set lanes of `mask`, in ascending order: the candidates a kernel
/// confirms, in run order.
#[inline]
pub(crate) fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Counts one run of `n` candidates filtered to `mask` (see the module docs):
/// `stop` is the lane at which the emitter stopped the join, `None` if the
/// walk reached the end of the run.
#[inline]
pub(crate) fn record_run(counters: &mut Counters, n: usize, mask: u64, stop: Option<usize>) {
    let Some(stop) = stop else {
        counters.record_comparisons(n as u64);
        counters.record_batch(n as u64, u64::from(mask.count_ones()));
        return;
    };
    counters.record_comparisons(stop as u64 + 1);
    let lanes = n.min(LANES * (stop / LANES + 1));
    let seen = if lanes >= RUN_MAX { mask } else { mask & ((1 << lanes) - 1) };
    counters.record_batch(lanes as u64, u64::from(seen.count_ones()));
}

/// Scalar body: the exact `Aabb::intersects` predicate, one lane per candidate.
#[inline]
fn mask_scalar<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u64 {
    let mut mask = 0u64;
    for (lane, b) in boxes.enumerate() {
        mask |= u64::from(probe.intersects(b)) << lane;
    }
    mask
}

/// AVX2 body: two overlapping 256-bit loads cover all six corners of a
/// candidate (`[min.x, min.y, min.z, max.x]` and `[min.z, max.x, max.y,
/// max.z]`), compared against probe vectors padded with `±inf` in the overlap
/// lanes — `x <= +inf` and `-inf <= x` hold for every finite (and infinite)
/// coordinate and fail for NaN exactly like the scalar predicate, so the mask
/// stays exact. 2 loads + 2 ordered compares + 1 AND per candidate, no
/// stores; the probe vectors are built once per run.
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[target_feature(enable = "avx2")]
unsafe fn mask_avx2<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u64 {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX2. `Aabb` is repr(C) — six consecutive
    // f64 — so the 32-byte loads at offsets 0 and 16 both stay inside the
    // 48-byte struct.
    unsafe {
        // Upper corners with `+inf` in the lane the candidate's `max.x` lands
        // in; lower corners with `-inf` opposite the candidate's `min.z`.
        let p_hi = _mm256_set_pd(f64::INFINITY, probe.max.z, probe.max.y, probe.max.x);
        let p_lo = _mm256_set_pd(probe.min.z, probe.min.y, probe.min.x, f64::NEG_INFINITY);
        let mut mask = 0u64;
        for (lane, b) in boxes.enumerate() {
            let lo = _mm256_loadu_pd(&b.min.x as *const f64); // [min.x, min.y, min.z, max.x]
            let hi = _mm256_loadu_pd(&b.min.z as *const f64); // [min.z, max.x, max.y, max.z]
            let m = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(lo, p_hi),
                _mm256_cmp_pd::<_CMP_LE_OQ>(p_lo, hi),
            );
            mask |= u64::from(_mm256_movemask_pd(m) == 0xF) << lane;
        }
        mask
    }
}

/// SSE2 body: the x/y axes as one 128-bit compare pair, the z axis scalar
/// (`f64::le` everywhere — exact). SSE2 is baseline on `x86_64`, so this is a
/// safe function.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[inline]
fn mask_sse2<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u64 {
    use core::arch::x86_64::*;
    // SAFETY: SSE2 is part of the x86_64 baseline ISA; the 16-byte loads read
    // the first two f64s of repr(C) corner pairs, inside the struct.
    unsafe {
        let p_min_xy = _mm_loadu_pd(&probe.min.x as *const f64);
        let p_max_xy = _mm_loadu_pd(&probe.max.x as *const f64);
        let mut mask = 0u64;
        for (lane, b) in boxes.enumerate() {
            let b_min_xy = _mm_loadu_pd(&b.min.x as *const f64);
            let b_max_xy = _mm_loadu_pd(&b.max.x as *const f64);
            let xy = _mm_and_pd(_mm_cmple_pd(p_min_xy, b_max_xy), _mm_cmple_pd(b_min_xy, p_max_xy));
            let hit =
                _mm_movemask_pd(xy) == 0x3 && probe.min.z <= b.max.z && b.min.z <= probe.max.z;
            mask |= u64::from(hit) << lane;
        }
        mask
    }
}

/// NEON body: x/y as one 128-bit compare pair, z scalar. NEON is baseline on
/// `aarch64`, so this is a safe function.
#[cfg(all(target_arch = "aarch64", not(feature = "scalar-only")))]
#[inline]
fn mask_neon<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u64 {
    use core::arch::aarch64::*;
    // SAFETY: NEON is part of the aarch64 baseline ISA; the 16-byte loads read
    // the first two f64s of repr(C) corner pairs, inside the struct.
    unsafe {
        let p_min_xy = vld1q_f64(&probe.min.x as *const f64);
        let p_max_xy = vld1q_f64(&probe.max.x as *const f64);
        let mut mask = 0u64;
        for (lane, b) in boxes.enumerate() {
            let b_min_xy = vld1q_f64(&b.min.x as *const f64);
            let b_max_xy = vld1q_f64(&b.max.x as *const f64);
            let m = vandq_u64(vcleq_f64(p_min_xy, b_max_xy), vcleq_f64(b_min_xy, p_max_xy));
            let hit = vgetq_lane_u64::<0>(m) & vgetq_lane_u64::<1>(m) != 0
                && probe.min.z <= b.max.z
                && b.min.z <= probe.max.z;
            mask |= u64::from(hit) << lane;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::Point3;

    fn aabb(min: (f64, f64, f64), max: (f64, f64, f64)) -> Aabb {
        Aabb::new(Point3::new(min.0, min.1, min.2), Point3::new(max.0, max.1, max.2))
    }

    fn obj(id: u32, min: (f64, f64, f64), max: (f64, f64, f64)) -> SpatialObject {
        SpatialObject { id, mbr: aabb(min, max) }
    }

    fn supported() -> Vec<Backend> {
        Backend::ALL.into_iter().filter(|b| b.is_supported()).collect()
    }

    /// The ground truth a mask must reproduce: `Aabb::intersects` per lane.
    fn reference_mask<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u64 {
        boxes.enumerate().fold(0, |mask, (lane, b)| mask | u64::from(probe.intersects(b)) << lane)
    }

    /// A probe against lanes that hit/miss on each axis, touch on boundaries
    /// and include a degenerate (point) box.
    fn mixed_candidates() -> (Aabb, Vec<SpatialObject>) {
        let probe = aabb((0.0, 0.0, 0.0), (2.0, 2.0, 2.0));
        let candidates = vec![
            obj(0, (1.0, 1.0, 1.0), (3.0, 3.0, 3.0)),       // overlap
            obj(1, (2.0, 2.0, 2.0), (4.0, 4.0, 4.0)),       // boundary touch: inclusive
            obj(2, (2.1, 0.0, 0.0), (3.0, 1.0, 1.0)),       // x-separated
            obj(3, (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),       // degenerate point inside
            obj(4, (0.0, 3.0, 0.0), (1.0, 4.0, 1.0)),       // y-separated
            obj(5, (-5.0, -5.0, -5.0), (-4.0, -4.0, -4.0)), // fully outside
            obj(6, (0.0, 0.0, 2.0), (1.0, 1.0, 5.0)),       // z boundary touch
            obj(7, (-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),    // lower-corner touch: inclusive
        ];
        (probe, candidates)
    }

    #[test]
    fn every_supported_backend_matches_the_scalar_reference() {
        let (probe, candidates) = mixed_candidates();
        // Touching on any face, edge or corner counts as a hit.
        assert_eq!(reference_mask(&probe, candidates.iter().map(|o| &o.mbr)), 0b1100_1011);
        for window in candidates.chunks(LANES) {
            let reference = reference_mask(&probe, window.iter().map(|o| &o.mbr));
            for b in supported() {
                assert_eq!(
                    overlap_contiguous(b, &probe, window),
                    reference,
                    "backend {} diverged from scalar",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn nan_lanes_never_set_a_mask_bit() {
        let probe = aabb((0.0, 0.0, 0.0), (10.0, 10.0, 10.0));
        // One overlapping lane and three NaN-poisoned ones.
        let mut window = [obj(0, (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)); LANES];
        for o in &mut window[1..] {
            o.mbr.min.y = f64::NAN;
        }
        let mbrs: Vec<Aabb> = window.iter().map(|o| o.mbr).collect();
        let indices: Vec<u32> = (0..LANES as u32).collect();
        for b in supported() {
            assert_eq!(overlap_contiguous(b, &probe, &window), 0b0001, "{}", b.name());
            assert_eq!(overlap_run(b, &probe, &mbrs, &indices), 0b0001, "{}", b.name());
        }
        // A NaN-coordinate probe misses everything on every backend.
        let mut nan_probe = probe;
        nan_probe.min.x = f64::NAN;
        for b in supported() {
            assert_eq!(overlap_contiguous(b, &nan_probe, &window), 0, "{}", b.name());
            assert_eq!(overlap_run(b, &nan_probe, &mbrs, &indices), 0, "{}", b.name());
        }
    }

    #[test]
    fn zero_copy_forms_match_the_batch_form_on_every_backend() {
        // Tricky corners: hits, axis-separated misses, boundary touches, a
        // degenerate box and a NaN-poisoned candidate (must never match).
        let (probe, mut objs) = mixed_candidates();
        objs.push(obj(objs.len() as u32, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)));
        objs.last_mut().unwrap().mbr.max.y = f64::NAN;
        let mbrs: Vec<Aabb> = objs.iter().map(|o| o.mbr).collect();
        for window in objs.chunks(LANES) {
            let expect = reference_mask(&probe, window.iter().map(|o| &o.mbr));
            // The gathered run is reversed: lane i of the mask follows indices[i].
            let indices: Vec<u32> = window.iter().rev().map(|o| o.id).collect();
            let expect_run = reference_mask(&probe, indices.iter().map(|&i| &mbrs[i as usize]));
            for b in supported() {
                assert_eq!(overlap_contiguous(b, &probe, window), expect, "window {}", b.name());
                assert_eq!(
                    overlap_gathered(b, &probe, &mbrs, &indices),
                    expect_run,
                    "gathered {}",
                    b.name()
                );
                assert_eq!(
                    u64::from(overlap_run(b, &probe, &mbrs, &indices)),
                    expect_run,
                    "run {}",
                    b.name()
                );
            }
        }
        // A NaN probe misses every candidate on every backend and both forms.
        let mut nan_probe = probe;
        nan_probe.min.z = f64::NAN;
        let indices: Vec<u32> = (0..LANES as u32).collect();
        for b in supported() {
            assert_eq!(overlap_contiguous(b, &nan_probe, &objs[..LANES]), 0, "{}", b.name());
            assert_eq!(overlap_run(b, &nan_probe, &mbrs, &indices), 0, "{}", b.name());
        }
    }

    #[test]
    fn run_level_forms_match_the_reference_at_every_length_up_to_run_max() {
        // 64 candidates cycling through the mixed cases, a NaN-poisoned one
        // every 7th, so every lane position sees hits and misses.
        let (probe, base) = mixed_candidates();
        let objs: Vec<SpatialObject> = (0..RUN_MAX)
            .map(|i| {
                let mut o = base[i % base.len()];
                o.id = i as u32;
                if i % 7 == 6 {
                    o.mbr.max.x = f64::NAN;
                }
                o
            })
            .collect();
        let mbrs: Vec<Aabb> = objs.iter().map(|o| o.mbr).collect();
        for n in 0..=RUN_MAX {
            let window = &objs[..n];
            // Gather from the far end inwards, so lanes and positions differ.
            let indices: Vec<u32> = (0..n as u32).map(|i| (RUN_MAX as u32 - 1) - i).collect();
            let expect = reference_mask(&probe, window.iter().map(|o| &o.mbr));
            let expect_gathered =
                reference_mask(&probe, indices.iter().map(|&i| &mbrs[i as usize]));
            assert!(n < 8 || expect != 0, "the run must hold hits");
            for b in supported() {
                assert_eq!(overlap_contiguous(b, &probe, window), expect, "{} n={n}", b.name());
                assert_eq!(
                    overlap_gathered(b, &probe, &mbrs, &indices),
                    expect_gathered,
                    "{} n={n}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn set_lanes_walks_the_mask_in_ascending_order() {
        assert_eq!(set_lanes(0).count(), 0);
        assert_eq!(set_lanes(0b1010_0110).collect::<Vec<_>>(), vec![1, 2, 5, 7]);
        assert_eq!(set_lanes(u64::MAX).collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
        assert_eq!(set_lanes(1 << 63).collect::<Vec<_>>(), vec![63]);
    }

    /// The counting rule `record_run` replaces, verbatim: one batch per
    /// `LANES` candidates recorded before its lanes, one comparison per lane,
    /// and the walk ends right after the lane the emitter stopped at.
    fn per_lane_counters(n: usize, mask: u64, stop: Option<usize>) -> Counters {
        let mut c = Counters::new();
        let mut at = 0;
        while at < n {
            let len = LANES.min(n - at);
            let batch = (mask >> at) & ((1 << len) - 1);
            c.record_batch(len as u64, u64::from(batch.count_ones()));
            for lane in at..at + len {
                c.record_comparison();
                if stop == Some(lane) {
                    return c;
                }
            }
            at += LANES;
        }
        c
    }

    #[test]
    fn run_accounting_equals_per_lane_per_batch_counting_at_every_stop() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in 0..=RUN_MAX {
            let valid = if n == RUN_MAX { u64::MAX } else { (1 << n) - 1 };
            for _ in 0..4 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mask = state & valid;
                let mut counters = Counters::new();
                record_run(&mut counters, n, mask, None);
                assert_eq!(counters, per_lane_counters(n, mask, None), "n={n} mask={mask:#x}");
                // The emitter can only stop on a lane the mask kept.
                for stop in set_lanes(mask) {
                    let mut counters = Counters::new();
                    record_run(&mut counters, n, mask, Some(stop));
                    assert_eq!(
                        counters,
                        per_lane_counters(n, mask, Some(stop)),
                        "n={n} mask={mask:#x} stop={stop}"
                    );
                }
            }
        }
    }

    #[test]
    fn force_backend_round_trips_and_rejects_unsupported() {
        let original = backend();
        assert!(force_backend(Some(Backend::Scalar)));
        assert_eq!(backend(), Backend::Scalar);
        assert!(force_backend(None));
        assert_eq!(backend(), original);
        // At least one of the vector backends is absent on any given target
        // triple; forcing an absent one must be refused and change nothing.
        let absent = if cfg!(target_arch = "x86_64") { Backend::Neon } else { Backend::Sse2 };
        assert!(!absent.is_supported());
        assert!(!force_backend(Some(absent)));
        assert_eq!(backend(), original);
    }
}
