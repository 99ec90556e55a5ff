//! Runtime-dispatched SIMD primitives for the join kernels: the batched MBR
//! overlap filter and a portable software-prefetch hint.
//!
//! The join phase of TOUCH is bounded by one operation: testing a probe MBR
//! against a run of candidate MBRs. [`overlap_window`] (contiguous candidates)
//! and [`overlap_run`] (gathered CSR candidate runs) perform that test for
//! [`LANES`] candidates per call with `core::arch` intrinsics — AVX2 or SSE2
//! on `x86_64`, NEON on `aarch64` — selected **at runtime** by feature
//! detection, with a scalar fallback everywhere else. Both are *zero-copy*:
//! candidate corners are vector-loaded straight out of the `repr(C)` [`Aabb`]s
//! against precomputed probe vectors, with no transpose into SoA form.
//!
//! ## The bit-identity contract
//!
//! The SIMD pass produces a *candidate bitmask*, never a decision. Every lane
//! the mask keeps is re-confirmed by the exact scalar [`Aabb::intersects`]
//! before a pair is emitted, and the mask itself is exact by construction: all
//! six comparisons are IEEE-754 `<=` on `f64`, which every backend (vector or
//! scalar) evaluates identically, including the all-false behaviour on NaN.
//! A partial batch tests only its valid lanes, so the bits above them stay
//! clear. Consequently pairs, emission order and every [`Counters`] field
//! are bit-identical across AVX2, SSE2, NEON and the scalar fallback — the
//! invariant `tests/simd_equivalence.rs` locks down.
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

/// Candidate boxes tested per [`overlap_window`] / [`overlap_run`] call. This is the *logical*
/// batch width on every backend — the scalar fallback processes the same
/// 4-lane batches, so batch-level counters are machine-independent.
pub const LANES: usize = 4;

/// The instruction set a batch runs on. Obtain the detected one with
/// [`backend`]; pass a specific one to [`overlap_window`] to pin it (kernels
/// read [`backend`] once per call and pass it down).
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

/// Zero-copy batch test over a contiguous window of objects (at most
/// [`LANES`]): bit `i` set ⇔ `window[i].mbr` overlaps `probe`. The mask is
/// **exact** — the same six `<=` comparisons as
/// [`Aabb::intersects`](touch_geom::Aabb::intersects) — but callers must still
/// confirm survivors with the scalar test: the SIMD pass filters candidates, it
/// never decides a pair. The candidate corners are vector-loaded straight out
/// of the objects (`Aabb` is `repr(C)`: six consecutive `f64`s).
///
/// An unsupported `backend` (possible only by constructing one directly
/// instead of via [`backend`]/[`force_backend`]) falls back to the scalar
/// path rather than executing illegal instructions.
#[inline]
pub fn overlap_window(backend: Backend, probe: &Aabb, window: &[SpatialObject]) -> u8 {
    debug_assert!(window.len() <= LANES);
    match backend {
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 availability was just confirmed (cached detection).
            unsafe { window_avx2(probe, window) }
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        Backend::Sse2 => mask_sse2(probe, window.iter().map(|o| &o.mbr)),
        #[cfg(all(target_arch = "aarch64", not(feature = "scalar-only")))]
        Backend::Neon => mask_neon(probe, window.iter().map(|o| &o.mbr)),
        _ => mask_scalar(probe, window.iter().map(|o| &o.mbr)),
    }
}

/// Zero-copy batch test over a gathered candidate run (at most [`LANES`]
/// indices into `mbrs`): bit `i` set ⇔ `mbrs[indices[i]]` overlaps `probe`.
/// Same exact mask and fallback as [`overlap_window`] — this is what the grid
/// probe calls on its CSR runs.
#[inline]
pub fn overlap_run(backend: Backend, probe: &Aabb, mbrs: &[Aabb], indices: &[u32]) -> u8 {
    debug_assert!(indices.len() <= LANES);
    match backend {
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 availability was just confirmed (cached detection).
            unsafe { run_avx2(probe, mbrs, indices) }
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
        Backend::Sse2 => mask_sse2(probe, indices.iter().map(|&i| &mbrs[i as usize])),
        #[cfg(all(target_arch = "aarch64", not(feature = "scalar-only")))]
        Backend::Neon => mask_neon(probe, indices.iter().map(|&i| &mbrs[i as usize])),
        _ => mask_scalar(probe, indices.iter().map(|&i| &mbrs[i as usize])),
    }
}

/// Scalar reference for the zero-copy forms: the exact `Aabb::intersects`
/// predicate, one lane per candidate.
#[inline]
fn mask_scalar<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u8 {
    let mut mask = 0u8;
    for (lane, b) in boxes.enumerate() {
        mask |= (probe.intersects(b) as u8) << lane;
    }
    mask
}

/// AVX2 zero-copy candidate test: two overlapping 256-bit loads cover all six
/// corners of a candidate (`[min.x, min.y, min.z, max.x]` and
/// `[min.z, max.x, max.y, max.z]`), compared against probe vectors padded with
/// `±inf` in the overlap lanes — `x <= +inf` and `-inf <= x` hold for every
/// finite (and infinite) coordinate and fail for NaN exactly like the scalar
/// predicate, so the mask stays exact. 2 loads + 2 ordered compares + 1 AND
/// per candidate, no stores.
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[target_feature(enable = "avx2")]
unsafe fn window_avx2(probe: &Aabb, window: &[SpatialObject]) -> u8 {
    unsafe {
        let (p_hi, p_lo) = avx2_probe(probe);
        let mut mask = 0u8;
        for (lane, o) in window.iter().enumerate() {
            mask |= (avx2_one(p_hi, p_lo, &o.mbr) as u8) << lane;
        }
        mask
    }
}

/// Gathered-index AVX2 loop of [`window_avx2`]; same candidate test.
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(probe: &Aabb, mbrs: &[Aabb], indices: &[u32]) -> u8 {
    unsafe {
        let (p_hi, p_lo) = avx2_probe(probe);
        let mut mask = 0u8;
        for (lane, &at) in indices.iter().enumerate() {
            mask |= (avx2_one(p_hi, p_lo, &mbrs[at as usize]) as u8) << lane;
        }
        mask
    }
}

/// Probe vectors for [`avx2_one`]: upper corners (with `+inf` in the lane the
/// candidate's `max.x` lands in) and lower corners (with `-inf` opposite the
/// candidate's `min.z`).
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[target_feature(enable = "avx2")]
unsafe fn avx2_probe(probe: &Aabb) -> (core::arch::x86_64::__m256d, core::arch::x86_64::__m256d) {
    use core::arch::x86_64::*;
    (
        _mm256_set_pd(f64::INFINITY, probe.max.z, probe.max.y, probe.max.x),
        _mm256_set_pd(probe.min.z, probe.min.y, probe.min.x, f64::NEG_INFINITY),
    )
}

/// One candidate against the prepared probe vectors; see [`window_avx2`].
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn avx2_one(
    p_hi: core::arch::x86_64::__m256d,
    p_lo: core::arch::x86_64::__m256d,
    b: &Aabb,
) -> bool {
    use core::arch::x86_64::*;
    // SAFETY: `Aabb` is repr(C) — six consecutive f64 — so the 32-byte loads at
    // offsets 0 and 16 both stay inside the 48-byte struct.
    unsafe {
        let lo = _mm256_loadu_pd(&b.min.x as *const f64); // [min.x, min.y, min.z, max.x]
        let hi = _mm256_loadu_pd(&b.min.z as *const f64); // [min.z, max.x, max.y, max.z]
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(lo, p_hi),
            _mm256_cmp_pd::<_CMP_LE_OQ>(p_lo, hi),
        );
        _mm256_movemask_pd(m) == 0xF
    }
}

/// SSE2 zero-copy candidate test: the x/y axes as one 128-bit compare pair,
/// the z axis scalar (`f64::le` everywhere — exact). SSE2 is baseline on
/// `x86_64`, so this is a safe function over an index/window iterator.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
#[inline]
fn mask_sse2<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u8 {
    use core::arch::x86_64::*;
    // SAFETY: SSE2 is part of the x86_64 baseline ISA; the 16-byte loads read
    // the first two f64s of repr(C) corner pairs, inside the struct.
    unsafe {
        let p_min_xy = _mm_loadu_pd(&probe.min.x as *const f64);
        let p_max_xy = _mm_loadu_pd(&probe.max.x as *const f64);
        let mut mask = 0u8;
        for (lane, b) in boxes.enumerate() {
            let b_min_xy = _mm_loadu_pd(&b.min.x as *const f64);
            let b_max_xy = _mm_loadu_pd(&b.max.x as *const f64);
            let xy = _mm_and_pd(_mm_cmple_pd(p_min_xy, b_max_xy), _mm_cmple_pd(b_min_xy, p_max_xy));
            let hit =
                _mm_movemask_pd(xy) == 0x3 && probe.min.z <= b.max.z && b.min.z <= probe.max.z;
            mask |= (hit as u8) << lane;
        }
        mask
    }
}

/// NEON zero-copy candidate test: x/y as one 128-bit compare pair, z scalar.
/// NEON is baseline on `aarch64`, so this is a safe function.
#[cfg(all(target_arch = "aarch64", not(feature = "scalar-only")))]
#[inline]
fn mask_neon<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u8 {
    use core::arch::aarch64::*;
    // SAFETY: NEON is part of the aarch64 baseline ISA; the 16-byte loads read
    // the first two f64s of repr(C) corner pairs, inside the struct.
    unsafe {
        let p_min_xy = vld1q_f64(&probe.min.x as *const f64);
        let p_max_xy = vld1q_f64(&probe.max.x as *const f64);
        let mut mask = 0u8;
        for (lane, b) in boxes.enumerate() {
            let b_min_xy = vld1q_f64(&b.min.x as *const f64);
            let b_max_xy = vld1q_f64(&b.max.x as *const f64);
            let m = vandq_u64(vcleq_f64(p_min_xy, b_max_xy), vcleq_f64(b_min_xy, p_max_xy));
            let hit = vgetq_lane_u64::<0>(m) & vgetq_lane_u64::<1>(m) != 0
                && probe.min.z <= b.max.z
                && b.min.z <= probe.max.z;
            mask |= (hit as u8) << lane;
        }
        mask
    }
}

/// Hints the hardware to pull the element at `data[index]` towards L1 ahead of
/// use (`_mm_prefetch(T0)` on `x86_64`; a no-op on targets without a portable
/// hint). Out-of-range indices are ignored — a prefetch must never fault, and
/// the hint can never change results: it touches no architectural state.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
    if index < data.len() {
        // SAFETY: the index is in bounds and prefetch has no architectural
        // effect; _mm_prefetch is available on every x86_64.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(index) as *const i8);
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-only"))))]
    {
        let _ = (data, index);
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
    fn reference_mask<'a>(probe: &Aabb, boxes: impl Iterator<Item = &'a Aabb>) -> u8 {
        boxes.enumerate().fold(0, |mask, (lane, b)| mask | (probe.intersects(b) as u8) << lane)
    }

    #[test]
    fn every_supported_backend_matches_the_scalar_reference() {
        // A probe against lanes that hit/miss on each axis, touch on boundaries
        // and include a degenerate (point) box.
        let probe = aabb((0.0, 0.0, 0.0), (2.0, 2.0, 2.0));
        let candidates = [
            obj(0, (1.0, 1.0, 1.0), (3.0, 3.0, 3.0)),       // overlap
            obj(1, (2.0, 2.0, 2.0), (4.0, 4.0, 4.0)),       // boundary touch: inclusive
            obj(2, (2.1, 0.0, 0.0), (3.0, 1.0, 1.0)),       // x-separated
            obj(3, (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),       // degenerate point inside
            obj(4, (0.0, 3.0, 0.0), (1.0, 4.0, 1.0)),       // y-separated
            obj(5, (-5.0, -5.0, -5.0), (-4.0, -4.0, -4.0)), // fully outside
            obj(6, (0.0, 0.0, 2.0), (1.0, 1.0, 5.0)),       // z boundary touch
        ];
        for window in candidates.chunks(LANES) {
            let reference = reference_mask(&probe, window.iter().map(|o| &o.mbr));
            for b in supported() {
                assert_eq!(
                    overlap_window(b, &probe, window),
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
            assert_eq!(overlap_window(b, &probe, &window), 0b0001, "{}", b.name());
            assert_eq!(overlap_run(b, &probe, &mbrs, &indices), 0b0001, "{}", b.name());
        }
        // A NaN-coordinate probe misses everything on every backend.
        let mut nan_probe = probe;
        nan_probe.min.x = f64::NAN;
        for b in supported() {
            assert_eq!(overlap_window(b, &nan_probe, &window), 0, "{}", b.name());
            assert_eq!(overlap_run(b, &nan_probe, &mbrs, &indices), 0, "{}", b.name());
        }
    }

    #[test]
    fn zero_copy_forms_match_the_batch_form_on_every_backend() {
        // Tricky corners: hits, axis-separated misses, boundary touches, a
        // degenerate box and a NaN-poisoned candidate (must never match).
        let probe = aabb((0.0, 0.0, 0.0), (2.0, 2.0, 2.0));
        let mut objs = vec![
            obj(0, (1.0, 1.0, 1.0), (3.0, 3.0, 3.0)),
            obj(1, (2.0, 2.0, 2.0), (4.0, 4.0, 4.0)),
            obj(2, (2.1, 0.0, 0.0), (3.0, 1.0, 1.0)),
            obj(3, (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
            obj(4, (0.0, 3.0, 0.0), (1.0, 4.0, 1.0)),
            obj(5, (0.0, 0.0, 2.0), (1.0, 1.0, 5.0)),
            obj(6, (-1.0, -1.0, -1.0), (0.0, 0.0, 0.0)),
        ];
        objs.push(obj(7, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)));
        objs[7].mbr.max.y = f64::NAN;
        let mbrs: Vec<Aabb> = objs.iter().map(|o| o.mbr).collect();
        for window in objs.chunks(LANES) {
            let expect = reference_mask(&probe, window.iter().map(|o| &o.mbr));
            // The gathered run is reversed: lane i of the mask follows indices[i].
            let indices: Vec<u32> = window.iter().rev().map(|o| o.id).collect();
            let expect_run = reference_mask(&probe, indices.iter().map(|&i| &mbrs[i as usize]));
            for b in supported() {
                assert_eq!(overlap_window(b, &probe, window), expect, "window {}", b.name());
                assert_eq!(overlap_run(b, &probe, &mbrs, &indices), expect_run, "run {}", b.name());
            }
        }
        // A NaN probe misses every candidate on every backend and both forms.
        let mut nan_probe = probe;
        nan_probe.min.z = f64::NAN;
        let indices: Vec<u32> = (0..LANES as u32).collect();
        for b in supported() {
            assert_eq!(overlap_window(b, &nan_probe, &objs[..LANES]), 0, "{}", b.name());
            assert_eq!(overlap_run(b, &nan_probe, &mbrs, &indices), 0, "{}", b.name());
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

    #[test]
    fn prefetch_is_inert() {
        let data = [1u64, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 17); // out of range: ignored
        assert_eq!(data, [1, 2, 3]);
    }
}
