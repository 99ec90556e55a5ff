//! Axis-aligned bounding boxes (the paper's MBRs).

use crate::{Point3, DIMS};
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box in 3-D space — the *minimum bounding rectangle* (MBR)
/// of the paper.
///
/// Every join algorithm in this workspace operates on `Aabb`s during the filtering
/// phase. Boxes are **closed**: two boxes that merely share a face, edge or corner are
/// considered intersecting (`intersects` returns `true`), which matches the paper's
/// inclusive distance predicate `distance(a, b) ≤ ε` after ε-extension.
///
/// The layout is `repr(C)` — `min` then `max`, six consecutive `f64`s in
/// total — and part of the public contract: the SIMD kernels read corners with
/// overlapping vector loads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Aabb {
    /// Lower corner (componentwise minimum).
    pub min: Point3,
    /// Upper corner (componentwise maximum).
    pub max: Point3,
}

impl Aabb {
    /// Creates a box from its lower and upper corner.
    ///
    /// # Panics
    /// In debug builds, panics if `min` exceeds `max` on any axis or a coordinate is
    /// not finite. Use [`Aabb::from_corners`] for unordered input.
    #[inline]
    pub fn new(min: Point3, max: Point3) -> Self {
        debug_assert!(min.is_finite() && max.is_finite(), "non-finite AABB corners");
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "AABB min must not exceed max: {min:?} > {max:?}"
        );
        Aabb { min, max }
    }

    /// Creates a box from two arbitrary opposite corners (they need not be ordered).
    #[inline]
    pub fn from_corners(a: Point3, b: Point3) -> Self {
        Aabb { min: a.min(b), max: a.max(b) }
    }

    /// Creates a degenerate box containing a single point.
    #[inline]
    pub fn from_point(p: Point3) -> Self {
        Aabb { min: p, max: p }
    }

    /// Creates a box centred at `center` with the given full side length per axis.
    #[inline]
    pub fn from_center_extent(center: Point3, extent: Point3) -> Self {
        let half = extent * 0.5;
        Aabb { min: center - half, max: center + half }
    }

    /// The smallest box enclosing all points of an iterator, or `None` if it is empty.
    pub fn from_points<I: IntoIterator<Item = Point3>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut aabb = Aabb::from_point(first);
        for p in iter {
            aabb.expand_to_include_point(p);
        }
        Some(aabb)
    }

    /// The smallest box enclosing all boxes of an iterator, or `None` if it is empty.
    pub fn union_all<I: IntoIterator<Item = Aabb>>(boxes: I) -> Option<Self> {
        let mut iter = boxes.into_iter();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, b| acc.union(&b)))
    }

    /// An "empty" box useful as the identity element for [`Aabb::union`]-style folds:
    /// `min = +∞`, `max = −∞`. It intersects nothing and unions to the other operand.
    #[inline]
    pub fn empty() -> Self {
        Aabb { min: Point3::splat(f64::INFINITY), max: Point3::splat(f64::NEG_INFINITY) }
    }

    /// `true` for boxes produced by [`Aabb::empty`] (or any box with inverted extent).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// `true` if the box has finite, properly ordered corners.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.min.is_finite() && self.max.is_finite() && !self.is_empty()
    }

    /// `true` if any corner coordinate is NaN. Unions ([`Aabb::union`]) drop
    /// NaN coordinates, so a box built from ones with NaN need not enclose them.
    #[inline]
    pub fn has_nan(&self) -> bool {
        let (lo, hi) = (self.min, self.max);
        [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z].iter().any(|v| v.is_nan())
    }

    /// The centre point of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        Point3::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
            0.5 * (self.min.z + self.max.z),
        )
    }

    /// The side lengths of the box per axis.
    #[inline]
    pub fn extent(&self) -> Point3 {
        self.max - self.min
    }

    /// Side length along `axis`.
    #[inline]
    pub fn side(&self, axis: usize) -> f64 {
        self.max.coord(axis) - self.min.coord(axis)
    }

    /// Volume of the box (product of the side lengths).
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Surface area of the box.
    #[inline]
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.x * e.z)
    }

    /// Sum of the side lengths — the *margin*, used by some packing heuristics.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x + e.y + e.z
    }

    /// `true` if the two boxes overlap (closed-interval semantics on every axis).
    ///
    /// This is *the* comparison the paper counts: every algorithm routes its
    /// object–object tests through this predicate (via the metrics counters).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
            && self.min.z <= other.max.z
            && other.min.z <= self.max.z
    }

    /// `true` if `other` lies completely inside `self` (boundaries may coincide).
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.min.z <= other.min.z
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
            && self.max.z >= other.max.z
    }

    /// `true` if the point lies inside or on the boundary of the box.
    #[inline]
    pub fn contains_point(&self, p: &Point3) -> bool {
        self.min.x <= p.x
            && p.x <= self.max.x
            && self.min.y <= p.y
            && p.y <= self.max.y
            && self.min.z <= p.z
            && p.z <= self.max.z
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// The overlap region of the two boxes, or `None` if they do not intersect.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Option<Aabb> {
        if !self.intersects(other) {
            return None;
        }
        Some(Aabb { min: self.min.max(other.min), max: self.max.min(other.max) })
    }

    /// Grows the box in place so that it contains `p`.
    #[inline]
    pub fn expand_to_include_point(&mut self, p: Point3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grows the box in place so that it contains `other`.
    #[inline]
    pub fn expand_to_include(&mut self, other: &Aabb) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Returns the box enlarged by `eps` on **every side** (Minkowski sum with a cube
    /// of half-extent `eps`).
    ///
    /// This is the ε-extension the paper uses to turn a distance join into an
    /// intersection join: `mbr_distance(a, b) ≤ ε  ⇔  a.extended(ε).intersects(b)`
    /// when the distance between MBRs is measured with the Chebyshev (L∞) metric, and
    /// a conservative superset under the Euclidean metric (exact pairs are confirmed
    /// during refinement).
    #[inline]
    pub fn extended(&self, eps: f64) -> Aabb {
        debug_assert!(eps >= 0.0, "epsilon must be non-negative");
        let d = Point3::splat(eps);
        Aabb { min: self.min - d, max: self.max + d }
    }

    /// Minimum distance between the two boxes under the Euclidean metric
    /// (0 if they intersect).
    #[inline]
    pub fn min_distance(&self, other: &Aabb) -> f64 {
        self.min_distance_sq(other).sqrt()
    }

    /// Squared minimum Euclidean distance between the two boxes (0 if they intersect).
    #[inline]
    pub fn min_distance_sq(&self, other: &Aabb) -> f64 {
        let mut sum = 0.0;
        for axis in 0..DIMS {
            let d = (other.min.coord(axis) - self.max.coord(axis))
                .max(self.min.coord(axis) - other.max.coord(axis))
                .max(0.0);
            sum += d * d;
        }
        sum
    }

    /// Minimum distance between the two boxes under the Chebyshev (L∞) metric
    /// (0 if they intersect). The ε-extension test is exact for this metric.
    #[inline]
    pub fn min_distance_linf(&self, other: &Aabb) -> f64 {
        let mut best = 0.0f64;
        for axis in 0..DIMS {
            let d = (other.min.coord(axis) - self.max.coord(axis))
                .max(self.min.coord(axis) - other.max.coord(axis))
                .max(0.0);
            best = best.max(d);
        }
        best
    }

    /// The lower corner of the intersection of two *intersecting* boxes.
    ///
    /// This is the *reference point* used by PBSM and the TOUCH local join to avoid
    /// duplicate results when objects are replicated across grid cells: a pair is
    /// reported only from the cell that contains this corner.
    #[inline]
    pub fn intersection_reference_point(&self, other: &Aabb) -> Point3 {
        debug_assert!(self.intersects(other));
        self.min.max(other.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box_at(x: f64, y: f64, z: f64) -> Aabb {
        Aabb::new(Point3::new(x, y, z), Point3::new(x + 1.0, y + 1.0, z + 1.0))
    }

    #[test]
    fn corners_are_normalised() {
        let b = Aabb::from_corners(Point3::new(3.0, 1.0, 2.0), Point3::new(0.0, 4.0, -1.0));
        assert_eq!(b.min, Point3::new(0.0, 1.0, -1.0));
        assert_eq!(b.max, Point3::new(3.0, 4.0, 2.0));
        assert!(b.is_valid());
    }

    #[test]
    fn center_extent_volume() {
        let b = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b.center(), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b.volume(), 48.0);
        assert_eq!(b.surface_area(), 2.0 * (8.0 + 24.0 + 12.0));
        assert_eq!(b.margin(), 12.0);
        assert_eq!(b.side(1), 4.0);
    }

    #[test]
    fn from_center_extent_roundtrip() {
        let b = Aabb::from_center_extent(Point3::new(5.0, 5.0, 5.0), Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b.center(), Point3::new(5.0, 5.0, 5.0));
        assert_eq!(b.extent(), Point3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn intersection_is_symmetric_and_touching_counts() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        let b = unit_box_at(0.5, 0.5, 0.5);
        let c = unit_box_at(1.0, 0.0, 0.0); // shares the x=1 face with a
        let d = unit_box_at(2.5, 0.0, 0.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(a.intersects(&c), "face-touching boxes intersect (closed boxes)");
        assert!(!a.intersects(&d));
        assert!(!d.intersects(&a));
    }

    #[test]
    fn containment() {
        let outer = Aabb::new(Point3::ORIGIN, Point3::splat(10.0));
        let inner = Aabb::new(Point3::splat(2.0), Point3::splat(3.0));
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer), "a box contains itself");
        assert!(outer.contains_point(&Point3::splat(10.0)), "boundary point is contained");
        assert!(!outer.contains_point(&Point3::new(10.1, 0.0, 0.0)));
    }

    #[test]
    fn union_and_intersection() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        let b = unit_box_at(0.5, 0.5, 0.5);
        let u = a.union(&b);
        assert_eq!(u, Aabb::new(Point3::ORIGIN, Point3::splat(1.5)));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Aabb::new(Point3::splat(0.5), Point3::splat(1.0)));
        let far = unit_box_at(5.0, 5.0, 5.0);
        assert!(a.intersection(&far).is_none());
        assert!(u.contains(&a) && u.contains(&b));
    }

    #[test]
    fn has_nan_sees_every_coordinate_and_unions_drop_it() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        assert!(!a.has_nan());
        assert!(!Aabb::empty().has_nan(), "infinite corners are not NaN");
        for axis in 0..6 {
            let mut b = a;
            if axis < 3 {
                b.min.set_coord(axis, f64::NAN);
            } else {
                b.max.set_coord(axis - 3, f64::NAN);
            }
            assert!(b.has_nan(), "NaN in coordinate {axis} missed");
            assert!(!a.union(&b).has_nan(), "union keeps the non-NaN side");
        }
    }

    #[test]
    fn union_all_and_from_points() {
        let boxes = [unit_box_at(0.0, 0.0, 0.0), unit_box_at(3.0, 3.0, 3.0)];
        let u = Aabb::union_all(boxes).unwrap();
        assert_eq!(u, Aabb::new(Point3::ORIGIN, Point3::splat(4.0)));
        assert!(Aabb::union_all(std::iter::empty()).is_none());

        let pts = [Point3::new(1.0, -1.0, 0.0), Point3::new(-2.0, 3.0, 5.0)];
        let bb = Aabb::from_points(pts).unwrap();
        assert_eq!(bb.min, Point3::new(-2.0, -1.0, 0.0));
        assert_eq!(bb.max, Point3::new(1.0, 3.0, 5.0));
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert!(!e.is_valid());
        assert_eq!(e.volume(), 0.0);
        let a = unit_box_at(0.0, 0.0, 0.0);
        assert_eq!(e.union(&a), a, "empty is the identity of union");
        assert!(!e.intersects(&a));
    }

    #[test]
    fn epsilon_extension_matches_distance() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        let b = unit_box_at(3.0, 0.0, 0.0); // gap of 2 along x
        assert!(!a.intersects(&b));
        assert!(!a.extended(1.9).intersects(&b));
        assert!(a.extended(2.0).intersects(&b), "extension by the exact gap touches");
        assert!(a.extended(2.1).intersects(&b));
        assert_eq!(a.min_distance(&b), 2.0);
        assert_eq!(a.min_distance_linf(&b), 2.0);
    }

    #[test]
    fn euclidean_vs_chebyshev_distance() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        let b = unit_box_at(2.0, 2.0, 0.0); // diagonal gap of (1,1,0)
        assert!((a.min_distance(&b) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.min_distance_linf(&b), 1.0);
        // extension test uses L∞ semantics
        assert!(a.extended(1.0).intersects(&b));
    }

    #[test]
    fn distance_zero_when_intersecting() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        let b = unit_box_at(0.5, 0.5, 0.5);
        assert_eq!(a.min_distance(&b), 0.0);
        assert_eq!(a.min_distance_linf(&b), 0.0);
    }

    #[test]
    fn reference_point_is_in_intersection() {
        let a = unit_box_at(0.0, 0.0, 0.0);
        let b = unit_box_at(0.5, 0.25, 0.75);
        let rp = a.intersection_reference_point(&b);
        let inter = a.intersection(&b).unwrap();
        assert!(inter.contains_point(&rp));
        assert_eq!(rp, inter.min);
        // symmetric
        assert_eq!(b.intersection_reference_point(&a), rp);
    }

    #[test]
    fn expand_in_place() {
        let mut b = Aabb::from_point(Point3::ORIGIN);
        b.expand_to_include_point(Point3::new(1.0, -2.0, 3.0));
        assert_eq!(b.min, Point3::new(0.0, -2.0, 0.0));
        assert_eq!(b.max, Point3::new(1.0, 0.0, 3.0));
        b.expand_to_include(&unit_box_at(5.0, 5.0, 5.0));
        assert_eq!(b.max, Point3::splat(6.0));
    }
}
