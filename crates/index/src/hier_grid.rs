//! Hierarchical equi-width grids — the partitioning substrate of S3.
//!
//! S3 (Size Separation Spatial Join, Koudas & Sevcik, SIGMOD '97) maintains a
//! hierarchy of `L` equi-width grids of increasing granularity over the joint extent
//! of the two datasets. Each object is assigned to exactly one cell: the cell of the
//! *finest* level at which the object overlaps only a single cell (single assignment,
//! no replication). Cells of the two hierarchies are then joined pairwise whenever
//! one cell's region encloses the other's (same cell, or ancestor/descendant), which
//! is sufficient because every object is fully contained in its assigned cell.
//!
//! The paper configures S3 with a refinement fanout of 3 and 5 levels.

use std::collections::HashMap;
use touch_geom::{Aabb, SpatialObject};
use touch_metrics::MemoryUsage;

/// Integer coordinates of a cell within one level of the hierarchy.
pub type LevelCoords = [u32; 3];

/// A cell of the hierarchy: its level (0 = coarsest, a single cell) and coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelCell {
    /// Level in the hierarchy; level `l` has `refinement^l` cells per axis.
    pub level: u32,
    /// Cell coordinates within that level.
    pub coords: LevelCoords,
}

/// The geometry of a hierarchy of equi-width grids.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalGrid {
    extent: Aabb,
    levels: u32,
    refinement: u32,
}

impl HierarchicalGrid {
    /// Creates a hierarchy of `levels` grids over `extent`, each level `refinement`×
    /// finer per axis than the previous one. Level 0 always has a single cell.
    ///
    /// # Panics
    /// Panics if `levels` is zero or `refinement < 2`.
    pub fn new(extent: Aabb, levels: u32, refinement: u32) -> Self {
        assert!(levels >= 1, "hierarchy needs at least one level");
        assert!(refinement >= 2, "refinement factor must be at least 2");
        HierarchicalGrid { extent, levels, refinement }
    }

    /// The paper's S3 configuration: 5 levels, refinement fanout 3.
    pub fn paper_default(extent: Aabb) -> Self {
        Self::new(extent, 5, 3)
    }

    /// The extent the hierarchy covers.
    #[inline]
    pub fn extent(&self) -> Aabb {
        self.extent
    }

    /// Number of levels.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Refinement factor between consecutive levels.
    #[inline]
    pub fn refinement(&self) -> u32 {
        self.refinement
    }

    /// Cells per axis at `level` (`refinement^level`).
    #[inline]
    pub fn cells_per_axis(&self, level: u32) -> u64 {
        (self.refinement as u64).pow(level)
    }

    /// The cell index of coordinate `v` along `axis` at `level`, clamped to
    /// the level. Truncation after `max(0.0)` equals the floor for every `f64`
    /// (NaN maps to cell 0, ±∞ saturate), so no libm `floor` call is needed.
    #[inline]
    fn axis_cell(&self, level: u32, axis: usize, v: f64) -> u32 {
        let cells = self.cells_per_axis(level);
        let lo = self.extent.min.coord(axis);
        let side = self.extent.max.coord(axis) - lo;
        if side <= 0.0 {
            return 0;
        }
        let cell = (v - lo) / side * cells as f64;
        (cell.max(0.0) as u64).min(cells - 1) as u32
    }

    /// Cell range (inclusive) overlapped by `mbr` at `level`.
    pub fn cell_range(&self, level: u32, mbr: &Aabb) -> (LevelCoords, LevelCoords) {
        let lo = [
            self.axis_cell(level, 0, mbr.min.x),
            self.axis_cell(level, 1, mbr.min.y),
            self.axis_cell(level, 2, mbr.min.z),
        ];
        let hi = [
            self.axis_cell(level, 0, mbr.max.x),
            self.axis_cell(level, 1, mbr.max.y),
            self.axis_cell(level, 2, mbr.max.z),
        ];
        (lo, hi)
    }

    /// Assigns an MBR to the finest level at which it overlaps exactly one cell.
    ///
    /// Level 0 has a single cell, so assignment always succeeds (as in S3, objects
    /// that straddle cell borders on every finer level end up at the root level and
    /// are compared against everything).
    pub fn assign(&self, mbr: &Aabb) -> LevelCell {
        for level in (0..self.levels).rev() {
            let (lo, hi) = self.cell_range(level, mbr);
            if lo == hi {
                return LevelCell { level, coords: lo };
            }
        }
        LevelCell { level: 0, coords: [0, 0, 0] }
    }

    /// The ancestor of `cell` at the (coarser or equal) `level`.
    ///
    /// # Panics
    /// Panics if `level` is finer than the cell's level.
    pub fn ancestor(&self, cell: LevelCell, level: u32) -> LevelCell {
        assert!(level <= cell.level, "ancestor level must be coarser");
        let shift = (self.refinement as u64).pow(cell.level - level);
        LevelCell {
            level,
            coords: [
                (cell.coords[0] as u64 / shift) as u32,
                (cell.coords[1] as u64 / shift) as u32,
                (cell.coords[2] as u64 / shift) as u32,
            ],
        }
    }

    /// `true` if `ancestor`'s region encloses `descendant`'s region
    /// (requires `ancestor.level <= descendant.level`; equal cells count).
    pub fn encloses(&self, ancestor: LevelCell, descendant: LevelCell) -> bool {
        if ancestor.level > descendant.level {
            return false;
        }
        self.ancestor(descendant, ancestor.level).coords == ancestor.coords
    }
}

/// A single-assignment index over one dataset: each object id stored in the cell
/// [`HierarchicalGrid::assign`] chose for it.
#[derive(Debug, Clone)]
pub struct HierGridIndex {
    hier: HierarchicalGrid,
    /// One sparse map per level: cell coordinates → object ids.
    levels: Vec<HashMap<LevelCoords, Vec<u32>>>,
}

impl HierGridIndex {
    /// Assigns every object of `objects` to its hierarchy cell.
    pub fn build(hier: HierarchicalGrid, objects: &[SpatialObject]) -> Self {
        let mut levels: Vec<HashMap<LevelCoords, Vec<u32>>> =
            (0..hier.levels()).map(|_| HashMap::new()).collect();
        for o in objects {
            let cell = hier.assign(&o.mbr);
            levels[cell.level as usize].entry(cell.coords).or_default().push(o.id);
        }
        HierGridIndex { hier, levels }
    }

    /// The hierarchy geometry.
    #[inline]
    pub fn hierarchy(&self) -> &HierarchicalGrid {
        &self.hier
    }

    /// The object ids in the given cell, if any.
    pub fn cell(&self, cell: LevelCell) -> Option<&[u32]> {
        self.levels.get(cell.level as usize).and_then(|m| m.get(&cell.coords)).map(Vec::as_slice)
    }

    /// Iterator over all non-empty cells and their object ids.
    pub fn non_empty_cells(&self) -> impl Iterator<Item = (LevelCell, &[u32])> + '_ {
        self.levels.iter().enumerate().flat_map(|(level, map)| {
            map.iter().map(move |(coords, ids)| {
                (LevelCell { level: level as u32, coords: *coords }, ids.as_slice())
            })
        })
    }

    /// Number of objects indexed.
    pub fn len(&self) -> usize {
        self.levels.iter().map(|m| m.values().map(Vec::len).sum::<usize>()).sum()
    }

    /// `true` if no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of objects assigned to each level, coarsest first
    /// (level 0 objects are compared against everything — see Section 2.2.3).
    pub fn level_histogram(&self) -> Vec<usize> {
        self.levels.iter().map(|m| m.values().map(Vec::len).sum()).collect()
    }
}

impl MemoryUsage for HierGridIndex {
    fn memory_bytes(&self) -> usize {
        // Sparse maps: count one bucket (key + vec header) per occupied cell plus the
        // id storage itself.
        let per_bucket = std::mem::size_of::<LevelCoords>() + std::mem::size_of::<Vec<u32>>();
        self.levels
            .iter()
            .map(|m| {
                m.len() * per_bucket
                    + m.values().map(|v| v.capacity() * std::mem::size_of::<u32>()).sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Dataset, Point3};

    fn space() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(81.0))
    }

    #[test]
    fn level_resolution_grows_with_refinement() {
        let h = HierarchicalGrid::new(space(), 5, 3);
        assert_eq!(h.cells_per_axis(0), 1);
        assert_eq!(h.cells_per_axis(1), 3);
        assert_eq!(h.cells_per_axis(4), 81);
        assert_eq!(h.levels(), 5);
        assert_eq!(h.refinement(), 3);
    }

    #[test]
    fn small_objects_go_to_fine_levels_large_objects_to_coarse() {
        let h = HierarchicalGrid::new(space(), 5, 3);
        // A tiny object well inside a finest-level cell (cells at level 4 are 1 unit).
        let tiny = Aabb::new(Point3::new(10.1, 10.1, 10.1), Point3::new(10.9, 10.9, 10.9));
        assert_eq!(h.assign(&tiny).level, 4);
        // An object spanning a third of the space cannot fit a single cell below level 1.
        let large = Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(26.0, 2.0, 2.0));
        assert!(h.assign(&large).level <= 1);
        // An object spanning the whole space goes to level 0.
        let huge = Aabb::new(Point3::ORIGIN, Point3::splat(80.0));
        assert_eq!(h.assign(&huge).level, 0);
    }

    #[test]
    fn straddling_objects_are_promoted() {
        let h = HierarchicalGrid::new(space(), 5, 3);
        // Straddles the x = 27 boundary of level-1 cells (cell size 27), so even
        // though it is tiny it cannot be assigned below level 0.
        let straddler = Aabb::new(Point3::new(26.9, 1.0, 1.0), Point3::new(27.1, 1.2, 1.2));
        assert_eq!(h.assign(&straddler).level, 0);
    }

    #[test]
    fn assigned_cell_contains_the_object() {
        let h = HierarchicalGrid::new(space(), 4, 3);
        let ds = sample_dataset();
        for o in ds.iter() {
            let cell = h.assign(&o.mbr);
            let (lo, hi) = h.cell_range(cell.level, &o.mbr);
            assert_eq!(lo, hi, "object must overlap exactly one cell at its level");
            assert_eq!(lo, cell.coords);
        }
    }

    #[test]
    fn ancestor_and_encloses() {
        let h = HierarchicalGrid::new(space(), 5, 3);
        let fine = LevelCell { level: 4, coords: [80, 40, 13] };
        let a3 = h.ancestor(fine, 3);
        assert_eq!(a3, LevelCell { level: 3, coords: [26, 13, 4] });
        let a0 = h.ancestor(fine, 0);
        assert_eq!(a0, LevelCell { level: 0, coords: [0, 0, 0] });
        assert!(h.encloses(a3, fine));
        assert!(h.encloses(a0, fine));
        assert!(h.encloses(fine, fine));
        let other = LevelCell { level: 3, coords: [0, 0, 0] };
        assert!(!h.encloses(other, fine));
        assert!(!h.encloses(fine, other), "finer cell cannot enclose a coarser one");
    }

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let mut k = 0.37;
        for _ in 0..200 {
            k = (k * 7.13 + 1.7) % 75.0;
            let side = 0.2 + (k % 3.0);
            let min = Point3::new(k, (k * 1.3) % 75.0, (k * 2.1) % 75.0);
            ds.push_mbr(Aabb::new(min, min + Point3::splat(side)));
        }
        ds
    }

    #[test]
    fn index_holds_every_object_exactly_once() {
        let h = HierarchicalGrid::paper_default(space());
        let ds = sample_dataset();
        let idx = HierGridIndex::build(h, ds.objects());
        assert_eq!(idx.len(), ds.len());
        assert!(!idx.is_empty());
        let mut seen = vec![0u32; ds.len()];
        for (_, ids) in idx.non_empty_cells() {
            for &id in ids {
                seen[id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "single assignment: each object once");
        assert_eq!(idx.level_histogram().iter().sum::<usize>(), ds.len());
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn lookup_returns_assigned_objects() {
        let h = HierarchicalGrid::paper_default(space());
        let ds = sample_dataset();
        let idx = HierGridIndex::build(h, ds.objects());
        for o in ds.iter() {
            let cell = h.assign(&o.mbr);
            let ids = idx.cell(cell).expect("assigned cell must exist");
            assert!(ids.contains(&o.id));
        }
        // An untouched cell at the finest level is empty.
        assert!(idx.cell(LevelCell { level: h.levels() - 1, coords: [999, 999, 999] }).is_none());
    }

    /// The cell formula `axis_cell` replaced, verbatim: `floor`, then clamp.
    fn floor_axis_cell(h: &HierarchicalGrid, level: u32, axis: usize, v: f64) -> u32 {
        let cells = h.cells_per_axis(level);
        let lo = h.extent.min.coord(axis);
        let side = h.extent.max.coord(axis) - lo;
        if side <= 0.0 {
            return 0;
        }
        let cell = ((v - lo) / side * cells as f64).floor();
        (cell.max(0.0) as u64).min(cells - 1) as u32
    }

    /// Hierarchies with inexact, tiny, huge and degenerate cell sizes.
    fn cell_math_hierarchies() -> Vec<HierarchicalGrid> {
        vec![
            HierarchicalGrid::paper_default(Aabb::new(
                Point3::new(-3.7, 0.0, 1e-3),
                Point3::new(96.1, 1.0, 2e-3),
            )),
            HierarchicalGrid::new(space(), 4, 2),
            HierarchicalGrid::new(Aabb::new(Point3::splat(-1e-300), Point3::splat(1e-300)), 3, 3),
            HierarchicalGrid::new(Aabb::new(Point3::splat(-1e300), Point3::splat(1e300)), 3, 7),
            HierarchicalGrid::new(Aabb::new(Point3::splat(5.0), Point3::new(5.0, 6.0, 5.0)), 3, 3),
        ]
    }

    #[test]
    fn axis_cell_matches_the_floor_formula_on_edge_values() {
        for h in cell_math_hierarchies() {
            for level in 0..h.levels() {
                let cells = h.cells_per_axis(level);
                for axis in 0..3 {
                    let lo = h.extent.min.coord(axis);
                    let step = (h.extent.max.coord(axis) - lo) / cells as f64;
                    for v in crate::float_cases::edge_values(lo, step, cells as usize) {
                        assert_eq!(
                            h.axis_cell(level, axis, v),
                            floor_axis_cell(&h, level, axis, v),
                            "level {level}, axis {axis}, v = {v:e} ({:#018x}) on {h:?}",
                            v.to_bits()
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        #[test]
        fn axis_cell_matches_the_floor_formula_on_any_bit_pattern(
            bits in 0u64..u64::MAX,
            near in -150.0..250.0f64,
        ) {
            for h in cell_math_hierarchies() {
                for level in 0..h.levels() {
                    for axis in 0..3 {
                        for v in [f64::from_bits(bits), near] {
                            proptest::prop_assert_eq!(
                                h.axis_cell(level, axis, v),
                                floor_axis_cell(&h, level, axis, v),
                                "level {}, axis {}, v = {:e} ({:#018x})",
                                level, axis, v, v.to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "refinement factor must be at least 2")]
    fn refinement_one_rejected() {
        let _ = HierarchicalGrid::new(space(), 3, 1);
    }
}
