//! Uniform space-partitioning grid with multiple assignment.
//!
//! PBSM (Patel & DeWitt, SIGMOD '96) partitions the joint extent of both datasets
//! into a uniform grid and assigns every object to *all* cells it overlaps (multiple
//! assignment). The paper evaluates two configurations, 100 and 500 cells per
//! dimension, illustrating the comparisons-vs-memory trade-off. The same geometric
//! grid ([`UniformGrid`]) is reused by TOUCH's local join (with a sparse cell store,
//! see `touch-core`).
//!
//! [`MultiAssignGrid`] stores the assignment in CSR form (one offsets array + one
//! entries array) rather than one `Vec` per cell: two flat allocations, no per-cell
//! overhead, and a memory footprint that directly reflects the replication the paper
//! attributes PBSM's memory consumption to.

use touch_geom::{Aabb, SpatialObject};
use touch_metrics::{vec_bytes, MemoryUsage};

/// Integer coordinates of a grid cell, one index per axis.
pub type CellCoords = [usize; 3];

/// The geometry of a uniform grid over an extent: cell counts and cell sizes per axis.
///
/// `UniformGrid` is pure geometry — it maps points and boxes to cell coordinates but
/// stores nothing. [`MultiAssignGrid`] (dense, CSR) and the sparse per-node grids of
/// the TOUCH local join build on it.
#[derive(Debug, Clone, Copy)]
pub struct UniformGrid {
    extent: Aabb,
    cells: [usize; 3],
    cell_size: [f64; 3],
}

impl UniformGrid {
    /// Creates a grid over `extent` with `cells_per_dim` cells along every axis.
    ///
    /// # Panics
    /// Panics if `cells_per_dim` is zero.
    pub fn new(extent: Aabb, cells_per_dim: usize) -> Self {
        Self::with_cells(extent, [cells_per_dim; 3])
    }

    /// Creates a grid with a per-axis cell count.
    ///
    /// # Panics
    /// Panics if any cell count is zero.
    pub fn with_cells(extent: Aabb, cells: [usize; 3]) -> Self {
        assert!(cells.iter().all(|&c| c > 0), "cell counts must be positive");
        let ext = extent.extent();
        let sides = [ext.x, ext.y, ext.z];
        let mut cell_size = [0.0; 3];
        for axis in 0..3 {
            cell_size[axis] =
                if sides[axis] > 0.0 { sides[axis] / cells[axis] as f64 } else { 0.0 };
        }
        UniformGrid { extent, cells, cell_size }
    }

    /// Creates a grid aiming for `cells_per_dim` cells per axis but never letting a
    /// cell shrink below `min_cell_size` (Section 5.2.2: the cell size should stay
    /// "considerably larger than the average size of the objects").
    pub fn with_min_cell_size(extent: Aabb, cells_per_dim: usize, min_cell_size: f64) -> Self {
        assert!(cells_per_dim > 0, "cell counts must be positive");
        let ext = extent.extent();
        let sides = [ext.x, ext.y, ext.z];
        let mut cells = [1usize; 3];
        for axis in 0..3 {
            let max_cells = if min_cell_size > 0.0 && sides[axis] > 0.0 {
                (sides[axis] / min_cell_size).floor() as usize
            } else {
                cells_per_dim
            };
            cells[axis] = cells_per_dim.min(max_cells).max(1);
        }
        Self::with_cells(extent, cells)
    }

    /// The extent the grid covers.
    #[inline]
    pub fn extent(&self) -> Aabb {
        self.extent
    }

    /// Cells per axis.
    #[inline]
    pub fn cells_per_axis(&self) -> [usize; 3] {
        self.cells
    }

    /// Cell side length per axis (0 along degenerate axes).
    #[inline]
    pub fn cell_size(&self) -> [f64; 3] {
        self.cell_size
    }

    /// Total number of cells.
    #[inline]
    pub fn total_cells(&self) -> usize {
        self.cells[0] * self.cells[1] * self.cells[2]
    }

    /// The cell index of coordinate `v` along `axis`, clamped to the grid.
    ///
    /// Truncation after `max(0.0)` is the floor for every `f64` (NaN maps to
    /// cell 0, ±∞ saturate), so no `floor` call — out-of-line libm on baseline
    /// x86-64 — is needed. The division stays: a reciprocal multiply would
    /// move cell boundaries.
    #[inline]
    fn axis_cell(&self, axis: usize, v: f64) -> usize {
        if self.cell_size[axis] <= 0.0 {
            return 0;
        }
        let rel = (v - self.extent.min.coord(axis)) / self.cell_size[axis];
        (rel.max(0.0) as usize).min(self.cells[axis] - 1)
    }

    /// The inclusive range of cell indices `mbr` overlaps along `axis` — one
    /// axis of [`UniformGrid::cell_range`], so a caller can reject a box on
    /// its first axis before it pays for the other two.
    #[inline]
    pub fn axis_range(&self, axis: usize, mbr: &Aabb) -> (usize, usize) {
        (self.axis_cell(axis, mbr.min.coord(axis)), self.axis_cell(axis, mbr.max.coord(axis)))
    }

    /// The coordinates of the cell containing `p` (points outside the extent are
    /// clamped to the border cells).
    #[inline]
    pub fn cell_of_point(&self, p: &touch_geom::Point3) -> CellCoords {
        [self.axis_cell(0, p.x), self.axis_cell(1, p.y), self.axis_cell(2, p.z)]
    }

    /// The inclusive range of cell coordinates overlapped by `mbr`.
    #[inline]
    pub fn cell_range(&self, mbr: &Aabb) -> (CellCoords, CellCoords) {
        let lo = [
            self.axis_cell(0, mbr.min.x),
            self.axis_cell(1, mbr.min.y),
            self.axis_cell(2, mbr.min.z),
        ];
        let hi = [
            self.axis_cell(0, mbr.max.x),
            self.axis_cell(1, mbr.max.y),
            self.axis_cell(2, mbr.max.z),
        ];
        (lo, hi)
    }

    /// Number of cells overlapped by `mbr`.
    #[inline]
    pub fn cells_overlapped(&self, mbr: &Aabb) -> usize {
        let (lo, hi) = self.cell_range(mbr);
        (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) * (hi[2] - lo[2] + 1)
    }

    /// Linearises cell coordinates into a single index in `0..total_cells()`.
    #[inline]
    pub fn linear_index(&self, c: CellCoords) -> usize {
        (c[2] * self.cells[1] + c[1]) * self.cells[0] + c[0]
    }

    /// Calls `f` with the linear index of every cell overlapped by `mbr`.
    #[inline]
    pub fn for_each_overlapped_cell(&self, mbr: &Aabb, mut f: impl FnMut(usize)) {
        let (lo, hi) = self.cell_range(mbr);
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    f(self.linear_index([x, y, z]));
                }
            }
        }
    }
}

/// A uniform grid with every object assigned to all cells it overlaps (PBSM-style
/// multiple assignment), stored in CSR form.
#[derive(Debug, Clone)]
pub struct MultiAssignGrid {
    grid: UniformGrid,
    /// `offsets[c]..offsets[c+1]` indexes `entries` for cell `c`.
    offsets: Vec<u32>,
    /// Object ids, grouped by cell.
    entries: Vec<u32>,
    /// Number of objects assigned (before replication).
    objects: usize,
}

impl MultiAssignGrid {
    /// Assigns `objects` to `grid`, replicating each object into every cell its MBR
    /// overlaps. Returns the built index; the number of replicas created (total
    /// assignments minus number of objects) is available via
    /// [`MultiAssignGrid::replicas`].
    pub fn build(grid: UniformGrid, objects: &[SpatialObject]) -> Self {
        let cells = grid.total_cells();
        // Pass 1: count assignments per cell.
        let mut counts = vec![0u32; cells + 1];
        for o in objects {
            grid.for_each_overlapped_cell(&o.mbr, |c| counts[c + 1] += 1);
        }
        // Prefix sums -> offsets.
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let total = counts[cells] as usize;
        // Pass 2: fill entries.
        let mut entries = vec![0u32; total];
        let mut cursor = counts.clone();
        for o in objects {
            grid.for_each_overlapped_cell(&o.mbr, |c| {
                entries[cursor[c] as usize] = o.id;
                cursor[c] += 1;
            });
        }
        MultiAssignGrid { grid, offsets: counts, entries, objects: objects.len() }
    }

    /// The grid geometry.
    #[inline]
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// The object ids assigned to the cell with linear index `cell`.
    #[inline]
    pub fn cell_entries(&self, cell: usize) -> &[u32] {
        let start = self.offsets[cell] as usize;
        let end = self.offsets[cell + 1] as usize;
        &self.entries[start..end]
    }

    /// Total number of (object, cell) assignments.
    #[inline]
    pub fn total_assignments(&self) -> usize {
        self.entries.len()
    }

    /// Number of replicas created by multiple assignment
    /// (total assignments − number of objects).
    #[inline]
    pub fn replicas(&self) -> usize {
        self.entries.len().saturating_sub(self.objects)
    }

    /// Iterator over the linear indices of non-empty cells.
    pub fn non_empty_cells(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.grid.total_cells()).filter(|&c| self.offsets[c + 1] > self.offsets[c])
    }
}

impl MemoryUsage for MultiAssignGrid {
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.offsets) + vec_bytes(&self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Dataset, Point3};

    fn space() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(100.0))
    }

    #[test]
    fn geometry_basics() {
        let g = UniformGrid::new(space(), 10);
        assert_eq!(g.cells_per_axis(), [10, 10, 10]);
        assert_eq!(g.total_cells(), 1000);
        assert_eq!(g.cell_size(), [10.0, 10.0, 10.0]);
        assert_eq!(g.cell_of_point(&Point3::new(0.0, 0.0, 0.0)), [0, 0, 0]);
        assert_eq!(g.cell_of_point(&Point3::new(99.9, 55.0, 10.0)), [9, 5, 1]);
        // Boundary and outside points clamp to valid cells.
        assert_eq!(g.cell_of_point(&Point3::new(100.0, 200.0, -5.0)), [9, 9, 0]);
    }

    #[test]
    fn cell_range_and_overlap_count() {
        let g = UniformGrid::new(space(), 10);
        let mbr = Aabb::new(Point3::new(5.0, 15.0, 95.0), Point3::new(25.0, 15.0, 99.0));
        let (lo, hi) = g.cell_range(&mbr);
        assert_eq!(lo, [0, 1, 9]);
        assert_eq!(hi, [2, 1, 9]);
        assert_eq!(g.cells_overlapped(&mbr), 3);
        let mut visited = Vec::new();
        g.for_each_overlapped_cell(&mbr, |c| visited.push(c));
        assert_eq!(visited.len(), 3);
        // all distinct
        let mut dedup = visited.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn linear_index_is_a_bijection() {
        let g = UniformGrid::with_cells(space(), [4, 3, 2]);
        let mut seen = vec![false; g.total_cells()];
        for z in 0..2 {
            for y in 0..3 {
                for x in 0..4 {
                    let idx = g.linear_index([x, y, z]);
                    assert!(idx < g.total_cells());
                    assert!(!seen[idx], "linear index collision at {:?}", [x, y, z]);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn degenerate_axis_maps_to_single_cell() {
        // 2-D data (zero z extent) must still work: the z axis has one logical cell.
        let flat = Aabb::new(Point3::ORIGIN, Point3::new(100.0, 100.0, 0.0));
        let g = UniformGrid::new(flat, 10);
        assert_eq!(g.cell_of_point(&Point3::new(50.0, 50.0, 0.0))[2], 0);
        let mbr = Aabb::new(Point3::new(1.0, 1.0, 0.0), Point3::new(2.0, 2.0, 0.0));
        assert_eq!(g.cells_overlapped(&mbr), 1);
    }

    #[test]
    fn min_cell_size_caps_resolution() {
        let g = UniformGrid::with_min_cell_size(space(), 500, 5.0);
        // 100 units / 5 units minimum cell size = at most 20 cells per axis.
        assert_eq!(g.cells_per_axis(), [20, 20, 20]);
        let g2 = UniformGrid::with_min_cell_size(space(), 10, 5.0);
        assert_eq!(g2.cells_per_axis(), [10, 10, 10]);
    }

    #[test]
    fn multi_assign_replicates_boundary_objects() {
        let g = UniformGrid::new(space(), 10);
        let mut ds = Dataset::new();
        // Object fully inside one cell.
        ds.push_mbr(Aabb::new(Point3::splat(1.0), Point3::splat(2.0)));
        // Object spanning two cells along x.
        ds.push_mbr(Aabb::new(Point3::new(8.0, 1.0, 1.0), Point3::new(12.0, 2.0, 2.0)));
        // Object spanning 8 cells (2 per axis).
        ds.push_mbr(Aabb::new(Point3::splat(18.0), Point3::splat(22.0)));
        let idx = MultiAssignGrid::build(g, ds.objects());
        assert_eq!(idx.total_assignments(), 1 + 2 + 8);
        assert_eq!(idx.replicas(), 8);
        // Each listed cell actually intersects the object's MBR.
        for c in idx.non_empty_cells() {
            assert!(!idx.cell_entries(c).is_empty());
        }
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn every_object_cell_pair_is_consistent() {
        let g = UniformGrid::new(space(), 5);
        let mut ds = Dataset::new();
        let mut k = 0.0;
        for _ in 0..50 {
            k += 1.9;
            let min = Point3::new(k % 90.0, (k * 1.7) % 90.0, (k * 2.3) % 90.0);
            ds.push_mbr(Aabb::new(min, min + Point3::splat(7.0)));
        }
        let idx = MultiAssignGrid::build(g, ds.objects());
        // Sum over cells equals sum over objects of cells_overlapped.
        let expected: usize = ds.iter().map(|o| g.cells_overlapped(&o.mbr)).sum();
        assert_eq!(idx.total_assignments(), expected);
        // And each object appears in each of its cells exactly once.
        for o in ds.iter() {
            let mut appearances = 0;
            g.for_each_overlapped_cell(&o.mbr, |c| {
                appearances += idx.cell_entries(c).iter().filter(|&&id| id == o.id).count();
            });
            assert_eq!(appearances, g.cells_overlapped(&o.mbr));
        }
    }

    /// The cell formula `axis_cell` replaced, verbatim: `floor`, then clamp.
    fn floor_axis_cell(g: &UniformGrid, axis: usize, v: f64) -> usize {
        if g.cell_size[axis] <= 0.0 {
            return 0;
        }
        let rel = (v - g.extent.min.coord(axis)) / g.cell_size[axis];
        (rel.floor().max(0.0) as usize).min(g.cells[axis] - 1)
    }

    /// Grids whose cell sizes are inexact, exact, tiny, huge and degenerate.
    fn cell_math_grids() -> Vec<UniformGrid> {
        vec![
            UniformGrid::with_cells(
                Aabb::new(Point3::new(-3.7, 0.0, 1e-3), Point3::new(96.1, 1.0, 2e-3)),
                [7, 1, 500],
            ),
            UniformGrid::new(space(), 10),
            UniformGrid::new(Aabb::new(Point3::splat(-1e-300), Point3::splat(1e-300)), 3),
            UniformGrid::new(Aabb::new(Point3::splat(-1e300), Point3::splat(1e300)), 64),
            UniformGrid::new(Aabb::new(Point3::splat(5.0), Point3::new(5.0, 6.0, 5.0)), 4),
        ]
    }

    #[test]
    fn axis_cell_matches_the_floor_formula_on_edge_values() {
        for g in cell_math_grids() {
            for axis in 0..3 {
                let lo = g.extent.min.coord(axis);
                let values = crate::float_cases::edge_values(lo, g.cell_size[axis], g.cells[axis]);
                for v in values {
                    assert_eq!(
                        g.axis_cell(axis, v),
                        floor_axis_cell(&g, axis, v),
                        "axis {axis}, v = {v:e} ({:#018x}) on {g:?}",
                        v.to_bits()
                    );
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
            for g in cell_math_grids() {
                for axis in 0..3 {
                    for v in [f64::from_bits(bits), near] {
                        proptest::prop_assert_eq!(
                            g.axis_cell(axis, v),
                            floor_axis_cell(&g, axis, v),
                            "axis {}, v = {:e} ({:#018x})", axis, v, v.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn axis_range_is_one_axis_of_cell_range() {
        let g = UniformGrid::with_cells(space(), [7, 3, 11]);
        let mbrs = [
            Aabb::new(Point3::new(5.0, 15.0, 95.0), Point3::new(25.0, 15.0, 99.0)),
            Aabb::new(Point3::splat(-20.0), Point3::splat(300.0)),
            Aabb { min: Point3::new(f64::NAN, 60.0, 1.0), max: Point3::new(40.0, 10.0, 1.0) },
        ];
        for mbr in mbrs {
            let (lo, hi) = g.cell_range(&mbr);
            for axis in 0..3 {
                assert_eq!(g.axis_range(axis, &mbr), (lo[axis], hi[axis]), "{mbr:?} axis {axis}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell counts must be positive")]
    fn zero_cells_panics() {
        let _ = UniformGrid::new(space(), 0);
    }
}
