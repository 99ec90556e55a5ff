//! Reusable scratch memory for the join phase: the CSR grid directory, the SoA
//! candidate-MBR cache, the plane-sweep buffers and the per-epoch work list.
//!
//! TOUCH's filter phase is bounded by comparisons and cache behaviour, not I/O —
//! which makes per-node allocation the enemy. The seed implementation paid a
//! `HashMap<usize, Vec<u32>>` per grid local join and a fresh `to_vec()` of both
//! object lists per plane-sweep node; on workloads with thousands of small nodes
//! those allocations dwarf the actual MBR tests. [`LocalJoinScratch`] replaces all
//! of it with flat buffers that are **retained across nodes, epochs and queries**:
//!
//! * the grid's cell directory is a CSR layout (count pass → prefix sum → fill into
//!   two flat arrays), reset in O(touched cells) between nodes;
//! * the candidate test scans a contiguous MBR array instead of hopping
//!   `SpatialObject` structs;
//! * the plane-sweep clones land in two reused buffers;
//! * the join phase's `nodes_with_assignments` work list is served from a reused
//!   buffer ([`ScratchPool`]).
//!
//! The grid probe's cost follows what the node's B-list can reach, not the size
//! of the node's subtree:
//!
//! * **floor-free cells** — [`UniformGrid`] maps coordinates to cells by
//!   truncation, which equals the floor on every value it keeps, so no libm
//!   call sits in the per-object path;
//! * **x-first rejection** — each A-object's cell span is clamped to the box of
//!   occupied cells one axis at a time, so most misses cost two divisions;
//! * **leaf-run pruning** — after the count pass, the subtree is walked in
//!   child order and only the leaves whose MBR reaches the occupied box are
//!   probed, as merged A-ranges ([`TouchTree::probe_runs`]). Every A-MBR lies
//!   inside its leaf's MBR and the cell map is monotone, so each skipped object
//!   is one the probe would have passed without touching a counter. NaN breaks
//!   that containment — node MBRs drop NaN coordinates, the grid maps them to
//!   cell 0 — so a tree holding any NaN coordinate probes every object.
//!
//! Per candidate, the probe pays only for what decides a pair:
//!
//! * **run-level filter** — a cell's whole candidate run goes through one SIMD
//!   call per [`simd::RUN_MAX`] candidates, and only the lanes its mask keeps
//!   are visited; the run is counted in bulk afterwards;
//! * **division-free reference point** — the count pass keeps each B-object's
//!   cell range, so the fill pass does not recompute it and the probe finds the
//!   cell of a hit's reference point with three `max`es instead of three
//!   divisions.
//!
//! Every path through the scratch produces **exactly** the pairs, pair order and
//! counters of the seed implementation — the CSR directory lists each cell's
//! candidates in B-insertion order, precisely as the per-cell `Vec`s did, and
//! the pruned probe visits the surviving A-objects in their original order.

use crate::simd;
use crate::TouchTree;
use std::ops::Range;
use touch_geom::{Aabb, ObjectId, SpatialObject};
use touch_index::{CellCoords, UniformGrid};
use touch_metrics::{vec_bytes, Counters, MemoryUsage};

/// Grids with at most this many cells use the dense CSR directory (two flat `u32`
/// arrays indexed by linear cell id, O(1) probe lookups). Larger grids — possible
/// only under extreme `cells_per_dim`/`min_cell_size` configurations — fall back to
/// a sorted sparse directory whose footprint scales with the *occupied* cells, like
/// the seed's `HashMap` did, instead of the geometric cell count.
const DENSE_DIRECTORY_MAX_CELLS: usize = 1 << 21;

/// Reusable per-worker scratch for [`TouchTree::local_join_node`] and everything
/// above it.
///
/// A scratch is plain memory: it carries no results between joins, only capacity.
/// Using one scratch for a thousand local joins performs exactly the same
/// comparisons and emits exactly the same pairs as a thousand fresh scratches —
/// locked down by `tests/scratch_equivalence.rs` — it just stops allocating once it
/// has seen a typical node.
///
/// [`TouchTree::local_join_node`]: crate::TouchTree::local_join_node
#[derive(Debug, Default, Clone)]
pub struct LocalJoinScratch {
    /// Dense CSR: number of B-entries per cell. Maintained **all-zero between
    /// joins** (reset walks only the touched cells), so a join can detect
    /// first-touch in O(1).
    cell_len: Vec<u32>,
    /// Dense CSR: running cursor per cell; after the fill pass, `cell_end[c]` is the
    /// exclusive end of cell `c`'s run in `entries` (start = end − len). Only
    /// entries of touched cells are meaningful.
    cell_end: Vec<u32>,
    /// Linear ids of the cells holding at least one B-entry, in first-touch order.
    touched_cells: Vec<u32>,
    /// B-positions grouped by cell (the CSR value array), each cell's run in
    /// B-insertion order.
    entries: Vec<u32>,
    /// Sparse fallback: `(cell, b_position)` pairs, sorted to group cells.
    sparse_pairs: Vec<(u64, u32)>,
    /// Sparse fallback directory: `(cell, start, end)` runs into `entries`.
    sparse_runs: Vec<(u64, u32, u32)>,
    /// SoA cache of the node's B-MBRs: the candidate test reads a contiguous
    /// 48-byte-stride array instead of 56-byte `SpatialObject`s scattered through
    /// the probe loop.
    b_mbrs: Vec<Aabb>,
    /// Each B-object's inclusive cell range, from the count pass: the fill
    /// pass reuses it, and the probe's reference-point test reads the lower
    /// cells.
    b_cells: Vec<(CellCoords, CellCoords)>,
    /// Plane-sweep clone of the node's A-objects (sorted in place by the kernel).
    sweep_a: Vec<SpatialObject>,
    /// Plane-sweep clone of the node's B-objects.
    sweep_b: Vec<SpatialObject>,
    /// The A-ranges the grid probe scans after leaf-run pruning
    /// ([`TouchTree::probe_runs`]).
    a_runs: Vec<Range<u32>>,
    /// The pruning walk's DFS stack of node ids.
    walk: Vec<u32>,
    /// The join phase's work list (`nodes_with_assignments`), refilled per epoch by
    /// [`TouchTree::join_assigned`] without reallocating.
    ///
    /// [`TouchTree::join_assigned`]: crate::TouchTree::join_assigned
    pub(crate) work: Vec<usize>,
}

impl LocalJoinScratch {
    /// An empty scratch. Buffers grow on first use and are retained from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if the grid directory holds no entries — the invariant every grid
    /// join re-establishes before it runs (and therefore leaves behind for the
    /// next). Exposed for the scratch-reuse test suites; the full `cell_len` scan
    /// (rather than just the touched cells) is deliberate, so a reset bug that
    /// strands stale counts *and* clears the touched list is still caught.
    pub fn directory_is_clean(&self) -> bool {
        self.touched_cells.is_empty() && self.cell_len.iter().all(|&len| len == 0)
    }

    /// The plane-sweep buffers, loaded with clones of `a_objs` and `b_objs`
    /// (the kernel sorts them in place, so the originals must stay untouched).
    pub(crate) fn load_sweep(
        &mut self,
        a_objs: &[SpatialObject],
        b_objs: &[SpatialObject],
    ) -> (&mut Vec<SpatialObject>, &mut Vec<SpatialObject>) {
        self.sweep_a.clear();
        self.sweep_a.extend_from_slice(a_objs);
        self.sweep_b.clear();
        self.sweep_b.extend_from_slice(b_objs);
        (&mut self.sweep_a, &mut self.sweep_b)
    }

    /// Algorithm 4's grid local join of node `index` of `tree` over reused flat
    /// memory: multiple assignment of `b_objs` into a CSR cell directory, then
    /// the probe pass over the subtree's A-objects with reference-point
    /// de-duplication. Pairs, pair order and counters are identical to the
    /// seed's per-cell-`Vec` implementation. Returns the A-objects the probe
    /// scanned after leaf-run pruning.
    pub(crate) fn grid_join(
        &mut self,
        grid: &UniformGrid,
        tree: &TouchTree,
        index: usize,
        b_objs: &[SpatialObject],
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    ) -> usize {
        let dense = grid.total_cells() <= DENSE_DIRECTORY_MAX_CELLS;
        self.join_with(dense, grid, tree, index, b_objs, counters, emit)
    }

    /// [`LocalJoinScratch::grid_join`] on the directory form the caller picks:
    /// the dense CSR arrays (O(1) lookups, memory per grid cell) or the sorted
    /// sparse runs (binary-searched, memory per occupied cell).
    #[allow(clippy::too_many_arguments)]
    fn join_with(
        &mut self,
        dense: bool,
        grid: &UniformGrid,
        tree: &TouchTree,
        index: usize,
        b_objs: &[SpatialObject],
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    ) -> usize {
        // Defensive reset: a panic that unwound through a previous join may have
        // left directory entries behind; clearing here (O(touched)) restores the
        // all-zero invariant no matter how the last join ended.
        for &c in &self.touched_cells {
            self.cell_len[c as usize] = 0;
        }
        self.touched_cells.clear();
        self.entries.clear();

        // One pass over B computes every cell range the directory passes and
        // the probe need, and the bounding box of occupied cells, which the
        // probe uses to skip A-objects that cannot reach any candidate.
        self.b_mbrs.clear();
        self.b_cells.clear();
        let mut occupied = CellBox::empty();
        for o in b_objs {
            let (lo, hi) = grid.cell_range(&o.mbr);
            occupied.widen(lo, hi);
            self.b_mbrs.push(o.mbr);
            self.b_cells.push((lo, hi));
        }

        if dense {
            self.fill_dense(grid, counters);
        } else {
            self.fill_sparse(grid, counters);
        }
        let a_probed = self.select_runs(grid, tree, index, &occupied);
        let (a_items, a_runs) = (tree.a_objects(), &self.a_runs);
        let b = BSide { objs: b_objs, mbrs: &self.b_mbrs, cells: &self.b_cells };
        if dense {
            let (cell_len, cell_end, entries) = (&self.cell_len, &self.cell_end, &self.entries);
            probe(grid, a_items, a_runs, &b, &occupied, counters, emit, |cell| {
                let len = cell_len[cell] as usize;
                if len == 0 {
                    return None;
                }
                let end = cell_end[cell] as usize;
                Some(&entries[end - len..end])
            });
            // Reset the directory to all-zero in O(touched cells).
            for &c in &self.touched_cells {
                self.cell_len[c as usize] = 0;
            }
            self.touched_cells.clear();
        } else {
            let (runs, entries) = (&self.sparse_runs, &self.entries);
            probe(grid, a_items, a_runs, &b, &occupied, counters, emit, |cell| {
                let i = runs.binary_search_by_key(&(cell as u64), |&(c, _, _)| c).ok()?;
                let (_, start, end) = runs[i];
                Some(&entries[start as usize..end as usize])
            });
        }
        a_probed
    }

    /// Leaf-run pruning ([`TouchTree::probe_runs`]): fills `a_runs` with the
    /// A-ranges of the leaves below node `index` whose cell range reaches the
    /// occupied box, and returns how many A-objects they hold.
    fn select_runs(
        &mut self,
        grid: &UniformGrid,
        tree: &TouchTree,
        index: usize,
        occupied: &CellBox,
    ) -> usize {
        let reaches = |mbr: &Aabb| (0..3).all(|axis| occupied.clamp(grid, mbr, axis).is_some());
        tree.probe_runs(index, reaches, &mut self.walk, &mut self.a_runs);
        self.a_runs.iter().map(|run| run.len()).sum()
    }

    /// Dense CSR directory over `b_cells`: count pass → prefix sum over the
    /// touched cells → fill, probed with O(1) cell lookups.
    fn fill_dense(&mut self, grid: &UniformGrid, counters: &mut Counters) {
        let cells = grid.total_cells();
        if self.cell_len.len() < cells {
            self.cell_len.resize(cells, 0);
            self.cell_end.resize(cells, 0);
        }

        // Count pass: how many B-objects land in each cell (multiple assignment;
        // every cell beyond an object's first is a replica, as in the seed).
        for &(lo, hi) in &self.b_cells {
            let mut first = true;
            for_cells(lo, hi, |c| {
                let cell = grid.linear_index(c);
                if self.cell_len[cell] == 0 {
                    self.touched_cells.push(cell as u32);
                }
                self.cell_len[cell] += 1;
                if first {
                    first = false;
                } else {
                    counters.record_replica();
                }
            });
        }

        // Prefix sum: assign each touched cell its run in `entries`, storing the
        // run *start* in `cell_end` so the fill pass can advance it into the end.
        let mut cursor = 0u32;
        for &c in &self.touched_cells {
            self.cell_end[c as usize] = cursor;
            cursor += self.cell_len[c as usize];
        }
        self.entries.resize(cursor as usize, 0);

        // Fill pass: B-positions drop into their cells in B order, so every cell's
        // run lists candidates in exactly the insertion order the seed's per-cell
        // `Vec`s had.
        for (pos, &(lo, hi)) in self.b_cells.iter().enumerate() {
            for_cells(lo, hi, |c| {
                let cell = grid.linear_index(c);
                self.entries[self.cell_end[cell] as usize] = pos as u32;
                self.cell_end[cell] += 1;
            });
        }
    }

    /// Sparse fallback for geometrically huge grids: `(cell, b_position)` pairs are
    /// sorted to group cells (B order within a cell is preserved because the pairs
    /// are unique and sorted lexicographically), then probed via binary search.
    fn fill_sparse(&mut self, grid: &UniformGrid, counters: &mut Counters) {
        self.sparse_pairs.clear();
        for (pos, &(lo, hi)) in self.b_cells.iter().enumerate() {
            let mut first = true;
            for_cells(lo, hi, |c| {
                self.sparse_pairs.push((grid.linear_index(c) as u64, pos as u32));
                if first {
                    first = false;
                } else {
                    counters.record_replica();
                }
            });
        }
        // (cell, pos) pairs are unique, so the unstable sort is deterministic and
        // keeps each cell's candidates in ascending B order — the insertion order
        // of the dense path and of the seed's per-cell `Vec`s.
        self.sparse_pairs.sort_unstable();

        self.sparse_runs.clear();
        for &(cell, pos) in &self.sparse_pairs {
            self.entries.push(pos);
            match self.sparse_runs.last_mut() {
                Some((c, _, end)) if *c == cell => *end += 1,
                _ => {
                    let at = (self.entries.len() - 1) as u32;
                    self.sparse_runs.push((cell, at, at + 1));
                }
            }
        }
    }
}

impl MemoryUsage for LocalJoinScratch {
    /// Heap bytes currently reserved by every scratch buffer. This is the figure
    /// the engines charge to the join phase's auxiliary memory: with reuse, it is
    /// the high-water mark of everything the local joins ever needed at once.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.cell_len)
            + vec_bytes(&self.cell_end)
            + vec_bytes(&self.touched_cells)
            + vec_bytes(&self.entries)
            + vec_bytes(&self.sparse_pairs)
            + vec_bytes(&self.sparse_runs)
            + vec_bytes(&self.b_mbrs)
            + vec_bytes(&self.b_cells)
            + vec_bytes(&self.sweep_a)
            + vec_bytes(&self.sweep_b)
            + vec_bytes(&self.a_runs)
            + vec_bytes(&self.walk)
            + vec_bytes(&self.work)
    }
}

/// The inclusive bounding box of the occupied grid cells, accumulated during the
/// count pass. The probe intersects every A-object's cell range with it, one axis
/// at a time: cells outside the box hold no candidates, so clamping skips them —
/// and usually whole A-objects, most after their x axis alone — **without
/// changing a single comparison** (an empty cell contributes nothing to the
/// counters either way). Leaf-run pruning applies the same test to node MBRs.
#[derive(Debug, Clone, Copy)]
struct CellBox {
    lo: [usize; 3],
    hi: [usize; 3],
}

impl CellBox {
    /// A box containing no cells (any clamp against it comes up empty).
    fn empty() -> Self {
        CellBox { lo: [usize::MAX; 3], hi: [0; 3] }
    }

    /// Widens the box to cover the inclusive cell range `lo..=hi`.
    #[inline]
    fn widen(&mut self, lo: [usize; 3], hi: [usize; 3]) {
        for axis in 0..3 {
            self.lo[axis] = self.lo[axis].min(lo[axis]);
            self.hi[axis] = self.hi[axis].max(hi[axis]);
        }
    }

    /// Intersects `mbr`'s inclusive cell range along `axis` with the box;
    /// `None` if no occupied cell falls inside it.
    #[inline]
    fn clamp(&self, grid: &UniformGrid, mbr: &Aabb, axis: usize) -> Option<(usize, usize)> {
        let (lo, hi) = grid.axis_range(axis, mbr);
        let (lo, hi) = (lo.max(self.lo[axis]), hi.min(self.hi[axis]));
        (lo <= hi).then_some((lo, hi))
    }
}

/// Visits every cell of the inclusive coordinate range in the z-major order of
/// [`UniformGrid::for_each_overlapped_cell`] — the directory passes and the probe
/// must walk cells in exactly the same order for the candidate runs to line up.
#[inline]
fn for_cells(lo: [usize; 3], hi: [usize; 3], mut f: impl FnMut([usize; 3])) {
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                f([x, y, z]);
            }
        }
    }
}

/// The node's B side as the probe reads it: the objects (for their ids), the
/// SoA MBR cache the candidate test gathers from, and each object's cell
/// range from the count pass.
struct BSide<'b> {
    objs: &'b [SpatialObject],
    mbrs: &'b [Aabb],
    cells: &'b [(CellCoords, CellCoords)],
}

/// The shared probe pass: every A-object of the `a_runs` ranges of `a_items`
/// visits the cells it overlaps (in the same z-major order the assignment passes
/// used, clamped to the occupied cell box — x first, so most misses cost one
/// axis), tests itself against the cell's candidates through the SoA MBR cache,
/// and reports a hit only from the cell containing the reference point
/// (Dittrich & Seeger), which guarantees exactly-once results without a
/// de-duplication pass. `lookup` maps a linear cell id to its candidate run
/// (`None` for empty cells).
///
/// Each candidate run goes through the run-level SIMD MBR filter
/// ([`simd::overlap_gathered`]), up to [`simd::RUN_MAX`] candidates per call,
/// and only lanes the (exact) bitmask keeps reach the scalar confirmation and
/// the reference-point rule, in run order. Comparisons and batch counters are
/// added per run by the rule in the [`simd`] module docs — all `n` lanes of a
/// run walked to the end; up to the stopping lane and its 4-lane batch when
/// `emit` stops the join — so pairs, order and counters are bit-identical to
/// the unbatched scalar walk on every backend.
///
/// The reference point is the lower corner of the intersection, and its cell
/// is found without a division: a hit lies in cell `(x, y, z)` iff
/// `max(x_lo, b_lo.x) == x` on every axis, where `x_lo` is the A-object's
/// clamped lower cell and `b_lo` the candidate's lower cell from the count
/// pass. This equals mapping the reference point itself: a confirmed hit has
/// no NaN among its compared coordinates, the cell map is monotone on
/// non-NaN values (so the cell of a max is the max of the cells), and every
/// candidate's lower cell is at least the occupied box's, so clamping A
/// cannot change the max.
///
/// Kept out of line, like the candidate walk inside it ([`probe_cell`]):
/// inlined into the directory pass, the probe ran slower on streams of small
/// joins.
#[inline(never)]
#[allow(clippy::too_many_arguments)] // private kernel: the args *are* the hot state
fn probe<'d>(
    grid: &UniformGrid,
    a_items: &[SpatialObject],
    a_runs: &[Range<u32>],
    b: &BSide<'_>,
    occupied: &CellBox,
    counters: &mut Counters,
    emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    lookup: impl Fn(usize) -> Option<&'d [u32]>,
) {
    let backend = simd::backend();
    let a_objs = a_runs.iter().flat_map(|run| &a_items[run.start as usize..run.end as usize]);
    'all: for a in a_objs {
        let Some((x_lo, x_hi)) = occupied.clamp(grid, &a.mbr, 0) else { continue };
        let Some((y_lo, y_hi)) = occupied.clamp(grid, &a.mbr, 1) else { continue };
        let Some((z_lo, z_hi)) = occupied.clamp(grid, &a.mbr, 2) else { continue };
        let lo = [x_lo, y_lo, z_lo];
        for z in z_lo..=z_hi {
            for y in y_lo..=y_hi {
                for x in x_lo..=x_hi {
                    let Some(candidates) = lookup(grid.linear_index([x, y, z])) else { continue };
                    let cell = [x, y, z];
                    if !probe_cell(a, lo, cell, candidates, b, backend, counters, emit) {
                        break 'all;
                    }
                }
            }
        }
    }
}

/// [`probe`]'s candidate walk for A-object `a` in the cell at `cell`, where
/// `lo` holds `a`'s clamped lower cells. Returns `false` if `emit` stopped the
/// join. Out of line so that the cell loop around it stays small: in the
/// workloads whose node joins scan many A-objects for few candidates, the
/// time goes to visiting empty cells, and with the walk inlined there their
/// joins measured 5–10% slower.
#[inline(never)]
#[allow(clippy::too_many_arguments)] // private kernel: the args *are* the hot state
fn probe_cell(
    a: &SpatialObject,
    lo: [usize; 3],
    cell: [usize; 3],
    candidates: &[u32],
    b: &BSide<'_>,
    backend: simd::Backend,
    counters: &mut Counters,
    emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
) -> bool {
    for run in candidates.chunks(simd::RUN_MAX) {
        let mask = simd::overlap_gathered(backend, &a.mbr, b.mbrs, run);
        for lane in simd::set_lanes(mask) {
            let bpos = run[lane] as usize;
            if !a.mbr.intersects(&b.mbrs[bpos]) {
                continue;
            }
            let (b_lo, _) = b.cells[bpos];
            if (0..3).all(|axis| lo[axis].max(b_lo[axis]) == cell[axis]) {
                if !emit(a.id, b.objs[bpos].id) {
                    simd::record_run(counters, run.len(), mask, Some(lane));
                    return false;
                }
            } else {
                counters.record_duplicate_suppressed();
            }
        }
        simd::record_run(counters, run.len(), mask, None);
    }
    true
}

/// A set of [`LocalJoinScratch`]es plus the join-phase work list, sized on demand:
/// one scratch per worker of the widest join it has served. This is what a
/// persistent engine ([`StreamingTouchJoin`]) holds on to so that *nothing* in the
/// join phase allocates per epoch once the stream has warmed up.
///
/// [`StreamingTouchJoin`]: https://docs.rs/touch-streaming
#[derive(Debug, Default, Clone)]
pub struct ScratchPool {
    scratches: Vec<LocalJoinScratch>,
    work: Vec<usize>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch of the sequential path (worker 0), creating it on first use.
    pub fn primary(&mut self) -> &mut LocalJoinScratch {
        &mut self.worker_scratches(1)[0]
    }

    /// Exactly-sized view of the first `workers` scratches, growing the pool if it
    /// has never served this many workers.
    pub fn worker_scratches(&mut self, workers: usize) -> &mut [LocalJoinScratch] {
        if self.scratches.len() < workers {
            self.scratches.resize_with(workers, LocalJoinScratch::default);
        }
        &mut self.scratches[..workers]
    }

    /// Number of worker scratches currently held.
    pub fn workers(&self) -> usize {
        self.scratches.len()
    }

    /// Takes the reusable work-list buffer out of the pool (so the pool's
    /// scratches can be borrowed independently while the list is iterated).
    /// Return it with [`ScratchPool::restore_work`].
    pub fn take_work(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.work)
    }

    /// Returns the work-list buffer taken with [`ScratchPool::take_work`],
    /// retaining its capacity for the next epoch.
    pub fn restore_work(&mut self, work: Vec<usize>) {
        self.work = work;
    }
}

impl MemoryUsage for ScratchPool {
    /// Reserved bytes across every worker scratch plus the work list.
    fn memory_bytes(&self) -> usize {
        self.scratches.iter().map(|s| s.memory_bytes()).sum::<usize>() + vec_bytes(&self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Dataset, Point3};

    fn boxes(seeds: &[(f64, f64, f64, f64)]) -> Dataset {
        Dataset::from_mbrs(seeds.iter().map(|&(x, y, z, s)| {
            let min = Point3::new(x, y, z);
            Aabb::new(min, min + Point3::splat(s))
        }))
    }

    fn dense_cloud(n: usize, seed: u64) -> Dataset {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        Dataset::from_mbrs((0..n).map(|_| {
            let min = Point3::new(next() * 30.0, next() * 30.0, next() * 30.0);
            Aabb::new(min, min + Point3::splat(0.5 + next() * 4.0))
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

    /// A one-leaf tree over `a` in its given order: the grid join of node 0
    /// probes every A-object, as a flat list.
    fn leaf(a: &Dataset) -> TouchTree {
        TouchTree::from_tiled(a.objects().to_vec(), 1, 2)
    }

    fn grid_join_pairs(
        scratch: &mut LocalJoinScratch,
        grid: &UniformGrid,
        a: &Dataset,
        b: &Dataset,
    ) -> (Vec<(u32, u32)>, Counters) {
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let probed =
            scratch.grid_join(grid, &leaf(a), 0, b.objects(), &mut counters, &mut |x, y| {
                pairs.push((x, y));
                true
            });
        assert_eq!(probed, a.len(), "a leaf is never pruned");
        pairs.sort_unstable();
        (pairs, counters)
    }

    #[test]
    fn dense_and_sparse_paths_agree_with_brute_force() {
        let a = dense_cloud(60, 7);
        let b = dense_cloud(80, 11);
        let extent = Aabb::new(Point3::ORIGIN, Point3::splat(35.0));
        let expected = brute(&a, &b);
        assert!(!expected.is_empty());

        // Dense: a handful of cells.
        let dense_grid = UniformGrid::new(extent, 8);
        let mut scratch = LocalJoinScratch::new();
        let (pairs, dense_counters) = grid_join_pairs(&mut scratch, &dense_grid, &a, &b);
        assert_eq!(pairs, expected);

        // Sparse: force the fallback with a grid over the dense limit.
        let huge_grid = UniformGrid::new(extent, 160); // 160³ > 2²¹ cells
        assert!(huge_grid.total_cells() > super::DENSE_DIRECTORY_MAX_CELLS);
        let (pairs, _) = grid_join_pairs(&mut scratch, &huge_grid, &a, &b);
        assert_eq!(pairs, expected, "sparse fallback must match brute force");

        // Same geometry ⇒ same counters, whichever directory is in use: compare the
        // dense run against a sparse run over an identical grid geometry.
        let mut forced = LocalJoinScratch::new();
        let mut counters = Counters::new();
        let mut pairs = Vec::new();
        let tree = leaf(&a);
        forced.join_with(false, &dense_grid, &tree, 0, b.objects(), &mut counters, &mut |x, y| {
            pairs.push((x, y));
            true
        });
        pairs.sort_unstable();
        assert_eq!(pairs, expected);
        assert_eq!(counters, dense_counters, "dense and sparse paths must count identically");
    }

    #[test]
    fn reuse_across_joins_is_clean_and_stops_allocating() {
        let a1 = dense_cloud(50, 1);
        let b1 = dense_cloud(70, 2);
        let a2 = boxes(&[(0.0, 0.0, 0.0, 2.0), (3.0, 3.0, 3.0, 2.0)]);
        let b2 = boxes(&[(1.0, 1.0, 1.0, 3.0)]);
        let extent = Aabb::new(Point3::ORIGIN, Point3::splat(35.0));
        let grid1 = UniformGrid::new(extent, 10);
        let grid2 = UniformGrid::new(Aabb::new(Point3::ORIGIN, Point3::splat(6.0)), 4);

        // Reference: fresh scratches.
        let fresh1 = grid_join_pairs(&mut LocalJoinScratch::new(), &grid1, &a1, &b1);
        let fresh2 = grid_join_pairs(&mut LocalJoinScratch::new(), &grid2, &a2, &b2);

        // One scratch, interleaved reuse over different grids and object sets.
        let mut scratch = LocalJoinScratch::new();
        for _ in 0..3 {
            assert_eq!(grid_join_pairs(&mut scratch, &grid1, &a1, &b1), fresh1);
            assert!(scratch.directory_is_clean(), "join left directory entries behind");
            assert_eq!(grid_join_pairs(&mut scratch, &grid2, &a2, &b2), fresh2);
            assert!(scratch.directory_is_clean());
        }

        // Warm scratch: repeating the largest join must not grow the buffers.
        let warm = scratch.memory_bytes();
        assert!(warm > 0);
        let _ = grid_join_pairs(&mut scratch, &grid1, &a1, &b1);
        assert_eq!(scratch.memory_bytes(), warm, "warm reuse must not allocate");
    }

    #[test]
    fn early_termination_stops_the_probe_and_leaves_the_scratch_reusable() {
        let a = boxes(&[(0.0, 0.0, 0.0, 1.0); 5]);
        let b = boxes(&[(0.0, 0.0, 0.0, 1.0); 7]);
        let grid = UniformGrid::new(Aabb::new(Point3::ORIGIN, Point3::splat(2.0)), 2);
        let mut scratch = LocalJoinScratch::new();
        let mut counters = Counters::new();
        let mut emitted = 0;
        scratch.grid_join(&grid, &leaf(&a), 0, b.objects(), &mut counters, &mut |_, _| {
            emitted += 1;
            emitted < 3
        });
        assert_eq!(emitted, 3);
        assert!(counters.comparisons < 35, "the probe must stop with the emitter");
        // The next join starts from a clean directory even after an early stop.
        let (pairs, _) = grid_join_pairs(&mut scratch, &grid, &a, &b);
        assert_eq!(pairs.len(), 35);
    }

    #[test]
    fn pool_grows_on_demand_and_recycles_the_work_list() {
        let mut pool = ScratchPool::new();
        assert_eq!(pool.workers(), 0);
        pool.primary();
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.worker_scratches(4).len(), 4);
        assert_eq!(pool.workers(), 4);
        // Narrower views don't shrink the pool.
        assert_eq!(pool.worker_scratches(2).len(), 2);
        assert_eq!(pool.workers(), 4);

        let mut work = pool.take_work();
        work.extend([3usize, 1, 2]);
        let ptr = work.as_ptr();
        pool.restore_work(work);
        let again = pool.take_work();
        assert!(again.capacity() >= 3, "work list capacity must be retained");
        assert_eq!(again.as_ptr(), ptr, "work list buffer must be the same allocation");
        pool.restore_work(again);
        assert!(pool.memory_bytes() > 0);
    }
}
