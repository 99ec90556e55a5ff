//! The TOUCH hierarchy: data-oriented tree over dataset A, hierarchical assignment of
//! dataset B, and the per-node local joins.
//!
//! This module implements Algorithms 2 (tree building), 3 (assignment) and 4 (join
//! phase) of the paper. The tree is stored as a flat arena of nodes built bottom-up:
//! dataset A is STR-partitioned into `p` buckets which become the leaves, and each
//! higher level groups `fanout` consecutive nodes (the leaves are already in STR tile
//! order, so consecutive runs are spatially coherent — the in-memory analogue of the
//! paper's per-level STR grouping). Because grouping is consecutive, the A-objects of
//! any subtree form one contiguous range of the object array, which is what the join
//! phase iterates.

use crate::assignment::AssignmentBuffer;
use crate::control::{CancelCause, CancelToken, ExecControl};
use crate::kernels;
use crate::scratch::LocalJoinScratch;
use std::ops::Range;
use touch_geom::{Aabb, ObjectId, SpatialObject};
use touch_index::{str_sort, UniformGrid};
use touch_metrics::{vec_bytes, Counters, MemoryUsage, TraceEvent, TraceSink};

/// Strategy used by the join phase to join one node's B-objects against the
/// A-objects of its descendant leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalJoinKind {
    /// Algorithm 4 of the paper: a uniform grid over the node's extent with multiple
    /// assignment of the B-objects and reference-point de-duplication.
    Grid,
    /// Plane-sweep over the two object lists (the local join the paper's baselines
    /// use); no replication, no de-duplication needed.
    PlaneSweep,
    /// Exhaustive pairwise comparison; the simplest correct local join, used as the
    /// ablation baseline.
    AllPairs,
}

impl LocalJoinKind {
    /// Stable lowercase name, used by the trace layer to label per-node spans.
    pub fn name(self) -> &'static str {
        match self {
            LocalJoinKind::Grid => "grid",
            LocalJoinKind::PlaneSweep => "plane-sweep",
            LocalJoinKind::AllPairs => "all-pairs",
        }
    }
}

/// The complete parameterisation of one local join ([`TouchTree::local_join_node`]).
///
/// Bundling the knobs keeps every execution path — sequential, parallel and
/// streaming — on the same decisions. All fields are **independent of the assigned
/// B-objects**, which is what makes the join phase *decomposable*: joining a node's
/// B-objects in one pass or split across any number of epochs performs exactly the
/// same grid construction, comparisons and de-duplication, so results *and counters*
/// add up identically (the invariant `touch-streaming` relies on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalJoinParams {
    /// Local-join strategy.
    pub kind: LocalJoinKind,
    /// Target grid cells per dimension for [`LocalJoinKind::Grid`].
    pub cells_per_dim: usize,
    /// Minimum grid cell size (Section 5.2.2: cells stay larger than the average
    /// object).
    pub min_cell_size: f64,
    /// Nodes whose subtree holds at most this many A-objects skip the grid and use
    /// an all-pairs scan — building a grid for a handful of A-objects costs more
    /// than it prunes. The cutoff deliberately looks only at the A side (fixed at
    /// build time), never at the B count, so the decision is identical no matter
    /// how the B stream is batched.
    pub allpairs_max_a: usize,
    /// Per-node adaptive strategy selection (`None` — the default of every
    /// explicit configuration — keeps the single global cutoff above, exactly
    /// the historical behaviour). The planner derives `Some` from the probe
    /// dataset's statistics; see [`AdaptiveParams`].
    pub adapt: Option<AdaptiveParams>,
}

/// Per-node adaptive local-join strategy selection (the planner's replacement
/// for the single global `allpairs_max_a` cutoff, after Kipf et al.,
/// *Adaptive Geospatial Joins for Modern Hardware*).
///
/// [`LocalJoinParams::effective_kind`] consults, per node: the subtree's
/// **A-count** (known at build time), the node MBR's **mean extent**, and the
/// **expected B-objects** inside the node — its MBR volume times the probe
/// dataset's *global* density, pinned here at plan time. Using the plan-time
/// density rather than the node's actual B-list keeps the decision independent
/// of how the B stream is batched: a node picks the same strategy for every
/// epoch split, so pairs and counters stay exactly additive (the
/// decomposability invariant of [`LocalJoinParams`]).
///
/// The rules, in order:
/// 1. `a_count ≤ allpairs_max_a` → all-pairs (the legacy floor, unchanged);
/// 2. `a_count × expected_b ≤ allpairs_max_work` → all-pairs: the node is too
///    small for any candidate pruning to beat a raw batched scan;
/// 3. node mean side `< sweep_min_side_cells × min_cell_size` → plane-sweep:
///    the grid would degenerate to a handful of cells, replicating heavily
///    while pruning little — sorting once beats building it;
/// 4. otherwise → grid (Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Global density of the probe (B) dataset: objects per unit volume of its
    /// bounding MBR, from [`DatasetStats::density`](crate::DatasetStats::density).
    pub b_density: f64,
    /// Rule 2 threshold on `a_count × expected_b`. Default:
    /// [`AdaptiveParams::DEFAULT_ALLPAIRS_MAX_WORK`].
    pub allpairs_max_work: f64,
    /// Rule 3 threshold on the node's mean side, in units of the grid cell
    /// floor. Default: [`AdaptiveParams::DEFAULT_SWEEP_MIN_SIDE_CELLS`].
    pub sweep_min_side_cells: f64,
}

impl AdaptiveParams {
    /// Default all-pairs work ceiling: an `a_count × expected_b` at or below
    /// this is cheaper to scan than to index (≈ one L2 of candidate tests).
    pub const DEFAULT_ALLPAIRS_MAX_WORK: f64 = 4096.0;
    /// Default sweep threshold: a node whose mean side spans fewer than this
    /// many minimum-size cells gets a degenerate grid, so it sweeps instead.
    pub const DEFAULT_SWEEP_MIN_SIDE_CELLS: f64 = 4.0;

    /// Adaptive parameters with the default thresholds for a probe dataset of
    /// the given global density.
    pub fn with_density(b_density: f64) -> Self {
        AdaptiveParams {
            b_density,
            allpairs_max_work: Self::DEFAULT_ALLPAIRS_MAX_WORK,
            sweep_min_side_cells: Self::DEFAULT_SWEEP_MIN_SIDE_CELLS,
        }
    }

    /// Rules 2–4 (rule 1 lives in [`LocalJoinParams::effective_kind`], which is
    /// the only caller).
    fn pick(&self, a_count: usize, node_mbr: &Aabb, min_cell_size: f64) -> LocalJoinKind {
        let expected_b = self.b_density * node_mbr.volume();
        if (a_count as f64) * expected_b <= self.allpairs_max_work {
            return LocalJoinKind::AllPairs;
        }
        let extent = node_mbr.extent();
        let mean_side = (extent.x + extent.y + extent.z) / 3.0;
        if mean_side < self.sweep_min_side_cells * min_cell_size {
            return LocalJoinKind::PlaneSweep;
        }
        LocalJoinKind::Grid
    }
}

impl LocalJoinParams {
    /// The strategy a node with `a_count` subtree A-objects and MBR `node_mbr`
    /// actually runs. Without [`adapt`](LocalJoinParams::adapt),
    /// [`LocalJoinKind::Grid`] degrades to [`LocalJoinKind::AllPairs`] below the
    /// `allpairs_max_a` cutoff (building a grid for a handful of A-objects costs
    /// more than it prunes) and the MBR is ignored; with it, the node-local
    /// rules of [`AdaptiveParams`] pick between all three kinds. This is the
    /// **single** place the decision is made — [`TouchTree::local_join_node`]
    /// executes it and the trace layer labels spans with it, so the two can
    /// never diverge. The decision deliberately never consults the B count
    /// (see the field docs above); non-grid base kinds are always taken as-is.
    #[inline]
    pub fn effective_kind(&self, a_count: usize, node_mbr: &Aabb) -> LocalJoinKind {
        match self.kind {
            LocalJoinKind::Grid if a_count <= self.allpairs_max_a => LocalJoinKind::AllPairs,
            LocalJoinKind::Grid => match &self.adapt {
                Some(adapt) => adapt.pick(a_count, node_mbr, self.min_cell_size),
                None => LocalJoinKind::Grid,
            },
            kind => kind,
        }
    }
}

/// One node of the TOUCH hierarchy.
#[derive(Debug, Clone)]
pub struct TouchNode {
    /// MBR enclosing all A-objects below this node (leaf MBRs are the union of their
    /// bucket, inner MBRs the union of their children — Algorithm 2).
    pub mbr: Aabb,
    /// Level of the node: 0 for leaves, increasing towards the root.
    pub level: u32,
    /// Child node indices (empty range for leaves).
    children: Range<u32>,
    /// Range into the tree's A-object array covered by this subtree.
    a_range: Range<u32>,
    is_leaf: bool,
}

impl TouchNode {
    /// `true` if this node is a leaf (holds a bucket of A-objects).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// Indices of the child nodes (empty for leaves).
    #[inline]
    pub fn child_indices(&self) -> Range<usize> {
        self.children.start as usize..self.children.end as usize
    }

    /// Number of A-objects in this subtree.
    #[inline]
    pub fn a_count(&self) -> usize {
        (self.a_range.end - self.a_range.start) as usize
    }
}

/// The TOUCH support structure: a data-oriented hierarchy over dataset A whose inner
/// (and, degenerately, leaf) nodes additionally hold the assigned objects of
/// dataset B.
#[derive(Debug, Clone)]
pub struct TouchTree {
    a_items: Vec<SpatialObject>,
    nodes: Vec<TouchNode>,
    /// Flat `[min; max]` cache of every node's MBR, indexed by node id. The
    /// assignment descent tests a parent's children — contiguous ids — against the
    /// probe object; scanning this 48-byte-stride array instead of hopping across
    /// the much larger [`TouchNode`] structs keeps the hot loop inside one or two
    /// cache lines per child run.
    node_mbrs: Vec<Aabb>,
    /// Node-index ranges per level, leaves first.
    levels: Vec<Range<usize>>,
    partitions: usize,
    fanout: usize,
    /// The per-node B-lists of the current assignment (Algorithm 3): the same
    /// store a serving reader keeps outside a frozen tree.
    store: AssignmentBuffer,
    /// `false` if any A-coordinate is NaN. Node MBRs drop NaN coordinates
    /// (`f64::min`/`max` ignore them) while the grid maps NaN to cell 0, so
    /// such a tree cannot bound its objects' cells by its nodes' cells and
    /// [`TouchTree::probe_runs`] does not prune it.
    nan_free: bool,
}

impl TouchTree {
    /// The STR bucket (leaf) capacity for `len` objects split into `partitions`
    /// buckets. The single source of the chunking that [`TouchTree::build`],
    /// [`TouchTree::from_tiled`] and the multi-threaded sort of
    /// [`crate::phases::par_build_tree`] must all agree on.
    ///
    /// # Panics
    /// Panics if `partitions` is zero.
    #[inline]
    pub fn leaf_capacity(len: usize, partitions: usize) -> usize {
        assert!(partitions > 0, "partitions must be positive");
        len.div_ceil(partitions).max(1)
    }

    /// Builds the hierarchy over dataset A (Algorithm 2).
    ///
    /// * `partitions` — the number of STR buckets (leaves); the paper uses 1024.
    /// * `fanout` — children per inner node; the paper uses 2.
    ///
    /// # Panics
    /// Panics if `partitions` is zero or `fanout < 2`.
    pub fn build(a_objects: &[SpatialObject], partitions: usize, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2"); // fail before the O(n log n) sort
        let mut a_items = a_objects.to_vec();
        if !a_items.is_empty() {
            let cap = Self::leaf_capacity(a_items.len(), partitions);
            str_sort(&mut a_items, |o| o.mbr.center(), cap);
        }
        Self::from_tiled(a_items, partitions, fanout)
    }

    /// Builds the hierarchy from objects that are **already in STR tile order**.
    ///
    /// `a_items` must be ordered so that consecutive chunks of
    /// [`TouchTree::leaf_capacity`] objects form spatially coherent buckets —
    /// exactly what [`touch_index::str_sort`] with that capacity produces. This is
    /// the entry point for [`crate::phases::par_build_tree`], which runs the STR
    /// sort on one or more threads and then hands the tiled objects over;
    /// [`TouchTree::build`] is the single-threaded sort + this constructor.
    ///
    /// Correctness does not depend on *how good* the tiling is (any permutation
    /// yields a correct join — Theorem 1 only needs the leaves to partition A); the
    /// tiling quality only affects how much work the assignment and join phases can
    /// prune.
    ///
    /// # Panics
    /// Panics if `partitions` is zero or `fanout < 2`.
    // Packing invariants, not fallible paths: every grouped range is non-empty
    // by loop construction and `levels` is pushed before it is read.
    #[allow(clippy::expect_used, clippy::unwrap_used)]
    pub fn from_tiled(a_items: Vec<SpatialObject>, partitions: usize, fanout: usize) -> Self {
        assert!(partitions > 0, "partitions must be positive");
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut nodes = Vec::new();
        let mut levels = Vec::new();

        if a_items.is_empty() {
            return TouchTree {
                a_items,
                nodes,
                node_mbrs: Vec::new(),
                levels,
                partitions,
                fanout,
                store: AssignmentBuffer::new(),
                nan_free: true,
            };
        }

        // Leaf level: one node per STR bucket.
        let leaf_capacity = Self::leaf_capacity(a_items.len(), partitions);
        let mut nan_free = true;
        let mut start = 0;
        while start < a_items.len() {
            let end = (start + leaf_capacity).min(a_items.len());
            let mbr = Aabb::union_all(a_items[start..end].iter().map(|o| {
                nan_free &= !o.mbr.has_nan();
                o.mbr
            }))
            .expect("non-empty leaf bucket");
            nodes.push(TouchNode {
                mbr,
                level: 0,
                children: 0..0,
                a_range: start as u32..end as u32,
                is_leaf: true,
            });
            start = end;
        }
        levels.push(0..nodes.len());

        // Upper levels: group `fanout` consecutive nodes of the previous level.
        let mut level = 1u32;
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap().clone();
            let this_start = nodes.len();
            let mut child = prev.start;
            while child < prev.end {
                let child_end = (child + fanout).min(prev.end);
                let mbr = Aabb::union_all(nodes[child..child_end].iter().map(|n| n.mbr))
                    .expect("non-empty inner node");
                let a_range = nodes[child].a_range.start..nodes[child_end - 1].a_range.end;
                nodes.push(TouchNode {
                    mbr,
                    level,
                    children: child as u32..child_end as u32,
                    a_range,
                    is_leaf: false,
                });
                child = child_end;
            }
            levels.push(this_start..nodes.len());
            level += 1;
        }

        let node_mbrs = nodes.iter().map(|n| n.mbr).collect();
        TouchTree {
            a_items,
            nodes,
            node_mbrs,
            levels,
            partitions,
            fanout,
            store: AssignmentBuffer::new(),
            nan_free,
        }
    }

    /// Consumes the tree and returns its A-item buffer, capacity intact.
    ///
    /// This is the tick-loop reuse primitive: a simulation that rebuilds the
    /// hierarchy every tick reclaims the sorted item buffer here, refills it
    /// from the new positions and hands it back to [`TouchTree::from_tiled`],
    /// so the dominant tree allocation is paid once, not once per tick.
    #[inline]
    pub fn into_items(self) -> Vec<SpatialObject> {
        self.a_items
    }

    /// Number of A-objects indexed by the tree.
    #[inline]
    pub fn a_len(&self) -> usize {
        self.a_items.len()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of levels (0 for an empty tree).
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The number of partitions (leaf buckets) requested at build time.
    #[inline]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The fanout requested at build time.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Index of the root node, or `None` for an empty tree.
    #[inline]
    pub fn root_index(&self) -> Option<usize> {
        self.levels.last().map(|r| r.start)
    }

    /// The node at `index`.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[inline]
    pub fn node(&self, index: usize) -> &TouchNode {
        &self.nodes[index]
    }

    /// Iterator over all node indices.
    pub fn node_indices(&self) -> Range<usize> {
        0..self.nodes.len()
    }

    /// The A-objects of the subtree rooted at `node` (its descendant leaves' buckets).
    #[inline]
    pub fn subtree_a_objects(&self, node: &TouchNode) -> &[SpatialObject] {
        &self.a_items[node.a_range.start as usize..node.a_range.end as usize]
    }

    /// All A-objects in STR (leaf bucket) order.
    #[inline]
    pub fn a_objects(&self) -> &[SpatialObject] {
        &self.a_items
    }

    /// Total number of B-objects currently assigned to nodes. O(1).
    pub fn assigned_b_count(&self) -> usize {
        self.store.assigned_count()
    }

    /// The B-objects assigned to the node at `index`, in arrival order.
    #[inline]
    pub fn assigned_b(&self, index: usize) -> &[SpatialObject] {
        self.store.node_objects(index)
    }

    /// The nodes currently holding at least one assigned B-object, in
    /// first-assignment order (see [`AssignmentBuffer::touched_nodes`]).
    #[inline]
    pub fn touched_nodes(&self) -> &[u32] {
        self.store.touched_nodes()
    }

    /// Runs `write` on the tree's store, which is moved out for the call
    /// because the store's methods take the tree they index.
    fn with_store<R>(&mut self, write: impl FnOnce(&mut AssignmentBuffer, &Self) -> R) -> R {
        let mut store = std::mem::take(&mut self.store);
        let out = write(&mut store, self);
        self.store = store;
        out
    }

    /// The tree's own store, for the store's accounting tests.
    #[cfg(test)]
    pub(crate) fn store(&self) -> &AssignmentBuffer {
        &self.store
    }

    /// Determines the node an object of dataset B would be assigned to (Algorithm 3),
    /// or `None` if the object can be filtered.
    ///
    /// Starting from the root, the object descends as long as it overlaps exactly one
    /// child MBR; it is assigned to the current node as soon as it overlaps more than
    /// one child, filtered as soon as it overlaps none, and assigned to a leaf if it
    /// reaches one.
    pub fn assignment_target(&self, mbr: &Aabb, counters: &mut Counters) -> Option<usize> {
        let mut current = self.root_index()?;
        // A root that is itself a leaf still filters objects outside its MBR
        // (Section 4.4: objects outside every leaf MBR cannot intersect anything).
        if self.nodes[current].is_leaf {
            counters.record_node_test();
            return if self.node_mbrs[current].intersects(mbr) { Some(current) } else { None };
        }
        loop {
            let node = &self.nodes[current];
            if node.is_leaf {
                return Some(current);
            }
            // The descent scans the children's MBRs from the flat cache: child ids
            // are contiguous, so this is a linear walk over packed `[min; max]`
            // boxes, not a hop across full node structs.
            let mut overlapping: Option<usize> = None;
            let mut multiple = false;
            let children = node.child_indices();
            for (child, child_mbr) in children.clone().zip(&self.node_mbrs[children]) {
                counters.record_node_test();
                if child_mbr.intersects(mbr) {
                    if overlapping.is_some() {
                        multiple = true;
                        break;
                    }
                    overlapping = Some(child);
                }
            }
            match (overlapping, multiple) {
                (None, _) => return None,                // overlaps no child: filtered
                (Some(_), true) => return Some(current), // overlaps several: stay here
                (Some(child), false) => current = child, // overlaps exactly one: descend
            }
        }
    }

    /// Assigns every object of dataset B to the tree (Algorithm 3), recording filtered
    /// objects in `counters`.
    pub fn assign(&mut self, b_objects: &[SpatialObject], counters: &mut Counters) {
        let complete = self.assign_ctl(b_objects, counters, CancelToken::never());
        debug_assert!(complete.is_none(), "the never token cannot trip");
    }

    /// Cancellable [`TouchTree::assign`] (see [`AssignmentBuffer::assign_ctl`]).
    pub fn assign_ctl(
        &mut self,
        b_objects: &[SpatialObject],
        counters: &mut Counters,
        cancel: &CancelToken,
    ) -> Option<CancelCause> {
        self.with_store(|store, tree| store.assign_ctl(tree, b_objects, counters, cancel))
    }

    /// Stores pre-computed `(node_index, object)` assignments (see
    /// [`AssignmentBuffer::extend`]): worker threads compute targets with the
    /// read-only [`TouchTree::assignment_target`], the coordinator applies
    /// them here.
    ///
    /// # Panics
    /// Panics if a node index is out of range.
    pub fn extend_assigned(
        &mut self,
        assignments: impl IntoIterator<Item = (usize, SpatialObject)>,
    ) {
        self.with_store(|store, tree| store.extend(tree, assignments));
    }

    /// Removes all assigned B-objects in O(touched nodes), keeping the node
    /// structure and the per-node capacities, so a long-lived tree stops
    /// allocating once it has seen a typical epoch.
    pub fn clear_assignment(&mut self) {
        self.store.clear();
    }

    /// Removes each `(node, count)` entry's `count` oldest assignments (see
    /// [`AssignmentBuffer::retract`]): a windowed stream retracts one expired
    /// epoch instead of clearing everything.
    ///
    /// # Panics
    /// Panics if a node index is out of range or `count` exceeds what the node
    /// currently holds — both indicate corrupted eviction records.
    pub fn retract_assigned(&mut self, retractions: impl IntoIterator<Item = (usize, usize)>) {
        self.store.retract(retractions);
    }

    /// Indices of the nodes the join phase has to visit, ascending (see
    /// [`AssignmentBuffer::work_into`]): the independent work units a parallel
    /// scheduler distributes.
    pub fn nodes_with_assignments(&self) -> Vec<usize> {
        let mut work = Vec::new();
        self.nodes_with_assignments_into(&mut work);
        work
    }

    /// The allocation-free form of [`TouchTree::nodes_with_assignments`]: clears
    /// `work` and refills it, retaining the buffer's capacity.
    pub fn nodes_with_assignments_into(&self, work: &mut Vec<usize>) {
        self.store.work_into(self, work);
    }

    /// Runs the join phase (Algorithm 4) over every node holding B-objects (see
    /// [`AssignmentBuffer::join`]); `params` configures the local joins.
    pub fn join_assigned(
        &self,
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    ) -> usize {
        self.store.join(self, params, scratch, counters, emit)
    }

    /// Controlled form of [`TouchTree::join_assigned`] (see
    /// [`AssignmentBuffer::join_ctl`]).
    pub fn join_assigned_ctl(
        &self,
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
        ctl: ExecControl<'_>,
        worker: usize,
    ) -> (usize, Option<CancelCause>) {
        self.store.join_ctl(self, params, scratch, counters, emit, ctl, worker)
    }

    /// Joins the B-objects `b_objs` of the node at `index` against the
    /// A-objects of its descendant leaves, using the requested local-join
    /// strategy over the reusable buffers of `scratch`. `emit` returning
    /// `false` abandons the rest of this node's local join. Returns the bytes
    /// the scratch has reserved after this join (its high-water mark so far —
    /// the figure a caller folds into the join phase's auxiliary memory).
    ///
    /// The B-list is passed in rather than looked up so the same kernel
    /// serves the tree's own store ([`TouchTree::assigned_b`]) and a serving
    /// reader's [`AssignmentBuffer`], where a frozen `Arc`-held tree is joined
    /// concurrently by many readers. The strategy cutoff consults only the A
    /// side, so where the B-list lives cannot change the computation.
    ///
    /// When `trace` is enabled the local join is wrapped in a
    /// [`TraceEvent::NodeJoin`] span attributed to `worker`, carrying the
    /// node's A/B counts, the A-objects the grid probe kept after leaf-run
    /// pruning, the effective strategy, the candidate comparisons performed
    /// (counter delta) and the pairs emitted. With a disabled sink
    /// this is one branch — recording can never change pairs or counters.
    #[allow(clippy::too_many_arguments)]
    pub fn local_join_node(
        &self,
        index: usize,
        b_objs: &[SpatialObject],
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
        trace: &dyn TraceSink,
        worker: usize,
    ) -> usize {
        if !trace.is_enabled() {
            return self.local_join_kernel(index, b_objs, params, scratch, counters, emit).0;
        }
        let a_count = self.nodes[index].a_count();
        let b_count = b_objs.len();
        let strategy = params.effective_kind(a_count, &self.nodes[index].mbr).name();
        let comparisons_before = counters.comparisons;
        let mut pairs = 0u64;
        let start_us = trace.now_us();
        let (aux, a_probed) =
            self.local_join_kernel(index, b_objs, params, scratch, counters, &mut |a, b| {
                pairs += 1;
                emit(a, b)
            });
        trace.record(TraceEvent::NodeJoin {
            node: index,
            worker,
            a_count,
            a_probed,
            b_count,
            strategy,
            candidates: counters.comparisons - comparisons_before,
            pairs,
            start_us,
            duration_us: trace.now_us().saturating_sub(start_us),
        });
        aux
    }

    /// The untraced body of [`TouchTree::local_join_node`]: returns the
    /// scratch bytes and the A-objects the join scanned (fewer than the
    /// subtree's only where the grid probe pruned leaves).
    fn local_join_kernel(
        &self,
        index: usize,
        b_objs: &[SpatialObject],
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    ) -> (usize, usize) {
        let node = &self.nodes[index];
        let a_objs = self.subtree_a_objects(node);
        // The grid→all-pairs degradation for small nodes lives in
        // `LocalJoinParams::effective_kind`, shared with the trace labelling.
        // The cutoff must not consult the B count: the B side of a node may
        // arrive split across epochs, and the per-node strategy has to be the
        // same for every split so that counters stay exactly additive (see
        // [`LocalJoinParams`]).
        let a_probed = match params.effective_kind(a_objs.len(), &node.mbr) {
            LocalJoinKind::AllPairs => {
                kernels::all_pairs(a_objs, b_objs, counters, emit);
                a_objs.len()
            }
            LocalJoinKind::PlaneSweep => {
                let (a_scratch, b_scratch) = scratch.load_sweep(a_objs, b_objs);
                kernels::plane_sweep(a_scratch, b_scratch, counters, emit);
                a_objs.len()
            }
            LocalJoinKind::Grid => {
                let grid = UniformGrid::with_min_cell_size(
                    node.mbr,
                    params.cells_per_dim.max(1),
                    params.min_cell_size,
                );
                scratch.grid_join(&grid, self, index, b_objs, counters, emit)
            }
        };
        (scratch.memory_bytes(), a_probed)
    }

    /// Fills `runs` with the A-ranges the grid probe of node `index` scans: the
    /// leaves of its subtree whose MBR passes `reaches`, in leaf order (which is
    /// A-array order), adjacent ranges merged. A subtree whose MBR fails is
    /// skipped whole; `stack` is the walk's reused DFS stack.
    ///
    /// Exact for any `reaches` that fails for every box inside one it fails for:
    /// every A-MBR lies inside its leaf's MBR, and every leaf's inside its
    /// ancestors'. NaN breaks that containment (see `nan_free`), so a leaf,
    /// and any node of a tree holding a NaN, yields its whole A-range.
    pub(crate) fn probe_runs(
        &self,
        index: usize,
        reaches: impl Fn(&Aabb) -> bool,
        stack: &mut Vec<u32>,
        runs: &mut Vec<Range<u32>>,
    ) {
        runs.clear();
        let node = &self.nodes[index];
        if node.is_leaf || !self.nan_free {
            runs.push(node.a_range.clone());
            return;
        }
        // The node itself is not tested: its grid spans exactly its MBR.
        stack.clear();
        stack.extend(node.children.clone().rev());
        while let Some(i) = stack.pop() {
            let i = i as usize;
            if !reaches(&self.node_mbrs[i]) {
                continue;
            }
            let node = &self.nodes[i];
            if !node.is_leaf {
                stack.extend(node.children.clone().rev());
                continue;
            }
            match runs.last_mut() {
                Some(run) if run.end == node.a_range.start => run.end = node.a_range.end,
                _ => runs.push(node.a_range.clone()),
            }
        }
    }
}

impl MemoryUsage for TouchTree {
    /// O(1): the store counts its B-list bytes as they grow, so a streaming
    /// engine can report memory every epoch without scanning the node array.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.a_items)
            + vec_bytes(&self.nodes)
            + vec_bytes(&self.node_mbrs)
            + vec_bytes(&self.levels)
            + self.store.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Dataset, Point3};
    use touch_metrics::NoTrace;

    fn lattice(side: usize, spacing: f64, box_side: f64) -> Dataset {
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min =
                        Point3::new(x as f64 * spacing, y as f64 * spacing, z as f64 * spacing);
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(box_side)));
                }
            }
        }
        ds
    }

    fn brute_pairs(a: &Dataset, b: &Dataset) -> Vec<(u32, u32)> {
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

    #[test]
    fn build_produces_a_binary_hierarchy_over_buckets() {
        let a = lattice(4, 2.0, 1.0); // 64 objects
        let tree = TouchTree::build(a.objects(), 8, 2);
        assert_eq!(tree.a_len(), 64);
        assert_eq!(tree.partitions(), 8);
        assert_eq!(tree.fanout(), 2);
        // 8 leaves -> 4 -> 2 -> 1
        assert_eq!(tree.height(), 4);
        assert_eq!(tree.node_count(), 15);
        let root = tree.node(tree.root_index().unwrap());
        assert!(!root.is_leaf());
        assert_eq!(root.a_count(), 64);
    }

    #[test]
    fn node_mbrs_enclose_their_subtrees() {
        let a = lattice(5, 3.0, 1.5);
        let tree = TouchTree::build(a.objects(), 16, 3);
        for idx in tree.node_indices() {
            let node = tree.node(idx);
            for obj in tree.subtree_a_objects(node) {
                assert!(node.mbr.contains(&obj.mbr));
            }
            for child in node.child_indices() {
                assert!(node.mbr.contains(&tree.node(child).mbr));
            }
        }
    }

    #[test]
    fn every_a_object_is_in_exactly_one_leaf() {
        let a = lattice(4, 2.0, 1.0);
        let tree = TouchTree::build(a.objects(), 10, 2);
        let mut seen = vec![0u32; a.len()];
        for idx in tree.node_indices() {
            let node = tree.node(idx);
            if node.is_leaf() {
                for obj in tree.subtree_a_objects(node) {
                    seen[obj.id as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_dataset_a() {
        let tree = TouchTree::build(&[], 1024, 2);
        assert_eq!(tree.a_len(), 0);
        assert_eq!(tree.height(), 0);
        assert!(tree.root_index().is_none());
        let mut counters = Counters::new();
        let b = lattice(2, 2.0, 1.0);
        let mut t = tree.clone();
        t.assign(b.objects(), &mut counters);
        assert_eq!(
            counters.filtered,
            b.len() as u64,
            "with no A objects every B object is filtered"
        );
        assert_eq!(t.assigned_b_count(), 0);
    }

    #[test]
    fn assignment_filters_objects_outside_every_leaf() {
        // Dataset A occupies [0, 8]³; B objects far away must be filtered.
        let a = lattice(4, 2.0, 1.0);
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let mut b = Dataset::new();
        b.push_mbr(Aabb::new(Point3::splat(100.0), Point3::splat(101.0))); // far away
        b.push_mbr(Aabb::new(Point3::splat(1.0), Point3::splat(2.0))); // inside
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        assert_eq!(counters.filtered, 1);
        assert_eq!(tree.assigned_b_count(), 1);
    }

    #[test]
    fn assignment_prefers_the_lowest_single_overlapping_node() {
        let a = lattice(4, 2.0, 1.0);
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        // A tiny B object deep inside the data: it should land far from the root.
        let mut b = Dataset::new();
        b.push_mbr(Aabb::new(Point3::splat(0.1), Point3::splat(0.2)));
        // A huge B object spanning everything: it must land at the root.
        b.push_mbr(Aabb::new(Point3::splat(-1.0), Point3::splat(9.0)));
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        let root_idx = tree.root_index().unwrap();
        let root_level = tree.node(root_idx).level;
        let mut levels_of_assignment = Vec::new();
        for idx in tree.node_indices() {
            for ob in tree.assigned_b(idx) {
                levels_of_assignment.push((ob.id, tree.node(idx).level));
            }
        }
        levels_of_assignment.sort_unstable();
        assert_eq!(levels_of_assignment.len(), 2);
        let (_, tiny_level) = levels_of_assignment[0];
        let (_, huge_level) = levels_of_assignment[1];
        assert!(tiny_level < root_level, "tiny object must be pushed towards the leaves");
        assert_eq!(huge_level, root_level, "all-covering object must stay at the root");
    }

    /// Test parameterisation of the local join: small grid, tiny min cell, and an
    /// A-cutoff of 4 so both the all-pairs fallback and the grid path are exercised
    /// by the lattice workloads (leaf buckets of 8 objects sit above the cutoff).
    fn test_params(kind: LocalJoinKind) -> LocalJoinParams {
        LocalJoinParams {
            kind,
            cells_per_dim: 10,
            min_cell_size: 0.5,
            allpairs_max_a: 4,
            adapt: None,
        }
    }

    /// A structural fingerprint of the tree: everything `clear_assignment` must
    /// leave intact.
    fn structure_snapshot(tree: &TouchTree) -> Vec<(Aabb, u32, Range<usize>, usize, bool)> {
        tree.node_indices()
            .map(|idx| {
                let n = tree.node(idx);
                (n.mbr, n.level, n.child_indices(), n.a_count(), n.is_leaf())
            })
            .collect()
    }

    #[test]
    fn clear_assignment_resets_b_items() {
        let a = lattice(3, 2.0, 1.0);
        let mut tree = TouchTree::build(a.objects(), 4, 2);
        let b = lattice(3, 2.0, 1.0);
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        assert!(tree.assigned_b_count() > 0);
        tree.clear_assignment();
        assert_eq!(tree.assigned_b_count(), 0);
        assert!(tree.nodes_with_assignments().is_empty(), "no join work after a clear");
        for idx in tree.node_indices() {
            assert!(tree.assigned_b(idx).is_empty(), "node {idx} kept B-objects");
        }
    }

    #[test]
    fn clear_assignment_preserves_structure_of_multi_level_trees() {
        // 125 objects into 16 partitions at fanout 2: a 5-level hierarchy.
        let a = lattice(5, 2.0, 1.0);
        let mut tree = TouchTree::build(a.objects(), 16, 2);
        assert!(tree.height() >= 4, "test needs a multi-level tree, got {}", tree.height());
        let before = structure_snapshot(&tree);
        let b = lattice(5, 1.8, 1.2);
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        assert!(tree.assigned_b_count() > 0);
        tree.clear_assignment();
        assert_eq!(structure_snapshot(&tree), before, "clear_assignment altered the hierarchy");
        assert_eq!(tree.a_len(), a.len());
    }

    #[test]
    fn repeated_reuse_is_indistinguishable_from_a_fresh_tree() {
        let a = lattice(4, 2.0, 1.0);
        let b = lattice(4, 1.7, 0.9);
        // Reference: one fresh tree, assigned once.
        let mut fresh = TouchTree::build(a.objects(), 8, 2);
        let mut fresh_counters = Counters::new();
        fresh.assign(b.objects(), &mut fresh_counters);
        let mut fresh_pairs = Vec::new();
        let params = test_params(LocalJoinKind::Grid);
        fresh.join_assigned(
            &params,
            &mut LocalJoinScratch::new(),
            &mut fresh_counters,
            &mut |x, y| {
                fresh_pairs.push((x, y));
                true
            },
        );
        fresh_pairs.sort_unstable();

        // Reused tree: three assign → join → clear cycles must each reproduce the
        // fresh run exactly — same per-node distribution, counters and pairs.
        let mut reused = TouchTree::build(a.objects(), 8, 2);
        for round in 0..3 {
            let mut counters = Counters::new();
            reused.assign(b.objects(), &mut counters);
            assert_eq!(
                reused.assigned_b_count(),
                fresh.assigned_b_count(),
                "round {round}: assignment count drifted"
            );
            for idx in reused.node_indices() {
                assert_eq!(
                    reused.assigned_b(idx).len(),
                    fresh.assigned_b(idx).len(),
                    "round {round}: node {idx} distribution drifted"
                );
            }
            let mut pairs = Vec::new();
            reused.join_assigned(
                &params,
                &mut LocalJoinScratch::new(),
                &mut counters,
                &mut |x, y| {
                    pairs.push((x, y));
                    true
                },
            );
            pairs.sort_unstable();
            assert_eq!(pairs, fresh_pairs, "round {round}: pairs drifted");
            assert_eq!(counters, fresh_counters, "round {round}: counters polluted by reuse");
            reused.clear_assignment();
            assert_eq!(reused.assigned_b_count(), 0);
        }
    }

    #[test]
    fn clear_assignment_resets_the_touched_node_bookkeeping() {
        // Epoch 1 populates one corner of the tree, epoch 2 a different one: stale
        // touched-node state from epoch 1 must not leak into epoch 2's work list.
        let a = lattice(4, 2.0, 1.0); // occupies [0, 7]³
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let mut near = Dataset::new();
        near.push_mbr(Aabb::new(Point3::splat(0.1), Point3::splat(0.4)));
        let mut counters = Counters::new();
        tree.assign(near.objects(), &mut counters);
        let epoch1_work = tree.nodes_with_assignments();
        assert!(!epoch1_work.is_empty());
        tree.clear_assignment();

        let mut far = Dataset::new();
        far.push_mbr(Aabb::new(Point3::splat(6.2), Point3::splat(6.6)));
        tree.assign(far.objects(), &mut counters);
        let epoch2_work = tree.nodes_with_assignments();
        // Every listed node must actually hold epoch-2 objects; a stale list would
        // resurface epoch-1 nodes with empty B-lists.
        for &idx in &epoch2_work {
            assert!(!tree.assigned_b(idx).is_empty(), "stale touched node {idx}");
        }
        let epoch2_fresh: Vec<usize> = {
            let mut t = TouchTree::build(a.objects(), 8, 2);
            t.assign(far.objects(), &mut Counters::new());
            t.nodes_with_assignments()
        };
        assert_eq!(epoch2_work, epoch2_fresh, "epoch 2 work list polluted by epoch 1");
    }

    fn run_join(a: &Dataset, b: &Dataset, kind: LocalJoinKind) -> (Vec<(u32, u32)>, Counters) {
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        let mut pairs = Vec::new();
        tree.join_assigned(
            &test_params(kind),
            &mut LocalJoinScratch::new(),
            &mut counters,
            &mut |x, y| {
                pairs.push((x, y));
                true
            },
        );
        pairs.sort_unstable();
        (pairs, counters)
    }

    #[test]
    fn join_matches_brute_force_for_all_local_join_kinds() {
        let a = lattice(4, 1.5, 1.0); // overlapping-ish lattice
        let b = lattice(5, 1.2, 0.8);
        let expected = brute_pairs(&a, &b);
        assert!(!expected.is_empty());
        for kind in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep, LocalJoinKind::AllPairs] {
            let (pairs, _) = run_join(&a, &b, kind);
            assert_eq!(pairs, expected, "local join {kind:?} must match brute force");
        }
    }

    #[test]
    fn join_produces_no_duplicates() {
        let a = lattice(4, 1.0, 1.0); // heavily overlapping
        let b = lattice(4, 1.0, 1.0);
        let (pairs, counters) = run_join(&a, &b, LocalJoinKind::Grid);
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(pairs.len(), dedup.len(), "grid local join must not emit duplicates");
        // The reference-point rule must actually have suppressed something in this
        // dense configuration (objects span multiple cells).
        assert!(counters.duplicates_suppressed > 0 || counters.replicas == 0);
    }

    #[test]
    fn fewer_comparisons_than_nested_loop() {
        let a = lattice(6, 3.0, 1.0); // 216 objects, sparse
        let b = lattice(6, 3.0, 1.0);
        let (pairs, counters) = run_join(&a, &b, LocalJoinKind::Grid);
        assert_eq!(pairs, brute_pairs(&a, &b));
        let nested_loop = (a.len() * b.len()) as u64;
        assert!(
            counters.comparisons < nested_loop / 2,
            "TOUCH should do far fewer comparisons than the nested loop ({} vs {})",
            counters.comparisons,
            nested_loop
        );
    }

    #[test]
    fn smaller_fanout_gives_taller_tree() {
        let a = lattice(6, 2.0, 1.0);
        let t2 = TouchTree::build(a.objects(), 32, 2);
        let t8 = TouchTree::build(a.objects(), 32, 8);
        assert!(t2.height() > t8.height());
    }

    #[test]
    fn memory_accounting_grows_with_assignment() {
        let a = lattice(4, 2.0, 1.0);
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let before = tree.memory_bytes();
        let b = lattice(4, 2.0, 1.0);
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        assert!(tree.memory_bytes() > before);
    }

    #[test]
    fn a_cloned_tree_joins_like_the_original() {
        let a = lattice(4, 1.5, 1.0);
        let b = lattice(5, 1.2, 0.8);
        let mut original = TouchTree::build(a.objects(), 8, 2);
        let mut counters = Counters::new();
        original.assign(b.objects(), &mut counters);
        let cloned = original.clone();
        assert_eq!(cloned.assigned_b_count(), original.assigned_b_count());
        let join = |tree: &TouchTree| {
            let mut counters = counters;
            let mut pairs = Vec::new();
            tree.join_assigned(
                &test_params(LocalJoinKind::Grid),
                &mut LocalJoinScratch::new(),
                &mut counters,
                &mut |x, y| {
                    pairs.push((x, y));
                    true
                },
            );
            (pairs, counters)
        };
        let expected = join(&original);
        assert!(!expected.0.is_empty());
        assert_eq!(join(&cloned), expected, "emission order and counters must match");
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 2")]
    fn fanout_one_rejected() {
        let a = lattice(2, 2.0, 1.0);
        let _ = TouchTree::build(a.objects(), 4, 1);
    }

    #[test]
    fn from_tiled_matches_build_when_given_sorted_input() {
        let a = lattice(4, 2.0, 1.0);
        let built = TouchTree::build(a.objects(), 8, 2);
        // Feed build's own tile order back through from_tiled: identical structure.
        let tiled = TouchTree::from_tiled(built.a_objects().to_vec(), 8, 2);
        assert_eq!(built.node_count(), tiled.node_count());
        assert_eq!(built.height(), tiled.height());
        for idx in built.node_indices() {
            assert_eq!(built.node(idx).mbr, tiled.node(idx).mbr);
            assert_eq!(built.node(idx).a_count(), tiled.node(idx).a_count());
        }
    }

    #[test]
    fn from_tiled_is_correct_even_for_unsorted_input() {
        // Tiling quality affects pruning, never correctness: a deliberately
        // scrambled object order must still produce the full result set.
        let a = lattice(4, 1.5, 1.0);
        let b = lattice(5, 1.2, 0.8);
        let mut scrambled = a.objects().to_vec();
        scrambled.sort_by_key(|o| (o.id as usize).wrapping_mul(2654435761) % 1024);
        let mut tree = TouchTree::from_tiled(scrambled, 8, 2);
        let mut counters = Counters::new();
        tree.assign(b.objects(), &mut counters);
        let mut pairs = Vec::new();
        tree.join_assigned(
            &test_params(LocalJoinKind::Grid),
            &mut LocalJoinScratch::new(),
            &mut counters,
            &mut |x, y| {
                pairs.push((x, y));
                true
            },
        );
        pairs.sort_unstable();
        assert_eq!(pairs, brute_pairs(&a, &b));
    }

    #[test]
    fn extend_assigned_matches_assign() {
        let a = lattice(4, 2.0, 1.0);
        let b = lattice(4, 1.7, 0.9);
        let mut counters = Counters::new();

        let mut direct = TouchTree::build(a.objects(), 8, 2);
        direct.assign(b.objects(), &mut counters);

        // Two-step form: compute targets read-only, then apply in one batch.
        let mut two_step = TouchTree::build(a.objects(), 8, 2);
        let mut batch = Vec::new();
        let mut c2 = Counters::new();
        for obj in b.iter() {
            if let Some(node) = two_step.assignment_target(&obj.mbr, &mut c2) {
                batch.push((node, *obj));
            }
        }
        two_step.extend_assigned(batch);

        assert_eq!(direct.assigned_b_count(), two_step.assigned_b_count());
        for idx in direct.node_indices() {
            assert_eq!(
                direct.assigned_b(idx).len(),
                two_step.assigned_b(idx).len(),
                "node {idx} differs between assign and extend_assigned"
            );
        }
    }

    #[test]
    fn probe_runs_keep_every_reaching_object_in_a_order() {
        let a = lattice(8, 4.0, 1.5);
        let tree = TouchTree::build(a.objects(), 16, 2);
        let root = tree.root_index().unwrap();
        let (mut stack, mut runs) = (Vec::new(), Vec::new());
        // `intersects` fails for every box inside one it fails for, as the
        // grid probe's occupied-cell test does.
        let window = Aabb::new(Point3::splat(5.0), Point3::splat(12.0));
        tree.probe_runs(root, |m| m.intersects(&window), &mut stack, &mut runs);
        for pair in runs.windows(2) {
            assert!(pair[0].end < pair[1].start, "runs must ascend, disjoint and merged");
        }
        let kept: usize = runs.iter().map(|r| r.len()).sum();
        assert!(0 < kept && kept < tree.a_len(), "the window should prune some leaves");
        for (i, o) in tree.a_objects().iter().enumerate() {
            if o.mbr.intersects(&window) {
                assert!(runs.iter().any(|r| r.contains(&(i as u32))), "object {i} pruned");
            }
        }

        // A leaf, and any node of a tree holding a NaN, is one whole run.
        let leaf = tree.node_indices().find(|&i| tree.node(i).is_leaf()).unwrap();
        tree.probe_runs(leaf, |_| false, &mut stack, &mut runs);
        assert_eq!((runs.len(), runs[0].clone()), (1, 0..tree.node(leaf).a_count() as u32));
        let mut items = a.objects().to_vec();
        items[5].mbr.max.y = f64::NAN;
        let tree = TouchTree::from_tiled(items, 16, 2);
        tree.probe_runs(tree.root_index().unwrap(), |_| false, &mut stack, &mut runs);
        assert_eq!((runs.len(), runs[0].clone()), (1, 0..tree.a_len() as u32));
    }

    #[test]
    fn nodes_with_assignments_lists_exactly_the_join_work() {
        let a = lattice(4, 2.0, 1.0);
        let mut tree = TouchTree::build(a.objects(), 8, 2);
        let mut counters = Counters::new();
        assert!(tree.nodes_with_assignments().is_empty(), "no work before assignment");
        let b = lattice(4, 1.7, 0.9);
        tree.assign(b.objects(), &mut counters);
        let work = tree.nodes_with_assignments();
        assert!(!work.is_empty());
        for idx in tree.node_indices() {
            let expected = !tree.assigned_b(idx).is_empty() && tree.node(idx).a_count() > 0;
            assert_eq!(work.contains(&idx), expected, "node {idx}");
        }
        // Joining exactly these nodes gives the same pairs as join_assigned.
        let params = test_params(LocalJoinKind::Grid);
        let mut scratch = LocalJoinScratch::new();
        let mut via_list = Vec::new();
        for &idx in &work {
            let b_objs = tree.assigned_b(idx);
            let mut emit = |x, y| {
                via_list.push((x, y));
                true
            };
            tree.local_join_node(
                idx,
                b_objs,
                &params,
                &mut scratch,
                &mut counters,
                &mut emit,
                &NoTrace,
                0,
            );
        }
        let mut via_all = Vec::new();
        tree.join_assigned(&params, &mut scratch, &mut counters, &mut |x, y| {
            via_all.push((x, y));
            true
        });
        via_list.sort_unstable();
        via_all.sort_unstable();
        assert_eq!(via_list, via_all);
    }

    #[test]
    fn build_survives_nan_sort_keys_and_joins_the_finite_objects() {
        // Every fifth min.x is NaN: with `partial_cmp(..).unwrap_or(Equal)`
        // the STR sort saw no total order and the standard sort panicked.
        let a: Vec<SpatialObject> = (0..33)
            .map(|i| {
                let f = i as f64;
                let min = Point3::new((f * 7.3) % 20.0, (f * 3.1) % 20.0, (f * 5.7) % 20.0);
                let mut mbr = Aabb::new(min, min + Point3::splat(1.0));
                if i % 5 == 0 {
                    mbr.min.x = f64::NAN;
                }
                SpatialObject { id: i, mbr }
            })
            .collect();
        let mut tree = TouchTree::build(&a, 4, 2);
        assert_eq!(tree.a_len(), 33);
        let b = lattice(4, 5.0, 3.0);
        tree.assign(b.objects(), &mut Counters::new());
        let mut pairs = Vec::new();
        let params = test_params(LocalJoinKind::Grid);
        tree.join_assigned(
            &params,
            &mut LocalJoinScratch::new(),
            &mut Counters::new(),
            &mut |x, y| {
                pairs.push((x, y));
                true
            },
        );
        pairs.sort_unstable();
        // A NaN box intersects nothing; the others join as usual.
        let expected = brute_pairs(&Dataset::from_objects(a), &b);
        assert!(!expected.is_empty());
        assert_eq!(pairs, expected);
    }
}
