//! The assignment store: the per-node B-lists that the assignment phase
//! (Algorithm 3) fills and the join phase (Algorithm 4) reads.
//!
//! [`AssignmentBuffer`] is the only implementation of that store. A
//! [`TouchTree`] keeps one behind its `assign`/`join_assigned` methods, and
//! every serving reader holds its own over a frozen, `Arc`-held tree that many
//! readers join concurrently. Either way the descent is the read-only
//! [`TouchTree::assignment_target`] and each node's list goes to
//! [`TouchTree::local_join_node`], so pairs *and counters* do not depend on
//! where the lists live.
//!
//! The store's own [`AssignmentBuffer::assign`] and [`AssignmentBuffer::join`]
//! run uncontrolled. Cancellation, tracing and workers belong to
//! [`crate::phases::assign_and_join`], whose one controlled loop writes
//! through `assign` (one chunk at a time) or [`AssignmentBuffer::extend`] and
//! joins through the same in-order loop as `join`.

use crate::control::ExecControl;
use crate::phases::join_in_order;
use crate::scratch::LocalJoinScratch;
use crate::tree::{LocalJoinParams, TouchTree};
use touch_geom::{ObjectId, SpatialObject};
use touch_metrics::{vec_bytes, Counters, MemoryUsage};

/// Per-node B-side assignment over a [`TouchTree`] (see the module docs).
/// Reusable across batches: [`AssignmentBuffer::clear`] keeps the per-node
/// capacities, so a long-lived owner stops allocating once it has seen a
/// typical batch.
#[derive(Debug, Default)]
pub struct AssignmentBuffer {
    /// One B-list per tree node, indexed by node id (lazily sized to the tree).
    lists: Vec<Vec<SpatialObject>>,
    /// Nodes holding at least one assigned object, in first-assignment order:
    /// clearing and work-list construction are O(touched), not O(all nodes).
    touched: Vec<u32>,
    assigned: u64,
    /// Heap bytes reserved by the lists, counted on every push so
    /// [`MemoryUsage::memory_bytes`] is O(1). Clearing and retracting keep
    /// the capacities, so this figure survives them, as the memory does.
    list_bytes: usize,
}

impl Clone for AssignmentBuffer {
    fn clone(&self) -> Self {
        let lists = self.lists.clone();
        // Cloning a Vec does not keep its capacity, so the clone's reserved
        // bytes are recounted from what its lists actually hold.
        let list_bytes = lists.iter().map(vec_bytes).sum();
        AssignmentBuffer {
            lists,
            touched: self.touched.clone(),
            assigned: self.assigned,
            list_bytes,
        }
    }
}

impl AssignmentBuffer {
    /// An empty buffer (binds to a tree on first [`AssignmentBuffer::assign`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of objects currently assigned.
    #[inline]
    pub fn assigned_count(&self) -> usize {
        self.assigned as usize
    }

    /// The objects assigned to `node`, in arrival order.
    #[inline]
    pub fn node_objects(&self, node: usize) -> &[SpatialObject] {
        self.lists.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The nodes currently holding at least one assigned object, in
    /// first-assignment order ([`AssignmentBuffer::work_into`] is the sorted,
    /// A-filtered view). The sliding-window engine diffs list lengths over it.
    #[inline]
    pub fn touched_nodes(&self) -> &[u32] {
        &self.touched
    }

    /// Sizes the per-node lists to cover every node of `tree`.
    fn bind(&mut self, tree: &TouchTree) {
        if self.lists.len() < tree.node_count() {
            self.lists.resize_with(tree.node_count(), Vec::new);
        }
    }

    /// Stores one object at `node`: every write path funnels through here.
    #[inline]
    fn push(&mut self, node: usize, obj: SpatialObject) {
        let list = &mut self.lists[node];
        if list.is_empty() {
            self.touched.push(node as u32);
        }
        let capacity = list.capacity();
        list.push(obj);
        self.list_bytes += (list.capacity() - capacity) * std::mem::size_of::<SpatialObject>();
        self.assigned += 1;
    }

    /// Assigns every object of `batch` against `tree` (Algorithm 3), recording
    /// filtered objects in `counters`.
    pub fn assign(&mut self, tree: &TouchTree, batch: &[SpatialObject], counters: &mut Counters) {
        self.bind(tree);
        for obj in batch {
            match tree.assignment_target(&obj.mbr, counters) {
                Some(node) => self.push(node, *obj),
                None => counters.record_filtered(),
            }
        }
    }

    /// Stores pre-computed `(node_index, object)` assignments against `tree`,
    /// in iteration order: the write half of the multi-worker two-step
    /// assignment ([`crate::phases::assign_and_join`]), storing what
    /// [`AssignmentBuffer::assign`] would.
    ///
    /// # Panics
    /// Panics if a node index is out of range.
    pub fn extend(
        &mut self,
        tree: &TouchTree,
        assignments: impl IntoIterator<Item = (usize, SpatialObject)>,
    ) {
        self.bind(tree);
        for (node, obj) in assignments {
            self.push(node, obj);
        }
    }

    /// Drops every assignment, keeping the per-node capacities (O(touched)).
    pub fn clear(&mut self) {
        for &node in &self.touched {
            self.lists[node as usize].clear();
        }
        self.touched.clear();
        self.assigned = 0;
    }

    /// Removes each `(node, count)` entry's `count` oldest assignments — the
    /// sliding-window eviction primitive: lists keep arrival order, so their
    /// fronts hold the oldest batch. Emptied nodes leave the touched list (a
    /// stale entry would be joined twice); capacities are kept.
    ///
    /// # Panics
    /// Panics if a node index is out of range or `count` exceeds what the
    /// node currently holds — both indicate corrupted eviction records.
    pub fn retract(&mut self, retractions: impl IntoIterator<Item = (usize, usize)>) {
        let mut removed = 0u64;
        let mut emptied = false;
        for (node, count) in retractions {
            let list = &mut self.lists[node];
            assert!(
                count <= list.len(),
                "retracting {count} B-objects from node {node} holding {}",
                list.len()
            );
            list.drain(..count);
            emptied |= list.is_empty();
            removed += count as u64;
        }
        self.assigned -= removed;
        if emptied {
            let lists = &self.lists;
            self.touched.retain(|&n| !lists[n as usize].is_empty());
        }
    }

    /// Runs the join phase (Algorithm 4) of these assignments against `tree`,
    /// emitting each intersecting pair `(a_id, b_id)` exactly once, node by
    /// node in ascending order. `scratch` holds the reusable join memory (grid
    /// directory, sweep buffers, work list); `emit` returning `false` abandons
    /// the current local join and the remaining nodes. Returns the bytes the
    /// scratch has reserved.
    pub fn join(
        &self,
        tree: &TouchTree,
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    ) -> usize {
        let ctl = ExecControl::infallible();
        join_in_order(tree, self, params, scratch, counters, emit, ctl).0
    }

    /// Refills `work` with the nodes the join phase visits — assigned objects
    /// over a non-empty A-subtree — in ascending order. Joining them in any
    /// order, each once, yields the result set of [`AssignmentBuffer::join`].
    pub fn work_into(&self, tree: &TouchTree, work: &mut Vec<usize>) {
        work.clear();
        work.extend(
            self.touched.iter().map(|&idx| idx as usize).filter(|&idx| tree.a_count(idx) > 0),
        );
        work.sort_unstable();
    }
}

impl MemoryUsage for AssignmentBuffer {
    /// O(1): the lists' reserved bytes are counted as they grow.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.lists) + self.list_bytes + vec_bytes(&self.touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Dataset, Point3};

    fn lattice(side: usize, spacing: f64, box_side: f64, offset: f64) -> Dataset {
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(
                        x as f64 * spacing + offset,
                        y as f64 * spacing + offset,
                        z as f64 * spacing + offset,
                    );
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(box_side)));
                }
            }
        }
        ds
    }

    fn params() -> LocalJoinParams {
        LocalJoinParams {
            kind: crate::LocalJoinKind::Grid,
            cells_per_dim: 10,
            min_cell_size: 0.5,
            allpairs_max_a: 4,
            adapt: None,
        }
    }

    /// The buffer path over a frozen tree must be bit-identical — pairs in
    /// emission order AND counters — to the tree-resident assign + join.
    #[test]
    fn external_assignment_matches_the_tree_resident_path() {
        let a = lattice(4, 1.5, 1.0, 0.0);
        let b = lattice(5, 1.2, 0.8, 0.3);

        let mut resident = TouchTree::build(a.objects(), 8, 2);
        let mut resident_counters = Counters::new();
        resident.assign(b.objects(), &mut resident_counters);
        let mut resident_pairs = Vec::new();
        resident.join_assigned(
            &params(),
            &mut LocalJoinScratch::new(),
            &mut resident_counters,
            &mut |x, y| {
                resident_pairs.push((x, y));
                true
            },
        );

        let frozen = TouchTree::build(a.objects(), 8, 2);
        let mut buffer = AssignmentBuffer::new();
        let mut counters = Counters::new();
        buffer.assign(&frozen, b.objects(), &mut counters);
        assert_eq!(buffer.assigned_count(), resident.assigned_b_count());
        let mut pairs = Vec::new();
        buffer.join(
            &frozen,
            &params(),
            &mut LocalJoinScratch::new(),
            &mut counters,
            &mut |x, y| {
                pairs.push((x, y));
                true
            },
        );

        assert_eq!(pairs, resident_pairs, "emission order must match the resident path");
        assert_eq!(counters, resident_counters, "counters must match the resident path");
    }

    /// Clearing must leave the buffer indistinguishable from a fresh one, and
    /// the frozen tree must stay untouched throughout.
    #[test]
    fn clear_resets_for_the_next_query_and_never_touches_the_tree() {
        let a = lattice(3, 2.0, 1.0, 0.0);
        let b = lattice(3, 1.8, 1.1, 0.4);
        let frozen = TouchTree::build(a.objects(), 4, 2);

        let mut buffer = AssignmentBuffer::new();
        let mut reference: Option<(Vec<(u32, u32)>, Counters)> = None;
        for round in 0..3 {
            let mut counters = Counters::new();
            buffer.assign(&frozen, b.objects(), &mut counters);
            let mut pairs = Vec::new();
            buffer.join(
                &frozen,
                &params(),
                &mut LocalJoinScratch::new(),
                &mut counters,
                &mut |x, y| {
                    pairs.push((x, y));
                    true
                },
            );
            match &reference {
                None => reference = Some((pairs, counters)),
                Some(expected) => {
                    assert_eq!(&(pairs, counters), expected, "round {round} drifted");
                }
            }
            buffer.clear();
            assert_eq!(buffer.assigned_count(), 0);
            let mut work = Vec::new();
            buffer.work_into(&frozen, &mut work);
            assert!(work.is_empty(), "no join work after a clear");
        }
        assert_eq!(frozen.assigned_b_count(), 0, "the frozen tree must never hold assignments");
    }

    /// Early termination follows the same protocol as the tree path: `false`
    /// from the emit closure abandons the remaining nodes.
    #[test]
    fn join_honours_early_termination() {
        let a = lattice(4, 1.5, 1.0, 0.0);
        let b = lattice(4, 1.5, 1.0, 0.2);
        let frozen = TouchTree::build(a.objects(), 8, 2);
        let mut buffer = AssignmentBuffer::new();
        let mut counters = Counters::new();
        buffer.assign(&frozen, b.objects(), &mut counters);
        let mut taken = 0u64;
        buffer.join(
            &frozen,
            &params(),
            &mut LocalJoinScratch::new(),
            &mut counters,
            &mut |_, _| {
                taken += 1;
                taken < 5
            },
        );
        assert_eq!(taken, 5, "the join must stop at the fifth pair");
    }

    #[test]
    fn memory_accounting_grows_with_assignment() {
        let a = lattice(3, 2.0, 1.0, 0.0);
        let frozen = TouchTree::build(a.objects(), 4, 2);
        let mut buffer = AssignmentBuffer::new();
        let before = buffer.memory_bytes();
        let mut counters = Counters::new();
        buffer.assign(&frozen, lattice(3, 2.0, 1.0, 0.1).objects(), &mut counters);
        assert!(buffer.memory_bytes() > before);
    }

    /// The O(1) reserved-bytes count against its ground truth, a scan of the
    /// lists.
    fn assert_counted(store: &AssignmentBuffer, step: &str) {
        let scanned: usize = store.lists.iter().map(vec_bytes).sum();
        assert_eq!(store.list_bytes, scanned, "{step}");
    }

    /// Every touched node's two oldest objects, or all it holds if fewer.
    fn oldest_two(store: &AssignmentBuffer) -> Vec<(usize, usize)> {
        let len = |n: u32| store.node_objects(n as usize).len();
        store.touched_nodes().iter().map(|&n| (n as usize, len(n).min(2))).collect()
    }

    #[test]
    fn incremental_memory_accounting_matches_a_full_scan() {
        let a = lattice(4, 2.0, 1.0, 0.0);
        let b = lattice(4, 1.7, 0.9, 0.0);
        let tree = TouchTree::build(a.objects(), 8, 2);
        let placed: Vec<(usize, SpatialObject)> = b
            .iter()
            .filter_map(|o| tree.assignment_target(&o.mbr, &mut Counters::new()).map(|n| (n, *o)))
            .collect();

        // A standalone buffer.
        let mut buffer = AssignmentBuffer::new();
        assert_counted(&buffer, "fresh");
        buffer.assign(&tree, b.objects(), &mut Counters::new());
        assert_counted(&buffer, "after assign");
        buffer.extend(&tree, placed.iter().copied());
        assert_counted(&buffer, "after extend");
        buffer.retract(oldest_two(&buffer));
        assert_counted(&buffer, "after retract");
        let cloned = buffer.clone();
        assert_counted(&cloned, "after clone");
        assert_eq!(cloned.assigned_count(), buffer.assigned_count());
        assert_eq!(cloned.touched_nodes(), buffer.touched_nodes());
        buffer.clear();
        assert_counted(&buffer, "after clear");
        buffer.assign(&tree, b.objects(), &mut Counters::new());
        assert_counted(&buffer, "after reuse");

        // A tree's resident store, through the tree's own write paths.
        let mut resident = TouchTree::build(a.objects(), 8, 2);
        assert_counted(resident.store(), "resident, fresh");
        resident.assign(b.objects(), &mut Counters::new());
        assert_counted(resident.store(), "resident, after assign");
        resident.with_store(|store, tree| store.extend(tree, placed.iter().copied()));
        assert_counted(resident.store(), "resident, after extend");
        resident.retract_assigned(oldest_two(resident.store()));
        assert_counted(resident.store(), "resident, after retract");
        let cloned = resident.clone();
        assert_counted(cloned.store(), "resident, after clone");
        assert_eq!(cloned.assigned_b_count(), resident.assigned_b_count());
        resident.clear_assignment();
        assert_counted(resident.store(), "resident, after clear");
    }
}
