//! Reader-owned assignment storage: joining a **frozen, shared** tree.
//!
//! The tree's own assignment paths ([`TouchTree::assign`],
//! [`TouchTree::extend_assigned`]) store the probe objects inside the node
//! structs, which requires `&mut TouchTree` — fine for a single-owner engine,
//! impossible for the serving layer, where many reader threads join against one
//! `Arc`-held generation concurrently. An [`AssignmentBuffer`] moves the
//! per-node B-lists *out of the tree and into the reader*: the descent uses the
//! read-only [`TouchTree::assignment_target`], the lists live in the buffer,
//! and the join phase feeds them back through
//! [`TouchTree::local_join_node`].
//!
//! The buffer reproduces the tree-resident path exactly — same descent, same
//! per-node arrival order, same work-list ordering, same local-join kernels —
//! so pairs *and counters* are bit-identical to [`TouchTree::assign`] +
//! [`TouchTree::join_assigned`] over the same batch (pinned by the tests
//! below and by the serving equivalence suite).

use crate::control::{CancelCause, CancelToken, ExecControl};
use crate::scratch::LocalJoinScratch;
use crate::tree::{LocalJoinParams, TouchTree, ASSIGN_CANCEL_CHUNK};
use touch_geom::{ObjectId, SpatialObject};
use touch_metrics::{vec_bytes, Counters, MemoryUsage};

/// Per-reader B-side assignment over a frozen [`TouchTree`] (see the module
/// docs). Reusable across queries: [`AssignmentBuffer::clear`] keeps the
/// per-node capacities, so a long-lived reader stops allocating once it has
/// seen a typical batch.
#[derive(Debug, Default)]
pub struct AssignmentBuffer {
    /// One B-list per tree node, indexed by node id (lazily sized to the tree).
    lists: Vec<Vec<SpatialObject>>,
    /// Nodes holding at least one assigned object, in first-assignment order —
    /// the same bookkeeping the tree itself keeps, so clearing and work-list
    /// construction are O(touched).
    touched: Vec<u32>,
    assigned: u64,
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

    /// Assigns every object of `batch` against `tree` (Algorithm 3), storing
    /// the results in this buffer instead of the tree. Counter-for-counter
    /// identical to [`TouchTree::assign`]: the descent is the same read-only
    /// [`TouchTree::assignment_target`], and filtered objects are recorded the
    /// same way.
    pub fn assign(&mut self, tree: &TouchTree, batch: &[SpatialObject], counters: &mut Counters) {
        if self.lists.len() < tree.node_count() {
            self.lists.resize_with(tree.node_count(), Vec::new);
        }
        for obj in batch {
            match tree.assignment_target(&obj.mbr, counters) {
                Some(node) => {
                    let list = &mut self.lists[node];
                    if list.is_empty() {
                        self.touched.push(node as u32);
                    }
                    list.push(*obj);
                    self.assigned += 1;
                }
                None => counters.record_filtered(),
            }
        }
    }

    /// Cancellable [`AssignmentBuffer::assign`]: polls `cancel` once per
    /// [`ASSIGN_CANCEL_CHUNK`]-object chunk and stops assigning when it trips,
    /// returning the cause. Everything assigned before the trip stays in the
    /// buffer and is counted, so a cancelled query's partial counters are an
    /// honest account; an untriggered token is bit-identical to `assign`.
    pub fn assign_ctl(
        &mut self,
        tree: &TouchTree,
        batch: &[SpatialObject],
        counters: &mut Counters,
        cancel: &CancelToken,
    ) -> Option<CancelCause> {
        for chunk in batch.chunks(ASSIGN_CANCEL_CHUNK) {
            if let Some(cause) = cancel.triggered() {
                return Some(cause);
            }
            self.assign(tree, chunk, counters);
        }
        None
    }

    /// Drops every assignment, keeping the per-node capacities (O(touched)).
    pub fn clear(&mut self) {
        for &node in &self.touched {
            self.lists[node as usize].clear();
        }
        self.touched.clear();
        self.assigned = 0;
    }

    /// Runs the join phase (Algorithm 4) of this buffer's assignments against
    /// `tree` — the external-B mirror of [`TouchTree::join_assigned`], with the
    /// identical work-list ordering and early-termination protocol. Returns the
    /// bytes the scratch has reserved.
    pub fn join(
        &self,
        tree: &TouchTree,
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
    ) -> usize {
        self.join_ctl(tree, params, scratch, counters, emit, ExecControl::infallible(), 0).0
    }

    /// Controlled form of [`AssignmentBuffer::join`] (which is this with
    /// [`ExecControl::infallible`]), exactly like
    /// [`TouchTree::join_assigned_ctl`]: per-node spans to `ctl.trace`
    /// attributed to `worker`, and `ctl.cancel` polled before every per-node
    /// local join — the remaining work list is abandoned when it trips, and
    /// the cause is returned alongside the scratch bytes. Pairs already
    /// emitted and their counters stand.
    #[allow(clippy::too_many_arguments)]
    pub fn join_ctl(
        &self,
        tree: &TouchTree,
        params: &LocalJoinParams,
        scratch: &mut LocalJoinScratch,
        counters: &mut Counters,
        emit: &mut impl FnMut(ObjectId, ObjectId) -> bool,
        ctl: ExecControl<'_>,
        worker: usize,
    ) -> (usize, Option<CancelCause>) {
        let mut work = std::mem::take(&mut scratch.work);
        self.work_into(tree, &mut work);
        let mut stopped = false;
        let mut cause = None;
        for &idx in &work {
            if let Some(c) = ctl.cancel.triggered() {
                cause = Some(c);
                break;
            }
            let mut watched = |a: ObjectId, b: ObjectId| {
                let go_on = emit(a, b);
                stopped = !go_on;
                go_on
            };
            tree.local_join_node(
                idx,
                &self.lists[idx],
                params,
                scratch,
                counters,
                &mut watched,
                ctl.trace,
                worker,
            );
            if stopped {
                break;
            }
        }
        scratch.work = work;
        (scratch.memory_bytes(), cause)
    }

    /// Refills `work` with the nodes the join phase has to visit — assigned
    /// objects over a non-empty A-subtree, ascending node-index order — the
    /// buffer-side mirror of [`TouchTree::nodes_with_assignments_into`].
    pub fn work_into(&self, tree: &TouchTree, work: &mut Vec<usize>) {
        work.clear();
        work.extend(
            self.touched
                .iter()
                .map(|&idx| idx as usize)
                .filter(|&idx| tree.node(idx).a_count() > 0),
        );
        work.sort_unstable();
    }
}

impl MemoryUsage for AssignmentBuffer {
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.lists)
            + self.lists.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.touched)
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
}
