//! # touch-index — spatial index substrates for the TOUCH reproduction
//!
//! The TOUCH algorithm and every baseline of the paper's evaluation are built from a
//! small set of indexing substrates, all implemented here from scratch:
//!
//! * [`str_sort`] / [`par_str_sort`] — the Sort-Tile-Recursive (STR) bulk-loading
//!   partitioner (Leutenegger et al., ICDE '97) used by TOUCH's tree-building phase
//!   and by the packed R-tree, on one thread or with its slabs spread over several,
//! * [`PackedRTree`] — an STR bulk-loaded R-tree with range queries and access to its
//!   node structure: the one STR hierarchy of the workspace, which the R-tree
//!   baselines build with [`PackedRTree::build`] and TOUCH's tree packs over its
//!   already-sorted buckets with [`PackedRTree::from_tiled`],
//! * [`UniformGrid`] / [`MultiAssignGrid`] — space-oriented uniform grid with
//!   multiple assignment, used by PBSM and by TOUCH's grid local join,
//! * [`HierarchicalGrid`] / [`HierGridIndex`] — the hierarchy of increasingly fine
//!   equi-width grids with single assignment used by S3 (Koudas & Sevcik, SIGMOD '97),
//! * [`Octree`] — a region octree with multiple assignment, the 3-D quadtree of the
//!   double-index-traversal discussion in Section 2.2.1 (used by the extra
//!   `OctreeJoin` baseline).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod float_cases;
mod grid;
mod hier_grid;
mod octree;
mod rtree;
mod str_pack;

pub use grid::{CellCoords, MultiAssignGrid, UniformGrid};
pub use hier_grid::{HierGridIndex, HierarchicalGrid, LevelCell};
pub use octree::Octree;
pub use rtree::{PackedRTree, RTreeNode};
pub use str_pack::{par_str_sort, str_sort};
