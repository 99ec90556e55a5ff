//! Pins the full counters and the reported memory of the R-tree baselines and
//! of PBSM on two seeded inputs.
//!
//! The R-tree baselines bulk-load through the STR packer that also packs
//! TOUCH's tree, and perfsmoke's counter gate covers only the TOUCH engines.
//! These literals are what notice a change to the packer, or to PBSM's
//! partition grids, that moves a baseline. A deliberate change records new
//! literals: the assertion message prints every row in the form below.

use touch::baselines::SeededTreeJoin;
use touch::datagen::SpaceConfig;
use touch::{
    Counters, CountingSink, Dataset, IndexedNestedLoopJoin, JoinQuery, PbsmJoin, RTreeSyncJoin,
    SpatialJoinAlgorithm, SyntheticDistribution, SyntheticSpec,
};

/// The two inputs: paper-clustered boxes joined within ε = 4, and uniform
/// boxes in a small space joined on intersection.
fn inputs() -> [(&'static str, Dataset, Dataset, f64); 2] {
    let small = |count, seed| {
        let space = SpaceConfig { size: 200.0, max_object_side: 3.0 };
        SyntheticSpec { count, distribution: SyntheticDistribution::Uniform, space }.generate(seed)
    };
    let clustered = touch::datagen::clustered;
    [
        ("clustered", clustered(3_000, 101), clustered(4_000, 102), 4.0),
        ("uniform", small(2_000, 201), small(2_500, 202), 0.0),
    ]
}

fn algorithms() -> [(&'static str, Box<dyn SpatialJoinAlgorithm>); 4] {
    [
        ("rtree", Box::new(RTreeSyncJoin::paper_default())),
        ("inl", Box::new(IndexedNestedLoopJoin::paper_default())),
        ("seeded", Box::new(SeededTreeJoin::paper_comparable())),
        ("pbsm12", Box::new(PbsmJoin::new(12))),
    ]
}

#[rustfmt::skip]
const EXPECTED: [(&str, &str, Counters, usize); 8] = [
    ("clustered", "rtree", Counters { comparisons: 2807552, node_tests: 2203, results: 105, filtered: 0, duplicates_suppressed: 0, replicas: 0, batch_lanes: 2807552, batch_hits: 105 }, 408640),
    ("clustered", "inl", Counters { comparisons: 864176, node_tests: 90309, results: 105, filtered: 0, duplicates_suppressed: 0, replicas: 0, batch_lanes: 0, batch_hits: 0 }, 176320),
    ("clustered", "seeded", Counters { comparisons: 1884528, node_tests: 2168, results: 105, filtered: 0, duplicates_suppressed: 0, replicas: 0, batch_lanes: 1884528, batch_hits: 105 }, 745280),
    ("clustered", "pbsm12", Counters { comparisons: 2558, node_tests: 0, results: 105, filtered: 0, duplicates_suppressed: 1, replicas: 796, batch_lanes: 2558, batch_hits: 106 }, 47368),
    ("uniform", "rtree", Counters { comparisons: 1603136, node_tests: 1168, results: 25, filtered: 0, duplicates_suppressed: 0, replicas: 0, batch_lanes: 1603136, batch_hits: 25 }, 264544),
    ("uniform", "inl", Counters { comparisons: 539680, node_tests: 47736, results: 25, filtered: 0, duplicates_suppressed: 0, replicas: 0, batch_lanes: 0, batch_hits: 0 }, 116224),
    ("uniform", "seeded", Counters { comparisons: 1294128, node_tests: 1257, results: 25, filtered: 0, duplicates_suppressed: 0, replicas: 0, batch_lanes: 1294128, batch_hits: 25 }, 447904),
    ("uniform", "pbsm12", Counters { comparisons: 764, node_tests: 0, results: 25, filtered: 0, duplicates_suppressed: 1, replicas: 1208, batch_lanes: 764, batch_hits: 26 }, 37560),
];

#[test]
fn r_tree_baselines_and_pbsm_keep_their_counters_and_memory() {
    let mut measured = Vec::new();
    for (input, a, b, eps) in inputs() {
        for (name, algo) in algorithms() {
            let report = JoinQuery::new(&a, &b)
                .within_distance(eps)
                .engine(algo.as_ref())
                .run(&mut CountingSink::new());
            measured.push((input, name, report.counters, report.memory_bytes));
        }
    }
    let listing: String = measured
        .iter()
        .map(|(input, name, c, bytes)| format!("    ({input:?}, {name:?}, {c:?}, {bytes}),\n"))
        .collect();
    assert_eq!(measured, EXPECTED, "measured:\n{listing}");
}
