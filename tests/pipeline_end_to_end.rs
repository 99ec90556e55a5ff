//! End-to-end pipeline tests across the whole workspace: generators → indexes →
//! TOUCH phases → reports, exercised through the public facade API exactly the way a
//! downstream application would use it.

use touch::core::TouchTree;
use touch::index::{HierGridIndex, HierarchicalGrid, MultiAssignGrid, PackedRTree, UniformGrid};
use touch::metrics::MemoryUsage;
use touch::{
    count_join, CollectingSink, Counters, CountingSink, Dataset, JoinQuery, Phase,
    SpatialJoinAlgorithm, SyntheticDistribution, SyntheticSpec, TouchConfig, TouchJoin,
};

fn dataset(count: usize, seed: u64) -> Dataset {
    SyntheticSpec {
        count,
        distribution: SyntheticDistribution::Uniform,
        space: touch::datagen::SpaceConfig { size: 150.0, max_object_side: 2.0 },
    }
    .generate(seed)
}

#[test]
fn touch_phases_can_be_driven_manually_through_the_public_api() {
    // Applications that want to reuse the hierarchy across probes can drive the three
    // phases themselves instead of going through TouchJoin.
    let a = dataset(3_000, 1);
    let b = dataset(5_000, 2);

    // Phase 1: build.
    let mut tree = TouchTree::build(a.objects(), 256, 2);
    assert!(tree.height() > 1);
    assert_eq!(tree.a_len(), a.len());

    // Phase 2: assignment.
    let mut counters = Counters::new();
    tree.assign(b.objects(), &mut counters);
    assert_eq!(tree.assigned_b_count() + counters.filtered as usize, b.len());

    // Phase 3: join.
    let params = touch::LocalJoinParams {
        kind: touch::core::LocalJoinKind::Grid,
        cells_per_dim: 64,
        min_cell_size: 4.0,
        allpairs_max_a: 8,
        adapt: None,
    };
    let mut pairs = Vec::new();
    let mut scratch = touch::core::LocalJoinScratch::new();
    tree.join_assigned(&params, &mut scratch, &mut counters, &mut |x, y| {
        pairs.push((x, y));
        true
    });
    pairs.sort_unstable();

    // The one-shot API must produce the identical result.
    let algo = TouchJoin::new(TouchConfig { partitions: 256, ..TouchConfig::default() });
    let mut sink = CollectingSink::new();
    let _ = JoinQuery::new(&a, &b).engine(algo).run(&mut sink);
    assert_eq!(pairs, sink.sorted_pairs());

    // The tree is reusable after clearing the assignment.
    tree.clear_assignment();
    assert_eq!(tree.assigned_b_count(), 0);
}

#[test]
fn substrates_compose_on_the_same_dataset() {
    // All indexing substrates accept the same Dataset/SpatialObject vocabulary.
    let ds = dataset(2_000, 3);
    let extent = ds.extent().unwrap();

    let rtree = PackedRTree::paper_default(ds.objects());
    assert_eq!(rtree.len(), ds.len());
    assert!(rtree.memory_bytes() > 0);

    let grid = MultiAssignGrid::build(UniformGrid::new(extent, 32), ds.objects());
    assert!(grid.total_assignments() >= ds.len());

    let hier = HierGridIndex::build(HierarchicalGrid::paper_default(extent), ds.objects());
    assert_eq!(hier.len(), ds.len());

    // Point lookups through the R-tree agree with a scan.
    let probe = ds.get(42).mbr;
    let mut counters = Counters::new();
    let mut hits = rtree.query_ids(&probe, &mut counters);
    hits.sort_unstable();
    let mut expected: Vec<u32> =
        ds.iter().filter(|o| o.mbr.intersects(&probe)).map(|o| o.id).collect();
    expected.sort_unstable();
    assert_eq!(hits, expected);
}

#[test]
fn reports_carry_phase_timings_and_selectivity() {
    let a = dataset(4_000, 4);
    let b = dataset(8_000, 5);
    let report = count_join(&TouchJoin::default(), &a, &b);
    assert!(report.timer.get(Phase::Build) > std::time::Duration::ZERO);
    assert!(report.total_time() >= report.timer.get(Phase::Join));
    assert!(report.selectivity() > 0.0);
    assert!(report.memory_bytes > 0);
    // CSV rendering round-trips the headline numbers.
    let csv = report.to_csv_row();
    assert!(csv.starts_with("TOUCH,4000,8000,"));
}

#[test]
fn distance_join_reports_epsilon_and_scales_with_it() {
    let a = dataset(2_000, 6);
    let b = dataset(2_000, 7);
    let small = JoinQuery::new(&a, &b).within_distance(1.0).run(&mut CountingSink::new());
    let large = JoinQuery::new(&a, &b).within_distance(6.0).run(&mut CountingSink::new());
    assert_eq!(small.epsilon, 1.0);
    assert_eq!(large.epsilon, 6.0);
    assert!(large.result_pairs() > small.result_pairs());
}

#[test]
fn two_dimensional_data_works_through_the_whole_pipeline() {
    // Degenerate z axis: the GIS use case.
    let mut a = Dataset::new();
    let mut b = Dataset::new();
    for i in 0..50 {
        for j in 0..50 {
            let min = touch::Point3::new(i as f64 * 2.0, j as f64 * 2.0, 0.0);
            a.push_mbr(touch::Aabb::new(min, min + touch::Point3::new(1.0, 1.0, 0.0)));
            let min_b = touch::Point3::new(i as f64 * 2.0 + 0.5, j as f64 * 2.0 + 0.5, 0.0);
            b.push_mbr(touch::Aabb::new(min_b, min_b + touch::Point3::new(1.0, 1.0, 0.0)));
        }
    }
    let algorithms: Vec<Box<dyn SpatialJoinAlgorithm>> = vec![
        Box::new(TouchJoin::default()),
        Box::new(touch::PbsmJoin::new(40)),
        Box::new(touch::S3Join::paper_default()),
        Box::new(touch::RTreeSyncJoin::paper_default()),
        Box::new(touch::IndexedNestedLoopJoin::paper_default()),
        Box::new(touch::baselines::OctreeJoin::with_defaults()),
    ];
    for algo in algorithms {
        let report = count_join(algo.as_ref(), &a, &b);
        assert_eq!(
            report.result_pairs(),
            2_500,
            "{}: every A cell overlaps exactly its shifted twin",
            algo.name()
        );
    }
}
