//! Quickstart: run a distance join between two synthetic datasets with TOUCH and
//! inspect the report.
//!
//! ```text
//! cargo run -p touch --release --example quickstart
//! ```

use touch::{
    CollectingSink, Dataset, JoinQuery, Predicate, SpatialJoinAlgorithm, SyntheticDistribution,
    SyntheticSpec, TouchJoin,
};

fn main() {
    // 1. Generate two datasets of 3-D boxes: 20 000 uniformly distributed objects
    //    (dataset A) and 60 000 Gaussian-distributed objects (dataset B), both inside
    //    the paper's 1000-unit space with unit-sized objects.
    let a: Dataset = SyntheticSpec::new(20_000, SyntheticDistribution::Uniform).generate(1);
    let b: Dataset =
        SyntheticSpec::new(60_000, SyntheticDistribution::paper_gaussian()).generate(2);
    println!("dataset A: {} objects, dataset B: {} objects", a.len(), b.len());

    // 2. Run the TOUCH distance join with the paper's default configuration
    //    (1024 partitions, fanout 2, grid local join) and a distance threshold of 10.
    let touch = TouchJoin::default();
    let mut sink = CollectingSink::new();
    let report = JoinQuery::new(&a, &b)
        .predicate(Predicate::WithinDistance(10.0))
        .engine(&touch)
        .run(&mut sink);

    // 3. Inspect the result and the measurements the paper reports.
    println!("algorithm:        {}", report.algorithm);
    println!("result pairs:     {}", report.result_pairs());
    println!("selectivity:      {:.3e}", report.selectivity());
    println!("comparisons:      {}", report.counters.comparisons);
    println!("filtered objects: {}", report.counters.filtered);
    println!("memory footprint: {:.1} MB", report.memory_bytes as f64 / 1e6);
    println!("execution time:   {:.1} ms", report.total_time().as_secs_f64() * 1e3);

    // 4. The first few pairs (ids into dataset A and dataset B respectively).
    for (ia, ib) in sink.pairs().iter().take(5) {
        println!("  pair: A#{ia} <-> B#{ib}");
    }

    // Sanity: TOUCH never does more work than the nested loop would.
    assert!(report.counters.comparisons < (a.len() * b.len()) as u64);
    // Verify that name() matches what the experiment tables print.
    assert_eq!(touch.name(), "TOUCH");

    // 5. Zero configuration: name no engine at all and the query plans itself —
    //    dataset statistics are collected, every knob is derived, and the
    //    executed plan (strategy + knobs) is recorded on the report.
    let mut auto_sink = CollectingSink::new();
    let auto_report =
        JoinQuery::new(&a, &b).predicate(Predicate::WithinDistance(10.0)).run(&mut auto_sink);
    let plan = auto_report.plan.as_ref().expect("auto runs record their plan");
    println!(
        "auto-planned:     {} ({} partitions, fanout {}, min cell {:.2}; stats in {:.2} ms)",
        plan.strategy,
        plan.partitions,
        plan.fanout,
        plan.min_cell_size,
        plan.stats_time.as_secs_f64() * 1e3,
    );
    // The planner's estimates of the grid joins' work, beside what they did.
    print!("{}", auto_report.to_text());
    assert_eq!(auto_sink.sorted_pairs(), sink.sorted_pairs(), "planning never changes the answer");
}
