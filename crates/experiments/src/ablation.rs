//! Ablation study of TOUCH's design choices (beyond the paper's parameter
//! discussion in Section 5.2).
//!
//! Three knobs are isolated on a fixed uniform workload (A = 1.6 M, B = 3.2 M,
//! ε = 5):
//!
//! * the **local-join strategy** — the paper's per-node grid vs. a plane-sweep vs.
//!   the naive all-pairs scan,
//! * the **join order** — building the hierarchy on the smaller dataset (the paper's
//!   recommendation) vs. forcing it onto either input,
//! * the **number of partitions** (leaf buckets) the hierarchy is built from.

use crate::{workload, Context, ExperimentTable, Row};
use touch_core::{CountingSink, JoinOrder, JoinQuery, LocalJoinKind, TouchConfig, TouchJoin};
use touch_datagen::SyntheticDistribution;

const PAPER_A: usize = 1_600_000;
const PAPER_B: usize = 3_200_000;
const EPS: f64 = 5.0;

/// Runs the ablation sweep.
pub fn run(ctx: &Context) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "ablation_touch",
        "Ablation: TOUCH local-join strategy, join order and partition count (uniform, eps = 5)",
    );
    let a = workload::synthetic(ctx, PAPER_A, SyntheticDistribution::Uniform, ctx.seed_a);
    let b = workload::synthetic(ctx, PAPER_B, SyntheticDistribution::Uniform, ctx.seed_b);

    let mut run_config = |label: (&str, String), config: TouchConfig| {
        let algo = TouchJoin::new(config);
        let report =
            JoinQuery::new(&a, &b).within_distance(EPS).engine(&algo).run(&mut CountingSink::new());
        table.push(Row::new(vec![("knob", label.0.to_string()), ("value", label.1)], report));
    };

    // Local-join strategy.
    for strategy in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep, LocalJoinKind::AllPairs] {
        run_config(
            ("local_join", strategy.name().to_string()),
            TouchConfig { local_join: strategy, ..TouchConfig::default() },
        );
    }

    // Join order.
    for (name, order) in [
        ("smaller-as-tree", JoinOrder::SmallerAsTree),
        ("tree-on-A", JoinOrder::TreeOnA),
        ("tree-on-B", JoinOrder::TreeOnB),
    ] {
        run_config(
            ("join_order", name.to_string()),
            TouchConfig { join_order: order, ..TouchConfig::default() },
        );
    }

    // Partition count.
    for partitions in [256, 1024, 4096] {
        run_config(
            ("partitions", partitions.to_string()),
            TouchConfig { partitions, ..TouchConfig::default() },
        );
    }

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_produces_identical_results() {
        let table = run(&Context::for_tests());
        assert_eq!(table.rows.len(), 3 + 3 + 3);
        let expected = table.rows[0].report.result_pairs();
        assert!(expected > 0);
        for row in &table.rows {
            assert_eq!(
                row.report.result_pairs(),
                expected,
                "variant {:?} changed the result",
                row.labels
            );
        }
    }

    #[test]
    fn grid_local_join_needs_no_more_comparisons_than_all_pairs() {
        let table = run(&Context::for_tests());
        let grid = &table.rows[0];
        let all_pairs = &table.rows[2];
        assert_eq!(grid.labels[1].1, "grid");
        assert_eq!(all_pairs.labels[1].1, "all-pairs");
        assert!(
            grid.report.counters.comparisons <= all_pairs.report.counters.comparisons,
            "grid {} vs all-pairs {}",
            grid.report.counters.comparisons,
            all_pairs.report.counters.comparisons
        );
    }
}
