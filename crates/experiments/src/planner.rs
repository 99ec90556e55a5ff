//! Planner ablation (beyond the paper): automatic planning vs. fixed
//! configurations across the figure workloads.
//!
//! The statistics-driven planner (`touch::Engine::Auto`) claims that per-query
//! derived knobs and strategy selection are at least as good as any single
//! hand-set configuration. This experiment measures that claim on the three
//! synthetic distributions of Figures 9–11 (uniform, Gaussian, clustered) at
//! the paper's density: for each workload it runs
//!
//! * `auto` — `Engine::Auto` (statistics → plan → `TouchJoin` at the plan's width),
//! * `touch-paper` — TOUCH on one worker in the paper's fixed configuration,
//! * `parallel-4` — TOUCH on four workers, paper knobs,
//! * `streaming-4ep` — the streaming engine, paper knobs, probe side in four
//!   epochs,
//!
//! and reports counters, times and the plan column (what Auto chose). Every
//! variant must produce the same result count — the planner may only move the
//! *work*, never the answer.

use crate::{workload, Context, ExperimentTable, Row};
use touch::{AutoEngine, CountingSink, Engine, JoinQuery, TouchJoin};
use touch_core::TouchConfig;
use touch_datagen::SyntheticDistribution;
use touch_streaming::{StreamingConfig, StreamingTouchJoin};

const PAPER_A: usize = 1_600_000;
const PAPER_B: usize = 3_200_000;
const EPS: f64 = 5.0;

/// Runs the planner ablation.
pub fn run(ctx: &Context) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "planner_auto",
        "Planner ablation: Engine::Auto vs fixed configurations (uniform / Gaussian / clustered, eps = 5)",
    );

    for dist in [
        SyntheticDistribution::Uniform,
        SyntheticDistribution::paper_gaussian(),
        SyntheticDistribution::paper_clustered(),
    ] {
        let a = workload::synthetic(ctx, PAPER_A, dist, ctx.seed_a);
        let b = workload::synthetic(ctx, PAPER_B, dist, ctx.seed_b);
        let mut push = |engine_label: &str, report: touch::RunReport| {
            table.push(Row::new(
                vec![
                    ("distribution", dist.name().to_string()),
                    ("engine", engine_label.to_string()),
                ],
                report,
            ));
        };

        // Auto at a pinned 4-thread budget, so the ablation is reproducible on
        // any machine (Engine::Auto itself would detect the local core count).
        let auto = AutoEngine::with_threads(4);
        push(
            "auto",
            JoinQuery::new(&a, &b).within_distance(EPS).engine(&auto).run(&mut CountingSink::new()),
        );

        push(
            "touch-paper",
            JoinQuery::new(&a, &b)
                .within_distance(EPS)
                .engine(Engine::Touch(TouchConfig::default()))
                .run(&mut CountingSink::new()),
        );

        push(
            "parallel-4",
            JoinQuery::new(&a, &b)
                .within_distance(EPS)
                .engine(TouchJoin::default().with_threads(4))
                .run(&mut CountingSink::new()),
        );

        // Streaming in its natural habitat: the probe side arrives in epochs.
        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, StreamingConfig::default());
        let mut sink = CountingSink::new();
        let chunk = b.len().div_ceil(4).max(1);
        for batch in b.objects().chunks(chunk) {
            let _ = engine.push_batch(batch, &mut sink);
        }
        push("streaming-4ep", engine.cumulative_report());
    }

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_never_changes_the_answer_and_records_its_plan() {
        let table = run(&Context::for_tests());
        assert_eq!(table.rows.len(), 3 * 4);
        for chunk in table.rows.chunks(4) {
            let auto = &chunk[0];
            assert_eq!(auto.labels[1].1, "auto");
            let expected = auto.report.result_pairs();
            assert!(expected > 0, "the figure workloads produce results");
            for row in chunk {
                assert_eq!(
                    row.report.result_pairs(),
                    expected,
                    "{:?} changed the result",
                    row.labels
                );
            }
            let plan = auto.report.plan.as_ref().expect("auto rows carry their plan");
            assert!(!plan.strategy.is_empty());
            assert!(
                auto.report.algorithm.starts_with("TOUCH-AUTO"),
                "got {}",
                auto.report.algorithm
            );
        }
    }

    #[test]
    fn auto_matches_the_resolved_fixed_engine_exactly() {
        // The ablation's core claim, verified at experiment scale: Auto's
        // counters equal the counters of explicitly executing its plan.
        let ctx = Context::for_tests();
        let a = workload::synthetic(&ctx, PAPER_A, SyntheticDistribution::Uniform, ctx.seed_a);
        let b = workload::synthetic(&ctx, PAPER_B, SyntheticDistribution::Uniform, ctx.seed_b);
        let auto = AutoEngine::with_threads(4);
        let auto_report =
            JoinQuery::new(&a, &b).within_distance(EPS).engine(&auto).run(&mut CountingSink::new());
        let mut query = JoinQuery::new(&a, &b).within_distance(EPS).engine(&auto);
        let plan = query.plan().expect("auto plans");
        let fixed_report = JoinQuery::new(&a, &b)
            .within_distance(EPS)
            .engine(Engine::Planned(plan))
            .run(&mut CountingSink::new());
        assert_eq!(auto_report.counters, fixed_report.counters);
    }
}
