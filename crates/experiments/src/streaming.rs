//! Streaming amortisation — beyond the paper: the `touch-streaming` engine serving
//! dataset B in epochs against a persistent tree.
//!
//! The paper's joins are one-shot: every query pays the tree build. The serving
//! scenario the streaming engine targets inverts that — dataset A is long-lived and
//! B arrives in batches — so the build is paid once and amortised over the stream.
//! This experiment measures exactly that: Figure 8's uniform workload (A = 10 K,
//! B = 160 K scaled, ε = 10) is pushed through one persistent tree in 1 / 4 / 16 /
//! 64 epochs, against the *rebuild* alternative of running the one-shot
//! [`TouchJoin`] on every batch separately.
//!
//! Expectations: the amortised build share per epoch falls as `build / k`; the
//! rebuild alternative pays `k` builds plus `k` partial assignments, so its total
//! grows with the epoch count while the streaming total stays near-flat; result
//! counts are identical in every row (the epoch-equivalence guarantee). Rebuilding
//! also re-sorts A every batch, so the speedup column grows with `k`.

use crate::{workload, Context, ExperimentTable, Row};
use touch_core::{CountingSink, JoinOrder, JoinQuery, TouchConfig, TouchJoin};
use touch_datagen::SyntheticDistribution;
use touch_geom::Dataset;
use touch_metrics::format_duration;
use touch_streaming::{StreamingConfig, StreamingTouchJoin};

const PAPER_A: usize = 10_000;
const PAPER_B: usize = 160_000;
const EPS: f64 = 10.0;
/// Epoch counts the experiment sweeps.
pub const EPOCH_STEPS: [usize; 4] = [1, 4, 16, 64];

/// The shared algorithmic configuration: the tree lives on A (the streaming
/// engine's only mode), with the scaled local-join resolution every other
/// experiment uses.
fn touch_cfg(ctx: &Context) -> TouchConfig {
    TouchConfig {
        join_order: JoinOrder::TreeOnA,
        local_cells_per_dim: crate::scaled_resolution(500, ctx.scale),
        ..TouchConfig::default()
    }
}

/// Runs the amortisation sweep: one persistent tree streaming B in
/// [`EPOCH_STEPS`] epochs, with the per-row amortised build cost and the measured
/// speedup over rebuilding the tree for every batch.
pub fn run(ctx: &Context) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "streaming_epochs",
        "Streaming (beyond the paper): persistent-tree epochs vs. per-batch rebuild",
    );
    let a = workload::synthetic(ctx, PAPER_A, SyntheticDistribution::Uniform, ctx.seed_a);
    let b = workload::synthetic(ctx, PAPER_B, SyntheticDistribution::Uniform, ctx.seed_b);
    // The ε-translation the rebuild baseline applies, done once up front so every
    // per-batch rebuild joins the same extended boxes the streaming engine indexes.
    let a_ext = a.extended(EPS);
    let cfg = touch_cfg(ctx);

    for epochs in EPOCH_STEPS {
        let batch = b.len().div_ceil(epochs).max(1);

        // Streaming: build the ε-extended tree once (`build_extended` stamps the
        // report ε up front), push every batch through the persistent tree.
        // Both sides run sequentially so the speedup column isolates build
        // amortisation — mixing in worker threads would conflate it with the
        // parallel subsystem's scaling (that comparison lives in `scaling`).
        let config = StreamingConfig { touch: cfg, ..StreamingConfig::default() };
        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, config);
        let mut sink = CountingSink::new();
        for chunk in b.objects().chunks(batch) {
            let _ = engine.push_batch(chunk, &mut sink);
        }
        let report = engine.cumulative_report();
        let streaming_total = report.total_time().as_secs_f64();

        // The alternative: a one-shot TouchJoin per batch, rebuilding every time.
        let rebuild_total = rebuild_per_batch(&cfg, &a_ext, &b, batch);

        // `div_ceil` batching can push slightly fewer epochs than the step asked
        // for (e.g. 480 objects / 64 epochs → 60 batches of 8); label the rows
        // with what actually ran.
        let pushed = report.epochs.max(1);
        let amortised_build = engine.build_time().as_secs_f64() / pushed as f64;
        let speedup = rebuild_total / streaming_total.max(f64::EPSILON);
        table.push(Row::new(
            vec![
                ("epochs", format!("{pushed}")),
                (
                    "amortised_build",
                    format_duration(std::time::Duration::from_secs_f64(amortised_build)),
                ),
                ("rebuild_speedup", format!("{speedup:.2}")),
            ],
            report,
        ));
    }

    table
}

/// Total wall-clock of joining every batch with a fresh one-shot [`TouchJoin`]
/// (the tree is rebuilt per batch — what serving without the streaming engine
/// would cost).
fn rebuild_per_batch(cfg: &TouchConfig, a_ext: &Dataset, b: &Dataset, batch: usize) -> f64 {
    let algo = TouchJoin::new(*cfg);
    let mut total = 0.0;
    for chunk in b.objects().chunks(batch) {
        // Re-densify the ids: this baseline is timed, not compared pair-by-pair.
        let chunk_ds = Dataset::from_mbrs(chunk.iter().map(|o| o.mbr));
        let mut sink = CountingSink::new();
        let report = JoinQuery::new(a_ext, &chunk_ds).engine(&algo).run(&mut sink);
        total += report.total_time().as_secs_f64();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_agree_on_the_result_count() {
        let ctx = Context::for_tests();
        let table = run(&ctx);
        assert_eq!(table.rows.len(), EPOCH_STEPS.len());
        let expected = table.rows[0].report.result_pairs();
        assert!(expected > 0, "the scaled workload must produce results");
        for (row, epochs) in table.rows.iter().zip(EPOCH_STEPS) {
            assert_eq!(
                row.report.result_pairs(),
                expected,
                "epochs = {epochs}: epoch-splitting changed the result count"
            );
            assert!(
                row.report.epochs >= 1 && row.report.epochs <= epochs,
                "cumulative report must count its pushed epochs"
            );
            assert_eq!(row.labels[0].1, format!("{}", row.report.epochs));
        }
    }

    #[test]
    fn rows_match_the_one_shot_distance_join() {
        let ctx = Context::for_tests();
        let a = workload::synthetic(&ctx, PAPER_A, SyntheticDistribution::Uniform, ctx.seed_a);
        let b = workload::synthetic(&ctx, PAPER_B, SyntheticDistribution::Uniform, ctx.seed_b);
        let mut sink = CountingSink::new();
        let one_shot =
            touch_core::distance_join(&TouchJoin::new(touch_cfg(&ctx)), &a, &b, EPS, &mut sink);
        let table = run(&ctx);
        for row in &table.rows {
            assert_eq!(row.report.result_pairs(), one_shot.result_pairs());
            assert_eq!(row.report.epsilon, EPS);
        }
    }

    #[test]
    fn speedup_labels_are_numeric() {
        let table = run(&Context::for_tests());
        for row in &table.rows {
            assert_eq!(row.labels[1].0, "amortised_build");
            let speedup: f64 = row.labels[2].1.parse().expect("rebuild_speedup is numeric");
            assert!(speedup > 0.0);
        }
    }
}
