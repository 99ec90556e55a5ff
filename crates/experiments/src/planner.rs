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
//!
//! [`cell_sweep`] then checks the planner's one cost-based knob, the local
//! join's minimum cell side. It joins the neuroscience data at two seeds and a
//! moving world's ε self-join at cells from ×¼ to ×2 of twice the larger mean
//! side, plus the planner's pick, and prints the [`CellModel`]'s estimates
//! beside the measured counters and join times.

use crate::{workload, Context, ExperimentTable, Row};
use std::fmt::Write as _;
use touch::{
    AutoEngine, CallbackSink, CellModel, CountingSink, Dataset, DatasetStats, Engine, JoinPlan,
    JoinQuery, NeuroscienceSpec, Phase, PlanEstimate, TouchJoin, World,
};
use touch_core::TouchConfig;
use touch_datagen::SyntheticDistribution;
use touch_metrics::{format_count, Counters};
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

/// The swept cells, as multiples of [`CellModel::reference_cell`].
pub const SWEEP_FACTORS: [f64; 7] = [0.25, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0];
/// Timed runs per swept cell; the table reports the median join time.
const SWEEP_REPS: usize = 9;
/// At this scale the sweep's inputs are touchbench's: `neuro_synapse`'s
/// neuroscience data and `tick_collision`'s 80,000-entity world.
const SWEEP_REFERENCE_SCALE: f64 = 0.015;
const WORLD_ENTITIES_AT_REFERENCE: f64 = 80_000.0;
const NEURO_EPS: f64 = 5.0;
const WORLD_EPS: f64 = 3.0;

/// One input of the cell sweep: a distance join the default engine plans.
struct SweepInput {
    name: String,
    a: Dataset,
    b: Dataset,
    eps: f64,
    self_join: bool,
}

impl SweepInput {
    fn query(&self) -> JoinQuery<'_> {
        let query = if self.self_join {
            JoinQuery::self_join(&self.a)
        } else {
            JoinQuery::new(&self.a, &self.b)
        };
        query.within_distance(self.eps)
    }

    /// The planner's model of this join, over the statistics the plan saw.
    fn model(&self, plan: &JoinPlan) -> CellModel {
        let extended = DatasetStats::from_dataset(&self.a.extended(self.eps));
        if self.self_join {
            CellModel::self_join(&extended, self.eps)
        } else {
            CellModel::pair(&extended, &DatasetStats::from_dataset(&self.b), plan.build_on_a)
        }
    }
}

/// One swept cell of one input.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The input's name.
    pub input: String,
    /// The minimum cell side the row ran at.
    pub cell: f64,
    /// The cell as a multiple of [`CellModel::reference_cell`].
    pub factor: f64,
    /// `true` for the planner's pick.
    pub planned: bool,
    /// The model's estimate at this cell.
    pub estimate: PlanEstimate,
    /// The measured counters of the last run.
    pub counters: Counters,
    /// Median join-phase time over the timed runs, in milliseconds.
    pub join_ms: f64,
}

/// The min-cell sweep of [`cell_sweep`].
#[derive(Debug, Clone)]
pub struct CellSweep {
    /// Rows per input, in ascending cell order.
    pub rows: Vec<SweepRow>,
}

/// Runs every sweep input at every swept cell and at the planner's pick, one
/// worker, and asserts that each input's pairs are the same at every cell
/// (count and digest).
///
/// # Panics
/// Panics if two cells of one input report different pairs.
pub fn cell_sweep(ctx: &Context) -> CellSweep {
    let mut inputs: Vec<SweepInput> = [ctx.seed_a, ctx.seed_b]
        .iter()
        .map(|&seed| {
            let data = NeuroscienceSpec::scaled(ctx.scale).generate(seed);
            SweepInput {
                name: format!("neuro s{seed}"),
                a: data.axons,
                b: data.dendrites,
                eps: NEURO_EPS,
                self_join: false,
            }
        })
        .collect();
    let entities = (WORLD_ENTITIES_AT_REFERENCE * ctx.scale / SWEEP_REFERENCE_SCALE).round();
    let mut world = Dataset::new();
    World::random((entities as usize).max(64), ctx.seed_a).fill_dataset(&mut world);
    inputs.push(SweepInput {
        name: format!("world s{}", ctx.seed_a),
        a: world,
        b: Dataset::new(),
        eps: WORLD_EPS,
        self_join: true,
    });

    let mut rows = Vec::new();
    for input in &inputs {
        let plan = input.query().plan().expect("the default engine plans");
        let model = input.model(&plan);
        let mut cells: Vec<(f64, bool)> =
            SWEEP_FACTORS.iter().map(|f| (f * model.reference_cell(), false)).collect();
        cells.push((plan.params.min_cell_size, true));
        cells.sort_by(|x, y| x.0.total_cmp(&y.0));
        // Alternate the cells within each repetition, so drift in the
        // machine's speed reaches every cell alike.
        let mut times = vec![Vec::with_capacity(SWEEP_REPS); cells.len()];
        let mut counters = vec![Counters::new(); cells.len()];
        let mut digests = vec![0u64; cells.len()];
        for _ in 0..SWEEP_REPS {
            for (i, &(cell, _)) in cells.iter().enumerate() {
                let mut pinned = plan;
                pinned.params.min_cell_size = cell;
                // An order-independent digest of the pairs: a wrapping sum of
                // a mix of each.
                let mut digest = 0u64;
                let mut sink = CallbackSink::new(|a, b| digest = digest.wrapping_add(mix(a, b)));
                let report = input.query().engine(TouchJoin::from_plan(pinned)).run(&mut sink);
                times[i].push(report.timer.get(Phase::Join).as_secs_f64() * 1e3);
                counters[i] = report.counters;
                digests[i] = digest;
            }
        }
        for (i, &(cell, planned)) in cells.iter().enumerate() {
            assert_eq!(
                (counters[i].results, digests[i]),
                (counters[0].results, digests[0]),
                "{}: the cell {cell} changed the pairs",
                input.name
            );
            times[i].sort_by(f64::total_cmp);
            rows.push(SweepRow {
                input: input.name.clone(),
                cell,
                factor: cell / model.reference_cell(),
                planned,
                estimate: model.estimate(cell),
                counters: counters[i],
                join_ms: times[i][SWEEP_REPS / 2],
            });
        }
    }
    CellSweep { rows }
}

/// SplitMix64's finaliser over a pair of ids.
fn mix(a: u32, b: u32) -> u64 {
    let mut z = (u64::from(a) << 32 | u64::from(b)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CellSweep {
    /// Markdown table: estimated and measured figures side by side per cell,
    /// the planner's pick marked.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "### Planner: local-join cell sweep (estimated / measured, one worker)\n\n\
             | input | cell | × 2·side | candidates est. | candidates | replicas est. | replicas | duplicates est. | duplicates | join | pairs |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            let est = |v: f64| format_count(v.round() as u64);
            let _ = writeln!(
                out,
                "| {} | {:.2}{} | {:.2} | {} | {} | {} | {} | {} | {} | {:.1} ms | {} |",
                r.input,
                r.cell,
                if r.planned { " **plan**" } else { "" },
                r.factor,
                est(r.estimate.candidates),
                format_count(r.counters.comparisons),
                est(r.estimate.replicas),
                format_count(r.counters.replicas),
                est(r.estimate.duplicates),
                format_count(r.counters.duplicates_suppressed),
                r.join_ms,
                format_count(r.counters.results),
            );
        }
        out.push('\n');
        out
    }

    /// CSV rendering, one row per swept cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "input,cell,factor,planned,est_candidates,candidates,est_replicas,replicas,est_duplicates,duplicates,join_ms,pairs\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.0},{},{:.0},{},{:.0},{},{:.3},{}",
                r.input,
                r.cell,
                r.factor,
                r.planned,
                r.estimate.candidates,
                r.counters.comparisons,
                r.estimate.replicas,
                r.counters.replicas,
                r.estimate.duplicates,
                r.counters.duplicates_suppressed,
                r.join_ms,
                r.counters.results,
            );
        }
        out
    }

    /// Prints the table (if `verbose`) and writes `planner_cells.csv` (if an
    /// output directory is configured), like [`ExperimentTable::finish`].
    pub fn finish(&self, ctx: &Context) {
        if ctx.verbose {
            print!("{}", self.to_markdown());
        }
        if let Some(dir) = &ctx.output_dir {
            let path = dir.join("planner_cells.csv");
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.to_csv())) {
                Ok(()) if ctx.verbose => println!("wrote {}", path.display()),
                Ok(()) => {}
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
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
    fn cell_sweep_marks_the_plan_and_keeps_the_pairs() {
        let sweep = cell_sweep(&Context::for_tests());
        // Two neuroscience seeds and one world, each at every factor plus the
        // planner's pick; `cell_sweep` itself asserts equal pairs per input.
        assert_eq!(sweep.rows.len(), 3 * (SWEEP_FACTORS.len() + 1));
        for input in sweep.rows.chunks(SWEEP_FACTORS.len() + 1) {
            assert_eq!(input.iter().filter(|r| r.planned).count(), 1);
            assert!(input.windows(2).all(|w| w[0].cell <= w[1].cell));
            assert!(input.iter().all(|r| r.estimate.candidates > 0.0 && r.join_ms >= 0.0));
        }
        let markdown = sweep.to_markdown();
        assert_eq!(markdown.matches("**plan**").count(), 3);
        assert_eq!(sweep.to_csv().lines().count(), sweep.rows.len() + 1);
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
