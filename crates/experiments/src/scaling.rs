//! Thread scaling — beyond the paper: [`TouchJoin`] at several widths on a
//! Figure-8-scale uniform workload.
//!
//! The paper evaluates TOUCH single-threaded; this experiment measures how
//! [`TouchJoin::with_threads`] scales. The workload is Figure 8's largest
//! step (A = 10 K, B = 640 K, uniform, ε = 10, scaled like every other experiment),
//! joined once with the sequential [`TouchJoin`] as the baseline and then with
//! 1 / 2 / 4 / 8 worker threads. Every row carries the measured speedup over the
//! sequential baseline; each configuration is run [`REPEATS`] times and the fastest
//! run is kept (standard practice for wall-clock scaling numbers).
//!
//! Expectations: near-linear scaling of the join phase up to the physical core
//! count, throttled overall by the merge/assembly fractions (Amdahl); on a
//! single-core machine all speedups hover around 1×. The result *sets* are
//! identical in every row — every width is deterministically equivalent to the
//! sequential join.

use crate::{workload, Context, ExperimentTable, Row};
use touch_core::{CountingSink, JoinQuery, SpatialJoinAlgorithm, TouchJoin};
use touch_datagen::SyntheticDistribution;
use touch_metrics::{ExecTrace, RunReport};

const PAPER_A: usize = 10_000;
const PAPER_B: usize = 640_000;
const EPS: f64 = 10.0;
/// Thread counts the experiment sweeps.
pub const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];
/// Runs per configuration; the fastest is reported.
pub const REPEATS: usize = 3;

fn best_of(
    algo: &dyn SpatialJoinAlgorithm,
    a: &touch_geom::Dataset,
    b: &touch_geom::Dataset,
) -> RunReport {
    let mut best: Option<RunReport> = None;
    for _ in 0..REPEATS {
        let report =
            JoinQuery::new(a, b).within_distance(EPS).engine(algo).run(&mut CountingSink::new());
        let improved = match &best {
            None => true,
            Some(current) => report.total_time() < current.total_time(),
        };
        if improved {
            best = Some(report);
        }
    }
    best.expect("REPEATS > 0")
}

/// Runs the thread-scaling sweep: sequential TOUCH, then TOUCH at
/// [`THREAD_STEPS`] threads, with per-row speedup over the sequential baseline.
pub fn run(ctx: &Context) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "scaling_threads",
        "Thread scaling (beyond the paper): parallel TOUCH on Figure 8's largest workload",
    );
    let a = workload::synthetic(ctx, PAPER_A, SyntheticDistribution::Uniform, ctx.seed_a);
    let b = workload::synthetic(ctx, PAPER_B, SyntheticDistribution::Uniform, ctx.seed_b);

    let baseline = best_of(&TouchJoin::default(), &a, &b);
    let baseline_time = baseline.total_time().as_secs_f64();
    // Label column is "workers" — "threads" is already a RunReport CSV column.
    table.push(Row::new(
        vec![("workers", "1 (seq)".to_string()), ("speedup", "1.00".to_string())],
        baseline,
    ));

    for threads in THREAD_STEPS {
        let report = best_of(&TouchJoin::default().with_threads(threads), &a, &b);
        let speedup = baseline_time / report.total_time().as_secs_f64().max(f64::EPSILON);
        table.push(Row::new(
            vec![("workers", format!("{threads}")), ("speedup", format!("{speedup:.2}"))],
            report,
        ));
    }

    // `--trace <path>`: one extra traced run at the widest sweep step, written
    // as a Chrome trace_events file (tracing is observational, so the timed
    // rows above stay untraced).
    if let Some(path) = &ctx.trace {
        let threads = *THREAD_STEPS.last().expect("THREAD_STEPS is non-empty");
        let trace = ExecTrace::new();
        let _ = JoinQuery::new(&a, &b)
            .within_distance(EPS)
            .engine(TouchJoin::default().with_threads(threads))
            .trace(&trace)
            .run(&mut CountingSink::new());
        match std::fs::write(path, trace.to_chrome_json()) {
            Ok(()) => {
                if ctx.verbose {
                    println!("{}", trace.text_profile());
                    println!("wrote Chrome trace ({threads} workers) to {}", path.display());
                }
            }
            Err(e) => eprintln!("cannot write trace to {}: {e}", path.display()),
        }
    }

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_agree_on_the_result_count() {
        let table = run(&Context::for_tests());
        assert_eq!(table.rows.len(), 1 + THREAD_STEPS.len());
        let expected = table.rows[0].report.result_pairs();
        assert!(expected > 0, "the scaled workload must produce results");
        for row in &table.rows {
            assert_eq!(
                row.report.result_pairs(),
                expected,
                "{} (workers = {}) disagrees on the result count",
                row.report.algorithm,
                row.labels[0].1
            );
        }
    }

    #[test]
    fn parallel_rows_report_their_thread_count() {
        let table = run(&Context::for_tests());
        for (row, threads) in table.rows[1..].iter().zip(THREAD_STEPS) {
            assert_eq!(row.report.threads, threads);
            assert_eq!(row.labels[0].1, format!("{threads}"));
            let speedup: f64 = row.labels[1].1.parse().expect("speedup is numeric");
            assert!(speedup > 0.0);
        }
    }
}
