//! Run reports: the complete record of one algorithm execution.

use crate::{Counters, Phase, PhaseTimer, TickSummary, TraceSummary};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Duration;

/// The record of a planned join execution: which strategy ran and the derived
/// configuration knobs, plus the time spent collecting dataset statistics.
///
/// This is plain measurement data — the planner itself (cost model, statistics)
/// lives in `touch-core`; engines attach a `PlanSummary` to their [`RunReport`]
/// so experiment tables and the perfsmoke trajectory can show *what* the planner
/// chose without re-deriving it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Execution strategy label: `"sequential"`, `"parallel(4)"`, `"streaming(2)"`.
    pub strategy: String,
    /// Whether the hierarchy was built on dataset A.
    pub build_on_a: bool,
    /// STR partitions (leaf buckets) of the hierarchy.
    pub partitions: usize,
    /// Fanout of the hierarchy.
    pub fanout: usize,
    /// Target local-join grid cells per dimension.
    pub cells_per_dim: usize,
    /// Minimum local-join grid cell size (already resolved to a concrete value).
    pub min_cell_size: f64,
    /// A-count cutoff below which nodes use an all-pairs scan instead of a grid.
    pub allpairs_max_a: usize,
    /// Worker threads the plan runs with (1 for sequential).
    pub threads: usize,
    /// Wall-clock time spent collecting `DatasetStats` for this plan (zero when
    /// the plan was translated from an explicit configuration).
    pub stats_time: Duration,
    /// What the planner expected the grid local joins to do at the chosen
    /// cell. `None` for plans translated from an explicit configuration.
    pub estimate: Option<PlanEstimate>,
}

/// The planner's estimate of the grid local joins' work at the cell it chose,
/// made from the dataset statistics alone. Each figure has a measured
/// counterpart in [`Counters`], so a report can hold the two side by side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanEstimate {
    /// Candidate tests ([`Counters::comparisons`]).
    pub candidates: f64,
    /// Probe-side copies beyond each object's first cell ([`Counters::replicas`]).
    pub replicas: f64,
    /// Pairs found again in a further cell and dropped by the reference-point
    /// test ([`Counters::duplicates_suppressed`]).
    pub duplicates: f64,
}

impl PlanSummary {
    /// Compact one-token rendering for CSV cells and log lines, e.g.
    /// `"parallel(4):p1024:f2:c500:ap8"`.
    pub fn compact(&self) -> String {
        format!(
            "{}:p{}:f{}:c{}:ap{}",
            self.strategy, self.partitions, self.fanout, self.cells_per_dim, self.allpairs_max_a
        )
    }
}

/// How a run ended: to completion, or cut short cooperatively.
///
/// Stamped on [`RunReport::completion`] by the fallible entry points
/// (`JoinQuery::try_run` and friends). A cancelled or deadline-exceeded run
/// still returns its partial report — counters and pairs reflect the work
/// actually done before the engine observed the trigger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completion {
    /// The run finished all its work (the only value infallible paths produce).
    #[default]
    Complete,
    /// A `CancelToken` was cancelled; the report covers the work done so far.
    Cancelled,
    /// The token's deadline elapsed; the report covers the work done so far.
    DeadlineExceeded,
}

impl Completion {
    /// Lowercase label used in JSON and log lines.
    pub fn name(&self) -> &'static str {
        match self {
            Completion::Complete => "complete",
            Completion::Cancelled => "cancelled",
            Completion::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// `true` when the run finished all its work.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }
}

/// The complete measurement record of one join execution.
///
/// A `RunReport` is what every algorithm returns alongside its result pairs and what
/// the experiment harness aggregates into the paper's tables and figures.
///
/// The type is `#[must_use]`: a join whose report is discarded silently is almost
/// always a measurement bug — bind it (or `let _ = …` deliberately).
#[must_use]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Human-readable algorithm name, e.g. `"TOUCH"`, `"PBSM-500"`.
    pub algorithm: String,
    /// Number of objects in dataset A.
    pub dataset_a: usize,
    /// Number of objects in dataset B.
    pub dataset_b: usize,
    /// Distance threshold ε of the distance join (0 for a plain intersection join).
    pub epsilon: f64,
    /// Comparison / filtering counters.
    pub counters: Counters,
    /// Phase timing breakdown.
    pub timer: PhaseTimer,
    /// Analytic memory footprint of the algorithm's auxiliary structures, in bytes.
    /// For a TOUCH join at width > 1 the join phase's share is the sum of each
    /// worker's scratch high-water mark, and which worker claims which node
    /// depends on the schedule, so this figure does too.
    pub memory_bytes: usize,
    /// Number of worker threads the join ran with (1 for every sequential
    /// algorithm; `touch-parallel` reports its resolved thread count).
    pub threads: usize,
    /// Number of probe epochs merged into this report: 1 for a one-shot join,
    /// the number of pushed batches for a `touch-streaming` cumulative report
    /// (0 before the first batch arrives).
    pub epochs: usize,
    /// The plan this run executed — strategy, derived knobs and stats-collection
    /// time. `None` only for algorithms outside the planned TOUCH engines (the
    /// baselines); the TOUCH engines record it whether the plan came from the
    /// planner (`Engine::Auto`) or from an explicit configuration.
    pub plan: Option<PlanSummary>,
    /// Skew summary of the execution trace. `None` unless the run was traced
    /// (see `TraceSink` — a disabled sink produces no summary by design).
    pub trace: Option<TraceSummary>,
    /// The serving-layer generation this run executed against. `None` outside
    /// the serving layer; `touch-serve` stamps the generation number a snapshot
    /// query ran on. JSON-only — the CSV columns stay unchanged.
    pub generation: Option<u64>,
    /// Tick-loop summary of a simulation run. `None` outside `touch-sim`; the
    /// tick engine attaches the per-tick latency distribution and pair tallies
    /// of the whole run. JSON-only — the CSV columns stay unchanged (the
    /// summary has its own CSV table, [`TickSummary::to_csv_row`]).
    pub ticks: Option<TickSummary>,
    /// How the run ended. Always [`Completion::Complete`] for infallible entry
    /// points; the fallible paths stamp `Cancelled` / `DeadlineExceeded` on a
    /// cooperatively cut-short run. JSON-only (and only when not complete) —
    /// the CSV columns stay unchanged.
    pub completion: Completion,
    /// Invalid probe/build objects skipped at ingestion under
    /// `ValidationPolicy::SkipInvalid` (0 everywhere else). JSON-only (and
    /// only when non-zero) — the CSV columns stay unchanged.
    pub invalid_skipped: u64,
}

impl RunReport {
    /// Creates a report for `algorithm` joining `|A| = dataset_a` and `|B| = dataset_b`.
    pub fn new(algorithm: impl Into<String>, dataset_a: usize, dataset_b: usize) -> Self {
        RunReport {
            algorithm: algorithm.into(),
            dataset_a,
            dataset_b,
            epsilon: 0.0,
            counters: Counters::new(),
            timer: PhaseTimer::new(),
            memory_bytes: 0,
            threads: 1,
            epochs: 1,
            plan: None,
            trace: None,
            generation: None,
            ticks: None,
            completion: Completion::Complete,
            invalid_skipped: 0,
        }
    }

    /// Folds one probe epoch into this report: counters and phase times accumulate,
    /// the memory footprint keeps its peak, `dataset_b` grows by the batch size and
    /// the epoch count advances. This is the aggregation `touch-streaming` applies
    /// after every [`push_batch`](https://docs.rs/touch) so a cumulative report over
    /// k epochs lines up with the one-shot join of the concatenated batches: the
    /// build time is charged once (by the engine, at build), everything else is
    /// exactly additive.
    pub fn merge_epoch(
        &mut self,
        batch_size: usize,
        counters: &Counters,
        timer: &PhaseTimer,
        memory_bytes: usize,
    ) {
        self.dataset_b += batch_size;
        self.counters.merge(counters);
        self.timer.merge(timer);
        self.memory_bytes = self.memory_bytes.max(memory_bytes);
        self.epochs += 1;
    }

    /// Total execution time (build + assignment + join), the paper's reported time.
    pub fn total_time(&self) -> Duration {
        self.timer.total()
    }

    /// Result pairs reported by the join.
    pub fn result_pairs(&self) -> u64 {
        self.counters.results
    }

    /// Join selectivity as defined in Equation 1 of the paper:
    /// `|result pairs| / (|A| × |B|)`.
    pub fn selectivity(&self) -> f64 {
        if self.dataset_a == 0 || self.dataset_b == 0 {
            return 0.0;
        }
        self.counters.results as f64 / (self.dataset_a as f64 * self.dataset_b as f64)
    }

    /// One CSV row with the standard columns (see [`RunReport::csv_header`]).
    ///
    /// The free-form columns (`algorithm`, `plan`) are passed through
    /// [`csv_field`], so labels containing commas, quotes or newlines are
    /// quoted per RFC 4180 instead of silently corrupting the row.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{:.6}",
            csv_field(&self.algorithm),
            self.dataset_a,
            self.dataset_b,
            self.epsilon,
            self.threads,
            self.epochs,
            self.counters.comparisons,
            self.counters.node_tests,
            self.counters.results,
            self.counters.filtered,
            self.counters.duplicates_suppressed,
            self.memory_bytes,
            self.timer.get(Phase::Build).as_secs_f64(),
            self.timer.get(Phase::Assignment).as_secs_f64(),
            self.timer.get(Phase::Join).as_secs_f64(),
            self.total_time().as_secs_f64(),
            csv_field(&self.plan.as_ref().map(|p| p.compact()).unwrap_or_else(|| "-".to_string())),
            self.plan.as_ref().map(|p| p.stats_time.as_secs_f64()).unwrap_or(0.0),
        )
    }

    /// The CSV header matching [`RunReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "algorithm,a,b,epsilon,threads,epochs,comparisons,node_tests,results,filtered,duplicates_suppressed,memory_bytes,build_s,assignment_s,join_s,total_s,plan,planning_s"
    }

    /// A few lines for a person: the run's identity, its plan and counters,
    /// with the planner's estimates beside the measured counters when the
    /// plan carries them, and the phase times.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{}: |A| = {}, |B| = {}, ε = {}, {} thread(s)\n",
            self.algorithm,
            format_count(self.dataset_a as u64),
            format_count(self.dataset_b as u64),
            self.epsilon,
            self.threads
        );
        if let Some(p) = &self.plan {
            let _ = writeln!(out, "plan: {}, min cell {:.3}", p.compact(), p.min_cell_size);
        }
        let c = &self.counters;
        let estimate = self.plan.as_ref().and_then(|p| p.estimate);
        let est = |pick: fn(&PlanEstimate) -> f64| {
            estimate.map_or_else(|| "-".to_string(), |e| format_count(pick(&e).round() as u64))
        };
        let _ = writeln!(out, "{:<12} {:>14} {:>14}", "", "measured", "estimated");
        for (name, measured, estimated) in [
            ("candidates", c.comparisons, est(|e| e.candidates)),
            ("replicas", c.replicas, est(|e| e.replicas)),
            ("duplicates", c.duplicates_suppressed, est(|e| e.duplicates)),
        ] {
            let _ = writeln!(out, "{name:<12} {:>14} {estimated:>14}", format_count(measured));
        }
        let _ = writeln!(
            out,
            "results {}, node tests {}, filtered {}, memory {} B",
            format_count(c.results),
            format_count(c.node_tests),
            format_count(c.filtered),
            format_count(self.memory_bytes as u64)
        );
        let _ = writeln!(
            out,
            "time: build {}, assignment {}, join {}, total {}",
            format_duration(self.timer.get(Phase::Build)),
            format_duration(self.timer.get(Phase::Assignment)),
            format_duration(self.timer.get(Phase::Join)),
            format_duration(self.total_time())
        );
        out
    }

    /// Hand-rolled JSON rendering of the whole report (the vendored serde is
    /// a no-op stub). Used by the trace exporters and the bench harness; the
    /// layout is flat and additive-safe for key-lookup parsers.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"algorithm\":{},\"a\":{},\"b\":{},\"epsilon\":{},\"threads\":{},\"epochs\":{}",
            json_str(&self.algorithm),
            self.dataset_a,
            self.dataset_b,
            self.epsilon,
            self.threads,
            self.epochs
        );
        let _ = write!(
            out,
            ",\"comparisons\":{},\"node_tests\":{},\"results\":{},\"filtered\":{},\"duplicates_suppressed\":{},\"replicas\":{},\"memory_bytes\":{}",
            self.counters.comparisons,
            self.counters.node_tests,
            self.counters.results,
            self.counters.filtered,
            self.counters.duplicates_suppressed,
            self.counters.replicas,
            self.memory_bytes
        );
        let _ = write!(
            out,
            ",\"build_s\":{:.6},\"assignment_s\":{:.6},\"join_s\":{:.6},\"total_s\":{:.6}",
            self.timer.get(Phase::Build).as_secs_f64(),
            self.timer.get(Phase::Assignment).as_secs_f64(),
            self.timer.get(Phase::Join).as_secs_f64(),
            self.total_time().as_secs_f64()
        );
        match &self.plan {
            Some(p) => {
                let _ = write!(
                    out,
                    ",\"plan\":{},\"planning_s\":{:.6}",
                    json_str(&p.compact()),
                    p.stats_time.as_secs_f64()
                );
                if let Some(e) = &p.estimate {
                    let _ = write!(
                        out,
                        ",\"estimate\":{{\"min_cell_size\":{},\"candidates\":{:.0},\"replicas\":{:.0},\"duplicates\":{:.0}}}",
                        p.min_cell_size, e.candidates, e.replicas, e.duplicates
                    );
                }
            }
            None => out.push_str(",\"plan\":null,\"planning_s\":0.000000"),
        }
        match &self.trace {
            Some(t) => {
                let _ = write!(out, ",\"trace\":{}", t.to_json());
            }
            None => out.push_str(",\"trace\":null"),
        }
        if let Some(generation) = self.generation {
            let _ = write!(out, ",\"generation\":{generation}");
        }
        if let Some(ticks) = &self.ticks {
            let _ = write!(out, ",\"ticks\":{}", ticks.to_json());
        }
        if !self.completion.is_complete() {
            let _ = write!(out, ",\"completion\":{}", json_str(self.completion.name()));
        }
        if self.invalid_skipped > 0 {
            let _ = write!(out, ",\"invalid_skipped\":{}", self.invalid_skipped);
        }
        out.push('}');
        out
    }
}

/// Escapes one CSV field per RFC 4180: returned unchanged unless it contains
/// a comma, double quote, CR or LF, in which case it is wrapped in double
/// quotes with embedded quotes doubled. Plain fields stay byte-identical, so
/// existing CSV outputs don't change.
pub fn csv_field(field: &str) -> String {
    if field.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders `s` as a JSON string literal (escaping backslash, quote and
/// control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a count with thousands separators (`1234567` → `"1,234,567"`).
pub fn format_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    let bytes = s.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Formats a duration compactly (`"1.23 s"`, `"45.6 ms"`, `"789 µs"`).
pub fn format_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_matches_equation_1() {
        let mut r = RunReport::new("NL", 100, 200);
        r.counters.results = 50;
        assert!((r.selectivity() - 50.0 / 20_000.0).abs() < 1e-15);
        let empty = RunReport::new("NL", 0, 200);
        assert_eq!(empty.selectivity(), 0.0);
    }

    #[test]
    fn csv_row_has_header_arity() {
        let mut r = RunReport::new("TOUCH", 10, 20);
        r.epsilon = 5.0;
        r.counters.comparisons = 123;
        let header_cols = RunReport::csv_header().split(',').count();
        let row_cols = r.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(r.to_csv_row().starts_with("TOUCH,10,20,5,1,1,123"));
    }

    #[test]
    fn thread_count_defaults_to_one_and_is_reported() {
        let mut r = RunReport::new("TOUCH-P", 10, 20);
        assert_eq!(r.threads, 1);
        r.threads = 8;
        assert!(r.to_csv_row().starts_with("TOUCH-P,10,20,0,8,1,"));
        assert!(RunReport::csv_header().contains(",threads,epochs,"));
    }

    #[test]
    fn merge_epoch_accumulates_counters_and_keeps_peak_memory() {
        let mut r = RunReport::new("TOUCH-S", 100, 0);
        r.epochs = 0; // a streaming cumulative report starts with no epochs
        r.memory_bytes = 500;
        r.timer.add(Phase::Build, Duration::from_millis(10)); // charged once, at build

        let mut c1 = Counters::new();
        c1.comparisons = 5;
        c1.results = 2;
        let mut t1 = PhaseTimer::new();
        t1.add(Phase::Join, Duration::from_millis(3));
        r.merge_epoch(40, &c1, &t1, 900);

        let mut c2 = Counters::new();
        c2.comparisons = 7;
        c2.filtered = 1;
        let mut t2 = PhaseTimer::new();
        t2.add(Phase::Assignment, Duration::from_millis(2));
        r.merge_epoch(60, &c2, &t2, 800);

        assert_eq!(r.epochs, 2);
        assert_eq!(r.dataset_b, 100);
        assert_eq!(r.counters.comparisons, 12);
        assert_eq!(r.counters.results, 2);
        assert_eq!(r.counters.filtered, 1);
        assert_eq!(r.memory_bytes, 900, "memory keeps the epoch peak");
        assert_eq!(r.timer.get(Phase::Build), Duration::from_millis(10));
        assert_eq!(r.timer.get(Phase::Join), Duration::from_millis(3));
        assert_eq!(r.timer.get(Phase::Assignment), Duration::from_millis(2));
    }

    #[test]
    fn plan_summary_round_trips_through_csv() {
        let mut r = RunReport::new("TOUCH", 10, 20);
        assert!(r.to_csv_row().contains(",-,0.000000"), "unplanned runs render a dash");
        r.plan = Some(PlanSummary {
            strategy: "parallel(4)".into(),
            build_on_a: true,
            partitions: 1024,
            fanout: 2,
            cells_per_dim: 500,
            min_cell_size: 1.5,
            allpairs_max_a: 8,
            threads: 4,
            stats_time: Duration::from_millis(3),
            estimate: None,
        });
        let row = r.to_csv_row();
        assert!(row.contains("parallel(4):p1024:f2:c500:ap8"));
        assert!(row.ends_with("0.003000"));
        assert_eq!(
            RunReport::csv_header().split(',').count(),
            row.split(',').count(),
            "plan columns must keep header arity"
        );
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("TOUCH"), "TOUCH");
        assert_eq!(csv_field("parallel(4):p1024:f2:c500:ap8"), "parallel(4):p1024:f2:c500:ap8");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn csv_row_quotes_algorithm_labels_with_commas() {
        let mut r = RunReport::new("NL,special", 1, 1);
        assert!(r.to_csv_row().starts_with("\"NL,special\",1,1,"));
        r.algorithm = "TOUCH".into();
        assert!(r.to_csv_row().starts_with("TOUCH,1,1,"), "plain labels stay unquoted");
    }

    #[test]
    fn json_str_escapes_specials() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("tab\there"), "\"tab\\there\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn to_json_is_flat_and_complete() {
        let mut r = RunReport::new("TOUCH", 10, 20);
        r.epsilon = 5.0;
        r.counters.comparisons = 123;
        r.counters.results = 7;
        let json = r.to_json();
        assert!(json.starts_with("{\"algorithm\":\"TOUCH\",\"a\":10,\"b\":20,\"epsilon\":5,"));
        assert!(json.contains("\"comparisons\":123"));
        assert!(json.contains("\"results\":7"));
        assert!(json.contains("\"plan\":null"));
        assert!(json.contains("\"trace\":null"));
        assert!(json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn to_json_embeds_plan_and_trace() {
        let mut r = RunReport::new("TOUCH", 10, 20);
        r.plan = Some(PlanSummary {
            strategy: "sequential".into(),
            build_on_a: true,
            partitions: 64,
            fanout: 2,
            cells_per_dim: 500,
            min_cell_size: 1.0,
            allpairs_max_a: 8,
            threads: 1,
            stats_time: Duration::from_millis(2),
            estimate: None,
        });
        r.trace = Some(TraceSummary {
            node_time_us: crate::Histogram::new(),
            candidates: crate::Histogram::new(),
            pairs_per_node: crate::Histogram::new(),
            workers: vec![],
            epochs: 0,
            generations: 0,
            evictions: 0,
        });
        let json = r.to_json();
        assert!(json.contains("\"plan\":\"sequential:p64:f2:c500:ap8\""));
        assert!(json.contains("\"planning_s\":0.002000"));
        assert!(json.contains("\"trace\":{\"node_time_us\":"));
    }

    #[test]
    fn plan_estimates_sit_beside_the_measured_counters() {
        let mut r = RunReport::new("TOUCH-AUTO → TOUCH", 10, 20);
        r.counters.comparisons = 1_234;
        r.counters.replicas = 56;
        r.counters.duplicates_suppressed = 7;
        let mut plan = PlanSummary {
            strategy: "sequential".into(),
            build_on_a: true,
            partitions: 4,
            fanout: 2,
            cells_per_dim: 500,
            min_cell_size: 2.5,
            allpairs_max_a: 8,
            threads: 1,
            stats_time: Duration::ZERO,
            estimate: None,
        };
        r.plan = Some(plan.clone());
        // The text's row for `name`: measured, then estimated.
        let row = |text: &str, name: &str| -> Vec<String> {
            let line = text.lines().find(|l| l.starts_with(name)).unwrap_or_default();
            line.split_whitespace().skip(1).map(str::to_string).collect()
        };
        assert!(!r.to_json().contains("\"estimate\""), "explicit plans carry no estimate");
        assert_eq!(row(&r.to_text(), "candidates"), ["1,234", "-"]);

        plan.estimate = Some(PlanEstimate { candidates: 1_000.4, replicas: 60.0, duplicates: 9.0 });
        r.plan = Some(plan.clone());
        let json = r.to_json();
        assert!(json.contains(
            "\"estimate\":{\"min_cell_size\":2.5,\"candidates\":1000,\"replicas\":60,\"duplicates\":9}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = r.to_text();
        assert_eq!(row(&text, "candidates"), ["1,234", "1,000"], "{text}");
        assert_eq!(row(&text, "replicas"), ["56", "60"], "{text}");
        assert_eq!(row(&text, "duplicates"), ["7", "9"], "{text}");
        // The compact form and the CSV columns do not change.
        assert_eq!(plan.compact(), "sequential:p4:f2:c500:ap8");
        assert_eq!(RunReport::csv_header().split(',').count(), r.to_csv_row().split(',').count());
    }

    #[test]
    fn to_json_stamps_the_serving_generation_only_when_present() {
        let mut r = RunReport::new("TOUCH-SERVE", 10, 20);
        assert!(!r.to_json().contains("\"generation\""), "absent outside the serving layer");
        r.generation = Some(7);
        assert!(r.to_json().contains("\"generation\":7"));
        // And the CSV shape is unaffected either way.
        assert_eq!(RunReport::csv_header().split(',').count(), r.to_csv_row().split(',').count());
    }

    #[test]
    fn to_json_embeds_the_tick_section_only_when_present() {
        let mut r = RunReport::new("TOUCH-SIM", 10, 10);
        assert!(!r.to_json().contains("\"ticks\""), "absent outside the simulation layer");
        let mut ticks = TickSummary::new("TOUCH-P4", 10);
        ticks.record(120, 3, false);
        r.ticks = Some(ticks);
        let json = r.to_json();
        assert!(json.contains("\"ticks\":{\"engine\":\"TOUCH-P4\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // And the CSV shape is unaffected either way.
        assert_eq!(RunReport::csv_header().split(',').count(), r.to_csv_row().split(',').count());
    }

    #[test]
    fn to_json_stamps_completion_only_when_cut_short() {
        let mut r = RunReport::new("TOUCH", 10, 20);
        assert!(!r.to_json().contains("\"completion\""), "complete runs stay unchanged");
        r.completion = Completion::Cancelled;
        assert!(r.to_json().contains("\"completion\":\"cancelled\""));
        r.completion = Completion::DeadlineExceeded;
        assert!(r.to_json().contains("\"completion\":\"deadline-exceeded\""));
        // And the CSV shape is unaffected either way.
        assert_eq!(RunReport::csv_header().split(',').count(), r.to_csv_row().split(',').count());
    }

    #[test]
    fn to_json_counts_skipped_invalid_objects_only_when_any() {
        let mut r = RunReport::new("TOUCH", 10, 20);
        assert!(!r.to_json().contains("\"invalid_skipped\""));
        r.invalid_skipped = 3;
        assert!(r.to_json().contains("\"invalid_skipped\":3"));
        assert_eq!(RunReport::csv_header().split(',').count(), r.to_csv_row().split(',').count());
    }

    #[test]
    fn completion_defaults_to_complete() {
        assert_eq!(Completion::default(), Completion::Complete);
        assert!(Completion::Complete.is_complete());
        assert!(!Completion::Cancelled.is_complete());
        assert_eq!(Completion::Cancelled.name(), "cancelled");
        assert_eq!(RunReport::new("x", 1, 1).completion, Completion::Complete);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(format_count(0), "0");
        assert_eq!(format_count(999), "999");
        assert_eq!(format_count(1_000), "1,000");
        assert_eq!(format_count(1_234_567), "1,234,567");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(format_duration(Duration::from_millis(45)), "45.0 ms");
        assert_eq!(format_duration(Duration::from_micros(789)), "789 µs");
    }

    #[test]
    fn total_time_sums_phases() {
        let mut r = RunReport::new("RTree", 1, 1);
        r.timer.add(Phase::Build, Duration::from_millis(10));
        r.timer.add(Phase::Join, Duration::from_millis(5));
        assert_eq!(r.total_time(), Duration::from_millis(15));
        assert_eq!(r.result_pairs(), 0);
    }
}
