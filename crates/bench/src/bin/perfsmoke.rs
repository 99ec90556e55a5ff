//! `perfsmoke` — the repo's recorded performance trajectory and regression gate.
//!
//! Runs the three TOUCH engines (sequential, parallel, streaming) **plus the
//! auto-planner** (`Engine::Auto` at a pinned 4-thread budget) **plus the
//! serving layer** (`JoinServer` snapshot queries under a per-rep
//! mutate/publish cycle) **plus the tick loop** (`touch-sim` kernel mode, a
//! pinned moving world self-joined for a fixed tick count) over pinned
//! synthetic workloads and writes
//! `BENCH_core.json` with **wall-time derived
//! throughput** (pairs/sec, join-phase pairs/sec), the **machine-independent
//! work counters** (comparisons, node tests, replicas) and — for planned runs —
//! the **chosen plan** for every engine × workload cell. The counters are
//! deterministic — they let a single-core CI sandbox record a meaningful trend
//! even when its wall-clock numbers are noisy; the throughput columns are what a
//! quiet multicore box compares across commits.
//!
//! Usage:
//!
//! ```text
//! cargo run -p touch-bench --release --bin perfsmoke -- [--smoke] \
//!     [--scale <f>] [--reps <n>] [--out <path>] [--gate <baseline.json>] \
//!     [--trace <trace.json>]
//! ```
//!
//! `--smoke` is the quick mode: a tiny scale and few repetitions, enough to
//! prove the harness runs. `--gate <baseline>` is the CI mode: the run replays
//! the committed baseline's scale and then **fails (exit 3) if any
//! machine-independent field moved** — every cell's threads, epochs, pairs,
//! comparisons, node tests, replicas, batch lanes and hits, traced node count,
//! candidate percentiles and plan must equal the baseline cell's, a move in
//! either direction fails, and every violation names the field plus its
//! absolute and relative delta. Wall-clock throughput stays advisory (CI boxes
//! are noisy); updating the committed `BENCH_core.json` is the deliberate act
//! that moves the bar.
//!
//! Every cell additionally runs **one dedicated traced repetition** (outside
//! the timed reps, so the recorded wall numbers stay untraced): the per-node
//! candidate-count skew percentiles it yields are machine-independent and are
//! recorded as `cand_p50`/`cand_p90`/`cand_p99` per cell and echoed in the
//! advisory output. `--trace <path>` additionally writes the traced parallel
//! run of the first (grid-heavy) workload as a Chrome `trace_events` JSON file
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>).

use std::time::Instant;
use touch::{AutoEngine, TickConfig, TickEngine, World};
use touch_core::{
    CountingSink, ExecControl, JoinOrder, SpatialJoinAlgorithm, TouchConfig, TouchJoin,
};
use touch_datagen::SyntheticDistribution;
use touch_experiments::{workload, Context};
use touch_geom::Dataset;
use touch_geom::{Aabb, Point3};
use touch_metrics::{ExecTrace, Phase, RunReport, TraceSink, TraceSummary};
use touch_parallel::{ParallelConfig, ParallelTouchJoin};
use touch_serve::{JoinServer, ServeConfig};
use touch_streaming::{StreamingConfig, StreamingTouchJoin};

/// One pinned workload: its datasets plus the TOUCH configuration every engine runs
/// with (pinned so the numbers stay comparable across commits).
struct Workload {
    name: &'static str,
    a: Dataset,
    b: Dataset,
    eps: f64,
    cfg: TouchConfig,
}

/// The measurement of one engine on one workload.
struct Cell {
    engine: String,
    threads: usize,
    epochs: usize,
    pairs: u64,
    comparisons: u64,
    node_tests: u64,
    replicas: u64,
    /// Candidate lanes fed through the batched MBR filter (machine-independent,
    /// like the other work counters: the batch decomposition is pinned by the
    /// plan, not by the host's SIMD width).
    batch_lanes: u64,
    /// Lanes the batched filter passed on to exact confirmation.
    batch_hits: u64,
    /// Best (minimum) wall-clock total over the repetitions, in seconds.
    wall_s: f64,
    /// Best join-phase time over the repetitions, in seconds.
    join_s: f64,
    reps: usize,
    /// The compact plan string of planned runs (what the Auto row chose; the
    /// fixed engines record their translated configuration).
    plan: Option<String>,
    /// The execution-trace summary of the dedicated traced repetition; its
    /// candidate-count percentiles are the machine-independent skew record.
    trace: Option<TraceSummary>,
}

impl Cell {
    fn from_runs(engine: String, reports: &[RunReport], trace: Option<TraceSummary>) -> Cell {
        let best = reports
            .iter()
            .min_by(|p, q| p.total_time().partial_cmp(&q.total_time()).unwrap())
            .expect("at least one rep");
        let join_s =
            reports.iter().map(|r| r.timer.get(Phase::Join).as_secs_f64()).fold(f64::MAX, f64::min);
        Cell {
            engine,
            threads: best.threads,
            epochs: best.epochs,
            pairs: best.result_pairs(),
            comparisons: best.counters.comparisons,
            node_tests: best.counters.node_tests,
            replicas: best.counters.replicas,
            batch_lanes: best.counters.batch_lanes,
            batch_hits: best.counters.batch_hits,
            wall_s: best.total_time().as_secs_f64(),
            join_s,
            reps: reports.len(),
            plan: best.plan.as_ref().map(|p| p.compact()),
            trace,
        }
    }

    /// The per-node candidate-count percentiles of the traced repetition:
    /// `(p50, p90, p99)`. Deterministic for a pinned workload — the traced run
    /// visits the same nodes and counts the same candidates every time.
    fn skew(&self) -> Option<(u64, u64, u64)> {
        self.trace.as_ref().map(|t| {
            (
                t.candidates.percentile(0.50),
                t.candidates.percentile(0.90),
                t.candidates.percentile(0.99),
            )
        })
    }

    fn to_json(&self) -> String {
        let pps = if self.wall_s > 0.0 { self.pairs as f64 / self.wall_s } else { 0.0 };
        let jpps = if self.join_s > 0.0 { self.pairs as f64 / self.join_s } else { 0.0 };
        let plan = match &self.plan {
            Some(p) => format!(",\"plan\":{}", json_str(p)),
            None => String::new(),
        };
        let skew = match self.skew() {
            Some((p50, p90, p99)) => format!(
                ",\"nodes\":{},\"cand_p50\":{p50},\"cand_p90\":{p90},\"cand_p99\":{p99}",
                self.trace.as_ref().map(|t| t.candidates.count).unwrap_or(0),
            ),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"engine\":{},\"threads\":{},\"epochs\":{},\"pairs\":{},",
                "\"comparisons\":{},\"node_tests\":{},\"replicas\":{},",
                "\"batch_lanes\":{},\"batch_hits\":{},",
                "\"wall_s\":{:.6},\"join_s\":{:.6},",
                "\"pairs_per_sec\":{:.1},\"join_pairs_per_sec\":{:.1},\"reps\":{}{}{}}}"
            ),
            json_str(&self.engine),
            self.threads,
            self.epochs,
            self.pairs,
            self.comparisons,
            self.node_tests,
            self.replicas,
            self.batch_lanes,
            self.batch_hits,
            self.wall_s,
            self.join_s,
            pps,
            jpps,
            self.reps,
            skew,
            plan,
        )
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The machine-independent fields of a cell: everything but the timings.
/// The gate requires each to equal the baseline's (absent in both counts as
/// equal: the serve and tick cells carry no plan, the tick cells no trace).
const GATED_FIELDS: [&str; 13] = [
    "threads",
    "epochs",
    "pairs",
    "comparisons",
    "node_tests",
    "replicas",
    "batch_lanes",
    "batch_hits",
    "nodes",
    "cand_p50",
    "cand_p90",
    "cand_p99",
    "plan",
];

/// One engine cell parsed back out of a committed trajectory file: its
/// workload, its engine and the raw text of its flat JSON object.
struct BaselineCell {
    workload: String,
    engine: String,
    json: String,
}

/// Extracts the raw text of `"key":<value>` from one flat JSON object (our own
/// pinned `touch-bench-core/v1` format — scalar fields, no nested objects
/// inside engine cells).
fn json_field<'j>(obj: &'j str, key: &str) -> Option<&'j str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses the engine cells of a `touch-bench-core/v1` baseline file, returning
/// its scale and every (workload, engine) cell.
fn parse_baseline(json: &str) -> Result<(f64, Vec<BaselineCell>), String> {
    if !json.contains("touch-bench-core/v1") {
        return Err("baseline is not a touch-bench-core/v1 file".into());
    }
    let scale: f64 = json_field(json, "scale")
        .and_then(|v| v.parse().ok())
        .ok_or("baseline has no scale field")?;
    let mut cells = Vec::new();
    // Workload chunks start at `{"name":…`; engine chunks at `{"engine":…`.
    for wl_chunk in json.split("{\"name\":").skip(1) {
        let workload = wl_chunk.trim_start().trim_start_matches('"');
        let workload: String = workload.chars().take_while(|&c| c != '"').collect();
        for engine_chunk in wl_chunk.split("{\"engine\":").skip(1) {
            // The chunk starts right after the split token, i.e. with the quoted
            // engine name itself.
            let engine: String = engine_chunk
                .trim_start()
                .trim_start_matches('"')
                .chars()
                .take_while(|&c| c != '"')
                .collect();
            // Engine cells are flat: the object ends at its first brace.
            let json = &engine_chunk[..engine_chunk.find('}').unwrap_or(engine_chunk.len())];
            if json_field(json, "pairs").is_none() {
                return Err(format!("baseline cell {workload}/{engine} lacks pairs"));
            }
            cells.push(BaselineCell { workload: workload.clone(), engine, json: json.to_string() });
        }
    }
    if cells.is_empty() {
        return Err("baseline contains no engine cells".into());
    }
    Ok((scale, cells))
}

/// The regression gate: every baseline cell must be matched by the current run
/// with **every** [`GATED_FIELDS`] entry equal — the machine-independent work
/// counters, skew percentiles and plan. A move either way is a violation; a
/// numeric one carries its delta. Returns the list of violations.
fn gate_violations(baseline: &[BaselineCell], current: &[(String, Vec<Cell>)]) -> Vec<String> {
    let mut violations = Vec::new();
    for base in baseline {
        let cell = current
            .iter()
            .find(|(name, _)| *name == base.workload)
            .and_then(|(_, cells)| cells.iter().find(|c| c.engine == base.engine));
        let Some(cell) = cell else {
            violations.push(format!(
                "{}/{}: present in the baseline but missing from this run",
                base.workload, base.engine
            ));
            continue;
        };
        let current = cell.to_json();
        for key in GATED_FIELDS {
            let (now, then) = (json_field(&current, key), json_field(&base.json, key));
            if now == then {
                continue;
            }
            let number = |v: Option<&str>| v?.parse::<i128>().ok();
            let delta = match (number(now), number(then)) {
                (Some(n), Some(0)) => format!(" ({n:+})"),
                (Some(n), Some(t)) => {
                    format!(" ({:+}, {:+.2}%)", n - t, 100.0 * (n - t) as f64 / t as f64)
                }
                _ => String::new(),
            };
            violations.push(format!(
                "{}/{}: {key} moved: {} vs baseline {}{delta}",
                base.workload,
                base.engine,
                now.unwrap_or("absent"),
                then.unwrap_or("absent"),
            ));
        }
    }
    violations
}

/// The pinned workloads. Two shapes the engines stress differently:
///
/// * `grid_uniform` — uniform data at paper density with a wide ε and coarse
///   partitioning, so the join phase is dominated by **grid local joins** over
///   well-filled nodes (the kernel the CSR directory targets).
/// * `clustered_filter` — clustered data over a sparse uniform probe side: deep
///   assignment descents, heavy filtering, many small nodes (the kernel the flat
///   MBR descent targets).
fn workloads(ctx: &Context) -> Vec<Workload> {
    let grid_cfg =
        TouchConfig { partitions: 64, join_order: JoinOrder::TreeOnA, ..TouchConfig::default() };
    let cluster_cfg = TouchConfig { join_order: JoinOrder::TreeOnA, ..TouchConfig::default() };
    vec![
        Workload {
            name: "grid_uniform",
            a: workload::synthetic(ctx, 160_000, SyntheticDistribution::Uniform, ctx.seed_a),
            b: workload::synthetic(ctx, 160_000, SyntheticDistribution::Uniform, ctx.seed_b),
            eps: 3.0,
            cfg: grid_cfg,
        },
        Workload {
            name: "clustered_filter",
            a: workload::synthetic(
                ctx,
                160_000,
                SyntheticDistribution::paper_clustered(),
                ctx.seed_a,
            ),
            b: workload::synthetic(ctx, 160_000, SyntheticDistribution::Uniform, ctx.seed_b),
            eps: 1.5,
            cfg: cluster_cfg,
        },
    ]
}

fn run_one_shot(algo: &dyn SpatialJoinAlgorithm, w: &Workload, reps: usize) -> Vec<RunReport> {
    (0..reps)
        .map(|_| {
            let mut sink = CountingSink::new();
            touch_core::JoinQuery::new(&w.a, &w.b)
                .within_distance(w.eps)
                .engine(algo)
                .run(&mut sink)
        })
        .collect()
}

/// Streaming: build once per rep, push the probe side in `epochs` batches, report
/// the cumulative record (build charged once + per-epoch work summed).
fn run_streaming(w: &Workload, epochs: usize, reps: usize) -> Vec<RunReport> {
    (0..reps)
        .map(|_| {
            let cfg = StreamingConfig { touch: w.cfg, ..StreamingConfig::default() };
            let mut engine = StreamingTouchJoin::build_extended(&w.a, w.eps, cfg);
            let mut sink = CountingSink::new();
            let chunk = w.b.len().div_ceil(epochs).max(1);
            for batch in w.b.objects().chunks(chunk) {
                let _ = engine.push_batch(batch, &mut sink);
            }
            engine.cumulative_report()
        })
        .collect()
}

/// Serving: one [`JoinServer`] over A, and per rep one full mutation cycle —
/// insert a far-away dummy, publish the folded generation, run the **measured
/// snapshot query** against it, then remove the dummy and publish again to
/// restore the original tiling. The measured path therefore exercises real
/// generation rotation every rep while the queried tree stays geometrically
/// identical (the dummy sits outside the data extent and the fold appends it
/// deterministically), so the recorded counters are machine-independent.
/// Like the streaming engine, the server holds the **ε-extended** A
/// ([`Dataset::extended`]), so its intersection queries answer the same
/// within-distance predicate as the other rows.
fn run_serve(w: &Workload, reps: usize) -> Vec<RunReport> {
    let a = w.a.extended(w.eps);
    let server = JoinServer::new(&a, ServeConfig { touch: w.cfg, ..ServeConfig::default() });
    let mut reader = server.reader();
    (0..reps)
        .map(|_| {
            let id = server.insert(serve_dummy(&a));
            server.publish();
            let mut sink = CountingSink::new();
            let report = reader.query(w.b.objects(), &mut sink);
            assert!(server.remove(id));
            server.publish();
            report
        })
        .collect()
}

/// Ticks per tick-loop repetition: enough to reach the reuse steady state
/// (tree buffer, scratch, plan) while keeping the smoke runtime small.
const TICKS_PER_REP: usize = 8;

/// Tick loop: a moving world of |A| entities (derived from the workload's seed)
/// joined with itself every tick for [`TICKS_PER_REP`] ticks, kernel mode at a
/// pinned 4-thread budget, counting only. The recorded counters are the ticks'
/// cumulative work — deterministic for the pinned world, so the gate covers the
/// simulation path like any one-shot engine; the wall clock is the whole run,
/// making `pairs_per_sec` the loop's sustained pair throughput.
fn run_tick(w: &Workload, ctx: &Context, reps: usize) -> Vec<RunReport> {
    (0..reps)
        .map(|_| {
            let config = TickConfig::default().with_epsilon(w.eps).with_threads(4).counting_only();
            let mut engine = TickEngine::new(World::random(w.a.len(), ctx.seed_a), config);
            let started = Instant::now();
            engine.run(TICKS_PER_REP);
            let mut report = RunReport::new("tick", w.a.len(), w.a.len());
            report.epsilon = w.eps;
            report.threads = engine.plan().threads();
            report.counters = *engine.counters();
            report.timer.add(Phase::Join, started.elapsed());
            report.ticks = Some(engine.summary().clone());
            report
        })
        .collect()
}

/// A unit box strictly outside the dataset extent: folded in and out of the
/// served generation without ever joining with anything.
fn serve_dummy(a: &Dataset) -> Aabb {
    let at = a.extent().expect("non-empty workload").max + Point3::splat(10.0);
    Aabb::new(at, at + Point3::splat(1.0))
}

/// The serving counterpart of [`trace_one_shot`]: one traced mutation cycle
/// (publish spans included) outside the timed reps.
fn trace_serve(w: &Workload) -> (Option<TraceSummary>, ExecTrace) {
    let trace = ExecTrace::new();
    let a = w.a.extended(w.eps);
    let server = JoinServer::new(&a, ServeConfig { touch: w.cfg, ..ServeConfig::default() });
    let mut reader = server.reader();
    let id = server.insert(serve_dummy(&a));
    let ctl = ExecControl::with_trace(&trace);
    server.try_publish(ctl).expect("traced publish");
    let mut sink = CountingSink::new();
    let _ = reader.try_query(w.b.objects(), &mut sink, ctl).expect("traced query");
    assert!(server.remove(id));
    server.try_publish(ctl).expect("traced publish");
    (trace.summary(), trace)
}

/// One dedicated traced repetition of a one-shot engine, outside the timed
/// reps: returns the trace summary for the cell record plus the raw trace (the
/// `--trace` export). Tracing is observational — the traced run produces the
/// same pairs and counters as the timed ones — so only its skew record is kept.
fn trace_one_shot(
    algo: &dyn SpatialJoinAlgorithm,
    w: &Workload,
) -> (Option<TraceSummary>, ExecTrace) {
    let trace = ExecTrace::new();
    let mut sink = CountingSink::new();
    let report = touch_core::JoinQuery::new(&w.a, &w.b)
        .within_distance(w.eps)
        .engine(algo)
        .trace(&trace)
        .run(&mut sink);
    (report.trace, trace)
}

/// The streaming counterpart of [`trace_one_shot`]: one traced pass of the
/// epoch loop that [`run_streaming`] times.
fn trace_streaming(w: &Workload, epochs: usize) -> (Option<TraceSummary>, ExecTrace) {
    let cfg = StreamingConfig { touch: w.cfg, ..StreamingConfig::default() };
    let trace = ExecTrace::new();
    let mut engine = StreamingTouchJoin::build_extended(&w.a, w.eps, cfg);
    let mut sink = CountingSink::new();
    let chunk = w.b.len().div_ceil(epochs).max(1);
    for batch in w.b.objects().chunks(chunk) {
        engine
            .try_push_batch(batch, &mut sink, ExecControl::with_trace(&trace))
            .expect("traced epoch");
    }
    (trace.summary(), trace)
}

/// Exits with the experiment binaries' bad-argument convention: one line on
/// stderr, status 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.15f64;
    let mut reps = 5usize;
    // Smoke mode defaults to its own output file so a casual `--smoke` run can
    // never clobber the committed full-mode trajectory record; CI passes
    // `--out` explicitly to name its artifact.
    let mut out: Option<String> = None;
    let mut mode = "full";
    let mut gate: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> String {
        match args.get(i) {
            Some(v) => v.clone(),
            None => usage_error(format_args!("missing value after {flag}")),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                mode = "smoke";
                scale = 0.005;
                reps = 2;
            }
            "--scale" => {
                i += 1;
                scale = value(&args, i, "--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale takes a float"));
            }
            "--reps" => {
                i += 1;
                reps = value(&args, i, "--reps")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--reps takes an integer"));
            }
            "--out" => {
                i += 1;
                out = Some(value(&args, i, "--out"));
            }
            "--gate" => {
                i += 1;
                gate = Some(value(&args, i, "--gate"));
            }
            "--trace" => {
                i += 1;
                trace_out = Some(value(&args, i, "--trace"));
            }
            other => usage_error(format_args!("unknown flag {other}")),
        }
        i += 1;
    }

    // Gate mode replays the baseline's scale: the machine-independent counters
    // are only comparable over identical workloads.
    let baseline = gate.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| usage_error(format_args!("cannot read {path}: {e}")));
        let (base_scale, cells) =
            parse_baseline(&text).unwrap_or_else(|e| usage_error(format_args!("{path}: {e}")));
        mode = "gate";
        scale = base_scale;
        (path, cells)
    });

    if !(scale > 0.0 && scale <= 1.0) {
        usage_error("--scale must be in (0, 1]");
    }
    if reps == 0 {
        usage_error("--reps must be at least 1");
    }
    let out = out.unwrap_or_else(|| {
        String::from(if mode == "full" { "BENCH_core.json" } else { "BENCH_core.smoke.json" })
    });

    let ctx = Context::new(scale);
    let started = Instant::now();
    let mut results: Vec<(String, Vec<Cell>)> = Vec::new();
    let mut wl_json = Vec::new();
    // The Chrome trace export of the first (grid-heavy) workload's parallel run.
    let mut chrome_json: Option<String> = None;
    for w in workloads(&ctx) {
        eprintln!(
            "[perfsmoke] workload {} (|A|={}, |B|={}, eps={})",
            w.name,
            w.a.len(),
            w.b.len(),
            w.eps
        );
        let mut cells = Vec::new();

        let touch = TouchJoin::new(w.cfg);
        let (summary, _) = trace_one_shot(&touch, &w);
        cells.push(Cell::from_runs("touch".into(), &run_one_shot(&touch, &w, reps), summary));

        let par = ParallelTouchJoin::new(ParallelConfig {
            threads: 4,
            touch: w.cfg,
            ..ParallelConfig::default()
        });
        let (summary, par_trace) = trace_one_shot(&par, &w);
        cells.push(Cell::from_runs("parallel".into(), &run_one_shot(&par, &w, reps), summary));
        if trace_out.is_some() && chrome_json.is_none() {
            chrome_json = Some(par_trace.to_chrome_json());
        }

        let (summary, _) = trace_streaming(&w, 4);
        cells.push(Cell::from_runs("streaming".into(), &run_streaming(&w, 4, reps), summary));

        let (summary, _) = trace_serve(&w);
        cells.push(Cell::from_runs("serve".into(), &run_serve(&w, reps), summary));

        // The auto-planner at a pinned 4-thread budget (Engine::Auto proper would
        // detect the local core count, which would make the recorded plan — and
        // on tiny boxes the strategy — machine-dependent). The recorded plan
        // column shows what the planner chose for this workload.
        let auto = AutoEngine::with_threads(4);
        let (summary, _) = trace_one_shot(&auto, &w);
        cells.push(Cell::from_runs("auto".into(), &run_one_shot(&auto, &w, reps), summary));

        cells.push(Cell::from_runs("tick".into(), &run_tick(&w, &ctx, reps), None));

        for c in &cells {
            let skew = c
                .skew()
                .map(|(p50, p90, p99)| format!("  cand p50/p90/p99={p50}/{p90}/{p99}"))
                .unwrap_or_default();
            eprintln!(
                "[perfsmoke]   {:<10} pairs={} comparisons={} wall={:.4}s join={:.4}s ({:.0} pairs/s){}{}",
                c.engine,
                c.pairs,
                c.comparisons,
                c.wall_s,
                c.join_s,
                if c.wall_s > 0.0 { c.pairs as f64 / c.wall_s } else { 0.0 },
                skew,
                c.plan.as_deref().map(|p| format!("  plan={p}")).unwrap_or_default(),
            );
        }
        wl_json.push(format!(
            "{{\"name\":{},\"a\":{},\"b\":{},\"eps\":{},\"engines\":[{}]}}",
            json_str(w.name),
            w.a.len(),
            w.b.len(),
            w.eps,
            cells.iter().map(Cell::to_json).collect::<Vec<_>>().join(",")
        ));
        results.push((w.name.to_string(), cells));
    }

    let json = format!(
        "{{\"schema\":\"touch-bench-core/v1\",\"mode\":{},\"scale\":{},\"reps\":{},\"workloads\":[{}]}}\n",
        json_str(mode),
        scale,
        reps,
        wl_json.join(",")
    );
    std::fs::write(&out, &json).expect("write BENCH_core.json");
    eprintln!("[perfsmoke] wrote {out} in {:.1}s", started.elapsed().as_secs_f64());

    if let Some(path) = &trace_out {
        let chrome = chrome_json.expect("the first workload always runs the parallel engine");
        std::fs::write(path, &chrome).expect("write Chrome trace");
        eprintln!("[perfsmoke] wrote Chrome trace of grid_uniform/parallel to {path}");
    }

    if let Some((path, baseline_cells)) = baseline {
        let violations = gate_violations(&baseline_cells, &results);
        if violations.is_empty() {
            eprintln!(
                "[perfsmoke] gate vs {path}: OK ({} cells, {} fields each, all equal)",
                baseline_cells.len(),
                GATED_FIELDS.len()
            );
        } else {
            eprintln!("[perfsmoke] gate vs {path}: FAILED");
            for v in &violations {
                eprintln!("[perfsmoke]   {v}");
            }
            eprintln!(
                "[perfsmoke] these fields are deterministic: a move either way means the \
                 join does different work from the committed baseline. If the change is \
                 intentional, regenerate BENCH_core.json (cargo run -p touch-bench \
                 --release --bin perfsmoke), commit it and say why."
            );
            std::process::exit(3);
        }
    }
}
