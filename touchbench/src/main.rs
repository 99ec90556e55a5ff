//! `touchbench` — the benchmark of the TOUCH workspace.
//!
//! Five workloads drive the system's entry points (`JoinQuery` with the
//! automatic and the paper's sequential engine, `StreamingTouchJoin`,
//! `JoinServer`, `TickEngine`) through their fallible `try_*` forms in a
//! closed loop of one client, check every op against a plane-sweep oracle,
//! and report end-to-end metrics measured untraced. With `--trace` a separate
//! pass replays ops layer by layer inside spans and reports where the time
//! went. See `README.md` next to this file.
//!
//! ```text
//! cargo run --offline --release --manifest-path touchbench/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <dir>]
//! cargo run --offline --release --manifest-path touchbench/Cargo.toml -- \
//!     --compare <a.json> <b.json>
//! ```
//!
//! Standard output gets one JSON line per workload (end-to-end metrics, or
//! per-layer metrics with `--trace`); standard error gets a readable summary.
//! The exit status is 1 if any op failed or any check disagreed, and 2 on bad
//! arguments.

mod compare;
mod json;
mod measure;
mod metrics;
mod probes;
mod reference;
mod run;
mod spans;
mod workloads;

use metrics::{result_line, Spec, Values, END_TO_END, PER_LAYER};
use run::{Outcome, Settings};
use std::path::PathBuf;
use workloads::{Kind, Scale};

const DEFAULT_SEED: u64 = 20130622;
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workloads: Vec<Kind>,
    settings: Settings,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("touchbench: {message}");
    eprintln!(
        "usage: touchbench [--workload <name>] [--seed <u64>] [--seconds <s>] \
         [--trace [0|1]] [--out <dir>] | --compare <a.json> <b.json>"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workloads: Kind::ALL.to_vec(),
        settings: Settings {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: Scale::Full,
        },
        out: None,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage_error(format_args!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload");
                let kind = Kind::parse(&name)
                    .unwrap_or_else(|| usage_error(format_args!("unknown workload {name}")));
                parsed.workloads = vec![kind];
            }
            "--seed" => {
                parsed.settings.seed = value(&mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes an unsigned integer"));
            }
            "--seconds" => {
                let seconds: f64 = value(&mut i, "--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds takes a number"));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    usage_error("--seconds must be in (0, 600]");
                }
                parsed.settings.seconds = seconds;
            }
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                parsed.settings.trace = args.get(i + 1).map(String::as_str) != Some("0");
                if matches!(args.get(i + 1).map(String::as_str), Some("0" | "1")) {
                    i += 1;
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value(&mut i, "--out"))),
            "--compare" => {
                let a = value(&mut i, "--compare");
                let b = value(&mut i, "--compare");
                parsed.compare = Some((a, b));
            }
            other => usage_error(format_args!("unknown argument {other}")),
        }
        i += 1;
    }
    parsed
}

fn summarize(outcome: &Outcome) {
    let name = outcome.kind.name();
    eprintln!(
        "[touchbench] {name}: {} timed ops in {:.1} s, {} attempted, {} failed, prepared in {:.2} s",
        outcome.timed_ops, outcome.timed_s, outcome.attempted, outcome.failed, outcome.prepare_s
    );
    let show = |specs: &[Spec], values: &Values| {
        for spec in specs {
            let value = values.get(spec.name).copied().unwrap_or(f64::NAN);
            eprintln!("[touchbench]   {:<36} {value:>14.4} {}", spec.name, spec.unit);
        }
    };
    eprintln!(
        "[touchbench]   wall-clock op median {:.3} ms, reference median {:.3} ms",
        outcome.wall_op_ms_p50, outcome.reference_ms
    );
    show(&END_TO_END, &outcome.end_to_end);
    eprintln!("[touchbench]   (op_ms_tail is the p{} latency)", outcome.tail_percentile);
    if let Some(layers) = &outcome.layers {
        show(&PER_LAYER, layers);
    }
}

/// The `--out` results file: each workload's result line with every metric
/// the run measured.
fn results_json(seed: u64, outcomes: &[Outcome]) -> String {
    let entries: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let mut values = o.end_to_end.clone();
            let mut specs = END_TO_END.to_vec();
            if let Some(layers) = &o.layers {
                values.extend(layers.iter().map(|(k, v)| (*k, *v)));
                specs.extend(PER_LAYER);
            }
            format!(
                "{{\"workload\":\"{}\",\"prepare_s\":{},\"wall_op_ms_p50\":{},\
                 \"reference_ms\":{},\"result\":{}}}",
                o.kind.name(),
                o.prepare_s,
                o.wall_op_ms_p50,
                o.reference_ms,
                result_line(o.correct(), o.attempted, o.failed, &specs, &values)
            )
        })
        .collect();
    format!("{{\"seed\":{seed},\"workloads\":[\n{}\n]}}\n", entries.join(",\n"))
}

fn write_out(dir: &PathBuf, seed: u64, outcomes: &[Outcome]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("results.json"), results_json(seed, outcomes))?;
    if outcomes.iter().any(|o| !o.spans.is_empty()) {
        let mut events = Vec::new();
        for (tid, o) in outcomes.iter().enumerate() {
            spans::chrome_events(&o.spans, o.kind.name(), tid + 1, &mut events);
        }
        std::fs::write(dir.join("trace.json"), spans::chrome_trace(&events))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args);
    if let Some((a, b)) = &args.compare {
        match compare::compare(a, b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => usage_error(e),
        }
    }

    let mut outcomes = Vec::new();
    for &kind in &args.workloads {
        let outcome = run::run(kind, &args.settings);
        summarize(&outcome);
        let (specs, values): (&[Spec], &Values) = match &outcome.layers {
            Some(layers) => (&PER_LAYER, layers),
            None => (&END_TO_END, &outcome.end_to_end),
        };
        println!(
            "{}",
            result_line(outcome.correct(), outcome.attempted, outcome.failed, specs, values)
        );
        outcomes.push(outcome);
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_out(dir, args.settings.seed, &outcomes) {
            eprintln!("touchbench: cannot write {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if outcomes.iter().any(|o| !o.correct()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_value_and_the_flag_forms_of_trace() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_rw",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert_eq!(args.workloads, vec![Kind::ServeRw]);
        assert_eq!((args.settings.seed, args.settings.seconds), (7, 10.0));
        assert!(args.settings.trace);
        assert!(!parse_args(&strings(&["--trace", "0"])).settings.trace);
        let flag = parse_args(&strings(&["--trace", "--seed", "3"]));
        assert!(flag.settings.trace);
        assert_eq!(flag.settings.seed, 3);
        assert!(parse_args(&strings(&["--trace"])).settings.trace);
        assert_eq!(parse_args(&[]).workloads, Kind::ALL.to_vec());
    }

    /// Every workload at a tiny size: set-up, oracle, timed ops with their
    /// checks, and the traced pass with its traced-equals-untraced checks.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        let settings = Settings { seed: 7, seconds: 0.01, trace: true, scale: Scale::Smoke };
        let mut outcomes = Vec::new();
        for kind in Kind::ALL {
            let outcome = run::run(kind, &settings);
            assert!(
                outcome.correct(),
                "{}: {} of {} failed",
                kind.name(),
                outcome.failed,
                outcome.attempted
            );
            let layers = outcome.layers.as_ref().expect("traced run");
            assert!(layers["core.comparisons"] > 0.0, "{}", kind.name());
            assert!(outcome.end_to_end["op_ms_p50"] > 0.0, "{}", kind.name());
            for spec in &PER_LAYER {
                assert!(layers[spec.name].is_finite(), "{} {}", kind.name(), spec.name);
            }
            outcomes.push(outcome);
        }
        let results = json::parse(&results_json(7, &outcomes)).expect("results parse");
        assert_eq!(
            results.get("workloads").and_then(json::Value::as_array).map(<[_]>::len),
            Some(5)
        );
    }
}
