//! The benchmark's metrics — name, unit, which direction is better and, for
//! the end-to-end ones, the share of the parent's median a change may worsen
//! them by — and the per-layer aggregation of the traced pass.
//! `BENCHMARK.json` repeats these tables; a test keeps the two in step.

use crate::measure::{median, ratio};
use crate::spans::OpProfile;
use crate::workloads::TracedOp;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: how far (as a share of the parent's median) a
    /// change may worsen the metric before it counts as a regression.
    pub bound: f64,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    spec(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// Measured untraced. Every workload reports every one of them.
pub const END_TO_END: [Spec; 4] = [
    spec("op_ms_p50", "ms", Lower, 0.25),
    spec("kobj_per_s", "kobj/s", Higher, 0.25),
    spec("index_mb", "MB", Lower, 0.10),
    spec("setup_s", "s", Lower, 0.25),
];

/// Measured by the traced pass (plus the untraced tail). Every workload
/// reports every one; a layer a workload's op does not call has a share of 0.
pub const PER_LAYER: [Spec; 28] = [
    layer("geom.frac", "frac", Lower),
    layer("core.plan_frac", "frac", Lower),
    layer("index.sort_frac", "frac", Lower),
    layer("core.tile_frac", "frac", Lower),
    layer("core.assign_frac", "frac", Lower),
    layer("core.join_frac", "frac", Lower),
    layer("surface.frac", "frac", Lower),
    layer("trace.unattributed_frac", "frac", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.assign_ms", "ms", Lower),
    layer("core.join_ms", "ms", Lower),
    layer("core.join_ns_per_comparison", "ns", Lower),
    layer("core.node_tests", "count", Lower),
    layer("core.filtered_frac", "frac", Higher),
    layer("core.join_nodes", "count", Lower),
    layer("core.comparisons", "count", Lower),
    layer("core.pairs", "count", Higher),
    layer("core.pair_yield", "frac", Higher),
    layer("core.replicas", "count", Lower),
    layer("core.tree_nodes", "count", Lower),
    layer("core.tree_height", "count", Lower),
    layer("simd.batch_lanes", "count", Lower),
    layer("simd.hit_ratio", "frac", Higher),
    layer("simd.overlap_ns_per_lane.detected", "ns", Lower),
    layer("simd.overlap_ns_per_lane.scalar", "ns", Lower),
    layer("parallel.join_speedup", "x", Higher),
    layer("trace.overhead_frac", "frac", Lower),
    layer("op_ms_tail", "ms", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The share metrics of an op's layers; with `trace.unattributed_frac` they
/// add up to 1.
const STAGES: [&str; 7] = [
    "geom.frac",
    "core.plan_frac",
    "index.sort_frac",
    "core.tile_frac",
    "core.assign_frac",
    "core.join_frac",
    "surface.frac",
];

/// The share metric a span's self time counts towards. Every span name the
/// workloads record must appear here.
pub fn stage_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "geom.validate" | "geom.extend" => "geom.frac",
        "core.stats" | "core.plan" => "core.plan_frac",
        "index.str_sort" | "parallel.str_sort" => "index.sort_frac",
        "core.tile" => "core.tile_frac",
        "core.clear" | "core.assign" | "parallel.assign" => "core.assign_frac",
        "core.join" | "parallel.join" => "core.join_frac",
        "sim.step" | "sim.fill" | "sim.sort_pairs" | "serve.mutate" | "serve.publish"
        | "serve.snapshot" => "surface.frac",
        _ => return None,
    })
}

/// The measurements outside the traced ops that per-layer metrics include.
pub struct Probes {
    /// Median untraced op latency, the base of `trace.overhead_frac`.
    pub untraced_p50_ms: f64,
    pub tail_ms: f64,
    pub join_speedup: f64,
    pub overlap_ns_detected: f64,
    pub overlap_ns_scalar: f64,
}

/// Per-layer metrics from the traced ops' span profiles and counters.
pub fn layer_values(profiles: &[OpProfile], traced: &[TracedOp], probes: &Probes) -> Values {
    let mut values = Values::new();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let per_op =
        |f: &dyn Fn(&OpProfile) -> f64| median(&profiles.iter().map(f).collect::<Vec<_>>());
    let share = |p: &OpProfile, stage: &str| {
        ratio(
            p.self_time(|name| stage_of(name) == Some(stage)).as_secs_f64(),
            p.total.as_secs_f64(),
        )
    };
    for stage in STAGES {
        values.insert(stage, per_op(&|p| share(p, stage)));
    }
    values.insert(
        "trace.unattributed_frac",
        per_op(&|p| ratio(p.unattributed.as_secs_f64(), p.total.as_secs_f64())),
    );
    let stage_ms = |stage: &str| per_op(&|p| ms(p.self_time(|name| stage_of(name) == Some(stage))));
    values.insert("core.plan_us", stage_ms("core.plan_frac") * 1e3);
    values.insert("core.assign_ms", stage_ms("core.assign_frac"));
    let join_ms = stage_ms("core.join_frac");
    values.insert("core.join_ms", join_ms);

    let count = |f: &dyn Fn(&TracedOp) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let comparisons = count(&|t| t.counters.comparisons as f64);
    values.insert("core.join_ns_per_comparison", ratio(join_ms * 1e6, comparisons));
    values.insert("core.node_tests", count(&|t| t.counters.node_tests as f64));
    values.insert(
        "core.filtered_frac",
        count(&|t| ratio(t.counters.filtered as f64, t.probe_objects as f64)),
    );
    values.insert("core.join_nodes", count(&|t| t.join_nodes as f64));
    values.insert("core.comparisons", comparisons);
    values.insert("core.pairs", count(&|t| t.digest.count as f64));
    values.insert(
        "core.pair_yield",
        count(&|t| ratio(t.counters.results as f64, t.counters.comparisons as f64)),
    );
    values.insert("core.replicas", count(&|t| t.counters.replicas as f64));
    values.insert("core.tree_nodes", count(&|t| t.tree_nodes as f64));
    values.insert("core.tree_height", count(&|t| t.tree_height as f64));
    values.insert("simd.batch_lanes", count(&|t| t.counters.batch_lanes as f64));
    values.insert(
        "simd.hit_ratio",
        count(&|t| ratio(t.counters.batch_hits as f64, t.counters.batch_lanes as f64)),
    );
    values.insert("simd.overlap_ns_per_lane.detected", probes.overlap_ns_detected);
    values.insert("simd.overlap_ns_per_lane.scalar", probes.overlap_ns_scalar);
    values.insert("parallel.join_speedup", probes.join_speedup);
    let traced_ms = per_op(&|p| ms(p.total));
    values.insert("trace.overhead_frac", ratio(traced_ms, probes.untraced_p50_ms) - 1.0);
    values.insert("op_ms_tail", probes.tail_ms);
    values
}

/// One result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with every metric of `specs`, in table order, at full precision.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, spec) in specs.iter().enumerate() {
        let value = values.get(spec.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            spec.name,
            spec.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn every_share_metric_has_spans_and_every_span_a_share() {
        for name in [
            "geom.validate",
            "geom.extend",
            "core.stats",
            "core.plan",
            "index.str_sort",
            "parallel.str_sort",
            "core.tile",
            "core.clear",
            "core.assign",
            "parallel.assign",
            "core.join",
            "parallel.join",
            "sim.step",
            "sim.fill",
            "sim.sort_pairs",
            "serve.mutate",
            "serve.publish",
            "serve.snapshot",
        ] {
            let stage = stage_of(name).unwrap_or_else(|| panic!("{name} has no stage"));
            assert!(PER_LAYER.iter().any(|s| s.name == stage), "{stage} is not a metric");
        }
        assert_eq!(stage_of("op"), None);
    }

    #[test]
    fn result_lines_carry_every_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("op_ms_p50", 1.25);
        values.insert("setup_s", f64::NAN);
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let metrics = doc.get("metrics").and_then(Value::as_object).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = &metrics["op_ms_p50"];
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(metrics["setup_s"].get("value").and_then(Value::as_f64), Some(0.0));
    }

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// metrics, units, directions and bounds this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, specs: &[Spec], bounded: bool| {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), specs.len(), "{key} lists every metric");
            for (entry, spec) in listed.iter().zip(specs) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str);
                assert_eq!(field("name"), Some(spec.name));
                assert_eq!(field("unit"), Some(spec.unit), "{}", spec.name);
                assert_eq!(field("better"), Some(spec.better.name()), "{}", spec.name);
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(spec.bound), "{}", spec.name);
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
    }
}
