//! `--compare a.json b.json`: every workload × end-to-end metric of two
//! result files side by side, the relative change and the metric's bound.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use std::collections::BTreeMap;

/// Per workload, in file order: metric name → value.
type Results = Vec<(String, BTreeMap<String, f64>)>;

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads =
        doc.get("workloads").and_then(Value::as_array).ok_or(format!("{path}: no workloads"))?;
    let mut results = Results::new();
    for entry in workloads {
        let name =
            entry.get("workload").and_then(Value::as_str).ok_or("workload without a name")?;
        let metrics = entry
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or(format!("{path}: {name} has no metrics"))?;
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        results.push((name.to_string(), values));
    }
    Ok(results)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Prints the comparison table; `Ok(false)` if any metric is worse than its
/// bound allows.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<12} {:<7} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "better", "a", "b", "change", "bound"
    );
    let mut within = true;
    for (workload, a_metrics) in &a {
        let b_metrics = b
            .iter()
            .find_map(|(name, m)| (name == workload).then_some(m))
            .ok_or(format!("{b_path} has no {workload}"))?;
        for spec in &END_TO_END {
            let value = |m: &BTreeMap<String, f64>, path: &str| {
                m.get(spec.name).copied().ok_or(format!("{path}: {workload} lacks {}", spec.name))
            };
            let (va, vb) = (value(a_metrics, a_path)?, value(b_metrics, b_path)?);
            let ok = worsening(spec.better, va, vb) <= spec.bound;
            within &= ok;
            println!(
                "{workload:<16} {:<12} {:<7} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>6.0}%  {}",
                spec.name,
                spec.better.name(),
                100.0 * (if va == 0.0 { 0.0 } else { (vb - va) / va }),
                100.0 * spec.bound,
                if ok { "ok" } else { "WORSE THAN BOUND" }
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }
}
