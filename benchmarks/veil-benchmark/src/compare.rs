//! `compare A B`: two result sets of `run --all --out`, metric by metric
//! and workload by workload, against the bounds in `BENCHMARK.json`.

use crate::spec::{Contract, MetricSpec};
use crate::stats;
use serde_json::Value;

/// How one (workload, metric) pairing of the two sets reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound and
    /// the runs overlap: nothing can be said.
    Unresolved,
    /// A per-layer metric: no bound, shown for reference.
    Info,
}

impl Label {
    pub fn as_str(self) -> &'static str {
        match self {
            Label::Ok => "ok",
            Label::Regressed => "regressed",
            Label::Unresolved => "unresolved",
            Label::Info => "-",
        }
    }
}

/// Labels B's values against A's (A is the base of every ratio).
pub fn label(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Label {
    let Some(bound) = spec.bound else {
        return Label::Info;
    };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = stats::quartiles(v);
        (q3 - q1) / m.abs().max(f64::MIN_POSITIVE)
    };
    let worse_by = if spec.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs();
    if spread(a, ma).max(spread(b, mb)) > bound {
        let better = |x: f64, y: f64| if spec.higher_is_better { x > y } else { x < y };
        let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        return if b_always_better {
            Label::Ok
        } else {
            Label::Unresolved
        };
    }
    if worse_by > bound {
        Label::Regressed
    } else {
        Label::Ok
    }
}

fn load_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let row = set
        .get("workloads")?
        .as_seq()?
        .iter()
        .find(|w| w.get("workload").and_then(Value::as_str) == Some(workload))?;
    let values = row.get("metrics")?.get(metric)?.get("values")?.as_seq()?;
    Some(values.iter().filter_map(Value::as_f64).collect())
}

fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints the comparison table; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    println!("A = {path_a} (the base of every ratio), B = {path_b}");
    println!(
        "{:<14} {:<38} {:>36} {:>36} {:>8} {:>7}  label",
        "workload", "metric [unit]", "A median (q1..q3, n)", "B median (q1..q3, n)", "B/A", "bound"
    );
    let mut clean = true;
    for workload in &contract.workloads {
        for spec in contract.end_to_end.iter().chain(&contract.per_layer) {
            let (Some(va), Some(vb)) = (
                values_of(&a, workload, &spec.name),
                values_of(&b, workload, &spec.name),
            ) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let lab = label(spec, &va, &vb);
            clean &= lab != Label::Regressed;
            let cell = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!(
                    "{} ({}..{}, {})",
                    fmt(stats::median(v)),
                    fmt(q1),
                    fmt(q3),
                    v.len()
                )
            };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<14} {:<38} {:>36} {:>36} {:>8} {:>7}  {}",
                workload,
                format!("{} [{}]", spec.name, spec.unit),
                cell(&va),
                cell(&vb),
                if ma == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", mb / ma)
                },
                spec.bound.map_or("-".to_string(), |b| format!("{b}")),
                lab.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "us_per_event_p50".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn labels_follow_the_bound_and_the_spread() {
        let a = [50.0, 50.5, 49.5, 50.2];
        assert_eq!(
            label(&lower(0.05), &a, &[51.0, 51.5, 50.5, 51.2]),
            Label::Ok
        );
        assert_eq!(
            label(&lower(0.05), &a, &[56.0, 56.5, 55.5, 56.2]),
            Label::Regressed
        );
        // Spread wider than the bound and the runs overlap: unresolved.
        let noisy = [40.0, 60.0, 45.0, 58.0];
        assert_eq!(label(&lower(0.05), &a, &noisy), Label::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            label(&lower(0.05), &a, &[20.0, 30.0, 25.0, 40.0]),
            Label::Ok
        );
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(
            label(&higher, &a, &[40.0, 40.5, 39.5, 40.1]),
            Label::Regressed
        );
        assert_eq!(label(&higher, &a, &[60.0, 60.5, 59.5, 60.1]), Label::Ok);
        let layer = MetricSpec {
            bound: None,
            ..lower(0.0)
        };
        assert_eq!(label(&layer, &a, &a), Label::Info);
    }
}
