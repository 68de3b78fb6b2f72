//! `--compare A.json B.json`: one row per workload × end-to-end metric
//! with both medians, both quartile ranges, the bound from
//! `BENCHMARK.json`, and a verdict.

use std::path::Path;

use serde_json::Value;

use crate::report::median;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the rule the driver uses); a single value is both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of `workload`'s end-to-end `metric` across the runs of a
/// result file.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = set.get("runs").and_then(Value::as_array);
    runs.into_iter()
        .flatten()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Prints the comparison table. `Err` when a file cannot be read; the
/// verdicts themselves never fail the command.
pub fn compare(bench_json: &Path, a: &Path, b: &Path) -> Result<(), String> {
    let bench = load(bench_json)?;
    let (set_a, set_b) = (load(a)?, load(b)?);
    let names = |section: &str| -> Vec<&Value> {
        bench
            .get(section)
            .and_then(Value::as_array)
            .map(|v| v.iter().collect())
            .unwrap_or_default()
    };
    println!(
        "{:<12} {:<24} {:>12} {:>22} {:>12} {:>22} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "bound"
    );
    for w in names("workloads") {
        let w = w.get("name").and_then(Value::as_str).unwrap_or_default();
        for m in names("end_to_end") {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let lower_is_better = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (values(&set_a, w, name), values(&set_b, w, name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<12} {name:<24} missing from one of the files");
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let ((a1, a3), (b1, b3)) = (quartiles(&va), quartiles(&vb));
            let spread = ((a3 - a1) / ma.abs()).max((b3 - b1) / mb.abs());
            // Positive = B is worse than A, as a share of A.
            let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
            let verdict = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                "worse"
            } else {
                "same"
            };
            println!(
                "{w:<12} {name:<24} {ma:>12.4} {:>22} {mb:>12.4} {:>22} {:>+6.1}% {:>5.0}%  {verdict}",
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                (mb - ma) / ma.abs() * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
