//! Sets of runs: `--summarize` turns the result lines `run.sh` collected
//! into medians and quartiles per workload and metric, and `--compare`
//! holds two such summaries against the bounds of `schema::END_TO_END`.

use crate::json::{self, Value};
use crate::schema::{self, Better};
use crate::stats;
use std::path::Path;

/// Reads `<dir>/<workload>.jsonl` (one result line per run) for every
/// declared workload and returns the summary document.
pub fn summarize(dir: &Path) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in &schema::WORKLOADS {
        let path = dir.join(format!("{}.jsonl", w.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut by_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut runs = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let doc = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            if doc.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!("{}: a run was not correct", path.display()));
            }
            runs += 1;
            let metrics = doc
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{}: no metrics in a result line", path.display()))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: {name} has no value", path.display()))?;
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                match by_metric.iter_mut().find(|(n, _, _)| n == name) {
                    Some(row) => row.2.push(value),
                    None => by_metric.push((name.clone(), unit.to_owned(), vec![value])),
                }
            }
        }
        if runs == 0 {
            return Err(format!("{}: no runs", path.display()));
        }
        let metrics = by_metric
            .into_iter()
            .map(|(name, unit, values)| {
                let (q1, q3) = stats::quartiles(&values);
                let row = json::object(vec![
                    ("median", Value::Num(stats::median(&values))),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("iqr_share", Value::Num(stats::iqr_share(&values))),
                    ("n", Value::Num(values.len() as f64)),
                    ("unit", Value::Str(unit)),
                ]);
                (name, row)
            })
            .collect();
        workloads.push((w.name.to_owned(), Value::Obj(metrics)));
    }
    Ok(json::object(vec![("workloads", Value::Obj(workloads))]))
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// bad direction (negative when `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares summary `b` against summary `a` on every end-to-end metric
/// of every workload. Returns the report lines and whether every
/// metric stayed within its bound, in both directions: two sets of
/// runs of one commit must agree, whichever ran first.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let mut lines = Vec::new();
    let mut ok = true;
    for w in &schema::WORKLOADS {
        for m in &schema::END_TO_END {
            let median = |doc: &Value, which: &str| {
                doc.get("workloads")
                    .and_then(|ws| ws.get(w.name))
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|row| row.get("median"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{which}: no median of {} on {}", m.name, w.name))
            };
            let (ma, mb) = (median(a, "first file")?, median(b, "second file")?);
            let worse = worsening(m.better, ma, mb);
            let within = worse.abs() <= m.bound;
            ok &= within;
            lines.push(format!(
                "{:<14} {:<12} {:>14.6} -> {:>14.6} {:<7} {:+8.2}% worse (bound {:.1}%) {}",
                w.name,
                m.name,
                ma,
                mb,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "DIFFERS" }
            ));
        }
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 5.0, 5.0), 0.0);
    }

    fn summary(op_p50_ms: f64) -> Value {
        let metrics: Vec<(String, Value)> = schema::END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "op_p50_ms" {
                    op_p50_ms
                } else {
                    1.0
                };
                (
                    m.name.to_owned(),
                    json::object(vec![("median", Value::Num(v))]),
                )
            })
            .collect();
        let workloads = schema::WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), Value::Obj(metrics.clone())))
            .collect();
        json::object(vec![("workloads", Value::Obj(workloads))])
    }

    #[test]
    fn compare_flags_a_metric_outside_its_bound_either_way() {
        let bound = schema::end_to_end("op_p50_ms").expect("declared").bound;
        let (_, ok) = compare(&summary(100.0), &summary(100.0 * (1.0 + bound / 2.0))).unwrap();
        assert!(ok);
        let (lines, ok) = compare(&summary(100.0), &summary(100.0 * (1.0 + bound * 2.0))).unwrap();
        assert!(!ok);
        assert_eq!(
            lines.iter().filter(|l| l.ends_with("DIFFERS")).count(),
            schema::WORKLOADS.len()
        );
        let (_, ok) = compare(&summary(100.0 * (1.0 + bound * 2.0)), &summary(100.0)).unwrap();
        assert!(!ok, "a large improvement also means the two sets differ");
        assert!(compare(&summary(1.0), &Value::Null).is_err());
    }
}
