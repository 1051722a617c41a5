//! `rp4-benchmark repeat`: two full sets of runs of the same code, back to
//! back, compared against the benchmark's own bounds.
//!
//! A set is, per workload, [`RUNS_PER_SET`] end-to-end runs (their median
//! is the set's value, as the acceptance driver takes medians over its
//! runs) and one traced run. Every end-to-end metric must agree within its
//! bound on every workload, and every exact metric (counts and simulated
//! times) must be identical. Both sets are written to
//! `out/repeat-set{1,2}.json`.

use serde_json::Value;

use crate::report::{is_exact, out_dir, END_TO_END};
use crate::setup::WORKLOADS;
use crate::stats::summarize;
use crate::Cli;

/// End-to-end runs per workload and set; the set's value is their median.
const RUNS_PER_SET: u64 = 3;

/// One metric of one workload in a set: `(workload, metric, value)`.
type Row = (String, String, f64);

/// `metrics` of one result line, as `(name, value)`.
fn metric_values(line: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let field = |v: &Value, key: &str| -> Option<Value> {
        v.as_map()?
            .iter()
            .find(|(k, _)| matches!(k, Value::Str(s) if s == key))
            .map(|(_, v)| v.clone())
    };
    if field(&doc, "correct") != Some(Value::Bool(true)) {
        return Err("a run reported correct=false".into());
    }
    let metrics = field(&doc, "metrics").ok_or("result line has no metrics")?;
    metrics
        .as_map()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(k, v)| {
            let name = match k {
                Value::Str(s) => s.clone(),
                other => return Err(format!("metric name {other:?}")),
            };
            let value = match field(v, "value") {
                Some(Value::F(f)) => f,
                Some(Value::U(u)) => u as f64,
                Some(Value::I(i)) => i as f64,
                other => return Err(format!("{name}: value {other:?}")),
            };
            Ok((name, value))
        })
        .collect()
}

/// Runs one workload in a child process and returns its result line.
fn result_of(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<String, String> {
    let out = crate::child(cli, workload, seed, trace)?
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}:\n{stdout}",
            out.status
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{workload}: no output"))
}

/// One full set: every workload, end-to-end (median over
/// [`RUNS_PER_SET`] seeds) then traced. Returns `(workload, metric,
/// value)` rows and the raw result lines.
fn full_set(cli: &Cli, set: usize) -> Result<(Vec<Row>, Vec<Value>), String> {
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for (seed, trace) in (0..RUNS_PER_SET)
            .map(|i| (cli.seed + i, false))
            .chain([(cli.seed, true)])
        {
            eprintln!(
                "repeat: set {set}, {} (seed {seed}, trace {})",
                w.name,
                u8::from(trace)
            );
            let line = result_of(cli, w.name, seed, trace)?;
            let values = metric_values(&line)?;
            if trace {
                rows.extend(values.into_iter().map(|(m, v)| (w.name.to_string(), m, v)));
            } else {
                runs.push(values);
            }
            lines.push(Value::Map(vec![
                (Value::Str("workload".into()), Value::Str(w.name.into())),
                (Value::Str("seed".into()), Value::U(u128::from(seed))),
                (Value::Str("trace".into()), Value::Bool(trace)),
                (
                    Value::Str("result".into()),
                    serde_json::from_str(&line).map_err(|e| e.to_string())?,
                ),
            ]));
        }
        for (i, (metric, _)) in runs[0].iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r[i].1).collect();
            rows.push((w.name.to_string(), metric.clone(), summarize(&values).value));
        }
    }
    Ok((rows, lines))
}

/// Compares two sets. Returns the printed table and whether they agree.
pub fn compare(first: &[Row], second: &[Row]) -> (Vec<String>, bool) {
    let mut ok = true;
    let mut table = Vec::new();
    for (workload, metric, a) in first {
        let Some((_, _, b)) = second.iter().find(|(w, m, _)| w == workload && m == metric) else {
            table.push(format!(
                "{workload:<14} {metric:<32} missing from the second set"
            ));
            ok = false;
            continue;
        };
        let sharded = WORKLOADS.iter().any(|w| w.name == workload && w.shards > 0);
        let bound = END_TO_END
            .iter()
            .find(|(n, _, _)| n == metric)
            .map(|(_, _, bound)| *bound);
        let diff = if *a == 0.0 {
            (b - a).abs()
        } else {
            (b - a).abs() / a.abs()
        };
        let verdict = match bound {
            Some(bound) if diff > bound => {
                ok = false;
                format!(
                    "DIFFERS by {:.1} % (bound {:.0} %)",
                    diff * 100.0,
                    bound * 100.0
                )
            }
            Some(bound) => format!("within {:.0} % ({:.1} %)", bound * 100.0, diff * 100.0),
            None if is_exact(metric, sharded) && a != b => {
                ok = false;
                "DIFFERS (must repeat exactly)".to_string()
            }
            None if is_exact(metric, sharded) => "identical".to_string(),
            None => format!("{:.1} %", diff * 100.0),
        };
        table.push(format!(
            "{workload:<14} {metric:<32} {a:>16.4} {b:>16.4}  {verdict}"
        ));
    }
    (table, ok)
}

/// Runs two full sets and compares them.
pub fn repeat(cli: &Cli) -> Result<bool, String> {
    if cli.smoke {
        return Err("a smoke run is refused as a baseline: run `repeat` without --smoke".into());
    }
    let mut sets = Vec::new();
    for set in 1..=2 {
        let (rows, lines) = full_set(cli, set)?;
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let text = serde_json::to_string_pretty(&Value::Seq(lines)).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(format!("repeat-set{set}.json")), text + "\n")
            .map_err(|e| e.to_string())?;
        sets.push(rows);
    }
    let (table, ok) = compare(&sets[0], &sets[1]);
    println!(
        "{:<14} {:<32} {:>16} {:>16}",
        "workload", "metric", "set 1", "set 2"
    );
    for row in table {
        println!("{row}");
    }
    println!(
        "repeat: {}",
        if ok {
            "both sets agree within the benchmark's bounds"
        } else {
            "the sets DISAGREE"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(w: &str, m: &str, v: f64) -> Row {
        (w.to_string(), m.to_string(), v)
    }

    #[test]
    fn bounds_apply_to_end_to_end_and_exactness_to_counts() {
        let a = vec![
            row("fwd_base", "fwd_pps", 100.0),
            row("fwd_base", "t_l_sim_us", 7641.6),
            row("fwd_sharded", "netpkt.allocs_per_pkt", 0.5),
            row("fwd_base", "cm.rx_ns_per_pkt", 10.0),
        ];
        let (_, ok) = compare(&a, &a);
        assert!(ok);

        let mut b = a.clone();
        b[0].2 = 90.0; // within the 25 % bound
        b[2].2 = 0.6; // not exact on the sharded runtime
        b[3].2 = 30.0; // measured layer metric: no bound
        assert!(compare(&a, &b).1);

        b[0].2 = 70.0;
        assert!(!compare(&a, &b).1, "fwd_pps off by 30 %");
        b[0].2 = 100.0;
        b[1].2 = 7641.7;
        assert!(!compare(&a, &b).1, "an exact metric moved");
        assert!(!compare(&a, &a[..2]).1, "a metric went missing");
    }

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"fwd_pps":{"value":12.5,"unit":"pkt/s"},"cm.rx_clamped":{"value":0.0,"unit":"count"}}}"#;
        assert_eq!(
            metric_values(line).unwrap(),
            vec![
                ("fwd_pps".to_string(), 12.5),
                ("cm.rx_clamped".to_string(), 0.0)
            ]
        );
        assert!(metric_values(&line.replace("true", "false")).is_err());
    }
}
