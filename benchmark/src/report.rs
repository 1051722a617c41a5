//! Metric names, the printed report, and the result files with their
//! provenance.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

use crate::stats::Summary;

/// How far two runs of the same code may differ on a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A wall-clock measurement: compared within a bound.
    Measured,
    /// A count or simulated time that must repeat exactly.
    Exact,
    /// Exact wherever the data path runs on the caller's thread; on the
    /// sharded runtime thread timing can move it.
    ExactSingleCore,
}

/// `(name, unit, share of the parent's median it may worsen by)` of every
/// end-to-end metric, in print order. Mirrors `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("fwd_pps", "pkt/s", 0.25),
    ("update_ms_p50", "ms", 0.25),
    ("update_ms_p90", "ms", 0.25),
    ("rollback_ms_p50", "ms", 0.25),
    ("table_ops_per_s", "op/s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
];

/// `(name, unit, kind)` of every per-layer metric, in print order.
/// Mirrors `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("netpkt.build_ns_per_pkt", "ns", Kind::Measured),
    ("netpkt.allocs_per_pkt", "count", Kind::ExactSingleCore),
    ("netpkt.arena_fresh", "count", Kind::ExactSingleCore),
    ("netpkt.parse_ns_per_pkt", "ns", Kind::Measured),
    ("cm.rx_ns_per_pkt", "ns", Kind::Measured),
    ("cm.tx_ns_per_pkt", "ns", Kind::Measured),
    ("cm.rx_clamped", "count", Kind::Exact),
    ("pm.run_burst_ns_per_pkt", "ns", Kind::Measured),
    ("pm.tm_ns_per_pkt", "ns", Kind::Measured),
    ("pm.exec_residual_ns_per_pkt", "ns", Kind::Measured),
    ("pm.primitives_per_pkt", "count", Kind::Exact),
    ("pm.slots_per_pkt", "count", Kind::Exact),
    ("pm.tm_tail_drops", "count", Kind::Exact),
    ("pm.burst_us_p50", "us", Kind::Measured),
    ("pm.burst_us_p99", "us", Kind::Measured),
    ("fast.compile_us", "us", Kind::Measured),
    ("fast.recompiles", "count", Kind::Measured),
    ("tsp.ns_per_pkt", "ns", Kind::Measured),
    ("core.table.lookup_ns", "ns", Kind::Measured),
    ("core.table.lpm_lengths", "count", Kind::Exact),
    ("sm.mem_accesses_per_pkt", "count", Kind::Exact),
    ("core.table.insert_ns", "ns", Kind::Measured),
    ("core.table.delete_ns", "ns", Kind::Measured),
    ("sm.load_routes_per_s", "1/s", Kind::Measured),
    ("ccm.apply_us_per_batch", "us", Kind::Measured),
    ("ccm.apply_us", "us", Kind::Measured),
    ("ccm.msgs_per_update", "count", Kind::Exact),
    ("ccm.bytes_per_update", "B", Kind::Exact),
    ("ccm.stall_sim_us", "sim_us", Kind::Exact),
    ("ccm.entries_written", "count", Kind::Exact),
    ("resilience.staged_apply_us", "us", Kind::Measured),
    ("rp4-lang.parse_us", "us", Kind::Measured),
    ("rp4c.plan_us", "us", Kind::Measured),
    ("controller.gates_us", "us", Kind::Measured),
    ("controller.t_c_us", "us", Kind::Measured),
    ("controller.update_ms_p99", "ms", Kind::Measured),
    ("pisa-bm.reload_ms", "ms", Kind::Measured),
    ("pisa-bm.t_l_sim_us", "sim_us", Kind::Exact),
    ("pisa-bm.entries_replayed", "count", Kind::Exact),
    ("hwmodel.ipsa_mpps_sim", "sim_Mpps", Kind::Exact),
    ("hwmodel.pisa_mpps_sim", "sim_Mpps", Kind::Exact),
    ("sharded.busy_ns_per_pkt", "ns", Kind::Measured),
    ("sharded.overhead_ns_per_pkt", "ns", Kind::Measured),
    ("sharded.imbalance", "ratio", Kind::Measured),
    ("sharded.barriers", "count", Kind::Exact),
    ("sharded.busy_p99_ns", "ns", Kind::Measured),
    ("sharded.lost_packets", "count", Kind::Exact),
    ("sharded.pps_burst2048", "pkt/s", Kind::Measured),
    ("t_l_sim_us", "sim_us", Kind::Exact),
    ("trace_overhead_pct", "%", Kind::Measured),
];

/// Whether `name` must repeat exactly on `workload`.
pub fn is_exact(name: &str, sharded: bool) -> bool {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .is_some_and(|(_, _, kind)| match kind {
            Kind::Exact => true,
            Kind::ExactSingleCore => !sharded,
            Kind::Measured => false,
        })
}

/// The values of one run, by metric name. A metric nobody set stays at
/// zero with no samples: "not measured on this workload".
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, Summary)>,
}

impl Metrics {
    /// Records a metric's summary.
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.values.push((name, summary));
    }

    /// Records a single exact value.
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    /// The recorded summary, or zero with no samples.
    pub fn get(&self, name: &str) -> Summary {
        self.values.iter().rev().find(|(n, _)| *n == name).map_or(
            Summary {
                value: 0.0,
                iqr: 0.0,
                n: 0,
            },
            |(_, s)| *s,
        )
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds asked for (`--seconds`): the count scale.
    pub seconds: f64,
    /// `full` or `smoke`.
    pub mode: &'static str,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Mean factor from measured to reported time (see `clock.rs`).
    pub clock_scale: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The directory result files go to: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub(crate) fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (s(k), v)).collect())
}

/// The metrics of this run in declaration order: end-to-end ones for an
/// untraced run, per-layer ones for a traced run.
fn rows(metrics: &Metrics, trace: bool) -> Vec<(&'static str, &'static str, Summary)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n, u, metrics.get(n)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u, metrics.get(n)))
            .collect()
    }
}

/// Prints every metric by name with unit, sample count and spread.
pub fn print_metrics(metrics: &Metrics, p: &Provenance) {
    println!(
        "== {} (seed {}, {} s, {}, trace {}, clock scale {:.3}) ==",
        p.workload,
        p.seed,
        p.seconds,
        p.mode,
        if p.trace { "on" } else { "off" },
        p.clock_scale
    );
    for (name, unit, sum) in rows(metrics, p.trace) {
        if sum.n == 0 {
            println!(
                "  {name:<32} {:>16} {unit:<8} (not measured on this workload)",
                0
            );
        } else {
            println!(
                "  {name:<32} {:>16.4} {unit:<8} n={:<6} iqr={:.4}",
                sum.value, sum.n, sum.iqr
            );
        }
    }
}

/// The one-line result the driver reads: `correct`, `attempted`, `failed`
/// and every metric of this run with its unit.
pub fn result_line(metrics: &Metrics, p: &Provenance, attempted: u64, failed: u64) -> String {
    let ms = rows(metrics, p.trace)
        .into_iter()
        .map(|(name, unit, sum)| {
            (
                s(name),
                obj(vec![("value", Value::F(sum.value)), ("unit", s(unit))]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::U(u128::from(attempted))),
        ("failed", Value::U(u128::from(failed))),
        ("metrics", Value::Map(ms)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

/// Writes `out/<workload>.json` (or `<workload>.layers.json` for a traced
/// run): every metric with sample count and spread, and where the numbers
/// came from.
pub fn write_result(
    metrics: &Metrics,
    p: &Provenance,
    attempted: u64,
    failed: u64,
    messages: &[String],
) -> std::io::Result<PathBuf> {
    let ms = rows(metrics, p.trace)
        .into_iter()
        .map(|(name, unit, sum)| {
            (
                s(name),
                obj(vec![
                    ("value", Value::F(sum.value)),
                    ("unit", s(unit)),
                    ("samples", Value::U(sum.n as u128)),
                    ("iqr", Value::F(sum.iqr)),
                ]),
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = obj(vec![
        ("workload", s(p.workload)),
        ("mode", s(p.mode)),
        ("trace", Value::Bool(p.trace)),
        ("seed", Value::U(u128::from(p.seed))),
        ("seconds", Value::F(p.seconds)),
        ("clock_scale", Value::F(p.clock_scale)),
        ("host_cores", Value::U(cores as u128)),
        ("git_rev", s(&command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", s(&command_line("rustc", &["-V"]))),
        ("ops_attempted", Value::U(u128::from(attempted))),
        ("ops_failed", Value::U(u128::from(failed))),
        (
            "failures",
            Value::Seq(messages.iter().map(|m| s(m)).collect()),
        ),
        ("metrics", Value::Map(ms)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let suffix = if p.trace { ".layers" } else { "" };
    let path = dir.join(format!("{}{suffix}.json", p.workload));
    let text = serde_json::to_string_pretty(&doc).expect("a value tree serializes");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let top = doc.as_map().expect("object");
        let list = top
            .iter()
            .find(|(k, _)| *k == s(key))
            .map(|(_, v)| v)
            .expect("key present");
        let Value::Seq(items) = list else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m
                    .as_map()
                    .and_then(|e| e.iter().find(|(k, _)| *k == s(f)).map(|(_, v)| v.clone()))
                {
                    Some(Value::Str(t)) => t,
                    other => panic!("{f}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root and the tables here name
    /// the same metrics, in the same order, with the same units.
    #[test]
    fn metric_tables_mirror_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names(&doc, "end_to_end"),
            own(END_TO_END.iter().map(|m| (m.0, m.1)).collect())
        );
        assert_eq!(
            names(&doc, "per_layer"),
            own(PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
        );
        let workloads: Vec<String> = {
            let top = doc.as_map().expect("object");
            let Some((_, Value::Seq(ws))) = top.iter().find(|(k, _)| *k == s("workloads")) else {
                panic!("workloads")
            };
            ws.iter()
                .map(|w| match w.as_map().and_then(|e| e.first().cloned()) {
                    Some((_, Value::Str(n))) => n,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let top = doc.as_map().expect("object");
        let field = |v: &Value, key: &str| {
            v.as_map()
                .and_then(|m| m.iter().find(|(k, _)| *k == s(key)))
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            field(&doc, "run_seconds"),
            Some(Value::U(crate::DEFAULT_SECONDS as u128)),
            "the default --seconds is run_seconds"
        );
        let Some(Value::Seq(e2e)) = field(&doc, "end_to_end") else {
            panic!("end_to_end")
        };
        for (metric, own) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(metric, "bound"), Some(Value::F(own.2)), "{}", own.0);
        }
        assert!(!top.is_empty());
        let own_workloads: Vec<String> = crate::setup::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set_exact("fwd_pps", 1234.5);
        let p = Provenance {
            workload: "fwd_base",
            seed: 17,
            seconds: 1.0,
            mode: "smoke",
            trace: false,
            clock_scale: 1.0,
        };
        let line = result_line(&m, &p, 10, 0);
        assert!(!line.contains('\n'));
        let doc: Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<_> = doc
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"]
                .map(s)
                .to_vec()
        );
        assert!(
            line.contains(r#""fwd_pps":{"value":1234.5,"unit":"pkt/s"}"#),
            "{line}"
        );
        assert!(line.contains(r#""correct":true"#));
        assert!(is_exact("netpkt.allocs_per_pkt", false));
        assert!(!is_exact("netpkt.allocs_per_pkt", true));
        assert!(!is_exact("fwd_pps", false));
    }
}
