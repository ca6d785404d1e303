//! `wirebench --compare FILE...`: medians and spreads of saved results.
//!
//! Reads result files (`.wirebench/results/*.json`), groups them by
//! workload, program version (source digest) and `--trace`, and prints
//! each metric's median, quartiles and spread (interquartile range over
//! median) per group. When two program versions are present it also
//! prints the change of the median as a share of the first version's.
//!
//! Results measured on differing hosts (CPU count or model) are flagged
//! and not compared at all: exit code 3.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value;

use crate::stats;

/// Exit code when the results come from more than one host.
pub const CROSS_HOST: i32 = 3;

struct Loaded {
    host: String,
    group: (String, String, bool),
    metrics: Vec<(String, f64)>,
}

fn load(path: &PathBuf) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
    let text_of = |v: Value| match v {
        Value::String(s) => s,
        other => format!("{other:?}"),
    };
    let prov = field(&v, "provenance");
    let host = format!(
        "{} x {}",
        text_of(field(&prov, "nproc")),
        text_of(field(&prov, "cpu_model"))
    );
    let group = (
        text_of(field(&v, "workload")),
        text_of(field(&prov, "source_digest")),
        field(&v, "trace") == Value::Bool(true),
    );
    let Value::Object(entries) = field(&field(&v, "result"), "metrics") else {
        return Err(format!("{}: no metrics", path.display()));
    };
    let metrics = entries
        .into_iter()
        .filter_map(|(name, m)| match m.get("value")? {
            Value::Float(x) => Some((name, *x)),
            Value::Int(x) => Some((name, *x as f64)),
            _ => None,
        })
        .collect();
    Ok(Loaded {
        host,
        group,
        metrics,
    })
}

/// Prints the comparison; returns the process exit code.
///
/// # Errors
/// When a file cannot be read or parsed.
pub fn run(paths: &[PathBuf]) -> Result<i32, String> {
    let loaded = paths.iter().map(load).collect::<Result<Vec<_>, _>>()?;
    let mut hosts: Vec<&str> = loaded.iter().map(|l| l.host.as_str()).collect();
    hosts.sort_unstable();
    hosts.dedup();
    if hosts.len() > 1 {
        println!(
            "FLAGGED: results come from {} hosts; not compared:",
            hosts.len()
        );
        for h in hosts {
            println!("  {h}");
        }
        return Ok(CROSS_HOST);
    }
    // (workload, trace) -> digest -> metric -> values
    type ByMetric = BTreeMap<String, Vec<f64>>;
    let mut groups: BTreeMap<(String, bool), BTreeMap<String, ByMetric>> = BTreeMap::new();
    for l in loaded {
        let (workload, digest, trace) = l.group;
        let by_metric = groups
            .entry((workload, trace))
            .or_default()
            .entry(digest)
            .or_default();
        for (name, value) in l.metrics {
            by_metric.entry(name).or_default().push(value);
        }
    }
    for ((workload, trace), versions) in &groups {
        println!("{workload} (trace {}):", u8::from(*trace));
        let first = versions.values().next().cloned().unwrap_or_default();
        for (i, (digest, metrics)) in versions.iter().enumerate() {
            println!("  source {digest}");
            for (name, values) in metrics {
                let median = stats::median(values).unwrap_or(f64::NAN);
                let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
                let base = stats::median(first.get(name).map_or(&[][..], Vec::as_slice));
                let change = match base {
                    Some(base) if i > 0 => {
                        format!("  change {:+.1}%", (median - base) / base * 100.0)
                    }
                    _ => String::new(),
                };
                println!(
                    "    {name:32} n={:<3} median {median:<14.6} q1 {q1:<14.6} q3 {q3:<14.6} \
                     spread {:.3}{change}",
                    values.len(),
                    (q3 - q1) / median
                );
            }
        }
    }
    Ok(0)
}
