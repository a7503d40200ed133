//! `--smoke`: tiny inputs through every harness path in seconds, with a
//! self-check of the output against `BENCHMARK.json`.

use std::process::ExitCode;
use std::time::Instant;

use tmk_machines::Json;

use crate::child::{self, ChildResult};
use crate::workloads::{Tier, DEFAULT_SEED};

/// The benchmark's declaration, as the driver reads it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `section` of `BENCHMARK.json` declares.
pub fn declared(doc: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` array"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a `{section}` entry lacks a name or unit"))
        })
        .collect()
}

/// Every declared metric appears exactly once with a finite value and its
/// unit, and nothing undeclared appears.
fn check_metrics(got: &ChildResult, want: &[(String, String)]) -> Result<(), String> {
    for (name, unit) in want {
        let hits: Vec<_> = got.metrics.iter().filter(|m| m.name == *name).collect();
        match hits.as_slice() {
            [m] if m.value.is_finite() && m.unit == *unit => {}
            [m] => {
                return Err(format!(
                    "{name} = {} {}, declared in {unit}",
                    m.value, m.unit
                ))
            }
            _ => return Err(format!("{name} printed {} times", hits.len())),
        }
    }
    match got
        .metrics
        .iter()
        .find(|m| !want.iter().any(|(w, _)| *w == m.name))
    {
        Some(m) => Err(format!("{} is printed but not declared", m.name)),
        None => Ok(()),
    }
}

pub fn run() -> Result<ExitCode, String> {
    let started = Instant::now();
    let doc = Json::parse(BENCHMARK_JSON)?;
    let end_to_end = declared(&doc, "end_to_end")?;
    let per_layer = declared(&doc, "per_layer")?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `workloads` array")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload lacks a name")?;
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let got = child::measure(name, Tier::Tiny, DEFAULT_SEED, 0, trace)?;
            if !got.correct || got.failed != 0 || got.attempted == 0 {
                return Err(format!(
                    "{name}: {} of {} runs failed",
                    got.failed, got.attempted
                ));
            }
            check_metrics(&got, want)
                .map_err(|e| format!("{name} --trace {}: {e}", u8::from(trace)))?;
            println!(
                "smoke {name} --trace {}: {} runs, {} metrics ok",
                u8::from(trace),
                got.attempted,
                got.metrics.len()
            );
        }
    }
    println!(
        "smoke ok: {} workloads, {} end-to-end and {} per-layer metrics, {:.1} s",
        workloads.len(),
        end_to_end.len(),
        per_layer.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    fn result(metrics: &[(&str, f64, &str)]) -> ChildResult {
        ChildResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|&(n, v, u)| Metric::new(n, v, u))
                .collect(),
            detail: Json::Null,
        }
    }

    #[test]
    fn self_check_wants_each_declared_metric_once_and_nothing_else() {
        let want = vec![
            ("host_s".to_string(), "s".to_string()),
            ("peak_rss_mb".to_string(), "MB".to_string()),
        ];
        let ok = result(&[("host_s", 1.5, "s"), ("peak_rss_mb", 40.0, "MB")]);
        assert_eq!(check_metrics(&ok, &want), Ok(()));
        for (bad, why) in [
            (result(&[("host_s", 1.5, "s")]), "printed 0 times"),
            (
                result(&[
                    ("host_s", 1.5, "s"),
                    ("host_s", 1.5, "s"),
                    ("peak_rss_mb", 1.0, "MB"),
                ]),
                "printed 2 times",
            ),
            (
                result(&[("host_s", 1.5, "ms"), ("peak_rss_mb", 1.0, "MB")]),
                "declared in s",
            ),
            (
                result(&[("host_s", f64::NAN, "s"), ("peak_rss_mb", 1.0, "MB")]),
                "NaN",
            ),
            (
                result(&[
                    ("host_s", 1.5, "s"),
                    ("peak_rss_mb", 1.0, "MB"),
                    ("extra", 1.0, "s"),
                ]),
                "not declared",
            ),
        ] {
            let err = check_metrics(&bad, &want).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }
}
