//! Running one measurement in a child process of this same executable.
//!
//! `--aa` and `--smoke` are drivers over the contract command: each
//! workload gets a fresh process, exactly as the driver gives it one, so
//! warm-up, heap state and `VmHWM` belong to that workload alone. One
//! child runs at a time (this host has two CPUs), and each is waited for.

use std::process::{Command, Stdio};

use tmk_machines::Json;

use crate::metrics::Metric;
use crate::workloads::Tier;

/// What `tool args..` prints, trimmed, or `"unknown"` when it cannot be run
/// — for the records (`git rev-parse HEAD`, `rustc --version`), which must
/// not fail in a checkout that is not a repository.
pub fn tool_output(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a child printed: its result line and its `detail` line.
#[derive(Debug)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In print order.
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

impl ChildResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Parses a result line of the driver contract.
pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = Json::parse(line)?;
    let Json::Obj(pairs) = &doc else {
        return Err("result line is not an object".to_string());
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    let count = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`{k}` is not a whole number"))
    };
    let Some(Json::Bool(correct)) = doc.get("correct") else {
        return Err("`correct` is not a boolean".to_string());
    };
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("`metrics` is not an object".to_string());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok(Metric::new(name, v, u)),
                _ => Err(format!("metric `{name}` lacks a numeric value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        correct: *correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        detail: Json::Null,
    })
}

/// Runs `--workload <workload> --seed .. --seconds .. --trace ..` in a child
/// and returns what it printed. A child that exits non-zero is an error
/// carrying its result line, if it printed one.
pub fn measure(
    workload: &str,
    tier: Tier,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if tier == Tier::Tiny {
        cmd.arg("--tiny");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {last}",
            u8::from(trace),
            out.status
        ));
    }
    let mut result = parse_result_line(last).map_err(|e| format!("{workload}: {e}"))?;
    if let Some(detail) = stdout.lines().rev().find_map(|l| l.strip_prefix("detail ")) {
        result.detail = Json::parse(detail)?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::result_line;

    #[test]
    fn result_lines_round_trip() {
        let metrics = vec![
            Metric::new("host_s", 5.106656157, "s"),
            Metric::new("peak_rss_mb", 48.640625, "MB"),
        ];
        let parsed = parse_result_line(&result_line(20, 0, &metrics)).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (20, 0));
        assert_eq!(parsed.metrics, metrics);
        assert_eq!(parsed.metric("host_s"), Some(5.106656157));
        assert_eq!(parsed.metric("nope"), None);
        let failed = parse_result_line(&result_line(20, 3, &[])).unwrap();
        assert!(!failed.correct && failed.metrics.is_empty());
    }

    #[test]
    fn malformed_result_lines_are_refused() {
        for bad in [
            "",
            "[]",
            "{\"correct\":true}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{},\"extra\":1}",
            "{\"correct\":1,\"attempted\":1,\"failed\":0,\"metrics\":{}}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"x\":{\"value\":1.5}}}",
        ] {
            assert!(parse_result_line(bad).is_err(), "{bad}");
        }
    }
}
