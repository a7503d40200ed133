//! `--aa`: the benchmark measured against itself.
//!
//! Two sets of runs of identical code, A and B, must agree within the
//! bounds the benchmark claims — otherwise a later before/after comparison
//! means nothing. Every workload is measured `REPEATS` times per set, each
//! time in a fresh child process, the sets interleaved A B B A A B so that
//! the host's slow drift (README, "Noise") lands on both sides; repeat `r`
//! of either set uses seed `seed + r`. The gate is the driver's: the gap
//! between the two sets' medians, as a share of set A's, against the
//! metric's bound.

use std::process::ExitCode;

use tmk_machines::Json;

use crate::child;
use crate::measure::OUT_DIR;
use crate::metrics::END_TO_END;
use crate::procfs;
use crate::stats::summarize;
use crate::workloads::{Tier, WORKLOADS};

/// Measurements per set per workload.
const REPEATS: usize = 3;

/// A 1-minute load average above this before a run starts means something
/// else is running. The children themselves, back to back on one CPU, hold
/// it at 1.0, so the line sits above that.
const BUSY_LOADAVG: f64 = 1.25;

/// One child run of either set.
struct Sample {
    /// `END_TO_END` order.
    values: Vec<f64>,
    /// The host was busy before the run started, or the child did not get
    /// a whole CPU while timing.
    disturbed: bool,
}

fn sample(workload: &str, seed: u64, seconds: u64) -> Result<Sample, String> {
    let got = child::measure(workload, Tier::Full, seed, seconds, false)?;
    let values = END_TO_END
        .iter()
        .map(|(name, _, _)| {
            got.metric(name)
                .ok_or_else(|| format!("{workload}: no `{name}` in the result"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let detail = |k: &str| got.detail.get(k).and_then(Json::as_f64);
    let disturbed = detail("loadavg1_before").is_some_and(|l| l > BUSY_LOADAVG)
        || detail("cpu_over_wall").is_some_and(|c| c < 0.97);
    Ok(Sample { values, disturbed })
}

/// The gap between two sets' medians as a share of the first's.
pub fn median_gap(a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (summarize(a).median, summarize(b).median);
    (mb - ma) / ma
}

pub fn run(seed: u64, seconds: u64) -> Result<ExitCode, String> {
    let load_before = procfs::loadavg1();
    let mut rows = Vec::new();
    let mut all_pass = true;
    println!(
        "{:<11} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    for (workload, _) in WORKLOADS {
        let mut sets: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
        for r in 0..REPEATS {
            // A B, then B A, then A B: neither set always goes first.
            let order = if r % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                sets[set].push(sample(workload, seed + r as u64, seconds)?);
            }
        }
        let disturbed = sets.iter().flatten().filter(|s| s.disturbed).count();
        for (i, (metric, _, bound)) in END_TO_END.iter().enumerate() {
            let column = |set: &[Sample]| -> Vec<f64> { set.iter().map(|s| s.values[i]).collect() };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let gap = median_gap(&a, &b);
            let pass = gap.abs() <= *bound;
            all_pass &= pass;
            println!(
                "{workload:<11} {metric:<12} {:>12.4} {:>12.4} {:>+7.2}% {:>5.0}%  {}",
                summarize(&a).median,
                summarize(&b).median,
                gap * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
            rows.push(
                Json::obj()
                    .set("workload", workload)
                    .set("metric", *metric)
                    .set("a", a.into_iter().map(Json::Num).collect::<Vec<_>>())
                    .set("b", b.into_iter().map(Json::Num).collect::<Vec<_>>())
                    .set("gap", gap)
                    .set("bound", *bound)
                    .set("pass", pass)
                    .set("disturbed_runs", disturbed),
            );
        }
    }
    let environment = Json::obj()
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .set("loadavg1_before", load_before)
        .set("loadavg1_after", procfs::loadavg1())
        .set("commit", child::tool_output("git", &["rev-parse", "HEAD"]))
        .set("rustc", child::tool_output("rustc", &["--version"]))
        .set("engine", "coop")
        .set("seed", seed)
        .set("seconds", seconds)
        .set("repeats", REPEATS);
    let doc = Json::obj()
        .set("schema", "tmk-perfbench-aa/1")
        .set("pass", all_pass)
        .set("environment", environment)
        .set("pairs", rows);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let file = format!("{OUT_DIR}/aa.json");
    std::fs::write(&file, doc.render_pretty(1)).map_err(|e| format!("{file}: {e}"))?;
    println!(
        "A/A {}: record in {file}",
        if all_pass { "passes" } else { "FAILS" }
    );
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_to_the_first_sets_median() {
        assert!((median_gap(&[10.0, 12.0, 11.0], &[12.1, 11.0, 13.0]) - 0.1).abs() < 1e-12);
        assert!(median_gap(&[5.0], &[4.0]) < 0.0);
    }
}
