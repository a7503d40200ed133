//! `tmk-perfbench`: the host-performance benchmark of the tmk simulator.
//! See `README.md` beside this crate for the metric and workload catalogue.
//!
//! ```text
//! tmk-perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! tmk-perfbench --aa | --smoke | --write-expected
//! ```

mod aa;
mod alloc;
mod child;
mod expected;
mod harness;
mod measure;
mod metrics;
mod probes;
mod procfs;
mod smoke;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use expected::Expected;
use workloads::{run_list, Tier, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: the default length of one
/// measurement.
pub const RUN_SECONDS: u64 = 20;

const USAGE: &str = "\
usage: tmk-perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--tiny]
       tmk-perfbench --aa [--seed N] [--seconds N]
       tmk-perfbench --smoke
       tmk-perfbench --write-expected

  --workload NAME   hw_models | dsm_sync | dsm_scale | dsm_faults
  --seed N          input seed (default 1994): perturbs fault-plan and pedigree seeds
  --seconds N       how long to measure (default 20)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics
  --tiny            seconds-long inputs (what --smoke runs)
  --aa              measure every workload twice (A/B/B/A) and gate the gaps on the bounds
  --smoke           tiny inputs through every harness path, with an output self-check
  --write-expected  regenerate benchmark/expected.json from this build";

#[derive(Debug, PartialEq)]
enum Mode {
    Workload { name: String, trace: bool },
    Aa,
    Smoke,
    WriteExpected,
}

#[derive(Debug, PartialEq)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: u64,
    tier: Tier,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut seed, mut seconds, mut tier) = (DEFAULT_SEED, RUN_SECONDS, Tier::Full);
    let (mut workload, mut trace) = (None, false);
    let mut modes = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => seed = number(value("a number")?)?,
            "--seconds" => seconds = number(value("a number")?)?,
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => tier = Tier::Tiny,
            "--aa" => modes.push(Mode::Aa),
            "--smoke" => modes.push(Mode::Smoke),
            "--write-expected" => modes.push(Mode::WriteExpected),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = workload {
        if !WORKLOADS.iter().any(|(w, _)| *w == name) {
            return Err(format!("unknown workload `{name}`"));
        }
        modes.push(Mode::Workload { name, trace });
    }
    match <[Mode; 1]>::try_from(modes) {
        Ok([mode]) => Ok(Cli {
            mode,
            seed,
            seconds,
            tier,
        }),
        Err(_) => {
            Err("give exactly one of --workload, --aa, --smoke, --write-expected".to_string())
        }
    }
}

/// One workload, one trace setting: the driver contract's command. Prints
/// a `detail` line for humans and `--aa`, then the result line last.
fn run_workload(name: &str, trace: bool, cli: &Cli) -> Result<ExitCode, String> {
    let list = run_list(name, cli.tier, cli.seed).expect("workload names are checked at parse");
    let expected = Expected::committed();
    let seconds = cli.seconds as f64;
    let m = if trace {
        measure::traced(name, &list, &expected, cli.tier, seconds)?
    } else {
        measure::untraced(&list, &expected, seconds)
    };
    let detail = m
        .detail
        .set("workload", name)
        .set("seed", cli.seed)
        .set("runs_per_pass", list.len());
    println!("detail {}", detail.render());
    println!(
        "{}",
        metrics::result_line(m.attempted, m.failed, &m.metrics)
    );
    Ok(if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("tmk-perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.mode {
        Mode::Workload { name, trace } => run_workload(name, *trace, &cli),
        Mode::Aa => aa::run(cli.seed, cli.seconds),
        Mode::Smoke => smoke::run(),
        Mode::WriteExpected => expected::regenerate(),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("tmk-perfbench: {why}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse(&[
            "--workload",
            "dsm_sync",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            cli,
            Cli {
                mode: Mode::Workload {
                    name: "dsm_sync".into(),
                    trace: true
                },
                seed: 7,
                seconds: 20,
                tier: Tier::Full,
            }
        );
        assert_eq!(parse(&["--smoke"]).unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--trace", "2", "--workload", "dsm_sync"],
            &["--seed", "x", "--smoke"],
            &["--aa", "--smoke"],
            &[],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_restates_the_catalogue() {
        use tmk_machines::Json;
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |section: &str| smoke::declared(&doc, section).unwrap();
        let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            own(metrics::END_TO_END
                .iter()
                .map(|&(n, u, _)| (n, u))
                .collect())
        );
        let mut per_layer: Vec<(&str, &str)> = metrics::RUN.to_vec();
        per_layer.extend(metrics::COUNTS.iter().map(|&n| (n, "count")));
        per_layer.extend(metrics::LEDGER.iter().map(|&n| (n, "fraction")));
        per_layer.extend(metrics::PROBES);
        assert_eq!(names("per_layer"), own(per_layer));
        for (m, (_, _, bound)) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(metrics::END_TO_END)
        {
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(w, _)| w.to_string()));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
    }
}
