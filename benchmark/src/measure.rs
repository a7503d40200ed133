//! The two measurements of one workload the driver contract asks for:
//! the untraced one that yields the end-to-end metrics, and the traced one
//! that yields every per-layer metric.
//!
//! Each runs in a process of its own. What was measured while sizing this
//! (README, "Noise") is why: a fresh process's first pass is slow, so one
//! untimed warm-up pass precedes the timed ones; anything that touches the
//! heap between passes moves the next pass, so the timed passes run back to
//! back in a process that does nothing else and the probes, the traced pass
//! and the JSON work live in the `--trace 1` process; and the host is
//! noisy, so the estimator is a minimum ([`Quietest`]).

use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::expected::{committed_cycles, crosscheck, Expected, RESULTS_DIR};
use crate::harness::{Pass, Quietest, Runner};
use crate::metrics::{Metric, COUNTS, END_TO_END, LEDGER, RUN};
use crate::probes::{self, Effort};
use crate::procfs;
use crate::spans::Recorder;
use crate::stats::summarize;
use crate::workloads::{RunSpec, Tier};
use tmk_machines::Json;

/// Where the span files go.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What one measurement produced: the contract's result line fields, plus
/// a detail record for humans and `--aa`.
pub struct Measured {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

/// Runs timed passes until `seconds` are used, rounding to the nearest
/// whole pass and never fewer than one.
fn timed_passes(
    runner: &mut Runner<'_>,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Vec<Pass> {
    // Room for every pass up front: the loop must not touch the heap.
    let mut passes: Vec<Pass> = Vec::with_capacity(256);
    let started = Instant::now();
    loop {
        passes.push(runner.pass("untraced", false, rec.as_deref_mut()));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes.len() as f64 >= seconds {
            return passes;
        }
    }
}

fn spread_json(values: &[f64]) -> Json {
    let s = summarize(values);
    Json::obj()
        .set("n", s.n)
        .set("min", s.min)
        .set("median", s.median)
        .set("max", s.max)
}

/// The untraced measurement: one warm-up pass, then timed passes for
/// `seconds`. `host_s` and `setup_s` are [`Quietest`] over the timed passes.
pub fn untraced(list: &[RunSpec], expected: &Expected, seconds: f64) -> Measured {
    let mut runner = Runner::new(list, |key| expected.get(key));
    let load_before = procfs::loadavg1();
    let warm_up = runner.pass("warm-up", false, None);
    let (cpu0, wall0) = (procfs::cpu_seconds(), Instant::now());
    let passes = timed_passes(&mut runner, seconds, None);
    let cpu_over_wall = (procfs::cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let peak_rss_mb = procfs::vm_hwm_mb();
    runner.check_oracle(false);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let quietest = Quietest::of(&passes);
    let detail = Json::obj()
        .set("warm_up_pass_s", warm_up.wall_s)
        .set("pass_s", spread_json(&walls))
        .set("cpu_over_wall", cpu_over_wall)
        .set("loadavg1_before", load_before)
        .set("loadavg1_after", procfs::loadavg1());
    let values = [quietest.host_s(), quietest.setup_s(), peak_rss_mb];
    Measured {
        attempted: runner.attempted(),
        failed: runner.failed(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| Metric::new(name, v, unit))
            .collect(),
        detail,
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The traced measurement, in a fresh process: a cold pass, untraced
/// passes for half of `seconds` (the baseline the other figures are
/// relative to), one traced pass with the counting allocator and the cycle
/// ledger on, then the isolated probes and the `results/` cross-check.
/// Spans around every pass and run go to `out/trace-<workload>.json`.
pub fn traced(
    workload: &str,
    list: &[RunSpec],
    expected: &Expected,
    tier: Tier,
    seconds: f64,
) -> Result<Measured, String> {
    let mut runner = Runner::new(list, |key| expected.get(key));
    let mut rec = Recorder::new(8 * (list.len() + 1));
    let root = rec.enter(format!("workload:{workload}"));
    let wall0 = Instant::now();
    let cold = runner.pass("cold", false, Some(&mut rec));
    let (cpu0, base_wall0) = (procfs::cpu_seconds(), Instant::now());
    let remaining = (seconds / 2.0 - wall0.elapsed().as_secs_f64()).max(0.0);
    let base = timed_passes(&mut runner, remaining, Some(&mut rec));
    let cpu_over_wall =
        (procfs::cpu_seconds() - cpu0) / base_wall0.elapsed().as_secs_f64().max(1e-9);
    let (tr, allocs) = alloc::counted(|| runner.pass("traced", true, Some(&mut rec)));
    rec.exit(root);
    runner.check_oracle(false);

    let traced_span = tr.span.expect("a recorded pass carries its span");
    let span_gap_frac = rec.self_seconds(traced_span) / rec.seconds(traced_span);
    if tier == Tier::Full && span_gap_frac >= 0.01 {
        eprintln!("WARNING run.span_gap_frac = {span_gap_frac:.4}: the pass did untracked work");
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let trace_file = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&trace_file, rec.chrome_trace()).map_err(|e| format!("{trace_file}: {e}"))?;

    let mut failed = runner.failed();
    let committed = committed_cycles(Path::new(RESULTS_DIR))?;
    let crosschecked = match crosscheck(runner.fingerprints(), &committed) {
        Ok(n) => n,
        Err(why) => {
            eprintln!("RESULTS {why}");
            failed += 1;
            0
        }
    };

    let counts = tr.counts.expect("a traced pass carries counts");
    let best = Quietest::of(&base);
    let host_ns = best.host_s() * 1e9;
    let cycles = counts.get("sim.cycles");
    let run_values = [
        best.engine_s(),
        best.setup_s(),
        cold.wall_s,
        cpu_over_wall,
        cycles as f64 / 1e6 / best.host_s(),
        ratio(host_ns, cycles),
        ratio(host_ns, counts.get("net.msgs")),
        ratio(host_ns, counts.get("core.notices_received")),
        ratio(host_ns, counts.get("mem.cache_accesses")),
        allocs.calls as f64 / 1e6,
        allocs.bytes as f64 / 1e9,
        span_gap_frac,
        tr.wall_s / best.host_s() - 1.0,
        crosschecked as f64,
    ];
    let mut metrics: Vec<Metric> = RUN
        .iter()
        .zip(run_values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();
    metrics.extend(
        COUNTS
            .iter()
            .zip(counts.counts)
            .map(|(name, v)| Metric::new(name, v as f64, "count")),
    );
    let ledger_total: u64 = counts.ledger.iter().sum();
    metrics.extend(
        LEDGER
            .iter()
            .zip(counts.ledger)
            .map(|(name, v)| Metric::new(name, ratio(v as f64, ledger_total), "fraction")),
    );

    // The JSON probes work on a committed record. The parser is quadratic in
    // document size (0.4 MB/s on fig01_08.json), so the tiny tier takes a
    // record a tenth the size.
    let (effort, record) = match tier {
        Tier::Full => (Effort::FULL, "fig01_08.json"),
        Tier::Tiny => (Effort::SMOKE, "table2.json"),
    };
    let record = format!("{RESULTS_DIR}/{record}");
    let doc = std::fs::read_to_string(&record).map_err(|e| format!("{record}: {e}"))?;
    metrics.extend(probes::run_all(effort, &doc));

    let per_run: Vec<Json> = list
        .iter()
        .zip(&best.runs)
        .map(|(spec, least)| {
            Json::obj()
                .set("key", spec.key.as_str())
                .set("host_s", least.host_s)
                .set("engine_s", least.engine_s)
                .set("setup_s", least.setup_s)
        })
        .collect();
    let detail = Json::obj()
        .set("baseline_passes", base.len())
        .set("runs", per_run)
        .set("traced_pass_s", tr.wall_s)
        .set("trace_file", trace_file.as_str());
    Ok(Measured {
        attempted: runner.attempted(),
        failed,
        metrics,
        detail,
    })
}
