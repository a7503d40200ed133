//! The declarative experiment driver: one registry describes every table,
//! figure and ablation of the case study, one scheduler runs the underlying
//! simulations across host cores, and one renderer turns the memoized
//! results into the text tables and JSON records under `results/`.
//!
//! Structure:
//!
//! * [`WorkloadSpec`] — a declarative workload identity (app + input),
//!   cheap to clone and hash, instantiated only inside a job.
//! * [`JobRequest`] — (platform, workload, instance) with a stable
//!   [`JobRequest::key`]; equal keys are interchangeable runs, so repeated
//!   baselines (the DEC uniprocessor time appears in Table 1 and all eight
//!   of Figures 1–8) simulate **once** and memoize.
//! * [`run_jobs`] — fans unique jobs across `jobs` scoped worker
//!   threads, executed as its [`RunOpts`] says; each job runs under
//!   `catch_unwind` so a panicking simulation becomes a failed record, not
//!   a dead sweep, and records host wall time.
//! * [`Section::plan`] — how a section is declared: it plans its runs on a
//!   [`Plan`], keeps the [`Run`] handles, and its renderer reads the results
//!   back through them ([`Ctx`]), so run list and renderer cannot disagree.
//! * [`registry`] — the experiments, one module per family (`paper`,
//!   `ablations`, `faults`, `analysis`, `scaling`, `service`); the text is
//!   byte-identical to the historical per-binary output on the
//!   [`Tier::Full`] tier.
//! * [`run_suite`] — selection (`--experiment`, `--filter`), scheduling,
//!   rendering, and the `BENCH_results.json` / `results/*.json` records.
//!
//! The `suite` binary exposes the CLI.

mod ablations;
mod analysis;
mod faults;
mod jobs;
mod paper;
mod plan;
mod scaling;
mod service;
mod workload;

use std::fmt::Write as _;

use tmk_machines::{Json, RunOpts};
use tmk_sim::EngineKind;
use tmk_trace::{Category, NCAT};

pub use jobs::{
    resolve_jobs, run_jobs, sim_record, JobRequest, JobResult, MemoTable, Progress, RunData,
    TraceData,
};
pub use plan::{Ctx, Experiment, Plan, Run, Section};
pub use workload::{ServiceSpec, WorkloadSpec};

/// The `schema` of `BENCH_results.json` and every `results/<id>.json`
/// (DESIGN.md §3).
const SCHEMA: &str = "tmk-bench/2";

/// Which scale of inputs the registry instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Paper-scale inputs and processor counts (the `results/` files).
    #[default]
    Full,
    /// Tiny inputs at 1–4 processors: the CI smoke tier.
    Quick,
}

impl Tier {
    /// Lowercase name for records.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Quick => "quick",
        }
    }
}

/// Every experiment of the case study at the given tier, in print order.
pub fn registry(tier: Tier) -> Vec<Experiment> {
    vec![
        paper::table1(tier),
        paper::table2(tier),
        paper::fig01_08(tier),
        paper::fig09_11(tier),
        paper::fig12_13(tier),
        paper::fig14_16(tier),
        ablations::ablations(tier),
        faults::chaos(tier),
        faults::recovery(tier),
        analysis::breakdown(tier),
        scaling::scaling(tier),
        scaling::scaling256(tier),
        service::service(tier),
        analysis::calibrate(tier),
    ]
}

/// What to run and how, resolved from CLI flags.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Input scale: `Full` reproduces the paper, `Quick` is the CI smoke tier.
    pub tier: Tier,
    /// Worker threads; 0 means one per host core.
    pub jobs: usize,
    /// Experiment ids to run; empty means every default experiment.
    pub experiments: Vec<String>,
    /// Substring filters over full `experiment/section` names.
    pub filters: Vec<String>,
    /// Directory for Chrome trace-event JSON files; also switches traced
    /// runs from ledger-only to full event recording.
    pub trace_dir: Option<String>,
    /// Kept for `benchmark/`, which sets it; goes in the next `[benchmark]` PR.
    pub engine: EngineKind,
    /// Directory for engine op-trace text files (`suite --op-trace`); also
    /// arms op tracing on every run.
    pub op_trace_dir: Option<String>,
    /// Report each finished run on stderr (`suite --progress`).
    pub progress: Option<Progress>,
}

/// One section after rendering.
#[derive(Debug)]
pub struct SectionOutcome {
    /// Full `experiment/section` name.
    pub name: String,
    /// Memo keys of the runs this section consumed.
    pub keys: Vec<String>,
    /// Why rendering failed, if it did (a failed run or a violated check).
    pub error: Option<String>,
}

/// One experiment after rendering.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Experiment id (`"table1"`, `"fig01_08"`, ...).
    pub id: &'static str,
    /// The rendered text, byte-compatible with the former per-binary output.
    pub text: String,
    /// Per-section outcomes in print order.
    pub sections: Vec<SectionOutcome>,
}

/// Everything a suite run produced.
#[derive(Debug)]
pub struct SuiteResult {
    /// Tier the suite ran at.
    pub tier: Tier,
    /// Worker threads used.
    pub jobs: usize,
    /// Rendered experiments in registry order.
    pub experiments: Vec<ExperimentOutcome>,
    /// Every unique run, sorted by memo key.
    pub runs: Vec<JobResult>,
    /// Total job requests before memoization.
    pub requests: usize,
    /// Requests answered from the memo table.
    pub memo_hits: usize,
    /// Host wall-clock for the whole suite, milliseconds.
    pub wall_ms: f64,
}

impl SuiteResult {
    /// Memo keys of runs whose workload failed (panicked).
    pub fn failed_runs(&self) -> Vec<&str> {
        self.runs
            .iter()
            .filter(|r| r.data.is_err())
            .map(|r| r.key.as_str())
            .collect()
    }

    /// Names of sections whose render reported an error.
    pub fn failed_sections(&self) -> Vec<&str> {
        self.experiments
            .iter()
            .flat_map(|e| e.sections.iter())
            .filter(|s| s.error.is_some())
            .map(|s| s.name.as_str())
            .collect()
    }

    /// True when every run and every section succeeded.
    pub fn ok(&self) -> bool {
        self.failed_runs().is_empty() && self.failed_sections().is_empty()
    }

    /// The machine-readable suite summary (`BENCH_results.json`).
    pub fn bench_json(&self) -> Json {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Json::obj()
            .set("schema", SCHEMA)
            .set("tier", self.tier.as_str())
            .set("jobs", self.jobs)
            .set("host_parallelism", host)
            .set(
                "experiments",
                Json::Arr(self.experiments.iter().map(|e| Json::from(e.id)).collect()),
            )
            .set("requests", self.requests)
            .set("unique_runs", self.runs.len())
            .set("memo_hits", self.memo_hits)
            .set(
                "failed_runs",
                Json::Arr(self.failed_runs().into_iter().map(Json::from).collect()),
            )
            .set(
                "failed_sections",
                Json::Arr(self.failed_sections().into_iter().map(Json::from).collect()),
            )
            .set(
                "total_host_ms",
                self.runs.iter().map(|r| r.host_ms).sum::<f64>(),
            )
            .set("wall_ms", self.wall_ms)
            .set("runs", Json::Arr(self.runs.iter().map(run_json).collect()))
    }

    /// The machine-readable record for one experiment (`results/<id>.json`).
    pub fn experiment_json(&self, id: &str) -> Option<Json> {
        let exp = self.experiments.iter().find(|e| e.id == id)?;
        let mut keys: Vec<&str> = exp
            .sections
            .iter()
            .flat_map(|s| s.keys.iter().map(String::as_str))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let runs: Vec<Json> = self
            .runs
            .iter()
            .filter(|r| keys.binary_search(&r.key.as_str()).is_ok())
            .map(run_json)
            .collect();
        Some(
            Json::obj()
                .set("schema", SCHEMA)
                .set("experiment", exp.id)
                .set("tier", self.tier.as_str())
                .set(
                    "sections",
                    Json::Arr(
                        exp.sections
                            .iter()
                            .map(|s| {
                                let mut j = Json::obj()
                                    .set("name", s.name.as_str())
                                    .set("status", if s.error.is_none() { "ok" } else { "failed" });
                                if let Some(e) = &s.error {
                                    j = j.set("error", e.as_str());
                                }
                                j.set(
                                    "runs",
                                    Json::Arr(
                                        s.keys.iter().map(|k| Json::from(k.as_str())).collect(),
                                    ),
                                )
                            })
                            .collect(),
                    ),
                )
                .set("runs", Json::Arr(runs)),
        )
    }
}

fn run_json(r: &JobResult) -> Json {
    let j = Json::obj()
        .set("key", r.key.as_str())
        .set("platform", r.platform.as_str())
        .set("platform_name", r.platform_name)
        .set("workload", r.workload.as_str())
        .set("params", r.params.as_str())
        .set("procs", r.procs)
        .set("status", if r.data.is_ok() { "ok" } else { "failed" })
        .set("host_ms", r.host_ms);
    match &r.data {
        Ok(d) => j
            .set("checksum", d.checksums.iter().sum::<f64>())
            .set("report", d.report.to_json())
            // A service run has no simulated cycles, so no ledger to show.
            .set(
                "breakdown",
                d.trace
                    .as_ref()
                    .filter(|_| d.report.service.is_none())
                    .map(breakdown_json),
            ),
        Err(e) => j.set("error", e.as_str()),
    }
}

/// A traced run's cycle attribution: run totals per category, then
/// `per_proc` rows of [`NCAT`] columns in [`Category::ALL`] order.
fn breakdown_json(tr: &TraceData) -> Json {
    let mut totals = [0u64; NCAT];
    for row in &tr.breakdown {
        for (t, v) in totals.iter_mut().zip(row) {
            *t += *v;
        }
    }
    let b = Category::ALL
        .iter()
        .zip(totals)
        .fold(Json::obj(), |b, (cat, total)| b.set(cat.name(), total));
    b.set(
        "per_proc",
        Json::Arr(
            tr.breakdown
                .iter()
                .map(|row| Json::Arr(row.iter().map(|&v| Json::UInt(v)).collect()))
                .collect(),
        ),
    )
}

/// Run the selected experiments: expand the registry, schedule every request
/// across `opts.jobs` workers with memoization, then render each section.
///
/// Returns `Err` only for unusable options (an unknown experiment id); runs
/// that panic or sections that fail to render are captured in the result, not
/// fatal.
pub fn run_suite(opts: &Options) -> Result<SuiteResult, String> {
    let started = std::time::Instant::now();
    let mut registry = registry(opts.tier);
    let known: Vec<&str> = registry.iter().map(|e| e.id).collect();
    for id in &opts.experiments {
        if !known.contains(&id.as_str()) {
            return Err(format!(
                "unknown experiment '{id}' (known: {})",
                known.join(", ")
            ));
        }
    }
    registry.retain(|e| {
        if opts.experiments.is_empty() {
            e.default
        } else {
            opts.experiments.iter().any(|id| id == e.id)
        }
    });

    // Select sections, then drop experiments left empty.
    for exp in &mut registry {
        let exp_id = exp.id;
        exp.sections.retain(|sec| {
            let name = plan::section_name(exp_id, sec.id);
            opts.filters.is_empty() || opts.filters.iter().any(|f| name.contains(f.as_str()))
        });
    }
    registry.retain(|e| !e.sections.is_empty());

    let requests: Vec<JobRequest> = registry
        .iter()
        .flat_map(|e| e.sections.iter())
        .flat_map(|s| s.requests.iter().cloned())
        .collect();
    let total_requests = requests.len();
    let jobs = resolve_jobs(opts.jobs);
    let run_opts = RunOpts {
        // Event rings are only worth their memory when someone will read
        // the events; without --trace the ledger alone is kept.
        trace: opts.trace_dir.is_some().then_some(1 << 16),
        op_trace: opts.op_trace_dir.is_some(),
    };
    let memo = run_jobs(&requests, jobs, &run_opts, opts.progress.as_ref());

    let mut experiments = Vec::new();
    for exp in &registry {
        let mut text = String::new();
        if let Some(h) = &exp.header {
            text.push_str(h);
        }
        let mut sections = Vec::new();
        for sec in &exp.sections {
            let name = exp.section_name(sec);
            let mut keys: Vec<String> = sec.requests.iter().map(JobRequest::key).collect();
            let rendered = (sec.render)(&Ctx {
                memo: &memo,
                keys: &keys,
            });
            keys.sort_unstable();
            keys.dedup();
            let error = match rendered {
                Ok(s) => {
                    text.push_str(&s);
                    None
                }
                Err(e) => {
                    let _ = writeln!(text, "!! {name}: {e}");
                    Some(e)
                }
            };
            sections.push(SectionOutcome { name, keys, error });
        }
        experiments.push(ExperimentOutcome {
            id: exp.id,
            text,
            sections,
        });
    }

    Ok(SuiteResult {
        tier: opts.tier,
        jobs,
        experiments,
        runs: memo.sorted_runs().into_iter().cloned().collect(),
        requests: total_requests,
        memo_hits: memo.hits,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}
