//! How an experiment is declared: a section plans its runs once, gets a
//! [`Run`] handle per request, and its renderer reads the results back by
//! handle — so a renderer cannot ask for a run nobody scheduled.

use tmk_machines::{DsmTuning, Platform, RunReport};

use super::jobs::{JobRequest, JobResult, MemoTable, RunData};
use super::workload::{tsp, water, WorkloadSpec};
use super::Tier;

/// Handle to one run a section planned; only that section's renderer can
/// redeem it (through [`Ctx`]).
#[derive(Debug, Clone, Copy)]
pub struct Run(usize);

/// The run list of a section under construction.
#[derive(Debug, Default)]
pub struct Plan {
    requests: Vec<JobRequest>,
}

impl Plan {
    /// Schedules `request`. Equal requests memoize into one simulation, so
    /// planning a shared baseline again costs nothing.
    pub fn add(&mut self, request: JobRequest) -> Run {
        self.requests.push(request);
        Run(self.requests.len() - 1)
    }

    /// Schedules `workload` on `platform`.
    pub fn run(&mut self, platform: Platform, workload: &WorkloadSpec) -> Run {
        self.add(JobRequest::new(platform, workload.clone()))
    }
}

/// Render-time access to a section's memoized results.
pub struct Ctx<'a> {
    pub(super) memo: &'a MemoTable,
    /// Memo key of each planned request, indexed by [`Run`].
    pub(super) keys: &'a [String],
}

impl Ctx<'_> {
    /// The job record for `run` (even a failed one).
    pub fn job(&self, run: Run) -> &JobResult {
        &self.memo.map[&self.keys[run.0]]
    }

    /// The run data for `run`; failed runs surface as errors.
    pub fn data(&self, run: Run) -> Result<&RunData, String> {
        let job = self.job(run);
        job.data
            .as_ref()
            .map_err(|e| format!("run {} failed: {e}", job.key))
    }

    /// The measurement report for `run`.
    pub fn report(&self, run: Run) -> Result<&RunReport, String> {
        Ok(&self.data(run)?.report)
    }

    /// Whole-run simulated seconds.
    pub fn secs(&self, run: Run) -> Result<f64, String> {
        Ok(self.report(run)?.seconds())
    }

    /// Steady-state-window simulated seconds.
    pub fn wsecs(&self, run: Run) -> Result<f64, String> {
        Ok(self.report(run)?.window_seconds())
    }
}

pub(super) type Render = Box<dyn Fn(&Ctx) -> Result<String, String> + Send + Sync>;

/// A filterable unit of an experiment: the runs it needs plus the renderer
/// that turns them into text.
pub struct Section {
    /// Section id within the experiment ("" for single-section
    /// experiments).
    pub id: &'static str,
    /// The simulations this section consumes.
    pub requests: Vec<JobRequest>,
    pub(super) render: Render,
}

impl Section {
    /// Builds a section: `build` plans the runs and returns the renderer
    /// holding their handles.
    pub fn plan(id: &'static str, build: impl FnOnce(&mut Plan) -> Render) -> Self {
        let mut plan = Plan::default();
        let render = build(&mut plan);
        Section {
            id,
            requests: plan.requests,
            render,
        }
    }
}

/// One experiment: a header plus sections.
pub struct Experiment {
    /// Experiment id (`table1`, `fig01_08`, ...), also the output filename
    /// stem.
    pub id: &'static str,
    /// One-line description for `--list`.
    pub title: &'static str,
    /// Whether the default (no `--experiment`) selection includes it.
    pub default: bool,
    /// Text printed once before the selected sections.
    pub header: Option<String>,
    /// The sections, in print order.
    pub sections: Vec<Section>,
}

impl Experiment {
    /// `exp` or `exp/section` display name.
    pub fn section_name(&self, section: &Section) -> String {
        section_name(self.id, section.id)
    }
}

pub(super) fn section_name(experiment: &str, section: &str) -> String {
    if section.is_empty() {
        experiment.to_string()
    } else {
        format!("{experiment}/{section}")
    }
}

// Platforms and workload sets several experiment families spell.

/// The simulated AS design with DSM knobs.
pub(super) fn as_with(procs: usize, tuning: DsmTuning) -> Platform {
    Platform::AsCluster {
        procs,
        part1: false,
        so: None,
        tuning,
    }
}

/// The Part-1 TreadMarks cluster with DSM knobs.
pub(super) fn tmk_with(procs: usize, tuning: DsmTuning) -> Platform {
    Platform::AsCluster {
        procs,
        part1: true,
        so: None,
        tuning,
    }
}

/// SOR on the tier's standard grid (1024×1024, or the tiny one).
pub(super) fn sor(tier: Tier) -> WorkloadSpec {
    match tier {
        Tier::Full => WorkloadSpec::SorSmall,
        Tier::Quick => WorkloadSpec::SorTiny,
    }
}

/// The simulation study's three applications — (section id, display name,
/// workload) for SOR, TSP and M-Water, in Figure 9–11 order.
pub(super) fn part2_apps(tier: Tier) -> [(&'static str, &'static str, WorkloadSpec); 3] {
    let quick = tier == Tier::Quick;
    let names = match tier {
        Tier::Full => ["SOR 1024x1024", "TSP 18 cities", "M-Water 288 molecules"],
        Tier::Quick => ["SOR tiny", "TSP 10 cities", "M-Water tiny"],
    };
    [
        ("sor", names[0], sor(tier)),
        ("tsp", names[1], tsp(if quick { 10 } else { 18 })),
        ("mwater", names[2], water(true, quick)),
    ]
}
