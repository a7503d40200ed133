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
//! * [`run_jobs`] — fans unique jobs across `jobs` crossbeam scoped worker
//!   threads; each job runs under `catch_unwind` so a panicking simulation
//!   becomes a failed record, not a dead sweep, and records host wall time.
//! * [`registry`] — the experiments; each section lists its requests and
//!   renders its text from the memo table, byte-identical to the historical
//!   per-binary output on the [`Tier::Full`] tier.
//! * [`run_suite`] — selection (`--experiment`, `--filter`), scheduling,
//!   rendering, and the `BENCH_results.json` / `results/*.json` records.
//!
//! The `suite` binary exposes the CLI.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tmk_apps::{ilink, sor, tsp, water};
use tmk_core::RetransmitPolicy;
use tmk_machines::{
    run_workload_traced, set_engine_kind, set_op_trace, DsmProtocol, DsmTuning, Json, Outcome,
    Platform, RunReport,
};
use tmk_net::{FaultPlan, SoftwareOverhead};
use tmk_parmacs::Workload;
use tmk_sim::{Cycle, EngineKind};
use tmk_trace::{Category, TraceBuf, NCAT};

use crate::fmt_secs;

/// Which scale of inputs the registry instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Paper-scale inputs and processor counts (the `results/` files).
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

/// A declarative workload identity: which application on which input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// ILINK on the CLP-like pedigree.
    IlinkClp,
    /// ILINK on the BAD-like pedigree.
    IlinkBad,
    /// ILINK on the tiny test pedigree.
    IlinkTiny,
    /// SOR 2048×2048 (the GC-scaling grid).
    SorHuge,
    /// SOR 2048×1024.
    SorLarge,
    /// SOR 1024×1024.
    SorSmall,
    /// SOR on the tiny test grid.
    SorTiny,
    /// SOR with the all-changing interior (§2.4.2 ablation); tiny selects
    /// the test grid instead of 1024×1024.
    SorAllChanging {
        /// Use the tiny grid.
        tiny: bool,
    },
    /// TSP with `cities` cities.
    Tsp {
        /// City count.
        cities: usize,
    },
    /// Water (original or M-Water); tiny selects the 24-molecule input.
    Water {
        /// M-Water (per-molecule accumulated updates) instead of the
        /// original lock-per-update program.
        modified: bool,
        /// Use the tiny input.
        tiny: bool,
    },
    /// The multi-tenant DSM service on the real-thread runtime
    /// (`tmk_core::service`): tenants multiplexed over one long-lived
    /// cluster with crash recovery armed. The simulated platform of the
    /// request is ignored beyond its processor count.
    Service(ServiceSpec),
    /// A job that always panics — exercises the scheduler's per-job
    /// isolation in tests.
    #[doc(hidden)]
    PanicProbe,
}

/// Identity of one service run: every knob is an integer (rates in
/// per-mille) so the spec derives `Eq` for memoization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpec {
    /// DSM nodes in the long-lived cluster.
    pub nodes: usize,
    /// Concurrent tenant applications.
    pub tenants: usize,
    /// Run only this tenant: the fault-free solo baseline.
    pub solo: Option<usize>,
    /// Shared slots per tenant.
    pub keys: usize,
    /// Open-loop generation horizon in admission windows.
    pub windows: u64,
    /// Mean arrivals per tenant per window.
    pub offered: u64,
    /// Bounded per-tenant queue depth.
    pub queue_cap: usize,
    /// Cluster-wide admissions per window.
    pub batch_cap: usize,
    /// Client-plan seed.
    pub seed: u64,
    /// Per-copy channel drop probability, per-mille.
    pub drop_pm: u64,
    /// Per-copy channel delay probability, per-mille (200 µs holds).
    pub delay_pm: u64,
    /// Schedule the canonical crash (node 1, epoch 1, first operation).
    pub crash: bool,
}

impl ServiceSpec {
    fn config(&self) -> tmk_core::service::ServiceConfig {
        tmk_core::service::ServiceConfig {
            nodes: self.nodes,
            tenants: self.tenants,
            keys_per_tenant: self.keys,
            windows: self.windows,
            window_us: 1_000,
            offered_per_window: self.offered,
            zipf_milli: 900,
            queue_cap: self.queue_cap,
            batch_cap: self.batch_cap,
            seed: self.seed,
            solo: self.solo,
        }
    }

    fn faults(&self) -> tmk_core::runtime::ChannelFaults {
        let mut f = tmk_core::runtime::ChannelFaults::seeded(self.seed ^ 0xfa17);
        if self.drop_pm > 0 {
            f = f.drop_rate(self.drop_pm as f64 / 1000.0);
        }
        if self.delay_pm > 0 {
            f = f.delay_rate(self.delay_pm as f64 / 1000.0, 200);
        }
        if self.crash {
            f = f.crash(1 % self.nodes, 1, 1);
        }
        f
    }
}

impl WorkloadSpec {
    /// Stable identity fragment for memo keys.
    pub fn id(&self) -> String {
        match self {
            WorkloadSpec::IlinkClp => "ilink-clp".to_string(),
            WorkloadSpec::IlinkBad => "ilink-bad".to_string(),
            WorkloadSpec::IlinkTiny => "ilink-tiny".to_string(),
            WorkloadSpec::SorHuge => "sor-huge".to_string(),
            WorkloadSpec::SorLarge => "sor-large".to_string(),
            WorkloadSpec::SorSmall => "sor-small".to_string(),
            WorkloadSpec::SorTiny => "sor-tiny".to_string(),
            WorkloadSpec::SorAllChanging { tiny: false } => "sor-small-ac".to_string(),
            WorkloadSpec::SorAllChanging { tiny: true } => "sor-tiny-ac".to_string(),
            WorkloadSpec::Tsp { cities } => format!("tsp{cities}"),
            WorkloadSpec::Water {
                modified,
                tiny,
            } => {
                let base = if *modified { "mwater" } else { "water" };
                if *tiny {
                    format!("{base}-tiny")
                } else {
                    base.to_string()
                }
            }
            WorkloadSpec::Service(s) => {
                let mut id = format!(
                    "service-n{}t{}k{}w{}o{}q{}b{}s{:x}",
                    s.nodes,
                    s.tenants,
                    s.keys,
                    s.windows,
                    s.offered,
                    s.queue_cap,
                    s.batch_cap,
                    s.seed,
                );
                if let Some(t) = s.solo {
                    id.push_str(&format!("-solo{t}"));
                }
                if s.drop_pm > 0 {
                    id.push_str(&format!("-d{}", s.drop_pm));
                }
                if s.delay_pm > 0 {
                    id.push_str(&format!("-l{}", s.delay_pm));
                }
                if s.crash {
                    id.push_str("-crash");
                }
                id
            }
            WorkloadSpec::PanicProbe => "panic-probe".to_string(),
        }
    }

    fn sor(&self) -> Option<sor::Sor> {
        match self {
            WorkloadSpec::SorHuge => Some(sor::Sor::huge()),
            WorkloadSpec::SorLarge => Some(sor::Sor::large()),
            WorkloadSpec::SorSmall => Some(sor::Sor::small()),
            WorkloadSpec::SorTiny => Some(sor::Sor::tiny()),
            WorkloadSpec::SorAllChanging { tiny } => {
                let mut w = if *tiny {
                    sor::Sor::tiny()
                } else {
                    sor::Sor::small()
                };
                w.init = sor::SorInit::AllChanging;
                Some(w)
            }
            _ => None,
        }
    }

    fn ilink(&self) -> Option<ilink::Ilink> {
        let pedigree = match self {
            WorkloadSpec::IlinkClp => ilink::Pedigree::clp_like(),
            WorkloadSpec::IlinkBad => ilink::Pedigree::bad_like(),
            WorkloadSpec::IlinkTiny => ilink::Pedigree::tiny(),
            _ => return None,
        };
        Some(ilink::Ilink { pedigree })
    }

    fn water(&self) -> Option<water::Water> {
        match self {
            WorkloadSpec::Water { modified, tiny } => {
                let mode = if *modified {
                    water::WaterMode::Modified
                } else {
                    water::WaterMode::Original
                };
                Some(if *tiny {
                    water::Water::tiny(mode)
                } else {
                    water::Water::paper(mode)
                })
            }
            _ => None,
        }
    }

    /// Application name and parameter string, as the instantiated
    /// [`Workload`] reports them.
    pub fn describe(&self) -> (String, String) {
        fn d<W: Workload>(w: &W) -> (String, String) {
            (w.name().to_string(), w.params())
        }
        if let Some(w) = self.sor() {
            return d(&w);
        }
        if let Some(w) = self.ilink() {
            return d(&w);
        }
        if let Some(w) = self.water() {
            return d(&w);
        }
        match self {
            WorkloadSpec::Tsp { .. } => d(&self.tsp_instance()),
            WorkloadSpec::Service(s) => (
                "service".to_string(),
                format!(
                    "tenants={} keys={} windows={} offered={}/win drop={}pm delay={}pm crash={}",
                    s.tenants, s.keys, s.windows, s.offered, s.drop_pm, s.delay_pm, s.crash,
                ),
            ),
            WorkloadSpec::PanicProbe => ("panic-probe".to_string(), String::new()),
            _ => unreachable!("covered above"),
        }
    }

    fn tsp_instance(&self) -> tsp::Tsp {
        match self {
            WorkloadSpec::Tsp { cities } => tsp::Tsp::new(*cities),
            _ => unreachable!("tsp_instance on non-TSP spec"),
        }
    }

    /// Instantiates and runs the workload on `platform`.
    pub fn run(&self, platform: &Platform) -> Outcome<f64> {
        self.run_traced(platform, None).0
    }

    /// [`WorkloadSpec::run`] with the cycle-attribution tracer armed (see
    /// [`run_workload_traced`]).
    pub fn run_traced(
        &self,
        platform: &Platform,
        trace: Option<usize>,
    ) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
        if let Some(w) = self.sor() {
            return run_workload_traced(platform, &w, trace);
        }
        if let Some(w) = self.ilink() {
            return run_workload_traced(platform, &w, trace);
        }
        if let Some(w) = self.water() {
            return run_workload_traced(platform, &w, trace);
        }
        match self {
            WorkloadSpec::Tsp { .. } => {
                run_workload_traced(platform, &self.tsp_instance(), trace)
            }
            WorkloadSpec::Service(s) => run_service_traced(s, trace),
            WorkloadSpec::PanicProbe => panic!("deliberate panic probe"),
            _ => unreachable!("covered above"),
        }
    }
}

/// Runs the multi-tenant DSM service on the real-thread runtime and
/// packages the outcome like a simulated run: the results vector carries
/// the per-tenant checksums (exactly representable in 53 bits) and the
/// report's service block carries the per-tenant schedule metrics. All of
/// it is deterministic, so service runs memoize and cross-check like any
/// simulated workload.
fn run_service_traced(
    spec: &ServiceSpec,
    trace: Option<usize>,
) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
    use tmk_core::runtime::RecoveryEvent;
    use tmk_trace::{Event, EventKind, Track};

    let started = std::time::Instant::now();
    let out = tmk_core::service::run_service(&spec.config(), spec.faults());
    let host_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = out.report;
    let rec = out.recovery;

    let buf = trace.map(|cap| {
        let b = TraceBuf::new(spec.nodes, cap);
        for ev in &rec.events {
            let (track, at, kind) = match *ev {
                RecoveryEvent::NodeCrash { node, at_us, .. } => (
                    Track::Node(node as u32),
                    at_us,
                    EventKind::NodeCrash { node: node as u32 },
                ),
                RecoveryEvent::NodeSuspected { node, at_us } => (
                    Track::Node(node as u32),
                    at_us,
                    EventKind::NodeSuspected { node: node as u32 },
                ),
                RecoveryEvent::CheckpointTake { pages, at_us, .. } => {
                    (Track::Node(0), at_us, EventKind::CheckpointTake { pages })
                }
                RecoveryEvent::Rollback { node, pages, at_us, .. } => (
                    Track::Node(node as u32),
                    at_us,
                    EventKind::Rollback {
                        node: node as u32,
                        pages,
                    },
                ),
                RecoveryEvent::TokenRegen { count, at_us } => {
                    (Track::Node(0), at_us, EventKind::TokenRegen { count })
                }
            };
            b.emit(Event {
                track,
                at,
                dur: 0,
                kind,
            });
        }
        Arc::new(b)
    });

    let results: Vec<f64> = report
        .tenants
        .iter()
        .map(|t| (t.checksum >> 11) as f64)
        .collect();
    let run = RunReport {
        procs: spec.nodes,
        clock_hz: 1_000_000,
        engine: tmk_machines::engine_kind(),
        host_ms,
        cycles: report.makespan_us,
        proc_cycles: vec![report.makespan_us; spec.nodes],
        // Only the timing-independent counters go in the record: severed /
        // regenerated-token / restored-page counts depend on what happened
        // to be in flight at crash time, and service records must be
        // byte-identical run to run.
        recovery: tmk_machines::RecoveryStats {
            checkpoints: report.checkpoints,
            suspected: report.suspected,
            rollbacks: report.rollbacks,
            ..Default::default()
        },
        service: Some(report),
        ..Default::default()
    };
    (
        Outcome {
            results,
            report: run,
            op_trace: Vec::new(),
        },
        buf,
    )
}

/// One simulation to run: a workload on a platform.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The platform to simulate.
    pub platform: Platform,
    /// The workload to run on it.
    pub workload: WorkloadSpec,
    /// Repetition index. Requests with equal keys are memoized into one
    /// run; a deliberate re-run (the determinism ablation) bumps this.
    pub instance: u32,
    /// Arm the cycle-attribution tracer for this run. Traced runs are
    /// cycle-identical to untraced ones but carry a [`TraceData`], so they
    /// memoize under a distinct key.
    pub traced: bool,
}

impl JobRequest {
    /// A first-instance request.
    pub fn new(platform: Platform, workload: WorkloadSpec) -> Self {
        JobRequest {
            platform,
            workload,
            instance: 0,
            traced: false,
        }
    }

    /// This request with the tracer armed.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// The memoization key: workload id, platform key, and (when nonzero)
    /// the instance.
    pub fn key(&self) -> String {
        let mut base = format!("{}|{}", self.workload.id(), self.platform.key());
        if self.traced {
            base.push_str("+tr");
        }
        if self.instance == 0 {
            base
        } else {
            format!("{base}#{}", self.instance)
        }
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone)]
pub struct RunData {
    /// The measurement report.
    pub report: RunReport,
    /// Per-processor checksums.
    pub checksums: Vec<f64>,
    /// Tracer output, when the request was [`JobRequest::traced`].
    pub trace: Option<TraceData>,
    /// The engine op trace — `(processor, clock)` per sync operation in
    /// execution order — when `suite --op-trace` (or `TMK_ENGINE_TRACE`)
    /// armed it. `None` otherwise.
    pub op_trace: Option<Arc<Vec<(usize, Cycle)>>>,
}

/// What the cycle-attribution tracer recorded for one run.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Per-processor cycle ledgers, one `[u64; NCAT]` row per processor in
    /// [`Category::ALL`] order; each row sums exactly to that processor's
    /// finishing clock.
    pub breakdown: Vec<[u64; NCAT]>,
    /// The Chrome trace-event JSON document, when event recording (not
    /// just the ledger) was on.
    pub chrome: Option<String>,
}

/// One executed (or failed) job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The memo key.
    pub key: String,
    /// [`Platform::key`] of the platform.
    pub platform: String,
    /// [`Platform::name`] of the platform.
    pub platform_name: &'static str,
    /// Application name.
    pub workload: String,
    /// Application parameter string.
    pub params: String,
    /// Processors simulated.
    pub procs: usize,
    /// The run's data, or the panic message when the simulation died.
    pub data: Result<RunData, String>,
    /// Host wall-clock time spent executing this job, in milliseconds.
    pub host_ms: f64,
}

/// Results of a scheduling round, keyed for memoized lookup.
#[derive(Debug, Default)]
pub struct MemoTable {
    map: HashMap<String, JobResult>,
    /// Requests satisfied by an earlier identical request.
    pub hits: usize,
}

impl MemoTable {
    /// Looks up the result for `req`.
    pub fn get(&self, req: &JobRequest) -> Option<&JobResult> {
        self.map.get(&req.key())
    }

    /// Unique runs executed.
    pub fn unique_runs(&self) -> usize {
        self.map.len()
    }

    /// All results, sorted by key for stable emission.
    pub fn sorted_runs(&self) -> Vec<&JobResult> {
        let mut runs: Vec<&JobResult> = self.map.values().collect();
        runs.sort_by(|a, b| a.key.cmp(&b.key));
        runs
    }
}

/// The simulated (host-independent) portion of one run record: the full
/// report plus checksums, op trace and attribution ledger, with the
/// host-side `engine` and `host_ms` fields normalized away. Byte-equal
/// strings mean two runs simulated identically — the cross-engine parity
/// predicate used by `suite engine-bench` and the driver tests.
pub fn sim_record(r: &JobResult) -> String {
    match &r.data {
        Ok(d) => {
            let mut report = d.report.clone();
            report.engine = EngineKind::default();
            report.host_ms = 0.0;
            let mut s = format!(
                "{}|checksums={:?}|ops={:?}",
                report.to_json().render(),
                d.checksums,
                d.op_trace
            );
            if let Some(t) = &d.trace {
                let _ = write!(s, "|breakdown={:?}", t.breakdown);
            }
            s
        }
        Err(e) => format!("failed: {e}"),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

fn execute(req: &JobRequest, ring_cap: usize) -> JobResult {
    let (workload, params) = req.workload.describe();
    let start = Instant::now();
    let trace = req.traced.then_some(ring_cap);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        req.workload.run_traced(&req.platform, trace)
    }));
    let host_ms = start.elapsed().as_secs_f64() * 1e3;
    JobResult {
        key: req.key(),
        platform: req.platform.key(),
        platform_name: req.platform.name(),
        workload,
        params,
        procs: req.platform.procs(),
        data: match outcome {
            Ok((out, buf)) => Ok(RunData {
                report: out.report,
                checksums: out.results,
                trace: buf.map(|b| TraceData {
                    breakdown: b.breakdown(),
                    chrome: (ring_cap > 0).then(|| b.chrome_trace()),
                }),
                op_trace: (!out.op_trace.is_empty()).then(|| Arc::new(out.op_trace)),
            }),
            Err(payload) => Err(panic_text(payload.as_ref())),
        },
        host_ms,
    }
}

/// Runs every unique request across `jobs` worker threads (0 = host
/// parallelism). Duplicate keys count as memo hits and are not re-run, so
/// results are identical for any `jobs` value: each unique simulation
/// executes exactly once and is itself deterministic.
pub fn run_jobs(requests: &[JobRequest], jobs: usize) -> MemoTable {
    run_jobs_traced(requests, jobs, 0)
}

/// [`run_jobs`] with a per-processor event-ring capacity for traced
/// requests: 0 keeps only the cycle ledger, a nonzero capacity also
/// records Chrome-trace events.
pub fn run_jobs_traced(requests: &[JobRequest], jobs: usize, ring_cap: usize) -> MemoTable {
    let mut unique: Vec<JobRequest> = Vec::new();
    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut hits = 0;
    for req in requests {
        if seen.insert(req.key(), ()).is_some() {
            hits += 1;
        } else {
            unique.push(req.clone());
        }
    }

    let jobs = resolve_jobs(jobs).min(unique.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded();
    crossbeam::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let unique = &unique;
            s.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= unique.len() {
                    break;
                }
                // `execute` catches the simulation's panics; a send only
                // fails if the receiver is gone, which it never is here.
                let _ = tx.send(execute(&unique[i], ring_cap));
            });
        }
    })
    .expect("worker threads do not panic");
    drop(tx);

    let mut map = HashMap::new();
    for result in rx.iter() {
        map.insert(result.key.clone(), result);
    }
    MemoTable { map, hits }
}

/// Host worker-thread count for `jobs == 0`.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Render-time access to memoized results.
pub struct Ctx<'a> {
    memo: &'a MemoTable,
}

impl Ctx<'_> {
    /// The job record for `req` (even a failed one).
    pub fn job(&self, req: &JobRequest) -> Result<&JobResult, String> {
        self.memo
            .get(req)
            .ok_or_else(|| format!("run {} was not scheduled", req.key()))
    }

    /// The run data for `req`; failed runs surface as errors.
    pub fn data(&self, req: &JobRequest) -> Result<&RunData, String> {
        let job = self.job(req)?;
        job.data
            .as_ref()
            .map_err(|e| format!("run {} failed: {e}", job.key))
    }

    /// The measurement report for `req`.
    pub fn report(&self, req: &JobRequest) -> Result<&RunReport, String> {
        Ok(&self.data(req)?.report)
    }

    /// Whole-run simulated seconds.
    pub fn secs(&self, req: &JobRequest) -> Result<f64, String> {
        Ok(self.report(req)?.seconds())
    }

    /// Steady-state-window simulated seconds.
    pub fn wsecs(&self, req: &JobRequest) -> Result<f64, String> {
        Ok(self.report(req)?.window_seconds())
    }
}

type Render = Box<dyn Fn(&Ctx) -> Result<String, String> + Send + Sync>;

/// A filterable unit of an experiment: the runs it needs plus the renderer
/// that turns them into text.
pub struct Section {
    /// Section id within the experiment ("" for single-section
    /// experiments).
    pub id: &'static str,
    /// The simulations this section consumes.
    pub requests: Vec<JobRequest>,
    render: Render,
}

impl Section {
    fn new(id: &'static str, requests: Vec<JobRequest>, render: Render) -> Self {
        Section {
            id,
            requests,
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
        if section.id.is_empty() {
            self.id.to_string()
        } else {
            format!("{}/{}", self.id, section.id)
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

fn req(platform: Platform, workload: WorkloadSpec) -> JobRequest {
    JobRequest::new(platform, workload)
}

/// The (label, workload) rows shared by Table 1, Table 2 and Figures 1–8.
fn roster(tier: Tier) -> Vec<(&'static str, WorkloadSpec)> {
    match tier {
        Tier::Full => vec![
            ("ILINK-CLP", WorkloadSpec::IlinkClp),
            ("ILINK-BAD", WorkloadSpec::IlinkBad),
            ("SOR 2048x1024", WorkloadSpec::SorLarge),
            ("SOR 1024x1024", WorkloadSpec::SorSmall),
            ("TSP-18", WorkloadSpec::Tsp { cities: 18 }),
            ("TSP-17", WorkloadSpec::Tsp { cities: 17 }),
            (
                "Water-288-2",
                WorkloadSpec::Water {
                    modified: false,
                    tiny: false,
                },
            ),
            (
                "M-Water-288-2",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: false,
                },
            ),
        ],
        Tier::Quick => vec![
            ("ILINK-TINY", WorkloadSpec::IlinkTiny),
            ("SOR-TINY", WorkloadSpec::SorTiny),
            ("TSP-10", WorkloadSpec::Tsp { cities: 10 }),
            (
                "Water-tiny",
                WorkloadSpec::Water {
                    modified: false,
                    tiny: true,
                },
            ),
            (
                "M-Water-tiny",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: true,
                },
            ),
        ],
    }
}

fn table1(tier: Tier) -> Experiment {
    let rows = roster(tier);
    let platforms = || {
        [
            Platform::Dec,
            Platform::treadmarks(1),
            Platform::Sgi { procs: 1 },
        ]
    };
    let requests = rows
        .iter()
        .flat_map(|(_, w)| platforms().into_iter().map(move |p| req(p, w.clone())))
        .collect();
    let render_rows = rows.clone();
    let render: Render = Box::new(move |ctx| {
        let mut out = String::new();
        writeln!(
            out,
            "Table 1: single-processor execution times (simulated seconds)"
        )
        .unwrap();
        writeln!(
            out,
            "{:<16} {:>10} {:>12} {:>10}   (ratios to DEC)",
            "Program", "DEC", "TreadMarks", "SGI"
        )
        .unwrap();
        for (name, w) in &render_rows {
            let dec = ctx.secs(&req(Platform::Dec, w.clone()))?;
            let tmk = ctx.secs(&req(Platform::treadmarks(1), w.clone()))?;
            let sgi = ctx.secs(&req(Platform::Sgi { procs: 1 }, w.clone()))?;
            writeln!(
                out,
                "{name:<16} {:>10} {:>12} {:>10}   (x{:.2} / x{:.2})",
                fmt_secs(dec),
                fmt_secs(tmk),
                fmt_secs(sgi),
                tmk / dec,
                sgi / dec,
            )
            .unwrap();
        }
        Ok(out)
    });
    Experiment {
        id: "table1",
        title: "single-processor execution times (DEC, DEC+TreadMarks, SGI)",
        default: true,
        header: None,
        sections: vec![Section::new("", requests, render)],
    }
}

fn table2(tier: Tier) -> Experiment {
    let rows = roster(tier);
    let procs = match tier {
        Tier::Full => 8,
        Tier::Quick => 4,
    };
    let requests = rows
        .iter()
        .map(|(_, w)| req(Platform::treadmarks(procs), w.clone()))
        .collect();
    let render_rows = rows.clone();
    let render: Render = Box::new(move |ctx| {
        let mut out = String::new();
        writeln!(
            out,
            "Table 2: {procs}-processor TreadMarks execution statistics"
        )
        .unwrap();
        writeln!(out, "(steady-state window, first iteration excluded)").unwrap();
        writeln!(
            out,
            "{:<16} {:>10} {:>14} {:>12} {:>12}",
            "Program", "Barriers/s", "RemoteLocks/s", "Messages/s", "KB/s"
        )
        .unwrap();
        for (name, w) in &render_rows {
            let r = ctx.report(&req(Platform::treadmarks(procs), w.clone()))?;
            let secs = r.window_seconds();
            let t = r.window_traffic();
            let s = r.dsm;
            // Barrier episodes: each involves all processors; report
            // per-episode.
            let barriers = s.barriers as f64 / procs as f64;
            writeln!(
                out,
                "{name:<16} {:>10.2} {:>14.0} {:>12.0} {:>12.0}",
                barriers / secs,
                s.remote_lock_acquires as f64 / secs,
                t.total_msgs() as f64 / secs,
                t.total_bytes() as f64 / 1024.0 / secs,
            )
            .unwrap();
        }
        Ok(out)
    });
    Experiment {
        id: "table2",
        title: "8-processor TreadMarks execution statistics",
        default: true,
        header: None,
        sections: vec![Section::new("", requests, render)],
    }
}

fn fig01_08(tier: Tier) -> Experiment {
    let procs: Vec<usize> = match tier {
        Tier::Full => vec![1, 2, 4, 6, 8],
        Tier::Quick => vec![1, 2, 4],
    };
    let figures: Vec<(&'static str, &'static str, WorkloadSpec)> = match tier {
        Tier::Full => vec![
            ("fig1", "ILINK: CLP", WorkloadSpec::IlinkClp),
            ("fig2", "ILINK: BAD", WorkloadSpec::IlinkBad),
            ("fig3", "SOR: 2048x1024", WorkloadSpec::SorLarge),
            ("fig4", "SOR: 1024x1024", WorkloadSpec::SorSmall),
            ("fig5", "TSP: 18 cities", WorkloadSpec::Tsp { cities: 18 }),
            ("fig6", "TSP: 17 cities", WorkloadSpec::Tsp { cities: 17 }),
            (
                "fig7",
                "Water: 288 molecules",
                WorkloadSpec::Water {
                    modified: false,
                    tiny: false,
                },
            ),
            (
                "fig8",
                "M-Water: 288 molecules",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: false,
                },
            ),
        ],
        Tier::Quick => vec![
            ("fig1", "ILINK: TINY", WorkloadSpec::IlinkTiny),
            ("fig3", "SOR: tiny", WorkloadSpec::SorTiny),
            ("fig5", "TSP: 10 cities", WorkloadSpec::Tsp { cities: 10 }),
            (
                "fig7",
                "Water: tiny",
                WorkloadSpec::Water {
                    modified: false,
                    tiny: true,
                },
            ),
            (
                "fig8",
                "M-Water: tiny",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: true,
                },
            ),
        ],
    };
    let sections = figures
        .iter()
        .enumerate()
        .map(|(i, (id, name, w))| {
            let fig = i + 1;
            // Section ids are stable names; figure numbers for display come
            // from the id ("fig3" -> 3) so quick-tier gaps stay aligned.
            let fig = id.strip_prefix("fig").and_then(|n| n.parse().ok()).unwrap_or(fig);
            let mut requests = vec![
                req(Platform::Dec, w.clone()),
                req(Platform::Sgi { procs: 1 }, w.clone()),
            ];
            for &n in &procs {
                requests.push(req(Platform::treadmarks(n), w.clone()));
                requests.push(req(Platform::Sgi { procs: n }, w.clone()));
            }
            let (name, w, procs) = (*name, w.clone(), procs.clone());
            let render: Render = Box::new(move |ctx| {
                let mut out = String::new();
                writeln!(out).unwrap();
                writeln!(out, "Figure {fig}: {name} — speedup vs processors").unwrap();
                writeln!(out, "{:>6} {:>12} {:>12}", "procs", "TreadMarks", "SGI 4D/480")
                    .unwrap();
                let dec = ctx.wsecs(&req(Platform::Dec, w.clone()))?;
                let sgi1 = ctx.wsecs(&req(Platform::Sgi { procs: 1 }, w.clone()))?;
                for &n in &procs {
                    let tmk = dec / ctx.wsecs(&req(Platform::treadmarks(n), w.clone()))?;
                    let sgi = sgi1 / ctx.wsecs(&req(Platform::Sgi { procs: n }, w.clone()))?;
                    writeln!(out, "{n:>6} {tmk:>12.2} {sgi:>12.2}").unwrap();
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();
    Experiment {
        id: "fig01_08",
        title: "speedups 1-8 processors, TreadMarks vs SGI 4D/480",
        default: true,
        header: None,
        sections,
    }
}

fn fig09_11(tier: Tier) -> Experiment {
    let (procs, per_node): (Vec<usize>, usize) = match tier {
        Tier::Full => (vec![8, 16, 32, 64], 8),
        Tier::Quick => (vec![2, 4], 2),
    };
    let apps: Vec<(&'static str, usize, &'static str, WorkloadSpec)> = match tier {
        Tier::Full => vec![
            ("sor", 9, "SOR 1024x1024", WorkloadSpec::SorSmall),
            ("tsp", 10, "TSP 18 cities", WorkloadSpec::Tsp { cities: 18 }),
            (
                "mwater",
                11,
                "M-Water 288 molecules",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: false,
                },
            ),
        ],
        Tier::Quick => vec![
            ("sor", 9, "SOR tiny", WorkloadSpec::SorTiny),
            ("tsp", 10, "TSP 10 cities", WorkloadSpec::Tsp { cities: 10 }),
            (
                "mwater",
                11,
                "M-Water tiny",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: true,
                },
            ),
        ],
    };
    let sections = apps
        .iter()
        .map(|(id, fig, name, w)| {
            let mut requests = vec![req(Platform::as_sim(1), w.clone())];
            for &n in &procs {
                requests.push(req(Platform::as_sim(n), w.clone()));
                requests.push(req(Platform::ah(n), w.clone()));
                requests.push(req(Platform::hs_sim(n / per_node, per_node), w.clone()));
            }
            let (fig, name, w, procs) = (*fig, *name, w.clone(), procs.clone());
            let render: Render = Box::new(move |ctx| {
                let mut out = String::new();
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "Figure {fig}: {name} — speedup vs processors (AS / AH / HS)"
                )
                .unwrap();
                writeln!(out, "{:>6} {:>10} {:>10} {:>10}", "procs", "AS", "AH", "HS").unwrap();
                let base = ctx.wsecs(&req(Platform::as_sim(1), w.clone()))?;
                for &n in &procs {
                    let as_ = base / ctx.wsecs(&req(Platform::as_sim(n), w.clone()))?;
                    let ah = base / ctx.wsecs(&req(Platform::ah(n), w.clone()))?;
                    let hs =
                        base / ctx.wsecs(&req(Platform::hs_sim(n / per_node, per_node), w.clone()))?;
                    writeln!(out, "{n:>6} {as_:>10.2} {ah:>10.2} {hs:>10.2}").unwrap();
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();
    Experiment {
        id: "fig09_11",
        title: "speedups 8-64 processors, AS vs AH vs HS",
        default: true,
        header: None,
        sections,
    }
}

fn fig12_13(tier: Tier) -> Experiment {
    let (procs, per_node) = match tier {
        Tier::Full => (64usize, 8usize),
        Tier::Quick => (4, 2),
    };
    let apps: Vec<(&'static str, &'static str, WorkloadSpec)> = match tier {
        Tier::Full => vec![
            ("sor", "SOR 1024x1024", WorkloadSpec::SorSmall),
            ("tsp", "TSP 18 cities", WorkloadSpec::Tsp { cities: 18 }),
            (
                "mwater",
                "M-Water 288 molecules",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: false,
                },
            ),
        ],
        Tier::Quick => vec![
            ("sor", "SOR tiny", WorkloadSpec::SorTiny),
            ("tsp", "TSP 10 cities", WorkloadSpec::Tsp { cities: 10 }),
            (
                "mwater",
                "M-Water tiny",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: true,
                },
            ),
        ],
    };
    let sections = apps
        .iter()
        .map(|(id, name, w)| {
            let requests = vec![
                req(Platform::as_sim(procs), w.clone()),
                req(Platform::hs_sim(procs / per_node, per_node), w.clone()),
            ];
            let (name, w) = (*name, w.clone());
            let render: Render = Box::new(move |ctx| {
                let as_t = ctx.report(&req(Platform::as_sim(procs), w.clone()))?.window_traffic();
                let hs_t = ctx
                    .report(&req(Platform::hs_sim(procs / per_node, per_node), w.clone()))?
                    .window_traffic();
                let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole as f64;
                let mut out = String::new();
                let as_msgs = as_t.total_msgs();
                writeln!(out).unwrap();
                writeln!(out, "{name}").unwrap();
                writeln!(out, "  messages (% of AS total = {as_msgs}):").unwrap();
                for (sys, t) in [("AS", &as_t), ("HS", &hs_t)] {
                    writeln!(
                        out,
                        "    {sys:<3} total {:>6.1}%   miss {:>6.1}%   sync {:>6.1}%",
                        pct(t.total_msgs(), as_msgs),
                        pct(t.miss_msgs, as_msgs),
                        pct(t.sync_msgs(), as_msgs),
                    )
                    .unwrap();
                }
                let as_bytes = as_t.total_bytes();
                writeln!(out, "  data (% of AS total = {} KB):", as_bytes / 1024).unwrap();
                for (sys, t) in [("AS", &as_t), ("HS", &hs_t)] {
                    writeln!(
                        out,
                        "    {sys:<3} total {:>6.1}%   miss {:>6.1}%   consistency {:>6.1}%   headers {:>6.1}%",
                        pct(t.total_bytes(), as_bytes),
                        pct(t.miss_bytes, as_bytes),
                        pct(t.consistency_bytes, as_bytes),
                        pct(t.header_bytes, as_bytes),
                    )
                    .unwrap();
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();
    Experiment {
        id: "fig12_13",
        title: "message and data totals, HS vs AS at 64 processors",
        default: true,
        header: Some(format!(
            "Figures 12-13: message and data totals at {procs} processors, HS vs AS\n"
        )),
        sections,
    }
}

fn fig14_16(tier: Tier) -> Experiment {
    let base_so = SoftwareOverhead::sim_baseline();
    let variants: Vec<(&'static str, SoftwareOverhead)> = vec![
        ("2000/10", base_so),
        ("500/10", base_so.with_fixed(500)),
        ("100/10", base_so.with_fixed(100)),
        ("2000/1", base_so.with_per_word(1)),
        ("100/1", base_so.with_fixed(100).with_per_word(1)),
    ];
    let per_node = match tier {
        Tier::Full => 8usize,
        Tier::Quick => 2,
    };
    let sweep_platform = move |hs: bool, procs: usize, so: SoftwareOverhead| {
        if hs {
            Platform::Hs {
                nodes: procs / per_node,
                per_node,
                so: Some(so),
                tuning: DsmTuning::default(),
            }
        } else {
            Platform::AsCluster {
                procs,
                part1: false,
                so: Some(so),
                tuning: DsmTuning::default(),
            }
        }
    };
    let sor_spec = match tier {
        Tier::Full => WorkloadSpec::SorSmall,
        Tier::Quick => WorkloadSpec::SorTiny,
    };
    let mwater_spec = WorkloadSpec::Water {
        modified: true,
        tiny: tier == Tier::Quick,
    };
    // (section id, figure no., display name, HS?, workload, procs sweep)
    let figures: Vec<(&'static str, usize, &'static str, bool, WorkloadSpec, Vec<usize>)> =
        match tier {
            Tier::Full => vec![
                ("fig14", 14, "SOR 1024x1024", false, sor_spec, vec![8, 16, 32, 64]),
                // M-Water on AS at 64 processors simulates very slowly (its
                // speedup collapses, so the run is long); the sweeps' story
                // is fully visible by 32.
                ("fig15", 15, "M-Water 288", false, mwater_spec.clone(), vec![8, 16, 32]),
                ("fig16", 16, "M-Water 288", true, mwater_spec, vec![8, 16, 32]),
            ],
            Tier::Quick => vec![
                ("fig14", 14, "SOR tiny", false, sor_spec, vec![2, 4]),
                ("fig15", 15, "M-Water tiny", false, mwater_spec.clone(), vec![2, 4]),
                ("fig16", 16, "M-Water tiny", true, mwater_spec, vec![4]),
            ],
        };
    let sections = figures
        .into_iter()
        .map(|(id, fig, name, hs, w, procs)| {
            let mut requests = vec![req(Platform::as_sim(1), w.clone())];
            for &n in &procs {
                for (_, so) in &variants {
                    requests.push(req(sweep_platform(hs, n, *so), w.clone()));
                }
            }
            let variants = variants.clone();
            let render: Render = Box::new(move |ctx| {
                let sys = if hs { "HS" } else { "AS" };
                let mut out = String::new();
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "Figure {fig}: {name} on {sys} — speedup under reduced software overheads"
                )
                .unwrap();
                write!(out, "{:>6}", "procs").unwrap();
                for (label, _) in &variants {
                    write!(out, "{label:>10}").unwrap();
                }
                writeln!(out).unwrap();
                let denom = ctx.wsecs(&req(Platform::as_sim(1), w.clone()))?;
                for &n in &procs {
                    write!(out, "{n:>6}").unwrap();
                    for (_, so) in &variants {
                        let secs = ctx.wsecs(&req(sweep_platform(hs, n, *so), w.clone()))?;
                        write!(out, "{:>10.2}", denom / secs).unwrap();
                    }
                    writeln!(out).unwrap();
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();
    Experiment {
        id: "fig14_16",
        title: "software-overhead sweeps (Peregrine/SHRIMP-like points)",
        default: true,
        header: None,
        sections,
    }
}

fn ablations(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let procs = if quick { 4usize } else { 8 };
    let mut sections = Vec::new();

    // §2.4.3: eager release on the TSP bound lock.
    {
        let cities = if quick { 10 } else { 14 };
        let w = WorkloadSpec::Tsp { cities };
        let eager = Platform::AsCluster {
            procs,
            part1: true,
            so: None,
            tuning: DsmTuning {
                eager_locks: vec![tsp::BOUND_LOCK],
                ..Default::default()
            },
        };
        let requests = vec![
            req(Platform::Dec, w.clone()),
            req(Platform::treadmarks(procs), w.clone()),
            req(eager.clone(), w.clone()),
            req(Platform::Sgi { procs: 1 }, w.clone()),
            req(Platform::Sgi { procs }, w.clone()),
        ];
        let render: Render = Box::new(move |ctx| {
            if !quick {
                // The experiment is only meaningful when the initial 2-opt
                // bound is beatable, so the shared bound actually updates.
                let t = tsp::Tsp::new(cities);
                if t.greedy_bound() <= t.optimal() {
                    return Err(format!(
                        "TSP-{cities} greedy bound is already optimal; the eager-release \
                         ablation would measure nothing"
                    ));
                }
            }
            let dec = ctx.wsecs(&req(Platform::Dec, w.clone()))?;
            let lazy = ctx.wsecs(&req(Platform::treadmarks(procs), w.clone()))?;
            let eag = ctx.wsecs(&req(eager.clone(), w.clone()))?;
            let sgi1 = ctx.wsecs(&req(Platform::Sgi { procs: 1 }, w.clone()))?;
            let sgi = ctx.wsecs(&req(Platform::Sgi { procs }, w.clone()))?;
            let mut out = String::new();
            writeln!(
                out,
                "TSP-{cities} at {procs} processors (speedups; bound improves during search):"
            )
            .unwrap();
            writeln!(out, "  TreadMarks lazy release:  {:.2}", dec / lazy).unwrap();
            writeln!(out, "  TreadMarks eager bound:   {:.2}", dec / eag).unwrap();
            writeln!(out, "  SGI 4D/480:               {:.2}", sgi1 / sgi).unwrap();
            Ok(out)
        });
        sections.push(Section::new("tsp-eager", requests, render));
    }

    // §2.4.4: kernel-level TreadMarks.
    {
        let kernel = Platform::AsCluster {
            procs,
            part1: true,
            so: Some(SoftwareOverhead::ultrix_kernel()),
            tuning: DsmTuning::default(),
        };
        let mwater = WorkloadSpec::Water {
            modified: true,
            tiny: quick,
        };
        let sor_w = if quick {
            WorkloadSpec::SorTiny
        } else {
            WorkloadSpec::SorSmall
        };
        let mut requests = Vec::new();
        for w in [&mwater, &sor_w] {
            requests.push(req(Platform::Dec, w.clone()));
            requests.push(req(Platform::treadmarks(procs), w.clone()));
            requests.push(req(kernel.clone(), w.clone()));
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "user-level vs kernel-level TreadMarks ({procs}-processor speedups):"
            )
            .unwrap();
            let dec = ctx.wsecs(&req(Platform::Dec, mwater.clone()))?;
            let user = ctx.wsecs(&req(Platform::treadmarks(procs), mwater.clone()))?;
            let kern = ctx.wsecs(&req(kernel.clone(), mwater.clone()))?;
            writeln!(out, "  M-Water: user {:.2} -> kernel {:.2}", dec / user, dec / kern)
                .unwrap();
            let dec = ctx.wsecs(&req(Platform::Dec, sor_w.clone()))?;
            let user = ctx.wsecs(&req(Platform::treadmarks(procs), sor_w.clone()))?;
            let kern = ctx.wsecs(&req(kernel.clone(), sor_w.clone()))?;
            writeln!(
                out,
                "  SOR:     user {:.2} -> kernel {:.2} (low communication: small gain)",
                dec / user,
                dec / kern
            )
            .unwrap();
            Ok(out)
        });
        sections.push(Section::new("kernel-level", requests, render));
    }

    // §2.4.2: SOR with every point changing every iteration.
    {
        let edges = if quick {
            WorkloadSpec::SorTiny
        } else {
            WorkloadSpec::SorSmall
        };
        let allchg = WorkloadSpec::SorAllChanging { tiny: quick };
        let label = if quick { "SOR tiny" } else { "SOR 1024x1024" };
        let mut requests = Vec::new();
        for w in [&edges, &allchg] {
            requests.push(req(Platform::Dec, w.clone()));
            requests.push(req(Platform::Sgi { procs: 1 }, w.clone()));
            requests.push(req(Platform::treadmarks(procs), w.clone()));
            requests.push(req(Platform::Sgi { procs }, w.clone()));
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(out, "{label}, every point changing every iteration:").unwrap();
            for (tag, w) in [("edges-only init: ", &edges), ("all-changing init:", &allchg)] {
                let dec = ctx.wsecs(&req(Platform::Dec, w.clone()))?;
                let sgi1 = ctx.wsecs(&req(Platform::Sgi { procs: 1 }, w.clone()))?;
                let tmk = ctx.wsecs(&req(Platform::treadmarks(procs), w.clone()))?;
                let sgi = ctx.wsecs(&req(Platform::Sgi { procs }, w.clone()))?;
                writeln!(
                    out,
                    "  {tag} TreadMarks {:.2}  SGI {:.2}",
                    dec / tmk,
                    sgi1 / sgi
                )
                .unwrap();
            }
            Ok(out)
        });
        sections.push(Section::new("sor-allchanging", requests, render));
    }

    // HS node-size sensitivity.
    {
        let w = WorkloadSpec::Water {
            modified: true,
            tiny: quick,
        };
        let total = if quick { 4usize } else { 32 };
        let per_nodes: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8] };
        let mut requests = vec![req(Platform::as_sim(1), w.clone())];
        for &pn in &per_nodes {
            requests.push(req(Platform::hs_sim(total / pn, pn), w.clone()));
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "HS node size at {total} processors (M-Water speedup over 1 node-processor):"
            )
            .unwrap();
            let base = ctx.wsecs(&req(Platform::as_sim(1), w.clone()))?;
            for &pn in &per_nodes {
                let s = ctx.wsecs(&req(Platform::hs_sim(total / pn, pn), w.clone()))?;
                writeln!(out, "  {pn} procs/node: {:.2}", base / s).unwrap();
            }
            Ok(out)
        });
        sections.push(Section::new("hs-node-size", requests, render));
    }

    // AS page-size sensitivity.
    {
        let w = WorkloadSpec::Water {
            modified: true,
            tiny: quick,
        };
        let n = if quick { 4usize } else { 16 };
        let pages = [1024usize, 4096, 16384];
        let paged = move |page: usize| Platform::AsCluster {
            procs: n,
            part1: false,
            so: None,
            tuning: DsmTuning {
                page_size: Some(page),
                ..Default::default()
            },
        };
        let mut requests = vec![req(Platform::as_sim(1), w.clone())];
        for page in pages {
            requests.push(req(paged(page), w.clone()));
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(out, "AS page-size sensitivity (M-Water at {n} processors):").unwrap();
            let base = ctx.wsecs(&req(Platform::as_sim(1), w.clone()))?;
            for page in pages {
                let s = ctx.wsecs(&req(paged(page), w.clone()))?;
                writeln!(out, "  {page:>6}-byte pages: {:.2}", base / s).unwrap();
            }
            Ok(out)
        });
        sections.push(Section::new("page-size", requests, render));
    }

    // LRC vs IVY-style sequential consistency.
    {
        let ivy = Platform::AsCluster {
            procs,
            part1: true,
            so: None,
            tuning: DsmTuning {
                protocol: DsmProtocol::Ivy,
                ..Default::default()
            },
        };
        let rows: Vec<(&'static str, WorkloadSpec)> = if quick {
            vec![
                ("SOR tiny:      ", WorkloadSpec::SorTiny),
                (
                    "M-Water tiny:  ",
                    WorkloadSpec::Water {
                        modified: true,
                        tiny: true,
                    },
                ),
                ("TSP-10:        ", WorkloadSpec::Tsp { cities: 10 }),
            ]
        } else {
            vec![
                ("SOR 1024x1024: ", WorkloadSpec::SorSmall),
                (
                    "M-Water:       ",
                    WorkloadSpec::Water {
                        modified: true,
                        tiny: false,
                    },
                ),
                ("TSP-17:        ", WorkloadSpec::Tsp { cities: 17 }),
            ]
        };
        let mut requests = Vec::new();
        for (_, w) in &rows {
            requests.push(req(Platform::Dec, w.clone()));
            requests.push(req(Platform::treadmarks(procs), w.clone()));
            requests.push(req(ivy.clone(), w.clone()));
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "LRC (TreadMarks) vs sequential-consistency DSM (IVY), {procs} processors:"
            )
            .unwrap();
            for (tag, w) in &rows {
                let dec = ctx.wsecs(&req(Platform::Dec, w.clone()))?;
                let lrc = ctx.wsecs(&req(Platform::treadmarks(procs), w.clone()))?;
                let ivy_s = ctx.wsecs(&req(ivy.clone(), w.clone()))?;
                writeln!(out, "  {tag}LRC {:.2}  IVY {:.2}", dec / lrc, dec / ivy_s).unwrap();
            }
            Ok(out)
        });
        sections.push(Section::new("lrc-vs-ivy", requests, render));
    }

    // Determinism: the same request at two instances runs twice (distinct
    // memo keys) and must produce identical simulated clocks.
    {
        let w = WorkloadSpec::SorTiny;
        let a = req(Platform::treadmarks(4), w.clone());
        let b = JobRequest {
            instance: 1,
            ..a.clone()
        };
        let requests = vec![a.clone(), b.clone()];
        let render: Render = Box::new(move |ctx| {
            let ca = ctx.report(&a)?.cycles;
            let cb = ctx.report(&b)?.cycles;
            let mut out = String::new();
            writeln!(out, "determinism: two identical runs -> {ca} and {cb} cycles").unwrap();
            if ca != cb {
                return Err(format!(
                    "simulator is nondeterministic: {ca} != {cb} cycles"
                ));
            }
            Ok(out)
        });
        sections.push(Section::new("determinism", requests, render));
    }

    Experiment {
        id: "ablations",
        title: "eager release, kernel-level, page size, HS node size, LRC-vs-IVY",
        default: true,
        header: None,
        sections,
    }
}

fn chaos(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let procs = if quick { 4usize } else { 8 };
    // One seed for the whole sweep: the runs are bit-exact replayable, and
    // the chosen seed produces at least one drop even at the lowest rate.
    let seed: u64 = 0xc4a05;
    // Quick-tier inputs exchange few messages, so the smoke rates are
    // higher to still see drops on every workload.
    let rates: Vec<f64> = if quick {
        vec![0.0, 2e-2, 5e-2]
    } else {
        vec![0.0, 1e-4, 1e-3, 1e-2]
    };
    // Pure safety net: orders of magnitude above any legitimate run, it
    // only fires if retransmission ever livelocks.
    let budget: u64 = 4_000_000_000_000;

    let platform = move |drop: f64| -> Platform {
        Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning: DsmTuning {
                faults: (drop > 0.0).then(|| FaultPlan::drop_rate(seed, drop)),
                reliability: Some(RetransmitPolicy::default()),
                watchdog_budget: Some(budget),
                ..Default::default()
            },
        }
    };
    // The adaptive policy estimates the RTO from observed round-trip
    // times (RFC 6298 style). Its floor mirrors the fixed policy's
    // timeout — like TCP's famously conservative 1-second minimum — so
    // the estimator can only *lengthen* the timeout when queueing delay
    // builds up behind a retransmission, which is exactly the situation
    // that makes the fixed policy fire spuriously.
    let floor = RetransmitPolicy::default().timeout;
    let ceiling = 32 * floor;
    let adaptive = move |drop: f64| -> Platform {
        Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning: DsmTuning {
                faults: Some(FaultPlan::drop_rate(seed, drop)),
                reliability: Some(RetransmitPolicy::default().with_adaptive(floor, ceiling)),
                watchdog_budget: Some(budget),
                ..Default::default()
            },
        }
    };

    let workloads: Vec<(&'static str, &'static str, WorkloadSpec)> = if quick {
        vec![
            ("sor", "SOR tiny", WorkloadSpec::SorTiny),
            ("tsp", "TSP 10", WorkloadSpec::Tsp { cities: 10 }),
        ]
    } else {
        vec![
            ("sor", "SOR 1024x1024", WorkloadSpec::SorSmall),
            ("tsp", "TSP 17", WorkloadSpec::Tsp { cities: 17 }),
        ]
    };

    let mut sections = Vec::new();
    for (id, name, w) in workloads {
        let rates = rates.clone();
        let mut requests = vec![req(Platform::as_sim(procs), w.clone())];
        for &r in &rates {
            requests.push(req(platform(r), w.clone()));
            if r > 0.0 {
                requests.push(req(adaptive(r), w.clone()));
            }
        }
        let render: Render = Box::new(move |ctx| {
            let base = ctx.data(&req(Platform::as_sim(procs), w.clone()))?;
            let mut out = String::new();
            writeln!(
                out,
                "{name} on the {procs}-node AS design under injected message loss \
                 (retransmission timeout {} cycles):",
                RetransmitPolicy::default().timeout
            )
            .unwrap();
            let mut prev: Option<(f64, u64)> = None;
            for &rate in &rates {
                let d = ctx.data(&req(platform(rate), w.clone()))?;
                let rep = &d.report;
                if d.checksums != base.checksums {
                    return Err(format!(
                        "drop rate {rate}: application output diverged from the \
                         fault-free run ({:?} vs {:?})",
                        d.checksums, base.checksums
                    ));
                }
                if rate == 0.0 {
                    // The zero-rate run must reproduce the fault-free
                    // baseline byte for byte: same cycles, same per-processor
                    // clocks, same traffic.
                    if rep.cycles != base.report.cycles
                        || rep.proc_cycles != base.report.proc_cycles
                        || rep.traffic != base.report.traffic
                    {
                        return Err(format!(
                            "drop rate 0 deviates from the fault-free baseline \
                             ({} vs {} cycles): the reliability layer is not free",
                            rep.cycles, base.report.cycles
                        ));
                    }
                    if rep.reliability.retransmissions != 0 {
                        return Err("retransmissions on a perfect network".to_string());
                    }
                } else {
                    if rep.net_faults.drops == 0 {
                        return Err(format!(
                            "drop rate {rate}: seed {seed} produced no drops; \
                             pick a seed that exercises the layer"
                        ));
                    }
                    if rep.reliability.retransmissions == 0 {
                        return Err(format!(
                            "drop rate {rate}: messages were dropped but never \
                             retransmitted"
                        ));
                    }
                }
                if let Some((prate, pcycles)) = prev {
                    if rep.cycles < pcycles {
                        return Err(format!(
                            "simulated time shrank as the drop rate grew \
                             ({pcycles} cycles at {prate} vs {} at {rate})",
                            rep.cycles
                        ));
                    }
                }
                prev = Some((rate, rep.cycles));
                writeln!(
                    out,
                    "  drop {rate:>6}: {:>9} time  msgs={:<7} dropped={:<5} \
                     retrans={:<5} dup-suppressed={}",
                    fmt_secs(rep.seconds()),
                    rep.traffic.total_msgs(),
                    rep.net_faults.drops,
                    rep.reliability.retransmissions,
                    rep.reliability.dup_suppressed,
                )
                .unwrap();
            }
            let top = ctx.report(&req(platform(*rates.last().unwrap()), w.clone()))?;
            if top.cycles <= base.report.cycles {
                return Err(format!(
                    "the heaviest loss rate did not cost simulated time \
                     ({} vs {} cycles)",
                    top.cycles, base.report.cycles
                ));
            }
            writeln!(
                out,
                "  adaptive RTO (RFC 6298 estimator, floor {floor} / ceiling {ceiling} cycles):"
            )
            .unwrap();
            let (mut fixed_sp, mut adapt_sp) = (0u64, 0u64);
            for &rate in &rates {
                if rate == 0.0 {
                    continue;
                }
                let f = ctx.report(&req(platform(rate), w.clone()))?;
                let a = ctx.data(&req(adaptive(rate), w.clone()))?;
                if a.checksums != base.checksums {
                    return Err(format!(
                        "adaptive RTO, drop rate {rate}: application output diverged \
                         from the fault-free run"
                    ));
                }
                let ar = &a.report;
                if ar.net_faults.drops > 0 && ar.reliability.retransmissions == 0 {
                    return Err(format!(
                        "adaptive RTO, drop rate {rate}: messages were dropped but \
                         never retransmitted"
                    ));
                }
                fixed_sp += f.reliability.spurious;
                adapt_sp += ar.reliability.spurious;
                writeln!(
                    out,
                    "  drop {rate:>6}: {:>9} time  retrans={:<5} spurious={:<4} \
                     (fixed policy spurious={})",
                    fmt_secs(ar.seconds()),
                    ar.reliability.retransmissions,
                    ar.reliability.spurious,
                    f.reliability.spurious,
                )
                .unwrap();
            }
            if adapt_sp > fixed_sp {
                return Err(format!(
                    "the RTT estimator caused more spurious retransmissions than \
                     the fixed timeout ({adapt_sp} vs {fixed_sp})"
                ));
            }
            writeln!(
                out,
                "  spurious retransmissions across all rates: fixed {fixed_sp} -> \
                 adaptive {adapt_sp}"
            )
            .unwrap();
            Ok(out)
        });
        sections.push(Section::new(id, requests, render));
    }
    Experiment {
        id: "chaos",
        title: "message-loss injection: outputs invariant, time grows with drop rate",
        default: true,
        header: Some(
            "Unreliable-network sweep on the AS design: seeded drops with the \
             TreadMarks retransmission layer armed.\nCorrect runs keep application \
             results bit-identical to the fault-free baseline at every rate."
                .to_string(),
        ),
        sections,
    }
}

fn recovery(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    // Crash timings are fixed cycle counts chosen to land well inside every
    // run of the tier (quick SOR-tiny finishes at ~512k cycles, the full
    // inputs run for >100M), so the sweep covers an early crash (before the
    // first few barrier epochs close) and a mid-run crash (a deep replay
    // window). The transient outage is shorter than the detection window,
    // so retransmission alone must mask it without a rollback.
    let (early, mid, blip): (u64, u64, u64) = if quick {
        (100_000, 300_000, 200_000)
    } else {
        (1_000_000, 8_000_000, 200_000)
    };
    let procs_list: Vec<usize> = if quick { vec![4] } else { vec![8, 16, 32] };
    let seed: u64 = 0x5ec0;
    // Same livelock safety net as the chaos sweep.
    let budget: u64 = 4_000_000_000_000;
    // An aggressive RTO so retransmission exhaustion (the failure detector)
    // fires within ~1.6M cycles of the first send into a dead node; the
    // default 1M-cycle timeout would stretch detection past the quick-tier
    // runs entirely.
    let snappy = RetransmitPolicy {
        timeout: 50_000,
        backoff: 2,
        max_retries: 4,
        adaptive: None,
    };

    type Crashes = Vec<(usize, u64, Option<u64>)>;
    let platform = move |procs: usize, crashes: Crashes| -> Platform {
        let mut plan = FaultPlan::crash_schedule(seed);
        for &(node, at, restart) in &crashes {
            plan = plan.with_crash(node, at, restart);
        }
        Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning: DsmTuning {
                faults: (!crashes.is_empty()).then_some(plan),
                reliability: Some(snappy),
                checkpoints: true,
                watchdog_budget: Some(budget),
                ..Default::default()
            },
        }
    };
    // label, crash schedule, permanent crashes the run must roll back.
    // SOR (regular, barrier-paced) sweeps crash timing: early, mid-run
    // (a deep replay window), both, and a transient blip. TSP keeps its
    // crashes early: its branch-and-bound search is *work*-sensitive to
    // when pruning-bound updates propagate, and a mid-run outage can
    // multiply the explored tree by an order of magnitude — a real
    // robustness finding, but not a run the default results tier can
    // afford to grind out; the crash-count axis is swept with two early
    // crashes instead.
    let sor_variants: Vec<(&'static str, Crashes, u64)> = vec![
        ("1 crash early", vec![(1, early, None)], 1),
        ("1 crash mid", vec![(2, mid, None)], 1),
        ("2 crashes", vec![(1, early, None), (2, mid, None)], 2),
        ("transient blip", vec![(1, early, Some(blip))], 0),
    ];
    let tsp_variants: Vec<(&'static str, Crashes, u64)> = vec![
        ("1 crash early", vec![(1, early, None)], 1),
        ("2 crashes", vec![(1, early, None), (2, 2 * early, None)], 2),
        ("transient blip", vec![(1, early, Some(blip))], 0),
    ];

    let workloads: Vec<(&'static str, &'static str, WorkloadSpec, Vec<(&'static str, Crashes, u64)>)> =
        if quick {
            vec![
                ("sor", "SOR tiny", WorkloadSpec::SorTiny, sor_variants),
                ("tsp", "TSP 10", WorkloadSpec::Tsp { cities: 10 }, tsp_variants),
            ]
        } else {
            vec![
                ("sor", "SOR 1024x1024", WorkloadSpec::SorSmall, sor_variants),
                ("tsp", "TSP 17", WorkloadSpec::Tsp { cities: 17 }, tsp_variants),
            ]
        };

    let mut sections = Vec::new();
    for (id, name, w, variants) in workloads {
        let procs_list = procs_list.clone();
        let mut requests = Vec::new();
        for &procs in &procs_list {
            requests.push(req(Platform::as_sim(procs), w.clone()));
            requests.push(req(platform(procs, Vec::new()), w.clone()));
            for (_, crashes, _) in &variants {
                requests.push(req(platform(procs, crashes.clone()), w.clone()));
            }
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "{name} under seeded node crashes (barrier-epoch checkpoints, \
                 RTO {} cycles, detection by retransmission exhaustion):",
                snappy.timeout
            )
            .unwrap();
            for &procs in &procs_list {
                // The ground truth: the same workload on a perfect network
                // with no reliability or checkpoint machinery at all.
                let truth = ctx.data(&req(Platform::as_sim(procs), w.clone()))?;
                let base = ctx.data(&req(platform(procs, Vec::new()), w.clone()))?;
                if base.checksums != truth.checksums {
                    return Err(format!(
                        "AS-{procs}: arming checkpoints changed the application \
                         output ({:?} vs {:?})",
                        base.checksums, truth.checksums
                    ));
                }
                let brep = &base.report;
                if brep.recovery.checkpoints == 0 {
                    return Err(format!(
                        "AS-{procs}: no checkpoints taken with checkpointing armed"
                    ));
                }
                if brep.recovery.rollbacks != 0 || brep.recovery.messages_severed != 0 {
                    return Err(format!(
                        "AS-{procs}: crash-free baseline reports crash activity \
                         ({:?})",
                        brep.recovery
                    ));
                }
                writeln!(
                    out,
                    "  AS-{procs} baseline: {:>9} time  checkpoints={} \
                     (checkpoint overhead {:+.2}% over the unprotected run)",
                    fmt_secs(brep.seconds()),
                    brep.recovery.checkpoints,
                    100.0 * (brep.seconds() - truth.report.seconds())
                        / truth.report.seconds(),
                )
                .unwrap();
                for (label, crashes, permanent) in &variants {
                    let d = ctx.data(&req(platform(procs, crashes.clone()), w.clone()))?;
                    let rep = &d.report;
                    let rec = &rep.recovery;
                    if d.checksums != truth.checksums {
                        return Err(format!(
                            "AS-{procs}, {label}: application output diverged from \
                             the crash-free run ({:?} vs {:?})",
                            d.checksums, truth.checksums
                        ));
                    }
                    if rec.messages_severed == 0 {
                        return Err(format!(
                            "AS-{procs}, {label}: the crash window severed no \
                             messages; the schedule never bit"
                        ));
                    }
                    if rec.rollbacks != *permanent || rec.suspected != *permanent {
                        return Err(format!(
                            "AS-{procs}, {label}: expected {permanent} rollback(s), \
                             saw suspected={} rollbacks={}",
                            rec.suspected, rec.rollbacks
                        ));
                    }
                    if *permanent > 0 && rec.recovery_cycles == 0 {
                        return Err(format!(
                            "AS-{procs}, {label}: rollback recovery charged no \
                             cycles to the recovery ledger"
                        ));
                    }
                    if *permanent == 0 {
                        // The blip is masked by retransmission alone: no
                        // rollback, but the lost copies were resent.
                        if rep.reliability.retransmissions == 0 {
                            return Err(format!(
                                "AS-{procs}, {label}: severed messages were never \
                                 retransmitted"
                            ));
                        }
                    }
                    if rep.cycles < brep.cycles && *permanent > 0 {
                        return Err(format!(
                            "AS-{procs}, {label}: a crash made the run faster \
                             ({} vs {} cycles)",
                            rep.cycles, brep.cycles
                        ));
                    }
                    writeln!(
                        out,
                        "    {label:<14}: {:>9} time  ({:+6.2}%)  severed={:<4} \
                         rollbacks={} tokens-reminted={} pages-refetched={}",
                        fmt_secs(rep.seconds()),
                        100.0 * (rep.seconds() - brep.seconds()) / brep.seconds(),
                        rec.messages_severed,
                        rec.rollbacks,
                        rec.tokens_regenerated,
                        rec.pages_refetched,
                    )
                    .unwrap();
                }
            }
            Ok(out)
        });
        sections.push(Section::new(id, requests, render));
    }
    Experiment {
        id: "recovery",
        title: "node-crash injection: checkpoint/rollback recovery keeps outputs bit-identical",
        default: true,
        header: Some(
            "Crash-fault sweep on the AS design: seeded node crashes against \
             barrier-epoch checkpoints and lock-token regeneration.\nEvery \
             surviving run must reproduce the crash-free application results \
             byte for byte; transient outages shorter than the detection \
             window must be masked by retransmission alone."
                .to_string(),
        ),
        sections,
    }
}

fn breakdown(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let platforms: Vec<(&'static str, Platform)> = if quick {
        vec![
            ("DEC", Platform::Dec),
            ("SGI-2", Platform::Sgi { procs: 2 }),
            ("AS-4", Platform::as_sim(4)),
            ("HS-2x2", Platform::hs_sim(2, 2)),
        ]
    } else {
        vec![
            ("DEC", Platform::Dec),
            ("SGI-8", Platform::Sgi { procs: 8 }),
            ("AS-8", Platform::as_sim(8)),
            ("AS-32", Platform::as_sim(32)),
            ("AH-32", Platform::ah(32)),
            ("HS-4x8", Platform::hs_sim(4, 8)),
        ]
    };
    let workloads: Vec<(&'static str, &'static str, WorkloadSpec)> = if quick {
        vec![
            ("sor", "SOR tiny", WorkloadSpec::SorTiny),
            ("tsp", "TSP 10", WorkloadSpec::Tsp { cities: 10 }),
        ]
    } else {
        vec![
            ("sor", "SOR 1024x1024", WorkloadSpec::SorSmall),
            ("tsp", "TSP 18", WorkloadSpec::Tsp { cities: 18 }),
            (
                "mwater",
                "M-Water 288",
                WorkloadSpec::Water {
                    modified: true,
                    tiny: false,
                },
            ),
        ]
    };
    let sections = workloads
        .into_iter()
        .map(|(id, label, w)| {
            let platforms = platforms.clone();
            let requests: Vec<JobRequest> = platforms
                .iter()
                .map(|(_, p)| req(p.clone(), w.clone()).traced())
                .collect();
            let render: Render = Box::new(move |ctx| {
                let mut out = String::new();
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "{label}: where the cycles go (percent of aggregate processor cycles)"
                )
                .unwrap();
                // The recovery column (always last) earns its width only
                // when some run actually charged it; crash-free tables
                // keep the original six-column shape.
                let mut ncols = NCAT - 1;
                for (_, p) in &platforms {
                    let d = ctx.data(&req(p.clone(), w.clone()).traced())?;
                    if let Some(tr) = &d.trace {
                        if tr
                            .breakdown
                            .iter()
                            .any(|row| row[Category::Recovery.index()] > 0)
                        {
                            ncols = NCAT;
                        }
                    }
                }
                write!(out, "{:<8}", "platform").unwrap();
                for cat in Category::ALL.iter().take(ncols) {
                    write!(out, " {:>9}", cat.name()).unwrap();
                }
                writeln!(out, " {:>15}", "total cycles").unwrap();
                let mut shares: HashMap<&'static str, [f64; NCAT]> = HashMap::new();
                for (name, p) in &platforms {
                    let d = ctx.data(&req(p.clone(), w.clone()).traced())?;
                    let tr = d
                        .trace
                        .as_ref()
                        .ok_or_else(|| format!("{name}: run carried no trace data"))?;
                    // The invariant that makes the table trustworthy:
                    // every processor's six counters sum exactly to its
                    // finishing clock — no cycle is counted twice or
                    // dropped.
                    for (cpu, row) in tr.breakdown.iter().enumerate() {
                        let sum: u64 = row.iter().sum();
                        let clock = d.report.proc_cycles[cpu];
                        if sum != clock {
                            return Err(format!(
                                "{name} cpu{cpu}: category ledger sums to {sum} \
                                 but the clock reads {clock}"
                            ));
                        }
                    }
                    let mut totals = [0u64; NCAT];
                    for row in &tr.breakdown {
                        for (t, v) in totals.iter_mut().zip(row) {
                            *t += *v;
                        }
                    }
                    let all: u64 = totals.iter().sum();
                    let mut share = [0.0f64; NCAT];
                    write!(out, "{name:<8}").unwrap();
                    for (i, v) in totals.iter().enumerate() {
                        share[i] = *v as f64 / all as f64;
                        if i < ncols {
                            write!(out, " {:>8.1}%", 100.0 * share[i]).unwrap();
                        }
                    }
                    writeln!(out, " {all:>15}").unwrap();
                    shares.insert(name, share);
                }
                // The paper's AS story: SOR scales poorly from 8 to 32
                // processors because protocol overhead and the idle time
                // it induces grow, not because the compute shrinks. The
                // decomposition must show that shift.
                if !quick && id == "sor" {
                    let over = |s: &[f64; NCAT]| 1.0 - s[Category::Compute.index()];
                    let as8 = over(&shares["AS-8"]);
                    let as32 = over(&shares["AS-32"]);
                    if as32 <= as8 {
                        return Err(format!(
                            "AS-32 SOR should lose a larger cycle share to \
                             protocol+idle+network than AS-8 ({:.1}% vs {:.1}%)",
                            100.0 * as32,
                            100.0 * as8
                        ));
                    }
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();
    Experiment {
        id: "breakdown",
        title: "execution-time decomposition from the cycle-attribution tracer",
        default: true,
        header: Some(
            "Where does the time go? Each run is traced with the cycle \
             attributor; every\nprocessor's compute / memory-stall / protocol / \
             sync-idle / network / stolen\ncounters sum exactly to its finishing \
             clock.\n"
                .to_string(),
        ),
        sections,
    }
}

fn scaling(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let (w, label) = if quick {
        (WorkloadSpec::SorTiny, "SOR tiny")
    } else {
        (WorkloadSpec::SorHuge, "SOR 2048x2048")
    };
    // Collection threshold: bytes of per-node consistency metadata
    // (interval records + cached diffs) that arm the piggybacked GC at the
    // next barrier. The smoke grid's metadata is tiny, so the quick tier
    // collects at every barrier; the full tier uses a TreadMarks-like
    // budget that fires a handful of times across the run.
    let threshold: u64 = if quick { 1 } else { 256 * 1024 };
    let procs = if quick { 4usize } else { 16 };
    let procs_list: Vec<usize> = if quick { vec![2, 4] } else { vec![16, 32] };

    let with_gc = move |procs: usize, gc: u64| -> Platform {
        Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning: DsmTuning {
                gc: Some(gc),
                ..Default::default()
            },
        }
    };
    // An unreachable threshold arms the memory ledger without ever
    // collecting: the GC-free baseline whose footprint the collector must
    // beat, with the same instrumentation.
    let ledger_only = u64::MAX;

    let mut sections = Vec::new();

    // The footprint/cost comparison at the primary machine size: the same
    // run with no ledger, with the ledger alone, and with the collector.
    {
        let w = w.clone();
        let requests = vec![
            req(Platform::as_sim(procs), w.clone()),
            req(with_gc(procs, threshold), w.clone()),
            req(with_gc(procs, ledger_only), w.clone()),
        ];
        let render: Render = Box::new(move |ctx| {
            let plain = ctx.data(&req(Platform::as_sim(procs), w.clone()))?;
            let on = ctx.data(&req(with_gc(procs, threshold), w.clone()))?;
            let off = ctx.data(&req(with_gc(procs, ledger_only), w.clone()))?;
            if on.checksums != plain.checksums || off.checksums != plain.checksums {
                return Err(
                    "garbage collection changed the application's results".to_string()
                );
            }
            // The ledger alone must be free: byte-identical execution.
            if off.report.cycles != plain.report.cycles
                || off.report.proc_cycles != plain.report.proc_cycles
                || off.report.traffic != plain.report.traffic
            {
                return Err(format!(
                    "the memory ledger alone changed the execution \
                     ({} vs {} cycles): tracking is not free",
                    off.report.cycles, plain.report.cycles
                ));
            }
            let son = &on.report.dsm;
            let soff = &off.report.dsm;
            if soff.gc_collections != 0 {
                return Err("the ledger-only run ran a collection".to_string());
            }
            if soff.live_intervals_hw == 0 || soff.cached_diff_bytes_hw == 0 {
                return Err(
                    "the GC-free run accumulated no consistency metadata; \
                     the workload cannot exercise the collector"
                        .to_string(),
                );
            }
            if son.gc_collections == 0 || son.gc_intervals_retired == 0 {
                return Err(format!(
                    "threshold {threshold} never triggered a collection"
                ));
            }
            // The point of the exercise: the collector bounds the footprint.
            if son.cached_diff_bytes_hw >= soff.cached_diff_bytes_hw {
                return Err(format!(
                    "GC did not lower the diff-cache high-water mark \
                     ({} vs {} bytes without GC)",
                    son.cached_diff_bytes_hw, soff.cached_diff_bytes_hw
                ));
            }
            if son.live_interval_bytes_hw >= soff.live_interval_bytes_hw {
                return Err(format!(
                    "GC did not lower the interval-store high-water mark \
                     ({} vs {} bytes without GC)",
                    son.live_interval_bytes_hw, soff.live_interval_bytes_hw
                ));
            }
            // Collection costs messages and protocol cycles; it can never
            // beat the free run.
            if on.report.cycles < plain.report.cycles {
                return Err(format!(
                    "collection made the run faster than GC-free \
                     ({} vs {} cycles)",
                    on.report.cycles, plain.report.cycles
                ));
            }
            let mut out = String::new();
            writeln!(
                out,
                "{label} on AS-{procs}: barrier-time GC (threshold {threshold} B/node) \
                 vs unbounded metadata"
            )
            .unwrap();
            let row = |out: &mut String, name: &str, d: &RunData| {
                let s = &d.report.dsm;
                writeln!(
                    out,
                    "  {name:<10} {:>9} time  collections={:<3} intervals retired={:<7} \
                     peak intervals={:>9} B  peak diff cache={:>8} B",
                    fmt_secs(d.report.seconds()),
                    s.gc_collections,
                    s.gc_intervals_retired,
                    s.live_interval_bytes_hw,
                    s.cached_diff_bytes_hw,
                )
                .unwrap();
            };
            row(&mut out, "gc off", off);
            row(&mut out, "gc on", on);
            writeln!(
                out,
                "  aggregate peak metadata: {} B without GC -> {} B with GC \
                 ({} diff bytes retired, {} stale pages dropped, {} validated)",
                soff.live_interval_bytes_hw + soff.cached_diff_bytes_hw,
                son.live_interval_bytes_hw + son.cached_diff_bytes_hw,
                son.gc_diff_bytes_retired,
                son.gc_pages_dropped,
                son.gc_pages_validated,
            )
            .unwrap();
            Ok(out)
        });
        sections.push(Section::new("sor-mem", requests, render));
    }

    // The curves across machine sizes: more processors close more intervals
    // per barrier, so the GC-free footprint grows while the collected one
    // stays bounded.
    {
        let w = w.clone();
        let procs_list = procs_list.clone();
        let mut requests = Vec::new();
        for &p in &procs_list {
            requests.push(req(with_gc(p, threshold), w.clone()));
            requests.push(req(with_gc(p, ledger_only), w.clone()));
        }
        let render: Render = Box::new(move |ctx| {
            let peak =
                |s: &tmk_core::NodeStats| s.live_interval_bytes_hw + s.cached_diff_bytes_hw;
            let mut out = String::new();
            writeln!(
                out,
                "{label}: aggregate metadata high-water marks as the AS design scales"
            )
            .unwrap();
            writeln!(
                out,
                "  {:<6} {:>10} {:>10} {:>6} {:>18} {:>18}",
                "", "gc-on", "gc-off", "colls", "peak meta gc-on", "peak meta gc-off"
            )
            .unwrap();
            for &p in &procs_list {
                let on = ctx.data(&req(with_gc(p, threshold), w.clone()))?;
                let off = ctx.data(&req(with_gc(p, ledger_only), w.clone()))?;
                if on.checksums != off.checksums {
                    return Err(format!(
                        "AS-{p}: garbage collection changed the application's results"
                    ));
                }
                let son = &on.report.dsm;
                let soff = &off.report.dsm;
                if son.gc_collections == 0 {
                    return Err(format!("AS-{p}: no collections at threshold {threshold}"));
                }
                if peak(son) >= peak(soff) {
                    return Err(format!(
                        "AS-{p}: GC-on peak metadata ({} B) is not below GC-free ({} B)",
                        peak(son),
                        peak(soff)
                    ));
                }
                writeln!(
                    out,
                    "  AS-{p:<3} {:>10} {:>10} {:>6} {:>16} B {:>16} B",
                    fmt_secs(on.report.seconds()),
                    fmt_secs(off.report.seconds()),
                    son.gc_collections,
                    peak(son),
                    peak(soff),
                )
                .unwrap();
            }
            Ok(out)
        });
        sections.push(Section::new("as-scale", requests, render));
    }

    Experiment {
        id: "scaling",
        title: "barrier-time garbage collection: bounded metadata, unchanged results",
        default: true,
        header: Some(
            "Barrier-time GC sweep on the AS design: the same SOR run with the \
             collector armed\nand with metadata left to accumulate. Correct runs \
             keep application results\nbit-identical and the collected footprint \
             strictly below the GC-free high water.\n"
                .to_string(),
        ),
        sections,
    }
}

fn calibrate(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let apps: Vec<(&'static str, Vec<(&'static str, WorkloadSpec)>)> = if quick {
        vec![
            ("sor", vec![("SOR tiny", WorkloadSpec::SorTiny)]),
            ("ilink", vec![("ILINK TINY", WorkloadSpec::IlinkTiny)]),
            ("tsp", vec![("TSP 10", WorkloadSpec::Tsp { cities: 10 })]),
            (
                "water",
                vec![
                    (
                        "Water",
                        WorkloadSpec::Water {
                            modified: false,
                            tiny: true,
                        },
                    ),
                    (
                        "M-Water",
                        WorkloadSpec::Water {
                            modified: true,
                            tiny: true,
                        },
                    ),
                ],
            ),
        ]
    } else {
        vec![
            (
                "sor",
                vec![
                    ("SOR 2048x1024", WorkloadSpec::SorLarge),
                    ("SOR 1024x1024", WorkloadSpec::SorSmall),
                ],
            ),
            (
                "ilink",
                vec![
                    ("ILINK CLP", WorkloadSpec::IlinkClp),
                    ("ILINK BAD", WorkloadSpec::IlinkBad),
                ],
            ),
            (
                "tsp",
                vec![
                    ("TSP 17", WorkloadSpec::Tsp { cities: 17 }),
                    ("TSP 18", WorkloadSpec::Tsp { cities: 18 }),
                ],
            ),
            (
                "water",
                vec![
                    (
                        "Water",
                        WorkloadSpec::Water {
                            modified: false,
                            tiny: false,
                        },
                    ),
                    (
                        "M-Water",
                        WorkloadSpec::Water {
                            modified: true,
                            tiny: false,
                        },
                    ),
                ],
            ),
        ]
    };
    let procs = if quick { 4usize } else { 8 };
    let sections = apps
        .into_iter()
        .map(|(id, probes)| {
            let mut requests = Vec::new();
            for (_, w) in &probes {
                requests.push(req(Platform::Dec, w.clone()));
                requests.push(req(Platform::Sgi { procs: 1 }, w.clone()));
                requests.push(req(Platform::Sgi { procs }, w.clone()));
                requests.push(req(Platform::treadmarks(1), w.clone()));
                requests.push(req(Platform::treadmarks(procs), w.clone()));
            }
            let render: Render = Box::new(move |ctx| {
                let mut out = String::new();
                for (name, w) in &probes {
                    let dec = ctx.wsecs(&req(Platform::Dec, w.clone()))?;
                    let wall_dec = ctx.job(&req(Platform::Dec, w.clone()))?.host_ms / 1e3;
                    let sgi1 = ctx.secs(&req(Platform::Sgi { procs: 1 }, w.clone()))?;
                    let sgi8 = ctx.wsecs(&req(Platform::Sgi { procs }, w.clone()))?;
                    let wall_sgi = (ctx.job(&req(Platform::Sgi { procs: 1 }, w.clone()))?.host_ms
                        + ctx.job(&req(Platform::Sgi { procs }, w.clone()))?.host_ms)
                        / 1e3;
                    let tmk1 = ctx.secs(&req(Platform::treadmarks(1), w.clone()))?;
                    let r8 = ctx.report(&req(Platform::treadmarks(procs), w.clone()))?;
                    let tmk8 = r8.window_seconds();
                    let wall_tmk = (ctx.job(&req(Platform::treadmarks(1), w.clone()))?.host_ms
                        + ctx.job(&req(Platform::treadmarks(procs), w.clone()))?.host_ms)
                        / 1e3;
                    let t = r8.window_traffic();
                    let secs = r8.window_seconds();
                    writeln!(
                        out,
                        "{name:<14} dec1={dec:>7.2}s sgi1={sgi1:>7.2}s tmk1={tmk1:>7.2}s | \
                         sgi{procs} su={:>5.2} tmk{procs} su={:>5.2} | \
                         msg/s={:>8.0} KB/s={:>7.0} | wall {wall_dec:.1}/{wall_sgi:.1}/{wall_tmk:.1}s",
                        dec / sgi8,
                        dec / tmk8,
                        t.total_msgs() as f64 / secs,
                        t.total_bytes() as f64 / 1024.0 / secs,
                    )
                    .unwrap();
                    let s = r8.dsm;
                    writeln!(
                        out,
                        "{:<14} tmk{procs}: barriers/s={:.1} remote-locks/s={:.0} diffs={} pages={} twins={}",
                        "",
                        s.barriers as f64 / procs as f64 / secs,
                        s.remote_lock_acquires as f64 / secs,
                        s.diffs_created,
                        s.full_page_fetches,
                        s.twins_created,
                    )
                    .unwrap();
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();
    Experiment {
        id: "calibrate",
        title: "parameter sanity probes with host wall times (not a figure)",
        default: false,
        header: None,
        sections,
    }
}

/// Large-cluster scaling: SOR and TSP on the AS and HS designs out to 256
/// nodes — machine sizes the per-processor-thread engine could not touch,
/// practical on the cooperative event loop. Extends the Figure 9/10 curves
/// (whose 64-processor points memoize with this experiment's smallest size).
fn scaling256(tier: Tier) -> Experiment {
    // (AS node counts, HS (nodes, per_node) shapes, speedup base = AS-1).
    let (as_procs, hs_shapes): (Vec<usize>, Vec<(usize, usize)>) = match tier {
        Tier::Full => (vec![64, 128, 256], vec![(8, 8), (16, 8), (32, 8)]),
        Tier::Quick => (vec![8, 16], vec![(4, 2), (8, 2)]),
    };
    let apps: Vec<(&'static str, &'static str, WorkloadSpec)> = match tier {
        Tier::Full => vec![
            ("sor", "SOR 1024x1024", WorkloadSpec::SorSmall),
            ("tsp", "TSP 18 cities", WorkloadSpec::Tsp { cities: 18 }),
        ],
        Tier::Quick => vec![
            ("sor", "SOR tiny", WorkloadSpec::SorTiny),
            ("tsp", "TSP 10 cities", WorkloadSpec::Tsp { cities: 10 }),
        ],
    };

    let sections = apps
        .iter()
        .map(|(id, name, w)| {
            let mut requests = vec![req(Platform::as_sim(1), w.clone())];
            for &n in &as_procs {
                requests.push(req(Platform::as_sim(n), w.clone()));
            }
            for &(nodes, per_node) in &hs_shapes {
                requests.push(req(Platform::hs_sim(nodes, per_node), w.clone()));
            }
            let (name, w) = (*name, w.clone());
            let (as_procs, hs_shapes) = (as_procs.clone(), hs_shapes.clone());
            let render: Render = Box::new(move |ctx| {
                let base = ctx.wsecs(&req(Platform::as_sim(1), w.clone()))?;
                let mut out = String::new();
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "{name} — large-cluster speedup vs processors (AS / HS)"
                )
                .unwrap();
                writeln!(
                    out,
                    "{:>6} {:>12} {:>10} {:>12} {:>10}",
                    "procs", "AS", "speedup", "HS", "speedup"
                )
                .unwrap();
                for (&n, &(nodes, per_node)) in as_procs.iter().zip(&hs_shapes) {
                    let a = ctx.wsecs(&req(Platform::as_sim(n), w.clone()))?;
                    let h = ctx.wsecs(&req(Platform::hs_sim(nodes, per_node), w.clone()))?;
                    // Speedups below 1 are reported, not failed: rollover at
                    // scale (communication swamping a fixed input) is exactly
                    // what this experiment exists to measure.
                    let (sa, sh) = (base / a, base / h);
                    writeln!(
                        out,
                        "{n:>6} {:>12} {sa:>9.2}x {:>12} {sh:>9.2}x",
                        fmt_secs(a),
                        fmt_secs(h),
                    )
                    .unwrap();
                }
                Ok(out)
            });
            Section::new(id, requests, render)
        })
        .collect();

    Experiment {
        id: "scaling256",
        title: "SOR and TSP on AS/HS clusters out to 256 nodes",
        default: true,
        header: Some(
            "Large-cluster scaling on the simulated AS and HS designs: the \
             Figure 9/10\nworkloads pushed to 256 nodes (8 processors per HS \
             node), far past the paper's\n64-processor ceiling.\n"
                .to_string(),
        ),
        sections,
    }
}

/// Every experiment of the case study at the given tier, in print order.
fn service(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let nodes: usize = if quick { 2 } else { 4 };
    let tenant_counts: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 4, 8] };
    let (keys, windows, offered): (usize, u64, u64) =
        if quick { (16, 3, 6) } else { (64, 8, 16) };
    let seed: u64 = 0x5e71_ce00;

    let base = move |tenants: usize| ServiceSpec {
        nodes,
        tenants,
        solo: None,
        keys,
        windows,
        offered,
        queue_cap: 256,
        batch_cap: 1024,
        seed,
        drop_pm: 0,
        delay_pm: 0,
        crash: false,
    };
    let sreq = |spec: ServiceSpec| req(Platform::as_sim(spec.nodes), WorkloadSpec::Service(spec));
    // label, drop per-mille, delay per-mille, crash scheduled, expected
    // rollbacks.
    let fault_variants: Vec<(&'static str, u64, u64, bool, u64)> = vec![
        ("drop 5%", 50, 0, false, 0),
        ("drop+delay", 50, 50, false, 0),
        ("crash", 0, 0, true, 1),
        ("drop+delay+crash", 50, 50, true, 1),
    ];

    let mut sections = Vec::new();

    // --- tenants: multi-tenant runs vs fault-free solo baselines ----------
    {
        let tenant_counts = tenant_counts.clone();
        let mut requests = Vec::new();
        for &tc in &tenant_counts {
            requests.push(sreq(base(tc)));
            for t in 0..tc {
                requests.push(sreq(ServiceSpec {
                    solo: Some(t),
                    ..base(tc)
                }));
            }
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "Multi-tenant service on the real-thread runtime ({nodes} nodes, \
                 Zipf 0.9 clients, {offered} req/tenant/window over {windows} \
                 windows):"
            )
            .unwrap();
            for &tc in &tenant_counts {
                let multi = ctx.data(&sreq(base(tc)))?;
                let svc = multi
                    .report
                    .service
                    .as_ref()
                    .ok_or("service run carried no service block")?;
                if svc.total_shed != 0 {
                    return Err(format!(
                        "{tc} tenants: baseline offered load shed {} requests; \
                         the admission gate must absorb it",
                        svc.total_shed
                    ));
                }
                writeln!(
                    out,
                    "  {tc} tenants: epochs={} makespan={}us lock-counter={} shed=0",
                    svc.epochs, svc.makespan_us, svc.lock_counter,
                )
                .unwrap();
                for (t, rep) in svc.tenants.iter().enumerate() {
                    let solo = ctx.data(&sreq(ServiceSpec {
                        solo: Some(t),
                        ..base(tc)
                    }))?;
                    let ssvc = solo
                        .report
                        .service
                        .as_ref()
                        .ok_or("solo run carried no service block")?;
                    let srep = &ssvc.tenants[0];
                    if srep.checksum != rep.checksum {
                        return Err(format!(
                            "{tc} tenants: tenant {t} memory diverged from its \
                             fault-free solo baseline ({:#018x} vs {:#018x})",
                            rep.checksum, srep.checksum
                        ));
                    }
                    if srep.offered != rep.offered || srep.completed != rep.completed {
                        return Err(format!(
                            "{tc} tenants: tenant {t} schedule diverged from solo \
                             (completed {} vs {})",
                            rep.completed, srep.completed
                        ));
                    }
                    writeln!(
                        out,
                        "    tenant {t}: offered={:<4} completed={:<4} shed={:<3} \
                         {:>6} req/s  p50={}us p99={}us  checksum ok",
                        rep.offered,
                        rep.completed,
                        rep.shed,
                        rep.throughput_rps,
                        rep.p50_us,
                        rep.p99_us,
                    )
                    .unwrap();
                }
            }
            Ok(out)
        });
        sections.push(Section::new("tenants", requests, render));
    }

    // --- faults: drop/delay/crash sweep must not change any tenant --------
    {
        let tenant_counts = tenant_counts.clone();
        let fault_variants = fault_variants.clone();
        let mut requests = Vec::new();
        for &tc in &tenant_counts {
            requests.push(sreq(base(tc)));
            for &(_, drop_pm, delay_pm, crash, _) in &fault_variants {
                requests.push(sreq(ServiceSpec {
                    drop_pm,
                    delay_pm,
                    crash,
                    ..base(tc)
                }));
            }
        }
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "Fault sweep: seeded link faults and a scheduled node crash \
                 against the live service.\nEvery tenant's results must stay \
                 byte-identical to the fault-free run:"
            )
            .unwrap();
            for &tc in &tenant_counts {
                let clean = ctx.data(&sreq(base(tc)))?;
                let csvc = clean
                    .report
                    .service
                    .as_ref()
                    .ok_or("service run carried no service block")?;
                writeln!(out, "  {tc} tenants:").unwrap();
                for &(label, drop_pm, delay_pm, crash, rollbacks) in &fault_variants {
                    let spec = ServiceSpec {
                        drop_pm,
                        delay_pm,
                        crash,
                        ..base(tc)
                    };
                    let d = ctx.data(&sreq(spec))?;
                    let svc = d
                        .report
                        .service
                        .as_ref()
                        .ok_or("service run carried no service block")?;
                    if d.checksums != clean.checksums || svc.tenants != csvc.tenants {
                        return Err(format!(
                            "{tc} tenants, {label}: per-tenant results diverged \
                             from the fault-free run"
                        ));
                    }
                    if svc.rollbacks != rollbacks || svc.crashes != rollbacks {
                        return Err(format!(
                            "{tc} tenants, {label}: expected {rollbacks} \
                             crash/rollback(s), saw crashes={} rollbacks={}",
                            svc.crashes, svc.rollbacks
                        ));
                    }
                    if svc.total_shed != 0 {
                        return Err(format!(
                            "{tc} tenants, {label}: faults caused {} sheds at \
                             baseline offered load",
                            svc.total_shed
                        ));
                    }
                    writeln!(
                        out,
                        "    {label:<16}: crashes={} rollbacks={} checkpoints={} \
                         shed={}  all tenants byte-identical",
                        svc.crashes, svc.rollbacks, svc.checkpoints, svc.total_shed,
                    )
                    .unwrap();
                }
            }
            Ok(out)
        });
        sections.push(Section::new("faults", requests, render));
    }

    // --- overload: bounded queues shed loudly and deterministically -------
    {
        let tc = tenant_counts[0];
        let overload = move |drop_pm: u64, crash: bool| ServiceSpec {
            offered: 40,
            queue_cap: 4,
            batch_cap: 3,
            drop_pm,
            crash,
            ..base(tc)
        };
        let requests = vec![sreq(overload(0, false)), sreq(overload(50, true))];
        let render: Render = Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "Overload: 40 req/tenant/window into queue_cap=4, batch_cap=3. \
                 Load shedding must be loud (counted per tenant) and \
                 fault-invariant:"
            )
            .unwrap();
            let clean = ctx.data(&sreq(overload(0, false)))?;
            let csvc = clean
                .report
                .service
                .as_ref()
                .ok_or("service run carried no service block")?;
            if csvc.total_shed == 0 {
                return Err("overload shed nothing; the gate is unbounded".to_string());
            }
            let faulty = ctx.data(&sreq(overload(50, true)))?;
            let fsvc = faulty
                .report
                .service
                .as_ref()
                .ok_or("service run carried no service block")?;
            if fsvc.tenants != csvc.tenants || faulty.checksums != clean.checksums {
                return Err(
                    "drop+crash under overload changed the shed schedule or results"
                        .to_string(),
                );
            }
            let completed: u64 = csvc.tenants.iter().map(|t| t.completed).sum();
            if csvc.lock_counter != completed {
                return Err(format!(
                    "lock counter {} disagrees with completed admissions {completed}",
                    csvc.lock_counter
                ));
            }
            for rep in &csvc.tenants {
                writeln!(
                    out,
                    "  tenant {}: offered={:<4} completed={:<4} shed={:<4} \
                     p99={}us",
                    rep.tenant, rep.offered, rep.completed, rep.shed, rep.p99_us,
                )
                .unwrap();
            }
            writeln!(
                out,
                "  total shed={} (identical with drop 5% + node crash: \
                 rollbacks={})",
                csvc.total_shed, fsvc.rollbacks,
            )
            .unwrap();
            Ok(out)
        });
        sections.push(Section::new("overload", requests, render));
    }

    Experiment {
        id: "service",
        title: "multi-tenant DSM service: tenant isolation, fault survival, graceful overload",
        default: true,
        header: Some(
            "Long-lived DSM cluster serving N tenants behind a bounded \
             admission gate, on the real-thread runtime with crash recovery \
             armed.\nSeeded drops, delays and node crashes must leave every \
             tenant's memory and schedule byte-identical to the fault-free \
             run; overload must shed loudly, never silently."
                .to_string(),
        ),
        sections,
    }
}

pub fn registry(tier: Tier) -> Vec<Experiment> {
    vec![
        table1(tier),
        table2(tier),
        fig01_08(tier),
        fig09_11(tier),
        fig12_13(tier),
        fig14_16(tier),
        ablations(tier),
        chaos(tier),
        recovery(tier),
        breakdown(tier),
        scaling(tier),
        scaling256(tier),
        service(tier),
        calibrate(tier),
    ]
}

// ---------------------------------------------------------------------------
// Suite execution
// ---------------------------------------------------------------------------

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
    /// Substring filters over section ids only (legacy `--fig`/`--app`).
    pub section_filters: Vec<String>,
    /// Directory for Chrome trace-event JSON files; also switches traced
    /// runs from ledger-only to full event recording.
    pub trace_dir: Option<String>,
    /// Execution backend every simulation runs on (`suite --engine`).
    pub engine: EngineKind,
    /// Directory for engine op-trace text files (`suite --op-trace`); also
    /// arms op tracing on every run.
    pub op_trace_dir: Option<String>,
}

impl Default for Tier {
    fn default() -> Self {
        Tier::Full
    }
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
    /// Execution backend the simulations ran on.
    pub engine: EngineKind,
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
            .set("schema", "tmk-bench/1")
            .set("tier", self.tier.as_str())
            .set("jobs", self.jobs)
            .set("engine", self.engine.as_str())
            .set("host_parallelism", host)
            .set(
                "experiments",
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(|e| Json::from(e.id))
                        .collect(),
                ),
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
                Json::Arr(
                    self.failed_sections().into_iter().map(Json::from).collect(),
                ),
            )
            .set(
                "total_host_ms",
                self.runs.iter().map(|r| r.host_ms).sum::<f64>(),
            )
            .set("wall_ms", self.wall_ms)
            .set(
                "runs",
                Json::Arr(self.runs.iter().map(run_json).collect()),
            )
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
                .set("schema", "tmk-bench/1")
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
                                    .set(
                                        "status",
                                        if s.error.is_none() { "ok" } else { "failed" },
                                    );
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
    let mut j = Json::obj()
        .set("key", r.key.as_str())
        .set("platform", r.platform.as_str())
        .set("platform_name", r.platform_name)
        .set("workload", r.workload.as_str())
        .set("params", r.params.as_str())
        .set("procs", r.procs)
        .set(
            "status",
            if r.data.is_ok() { "ok" } else { "failed" },
        )
        .set("host_ms", r.host_ms);
    match &r.data {
        Ok(d) => {
            j = j.set("checksum", d.checksums.iter().sum::<f64>());
            j = j.set("report", d.report.to_json());
            if let Some(tr) = &d.trace {
                let mut totals = [0u64; NCAT];
                for row in &tr.breakdown {
                    for (t, v) in totals.iter_mut().zip(row) {
                        *t += *v;
                    }
                }
                // The recovery column (always last) only appears once a
                // crash plan actually charged it, so crash-free reports —
                // including every previously published one — keep their
                // exact shape.
                let ncols = if totals[Category::Recovery.index()] > 0 {
                    NCAT
                } else {
                    NCAT - 1
                };
                let mut b = Json::obj();
                for (i, cat) in Category::ALL.iter().enumerate().take(ncols) {
                    b = b.set(cat.name(), totals[i]);
                }
                b = b.set(
                    "per_proc",
                    Json::Arr(
                        tr.breakdown
                            .iter()
                            .map(|row| {
                                Json::Arr(
                                    row.iter().take(ncols).map(|&v| Json::UInt(v)).collect(),
                                )
                            })
                            .collect(),
                    ),
                );
                j = j.set("breakdown", b);
            }
            j
        }
        Err(e) => j.set("error", e.as_str()),
    }
}

/// Run the selected experiments: expand the registry, schedule every request
/// across `opts.jobs` workers with memoization, then render each section.
///
/// Returns `Err` only for unusable options (an unknown experiment id); runs
/// that panic or sections that fail to render are captured in the result, not
/// fatal.
pub fn run_suite(opts: &Options) -> Result<SuiteResult, String> {
    let started = std::time::Instant::now();
    set_engine_kind(opts.engine);
    set_op_trace(opts.op_trace_dir.is_some());
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
    let no_filters = opts.filters.is_empty() && opts.section_filters.is_empty();
    for exp in &mut registry {
        let exp_id = exp.id;
        exp.sections.retain(|sec| {
            if no_filters {
                return true;
            }
            let sec_id = if sec.id.is_empty() { exp_id } else { sec.id };
            let full = if sec.id.is_empty() {
                exp_id.to_string()
            } else {
                format!("{exp_id}/{}", sec.id)
            };
            opts.filters.iter().any(|f| full.contains(f.as_str()))
                || opts
                    .section_filters
                    .iter()
                    .any(|f| sec_id.contains(f.as_str()))
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
    // Event rings are only worth their memory when someone will read the
    // events; without --trace the ledger alone is kept.
    let ring_cap = if opts.trace_dir.is_some() { 1 << 16 } else { 0 };
    let memo = run_jobs_traced(&requests, jobs, ring_cap);

    let ctx = Ctx { memo: &memo };
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
            keys.sort_unstable();
            keys.dedup();
            match (sec.render)(&ctx) {
                Ok(s) => {
                    text.push_str(&s);
                    sections.push(SectionOutcome {
                        name,
                        keys,
                        error: None,
                    });
                }
                Err(e) => {
                    let _ = writeln!(text, "!! {name}: {e}");
                    sections.push(SectionOutcome {
                        name,
                        keys,
                        error: Some(e),
                    });
                }
            }
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
        engine: opts.engine,
        experiments,
        runs: memo.sorted_runs().into_iter().cloned().collect(),
        requests: total_requests,
        memo_hits: memo.hits,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

// ---------------------------------------------------------------------------
// Cross-engine host-time benchmark
// ---------------------------------------------------------------------------

/// One unique run of the cross-engine benchmark: the same simulation
/// executed on both backends.
#[derive(Debug)]
pub struct EngineBenchRow {
    /// The memo key.
    pub key: String,
    /// [`Platform::key`] of the platform.
    pub platform: String,
    /// Application name.
    pub workload: String,
    /// Processors simulated.
    pub procs: usize,
    /// Host milliseconds on the threaded engine.
    pub threaded_ms: f64,
    /// Host milliseconds on the cooperative engine.
    pub coop_ms: f64,
    /// Whether the two engines produced byte-identical simulated records
    /// ([`sim_record`]).
    pub parity: bool,
}

/// Results of `suite engine-bench`: every default-registry run executed on
/// both engines, with host times and a result-parity verdict per run.
#[derive(Debug)]
pub struct EngineBench {
    /// Tier the benchmark ran at.
    pub tier: Tier,
    /// Worker threads used (1 isolates engine speed from host parallelism).
    pub jobs: usize,
    /// Per-run comparisons, sorted by memo key.
    pub rows: Vec<EngineBenchRow>,
    /// Host wall-clock for the whole threaded pass, milliseconds.
    pub threaded_wall_ms: f64,
    /// Host wall-clock for the whole cooperative pass, milliseconds.
    pub coop_wall_ms: f64,
    /// Experiment ids left out of the comparison.
    pub excluded: Vec<&'static str>,
}

impl EngineBench {
    /// Full-pass host-wall speedup of the cooperative engine.
    pub fn speedup(&self) -> f64 {
        self.threaded_wall_ms / self.coop_wall_ms.max(1e-9)
    }

    /// Memo keys whose simulated records differ between engines (must be
    /// empty).
    pub fn mismatches(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| !r.parity)
            .map(|r| r.key.as_str())
            .collect()
    }

    /// The machine-readable record (`results/engine_bench.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", "tmk-engine-bench/1")
            .set("tier", self.tier.as_str())
            .set("jobs", self.jobs)
            .set("threaded_wall_ms", self.threaded_wall_ms)
            .set("coop_wall_ms", self.coop_wall_ms)
            .set("speedup", self.speedup())
            .set("parity_ok", self.mismatches().is_empty())
            .set(
                "excluded_experiments",
                Json::Arr(self.excluded.iter().map(|&e| Json::from(e)).collect()),
            )
            .set(
                "runs",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .set("key", r.key.as_str())
                                .set("platform", r.platform.as_str())
                                .set("workload", r.workload.as_str())
                                .set("procs", r.procs)
                                .set("threaded_ms", r.threaded_ms)
                                .set("coop_ms", r.coop_ms)
                                .set("speedup", r.threaded_ms / r.coop_ms.max(1e-9))
                                .set("parity", r.parity)
                        })
                        .collect(),
                ),
            )
    }

    /// The text table (`results/engine_bench.txt`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "Execution-backend benchmark: every default {} -tier run on the \
             threaded and\ncooperative engines ({} worker{}). Simulated \
             results must be byte-identical;\nonly host time may differ.",
            self.tier.as_str(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
        )
        .unwrap();
        if !self.excluded.is_empty() {
            writeln!(
                out,
                "Excluded: {} (256-node runs are impractical on the threaded \
                 engine; the service runs on real OS threads).",
                self.excluded.join(", ")
            )
            .unwrap();
        }
        writeln!(out).unwrap();
        writeln!(
            out,
            "{:<44} {:>5} {:>12} {:>12} {:>8} {:>7}",
            "run", "procs", "threaded", "coop", "speedup", "parity"
        )
        .unwrap();
        for r in &self.rows {
            writeln!(
                out,
                "{:<44} {:>5} {:>10.1}ms {:>10.1}ms {:>7.2}x {:>7}",
                r.key,
                r.procs,
                r.threaded_ms,
                r.coop_ms,
                r.threaded_ms / r.coop_ms.max(1e-9),
                if r.parity { "ok" } else { "DIFFER" },
            )
            .unwrap();
        }
        let sum = |f: fn(&EngineBenchRow) -> f64| self.rows.iter().map(f).sum::<f64>();
        writeln!(out).unwrap();
        writeln!(
            out,
            "per-run host time: {:.1}ms threaded -> {:.1}ms coop",
            sum(|r| r.threaded_ms),
            sum(|r| r.coop_ms),
        )
        .unwrap();
        writeln!(
            out,
            "full-pass wall:    {:.1}ms threaded -> {:.1}ms coop ({:.2}x)",
            self.threaded_wall_ms,
            self.coop_wall_ms,
            self.speedup(),
        )
        .unwrap();
        let bad = self.mismatches();
        if bad.is_empty() {
            writeln!(out, "parity: all {} runs byte-identical", self.rows.len()).unwrap();
        } else {
            writeln!(out, "parity: {} runs DIFFER: {}", bad.len(), bad.join(", ")).unwrap();
        }
        out
    }
}

/// Runs every unique default-registry request on both engines and compares
/// host time and simulated results per run.
pub fn run_engine_bench(tier: Tier, jobs: usize) -> EngineBench {
    // scaling256 exists *because* 256-node runs are impractical on the
    // threaded engine; service runs on real OS threads, so an engine
    // comparison would measure nothing. Everything else runs on both.
    let excluded = vec!["scaling256", "service"];
    let mut experiments = registry(tier);
    experiments.retain(|e| e.default && !excluded.contains(&e.id));
    let requests: Vec<JobRequest> = experiments
        .iter()
        .flat_map(|e| e.sections.iter())
        .flat_map(|s| s.requests.iter().cloned())
        .collect();

    set_op_trace(false);
    let run_pass = |kind: EngineKind| {
        set_engine_kind(kind);
        let started = Instant::now();
        let memo = run_jobs(&requests, jobs);
        (memo, started.elapsed().as_secs_f64() * 1e3)
    };
    let (threaded, threaded_wall_ms) = run_pass(EngineKind::Threaded);
    let (coop, coop_wall_ms) = run_pass(EngineKind::Coop);
    set_engine_kind(EngineKind::default());

    let rows = threaded
        .sorted_runs()
        .into_iter()
        .map(|t| {
            let c = coop
                .map
                .get(&t.key)
                .expect("both passes ran the same request set");
            EngineBenchRow {
                key: t.key.clone(),
                platform: t.platform.clone(),
                workload: t.workload.clone(),
                procs: t.procs,
                threaded_ms: t.host_ms,
                coop_ms: c.host_ms,
                parity: sim_record(t) == sim_record(c),
            }
        })
        .collect();

    EngineBench {
        tier,
        jobs,
        rows,
        threaded_wall_ms,
        coop_wall_ms,
        excluded,
    }
}
