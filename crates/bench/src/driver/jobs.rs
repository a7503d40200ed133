//! Requests, the memo table, and the scheduler that fans unique runs
//! across host worker threads.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tmk_machines::{Platform, RunOpts, RunReport};
use tmk_sim::Cycle;
use tmk_trace::NCAT;

use super::workload::WorkloadSpec;

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
    /// execution order — when `suite --op-trace` armed it. `None`
    /// otherwise.
    pub op_trace: Option<Arc<Vec<(usize, Cycle)>>>,
}

/// What the cycle-attribution tracer recorded for one run.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Per-processor cycle ledgers, one `[u64; NCAT]` row per processor in
    /// [`tmk_trace::Category::ALL`] order; each row sums exactly to that
    /// processor's finishing clock.
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
    pub(super) map: HashMap<String, JobResult>,
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
/// host-side `host_ms` field normalized away. Byte-equal strings mean two
/// runs simulated identically — the parity predicate of the driver tests
/// (across worker counts).
pub fn sim_record(r: &JobResult) -> String {
    match &r.data {
        Ok(d) => {
            let mut report = d.report.clone();
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

fn execute(req: &JobRequest, opts: &RunOpts) -> JobResult {
    let (workload, params) = req.workload.describe();
    let start = Instant::now();
    let ring_cap = opts.trace.unwrap_or(0);
    // A service run has no simulated cycles to attribute, only the
    // runtime's recovery events: it records them whenever events are
    // recorded at all (`--trace`), and its ledger rows stay zero.
    let service = matches!(req.workload, WorkloadSpec::Service(_));
    let opts = RunOpts {
        trace: (req.traced || service && ring_cap > 0).then_some(ring_cap),
        ..*opts
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| req.workload.run(&req.platform, &opts)));
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
///
/// Every run executes under `opts`, except that only
/// [`JobRequest::traced`] requests trace: for those `opts.trace` is the
/// per-processor event-ring capacity (`None` or 0 keeps only the cycle
/// ledger, a nonzero capacity also records Chrome-trace events).
pub fn run_jobs(requests: &[JobRequest], jobs: usize, opts: &RunOpts) -> MemoTable {
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
                let _ = tx.send(execute(&unique[i], opts));
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
