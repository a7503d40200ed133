//! Requests, the memo table, and the scheduler that fans unique runs
//! across host worker threads.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tmk_machines::{Json, Platform, RunOpts, RunReport};
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

/// What `suite --progress` expects each run to cost: the host time of the
/// same key in an earlier `--json` record (the committed
/// `BENCH_results.json`), or the record's median for a key it lacks. The
/// ETA scales these by the pace of the runs already finished, so a tier or
/// a host the record does not describe still gets a meaningful one.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    host_ms: HashMap<String, f64>,
    median_ms: f64,
}

impl Progress {
    /// The estimates of a `--json` record's `runs`; a record without any
    /// gives none, and no ETA.
    pub fn from_record(record: &Json) -> Progress {
        let runs = record.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        let host_ms: HashMap<String, f64> = runs
            .iter()
            .filter_map(|r| {
                Some((
                    r.get("key")?.as_str()?.to_string(),
                    r.get("host_ms")?.as_f64()?,
                ))
            })
            .collect();
        let mut sorted: Vec<f64> = host_ms.values().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let median_ms = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        Progress { host_ms, median_ms }
    }

    fn expected_ms(&self, key: &str) -> f64 {
        self.host_ms.get(key).copied().unwrap_or(self.median_ms)
    }

    /// The stderr line for a finished run, with the expected host time of
    /// the runs still to finish spread over `jobs` workers.
    fn line(&self, done: &JobResult, left: usize, left_ms: f64, jobs: usize) -> String {
        let eta = if self.host_ms.is_empty() {
            "?".to_string()
        } else {
            format!("{:.0} s", left_ms / 1e3 / jobs as f64)
        };
        format!(
            "progress: {} {:.2} s, {left} left, eta {eta}",
            done.key,
            done.host_ms / 1e3
        )
    }
}

/// The host time a suite still has to spend, as `--progress` estimates it.
#[derive(Debug, Default)]
struct Remaining {
    /// Recorded host time of the runs still to finish.
    recorded_ms: f64,
    /// Measured host time of the runs finished so far.
    done_ms: f64,
    /// Recorded host time of the runs finished so far.
    done_recorded_ms: f64,
}

impl Remaining {
    /// Marks a run finished in `measured_ms` that the record priced at
    /// `recorded_ms`.
    fn finish(&mut self, recorded_ms: f64, measured_ms: f64) {
        self.recorded_ms -= recorded_ms;
        self.done_recorded_ms += recorded_ms;
        self.done_ms += measured_ms;
    }

    /// The recorded host time still to spend, scaled by the measured over
    /// the recorded time of the runs already finished.
    fn eta_ms(&self) -> f64 {
        let pace = if self.done_recorded_ms > 0.0 {
            self.done_ms / self.done_recorded_ms
        } else {
            1.0
        };
        self.recorded_ms.max(0.0) * pace
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
    // recorded at all (`--trace`), and its record's breakdown is null.
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
///
/// With `progress`, each finished run prints one stderr line
/// ([`Progress`]); nothing else changes.
pub fn run_jobs(
    requests: &[JobRequest],
    jobs: usize,
    opts: &RunOpts,
    progress: Option<&Progress>,
) -> MemoTable {
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
    let (tx, rx) = std::sync::mpsc::channel();
    let mut map = HashMap::with_capacity(unique.len());
    let mut remaining = Remaining {
        recorded_ms: progress.map_or(0.0, |p| {
            unique.iter().map(|r| p.expected_ms(&r.key())).sum()
        }),
        ..Remaining::default()
    };
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let unique = &unique;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= unique.len() {
                    break;
                }
                // `execute` catches the simulation's panics; a send only
                // fails if the receiver is gone, which it never is here.
                let _ = tx.send(execute(&unique[i], opts));
            });
        }
        drop(tx);
        for r in rx {
            if let Some(p) = progress {
                remaining.finish(p.expected_ms(&r.key), r.host_ms);
                let left = unique.len() - map.len() - 1;
                eprintln!("{}", p.line(&r, left, remaining.eta_ms(), jobs));
            }
            map.insert(r.key.clone(), r);
        }
    });
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs finishing at a tenth of their recorded host time (a quick tier
    /// priced from a full-tier record) bring the ETA to a tenth of the
    /// recorded time left.
    #[test]
    fn eta_scales_by_the_pace_of_the_finished_runs() {
        let mut left = Remaining {
            recorded_ms: 10.0 * 400.0,
            ..Remaining::default()
        };
        assert_eq!(left.eta_ms(), 4000.0, "no run finished: the record");
        for _ in 0..4 {
            left.finish(400.0, 40.0);
        }
        assert!(
            (left.eta_ms() - 6.0 * 40.0).abs() < 1e-9,
            "{}",
            left.eta_ms()
        );
        // A slow run pulls the pace up: 1000 ms for 2000 recorded.
        left.finish(400.0, 840.0);
        assert!((left.eta_ms() - 5.0 * 400.0 * 0.5).abs() < 1e-9);
    }
}
