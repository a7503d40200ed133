//! Declarative workload identities: which application on which input,
//! cheap to clone and compare, instantiated only inside a job.

use std::sync::Arc;

use tmk_apps::{ilink, sor, tsp, water};
use tmk_machines::{run_workload_with, Outcome, Platform, RunOpts, RunReport};
use tmk_parmacs::Workload;
use tmk_trace::{Sink, TraceBuf};

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
            WorkloadSpec::Water { modified, tiny } => {
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
    pub(super) fn run(
        &self,
        platform: &Platform,
        opts: &RunOpts,
    ) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
        if let Some(w) = self.sor() {
            return run_workload_with(platform, &w, opts);
        }
        if let Some(w) = self.ilink() {
            return run_workload_with(platform, &w, opts);
        }
        if let Some(w) = self.water() {
            return run_workload_with(platform, &w, opts);
        }
        match self {
            WorkloadSpec::Tsp { .. } => run_workload_with(platform, &self.tsp_instance(), opts),
            WorkloadSpec::Service(s) => run_service(s, opts),
            WorkloadSpec::PanicProbe => panic!("deliberate panic probe"),
            _ => unreachable!("covered above"),
        }
    }
}

/// TSP with `cities` cities.
pub(super) fn tsp(cities: usize) -> WorkloadSpec {
    WorkloadSpec::Tsp { cities }
}

/// Water (`modified`: M-Water) on the paper's input or the tiny one.
pub(super) fn water(modified: bool, tiny: bool) -> WorkloadSpec {
    WorkloadSpec::Water { modified, tiny }
}

/// Runs the multi-tenant DSM service on the real-thread runtime and
/// packages the outcome like a simulated run: the results vector carries
/// the per-tenant checksums (exactly representable in 53 bits) and the
/// report's service block carries the per-tenant schedule metrics. All of
/// it is deterministic, so service runs memoize and cross-check like any
/// simulated workload.
fn run_service(spec: &ServiceSpec, opts: &RunOpts) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
    let buf = opts
        .trace
        .map(|cap| Arc::new(TraceBuf::new(spec.nodes, cap)));
    let run_opts = tmk_core::runtime::RunOpts {
        faults: spec.faults(),
        trace: buf.clone().map(Sink::new).unwrap_or_default(),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let out = tmk_core::service::run_service(&spec.config(), run_opts);
    let host_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = out.report;

    let results: Vec<f64> = report
        .tenants
        .iter()
        .map(|t| (t.checksum >> 11) as f64)
        .collect();
    let run = RunReport {
        procs: spec.nodes,
        clock_hz: 1_000_000,
        host_ms,
        cycles: report.makespan_us,
        proc_cycles: vec![report.makespan_us; spec.nodes],
        // The record takes the service report's timing-independent
        // counters, not `out.recovery`: its severed-message, token and page
        // counts depend on what was in flight at crash time, and service
        // records must be byte-identical run to run.
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
