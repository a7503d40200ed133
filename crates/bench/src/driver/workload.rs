//! Declarative workload identities: which application on which input,
//! cheap to clone and compare, instantiated only inside a job.

use std::sync::Arc;

use tmk_apps::{ilink, sor, tsp, water};
use tmk_core::service::ServiceConfig;
use tmk_core::{CrashPoint, FaultPlan};
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
}

/// Identity of one service run: the service's configuration plus the
/// channel faults it runs under. Every knob is an integer (rates in
/// per-mille) so the spec derives `Eq` for memoization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpec {
    /// The service: cluster, tenants, client plan and admission gate.
    pub config: ServiceConfig,
    /// Per-copy channel drop probability, per-mille.
    pub drop_pm: u64,
    /// Per-copy channel delay probability, per-mille (200 µs holds).
    pub delay_pm: u64,
    /// Schedule the canonical crash (node 1, epoch 1, first operation).
    pub crash: bool,
}

impl ServiceSpec {
    /// The runtime options: the link fault plan and the crash point.
    fn run_opts(&self, trace: Sink) -> tmk_core::runtime::RunOpts {
        let per_mille = |pm: u64| pm as f64 / 1000.0;
        let plan = FaultPlan::drop_rate(self.config.seed ^ 0xfa17, per_mille(self.drop_pm))
            .with_delay(per_mille(self.delay_pm), 200);
        let crash = CrashPoint {
            node: 1 % self.config.nodes,
            epoch: 1,
            op: 1,
        };
        tmk_core::runtime::RunOpts {
            faults: Some(plan),
            crashes: if self.crash { vec![crash] } else { Vec::new() },
            trace,
        }
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
                let c = &s.config;
                let mut id = format!(
                    "service-n{}t{}k{}w{}o{}q{}b{}s{:x}",
                    c.nodes,
                    c.tenants,
                    c.keys_per_tenant,
                    c.windows,
                    c.offered_per_window,
                    c.queue_cap,
                    c.batch_cap,
                    c.seed,
                );
                if let Some(t) = c.solo {
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
        }
    }

    /// The application this spec names, built from its input.
    fn app(&self) -> Box<dyn App> {
        let ilink = |pedigree| Box::new(ilink::Ilink { pedigree });
        match self {
            WorkloadSpec::IlinkClp => ilink(ilink::Pedigree::clp_like()),
            WorkloadSpec::IlinkBad => ilink(ilink::Pedigree::bad_like()),
            WorkloadSpec::IlinkTiny => ilink(ilink::Pedigree::tiny()),
            WorkloadSpec::SorHuge => Box::new(sor::Sor::huge()),
            WorkloadSpec::SorLarge => Box::new(sor::Sor::large()),
            WorkloadSpec::SorSmall => Box::new(sor::Sor::small()),
            WorkloadSpec::SorTiny => Box::new(sor::Sor::tiny()),
            WorkloadSpec::SorAllChanging { tiny } => {
                let mut w = if *tiny {
                    sor::Sor::tiny()
                } else {
                    sor::Sor::small()
                };
                w.init = sor::SorInit::AllChanging;
                Box::new(w)
            }
            WorkloadSpec::Tsp { cities } => Box::new(tsp::Tsp::new(*cities)),
            WorkloadSpec::Water { modified, tiny } => {
                let mode = if *modified {
                    water::WaterMode::Modified
                } else {
                    water::WaterMode::Original
                };
                Box::new(if *tiny {
                    water::Water::tiny(mode)
                } else {
                    water::Water::paper(mode)
                })
            }
            WorkloadSpec::Service(s) => Box::new(s.clone()),
        }
    }

    /// Application name and parameter string, as the instantiated
    /// application reports them.
    pub fn describe(&self) -> (String, String) {
        self.app().describe()
    }

    /// Instantiates and runs the workload on `platform`.
    pub(super) fn run(
        &self,
        platform: &Platform,
        opts: &RunOpts,
    ) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
        self.app().run(platform, opts)
    }
}

/// What the suite does with an application: name it, and run it on a
/// platform.
trait App {
    /// Application name and parameter string.
    fn describe(&self) -> (String, String);
    /// Runs the application on `platform`.
    fn run(&self, platform: &Platform, opts: &RunOpts) -> (Outcome<f64>, Option<Arc<TraceBuf>>);
}

impl<W: Workload> App for W {
    fn describe(&self) -> (String, String) {
        (self.name().to_string(), self.params())
    }

    fn run(&self, platform: &Platform, opts: &RunOpts) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
        run_workload_with(platform, self, opts)
    }
}

/// The service runs on the real-thread runtime, so it ignores the
/// simulated platform.
impl App for ServiceSpec {
    fn describe(&self) -> (String, String) {
        let c = &self.config;
        (
            "service".to_string(),
            format!(
                "tenants={} keys={} windows={} offered={}/win drop={}pm delay={}pm crash={}",
                c.tenants,
                c.keys_per_tenant,
                c.windows,
                c.offered_per_window,
                self.drop_pm,
                self.delay_pm,
                self.crash,
            ),
        )
    }

    /// Runs the multi-tenant DSM service on the real-thread runtime and
    /// packages the outcome like a simulated run: the results vector carries
    /// the per-tenant checksums (exactly representable in 53 bits) and the
    /// report's service block carries the per-tenant schedule metrics. All of
    /// it is deterministic, so service runs memoize and cross-check like any
    /// simulated workload.
    fn run(&self, _: &Platform, opts: &RunOpts) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
        let buf = opts
            .trace
            .map(|cap| Arc::new(TraceBuf::new(self.config.nodes, cap)));
        let run_opts = self.run_opts(buf.clone().map(Sink::new).unwrap_or_default());
        let started = std::time::Instant::now();
        let report = tmk_core::service::run_service(&self.config, run_opts);
        let host_ms = started.elapsed().as_secs_f64() * 1e3;

        let results: Vec<f64> = report
            .tenants
            .iter()
            .map(|t| (t.checksum >> 11) as f64)
            .collect();
        let run = RunReport {
            procs: self.config.nodes,
            clock_hz: 1_000_000,
            host_ms,
            cycles: report.makespan_us,
            proc_cycles: vec![report.makespan_us; self.config.nodes],
            // The service report carries only the runtime's timing-independent
            // recovery counters, so service records stay byte-identical run to
            // run.
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
}

/// TSP with `cities` cities.
pub(super) fn tsp(cities: usize) -> WorkloadSpec {
    WorkloadSpec::Tsp { cities }
}

/// Water (`modified`: M-Water) on the paper's input or the tiny one.
pub(super) fn water(modified: bool, tiny: bool) -> WorkloadSpec {
    WorkloadSpec::Water { modified, tiny }
}
