//! One entry point to run an application on any of the five platforms.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use tmk_core::DsmProtocol;
use tmk_net::SoftwareOverhead;
use tmk_parmacs::{Alloc, InitWriter, System};
use tmk_sim::{CoopEngine, Ctx, Cycle, EngineKind};
use tmk_trace::{Sink, TraceBuf};

use crate::dsm::{DsmMachine, DsmParams, DsmSys};
use crate::hw::{HwMachine, HwParams, HwSys};
use crate::hybrid::{HsMachine, HsParams, HsSys};
use crate::{Outcome, RunReport};

/// How a run executes, as opposed to what it simulates. None of these
/// affect simulated results — only host-side execution and what is recorded
/// — so none contribute to [`Platform::key`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Per-processor event-ring capacity: `Some(cap)` arms a [`TraceBuf`]
    /// whose per-category cycle ledger and Chrome-trace events are returned
    /// alongside the outcome (`Some(0)` keeps the ledger but records no
    /// events). `None` runs untraced — the zero-cost default — and returns
    /// no buffer. A traced run is cycle-identical to an untraced one.
    pub trace: Option<usize>,
    /// Record the engine op trace into [`Outcome::op_trace`].
    pub op_trace: bool,
}

/// DSM knobs shared by the software and hybrid platforms, for ablations.
/// Except for `protocol`, every field means the same on both: they
/// configure the inter-node fabric the two machines share.
#[derive(Debug, Clone, Default)]
pub struct DsmTuning {
    /// Overrides the platform's page size.
    pub page_size: Option<usize>,
    /// Locks that release eagerly (the paper's TSP modification).
    pub eager_locks: Vec<usize>,
    /// Every lock releases eagerly.
    pub eager_all: bool,
    /// Which protocol the AS cluster runs (the hybrid always runs LRC).
    pub protocol: DsmProtocol,
    /// Seeded fault injection on the links between nodes
    /// (drop/duplicate/delay, plus scheduled node crashes — on the hybrid
    /// a crash entry's `node` is an SMP node); `None` = a perfect network.
    /// On the hybrid the plan additionally seeds each node's flaky bus,
    /// with the drop rate as the strike rate (struck transactions retry:
    /// masked by hardware, costing only time).
    pub faults: Option<tmk_net::FaultPlan>,
    /// Arms the end-to-end retransmission layer (per-message sequence
    /// numbers, piggybacked acks, timeout + exponential backoff,
    /// duplicate suppression). `None` sends raw datagrams: any dropped
    /// message hangs its cascade until the watchdog fires.
    pub reliability: Option<tmk_core::RetransmitPolicy>,
    /// Aborts the run with a per-processor diagnostic dump once any
    /// simulated clock passes this budget (livelock guard).
    pub watchdog_budget: Option<Cycle>,
    /// Barrier-time consistency-metadata garbage collection: nodes whose
    /// interval/diff footprint reaches this many bytes request a collection
    /// at the next barrier. `None` disables GC and its memory ledger;
    /// `Some(u64::MAX)` keeps the ledger without ever collecting
    /// (the measurement baseline for GC ablations).
    pub gc: Option<u64>,
    /// Arms barrier-epoch checkpointing: every barrier release at its
    /// manager node records a consistent cut, the prerequisite
    /// for surviving a crash schedule in [`tmk_net::FaultPlan::crashes`].
    /// Checkpoint copies and crash recovery cost simulated time (the copy
    /// work lands with the barrier episode, recovery in its own ledger
    /// category), so this is off by default.
    pub checkpoints: bool,
}

/// The five platforms of the case study.
#[derive(Debug, Clone)]
pub enum Platform {
    /// A single DECstation-5000/240 (the baseline of Table 1 and the
    /// denominator of the TreadMarks speedups).
    Dec,
    /// The SGI 4D/480 bus machine with `procs` processors (≤ 8).
    Sgi {
        /// Processor count.
        procs: usize,
    },
    /// TreadMarks on uniprocessor nodes over a general-purpose network:
    /// the Part-1 cluster (`part1: true`, DECstation/ATM/Ultrix parameters)
    /// or the simulation study's AS design (100 MHz parameters).
    AsCluster {
        /// Node count (= processor count).
        procs: usize,
        /// Use the Part-1 experimental parameters instead of the Part-2
        /// simulation parameters.
        part1: bool,
        /// Software overhead override (kernel-level TreadMarks, Figures
        /// 14–15 sweeps); `None` keeps the platform default.
        so: Option<SoftwareOverhead>,
        /// DSM knobs.
        tuning: DsmTuning,
    },
    /// The all-hardware directory design.
    Ah {
        /// Processor count (≤ 64).
        procs: usize,
        /// Seeded flaky-fabric injection: `drop` is reused as the per-
        /// transaction strike rate (a struck directory request is NACKed
        /// and retried — masked by hardware, it only costs time). `None`
        /// = a fault-free fabric.
        faults: Option<tmk_net::FaultPlan>,
    },
    /// The hardware–software hybrid: `nodes` bus-based SMPs of `per_node`
    /// processors each.
    Hs {
        /// Node count.
        nodes: usize,
        /// Processors per node.
        per_node: usize,
        /// Software overhead override (Figure 16 sweep).
        so: Option<SoftwareOverhead>,
        /// DSM knobs.
        tuning: DsmTuning,
    },
}

impl Platform {
    /// Total processors this platform simulates.
    pub fn procs(&self) -> usize {
        match self {
            Platform::Dec => 1,
            Platform::Sgi { procs } | Platform::Ah { procs, .. } => *procs,
            Platform::AsCluster { procs, .. } => *procs,
            Platform::Hs {
                nodes, per_node, ..
            } => nodes * per_node,
        }
    }

    /// A short display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::Dec => "DECstation-5000/240",
            Platform::Sgi { .. } => "SGI 4D/480",
            Platform::AsCluster { part1: true, .. } => "TreadMarks/ATM",
            Platform::AsCluster { part1: false, .. } => "AS",
            Platform::Ah { .. } => "AH",
            Platform::Hs { .. } => "HS",
        }
    }

    /// A stable identity string: equal keys mean runs are interchangeable
    /// (same parameters, same simulated result), so benchmark drivers can
    /// memoize on it. Every knob that affects timing contributes a fragment.
    pub fn key(&self) -> String {
        fn frags(so: &Option<SoftwareOverhead>, tuning: &DsmTuning) -> String {
            let mut s = String::new();
            if let Some(so) = so {
                s.push_str(&format!(
                    "/so{}-{}-{}-{}-{}",
                    so.fixed_send, so.fixed_recv, so.per_word, so.handler, so.diff_per_word
                ));
            }
            if let Some(page) = tuning.page_size {
                s.push_str(&format!("/pg{page}"));
            }
            if tuning.eager_all {
                s.push_str("/ea");
            } else if !tuning.eager_locks.is_empty() {
                let ids: Vec<String> = tuning.eager_locks.iter().map(|l| l.to_string()).collect();
                s.push_str(&format!("/el{}", ids.join(",")));
            }
            if matches!(tuning.protocol, DsmProtocol::Ivy) {
                s.push_str("/ivy");
            }
            if let Some(f) = &tuning.faults {
                s.push_str(&format!(
                    "/fs{}d{}u{}y{}c{}m{:02x}",
                    f.seed, f.drop, f.dup, f.delay, f.delay_cycles, f.class_mask
                ));
                if !f.crashes.is_empty() {
                    let cs: Vec<String> = f
                        .crashes
                        .iter()
                        .map(|c| match c.restart_after {
                            Some(d) => format!("{}@{}+{}", c.node, c.at, d),
                            None => format!("{}@{}", c.node, c.at),
                        })
                        .collect();
                    s.push_str(&format!("/cr{}", cs.join(",")));
                }
            }
            if let Some(r) = &tuning.reliability {
                s.push_str(&format!("/rt{}b{}r{}", r.timeout, r.backoff, r.max_retries));
                if let Some(a) = &r.adaptive {
                    s.push_str(&format!("/a{}-{}", a.floor, a.ceiling));
                }
            }
            if let Some(w) = tuning.watchdog_budget {
                s.push_str(&format!("/wd{w}"));
            }
            if let Some(g) = tuning.gc {
                s.push_str(&format!("/gc{g}"));
            }
            if tuning.checkpoints {
                s.push_str("/ck");
            }
            s
        }
        match self {
            Platform::Dec => "dec".to_string(),
            Platform::Sgi { procs } => format!("sgi/p{procs}"),
            Platform::Ah { procs, faults } => {
                let mut s = format!("ah/p{procs}");
                if let Some(f) = faults {
                    s.push_str(&format!("/fb{}d{}", f.seed, f.drop));
                }
                s
            }
            Platform::AsCluster {
                procs,
                part1,
                so,
                tuning,
            } => {
                let base = if *part1 { "tmk" } else { "as" };
                format!("{base}/p{procs}{}", frags(so, tuning))
            }
            Platform::Hs {
                nodes,
                per_node,
                so,
                tuning,
            } => format!("hs/n{nodes}x{per_node}{}", frags(so, tuning)),
        }
    }

    /// Convenience constructor for the Part-1 TreadMarks cluster.
    pub fn treadmarks(procs: usize) -> Platform {
        Platform::AsCluster {
            procs,
            part1: true,
            so: None,
            tuning: DsmTuning::default(),
        }
    }

    /// Convenience constructor for the simulated AS design.
    pub fn as_sim(procs: usize) -> Platform {
        Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning: DsmTuning::default(),
        }
    }

    /// Convenience constructor for the fault-free AH design.
    pub fn ah(procs: usize) -> Platform {
        Platform::Ah {
            procs,
            faults: None,
        }
    }

    /// Convenience constructor for the simulated HS design.
    pub fn hs_sim(nodes: usize, per_node: usize) -> Platform {
        Platform::Hs {
            nodes,
            per_node,
            so: None,
            tuning: DsmTuning::default(),
        }
    }
}

/// Runs an application on a platform.
///
/// `plan` lays out shared data in a `segment_bytes` segment, `init` writes
/// the initial contents on the master (pre-parallel), and `body` runs on
/// every simulated processor. Returns per-processor results plus the
/// measurement report.
pub fn run_on<P, R, FP, FI, FB>(
    platform: &Platform,
    segment_bytes: usize,
    plan: FP,
    init: FI,
    body: FB,
) -> Outcome<R>
where
    P: Send + Sync,
    R: Send,
    FP: FnOnce(&mut Alloc) -> P,
    FI: FnOnce(&P, &mut dyn InitWriter),
    FB: Fn(&dyn System, &P) -> R + Send + Sync,
{
    run_on_with(
        platform,
        segment_bytes,
        plan,
        init,
        body,
        &RunOpts::default(),
    )
    .0
}

/// [`run_on`] with the execution spelled out (see [`RunOpts`]); also returns
/// the trace buffer when `opts.trace` armed one.
pub fn run_on_with<P, R, FP, FI, FB>(
    platform: &Platform,
    segment_bytes: usize,
    plan: FP,
    init: FI,
    body: FB,
    opts: &RunOpts,
) -> (Outcome<R>, Option<Arc<TraceBuf>>)
where
    P: Send + Sync,
    R: Send,
    FP: FnOnce(&mut Alloc) -> P,
    FI: FnOnce(&P, &mut dyn InitWriter),
    FB: Fn(&dyn System, &P) -> R + Send + Sync,
{
    let mut alloc = Alloc::new(segment_bytes);
    let p = plan(&mut alloc);
    let buf = opts
        .trace
        .map(|cap| Arc::new(TraceBuf::new(platform.procs(), cap)));

    let procs = platform.procs();
    let hw = |params: HwParams, faults: &Option<tmk_net::FaultPlan>, init: FI, body: FB| {
        let mut machine = HwMachine::new(params, segment_bytes);
        if let Some(f) = faults {
            machine.set_fabric_faults(tmk_mem::FabricFaults::new(f.seed, f.drop));
        }
        init(&p, &mut machine);
        let hooks = Hooks {
            set_tracer: HwMachine::set_tracer,
            fill_report: HwMachine::fill_report,
            diagnostics: None,
            budget: None,
        };
        run_machine(opts, machine, procs, hooks, buf.clone(), |ctx| {
            body(&HwSys::new(ctx), &p)
        })
    };
    let out = match platform {
        Platform::Dec => hw(HwParams::dec_5000_240(), &None, init, body),
        Platform::Sgi { procs } => hw(HwParams::sgi_4d480(*procs), &None, init, body),
        Platform::Ah { procs, faults } => hw(HwParams::ah(*procs), faults, init, body),
        Platform::AsCluster {
            procs,
            part1,
            so,
            tuning,
        } => {
            let mut params = if *part1 {
                DsmParams::treadmarks_dec_atm(*procs)
            } else {
                DsmParams::as_sim(*procs)
            };
            if let Some(so) = so {
                params.so = *so;
            }
            let mut machine = DsmMachine::new(params, segment_bytes, tuning);
            init(&p, &mut machine);
            let hooks = Hooks {
                set_tracer: DsmMachine::set_tracer,
                fill_report: DsmMachine::fill_report,
                diagnostics: Some(|m| m.fabric.diagnostics()),
                budget: tuning.watchdog_budget,
            };
            run_machine(opts, machine, *procs, hooks, buf.clone(), |ctx| {
                body(&DsmSys::new(ctx), &p)
            })
        }
        Platform::Hs {
            nodes,
            per_node,
            so,
            tuning,
        } => {
            let mut params = HsParams::hs_sim(*nodes, *per_node);
            if let Some(so) = so {
                params.so = *so;
            }
            let mut machine = HsMachine::new(params, segment_bytes, tuning);
            init(&p, &mut machine);
            let hooks = Hooks {
                set_tracer: HsMachine::set_tracer,
                fill_report: HsMachine::fill_report,
                diagnostics: Some(|m| m.fabric.diagnostics()),
                budget: tuning.watchdog_budget,
            };
            run_machine(opts, machine, procs, hooks, buf.clone(), |ctx| {
                body(&HsSys::new(ctx), &p)
            })
        }
    };
    (out, buf)
}

/// Cross-checks a finished report: traffic class/byte accounting must
/// reconcile, and when tracing was armed every processor's per-category
/// cycle ledger must sum exactly to its finishing clock.
fn audit(report: &RunReport, buf: &Option<Arc<TraceBuf>>) {
    if let Err(e) = report.traffic.check() {
        panic!("{e}");
    }
    if let Err(e) = report.mark_traffic.check() {
        panic!("mark snapshot: {e}");
    }
    if let Some(buf) = buf {
        if let Err(e) = buf.check(&report.proc_cycles) {
            panic!("{e}");
        }
    }
}

fn collect<R>(results: Mutex<Vec<Option<R>>>) -> Vec<R> {
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every processor returned"))
        .collect()
}

/// What the run loop needs to know about a platform's machine model.
struct Hooks<M> {
    set_tracer: fn(&mut M, Sink),
    fill_report: fn(&M, &mut RunReport),
    /// Machine-state renderer for the watchdog's dump.
    diagnostics: Option<fn(&M) -> String>,
    /// Per-processor cycle ceiling for the engine's watchdog.
    budget: Option<Cycle>,
}

/// Runs `body` on every simulated processor of `machine` and assembles the
/// audited report. The one run loop behind every platform.
fn run_machine<M: Send + 'static, R: Send>(
    opts: &RunOpts,
    mut machine: M,
    procs: usize,
    hooks: Hooks<M>,
    trace: Option<Arc<TraceBuf>>,
    body: impl Fn(&Ctx<'_, M>) -> R + Send + Sync,
) -> Outcome<R> {
    if let Some(buf) = &trace {
        (hooks.set_tracer)(&mut machine, Sink::new(buf.clone()));
    }
    let mut engine = CoopEngine::new(machine, procs);
    if let Some(diagnostics) = hooks.diagnostics {
        engine = engine.with_diagnostics(diagnostics);
    }
    if opts.op_trace {
        engine = engine.with_op_trace(true);
    }
    if let Some(b) = hooks.budget {
        engine = engine.with_cycle_budget(b);
    }
    if let Some(buf) = &trace {
        engine = engine.with_tracer(buf.clone());
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..procs).map(|_| None).collect());
    let started = Instant::now();
    let run = engine.run(|ctx| {
        let out = body(ctx);
        results.lock()[ctx.id()] = Some(out);
    });
    let host_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut report = RunReport {
        procs,
        host_ms,
        cycles: run.time(),
        proc_cycles: run.clocks.clone(),
        ..Default::default()
    };
    (hooks.fill_report)(&run.machine, &mut report);
    audit(&report, &trace);
    Outcome {
        results: collect(results),
        report,
        op_trace: run.op_trace,
    }
}

/// Runs a [`Workload`](tmk_parmacs::Workload) on a platform, returning the
/// per-processor checksums plus the measurement report.
pub fn run_workload<W: tmk_parmacs::Workload>(platform: &Platform, w: &W) -> Outcome<f64> {
    run_workload_with(platform, w, &RunOpts::default()).0
}

/// [`run_workload`] with tracing (see [`RunOpts::trace`]).
pub fn run_workload_traced<W: tmk_parmacs::Workload>(
    platform: &Platform,
    w: &W,
    trace: Option<usize>,
) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
    let opts = RunOpts {
        trace,
        ..Default::default()
    };
    run_workload_with(platform, w, &opts)
}

/// [`run_workload`] with the execution spelled out (see [`run_on_with`]).
pub fn run_workload_with<W: tmk_parmacs::Workload>(
    platform: &Platform,
    w: &W,
    opts: &RunOpts,
) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
    run_on_with(
        platform,
        w.segment_bytes(),
        |alloc| w.plan(alloc),
        |plan, writer| w.init(plan, writer),
        |sys, plan| w.body(sys, plan),
        opts,
    )
}

/// [`run_workload_with`] in the argument order the `benchmark/` harness
/// calls.
pub fn run_workload_traced_with<W: tmk_parmacs::Workload>(
    // Kept for `benchmark/`, which passes it; goes in the next `[benchmark]` PR.
    _engine: EngineKind,
    platform: &Platform,
    w: &W,
    trace: Option<usize>,
) -> (Outcome<f64>, Option<Arc<TraceBuf>>) {
    let opts = RunOpts {
        trace,
        op_trace: false,
    };
    run_workload_with(platform, w, &opts)
}

/// Runs `body` on a platform with a bare 64 KB segment the test addresses
/// directly. Traced, so the run loop's audit also proves the cycle ledger
/// sums to every processor's clock.
#[cfg(test)]
pub(crate) fn run_body<R: Send>(
    platform: &Platform,
    body: impl Fn(&dyn System) -> R + Send + Sync,
) -> (Vec<R>, RunReport) {
    let run = |sys: &dyn System, _: &()| body(sys);
    let opts = RunOpts {
        trace: Some(0),
        ..Default::default()
    };
    let (out, _) = run_on_with(platform, 1 << 16, |_| (), |_, _| {}, run, &opts);
    (out.results, out.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmk_parmacs::{InitExt, SharedSlice};

    /// A tiny workload exercising locks, barriers, reads and writes,
    /// correct on every platform.
    fn exercise(platform: Platform) -> (Vec<u64>, RunReport) {
        let procs = platform.procs();
        let out = run_on(
            &platform,
            1 << 16,
            |alloc| {
                let counter: SharedSlice<u64> = alloc.slice(1);
                let slots: SharedSlice<u64> = alloc.slice_aligned(procs, 4096);
                (counter, slots)
            },
            |(counter, _), w| {
                w.init(counter.addr(), 1000u64);
            },
            |sys, (counter, slots)| {
                let me = sys.pid();
                for _ in 0..5 {
                    sys.lock(0);
                    let v = counter.get(sys, 0);
                    counter.set(sys, 0, v + 1);
                    sys.unlock(0);
                }
                slots.set(sys, me, me as u64 * 10);
                sys.compute(500);
                sys.barrier(0);
                let mut sum = counter.get(sys, 0);
                for q in 0..sys.nprocs() {
                    sum += slots.get(sys, q);
                }
                sum
            },
        );
        (out.results, out.report)
    }

    fn expected(procs: usize) -> u64 {
        1000 + 5 * procs as u64 + (0..procs as u64).map(|q| q * 10).sum::<u64>()
    }

    #[test]
    fn dec_uniprocessor() {
        let (r, rep) = exercise(Platform::Dec);
        assert_eq!(r, vec![expected(1)]);
        assert!(rep.cycles > 0);
        assert_eq!(rep.clock_hz, 40_000_000);
    }

    #[test]
    fn sgi_bus_machine() {
        let (r, rep) = exercise(Platform::Sgi { procs: 8 });
        assert!(r.into_iter().all(|v| v == expected(8)));
        assert!(rep.bus.is_some());
    }

    #[test]
    fn treadmarks_cluster() {
        let (r, rep) = exercise(Platform::treadmarks(8));
        assert!(r.into_iter().all(|v| v == expected(8)));
        assert!(rep.traffic.total_msgs() > 0);
        assert!(rep.dsm.barriers == 8);
    }

    #[test]
    fn as_sim_scales_to_16() {
        let (r, rep) = exercise(Platform::as_sim(16));
        assert!(r.into_iter().all(|v| v == expected(16)));
        assert_eq!(rep.clock_hz, 100_000_000);
    }

    #[test]
    fn ah_directory_machine() {
        let (r, rep) = exercise(Platform::ah(16));
        assert!(r.into_iter().all(|v| v == expected(16)));
        assert!(rep.directory.is_some());
    }

    #[test]
    fn hs_hybrid_machine() {
        let (r, rep) = exercise(Platform::hs_sim(4, 4));
        assert!(r.into_iter().all(|v| v == expected(16)));
        assert!(rep.bus.is_some());
        assert!(rep.traffic.total_msgs() > 0);
    }

    #[test]
    fn hs_single_node_needs_no_messages() {
        let (r, rep) = exercise(Platform::hs_sim(1, 8));
        assert!(r.into_iter().all(|v| v == expected(8)));
        assert_eq!(rep.traffic.total_msgs(), 0);
    }

    #[test]
    fn platform_keys_are_distinct_and_stable() {
        assert_eq!(Platform::Dec.key(), "dec");
        assert_eq!(Platform::treadmarks(8).key(), "tmk/p8");
        assert_eq!(Platform::as_sim(8).key(), "as/p8");
        assert_eq!(Platform::hs_sim(4, 8).key(), "hs/n4x8");
        let kernel = Platform::AsCluster {
            procs: 8,
            part1: true,
            so: Some(SoftwareOverhead::ultrix_kernel()),
            tuning: DsmTuning::default(),
        };
        assert_ne!(kernel.key(), Platform::treadmarks(8).key());
        let eager = Platform::AsCluster {
            procs: 8,
            part1: true,
            so: None,
            tuning: DsmTuning {
                eager_locks: vec![3],
                ..Default::default()
            },
        };
        assert_eq!(eager.key(), "tmk/p8/el3");
        let ivy = Platform::AsCluster {
            procs: 8,
            part1: true,
            so: None,
            tuning: DsmTuning {
                protocol: DsmProtocol::Ivy,
                ..Default::default()
            },
        };
        assert_eq!(ivy.key(), "tmk/p8/ivy");
        let gc = Platform::AsCluster {
            procs: 8,
            part1: false,
            so: None,
            tuning: DsmTuning {
                gc: Some(1 << 20),
                ..Default::default()
            },
        };
        assert_eq!(gc.key(), "as/p8/gc1048576");
        assert_ne!(gc.key(), Platform::as_sim(8).key());
        let recover = Platform::AsCluster {
            procs: 8,
            part1: false,
            so: None,
            tuning: DsmTuning {
                faults: Some(
                    tmk_net::FaultPlan::crash_schedule(5).with_crash(3, 100_000, None),
                ),
                checkpoints: true,
                ..Default::default()
            },
        };
        assert_eq!(recover.key(), "as/p8/fs5d0u0y0c0mff/cr3@100000/ck");
        let transient = Platform::AsCluster {
            procs: 8,
            part1: false,
            so: None,
            tuning: DsmTuning {
                faults: Some(
                    tmk_net::FaultPlan::crash_schedule(5).with_crash(3, 100_000, Some(50_000)),
                ),
                ..Default::default()
            },
        };
        assert_eq!(transient.key(), "as/p8/fs5d0u0y0c0mff/cr3@100000+50000");
        assert_eq!(Platform::ah(16).key(), "ah/p16");
        let flaky_ah = Platform::Ah {
            procs: 16,
            faults: Some(tmk_net::FaultPlan::drop_rate(9, 0.01)),
        };
        assert_eq!(flaky_ah.key(), "ah/p16/fb9d0.01");
    }

    #[test]
    fn flaky_ah_fabric_retries_without_changing_results() {
        let clean = exercise(Platform::ah(16));
        let flaky = exercise(Platform::Ah {
            procs: 16,
            faults: Some(tmk_net::FaultPlan::drop_rate(9, 0.05)),
        });
        assert_eq!(clean.0, flaky.0, "fabric faults are masked by retries");
        let d_clean = clean.1.directory.unwrap();
        let d_flaky = flaky.1.directory.unwrap();
        assert_eq!(d_clean.retries, 0);
        assert!(d_flaky.retries > 0, "{d_flaky:?}");
        assert!(flaky.1.cycles > clean.1.cycles, "retries cost time");
    }

    #[test]
    fn flaky_hs_buses_retry_without_changing_results() {
        let clean = exercise(Platform::hs_sim(4, 4));
        let flaky = exercise(Platform::Hs {
            nodes: 4,
            per_node: 4,
            so: None,
            tuning: DsmTuning {
                faults: Some(tmk_net::FaultPlan::drop_rate(9, 0.05)),
                reliability: Some(tmk_core::RetransmitPolicy::default()),
                ..Default::default()
            },
        });
        assert_eq!(clean.0, flaky.0, "bus faults are masked by retries");
        let b_clean = clean.1.bus.unwrap();
        let b_flaky = flaky.1.bus.unwrap();
        assert_eq!(b_clean.retries, 0);
        assert!(b_flaky.retries > 0, "{b_flaky:?}");
        // The same plan drives the inter-node links, masked by the armed
        // retransmission layer.
        assert!(flaky.1.net_faults.drops > 0, "{:?}", flaky.1.net_faults);
        assert!(flaky.1.reliability.retransmissions > 0);
    }

    #[test]
    fn faster_network_helps_dsm() {
        // Kernel-level TreadMarks beats user-level on a sync-heavy loop.
        let user = exercise(Platform::treadmarks(4)).1.cycles;
        let kernel = {
            let platform = Platform::AsCluster {
                procs: 4,
                part1: true,
                so: Some(SoftwareOverhead::ultrix_kernel()),
                tuning: DsmTuning::default(),
            };
            exercise(platform).1.cycles
        };
        assert!(
            kernel < user,
            "kernel-level ({kernel}) should beat user-level ({user})"
        );
    }
}
