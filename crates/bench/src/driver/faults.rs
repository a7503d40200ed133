//! Fault injection on the AS design: message loss (`chaos`) and node
//! crashes (`recovery`).

use std::fmt::Write as _;

use tmk_core::RetransmitPolicy;
use tmk_machines::{DsmTuning, Platform};
use tmk_net::FaultPlan;

use super::plan::{as_with, sor, Experiment, Section};
use super::workload::{tsp, WorkloadSpec};
use super::Tier;
use crate::fmt_secs;

/// Pure safety net: orders of magnitude above any legitimate run, it only
/// fires if retransmission ever livelocks.
const WATCHDOG_BUDGET: u64 = 4_000_000_000_000;

/// The (section id, display name, workload) pairs both sweeps run.
fn workloads(tier: Tier) -> [(&'static str, &'static str, WorkloadSpec); 2] {
    match tier {
        Tier::Full => [
            ("sor", "SOR 1024x1024", sor(tier)),
            ("tsp", "TSP 17", tsp(17)),
        ],
        Tier::Quick => [("sor", "SOR tiny", sor(tier)), ("tsp", "TSP 10", tsp(10))],
    }
}

pub(super) fn chaos(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let procs = if quick { 4usize } else { 8 };
    // One seed for the whole sweep: the runs are bit-exact replayable, and
    // the chosen seed produces at least one drop even at the lowest rate.
    let seed: u64 = 0xc4a05;
    // Quick-tier inputs exchange few messages, so the smoke rates are
    // higher to still see drops on every workload.
    let rates: &[f64] = if quick {
        &[0.0, 2e-2, 5e-2]
    } else {
        &[0.0, 1e-4, 1e-3, 1e-2]
    };
    // The adaptive policy estimates the RTO from observed round-trip
    // times (RFC 6298 style). Its floor mirrors the fixed policy's
    // timeout — like TCP's famously conservative 1-second minimum — so
    // the estimator can only *lengthen* the timeout when queueing delay
    // builds up behind a retransmission, which is exactly the situation
    // that makes the fixed policy fire spuriously.
    let fixed = RetransmitPolicy::default();
    let floor = fixed.timeout;
    let ceiling = 32 * floor;
    let lossy = move |drop: f64, policy: RetransmitPolicy| {
        let tuning = DsmTuning {
            faults: (drop > 0.0).then(|| FaultPlan::drop_rate(seed, drop)),
            reliability: Some(policy),
            watchdog_budget: Some(WATCHDOG_BUDGET),
            ..Default::default()
        };
        as_with(procs, tuning)
    };

    let sections = workloads(tier)
        .into_iter()
        .map(|(id, name, w)| {
            Section::plan(id, |p| {
                let base = p.run(Platform::as_sim(procs), &w);
                // Per rate: the fixed-timeout run, and above rate 0 the
                // adaptive-RTO one.
                let sweep: Vec<_> = rates
                    .iter()
                    .map(|&rate| {
                        let fixed_run = p.run(lossy(rate, fixed), &w);
                        let adaptive = (rate > 0.0)
                            .then(|| p.run(lossy(rate, fixed.with_adaptive(floor, ceiling)), &w));
                        (rate, fixed_run, adaptive)
                    })
                    .collect();
                Box::new(move |ctx| {
                    let base = ctx.data(base)?;
                    let mut out = String::new();
                    writeln!(
                        out,
                        "{name} on the {procs}-node AS design under injected message loss \
                         (retransmission timeout {floor} cycles):",
                    )
                    .unwrap();
                    let mut prev: Option<(f64, u64)> = None;
                    for &(rate, run, _) in &sweep {
                        let d = ctx.data(run)?;
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
                    let heaviest = sweep.last().expect("the sweep is not empty").1;
                    let top = ctx.report(heaviest)?.cycles;
                    if top <= base.report.cycles {
                        return Err(format!(
                            "the heaviest loss rate did not cost simulated time \
                             ({top} vs {} cycles)",
                            base.report.cycles
                        ));
                    }
                    writeln!(
                        out,
                        "  adaptive RTO (RFC 6298 estimator, floor {floor} / ceiling {ceiling} cycles):"
                    )
                    .unwrap();
                    let (mut fixed_sp, mut adapt_sp) = (0u64, 0u64);
                    for &(rate, fixed_run, adaptive) in &sweep {
                        let Some(adaptive) = adaptive else { continue };
                        let f = ctx.report(fixed_run)?;
                        let a = ctx.data(adaptive)?;
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
                })
            })
        })
        .collect();
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

pub(super) fn recovery(tier: Tier) -> Experiment {
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
    let procs_list: &[usize] = if quick { &[4] } else { &[8, 16, 32] };
    let seed: u64 = 0x5ec0;
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

    let platform = move |procs: usize, crashes: &[(usize, u64, Option<u64>)]| {
        let mut plan = FaultPlan::crash_schedule(seed);
        for &(node, at, restart) in crashes {
            plan = plan.with_crash(node, at, restart);
        }
        let tuning = DsmTuning {
            faults: (!crashes.is_empty()).then_some(plan),
            reliability: Some(snappy),
            checkpoints: true,
            watchdog_budget: Some(WATCHDOG_BUDGET),
            ..Default::default()
        };
        as_with(procs, tuning)
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
    type Variant = (&'static str, Vec<(usize, u64, Option<u64>)>, u64);
    let sor_variants: Vec<Variant> = vec![
        ("1 crash early", vec![(1, early, None)], 1),
        ("1 crash mid", vec![(2, mid, None)], 1),
        ("2 crashes", vec![(1, early, None), (2, mid, None)], 2),
        ("transient blip", vec![(1, early, Some(blip))], 0),
    ];
    let tsp_variants: Vec<Variant> = vec![
        ("1 crash early", vec![(1, early, None)], 1),
        ("2 crashes", vec![(1, early, None), (2, 2 * early, None)], 2),
        ("transient blip", vec![(1, early, Some(blip))], 0),
    ];

    let sections = workloads(tier)
        .into_iter()
        .zip([sor_variants, tsp_variants])
        .map(|((id, name, w), variants)| {
            Section::plan(id, |p| {
                // Per machine size: the ground truth (the same workload on a
                // perfect network with no reliability or checkpoint
                // machinery at all), the armed crash-free baseline, and one
                // run per crash schedule.
                let sizes: Vec<_> = procs_list
                    .iter()
                    .map(|&procs| {
                        let truth = p.run(Platform::as_sim(procs), &w);
                        let base = p.run(platform(procs, &[]), &w);
                        let crashed: Vec<_> = variants
                            .iter()
                            .map(|(label, crashes, permanent)| {
                                (*label, p.run(platform(procs, crashes), &w), *permanent)
                            })
                            .collect();
                        (procs, truth, base, crashed)
                    })
                    .collect();
                Box::new(move |ctx| {
                    let mut out = String::new();
                    writeln!(
                        out,
                        "{name} under seeded node crashes (barrier-epoch checkpoints, \
                         RTO {} cycles, detection by retransmission exhaustion):",
                        snappy.timeout
                    )
                    .unwrap();
                    for (procs, truth, base, crashed) in &sizes {
                        let truth = ctx.data(*truth)?;
                        let base = ctx.data(*base)?;
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
                        for &(label, run, permanent) in crashed {
                            let d = ctx.data(run)?;
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
                            if rec.rollbacks != permanent || rec.suspected != permanent {
                                return Err(format!(
                                    "AS-{procs}, {label}: expected {permanent} rollback(s), \
                                     saw suspected={} rollbacks={}",
                                    rec.suspected, rec.rollbacks
                                ));
                            }
                            if permanent > 0 && rec.recovery_cycles == 0 {
                                return Err(format!(
                                    "AS-{procs}, {label}: rollback recovery charged no \
                                     cycles to the recovery ledger"
                                ));
                            }
                            // The blip is masked by retransmission alone: no
                            // rollback, but the lost copies were resent.
                            if permanent == 0 && rep.reliability.retransmissions == 0 {
                                return Err(format!(
                                    "AS-{procs}, {label}: severed messages were never \
                                     retransmitted"
                                ));
                            }
                            if rep.cycles < brep.cycles && permanent > 0 {
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
                })
            })
        })
        .collect();
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
