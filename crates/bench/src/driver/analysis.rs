//! Instruments rather than figures: the cycle-attribution `breakdown` and
//! the opt-in `calibrate` parameter probes.

use std::collections::HashMap;
use std::fmt::Write as _;

use tmk_machines::Platform;
use tmk_trace::{Category, NCAT};

use super::jobs::JobRequest;
use super::plan::{sor, Experiment, Section};
use super::workload::{tsp, water, WorkloadSpec};
use super::Tier;

pub(super) fn breakdown(tier: Tier) -> Experiment {
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
        vec![("sor", "SOR tiny", sor(tier)), ("tsp", "TSP 10", tsp(10))]
    } else {
        vec![
            ("sor", "SOR 1024x1024", sor(tier)),
            ("tsp", "TSP 18", tsp(18)),
            ("mwater", "M-Water 288", water(true, false)),
        ]
    };
    let sections = workloads
        .into_iter()
        .map(|(id, label, w)| {
            Section::plan(id, |p| {
                let runs: Vec<_> = platforms
                    .iter()
                    .map(|(name, platform)| {
                        let traced = JobRequest::new(platform.clone(), w.clone()).traced();
                        (*name, p.add(traced))
                    })
                    .collect();
                Box::new(move |ctx| {
                    let mut out = String::new();
                    writeln!(out).unwrap();
                    writeln!(
                        out,
                        "{label}: where the cycles go (percent of aggregate processor cycles)"
                    )
                    .unwrap();
                    let mut traces = Vec::new();
                    for &(name, run) in &runs {
                        let d = ctx.data(run)?;
                        let tr = d
                            .trace
                            .as_ref()
                            .ok_or_else(|| format!("{name}: run carried no trace data"))?;
                        traces.push((name, d, tr));
                    }
                    // The recovery column (always last) earns its width only
                    // when some run actually charged it; crash-free tables
                    // keep the original six-column shape.
                    let recovered = traces.iter().any(|(_, _, tr)| {
                        tr.breakdown
                            .iter()
                            .any(|row| row[Category::Recovery.index()] > 0)
                    });
                    let ncols = if recovered { NCAT } else { NCAT - 1 };
                    write!(out, "{:<8}", "platform").unwrap();
                    for cat in Category::ALL.iter().take(ncols) {
                        write!(out, " {:>9}", cat.name()).unwrap();
                    }
                    writeln!(out, " {:>15}", "total cycles").unwrap();
                    let mut shares: HashMap<&'static str, [f64; NCAT]> = HashMap::new();
                    for (name, d, tr) in traces {
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
                })
            })
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

pub(super) fn calibrate(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let apps: Vec<(&'static str, Vec<(&'static str, WorkloadSpec)>)> = if quick {
        vec![
            ("sor", vec![("SOR tiny", WorkloadSpec::SorTiny)]),
            ("ilink", vec![("ILINK TINY", WorkloadSpec::IlinkTiny)]),
            ("tsp", vec![("TSP 10", tsp(10))]),
            (
                "water",
                vec![
                    ("Water", water(false, true)),
                    ("M-Water", water(true, true)),
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
            ("tsp", vec![("TSP 17", tsp(17)), ("TSP 18", tsp(18))]),
            (
                "water",
                vec![
                    ("Water", water(false, false)),
                    ("M-Water", water(true, false)),
                ],
            ),
        ]
    };
    let procs = if quick { 4usize } else { 8 };
    let sections = apps
        .into_iter()
        .map(|(id, probes)| {
            Section::plan(id, |p| {
                let rows: Vec<_> = probes
                    .into_iter()
                    .map(|(name, w)| {
                        let dec = p.run(Platform::Dec, &w);
                        let sgi = [1, procs].map(|n| p.run(Platform::Sgi { procs: n }, &w));
                        let tmk = [1, procs].map(|n| p.run(Platform::treadmarks(n), &w));
                        (name, dec, sgi, tmk)
                    })
                    .collect();
                Box::new(move |ctx| {
                    let wall = |runs: &[_]| -> f64 {
                        runs.iter().map(|&r| ctx.job(r).host_ms).sum::<f64>() / 1e3
                    };
                    let mut out = String::new();
                    for &(name, dec_run, sgi, tmk) in &rows {
                        let dec = ctx.wsecs(dec_run)?;
                        let sgi1 = ctx.secs(sgi[0])?;
                        let sgi8 = ctx.wsecs(sgi[1])?;
                        let tmk1 = ctx.secs(tmk[0])?;
                        let r8 = ctx.report(tmk[1])?;
                        let tmk8 = r8.window_seconds();
                        let (wall_dec, wall_sgi, wall_tmk) = (wall(&[dec_run]), wall(&sgi), wall(&tmk));
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
                })
            })
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
