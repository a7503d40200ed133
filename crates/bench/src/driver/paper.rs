//! The paper's own evaluation: Tables 1–2 and Figures 1–16.

use std::fmt::Write as _;

use tmk_machines::{DsmTuning, Platform};
use tmk_net::SoftwareOverhead;

use super::plan::{part2_apps, sor, Experiment, Section};
use super::workload::{tsp, water, WorkloadSpec};
use super::Tier;
use crate::fmt_secs;

/// The (label, workload) rows shared by Table 1, Table 2 and Figures 1–8.
fn roster(tier: Tier) -> Vec<(&'static str, WorkloadSpec)> {
    match tier {
        Tier::Full => vec![
            ("ILINK-CLP", WorkloadSpec::IlinkClp),
            ("ILINK-BAD", WorkloadSpec::IlinkBad),
            ("SOR 2048x1024", WorkloadSpec::SorLarge),
            ("SOR 1024x1024", WorkloadSpec::SorSmall),
            ("TSP-18", tsp(18)),
            ("TSP-17", tsp(17)),
            ("Water-288-2", water(false, false)),
            ("M-Water-288-2", water(true, false)),
        ],
        Tier::Quick => vec![
            ("ILINK-TINY", WorkloadSpec::IlinkTiny),
            ("SOR-TINY", WorkloadSpec::SorTiny),
            ("TSP-10", tsp(10)),
            ("Water-tiny", water(false, true)),
            ("M-Water-tiny", water(true, true)),
        ],
    }
}

pub(super) fn table1(tier: Tier) -> Experiment {
    let section = Section::plan("", |p| {
        let rows: Vec<_> = roster(tier)
            .into_iter()
            .map(|(name, w)| {
                let dec = p.run(Platform::Dec, &w);
                let tmk = p.run(Platform::treadmarks(1), &w);
                let sgi = p.run(Platform::Sgi { procs: 1 }, &w);
                (name, dec, tmk, sgi)
            })
            .collect();
        Box::new(move |ctx| {
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
            for &(name, dec, tmk, sgi) in &rows {
                let (dec, tmk, sgi) = (ctx.secs(dec)?, ctx.secs(tmk)?, ctx.secs(sgi)?);
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
        })
    });
    Experiment {
        id: "table1",
        title: "single-processor execution times (DEC, DEC+TreadMarks, SGI)",
        default: true,
        header: None,
        sections: vec![section],
    }
}

pub(super) fn table2(tier: Tier) -> Experiment {
    let procs = match tier {
        Tier::Full => 8,
        Tier::Quick => 4,
    };
    let section = Section::plan("", |p| {
        let rows: Vec<_> = roster(tier)
            .into_iter()
            .map(|(name, w)| (name, p.run(Platform::treadmarks(procs), &w)))
            .collect();
        Box::new(move |ctx| {
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
            for &(name, run) in &rows {
                let r = ctx.report(run)?;
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
        })
    });
    Experiment {
        id: "table2",
        title: "8-processor TreadMarks execution statistics",
        default: true,
        header: None,
        sections: vec![section],
    }
}

pub(super) fn fig01_08(tier: Tier) -> Experiment {
    let procs: Vec<usize> = match tier {
        Tier::Full => vec![1, 2, 4, 6, 8],
        Tier::Quick => vec![1, 2, 4],
    };
    // Section ids are stable names and carry the figure number, so the
    // quick tier's gaps (no fig2, fig4, fig6) stay aligned.
    let figures: Vec<(&'static str, usize, &'static str, WorkloadSpec)> = match tier {
        Tier::Full => vec![
            ("fig1", 1, "ILINK: CLP", WorkloadSpec::IlinkClp),
            ("fig2", 2, "ILINK: BAD", WorkloadSpec::IlinkBad),
            ("fig3", 3, "SOR: 2048x1024", WorkloadSpec::SorLarge),
            ("fig4", 4, "SOR: 1024x1024", WorkloadSpec::SorSmall),
            ("fig5", 5, "TSP: 18 cities", tsp(18)),
            ("fig6", 6, "TSP: 17 cities", tsp(17)),
            ("fig7", 7, "Water: 288 molecules", water(false, false)),
            ("fig8", 8, "M-Water: 288 molecules", water(true, false)),
        ],
        Tier::Quick => vec![
            ("fig1", 1, "ILINK: TINY", WorkloadSpec::IlinkTiny),
            ("fig3", 3, "SOR: tiny", WorkloadSpec::SorTiny),
            ("fig5", 5, "TSP: 10 cities", tsp(10)),
            ("fig7", 7, "Water: tiny", water(false, true)),
            ("fig8", 8, "M-Water: tiny", water(true, true)),
        ],
    };
    let sections = figures
        .into_iter()
        .map(|(id, fig, name, w)| {
            Section::plan(id, |p| {
                let dec = p.run(Platform::Dec, &w);
                let sgi1 = p.run(Platform::Sgi { procs: 1 }, &w);
                let rows: Vec<_> = procs
                    .iter()
                    .map(|&n| {
                        let tmk = p.run(Platform::treadmarks(n), &w);
                        (n, tmk, p.run(Platform::Sgi { procs: n }, &w))
                    })
                    .collect();
                Box::new(move |ctx| {
                    let mut out = String::new();
                    writeln!(out).unwrap();
                    writeln!(out, "Figure {fig}: {name} — speedup vs processors").unwrap();
                    writeln!(
                        out,
                        "{:>6} {:>12} {:>12}",
                        "procs", "TreadMarks", "SGI 4D/480"
                    )
                    .unwrap();
                    let (dec, sgi1) = (ctx.wsecs(dec)?, ctx.wsecs(sgi1)?);
                    for &(n, tmk, sgi) in &rows {
                        let tmk = dec / ctx.wsecs(tmk)?;
                        let sgi = sgi1 / ctx.wsecs(sgi)?;
                        writeln!(out, "{n:>6} {tmk:>12.2} {sgi:>12.2}").unwrap();
                    }
                    Ok(out)
                })
            })
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

pub(super) fn fig09_11(tier: Tier) -> Experiment {
    let (procs, per_node): (Vec<usize>, usize) = match tier {
        Tier::Full => (vec![8, 16, 32, 64], 8),
        Tier::Quick => (vec![2, 4], 2),
    };
    let sections = part2_apps(tier)
        .into_iter()
        .zip(9..)
        .map(|((id, name, w), fig)| {
            Section::plan(id, |p| {
                let base = p.run(Platform::as_sim(1), &w);
                let rows: Vec<_> = procs
                    .iter()
                    .map(|&n| {
                        let as_ = p.run(Platform::as_sim(n), &w);
                        let ah = p.run(Platform::ah(n), &w);
                        let hs = p.run(Platform::hs_sim(n / per_node, per_node), &w);
                        (n, as_, ah, hs)
                    })
                    .collect();
                Box::new(move |ctx| {
                    let mut out = String::new();
                    writeln!(out).unwrap();
                    writeln!(
                        out,
                        "Figure {fig}: {name} — speedup vs processors (AS / AH / HS)"
                    )
                    .unwrap();
                    writeln!(out, "{:>6} {:>10} {:>10} {:>10}", "procs", "AS", "AH", "HS").unwrap();
                    let base = ctx.wsecs(base)?;
                    for &(n, as_, ah, hs) in &rows {
                        let as_ = base / ctx.wsecs(as_)?;
                        let ah = base / ctx.wsecs(ah)?;
                        let hs = base / ctx.wsecs(hs)?;
                        writeln!(out, "{n:>6} {as_:>10.2} {ah:>10.2} {hs:>10.2}").unwrap();
                    }
                    Ok(out)
                })
            })
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

pub(super) fn fig12_13(tier: Tier) -> Experiment {
    let (procs, per_node) = match tier {
        Tier::Full => (64usize, 8usize),
        Tier::Quick => (4, 2),
    };
    let sections = part2_apps(tier)
        .into_iter()
        .map(|(id, name, w)| {
            Section::plan(id, |p| {
                let as_run = p.run(Platform::as_sim(procs), &w);
                let hs_run = p.run(Platform::hs_sim(procs / per_node, per_node), &w);
                Box::new(move |ctx| {
                    let as_t = ctx.report(as_run)?.window_traffic();
                    let hs_t = ctx.report(hs_run)?.window_traffic();
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
                })
            })
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

pub(super) fn fig14_16(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let base_so = SoftwareOverhead::sim_baseline();
    let variants: Vec<(&'static str, SoftwareOverhead)> = vec![
        ("2000/10", base_so),
        ("500/10", base_so.with_fixed(500)),
        ("100/10", base_so.with_fixed(100)),
        ("2000/1", base_so.with_per_word(1)),
        ("100/1", base_so.with_fixed(100).with_per_word(1)),
    ];
    let per_node = if quick { 2usize } else { 8 };
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
    let mwater = water(true, quick);
    let (names, sweeps): ([&str; 2], [&[usize]; 3]) = if quick {
        (["SOR tiny", "M-Water tiny"], [&[2, 4], &[2, 4], &[4]])
    } else {
        // M-Water on AS at 64 processors simulates very slowly (its
        // speedup collapses, so the run is long); the sweeps' story is
        // fully visible by 32.
        (
            ["SOR 1024x1024", "M-Water 288"],
            [&[8, 16, 32, 64], &[8, 16, 32], &[8, 16, 32]],
        )
    };
    // (section id, figure no., display name, HS?, workload, procs sweep)
    let figures = [
        ("fig14", 14, names[0], false, sor(tier), sweeps[0]),
        ("fig15", 15, names[1], false, mwater.clone(), sweeps[1]),
        ("fig16", 16, names[1], true, mwater, sweeps[2]),
    ];
    let sections = figures
        .into_iter()
        .map(|(id, fig, name, hs, w, procs)| {
            Section::plan(id, |p| {
                let denom = p.run(Platform::as_sim(1), &w);
                let rows: Vec<(usize, Vec<_>)> = procs
                    .iter()
                    .map(|&n| {
                        let sweep = variants.iter().map(|&(_, so)| sweep_platform(hs, n, so));
                        (n, sweep.map(|platform| p.run(platform, &w)).collect())
                    })
                    .collect();
                let labels: Vec<&'static str> = variants.iter().map(|&(label, _)| label).collect();
                Box::new(move |ctx| {
                    let sys = if hs { "HS" } else { "AS" };
                    let mut out = String::new();
                    writeln!(out).unwrap();
                    writeln!(
                        out,
                        "Figure {fig}: {name} on {sys} — speedup under reduced software overheads"
                    )
                    .unwrap();
                    write!(out, "{:>6}", "procs").unwrap();
                    for label in &labels {
                        write!(out, "{label:>10}").unwrap();
                    }
                    writeln!(out).unwrap();
                    let denom = ctx.wsecs(denom)?;
                    for (n, runs) in &rows {
                        write!(out, "{n:>6}").unwrap();
                        for &run in runs {
                            write!(out, "{:>10.2}", denom / ctx.wsecs(run)?).unwrap();
                        }
                        writeln!(out).unwrap();
                    }
                    Ok(out)
                })
            })
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
