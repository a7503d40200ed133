//! The §2.4 what-ifs plus this repo's own sensitivity studies.

use std::fmt::Write as _;

use tmk_apps::tsp::{Tsp, BOUND_LOCK};
use tmk_machines::{DsmProtocol, DsmTuning, Platform};
use tmk_net::SoftwareOverhead;

use super::jobs::JobRequest;
use super::plan::{as_with, sor, tmk_with, Experiment, Section};
use super::workload::{tsp, water, WorkloadSpec};
use super::Tier;

pub(super) fn ablations(tier: Tier) -> Experiment {
    let quick = tier == Tier::Quick;
    let procs = if quick { 4usize } else { 8 };
    let mwater = water(true, quick);
    let mut sections = Vec::new();

    // §2.4.3: eager release on the TSP bound lock.
    sections.push(Section::plan("tsp-eager", |p| {
        let cities = if quick { 10 } else { 14 };
        let w = tsp(cities);
        let eager = DsmTuning {
            eager_locks: vec![BOUND_LOCK],
            ..Default::default()
        };
        let dec = p.run(Platform::Dec, &w);
        let lazy = p.run(Platform::treadmarks(procs), &w);
        let eag = p.run(tmk_with(procs, eager), &w);
        let sgi1 = p.run(Platform::Sgi { procs: 1 }, &w);
        let sgi = p.run(Platform::Sgi { procs }, &w);
        Box::new(move |ctx| {
            if !quick {
                // The experiment is only meaningful when the initial 2-opt
                // bound is beatable, so the shared bound actually updates.
                let t = Tsp::new(cities);
                if t.greedy_bound() <= t.optimal() {
                    return Err(format!(
                        "TSP-{cities} greedy bound is already optimal; the eager-release \
                         ablation would measure nothing"
                    ));
                }
            }
            let dec = ctx.wsecs(dec)?;
            let mut out = String::new();
            writeln!(
                out,
                "TSP-{cities} at {procs} processors (speedups; bound improves during search):"
            )
            .unwrap();
            writeln!(
                out,
                "  TreadMarks lazy release:  {:.2}",
                dec / ctx.wsecs(lazy)?
            )
            .unwrap();
            writeln!(
                out,
                "  TreadMarks eager bound:   {:.2}",
                dec / ctx.wsecs(eag)?
            )
            .unwrap();
            writeln!(
                out,
                "  SGI 4D/480:               {:.2}",
                ctx.wsecs(sgi1)? / ctx.wsecs(sgi)?
            )
            .unwrap();
            Ok(out)
        })
    }));

    // §2.4.4: kernel-level TreadMarks.
    sections.push(Section::plan("kernel-level", |p| {
        let kernel = Platform::AsCluster {
            procs,
            part1: true,
            so: Some(SoftwareOverhead::ultrix_kernel()),
            tuning: DsmTuning::default(),
        };
        let [mwater, sor] = [&mwater, &sor(tier)].map(|w| {
            let dec = p.run(Platform::Dec, w);
            let user = p.run(Platform::treadmarks(procs), w);
            (dec, user, p.run(kernel.clone(), w))
        });
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "user-level vs kernel-level TreadMarks ({procs}-processor speedups):"
            )
            .unwrap();
            let (dec, user, kern) = mwater;
            let dec_s = ctx.wsecs(dec)?;
            writeln!(
                out,
                "  M-Water: user {:.2} -> kernel {:.2}",
                dec_s / ctx.wsecs(user)?,
                dec_s / ctx.wsecs(kern)?
            )
            .unwrap();
            let (dec, user, kern) = sor;
            let dec_s = ctx.wsecs(dec)?;
            writeln!(
                out,
                "  SOR:     user {:.2} -> kernel {:.2} (low communication: small gain)",
                dec_s / ctx.wsecs(user)?,
                dec_s / ctx.wsecs(kern)?
            )
            .unwrap();
            Ok(out)
        })
    }));

    // §2.4.2: SOR with every point changing every iteration.
    sections.push(Section::plan("sor-allchanging", |p| {
        let label = if quick { "SOR tiny" } else { "SOR 1024x1024" };
        let inits = [
            ("edges-only init: ", sor(tier)),
            (
                "all-changing init:",
                WorkloadSpec::SorAllChanging { tiny: quick },
            ),
        ];
        let rows = inits.map(|(tag, w)| {
            let dec = p.run(Platform::Dec, &w);
            let sgi1 = p.run(Platform::Sgi { procs: 1 }, &w);
            let tmk = p.run(Platform::treadmarks(procs), &w);
            (tag, dec, sgi1, tmk, p.run(Platform::Sgi { procs }, &w))
        });
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(out, "{label}, every point changing every iteration:").unwrap();
            for (tag, dec, sgi1, tmk, sgi) in rows {
                writeln!(
                    out,
                    "  {tag} TreadMarks {:.2}  SGI {:.2}",
                    ctx.wsecs(dec)? / ctx.wsecs(tmk)?,
                    ctx.wsecs(sgi1)? / ctx.wsecs(sgi)?
                )
                .unwrap();
            }
            Ok(out)
        })
    }));

    // HS node-size sensitivity.
    sections.push(Section::plan("hs-node-size", |p| {
        let total = if quick { 4usize } else { 32 };
        let per_nodes: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
        let base = p.run(Platform::as_sim(1), &mwater);
        let rows: Vec<_> = per_nodes
            .iter()
            .map(|&pn| (pn, p.run(Platform::hs_sim(total / pn, pn), &mwater)))
            .collect();
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "HS node size at {total} processors (M-Water speedup over 1 node-processor):"
            )
            .unwrap();
            let base = ctx.wsecs(base)?;
            for &(pn, run) in &rows {
                writeln!(out, "  {pn} procs/node: {:.2}", base / ctx.wsecs(run)?).unwrap();
            }
            Ok(out)
        })
    }));

    // AS page-size sensitivity.
    sections.push(Section::plan("page-size", |p| {
        let n = if quick { 4usize } else { 16 };
        let base = p.run(Platform::as_sim(1), &mwater);
        let rows = [1024usize, 4096, 16384].map(|page| {
            let paged = DsmTuning {
                page_size: Some(page),
                ..Default::default()
            };
            (page, p.run(as_with(n, paged), &mwater))
        });
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(out, "AS page-size sensitivity (M-Water at {n} processors):").unwrap();
            let base = ctx.wsecs(base)?;
            for (page, run) in rows {
                writeln!(out, "  {page:>6}-byte pages: {:.2}", base / ctx.wsecs(run)?).unwrap();
            }
            Ok(out)
        })
    }));

    // LRC vs IVY-style sequential consistency.
    sections.push(Section::plan("lrc-vs-ivy", |p| {
        let ivy = DsmTuning {
            protocol: DsmProtocol::Ivy,
            ..Default::default()
        };
        let apps = if quick {
            [
                ("SOR tiny:      ", sor(tier)),
                ("M-Water tiny:  ", mwater.clone()),
                ("TSP-10:        ", tsp(10)),
            ]
        } else {
            [
                ("SOR 1024x1024: ", sor(tier)),
                ("M-Water:       ", mwater.clone()),
                ("TSP-17:        ", tsp(17)),
            ]
        };
        let rows = apps.map(|(tag, w)| {
            let dec = p.run(Platform::Dec, &w);
            let lrc = p.run(Platform::treadmarks(procs), &w);
            (tag, dec, lrc, p.run(tmk_with(procs, ivy.clone()), &w))
        });
        Box::new(move |ctx| {
            let mut out = String::new();
            writeln!(
                out,
                "LRC (TreadMarks) vs sequential-consistency DSM (IVY), {procs} processors:"
            )
            .unwrap();
            for (tag, dec, lrc, ivy) in rows {
                let dec = ctx.wsecs(dec)?;
                writeln!(
                    out,
                    "  {tag}LRC {:.2}  IVY {:.2}",
                    dec / ctx.wsecs(lrc)?,
                    dec / ctx.wsecs(ivy)?
                )
                .unwrap();
            }
            Ok(out)
        })
    }));

    // Determinism: the same request at two instances runs twice (distinct
    // memo keys) and must produce identical simulated clocks.
    sections.push(Section::plan("determinism", |p| {
        let first = JobRequest::new(Platform::treadmarks(4), WorkloadSpec::SorTiny);
        let again = JobRequest {
            instance: 1,
            ..first.clone()
        };
        let (a, b) = (p.add(first), p.add(again));
        Box::new(move |ctx| {
            let ca = ctx.report(a)?.cycles;
            let cb = ctx.report(b)?.cycles;
            let mut out = String::new();
            writeln!(
                out,
                "determinism: two identical runs -> {ca} and {cb} cycles"
            )
            .unwrap();
            if ca != cb {
                return Err(format!(
                    "simulator is nondeterministic: {ca} != {cb} cycles"
                ));
            }
            Ok(out)
        })
    }));

    Experiment {
        id: "ablations",
        title: "eager release, kernel-level, page size, HS node size, LRC-vs-IVY",
        default: true,
        header: None,
        sections,
    }
}
