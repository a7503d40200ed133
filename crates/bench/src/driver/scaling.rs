//! Past the paper's machine sizes: barrier-time garbage collection as the
//! AS design grows (`scaling`) and clusters out to 256 nodes (`scaling256`).

use std::fmt::Write as _;

use tmk_machines::{DsmTuning, Platform};

use super::jobs::RunData;
use super::plan::{as_with, part2_apps, Experiment, Section};
use super::workload::WorkloadSpec;
use super::Tier;
use crate::fmt_secs;

pub(super) fn scaling(tier: Tier) -> Experiment {
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
    let procs_list: &[usize] = if quick { &[2, 4] } else { &[16, 32] };

    let with_gc = |procs: usize, gc: u64| {
        let tuning = DsmTuning {
            gc: Some(gc),
            ..Default::default()
        };
        as_with(procs, tuning)
    };
    // An unreachable threshold arms the memory ledger without ever
    // collecting: the GC-free baseline whose footprint the collector must
    // beat, with the same instrumentation.
    let ledger_only = u64::MAX;

    // The footprint/cost comparison at the primary machine size: the same
    // run with no ledger, with the ledger alone, and with the collector.
    let sor_mem = Section::plan("sor-mem", |p| {
        let plain = p.run(Platform::as_sim(procs), &w);
        let on = p.run(with_gc(procs, threshold), &w);
        let off = p.run(with_gc(procs, ledger_only), &w);
        Box::new(move |ctx| {
            let (plain, on, off) = (ctx.data(plain)?, ctx.data(on)?, ctx.data(off)?);
            if on.checksums != plain.checksums || off.checksums != plain.checksums {
                return Err("garbage collection changed the application's results".to_string());
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
                return Err("the GC-free run accumulated no consistency metadata; \
                     the workload cannot exercise the collector"
                    .to_string());
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
        })
    });

    // The curves across machine sizes: more processors close more intervals
    // per barrier, so the GC-free footprint grows while the collected one
    // stays bounded.
    let as_scale = Section::plan("as-scale", |p| {
        let rows: Vec<_> = procs_list
            .iter()
            .map(|&n| {
                let on = p.run(with_gc(n, threshold), &w);
                (n, on, p.run(with_gc(n, ledger_only), &w))
            })
            .collect();
        Box::new(move |ctx| {
            let peak = |s: &tmk_core::NodeStats| s.live_interval_bytes_hw + s.cached_diff_bytes_hw;
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
            for &(n, on, off) in &rows {
                let (on, off) = (ctx.data(on)?, ctx.data(off)?);
                if on.checksums != off.checksums {
                    return Err(format!(
                        "AS-{n}: garbage collection changed the application's results"
                    ));
                }
                let son = &on.report.dsm;
                let soff = &off.report.dsm;
                if son.gc_collections == 0 {
                    return Err(format!("AS-{n}: no collections at threshold {threshold}"));
                }
                if peak(son) >= peak(soff) {
                    return Err(format!(
                        "AS-{n}: GC-on peak metadata ({} B) is not below GC-free ({} B)",
                        peak(son),
                        peak(soff)
                    ));
                }
                writeln!(
                    out,
                    "  AS-{n:<3} {:>10} {:>10} {:>6} {:>16} B {:>16} B",
                    fmt_secs(on.report.seconds()),
                    fmt_secs(off.report.seconds()),
                    son.gc_collections,
                    peak(son),
                    peak(soff),
                )
                .unwrap();
            }
            Ok(out)
        })
    });

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
        sections: vec![sor_mem, as_scale],
    }
}

/// Large-cluster scaling: SOR and TSP on the AS and HS designs out to 256
/// nodes — machine sizes the per-processor-thread engine could not touch,
/// practical on the cooperative event loop. Extends the Figure 9/10 curves
/// (whose 64-processor points memoize with this experiment's smallest size).
pub(super) fn scaling256(tier: Tier) -> Experiment {
    // Matched (AS nodes, HS nodes × per_node) sizes; speedup base = AS-1.
    let sizes: &[(usize, (usize, usize))] = match tier {
        Tier::Full => &[(64, (8, 8)), (128, (16, 8)), (256, (32, 8))],
        Tier::Quick => &[(8, (4, 2)), (16, (8, 2))],
    };
    let [sor, tsp, _] = part2_apps(tier);
    let sections = [sor, tsp]
        .into_iter()
        .map(|(id, name, w)| {
            Section::plan(id, |p| {
                let base = p.run(Platform::as_sim(1), &w);
                let rows: Vec<_> = sizes
                    .iter()
                    .map(|&(n, (nodes, per_node))| {
                        let a = p.run(Platform::as_sim(n), &w);
                        (n, a, p.run(Platform::hs_sim(nodes, per_node), &w))
                    })
                    .collect();
                Box::new(move |ctx| {
                    let base = ctx.wsecs(base)?;
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
                    for &(n, a, h) in &rows {
                        let (a, h) = (ctx.wsecs(a)?, ctx.wsecs(h)?);
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
                })
            })
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
