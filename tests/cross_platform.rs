//! The case study's core premise: the same PARMACS program computes the
//! same answer on every shared-memory implementation. These tests run each
//! application, at reduced size, on all five platforms and compare
//! checksums (tolerating float reassociation across band partitionings).

use tmk::apps::{ilink, sor, tsp, water};
use tmk::machines::{run_on, run_workload, Platform};
use tmk::parmacs::{SharedSlice, Workload};

fn platforms(procs: usize) -> Vec<Platform> {
    vec![
        Platform::Sgi {
            procs: procs.min(8),
        },
        Platform::treadmarks(procs.min(8)),
        Platform::as_sim(procs),
        Platform::ah(procs),
        Platform::hs_sim(procs.div_ceil(4), 4),
    ]
}

fn total<W: Workload>(platform: &Platform, w: &W) -> f64 {
    let out = run_workload(platform, w);
    out.results.into_iter().sum()
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b} (tolerance {tol})");
}

#[test]
fn sor_agrees_everywhere() {
    let cfg = sor::Sor::tiny();
    let reference = total(&Platform::Dec, &cfg);
    assert!(reference.is_finite());
    // Wide clusters ride along: more nodes than rows, so most bands are
    // empty and every barrier is a 64- or 128-way all-to-all.
    let wide = [Platform::as_sim(64), Platform::as_sim(128)];
    for p in platforms(8).into_iter().chain(wide) {
        let v = total(&p, &cfg);
        // Red-black SOR is partition-independent: results are equal up to
        // the final summation order.
        assert_close(v, reference, &format!("{} x{}", p.name(), p.procs()));
    }
}

#[test]
fn lock_counter_agrees_from_8_to_64_nodes() {
    // One lock-protected counter: every increment travels with the token,
    // so the final count divided by the cluster size is the same everywhere.
    const ROUNDS: u64 = 3;
    let per_proc = |procs: usize| {
        let out = run_on(
            &Platform::as_sim(procs),
            1 << 14,
            |alloc| alloc.slice::<u64>(1),
            |_, _| {},
            |sys, counter: &SharedSlice<u64>| {
                for _ in 0..ROUNDS {
                    sys.lock(3);
                    let v = counter.get(sys, 0);
                    counter.set(sys, 0, v + 1);
                    sys.unlock(3);
                }
                sys.barrier(0);
                counter.get(sys, 0)
            },
        );
        assert!(out.report.traffic.lock_msgs > 0, "token must cross nodes");
        let first = out.results[0];
        let agree = out.results.iter().all(|&v| v == first);
        assert!(agree, "AS-{procs} processors disagree");
        first as f64 / procs as f64
    };
    let reference = per_proc(8);
    assert_close(reference, ROUNDS as f64, "AS-8 lock counter");
    assert_close(per_proc(64), reference, "AS-64 lock counter");
}

#[test]
fn tsp_finds_the_optimum_everywhere() {
    let cfg = tsp::Tsp::new(9);
    let optimal = f64::from(cfg.optimal());
    for p in platforms(8) {
        let out = run_workload(&p, &cfg);
        for (pid, v) in out.results.iter().enumerate() {
            assert_eq!(*v, optimal, "{} proc {pid}", p.name());
        }
    }
}

#[test]
fn tsp_eager_release_same_answer() {
    // 13 cities: the 2-opt initial bound is NOT optimal, so the bound lock
    // is actually released with updates during the search.
    let cfg = tsp::Tsp::new(13);
    let optimal = f64::from(cfg.optimal());
    assert!(cfg.greedy_bound() > cfg.optimal(), "instance must improve");
    let platform = Platform::AsCluster {
        procs: 4,
        part1: true,
        so: None,
        tuning: tmk::machines::DsmTuning {
            eager_locks: vec![tsp::BOUND_LOCK],
            ..Default::default()
        },
    };
    let out = run_workload(&platform, &cfg);
    assert!(out.results.into_iter().all(|v| v == optimal));
    assert!(
        out.report.traffic.update_msgs > 0,
        "eager release broadcasts updates"
    );
}

#[test]
fn water_agrees_everywhere() {
    for mode in [water::WaterMode::Original, water::WaterMode::Modified] {
        let cfg = water::Water::tiny(mode);
        let reference = total(&Platform::Dec, &cfg);
        for p in platforms(8) {
            let v = total(&p, &cfg);
            // Force accumulation order varies with partitioning; the
            // physics is tiny-step, so agreement is tight but not exact.
            let tol = 1e-6 * reference.abs();
            assert!(
                (v - reference).abs() < tol,
                "{} ({mode:?}): {v} vs {reference}",
                p.name()
            );
        }
    }
}

#[test]
fn ilink_agrees_at_fixed_proc_count() {
    // ILINK's synthetic activity pattern depends on the partitioning, so
    // compare platforms at the same processor count only.
    let cfg = ilink::Ilink {
        pedigree: ilink::Pedigree::tiny(),
    };
    let procs = 4;
    let reference = total(&Platform::Sgi { procs }, &cfg);
    for p in [
        Platform::treadmarks(procs),
        Platform::as_sim(procs),
        Platform::ah(procs),
        Platform::hs_sim(2, 2),
    ] {
        let v = total(&p, &cfg);
        assert_close(v, reference, p.name());
    }
}

#[test]
fn single_processor_platforms_agree_with_sequential() {
    let cfg = sor::Sor::tiny();
    let seq = sor::reference(&cfg);
    for p in [
        Platform::Dec,
        Platform::Sgi { procs: 1 },
        Platform::treadmarks(1),
        Platform::ah(1),
    ] {
        assert_close(total(&p, &cfg), seq, p.name());
    }
}

#[test]
fn treadmarks_overhead_on_one_processor_is_negligible() {
    // Table 1's observation: running under TreadMarks has almost no effect
    // on single-processor execution time. Use a non-trivial grid so fixed
    // startup costs (first-touch faults) do not dominate.
    let cfg = sor::Sor::small();
    let dec = run_workload(&Platform::Dec, &cfg).report.cycles;
    let tmk1 = run_workload(&Platform::treadmarks(1), &cfg).report.cycles;
    let ratio = tmk1 as f64 / dec as f64;
    assert!(
        (0.95..1.10).contains(&ratio),
        "1-proc TreadMarks / DEC cycle ratio {ratio}"
    );
}

/// A run's memory-system counters as plain arrays, in field order:
/// `CacheStats`, then `BusStats`, then `DirectoryStats`.
type Counters = ([u64; 5], Option<[u64; 7]>, Option<[u64; 6]>);

fn counters<W: Workload>(platform: &Platform, w: &W) -> Counters {
    let r = run_workload(platform, w).report;
    let c = r.cache;
    (
        [c.hits, c.misses, c.upgrades, c.evictions, c.dirty_evictions],
        r.bus.map(|b| {
            [
                b.transactions,
                b.busy_cycles,
                b.cache_supplies,
                b.memory_supplies,
                b.invalidations,
                b.writebacks,
                b.data_bytes,
            ]
        }),
        r.directory.map(|d| {
            [
                d.local_misses,
                d.remote_clean_misses,
                d.remote_dirty_misses,
                d.upgrades,
                d.invalidations,
                d.remote_bytes,
            ]
        }),
    )
}

#[test]
fn memory_system_counters_are_pinned() {
    // Recorded at commit 677a9c4, before the memory-system models changed
    // representation: a rewrite of `tmk-mem` may not move one of these.
    let hw = [
        Platform::Dec,
        Platform::Sgi { procs: 4 },
        Platform::ah(4),
        Platform::ah(64),
        Platform::hs_sim(2, 2),
    ];
    let sor_expect: [Counters; 5] = [
        ([2808, 96, 0, 0, 0], None, None),
        (
            [2436, 576, 0, 0, 0],
            Some([468, 8424, 192, 96, 180, 180, 9216]),
            None,
        ),
        (
            [1218, 144, 0, 0, 0],
            None,
            Some([15, 39, 90, 90, 90, 14016]),
        ),
        (
            [380, 720, 0, 0, 0],
            None,
            Some([1, 411, 308, 352, 672, 65728]),
        ),
        (
            [896, 524, 0, 0, 0],
            Some([556, 3336, 64, 460, 32, 32, 33536]),
            None,
        ),
    ];
    let water_expect: [Counters; 5] = [
        ([4590, 90, 0, 0, 0], None, None),
        (
            [3083, 1710, 0, 0, 0],
            Some([1597, 28842, 807, 54, 788, 760, 27936]),
            None,
        ),
        (
            [2384, 796, 0, 0, 0],
            None,
            Some([14, 46, 736, 720, 757, 97152]),
        ),
        (
            [594, 2338, 0, 0, 0],
            None,
            Some([41, 750, 1547, 968, 2265, 246016]),
        ),
        (
            [2872, 933, 0, 0, 0],
            Some([1028, 6164, 124, 809, 104, 103, 60288]),
            None,
        ),
    ];
    let water_cfg = water::Water::tiny(water::WaterMode::Original);
    for (i, p) in hw.iter().enumerate() {
        let what = format!("{} x{}", p.name(), p.procs());
        assert_eq!(
            counters(p, &sor::Sor::tiny()),
            sor_expect[i],
            "sor on {what}"
        );
        assert_eq!(counters(p, &water_cfg), water_expect[i], "water on {what}");
    }
}
