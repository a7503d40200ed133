//! Statistics-accounting invariants: the numbers the benchmark harness
//! reports must be internally consistent on every platform.

use tmk::apps::{sor, tsp, water};
use tmk::machines::{run_workload, Platform};
use tmk::net::SoftwareOverhead;

#[test]
fn window_never_exceeds_totals() {
    let w = sor::Sor::tiny();
    for p in [
        Platform::treadmarks(4),
        Platform::as_sim(8),
        Platform::hs_sim(2, 4),
    ] {
        let r = run_workload(&p, &w).report;
        let wt = r.window_traffic();
        let t = r.traffic;
        assert!(r.mark_cycles <= r.cycles, "{}", p.name());
        assert!(wt.total_msgs() <= t.total_msgs());
        assert!(wt.total_bytes() <= t.total_bytes());
        assert_eq!(
            t.total_msgs(),
            t.miss_msgs + t.lock_msgs + t.barrier_msgs + t.update_msgs
        );
        assert_eq!(
            t.total_bytes(),
            t.miss_bytes + t.consistency_bytes + t.header_bytes
        );
    }
}

#[test]
fn barrier_only_apps_take_no_remote_locks() {
    let w = sor::Sor::tiny();
    let r = run_workload(&Platform::treadmarks(4), &w).report;
    assert_eq!(r.dsm.remote_lock_acquires, 0, "SOR uses barriers only");
    assert!(r.dsm.barriers > 0);
    assert_eq!(r.traffic.lock_msgs, 0);
}

#[test]
fn lock_heavy_app_shows_lock_traffic() {
    let w = water::Water::tiny(water::WaterMode::Original);
    let r = run_workload(&Platform::treadmarks(4), &w).report;
    assert!(r.dsm.remote_lock_acquires > 0);
    assert!(r.traffic.lock_msgs > r.traffic.barrier_msgs);
}

#[test]
fn mwater_takes_far_fewer_locks_than_water() {
    let orig = run_workload(
        &Platform::treadmarks(4),
        &water::Water::tiny(water::WaterMode::Original),
    )
    .report
    .dsm;
    let modi = run_workload(
        &Platform::treadmarks(4),
        &water::Water::tiny(water::WaterMode::Modified),
    )
    .report
    .dsm;
    let orig_locks = orig.remote_lock_acquires + orig.local_lock_acquires;
    let modi_locks = modi.remote_lock_acquires + modi.local_lock_acquires;
    assert!(
        orig_locks > 3 * modi_locks,
        "Water {orig_locks} vs M-Water {modi_locks}"
    );
}

#[test]
fn diffs_created_lazily_only_when_requested() {
    // A single writer whose pages nobody reads creates twins but no diffs.
    let w = sor::Sor::tiny();
    let r = run_workload(&Platform::treadmarks(2), &w).report;
    assert!(r.dsm.twins_created > 0);
    // Only boundary pages are ever requested; interior pages never diff.
    assert!(
        r.dsm.diffs_created < r.dsm.intervals_closed * 3,
        "diffs {} should be far fewer than intervals {} x pages",
        r.dsm.diffs_created,
        r.dsm.intervals_closed
    );
}

#[test]
fn hardware_platforms_report_their_fabric() {
    let w = sor::Sor::tiny();
    let sgi = run_workload(&Platform::Sgi { procs: 4 }, &w).report;
    assert!(sgi.bus.is_some());
    assert!(sgi.directory.is_none());
    assert_eq!(sgi.traffic.total_msgs(), 0);

    let ah = run_workload(&Platform::ah(4), &w).report;
    assert!(ah.directory.is_some());
    assert!(ah.bus.is_none());

    let hs = run_workload(&Platform::hs_sim(2, 2), &w).report;
    assert!(hs.bus.is_some());
    assert!(hs.traffic.total_msgs() > 0);
}

#[test]
fn reduced_overheads_never_slow_a_dsm_app_down() {
    // Figures 14-16's premise: lower fixed/per-word costs help (or at
    // least never hurt) the software platforms.
    let w = tsp::Tsp::new(10);
    let base = SoftwareOverhead::sim_baseline();
    let faster = base.with_fixed(100).with_per_word(1);
    let slow = run_workload(&Platform::as_sim(8), &w).report.cycles;
    let quick = run_workload(
        &Platform::AsCluster {
            procs: 8,
            part1: false,
            so: Some(faster),
            tuning: Default::default(),
        },
        &w,
    )
    .report
    .cycles;
    assert!(quick <= slow, "faster interface {quick} vs baseline {slow}");
}

#[test]
fn clock_rates_match_the_platform_era() {
    let w = sor::Sor::tiny();
    assert_eq!(run_workload(&Platform::Dec, &w).report.clock_hz, 40_000_000);
    assert_eq!(
        run_workload(&Platform::as_sim(2), &w).report.clock_hz,
        100_000_000
    );
}

#[test]
fn per_class_counters_reconcile_with_recorded_totals() {
    // Every message is recorded twice: once into its class counter and
    // once into the run-total cross-check; `Traffic::check` proves the
    // two bookkeepings agree exactly, per platform.
    let w = water::Water::tiny(water::WaterMode::Original);
    for p in [
        Platform::Dec,
        Platform::Sgi { procs: 4 },
        Platform::treadmarks(4),
        Platform::as_sim(4),
        Platform::hs_sim(2, 2),
        Platform::ah(4),
    ] {
        let r = run_workload(&p, &w).report;
        r.traffic
            .check()
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        r.mark_traffic
            .check()
            .unwrap_or_else(|e| panic!("{} (mark snapshot): {e}", p.name()));
    }
    // On a software platform the totals are nonzero and exact.
    let t = run_workload(&Platform::as_sim(4), &tsp::Tsp::new(10))
        .report
        .traffic;
    assert!(t.msgs_recorded > 0);
    assert_eq!(t.total_msgs(), t.msgs_recorded);
    assert_eq!(t.total_bytes(), t.bytes_recorded);
}
