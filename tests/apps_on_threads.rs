//! The paper's five applications on the real-thread runtime: a runtime node
//! is one more PARMACS `System`, so each `Workload` runs on it unchanged,
//! laid out by the same `Alloc` and initialized through the master.
//!
//! Each app runs at 2, 3, 4 and 8 nodes. Water and M-Water are looped, at
//! 3, 4 and 8 nodes, because their barriers are where the runtime's thread
//! schedule once let a node's arrival at one barrier overtake the previous
//! barrier's departure and tear the cluster down (about 1 run in 16).

use tmk::apps::{ilink, sor, tsp, water};
use tmk::dsm::runtime::{Dsm, DsmConfig, EpochStep, RunOpts};
use tmk::machines::{run_workload, Platform};
use tmk::parmacs::Workload;

const NODES: [usize; 4] = [2, 3, 4, 8];

/// Runs `w` on `nodes` real-thread nodes; returns the per-node checksums.
fn on_threads<W: Workload>(w: &W, nodes: usize) -> Vec<f64> {
    let cfg = DsmConfig::new(nodes);
    let pages = w.segment_bytes().div_ceil(cfg.page_size);
    let out = Dsm::run_epochs(
        cfg.segment_pages(pages),
        RunOpts::default(),
        |a, m| {
            let p = w.plan(a);
            w.init(&p, m);
            p
        },
        |node, _, p| EpochStep::Done(w.body(node, p)),
    );
    out.results
}

/// The total the one-processor DEC platform computes for `w`.
fn dec_total<W: Workload>(w: &W) -> f64 {
    run_workload(&Platform::Dec, w).results.into_iter().sum()
}

/// `cross_platform.rs`'s tolerance for float reassociation across band
/// partitionings.
fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b} (tolerance {tol})");
}

#[test]
fn sor_matches_the_dec_total() {
    let w = sor::Sor::tiny();
    let want = dec_total(&w);
    for n in NODES {
        for _ in 0..3 {
            assert_close(on_threads(&w, n).iter().sum(), want, &format!("sor at {n}"));
        }
    }
}

#[test]
fn ilink_matches_the_dec_total() {
    let w = ilink::Ilink {
        pedigree: ilink::Pedigree::tiny(),
    };
    let want = dec_total(&w);
    for n in NODES {
        for _ in 0..3 {
            let got = on_threads(&w, n).iter().sum();
            assert_close(got, want, &format!("ilink at {n}"));
        }
    }
}

#[test]
fn tsp_finds_the_dec_tour_on_every_node() {
    let w = tsp::Tsp::new(9);
    let want = dec_total(&w);
    for n in NODES {
        for _ in 0..3 {
            // Every node returns the tour length.
            let got: f64 = on_threads(&w, n).iter().sum();
            assert_eq!(got, n as f64 * want, "tsp at {n}");
        }
    }
}

/// Runs Water in `mode` once at 2 nodes and 25 times at each of 3, 4 and 8.
///
/// This checks clean teardown only. The totals drift from the DEC total in
/// the last digits, and whether that is float reassociation under a
/// different lock order or a stale read is still open.
fn water_tears_down_cleanly(mode: water::WaterMode) {
    let w = water::Water::tiny(mode);
    for (n, runs) in [(2, 1), (3, 25), (4, 25), (8, 25)] {
        for _ in 0..runs {
            let out = on_threads(&w, n);
            assert_eq!(out.len(), n);
            assert!(
                out.iter().all(|v| v.is_finite()),
                "{mode:?} at {n}: {out:?}"
            );
        }
    }
}

#[test]
fn water_tears_down_cleanly_under_looping() {
    water_tears_down_cleanly(water::WaterMode::Original);
}

#[test]
fn m_water_tears_down_cleanly_under_looping() {
    water_tears_down_cleanly(water::WaterMode::Modified);
}
