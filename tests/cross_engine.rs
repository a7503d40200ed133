//! Cross-engine equivalence: the threaded engine (one OS thread per
//! simulated processor) and the cooperative engine (single-threaded event
//! loop over stackful coroutines) are two implementations of the same
//! conservative simulation semantics, and must be byte-for-byte
//! interchangeable. These tests pin that down on randomized runs — AS under
//! LRC and IVY plus the HS hybrid, clean and lossy networks, GC on and off —
//! and on the watchdog
//! paths, where even the panic messages must compare equal.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use tmk::apps::{sor, tsp};
use tmk::dsm::RetransmitPolicy;
use tmk::machines::{run_workload_with, DsmProtocol, DsmTuning, Platform, RunOpts};
use tmk::net::FaultPlan;
use tmk::parmacs::Workload;
use tmk::sim::EngineKind;

/// An AS cluster of `procs` nodes, or — with `hs` — the HS hybrid as
/// `procs` nodes of 2 processors (always LRC).
fn dsm_platform(
    procs: usize,
    ivy: bool,
    hs: bool,
    seed: u64,
    drop_permille: u32,
    gc: bool,
) -> Platform {
    let tuning = DsmTuning {
        protocol: if ivy && !hs { DsmProtocol::Ivy } else { DsmProtocol::Lrc },
        faults: (drop_permille > 0)
            .then(|| FaultPlan::drop_rate(seed, drop_permille as f64 / 1000.0)),
        reliability: (drop_permille > 0).then(RetransmitPolicy::default),
        // Safety net far above any legitimate run, in case a random
        // configuration ever livelocks retransmission.
        watchdog_budget: Some(4_000_000_000_000),
        // Tiny inputs carry little metadata; threshold 1 collects at
        // every barrier, exercising the GC protocol end to end.
        gc: gc.then_some(1),
        ..Default::default()
    };
    if hs {
        Platform::Hs {
            nodes: procs,
            per_node: 2,
            so: None,
            tuning,
        }
    } else {
        Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning,
        }
    }
}

/// Everything one engine produced for a run, flattened for comparison:
/// the report JSON with the host-side fields (`engine`, `host_ms`)
/// normalized away, the per-processor checksums, the engine op trace, and
/// the six-category attribution ledger.
fn fingerprint<W: Workload>(engine: EngineKind, p: &Platform, w: &W) -> String {
    let opts = RunOpts {
        engine,
        trace: Some(0),
        op_trace: true,
    };
    let (out, buf) = run_workload_with(p, w, &opts);
    assert!(!out.op_trace.is_empty(), "op trace armed");
    let mut report = out.report.clone();
    report.engine = EngineKind::default();
    report.host_ms = 0.0;
    format!(
        "report={}\nchecksums={:?}\nops={:?}\nbreakdown={:?}",
        report.to_json().render(),
        out.results,
        out.op_trace,
        buf.expect("tracing armed").breakdown(),
    )
}

proptest! {
    // Each case simulates the same (tiny) run once per engine; a handful of
    // cases covers AS-LRC/AS-IVY/HS x clean/lossy x GC on/off x 2-4 nodes.
    #![proptest_config(ProptestConfig::with_cases(14))]

    #[test]
    fn engines_agree_on_random_dsm_runs(
        procs in 2usize..5,
        ivy in any::<bool>(),
        hs in any::<bool>(),
        seed in any::<u64>(),
        drop_permille in 0u32..31,
        gc in any::<bool>(),
        use_tsp in any::<bool>(),
    ) {
        let p = dsm_platform(procs, ivy, hs, seed, drop_permille, gc);
        let (threaded, coop) = if use_tsp {
            let w = tsp::Tsp::new(8);
            (fingerprint(EngineKind::Threaded, &p, &w), fingerprint(EngineKind::Coop, &p, &w))
        } else {
            let w = sor::Sor::tiny();
            (fingerprint(EngineKind::Threaded, &p, &w), fingerprint(EngineKind::Coop, &p, &w))
        };
        prop_assert_eq!(&threaded, &coop, "{}: engines diverge", p.key());
    }
}

/// The panic message a run dies with on the given engine.
fn verdict<W: Workload + std::panic::RefUnwindSafe>(
    engine: EngineKind,
    p: &Platform,
    w: &W,
) -> String {
    let opts = RunOpts {
        engine,
        ..Default::default()
    };
    let r = catch_unwind(AssertUnwindSafe(|| run_workload_with(p, w, &opts)));
    let payload = r.expect_err("the run must abort");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("watchdog panics carry a message")
}

/// AS-`nodes` and HS `nodes`x2 under the same tuning: the watchdog paths
/// below must behave alike on both machines.
fn both_machines(nodes: usize, tuning: DsmTuning) -> [Platform; 2] {
    [
        Platform::AsCluster {
            procs: nodes,
            part1: false,
            so: None,
            tuning: tuning.clone(),
        },
        Platform::Hs {
            nodes,
            per_node: 2,
            so: None,
            tuning,
        },
    ]
}

#[test]
fn budget_watchdog_verdicts_match_across_engines() {
    // A budget far below any real finishing time: the watchdog fires
    // mid-run and dumps every processor's state plus machine diagnostics.
    let tuning = DsmTuning {
        watchdog_budget: Some(10_000),
        ..Default::default()
    };
    for p in both_machines(3, tuning) {
        let w = sor::Sor::tiny();
        let threaded = verdict(EngineKind::Threaded, &p, &w);
        let coop = verdict(EngineKind::Coop, &p, &w);
        assert!(
            threaded.contains("passed the cycle budget"),
            "got: {threaded}"
        );
        assert!(threaded.contains("machine diagnostics"), "got: {threaded}");
        assert_eq!(threaded, coop, "watchdog dumps must be byte-identical");
    }
}

#[test]
fn deadlock_verdicts_match_across_engines() {
    // Every lock-class message dropped, no retransmission: the first
    // remote acquire hangs its cascade and the all-blocked detector aborts
    // the run with a dump naming each blocked processor and what it waits
    // on.
    let tuning = DsmTuning {
        faults: Some(
            FaultPlan::drop_rate(7, 1.0).with_class_mask(tmk::dsm::MsgClass::SyncLock.bit()),
        ),
        ..Default::default()
    };
    for p in both_machines(2, tuning) {
        let w = tsp::Tsp::new(8);
        let threaded = verdict(EngineKind::Threaded, &p, &w);
        let coop = verdict(EngineKind::Coop, &p, &w);
        assert!(threaded.contains("simulation deadlock"), "got: {threaded}");
        assert!(threaded.contains("blocked"), "got: {threaded}");
        assert_eq!(threaded, coop, "deadlock dumps must be byte-identical");
    }
}
