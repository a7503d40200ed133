//! Conservative causality and reproducibility of the engine on randomized
//! runs — AS under LRC and IVY plus the HS hybrid, clean and lossy networks,
//! GC on and off. The engine always runs the Ready processor with the
//! minimum clock next, so the op-start clocks of a run must never decrease;
//! and a run must be a pure function of its inputs, down to the watchdog
//! verdicts a dying run panics with.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use tmk::apps::{sor, tsp};
use tmk::dsm::RetransmitPolicy;
use tmk::machines::{run_workload_with, DsmProtocol, DsmTuning, Platform, RunOpts};
use tmk::net::FaultPlan;
use tmk::parmacs::Workload;

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

/// Everything a run produced, flattened for comparison: the report JSON
/// with the host-side `host_ms` normalized away, the per-processor
/// checksums, the engine op trace, and the attribution ledger. Asserts the
/// op trace's start clocks never decrease.
fn fingerprint<W: Workload>(p: &Platform, w: &W) -> String {
    let opts = RunOpts {
        trace: Some(0),
        op_trace: true,
    };
    let (out, buf) = run_workload_with(p, w, &opts);
    assert!(!out.op_trace.is_empty(), "op trace armed");
    if let Some(i) = out.op_trace.windows(2).position(|o| o[1].1 < o[0].1) {
        panic!(
            "{}: op {} starts at {:?}, before op {} at {:?}",
            p.key(),
            i + 1,
            out.op_trace[i + 1],
            i,
            out.op_trace[i]
        );
    }
    let mut report = out.report.clone();
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
    // Each case simulates the same (tiny) run twice; a handful of cases
    // covers AS-LRC/AS-IVY/HS x clean/lossy x GC on/off x 2-4 nodes.
    #![proptest_config(ProptestConfig::with_cases(14))]

    #[test]
    fn random_dsm_runs_are_causal_and_reproducible(
        procs in 2usize..5,
        ivy in any::<bool>(),
        hs in any::<bool>(),
        seed in any::<u64>(),
        drop_permille in 0u32..31,
        gc in any::<bool>(),
        use_tsp in any::<bool>(),
    ) {
        let p = dsm_platform(procs, ivy, hs, seed, drop_permille, gc);
        let (a, b) = if use_tsp {
            let w = tsp::Tsp::new(8);
            (fingerprint(&p, &w), fingerprint(&p, &w))
        } else {
            let w = sor::Sor::tiny();
            (fingerprint(&p, &w), fingerprint(&p, &w))
        };
        prop_assert_eq!(&a, &b, "{}: two runs diverge", p.key());
    }
}

/// The panic message a run dies with.
fn verdict<W: Workload + std::panic::RefUnwindSafe>(p: &Platform, w: &W) -> String {
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_workload_with(p, w, &RunOpts::default())
    }));
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
fn budget_watchdog_verdicts_are_reproducible() {
    // A budget far below any real finishing time: the watchdog fires
    // mid-run and dumps every processor's state plus machine diagnostics.
    let tuning = DsmTuning {
        watchdog_budget: Some(10_000),
        ..Default::default()
    };
    for p in both_machines(3, tuning) {
        let w = sor::Sor::tiny();
        let first = verdict(&p, &w);
        assert!(first.contains("passed the cycle budget"), "got: {first}");
        assert!(first.contains("machine diagnostics"), "got: {first}");
        assert_eq!(
            first,
            verdict(&p, &w),
            "watchdog dumps must be byte-identical"
        );
    }
}

#[test]
fn deadlock_verdicts_are_reproducible() {
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
        let first = verdict(&p, &w);
        assert!(first.contains("simulation deadlock"), "got: {first}");
        assert!(first.contains("blocked"), "got: {first}");
        assert_eq!(
            first,
            verdict(&p, &w),
            "deadlock dumps must be byte-identical"
        );
    }
}
