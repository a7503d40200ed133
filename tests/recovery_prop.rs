//! Property tests for crash-fault recovery: a single node crash scheduled at
//! *any* cycle — on the AS cluster under LRC or IVY or on the HS hybrid, on a
//! clean or lossy network, permanent or transient — must leave the application results byte-identical to the
//! crash-free run once barrier-epoch checkpointing and the retransmission
//! layer are armed, and every cycle the recovery charges must land in the
//! ledger without breaking the exact sum-to-clock invariant.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use tmk::apps::{sor, tsp};
use tmk::dsm::RetransmitPolicy;
use tmk::machines::{run_workload, run_workload_with, DsmProtocol, DsmTuning, Platform, RunOpts};
use tmk::net::FaultPlan;
use tmk::parmacs::Workload;

/// An RTO aggressive enough that retransmission exhaustion (the failure
/// detector) fires within the tiny proptest runs; the default 1M-cycle
/// timeout would stretch detection past the end of most of them.
fn snappy() -> RetransmitPolicy {
    RetransmitPolicy {
        timeout: 50_000,
        backoff: 2,
        max_retries: 4,
        adaptive: None,
    }
}

/// Which machine a case runs on: an AS cluster of `procs` uniprocessor
/// nodes under either protocol, or the HS hybrid (always LRC) as 4 nodes of
/// 2 processors.
#[derive(Debug, Clone, Copy)]
enum Machine {
    As { procs: usize, ivy: bool },
    Hs,
}

impl Machine {
    fn nodes(self) -> usize {
        match self {
            Machine::As { procs, .. } => procs,
            Machine::Hs => 4,
        }
    }
}

fn platform(
    machine: Machine,
    seed: u64,
    drop_permille: u32,
    crash: Option<(usize, u64, Option<u64>)>,
) -> Platform {
    let mut plan = FaultPlan::drop_rate(seed, drop_permille as f64 / 1000.0);
    if let Some((node, at, restart)) = crash {
        plan = plan.with_crash(node, at, restart);
    }
    let ivy = matches!(machine, Machine::As { ivy: true, .. });
    let tuning = DsmTuning {
        protocol: if ivy {
            DsmProtocol::Ivy
        } else {
            DsmProtocol::Lrc
        },
        faults: Some(plan),
        reliability: Some(snappy()),
        checkpoints: crash.is_some(),
        // Safety net far above any legitimate run, in case a random
        // configuration ever livelocks retransmission or recovery.
        watchdog_budget: Some(4_000_000_000_000),
        ..Default::default()
    };
    match machine {
        Machine::As { procs, .. } => Platform::AsCluster {
            procs,
            part1: false,
            so: None,
            tuning,
        },
        Machine::Hs => Platform::Hs {
            nodes: 4,
            per_node: 2,
            so: None,
            tuning,
        },
    }
}

fn check_one<W: Workload>(
    machine: Machine,
    seed: u64,
    drop_permille: u32,
    crash: (usize, u64, Option<u64>),
    w: &W,
) -> Result<(), TestCaseError> {
    let base = run_workload(&platform(machine, seed, drop_permille, None), w);
    let p = platform(machine, seed, drop_permille, Some(crash));
    let (run, buf) = run_workload_with(
        &p,
        w,
        &RunOpts {
            trace: Some(0),
            ..Default::default()
        },
    );
    let buf = buf.expect("tracing armed");

    // The headline property: the survivors reconstruct the crash-free
    // application output exactly, whatever the crash cycle hit.
    prop_assert_eq!(
        &run.results,
        &base.results,
        "{}: results diverged from the crash-free run",
        p.key()
    );
    // Recovery charges must keep the per-processor category ledgers summing
    // exactly to the finishing clocks.
    let ledgers = buf.check(&run.report.proc_cycles);
    prop_assert!(ledgers.is_ok(), "{}: {}", p.key(), ledgers.unwrap_err());

    let rec = &run.report.recovery;
    if rec.rollbacks > 0 {
        prop_assert_eq!(rec.suspected, rec.rollbacks, "{}", p.key());
        prop_assert!(
            rec.recovery_cycles > 0,
            "{}: rollback charged no recovery cycles",
            p.key()
        );
        prop_assert!(rec.checkpoints > 0, "{}", p.key());
    }
    // A crash-armed run replays bit-exactly: same clocks, same recovery
    // counters, same output.
    let again = run_workload(&p, w);
    prop_assert_eq!(&again.results, &run.results, "{}", p.key());
    prop_assert_eq!(
        again.report.proc_cycles,
        run.report.proc_cycles,
        "{}: crash replay is not deterministic",
        p.key()
    );
    prop_assert_eq!(again.report.recovery, run.report.recovery, "{}", p.key());
    Ok(())
}

proptest! {
    // Each case simulates three full (tiny) parallel runs; a handful of
    // cases already covers AS-LRC/AS-IVY/HS x clean/lossy x permanent/
    // transient x crash cycles from the first page fetch to past the
    // natural end.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn single_crash_at_any_cycle_recovers_byte_identically(
        procs in 2usize..5,
        ivy in any::<bool>(),
        hs in any::<bool>(),
        seed in any::<u64>(),
        drop_permille in 0u32..16,
        node in 0usize..4,
        crash_at in 10_000u64..600_000,
        restart in 0u64..4,
        use_tsp in any::<bool>(),
    ) {
        // 0 encodes a permanent crash; otherwise a transient outage shorter
        // than the detection window, masked by retransmission alone.
        let restart = (restart > 0).then_some(restart * 60_000);
        let machine = if hs { Machine::Hs } else { Machine::As { procs, ivy } };
        let crash = (node % machine.nodes(), crash_at, restart);
        if use_tsp {
            check_one(machine, seed, drop_permille, crash, &tsp::Tsp::new(8))?;
        } else {
            check_one(machine, seed, drop_permille, crash, &sor::Sor::tiny())?;
        }
    }
}

/// Without a checkpoint to roll back to, a detected crash is unrecoverable:
/// the run must abort with a message naming the dead node rather than wedge
/// or return wrong results.
#[test]
fn unrecoverable_crash_aborts_naming_the_dead_node() {
    let p = Platform::AsCluster {
        procs: 4,
        part1: false,
        so: None,
        tuning: DsmTuning {
            faults: Some(FaultPlan::crash_schedule(7).with_crash(2, 100_000, None)),
            reliability: Some(snappy()),
            checkpoints: false,
            watchdog_budget: Some(4_000_000_000_000),
            ..Default::default()
        },
    };
    let err = catch_unwind(AssertUnwindSafe(|| run_workload(&p, &sor::Sor::tiny())))
        .expect_err("an unrecoverable crash must abort the run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("node 2 crashed and is unrecoverable"),
        "abort message does not name the dead node: {msg}"
    );
}
