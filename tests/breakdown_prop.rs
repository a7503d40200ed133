//! Property test for the cycle-attribution invariant: however a run is
//! configured — LRC or IVY, perfect network or seeded message loss — every
//! processor's six category counters (compute, memory stall, protocol,
//! synchronization idle, network, stolen) sum *exactly* to its finishing
//! clock, and arming the tracer never changes the clock itself.

use proptest::prelude::*;

use tmk::apps::{sor, tsp};
use tmk::dsm::RetransmitPolicy;
use tmk::machines::{run_workload, run_workload_with, DsmProtocol, DsmTuning, Platform, RunOpts};
use tmk::net::FaultPlan;
use tmk::parmacs::Workload;

fn dsm_platform(procs: usize, ivy: bool, seed: u64, drop_permille: u32) -> Platform {
    Platform::AsCluster {
        procs,
        part1: false,
        so: None,
        tuning: DsmTuning {
            protocol: if ivy {
                DsmProtocol::Ivy
            } else {
                DsmProtocol::Lrc
            },
            faults: (drop_permille > 0)
                .then(|| FaultPlan::drop_rate(seed, drop_permille as f64 / 1000.0)),
            reliability: (drop_permille > 0).then(RetransmitPolicy::default),
            // Safety net far above any legitimate run, in case a random
            // configuration ever livelocks retransmission.
            watchdog_budget: Some(4_000_000_000_000),
            ..Default::default()
        },
    }
}

fn check_one<W: Workload>(p: &Platform, w: &W) -> Result<(), TestCaseError> {
    let (traced, buf) = run_workload_with(
        p,
        w,
        &RunOpts {
            trace: Some(0),
            ..Default::default()
        },
    );
    let buf = buf.expect("tracing armed");
    // The invariant under test: categories sum to the final clocks.
    let ledgers = buf.check(&traced.report.proc_cycles);
    prop_assert!(ledgers.is_ok(), "{}: {}", p.key(), ledgers.unwrap_err());
    // And observation is free: the untraced run has the same clocks.
    let plain = run_workload(p, w);
    prop_assert_eq!(
        plain.report.proc_cycles,
        traced.report.proc_cycles,
        "{}: tracing changed the simulation",
        p.key()
    );
    prop_assert_eq!(plain.results, traced.results);
    Ok(())
}

proptest! {
    // Each case simulates a full (tiny) parallel run twice; a handful of
    // cases already covers LRC/IVY x clean/lossy x 2-4 processors.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn breakdown_sums_to_clock_on_random_dsm_runs(
        procs in 2usize..5,
        ivy in any::<bool>(),
        seed in any::<u64>(),
        drop_permille in 0u32..31,
        use_tsp in any::<bool>(),
    ) {
        let p = dsm_platform(procs, ivy, seed, drop_permille);
        if use_tsp {
            check_one(&p, &tsp::Tsp::new(8))?;
        } else {
            check_one(&p, &sor::Sor::tiny())?;
        }
    }
}
