//! The four fixed run lists, generated from `--seed`.
//!
//! A workload is a closed loop of one client: an ordered list of
//! (application, platform) runs executed back to back, the way a
//! `suite --jobs 1` user pays for them. Run keys use the suite's
//! `workload-id|platform-key` spelling so a run can be looked up in the
//! committed `results/*.json` records.
//!
//! The seed perturbs every `FaultPlan` seed and the ILINK pedigree seed by
//! `seed ^ DEFAULT_SEED`, so at the default seed the faulted keys are the
//! ones the `chaos` and `recovery` experiments committed. The program
//! under test only ever receives the generated `Platform`/workload values.

use tmk_apps::ilink::{Ilink, Pedigree};
use tmk_apps::sor::Sor;
use tmk_apps::tsp::{Tsp, BOUND_LOCK};
use tmk_apps::water::{Water, WaterMode};
use tmk_core::RetransmitPolicy;
use tmk_machines::{DsmProtocol, DsmTuning, Platform};
use tmk_net::FaultPlan;

/// The seed the committed `expected.json` was generated at.
pub const DEFAULT_SEED: u64 = 1994;

/// Workload names, in reporting order, with the one-line reason each
/// exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "hw_models",
        "hardware platforms only: cache/bus/directory models, no DSM protocol, network or timed router",
    ),
    (
        "dsm_sync",
        "8-16 node DSM clusters, lock- and message-dense: node handlers, diffs, timed router, net",
    ),
    (
        "dsm_scale",
        "64-128 node clusters: wide vector times, all-to-all barrier notices, machine construction",
    ),
    (
        "dsm_faults",
        "same DSM layers under drops/dups/delays/crashes, GC, eager release and IVY",
    ),
];

/// Input scale: the measured lists, or the seconds-long lists `--smoke`
/// drives the same harness paths with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    Full,
    Tiny,
}

/// One of the four applications on a concrete input.
#[derive(Debug, Clone)]
pub enum App {
    Sor(Sor),
    Water(Water),
    Ilink(Ilink),
    Tsp(Tsp),
}

/// One entry of a run list.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// `workload-id|platform-key`, as `suite` spells it.
    pub key: String,
    pub app: App,
    pub platform: Platform,
}

fn spec(id: &str, app: App, platform: Platform) -> RunSpec {
    RunSpec {
        key: format!("{id}|{}", platform.key()),
        app,
        platform,
    }
}

/// Builds run lists for one (tier, seed).
struct Gen {
    tier: Tier,
    /// `seed ^ DEFAULT_SEED`: zero at the default seed.
    salt: u64,
}

impl Gen {
    fn tiny(&self) -> bool {
        self.tier == Tier::Tiny
    }

    fn sor(&self, full: (&'static str, fn() -> Sor), p: Platform) -> RunSpec {
        if self.tiny() {
            spec("sor-tiny", App::Sor(Sor::tiny()), p)
        } else {
            spec(full.0, App::Sor(full.1()), p)
        }
    }

    fn sor_small(&self, p: Platform) -> RunSpec {
        self.sor(("sor-small", Sor::small), p)
    }

    fn water(&self, modified: bool, p: Platform) -> RunSpec {
        let mode = if modified {
            WaterMode::Modified
        } else {
            WaterMode::Original
        };
        let base = if modified { "mwater" } else { "water" };
        if self.tiny() {
            spec(&format!("{base}-tiny"), App::Water(Water::tiny(mode)), p)
        } else {
            spec(base, App::Water(Water::paper(mode)), p)
        }
    }

    /// ILINK's pedigree seed moves with `--seed`; away from the default the
    /// id says so, because the suite's id names the committed pedigree and
    /// `expected.json` must not pin a different input under the same key.
    fn ilink(&self, p: Platform) -> RunSpec {
        let (id, mut pedigree) = if self.tiny() {
            ("ilink-tiny", Pedigree::tiny())
        } else {
            ("ilink-bad", Pedigree::bad_like())
        };
        pedigree.seed ^= self.salt;
        let id = if self.salt == 0 {
            id.to_string()
        } else {
            format!("{id}@{:x}", pedigree.seed)
        };
        spec(&id, App::Ilink(Ilink { pedigree }), p)
    }

    /// TSP keeps the suite's instance at every seed: branch-and-bound work
    /// varies a hundredfold between random instances of one size (TSP-16
    /// on AS-8 took 0.05 s to 6.4 s of host time over ten seeds; README,
    /// "Seeds"), which would make the seed the largest term of `host_s`.
    fn tsp(&self, cities: usize, p: Platform) -> RunSpec {
        let cities = if self.tiny() { 10 } else { cities };
        spec(&format!("tsp{cities}"), App::Tsp(Tsp::new(cities)), p)
    }

    /// Processor counts shrink on the tiny tier so a 24-row grid still
    /// gives every processor a band.
    fn procs(&self, full: usize) -> usize {
        if self.tiny() {
            full.min(4)
        } else {
            full
        }
    }

    fn sgi(&self) -> Platform {
        Platform::Sgi {
            procs: self.procs(8),
        }
    }

    fn ah(&self, procs: usize) -> Platform {
        Platform::ah(self.procs(procs))
    }

    fn hs(&self, nodes: usize, per_node: usize) -> Platform {
        if self.tiny() {
            Platform::hs_sim(2, 2)
        } else {
            Platform::hs_sim(nodes, per_node)
        }
    }

    fn cluster(&self, procs: usize, part1: bool, tuning: DsmTuning) -> Platform {
        Platform::AsCluster {
            procs: self.procs(procs),
            part1,
            so: None,
            tuning,
        }
    }

    fn asim(&self, procs: usize) -> Platform {
        self.cluster(procs, false, DsmTuning::default())
    }

    fn tmk(&self, tuning: DsmTuning) -> Platform {
        self.cluster(8, true, tuning)
    }

    /// The `chaos` experiment's lossy cluster: seeded drops masked by the
    /// default fixed-RTO retransmission layer.
    fn lossy(&self, procs: usize, drop: f64) -> Platform {
        self.cluster(
            procs,
            false,
            DsmTuning {
                faults: Some(FaultPlan::drop_rate(CHAOS_SEED ^ self.salt, drop)),
                reliability: Some(RetransmitPolicy::default()),
                watchdog_budget: Some(WATCHDOG),
                ..Default::default()
            },
        )
    }

    /// Drops, duplicates and delays together, under the adaptive RTO.
    fn chaotic(&self, procs: usize) -> Platform {
        let floor = RetransmitPolicy::default().timeout;
        self.cluster(
            procs,
            false,
            DsmTuning {
                faults: Some(
                    FaultPlan::drop_rate(CHAOS_SEED ^ self.salt, 1e-3)
                        .with_dup(1e-3)
                        .with_delay(1e-2, 20_000),
                ),
                reliability: Some(RetransmitPolicy::default().with_adaptive(floor, 32 * floor)),
                watchdog_budget: Some(WATCHDOG),
                ..Default::default()
            },
        )
    }

    /// The `recovery` experiment's two-permanent-crash schedule: barrier
    /// checkpoints, a snappy RTO as failure detector, two rollbacks.
    fn crashing(&self, procs: usize) -> Platform {
        let (early, mid) = if self.tiny() {
            (100_000, 300_000)
        } else {
            (1_000_000, 8_000_000)
        };
        self.cluster(
            procs,
            false,
            DsmTuning {
                faults: Some(
                    FaultPlan::crash_schedule(RECOVERY_SEED ^ self.salt)
                        .with_crash(1, early, None)
                        .with_crash(2, mid, None),
                ),
                reliability: Some(RetransmitPolicy {
                    timeout: 50_000,
                    backoff: 2,
                    max_retries: 4,
                    adaptive: None,
                }),
                checkpoints: true,
                watchdog_budget: Some(WATCHDOG),
                ..Default::default()
            },
        )
    }

    fn list(&self, workload: &str) -> Option<Vec<RunSpec>> {
        let ivy = || DsmTuning {
            protocol: DsmProtocol::Ivy,
            ..Default::default()
        };
        Some(match workload {
            "hw_models" => vec![
                self.sor_small(Platform::Dec),
                self.sor_small(self.sgi()),
                self.sor(("sor-large", Sor::large), self.sgi()),
                self.sor_small(self.ah(32)),
                self.sor_small(self.ah(64)),
                self.water(false, self.sgi()),
                self.water(false, self.ah(32)),
                self.water(true, self.ah(64)),
                self.ilink(self.sgi()),
                self.tsp(15, self.sgi()),
            ],
            "dsm_sync" => vec![
                self.water(false, self.asim(8)),
                self.water(false, self.tmk(DsmTuning::default())),
                self.water(false, self.hs(4, 2)),
                self.sor_small(self.asim(8)),
                self.ilink(self.tmk(DsmTuning::default())),
                self.tsp(16, self.asim(8)),
                self.water(true, self.asim(16)),
            ],
            "dsm_scale" => vec![
                self.sor_small(self.asim(128)),
                self.tsp(16, self.asim(64)),
                self.water(true, self.asim(32)),
                self.sor_small(self.asim(64)),
                self.sor_small(self.hs(16, 8)),
            ],
            "dsm_faults" => vec![
                self.sor_small(self.lossy(8, 1e-2)),
                self.water(false, self.chaotic(8)),
                self.water(true, self.chaotic(8)),
                self.sor_small(self.crashing(16)),
                self.sor(
                    ("sor-huge", Sor::huge),
                    self.cluster(
                        16,
                        false,
                        DsmTuning {
                            gc: Some(if self.tiny() { 1 << 10 } else { 1 << 18 }),
                            ..Default::default()
                        },
                    ),
                ),
                self.water(
                    true,
                    self.cluster(
                        16,
                        false,
                        DsmTuning {
                            page_size: Some(1024),
                            ..Default::default()
                        },
                    ),
                ),
                self.water(
                    true,
                    self.cluster(
                        16,
                        false,
                        DsmTuning {
                            eager_all: true,
                            ..Default::default()
                        },
                    ),
                ),
                self.tsp(
                    14,
                    self.tmk(DsmTuning {
                        eager_locks: vec![BOUND_LOCK],
                        ..Default::default()
                    }),
                ),
                self.sor_small(self.tmk(ivy())),
                self.water(true, self.tmk(ivy())),
                self.tsp(15, self.lossy(8, 1e-2)),
            ],
            _ => return None,
        })
    }
}

/// The `chaos` experiment's fault seed.
const CHAOS_SEED: u64 = 0xc4a05;
/// The `recovery` experiment's crash-schedule seed.
const RECOVERY_SEED: u64 = 0x5ec0;
/// The suite's livelock safety net, orders of magnitude above any run.
const WATCHDOG: u64 = 4_000_000_000_000;

/// The run list of `workload` at `seed`, or `None` for an unknown name.
pub fn run_list(workload: &str, tier: Tier, seed: u64) -> Option<Vec<RunSpec>> {
    Gen {
        tier,
        salt: seed ^ DEFAULT_SEED,
    }
    .list(workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_spells_the_committed_keys() {
        let keys = |w: &str| -> Vec<String> {
            run_list(w, Tier::Full, DEFAULT_SEED)
                .unwrap()
                .into_iter()
                .map(|r| r.key)
                .collect()
        };
        assert_eq!(keys("hw_models")[2], "sor-large|sgi/p8");
        assert_eq!(keys("dsm_scale")[4], "sor-small|hs/n16x8");
        let faults = keys("dsm_faults");
        assert_eq!(
            faults[0],
            "sor-small|as/p8/fs805381d0.01u0y0c0mff/rt1000000b2r16/wd4000000000000"
        );
        assert_eq!(
            faults[3],
            "sor-small|as/p16/fs24256d0u0y0c0mff/cr1@1000000,2@8000000/rt50000b2r4/wd4000000000000/ck"
        );
        assert_eq!(faults[4], "sor-huge|as/p16/gc262144");
        assert_eq!(faults[7], "tsp14|tmk/p8/el1");
    }

    #[test]
    fn seed_moves_fault_and_pedigree_seeds_only() {
        let a = run_list("dsm_faults", Tier::Full, DEFAULT_SEED).unwrap();
        let b = run_list("dsm_faults", Tier::Full, 7).unwrap();
        assert_ne!(a[0].key, b[0].key, "fault seed is perturbed");
        assert_eq!(a[4].key, b[4].key, "fault-free runs keep their key");
        let ped = |l: &[RunSpec]| match &l[4].app {
            App::Ilink(i) => i.pedigree.seed,
            other => panic!("expected ILINK, got {other:?}"),
        };
        let s1 = run_list("dsm_sync", Tier::Full, DEFAULT_SEED).unwrap();
        let s2 = run_list("dsm_sync", Tier::Full, 7).unwrap();
        assert_eq!(ped(&s1), Pedigree::bad_like().seed);
        assert_ne!(ped(&s1), ped(&s2));
        assert_eq!(s1[4].key, "ilink-bad|tmk/p8");
        assert_ne!(
            s1[4].key, s2[4].key,
            "a different pedigree is a different key"
        );
    }

    #[test]
    fn every_workload_has_both_tiers_and_full_keys_are_unique() {
        for (w, _) in WORKLOADS {
            let full = run_list(w, Tier::Full, DEFAULT_SEED).unwrap();
            let mut keys: Vec<&str> = full.iter().map(|r| r.key.as_str()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), full.len(), "{w}");
            // The tiny tier has the same shape; its keys may repeat (SOR
            // small and large both shrink to the 24-row grid).
            let tiny = run_list(w, Tier::Tiny, DEFAULT_SEED).unwrap();
            assert_eq!(tiny.len(), full.len(), "{w}");
        }
        assert!(run_list("nope", Tier::Full, DEFAULT_SEED).is_none());
    }
}
