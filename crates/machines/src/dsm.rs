//! The software shared-memory machine: TreadMarks nodes on a
//! general-purpose network.
//!
//! One protocol node per processor (the paper's DECstation/ATM cluster and
//! the simulation study's all-software design), held in the inter-node
//! [`Fabric`] this machine shares with the hybrid. Every protocol cascade
//! — a page fault's fetches, a lock chase through manager and holder, a
//! barrier episode — is routed through the fabric's network model inside
//! the requesting processor's engine operation: each hop charges the sender's
//! and receiver's software overheads (receivers via stolen cycles, the
//! interrupt-driven handler model), reserves link occupancy, and the
//! resulting completion times drive processor clocks and wakeups.
//!
//! The machine is one [`Machine`] implementation behind the one PARMACS
//! handle. It adds a processor cache per node and the fixed local costs: a
//! lock whose token is already here, the store that releases a lock, and
//! the counter update of a barrier arrival.

use tmk_core::{Action, NodeId};
use tmk_mem::{CacheParams, DirectCache};
use tmk_net::{NetParams, SoftwareOverhead};
use tmk_sim::{Cycle, Op};
use tmk_trace::{Category, Sink};

use crate::fabric::{self, Completion, Fabric, NodeMachine};
use crate::run::{AccessData, Machine};
use crate::RunReport;

/// Parameters of a software-DSM cluster.
#[derive(Debug, Clone)]
pub struct DsmParams {
    /// Processor clock in Hz.
    pub clock_hz: u64,
    /// Nodes (= processors; uniprocessor nodes).
    pub procs: usize,
    /// Node-local processor cache.
    pub cache: CacheParams,
    /// Local memory miss penalty, cycles.
    pub memory_latency: Cycle,
    /// The general-purpose network.
    pub net: NetParams,
    /// Communication software costs.
    pub so: SoftwareOverhead,
    /// Cycles for a lock acquire whose token is already local.
    pub lock_local_cost: Cycle,
    /// DSM page size in bytes.
    pub page_size: usize,
}

impl DsmParams {
    /// Part 1: TreadMarks on DECstation-5000/240s and a Fore ATM LAN,
    /// user-level Ultrix implementation.
    pub fn treadmarks_dec_atm(procs: usize) -> Self {
        DsmParams {
            clock_hz: 40_000_000,
            procs,
            cache: CacheParams::new(64 << 10, 32),
            memory_latency: 10,
            net: NetParams::atm_40mhz(),
            so: SoftwareOverhead::ultrix_user(),
            lock_local_cost: 20,
            page_size: 4096,
        }
    }

    /// Part 2: the simulation study's all-software design (100 MHz nodes,
    /// 155 Mbit/s ATM, baseline software overheads).
    pub fn as_sim(procs: usize) -> Self {
        DsmParams {
            clock_hz: 100_000_000,
            procs,
            cache: CacheParams::new(64 << 10, 64),
            memory_latency: 20,
            net: NetParams::atm_100mhz(),
            so: SoftwareOverhead::sim_baseline(),
            lock_local_cost: 20,
            page_size: 4096,
        }
    }
}

/// The shared machine state: the inter-node fabric plus one processor
/// cache per (uniprocessor) node.
pub struct DsmMachine {
    pub(crate) fabric: Fabric,
    caches: Vec<DirectCache>,
    pub(crate) params: DsmParams,
}

impl DsmMachine {
    /// Builds the cluster with a `segment_bytes` shared segment.
    pub fn new(params: DsmParams, segment_bytes: usize, tuning: &crate::DsmTuning) -> Self {
        DsmMachine {
            fabric: Fabric::new(
                params.procs,
                params.net,
                params.so,
                params.page_size,
                tuning.protocol,
                segment_bytes,
                tuning,
            ),
            caches: (0..params.procs)
                .map(|_| DirectCache::new(params.cache))
                .collect(),
            params,
        }
    }
}

impl NodeMachine for DsmMachine {
    fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn per_node(&self) -> usize {
        1
    }

    fn charge(&mut self, proc: usize, addr: usize, len: usize, write: bool, now: Cycle) -> Cycle {
        self.caches[proc].charge_range(addr, len, write, self.params.memory_latency, now)
    }

    fn purge_page(&mut self, node: NodeId, page: usize) {
        let ps = self.fabric.page_size;
        for line in self.params.cache.lines_of(page * ps, ps) {
            self.caches[node].invalidate(line);
        }
    }

    /// A node *is* a processor here.
    fn completed_elsewhere(op: &mut Op<'_, Self>, node: NodeId, _: Action, at: Cycle) {
        op.wake_at(node, at);
    }
}

/// A node is a processor: it takes a lock, and arrives at a barrier, at
/// the DSM level. A trace sink shows protocol actions on node tracks and
/// wire transfers on link tracks.
impl Machine for DsmMachine {
    fn access(op: &mut Op<'_, Self>, addr: usize, data: &mut AccessData<'_>) -> bool {
        fabric::access(op, addr, data)
    }

    fn lock(op: &mut Op<'_, Self>, lock: usize) -> bool {
        let (me, now) = (op.id(), op.now());
        if op.machine().fabric.holds(me, lock) {
            return true; // granted while we were blocked
        }
        match fabric::acquire(op, me, lock, now) {
            Completion::Local => {
                let c = op.machine().params.lock_local_cost;
                op.advance_as(Category::Protocol, c);
                true
            }
            Completion::At(_) => true,
            Completion::Pending => {
                op.block_on(format!("lock {lock} grant"));
                false
            }
        }
    }

    fn unlock(op: &mut Op<'_, Self>, lock: usize) {
        let (me, now) = (op.id(), op.now());
        fabric::release(op, me, lock, now + 2);
    }

    fn barrier(op: &mut Op<'_, Self>, barrier: usize) {
        let (me, now) = (op.id(), op.now());
        op.machine().fabric.barrier_epoch(me, now, barrier);
        // If we block, the barrier completes when another processor's
        // cascade wakes us; nothing more to do.
        if fabric::arrive(op, me, barrier, now + 10) == Completion::Pending {
            op.block_on(format!("barrier {barrier} release"));
        }
    }

    fn mark(&mut self, now: Cycle) {
        self.fabric.mark(now);
    }

    fn set_tracer(&mut self, sink: Sink) {
        self.fabric.set_tracer(sink);
    }

    /// The fabric's half plus this machine's caches.
    fn fill_report(&self, report: &mut RunReport) {
        report.clock_hz = self.params.clock_hz;
        self.fabric.fill_report(report);
        for c in &self.caches {
            let s = c.stats();
            report.cache.hits += s.hits;
            report.cache.misses += s.misses;
            report.cache.evictions += s.evictions;
        }
    }

    fn diagnostics(&self) -> String {
        self.fabric.diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use tmk_parmacs::{System, SystemExt};

    use crate::run::run_body;
    use crate::{Platform, RunReport};

    fn run<R: Send>(
        procs: usize,
        body: impl Fn(&dyn System) -> R + Send + Sync,
    ) -> (Vec<R>, RunReport) {
        run_body(&Platform::treadmarks(procs), body)
    }

    #[test]
    fn coherent_counter_under_timing() {
        let (results, rep) = run(4, |sys| {
            for _ in 0..10 {
                sys.lock(0);
                let v: u64 = sys.read(0);
                sys.write(0, v + 1);
                sys.unlock(0);
            }
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert!(results.into_iter().all(|v| v == 40));
        assert!(rep.traffic.lock_msgs > 0);
        assert!(rep.traffic.miss_msgs > 0);
    }

    #[test]
    fn remote_lock_latency_is_sub_millisecond_but_nontrivial() {
        // Paper: minimum remote lock acquisition time is a fraction of a
        // millisecond on the user-level implementation.
        let (_, rep) = run(2, |sys| {
            if sys.pid() == 1 {
                sys.lock(0); // token starts at node 0: remote acquire
                sys.unlock(0);
            }
        });
        let cycles = rep.proc_cycles[1];
        let us = cycles as f64 / 40.0; // 40 cycles per µs at 40 MHz
        assert!(us > 100.0, "remote lock took only {us} µs");
        assert!(us < 1500.0, "remote lock took {us} µs");
    }

    #[test]
    fn barrier_wakes_everyone_with_consistent_times() {
        let (_, rep) = run(4, |sys| {
            sys.compute(1000 * (sys.pid() as u64 + 1));
            sys.barrier(0);
        });
        // All processors leave the barrier after the slowest arrival.
        assert!(rep.proc_cycles.iter().all(|&c| c >= 4000));
    }

    #[test]
    fn page_data_flows_between_nodes() {
        let (results, rep) = run(3, |sys| {
            if sys.pid() == 0 {
                sys.write(0, 123u64);
            }
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert!(results.into_iter().all(|v| v == 123));
        assert!(rep.traffic.miss_bytes >= 4096, "page moved at least once");
    }

    #[test]
    fn single_node_runs_without_messages() {
        let (results, rep) = run(1, |sys| {
            sys.lock(0);
            sys.write(0, 7u64);
            sys.unlock(0);
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert_eq!(results, vec![7]);
        assert_eq!(rep.traffic.total_msgs(), 0);
    }
}
