//! The hardware–software (HS) machine: bus-based multiprocessor nodes
//! connected by a general-purpose network, with TreadMarks providing
//! shared memory *between* nodes and bus snooping *within* them.
//!
//! Per the paper: all processors within a node are treated as one by the
//! DSM system — faults to the same page merge, modifications by co-resident
//! processors coalesce into a single diff, barriers use a local counter with
//! one arrival message per node, and a lock needs no messages when its
//! token already resides at the node.
//!
//! Inside a node, processors synchronize the way a bus machine's
//! processors do: each node keeps the hardware lock and barrier of
//! `hw.rs`, one per id, over its own processors. The machine is one
//! [`Machine`] implementation behind the one PARMACS handle.

use std::collections::HashMap;

use tmk_core::{Action, DsmProtocol, NodeId};
use tmk_mem::{BusParams, CacheParams, SnoopBus};
use tmk_net::{NetParams, SoftwareOverhead};
use tmk_sim::{Cycle, Op};
use tmk_trace::{Category, Sink};

use crate::fabric::{self, Completion, Fabric, NodeMachine};
use crate::hw::{Acquire, Barrier, Lock};
use crate::run::{AccessData, Machine};
use crate::RunReport;

/// Parameters of the hybrid machine.
#[derive(Debug, Clone)]
pub struct HsParams {
    /// Processor clock in Hz.
    pub clock_hz: u64,
    /// Number of multiprocessor nodes.
    pub nodes: usize,
    /// Processors per node.
    pub per_node: usize,
    /// Per-processor cache geometry.
    pub cache: CacheParams,
    /// Intra-node bus timing.
    pub bus: BusParams,
    /// Inter-node network.
    pub net: NetParams,
    /// Communication software costs.
    pub so: SoftwareOverhead,
    /// Cycles for a lock acquire or hand-off that stays within the node.
    pub lock_local_cost: Cycle,
    /// Cycles per local barrier-counter update.
    pub barrier_local_cost: Cycle,
    /// DSM page size in bytes.
    pub page_size: usize,
}

impl HsParams {
    /// The simulation study's HS design: 100 MHz processors, eight per
    /// node, 64 KB/64 B caches on an uncontended split-transaction bus,
    /// 155 Mbit/s ATM between nodes, baseline software overheads.
    pub fn hs_sim(nodes: usize, per_node: usize) -> Self {
        HsParams {
            clock_hz: 100_000_000,
            nodes,
            per_node,
            cache: CacheParams::new(64 << 10, 64),
            bus: BusParams::hs_node(),
            net: NetParams::atm_100mhz(),
            so: SoftwareOverhead::sim_baseline(),
            lock_local_cost: 30,
            barrier_local_cost: 30,
            page_size: 4096,
        }
    }

    /// Total processors.
    pub fn procs(&self) -> usize {
        self.nodes * self.per_node
    }
}

/// Shared machine state: the inter-node fabric (one DSM instance per
/// node), each node's snooping bus, and each node's hardware lock and
/// barrier per id, over its own processors.
pub struct HsMachine {
    pub(crate) fabric: Fabric,
    buses: Vec<SnoopBus>,
    pub(crate) params: HsParams,
    /// Per (node, lock id): the node-level lock. Its holder holds the
    /// application lock, or is the one processor bringing the DSM token
    /// to the node; co-resident requesters queue behind it.
    locks: HashMap<(NodeId, usize), Lock>,
    /// Per (node, barrier id): the node's arrivals at this episode.
    barriers: HashMap<(NodeId, usize), Barrier>,
    /// The latest cycle a barrier departure landed on a node other than
    /// the arriving one, in the cascade being settled: every waiter leaves
    /// when the last node's departure lands.
    barrier_landed: Option<Cycle>,
}

impl HsMachine {
    /// Builds the machine with a `segment_bytes` shared segment. The
    /// hybrid runs LRC between nodes.
    ///
    /// # Panics
    ///
    /// Panics if `tuning.protocol` is [`DsmProtocol::Ivy`]: no HS run
    /// simulates IVY, so none may be keyed and recorded as one.
    pub fn new(params: HsParams, segment_bytes: usize, tuning: &crate::DsmTuning) -> Self {
        assert!(
            tuning.protocol == DsmProtocol::Lrc,
            "HS runs only LRC between nodes; {:?} is not available on HS",
            tuning.protocol
        );
        HsMachine {
            fabric: Fabric::new(
                params.nodes,
                params.net,
                params.so,
                params.page_size,
                DsmProtocol::Lrc,
                segment_bytes,
                tuning,
            ),
            buses: (0..params.nodes)
                .map(|_| SnoopBus::new(params.per_node, params.cache, params.bus))
                .collect(),
            locks: HashMap::new(),
            barriers: HashMap::new(),
            barrier_landed: None,
            params,
        }
    }

    fn node_of(&self, proc: usize) -> NodeId {
        proc / self.params.per_node
    }
}

impl NodeMachine for HsMachine {
    fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn per_node(&self) -> usize {
        self.params.per_node
    }

    fn charge(&mut self, proc: usize, addr: usize, len: usize, write: bool, now: Cycle) -> Cycle {
        let per_node = self.params.per_node;
        self.buses[proc / per_node].charge_range(proc % per_node, addr, len, write, now)
    }

    /// Purges the page from every cache of `node`: the paper assumes
    /// intra-node cache/TLB coherence handles fresh DSM data — we model it
    /// as invalidations, whose re-fill cost shows up as later misses.
    fn purge_page(&mut self, node: NodeId, page: usize) {
        let ps = self.fabric.page_size;
        for line in self.params.cache.lines_of(page * ps, ps) {
            self.buses[node].purge_line(line);
        }
    }

    /// Processors here block only in `lock` and `barrier`. A lock granted
    /// to `node` wakes the holder of its node-level lock, the processor
    /// that asked for the token; a barrier departure is noted, and the
    /// arriving processor wakes every waiter once the cascade is settled.
    fn completed_elsewhere(op: &mut Op<'_, Self>, node: NodeId, action: Action, at: Cycle) {
        let m = op.machine();
        match action {
            Action::LockGranted(lock) => {
                if let Some(p) = m.locks.get(&(node, lock)).and_then(Lock::holder) {
                    op.wake_at(p, at);
                }
            }
            Action::BarrierDone(_) => m.barrier_landed = m.barrier_landed.max(Some(at)),
            Action::PageReady(_) => {}
        }
    }
}

/// Inside a node, processors synchronize the way a bus machine's do, on
/// the node's [`Lock`] and [`Barrier`]; the node calls the fabric only to
/// bring a lock's token here, to release it when no co-resident waiter is
/// left, and to arrive at a barrier once every processor of the node has.
/// A trace sink shows DSM protocol actions on node tracks, inter-node
/// transfers on link tracks, and each node's snooping bus on its own bus
/// track.
impl Machine for HsMachine {
    fn access(op: &mut Op<'_, Self>, addr: usize, data: &mut AccessData<'_>) -> bool {
        fabric::access(op, addr, data)
    }

    fn lock(op: &mut Op<'_, Self>, lock: usize) -> bool {
        let (me, now) = (op.id(), op.now());
        let m = op.machine();
        let nd = m.node_of(me);
        match m.locks.entry((nd, lock)).or_default().acquire(me) {
            // A co-resident release, or the token this processor asked for.
            Acquire::Handed => true,
            // The token is at (or already headed to) our node: wait for a
            // local hand-off, no messages.
            Acquire::Queued => {
                op.block_on(format!("lock {lock} grant"));
                false
            }
            // No processor of ours holds it: bring the token here.
            Acquire::Took => match fabric::acquire(op, nd, lock, now) {
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
            },
        }
    }

    fn unlock(op: &mut Op<'_, Self>, lock: usize) {
        let (me, now) = (op.id(), op.now());
        let m = op.machine();
        let nd = m.node_of(me);
        let c = m.params.lock_local_cost;
        let next = m
            .locks
            .get_mut(&(nd, lock))
            .expect("unlock of unknown lock");
        // Prefer passing to a co-resident waiter: no messages (the paper's
        // "if the token already resides at the node, no messages are
        // required"). Otherwise release at the DSM level; a queued remote
        // node gets the token, and the holder there the lock.
        match next.release() {
            Some(p) => op.wake_at(p, now + c),
            None => fabric::release(op, nd, lock, now + 2),
        }
        op.advance_as(Category::SyncIdle, 2);
    }

    fn barrier(op: &mut Op<'_, Self>, barrier: usize) {
        let (me, now) = (op.id(), op.now());
        let m = op.machine();
        let (nd, nodes, local_cost) = (m.node_of(me), m.params.nodes, m.params.barrier_local_cost);
        let b = m.barriers.entry((nd, barrier)).or_default();
        let node_full = b.arrive(me, m.params.per_node);
        m.fabric.barrier_epoch(me, now, barrier);
        op.advance_as(Category::SyncIdle, local_cost);
        if !node_full {
            op.block_on(format!("barrier {barrier} release"));
            return;
        }
        // Last processor on the node: node-level DSM arrival.
        let done = fabric::arrive(op, nd, barrier, now + local_cost);
        // The departure reaches every node within this cascade; all
        // waiters leave together, when the last node's release lands.
        let mine = match done {
            Completion::At(at) => Some(at),
            _ => None,
        };
        let all_done = mine.max(op.machine().barrier_landed.take());
        if done != Completion::Local && all_done.is_none() {
            op.block_on(format!("barrier {barrier} release"));
            return;
        }
        let t_done = all_done.unwrap_or(op.now());
        let m = op.machine();
        let waiters: Vec<usize> = (0..nodes)
            .flat_map(|q| m.barriers.get_mut(&(q, barrier)).map(|b| b.drain(me)))
            .flatten()
            .collect();
        for p in waiters {
            op.wake_at(p, t_done);
        }
    }

    fn mark(&mut self, now: Cycle) {
        self.fabric.mark(now);
    }

    fn set_tracer(&mut self, sink: Sink) {
        for (node, b) in self.buses.iter_mut().enumerate() {
            b.set_tracer(sink.clone(), node as u32);
        }
        self.fabric.set_tracer(sink);
    }

    /// The fabric's half plus this machine's buses.
    fn fill_report(&self, report: &mut RunReport) {
        report.clock_hz = self.params.clock_hz;
        self.fabric.fill_report(report);
        let mut bus = tmk_mem::BusStats::default();
        for b in &self.buses {
            let s = b.stats();
            bus.transactions += s.transactions;
            bus.busy_cycles += s.busy_cycles;
            bus.cache_supplies += s.cache_supplies;
            bus.memory_supplies += s.memory_supplies;
            bus.invalidations += s.invalidations;
            bus.writebacks += s.writebacks;
            bus.data_bytes += s.data_bytes;
        }
        report.bus = Some(bus);
        for s in self.buses.iter().flat_map(|b| b.cache_stats()) {
            report.cache.hits += s.hits;
            report.cache.misses += s.misses;
        }
    }

    fn diagnostics(&self) -> String {
        self.fabric.diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use tmk_parmacs::SystemExt;

    use crate::run::run_body;
    use crate::Platform;

    #[test]
    fn co_resident_waiter_takes_the_lock_before_the_token_leaves() {
        // HS 2x2: p0 holds lock 0; remote p2 asks for it, then co-resident
        // p1. Each logs its pid under the lock; p0's node serves p1 first.
        let (logs, _) = run_body(&Platform::hs_sim(2, 2), |sys| {
            let me = sys.pid();
            if me != 3 {
                sys.compute([0, 5_000, 1_000][me]);
                sys.lock(0);
                let n: u64 = sys.read(0);
                sys.write(8 + 8 * n as usize, me as u64);
                sys.write(0, n + 1);
                if me == 0 {
                    sys.compute(100_000);
                }
                sys.unlock(0);
            }
            sys.barrier(0);
            let n: u64 = sys.read(0);
            (0..n as usize)
                .map(|i| sys.read::<u64>(8 + 8 * i))
                .collect::<Vec<_>>()
        });
        assert!(logs.iter().all(|log| log == &[0, 1, 2]), "{logs:?}");
    }
}
