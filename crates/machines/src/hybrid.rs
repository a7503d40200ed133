//! The hardware–software (HS) machine: bus-based multiprocessor nodes
//! connected by a general-purpose network, with TreadMarks providing
//! shared memory *between* nodes and bus snooping *within* them.
//!
//! Per the paper: all processors within a node are treated as one by the
//! DSM system — faults to the same page merge, modifications by co-resident
//! processors coalesce into a single diff, barriers use a local counter with
//! one arrival message per node, and a lock needs no messages when its
//! token already resides at the node.

use std::collections::{HashMap, HashSet, VecDeque};

use tmk_core::{Action, DsmProtocol, NodeId};
use tmk_mem::{BusParams, CacheParams, SnoopBus};
use tmk_net::{NetParams, SoftwareOverhead};
use tmk_parmacs::{InitWriter, System};
use tmk_sim::{Ctx, Cycle, Op};
use tmk_trace::{Category, Event, EventKind, Sink, Track};

use crate::fabric::{access, settle, AccessData, Fabric, NodeMachine};

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
/// node), each node's snooping bus, and the node-local lock and barrier
/// tables that let co-resident processors act as one.
pub struct HsMachine {
    pub(crate) fabric: Fabric,
    buses: Vec<SnoopBus>,
    pub(crate) params: HsParams,
    /// Application-level lock state: which processor holds each lock, and
    /// the co-resident processors queued behind it.
    lock_holder: HashMap<usize, usize>,
    lock_local_q: HashMap<usize, VecDeque<usize>>,
    /// `(lock, node)` pairs with an outstanding node-level (DSM) acquire:
    /// a second co-resident requester must queue locally, not re-acquire.
    /// Several nodes can chase the same token concurrently.
    lock_dsm_pending: HashSet<(usize, NodeId)>,
    /// Per-barrier, per-node arrival counts and blocked processors.
    barrier_count: HashMap<usize, Vec<usize>>,
    barrier_waiters: HashMap<usize, Vec<usize>>,
}

impl HsMachine {
    /// Builds the machine with a `segment_bytes` shared segment. The
    /// hybrid always runs LRC between nodes (`tuning.protocol` is ignored).
    pub fn new(params: HsParams, segment_bytes: usize, tuning: &crate::DsmTuning) -> Self {
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
                .map(|node| {
                    let mut bus = SnoopBus::new(params.per_node, params.cache, params.bus);
                    // The fault plan's drop rate doubles as the per-node
                    // flaky-bus strike rate (a struck transaction retries:
                    // masked, slower, never a changed result). Each node's
                    // bus draws from its own seed stream.
                    if let Some(plan) = &tuning.faults {
                        if plan.drop > 0.0 {
                            bus.set_faults(tmk_mem::FabricFaults::new(
                                plan.seed ^ node as u64,
                                plan.drop,
                            ));
                        }
                    }
                    bus
                })
                .collect(),
            lock_holder: HashMap::new(),
            lock_local_q: HashMap::new(),
            lock_dsm_pending: HashSet::new(),
            barrier_count: HashMap::new(),
            barrier_waiters: HashMap::new(),
            params,
        }
    }

    /// Attaches a trace sink: DSM protocol actions appear on node tracks,
    /// inter-node transfers on link tracks, and each node's snooping bus on
    /// its own bus track. Tracing never alters timing.
    pub fn set_tracer(&mut self, sink: Sink) {
        for (node, b) in self.buses.iter_mut().enumerate() {
            b.set_tracer(sink.clone(), node as u32);
        }
        self.fabric.set_tracer(sink);
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

    /// Nothing to wake: processors here block only in `lock` and `barrier`,
    /// and are woken through the node-local tables by the `unlock` or
    /// `barrier` cascade that carries their grant.
    fn completed_elsewhere(_: &mut Op<'_, Self>, _: NodeId, _: Cycle) {}
}

impl InitWriter for HsMachine {
    fn write_init(&mut self, addr: usize, bytes: &[u8]) {
        self.fabric.nodes[0].master_write(addr, bytes);
    }
}

/// Per-processor [`System`] handle for the hybrid machine.
pub struct HsSys<'a, 'e> {
    ctx: &'a Ctx<'e, HsMachine>,
}

impl<'a, 'e> HsSys<'a, 'e> {
    /// Wraps an engine context.
    pub fn new(ctx: &'a Ctx<'e, HsMachine>) -> Self {
        HsSys { ctx }
    }

    /// Wakes every processor of `node` blocked on `barrier`, at time `t`.
    fn wake_barrier_waiters(
        &self,
        op: &mut Op<'_, HsMachine>,
        barrier: usize,
        node: NodeId,
        t: Cycle,
        skip: usize,
    ) {
        let procs: Vec<usize> = {
            let m = op.machine();
            let per_node = m.params.per_node;
            let waiters = m.barrier_waiters.entry(barrier).or_default();
            let (here, rest): (Vec<usize>, Vec<usize>) = waiters
                .drain(..)
                .partition(|&p| p / per_node == node && p != skip);
            *waiters = rest;
            // Reset the node's local counter for the next episode.
            if let Some(counts) = m.barrier_count.get_mut(&barrier) {
                counts[node] = 0;
            }
            here
        };
        for p in procs {
            op.wake_at(p, t);
        }
    }
}

impl System for HsSys<'_, '_> {
    fn nprocs(&self) -> usize {
        self.ctx.nprocs()
    }

    fn pid(&self) -> usize {
        self.ctx.id()
    }

    fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        access(self.ctx, addr, buf.len(), false, AccessData::Read(buf));
    }

    fn write_bytes(&self, addr: usize, data: &[u8]) {
        access(self.ctx, addr, data.len(), true, AccessData::Write(data));
    }

    fn lock(&self, lock: usize) {
        let me = self.ctx.id();
        loop {
            let got = self.ctx.sync(|op| {
                let now = op.now();
                let nd = op.machine().node_of(me);
                let per_node = op.machine().params.per_node;
                // Handed to us directly (local pass or remote grant)?
                if op.machine().lock_holder.get(&lock) == Some(&me) {
                    return true;
                }
                let pending_here =
                    op.machine().lock_dsm_pending.contains(&(lock, nd));
                let held_by = op.machine().lock_holder.get(&lock).copied();
                let holder_here =
                    held_by.is_some_and(|p| op.machine().node_of(p) == nd);
                match held_by {
                    _ if pending_here || holder_here => {
                        // The token is at (or already headed to) our node:
                        // wait for a local hand-off, no messages.
                        op.machine()
                            .lock_local_q
                            .entry(lock)
                            .or_default()
                            .push_back(me);
                        op.block_on(format!("lock {lock} grant"));
                        false
                    }
                    _ => {
                        // No processor holds it: bring the token here.
                        let start = op.machine().fabric.nodes[nd].acquire(lock);
                        match start {
                            tmk_core::StartAcquire::Granted => {
                                let c = op.machine().params.lock_local_cost;
                                op.machine().lock_holder.insert(lock, me);
                                op.advance_as(Category::Protocol, c);
                                true
                            }
                            tmk_core::StartAcquire::Wait(sends) => {
                                let routed = op.machine().fabric.route_timed(nd, now, sends);
                                let done =
                                    settle(op, nd, per_node, routed, now, Category::SyncIdle);
                                let granted = done
                                    .iter()
                                    .any(|(_, a, _)| *a == Action::LockGranted(lock));
                                if granted {
                                    op.machine().lock_holder.insert(lock, me);
                                    true
                                } else {
                                    op.machine().lock_dsm_pending.insert((lock, nd));
                                    op.machine()
                                        .lock_local_q
                                        .entry(lock)
                                        .or_default()
                                        .push_back(me);
                                    op.block_on(format!("lock {lock} grant"));
                                    false
                                }
                            }
                        }
                    }
                }
            });
            if got {
                return;
            }
        }
    }

    fn unlock(&self, lock: usize) {
        let me = self.ctx.id();
        self.ctx.sync(|op| {
            let now = op.now();
            let nd = op.machine().node_of(me);
            let per_node = op.machine().params.per_node;
            op.machine().lock_holder.remove(&lock);

            // Prefer passing to a co-resident waiter: no messages (the
            // paper's "if the token already resides at the node, no
            // messages are required").
            let local_next = {
                let m = op.machine();
                let q = m.lock_local_q.entry(lock).or_default();
                let pos = q.iter().position(|&p| p / per_node == nd);
                pos.map(|i| q.remove(i).expect("position exists"))
            };
            if let Some(p) = local_next {
                let c = op.machine().params.lock_local_cost;
                op.machine().lock_holder.insert(lock, p);
                op.advance_as(Category::SyncIdle, 2);
                op.wake_at(p, now + c);
                return;
            }

            // Otherwise release at the DSM level; a queued remote node gets
            // the token, and one of its waiters the lock.
            let sends = op.machine().fabric.nodes[nd].release(lock);
            let routed = op.machine().fabric.route_timed(nd, now + 2, sends);
            let done = settle(op, nd, per_node, routed, now + 2, Category::Network);
            for (granted_node, action, t) in done {
                if let Action::LockGranted(l) = action {
                    debug_assert_eq!(l, lock);
                    // The grant landed on `granted_node`; find a waiter there.
                    let next = {
                        let m = op.machine();
                        let q = m.lock_local_q.entry(lock).or_default();
                        let pos = q.iter().position(|&p| p / per_node == granted_node);
                        pos.map(|i| q.remove(i).expect("position exists"))
                    };
                    op.machine().lock_dsm_pending.remove(&(lock, granted_node));
                    if let Some(p) = next {
                        op.machine().lock_holder.insert(lock, p);
                        op.wake_at(p, t);
                    }
                }
            }
            op.advance_as(Category::SyncIdle, 2);
        });
    }

    fn barrier(&self, barrier: usize) {
        let me = self.ctx.id();
        self.ctx.sync(|op| {
            let now = op.now();
            let (nd, per_node, nodes, local_cost) = {
                let m = op.machine();
                (
                    m.node_of(me),
                    m.params.per_node,
                    m.params.nodes,
                    m.params.barrier_local_cost,
                )
            };
            let node_full = {
                let m = op.machine();
                let counts = m
                    .barrier_count
                    .entry(barrier)
                    .or_insert_with(|| vec![0; nodes]);
                counts[nd] += 1;
                counts[nd] == per_node
            };
            op.machine().fabric.sink.emit(Event {
                track: Track::Cpu(me as u32),
                at: now,
                dur: 0,
                kind: EventKind::BarrierEpoch {
                    barrier: barrier as u64,
                },
            });
            op.advance_as(Category::SyncIdle, local_cost);
            if !node_full {
                op.machine()
                    .barrier_waiters
                    .entry(barrier)
                    .or_default()
                    .push(me);
                op.block_on(format!("barrier {barrier} release"));
                return;
            }
            // Last processor on the node: node-level DSM arrival.
            let t = now + local_cost;
            let (ready, sends) = {
                let m = op.machine();
                let before = *m.fabric.nodes[nd].stats();
                let start = m.fabric.nodes[nd].barrier_arrive(barrier);
                let after = *m.fabric.nodes[nd].stats();
                // Diff/GC service is charged via settle's initiator time;
                // trace the collection for visibility.
                let retired = after.gc_intervals_retired - before.gc_intervals_retired;
                if retired > 0 {
                    m.fabric.sink.emit(Event {
                        track: Track::Node(nd as u32),
                        at: t,
                        dur: 0,
                        kind: EventKind::GcRetire {
                            intervals: retired,
                            bytes: after.gc_diff_bytes_retired
                                - before.gc_diff_bytes_retired,
                        },
                    });
                }
                (start.ready, start.sends)
            };
            let m = op.machine();
            let mut routed = m.fabric.route_timed(nd, t, sends);
            if ready {
                // The manager was the last arriver: it departed inside
                // `barrier_arrive`, so the checkpoint cut is taken here.
                m.fabric.take_checkpoint(nd, t, &mut routed.charges);
            }
            let done = settle(op, nd, per_node, routed, t, Category::SyncIdle);
            // The departure reaches every node within this cascade; all
            // waiters leave together, when the last node's release lands.
            let all_done = done
                .iter()
                .filter(|(_, a, _)| *a == Action::BarrierDone(barrier))
                .map(|&(.., at)| at)
                .max();
            if ready || all_done.is_some() {
                let t_done = all_done.unwrap_or(op.now());
                for q in 0..nodes {
                    self.wake_barrier_waiters(op, barrier, q, t_done, me);
                }
            } else {
                op.machine()
                    .barrier_waiters
                    .entry(barrier)
                    .or_default()
                    .push(me);
                op.block_on(format!("barrier {barrier} release"));
            }
        });
    }

    fn compute(&self, cycles: Cycle) {
        self.ctx.advance(cycles);
    }

    fn mark(&self) {
        self.ctx.sync(|op| {
            let now = op.now();
            op.machine().fabric.mark(now);
        });
    }
}

impl HsMachine {
    /// Finishing report: the fabric's half plus this machine's buses.
    pub(crate) fn fill_report(&self, report: &mut crate::RunReport) {
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
            bus.retries += s.retries;
        }
        report.bus = Some(bus);
        for c in self.buses.iter().flat_map(|b| b.caches()) {
            report.cache.hits += c.stats().hits;
            report.cache.misses += c.stats().misses;
        }
    }
}
