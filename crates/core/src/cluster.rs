//! A synchronous, single-threaded cluster: the one synchronous driver of
//! either protocol. Tests, correctness oracles and the per-layer probes run
//! on it; with its fault stage armed it is the clockless, lossy harness the
//! protocol properties use.

use std::collections::VecDeque;

use crate::node::NodeCheckpoint;
use crate::runtime_faults::{roll_fate, ChannelFaults, LinkFate};
use crate::{
    Action, BarrierId, Config, DsmProtocol, Envelope, LockId, MsgClass, NodeId, NodeStats,
    ProtoNode, RecoveryStats, Reliability, RetransmitPolicy, SharedAddr, StartAcquire, Timeout,
};

/// Aggregate message/byte counters, split the way the paper's Figures 12–13
/// split them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Access-miss messages (page/diff requests and replies).
    pub miss_msgs: u64,
    /// Lock messages.
    pub lock_msgs: u64,
    /// Barrier messages.
    pub barrier_msgs: u64,
    /// Eager-release update messages.
    pub update_msgs: u64,
    /// Bytes of application data moved for misses.
    pub miss_bytes: u64,
    /// Bytes of consistency metadata (vector times, write notices).
    pub consistency_bytes: u64,
    /// Bytes of message headers.
    pub header_bytes: u64,
    /// Raw message count taken at [`record`](Traffic::record) time — the
    /// accounting cross-check: the per-class counters must sum to this.
    pub msgs_recorded: u64,
    /// Raw byte count taken at record time — the per-kind byte counters
    /// must sum to this.
    pub bytes_recorded: u64,
}

impl Traffic {
    /// Records one transmitted envelope.
    pub fn record(&mut self, env: &Envelope, header_bytes: usize) {
        match env.msg.class() {
            MsgClass::Miss => self.miss_msgs += 1,
            MsgClass::SyncLock => self.lock_msgs += 1,
            MsgClass::SyncBarrier => self.barrier_msgs += 1,
            MsgClass::Update => self.update_msgs += 1,
        }
        let body = env.msg.body_bytes();
        self.miss_bytes += body.miss as u64;
        self.consistency_bytes += body.consistency as u64;
        self.header_bytes += header_bytes as u64;
        self.msgs_recorded += 1;
        self.bytes_recorded += (body.miss + body.consistency + header_bytes) as u64;
    }

    /// Verifies the per-class split reconciles exactly with the raw counts
    /// taken at record time; every platform's run checks this before
    /// reporting.
    pub fn check(&self) -> Result<(), String> {
        if self.total_msgs() != self.msgs_recorded {
            return Err(format!(
                "message accounting drift: per-class sum {} != {} recorded",
                self.total_msgs(),
                self.msgs_recorded
            ));
        }
        if self.total_bytes() != self.bytes_recorded {
            return Err(format!(
                "byte accounting drift: per-kind sum {} != {} recorded",
                self.total_bytes(),
                self.bytes_recorded
            ));
        }
        Ok(())
    }

    /// All messages.
    pub fn total_msgs(&self) -> u64 {
        self.miss_msgs + self.lock_msgs + self.barrier_msgs + self.update_msgs
    }

    /// Synchronization messages (locks + barriers), the paper's "sync" bar.
    pub fn sync_msgs(&self) -> u64 {
        self.lock_msgs + self.barrier_msgs
    }

    /// All payload and header bytes.
    pub fn total_bytes(&self) -> u64 {
        self.miss_bytes + self.consistency_bytes + self.header_bytes
    }

    /// Element-wise sum.
    pub fn merge(&mut self, o: &Traffic) {
        self.miss_msgs += o.miss_msgs;
        self.lock_msgs += o.lock_msgs;
        self.barrier_msgs += o.barrier_msgs;
        self.update_msgs += o.update_msgs;
        self.miss_bytes += o.miss_bytes;
        self.consistency_bytes += o.consistency_bytes;
        self.header_bytes += o.header_bytes;
        self.msgs_recorded += o.msgs_recorded;
        self.bytes_recorded += o.bytes_recorded;
    }
}

/// A whole DSM cluster driven synchronously from one thread, running either
/// protocol ([`Cluster::with_protocol`]).
///
/// Every operation routes all induced protocol messages to quiescence before
/// returning, so data-plane calls ([`read`](Self::read),
/// [`write`](Self::write)) always complete. Lock contention is surfaced via
/// [`try_lock`](Self::try_lock) (the grant is routed to the waiter
/// automatically when the holder releases); barriers complete when the last
/// participant calls [`arrive`](Self::arrive).
#[derive(Debug)]
pub struct Cluster {
    cfg: Config,
    nodes: Vec<ProtoNode>,
    traffic: Traffic,
    /// The optional fault stage of [`route`](Self::route): link faults
    /// drawn from the plan, repaired by the reliability layer.
    faults: Option<(ChannelFaults, Reliability)>,
    /// Last barrier-consistent checkpoint, one snapshot per node.
    ckpt: Option<Vec<NodeCheckpoint>>,
}

impl Cluster {
    /// Builds a fault-free TreadMarks (LRC) cluster from a configuration.
    pub fn new(cfg: Config) -> Cluster {
        Cluster::with_protocol(cfg, DsmProtocol::Lrc)
    }

    /// Builds a fault-free cluster running `protocol`.
    pub fn with_protocol(cfg: Config, protocol: DsmProtocol) -> Cluster {
        Cluster {
            nodes: (0..cfg.nodes)
                .map(|i| ProtoNode::new(protocol, i, cfg.clone()))
                .collect(),
            traffic: Traffic::default(),
            faults: None,
            ckpt: None,
            cfg,
        }
    }

    /// Arms [`route`](Self::route)'s fault stage: each cross-node copy's
    /// fate is drawn from `plan`'s drop / duplicate / delay rates as a pure
    /// function of the packet's identity, and a [`Reliability`] layer under
    /// the default [`RetransmitPolicy`] repairs the losses. A delayed copy
    /// goes behind everything queued; once the queue drains, every armed
    /// timer expires (after every in-queue delivery, as in the timed router,
    /// but without a clock), so of the policy only `max_retries` matters.
    ///
    /// # Panics
    ///
    /// Panics if `plan` schedules crashes, which a cascade has no point for.
    pub fn with_faults(mut self, plan: &ChannelFaults) -> Cluster {
        assert!(plan.crashes.is_empty(), "link faults only, no crashes");
        self.faults = Some((plan.clone(), Reliability::new(RetransmitPolicy::default())));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &ProtoNode {
        &self.nodes[id]
    }

    /// Message traffic so far: every copy a sender put on the wire,
    /// retransmissions included.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Sum of all nodes' protocol statistics.
    pub fn stats(&self) -> NodeStats {
        let mut s = NodeStats::default();
        for n in &self.nodes {
            s.merge(n.stats());
        }
        s
    }

    /// Pre-parallel initialization write by the master (node 0).
    pub fn master_write(&mut self, addr: SharedAddr, bytes: &[u8]) {
        self.nodes[0].master_write(addr, bytes);
    }

    /// Routes envelopes until quiescence, returning completed actions as
    /// `(node, action)` pairs in delivery order. Without a fault stage
    /// every envelope is delivered once, first in first out.
    ///
    /// # Panics
    ///
    /// Panics if the fault stage's reliability layer gives a packet up.
    pub fn route(&mut self, mut sends: Vec<Envelope>) -> Vec<(NodeId, Action)> {
        // Each queued copy carries, under a fault stage, its packet id and
        // transmission attempt (0 = the original send), and whether its fate
        // is already drawn: the late half of a duplicate, a delayed copy.
        let mut queue = VecDeque::new();
        let mut done = Vec::new();
        loop {
            for env in sends.drain(..) {
                let wire = env.from != env.to;
                if wire {
                    self.traffic.record(&env, self.cfg.header_bytes);
                }
                let tracked = match &mut self.faults {
                    Some((_, rel)) if wire => Some((rel.send(&env, 0, 0).0, 0)),
                    _ => None,
                };
                queue.push_back((env, tracked, false));
            }
            let Some((env, tracked, rolled)) = queue.pop_front() else {
                // Drained: every retransmit timer still armed expires.
                let Some((_, rel)) = &mut self.faults else {
                    break;
                };
                let lost = rel.overdue(u64::MAX);
                if lost.is_empty() {
                    break;
                }
                for pid in lost {
                    let (env, attempt) = match rel.timeout(pid, 0) {
                        Timeout::Resend { env, attempt, .. } => (env, attempt),
                        Timeout::Exhausted { attempt, .. } => {
                            panic!("reliability gave up on {pid:?} at retransmission {attempt}")
                        }
                        Timeout::Stale => unreachable!("overdue packets are in flight"),
                    };
                    self.traffic.record(&env, self.cfg.header_bytes);
                    queue.push_back((env, Some((pid, attempt)), false));
                }
                continue;
            };
            if let (Some((plan, rel)), Some((pid, attempt))) = (&mut self.faults, tracked) {
                if !rolled {
                    match roll_fate(plan, pid, attempt) {
                        // The flight stays armed in the layer.
                        LinkFate::Drop => continue,
                        LinkFate::Duplicate => queue.push_back((env.clone(), tracked, true)),
                        LinkFate::Delay => {
                            queue.push_back((env, tracked, true));
                            continue;
                        }
                        LinkFate::Deliver => {}
                    }
                }
                // Delivery is the ack; a duplicate stops here.
                if !rel.delivered(pid, 0) {
                    continue;
                }
            }
            let to = env.to;
            let handled = self.nodes[to].handle(env);
            sends = handled.sends;
            done.extend(handled.actions.into_iter().map(|a| (to, a)));
        }
        done
    }

    /// Validates every page `len` bytes at `addr` touch, taking faults as
    /// needed, then reads into `buf`.
    pub fn read(&mut self, node: NodeId, addr: SharedAddr, buf: &mut [u8]) {
        self.validate(node, addr, buf.len(), false);
        self.nodes[node].read_into(addr, buf);
    }

    /// Validates + twins the pages `bytes` touch, then writes.
    pub fn write(&mut self, node: NodeId, addr: SharedAddr, bytes: &[u8]) {
        self.validate(node, addr, bytes.len(), true);
        self.nodes[node].write_from(addr, bytes);
    }

    fn validate(&mut self, node: NodeId, addr: SharedAddr, len: usize, write: bool) {
        for page in self.nodes[node].pages_in(addr, len) {
            let ok = if write {
                self.nodes[node].page_writable(page)
            } else {
                self.nodes[node].page_valid(page)
            };
            if ok {
                continue;
            }
            let start = self.nodes[node].fault(page, write);
            let ready = start.ready;
            let done = self.route(start.sends);
            assert!(
                ready || done.contains(&(node, Action::PageReady(page))),
                "fault on page {page} did not complete synchronously"
            );
        }
    }

    /// Acquires `lock` on `node` if it is free (or locally cached), else
    /// enqueues and returns `false`; the node will hold the lock as soon as
    /// the current holder releases.
    pub fn try_lock(&mut self, node: NodeId, lock: LockId) -> bool {
        match self.nodes[node].acquire(lock) {
            StartAcquire::Granted => true,
            StartAcquire::Wait(sends) => {
                let done = self.route(sends);
                done.contains(&(node, Action::LockGranted(lock)))
            }
        }
    }

    /// Acquires `lock` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if the lock is held by another node (the synchronous cluster
    /// cannot suspend the caller; use [`try_lock`](Self::try_lock) for
    /// contention scenarios).
    pub fn lock(&mut self, node: NodeId, lock: LockId) {
        assert!(
            self.try_lock(node, lock),
            "lock {lock} is held; synchronous Cluster::lock would block"
        );
    }

    /// Releases `lock` on `node`, routing any onward grant (which may
    /// complete another node's queued [`try_lock`](Self::try_lock)).
    pub fn unlock(&mut self, node: NodeId, lock: LockId) {
        let sends = self.nodes[node].release(lock);
        self.route(sends);
    }

    /// Arrives at `barrier` on `node`; returns `true` when this arrival
    /// completed the barrier for everyone.
    pub fn arrive(&mut self, node: NodeId, barrier: BarrierId) -> bool {
        !self.arrive_completing(node, barrier).is_empty()
    }

    /// [`arrive`](Self::arrive), returning the nodes this arrival completed
    /// the barrier on, in delivery order: empty unless it was the last.
    pub(crate) fn arrive_completing(&mut self, node: NodeId, barrier: BarrierId) -> Vec<NodeId> {
        let start = self.nodes[node].barrier_arrive(barrier);
        let done = self.route(start.sends);
        let departed = done
            .into_iter()
            .filter_map(|(q, a)| (a == Action::BarrierDone(barrier)).then_some(q));
        let at_once = start.ready.then_some(node);
        at_once.into_iter().chain(departed).collect()
    }

    /// Runs a full barrier episode by arriving on every node in id order.
    pub fn barrier(&mut self, barrier: BarrierId) {
        let n = self.cfg.nodes;
        let mut completed = false;
        for node in 0..n {
            completed |= self.arrive(node, barrier);
        }
        assert!(completed, "barrier {barrier} did not complete");
    }

    // ------------------------------------------------------------------
    // Crash recovery: barrier-consistent checkpoint / rollback (LRC only)
    // ------------------------------------------------------------------

    /// Snapshots every node's DSM state. Call right after a completed
    /// barrier: the barrier's departure vector time is a consistent global
    /// cut (the same state barrier-time GC keys off), so the set of
    /// per-node snapshots is a recoverable cluster state.
    ///
    /// # Panics
    ///
    /// Panics on an IVY cluster ([`ProtoNode::lrc`]): an IVY node has no
    /// snapshot (the timed fabric's IVY recovery is a charge model, not a
    /// rollback).
    pub fn checkpoint(&mut self) {
        self.ckpt = Some(self.nodes.iter().map(|n| n.lrc().checkpoint()).collect());
    }

    /// Recovers from the loss of `crashed`: rolls *every* node back to the
    /// last checkpoint epoch and re-mints the lock tokens whose pre-crash
    /// position was forgotten by the rollback (they re-bootstrap at their
    /// managers, reconstructed from survivor metadata exactly like cluster
    /// start-up). The caller then replays the application forward from the
    /// checkpoint; replay from the consistent cut is deterministic, so the
    /// final memory state is byte-identical to a crash-free run.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint was taken — an unrecoverable crash, and
    /// always the case on an IVY cluster (see [`checkpoint`](Self::checkpoint)).
    pub fn crash_recover(&mut self, crashed: NodeId) -> RecoveryStats {
        let ckpt = self.ckpt.as_ref().unwrap_or_else(|| {
            panic!("node {crashed} crashed with no checkpoint armed, so it is unrecoverable")
        });
        let tokens_regenerated = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| node.forgotten_tokens(id == crashed))
            .sum();
        let pages_refetched = ckpt[crashed].pages_resident();
        for (node, ck) in self.nodes.iter_mut().zip(ckpt.iter()) {
            if let ProtoNode::Lrc(node) = node {
                node.restore(ck);
            }
        }
        RecoveryStats {
            rollbacks: 1,
            tokens_regenerated,
            pages_refetched,
            ..RecoveryStats::default()
        }
    }

    /// Convenience typed accessors for tests and examples.
    pub fn read_u64(&mut self, node: NodeId, addr: SharedAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(node, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, node: NodeId, addr: SharedAddr, v: u64) {
        self.write(node, addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmk_parmacs::Alloc;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(Config::new(n).segment_pages(8).page_size(256))
    }

    /// A fresh layout of `c`'s shared segment.
    fn layout(c: &Cluster) -> Alloc {
        Alloc::new(c.config().segment_bytes())
    }

    #[test]
    fn master_init_visible_everywhere() {
        let mut c = cluster(4);
        let addr = layout(&c).bytes(8, 8);
        c.master_write(addr, &7u64.to_le_bytes());
        for node in 0..4 {
            assert_eq!(c.read_u64(node, addr), 7);
        }
    }

    #[test]
    fn lock_protected_counter_is_coherent() {
        let mut c = cluster(3);
        let addr = layout(&c).bytes(8, 8);
        for round in 0..5 {
            for node in 0..3 {
                c.lock(node, 1);
                let v = c.read_u64(node, addr);
                c.write_u64(node, addr, v + 1);
                c.unlock(node, 1);
                let _ = round;
            }
        }
        c.lock(0, 1);
        assert_eq!(c.read_u64(0, addr), 15);
        c.unlock(0, 1);
    }

    /// However long a page's history, serving its diffs hands out the
    /// cached buffers themselves — exactly the ones the scan from the start
    /// of the history would have picked.
    #[test]
    fn served_diffs_are_the_servers_cached_allocations() {
        use crate::page::linear_diffs_between;
        use crate::Msg;

        let mut c = cluster(2);
        let addr = layout(&c).bytes(8, 8);
        let page = c.config().page_of(addr);
        c.lock(0, 0);
        c.write_u64(0, addr, 1);
        c.unlock(0, 0);
        for handoff in 1..=3000u64 {
            let me = (handoff % 2) as usize;
            c.lock(me, 0);
            if [1, 1500, 3000].contains(&handoff) {
                // Take the fault by hand to see each request and its reply.
                let start = c.nodes[me].fault(page, false);
                assert!(!start.ready);
                let mut served = 0;
                for req in start.sends {
                    let (server, msg) = (req.to, req.msg.clone());
                    let reply = c.nodes[server].handle(req).sends.remove(0);
                    if let (Msg::DiffReq { from, to, .. }, Msg::DiffReply { diffs, .. }) =
                        (msg, &reply.msg)
                    {
                        let cached = c.node(server).lrc().cached_diffs(page);
                        let seqs: Vec<_> = diffs.iter().map(|(iv, _)| iv.seq()).collect();
                        assert_eq!(seqs, linear_diffs_between(cached, from, to));
                        for (iv, d) in diffs {
                            let s = iv.seq();
                            let (_, kept) = cached.iter().find(|(c, _)| *c == s).expect("cached");
                            assert!(d.shares_buffer_with(kept), "diff @{s} was copied");
                        }
                        served += diffs.len();
                    }
                    c.nodes[me].handle(reply);
                }
                assert!(served > 0, "hand-off {handoff} fetched no diff");
            }
            let v = c.read_u64(me, addr);
            c.write_u64(me, addr, v + 1);
            c.unlock(me, 0);
        }
        assert_eq!(c.read_u64(0, addr), 3001);
        let cached =
            c.node(0).lrc().cached_diffs(page).len() + c.node(1).lrc().cached_diffs(page).len();
        assert!(cached >= 3000, "the history must be long: {cached} diffs");
    }

    #[test]
    fn reacquire_by_same_node_is_local() {
        let mut c = cluster(2);
        c.lock(1, 0);
        c.unlock(1, 0);
        let before = c.node(1).stats().local_lock_acquires;
        c.lock(1, 0);
        c.unlock(1, 0);
        assert_eq!(c.node(1).stats().local_lock_acquires, before + 1);
    }

    #[test]
    fn contended_lock_transfers_on_release() {
        let mut c = cluster(2);
        let addr = layout(&c).bytes(8, 8);
        c.lock(0, 0);
        c.write_u64(0, addr, 42);
        assert!(!c.try_lock(1, 0), "lock is held by node 0");
        c.unlock(0, 0); // grant routes to node 1, which now holds the lock
        assert_eq!(c.read_u64(1, addr), 42, "acquire made the write visible");
        c.unlock(1, 0);
    }

    #[test]
    fn barrier_propagates_writes() {
        let mut c = cluster(4);
        let addr = layout(&c).bytes(4 * 8, 8);
        // Each node writes its slot, then a barrier, then everyone reads all.
        for node in 0..4 {
            c.write_u64(node, addr + node * 8, (node as u64 + 1) * 100);
        }
        c.barrier(0);
        for node in 0..4 {
            for slot in 0..4 {
                assert_eq!(c.read_u64(node, addr + slot * 8), (slot as u64 + 1) * 100);
            }
        }
    }

    #[test]
    fn multiple_writers_of_one_page_merge() {
        let mut c = cluster(4);
        // All four slots share a 256-byte page: classic false sharing.
        let addr = layout(&c).bytes(4 * 8, 8);
        assert_eq!(c.node(0).pages_in(addr, 32).len(), 1);
        for node in 0..4 {
            c.write_u64(node, addr + node * 8, node as u64 + 1);
        }
        c.barrier(0);
        for node in 0..4 {
            for slot in 0..4u64 {
                assert_eq!(c.read_u64(node, addr + slot as usize * 8), slot + 1);
            }
        }
    }

    #[test]
    fn unsynchronized_read_may_be_stale_until_acquire() {
        let mut c = cluster(2);
        let addr = layout(&c).bytes(8, 8);
        c.master_write(addr, &1u64.to_le_bytes());
        assert_eq!(c.read_u64(1, addr), 1); // node 1 caches the page
        c.lock(0, 3);
        c.write_u64(0, addr, 2);
        c.unlock(0, 3);
        // LRC: no acquire on node 1, so the stale value is still legal.
        assert_eq!(c.read_u64(1, addr), 1);
        c.lock(1, 3);
        assert_eq!(c.read_u64(1, addr), 2, "acquire brings the new value");
        c.unlock(1, 3);
    }

    #[test]
    fn eager_release_pushes_updates_without_acquire() {
        let cfg = Config::new(2)
            .segment_pages(8)
            .page_size(256)
            .eager_release_lock(3);
        let mut c = Cluster::new(cfg);
        let addr = layout(&c).bytes(8, 8);
        c.master_write(addr, &1u64.to_le_bytes());
        assert_eq!(c.read_u64(1, addr), 1);
        c.lock(0, 3);
        c.write_u64(0, addr, 2);
        c.unlock(0, 3); // broadcast applies the diff at node 1
        assert_eq!(c.read_u64(1, addr), 2, "update arrived without an acquire");
    }

    #[test]
    fn diffs_move_only_changed_words() {
        let mut c = cluster(2);
        let addr = layout(&c).bytes(256, 256); // one whole page
        c.master_write(addr, &[0xAA; 256]);
        assert_eq!(c.read_u64(1, addr), u64::from_le_bytes([0xAA; 8]));
        let full_fetch_bytes = c.traffic().miss_bytes;
        assert!(full_fetch_bytes >= 256, "first fetch moves the whole page");
        // Node 0 changes a single word; node 1 re-validates via a diff.
        c.lock(0, 0);
        c.write(0, addr, &[0x55; 4]);
        c.unlock(0, 0);
        c.lock(1, 0);
        let mut b = [0u8; 4];
        c.read(1, addr, &mut b);
        c.unlock(1, 0);
        assert_eq!(b, [0x55; 4]);
        let diff_bytes = c.traffic().miss_bytes - full_fetch_bytes;
        assert!(
            diff_bytes < 64,
            "revalidation moved {diff_bytes} bytes; expected a tiny diff"
        );
    }

    #[test]
    fn lock_chain_through_three_nodes() {
        let mut c = cluster(3);
        let addr = layout(&c).bytes(8, 8);
        c.lock(1, 5);
        c.write_u64(1, addr, 10);
        assert!(!c.try_lock(2, 5));
        assert!(!c.try_lock(0, 5));
        c.unlock(1, 5); // token flows to node 2, then node 0 on its release
        assert_eq!(c.read_u64(2, addr), 10);
        c.write_u64(2, addr, 20);
        c.unlock(2, 5);
        assert_eq!(c.read_u64(0, addr), 20);
        c.unlock(0, 5);
    }

    #[test]
    fn traffic_accounting_is_nonzero_and_classified() {
        let mut c = cluster(2);
        let addr = layout(&c).bytes(8, 8);
        c.lock(1, 0);
        c.write_u64(1, addr, 3);
        c.unlock(1, 0);
        c.barrier(0);
        assert_eq!(c.read_u64(0, addr), 3);
        let t = c.traffic();
        assert!(t.lock_msgs >= 2, "remote acquire needs request + grant");
        assert!(t.barrier_msgs >= 2, "arrive + depart");
        assert!(t.miss_msgs >= 2, "page request + reply");
        assert!(t.header_bytes > 0);
        assert_eq!(
            t.total_msgs(),
            t.miss_msgs + t.lock_msgs + t.barrier_msgs + t.update_msgs
        );
    }

    #[test]
    fn single_node_cluster_needs_no_messages() {
        let mut c = cluster(1);
        let addr = layout(&c).bytes(8, 8);
        c.lock(0, 0);
        c.write_u64(0, addr, 9);
        c.unlock(0, 0);
        c.barrier(0);
        assert_eq!(c.read_u64(0, addr), 9);
        assert_eq!(c.traffic().total_msgs(), 0);
    }

    /// A lock-and-barrier-heavy section used to exercise replay: returns
    /// the final per-slot memory contents.
    fn run_section(c: &mut Cluster, addr: usize, rounds: u64) -> Vec<u64> {
        for r in 0..rounds {
            for node in 0..c.config().nodes {
                c.lock(node, 2);
                let v = c.read_u64(node, addr);
                c.write_u64(node, addr, v + r + 1);
                c.unlock(node, 2);
            }
            c.barrier(1);
        }
        (0..c.config().nodes).map(|n| c.read_u64(n, addr)).collect()
    }

    #[test]
    fn checkpoint_restore_replays_byte_identically() {
        let mut c = cluster(4);
        let addr = layout(&c).bytes(8, 8);
        c.write_u64(0, addr, 5);
        // Warm every node's copy so the cut snapshots resident pages.
        run_section(&mut c, addr, 1);
        c.barrier(0);
        c.checkpoint();
        let baseline = run_section(&mut c, addr, 3);
        // "Crash" node 2 after the section: roll back and replay.
        let summary = c.crash_recover(2);
        assert!(summary.pages_refetched > 0, "node 2 cached the page");
        let replayed = run_section(&mut c, addr, 3);
        assert_eq!(baseline, replayed, "replay from the cut is deterministic");
    }

    #[test]
    fn migrated_token_is_regenerated_at_the_manager() {
        let mut c = cluster(4);
        let addr = layout(&c).bytes(8, 8);
        c.barrier(0);
        c.checkpoint();
        // Lock 2's manager is node 2; migrate its token to node 3 and leave
        // it there, then crash node 3 (token lost with the node).
        c.lock(3, 2);
        c.write_u64(3, addr, 77);
        c.unlock(3, 2); // token stays cached at node 3
        assert_eq!(c.node(3).forgotten_tokens(false), 1);
        let summary = c.crash_recover(3);
        assert!(
            summary.tokens_regenerated >= 1,
            "token away from its manager must be re-minted: {summary:?}"
        );
        // The regenerated token works: any node can acquire through the
        // manager, and replay reproduces the lost write.
        c.lock(1, 2);
        c.write_u64(1, addr, 77);
        c.unlock(1, 2);
        assert_eq!(c.read_u64(1, addr), 77);
    }

    #[test]
    fn token_at_rest_on_its_manager_is_not_counted_regenerated() {
        let mut c = cluster(2);
        c.barrier(0);
        c.checkpoint();
        // Lock 0's manager is node 0; acquire+release there keeps the token
        // at rest on its manager.
        c.lock(0, 0);
        c.unlock(0, 0);
        let summary = c.crash_recover(1);
        assert_eq!(summary.tokens_regenerated, 0, "{summary:?}");
    }

    #[test]
    fn crashed_manager_token_counts_as_regenerated() {
        let mut c = cluster(2);
        c.barrier(0);
        c.checkpoint();
        c.lock(0, 0); // token at its manager (node 0), but node 0 crashes
        c.unlock(0, 0);
        let summary = c.crash_recover(0);
        assert_eq!(summary.tokens_regenerated, 1, "{summary:?}");
    }

    #[test]
    #[should_panic(expected = "no checkpoint armed")]
    fn recovery_without_checkpoint_is_unrecoverable() {
        let mut c = cluster(2);
        c.barrier(0);
        let _ = c.crash_recover(1);
    }

    #[test]
    #[should_panic(expected = "LRC-only")]
    fn ivy_cluster_has_no_checkpoint() {
        let cfg = Config::new(2).segment_pages(8).page_size(256);
        Cluster::with_protocol(cfg, DsmProtocol::Ivy).checkpoint();
    }

    #[test]
    fn arrive_reports_exactly_the_completing_arrival() {
        for protocol in [DsmProtocol::Lrc, DsmProtocol::Ivy] {
            let cfg = Config::new(3).segment_pages(8).page_size(256);
            let mut c = Cluster::with_protocol(cfg, protocol);
            // Rotate the order so the manager (node 0) arrives first, last,
            // then in the middle. Only the last arrival completes the
            // barrier, and it completes it on every node exactly once.
            for episode in 0..4 {
                let mut done: Vec<Vec<NodeId>> = (0..3)
                    .map(|i| c.arrive_completing((i + episode) % 3, 0))
                    .collect();
                done[2].sort_unstable();
                let want = [vec![], vec![], vec![0, 1, 2]];
                assert_eq!(done, want, "{protocol:?} episode {episode}");
            }
        }
    }

    /// Every cascade's actions, in order.
    type Log = Vec<Vec<(NodeId, Action)>>;

    /// Drives a lock/write/barrier program one protocol step at a time and
    /// returns every cascade's actions, the traffic and every node's final
    /// view of the written slots.
    fn logged_run(mut c: Cluster) -> (Log, Traffic, Vec<u64>) {
        let n = c.config().nodes;
        let addr = layout(&c).bytes(n * 8, 8);
        let page = c.config().page_of(addr);
        let mut log = Vec::new();
        for round in 0..3u64 {
            for node in 0..n {
                if let StartAcquire::Wait(sends) = c.nodes[node].acquire(0) {
                    log.push(c.route(sends));
                }
                if !c.nodes[node].page_writable(page) {
                    let sends = c.nodes[node].fault(page, true).sends;
                    log.push(c.route(sends));
                }
                c.nodes[node].write_from(addr + node * 8, &(round + 1).to_le_bytes());
                let sends = c.nodes[node].release(0);
                log.push(c.route(sends));
            }
            for node in 0..n {
                let sends = c.nodes[node].barrier_arrive(0).sends;
                log.push(c.route(sends));
            }
        }
        let mut image = Vec::new();
        for node in 0..n {
            for q in 0..n {
                image.push(c.read_u64(node, addr + q * 8));
            }
        }
        (log, c.traffic(), image)
    }

    #[test]
    fn a_plan_with_zero_rates_is_inert() {
        for protocol in [DsmProtocol::Lrc, DsmProtocol::Ivy] {
            let cfg = Config::new(3).segment_pages(8).page_size(256);
            let plain = logged_run(Cluster::with_protocol(cfg.clone(), protocol));
            let armed =
                Cluster::with_protocol(cfg, protocol).with_faults(&ChannelFaults::seeded(42));
            assert_eq!(plain, logged_run(armed), "{protocol:?}");
            assert!(plain.0.iter().any(|step| !step.is_empty()));
            assert_eq!(plain.2, vec![3; 9]);
        }
    }

    #[test]
    fn a_lossy_plan_costs_retransmissions_not_results() {
        for protocol in [DsmProtocol::Lrc, DsmProtocol::Ivy] {
            let cfg = Config::new(3).segment_pages(8).page_size(256);
            let plain = logged_run(Cluster::with_protocol(cfg.clone(), protocol));
            let plan = ChannelFaults::seeded(7)
                .drop_rate(0.3)
                .dup_rate(0.1)
                .delay_rate(0.1, 0);
            let lossy = logged_run(Cluster::with_protocol(cfg, protocol).with_faults(&plan));
            assert_eq!(plain.2, lossy.2, "{protocol:?}: same final memory");
            assert!(
                lossy.1.total_msgs() > plain.1.total_msgs(),
                "{protocol:?}: dropped copies are sent again"
            );
        }
    }

    #[test]
    fn write_read_roundtrip_across_page_boundary() {
        let mut c = cluster(2);
        let addr = layout(&c).bytes(512, 256); // spans two 256-byte pages
        let data: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        c.write(0, addr, &data);
        c.barrier(0);
        let mut back = vec![0u8; 512];
        c.read(1, addr, &mut back);
        assert_eq!(back, data);
    }
}
