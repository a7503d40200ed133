//! A synchronous, single-threaded cluster: the one synchronous driver of
//! either protocol. Tests, correctness oracles and the per-layer probes run
//! on it; with its fault stage armed it is the clockless, lossy harness the
//! protocol properties use.

use std::collections::VecDeque;

use crate::faults::roll_fate;
use crate::node::NodeCheckpoint;
use crate::{
    Action, BarrierId, Config, DsmProtocol, Envelope, Fate, FaultPlan, LockId, MsgClass, NodeId,
    NodeStats, PacketId, ProtoNode, RecoveryStats, Reliability, RetransmitPolicy, SharedAddr,
    Timeout, HEADER_BYTES,
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
    /// Records one transmitted envelope and its [`HEADER_BYTES`] header.
    pub fn record(&mut self, env: &Envelope) {
        match env.msg.class() {
            MsgClass::Miss => self.miss_msgs += 1,
            MsgClass::SyncLock => self.lock_msgs += 1,
            MsgClass::SyncBarrier => self.barrier_msgs += 1,
            MsgClass::Update => self.update_msgs += 1,
        }
        let body = env.msg.body_bytes();
        self.miss_bytes += body.miss as u64;
        self.consistency_bytes += body.consistency as u64;
        self.header_bytes += HEADER_BYTES as u64;
        self.msgs_recorded += 1;
        self.bytes_recorded += (body.miss + body.consistency + HEADER_BYTES) as u64;
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
/// The cluster holds the queue of copies in flight, and its step surface
/// lets the caller pick the schedule: start an operation on a node
/// ([`node_mut`](Self::node_mut)), [`post`](Self::post) its sends,
/// [`deliver`](Self::deliver) any [`queued`](Self::queued) copy, and
/// [`expire`](Self::expire) the timers once the queue is empty. Every other
/// operation routes its cascade to quiescence by one policy,
/// [`route`](Self::route), so data-plane calls always complete. Lock
/// contention is surfaced via [`try_lock`](Self::try_lock) (the grant is
/// routed to the waiter when the holder releases); barriers complete when
/// the last participant calls [`arrive`](Self::arrive).
#[derive(Debug)]
pub struct Cluster {
    cfg: Config,
    nodes: Vec<ProtoNode>,
    traffic: Traffic,
    /// The copies in flight, oldest first. Under a fault stage each carries
    /// its [`Tracked`] identity, and whether its fate is already drawn: the
    /// late half of a duplicate, a delayed copy.
    queue: VecDeque<(Envelope, Tracked, bool)>,
    /// The optional fault stage of [`deliver`](Self::deliver): link faults
    /// drawn from the plan, repaired by the reliability layer.
    faults: Option<(FaultPlan, Reliability)>,
    /// Last barrier-consistent checkpoint, one snapshot per node.
    ckpt: Option<Vec<NodeCheckpoint>>,
}

/// A copy's packet id and transmission attempt (0 = the original send),
/// under a fault stage.
type Tracked = Option<(PacketId, u32)>;

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
            queue: VecDeque::new(),
            faults: None,
            ckpt: None,
            cfg,
        }
    }

    /// Arms [`deliver`](Self::deliver)'s fault stage: each cross-node
    /// copy of a class in `plan`'s `class_mask` has its fate drawn from the
    /// plan's drop / duplicate / delay rates as a pure function of the
    /// packet's identity (the hold is ignored), and a [`Reliability`]
    /// layer under the default [`RetransmitPolicy`] repairs the losses. A
    /// delayed copy goes behind everything queued; once the queue drains,
    /// [`expire`](Self::expire) fires every armed timer (after every
    /// in-queue delivery, as in the timed router, but without a clock), so
    /// of the policy only `max_retries` matters.
    ///
    /// # Panics
    ///
    /// Panics if `plan` schedules crashes, which a cascade has no point for.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Cluster {
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

    /// Mutable access to a node, to start an operation on it by hand; the
    /// caller [`post`](Self::post)s what the operation sends.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ProtoNode {
        &mut self.nodes[id]
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

    /// Puts `sends` on the wire behind every queued copy, without
    /// delivering any: each cross-node copy is counted in
    /// [`traffic`](Self::traffic) and, under a fault stage, tracked by the
    /// reliability layer.
    pub fn post(&mut self, sends: Vec<Envelope>) {
        for env in sends {
            let wire = env.from != env.to;
            if wire {
                self.traffic.record(&env);
            }
            let tracked = match &mut self.faults {
                Some((_, rel)) if wire => Some((rel.send(&env, 0, 0).0, 0)),
                _ => None,
            };
            self.queue.push_back((env, tracked, false));
        }
    }

    /// The copies in flight, oldest first; [`deliver`](Self::deliver)
    /// takes an index into this order.
    pub fn queued(&self) -> impl ExactSizeIterator<Item = &Envelope> + '_ {
        self.queue.iter().map(|(env, ..)| env)
    }

    /// Takes the `i`-th queued copy off the wire and delivers it, posting
    /// what its destination sends in response. Returns the operations that
    /// completed, as `(node, action)` pairs. Under a fault stage the copy's
    /// fate is drawn first: a dropped copy vanishes (its flight stays armed
    /// for [`expire`](Self::expire)), a delayed one goes to the back of the
    /// queue, a duplicated one leaves its twin at the back; a copy of a
    /// packet already delivered is discarded.
    ///
    /// # Panics
    ///
    /// Panics if nothing is queued at `i`.
    pub fn deliver(&mut self, i: usize) -> Vec<(NodeId, Action)> {
        let (env, tracked, rolled) = self.queue.remove(i).expect("a queued copy at that index");
        if let (Some((plan, rel)), Some((pid, attempt))) = (&mut self.faults, tracked) {
            if !rolled {
                match roll_fate(plan, pid, attempt, env.msg.class().bit()) {
                    // The flight stays armed in the layer.
                    Fate::Drop => return Vec::new(),
                    Fate::Duplicate => self.queue.push_back((env.clone(), tracked, true)),
                    Fate::Delay(_) => {
                        self.queue.push_back((env, tracked, true));
                        return Vec::new();
                    }
                    Fate::Deliver => {}
                }
            }
            // Delivery is the ack; a duplicate stops here.
            if !rel.delivered(pid, 0) {
                return Vec::new();
            }
        }
        let to = env.to;
        let handled = self.nodes[to].handle(env);
        self.post(handled.sends);
        handled.actions.into_iter().map(|a| (to, a)).collect()
    }

    /// Once the queue is empty, every retransmit timer still armed
    /// expires: each packet lost on the way is sent again. Does nothing
    /// without a fault stage.
    ///
    /// # Panics
    ///
    /// Panics if copies are still queued, or if the reliability layer
    /// gives a packet up.
    pub fn expire(&mut self) {
        assert!(self.queue.is_empty(), "copies are still queued");
        let Some((_, rel)) = &mut self.faults else {
            return;
        };
        for pid in rel.overdue(u64::MAX) {
            let (env, attempt) = match rel.timeout(pid, 0) {
                Timeout::Resend { env, attempt, .. } => (env, attempt),
                Timeout::Exhausted { attempt, .. } => {
                    panic!("reliability gave up on {pid:?} at retransmission {attempt}")
                }
                Timeout::Stale => unreachable!("overdue packets are in flight"),
            };
            self.traffic.record(&env);
            self.queue.push_back((env, Some((pid, attempt)), false));
        }
    }

    /// Posts `sends`, then delivers the oldest queued copy until the queue
    /// is empty and no timer brings a copy back. Returns the completed
    /// actions as `(node, action)` pairs in delivery order.
    ///
    /// # Panics
    ///
    /// Panics if the fault stage's reliability layer gives a packet up.
    pub fn route(&mut self, sends: Vec<Envelope>) -> Vec<(NodeId, Action)> {
        self.post(sends);
        let mut done = Vec::new();
        loop {
            while !self.queue.is_empty() {
                done.extend(self.deliver(0));
            }
            self.expire();
            if self.queue.is_empty() {
                return done;
            }
        }
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
        while let Some(page) = self.nodes[node].next_fault(addr, len, write) {
            let start = self.nodes[node].fault(page, write);
            let done = self.route(start.sends);
            assert!(
                start.ready || done.contains(&(node, Action::PageReady(page))),
                "fault on page {page} did not complete synchronously"
            );
        }
    }

    /// Acquires `lock` on `node` if it is free (or locally cached), else
    /// enqueues and returns `false`; the node will hold the lock as soon as
    /// the current holder releases.
    pub fn try_lock(&mut self, node: NodeId, lock: LockId) -> bool {
        let start = self.nodes[node].acquire(lock);
        start.ready
            || self
                .route(start.sends)
                .contains(&(node, Action::LockGranted(lock)))
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
        let start = self.nodes[node].barrier_arrive(barrier);
        let done = self.route(start.sends);
        start.ready || done.iter().any(|&(_, a)| a == Action::BarrierDone(barrier))
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
                let start = c.node_mut(me).fault(page, false);
                assert!(!start.ready);
                c.post(start.sends);
                let (mut asked, mut served) = (Vec::new(), 0);
                loop {
                    let Some(env) = c.queued().next().cloned() else {
                        break;
                    };
                    match &env.msg {
                        Msg::DiffReq { from, to, .. } => asked.push((env.to, *from, *to)),
                        Msg::DiffReply { diffs, .. } => {
                            let server = env.from;
                            let &(_, from, to) = asked.iter().find(|a| a.0 == server).unwrap();
                            let cached = c.node(server).lrc().page(page).my_diffs();
                            let seqs: Vec<_> = diffs.iter().map(|(iv, _)| iv.seq()).collect();
                            assert_eq!(seqs, linear_diffs_between(cached, from, to));
                            for (iv, d) in diffs {
                                let s = iv.seq();
                                let (_, kept) = cached.iter().find(|(c, _)| *c == s).unwrap();
                                assert!(d.shares_buffer_with(kept), "diff @{s} was copied");
                            }
                            served += diffs.len();
                        }
                        _ => {}
                    }
                    c.deliver(0);
                }
                assert!(served > 0, "hand-off {handoff} fetched no diff");
            }
            let v = c.read_u64(me, addr);
            c.write_u64(me, addr, v + 1);
            c.unlock(me, 0);
        }
        assert_eq!(c.read_u64(0, addr), 3001);
        let cached = (0..2)
            .map(|q| c.node(q).lrc().page(page).my_diffs().len())
            .sum::<usize>();
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
        assert_eq!(c.config().pages_in(addr, 32).len(), 1);
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

    /// A checkpoint shares every page buffer with the live node. A write
    /// after it copies the live page, so the snapshot keeps the bytes of
    /// the cut, and a rollback brings them back.
    #[test]
    fn checkpoints_share_page_buffers_until_written() {
        use crate::page::same_buffer;

        let mut c = cluster(4);
        let addr = layout(&c).bytes(8, 8);
        let page = c.config().page_of(addr);
        c.write_u64(0, addr, 5);
        run_section(&mut c, addr, 1);
        c.barrier(0);
        c.checkpoint();
        let ckpt = c.ckpt.as_ref().expect("checkpoint taken");
        for (q, ck) in ckpt.iter().enumerate() {
            let node = c.node(q).lrc();
            assert_eq!(node.pages_resident(), ck.pages_resident());
            for page in 0..c.config().segment_pages {
                let (live, snap) = (node.page(page), ck.page(page));
                assert_eq!(live.data.is_some(), snap.data.is_some());
                if live.data.is_some() {
                    assert!(same_buffer(live.data.as_ref(), snap.data.as_ref()));
                }
                if live.twin().is_some() {
                    assert!(same_buffer(live.twin(), snap.twin()));
                }
            }
        }
        let cut = |c: &Cluster| {
            let data = c.ckpt.as_ref().unwrap()[1].page(page).data.clone();
            let off = addr % c.config().page_size;
            u64::from_le_bytes(data.expect("resident")[off..off + 8].try_into().unwrap())
        };
        assert_eq!(cut(&c), 9);
        c.lock(1, 2);
        c.write_u64(1, addr, 99);
        c.unlock(1, 2);
        assert_eq!(c.read_u64(1, addr), 99);
        assert_eq!(cut(&c), 9, "the write reached the snapshot");
        c.crash_recover(1);
        assert_eq!(c.read_u64(1, addr), 9);
    }

    const SOR_NODES: usize = 4;
    const SOR_BAND: usize = 4;
    const SOR_PAGE: usize = 256;

    /// A cluster laid out for [`sor_sweep`]: `SOR_BAND` pages per node,
    /// each page's first word initialised to its number.
    fn sor_cluster(cfg: Config) -> Cluster {
        let ps = SOR_PAGE;
        let mut c = Cluster::new(cfg.segment_pages(SOR_NODES * SOR_BAND).page_size(ps));
        for page in 0..SOR_NODES * SOR_BAND {
            c.master_write(page * ps, &(page as u64).to_le_bytes());
        }
        c
    }

    /// One SOR sweep without its barrier: each node reads its neighbours'
    /// edge pages, then writes every word of its own band.
    fn sor_sweep(c: &mut Cluster, sweep: u64) {
        let ps = SOR_PAGE;
        for q in 0..SOR_NODES {
            let band = q * SOR_BAND..(q + 1) * SOR_BAND;
            let edges = [band.start.checked_sub(1), Some(band.end)];
            let halo: u64 = edges
                .into_iter()
                .flatten()
                .filter(|&page| page < SOR_NODES * SOR_BAND)
                .map(|page| c.read_u64(q, page * ps))
                .sum();
            for page in band {
                for word in 0..ps / 8 {
                    c.write_u64(q, page * ps + word * 8, sweep + halo);
                }
            }
        }
    }

    /// SOR's sharing: each node writes its own band of pages and reads its
    /// neighbours' edge pages between barriers, with GC off. A band page
    /// whose diff no neighbour ever asked for keeps, as its twin, the
    /// buffer the origin served: the node's writes copied its own copy.
    #[test]
    fn sor_band_twins_share_the_origins_buffers() {
        use crate::page::same_buffer;

        const NODES: usize = SOR_NODES;
        const BAND: usize = SOR_BAND;
        let mut c = sor_cluster(Config::new(NODES));
        for sweep in 1..=4u64 {
            sor_sweep(&mut c, sweep);
            c.barrier(0);
        }
        let origin = c.node(crate::node::ORIGIN).lrc();
        for q in 1..NODES {
            let node = c.node(q).lrc();
            let mut shared = 0;
            for page in q * BAND..(q + 1) * BAND {
                let p = node.page(page);
                if p.my_diffs().is_empty() {
                    assert!(
                        same_buffer(p.twin(), origin.page(page).data.as_ref()),
                        "node {q}'s twin of page {page} is a copy"
                    );
                    shared += 1;
                }
            }
            assert!(shared >= 2, "node {q} shares {shared} twins");
        }
    }

    /// SOR under barrier-time GC. The origin validates every band page of
    /// the other nodes from that page's one writer, and keeps the writer's
    /// buffer, not a second one with the same bytes. The writer's next
    /// write twins that buffer and copies its own, so the origin's copy is
    /// the twin until the next collection.
    #[test]
    fn gc_validation_keeps_the_writers_buffer() {
        use crate::node::ORIGIN;
        use crate::page::same_buffer;

        const NODES: usize = SOR_NODES;
        const BAND: usize = SOR_BAND;
        let mut c = sor_cluster(Config::new(NODES).gc(1024));
        let collections = |c: &Cluster| c.node(ORIGIN).lrc().stats().gc_collections;
        let (mut just_collected, mut twin_checks) = (false, 0);
        for sweep in 1..=8u64 {
            sor_sweep(&mut c, sweep);
            if just_collected {
                twin_checks += 1;
                let origin = c.node(ORIGIN).lrc();
                for q in 1..NODES {
                    let node = c.node(q).lrc();
                    for page in q * BAND..(q + 1) * BAND {
                        assert!(
                            same_buffer(origin.page(page).data.as_ref(), node.page(page).twin()),
                            "sweep {sweep}: the origin's page {page} is not node {q}'s twin"
                        );
                    }
                }
            }
            let before = collections(&c);
            c.barrier(0);
            just_collected = collections(&c) > before;
            if !just_collected {
                continue;
            }
            let origin = c.node(ORIGIN).lrc();
            for q in 1..NODES {
                let node = c.node(q).lrc();
                for page in 0..NODES * BAND {
                    let (mine, theirs) = (origin.page(page), node.page(page));
                    if theirs.is_valid() {
                        assert_eq!(mine.data, theirs.data, "node {q}'s page {page} after GC");
                    }
                    if (q * BAND..(q + 1) * BAND).contains(&page) {
                        assert!(
                            same_buffer(mine.data.as_ref(), theirs.data.as_ref()),
                            "sweep {sweep}: the origin's page {page} is not node {q}'s buffer"
                        );
                    }
                }
            }
        }
        assert!(collections(&c) >= 2, "{} collections", collections(&c));
        assert!(twin_checks >= 2, "{twin_checks} sweeps after a collection");
    }

    /// After every barrier of SOR, with and without collections, a node
    /// holds no handle to another node's record at or below the departure
    /// time, holds every own live record, and still counts every live
    /// record.
    #[test]
    fn barriers_forget_foreign_intervals_below_the_departure() {
        for gc in [None, Some(1024)] {
            let mut cfg = Config::new(SOR_NODES);
            cfg.gc = gc;
            let mut c = sor_cluster(cfg);
            for sweep in 1..=6u64 {
                sor_sweep(&mut c, sweep);
                c.barrier(0);
                let dep = c.node(0).lrc().vt().clone();
                for id in 0..SOR_NODES {
                    let node = c.node(id).lrc();
                    assert_eq!(node.vt(), &dep, "sweep {sweep}: node {id}'s time");
                    let store = node.intervals();
                    for m in store.iter() {
                        assert!(
                            m.node() == id || m.seq() > dep.get(m.node()),
                            "sweep {sweep}: node {id} holds ({}, {})",
                            m.node(),
                            m.seq()
                        );
                    }
                    for seq in store.floor(id) + 1..=dep.get(id) {
                        assert!(store.own(id, seq).is_some(), "node {id}'s own {seq}");
                    }
                    let live = (0..SOR_NODES).map(|q| (dep.get(q) - store.floor(q)) as usize);
                    assert_eq!(store.len(), live.sum(), "sweep {sweep}: node {id}");
                }
            }
            let collections = c.node(0).lrc().stats().gc_collections;
            assert_eq!(collections > 0, gc.is_some(), "{collections} collections");
        }
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

    /// The nodes an arrival of `node` at `barrier` completes the barrier
    /// on, sorted: empty unless it was the last.
    fn arrive_completing(c: &mut Cluster, node: NodeId, barrier: BarrierId) -> Vec<NodeId> {
        let start = c.node_mut(node).barrier_arrive(barrier);
        let done = c.route(start.sends);
        let departed = done
            .into_iter()
            .filter_map(|(q, a)| (a == Action::BarrierDone(barrier)).then_some(q));
        let mut all: Vec<NodeId> = start
            .ready
            .then_some(node)
            .into_iter()
            .chain(departed)
            .collect();
        all.sort_unstable();
        all
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
                let done: Vec<Vec<NodeId>> = (0..3)
                    .map(|i| arrive_completing(&mut c, (i + episode) % 3, 0))
                    .collect();
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
                let start = c.node_mut(node).acquire(0);
                if !start.ready {
                    log.push(c.route(start.sends));
                }
                if !c.node(node).page_writable(page) {
                    let sends = c.node_mut(node).fault(page, true).sends;
                    log.push(c.route(sends));
                }
                c.node_mut(node)
                    .write_from(addr + node * 8, &(round + 1).to_le_bytes());
                let sends = c.node_mut(node).release(0);
                log.push(c.route(sends));
            }
            for node in 0..n {
                let sends = c.node_mut(node).barrier_arrive(0).sends;
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
                Cluster::with_protocol(cfg, protocol).with_faults(&FaultPlan::crash_schedule(42));
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
            let plan = FaultPlan::drop_rate(7, 0.3)
                .with_dup(0.1)
                .with_delay(0.1, 0);
            let lossy =
                logged_run(Cluster::with_protocol(cfg.clone(), protocol).with_faults(&plan));
            assert_eq!(plain.2, lossy.2, "{protocol:?}: same final memory");
            assert!(
                lossy.1.total_msgs() > plain.1.total_msgs(),
                "{protocol:?}: dropped copies are sent again"
            );
            // A class mask means the same here as on the simulated machines:
            // only lock messages are lost and re-sent.
            let locks_only = FaultPlan::drop_rate(7, 0.5).with_class_mask(MsgClass::SyncLock.bit());
            let (_, traffic, image) =
                logged_run(Cluster::with_protocol(cfg, protocol).with_faults(&locks_only));
            assert_eq!(plain.2, image, "{protocol:?}: same final memory");
            assert_eq!(
                (traffic.miss_msgs, traffic.barrier_msgs),
                (plain.1.miss_msgs, plain.1.barrier_msgs),
                "{protocol:?}: only lock messages are faulted"
            );
            assert!(
                traffic.lock_msgs > plain.1.lock_msgs,
                "{protocol:?}: dropped lock messages are sent again"
            );
        }
    }

    /// Writes `len` bytes at `offset` into a page-aligned block on node 0,
    /// first as the master's initial image and then as a parallel-phase
    /// write, and reads each back on node 1.
    fn roundtrip_across_pages(protocol: DsmProtocol, offset: usize, len: usize) {
        let cfg = Config::new(2).segment_pages(8).page_size(256);
        let mut c = Cluster::with_protocol(cfg, protocol);
        let addr = layout(&c).bytes(offset + len, 256) + offset;
        let init: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        c.master_write(addr, &init);
        let mut back = vec![0u8; len];
        c.read(1, addr, &mut back);
        assert_eq!(
            back, init,
            "{protocol:?} initial image, {len} bytes at +{offset}"
        );
        let data: Vec<u8> = init.iter().map(|b| b ^ 0x5a).collect();
        c.write(0, addr, &data);
        c.barrier(0);
        c.read(1, addr, &mut back);
        assert_eq!(back, data, "{protocol:?} write, {len} bytes at +{offset}");
    }

    #[test]
    fn write_read_roundtrip_across_page_boundary() {
        for protocol in [DsmProtocol::Lrc, DsmProtocol::Ivy] {
            // Two whole 256-byte pages.
            roundtrip_across_pages(protocol, 0, 512);
            // A partial first and last page around one whole page.
            roundtrip_across_pages(protocol, 100, 600);
        }
    }
}
