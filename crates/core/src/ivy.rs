//! An IVY-style shared virtual memory protocol (Li & Hudak), the
//! sequential-consistency baseline the paper's related work builds on.
//!
//! Single writer, write-invalidate, page granularity: every page has a
//! static *manager* tracking its current owner and read copyset. A read
//! fault fetches a copy from the owner; a write fault invalidates every
//! copy and transfers ownership. No twins, no diffs, no vector time — and
//! therefore whole-page ping-pong under false sharing, the pathology lazy
//! release consistency was designed to avoid. Selecting this protocol for
//! the AS cluster (`tmk-machines`) gives the LRC-vs-SC ablation.
//!
//! Synchronization is centralized: a lock's manager queues waiters and
//! grants in FIFO order; barriers use the same arrive/depart scheme as the
//! TreadMarks implementation (without consistency payloads — sequential
//! consistency needs none).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::node::ORIGIN;
use crate::page::zero_page;
use crate::{
    Action, BarrierId, Config, Envelope, Handled, LockId, Msg, NodeId, NodeStats, PageId,
    SharedAddr, Start, VTime,
};

/// A node's access right to a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    None,
    Read,
    Write,
}

/// Manager-side record for a page.
#[derive(Debug, Clone)]
struct PageDir {
    owner: NodeId,
    copyset: Vec<NodeId>,
}

/// Manager-side record for a lock.
#[derive(Debug, Clone, Default)]
struct LockDir {
    holder: Option<NodeId>,
    queue: VecDeque<NodeId>,
}

/// One node's IVY protocol state.
#[derive(Debug)]
pub struct IvyNode {
    id: NodeId,
    cfg: Config,
    access: Vec<Access>,
    /// Page copies, written only through `Arc::make_mut`: a read transfer
    /// shares the owner's buffer, an exclusive one moves it.
    data: Vec<Option<Arc<[u8]>>>,
    /// Directory entries for the pages this node manages.
    dir: HashMap<PageId, PageDir>,
    /// Lock directory entries for the locks this node manages.
    locks: HashMap<LockId, LockDir>,
    /// Locks this node currently holds.
    held: Vec<LockId>,
    /// Barrier arrivals (manager side).
    barriers: HashMap<BarrierId, Vec<NodeId>>,
    stats: NodeStats,
}

impl IvyNode {
    /// Creates the IVY protocol instance for node `id`.
    pub fn new(id: NodeId, cfg: Config) -> IvyNode {
        assert!(id < cfg.nodes);
        // The origin conceptually owns every page from the start (the
        // master wrote the initial data); pages materialize lazily.
        let init_access = if id == ORIGIN {
            Access::Write
        } else {
            Access::None
        };
        IvyNode {
            id,
            access: vec![init_access; cfg.segment_pages],
            data: (0..cfg.segment_pages).map(|_| None).collect(),
            dir: HashMap::new(),
            locks: HashMap::new(),
            held: Vec::new(),
            barriers: HashMap::new(),
            stats: NodeStats::default(),
            cfg,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cluster configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether this node holds `lock`.
    pub fn holds(&self, lock: LockId) -> bool {
        self.held.contains(&lock)
    }

    /// Lock state a crash recovery must re-mint: if this node `crashed`,
    /// every lock-directory entry it manages (IVY centralizes lock state at
    /// the manager); nothing otherwise. Cf. [`crate::Node::forgotten_tokens`].
    pub fn forgotten_tokens(&self, crashed: bool) -> u64 {
        if crashed {
            self.locks.len() as u64
        } else {
            0
        }
    }

    /// Pages with a resident copy on this node (what a post-crash restore
    /// would have to re-fetch).
    pub fn pages_resident(&self) -> u64 {
        self.data.iter().filter(|d| d.is_some()).count() as u64
    }

    /// A diagnostic summary of this node's synchronization state: the lock
    /// directory it manages (holder and FIFO queue), locks held locally,
    /// and barrier arrivals collected as a manager. Consumed by the
    /// simulator's deadlock watchdog.
    pub fn sync_debug(&self) -> String {
        let mut parts = Vec::new();
        let mut locks: Vec<_> = self.locks.iter().collect();
        locks.sort_by_key(|(l, _)| **l);
        for (l, d) in locks {
            if d.holder.is_some() || !d.queue.is_empty() {
                let holder = d.holder.map_or("none".to_string(), |h| format!("node {h}"));
                let q: Vec<String> = d.queue.iter().map(|n| n.to_string()).collect();
                parts.push(format!(
                    "lock {l}: holder {holder}, queue [{}]",
                    q.join(", ")
                ));
            }
        }
        if !self.held.is_empty() {
            let held: Vec<String> = self.held.iter().map(|l| l.to_string()).collect();
            parts.push(format!("holding [{}]", held.join(", ")));
        }
        let mut barriers: Vec<_> = self.barriers.iter().collect();
        barriers.sort_by_key(|(b, _)| **b);
        for (b, arr) in barriers {
            if !arr.is_empty() {
                let who: Vec<String> = arr.iter().map(|n| n.to_string()).collect();
                parts.push(format!("barrier {b}: arrivals [{}]", who.join(", ")));
            }
        }
        if parts.is_empty() {
            "idle".to_string()
        } else {
            parts.join("; ")
        }
    }

    fn manager_of(&self, page: PageId) -> NodeId {
        page % self.cfg.nodes
    }

    fn dir_entry(&mut self, page: PageId) -> &mut PageDir {
        self.dir.entry(page).or_insert_with(|| PageDir {
            owner: ORIGIN,
            copyset: vec![ORIGIN],
        })
    }

    fn ensure_origin_data(&mut self, page: PageId) {
        if self.id == ORIGIN && self.data[page].is_none() && self.access[page] != Access::None {
            self.data[page] = Some(zero_page(self.cfg.page_size));
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Is `page` readable?
    pub fn page_valid(&self, page: PageId) -> bool {
        self.access[page] != Access::None
    }

    /// Is `page` writable?
    pub fn page_writable(&self, page: PageId) -> bool {
        self.access[page] == Access::Write
    }

    /// Always false: an IVY node keeps no fetch state, so a second fault on
    /// a page sends a second request.
    pub fn fetch_in_flight(&self, _page: PageId) -> bool {
        false
    }

    /// The first page, in ascending order, that an access of `len` bytes at
    /// `addr` must [`fault`](Self::fault) on: see [`Node::next_fault`](crate::Node::next_fault).
    pub fn next_fault(&self, addr: SharedAddr, len: usize, write: bool) -> Option<PageId> {
        self.cfg.pages_in(addr, len).find(|&p| {
            if write {
                !self.page_writable(p)
            } else {
                !self.page_valid(p)
            }
        })
    }

    /// Pre-parallel initialization write by the master (node 0).
    pub fn master_write(&mut self, addr: SharedAddr, bytes: &[u8]) {
        assert_eq!(self.id, ORIGIN, "master_write is only valid on node 0");
        for (page, in_page, in_buf) in self.cfg.page_pieces(addr, bytes.len()) {
            self.ensure_origin_data(page);
            let data = Arc::make_mut(self.data[page].as_mut().expect("origin page materialized"));
            data[in_page].copy_from_slice(&bytes[in_buf]);
        }
    }

    /// Reads shared memory into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if a touched page is not readable (fault first).
    pub fn read_into(&mut self, addr: SharedAddr, buf: &mut [u8]) {
        for (page, in_page, in_buf) in self.cfg.page_pieces(addr, buf.len()) {
            self.ensure_origin_data(page);
            assert!(
                self.access[page] != Access::None,
                "read of unreadable page {page} on node {}",
                self.id
            );
            let data = self.data[page].as_ref().expect("readable page has data");
            buf[in_buf].copy_from_slice(&data[in_page]);
        }
    }

    /// Writes `bytes` to shared memory.
    ///
    /// # Panics
    ///
    /// Panics if a touched page is not writable (fault first).
    pub fn write_from(&mut self, addr: SharedAddr, bytes: &[u8]) {
        for (page, in_page, in_buf) in self.cfg.page_pieces(addr, bytes.len()) {
            self.ensure_origin_data(page);
            assert!(
                self.access[page] == Access::Write,
                "write to non-writable page {page} on node {}",
                self.id
            );
            let data = Arc::make_mut(self.data[page].as_mut().expect("writable page has data"));
            data[in_page].copy_from_slice(&bytes[in_buf]);
        }
    }

    /// Begins resolving an access fault on `page`.
    pub fn fault(&mut self, page: PageId, write: bool) -> Start {
        if write {
            self.stats.write_faults += 1;
        } else {
            self.stats.read_faults += 1;
        }
        self.ensure_origin_data(page);
        let ok = if write {
            self.access[page] == Access::Write
        } else {
            self.access[page] != Access::None
        };
        if ok {
            return Start::ready(Vec::new());
        }
        self.stats.full_page_fetches += 1;
        Start::waiting(vec![Envelope {
            from: self.id,
            to: self.manager_of(page),
            msg: Msg::IvyReq {
                page,
                requester: self.id,
                write,
            },
        }])
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    fn lock_manager(&self, lock: LockId) -> NodeId {
        self.cfg.lock_manager(lock)
    }

    /// Begins acquiring `lock`.
    pub fn acquire(&mut self, lock: LockId) -> Start {
        assert!(!self.holds(lock), "recursive lock acquire of lock {lock}");
        let mgr = self.lock_manager(lock);
        if mgr == self.id {
            let e = self.locks.entry(lock).or_default();
            if e.holder.is_none() {
                e.holder = Some(self.id);
                self.held.push(lock);
                self.stats.local_lock_acquires += 1;
                return Start::ready(Vec::new());
            }
        }
        self.stats.remote_lock_acquires += 1;
        Start::waiting(vec![Envelope {
            from: self.id,
            to: mgr,
            msg: Msg::LockReq {
                lock,
                requester: self.id,
                vt: VTime::zero(self.cfg.nodes),
            },
        }])
    }

    /// Releases `lock`.
    pub fn release(&mut self, lock: LockId) -> Vec<Envelope> {
        self.stats.lock_releases += 1;
        let pos = self
            .held
            .iter()
            .position(|&l| l == lock)
            .expect("release of unheld lock");
        self.held.remove(pos);
        let mgr = self.lock_manager(lock);
        if mgr == self.id {
            return self.mgr_release(lock).sends;
        }
        vec![Envelope {
            from: self.id,
            to: mgr,
            msg: Msg::IvyRelease { lock },
        }]
    }

    fn mgr_release(&mut self, lock: LockId) -> Handled {
        let e = self.locks.entry(lock).or_default();
        e.holder = e.queue.pop_front();
        match e.holder {
            Some(next) if next == self.id => {
                self.held.push(lock);
                Handled {
                    sends: Vec::new(),
                    actions: vec![Action::LockGranted(lock)],
                }
            }
            Some(next) => Handled {
                sends: vec![Envelope {
                    from: self.id,
                    to: next,
                    msg: Msg::LockGrant {
                        lock,
                        intervals: Vec::new(),
                    },
                }],
                actions: Vec::new(),
            },
            None => Handled::default(),
        }
    }

    /// Arrives at `barrier`.
    pub fn barrier_arrive(&mut self, barrier: BarrierId) -> Start {
        self.stats.barriers += 1;
        let mgr = self.cfg.barrier_manager(barrier);
        if mgr == self.id {
            let done = self.record_arrival(barrier, self.id);
            if done {
                let sends = self.depart(barrier);
                Start::ready(sends)
            } else {
                Start::waiting(Vec::new())
            }
        } else {
            Start::waiting(vec![Envelope {
                from: self.id,
                to: mgr,
                msg: Msg::BarrierArrive {
                    barrier,
                    vt: VTime::zero(self.cfg.nodes),
                    intervals: Vec::new(),
                    gc_wanted: false,
                },
            }])
        }
    }

    fn record_arrival(&mut self, barrier: BarrierId, node: NodeId) -> bool {
        let n = self.cfg.nodes;
        let v = self.barriers.entry(barrier).or_default();
        debug_assert!(!v.contains(&node));
        v.push(node);
        v.len() == n
    }

    fn depart(&mut self, barrier: BarrierId) -> Vec<Envelope> {
        let arrivals = self.barriers.remove(&barrier).expect("barrier exists");
        arrivals
            .into_iter()
            .filter(|&q| q != self.id)
            .map(|q| Envelope {
                from: self.id,
                to: q,
                msg: Msg::BarrierDepart {
                    barrier,
                    vt: VTime::zero(self.cfg.nodes),
                    intervals: Vec::new(),
                    gc: false,
                },
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Delivers one protocol message.
    pub fn handle(&mut self, env: Envelope) -> Handled {
        debug_assert_eq!(env.to, self.id);
        let from = env.from;
        match env.msg {
            Msg::IvyReq {
                page,
                requester,
                write,
            } => self.on_req(page, requester, write),
            Msg::IvyFwd {
                page,
                requester,
                write,
                copyset,
            } => self.on_fwd(page, requester, write, copyset),
            Msg::IvySend {
                page,
                data,
                exclusive,
            } => self.on_send(page, data, exclusive),
            Msg::IvyInvalidate { page } => self.on_invalidate(page),
            Msg::LockReq {
                lock, requester, ..
            } => self.on_lock_req(lock, requester),
            Msg::IvyRelease { lock } => self.mgr_release(lock),
            Msg::LockGrant { lock, .. } => {
                self.held.push(lock);
                Handled {
                    sends: Vec::new(),
                    actions: vec![Action::LockGranted(lock)],
                }
            }
            Msg::BarrierArrive { barrier, .. } => {
                let mut out = Handled::default();
                if self.record_arrival(barrier, from) {
                    out.sends = self.depart(barrier);
                    out.actions.push(Action::BarrierDone(barrier));
                }
                out
            }
            Msg::BarrierDepart { barrier, .. } => Handled {
                sends: Vec::new(),
                actions: vec![Action::BarrierDone(barrier)],
            },
            other => panic!("IVY node received a non-IVY message: {other:?}"),
        }
    }

    /// Manager: route an access request to the owner, updating the
    /// directory (IVY's "dynamic distributed manager" with a fixed home).
    fn on_req(&mut self, page: PageId, requester: NodeId, write: bool) -> Handled {
        debug_assert_eq!(self.manager_of(page), self.id);
        let me = self.id;
        let entry = self.dir_entry(page);
        let owner = entry.owner;
        let copyset = if write {
            let cs: Vec<NodeId> = entry
                .copyset
                .iter()
                .copied()
                .filter(|&q| q != requester && q != owner)
                .collect();
            entry.owner = requester;
            entry.copyset = vec![requester];
            cs
        } else {
            if !entry.copyset.contains(&requester) {
                entry.copyset.push(requester);
            }
            Vec::new()
        };
        let fwd = Envelope {
            from: me,
            to: owner,
            msg: Msg::IvyFwd {
                page,
                requester,
                write,
                copyset,
            },
        };
        Handled {
            sends: vec![fwd],
            actions: Vec::new(),
        }
    }

    /// Owner: invalidate read copies (write requests), ship the page, and
    /// adjust own access.
    fn on_fwd(
        &mut self,
        page: PageId,
        requester: NodeId,
        write: bool,
        copyset: Vec<NodeId>,
    ) -> Handled {
        self.ensure_origin_data(page);
        let mut sends: Vec<Envelope> = copyset
            .into_iter()
            .filter(|&q| q != self.id)
            .map(|q| Envelope {
                from: self.id,
                to: q,
                msg: Msg::IvyInvalidate { page },
            })
            .collect();

        if requester == self.id {
            // Ownership came back to us (e.g. a write upgrade of our own
            // read copy): no data movement needed.
            self.access[page] = if write { Access::Write } else { Access::Read };
            return Handled {
                sends,
                actions: vec![Action::PageReady(page)],
            };
        }

        let data = if write {
            // Single writer: we lose the page entirely.
            self.access[page] = Access::None;
            self.data[page].take()
        } else {
            if self.access[page] == Access::Write {
                self.access[page] = Access::Read;
            }
            self.data[page].clone()
        }
        .expect("owner holds the page data");
        sends.push(Envelope {
            from: self.id,
            to: requester,
            msg: Msg::IvySend {
                page,
                data,
                exclusive: write,
            },
        });
        Handled {
            sends,
            actions: Vec::new(),
        }
    }

    fn on_send(&mut self, page: PageId, data: Arc<[u8]>, exclusive: bool) -> Handled {
        self.data[page] = Some(data);
        self.access[page] = if exclusive {
            Access::Write
        } else {
            Access::Read
        };
        Handled {
            sends: Vec::new(),
            actions: vec![Action::PageReady(page)],
        }
    }

    fn on_invalidate(&mut self, page: PageId) -> Handled {
        self.access[page] = Access::None;
        self.data[page] = None;
        self.stats.notices_received += 1;
        Handled::default()
    }

    fn on_lock_req(&mut self, lock: LockId, requester: NodeId) -> Handled {
        debug_assert_eq!(self.lock_manager(lock), self.id);
        let e = self.locks.entry(lock).or_default();
        if e.holder.is_none() {
            e.holder = Some(requester);
            Handled {
                sends: vec![Envelope {
                    from: self.id,
                    to: requester,
                    msg: Msg::LockGrant {
                        lock,
                        intervals: Vec::new(),
                    },
                }],
                actions: Vec::new(),
            }
        } else {
            e.queue.push_back(requester);
            Handled::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::IvyNode;
    use crate::page::same_buffer;
    use crate::{Action, Cluster, Config, DsmProtocol, Envelope};

    fn cluster(n: usize) -> Cluster {
        let cfg = Config::new(n).page_size(256).segment_pages(4);
        Cluster::with_protocol(cfg, DsmProtocol::Ivy)
    }

    /// `n` IVY nodes driven by hand; node 0 has written page 0.
    fn nodes(n: usize) -> Vec<IvyNode> {
        let cfg = Config::new(n).page_size(256).segment_pages(4);
        let mut nodes: Vec<IvyNode> = (0..n).map(|i| IvyNode::new(i, cfg.clone())).collect();
        nodes[0].master_write(0, &7u64.to_le_bytes());
        nodes
    }

    /// Faults `page` on `node` and delivers everything it causes, first in
    /// first out.
    fn fault(nodes: &mut [IvyNode], node: usize, page: usize, write: bool) {
        let mut queue: VecDeque<Envelope> = nodes[node].fault(page, write).sends.into();
        while let Some(env) = queue.pop_front() {
            let to = env.to;
            queue.extend(nodes[to].handle(env).sends);
        }
    }

    #[test]
    fn an_exclusive_transfer_moves_the_owners_buffer() {
        let mut nodes = nodes(2);
        let owned = nodes[0].data[0].clone();
        fault(&mut nodes, 1, 0, true);
        assert!(nodes[1].page_writable(0));
        assert!(same_buffer(nodes[1].data[0].as_ref(), owned.as_ref()));
        assert!(nodes[0].data[0].is_none(), "the sender keeps no copy");
    }

    #[test]
    fn read_copies_share_the_owners_buffer() {
        let mut nodes = nodes(3);
        fault(&mut nodes, 1, 0, false);
        fault(&mut nodes, 2, 0, false);
        for q in 1..3 {
            assert!(nodes[q].page_valid(0) && !nodes[q].page_writable(0));
            assert!(same_buffer(
                nodes[q].data[0].as_ref(),
                nodes[0].data[0].as_ref()
            ));
        }
        // A read copy taken before the owner's write keeps the old bytes:
        // the write copies the shared buffer instead of changing it.
        let read_copy = nodes[1].data[0].clone().unwrap();
        fault(&mut nodes, 0, 0, true);
        nodes[0].write_from(0, &9u64.to_le_bytes());
        assert!(!nodes[1].page_valid(0), "the invalidation has landed");
        assert_eq!(read_copy[..8], 7u64.to_le_bytes());
        let mut b = [0u8; 8];
        nodes[0].read_into(0, &mut b);
        assert_eq!(u64::from_le_bytes(b), 9);
    }

    #[test]
    fn reads_are_always_fresh_sequential_consistency() {
        let mut c = cluster(3);
        c.write_u64(0, 0, 7);
        assert_eq!(c.read_u64(1, 0), 7);
        // No synchronization needed: the write invalidated nothing yet,
        // but node 2's fresh fetch must still see the latest value.
        c.write_u64(2, 0, 9);
        assert_eq!(c.read_u64(0, 0), 9, "invalidation keeps reads fresh");
        assert_eq!(c.read_u64(1, 0), 9);
    }

    #[test]
    fn write_invalidates_all_read_copies() {
        let mut c = cluster(4);
        c.write_u64(0, 0, 1);
        for q in 1..4 {
            assert_eq!(c.read_u64(q, 0), 1);
        }
        c.write_u64(3, 0, 2);
        for q in 0..3 {
            assert!(!c.node(q).page_valid(0), "copy at {q} must die");
        }
        assert_eq!(c.read_u64(1, 0), 2);
    }

    #[test]
    fn false_sharing_ping_pongs_whole_pages() {
        // Two nodes write different words of one page: each write transfers
        // ownership (the pathology LRC's multiple-writer protocol avoids).
        let mut c = cluster(2);
        for i in 0..4 {
            c.write_u64(0, 0, i);
            c.write_u64(1, 8, i);
        }
        let transfer_msgs = c.traffic().total_msgs();
        // Every write after the first moves the whole page: request + send
        // (the forward hop is local when the manager owns it).
        assert!(
            transfer_msgs >= 14,
            "expected heavy ping-pong, saw {transfer_msgs} messages"
        );
        assert_eq!(c.read_u64(0, 0), 3);
        assert_eq!(c.read_u64(0, 8), 3);
    }

    #[test]
    fn write_upgrade_of_own_read_copy_moves_no_data() {
        let mut c = cluster(2);
        c.write_u64(1, 0, 5);
        assert_eq!(c.read_u64(1, 0), 5);
        // Node 1 owns the page with Read after... it owns Write already.
        // Downgrade by letting node 0 read, then upgrade node 1 again.
        assert_eq!(c.read_u64(0, 0), 5);
        c.write_u64(1, 0, 6);
        assert_eq!(c.read_u64(0, 0), 6);
    }

    #[test]
    fn locks_are_fifo_through_the_manager() {
        let mut c = cluster(3);
        // Lock 1's manager is node 1: it takes the free lock locally.
        assert!(c.try_lock(1, 1));
        assert!(!c.try_lock(2, 1), "queued behind the holder");
        assert!(!c.try_lock(0, 1), "queued behind node 2");
        c.unlock(1, 1);
        assert!(c.node(2).holds(1) && !c.node(0).holds(1));
        c.unlock(2, 1);
        assert!(c.node(0).holds(1));
    }

    #[test]
    fn barrier_completes_for_everyone() {
        let mut c = cluster(3);
        // Barrier 0's manager is node 0.
        assert!(!c.arrive(0, 0));
        assert!(!c.arrive(1, 0));
        // The last arrival completes it at the manager and, by departure,
        // at both other nodes.
        let start = c.node_mut(2).barrier_arrive(0);
        assert!(!start.ready);
        let done = c.route(start.sends);
        assert_eq!(done, [0, 1, 2].map(|q| (q, Action::BarrierDone(0))));
        // Two arrivals in, one departure out to each other node.
        assert_eq!(c.traffic().barrier_msgs, 4);
    }
}
