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

use crate::node::ORIGIN;
use crate::{
    Action, BarrierId, Config, Envelope, FaultStart, Handled, LockId, Msg, NodeId, NodeStats,
    PageId, SharedAddr, StartAcquire, VTime,
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
    data: Vec<Option<Box<[u8]>>>,
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
                let holder = d
                    .holder
                    .map_or("none".to_string(), |h| format!("node {h}"));
                let q: Vec<String> = d.queue.iter().map(|n| n.to_string()).collect();
                parts.push(format!("lock {l}: holder {holder}, queue [{}]", q.join(", ")));
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
            self.data[page] = Some(vec![0u8; self.cfg.page_size].into_boxed_slice());
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

    /// The pages overlapped by `len` bytes at `addr`.
    pub fn pages_in(&self, addr: SharedAddr, len: usize) -> std::ops::Range<PageId> {
        let ps = self.cfg.page_size;
        let first = addr / ps;
        let last = if len == 0 { first } else { (addr + len - 1) / ps };
        first..last + 1
    }

    /// Pre-parallel initialization write by the master (node 0).
    pub fn master_write(&mut self, addr: SharedAddr, bytes: &[u8]) {
        assert_eq!(self.id, ORIGIN, "master_write is only valid on node 0");
        let ps = self.cfg.page_size;
        let mut off = 0;
        while off < bytes.len() {
            let a = addr + off;
            let page = a / ps;
            let in_page = a % ps;
            let chunk = (ps - in_page).min(bytes.len() - off);
            self.ensure_origin_data(page);
            let data = self.data[page].as_mut().expect("origin page materialized");
            data[in_page..in_page + chunk].copy_from_slice(&bytes[off..off + chunk]);
            off += chunk;
        }
    }

    /// Reads shared memory into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if a touched page is not readable (fault first).
    pub fn read_into(&mut self, addr: SharedAddr, buf: &mut [u8]) {
        let ps = self.cfg.page_size;
        let mut off = 0;
        while off < buf.len() {
            let a = addr + off;
            let page = a / ps;
            let in_page = a % ps;
            let chunk = (ps - in_page).min(buf.len() - off);
            self.ensure_origin_data(page);
            assert!(
                self.access[page] != Access::None,
                "read of unreadable page {page} on node {}",
                self.id
            );
            let data = self.data[page].as_ref().expect("readable page has data");
            buf[off..off + chunk].copy_from_slice(&data[in_page..in_page + chunk]);
            off += chunk;
        }
    }

    /// Writes `bytes` to shared memory.
    ///
    /// # Panics
    ///
    /// Panics if a touched page is not writable (fault first).
    pub fn write_from(&mut self, addr: SharedAddr, bytes: &[u8]) {
        let ps = self.cfg.page_size;
        let mut off = 0;
        while off < bytes.len() {
            let a = addr + off;
            let page = a / ps;
            let in_page = a % ps;
            let chunk = (ps - in_page).min(bytes.len() - off);
            self.ensure_origin_data(page);
            assert!(
                self.access[page] == Access::Write,
                "write to non-writable page {page} on node {}",
                self.id
            );
            let data = self.data[page].as_mut().expect("writable page has data");
            data[in_page..in_page + chunk].copy_from_slice(&bytes[off..off + chunk]);
            off += chunk;
        }
    }

    /// Begins resolving an access fault on `page`.
    pub fn fault(&mut self, page: PageId, write: bool) -> FaultStart {
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
            return FaultStart {
                ready: true,
                sends: Vec::new(),
            };
        }
        self.stats.full_page_fetches += 1;
        FaultStart {
            ready: false,
            sends: vec![Envelope {
                from: self.id,
                to: self.manager_of(page),
                msg: Msg::IvyReq {
                    page,
                    requester: self.id,
                    write,
                },
            }],
        }
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    fn lock_manager(&self, lock: LockId) -> NodeId {
        self.cfg.lock_manager(lock)
    }

    /// Begins acquiring `lock`.
    pub fn acquire(&mut self, lock: LockId) -> StartAcquire {
        assert!(!self.holds(lock), "recursive lock acquire of lock {lock}");
        let mgr = self.lock_manager(lock);
        if mgr == self.id {
            let e = self.locks.entry(lock).or_default();
            if e.holder.is_none() {
                e.holder = Some(self.id);
                self.held.push(lock);
                self.stats.local_lock_acquires += 1;
                return StartAcquire::Granted;
            }
        }
        self.stats.remote_lock_acquires += 1;
        StartAcquire::Wait(vec![Envelope {
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
    pub fn barrier_arrive(&mut self, barrier: BarrierId) -> FaultStart {
        self.stats.barriers += 1;
        let mgr = self.cfg.barrier_manager(barrier);
        if mgr == self.id {
            let done = self.record_arrival(barrier, self.id);
            if done {
                let sends = self.depart(barrier);
                FaultStart { ready: true, sends }
            } else {
                FaultStart {
                    ready: false,
                    sends: Vec::new(),
                }
            }
        } else {
            FaultStart {
                ready: false,
                sends: vec![Envelope {
                    from: self.id,
                    to: mgr,
                    msg: Msg::BarrierArrive {
                        barrier,
                        vt: VTime::zero(self.cfg.nodes),
                        intervals: Vec::new(),
                        gc_wanted: false,
                    },
                }],
            }
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

        let data = self.data[page]
            .as_ref()
            .expect("owner holds the page data")
            .to_vec();
        if write {
            // Single writer: we lose the page entirely.
            self.access[page] = Access::None;
            self.data[page] = None;
        } else if self.access[page] == Access::Write {
            self.access[page] = Access::Read;
        }
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

    fn on_send(&mut self, page: PageId, data: Vec<u8>, exclusive: bool) -> Handled {
        self.data[page] = Some(data.into_boxed_slice());
        self.access[page] = if exclusive { Access::Write } else { Access::Read };
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
    use crate::{Cluster, Config, DsmProtocol};

    fn cluster(n: usize) -> Cluster {
        let cfg = Config::new(n).page_size(256).segment_pages(4);
        Cluster::with_protocol(cfg, DsmProtocol::Ivy)
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
        assert!(c.arrive_completing(0, 0).is_empty());
        assert!(c.arrive_completing(1, 0).is_empty());
        // The last arrival completes it at the manager and, by departure,
        // at both other nodes.
        assert_eq!(c.arrive_completing(2, 0), [0, 1, 2]);
        // Two arrivals in, one departure out to each other node.
        assert_eq!(c.traffic().barrier_msgs, 4);
    }
}
