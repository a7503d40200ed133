//! The TreadMarks protocol state machine (one instance per node).
//!
//! `Node` is sans-io: operations return [`Envelope`]s to transmit, and
//! [`Node::handle`] consumes a delivered envelope, returning further
//! envelopes plus [`Action`]s for completed operations. The caller supplies
//! transport and timing (see [`crate::Cluster`], [`crate::runtime`], and the
//! machine models in `tmk-machines`).

use std::sync::Arc;

use crate::interval::IntervalMsg;
use crate::page::{zero_page, FetchState, PageMeta};
use crate::{
    Action, BarrierId, Config, Diff, Envelope, IntMap, IntervalStore, LockId, Msg, NodeId,
    NodeStats, PageId, ReleaseMode, Seq, SharedAddr, VTime,
};

/// The node that provides the initial (base) copy of every page: the master
/// that ran the sequential initialization phase.
pub const ORIGIN: NodeId = 0;

/// Result of starting an operation: a page fault, a lock acquire or a
/// barrier arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Start {
    /// The operation completed immediately; otherwise it completes when a
    /// later [`Node::handle`] produces its [`Action`].
    pub ready: bool,
    /// Messages to transmit, whether or not the operation is ready: a
    /// barrier manager's last arrival completes at once and still sends
    /// the departures.
    pub sends: Vec<Envelope>,
}

impl Start {
    /// Completed at once; `sends` still go out.
    pub fn ready(sends: Vec<Envelope>) -> Start {
        Start { ready: true, sends }
    }

    /// Completes with a later [`Action`], once `sends` are delivered.
    pub fn waiting(sends: Vec<Envelope>) -> Start {
        Start {
            ready: false,
            sends,
        }
    }
}

/// Result of delivering a message to a node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Handled {
    /// Messages to transmit in response.
    pub sends: Vec<Envelope>,
    /// Operations on *this* node that completed.
    pub actions: Vec<Action>,
}

#[derive(Debug, Clone, Default)]
struct LockView {
    have_token: bool,
    held: bool,
    /// Requester (and its vector time) promised the token at our release.
    next: Option<(NodeId, VTime)>,
}

#[derive(Debug, Clone, Default)]
struct BarrierState {
    /// Arrivals recorded at the manager: `(node, arrival vt)`.
    arrivals: Vec<(NodeId, VTime)>,
    /// At least one arriver's metadata reached its GC threshold, so this
    /// barrier piggybacks a garbage collection.
    gc_wanted: bool,
}

/// An in-progress barrier-time garbage collection on this node (from the
/// GC-flagged departure until the local collection runs).
#[derive(Debug, Clone)]
struct GcState {
    /// The barrier the collection is piggybacked on.
    barrier: BarrierId,
    /// Retirement floor: the barrier's departure vector time. Every node's
    /// time equals it once the barrier completes, so all intervals at or
    /// below it are globally known and replayable nowhere else.
    floor: VTime,
    /// Pages the origin is still validating (fetching outstanding diffs
    /// for); zero on non-origin nodes.
    validating: usize,
}

/// A barrier-consistent snapshot of one node's DSM state: page copies,
/// vector time, and the interval store (whose retirement floor *is* the
/// snapshot's consistent cut — the same global state barrier-time GC keys
/// off). Transient synchronization state (lock tokens, queue tails,
/// barrier arrivals) is deliberately excluded: at a completed barrier it
/// is reconstructible, and after a crash the lost tokens are re-minted at
/// their managers ([`crate::Cluster::crash_recover`]).
#[derive(Debug, Clone)]
pub struct NodeCheckpoint {
    vt: VTime,
    store: IntervalStore,
    pages: Vec<PageMeta>,
    dirty: Vec<PageId>,
    last_reported: Seq,
    cached_diff_bytes: u64,
}

impl NodeCheckpoint {
    /// Pages with a resident copy in the snapshot (what a restore of this
    /// node must re-materialize from stable storage).
    pub fn pages_resident(&self) -> u64 {
        self.pages.iter().filter(|p| p.data.is_some()).count() as u64
    }

    /// The snapshot of `page`.
    #[cfg(test)]
    pub(crate) fn page(&self, page: PageId) -> &PageMeta {
        &self.pages[page]
    }
}

/// One node's complete protocol state.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    cfg: Config,
    vt: VTime,
    store: IntervalStore,
    pages: Vec<PageMeta>,
    /// Pages with twins in the currently open interval.
    dirty: Vec<PageId>,
    locks: IntMap<LockId, LockView>,
    /// Manager-side distributed queue tails: last requester per lock.
    mgr_last: IntMap<LockId, NodeId>,
    barriers: IntMap<BarrierId, BarrierState>,
    /// Own interval sequence already reported to barrier managers.
    last_reported: Seq,
    /// In-progress barrier-time garbage collection, if any.
    gc: Option<GcState>,
    /// A `GcDone` that overtook its `BarrierDepart` (possible under
    /// network-fault delays); consumed when the departure arrives.
    pending_gc_done: Option<BarrierId>,
    /// Barrier arrivals that overtook the departure carrying their sender's
    /// previous interval: consecutive barriers have different managers, so
    /// a node's arrival at one can beat the previous barrier's departure to
    /// this manager. Replayed when a departure lands.
    parked_arrivals: Vec<(BarrierId, NodeId, VTime, Vec<IntervalMsg>, bool)>,
    /// Wire bytes of diffs currently cached in `pages[*].my_diffs`
    /// (maintained incrementally; part of the GC trigger and the ledger).
    cached_diff_bytes: u64,
    /// Encoding buffer every diff this node makes is built in before it is
    /// copied out at its exact size.
    diff_scratch: Vec<u8>,
    stats: NodeStats,
}

/// The order in which to apply a fetch's diffs: the happened-before-1
/// partial order of their creating intervals — same-creator diffs by
/// sequence (program order), cross-creator by causality, concurrent ones
/// deterministically by `(node, seq)` — so overlapping writes resolve
/// causally on every node. Sorts `diffs` by `(node, seq)` and returns
/// indices into it.
///
/// An interval's vector time is its causal history, with
/// `vt[node] == seq` (asserted by [`IntervalMsg::new`]), so interval `a`
/// happened before a different creator's `b` iff `b.vt` covers `(a.node,
/// a.seq)`: one comparison instead of a walk over every node. Only each
/// creator's first unapplied diff can be minimal, so a pick tests heads
/// against heads.
fn causal_order(diffs: &mut [(IntervalMsg, Diff)]) -> Vec<usize> {
    diffs.sort_by_key(|(iv, _)| (iv.node(), iv.seq()));
    // One `[next, end)` range per creator: its diffs not yet ordered.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (i, (iv, _)) in diffs.iter().enumerate() {
        match runs.last_mut() {
            Some((_, end)) if diffs[*end - 1].0.node() == iv.node() => *end = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    if runs.len() <= 1 {
        return (0..diffs.len()).collect();
    }
    let head = |&(next, end): &(usize, usize)| (next < end).then(|| &diffs[next].0);
    let mut order = Vec::with_capacity(diffs.len());
    while order.len() < diffs.len() {
        // The first head (smallest node) that no other head happened before.
        let pick = runs
            .iter()
            .position(|r| {
                head(r).is_some_and(|b| {
                    let after =
                        |a: &IntervalMsg| a.node() != b.node() && b.vt()[a.node()] >= a.seq();
                    !runs.iter().filter_map(head).any(after)
                })
            })
            .expect("happened-before-1 is acyclic");
        order.push(runs[pick].0);
        runs[pick].0 += 1;
    }
    order
}

impl Node {
    /// Creates the protocol instance for node `id` of a cluster described by
    /// `cfg`.
    pub fn new(id: NodeId, cfg: Config) -> Node {
        assert!(id < cfg.nodes);
        let n = cfg.nodes;
        Node {
            id,
            vt: VTime::zero(n),
            store: IntervalStore::new(n),
            pages: std::iter::repeat_with(PageMeta::default)
                .take(cfg.segment_pages)
                .collect(),
            dirty: Vec::new(),
            locks: IntMap::default(),
            mgr_last: IntMap::default(),
            barriers: IntMap::default(),
            last_reported: 0,
            gc: None,
            pending_gc_done: None,
            parked_arrivals: Vec::new(),
            cached_diff_bytes: 0,
            diff_scratch: Vec::new(),
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

    /// Current vector time.
    pub fn vt(&self) -> &VTime {
        &self.vt
    }

    /// This node's interval store: every live record in its counts, and
    /// handles to its own records and to other nodes' records above the
    /// last barrier departure it merged.
    pub fn intervals(&self) -> &IntervalStore {
        &self.store
    }

    /// Protocol statistics accumulated so far.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether this node currently holds `lock`.
    pub fn holds(&self, lock: LockId) -> bool {
        self.locks.get(&lock).is_some_and(|v| v.held)
    }

    /// A diagnostic summary of this node's synchronization state: which
    /// lock tokens it holds (and any promised successor), and barrier
    /// arrivals it has collected as a manager. Consumed by the simulator's
    /// deadlock watchdog so a hung run names lock holders instead of just
    /// "blocked".
    pub fn sync_debug(&self) -> String {
        let mut parts = Vec::new();
        let mut locks: Vec<_> = self.locks.iter().collect();
        locks.sort_by_key(|(l, _)| **l);
        for (l, v) in locks {
            if v.have_token || v.held || v.next.is_some() {
                let mut s = format!("lock {l}: token here, held={}", v.held);
                if let Some((next, _)) = &v.next {
                    s.push_str(&format!(", promised to node {next}"));
                }
                parts.push(s);
            }
        }
        let mut barriers: Vec<_> = self.barriers.iter().collect();
        barriers.sort_by_key(|(b, _)| **b);
        for (b, st) in barriers {
            if !st.arrivals.is_empty() {
                let who: Vec<String> = st.arrivals.iter().map(|(n, _)| n.to_string()).collect();
                parts.push(format!("barrier {b}: arrivals [{}]", who.join(", ")));
            }
        }
        if parts.is_empty() {
            "idle".to_string()
        } else {
            parts.join("; ")
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (crash recovery)
    // ------------------------------------------------------------------

    /// Snapshots this node's DSM state at a barrier-consistent cut.
    ///
    /// Call only when the node is quiescent at a completed barrier: no
    /// open interval, no fetch in flight, no GC episode — exactly the
    /// state barrier-time GC already relies on being globally consistent.
    pub fn checkpoint(&self) -> NodeCheckpoint {
        debug_assert!(self.dirty.is_empty(), "checkpoint with an open interval");
        debug_assert!(self.gc.is_none(), "checkpoint during a GC episode");
        debug_assert!(
            self.pages.iter().all(|p| !p.fetching()),
            "checkpoint with a fetch in flight"
        );
        debug_assert!(
            self.parked_arrivals.is_empty(),
            "checkpoint with a parked arrival"
        );
        NodeCheckpoint {
            vt: self.vt.clone(),
            store: self.store.clone(),
            pages: self.pages.clone(),
            dirty: self.dirty.clone(),
            last_reported: self.last_reported,
            cached_diff_bytes: self.cached_diff_bytes,
        }
    }

    /// Rolls this node's DSM state back to `ck` and resets all transient
    /// synchronization state (lock views, manager queue tails, barrier
    /// arrivals, GC progress). Lock tokens re-mint lazily at their managers
    /// on first use after the restore — the same bootstrap rule as cluster
    /// start-up. Statistics are cumulative and are *not* rolled back.
    pub fn restore(&mut self, ck: &NodeCheckpoint) {
        self.vt = ck.vt.clone();
        self.store = ck.store.clone();
        self.pages = ck.pages.clone();
        self.dirty = ck.dirty.clone();
        self.last_reported = ck.last_reported;
        self.cached_diff_bytes = ck.cached_diff_bytes;
        self.locks.clear();
        self.mgr_last.clear();
        self.barriers.clear();
        self.gc = None;
        self.pending_gc_done = None;
        self.parked_arrivals.clear();
        self.ledger_note();
    }

    /// Lock tokens on this node that a crash recovery must re-mint at their
    /// managers: every token resting away from its manager (after a
    /// rollback, survivor metadata alone no longer proves where it is) and,
    /// when this node is the one that `crashed`, everything it held. A
    /// token already at its manager re-bootstraps as-is.
    pub fn forgotten_tokens(&self, crashed: bool) -> u64 {
        self.locks
            .iter()
            .filter(|(&l, v)| v.have_token && (crashed || self.cfg.lock_manager(l) != self.id))
            .count() as u64
    }

    /// This node's state for `page`.
    #[cfg(test)]
    pub(crate) fn page(&self, page: PageId) -> &PageMeta {
        &self.pages[page]
    }

    /// Pages with a resident local copy (valid or awaiting notices).
    pub fn pages_resident(&self) -> u64 {
        self.pages.iter().filter(|p| p.data.is_some()).count() as u64
    }

    fn lock_view(&mut self, lock: LockId) -> &mut LockView {
        let is_mgr = self.cfg.lock_manager(lock) == self.id;
        self.locks.entry(lock).or_insert_with(|| LockView {
            have_token: is_mgr, // tokens start at their managers
            held: false,
            next: None,
        })
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Is the local copy of `page` valid (readable)?
    pub fn page_valid(&self, page: PageId) -> bool {
        self.pages[page].is_valid()
    }

    /// Whether a fault on `page` is still fetching it: a second fault on
    /// the page must wait for that fetch, not start another.
    pub fn fetch_in_flight(&self, page: PageId) -> bool {
        self.pages[page].fetching()
    }

    /// Is `page` writable without a fault?
    ///
    /// TreadMarks write-protects dirty pages when an interval closes, so
    /// the first write of each interval faults (to note the page in the new
    /// interval); a single-node cluster skips all of that.
    pub fn page_writable(&self, page: PageId) -> bool {
        let p = &self.pages[page];
        p.is_valid() && (p.open_dirty || self.cfg.nodes == 1)
    }

    /// The first page, in ascending order, that an access of `len` bytes at
    /// `addr` must [`fault`](Self::fault) on before it can proceed: one that
    /// is not valid, or for a write not writable. `None` when the access can
    /// go ahead.
    pub fn next_fault(&self, addr: SharedAddr, len: usize, write: bool) -> Option<PageId> {
        self.cfg.pages_in(addr, len).find(|&p| {
            if write {
                !self.page_writable(p)
            } else {
                !self.page_valid(p)
            }
        })
    }

    /// Pre-parallel initialization write by the master (node 0). Does not
    /// twin or diff: the data becomes part of every page's base copy.
    ///
    /// # Panics
    ///
    /// Panics if called on a node other than 0 or after intervals exist.
    pub fn master_write(&mut self, addr: SharedAddr, bytes: &[u8]) {
        assert_eq!(self.id, ORIGIN, "master_write is only valid on node 0");
        assert!(
            self.store.is_empty(),
            "master_write is only valid before the parallel phase"
        );
        for (page, in_page, in_buf) in self.cfg.page_pieces(addr, bytes.len()) {
            let data = Arc::make_mut(self.origin_page_data(page));
            data[in_page].copy_from_slice(&bytes[in_buf]);
        }
    }

    fn origin_page_data(&mut self, page: PageId) -> &mut Arc<[u8]> {
        debug_assert_eq!(self.id, ORIGIN);
        let ps = self.cfg.page_size;
        self.pages[page].data.get_or_insert_with(|| zero_page(ps))
    }

    /// Reads shared memory into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if any touched page is invalid — callers must
    /// [`fault`](Self::fault) first.
    pub fn read_into(&self, addr: SharedAddr, buf: &mut [u8]) {
        for (page, in_page, in_buf) in self.cfg.page_pieces(addr, buf.len()) {
            let p = &self.pages[page];
            assert!(
                p.is_valid(),
                "read of invalid page {page} on node {}",
                self.id
            );
            let data = p.data.as_ref().expect("valid page has data");
            buf[in_buf].copy_from_slice(&data[in_page]);
        }
    }

    /// Writes `bytes` to shared memory.
    ///
    /// # Panics
    ///
    /// Panics if any touched page is not writable — callers must
    /// [`fault`](Self::fault) with `write = true` first.
    pub fn write_from(&mut self, addr: SharedAddr, bytes: &[u8]) {
        for (page, in_page, in_buf) in self.cfg.page_pieces(addr, bytes.len()) {
            assert!(
                self.page_writable(page),
                "write to non-writable page {page} on node {}",
                self.id
            );
            let data = self.pages[page].data.as_mut().expect("valid page has data");
            Arc::make_mut(data)[in_page].copy_from_slice(&bytes[in_buf]);
        }
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /// Begins resolving an access fault on `page`.
    ///
    /// Returns immediately-ready when the page can be validated locally
    /// (e.g. only a twin was needed); otherwise the returned envelopes must
    /// be delivered and the fault completes when a [`Action::PageReady`]
    /// is produced.
    pub fn fault(&mut self, page: PageId, write: bool) -> Start {
        if write {
            self.stats.write_faults += 1;
        } else {
            self.stats.read_faults += 1;
        }
        // Origin can always materialize a never-touched page locally.
        if self.id == ORIGIN && self.pages[page].data.is_none() {
            self.origin_page_data(page);
        }
        if self.pages[page].is_valid() {
            if write {
                self.begin_write(page);
            }
            return Start::ready(Vec::new());
        }
        assert!(
            !self.pages[page].fetching(),
            "concurrent faults on page {page}"
        );
        let fetch = FetchState {
            outstanding: 0,
            base: None,
            diffs: Vec::new(),
            copy: None,
            want_write: write,
            gc: false,
        };
        self.pages[page].cold_mut().fetch = Some(Box::new(fetch));
        let sends = self.issue_fetch_requests(page);
        debug_assert!(!sends.is_empty(), "invalid page must need something");
        Start::waiting(sends)
    }

    /// Builds the request set for the current pending state of `page`.
    fn issue_fetch_requests(&mut self, page: PageId) -> Vec<Envelope> {
        let mut sends = Vec::new();
        let me = self.id;
        let p = &self.pages[page];
        let need_base = p.data.is_none();
        let reqs: Vec<(NodeId, Seq, Seq)> = p.fetch_requests().collect();
        if need_base {
            sends.push(Envelope {
                from: me,
                to: ORIGIN,
                msg: Msg::PageReq { page },
            });
            self.stats.full_page_fetches += 1;
        }
        for (q, from, to) in reqs {
            debug_assert_ne!(q, me, "own writes are always applied");
            sends.push(Envelope {
                from: me,
                to: q,
                msg: Msg::DiffReq { page, from, to },
            });
            self.stats.diff_requests += 1;
        }
        let fetch = self.pages[page].fetch_mut().expect("fetch in progress");
        fetch.outstanding += sends.len();
        sends
    }

    /// Notes the first write of the open interval to `page`: twins it if no
    /// twin is live (lazy diffing keeps twins across interval closes, so a
    /// page usually re-enters the dirty set without a new copy). The twin
    /// is a second reference to the copy's buffer; the write that follows
    /// copies the copy, so a fetched page's twin stays its provider's.
    fn begin_write(&mut self, page: PageId) {
        if self.cfg.nodes == 1 {
            return; // no other node can ever need a diff
        }
        let p = &mut self.pages[page];
        if p.open_dirty {
            return;
        }
        p.open_dirty = true;
        self.dirty.push(page);
        let cold = p.cold.get_or_insert_default();
        if cold.twin.is_none() {
            let data = p.data.as_ref().expect("twin of page with data");
            cold.twin = Some(Arc::clone(data));
            self.stats.twins_created += 1;
        }
    }

    /// Attempts to finish an outstanding fetch once all replies arrived.
    fn try_complete_fetch(&mut self, page: PageId) -> Handled {
        let mut out = Handled::default();
        let fetch = self.pages[page].fetch_mut().expect("fetch in progress");
        if fetch.outstanding > 0 {
            return out;
        }
        let want_write = fetch.want_write;
        let was_gc = fetch.gc;
        let base = fetch.base.take();
        let mut diffs = std::mem::take(&mut fetch.diffs);
        let copy = fetch.copy.take();

        if let Some((bytes, version)) = base {
            let p = &mut self.pages[page];
            debug_assert!(p.data.is_none());
            p.data = Some(bytes);
            for (q, &seq) in version.iter().enumerate() {
                p.mark_applied(q, seq);
            }
        }
        for i in causal_order(&mut diffs) {
            let (iv, diff) = &diffs[i];
            let (q, seq) = (iv.node(), iv.seq());
            let p = &mut self.pages[page];
            if seq <= p.applied(q) {
                continue; // subsumed by the base copy
            }
            p.apply_diff(diff);
            p.mark_applied(q, seq);
            self.stats.diffs_applied += 1;
        }

        if self.pages[page].is_valid() {
            let p = &mut self.pages[page];
            p.cold_mut().fetch = None;
            // A writer's copy with exactly these bytes replaces ours, so the
            // two nodes hold one buffer; one that differs is never adopted.
            if copy.is_some() && p.data == copy {
                p.data = copy;
            }
            if was_gc {
                // A GC validation fetch: no processor is blocked on it. When
                // the last one lands, the origin collects and releases the
                // cluster.
                let gs = self.gc.as_mut().expect("GC fetch without a GC");
                gs.validating -= 1;
                if gs.validating == 0 {
                    let barrier = gs.barrier;
                    self.gc_local_collect();
                    out.sends.extend(self.gc_done_broadcast(barrier));
                    out.actions.push(Action::BarrierDone(barrier));
                }
            } else {
                if want_write {
                    self.begin_write(page);
                }
                out.actions.push(Action::PageReady(page));
            }
        } else {
            // New write notices arrived while we were fetching; go again.
            out.sends = self.issue_fetch_requests(page);
        }
        out
    }

    // ------------------------------------------------------------------
    // Intervals
    // ------------------------------------------------------------------

    /// Closes the current interval if any pages are dirty: creates diffs,
    /// drops twins, records the interval, bumps the vector time.
    fn close_interval(&mut self) -> Option<IntervalMsg> {
        if self.dirty.is_empty() {
            return None;
        }
        let seq = self.vt.get(self.id) + 1;
        self.vt.set(self.id, seq);
        for &page in &self.dirty {
            // Lazy diff creation: keep the twin; the diff is materialized
            // at the first remote request (or never, for pages nobody
            // reads — the common case for a partitioned interior).
            let p = &mut self.pages[page];
            debug_assert!(p.open_dirty);
            p.open_dirty = false;
            let cold = p.cold_mut();
            debug_assert!(cold.twin.is_some());
            cold.undiffed.push(seq);
            p.mark_applied(self.id, seq);
        }
        self.stats.intervals_closed += 1;
        // The one record of this interval: the store and every grant,
        // departure and update that carries it share this allocation.
        // `dirty` keeps its capacity for the next interval.
        let msg = IntervalMsg::new(self.id, seq, self.vt.as_ref(), &self.dirty);
        self.dirty.clear();
        self.store.record_own(&msg);
        self.ledger_note();
        Some(msg)
    }

    /// Inserts a received interval, registering its write notices.
    fn integrate_interval(&mut self, msg: &IntervalMsg) {
        if msg.node() == self.id || msg.seq() <= self.store.frontier(msg.node()) {
            return; // own or already known
        }
        self.store.insert(msg);
        for page in msg.pages() {
            self.pages[page].add_notice(msg.node(), msg.seq());
            self.stats.notices_received += 1;
        }
        self.ledger_note();
    }

    /// Merges the vector times of received intervals into our own.
    fn merge_vt_from(&mut self, intervals: &[IntervalMsg]) {
        for m in intervals {
            self.vt.merge(m.vt());
        }
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Begins acquiring `lock`: ready at once when the token is here and
    /// free, else completed by an [`Action::LockGranted`].
    pub fn acquire(&mut self, lock: LockId) -> Start {
        let me = self.id;
        let view = self.lock_view(lock);
        assert!(!view.held, "recursive lock acquire of lock {lock}");
        if view.have_token && view.next.is_none() {
            view.held = true;
            self.stats.local_lock_acquires += 1;
            return Start::ready(Vec::new());
        }
        self.stats.remote_lock_acquires += 1;
        let mgr = self.cfg.lock_manager(lock);
        Start::waiting(vec![Envelope {
            from: me,
            to: mgr,
            msg: Msg::LockReq {
                lock,
                requester: me,
                vt: self.vt.clone(),
            },
        }])
    }

    /// Releases `lock`, possibly granting it onward and (in eager mode)
    /// broadcasting the closed interval's diffs.
    pub fn release(&mut self, lock: LockId) -> Vec<Envelope> {
        self.stats.lock_releases += 1;
        let view = self.locks.get_mut(&lock).expect("release of unheld lock");
        assert!(view.held, "release of unheld lock {lock}");
        view.held = false;
        let next = view.next.take();

        let mut sends = Vec::new();
        if self.cfg.release_mode(lock) == ReleaseMode::Eager {
            sends.extend(self.eager_broadcast());
        }
        if let Some((req, req_vt)) = next {
            sends.extend(self.grant(lock, req, &req_vt));
        }
        sends
    }

    /// Materializes the cumulative diff for `page` if intervals in
    /// `(from, to]` are still undiffed. Returns whether a diff was created.
    ///
    /// The diff covers *all* undiffed intervals; callers ensure the open
    /// interval has not written the page (closing it first if needed), so
    /// a diff never carries writes newer than its assigned interval.
    fn materialize_diffs(&mut self, page: PageId, from: Seq, to: Seq) -> bool {
        let p = &mut self.pages[page];
        let Some(cold) = p.cold.as_mut() else {
            return false;
        };
        let covered = cold.undiffed.iter().any(|&s| s > from && s <= to);
        if !covered {
            return false;
        }
        let seq = *cold.undiffed.last().expect("non-empty undiffed");
        let data = p.data.as_ref().expect("dirty page has data");
        let twin = if p.open_dirty {
            // Re-baseline the twin so the open interval's later writes
            // still diff correctly at its close.
            let old = std::mem::replace(cold.twin.as_mut().expect("twin live"), Arc::clone(data));
            self.stats.twins_created += 1;
            old
        } else {
            cold.twin.take().expect("undiffed page keeps its twin")
        };
        let diff = Diff::compute_with(&mut self.diff_scratch, &twin, data);
        self.stats.diffs_created += 1;
        self.stats.diff_bytes_created += diff.data_bytes() as u64;
        self.cached_diff_bytes += diff.wire_bytes() as u64;
        // `my_diffs_between` binary-searches on this.
        assert!(
            cold.my_diffs.last().is_none_or(|(last, _)| *last < seq),
            "diffs of page {page} must be cached in ascending interval order"
        );
        cold.my_diffs.push((seq, diff));
        cold.undiffed.clear();
        self.ledger_note();
        true
    }

    /// Closes the interval and broadcasts it, diffs included, to all nodes.
    fn eager_broadcast(&mut self) -> Vec<Envelope> {
        let Some(interval) = self.close_interval() else {
            return Vec::new();
        };
        let seq = interval.seq();
        let diffs: Vec<(PageId, Diff)> = interval
            .pages()
            .map(|pg| {
                self.materialize_diffs(pg, seq - 1, seq);
                let d = self.pages[pg]
                    .my_diffs()
                    .iter()
                    .rev()
                    .find(|(s, _)| *s >= seq)
                    .expect("just-materialized diff")
                    .1
                    .clone();
                (pg, d)
            })
            .collect();
        (0..self.cfg.nodes)
            .filter(|&q| q != self.id)
            .map(|q| Envelope {
                from: self.id,
                to: q,
                msg: Msg::Update {
                    interval: interval.clone(),
                    diffs: diffs.clone(),
                },
            })
            .collect()
    }

    /// Transfers the token of `lock` to `req`, with the intervals `req`
    /// lacks.
    fn grant(&mut self, lock: LockId, req: NodeId, req_vt: &VTime) -> Vec<Envelope> {
        self.close_interval();
        let view = self.locks.get_mut(&lock).expect("granting unknown lock");
        debug_assert!(view.have_token && !view.held);
        view.have_token = false;
        let intervals = self.store.between(req_vt, &self.vt);
        vec![Envelope {
            from: self.id,
            to: req,
            msg: Msg::LockGrant { lock, intervals },
        }]
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Arrives at `barrier` (a release point: the interval closes).
    ///
    /// Completes immediately on a single-node cluster or when this arrival
    /// is the last one at the manager; otherwise completes via
    /// [`Action::BarrierDone`].
    pub fn barrier_arrive(&mut self, barrier: BarrierId) -> Start {
        self.close_interval();
        self.stats.barriers += 1;
        let mgr = self.cfg.barrier_manager(barrier);
        // The arriver reports its own intervals not yet shipped to a manager.
        let my_new = self.own_intervals_since(self.last_reported);
        self.last_reported = self.vt.get(self.id);
        // Ask for a piggybacked GC when our metadata reached the threshold.
        let gc_wanted =
            self.cfg.nodes > 1 && self.cfg.gc.is_some_and(|t| self.metadata_bytes() >= t);
        if mgr == self.id {
            let done = self.record_arrival(barrier, self.id, self.vt.clone(), gc_wanted);
            if done {
                let mut sends = Vec::new();
                let ready = self.depart(barrier, &mut sends);
                Start { ready, sends }
            } else {
                Start::waiting(Vec::new())
            }
        } else {
            Start::waiting(vec![Envelope {
                from: self.id,
                to: mgr,
                msg: Msg::BarrierArrive {
                    barrier,
                    vt: self.vt.clone(),
                    intervals: my_new,
                    gc_wanted,
                },
            }])
        }
    }

    fn own_intervals_since(&self, from: Seq) -> Vec<IntervalMsg> {
        let own = |seq| self.store.own(self.id, seq).expect("own interval recorded");
        ((from + 1)..=self.vt.get(self.id))
            .map(|seq| own(seq).clone())
            .collect()
    }

    /// Records an arrival at the manager; true when all nodes have arrived.
    fn record_arrival(
        &mut self,
        barrier: BarrierId,
        node: NodeId,
        vt: VTime,
        gc_wanted: bool,
    ) -> bool {
        let n = self.cfg.nodes;
        let st = self.barriers.entry(barrier).or_default();
        debug_assert!(st.arrivals.iter().all(|&(q, _)| q != node));
        st.arrivals.push((node, vt));
        st.gc_wanted |= gc_wanted;
        st.arrivals.len() == n
    }

    /// Issues departures; returns whether the *manager's own* barrier is
    /// done (true unless a garbage collection was piggybacked — then the
    /// manager, like everyone, completes when the collection does).
    fn depart(&mut self, barrier: BarrierId, sends: &mut Vec<Envelope>) -> bool {
        let st = self.barriers.remove(&barrier).expect("departing barrier");
        let do_gc = st.gc_wanted;
        let mut dvt = self.vt.clone();
        for (_, vt) in &st.arrivals {
            dvt.merge(vt);
        }
        for (node, arrival_vt) in &st.arrivals {
            if *node == self.id {
                continue;
            }
            let intervals = self.store.between(arrival_vt, &dvt);
            sends.push(Envelope {
                from: self.id,
                to: *node,
                msg: Msg::BarrierDepart {
                    barrier,
                    vt: dvt.clone(),
                    intervals,
                    gc: do_gc,
                },
            });
        }
        self.vt.merge(&dvt);
        self.store.forget_below(&dvt, self.id);
        if do_gc {
            self.begin_gc(barrier, dvt, sends)
        } else {
            true
        }
    }

    // ------------------------------------------------------------------
    // Barrier-time garbage collection (Keleher et al., USENIX'94 §GC)
    // ------------------------------------------------------------------

    /// Bytes of consistency metadata resident on this node (live interval
    /// records plus cached diffs) — the quantity the GC threshold bounds.
    pub fn metadata_bytes(&self) -> u64 {
        self.store.approx_bytes() as u64 + self.cached_diff_bytes
    }

    /// Refreshes the memory-ledger gauges and high-water marks. Only active
    /// when GC (or ledger-only tracking) is configured, so reports from
    /// pre-ledger configurations stay byte-identical.
    fn ledger_note(&mut self) {
        if self.cfg.gc.is_none() {
            return;
        }
        let s = &mut self.stats;
        s.live_intervals = self.store.len() as u64;
        s.live_interval_bytes = self.store.approx_bytes() as u64;
        s.cached_diff_bytes = self.cached_diff_bytes;
        s.live_intervals_hw = s.live_intervals_hw.max(s.live_intervals);
        s.live_interval_bytes_hw = s.live_interval_bytes_hw.max(s.live_interval_bytes);
        s.cached_diff_bytes_hw = s.cached_diff_bytes_hw.max(s.cached_diff_bytes);
    }

    /// Starts this node's part of a piggybacked collection with the given
    /// retirement floor. Returns whether the barrier is already complete
    /// for this node (only possible on an origin with nothing to validate).
    ///
    /// The origin first *validates* its copies — fetches every diff its
    /// pages are still missing — because it serves all post-GC full-page
    /// fetches and the diffs that would otherwise bring a stale copy
    /// current are about to be retired cluster-wide. Everyone else waits
    /// for the origin's [`Msg::GcDone`].
    fn begin_gc(&mut self, barrier: BarrierId, floor: VTime, sends: &mut Vec<Envelope>) -> bool {
        debug_assert!(self.gc.is_none(), "overlapping GC episodes");
        debug_assert_eq!(self.vt, floor, "GC floor must be the departure time");
        self.gc = Some(GcState {
            barrier,
            floor,
            validating: 0,
        });
        if self.id != ORIGIN {
            return false;
        }
        let mut validating = 0;
        for page in 0..self.cfg.segment_pages {
            if !self.pages[page].has_pending() {
                continue;
            }
            // A never-touched origin page still starts from the zero base.
            self.origin_page_data(page);
            debug_assert!(!self.pages[page].fetching(), "GC with a fault in flight");
            self.pages[page].cold_mut().fetch = Some(Box::new(FetchState {
                outstanding: 0,
                base: None,
                diffs: Vec::new(),
                copy: None,
                want_write: false,
                gc: true,
            }));
            let reqs = self.issue_fetch_requests(page);
            debug_assert!(!reqs.is_empty(), "pending page must need diffs");
            sends.extend(reqs);
            self.stats.gc_pages_validated += 1;
            validating += 1;
        }
        if validating == 0 {
            self.gc_local_collect();
            sends.extend(self.gc_done_broadcast(barrier));
            return true;
        }
        self.gc.as_mut().expect("just set").validating = validating;
        false
    }

    /// The origin's end-of-validation broadcast.
    fn gc_done_broadcast(&self, barrier: BarrierId) -> Vec<Envelope> {
        debug_assert_eq!(self.id, ORIGIN);
        (0..self.cfg.nodes)
            .filter(|&q| q != self.id)
            .map(|q| Envelope {
                from: self.id,
                to: q,
                msg: Msg::GcDone { barrier },
            })
            .collect()
    }

    /// Retires everything at or below the floor: interval records, cached
    /// diffs, twins, and page copies that still awaited retired diffs
    /// (validated origin copies are current and stay).
    fn gc_local_collect(&mut self) {
        let gc = self.gc.take().expect("collection without a GC in progress");
        let me = self.id;
        let (records, _) = self.store.retire_below(&gc.floor);
        self.stats.gc_collections += 1;
        self.stats.gc_intervals_retired += records;
        for p in &mut self.pages {
            debug_assert!(!p.open_dirty, "GC with an open write interval");
            debug_assert!(!p.fetching(), "GC with a fetch in flight");
            // Every cached diff describes a now-retired interval: no
            // correct request can ask for it again. Undiffed own intervals
            // are retired too; with no open writes the twin's only purpose
            // was to serve them. So the whole cold part goes.
            for (s, d) in p.cold.take().map(|c| c.my_diffs).unwrap_or_default() {
                debug_assert!(s <= gc.floor.get(me), "diff above the GC floor");
                let b = d.wire_bytes() as u64;
                self.stats.gc_diffs_retired += 1;
                self.stats.gc_diff_bytes_retired += b;
                self.cached_diff_bytes -= b;
            }
            // A copy still awaiting retired diffs can never be brought
            // current: drop it, so the next fault fetches a whole page from
            // the validated origin.
            if p.has_pending() {
                debug_assert_ne!(me, ORIGIN, "origin pages are validated before GC");
                debug_assert!(p
                    .writers()
                    .iter()
                    .all(|w| w.notice <= w.applied.max(gc.floor.get(w.node as NodeId))));
                if p.data.take().is_some() {
                    self.stats.gc_pages_dropped += 1;
                }
                p.clear_pending();
            }
        }
        self.ledger_note();
    }

    /// The origin finished validating: run our local collection and
    /// complete the barrier.
    fn on_gc_done(&mut self, barrier: BarrierId) -> Handled {
        let Some(gc) = self.gc.as_ref() else {
            // The departure carrying the GC flag is still in flight (a
            // delayed message overtaken by the origin's broadcast); note
            // the completion for when it lands.
            debug_assert!(self.pending_gc_done.is_none());
            self.pending_gc_done = Some(barrier);
            return Handled::default();
        };
        debug_assert_eq!(gc.barrier, barrier);
        debug_assert_ne!(self.id, ORIGIN, "the origin completes via validation");
        self.gc_local_collect();
        Handled {
            sends: Vec::new(),
            actions: vec![Action::BarrierDone(barrier)],
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Delivers one protocol message to this node.
    pub fn handle(&mut self, env: Envelope) -> Handled {
        debug_assert_eq!(env.to, self.id);
        let from = env.from;
        match env.msg {
            Msg::LockReq {
                lock,
                requester,
                vt,
            } => self.on_lock_req(lock, requester, vt),
            Msg::LockForward {
                lock,
                requester,
                vt,
            } => self.on_lock_forward(lock, requester, vt),
            Msg::LockGrant { lock, intervals } => self.on_lock_grant(lock, intervals),
            Msg::BarrierArrive {
                barrier,
                vt,
                intervals,
                gc_wanted,
            } => self.on_barrier_arrive(barrier, from, vt, intervals, gc_wanted),
            Msg::BarrierDepart {
                barrier,
                vt,
                intervals,
                gc,
            } => self.on_barrier_depart(barrier, vt, intervals, gc),
            Msg::GcDone { barrier } => self.on_gc_done(barrier),
            Msg::PageReq { page } => self.on_page_req(page, from),
            Msg::PageReply {
                page,
                data,
                version,
            } => self.on_page_reply(page, data, version),
            Msg::DiffReq { page, from: lo, to } => self.on_diff_req(page, from, lo, to),
            Msg::DiffReply { page, diffs, copy } => self.on_diff_reply(page, from, diffs, copy),
            Msg::Update { interval, diffs } => self.on_update(interval, diffs),
            other @ (Msg::IvyReq { .. }
            | Msg::IvyFwd { .. }
            | Msg::IvySend { .. }
            | Msg::IvyInvalidate { .. }
            | Msg::IvyRelease { .. }) => {
                panic!("TreadMarks node received an IVY message: {other:?}")
            }
        }
    }

    fn on_lock_req(&mut self, lock: LockId, requester: NodeId, vt: VTime) -> Handled {
        debug_assert_eq!(self.cfg.lock_manager(lock), self.id);
        let mgr = self.id;
        let prev = self.mgr_last.insert(lock, requester).unwrap_or(mgr);
        if prev == self.id {
            // We are (or will be) the holder at the tail of the queue.
            self.on_lock_forward(lock, requester, vt)
        } else {
            Handled {
                sends: vec![Envelope {
                    from: self.id,
                    to: prev,
                    msg: Msg::LockForward {
                        lock,
                        requester,
                        vt,
                    },
                }],
                actions: Vec::new(),
            }
        }
    }

    fn on_lock_forward(&mut self, lock: LockId, requester: NodeId, vt: VTime) -> Handled {
        let can_grant = {
            let view = self.lock_view(lock);
            view.have_token && !view.held
        };
        if can_grant {
            debug_assert!(self.locks[&lock].next.is_none());
            Handled {
                sends: self.grant(lock, requester, &vt),
                actions: Vec::new(),
            }
        } else {
            let view = self.lock_view(lock);
            assert!(
                view.next.is_none(),
                "distributed queue gave node {} two successors for lock {lock}",
                self.id
            );
            view.next = Some((requester, vt));
            Handled::default()
        }
    }

    fn on_lock_grant(&mut self, lock: LockId, intervals: Vec<IntervalMsg>) -> Handled {
        for m in &intervals {
            self.integrate_interval(m);
        }
        self.merge_vt_from(&intervals);
        let view = self.lock_view(lock);
        view.have_token = true;
        view.held = true;
        Handled {
            sends: Vec::new(),
            actions: vec![Action::LockGranted(lock)],
        }
    }

    fn on_barrier_arrive(
        &mut self,
        barrier: BarrierId,
        from: NodeId,
        vt: VTime,
        intervals: Vec<IntervalMsg>,
        gc_wanted: bool,
    ) -> Handled {
        debug_assert_eq!(self.cfg.barrier_manager(barrier), self.id);
        if intervals
            .first()
            .is_some_and(|m| m.seq() > self.store.frontier(from) + 1)
        {
            // The interval before these is still on its way in another
            // barrier's departure: integrate the arrival once it lands.
            self.parked_arrivals
                .push((barrier, from, vt, intervals, gc_wanted));
            return Handled::default();
        }
        for m in &intervals {
            self.integrate_interval(m);
        }
        let all_in = self.record_arrival(barrier, from, vt, gc_wanted);
        let mut out = Handled::default();
        if all_in && self.depart(barrier, &mut out.sends) {
            out.actions.push(Action::BarrierDone(barrier));
        }
        out
    }

    fn on_barrier_depart(
        &mut self,
        barrier: BarrierId,
        vt: VTime,
        intervals: Vec<IntervalMsg>,
        gc: bool,
    ) -> Handled {
        for m in &intervals {
            self.integrate_interval(m);
        }
        self.vt.merge(&vt);
        self.store.forget_below(&vt, self.id);
        let mut out = Handled::default();
        for (b, from, vt, ivs, gc_wanted) in std::mem::take(&mut self.parked_arrivals) {
            let h = self.on_barrier_arrive(b, from, vt, ivs, gc_wanted);
            out.sends.extend(h.sends);
            out.actions.extend(h.actions);
        }
        if !gc {
            out.actions.push(Action::BarrierDone(barrier));
            return out;
        }
        let mut done = self.begin_gc(barrier, vt, &mut out.sends);
        if !done {
            if let Some(b) = self.pending_gc_done.take() {
                // The origin's GcDone overtook this departure.
                debug_assert_eq!(b, barrier);
                self.gc_local_collect();
                done = true;
            }
        }
        if done {
            out.actions.push(Action::BarrierDone(barrier));
        }
        out
    }

    fn on_page_req(&mut self, page: PageId, from: NodeId) -> Handled {
        if self.id == ORIGIN {
            self.origin_page_data(page);
        }
        let p = &self.pages[page];
        let data = Arc::clone(
            p.data
                .as_ref()
                .expect("page request sent to a node without a copy"),
        );
        let version = p.version(self.cfg.nodes);
        Handled {
            sends: vec![Envelope {
                from: self.id,
                to: from,
                msg: Msg::PageReply {
                    page,
                    data,
                    version,
                },
            }],
            actions: Vec::new(),
        }
    }

    fn on_page_reply(&mut self, page: PageId, data: Arc<[u8]>, version: Vec<Seq>) -> Handled {
        {
            let fetch = self.pages[page]
                .fetch_mut()
                .expect("unsolicited page reply");
            debug_assert!(fetch.base.is_none());
            fetch.base = Some((data, version));
            fetch.outstanding -= 1;
        }
        self.try_complete_fetch(page)
    }

    fn on_diff_req(&mut self, page: PageId, from: NodeId, lo: Seq, hi: Seq) -> Handled {
        // If the open interval already wrote this page, close it before
        // materializing: the diff then carries a vector time that dominates
        // everything those writes causally depend on. (Leaking open writes
        // into a diff stamped with an *older* interval would let a
        // concurrent node's diff clobber them at the requester.)
        if self.pages[page].open_dirty {
            self.close_interval();
        }
        self.materialize_diffs(page, lo, hi);
        let diffs = self.pages[page]
            .my_diffs_between(lo, hi)
            .iter()
            .map(|(s, d)| {
                let own = self.store.own(self.id, *s).expect("own interval recorded");
                (own.clone(), d.clone())
            })
            .collect();
        // A request served while a collection is in flight is the origin
        // validating its copies. Every served diff at or below the floor is
        // about to be retired cluster-wide — caching it until `GcDone`
        // would spike the very footprint the collector exists to bound, so
        // retire it on the spot.
        let floor = self.gc.as_ref().map(|g| g.floor.get(self.id));
        if let (Some(floor), Some(cold)) = (floor, self.pages[page].cold.as_mut()) {
            let (mut retired, mut freed) = (0u64, 0u64);
            cold.my_diffs.retain(|(s, d)| {
                if *s <= floor {
                    retired += 1;
                    freed += d.wire_bytes() as u64;
                    false
                } else {
                    true
                }
            });
            if retired > 0 {
                self.cached_diff_bytes -= freed;
                self.stats.gc_diffs_retired += retired;
                self.stats.gc_diff_bytes_retired += freed;
                self.ledger_note();
            }
        }
        // The origin validating its copy may keep ours: no node writes
        // until `GcDone`, and a later write copies the buffer first.
        let p = &self.pages[page];
        let copy = if self.gc.is_some() && p.is_valid() {
            p.data.clone()
        } else {
            None
        };
        Handled {
            sends: vec![Envelope {
                from: self.id,
                to: from,
                msg: Msg::DiffReply { page, diffs, copy },
            }],
            actions: Vec::new(),
        }
    }

    fn on_diff_reply(
        &mut self,
        page: PageId,
        from: NodeId,
        diffs: Vec<(IntervalMsg, Diff)>,
        copy: Option<Arc<[u8]>>,
    ) -> Handled {
        {
            let fetch = self.pages[page]
                .fetch_mut()
                .expect("unsolicited diff reply");
            debug_assert!(diffs.iter().all(|(iv, _)| iv.node() == from));
            fetch.diffs.extend(diffs);
            if copy.is_some() {
                fetch.copy = copy;
            }
            fetch.outstanding -= 1;
        }
        self.try_complete_fetch(page)
    }

    /// Eager-release update: pure data-plane push. Applies each diff when it
    /// is the next one in its writer's sequence for a locally present page
    /// *and* everything the writer had seen is already applied here (the
    /// interval's vector time is covered) — otherwise a later fetch of a
    /// causally-older diff could regress the eagerly-applied words. Unsafe
    /// updates degrade to write notices for a later fault to resolve.
    fn on_update(&mut self, interval: IntervalMsg, diffs: Vec<(PageId, Diff)>) -> Handled {
        let writer = interval.node();
        let seq = interval.seq();
        if seq <= self.store.floor(writer) {
            // The interval was retired by a GC that overtook this update
            // (delayed delivery): every surviving copy already reflects it,
            // and its diffs can no longer be re-fetched. Drop it.
            return Handled::default();
        }
        for (page, diff) in diffs {
            let p = &mut self.pages[page];
            let in_order = p.applied(writer) + 1 == seq;
            let causally_ready = interval
                .vt()
                .iter()
                .enumerate()
                .all(|(q, &s)| q == writer || p.applied(q) >= s);
            let fetching = p.fetching();
            if p.is_valid() && in_order && causally_ready && !fetching {
                p.apply_diff(&diff);
                p.mark_applied(writer, seq);
                self.stats.diffs_applied += 1;
            } else {
                p.add_notice(writer, seq);
                self.stats.notices_received += 1;
            }
        }
        Handled::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selection [`causal_order`] replaced, kept as the reference: per-creator
    /// queues, and a head is minimal unless another head's whole vector time is
    /// strictly below its own. Returns the `(node, seq)` order it applies.
    fn causal_order_by_vectors(diffs: &[(IntervalMsg, Diff)]) -> Vec<(NodeId, Seq)> {
        use std::collections::VecDeque;
        let mut by_node: Vec<(NodeId, VecDeque<IntervalMsg>)> = Vec::new();
        for (iv, _) in diffs {
            match by_node.iter_mut().find(|(q, _)| *q == iv.node()) {
                Some((_, v)) => v.push_back(iv.clone()),
                None => by_node.push((iv.node(), VecDeque::from([iv.clone()]))),
            }
        }
        for (_, v) in &mut by_node {
            v.make_contiguous().sort_by_key(IntervalMsg::seq);
        }
        by_node.sort_by_key(|(n, _)| *n);
        let lt = |a: &[Seq], b: &[Seq]| a.iter().zip(b).all(|(x, y)| x <= y) && a != b;
        let mut out = Vec::new();
        loop {
            let mut pick: Option<usize> = None;
            for i in 0..by_node.len() {
                let Some(vi) = by_node[i].1.front().map(IntervalMsg::vt) else {
                    continue;
                };
                let minimal = by_node
                    .iter()
                    .enumerate()
                    .all(|(j, (_, q))| i == j || q.front().is_none_or(|b| !lt(b.vt(), vi)));
                if minimal {
                    pick = Some(i);
                    break;
                }
            }
            let Some(i) = pick else { break };
            let head = by_node[i].1.pop_front().expect("head exists");
            out.push((head.node(), head.seq()));
        }
        out
    }

    /// Every interval closed by a random history of `nodes` nodes that close
    /// intervals and pass their vector times on (`(a, b)` steps: node `a`
    /// closes an interval, then node `b` learns everything `a` knows) —
    /// exactly how a lock grant or barrier moves causality.
    fn causal_history(nodes: usize, steps: &[(usize, usize)]) -> Vec<IntervalMsg> {
        let mut vts = vec![VTime::zero(nodes); nodes];
        let mut out = Vec::new();
        for &(a, b) in steps {
            let (a, b) = (a % nodes, b % nodes);
            let seq = vts[a].get(a) + 1;
            vts[a].set(a, seq);
            out.push(IntervalMsg::new(a, seq, vts[a].as_ref(), &[]));
            let known = vts[a].clone();
            vts[b].merge(&known);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The one-entry happened-before test orders a fetch's diffs exactly
        /// as the whole-vector comparison did, for any subset of a causal
        /// history arriving in any order.
        #[test]
        fn causal_order_matches_the_vector_comparison(
            nodes in 2usize..6,
            steps in proptest::collection::vec((0usize..6, 0usize..6), 1..40),
            picks in proptest::collection::vec(any::<bool>(), 40),
            rotate in 0usize..40,
        ) {
            let history = causal_history(nodes, &steps);
            let mut diffs: Vec<(IntervalMsg, Diff)> = history
                .into_iter()
                .zip(&picks)
                .filter(|(_, &keep)| keep)
                .map(|(iv, _)| (iv, Diff::default()))
                .collect();
            if !diffs.is_empty() {
                let by = rotate % diffs.len();
                diffs.rotate_left(by);
                diffs.reverse();
            }
            let want = causal_order_by_vectors(&diffs);
            let order = causal_order(&mut diffs);
            let got: Vec<(NodeId, Seq)> =
                order.iter().map(|&i| (diffs[i].0.node(), diffs[i].0.seq())).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Writes one `u64` on `node`, whose copy of the page must be valid.
    fn write_local(node: &mut Node, addr: SharedAddr, v: u64) {
        let page = addr / node.config().page_size;
        if !node.page_writable(page) {
            assert!(node.fault(page, true).ready, "page {page} is valid here");
        }
        node.write_from(addr, &v.to_le_bytes());
    }

    /// Delivers `env` to its destination and returns what that produced.
    fn deliver(nodes: &mut [Node], env: Envelope) -> Handled {
        let to = env.to;
        nodes[to].handle(env)
    }

    /// The `u64` at `addr` in `node`'s valid copy.
    fn read_u64(node: &Node, addr: SharedAddr) -> u64 {
        let mut b = [0u8; 8];
        node.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// The one message in `sends` addressed to `to`.
    fn to_node(sends: &[Envelope], to: NodeId) -> Envelope {
        let mut it = sends.iter().filter(|e| e.to == to);
        let env = it.next().expect("a message for the node").clone();
        assert!(it.next().is_none(), "one message for node {to}");
        env
    }

    /// A page reply hands the fetcher the origin's buffer itself. The
    /// fetcher's first write copies its own copy, not the twin it just
    /// took, so the twin stays the origin's buffer and the origin's bytes
    /// never see the write.
    #[test]
    fn a_fetched_page_is_the_providers_buffer_until_written() {
        use crate::page::same_buffer;

        let cfg = Config::new(2).segment_pages(4);
        let mut nodes: Vec<Node> = (0..2).map(|i| Node::new(i, cfg.clone())).collect();
        nodes[ORIGIN].master_write(0, &7u64.to_le_bytes());
        let start = nodes[1].fault(0, false);
        assert!(!start.ready);
        let reply = deliver(&mut nodes, to_node(&start.sends, ORIGIN));
        let done = deliver(&mut nodes, to_node(&reply.sends, 1));
        assert_eq!(done.actions, vec![Action::PageReady(0)]);
        let origin = nodes[ORIGIN].page(0).data.as_ref();
        assert!(same_buffer(nodes[1].page(0).data.as_ref(), origin));

        write_local(&mut nodes[1], 8, 9);
        let (fetched, origin) = (nodes[1].page(0), nodes[ORIGIN].page(0).data.as_ref());
        assert!(same_buffer(fetched.twin(), origin), "the twin was copied");
        assert!(
            !same_buffer(fetched.data.as_ref(), origin),
            "written in place"
        );
        assert_eq!(
            (read_u64(&nodes[ORIGIN], 0), read_u64(&nodes[ORIGIN], 8)),
            (7, 0)
        );
        assert_eq!((read_u64(&nodes[1], 0), read_u64(&nodes[1], 8)), (7, 9));
    }

    /// Node 1 fetches page 0 from the origin and writes its second word;
    /// then both nodes arrive at barrier 0, which the origin manages.
    /// Returns the origin's arrival.
    fn node1_writes_then_both_arrive(nodes: &mut [Node]) -> Start {
        nodes[ORIGIN].master_write(0, &7u64.to_le_bytes());
        let start = nodes[1].fault(0, true);
        let reply = deliver(nodes, to_node(&start.sends, ORIGIN));
        assert_eq!(
            deliver(nodes, to_node(&reply.sends, 1)).actions,
            vec![Action::PageReady(0)]
        );
        nodes[1].write_from(8, &9u64.to_le_bytes());
        let a1 = nodes[1].barrier_arrive(0);
        assert!(deliver(nodes, to_node(&a1.sends, ORIGIN))
            .actions
            .is_empty());
        nodes[ORIGIN].barrier_arrive(0)
    }

    /// The origin validates node 1's page at a collection. Node 1's reply
    /// carries its copy; one byte of it is changed on the way. The origin
    /// keeps the bytes it computed from the diff, in its own buffer.
    #[test]
    fn a_gc_copy_that_differs_from_the_validated_page_is_not_adopted() {
        use crate::page::same_buffer;

        let cfg = Config::new(2).segment_pages(4).gc(0);
        let mut nodes: Vec<Node> = (0..2).map(|i| Node::new(i, cfg.clone())).collect();
        let a0 = node1_writes_then_both_arrive(&mut nodes);
        assert!(
            !a0.ready,
            "the origin validates before the barrier completes"
        );
        let [depart, req] = &a0.sends[..] else {
            panic!("a departure and a diff request: {:?}", a0.sends)
        };
        assert!(matches!(depart.msg, Msg::BarrierDepart { gc: true, .. }));
        assert!(deliver(&mut nodes, depart.clone()).actions.is_empty());
        let mut reply = to_node(&deliver(&mut nodes, req.clone()).sends, ORIGIN);
        let Msg::DiffReply {
            copy: Some(copy), ..
        } = &mut reply.msg
        else {
            panic!("a GC diff reply carries the writer's copy: {reply:?}")
        };
        assert!(same_buffer(Some(&*copy), nodes[1].page(0).data.as_ref()));
        let mut bytes = copy.to_vec();
        bytes[100] ^= 1;
        let tampered: Arc<[u8]> = bytes.into();
        *copy = Arc::clone(&tampered);

        let done = deliver(&mut nodes, reply);
        assert_eq!(done.actions, vec![Action::BarrierDone(0)]);
        let mine = nodes[ORIGIN].page(0).data.as_ref();
        assert!(
            !same_buffer(mine, Some(&tampered)),
            "adopted a copy that differs"
        );
        assert!(!same_buffer(mine, nodes[1].page(0).data.as_ref()));
        assert_eq!(
            mine,
            nodes[1].page(0).data.as_ref(),
            "the origin's bytes moved"
        );
        let gc_done = deliver(&mut nodes, to_node(&done.sends, 1));
        assert_eq!(gc_done.actions, vec![Action::BarrierDone(0)]);
        for node in &nodes {
            assert_eq!((read_u64(node, 0), read_u64(node, 8)), (7, 9));
        }
    }

    /// Outside a collection no diff reply carries a copy, even from a
    /// writer whose copy is valid.
    #[test]
    fn a_diff_reply_outside_gc_carries_no_copy() {
        let cfg = Config::new(2).segment_pages(4);
        let mut nodes: Vec<Node> = (0..2).map(|i| Node::new(i, cfg.clone())).collect();
        let a0 = node1_writes_then_both_arrive(&mut nodes);
        assert!(a0.ready);
        let done = deliver(&mut nodes, to_node(&a0.sends, 1));
        assert_eq!(done.actions, vec![Action::BarrierDone(0)]);
        assert!(nodes[1].page_valid(0));

        let start = nodes[ORIGIN].fault(0, false);
        let reply = to_node(&deliver(&mut nodes, to_node(&start.sends, 1)).sends, ORIGIN);
        assert!(
            matches!(reply.msg, Msg::DiffReply { copy: None, .. }),
            "{reply:?}"
        );
        deliver(&mut nodes, reply);
        assert_eq!(read_u64(&nodes[ORIGIN], 8), 9);
    }

    /// The lock and barrier tables hash with a fixed function, so nothing a
    /// node reports may depend on the order their entries went in.
    #[test]
    fn reports_do_not_depend_on_map_insertion_order() {
        let build = |locks: &[LockId], barriers: &[BarrierId]| {
            let mut node = Node::new(0, Config::new(4).segment_pages(4));
            for &lock in locks {
                // Locks 0, 4, 8, ... are managed here and granted at once.
                if node.acquire(lock).ready && lock % 8 == 0 {
                    node.release(lock);
                }
            }
            for &barrier in barriers {
                node.handle(Envelope {
                    from: 1 + barrier % 3,
                    to: 0,
                    msg: Msg::BarrierArrive {
                        barrier,
                        vt: VTime::zero(4),
                        intervals: Vec::new(),
                        gc_wanted: false,
                    },
                });
            }
            (
                node.sync_debug(),
                node.forgotten_tokens(false),
                node.forgotten_tokens(true),
                format!("{:?}", node.checkpoint()),
            )
        };
        let locks: Vec<LockId> = (0..40).collect();
        let barriers: Vec<BarrierId> = (0..24).step_by(4).collect();
        let forward = build(&locks, &barriers);
        let (mut rl, mut rb) = (locks.clone(), barriers.clone());
        rl.reverse();
        rb.reverse();
        assert_eq!(forward, build(&rl, &rb));
        // An interleaving that grows the tables at different moments.
        let (evens, odds): (Vec<LockId>, Vec<LockId>) = locks.iter().partition(|&&l| l % 2 == 0);
        assert_eq!(forward, build(&[odds, evens].concat(), &rb));
        assert!(
            forward.0.contains("lock 4: token here, held=true"),
            "{}",
            forward.0
        );
        assert_eq!((forward.1, forward.2), (0, 10));
    }
}
