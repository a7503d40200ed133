//! Interval records: the units of the happened-before-1 partial order.
//!
//! A node's execution is divided into *intervals*, delimited by releases
//! (lock releases and barrier arrivals). Each interval carries the set of
//! pages the node dirtied during it — the *write notices* — plus the vector
//! time at which it closed. A node's interval store holds every interval it
//! has learned about, from any node, until barrier-time garbage collection
//! retires the prefix every node's vector time dominates.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::{NodeId, PageId, Seq, VTime};

/// An interval as transmitted on the wire (inside lock grants and barrier
/// messages) and as held in every node's [`IntervalStore`].
///
/// A cheap handle to one immutable [`IntervalData`] built when the interval
/// closes: the host keeps a single record per interval however many stores
/// and in-flight messages name it. The *simulated* nodes each hold their own
/// copy, which is what [`wire_bytes`](Self::wire_bytes) and the
/// store's byte accounting keep charging.
#[derive(Clone, PartialEq, Eq)]
pub struct IntervalMsg(Arc<IntervalData>);

/// The contents of an [`IntervalMsg`].
#[derive(PartialEq, Eq)]
pub struct IntervalData {
    /// The node that executed the interval.
    pub node: NodeId,
    /// Its 1-based sequence number within that node.
    pub seq: Seq,
    /// The creator's vector time when the interval closed (with
    /// `vt.get(node) == seq`).
    pub vt: VTime,
    /// Pages dirtied during the interval (the write notices), ascending.
    pub pages: Vec<PageId>,
    /// Cached count of maximal consecutive-page runs in `pages`, computed
    /// once at construction: `wire_bytes` is consulted per hop on hot
    /// paths, so the run-length scan must not repeat per call.
    runs: usize,
}

impl IntervalMsg {
    /// Builds an interval message, sorting the write notices and counting
    /// their consecutive runs once.
    ///
    /// `vt` must be the interval's causal history, stamped with its own
    /// position (`vt.get(node) == seq`): ordering fetched diffs relies on
    /// it.
    pub fn new(node: NodeId, seq: Seq, vt: VTime, mut pages: Vec<PageId>) -> Self {
        debug_assert_eq!(vt.get(node), seq, "vt names its own seq");
        pages.sort_unstable();
        let runs = count_runs(&pages);
        IntervalMsg(Arc::new(IntervalData {
            node,
            seq,
            vt,
            pages,
            runs,
        }))
    }

    /// Whether two handles name the same host allocation.
    pub fn ptr_eq(a: &IntervalMsg, b: &IntervalMsg) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Wire size: ids + vector time + run-length-encoded write notices
    /// (consecutive page numbers collapse to `(start, len)` pairs, the
    /// natural encoding for band-partitioned applications like SOR).
    pub fn wire_bytes(&self) -> usize {
        8 + self.vt.wire_bytes() + 8 * self.notice_runs()
    }

    /// Number of maximal runs of consecutive page ids (cached).
    pub fn notice_runs(&self) -> usize {
        self.runs
    }
}

impl Deref for IntervalMsg {
    type Target = IntervalData;

    fn deref(&self) -> &IntervalData {
        &self.0
    }
}

/// Prints the record's fields directly, so message dumps do not grow a
/// wrapper layer.
impl fmt::Debug for IntervalMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntervalMsg")
            .field("node", &self.node)
            .field("seq", &self.seq)
            .field("vt", &self.vt)
            .field("pages", &self.pages)
            .field("runs", &self.runs)
            .finish()
    }
}

/// Counts maximal runs of consecutive page ids in an ascending slice.
fn count_runs(sorted: &[PageId]) -> usize {
    let mut runs = 0;
    let mut prev: Option<PageId> = None;
    for &p in sorted {
        if prev != Some(p.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(p);
    }
    runs
}

/// Modelled resident size of one node's copy of an interval record.
fn rec_bytes(rec: &IntervalData) -> usize {
    16 + rec.vt.wire_bytes() + rec.pages.len() * 8
}

/// All intervals a node knows about, indexed by `(creator, seq)`.
///
/// Per creator, intervals are stored densely above a garbage-collection
/// floor: position `i` holds sequence number `retired + i + 1`. Lazy release
/// consistency guarantees intervals are learned contiguously (a grant or
/// barrier departure carries exactly the gap between two vector times),
/// which [`insert`](Self::insert) asserts. [`retire_below`](Self::retire_below)
/// advances the floor at barrier-time GC.
#[derive(Debug, Clone, Default)]
pub struct IntervalStore {
    by_node: Vec<Vec<IntervalMsg>>,
    /// Per creator: highest retired sequence (records `<= retired[q]` are
    /// gone; lookups below the floor return `None`).
    retired: Vec<Seq>,
    /// Approximate resident bytes of the live records as the simulated node
    /// holds them (its own full copy of each, although the host shares
    /// them), maintained incrementally for the memory ledger and the GC
    /// trigger.
    bytes: usize,
    /// Live records across all creators, maintained with `bytes`.
    live: usize,
}

impl IntervalStore {
    /// An empty store for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        IntervalStore {
            by_node: vec![Vec::new(); n],
            retired: vec![0; n],
            bytes: 0,
            live: 0,
        }
    }

    /// Highest sequence number known for `node` (0 when none).
    pub fn frontier(&self, node: NodeId) -> Seq {
        self.retired[node] + self.by_node[node].len() as Seq
    }

    /// Highest retired (garbage-collected) sequence for `node`.
    pub fn floor(&self, node: NodeId) -> Seq {
        self.retired[node]
    }

    /// Looks up interval `(node, seq)`. Returns `None` below the GC floor.
    pub fn get(&self, node: NodeId, seq: Seq) -> Option<&IntervalMsg> {
        debug_assert!(seq >= 1);
        if seq <= self.retired[node] {
            return None;
        }
        self.by_node[node].get((seq - self.retired[node]) as usize - 1)
    }

    /// Records an interval learned from the wire (idempotent: re-delivery of
    /// a known interval is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the interval would leave a gap in its creator's sequence —
    /// that indicates a protocol bug, since LRC transmits interval ranges
    /// contiguously.
    pub fn insert(&mut self, msg: &IntervalMsg) {
        let have = self.frontier(msg.node);
        if msg.seq <= have {
            return; // already known
        }
        assert_eq!(
            msg.seq,
            have + 1,
            "interval gap for node {}: have {}, got {}",
            msg.node,
            have,
            msg.seq
        );
        self.push(msg);
    }

    /// Records an interval this node itself just closed.
    pub fn record_own(&mut self, msg: &IntervalMsg) {
        assert_eq!(
            msg.seq,
            self.frontier(msg.node) + 1,
            "own interval out of order"
        );
        self.push(msg);
    }

    fn push(&mut self, msg: &IntervalMsg) {
        self.bytes += rec_bytes(msg);
        self.live += 1;
        self.by_node[msg.node].push(msg.clone());
    }

    /// All intervals covered by `upto` but not by `from`, as wire messages —
    /// exactly what a lock grant or barrier departure must carry. Retired
    /// sequences are never delivered (every node's time already dominates
    /// them, so no correct request can span below the floor).
    pub fn between(&self, from: &VTime, upto: &VTime) -> Vec<IntervalMsg> {
        let mut out = Vec::new();
        for q in 0..self.by_node.len() {
            let lo = from.get(q).max(self.retired[q]);
            let hi = upto.get(q).min(self.frontier(q));
            if lo < hi {
                let base = self.retired[q];
                out.extend_from_slice(&self.by_node[q][(lo - base) as usize..(hi - base) as usize]);
            }
        }
        out
    }

    /// Retires every record at or below `floor`, advancing the per-creator
    /// GC floors. Returns `(records retired, approximate bytes reclaimed)`.
    pub fn retire_below(&mut self, floor: &VTime) -> (u64, u64) {
        let mut records = 0u64;
        let mut freed = 0u64;
        for q in 0..self.by_node.len() {
            let cut = (floor.get(q).saturating_sub(self.retired[q]) as usize)
                .min(self.by_node[q].len());
            if cut == 0 {
                continue;
            }
            for rec in self.by_node[q].drain(..cut) {
                freed += rec_bytes(&rec) as u64;
            }
            records += cut as u64;
            self.retired[q] += cut as Seq;
        }
        self.bytes -= freed as usize;
        self.live -= records as usize;
        (records, freed)
    }

    /// Every live (unretired) interval, by creator then sequence.
    pub fn iter(&self) -> impl Iterator<Item = &IntervalMsg> {
        self.by_node.iter().flatten()
    }

    /// Total number of live (unretired) intervals.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Approximate resident bytes of the live interval records.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// True when no intervals are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live count as the sum over creators it replaced.
    fn summed_len(s: &IntervalStore) -> usize {
        s.by_node.iter().map(Vec::len).sum()
    }

    fn msg(node: NodeId, seq: Seq, n: usize, pages: &[PageId]) -> IntervalMsg {
        let mut vt = VTime::zero(n);
        vt.set(node, seq);
        IntervalMsg::new(node, seq, vt, pages.to_vec())
    }

    #[test]
    fn insert_contiguous_and_idempotent() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(1, 1, 2, &[3]));
        s.insert(&msg(1, 2, 2, &[4, 5]));
        s.insert(&msg(1, 1, 2, &[3])); // duplicate, ignored
        assert_eq!(s.frontier(1), 2);
        assert_eq!(s.get(1, 2).unwrap().pages, vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "interval gap")]
    fn insert_gap_panics() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(1, 2, 2, &[]));
    }

    #[test]
    fn between_returns_exactly_the_gap() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(0, 1, 2, &[1]));
        s.insert(&msg(0, 2, 2, &[2]));
        s.insert(&msg(1, 1, 2, &[9]));
        let mut from = VTime::zero(2);
        from.set(0, 1);
        let mut upto = VTime::zero(2);
        upto.set(0, 2);
        upto.set(1, 1);
        let got = s.between(&from, &upto);
        let keys: Vec<_> = got.iter().map(|m| (m.node, m.seq)).collect();
        assert_eq!(keys, vec![(0, 2), (1, 1)]);
    }

    /// The host keeps one record per interval: what `between` hands out is
    /// the allocation that went in, not a rebuilt copy.
    #[test]
    fn between_hands_back_the_inserted_allocation() {
        let mut s = IntervalStore::new(2);
        let own = msg(0, 1, 2, &[1]);
        let theirs = msg(1, 1, 2, &[9]);
        s.record_own(&own);
        s.insert(&theirs);
        let mut upto = VTime::zero(2);
        upto.set(0, 1);
        upto.set(1, 1);
        let got = s.between(&VTime::zero(2), &upto);
        assert_eq!(got.len(), 2);
        assert!(IntervalMsg::ptr_eq(&got[0], &own));
        assert!(IntervalMsg::ptr_eq(&got[1], &theirs));
        assert!(IntervalMsg::ptr_eq(s.get(1, 1).unwrap(), &theirs));
        // An equal but separately built message is a different allocation.
        assert_eq!(got[0], msg(0, 1, 2, &[1]));
        assert!(!IntervalMsg::ptr_eq(&got[0], &msg(0, 1, 2, &[1])));
    }

    /// Sharing the host allocation must not change what a simulated node is
    /// charged: every live record costs its full modelled size, per store.
    #[test]
    fn approx_bytes_charges_every_store_the_full_record() {
        let n = 4;
        let modelled = |m: &IntervalMsg| 16 + n * std::mem::size_of::<Seq>() + m.pages.len() * 8;
        let msgs = [
            msg(0, 1, n, &[1, 2, 3]),
            msg(0, 2, n, &[]),
            msg(2, 1, n, &[7, 9]),
            msg(0, 3, n, &[4]),
            msg(2, 2, n, &[5, 6, 7, 8]),
        ];
        let (mut a, mut b) = (IntervalStore::new(n), IntervalStore::new(n));
        let mut expect = 0;
        for m in &msgs {
            a.insert(m);
            b.insert(m); // a second store sharing the same records
            a.insert(m); // re-delivery is free
            expect += modelled(m);
            assert_eq!(a.approx_bytes(), expect);
            assert_eq!(b.approx_bytes(), expect);
            assert_eq!((a.len(), b.len()), (summed_len(&a), summed_len(&b)));
        }
        let mut floor = VTime::zero(n);
        floor.set(0, 2);
        floor.set(2, 1);
        let (records, freed) = a.retire_below(&floor);
        assert_eq!(records, 3);
        let gone: usize = msgs[..3].iter().map(modelled).sum();
        assert_eq!(freed as usize, gone);
        assert_eq!(a.approx_bytes(), expect - gone);
        assert_eq!(b.approx_bytes(), expect, "the other store keeps its copies");
        assert_eq!((a.len(), b.len()), (2, 5));
        let next = msg(0, 4, n, &[1]);
        a.insert(&next);
        assert_eq!(a.approx_bytes(), expect - gone + modelled(&next));
        assert_eq!(a.len(), summed_len(&a));
    }

    #[test]
    fn debug_prints_the_record_without_a_wrapper() {
        let text = format!("{:?}", msg(1, 2, 2, &[4, 5]));
        assert_eq!(
            text,
            "IntervalMsg { node: 1, seq: 2, vt: VTime[0, 2], pages: [4, 5], runs: 1 }"
        );
    }

    #[test]
    fn wire_bytes_run_length_encodes_notices() {
        // 1,2,3 is one run; 1,3,5 is three.
        let m = msg(0, 1, 4, &[1, 2, 3]);
        assert_eq!(m.wire_bytes(), 8 + 16 + 8);
        let m = msg(0, 1, 4, &[1, 3, 5]);
        assert_eq!(m.wire_bytes(), 8 + 16 + 24);
        let m = msg(0, 1, 4, &[]);
        assert_eq!(m.wire_bytes(), 8 + 16);
    }

    #[test]
    fn notice_runs_sorts_at_construction() {
        // Out-of-order first-write order must not inflate the run count.
        let m = msg(0, 1, 4, &[5, 3, 4, 1, 2]);
        assert_eq!(m.pages, vec![1, 2, 3, 4, 5]);
        assert_eq!(m.notice_runs(), 1);
        assert_eq!(m.wire_bytes(), 8 + 16 + 8);
    }

    /// Regression for the hot-path fix: the cached run count must agree
    /// with a from-scratch scan for arbitrary page sets, so wire-byte
    /// accounting is unchanged by the caching.
    #[test]
    fn cached_runs_match_reference_scan() {
        let cases: Vec<Vec<PageId>> = vec![
            vec![],
            vec![0],
            vec![0, 1, 2, 3],
            vec![9, 1, 5, 2, 7, 0],
            vec![4, 4, 5], // duplicates collapse into the same run
            vec![10, 12, 14, 15, 16, 20],
        ];
        for pages in cases {
            let m = msg(0, 1, 4, &pages);
            let mut sorted = pages.clone();
            sorted.sort_unstable();
            let mut runs = 0;
            let mut prev: Option<PageId> = None;
            for &p in &sorted {
                if prev != Some(p.wrapping_sub(1)) {
                    runs += 1;
                }
                prev = Some(p);
            }
            assert_eq!(m.notice_runs(), runs, "pages {pages:?}");
            assert_eq!(m.wire_bytes(), 8 + 16 + 8 * runs);
        }
    }

    #[test]
    fn retire_below_advances_floor_and_clamps_queries() {
        let mut s = IntervalStore::new(2);
        for seq in 1..=4 {
            s.insert(&msg(0, seq, 2, &[seq as PageId]));
        }
        s.insert(&msg(1, 1, 2, &[9]));
        let before = s.approx_bytes();
        assert_eq!((s.len(), summed_len(&s)), (5, 5));

        let mut floor = VTime::zero(2);
        floor.set(0, 2);
        let (records, freed) = s.retire_below(&floor);
        assert_eq!(records, 2);
        assert!(freed > 0);
        assert_eq!(s.approx_bytes(), before - freed as usize);

        // Retired sequences are gone; the frontier is unchanged.
        assert_eq!(s.floor(0), 2);
        assert_eq!(s.frontier(0), 4);
        assert!(s.get(0, 1).is_none());
        assert!(s.get(0, 2).is_none());
        assert_eq!(s.get(0, 3).unwrap().pages, vec![3]);
        assert_eq!((s.len(), summed_len(&s)), (3, 3));

        // between() never resurrects retired intervals even when asked from
        // a stale lower bound.
        let from = VTime::zero(2);
        let mut upto = VTime::zero(2);
        upto.set(0, 4);
        let keys: Vec<_> = s.between(&from, &upto).iter().map(|m| m.seq).collect();
        assert_eq!(keys, vec![3, 4]);

        // Inserting continues above the frontier; re-delivery of a retired
        // sequence is still idempotent.
        s.insert(&msg(0, 2, 2, &[2]));
        assert_eq!(s.frontier(0), 4);
        s.insert(&msg(0, 5, 2, &[5]));
        assert_eq!(s.frontier(0), 5);
        assert_eq!(s.get(0, 5).unwrap().pages, vec![5]);
        assert_eq!((s.len(), summed_len(&s)), (4, 4));
    }

    #[test]
    fn retire_everything_empties_the_store() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(0, 1, 2, &[1]));
        s.insert(&msg(1, 1, 2, &[2]));
        let mut floor = VTime::zero(2);
        floor.set(0, 1);
        floor.set(1, 1);
        let (records, _) = s.retire_below(&floor);
        assert_eq!(records, 2);
        assert!(s.is_empty());
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.frontier(0), 1, "frontier survives retirement");
    }
}
