//! Interval records: the units of the happened-before-1 partial order.
//!
//! A node's execution is divided into *intervals*, delimited by releases
//! (lock releases and barrier arrivals). Each interval carries the set of
//! pages the node dirtied during it — the *write notices* — plus the vector
//! time at which it closed. A node's interval store models every interval
//! it has learned about, from any node, until barrier-time garbage
//! collection retires the prefix every node's vector time dominates; the
//! host keeps handles to other nodes' records only above the last barrier
//! departure the node merged.

use std::fmt;
use std::sync::Arc;

use crate::{NodeId, PageId, Seq, VTime};

/// An interval as transmitted on the wire (inside lock grants and barrier
/// messages) and as held in every node's [`IntervalStore`].
///
/// A cheap handle to one immutable record built when the interval closes:
/// the host keeps a single record per interval however many stores and
/// in-flight messages name it. The *simulated* nodes each hold their own
/// copy, which is what [`wire_bytes`](Self::wire_bytes) and the store's byte
/// accounting keep charging.
///
/// The record is two heap blocks: the shared header and one word slice
/// holding the vector time followed by the sorted write notices. The handle
/// itself stays one thin pointer: a cluster's stores and in-flight
/// messages hold many handles per record, and a fat `Arc<[u32]>` handle
/// measured `dsm_scale`'s peak RSS 10 % higher.
#[derive(Clone, PartialEq, Eq)]
pub struct IntervalMsg(Arc<Record>);

const _: () = assert!(size_of::<IntervalMsg>() == size_of::<usize>());

#[derive(PartialEq, Eq)]
struct Record {
    node: u32,
    seq: Seq,
    /// Maximal consecutive-page runs in the notices, counted once at
    /// construction: `wire_bytes` is consulted per hop on hot paths.
    runs: u32,
    /// Vector-time width: `words[..n]` is the vector time, `words[n..]` the
    /// write notices, ascending.
    n: u32,
    words: Box<[Seq]>,
}

impl IntervalMsg {
    /// Builds an interval message from its closing vector time and the pages
    /// it dirtied (in any order), sorting the write notices and counting
    /// their consecutive runs once.
    ///
    /// `vt` must be the interval's causal history, stamped with its own
    /// position (`vt[node] == seq`): ordering fetched diffs relies on it.
    ///
    /// # Panics
    ///
    /// Panics if a page id does not fit in 32 bits.
    pub fn new(node: NodeId, seq: Seq, vt: &[Seq], pages: &[PageId]) -> Self {
        debug_assert_eq!(vt[node], seq, "vt names its own seq");
        let n = vt.len();
        let mut words = Vec::with_capacity(n + pages.len());
        words.extend_from_slice(vt);
        words.extend(
            pages
                .iter()
                .map(|&p| Seq::try_from(p).expect("page id fits in 32 bits")),
        );
        words[n..].sort_unstable();
        let runs = count_runs(&words[n..]);
        IntervalMsg(Arc::new(Record {
            node: node as u32,
            seq,
            runs: runs as u32,
            n: n as u32,
            words: words.into_boxed_slice(),
        }))
    }

    /// Whether two handles name the same host allocation.
    pub fn ptr_eq(a: &IntervalMsg, b: &IntervalMsg) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The node that executed the interval.
    pub fn node(&self) -> NodeId {
        self.0.node as NodeId
    }

    /// Its 1-based sequence number within that node.
    pub fn seq(&self) -> Seq {
        self.0.seq
    }

    /// The creator's vector time when the interval closed (with
    /// `vt()[node()] == seq()`).
    pub fn vt(&self) -> &[Seq] {
        &self.0.words[..self.0.n as usize]
    }

    /// Pages dirtied during the interval (the write notices), ascending.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = PageId> + '_ {
        self.notices().iter().map(|&p| p as PageId)
    }

    /// Number of write notices.
    pub fn npages(&self) -> usize {
        self.notices().len()
    }

    fn notices(&self) -> &[Seq] {
        &self.0.words[self.0.n as usize..]
    }

    /// Wire size: ids + vector time + run-length-encoded write notices
    /// (consecutive page numbers collapse to `(start, len)` pairs, the
    /// natural encoding for band-partitioned applications like SOR).
    pub fn wire_bytes(&self) -> usize {
        8 + size_of_val(self.vt()) + 8 * self.notice_runs()
    }

    /// Number of maximal runs of consecutive page ids (cached).
    pub fn notice_runs(&self) -> usize {
        self.0.runs as usize
    }
}

/// Prints the record's fields directly, so message dumps do not grow a
/// wrapper layer.
impl fmt::Debug for IntervalMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntervalMsg")
            .field("node", &self.0.node)
            .field("seq", &self.0.seq)
            .field("vt", &format_args!("VTime{:?}", self.vt()))
            .field("pages", &self.notices())
            .field("runs", &self.0.runs)
            .finish()
    }
}

/// Counts maximal runs of consecutive page ids in an ascending slice.
fn count_runs(sorted: &[Seq]) -> usize {
    let mut runs = 0;
    let mut prev: Option<Seq> = None;
    for &p in sorted {
        if prev != Some(p.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(p);
    }
    runs
}

/// Modelled resident size of one node's copy of an interval record.
fn rec_bytes(rec: &IntervalMsg) -> usize {
    16 + size_of_val(rec.vt()) + rec.npages() * 8
}

/// All intervals a node knows about, indexed by `(creator, seq)`.
///
/// Per creator, sequence numbers above a garbage-collection floor are
/// *live*: the simulated node holds them, and [`len`](Self::len),
/// [`approx_bytes`](Self::approx_bytes) and [`floor`](Self::floor) count
/// them. Lazy release consistency guarantees intervals are learned
/// contiguously (a grant or barrier departure carries exactly the gap
/// between two vector times), which [`insert`](Self::insert) asserts.
/// [`retire_below`](Self::retire_below) advances the floor at barrier-time
/// GC.
///
/// The host holds a handle to every live record of the store's own node,
/// but only to the other creators' records above the last barrier
/// departure time the node merged ([`forget_below`](Self::forget_below)):
/// once every node has them, no correct request can ask this node for them
/// again. Forgetting moves no modelled count.
#[derive(Debug, Clone, Default)]
pub struct IntervalStore {
    by_node: Vec<Creator>,
    /// Approximate resident bytes of the live records as the simulated node
    /// holds them (its own full copy of each, although the host shares
    /// them), maintained incrementally for the memory ledger and the GC
    /// trigger.
    bytes: usize,
    /// Live records across all creators, maintained with `bytes`.
    live: usize,
}

/// One creator's records in an [`IntervalStore`]: `retired <= base <=
/// frontier`, sequences `(retired, base]` live but forgotten.
#[derive(Debug, Clone, Default)]
struct Creator {
    /// Handles to sequences `base + 1 ..= base + held.len()`.
    held: Vec<IntervalMsg>,
    /// Highest retired (garbage-collected) sequence.
    retired: Seq,
    /// Highest sequence whose handle the store no longer holds.
    base: Seq,
    /// Modelled bytes of the forgotten live records `(retired, base]`.
    forgotten_bytes: usize,
}

impl Creator {
    fn frontier(&self) -> Seq {
        self.base + self.held.len() as Seq
    }

    /// Drops the handles at or below `seq` (clamped to the held range),
    /// returning their modelled bytes. Capacity more than four times the
    /// remaining length goes back to the allocator.
    fn drop_through(&mut self, seq: Seq) -> usize {
        let cut = (seq.saturating_sub(self.base) as usize).min(self.held.len());
        if cut == 0 {
            return 0;
        }
        let bytes = self.held.drain(..cut).map(|r| rec_bytes(&r)).sum();
        self.base += cut as Seq;
        if self.held.capacity() > 4 * self.held.len() {
            self.held.shrink_to_fit();
        }
        bytes
    }
}

impl IntervalStore {
    /// An empty store for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        IntervalStore {
            by_node: vec![Creator::default(); n],
            bytes: 0,
            live: 0,
        }
    }

    /// Highest sequence number known for `node` (0 when none).
    pub fn frontier(&self, node: NodeId) -> Seq {
        self.by_node[node].frontier()
    }

    /// Highest retired (garbage-collected) sequence for `node`.
    pub fn floor(&self, node: NodeId) -> Seq {
        self.by_node[node].retired
    }

    /// Looks up the store's own interval `(me, seq)`. Returns `None` below
    /// the GC floor.
    ///
    /// # Panics
    ///
    /// Panics if `(me, seq)` was forgotten: only a node's own records are
    /// held until GC.
    pub fn own(&self, me: NodeId, seq: Seq) -> Option<&IntervalMsg> {
        debug_assert!(seq >= 1);
        let c = &self.by_node[me];
        if seq <= c.retired {
            return None;
        }
        assert!(
            seq > c.base,
            "interval ({me}, {seq}) was forgotten (held from {})",
            c.base + 1
        );
        c.held.get((seq - c.base) as usize - 1)
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
        let have = self.frontier(msg.node());
        if msg.seq() <= have {
            return; // already known
        }
        assert_eq!(
            msg.seq(),
            have + 1,
            "interval gap for node {}: have {}, got {}",
            msg.node(),
            have,
            msg.seq()
        );
        self.push(msg);
    }

    /// Records an interval this node itself just closed.
    pub fn record_own(&mut self, msg: &IntervalMsg) {
        assert_eq!(
            msg.seq(),
            self.frontier(msg.node()) + 1,
            "own interval out of order"
        );
        self.push(msg);
    }

    fn push(&mut self, msg: &IntervalMsg) {
        self.bytes += rec_bytes(msg);
        self.live += 1;
        self.by_node[msg.node()].held.push(msg.clone());
    }

    /// All intervals covered by `upto` but not by `from`, as wire messages —
    /// exactly what a lock grant or barrier departure must carry. Retired
    /// sequences are never delivered (every node's time already dominates
    /// them, so no correct request can span below the floor).
    ///
    /// # Panics
    ///
    /// Panics if the range reaches into a forgotten prefix: every request a
    /// node serves comes from a node that has merged the same barrier
    /// departure time, so `from` is at or above it.
    pub fn between(&self, from: &VTime, upto: &VTime) -> Vec<IntervalMsg> {
        let mut out = Vec::new();
        for (q, c) in self.by_node.iter().enumerate() {
            let lo = from.get(q).max(c.retired);
            let hi = upto.get(q).min(c.frontier());
            if lo < hi {
                assert!(
                    lo >= c.base,
                    "intervals of node {q} from {} were forgotten (held from {})",
                    lo + 1,
                    c.base + 1
                );
                out.extend_from_slice(&c.held[(lo - c.base) as usize..(hi - c.base) as usize]);
            }
        }
        out
    }

    /// Drops the handles to other creators' records at or below `upto`, the
    /// barrier departure time node `me` has just merged. Every node has
    /// those records, so no correct request asks `me` for them again. The
    /// records stay live for [`len`](Self::len),
    /// [`approx_bytes`](Self::approx_bytes) and [`floor`](Self::floor)
    /// until a collection retires them.
    pub fn forget_below(&mut self, upto: &VTime, me: NodeId) {
        for (q, c) in self.by_node.iter_mut().enumerate() {
            if q != me {
                c.forgotten_bytes += c.drop_through(upto.get(q));
            }
        }
    }

    /// Retires every record at or below `floor`, advancing the per-creator
    /// GC floors. Returns `(records retired, approximate bytes reclaimed)`.
    ///
    /// # Panics
    ///
    /// Panics if `floor` cuts inside a forgotten prefix: a collection's
    /// floor is its barrier's departure time, at or above every departure
    /// time merged before it.
    pub fn retire_below(&mut self, floor: &VTime) -> (u64, u64) {
        let mut records = 0u64;
        let mut freed = 0u64;
        for (q, c) in self.by_node.iter_mut().enumerate() {
            let cut = floor.get(q).min(c.frontier());
            if cut <= c.retired {
                continue;
            }
            assert!(
                cut >= c.base,
                "GC floor {cut} of node {q} cuts inside its forgotten records ({}, {}]",
                c.retired,
                c.base
            );
            freed += (std::mem::take(&mut c.forgotten_bytes) + c.drop_through(cut)) as u64;
            records += u64::from(cut - c.retired);
            c.retired = cut;
        }
        self.bytes -= freed as usize;
        self.live -= records as usize;
        (records, freed)
    }

    /// Every interval this store holds a handle to, by creator then
    /// sequence: the live records minus the forgotten ones.
    pub fn iter(&self) -> impl Iterator<Item = &IntervalMsg> {
        self.by_node.iter().flat_map(|c| &c.held)
    }

    /// Total number of live (unretired) intervals, forgotten ones included.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Approximate resident bytes of the live interval records, forgotten
    /// ones included.
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
    use proptest::prelude::*;

    /// The handles held: the live count while nothing is forgotten.
    fn summed_len(s: &IntervalStore) -> usize {
        s.by_node.iter().map(|c| c.held.len()).sum()
    }

    fn msg(node: NodeId, seq: Seq, n: usize, pages: &[PageId]) -> IntervalMsg {
        let mut vt = VTime::zero(n);
        vt.set(node, seq);
        IntervalMsg::new(node, seq, vt.as_ref(), pages)
    }

    fn pages(m: &IntervalMsg) -> Vec<PageId> {
        m.pages().collect()
    }

    #[test]
    fn insert_contiguous_and_idempotent() {
        let mut s = IntervalStore::new(2);
        s.insert(&msg(1, 1, 2, &[3]));
        s.insert(&msg(1, 2, 2, &[4, 5]));
        s.insert(&msg(1, 1, 2, &[3])); // duplicate, ignored
        assert_eq!(s.frontier(1), 2);
        assert_eq!(pages(s.own(1, 2).unwrap()), vec![4, 5]);
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
        let keys: Vec<_> = got.iter().map(|m| (m.node(), m.seq())).collect();
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
        assert!(IntervalMsg::ptr_eq(s.iter().nth(1).unwrap(), &theirs));
        // An equal but separately built message is a different allocation.
        assert_eq!(got[0], msg(0, 1, 2, &[1]));
        assert!(!IntervalMsg::ptr_eq(&got[0], &msg(0, 1, 2, &[1])));
    }

    /// Sharing the host allocation must not change what a simulated node is
    /// charged: every live record costs its full modelled size, per store.
    #[test]
    fn approx_bytes_charges_every_store_the_full_record() {
        let n = 4;
        let modelled = |m: &IntervalMsg| 16 + n * std::mem::size_of::<Seq>() + m.npages() * 8;
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
        assert_eq!(pages(&m), vec![1, 2, 3, 4, 5]);
        assert_eq!(m.notice_runs(), 1);
        assert_eq!(m.wire_bytes(), 8 + 16 + 8);
    }

    /// The record layout the two-block one replaced, kept as the reference
    /// for every value derived from it.
    struct SeparateVecs {
        vt: VTime,
        pages: Vec<PageId>,
        runs: usize,
    }

    impl SeparateVecs {
        fn new(vt: VTime, mut pages: Vec<PageId>) -> Self {
            pages.sort_unstable();
            let mut runs = 0;
            let mut prev: Option<PageId> = None;
            for &p in &pages {
                if prev != Some(p.wrapping_sub(1)) {
                    runs += 1;
                }
                prev = Some(p);
            }
            SeparateVecs { vt, pages, runs }
        }

        fn wire_bytes(&self) -> usize {
            8 + self.vt.wire_bytes() + 8 * self.runs
        }

        fn rec_bytes(&self) -> usize {
            16 + self.vt.wire_bytes() + self.pages.len() * 8
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Packing the vector time and the notices into one word slice keeps
        /// every field and every modelled size of the separate-vector record.
        #[test]
        fn packed_record_matches_the_separate_vectors(
            width in 1usize..131,
            pick in any::<usize>(),
            seq in 1u32..u32::MAX,
            counts in proptest::collection::vec(any::<u32>(), 130),
            pages in proptest::collection::vec(
                prop_oneof![0usize..48, (u32::MAX as usize - 47)..(u32::MAX as usize + 1)],
                0..41,
            ),
        ) {
            let node = pick % width;
            let mut vt = VTime::zero(width);
            for (q, &c) in counts[..width].iter().enumerate() {
                vt.set(q, c);
            }
            vt.set(node, seq);
            let m = IntervalMsg::new(node, seq, vt.as_ref(), &pages);
            let old = SeparateVecs::new(vt.clone(), pages.clone());
            prop_assert_eq!((m.node(), m.seq()), (node, seq));
            prop_assert_eq!(m.vt(), old.vt.as_ref());
            prop_assert_eq!(self::pages(&m), old.pages.clone());
            prop_assert_eq!(m.npages(), old.pages.len());
            prop_assert_eq!(m.notice_runs(), old.runs);
            prop_assert_eq!(m.wire_bytes(), old.wire_bytes());
            prop_assert_eq!(rec_bytes(&m), old.rec_bytes());
        }
    }

    /// Notices are stored as 32-bit words: a wider page id is refused, not
    /// truncated into another page.
    #[test]
    #[should_panic(expected = "page id fits in 32 bits")]
    fn page_id_above_u32_panics_at_construction() {
        msg(0, 1, 2, &[3, u32::MAX as PageId + 1]);
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
        assert!(s.own(0, 1).is_none());
        assert!(s.own(0, 2).is_none());
        assert_eq!(pages(s.own(0, 3).unwrap()), vec![3]);
        assert_eq!((s.len(), summed_len(&s)), (3, 3));

        // between() never resurrects retired intervals even when asked from
        // a stale lower bound.
        let from = VTime::zero(2);
        let mut upto = VTime::zero(2);
        upto.set(0, 4);
        let keys: Vec<_> = s.between(&from, &upto).iter().map(|m| m.seq()).collect();
        assert_eq!(keys, vec![3, 4]);

        // Inserting continues above the frontier; re-delivery of a retired
        // sequence is still idempotent.
        s.insert(&msg(0, 2, 2, &[2]));
        assert_eq!(s.frontier(0), 4);
        s.insert(&msg(0, 5, 2, &[5]));
        assert_eq!(s.frontier(0), 5);
        assert_eq!(pages(s.own(0, 5).unwrap()), vec![5]);
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

    /// A store of node 0 holding node 1's records 1..=3, forgotten up to
    /// `dep`.
    fn forgotten_to(dep: Seq) -> IntervalStore {
        let mut s = IntervalStore::new(2);
        for seq in 1..=3 {
            s.insert(&msg(1, seq, 2, &[seq as PageId]));
        }
        let mut vt = VTime::zero(2);
        vt.set(1, dep);
        s.forget_below(&vt, 0);
        s
    }

    #[test]
    fn forget_below_drops_foreign_handles_and_their_capacity() {
        let mut s = forgotten_to(3);
        s.record_own(&msg(0, 1, 2, &[7]));
        let mut all = VTime::zero(2);
        all.set(0, 1);
        all.set(1, 3);
        s.forget_below(&all, 0);
        assert_eq!((s.len(), s.frontier(1), s.floor(1)), (4, 3, 0));
        let held: Vec<_> = s.iter().map(|m| (m.node(), m.seq())).collect();
        assert_eq!(held, vec![(0, 1)], "own records stay");
        assert_eq!(s.by_node[1].held.capacity(), 0);
        // Learning continues above the forgotten prefix.
        s.insert(&msg(1, 3, 2, &[])); // re-delivery, ignored
        s.insert(&msg(1, 4, 2, &[9]));
        let mut upto = all.clone();
        upto.set(1, 4);
        let keys: Vec<_> = s.between(&all, &upto).iter().map(|m| m.seq()).collect();
        assert_eq!(keys, vec![4]);
    }

    #[test]
    #[should_panic(expected = "were forgotten")]
    fn between_below_the_forgotten_prefix_panics() {
        let s = forgotten_to(2);
        let mut upto = VTime::zero(2);
        upto.set(1, 3);
        s.between(&VTime::zero(2), &upto);
    }

    #[test]
    #[should_panic(expected = "cuts inside its forgotten records")]
    fn retire_below_inside_the_forgotten_prefix_panics() {
        let mut s = forgotten_to(3);
        let mut floor = VTime::zero(2);
        floor.set(1, 2);
        s.retire_below(&floor);
    }

    #[test]
    #[should_panic(expected = "was forgotten")]
    fn own_lookup_of_a_forgotten_record_panics() {
        forgotten_to(2).own(1, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Forgetting moves no modelled count. Under random schedules of
        /// inserts, barrier departures and collections, a store that forgets
        /// agrees with one that never does on every count, on what each
        /// collection returns, on its own records and on every request from
        /// at or above the last departure time; and it holds no other
        /// creator's handle at or below that time.
        #[test]
        fn forgetting_store_matches_one_that_never_forgets(
            width in 1usize..6,
            pick in any::<usize>(),
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..120),
        ) {
            let me = pick % width;
            let (mut s, mut all) = (IntervalStore::new(width), IntervalStore::new(width));
            // The last departure time merged.
            let mut dep = VTime::zero(width);
            for (kind, bits) in ops {
                // A draw in `0..=span` per creator from this op's bits.
                let draw = |q: usize, span: Seq| {
                    let x = bits.rotate_left(11 * q as u32) ^ (q as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (x % (u64::from(span) + 1)) as Seq
                };
                let above = |v: &VTime, q: usize, s: &IntervalStore| v.get(q) + draw(q, s.frontier(q) - v.get(q));
                match kind {
                    0 => {
                        let q = bits as usize % width;
                        let seq = all.frontier(q) + 1;
                        let pages: Vec<PageId> = (0..(bits >> 8) as usize % 5).map(|i| 2 * i).collect();
                        let m = msg(q, seq, width, &pages);
                        if q == me {
                            s.record_own(&m);
                            all.record_own(&m);
                        } else {
                            s.insert(&m);
                            all.insert(&m);
                            s.insert(&m); // re-delivery
                        }
                    }
                    1 => {
                        for q in 0..width {
                            let d = above(&dep, q, &all);
                            dep.set(q, d);
                        }
                        s.forget_below(&dep, me);
                    }
                    2 => {
                        // A collection at or above the departure time, or
                        // none for a creator.
                        let mut floor = VTime::zero(width);
                        for q in 0..width {
                            if (bits >> (40 + q)) & 1 == 0 {
                                floor.set(q, above(&dep, q, &all));
                                dep.set(q, floor.get(q));
                            }
                        }
                        prop_assert_eq!(s.retire_below(&floor), all.retire_below(&floor));
                    }
                    _ => {
                        let (mut from, mut upto) = (VTime::zero(width), VTime::zero(width));
                        for q in 0..width {
                            let lo = if q == me { draw(q, all.frontier(q)) } else { above(&dep, q, &all) };
                            from.set(q, lo);
                            upto.set(q, draw(q + width, all.frontier(q) + 2));
                        }
                        let (got, want) = (s.between(&from, &upto), all.between(&from, &upto));
                        prop_assert_eq!(got.len(), want.len());
                        for (a, b) in got.iter().zip(&want) {
                            prop_assert!(IntervalMsg::ptr_eq(a, b));
                        }
                    }
                }
                prop_assert_eq!((s.len(), s.approx_bytes()), (all.len(), all.approx_bytes()));
                for q in 0..width {
                    prop_assert_eq!((s.frontier(q), s.floor(q)), (all.frontier(q), all.floor(q)));
                }
                for seq in 1..=all.frontier(me) {
                    match (s.own(me, seq), all.own(me, seq)) {
                        (Some(a), Some(b)) => prop_assert!(IntervalMsg::ptr_eq(a, b)),
                        (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
                    }
                }
                prop_assert!(s.iter().all(|m| m.node() == me || m.seq() > dep.get(m.node())));
            }
        }
    }
}
