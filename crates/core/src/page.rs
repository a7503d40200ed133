//! Per-node, per-page protocol state.

use crate::{Diff, IntervalMsg, NodeId, Seq};

/// What a node knows about one remote (or its own) writer of one page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Writer {
    /// The writing node. A `u32` so the entry is 12 bytes.
    pub node: u32,
    /// The highest interval sequence of `node` whose modifications are
    /// reflected in the page's `data`.
    pub applied: Seq,
    /// The highest interval sequence of `node` known to have dirtied this
    /// page. Notices above `applied` are pending: the copy is stale for
    /// this writer iff `notice > applied`, and a fetch asks for
    /// `(applied, notice]`. Every reader of the pending notices needs only
    /// that test or that last sequence, so no queue of them is kept.
    pub notice: Seq,
}

impl Writer {
    /// Some notice of this writer is not yet applied.
    fn pending(&self) -> bool {
        self.notice > self.applied
    }
}

/// A page's known writers, ascending by node. Most pages only ever hear of
/// one writer, and every node holds an entry for every page of every band
/// it was told about, so that one lives inline; only a shared page pays
/// for a heap slice.
#[derive(Debug, Clone, Default)]
enum Writers {
    #[default]
    Empty,
    One(Writer),
    Many(Box<[Writer]>),
}

impl Writers {
    fn as_slice(&self) -> &[Writer] {
        match self {
            Writers::Empty => &[],
            Writers::One(w) => std::slice::from_ref(w),
            Writers::Many(ws) => ws,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Writer] {
        match self {
            Writers::Empty => &mut [],
            Writers::One(w) => std::slice::from_mut(w),
            Writers::Many(ws) => ws,
        }
    }

    /// The entry for `node`, created (nothing applied, nothing pending) if
    /// this page had not heard of it.
    fn entry(&mut self, node: NodeId) -> &mut Writer {
        let node = node as u32;
        let i = match self.as_slice().binary_search_by_key(&node, |w| w.node) {
            Ok(i) => i,
            Err(i) => {
                let fresh = Writer {
                    node,
                    applied: 0,
                    notice: 0,
                };
                *self = match std::mem::take(self) {
                    Writers::Empty => Writers::One(fresh),
                    old => {
                        let (below, above) = old.as_slice().split_at(i);
                        Writers::Many([below, &[fresh][..], above].concat().into_boxed_slice())
                    }
                };
                i
            }
        };
        &mut self.as_mut_slice()[i]
    }
}

/// A node's view of one shared page: one host cache line.
///
/// Writer state is sparse: only writers this node has heard of for this
/// page have an entry, so the footprint follows actual sharing rather than
/// cluster size. A fresh page, and one that only ever hears of a single
/// writer, owns no heap allocation: everything a read, a write or a write
/// notice touches is inline, and the state only a page this node writes or
/// fetches needs is behind one box.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageMeta {
    /// Local copy of the page, if the node ever fetched or originated one.
    pub data: Option<Box<[u8]>>,
    /// Known writers, ascending by node. A writer without an entry has
    /// `applied == 0` and no pending notices.
    writers: Writers,
    /// Writers with a pending notice (`#{w : w.notice > w.applied}`), so
    /// validity is O(1). Non-zero ⇒ the local copy is invalid.
    npending: u32,
    /// The page has been written in the currently open interval.
    pub open_dirty: bool,
    /// Twins, cached diffs and fetch progress, allocated the first time the
    /// page needs one of them.
    pub cold: Option<Box<PageCold>>,
}

const _: () = assert!(size_of::<PageMeta>() <= 64);

/// The part of a [`PageMeta`] only a page this node writes or fetches uses.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageCold {
    /// Twin taken at the first write of the current interval; present iff
    /// the page is dirty in the open interval.
    pub twin: Option<Box<[u8]>>,
    /// Diffs this node itself materialized for the page, keyed by its own
    /// interval sequence (ascending). Kept for serving remote requests.
    /// Each diff is *cumulative*: it covers every own interval after the
    /// previous entry (lazy diff creation folds multiple intervals into
    /// the diff made at first request).
    pub my_diffs: Vec<(Seq, Diff)>,
    /// Own closed intervals whose modifications still live only in the
    /// twin-vs-data delta (no diff materialized yet), ascending.
    pub undiffed: Vec<Seq>,
    /// In-flight fault, if any. Boxed: a page's cold part outlives its
    /// fetches, and the state lives on the heap only while a fetch does.
    pub fetch: Option<Box<FetchState>>,
}

/// Progress of an outstanding page fetch.
#[derive(Debug, Clone)]
pub(crate) struct FetchState {
    /// Replies still expected.
    pub outstanding: usize,
    /// Full-page copy received, with the provider's applied-version vector.
    pub base: Option<(Vec<u8>, Vec<Seq>)>,
    /// Diffs received so far, each with the writer's record of the
    /// interval it belongs to (the host's one shared copy).
    pub diffs: Vec<(IntervalMsg, Diff)>,
    /// Whether the faulting access was a write (twin needed on completion).
    pub want_write: bool,
    /// This is a GC validation fetch by the origin: no processor is blocked
    /// on it, and its completion advances the collection instead of raising
    /// a page-ready action.
    pub gc: bool,
}

impl PageMeta {
    /// A copy is present and no write notices are unapplied.
    pub fn is_valid(&self) -> bool {
        self.data.is_some() && self.npending == 0
    }

    /// Any write notice is unapplied.
    pub fn has_pending(&self) -> bool {
        self.npending != 0
    }

    /// The writers this page knows about, ascending by node.
    pub fn writers(&self) -> &[Writer] {
        self.writers.as_slice()
    }

    /// The cold part, allocated on first use.
    pub fn cold_mut(&mut self) -> &mut PageCold {
        self.cold.get_or_insert_default()
    }

    /// The twin, if one is live.
    pub fn twin_mut(&mut self) -> Option<&mut Box<[u8]>> {
        self.cold.as_mut()?.twin.as_mut()
    }

    /// The in-flight fetch, if any.
    pub fn fetch_mut(&mut self) -> Option<&mut FetchState> {
        self.cold.as_mut()?.fetch.as_deref_mut()
    }

    /// A fetch is in flight.
    pub fn fetching(&self) -> bool {
        self.cold.as_ref().is_some_and(|c| c.fetch.is_some())
    }

    /// The diffs this node materialized for the page, ascending.
    pub fn my_diffs(&self) -> &[(Seq, Diff)] {
        self.cold.as_ref().map_or(&[], |c| &c.my_diffs)
    }

    /// The highest interval of `writer` reflected in the local copy.
    pub fn applied(&self, writer: NodeId) -> Seq {
        let ws = self.writers();
        ws.binary_search_by_key(&(writer as u32), |w| w.node)
            .map_or(0, |i| ws[i].applied)
    }

    /// The applied-version vector as it travels in a page reply: one entry
    /// per node of the cluster.
    pub fn version(&self, nodes: usize) -> Vec<Seq> {
        let mut version = vec![0; nodes];
        for w in self.writers() {
            version[w.node as NodeId] = w.applied;
        }
        version
    }

    /// The diff ranges a fetch must ask for, ascending by writer:
    /// `(writer, applied, last notice)`.
    pub fn fetch_requests(&self) -> impl Iterator<Item = (NodeId, Seq, Seq)> + '_ {
        self.writers()
            .iter()
            .filter(|w| w.pending())
            .map(|w| (w.node as NodeId, w.applied, w.notice))
    }

    /// Registers a write notice `(writer, seq)` unless already applied.
    /// Notices may arrive out of order (eager-release updates race with
    /// lock grants) and twice; only the highest one is kept.
    pub fn add_notice(&mut self, writer: NodeId, seq: Seq) {
        if seq == 0 {
            return; // nothing is ever "not yet applied" at sequence zero
        }
        let w = self.writers.entry(writer);
        if seq <= w.applied {
            return;
        }
        if !w.pending() {
            self.npending += 1;
        }
        w.notice = w.notice.max(seq);
    }

    /// Marks everything up to `seq` from `writer` as applied, settling the
    /// notices it covers.
    pub fn mark_applied(&mut self, writer: NodeId, seq: Seq) {
        if seq == 0 {
            return; // a dense version vector's zeros name no writer
        }
        let w = self.writers.entry(writer);
        if seq <= w.applied {
            return;
        }
        let was = w.pending();
        w.applied = seq;
        if was && !w.pending() {
            self.npending -= 1;
        }
    }

    /// Forgets every pending notice (their intervals were retired by GC).
    pub fn clear_pending(&mut self) {
        for w in self.writers.as_mut_slice() {
            w.notice = w.notice.min(w.applied);
        }
        self.npending = 0;
    }

    /// The materialized diffs needed to cover own intervals in `(from, to]`.
    ///
    /// Diffs are cumulative between twin points, so an interval may be
    /// covered by a diff with a *later* sequence number; the range therefore
    /// includes every diff after `from` up to and including the first one
    /// whose sequence reaches `to`. `my_diffs` is seq-ascending, so both ends
    /// are binary searches: the cost does not grow with how many diffs the
    /// node has made for the page.
    pub fn my_diffs_between(&self, from: Seq, to: Seq) -> &[(Seq, Diff)] {
        let my_diffs = self.my_diffs();
        let start = my_diffs.partition_point(|(s, _)| *s <= from);
        let after = &my_diffs[start..];
        let below = after.partition_point(|(s, _)| *s < to);
        &after[..after.len().min(below + 1)]
    }
}

/// The scan from index 0 that [`PageMeta::my_diffs_between`] replaced, kept
/// as the reference: the sequences it would have served for `(from, to]`.
#[cfg(test)]
pub(crate) fn linear_diffs_between(my_diffs: &[(Seq, Diff)], from: Seq, to: Seq) -> Vec<Seq> {
    let mut out = Vec::new();
    for (s, _) in my_diffs {
        if *s > from {
            out.push(*s);
            if *s >= to {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The last pending notice of `writer`, if it has one.
    fn pending(p: &PageMeta, writer: NodeId) -> Option<Seq> {
        let w = p.writers().iter().find(|w| w.node as NodeId == writer)?;
        w.pending().then_some(w.notice)
    }

    /// The dense representation this module replaced, kept as the reference
    /// model: one `applied` entry and one sorted queue of pending notice
    /// sequences per node of the cluster, validity by scanning every queue.
    /// The sparse page keeps only each queue's last element.
    struct DenseModel {
        has_data: bool,
        applied: Vec<Seq>,
        pending: Vec<Vec<Seq>>,
    }

    impl DenseModel {
        fn new(n: usize) -> Self {
            DenseModel {
                has_data: false,
                applied: vec![0; n],
                pending: vec![Vec::new(); n],
            }
        }

        fn is_valid(&self) -> bool {
            self.has_data && self.pending.iter().all(Vec::is_empty)
        }

        fn add_notice(&mut self, writer: NodeId, seq: Seq) {
            if seq <= self.applied[writer] {
                return;
            }
            let q = &mut self.pending[writer];
            if let Err(pos) = q.binary_search(&seq) {
                q.insert(pos, seq);
            }
        }

        fn mark_applied(&mut self, writer: NodeId, seq: Seq) {
            if seq > self.applied[writer] {
                self.applied[writer] = seq;
            }
            self.pending[writer].retain(|&s| s > self.applied[writer]);
        }

        fn clear_pending(&mut self) {
            for v in &mut self.pending {
                v.clear();
            }
        }

        fn fetch_requests(&self) -> Vec<(NodeId, Seq, Seq)> {
            let mut reqs = Vec::new();
            for q in 0..self.applied.len() {
                if let Some(&last) = self.pending[q].last() {
                    reqs.push((q, self.applied[q], last));
                }
            }
            reqs
        }
    }

    /// A step of a page's history. Writers are indices into the case's
    /// writer pool.
    #[derive(Debug, Clone)]
    enum Step {
        Notice(usize, Seq),
        Applied(usize, Seq),
        /// A page reply's version vector: dense, applied entry by entry.
        Base(Vec<(usize, Seq)>),
        GotData,
        Clear,
    }

    const NODES: usize = 128;
    /// Water's pages average 5.7 writers; SOR's have one.
    const MAX_WRITERS: usize = 6;

    /// Up to six distinct writers spanning the whole 128-node cluster, in
    /// the order they first reach the page: ascending, descending (each new
    /// writer lands below the ones already known) or random.
    fn writer_pool() -> impl Strategy<Value = Vec<NodeId>> {
        let nodes = proptest::collection::vec(0..NODES, 1..MAX_WRITERS + 1);
        (nodes, 0..3u8, any::<u64>()).prop_map(|(mut pool, arrival, key)| {
            pool.sort_unstable();
            pool.dedup();
            match arrival {
                0 => {}
                1 => pool.reverse(),
                _ => pool.sort_by_key(|&q| (q as u64 ^ key).wrapping_mul(key | 1)),
            }
            pool
        })
    }

    /// A narrow sequence range, so duplicates, out-of-order arrivals and
    /// `seq == 0` all occur often.
    fn step_strategy() -> impl Strategy<Value = Step> {
        let writer = 0..MAX_WRITERS;
        prop_oneof![
            (writer.clone(), 0u32..12).prop_map(|(k, s)| Step::Notice(k, s)),
            (writer.clone(), 0u32..12).prop_map(|(k, s)| Step::Applied(k, s)),
            proptest::collection::vec((writer, 0u32..12), 0..6).prop_map(Step::Base),
            Just(Step::GotData),
            Just(Step::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The sparse page agrees with the dense model after every step,
        /// whichever order its writers first arrive in.
        #[test]
        fn sparse_matches_dense_model(
            pool in writer_pool(),
            intro in proptest::collection::vec((any::<bool>(), 1u32..12), MAX_WRITERS),
            steps in proptest::collection::vec(step_strategy(), 1..80)
        ) {
            let mut p = PageMeta::default();
            let mut m = DenseModel::new(NODES);
            let node = |k: usize| pool[k % pool.len()];
            // Every pool writer reaches the page once, in pool order.
            let intro = intro.iter().enumerate().take(pool.len()).map(|(k, &(notice, s))| {
                if notice { Step::Notice(k, s) } else { Step::Applied(k, s) }
            });
            for step in intro.chain(steps) {
                match &step {
                    Step::Notice(k, s) => {
                        p.add_notice(node(*k), *s);
                        m.add_notice(node(*k), *s);
                    }
                    Step::Applied(k, s) => {
                        p.mark_applied(node(*k), *s);
                        m.mark_applied(node(*k), *s);
                    }
                    Step::Base(hits) => {
                        let mut version = vec![0; NODES];
                        for &(k, s) in hits {
                            version[node(k)] = s;
                        }
                        for (q, &s) in version.iter().enumerate() {
                            p.mark_applied(q, s);
                            m.mark_applied(q, s);
                        }
                    }
                    Step::GotData => {
                        p.data = Some(vec![0u8; 4].into_boxed_slice());
                        m.has_data = true;
                    }
                    Step::Clear => {
                        p.clear_pending();
                        m.clear_pending();
                    }
                }
                prop_assert_eq!(p.is_valid(), m.is_valid(), "after {:?}", step);
                prop_assert_eq!(p.has_pending(), m.pending.iter().any(|v| !v.is_empty()));
                for q in 0..NODES {
                    prop_assert_eq!(p.applied(q), m.applied[q], "applied[{}] after {:?}", q, step);
                    let last = m.pending[q].last().copied();
                    prop_assert_eq!(pending(&p, q), last, "pending[{}] after {:?}", q, step);
                }
                prop_assert_eq!(p.version(NODES), m.applied.clone());
                prop_assert_eq!(p.fetch_requests().collect::<Vec<_>>(), m.fetch_requests());
                let ws = p.writers();
                prop_assert_eq!(p.npending as usize, ws.iter().filter(|w| w.pending()).count());
                prop_assert!(ws.windows(2).all(|w| w[0].node < w[1].node), "{:?}", ws);
                // A lone writer is inline; only a second one moves to the heap.
                prop_assert_eq!(matches!(p.writers, Writers::One(_)), ws.len() == 1);
                prop_assert!(p.cold.is_none(), "notices never allocate the cold part");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The binary-searched range is the linear scan's, for bounds
        /// before, between, on and beyond the cached sequences (and none).
        #[test]
        fn diff_range_matches_the_linear_scan(
            gaps in proptest::collection::vec(1u32..4, 0..12),
            from in 0u32..40,
            to in 0u32..40,
        ) {
            let mut p = PageMeta::default();
            let mut seq = 0;
            for gap in gaps {
                seq += gap;
                p.cold_mut().my_diffs.push((seq, Diff::default()));
            }
            let got: Vec<Seq> = p.my_diffs_between(from, to).iter().map(|(s, _)| *s).collect();
            prop_assert_eq!(got, linear_diffs_between(p.my_diffs(), from, to));
        }
    }

    #[test]
    fn fresh_page_owns_no_heap() {
        let mut p = PageMeta::default();
        assert!(matches!(p.writers, Writers::Empty));
        assert!(p.data.is_none() && p.cold.is_none());
        // Neither a zero version entry nor a stale notice creates a writer.
        p.mark_applied(7, 0);
        p.add_notice(7, 0);
        assert!(matches!(p.writers, Writers::Empty));
        // One writer's notices and applied versions stay inline.
        p.add_notice(7, 3);
        p.mark_applied(7, 2);
        p.add_notice(7, 4);
        p.mark_applied(7, 4);
        assert!(matches!(p.writers, Writers::One(w) if (w.node, w.applied, w.notice) == (7, 4, 4)));
        assert!(p.data.is_none() && p.cold.is_none());
        assert!(!p.has_pending());
    }

    #[test]
    fn validity_requires_data_and_no_pending() {
        let mut p = PageMeta::default();
        assert!(!p.is_valid());
        p.data = Some(vec![0u8; 16].into_boxed_slice());
        assert!(p.is_valid());
        p.add_notice(1, 1);
        assert!(!p.is_valid());
        p.mark_applied(1, 1);
        assert!(p.is_valid());
    }

    #[test]
    fn notices_dedup_and_skip_applied() {
        let mut p = PageMeta::default();
        p.mark_applied(1, 3);
        p.add_notice(1, 2); // already applied
        assert_eq!(pending(&p, 1), None);
        p.add_notice(1, 4);
        p.add_notice(1, 4); // duplicate
        assert_eq!((pending(&p, 1), p.npending), (Some(4), 1));
        p.add_notice(1, 5);
        assert_eq!((pending(&p, 1), p.npending), (Some(5), 1));
        assert_eq!(p.fetch_requests().collect::<Vec<_>>(), [(1, 3, 5)]);
    }

    #[test]
    fn diff_range_query_covers_folded_intervals() {
        let mut p = PageMeta::default();
        let cold = p.cold_mut();
        cold.my_diffs.push((1, Diff::default()));
        cold.my_diffs.push((4, Diff::default()));
        cold.my_diffs.push((7, Diff::default()));
        // Interval 2 and 3's mods are folded into the cumulative diff @4.
        let got = p.my_diffs_between(1, 3);
        let seqs: Vec<Seq> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4], "first diff reaching the range suffices");
        let got = p.my_diffs_between(1, 6);
        let seqs: Vec<Seq> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 7], "6 is only covered by the diff @7");
        assert!(p.my_diffs_between(7, 9).is_empty());
    }

    #[test]
    fn out_of_order_notices_stay_sorted() {
        let mut p = PageMeta::default();
        p.add_notice(1, 5);
        p.add_notice(1, 3);
        p.add_notice(1, 5);
        assert_eq!(pending(&p, 1), Some(5));
        // Applying the earlier notice leaves the later one pending.
        p.mark_applied(1, 3);
        assert_eq!((pending(&p, 1), p.npending), (Some(5), 1));
        p.mark_applied(1, 5);
        assert_eq!((pending(&p, 1), p.npending), (None, 0));
    }
}
