//! Per-node, per-page protocol state.

use crate::{Diff, IntervalMsg, NodeId, Seq};

/// What a node knows about one remote (or its own) writer of one page.
#[derive(Debug, Clone)]
pub(crate) struct Writer {
    pub node: NodeId,
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

/// A node's view of one shared page.
///
/// Writer state is sparse: only writers this node has heard of for this
/// page have an entry, so the footprint follows actual sharing rather than
/// cluster size, and a fresh page owns no heap allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageMeta {
    /// Local copy of the page, if the node ever fetched or originated one.
    pub data: Option<Box<[u8]>>,
    /// Twin taken at the first write of the current interval; present iff
    /// the page is dirty in the open interval.
    pub twin: Option<Box<[u8]>>,
    /// Known writers, ascending by node. A writer without an entry has
    /// `applied == 0` and no pending notices.
    writers: Vec<Writer>,
    /// Writers with a pending notice (`#{w : w.notice > w.applied}`), so
    /// validity is O(1). Non-zero ⇒ the local copy is invalid.
    npending: usize,
    /// Diffs this node itself materialized for the page, keyed by its own
    /// interval sequence (ascending). Kept for serving remote requests.
    /// Each diff is *cumulative*: it covers every own interval after the
    /// previous entry (lazy diff creation folds multiple intervals into
    /// the diff made at first request).
    pub my_diffs: Vec<(Seq, Diff)>,
    /// Own closed intervals whose modifications still live only in the
    /// twin-vs-data delta (no diff materialized yet), ascending.
    pub undiffed: Vec<Seq>,
    /// The page has been written in the currently open interval.
    pub open_dirty: bool,
    /// In-flight fault, if any. Boxed: a node has one `PageMeta` per page
    /// of the segment and at most a few fetches in flight, so the state
    /// lives on the heap only while a fetch does.
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
        &self.writers
    }

    fn find(&self, writer: NodeId) -> Result<usize, usize> {
        self.writers.binary_search_by_key(&writer, |w| w.node)
    }

    /// The highest interval of `writer` reflected in the local copy.
    pub fn applied(&self, writer: NodeId) -> Seq {
        self.find(writer).map_or(0, |i| self.writers[i].applied)
    }

    /// The applied-version vector as it travels in a page reply: one entry
    /// per node of the cluster.
    pub fn version(&self, nodes: usize) -> Vec<Seq> {
        let mut version = vec![0; nodes];
        for w in &self.writers {
            version[w.node] = w.applied;
        }
        version
    }

    /// The diff ranges a fetch must ask for, ascending by writer:
    /// `(writer, applied, last notice)`.
    pub fn fetch_requests(&self) -> impl Iterator<Item = (NodeId, Seq, Seq)> + '_ {
        self.writers
            .iter()
            .filter(|w| w.pending())
            .map(|w| (w.node, w.applied, w.notice))
    }

    /// The entry for `writer`, created (nothing applied, nothing pending)
    /// if this page had not heard of it.
    fn entry(writers: &mut Vec<Writer>, writer: NodeId) -> &mut Writer {
        let i = match writers.binary_search_by_key(&writer, |w| w.node) {
            Ok(i) => i,
            Err(i) => {
                let fresh = Writer {
                    node: writer,
                    applied: 0,
                    notice: 0,
                };
                if writers.is_empty() {
                    // Most pages only ever hear of one writer, and every
                    // node holds an entry for every page of every band it
                    // was told about: `Vec`'s first growth would reserve
                    // four.
                    writers.reserve_exact(1);
                }
                writers.insert(i, fresh);
                i
            }
        };
        &mut writers[i]
    }

    /// Registers a write notice `(writer, seq)` unless already applied.
    /// Notices may arrive out of order (eager-release updates race with
    /// lock grants) and twice; only the highest one is kept.
    pub fn add_notice(&mut self, writer: NodeId, seq: Seq) {
        if seq == 0 {
            return; // nothing is ever "not yet applied" at sequence zero
        }
        let w = Self::entry(&mut self.writers, writer);
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
        let w = Self::entry(&mut self.writers, writer);
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
        for w in &mut self.writers {
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
        let start = self.my_diffs.partition_point(|(s, _)| *s <= from);
        let after = &self.my_diffs[start..];
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
        let w = &p.writers[p.find(writer).ok()?];
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

    #[derive(Debug, Clone)]
    enum Step {
        Notice(NodeId, Seq),
        Applied(NodeId, Seq),
        /// A page reply's dense version vector, applied entry by entry.
        Base(Vec<Seq>),
        GotData,
        Clear,
    }

    const NODES: usize = 128;

    /// Few distinct writers and a narrow sequence range, so duplicates,
    /// out-of-order arrivals and `seq == 0` all occur often; writer ids
    /// still span the whole 128-node cluster.
    fn step_strategy() -> impl Strategy<Value = Step> {
        let writer = prop_oneof![0usize..4, 0usize..NODES, Just(NODES - 1)];
        let writer2 = prop_oneof![0usize..4, 0usize..NODES, Just(NODES - 1)];
        prop_oneof![
            (writer, 0u32..12).prop_map(|(w, s)| Step::Notice(w, s)),
            (writer2, 0u32..12).prop_map(|(w, s)| Step::Applied(w, s)),
            proptest::collection::vec((0usize..NODES, 0u32..12), 0..6).prop_map(|hits| {
                let mut v = vec![0; NODES];
                for (w, s) in hits {
                    v[w] = s;
                }
                Step::Base(v)
            }),
            Just(Step::GotData),
            Just(Step::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The sparse page agrees with the dense model after every step.
        #[test]
        fn sparse_matches_dense_model(
            steps in proptest::collection::vec(step_strategy(), 1..80)
        ) {
            let mut p = PageMeta::default();
            let mut m = DenseModel::new(NODES);
            for step in &steps {
                match step {
                    Step::Notice(w, s) => {
                        p.add_notice(*w, *s);
                        m.add_notice(*w, *s);
                    }
                    Step::Applied(w, s) => {
                        p.mark_applied(*w, *s);
                        m.mark_applied(*w, *s);
                    }
                    Step::Base(version) => {
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
                prop_assert_eq!(p.npending, p.writers.iter().filter(|w| w.pending()).count());
                prop_assert!(p.writers.windows(2).all(|w| w[0].node < w[1].node));
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
                p.my_diffs.push((seq, Diff::default()));
            }
            let got: Vec<Seq> = p.my_diffs_between(from, to).iter().map(|(s, _)| *s).collect();
            prop_assert_eq!(got, linear_diffs_between(&p.my_diffs, from, to));
        }
    }

    #[test]
    fn fresh_page_owns_no_heap() {
        let p = PageMeta::default();
        assert_eq!(p.writers.capacity(), 0);
        assert_eq!(p.my_diffs.capacity(), 0);
        assert_eq!(p.undiffed.capacity(), 0);
        assert!(p.data.is_none() && p.twin.is_none() && p.fetch.is_none());
        // Neither a zero version entry nor a stale notice creates a writer.
        let mut p = p;
        p.mark_applied(7, 0);
        p.add_notice(7, 0);
        assert_eq!(p.writers.capacity(), 0);
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
        p.my_diffs.push((1, Diff::default()));
        p.my_diffs.push((4, Diff::default()));
        p.my_diffs.push((7, Diff::default()));
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
