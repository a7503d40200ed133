//! Run-length encoded page diffs.
//!
//! A diff records the words of a page that changed relative to its twin.
//! TreadMarks transmits diffs rather than whole pages, which both supports
//! multiple concurrent writers (each writer's diff covers only its own
//! words) and cuts data movement when only part of a page changes — the
//! effect behind the paper's SOR result, where TreadMarks moves far less
//! data than the bus-based machine because unchanged interior points never
//! leave their node.

use std::sync::Arc;

use crate::WORD;

/// Bytes compared at once while skipping unchanged regions (a whole number
/// of words, so a scan that starts word-aligned stays word-aligned).
const CHUNK: usize = 4 * WORD;

/// Length of the longest common whole-word prefix of two equally long,
/// whole-word buffers.
fn equal_prefix(a: &[u8], b: &[u8]) -> usize {
    let (a_chunks, b_chunks) = (a.as_chunks::<CHUNK>().0, b.as_chunks::<CHUNK>().0);
    let same = a_chunks.iter().zip(b_chunks).take_while(|(x, y)| x == y);
    let mut at = CHUNK * same.count();
    while at < a.len() && a[at..at + WORD] == b[at..at + WORD] {
        at += WORD;
    }
    at
}

/// Bytes of the run count that opens a diff's wire image.
const COUNT: usize = 4;
/// Bytes of the `(offset, length)` header in front of each run's data.
const RUN_HEADER: usize = 8;

fn le_u32(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes.try_into().expect("four bytes")) as usize
}

/// A run-length encoding of the changes made to a single page.
///
/// The encoding is the diff's wire image in one shared buffer: a `u32` run
/// count, then per run a `u32` byte offset within the page (word-aligned),
/// a `u32` length (a multiple of [`WORD`]) and that many replacement bytes,
/// runs ascending by offset. Cloning shares the buffer, so caching a diff,
/// serving it, broadcasting it and holding it in a fetch all cost a
/// reference count, whatever its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    wire: Arc<[u8]>,
}

impl Default for Diff {
    fn default() -> Self {
        Diff {
            wire: Arc::from([0u8; COUNT]),
        }
    }
}

impl Diff {
    /// Computes the word-granular diff turning `twin` into `current`.
    ///
    /// Equal regions are skipped four words at a time; only around a
    /// mismatch does the scan drop to words, so a mostly-unchanged page
    /// costs about a sixteenth of the word compares.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length or are not whole words.
    pub fn compute(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/page length mismatch");
        assert_eq!(twin.len() % WORD, 0, "page must be whole words");
        let len = twin.len();
        let differs = |at: usize| twin[at..at + WORD] != current[at..at + WORD];
        // Room for the common worst case, a fully rewritten page, up front.
        let mut wire = Vec::with_capacity(COUNT + RUN_HEADER + len);
        wire.extend_from_slice(&[0; COUNT]);
        let mut runs = 0u32;
        let mut at = 0;
        loop {
            at += equal_prefix(&twin[at..], &current[at..]);
            if at == len {
                break;
            }
            let start = at;
            while at < len && differs(at) {
                at += WORD;
            }
            wire.extend_from_slice(&(start as u32).to_le_bytes());
            wire.extend_from_slice(&((at - start) as u32).to_le_bytes());
            wire.extend_from_slice(&current[start..at]);
            runs += 1;
        }
        wire[..COUNT].copy_from_slice(&runs.to_le_bytes());
        Diff { wire: wire.into() }
    }

    /// The runs, ascending by offset: `(byte offset, replacement bytes)`.
    fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut rest = &self.wire[COUNT..];
        std::iter::from_fn(move || {
            let (header, tail) = rest.split_at_checked(RUN_HEADER)?;
            let (bytes, tail) = tail.split_at(le_u32(&header[4..]));
            rest = tail;
            Some((le_u32(&header[..4]), bytes))
        })
    }

    /// Applies the diff to a page buffer.
    ///
    /// # Panics
    ///
    /// Panics if a run falls outside the buffer.
    pub fn apply(&self, page: &mut [u8]) {
        for (start, bytes) in self.runs() {
            page[start..start + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// True when no words changed.
    pub fn is_empty(&self) -> bool {
        self.run_count() == 0
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        le_u32(&self.wire[..COUNT])
    }

    /// Number of modified bytes carried.
    pub fn data_bytes(&self) -> usize {
        self.wire.len() - COUNT - self.run_count() * RUN_HEADER
    }

    /// Wire size: per-run (offset, length) headers plus the data itself,
    /// plus a run count.
    pub fn wire_bytes(&self) -> usize {
        self.wire.len()
    }

    /// Does any run of `self` overlap any run of `other` (a write-write
    /// race between concurrent intervals)?
    pub fn overlaps(&self, other: &Diff) -> bool {
        // Runs are sorted by offset by construction; merge-scan.
        let (mut mine, mut theirs) = (self.runs().peekable(), other.runs().peekable());
        while let (Some(&(a, a_bytes)), Some(&(b, b_bytes))) = (mine.peek(), theirs.peek()) {
            if a + a_bytes.len() <= b {
                mine.next();
            } else if b + b_bytes.len() <= a {
                theirs.next();
            } else {
                return true;
            }
        }
        false
    }

    /// Whether `self` and `other` are the same allocation: one was cloned
    /// from the other, not rebuilt.
    #[cfg(test)]
    pub(crate) fn shares_buffer_with(&self, other: &Diff) -> bool {
        Arc::ptr_eq(&self.wire, &other.wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One contiguous run of modified bytes, as [`RunsModel`] stores it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Run {
        /// Byte offset within the page (word-aligned).
        offset: u32,
        /// Replacement bytes (length a multiple of [`WORD`]).
        bytes: Vec<u8>,
    }

    /// The encoding [`Diff`]'s flat buffer replaced — one owned vector per
    /// run — built by the word-at-a-time scan [`Diff::compute`] replaced.
    /// Kept as the reference the shared encoding and the chunked scan must
    /// match run for run and size for size.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct RunsModel {
        runs: Vec<Run>,
    }

    impl RunsModel {
        fn compute(twin: &[u8], current: &[u8]) -> RunsModel {
            let words = twin.len() / WORD;
            let mut runs = Vec::new();
            let mut w = 0;
            while w < words {
                let at = w * WORD;
                if twin[at..at + WORD] != current[at..at + WORD] {
                    let start = w;
                    while w < words && {
                        let a = w * WORD;
                        twin[a..a + WORD] != current[a..a + WORD]
                    } {
                        w += 1;
                    }
                    runs.push(Run {
                        offset: (start * WORD) as u32,
                        bytes: current[start * WORD..w * WORD].to_vec(),
                    });
                } else {
                    w += 1;
                }
            }
            RunsModel { runs }
        }

        fn apply(&self, page: &mut [u8]) {
            for run in &self.runs {
                let start = run.offset as usize;
                page[start..start + run.bytes.len()].copy_from_slice(&run.bytes);
            }
        }

        fn data_bytes(&self) -> usize {
            self.runs.iter().map(|r| r.bytes.len()).sum()
        }

        fn wire_bytes(&self) -> usize {
            4 + self.runs.len() * 8 + self.data_bytes()
        }

        fn overlaps(&self, other: &RunsModel) -> bool {
            let (mut i, mut j) = (0, 0);
            while i < self.runs.len() && j < other.runs.len() {
                let a = &self.runs[i];
                let b = &other.runs[j];
                let a_end = a.offset as usize + a.bytes.len();
                let b_end = b.offset as usize + b.bytes.len();
                if a_end <= b.offset as usize {
                    i += 1;
                } else if b_end <= a.offset as usize {
                    j += 1;
                } else {
                    return true;
                }
            }
            false
        }
    }

    /// The runs a [`Diff`] carries, in the model's form.
    fn runs_of(d: &Diff) -> RunsModel {
        let runs = d.runs().map(|(offset, bytes)| Run {
            offset: offset as u32,
            bytes: bytes.to_vec(),
        });
        RunsModel {
            runs: runs.collect(),
        }
    }

    /// A page of `words` words with the given word ranges rewritten.
    fn rewritten(words: usize, ranges: &[(usize, usize)]) -> (Vec<u8>, Vec<u8>) {
        let twin: Vec<u8> = (0..words * WORD).map(|i| (i * 7 + 1) as u8).collect();
        let mut cur = twin.clone();
        for &(start, len) in ranges {
            for b in &mut cur[start * WORD..(start + len).min(words) * WORD] {
                *b = !*b;
            }
        }
        (twin, cur)
    }

    #[test]
    fn chunked_scan_matches_word_scan_at_every_chunk_offset() {
        for words in [1, 3, 4, 5, 256, 1024] {
            // All equal, all different.
            let (twin, cur) = rewritten(words, &[]);
            assert_eq!(
                runs_of(&Diff::compute(&twin, &cur)),
                RunsModel::compute(&twin, &cur)
            );
            assert!(Diff::compute(&twin, &cur).is_empty());
            let (twin, cur) = rewritten(words, &[(0, words)]);
            assert_eq!(
                runs_of(&Diff::compute(&twin, &cur)),
                RunsModel::compute(&twin, &cur)
            );
            assert_eq!(Diff::compute(&twin, &cur).run_count(), 1);
            // A single word at each position of the first, a middle and the
            // last chunk; runs of every short length straddling boundaries.
            let near = |w: usize| w < 12 || w + 12 >= words || w.abs_diff(words / 2) < 6;
            for w in (0..words).filter(|&w| near(w)) {
                for len in 1..=9 {
                    let (twin, cur) = rewritten(words, &[(w, len)]);
                    let d = Diff::compute(&twin, &cur);
                    let by_words = RunsModel::compute(&twin, &cur);
                    assert_eq!(runs_of(&d), by_words, "{words} words, {len} at {w}");
                    assert_eq!(d.run_count(), 1);
                    assert_eq!(d.data_bytes(), len.min(words - w) * WORD);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Arbitrary run layouts on 1 KiB and 4 KiB pages.
        #[test]
        fn chunked_scan_matches_word_scan(
            big in any::<bool>(),
            ranges in proptest::collection::vec((0usize..1024, 1usize..40), 0..24),
        ) {
            let words = if big { 1024 } else { 256 };
            let ranges: Vec<_> = ranges.into_iter().map(|(s, l)| (s % words, l)).collect();
            let (twin, cur) = rewritten(words, &ranges);
            let d = Diff::compute(&twin, &cur);
            prop_assert_eq!(&runs_of(&d), &RunsModel::compute(&twin, &cur));
            let mut page = twin.clone();
            d.apply(&mut page);
            prop_assert_eq!(page, cur);
        }

        /// The shared flat encoding answers every question the per-run
        /// vectors did, for two writers of one twin.
        #[test]
        fn flat_encoding_matches_the_runs_model(
            big in any::<bool>(),
            mine in proptest::collection::vec((0usize..1024, 1usize..40), 0..12),
            theirs in proptest::collection::vec((0usize..1024, 1usize..40), 0..12),
        ) {
            let words = if big { 1024 } else { 256 };
            let clip = |r: Vec<(usize, usize)>| -> Vec<_> {
                r.into_iter().map(|(s, l)| (s % words, l)).collect()
            };
            let (twin, a) = rewritten(words, &clip(mine));
            let (_, b) = rewritten(words, &clip(theirs));
            let (da, db) = (Diff::compute(&twin, &a), Diff::compute(&twin, &b));
            let (ma, mb) = (RunsModel::compute(&twin, &a), RunsModel::compute(&twin, &b));
            for (d, m, cur) in [(&da, &ma, &a), (&db, &mb, &b)] {
                prop_assert_eq!(d.run_count(), m.runs.len());
                prop_assert_eq!(d.data_bytes(), m.data_bytes());
                prop_assert_eq!(d.wire_bytes(), m.wire_bytes());
                prop_assert_eq!(d.is_empty(), m.runs.is_empty());
                let (mut page, mut model_page) = (twin.clone(), twin.clone());
                d.apply(&mut page);
                m.apply(&mut model_page);
                prop_assert_eq!(&page, cur);
                prop_assert_eq!(&model_page, cur);
                prop_assert!(d.shares_buffer_with(&d.clone()));
            }
            prop_assert_eq!(da.overlaps(&db), ma.overlaps(&mb));
            prop_assert_eq!(db.overlaps(&da), mb.overlaps(&ma));
        }
    }

    fn page(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn identical_pages_empty_diff() {
        let a = page(&[1, 2, 3, 4]);
        let d = Diff::compute(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.data_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = page(&[1, 2, 3, 4]);
        let cur = page(&[1, 9, 3, 4]);
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.data_bytes(), WORD);
        let mut buf = twin.clone();
        d.apply(&mut buf);
        assert_eq!(buf, cur);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let twin = page(&[0; 8]);
        let cur = page(&[0, 5, 6, 7, 0, 0, 9, 0]);
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.run_count(), 2);
        let mut buf = twin.clone();
        d.apply(&mut buf);
        assert_eq!(buf, cur);
    }

    #[test]
    fn overlap_detection() {
        let base = page(&[0; 8]);
        let mut a = base.clone();
        a[4..8].copy_from_slice(&7u32.to_le_bytes());
        let mut b = base.clone();
        b[4..8].copy_from_slice(&9u32.to_le_bytes());
        let mut c = base.clone();
        c[12..16].copy_from_slice(&3u32.to_le_bytes());
        let da = Diff::compute(&base, &a);
        let db = Diff::compute(&base, &b);
        let dc = Diff::compute(&base, &c);
        assert!(da.overlaps(&db));
        assert!(!da.overlaps(&dc));
    }

    #[test]
    fn wire_size_accounts_headers() {
        let twin = page(&[0; 4]);
        let cur = page(&[1, 0, 1, 0]);
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.wire_bytes(), 4 + 2 * 8 + 2 * WORD);
    }

    /// Boundary audit: runs that touch without sharing a word are not a
    /// write-write race. `[4, 12)` ends exactly where `[12, 16)` begins.
    #[test]
    fn touching_runs_do_not_overlap() {
        let base = page(&[0; 8]);
        let mut a = base.clone();
        a[4..12].copy_from_slice(&page(&[7, 7]));
        let mut b = base.clone();
        b[12..16].copy_from_slice(&9u32.to_le_bytes());
        let da = Diff::compute(&base, &a);
        let db = Diff::compute(&base, &b);
        assert!(!da.overlaps(&db), "touching runs are not overlapping");
        assert!(!db.overlaps(&da), "overlap must be symmetric");
        // Shift b's run one word left so the ranges share word 2: overlap.
        let mut c = base.clone();
        c[8..12].copy_from_slice(&9u32.to_le_bytes());
        let dc = Diff::compute(&base, &c);
        assert!(da.overlaps(&dc));
        assert!(dc.overlaps(&da));
    }

    /// Boundary audit: the empty diff overlaps nothing (including itself)
    /// and costs exactly its run-count header on the wire.
    #[test]
    fn empty_diff_overlaps_nothing_and_has_header_only_wire_size() {
        let a = page(&[1, 2, 3, 4]);
        let empty = Diff::compute(&a, &a);
        let mut b = a.clone();
        b[0..4].copy_from_slice(&9u32.to_le_bytes());
        let full = Diff::compute(&a, &b);
        assert!(!empty.overlaps(&empty));
        assert!(!empty.overlaps(&full));
        assert!(!full.overlaps(&empty));
        assert_eq!(empty.wire_bytes(), 4);
        assert_eq!(empty.run_count(), 0);
    }

    /// Boundary audit: first-word and last-word runs survive a diff/apply
    /// round trip and are detected at the page edges.
    #[test]
    fn page_edge_runs_round_trip() {
        let twin = page(&[0; 4]);
        let cur = page(&[5, 0, 0, 6]);
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.run_count(), 2);
        assert_eq!(d.data_bytes(), 2 * WORD);
        let mut buf = twin.clone();
        d.apply(&mut buf);
        assert_eq!(buf, cur);
        // Whole-page change: one run covering everything.
        let all = page(&[9, 9, 9, 9]);
        let d = Diff::compute(&twin, &all);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.data_bytes(), 4 * WORD);
        assert_eq!(d.wire_bytes(), 4 + 8 + 4 * WORD);
    }
}
