//! Direct-mapped cache tag/state arrays.

use std::ops::Range;

use tmk_sim::Cycle;

use crate::LineAddr;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: usize,
    /// Block (line) size in bytes.
    pub block: usize,
}

impl CacheParams {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless both values are powers of two with `block <= size`.
    pub fn new(size: usize, block: usize) -> Self {
        assert!(size.is_power_of_two() && block.is_power_of_two() && block <= size);
        CacheParams { size, block }
    }

    /// Number of sets (direct-mapped: one line per set).
    pub fn sets(&self) -> usize {
        self.size / self.block
    }

    /// The line address containing a byte address (`block` is a power of
    /// two, so this is a shift).
    pub fn line_of(&self, addr: usize) -> LineAddr {
        (addr >> self.block.trailing_zeros()) as LineAddr
    }

    /// The line addresses touched by `len` bytes at `addr` (one line when
    /// `len == 0`).
    pub fn lines_of(&self, addr: usize, len: usize) -> Range<LineAddr> {
        self.line_of(addr)..self.line_of(addr + len.max(1) - 1) + 1
    }
}

/// MESI line states (the Illinois protocol's four states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Clean, possibly cached elsewhere.
    Shared,
    /// Clean, only copy.
    Exclusive,
    /// Dirty, only copy.
    Modified,
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit with sufficient permission.
    pub hits: u64,
    /// Accesses that missed (not present).
    pub misses: u64,
    /// Write accesses that hit a Shared line (upgrade needed).
    pub upgrades: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
    /// Displaced lines that were Modified (write-back needed).
    pub dirty_evictions: u64,
}

/// A direct-mapped cache: tags and coherence states only (data lives in the
/// machine's canonical memory image).
#[derive(Debug, Clone)]
pub struct DirectCache {
    params: CacheParams,
    /// One word per set: the resident line's address above its
    /// [`LineState`] in the low [`STATE_BITS`]. A set is empty when that
    /// state is `Invalid`, as in the all-zero word it starts with.
    sets: Vec<u64>,
    /// `sets.len() - 1`; the set count is a power of two.
    mask: usize,
    stats: CacheStats,
}

const STATE_BITS: u32 = 2;
/// Indexed by discriminant.
const STATES: [LineState; 4] = [
    LineState::Invalid,
    LineState::Shared,
    LineState::Exclusive,
    LineState::Modified,
];

fn pack(line: LineAddr, state: LineState) -> u64 {
    debug_assert!(
        line >> (64 - STATE_BITS) == 0,
        "line address overflows the tag word"
    );
    line << STATE_BITS | state as u64
}

fn unpack(word: u64) -> (LineAddr, LineState) {
    (
        word >> STATE_BITS,
        STATES[(word & ((1 << STATE_BITS) - 1)) as usize],
    )
}

// One set's tag word, shared by [`DirectCache`] (one word per set) and the
// snooping bus (one word per set and cache, set-major): every state change
// of a cache line is written once, here.

/// The state of `line` in a set holding `word` (`Invalid` if another line
/// or none is resident).
pub(crate) fn state_in(word: u64, line: LineAddr) -> LineState {
    match unpack(word) {
        (resident, state) if resident == line => state,
        _ => LineState::Invalid,
    }
}

/// Whether `word` holds `line` in a valid state: the tag bits equal and the
/// state bits not `Invalid` (0), which is `word ^ line << 2` in `1..=3`.
pub(crate) fn holds(word: u64, line: LineAddr) -> bool {
    (word ^ line << STATE_BITS).wrapping_sub(1) < 3
}

/// [`DirectCache::probe`] on one set's word and its cache's counters.
pub(crate) fn probe_word(
    word: &mut u64,
    stats: &mut CacheStats,
    line: LineAddr,
    write: bool,
) -> Probe {
    match state_in(*word, line) {
        LineState::Invalid => {
            stats.misses += 1;
            Probe::Miss
        }
        LineState::Shared if write => {
            stats.upgrades += 1;
            Probe::UpgradeMiss
        }
        _ => {
            stats.hits += 1;
            if write {
                // A write to an Exclusive line silently becomes Modified.
                *word = pack(line, LineState::Modified);
            }
            Probe::Hit
        }
    }
}

/// [`DirectCache::fill`] on one set's word and its cache's counters.
pub(crate) fn fill_word(
    word: &mut u64,
    stats: &mut CacheStats,
    line: LineAddr,
    state: LineState,
) -> Option<(LineAddr, LineState)> {
    debug_assert_ne!(state, LineState::Invalid);
    let (old, vstate) = unpack(*word);
    *word = pack(line, state);
    if vstate == LineState::Invalid || old == line {
        return None;
    }
    stats.evictions += 1;
    if vstate == LineState::Modified {
        stats.dirty_evictions += 1;
    }
    Some((old, vstate))
}

/// [`DirectCache::set_state`] on one set's word.
pub(crate) fn set_state_in(word: &mut u64, line: LineAddr, state: LineState) {
    if state_in(*word, line) != LineState::Invalid {
        *word = pack(line, state);
    }
}

/// [`DirectCache::hit_run`] over the words of one cache: set `s`'s word is
/// `words[s * stride + lane]`, and `mask` is the set count less one.
#[inline]
pub(crate) fn hit_run_in(
    words: &mut [u64],
    stride: usize,
    lane: usize,
    mask: usize,
    stats: &mut CacheStats,
    lines: Range<LineAddr>,
    write: bool,
) -> u64 {
    // A read hits in any valid state (`x` in 1..=3), a write only in
    // Exclusive or Modified (2..=3), where the word becomes Modified. The
    // run walks the window of sets its lines map to, in at most two slices
    // (it wraps past the last set at most once: a run of hits is never
    // longer than the cache).
    let lowest = if write { 2 } else { 1 };
    let mut line = lines.start;
    'run: while line < lines.end {
        let s = line as usize & mask;
        let take = ((lines.end - line) as usize).min(mask + 1 - s);
        for word in words[s * stride + lane..]
            .iter_mut()
            .step_by(stride)
            .take(take)
        {
            let x = *word ^ line << STATE_BITS;
            if x.wrapping_sub(lowest) > 3 - lowest {
                break 'run;
            }
            if write {
                *word |= LineState::Modified as u64;
            }
            line += 1;
        }
    }
    let n = line - lines.start;
    stats.hits += n;
    n
}

/// Result of a [`DirectCache::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Present with enough permission for the access.
    Hit,
    /// Present as Shared but the access is a write: ownership upgrade.
    UpgradeMiss,
    /// Not present.
    Miss,
}

impl DirectCache {
    /// An empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless the set count and the block size are powers of two.
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        assert!(sets.is_power_of_two() && params.block.is_power_of_two());
        DirectCache {
            params,
            sets: vec![0; sets],
            mask: sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_of(&self, line: LineAddr) -> usize {
        line as usize & self.mask
    }

    /// The current state of `line` (`Invalid` if absent).
    pub fn state_of(&self, line: LineAddr) -> LineState {
        state_in(self.sets[self.set_of(line)], line)
    }

    /// Classifies an access and updates hit/miss counters. Does not change
    /// tag state; callers follow up with [`fill`](Self::fill) /
    /// [`set_state`](Self::set_state) according to the coherence protocol.
    pub fn probe(&mut self, line: LineAddr, write: bool) -> Probe {
        let s = self.set_of(line);
        probe_word(&mut self.sets[s], &mut self.stats, line, write)
    }

    /// Probes `lines` in order while each hits and returns how many did:
    /// exactly [`probe`](Self::probe)'s effect on the counters and tags of
    /// those lines (a write to an Exclusive line leaves it Modified; a write
    /// to a Shared line is not a hit). The first line that does not hit is
    /// left unprobed.
    pub fn hit_run(&mut self, lines: Range<LineAddr>, write: bool) -> u64 {
        hit_run_in(
            &mut self.sets,
            1,
            0,
            self.mask,
            &mut self.stats,
            lines,
            write,
        )
    }

    /// Installs `line` in `state`, returning the displaced line (and its
    /// state) if the set was occupied by a different line.
    pub fn fill(&mut self, line: LineAddr, state: LineState) -> Option<(LineAddr, LineState)> {
        let s = self.set_of(line);
        fill_word(&mut self.sets[s], &mut self.stats, line, state)
    }

    /// Changes the state of a present line (no-op if absent).
    pub fn set_state(&mut self, line: LineAddr, state: LineState) {
        let s = self.set_of(line);
        set_state_in(&mut self.sets[s], line, state);
    }

    /// Removes a line (snoop invalidation).
    pub fn invalidate(&mut self, line: LineAddr) {
        self.set_state(line, LineState::Invalid);
    }

    /// Charges `len` bytes at `addr` against this cache as a write-through
    /// primary with a write buffer in front of private memory: a read hit
    /// costs one cycle, a read miss fills the line and adds
    /// `memory_latency`, a write costs one cycle and updates the line if
    /// present (no write-allocate). Returns the completion time.
    pub fn charge_range(
        &mut self,
        addr: usize,
        len: usize,
        write: bool,
        memory_latency: Cycle,
        now: Cycle,
    ) -> Cycle {
        self.params.lines_of(addr, len).fold(now, |t, line| {
            if self.probe(line, false) == Probe::Hit || write {
                t + 1
            } else {
                self.fill(line, LineState::Shared);
                t + 1 + memory_latency
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> DirectCache {
        DirectCache::new(CacheParams::new(1024, 64)) // 16 sets
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        assert_eq!(c.probe(5, false), Probe::Miss);
        assert!(c.fill(5, LineState::Shared).is_none());
        assert_eq!(c.probe(5, false), Probe::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_to_shared_is_upgrade() {
        let mut c = cache();
        c.fill(7, LineState::Shared);
        assert_eq!(c.probe(7, true), Probe::UpgradeMiss);
        c.set_state(7, LineState::Modified);
        assert_eq!(c.probe(7, true), Probe::Hit);
    }

    #[test]
    fn exclusive_write_silently_modifies() {
        let mut c = cache();
        c.fill(3, LineState::Exclusive);
        assert_eq!(c.probe(3, true), Probe::Hit);
        assert_eq!(c.state_of(3), LineState::Modified);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = cache(); // 16 sets: lines 2 and 18 conflict
        c.fill(2, LineState::Modified);
        let victim = c.fill(18, LineState::Shared);
        assert_eq!(victim, Some((2, LineState::Modified)));
        assert_eq!(c.state_of(2), LineState::Invalid);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn refill_same_line_is_not_eviction() {
        let mut c = cache();
        c.fill(2, LineState::Shared);
        assert!(c.fill(2, LineState::Modified).is_none());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn lines_of_ranges() {
        let p = CacheParams::new(1024, 64);
        let lines: Vec<_> = p.lines_of(60, 8).collect();
        assert_eq!(lines, vec![0, 1]);
        let lines: Vec<_> = p.lines_of(64, 64).collect();
        assert_eq!(lines, vec![1]);
        assert_eq!(p.lines_of(0, 0).count(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = cache();
        c.fill(9, LineState::Exclusive);
        c.invalidate(9);
        assert_eq!(c.state_of(9), LineState::Invalid);
        assert_eq!(c.probe(9, false), Probe::Miss);
    }
}
