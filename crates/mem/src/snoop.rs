//! An Illinois-protocol snooping bus (MESI with cache-to-cache supply).
//!
//! This is the SGI 4D/480 side of the experimental comparison and the
//! intra-node fabric of the paper's HS design: per-processor write-back
//! caches kept coherent by snooping a single shared split-transaction bus.
//! Bus contention — the effect that lets TreadMarks beat the SGI on SOR —
//! is modelled by occupancy reservation on the one shared resource.

use std::ops::Range;

use tmk_sim::Cycle;
use tmk_trace::{Event, EventKind, Sink, Track};

use crate::cache::{
    fill_word, hit_run_in, holds, probe_word, set_state_in, state_in, CacheStats, DirectCache,
    LineState, Probe,
};
use crate::{set_bits, CacheParams, LineAddr};

/// Latency/occupancy parameters of the bus, in processor cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusParams {
    /// Arbitration + address phase per transaction.
    pub transaction: Cycle,
    /// Data phase: moving one cache block across the bus.
    pub block_transfer: Cycle,
    /// Extra latency when main memory supplies the block.
    pub memory: Cycle,
    /// Extra latency when another cache supplies the block.
    pub cache_to_cache: Cycle,
}

impl BusParams {
    /// SGI 4D/480-like: 16 MHz 64-bit bus under 40 MHz processors
    /// (2.5 processor cycles per bus cycle), 32-byte secondary blocks:
    /// ~6 bus cycles of arbitration/address, 4 of data, slowish DRAM.
    pub fn sgi_4d480() -> Self {
        BusParams {
            transaction: 10,
            block_transfer: 8,
            memory: 12,
            cache_to_cache: 5,
        }
    }

    /// HS node bus: 50 MHz 64-bit split-transaction under 100 MHz
    /// processors, 64-byte blocks, "sufficient bandwidth to avoid
    /// contention" per the paper. Phases are chosen so a local miss costs
    /// ~22 cycles — "slightly longer than the AH and AS models (20 cycles) because
    /// of bus overhead".
    pub fn hs_node() -> Self {
        BusParams {
            transaction: 2,
            block_transfer: 4,
            memory: 16,
            cache_to_cache: 4,
        }
    }
}

/// Aggregate bus counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Bus transactions issued.
    pub transactions: u64,
    /// Cycles the bus was occupied.
    pub busy_cycles: u64,
    /// Blocks supplied cache-to-cache.
    pub cache_supplies: u64,
    /// Blocks supplied by memory.
    pub memory_supplies: u64,
    /// Snoop invalidations performed.
    pub invalidations: u64,
    /// Dirty blocks written back (evictions and downgrades).
    pub writebacks: u64,
    /// Bytes moved across the bus.
    pub data_bytes: u64,
}

/// Outcome of one coherent access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopAccess {
    /// Cycle at which the access completes.
    pub done: Cycle,
    /// Whether it hit in the local cache (no bus transaction).
    pub hit: bool,
    /// Bitmask of the *other* processors whose copy of the line was
    /// invalidated — the machine layer uses it to keep primary caches in
    /// sync.
    pub invalidated: u64,
}

/// The shared bus plus the per-processor caches snooping it.
///
/// The caches' tags are one set-major array of [`DirectCache`]'s tag words
/// (the line address above its [`LineState`]): cache `q`'s copy of set `s`
/// is `tags[s * procs + q]`, so a snoop reads one row of adjacent words.
#[derive(Debug, Clone)]
pub struct SnoopBus {
    tags: Vec<u64>,
    /// Each cache's counters, by processor.
    cache_stats: Vec<CacheStats>,
    procs: usize,
    /// The set count less one (a power of two).
    mask: usize,
    cache: CacheParams,
    params: BusParams,
    free_at: Cycle,
    stats: BusStats,
    sink: Sink,
    track: u32,
}

impl SnoopBus {
    /// A bus with `procs` caches of geometry `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `procs > 64` (invalidation sets are 64-bit masks).
    pub fn new(procs: usize, cache: CacheParams, params: BusParams) -> Self {
        assert!(
            procs <= 64,
            "invalidation bitmask supports up to 64 processors"
        );
        SnoopBus {
            tags: vec![0; cache.sets() * procs],
            cache_stats: vec![CacheStats::default(); procs],
            procs,
            mask: cache.sets() - 1,
            cache,
            params,
            free_at: 0,
            stats: BusStats::default(),
            sink: Sink::default(),
            track: 0,
        }
    }

    /// Attaches a trace sink; bus transactions (misses and upgrades — hits
    /// are silent) appear on bus track `track`. Tracing never alters
    /// timing.
    pub fn set_tracer(&mut self, sink: Sink, track: u32) {
        self.sink = sink;
        self.track = track;
    }

    fn trace_txn(&self, write: bool, at: Cycle, dur: Cycle) {
        self.sink.emit(Event {
            track: Track::Bus(self.track),
            at,
            dur,
            kind: EventKind::BusTxn { write },
        });
    }

    /// The geometry of the attached caches.
    pub fn cache_params(&self) -> CacheParams {
        self.cache
    }

    /// Bus counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// The processors' cache counters, by processor.
    pub fn cache_stats(&self) -> &[CacheStats] {
        &self.cache_stats
    }

    /// The state of `line` in `proc`'s cache (`Invalid` if absent).
    pub fn state_of(&self, proc: usize, line: LineAddr) -> LineState {
        state_in(self.tags[self.row(line) + proc], line)
    }

    /// The index of `line`'s set's row in `tags`.
    fn row(&self, line: LineAddr) -> usize {
        (line as usize & self.mask) * self.procs
    }

    /// The caches holding `line` in a valid state, as a mask: one pass
    /// over the set's row comparing raw tag words.
    fn holders(&self, row: usize, line: LineAddr) -> u64 {
        (self.tags[row..row + self.procs].iter())
            .enumerate()
            .fold(0, |mask, (q, &word)| {
                mask | u64::from(holds(word, line)) << q
            })
    }

    /// [`DirectCache::hit_run`] on `proc`'s cache.
    fn hit_run(&mut self, proc: usize, lines: Range<LineAddr>, write: bool) -> u64 {
        let stats = &mut self.cache_stats[proc];
        hit_run_in(
            &mut self.tags,
            self.procs,
            proc,
            self.mask,
            stats,
            lines,
            write,
        )
    }

    /// Charges `proc` touching `len` bytes at `addr` from `now`: one
    /// coherent access per line, each taking one cycle once it is done (a
    /// hit is done at once). Returns the completion time.
    pub fn charge_range(
        &mut self,
        proc: usize,
        addr: usize,
        len: usize,
        write: bool,
        now: Cycle,
    ) -> Cycle {
        let mut lines = self.cache.lines_of(addr, len);
        let mut t = now;
        loop {
            let hits = self.hit_run(proc, lines.clone(), write);
            (t, lines.start) = (t + hits, lines.start + hits);
            let Some(line) = lines.next() else {
                return t;
            };
            t = self.access(proc, line, write, t).done + 1;
        }
    }

    /// Charges `proc` touching `len` bytes at `addr` from `now` through a
    /// write-through primary cache (with a write buffer) in front of its
    /// cache on this bus: the SGI 4D/480's two levels. Every write reaches
    /// the bus cache, where ownership is established, and costs one cycle
    /// once that access is done; a read reaches it only when it misses in
    /// the primary, which it then fills, and costs `next_hit` cycles more.
    /// A write that invalidates another processor's copy invalidates that
    /// processor's primary copy too. `primaries` are indexed by processor
    /// and line addresses are this bus's. Returns the completion time.
    #[allow(clippy::too_many_arguments)]
    pub fn charge_two_level(
        &mut self,
        primaries: &mut [DirectCache],
        proc: usize,
        addr: usize,
        len: usize,
        write: bool,
        next_hit: Cycle,
        now: Cycle,
    ) -> Cycle {
        let mut lines = self.cache.lines_of(addr, len);
        let mut t = now;
        loop {
            let hits = if write {
                self.hit_run(proc, lines.clone(), true)
            } else {
                primaries[proc].hit_run(lines.clone(), false)
            };
            (t, lines.start) = (t + hits, lines.start + hits);
            let Some(line) = lines.next() else {
                return t;
            };
            if !write {
                primaries[proc].probe(line, false);
            }
            let r = self.access(proc, line, write, t);
            for q in set_bits(r.invalidated) {
                primaries[q].invalidate(line);
            }
            t = if write {
                r.done + 1
            } else {
                primaries[proc].fill(line, LineState::Shared);
                r.done + next_hit
            };
        }
    }

    /// Performs a coherent access by `proc` to `line` at time `now`.
    pub fn access(&mut self, proc: usize, line: LineAddr, write: bool, now: Cycle) -> SnoopAccess {
        let i = self.row(line) + proc;
        match probe_word(&mut self.tags[i], &mut self.cache_stats[proc], line, write) {
            Probe::Hit => SnoopAccess {
                done: now,
                hit: true,
                invalidated: 0,
            },
            Probe::UpgradeMiss => self.upgrade(proc, line, now),
            Probe::Miss => self.miss(proc, line, write, now),
        }
    }

    #[inline(never)]
    fn upgrade(&mut self, proc: usize, line: LineAddr, now: Cycle) -> SnoopAccess {
        let start = self.grab_bus(now, self.params.transaction);
        self.trace_txn(true, start, self.params.transaction);
        let row = self.row(line);
        let invalidated = self.invalidate(row, line, self.holders(row, line) & !(1 << proc));
        set_state_in(&mut self.tags[row + proc], line, LineState::Modified);
        SnoopAccess {
            done: start + self.params.transaction,
            hit: false,
            invalidated,
        }
    }

    #[inline(never)]
    fn miss(&mut self, proc: usize, line: LineAddr, write: bool, now: Cycle) -> SnoopAccess {
        let p = self.params;
        let mut occupancy = p.transaction + p.block_transfer;

        // Snoop: which other caches hold the line? (The requester's own
        // probe just missed, so it is not among them.)
        let row = self.row(line);
        let held = self.holders(row, line);

        let mut latency = p.transaction + p.block_transfer;
        let mut invalidated = 0;
        if held != 0 {
            // The lowest-numbered holder supplies the block.
            let supplier = state_in(self.tags[row + held.trailing_zeros() as usize], line);
            latency += p.cache_to_cache;
            self.stats.cache_supplies += 1;
            if write {
                invalidated = self.invalidate(row, line, held);
            } else {
                // Illinois: supplier (and everyone else) downgrades to
                // Shared; a dirty supplier writes memory back too.
                for q in set_bits(held) {
                    set_state_in(&mut self.tags[row + q], line, LineState::Shared);
                }
            }
            if supplier == LineState::Modified {
                self.stats.writebacks += 1;
                occupancy += p.block_transfer;
            }
        } else {
            latency += p.memory;
            self.stats.memory_supplies += 1;
        }

        let fill_state = if write {
            LineState::Modified
        } else if held != 0 {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        let victim = fill_word(
            &mut self.tags[row + proc],
            &mut self.cache_stats[proc],
            line,
            fill_state,
        );
        if let Some((_, LineState::Modified)) = victim {
            self.stats.writebacks += 1;
            occupancy += p.block_transfer;
            self.stats.data_bytes += self.cache.block as u64;
        }
        self.stats.data_bytes += self.cache.block as u64;

        let start = self.grab_bus(now, occupancy);
        self.trace_txn(write, start, occupancy);
        SnoopAccess {
            done: start + latency,
            hit: false,
            invalidated,
        }
    }

    /// Invalidates `line` in the caches of `mask` (which all hold it) in
    /// the set at `row`; returns `mask`.
    fn invalidate(&mut self, row: usize, line: LineAddr, mask: u64) -> u64 {
        for q in set_bits(mask) {
            let word = &mut self.tags[row + q];
            if state_in(*word, line) == LineState::Modified {
                self.stats.writebacks += 1;
                self.stats.data_bytes += self.cache.block as u64;
            }
            set_state_in(word, line, LineState::Invalid);
            self.stats.invalidations += 1;
        }
        mask
    }

    /// Drops `line` from every cache without a bus transaction — used by
    /// the hybrid machine when DSM traffic rewrites node memory underneath
    /// the caches (the paper assumes intra-node cache/TLB coherence).
    pub fn purge_line(&mut self, line: LineAddr) {
        let row = self.row(line);
        for word in &mut self.tags[row..row + self.procs] {
            set_state_in(word, line, LineState::Invalid);
        }
    }

    /// Reserves the bus for `occupancy` cycles; returns the start time.
    fn grab_bus(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        let start = now.max(self.free_at);
        self.free_at = start + occupancy;
        self.stats.transactions += 1;
        self.stats.busy_cycles += occupancy;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(procs: usize) -> SnoopBus {
        SnoopBus::new(procs, CacheParams::new(1024, 64), BusParams::sgi_4d480())
    }

    #[test]
    fn cold_read_comes_from_memory_as_exclusive() {
        let mut b = bus(2);
        let p = BusParams::sgi_4d480();
        let r = b.access(0, 5, false, 100);
        assert!(!r.hit);
        assert_eq!(r.done, 100 + p.transaction + p.block_transfer + p.memory);
        assert_eq!(b.stats().memory_supplies, 1);
        // Second access hits.
        let r2 = b.access(0, 5, false, r.done);
        assert!(r2.hit);
        // Exclusive: a subsequent write is silent.
        let r3 = b.access(0, 5, true, r2.done);
        assert!(r3.hit);
    }

    #[test]
    fn read_of_remote_line_is_cache_to_cache_shared() {
        let mut b = bus(2);
        b.access(0, 5, true, 0); // proc 0 holds Modified
        let r = b.access(1, 5, false, 1000);
        assert!(!r.hit);
        assert_eq!(b.stats().cache_supplies, 1);
        assert_eq!(b.stats().writebacks, 1, "dirty supplier writes back");
        // Both now Shared: a write by proc 0 needs an upgrade.
        let r2 = b.access(0, 5, true, r.done);
        assert!(!r2.hit);
        assert_eq!(r2.invalidated, 1 << 1);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut b = bus(3);
        b.access(0, 7, false, 0);
        b.access(1, 7, false, 100);
        let r = b.access(2, 7, true, 200);
        assert_eq!(r.invalidated, 0b011);
        assert!(b.stats().invalidations >= 2);
    }

    #[test]
    fn bus_contention_serializes_misses() {
        let mut b = bus(2);
        let r0 = b.access(0, 1, false, 0);
        let r1 = b.access(1, 2, false, 0);
        // Same bus: the second transaction waits for the first's occupancy.
        assert!(r1.done > r0.done);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut b = bus(1);
        b.access(0, 2, true, 0); // Modified
        let before = b.stats().writebacks;
        b.access(0, 18, false, 100); // conflicts in a 16-set cache
        assert_eq!(b.stats().writebacks, before + 1);
    }
}
