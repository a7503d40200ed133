//! A full-map directory cache-coherence protocol (the paper's all-hardware
//! design), with DASH/FLASH-like latency bands.
//!
//! Every line has a *home* node (address-interleaved). The home's directory
//! entry tracks the owner (if dirty) or the sharer set (if clean). The paper
//! deliberately used a crossbar "to minimize the effect of network
//! contention", so latencies here are fixed bands — local miss, remote
//! clean miss, remote dirty (three-hop) miss — rather than occupancy-based.

use std::ops::Range;

use tmk_sim::Cycle;
use tmk_trace::{Event, EventKind, Sink, Track};

use crate::cache::{DirectCache, LineState, Probe};
use crate::{CacheParams, LineAddr};

/// Latency bands in processor cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryParams {
    /// Miss satisfied by the local memory module.
    pub local: Cycle,
    /// Miss satisfied by a remote home whose copy is clean.
    pub remote_clean: Cycle,
    /// Miss requiring a third-hop fetch from a dirty remote owner.
    pub remote_dirty: Cycle,
    /// Latency of an ownership upgrade (invalidations round-trip).
    pub upgrade: Cycle,
}

impl DirectoryParams {
    /// The paper's simulation-study bands: local miss 20 cycles; remote
    /// misses "90 to 130 cycles depending on the block's location and
    /// whether it has been modified" (DASH/FLASH-like).
    pub fn isca94() -> Self {
        DirectoryParams {
            local: 20,
            remote_clean: 90,
            remote_dirty: 130,
            upgrade: 70,
        }
    }
}

/// Directory protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Misses satisfied locally.
    pub local_misses: u64,
    /// Misses satisfied by a remote clean copy.
    pub remote_clean_misses: u64,
    /// Misses requiring a dirty third hop.
    pub remote_dirty_misses: u64,
    /// Ownership upgrades.
    pub upgrades: u64,
    /// Invalidation messages sent to sharers.
    pub invalidations: u64,
    /// Bytes moved between nodes (block transfers).
    pub remote_bytes: u64,
}

/// One line's directory state, `(sharers, owner)`: the bitmask of nodes
/// holding clean copies, and the node holding the line dirty *plus one* (0
/// when memory is up to date). An owned line has no sharers. A tuple of
/// primitives, so `vec![UNCACHED; n]` is a zeroed allocation that the OS
/// backs only as lines are touched.
type Entry = (u64, u8);

const UNCACHED: Entry = (0, 0);

fn owned_by(node: usize) -> Entry {
    (0, node as u8 + 1)
}

/// Outcome of one directory-coherent access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirAccess {
    /// Completion time.
    pub done: Cycle,
    /// Whether it hit locally.
    pub hit: bool,
    /// Bitmask of the nodes whose copy of the line was invalidated.
    pub invalidated: u64,
}

/// The directory state plus all nodes' caches.
#[derive(Debug, Clone)]
pub struct Directory {
    caches: Vec<DirectCache>,
    /// Indexed by line address; lines past the end are uncached.
    entries: Vec<Entry>,
    cache: CacheParams,
    params: DirectoryParams,
    stats: DirectoryStats,
    sink: Sink,
}

impl Directory {
    /// A directory machine with `nodes` caches of geometry `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes > 64` (sharer sets are 64-bit masks).
    pub fn new(nodes: usize, cache: CacheParams, params: DirectoryParams) -> Self {
        assert!(nodes <= 64, "full-map bitmask supports up to 64 nodes");
        Directory {
            caches: (0..nodes).map(|_| DirectCache::new(cache)).collect(),
            entries: Vec::new(),
            cache,
            params,
            stats: DirectoryStats::default(),
            sink: Sink::default(),
        }
    }

    /// Sizes a new directory for a memory of `bytes` bytes up front. A hint:
    /// the directory otherwise grows to the highest line accessed.
    pub fn with_memory(mut self, bytes: usize) -> Self {
        if self.entries.is_empty() {
            self.entries = vec![UNCACHED; bytes.div_ceil(self.cache.block)];
        }
        self
    }

    /// Attaches a trace sink; directory transactions (misses and upgrades)
    /// appear on bus track 0. Tracing never alters timing.
    pub fn set_tracer(&mut self, sink: Sink) {
        self.sink = sink;
    }

    fn trace_txn(&self, write: bool, at: Cycle, dur: Cycle) {
        self.sink.emit(Event {
            track: Track::Bus(0),
            at,
            dur,
            kind: EventKind::DirTxn { write },
        });
    }

    /// The home node of a line (address-interleaved).
    pub fn home_of(&self, line: LineAddr) -> usize {
        (line as usize) % self.caches.len()
    }

    /// Protocol counters.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// The nodes' caches, by node.
    pub fn caches(&self) -> &[DirectCache] {
        &self.caches
    }

    /// The entries of a run of lines, growing the directory to hold them.
    fn entries(&mut self, lines: Range<usize>) -> &mut [Entry] {
        if lines.end > self.entries.len() {
            self.entries.resize(lines.end, UNCACHED);
        }
        &mut self.entries[lines]
    }

    fn entry(&mut self, line: LineAddr) -> &mut Entry {
        let i = line as usize;
        &mut self.entries(i..i + 1)[0]
    }

    /// Charges `node` touching `len` bytes at `addr` from `now`: one
    /// coherent access per line, each taking one cycle once it is done (a
    /// hit is done at once). Returns the completion time.
    pub fn charge_range(
        &mut self,
        node: usize,
        addr: usize,
        len: usize,
        write: bool,
        now: Cycle,
    ) -> Cycle {
        let mut lines = self.cache.lines_of(addr, len);
        let mut t = now;
        loop {
            let hits = self.caches[node].hit_run(lines.clone(), write);
            if write && hits > 0 {
                // Each silent E→M transition of the run reaches the owner
                // field, as in `access`.
                let run = lines.start as usize..(lines.start + hits) as usize;
                self.entries(run).fill(owned_by(node));
            }
            (t, lines.start) = (t + hits, lines.start + hits);
            let Some(line) = lines.next() else {
                return t;
            };
            t = self.access(node, line, write, t).done + 1;
        }
    }

    /// Performs a coherent access by `node` to `line` at `now`.
    pub fn access(&mut self, node: usize, line: LineAddr, write: bool, now: Cycle) -> DirAccess {
        match self.caches[node].probe(line, write) {
            Probe::Hit => {
                // A silent E→M transition must reach the directory owner
                // field so later requests take the dirty path.
                if write {
                    *self.entry(line) = owned_by(node);
                }
                DirAccess {
                    done: now,
                    hit: true,
                    invalidated: 0,
                }
            }
            Probe::UpgradeMiss => self.upgrade(node, line, now),
            Probe::Miss => self.miss(node, line, write, now),
        }
    }

    #[inline(never)]
    fn upgrade(&mut self, node: usize, line: LineAddr, now: Cycle) -> DirAccess {
        self.stats.upgrades += 1;
        self.trace_txn(true, now, self.params.upgrade);
        let invalidated = self.invalidate_sharers(line, node);
        *self.entry(line) = owned_by(node);
        self.caches[node].set_state(line, LineState::Modified);
        DirAccess {
            done: now + self.params.upgrade,
            hit: false,
            invalidated,
        }
    }

    #[inline(never)]
    fn miss(&mut self, node: usize, line: LineAddr, write: bool, now: Cycle) -> DirAccess {
        let home = self.home_of(line);
        let (sharers, owner) = *self.entry(line);

        let mut invalidated = 0;
        let latency = match (owner as usize).checked_sub(1) {
            Some(owner) if owner != node => {
                // Three-hop: fetch from the dirty owner.
                self.stats.remote_dirty_misses += 1;
                self.stats.remote_bytes += 2 * self.cache.block as u64;
                if write {
                    self.caches[owner].invalidate(line);
                    self.stats.invalidations += 1;
                    invalidated = 1 << owner;
                } else {
                    self.caches[owner].set_state(line, LineState::Shared);
                }
                self.params.remote_dirty
            }
            _ => {
                if write {
                    invalidated = self.invalidate_sharers(line, node);
                } else {
                    // A second reader downgrades any Exclusive holder.
                    for q in crate::set_bits(sharers) {
                        if self.caches[q].state_of(line) == LineState::Exclusive {
                            self.caches[q].set_state(line, LineState::Shared);
                        }
                    }
                }
                if home == node {
                    self.stats.local_misses += 1;
                    self.params.local
                } else {
                    self.stats.remote_clean_misses += 1;
                    self.stats.remote_bytes += self.cache.block as u64;
                    self.params.remote_clean
                }
            }
        };

        // Update the directory entry and fill the cache. A former owner was
        // downgraded to a sharer above.
        let new_entry = if write {
            owned_by(node)
        } else {
            let former = if owner == 0 { 0 } else { 1 << (owner - 1) };
            (sharers | former | 1 << node, 0)
        };
        *self.entry(line) = new_entry;

        let fill_state = if write {
            LineState::Modified
        } else if new_entry.0.count_ones() == 1 {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        if let Some((victim, vstate)) = self.caches[node].fill(line, fill_state) {
            self.drop_from_entry(victim, node, vstate);
        }

        self.trace_txn(write, now, latency);
        DirAccess {
            done: now + latency,
            hit: false,
            invalidated,
        }
    }

    /// Invalidates every sharer of `line` but `except`; returns their mask.
    fn invalidate_sharers(&mut self, line: LineAddr, except: usize) -> u64 {
        let others = std::mem::take(&mut self.entry(line).0) & !(1 << except);
        for q in crate::set_bits(others) {
            self.caches[q].invalidate(line);
        }
        self.stats.invalidations += u64::from(others.count_ones());
        others
    }

    /// An eviction silently leaves the sharer set / owner field; writebacks
    /// of dirty victims clear ownership.
    fn drop_from_entry(&mut self, line: LineAddr, node: usize, state: LineState) {
        let block = self.cache.block as u64;
        let e = self.entry(line);
        e.0 &= !(1 << node);
        if state == LineState::Modified && e.1 as usize == node + 1 {
            e.1 = 0;
            self.stats.remote_bytes += block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(nodes: usize) -> Directory {
        Directory::new(nodes, CacheParams::new(1024, 64), DirectoryParams::isca94())
    }

    #[test]
    fn local_vs_remote_clean_latency() {
        let mut d = dir(4);
        // Line 0's home is node 0.
        let r = d.access(0, 0, false, 0);
        assert_eq!(r.done, 20);
        // Line 1's home is node 1: remote for node 0.
        let r = d.access(0, 1, false, 0);
        assert_eq!(r.done, 90);
        assert_eq!(d.stats().local_misses, 1);
        assert_eq!(d.stats().remote_clean_misses, 1);
    }

    #[test]
    fn dirty_remote_takes_three_hops() {
        let mut d = dir(4);
        d.access(1, 0, true, 0); // node 1 dirties line 0
        let r = d.access(2, 0, false, 1000);
        assert_eq!(r.done, 1000 + 130);
        assert_eq!(d.stats().remote_dirty_misses, 1);
        // Former owner downgraded to sharer, so a write by it upgrades.
        let r = d.access(1, 0, true, 2000);
        assert!(!r.hit);
        assert_eq!(r.invalidated, 1 << 2);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = dir(4);
        d.access(0, 5, false, 0);
        d.access(1, 5, false, 0);
        d.access(2, 5, false, 0);
        let r = d.access(3, 5, true, 100);
        assert_eq!(r.invalidated, 0b0111);
    }

    #[test]
    fn lone_reader_gets_exclusive_then_writes_silently() {
        let mut d = dir(2);
        d.access(0, 4, false, 0);
        let r = d.access(0, 4, true, 10);
        assert!(r.hit, "E→M is silent");
        // And the directory still knows node 0 owns it.
        let r = d.access(1, 4, false, 20);
        assert_eq!(r.done, 20 + 130, "dirty path taken after silent upgrade");
    }

    #[test]
    fn upgrade_latency_band() {
        let mut d = dir(2);
        d.access(0, 6, false, 0);
        d.access(1, 6, false, 0);
        let r = d.access(0, 6, true, 100);
        assert_eq!(r.done, 170);
        assert_eq!(d.stats().upgrades, 1);
    }
}
