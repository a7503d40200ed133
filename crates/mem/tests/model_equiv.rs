//! The packed, mask-indexed caches, the flat directory and the mask-valued
//! access results against the representations they replaced — `Option`
//! tags beside a state vector, a `HashMap` directory walked `0..nodes`,
//! `Vec<(node, line)>` invalidation lists — kept here as the reference
//! model, as are the per-line loops that the ranged charges replaced (they
//! now take runs of hits in one pass). Both sides see the same random
//! streams; every access must agree on completion time, hit and
//! invalidated set, and every run on all counters, every line's state in
//! every cache and the emitted trace.
//!
//! Each property runs twice: at a tier-1 case count, and as an `#[ignore]`d
//! high-case variant (more cases, larger set counts) that `scripts/ci.sh`'s
//! `models` stage runs in release.

use std::sync::Arc;

use proptest::prelude::*;
use tmk_mem::{
    set_bits, BusParams, BusStats, CacheParams, CacheStats, DirectCache, Directory,
    DirectoryParams, DirectoryStats, LineAddr, LineState, Probe, SnoopBus,
};
use tmk_trace::{Event, EventKind, Sink, TraceBuf, Track};

type Cycle = u64;

/// The replaced models, verbatim but for names, visibility and the deleted
/// fault-injection branch.
mod model {
    use std::collections::HashMap;

    use super::*;

    #[derive(Clone)]
    pub struct Cache {
        params: CacheParams,
        tags: Vec<Option<LineAddr>>,
        states: Vec<LineState>,
        pub stats: CacheStats,
    }

    impl Cache {
        pub fn new(params: CacheParams) -> Self {
            Cache {
                params,
                tags: vec![None; params.sets()],
                states: vec![LineState::Invalid; params.sets()],
                stats: CacheStats::default(),
            }
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line as usize) % self.params.sets()
        }

        pub fn state_of(&self, line: LineAddr) -> LineState {
            let s = self.set_of(line);
            if self.tags[s] == Some(line) {
                self.states[s]
            } else {
                LineState::Invalid
            }
        }

        pub fn probe(&mut self, line: LineAddr, write: bool) -> Probe {
            match self.state_of(line) {
                LineState::Invalid => {
                    self.stats.misses += 1;
                    Probe::Miss
                }
                LineState::Shared if write => {
                    self.stats.upgrades += 1;
                    Probe::UpgradeMiss
                }
                LineState::Modified | LineState::Exclusive if write => {
                    self.stats.hits += 1;
                    let s = self.set_of(line);
                    self.states[s] = LineState::Modified;
                    Probe::Hit
                }
                _ => {
                    self.stats.hits += 1;
                    Probe::Hit
                }
            }
        }

        pub fn fill(&mut self, line: LineAddr, state: LineState) -> Option<(LineAddr, LineState)> {
            let s = self.set_of(line);
            let victim = match self.tags[s] {
                Some(old) if old != line => {
                    self.stats.evictions += 1;
                    if self.states[s] == LineState::Modified {
                        self.stats.dirty_evictions += 1;
                    }
                    Some((old, self.states[s]))
                }
                _ => None,
            };
            self.tags[s] = Some(line);
            self.states[s] = state;
            victim
        }

        pub fn set_state(&mut self, line: LineAddr, state: LineState) {
            let s = self.set_of(line);
            if self.tags[s] == Some(line) {
                if state == LineState::Invalid {
                    self.tags[s] = None;
                }
                self.states[s] = state;
            }
        }

        pub fn invalidate(&mut self, line: LineAddr) {
            self.set_state(line, LineState::Invalid);
        }

        /// `DirectCache::charge_range` as a per-line loop: the `Uni` arm of
        /// `HwMachine::charge_access` and every AS node's `DsmMachine::charge`.
        pub fn charge_range(
            &mut self,
            addr: usize,
            len: usize,
            write: bool,
            lat: Cycle,
            now: Cycle,
        ) -> Cycle {
            let mut t = now;
            for line in lines(self.params.block, addr, len) {
                if write {
                    self.probe(line, false);
                    t += 1;
                } else {
                    match self.probe(line, false) {
                        Probe::Hit => t += 1,
                        _ => {
                            self.fill(line, LineState::Shared);
                            t += 1 + lat;
                        }
                    }
                }
            }
            t
        }
    }

    /// `HwMachine::charge_access`'s line arithmetic.
    pub fn lines(block: usize, addr: usize, len: usize) -> impl Iterator<Item = LineAddr> {
        let first = addr / block;
        let last = if len == 0 {
            first
        } else {
            (addr + len - 1) / block
        };
        (first..=last).map(|l| l as LineAddr)
    }

    pub struct Access {
        pub done: Cycle,
        pub hit: bool,
        pub invalidated: Vec<(usize, LineAddr)>,
    }

    #[derive(Clone, Copy, Default)]
    struct Entry {
        owner: Option<usize>,
        sharers: u64,
    }

    pub struct Dir {
        pub caches: Vec<Cache>,
        entries: HashMap<LineAddr, Entry>,
        params: DirectoryParams,
        pub stats: DirectoryStats,
        sink: Sink,
        block: u64,
    }

    impl Dir {
        pub fn new(nodes: usize, cache: CacheParams, params: DirectoryParams, sink: Sink) -> Self {
            Dir {
                caches: (0..nodes).map(|_| Cache::new(cache)).collect(),
                entries: HashMap::new(),
                params,
                stats: DirectoryStats::default(),
                sink,
                block: cache.block as u64,
            }
        }

        fn trace_txn(&self, write: bool, at: Cycle, dur: Cycle) {
            self.sink.emit(Event {
                track: Track::Bus(0),
                at,
                dur,
                kind: EventKind::DirTxn { write },
            });
        }

        pub fn access(&mut self, node: usize, line: LineAddr, write: bool, now: Cycle) -> Access {
            match self.caches[node].probe(line, write) {
                Probe::Hit => {
                    if write {
                        let e = self.entries.entry(line).or_default();
                        e.owner = Some(node);
                        e.sharers = 0;
                    }
                    Access {
                        done: now,
                        hit: true,
                        invalidated: Vec::new(),
                    }
                }
                Probe::UpgradeMiss => {
                    self.stats.upgrades += 1;
                    self.trace_txn(true, now, self.params.upgrade);
                    let invalidated = self.invalidate_sharers(line, node);
                    let e = self.entries.entry(line).or_default();
                    e.owner = Some(node);
                    e.sharers = 0;
                    self.caches[node].set_state(line, LineState::Modified);
                    Access {
                        done: now + self.params.upgrade,
                        hit: false,
                        invalidated,
                    }
                }
                Probe::Miss => self.miss(node, line, write, now),
            }
        }

        fn miss(&mut self, node: usize, line: LineAddr, write: bool, now: Cycle) -> Access {
            let home = (line as usize) % self.caches.len();
            let entry = self.entries.get(&line).copied().unwrap_or_default();

            let mut invalidated = Vec::new();
            let latency = match entry.owner {
                Some(owner) if owner != node => {
                    self.stats.remote_dirty_misses += 1;
                    self.stats.remote_bytes += 2 * self.block;
                    if write {
                        self.caches[owner].invalidate(line);
                        self.stats.invalidations += 1;
                        invalidated.push((owner, line));
                    } else {
                        self.caches[owner].set_state(line, LineState::Shared);
                    }
                    self.params.remote_dirty
                }
                _ => {
                    if write {
                        invalidated = self.invalidate_sharers(line, node);
                    } else {
                        for q in 0..self.caches.len() {
                            if entry.sharers & (1 << q) != 0
                                && self.caches[q].state_of(line) == LineState::Exclusive
                            {
                                self.caches[q].set_state(line, LineState::Shared);
                            }
                        }
                    }
                    if home == node {
                        self.stats.local_misses += 1;
                        self.params.local
                    } else {
                        self.stats.remote_clean_misses += 1;
                        self.stats.remote_bytes += self.block;
                        self.params.remote_clean
                    }
                }
            };

            let new_entry = if write {
                Entry {
                    owner: Some(node),
                    sharers: 0,
                }
            } else {
                let mut sharers = entry.sharers;
                if let Some(owner) = entry.owner {
                    sharers |= 1 << owner;
                }
                sharers |= 1 << node;
                Entry {
                    owner: None,
                    sharers,
                }
            };
            let lonely = !write && new_entry.sharers.count_ones() == 1;
            self.entries.insert(line, new_entry);

            let fill_state = if write {
                LineState::Modified
            } else if lonely {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            if let Some((victim, vstate)) = self.caches[node].fill(line, fill_state) {
                if let Some(e) = self.entries.get_mut(&victim) {
                    e.sharers &= !(1 << node);
                    if vstate == LineState::Modified && e.owner == Some(node) {
                        e.owner = None;
                        self.stats.remote_bytes += self.block;
                    }
                }
            }

            self.trace_txn(write, now, latency);
            Access {
                done: now + latency,
                hit: false,
                invalidated,
            }
        }

        fn invalidate_sharers(&mut self, line: LineAddr, except: usize) -> Vec<(usize, LineAddr)> {
            let Some(e) = self.entries.get_mut(&line) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            let sharers = e.sharers;
            e.sharers = 0;
            for q in 0..self.caches.len() {
                if q != except && sharers & (1 << q) != 0 {
                    self.caches[q].invalidate(line);
                    self.stats.invalidations += 1;
                    out.push((q, line));
                }
            }
            out
        }
    }

    pub struct Bus {
        pub caches: Vec<Cache>,
        params: BusParams,
        free_at: Cycle,
        pub stats: BusStats,
        sink: Sink,
        track: u32,
        block: u64,
    }

    impl Bus {
        pub fn new(
            procs: usize,
            cache: CacheParams,
            params: BusParams,
            sink: Sink,
            track: u32,
        ) -> Self {
            Bus {
                caches: (0..procs).map(|_| Cache::new(cache)).collect(),
                params,
                free_at: 0,
                stats: BusStats::default(),
                sink,
                track,
                block: cache.block as u64,
            }
        }

        fn trace_txn(&self, write: bool, at: Cycle, dur: Cycle) {
            self.sink.emit(Event {
                track: Track::Bus(self.track),
                at,
                dur,
                kind: EventKind::BusTxn { write },
            });
        }

        pub fn access(&mut self, proc: usize, line: LineAddr, write: bool, now: Cycle) -> Access {
            match self.caches[proc].probe(line, write) {
                Probe::Hit => Access {
                    done: now,
                    hit: true,
                    invalidated: Vec::new(),
                },
                Probe::UpgradeMiss => {
                    let start = self.grab_bus(now, self.params.transaction);
                    self.trace_txn(true, start, self.params.transaction);
                    let invalidated = self.invalidate_others(proc, line);
                    self.caches[proc].set_state(line, LineState::Modified);
                    Access {
                        done: start + self.params.transaction,
                        hit: false,
                        invalidated,
                    }
                }
                Probe::Miss => self.miss(proc, line, write, now),
            }
        }

        fn miss(&mut self, proc: usize, line: LineAddr, write: bool, now: Cycle) -> Access {
            let p = self.params;
            let mut occupancy = p.transaction + p.block_transfer;

            let holder = (0..self.caches.len())
                .filter(|&q| q != proc)
                .find(|&q| self.caches[q].state_of(line) != LineState::Invalid);

            let mut latency = p.transaction + p.block_transfer;
            let mut invalidated = Vec::new();
            match holder {
                Some(q) => {
                    latency += p.cache_to_cache;
                    self.stats.cache_supplies += 1;
                    let was_dirty = self.caches[q].state_of(line) == LineState::Modified;
                    if write {
                        invalidated.extend(self.invalidate_others(proc, line));
                    } else {
                        for c in &mut self.caches {
                            if c.state_of(line) != LineState::Invalid {
                                c.set_state(line, LineState::Shared);
                            }
                        }
                    }
                    if was_dirty {
                        self.stats.writebacks += 1;
                        occupancy += p.block_transfer;
                    }
                }
                None => {
                    latency += p.memory;
                    self.stats.memory_supplies += 1;
                }
            }

            let fill_state = if write {
                LineState::Modified
            } else if holder.is_some() {
                LineState::Shared
            } else {
                LineState::Exclusive
            };
            if let Some((_victim, vstate)) = self.caches[proc].fill(line, fill_state) {
                if vstate == LineState::Modified {
                    self.stats.writebacks += 1;
                    occupancy += p.block_transfer;
                    self.stats.data_bytes += self.block;
                }
            }
            self.stats.data_bytes += self.block;

            let start = self.grab_bus(now, occupancy);
            self.trace_txn(write, start, occupancy);
            Access {
                done: start + latency,
                hit: false,
                invalidated,
            }
        }

        fn invalidate_others(&mut self, proc: usize, line: LineAddr) -> Vec<(usize, LineAddr)> {
            let mut out = Vec::new();
            for q in 0..self.caches.len() {
                if q != proc && self.caches[q].state_of(line) != LineState::Invalid {
                    if self.caches[q].state_of(line) == LineState::Modified {
                        self.stats.writebacks += 1;
                        self.stats.data_bytes += self.block;
                    }
                    self.caches[q].invalidate(line);
                    self.stats.invalidations += 1;
                    out.push((q, line));
                }
            }
            out
        }

        pub fn purge_line(&mut self, line: LineAddr) {
            for c in &mut self.caches {
                c.invalidate(line);
            }
        }

        fn grab_bus(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
            let start = now.max(self.free_at);
            self.free_at = start + occupancy;
            self.stats.transactions += 1;
            self.stats.busy_cycles += occupancy;
            start
        }
    }
}

const BLOCK: usize = 64;
/// Byte addresses cover 40 lines: with 4–16 sets, 3–10 lines contend for
/// each set, so conflict and dirty evictions are routine.
const SPAN: usize = 40 * BLOCK;

/// One step of a stream: who, where, how much, read or write, how long
/// after the previous step, and whether it is a ranged charge or a single
/// line access.
type Step = ((usize, usize, usize), (bool, u64, bool));

fn steps() -> impl Strategy<Value = Vec<Step>> {
    // (Nested: the proptest shim composes tuples of at most five.)
    let step = (
        (0..64usize, 0..SPAN, 0..4 * BLOCK),
        (any::<bool>(), 0..60u64, any::<bool>()),
    );
    proptest::collection::vec(step, 1..250)
}

fn traced() -> (Arc<TraceBuf>, Sink) {
    let buf = Arc::new(TraceBuf::new(1, 4096));
    (buf.clone(), Sink::new(buf))
}

/// The `(node, line)` list the model reports as the mask the
/// implementation does; every entry must name the requested line, in
/// ascending node order.
fn mask_of(pairs: &[(usize, LineAddr)], line: LineAddr) -> u64 {
    assert!(pairs.iter().all(|&(_, l)| l == line));
    assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
    let mask = pairs.iter().fold(0, |m, &(q, _)| m | 1 << q);
    assert_eq!(
        set_bits(mask).collect::<Vec<_>>(),
        pairs.iter().map(|p| p.0).collect::<Vec<_>>()
    );
    mask
}

/// The model's caches against the implementation's counters (by cache)
/// and line states (by cache and line).
fn same_caches(
    model: &[model::Cache],
    stats: &[CacheStats],
    state_of: impl Fn(usize, LineAddr) -> LineState,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(model.len(), stats.len());
    for (q, (m, r)) in model.iter().zip(stats).enumerate() {
        prop_assert_eq!(m.stats, *r, "cache {} counters", q);
        // Past the accessed span too: lines that alias into the same sets.
        for line in 0..(2 * SPAN / BLOCK) as LineAddr {
            prop_assert_eq!(
                m.state_of(line),
                state_of(q, line),
                "cache {} line {}",
                q,
                line
            );
        }
    }
    Ok(())
}

fn same_direct_caches(model: &[model::Cache], real: &[DirectCache]) -> Result<(), TestCaseError> {
    let stats: Vec<_> = real.iter().map(DirectCache::stats).collect();
    same_caches(model, &stats, |q, line| real[q].state_of(line))
}

/// `HwMachine::charge_access`'s `Bus` arm as it was before
/// `SnoopBus::charge_two_level`: one primary probe (reads) and one bus
/// access per line.
#[allow(clippy::too_many_arguments)]
fn two_level_per_line(
    bus: &mut model::Bus,
    primaries: &mut [model::Cache],
    proc: usize,
    addr: usize,
    len: usize,
    write: bool,
    next_hit: Cycle,
    now: Cycle,
) -> Cycle {
    let mut t = now;
    for line in model::lines(BLOCK, addr, len) {
        // Every write reaches the secondary (write-through primary), where
        // ownership is established; a read only when it misses in the
        // primary.
        if !write && primaries[proc].probe(line, false) == Probe::Hit {
            t += 1;
            continue;
        }
        let r = bus.access(proc, line, write, t);
        for &(q, l) in &r.invalidated {
            primaries[q].invalidate(l);
        }
        t = if write {
            r.done + 1 // a hit is absorbed by the write buffer
        } else {
            primaries[proc].fill(line, LineState::Shared);
            r.done + next_hit
        };
    }
    t
}

fn check_directory(nodes: usize, sets_log2: u32, steps: Vec<Step>) -> Result<(), TestCaseError> {
    let cache = CacheParams::new(BLOCK << sets_log2, BLOCK);
    let (model_buf, model_sink) = traced();
    let (real_buf, real_sink) = traced();
    let mut model = model::Dir::new(nodes, cache, DirectoryParams::isca94(), model_sink);
    // Sized for half the span: the other half exercises growth.
    let mut real = Directory::new(nodes, cache, DirectoryParams::isca94()).with_memory(SPAN / 2);
    real.set_tracer(real_sink);

    let mut now = 0;
    for ((who, addr, len), (write, dt, ranged)) in steps {
        let node = who % nodes;
        now += dt;
        if ranged {
            // `Directory::charge_range` (`HwMachine::charge_access`'s `Dir`
            // arm) as a per-line loop.
            let mut t = now;
            for line in model::lines(BLOCK, addr, len) {
                let r = model.access(node, line, write, t);
                t = if r.hit { t + 1 } else { r.done + 1 };
            }
            prop_assert_eq!(real.charge_range(node, addr, len, write, now), t);
        } else {
            let line = cache.line_of(addr);
            let m = model.access(node, line, write, now);
            let r = real.access(node, line, write, now);
            prop_assert_eq!(
                (m.done, m.hit, mask_of(&m.invalidated, line)),
                (r.done, r.hit, r.invalidated)
            );
        }
    }

    prop_assert_eq!(model.stats, real.stats());
    same_direct_caches(&model.caches, real.caches())?;
    prop_assert_eq!(model_buf.chrome_trace(), real_buf.chrome_trace());
    Ok(())
}

fn check_snoop_bus(
    procs: usize,
    sets_log2: u32,
    sgi: bool,
    steps: Vec<Step>,
) -> Result<(), TestCaseError> {
    let cache = CacheParams::new(BLOCK << sets_log2, BLOCK);
    let params = if sgi {
        BusParams::sgi_4d480()
    } else {
        BusParams::hs_node()
    };
    let (model_buf, model_sink) = traced();
    let (real_buf, real_sink) = traced();
    let mut model = model::Bus::new(procs, cache, params, model_sink, 3);
    let mut real = SnoopBus::new(procs, cache, params);
    real.set_tracer(real_sink, 3);

    let mut now = 0;
    for ((who, addr, len), (write, dt, ranged)) in steps {
        let proc = who % procs;
        now += dt;
        if ranged {
            // `SnoopBus::charge_range` (every HS node's `HsMachine::charge`)
            // as a per-line loop.
            let mut t = now;
            for line in model::lines(BLOCK, addr, len) {
                let r = model.access(proc, line, write, t);
                t = if r.hit { t + 1 } else { r.done + 1 };
            }
            prop_assert_eq!(real.charge_range(proc, addr, len, write, now), t);
        } else if dt == 0 {
            // A DSM page arrival underneath the caches.
            let line = cache.line_of(addr);
            model.purge_line(line);
            real.purge_line(line);
        } else {
            let line = cache.line_of(addr);
            let m = model.access(proc, line, write, now);
            let r = real.access(proc, line, write, now);
            prop_assert_eq!(
                (m.done, m.hit, mask_of(&m.invalidated, line)),
                (r.done, r.hit, r.invalidated)
            );
        }
    }

    // A miss at time 0 starts when the bus falls idle: equal completion
    // means equal `free_at`.
    let fresh = (4 * SPAN / BLOCK) as LineAddr;
    prop_assert_eq!(
        model.access(0, fresh, false, 0).done,
        real.access(0, fresh, false, 0).done
    );
    prop_assert_eq!(model.stats, real.stats());
    same_caches(&model.caches, real.cache_stats(), |q, line| {
        real.state_of(q, line)
    })?;
    prop_assert_eq!(model_buf.chrome_trace(), real_buf.chrome_trace());
    Ok(())
}

fn check_two_level(
    procs: usize,
    (primary_log2, secondary_log2): (u32, u32),
    (sgi, next_hit): (bool, Cycle),
    steps: Vec<Step>,
) -> Result<(), TestCaseError> {
    let primary = CacheParams::new(BLOCK << primary_log2, BLOCK);
    let secondary = CacheParams::new(BLOCK << secondary_log2, BLOCK);
    let params = if sgi {
        BusParams::sgi_4d480()
    } else {
        BusParams::hs_node()
    };
    let (model_buf, model_sink) = traced();
    let (real_buf, real_sink) = traced();
    let mut model = model::Bus::new(procs, secondary, params, model_sink, 0);
    let mut model_primaries: Vec<_> = (0..procs).map(|_| model::Cache::new(primary)).collect();
    let mut real = SnoopBus::new(procs, secondary, params);
    real.set_tracer(real_sink, 0);
    let mut real_primaries: Vec<_> = (0..procs).map(|_| DirectCache::new(primary)).collect();

    let mut now = 0;
    for ((who, addr, len), (write, dt, ranged)) in steps {
        let proc = who % procs;
        now += dt;
        // Single-line accesses as well as ranges.
        let len = if ranged { len } else { 0 };
        let m = two_level_per_line(
            &mut model,
            &mut model_primaries,
            proc,
            addr,
            len,
            write,
            next_hit,
            now,
        );
        let r = real.charge_two_level(&mut real_primaries, proc, addr, len, write, next_hit, now);
        prop_assert_eq!(m, r);
    }

    let fresh = (4 * SPAN / BLOCK) as LineAddr;
    prop_assert_eq!(
        model.access(0, fresh, false, 0).done,
        real.access(0, fresh, false, 0).done
    );
    prop_assert_eq!(model.stats, real.stats());
    same_caches(&model.caches, real.cache_stats(), |q, line| {
        real.state_of(q, line)
    })?;
    same_direct_caches(&model_primaries, &real_primaries)?;
    prop_assert_eq!(model_buf.chrome_trace(), real_buf.chrome_trace());
    Ok(())
}

/// One operation on a lone cache: `(kind, addr, len, write, state)`.
type CacheOp = (u8, usize, usize, bool, u8);

/// Operations of `kinds` kinds.
fn cache_ops(kinds: u8) -> impl Strategy<Value = Vec<CacheOp>> {
    proptest::collection::vec(
        (0..kinds, 0..SPAN, 0..4 * BLOCK, any::<bool>(), 1..4u8),
        1..300,
    )
}

const STATES: [LineState; 4] = [
    LineState::Invalid,
    LineState::Shared,
    LineState::Exclusive,
    LineState::Modified,
];

fn check_packed_cache(sets_log2: u32, lat: Cycle, ops: Vec<CacheOp>) -> Result<(), TestCaseError> {
    let cache = CacheParams::new(BLOCK << sets_log2, BLOCK);
    let mut model = model::Cache::new(cache);
    let mut real = DirectCache::new(cache);
    for (kind, addr, len, write, state) in ops {
        let line = cache.line_of(addr);
        prop_assert_eq!(line, (addr / BLOCK) as LineAddr);
        prop_assert_eq!(
            cache.lines_of(addr, len).collect::<Vec<_>>(),
            model::lines(BLOCK, addr, len).collect::<Vec<_>>()
        );
        let state = STATES[state as usize];
        match kind {
            0 => prop_assert_eq!(model.probe(line, write), real.probe(line, write)),
            1 => prop_assert_eq!(model.fill(line, state), real.fill(line, state)),
            2 => {
                // `Invalid` too: it must clear the tag, not store it.
                let state = if write { LineState::Invalid } else { state };
                model.set_state(line, state);
                real.set_state(line, state);
            }
            3 => {
                model.invalidate(line);
                real.invalidate(line);
            }
            _ => prop_assert_eq!(
                model.charge_range(addr, len, write, lat, 7),
                real.charge_range(addr, len, write, lat, 7)
            ),
        }
        prop_assert_eq!(model.state_of(line), real.state_of(line));
    }
    same_direct_caches(std::slice::from_ref(&model), std::slice::from_ref(&real))
}

/// `DirectCache::hit_run` against `probe` line by line, stopping before
/// the first line that does not hit (that line's probe is undone, since
/// `hit_run` leaves it unprobed). Fills of whole ranges make long runs.
fn check_hit_run(sets_log2: u32, ops: Vec<CacheOp>) -> Result<(), TestCaseError> {
    let cache = CacheParams::new(BLOCK << sets_log2, BLOCK);
    let mut model = model::Cache::new(cache);
    let mut real = DirectCache::new(cache);
    for (kind, addr, len, write, state) in ops {
        let lines = cache.lines_of(addr, len);
        let state = STATES[state as usize];
        match kind {
            0 | 1 => {
                for line in lines {
                    prop_assert_eq!(model.fill(line, state), real.fill(line, state));
                }
            }
            2 => {
                let line = lines.start;
                model.invalidate(line);
                real.invalidate(line);
            }
            _ => {
                let mut hits = 0;
                for line in lines.clone() {
                    let before = model.clone();
                    if model.probe(line, write) != Probe::Hit {
                        model = before;
                        break;
                    }
                    hits += 1;
                }
                prop_assert_eq!(real.hit_run(lines, write), hits);
            }
        }
    }
    same_direct_caches(std::slice::from_ref(&model), std::slice::from_ref(&real))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn directory_matches_the_hashmap_model(
        nodes in 1..65usize,
        sets_log2 in 2..5u32,
        steps in steps(),
    ) {
        check_directory(nodes, sets_log2, steps)?;
    }

    #[test]
    fn snoop_bus_matches_the_list_returning_model(
        procs in 1..65usize,
        sets_log2 in 2..5u32,
        sgi in any::<bool>(),
        steps in steps(),
    ) {
        check_snoop_bus(procs, sets_log2, sgi, steps)?;
    }

    #[test]
    fn two_level_bus_matches_the_per_line_loop(
        procs in 1..65usize,
        sets_log2 in (2..5u32, 2..6u32),
        timing in (any::<bool>(), 1..20u64),
        steps in steps(),
    ) {
        check_two_level(procs, sets_log2, timing, steps)?;
    }

    #[test]
    fn packed_cache_matches_the_option_tag_model(
        sets_log2 in 2..5u32,
        lat in 0..30u64,
        ops in cache_ops(6),
    ) {
        check_packed_cache(sets_log2, lat, ops)?;
    }

    #[test]
    fn hit_run_matches_per_line_probes(sets_log2 in 2..5u32, ops in cache_ops(5)) {
        check_hit_run(sets_log2, ops)?;
    }
}

// The same properties at 2 048 cases and up to 256 sets, in release
// (`cargo test --release -p tmk-mem --test model_equiv -- --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    #[ignore = "high-case variant; scripts/ci.sh runs it in release"]
    fn directory_matches_the_hashmap_model_high(
        nodes in 1..65usize,
        sets_log2 in 2..9u32,
        steps in steps(),
    ) {
        check_directory(nodes, sets_log2, steps)?;
    }

    #[test]
    #[ignore = "high-case variant; scripts/ci.sh runs it in release"]
    fn snoop_bus_matches_the_list_returning_model_high(
        procs in 1..65usize,
        sets_log2 in 2..9u32,
        sgi in any::<bool>(),
        steps in steps(),
    ) {
        check_snoop_bus(procs, sets_log2, sgi, steps)?;
    }

    #[test]
    #[ignore = "high-case variant; scripts/ci.sh runs it in release"]
    fn two_level_bus_matches_the_per_line_loop_high(
        procs in 1..65usize,
        sets_log2 in (2..8u32, 2..9u32),
        timing in (any::<bool>(), 1..20u64),
        steps in steps(),
    ) {
        check_two_level(procs, sets_log2, timing, steps)?;
    }

    #[test]
    #[ignore = "high-case variant; scripts/ci.sh runs it in release"]
    fn packed_cache_matches_the_option_tag_model_high(
        sets_log2 in 2..9u32,
        lat in 0..30u64,
        ops in cache_ops(6),
    ) {
        check_packed_cache(sets_log2, lat, ops)?;
    }

    #[test]
    #[ignore = "high-case variant; scripts/ci.sh runs it in release"]
    fn hit_run_matches_per_line_probes_high(sets_log2 in 2..9u32, ops in cache_ops(5)) {
        check_hit_run(sets_log2, ops)?;
    }
}
