//! Hardware shared-memory machines: the DECstation uniprocessor, the SGI
//! 4D/480-like snooping-bus multiprocessor, and the all-hardware (AH)
//! directory machine.
//!
//! Hardware keeps data coherent by construction, so these models hold one
//! canonical memory image and simulate tags, coherence state and latency.
//! Synchronization is modelled the way bus/directory machines implement it:
//! a lock is a coherent read-modify-write on the lock's line (fast, tens of
//! cycles), a barrier a shared counter.

use std::collections::HashMap;
use std::collections::VecDeque;

use tmk_mem::{
    set_bits, BusParams, CacheParams, DirectCache, Directory, DirectoryParams, LineState, Probe,
    SnoopBus,
};
use tmk_parmacs::{InitWriter, System};
use tmk_sim::{Ctx, Cycle};
use tmk_trace::{Category, Sink};

/// Which coherence fabric backs the machine.
#[derive(Debug, Clone)]
pub enum HwKind {
    /// Uniprocessor: primary cache in front of private memory.
    Uniprocessor {
        /// Miss penalty to main memory, cycles.
        memory_latency: Cycle,
    },
    /// Snooping bus with per-processor secondary caches (Illinois/MESI).
    Bus {
        /// Secondary cache geometry.
        secondary: CacheParams,
        /// Bus timing.
        bus: BusParams,
    },
    /// Full-map directory over a crossbar.
    Directory {
        /// Per-node cache geometry.
        cache: CacheParams,
        /// Latency bands.
        dir: DirectoryParams,
    },
}

/// Full parameter set for a hardware machine.
#[derive(Debug, Clone)]
pub struct HwParams {
    /// Processor clock in Hz.
    pub clock_hz: u64,
    /// Processors.
    pub procs: usize,
    /// Primary cache in front of the coherence fabric (None for the AH
    /// design, whose 64 KB caches are the coherent level itself).
    pub primary: Option<CacheParams>,
    /// Primary-miss service time when the next level hits (SGI secondary
    /// hit; unused for uniprocessors, whose `memory_latency` covers it).
    pub primary_next_hit: Cycle,
    /// The fabric.
    pub kind: HwKind,
    /// Cycles for an uncontended lock acquire (coherent RMW).
    pub lock_cost: Cycle,
    /// Cycles from a release to a waiting processor resuming.
    pub lock_transfer: Cycle,
    /// Cycles per barrier arrival (counter RMW).
    pub barrier_cost: Cycle,
    /// Cycles from last arrival to the waiters resuming.
    pub barrier_release: Cycle,
}

impl HwParams {
    /// DECstation-5000/240: 40 MHz R3000, 64 KB direct-mapped write-through
    /// primary D-cache with a write buffer, fast private memory (~10 cycles
    /// — "slightly faster than the secondary cache of the 4D/480").
    pub fn dec_5000_240() -> Self {
        HwParams {
            clock_hz: 40_000_000,
            procs: 1,
            primary: Some(CacheParams::new(64 << 10, 32)),
            primary_next_hit: 0,
            kind: HwKind::Uniprocessor { memory_latency: 10 },
            lock_cost: 5,
            lock_transfer: 5,
            barrier_cost: 5,
            barrier_release: 5,
        }
    }

    /// SGI 4D/480: up to eight 40 MHz R3000s, 64 KB write-through primaries,
    /// 1 MB write-back secondaries on a 16 MHz 64-bit Illinois-protocol bus.
    /// Secondary hit costs 12 cycles (the paper: DEC memory is slightly
    /// faster than the SGI secondary).
    pub fn sgi_4d480(procs: usize) -> Self {
        assert!((1..=8).contains(&procs), "the 4D/480 has at most 8 CPUs");
        HwParams {
            clock_hz: 40_000_000,
            procs,
            primary: Some(CacheParams::new(64 << 10, 32)),
            primary_next_hit: 12,
            kind: HwKind::Bus {
                secondary: CacheParams::new(1 << 20, 32),
                bus: BusParams::sgi_4d480(),
            },
            lock_cost: 30,
            lock_transfer: 40,
            barrier_cost: 30,
            barrier_release: 40,
        }
    }

    /// The simulation study's all-hardware design: 100 MHz processors,
    /// 64 KB direct-mapped caches with 64-byte blocks, full-map directory
    /// over a 200 MB/s crossbar (DASH/FLASH-like latencies).
    pub fn ah(procs: usize) -> Self {
        HwParams {
            clock_hz: 100_000_000,
            procs,
            primary: None,
            primary_next_hit: 0,
            kind: HwKind::Directory {
                cache: CacheParams::new(64 << 10, 64),
                dir: DirectoryParams::isca94(),
            },
            lock_cost: 40,
            lock_transfer: 90,
            barrier_cost: 90,
            barrier_release: 90,
        }
    }
}

#[derive(Debug, Default)]
struct HwLock {
    owner: Option<usize>,
    queue: VecDeque<usize>,
}

#[derive(Debug, Default)]
struct HwBarrier {
    arrived: Vec<usize>,
}

enum Fabric {
    Uni { latency: Cycle },
    Bus(SnoopBus),
    Dir(Directory),
}

/// The shared machine state driven by the engine.
pub struct HwMachine {
    mem: Vec<u8>,
    primary: Vec<DirectCache>,
    fabric: Fabric,
    params: HwParams,
    locks: HashMap<usize, HwLock>,
    barriers: HashMap<usize, HwBarrier>,
    mark_cycles: Cycle,
}

impl HwMachine {
    /// Builds the machine with a zeroed `segment_bytes` shared segment.
    pub fn new(params: HwParams, segment_bytes: usize) -> Self {
        let fabric = match &params.kind {
            HwKind::Uniprocessor { memory_latency } => Fabric::Uni {
                latency: *memory_latency,
            },
            HwKind::Bus { secondary, bus } => {
                Fabric::Bus(SnoopBus::new(params.procs, *secondary, *bus))
            }
            HwKind::Directory { cache, dir } => {
                Fabric::Dir(Directory::new(params.procs, *cache, *dir).with_memory(segment_bytes))
            }
        };
        let primary = match params.primary {
            Some(p) => (0..params.procs).map(|_| DirectCache::new(p)).collect(),
            None => Vec::new(),
        };
        HwMachine {
            mem: vec![0; segment_bytes],
            primary,
            fabric,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            mark_cycles: 0,
            params,
        }
    }

    /// Attaches a trace sink: coherence transactions appear on bus track 0.
    /// Tracing never alters timing.
    pub fn set_tracer(&mut self, sink: Sink) {
        match &mut self.fabric {
            Fabric::Uni { .. } => {}
            Fabric::Bus(b) => b.set_tracer(sink, 0),
            Fabric::Dir(d) => d.set_tracer(sink),
        }
    }

    /// Arms the seeded flaky-fabric model: each struck coherence
    /// transaction is NACKed and retried (masked by hardware, never
    /// changing results — it only costs time). A no-op on a uniprocessor,
    /// which has no coherence fabric to strike.
    pub fn set_fabric_faults(&mut self, faults: tmk_mem::FabricFaults) {
        match &mut self.fabric {
            Fabric::Uni { .. } => {}
            Fabric::Bus(b) => b.set_faults(faults),
            Fabric::Dir(d) => d.set_faults(faults),
        }
    }

    /// Charges the memory-system cost of `proc` touching `[addr, addr+len)`
    /// starting at `now`; returns the completion time.
    fn charge_access(&mut self, proc: usize, addr: usize, len: usize, write: bool, now: Cycle) -> Cycle {
        match &mut self.fabric {
            Fabric::Uni { latency } => {
                self.primary[proc].charge_range(addr, len, write, *latency, now)
            }
            Fabric::Dir(dir) => dir.charge_range(proc, addr, len, write, now),
            Fabric::Bus(bus) => {
                let next_hit = self.params.primary_next_hit.max(1);
                let primary = &mut self.primary;
                bus.cache_params().lines_of(addr, len).fold(now, |t, line| {
                    // Every write reaches the secondary (write-through
                    // primary), where ownership is established; a read
                    // only when it misses in the primary.
                    if !write && primary[proc].probe(line, false) == Probe::Hit {
                        return t + 1;
                    }
                    let r = bus.access(proc, line, write, t);
                    for q in set_bits(r.invalidated) {
                        primary[q].invalidate(line);
                    }
                    if write {
                        r.done + 1 // a hit is absorbed by the write buffer
                    } else {
                        primary[proc].fill(line, LineState::Shared);
                        r.done + next_hit
                    }
                })
            }
        }
    }
}

impl InitWriter for HwMachine {
    fn write_init(&mut self, addr: usize, bytes: &[u8]) {
        self.mem[addr..addr + bytes.len()].copy_from_slice(bytes);
    }
}

/// The per-processor [`System`] handle for hardware machines.
pub struct HwSys<'a, 'e> {
    ctx: &'a Ctx<'e, HwMachine>,
}

impl<'a, 'e> HwSys<'a, 'e> {
    /// Wraps an engine context.
    pub fn new(ctx: &'a Ctx<'e, HwMachine>) -> Self {
        HwSys { ctx }
    }
}

impl System for HwSys<'_, '_> {
    fn nprocs(&self) -> usize {
        self.ctx.nprocs()
    }

    fn pid(&self) -> usize {
        self.ctx.id()
    }

    fn read_bytes(&self, addr: usize, buf: &mut [u8]) {
        let me = self.ctx.id();
        self.ctx.sync(|op| {
            let now = op.now();
            let m = op.machine();
            let done = m.charge_access(me, addr, buf.len(), false, now);
            buf.copy_from_slice(&m.mem[addr..addr + buf.len()]);
            op.advance_as(Category::MemStall, done - now);
        });
    }

    fn write_bytes(&self, addr: usize, data: &[u8]) {
        let me = self.ctx.id();
        self.ctx.sync(|op| {
            let now = op.now();
            let m = op.machine();
            let done = m.charge_access(me, addr, data.len(), true, now);
            m.mem[addr..addr + data.len()].copy_from_slice(data);
            op.advance_as(Category::MemStall, done - now);
        });
    }

    fn lock(&self, lock: usize) {
        let me = self.ctx.id();
        loop {
            let got = self.ctx.sync(|op| {
                let cost = {
                    let m = op.machine();
                    let l = m.locks.entry(lock).or_default();
                    match l.owner {
                        None => {
                            l.owner = Some(me);
                            Some(m.params.lock_cost)
                        }
                        Some(p) if p == me => Some(0), // handed to us by a release
                        Some(_) => {
                            l.queue.push_back(me);
                            None
                        }
                    }
                };
                match cost {
                    Some(c) => {
                        op.advance_as(Category::SyncIdle, c);
                        true
                    }
                    None => {
                        op.block();
                        false
                    }
                }
            });
            if got {
                return;
            }
        }
    }

    fn unlock(&self, lock: usize) {
        self.ctx.sync(|op| {
            let now = op.now();
            let (next, transfer) = {
                let m = op.machine();
                let transfer = m.params.lock_transfer;
                let l = m.locks.get_mut(&lock).expect("unlock of unknown lock");
                l.owner = l.queue.pop_front();
                (l.owner, transfer)
            };
            op.advance_as(Category::SyncIdle, 2); // store to release
            if let Some(p) = next {
                op.wake_at(p, now + transfer);
            }
        });
    }

    fn barrier(&self, barrier: usize) {
        let me = self.ctx.id();
        let nprocs = self.ctx.nprocs();
        self.ctx.sync(|op| {
            let now = op.now();
            let (full, cost, release) = {
                let m = op.machine();
                let cost = m.params.barrier_cost;
                let release = m.params.barrier_release;
                let b = m.barriers.entry(barrier).or_default();
                b.arrived.push(me);
                (b.arrived.len() == nprocs, cost, release)
            };
            op.advance_as(Category::SyncIdle, cost);
            if full {
                let t = now + cost + release;
                let waiters = {
                    let m = op.machine();
                    m.barriers.remove(&barrier).expect("barrier exists").arrived
                };
                for q in waiters {
                    if q != me {
                        op.wake_at(q, t);
                    }
                }
                op.advance_as(Category::SyncIdle, release);
            } else {
                op.block();
            }
        });
    }

    fn compute(&self, cycles: Cycle) {
        self.ctx.advance(cycles);
    }

    fn mark(&self) {
        self.ctx.sync(|op| {
            let now = op.now();
            op.machine().mark_cycles = now;
        });
    }
}

impl HwMachine {
    /// Finishing report pieces specific to this machine.
    pub(crate) fn fill_report(&self, report: &mut crate::RunReport) {
        report.clock_hz = self.params.clock_hz;
        report.mark_cycles = self.mark_cycles;
        for c in &self.primary {
            let s = c.stats();
            report.cache.hits += s.hits;
            report.cache.misses += s.misses;
            report.cache.upgrades += s.upgrades;
            report.cache.evictions += s.evictions;
            report.cache.dirty_evictions += s.dirty_evictions;
        }
        let coherent = match &self.fabric {
            Fabric::Uni { .. } => &[],
            Fabric::Bus(b) => {
                report.bus = Some(b.stats());
                b.caches()
            }
            Fabric::Dir(d) => {
                report.directory = Some(d.stats());
                d.caches()
            }
        };
        for c in coherent {
            report.cache.hits += c.stats().hits;
            report.cache.misses += c.stats().misses;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmk_sim::CoopEngine;

    fn run_on<R: Send>(
        params: HwParams,
        seg: usize,
        body: impl Fn(&HwSys<'_, '_>) -> R + Send + Sync,
    ) -> (Vec<R>, HwMachine, Vec<Cycle>) {
        let procs = params.procs;
        let machine = HwMachine::new(params, seg);
        let engine = CoopEngine::new(machine, procs);
        let results: parking_lot::Mutex<Vec<Option<R>>> =
            parking_lot::Mutex::new((0..procs).map(|_| None).collect());
        let r = engine.run(|ctx| {
            let sys = HwSys::new(ctx);
            let out = body(&sys);
            results.lock()[ctx.id()] = Some(out);
        });
        let results = results.into_inner().into_iter().map(|o| o.unwrap()).collect();
        (results, r.machine, r.clocks)
    }

    #[test]
    fn uniprocessor_reads_hits_after_first_touch() {
        let (_, m, clocks) = run_on(HwParams::dec_5000_240(), 4096, |sys| {
            let mut b = [0u8; 8];
            sys.read_bytes(0, &mut b);
            sys.read_bytes(0, &mut b);
        });
        // First read misses (1 + 10), second hits (1).
        assert_eq!(clocks[0], 12);
        assert_eq!(m.primary[0].stats().misses, 1);
        assert_eq!(m.primary[0].stats().hits, 1);
    }

    #[test]
    fn sgi_counter_is_coherent_and_locks_serialize() {
        let mut p = HwParams::sgi_4d480(4);
        p.procs = 4;
        let (results, _, _) = run_on(p, 4096, |sys| {
            use tmk_parmacs::SystemExt;
            for _ in 0..25 {
                sys.lock(0);
                let v: u64 = sys.read(0);
                sys.write(0, v + 1);
                sys.unlock(0);
            }
            sys.barrier(0);
            sys.read::<u64>(0)
        });
        assert!(results.into_iter().all(|v| v == 100));
    }

    #[test]
    fn directory_machine_runs_barriers() {
        let (results, _, _) = run_on(HwParams::ah(8), 8192, |sys| {
            use tmk_parmacs::SystemExt;
            let me = sys.pid();
            sys.write(me * 8, (me as u64) * 3);
            sys.barrier(0);
            (0..8).map(|q| sys.read::<u64>(q * 8)).sum::<u64>()
        });
        assert!(results.into_iter().all(|v| v == 3 * 28));
    }

    #[test]
    fn hw_barrier_reusable_across_episodes() {
        let (results, _, _) = run_on(HwParams::sgi_4d480(4), 4096, |sys| {
            use tmk_parmacs::SystemExt;
            let me = sys.pid();
            let mut seen = 0u64;
            for round in 0..5u64 {
                sys.write(me * 8, round * 10 + me as u64);
                sys.barrier(0);
                seen += sys.read::<u64>(((me + 1) % 4) * 8);
                sys.barrier(0);
            }
            seen
        });
        let expect: Vec<u64> = (0..4)
            .map(|me| {
                let right = (me + 1) % 4;
                (0..5).map(|r| r * 10 + right as u64).sum()
            })
            .collect();
        assert_eq!(results, expect);
    }

    #[test]
    fn hw_locks_grant_in_simulated_time_order() {
        let (order, _, _) = run_on(HwParams::ah(4), 4096, |sys| {
            use tmk_parmacs::SystemExt;
            // Stagger arrival: higher pids arrive earlier.
            sys.compute(100 * (4 - sys.pid() as u64));
            sys.lock(0);
            let turn: u64 = sys.read(0);
            sys.write(0, turn + 1);
            sys.unlock(0);
            turn
        });
        // pid 3 arrived first (100 cycles), then 2, 1, 0.
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn write_buffer_absorbs_hw_writes() {
        // Writes to an owned line cost one cycle on the bus machine.
        let p = HwParams::sgi_4d480(1);
        let (_, _, clocks) = run_on(p, 4096, |sys| {
            let b = [1u8; 8];
            sys.write_bytes(0, &b); // first write: miss
            let before = 0;
            let _ = before;
            for _ in 0..10 {
                sys.write_bytes(0, &b); // buffered: 1 cycle each
            }
        });
        // Miss cost + 10 buffered cycles, well under 10 misses' worth.
        assert!(clocks[0] < 150, "clocks {}", clocks[0]);
    }

    #[test]
    fn bus_contention_shows_in_stats() {
        let p = HwParams::sgi_4d480(8);
        let (_, m, _) = run_on(p, 1 << 16, |sys| {
            let me = sys.pid();
            let mut buf = vec![0u8; 4096];
            // Everyone streams through a private region: pure bandwidth.
            for rep in 0..4 {
                sys.read_bytes(me * 8192 + (rep % 2) * 4096, &mut buf);
            }
        });
        let bus = match &m.fabric {
            Fabric::Bus(b) => b.stats(),
            _ => unreachable!(),
        };
        assert!(bus.busy_cycles > 0);
        assert!(bus.memory_supplies > 0);
    }
}
