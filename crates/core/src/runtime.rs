//! A real multi-threaded DSM runtime over the sans-io protocol.
//!
//! Each node gets two OS threads: the *application* thread runs user code
//! against a [`DsmNode`] handle, and a *service* thread delivers incoming
//! protocol messages (TreadMarks serviced requests in signal handlers; a
//! dedicated thread is the natural Rust equivalent). Messages travel over
//! std `mpsc` channels. This runtime is a fully working in-process
//! distributed shared memory: page copies, twins, diffs and write notices
//! are all real.
//!
//! # Hardening
//!
//! The runtime survives an imperfect channel, like the paper's system had
//! to over UDP:
//!
//! * A [`FaultPlan`] injects seeded per-link drops, duplicates and delays
//!   at the transmit hook, and [`RunOpts::crashes`] schedules node
//!   crashes.
//! * A retransmission ticker re-sends unacked packets on a fixed host-time
//!   [`RetransmitPolicy`] (a 5 ms base RTO, doubling, 8 retries) under any
//!   plan that can lose a copy (drops or crashes); exhaustion against a
//!   dead peer is the failure detector. A crashed node that no
//!   retransmission discovers reports itself after a 50 ms grace.
//! * Every run is a sequence of *epochs* ([`Dsm::run_epochs`]; a
//!   [`Dsm::run`] body is the one epoch 0) separated by barrier-consistent
//!   checkpoints, the first taken at start-up. A crash is therefore always
//!   recoverable: every node rolls back to the last checkpoint (re-minting
//!   lock tokens exactly like the sans-io
//!   [`Cluster::crash_recover`](crate::Cluster::crash_recover)) and the
//!   epoch replays; replay from the consistent cut is deterministic, so
//!   results are byte-identical to a crash-free run. `poison` teardown
//!   remains only for application and service-thread panics.
//! * Recovery is counted in the same [`RecoveryStats`] the simulators
//!   report, and its `node_crash`, `node_suspected`, `checkpoint_take`,
//!   `rollback` and `token_regen` events go straight to the `tmk-trace`
//!   sink in [`RunOpts::trace`], stamped in host microseconds since the run
//!   started.
//!
//! ```
//! use tmk_core::runtime::{Dsm, DsmConfig, EpochStep, RunOpts};
//! use tmk_parmacs::{InitExt, SharedSlice, System};
//!
//! // Four nodes privately sum slices of a shared array.
//! let cfg = DsmConfig::new(4).segment_pages(4);
//! let out = Dsm::run_epochs(
//!     cfg,
//!     RunOpts::default(),
//!     |alloc, master| {
//!         let xs: SharedSlice<u64> = alloc.slice(32);
//!         for i in 0..32 {
//!             master.init(xs.addr_of(i), i as u64);
//!         }
//!         xs
//!     },
//!     |node, _epoch, xs| {
//!         let me = node.pid();
//!         node.barrier(0);
//!         EpochStep::Done((0..8).map(|i| xs.get(node, me * 8 + i)).sum::<u64>())
//!     },
//! );
//! assert_eq!(out.results.iter().sum::<u64>(), (0..32).sum());
//! ```

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tmk_parmacs::{Alloc, Cycle, InitWriter, System};
use tmk_trace::{Event, EventKind, Sink, Track};

use crate::cluster::Traffic;
use crate::faults::roll_fate;
use crate::reliable::{PacketId, RelStats, Reliability, RetransmitPolicy, Timeout};
use crate::{
    Action, BarrierId, Config, CrashPoint, Envelope, Fate, FaultPlan, FaultStats, LockId, Node,
    NodeCheckpoint, NodeId, NodeStats, RecoveryStats, SharedAddr,
};

pub use crate::Config as DsmConfig;

enum Wire {
    /// An envelope, its reliability id (None = loopback), and the cluster
    /// generation it was stamped with at send time.
    Env(Envelope, Option<PacketId>, u64),
    Stop,
}

struct NodeCell {
    inner: Mutex<NodeInner>,
    cv: Condvar,
}

struct NodeInner {
    node: Node,
    completions: Vec<Action>,
}

/// A delayed copy held by the fault plan until `due`.
struct Delayed {
    env: Envelope,
    pid: PacketId,
    gen: u64,
    due: Instant,
}

/// How one epoch driver arrives at the inter-epoch fence.
enum Arrival {
    /// Epoch body + epoch barrier completed; more epochs wanted.
    Completed,
    /// Epoch body returned [`EpochStep::Done`].
    Done,
    /// This node's scheduled crash fired.
    Crashed(NodeId),
    /// Unwound by a rollback raised elsewhere.
    Rolled,
}

/// The fence leader's decision for the next round.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Checkpoint taken; run this epoch next.
    Proceed(u64),
    /// Cluster rolled back; replay from this epoch.
    Replay(u64),
    /// Every node finished: return results.
    Finish,
    /// The cluster is poisoned; unwind.
    Abort,
}

struct FenceState {
    arrived: usize,
    done: usize,
    crashed: Vec<NodeId>,
    round: u64,
    /// The epoch the current round just finished (or is replaying).
    epoch: u64,
    verdict: Option<(u64, Verdict)>,
}

struct Fence {
    state: Mutex<FenceState>,
    cv: Condvar,
}

/// The wire's shared state, all behind [`Shared::channel`]'s one lock.
///
/// Lock order: the fence state before the channel; the channel before the
/// recovery counters and the cell locks. Nothing takes the channel while
/// holding a cell lock, so the ticker may suspect a peer (which wakes every
/// cell) without releasing it.
struct Channel {
    /// Every copy a sender put on the wire, retransmissions included.
    traffic: Traffic,
    /// Sequence numbers, duplicate suppression and retransmit flights, in
    /// microseconds since `t0`; each flight is stamped with the generation
    /// its packet was sent under.
    rel: Reliability,
    /// What the fault plan did to each copy, in all and per `(src, dst)`
    /// link.
    faults: FaultStats,
    links: BTreeMap<(NodeId, NodeId), FaultStats>,
    /// Copies the fault plan holds back until they are due.
    delayed: Vec<Delayed>,
}

struct Shared {
    cells: Vec<Arc<NodeCell>>,
    senders: Vec<Sender<Wire>>,
    channel: Mutex<Channel>,
    faults: Option<FaultPlan>,
    crashes: Vec<CrashPoint>,
    /// First fatal error: any node/service-thread panic poisons the whole
    /// cluster so blocked peers abort instead of waiting forever.
    poison: Mutex<Option<String>>,
    // --- crash recovery ---
    t0: Instant,
    /// Cluster generation: bumped on rollback so messages stamped before a
    /// restore can never be delivered into restored state.
    gen: AtomicU64,
    /// A rollback has been raised; application threads unwind at their
    /// next DSM operation or blocked wait.
    rollback: AtomicBool,
    stop_ticker: AtomicBool,
    down: Vec<AtomicBool>,
    suspected: Vec<AtomicBool>,
    /// One flag per scheduled crash point: fire exactly once.
    crash_fired: Vec<AtomicBool>,
    /// Per-node DSM-operation counters within the current epoch.
    ops: Vec<AtomicU64>,
    /// Per-node current epoch (for crash-point matching).
    epochs_now: Vec<AtomicU64>,
    recovery: Mutex<RecoveryStats>,
    /// Where the recovery events go, on the `t0` microsecond clock.
    trace: Sink,
    /// The last checkpoint and the epoch it precedes; start-up's is epoch 0.
    ckpt: Mutex<(u64, Vec<NodeCheckpoint>)>,
    fence: Fence,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Logs a recovery instant on `node`'s track at the current time.
    fn emit(&self, node: NodeId, kind: EventKind) {
        self.trace.emit(Event {
            track: Track::Node(node as u32),
            at: self.now_us(),
            dur: 0,
            kind,
        });
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.down[node].load(Ordering::Acquire)
    }

    /// Transmits application-thread sends, stamped with the current
    /// generation.
    fn transmit(&self, sends: Vec<Envelope>) {
        let gen = self.gen.load(Ordering::Acquire);
        self.transmit_as(gen, sends);
    }

    /// Transmits `sends` stamped with generation `gen` (service threads
    /// pass the generation of the message whose handling produced them, so
    /// work derived from stale state stays stale).
    fn transmit_as(&self, gen: u64, sends: Vec<Envelope>) {
        for env in sends {
            if env.from == env.to {
                // Loopback skips the wire: no traffic, no reliability.
                let _ = self.senders[env.to].send(Wire::Env(env, None, gen));
                continue;
            }
            if self.sever(&env) {
                continue;
            }
            let mut ch = guard(&self.channel);
            let (pid, _) = ch.rel.send(&env, self.now_us(), gen);
            self.launch(&mut ch, env, pid, gen, 0);
        }
    }

    /// Whether the wire eats `env` because an end of it is down; a severed
    /// copy is counted in the recovery stats.
    fn sever(&self, env: &Envelope) -> bool {
        let down = self.is_down(env.from) || self.is_down(env.to);
        if down {
            guard(&self.recovery).messages_severed += 1;
        }
        down
    }

    /// Puts one copy of a registered packet on the wire, counting it and
    /// applying the seeded fault plan. A dropped copy leaves the flight
    /// armed for the retransmission ticker to repair.
    fn launch(&self, ch: &mut Channel, env: Envelope, pid: PacketId, gen: u64, attempt: u32) {
        ch.traffic.record(&env);
        let fate = match &self.faults {
            Some(plan) => {
                let fate = roll_fate(plan, pid, attempt, env.msg.class().bit());
                ch.faults.record(fate);
                ch.links.entry((env.from, env.to)).or_default().record(fate);
                fate
            }
            None => Fate::Deliver,
        };
        match fate {
            Fate::Deliver => {
                let _ = self.senders[env.to].send(Wire::Env(env, Some(pid), gen));
            }
            Fate::Duplicate => {
                let _ = self.senders[env.to].send(Wire::Env(env.clone(), Some(pid), gen));
                let _ = self.senders[env.to].send(Wire::Env(env, Some(pid), gen));
            }
            Fate::Drop => {}
            Fate::Delay(hold_us) => {
                ch.delayed.push(Delayed {
                    env,
                    pid,
                    gen,
                    due: Instant::now() + Duration::from_micros(hold_us),
                });
            }
        }
    }

    /// Records the first fatal error and wakes every blocked waiter
    /// (including fence waiters). Returns whether this call won the race
    /// to be the primary cause — losers must re-panic with the `TEARDOWN`
    /// prefix so exactly one primary panic surfaces.
    fn poison(&self, msg: String) -> bool {
        let won = {
            let mut p = guard(&self.poison);
            if p.is_none() {
                *p = Some(msg);
                true
            } else {
                false
            }
        };
        for cell in &self.cells {
            // Taking the cell lock serializes with waiters between their
            // poison check and their condvar wait, so no wakeup is lost.
            let _guard = guard(&cell.inner);
            cell.cv.notify_all();
        }
        {
            let _guard = guard(&self.fence.state);
            self.fence.cv.notify_all();
        }
        won
    }

    fn poison_text(&self) -> Option<String> {
        guard(&self.poison).clone()
    }

    /// Marks `node` dead: its driver unwinds and the wire starts severing
    /// its traffic.
    fn note_crash(&self, node: NodeId) {
        self.down[node].store(true, Ordering::SeqCst);
        guard(&self.recovery).crashes += 1;
        self.emit(node, EventKind::NodeCrash { node: node as u32 });
    }

    /// Gives `node` up for dead (once per incident) and raises a rollback.
    fn suspect(&self, node: NodeId) {
        if self.suspected[node].swap(true, Ordering::SeqCst) {
            return;
        }
        guard(&self.recovery).suspected += 1;
        self.emit(node, EventKind::NodeSuspected { node: node as u32 });
        self.raise_rollback();
    }

    /// Raises a cluster-wide rollback: stamps a new generation and wakes
    /// every blocked application thread so it unwinds to the fence.
    fn raise_rollback(&self) {
        if self.rollback.swap(true, Ordering::SeqCst) {
            return;
        }
        self.gen.fetch_add(1, Ordering::SeqCst);
        for cell in &self.cells {
            let _guard = guard(&cell.inner);
            cell.cv.notify_all();
        }
    }

    /// Takes a barrier-consistent checkpoint of every node (the caller —
    /// the fence leader — guarantees all application threads are parked,
    /// so each node is quiescent at the completed epoch barrier).
    fn take_checkpoint(&self, epoch: u64) {
        let mut snaps = Vec::with_capacity(self.cells.len());
        let mut pages = 0u64;
        for cell in &self.cells {
            let inner = guard(&cell.inner);
            let ck = inner.node.checkpoint();
            pages += ck.pages_resident();
            snaps.push(ck);
        }
        *guard(&self.ckpt) = (epoch, snaps);
        guard(&self.recovery).checkpoints += 1;
        self.emit(0, EventKind::CheckpointTake { pages });
    }

    /// Rolls every node back to the last checkpoint (the runtime analogue
    /// of [`Cluster::crash_recover`](crate::Cluster::crash_recover)):
    /// counts the lock tokens the rollback forgets, restores all nodes,
    /// clears reliability state, and revives the crashed nodes. Returns the
    /// epoch to replay from.
    fn recover(&self, st: &mut FenceState) -> u64 {
        if !self.rollback.swap(true, Ordering::SeqCst) {
            self.gen.fetch_add(1, Ordering::SeqCst);
        }
        // Seal the recovery generation *before* touching node state: a
        // message stamped during the outage window (one of the two bumped
        // generations) can never match the post-restore generation, so
        // stale protocol traffic cannot corrupt restored state.
        self.gen.fetch_add(1, Ordering::SeqCst);
        let crashed = std::mem::take(&mut st.crashed);
        let ckpt = guard(&self.ckpt);
        let (ck_epoch, snaps) = &*ckpt;
        let mut regen = 0u64;
        for (id, cell) in self.cells.iter().enumerate() {
            let mut inner = guard(&cell.inner);
            regen += inner.node.forgotten_tokens(crashed.contains(&id));
            inner.node.restore(&snaps[id]);
            inner.completions.clear();
        }
        {
            // Under the channel lock so the ticker cannot suspect a stale
            // flight of an already-revived node.
            let mut ch = guard(&self.channel);
            ch.rel.abandon_in_flight();
            ch.delayed.clear();
            for &c in &crashed {
                self.down[c].store(false, Ordering::SeqCst);
            }
            for s in &self.suspected {
                s.store(false, Ordering::SeqCst);
            }
        }
        let mut restored = 0;
        for &c in &crashed {
            let pages = snaps[c].pages_resident();
            restored += pages;
            let node = c as u32;
            self.emit(c, EventKind::Rollback { node, pages });
        }
        if regen > 0 {
            self.emit(0, EventKind::TokenRegen { count: regen });
        }
        {
            let mut rec = guard(&self.recovery);
            rec.rollbacks += 1;
            rec.tokens_regenerated += regen;
            rec.pages_refetched += restored;
        }
        self.rollback.store(false, Ordering::SeqCst);
        st.epoch = *ck_epoch;
        *ck_epoch
    }

    /// The inter-epoch rendezvous of all epoch drivers. The last arriver
    /// leads: it recovers (if anything crashed or rolled), finishes (if
    /// every body is done), or checkpoints and proceeds.
    fn fence(&self, arrival: Arrival) -> Verdict {
        let n = self.cells.len();
        let Fence { state, cv } = &self.fence;
        let mut st = guard(state);
        let round = st.round;
        match arrival {
            Arrival::Completed | Arrival::Rolled => {}
            Arrival::Done => st.done += 1,
            Arrival::Crashed(id) => st.crashed.push(id),
        }
        let rolled_back = matches!(arrival, Arrival::Rolled);
        st.arrived += 1;
        if st.arrived < n {
            while st.verdict.is_none_or(|(r, _)| r != round) {
                if let Some(cause) = self.poison_text() {
                    panic!("{TEARDOWN}{cause}");
                }
                st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            return st.verdict.expect("verdict set").1;
        }
        let verdict =
            if !st.crashed.is_empty() || rolled_back || self.rollback.load(Ordering::Acquire) {
                Verdict::Replay(self.recover(&mut st))
            } else if st.done == n {
                Verdict::Finish
            } else if st.done > 0 {
                // Every application thread is at this fence, so setting the
                // cause is all the poisoning needed (`poison` would re-take
                // the fence lock held here).
                guard(&self.poison).get_or_insert(format!(
                    "epoch bodies disagree: {} of {n} nodes finished at epoch {}",
                    st.done, st.epoch
                ));
                Verdict::Abort
            } else {
                self.take_checkpoint(st.epoch + 1);
                st.epoch += 1;
                Verdict::Proceed(st.epoch)
            };
        st.arrived = 0;
        st.done = 0;
        st.crashed.clear();
        st.round += 1;
        st.verdict = Some((round, verdict));
        cv.notify_all();
        verdict
    }

    /// The retransmission / delay ticker: releases matured delayed copies
    /// and re-sends overdue unacked packets; exhaustion against a down peer
    /// is the failure detector.
    fn ticker(&self) {
        // Only a drop or a crash can lose a copy; duplicates and delays
        // always deliver. Without either, every flight is acked in time and
        // a host-time RTO could only fire because the host is busy, so the
        // overdue scan is skipped.
        let lossy = self.faults.as_ref().is_some_and(|p| p.drop > 0.0) || !self.crashes.is_empty();
        loop {
            if self.stop_ticker.load(Ordering::Acquire) {
                return;
            }
            {
                let mut ch = guard(&self.channel);
                let now = Instant::now();
                let (ripe, hold): (Vec<Delayed>, Vec<Delayed>) =
                    ch.delayed.drain(..).partition(|d| d.due <= now);
                ch.delayed = hold;
                for d in ripe {
                    let _ = self.senders[d.env.to].send(Wire::Env(d.env, Some(d.pid), d.gen));
                }
                let now_us = self.now_us();
                let overdue = if lossy {
                    ch.rel.overdue(now_us)
                } else {
                    Vec::new()
                };
                for pid in overdue {
                    let (env, gen, attempt) = match ch.rel.timeout(pid, now_us) {
                        Timeout::Stale => continue,
                        Timeout::Resend {
                            env,
                            stamp,
                            attempt,
                            ..
                        } => (env, stamp, attempt),
                        Timeout::Exhausted {
                            env,
                            stamp,
                            attempt,
                            ..
                        } => {
                            // Only a peer that is actually down is given up
                            // for dead: a live one this slow means the host
                            // is overloaded (in-process channels lose
                            // nothing), so it is nudged again. Suspicion is
                            // raised under the channel lock: recovery
                            // abandons flights and clears down flags
                            // atomically with respect to this scan, so a
                            // stale flight can never re-suspect a revived
                            // node.
                            if let Some(dead) =
                                [pid.1, pid.0].into_iter().find(|&n| self.is_down(n))
                            {
                                self.suspect(dead);
                            }
                            (env, stamp, attempt)
                        }
                    };
                    if !self.sever(&env) {
                        self.launch(&mut ch, env, pid, gen, attempt);
                    }
                }
            }
            std::thread::sleep(TICK);
        }
    }
}

/// Locks `m`, ignoring poison. The runtime unwinds through held locks on
/// purpose (`wait_for` and `fence` panic with the rollback or teardown
/// marks while they hold one), and every later user must still get in.
fn guard<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a panic payload.
fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Prefix of the secondary panics raised by peers woken from a poisoned
/// cluster (used to keep the original panic as the surfaced one).
const TEARDOWN: &str = "DSM cluster torn down: ";
/// Panic payload of a scheduled crash (caught by the epoch driver).
const CRASH_MARK: &str = "__dsm_node_crash__";
/// Panic payload of a rollback unwind (caught by the epoch driver).
const ROLLBACK_MARK: &str = "__dsm_rollback__";

/// First of the 8 barrier ids reserved for the epoch fence of
/// [`Dsm::run_epochs`]; application code must not use ids at or above this.
pub const EPOCH_BARRIER_BASE: BarrierId = usize::MAX - 8;

/// Pre-parallel master handle: writes initial shared data on node 0 before
/// the node bodies start (the PARMACS "master initializes, then forks"
/// idiom); `init` gets it beside an [`Alloc`] for the layout.
pub struct Master<'a> {
    node0: &'a mut Node,
}

impl InitWriter for Master<'_> {
    fn write_init(&mut self, addr: SharedAddr, bytes: &[u8]) {
        self.node0.master_write(addr, bytes);
    }
}

/// The per-node application handle.
pub struct DsmNode {
    id: NodeId,
    shared: Arc<Shared>,
}

impl DsmNode {
    fn cell(&self) -> &NodeCell {
        &self.shared.cells[self.id]
    }

    /// Per-operation hook: unwinds to the fence when a rollback is raised,
    /// and fires this node's scheduled crash point when its operation count
    /// comes up.
    fn op_tick(&self) {
        let sh = &*self.shared;
        if sh.rollback.load(Ordering::Acquire) {
            panic!("{ROLLBACK_MARK}");
        }
        if sh.crashes.is_empty() {
            return;
        }
        let epoch = sh.epochs_now[self.id].load(Ordering::Relaxed);
        let op = sh.ops[self.id].fetch_add(1, Ordering::Relaxed) + 1;
        for (i, cp) in sh.crashes.iter().enumerate() {
            if cp.node == self.id
                && cp.epoch == epoch
                && cp.op == op
                && !sh.crash_fired[i].swap(true, Ordering::SeqCst)
            {
                sh.note_crash(self.id);
                panic!("{CRASH_MARK}");
            }
        }
    }

    fn wait_for(&self, want: Action) {
        let cell = self.cell();
        let mut inner = guard(&cell.inner);
        loop {
            if let Some(pos) = inner.completions.iter().position(|a| *a == want) {
                inner.completions.remove(pos);
                return;
            }
            if let Some(msg) = self.shared.poison_text() {
                panic!("{TEARDOWN}{msg}");
            }
            if self.shared.rollback.load(Ordering::Acquire) {
                panic!("{ROLLBACK_MARK}");
            }
            inner = cell.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Validates all pages of `[addr, addr+len)` then runs `f` under the
    /// node mutex, retrying if a concurrent invalidation slips in between.
    fn access(&self, addr: SharedAddr, len: usize, write: bool, f: impl FnOnce(&mut Node)) {
        self.op_tick();
        let mut f = Some(f);
        loop {
            let (page, sends) = {
                let mut inner = guard(&self.cell().inner);
                match inner.node.next_fault(addr, len, write) {
                    None => {
                        let f = f.take().expect("access completes once");
                        f(&mut inner.node);
                        return;
                    }
                    Some(p) => {
                        let start = inner.node.fault(p, write);
                        if start.ready {
                            continue;
                        }
                        (p, start.sends)
                    }
                }
            };
            self.shared.transmit(sends);
            self.wait_for(Action::PageReady(page));
        }
    }

    /// This node's protocol statistics so far.
    pub fn stats(&self) -> NodeStats {
        *guard(&self.cell().inner).node.stats()
    }
}

/// The runtime is one more PARMACS platform: shared accesses take page
/// faults and twin pages as needed, locks and barriers block the calling
/// thread, and `compute` does nothing because host time is real.
impl System for DsmNode {
    fn nprocs(&self) -> usize {
        self.shared.cells.len()
    }
    fn pid(&self) -> usize {
        self.id
    }
    fn read_bytes(&self, addr: SharedAddr, buf: &mut [u8]) {
        self.access(addr, buf.len(), false, |node| node.read_into(addr, buf));
    }
    fn write_bytes(&self, addr: SharedAddr, bytes: &[u8]) {
        self.access(addr, bytes.len(), true, |node| node.write_from(addr, bytes));
    }
    fn lock(&self, lock: LockId) {
        self.op_tick();
        let start = guard(&self.cell().inner).node.acquire(lock);
        self.shared.transmit(start.sends);
        if !start.ready {
            self.wait_for(Action::LockGranted(lock));
        }
    }
    fn unlock(&self, lock: LockId) {
        self.op_tick();
        let sends = guard(&self.cell().inner).node.release(lock);
        self.shared.transmit(sends);
    }
    fn barrier(&self, barrier: BarrierId) {
        self.op_tick();
        let start = guard(&self.cell().inner).node.barrier_arrive(barrier);
        self.shared.transmit(start.sends);
        if !start.ready {
            self.wait_for(Action::BarrierDone(barrier));
        }
    }
    fn compute(&self, _cycles: Cycle) {}
}

/// What an epoch body tells the driver after each epoch.
#[derive(Debug)]
pub enum EpochStep<R> {
    /// Run another epoch after the checkpoint.
    Continue,
    /// This node is finished (every node must finish at the same epoch).
    Done(R),
}

/// The runtime's retransmission policy. Unlike the cycle-based simulators,
/// the runtime reads `timeout` (and its backoff products) in host
/// **microseconds**: a 5 ms base RTO, well above in-process delivery
/// latency while keeping fault-injection tests fast. Plans that cannot lose
/// a copy never retransmit at all (see `Shared::ticker`).
const POLICY: RetransmitPolicy = RetransmitPolicy {
    timeout: 5_000,
    backoff: 2,
    max_retries: 8,
    adaptive: None,
};

/// How often the ticker looks for overdue packets and ripe delays: a
/// quarter of [`POLICY`]'s base RTO, capped at 1 ms.
const TICK: Duration = Duration::from_millis(1);

/// How long a crashed node waits for a peer to suspect it before
/// self-reporting at the fence (covers crashes no retransmission can
/// discover because no traffic was in flight).
const GRACE: Duration = Duration::from_millis(50);

/// Knobs of the hardened runtime (see [`Dsm::run_epochs`]).
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Link fault plan: its rates apply to every copy put on the wire,
    /// rolled from each packet's identity, and a delayed copy is held for
    /// [`FaultPlan::hold`] host microseconds. It must schedule no
    /// [`Crash`](crate::Crash) (the simulated machines' form, timed in
    /// cycles); the runtime's crashes are [`crashes`](Self::crashes).
    pub faults: Option<FaultPlan>,
    /// Scheduled node crashes, each at a node's `(epoch, op)`; the runtime,
    /// which checkpoints every run, always recovers them.
    pub crashes: Vec<CrashPoint>,
    /// Sink for the recovery events (`node_crash`, `node_suspected`,
    /// `checkpoint_take`, `rollback`, `token_regen`), timestamped in host
    /// microseconds since the run started; disabled by default.
    pub trace: Sink,
}

/// Entry points for running DSM programs on real threads.
#[derive(Debug)]
pub struct Dsm;

/// Results of [`Dsm::run_epochs`]: per-node return values plus aggregate
/// statistics.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-node return values, indexed by node id.
    pub results: Vec<R>,
    /// Summed protocol statistics.
    pub stats: NodeStats,
    /// Message traffic: every copy put on the wire, re-sends included.
    pub traffic: Traffic,
    /// Reliability-layer counters for the channel path.
    pub reliability: RelStats,
    /// Crash-recovery counters.
    pub recovery: RecoveryStats,
    /// What the fault plan did, in all.
    pub faults: FaultStats,
    /// What the fault plan did per `(src, dst)` link, sorted by link.
    pub links: Vec<((NodeId, NodeId), FaultStats)>,
}

impl Dsm {
    /// Runs `body` on every node of a fresh cluster, as the one epoch of
    /// [`run_epochs`](Self::run_epochs) under the default [`RunOpts`];
    /// shared memory starts zeroed.
    pub fn run<R, F>(cfg: Config, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&DsmNode) -> R + Send + Sync,
    {
        let body = move |node: &DsmNode, _epoch, _: &()| EpochStep::Done(body(node));
        Self::run_epochs(cfg, RunOpts::default(), |_, _| (), body).results
    }

    /// Runs `init` on the master pre-fork, then an epoch-structured program
    /// on every node, with crash recovery armed. `init` lays shared data out
    /// with an [`Alloc`] over the whole segment and writes its initial
    /// values through the [`Master`]; the value it returns is shared (by
    /// reference) with every body — typically the addresses of the
    /// allocated data structures. A PARMACS [`Workload`](tmk_parmacs::Workload)
    /// `w` runs as `init = |a, m| { let p = w.plan(a); w.init(&p, m); p }`
    /// and `body = |node, _, p| EpochStep::Done(w.body(node, p))`.
    ///
    /// `body(node, epoch, plan)` runs one epoch and returns whether to
    /// continue; after each epoch the cluster synchronizes on a reserved
    /// barrier (see [`EPOCH_BARRIER_BASE`]) and takes a barrier-consistent
    /// checkpoint of every node (the first is taken at start-up). A crashed
    /// node (scheduled in [`RunOpts::crashes`], detected by
    /// retransmission exhaustion or crash-site self-report after a 50 ms
    /// grace) rolls the whole cluster back to the last checkpoint —
    /// lock tokens re-mint at their managers, page copies restore from the
    /// snapshot — and the epoch replays. Replay from the consistent cut is
    /// deterministic, so results are byte-identical to a crash-free run.
    /// Seeded drops and delays are repaired by host-time retransmission,
    /// duplicates are suppressed by the reliability layer.
    ///
    /// Every node's body must return [`EpochStep::Done`] at the same epoch,
    /// or the cluster is torn down.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` arms barrier-time GC, which checkpointing does not
    /// support, or if `opts.faults` schedules a [`Crash`](crate::Crash),
    /// which is timed in simulated cycles.
    pub fn run_epochs<T, R, I, F>(cfg: Config, opts: RunOpts, init: I, body: F) -> RunOutput<R>
    where
        T: Send + Sync,
        R: Send,
        I: FnOnce(&mut Alloc, &mut Master<'_>) -> T,
        F: Fn(&DsmNode, u64, &T) -> EpochStep<R> + Send + Sync,
    {
        assert!(
            cfg.gc.is_none(),
            "run_epochs: barrier-time GC is not supported with checkpointing"
        );
        assert!(
            opts.faults.as_ref().is_none_or(|p| p.crashes.is_empty()),
            "run_epochs: a FaultPlan crash is timed in cycles; schedule RunOpts::crashes instead"
        );
        install_quiet_hook();
        let n = cfg.nodes;
        let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, cfg.clone())).collect();

        let plan = init(
            &mut Alloc::new(cfg.segment_bytes()),
            &mut Master {
                node0: &mut nodes[0],
            },
        );

        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Wire>();
            senders.push(tx);
            receivers.push(rx);
        }
        let cells: Vec<Arc<NodeCell>> = nodes
            .into_iter()
            .map(|node| {
                Arc::new(NodeCell {
                    inner: Mutex::new(NodeInner {
                        node,
                        completions: Vec::new(),
                    }),
                    cv: Condvar::new(),
                })
            })
            .collect();
        let crash_count = opts.crashes.len();
        let shared = Arc::new(Shared {
            cells,
            senders,
            channel: Mutex::new(Channel {
                traffic: Traffic::default(),
                rel: Reliability::new(POLICY),
                faults: FaultStats::default(),
                links: BTreeMap::new(),
                delayed: Vec::new(),
            }),
            faults: opts.faults,
            crashes: opts.crashes,
            poison: Mutex::new(None),
            t0: Instant::now(),
            gen: AtomicU64::new(0),
            rollback: AtomicBool::new(false),
            stop_ticker: AtomicBool::new(false),
            down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            suspected: (0..n).map(|_| AtomicBool::new(false)).collect(),
            crash_fired: (0..crash_count).map(|_| AtomicBool::new(false)).collect(),
            ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epochs_now: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recovery: Mutex::new(RecoveryStats::default()),
            trace: opts.trace,
            ckpt: Mutex::new((0, Vec::new())),
            fence: Fence {
                state: Mutex::new(FenceState {
                    arrived: 0,
                    done: 0,
                    crashed: Vec::new(),
                    round: 0,
                    epoch: 0,
                    verdict: None,
                }),
                cv: Condvar::new(),
            },
        });

        // The initial checkpoint: cluster start-up is trivially consistent.
        shared.take_checkpoint(0);

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            // Retransmission / delayed-delivery ticker.
            {
                let shared = Arc::clone(&shared);
                scope.spawn(move || shared.ticker());
            }
            // Service threads: deliver protocol messages.
            for (id, rx) in receivers.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    while let Ok(wire) = rx.recv() {
                        let (env, pid, mgen) = match wire {
                            Wire::Env(e, p, g) => (e, p, g),
                            Wire::Stop => return,
                        };
                        if let Some(pid) = pid {
                            // Delivery confirms receipt (the ack rides the
                            // reply) and cancels the retransmit timer;
                            // duplicates never reach the handler.
                            let now_us = shared.now_us();
                            if !guard(&shared.channel).rel.delivered(pid, now_us) {
                                continue;
                            }
                        }
                        let cell = &shared.cells[id];
                        let sends = {
                            let mut inner = guard(&cell.inner);
                            // A message stamped before a rollback's restore
                            // must never touch restored state; the check sits
                            // under the cell lock, which recovery also holds
                            // to restore, so it cannot race the restore.
                            if mgen != shared.gen.load(Ordering::Acquire) {
                                continue;
                            }
                            match catch_unwind(AssertUnwindSafe(|| inner.node.handle(env))) {
                                Ok(h) => {
                                    if !h.actions.is_empty() {
                                        inner.completions.extend(h.actions.iter().copied());
                                        cell.cv.notify_all();
                                    }
                                    h.sends
                                }
                                Err(p) => {
                                    // A service-thread panic would deadlock
                                    // every peer waiting on this node: tear
                                    // down.
                                    drop(inner);
                                    shared.poison(format!(
                                        "service thread of node {id} panicked: {}",
                                        panic_text(p.as_ref())
                                    ));
                                    return;
                                }
                            }
                        };
                        // Derived sends inherit the triggering message's
                        // generation: work derived from stale state stays
                        // stale.
                        shared.transmit_as(mgen, sends);
                    }
                });
            }
            // Application threads: epoch drivers.
            let body = &body;
            let plan = &plan;
            let mut apps = Vec::with_capacity(n);
            for (id, slot) in results.iter_mut().enumerate() {
                let shared = Arc::clone(&shared);
                apps.push(scope.spawn(move || {
                    let handle = DsmNode {
                        id,
                        shared: Arc::clone(&shared),
                    };
                    *slot = Some(drive(&shared, &handle, body, plan));
                }));
            }
            // Join the application threads, then release the service threads
            // and the ticker (the scope would otherwise wait on them forever).
            // Secondary teardown panics (peers woken from a poisoned cluster)
            // lose to the originating panic.
            let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
            let mut panicked_secondary = false;
            for h in apps {
                if let Err(p) = h.join() {
                    let secondary = panic_text(p.as_ref()).starts_with(TEARDOWN);
                    if panicked.is_none() || (panicked_secondary && !secondary) {
                        panicked = Some(p);
                        panicked_secondary = secondary;
                    }
                }
            }
            shared.stop_ticker.store(true, Ordering::Release);
            for tx in &shared.senders {
                let _ = tx.send(Wire::Stop);
            }
            if let Some(p) = panicked {
                std::panic::resume_unwind(p);
            }
        });

        // A service thread may have died without any app thread noticing
        // (its panic must still surface, not vanish).
        if let Some(msg) = shared.poison_text() {
            panic!("{TEARDOWN}{msg}");
        }

        let mut stats = NodeStats::default();
        for cell in &shared.cells {
            stats.merge(guard(&cell.inner).node.stats());
        }
        let recovery = *guard(&shared.recovery);
        let ch = guard(&shared.channel);
        RunOutput {
            results: results.into_iter().map(|r| r.expect("body ran")).collect(),
            stats,
            traffic: ch.traffic,
            reliability: *ch.rel.stats(),
            recovery,
            faults: ch.faults,
            links: ch.links.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }
}

/// The epoch driver run by each application thread: epochs, the fence, and
/// panic classification (crash / rollback / teardown).
fn drive<T, R, F>(shared: &Arc<Shared>, handle: &DsmNode, body: &F, plan: &T) -> R
where
    F: Fn(&DsmNode, u64, &T) -> EpochStep<R> + Send + Sync,
{
    let id = handle.pid();
    let mut epoch = 0u64;
    let mut result: Option<R> = None;
    loop {
        shared.epochs_now[id].store(epoch, Ordering::Relaxed);
        shared.ops[id].store(0, Ordering::Relaxed);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let step = body(handle, epoch, plan);
            handle.barrier(EPOCH_BARRIER_BASE + (epoch % 8) as usize);
            step
        }));
        let arrival = match r {
            Ok(EpochStep::Done(v)) => {
                result = Some(v);
                Arrival::Done
            }
            Ok(EpochStep::Continue) => Arrival::Completed,
            Err(p) => {
                let text = panic_text(p.as_ref());
                if text == CRASH_MARK {
                    // Crash site: wait for a peer to suspect us (by
                    // retransmission exhaustion); self-report if nothing
                    // was in flight to discover the death.
                    let deadline = Instant::now() + GRACE;
                    while !shared.rollback.load(Ordering::Acquire)
                        && shared.poison_text().is_none()
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    if let Some(cause) = shared.poison_text() {
                        panic!("{TEARDOWN}{cause}");
                    }
                    if !shared.rollback.load(Ordering::Acquire) {
                        shared.suspect(id);
                    }
                    Arrival::Crashed(id)
                } else if text == ROLLBACK_MARK {
                    Arrival::Rolled
                } else if text.starts_with(TEARDOWN) {
                    std::panic::resume_unwind(p);
                } else {
                    // A real application panic. Exactly one panicker wins
                    // the poison race and surfaces as the primary cause;
                    // concurrent losers demote themselves to secondaries.
                    let won = shared.poison(format!("node {id} panicked: {text}"));
                    if won {
                        std::panic::resume_unwind(p);
                    }
                    let cause = shared.poison_text().unwrap_or_default();
                    panic!("{TEARDOWN}{cause}");
                }
            }
        };
        match shared.fence(arrival) {
            Verdict::Proceed(e) => epoch = e,
            Verdict::Replay(e) => {
                result = None;
                epoch = e;
            }
            Verdict::Finish => return result.expect("Finish implies Done"),
            Verdict::Abort => {
                let cause = shared.poison_text().unwrap_or_default();
                panic!("{TEARDOWN}{cause}");
            }
        }
    }
}

/// Silences the default panic-hook report for the runtime's control-flow
/// panics (crash marks, rollback marks, teardown echoes) — they are always
/// caught, and their backtraces would drown real diagnostics. Every other
/// panic is reported by whatever hook was installed before. Installed once,
/// process-wide, on first engine start.
fn install_quiet_hook() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let text = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| info.payload().downcast_ref::<String>().cloned());
            if let Some(t) = text {
                if t == CRASH_MARK || t == ROLLBACK_MARK || t.starts_with(TEARDOWN) {
                    return;
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_CLASSES;
    use tmk_parmacs::{SharedSlice, SystemExt};

    fn small(n: usize) -> Config {
        Config::new(n).segment_pages(8).page_size(256)
    }

    #[test]
    fn guard_ignores_poison() {
        let m = Mutex::new(7);
        let r = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = guard(&m);
                panic!("poison the lock");
            })
            .join()
        });
        assert!(r.is_err() && m.is_poisoned());
        *guard(&m) += 1;
        assert_eq!(*guard(&m), 8);
    }

    #[test]
    fn lock_counter_across_threads() {
        let out = Dsm::run(small(4), |node| {
            for _ in 0..50 {
                node.lock(0);
                let v = node.read::<u64>(0);
                node.write(0, v + 1);
                node.unlock(0);
            }
            node.barrier(0);
            node.read::<u64>(0)
        });
        assert!(out.into_iter().all(|v| v == 200));
    }

    #[test]
    fn barrier_ring_exchange() {
        // Each node writes its slot each round; neighbors read it next round.
        let n = 4;
        let rounds = 10u64;
        let out = Dsm::run(small(n), move |node| {
            let me = node.pid();
            let right = (me + 1) % n;
            let mut seen = 0u64;
            for r in 0..rounds {
                node.write(me * 8, r * 100 + me as u64);
                node.barrier(1);
                seen += node.read::<u64>(right * 8);
                node.barrier(2);
            }
            seen
        });
        let expect: Vec<u64> = (0..n)
            .map(|me| {
                let right = (me + 1) % n;
                (0..rounds).map(|r| r * 100 + right as u64).sum()
            })
            .collect();
        assert_eq!(out, expect);
    }

    /// [`Dsm::run_epochs`] with `body` as epoch 0.
    fn run_once<T: Send + Sync, R: Send>(
        cfg: Config,
        opts: RunOpts,
        init: impl FnOnce(&mut Alloc, &mut Master<'_>) -> T,
        body: impl Fn(&DsmNode, &T) -> R + Send + Sync,
    ) -> RunOutput<R> {
        Dsm::run_epochs(cfg, opts, init, |node, _, plan| {
            EpochStep::Done(body(node, plan))
        })
    }

    /// Options arming `plan`'s link faults.
    fn faulty(plan: FaultPlan) -> RunOpts {
        RunOpts {
            faults: Some(plan),
            ..RunOpts::default()
        }
    }

    /// Options scheduling one crash of `node` at its `op`-th operation of
    /// `epoch`.
    fn crash_at(node: NodeId, epoch: u64, op: u64) -> RunOpts {
        RunOpts {
            crashes: vec![CrashPoint { node, epoch, op }],
            ..RunOpts::default()
        }
    }

    #[test]
    fn init_plan_shared_with_bodies() {
        let out = run_once(
            small(3),
            RunOpts::default(),
            |alloc, master| {
                let slots: SharedSlice<u64> = alloc.slice(3);
                slots.init_range(master, 0, &[11, 22, 33]);
                slots
            },
            |node, slots| slots.get(node, node.pid()),
        );
        assert_eq!(out.results, vec![11, 22, 33]);
    }

    #[test]
    fn stats_and_traffic_collected() {
        let out = run_once(
            small(2),
            RunOpts::default(),
            |_, _| (),
            |node, ()| {
                node.lock(1);
                node.write(0, node.pid() as u64);
                node.unlock(1);
                node.barrier(0);
            },
        );
        // Two application arrivals and two at the epoch fence.
        assert_eq!(out.stats.barriers, 4);
        assert!(out.stats.lock_releases == 2);
        assert!(out.traffic.total_msgs() > 0);
    }

    #[test]
    fn app_panic_tears_down_instead_of_deadlocking() {
        // Node 0 dies; the others are parked at a barrier that can never
        // complete. Without teardown this test hangs forever.
        let r = std::panic::catch_unwind(|| {
            Dsm::run(small(3), |node| {
                if node.pid() == 0 {
                    panic!("application exploded");
                }
                node.barrier(0);
            })
        });
        let p = r.expect_err("panic must propagate");
        let text = panic_text(p.as_ref());
        assert!(
            text.contains("application exploded"),
            "original panic surfaces, got: {text}"
        );
    }

    #[test]
    fn blocked_peers_report_the_teardown_cause() {
        let r = std::panic::catch_unwind(|| {
            Dsm::run(small(4), |node| {
                if node.pid() == 3 {
                    panic!("node three gave up");
                }
                // Lock 3 is managed (and held) by nobody after node 3 dies;
                // a peer blocked here can only be freed by the teardown.
                node.lock(usize::MAX - 3); // lock (MAX-3) % 4 == 0: manager node 0
                node.barrier(0);
            })
        });
        assert!(r.is_err(), "cluster must not report success");
    }

    #[test]
    fn duplicated_channel_messages_are_suppressed() {
        // Duplicate about every other cross-node message: the protocol must
        // be unaffected (effectively-once handlers) and the reliability
        // layer must report the suppressed copies.
        let out = run_once(
            small(4),
            faulty(FaultPlan::crash_schedule(2).with_dup(0.5)),
            |_, _| (),
            |node, ()| {
                for _ in 0..25 {
                    node.lock(0);
                    let v = node.read::<u64>(0);
                    node.write(0, v + 1);
                    node.unlock(0);
                }
                node.barrier(0);
                node.read::<u64>(0)
            },
        );
        assert!(out.results.into_iter().all(|v| v == 100));
        assert!(
            out.reliability.dup_suppressed > 0,
            "duplicates were injected and must be counted: {:?}",
            out.reliability
        );
        assert_eq!(out.reliability.retransmissions, 0, "channels lose nothing");
    }

    /// A deterministic lock-free program: every node publishes a slot each
    /// round and reads everyone's; the message stream (and thus each
    /// packet's `(src, dst, seq)`) does not depend on thread interleaving.
    fn publish_sum(node: &DsmNode, rounds: u64) -> u64 {
        let n = node.nprocs();
        let me = node.pid();
        let mut acc = 0u64;
        for r in 0..rounds {
            node.write(me * 8, r * 1000 + me as u64);
            node.barrier(3);
            acc += (0..n).map(|q| node.read::<u64>(q * 8)).sum::<u64>();
            node.barrier(4);
        }
        acc
    }

    #[test]
    fn same_seed_replays_the_same_fault_pattern_on_real_threads() {
        // Packet fates are a pure hash of (seed, src, dst, seq, attempt), so
        // the faults a link sees are fixed by how many packets it carried —
        // regardless of how the OS schedules the threads. *How many* it
        // carries is not: lock requests chase whoever holds the token at
        // the moment, so two runs can differ by a packet on a link. The
        // pure property is therefore checked per run: every link's counters
        // equal the tally of the fate function over the sequence numbers it
        // used (which makes any two runs agree on their common prefix).
        // Only attempt-0 copies exist here: dups and delays cannot lose a
        // copy, so the ticker never retransmits under this plan, however
        // busy the host. Drop determinism is covered by the pure-hash fate
        // tests and the repair test below.
        let plan = FaultPlan::crash_schedule(5)
            .with_dup(0.10)
            .with_delay(0.10, 200);
        let run = || {
            run_once(
                small(4),
                faulty(plan.clone()),
                |_, _| (),
                |node, ()| publish_sum(node, 4),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        for out in [&a, &b] {
            assert_eq!(out.reliability.retransmissions, 0, "attempt-0 copies only");
            for &((src, dst), seen) in &out.links {
                let mut want = FaultStats::default();
                for seq in 1..=seen.decisions {
                    want.record(roll_fate(&plan, (src, dst, seq), 0, ALL_CLASSES));
                }
                assert_eq!(
                    seen, want,
                    "link {src}->{dst} strayed from its seeded schedule"
                );
            }
        }
        assert!(
            a.faults.dups > 0 && a.faults.delays > 0,
            "the plan must actually fire: {:?}",
            a.faults
        );
    }

    #[test]
    fn retransmissions_repair_seeded_drops() {
        let out = run_once(
            small(4),
            faulty(FaultPlan::drop_rate(21, 0.08)),
            |_, _| (),
            |node, ()| publish_sum(node, 4),
        );
        let expect: u64 = (0..4u64)
            .map(|r| (0..4).map(|q| r * 1000 + q).sum::<u64>())
            .sum();
        assert!(out.results.into_iter().all(|v| v == expect));
        assert!(out.faults.drops > 0, "the seed must drop something");
        assert!(
            out.reliability.retransmissions > 0,
            "drops must be repaired by retransmission: {:?}",
            out.reliability
        );
        // Nothing is severed without crashes: every first send and every
        // re-send put one copy on the wire, and each is counted.
        assert_eq!(
            out.traffic.total_msgs(),
            out.reliability.data_msgs + out.reliability.retransmissions,
            "{:?}",
            out.reliability
        );
    }

    #[test]
    fn fault_free_runs_never_retransmit() {
        let out = run_once(
            small(4),
            RunOpts::default(),
            |_, _| (),
            |node, ()| publish_sum(node, 4),
        );
        assert_eq!(out.reliability.retransmissions, 0);
        assert_eq!(out.reliability.timeouts, 0);
        assert_eq!(out.faults.drops + out.faults.dups + out.faults.delays, 0);
        let startup_only = RecoveryStats {
            checkpoints: 1,
            ..RecoveryStats::default()
        };
        assert_eq!(
            out.recovery, startup_only,
            "a crash-free run does no recovery work past the start-up checkpoint"
        );
    }

    #[test]
    fn concurrent_panics_surface_exactly_one_primary() {
        // All nodes panic at once: exactly one must win the poison race
        // and surface as the primary cause; every loser demotes itself to
        // a TEARDOWN-prefixed secondary (and loses the join). Repeat to
        // give the race a chance to land in different orders.
        for _ in 0..20 {
            let r = std::panic::catch_unwind(|| {
                Dsm::run(small(4), |node| {
                    panic!("boom {}", node.pid());
                })
            });
            let p = r.expect_err("panic must propagate");
            let text = panic_text(p.as_ref());
            assert!(
                text.starts_with("boom "),
                "the primary panic surfaces unwrapped, got: {text}"
            );
        }
    }

    /// Three epochs in which every node bumps its own slot under a lock
    /// managed by its neighbour (so each token rests away from its manager
    /// and a rollback must re-mint it), then a fourth that sums all slots.
    fn three_epochs(node: &DsmNode, epoch: u64, _: &()) -> EpochStep<u64> {
        if epoch < 3 {
            let addr = node.pid() * 8;
            node.lock(node.pid() + 1);
            let v = node.read::<u64>(addr);
            node.write(addr, v + (epoch + 1) * (node.pid() as u64 + 1));
            node.unlock(node.pid() + 1);
            EpochStep::Continue
        } else {
            // Prior epochs all ended at a barrier, so every write is
            // visible here.
            EpochStep::Done(
                (0..node.nprocs())
                    .map(|q| node.read::<u64>(q * 8))
                    .sum::<u64>(),
            )
        }
    }

    #[test]
    fn crash_recovery_replays_to_identical_results() {
        let clean = Dsm::run_epochs(small(3), RunOpts::default(), |_, _| (), three_epochs);
        let crashed = Dsm::run_epochs(small(3), crash_at(1, 1, 1), |_, _| (), three_epochs);
        let expect: u64 = (0..3u64).map(|id| (1 + 2 + 3) * (id + 1)).sum();
        assert!(clean.results.iter().all(|&v| v == expect));
        assert_eq!(clean.results, crashed.results, "recovery must be exact");
        assert_eq!(crashed.recovery.crashes, 1);
        assert_eq!(crashed.recovery.rollbacks, 1, "one crash, one rollback");
        assert!(crashed.recovery.suspected >= 1);
        assert!(crashed.recovery.checkpoints >= clean.recovery.checkpoints);
        assert_eq!(clean.recovery.rollbacks, 0);
    }

    #[test]
    fn recovery_events_are_traced_on_the_runtime_clock() {
        let buf = Arc::new(tmk_trace::TraceBuf::new(3, 1024));
        let opts = RunOpts {
            trace: Sink::new(Arc::clone(&buf)),
            ..crash_at(1, 1, 1)
        };
        let out = Dsm::run_epochs(small(3), opts, |_, _| (), three_epochs);
        let trace = buf.chrome_trace();
        let count = |kind: &str| trace.matches(&format!("{{\"name\":\"{kind}\"")).count() as u64;
        let rec = out.recovery;
        assert_eq!(count("node_crash"), rec.crashes, "{trace}");
        assert_eq!(count("node_suspected"), rec.suspected, "{trace}");
        assert_eq!(count("checkpoint_take"), rec.checkpoints, "{trace}");
        assert_eq!(count("rollback"), rec.rollbacks, "{trace}");
        assert!(rec.tokens_regenerated > 0, "{rec:?}");
        assert_eq!(count("token_regen"), 1, "{trace}");
        assert_eq!((rec.crashes, rec.rollbacks), (1, 1));
    }

    #[test]
    fn crash_in_the_only_epoch_rolls_back_to_start_up() {
        // Node 0 crashes at its barrier (op 2) of epoch 0: the cluster
        // rolls back to the start-up checkpoint and replays the epoch.
        let body = |node: &DsmNode, _: &()| {
            node.write(node.pid() * 8, node.pid() as u64 + 1);
            node.barrier(0);
            (0..node.nprocs())
                .map(|q| node.read::<u64>(q * 8))
                .sum::<u64>()
        };
        let clean = run_once(small(3), RunOpts::default(), |_, _| (), body);
        let crashed = run_once(small(3), crash_at(0, 0, 2), |_, _| (), body);
        assert_eq!(clean.results, vec![6; 3]);
        assert_eq!(crashed.results, clean.results, "recovery must be exact");
        assert_eq!(
            (crashed.recovery.crashes, crashed.recovery.rollbacks),
            (1, 1)
        );
        assert_eq!(crashed.recovery.checkpoints, 1, "only the start-up one");
    }

    #[test]
    #[should_panic(expected = "a FaultPlan crash is timed in cycles")]
    fn a_crash_timed_in_cycles_is_refused() {
        let plan = FaultPlan::crash_schedule(1).with_crash(1, 1_000, None);
        run_once(small(2), faulty(plan), |_, _| (), |_, ()| ());
    }

    #[test]
    fn epoch_bodies_that_disagree_tear_down() {
        let r = std::panic::catch_unwind(|| {
            Dsm::run_epochs(
                small(3),
                RunOpts::default(),
                |_, _| (),
                |node, _, ()| {
                    if node.pid() == 0 {
                        EpochStep::Done(())
                    } else {
                        EpochStep::Continue
                    }
                },
            )
        });
        let p = r.expect_err("a split finish must tear the cluster down");
        let text = panic_text(p.as_ref());
        assert!(text.contains("epoch bodies disagree"), "got: {text}");
    }

    #[test]
    fn false_sharing_merges_under_threads() {
        let n = 4;
        let out = Dsm::run(small(n), move |node| {
            let me = node.pid();
            // All slots in one 256-byte page.
            node.write(me * 8, me as u64 + 1);
            node.barrier(0);
            (0..n).map(|q| node.read::<u64>(q * 8)).sum::<u64>()
        });
        assert!(out.into_iter().all(|v| v == 1 + 2 + 3 + 4));
    }
}
