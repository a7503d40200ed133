//! A real multi-threaded DSM runtime over the sans-io protocol.
//!
//! Each node gets two OS threads: the *application* thread runs user code
//! against a [`DsmNode`] handle, and a *service* thread delivers incoming
//! protocol messages (TreadMarks serviced requests in signal handlers; a
//! dedicated thread is the natural Rust equivalent). Messages travel over
//! crossbeam channels. This runtime is a fully working in-process
//! distributed shared memory: page copies, twins, diffs and write notices
//! are all real.
//!
//! # Hardening
//!
//! The runtime survives an imperfect channel, like the paper's system had
//! to over UDP:
//!
//! * [`ChannelFaults`] injects a seeded plan of per-link drops, duplicates
//!   and delays at the transmit hook, plus scheduled node crashes.
//! * A retransmission ticker re-sends unacked packets on a host-time
//!   [`RetransmitPolicy`] (timeouts in microseconds here) with exponential
//!   backoff; exhaustion against a dead peer is the failure detector.
//! * [`Dsm::run_epochs`] structures the application into *epochs* separated
//!   by barrier-consistent checkpoints. A recoverable crash rolls every
//!   node back to the last checkpoint (re-minting lock tokens exactly like
//!   the sans-io [`Cluster::crash_recover`](crate::Cluster::crash_recover))
//!   and replays; replay from the consistent cut is deterministic, so
//!   results are byte-identical to a crash-free run. `poison` teardown
//!   remains only for unrecoverable states (application panics, crashes
//!   with no checkpoint armed).
//! * Recovery is counted in the same [`RecoveryStats`] the simulators
//!   report, and its `node_crash`, `node_suspected`, `checkpoint_take`,
//!   `rollback` and `token_regen` events go straight to the `tmk-trace`
//!   sink in [`RunOpts::trace`], stamped in host microseconds since the run
//!   started.
//!
//! ```
//! use tmk_core::runtime::{Dsm, DsmConfig};
//!
//! // Four nodes privately sum slices of a shared array.
//! let cfg = DsmConfig::new(4).segment_pages(4);
//! let sums = Dsm::run_with_init(
//!     cfg,
//!     |master| {
//!         for i in 0..32u64 {
//!             master.write_u64((i * 8) as usize, i);
//!         }
//!     },
//!     |node, ()| {
//!         let me = node.id();
//!         node.barrier(0);
//!         (0..8u64)
//!             .map(|i| node.read_u64(((me as u64 * 8 + i) * 8) as usize))
//!             .sum::<u64>()
//!     },
//! );
//! assert_eq!(sums.iter().sum::<u64>(), (0..32).sum());
//! ```

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use tmk_trace::{Event, EventKind, Sink, Track};

use crate::cluster::Traffic;
use crate::reliable::{PacketId, RelStats, Reliability, RetransmitPolicy, Timeout};
use crate::runtime_faults::{roll_fate, LinkFate};
use crate::{
    Action, BarrierId, Config, Envelope, LockId, Node, NodeCheckpoint, NodeId, NodeStats,
    RecoveryStats, SharedAddr, StartAcquire,
};

pub use crate::runtime_faults::{ChannelFaults, CrashPoint, FaultSummary, LinkFaults};
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

struct Shared {
    cells: Vec<Arc<NodeCell>>,
    senders: Vec<Sender<Wire>>,
    traffic: Mutex<Traffic>,
    header_bytes: usize,
    /// Sequence numbers, duplicate suppression and retransmit flights on
    /// the channel path, in microseconds since `t0`; each flight is stamped
    /// with the generation its packet was sent under.
    rel: Mutex<Reliability>,
    faults: ChannelFaults,
    /// How often the ticker looks for overdue packets and ripe delays.
    tick: Duration,
    /// First fatal error: any node/service-thread panic poisons the whole
    /// cluster so blocked peers abort instead of waiting forever.
    poison: Mutex<Option<String>>,
    // --- crash recovery ---
    /// Whether epoch checkpointing (and thus crash recovery) is armed.
    armed: bool,
    grace: Duration,
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
    links: Mutex<BTreeMap<(NodeId, NodeId), LinkFaults>>,
    delayed: Mutex<Vec<Delayed>>,
    recovery: Mutex<RecoveryStats>,
    severed: AtomicU64,
    /// Where the recovery events go, on the `t0` microsecond clock.
    trace: Sink,
    ckpt: Mutex<Option<(u64, Vec<NodeCheckpoint>)>>,
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
            if self.is_down(env.from) || self.is_down(env.to) {
                // The wire to/from a crashed node eats the message.
                self.severed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.traffic.lock().record(&env, self.header_bytes);
            let now_us = self.now_us();
            let (pid, _) = self.rel.lock().send(&env, now_us, gen);
            self.launch(env, pid, gen, 0);
        }
    }

    /// Puts one copy of a registered packet on the wire, applying the
    /// seeded fault plan. A dropped copy leaves the flight armed for the
    /// retransmission ticker to repair.
    fn launch(&self, env: Envelope, pid: PacketId, gen: u64, attempt: u32) {
        let fate = roll_fate(&self.faults, pid, attempt);
        self.links
            .lock()
            .entry((env.from, env.to))
            .or_default()
            .record(fate);
        match fate {
            LinkFate::Deliver => {
                let _ = self.senders[env.to].send(Wire::Env(env, Some(pid), gen));
            }
            LinkFate::Duplicate => {
                let _ = self.senders[env.to].send(Wire::Env(env.clone(), Some(pid), gen));
                let _ = self.senders[env.to].send(Wire::Env(env, Some(pid), gen));
            }
            LinkFate::Drop => {}
            LinkFate::Delay => {
                self.delayed.lock().push(Delayed {
                    env,
                    pid,
                    gen,
                    due: Instant::now() + Duration::from_micros(self.faults.delay_us),
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
            let mut p = self.poison.lock();
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
            let _guard = cell.inner.lock();
            cell.cv.notify_all();
        }
        {
            let _guard = self.fence.state.lock();
            self.fence.cv.notify_all();
        }
        won
    }

    fn poison_text(&self) -> Option<String> {
        self.poison.lock().clone()
    }

    /// Marks `node` dead: its driver unwinds and the wire starts severing
    /// its traffic.
    fn note_crash(&self, node: NodeId) {
        self.down[node].store(true, Ordering::SeqCst);
        self.recovery.lock().crashes += 1;
        self.emit(node, EventKind::NodeCrash { node: node as u32 });
    }

    /// Gives `node` up for dead (once per incident) and raises a rollback.
    fn suspect(&self, node: NodeId) {
        if !self.armed || self.suspected[node].swap(true, Ordering::SeqCst) {
            return;
        }
        self.recovery.lock().suspected += 1;
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
            let _guard = cell.inner.lock();
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
            let inner = cell.inner.lock();
            let ck = inner.node.checkpoint();
            pages += ck.pages_resident();
            snaps.push(ck);
        }
        *self.ckpt.lock() = Some((epoch, snaps));
        self.recovery.lock().checkpoints += 1;
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
        let ckpt = self.ckpt.lock();
        let (ck_epoch, snaps) = ckpt
            .as_ref()
            .expect("recovery requires an armed checkpoint");
        let mut regen = 0u64;
        for (id, cell) in self.cells.iter().enumerate() {
            let mut inner = cell.inner.lock();
            regen += inner.node.forgotten_tokens(crashed.contains(&id));
            inner.node.restore(&snaps[id]);
            inner.completions.clear();
        }
        {
            // Under the rel lock so the ticker cannot suspect a stale
            // flight of an already-revived node.
            let mut rel = self.rel.lock();
            rel.abandon_in_flight();
            for &c in &crashed {
                self.down[c].store(false, Ordering::SeqCst);
            }
            for s in &self.suspected {
                s.store(false, Ordering::SeqCst);
            }
        }
        self.delayed.lock().clear();
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
            let mut rec = self.recovery.lock();
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
        let mut st = self.fence.state.lock();
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
                self.fence.cv.wait(&mut st);
            }
            return st.verdict.expect("verdict set").1;
        }
        let verdict =
            if !st.crashed.is_empty() || rolled_back || self.rollback.load(Ordering::Acquire) {
                Verdict::Replay(self.recover(&mut st))
            } else if st.done == n {
                Verdict::Finish
            } else if st.done > 0 {
                self.poison(format!(
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
        self.fence.cv.notify_all();
        verdict
    }

    /// The retransmission / delay ticker: releases matured delayed copies
    /// and re-sends overdue unacked packets; exhaustion against a down peer
    /// is the failure detector.
    fn ticker(&self) {
        loop {
            if self.stop_ticker.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            let due: Vec<Delayed> = {
                let mut dl = self.delayed.lock();
                let (ripe, hold): (Vec<Delayed>, Vec<Delayed>) =
                    dl.drain(..).partition(|d| d.due <= now);
                *dl = hold;
                ripe
            };
            for d in due {
                let _ = self.senders[d.env.to].send(Wire::Env(d.env, Some(d.pid), d.gen));
            }
            let mut resend: Vec<(Envelope, PacketId, u64, u32)> = Vec::new();
            {
                let now_us = self.now_us();
                let mut rel = self.rel.lock();
                for pid in rel.overdue(now_us) {
                    let fired = rel.timeout(pid, now_us);
                    if matches!(fired, Timeout::Exhausted { .. }) {
                        // Only a peer that is actually down is given up for
                        // dead: a live one this slow means the host is
                        // overloaded (in-process channels lose nothing), so
                        // it is nudged again. Suspicion is raised under the
                        // rel lock: recovery abandons flights and clears
                        // down flags atomically with respect to this scan,
                        // so a stale flight can never re-suspect a revived
                        // node.
                        if let Some(dead) = [pid.1, pid.0].into_iter().find(|&n| self.is_down(n)) {
                            self.suspect(dead);
                        }
                    }
                    if let Timeout::Resend {
                        env,
                        stamp,
                        attempt,
                        ..
                    }
                    | Timeout::Exhausted {
                        env,
                        stamp,
                        attempt,
                        ..
                    } = fired
                    {
                        resend.push((env, pid, stamp, attempt));
                    }
                }
            }
            for (env, pid, gen, attempt) in resend {
                if self.is_down(env.from) || self.is_down(env.to) {
                    self.severed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                self.launch(env, pid, gen, attempt);
            }
            std::thread::sleep(self.tick);
        }
    }
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

/// Pre-parallel master handle: allocates and initializes shared memory
/// before the node bodies start (the PARMACS "master initializes, then
/// forks" idiom).
pub struct Master<'a> {
    node0: &'a mut Node,
    next: SharedAddr,
}

impl Master<'_> {
    /// Bump-allocates shared memory.
    ///
    /// # Panics
    ///
    /// Panics if the segment is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, bytes: usize, align: usize) -> SharedAddr {
        assert!(align.is_power_of_two());
        let addr = (self.next + align - 1) & !(align - 1);
        assert!(addr + bytes <= self.node0.config().segment_bytes());
        self.next = addr + bytes;
        addr
    }

    /// Writes initial data.
    pub fn write(&mut self, addr: SharedAddr, bytes: &[u8]) {
        self.node0.master_write(addr, bytes);
    }

    /// Writes an initial little-endian `u64`.
    pub fn write_u64(&mut self, addr: SharedAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

/// The per-node application handle.
pub struct DsmNode {
    id: NodeId,
    shared: Arc<Shared>,
}

impl DsmNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.shared.cells.len()
    }

    fn cell(&self) -> &NodeCell {
        &self.shared.cells[self.id]
    }

    /// Per-operation hook: unwinds to the fence when a rollback is raised,
    /// and fires this node's scheduled crash point when its operation count
    /// comes up.
    fn op_tick(&self) {
        let sh = &*self.shared;
        if sh.armed && sh.rollback.load(Ordering::Acquire) {
            panic!("{ROLLBACK_MARK}");
        }
        if sh.faults.crashes.is_empty() {
            return;
        }
        let epoch = sh.epochs_now[self.id].load(Ordering::Relaxed);
        let op = sh.ops[self.id].fetch_add(1, Ordering::Relaxed) + 1;
        for (i, cp) in sh.faults.crashes.iter().enumerate() {
            if cp.node == self.id
                && cp.epoch == epoch
                && cp.op == op
                && !sh.crash_fired[i].swap(true, Ordering::SeqCst)
            {
                sh.note_crash(self.id);
                if sh.armed {
                    panic!("{CRASH_MARK}");
                }
                let msg = format!(
                    "node {} crashed with no checkpoint armed: unrecoverable",
                    self.id
                );
                sh.poison(msg.clone());
                panic!("{TEARDOWN}{msg}");
            }
        }
    }

    fn wait_for(&self, want: Action) {
        let cell = self.cell();
        let mut inner = cell.inner.lock();
        loop {
            if let Some(pos) = inner.completions.iter().position(|a| *a == want) {
                inner.completions.remove(pos);
                return;
            }
            if let Some(msg) = self.shared.poison_text() {
                panic!("{TEARDOWN}{msg}");
            }
            if self.shared.armed && self.shared.rollback.load(Ordering::Acquire) {
                panic!("{ROLLBACK_MARK}");
            }
            cell.cv.wait(&mut inner);
        }
    }

    /// Acquires a distributed lock (blocking).
    pub fn lock(&self, lock: LockId) {
        self.op_tick();
        let sends = {
            let mut inner = self.cell().inner.lock();
            match inner.node.acquire(lock) {
                StartAcquire::Granted => return,
                StartAcquire::Wait(sends) => sends,
            }
        };
        self.shared.transmit(sends);
        self.wait_for(Action::LockGranted(lock));
    }

    /// Releases a distributed lock.
    pub fn unlock(&self, lock: LockId) {
        self.op_tick();
        let sends = self.cell().inner.lock().node.release(lock);
        self.shared.transmit(sends);
    }

    /// Waits at a barrier until every node arrives.
    pub fn barrier(&self, barrier: BarrierId) {
        self.op_tick();
        let start = self.cell().inner.lock().node.barrier_arrive(barrier);
        self.shared.transmit(start.sends);
        if !start.ready {
            self.wait_for(Action::BarrierDone(barrier));
        }
    }

    /// Reads shared memory (taking page faults as needed).
    pub fn read_bytes(&self, addr: SharedAddr, buf: &mut [u8]) {
        self.access(addr, buf.len(), false, |node| node.read_into(addr, buf));
    }

    /// Writes shared memory (taking page faults and twinning as needed).
    pub fn write_bytes(&self, addr: SharedAddr, bytes: &[u8]) {
        self.access(addr, bytes.len(), true, |node| node.write_from(addr, bytes));
    }

    /// Validates all pages of `[addr, addr+len)` then runs `f` under the
    /// node mutex, retrying if a concurrent invalidation slips in between.
    fn access(&self, addr: SharedAddr, len: usize, write: bool, f: impl FnOnce(&mut Node)) {
        self.op_tick();
        let mut f = Some(f);
        loop {
            let (page, sends) = {
                let mut inner = self.cell().inner.lock();
                let bad = inner.node.pages_in(addr, len).find(|&p| {
                    if write {
                        !inner.node.page_writable(p)
                    } else {
                        !inner.node.page_valid(p)
                    }
                });
                match bad {
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

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: SharedAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&self, addr: SharedAddr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// This node's protocol statistics so far.
    pub fn stats(&self) -> NodeStats {
        *self.cell().inner.lock().node.stats()
    }
}

/// What an epoch body tells the driver after each epoch.
#[derive(Debug)]
pub enum EpochStep<R> {
    /// Run another epoch after the checkpoint.
    Continue,
    /// This node is finished (every node must finish at the same epoch).
    Done(R),
}

/// Knobs of the hardened runtime (see [`Dsm::run_epochs`]).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Channel fault plan.
    pub faults: ChannelFaults,
    /// Retransmission policy. Unlike the cycle-based simulators, the
    /// runtime interprets `timeout` (and its backoff products) in host
    /// **microseconds**.
    pub policy: RetransmitPolicy,
    /// How long a crashed node waits for a peer to suspect it before
    /// self-reporting at the fence (covers crashes no retransmission can
    /// discover because no traffic was in flight).
    pub grace_ms: u64,
    /// Sink for the recovery events (`node_crash`, `node_suspected`,
    /// `checkpoint_take`, `rollback`, `token_regen`), timestamped in host
    /// microseconds since the run started; disabled by default.
    pub trace: Sink,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            faults: ChannelFaults::default(),
            // 5 ms base RTO: comfortably above in-process delivery latency
            // (so fault-free runs never retransmit) while keeping
            // fault-injection tests fast.
            policy: RetransmitPolicy {
                timeout: 5_000,
                backoff: 2,
                max_retries: 8,
                adaptive: None,
            },
            grace_ms: 50,
            trace: Sink::default(),
        }
    }
}

/// Entry points for running DSM programs on real threads.
#[derive(Debug)]
pub struct Dsm;

/// Results of [`Dsm::run_full`]: per-node return values plus aggregate
/// statistics.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-node return values, indexed by node id.
    pub results: Vec<R>,
    /// Summed protocol statistics.
    pub stats: NodeStats,
    /// Message traffic totals.
    pub traffic: Traffic,
    /// Reliability-layer counters for the channel path.
    pub reliability: RelStats,
    /// Crash-recovery counters.
    pub recovery: RecoveryStats,
    /// What the fault plan did, aggregated and per link.
    pub faults: FaultSummary,
}

impl Dsm {
    /// Runs `body` on every node of a fresh cluster; shared memory starts
    /// zeroed.
    pub fn run<R, F>(cfg: Config, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&DsmNode) -> R + Send + Sync,
    {
        Self::run_with_init(cfg, |_| (), move |node, ()| body(node))
    }

    /// Runs `init` on the master pre-fork, then `body` on every node. The
    /// value `init` returns is shared (by reference) with every body —
    /// typically the addresses of allocated data structures.
    pub fn run_with_init<T, R, I, F>(cfg: Config, init: I, body: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        I: FnOnce(&mut Master<'_>) -> T,
        F: Fn(&DsmNode, &T) -> R + Send + Sync,
    {
        Self::run_full(cfg, init, body).results
    }

    /// Like [`run_with_init`](Self::run_with_init) but also returns
    /// aggregate statistics.
    pub fn run_full<T, R, I, F>(cfg: Config, init: I, body: F) -> RunOutput<R>
    where
        T: Send + Sync,
        R: Send,
        I: FnOnce(&mut Master<'_>) -> T,
        F: Fn(&DsmNode, &T) -> R + Send + Sync,
    {
        Self::run_faulty(cfg, ChannelFaults::default(), init, body)
    }

    /// Like [`run_full`](Self::run_full) but with deterministic channel
    /// faults injected at transmit time: seeded drops and delays are
    /// repaired by host-time retransmission, duplicates are suppressed by
    /// the reliability layer. Scheduled crashes are *unrecoverable* here
    /// (no checkpoints are armed) — use [`run_epochs`](Self::run_epochs)
    /// for crash recovery.
    pub fn run_faulty<T, R, I, F>(
        cfg: Config,
        faults: ChannelFaults,
        init: I,
        body: F,
    ) -> RunOutput<R>
    where
        T: Send + Sync,
        R: Send,
        I: FnOnce(&mut Master<'_>) -> T,
        F: Fn(&DsmNode, &T) -> R + Send + Sync,
    {
        let opts = RunOpts {
            faults,
            ..RunOpts::default()
        };
        engine(cfg, opts, false, init, move |node, _epoch, plan| {
            EpochStep::Done(body(node, plan))
        })
    }

    /// Runs an epoch-structured program with crash recovery armed.
    ///
    /// `body(node, epoch, plan)` runs one epoch and returns whether to
    /// continue; after each epoch the cluster synchronizes on a reserved
    /// barrier (see [`EPOCH_BARRIER_BASE`]) and takes a barrier-consistent
    /// checkpoint of every node. A crashed node (scheduled via
    /// [`ChannelFaults::crash`], detected by retransmission exhaustion or
    /// crash-site self-report after `grace_ms`) rolls the whole cluster
    /// back to the last checkpoint — lock tokens re-mint at their managers,
    /// page copies restore from the snapshot — and the epoch replays.
    /// Replay from the consistent cut is deterministic, so results are
    /// byte-identical to a crash-free run.
    ///
    /// Every node's body must return [`EpochStep::Done`] at the same epoch.
    /// Barrier-time GC is not supported while checkpointing.
    pub fn run_epochs<T, R, I, F>(cfg: Config, opts: RunOpts, init: I, body: F) -> RunOutput<R>
    where
        T: Send + Sync,
        R: Send,
        I: FnOnce(&mut Master<'_>) -> T,
        F: Fn(&DsmNode, u64, &T) -> EpochStep<R> + Send + Sync,
    {
        assert!(
            cfg.gc.is_none(),
            "run_epochs: barrier-time GC is not supported with checkpointing"
        );
        engine(cfg, opts, true, init, body)
    }
}

/// The epoch driver run by each application thread: epochs, the fence, and
/// panic classification (crash / rollback / teardown).
fn drive<T, R, F>(shared: &Arc<Shared>, handle: &DsmNode, body: &F, plan: &T) -> R
where
    F: Fn(&DsmNode, u64, &T) -> EpochStep<R> + Send + Sync,
{
    let id = handle.id();
    let mut epoch = 0u64;
    let mut result: Option<R> = None;
    loop {
        shared.epochs_now[id].store(epoch, Ordering::Relaxed);
        shared.ops[id].store(0, Ordering::Relaxed);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let step = body(handle, epoch, plan);
            if shared.armed {
                handle.barrier(EPOCH_BARRIER_BASE + (epoch % 8) as usize);
            }
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
                    let deadline = Instant::now() + shared.grace;
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
        if !shared.armed {
            return match arrival {
                Arrival::Done => result.expect("plain body returns Done"),
                _ => unreachable!("plain runs are single-epoch"),
            };
        }
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

/// The shared engine behind [`Dsm::run_faulty`] (plain, single-epoch) and
/// [`Dsm::run_epochs`] (checkpointed, recoverable).
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

fn engine<T, R, I, F>(cfg: Config, opts: RunOpts, armed: bool, init: I, body: F) -> RunOutput<R>
where
    T: Send + Sync,
    R: Send,
    I: FnOnce(&mut Master<'_>) -> T,
    F: Fn(&DsmNode, u64, &T) -> EpochStep<R> + Send + Sync,
{
    install_quiet_hook();
    let n = cfg.nodes;
    let header_bytes = cfg.header_bytes;
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, cfg.clone())).collect();

    let plan = {
        let mut master = Master {
            node0: &mut nodes[0],
            next: 0,
        };
        init(&mut master)
    };

    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Wire>();
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
    let crash_count = opts.faults.crashes.len();
    let shared = Arc::new(Shared {
        cells,
        senders,
        traffic: Mutex::new(Traffic::default()),
        header_bytes,
        rel: Mutex::new(Reliability::new(opts.policy)),
        faults: opts.faults,
        tick: Duration::from_micros((opts.policy.timeout / 4).clamp(100, 1_000)),
        poison: Mutex::new(None),
        armed,
        grace: Duration::from_millis(opts.grace_ms),
        t0: Instant::now(),
        gen: AtomicU64::new(0),
        rollback: AtomicBool::new(false),
        stop_ticker: AtomicBool::new(false),
        down: (0..n).map(|_| AtomicBool::new(false)).collect(),
        suspected: (0..n).map(|_| AtomicBool::new(false)).collect(),
        crash_fired: (0..crash_count).map(|_| AtomicBool::new(false)).collect(),
        ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
        epochs_now: (0..n).map(|_| AtomicU64::new(0)).collect(),
        links: Mutex::new(BTreeMap::new()),
        delayed: Mutex::new(Vec::new()),
        recovery: Mutex::new(RecoveryStats::default()),
        severed: AtomicU64::new(0),
        trace: opts.trace,
        ckpt: Mutex::new(None),
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
    if armed {
        shared.take_checkpoint(0);
    }

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
                        if !shared.rel.lock().delivered(pid, now_us) {
                            continue;
                        }
                    }
                    let cell = &shared.cells[id];
                    let sends = {
                        let mut inner = cell.inner.lock();
                        // A message stamped before a rollback's restore
                        // must never touch restored state; the check sits
                        // under the cell lock, which recovery also holds
                        // to restore, so it cannot race the restore.
                        if shared.armed && mgen != shared.gen.load(Ordering::Acquire) {
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

    let traffic = *shared.traffic.lock();
    let reliability = *shared.rel.lock().stats();
    let mut stats = NodeStats::default();
    for cell in &shared.cells {
        stats.merge(cell.inner.lock().node.stats());
    }
    let mut recovery = *shared.recovery.lock();
    recovery.messages_severed = shared.severed.load(Ordering::Relaxed);
    let faults = {
        let links = shared.links.lock();
        let per_link: Vec<_> = links.iter().map(|(k, v)| (*k, *v)).collect();
        let mut sum = FaultSummary {
            per_link,
            ..Default::default()
        };
        let (mut drops, mut dups, mut delays) = (0, 0, 0);
        for (_, l) in &sum.per_link {
            drops += l.drops;
            dups += l.dups;
            delays += l.delays;
        }
        sum.drops = drops;
        sum.dups = dups;
        sum.delays = delays;
        sum
    };
    RunOutput {
        results: results.into_iter().map(|r| r.expect("body ran")).collect(),
        stats,
        traffic,
        reliability,
        recovery,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: usize) -> Config {
        Config::new(n).segment_pages(8).page_size(256)
    }

    #[test]
    fn lock_counter_across_threads() {
        let out = Dsm::run(small(4), |node| {
            for _ in 0..50 {
                node.lock(0);
                let v = node.read_u64(0);
                node.write_u64(0, v + 1);
                node.unlock(0);
            }
            node.barrier(0);
            node.read_u64(0)
        });
        assert!(out.into_iter().all(|v| v == 200));
    }

    #[test]
    fn barrier_ring_exchange() {
        // Each node writes its slot each round; neighbors read it next round.
        let n = 4;
        let rounds = 10u64;
        let out = Dsm::run(small(n), move |node| {
            let me = node.id();
            let right = (me + 1) % n;
            let mut seen = 0u64;
            for r in 0..rounds {
                node.write_u64(me * 8, r * 100 + me as u64);
                node.barrier(1);
                seen += node.read_u64(right * 8);
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

    #[test]
    fn init_plan_shared_with_bodies() {
        let out = Dsm::run_with_init(
            small(3),
            |master| {
                let addr = master.alloc(24, 8);
                for i in 0..3 {
                    master.write_u64(addr + i * 8, (i as u64 + 1) * 11);
                }
                addr
            },
            |node, &addr| node.read_u64(addr + node.id() * 8),
        );
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn stats_and_traffic_collected() {
        let out = Dsm::run_full(
            small(2),
            |_| (),
            |node, ()| {
                node.lock(1);
                node.write_u64(0, node.id() as u64);
                node.unlock(1);
                node.barrier(0);
            },
        );
        assert_eq!(out.stats.barriers, 2);
        assert!(out.stats.lock_releases == 2);
        assert!(out.traffic.total_msgs() > 0);
    }

    #[test]
    fn app_panic_tears_down_instead_of_deadlocking() {
        // Node 0 dies; the others are parked at a barrier that can never
        // complete. Without teardown this test hangs forever.
        let r = std::panic::catch_unwind(|| {
            Dsm::run(small(3), |node| {
                if node.id() == 0 {
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
                if node.id() == 3 {
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
        let out = Dsm::run_faulty(
            small(4),
            ChannelFaults::seeded(2).dup_rate(0.5),
            |_| (),
            |node, ()| {
                for _ in 0..25 {
                    node.lock(0);
                    let v = node.read_u64(0);
                    node.write_u64(0, v + 1);
                    node.unlock(0);
                }
                node.barrier(0);
                node.read_u64(0)
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
        let n = node.nodes();
        let me = node.id();
        let mut acc = 0u64;
        for r in 0..rounds {
            node.write_u64(me * 8, r * 1000 + me as u64);
            node.barrier(3);
            acc += (0..n).map(|q| node.read_u64(q * 8)).sum::<u64>();
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
        // Only attempt-0 copies exist here: dups and delays never trigger
        // retransmission, and the minute-long RTO keeps host-load-induced
        // spurious retransmissions (timing-dependent attempts) out. Drop
        // determinism is covered by the pure-hash fate tests and the repair
        // test below.
        let faults = ChannelFaults::seeded(5)
            .dup_rate(0.10)
            .delay_rate(0.10, 200);
        let opts = RunOpts {
            faults: faults.clone(),
            policy: RetransmitPolicy {
                timeout: 60_000_000,
                backoff: 2,
                max_retries: 8,
                adaptive: None,
            },
            ..RunOpts::default()
        };
        let run = || {
            engine(
                small(4),
                opts.clone(),
                false,
                |_| (),
                |node, _, ()| EpochStep::Done(publish_sum(node, 4)),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        for out in [&a, &b] {
            assert_eq!(out.reliability.retransmissions, 0, "attempt-0 copies only");
            for &((src, dst), seen) in &out.faults.per_link {
                let mut want = LinkFaults::default();
                for seq in 1..=seen.delivered + seen.drops + seen.delays {
                    want.record(roll_fate(&faults, (src, dst, seq), 0));
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
        let out = Dsm::run_faulty(
            small(4),
            ChannelFaults::seeded(21).drop_rate(0.08),
            |_| (),
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
    }

    #[test]
    fn fault_free_runs_never_retransmit() {
        let out = Dsm::run_full(small(4), |_| (), |node, ()| publish_sum(node, 4));
        assert_eq!(out.reliability.retransmissions, 0);
        assert_eq!(out.reliability.timeouts, 0);
        assert_eq!(out.faults.drops + out.faults.dups + out.faults.delays, 0);
        assert_eq!(
            out.recovery,
            RecoveryStats::default(),
            "plain runs do no recovery work"
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
                    panic!("boom {}", node.id());
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
            let addr = node.id() * 8;
            node.lock(node.id() + 1);
            let v = node.read_u64(addr);
            node.write_u64(addr, v + (epoch + 1) * (node.id() as u64 + 1));
            node.unlock(node.id() + 1);
            EpochStep::Continue
        } else {
            // Prior epochs all ended at a barrier, so every write is
            // visible here.
            EpochStep::Done((0..node.nodes()).map(|q| node.read_u64(q * 8)).sum::<u64>())
        }
    }

    #[test]
    fn crash_recovery_replays_to_identical_results() {
        let clean = Dsm::run_epochs(small(3), RunOpts::default(), |_| (), three_epochs);
        let opts = RunOpts {
            faults: ChannelFaults::default().crash(1, 1, 1),
            ..RunOpts::default()
        };
        let crashed = Dsm::run_epochs(small(3), opts, |_| (), three_epochs);
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
            faults: ChannelFaults::default().crash(1, 1, 1),
            trace: Sink::new(Arc::clone(&buf)),
            ..RunOpts::default()
        };
        let out = Dsm::run_epochs(small(3), opts, |_| (), three_epochs);
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
    fn crash_without_checkpoint_is_unrecoverable() {
        let r = std::panic::catch_unwind(|| {
            Dsm::run_faulty(
                small(3),
                ChannelFaults::default().crash(0, 0, 2),
                |_| (),
                |node, ()| {
                    node.write_u64(node.id() * 8, 1);
                    node.barrier(0);
                },
            )
        });
        let p = r.expect_err("an unarmed crash must tear the cluster down");
        let text = panic_text(p.as_ref());
        assert!(
            text.contains("no checkpoint armed: unrecoverable"),
            "got: {text}"
        );
    }

    #[test]
    fn false_sharing_merges_under_threads() {
        let n = 4;
        let out = Dsm::run(small(n), move |node| {
            let me = node.id();
            // All slots in one 256-byte page.
            node.write_u64(me * 8, me as u64 + 1);
            node.barrier(0);
            (0..n).map(|q| node.read_u64(q * 8)).sum::<u64>()
        });
        assert!(out.into_iter().all(|v| v == 1 + 2 + 3 + 4));
    }
}
