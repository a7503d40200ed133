//! The inter-node fabric the software (AS) and hybrid (HS) machines share:
//! TreadMarks protocol nodes on a general-purpose network.
//!
//! The paper's HS design runs *the same* DSM software between bus-based
//! nodes that AS runs between uniprocessors, so everything that happens
//! between nodes lives here once: the protocol [`ProtoNode`]s, the lossy
//! network, the software send/receive overheads, the reliability sublayer,
//! the crash/checkpoint/recovery model, and the discrete-event router
//! ([`Fabric::route_timed`]) that times a protocol cascade hop by hop. A
//! machine adds only what sits *inside* a node (a processor cache on AS;
//! a snooping bus plus node-local lock and barrier tables on HS) and tells
//! [`settle`] which processor a node's protocol work steals cycles from; the
//! one page-access path, [`access`], reaches that inside through the
//! [`NodeMachine`] hook.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tmk_core::{
    Action, Config, DsmProtocol, Envelope, IntMap, Msg, NodeId, PacketId, ProtoNode, Reliability,
    Timeout, Traffic,
};
use tmk_net::{Fate, LossyNet, NetParams, PointToPointNet, SoftwareOverhead};
use tmk_sim::{Ctx, Cycle, Op};
use tmk_trace::{Category, Event, EventKind, Sink, Track};

/// Runtime state of the node-crash fault model: which scheduled crashes
/// recovery has repaired, the last barrier-consistent checkpoint cut, and
/// the counters reported at the end of the run.
#[derive(Debug, Default)]
struct CrashState {
    /// Per scheduled crash (parallel to the fault plan's `crashes`): the
    /// cycle at which recovery completed, once the failure detector fired.
    recovered: Vec<Option<Cycle>>,
    /// Cycle of the last checkpoint cut. `Some(0)` as soon as
    /// checkpointing is armed: the initial memory image is always
    /// replayable, so a crash before the first barrier restarts the run.
    ckpt_at: Option<Cycle>,
    /// Pages resident per node at the cut (what a restore re-fetches).
    ckpt_pages: Vec<u64>,
    /// Counters surfaced in [`crate::RunReport::recovery`].
    stats: crate::RecoveryStats,
}

/// Everything between the nodes of a DSM machine: the protocol instances,
/// the network that connects them, and the fault/recovery models.
pub(crate) struct Fabric {
    pub(crate) nodes: Vec<ProtoNode>,
    net: LossyNet,
    /// Communication software costs.
    so: SoftwareOverhead,
    header_bytes: usize,
    /// DSM page size in bytes (the tuning override already applied).
    pub(crate) page_size: usize,
    traffic: Traffic,
    /// Cycle and traffic snapshot at [`tmk_parmacs::System::mark`].
    mark: (Cycle, Traffic),
    /// End-to-end reliability layer (`None` = raw datagrams: a dropped
    /// message is lost forever and the watchdog is the only way out).
    rel: Option<Reliability>,
    /// Whether barrier-epoch checkpointing is armed (the prerequisite for
    /// surviving a scheduled node crash).
    checkpoints: bool,
    crash: CrashState,
    /// Trace sink for protocol instants (node tracks); disabled by default.
    pub(crate) sink: Sink,
    /// The router's per-cascade working state, empty between cascades: a
    /// cascade takes it, and hands it back reset, so routing a message
    /// allocates nothing once the buffers have grown.
    scratch: Scratch,
}

impl Fabric {
    /// Builds `nodes` protocol instances sharing a `segment_bytes` segment
    /// on a network with `net` timing, configured by `tuning`.
    /// `page_size` is the platform default the tuning may override.
    pub(crate) fn new(
        nodes: usize,
        net: NetParams,
        so: SoftwareOverhead,
        page_size: usize,
        protocol: DsmProtocol,
        segment_bytes: usize,
        tuning: &crate::DsmTuning,
    ) -> Self {
        let page_size = tuning.page_size.unwrap_or(page_size);
        let mut cfg = Config::new(nodes)
            .page_size(page_size)
            .segment_pages(segment_bytes.div_ceil(page_size));
        if tuning.eager_all {
            cfg = cfg.eager_release_all();
        }
        for &l in &tuning.eager_locks {
            cfg = cfg.eager_release_lock(l);
        }
        if let Some(t) = tuning.gc {
            cfg = cfg.gc(t);
        }
        let wire = PointToPointNet::new(nodes, net);
        Fabric {
            header_bytes: cfg.header_bytes,
            nodes: (0..nodes)
                .map(|i| ProtoNode::new(protocol, i, cfg.clone()))
                .collect(),
            net: match &tuning.faults {
                Some(plan) => LossyNet::faulty(wire, plan.clone()),
                None => LossyNet::perfect(wire),
            },
            so,
            page_size,
            traffic: Traffic::default(),
            mark: (0, Traffic::default()),
            rel: tuning.reliability.map(Reliability::new),
            checkpoints: tuning.checkpoints,
            crash: CrashState {
                recovered: tuning
                    .faults
                    .as_ref()
                    .map(|p| vec![None; p.crashes.len()])
                    .unwrap_or_default(),
                ckpt_at: tuning.checkpoints.then_some(0),
                ckpt_pages: vec![0; nodes],
                stats: crate::RecoveryStats::default(),
            },
            sink: Sink::default(),
            scratch: Scratch {
                avail: vec![0; nodes],
                ..Scratch::default()
            },
        }
    }

    /// Attaches a trace sink: protocol actions appear on node tracks, wire
    /// transfers on link tracks. Tracing never alters timing.
    pub(crate) fn set_tracer(&mut self, sink: Sink) {
        self.net.set_sink(sink.clone());
        self.sink = sink;
    }

    /// Opens the measurement window at `now`.
    pub(crate) fn mark(&mut self, now: Cycle) {
        self.mark = (now, self.traffic);
    }

    /// Whether `node` sits inside a scheduled crash window at `t` that
    /// recovery has not yet repaired.
    fn down_at(&self, node: NodeId, t: Cycle) -> bool {
        let Some(plan) = self.net.plan() else {
            return false;
        };
        plan.crashes
            .iter()
            .zip(&self.crash.recovered)
            .any(|(c, rec)| c.node == node && c.down_at(t) && rec.is_none_or(|r| t < r))
    }

    /// If a recovery covering `node`'s crash window at `t` already ran,
    /// returns the cycle it completed (a second detector waits for it
    /// instead of rolling the cluster back again).
    fn recovery_end(&self, node: NodeId, t: Cycle) -> Option<Cycle> {
        let plan = self.net.plan()?;
        plan.crashes
            .iter()
            .zip(&self.crash.recovered)
            .filter(|(c, _)| c.node == node && c.down_at(t))
            .filter_map(|(_, rec)| *rec)
            .max()
    }

    /// Records a barrier-consistent checkpoint cut at `t`, taken by the
    /// barrier manager `by` the moment the last arrival lands (every node's
    /// interval state is then closed — the same cut the metadata GC uses).
    /// Each node is charged the cycles to copy its resident pages aside.
    /// A no-op unless checkpointing is armed.
    pub(crate) fn take_checkpoint(
        &mut self,
        by: NodeId,
        t: Cycle,
        charges: &mut Vec<(NodeId, Cycle)>,
    ) {
        if !self.checkpoints {
            return;
        }
        let ps = self.page_size as u64;
        let mut total = 0;
        for (id, n) in self.nodes.iter().enumerate() {
            let pages = n.pages_resident();
            self.crash.ckpt_pages[id] = pages;
            total += pages;
            if pages > 0 {
                charges.push((id, pages * (ps / 8)));
            }
        }
        self.crash.ckpt_at = Some(t);
        self.crash.stats.checkpoints += 1;
        self.sink.emit(Event {
            track: Track::Node(by as u32),
            at: t,
            dur: 0,
            kind: EventKind::CheckpointTake { pages: total },
        });
    }

    /// Runs barrier-consistent recovery after the failure detector declared
    /// `dead` crashed (retransmission exhaustion observed by `detector` at
    /// `t`).
    ///
    /// The simulation is deterministic, so rolling every survivor back to
    /// the last checkpoint cut and replaying reproduces the pre-crash
    /// protocol and application state exactly; the fabric therefore keeps
    /// its live state and *charges* the recovery procedure instead —
    /// confirmation with the barrier manager, parallel rollback, the dead
    /// node re-fetching its pages, lock tokens re-minted at their managers
    /// from survivor metadata, and the deterministic replay of the work lost
    /// since the cut. Returns the cycle recovery completes and the span
    /// charged to [`Category::Recovery`].
    fn recover(&mut self, dead: NodeId, detector: NodeId, t: Cycle) -> (Cycle, Cycle) {
        let Some(ckpt_at) = self.crash.ckpt_at else {
            panic!(
                "node {dead} crashed and is unrecoverable: no checkpoint armed \
                 (detected by node {detector} at cycle {t} after retransmission \
                 exhaustion); arm DsmTuning::checkpoints to survive crash plans"
            );
        };
        self.crash.stats.suspected += 1;
        self.sink.emit(Event {
            track: Track::Node(detector as u32),
            at: t,
            dur: 0,
            kind: EventKind::NodeSuspected { node: dead as u32 },
        });
        let so = &self.so;
        // Lease-style confirmation round trip with the barrier manager (the
        // lowest-id survivor stands in when the manager itself died).
        let confirm = 2 * (so.send_cycles(16) + so.recv_cycles(16));
        // Every survivor restores its snapshot in parallel: the slowest governs.
        let ps = self.page_size;
        let restore = self
            .crash
            .ckpt_pages
            .iter()
            .enumerate()
            .filter(|&(n, _)| n != dead)
            .map(|(_, &p)| p)
            .max()
            .unwrap_or(0)
            * (ps / 8) as Cycle;
        // The dead node re-fetches its checkpointed pages from the survivors.
        let pages = self.crash.ckpt_pages[dead];
        let refetch = pages * (so.send_cycles(8) + so.recv_cycles(ps));
        // Lock tokens re-minted at their managers, one exchange each.
        let tokens: u64 = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| n.forgotten_tokens(id == dead))
            .sum();
        let regen = tokens * (so.send_cycles(16) + so.recv_cycles(16));
        // Deterministic replay of everything executed since the cut.
        let replay = t.saturating_sub(ckpt_at);
        let span = confirm + restore + refetch + regen + replay;
        self.sink.emit(Event {
            track: Track::Node(dead as u32),
            at: t,
            dur: span,
            kind: EventKind::Rollback {
                node: dead as u32,
                pages,
            },
        });
        if tokens > 0 {
            self.sink.emit(Event {
                track: Track::Node(dead as u32),
                at: t,
                dur: 0,
                kind: EventKind::TokenRegen { count: tokens },
            });
        }
        self.crash.stats.rollbacks += 1;
        self.crash.stats.tokens_regenerated += tokens;
        self.crash.stats.pages_refetched += pages;
        self.crash.stats.recovery_cycles += span;
        let t_rec = t + span;
        let plan = self.net.plan().expect("a crash implies a fault plan");
        for (c, rec) in plan.crashes.iter().zip(&mut self.crash.recovered) {
            if c.node == dead && c.down_at(t) {
                *rec = Some(t_rec);
            }
        }
        // Packets that exhausted their retries against the dead node get a
        // fresh allowance: post-recovery they are deliverable again.
        if let Some(rel) = &mut self.rel {
            rel.forgive_retries(dead);
        }
        (t_rec, span)
    }

    /// Routes a protocol cascade to quiescence with full timing, starting
    /// from `sends` issued by node `me` at time `t0`.
    ///
    /// Every hop runs through the [`LossyNet`]: a copy can be dropped,
    /// duplicated, or delayed per the fault plan. When the reliability
    /// layer is armed, each cross-node packet gets a sequence number and a
    /// retransmission timer (delivery doubles as the ack — replies
    /// piggyback it in the real protocol); dropped copies are re-sent after
    /// a timeout with exponential backoff, and duplicate arrivals are
    /// suppressed before the protocol handler sees them. Without the layer,
    /// a dropped message is simply gone — the engine watchdog is what ends
    /// the run.
    pub(crate) fn route_timed(&mut self, me: NodeId, t0: Cycle, sends: Vec<Envelope>) -> Routed {
        let mut c = Cascade {
            s: std::mem::take(&mut self.scratch),
            f: self,
            t0,
            out: Routed {
                actions: Vec::new(),
                charges: Vec::new(),
                recovery: 0,
                initiator_busy_until: t0,
            },
        };
        for env in sends {
            c.send_one(env, None);
        }
        while let Some((t, ev)) = c.s.queue.pop() {
            match ev {
                Ev::Retry(pid) => c.retry(t, pid),
                Ev::Deliver(env, pid) => c.deliver(t, env, pid),
            }
        }
        if let Some(rel) = &c.f.rel {
            assert_eq!(
                rel.in_flight_len(),
                0,
                "cascade quiesced with unacked packets in flight"
            );
        }
        c.out.initiator_busy_until = c.avail(me);
        c.s.reset();
        c.f.scratch = c.s;
        c.out
    }

    /// The inter-node half of a finishing report.
    pub(crate) fn fill_report(&self, report: &mut crate::RunReport) {
        report.traffic = self.traffic;
        report.mark_cycles = self.mark.0;
        report.mark_traffic = self.mark.1;
        for n in &self.nodes {
            report.dsm.merge(n.stats());
        }
        report.net_faults = self.net.fault_stats();
        if let Some(rel) = &self.rel {
            report.reliability = *rel.stats();
        }
        report.recovery = self.crash.stats;
    }

    /// Machine-state dump appended to the engine watchdog's diagnostics:
    /// per-node synchronization state (lock tokens, holders, barrier
    /// arrivals) plus reliability and fault counters.
    pub(crate) fn diagnostics(&self) -> String {
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!("  node {i}: {}\n", n.sync_debug()));
        }
        if let Some(rel) = &self.rel {
            s.push_str(&format!(
                "  reliability: {} packets unacked in flight\n",
                rel.in_flight_len()
            ));
        }
        let fs = self.net.fault_stats();
        if fs.decisions > 0 {
            s.push_str(&format!(
                "  injected faults: {} drops, {} dups, {} delays of {} decisions\n",
                fs.drops, fs.dups, fs.delays, fs.decisions
            ));
        }
        // Name suspected-crashed nodes distinctly from deadlocked ones: a
        // node inside a crash window is not "waiting", it is gone.
        if let Some(plan) = self.net.plan() {
            for (i, c) in plan.crashes.iter().enumerate() {
                let state = match (
                    self.crash.recovered.get(i).copied().flatten(),
                    c.restart_after,
                ) {
                    (Some(r), _) => format!("recovered at cycle {r}"),
                    (None, Some(d)) => format!("restarts at cycle {}", c.at + d),
                    (None, None) => "down — suspected crashed, not deadlocked".to_string(),
                };
                s.push_str(&format!(
                    "  node {}: crashed at cycle {} ({state})\n",
                    c.node, c.at
                ));
            }
            if self.crash.stats.messages_severed > 0 {
                s.push_str(&format!(
                    "  crash model: {} message copies severed\n",
                    self.crash.stats.messages_severed
                ));
            }
        }
        s
    }
}

/// Cycles a node spends retiring collected metadata: list bookkeeping per
/// interval record plus freeing cached diff storage. GC work is protocol
/// work — it lands in [`Category::Protocol`] (or `Stolen` on remote nodes)
/// like twin and diff service.
pub(crate) fn gc_service_cycles(intervals: u64, freed_bytes: u64) -> Cycle {
    intervals * 8 + freed_bytes / 64
}

/// Everything a routed protocol cascade produced.
pub(crate) struct Routed {
    /// Completed operations: `(node, action, completion cycle)`.
    pub actions: Vec<(NodeId, Action, Cycle)>,
    /// Cycles to charge each node (requester included).
    pub charges: Vec<(NodeId, Cycle)>,
    /// Cycles the cascade spent in crash recovery (rollback, token
    /// regeneration, replay) — ledgered as [`Category::Recovery`].
    pub recovery: Cycle,
    /// When the initiating node finished its sends/service.
    pub initiator_busy_until: Cycle,
}

/// A scheduled event in a cascade's virtual-time queue.
enum Ev {
    /// A message copy arriving at its destination (reliability id attached
    /// when the packet is tracked).
    Deliver(Envelope, Option<PacketId>),
    /// A sender-side retransmission timer for a tracked packet (its
    /// envelope waits in the reliability layer's flight).
    Retry(PacketId),
}

/// A cascade's pending events, popped in `(time, issue order)` order.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

/// An event in the queue. Ordered by `(at, seq)` alone, earliest first; the
/// sequence number is unique, so the event itself never breaks a tie.
struct Scheduled {
    at: Cycle,
    seq: u64,
    ev: Ev,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` pops its greatest.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl EventQueue {
    fn push(&mut self, at: Cycle, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, ev });
    }

    fn pop(&mut self) -> Option<(Cycle, Ev)> {
        self.heap.pop().map(|s| (s.at, s.ev))
    }
}

/// What a cascade keeps while it runs (see [`Fabric::scratch`]).
#[derive(Default)]
struct Scratch {
    queue: EventQueue,
    /// When each node is next free to send or serve, indexed by node; 0 for
    /// a node the cascade has not touched, which is free from its start.
    avail: Vec<Cycle>,
    /// The nodes whose `avail` entry is set.
    touched: Vec<NodeId>,
    /// Copies of each tracked packet currently scheduled for delivery: a
    /// retransmit timer that fires while one is pending is *spurious* (the
    /// RTO undershot the queueing round trip, not a loss). Only populated
    /// under a reliability layer.
    pending: IntMap<PacketId, usize>,
}

impl Scratch {
    /// Back to the between-cascades state (the queue has drained itself).
    fn reset(&mut self) {
        for node in self.touched.drain(..) {
            self.avail[node] = 0;
        }
        self.pending.clear();
    }

    fn set_avail(&mut self, node: NodeId, t: Cycle) {
        if self.avail[node] == 0 {
            self.touched.push(node);
        }
        self.avail[node] = t;
    }
}

/// The virtual-time state of one cascade in flight.
struct Cascade<'f> {
    f: &'f mut Fabric,
    t0: Cycle,
    s: Scratch,
    out: Routed,
}

impl Cascade<'_> {
    /// When `node` is next free to send or serve.
    fn avail(&self, node: NodeId) -> Cycle {
        // Every time a cascade sets is at or after its start.
        self.s.avail[node].max(self.t0)
    }

    /// Holds `node`'s next send back to no earlier than `t`.
    fn busy_until(&mut self, node: NodeId, t: Cycle) {
        self.s.set_avail(node, self.avail(node).max(t));
    }

    /// One transmission attempt: charges the sender, reserves the wire,
    /// rolls the fault fate, and schedules arrivals plus (when tracked) the
    /// retransmission timer. `retrans_of` carries the packet id and the
    /// timeout to arm when this is a re-send of a packet already in flight.
    fn send_one(&mut self, env: Envelope, retrans_of: Option<(PacketId, Cycle)>) {
        let from = env.from;
        let to = env.to;
        let t_out = self.avail(from);
        if from == to {
            // Self-sends take the loopback path: no wire, no loss.
            self.s.queue.push(t_out, Ev::Deliver(env, None));
            return;
        }
        let f = &mut *self.f;
        let body = env.msg.body_bytes().total();
        let send_c = f.so.send_cycles(body);
        let recv_c = f.so.recv_cycles(body);
        let depart = t_out + send_c;
        let wire = f.header_bytes + body;
        // Scheduled node crashes sever the link *before* the fate draw, so
        // arming a crash plan never perturbs the drop/dup/delay streams.
        let from_down = f.down_at(from, depart);
        let to_down = f.down_at(to, depart);
        if !from_down {
            self.out.charges.push((from, send_c));
            self.s.set_avail(from, depart);
            f.traffic.record(&env, f.header_bytes);
            f.sink.emit(Event {
                track: Track::Node(from as u32),
                at: depart,
                dur: 0,
                kind: EventKind::MsgSend {
                    to: to as u32,
                    class: env.msg.class().bit(),
                    bytes: wire as u64,
                },
            });
            if let Msg::LockForward { lock, .. } = &env.msg {
                f.sink.emit(Event {
                    track: Track::Node(from as u32),
                    at: depart,
                    dur: 0,
                    kind: EventKind::LockForward { lock: *lock as u64 },
                });
            }
        }
        // The timer runs from the copy's departure, not from when the
        // previous one expired.
        let tracked = match retrans_of {
            Some((pid, rto)) => Some((pid, depart + rto)),
            None => f.rel.as_mut().map(|r| r.send(&env, depart, 0)),
        };
        if let Some((pid, expire)) = tracked {
            self.s.queue.push(expire, Ev::Retry(pid));
        }
        let pid = tracked.map(|(pid, _)| pid);
        if from_down || to_down {
            // The copy never arrives: a dead sender transmits nothing; a
            // live sender's copy still occupies the wire into the dead
            // interface. The retransmission timer above keeps running —
            // exhaustion against the dead peer is how the failure detector
            // fires. Without reliability the loss is final and the engine
            // watchdog names the crashed node.
            f.crash.stats.messages_severed += 1;
            if !from_down {
                let _ = f.net.transfer(from, to, wire, depart);
            }
            return;
        }
        let fate = f.net.fate(from, to, env.msg.class().bit());
        // The copy always occupies the wire, even if it then never arrives.
        let arrive = f.net.transfer(from, to, wire, depart);
        let (first, second) = match fate {
            Fate::Drop => (None, None),
            Fate::Deliver => (Some(arrive), None),
            Fate::Duplicate => (Some(arrive), Some(f.net.transfer(from, to, wire, depart))),
            Fate::Delay(extra) => (Some(arrive + extra), None),
        };
        // The envelope moves into its one arrival; only a duplicated copy
        // is a second envelope.
        let second = second.map(|at| (at, env.clone()));
        for (arrive, env) in first.map(|at| (at, env)).into_iter().chain(second) {
            self.out.charges.push((to, recv_c));
            self.s.queue.push(arrive + recv_c, Ev::Deliver(env, pid));
            if let Some(pid) = pid {
                *self.s.pending.entry(pid).or_insert(0) += 1;
            }
        }
    }

    /// A retransmission timer fired at `t` for packet `pid`.
    fn retry(&mut self, t: Cycle, pid: PacketId) {
        let rel = self.f.rel.as_mut().expect("tracked packet");
        let (env, attempt, deadline, exhausted) = match rel.timeout(pid, t) {
            Timeout::Stale => return, // acked in the meantime
            Timeout::Resend {
                env,
                attempt,
                deadline,
                ..
            } => (env, attempt, deadline, None),
            Timeout::Exhausted {
                env,
                attempt,
                deadline,
                fresh_deadline,
                ..
            } => (env, attempt, deadline, Some(fresh_deadline)),
        };
        let queued = self.s.pending.get(&pid).copied().unwrap_or(0) > 0;
        if queued {
            // A copy is still queued for delivery: the RTO fired early
            // (queueing, not loss) and this re-send is spurious — the
            // receiver will suppress the duplicate.
            rel.note_spurious();
        }
        if let Some(fresh_deadline) = exhausted {
            // Exhaustion: the failure detector just found a crashed peer, or
            // the link is genuinely broken — unless copies are still queued
            // for delivery (post-recovery wire congestion outlasting the
            // RTO), in which case the sender keeps the timer alive rather
            // than giving up.
            let dead = [env.to, env.from]
                .into_iter()
                .find(|&n| self.f.down_at(n, t));
            if let Some(dead) = dead {
                // If another packet's exhaustion already triggered this
                // recovery, wait for it; otherwise run it now.
                let t_rec = match self.f.recovery_end(dead, t) {
                    Some(r) => r,
                    None => {
                        let (r, span) = self.f.recover(dead, env.from, t);
                        self.out.recovery += span;
                        r
                    }
                };
                // Recovery forgave the packet: it goes out again on a fresh
                // allowance once the cluster is back.
                self.busy_until(env.from, t_rec);
                self.send_one(env, Some((pid, fresh_deadline - t)));
                return;
            }
            assert!(
                queued,
                "reliability gave up: {} -> {} seq {} still unacked after {} retransmissions",
                pid.0,
                pid.1,
                pid.2,
                attempt - 1,
            );
        }
        self.f.sink.emit(Event {
            track: Track::Node(env.from as u32),
            at: t,
            dur: 0,
            kind: EventKind::Retransmit { attempt },
        });
        // The sender is free no earlier than the timer expiry.
        self.busy_until(env.from, t);
        self.send_one(env, Some((pid, deadline - t)));
    }

    /// A message copy reaches its destination's handler at `t`.
    fn deliver(&mut self, t: Cycle, env: Envelope, pid: Option<PacketId>) {
        if let Some(pid) = pid {
            if let Some(c) = self.s.pending.get_mut(&pid) {
                *c -= 1;
            }
            // Delivery doubles as the piggybacked ack; duplicates are
            // suppressed before the handler.
            let rel = self.f.rel.as_mut().expect("tracked packet");
            if !rel.delivered(pid, t) {
                return;
            }
        }
        let to = env.to;
        let begin = t.max(self.avail(to));
        let f = &mut *self.f;
        let arrived = (f.sink.enabled() && env.from != to).then(|| EventKind::MsgArrive {
            from: env.from as u32,
            class: env.msg.class().bit(),
            bytes: (f.header_bytes + env.msg.body_bytes().total()) as u64,
        });
        let before = *f.nodes[to].stats();
        let handled = f.nodes[to].handle(env);
        let after = f.nodes[to].stats();
        let created = after.diffs_created - before.diffs_created;
        let twinned = after.twins_created - before.twins_created;
        let retired = after.gc_intervals_retired - before.gc_intervals_retired;
        let freed = after.gc_diff_bytes_retired - before.gc_diff_bytes_retired;
        if f.sink.enabled() {
            let node = Track::Node(to as u32);
            let instant = |kind| Event {
                track: node,
                at: begin,
                dur: 0,
                kind,
            };
            if let Some(kind) = arrived {
                f.sink.emit(instant(kind));
            }
            if twinned > 0 {
                f.sink
                    .emit(instant(EventKind::TwinCreate { count: twinned }));
            }
            if created > 0 {
                f.sink.emit(instant(EventKind::DiffMake {
                    count: created,
                    bytes: after.diff_bytes_created - before.diff_bytes_created,
                }));
            }
            let applied = after.diffs_applied - before.diffs_applied;
            if applied > 0 {
                f.sink
                    .emit(instant(EventKind::DiffApply { count: applied }));
            }
            let notices = after.notices_received - before.notices_received;
            if notices > 0 {
                f.sink
                    .emit(instant(EventKind::WriteNotice { count: notices }));
            }
            if retired > 0 {
                f.sink.emit(instant(EventKind::GcRetire {
                    intervals: retired,
                    bytes: freed,
                }));
            }
        }
        let service = created * f.so.diff_cycles(f.page_size)
            + twinned * (f.page_size / 4) as u64
            + gc_service_cycles(retired, freed);
        if service > 0 {
            self.out.charges.push((to, service));
        }
        let ready = begin + service;
        self.s.set_avail(to, ready);
        for a in handled.actions {
            // A barrier release at its manager is the checkpoint cut: every
            // node has arrived, so all interval state is closed — the same
            // consistent cut the metadata GC collects at.
            if let Action::BarrierDone(b) = &a {
                if to == f.nodes[to].config().barrier_manager(*b) {
                    f.take_checkpoint(to, ready, &mut self.out.charges);
                }
            }
            self.out.actions.push((to, a, ready));
        }
        for next in handled.sends {
            self.send_one(next, None);
        }
    }
}

/// Applies a cascade's side effects to the engine: charges the nodes that
/// served it and advances the initiating processor to its completion time.
/// Returns every completed `(node, action, cycle)`; which blocked
/// processors those unblock is the machine's business.
///
/// A node's protocol work steals cycles from its first processor,
/// `node * per_node` (the node itself on AS, where `per_node` is 1).
///
/// The initiator's elapsed time is split for the trace ledger: its own
/// local pre-work (up to `local_done`) plus its node's send/recv/service
/// charges count as [`Category::Protocol`]; crash-recovery spans (rollback,
/// token regeneration, replay) land under [`Category::Recovery`] so the
/// breakdown's sum invariant stays exact; the remainder — time spent
/// waiting on the wire and on other nodes — is charged to `wait` (network
/// occupancy for data fetches, synchronization idle for lock/barrier
/// waits).
pub(crate) fn settle<M>(
    op: &mut Op<'_, M>,
    me: NodeId,
    per_node: usize,
    routed: Routed,
    local_done: Cycle,
    wait: Category,
) -> Vec<(NodeId, Action, Cycle)> {
    let mut me_extra: Cycle = 0;
    for (node, c) in routed.charges {
        if node == me {
            me_extra += c;
        } else {
            op.charge_remote(node * per_node, c);
        }
    }
    // The initiator's send/recv work is folded into its completion time.
    let now = op.now();
    let mut me_target = routed.initiator_busy_until.max(now + me_extra);
    for &(node, _, t) in &routed.actions {
        if node == me {
            me_target = me_target.max(t);
        }
    }
    if me_target > now {
        let total = me_target - now;
        let proto = (local_done.saturating_sub(now) + me_extra).min(total);
        let rec = routed.recovery.min(total - proto);
        op.advance_as(Category::Protocol, proto);
        op.advance_as(Category::Recovery, rec);
        op.advance_as(wait, total - proto - rec);
    }
    routed.actions
}

/// What [`access`] needs from a machine built on the fabric: how many
/// processors share a DSM node, and the memory system inside one.
pub(crate) trait NodeMachine: Sized {
    fn fabric(&mut self) -> &mut Fabric;

    /// Processors per DSM node; processor `p` lives on node `p / per_node`.
    fn per_node(&self) -> usize;

    /// Charges processor `proc`'s cache hierarchy for an access to resident
    /// pages starting at `now`; returns its completion time.
    fn charge(&mut self, proc: usize, addr: usize, len: usize, write: bool, now: Cycle) -> Cycle;

    /// Drops a page's lines from `node`'s processor cache(s): fresh remote
    /// data arrived outside them.
    fn purge_page(&mut self, node: NodeId, page: usize);

    /// A fault cascade completed an action on `node`, not the faulting one,
    /// at `at`: unblock whichever processor was waiting for it.
    fn completed_elsewhere(op: &mut Op<'_, Self>, node: NodeId, at: Cycle);
}

/// The bytes a shared access moves.
pub(crate) enum AccessData<'b> {
    Read(&'b mut [u8]),
    Write(&'b [u8]),
}

/// One shared-memory access by the calling processor: page faults on its
/// node are resolved through the fabric, then the node's memory system is
/// charged and the bytes move.
pub(crate) fn access<M: NodeMachine>(
    ctx: &Ctx<'_, M>,
    addr: usize,
    len: usize,
    write: bool,
    mut data: AccessData<'_>,
) {
    let me = ctx.id();
    loop {
        let done = ctx.sync(|op| {
            // Resolve faults and, once every page is usable, perform the
            // access *within the same operation* — otherwise another
            // node could steal a just-fetched page before we touch it
            // (a livelock under single-writer protocols like IVY).
            loop {
                let now = op.now();
                let m = op.machine();
                let per_node = m.per_node();
                let nd = me / per_node;
                let node = &m.fabric().nodes[nd];
                let bad = node.pages_in(addr, len).find(|&p| {
                    if write {
                        !node.page_writable(p)
                    } else {
                        !node.page_valid(p)
                    }
                });
                let Some(page) = bad else {
                    let done = m.charge(me, addr, len, write, now);
                    let node = &mut m.fabric().nodes[nd];
                    match &mut data {
                        AccessData::Read(buf) => node.read_into(addr, buf),
                        AccessData::Write(bytes) => node.write_from(addr, bytes),
                    }
                    op.advance_as(Category::MemStall, done - now);
                    return true;
                };
                // Page fault: handler dispatch, then the protocol.
                let f = m.fabric();
                f.sink.emit(Event {
                    track: Track::Cpu(me as u32),
                    at: now,
                    dur: 0,
                    kind: EventKind::PageFault {
                        page: page as u64,
                        write,
                    },
                });
                let twins_before = f.nodes[nd].stats().twins_created;
                let start = f.nodes[nd].fault(page, write);
                let mut t = now + f.so.handler;
                if f.nodes[nd].stats().twins_created > twins_before {
                    // Twinning copies the page.
                    t += (f.page_size / 4) as Cycle;
                }
                if start.ready {
                    op.advance_as(Category::Protocol, t - now);
                } else {
                    let routed = f.route_timed(nd, t, start.sends);
                    m.purge_page(nd, page);
                    let mut ready = false;
                    for (node, action, at) in settle(op, nd, per_node, routed, t, Category::Network)
                    {
                        if node != nd {
                            M::completed_elsewhere(op, node, at);
                        } else if action == Action::PageReady(page) {
                            ready = true;
                        }
                    }
                    if !ready {
                        // Should not happen (cascades complete
                        // synchronously); re-enter via the outer loop
                        // defensively.
                        return false;
                    }
                }
                // Loop: recheck remaining pages in this op.
            }
        });
        if done {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use tmk_core::RetransmitPolicy;
    use tmk_net::FaultPlan;
    use tmk_parmacs::{System, SystemExt};
    use tmk_sim::Cycle;

    use crate::run::run_body;
    use crate::{DsmTuning, Platform, RunReport};

    /// The two machines built on the fabric, four nodes each: AS-4 and
    /// HS 4x2. Every test below runs on both.
    const MACHINES: [fn(DsmTuning) -> Platform; 2] = [
        |tuning| Platform::AsCluster {
            procs: 4,
            part1: false,
            so: None,
            tuning,
        },
        |tuning| Platform::Hs {
            nodes: 4,
            per_node: 2,
            so: None,
            tuning,
        },
    ];

    fn counter_workload(sys: &dyn System) -> u64 {
        for _ in 0..10 {
            sys.lock(0);
            let v: u64 = sys.read(0);
            sys.write(0, v + 1);
            sys.unlock(0);
        }
        sys.barrier(0);
        sys.read::<u64>(0)
    }

    fn run_counter(p: &Platform) -> RunReport {
        let (results, rep) = run_body(p, counter_workload);
        let want = 10 * p.procs() as u64;
        assert!(
            results.iter().all(|&v| v == want),
            "{}: {results:?}",
            p.key()
        );
        rep
    }

    /// The panic message `f` dies with.
    fn abort_message(f: impl FnOnce()) -> String {
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the run must abort instead of hanging");
        match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&'static str>()
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "non-string panic".into()),
        }
    }

    fn chaos_tuning(seed: u64, drop: f64) -> DsmTuning {
        DsmTuning {
            faults: Some(
                FaultPlan::drop_rate(seed, drop)
                    .with_dup(0.02)
                    .with_delay(0.02, 2_000),
            ),
            reliability: Some(RetransmitPolicy::default()),
            ..Default::default()
        }
    }

    #[test]
    fn retransmission_masks_heavy_losses() {
        for machine in MACHINES {
            let rep = run_counter(&machine(chaos_tuning(42, 0.05)));
            let fs = rep.net_faults;
            assert!(fs.drops > 0, "seed produced no drops: {fs:?}");
            let rel = rep.reliability;
            assert!(rel.retransmissions > 0, "drops without retransmissions");
            assert_eq!(rel.timeouts, rel.retransmissions);
            assert!(rel.acks > 0);
        }
    }

    #[test]
    fn faulty_runs_replay_bit_exactly() {
        for machine in MACHINES {
            let p = machine(chaos_tuning(7, 0.02));
            let (a, b) = (run_counter(&p), run_counter(&p));
            assert_eq!(a.proc_cycles, b.proc_cycles);
            assert_eq!(a.traffic, b.traffic);
            assert_eq!(a.net_faults, b.net_faults);
        }
    }

    #[test]
    fn losses_cost_simulated_time() {
        for machine in MACHINES {
            let reliable = DsmTuning {
                reliability: Some(RetransmitPolicy::default()),
                ..Default::default()
            };
            let clean = run_counter(&machine(reliable.clone()));
            let lossy = run_counter(&machine(DsmTuning {
                faults: Some(FaultPlan::drop_rate(42, 0.05)),
                ..reliable
            }));
            assert!(
                lossy.cycles > clean.cycles,
                "timeout-driven retransmission should cost time ({} vs {})",
                lossy.cycles,
                clean.cycles
            );
        }
    }

    #[test]
    fn lost_lock_grant_without_reliability_trips_the_watchdog() {
        // Drop every lock-class message on the floor, with no
        // retransmission layer to recover: the remote acquire must end in
        // the watchdog's diagnostic abort, not a hang.
        for machine in MACHINES {
            let p = machine(DsmTuning {
                faults: Some(
                    FaultPlan::drop_rate(3, 1.0)
                        .with_class_mask(tmk_core::MsgClass::SyncLock.bit()),
                ),
                ..Default::default()
            });
            let node1 = p.procs() / 4; // first processor of node 1
            let msg = abort_message(|| {
                run_body(&p, |sys| {
                    if sys.pid() == 0 {
                        sys.lock(0); // token starts here; held to the end
                    } else if sys.pid() == node1 {
                        sys.compute(10);
                        sys.lock(0); // request dropped: the grant never comes
                    }
                });
            });
            assert!(msg.contains("simulation deadlock"), "{msg}");
            assert!(msg.contains("waiting on lock 0 grant"), "{msg}");
            assert!(
                msg.contains("node 0: lock 0: token here, held=true"),
                "{msg}"
            );
            assert!(msg.contains("injected faults: 1 drops"), "{msg}");
        }
    }

    /// A retransmission policy snappy enough for the failure detector to
    /// fire within a short workload (the default waits ~16M cycles).
    fn snappy() -> RetransmitPolicy {
        RetransmitPolicy {
            timeout: 50_000,
            backoff: 2,
            max_retries: 4,
            adaptive: None,
        }
    }

    /// Node 1 crashes at `at`, with the failure detector and checkpoints
    /// armed. HS 4x2 finishes the counter workload several times sooner
    /// than AS-4 (co-resident processors hand locks over without messages),
    /// so tests place crashes relative to [`clean_cycles`].
    fn crash_tuning(at: Cycle, restart: Option<Cycle>) -> DsmTuning {
        DsmTuning {
            faults: Some(FaultPlan::crash_schedule(0).with_crash(1, at, restart)),
            reliability: Some(snappy()),
            checkpoints: true,
            ..Default::default()
        }
    }

    /// How long the fault-free counter workload runs on `machine`.
    fn clean_cycles(machine: fn(DsmTuning) -> Platform) -> Cycle {
        run_counter(&machine(DsmTuning::default())).cycles
    }

    #[test]
    fn crashed_node_recovers_with_byte_identical_results() {
        for machine in MACHINES {
            let baseline = run_counter(&machine(DsmTuning {
                reliability: Some(snappy()),
                checkpoints: true,
                ..Default::default()
            }));
            // Crash node 1 mid-run; `run_counter` checks the results and the
            // run loop's audit that the seven-category ledger still sums to
            // every processor's clock.
            let crashed = run_counter(&machine(crash_tuning(baseline.cycles / 2, None)));
            let stats = crashed.recovery;
            assert_eq!(stats.suspected, 1, "{stats:?}");
            assert_eq!(stats.rollbacks, 1, "{stats:?}");
            assert!(stats.messages_severed > 0, "{stats:?}");
            assert!(stats.recovery_cycles > 0, "{stats:?}");
            assert!(
                stats.checkpoints >= 1,
                "a barrier ends the workload: {stats:?}"
            );
            assert!(
                crashed.cycles > baseline.cycles,
                "recovery must cost time ({} vs {})",
                crashed.cycles,
                baseline.cycles
            );
        }
    }

    #[test]
    fn crash_runs_replay_bit_exactly() {
        for machine in MACHINES {
            let p = machine(crash_tuning(clean_cycles(machine) * 2 / 5, None));
            let (a, b) = (run_counter(&p), run_counter(&p));
            assert_eq!(a.proc_cycles, b.proc_cycles);
            assert_eq!(a.recovery, b.recovery);
            assert_eq!(a.traffic, b.traffic);
        }
    }

    #[test]
    fn transient_outage_is_masked_by_retransmission_alone() {
        // A short self-restarting outage with a patient RTO: the first
        // retry lands after the node is back, so no rollback is needed.
        for machine in MACHINES {
            let t_end = clean_cycles(machine);
            let rep = run_counter(&machine(DsmTuning {
                reliability: Some(RetransmitPolicy::default()),
                ..crash_tuning(t_end * 3 / 10, Some(t_end / 10))
            }));
            let stats = rep.recovery;
            assert!(stats.messages_severed > 0, "{stats:?}");
            assert_eq!(stats.rollbacks, 0, "{stats:?}");
            assert_eq!(stats.suspected, 0, "{stats:?}");
        }
    }

    #[test]
    fn crash_without_checkpoint_aborts_naming_the_dead_node() {
        for machine in MACHINES {
            let p = machine(DsmTuning {
                checkpoints: false,
                ..crash_tuning(clean_cycles(machine) * 3 / 10, None)
            });
            let msg = abort_message(|| drop(run_body(&p, counter_workload)));
            assert!(
                msg.contains("node 1 crashed and is unrecoverable: no checkpoint armed"),
                "{msg}"
            );
        }
    }

    #[test]
    fn crash_without_reliability_is_named_in_the_watchdog_dump() {
        // No retransmission layer: messages into the dead node are lost for
        // good, the cluster wedges, and the diagnostics must say "crashed",
        // not merely "deadlocked".
        for machine in MACHINES {
            let p = machine(DsmTuning {
                reliability: None,
                ..crash_tuning(300_000, None)
            });
            let node1 = p.procs() / 4; // first processor of node 1
            let msg = abort_message(|| {
                run_body(&p, |sys| {
                    if sys.pid() == node1 {
                        sys.lock(0); // takes the token from manager node 0 ...
                        sys.compute(400_000); // ... and is holding it at the crash
                        sys.unlock(0);
                    } else {
                        sys.compute(350_000);
                        sys.lock(0); // forwarded into the dead node: never granted
                        sys.unlock(0);
                    }
                    sys.barrier(0);
                });
            });
            assert!(
                msg.contains(
                    "node 1: crashed at cycle 300000 (down — suspected crashed, not deadlocked)"
                ),
                "{msg}"
            );
            assert!(msg.contains("message copies severed"), "{msg}");
        }
    }

    #[test]
    fn checkpoints_alone_do_not_change_results() {
        for machine in MACHINES {
            let plain = run_counter(&machine(DsmTuning::default()));
            let armed = run_counter(&machine(DsmTuning {
                checkpoints: true,
                ..Default::default()
            }));
            assert!(armed.recovery.checkpoints >= 1);
            assert!(armed.cycles >= plain.cycles, "checkpoint copies cost time");
        }
    }
}
