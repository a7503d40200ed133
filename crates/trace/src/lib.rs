//! `tmk-trace`: structured event tracing and execution-time attribution.
//!
//! The paper's evidence is not just speedup curves but *where the time
//! goes*: its execution-time decompositions split every processor's wall
//! clock into computation, memory stalls, protocol work, synchronization
//! idling and communication. This crate is the workspace's observability
//! layer for reproducing that kind of evidence:
//!
//! * a **time ledger** ([`TraceBuf::charge`]) that attributes every
//!   simulated cycle of every processor to a [`Category`], with the
//!   invariant (checked by [`TraceBuf::check`]) that the categories sum
//!   exactly to the processor's final clock;
//! * an **event log** ([`TraceBuf::emit`]) of protocol, network and
//!   coherence-fabric instants ([`EventKind`]) on per-track ring buffers;
//! * a **Chrome trace-event exporter** ([`TraceBuf::chrome_trace`]) whose
//!   output loads in `chrome://tracing` / Perfetto, one track per
//!   simulated processor plus node/link/bus tracks;
//! * a **first-divergence diff** ([`first_divergence`]) over two exported
//!   traces, turning "the runs are not byte-identical" into "they diverge
//!   at event #N".
//!
//! # Zero cost when disabled
//!
//! Instrumented code holds a [`Sink`] — a newtype over
//! `Option<Arc<TraceBuf>>`. A disabled sink (`Sink::default()`) makes
//! every call a no-op behind one `Option` test and never allocates, so
//! untraced runs stay cycle-identical (and `RunReport`-identical) to
//! builds that predate the tracing layer.
//!
//! # Determinism
//!
//! The simulators guarantee that per-processor [`Track::Cpu`] events are
//! emitted only by (or on behalf of) that processor under the engine's
//! global lock, and that all other tracks are written only inside the
//! engine's serialized synchronization operations. [`chrome_trace`]
//! concatenates rings without merging, so two runs of the same
//! configuration export byte-identical traces.
//!
//! [`chrome_trace`]: TraceBuf::chrome_trace

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Simulated time in processor cycles (mirrors `tmk_sim::Cycle`; this
/// crate is a leaf and cannot depend on the simulator).
pub type Cycle = u64;

/// Where a processor's cycles went. The categories partition the wall
/// clock: for every processor, the per-category ledger sums to its final
/// clock exactly (see [`TraceBuf::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Application computation (instruction execution between shared
    /// accesses).
    Compute,
    /// Memory-hierarchy stalls: cache misses, bus/directory transactions,
    /// valid-page DSM access costs.
    MemStall,
    /// Software protocol work: fault handling, twin creation, diff
    /// make/apply, write-notice processing, message packing.
    Protocol,
    /// Synchronization idling: waiting for a lock grant or for barrier
    /// peers.
    SyncIdle,
    /// Network occupancy and flight time spent waiting for remote data.
    Network,
    /// Cycles stolen by servicing other processors' requests (handler
    /// time charged by the engine at scheduling points).
    Stolen,
    /// Crash-recovery work: failure detection, checkpoint rollback,
    /// replay, page refetch, and lock-token regeneration.
    Recovery,
}

/// Number of [`Category`] variants (ledger row width).
pub const NCAT: usize = 7;

impl Category {
    /// Every category, in ledger order.
    pub const ALL: [Category; NCAT] = [
        Category::Compute,
        Category::MemStall,
        Category::Protocol,
        Category::SyncIdle,
        Category::Network,
        Category::Stolen,
        Category::Recovery,
    ];

    /// This category's ledger column.
    pub fn index(self) -> usize {
        match self {
            Category::Compute => 0,
            Category::MemStall => 1,
            Category::Protocol => 2,
            Category::SyncIdle => 3,
            Category::Network => 4,
            Category::Stolen => 5,
            Category::Recovery => 6,
        }
    }

    /// Stable lowercase name (JSON keys, track labels).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::MemStall => "mem_stall",
            Category::Protocol => "protocol",
            Category::SyncIdle => "sync_idle",
            Category::Network => "network",
            Category::Stolen => "stolen",
            Category::Recovery => "recovery",
        }
    }
}

/// The timeline an event belongs to. Exported as Chrome trace (pid, tid)
/// pairs: processors under pid 0, DSM nodes under pid 1, network links
/// under pid 2, coherence fabrics (buses / the directory) under pid 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A simulated processor.
    Cpu(u32),
    /// A DSM node (its protocol engine / message handlers).
    Node(u32),
    /// A network link, keyed by the sending host.
    Link(u32),
    /// A snooping bus (per HS node) or the directory (index 0).
    Bus(u32),
}

impl Track {
    fn pid(self) -> u32 {
        match self {
            Track::Cpu(_) => 0,
            Track::Node(_) => 1,
            Track::Link(_) => 2,
            Track::Bus(_) => 3,
        }
    }

    fn tid(self) -> u32 {
        match self {
            Track::Cpu(i) | Track::Node(i) | Track::Link(i) | Track::Bus(i) => i,
        }
    }

    fn group_name(self) -> &'static str {
        match self {
            Track::Cpu(_) => "processors",
            Track::Node(_) => "dsm nodes",
            Track::Link(_) => "network links",
            Track::Bus(_) => "coherence fabric",
        }
    }

    fn track_name(self) -> String {
        match self {
            Track::Cpu(i) => format!("cpu {i}"),
            Track::Node(i) => format!("node {i}"),
            Track::Link(i) => format!("link {i} tx"),
            Track::Bus(i) => format!("bus {i}"),
        }
    }
}

/// What happened. `Span` carries a duration; everything else is an
/// instant. Payloads are plain integers so the crate stays protocol- and
/// simulator-agnostic (message classes arrive as the class bit the fault
/// layer already uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// `dur` cycles attributed to a category (the ledger's visible form).
    Span(Category),
    /// A page fault entered the DSM protocol.
    PageFault {
        /// Faulting page.
        page: u64,
        /// Whether the faulting access was a write.
        write: bool,
    },
    /// Twins created while handling an operation.
    TwinCreate {
        /// Twins created.
        count: u64,
    },
    /// Diffs created (run-length encoding against twins).
    DiffMake {
        /// Diffs created.
        count: u64,
        /// Total encoded bytes.
        bytes: u64,
    },
    /// Diffs applied to pages.
    DiffApply {
        /// Diffs applied.
        count: u64,
    },
    /// Write notices received and processed.
    WriteNotice {
        /// Notices received.
        count: u64,
    },
    /// Barrier-time garbage collection retired consistency metadata on
    /// this node (intervals below the global minimum frontier plus their
    /// cached diffs).
    GcRetire {
        /// Interval records retired.
        intervals: u64,
        /// Cached diff bytes freed.
        bytes: u64,
    },
    /// A lock request was forwarded along the distributed queue.
    LockForward {
        /// The lock.
        lock: u64,
    },
    /// A barrier completed an epoch on this processor.
    BarrierEpoch {
        /// The barrier.
        barrier: u64,
    },
    /// The reliability layer retransmitted a packet.
    Retransmit {
        /// Retry count after this retransmission (1 = first retry).
        attempt: u32,
    },
    /// A node handed a message to the network.
    MsgSend {
        /// Destination node.
        to: u32,
        /// Message-class bit (`MsgClass::bit`).
        class: u8,
        /// Wire bytes (payload + header).
        bytes: u64,
    },
    /// A message arrived and was accepted (duplicates are not logged).
    MsgArrive {
        /// Source node.
        from: u32,
        /// Message-class bit.
        class: u8,
        /// Wire bytes.
        bytes: u64,
    },
    /// A link-level transfer occupied the wire.
    LinkXfer {
        /// Sending host.
        from: u32,
        /// Receiving host.
        to: u32,
        /// Bytes on the wire.
        bytes: u64,
        /// Cycles the message queued for link occupancy before its first
        /// byte moved.
        wait: u64,
    },
    /// A snooping-bus transaction (misses and upgrades only; hits are
    /// silent).
    BusTxn {
        /// Whether the access was a write.
        write: bool,
    },
    /// A directory transaction (misses and upgrades only).
    DirTxn {
        /// Whether the access was a write.
        write: bool,
    },
    /// A scheduled node crash severed the node's links.
    NodeCrash {
        /// The crashed node.
        node: u32,
    },
    /// The failure detector declared a node suspected-dead
    /// (retransmit exhaustion confirmed by the barrier manager's lease).
    NodeSuspected {
        /// The suspected node.
        node: u32,
    },
    /// A barrier-epoch checkpoint was taken on this node.
    CheckpointTake {
        /// Resident pages snapshotted.
        pages: u64,
    },
    /// The cluster rolled back to the last checkpoint epoch and replayed.
    Rollback {
        /// The node whose failure triggered the rollback.
        node: u32,
        /// Pages re-fetched to rebuild the crashed node's working set.
        pages: u64,
    },
    /// Lock tokens lost with a crashed node were re-minted at their
    /// managers from survivor metadata.
    TokenRegen {
        /// Tokens regenerated.
        count: u64,
    },
}

impl EventKind {
    fn name(&self) -> &'static str {
        match self {
            EventKind::Span(c) => c.name(),
            EventKind::PageFault { .. } => "page_fault",
            EventKind::TwinCreate { .. } => "twin_create",
            EventKind::DiffMake { .. } => "diff_make",
            EventKind::DiffApply { .. } => "diff_apply",
            EventKind::WriteNotice { .. } => "write_notice",
            EventKind::GcRetire { .. } => "gc_retire",
            EventKind::LockForward { .. } => "lock_forward",
            EventKind::BarrierEpoch { .. } => "barrier_epoch",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgArrive { .. } => "msg_arrive",
            EventKind::LinkXfer { .. } => "link_xfer",
            EventKind::BusTxn { .. } => "bus_txn",
            EventKind::DirTxn { .. } => "dir_txn",
            EventKind::NodeCrash { .. } => "node_crash",
            EventKind::NodeSuspected { .. } => "node_suspected",
            EventKind::CheckpointTake { .. } => "checkpoint_take",
            EventKind::Rollback { .. } => "rollback",
            EventKind::TokenRegen { .. } => "token_regen",
        }
    }

    /// Writes the Chrome `"args"` object, or nothing for payload-free
    /// kinds.
    fn write_args(&self, out: &mut String) {
        match *self {
            EventKind::Span(_) => {}
            EventKind::PageFault { page, write } => {
                let _ = write!(out, ",\"args\":{{\"page\":{page},\"write\":{write}}}");
            }
            EventKind::TwinCreate { count } => {
                let _ = write!(out, ",\"args\":{{\"count\":{count}}}");
            }
            EventKind::DiffMake { count, bytes } => {
                let _ = write!(out, ",\"args\":{{\"count\":{count},\"bytes\":{bytes}}}");
            }
            EventKind::DiffApply { count } => {
                let _ = write!(out, ",\"args\":{{\"count\":{count}}}");
            }
            EventKind::WriteNotice { count } => {
                let _ = write!(out, ",\"args\":{{\"count\":{count}}}");
            }
            EventKind::GcRetire { intervals, bytes } => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"intervals\":{intervals},\"bytes\":{bytes}}}"
                );
            }
            EventKind::LockForward { lock } => {
                let _ = write!(out, ",\"args\":{{\"lock\":{lock}}}");
            }
            EventKind::BarrierEpoch { barrier } => {
                let _ = write!(out, ",\"args\":{{\"barrier\":{barrier}}}");
            }
            EventKind::Retransmit { attempt } => {
                let _ = write!(out, ",\"args\":{{\"attempt\":{attempt}}}");
            }
            EventKind::MsgSend { to, class, bytes } => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"to\":{to},\"class\":{class},\"bytes\":{bytes}}}"
                );
            }
            EventKind::MsgArrive { from, class, bytes } => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"from\":{from},\"class\":{class},\"bytes\":{bytes}}}"
                );
            }
            EventKind::LinkXfer {
                from,
                to,
                bytes,
                wait,
            } => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"from\":{from},\"to\":{to},\"bytes\":{bytes},\"wait\":{wait}}}"
                );
            }
            EventKind::BusTxn { write } | EventKind::DirTxn { write } => {
                let _ = write!(out, ",\"args\":{{\"write\":{write}}}");
            }
            EventKind::NodeCrash { node } | EventKind::NodeSuspected { node } => {
                let _ = write!(out, ",\"args\":{{\"node\":{node}}}");
            }
            EventKind::CheckpointTake { pages } => {
                let _ = write!(out, ",\"args\":{{\"pages\":{pages}}}");
            }
            EventKind::Rollback { node, pages } => {
                let _ = write!(out, ",\"args\":{{\"node\":{node},\"pages\":{pages}}}");
            }
            EventKind::TokenRegen { count } => {
                let _ = write!(out, ",\"args\":{{\"count\":{count}}}");
            }
        }
    }
}

/// One trace record: what happened, where, when, for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timeline.
    pub track: Track,
    /// Start cycle.
    pub at: Cycle,
    /// Duration in cycles (0 for instants).
    pub dur: Cycle,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded keep-first event buffer. Keeping the *first* `cap` events
/// (rather than a circular tail) makes truncation deterministic: two
/// identical runs drop identical suffixes, so exported traces still
/// compare byte-for-byte.
#[derive(Debug, Default)]
struct Ring {
    events: Vec<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, cap: usize, ev: Event) {
        if self.events.len() < cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// The trace store for one run: a cycle ledger (always on) plus bounded
/// event rings (on when `ring_cap > 0`).
///
/// Writers take one of two paths chosen by the event's track:
/// [`Track::Cpu`] events go to that processor's own ring (written only by
/// or on behalf of that processor), everything else goes to the shared
/// ring (written only inside the engine's serialized sync operations).
#[derive(Debug)]
pub struct TraceBuf {
    procs: usize,
    cap: usize,
    own: Vec<Mutex<Ring>>,
    shared: Mutex<Ring>,
    /// `procs × NCAT` cycle counters, row-major by processor.
    ledger: Vec<AtomicU64>,
}

impl TraceBuf {
    /// A store for `procs` processors keeping at most `ring_cap` events
    /// per ring (`0` = ledger only, no event log).
    pub fn new(procs: usize, ring_cap: usize) -> TraceBuf {
        TraceBuf {
            procs,
            cap: ring_cap,
            own: (0..procs).map(|_| Mutex::new(Ring::default())).collect(),
            shared: Mutex::new(Ring::default()),
            ledger: (0..procs * NCAT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Attributes `cycles` of processor `proc`'s time to `cat`.
    pub fn charge(&self, proc: usize, cat: Category, cycles: Cycle) {
        if cycles > 0 {
            self.ledger[proc * NCAT + cat.index()].fetch_add(cycles, Ordering::Relaxed);
        }
    }

    /// Appends an event (no-op in ledger-only mode).
    pub fn emit(&self, ev: Event) {
        if self.cap == 0 {
            return;
        }
        let ring = match ev.track {
            Track::Cpu(p) => &self.own[p as usize],
            _ => &self.shared,
        };
        ring.lock().expect("trace ring poisoned").push(self.cap, ev);
    }

    /// Processor `proc`'s ledger row, in [`Category::ALL`] order.
    pub fn ledger(&self, proc: usize) -> [u64; NCAT] {
        let mut row = [0; NCAT];
        for (i, cell) in row.iter_mut().enumerate() {
            *cell = self.ledger[proc * NCAT + i].load(Ordering::Relaxed);
        }
        row
    }

    /// All ledger rows.
    pub fn breakdown(&self) -> Vec<[u64; NCAT]> {
        (0..self.procs).map(|p| self.ledger(p)).collect()
    }

    /// Verifies the attribution invariant: every processor's categories
    /// sum exactly to its final clock.
    ///
    /// # Errors
    ///
    /// Returns the first offending processor with its ledger row.
    pub fn check(&self, clocks: &[Cycle]) -> Result<(), String> {
        assert_eq!(clocks.len(), self.procs, "clock vector length");
        for (p, &clock) in clocks.iter().enumerate() {
            let row = self.ledger(p);
            let sum: u64 = row.iter().sum();
            if sum != clock {
                return Err(format!(
                    "proc {p}: ledger sums to {sum} but the clock is {clock} \
                     (compute={} mem_stall={} protocol={} sync_idle={} network={} \
                     stolen={} recovery={})",
                    row[0], row[1], row[2], row[3], row[4], row[5], row[6],
                ));
            }
        }
        Ok(())
    }

    /// Exports the event log as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`). Timestamps and durations are raw
    /// simulated cycles; one event per line, so [`first_divergence`] can
    /// point at the first differing record.
    pub fn chrome_trace(&self) -> String {
        let mut rings: Vec<(Option<usize>, Vec<Event>, u64)> = Vec::new();
        for (p, ring) in self.own.iter().enumerate() {
            let r = ring.lock().expect("trace ring poisoned");
            rings.push((Some(p), r.events.clone(), r.dropped));
        }
        {
            let r = self.shared.lock().expect("trace ring poisoned");
            rings.push((None, r.events.clone(), r.dropped));
        }

        // Metadata rows: name every (pid, tid) pair that carries events,
        // in sorted order so the header is deterministic.
        let mut tracks: Vec<Track> = rings
            .iter()
            .flat_map(|(_, evs, _)| evs.iter().map(|e| e.track))
            .collect();
        tracks.sort();
        tracks.dedup();

        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push_line = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };

        let mut named_pids: Vec<u32> = Vec::new();
        for t in &tracks {
            if !named_pids.contains(&t.pid()) {
                named_pids.push(t.pid());
                push_line(
                    format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        t.pid(),
                        t.group_name()
                    ),
                    &mut out,
                );
            }
            push_line(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    t.pid(),
                    t.tid(),
                    t.track_name()
                ),
                &mut out,
            );
        }

        for (_, events, _) in &rings {
            for ev in events {
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                    ev.kind.name(),
                    if matches!(ev.kind, EventKind::Span(_)) {
                        "X"
                    } else {
                        "i"
                    },
                    ev.track.pid(),
                    ev.track.tid(),
                    ev.at,
                );
                if matches!(ev.kind, EventKind::Span(_)) {
                    let _ = write!(line, ",\"dur\":{}", ev.dur);
                } else {
                    line.push_str(",\"s\":\"t\"");
                }
                ev.kind.write_args(&mut line);
                line.push('}');
                push_line(line, &mut out);
            }
        }

        let dropped: u64 = rings.iter().map(|(_, _, d)| d).sum();
        push_line(
            format!(
                "{{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{{\"dropped_events\":{dropped}}}}}"
            ),
            &mut out,
        );
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// A cloneable, possibly-disabled handle to a [`TraceBuf`]. The default
/// (disabled) sink makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct Sink(Option<std::sync::Arc<TraceBuf>>);

impl Sink {
    /// A sink feeding `buf`.
    pub fn new(buf: std::sync::Arc<TraceBuf>) -> Sink {
        Sink(Some(buf))
    }

    /// Whether any tracing is active.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// See [`TraceBuf::charge`].
    pub fn charge(&self, proc: usize, cat: Category, cycles: Cycle) {
        if let Some(buf) = &self.0 {
            buf.charge(proc, cat, cycles);
        }
    }

    /// Charges *and* logs a span on the processor's track (the visible
    /// form of the ledger).
    pub fn charge_span(&self, proc: usize, cat: Category, at: Cycle, cycles: Cycle) {
        if let Some(buf) = &self.0 {
            buf.charge(proc, cat, cycles);
            if cycles > 0 {
                buf.emit(Event {
                    track: Track::Cpu(proc as u32),
                    at,
                    dur: cycles,
                    kind: EventKind::Span(cat),
                });
            }
        }
    }

    /// See [`TraceBuf::emit`].
    pub fn emit(&self, ev: Event) {
        if let Some(buf) = &self.0 {
            buf.emit(ev);
        }
    }
}

/// Compares two exported traces line by line; `None` when identical,
/// otherwise the 1-based line number and both lines (one may be the
/// virtual `<end of trace>` marker when lengths differ).
pub fn first_divergence(a: &str, b: &str) -> Option<(usize, String, String)> {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut n = 0;
    loop {
        n += 1;
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                let end = "<end of trace>";
                return Some((
                    n,
                    x.unwrap_or(end).to_string(),
                    y.unwrap_or(end).to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ledger_rows_sum_to_clocks() {
        let buf = TraceBuf::new(2, 0);
        buf.charge(0, Category::Compute, 70);
        buf.charge(0, Category::SyncIdle, 30);
        buf.charge(1, Category::Compute, 40);
        buf.charge(1, Category::Stolen, 9);
        buf.charge(1, Category::Network, 1);
        assert!(buf.check(&[100, 50]).is_ok());
        let err = buf.check(&[100, 51]).unwrap_err();
        assert!(err.contains("proc 1"), "{err}");
        assert_eq!(buf.ledger(0)[Category::Compute.index()], 70);
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = Sink::default();
        assert!(!sink.enabled());
        sink.charge(0, Category::Compute, 10);
        sink.charge_span(0, Category::Compute, 0, 10);
        sink.emit(Event {
            track: Track::Cpu(0),
            at: 0,
            dur: 0,
            kind: EventKind::BarrierEpoch { barrier: 0 },
        });
    }

    #[test]
    fn ledger_only_mode_logs_no_events() {
        let buf = Arc::new(TraceBuf::new(1, 0));
        let sink = Sink::new(buf.clone());
        sink.charge_span(0, Category::Compute, 0, 5);
        let trace = buf.chrome_trace();
        assert!(!trace.contains("\"ph\":\"X\""), "{trace}");
        assert_eq!(buf.ledger(0)[0], 5, "the ledger still counts");
    }

    #[test]
    fn keep_first_truncation_is_deterministic() {
        let make = || {
            let buf = TraceBuf::new(1, 3);
            for i in 0..10 {
                buf.emit(Event {
                    track: Track::Cpu(0),
                    at: i,
                    dur: 0,
                    kind: EventKind::PageFault {
                        page: i,
                        write: false,
                    },
                });
            }
            buf.chrome_trace()
        };
        let a = make();
        assert_eq!(first_divergence(&a, &make()), None);
        assert!(a.contains("\"dropped_events\":7"), "{a}");
        assert_eq!(a.matches("page_fault").count(), 3);
    }

    #[test]
    fn chrome_trace_names_tracks_and_kinds() {
        let buf = TraceBuf::new(2, 64);
        let sink = Sink::new(Arc::new(TraceBuf::new(0, 0)));
        assert!(sink.enabled());
        buf.emit(Event {
            track: Track::Cpu(1),
            at: 100,
            dur: 40,
            kind: EventKind::Span(Category::Protocol),
        });
        buf.emit(Event {
            track: Track::Link(0),
            at: 120,
            dur: 0,
            kind: EventKind::LinkXfer {
                from: 0,
                to: 1,
                bytes: 4128,
                wait: 7,
            },
        });
        buf.emit(Event {
            track: Track::Node(1),
            at: 130,
            dur: 0,
            kind: EventKind::MsgSend {
                to: 0,
                class: 1,
                bytes: 4160,
            },
        });
        let t = buf.chrome_trace();
        for needle in [
            "\"traceEvents\"",
            "\"processors\"",
            "\"network links\"",
            "\"cpu 1\"",
            "\"protocol\"",
            "\"dur\":40",
            "link_xfer",
            "\"wait\":7",
            "msg_send",
        ] {
            assert!(t.contains(needle), "missing {needle} in {t}");
        }
    }

    #[test]
    fn divergence_points_at_the_first_differing_line() {
        assert_eq!(first_divergence("a\nb\nc", "a\nb\nc"), None);
        let (n, x, y) = first_divergence("a\nb\nc", "a\nX\nc").unwrap();
        assert_eq!((n, x.as_str(), y.as_str()), (2, "b", "X"));
        let (n, _, y) = first_divergence("a\nb", "a").unwrap();
        assert_eq!((n, y.as_str()), (2, "<end of trace>"));
    }
}
