//! Protocol messages and their statistics accounting.

use std::sync::Arc;

use crate::{BarrierId, Diff, IntervalMsg, LockId, NodeId, PageId, Seq, VTime};

/// A protocol message in flight between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The message body.
    pub msg: Msg,
}

/// Completion notifications produced when handling a message unblocks a
/// pending operation on the handling node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A pending lock acquire completed on this node.
    LockGranted(LockId),
    /// A pending barrier completed on this node.
    BarrierDone(BarrierId),
    /// A pending page fault completed on this node.
    PageReady(PageId),
}

/// Coarse message classification used by the paper's Figure 12 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Access-miss traffic: page and diff requests and replies.
    Miss,
    /// Lock synchronization traffic (requests, forwards, grants).
    SyncLock,
    /// Barrier synchronization traffic (arrivals, departures).
    SyncBarrier,
    /// Eager-release update broadcasts (the TSP ablation; not part of the
    /// paper's default protocol).
    Update,
}

impl MsgClass {
    /// This class's bit in a [`FaultPlan::class_mask`](crate::FaultPlan::class_mask).
    pub fn bit(self) -> u8 {
        match self {
            MsgClass::Miss => 1 << 0,
            MsgClass::SyncLock => 1 << 1,
            MsgClass::SyncBarrier => 1 << 2,
            MsgClass::Update => 1 << 3,
        }
    }
}

/// Payload size of a message, split the way the paper's Figure 13 splits
/// data totals. Headers are accounted separately (fixed bytes per message,
/// [`crate::HEADER_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BodyBytes {
    /// Application data moved to satisfy access misses (page contents and
    /// diff contents, including run headers).
    pub miss: usize,
    /// Consistency metadata: vector times, interval records / write
    /// notices, page version vectors.
    pub consistency: usize,
}

impl BodyBytes {
    /// Total payload bytes.
    pub fn total(&self) -> usize {
        self.miss + self.consistency
    }
}

/// The TreadMarks wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Acquire request, sent to the lock's static manager.
    LockReq {
        /// Lock being acquired.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector time (so the eventual granter can compute
        /// which intervals it is missing).
        vt: VTime,
    },
    /// Manager forwarding an acquire request to the node at the tail of the
    /// lock's distributed queue.
    LockForward {
        /// Lock being acquired.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector time.
        vt: VTime,
    },
    /// Token transfer to the requester, carrying the write notices (whole
    /// intervals) the requester has not yet seen.
    LockGrant {
        /// Lock being granted.
        lock: LockId,
        /// Intervals unknown to the requester.
        intervals: Vec<IntervalMsg>,
    },
    /// Barrier arrival at the manager, carrying the arriving node's own new
    /// intervals since its last report.
    BarrierArrive {
        /// The barrier.
        barrier: BarrierId,
        /// Arriver's vector time.
        vt: VTime,
        /// Arriver's own intervals the manager may not have.
        intervals: Vec<IntervalMsg>,
        /// The arriver's consistency metadata reached its GC threshold: it
        /// asks the manager to piggyback a garbage collection on this
        /// barrier. A flag bit in the header; no extra payload bytes.
        gc_wanted: bool,
    },
    /// Barrier departure from the manager, carrying everything the
    /// destination is missing.
    BarrierDepart {
        /// The barrier.
        barrier: BarrierId,
        /// The departure vector time (join of all arrival times).
        vt: VTime,
        /// Intervals the destination has not seen.
        intervals: Vec<IntervalMsg>,
        /// Garbage-collect this barrier: after integrating, retire all
        /// metadata below the departure time `vt` (every node's time equals
        /// it once the barrier completes, so everything at or below it is
        /// globally known). The barrier is only done once [`Msg::GcDone`]
        /// arrives. A flag bit in the header; no extra payload bytes.
        gc: bool,
    },
    /// Broadcast by the origin node once it has validated its page copies
    /// against the history being retired (TreadMarks' "validate pages at
    /// GC"): receivers perform their local collection and complete the
    /// barrier.
    GcDone {
        /// The barrier the collection was piggybacked on.
        barrier: BarrierId,
    },
    /// Request for a full page copy (first access to a page).
    PageReq {
        /// The page.
        page: PageId,
    },
    /// Full page copy.
    PageReply {
        /// The page.
        page: PageId,
        /// Page contents as held by the provider: its buffer, shared.
        data: Arc<[u8]>,
        /// Per-writer interval sequence already applied to `data`, so the
        /// requester knows which diffs the copy subsumes.
        version: Vec<Seq>,
    },
    /// Request for the destination's own diffs of `page`, for its intervals
    /// in `(from, to]`.
    DiffReq {
        /// The page.
        page: PageId,
        /// Exclusive lower interval bound.
        from: Seq,
        /// Inclusive upper interval bound.
        to: Seq,
    },
    /// Diffs created by the sender for its own intervals of `page`.
    DiffReply {
        /// The page.
        page: PageId,
        /// `(interval, diff)` pairs in ascending interval order. The
        /// interval's sequence and closing vector time travel with the diff
        /// so the requester can apply concurrent writers' diffs in
        /// happened-before order even before it has the interval records;
        /// on the wire that is the vector time alone (the host shares the
        /// sender's record rather than copying it).
        diffs: Vec<(IntervalMsg, Diff)>,
        /// Host-only, and no wire bytes: the sender's valid page copy,
        /// attached only while a collection is in flight, so the origin can
        /// keep that buffer instead of a second one with the same bytes.
        copy: Option<Arc<[u8]>>,
    },
    /// Eager-release broadcast: the releaser's just-closed interval together
    /// with its diffs, applied immediately by every receiver.
    Update {
        /// The closed interval.
        interval: IntervalMsg,
        /// `(page, diff)` pairs for every page the interval dirtied.
        diffs: Vec<(PageId, Diff)>,
    },

    // --- IVY (sequential-consistency, single-writer) protocol ---
    /// Access request for `page`, sent to the page's static manager
    /// (IVY read/write fault).
    IvyReq {
        /// The page.
        page: PageId,
        /// The faulting node.
        requester: NodeId,
        /// Whether write (exclusive) access is needed.
        write: bool,
    },
    /// Manager forwarding an access request to the current owner.
    IvyFwd {
        /// The page.
        page: PageId,
        /// The faulting node.
        requester: NodeId,
        /// Whether write access is needed.
        write: bool,
        /// Nodes holding read copies that must be invalidated first
        /// (write requests only; the owner performs the invalidation).
        copyset: Vec<NodeId>,
    },
    /// Page copy delivered to the requester.
    IvySend {
        /// The page.
        page: PageId,
        /// Page contents: the owner's buffer, moved (exclusive) or shared.
        data: Arc<[u8]>,
        /// Whether the requester now owns the page exclusively.
        exclusive: bool,
    },
    /// Invalidation of a read copy (single-writer protocol).
    IvyInvalidate {
        /// The page.
        page: PageId,
    },
    /// Lock release notification to the lock's manager (IVY's centralized
    /// lock scheme; the TreadMarks protocol releases without messages).
    IvyRelease {
        /// The lock.
        lock: LockId,
    },
}

// Messages queue by value in every router and retransmission buffer: a fat
// `IntervalMsg` handle in `Update` would grow every one of them.
const _: () = assert!(size_of::<Msg>() <= 64);

impl Msg {
    /// The paper's Figure-12 classification of this message.
    pub fn class(&self) -> MsgClass {
        match self {
            Msg::LockReq { .. }
            | Msg::LockForward { .. }
            | Msg::LockGrant { .. }
            | Msg::IvyRelease { .. } => MsgClass::SyncLock,
            Msg::BarrierArrive { .. } | Msg::BarrierDepart { .. } | Msg::GcDone { .. } => {
                MsgClass::SyncBarrier
            }
            Msg::PageReq { .. }
            | Msg::PageReply { .. }
            | Msg::DiffReq { .. }
            | Msg::DiffReply { .. } => MsgClass::Miss,
            Msg::Update { .. } => MsgClass::Update,
            Msg::IvyReq { .. }
            | Msg::IvyFwd { .. }
            | Msg::IvySend { .. }
            | Msg::IvyInvalidate { .. } => MsgClass::Miss,
        }
    }

    /// Payload size, split into miss data and consistency data.
    pub fn body_bytes(&self) -> BodyBytes {
        fn intervals_bytes(intervals: &[IntervalMsg]) -> usize {
            intervals.iter().map(IntervalMsg::wire_bytes).sum()
        }
        match self {
            Msg::LockReq { vt, .. } | Msg::LockForward { vt, .. } => BodyBytes {
                miss: 0,
                consistency: 8 + vt.wire_bytes(),
            },
            Msg::LockGrant { intervals, .. } => BodyBytes {
                miss: 0,
                consistency: 8 + intervals_bytes(intervals),
            },
            Msg::BarrierArrive { vt, intervals, .. } | Msg::BarrierDepart { vt, intervals, .. } => {
                BodyBytes {
                    miss: 0,
                    consistency: 8 + vt.wire_bytes() + intervals_bytes(intervals),
                }
            }
            Msg::GcDone { .. } => BodyBytes {
                miss: 0,
                consistency: 8,
            },
            Msg::PageReq { .. } => BodyBytes {
                miss: 8,
                consistency: 0,
            },
            Msg::PageReply { data, version, .. } => BodyBytes {
                miss: data.len(),
                consistency: version.len() * std::mem::size_of::<Seq>(),
            },
            Msg::DiffReq { .. } => BodyBytes {
                miss: 16,
                consistency: 0,
            },
            Msg::DiffReply { diffs, .. } => BodyBytes {
                miss: diffs.iter().map(|(_, d)| d.wire_bytes() + 4).sum(),
                consistency: diffs.iter().map(|(iv, _)| size_of_val(iv.vt())).sum(),
            },
            Msg::Update { interval, diffs } => BodyBytes {
                miss: diffs.iter().map(|(_, d)| d.wire_bytes() + 4).sum(),
                consistency: interval.wire_bytes(),
            },
            Msg::IvyReq { .. } => BodyBytes {
                miss: 12,
                consistency: 0,
            },
            Msg::IvyFwd { copyset, .. } => BodyBytes {
                miss: 12,
                consistency: 4 * copyset.len(),
            },
            Msg::IvySend { data, .. } => BodyBytes {
                miss: data.len() + 8,
                consistency: 0,
            },
            Msg::IvyInvalidate { .. } => BodyBytes {
                miss: 8,
                consistency: 0,
            },
            Msg::IvyRelease { .. } => BodyBytes {
                miss: 0,
                consistency: 8,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        let vt = VTime::zero(2);
        assert_eq!(
            Msg::LockReq {
                lock: 0,
                requester: 1,
                vt: vt.clone()
            }
            .class(),
            MsgClass::SyncLock
        );
        assert_eq!(Msg::PageReq { page: 3 }.class(), MsgClass::Miss);
        assert_eq!(
            Msg::BarrierArrive {
                barrier: 0,
                vt,
                intervals: vec![],
                gc_wanted: false
            }
            .class(),
            MsgClass::SyncBarrier
        );
        assert_eq!(Msg::GcDone { barrier: 0 }.class(), MsgClass::SyncBarrier);
    }

    #[test]
    fn gc_flags_cost_no_payload_bytes() {
        // The GC request and floor ride as header flag bits, so GC-off and
        // GC-on runs account identical consistency bytes per barrier hop.
        let vt = VTime::zero(4);
        let off = Msg::BarrierDepart {
            barrier: 0,
            vt: vt.clone(),
            intervals: vec![],
            gc: false,
        };
        let on = Msg::BarrierDepart {
            barrier: 0,
            vt,
            intervals: vec![],
            gc: true,
        };
        assert_eq!(off.body_bytes(), on.body_bytes());
    }

    #[test]
    fn page_reply_counts_data_as_miss_bytes() {
        let m = Msg::PageReply {
            page: 0,
            data: crate::page::zero_page(4096),
            version: vec![0; 8],
        };
        let b = m.body_bytes();
        assert_eq!(b.miss, 4096);
        assert_eq!(b.consistency, 32);
        assert_eq!(b.total(), 4128);
    }
}
