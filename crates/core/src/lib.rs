//! `tmk-core`: a TreadMarks-style software distributed shared memory system
//! implementing lazy release consistency (LRC).
//!
//! This crate is the reproduction's primary contribution: a page-based,
//! multiple-writer DSM with the full TreadMarks protocol machinery —
//! vector timestamps, interval records, write notices, twins, word-level
//! run-length diffs, a token-forwarding distributed lock manager, and
//! barriers with a static manager per barrier (`barrier % nodes`) — as
//! described in Keleher et al. (USENIX'94) and
//! evaluated in the ISCA'94 case study this repository reproduces.
//!
//! # Architecture
//!
//! The protocol is written *sans-io*: [`Node`] is a pure state machine. An
//! operation on a node (acquire a lock, arrive at a barrier, fault on a
//! page) returns [`Envelope`]s to transmit; delivering an envelope to its
//! destination node ([`Node::handle`]) returns further envelopes plus
//! [`Action`]s (lock granted, page ready, barrier done) that tell the caller
//! which blocked operations completed. This lets the same protocol code run
//!
//! * under the deterministic timing simulation in `tmk-machines` (messages
//!   routed through network models, used for every experiment in the paper),
//! * under the real multi-threaded in-process runtime in [`runtime`]
//!   (messages routed through channels between OS threads), and
//! * directly in unit and property tests via the synchronous [`Cluster`]
//!   router, which runs either protocol ([`DsmProtocol`]).
//!
//! # Consistency model
//!
//! Release consistency distinguishes ordinary accesses from `acquire` and
//! `release` synchronization accesses; a processor's ordinary writes only
//! need to be visible to another processor after a release-acquire chain
//! connects them. The *lazy* implementation delays propagation until the
//! acquire: the acquiring node receives *write notices* (page numbers
//! stamped with the writer's interval) for every interval that
//! happened-before its acquire, invalidates those pages, and on a later
//! access fault fetches *diffs* — run-length encodings of the words each
//! writer actually changed — and applies them in happened-before order.
//! Multiple concurrent writers of the same page are supported: each writer
//! twins the page on its first write and diffs against the twin, so unrelated
//! words merge cleanly (false sharing does not ping-pong whole pages).
//!
//! # Example: real threads, real shared memory
//!
//! A runtime node is a [`tmk_parmacs::System`], like every simulated
//! platform.
//!
//! ```
//! use tmk_core::runtime::{Dsm, DsmConfig};
//! use tmk_parmacs::{System, SystemExt};
//!
//! let cfg = DsmConfig::new(4).segment_pages(16);
//! let total = Dsm::run(cfg, |node| {
//!     // One shared u64 counter at offset 0, initialized to zero.
//!     let lock = 0;
//!     for _ in 0..100 {
//!         node.lock(lock);
//!         let v: u64 = node.read(0);
//!         node.write(0, v + 1);
//!         node.unlock(lock);
//!     }
//!     node.barrier(0);
//!     node.read::<u64>(0)
//! });
//! assert!(total.into_iter().all(|v| v == 400));
//! ```

mod cluster;
mod diff;
mod hash;
mod interval;
pub mod ivy;
mod msg;
mod node;
mod page;
mod proto;
pub mod reliable;
pub mod runtime;
mod runtime_faults;
pub mod service;
mod stats;
mod vt;

pub use cluster::{Cluster, Traffic};
pub use diff::Diff;
pub use hash::{IntHasher, IntMap};
pub use interval::{IntervalMsg, IntervalStore};
pub use ivy::IvyNode;
pub use msg::{Action, BodyBytes, Envelope, Msg, MsgClass};
pub use node::{FaultStart, Handled, Node, NodeCheckpoint, StartAcquire};
pub use proto::{DsmProtocol, ProtoNode};
pub use reliable::{AdaptiveRto, PacketId, RelStats, Reliability, RetransmitPolicy, Timeout};
pub use stats::{NodeStats, RecoveryStats};
pub use vt::VTime;

/// Identifies a node (a machine in the cluster; one protocol instance).
pub type NodeId = usize;
/// Index of a page within the shared segment.
pub type PageId = usize;
/// Application-level lock identifier.
pub type LockId = usize;
/// Application-level barrier identifier.
pub type BarrierId = usize;
/// Byte offset into the shared segment.
pub type SharedAddr = usize;
/// Interval sequence number within one node (1-based; 0 = "nothing seen").
pub type Seq = u32;

/// Coherence-relevant word size in bytes; diffs are computed at this
/// granularity (the 32-bit word of the paper's MIPS R3000 machines).
pub const WORD: usize = 4;

/// How a lock's release propagates modifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReleaseMode {
    /// Lazy release consistency: modifications propagate at a subsequent
    /// acquire, as write notices + on-demand diffs (TreadMarks default).
    #[default]
    Lazy,
    /// Eager release: on release, the interval's write notices *and diffs*
    /// are broadcast to all other nodes, which apply them immediately
    /// (keeping their copies valid). This is the paper's TSP modification
    /// (Section 2.4.3) that propagates the branch-and-bound tour bound
    /// early.
    Eager,
}

/// Static configuration of a DSM cluster.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of nodes.
    pub nodes: usize,
    /// Page size in bytes (power of two, multiple of [`WORD`]).
    pub page_size: usize,
    /// Shared segment size in pages.
    pub segment_pages: usize,
    /// Per-message header bytes charged by the statistics accounting.
    pub header_bytes: usize,
    /// Every lock releases eagerly when set (see [`Config::release_mode`]).
    pub eager_all: bool,
    /// Locks that use [`ReleaseMode::Eager`] even when `eager_all` is off.
    pub eager_locks: Vec<LockId>,
    /// Barrier-time garbage collection threshold in bytes of consistency
    /// metadata (live interval records + cached diffs). When a node's
    /// footprint reaches the threshold it requests a collection at its next
    /// barrier arrival; the whole cluster then retires everything below the
    /// barrier's vector time (TreadMarks' GC, Keleher et al. USENIX'94).
    /// `None` disables GC *and* the memory ledger entirely;
    /// `Some(u64::MAX)` tracks the ledger without ever collecting.
    pub gc: Option<u64>,
}

impl Config {
    /// A configuration with the defaults used throughout the paper
    /// reproduction: 4 KB pages and 32-byte message headers.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Config {
            nodes,
            page_size: 4096,
            segment_pages: 1024,
            header_bytes: 32,
            eager_all: false,
            eager_locks: Vec::new(),
            gc: None,
        }
    }

    /// Enables barrier-time garbage collection once a node's consistency
    /// metadata reaches `threshold_bytes` (see [`Config::gc`]).
    pub fn gc(mut self, threshold_bytes: u64) -> Self {
        self.gc = Some(threshold_bytes);
        self
    }

    /// Sets the page size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or not a multiple of
    /// [`WORD`].
    pub fn page_size(mut self, bytes: usize) -> Self {
        assert!(bytes.is_power_of_two() && bytes.is_multiple_of(WORD));
        self.page_size = bytes;
        self
    }

    /// Sets the shared segment length in pages.
    pub fn segment_pages(mut self, pages: usize) -> Self {
        self.segment_pages = pages;
        self
    }

    /// Makes every lock release eagerly (see [`ReleaseMode::Eager`]).
    pub fn eager_release_all(mut self) -> Self {
        self.eager_all = true;
        self
    }

    /// Makes one lock release eagerly.
    pub fn eager_release_lock(mut self, lock: LockId) -> Self {
        self.eager_locks.push(lock);
        self
    }

    /// The release mode of `lock` under this configuration.
    pub fn release_mode(&self, lock: LockId) -> ReleaseMode {
        if self.eager_all || self.eager_locks.contains(&lock) {
            ReleaseMode::Eager
        } else {
            ReleaseMode::Lazy
        }
    }

    /// Total shared segment size in bytes.
    pub fn segment_bytes(&self) -> usize {
        self.page_size * self.segment_pages
    }

    /// The manager node for a lock (static assignment).
    pub fn lock_manager(&self, lock: LockId) -> NodeId {
        lock % self.nodes
    }

    /// The manager node for a barrier (static assignment).
    pub fn barrier_manager(&self, barrier: BarrierId) -> NodeId {
        barrier % self.nodes
    }

    /// The page containing a shared address.
    pub fn page_of(&self, addr: SharedAddr) -> PageId {
        addr / self.page_size
    }
}
