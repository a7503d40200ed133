//! `tmk-mem`: hardware memory-system models for the case study.
//!
//! Three coherence substrates, all timing/state models over a canonical
//! memory image (hardware keeps data coherent by construction, so only tags,
//! states and latencies need simulating):
//!
//! * [`DirectCache`] — a direct-mapped cache tag/state array: the primary
//!   caches and the directory machine's caches;
//! * [`SnoopBus`] — an Illinois-protocol (MESI with cache-to-cache supply)
//!   snooping bus connecting per-processor caches (their tags kept
//!   set-major, in [`DirectCache`]'s word format), with occupancy-based bus
//!   contention: the SGI 4D/480 side of the paper and the intra-node fabric
//!   of the HS machines;
//! * [`Directory`] — a full-map directory protocol over a low-latency
//!   crossbar (DASH/FLASH-like): the paper's all-hardware (AH) design.
//!
//! The models are fault-free: hardware masks its faults below the coherence
//! protocol, and fault injection lives on the wire between DSM nodes
//! (`tmk-core`'s `FaultPlan`, applied by `tmk-net`'s `LossyNet`).

mod cache;
mod directory;
mod snoop;

pub use cache::{CacheParams, CacheStats, DirectCache, LineState, Probe};
pub use directory::{DirAccess, Directory, DirectoryParams, DirectoryStats};
pub use snoop::{BusParams, BusStats, SnoopAccess, SnoopBus};

/// A cache-line address (byte address divided by the block size).
pub type LineAddr = u64;

/// The positions of the set bits of `mask`, ascending — the processors named
/// by a sharer set or by an access's `invalidated` mask.
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let q = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        q
    })
}
