//! Protocol-level statistics kept by each node.

/// Counters a [`crate::Node`] maintains about its own protocol activity.
///
/// Message counts and byte totals are accounted by whatever routes the
/// envelopes (the timing simulation or the thread runtime), since only the
/// router sees every hop; these counters cover the protocol events
/// themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Lock acquires satisfied without any message (token already here).
    pub local_lock_acquires: u64,
    /// Lock acquires that required a remote grant.
    pub remote_lock_acquires: u64,
    /// Lock releases.
    pub lock_releases: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Read faults taken (invalid page on a read).
    pub read_faults: u64,
    /// Write faults taken (twin creation, possibly after validation).
    pub write_faults: u64,
    /// Full pages fetched from another node.
    pub full_page_fetches: u64,
    /// Diff request messages this node issued.
    pub diff_requests: u64,
    /// Diffs received and applied to local copies.
    pub diffs_applied: u64,
    /// Diffs created at interval closes.
    pub diffs_created: u64,
    /// Total bytes of modified data across created diffs.
    pub diff_bytes_created: u64,
    /// Twins created.
    pub twins_created: u64,
    /// Intervals this node closed.
    pub intervals_closed: u64,
    /// Write notices received from other nodes.
    pub notices_received: u64,

    // --- Memory ledger (tracked only when `Config::gc` is set, so runs
    // --- predating the ledger keep byte-identical reports).
    /// Barrier-time garbage collections performed.
    pub gc_collections: u64,
    /// Interval records retired by GC.
    pub gc_intervals_retired: u64,
    /// Cached diffs dropped by GC.
    pub gc_diffs_retired: u64,
    /// Wire bytes of cached diffs dropped by GC.
    pub gc_diff_bytes_retired: u64,
    /// Stale page copies invalidated by GC (their retired diffs could no
    /// longer bring them current).
    pub gc_pages_dropped: u64,
    /// Pages the origin re-validated during GC (fetched outstanding diffs
    /// so post-GC faults can be served with a current full copy).
    pub gc_pages_validated: u64,
    /// Live interval records at the last ledger update (gauge).
    pub live_intervals: u64,
    /// Approximate bytes of live interval records (gauge).
    pub live_interval_bytes: u64,
    /// Wire bytes of diffs currently cached on this node (gauge).
    pub cached_diff_bytes: u64,
    /// High-water mark of `live_intervals`.
    pub live_intervals_hw: u64,
    /// High-water mark of `live_interval_bytes`.
    pub live_interval_bytes_hw: u64,
    /// High-water mark of `cached_diff_bytes`.
    pub cached_diff_bytes_hw: u64,
}

impl NodeStats {
    /// Element-wise sum, for cluster-level aggregation.
    pub fn merge(&mut self, o: &NodeStats) {
        self.local_lock_acquires += o.local_lock_acquires;
        self.remote_lock_acquires += o.remote_lock_acquires;
        self.lock_releases += o.lock_releases;
        self.barriers += o.barriers;
        self.read_faults += o.read_faults;
        self.write_faults += o.write_faults;
        self.full_page_fetches += o.full_page_fetches;
        self.diff_requests += o.diff_requests;
        self.diffs_applied += o.diffs_applied;
        self.diffs_created += o.diffs_created;
        self.diff_bytes_created += o.diff_bytes_created;
        self.twins_created += o.twins_created;
        self.intervals_closed += o.intervals_closed;
        self.notices_received += o.notices_received;
        self.gc_collections += o.gc_collections;
        self.gc_intervals_retired += o.gc_intervals_retired;
        self.gc_diffs_retired += o.gc_diffs_retired;
        self.gc_diff_bytes_retired += o.gc_diff_bytes_retired;
        self.gc_pages_dropped += o.gc_pages_dropped;
        self.gc_pages_validated += o.gc_pages_validated;
        // Gauges and high-water marks sum across nodes: the cluster figure
        // is the aggregate footprint (sum of per-node values / peaks).
        self.live_intervals += o.live_intervals;
        self.live_interval_bytes += o.live_interval_bytes;
        self.cached_diff_bytes += o.cached_diff_bytes;
        self.live_intervals_hw += o.live_intervals_hw;
        self.live_interval_bytes_hw += o.live_interval_bytes_hw;
        self.cached_diff_bytes_hw += o.cached_diff_bytes_hw;
    }
}

/// Counters from the node-crash fault model: barrier-epoch checkpoints,
/// failure detections, and the rollback-recovery work they triggered. The
/// one recovery vocabulary of every driver: the timed fabric charges the
/// work, [`Cluster::crash_recover`](crate::Cluster::crash_recover) and the
/// real-thread [`runtime`](crate::runtime) perform it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Barrier-consistent checkpoints taken.
    pub checkpoints: u64,
    /// Scheduled crashes that fired (counted by the runtime only; not part
    /// of the `recovery` JSON block).
    pub crashes: u64,
    /// Messages severed by crash windows (neither delivered nor counted as
    /// injected drops).
    pub messages_severed: u64,
    /// Nodes declared suspected-dead, once per incident.
    pub suspected: u64,
    /// Cluster rollbacks to the last checkpoint cut.
    pub rollbacks: u64,
    /// Lock tokens re-minted at their managers during recovery (the
    /// [`forgotten_tokens`](crate::Node::forgotten_tokens) rule).
    pub tokens_regenerated: u64,
    /// Pages the crashed nodes rebuilt from the checkpoint cut: re-fetched
    /// from survivors in the timed fabric, restored from the snapshot by
    /// `Cluster` and the runtime.
    pub pages_refetched: u64,
    /// Cycles charged to `tmk_trace::Category::Recovery` (timed fabric
    /// only).
    pub recovery_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums() {
        let mut a = NodeStats {
            barriers: 1,
            diffs_created: 2,
            ..Default::default()
        };
        let b = NodeStats {
            barriers: 3,
            remote_lock_acquires: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.barriers, 4);
        assert_eq!(a.diffs_created, 2);
        assert_eq!(a.remote_lock_acquires, 5);
    }
}
