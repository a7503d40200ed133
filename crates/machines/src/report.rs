//! Run results and measurement reports.

use crate::json::Json;
use tmk_core::Traffic;
use tmk_core::{NodeStats, RecoveryStats};
use tmk_mem::{BusStats, CacheStats, DirectoryStats};
use tmk_sim::Cycle;

/// Everything a benchmark needs from one run: per-processor results plus a
/// measurement report.
#[derive(Debug)]
pub struct Outcome<R> {
    /// Per-processor return values, indexed by processor id.
    pub results: Vec<R>,
    /// The measurements.
    pub report: RunReport,
    /// The engine's op trace — `(processor, clock)` at each sync-op start,
    /// in execution order — when [`RunOpts::op_trace`](crate::RunOpts)
    /// armed it (`suite --op-trace`). Empty otherwise.
    pub op_trace: Vec<(usize, Cycle)>,
}

/// Measurements from one simulated execution.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Processors simulated.
    pub procs: usize,
    /// Processor clock, Hz (turns cycles into seconds).
    pub clock_hz: u64,
    /// Host wall-clock time spent inside the engine, in milliseconds.
    pub host_ms: f64,
    /// Execution time in cycles (slowest processor).
    pub cycles: Cycle,
    /// Per-processor finishing times.
    pub proc_cycles: Vec<Cycle>,
    /// DSM message traffic (zero on hardware platforms).
    pub traffic: Traffic,
    /// DSM protocol statistics (zero on hardware platforms).
    pub dsm: NodeStats,
    /// Snooping-bus statistics, when the platform has a bus.
    pub bus: Option<BusStats>,
    /// Directory statistics, when the platform has one.
    pub directory: Option<DirectoryStats>,
    /// Summed processor-cache statistics.
    pub cache: CacheStats,
    /// Cycle at which [`tmk_parmacs::System::mark`] was called (0 if never).
    pub mark_cycles: Cycle,
    /// Traffic snapshot at the mark.
    pub mark_traffic: Traffic,
    /// Reliability-layer statistics (acks, retransmissions, suppressed
    /// duplicates); all-zero when the layer is off or on hardware
    /// platforms.
    pub reliability: tmk_core::RelStats,
    /// Injected network faults (all-zero on a perfect network).
    pub net_faults: tmk_net::FaultStats,
    /// Crash-fault and checkpoint/recovery statistics (all-zero unless the
    /// fault plan schedules node crashes or checkpointing is armed).
    pub recovery: RecoveryStats,
    /// Multi-tenant service metrics, present only for runs of the
    /// real-thread DSM service (`tmk_core::service`). Everything in it is
    /// deterministic (plan-derived virtual time and DSM checksums).
    pub service: Option<tmk_core::service::ServiceReport>,
}

impl RunReport {
    /// Execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.clock_hz as f64
    }

    /// Seconds elapsed after the measurement mark (whole run if unmarked).
    pub fn window_seconds(&self) -> f64 {
        (self.cycles - self.mark_cycles) as f64 / self.clock_hz as f64
    }

    /// Traffic accumulated after the measurement mark.
    pub fn window_traffic(&self) -> Traffic {
        let t = self.traffic;
        let m = self.mark_traffic;
        Traffic {
            miss_msgs: t.miss_msgs - m.miss_msgs,
            lock_msgs: t.lock_msgs - m.lock_msgs,
            barrier_msgs: t.barrier_msgs - m.barrier_msgs,
            update_msgs: t.update_msgs - m.update_msgs,
            miss_bytes: t.miss_bytes - m.miss_bytes,
            consistency_bytes: t.consistency_bytes - m.consistency_bytes,
            header_bytes: t.header_bytes - m.header_bytes,
            msgs_recorded: t.msgs_recorded - m.msgs_recorded,
            bytes_recorded: t.bytes_recorded - m.bytes_recorded,
        }
    }

    /// The full report as a JSON object, for `results/*.json` and
    /// `BENCH_results.json` records. Every run writes every block; `bus`,
    /// `directory` and `service` are `null` on platforms without one.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("procs", self.procs)
            .set("clock_hz", self.clock_hz)
            .set("host_ms", self.host_ms)
            .set("cycles", self.cycles)
            .set("mark_cycles", self.mark_cycles)
            .set("sim_seconds", self.seconds())
            .set("window_seconds", self.window_seconds())
            .set(
                "proc_cycles",
                Json::Arr(self.proc_cycles.iter().map(|&c| Json::UInt(c)).collect()),
            )
            .set("traffic", traffic_json(&self.traffic))
            .set("window_traffic", traffic_json(&self.window_traffic()))
            .set("dsm", node_stats_json(&self.dsm))
            .set(
                "reliability",
                Json::obj()
                    .set("data_msgs", self.reliability.data_msgs)
                    .set("retransmissions", self.reliability.retransmissions)
                    .set("timeouts", self.reliability.timeouts)
                    .set("dup_suppressed", self.reliability.dup_suppressed)
                    .set("acks", self.reliability.acks)
                    .set("spurious", self.reliability.spurious),
            )
            .set(
                "net_faults",
                Json::obj()
                    .set("decisions", self.net_faults.decisions)
                    .set("drops", self.net_faults.drops)
                    .set("dups", self.net_faults.dups)
                    .set("delays", self.net_faults.delays),
            )
            .set(
                "cache",
                Json::obj()
                    .set("hits", self.cache.hits)
                    .set("misses", self.cache.misses)
                    .set("upgrades", self.cache.upgrades)
                    .set("evictions", self.cache.evictions)
                    .set("dirty_evictions", self.cache.dirty_evictions),
            )
            .set(
                "recovery",
                Json::obj()
                    .set("checkpoints", self.recovery.checkpoints)
                    .set("messages_severed", self.recovery.messages_severed)
                    .set("suspected", self.recovery.suspected)
                    .set("rollbacks", self.recovery.rollbacks)
                    .set("tokens_regenerated", self.recovery.tokens_regenerated)
                    .set("pages_refetched", self.recovery.pages_refetched)
                    .set("recovery_cycles", self.recovery.recovery_cycles),
            )
            .set("service", self.service.as_ref().map(service_json))
            .set(
                "bus",
                self.bus.as_ref().map(|b| {
                    Json::obj()
                        .set("transactions", b.transactions)
                        .set("busy_cycles", b.busy_cycles)
                        .set("cache_supplies", b.cache_supplies)
                        .set("memory_supplies", b.memory_supplies)
                        .set("invalidations", b.invalidations)
                        .set("writebacks", b.writebacks)
                        .set("data_bytes", b.data_bytes)
                        .set("retries", b.retries)
                }),
            )
            .set(
                "directory",
                self.directory.as_ref().map(|d| {
                    Json::obj()
                        .set("local_misses", d.local_misses)
                        .set("remote_clean_misses", d.remote_clean_misses)
                        .set("remote_dirty_misses", d.remote_dirty_misses)
                        .set("upgrades", d.upgrades)
                        .set("invalidations", d.invalidations)
                        .set("remote_bytes", d.remote_bytes)
                        .set("retries", d.retries)
                }),
            )
    }
}

fn service_json(s: &tmk_core::service::ServiceReport) -> Json {
    Json::obj()
        .set("epochs", s.epochs)
        .set("makespan_us", s.makespan_us)
        .set("total_shed", s.total_shed)
        .set("lock_counter", s.lock_counter)
        .set("checkpoints", s.checkpoints)
        .set("crashes", s.crashes)
        .set("suspected", s.suspected)
        .set("rollbacks", s.rollbacks)
        .set(
            "tenants",
            Json::Arr(
                s.tenants
                    .iter()
                    .map(|t| {
                        Json::obj()
                            .set("tenant", t.tenant)
                            .set("offered", t.offered)
                            .set("completed", t.completed)
                            .set("shed", t.shed)
                            .set("throughput_rps", t.throughput_rps)
                            .set("p50_us", t.p50_us)
                            .set("p99_us", t.p99_us)
                            .set("checksum", t.checksum)
                    })
                    .collect(),
            ),
        )
}

fn traffic_json(t: &Traffic) -> Json {
    Json::obj()
        .set("total_msgs", t.total_msgs())
        .set("miss_msgs", t.miss_msgs)
        .set("lock_msgs", t.lock_msgs)
        .set("barrier_msgs", t.barrier_msgs)
        .set("update_msgs", t.update_msgs)
        .set("total_bytes", t.total_bytes())
        .set("miss_bytes", t.miss_bytes)
        .set("consistency_bytes", t.consistency_bytes)
        .set("header_bytes", t.header_bytes)
}

fn node_stats_json(s: &NodeStats) -> Json {
    Json::obj()
        .set("local_lock_acquires", s.local_lock_acquires)
        .set("remote_lock_acquires", s.remote_lock_acquires)
        .set("lock_releases", s.lock_releases)
        .set("barriers", s.barriers)
        .set("read_faults", s.read_faults)
        .set("write_faults", s.write_faults)
        .set("full_page_fetches", s.full_page_fetches)
        .set("diff_requests", s.diff_requests)
        .set("diffs_applied", s.diffs_applied)
        .set("diffs_created", s.diffs_created)
        .set("diff_bytes_created", s.diff_bytes_created)
        .set("twins_created", s.twins_created)
        .set("intervals_closed", s.intervals_closed)
        .set("notices_received", s.notices_received)
        .set(
            "gc",
            Json::obj()
                .set("collections", s.gc_collections)
                .set("intervals_retired", s.gc_intervals_retired)
                .set("diffs_retired", s.gc_diffs_retired)
                .set("diff_bytes_retired", s.gc_diff_bytes_retired)
                .set("pages_dropped", s.gc_pages_dropped)
                .set("pages_validated", s.gc_pages_validated)
                .set("live_intervals", s.live_intervals)
                .set("live_interval_bytes", s.live_interval_bytes)
                .set("cached_diff_bytes", s.cached_diff_bytes)
                .set("live_intervals_hw", s.live_intervals_hw)
                .set("live_interval_bytes_hw", s.live_interval_bytes_hw)
                .set("cached_diff_bytes_hw", s.cached_diff_bytes_hw),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_and_window() {
        let mut r = RunReport {
            procs: 2,
            clock_hz: 100,
            cycles: 1000,
            mark_cycles: 200,
            ..Default::default()
        };
        r.traffic.miss_msgs = 10;
        r.mark_traffic.miss_msgs = 4;
        assert_eq!(r.seconds(), 10.0);
        assert_eq!(r.window_seconds(), 8.0);
        assert_eq!(r.window_traffic().miss_msgs, 6);
    }

    #[test]
    fn report_json_fields() {
        let mut r = RunReport {
            procs: 4,
            clock_hz: 1000,
            cycles: 5000,
            ..Default::default()
        };
        r.traffic.miss_msgs = 3;
        r.traffic.header_bytes = 96;
        let j = r.to_json();
        assert_eq!(j.get("cycles").and_then(Json::as_u64), Some(5000));
        assert_eq!(j.get("sim_seconds").and_then(Json::as_f64), Some(5.0));
        let t = j.get("traffic").expect("traffic object");
        assert_eq!(t.get("total_msgs").and_then(Json::as_u64), Some(3));
        // Every block is written even when it is all zero or absent.
        let Some(Json::Obj(recovery)) = j.get("recovery") else {
            panic!("no recovery block");
        };
        assert_eq!(recovery.len(), 7);
        assert!(recovery.iter().all(|(_, v)| v.as_u64() == Some(0)));
        let gc = j
            .get("dsm")
            .and_then(|d| d.get("gc"))
            .expect("dsm.gc block");
        assert_eq!(gc.get("collections").and_then(Json::as_u64), Some(0));
        let spurious = j.get("reliability").and_then(|rel| rel.get("spurious"));
        assert_eq!(spurious.and_then(Json::as_u64), Some(0));
        for block in ["bus", "directory", "service"] {
            assert_eq!(j.get(block), Some(&Json::Null), "{block}");
        }
        assert_eq!(j.get("engine"), None);
        // The record round-trips through the hand-rolled renderer/parser.
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }
}
