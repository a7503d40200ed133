//! The metric catalogue: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` restates it for the driver; a unit test and
//! `--smoke` hold the two together.

use tmk_machines::Json;

/// `(name, unit, bound)`: what a `suite --jobs 1` user pays, measured with
/// tracing off. All are lower-is-better; `bound` is the share of the
/// parent's median a change may cost before it is a regression. The two
/// timing bounds are the widest the driver allows because this host's own
/// A/A spread needs them (README, "Noise"): ten consecutive invocations of
/// identical code spread by up to 19 % of their median.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("host_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
];

/// Per-run-list figures of the traced process, `(name, unit)`.
pub const RUN: [(&str, &str); 14] = [
    ("run.engine_s", "s"),
    ("run.setup_s", "s"),
    ("run.cold_pass_s", "s"),
    ("run.cpu_over_wall", "ratio"),
    ("run.mcycles_per_s", "Mcycle/s"),
    ("run.ns_per_sim_cycle", "ns"),
    ("run.ns_per_msg", "ns"),
    ("run.ns_per_notice", "ns"),
    ("run.ns_per_mem_access", "ns"),
    ("run.allocs_m", "M"),
    ("run.alloc_gb", "GB"),
    ("run.span_gap_frac", "fraction"),
    ("trace.overhead", "fraction"),
    ("run.results_crosschecked", "count"),
];

/// Counts read from `RunReport`, summed over the run list. All repeat
/// exactly; a host-only change must leave every one identical.
pub const COUNTS: [&str; 17] = [
    "sim.cycles",
    "net.msgs",
    "net.bytes",
    "core.diffs_created",
    "core.diffs_applied",
    "core.diff_bytes",
    "core.twins",
    "core.intervals_closed",
    "core.notices_received",
    "core.remote_lock_acquires",
    "core.barriers",
    "core.retransmissions",
    "core.rollbacks",
    "core.gc_collections",
    "mem.cache_accesses",
    "mem.bus_transactions",
    "mem.directory_requests",
];

/// Shares of the simulated cycle ledger, in `tmk_trace::Category::ALL`
/// order, over all processors of all runs of the list.
pub const LEDGER: [&str; tmk_trace::NCAT] = [
    "ledger.compute",
    "ledger.mem_stall",
    "ledger.protocol",
    "ledger.sync_idle",
    "ledger.network",
    "ledger.stolen",
    "ledger.recovery",
];

/// Isolated layer probes, `(name, unit)`, in the order they run.
pub const PROBES: [(&str, &str); 30] = [
    ("core.diff_create_sparse_ns", "ns"),
    ("core.diff_create_dense_ns", "ns"),
    ("core.diff_apply_dense_ns", "ns"),
    ("core.vt_merge_8_ns", "ns"),
    ("core.vt_merge_128_ns", "ns"),
    ("core.vt_le_128_ns", "ns"),
    ("core.lock_pingpong_ns", "ns"),
    ("core.barrier_8_us", "us"),
    ("core.barrier_64_us", "us"),
    ("core.refetch_diff_ns", "ns"),
    ("mem.cache_probe_ns", "ns"),
    ("mem.cache_fill_ns", "ns"),
    ("mem.snoop_private_ns", "ns"),
    ("mem.snoop_pingpong_ns", "ns"),
    ("mem.dir_remote_read_ns", "ns"),
    ("mem.dir_handoff_ns", "ns"),
    ("net.transfer_ns", "ns"),
    ("net.lossy_fate_ns", "ns"),
    ("sim.coop_sync_ns", "ns"),
    ("sim.coop_block_wake_ns", "ns"),
    ("sim.spawn_256_us", "us"),
    ("trace.charge_ns", "ns"),
    ("trace.emit_ns", "ns"),
    ("parmacs.slice_get_ns", "ns"),
    ("machines.dsm_new_as128_ms", "ms"),
    ("machines.hs_new_16x8_ms", "ms"),
    ("machines.hw_new_ah64_ms", "ms"),
    ("machines.json_render_mb_s", "MB/s"),
    ("machines.json_parse_mb_s", "MB/s"),
    ("bench.quick_suite_s", "s"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The result line of the driver contract: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for x in metrics {
        m = m.set(
            &x.name,
            Json::obj()
                .set("value", x.value)
                .set("unit", x.unit.as_str()),
        );
    }
    Json::obj()
        .set("correct", failed == 0)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", m)
        .render()
}
