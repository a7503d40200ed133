//! A multi-tenant DSM service front-end over the hardened runtime.
//!
//! N concurrent applications ("tenants") multiplex over one long-lived
//! real-thread cluster. An admission gate with bounded per-tenant queues
//! batches requests into epochs of [`Dsm::run_epochs`]; overload is shed at
//! the queue tail (graceful degradation — the shed count is always
//! reported, never silent). Clients are open-loop: a seeded generator
//! produces exponentially-spaced arrivals over a Zipf-skewed key space,
//! whether or not the service keeps up.
//!
//! # Determinism
//!
//! Everything the service reports is reproducible byte-for-byte:
//!
//! * The client plan (arrival times, keys, payloads) is a pure function of
//!   the seed.
//! * Admission, shedding and the virtual-time latency model are computed
//!   from the plan alone, before any thread is spawned.
//! * Each shared word has a single writing node (fixed key→node
//!   ownership), each tenant's requests apply in plan order, and the one
//!   cross-node counter is a commutative sum under a lock — so the DSM
//!   state after the final epoch does not depend on thread interleaving,
//!   channel faults (repaired by retransmission) or crash rollbacks
//!   (replayed from a barrier-consistent checkpoint).
//!
//! A tenant's [`checksum`](TenantReport::checksum) is therefore
//! byte-identical between a fault-free solo run ([`ServiceConfig::solo`])
//! and a faulty multi-tenant run, as long as nothing was shed.

use tmk_parmacs::{System, SystemExt};

use crate::runtime::{Dsm, EpochStep, RunOpts};
use crate::runtime_faults::splitmix;
use crate::{Config, NodeId};

/// FNV-1a offset basis / prime: the request-application fold and the
/// checksum fold both use the FNV constants.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Virtual admission-window length in microseconds (one window = one DSM
/// epoch).
const WINDOW_US: u64 = 1_000;

/// Zipf skew of the per-tenant key popularity.
const ZIPF_SKEW: f64 = 0.9;

/// Static configuration of a service run. All fields are integers so
/// driver-level workload specs can derive `Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Cluster size (DSM nodes the tenants multiplex over).
    pub nodes: usize,
    /// Number of concurrent tenant applications.
    pub tenants: usize,
    /// Shared `u64` slots per tenant (the tenant's key space).
    pub keys_per_tenant: usize,
    /// Open-loop generation horizon, in admission windows.
    pub windows: u64,
    /// Mean arrivals per tenant per window (exponential inter-arrivals).
    pub offered_per_window: u64,
    /// Bounded per-tenant admission queue; arrivals beyond this are shed
    /// at the tail.
    pub queue_cap: usize,
    /// Cluster-wide admissions per window (the batching gate's capacity).
    pub batch_cap: usize,
    /// Seed fixing the entire client plan.
    pub seed: u64,
    /// Run only this tenant (with the same per-tenant request stream):
    /// the fault-free solo baseline the multi-tenant results are compared
    /// against.
    pub solo: Option<usize>,
}

impl ServiceConfig {
    /// A small default service: 4 nodes, 3 tenants, moderate skew.
    pub fn new(nodes: usize, tenants: usize) -> Self {
        ServiceConfig {
            nodes,
            tenants,
            keys_per_tenant: 64,
            windows: 8,
            offered_per_window: 16,
            queue_cap: 256,
            batch_cap: 1024,
            seed: 0x5e71_ce00,
            solo: None,
        }
    }
}

/// One generated client request.
#[derive(Debug, Clone, Copy)]
struct Req {
    tenant: usize,
    key: usize,
    payload: u64,
    arrival_us: u64,
}

/// Per-tenant outcome of the precomputed admission schedule.
#[derive(Debug, Clone, Default)]
struct TenantSched {
    offered: u64,
    shed: u64,
    latencies_us: Vec<u64>,
}

/// The fully precomputed, interleaving-independent schedule of a run.
#[derive(Debug)]
struct Plan {
    /// Admitted requests per admission window, in admission order.
    batches: Vec<Vec<Req>>,
    sched: Vec<TenantSched>,
    /// Total windows including post-horizon drain windows.
    windows_total: u64,
}

/// A small deterministic stream (counter-mode splitmix64).
struct Rng {
    seed: u64,
    ctr: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng { seed, ctr: 0 }
    }

    fn next_u64(&mut self) -> u64 {
        self.ctr += 1;
        splitmix(self.seed ^ splitmix(self.ctr))
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Cumulative Zipf distribution over `keys` ranks with skew
/// [`ZIPF_SKEW`]; sampled by binary search on a uniform draw.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(keys: usize) -> Self {
        let mut cdf = Vec::with_capacity(keys);
        let mut acc = 0.0f64;
        for k in 0..keys {
            acc += 1.0 / ((k + 1) as f64).powf(ZIPF_SKEW);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Generates one tenant's open-loop request stream: exponential
/// inter-arrivals at the offered rate, Zipf-skewed keys, random payloads.
fn tenant_stream(cfg: &ServiceConfig, tenant: usize) -> Vec<Req> {
    let mut rng = Rng::new(splitmix(cfg.seed ^ splitmix(tenant as u64 ^ 0x7e4a_47)));
    let zipf = Zipf::new(cfg.keys_per_tenant);
    let horizon = cfg.windows * WINDOW_US;
    let mean_gap = WINDOW_US as f64 / cfg.offered_per_window.max(1) as f64;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -mean_gap * (1.0 - rng.next_f64()).ln();
        let at = t as u64;
        if at >= horizon {
            return out;
        }
        out.push(Req {
            tenant,
            key: zipf.sample(rng.next_f64()),
            payload: rng.next_u64(),
            arrival_us: at,
        });
    }
}

/// Computes the admission schedule: per-window ingest into bounded
/// per-tenant queues (tail-drop shed), round-robin admission up to the
/// batching gate's capacity, and the virtual-time latency of each admitted
/// request (it completes at the end of the epoch that executes it).
fn plan(cfg: &ServiceConfig) -> Plan {
    let active: Vec<usize> = match cfg.solo {
        Some(t) => vec![t],
        None => (0..cfg.tenants).collect(),
    };
    let streams: Vec<Vec<Req>> = active.iter().map(|&t| tenant_stream(cfg, t)).collect();
    let mut sched: Vec<TenantSched> = (0..cfg.tenants).map(|_| TenantSched::default()).collect();
    for (i, &t) in active.iter().enumerate() {
        sched[t].offered = streams[i].len() as u64;
    }
    let mut cursors = vec![0usize; active.len()];
    let mut queues: Vec<std::collections::VecDeque<Req>> = (0..active.len())
        .map(|_| std::collections::VecDeque::new())
        .collect();
    let mut batches = Vec::new();
    let mut w = 0u64;
    loop {
        // Ingest this window's arrivals (only within the generation
        // horizon; later windows just drain the backlog).
        if w < cfg.windows {
            for (i, stream) in streams.iter().enumerate() {
                let until = (w + 1) * WINDOW_US;
                while cursors[i] < stream.len() && stream[cursors[i]].arrival_us < until {
                    let req = stream[cursors[i]];
                    cursors[i] += 1;
                    if queues[i].len() >= cfg.queue_cap {
                        sched[req.tenant].shed += 1; // tail-drop: never silent
                    } else {
                        queues[i].push_back(req);
                    }
                }
            }
        }
        // Round-robin admission, rotating the head tenant each window so
        // no tenant is structurally favored.
        let mut batch = Vec::new();
        if !active.is_empty() {
            let mut empty_streak = 0;
            let mut i = (w as usize) % active.len();
            while batch.len() < cfg.batch_cap && empty_streak < active.len() {
                match queues[i].pop_front() {
                    Some(req) => {
                        empty_streak = 0;
                        // Admitted in window w, executed by epoch w,
                        // completed at the epoch boundary.
                        let done = (w + 1) * WINDOW_US;
                        sched[req.tenant]
                            .latencies_us
                            .push(done.saturating_sub(req.arrival_us));
                        batch.push(req);
                    }
                    None => empty_streak += 1,
                }
                i = (i + 1) % active.len();
            }
        }
        batches.push(batch);
        w += 1;
        let drained = queues.iter().all(|q| q.is_empty());
        if w >= cfg.windows && drained {
            break;
        }
        assert!(
            w < cfg.windows + 1_000_000,
            "admission drain does not terminate (batch_cap == 0?)"
        );
    }
    Plan {
        batches,
        sched,
        windows_total: w,
    }
}

/// Shared-memory layout: page-aligned per-tenant regions plus one counter
/// page. Key `k` of tenant `t` is owned (written) only by node
/// `(t + k) % nodes`, so every word has a single writer.
struct Layout {
    page_size: usize,
    region_pages: usize,
    tenants: usize,
}

impl Layout {
    fn new(cfg: &ServiceConfig) -> Self {
        let page_size = 256;
        let region_pages = (cfg.keys_per_tenant * 8).div_ceil(page_size);
        Layout {
            page_size,
            region_pages,
            tenants: cfg.tenants,
        }
    }

    fn key_addr(&self, tenant: usize, key: usize) -> usize {
        tenant * self.region_pages * self.page_size + key * 8
    }

    fn counter_addr(&self) -> usize {
        self.tenants * self.region_pages * self.page_size
    }

    fn segment_pages(&self) -> usize {
        self.tenants * self.region_pages + 1
    }
}

fn owner(cfg: &ServiceConfig, tenant: usize, key: usize) -> NodeId {
    (tenant + key) % cfg.nodes
}

/// Per-tenant service metrics. Everything here is deterministic: metrics
/// derive from the precomputed plan and the DSM checksum, never from host
/// timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: usize,
    /// Requests the open-loop generator offered.
    pub offered: u64,
    /// Requests admitted (and therefore completed).
    pub completed: u64,
    /// Requests shed at the bounded queue's tail.
    pub shed: u64,
    /// Completed requests per virtual second.
    pub throughput_rps: u64,
    /// Median admission-to-completion latency, virtual microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, virtual microseconds.
    pub p99_us: u64,
    /// FNV fold of the tenant's final shared-memory region: the
    /// byte-identity carrier compared against the solo baseline.
    pub checksum: u64,
}

/// Deterministic summary of one service run. Of the runtime's recovery
/// counters it keeps the timing-independent ones: severed-message, token and
/// page counts depend on what was in flight at crash time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// Per-tenant metrics (only the solo tenant when [`ServiceConfig::solo`]
    /// is set).
    pub tenants: Vec<TenantReport>,
    /// DSM epochs executed (admission windows + final fold epoch).
    pub epochs: u64,
    /// Virtual makespan in microseconds.
    pub makespan_us: u64,
    /// Total requests shed across tenants.
    pub total_shed: u64,
    /// Final value of the lock-protected global counter (= total requests
    /// applied; a commutative sum, so deterministic).
    pub lock_counter: u64,
    /// Epoch checkpoints taken.
    pub checkpoints: u64,
    /// Scheduled crashes that fired.
    pub crashes: u64,
    /// Nodes suspected dead.
    pub suspected: u64,
    /// Cluster rollbacks (each crash recovers with exactly one).
    pub rollbacks: u64,
}

/// Runs the service: precomputes the admission schedule, executes the
/// admitted batches as DSM epochs on a real-thread cluster (crash recovery
/// armed), and folds per-tenant checksums on node 0 in a final epoch.
/// `opts` carries the channel fault plan and the recovery-event sink.
pub fn run_service(cfg: &ServiceConfig, opts: RunOpts) -> ServiceReport {
    assert!(cfg.nodes > 0 && cfg.tenants > 0 && cfg.keys_per_tenant > 0);
    assert!(cfg.batch_cap > 0, "a zero-capacity gate admits nothing");
    if let Some(t) = cfg.solo {
        assert!(t < cfg.tenants, "solo tenant out of range");
    }
    let plan = plan(cfg);
    let layout = Layout::new(cfg);
    let dsm_cfg = Config::new(cfg.nodes)
        .page_size(layout.page_size)
        .segment_pages(layout.segment_pages());
    let fold_epoch = plan.windows_total;
    let plan_ref = &plan;
    let layout_ref = &layout;
    let out = Dsm::run_epochs(
        dsm_cfg,
        opts,
        |_, _| (),
        move |node, epoch, ()| {
            if epoch < fold_epoch {
                // Apply this epoch's admitted batch: each node applies the
                // requests whose key it owns, in admission order.
                let mut applied = 0u64;
                for req in &plan_ref.batches[epoch as usize] {
                    if owner(cfg, req.tenant, req.key) != node.pid() {
                        continue;
                    }
                    let addr = layout_ref.key_addr(req.tenant, req.key);
                    let v = node.read::<u64>(addr);
                    node.write(addr, v.wrapping_mul(FNV_PRIME) ^ req.payload);
                    applied += 1;
                }
                if applied > 0 {
                    // The one cross-node word: a commutative sum under a
                    // lock (exercises the token path under faults).
                    node.lock(0);
                    let c = node.read::<u64>(layout_ref.counter_addr());
                    node.write(layout_ref.counter_addr(), c + applied);
                    node.unlock(0);
                }
                return EpochStep::Continue;
            }
            // Final epoch: node 0 folds every tenant region into a
            // checksum (all prior epochs ended at a barrier, so every
            // write is visible here).
            if node.pid() != 0 {
                return EpochStep::Done((Vec::new(), 0));
            }
            let active: Vec<usize> = match cfg.solo {
                Some(t) => vec![t],
                None => (0..cfg.tenants).collect(),
            };
            let sums = active
                .iter()
                .map(|&t| {
                    let mut h = FNV_OFFSET;
                    for k in 0..cfg.keys_per_tenant {
                        let v = node.read::<u64>(layout_ref.key_addr(t, k));
                        h = (h ^ v).wrapping_mul(FNV_PRIME);
                    }
                    h
                })
                .collect();
            node.lock(0);
            let counter = node.read::<u64>(layout_ref.counter_addr());
            node.unlock(0);
            EpochStep::Done((sums, counter))
        },
    );
    let (checksums, lock_counter) = out.results.into_iter().next().expect("node 0 result");
    let makespan_us = (plan.windows_total + 1) * WINDOW_US;
    let active: Vec<usize> = match cfg.solo {
        Some(t) => vec![t],
        None => (0..cfg.tenants).collect(),
    };
    let tenants = active
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let s = &plan.sched[t];
            let mut lat = s.latencies_us.clone();
            lat.sort_unstable();
            let pct = |p: u64| -> u64 {
                if lat.is_empty() {
                    0
                } else {
                    lat[((lat.len() - 1) as u64 * p / 100) as usize]
                }
            };
            let completed = lat.len() as u64;
            TenantReport {
                tenant: t,
                offered: s.offered,
                completed,
                shed: s.shed,
                throughput_rps: completed * 1_000_000 / makespan_us.max(1),
                p50_us: pct(50),
                p99_us: pct(99),
                checksum: checksums[i],
            }
        })
        .collect::<Vec<_>>();
    let total_shed = tenants.iter().map(|t| t.shed).sum();
    ServiceReport {
        tenants,
        epochs: plan.windows_total + 1,
        makespan_us,
        total_shed,
        lock_counter,
        checkpoints: out.recovery.checkpoints,
        crashes: out.recovery.crashes,
        suspected: out.recovery.suspected,
        rollbacks: out.recovery.rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ChannelFaults;

    fn small() -> ServiceConfig {
        ServiceConfig {
            nodes: 2,
            tenants: 2,
            keys_per_tenant: 16,
            windows: 3,
            offered_per_window: 6,
            queue_cap: 64,
            batch_cap: 64,
            seed: 11,
            solo: None,
        }
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let cfg = small();
        let a = run_service(&cfg, RunOpts::default());
        let b = run_service(&cfg, RunOpts::default());
        assert_eq!(a, b);
        assert!(a.lock_counter > 0, "requests were applied");
    }

    #[test]
    fn solo_baseline_matches_multi_tenant_checksums() {
        let cfg = small();
        let multi = run_service(&cfg, RunOpts::default());
        assert_eq!(multi.total_shed, 0, "ample capacity must not shed");
        for t in 0..cfg.tenants {
            let solo = run_service(
                &ServiceConfig {
                    solo: Some(t),
                    ..cfg.clone()
                },
                RunOpts::default(),
            );
            assert_eq!(solo.tenants.len(), 1);
            assert_eq!(
                solo.tenants[0].checksum, multi.tenants[t].checksum,
                "tenant {t} diverges from its solo baseline"
            );
        }
    }

    #[test]
    fn faulty_run_matches_fault_free_results() {
        let cfg = small();
        let clean = run_service(&cfg, RunOpts::default());
        let faulty = run_service(
            &cfg,
            RunOpts {
                faults: ChannelFaults::seeded(77)
                    .drop_rate(0.05)
                    .delay_rate(0.05, 300)
                    .crash(1, 1, 1),
                ..RunOpts::default()
            },
        );
        assert_eq!(faulty.crashes, 1);
        assert_eq!(faulty.rollbacks, 1, "one crash, one rollback");
        for (a, b) in clean.tenants.iter().zip(&faulty.tenants) {
            assert_eq!(a.checksum, b.checksum, "tenant {} corrupted", a.tenant);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.shed, b.shed);
        }
        assert_eq!(clean.lock_counter, faulty.lock_counter);
    }

    #[test]
    fn overload_sheds_deterministically_and_loudly() {
        let cfg = ServiceConfig {
            offered_per_window: 40,
            queue_cap: 4,
            batch_cap: 3,
            ..small()
        };
        let a = run_service(&cfg, RunOpts::default());
        assert!(a.total_shed > 0, "overload must shed");
        let b = run_service(&cfg, RunOpts::default());
        assert_eq!(a, b, "shedding must be deterministic");
        // Degradation is graceful: admitted work still completes exactly.
        let applied: u64 = a.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(a.lock_counter, applied);
    }
}
