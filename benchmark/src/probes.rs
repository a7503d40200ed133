//! Isolated layer probes: each layer's primitive operations timed alone,
//! so an application-level number can be explained in their terms (the
//! SPARC T3-4 characterization's method, PAPERS.md). They fold in what
//! `crates/bench/benches/{protocol,memsys}.rs` measure, and add the
//! engine, trace, PARMACS, machine-construction, JSON and suite layers.
//!
//! A probe's value is the minimum cost per operation over several batches,
//! each long enough for the clock's resolution not to matter.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tmk_apps::sor::Sor;
use tmk_bench::driver::{self, run_suite};
use tmk_core::{Cluster, Config, Diff, VTime};
use tmk_machines::{
    DsmMachine, DsmParams, DsmTuning, HsMachine, HsParams, HwMachine, HwParams, Json,
};
use tmk_mem::{
    BusParams, CacheParams, DirectCache, Directory, DirectoryParams, LineState, SnoopBus,
};
use tmk_net::{FaultPlan, LossyNet, NetParams, PointToPointNet};
use tmk_parmacs::{SequentialSystem, SharedSlice, Workload};
use tmk_sim::{CoopEngine, EngineKind};
use tmk_trace::{Category, Event, EventKind, TraceBuf, Track};

use crate::metrics::{Metric, PROBES};

/// How long to measure each probe.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Batches whose minimum is reported.
    pub batches: usize,
    /// Least duration of a counted batch.
    pub batch: Duration,
}

impl Effort {
    /// The measured setting: at least five batches of at least 20 ms.
    pub const FULL: Effort = Effort {
        batches: 5,
        batch: Duration::from_millis(20),
    };
    /// `--smoke`: one short batch, enough to execute every probe.
    pub const SMOKE: Effort = Effort {
        batches: 1,
        batch: Duration::from_millis(1),
    };
}

/// Counted batches of one probe stop early, after at least two, once they
/// have used this long: a probe whose single call takes most of a second
/// (building AS-128, parsing a committed record) is steady after two.
const PROBE_BUDGET: Duration = Duration::from_secs(1);

/// Minimum nanoseconds per call of `op` over `effort.batches` batches.
/// The iteration count grows until a batch lasts `effort.batch`; shorter
/// batches calibrate and are not counted.
fn ns_per_call(effort: Effort, mut op: impl FnMut()) -> f64 {
    let mut iters: u64 = 1;
    let mut best = f64::INFINITY;
    let mut counted = 0;
    let mut spent = Duration::ZERO;
    while counted < effort.batches && (counted < 2 || spent < PROBE_BUDGET) {
        let started = Instant::now();
        for _ in 0..iters {
            op();
        }
        let took = started.elapsed();
        if took < effort.batch {
            let scale = effort.batch.as_secs_f64() / took.as_secs_f64().max(1e-9);
            iters = (iters as f64 * scale.clamp(2.0, 16.0)).ceil() as u64;
            continue;
        }
        best = best.min(took.as_nanos() as f64 / iters as f64);
        counted += 1;
        spent += took;
    }
    best
}

fn page_pair(change_every: usize) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let mut data = twin.clone();
    for w in (0..4096 / 4).step_by(change_every) {
        data[w * 4] ^= 0xff;
    }
    (twin, data)
}

fn vt_pair(n: usize) -> (VTime, VTime) {
    let mut a = VTime::zero(n);
    let mut b = VTime::zero(n);
    for i in 0..n {
        a.set(i, (i * 3) as u32);
        b.set(i, (i * 2 + 1) as u32);
    }
    (a, b)
}

/// Block/wake ping-pong state: the processor parked waiting for its peer.
#[derive(Default)]
struct Parked(Option<usize>);

/// Every isolated probe, in [`PROBES`] order. `record` is the text of a
/// committed `results/*.json` record (`fig01_08.json` when measuring), the
/// document the JSON probes render and parse.
pub fn run_all(effort: Effort, record: &str) -> Vec<Metric> {
    let per_call = |op: &mut dyn FnMut()| ns_per_call(effort, op);
    let mut values: Vec<f64> = Vec::with_capacity(PROBES.len());

    // --- tmk-core: diffs, vector times, the synchronous cluster router.
    for every in [64, 1] {
        let (twin, data) = page_pair(every);
        values.push(per_call(&mut || {
            black_box(Diff::compute(black_box(&twin), black_box(&data)));
        }));
    }
    {
        let (twin, data) = page_pair(1);
        let diff = Diff::compute(&twin, &data);
        let mut page = twin.clone();
        values.push(per_call(&mut || diff.apply(black_box(&mut page))));
    }
    for n in [8, 128] {
        let (mut a, b) = vt_pair(n);
        values.push(per_call(&mut || a.merge(black_box(&b))));
    }
    {
        let (a, b) = vt_pair(128);
        values.push(per_call(&mut || {
            black_box(black_box(&a).le(black_box(&b)));
        }));
    }
    {
        // One remote hand-off each way per call; reported per hand-off.
        let mut cl = Cluster::new(Config::new(2).segment_pages(4));
        values.push(
            per_call(&mut || {
                cl.lock(1, 0);
                cl.unlock(1, 0);
                cl.lock(0, 0);
                cl.unlock(0, 0);
            }) / 2.0,
        );
    }
    for nodes in [8, 64] {
        let mut cl = Cluster::new(Config::new(nodes).segment_pages(4));
        values.push(per_call(&mut || cl.barrier(0)) / 1e3);
    }
    {
        // Write under a lock on node 0, acquire and read on node 1: one
        // interval close, one diff created, fetched and applied per round.
        // A fresh cluster per call keeps the interval store from growing
        // with the batch count.
        const ROUNDS: u64 = 256;
        values.push(
            per_call(&mut || {
                let mut cl = Cluster::new(Config::new(2).segment_pages(4));
                cl.master_write(0, &[7u8; 64]);
                let mut buf = [0u8; 8];
                cl.read(1, 0, &mut buf);
                for v in 0..ROUNDS {
                    cl.lock(0, 1);
                    cl.write_u64(0, 0, v);
                    cl.unlock(0, 1);
                    cl.lock(1, 1);
                    cl.read(1, 0, &mut buf);
                    cl.unlock(1, 1);
                }
            }) / ROUNDS as f64,
        );
    }

    // --- tmk-mem: per access of a 1024-access stream.
    {
        let mut cache = DirectCache::new(CacheParams::new(64 << 10, 32));
        for line in 0..1024u64 {
            cache.fill(line, LineState::Shared);
        }
        values.push(
            per_call(&mut || {
                for line in 0..1024u64 {
                    black_box(cache.probe(line, false));
                }
            }) / 1024.0,
        );
        let mut base = 0u64;
        values.push(
            per_call(&mut || {
                base += 4096;
                for line in base..base + 1024 {
                    black_box(cache.fill(line, LineState::Modified));
                }
            }) / 1024.0,
        );
    }
    {
        let cache = CacheParams::new(64 << 10, 32);
        let mut bus = SnoopBus::new(8, cache, BusParams::sgi_4d480());
        let mut t = 0;
        values.push(
            per_call(&mut || {
                for i in 0..1024u64 {
                    let proc = (i % 8) as usize;
                    t = bus.access(proc, i + proc as u64 * 1_000_000, false, t).done;
                }
            }) / 1024.0,
        );
        let mut bus = SnoopBus::new(2, cache, BusParams::sgi_4d480());
        let mut t = 0;
        values.push(
            per_call(&mut || {
                for _ in 0..512 {
                    t = bus.access(0, 42, true, t).done;
                    t = bus.access(1, 42, true, t).done;
                }
            }) / 1024.0,
        );
    }
    {
        let cache = CacheParams::new(64 << 10, 64);
        let mut dir = Directory::new(16, cache, DirectoryParams::isca94());
        let mut t = 0;
        values.push(
            per_call(&mut || {
                for i in 0..1024u64 {
                    t = dir.access((i % 16) as usize, i, false, t).done;
                }
            }) / 1024.0,
        );
        let mut dir = Directory::new(4, cache, DirectoryParams::isca94());
        let mut t = 0;
        values.push(
            per_call(&mut || {
                for i in 0..512u64 {
                    t = dir.access(0, i % 32, true, t).done;
                    t = dir.access(1, i % 32, false, t).done;
                }
            }) / 1024.0,
        );
    }

    // --- tmk-net: one page-sized transfer; one fate decision of a plan
    // with all three fault kinds armed.
    {
        let mut net = PointToPointNet::new(8, NetParams::atm_100mhz());
        let (mut t, mut i) = (0, 0usize);
        values.push(per_call(&mut || {
            i += 1;
            t = net.transfer(i % 8, (i + 3) % 8, 4096 + 32, t);
        }));
        let plan = FaultPlan::drop_rate(1, 1e-2)
            .with_dup(1e-3)
            .with_delay(1e-2, 20_000);
        let mut lossy = LossyNet::faulty(PointToPointNet::new(8, NetParams::atm_100mhz()), plan);
        let mut i = 0usize;
        values.push(per_call(&mut || {
            i += 1;
            black_box(lossy.fate(i % 8, (i + 3) % 8, 1));
        }));
    }

    // --- tmk-sim: the cooperative engine on a unit machine.
    {
        const TURNS: u64 = 2000;
        values.push(
            per_call(&mut || {
                CoopEngine::new((), 8).run(|ctx| {
                    for _ in 0..TURNS {
                        ctx.advance(1);
                        ctx.sync(|op| op.advance(1));
                    }
                });
            }) / (8 * TURNS) as f64,
        );
        // Two processors alternate: wake the parked peer, then park. The
        // closing sync releases whoever parked last. Reported per
        // block-and-wake.
        values.push(
            per_call(&mut || {
                let wake_peer = |op: &mut tmk_sim::Op<'_, Parked>| {
                    let now = op.now();
                    if let Some(peer) = op.machine().0.take() {
                        op.wake_at(peer, now + 1);
                    }
                };
                CoopEngine::new(Parked::default(), 2).run(|ctx| {
                    for _ in 0..TURNS {
                        ctx.sync(|op| {
                            wake_peer(op);
                            op.machine().0 = Some(op.id());
                            op.block();
                        });
                    }
                    ctx.sync(|op| wake_peer(op));
                });
            }) / (2 * TURNS) as f64,
        );
        values.push(per_call(&mut || drop(CoopEngine::new((), 256).run(|_| {}))) / 1e3);
    }

    // --- tmk-trace: a ledger charge; an event into a fresh ring (rings
    // keep the first `cap` events, so a full ring would time the drop path).
    {
        let buf = TraceBuf::new(8, 0);
        let mut i = 0usize;
        values.push(per_call(&mut || {
            i += 1;
            buf.charge(i % 8, Category::Compute, 1);
        }));
        values.push(
            per_call(&mut || {
                let buf = TraceBuf::new(8, 1024);
                for i in 0..1024u64 {
                    buf.emit(Event {
                        track: Track::Cpu((i % 8) as u32),
                        at: i,
                        dur: 1,
                        kind: EventKind::Span(Category::Compute),
                    });
                }
            }) / 1024.0,
        );
    }

    // --- tmk-parmacs: a typed shared read through the `System` trait.
    {
        let sys = SequentialSystem::new(8192);
        let slice: SharedSlice<f64> = SharedSlice::new(0, 1024);
        values.push(
            per_call(&mut || {
                for i in 0..1024 {
                    black_box(slice.get(&sys, i));
                }
            }) / 1024.0,
        );
    }

    // --- tmk-machines: building (and dropping) the large machines over
    // SOR-small's segment; rendering and parsing a committed record.
    {
        let segment = Sor::small().segment_bytes();
        let tuning = DsmTuning::default();
        values.push(
            per_call(&mut || {
                drop(black_box(DsmMachine::new(
                    DsmParams::as_sim(128),
                    segment,
                    &tuning,
                )));
            }) / 1e6,
        );
        values.push(
            per_call(&mut || {
                drop(black_box(HsMachine::new(
                    HsParams::hs_sim(16, 8),
                    segment,
                    &tuning,
                )));
            }) / 1e6,
        );
        values.push(
            per_call(&mut || drop(black_box(HwMachine::new(HwParams::ah(64), segment)))) / 1e6,
        );
        let doc = Json::parse(record).expect("a committed record is valid JSON");
        let mb = record.len() as f64 / 1e6;
        values.push(mb / (per_call(&mut || drop(black_box(doc.render()))) / 1e9));
        values.push(mb / (per_call(&mut || drop(black_box(Json::parse(record)))) / 1e9));
    }

    // --- tmk-bench: the whole quick tier as `suite --quick --jobs 1
    // --json` runs it, once.
    {
        let started = Instant::now();
        let suite = run_suite(&driver::Options {
            tier: driver::Tier::Quick,
            jobs: 1,
            engine: EngineKind::Coop,
            ..Default::default()
        })
        .expect("the default experiment set is valid");
        assert!(
            suite.ok(),
            "quick tier failed: {:?}",
            suite.failed_sections()
        );
        black_box(suite.bench_json().render());
        values.push(started.elapsed().as_secs_f64());
    }

    assert_eq!(values.len(), PROBES.len(), "one value per catalogued probe");
    PROBES
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_counts_only_long_enough_batches() {
        let effort = Effort {
            batches: 3,
            batch: Duration::from_micros(200),
        };
        let mut calls = 0u64;
        let ns = ns_per_call(effort, || {
            calls += 1;
            black_box((0..50).fold(0u64, |a, b| a.wrapping_add(black_box(b))));
        });
        assert!(ns > 0.0 && ns.is_finite());
        assert!(calls > 3, "the batch grew past one call");
    }

    #[test]
    fn every_probe_yields_a_finite_positive_value() {
        let doc = Json::obj()
            .set("runs", vec![Json::obj().set("key", "sor-tiny|dec")])
            .render_pretty(1);
        let got = run_all(Effort::SMOKE, &doc);
        assert_eq!(got.len(), PROBES.len());
        for (m, (name, unit)) in got.iter().zip(PROBES) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (name, unit));
            assert!(m.value.is_finite() && m.value > 0.0, "{name} = {}", m.value);
        }
    }
}
