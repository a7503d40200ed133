//! Property-based tests for the TreadMarks protocol invariants.

use proptest::prelude::*;

use tmk_core::runtime::ChannelFaults;
use tmk_core::{
    Action, ChaosRouter, Cluster, Config, Diff, Envelope, FaultStart, Handled, IntervalMsg,
    IvyNode, Msg, Node, RetransmitPolicy, StartAcquire, VTime, WORD,
};

// ---------------------------------------------------------------------
// Diffs
// ---------------------------------------------------------------------

fn page_strategy(words: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), words * WORD)
}

proptest! {
    /// Applying `diff(twin → data)` to a copy of the twin reproduces data.
    #[test]
    fn diff_roundtrip(twin in page_strategy(32), data in page_strategy(32)) {
        let diff = Diff::compute(&twin, &data);
        let mut page = twin.clone();
        diff.apply(&mut page);
        prop_assert_eq!(page, data);
    }

    /// A diff never touches words that did not change: applying it to an
    /// unrelated base only overwrites changed words.
    #[test]
    fn diff_touches_only_changed_words(
        twin in page_strategy(16),
        data in page_strategy(16),
        other in page_strategy(16),
    ) {
        let diff = Diff::compute(&twin, &data);
        let mut page = other.clone();
        diff.apply(&mut page);
        for w in 0..16 {
            let r = w * WORD..(w + 1) * WORD;
            if twin[r.clone()] == data[r.clone()] {
                prop_assert_eq!(&page[r.clone()], &other[r.clone()], "word {} clobbered", w);
            } else {
                prop_assert_eq!(&page[r.clone()], &data[r.clone()], "word {} not applied", w);
            }
        }
    }

    /// Diff sizes: empty diff for identical pages; size bounded by page
    /// plus run headers.
    #[test]
    fn diff_size_bounds(twin in page_strategy(32), data in page_strategy(32)) {
        let diff = Diff::compute(&twin, &data);
        prop_assert!(diff.data_bytes() <= 32 * WORD);
        prop_assert!(diff.wire_bytes() >= 4);
        if twin == data {
            prop_assert!(diff.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Vector timestamps
// ---------------------------------------------------------------------

fn vt_strategy(n: usize) -> impl Strategy<Value = VTime> {
    proptest::collection::vec(0u32..20, n).prop_map(move |v| {
        let mut vt = VTime::zero(n);
        for (i, s) in v.into_iter().enumerate() {
            vt.set(i, s);
        }
        vt
    })
}

proptest! {
    /// Merge is the lattice join: commutative, idempotent, and an upper
    /// bound of both operands.
    #[test]
    fn vtime_merge_is_join(a in vt_strategy(6), b in vt_strategy(6)) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(a.le(&ab));
        prop_assert!(b.le(&ab));
        let mut again = ab.clone();
        again.merge(&a);
        prop_assert_eq!(&again, &ab);
    }

    /// Partial-order sanity: `le` is reflexive and antisymmetric, and
    /// `concurrent` matches its definition.
    #[test]
    fn vtime_partial_order_laws(a in vt_strategy(6), b in vt_strategy(6)) {
        prop_assert!(a.le(&a));
        if a.le(&b) && b.le(&a) {
            prop_assert_eq!(&a, &b);
        }
        prop_assert_eq!(a.concurrent(&b), !a.le(&b) && !b.le(&a));
    }
}

// ---------------------------------------------------------------------
// Whole-protocol coherence oracle
// ---------------------------------------------------------------------

/// Random DSM programs against a sequential oracle: slots written under a
/// global lock (or privately by their owner with barrier publication) must
/// read back exactly like a plain array.
#[derive(Debug, Clone)]
enum Op {
    /// Node locks, increments slot, unlocks.
    LockedAdd { node: usize, slot: usize, delta: u8 },
    /// Every node arrives at a barrier.
    Barrier,
    /// Node writes its own slot region (owner-private data).
    OwnWrite { node: usize, value: u8 },
    /// A lock episode immediately followed by a barrier: the same interval
    /// range then travels via a lock grant *and* a barrier departure, so
    /// interval delivery over both paths must stay idempotent.
    LockedSync { node: usize, slot: usize, delta: u8 },
}

fn op_strategy(nodes: usize, slots: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, 0..slots, any::<u8>())
            .prop_map(|(node, slot, delta)| Op::LockedAdd { node, slot, delta }),
        Just(Op::Barrier),
        (0..nodes, any::<u8>()).prop_map(|(node, value)| Op::OwnWrite { node, value }),
        (0..nodes, 0..slots, any::<u8>())
            .prop_map(|(node, slot, delta)| Op::LockedSync { node, slot, delta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cluster_matches_sequential_oracle(
        ops in proptest::collection::vec(op_strategy(4, 8), 1..60)
    ) {
        let nodes = 4;
        let slots = 8usize;
        let cfg = Config::new(nodes).page_size(256).segment_pages(8);
        let mut c = Cluster::new(cfg);
        let base = c.alloc(slots * 8, 8);
        let own = c.alloc(nodes * 8, 8);

        let mut oracle = vec![0u64; slots];
        let mut own_oracle = vec![0u64; nodes];

        for op in &ops {
            match *op {
                Op::LockedAdd { node, slot, delta } => {
                    c.lock(node, 0);
                    let v = c.read_u64(node, base + slot * 8);
                    prop_assert_eq!(v, oracle[slot], "locked read saw stale data");
                    c.write_u64(node, base + slot * 8, v + u64::from(delta));
                    c.unlock(node, 0);
                    oracle[slot] += u64::from(delta);
                }
                Op::Barrier => c.barrier(0),
                Op::OwnWrite { node, value } => {
                    c.write_u64(node, own + node * 8, u64::from(value));
                    own_oracle[node] = u64::from(value);
                }
                Op::LockedSync { node, slot, delta } => {
                    c.lock(node, 0);
                    let v = c.read_u64(node, base + slot * 8);
                    prop_assert_eq!(v, oracle[slot], "locked read saw stale data");
                    c.write_u64(node, base + slot * 8, v + u64::from(delta));
                    c.unlock(node, 0);
                    oracle[slot] += u64::from(delta);
                    c.barrier(0);
                }
            }
        }
        // Publish everything and check the final image on every node.
        c.barrier(1);
        for node in 0..nodes {
            for (slot, &want) in oracle.iter().enumerate() {
                prop_assert_eq!(c.read_u64(node, base + slot * 8), want);
            }
            for (q, &want) in own_oracle.iter().enumerate() {
                prop_assert_eq!(c.read_u64(node, own + q * 8), want);
            }
        }
    }

    /// Under a random seeded drop/duplicate/delay schedule with the
    /// reliability layer armed, a TreadMarks run produces results identical
    /// to the fault-free run, and the in-flight set drains to empty after
    /// every cascade.
    #[test]
    fn lrc_outcome_is_fault_oblivious(
        ops in proptest::collection::vec(op_strategy(4, 8), 1..40),
        plan in chaos_plan_strategy(),
    ) {
        let clean = ChannelFaults::seeded(plan.seed);
        let cfg = || Config::new(4).page_size(256).segment_pages(8);
        let a = run_chaos_program(
            (0..4).map(|i| Node::new(i, cfg())).collect(),
            &clean,
            &ops,
        );
        let b = run_chaos_program(
            (0..4).map(|i| Node::new(i, cfg())).collect(),
            &plan,
            &ops,
        );
        prop_assert_eq!(a, b, "injected faults changed the LRC outcome ({:?})", plan);
    }

    /// The IVY ablation satisfies the same fault-obliviousness property.
    #[test]
    fn ivy_outcome_is_fault_oblivious(
        ops in proptest::collection::vec(op_strategy(3, 6), 1..30),
        plan in chaos_plan_strategy(),
    ) {
        let clean = ChannelFaults::seeded(plan.seed);
        let cfg = || Config::new(3).page_size(256).segment_pages(8);
        let a = run_chaos_program(
            (0..3).map(|i| IvyNode::new(i, cfg())).collect(),
            &clean,
            &ops,
        );
        let b = run_chaos_program(
            (0..3).map(|i| IvyNode::new(i, cfg())).collect(),
            &plan,
            &ops,
        );
        prop_assert_eq!(a, b, "injected faults changed the IVY outcome ({:?})", plan);
    }

    /// The eager-release variant satisfies the same oracle.
    #[test]
    fn eager_cluster_matches_oracle(
        ops in proptest::collection::vec(op_strategy(3, 4), 1..40)
    ) {
        let nodes = 3;
        let cfg = Config::new(nodes)
            .page_size(256)
            .segment_pages(8)
            .eager_release_all();
        let mut c = Cluster::new(cfg);
        let base = c.alloc(4 * 8, 8);
        let own = c.alloc(nodes * 8, 8);
        let mut oracle = [0u64; 4];

        for op in &ops {
            match *op {
                Op::LockedAdd { node, slot, delta } => {
                    let node = node % nodes;
                    c.lock(node, 0);
                    let v = c.read_u64(node, base + slot % 4 * 8);
                    prop_assert_eq!(v, oracle[slot % 4]);
                    c.write_u64(node, base + slot % 4 * 8, v + u64::from(delta));
                    c.unlock(node, 0);
                    oracle[slot % 4] += u64::from(delta);
                }
                Op::Barrier => c.barrier(0),
                Op::OwnWrite { node, value } => {
                    let node = node % nodes;
                    c.write_u64(node, own + node * 8, u64::from(value));
                }
                Op::LockedSync { node, slot, delta } => {
                    let node = node % nodes;
                    c.lock(node, 0);
                    let v = c.read_u64(node, base + slot % 4 * 8);
                    prop_assert_eq!(v, oracle[slot % 4]);
                    c.write_u64(node, base + slot % 4 * 8, v + u64::from(delta));
                    c.unlock(node, 0);
                    oracle[slot % 4] += u64::from(delta);
                    c.barrier(0);
                }
            }
        }
        c.barrier(1);
        for node in 0..nodes {
            for (slot, &want) in oracle.iter().enumerate() {
                prop_assert_eq!(c.read_u64(node, base + slot * 8), want);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault-injection harness: the same programs through a lossy router
// ---------------------------------------------------------------------

/// The operation surface the chaos harness needs, implemented by both
/// protocol flavors (TreadMarks LRC and the IVY ablation).
trait Proto {
    fn handle(&mut self, env: Envelope) -> Handled;
    fn acquire(&mut self, lock: usize) -> StartAcquire;
    fn release(&mut self, lock: usize) -> Vec<Envelope>;
    fn barrier_arrive(&mut self, barrier: usize) -> FaultStart;
    fn fault(&mut self, page: usize, write: bool) -> FaultStart;
    fn page_ok(&self, page: usize, write: bool) -> bool;
    fn pages_in(&self, addr: usize, len: usize) -> std::ops::Range<usize>;
    fn read_into(&mut self, addr: usize, buf: &mut [u8]);
    fn write_from(&mut self, addr: usize, bytes: &[u8]);
}

macro_rules! impl_proto {
    ($ty:ty) => {
        impl Proto for $ty {
            fn handle(&mut self, env: Envelope) -> Handled {
                <$ty>::handle(self, env)
            }
            fn acquire(&mut self, lock: usize) -> StartAcquire {
                <$ty>::acquire(self, lock)
            }
            fn release(&mut self, lock: usize) -> Vec<Envelope> {
                <$ty>::release(self, lock)
            }
            fn barrier_arrive(&mut self, barrier: usize) -> FaultStart {
                <$ty>::barrier_arrive(self, barrier)
            }
            fn fault(&mut self, page: usize, write: bool) -> FaultStart {
                <$ty>::fault(self, page, write)
            }
            fn page_ok(&self, page: usize, write: bool) -> bool {
                if write {
                    self.page_writable(page)
                } else {
                    self.page_valid(page)
                }
            }
            fn pages_in(&self, addr: usize, len: usize) -> std::ops::Range<usize> {
                <$ty>::pages_in(self, addr, len)
            }
            fn read_into(&mut self, addr: usize, buf: &mut [u8]) {
                <$ty>::read_into(self, addr, buf)
            }
            fn write_from(&mut self, addr: usize, bytes: &[u8]) {
                <$ty>::write_from(self, addr, bytes)
            }
        }
    };
}

impl_proto!(Node);
impl_proto!(IvyNode);

/// A synchronous cluster whose every cascade runs through a seeded lossy
/// [`ChaosRouter`] with the retransmission layer armed.
struct ChaosCluster<N> {
    nodes: Vec<N>,
    router: ChaosRouter,
}

impl<N: Proto> ChaosCluster<N> {
    fn new(nodes: Vec<N>, plan: &ChannelFaults) -> Self {
        ChaosCluster {
            nodes,
            router: ChaosRouter::new(plan, RetransmitPolicy::default()),
        }
    }

    fn route(&mut self, sends: Vec<Envelope>) -> Vec<(usize, Action)> {
        let nodes = &mut self.nodes;
        let done = self.router.route(sends, &mut |env| {
            let to = env.to;
            nodes[to].handle(env)
        });
        assert_eq!(
            self.router.rel().in_flight_len(),
            0,
            "cascade quiesced with unacked packets in flight"
        );
        done
    }

    fn validate(&mut self, node: usize, addr: usize, len: usize, write: bool) {
        for page in self.nodes[node].pages_in(addr, len) {
            if self.nodes[node].page_ok(page, write) {
                continue;
            }
            let start = self.nodes[node].fault(page, write);
            let ready = start.ready;
            let done = self.route(start.sends);
            assert!(
                ready || done.contains(&(node, Action::PageReady(page))),
                "fault on page {page} did not complete"
            );
        }
    }

    fn read_u64(&mut self, node: usize, addr: usize) -> u64 {
        self.validate(node, addr, 8, false);
        let mut b = [0u8; 8];
        self.nodes[node].read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    fn write_u64(&mut self, node: usize, addr: usize, v: u64) {
        self.validate(node, addr, 8, true);
        self.nodes[node].write_from(addr, &v.to_le_bytes());
    }

    fn lock(&mut self, node: usize, lock: usize) {
        match self.nodes[node].acquire(lock) {
            StartAcquire::Granted => {}
            StartAcquire::Wait(sends) => {
                let done = self.route(sends);
                assert!(
                    done.contains(&(node, Action::LockGranted(lock))),
                    "uncontended acquire of lock {lock} did not complete"
                );
            }
        }
    }

    fn unlock(&mut self, node: usize, lock: usize) {
        let sends = self.nodes[node].release(lock);
        self.route(sends);
    }

    fn barrier(&mut self, barrier: usize) {
        let n = self.nodes.len();
        let mut completed = false;
        for node in 0..n {
            let start = self.nodes[node].barrier_arrive(barrier);
            completed |= start.ready;
            let done = self.route(start.sends);
            completed |= done
                .iter()
                .any(|&(_, a)| a == Action::BarrierDone(barrier));
        }
        assert!(completed, "barrier {barrier} did not complete");
    }
}

fn chaos_plan_strategy() -> impl Strategy<Value = ChannelFaults> {
    // The vendored proptest has no f64 range strategy; draw permille values.
    (any::<u64>(), 0u32..300, 0u32..200, 0u32..200).prop_map(|(seed, drop, dup, delay)| {
        ChannelFaults::seeded(seed)
            .drop_rate(f64::from(drop) / 1000.0)
            .dup_rate(f64::from(dup) / 1000.0)
            .delay_rate(f64::from(delay) / 1000.0, 0)
    })
}

/// Runs the shared random program on a chaos cluster and returns the final
/// shared-memory image as observed by every node (slot values then each
/// node's private region), so two runs can be compared verbatim.
fn run_chaos_program<N: Proto>(nodes: Vec<N>, plan: &ChannelFaults, ops: &[Op]) -> Vec<u64> {
    let n = nodes.len();
    let slots = 8usize;
    let base = 0usize;
    let own = slots * 8;
    let mut c = ChaosCluster::new(nodes, plan);
    for op in ops {
        match *op {
            Op::LockedAdd { node, slot, delta } => {
                let (node, slot) = (node % n, slot % slots);
                c.lock(node, 0);
                let v = c.read_u64(node, base + slot * 8);
                c.write_u64(node, base + slot * 8, v + u64::from(delta));
                c.unlock(node, 0);
            }
            Op::Barrier => c.barrier(0),
            Op::OwnWrite { node, value } => {
                let node = node % n;
                c.write_u64(node, own + node * 8, u64::from(value));
            }
            Op::LockedSync { node, slot, delta } => {
                let (node, slot) = (node % n, slot % slots);
                c.lock(node, 0);
                let v = c.read_u64(node, base + slot * 8);
                c.write_u64(node, base + slot * 8, v + u64::from(delta));
                c.unlock(node, 0);
                c.barrier(0);
            }
        }
    }
    c.barrier(1);
    let mut image = Vec::new();
    for node in 0..n {
        for slot in 0..slots {
            image.push(c.read_u64(node, base + slot * 8));
        }
        for q in 0..n {
            image.push(c.read_u64(node, own + q * 8));
        }
    }
    image
}

// ---------------------------------------------------------------------
// Barrier-time garbage collection
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// A run with barrier-time GC enabled (threshold 0: collect at every
    /// barrier) produces a byte-identical final shared-memory image to a
    /// GC-free run of the same program — with and without injected
    /// network faults. The image is read back *after* the last collection,
    /// so it exercises the post-GC path (whole-page fetches from the
    /// validated origin instead of replays of retired diffs).
    #[test]
    fn gc_runs_match_gc_free_runs(
        ops in proptest::collection::vec(op_strategy(4, 8), 1..40),
        plan in chaos_plan_strategy(),
    ) {
        let clean = ChannelFaults::seeded(plan.seed);
        let nogc = || Config::new(4).page_size(256).segment_pages(8);
        let gc = || nogc().gc(0);
        let a = run_chaos_program((0..4).map(|i| Node::new(i, nogc())).collect(), &clean, &ops);
        let b = run_chaos_program((0..4).map(|i| Node::new(i, gc())).collect(), &clean, &ops);
        prop_assert_eq!(&a, &b, "GC changed the program outcome");
        let c = run_chaos_program((0..4).map(|i| Node::new(i, gc())).collect(), &plan, &ops);
        prop_assert_eq!(&a, &c, "GC + injected faults changed the outcome ({:?})", plan);
    }

    /// Eager-release mode composes with GC: the oracle still holds when
    /// every barrier collects.
    #[test]
    fn eager_gc_matches_gc_free(
        ops in proptest::collection::vec(op_strategy(3, 8), 1..30),
    ) {
        let clean = ChannelFaults::seeded(7);
        let nogc = || Config::new(3).page_size(256).segment_pages(8).eager_release_all();
        let gc = || nogc().gc(0);
        let a = run_chaos_program((0..3).map(|i| Node::new(i, nogc())).collect(), &clean, &ops);
        let b = run_chaos_program((0..3).map(|i| Node::new(i, gc())).collect(), &clean, &ops);
        prop_assert_eq!(a, b, "GC changed the eager-release outcome");
    }
}

/// Writes under a lock across several barriers with threshold-0 GC: every
/// barrier collects, the data survives, and the ledger shows the store
/// shrinking back to empty (non-monotonic footprint).
#[test]
fn barrier_gc_retires_metadata_and_preserves_data() {
    let nodes = 4;
    let mut c = Cluster::new(Config::new(nodes).page_size(256).segment_pages(8).gc(0));
    let base = c.alloc(nodes * 8, 8);
    let rounds = 5u64;
    for round in 0..rounds {
        for node in 0..nodes {
            c.lock(node, 0);
            let v = c.read_u64(node, base + node * 8);
            c.write_u64(node, base + node * 8, v + round + 1);
            c.unlock(node, 0);
        }
        c.barrier(0);
    }
    let s = c.stats();
    assert!(s.gc_collections >= (rounds * nodes as u64), "every barrier collects on every node");
    assert!(s.gc_intervals_retired > 0, "intervals were retired");
    assert!(s.live_intervals_hw > 0, "the ledger saw live intervals");
    assert_eq!(s.live_intervals, 0, "the final collection emptied every store");
    assert_eq!(s.cached_diff_bytes, 0, "no cached diffs survive a collection");
    // The data itself is intact: post-GC reads fetch validated pages.
    let want = rounds * (rounds + 1) / 2;
    for node in 0..nodes {
        for q in 0..nodes {
            assert_eq!(c.read_u64(node, base + q * 8), want, "node {node} slot {q}");
        }
    }
}

/// `gc(u64::MAX)` is ledger-only mode: footprints are tracked but nothing
/// is ever collected — the GC-off arm of the scaling experiment.
#[test]
fn ledger_only_mode_tracks_without_collecting() {
    let nodes = 4;
    let mut c = Cluster::new(
        Config::new(nodes)
            .page_size(256)
            .segment_pages(8)
            .gc(u64::MAX),
    );
    let base = c.alloc(nodes * 8, 8);
    for _ in 0..3 {
        for node in 0..nodes {
            c.lock(node, 0);
            let v = c.read_u64(node, base);
            c.write_u64(node, base, v + 1);
            c.unlock(node, 0);
        }
        c.barrier(0);
    }
    let s = c.stats();
    assert_eq!(s.gc_collections, 0);
    assert_eq!(s.gc_intervals_retired, 0);
    assert!(s.live_intervals > 0, "stores grow monotonically without GC");
    assert_eq!(s.live_intervals, s.live_intervals_hw, "no shrink ever happened");
    assert!(s.live_interval_bytes > 0);
}

/// Without a GC configuration the ledger fields stay exactly zero, so
/// reports from configurations predating the ledger are byte-identical.
#[test]
fn gc_off_keeps_ledger_zero() {
    let nodes = 4;
    let mut c = Cluster::new(Config::new(nodes).page_size(256).segment_pages(8));
    let base = c.alloc(nodes * 8, 8);
    for node in 0..nodes {
        c.lock(node, 0);
        let v = c.read_u64(node, base);
        c.write_u64(node, base, v + 1);
        c.unlock(node, 0);
    }
    c.barrier(0);
    let s = c.stats();
    assert_eq!(s.gc_collections, 0);
    assert_eq!(s.live_intervals, 0);
    assert_eq!(s.live_intervals_hw, 0);
    assert_eq!(s.live_interval_bytes, 0);
    assert_eq!(s.live_interval_bytes_hw, 0);
    assert_eq!(s.cached_diff_bytes, 0);
    assert_eq!(s.cached_diff_bytes_hw, 0);
}

/// The `IntervalStore::between()` duplicate-delivery audit, pinned: the
/// same interval arriving once via a lock grant and again via a barrier
/// departure is integrated exactly once (no double-applied notices, no
/// duplicate store records).
#[test]
fn duplicate_interval_delivery_is_idempotent() {
    let cfg = Config::new(2).page_size(256).segment_pages(8);
    let mut node = Node::new(1, cfg.clone());
    let mut vt = VTime::zero(2);
    vt.set(0, 1);
    let interval = IntervalMsg::new(0, 1, vt.clone(), vec![0, 1]);

    // First delivery: a lock grant carrying the interval.
    let h = node.handle(Envelope {
        from: 0,
        to: 1,
        msg: Msg::LockGrant {
            lock: 1, // node 1 manages lock 1, so the token may land here
            intervals: vec![interval.clone()],
        },
    });
    assert_eq!(h.actions, vec![Action::LockGranted(1)]);
    assert_eq!(node.stats().notices_received, 2, "two pages noticed");

    // Second delivery: a barrier departure racing over the same (node, seq).
    let h = node.handle(Envelope {
        from: 0,
        to: 1,
        msg: Msg::BarrierDepart {
            barrier: 0,
            vt,
            intervals: vec![interval],
            gc: false,
        },
    });
    assert_eq!(h.actions, vec![Action::BarrierDone(0)]);
    assert_eq!(
        node.stats().notices_received,
        2,
        "re-delivered interval must not double-apply its notices"
    );
}

/// One host record per interval: the allocation `close_interval` makes is
/// the one a lock grant carries, the one the grantee stores, and the one it
/// passes onward and reports at its next barrier — never a rebuilt copy.
#[test]
fn interval_record_survives_a_lock_grant_round_trip_uncopied() {
    let cfg = Config::new(3).page_size(256).segment_pages(4);
    let mut n0 = Node::new(0, cfg.clone());
    let mut n1 = Node::new(1, cfg);

    // Node 0 (manager of lock 0, origin of every page) writes under the lock.
    assert_eq!(n0.acquire(0), StartAcquire::Granted);
    assert!(n0.fault(0, true).ready);
    n0.write_from(0, &[1, 2, 3, 4]);
    assert!(n0.release(0).is_empty());

    // Node 1's request makes node 0 close the interval and grant.
    let StartAcquire::Wait(mut req) = n1.acquire(0) else {
        panic!("remote acquire must wait");
    };
    let grant = n0.handle(req.pop().unwrap()).sends.pop().unwrap();
    let Msg::LockGrant { intervals, .. } = &grant.msg else {
        panic!("expected a grant, got {grant:?}");
    };
    assert_eq!(intervals.len(), 1);
    let made = intervals[0].clone();
    assert_eq!((made.node, made.seq), (0, 1));
    assert_eq!(made.pages, vec![0]);

    // Node 0 reports the same allocation at its next barrier.
    let arrive = n0.barrier_arrive(1).sends.pop().unwrap();
    let Msg::BarrierArrive { intervals, .. } = &arrive.msg else {
        panic!("expected an arrival, got {arrive:?}");
    };
    assert!(IntervalMsg::ptr_eq(&intervals[0], &made));

    // Node 1 integrates it, then grants onward to node 2: same allocation.
    assert_eq!(n1.handle(grant).actions, vec![Action::LockGranted(0)]);
    assert!(n1.release(0).is_empty());
    let onward = n1
        .handle(Envelope {
            from: 0,
            to: 1,
            msg: Msg::LockForward {
                lock: 0,
                requester: 2,
                vt: VTime::zero(3),
            },
        })
        .sends
        .pop()
        .unwrap();
    let Msg::LockGrant { intervals, .. } = &onward.msg else {
        panic!("expected a grant, got {onward:?}");
    };
    assert_eq!(intervals.len(), 1);
    assert!(IntervalMsg::ptr_eq(&intervals[0], &made));
}
