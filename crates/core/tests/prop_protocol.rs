//! Property-based tests for the TreadMarks protocol invariants.

use proptest::prelude::*;

use tmk_core::{
    Action, Cluster, Config, Diff, DsmProtocol, Envelope, FaultPlan, IntervalMsg, Msg, Node, VTime,
    WORD,
};
use tmk_parmacs::Alloc;

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

    /// Partial-order sanity: `le` is reflexive and antisymmetric, and agrees
    /// with the element-wise definition (so two times may be concurrent).
    #[test]
    fn vtime_partial_order_laws(a in vt_strategy(6), b in vt_strategy(6)) {
        prop_assert!(a.le(&a));
        if a.le(&b) && b.le(&a) {
            prop_assert_eq!(&a, &b);
        }
        prop_assert_eq!(a.le(&b), (0..6).all(|q| a.get(q) <= b.get(q)));
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

const SLOTS: usize = 8;

fn op_strategy(nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, 0..SLOTS, any::<u8>()).prop_map(|(node, slot, delta)| Op::LockedAdd {
            node,
            slot,
            delta
        }),
        Just(Op::Barrier),
        (0..nodes, any::<u8>()).prop_map(|(node, value)| Op::OwnWrite { node, value }),
        (0..nodes, 0..SLOTS, any::<u8>()).prop_map(|(node, slot, delta)| Op::LockedSync {
            node,
            slot,
            delta
        }),
    ]
}

fn chaos_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    // The vendored proptest has no f64 range strategy; draw permille values.
    (any::<u64>(), 0u32..300, 0u32..200, 0u32..200).prop_map(|(seed, drop, dup, delay)| {
        FaultPlan::drop_rate(seed, f64::from(drop) / 1000.0)
            .with_dup(f64::from(dup) / 1000.0)
            .with_delay(f64::from(delay) / 1000.0, 0)
    })
}

/// A cluster of `protocol` built from `cfg`, with `plan`'s link faults
/// armed when given.
fn cluster(cfg: Config, protocol: DsmProtocol, plan: Option<&FaultPlan>) -> Cluster {
    let c = Cluster::with_protocol(cfg, protocol);
    match plan {
        Some(plan) => c.with_faults(plan),
        None => c,
    }
}

/// `nodes` nodes of 256-byte pages: every slot region shares a page.
fn small(nodes: usize) -> Config {
    Config::new(nodes).page_size(256).segment_pages(8)
}

/// Runs `ops` on `c`, checking every locked read — and, after a final
/// barrier, every node's view of every slot — against a sequential model of
/// the same program. Two runs that both pass end with the same memory.
fn run_program(c: Cluster, ops: &[Op]) -> Result<(), TestCaseError> {
    run_program_checked(c, ops, |_| Ok(()))
}

/// [`run_program`], also calling `check` on the cluster after every step.
fn run_program_checked(
    mut c: Cluster,
    ops: &[Op],
    check: impl Fn(&Cluster) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let n = c.config().nodes;
    let mut layout = Alloc::new(c.config().segment_bytes());
    let base = layout.bytes(SLOTS * 8, 8);
    let own = layout.bytes(n * 8, 8);
    let mut slots = [0u64; SLOTS];
    let mut owned = vec![0u64; n];
    for op in ops {
        match *op {
            Op::LockedAdd { node, slot, delta } | Op::LockedSync { node, slot, delta } => {
                let node = node % n;
                c.lock(node, 0);
                let v = c.read_u64(node, base + slot * 8);
                prop_assert_eq!(v, slots[slot], "locked read saw stale data");
                c.write_u64(node, base + slot * 8, v + u64::from(delta));
                c.unlock(node, 0);
                slots[slot] += u64::from(delta);
                if matches!(op, Op::LockedSync { .. }) {
                    c.barrier(0);
                }
            }
            Op::Barrier => c.barrier(0),
            Op::OwnWrite { node, value } => {
                let node = node % n;
                c.write_u64(node, own + node * 8, u64::from(value));
                owned[node] = u64::from(value);
            }
        }
        check(&c)?;
    }
    // Publish everything and check the final image on every node.
    c.barrier(1);
    let want: Vec<u64> = slots.iter().chain(&owned).copied().collect();
    for node in 0..n {
        let seen: Vec<u64> = (0..SLOTS)
            .map(|slot| base + slot * 8)
            .chain((0..n).map(|q| own + q * 8))
            .map(|addr| c.read_u64(node, addr))
            .collect();
        prop_assert_eq!(&seen, &want, "node {} diverged from the oracle", node);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// TreadMarks lazy release and IVY's sequential consistency both run
    /// the program exactly like the sequential oracle.
    #[test]
    fn cluster_matches_sequential_oracle(
        ops in proptest::collection::vec(op_strategy(4), 1..60)
    ) {
        for protocol in [DsmProtocol::Lrc, DsmProtocol::Ivy] {
            run_program(cluster(small(4), protocol, None), &ops)?;
        }
    }

    /// The eager-release variant satisfies the same oracle.
    #[test]
    fn eager_cluster_matches_oracle(
        ops in proptest::collection::vec(op_strategy(3), 1..40)
    ) {
        let cfg = small(3).eager_release_all();
        run_program(cluster(cfg, DsmProtocol::Lrc, None), &ops)?;
    }

    /// Under a random drop/duplicate/delay plan with the reliability layer
    /// armed, a TreadMarks run still matches the oracle — so exactly its
    /// fault-free run.
    #[test]
    fn lrc_outcome_is_fault_oblivious(
        ops in proptest::collection::vec(op_strategy(4), 1..40),
        plan in chaos_plan_strategy(),
    ) {
        run_program(cluster(small(4), DsmProtocol::Lrc, Some(&plan)), &ops)?;
    }

    /// The IVY ablation satisfies the same fault-obliviousness property.
    #[test]
    fn ivy_outcome_is_fault_oblivious(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
        plan in chaos_plan_strategy(),
    ) {
        run_program(cluster(small(3), DsmProtocol::Ivy, Some(&plan)), &ops)?;
    }
}

// ---------------------------------------------------------------------
// Interval stamps
// ---------------------------------------------------------------------

/// Every interval record any node holds has the vector-clock shape the
/// fetch-time causal order relies on: `a` happened before (or is) `b`
/// exactly when `b`'s vector time covers `a`'s own position. The check runs
/// over the union of all nodes' records, one entry per interval, since a
/// store holds other nodes' records only above its last barrier departure.
fn stamps_are_causal_histories(c: &Cluster) -> Result<(), TestCaseError> {
    let mut all = std::collections::BTreeMap::new();
    for node in 0..c.config().nodes {
        for m in c.node(node).lrc().intervals().iter() {
            let known = all.entry((m.node(), m.seq())).or_insert(m);
            prop_assert_eq!(
                *known,
                m,
                "node {} holds another ({}, {})",
                node,
                m.node(),
                m.seq()
            );
        }
    }
    for a in all.values() {
        let (an, aseq) = (a.node(), a.seq());
        prop_assert_eq!(a.vt()[an], aseq, "stamp of ({}, {})", an, aseq);
        for b in all.values() {
            prop_assert_eq!(
                a.vt().iter().zip(b.vt()).all(|(x, y)| x <= y),
                b.vt()[an] >= aseq,
                "({}, {}) vs ({}, {})",
                an,
                aseq,
                b.node(),
                b.seq()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The covers test agrees with the whole-vector comparison over every
    /// pair of intervals any node holds, after every step — lazy and eager
    /// release, with and without barrier-time GC.
    #[test]
    fn interval_stamps_order_like_their_vector_times(
        ops in proptest::collection::vec(op_strategy(4), 1..40),
        eager in any::<bool>(),
        gc in any::<bool>(),
    ) {
        let mut cfg = small(4);
        if eager {
            cfg = cfg.eager_release_all();
        }
        if gc {
            cfg = cfg.gc(0);
        }
        let c = cluster(cfg, DsmProtocol::Lrc, None);
        run_program_checked(c, &ops, stamps_are_causal_histories)?;
    }
}

// ---------------------------------------------------------------------
// Barrier-time garbage collection
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// A run with barrier-time GC enabled (threshold 0: collect at every
    /// barrier) ends with the sequential oracle's image — the one a GC-free
    /// run ends with — with and without injected network faults. The image
    /// is read back *after* the last collection, so it exercises the
    /// post-GC path (whole-page fetches from the validated origin instead
    /// of replays of retired diffs).
    #[test]
    fn gc_runs_match_gc_free_runs(
        ops in proptest::collection::vec(op_strategy(4), 1..40),
        plan in chaos_plan_strategy(),
    ) {
        run_program(cluster(small(4).gc(0), DsmProtocol::Lrc, None), &ops)?;
        run_program(cluster(small(4).gc(0), DsmProtocol::Lrc, Some(&plan)), &ops)?;
    }

    /// Eager-release mode composes with GC: the oracle still holds when
    /// every barrier collects.
    #[test]
    fn eager_gc_matches_gc_free(
        ops in proptest::collection::vec(op_strategy(3), 1..30),
    ) {
        let cfg = small(3).eager_release_all().gc(0);
        run_program(cluster(cfg, DsmProtocol::Lrc, None), &ops)?;
    }
}

/// Writes under a lock across several barriers with threshold-0 GC: every
/// barrier collects, the data survives, and the ledger shows the store
/// shrinking back to empty (non-monotonic footprint).
#[test]
fn barrier_gc_retires_metadata_and_preserves_data() {
    let nodes = 4;
    let mut c = Cluster::new(Config::new(nodes).page_size(256).segment_pages(8).gc(0));
    let base = Alloc::new(c.config().segment_bytes()).bytes(nodes * 8, 8);
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
    assert!(
        s.gc_collections >= (rounds * nodes as u64),
        "every barrier collects on every node"
    );
    assert!(s.gc_intervals_retired > 0, "intervals were retired");
    assert!(s.live_intervals_hw > 0, "the ledger saw live intervals");
    assert_eq!(
        s.live_intervals, 0,
        "the final collection emptied every store"
    );
    assert_eq!(
        s.cached_diff_bytes, 0,
        "no cached diffs survive a collection"
    );
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
    let base = Alloc::new(c.config().segment_bytes()).bytes(nodes * 8, 8);
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
    assert_eq!(
        s.live_intervals, s.live_intervals_hw,
        "no shrink ever happened"
    );
    assert!(s.live_interval_bytes > 0);
}

/// Without a GC configuration the ledger fields stay exactly zero, so
/// reports from configurations predating the ledger are byte-identical.
#[test]
fn gc_off_keeps_ledger_zero() {
    let nodes = 4;
    let mut c = Cluster::new(Config::new(nodes).page_size(256).segment_pages(8));
    let base = Alloc::new(c.config().segment_bytes()).bytes(nodes * 8, 8);
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
    let interval = IntervalMsg::new(0, 1, vt.as_ref(), &[0, 1]);

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
    assert!(n0.acquire(0).ready);
    assert!(n0.fault(0, true).ready);
    n0.write_from(0, &[1, 2, 3, 4]);
    assert!(n0.release(0).is_empty());

    // Node 1's request makes node 0 close the interval and grant.
    let mut req = n1.acquire(0);
    assert!(!req.ready, "remote acquire must wait");
    let grant = n0.handle(req.sends.pop().unwrap()).sends.pop().unwrap();
    let Msg::LockGrant { intervals, .. } = &grant.msg else {
        panic!("expected a grant, got {grant:?}");
    };
    assert_eq!(intervals.len(), 1);
    let made = intervals[0].clone();
    assert_eq!((made.node(), made.seq()), (0, 1));
    assert!(made.pages().eq([0]));

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
