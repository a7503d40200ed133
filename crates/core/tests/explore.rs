//! Every message schedule of small scripted programs, explored on
//! [`Cluster`]'s step surface with the production protocol code.
//!
//! A world is a [`Cluster`] plus one program per node. A step either runs
//! a node's next operation, posting what it sends, or delivers one queued
//! copy. The search is depth-first and stateless: each execution replays
//! a schedule prefix from a fresh world, and a state already visited (the
//! `{:?}` text of the whole cluster plus every program counter) is not
//! expanded again. Every execution must finish without a panic or a
//! deadlock, and every read must return the value the data-race-free
//! program must see: under lazy release consistency a properly labelled
//! program behaves as under sequential consistency.
//!
//! Deliveries are per-link FIFO (the oldest copy on each directed link)
//! or in any order. The `#[ignore]`d worlds are the large ones; `ci.sh`'s
//! `explore` stage runs them in release.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use tmk_core::{Action, BarrierId, Cluster, Config, LockId, NodeId, SharedAddr};

/// Page size of every world: four `u64` words.
const PAGE: usize = 32;

/// One operation of a node's program. Every access is one `u64`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(SharedAddr, u64),
    /// Reads, and checks the value read.
    Read(SharedAddr, u64),
    /// Adds one to the value read.
    Incr(SharedAddr),
    Lock(LockId),
    Unlock(LockId),
    Barrier(BarrierId),
}

/// One transition of a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Node `.0` runs its next operation, or retries its access once the
    /// page it faulted on has arrived.
    Run(NodeId),
    /// Delivers the `.2`-th oldest queued copy from node `.0` to node `.1`.
    Deliver(NodeId, NodeId, usize),
}

use Step::Run;

/// Delivers the oldest queued copy from `from` to `to`.
fn link(from: NodeId, to: NodeId) -> Step {
    Step::Deliver(from, to, 0)
}

struct World {
    c: Cluster,
    progs: Vec<Vec<Op>>,
    pc: Vec<usize>,
    /// The completion each node's current operation waits for.
    wait: Vec<Option<Action>>,
}

impl World {
    fn new(cfg: &Config, progs: &[Vec<Op>]) -> World {
        let n = cfg.nodes;
        assert_eq!(progs.len(), n, "one program per node");
        World {
            c: Cluster::new(cfg.clone()),
            progs: progs.to_vec(),
            pc: vec![0; n],
            wait: vec![None; n],
        }
    }

    /// Panics unless every program has finished: with nothing left to
    /// step, a node still waiting is a deadlock.
    fn assert_finished(&self) {
        let done = self
            .pc
            .iter()
            .zip(&self.progs)
            .all(|(&pc, p)| pc == p.len());
        assert!(done, "deadlock at {:?}, waiting {:?}", self.pc, self.wait);
    }

    /// Every step enabled now.
    fn enabled(&self, any_order: bool) -> Vec<Step> {
        let mut steps: Vec<Step> = (0..self.pc.len())
            .filter(|&q| self.wait[q].is_none() && self.pc[q] < self.progs[q].len())
            .map(Run)
            .collect();
        let mut links: Vec<(NodeId, NodeId)> = Vec::new();
        for env in self.c.queued() {
            let nth = links.iter().filter(|&&l| l == (env.from, env.to)).count();
            links.push((env.from, env.to));
            if any_order || nth == 0 {
                steps.push(Step::Deliver(env.from, env.to, nth));
            }
        }
        steps
    }

    fn step(&mut self, step: Step) {
        match step {
            Run(q) => self.run(q),
            Step::Deliver(from, to, nth) => {
                let (i, _) = self
                    .c
                    .queued()
                    .enumerate()
                    .filter(|(_, e)| (e.from, e.to) == (from, to))
                    .nth(nth)
                    .unwrap_or_else(|| panic!("no copy #{nth} queued from {from} to {to}"));
                for (q, done) in self.c.deliver(i) {
                    assert_eq!(self.wait[q], Some(done), "node {q} completed {done:?}");
                    self.wait[q] = None;
                    if !matches!(done, Action::PageReady(_)) {
                        self.pc[q] += 1;
                    }
                }
            }
        }
    }

    fn run(&mut self, q: NodeId) {
        let op = self.progs[q][self.pc[q]];
        let node = self.c.node_mut(q);
        let (start, done) = match op {
            Op::Lock(lock) => (node.acquire(lock), Action::LockGranted(lock)),
            Op::Barrier(b) => (node.barrier_arrive(b), Action::BarrierDone(b)),
            Op::Unlock(lock) => {
                let sends = node.release(lock);
                self.c.post(sends);
                self.pc[q] += 1;
                return;
            }
            Op::Write(addr, _) | Op::Read(addr, _) | Op::Incr(addr) => {
                let write = !matches!(op, Op::Read(..));
                // Fault until the access can go ahead, as every driver does.
                while let Some(page) = self.c.node(q).next_fault(addr, 8, write) {
                    let start = self.c.node_mut(q).fault(page, write);
                    self.c.post(start.sends);
                    if !start.ready {
                        self.wait[q] = Some(Action::PageReady(page));
                        return;
                    }
                }
                let node = self.c.node_mut(q);
                let mut b = [0u8; 8];
                node.read_into(addr, &mut b);
                let v = u64::from_le_bytes(b);
                match op {
                    Op::Read(_, want) => assert_eq!(v, want, "node {q} read @{addr}"),
                    Op::Write(_, new) => node.write_from(addr, &new.to_le_bytes()),
                    _ => node.write_from(addr, &(v + 1).to_le_bytes()),
                }
                self.pc[q] += 1;
                return;
            }
        };
        // An operation that completes at once may still send: a barrier
        // manager's last arrival sends the departures.
        self.c.post(start.sends);
        if start.ready {
            self.pc[q] += 1;
        } else {
            self.wait[q] = Some(done);
        }
    }

    fn replay(&mut self, schedule: &[Step]) {
        for &s in schedule {
            self.step(s);
        }
    }

    /// Takes the first enabled step until none is left.
    fn finish(&mut self) {
        while let Some(&s) = self.enabled(false).first() {
            self.step(s);
        }
        self.assert_finished();
    }

    /// The state's hash: the whole cluster's `{:?}` text and every node's
    /// place in its program.
    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{:?} {:?} {:?}", self.c, self.pc, self.wait).hash(&mut h);
        h.finish()
    }
}

/// Explores every schedule of `progs` on a cluster built from `cfg`.
/// Returns `(states, executions)`.
///
/// # Panics
///
/// Panics with the failing schedule if any execution panics, deadlocks or
/// reads a wrong value.
fn explore(cfg: &Config, progs: &[Vec<Op>], any_order: bool) -> (usize, usize) {
    let mut visited = HashSet::new();
    let mut todo = vec![Vec::new()];
    let mut executions = 0;
    while let Some(mut path) = todo.pop() {
        executions += 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut w = World::new(cfg, progs);
            w.replay(&path);
            while visited.insert(w.key()) {
                let steps = w.enabled(any_order);
                let Some((&first, rest)) = steps.split_first() else {
                    return w.assert_finished();
                };
                todo.extend(rest.iter().map(|&s| [&path[..], &[s]].concat()));
                path.push(first);
                w.step(first);
            }
        }));
        if let Err(e) = run {
            let msg = (e.downcast_ref::<String>().map(String::as_str))
                .or(e.downcast_ref::<&str>().copied())
                .unwrap_or("?");
            panic!(
                "{msg}\nworld: {progs:?}\nschedule ({} steps): {path:?}",
                path.len()
            );
        }
    }
    (visited.len(), executions)
}

fn config(nodes: usize, pages: usize) -> Config {
    Config::new(nodes).segment_pages(pages).page_size(PAGE)
}

/// Three nodes, one page each. Before barrier `b`, node `q` writes word `b`
/// of its own page if bit `3b + q` of `mask` is set; after it, node `q`
/// reads word `b` of node `q + 1`'s page. Consecutive barriers have
/// different managers, so arrivals can overtake departures.
fn barrier_world(barriers: usize, mask: u32) -> (Config, Vec<Vec<Op>>) {
    const N: usize = 3;
    let written = |b: usize, q: usize| mask >> (b * N + q) & 1 == 1;
    let value = |b: usize, q: usize| {
        if written(b, q) {
            (10 * q + b + 1) as u64
        } else {
            0
        }
    };
    let progs = (0..N)
        .map(|q| {
            let r = (q + 1) % N;
            (0..barriers)
                .flat_map(|b| {
                    let write = written(b, q).then_some(Op::Write(q * PAGE + 8 * b, value(b, q)));
                    write
                        .into_iter()
                        .chain([Op::Barrier(b), Op::Read(r * PAGE + 8 * b, value(b, r))])
                })
                .collect()
        })
        .collect();
    (config(N, N), progs)
}

/// Every node adds one to each of `locks` counters in one page, each under
/// its own lock, starting at a different lock; then all meet at a barrier
/// and read every counter.
fn counter_world(cfg: Config, locks: usize) -> (Config, Vec<Vec<Op>>) {
    let n = cfg.nodes;
    let progs = (0..n)
        .map(|q| {
            let incr = (0..locks).flat_map(|i| {
                let l = (q + i) % locks;
                [Op::Lock(l), Op::Incr(8 * l), Op::Unlock(l)]
            });
            let reads = (0..locks).map(|l| Op::Read(8 * l, n as u64));
            incr.chain([Op::Barrier(0)]).chain(reads).collect()
        })
        .collect();
    (cfg, progs)
}

/// The lazy lock-counter worlds: 2–3 nodes, 1–2 locks. Three nodes with
/// two locks read a stale counter: see
/// [`known_defect_a_diff_merged_across_intervals_undoes_a_later_write`].
fn lazy_counters() -> Vec<(Config, Vec<Vec<Op>>)> {
    [(2, 1), (2, 2), (3, 1)]
        .into_iter()
        .map(|(n, locks)| counter_world(config(n, 1), locks))
        .collect()
}

/// One-lock counter worlds on `cfgs`.
fn counters_on(cfgs: &[Config]) -> Vec<(Config, Vec<Vec<Op>>)> {
    cfgs.iter()
        .map(|cfg| counter_world(cfg.clone(), 1))
        .collect()
}

fn explore_all(worlds: &[(Config, Vec<Vec<Op>>)], any_order: bool) {
    for (cfg, progs) in worlds {
        let (states, executions) = explore(cfg, progs, any_order);
        println!("{progs:?}: {states} states, {executions} executions");
    }
}

#[test]
fn two_barriers_every_schedule() {
    explore_all(&[barrier_world(2, 0b111_111)], false);
}

#[test]
fn three_barriers_every_schedule() {
    explore_all(&[barrier_world(3, 0b111_111_111)], false);
}

/// One write in three barriers, by each node before each barrier: the
/// writer's interval reaches the others only through departures, which
/// arrivals at the next barrier can overtake.
#[test]
fn three_barriers_one_write_every_schedule() {
    let worlds: Vec<_> = (0..9).map(|bit| barrier_world(3, 1 << bit)).collect();
    explore_all(&worlds, false);
}

#[test]
fn lazy_lock_counters_every_schedule() {
    explore_all(&lazy_counters(), false);
}

/// Eager release, and a collection at every barrier.
#[test]
fn eager_and_gc_lock_counters_every_schedule() {
    let cfgs = [
        config(2, 1).eager_release_all(),
        config(2, 1).gc(1),
        config(3, 1).gc(1),
    ];
    explore_all(&counters_on(&cfgs), false);
}

#[test]
#[ignore = "about 20 000 states; ci.sh's explore stage"]
fn eager_three_node_lock_counter_every_schedule() {
    explore_all(&counters_on(&[config(3, 1).eager_release_all()]), false);
}

#[test]
#[ignore = "512 worlds, about 4 minutes in release; ci.sh's explore stage"]
fn three_barriers_every_write_mask() {
    let worlds: Vec<_> = (0..1 << 9).map(|mask| barrier_world(3, mask)).collect();
    explore_all(&worlds, false);
}

#[test]
#[ignore = "about 50 000 states; ci.sh's explore stage"]
fn barrier_worlds_in_any_order() {
    let worlds = [barrier_world(2, 0b111_111), barrier_world(3, 0b111_111_111)];
    explore_all(&worlds, true);
}

#[test]
#[ignore = "ci.sh's explore stage, with the other any-order worlds"]
fn lazy_lock_counters_in_any_order() {
    explore_all(&lazy_counters(), true);
}

/// Consecutive barriers have different managers (`barrier % nodes`), so
/// node 0's arrival at barrier 2 can reach node 2 before barrier 1's
/// departure, which carries node 0's previous interval. The arrival waits
/// for that departure instead of tearing the manager down with an
/// interval gap.
#[test]
fn an_arrival_that_overtakes_the_previous_departure_waits_for_it() {
    let cfg = config(3, 3);
    assert_eq!((cfg.barrier_manager(1), cfg.barrier_manager(2)), (1, 2));
    let progs = [
        vec![
            Op::Write(0, 7),
            Op::Barrier(1),
            Op::Write(8, 9),
            Op::Barrier(2),
        ],
        vec![Op::Barrier(1), Op::Barrier(2)],
        vec![Op::Barrier(1), Op::Barrier(2)],
    ];
    let mut w = World::new(&cfg, &progs);
    let frontier = |w: &World, q: NodeId| w.c.node(q).lrc().intervals().frontier(0);
    // Barrier 1, managed by node 1: node 0 reports its interval 1, and
    // node 1's own arrival, the last, sends the departures.
    w.replay(&[
        Run(0),
        Run(0),
        Run(2),
        link(0, 1),
        link(2, 1),
        Run(1),
        link(1, 0),
    ]);
    // Node 0 writes again and arrives at barrier 2 with interval 2, which
    // reaches node 2 before node 1's departure with interval 1.
    w.replay(&[Run(0), Run(0), link(0, 2)]);
    assert_eq!(w.c.queued().len(), 1, "the early arrival is parked");
    assert_eq!(frontier(&w, 2), 0);
    w.step(link(1, 2));
    assert_eq!(
        frontier(&w, 2),
        2,
        "the departure brings the parked arrival in"
    );
    assert_eq!((w.pc[2], w.c.queued().len()), (1, 0));
    // Barrier 2 completes everywhere.
    w.replay(&[Run(2), Run(1), link(1, 2), link(2, 0), link(2, 1)]);
    w.assert_finished();
    for q in 0..3 {
        assert_eq!(
            w.c.node(q).lrc().vt().get(0),
            2,
            "node {q} saw both intervals"
        );
        assert_eq!(frontier(&w, q), 2);
    }
}

/// A manager can take an interval from an arrival at the next barrier
/// before it merges the previous departure, when the arrival follows on
/// from what it holds. Forgetting at that departure stops at the departure
/// time, so the next departure still serves the early interval to a node
/// that lacks it. Both early copies overtake an older copy on their link.
#[test]
fn forgetting_at_a_departure_keeps_an_early_arrivals_interval() {
    let cfg = config(3, 3);
    assert_eq!((cfg.barrier_manager(1), cfg.barrier_manager(2)), (1, 2));
    let progs = [
        vec![
            Op::Write(0, 7),
            Op::Barrier(1),
            Op::Barrier(2),
            Op::Read(PAGE, 5),
        ],
        vec![Op::Barrier(1), Op::Write(PAGE, 5), Op::Barrier(2)],
        vec![Op::Barrier(1), Op::Barrier(2)],
    ];
    let mut w = World::new(&cfg, &progs);
    // Barrier 1, managed by node 1: only node 0 has written.
    w.replay(&[Run(0), Run(0), Run(2), link(0, 1), link(2, 1), Run(1)]);
    // Node 1 closes its first interval at barrier 2: its page request and
    // its arrival overtake the departures on their links. Node 2 holds all
    // of node 1's earlier intervals (none), so it takes the interval.
    w.replay(&[Run(1), Step::Deliver(1, 0, 1), link(0, 1), Run(1), Run(1)]);
    w.step(Step::Deliver(1, 2, 1));
    assert_eq!(w.c.node(2).lrc().intervals().frontier(1), 1);
    assert_eq!(w.c.queued().len(), 2, "only the departures are in flight");
    // Barrier 1's departure: node 2 drops node 0's interval 1 and keeps
    // node 1's, which is above the departure time.
    w.replay(&[link(1, 0), link(1, 2)]);
    let held: Vec<_> = (w.c.node(2).lrc().intervals().iter())
        .map(|m| (m.node(), m.seq()))
        .collect();
    assert_eq!(held, vec![(1, 1)]);
    // Barrier 2: node 0 arrives without node 1's interval and gets it.
    w.replay(&[Run(0), link(0, 2), Run(2), link(2, 0), link(2, 1)]);
    assert_eq!(w.c.node(0).lrc().intervals().frontier(1), 1);
    assert_eq!(w.c.node(0).lrc().vt(), w.c.node(2).lrc().vt());
    // Node 0 reads node 1's write.
    w.replay(&[Run(0), link(0, 1), link(1, 0), Run(0)]);
    w.assert_finished();
}

/// The shortest schedule (breadth-first, 24 steps) on which a manager
/// without parked arrivals tears down with "interval gap for node 2":
/// node 2's arrival at barrier 1 carries its interval 2 and reaches
/// node 1, the manager, before barrier 0's departure brings node 2's
/// interval 1 there. The arrival waits for that departure.
#[test]
fn the_shortest_overtaking_schedule_parks_the_arrival() {
    let (cfg, progs) = barrier_world(2, 0b111_111);
    #[rustfmt::skip]
    let schedule = [
        Run(0), Run(0), Run(1), Run(2), link(1, 0), link(2, 0), link(0, 1), Run(1), Run(1),
        link(0, 2), Run(2), Run(2), link(1, 0), link(2, 0), link(0, 2), Run(2), link(2, 0),
        link(2, 0), link(0, 2), link(0, 2), Run(2), Run(2), Run(2), link(2, 1),
    ];
    let mut w = World::new(&cfg, &progs);
    w.replay(&schedule);
    assert_eq!(
        w.c.node(1).lrc().intervals().frontier(2),
        0,
        "the arrival waits"
    );
    w.finish();
    for q in 0..3 {
        assert_eq!(w.c.node(q).lrc().vt(), w.c.node(0).lrc().vt());
    }
}

/// Known defect, found by the search: the shortest schedule of the
/// three-node, two-lock counter world. Node 0 writes counter 0 in its
/// interval 1 and, after a lock grant invalidated the page, counter 1 in
/// its interval 2. Nobody asked for a diff in between, so
/// `Node::materialize_diffs` makes one diff of both intervals, stamped
/// with interval 2. Node 1, whose interval 2 incremented counter 0 after
/// node 0's interval 1 but is concurrent with node 0's interval 2, fetches
/// that diff after the barrier; applying it puts back node 0's old counter
/// 0, and node 1 reads 1 where the program must read 3.
///
/// TreadMarks avoids this by making the diff of a page with a twin when a
/// write notice for that page arrives, and by ordering a diff that spans
/// several intervals by the first of them (ROADMAP direction 16). The
/// first rule changes how many diffs the simulated runs make, so it moves
/// every record with diff counts and is a change of its own. Once it lands
/// this test fails: drop its `should_panic` and add `(3, 2)` to
/// [`lazy_counters`].
#[test]
#[should_panic(expected = "node 1 read @0")]
fn known_defect_a_diff_merged_across_intervals_undoes_a_later_write() {
    #[rustfmt::skip]
    let schedule = [
        Run(0), Run(0), Run(0), Run(0), Run(1), Run(1), Run(2), link(0, 1), link(2, 0),
        link(1, 0), link(0, 2), Run(2), link(0, 1), Run(1), Run(1), Run(1), link(1, 0), Run(0),
        link(1, 0), link(0, 1), link(0, 2), link(1, 0), Run(0), Run(0), Run(0), link(2, 0),
        link(2, 0), link(0, 2), link(0, 2), Run(2), Run(2), Run(2), link(2, 1), Run(1),
        link(2, 1), link(1, 0), link(0, 2), Run(2), Run(2), Run(2), link(1, 2), link(2, 0),
        link(2, 1), Run(1), Run(1), Run(1), link(1, 0), link(0, 1), Run(1), link(1, 0),
        link(0, 1), Run(1),
    ];
    let (cfg, progs) = counter_world(config(3, 1), 2);
    World::new(&cfg, &progs).replay(&schedule);
}
