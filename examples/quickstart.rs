//! Quickstart: real distributed shared memory between threads.
//!
//! This example uses `tmk`'s TreadMarks-style DSM as a plain library — no
//! simulation involved. Four nodes (OS threads, each pairing an application
//! thread with a message-service thread) share a lazily-consistent paged
//! address space: they increment a lock-protected counter, then fill a
//! barrier-synchronized array, and finally each verifies the whole result.
//! The program is one epoch of `Dsm::run_epochs`, checkpointed at start-up,
//! so even a crashed node would roll back and replay to the same result.
//!
//! Run with: `cargo run --example quickstart`

use tmk::dsm::runtime::{Dsm, DsmConfig, EpochStep, RunOpts};
use tmk::parmacs::{InitExt, SharedSlice, System};

fn main() {
    const NODES: usize = 4;
    const SLOTS: usize = 64;
    const ROUNDS: usize = 100;

    let cfg = DsmConfig::new(NODES).segment_pages(16);
    let out = Dsm::run_epochs(
        cfg,
        RunOpts::default(),
        |alloc, master| {
            // Shared layout: one counter, then a slot array on its own page.
            let counter: SharedSlice<u64> = alloc.slice(1);
            let slots: SharedSlice<u64> = alloc.slice_aligned(SLOTS, 4096);
            master.init(counter.addr(), 1000u64);
            (counter, slots)
        },
        |node, _epoch, &(counter, slots)| {
            let me = node.pid();

            // Lock-protected shared counter: classic mutual exclusion over
            // lazy release consistency — the acquirer always sees the
            // latest release's writes.
            for _ in 0..ROUNDS {
                node.lock(0);
                let v = counter.get(node, 0);
                counter.set(node, 0, v + 1);
                node.unlock(0);
            }

            // Barrier-synchronized array fill: each node writes its slots;
            // after the barrier everyone sees everything (write notices
            // invalidate, faults fetch diffs).
            for s in (me..SLOTS).step_by(NODES) {
                slots.set(node, s, (s * s) as u64);
            }
            node.barrier(0);

            let total: u64 = (0..SLOTS).map(|s| slots.get(node, s)).sum();
            let count = counter.get(node, 0);
            EpochStep::Done((count, total))
        },
    );

    let expect_count = 1000 + (NODES * ROUNDS) as u64;
    let expect_total: u64 = (0..SLOTS).map(|s| (s * s) as u64).sum();
    for (node, (count, total)) in out.results.iter().enumerate() {
        println!("node {node}: counter={count} slot-sum={total}");
        assert_eq!(*count, expect_count);
        assert_eq!(*total, expect_total);
    }
    println!("all {NODES} nodes agree: counter={expect_count}, slot-sum={expect_total}");
}
