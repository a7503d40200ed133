//! Anatomy of lazy release consistency: drive the TreadMarks protocol
//! state machine directly and watch vector timestamps, write notices,
//! twins and diffs do their jobs.
//!
//! Uses the synchronous [`tmk::dsm::Cluster`] router (no threads, no
//! timing) so every protocol step is observable in order.
//!
//! Run with: `cargo run --example protocol_anatomy`

use tmk::dsm::{Cluster, Config};
use tmk::parmacs::Alloc;

fn main() {
    // Three nodes, small pages so the output is easy to follow.
    let cfg = Config::new(3).page_size(256).segment_pages(8);
    let mut c = Cluster::new(cfg);

    let mut layout = Alloc::new(c.config().segment_bytes());
    let x = layout.bytes(8, 8); // a shared u64 on page 0
    let y = layout.bytes(8, 256); // next allocation

    println!("== master initialization (pre-parallel, node 0)");
    c.master_write(x, &1u64.to_le_bytes());
    println!("   x={} at addr {x} (page 0), y at addr {y}", 1);

    println!("\n== node 1 acquires lock 7, writes x=42, releases");
    c.lock(1, 7);
    c.write_u64(1, x, 42);
    c.unlock(1, 7);
    println!("   node 1 vt = {:?}", c.node(1).lrc().vt());
    println!("   node 1 created a twin and will diff page 0 lazily");

    println!("\n== node 2 reads x WITHOUT acquiring: stale is legal");
    let stale = c.read_u64(2, x);
    println!("   node 2 sees x={stale} (lazy release consistency!)");
    assert_eq!(stale, 1);

    println!("\n== node 2 acquires lock 7: write notices arrive");
    c.lock(2, 7);
    println!("   node 2 vt = {:?}", c.node(2).lrc().vt());
    println!(
        "   page 0 valid at node 2 before access? {}",
        c.node(2).page_valid(0)
    );
    let fresh = c.read_u64(2, x);
    println!("   node 2 re-reads x={fresh} after fetching the diff");
    assert_eq!(fresh, 42);
    c.unlock(2, 7);

    println!("\n== concurrent writers on one page merge by word");
    // Nodes 0 and 1 write different words of page 0 without any ordering
    // between them, then a barrier makes both visible everywhere.
    c.write_u64(0, y, 1000);
    c.write_u64(1, y + 8, 2000);
    c.barrier(0);
    for node in 0..3 {
        let a = c.read_u64(node, y);
        let b = c.read_u64(node, y + 8);
        println!("   node {node} sees ({a}, {b})");
        assert_eq!((a, b), (1000, 2000));
    }

    let t = c.traffic();
    let s = c.stats();
    println!("\n== protocol totals");
    println!(
        "   messages: {} ({} lock, {} barrier, {} miss)",
        t.total_msgs(),
        t.lock_msgs,
        t.barrier_msgs,
        t.miss_msgs
    );
    println!(
        "   bytes: {} miss data, {} consistency, {} headers",
        t.miss_bytes, t.consistency_bytes, t.header_bytes
    );
    println!(
        "   twins {} / diffs {} ({} bytes of changed words)",
        s.twins_created, s.diffs_created, s.diff_bytes_created
    );
    println!(
        "   lock acquires: {} local, {} remote",
        s.local_lock_acquires, s.remote_lock_acquires
    );
}
