//! Regression tests distilled from property-test counterexamples.
//!
//! Each of these once exposed a real protocol bug:
//!
//! 1. `lost_write_unknown_interval_order` — fetched diffs from one writer
//!    must apply in program order even when the requester has no record of
//!    the later interval (a cumulative diff materialized on demand); the
//!    old causal sort let the empty later diff apply first, marking the
//!    earlier one "already applied".
//! 2. `stale_clobber_without_interval_record` — diffs must carry their
//!    closing vector times so a requester can order two concurrent
//!    writers' diffs it has no interval records for.
//! 3. `eager_update_regression` — an eager update may only be applied
//!    immediately if everything its interval causally depends on is
//!    already applied locally; otherwise a later fetch of an older diff
//!    would overwrite the newer words.

use tmk_core::{Cluster, Config};
use tmk_parmacs::Alloc;

fn locked_add(c: &mut Cluster, base: usize, node: usize, slot: usize, delta: u64) -> u64 {
    c.lock(node, 0);
    let v = c.read_u64(node, base + slot * 8);
    c.write_u64(node, base + slot * 8, v + delta);
    c.unlock(node, 0);
    v
}

#[test]
fn lost_write_unknown_interval_order() {
    let nodes = 4usize;
    let cfg = Config::new(nodes).page_size(256).segment_pages(8);
    let mut c = Cluster::new(cfg);
    let mut layout = Alloc::new(c.config().segment_bytes());
    let base = layout.bytes(8 * 8, 8);
    let own = layout.bytes(nodes * 8, 8);

    c.write_u64(2, own + 2 * 8, 0);
    assert_eq!(locked_add(&mut c, base, 1, 6, 1), 0);
    c.barrier(0);
    c.write_u64(1, own + 8, 0);
    assert_eq!(locked_add(&mut c, base, 2, 0, 0), 0);
    assert_eq!(locked_add(&mut c, base, 1, 0, 0), 0);
    c.barrier(0);
    c.write_u64(1, own + 8, 0);
    assert_eq!(locked_add(&mut c, base, 2, 0, 0), 0);
    c.write_u64(0, own, 0);

    c.barrier(1);
    for node in 0..nodes {
        assert_eq!(
            c.read_u64(node, base + 6 * 8),
            1,
            "node {node} lost the slot-6 increment"
        );
    }
}

#[test]
fn stale_clobber_without_interval_record() {
    let nodes = 4usize;
    let cfg = Config::new(nodes).page_size(256).segment_pages(8);
    let mut c = Cluster::new(cfg);
    let mut layout = Alloc::new(c.config().segment_bytes());
    let base = layout.bytes(8 * 8, 8);
    let own = layout.bytes(nodes * 8, 8);

    assert_eq!(locked_add(&mut c, base, 2, 3, 1), 0);
    c.write_u64(1, own + 8, 0);
    c.barrier(0);
    assert_eq!(locked_add(&mut c, base, 1, 3, 1), 1);
    c.write_u64(0, own, 0);

    c.barrier(1);
    for node in 0..nodes {
        assert_eq!(
            c.read_u64(node, base + 3 * 8),
            2,
            "node {node} saw a clobbered slot-3"
        );
    }
}

#[test]
fn eager_update_regression() {
    let nodes = 3usize;
    let cfg = Config::new(nodes)
        .page_size(256)
        .segment_pages(8)
        .eager_release_all();
    let mut c = Cluster::new(cfg);
    let mut layout = Alloc::new(c.config().segment_bytes());
    let base = layout.bytes(4 * 8, 8);
    let own = layout.bytes(nodes * 8, 8);

    c.write_u64(1, own + 8, 0);
    c.write_u64(0, own, 0);
    c.barrier(0);
    assert_eq!(locked_add(&mut c, base, 0, 1, 1), 0);
    assert_eq!(locked_add(&mut c, base, 2, 1, 1), 1);

    c.barrier(1);
    for node in 0..nodes {
        assert_eq!(
            c.read_u64(node, base + 8),
            2,
            "node {node} lost an eager update"
        );
    }
}
