//! Shared helpers for the engine test suites: a tiny block/wake lock (the
//! pattern the machine crates use) and panic-payload extraction. Used by
//! both the threaded (`engine.rs`) and cooperative (`coop.rs`) tests so the
//! two backends are exercised through identical machine behavior.

use std::collections::VecDeque;

use crate::Ctx;

/// A tiny spin-free lock implemented with block/wake.
#[derive(Default)]
pub(crate) struct TestLock {
    pub(crate) held: bool,
    pub(crate) queue: VecDeque<usize>,
    pub(crate) acquisitions: Vec<usize>,
}

pub(crate) fn lock(ctx: &Ctx<'_, TestLock>) {
    loop {
        let got = ctx.sync(|op| {
            let me = op.id();
            let now = op.now();
            let m = op.machine();
            if !m.held {
                m.held = true;
                m.acquisitions.push(me);
                true
            } else {
                m.queue.push_back(me);
                let _ = now;
                op.block();
                false
            }
        });
        if got {
            return;
        }
    }
}

pub(crate) fn unlock(ctx: &Ctx<'_, TestLock>) {
    ctx.sync(|op| {
        let now = op.now();
        let next = {
            let m = op.machine();
            m.held = false;
            m.queue.pop_front()
        };
        if let Some(p) = next {
            op.wake_at(p, now + 5);
        }
    });
}

pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}
