//! The cooperative execution backend: a single-threaded event loop driving
//! simulated processors as resumable stackful coroutines.
//!
//! The scheduler state ([`Sched`]) and the turn rule are shared verbatim
//! with the threaded engine (`engine.rs`): the Ready processor with the
//! minimum effective clock (ties by id) executes the next sync operation.
//! The only difference is the mechanism. Where the threaded engine parks a
//! processor's OS thread on a condition variable, this engine suspends the
//! processor's coroutine and returns control to one event loop that resumes
//! whichever processor's turn is next. One host core therefore executes any
//! cluster size with zero synchronization — no mutex, no condvars, no kernel
//! round trips — which is what makes 256-node runs practical.
//!
//! Yield points are exactly the threaded engine's wait points:
//!
//! * inside [`Ctx::sync`], while it is not this processor's turn;
//! * inside [`Ctx::sync`], while the processor is blocked awaiting
//!   [`Op::wake_at`].
//!
//! [`Ctx::advance`] never yields in either engine (local compute needs no
//! global order), and stolen cycles are folded at the same points, so op
//! order, clocks, traces and reports are byte-identical across engines;
//! `tests/cross_engine.rs` and the CI cross-engine stage enforce that.
//!
//! Panic semantics also mirror the threaded engine: a panicking processor
//! poisons the run, every other coroutine is force-unwound (running its
//! destructors), and the first panic propagates out of
//! [`CoopEngine::run`]. Watchdog verdicts (cycle budget, all-blocked
//! deadlock) are composed by the same code and compare byte-equal.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic;
use std::sync::Arc;

use tmk_trace::{Category, Sink, TraceBuf};

use crate::engine::{
    budget_msg, compose_abort, Ctx, DiagFn, Op, RunResult, Sched, State, Status, DEADLOCK_CAUSE,
};
use crate::Cycle;

/// Default coroutine stack size; override with
/// [`CoopEngine::with_stack_bytes`].
///
/// 2 MiB matches the default OS thread stack the threaded engine runs
/// bodies on. Stacks are lazily committed heap allocations, so a 256-node
/// run reserves address space, not resident memory.
const DEFAULT_STACK_BYTES: usize = 2 * 1024 * 1024;

/// The single-threaded cooperative engine. Drop-in alternative to
/// [`Engine`](crate::Engine): same constructor shape, same builders, same
/// [`run`](CoopEngine::run) contract, byte-identical results.
pub struct CoopEngine<M> {
    state: State<M>,
    diag: Option<DiagFn<M>>,
    nprocs: usize,
    stack_bytes: usize,
}

/// Per-run shared state: the scheduler core in a `RefCell` (everything runs
/// on one thread) plus each processor's yielder so `Ctx` methods can
/// suspend the coroutine they are called from.
pub(crate) struct CoopRun<M> {
    pub(crate) state: RefCell<State<M>>,
    diag: Option<DiagFn<M>>,
    yielders: Vec<Cell<Option<coro::Yielder>>>,
}

impl<M> CoopRun<M> {
    /// Suspends processor `id`'s coroutine; returns when the event loop
    /// resumes it. Callers must not hold a `state` borrow across this.
    fn suspend(&self, id: usize) {
        self.yielders[id]
            .get()
            .expect("yielder installed before first resume")
            .suspend();
    }
}

/// Raw-pointer wrapper used to move references into the (nominally `Send`)
/// coroutine closures. Sound: the coroutines run on the spawning thread and
/// are dropped before the referents. The accessor (not direct field access)
/// makes move closures capture the wrapper whole — edition-2021 disjoint
/// capture would otherwise capture only the non-`Send` pointer field.
struct SendPtr<T>(*const T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(self) -> *const T {
        self.0
    }
}

impl<M> CoopEngine<M> {
    /// Creates an engine simulating `nprocs` processors sharing `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero.
    pub fn new(machine: M, nprocs: usize) -> Self {
        assert!(nprocs > 0, "a simulation needs at least one processor");
        CoopEngine {
            state: State {
                machine,
                sched: Sched::new(nprocs),
            },
            diag: None,
            nprocs,
            stack_bytes: DEFAULT_STACK_BYTES,
        }
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// See [`Engine::with_cycle_budget`](crate::Engine::with_cycle_budget).
    pub fn with_cycle_budget(mut self, budget: Cycle) -> Self {
        self.state.sched.budget = Some(budget);
        self
    }

    /// See [`Engine::with_tracer`](crate::Engine::with_tracer).
    pub fn with_tracer(mut self, buf: Arc<TraceBuf>) -> Self {
        self.state.sched.tracer = Sink::new(buf);
        self
    }

    /// See [`Engine::with_diagnostics`](crate::Engine::with_diagnostics).
    pub fn with_diagnostics(mut self, f: impl Fn(&M) -> String + Send + Sync + 'static) -> Self {
        self.diag = Some(Box::new(f));
        self
    }

    /// See [`Engine::with_op_trace`](crate::Engine::with_op_trace).
    pub fn with_op_trace(mut self, on: bool) -> Self {
        self.state.sched.trace = on.then(Vec::new);
        self
    }

    /// Overrides the per-processor coroutine stack size (bytes).
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// Runs `body` SPMD-style on every simulated processor; see
    /// [`Engine::run`](crate::Engine::run) for the contract. The whole run
    /// executes on the calling thread.
    pub fn run<F>(self, body: F) -> RunResult<M>
    where
        F: Fn(&Ctx<'_, M>) + Send + Sync,
    {
        let CoopEngine {
            state,
            diag,
            nprocs,
            stack_bytes,
        } = self;
        let run = CoopRun {
            state: RefCell::new(state),
            diag,
            yielders: (0..nprocs).map(|_| Cell::new(None)).collect(),
        };

        let mut coros: Vec<coro::Coro> = (0..nprocs)
            .map(|id| {
                let run_ptr = SendPtr(&run as *const CoopRun<M>);
                let body_ptr = SendPtr(&body as *const F);
                // SAFETY: every coroutine is cancelled/dropped below, before
                // `run` and `body` go out of scope, and runs only on this
                // thread (the SendPtr wrappers never actually cross one).
                unsafe {
                    coro::Coro::new_unchecked(stack_bytes, move || {
                        let run = &*run_ptr.get();
                        let body = &*body_ptr.get();
                        body(&Ctx::for_coop(run, id, nprocs));
                    })
                }
            })
            .collect();
        for (id, c) in coros.iter().enumerate() {
            run.yielders[id].set(Some(c.yielder()));
        }

        // The event loop: resume whichever processor's turn it is, in
        // simulated-time order, until everyone finished or the run dies.
        enum Pick {
            Done,
            Run(usize),
            Deadlock,
        }
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        loop {
            let pick = {
                let st = run.state.borrow();
                if st.sched.all_done() {
                    Pick::Done
                } else {
                    match st.sched.min_ready() {
                        Some(p) => Pick::Run(p),
                        None => Pick::Deadlock,
                    }
                }
            };
            match pick {
                Pick::Done => break,
                Pick::Run(p) => match coros[p].resume() {
                    coro::Resume::Yielded => {}
                    coro::Resume::Finished(payload) => {
                        let mut st = run.state.borrow_mut();
                        st.sched.apply_stolen(p);
                        st.sched.status[p] = Status::Finished;
                        if let Some(payload) = payload {
                            st.sched.poisoned = true;
                            drop(st);
                            first_panic = Some(payload);
                            break;
                        }
                    }
                },
                Pick::Deadlock => {
                    // Nobody Ready, somebody Blocked: the same dead-cluster
                    // condition the threaded engine's notify_next detects.
                    let mut st = run.state.borrow_mut();
                    let msg = compose_abort(&st, run.diag.as_ref(), DEADLOCK_CAUSE);
                    st.sched.fatal = Some(msg.clone());
                    st.sched.poisoned = true;
                    drop(st);
                    first_panic = Some(Box::new(msg));
                    break;
                }
            }
        }

        // Unwind every still-live coroutine (in pid order, deterministic)
        // so their stacks run destructors and release their borrows of
        // `run`/`body`, then either propagate the failure or collect.
        for c in coros.iter_mut() {
            c.cancel();
        }
        drop(coros);

        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }

        let mut state = run.state.into_inner();
        debug_assert!(state.sched.all_done());
        // Same late-stolen fold as the threaded engine's run tail.
        for p in 0..nprocs {
            state.sched.apply_stolen(p);
        }
        RunResult {
            machine: state.machine,
            clocks: state.sched.clocks,
            op_trace: state.sched.trace.unwrap_or_default(),
        }
    }
}

/// Cooperative backend of [`Ctx::advance`]: identical bookkeeping to the
/// threaded version, minus the wakeup (the event loop re-evaluates the turn
/// whenever control returns to it).
pub(crate) fn ctx_advance<M>(run: &CoopRun<M>, id: usize, cycles: Cycle) {
    let mut st = run.state.borrow_mut();
    let sched = &mut st.sched;
    sched.apply_stolen(id);
    sched
        .tracer
        .charge_span(id, Category::Compute, sched.clocks[id], cycles);
    sched.clocks[id] += cycles;
}

/// Cooperative backend of [`Ctx::now`].
pub(crate) fn ctx_now<M>(run: &CoopRun<M>, id: usize) -> Cycle {
    run.state.borrow().sched.eff_clock(id)
}

/// Cooperative backend of [`Ctx::sync`]. Mirrors the threaded version
/// statement for statement; condvar waits become coroutine suspensions, and
/// no borrow of the run state is ever held across a suspension.
pub(crate) fn ctx_sync<M, R>(
    run: &CoopRun<M>,
    id: usize,
    nprocs: usize,
    f: impl FnOnce(&mut Op<'_, M>) -> R,
) -> R {
    {
        let mut st = run.state.borrow_mut();
        st.sched.apply_stolen(id);
        st.sched.waiting_turn[id] = true;
    }
    // Wait for our turn. No poison check: the event loop never resumes a
    // waiter after poisoning — it force-unwinds it instead.
    while !run.state.borrow().sched.is_turn(id) {
        run.suspend(id);
    }
    let (result, block) = {
        let mut guard = run.state.borrow_mut();
        let st = &mut *guard;
        st.sched.waiting_turn[id] = false;
        st.sched.op_active = true;
        // Fold stolen cycles at the same point the threaded engine does, so
        // the operation's start time is the effective clock.
        st.sched.apply_stolen(id);
        let clock_now = st.sched.clocks[id];
        if let Some(trace) = st.sched.trace.as_mut() {
            trace.push((id, clock_now));
        }
        if let Some(budget) = st.sched.budget {
            if clock_now > budget {
                st.sched.op_active = false;
                let msg = compose_abort(st, run.diag.as_ref(), &budget_msg(id, clock_now, budget));
                st.sched.fatal = Some(msg.clone());
                st.sched.poisoned = true;
                drop(guard);
                // Unwinds to the event loop, which propagates it; the
                // message matches the threaded engine's poison panic.
                panic!("{msg}");
            }
        }

        let mut op = Op {
            state: &mut *st,
            id,
            nprocs,
            block: false,
            block_reason: None,
        };
        let result = f(&mut op);
        let block = op.block;
        let block_reason = op.block_reason.take();

        st.sched.op_active = false;
        if block {
            st.sched.status[id] = Status::Blocked;
            st.sched.block_reason[id] = block_reason;
        }
        (result, block)
    };
    if block {
        while run.state.borrow().sched.status[id] == Status::Blocked {
            run.suspend(id);
        }
        run.state.borrow_mut().sched.apply_stolen(id);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{lock, panic_message, unlock, TestLock};

    #[test]
    fn single_proc_advances() {
        let engine = CoopEngine::new((), 1);
        let r = engine.run(|ctx| {
            ctx.advance(100);
            ctx.sync(|op| op.advance(10));
        });
        assert_eq!(r.time(), 110);
    }

    #[test]
    fn ops_execute_in_clock_order() {
        struct Log(Vec<(usize, Cycle)>);
        let engine = CoopEngine::new(Log(Vec::new()), 4);
        let r = engine.run(|ctx| {
            ctx.advance(10 * (4 - ctx.id() as Cycle));
            ctx.sync(|op| {
                let t = op.now();
                let id = op.id();
                op.machine().0.push((id, t));
            });
        });
        let order: Vec<usize> = r.machine.0.iter().map(|&(p, _)| p).collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
        let times: Vec<Cycle> = r.machine.0.iter().map(|&(_, t)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ties_break_by_processor_id() {
        struct Log(Vec<usize>);
        let engine = CoopEngine::new(Log(Vec::new()), 3);
        let r = engine.run(|ctx| {
            ctx.sync(|op| {
                let id = op.id();
                op.machine().0.push(id);
            });
        });
        assert_eq!(r.machine.0, vec![0, 1, 2]);
    }

    #[test]
    fn block_wake_lock_is_fifo_in_time_order() {
        let engine = CoopEngine::new(TestLock::default(), 4);
        let r = engine.run(|ctx| {
            ctx.advance(ctx.id() as Cycle);
            lock(ctx);
            ctx.advance(100);
            unlock(ctx);
        });
        assert_eq!(r.machine.acquisitions, vec![0, 1, 2, 3]);
        assert!(r.time() >= 300);
    }

    #[test]
    fn stolen_cycles_are_charged() {
        let engine = CoopEngine::new((), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                ctx.sync(|op| op.charge_remote(1, 500));
            } else {
                ctx.advance(10);
                ctx.sync(|_| ());
            }
        });
        assert_eq!(r.clocks[1], 510);
    }

    #[test]
    fn stolen_cycles_fold_in_before_an_op_starts() {
        let engine = CoopEngine::new((), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                ctx.sync(|op| {
                    op.charge_remote(1, 700);
                    op.advance(2000);
                });
            } else {
                ctx.advance(100);
                let started_at = ctx.sync(|op| op.now());
                assert_eq!(started_at, 800, "op starts at clock + stolen");
            }
        });
        assert_eq!(r.clocks[1], 800);
    }

    #[test]
    fn blocked_procs_are_excluded_from_the_minimum() {
        let engine = CoopEngine::new(TestLock::default(), 3);
        let r = engine.run(|ctx| {
            match ctx.id() {
                0 => {
                    lock(ctx);
                    ctx.advance(1_000);
                    unlock(ctx);
                }
                1 => {
                    ctx.advance(1);
                    lock(ctx);
                    unlock(ctx);
                }
                _ => {
                    ctx.advance(10);
                    ctx.sync(|op| op.advance(5));
                }
            }
        });
        assert!(r.clocks[2] < r.clocks[0]);
    }

    #[test]
    fn wake_at_never_moves_clocks_backwards() {
        let engine = CoopEngine::new(TestLock::default(), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                lock(ctx);
                ctx.advance(10);
                unlock(ctx);
            } else {
                ctx.advance(500);
                lock(ctx);
                unlock(ctx);
            }
        });
        assert!(r.clocks[1] >= 500);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = CoopEngine::new((), 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate_and_unwind_parked_processors() {
        let engine = CoopEngine::new((), 2);
        engine.run(|ctx| {
            if ctx.id() == 1 {
                ctx.advance(10); // panic second, with proc 0 parked
                panic!("boom");
            }
            // Processor 0 parks forever; cancellation must unwind it.
            ctx.sync(|op| op.block());
        });
    }

    #[test]
    fn unwound_processors_run_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 3).run(|ctx| {
                let _g = Guard;
                if ctx.id() == 2 {
                    ctx.advance(10);
                    panic!("die");
                }
                ctx.sync(|op| op.block());
            });
        });
        assert!(r.is_err());
        assert_eq!(DROPS.load(Ordering::SeqCst), 3, "every stack unwound");
    }

    #[test]
    fn deadlock_dump_names_blocked_processors_and_reasons() {
        let r = panic::catch_unwind(|| {
            let engine = CoopEngine::new((), 3)
                .with_diagnostics(|_| "  widget registry: empty\n".to_string());
            engine.run(|ctx| match ctx.id() {
                0 => ctx.advance(42),
                1 => {
                    ctx.sync(|op| op.block_on("lock 7 grant"));
                }
                _ => {
                    ctx.advance(9);
                    ctx.sync(|op| op.block());
                }
            });
        });
        let msg = panic_message(r.expect_err("must abort, not hang"));
        assert!(msg.contains("simulation deadlock"), "got: {msg}");
        assert!(msg.contains("p0: finished @ cycle 42"), "got: {msg}");
        assert!(
            msg.contains("p1: blocked @ cycle 0, waiting on lock 7 grant"),
            "got: {msg}"
        );
        assert!(msg.contains("p2: blocked @ cycle 9"), "got: {msg}");
        assert!(msg.contains("widget registry: empty"), "got: {msg}");
    }

    #[test]
    fn single_blocked_processor_aborts_immediately() {
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 1).run(|ctx| ctx.sync(|op| op.block_on("a wakeup that never comes")));
        });
        let msg = panic_message(r.expect_err("must abort"));
        assert!(msg.contains("a wakeup that never comes"), "got: {msg}");
    }

    #[test]
    fn cycle_budget_catches_livelock() {
        let r = panic::catch_unwind(|| {
            let engine = CoopEngine::new((), 2).with_cycle_budget(10_000);
            engine.run(|ctx| loop {
                ctx.sync(|op| op.advance(100));
            });
        });
        let msg = panic_message(r.expect_err("budget must fire"));
        assert!(msg.contains("passed the cycle budget"), "got: {msg}");
        assert!(msg.contains("10000"), "got: {msg}");
    }

    #[test]
    fn budget_does_not_fire_below_threshold() {
        let engine = CoopEngine::new((), 2).with_cycle_budget(1_000_000);
        let r = engine.run(|ctx| {
            for _ in 0..10 {
                ctx.sync(|op| op.advance(10));
            }
        });
        assert_eq!(r.time(), 100);
    }

    // ---- cross-engine parity -----------------------------------------

    /// The lock-contention workload both engines must agree on, bit for bit.
    fn contended_run(kind: crate::EngineKind) -> (Vec<usize>, Vec<Cycle>, Vec<(usize, Cycle)>) {
        let engine = crate::AnyEngine::new(kind, TestLock::default(), 8).with_op_trace(true);
        let r = engine.run(|ctx| {
            for _ in 0..50 {
                ctx.advance((ctx.id() as Cycle * 7) % 13 + 1);
                lock(ctx);
                ctx.advance(3);
                unlock(ctx);
            }
        });
        (r.machine.acquisitions, r.clocks, r.op_trace)
    }

    #[test]
    fn deterministic_across_runs_and_identical_to_threaded() {
        let coop_a = contended_run(crate::EngineKind::Coop);
        let coop_b = contended_run(crate::EngineKind::Coop);
        assert_eq!(coop_a, coop_b, "coop engine must be deterministic");
        let threaded = contended_run(crate::EngineKind::Threaded);
        assert_eq!(
            coop_a, threaded,
            "coop and threaded engines must agree on acquisitions, clocks and op trace"
        );
    }

    #[test]
    fn stolen_cycle_accounting_matches_threaded() {
        let run = |kind| {
            let engine = crate::AnyEngine::new(kind, (), 4);
            engine
                .run(|ctx| {
                    for i in 0..20 {
                        ctx.advance(ctx.id() as Cycle + 1);
                        ctx.sync(|op| {
                            let target = (op.id() + 1) % op.nprocs();
                            op.charge_remote(target, 50 + i);
                            op.advance(7);
                        });
                    }
                })
                .clocks
        };
        assert_eq!(run(crate::EngineKind::Coop), run(crate::EngineKind::Threaded));
    }

    #[test]
    fn deadlock_verdicts_match_threaded_byte_for_byte() {
        let verdict = |kind| {
            let r = panic::catch_unwind(|| {
                crate::AnyEngine::new(kind, (), 3)
                    .with_diagnostics(|_| "  registry: 3 widgets\n".to_string())
                    .run(|ctx| match ctx.id() {
                        0 => ctx.advance(42),
                        1 => {
                            ctx.sync(|op| op.block_on("lock 7 grant"));
                        }
                        _ => {
                            ctx.advance(9);
                            ctx.sync(|op| op.block());
                        }
                    });
            });
            panic_message(r.expect_err("must abort"))
        };
        assert_eq!(
            verdict(crate::EngineKind::Coop),
            verdict(crate::EngineKind::Threaded)
        );
    }

    #[test]
    fn budget_verdicts_match_threaded_byte_for_byte() {
        let verdict = |kind| {
            let r = panic::catch_unwind(|| {
                crate::AnyEngine::new(kind, (), 2)
                    .with_cycle_budget(10_000)
                    .run(|ctx| loop {
                        ctx.sync(|op| op.advance(100));
                    });
            });
            panic_message(r.expect_err("budget must fire"))
        };
        assert_eq!(
            verdict(crate::EngineKind::Coop),
            verdict(crate::EngineKind::Threaded)
        );
    }

    #[test]
    fn many_processors_complete_on_one_thread() {
        // 300 simulated processors: far beyond what per-proc threads would
        // tolerate cheaply; the coop engine must handle it in-process.
        let engine = CoopEngine::new(TestLock::default(), 300).with_stack_bytes(64 * 1024);
        let r = engine.run(|ctx| {
            ctx.advance((ctx.id() as Cycle) % 17);
            lock(ctx);
            ctx.advance(5);
            unlock(ctx);
        });
        assert_eq!(r.machine.acquisitions.len(), 300);
        assert_eq!(r.clocks.len(), 300);
    }

    #[test]
    fn engine_kind_parses_and_prints() {
        for kind in crate::EngineKind::ALL {
            assert_eq!(crate::EngineKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(crate::EngineKind::parse("bogus"), None);
        assert_eq!(crate::EngineKind::default(), crate::EngineKind::Coop);
    }
}
