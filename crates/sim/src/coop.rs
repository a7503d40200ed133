//! The conservative execution-driven engine: a single-threaded event loop
//! driving simulated processors as resumable stackful coroutines.
//!
//! [`Sched`] holds the clocks, the stolen-cycle ledger, each processor's
//! status, the watchdog and the trace sink. The turn rule: the Ready
//! processor with the minimum effective clock (ties by id) executes the next
//! sync operation. A processor's coroutine suspends at exactly two points,
//! both inside [`Ctx::sync`]:
//!
//! * while it is not this processor's turn;
//! * while the processor is blocked awaiting [`Op::wake_at`].
//!
//! Control then returns to the event loop in [`CoopEngine::run`], which
//! resumes whichever processor's turn is next. [`Ctx::advance`] never
//! suspends (local compute needs no global order). One host core therefore
//! executes any cluster size with no synchronization, which is what makes
//! 256-node runs practical.
//!
//! Because the minimum-clock processor always acts next, the op-start clocks
//! of a run ([`RunResult::op_trace`]) never decrease: conservative
//! simulation's own correctness condition, asserted by the tests below and
//! by `tests/engine_order.rs` on randomized DSM runs. `vendor/coro` has a
//! second context-switch implementation (`--cfg tmk_coro_threads`: one
//! parked OS thread per coroutine), and CI runs the workspace tests and the
//! quick tier on it, so every suspension point here has two implementations.
//!
//! A panicking processor ends the run: every other coroutine is force-unwound
//! (running its destructors), and the first panic propagates out of
//! [`CoopEngine::run`]. The watchdog verdicts (cycle budget, all-blocked
//! deadlock) carry a per-processor dump plus optional machine diagnostics.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic;
use std::sync::Arc;

use tmk_trace::{Category, Sink, TraceBuf};

use crate::Cycle;

/// Default coroutine stack size; override with
/// [`CoopEngine::with_stack_bytes`].
///
/// 2 MiB matches the default OS thread stack. Stacks are lazily committed
/// mappings, so a 256-node run reserves address space, not resident memory.
const DEFAULT_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Cause of the all-blocked deadlock verdict.
const DEADLOCK_CAUSE: &str = "simulation deadlock: all live processors are blocked \
     and no wakeup is pending (lost wakeup or lost message)";

/// Machine-state renderer appended to watchdog dumps.
type DiagFn<M> = Box<dyn Fn(&M) -> String + Send + Sync>;

/// A deterministic multiprocessor simulation.
///
/// `M` is the *machine model*: caches, buses, networks, protocol state,
/// statistics — anything the simulated processors share. The engine
/// guarantees that closures passed to [`Ctx::sync`] observe `M` in
/// simulated-time order.
///
/// The `Coop` in the name is kept for `benchmark/`, which names this type;
/// the rename goes in the next `[benchmark]` PR.
pub struct CoopEngine<M> {
    state: State<M>,
    diag: Option<DiagFn<M>>,
    nprocs: usize,
    stack_bytes: usize,
}

/// Per-processor handle passed to each simulated processor's body; it never
/// leaves that processor's coroutine.
pub struct Ctx<'e, M> {
    run: &'e CoopRun<M>,
    id: usize,
    nprocs: usize,
}

/// Exclusive view of the machine and scheduler during a [`Ctx::sync`]
/// operation. (`benchmark/` names this type.)
pub struct Op<'a, M> {
    state: &'a mut State<M>,
    id: usize,
    nprocs: usize,
    block: bool,
    block_reason: Option<String>,
}

/// The outcome of [`CoopEngine::run`]: the machine model plus final clocks.
#[derive(Debug)]
pub struct RunResult<M> {
    /// The machine model, with whatever statistics it accumulated.
    pub machine: M,
    /// Final per-processor clocks, in cycles.
    pub clocks: Vec<Cycle>,
    /// `(pid, clock)` at each sync-op start, when
    /// [`CoopEngine::with_op_trace`] armed it (else empty).
    pub op_trace: Vec<(usize, Cycle)>,
}

impl<M> RunResult<M> {
    /// Total simulated execution time: the clock of the slowest processor.
    pub fn time(&self) -> Cycle {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

struct State<M> {
    machine: M,
    sched: Sched,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Runnable: either executing local code or waiting for its sync turn.
    Ready,
    /// Waiting to be woken by another processor via [`Op::wake_at`].
    Blocked,
    /// Body returned.
    Finished,
}

struct Sched {
    /// Optional (pid, clock-at-op-start) trace, for debugging determinism.
    trace: Option<Vec<(usize, Cycle)>>,
    clocks: Vec<Cycle>,
    /// Cycles charged to a processor by remote request handlers, folded into
    /// its clock at its next scheduling point.
    stolen: Vec<Cycle>,
    status: Vec<Status>,
    /// What each blocked processor is waiting for ([`Op::block_on`]), for
    /// the watchdog dump.
    block_reason: Vec<Option<String>>,
    /// Watchdog: abort when any processor's clock passes this.
    budget: Option<Cycle>,
    /// Time-attribution sink ([`CoopEngine::with_tracer`]); disabled by
    /// default, in which case every charge below is a no-op.
    ///
    /// The attribution invariant (per-processor categories sum exactly to
    /// the final clock) holds by construction: every mutation of `clocks`
    /// goes through [`Ctx::advance`], [`Op::advance`]/[`Op::advance_as`],
    /// [`Sched::apply_stolen`] or [`Op::wake_at`], and each charges the
    /// sink *before* incrementing the clock (so spans start at the
    /// pre-increment time).
    tracer: Sink,
}

impl Sched {
    fn new(n: usize) -> Self {
        Sched {
            trace: None,
            clocks: vec![0; n],
            stolen: vec![0; n],
            status: vec![Status::Ready; n],
            block_reason: vec![None; n],
            budget: None,
            tracer: Sink::default(),
        }
    }

    /// The per-processor half of the watchdog dump.
    fn dump(&self) -> String {
        let mut s = String::new();
        for p in 0..self.clocks.len() {
            let state = match self.status[p] {
                Status::Ready => "ready",
                Status::Blocked => "blocked",
                Status::Finished => "finished",
            };
            s.push_str(&format!("  p{p}: {state} @ cycle {}", self.eff_clock(p)));
            if let Some(why) = self.block_reason[p].as_deref() {
                s.push_str(&format!(", waiting on {why}"));
            }
            s.push('\n');
        }
        s
    }

    fn eff_clock(&self, p: usize) -> Cycle {
        self.clocks[p] + self.stolen[p]
    }

    fn apply_stolen(&mut self, p: usize) {
        // Ledger only, no span event: the stolen total is what is simulated;
        // how many folds it takes is bookkeeping a span would expose.
        self.tracer.charge(p, Category::Stolen, self.stolen[p]);
        self.clocks[p] += self.stolen[p];
        self.stolen[p] = 0;
    }

    /// The processor that should execute the next sync operation: the Ready
    /// processor with the minimum effective clock (ties broken by id).
    /// Returns `None` when no processor is Ready.
    fn min_ready(&self) -> Option<usize> {
        let mut best: Option<(Cycle, usize)> = None;
        for p in 0..self.clocks.len() {
            if self.status[p] == Status::Ready {
                let c = self.eff_clock(p);
                if best.is_none_or(|(bc, bp)| c < bc || (c == bc && p < bp)) {
                    best = Some((c, p));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    fn all_done(&self) -> bool {
        self.status.iter().all(|&s| s == Status::Finished)
    }
}

/// Per-run shared state: the scheduler core plus each processor's yielder,
/// so `Ctx` methods can suspend the coroutine they are called from. Only one
/// of {event loop, one coroutine} ever runs at a time (see [`SendPtr`]), so
/// `RefCell`/`Cell` suffice; no borrow is held across a suspension.
struct CoopRun<M> {
    state: RefCell<State<M>>,
    diag: Option<DiagFn<M>>,
    yielders: Vec<Cell<Option<coro::Yielder>>>,
}

impl<M> CoopRun<M> {
    /// Suspends processor `id`'s coroutine; returns when the event loop
    /// resumes it.
    fn suspend(&self, id: usize) {
        self.yielders[id]
            .get()
            .expect("yielder installed before first resume")
            .suspend();
    }

    /// The full watchdog verdict: cause, per-processor dump, optional
    /// machine diagnostics.
    fn verdict(&self, state: &State<M>, cause: &str) -> String {
        let mut msg = format!("{cause}\n{}", state.sched.dump());
        if let Some(diag) = &self.diag {
            msg.push_str("machine diagnostics:\n");
            msg.push_str(&diag(&state.machine));
        }
        msg
    }
}

/// Raw-pointer wrapper that moves `&CoopRun<M>` and `&F` into the coroutine
/// closures, which `coro::Coro` requires to be `Send`. The accessor (not
/// direct field access) makes move closures capture the wrapper whole —
/// edition-2021 disjoint capture would otherwise capture only the non-`Send`
/// pointer field.
struct SendPtr<T>(*const T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: on the default build every coroutine runs on the thread that
// called `CoopEngine::run`. Under `--cfg tmk_coro_threads` each coroutine
// runs on its own OS thread and touches `CoopRun`'s `RefCell`/`Cell`s and
// the machine from there. That is sound because `coro`'s handoff lets
// exactly one of {owner, coroutine} run at a time, and its mutex
// release/acquire orders every access before the next party's: state moves
// between threads but is never accessed concurrently. What moves is the
// machine (`run` requires `M: Send`), the body (`F: Send + Sync`), the
// `Send + Sync` diagnostics and trace sink, and the yielders, which the
// fallback only uses from the coroutine they belong to.
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

    /// Arms the watchdog's cycle budget: the simulation aborts with a
    /// diagnostic dump if any processor's clock passes `budget` (livelock
    /// protection; deadlocks are caught unconditionally).
    pub fn with_cycle_budget(mut self, budget: Cycle) -> Self {
        self.state.sched.budget = Some(budget);
        self
    }

    /// Attaches a time-attribution tracer: every simulated cycle of every
    /// processor is charged to a `tmk_trace::Category` as the clocks
    /// advance, and (when the buffer keeps events) category spans appear
    /// on the processors' trace tracks. Tracing never alters clocks, so a
    /// traced run is cycle-identical to an untraced one.
    pub fn with_tracer(mut self, buf: Arc<TraceBuf>) -> Self {
        self.state.sched.tracer = Sink::new(buf);
        self
    }

    /// Installs a machine-state renderer appended to the watchdog's
    /// per-processor dump (lock holders, barrier occupancy, …).
    pub fn with_diagnostics(mut self, f: impl Fn(&M) -> String + Send + Sync + 'static) -> Self {
        self.diag = Some(Box::new(f));
        self
    }

    /// Turns the per-op `(pid, clock)` trace ([`RunResult::op_trace`]) on
    /// or off; it is off unless armed here.
    pub fn with_op_trace(mut self, on: bool) -> Self {
        self.state.sched.trace = on.then(Vec::new);
        self
    }

    /// Overrides the per-processor coroutine stack size (bytes).
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// Runs `body` SPMD-style on every simulated processor and returns the
    /// machine plus final clocks once all bodies have returned.
    ///
    /// # Panics
    ///
    /// If any body panics, or the watchdog fires, every other processor is
    /// unwound and the first panic is propagated.
    pub fn run<F>(self, body: F) -> RunResult<M>
    where
        M: Send,
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
                // SAFETY: `coros` is dropped below, before `run` and `body`
                // go out of scope, so the borrows whose lifetime
                // `new_unchecked` erases never dangle; `SendPtr` says why
                // using them from a coroutine's thread is sound.
                unsafe {
                    coro::Coro::new_unchecked(stack_bytes, move || {
                        let ctx = Ctx {
                            run: &*run_ptr.get(),
                            id,
                            nprocs,
                        };
                        (*body_ptr.get())(&ctx);
                    })
                }
            })
            .collect();
        for (id, c) in coros.iter().enumerate() {
            run.yielders[id].set(Some(c.yielder()));
        }

        // The event loop: resume whichever processor's turn it is, in
        // simulated-time order, until everyone finished or the run dies.
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        loop {
            let next = {
                let st = run.state.borrow();
                if st.sched.all_done() {
                    break;
                }
                st.sched.min_ready()
            };
            let Some(p) = next else {
                // Nobody Ready, somebody Blocked: with every live processor
                // parked, no future event can wake anyone.
                let msg = run.verdict(&run.state.borrow(), DEADLOCK_CAUSE);
                first_panic = Some(Box::new(msg));
                break;
            };
            if let coro::Resume::Finished(payload) = coros[p].resume() {
                run.state.borrow_mut().sched.status[p] = Status::Finished;
                if payload.is_some() {
                    first_panic = payload;
                    break;
                }
            }
        }

        // Dropping a coroutine force-unwinds it: every still-live stack
        // runs its destructors (in pid order) and releases its borrows of
        // `run`/`body`.
        drop(coros);
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }

        let mut state = run.state.into_inner();
        debug_assert!(state.sched.all_done());
        // A handler may charge a processor after it finished; fold the
        // remainder in so the reported clocks are clocks + stolen.
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

impl<M> Ctx<'_, M> {
    /// This processor's id, in `0..nprocs`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charges `cycles` of purely local computation to this processor.
    ///
    /// Local time advances without waiting for other processors; ordering is
    /// only enforced for [`sync`](Self::sync) operations.
    pub fn advance(&self, cycles: Cycle) {
        let mut st = self.run.state.borrow_mut();
        let sched = &mut st.sched;
        sched.apply_stolen(self.id);
        sched
            .tracer
            .charge_span(self.id, Category::Compute, sched.clocks[self.id], cycles);
        sched.clocks[self.id] += cycles;
    }

    /// Current local clock (effective, including pending stolen cycles).
    pub fn now(&self) -> Cycle {
        self.run.state.borrow().sched.eff_clock(self.id)
    }

    /// Executes a globally ordered operation against the machine model.
    ///
    /// The closure runs when this processor holds the minimum effective
    /// clock among runnable processors, with exclusive access to the machine.
    /// If the closure calls [`Op::block`], this processor parks after the
    /// closure returns and `sync` only returns once another processor wakes
    /// it via [`Op::wake_at`]; callers typically loop, re-examining machine
    /// state on each iteration.
    ///
    /// # Panics
    ///
    /// Panics with the watchdog verdict if this processor's clock passed the
    /// cycle budget. Must not be called reentrantly from inside an `Op`
    /// closure (the run state is already borrowed).
    pub fn sync<R>(&self, f: impl FnOnce(&mut Op<'_, M>) -> R) -> R {
        let (run, id) = (self.run, self.id);
        // Wait for our turn. No poison check: the event loop never resumes a
        // processor after the run died — it force-unwinds it instead.
        while run.state.borrow().sched.min_ready() != Some(id) {
            run.suspend(id);
        }
        let mut guard = run.state.borrow_mut();
        let st = &mut *guard;
        // Stolen cycles fold in here, so the operation starts at the
        // effective clock.
        st.sched.apply_stolen(id);
        let clock_now = st.sched.clocks[id];
        if let Some(trace) = st.sched.trace.as_mut() {
            trace.push((id, clock_now));
        }
        if let Some(budget) = st.sched.budget.filter(|&b| clock_now > b) {
            // Livelock watchdog: this processor ran past the cycle budget
            // (e.g. an endless fault-retry loop). The panic unwinds to the
            // event loop, which takes the whole run down with it.
            let cause = format!(
                "simulation watchdog: processor {id} passed the cycle \
                 budget ({clock_now} > {budget}) — livelock or runaway run"
            );
            let msg = run.verdict(st, &cause);
            drop(guard);
            panic!("{msg}");
        }

        let mut op = Op {
            state: &mut *st,
            id,
            nprocs: self.nprocs,
            block: false,
            block_reason: None,
        };
        let result = f(&mut op);
        let Op {
            block,
            block_reason,
            ..
        } = op;
        if block {
            st.sched.status[id] = Status::Blocked;
            st.sched.block_reason[id] = block_reason;
            drop(guard);
            while run.state.borrow().sched.status[id] == Status::Blocked {
                run.suspend(id);
            }
        }
        result
    }
}

impl<M> Op<'_, M> {
    /// The processor executing this operation.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Exclusive access to the machine model.
    pub fn machine(&mut self) -> &mut M {
        &mut self.state.machine
    }

    /// This processor's clock.
    pub fn now(&self) -> Cycle {
        self.state.sched.clocks[self.id]
    }

    /// Charges `cycles` to this processor as part of the operation,
    /// attributed as computation.
    pub fn advance(&mut self, cycles: Cycle) {
        self.advance_as(Category::Compute, cycles);
    }

    /// Charges `cycles` to this processor, attributed to `cat` (the
    /// machine layers split an operation's latency into memory-stall,
    /// protocol, synchronization-idle and network portions).
    pub fn advance_as(&mut self, cat: Category, cycles: Cycle) {
        let sched = &mut self.state.sched;
        sched
            .tracer
            .charge_span(self.id, cat, sched.clocks[self.id], cycles);
        sched.clocks[self.id] += cycles;
    }

    /// The trace sink, for machine layers that log protocol/network
    /// instants (no-op when tracing is disabled).
    pub fn tracer(&self) -> &Sink {
        &self.state.sched.tracer
    }

    /// Charges `cycles` of request-servicing overhead to a remote processor.
    ///
    /// The cycles are folded into `pid`'s clock at its next scheduling point
    /// — the standard execution-driven approximation for asynchronous
    /// message handlers stealing time from the computation.
    pub fn charge_remote(&mut self, pid: usize, cycles: Cycle) {
        if pid == self.id {
            // Servicing one's own request is still handler work, so it is
            // attributed as stolen time either way.
            self.advance_as(Category::Stolen, cycles);
        } else {
            self.state.sched.stolen[pid] += cycles;
        }
    }

    /// Parks this processor after the closure returns; see [`Ctx::sync`].
    pub fn block(&mut self) {
        self.block = true;
    }

    /// Like [`block`](Self::block), recording what the processor is waiting
    /// for — named in the watchdog's diagnostic dump if the wakeup never
    /// comes.
    pub fn block_on(&mut self, reason: impl Into<String>) {
        self.block = true;
        self.block_reason = Some(reason.into());
    }

    /// Wakes a processor blocked via [`Op::block`], setting its clock to at
    /// least `at` (e.g. the simulated time a lock grant or barrier release
    /// message arrives).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not currently blocked — that is a machine-model
    /// bug (waking a runnable processor would corrupt its clock).
    pub fn wake_at(&mut self, pid: usize, at: Cycle) {
        let sched = &mut self.state.sched;
        assert!(
            sched.status[pid] == Status::Blocked,
            "wake_at({pid}): processor is not blocked"
        );
        sched.apply_stolen(pid);
        // The gap between the sleeper's frozen clock and its wake time is
        // synchronization idling (lock-wait, barrier-wait). The sleeper is
        // suspended inside `sync`, so writing to its track cannot race.
        let gap = at.saturating_sub(sched.clocks[pid]);
        sched
            .tracer
            .charge_span(pid, Category::SyncIdle, sched.clocks[pid], gap);
        sched.clocks[pid] = sched.clocks[pid].max(at);
        sched.status[pid] = Status::Ready;
        sched.block_reason[pid] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A tiny spin-free lock implemented with block/wake (the pattern the
    /// machine crates use).
    #[derive(Default)]
    struct TestLock {
        held: bool,
        queue: VecDeque<usize>,
        acquisitions: Vec<usize>,
    }

    fn lock(ctx: &Ctx<'_, TestLock>) {
        while !ctx.sync(|op| {
            let me = op.id();
            let m = op.machine();
            if !m.held {
                m.held = true;
                m.acquisitions.push(me);
                true
            } else {
                m.queue.push_back(me);
                op.block();
                false
            }
        }) {}
    }

    fn unlock(ctx: &Ctx<'_, TestLock>) {
        ctx.sync(|op| {
            let now = op.now();
            let m = op.machine();
            m.held = false;
            if let Some(p) = m.queue.pop_front() {
                op.wake_at(p, now + 5);
            }
        });
    }

    fn panic_message(p: Box<dyn Any + Send>) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

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
            // Give each processor a distinct clock, then record op order.
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
            ctx.advance(ctx.id() as Cycle); // stagger arrival
            lock(ctx);
            ctx.advance(100); // hold for a while
            unlock(ctx);
        });
        assert_eq!(r.machine.acquisitions, vec![0, 1, 2, 3]);
        // Each holder kept the lock for 100 cycles plus 5 cycles grant
        // latency; the last acquirer finishes around 3*105.
        assert!(r.time() >= 300);
    }

    #[test]
    fn stolen_cycles_are_charged() {
        let engine = CoopEngine::new((), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                // Runs first (clock 0 < 10): steal 500 cycles from proc 1.
                ctx.sync(|op| op.charge_remote(1, 500));
            } else {
                ctx.advance(10);
                // Waits for proc 0's op, then folds the stolen cycles in.
                ctx.sync(|_| ());
            }
        });
        assert_eq!(r.clocks[1], 510);
    }

    #[test]
    fn stolen_cycles_fold_in_before_an_op_starts() {
        // B waits for its turn while A (the min-clock processor) steals
        // cycles from it; B's operation must start at its effective clock.
        let engine = CoopEngine::new((), 2);
        let r = engine.run(|ctx| {
            if ctx.id() == 0 {
                ctx.sync(|op| {
                    op.charge_remote(1, 700);
                    op.advance(2000); // move past B so B runs next
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
        // A blocked processor's frozen clock must not gate others.
        let engine = CoopEngine::new(TestLock::default(), 3);
        let r = engine.run(|ctx| {
            match ctx.id() {
                0 => {
                    lock(ctx); // holds the lock first (clock 0)
                    ctx.advance(1_000);
                    unlock(ctx);
                }
                1 => {
                    ctx.advance(1); // arrives second
                    lock(ctx); // blocks at clock 1 while 0 works
                    unlock(ctx);
                }
                _ => {
                    // Must be able to run ops while 1 is blocked at clock 1.
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
                unlock(ctx); // grant at ~15, but proc 1 blocked at 500
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

    /// Three processors: one finishes, two block (one with a reason) and
    /// nothing can wake them.
    fn deadlocked(diag: &'static str) -> String {
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 3)
                .with_diagnostics(move |_| diag.to_string())
                .run(|ctx| match ctx.id() {
                    0 => ctx.advance(42), // finishes
                    1 => {
                        ctx.sync(|op| op.block_on("lock 7 grant"));
                    }
                    _ => {
                        ctx.advance(9);
                        ctx.sync(|op| op.block()); // no reason recorded
                    }
                });
        });
        panic_message(r.expect_err("must abort, not hang"))
    }

    #[test]
    fn deadlock_dump_names_blocked_processors_and_reasons() {
        let msg = deadlocked("  widget registry: empty\n");
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
    fn deadlock_verdict_is_pinned() {
        // Recorded where the retired threaded engine and this one agreed.
        assert_eq!(
            deadlocked("  registry: 3 widgets\n"),
            "simulation deadlock: all live processors are blocked and no wakeup is pending \
             (lost wakeup or lost message)\n  p0: finished @ cycle 42\n  p1: blocked @ cycle 0, \
             waiting on lock 7 grant\n  p2: blocked @ cycle 9\nmachine diagnostics:\n  \
             registry: 3 widgets\n"
        );
    }

    #[test]
    fn single_blocked_processor_aborts_immediately() {
        let r = panic::catch_unwind(|| {
            CoopEngine::new((), 1)
                .run(|ctx| ctx.sync(|op| op.block_on("a wakeup that never comes")));
        });
        let msg = panic_message(r.expect_err("must abort"));
        assert!(msg.contains("a wakeup that never comes"), "got: {msg}");
    }

    /// A two-processor ping-pong that never blocks: only a budget of 10 000
    /// cycles can stop it.
    fn budget_verdict() -> String {
        let r = panic::catch_unwind(|| {
            let engine = CoopEngine::new((), 2).with_cycle_budget(10_000);
            engine.run(|ctx| loop {
                ctx.sync(|op| op.advance(100));
            });
        });
        panic_message(r.expect_err("budget must fire"))
    }

    #[test]
    fn cycle_budget_catches_livelock() {
        let msg = budget_verdict();
        assert!(msg.contains("passed the cycle budget"), "got: {msg}");
        assert!(msg.contains("10000"), "got: {msg}");
    }

    #[test]
    fn budget_verdict_is_pinned() {
        // Recorded where the retired threaded engine and this one agreed.
        assert_eq!(
            budget_verdict(),
            "simulation watchdog: processor 0 passed the cycle budget (10100 > 10000) — \
             livelock or runaway run\n  p0: ready @ cycle 10100\n  p1: ready @ cycle 10100\n"
        );
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

    /// Eight processors contending for one lock, each op also charging
    /// handler time to a neighbour when `steal` is set.
    fn contended_run(steal: bool) -> RunResult<TestLock> {
        let engine = CoopEngine::new(TestLock::default(), 8).with_op_trace(true);
        engine.run(|ctx| {
            for i in 0..50 {
                ctx.advance((ctx.id() as Cycle * 7) % 13 + 1);
                lock(ctx);
                ctx.advance(3);
                if steal {
                    ctx.sync(|op| op.charge_remote((op.id() + 1) % op.nprocs(), 20 + i));
                }
                unlock(ctx);
            }
        })
    }

    #[test]
    fn deterministic_across_runs() {
        let fingerprint = |r: RunResult<TestLock>| (r.machine.acquisitions, r.clocks, r.op_trace);
        assert_eq!(
            fingerprint(contended_run(false)),
            fingerprint(contended_run(false))
        );
    }

    #[test]
    fn op_start_clocks_never_decrease() {
        // Conservative simulation's correctness condition, under blocking,
        // wakeups and stolen cycles all at once.
        let r = contended_run(true);
        assert!(r.op_trace.len() >= 8 * 50 * 3, "every op traced");
        assert!(
            r.op_trace.windows(2).all(|w| w[0].1 <= w[1].1),
            "op-start clocks decreased"
        );
    }

    #[test]
    fn stolen_cycle_accounting_is_pinned() {
        let r = CoopEngine::new((), 4).run(|ctx| {
            for i in 0..20 {
                ctx.advance(ctx.id() as Cycle + 1);
                ctx.sync(|op| {
                    let target = (op.id() + 1) % op.nprocs();
                    op.charge_remote(target, 50 + i);
                    op.advance(7);
                });
            }
        });
        // Recorded where the retired threaded engine and this one agreed.
        assert_eq!(r.clocks, vec![1350, 1370, 1390, 1410]);
    }

    #[test]
    fn many_processors_complete_on_one_thread() {
        // 300 simulated processors: far beyond what per-proc threads would
        // tolerate cheaply; the event loop must handle it in-process.
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
}
