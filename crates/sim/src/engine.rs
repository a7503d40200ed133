//! The conservative execution-driven engine: scheduler core shared by both
//! execution backends, plus the threaded backend itself.
//!
//! See the crate-level docs for the execution model. [`Sched`]/[`State`] hold
//! everything both backends agree on — clocks, stolen-cycle ledger, turn
//! order, watchdog state, trace sink. The threaded [`Engine`] runs one OS
//! thread per simulated processor with all shared state under one mutex and
//! one condition variable per processor for targeted wakeups; the
//! single-threaded [`CoopEngine`](crate::CoopEngine) in `coop.rs` drives the
//! same scheduler from an event loop over stackful coroutines.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use tmk_trace::{Category, Sink, TraceBuf};

use crate::Cycle;

/// Machine-state renderer appended to watchdog dumps.
pub(crate) type DiagFn<M> = Box<dyn Fn(&M) -> String + Send + Sync>;

/// Cause string for the all-blocked deadlock verdict, shared verbatim by
/// both engines so their abort messages compare byte-equal.
pub(crate) const DEADLOCK_CAUSE: &str = "simulation deadlock: all live processors are blocked \
     and no wakeup is pending (lost wakeup or lost message)";

/// Cause string for the cycle-budget (livelock) verdict; shared by both
/// engines for the same reason.
pub(crate) fn budget_msg(id: usize, clock_now: Cycle, budget: Cycle) -> String {
    format!(
        "simulation watchdog: processor {id} passed the cycle \
         budget ({clock_now} > {budget}) — livelock or runaway run"
    )
}

/// Renders the full watchdog verdict: cause, per-processor dump, optional
/// machine diagnostics. Both engines emit exactly this.
pub(crate) fn compose_abort<M>(
    state: &State<M>,
    diag: Option<&DiagFn<M>>,
    cause: &str,
) -> String {
    let mut msg = format!("{cause}\n{}", state.sched.dump());
    if let Some(diag) = diag {
        msg.push_str("machine diagnostics:\n");
        msg.push_str(&diag(&state.machine));
    }
    msg
}

/// A deterministic multiprocessor simulation.
///
/// `M` is the *machine model*: caches, buses, networks, protocol state,
/// statistics — anything the simulated processors share. The engine
/// guarantees that closures passed to [`Ctx::sync`] observe `M` in
/// simulated-time order.
pub struct Engine<M> {
    inner: Arc<Inner<M>>,
    nprocs: usize,
}

/// Per-processor handle passed to each simulated processor's body.
///
/// Cloning is not offered: one `Ctx` per processor, used from that
/// processor's thread only.
pub struct Ctx<'e, M> {
    backend: Backend<'e, M>,
    id: usize,
    nprocs: usize,
}

/// Which engine a [`Ctx`] talks to. The threaded backend reaches shared
/// state through the engine mutex; the cooperative backend reaches the
/// single-threaded run state and suspends its coroutine instead of parking
/// a thread.
enum Backend<'e, M> {
    Threaded(&'e Inner<M>),
    Coop(&'e crate::coop::CoopRun<M>),
}

/// Exclusive view of the machine and scheduler during a [`Ctx::sync`]
/// operation.
pub struct Op<'a, M> {
    pub(crate) state: &'a mut State<M>,
    pub(crate) id: usize,
    pub(crate) nprocs: usize,
    pub(crate) block: bool,
    pub(crate) block_reason: Option<String>,
}

/// The outcome of [`Engine::run`]: the machine model plus final clocks.
#[derive(Debug)]
pub struct RunResult<M> {
    /// The machine model, with whatever statistics it accumulated.
    pub machine: M,
    /// Final per-processor clocks, in cycles.
    pub clocks: Vec<Cycle>,
    /// `(pid, clock)` at each sync-op start, when
    /// [`Engine::with_op_trace`] armed it (else empty).
    pub op_trace: Vec<(usize, Cycle)>,
}

impl<M> RunResult<M> {
    /// Total simulated execution time: the clock of the slowest processor.
    pub fn time(&self) -> Cycle {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

struct Inner<M> {
    state: Mutex<State<M>>,
    cvs: Box<[Condvar]>,
    /// Renders machine state for the watchdog's diagnostic dump
    /// ([`Engine::with_diagnostics`]).
    diag: Option<DiagFn<M>>,
}

pub(crate) struct State<M> {
    pub(crate) machine: M,
    pub(crate) sched: Sched,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    /// Runnable: either executing local code or waiting for its sync turn.
    Ready,
    /// Waiting to be woken by another processor via [`Op::wake_at`].
    Blocked,
    /// Body returned.
    Finished,
}

pub(crate) struct Sched {
    /// Optional (pid, clock-at-op-start) trace, for debugging determinism.
    pub(crate) trace: Option<Vec<(usize, Cycle)>>,
    pub(crate) clocks: Vec<Cycle>,
    /// Cycles charged to a processor by remote request handlers, folded into
    /// its clock at its next scheduling point.
    pub(crate) stolen: Vec<Cycle>,
    pub(crate) status: Vec<Status>,
    /// What each blocked processor is waiting for ([`Op::block_on`]), for
    /// the watchdog dump.
    pub(crate) block_reason: Vec<Option<String>>,
    /// Processors parked inside `sync` waiting for their turn.
    pub(crate) waiting_turn: Vec<bool>,
    /// A processor is currently executing a sync operation.
    pub(crate) op_active: bool,
    pub(crate) poisoned: bool,
    /// Watchdog: abort when any processor's clock passes this.
    pub(crate) budget: Option<Cycle>,
    /// Watchdog verdict; doubles as the panic message of every processor
    /// unwound by it.
    pub(crate) fatal: Option<String>,
    /// Time-attribution sink ([`Engine::with_tracer`]); disabled by
    /// default, in which case every charge below is a no-op.
    ///
    /// The attribution invariant (per-processor categories sum exactly to
    /// the final clock) holds by construction: every mutation of `clocks`
    /// goes through [`Ctx::advance`], [`Op::advance`]/[`Op::advance_as`],
    /// [`Sched::apply_stolen`] or [`Op::wake_at`], and each charges the
    /// sink *before* incrementing the clock (so spans start at the
    /// pre-increment time).
    pub(crate) tracer: Sink,
}

impl Sched {
    pub(crate) fn new(n: usize) -> Self {
        Sched {
            trace: None,
            clocks: vec![0; n],
            stolen: vec![0; n],
            status: vec![Status::Ready; n],
            block_reason: vec![None; n],
            waiting_turn: vec![false; n],
            op_active: false,
            poisoned: false,
            budget: None,
            fatal: None,
            tracer: Sink::default(),
        }
    }

    /// The per-processor half of the watchdog dump.
    pub(crate) fn dump(&self) -> String {
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

    /// The message every unwinding processor should panic with.
    pub(crate) fn poison_msg(&self) -> String {
        self.fatal
            .clone()
            .unwrap_or_else(|| "simulation poisoned by a panic on another processor".into())
    }

    pub(crate) fn eff_clock(&self, p: usize) -> Cycle {
        self.clocks[p] + self.stolen[p]
    }

    pub(crate) fn apply_stolen(&mut self, p: usize) {
        // Ledger only, no span event: the *total* stolen by handlers from
        // each processor is deterministic, but how many deposits a single
        // fold happens to collect depends on host thread interleaving, and
        // per-fold spans would make otherwise identical traces diverge.
        self.tracer.charge(p, Category::Stolen, self.stolen[p]);
        self.clocks[p] += self.stolen[p];
        self.stolen[p] = 0;
    }

    /// The processor that should execute the next sync operation: the Ready
    /// processor with the minimum effective clock (ties broken by id).
    /// Returns `None` when no processor is Ready.
    pub(crate) fn min_ready(&self) -> Option<usize> {
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

    /// May processor `p` execute a sync operation right now?
    pub(crate) fn is_turn(&self, p: usize) -> bool {
        !self.op_active && self.min_ready() == Some(p)
    }

    pub(crate) fn all_done(&self) -> bool {
        self.status.iter().all(|&s| s == Status::Finished)
    }
}

impl<M: Send> Engine<M> {
    /// Creates an engine simulating `nprocs` processors sharing `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero.
    pub fn new(machine: M, nprocs: usize) -> Self {
        assert!(nprocs > 0, "a simulation needs at least one processor");
        let cvs = (0..nprocs).map(|_| Condvar::new()).collect();
        Engine {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    machine,
                    sched: Sched::new(nprocs),
                }),
                cvs,
                diag: None,
            }),
            nprocs,
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
        let inner = Arc::get_mut(&mut self.inner).expect("configured before run");
        inner.state.get_mut().sched.budget = Some(budget);
        self
    }

    /// Attaches a time-attribution tracer: every simulated cycle of every
    /// processor is charged to a `tmk_trace::Category` as the clocks
    /// advance, and (when the buffer keeps events) category spans appear
    /// on the processors' trace tracks. Tracing never alters clocks, so a
    /// traced run is cycle-identical to an untraced one.
    pub fn with_tracer(mut self, buf: Arc<TraceBuf>) -> Self {
        let inner = Arc::get_mut(&mut self.inner).expect("configured before run");
        inner.state.get_mut().sched.tracer = Sink::new(buf);
        self
    }

    /// Installs a machine-state renderer appended to the watchdog's
    /// per-processor dump (lock holders, barrier occupancy, …).
    pub fn with_diagnostics(
        mut self,
        f: impl Fn(&M) -> String + Send + Sync + 'static,
    ) -> Self {
        let inner = Arc::get_mut(&mut self.inner).expect("configured before run");
        inner.diag = Some(Box::new(f));
        self
    }

    /// Turns the per-op `(pid, clock)` trace ([`RunResult::op_trace`]) on
    /// or off; it is off unless armed here.
    pub fn with_op_trace(mut self, on: bool) -> Self {
        let inner = Arc::get_mut(&mut self.inner).expect("configured before run");
        inner.state.get_mut().sched.trace = on.then(Vec::new);
        self
    }

    /// Runs `body` SPMD-style on every simulated processor and returns the
    /// machine plus final clocks once all bodies have returned.
    ///
    /// # Panics
    ///
    /// If any body panics the simulation is poisoned, all other processors
    /// are unwound, and the first panic is propagated.
    pub fn run<F>(self, body: F) -> RunResult<M>
    where
        F: Fn(&Ctx<'_, M>) + Send + Sync,
    {
        let nprocs = self.nprocs;
        let inner = &*self.inner;
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for id in 0..nprocs {
                let body = &body;
                let first_panic = &first_panic;
                scope.spawn(move || {
                    // Built inside the thread: a Ctx never crosses threads
                    // (the coop backend relies on that).
                    let ctx = Ctx {
                        backend: Backend::Threaded(inner),
                        id,
                        nprocs,
                    };
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                    let mut st = inner.state.lock();
                    st.sched.apply_stolen(id);
                    st.sched.status[id] = Status::Finished;
                    if let Err(payload) = outcome {
                        st.sched.poisoned = true;
                        let mut slot = first_panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        // Wake everyone so they can observe the poison.
                        for cv in inner.cvs.iter() {
                            cv.notify_all();
                        }
                    } else {
                        inner.notify_next(&mut st);
                    }
                });
            }
        });

        if let Some(payload) = first_panic.into_inner() {
            panic::resume_unwind(payload);
        }

        let inner = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| unreachable!("all processor threads have exited"));
        let mut state = inner.state.into_inner();
        debug_assert!(state.sched.all_done());
        // A remote handler may charge a processor after it finished and did
        // its last apply_stolen; fold the remainder in so the reported
        // clocks are host-schedule independent (clocks + stolen always is).
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

impl<M> Inner<M> {
    /// After scheduler state changed, wake the processor (if any) whose turn
    /// it now is, provided it is parked waiting for that turn. Also detects
    /// lost-wakeup deadlocks.
    fn notify_next(&self, st: &mut State<M>) {
        match st.sched.min_ready() {
            Some(p) => {
                if !st.sched.op_active && st.sched.waiting_turn[p] {
                    self.cvs[p].notify_one();
                }
            }
            None => {
                // No Ready processors. Fine if everyone finished; a dead
                // cluster (lost wakeup / lost message) if someone is still
                // Blocked: with every live processor parked and nothing in
                // flight inside a sync op, no future event can wake anyone.
                if !st.sched.poisoned
                    && st.sched.status.contains(&Status::Blocked)
                    && !st.sched.status.contains(&Status::Ready)
                {
                    self.watchdog_abort(st, DEADLOCK_CAUSE);
                }
            }
        }
    }

    /// Records the watchdog verdict (cause + per-processor dump + machine
    /// diagnostics), poisons the simulation and wakes every processor.
    /// Does not panic itself: every processor parked in [`Ctx::sync`]
    /// unwinds with the verdict as its panic message, which reaches the
    /// caller of [`Engine::run`] via the first-panic channel.
    fn watchdog_abort(&self, st: &mut State<M>, cause: &str) {
        let msg = compose_abort(st, self.diag.as_ref(), cause);
        st.sched.fatal = Some(msg);
        st.sched.poisoned = true;
        for cv in self.cvs.iter() {
            cv.notify_all();
        }
    }
}

impl<'e, M> Ctx<'e, M> {
    /// Builds the cooperative backend's processor handle (`coop.rs` only).
    pub(crate) fn for_coop(run: &'e crate::coop::CoopRun<M>, id: usize, nprocs: usize) -> Self {
        Ctx {
            backend: Backend::Coop(run),
            id,
            nprocs,
        }
    }

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
        match self.backend {
            Backend::Threaded(inner) => inner.ctx_advance(self.id, cycles),
            Backend::Coop(run) => crate::coop::ctx_advance(run, self.id, cycles),
        }
    }

    /// Current local clock (effective, including pending stolen cycles).
    pub fn now(&self) -> Cycle {
        match self.backend {
            Backend::Threaded(inner) => inner.state.lock().sched.eff_clock(self.id),
            Backend::Coop(run) => crate::coop::ctx_now(run, self.id),
        }
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
    /// Panics if the simulation was poisoned by a panic on another
    /// processor. Must not be called reentrantly from inside an `Op` closure
    /// (the engine would deadlock on its own mutex).
    pub fn sync<R>(&self, f: impl FnOnce(&mut Op<'_, M>) -> R) -> R {
        match self.backend {
            Backend::Threaded(inner) => inner.ctx_sync(self.id, self.nprocs, f),
            Backend::Coop(run) => crate::coop::ctx_sync(run, self.id, self.nprocs, f),
        }
    }
}

impl<M> Inner<M> {
    /// Threaded backend of [`Ctx::advance`].
    fn ctx_advance(&self, id: usize, cycles: Cycle) {
        let mut st = self.state.lock();
        st.sched.apply_stolen(id);
        st.sched
            .tracer
            .charge_span(id, Category::Compute, st.sched.clocks[id], cycles);
        st.sched.clocks[id] += cycles;
        // Our clock moving forward may have made another processor the
        // minimum; hand the turn over if it is parked.
        self.notify_next(&mut st);
    }

    /// Threaded backend of [`Ctx::sync`].
    fn ctx_sync<R>(&self, id: usize, nprocs: usize, f: impl FnOnce(&mut Op<'_, M>) -> R) -> R {
        let mut st = self.state.lock();
        st.sched.apply_stolen(id);

        // Wait for our turn.
        st.sched.waiting_turn[id] = true;
        while !st.sched.is_turn(id) {
            if st.sched.poisoned {
                st.sched.waiting_turn[id] = false;
                panic!("{}", st.sched.poison_msg());
            }
            self.cvs[id].wait(&mut st);
        }
        st.sched.waiting_turn[id] = false;
        st.sched.op_active = true;
        // Stolen cycles may have arrived while we waited for the turn;
        // fold them in so the operation's start time is the effective
        // clock regardless of wall-clock arrival order (determinism).
        st.sched.apply_stolen(id);
        let clock_now = st.sched.clocks[id];
        if let Some(trace) = st.sched.trace.as_mut() {
            trace.push((id, clock_now));
        }
        if let Some(budget) = st.sched.budget {
            if clock_now > budget {
                // Livelock watchdog: this processor ran past the cycle
                // budget (e.g. an endless fault-retry loop). Take the whole
                // simulation down with a diagnostic instead of spinning.
                st.sched.op_active = false;
                self.watchdog_abort(&mut st, &budget_msg(id, clock_now, budget));
                panic!("{}", st.sched.poison_msg());
            }
        }

        let mut op = Op {
            state: &mut st,
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
            self.notify_next(&mut st);
            while st.sched.status[id] == Status::Blocked {
                if st.sched.poisoned {
                    panic!("{}", st.sched.poison_msg());
                }
                self.cvs[id].wait(&mut st);
            }
            st.sched.apply_stolen(id);
        } else {
            self.notify_next(&mut st);
        }
        result
    }
}

impl<'a, M> Op<'a, M> {
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

    /// Effective clock of an arbitrary processor (for latency computations
    /// that depend on when a remote node can service a request).
    pub fn clock_of(&self, pid: usize) -> Cycle {
        self.state.sched.eff_clock(pid)
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
        // synchronization idling (lock-wait, barrier-wait). Writing to the
        // sleeper's track is safe: it is parked inside `sync` and cannot
        // race (we hold the engine lock).
        let gap = at.saturating_sub(sched.clocks[pid]);
        sched
            .tracer
            .charge_span(pid, Category::SyncIdle, sched.clocks[pid], gap);
        sched.clocks[pid] = sched.clocks[pid].max(at);
        sched.status[pid] = Status::Ready;
        sched.block_reason[pid] = None;
        sched.waiting_turn[pid] = true; // it is parked inside `sync`
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{lock, panic_message, unlock, TestLock};

    #[test]
    fn single_proc_advances() {
        let engine = Engine::new((), 1);
        let r = engine.run(|ctx| {
            ctx.advance(100);
            ctx.sync(|op| op.advance(10));
        });
        assert_eq!(r.time(), 110);
    }

    #[test]
    fn ops_execute_in_clock_order() {
        struct Log(Vec<(usize, Cycle)>);
        let engine = Engine::new(Log(Vec::new()), 4);
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
        let engine = Engine::new(Log(Vec::new()), 3);
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
        let engine = Engine::new(TestLock::default(), 4);
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
        let engine = Engine::new((), 2);
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
        let engine = Engine::new((), 2);
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
    fn deterministic_across_runs() {
        let run_once = || {
            let engine = Engine::new(TestLock::default(), 8);
            let r = engine.run(|ctx| {
                for _ in 0..50 {
                    ctx.advance((ctx.id() as Cycle * 7) % 13 + 1);
                    lock(ctx);
                    ctx.advance(3);
                    unlock(ctx);
                }
            });
            (r.machine.acquisitions.clone(), r.clocks.clone())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn blocked_procs_are_excluded_from_the_minimum() {
        // A blocked processor's frozen clock must not gate others.
        let engine = Engine::new(TestLock::default(), 3);
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
        let engine = Engine::new(TestLock::default(), 2);
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
        let _ = Engine::new((), 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        let engine = Engine::new((), 2);
        engine.run(|ctx| {
            if ctx.id() == 1 {
                panic!("boom");
            }
            // Processor 0 parks forever; the poison must unwind it.
            ctx.sync(|op| op.block());
        });
    }

    #[test]
    fn deadlock_dump_names_blocked_processors_and_reasons() {
        let r = panic::catch_unwind(|| {
            let engine = Engine::new((), 3)
                .with_diagnostics(|_| "  widget registry: empty\n".to_string());
            engine.run(|ctx| match ctx.id() {
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
            Engine::new((), 1).run(|ctx| ctx.sync(|op| op.block_on("a wakeup that never comes")));
        });
        let msg = panic_message(r.expect_err("must abort"));
        assert!(msg.contains("a wakeup that never comes"), "got: {msg}");
    }

    #[test]
    fn cycle_budget_catches_livelock() {
        // A two-processor ping-pong that never blocks: only the budget can
        // stop it.
        let r = panic::catch_unwind(|| {
            let engine = Engine::new((), 2).with_cycle_budget(10_000);
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
        let engine = Engine::new((), 2).with_cycle_budget(1_000_000);
        let r = engine.run(|ctx| {
            for _ in 0..10 {
                ctx.sync(|op| op.advance(10));
            }
        });
        assert_eq!(r.time(), 100);
    }
}
