//! `tmk-sim`: a deterministic, conservative, execution-driven simulation
//! engine for multiprocessor memory-system studies.
//!
//! Each simulated processor executes real application code natively and
//! charges simulated cycles for the work it performs. All globally visible
//! actions (cache misses, bus and network transactions, synchronization)
//! happen inside [`Ctx::sync`], which serializes processors in
//! simulated-time order: the runnable processor with the smallest local
//! clock always executes its operation first (ties broken by processor id),
//! so every run is fully deterministic and the op-start clocks of a run
//! never decrease.
//!
//! [`CoopEngine`] drives all processors as resumable stackful coroutines
//! from a single-threaded event loop — one host core, zero synchronization,
//! practical at 256+ simulated nodes.
//!
//! This is the same conservative execution-driven methodology the ISCA'94
//! case study used (Covington et al.'s Rice simulator); see `DESIGN.md` at
//! the repository root for the fidelity discussion.
//!
//! # Example
//!
//! ```
//! use tmk_sim::CoopEngine;
//!
//! // A machine with one shared counter guarded by simulated-time ordering.
//! struct Machine { hits: u64 }
//!
//! let engine = CoopEngine::new(Machine { hits: 0 }, 2);
//! let result = engine.run(|ctx| {
//!     ctx.advance(10 * (ctx.id() as u64 + 1)); // local compute
//!     ctx.sync(|op| {
//!         op.machine().hits += 1;
//!         op.advance(5); // the operation itself takes 5 cycles
//!     });
//! });
//! assert_eq!(result.machine.hits, 2);
//! assert_eq!(result.time(), 25); // slowest processor: 20 + 5
//! ```

mod coop;

pub use coop::{CoopEngine, Ctx, Op, RunResult};

/// Simulated time, measured in processor clock cycles.
///
/// All latencies, clocks and durations in the workspace use this unit; the
/// machine models define what one cycle means in wall-clock terms (25 ns for
/// the 40 MHz experimental platforms, 10 ns for the 100 MHz simulated ones).
pub type Cycle = u64;

/// Kept for `benchmark/`, which names it; goes in the next `[benchmark]` PR.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// The only engine, [`CoopEngine`].
    #[default]
    Coop,
}

impl EngineKind {
    /// `"coop"`, the `engine` value every JSON record carries.
    pub fn as_str(self) -> &'static str {
        "coop"
    }
}
