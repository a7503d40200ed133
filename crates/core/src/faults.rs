//! The one fault plan: seeded drop / duplicate / delay rates for the
//! inter-node wire, plus scheduled node crashes.
//!
//! TreadMarks ran over UDP and carried its own timeout/retransmit
//! machinery; [`FaultPlan`] is what lets every driver exercise that path.
//! [`FaultPlan::verdict`] is the one place a rate becomes a [`Fate`]. Each
//! driver supplies the roll:
//!
//! * the simulated machines (`tmk_net::LossyNet`) draw it from a stream
//!   seeded by the plan, in call order;
//! * the real-thread runtime and the synchronous
//!   [`Cluster`](crate::Cluster) hash it from `(seed, src, dst, seq,
//!   attempt)` ([`roll_fate`]), so a seed fixes every packet's fate however
//!   threads are scheduled or deliveries ordered.
//!
//! Crashes come in two forms: a [`Crash`] in the plan, timed in simulated
//! cycles, for the simulated machines, and a [`CrashPoint`] at a node's
//! `(epoch, op)`, for the runtime.

use tmk_parmacs::Cycle;

use crate::{NodeId, PacketId};

/// What the (faulty) wire does to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered normally.
    Deliver,
    /// Silently lost.
    Drop,
    /// Delivered twice (on the simulated machines the second copy
    /// re-occupies the link).
    Duplicate,
    /// Held back by [`FaultPlan::hold`] before delivery (reordering it
    /// behind later traffic).
    Delay(u64),
}

/// A scheduled node crash on the simulated machines: at cycle `at`, every
/// link touching `node` is severed. With `restart_after = Some(d)` the
/// node's links come back at `at + d` (the node rebooted on its own); with
/// `None` the node stays dark until a recovery layer above the network
/// declares it restored.
///
/// Crashes are *not* randomized: the schedule is an explicit list, and the
/// severing decision consumes no randomness, so arming a crash never
/// perturbs the drop/dup/delay streams of the same plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// The node whose links are severed.
    pub node: usize,
    /// The cycle the crash takes effect.
    pub at: Cycle,
    /// Optional self-restart delay; `None` means down until recovered.
    pub restart_after: Option<Cycle>,
}

impl Crash {
    /// Whether the node's links are severed at cycle `t` (ignoring any
    /// recovery the layers above may have performed).
    pub fn down_at(&self, t: Cycle) -> bool {
        t >= self.at && self.restart_after.is_none_or(|d| t < self.at + d)
    }
}

/// A scheduled node crash on the real-thread runtime: the node "dies" (its
/// application thread unwinds and every message to or from it is severed)
/// at its `op`-th DSM operation of epoch `epoch`. The crash fires once;
/// after recovery the replayed epoch runs clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The node that crashes.
    pub node: NodeId,
    /// Epoch (of [`Dsm::run_epochs`](crate::runtime::Dsm::run_epochs)) in
    /// which the crash fires.
    pub epoch: u64,
    /// 1-based DSM-operation count within the epoch at which it fires.
    pub op: u64,
}

/// A seeded, deterministic schedule of network faults.
///
/// Rates are independent per-message probabilities; the same seed and the
/// same traffic produce the same faults on every driver. Faults can be
/// restricted to a subset of message classes (`class_mask`, an OR of
/// [`MsgClass::bit`](crate::MsgClass::bit)s). Node crashes
/// on the simulated machines ride in the same plan as an explicit schedule
/// ([`Crash`]) rather than a probability.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Probability a message is lost.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub dup: f64,
    /// Probability a message is delayed by `hold`.
    pub delay: f64,
    /// How long a delayed message is held: extra flight cycles on the
    /// simulated machines, host microseconds on the real-thread runtime.
    pub hold: u64,
    /// Bitmask of fault-eligible message classes (bit n = class n);
    /// `ALL_CLASSES` faults everything.
    pub class_mask: u8,
    /// Scheduled node crashes on the simulated machines, applied on top of
    /// the probabilistic faults.
    pub crashes: Vec<Crash>,
}

/// `class_mask` value faulting every message class.
pub const ALL_CLASSES: u8 = 0xff;

impl FaultPlan {
    /// A plan that drops messages with probability `drop` on every link and
    /// class, with no duplication or delay.
    pub fn drop_rate(seed: u64, drop: f64) -> Self {
        FaultPlan {
            seed,
            drop,
            dup: 0.0,
            delay: 0.0,
            hold: 0,
            class_mask: ALL_CLASSES,
            crashes: Vec::new(),
        }
    }

    /// A plan with no probabilistic faults at all, only scheduled crashes
    /// (added with [`with_crash`](Self::with_crash)). The seed still
    /// matters when drop/dup/delay rates are layered on afterwards.
    pub fn crash_schedule(seed: u64) -> Self {
        FaultPlan::drop_rate(seed, 0.0)
    }

    /// Schedules a crash of `node` at cycle `at`, with an optional
    /// self-restart delay.
    pub fn with_crash(mut self, node: usize, at: Cycle, restart_after: Option<Cycle>) -> Self {
        self.crashes.push(Crash {
            node,
            at,
            restart_after,
        });
        self
    }

    /// Sets the duplication probability.
    pub fn with_dup(mut self, dup: f64) -> Self {
        self.dup = dup;
        self
    }

    /// Sets the delay probability and the [`hold`](Self::hold).
    pub fn with_delay(mut self, delay: f64, hold: u64) -> Self {
        self.delay = delay;
        self.hold = hold;
        self
    }

    /// Restricts faults to message classes in `mask`.
    pub fn with_class_mask(mut self, mask: u8) -> Self {
        self.class_mask = mask;
        self
    }

    /// The `[drop | dup | delay | deliver]` band `roll` lands in: the `u64`
    /// range split as wide as the three probabilities, `p >= 1.0` taking
    /// all that is left, `p <= 0` and NaN nothing, a sum past 1.0
    /// saturating rather than wrapping, so the earlier band wins.
    #[inline]
    pub fn verdict(&self, roll: u64) -> Fate {
        let band = |p: f64| -> u64 {
            if p >= 1.0 {
                u64::MAX
            } else {
                (p.max(0.0) * (u64::MAX as f64)) as u64
            }
        };
        let d = band(self.drop);
        let du = d.saturating_add(band(self.dup));
        let de = du.saturating_add(band(self.delay));
        if roll < d {
            Fate::Drop
        } else if roll < du {
            Fate::Duplicate
        } else if roll < de {
            Fate::Delay(self.hold)
        } else {
            Fate::Deliver
        }
    }
}

/// Counters for what a fault plan did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages the fault plan was consulted about (on the simulated
    /// machines, only those of a class in its `class_mask`).
    pub decisions: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Messages duplicated.
    pub dups: u64,
    /// Messages delayed.
    pub delays: u64,
}

impl FaultStats {
    /// Counts one decision that came out `fate`.
    #[inline]
    pub fn record(&mut self, fate: Fate) {
        self.decisions += 1;
        match fate {
            Fate::Drop => self.drops += 1,
            Fate::Duplicate => self.dups += 1,
            Fate::Delay(_) => self.delays += 1,
            Fate::Deliver => {}
        }
    }
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Rolls the fate of attempt `attempt` of packet `(src, dst, seq)`, a
/// message of class `class_bit`: [`FaultPlan::verdict`] of a pure hash of
/// the plan seed and the packet's identity, so the schedule replays
/// bit-exactly regardless of thread interleaving or delivery order. A class
/// outside the plan's `class_mask` is always delivered.
pub(crate) fn roll_fate(
    plan: &FaultPlan,
    (src, dst, seq): PacketId,
    attempt: u32,
    class_bit: u8,
) -> Fate {
    if plan.class_mask & class_bit == 0 {
        return Fate::Deliver;
    }
    let mut x = plan.seed;
    for v in [src as u64, dst as u64, seq, attempt as u64] {
        x = splitmix(x ^ v);
    }
    plan.verdict(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_a_pure_function_of_identity() {
        let f = FaultPlan::drop_rate(42, 0.3).with_dup(0.2);
        for seq in 0..50u64 {
            for attempt in 0..3u32 {
                let a = roll_fate(&f, (0, 1, seq), attempt, ALL_CLASSES);
                let b = roll_fate(&f, (0, 1, seq), attempt, ALL_CLASSES);
                assert_eq!(a, b);
            }
        }
        // Different links / attempts see independent streams.
        let all_same = (0..50u64).all(|s| {
            roll_fate(&f, (0, 1, s), 0, ALL_CLASSES) == roll_fate(&f, (1, 0, s), 0, ALL_CLASSES)
        });
        assert!(!all_same, "links must not share one fate stream");
    }

    /// The band arithmetic's edge cases, for every driver's roll.
    #[test]
    fn fate_bands_saturate_and_have_exact_edges() {
        use Fate::{Deliver, Drop, Duplicate};
        const HALF: u64 = 1 << 63; // band(0.5), exactly
        const QUARTER: u64 = 1 << 62;
        let delay = Fate::Delay(50);
        let table: [(f64, f64, f64, u64, Fate); 16] = [
            // p = 1.0 always hits, even on the last roll but one.
            (1.0, 0.0, 0.0, 0, Drop),
            (1.0, 0.0, 0.0, u64::MAX - 1, Drop),
            (0.0, 1.0, 0.0, u64::MAX - 1, Duplicate),
            // p <= 0 and NaN never hit, even on roll 0.
            (0.0, 0.0, 0.0, 0, Deliver),
            (-1.0, 0.0, 0.0, 0, Deliver),
            (f64::NAN, f64::NAN, f64::NAN, 0, Deliver),
            (f64::NAN, 1.0, 0.0, 0, Duplicate),
            // Bands summing past 1.0 saturate: the earlier band keeps its
            // width and the later ones get what is left, never a wrap.
            (0.5, 1.0, 1.0, HALF - 1, Drop),
            (0.5, 1.0, 1.0, HALF, Duplicate),
            (0.5, 1.0, 1.0, u64::MAX - 1, Duplicate),
            (1.0, 1.0, 1.0, u64::MAX - 1, Drop),
            // Exact edges: a band of width w covers rolls [start, start + w).
            (0.5, 0.25, 0.0, HALF - 1, Drop),
            (0.5, 0.25, 0.0, HALF, Duplicate),
            (0.5, 0.25, 0.0, HALF + QUARTER - 1, Duplicate),
            (0.5, 0.25, 0.0, HALF + QUARTER, Deliver),
            (0.0, 0.0, 0.25, QUARTER - 1, delay),
        ];
        for (drop, dup, delay, roll, want) in table {
            let plan = FaultPlan::drop_rate(0, drop)
                .with_dup(dup)
                .with_delay(delay, 50);
            assert_eq!(
                plan.verdict(roll),
                want,
                "drop={drop} dup={dup} delay={delay} roll={roll}"
            );
        }
    }

    #[test]
    fn zero_rates_always_deliver() {
        let f = FaultPlan::crash_schedule(7);
        for seq in 0..100 {
            assert_eq!(roll_fate(&f, (2, 3, seq), 0, ALL_CLASSES), Fate::Deliver);
        }
    }

    #[test]
    fn rates_land_in_the_right_ballpark() {
        let f = FaultPlan::drop_rate(9, 0.25);
        let drops = (0..4000u64)
            .filter(|&s| roll_fate(&f, (0, 1, s), 0, ALL_CLASSES) == Fate::Drop)
            .count();
        assert!((800..1200).contains(&drops), "got {drops} drops of 4000");
    }
}
