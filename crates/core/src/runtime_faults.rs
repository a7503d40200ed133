//! `tmk-core`'s fault plan, and the runtime's recovery bookkeeping.
//!
//! [`ChannelFaults`] is the one fault plan in this crate — seeded per-link
//! drop / duplicate / delay rates plus node crashes scheduled at
//! `(node, epoch, op)` points — and [`fate`] the one place a rate becomes a
//! verdict. Its two drivers — the real-thread runtime's transmit hook and
//! the synchronous [`Cluster`](crate::Cluster)'s fault stage — roll each
//! copy's fate from a pure hash of `(seed, src, dst, seq, attempt)`
//! ([`roll_fate`]), so a seed fixes every packet's fate however threads are
//! scheduled or deliveries ordered. (The simulated machines' plan, in
//! cycles, is `tmk_net::FaultPlan`.)

use crate::NodeId;

/// A scheduled node crash: the node "dies" (its application thread unwinds
/// and every message to or from it is severed) at its `op`-th DSM operation
/// of epoch `epoch`. The crash fires once; after recovery the replayed
/// epoch runs clean.
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

/// Deterministic channel-level fault injection. Rates are independent
/// per-copy probabilities; the fate of the `seq`-th packet on each link
/// (and of each retransmitted copy) is fixed by `seed` alone.
#[derive(Debug, Clone, Default)]
pub struct ChannelFaults {
    /// Seed fixing the entire drop/dup/delay schedule.
    pub seed: u64,
    /// Probability a transmitted copy is dropped (repaired by
    /// retransmission).
    pub drop: f64,
    /// Probability a transmitted copy is delivered twice (suppressed by the
    /// receiver's dup window).
    pub dup: f64,
    /// Probability a transmitted copy is held for [`delay_us`] before
    /// delivery (reordering it behind later traffic).
    ///
    /// [`delay_us`]: ChannelFaults::delay_us
    pub delay: f64,
    /// Host-time hold applied to delayed copies, in microseconds.
    pub delay_us: u64,
    /// Scheduled node crashes (the runtime, which checkpoints every run,
    /// always recovers them; [`Cluster`](crate::Cluster) takes none).
    pub crashes: Vec<CrashPoint>,
}

impl ChannelFaults {
    /// A fault plan with the given seed and no faults enabled yet.
    pub fn seeded(seed: u64) -> Self {
        ChannelFaults {
            seed,
            ..Default::default()
        }
    }

    /// Sets the per-copy drop probability.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the per-copy duplication probability.
    pub fn dup_rate(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Sets the per-copy delay probability and the hold time in host
    /// microseconds.
    pub fn delay_rate(mut self, p: f64, hold_us: u64) -> Self {
        self.delay = p;
        self.delay_us = hold_us;
        self
    }

    /// Schedules a crash of `node` at its `op`-th DSM operation of `epoch`.
    pub fn crash(mut self, node: NodeId, epoch: u64, op: u64) -> Self {
        self.crashes.push(CrashPoint { node, epoch, op });
        self
    }

    /// Whether any probabilistic link fault is enabled.
    pub(crate) fn link_faults_active(&self) -> bool {
        self.drop > 0.0 || self.dup > 0.0 || self.delay > 0.0
    }
}

/// The fate rolled for one transmitted copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkFate {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Splits the `u64` range into `[drop | dup | delay | deliver]` bands as wide
/// as the three probabilities and returns the one `roll` lands in. A
/// probability of 1.0 or more takes everything that is left; zero, negative
/// and NaN ones take nothing; bands that sum past 1.0 saturate instead of
/// wrapping, so the earlier band wins.
pub(crate) fn fate(drop: f64, dup: f64, delay: f64, roll: u64) -> LinkFate {
    let band = |p: f64| -> u64 {
        if p >= 1.0 {
            u64::MAX
        } else {
            (p.max(0.0) * (u64::MAX as f64)) as u64
        }
    };
    let d = band(drop);
    let du = d.saturating_add(band(dup));
    let de = du.saturating_add(band(delay));
    if roll < d {
        LinkFate::Drop
    } else if roll < du {
        LinkFate::Duplicate
    } else if roll < de {
        LinkFate::Delay
    } else {
        LinkFate::Deliver
    }
}

/// Rolls the fate of attempt `attempt` of packet `(src, dst, seq)`: a pure
/// hash of the plan seed and the packet's identity, so the schedule
/// replays bit-exactly regardless of thread interleaving.
pub(crate) fn roll_fate(
    f: &ChannelFaults,
    (src, dst, seq): (NodeId, NodeId, u64),
    attempt: u32,
) -> LinkFate {
    if !f.link_faults_active() {
        return LinkFate::Deliver;
    }
    let mut x = f.seed;
    for v in [src as u64, dst as u64, seq, attempt as u64] {
        x = splitmix(x ^ v);
    }
    fate(f.drop, f.dup, f.delay, x)
}

/// Per-link fault counters (keyed by `(src, dst)` in
/// [`FaultSummary::per_link`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Copies dropped on this link.
    pub drops: u64,
    /// Copies duplicated on this link.
    pub dups: u64,
    /// Copies delayed on this link.
    pub delays: u64,
    /// Copies delivered directly (no fault).
    pub delivered: u64,
}

impl LinkFaults {
    /// Counts one transmitted copy that drew `fate` (a duplicate is also
    /// delivered).
    pub(crate) fn record(&mut self, fate: LinkFate) {
        match fate {
            LinkFate::Deliver => self.delivered += 1,
            LinkFate::Duplicate => {
                self.delivered += 1;
                self.dups += 1;
            }
            LinkFate::Drop => self.drops += 1,
            LinkFate::Delay => self.delays += 1,
        }
    }
}

/// What the fault plan actually did during a run, aggregated and per link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Total copies dropped.
    pub drops: u64,
    /// Total copies duplicated.
    pub dups: u64,
    /// Total copies delayed.
    pub delays: u64,
    /// Per-link counters, sorted by `(src, dst)`.
    pub per_link: Vec<((NodeId, NodeId), LinkFaults)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_a_pure_function_of_identity() {
        let f = ChannelFaults::seeded(42).drop_rate(0.3).dup_rate(0.2);
        for seq in 0..50u64 {
            for attempt in 0..3u32 {
                let a = roll_fate(&f, (0, 1, seq), attempt);
                let b = roll_fate(&f, (0, 1, seq), attempt);
                assert_eq!(a, b);
            }
        }
        // Different links / attempts see independent streams.
        let all_same =
            (0..50u64).all(|s| roll_fate(&f, (0, 1, s), 0) == roll_fate(&f, (1, 0, s), 0));
        assert!(!all_same, "links must not share one fate stream");
    }

    /// The band arithmetic's edge cases. `tmk-net` keeps its own copy of
    /// the arithmetic (no crate edge joins the two yet) and asserts this
    /// same table against `LossyNet::fate`.
    #[test]
    fn fate_bands_saturate_and_have_exact_edges() {
        use LinkFate::*;
        const HALF: u64 = 1 << 63; // band(0.5), exactly
        const QUARTER: u64 = 1 << 62;
        let table: [(f64, f64, f64, u64, LinkFate); 16] = [
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
            (0.0, 0.0, 0.25, QUARTER - 1, Delay),
        ];
        for (drop, dup, delay, roll, want) in table {
            assert_eq!(
                fate(drop, dup, delay, roll),
                want,
                "drop={drop} dup={dup} delay={delay} roll={roll}"
            );
        }
    }

    #[test]
    fn zero_rates_always_deliver() {
        let f = ChannelFaults::seeded(7);
        for seq in 0..100 {
            assert_eq!(roll_fate(&f, (2, 3, seq), 0), LinkFate::Deliver);
        }
    }

    #[test]
    fn rates_land_in_the_right_ballpark() {
        let f = ChannelFaults::seeded(9).drop_rate(0.25);
        let drops = (0..4000u64)
            .filter(|&s| roll_fate(&f, (0, 1, s), 0) == LinkFate::Drop)
            .count();
        assert!((800..1200).contains(&drops), "got {drops} drops of 4000");
    }
}
