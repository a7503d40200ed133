//! `tmk-net`: network and communication-software cost models.
//!
//! Two ingredients of every DSM message's latency in the case study:
//!
//! * the **wire**: a point-to-point network (ATM LAN through a non-blocking
//!   switch, or a crossbar) with per-link bandwidth, switch latency and
//!   occupancy-based contention — [`PointToPointNet`];
//! * the **software**: fixed per-message kernel-entry cost, per-word copy
//!   cost, fault/handler invocation cost, and diff-creation cost —
//!   [`SoftwareOverhead`]. The paper's Figures 14–16 sweep exactly these
//!   knobs (Peregrine-like and SHRIMP-like interfaces), which the presets
//!   reproduce.
//!
//! All parameters are in processor cycles; see `DESIGN.md` §4 for how each
//! value was reconstructed (the paper scrape lost its numerals).
//!
//! The wire can also be made *unreliable on purpose*: [`LossyNet`] applies
//! a [`FaultPlan`] (`tmk-core`'s one fault plan, re-exported here with its
//! types) on top of a [`PointToPointNet`], drawing each message's roll from
//! a stream seeded by the plan (see `DESIGN.md` §4).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tmk_sim::Cycle;
use tmk_trace::{Event, EventKind, Sink, Track};

pub use tmk_core::{Crash, Fate, FaultPlan, FaultStats, ALL_CLASSES};

/// Word size used for per-word software costs (32-bit MIPS word).
pub const WORD_BYTES: usize = 4;

/// Communication software costs, in processor cycles.
///
/// The simulation charges, per the paper: "the software overhead of entering
/// the kernel to send or receive messages, including data copying (fixed +
/// message size in words), calling a user-level handler for page faults and
/// incoming messages, and creating a diff (words per page)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareOverhead {
    /// Fixed cycles to send one message (kernel entry, protocol stack).
    pub fixed_send: Cycle,
    /// Fixed cycles to receive one message.
    pub fixed_recv: Cycle,
    /// Cycles per 32-bit word copied at each end.
    pub per_word: Cycle,
    /// Cycles to dispatch a user-level handler (page fault or incoming
    /// request).
    pub handler: Cycle,
    /// Cycles per word scanned when creating a diff.
    pub diff_per_word: Cycle,
}

impl SoftwareOverhead {
    /// User-level TreadMarks on Ultrix, DECstation-5000/240 (40 MHz): the
    /// Part-1 experimental platform. Chosen to land the paper's measured
    /// sub-millisecond remote lock and few-millisecond 8-node barrier.
    pub fn ultrix_user() -> Self {
        SoftwareOverhead {
            fixed_send: 6000,
            fixed_recv: 6000,
            per_word: 4,
            handler: 1000,
            diff_per_word: 4,
        }
    }

    /// The paper's kernel-level TreadMarks implementation (Section 2.4.4):
    /// roughly halves the fixed per-message cost.
    pub fn ultrix_kernel() -> Self {
        SoftwareOverhead {
            fixed_send: 3000,
            fixed_recv: 3000,
            ..Self::ultrix_user()
        }
    }

    /// Baseline for the Part-2 simulation study (100 MHz processors).
    pub fn sim_baseline() -> Self {
        SoftwareOverhead {
            fixed_send: 2000,
            fixed_recv: 2000,
            per_word: 10,
            handler: 500,
            diff_per_word: 4,
        }
    }

    /// Replaces the fixed costs (the Peregrine-like and SHRIMP-like points
    /// of Figures 14–16).
    pub fn with_fixed(mut self, fixed: Cycle) -> Self {
        self.fixed_send = fixed;
        self.fixed_recv = fixed;
        self
    }

    /// Replaces the per-word copy cost ("one bcopy to the interface").
    pub fn with_per_word(mut self, per_word: Cycle) -> Self {
        self.per_word = per_word;
        self
    }

    /// Cycles the sender spends to emit a message with `payload` bytes.
    pub fn send_cycles(&self, payload: usize) -> Cycle {
        self.fixed_send + self.words(payload) * self.per_word
    }

    /// Cycles the receiver spends to accept a message with `payload` bytes
    /// and dispatch its handler.
    pub fn recv_cycles(&self, payload: usize) -> Cycle {
        self.fixed_recv + self.words(payload) * self.per_word + self.handler
    }

    /// Cycles to create a diff over `page_bytes` of twin data.
    pub fn diff_cycles(&self, page_bytes: usize) -> Cycle {
        self.words(page_bytes) * self.diff_per_word
    }

    fn words(&self, bytes: usize) -> Cycle {
        bytes.div_ceil(WORD_BYTES) as Cycle
    }
}

/// Parameters of a point-to-point network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Wire cycles per byte on a link (inverse bandwidth, in processor
    /// cycles).
    pub cycles_per_byte: f64,
    /// Switch / flight latency per message, in cycles.
    pub latency: Cycle,
}

impl NetParams {
    /// The Part-1 Fore ATM LAN at 40 MHz: ~40 Mbit/s effective user-to-user
    /// bandwidth (5 MB/s ⇒ 8 cycles/byte at 25 ns/cycle) and a 10 µs switch
    /// traversal.
    pub fn atm_40mhz() -> Self {
        NetParams {
            cycles_per_byte: 8.0,
            latency: 400,
        }
    }

    /// The Part-2 general-purpose network at 100 MHz: 155 Mbit/s
    /// point-to-point (≈19.4 MB/s ⇒ ~0.52 cycles/byte at 10 ns/cycle), 1 µs
    /// latency.
    pub fn atm_100mhz() -> Self {
        NetParams {
            cycles_per_byte: 0.52,
            latency: 100,
        }
    }
}

/// A point-to-point network of full-duplex host links through a
/// non-blocking switch: disjoint host pairs communicate concurrently
/// (the property that lets SOR's neighbor exchanges overlap on TreadMarks
/// while they serialize on the SGI bus).
///
/// Contention is modelled by occupancy reservation: a transfer holds the
/// sender's transmit link and the receiver's receive link from its start
/// until its last byte.
#[derive(Debug, Clone)]
pub struct PointToPointNet {
    params: NetParams,
    tx_free: Vec<Cycle>,
    rx_free: Vec<Cycle>,
    sink: Sink,
}

impl PointToPointNet {
    /// A network connecting `hosts` endpoints.
    pub fn new(hosts: usize, params: NetParams) -> Self {
        PointToPointNet {
            params,
            tx_free: vec![0; hosts],
            rx_free: vec![0; hosts],
            sink: Sink::default(),
        }
    }

    /// Attaches a trace sink; every transfer logs a `LinkXfer` event with
    /// its occupancy wait. Tracing never alters timing.
    pub fn set_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Number of endpoints.
    pub fn hosts(&self) -> usize {
        self.tx_free.len()
    }

    /// The configured parameters.
    pub fn params(&self) -> NetParams {
        self.params
    }

    /// Schedules a `bytes`-byte message leaving `from` at `depart`; returns
    /// the cycle its last byte arrives at `to`, and reserves link occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (local delivery never touches the network).
    pub fn transfer(&mut self, from: usize, to: usize, bytes: usize, depart: Cycle) -> Cycle {
        assert_ne!(from, to, "loopback messages do not use the network");
        let wire_f = (bytes as f64 * self.params.cycles_per_byte).ceil();
        // `f64 as u64` silently saturates (and loses integer precision past
        // 2^53), which would wedge link occupancy near Cycle::MAX instead of
        // failing loudly. No physical message is anywhere near this size.
        assert!(
            wire_f.is_finite() && wire_f < (1u64 << 53) as f64,
            "transfer of {bytes} bytes ({wire_f} wire cycles) does not fit in the Cycle clock"
        );
        let wire = wire_f as Cycle;
        let start = depart.max(self.tx_free[from]).max(self.rx_free[to]);
        let done = start + wire;
        self.tx_free[from] = done;
        self.rx_free[to] = done;
        self.sink.emit(Event {
            track: Track::Link(from as u32),
            at: start,
            dur: wire,
            kind: EventKind::LinkXfer {
                from: from as u32,
                to: to as u32,
                bytes: bytes as u64,
                wait: start - depart,
            },
        });
        done + self.params.latency
    }
}

/// A [`PointToPointNet`] behind a deterministic fault injector.
///
/// Timing (occupancy, latency) is delegated to the inner network untouched;
/// the router asks [`LossyNet::fate`] what happens to each message and is
/// responsible for acting on the verdict (not scheduling a delivery for a
/// drop, scheduling two for a duplicate). With `plan == None` the wrapper
/// is a transparent pass-through: no random numbers are drawn and timing is
/// bit-identical to the bare network.
#[derive(Debug, Clone)]
pub struct LossyNet {
    inner: PointToPointNet,
    plan: Option<FaultPlan>,
    rng: Option<SmallRng>,
    stats: FaultStats,
}

impl LossyNet {
    /// A perfectly reliable wrapper (every fate is [`Fate::Deliver`]).
    pub fn perfect(inner: PointToPointNet) -> Self {
        LossyNet {
            inner,
            plan: None,
            rng: None,
            stats: FaultStats::default(),
        }
    }

    /// A wrapper applying `plan`'s seeded fault schedule.
    pub fn faulty(inner: PointToPointNet, plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed);
        LossyNet {
            inner,
            plan: Some(plan),
            rng: Some(rng),
            stats: FaultStats::default(),
        }
    }

    /// Decides what happens to a message whose class bit is `class_bit`
    /// (the link it travels, `_from → _to`, selects nothing: rates are
    /// cluster-wide). Consumes randomness only for fault-eligible messages,
    /// in call order — the caller must consult fates in a deterministic
    /// order for schedules to replay.
    pub fn fate(&mut self, _from: usize, _to: usize, class_bit: u8) -> Fate {
        let Some(plan) = &self.plan else {
            return Fate::Deliver;
        };
        if plan.class_mask & class_bit == 0 {
            return Fate::Deliver;
        }
        let rng = self.rng.as_mut().expect("faulty net has an rng");
        // One u64 draw per eligible message: cheap, deterministic, and
        // exactly one stream position per message regardless of outcome.
        let fate = plan.verdict(rng.next_u64());
        self.stats.record(fate);
        fate
    }

    /// Schedules a transfer on the inner network (see
    /// [`PointToPointNet::transfer`]).
    pub fn transfer(&mut self, from: usize, to: usize, bytes: usize, depart: Cycle) -> Cycle {
        self.inner.transfer(from, to, bytes, depart)
    }

    /// Attaches a trace sink to the inner network.
    pub fn set_sink(&mut self, sink: Sink) {
        self.inner.set_sink(sink);
    }

    /// The configured parameters.
    pub fn params(&self) -> NetParams {
        self.inner.params()
    }

    /// Fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_costs_scale_with_words() {
        let so = SoftwareOverhead::sim_baseline();
        assert_eq!(so.send_cycles(0), 2000);
        assert_eq!(so.send_cycles(4), 2010);
        assert_eq!(so.send_cycles(5), 2020, "partial word rounds up");
        assert_eq!(so.recv_cycles(0), 2500);
        assert_eq!(so.diff_cycles(4096), 1024 * 4);
    }

    #[test]
    fn presets_orders() {
        let user = SoftwareOverhead::ultrix_user();
        let kernel = SoftwareOverhead::ultrix_kernel();
        assert!(kernel.fixed_send < user.fixed_send);
        let base = SoftwareOverhead::sim_baseline();
        let peregrine = base.with_fixed(500);
        let shrimp = base.with_fixed(100).with_per_word(1);
        assert!(shrimp.send_cycles(4096) < peregrine.send_cycles(4096));
        assert!(peregrine.send_cycles(4096) < base.send_cycles(4096));
    }

    #[test]
    fn uncontended_transfer_is_wire_plus_latency() {
        let mut net = PointToPointNet::new(4, NetParams::atm_40mhz());
        let arrive = net.transfer(0, 1, 100, 1000);
        assert_eq!(arrive, 1000 + 800 + 400);
    }

    #[test]
    fn same_link_serializes_disjoint_pairs_do_not() {
        let mut net = PointToPointNet::new(4, NetParams::atm_40mhz());
        let a = net.transfer(0, 1, 1000, 0);
        // Second message on the same tx link queues behind the first.
        let b = net.transfer(0, 2, 1000, 0);
        assert_eq!(b, a + 8000, "tx link occupancy serializes");
        // A disjoint pair is unaffected (non-blocking switch).
        let c = net.transfer(2, 3, 1000, 0);
        assert_eq!(c, a, "disjoint pairs run concurrently");
    }

    #[test]
    fn receiver_link_also_contends() {
        let mut net = PointToPointNet::new(4, NetParams::atm_40mhz());
        let a = net.transfer(1, 0, 1000, 0);
        let b = net.transfer(2, 0, 1000, 0);
        assert_eq!(b, a + 8000, "rx link occupancy serializes fan-in");
    }

    #[test]
    fn back_to_back_transfers_accumulate_occupancy() {
        let params = NetParams {
            cycles_per_byte: 0.05,
            latency: 10,
        };
        let mut net = PointToPointNet::new(3, params);
        let last = (0..5).map(|i| net.transfer(0, 1, 100 + i, 0)).last();
        // 5, 6, 6, 6 and 6 wire cycles queue on one link, then the latency.
        assert_eq!(last, Some(29 + 10));
        assert_eq!(net.hosts(), 3);
    }

    #[test]
    fn late_departure_ignores_past_occupancy() {
        let mut net = PointToPointNet::new(2, NetParams::atm_40mhz());
        let a = net.transfer(0, 1, 10, 0);
        // Departing long after the link freed: no queueing.
        let b = net.transfer(0, 1, 10, 1_000_000);
        assert!(a < 1_000_000);
        assert_eq!(b, 1_000_000 + 80 + 400);
    }

    #[test]
    fn diff_cost_zero_for_empty_page() {
        let so = SoftwareOverhead::ultrix_user();
        assert_eq!(so.diff_cycles(0), 0);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let params = NetParams {
            cycles_per_byte: 0.05,
            latency: 10,
        };
        let mut net = PointToPointNet::new(2, params);
        net.transfer(1, 1, 8, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit in the Cycle clock")]
    fn absurd_transfer_size_panics_instead_of_saturating() {
        let mut net = PointToPointNet::new(2, NetParams::atm_40mhz());
        // usize::MAX bytes at 8 cycles/byte is far beyond 2^53 wire cycles;
        // the old `as Cycle` cast silently saturated here.
        net.transfer(0, 1, usize::MAX, 0);
    }

    #[test]
    fn largest_sane_transfer_still_converts_exactly() {
        let mut net = PointToPointNet::new(2, NetParams::atm_40mhz());
        // 2^49 bytes * 8 cycles/byte = 2^52 cycles: inside f64's exact
        // integer range, so the checked conversion must accept it.
        let arrive = net.transfer(0, 1, 1usize << 49, 0);
        assert_eq!(arrive, (1u64 << 52) + 400);
    }

    #[test]
    fn fault_plan_replays_bit_exactly() {
        let plan = FaultPlan::drop_rate(7, 0.3)
            .with_dup(0.2)
            .with_delay(0.1, 50);
        let mut a = LossyNet::faulty(
            PointToPointNet::new(4, NetParams::atm_100mhz()),
            plan.clone(),
        );
        let mut b = LossyNet::faulty(PointToPointNet::new(4, NetParams::atm_100mhz()), plan);
        let fates_a: Vec<Fate> = (0..500).map(|i| a.fate(i % 4, (i + 1) % 4, 1)).collect();
        let fates_b: Vec<Fate> = (0..500).map(|i| b.fate(i % 4, (i + 1) % 4, 1)).collect();
        assert_eq!(fates_a, fates_b);
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert!(a.fault_stats().drops > 0);
        assert!(a.fault_stats().dups > 0);
        assert!(a.fault_stats().delays > 0);
        assert_eq!(a.fault_stats().decisions, 500);
    }

    #[test]
    fn zero_rate_plan_never_faults_and_perfect_draws_nothing() {
        let mut lossy = LossyNet::faulty(
            PointToPointNet::new(2, NetParams::atm_100mhz()),
            FaultPlan::drop_rate(1, 0.0),
        );
        let mut perfect = LossyNet::perfect(PointToPointNet::new(2, NetParams::atm_100mhz()));
        for _ in 0..100 {
            assert_eq!(lossy.fate(0, 1, ALL_CLASSES), Fate::Deliver);
            assert_eq!(perfect.fate(0, 1, ALL_CLASSES), Fate::Deliver);
        }
        assert_eq!(lossy.fault_stats().drops, 0);
        assert_eq!(perfect.fault_stats().decisions, 0);
    }

    #[test]
    fn certain_drop_always_drops() {
        let mut lossy = LossyNet::faulty(
            PointToPointNet::new(2, NetParams::atm_100mhz()),
            FaultPlan::drop_rate(9, 1.0),
        );
        for _ in 0..100 {
            assert_eq!(lossy.fate(0, 1, 1), Fate::Drop);
        }
        assert_eq!(lossy.fault_stats().drops, 100);
    }

    #[test]
    fn class_mask_and_link_filter_gate_faults() {
        let plan = FaultPlan::drop_rate(3, 1.0).with_class_mask(0b0010);
        let mut lossy = LossyNet::faulty(PointToPointNet::new(3, NetParams::atm_100mhz()), plan);
        // Wrong class bit: untouched.
        assert_eq!(lossy.fate(0, 1, 0b0001), Fate::Deliver);
        // Matching class: dropped.
        assert_eq!(lossy.fate(0, 1, 0b0010), Fate::Drop);
        assert_eq!(
            lossy.fault_stats().decisions,
            1,
            "filtered fates draw nothing"
        );
    }

    /// `LossyNet::fate` is the plan's verdict on the next draw of its
    /// seeded stream, for every class when the mask is `ALL_CLASSES`.
    #[test]
    fn fate_is_the_verdict_of_the_next_stream_draw() {
        let plan = FaultPlan::drop_rate(7, 0.3)
            .with_dup(0.2)
            .with_delay(0.1, 50);
        let mut rolls = SmallRng::seed_from_u64(plan.seed);
        let mut lossy = LossyNet::faulty(
            PointToPointNet::new(2, NetParams::atm_100mhz()),
            plan.clone(),
        );
        for _ in 0..200 {
            assert_eq!(
                lossy.fate(0, 1, ALL_CLASSES),
                plan.verdict(rolls.next_u64())
            );
        }
    }

    #[test]
    fn crash_windows_and_activity() {
        let plan = FaultPlan::crash_schedule(11).with_crash(2, 1000, Some(500));
        let [c] = plan.crashes.as_slice() else {
            panic!("one crash scheduled: {:?}", plan.crashes);
        };
        assert_eq!(c.node, 2);
        assert!(!c.down_at(999));
        assert!(c.down_at(1000));
        assert!(c.down_at(1499));
        assert!(!c.down_at(1500), "self-restart ends the window");

        let forever = FaultPlan::crash_schedule(11).with_crash(0, 7, None);
        assert!(forever.crashes[0].down_at(u64::MAX));
    }

    #[test]
    fn crash_schedule_does_not_perturb_fault_streams() {
        // The same probabilistic plan with and without a crash schedule
        // must produce identical fate streams: severing is not randomized.
        let base = FaultPlan::drop_rate(7, 0.3).with_dup(0.2);
        let with_crash = base.clone().with_crash(1, 50, None);
        let mut a = LossyNet::faulty(PointToPointNet::new(4, NetParams::atm_100mhz()), base);
        let mut b = LossyNet::faulty(PointToPointNet::new(4, NetParams::atm_100mhz()), with_crash);
        let fates_a: Vec<Fate> = (0..200).map(|i| a.fate(i % 4, (i + 1) % 4, 1)).collect();
        let fates_b: Vec<Fate> = (0..200).map(|i| b.fate(i % 4, (i + 1) % 4, 1)).collect();
        assert_eq!(fates_a, fates_b);
    }

    #[test]
    fn lossy_transfer_timing_matches_inner_net() {
        let mut bare = PointToPointNet::new(2, NetParams::atm_40mhz());
        let mut lossy = LossyNet::faulty(
            PointToPointNet::new(2, NetParams::atm_40mhz()),
            FaultPlan::drop_rate(5, 0.5),
        );
        // Fate rolls must not perturb wire timing.
        let _ = lossy.fate(0, 1, 1);
        assert_eq!(bare.transfer(0, 1, 100, 0), lossy.transfer(0, 1, 100, 0));
    }
}
