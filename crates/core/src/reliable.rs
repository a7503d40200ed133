//! Reliability sublayer on the [`Envelope`] path.
//!
//! TreadMarks ran over UDP: every request carried an operation-specific
//! timeout, lost messages were retransmitted with exponential backoff, and
//! receivers suppressed duplicates so each handler ran effectively once.
//! This module is the reproduction's version of that machinery, written
//! sans-io like the protocol itself:
//!
//! * [`Reliability`] is the only holder of per-packet state. It owns the
//!   [`RetransmitPolicy`], the per-(src, dst) sequence numbers, the
//!   receiver's duplicate-suppression windows, the RTT estimators, and one
//!   flight per unacked packet: the envelope to re-send, its retry count,
//!   send time and armed deadline, and the sender's opaque stamp. Times are
//!   `u64`s in the caller's unit (cycles, or host microseconds since start).
//! * Three routers drive it and differ only in *when* they ask. Each calls
//!   [`send`] when a packet first leaves and [`delivered`] when a copy
//!   arrives (delivery doubles as the piggybacked ack, so a timer only ever
//!   fires for a packet that was lost or is still queued). The timed router
//!   in `tmk-machines` puts the deadline [`send`] returns in its event queue
//!   and calls [`timeout`] when it comes up; the real-thread `runtime`'s
//!   ticker calls [`timeout`] for every packet [`overdue`] at the host
//!   clock; the clockless fault stage of [`Cluster`](crate::Cluster) — the
//!   harness the protocol proptests run under — expires everything still in
//!   flight once its queue drains. What [`Timeout::Exhausted`] means is the
//!   driver's decision. The protocol state machines never see a duplicate or
//!   a gap.
//!
//! [`send`]: Reliability::send
//! [`delivered`]: Reliability::delivered
//! [`timeout`]: Reliability::timeout
//! [`overdue`]: Reliability::overdue

use std::collections::BTreeSet;

use crate::{Envelope, IntMap, NodeId};

/// Identifies one reliably-sent packet: `(src, dst, seq)`.
pub type PacketId = (NodeId, NodeId, u64);

/// Timeout / retransmission parameters (TreadMarks' UDP knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Cycles before the first retransmission of an unacked packet (also
    /// the adaptive policy's pre-first-sample RTO).
    pub timeout: u64,
    /// Multiplier applied to the timeout after each retransmission
    /// (exponential backoff).
    pub backoff: u32,
    /// Retransmissions allowed before the sender gives the peer up for
    /// dead and aborts.
    pub max_retries: u32,
    /// RFC 6298-style RTT estimation: when set, the RTO tracks the
    /// measured per-link round trip instead of the fixed `timeout`.
    pub adaptive: Option<AdaptiveRto>,
}

/// Bounds for the RTT-estimated RTO (see [`RetransmitPolicy::adaptive`]).
///
/// The floor must clear the worst *loss-free* queueing round trip, or the
/// estimator itself causes spurious retransmissions on healthy traffic;
/// the ceiling bounds how long a genuine loss can stall the link (the
/// fixed policy's 1M-cycle RTO is the natural ceiling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveRto {
    /// Minimum RTO in cycles (RFC 6298's "RTO should be rounded up").
    pub floor: u64,
    /// Maximum RTO in cycles, applied after backoff.
    pub ceiling: u64,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        // 1M cycles is 10 ms at the simulation study's 100 MHz — a coarse
        // LAN-style RTO. It must clear not just the uncontended round trip
        // (~0.3 ms with a 4 KB page) but the worst queueing burst behind an
        // 8-node barrier, or a loss-free run pays for spurious
        // retransmissions and stops being cycle-identical to a run without
        // the reliability layer.
        RetransmitPolicy {
            timeout: 1_000_000,
            backoff: 2,
            max_retries: 16,
            adaptive: None,
        }
    }
}

impl RetransmitPolicy {
    /// `base` backed off for `attempt` retransmissions, saturating rather
    /// than overflowing.
    fn backed_off(&self, base: u64, attempt: u32) -> u64 {
        base.saturating_mul((self.backoff.max(1) as u64).saturating_pow(attempt.min(32)))
    }

    /// The fixed policy's timeout after `attempt` retransmissions (attempt
    /// 0 = the original send).
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        self.backed_off(self.timeout, attempt)
    }

    /// Enables RFC 6298-style RTT estimation with the given RTO bounds.
    pub fn with_adaptive(mut self, floor: u64, ceiling: u64) -> Self {
        assert!(
            floor > 0 && floor <= ceiling,
            "floor must be in (0, ceiling]"
        );
        self.adaptive = Some(AdaptiveRto { floor, ceiling });
        self
    }
}

/// Counters kept by the reliability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Packets handed to the reliable path (original sends, not retries).
    pub data_msgs: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Retransmit timers that expired with the packet still unacked.
    pub timeouts: u64,
    /// Deliveries suppressed as duplicates.
    pub dup_suppressed: u64,
    /// Acks recorded (piggybacked on the reply path).
    pub acks: u64,
    /// Spurious retransmissions: the timer fired while the packet was
    /// still in flight (too-short RTO), so both copies arrived.
    pub spurious: u64,
}

impl RelStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RelStats) {
        self.data_msgs += other.data_msgs;
        self.retransmissions += other.retransmissions;
        self.timeouts += other.timeouts;
        self.dup_suppressed += other.dup_suppressed;
        self.acks += other.acks;
        self.spurious += other.spurious;
    }
}

/// Receiver-side duplicate-suppression window for one (src, dst) pair:
/// every seq `<= contiguous` has been delivered, plus the sparse set of
/// out-of-order arrivals above it.
#[derive(Debug, Clone, Default)]
struct Seen {
    contiguous: u64,
    sparse: BTreeSet<u64>,
}

impl Seen {
    /// Records `seq`; returns `false` if it was already delivered.
    fn insert(&mut self, seq: u64) -> bool {
        if seq <= self.contiguous || !self.sparse.insert(seq) {
            return false;
        }
        while self.sparse.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        true
    }
}

/// One unacked packet's sender-side state.
#[derive(Debug, Clone)]
struct Flight {
    /// The envelope to put back on the wire when the timer fires.
    env: Envelope,
    /// The sender's opaque tag, handed back with every re-send (the
    /// runtime's cluster generation; 0 in the simulators).
    stamp: u64,
    /// Retransmissions performed so far.
    retries: u32,
    /// Time of the original send.
    sent_at: u64,
    /// When the armed retransmit timer expires.
    deadline: u64,
}

/// Integer RFC 6298 estimator state for one directed link.
#[derive(Debug, Clone, Copy)]
struct RttEst {
    srtt: u64,
    rttvar: u64,
}

/// What a retransmit timer found when it fired (see
/// [`Reliability::timeout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Timeout {
    /// The packet was acked (or abandoned) in the meantime: nothing to do.
    Stale,
    /// Retransmission number `attempt` (1 = the first) is due: put `env`
    /// back on the wire, with the `stamp` its sender gave
    /// [`Reliability::send`]. The timer is re-armed for `deadline`: `now`
    /// plus the RTO after `attempt` retransmissions.
    Resend {
        env: Envelope,
        stamp: u64,
        attempt: u32,
        deadline: u64,
    },
    /// As [`Timeout::Resend`], but `attempt` is past the policy's
    /// `max_retries`. The expiry is counted and the timer re-armed like any
    /// other; whether to re-send regardless, declare the peer dead or abort
    /// is the driver's decision. `fresh_deadline` is `now` plus the RTO of a
    /// first send: what to arm instead when the driver forgives the packet
    /// ([`Reliability::forgive_retries`]) and re-sends it on a fresh
    /// allowance.
    Exhausted {
        env: Envelope,
        stamp: u64,
        attempt: u32,
        deadline: u64,
        fresh_deadline: u64,
    },
}

/// Sequence numbers, duplicate suppression and retransmit flights for a
/// whole cluster's traffic (the routers are centralized, so one instance
/// covers every (src, dst) pair).
#[derive(Debug, Clone, Default)]
pub struct Reliability {
    policy: RetransmitPolicy,
    next_seq: IntMap<(NodeId, NodeId), u64>,
    seen: IntMap<(NodeId, NodeId), Seen>,
    in_flight: IntMap<PacketId, Flight>,
    /// Per-directed-link RTT estimators, fed by [`delivered`] under an
    /// adaptive policy.
    ///
    /// [`delivered`]: Reliability::delivered
    rtt: IntMap<(NodeId, NodeId), RttEst>,
    stats: RelStats,
}

impl Reliability {
    /// A fresh instance (all sequences at zero) retransmitting per
    /// `policy`.
    pub fn new(policy: RetransmitPolicy) -> Self {
        Reliability {
            policy,
            ..Default::default()
        }
    }

    /// Assigns the next sequence number on `env`'s (src, dst) pair, keeps
    /// a copy of `env` (and the caller's `stamp`) for retransmission, and
    /// arms the first timer; returns the packet's id and that deadline.
    ///
    /// # Panics
    ///
    /// Panics on a loopback envelope — local delivery bypasses the network
    /// and needs no reliability.
    pub fn send(&mut self, env: &Envelope, now: u64, stamp: u64) -> (PacketId, u64) {
        assert_ne!(env.from, env.to, "loopback envelopes are not registered");
        let seq = self.next_seq.entry((env.from, env.to)).or_insert(0);
        *seq += 1;
        let pid = (env.from, env.to, *seq);
        let deadline = now.saturating_add(self.rto(env.from, env.to, 0));
        self.in_flight.insert(
            pid,
            Flight {
                env: env.clone(),
                stamp,
                retries: 0,
                sent_at: now,
                deadline,
            },
        );
        self.stats.data_msgs += 1;
        (pid, deadline)
    }

    /// A copy of `pid` reached its destination at `now`. Delivery is the
    /// (piggybacked) ack: the flight and its timer are gone, idempotently.
    /// Returns `true` exactly once per packet; later copies return `false`
    /// and are counted as suppressed.
    ///
    /// Under an adaptive policy the first ack feeds the link's RFC 6298
    /// estimator — unless the packet was ever retransmitted (Karn's
    /// algorithm: the ack would be ambiguous between copies).
    pub fn delivered(&mut self, pid: PacketId, now: u64) -> bool {
        let (src, dst, seq) = pid;
        if let Some(flight) = self.in_flight.remove(&pid) {
            self.stats.acks += 1;
            if self.policy.adaptive.is_some() && flight.retries == 0 && now > flight.sent_at {
                let r = now - flight.sent_at;
                match self.rtt.get_mut(&(src, dst)) {
                    None => {
                        // First sample: SRTT = R, RTTVAR = R/2.
                        self.rtt.insert(
                            (src, dst),
                            RttEst {
                                srtt: r,
                                rttvar: r / 2,
                            },
                        );
                    }
                    Some(est) => {
                        // Integer forms of RTTVAR = 3/4·RTTVAR + 1/4·|SRTT−R|
                        // and SRTT = 7/8·SRTT + 1/8·R.
                        est.rttvar = (3 * est.rttvar + est.srtt.abs_diff(r)) / 4;
                        est.srtt = (7 * est.srtt + r) / 8;
                    }
                }
            }
        }
        let fresh = self.seen.entry((src, dst)).or_default().insert(seq);
        if !fresh {
            self.stats.dup_suppressed += 1;
        }
        fresh
    }

    /// The retransmit timeout for a packet on `src → dst` after `attempt`
    /// retransmissions. With no adaptive config this is exactly
    /// [`RetransmitPolicy::timeout_for`]; with one, the RFC 6298 estimate
    /// `SRTT + 4·RTTVAR` (the fixed `timeout` until the first sample),
    /// clamped to the configured bounds, backed off per attempt and capped
    /// at the ceiling.
    fn rto(&self, src: NodeId, dst: NodeId, attempt: u32) -> u64 {
        let Some(adaptive) = self.policy.adaptive else {
            return self.policy.timeout_for(attempt);
        };
        let base = match self.rtt.get(&(src, dst)) {
            Some(est) => est.srtt.saturating_add(4 * est.rttvar.max(1)),
            None => self.policy.timeout,
        };
        self.policy
            .backed_off(base.clamp(adaptive.floor, adaptive.ceiling), attempt)
            .min(adaptive.ceiling)
    }

    /// `pid`'s retransmit timer fired at `now`. If the packet is still
    /// unacked the expiry is counted, its retry count goes up by one and
    /// the timer is re-armed at `now` plus the backed-off RTO.
    ///
    /// A driver whose copy leaves later than `now` (a busy sender) owns
    /// that shift: the interval `deadline - now` is what to add to the
    /// departure.
    pub fn timeout(&mut self, pid: PacketId, now: u64) -> Timeout {
        let Some(attempt) = self.in_flight.get(&pid).map(|f| f.retries + 1) else {
            return Timeout::Stale;
        };
        let (src, dst, _) = pid;
        let deadline = now.saturating_add(self.rto(src, dst, attempt));
        let flight = self.in_flight.get_mut(&pid).expect("looked up above");
        flight.retries = attempt;
        flight.deadline = deadline;
        let (env, stamp) = (flight.env.clone(), flight.stamp);
        self.stats.timeouts += 1;
        self.stats.retransmissions += 1;
        if attempt > self.policy.max_retries {
            Timeout::Exhausted {
                env,
                stamp,
                attempt,
                deadline,
                fresh_deadline: now.saturating_add(self.rto(src, dst, 0)),
            }
        } else {
            Timeout::Resend {
                env,
                stamp,
                attempt,
                deadline,
            }
        }
    }

    /// Every packet whose armed deadline is at or before `now`, earliest
    /// deadline first (ties by id) — an order that does not depend on the
    /// order the packets were sent in or on hashing.
    pub fn overdue(&self, now: u64) -> Vec<PacketId> {
        let mut due: Vec<(u64, PacketId)> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(&pid, f)| (f.deadline, pid))
            .collect();
        due.sort_unstable();
        due.into_iter().map(|(_, pid)| pid).collect()
    }

    /// Counts a spurious retransmission (the router observed the timer
    /// firing for a packet whose original copy was still in flight).
    pub fn note_spurious(&mut self) {
        self.stats.spurious += 1;
    }

    /// Resets the retry count of every in-flight packet to or from `node`,
    /// returning how many were reset. Crash recovery uses this after a
    /// rollback: retransmissions burned while the peer was down must not
    /// count against the exhaustion limit once it answers again.
    pub fn forgive_retries(&mut self, node: NodeId) -> usize {
        let mut reset = 0;
        for (&(src, dst, _), flight) in self.in_flight.iter_mut() {
            if (src == node || dst == node) && flight.retries > 0 {
                flight.retries = 0;
                reset += 1;
            }
        }
        reset
    }

    /// Drops every in-flight packet without acking it, returning how many
    /// were abandoned. Crash recovery uses this when the whole cluster
    /// rolls back to a checkpoint: the pre-rollback packets will never be
    /// acked (their state is gone on both ends), and replay sends afresh
    /// everything it needs. Receiver windows are *not* reset — sequence
    /// numbers keep climbing — and each abandoned sequence number is marked
    /// seen, so the window closes over it and a late copy is suppressed
    /// whether or not an earlier one had arrived.
    pub fn abandon_in_flight(&mut self) -> usize {
        let n = self.in_flight.len();
        for ((src, dst, seq), _) in self.in_flight.drain() {
            self.seen.entry((src, dst)).or_default().insert(seq);
        }
        n
    }

    /// Number of packets awaiting acks.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// The layer's counters.
    pub fn stats(&self) -> &RelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: NodeId, to: NodeId) -> Envelope {
        Envelope {
            from,
            to,
            msg: crate::Msg::PageReq { page: 0 },
        }
    }

    fn fixed(timeout: u64, max_retries: u32) -> RetransmitPolicy {
        RetransmitPolicy {
            timeout,
            backoff: 2,
            max_retries,
            adaptive: None,
        }
    }

    /// Fires `pid`'s timer at time 0 and returns the attempt it reports.
    fn expire(rel: &mut Reliability, pid: PacketId) -> u32 {
        match rel.timeout(pid, 0) {
            Timeout::Resend { attempt, .. } | Timeout::Exhausted { attempt, .. } => attempt,
            Timeout::Stale => panic!("{pid:?} is not in flight"),
        }
    }

    #[test]
    fn sequences_are_per_pair_and_monotonic() {
        let mut rel = Reliability::new(RetransmitPolicy::default());
        assert_eq!(rel.send(&env(0, 1), 0, 0).0, (0, 1, 1));
        assert_eq!(rel.send(&env(0, 1), 0, 0).0, (0, 1, 2));
        assert_eq!(rel.send(&env(1, 0), 0, 0).0, (1, 0, 1));
        assert_eq!(rel.send(&env(0, 2), 0, 0).0, (0, 2, 1));
        assert_eq!(rel.in_flight_len(), 4);
    }

    #[test]
    fn duplicates_are_suppressed_in_and_out_of_order() {
        let mut rel = Reliability::new(RetransmitPolicy::default());
        assert!(rel.delivered((0, 1, 2), 0)); // out of order: fine
        assert!(rel.delivered((0, 1, 1), 0));
        assert!(!rel.delivered((0, 1, 1), 0), "replay below the window");
        assert!(!rel.delivered((0, 1, 2), 0), "replay inside the sparse set");
        assert!(rel.delivered((0, 1, 3), 0));
        assert_eq!(rel.stats().dup_suppressed, 2);
    }

    #[test]
    fn acks_drain_the_in_flight_set_idempotently() {
        let mut rel = Reliability::new(RetransmitPolicy::default());
        let (pid, _) = rel.send(&env(2, 3), 0, 0);
        assert_eq!(rel.in_flight_len(), 1);
        assert!(rel.delivered(pid, 0));
        assert!(!rel.delivered(pid, 0));
        assert_eq!(rel.in_flight_len(), 0);
        assert_eq!(rel.stats().acks, 1);
    }

    #[test]
    fn timeout_after_delivered_is_stale() {
        let mut rel = Reliability::new(RetransmitPolicy::default());
        let (pid, deadline) = rel.send(&env(0, 1), 0, 0);
        assert!(rel.delivered(pid, 10));
        assert_eq!(rel.timeout(pid, deadline), Timeout::Stale);
        assert!(
            rel.overdue(u64::MAX).is_empty(),
            "the ack cancelled the timer"
        );
        assert_eq!(rel.stats().timeouts, 0);
    }

    #[test]
    fn resend_carries_the_attempt_and_its_backed_off_deadline() {
        let mut rel = Reliability::new(fixed(10, 4));
        let (pid, deadline) = rel.send(&env(0, 1), 100, 7);
        assert_eq!(deadline, 110);
        for (n, now) in [(1u32, 110u64), (2, 500), (3, 501)] {
            assert_eq!(
                rel.timeout(pid, now),
                Timeout::Resend {
                    env: env(0, 1),
                    stamp: 7,
                    attempt: n,
                    deadline: now + 10 * 2u64.pow(n),
                }
            );
        }
        assert_eq!(rel.stats().retransmissions, 3);
        assert_eq!(rel.stats().timeouts, 3);

        // Adaptive: the deadline follows the link's estimate, not `timeout`.
        let mut rel = Reliability::new(fixed(10_000, 4).with_adaptive(100, 10_000));
        let (first, _) = rel.send(&env(0, 1), 0, 0);
        assert!(rel.delivered(first, 800)); // SRTT=800, RTTVAR=400 → RTO=2400
        let (pid, deadline) = rel.send(&env(0, 1), 1_000, 0);
        assert_eq!(deadline, 1_000 + 2_400);
        match rel.timeout(pid, 5_000) {
            Timeout::Resend {
                attempt, deadline, ..
            } => assert_eq!((attempt, deadline), (1, 5_000 + 4_800)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exhausted_after_exactly_max_retries() {
        let mut rel = Reliability::new(fixed(10, 3));
        let (pid, _) = rel.send(&env(0, 1), 0, 0);
        for n in 1..=3 {
            assert!(matches!(rel.timeout(pid, 0), Timeout::Resend { attempt, .. } if attempt == n));
        }
        assert_eq!(
            rel.timeout(pid, 1_000),
            Timeout::Exhausted {
                env: env(0, 1),
                stamp: 0,
                attempt: 4,
                deadline: 1_000 + 160,
                fresh_deadline: 1_000 + 10,
            }
        );
        assert_eq!(rel.in_flight_len(), 1, "giving up is the driver's call");
    }

    #[test]
    fn overdue_order_is_independent_of_send_order() {
        // The same three flights, armed in two different orders.
        let links = [(0, 1), (2, 1), (1, 0)];
        let mut a = Reliability::new(fixed(10, 4));
        let mut b = Reliability::new(fixed(10, 4));
        for &(s, d) in &links {
            a.send(&env(s, d), 0, 0);
        }
        for &(s, d) in links.iter().rev() {
            b.send(&env(s, d), 0, 0);
        }
        for rel in [&mut a, &mut b] {
            // Back (2, 1) off once: its deadline moves from 10 to 25.
            let fired = rel.timeout((2, 1, 1), 5);
            assert!(matches!(fired, Timeout::Resend { deadline: 25, .. }));
        }
        assert!(a.overdue(9).is_empty());
        assert_eq!(a.overdue(10), [(0, 1, 1), (1, 0, 1)]);
        assert_eq!(a.overdue(25), [(0, 1, 1), (1, 0, 1), (2, 1, 1)]);
        for now in [9, 10, 25, u64::MAX] {
            assert_eq!(a.overdue(now), b.overdue(now));
        }
    }

    #[test]
    fn forgive_retries_resets_only_the_dead_nodes_links() {
        let mut rel = Reliability::new(RetransmitPolicy::default());
        let (to_dead, _) = rel.send(&env(0, 2), 0, 0);
        let (from_dead, _) = rel.send(&env(2, 1), 0, 0);
        let (unrelated, _) = rel.send(&env(0, 1), 0, 0);
        for _ in 0..3 {
            expire(&mut rel, to_dead);
            expire(&mut rel, from_dead);
            expire(&mut rel, unrelated);
        }
        assert_eq!(rel.forgive_retries(2), 2);
        assert_eq!(expire(&mut rel, to_dead), 1, "count restarted");
        assert_eq!(expire(&mut rel, from_dead), 1, "count restarted");
        assert_eq!(
            expire(&mut rel, unrelated),
            4,
            "untouched link kept its count"
        );
    }

    #[test]
    fn abandon_clears_flights_but_keeps_receiver_windows() {
        let mut rel = Reliability::new(RetransmitPolicy::default());
        let (a, _) = rel.send(&env(0, 1), 0, 0);
        let (b, deadline) = rel.send(&env(1, 2), 0, 0);
        assert_eq!(rel.abandon_in_flight(), 2);
        assert_eq!(rel.in_flight_len(), 0);
        assert_eq!(rel.timeout(b, deadline), Timeout::Stale);
        // No acks were granted for the abandoned packets...
        assert_eq!(rel.stats().acks, 0);
        // ...and the receive windows survive: a late copy is still caught.
        assert!(
            !rel.delivered(a, 0),
            "post-abandon replay must be suppressed"
        );
        // A fresh send continues the per-link sequence.
        assert_eq!(rel.send(&env(0, 1), 0, 0).0, (0, 1, 2));
    }

    #[test]
    fn abandoned_undelivered_packet_leaves_no_hole_in_the_window() {
        // What a runtime rollback does to everything addressed to the
        // crashed node: the packet is abandoned before any copy arrived.
        let mut rel = Reliability::new(RetransmitPolicy::default());
        let (lost, _) = rel.send(&env(0, 1), 0, 0);
        assert_eq!(rel.abandon_in_flight(), 1);
        for _ in 0..1_000 {
            let (pid, _) = rel.send(&env(0, 1), 0, 0);
            assert!(rel.delivered(pid, 0));
        }
        let window = &rel.seen[&(0, 1)];
        assert_eq!(
            window.contiguous, 1_001,
            "the window closed over the abandoned id"
        );
        assert!(window.sparse.is_empty());
        assert!(!rel.delivered(lost, 0), "a late copy is suppressed");
        assert_eq!(rel.stats().dup_suppressed, 1);
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let p = fixed(10, 4);
        assert_eq!(p.timeout_for(0), 10);
        assert_eq!(p.timeout_for(1), 20);
        assert_eq!(p.timeout_for(3), 80);
        let huge = RetransmitPolicy {
            timeout: u64::MAX / 2,
            backoff: 8,
            max_retries: 64,
            adaptive: None,
        };
        assert_eq!(huge.timeout_for(60), u64::MAX, "saturates, never wraps");
    }

    #[test]
    fn fixed_policy_rto_matches_timeout_for_exactly() {
        let p = RetransmitPolicy::default();
        let rel = Reliability::new(p);
        for attempt in 0..8 {
            assert_eq!(rel.rto(0, 1, attempt), p.timeout_for(attempt));
        }
    }

    #[test]
    fn adaptive_rto_tracks_samples_and_respects_bounds() {
        let mut rel = Reliability::new(RetransmitPolicy::default().with_adaptive(1_000, 1_000_000));
        // No sample yet: conservative fixed timeout, clamped to ceiling.
        assert_eq!(rel.rto(0, 1, 0), 1_000_000);
        // One 8000-cycle sample: SRTT=8000, RTTVAR=4000 → RTO=24000.
        let (pid, _) = rel.send(&env(0, 1), 100, 0);
        rel.delivered(pid, 8_100);
        assert_eq!(rel.rto(0, 1, 0), 8_000 + 4 * 4_000);
        // Backoff doubles per attempt but never passes the ceiling.
        assert_eq!(rel.rto(0, 1, 1), 48_000);
        assert_eq!(rel.rto(0, 1, 20), 1_000_000);
        // A second identical sample shrinks the variance term.
        let (pid, _) = rel.send(&env(0, 1), 10_000, 0);
        rel.delivered(pid, 18_000);
        assert!(rel.rto(0, 1, 0) < 24_000);
        // Other links are unaffected (per-link estimators).
        assert_eq!(rel.rto(1, 0, 0), 1_000_000);
        // The floor binds when the estimate collapses.
        rel.policy = RetransmitPolicy::default().with_adaptive(500_000, 1_000_000);
        assert_eq!(rel.rto(0, 1, 0), 500_000);
    }

    #[test]
    fn karn_discards_samples_from_retransmitted_packets() {
        let mut rel = Reliability::new(RetransmitPolicy::default().with_adaptive(1_000, 1_000_000));
        let (pid, _) = rel.send(&env(0, 1), 0, 0);
        expire(&mut rel, pid);
        rel.delivered(pid, 5_000); // ambiguous ack: no sample
        assert_eq!(rel.rto(0, 1, 0), 1_000_000, "estimator still cold");
        assert_eq!(rel.stats().acks, 1);
        rel.note_spurious();
        assert_eq!(rel.stats().spurious, 1);
    }
}

/// Exhaustive exploration of [`Reliability`] on one link: every
/// interleaving of `send`, copy arrival, `timeout` on any live flight,
/// `abandon_in_flight` and `forgive_retries` for up to three packets at
/// `max_retries` 2 — the two hooks the crash-recovery drivers call, mixed
/// with everything the routers do. Stress tests (`prop_protocol.rs`) cover
/// breadth; this covers every schedule of a small world.
///
/// Copies are never dropped explicitly: a copy that a path never delivers
/// is a dropped one. Each flight times out at most `max_retries + 1` times
/// per allowance (so it exhausts once), and a path abandons and forgives at
/// most once each. Under the fixed policy the layer never branches on time,
/// so states are compared with the clock and deadlines left out.
#[cfg(test)]
mod small_world {
    use std::collections::HashSet;

    use super::*;

    const PACKETS: usize = 3;
    const MAX_RETRIES: u32 = 2;
    const LINK: (NodeId, NodeId) = (0, 1);

    #[derive(Clone)]
    struct World {
        rel: Reliability,
        now: u64,
        sent: usize,
        /// Copies of packet `seq` still on the wire, at index `seq - 1`.
        wire: [u32; PACKETS],
        /// Whether `delivered` has returned `true` for the packet.
        accepted: [bool; PACKETS],
        /// Whether the packet's flight was abandoned before an ack.
        abandoned: [bool; PACKETS],
        forgave: bool,
        abandon_used: bool,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Send,
        Arrive(usize),
        Timeout(usize),
        Abandon,
        Forgive,
    }

    fn pid(seq: usize) -> PacketId {
        (LINK.0, LINK.1, seq as u64)
    }

    impl World {
        fn new() -> World {
            World {
                rel: Reliability::new(RetransmitPolicy {
                    timeout: 10,
                    backoff: 2,
                    max_retries: MAX_RETRIES,
                    adaptive: None,
                }),
                now: 0,
                sent: 0,
                wire: [0; PACKETS],
                accepted: [false; PACKETS],
                abandoned: [false; PACKETS],
                forgave: false,
                abandon_used: false,
            }
        }

        /// Everything that decides the future, without the clock.
        fn key(&self) -> Vec<u64> {
            let mut k = vec![
                self.sent as u64,
                self.forgave as u64,
                self.abandon_used as u64,
            ];
            for i in 0..PACKETS {
                let retries = self
                    .rel
                    .in_flight
                    .get(&pid(i + 1))
                    .map_or(0, |f| f.retries + 1);
                k.extend([
                    self.wire[i] as u64,
                    self.accepted[i] as u64,
                    self.abandoned[i] as u64,
                    retries as u64,
                ]);
            }
            if let Some(seen) = self.rel.seen.get(&LINK) {
                k.push(seen.contiguous);
                k.extend(seen.sparse.iter().copied());
            }
            k
        }

        fn steps(&self) -> Vec<Step> {
            let mut steps = Vec::new();
            if self.sent < PACKETS {
                steps.push(Step::Send);
            }
            for seq in 1..=self.sent {
                if self.wire[seq - 1] > 0 {
                    steps.push(Step::Arrive(seq));
                }
                if let Some(f) = self.rel.in_flight.get(&pid(seq)) {
                    if f.retries <= MAX_RETRIES {
                        steps.push(Step::Timeout(seq));
                    }
                }
            }
            let live = !self.rel.in_flight.is_empty();
            if live && !self.abandon_used {
                steps.push(Step::Abandon);
            }
            if !self.forgave && self.rel.in_flight.values().any(|f| f.retries > 0) {
                steps.push(Step::Forgive);
            }
            steps
        }

        fn apply(&mut self, step: Step) {
            match step {
                Step::Send => {
                    let (p, deadline) = self.rel.send(&env(), self.now, 0);
                    self.sent += 1;
                    assert_eq!(p, pid(self.sent), "sequences are dense");
                    assert!(deadline > self.now);
                    self.wire[self.sent - 1] += 1;
                }
                Step::Arrive(seq) => {
                    self.wire[seq - 1] -= 1;
                    if self.rel.delivered(pid(seq), self.now) {
                        assert!(!self.accepted[seq - 1], "packet {seq} delivered twice");
                        assert!(!self.abandoned[seq - 1], "abandoned packet {seq} delivered");
                        self.accepted[seq - 1] = true;
                    }
                }
                Step::Timeout(seq) => {
                    let f = &self.rel.in_flight[&pid(seq)];
                    let (retries, deadline) = (f.retries, f.deadline);
                    self.now = self.now.max(deadline);
                    assert!(self.rel.overdue(self.now).contains(&pid(seq)));
                    match self.rel.timeout(pid(seq), self.now) {
                        Timeout::Resend { attempt, .. } | Timeout::Exhausted { attempt, .. } => {
                            assert_eq!(attempt, retries + 1);
                        }
                        Timeout::Stale => panic!("live flight {seq} timed out stale"),
                    }
                    self.wire[seq - 1] += 1;
                }
                Step::Abandon => {
                    for &(_, _, seq) in self.rel.in_flight.keys() {
                        self.abandoned[seq as usize - 1] = true;
                    }
                    self.rel.abandon_in_flight();
                    self.abandon_used = true;
                }
                Step::Forgive => {
                    assert!(self.rel.forgive_retries(LINK.1) > 0);
                    self.forgave = true;
                }
            }
        }

        /// The invariants every reachable state keeps.
        fn check(&self) {
            for (&p, f) in &self.rel.in_flight {
                assert!(f.deadline < u64::MAX, "{p:?} has no finite deadline");
                assert!(
                    self.rel.overdue(f.deadline).contains(&p),
                    "{p:?} never overdue"
                );
            }
            if self.rel.in_flight.is_empty() {
                let (contiguous, sparse) = self
                    .rel
                    .seen
                    .get(&LINK)
                    .map_or((0, 0), |s| (s.contiguous, s.sparse.len()));
                assert_eq!(sparse, 0, "quiescent window has a hole");
                assert_eq!(
                    contiguous, self.sent as u64,
                    "quiescent window misses a packet"
                );
            }
        }
    }

    fn env() -> Envelope {
        Envelope {
            from: LINK.0,
            to: LINK.1,
            msg: crate::Msg::PageReq { page: 0 },
        }
    }

    #[test]
    fn every_interleaving_keeps_the_window_exact() {
        let mut seen = HashSet::new();
        let mut stack = vec![World::new()];
        let (mut quiescent, mut exhausted) = (0u64, 0u64);
        while let Some(world) = stack.pop() {
            if !seen.insert(world.key()) {
                continue;
            }
            world.check();
            if world.sent == PACKETS && world.rel.in_flight.is_empty() {
                quiescent += 1;
            }
            for step in world.steps() {
                let mut next = world.clone();
                next.apply(step);
                if matches!(step, Step::Timeout(seq) if next.rel.in_flight[&pid(seq)].retries > MAX_RETRIES)
                {
                    exhausted += 1;
                }
                stack.push(next);
            }
        }
        println!(
            "small_world: {} states, {quiescent} quiescent, {exhausted} exhausting timeouts",
            seen.len()
        );
        assert!(
            quiescent > 0 && exhausted > 0,
            "the search reached no interesting state"
        );
    }
}
