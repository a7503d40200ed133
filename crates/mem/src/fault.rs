//! Seeded fault injection for the hardware coherence fabrics.
//!
//! The software platforms inject faults at the message level (`tmk-net`'s
//! `FaultPlan`); hardware platforms have no messages to drop, so chaos is
//! modelled at the transaction level instead: each non-hit coherence
//! transaction independently suffers a *retry* with a seeded probability —
//! an ECC hiccup, an arbitration conflict, a NACKed directory request — and
//! re-traverses the fabric. Hardware masks such faults transparently, so a
//! faulted run stays correct; it just gets slower, and the retry counters
//! surface in the bus/directory statistics.
//!
//! The schedule is a pure function of `(seed, draw index)` via a
//! splitmix64 stream, so a faulted run is exactly reproducible and engines
//! replay it bit-identically.

/// A seeded per-transaction fault schedule for one fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricFaults {
    seed: u64,
    rate: f64,
    draws: u64,
    retries: u64,
}

impl FabricFaults {
    /// A schedule where each non-hit transaction faults (and is retried)
    /// with probability `rate`.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FabricFaults {
            seed,
            rate,
            draws: 0,
            retries: 0,
        }
    }

    /// Rolls the fate of one transaction: `true` means it faulted and must
    /// be retried. Exactly one draw per call, so arming other fault models
    /// never perturbs this stream.
    pub fn strike(&mut self) -> bool {
        let u = splitmix64(
            self.seed
                .wrapping_add(self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        self.draws += 1;
        // 53-bit uniform in [0, 1).
        let x = (u >> 11) as f64 / (1u64 << 53) as f64;
        let hit = x < self.rate;
        if hit {
            self.retries += 1;
        }
        hit
    }

    /// Transactions faulted so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_rate_accurate() {
        let mut a = FabricFaults::new(7, 0.1);
        let mut b = FabricFaults::new(7, 0.1);
        let hits_a: Vec<bool> = (0..10_000).map(|_| a.strike()).collect();
        let hits_b: Vec<bool> = (0..10_000).map(|_| b.strike()).collect();
        assert_eq!(hits_a, hits_b);
        let rate = a.retries() as f64 / 10_000.0;
        assert!((0.08..0.12).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FabricFaults::new(1, 0.5);
        let mut b = FabricFaults::new(2, 0.5);
        let hits_a: Vec<bool> = (0..64).map(|_| a.strike()).collect();
        let hits_b: Vec<bool> = (0..64).map(|_| b.strike()).collect();
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn zero_rate_never_strikes() {
        let mut f = FabricFaults::new(3, 0.0);
        assert!((0..1000).all(|_| !f.strike()));
        assert_eq!(f.retries(), 0);
    }
}
