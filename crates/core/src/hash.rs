//! The one hasher behind the protocol's integer-keyed maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by node, lock, barrier or packet ids (integers and
/// small tuples of them), hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A multiplicative (Fx-style) hasher for keys the program itself numbers.
/// It is not collision-resistant — never key it by outside input — and it is
/// deterministic: no per-process seed, so a simulation's maps behave the same
/// in every process.
///
/// A fixed hasher also makes a dependence on map iteration order *silent*
/// (`RandomState` surfaced one as flakiness), so every walk over an `IntMap`
/// was audited when the maps were converted, and a new one must pass the same
/// rule: feed a commutative fold, or sort before reaching a message, report,
/// checkpoint or panic text. The walks: `Node::sync_debug` sorts locks and
/// barriers by id; `Node::forgotten_tokens` and `Reliability::forgive_retries`
/// count; `Reliability::overdue` sorts by `(deadline, id)`;
/// `Reliability::abandon_in_flight` inserts into per-link windows whose final
/// state is a set. `NodeCheckpoint` holds none of the maps. Everything else is
/// keyed lookup.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}
