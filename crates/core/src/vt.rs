//! Vector timestamps representing the happened-before-1 partial order.

use std::fmt;

use crate::{NodeId, Seq};

/// A vector timestamp: `vt[q]` is the number of node `q`'s intervals this
/// time covers (interval sequence numbers are 1-based, so covering seq `s`
/// means `vt[q] >= s`).
///
/// TreadMarks represents the happened-before-1 partial order — the union of
/// per-processor program order and release→acquire order — with exactly this
/// structure.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VTime(Vec<Seq>);

impl VTime {
    /// The zero timestamp for an `n`-node cluster (covers nothing).
    pub fn zero(n: usize) -> Self {
        VTime(vec![0; n])
    }

    /// Number of nodes this timestamp spans.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the timestamp spans zero nodes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The covered interval count for node `q`.
    pub fn get(&self, q: NodeId) -> Seq {
        self.0[q]
    }

    /// Sets the covered interval count for node `q`.
    pub fn set(&mut self, q: NodeId, seq: Seq) {
        self.0[q] = seq;
    }

    /// Element-wise maximum (join in the lattice of vector times) with
    /// another time's counts: a [`VTime`] or an interval record's slice.
    pub fn merge(&mut self, other: &(impl AsRef<[Seq]> + ?Sized)) {
        let other = other.as_ref();
        debug_assert_eq!(self.0.len(), other.len());
        for (a, b) in self.0.iter_mut().zip(other) {
            *a = (*a).max(*b);
        }
    }

    /// `self <= other` in the partial order (other covers everything self
    /// covers).
    pub fn le(&self, other: &VTime) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Wire size in bytes (one [`Seq`] per node).
    pub fn wire_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<Seq>()
    }

    /// Iterates `(node, covered_seq)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Seq)> + '_ {
        self.0.iter().copied().enumerate()
    }
}

impl AsRef<[Seq]> for VTime {
    fn as_ref(&self) -> &[Seq] {
        &self.0
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VTime{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_covers_nothing() {
        let vt = VTime::zero(3);
        assert!((0..3).all(|q| vt.get(q) == 0));
        assert_eq!(vt.len(), 3);
    }

    #[test]
    fn merge_is_elementwise_max() {
        let mut a = VTime::zero(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = VTime::zero(3);
        b.set(0, 2);
        b.set(1, 7);
        a.merge(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 7);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn partial_order() {
        let mut a = VTime::zero(2);
        let mut b = VTime::zero(2);
        assert!(a.le(&b) && b.le(&a));
        b.set(0, 1);
        assert!(a.le(&b) && !b.le(&a));
        a.set(1, 1);
        assert!(!a.le(&b) && !b.le(&a), "concurrent");
        let mut c = b.clone();
        c.merge(&a);
        assert!(a.le(&c) && b.le(&c));
    }
}
