//! The eviction-candidate set, ordered by recency.
//!
//! Marconi evicts only nodes with ≤ 1 child (paper §4.3), and every policy
//! here reads that set oldest-first: LRU-flavored policies (α = 0, and the
//! auto-tuner's LRU phase) take the first eligible entry, the scored
//! policies walk all of it. This index *is* the candidate set — one
//! `BTreeSet<(stamp, id)>`, the shape of the TGI radix trie's
//! `BTreeSet<(last_accessed, NodeId)>` — so there is no second structure to
//! keep equal to it. Candidacy is a pure function of the node
//! (`id != ROOT && children.len() <= 1`); the tree inserts and removes
//! entries at the four sites where that function changes value, and
//! [`RadixTree::touch`](crate::RadixTree::touch) re-keys an entry in
//! O(log n). An ordered set has no insertion order, so nothing that leaves
//! membership alone — a pin, say — can perturb the order victims come out
//! in.
//!
//! Both mutators check their precondition in every build profile: as the
//! only candidate source, a missed or doubled transition must panic, not
//! silently skew the victim order.

use crate::node::NodeId;
use std::collections::BTreeSet;

/// Eviction-candidate ids ordered by `(stamp, id)` — ascending stamp, then
/// id.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecencyIndex {
    set: BTreeSet<(u64, NodeId)>,
}

impl RecencyIndex {
    /// Adds the entry of a node that just became a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `(stamp, id)` is already present.
    pub fn insert(&mut self, stamp: u64, id: NodeId) {
        let fresh = self.set.insert((stamp, id));
        assert!(
            fresh,
            "invariant: a node enters the recency index once ({id} already present)"
        );
    }

    /// Removes the entry of a node that just stopped being a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `(stamp, id)` is absent.
    pub fn remove(&mut self, stamp: u64, id: NodeId) {
        let existed = self.set.remove(&(stamp, id));
        assert!(
            existed,
            "invariant: only indexed nodes leave the recency index ({id} absent at stamp {stamp})"
        );
    }

    /// `true` if the exact `(stamp, id)` entry is present.
    pub fn contains(&self, stamp: u64, id: NodeId) -> bool {
        self.set.contains(&(stamp, id))
    }

    /// Number of entries — the eviction-candidate count.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Entries in ascending `(stamp, id)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.set.iter().copied()
    }
}

/// Maps an `f64` timestamp to a `u64` stamp whose unsigned order equals
/// [`f64::total_cmp`] order, so a binary-searchable integer index can stand
/// in for float recency comparisons exactly (no epsilon, no NaN caveats).
///
/// The transform is the classic total-order bijection: flip the sign bit of
/// non-negative floats, flip every bit of negative ones.
///
/// ```
/// use marconi_radix::recency_stamp;
///
/// let ts = [-1.5f64, -0.0, 0.0, 1.0e-300, 2.5, f64::INFINITY];
/// let stamps: Vec<u64> = ts.iter().map(|&t| recency_stamp(t)).collect();
/// assert!(stamps.windows(2).all(|w| w[0] < w[1]));
/// ```
#[must_use]
pub fn recency_stamp(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_preserves_total_order() {
        let mut ts = vec![
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1.0e300,
            f64::INFINITY,
        ];
        ts.sort_by(f64::total_cmp);
        for w in ts.windows(2) {
            let (a, b) = (recency_stamp(w[0]), recency_stamp(w[1]));
            match w[0].total_cmp(&w[1]) {
                std::cmp::Ordering::Less => assert!(a < b, "{} vs {}", w[0], w[1]),
                std::cmp::Ordering::Equal => assert_eq!(a, b),
                std::cmp::Ordering::Greater => unreachable!("sorted input"),
            }
        }
        // -0.0 and 0.0 are distinct under total_cmp and stay distinct.
        assert!(recency_stamp(-0.0) < recency_stamp(0.0));
    }

    #[test]
    fn index_orders_by_stamp_then_id() {
        let mut idx = RecencyIndex::default();
        idx.insert(5, NodeId::new(2, 0));
        idx.insert(5, NodeId::new(1, 0));
        idx.insert(3, NodeId::new(9, 0));
        let order: Vec<(u64, usize)> = idx.iter().map(|(s, n)| (s, n.index())).collect();
        assert_eq!(order, vec![(3, 9), (5, 1), (5, 2)]);
        assert!(idx.contains(5, NodeId::new(1, 0)));
        idx.remove(5, NodeId::new(1, 0));
        assert!(!idx.contains(5, NodeId::new(1, 0)));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invariant: a node enters the recency index once")]
    fn doubled_insert_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(5, NodeId::new(1, 0));
        idx.insert(5, NodeId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "invariant: only indexed nodes leave the recency index")]
    fn remove_of_an_absent_entry_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(5, NodeId::new(1, 0));
        idx.remove(6, NodeId::new(1, 0));
    }
}
