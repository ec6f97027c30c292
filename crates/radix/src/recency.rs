//! The eviction-candidate set, ordered by recency within caller-named
//! bands.
//!
//! Marconi evicts only nodes with ≤ 1 child (paper §4.3), and every policy
//! here reads that set oldest-first. This index *is* the candidate set: one
//! `BTreeSet<(stamp, id)>` — the shape of the TGI radix trie's
//! `BTreeSet<(last_accessed, NodeId)>` — **per class** (a class-sorted vec
//! of them), where a class is a
//! `u16` the caller hangs on a node
//! ([`RadixTree::set_class`](crate::RadixTree::set_class)) and the tree
//! never interprets. The cache above uses it to band candidates by FLOP
//! efficiency, so a scored pick can bound each band's walk instead of
//! scoring every candidate; a caller that never sets a class (LRU, GDSF, a
//! bare tree) has exactly one band, class 0, and reads the same single
//! ordered set as before banding existed. Empty bands are dropped, so
//! iterating the bands costs O(classes in use).
//!
//! Candidacy is a pure function of the node (`id != ROOT &&
//! children.len() <= 1`); the tree inserts and removes entries at the four
//! sites where that function changes value,
//! [`RadixTree::touch`](crate::RadixTree::touch) re-keys an entry inside
//! its band and `set_class` moves it between bands, each in O(log n). A
//! class lives exactly as long as the node's structure version: every
//! version bump puts the node back in class 0, so a class derived from the
//! versioned inputs (leaf status, edge length, depth) cannot outlive them.
//! An ordered set has no insertion order, so nothing that leaves membership
//! alone — a pin, say — can perturb the order victims come out in.
//!
//! Every mutator checks its precondition in every build profile: as the
//! only candidate source, a missed or doubled transition must panic, not
//! silently skew the victim order.

use crate::node::NodeId;
use std::collections::{btree_set, BTreeSet};

/// One band: its candidates in ascending `(stamp, id)` order.
pub(crate) type Band<'a> = std::iter::Copied<btree_set::Iter<'a, (u64, NodeId)>>;

/// Eviction-candidate ids, one `(stamp, id)`-ordered set per class.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecencyIndex {
    /// Non-empty bands only, ascending by class. A sorted vec, not a map:
    /// there are a few dozen bands at most, and every `touch` looks its
    /// band up twice — on the one-band tree of an LRU cache that lookup
    /// must cost next to nothing.
    bands: Vec<(u16, BTreeSet<(u64, NodeId)>)>,
    /// Entries over all bands — the eviction-candidate count.
    len: usize,
}

impl RecencyIndex {
    /// Where band `class` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, class: u16) -> Result<usize, usize> {
        self.bands.binary_search_by_key(&class, |&(c, _)| c)
    }

    /// Adds the entry of a node that just became a candidate, or that is
    /// being re-keyed into `class`.
    ///
    /// # Panics
    ///
    /// Panics if `(stamp, id)` is already present in band `class`.
    pub fn insert(&mut self, class: u16, stamp: u64, id: NodeId) {
        let at = self.position(class).unwrap_or_else(|at| {
            self.bands.insert(at, (class, BTreeSet::new()));
            at
        });
        let fresh = self.bands[at].1.insert((stamp, id));
        assert!(
            fresh,
            "invariant: a node enters the recency index once ({id} already present in band {class})"
        );
        self.len += 1;
    }

    /// Removes the entry of a node that just stopped being a candidate, or
    /// that is being re-keyed out of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `(stamp, id)` is absent from band `class`.
    pub fn remove(&mut self, class: u16, stamp: u64, id: NodeId) {
        let existed = self.position(class).is_ok_and(|at| {
            let band = &mut self.bands[at].1;
            let existed = band.remove(&(stamp, id));
            if band.is_empty() {
                self.bands.remove(at);
            }
            existed
        });
        assert!(
            existed,
            "invariant: only indexed nodes leave the recency index ({id} absent at stamp {stamp} in band {class})"
        );
        self.len -= 1;
    }

    /// Re-keys a candidate's entry inside band `class` — a `remove` and an
    /// `insert` behind one band lookup and no emptiness check, because
    /// every `touch` of every lookup and admission pays for this one
    /// (measured on `chat_fit`: −4% `request_us_p50` against the pair).
    ///
    /// # Panics
    ///
    /// Panics if `(old, id)` is absent from band `class` or `(new, id)`
    /// already present.
    pub fn restamp(&mut self, class: u16, old: u64, new: u64, id: NodeId) {
        let moved = self.position(class).is_ok_and(|at| {
            let band = &mut self.bands[at].1;
            band.remove(&(old, id)) && band.insert((new, id))
        });
        assert!(
            moved,
            "invariant: only indexed nodes are re-stamped ({id}: {old} -> {new} in band {class})"
        );
    }

    /// `true` if the exact `(stamp, id)` entry is present in band `class`.
    pub fn contains(&self, class: u16, stamp: u64, id: NodeId) -> bool {
        self.position(class)
            .is_ok_and(|at| self.bands[at].1.contains(&(stamp, id)))
    }

    /// Number of entries — the eviction-candidate count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The non-empty bands in ascending class order, each in ascending
    /// `(stamp, id)` order.
    pub fn bands(&self) -> impl DoubleEndedIterator<Item = (u16, Band<'_>)> + Clone + '_ {
        self.bands
            .iter()
            .map(|(class, band)| (*class, band.iter().copied()))
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

    /// `(class, stamp, slot)` of every entry, in iteration order.
    fn entries(idx: &RecencyIndex) -> Vec<(u16, u64, usize)> {
        idx.bands()
            .flat_map(|(class, band)| band.map(move |(s, n)| (class, s, n.index())))
            .collect()
    }

    #[test]
    fn index_orders_by_stamp_then_id() {
        let mut idx = RecencyIndex::default();
        idx.insert(0, 5, NodeId::new(2, 0));
        idx.insert(0, 5, NodeId::new(1, 0));
        idx.insert(0, 3, NodeId::new(9, 0));
        assert_eq!(entries(&idx), vec![(0, 3, 9), (0, 5, 1), (0, 5, 2)]);
        assert!(idx.contains(0, 5, NodeId::new(1, 0)));
        idx.remove(0, 5, NodeId::new(1, 0));
        assert!(!idx.contains(0, 5, NodeId::new(1, 0)));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn bands_iterate_in_class_order_and_vanish_when_empty() {
        let mut idx = RecencyIndex::default();
        idx.insert(7, 1, NodeId::new(1, 0));
        idx.insert(0, 9, NodeId::new(2, 0));
        idx.insert(7, 0, NodeId::new(3, 0));
        // Class first, then `(stamp, id)` inside the band: the older entry
        // of band 7 still follows the younger entry of band 0.
        assert_eq!(entries(&idx), vec![(0, 9, 2), (7, 0, 3), (7, 1, 1)]);
        assert!(!idx.contains(0, 1, NodeId::new(1, 0)), "wrong band");
        idx.remove(0, 9, NodeId::new(2, 0));
        assert_eq!(idx.bands().count(), 1, "an emptied band is dropped");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invariant: a node enters the recency index once")]
    fn doubled_insert_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(0, 5, NodeId::new(1, 0));
        idx.insert(0, 5, NodeId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "invariant: a node enters the recency index once")]
    fn doubled_band_entry_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(3, 5, NodeId::new(1, 0));
        idx.insert(0, 5, NodeId::new(2, 0));
        idx.insert(3, 5, NodeId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "invariant: only indexed nodes leave the recency index")]
    fn remove_of_an_absent_entry_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(0, 5, NodeId::new(1, 0));
        idx.remove(0, 6, NodeId::new(1, 0));
    }

    #[test]
    fn restamp_rekeys_inside_the_band() {
        let mut idx = RecencyIndex::default();
        idx.insert(4, 5, NodeId::new(1, 0));
        idx.insert(4, 7, NodeId::new(2, 0));
        idx.restamp(4, 5, 9, NodeId::new(1, 0));
        assert_eq!(entries(&idx), vec![(4, 7, 2), (4, 9, 1)]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invariant: only indexed nodes are re-stamped")]
    fn restamp_of_an_absent_entry_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(4, 5, NodeId::new(1, 0));
        idx.restamp(0, 5, 9, NodeId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "invariant: only indexed nodes leave the recency index")]
    fn remove_from_the_wrong_band_panics_in_every_profile() {
        let mut idx = RecencyIndex::default();
        idx.insert(2, 5, NodeId::new(1, 0));
        idx.remove(0, 5, NodeId::new(1, 0));
    }
}
