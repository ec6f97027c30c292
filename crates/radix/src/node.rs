//! Node identifiers and internal node representation.

use crate::Token;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable handle to a node in a [`RadixTree`](crate::RadixTree).
///
/// Node ids are generation-tagged arena indices: the index locates the slot
/// and the generation records which *occupancy* of that slot the id refers
/// to. When a node is removed its slot's generation is bumped, so an id
/// held across the removal can never silently alias the slot's next tenant:
/// [`contains`](crate::RadixTree::contains) reports it dead,
/// [`remove`](crate::RadixTree::remove) rejects it with `NotFound`, and the
/// panicking accessors fail loudly instead of reading the recycled node.
/// Holders of long-lived ids (e.g. an eviction policy's bookkeeping) should
/// still drop ids when the tree reports the node removed.
///
/// Ordering compares the slot index first, then the generation, so
/// orderings among *live* ids (at most one generation per slot is alive)
/// are identical to plain arena-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

impl NodeId {
    /// The root node of every tree (slot 0 is never freed, so its
    /// generation is always 0).
    pub const ROOT: NodeId = NodeId { idx: 0, gen: 0 };

    pub(crate) fn new(idx: u32, gen: u32) -> Self {
        NodeId { idx, gen }
    }

    /// Index into the arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// Generation of the arena slot this id was issued for. Diagnostic:
    /// two ids with equal [`index`](NodeId::index) but different
    /// generations refer to different (never-coexisting) nodes.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.idx)
    }
}

/// Edge label as a `(offset, len)` slice into the tree's shared token
/// store. Splitting an edge is O(1) offset arithmetic; no token bytes move
/// or get cloned. Edges are the *only* holders of store offsets, which is
/// what lets the store slide live labels down over dead ranges (see
/// [`RadixTree`](crate::RadixTree)) without any id or cursor noticing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRef {
    /// Start offset into [`RadixTree::store`](crate::RadixTree).
    pub off: u32,
    /// Number of tokens on the edge.
    pub len: u32,
}

impl EdgeRef {
    pub const EMPTY: EdgeRef = EdgeRef { off: 0, len: 0 };

    /// The edge covering `store[off..off + len]`: the one place a store
    /// position is narrowed to the `u32` an edge holds.
    ///
    /// # Panics
    ///
    /// In every build profile, if the range's end does not fit `u32`
    /// addressing. The store reclaims dead ranges before it gets there, so
    /// this fires only when *live* tokens exceed 2^32.
    pub fn new(off: usize, len: usize) -> EdgeRef {
        let fits = off
            .checked_add(len)
            .is_some_and(|end| end <= u32::MAX as usize);
        assert!(
            fits,
            "invariant: live edge labels fit u32 store addressing \
             (offset {off} + len {len} exceeds 2^32 - 1)"
        );
        EdgeRef {
            off: off as u32,
            len: len as u32,
        }
    }

    pub fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }

    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Children of a node: a sorted vec keyed by the first token of each child's
/// edge, probed with binary search. Radix nodes in prefix-cache workloads
/// hold a handful of children, so a flat sorted vec beats a `BTreeMap` on
/// both lookup constant factor and allocation count, while iteration stays
/// deterministic (ascending first-token order, same as the old `BTreeMap`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ChildSet {
    entries: Vec<(Token, NodeId)>,
}

impl ChildSet {
    /// Child whose edge starts with `tok`, if any. O(log children).
    pub fn get(&self, tok: Token) -> Option<NodeId> {
        self.entries
            .binary_search_by_key(&tok, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Inserts or replaces the child keyed by `tok`.
    pub fn insert(&mut self, tok: Token, id: NodeId) {
        match self.entries.binary_search_by_key(&tok, |e| e.0) {
            Ok(i) => self.entries[i].1 = id,
            Err(i) => self.entries.insert(i, (tok, id)),
        }
    }

    /// Removes the child keyed by `tok`, returning it.
    pub fn remove(&mut self, tok: Token) -> Option<NodeId> {
        match self.entries.binary_search_by_key(&tok, |e| e.0) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(first_token, child)` pairs in ascending first-token order.
    pub fn iter(&self) -> impl Iterator<Item = (Token, NodeId)> + '_ {
        self.entries.iter().copied()
    }

    /// Child ids in ascending first-token order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.1)
    }

    /// The only child when `len() == 1` (first in token order otherwise).
    pub fn first_id(&self) -> Option<NodeId> {
        self.entries.first().map(|e| e.1)
    }
}

/// Internal node: edge label from the parent, child index, payload.
#[derive(Debug, Clone)]
pub(crate) struct Node<D> {
    /// Parent node (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Tokens on the edge from `parent` to this node (empty only for root),
    /// as a slice of the tree's shared token store.
    pub edge: EdgeRef,
    /// Children keyed by the first token of their edge.
    pub children: ChildSet,
    /// Token depth: number of tokens from the root through this node's edge.
    pub depth: u64,
    /// Structure version: bumped whenever this node's leaf status, edge
    /// length, or depth changes, so payload-side caches keyed on the cheap
    /// structural inputs (e.g. Marconi's per-node FLOP-efficiency memo) can
    /// be invalidated in O(1) without callbacks.
    pub version: u32,
    /// Number of in-flight pins rooted in this node's subtree (self
    /// included). A nonzero count marks the node *protected*: the KVs on
    /// its edge are being read by an in-flight request, so it must be
    /// neither removed nor relocated. Maintained by
    /// [`RadixTree::pin`](crate::RadixTree::pin) /
    /// [`RadixTree::unpin`](crate::RadixTree::unpin); edge splits copy the
    /// count onto the new intermediate so upward walks stay balanced.
    pub pin_count: u32,
    /// Caller-supplied recency stamp (see
    /// [`RadixTree::touch`](crate::RadixTree::touch)). Keys this node's
    /// entry in the tree's O(log n) recency index while the node is an
    /// eviction candidate.
    pub stamp: u64,
    /// Caller-supplied class (see
    /// [`RadixTree::set_class`](crate::RadixTree::set_class)): which band
    /// of the recency index holds this node's entry while it is a
    /// candidate. 0 ("unclassed") on a new node and after every
    /// [`bump_version`](Node::bump_version).
    pub class: u16,
    /// Caller payload.
    pub data: D,
}

impl<D> Node<D> {
    /// Records a change to this node's leaf status, edge length or depth:
    /// the one place a structure version moves. Callers inside the tree go
    /// through `RadixTree::bump`, which also returns the node to class 0.
    ///
    /// # Panics
    ///
    /// In every build profile, on the 2^32-th bump within one slot
    /// occupancy (versions restart at 0 when a slot is recycled): cursors
    /// and payload memos compare versions for equality, so a wrap would let
    /// a stale one validate.
    pub fn bump_version(&mut self) {
        self.version = self
            .version
            .checked_add(1)
            .expect("invariant: a node sees fewer than 2^32 structure changes per slot occupancy");
    }
}

/// Arena slot: occupied node or member of the free list. Both arms carry
/// the slot's current generation; freeing bumps it, so ids minted for an
/// earlier occupancy stop resolving.
#[derive(Debug, Clone)]
pub(crate) enum Slot<D> {
    Occupied { gen: u32, node: Node<D> },
    Free { gen: u32, next: Option<u32> },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_id_is_zero() {
        assert_eq!(NodeId::ROOT.index(), 0);
        assert_eq!(NodeId::ROOT.generation(), 0);
        assert_eq!(NodeId::ROOT.to_string(), "n0");
    }

    #[test]
    fn edge_ref_new_accepts_the_whole_u32_range() {
        let e = EdgeRef::new(u32::MAX as usize - 3, 3);
        assert_eq!(e.range(), u32::MAX as usize - 3..u32::MAX as usize);
        assert_eq!(EdgeRef::new(0, 0), EdgeRef::EMPTY);
    }

    // The two below run in release too (`cargo test --release`): the
    // check is a hard `assert!`, not a `debug_assert!`.

    #[test]
    #[should_panic(expected = "invariant: live edge labels fit u32 store addressing")]
    fn edge_ref_new_rejects_an_end_past_u32() {
        let _ = EdgeRef::new(u32::MAX as usize, 1);
    }

    #[test]
    #[should_panic(expected = "invariant: live edge labels fit u32 store addressing")]
    fn edge_ref_new_rejects_usize_overflow() {
        let _ = EdgeRef::new(usize::MAX, 2);
    }

    #[test]
    fn ids_order_by_index_then_generation() {
        assert!(NodeId::new(1, 0) < NodeId::new(2, 0));
        assert!(NodeId::new(1, 5) < NodeId::new(2, 0), "index dominates");
        assert!(NodeId::new(1, 0) < NodeId::new(1, 1));
    }

    #[test]
    fn child_set_is_sorted_and_deterministic() {
        let mut c = ChildSet::default();
        c.insert(30, NodeId::new(3, 0));
        c.insert(10, NodeId::new(1, 0));
        c.insert(20, NodeId::new(2, 0));
        let toks: Vec<Token> = c.iter().map(|(t, _)| t).collect();
        assert_eq!(toks, vec![10, 20, 30]);
        assert_eq!(c.get(20), Some(NodeId::new(2, 0)));
        assert_eq!(c.get(25), None);
        assert_eq!(c.first_id(), Some(NodeId::new(1, 0)));
        // Replace keeps a single entry per token.
        c.insert(20, NodeId::new(9, 0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(20), Some(NodeId::new(9, 0)));
        assert_eq!(c.remove(20), Some(NodeId::new(9, 0)));
        assert_eq!(c.remove(20), None);
        assert_eq!(c.len(), 2);
    }
}
