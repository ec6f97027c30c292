//! Session cursors: minting a [`MatchCursor`] and validating one.
//!
//! A cursor's fields are private to this module, so the generation check
//! here is the only way any code, the rest of the tree included, reaches a
//! cursor's node.

use super::{RadixTree, Resumed};
use crate::node::NodeId;
use crate::Token;
use std::fmt;

/// A generation-tagged resume handle for the session fast path
/// ([`RadixTree::cursor_at`]): follow-up matches/inserts/speculations for
/// a sequence extending the cursor's resume the walk from its node,
/// consuming only the delta tokens.
///
/// The fields are private: [`RadixTree::cursor_at`] writes them, and only
/// the generation-checked [`RadixTree::resume`] reads the node id. A cursor
/// is a pure value — holding one pins nothing and never blocks eviction; a
/// stale cursor simply fails validation. It is a live node and that node's
/// depth, nothing more: a live node's root path and depth never change, so
/// while the node lives, the cursor names the same prefix it was taken at.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchCursor {
    /// Resume node; dereferenced only via the gen-checked [`RadixTree::resume`].
    node: NodeId,
    /// The node's token depth — the length of the already-matched prefix a
    /// resumed walk skips.
    matched_len: u64,
}

impl MatchCursor {
    /// Length of the already-matched prefix this cursor resumes after.
    #[must_use]
    pub fn matched_len(&self) -> u64 {
        self.matched_len
    }
}

/// Why a [`MatchCursor`] could not be resumed ([`RadixTree::resume`]).
/// Every fault is recoverable: fall back to the root walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorFault {
    /// The resume node was removed (its slot is free or recycled under a
    /// newer generation).
    StaleGeneration,
    /// The query is shorter than the cursor's matched prefix, so it cannot
    /// extend it.
    QueryTooShort,
    /// The query tokens under the resume node's own edge diverge from it —
    /// the cursor was replayed against a foreign query.
    EdgeDivergence,
}

impl fmt::Display for CursorFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CursorFault::StaleGeneration => write!(f, "resume node was removed"),
            CursorFault::QueryTooShort => write!(f, "query does not extend the cursor"),
            CursorFault::EdgeDivergence => write!(f, "query diverges on the resume edge"),
        }
    }
}

impl<D> RadixTree<D> {
    /// Takes a resume cursor at a live node: the generation-tagged node and
    /// its depth, which a later
    /// [`match_prefix_from`] / [`insert_parts_from`] / [`speculate_insert_from`]
    /// can resume from in O(new tokens).
    ///
    /// **Contract:** resumed operations are byte-identical to their
    /// root-walk counterparts only for queries whose first
    /// `matched_len()` tokens equal the node's root path. Callers must
    /// therefore only reuse a cursor for queries *extending* the sequence
    /// it was taken at. Validation catches a removed node (generation
    /// mismatch) and a query that does not extend the node's path where
    /// it can be seen cheaply (too short, or diverging on the resume
    /// edge); full-prefix verification is deliberately not performed — it
    /// would restore the O(prompt) cost the cursor exists to avoid. Splits,
    /// merges and leaf flips after minting need no check: none of them
    /// moves a live node's root path or depth.
    ///
    /// Returns `None` for a dead id.
    ///
    /// [`match_prefix_from`]: RadixTree::match_prefix_from
    /// [`insert_parts_from`]: RadixTree::insert_parts_from
    /// [`speculate_insert_from`]: RadixTree::speculate_insert_from
    #[must_use]
    pub fn cursor_at(&self, id: NodeId) -> Option<MatchCursor> {
        let n = self.get_node(id)?;
        Some(MatchCursor {
            node: id,
            matched_len: n.depth,
        })
    }

    /// Validates `cursor` against the live tree and `query`, returning the
    /// resume node. The checks, in order:
    ///
    /// 1. **generation** — the slot is live under the cursor's generation
    ///    (a freed or recycled slot fails, never aliases);
    /// 2. **query length** — `query` is long enough to extend the cursor;
    /// 3. **resume edge** — the query tokens under the node's own edge
    ///    match it (O(edge) divergence check against the label's store
    ///    ranges; catches cursors replayed against a foreign query).
    ///
    /// Nothing else a walk reads can have moved: a live node keeps its
    /// root path and depth for its whole life (a split inserts its new
    /// node above, a merge folds the removed parent's edge into the child),
    /// so a live node's depth still equals the cursor's `matched_len`.
    ///
    /// # Errors
    ///
    /// The first failing check as a [`CursorFault`].
    pub fn resume(&self, cursor: &MatchCursor, query: &[Token]) -> Result<Resumed, CursorFault> {
        self.resume_parts(cursor, query, &[])
    }

    /// [`resume`](RadixTree::resume) against the virtual query
    /// `head ‖ tail`: identical checks, with the resume edge compared by
    /// the seam-aware walk compare.
    pub(super) fn resume_parts(
        &self,
        cursor: &MatchCursor,
        head: &[Token],
        tail: &[Token],
    ) -> Result<Resumed, CursorFault> {
        let id = cursor.node;
        let n = self.get_node(id).ok_or(CursorFault::StaleGeneration)?;
        assert_eq!(
            n.depth, cursor.matched_len,
            "invariant: a live node's depth never changes"
        );
        let len = cursor.matched_len as usize;
        if head.len() + tail.len() < len {
            return Err(CursorFault::QueryTooShort);
        }
        // The edge covers `[start, len)` of `head ‖ tail`, which holds at
        // least `len` tokens: it matches iff the common prefix is all of it.
        let start = len - n.edge.len();
        if self.shared_label_len(n.edge, head, tail, start) != n.edge.len() {
            return Err(CursorFault::EdgeDivergence);
        }
        Ok(Resumed {
            node: id,
            depth: n.depth,
        })
    }
}
