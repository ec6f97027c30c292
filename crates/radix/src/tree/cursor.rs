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
/// stale cursor simply fails validation.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchCursor {
    /// Resume node; dereferenced only via the gen-checked [`RadixTree::resume`].
    node: NodeId,
    /// The node's token depth when the cursor was taken — the length of
    /// the already-matched prefix a resumed walk skips.
    matched_len: u64,
    /// The node's [`RadixTree::structure_version`] when the cursor was
    /// taken; any bump (edge split, leaf-status flip) invalidates.
    structure_version: u32,
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
    /// The resume node's structure version or depth changed — an edge
    /// split landed on it, or its leaf status flipped — since the cursor
    /// was taken.
    StructureChanged,
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
            CursorFault::StructureChanged => write!(f, "resume node's structure changed"),
            CursorFault::QueryTooShort => write!(f, "query does not extend the cursor"),
            CursorFault::EdgeDivergence => write!(f, "query diverges on the resume edge"),
        }
    }
}

impl<D> RadixTree<D> {
    /// Takes a resume cursor at a live node: a generation-tagged snapshot
    /// of `(node, depth, structure_version)` that a later
    /// [`match_prefix_from`] / [`insert_from`] / [`speculate_insert_from`]
    /// can resume from in O(new tokens).
    ///
    /// **Contract:** resumed operations are byte-identical to their
    /// root-walk counterparts only for queries whose first
    /// `matched_len()` tokens equal the node's root path. Callers must
    /// therefore only reuse a cursor for queries *extending* the sequence
    /// it was taken at. Validation catches every structural hazard
    /// (generation mismatch, version bump, resume-edge divergence) and
    /// falls back cheaply; full-prefix verification is deliberately not
    /// performed — it would restore the O(prompt) cost the cursor exists
    /// to avoid.
    ///
    /// Returns `None` for a dead id.
    ///
    /// [`match_prefix_from`]: RadixTree::match_prefix_from
    /// [`insert_from`]: RadixTree::insert_from
    /// [`speculate_insert_from`]: RadixTree::speculate_insert_from
    #[must_use]
    pub fn cursor_at(&self, id: NodeId) -> Option<MatchCursor> {
        let n = self.get_node(id)?;
        Some(MatchCursor {
            node: id,
            matched_len: n.depth,
            structure_version: n.version,
        })
    }

    /// Validates `cursor` against the live tree and `query`, returning the
    /// resume node. The checks, in order:
    ///
    /// 1. **generation** — the slot is live under the cursor's generation
    ///    (a freed or recycled slot fails, never aliases);
    /// 2. **structure version** — unchanged since the cursor was taken, so
    ///    no split landed on the node's edge and its leaf status is as
    ///    captured (conservative: any bump invalidates);
    /// 3. **depth** — still equals the cursor's `matched_len` (an internal
    ///    consistency check; a live node's depth is path-invariant);
    /// 4. **query length** — `query` is long enough to extend the cursor;
    /// 5. **resume edge** — the query tokens under the node's own edge
    ///    match it (O(edge) divergence check against the label's store
    ///    ranges; catches cursors replayed against a foreign query).
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
        if n.version != cursor.structure_version || n.depth != cursor.matched_len {
            return Err(CursorFault::StructureChanged);
        }
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
