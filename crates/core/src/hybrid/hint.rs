//! Session-cursor fast path. A hint is *only* a shortcut: any validation
//! failure falls back to the root walk, and a resumed walk is byte-identical
//! to the root walk by the radix layer's path-invariance contract. See
//! docs/session-fastpath.md.

use super::HybridPrefixCache;
use crate::tier::Tier;
use marconi_radix::{CursorFault, InsertOutcome, MatchCursor, NodeId, PrefixMatch, Resumed, Token};
use marconi_trace::CursorFallbackCause;

impl HybridPrefixCache {
    /// Validates a radix cursor against this cache's state: the tree-level
    /// checks (generation, structure version, token divergence) plus the
    /// cache-level rule that the resume node's state must still be
    /// device-resident (a demoted resume path means the session has gone
    /// cold; distrust the hint). Returns the checked resume point, which
    /// every walk of the operation then starts from without re-checking.
    fn resolve_cursor(
        &self,
        cursor: &MatchCursor,
        query: &[Token],
    ) -> Result<Resumed, CursorFallbackCause> {
        let at = self.tree.resume(cursor, query).map_err(|f| match f {
            CursorFault::StaleGeneration => CursorFallbackCause::StaleGeneration,
            CursorFault::StructureChanged => CursorFallbackCause::StructureChanged,
            CursorFault::QueryTooShort | CursorFault::EdgeDivergence => {
                CursorFallbackCause::QueryDiverged
            }
        })?;
        if self.tier(at.node()) != Tier::Device {
            return Err(CursorFallbackCause::ResumeDemoted);
        }
        Ok(at)
    }

    /// Resolves a hint once: the checked resume point (if it validated)
    /// and the telemetry outcome for
    /// [`emit_cursor_outcome`](Self::emit_cursor_outcome).
    pub(super) fn resolve_hint(
        &self,
        query: &[Token],
        hint: Option<MatchCursor>,
    ) -> (Option<Resumed>, HintOutcome) {
        match hint {
            None => (None, HintOutcome::Cold),
            Some(c) => match self.resolve_cursor(&c, query) {
                Ok(at) => (
                    Some(at),
                    HintOutcome::Resumed {
                        node: at.node(),
                        resumed_len: at.depth(),
                    },
                ),
                Err(cause) => (None, HintOutcome::Fallback(cause)),
            },
        }
    }

    /// `match_prefix` of `query`, walking from `at` when given.
    pub(super) fn match_from(&self, at: Option<Resumed>, query: &[Token]) -> PrefixMatch {
        match at {
            Some(at) => self.tree.match_prefix_at(&at, query),
            None => self.tree.match_prefix(query),
        }
    }

    /// Resolves a hint and produces the prefix match for `query`: resumed
    /// from the hinted node when the hint validates, the root walk
    /// otherwise. The second value is the telemetry outcome for
    /// [`emit_cursor_outcome`](Self::emit_cursor_outcome).
    pub(super) fn match_with_hint(
        &self,
        query: &[Token],
        hint: Option<MatchCursor>,
    ) -> (PrefixMatch, HintOutcome) {
        let (at, outcome) = self.resolve_hint(query, hint);
        (self.match_from(at, query), outcome)
    }

    /// Inserts the virtual concatenation `head ‖ tail` walking from `at`
    /// when given, from the root otherwise — byte-identical trees either
    /// way, the resume point being purely a walk shortcut.
    ///
    /// `at` is a point this admission already checked — the resolved hint,
    /// or the speculation walk's deepest fully-matched node — passed only
    /// when `head ‖ tail` starts with the tokens it was checked against
    /// (for a checkpoint prefix: `at.depth() ≤` its length). It is not
    /// re-checked: it stays valid for every walk of the admission however
    /// the earlier inserts split or extended the tree around it (argument:
    /// docs/session-fastpath.md, "Validation: each operation validates
    /// once"). Callers with one slice pass an empty tail, so admitting an
    /// input + output pair never allocates or copies the joined prompt.
    pub(super) fn insert_via(
        &mut self,
        at: Option<Resumed>,
        head: &[Token],
        tail: &[Token],
    ) -> InsertOutcome {
        match at {
            Some(at) => self.tree.insert_parts_at(&at, head, tail),
            None => self.tree.insert_parts(head, tail),
        }
    }
}

/// How a hinted operation obtained its prefix match — the telemetry
/// currency between hint resolution and the single
/// `CursorResumed`/`CursorFallback` event each hinted operation emits.
/// Never consulted for cache decisions: hinted and unhinted paths are
/// byte-identical apart from these events.
#[derive(Debug, Clone, Copy)]
pub(super) enum HintOutcome {
    /// No hint offered: silent root walk.
    Cold,
    /// The hint validated; the walk resumed from `node`.
    Resumed {
        /// The validated resume node.
        node: NodeId,
        /// Tokens the resume skipped (the cursor's matched length).
        resumed_len: u64,
    },
    /// The hint failed validation; root walk plus a fallback event.
    Fallback(CursorFallbackCause),
}
