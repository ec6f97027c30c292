//! Session-cursor fast path. A hint is *only* a shortcut: any validation
//! failure falls back to the root walk, and a resumed walk is byte-identical
//! to the root walk by the radix layer's path-invariance contract. See
//! docs/session-fastpath.md.

use super::HybridPrefixCache;
use marconi_radix::{CursorFault, MatchCursor, NodeId, PrefixMatch, Resumed, Token};
use marconi_trace::CursorFallbackCause;

impl HybridPrefixCache {
    /// Resolves a hint once against the tree (generation, query length,
    /// resume edge): the checked resume point ([`Resumed::ROOT`] when
    /// there is no hint or it failed validation), which every walk of the
    /// operation then starts from without re-checking, and the telemetry
    /// outcome for [`emit_cursor_outcome`](Self::emit_cursor_outcome).
    /// Residency has no say: a host-resident resume node is the same
    /// node, and the walk prices its hit exactly as the root walk does.
    pub(super) fn resolve_hint(
        &self,
        query: &[Token],
        hint: Option<MatchCursor>,
    ) -> (Resumed, HintOutcome) {
        let Some(cursor) = hint else {
            return (Resumed::ROOT, HintOutcome::Cold);
        };
        match self.tree.resume(&cursor, query) {
            Ok(at) => (
                at,
                HintOutcome::Resumed {
                    node: at.node(),
                    resumed_len: at.depth(),
                },
            ),
            Err(fault) => {
                let cause = match fault {
                    CursorFault::StaleGeneration => CursorFallbackCause::StaleGeneration,
                    CursorFault::QueryTooShort | CursorFault::EdgeDivergence => {
                        CursorFallbackCause::QueryDiverged
                    }
                };
                (Resumed::ROOT, HintOutcome::Fallback(cause))
            }
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
        (self.tree.match_prefix_at(&at, query), outcome)
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
