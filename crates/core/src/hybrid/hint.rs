//! Session-cursor fast path. A hint is *only* a shortcut: any validation
//! failure falls back to the root walk, and a resumed walk is byte-identical
//! to the root walk by the radix layer's path-invariance contract. See
//! docs/session-fastpath.md.

use super::HybridPrefixCache;
use crate::tier::Tier;
use marconi_radix::{CursorFault, MatchCursor, NodeId, PrefixMatch, Resumed, Token};
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

    /// Resolves a hint once: the checked resume point ([`Resumed::ROOT`]
    /// when there is no hint or it failed validation) and the telemetry
    /// outcome for [`emit_cursor_outcome`](Self::emit_cursor_outcome).
    pub(super) fn resolve_hint(
        &self,
        query: &[Token],
        hint: Option<MatchCursor>,
    ) -> (Resumed, HintOutcome) {
        match hint {
            None => (Resumed::ROOT, HintOutcome::Cold),
            Some(c) => match self.resolve_cursor(&c, query) {
                Ok(at) => (
                    at,
                    HintOutcome::Resumed {
                        node: at.node(),
                        resumed_len: at.depth(),
                    },
                ),
                Err(cause) => (Resumed::ROOT, HintOutcome::Fallback(cause)),
            },
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
