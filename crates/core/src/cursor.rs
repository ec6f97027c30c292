//! Session cursors: resume handles for the PR 10 session fast path.
//!
//! Multi-turn sessions extend the previous prompt, yet every lookup,
//! insertion, and pin re-walks the radix tree from the root — O(prompt)
//! per request, quadratic over a session. A [`SessionCursor`] is the
//! cache-level resume handle: minted by
//! [`insert_at_with`](crate::PrefixCache::insert_at_with) at the end node
//! of the admitted sequence, handed back by the serving layer on the
//! session's next turn, and validated in O(1) + O(resume edge) before the
//! walk resumes from the deep node. Any validation failure — stale
//! generation, structure drift, token divergence, or a demoted resume
//! path — falls back to the byte-identical root walk, so hints are *only*
//! a shortcut, never a semantic input (the parity contract in
//! `docs/session-fastpath.md`).
//!
//! [`CursorTable`] is the bounded per-session store the sim layers use:
//! a deterministic LRU (BTree-backed, no hash iteration) so replays are
//! byte-identical and the table cannot grow with session count.

use marconi_radix::MatchCursor;
use std::collections::{BTreeMap, BTreeSet};

/// A generation-tagged resume handle for one session's cached prefix.
///
/// Wraps the radix layer's [`MatchCursor`]. The handle is `Copy` and
/// carries no lifetime: it never dangles, because every use revalidates
/// the node's generation and structure version before trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a session cursor only helps if passed back on the next turn"]
pub struct SessionCursor {
    /// The radix-level resume handle.
    pub(crate) cursor: MatchCursor,
}

impl SessionCursor {
    /// Tokens the cursor memoizes (the matched-prefix length a valid
    /// resume skips).
    #[must_use]
    pub fn matched_len(&self) -> u64 {
        self.cursor.matched_len()
    }
}

/// A bounded, deterministic per-session cursor store (LRU eviction).
///
/// Keyed by the workload's `session_id`. Backed by `BTreeMap`/`BTreeSet`
/// rather than hashing so iteration (and therefore eviction order) is
/// deterministic across runs and platforms — the same discipline the rest
/// of the workspace follows for replay determinism. A capacity of 0
/// disables the table entirely (every `take` misses, every `put` drops):
/// every request then root-walks, the reference a hinted run is compared
/// against.
#[derive(Debug, Clone, Default)]
pub struct CursorTable {
    cap: usize,
    tick: u64,
    /// session → (recency tick, cursor).
    entries: BTreeMap<u64, (u64, SessionCursor)>,
    /// (recency tick, session), oldest first — the eviction order.
    lru: BTreeSet<(u64, u64)>,
}

impl CursorTable {
    /// A table retaining cursors for at most `cap` sessions.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        CursorTable {
            cap,
            tick: 0,
            entries: BTreeMap::new(),
            lru: BTreeSet::new(),
        }
    }

    /// Removes and returns the session's cursor, if present.
    ///
    /// Take-semantics (rather than peek) keep the table honest under
    /// concurrent turns of one session: the first turn consumes the hint,
    /// later in-flight turns of the same session root-walk instead of
    /// racing on one handle.
    pub fn take(&mut self, session: u64) -> Option<SessionCursor> {
        let (tick, cursor) = self.entries.remove(&session)?;
        self.lru.remove(&(tick, session));
        Some(cursor)
    }

    /// Stores the session's cursor, refreshing its recency; evicts the
    /// least-recently-stored session when over capacity.
    pub fn put(&mut self, session: u64, cursor: SessionCursor) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if let Some((old_tick, _)) = self.entries.insert(session, (self.tick, cursor)) {
            self.lru.remove(&(old_tick, session));
        }
        self.lru.insert((self.tick, session));
        while self.entries.len() > self.cap {
            let &(tick, victim) = self
                .lru
                .iter()
                .next()
                .expect("invariant: lru and entries stay in lockstep");
            self.lru.remove(&(tick, victim));
            self.entries.remove(&victim);
        }
    }

    /// Sessions currently holding a cursor.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no session holds a cursor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured session capacity (0 = disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_radix::RadixTree;

    fn cursor_for(tokens: &[u32]) -> SessionCursor {
        let mut t: RadixTree<()> = RadixTree::new();
        let end = t.insert(tokens).end_node;
        SessionCursor {
            cursor: t.cursor_at(end).expect("live node"),
        }
    }

    #[test]
    fn take_consumes_the_entry() {
        let mut tbl = CursorTable::new(4);
        tbl.put(7, cursor_for(&[1, 2, 3]));
        assert_eq!(tbl.len(), 1);
        assert!(tbl.take(7).is_some());
        assert!(tbl.take(7).is_none(), "take has consume semantics");
        assert!(tbl.is_empty());
    }

    #[test]
    fn lru_evicts_the_stalest_session() {
        let mut tbl = CursorTable::new(2);
        let c = cursor_for(&[1, 2, 3]);
        tbl.put(1, c);
        tbl.put(2, c);
        tbl.put(1, c); // refresh 1 → 2 is now stalest
        tbl.put(3, c); // evicts 2
        assert!(tbl.take(2).is_none(), "stalest session evicted");
        assert!(tbl.take(1).is_some());
        assert!(tbl.take(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_table() {
        let mut tbl = CursorTable::new(0);
        tbl.put(1, cursor_for(&[1]));
        assert!(tbl.is_empty());
        assert!(tbl.take(1).is_none());
    }

    #[test]
    fn reput_does_not_leak_lru_entries() {
        let mut tbl = CursorTable::new(8);
        let c = cursor_for(&[1, 2]);
        for _ in 0..100 {
            tbl.put(5, c);
        }
        assert_eq!(tbl.len(), 1);
        assert_eq!(tbl.lru.len(), 1, "stale lru keys must be removed");
    }
}
