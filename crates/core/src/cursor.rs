//! Session cursors: resume handles for the PR 10 session fast path.
//!
//! Multi-turn sessions extend the previous prompt, yet every lookup,
//! insertion, and pin re-walks the radix tree from the root — O(prompt)
//! per request, quadratic over a session. A [`SessionCursor`] is the
//! cache-level resume handle: minted by
//! [`insert_at_with`](crate::PrefixCache::insert_at_with) at the end node
//! of the admitted sequence, handed back by the serving layer on the
//! session's next turn, and validated in O(1) + O(resume edge) before the
//! walk resumes from the deep node. The handle is a live node and its
//! depth: a live node's root path and depth never change, so validation
//! checks only that the node still lives (its generation) and that the
//! query extends it (length and resume edge). Either failure — stale
//! generation or a diverged query — falls back to the byte-identical root
//! walk, so hints are *only* a shortcut, never a semantic input (the
//! parity contract in `docs/session-fastpath.md`). Residency plays no
//! part: a host-resident resume node is priced by the walk's match, the
//! same from either start.
//!
//! [`CursorTable`] is the bounded per-session store the sim layers use:
//! an O(1) LRU — a hash index over a slab threaded by a recency list —
//! whose eviction order comes from the list alone, so replays are
//! byte-identical and the table cannot grow with session count.

use marconi_radix::MatchCursor;
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;

/// The workspace's one hash map: SipHash with fixed keys instead of
/// `RandomState`'s per-process ones, at the same cost, so even its
/// iteration order is a pure function of the operations applied to it.
#[expect(
    clippy::disallowed_types,
    reason = "a fixed hasher removes the per-run order that bans std hash containers"
)]
type FixedHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// A generation-tagged resume handle for one session's cached prefix.
///
/// Wraps the radix layer's [`MatchCursor`]. The handle is `Copy` and
/// carries no lifetime: it never dangles, because every use revalidates
/// the node's generation, and the query under its edge, before trusting
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a session cursor only helps if passed back on the next turn"]
pub struct SessionCursor {
    /// The radix-level resume handle.
    pub(crate) cursor: MatchCursor,
}

/// End of the recency list.
const NIL: usize = usize::MAX;

/// One stored cursor, threaded into the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    session: u64,
    cursor: SessionCursor,
    /// The next-older and next-newer slot (`NIL` at either end).
    older: usize,
    newer: usize,
}

/// A bounded, deterministic per-session cursor store (LRU eviction).
///
/// Keyed by the workload's `session_id`. A hash index maps each session to
/// its slot in a slab; the slots are threaded, oldest to newest `put`, by
/// an intrusive doubly-linked recency list. `take`, `put` and eviction are
/// O(1), and memory is O(capacity): the slab never outgrows the largest
/// number of sessions held at once, and vacated slots are reused. The
/// index only answers point lookups and is never iterated, so eviction
/// order — the list's head — is the same on every run and platform, the
/// discipline the rest of the workspace follows for replay determinism. A
/// capacity of 0 disables the table entirely (every `take` misses, every
/// `put` drops): every request then root-walks, the reference a hinted run
/// is compared against.
#[derive(Debug, Clone)]
pub struct CursorTable {
    cap: usize,
    /// session → slot. Point lookups only: never iterated.
    index: FixedHashMap<u64, usize>,
    slots: Vec<Slot>,
    /// Slots vacated by `take` or eviction, reused before the slab grows.
    free: Vec<usize>,
    /// The least- and most-recently stored slots (`NIL` when empty).
    oldest: usize,
    newest: usize,
}

impl Default for CursorTable {
    /// A disabled table (capacity 0).
    fn default() -> Self {
        CursorTable::new(0)
    }
}

impl CursorTable {
    /// A table retaining cursors for at most `cap` sessions.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        CursorTable {
            cap,
            index: FixedHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// Removes and returns the session's cursor, if present.
    ///
    /// Take-semantics (rather than peek) keep the table honest under
    /// concurrent turns of one session: the first turn consumes the hint,
    /// later in-flight turns of the same session root-walk instead of
    /// racing on one handle.
    pub fn take(&mut self, session: u64) -> Option<SessionCursor> {
        let slot = self.index.remove(&session)?;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.slots[slot].cursor)
    }

    /// Stores the session's cursor, refreshing its recency; evicts the
    /// least-recently-stored session when over capacity.
    pub fn put(&mut self, session: u64, cursor: SessionCursor) {
        if self.cap == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&session) {
            self.slots[slot].cursor = cursor;
            self.unlink(slot);
            self.link_newest(slot);
            return;
        }
        if self.index.len() == self.cap {
            let victim = self.oldest;
            self.unlink(victim);
            self.index.remove(&self.slots[victim].session);
            self.free.push(victim);
        }
        let stored = Slot {
            session,
            cursor,
            older: NIL,
            newer: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = stored;
                slot
            }
            None => {
                self.slots.push(stored);
                self.slots.len() - 1
            }
        };
        self.index.insert(session, slot);
        self.link_newest(slot);
    }

    /// Sessions currently holding a cursor.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no session holds a cursor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The configured session capacity (0 = disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Slot { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.oldest = newer,
            older => self.slots[older].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.slots[newer].older = older,
        }
    }

    /// Appends the detached `slot` to the recency list as its newest.
    fn link_newest(&mut self, slot: usize) {
        self.slots[slot].older = self.newest;
        self.slots[slot].newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.slots[newest].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_radix::RadixTree;
    use std::collections::{BTreeMap, BTreeSet};

    fn cursor_for(tokens: &[u32]) -> SessionCursor {
        let mut t: RadixTree<()> = RadixTree::new();
        let end = t.insert(tokens).end_node;
        SessionCursor {
            cursor: t.cursor_at(end).expect("live node"),
        }
    }

    /// Sessions in recency order, oldest first, read off the list.
    fn recency(tbl: &CursorTable) -> Vec<u64> {
        let mut order = Vec::new();
        let mut slot = tbl.oldest;
        while slot != NIL {
            order.push(tbl.slots[slot].session);
            slot = tbl.slots[slot].newer;
        }
        order
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
        assert_eq!(
            recency(&tbl),
            [5],
            "a re-put must not leave a stale list entry"
        );
    }

    /// The B-tree LRU the table replaced: session → (recency tick, cursor)
    /// plus the (tick, session) eviction order. The reference the O(1)
    /// table is replayed against.
    struct BTreeTable {
        cap: usize,
        tick: u64,
        entries: BTreeMap<u64, (u64, SessionCursor)>,
        lru: BTreeSet<(u64, u64)>,
    }

    impl BTreeTable {
        fn new(cap: usize) -> Self {
            BTreeTable {
                cap,
                tick: 0,
                entries: BTreeMap::new(),
                lru: BTreeSet::new(),
            }
        }

        fn take(&mut self, session: u64) -> Option<SessionCursor> {
            let (tick, cursor) = self.entries.remove(&session)?;
            self.lru.remove(&(tick, session));
            Some(cursor)
        }

        fn put(&mut self, session: u64, cursor: SessionCursor) {
            if self.cap == 0 {
                return;
            }
            self.tick += 1;
            if let Some((old_tick, _)) = self.entries.insert(session, (self.tick, cursor)) {
                self.lru.remove(&(old_tick, session));
            }
            self.lru.insert((self.tick, session));
            while self.entries.len() > self.cap {
                let &(tick, victim) = self.lru.iter().next().expect("lru and entries agree");
                self.lru.remove(&(tick, victim));
                self.entries.remove(&victim);
            }
        }
    }

    /// Seeded `take`/`put` streams over three times as many sessions as the
    /// table holds (half the draws from a small hot set, so refreshes and
    /// hits are common): every `take` returns the B-tree reference's cursor,
    /// and `len` agrees after every operation.
    #[test]
    fn matches_the_btree_reference_on_seeded_streams() {
        let mut tree: RadixTree<()> = RadixTree::new();
        let cursors: Vec<SessionCursor> = (0..64u32)
            .map(|i| {
                let end = tree.insert(&[i, i + 1, i + 2]).end_node;
                SessionCursor {
                    cursor: tree.cursor_at(end).expect("live node"),
                }
            })
            .collect();
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for cap in [0usize, 1, 4096] {
            let sessions = 3 * cap as u64 + 8;
            let hot = cap as u64 / 2 + 2;
            let (mut tbl, mut reference) = (CursorTable::new(cap), BTreeTable::new(cap));
            for op in 0..200_000 {
                let r = next();
                let session = if r & 2 == 0 {
                    (r >> 8) % sessions
                } else {
                    (r >> 8) % hot
                };
                if r & 1 == 0 {
                    assert_eq!(
                        tbl.take(session),
                        reference.take(session),
                        "cap {cap}, op {op}"
                    );
                } else {
                    let cursor = cursors[(r >> 2) as usize % cursors.len()];
                    tbl.put(session, cursor);
                    reference.put(session, cursor);
                }
                assert_eq!(tbl.len(), reference.entries.len(), "cap {cap}, op {op}");
            }
            assert!(tbl.slots.len() <= cap, "the slab stays within capacity");
        }
    }
}
