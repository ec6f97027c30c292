//! The radix tree implementation (arena engine).
//!
//! Engine layout (see `docs/radix-engine.md` for the design rationale and
//! measured speedups over the retired owned-`Vec` oracle engine):
//!
//! * nodes live in a free-list slab arena of generation-tagged slots, so
//!   ids are dense `u32` indices and stale ids are detected, not aliased;
//! * children are a sorted vec probed by binary search (deterministic
//!   ascending first-token order, no per-node `BTreeMap` allocations);
//! * edge labels are chains of `(offset, len)` ranges of one shared token
//!   store, so splitting an edge cuts a chain and merging two splices
//!   them, and neither moves a token; the store reclaims the ranges dead
//!   edges leave behind by rewriting live labels down in place once dead
//!   tokens dominate (see [`RadixTree`]);
//! * the eviction candidates *are* one O(log n) recency index keyed by
//!   caller-supplied stamps ([`RadixTree::touch`]) inside caller-named
//!   bands ([`RadixTree::set_class`]) whose top class bit names a tier:
//!   the oldest candidate of a band is its first entry, each tier's bands
//!   are one run of the index, and no second structure shadows the set.

mod cursor;

pub use cursor::{CursorFault, MatchCursor};

use crate::label::{Label, Links};
use crate::node::{ChildSet, EdgeRef, Node, NodeId, Slot};
use crate::recency::{RecencyIndex, TIER_BIT};
use crate::Token;
use std::error::Error;
use std::fmt;

/// A compressed prefix trie over token sequences with per-node payload `D`.
///
/// See the [crate docs](crate) for the role this plays in hybrid-LLM prefix
/// caching. Structural invariants (checked by `debug_assert_invariants` and
/// the property-test suite):
///
/// 1. every non-root node has a non-empty edge label;
/// 2. a node's children are keyed by the first token of their edge, and no
///    two children share a first token;
/// 3. `depth(n) = depth(parent(n)) + edge_len(n)`;
/// 4. [`token_count`](RadixTree::token_count) equals the sum of all edge
///    lengths, which equals the number of distinct prefixes stored.
/// 5. Candidacy is a pure function of the node — `n` is an eviction
///    candidate iff it is a live non-root node with `child_count(n) ≤ 1` —
///    and [`candidate_bands`](RadixTree::candidate_bands) iterates the one
///    index of it: exactly one `(stamp, id)` entry per candidate, in the
///    band named by the node's current [`class`](RadixTree::class) and
///    keyed by its current [`touch`](RadixTree::touch) stamp, and no entry
///    for anything else. A node's class is 0 from creation, and class 0
///    of its tier ([`TIER_BIT`]) from every structure-version bump, until
///    the caller's next [`set_class`](RadixTree::set_class); a split's new
///    node starts in class 0 of the split child's tier.
///    [`lru_candidates`](RadixTree::lru_candidates),
///    [`eviction_candidates`](RadixTree::eviction_candidates) and
///    [`eviction_candidate_count`](RadixTree::eviction_candidate_count) are
///    views of the same index.
/// 6. [`pinned_count`](RadixTree::pinned_count) equals
///    `|{ live non-root n | pin_count(n) > 0 }|`, and a non-root parent's
///    pin count is at least each child's (counts are subtree-inclusive).
///    Pins never touch the candidate index: a pinned candidate keeps its
///    entry and is skipped by whoever reads it.
///
/// # The token store
///
/// Inserts append their un-shared suffix to one shared store, and inserts
/// are the only operation that writes it: an edge label is a chain of
/// store ranges, so a split cuts the chain and a merge splices two chains
/// (coalescing the seam when the two ranges are adjacent, as a split pair
/// is), both in place. Removals leave dead ranges behind, and the store
/// *reclaims* them: at the end of every appending insert and every
/// removal, if the store holds at least 2^16 tokens and at least 4× the
/// live [`token_count`](RadixTree::token_count) (both fixed constants),
/// every live label is rewritten as one range, packed down over the dead
/// ones in place, and the store is truncated to exactly the live tokens.
/// Hence the **store bound**, which holds after every `insert*` /
/// `remove`:
///
/// ```text
/// token_store_len() ≤ max(2^16, 4 × token_count())
/// ```
///
/// Labels are the only holders of store offsets — [`NodeId`]s and
/// [`MatchCursor`]s carry none — so a compaction is invisible to every
/// caller. Sliding in offset order keeps adjacent one-range labels
/// adjacent, so a split pair still merges into one range afterwards, and
/// the buffer is reused, not reallocated, so later appends land on pages
/// already resident. A compaction moves each live token at most twice (a
/// chained label out to a buffer and back; a one-range label once) and
/// reclaims at least three dead tokens per live token, each of which an
/// insert appended exactly once: amortised, fewer than one token is moved
/// per token appended. [`store_counters`](RadixTree::store_counters)
/// counts both sides exactly.
#[derive(Debug, Clone)]
pub struct RadixTree<D> {
    slots: Vec<Slot<D>>,
    /// Shared backing store for every edge label; dead ranges are
    /// reclaimed in place by `compact_store`.
    store: Vec<Token>,
    /// Every range of a chained label past its first.
    links: Links,
    /// Tokens written to `store`, by cause.
    counters: StoreCounters,
    free_head: Option<u32>,
    node_count: usize,
    token_count: u64,
    /// The eviction candidates (non-root nodes with ≤ 1 child), one
    /// `(stamp, id)`-ordered band per class. `insert_at_node`/`split_edge`/
    /// `remove` apply the exact membership transition at each site that
    /// changes a child count, so the eviction hot path never re-scans the
    /// arena.
    lru: RecencyIndex,
    /// Number of nodes with `pin_count > 0`.
    pinned_nodes: usize,
    /// Fault-injection knob for the differential harness's self-test: when
    /// set, edge splits cut one token too deep. Compiled only into test
    /// builds, so a release split reads no fault flag.
    #[cfg(any(test, feature = "fault-injection"))]
    split_off_by_one: bool,
    /// Fault-injection knob, as above: when set, a compare across a
    /// label seam stops one token short of it.
    #[cfg(any(test, feature = "fault-injection"))]
    seam_short: bool,
}

/// Work the token store has done, as exact counts
/// ([`RadixTree::store_counters`]). Machine-independent, so two commits
/// replaying one trace can be compared for equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Tokens inserts appended.
    pub appended: u64,
    /// Tokens the store grew by inside merges. Merges splice labels, so
    /// this stays 0; a merge that copied would show here.
    pub merge_copied: u64,
    /// Tokens compactions copied to a new position.
    pub compaction_moved: u64,
    /// Compactions run.
    pub compactions: u64,
}

/// The store is never compacted below this many tokens (256 KiB of
/// `u32`s): under it the dead ranges cost less than finding them.
const STORE_COMPACT_FLOOR: usize = 1 << 16;

/// Compaction waits until the store is this many times its live tokens, so
/// each one reclaims at least three dead tokens per token it moves.
const STORE_DEAD_FACTOR: u64 = 4;

/// Tokens per step of [`common_prefix_len`].
const COMPARE_BLOCK: usize = 16;

/// Length of the longest common prefix of `a` and `b`: the one token
/// compare every edge walk goes through. Whole 16-token blocks are
/// compared by OR-ing the XORs of their tokens — no branch per token, so
/// the block compiles to a few vector ops under baseline x86-64 — and
/// only the first block that differs (or the short remainder) is scanned
/// token by token.
pub(crate) fn common_prefix_len(a: &[Token], b: &[Token]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (a_blocks, _) = a.as_chunks::<COMPARE_BLOCK>();
    let (b_blocks, _) = b.as_chunks::<COMPARE_BLOCK>();
    let mut equal = 0;
    for (x, y) in a_blocks.iter().zip(b_blocks) {
        if x.iter().zip(y).fold(0, |diff, (p, q)| diff | (p ^ q)) != 0 {
            break;
        }
        equal += COMPARE_BLOCK;
    }
    equal
        + a[equal..]
            .iter()
            .zip(&b[equal..])
            .take_while(|(p, q)| p == q)
            .count()
}

/// Length of the longest common prefix of `edge` and the virtual sequence
/// `head ‖ tail` from `pos` (at most its length): `edge` is compared
/// against the segment(s) it overlaps, so a compare straddling the seam
/// never materializes the concatenation. Inlined: the insert walk calls
/// it once per edge, and `chat_fit`'s replay measured ~7% slower with the
/// call left out of line.
#[inline]
fn seam_prefix_len(edge: &[Token], head: &[Token], tail: &[Token], pos: usize) -> usize {
    let mut shared = 0usize;
    if pos < head.len() {
        let h = &head[pos..];
        shared = common_prefix_len(edge, h);
        if shared < h.len() || shared == edge.len() {
            return shared;
        }
    }
    shared + common_prefix_len(&edge[shared..], &tail[pos + shared - head.len()..])
}

/// Result of [`RadixTree::match_prefix`]: a point in the tree, not a path.
///
/// The fully-matched nodes — those whose entire edge the query covers —
/// are [`deepest`](PrefixMatch::deepest) and its ancestors; a reader that
/// needs them walks parent pointers up from there
/// ([`RadixTree::parent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Number of leading query tokens present in the tree (may end inside an
    /// edge).
    pub matched_len: u64,
    /// `true` if the match ended partway through an edge label.
    pub ends_mid_edge: bool,
    /// The child whose edge the match ended inside, when `ends_mid_edge`.
    ///
    /// This node holds the KVs of the partially-matched tokens, so a
    /// recency-refreshing cache must stamp *it* (not just `deepest()`) on a
    /// partial hit — otherwise a hot, partially-matched prefix looks idle
    /// and gets evicted.
    pub mid_edge_child: Option<NodeId>,
    /// The deepest fully-matched node (the root when no edge is fully
    /// matched) and its depth; see
    /// [`resume_point`](PrefixMatch::resume_point).
    resume_at: Resumed,
}

impl PrefixMatch {
    /// Deepest fully-matched node, if any (the root does not count).
    #[must_use]
    pub fn deepest(&self) -> Option<NodeId> {
        let node = self.resume_at.node;
        (node != NodeId::ROOT).then_some(node)
    }

    /// The deepest fully-matched node as a [`Resumed`] point: its root
    /// path is the query's first `depth()` tokens, so a later walk over
    /// any sequence sharing those tokens — the query itself, a prefix at
    /// least that long, the query extended — can start there.
    pub fn resume_point(&self) -> Resumed {
        self.resume_at
    }

    /// What inserting the query would do structurally (the paper's
    /// speculative insertion, §4.1): a match ending inside an edge means
    /// the insert would split it there.
    #[must_use]
    pub fn speculation(&self) -> Speculation {
        Speculation {
            matched_len: self.matched_len,
            creates_branch_at: self.ends_mid_edge.then_some(self.matched_len),
        }
    }
}

/// A resume point that has already been checked: a live node and its
/// depth, for walks over sequences whose first `depth()` tokens are the
/// node's root path.
///
/// Minted only by the validators ([`RadixTree::resume`] and the
/// seam-aware check behind [`RadixTree::insert_parts_from`]) and by a
/// finished walk ([`PrefixMatch::resume_point`]), so
/// [`match_prefix_at`](RadixTree::match_prefix_at) and
/// [`insert_parts_at`](RadixTree::insert_parts_at) start from it without
/// re-reading the resume edge. A point stays valid until its node is
/// removed, for any sequence sharing the tokens it was minted against —
/// the path-invariance argument is in `docs/session-fastpath.md`
/// ("Validation: each operation validates once"). Using one after its node
/// was removed panics on the generation check, like any stale id.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resumed {
    node: NodeId,
    depth: u64,
}

impl Resumed {
    /// The resume node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The resume node's token depth: how many leading tokens a walk from
    /// here skips.
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.depth
    }
}

/// Result of [`RadixTree::speculate_insert`]: what *would* happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Speculation {
    /// Longest common prefix between the sequence and the tree's contents.
    pub matched_len: u64,
    /// `Some(depth)` if the insertion would split an existing edge, creating
    /// a new intermediate node at token depth `depth` (always equal to
    /// `matched_len` when present).
    ///
    /// This is the signal Marconi uses to checkpoint an SSM state during
    /// prefill (§4.1): a new intermediate node marks a prefix shared by
    /// multiple requests.
    pub creates_branch_at: Option<u64>,
}

/// Result of [`RadixTree::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Node whose depth equals the inserted sequence's length (the node
    /// "representing" the sequence). May be pre-existing.
    pub end_node: NodeId,
    /// New intermediate node created by splitting an existing edge, if any.
    pub split_node: Option<NodeId>,
    /// New leaf created to hold the sequence's un-shared suffix, if any.
    /// Equal to `end_node` when present.
    pub new_leaf: Option<NodeId>,
    /// Tokens newly added to the tree (the un-shared suffix length); the
    /// KV-byte footprint of the insertion is proportional to this.
    pub added_tokens: u64,
}

/// Payload and accounting returned by [`RadixTree::remove`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Removed<D> {
    /// The removed node's payload.
    pub data: D,
    /// Edge tokens freed from the tree. Zero when the removed node had one
    /// child: the child *absorbed* the edge (KVs retained), mirroring the
    /// paper's §4.3 eviction of intermediate nodes.
    pub freed_tokens: u64,
    /// The child that absorbed the edge, if any.
    pub merged_into: Option<NodeId>,
}

/// Error returned by [`RadixTree::remove`] for nodes that must not be
/// removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveError {
    /// The root cannot be removed.
    IsRoot,
    /// Nodes with two or more children are shared prefixes and cannot be
    /// removed directly (evict their descendants first).
    HasMultipleChildren,
    /// The id does not refer to a live node.
    NotFound,
    /// The node is protected by an in-flight pin ([`RadixTree::pin`]): an
    /// active request is still reading the KVs on its edge.
    Pinned,
}

impl fmt::Display for RemoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoveError::IsRoot => write!(f, "the root node cannot be removed"),
            RemoveError::HasMultipleChildren => {
                write!(f, "nodes with multiple children cannot be removed")
            }
            RemoveError::NotFound => write!(f, "node id does not refer to a live node"),
            RemoveError::Pinned => write!(f, "node is pinned by an in-flight request"),
        }
    }
}

impl Error for RemoveError {}

impl<D: Default> Default for RadixTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Default> RadixTree<D> {
    /// Creates an empty tree (a lone root).
    #[must_use]
    pub fn new() -> Self {
        RadixTree {
            slots: vec![Slot::Occupied {
                gen: 0,
                node: Node {
                    parent: None,
                    edge: Label::EMPTY,
                    children: ChildSet::default(),
                    depth: 0,
                    version: 0,
                    pin_count: 0,
                    stamp: 0,
                    class: 0,
                    data: D::default(),
                },
            }],
            store: Vec::new(),
            links: Links::default(),
            counters: StoreCounters::default(),
            free_head: None,
            node_count: 0,
            token_count: 0,
            lru: RecencyIndex::default(),
            pinned_nodes: 0,
            #[cfg(any(test, feature = "fault-injection"))]
            split_off_by_one: false,
            #[cfg(any(test, feature = "fault-injection"))]
            seam_short: false,
        }
    }

    /// Inserts `seq`, splitting edges and creating nodes as needed. New
    /// nodes get `D::default()` payloads (and recency stamp 0; see
    /// [`touch`](RadixTree::touch)).
    ///
    /// Inserting an empty sequence or an already-present sequence is a no-op
    /// structurally (the returned `end_node` is the existing node; for the
    /// empty sequence it is the root).
    pub fn insert(&mut self, seq: &[Token]) -> InsertOutcome {
        self.insert_at_node(NodeId::ROOT, 0, seq, &[])
    }

    /// Inserts the virtual concatenation `head ‖ tail` without
    /// materializing it — byte-identical to
    /// [`insert`](RadixTree::insert) of the concatenated sequence.
    ///
    /// Callers holding a sequence in two segments (a prompt and its
    /// decoded output, say) would otherwise pay an O(total) allocate-and-
    /// copy per insert just to satisfy the single-slice signature; the
    /// seam-aware walk reads each segment in place instead, so a resumed
    /// insert touches only the resume edge and the new suffix.
    pub fn insert_parts(&mut self, head: &[Token], tail: &[Token]) -> InsertOutcome {
        self.insert_at_node(NodeId::ROOT, 0, head, tail)
    }

    /// Resumes an insert of `head ‖ tail` from `cursor` — the walk starts
    /// at the cursor's node and only consumes the sequence past
    /// `cursor.matched_len()`, so an insert extending a previously-inserted
    /// sequence costs O(new tokens) instead of O(sequence).
    ///
    /// The outcome is byte-identical to
    /// [`insert_parts`](RadixTree::insert_parts) of the same sequence
    /// **provided** its first `cursor.matched_len()` tokens equal the cursor
    /// node's root path — guaranteed whenever it extends the sequence the
    /// cursor was taken from (see [`cursor_at`](RadixTree::cursor_at)'s
    /// contract). Validation ([`resume`](RadixTree::resume)) rejects stale
    /// cursors; on `Err` the caller falls back to the root walk.
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume); the tree is
    /// untouched on error.
    pub fn insert_parts_from(
        &mut self,
        cursor: &MatchCursor,
        head: &[Token],
        tail: &[Token],
    ) -> Result<InsertOutcome, CursorFault> {
        let at = self.resume_parts(cursor, head, tail)?;
        Ok(self.insert_parts_at(&at, head, tail))
    }

    /// Inserts `head ‖ tail` walking from an already-checked resume point:
    /// only `(head ‖ tail)[at.depth()..]` is read. Byte-identical to
    /// [`insert_parts`](RadixTree::insert_parts) provided the sequence's
    /// first `at.depth()` tokens are the ones `at` was minted against (see
    /// [`Resumed`]).
    ///
    /// # Panics
    ///
    /// If `at`'s node has been removed since it was minted.
    pub fn insert_parts_at(
        &mut self,
        at: &Resumed,
        head: &[Token],
        tail: &[Token],
    ) -> InsertOutcome {
        debug_assert_eq!(self.node(at.node).depth, at.depth, "resume point moved");
        self.insert_at_node(at.node, at.depth as usize, head, tail)
    }

    /// The insert walk from an arbitrary resume point over the virtual
    /// sequence `head ‖ tail`. `start`'s root path must equal the virtual
    /// sequence's first `start_pos` tokens (trivially true for the root at
    /// 0). Single-slice callers pass an empty `tail`.
    fn insert_at_node(
        &mut self,
        start: NodeId,
        start_pos: usize,
        head: &[Token],
        tail: &[Token],
    ) -> InsertOutcome {
        let total = head.len() + tail.len();
        let mut cur = start;
        let mut pos = start_pos;
        let mut split_node = None;

        loop {
            if pos == total {
                return InsertOutcome {
                    end_node: cur,
                    split_node,
                    new_leaf: None,
                    added_tokens: 0,
                };
            }
            let next_tok = if pos < head.len() {
                head[pos]
            } else {
                tail[pos - head.len()]
            };
            match self.node(cur).children.get(next_tok) {
                None => {
                    // No child shares the next token: append a fresh leaf.
                    // The suffix is appended once to the shared store; the
                    // leaf's edge is a slice of it.
                    let added = (total - pos) as u64;
                    let edge = self.push_tokens_parts(head, tail, pos);
                    let depth = self.node(cur).depth + added;
                    let leaf = self.alloc(Node {
                        parent: Some(cur),
                        edge: Label::single(edge),
                        children: ChildSet::default(),
                        depth,
                        version: 0,
                        pin_count: 0,
                        stamp: 0,
                        class: 0,
                        data: D::default(),
                    });
                    let children_before = self.node(cur).children.len();
                    self.node_mut(cur).children.insert(next_tok, leaf);
                    if children_before == 0 {
                        // `cur`'s leaf status flipped: structural caches on
                        // it (freed bytes) are stale.
                        self.bump(cur);
                    }
                    // The new leaf is a candidate (class 0, stamp 0); a
                    // second child ends `cur`'s candidacy.
                    self.lru.insert(0, 0, leaf);
                    if children_before == 1 && cur != NodeId::ROOT {
                        let c = self.node(cur);
                        self.lru.remove(c.class, c.stamp, cur);
                    }
                    self.token_count += added;
                    self.reclaim_store();
                    return InsertOutcome {
                        end_node: leaf,
                        split_node,
                        new_leaf: Some(leaf),
                        added_tokens: added,
                    };
                }
                Some(child) => {
                    let shared = self.shared_edge_len_parts(child, head, tail, pos);
                    let edge_len = self.node(child).edge.len();
                    if shared == edge_len {
                        // Whole edge matched: descend.
                        pos += shared;
                        cur = child;
                    } else {
                        // Partial edge match: split the edge at `shared`.
                        debug_assert!(shared > 0, "child lookup guarantees 1 shared token");
                        // Injected fault for the differential harness's
                        // self-test: cut one token too deep.
                        #[cfg(any(test, feature = "fault-injection"))]
                        let cut = if self.split_off_by_one {
                            (shared + 1).min(edge_len - 1)
                        } else {
                            shared
                        };
                        #[cfg(not(any(test, feature = "fault-injection")))]
                        let cut = shared;
                        let mid = self.split_edge(child, cut);
                        split_node = Some(mid);
                        pos += shared;
                        cur = mid;
                        // Loop continues: either seq is exhausted (mid is the
                        // end node) or a new leaf hangs off `mid`.
                    }
                }
            }
        }
    }

    fn alloc(&mut self, node: Node<D>) -> NodeId {
        self.node_count += 1;
        match self.free_head {
            Some(idx) => {
                let (gen, next) = match self.slots[idx as usize] {
                    Slot::Free { gen, next } => (gen, next),
                    Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                self.free_head = next;
                self.slots[idx as usize] = Slot::Occupied { gen, node };
                NodeId::new(idx, gen)
            }
            None => {
                self.slots.push(Slot::Occupied { gen: 0, node });
                NodeId::new((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    /// Appends the suffix of the virtual sequence `head ‖ tail` starting
    /// at `pos` to the shared store (one or two `extend_from_slice`
    /// memcpys, depending on whether the suffix straddles the seam).
    fn push_tokens_parts(&mut self, head: &[Token], tail: &[Token], pos: usize) -> EdgeRef {
        let edge = EdgeRef::new(self.store.len(), head.len() + tail.len() - pos);
        if pos < head.len() {
            self.store.extend_from_slice(&head[pos..]);
            self.store.extend_from_slice(tail);
        } else {
            self.store.extend_from_slice(&tail[pos - head.len()..]);
        }
        self.counters.appended += u64::from(edge.len);
        edge
    }

    /// Splits `child`'s edge after `shared` tokens, inserting a new
    /// intermediate node (returned) between `child` and its parent.
    ///
    /// Both halves keep referencing the shared store — the split cuts the
    /// label's chain of ranges, O(ranges before the cut), and no token is
    /// copied or moved.
    fn split_edge(&mut self, child: NodeId, shared: usize) -> NodeId {
        let parent = self
            .node(child)
            .parent
            .expect("invariant: split children are non-root");
        let (edge, child_depth, inherited_pins, tier) = {
            let c = self.node(child);
            (c.edge, c.depth, c.pin_count, c.class & TIER_BIT)
        };
        let (head, tail) = self.links.cut(edge, shared as u32);
        let mid_depth = child_depth - u64::from(tail.len);

        let mut mid_children = ChildSet::default();
        mid_children.insert(self.store[tail.first.off as usize], child);
        // The new intermediate inherits the child's pin count: pin counts
        // are subtree-inclusive, and every upward walk that used to reach
        // `child` directly now passes through `mid` first. Copying keeps
        // later `unpin` walks balanced and keeps the head of a pinned edge
        // protected (the split moved those KVs onto `mid`). It also
        // inherits the child's tier: the head tokens it takes over still
        // live where they lived.
        let mid = self.alloc(Node {
            parent: Some(parent),
            edge: head,
            children: mid_children,
            depth: mid_depth,
            version: 0,
            pin_count: inherited_pins,
            stamp: 0,
            class: tier,
            data: D::default(),
        });
        self.pinned_nodes += usize::from(inherited_pins > 0);
        {
            let c = self.node_mut(child);
            c.edge = tail;
            c.parent = Some(mid);
        }
        // The child's edge shortened (and its parent changed): bump so
        // memoized per-node costs recompute.
        self.bump(child);
        let first = self.store[head.first.off as usize];
        self.node_mut(parent).children.insert(first, mid);
        // `mid` replaces `child` under `parent`, so the parent's child count
        // (and candidacy) is unchanged; `mid` itself has exactly one child,
        // so it is a candidate (class 0 of the child's tier, stamp 0).
        self.lru.insert(tier, 0, mid);
        // Splitting moves tokens between edges without adding any, so
        // token_count is untouched; alloc() already counted the new node.
        mid
    }
}

impl<D> RadixTree<D> {
    fn node(&self, id: NodeId) -> &Node<D> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { gen, node }) if *gen == id.gen => node,
            _ => panic!("invariant: node ids refer to live nodes (stale or freed id {id})"),
        }
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<D> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Occupied { gen, node }) if *gen == id.gen => node,
            _ => panic!("invariant: node ids refer to live nodes (stale or freed id {id})"),
        }
    }

    fn get_node(&self, id: NodeId) -> Option<&Node<D>> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { gen, node }) if *gen == id.gen => Some(node),
            _ => None,
        }
    }

    /// `true` iff `id` is an eviction candidate: a non-root node with ≤ 1
    /// child. The recency index holds exactly the nodes this is true of.
    fn is_candidate(&self, id: NodeId) -> bool {
        id != NodeId::ROOT && self.node(id).children.len() <= 1
    }

    /// Number of leading tokens of `rest` matching `child`'s edge label.
    fn shared_edge_len(&self, child: NodeId, rest: &[Token]) -> usize {
        let edge = self.node(child).edge;
        if edge.is_single() {
            return common_prefix_len(&self.store[edge.first.range()], rest);
        }
        self.shared_chain_len(edge, rest, &[], 0)
    }

    /// [`shared_edge_len`](RadixTree::shared_edge_len) against the virtual
    /// sequence `head ‖ tail` starting at `pos`: the edge is compared
    /// piecewise against the segment(s) it overlaps, so a compare
    /// straddling the seam never materializes the concatenation.
    fn shared_edge_len_parts(
        &self,
        child: NodeId,
        head: &[Token],
        tail: &[Token],
        pos: usize,
    ) -> usize {
        self.shared_label_len(self.node(child).edge, head, tail, pos)
    }

    /// Common prefix length of `edge` and `head ‖ tail` from `pos`: one
    /// branch to the one-range compare, or the range-by-range one.
    fn shared_label_len(&self, edge: Label, head: &[Token], tail: &[Token], pos: usize) -> usize {
        if edge.is_single() {
            return seam_prefix_len(&self.store[edge.first.range()], head, tail, pos);
        }
        self.shared_chain_len(edge, head, tail, pos)
    }

    /// [`shared_label_len`](RadixTree::shared_label_len) of a chained
    /// label: each range is compared in turn, and the compare carries on
    /// across a label seam only while the range before it matched whole.
    #[cold]
    fn shared_chain_len(&self, edge: Label, head: &[Token], tail: &[Token], pos: usize) -> usize {
        let mut shared = 0;
        for part in self.links.parts(edge) {
            let part = &self.store[part.range()];
            let n = seam_prefix_len(part, head, tail, pos + shared);
            shared += n;
            if n < part.len() {
                break;
            }
            // Injected fault for the differential harness's self-test:
            // stop one token short of a label seam.
            #[cfg(any(test, feature = "fault-injection"))]
            if self.seam_short && shared < edge.len() {
                return shared - 1;
            }
        }
        shared
    }

    /// Number of live non-root nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// `true` if the tree holds no sequences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Total tokens across all edges (= number of distinct stored prefixes).
    #[must_use]
    pub fn token_count(&self) -> u64 {
        self.token_count
    }

    /// Current length of the shared edge store in tokens: the live
    /// [`token_count`](RadixTree::token_count) plus the dead ranges not yet
    /// reclaimed, so at most `max(2^16, 4 × token_count())` (the store
    /// bound; see the [type docs](RadixTree#the-token-store)).
    #[must_use]
    pub fn token_store_len(&self) -> usize {
        self.store.len()
    }

    /// Arena high-water mark: total slots ever allocated (live + free).
    /// Free-list reuse bounds it by the root's slot plus the peak live-node
    /// count plus retired slots — a slot retires on its 2^32-th free, when
    /// its generation would wrap.
    #[must_use]
    pub fn arena_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn data(&self, id: NodeId) -> &D {
        &self.node(id).data
    }

    /// Mutable payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn data_mut(&mut self, id: NodeId) -> &mut D {
        &mut self.node_mut(id).data
    }

    /// `true` if `id` refers to a live node. A stale id — one whose slot
    /// was freed, even if since recycled — is reported dead (generation
    /// tags distinguish occupancies).
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get_node(id).is_some()
    }

    /// Token depth of a node (tokens from root through its edge).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn depth(&self, id: NodeId) -> u64 {
        self.node(id).depth
    }

    /// Length of the edge label from the node's parent.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn edge_len(&self, id: NodeId) -> u64 {
        u64::from(self.node(id).edge.len)
    }

    /// The tokens on the edge from the node's parent, as the slices of
    /// the token store that hold them, in order (none for the root). A
    /// label that merges have joined is several slices until the next
    /// compaction rewrites it as one; nothing is materialized.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn edge_parts(&self, id: NodeId) -> impl Iterator<Item = &[Token]> + '_ {
        self.links
            .parts(self.node(id).edge)
            .map(|part| &self.store[part.range()])
    }

    /// Work the token store has done so far, by cause: tokens inserts
    /// appended, tokens merges copied (none: merges splice), tokens
    /// compactions moved, and compactions run.
    #[must_use]
    pub fn store_counters(&self) -> StoreCounters {
        self.counters
    }

    /// Parent of a node (`None` for the root).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Number of children of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn child_count(&self, id: NodeId) -> usize {
        self.node(id).children.len()
    }

    /// `true` if the node has no children.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).children.is_empty()
    }

    /// Children of a node, in deterministic (first-token) order.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children.ids()
    }

    /// Iterates over all live non-root node ids, in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(i, s)| match s {
                Slot::Occupied { gen, .. } => Some(NodeId::new(i as u32, *gen)),
                Slot::Free { .. } => None,
            })
    }

    /// Nodes eligible for eviction: live non-root nodes with ≤ 1 child.
    ///
    /// Nodes with multiple children are common prefixes shared by multiple
    /// requests and are not evicted directly (paper §4.3); they become
    /// candidates once their descendants are gone.
    ///
    /// A view of [`lru_candidates`](RadixTree::lru_candidates) without the
    /// stamps: O(candidates) — not O(arena slots) — regardless of how much
    /// the arena has churned, in the same order.
    pub fn eviction_candidates(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.lru_candidates().map(|(_, id)| id)
    }

    /// Number of current eviction candidates, in O(1).
    #[must_use]
    pub fn eviction_candidate_count(&self) -> usize {
        self.lru.len()
    }

    /// Records a recency stamp on a node in O(log candidates).
    ///
    /// Stamps order the recency index consulted by
    /// [`lru_candidates`](RadixTree::lru_candidates): the caller supplies
    /// monotone stamps (e.g. [`recency_stamp`](crate::recency_stamp) of an
    /// access clock) and the tree keeps candidates sorted by
    /// `(stamp, id)`. Touching a non-candidate (e.g. a multi-child branch
    /// on a hit path) just records the stamp; the node carries it into the
    /// recency index if it later becomes a candidate. New nodes start at
    /// stamp 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn touch(&mut self, id: NodeId, stamp: u64) {
        let old = self.node(id).stamp;
        if old == stamp {
            return;
        }
        if self.is_candidate(id) {
            let class = self.node(id).class;
            self.lru.restamp(class, old, stamp, id);
        }
        self.node_mut(id).stamp = stamp;
    }

    /// Files a node under a caller-defined class in O(log candidates).
    ///
    /// The recency index keeps one `(stamp, id)`-ordered band per class
    /// ([`candidate_bands`](RadixTree::candidate_bands)). The top bit,
    /// [`TIER_BIT`], names the node's tier, and the tree reads it in two
    /// places: a version bump keeps it, and an edge split copies it from
    /// the child to the new intermediate (the head tokens it takes over
    /// stay where they were). Re-keying a node between tiers is this
    /// call with the bit flipped; [`tier_bands`](RadixTree::tier_bands)
    /// then reads one tier's bands alone. The other bits are the caller's
    /// and last exactly as long as the node's
    /// [`structure_version`](RadixTree::structure_version): new nodes start
    /// in class 0 and every version bump returns the node to class 0 of its
    /// tier, so a class derived from the versioned inputs (leaf status,
    /// edge length, depth) can never outlive them — a caller whose class
    /// also depends on its own payload clears those bits when that payload
    /// changes. [`touch`](RadixTree::touch) keeps the class. Setting the
    /// class of a non-candidate just records it; the node carries it into
    /// the index if it later becomes a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn set_class(&mut self, id: NodeId, class: u16) {
        let (old, stamp) = {
            let n = self.node(id);
            (n.class, n.stamp)
        };
        if old == class {
            return;
        }
        if self.is_candidate(id) {
            self.lru.remove(old, stamp, id);
            self.lru.insert(class, stamp, id);
        }
        self.node_mut(id).class = class;
    }

    /// The node's current class (0 if never classed; only its tier bit
    /// since its last structure-version bump).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn class(&self, id: NodeId) -> u16 {
        self.node(id).class
    }

    /// Records a change to `id`'s leaf status, edge length or depth: bumps
    /// its structure version and returns it to class 0 of its tier,
    /// re-keying its index entry if it is a candidate.
    fn bump(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        node.bump_version();
        let tier = node.class & TIER_BIT;
        self.set_class(id, tier);
    }

    /// The node's current recency stamp (0 if never touched).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn stamp(&self, id: NodeId) -> u64 {
        self.node(id).stamp
    }

    /// Eviction candidates with their stamps: band by band in ascending
    /// class, each band in ascending `(stamp, id)` order. A tree nobody
    /// called [`set_class`](RadixTree::set_class) on has one band, so this
    /// is plain coldest-first order there.
    pub fn lru_candidates(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.lru.bands().flat_map(|(_, band)| band)
    }

    /// The one candidate index, read live by every eviction policy: its
    /// non-empty bands in ascending class order, each yielding
    /// `(stamp, id)` oldest first (and newest first from the back).
    pub fn candidate_bands(
        &self,
    ) -> impl DoubleEndedIterator<
        Item = (
            u16,
            impl DoubleEndedIterator<Item = (u64, NodeId)> + Clone + '_,
        ),
    > + Clone
           + '_ {
        self.lru.bands()
    }

    /// [`candidate_bands`](RadixTree::candidate_bands) restricted to one
    /// tier: `tier` is `0` or [`TIER_BIT`], and the bands are those whose
    /// class carries exactly that top bit. The tier is the top of the band
    /// key, so this costs one binary search over the bands, and a walk of
    /// one tier never reads an entry of the other.
    pub fn tier_bands(
        &self,
        tier: u16,
    ) -> impl DoubleEndedIterator<
        Item = (
            u16,
            impl DoubleEndedIterator<Item = (u64, NodeId)> + Clone + '_,
        ),
    > + Clone
           + '_ {
        self.lru.tier_bands(tier)
    }

    /// Pins `id` for an in-flight request: increments the pin count of
    /// every node from `id` up to (excluding) the root. While any count on
    /// a node is nonzero the node is *protected* — [`remove`] refuses it
    /// with [`RemoveError::Pinned`], and a well-behaved cache also skips it
    /// for demotion, because an in-flight request is still reading the KVs
    /// along the pinned path. O(depth in nodes). Pinning the root is a
    /// no-op.
    ///
    /// Pins are balanced by [`unpin`](RadixTree::unpin) with the *same*
    /// id: pinned nodes are never removed, and edge splits copy counts
    /// onto the new intermediate, so the id — and the upward walk from
    /// it — stays valid across any interleaved tree mutations.
    ///
    /// [`remove`]: RadixTree::remove
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn pin(&mut self, id: NodeId) {
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node_mut(cur);
            n.pin_count += 1;
            let first = n.pin_count == 1;
            let parent = n.parent.expect("invariant: non-root nodes have a parent");
            self.pinned_nodes += usize::from(first);
            cur = parent;
        }
    }

    /// Releases one [`pin`](RadixTree::pin) of `id`: decrements the pin
    /// count of every node from `id` up to (excluding) the root.
    /// O(depth in nodes). Unpinning the root is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node, or if a node on the walk
    /// has no pin to release — an unpin without a matching pin.
    pub fn unpin(&mut self, id: NodeId) {
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node_mut(cur);
            n.pin_count = n
                .pin_count
                .checked_sub(1)
                .expect("invariant: unpin without a matching pin");
            let now_free = n.pin_count == 0;
            let parent = n.parent.expect("invariant: non-root nodes have a parent");
            self.pinned_nodes -= usize::from(now_free);
            cur = parent;
        }
    }

    /// `true` if the node is protected by at least one in-flight pin
    /// (its own or a descendant's — counts are subtree-inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn is_pinned(&self, id: NodeId) -> bool {
        self.node(id).pin_count > 0
    }

    /// Iterates over all currently protected nodes (pin count > 0), in
    /// arena order. An O(arena slots) scan: for tests, diagnostics and
    /// offline replay, not for the serving path (which asks
    /// [`is_pinned`](RadixTree::is_pinned) per node or
    /// [`pinned_count`](RadixTree::pinned_count)).
    pub fn pinned_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.is_pinned(id))
    }

    /// Number of currently protected nodes, in O(1).
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        self.pinned_nodes
    }

    /// Drops every pin, returning the tree to a fully evictable state.
    /// O(arena slots).
    ///
    /// Intended for clones handed to offline replay (e.g. the α tuner's
    /// replicas), which model no in-flight lifetimes.
    pub fn clear_pins(&mut self) {
        for slot in &mut self.slots {
            if let Slot::Occupied { node, .. } = slot {
                node.pin_count = 0;
            }
        }
        self.pinned_nodes = 0;
    }

    /// Structure version of a node: bumped whenever the node's leaf status,
    /// edge length, or depth changes (the inputs to Marconi's per-node
    /// freed-bytes / FLOP-efficiency scores). Callers memoizing derived
    /// quantities per node can compare versions to detect staleness in O(1).
    ///
    /// Versions restart at 0 when an arena slot is recycled; since the
    /// payload is reset to `D::default()` at the same moment, a memo stored
    /// *in* the payload can never observe a stale match.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn structure_version(&self, id: NodeId) -> u32 {
        self.node(id).version
    }

    /// Finds the longest stored prefix of `query`.
    #[must_use]
    pub fn match_prefix(&self, query: &[Token]) -> PrefixMatch {
        let root = Resumed {
            node: NodeId::ROOT,
            depth: 0,
        };
        self.match_from(root, query)
    }

    /// Resumes [`match_prefix`](RadixTree::match_prefix) from `cursor`:
    /// walks only `query[cursor.matched_len()..]`, so the returned
    /// [`PrefixMatch`] is byte-identical to the root walk's under the
    /// [`cursor_at`](RadixTree::cursor_at) contract at O(new tokens).
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume).
    pub fn match_prefix_from(
        &self,
        cursor: &MatchCursor,
        query: &[Token],
    ) -> Result<PrefixMatch, CursorFault> {
        let at = self.resume(cursor, query)?;
        Ok(self.match_prefix_at(&at, query))
    }

    /// [`match_prefix`](RadixTree::match_prefix) walking from an
    /// already-checked resume point: only `query[at.depth()..]` is read,
    /// and the result is byte-identical to the root walk's provided
    /// `query`'s first `at.depth()` tokens are the ones `at` was minted
    /// against (see [`Resumed`]).
    ///
    /// # Panics
    ///
    /// If `at`'s node has been removed since it was minted.
    #[must_use]
    pub fn match_prefix_at(&self, at: &Resumed, query: &[Token]) -> PrefixMatch {
        debug_assert_eq!(self.node(at.node).depth, at.depth, "resume point moved");
        debug_assert!(
            at.depth as usize <= query.len(),
            "query ends above the point"
        );
        self.match_from(*at, query)
    }

    /// Resumes [`speculate_insert`](RadixTree::speculate_insert) from
    /// `cursor`; non-mutating like its root-walk counterpart.
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume).
    pub fn speculate_insert_from(
        &self,
        cursor: &MatchCursor,
        seq: &[Token],
    ) -> Result<Speculation, CursorFault> {
        Ok(self.match_prefix_from(cursor, seq)?.speculation())
    }

    /// The match walk from a resume point. `start`'s root path must equal
    /// `query[..start.depth]` (trivially true for the root).
    fn match_from(&self, start: Resumed, query: &[Token]) -> PrefixMatch {
        let mut cur = start;
        let mut pos = start.depth as usize;
        loop {
            let child = match query.get(pos) {
                Some(&tok) => self.node(cur.node).children.get(tok),
                None => None,
            };
            let Some(child) = child else {
                return PrefixMatch {
                    matched_len: pos as u64,
                    ends_mid_edge: false,
                    mid_edge_child: None,
                    resume_at: cur,
                };
            };
            let shared = self.shared_edge_len(child, &query[pos..]);
            pos += shared;
            if shared < self.node(child).edge.len() {
                return PrefixMatch {
                    matched_len: pos as u64,
                    ends_mid_edge: true,
                    mid_edge_child: Some(child),
                    resume_at: cur,
                };
            }
            cur = Resumed {
                node: child,
                depth: pos as u64,
            };
        }
    }

    /// Predicts the structural effect of inserting `seq` without mutating
    /// the tree (the paper's *speculative insertion*, §4.1).
    #[must_use]
    pub fn speculate_insert(&self, seq: &[Token]) -> Speculation {
        self.match_prefix(seq).speculation()
    }

    /// Tokens along the path from the root to (and including) `id`'s edge.
    ///
    /// Intended for debugging and tests; O(depth) allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn path_tokens(&self, id: NodeId) -> Vec<Token> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.node(c).parent;
        }
        let mut out = Vec::with_capacity(self.node(id).depth as usize);
        for &c in chain.iter().rev() {
            for part in self.edge_parts(c) {
                out.extend_from_slice(part);
            }
        }
        out
    }

    /// Removes a node with ≤ 1 child.
    ///
    /// * Leaf: the node and its edge tokens leave the tree.
    /// * Single child: the node is spliced out and its edge label is
    ///   *prepended* to the child's (the child absorbs the KVs; only the
    ///   node's payload — e.g. its SSM state — is released). The merge is
    ///   an O(1) splice of the two labels' chains of store ranges, and no
    ///   token is copied: where the node's last range ends exactly where
    ///   the child's first begins — always for a split pair — the two
    ///   ranges become one, otherwise the child's label gains a seam until
    ///   the next compaction rewrites it as one range.
    ///
    /// # Errors
    ///
    /// [`RemoveError::IsRoot`] for the root, [`RemoveError::NotFound`] for a
    /// dead id, [`RemoveError::HasMultipleChildren`] for shared-prefix
    /// nodes, and [`RemoveError::Pinned`] for nodes protected by an
    /// in-flight [`pin`](RadixTree::pin). A pinned node can never have an
    /// unpinned ancestor (counts are subtree-inclusive), so the merge arm
    /// below never relocates protected KVs.
    pub fn remove(&mut self, id: NodeId) -> Result<Removed<D>, RemoveError> {
        if id == NodeId::ROOT {
            return Err(RemoveError::IsRoot);
        }
        let node = self.get_node(id).ok_or(RemoveError::NotFound)?;
        if node.children.len() > 1 {
            return Err(RemoveError::HasMultipleChildren);
        }
        if node.pin_count > 0 {
            return Err(RemoveError::Pinned);
        }
        let parent = node
            .parent
            .expect("invariant: non-root nodes have a parent");
        let child = node.children.first_id();
        let first_tok = self.store[node.edge.first.off as usize];

        // A removable node has ≤ 1 child, so it is a candidate.
        self.lru.remove(node.class, node.stamp, id);
        match child {
            None => {
                let node = self.free(id);
                self.node_mut(parent).children.remove(first_tok);
                if parent != NodeId::ROOT {
                    let p = self.node(parent);
                    match p.children.len() {
                        // The parent just became a leaf: its freed-bytes
                        // shape changed.
                        0 => self.bump(parent),
                        // Down from two children to one: a candidate again,
                        // in the band its class names (no version moved
                        // while it was out, so the class still holds).
                        1 => self.lru.insert(p.class, p.stamp, parent),
                        _ => {}
                    }
                }
                self.token_count -= u64::from(node.edge.len);
                self.links.release(node.edge);
                self.reclaim_store();
                Ok(Removed {
                    data: node.data,
                    freed_tokens: u64::from(node.edge.len),
                    merged_into: None,
                })
            }
            Some(child) => {
                let node = self.free(id);
                // Child absorbs the edge: tokens (KVs) stay in the tree,
                // and stay where they are in the store.
                let stored = self.store.len();
                let merged = self.links.join(node.edge, self.node(child).edge);
                self.counters.merge_copied += (self.store.len() - stored) as u64;
                let c = self.node_mut(child);
                c.parent = Some(parent);
                c.edge = merged;
                // The child's edge grew (and its parent changed): bump so
                // memoized per-node costs recompute. Its child count — and
                // the parent's — are unchanged, so candidacies hold.
                self.bump(child);
                self.node_mut(parent).children.insert(first_tok, child);
                self.reclaim_store();
                Ok(Removed {
                    data: node.data,
                    freed_tokens: 0,
                    merged_into: Some(child),
                })
            }
        }
    }

    /// Compacts the store iff dead tokens dominate it: one length compare
    /// on stores under the floor, two otherwise. Called wherever the store
    /// grew or tokens died — the appending insert arm and both `remove`
    /// arms — which is what makes the store bound hold after every op.
    fn reclaim_store(&mut self) {
        let len = self.store.len();
        if len >= STORE_COMPACT_FLOOR && len as u64 >= STORE_DEAD_FACTOR * self.token_count {
            self.compact_store();
        }
    }

    /// Rewrites every live edge label as one range of a store holding
    /// exactly the live tokens, in place, and empties the range arena.
    /// O(arena + live nodes · log + live tokens); allocation-free apart
    /// from the sort key vec and, when merges have chained labels since
    /// the last compaction, one buffer of their tokens.
    ///
    /// Chained labels are copied out whole first. The one-range labels
    /// then slide down over every dead range in ascending offset order —
    /// which is what makes a plain forward `copy_within` safe (the write
    /// cursor never passes an unread label) and what keeps adjacent labels
    /// adjacent, so split pairs still merge into one range — and the
    /// chained labels follow them, each as one range.
    fn compact_store(&mut self) {
        self.counters.compactions += 1;
        let mut live: Vec<(u32, u32)> = Vec::with_capacity(self.node_count);
        let mut chained: Vec<u32> = Vec::new();
        let mut chained_len = 0usize;
        for (i, slot) in self.slots.iter().enumerate().skip(1) {
            if let Slot::Occupied { node, .. } = slot {
                if node.edge.is_single() {
                    live.push((node.edge.first.off, i as u32));
                } else {
                    chained.push(i as u32);
                    chained_len += node.edge.len();
                }
            }
        }
        let mut staged: Vec<Token> = Vec::with_capacity(chained_len);
        for &idx in &chained {
            let Slot::Occupied { node, .. } = &self.slots[idx as usize] else {
                unreachable!("collected from occupied slots only");
            };
            for part in self.links.parts(node.edge) {
                staged.extend_from_slice(&self.store[part.range()]);
            }
        }
        // Live labels are non-empty and disjoint, so offsets are unique
        // and the order is total.
        live.sort_unstable();
        let mut write = 0usize;
        let mut read = 0usize;
        for (_, idx) in live {
            let Slot::Occupied { node, .. } = &mut self.slots[idx as usize] else {
                unreachable!("collected from occupied slots only");
            };
            let src = node.edge.first.range();
            assert!(
                src.start >= read,
                "invariant: live edge labels never overlap in the token store"
            );
            read = src.end;
            let len = src.len();
            if src.start != write {
                self.store.copy_within(src, write);
                node.edge = Label::single(EdgeRef::new(write, len));
                self.counters.compaction_moved += len as u64;
            }
            write += len;
        }
        self.store.truncate(write);
        self.store.extend_from_slice(&staged);
        for idx in chained {
            let Slot::Occupied { node, .. } = &mut self.slots[idx as usize] else {
                unreachable!("collected from occupied slots only");
            };
            let len = node.edge.len();
            node.edge = Label::single(EdgeRef::new(write, len));
            write += len;
        }
        // Out to the buffer and back in.
        self.counters.compaction_moved += 2 * staged.len() as u64;
        self.links.clear();
        assert_eq!(
            write as u64, self.token_count,
            "invariant: live edge labels hold exactly token_count tokens"
        );
    }

    fn free(&mut self, id: NodeId) -> Node<D> {
        let gen = match &self.slots[id.index()] {
            Slot::Occupied { gen, .. } => *gen,
            Slot::Free { .. } => unreachable!("free() called on free slot"),
        };
        debug_assert_eq!(gen, id.gen, "free() with a stale id");
        // Bump the generation on the way out so ids minted for this
        // occupancy stop resolving once the slot is recycled. A slot whose
        // generation would wrap is retired instead — left free and off the
        // free list, so no id minted for it can ever resolve again. That
        // leaks one slot per 2^32 frees of one slot.
        let freed = match gen.checked_add(1) {
            Some(next_gen) => {
                let freed = Slot::Free {
                    gen: next_gen,
                    next: self.free_head,
                };
                self.free_head = Some(id.idx);
                freed
            }
            None => Slot::Free { gen, next: None },
        };
        let slot = std::mem::replace(&mut self.slots[id.index()], freed);
        self.node_count -= 1;
        match slot {
            Slot::Occupied { node, .. } => node,
            Slot::Free { .. } => unreachable!("free() called on free slot"),
        }
    }

    /// Enables the injected edge-split fault (cut one token too deep) used
    /// by the differential harness's self-test to prove the harness catches
    /// real divergence. Exists only under `cfg(test)` or the
    /// `fault-injection` feature, which nothing but this crate's own test
    /// targets enables.
    #[doc(hidden)]
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn debug_set_split_off_by_one(&mut self, enabled: bool) {
        self.split_off_by_one = enabled;
    }

    /// Enables the injected seam fault: a compare that matched one range
    /// of a chained label whole stops one token short of the next, so walks
    /// across a label seam split one token early. For the differential
    /// harness's self-test; compiled like
    /// [`debug_set_split_off_by_one`](RadixTree::debug_set_split_off_by_one).
    #[doc(hidden)]
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn debug_set_seam_short(&mut self, enabled: bool) {
        self.seam_short = enabled;
    }

    /// Exhaustively checks the structural invariants; for tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        let mut seen_tokens = 0u64;
        let mut seen_nodes = 0usize;
        let mut seen_candidates = 0usize;
        let mut seen_pinned = 0usize;
        let mut ranges = Vec::new();
        let mut links = 0usize;
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            let mut label_len = 0u32;
            let mut parts = 0usize;
            for part in self.links.parts(n.edge) {
                parts += 1;
                assert!(
                    part.range().end <= self.store.len(),
                    "{id}: edge range escapes the token store"
                );
                assert!(part.len > 0, "{id}: empty range in a label");
                ranges.push((part.off, part.len, id));
                label_len += part.len;
            }
            assert_eq!(label_len, n.edge.len, "{id}: label length != its ranges");
            links += parts.saturating_sub(1);
            if id != NodeId::ROOT {
                seen_nodes += 1;
                assert!(n.edge.len > 0, "{id}: empty edge on non-root");
                let p = self.node(n.parent.expect("invariant: non-root nodes have a parent"));
                assert_eq!(
                    p.depth + u64::from(n.edge.len),
                    n.depth,
                    "{id}: depth mismatch"
                );
                seen_tokens += u64::from(n.edge.len);
                assert_eq!(
                    self.lru.contains(n.class, n.stamp, id),
                    self.is_candidate(id),
                    "{id}: recency-index membership drift (child_count = {}, class = {}, stamp = {})",
                    n.children.len(),
                    n.class,
                    n.stamp
                );
                seen_candidates += usize::from(self.is_candidate(id));
                seen_pinned += usize::from(n.pin_count > 0);
                if n.parent != Some(NodeId::ROOT) {
                    assert!(
                        p.pin_count >= n.pin_count,
                        "{id}: pin counts are subtree-inclusive, so a parent's \
                         count ({}) must cover each child's ({})",
                        p.pin_count,
                        n.pin_count
                    );
                }
            } else {
                assert!(n.parent.is_none(), "root has a parent");
                assert_eq!(n.depth, 0, "root depth nonzero");
                assert_eq!(n.pin_count, 0, "root must never be pinned");
            }
            let mut prev_tok: Option<Token> = None;
            for (tok, cid) in n.children.iter() {
                assert!(
                    prev_tok.is_none_or(|p| p < tok),
                    "{id}: children not strictly sorted by first token"
                );
                prev_tok = Some(tok);
                let c = self.node(cid);
                assert_eq!(c.parent, Some(id), "{cid}: bad parent pointer");
                assert_eq!(
                    self.store[c.edge.first.off as usize], tok,
                    "{cid}: child key != first edge token"
                );
                stack.push(cid);
            }
        }
        assert_eq!(seen_nodes, self.node_count, "node_count drift");
        assert_eq!(seen_tokens, self.token_count, "token_count drift");
        // Compaction slides ranges in offset order; that is only sound
        // while live label ranges are pairwise disjoint.
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            let ((off, len, id), (next_off, _, next_id)) = (pair[0], pair[1]);
            assert!(
                off + len <= next_off,
                "{id} and {next_id}: edge labels overlap in the token store"
            );
        }
        self.links.assert_accounting(links);
        let len = self.store.len();
        assert!(
            len < STORE_COMPACT_FLOOR || (len as u64) < STORE_DEAD_FACTOR * self.token_count,
            "store bound: {len} stored tokens for {} live",
            self.token_count
        );
        // Every candidate has its entry in the band its class names
        // (above), so equal counts leave no room for a dead, stale-stamped,
        // wrong-band, duplicate or root entry — counted band by band, not
        // trusted from the index's own running total.
        let mut indexed = 0usize;
        let mut prev_class = None;
        for (class, band) in self.lru.bands() {
            assert!(
                prev_class.is_none_or(|p| p < class),
                "bands out of class order at {class}"
            );
            prev_class = Some(class);
            let entries: Vec<(u64, NodeId)> = band.collect();
            assert!(!entries.is_empty(), "band {class} is empty but present");
            assert!(
                entries.windows(2).all(|w| w[0] < w[1]),
                "band {class} is not strictly ascending by (stamp, id)"
            );
            indexed += entries.len();
        }
        assert_eq!(
            indexed, seen_candidates,
            "recency index holds entries for non-candidates"
        );
        assert_eq!(self.lru.len(), indexed, "recency-index length drift");
        // The two tiers' runs are the whole index, each band in its own.
        let mut tiered = 0usize;
        for tier in [0, TIER_BIT] {
            for (class, band) in self.lru.tier_bands(tier) {
                assert_eq!(
                    class & TIER_BIT,
                    tier,
                    "band {class} read as tier {tier:#x}"
                );
                tiered += band.count();
            }
        }
        assert_eq!(tiered, indexed, "the tier runs do not cover the index");
        assert_eq!(seen_pinned, self.pinned_nodes, "pinned-node count drift");
    }

    /// Graphviz `dot` rendering of the tree structure (edge labels
    /// abbreviated), for debugging.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph radix {\n  node [shape=circle];\n");
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            for (_, cid) in n.children.iter() {
                let len = self.node(cid).edge.len();
                let shown = if len <= 6 { len } else { 3 };
                let mut label: Vec<String> = self
                    .edge_parts(cid)
                    .flatten()
                    .take(shown)
                    .map(|t| t.to_string())
                    .collect();
                if shown < len {
                    label.push(format!("…(+{})", len - 3));
                }
                let _ = writeln!(out, "  {id} -> {cid} [label=\"{}\"];", label.join(" "));
                stack.push(cid);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> RadixTree<u32> {
        RadixTree::new()
    }

    #[test]
    fn empty_tree() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.token_count(), 0);
        let m = t.match_prefix(&[1, 2, 3]);
        assert_eq!(m.matched_len, 0);
        assert!(m.deepest().is_none());
        t.assert_invariants();
    }

    #[test]
    fn insert_single_sequence() {
        let mut t = tree();
        let out = t.insert(&[1, 2, 3]);
        assert_eq!(out.added_tokens, 3);
        assert!(out.split_node.is_none());
        assert_eq!(out.new_leaf, Some(out.end_node));
        assert_eq!(t.len(), 1);
        assert_eq!(t.token_count(), 3);
        assert_eq!(t.depth(out.end_node), 3);
        t.assert_invariants();
    }

    #[test]
    fn insert_empty_sequence_is_noop() {
        let mut t = tree();
        let out = t.insert(&[]);
        assert_eq!(out.end_node, NodeId::ROOT);
        assert_eq!(out.added_tokens, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn reinsert_is_structural_noop() {
        let mut t = tree();
        let first = t.insert(&[5, 6, 7]);
        let second = t.insert(&[5, 6, 7]);
        assert_eq!(second.end_node, first.end_node);
        assert_eq!(second.added_tokens, 0);
        assert!(second.split_node.is_none());
        assert!(second.new_leaf.is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn diverging_sequences_split_edge() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let mid = out.split_node.expect("split");
        assert_eq!(t.depth(mid), 2);
        assert_eq!(t.child_count(mid), 2);
        assert_eq!(out.added_tokens, 2);
        assert_eq!(t.token_count(), 6); // [1,2] + [3,4] + [9,9]
        assert_eq!(t.len(), 3);
        t.assert_invariants();
    }

    #[test]
    fn extension_creates_leaf_without_split() {
        let mut t = tree();
        let a = t.insert(&[1, 2]);
        let b = t.insert(&[1, 2, 3, 4]);
        assert!(b.split_node.is_none());
        assert_eq!(b.added_tokens, 2);
        assert_eq!(t.parent(b.end_node), Some(a.end_node));
        t.assert_invariants();
    }

    #[test]
    fn prefix_of_existing_edge_splits_with_single_child() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2]);
        let mid = out.split_node.expect("split");
        assert_eq!(out.end_node, mid);
        assert_eq!(t.child_count(mid), 1);
        assert_eq!(out.added_tokens, 0);
        assert_eq!(t.token_count(), 4);
        t.assert_invariants();
    }

    #[test]
    fn match_prefix_full_and_partial() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        t.insert(&[1, 2, 9, 9]);

        let m = t.match_prefix(&[1, 2, 3, 4]);
        assert_eq!(m.matched_len, 4);
        assert!(!m.ends_mid_edge);
        let leaf = m.deepest().unwrap();
        assert_eq!(t.depth(leaf), 4);
        let branch = t.parent(leaf).unwrap();
        assert_eq!(t.depth(branch), 2);
        assert_eq!(t.parent(branch), Some(NodeId::ROOT));

        let m = t.match_prefix(&[1, 2, 3, 7]);
        assert_eq!(m.matched_len, 3);
        assert!(m.ends_mid_edge);
        assert_eq!(
            m.deepest(),
            Some(branch),
            "only the branch node fully matched"
        );

        let m = t.match_prefix(&[1, 2]);
        assert_eq!(m.matched_len, 2);
        assert!(!m.ends_mid_edge);
        assert_eq!(m.deepest(), Some(branch));

        let m = t.match_prefix(&[7]);
        assert_eq!(m.matched_len, 0);
    }

    #[test]
    fn speculation_matches_insert_behaviour() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);

        // Divergence mid-edge: would split.
        let s = t.speculate_insert(&[1, 2, 9]);
        assert_eq!(
            s,
            Speculation {
                matched_len: 2,
                creates_branch_at: Some(2)
            }
        );

        // Pure extension past a leaf: no split.
        let s = t.speculate_insert(&[1, 2, 3, 4, 5]);
        assert_eq!(s.creates_branch_at, None);
        assert_eq!(s.matched_len, 4);

        // Strict prefix ending mid-edge: would split (single-child mid).
        let s = t.speculate_insert(&[1, 2, 3]);
        assert_eq!(s.creates_branch_at, Some(3));

        // Fresh sequence: no split.
        let s = t.speculate_insert(&[8, 8]);
        assert_eq!(
            s,
            Speculation {
                matched_len: 0,
                creates_branch_at: None
            }
        );
    }

    #[test]
    fn speculation_never_mutates() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let before = (t.len(), t.token_count(), t.token_store_len());
        let _ = t.speculate_insert(&[1, 2, 9]);
        let _ = t.speculate_insert(&[1, 2, 3]);
        assert_eq!(
            (t.len(), t.token_count(), t.token_store_len()),
            before,
            "probes must not mutate, not even the backing store"
        );
    }

    #[test]
    fn remove_leaf_frees_tokens() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let leaf = out.new_leaf.unwrap();
        let removed = t.remove(leaf).unwrap();
        assert_eq!(removed.freed_tokens, 2);
        assert_eq!(removed.merged_into, None);
        assert_eq!(t.token_count(), 4);
        t.assert_invariants();
    }

    #[test]
    fn remove_intermediate_merges_edge_into_child() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2]); // splits, mid has one child
        let mid = out.split_node.unwrap();
        let removed = t.remove(mid).unwrap();
        assert_eq!(removed.freed_tokens, 0, "KVs absorbed by child");
        let child = removed.merged_into.unwrap();
        assert_eq!(t.edge_len(child), 4);
        assert_eq!(t.depth(child), 4);
        assert_eq!(t.token_count(), 4);
        // The merged path still matches fully.
        assert_eq!(t.match_prefix(&[1, 2, 3, 4]).matched_len, 4);
        t.assert_invariants();
    }

    #[test]
    fn remove_branch_node_rejected_until_children_gone() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let branch = out.split_node.unwrap();
        assert_eq!(t.remove(branch), Err(RemoveError::HasMultipleChildren));
        // Evict one child; the branch becomes removable.
        let leaf = out.new_leaf.unwrap();
        t.remove(leaf).unwrap();
        assert!(t.remove(branch).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn remove_root_rejected() {
        let mut t = tree();
        assert_eq!(t.remove(NodeId::ROOT), Err(RemoveError::IsRoot));
    }

    #[test]
    fn remove_dead_id_rejected() {
        let mut t = tree();
        let out = t.insert(&[1]);
        t.remove(out.end_node).unwrap();
        assert_eq!(t.remove(out.end_node), Err(RemoveError::NotFound));
        assert!(!t.contains(out.end_node));
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.remove(a).unwrap();
        let b = t.insert(&[2]).end_node;
        assert_eq!(a.index(), b.index(), "freed slot reused");
    }

    #[test]
    fn eviction_candidates_exclude_branch_nodes() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        t.insert(&[1, 2, 9, 9]);
        let cands: Vec<_> = t.eviction_candidates().collect();
        // Two leaves are candidates; the 2-child branch node is not.
        assert_eq!(cands.len(), 2);
        assert_eq!(t.eviction_candidate_count(), 2);
        for c in cands {
            assert!(t.is_leaf(c));
        }
    }

    #[test]
    fn candidate_index_tracks_branch_transitions() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]);
        // One leaf: one candidate.
        assert_eq!(t.eviction_candidate_count(), 1);
        // Split creates a branch (2 children, not a candidate) + new leaf.
        let b = t.insert(&[1, 2, 9, 9]);
        let branch = b.split_node.unwrap();
        assert!(!t.eviction_candidates().any(|id| id == branch));
        // A third diverging child keeps the branch out.
        t.insert(&[1, 2, 7, 7]);
        assert!(!t.eviction_candidates().any(|id| id == branch));
        // Remove two of the three leaves: the branch drops to one child and
        // becomes a candidate.
        t.remove(a.end_node).unwrap();
        t.remove(b.new_leaf.unwrap()).unwrap();
        assert!(t.eviction_candidates().any(|id| id == branch));
        t.assert_invariants();
    }

    #[test]
    fn match_prefix_exposes_mid_edge_child() {
        let mut t = tree();
        let out = t.insert(&[1, 2, 3, 4]);
        // Ends inside the single leaf's edge.
        let m = t.match_prefix(&[1, 2, 3]);
        assert!(m.ends_mid_edge);
        assert_eq!(m.mid_edge_child, Some(out.end_node));
        assert!(m.deepest().is_none());
        // Full match: no mid-edge child.
        let m = t.match_prefix(&[1, 2, 3, 4]);
        assert!(!m.ends_mid_edge);
        assert_eq!(m.mid_edge_child, None);
        // Miss at a node boundary: no mid-edge child either.
        let m = t.match_prefix(&[9]);
        assert_eq!(m.mid_edge_child, None);
    }

    #[test]
    fn structure_version_bumps_only_on_shape_changes() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]);
        let leaf = a.end_node;
        let v0 = t.structure_version(leaf);

        // Splitting the leaf's edge shortens it: version bumps.
        let b = t.insert(&[1, 2, 9, 9]);
        let branch = b.split_node.unwrap();
        assert!(t.structure_version(leaf) > v0, "split must bump the child");

        // Adding a *third* child to the branch leaves every existing node's
        // shape alone.
        let v_leaf = t.structure_version(leaf);
        let v_branch = t.structure_version(branch);
        t.insert(&[1, 2, 7, 7]);
        assert_eq!(t.structure_version(leaf), v_leaf);
        assert_eq!(t.structure_version(branch), v_branch);

        // Extending past the leaf gives it its first child: leaf status
        // flipped, version bumps.
        t.insert(&[1, 2, 3, 4, 5, 6]);
        assert!(t.structure_version(leaf) > v_leaf);
    }

    #[test]
    fn structure_version_bumps_on_merge_and_leaf_loss() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2]); // split: mid with a single child
        let mid = out.split_node.unwrap();
        let m = t.match_prefix(&[1, 2, 3, 4]);
        let child = m.deepest().unwrap();
        let v_child = t.structure_version(child);
        // Removing the single-child mid merges its edge into the child.
        let removed = t.remove(mid).unwrap();
        assert_eq!(removed.merged_into, Some(child));
        assert!(
            t.structure_version(child) > v_child,
            "absorbing an edge must bump the child"
        );

        // Removing a node's last child turns the parent into a leaf: bump.
        let mut t = tree();
        t.insert(&[1, 2]);
        let ext = t.insert(&[1, 2, 3, 4]);
        let parent = t.parent(ext.end_node).unwrap();
        let v_parent = t.structure_version(parent);
        t.remove(ext.end_node).unwrap();
        assert!(
            t.structure_version(parent) > v_parent,
            "losing the last child must bump the parent"
        );
    }

    #[test]
    fn path_tokens_roundtrip() {
        let mut t = tree();
        let out = t.insert(&[1, 2, 3, 4, 5]);
        t.insert(&[1, 2, 9]);
        assert_eq!(t.path_tokens(out.end_node), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn data_is_mutable_per_node() {
        let mut t = tree();
        let out = t.insert(&[1, 2]);
        *t.data_mut(out.end_node) = 42;
        assert_eq!(*t.data(out.end_node), 42);
        // Splitting preserves the child's payload and defaults the mid.
        let out2 = t.insert(&[1, 9]);
        let mid = out2.split_node.unwrap();
        assert_eq!(*t.data(mid), 0);
        // The old node kept its data through the split.
        let m = t.match_prefix(&[1, 2]);
        assert_eq!(*t.data(m.deepest().unwrap()), 42);
    }

    #[test]
    fn node_ids_iterates_live_nodes_only() {
        let mut t = tree();
        t.insert(&[1, 2]);
        let out = t.insert(&[3, 4]);
        t.remove(out.end_node).unwrap();
        assert_eq!(t.node_ids().count(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn to_dot_contains_edges() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        t.insert(&[1, 2, 9]);
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains('…'), "long edges abbreviated");
    }

    // ------------------------------------------------------------------
    // Speculative insertion as the checkpoint trigger (paper §4.1): the
    // speculation must fire iff the insert would create a *new* branch
    // point, because that signal is exactly what admits an SSM checkpoint
    // during prefill. False positives waste cache bytes; false negatives
    // forfeit purely-input reuse.
    // ------------------------------------------------------------------

    #[test]
    fn speculation_fires_only_for_new_branch_points() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6]);

        // Mid-edge divergence: a new intermediate node would be created at
        // exactly the shared depth — checkpoint there.
        let s = t.speculate_insert(&[1, 2, 3, 9, 9]);
        assert_eq!(s.creates_branch_at, Some(3));
        assert_eq!(s.matched_len, 3);

        // Exact duplicate: nothing new would be created — no checkpoint.
        let s = t.speculate_insert(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(s.creates_branch_at, None);
        assert_eq!(s.matched_len, 6);

        // Disjoint sequence: a fresh root child, not a branch point.
        let s = t.speculate_insert(&[7, 7, 7]);
        assert_eq!(s.creates_branch_at, None);
        assert_eq!(s.matched_len, 0);
    }

    #[test]
    fn speculation_silent_at_existing_branch_points() {
        // Once a branch node exists at depth 2, a third sequence diverging
        // at that same depth must NOT re-fire: the node (and its
        // checkpoint) already exist, and inserting would only add a new
        // child edge, not split anything.
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 5, 6]);
        let branch = out.split_node.expect("second sequence splits");
        assert_eq!(t.depth(branch), 2);

        let s = t.speculate_insert(&[1, 2, 7, 8]);
        assert_eq!(s.matched_len, 2, "shares the prompt");
        assert_eq!(
            s.creates_branch_at, None,
            "divergence at an existing node is not a new branch point"
        );
        // Insert confirms the prediction: no split happens.
        let out = t.insert(&[1, 2, 7, 8]);
        assert!(out.split_node.is_none());
        assert_eq!(t.child_count(branch), 3);
        t.assert_invariants();
    }

    #[test]
    fn speculation_silent_for_pure_extensions() {
        // Conversation growth (history + new turn) extends past a leaf; the
        // branch-point trigger must stay silent — resume reuse is handled by
        // the separate last-decoded-token checkpoint, not this one.
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let s = t.speculate_insert(&[1, 2, 3, 4, 5]);
        assert_eq!(s.matched_len, 3);
        assert_eq!(s.creates_branch_at, None);
    }

    #[test]
    fn speculation_branch_depth_equals_matched_len_when_present() {
        // The paper checkpoints the state *at the branch depth*; the two
        // fields must agree so the cache checkpoints the right prefix.
        let mut t = tree();
        let seq: Vec<Token> = (0..128).collect();
        t.insert(&seq);
        for cut in [1usize, 17, 63, 127] {
            let mut probe = seq[..cut].to_vec();
            probe.push(999);
            let s = t.speculate_insert(&probe);
            assert_eq!(s.creates_branch_at, Some(cut as u64));
            assert_eq!(s.matched_len, cut as u64);
        }
    }

    #[test]
    fn speculation_on_empty_tree_and_empty_sequence() {
        let t = tree();
        let s = t.speculate_insert(&[1, 2, 3]);
        assert_eq!(s.creates_branch_at, None, "empty tree has no edges");
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let s = t.speculate_insert(&[]);
        assert_eq!(s.matched_len, 0);
        assert_eq!(s.creates_branch_at, None);
    }

    // ------------------------------------------------------------------
    // In-flight pinning: refcounts protect a matched path against removal
    // while a request is still decoding against its KVs (PR 6).
    // ------------------------------------------------------------------

    #[test]
    fn pin_protects_the_whole_path() {
        let mut t = tree();
        t.insert(&[1, 2]);
        let deep = t.insert(&[1, 2, 3, 4]).end_node;
        let mid = t.parent(deep).unwrap();
        t.pin(deep);
        assert!(t.is_pinned(deep));
        assert!(t.is_pinned(mid), "ancestors are protected transitively");
        assert_eq!(t.pinned_count(), 2);
        assert_eq!(t.remove(deep), Err(RemoveError::Pinned));
        assert_eq!(t.remove(mid), Err(RemoveError::Pinned));
        t.assert_invariants();
        t.unpin(deep);
        assert!(!t.is_pinned(deep));
        assert!(!t.is_pinned(mid));
        assert_eq!(t.pinned_count(), 0);
        assert!(t.remove(deep).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn pin_is_refcounted() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3]).end_node;
        t.pin(leaf);
        t.pin(leaf);
        t.unpin(leaf);
        assert!(t.is_pinned(leaf), "one of two pins still holds");
        assert_eq!(t.remove(leaf), Err(RemoveError::Pinned));
        t.unpin(leaf);
        assert!(t.remove(leaf).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn split_inherits_pins_and_unpin_stays_balanced() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3, 4]).end_node;
        t.pin(leaf);
        // Another request diverges mid-edge while the first is in flight:
        // the new intermediate holds the head of the pinned edge and must
        // be protected too.
        let out = t.insert(&[1, 2, 9, 9]);
        let mid = out.split_node.expect("split");
        assert!(t.is_pinned(mid), "split head of a pinned edge stays pinned");
        assert!(t.is_pinned(leaf));
        assert!(!t.is_pinned(out.new_leaf.unwrap()));
        assert_eq!(t.remove(mid), Err(RemoveError::HasMultipleChildren));
        t.assert_invariants();
        // Unpinning by the original id walks through the new intermediate
        // and releases everything.
        t.unpin(leaf);
        assert_eq!(t.pinned_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn clear_pins_resets_all_counts() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]).end_node;
        let b = t.insert(&[1, 2, 9]).end_node;
        t.pin(a);
        t.pin(a);
        t.pin(b);
        assert!(t.pinned_count() > 0);
        t.clear_pins();
        assert_eq!(t.pinned_count(), 0);
        assert!(!t.is_pinned(a));
        assert!(t.remove(a).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn recycled_slots_start_unpinned() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.pin(a);
        t.unpin(a);
        t.remove(a).unwrap();
        let b = t.insert(&[2]).end_node;
        assert_eq!(a.index(), b.index(), "slot reused");
        assert!(!t.is_pinned(b));
        t.assert_invariants();
    }

    #[test]
    fn pinning_root_is_a_noop() {
        let mut t = tree();
        t.insert(&[1, 2]);
        t.pin(NodeId::ROOT);
        t.unpin(NodeId::ROOT);
        assert_eq!(t.pinned_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn deep_chain_of_splits() {
        // Repeatedly inserting prefixes creates a chain of single-child
        // intermediates.
        let mut t = tree();
        let seq: Vec<Token> = (0..64).collect();
        t.insert(&seq);
        for cut in (8..64).step_by(8).rev() {
            let out = t.insert(&seq[..cut]);
            assert!(out.split_node.is_some(), "cut {cut} should split");
        }
        assert_eq!(t.token_count(), 64);
        t.assert_invariants();
        // Every prefix node matches exactly.
        for cut in (8..=64).step_by(8) {
            let m = t.match_prefix(&seq[..cut]);
            assert_eq!(m.matched_len, cut as u64);
            assert!(!m.ends_mid_edge);
        }
    }

    // ------------------------------------------------------------------
    // Arena engine specifics: generation tags, the shared token store,
    // and the O(log n) recency index.
    // ------------------------------------------------------------------

    #[test]
    fn generation_tags_detect_stale_ids() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.remove(a).unwrap();
        let b = t.insert(&[2]).end_node;
        assert_eq!(a.index(), b.index(), "slot reused");
        assert_ne!(
            a.generation(),
            b.generation(),
            "recycling must mint a fresh generation"
        );
        // The stale id is dead even though its slot is occupied again.
        assert!(!t.contains(a));
        assert!(t.contains(b));
        assert_eq!(t.remove(a), Err(RemoveError::NotFound));
        assert!(t.contains(b), "stale-id remove must not hit the new tenant");
        t.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "stale or freed id")]
    fn stale_id_access_panics_loudly() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.remove(a).unwrap();
        t.insert(&[2]); // recycles a's slot under a new generation
        let _ = t.data(a);
    }

    #[test]
    fn split_is_zero_copy_and_split_merge_reuses_store() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6]);
        let stored = t.token_store_len();
        // Splitting allocates no new store space: both halves alias the
        // original range.
        let out = t.insert(&[1, 2, 3, 9]);
        assert_eq!(
            t.token_store_len(),
            stored + 1,
            "only the new leaf's suffix [9] is appended"
        );
        // Removing the split leaf and then the branch merges the two
        // adjacent halves back — again without growing the store.
        t.remove(out.new_leaf.unwrap()).unwrap();
        let before_merge = t.token_store_len();
        t.remove(out.split_node.unwrap()).unwrap();
        assert_eq!(
            t.token_store_len(),
            before_merge,
            "adjacent-range merge is O(1) offset arithmetic"
        );
        assert_eq!(t.match_prefix(&[1, 2, 3, 4, 5, 6]).matched_len, 6);
        t.assert_invariants();
    }

    /// A label's store slices, materialized for comparison.
    fn parts(t: &RadixTree<u32>, id: NodeId) -> Vec<Vec<Token>> {
        t.edge_parts(id).map(<[Token]>::to_vec).collect()
    }

    #[test]
    fn non_adjacent_merge_splices_without_copying() {
        // An unrelated insertion between [1,2] and its extension [3,4]
        // separates their store ranges; the merge chains the two ranges.
        let mut t = tree();
        let a = t.insert(&[1, 2]).end_node;
        t.insert(&[7]);
        t.insert(&[1, 2, 3, 4]);
        let before = t.token_store_len();
        let removed = t.remove(a).unwrap();
        let child = removed.merged_into.unwrap();
        assert_eq!(t.token_store_len(), before, "a merge writes no token");
        assert_eq!(parts(&t, child), [vec![1, 2], vec![3, 4]]);
        assert_eq!(t.edge_len(child), 4);
        assert_eq!(t.match_prefix(&[1, 2, 3, 4]).matched_len, 4);
        assert_eq!(t.match_prefix(&[1, 2, 3, 9]).matched_len, 3);
        assert_eq!(t.store_counters().merge_copied, 0);
        t.assert_invariants();
    }

    /// `[0] → [1, 2] → [3, 4]`, each label laid out apart from the next by
    /// an unrelated insert, so every merge below joins non-adjacent ranges.
    fn spaced_chain(t: &mut RadixTree<u32>) -> (NodeId, NodeId, NodeId) {
        let top = t.insert(&[0]).end_node;
        t.insert(&[90]);
        let mid = t.insert(&[0, 1, 2]).end_node;
        t.insert(&[91]);
        let leaf = t.insert(&[0, 1, 2, 3, 4]).end_node;
        (top, mid, leaf)
    }

    #[test]
    fn merging_an_already_merged_label_chains_three_ranges() {
        let mut t = tree();
        let (top, mid, leaf) = spaced_chain(&mut t);
        let stored = t.token_store_len();
        // Bottom-up: the leaf absorbs [1, 2], then [0] in front of that.
        assert_eq!(t.remove(mid).unwrap().merged_into, Some(leaf));
        assert_eq!(parts(&t, leaf), [vec![1, 2], vec![3, 4]]);
        assert_eq!(t.remove(top).unwrap().merged_into, Some(leaf));
        assert_eq!(parts(&t, leaf), [vec![0], vec![1, 2], vec![3, 4]]);
        assert_eq!(t.path_tokens(leaf), [0, 1, 2, 3, 4]);
        assert_eq!(t.token_store_len(), stored);
        t.assert_invariants();

        // Two chains joined: `[0] | [1, 2]` over `[3, 4] | [5, 6]`.
        let mut u = tree();
        let (top, mid, low) = spaced_chain(&mut u);
        u.insert(&[92]);
        let leaf = u.insert(&[0, 1, 2, 3, 4, 5, 6]).end_node;
        u.remove(top).unwrap();
        u.remove(low).unwrap();
        assert_eq!(parts(&u, mid), [vec![0], vec![1, 2]]);
        assert_eq!(parts(&u, leaf), [vec![3, 4], vec![5, 6]]);
        assert_eq!(u.remove(mid).unwrap().merged_into, Some(leaf));
        let four = [vec![0], vec![1, 2], vec![3, 4], vec![5, 6]];
        assert_eq!(parts(&u, leaf), four);
        assert_eq!(u.path_tokens(leaf), [0, 1, 2, 3, 4, 5, 6]);
        u.assert_invariants();
        // A cut on a seam moves whole ranges; a cut inside one splits it.
        let seam = u.insert(&[0, 1, 2, 3, 4, 9]).split_node.unwrap();
        assert_eq!(parts(&u, seam), [vec![0], vec![1, 2], vec![3, 4]]);
        assert_eq!(parts(&u, leaf), [vec![5, 6]]);
        let inside = u.insert(&[0, 1, 8]).split_node.unwrap();
        assert_eq!(parts(&u, inside), [vec![0], vec![1]]);
        assert_eq!(parts(&u, seam), [vec![2], vec![3, 4]]);
        assert_eq!(u.path_tokens(leaf), [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(u.store_counters().merge_copied, 0);
        u.assert_invariants();
    }

    #[test]
    fn compaction_relinearises_a_chained_label() {
        let mut t = tree();
        let (top, mid, leaf) = spaced_chain(&mut t);
        t.remove(mid).unwrap();
        t.remove(top).unwrap();
        let cur = t.cursor_at(leaf).expect("live");
        assert_eq!(t.edge_parts(leaf).count(), 3);
        let before = t.store_counters();
        churn_until_compacted(&mut t, 40_000);
        let after = t.store_counters();
        assert!(after.compactions > before.compactions);
        assert!(after.compaction_moved >= 5, "the chain moved");
        assert_eq!(t.token_store_len() as u64, t.token_count());
        assert_eq!(parts(&t, leaf), [vec![0, 1, 2, 3, 4]]);
        assert_eq!(t.path_tokens(leaf), [0, 1, 2, 3, 4]);
        // The cursor taken across the seams still resumes, and still
        // rejects a query that diverges where a seam was.
        let at = t
            .resume(&cur, &[0, 1, 2, 3, 4, 5])
            .expect("cursor survives");
        assert_eq!(at.node(), leaf);
        assert_eq!(
            t.resume(&cur, &[0, 1, 9, 3, 4]),
            Err(CursorFault::EdgeDivergence)
        );
        t.assert_invariants();
    }

    #[test]
    fn walks_compare_across_label_seams() {
        let mut t = tree();
        let (top, mid, leaf) = spaced_chain(&mut t);
        t.remove(mid).unwrap();
        t.remove(top).unwrap();
        // [0] | [1, 2] | [3, 4]: a query diverging at each token, seams
        // included, and the full path.
        let full = [0, 1, 2, 3, 4];
        for at in 0..=full.len() {
            let mut q = full.to_vec();
            if at < full.len() {
                q[at] = 77;
            }
            assert_eq!(t.match_prefix(&q).matched_len, at as u64, "diverge at {at}");
            let cur = t.cursor_at(leaf).expect("live");
            let want = if at < full.len() {
                Err(CursorFault::EdgeDivergence)
            } else {
                Ok(leaf)
            };
            for seam in 0..=q.len() {
                let (head, tail) = q.split_at(seam);
                assert_eq!(t.shared_edge_len_parts(leaf, head, tail, 0), at);
                assert_eq!(t.resume_parts(&cur, head, tail).map(|r| r.node()), want);
            }
        }
        // The seam fault stops one token short of each seam it reaches.
        assert_eq!(t.shared_edge_len(leaf, &[0, 1, 2, 3]), 4);
        t.debug_set_seam_short(true);
        assert_eq!(t.shared_edge_len(leaf, &[0, 1, 2, 3]), 0);
        assert_eq!(t.match_prefix(&full).matched_len, 0);
    }

    // -- store reclamation ------------------------------------------------

    /// Inserts and removes one throwaway leaf of `len` fresh tokens
    /// (distinct per `round`, so nothing is shared with the live tree).
    /// Returns whether the insert, and whether the removal, compacted the
    /// store (it only ever shrinks by compacting).
    fn churn_once(t: &mut RadixTree<u32>, round: u32, len: u32) -> (bool, bool) {
        let base = 1_000_000 + round * len;
        let seq: Vec<Token> = (base..base + len).collect();
        let before = t.token_store_len();
        let leaf = t.insert(&seq).end_node;
        let on_insert = t.token_store_len() < before;
        let before = t.token_store_len();
        t.remove(leaf).expect("fresh unpinned leaf");
        (on_insert, t.token_store_len() < before)
    }

    /// Churns until the store compacts; panics if it never does. With
    /// `len` ≥ 2^15 the compaction lands on a removal (such a leaf is more
    /// than a quarter of any store it can push over the floor), so the
    /// store comes back holding exactly the live tokens.
    fn churn_until_compacted(t: &mut RadixTree<u32>, len: u32) {
        for round in 0..1_000 {
            if churn_once(t, round, len) != (false, false) {
                return;
            }
        }
        panic!("store never compacted: {} tokens", t.token_store_len());
    }

    #[test]
    fn compaction_preserves_paths_and_outstanding_cursors() {
        let mut t = tree();
        // Dead tokens in front of, between and behind the live labels, so
        // every one of them actually moves.
        let front = t.insert(&(500..900).collect::<Vec<Token>>()).end_node;
        t.insert(&[1, 2, 3, 4, 5, 6]);
        let gap = t.insert(&(900..1300).collect::<Vec<Token>>()).end_node;
        t.insert(&[1, 2, 3, 9, 9]); // splits [1..=6] at depth 3
        t.insert(&[1, 2, 3, 4, 5, 6, 7, 8]);
        t.insert(&[40, 41, 42]);
        t.remove(front).unwrap();
        t.remove(gap).unwrap();

        let live: Vec<NodeId> = t.node_ids().collect();
        let paths: Vec<Vec<Token>> = live.iter().map(|&id| t.path_tokens(id)).collect();
        let cursors: Vec<MatchCursor> = live.iter().map(|&id| t.cursor_at(id).unwrap()).collect();
        let versions: Vec<u32> = live.iter().map(|&id| t.structure_version(id)).collect();

        churn_until_compacted(&mut t, 40_000);
        assert_eq!(
            t.token_store_len() as u64,
            t.token_count(),
            "a compaction leaves exactly the live tokens"
        );
        t.assert_invariants();

        for (i, &id) in live.iter().enumerate() {
            assert_eq!(t.path_tokens(id), paths[i], "{id}: path changed");
            assert_eq!(t.structure_version(id), versions[i], "{id}: version moved");
            // Every cursor taken before the compaction still resumes, and
            // resumes to the same answer as the root walk.
            let mut query = paths[i].clone();
            query.push(77);
            assert_eq!(t.resume(&cursors[i], &query).map(|at| at.node()), Ok(id));
            assert_eq!(
                t.match_prefix_from(&cursors[i], &query).unwrap(),
                t.match_prefix(&query)
            );
        }
        // Probes stay read-only on a store that has been rewritten.
        let before = (t.len(), t.token_count(), t.token_store_len());
        let _ = t.speculate_insert(&[1, 2, 3, 4, 0]);
        let _ = t.speculate_insert(&[1, 2]);
        assert_eq!((t.len(), t.token_count(), t.token_store_len()), before);
    }

    #[test]
    fn split_pair_stays_adjacent_across_a_compaction() {
        let mut t = tree();
        let front = t.insert(&(500..900).collect::<Vec<Token>>()).end_node;
        t.insert(&[1, 2, 3, 4, 5, 6]);
        let out = t.insert(&[1, 2, 3, 9]);
        t.remove(front).unwrap(); // the pair must slide down 400 tokens
        churn_until_compacted(&mut t, 40_000);
        assert_eq!(t.token_store_len() as u64, t.token_count());

        // split → compact → merge: the two halves are still one contiguous
        // range, so the merge is offset arithmetic and appends nothing.
        t.remove(out.new_leaf.unwrap()).unwrap();
        let before_merge = t.token_store_len();
        let merged = t.remove(out.split_node.unwrap()).unwrap();
        assert_eq!(t.token_store_len(), before_merge, "merge grew the store");
        assert_eq!(
            parts(&t, merged.merged_into.unwrap()),
            [vec![1, 2, 3, 4, 5, 6]]
        );
        t.assert_invariants();
    }

    #[test]
    fn both_insert_and_remove_can_trigger_compaction() {
        // Small leaves cross the 2^16 floor on an *append* (the dead ratio
        // was already past 4x below the floor)...
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let on_insert = (0..200).any(|round| churn_once(&mut t, round, 1_000).0);
        assert!(on_insert, "an appending insert must be able to compact");
        // ...while leaves bigger than a quarter of the store only tip the
        // ratio when they die.
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let on_remove = (0..8).any(|round| churn_once(&mut t, round, 40_000).1);
        assert!(on_remove, "a removal must be able to compact");
        t.assert_invariants();
    }

    #[test]
    fn stores_under_the_floor_are_never_compacted() {
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let mut expect = t.token_store_len();
        for round in 0..60 {
            assert_eq!(churn_once(&mut t, round, 1_000), (false, false));
            expect += 1_000;
            assert_eq!(t.token_store_len(), expect);
        }
        assert!(expect < STORE_COMPACT_FLOOR);
    }

    #[test]
    #[should_panic(expected = "invariant: unpin without a matching pin")]
    fn unbalanced_unpin_panics_in_every_profile() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3]).end_node;
        t.pin(leaf);
        t.unpin(leaf);
        t.unpin(leaf);
    }

    #[test]
    fn touch_orders_lru_candidates() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        let b = t.insert(&[2, 2]).end_node;
        let c = t.insert(&[3, 3]).end_node;
        t.touch(a, 30);
        t.touch(b, 10);
        t.touch(c, 20);
        let order: Vec<NodeId> = t.lru_candidates().map(|(_, id)| id).collect();
        assert_eq!(order, vec![b, c, a], "ascending stamp order");
        assert_eq!(t.stamp(a), 30);
        // Re-touching reorders in O(log n).
        t.touch(b, 40);
        let order: Vec<NodeId> = t.lru_candidates().map(|(_, id)| id).collect();
        assert_eq!(order, vec![c, a, b]);
        t.assert_invariants();
    }

    #[test]
    fn lru_tracks_candidate_entry_and_exit() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]).end_node;
        t.touch(a, 5);
        // Splitting makes a branch with 2 children: the branch is not a
        // candidate, so it must not appear in the recency index.
        let out = t.insert(&[1, 2, 9, 9]);
        let branch = out.split_node.unwrap();
        assert!(t.lru_candidates().all(|(_, id)| id != branch));
        // Stamps survive candidacy changes: touch the branch while it is
        // out, then drop it to one child — it re-enters with its stamp.
        t.touch(branch, 77);
        t.remove(out.new_leaf.unwrap()).unwrap();
        assert!(t.lru_candidates().any(|(s, id)| id == branch && s == 77));
        // Removal drops the entry.
        t.remove(a).unwrap();
        assert!(t.lru_candidates().all(|(_, id)| id != a));
        assert_eq!(t.lru_candidates().count(), t.eviction_candidate_count());
        t.assert_invariants();
    }

    #[test]
    fn ties_break_by_id_in_lru_order() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        let b = t.insert(&[2, 2]).end_node;
        t.touch(a, 9);
        t.touch(b, 9);
        let order: Vec<NodeId> = t.lru_candidates().map(|(_, id)| id).collect();
        let mut want = vec![a, b];
        want.sort();
        assert_eq!(order, want, "equal stamps break ties by id");
    }

    /// `(class, id)` of every index entry, in iteration order.
    fn banded(t: &RadixTree<u32>) -> Vec<(u16, NodeId)> {
        t.candidate_bands()
            .flat_map(|(class, band)| band.map(move |(_, id)| (class, id)))
            .collect()
    }

    #[test]
    fn set_class_moves_a_candidate_between_bands_and_touch_keeps_it_there() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        let b = t.insert(&[2, 2]).end_node;
        t.touch(a, 10);
        t.touch(b, 20);
        assert_eq!(banded(&t), vec![(0, a), (0, b)], "new nodes are unclassed");
        t.set_class(b, 3);
        assert_eq!(t.class(b), 3);
        assert_eq!(banded(&t), vec![(0, a), (3, b)]);
        // Class first: `b` stays behind `a` however old its stamp.
        t.touch(b, 1);
        assert_eq!(banded(&t), vec![(0, a), (3, b)]);
        assert_eq!(
            t.lru_candidates().collect::<Vec<_>>(),
            vec![(10, a), (1, b)]
        );
        t.set_class(b, 0);
        assert_eq!(banded(&t), vec![(0, b), (0, a)], "back in stamp order");
        assert_eq!(t.candidate_bands().count(), 1, "band 3 emptied and dropped");
        t.assert_invariants();
    }

    #[test]
    fn every_version_bump_returns_the_node_to_class_zero_of_its_tier() {
        // The four bump sites: leaf gains a child, edge split shortens the
        // child, parent becomes a leaf, merge grows the child. Each clears
        // the caller's bits and keeps the tier bit, in either tier.
        for tier in [0, TIER_BIT] {
            let mut t = tree();
            let a = t.insert(&[1, 2, 3, 4]).end_node;
            t.set_class(a, tier | 5);
            let below = t.insert(&[1, 2, 3, 4, 5]).end_node; // a: leaf -> 1 child
            assert_eq!((t.class(a), t.structure_version(a)), (tier, 1));
            t.set_class(a, tier | 5);
            let mid = t.insert(&[1, 2, 9]).split_node.unwrap(); // a's edge split
            assert_eq!(t.class(a), tier);
            assert_eq!(t.class(mid), tier, "the split's new node takes a's tier");
            t.set_class(a, tier | 5);
            t.remove(below).unwrap(); // a: 1 child -> leaf
            assert_eq!(t.class(a), tier);
            t.set_class(a, tier | 5);
            t.set_class(mid, 6);
            let sibling = t.match_prefix(&[1, 2, 9]).deepest().unwrap();
            t.remove(sibling).unwrap(); // mid: 2 -> 1 children, no bump
            let mut own_bands = vec![(tier | 5, a), (6, mid)];
            own_bands.sort();
            assert_eq!(banded(&t), own_bands, "re-enters its own band");
            t.remove(mid).unwrap(); // a absorbs mid's edge
            assert_eq!(t.class(a), tier);
            assert_eq!(banded(&t), vec![(tier, a)]);
            t.assert_invariants();
        }
    }

    /// Ids of one tier's candidates, in band order.
    fn tier_ids(t: &RadixTree<u32>, tier: u16) -> Vec<NodeId> {
        t.tier_bands(tier)
            .flat_map(|(_, band)| band.map(|(_, id)| id))
            .collect()
    }

    #[test]
    fn a_split_node_starts_in_class_zero_of_the_split_childs_tier() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]).end_node;
        let b = t.insert(&[7, 7]).end_node;
        t.set_class(a, TIER_BIT | 9);
        t.set_class(b, 3);
        // A split with no new leaf leaves the new node a candidate: its
        // entry must land in the child's tier.
        let mid = t.insert(&[1, 2]).split_node.unwrap();
        assert_eq!(
            t.class(mid),
            TIER_BIT,
            "the head tokens stay where they were"
        );
        assert_eq!(
            t.class(a),
            TIER_BIT,
            "the shortened child was bumped, tier kept"
        );
        assert_eq!(tier_ids(&t, TIER_BIT), vec![a, mid]);
        assert_eq!(tier_ids(&t, 0), vec![b]);
        // A split in the lower tier stays there, and a new leaf starts in it.
        let out = t.insert(&[7, 1]);
        assert_eq!(t.class(out.split_node.unwrap()), 0);
        assert_eq!(t.class(out.new_leaf.unwrap()), 0);
        assert!(tier_ids(&t, 0).contains(&out.new_leaf.unwrap()));
        assert_eq!(tier_ids(&t, TIER_BIT), vec![a, mid]);
        t.assert_invariants();
    }

    #[test]
    fn a_class_set_while_not_a_candidate_is_carried_into_the_index() {
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let out = t.insert(&[1, 2, 9]);
        let branch = out.split_node.unwrap();
        t.set_class(branch, 2);
        assert!(banded(&t).iter().all(|&(_, id)| id != branch));
        t.remove(out.new_leaf.unwrap()).unwrap();
        assert!(banded(&t).contains(&(2, branch)));
        t.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "invariant: node ids refer to live nodes")]
    fn set_class_on_a_removed_id_panics_in_every_profile() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        t.remove(a).unwrap();
        t.set_class(a, 1);
    }

    // ------------------------------------------------------------------
    // RemoveError rejection paths must leave the tree byte-for-byte
    // untouched (ISSUE 8 satellite: these paths were under-tested).
    // ------------------------------------------------------------------

    /// Per-node observable state: id, depth, edge length, structure
    /// version, stamp, pinned.
    type NodeState = (NodeId, u64, u64, u32, u64, bool);

    /// Full observable state: counters (live, tokens, store length,
    /// candidates, pinned), dot export, and every node's [`NodeState`].
    type Snapshot = (usize, u64, usize, usize, usize, String, Vec<NodeState>);

    /// Full observable state: structure, versions, stamps, counters.
    fn snapshot(t: &RadixTree<u32>) -> Snapshot {
        let mut nodes: Vec<(NodeId, u64, u64, u32, u64, bool)> = t
            .node_ids()
            .map(|id| {
                (
                    id,
                    t.depth(id),
                    t.edge_len(id),
                    t.structure_version(id),
                    t.stamp(id),
                    t.is_pinned(id),
                )
            })
            .collect();
        nodes.sort();
        (
            t.len(),
            t.token_count(),
            t.token_store_len(),
            t.eviction_candidate_count(),
            t.pinned_count(),
            t.to_dot(),
            nodes,
        )
    }

    #[test]
    fn rejected_removal_of_root_adjacent_branch_is_a_noop() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let branch = out.split_node.unwrap();
        assert_eq!(t.parent(branch), Some(NodeId::ROOT), "root-adjacent");
        let before = snapshot(&t);
        assert_eq!(t.remove(branch), Err(RemoveError::HasMultipleChildren));
        assert_eq!(snapshot(&t), before, "rejected removal must not mutate");
        t.assert_invariants();
    }

    #[test]
    fn rejected_removal_of_pinned_mid_edge_node_is_a_noop() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6]);
        let deep = t.insert(&[1, 2, 3]).split_node.unwrap(); // mid-edge split
        let leaf = t.match_prefix(&[1, 2, 3, 4, 5, 6]).deepest().unwrap();
        t.pin(leaf);
        assert!(t.is_pinned(deep), "mid-edge ancestor is pin-protected");
        let before = snapshot(&t);
        assert_eq!(t.remove(deep), Err(RemoveError::Pinned));
        assert_eq!(t.remove(leaf), Err(RemoveError::Pinned));
        assert_eq!(snapshot(&t), before, "rejected removal must not mutate");
        t.assert_invariants();
        t.unpin(leaf);
    }

    #[test]
    fn rejected_removal_of_multi_child_node_is_a_noop() {
        let mut t = tree();
        t.insert(&[5, 1, 1]);
        t.insert(&[5, 2, 2]);
        let out = t.insert(&[5, 3, 3]);
        let hub = t.parent(out.end_node).unwrap();
        assert_eq!(t.child_count(hub), 3);
        let before = snapshot(&t);
        assert_eq!(t.remove(hub), Err(RemoveError::HasMultipleChildren));
        // Dead ids and the root are also rejected without side effects.
        let dead = {
            let x = t.insert(&[9, 9]).end_node;
            t.remove(x).unwrap();
            x
        };
        let before_dead = snapshot(&t);
        assert_eq!(t.remove(dead), Err(RemoveError::NotFound));
        assert_eq!(t.remove(NodeId::ROOT), Err(RemoveError::IsRoot));
        assert_eq!(snapshot(&t), before_dead);
        // And the multi-child rejection from before left everything alone
        // except the probe leaf we added and removed (store grew by 2).
        let after = snapshot(&t);
        assert_eq!(after.0, before.0);
        assert_eq!(after.1, before.1);
        t.assert_invariants();
    }

    // -- session cursors -------------------------------------------------

    #[test]
    fn resumed_match_equals_root_walk() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        t.insert(&[1, 2, 9]); // split at depth 2 (above the cursor node)
        let cur = t.cursor_at(end).expect("end node is live");
        assert_eq!(cur.matched_len(), 4);

        for query in [
            vec![1, 2, 3, 4],
            vec![1, 2, 3, 4, 5, 6],
            vec![1, 2, 3, 4, 9],
        ] {
            let resumed = t.match_prefix_from(&cur, &query).expect("cursor is fresh");
            let root = t.match_prefix(&query);
            assert_eq!(resumed, root, "query {query:?}");
        }
    }

    #[test]
    fn resumed_insert_equals_root_insert() {
        // Two trees, same history; one extends via the cursor.
        let mut a: RadixTree<u32> = RadixTree::new();
        let mut b: RadixTree<u32> = RadixTree::new();
        let end_a = a.insert(&[5, 6, 7]).end_node;
        b.insert(&[5, 6, 7]);
        let cur = a.cursor_at(end_a).expect("live");

        let seq = [5, 6, 7, 8, 9];
        let via_cursor = a
            .insert_parts_from(&cur, &seq, &[])
            .expect("cursor is fresh");
        let via_root = b.insert(&seq);
        assert_eq!(via_cursor.end_node, via_root.end_node);
        assert_eq!(via_cursor.split_node, via_root.split_node);
        assert_eq!(via_cursor.new_leaf, via_root.new_leaf);
        assert_eq!(via_cursor.added_tokens, via_root.added_tokens);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.token_count(), b.token_count());
        for (ia, ib) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.path_tokens(ia), b.path_tokens(ib));
        }
        a.assert_invariants();

        // The resumed speculation agrees with the root walk too.
        let spec_c = a.speculate_insert_from(
            &a.cursor_at(via_cursor.end_node).unwrap(),
            &[5, 6, 7, 8, 9, 1],
        );
        let spec_r = a.speculate_insert(&[5, 6, 7, 8, 9, 1]);
        assert_eq!(spec_c.expect("fresh"), spec_r);
    }

    #[test]
    fn stale_generation_is_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3]).end_node;
        let cur = t.cursor_at(end).expect("live");
        t.remove(end).expect("leaf removal");
        // Recycle the slot so the generation tag does the rejecting.
        t.insert(&[7, 8, 9]);
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 4]),
            Err(CursorFault::StaleGeneration)
        );
        assert!(t.cursor_at(end).is_none());
    }

    #[test]
    fn split_under_cursor_is_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        let cur = t.cursor_at(end).expect("live");
        // Splits the cursor node's own edge -> version bump -> fault.
        t.insert(&[1, 2, 3]);
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 4, 5]),
            Err(CursorFault::StructureChanged)
        );
        // A fresh cursor at the same node works again.
        let fresh = t.cursor_at(end).expect("live");
        let m = t
            .match_prefix_from(&fresh, &[1, 2, 3, 4, 5])
            .expect("fresh");
        assert_eq!(m, t.match_prefix(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn leaf_flip_under_cursor_is_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2]).end_node;
        let cur = t.cursor_at(end).expect("live");
        // A deeper insert gives the cursor node its first child: version
        // bump (leaf-status flip), so the old cursor conservatively fails.
        t.insert(&[1, 2, 3]);
        assert_eq!(
            t.resume(&cur, &[1, 2, 3]),
            Err(CursorFault::StructureChanged)
        );
    }

    #[test]
    fn non_extending_queries_are_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        let cur = t.cursor_at(end).expect("live");
        assert_eq!(t.resume(&cur, &[1, 2]), Err(CursorFault::QueryTooShort));
        // Divergence within the resume edge is caught...
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 9, 5]),
            Err(CursorFault::EdgeDivergence)
        );
        // ...and a matching resume edge passes.
        let at = t.resume(&cur, &[1, 2, 3, 4, 5]).expect("matching edge");
        assert_eq!((at.node(), at.depth()), (end, 4));
    }

    #[test]
    fn merge_preserving_path_keeps_cursor_valid() {
        // Removing a single-child ancestor merges its edge into *its*
        // child; any strictly deeper node keeps its path, depth, and
        // version, so a cursor below the merge point stays valid.
        let mut t: RadixTree<u32> = RadixTree::new();
        let top = t.insert(&[1, 2]).end_node;
        t.insert(&[1, 2, 3]);
        let deep = t.insert(&[1, 2, 3, 4, 5]).end_node;
        let cur = t.cursor_at(deep).expect("live");
        // `top` has a single child (the [1,2,3] node), which absorbs its
        // edge; `deep` — one level further down — is untouched.
        t.remove(top).expect("single-child merge");
        let m = t
            .match_prefix_from(&cur, &[1, 2, 3, 4, 5, 6])
            .expect("path-invariant");
        assert_eq!(m, t.match_prefix(&[1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn root_cursor_resumes_from_scratch() {
        let mut t: RadixTree<u32> = RadixTree::new();
        t.insert(&[4, 5, 6]);
        let cur = t.cursor_at(NodeId::ROOT).expect("root is always live");
        assert_eq!(cur.matched_len(), 0);
        let m = t.match_prefix_from(&cur, &[4, 5]).expect("root cursor");
        assert_eq!(m, t.match_prefix(&[4, 5]));
    }

    /// Deterministic token stream for the parts-equivalence sweeps.
    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_trees_equal(a: &RadixTree<u32>, b: &RadixTree<u32>) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.token_count(), b.token_count());
        for (ia, ib) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.path_tokens(ia), b.path_tokens(ib));
        }
    }

    #[test]
    fn parts_insert_equals_single_slice_insert_at_every_seam() {
        // Every split point of every sequence in a small workload: the
        // two-segment insert must be outcome- and structure-identical to
        // the single-slice insert of the concatenation, wherever the seam
        // lands (inside a matched edge, at a node boundary, inside the
        // appended suffix, or at either end).
        let seqs: Vec<Vec<Token>> = (0..6u64)
            .map(|s| {
                (0..24u64)
                    .map(|i| (mix(s * 131 + i / 8) % 5) as Token)
                    .collect()
            })
            .collect();
        for cut_round in 0..4usize {
            let mut single: RadixTree<u32> = RadixTree::new();
            let mut parts: RadixTree<u32> = RadixTree::new();
            for (i, seq) in seqs.iter().enumerate() {
                let cut = (i * 7 + cut_round * 5) % (seq.len() + 1);
                let (head, tail) = seq.split_at(cut);
                let a = single.insert(seq);
                let b = parts.insert_parts(head, tail);
                assert_eq!(a.added_tokens, b.added_tokens, "cut {cut}");
                assert_eq!(a.new_leaf.is_some(), b.new_leaf.is_some(), "cut {cut}");
                assert_eq!(a.split_node.is_some(), b.split_node.is_some(), "cut {cut}");
            }
            assert_trees_equal(&single, &parts);
            parts.assert_invariants();
        }
    }

    #[test]
    fn resumed_parts_insert_equals_root_insert_of_concat() {
        // The session-cache shape: a cursor at the previous turn's end,
        // extended by (new input tokens, decoded output) as two slices.
        let mut a: RadixTree<u32> = RadixTree::new();
        let mut b: RadixTree<u32> = RadixTree::new();
        let end_a = a.insert(&[5, 6, 7]).end_node;
        b.insert(&[5, 6, 7]);
        let cur = a.cursor_at(end_a).expect("live");

        // head extends the cursor's sequence; tail is a separate slice.
        let head = [5, 6, 7, 8, 9];
        let tail = [10, 11];
        let via_cursor = a.insert_parts_from(&cur, &head, &tail).expect("fresh");
        let via_root = b.insert(&[5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(via_cursor.added_tokens, via_root.added_tokens);
        assert_eq!(via_cursor.new_leaf.is_some(), via_root.new_leaf.is_some());
        assert_trees_equal(&a, &b);
        a.assert_invariants();
    }

    #[test]
    fn parts_resume_validates_across_the_seam() {
        // Resume edge [3, 4] straddles the head/tail seam when the query
        // arrives as ([1, 2, 3], [4, 5]): both halves must be checked.
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        t.insert(&[1, 2]); // split so `end`'s edge is [3, 4]
        let cur = t.cursor_at(end).expect("live");
        let ok = t
            .insert_parts_from(&cur, &[1, 2, 3], &[4, 5])
            .expect("seam-straddling resume");
        assert_eq!(ok.added_tokens, 1);
        // Divergence in the tail half of the straddled edge is caught.
        let cur = t.cursor_at(end).expect("live");
        assert!(matches!(
            t.insert_parts_from(&cur, &[1, 2, 3], &[9, 5]),
            Err(CursorFault::EdgeDivergence)
        ));
        // ...and in the head half too.
        let cur = t.cursor_at(end).expect("live");
        assert!(matches!(
            t.insert_parts_from(&cur, &[1, 2, 9], &[4, 5]),
            Err(CursorFault::EdgeDivergence)
        ));
        // Too-short virtual queries are rejected like single-slice ones.
        let cur = t.cursor_at(end).expect("live");
        assert!(matches!(
            t.insert_parts_from(&cur, &[1, 2], &[3]),
            Err(CursorFault::QueryTooShort)
        ));
    }

    // -- the compare kernel ------------------------------------------------

    /// The token-at-a-time loop `common_prefix_len` replaces.
    fn scalar_prefix_len(a: &[Token], b: &[Token]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    proptest::proptest! {
        #[test]
        fn common_prefix_len_equals_the_scalar_reference(
            a in proptest::collection::vec(0u32..3, 0..81),
            b in proptest::collection::vec(0u32..3, 0..81),
            shared in 0usize..=80,
        ) {
            // Force a long common run so whole blocks match, then let the
            // random tails differ (or not) anywhere.
            let mut b = b;
            let n = shared.min(a.len()).min(b.len());
            b[..n].copy_from_slice(&a[..n]);
            proptest::prop_assert_eq!(common_prefix_len(&a, &b), scalar_prefix_len(&a, &b));
            proptest::prop_assert_eq!(common_prefix_len(&b, &a), scalar_prefix_len(&a, &b));
        }
    }

    #[test]
    fn common_prefix_len_finds_a_single_mismatch_at_every_index() {
        for len_a in 0..=80usize {
            let a: Vec<Token> = (0..len_a as Token).map(|t| t * 7 + 1).collect();
            // Equal content, every length relation: b a prefix of a, equal,
            // and a prefix of b.
            for len_b in 0..=80usize {
                let b: Vec<Token> = (0..len_b as Token).map(|t| t * 7 + 1).collect();
                assert_eq!(
                    common_prefix_len(&a, &b),
                    len_a.min(len_b),
                    "{len_a}/{len_b}"
                );
            }
            // One flipped token at every index, block edges (0, 15, 16,
            // 17, 31, 32, ...) included.
            for at in 0..len_a {
                let mut b = a.clone();
                b[at] ^= 1 << 31;
                assert_eq!(
                    common_prefix_len(&a, &b),
                    at,
                    "len {len_a}, mismatch at {at}"
                );
                assert_eq!(common_prefix_len(&a, &b[..=at]), at);
                assert_eq!(scalar_prefix_len(&a, &b), at);
            }
        }
    }

    #[test]
    fn seam_compare_agrees_with_the_joined_compare_at_every_offset() {
        // One 40-token edge starting at depth `p`, compared against queries
        // that match it fully, stop short of it, or differ at a block edge;
        // every seam position from 0 to the query's end, i.e. in front of,
        // inside and around each 16-token block boundary of the edge.
        let seq: Vec<Token> = (100..156).collect();
        for p in [0usize, 5, 16] {
            let mut t = tree();
            if p > 0 {
                t.insert(&seq[..p]);
            }
            let end = t.insert(&seq[..p + 40]).end_node;
            assert_eq!((t.depth(end), t.edge_len(end)), ((p + 40) as u64, 40));
            let cur = t.cursor_at(end).expect("live");
            let mut queries: Vec<Vec<Token>> = vec![seq.clone(), seq[..p + 33].to_vec()];
            for m in [0usize, 1, 15, 16, 17, 31, 32, 39] {
                let mut q = seq.clone();
                q[p + m] = 7;
                queries.push(q);
            }
            for q in &queries {
                let joined = t.shared_edge_len(end, &q[p..]);
                let edge: Vec<Token> = t.edge_parts(end).flatten().copied().collect();
                assert_eq!(joined, scalar_prefix_len(&edge, &q[p..]));
                let whole = t.resume(&cur, q);
                for seam in 0..=q.len() {
                    let (head, tail) = q.split_at(seam);
                    assert_eq!(
                        t.shared_edge_len_parts(end, head, tail, p),
                        joined,
                        "p {p}, seam {seam}, query {q:?}"
                    );
                    assert_eq!(
                        t.resume_parts(&cur, head, tail),
                        whole,
                        "p {p}, seam {seam}"
                    );
                }
            }
        }
    }

    // -- generation horizon --------------------------------------------------

    #[test]
    fn a_slot_whose_generation_would_wrap_is_retired_not_reused() {
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let leaf = t.insert(&[1, 2, 3, 9]).end_node;
        let idx = leaf.index();
        t.remove(leaf).expect("unpinned leaf");
        // Fast-forward the free slot to its last generation; the LIFO free
        // list hands it to the next insert.
        match &mut t.slots[idx] {
            Slot::Free { gen, .. } => *gen = u32::MAX,
            Slot::Occupied { .. } => unreachable!("just removed"),
        }
        let last = t.insert(&[1, 2, 3, 4]).end_node;
        assert_eq!((last.index(), last.generation()), (idx, u32::MAX));
        let cur = t.cursor_at(last).expect("live");
        t.remove(last).expect("unpinned leaf");
        let capacity = t.arena_capacity();
        // Churn: every insert after the retirement takes a fresh or a
        // recycled slot, never the retired one.
        for round in 0..32u32 {
            let id = t.insert(&[50 + round]).end_node;
            assert_ne!(id.index(), idx, "round {round}: retired slot was reused");
            if round % 2 == 0 {
                t.remove(id).expect("fresh leaf");
            }
        }
        assert!(t.arena_capacity() > capacity);
        for gen in [0, 1, u32::MAX] {
            assert!(
                !t.contains(NodeId::new(idx as u32, gen)),
                "gen {gen} resolves"
            );
        }
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 4]),
            Err(CursorFault::StaleGeneration)
        );
        t.assert_invariants();
    }
}
