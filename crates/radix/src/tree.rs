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
//!   them, and neither moves a token; the store is cut into fixed-size
//!   pages with live counts, and a page whose labels have all died is
//!   written again, so no token ever moves (see [`RadixTree`]);
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
use crate::store::{TokenStore, PAGE_TOKENS};
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
///    candidate iff it is a live non-root node with `child_count(n) ≤ 1`,
///    or, in a tree built by
///    [`with_leaf_candidates`](RadixTree::with_leaf_candidates), a leaf —
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
///    The per-slot pinned bitmap ([`pinned_bit`](RadixTree::pinned_bit))
///    has exactly those nodes' slots set. Pins never touch the candidate
///    index: a pinned candidate keeps its entry and is skipped by whoever
///    reads it.
///
/// # The token store
///
/// Inserts write their un-shared suffix to one shared store, and inserts
/// are the only operation that writes it: an edge label is a chain of
/// store ranges, so a split cuts the chain and a merge splices two chains
/// (coalescing the seam when the two ranges are adjacent, as a split pair
/// is), both in place. The store is cut into pages of 1 024 tokens, each
/// with a count of its live tokens. A removal lowers the counts under the
/// dead label's ranges, and a page at 0 joins a free list. An insert fills
/// the current page, then free pages, lowest first, then fresh pages at
/// the end; a label whose tokens land on pages that are not neighbours is
/// a chain of one range per run of neighbouring pages. So no token ever
/// moves, and the store grows only when no page is free: at that moment
/// every page holds a live token, and the `r` live ranges overlap at most
/// `live / 1024 + 2r` pages. Hence the **store bound**, which holds after
/// every `insert*` / `remove`:
///
/// ```text
/// token_store_len() ≤ peak_live + 2 × 1024 × peak_ranges
/// ```
///
/// with both peaks taken at the end of the inserts that wrote the store
/// ([`StoreCounters`]). Labels are the only holders of store offsets —
/// [`NodeId`]s and [`MatchCursor`]s carry none — so where a label's tokens
/// land is invisible to every caller.
/// [`store_counters`](RadixTree::store_counters) counts the store's work
/// exactly.
#[derive(Debug, Clone)]
pub struct RadixTree<D> {
    slots: Vec<Slot<D>>,
    /// Shared backing store for every edge label, in pages.
    store: TokenStore,
    /// Every range of a chained label past its first.
    links: Links,
    /// Tokens the store grew by inside merges ([`StoreCounters`]).
    merge_copied: u64,
    /// Most live tokens, and most live label ranges, at the end of an
    /// insert that wrote the store ([`StoreCounters`]).
    peak_live: u64,
    peak_ranges: u64,
    free_head: Option<u32>,
    node_count: usize,
    token_count: u64,
    /// The eviction candidates (non-root nodes with at most
    /// `candidate_children` children), one `(stamp, id)`-ordered band per
    /// class. `insert_at_node`/`split_edge`/
    /// `remove` apply the exact membership transition at each site that
    /// changes a child count, so the eviction hot path never re-scans the
    /// arena.
    lru: RecencyIndex,
    /// The most children a candidate may have: 1, or 0 when only leaves
    /// are candidates.
    candidate_children: usize,
    /// Number of nodes with `pin_count > 0`.
    pinned_nodes: usize,
    /// One bit per arena slot, set while the slot's node has
    /// `pin_count > 0`: what [`pinned_bit`](RadixTree::pinned_bit) reads
    /// without touching the node. Words past the end read as clear.
    pinned_slots: Vec<u64>,
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

/// Work the token store has done, and the peaks its bound is stated in,
/// as exact counts ([`RadixTree::store_counters`]). Machine-independent,
/// so two commits replaying one trace can be compared for equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Tokens inserts wrote.
    pub appended: u64,
    /// Tokens the store grew by inside merges. Merges splice labels, so
    /// this stays 0; a merge that copied would show here.
    pub merge_copied: u64,
    /// Pages of 1 024 tokens the store holds: its high-water mark, since
    /// it never shrinks.
    pub pages: u64,
    /// Free pages taken back to be written again.
    pub pages_reused: u64,
    /// Most live tokens the tree has held.
    pub peak_live: u64,
    /// Most live label ranges (labels plus their chain links) at the end
    /// of an insert that wrote the store, the only moments it can grow.
    pub peak_ranges: u64,
    /// Slots of the label-link arena, live or free: its high-water mark.
    pub link_slots: u64,
}

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
/// seam-aware check behind [`RadixTree::insert_parts_from`]), by a
/// finished walk ([`PrefixMatch::resume_point`],
/// [`InsertOutcome::end_point`]), or as [`Resumed::ROOT`], so
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
    /// The root at depth 0: the start of every root walk, valid for every
    /// sequence in every tree.
    pub const ROOT: Resumed = Resumed {
        node: NodeId::ROOT,
        depth: 0,
    };

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
    /// `end_node` and its depth; see
    /// [`end_point`](InsertOutcome::end_point).
    end_at: Resumed,
}

impl InsertOutcome {
    /// The end node as a [`Resumed`] point: its root path is the inserted
    /// sequence, so a later walk over that sequence extended — the next
    /// block of it, say — can start there.
    pub fn end_point(&self) -> Resumed {
        self.end_at
    }
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
            store: TokenStore::default(),
            links: Links::default(),
            merge_copied: 0,
            peak_live: 0,
            peak_ranges: 0,
            free_head: None,
            node_count: 0,
            token_count: 0,
            lru: RecencyIndex::default(),
            candidate_children: 1,
            pinned_nodes: 0,
            pinned_slots: Vec::new(),
            #[cfg(any(test, feature = "fault-injection"))]
            split_off_by_one: false,
            #[cfg(any(test, feature = "fault-injection"))]
            seam_short: false,
        }
    }

    /// Creates an empty tree whose eviction candidates are its leaves
    /// alone, for a cache that only ever evicts leaves: the recency index
    /// then holds no entry such a cache would read and skip.
    #[must_use]
    pub fn with_leaf_candidates() -> Self {
        RadixTree {
            candidate_children: 0,
            ..Self::new()
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
                    end_at: Resumed {
                        node: cur,
                        depth: total as u64,
                    },
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
                    // The suffix is written once to the shared store; the
                    // leaf's edge is the ranges it landed on.
                    let added = (total - pos) as u64;
                    let edge = self.store.push(&mut self.links, head, tail, pos);
                    let depth = self.node(cur).depth + added;
                    let leaf = self.alloc(Node {
                        parent: Some(cur),
                        edge,
                        children: ChildSet::default(),
                        depth,
                        version: 0,
                        pin_count: 0,
                        stamp: 0,
                        class: 0,
                        data: D::default(),
                    });
                    let children_before = self.node(cur).children.len();
                    // One child past the candidate bound ends `cur`'s
                    // candidacy: its second child, or with leaf candidates
                    // its first.
                    if children_before == self.candidate_children && cur != NodeId::ROOT {
                        let c = self.node(cur);
                        self.lru.remove(c.class, c.stamp, cur);
                    }
                    self.node_mut(cur).children.insert(next_tok, leaf);
                    if children_before == 0 {
                        // `cur`'s leaf status flipped: structural caches on
                        // it (freed bytes) are stale.
                        self.bump(cur);
                    }
                    // The new leaf is a candidate (class 0, stamp 0).
                    self.lru.insert(0, 0, leaf);
                    self.token_count += added;
                    self.peak_live = self.peak_live.max(self.token_count);
                    self.peak_ranges = self.peak_ranges.max(self.live_ranges());
                    return InsertOutcome {
                        end_node: leaf,
                        split_node,
                        new_leaf: Some(leaf),
                        added_tokens: added,
                        end_at: Resumed { node: leaf, depth },
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
        if inherited_pins > 0 {
            self.pinned_nodes += 1;
            self.set_pinned_bit(mid, true);
        }
        {
            let c = self.node_mut(child);
            c.edge = tail;
            c.parent = Some(mid);
        }
        // The child's edge shortened (and its parent changed): bump so
        // its class, derived from its shape, resets.
        self.bump(child);
        let first = self.store[head.first.off as usize];
        self.node_mut(parent).children.insert(first, mid);
        // `mid` replaces `child` under `parent`, so the parent's child count
        // (and candidacy) is unchanged; `mid` itself has exactly one child,
        // so it is a candidate (class 0 of the child's tier, stamp 0) unless
        // only leaves are.
        if self.is_candidate(mid) {
            self.lru.insert(tier, 0, mid);
        }
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
    /// child (no child in a tree of leaf candidates). The recency index
    /// holds exactly the nodes this is true of; this reads the node alone.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn is_candidate(&self, id: NodeId) -> bool {
        id != NodeId::ROOT && self.node(id).children.len() <= self.candidate_children
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
    /// [`token_count`](RadixTree::token_count) plus the dead tokens on
    /// pages not yet written again. It never shrinks, and it is at most
    /// `peak_live + 2 × 1024 × peak_ranges` (the store bound; see the
    /// [type docs](RadixTree#the-token-store)).
    #[must_use]
    pub fn token_store_len(&self) -> usize {
        self.store.len()
    }

    /// Live label ranges: each live non-root node's first range, plus the
    /// chain links past it.
    fn live_ranges(&self) -> u64 {
        (self.node_count + self.links.live()) as u64
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
    /// label that merges have joined, or that an insert wrote across pages
    /// that are not neighbours, is several slices; nothing is
    /// materialized.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn edge_parts(&self, id: NodeId) -> impl Iterator<Item = &[Token]> + '_ {
        self.links
            .parts(self.node(id).edge)
            .map(|part| &self.store[part.range()])
    }

    /// Work the token store has done so far, and its peaks: tokens
    /// inserts wrote, tokens merges copied (none: merges splice), pages
    /// held and reused, the peak live tokens and ranges, and the
    /// label-link arena's slots.
    #[must_use]
    pub fn store_counters(&self) -> StoreCounters {
        StoreCounters {
            appended: self.store.appended,
            merge_copied: self.merge_copied,
            pages: self.store.pages() as u64,
            pages_reused: self.store.pages_reused,
            peak_live: self.peak_live,
            peak_ranges: self.peak_ranges,
            link_slots: self.links.slots() as u64,
        }
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

    /// Nodes eligible for eviction: live non-root nodes with ≤ 1 child
    /// (leaves, in a tree built by
    /// [`with_leaf_candidates`](RadixTree::with_leaf_candidates)).
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
    /// one tier never reads an entry of the other. Each band knows its
    /// length, so a tier's candidate count is O(bands).
    pub fn tier_bands(
        &self,
        tier: u16,
    ) -> impl DoubleEndedIterator<
        Item = (
            u16,
            impl DoubleEndedIterator<Item = (u64, NodeId)> + ExactSizeIterator + Clone + '_,
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
            if first {
                self.pinned_nodes += 1;
                self.set_pinned_bit(cur, true);
            }
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
            if now_free {
                self.pinned_nodes -= 1;
                self.set_pinned_bit(cur, false);
            }
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

    /// [`is_pinned`](RadixTree::is_pinned) from the per-slot pinned
    /// bitmap: one bit of a dense array, no node read. Equal to
    /// `is_pinned(id)` for every live `id` — an entry of the candidate
    /// index, say. The slot is not checked against the id's generation, so
    /// a stale id reads whatever node now holds its slot.
    #[must_use]
    pub fn pinned_bit(&self, id: NodeId) -> bool {
        let slot = id.index();
        self.pinned_slots
            .get(slot / 64)
            .is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    /// Sets or clears `id`'s slot in the pinned bitmap, growing it on
    /// demand. A slot is freed only unpinned ([`remove`](RadixTree::remove)
    /// refuses a pinned node), so a recycled slot starts clear.
    fn set_pinned_bit(&mut self, id: NodeId, pinned: bool) {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.pinned_slots.len() {
            self.pinned_slots.resize(word + 1, 0);
        }
        if pinned {
            self.pinned_slots[word] |= bit;
        } else {
            self.pinned_slots[word] &= !bit;
        }
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
        self.pinned_slots.fill(0);
    }

    /// Structure version of a node: bumped whenever the node's leaf status,
    /// edge length, or depth changes (the inputs to Marconi's per-node
    /// freed-bytes / FLOP-efficiency scores). Every bump also returns the
    /// node to class 0 of its tier ([`set_class`](RadixTree::set_class)),
    /// so a class derived from those inputs never outlives them; callers
    /// holding per-node state derived from them can compare versions to
    /// detect staleness in O(1), as a match cursor does.
    ///
    /// Versions restart at 0 when an arena slot is recycled.
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
        self.match_from(Resumed::ROOT, query)
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
    ///   ranges become one, otherwise the child's label gains a seam.
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

        // A removable node has ≤ 1 child, so it is a candidate, unless it
        // has one and only leaves are.
        if self.is_candidate(id) {
            let node = self.node(id);
            self.lru.remove(node.class, node.stamp, id);
        }
        match child {
            None => {
                let node = self.free(id);
                if parent != NodeId::ROOT && self.node(parent).children.len() == 1 {
                    // The parent is about to become a leaf: its freed-bytes
                    // shape changes. Bumped while its candidacy still
                    // reflects its one child.
                    self.bump(parent);
                }
                self.node_mut(parent).children.remove(first_tok);
                if parent != NodeId::ROOT {
                    let p = self.node(parent);
                    if p.children.len() == self.candidate_children {
                        // Down to the candidate bound: a candidate again (or
                        // for the first time), in the band its class names
                        // (no version moved while it was out, or the bump
                        // above just reset it).
                        self.lru.insert(p.class, p.stamp, parent);
                    }
                }
                self.token_count -= u64::from(node.edge.len);
                self.store.release(self.links.parts(node.edge));
                self.links.release(node.edge);
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
                self.merge_copied += (self.store.len() - stored) as u64;
                let c = self.node_mut(child);
                c.parent = Some(parent);
                c.edge = merged;
                // The child's edge grew (and its parent changed): bump so
                // its class, derived from its shape, resets. Its child count — and
                // the parent's — are unchanged, so candidacies hold.
                self.bump(child);
                self.node_mut(parent).children.insert(first_tok, child);
                Ok(Removed {
                    data: node.data,
                    freed_tokens: 0,
                    merged_into: Some(child),
                })
            }
        }
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

    /// Enables the injected page-count fault: a removal lowers each live
    /// count one token short, so pages whose labels have all died stay
    /// off the free list and the store grows where it would have reused
    /// them. For the differential harness's self-test; compiled like
    /// [`debug_set_split_off_by_one`](RadixTree::debug_set_split_off_by_one).
    #[doc(hidden)]
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn debug_set_page_count_short(&mut self, enabled: bool) {
        self.store.count_short = enabled;
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
                assert_eq!(
                    self.pinned_bit(id),
                    n.pin_count > 0,
                    "{id}: pinned bitmap drift (pin_count = {})",
                    n.pin_count
                );
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
                assert!(!self.pinned_bit(id), "root's pinned bit is set");
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
        // A page's live count is only its labels' tokens while live label
        // ranges are pairwise disjoint.
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            let ((off, len, id), (next_off, _, next_id)) = (pair[0], pair[1]);
            assert!(
                off + len <= next_off,
                "{id} and {next_id}: edge labels overlap in the token store"
            );
        }
        self.links.assert_accounting(links);
        self.store.assert_accounting(
            ranges
                .iter()
                .map(|&(off, len, _)| EdgeRef::new(off as usize, len as usize)),
        );
        let len = self.store.len() as u64;
        let bound = self.peak_live + 2 * PAGE_TOKENS as u64 * self.peak_ranges;
        assert!(
            len <= bound,
            "store bound: {len} stored tokens, peaks {} live and {} ranges",
            self.peak_live,
            self.peak_ranges
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
        // Every live node's bit matches its count (above), so equal totals
        // leave no bit set on a free slot.
        let bits: usize = self
            .pinned_slots
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum();
        assert_eq!(bits, self.pinned_nodes, "pinned bitmap holds a free slot");
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
mod tests;
