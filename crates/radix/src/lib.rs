//! Token radix tree substrate for prefix caching.
//!
//! A radix tree (compressed prefix trie) whose edges are labeled with token
//! sequences of varying length, as used by SGLang-style prefix caches and by
//! Marconi. Each *edge* implicitly carries the KVs of the tokens it
//! represents; per-node metadata (SSM-state presence, access timestamps,
//! FLOP accounting) is the generic payload `D` attached to the child node of
//! each edge.
//!
//! The operations a hybrid-LLM prefix cache needs, beyond a textbook radix
//! tree:
//!
//! * [`RadixTree::speculate_insert`] — the paper's *speculative insertion*
//!   (§4.1): report, without mutating, whether inserting a sequence would
//!   create a new intermediate node (a branch point whose SSM state is worth
//!   checkpointing during prefill).
//! * [`RadixTree::lru_candidates`] — nodes with ≤ 1 child (§4.3), because
//!   multi-child nodes represent hot shared prefixes, oldest first. The set
//!   lives in one `(stamp, id)`-ordered index updated at the tree
//!   mutations that change a child count (O(log n) each), so enumerating it
//!   costs O(candidates) rather than O(arena);
//!   [`RadixTree::set_class`] lets callers band the index by a per-node
//!   cost derived from the node's shape ([`RadixTree::candidate_bands`]) —
//!   a class is dropped whenever [`RadixTree::structure_version`] moves, so
//!   it lives exactly as long as the shape it was derived from. Its top bit,
//!   [`TIER_BIT`], is the exception: it names the node's tier, survives
//!   every version bump, and splits the index into per-tier runs of bands
//!   ([`RadixTree::tier_bands`]).
//! * [`RadixTree::remove`] — eviction with edge merging: removing an
//!   intermediate node lets its child *absorb* the edge KVs while the SSM
//!   state is released. The merge splices the two labels' chains of store
//!   ranges in O(1), so no token is copied.
//!
//! Since PR 8 the tree is an *arena engine*: a free-list slab of
//! generation-tagged nodes, sorted-vec children probed by binary search,
//! edge labels as chains of `(offset, len)` ranges of one shared token
//! store (splits and merges move no token; [`RadixTree::edge_parts`] reads
//! a label's ranges) that only inserts write, in fixed-size pages that are
//! written again once every label on them has died — it never compacts,
//! and it grows only when no page is free, see
//! [`RadixTree::token_store_len`] — and
//! the candidate set kept as one O(log n) recency index
//! ([`RadixTree::touch`] / [`RadixTree::lru_candidates`]); see
//! `docs/radix-engine.md` for design and measurements. (The pre-refactor
//! oracle engine, retired after two parity-holding PRs, lives on only in
//! git history; `tests/differential.rs` now replays cursor-resumed walks
//! against root walks instead.)
//!
//! PR 10 adds the *session fast path*: [`RadixTree::cursor_at`] takes a
//! generation-tagged [`MatchCursor`] at a node, and
//! [`RadixTree::match_prefix_from`] / [`RadixTree::insert_parts_from`] /
//! [`RadixTree::speculate_insert_from`] resume from it in O(new tokens),
//! falling back to the root walk on any [`CursorFault`]; see
//! `docs/session-fastpath.md`. Since PR 25 a validation yields a
//! [`Resumed`] point that [`RadixTree::match_prefix_at`] /
//! [`RadixTree::insert_parts_at`] walk from without re-checking, so a
//! caller running several walks over one sequence validates once.
//!
//! # Examples
//!
//! ```
//! use marconi_radix::RadixTree;
//!
//! let mut tree: RadixTree<bool> = RadixTree::new();
//! tree.insert(&[1, 2, 3, 4]);
//! // A second sequence sharing [1, 2] splits the edge...
//! let spec = tree.speculate_insert(&[1, 2, 9]);
//! assert_eq!(spec.creates_branch_at, Some(2));
//! let outcome = tree.insert(&[1, 2, 9]);
//! let branch = outcome.split_node.expect("edge was split");
//! // ...and the branch node now has two children.
//! assert_eq!(tree.child_count(branch), 2);
//! assert_eq!(tree.depth(branch), 2);
//! ```

mod label;
mod node;
mod recency;
mod store;
mod tree;

pub use node::NodeId;
pub use recency::{recency_stamp, recency_time, TIER_BIT};
pub use tree::{
    CursorFault, InsertOutcome, MatchCursor, PrefixMatch, RadixTree, RemoveError, Removed, Resumed,
    Speculation, StoreCounters,
};

/// A token identifier, as produced by a tokenizer.
///
/// The cache never interprets token values; it only compares them.
pub type Token = u32;
