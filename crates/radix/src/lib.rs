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
//!   [`RadixTree::structure_version`] lets callers memoize per-node derived
//!   costs with O(1) staleness checks, and [`RadixTree::set_class`] lets
//!   them band the index by such a cost
//!   ([`RadixTree::candidate_bands`]) — a class is dropped whenever the
//!   version moves, so it lives exactly as long as the memo.
//! * [`RadixTree::remove`] — eviction with edge merging: removing an
//!   intermediate node lets its child *absorb* the edge KVs while the SSM
//!   state is released.
//!
//! Since PR 8 the tree is an *arena engine*: a free-list slab of
//! generation-tagged nodes, sorted-vec children probed by binary search,
//! edge labels as `(offset, len)` slices of one shared token store (O(1)
//! splits) that reclaims dead ranges in place — it never holds more than
//! `max(2^16, 4 × live tokens)`, see [`RadixTree::token_store_len`] — and
//! the candidate set kept as one O(log n) recency index
//! ([`RadixTree::touch`] / [`RadixTree::lru_candidates`]); see
//! `docs/radix-engine.md` for design and measurements. (The pre-refactor
//! oracle engine, retired after two parity-holding PRs, lives on only in
//! git history; `tests/differential.rs` now replays cursor-resumed walks
//! against root walks instead.)
//!
//! PR 10 adds the *session fast path*: [`RadixTree::cursor_at`] takes a
//! generation-tagged [`MatchCursor`] at a node, and
//! [`RadixTree::match_prefix_from`] / [`RadixTree::insert_from`] /
//! [`RadixTree::speculate_insert_from`] resume from it in O(new tokens),
//! falling back to the root walk on any [`CursorFault`]; see
//! `docs/session-fastpath.md`.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod recency;
mod tree;

pub use node::NodeId;
pub use recency::recency_stamp;
pub use tree::{
    CursorFault, InsertOutcome, MatchCursor, PrefixMatch, RadixTree, RemoveError, Removed,
    Speculation,
};

/// A token identifier, as produced by a tokenizer.
///
/// The cache never interprets token values; it only compares them.
pub type Token = u32;
