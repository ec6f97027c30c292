//! Property-based tests: the radix tree against a naive reference model.
//!
//! The reference model is a plain set of inserted sequences. From it we can
//! derive ground truth for the longest stored prefix of any query and for
//! the number of distinct prefixes (= tree token count).

use marconi_radix::{NodeId, RadixTree, RemoveError, Token, TIER_BIT};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Longest prefix of `query` that is a prefix of any sequence in `seqs`.
fn reference_longest_prefix(seqs: &[Vec<Token>], query: &[Token]) -> usize {
    seqs.iter()
        .map(|s| {
            s.iter()
                .zip(query.iter())
                .take_while(|(a, b)| a == b)
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// Number of distinct non-empty prefixes across all sequences.
fn reference_distinct_prefixes(seqs: &[Vec<Token>]) -> usize {
    let mut set: BTreeSet<&[Token]> = BTreeSet::new();
    for s in seqs {
        for end in 1..=s.len() {
            set.insert(&s[..end]);
        }
    }
    set.len()
}

/// Sequences drawn from a tiny alphabet to force heavy prefix sharing.
fn seq_strategy() -> impl Strategy<Value = Vec<Token>> {
    prop::collection::vec(0u32..4, 1..24)
}

fn seqs_strategy() -> impl Strategy<Value = Vec<Vec<Token>>> {
    prop::collection::vec(seq_strategy(), 1..24)
}

proptest! {
    #[test]
    fn match_agrees_with_reference(seqs in seqs_strategy(), query in seq_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        tree.assert_invariants();
        let got = tree.match_prefix(&query).matched_len as usize;
        let want = reference_longest_prefix(&seqs, &query);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn token_count_equals_distinct_prefixes(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        prop_assert_eq!(tree.token_count() as usize, reference_distinct_prefixes(&seqs));
    }

    #[test]
    fn inserted_sequences_fully_match(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        for s in &seqs {
            let m = tree.match_prefix(s);
            prop_assert_eq!(m.matched_len as usize, s.len());
            prop_assert!(!m.ends_mid_edge);
        }
    }

    #[test]
    fn speculation_predicts_insert(seqs in seqs_strategy(), next in seq_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        let spec = tree.speculate_insert(&next);
        let outcome = tree.insert(&next);
        match spec.creates_branch_at {
            Some(depth) => {
                let mid = outcome.split_node.expect("speculation promised a split");
                prop_assert_eq!(tree.depth(mid), depth);
            }
            None => prop_assert!(outcome.split_node.is_none()),
        }
        prop_assert_eq!(tree.depth(outcome.end_node), next.len() as u64);
        tree.assert_invariants();
    }

    #[test]
    fn random_removals_preserve_invariants(
        seqs in seqs_strategy(),
        victims in prop::collection::vec(any::<prop::sample::Index>(), 1..32),
    ) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        for victim in victims {
            let candidates: Vec<NodeId> = tree.eviction_candidates().collect();
            if candidates.is_empty() {
                break;
            }
            let id = candidates[victim.index(candidates.len())];
            tree.remove(id).expect("candidate is removable");
            tree.assert_invariants();
        }
    }

    #[test]
    fn removing_everything_empties_the_tree(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        // Leaf-first removal must be able to drain any tree.
        while !tree.is_empty() {
            let leaf = tree
                .node_ids()
                .find(|&id| tree.is_leaf(id))
                .expect("non-empty tree has a leaf");
            tree.remove(leaf).unwrap();
        }
        prop_assert_eq!(tree.token_count(), 0);
        tree.assert_invariants();
    }

    #[test]
    fn candidate_index_matches_scan_recompute(
        seqs in seqs_strategy(),
        ops in prop::collection::vec((0u32..5, any::<prop::sample::Index>(), 0u64..6), 1..64),
    ) {
        // Interleave inserts, candidate removals, touches, pin/unpin pairs
        // and `set_class` calls (half of them in the upper tier), and after
        // every op assert the one candidate index equals a from-scratch
        // recompute: the sorted `(class, stamp, id)` scan of non-root
        // ≤ 1-child nodes. Stamps and classes come from tiny ranges to force
        // ties and shared bands.
        let mut tree: RadixTree<()> = RadixTree::new();
        let mut held: Vec<NodeId> = Vec::new();
        let mut next_seq = 0usize;
        for (op, pick, stamp) in ops {
            let shape = |tree: &RadixTree<()>, id| (tree.is_leaf(id), tree.edge_len(id));
            let before: Vec<(NodeId, (bool, u64), u16)> = tree
                .node_ids()
                .map(|id| (id, shape(&tree, id), tree.class(id)))
                .collect();
            let mut reclassed = None;
            let mut inserted = None;
            match op {
                1 if !tree.is_empty() => {
                    let candidates: Vec<NodeId> = tree.eviction_candidates().collect();
                    let id = candidates[pick.index(candidates.len())];
                    match tree.remove(id) {
                        Ok(_) => {}
                        Err(RemoveError::Pinned) => prop_assert!(tree.is_pinned(id)),
                        Err(e) => panic!("candidate {id} is not removable: {e}"),
                    }
                }
                2 if !tree.is_empty() => {
                    let ids: Vec<NodeId> = tree.node_ids().collect();
                    tree.touch(ids[pick.index(ids.len())], stamp);
                }
                3 if !tree.is_empty() => {
                    // Pins stay on live nodes, so an id held here never
                    // goes stale; release the oldest every other time.
                    if stamp % 2 == 0 || held.is_empty() {
                        let ids: Vec<NodeId> = tree.node_ids().collect();
                        let id = ids[pick.index(ids.len())];
                        tree.pin(id);
                        held.push(id);
                    } else {
                        tree.unpin(held.remove(0));
                    }
                }
                4 if !tree.is_empty() => {
                    // Any live node, candidate or not: a branch node keeps
                    // the class for when it becomes a candidate again.
                    let ids: Vec<NodeId> = tree.node_ids().collect();
                    let id = ids[pick.index(ids.len())];
                    let class = (stamp % 4) as u16 | if stamp >= 3 { TIER_BIT } else { 0 };
                    tree.set_class(id, class);
                    prop_assert_eq!(tree.class(id), class);
                    reclassed = Some(id);
                }
                _ => {
                    inserted = Some(tree.insert(&seqs[next_seq % seqs.len()]));
                    next_seq += 1;
                }
            }
            // A class lives exactly as long as the node's shape: an op
            // that changes its leaf status or edge length lands it in
            // class 0 of its tier, and nothing else (bar the `set_class`
            // above) moves a class — not a touch, not a pin, not leaving
            // and re-entering the candidate set.
            for (id, was, class) in before {
                if !tree.contains(id) || reclassed == Some(id) {
                    continue;
                }
                if shape(&tree, id) == was {
                    prop_assert_eq!(tree.class(id), class, "{} changed class, same shape", id);
                } else {
                    prop_assert_eq!(
                        tree.class(id),
                        class & TIER_BIT,
                        "{} kept a class, or lost its tier, across a shape change",
                        id
                    );
                }
            }
            // New nodes: a leaf starts in class 0, a split's new node in
            // class 0 of the tier of the child it split off.
            if let Some(out) = inserted {
                if let Some(leaf) = out.new_leaf {
                    prop_assert_eq!(tree.class(leaf), 0);
                }
                if let Some(mid) = out.split_node {
                    let child = tree
                        .children(mid)
                        .find(|&c| Some(c) != out.new_leaf)
                        .expect("a split node keeps the child it split off");
                    prop_assert_eq!(tree.class(mid), tree.class(child) & TIER_BIT);
                }
            }
            let mut scanned: Vec<(u16, u64, NodeId)> = tree
                .node_ids()
                .filter(|&id| tree.child_count(id) <= 1)
                .map(|id| (tree.class(id), tree.stamp(id), id))
                .collect();
            scanned.sort_unstable();
            let indexed: Vec<(u16, u64, NodeId)> = tree
                .candidate_bands()
                .flat_map(|(class, band)| band.map(move |(stamp, id)| (class, stamp, id)))
                .collect();
            prop_assert_eq!(&indexed, &scanned, "index drifted from scan recompute");
            // The flat views walk the same bands in the same order, and the
            // bands read the same from the back.
            prop_assert!(tree.lru_candidates().eq(scanned.iter().map(|&(_, s, id)| (s, id))));
            prop_assert_eq!(tree.eviction_candidate_count(), scanned.len());
            prop_assert!(tree.eviction_candidates().eq(scanned.iter().map(|&(_, _, id)| id)));
            let reversed: Vec<(u16, u64, NodeId)> = tree
                .candidate_bands()
                .rev()
                .flat_map(|(class, band)| band.rev().map(move |(stamp, id)| (class, stamp, id)))
                .collect();
            prop_assert!(reversed.iter().eq(scanned.iter().rev()));
            // Each tier's bands are exactly its candidates, lower tier first.
            let by_tier: Vec<(u16, u64, NodeId)> = [0, TIER_BIT]
                .into_iter()
                .flat_map(|tier| tree.tier_bands(tier))
                .flat_map(|(class, band)| band.map(move |(stamp, id)| (class, stamp, id)))
                .collect();
            prop_assert_eq!(&by_tier, &scanned, "tier runs drifted from the scan");
            let pinned = tree.node_ids().filter(|&id| tree.is_pinned(id)).count();
            prop_assert_eq!(tree.pinned_count(), pinned);
            prop_assert_eq!(tree.pinned_ids().count(), pinned);
            tree.assert_invariants();
        }
        for id in held {
            tree.unpin(id);
        }
        prop_assert_eq!(tree.pinned_count(), 0);
        tree.assert_invariants();
    }

    #[test]
    fn merge_on_remove_keeps_sequences_reachable(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        // Remove every single-child intermediate node (structural squash).
        loop {
            let target = tree
                .node_ids()
                .find(|&id| tree.child_count(id) == 1);
            match target {
                Some(id) => {
                    tree.remove(id).unwrap();
                }
                None => break,
            }
        }
        tree.assert_invariants();
        // Full sequences still match end to end.
        for s in &seqs {
            prop_assert_eq!(tree.match_prefix(s).matched_len as usize, s.len());
        }
    }
}
