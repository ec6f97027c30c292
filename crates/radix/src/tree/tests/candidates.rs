// The eviction candidates: the recency index, its bands and tier runs,
// and the transitions that keep it equal to the candidate predicate.

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

#[test]
fn a_leaf_candidate_tree_files_its_leaves_alone() {
    let mut t: RadixTree<u32> = RadixTree::with_leaf_candidates();
    let a = t.insert(&[1, 2, 3, 4]).end_node;
    assert!(t.is_candidate(a));
    // A split node with one child is no candidate here.
    let mid = t.insert(&[1, 2]).split_node.unwrap();
    assert!(!t.is_candidate(mid));
    assert_eq!(t.eviction_candidates().collect::<Vec<_>>(), [a]);
    t.assert_invariants();
    // Its first child ends a leaf's candidacy; a second changes nothing.
    let b = t.insert(&[1, 2, 3, 4, 5]).end_node;
    assert!(!t.is_candidate(a));
    let c = t.insert(&[1, 2, 9]).end_node;
    assert_eq!(t.eviction_candidate_count(), 2);
    assert!(t.eviction_candidates().all(|id| id == b || id == c));
    t.assert_invariants();
    // Down to no child, a node is a candidate again, in class 0 of its
    // tier (the leaf flip bumped its version) and under its old stamp.
    t.touch(a, 7);
    t.set_class(a, TIER_BIT | 3);
    t.remove(b).unwrap();
    assert_eq!(t.lru_candidates().collect::<Vec<_>>(), [(0, c), (7, a)]);
    assert_eq!(t.class(a), TIER_BIT);
    t.assert_invariants();
    // A one-child node is removable but was never filed.
    t.remove(c).unwrap();
    t.remove(a).unwrap();
    assert_eq!(t.eviction_candidates().collect::<Vec<_>>(), [mid]);
    t.assert_invariants();
}

#[test]
fn a_leaf_candidate_tree_merges_an_inner_node_without_an_index_entry() {
    let mut t: RadixTree<u32> = RadixTree::with_leaf_candidates();
    let leaf = t.insert(&[1, 2, 3, 4]).end_node;
    let mid = t.insert(&[1, 2]).end_node;
    let removed = t.remove(mid).unwrap();
    assert_eq!(removed.merged_into, Some(leaf));
    assert_eq!(t.eviction_candidates().collect::<Vec<_>>(), [leaf]);
    assert_eq!(t.edge_len(leaf), 4);
    t.assert_invariants();
}
