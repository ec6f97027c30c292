// Inserts, matches and removals, and what the accessors report about
// the shape they leave: depths, edges, classes, paths.

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

// A caller's class (5 below) lives as long as the node's shape: leaf
// status and edge length. Its depth and root path never change.

#[test]
fn class_resets_only_on_shape_changes() {
    let mut t = tree();
    let a = t.insert(&[1, 2, 3, 4]);
    let leaf = a.end_node;
    t.set_class(leaf, 5);

    // Splitting the leaf's edge shortens it: the class resets.
    let b = t.insert(&[1, 2, 9, 9]);
    let branch = b.split_node.unwrap();
    assert_eq!(t.class(leaf), 0, "a split must reset the child");
    assert_eq!(t.depth(leaf), 4, "a split leaves the child's depth");

    // Adding a *third* child to the branch leaves every existing node's
    // shape alone.
    t.set_class(leaf, 5);
    t.set_class(branch, 5);
    t.insert(&[1, 2, 7, 7]);
    assert_eq!((t.class(leaf), t.class(branch)), (5, 5));

    // Extending past the leaf gives it its first child: leaf status
    // flipped, the class resets.
    t.insert(&[1, 2, 3, 4, 5, 6]);
    assert_eq!(t.class(leaf), 0);
}

#[test]
fn class_resets_on_merge_and_leaf_loss() {
    let mut t = tree();
    t.insert(&[1, 2, 3, 4]);
    let out = t.insert(&[1, 2]); // split: mid with a single child
    let mid = out.split_node.unwrap();
    let m = t.match_prefix(&[1, 2, 3, 4]);
    let child = m.deepest().unwrap();
    t.set_class(child, 5);
    // Removing the single-child mid merges its edge into the child.
    let removed = t.remove(mid).unwrap();
    assert_eq!(removed.merged_into, Some(child));
    assert_eq!(t.class(child), 0, "absorbing an edge must reset the child");
    assert_eq!(t.path_tokens(child), [1, 2, 3, 4], "a merge keeps the path");

    // Removing a node's last child turns the parent into a leaf: reset.
    let mut t = tree();
    t.insert(&[1, 2]);
    let ext = t.insert(&[1, 2, 3, 4]);
    let parent = t.parent(ext.end_node).unwrap();
    t.set_class(parent, 5);
    t.remove(ext.end_node).unwrap();
    assert_eq!(
        t.class(parent),
        0,
        "losing the last child must reset the parent"
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
