// `remove`'s rejection paths leave the tree untouched.

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
