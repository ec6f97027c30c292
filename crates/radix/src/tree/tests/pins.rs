// In-flight pinning: subtree-inclusive refcounts that protect a matched
// path against removal while a request still reads its KVs.

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
#[should_panic(expected = "invariant: unpin without a matching pin")]
fn unbalanced_unpin_panics_in_every_profile() {
    let mut t = tree();
    let leaf = t.insert(&[1, 2, 3]).end_node;
    t.pin(leaf);
    t.unpin(leaf);
    t.unpin(leaf);
}

// The per-slot pinned bitmap: `pinned_bit` reads one bit, no node, and
// must agree with `is_pinned` on every live node.

#[test]
fn a_split_under_a_pin_sets_the_new_nodes_bit() {
    let mut t = tree();
    let leaf = t.insert(&[1, 2, 3, 4]).end_node;
    t.pin(leaf);
    assert!(t.pinned_bit(leaf));
    let out = t.insert(&[1, 2, 9, 9]);
    let mid = out.split_node.expect("split");
    assert!(
        t.pinned_bit(mid),
        "the split head inherits the pin, bit included"
    );
    assert!(!t.pinned_bit(out.new_leaf.expect("new leaf")));
    t.assert_invariants();
    t.unpin(leaf);
    assert!(!t.pinned_bit(mid) && !t.pinned_bit(leaf));
    t.assert_invariants();
}

#[test]
fn the_last_unpin_clears_the_bit() {
    let mut t = tree();
    let leaf = t.insert(&[1, 2, 3]).end_node;
    t.pin(leaf);
    t.pin(leaf);
    t.unpin(leaf);
    assert!(t.pinned_bit(leaf), "one of two pins still holds");
    t.assert_invariants();
    t.unpin(leaf);
    assert!(!t.pinned_bit(leaf));
    t.assert_invariants();
}

#[test]
fn clear_pins_clears_every_bit() {
    let mut t = tree();
    let ids: Vec<NodeId> = (0..100u32).map(|i| t.insert(&[i, 7]).end_node).collect();
    for &id in &ids {
        t.pin(id);
    }
    assert!(ids.iter().all(|&id| t.pinned_bit(id)));
    t.clear_pins();
    assert!(ids.iter().all(|&id| !t.pinned_bit(id)));
    t.assert_invariants();
}

#[test]
fn a_recycled_slot_starts_with_its_bit_clear() {
    let mut t = tree();
    let a = t.insert(&[1]).end_node;
    t.pin(a);
    t.unpin(a);
    t.remove(a).unwrap();
    let b = t.insert(&[2]).end_node;
    assert_eq!(a.index(), b.index(), "slot reused");
    assert!(!t.pinned_bit(b));
    // A slot past the bitmap's end reads clear.
    let far = (0..200u32).map(|i| t.insert(&[1000 + i]).end_node).last();
    assert!(!t.pinned_bit(far.expect("inserted")));
    t.assert_invariants();
}
