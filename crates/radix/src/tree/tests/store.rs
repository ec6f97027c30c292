// The arena and the token store: generation tags, zero-copy splits,
// merges that splice label chains, and store reclamation.

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
    t.remove(leaf)
        .expect("invariant: a fresh unpinned leaf is removable");
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
