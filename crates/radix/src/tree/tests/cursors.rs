// Session cursors and two-slice inserts: resumed walks equal root
// walks, and every stale cursor is rejected.

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
