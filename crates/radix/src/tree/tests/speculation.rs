// Speculative insertion (paper §4.1): what inserting would do, reported
// without mutating.

#[test]
fn speculation_matches_insert_behaviour() {
    let mut t = tree();
    t.insert(&[1, 2, 3, 4]);

    // Divergence mid-edge: would split.
    let s = t.speculate_insert(&[1, 2, 9]);
    assert_eq!(
        s,
        Speculation {
            matched_len: 2,
            creates_branch_at: Some(2)
        }
    );

    // Pure extension past a leaf: no split.
    let s = t.speculate_insert(&[1, 2, 3, 4, 5]);
    assert_eq!(s.creates_branch_at, None);
    assert_eq!(s.matched_len, 4);

    // Strict prefix ending mid-edge: would split (single-child mid).
    let s = t.speculate_insert(&[1, 2, 3]);
    assert_eq!(s.creates_branch_at, Some(3));

    // Fresh sequence: no split.
    let s = t.speculate_insert(&[8, 8]);
    assert_eq!(
        s,
        Speculation {
            matched_len: 0,
            creates_branch_at: None
        }
    );
}

#[test]
fn speculation_never_mutates() {
    let mut t = tree();
    t.insert(&[1, 2, 3, 4]);
    let before = (t.len(), t.token_count(), t.token_store_len());
    let _ = t.speculate_insert(&[1, 2, 9]);
    let _ = t.speculate_insert(&[1, 2, 3]);
    assert_eq!(
        (t.len(), t.token_count(), t.token_store_len()),
        before,
        "probes must not mutate, not even the backing store"
    );
}

// ------------------------------------------------------------------
// Speculative insertion as the checkpoint trigger (paper §4.1): the
// speculation must fire iff the insert would create a *new* branch
// point, because that signal is exactly what admits an SSM checkpoint
// during prefill. False positives waste cache bytes; false negatives
// forfeit purely-input reuse.
// ------------------------------------------------------------------

#[test]
fn speculation_fires_only_for_new_branch_points() {
    let mut t = tree();
    t.insert(&[1, 2, 3, 4, 5, 6]);

    // Mid-edge divergence: a new intermediate node would be created at
    // exactly the shared depth — checkpoint there.
    let s = t.speculate_insert(&[1, 2, 3, 9, 9]);
    assert_eq!(s.creates_branch_at, Some(3));
    assert_eq!(s.matched_len, 3);

    // Exact duplicate: nothing new would be created — no checkpoint.
    let s = t.speculate_insert(&[1, 2, 3, 4, 5, 6]);
    assert_eq!(s.creates_branch_at, None);
    assert_eq!(s.matched_len, 6);

    // Disjoint sequence: a fresh root child, not a branch point.
    let s = t.speculate_insert(&[7, 7, 7]);
    assert_eq!(s.creates_branch_at, None);
    assert_eq!(s.matched_len, 0);
}

#[test]
fn speculation_silent_at_existing_branch_points() {
    // Once a branch node exists at depth 2, a third sequence diverging
    // at that same depth must NOT re-fire: the node (and its
    // checkpoint) already exist, and inserting would only add a new
    // child edge, not split anything.
    let mut t = tree();
    t.insert(&[1, 2, 3, 4]);
    let out = t.insert(&[1, 2, 5, 6]);
    let branch = out.split_node.expect("second sequence splits");
    assert_eq!(t.depth(branch), 2);

    let s = t.speculate_insert(&[1, 2, 7, 8]);
    assert_eq!(s.matched_len, 2, "shares the prompt");
    assert_eq!(
        s.creates_branch_at, None,
        "divergence at an existing node is not a new branch point"
    );
    // Insert confirms the prediction: no split happens.
    let out = t.insert(&[1, 2, 7, 8]);
    assert!(out.split_node.is_none());
    assert_eq!(t.child_count(branch), 3);
    t.assert_invariants();
}

#[test]
fn speculation_silent_for_pure_extensions() {
    // Conversation growth (history + new turn) extends past a leaf; the
    // branch-point trigger must stay silent — resume reuse is handled by
    // the separate last-decoded-token checkpoint, not this one.
    let mut t = tree();
    t.insert(&[1, 2, 3]);
    let s = t.speculate_insert(&[1, 2, 3, 4, 5]);
    assert_eq!(s.matched_len, 3);
    assert_eq!(s.creates_branch_at, None);
}

#[test]
fn speculation_branch_depth_equals_matched_len_when_present() {
    // The paper checkpoints the state *at the branch depth*; the two
    // fields must agree so the cache checkpoints the right prefix.
    let mut t = tree();
    let seq: Vec<Token> = (0..128).collect();
    t.insert(&seq);
    for cut in [1usize, 17, 63, 127] {
        let mut probe = seq[..cut].to_vec();
        probe.push(999);
        let s = t.speculate_insert(&probe);
        assert_eq!(s.creates_branch_at, Some(cut as u64));
        assert_eq!(s.matched_len, cut as u64);
    }
}

#[test]
fn speculation_on_empty_tree_and_empty_sequence() {
    let t = tree();
    let s = t.speculate_insert(&[1, 2, 3]);
    assert_eq!(s.creates_branch_at, None, "empty tree has no edges");
    let mut t = tree();
    t.insert(&[1, 2, 3]);
    let s = t.speculate_insert(&[]);
    assert_eq!(s.matched_len, 0);
    assert_eq!(s.creates_branch_at, None);
}
