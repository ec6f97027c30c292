// The arena and the token store: generation tags, zero-copy splits,
// merges that splice label chains, and page reuse.

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

// -- page reuse ---------------------------------------------------------

/// `n` fresh tokens from `base` on: nothing shared with the live tree.
fn fresh(base: Token, n: usize) -> Vec<Token> {
    (base..base + n as Token).collect()
}

/// Inserts and removes one throwaway leaf of `len` fresh tokens
/// (distinct per `round`, so nothing is shared with the live tree).
fn churn_once(t: &mut RadixTree<u32>, round: u32, len: usize) {
    let leaf = t
        .insert(&fresh(1_000_000 + round * len as Token, len))
        .end_node;
    t.remove(leaf)
        .expect("invariant: a fresh unpinned leaf is removable");
}

#[test]
fn a_label_written_across_recycled_pages_is_a_chain() {
    let p = PAGE_TOKENS;
    let mut t = tree();
    // `a` takes page 0 and part of page 1; `b` the rest of page 1 and
    // pages 2 and 3, ending 4 tokens short of page 4.
    let a = t.insert(&fresh(10_000, p + 100)).end_node;
    let b = t.insert(&fresh(20_000, 3 * p - 104)).end_node;
    t.remove(a).unwrap();
    // Page 0 is free; page 1 still holds `b`'s head.
    assert_eq!(t.store_counters().pages, 4);
    let seq = fresh(30_000, 10);
    let c = t.insert(&seq).end_node;
    // Four tokens finish page 3, and the other six go to page 0.
    let parts: Vec<usize> = t.edge_parts(c).map(<[Token]>::len).collect();
    assert_eq!(parts, [4, 6]);
    assert_eq!(t.path_tokens(c), seq);
    let counters = t.store_counters();
    assert_eq!((counters.pages, counters.pages_reused), (4, 1));
    assert_eq!(t.token_store_len(), 4 * p);
    // A cursor resumes onto the chained label, and a query that diverges
    // on the seam is rejected.
    let cur = t.cursor_at(c).expect("live");
    let mut query = seq.clone();
    query.push(7);
    assert_eq!(t.resume(&cur, &query).map(|at| at.node()), Ok(c));
    query[4] = 7;
    assert_eq!(t.resume(&cur, &query), Err(CursorFault::EdgeDivergence));
    assert_eq!(t.match_prefix(&query).matched_len, 4);
    assert!(t.contains(b));
    t.assert_invariants();
}

#[test]
fn page_reuse_preserves_paths_and_outstanding_cursors() {
    let mut t = tree();
    // Dead tokens in front of, between and behind the live labels.
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

    // Leaves of 40 000 tokens come and go: each one's pages are free
    // again for the next, so the store soon stops growing, at one page
    // for the live labels plus what one leaf can span.
    for round in 0..5 {
        churn_once(&mut t, round, 40_000);
    }
    let stored = t.token_store_len();
    assert!(stored <= (2 + 40_000usize.div_ceil(PAGE_TOKENS)) * PAGE_TOKENS);
    for round in 5..20 {
        churn_once(&mut t, round, 40_000);
        t.assert_invariants();
    }
    assert_eq!(t.token_store_len(), stored, "steady churn grew the store");
    assert!(t.store_counters().pages_reused >= 15 * 39);

    for (i, &id) in live.iter().enumerate() {
        assert_eq!(t.path_tokens(id), paths[i], "{id}: path changed");
        assert_eq!(t.structure_version(id), versions[i], "{id}: version moved");
        // Every cursor taken before the churn still resumes, and resumes
        // to the same answer as the root walk.
        let mut query = paths[i].clone();
        query.push(77);
        assert_eq!(t.resume(&cursors[i], &query).map(|at| at.node()), Ok(id));
        assert_eq!(
            t.match_prefix_from(&cursors[i], &query).unwrap(),
            t.match_prefix(&query)
        );
    }
    // Probes stay read-only on a store whose pages were written again.
    let before = (t.len(), t.token_count(), t.token_store_len());
    let _ = t.speculate_insert(&[1, 2, 3, 4, 0]);
    let _ = t.speculate_insert(&[1, 2]);
    assert_eq!((t.len(), t.token_count(), t.token_store_len()), before);
}

#[test]
fn split_pair_stays_adjacent_on_a_recycled_page() {
    let mut t = tree();
    // One label fills page 0 exactly; once it dies, the next insert
    // leaves the full page and takes it straight back.
    let front = t.insert(&fresh(10_000, PAGE_TOKENS)).end_node;
    t.remove(front).unwrap();
    t.insert(&[1, 2, 3, 4, 5, 6]);
    let out = t.insert(&[1, 2, 3, 9]);
    assert_eq!(t.store_counters().pages_reused, 1);
    assert_eq!(t.store_counters().pages, 1);

    // split on a recycled page → merge: the two halves are still one
    // contiguous range, so the merge is offset arithmetic.
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
fn a_page_is_freed_when_its_last_live_token_dies() {
    let p = PAGE_TOKENS;
    let mut t = tree();
    // `a` and `b` share page 1; `c` fills the rest of it and page 2.
    let a = t.insert(&fresh(10_000, p + 10)).end_node;
    let b = t.insert(&fresh(20_000, 10)).end_node;
    let c = t.insert(&fresh(30_000, 2 * p - 20)).end_node;
    assert_eq!(t.store_counters().pages, 3);
    // `a` dies: page 0 is free, page 1 is not (`b` is on it).
    t.remove(a).unwrap();
    t.remove(c).unwrap();
    let d = t.insert(&fresh(40_000, p)).end_node;
    let counters = t.store_counters();
    assert_eq!((counters.pages, counters.pages_reused), (3, 1));
    assert_eq!(t.edge_parts(d).count(), 1, "page 0 alone took `d`");
    // `b` dies too: pages 1 and 2 are free, and neighbours, so `e` lands
    // on them as one range. Only `f` needs a fresh page.
    t.remove(b).unwrap();
    let e = t.insert(&fresh(50_000, 2 * p)).end_node;
    let counters = t.store_counters();
    assert_eq!((counters.pages, counters.pages_reused), (3, 3));
    assert_eq!(parts(&t, e), [fresh(50_000, 2 * p)]);
    t.insert(&fresh(60_000, 10));
    assert_eq!(t.store_counters().pages, 4);
    t.assert_invariants();
}

#[test]
fn steady_churn_never_grows_the_store() {
    let mut t = tree();
    t.insert(&[1, 2, 3]);
    // Leaves of up to 5 000 tokens, one live at a time: once the store
    // has grown to hold the longest, it holds every later one.
    let len = |round: u32| 1 + (round as usize * 7_919) % 5_000;
    let rounds = 300;
    let longest = (0..rounds).map(len).max().unwrap();
    let mut grew_after = 0;
    for round in 0..rounds {
        let before = t.token_store_len();
        churn_once(&mut t, round, len(round));
        if t.token_store_len() > before {
            grew_after = round;
        }
    }
    let counters = t.store_counters();
    // Page 0 holds [1, 2, 3]; a leaf spans at most one page more than
    // its length fills.
    let pages = 1 + longest.div_ceil(PAGE_TOKENS) + 1;
    assert!(
        t.token_store_len() <= pages * PAGE_TOKENS,
        "{} stored tokens for leaves of at most {longest}",
        t.token_store_len()
    );
    assert!(
        grew_after < rounds / 2,
        "the store grew at round {grew_after}"
    );
    assert!(counters.pages_reused > u64::from(rounds), "{counters:?}");
    t.assert_invariants();
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
