// The compare kernel: `common_prefix_len` and the seam-aware compare
// against their token-at-a-time references.

/// The token-at-a-time loop `common_prefix_len` replaces.
fn scalar_prefix_len(a: &[Token], b: &[Token]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

proptest::proptest! {
    #[test]
    fn common_prefix_len_equals_the_scalar_reference(
        a in proptest::collection::vec(0u32..3, 0..81),
        b in proptest::collection::vec(0u32..3, 0..81),
        shared in 0usize..=80,
    ) {
        // Force a long common run so whole blocks match, then let the
        // random tails differ (or not) anywhere.
        let mut b = b;
        let n = shared.min(a.len()).min(b.len());
        b[..n].copy_from_slice(&a[..n]);
        proptest::prop_assert_eq!(common_prefix_len(&a, &b), scalar_prefix_len(&a, &b));
        proptest::prop_assert_eq!(common_prefix_len(&b, &a), scalar_prefix_len(&a, &b));
    }
}

#[test]
fn common_prefix_len_finds_a_single_mismatch_at_every_index() {
    for len_a in 0..=80usize {
        let a: Vec<Token> = (0..len_a as Token).map(|t| t * 7 + 1).collect();
        // Equal content, every length relation: b a prefix of a, equal,
        // and a prefix of b.
        for len_b in 0..=80usize {
            let b: Vec<Token> = (0..len_b as Token).map(|t| t * 7 + 1).collect();
            assert_eq!(
                common_prefix_len(&a, &b),
                len_a.min(len_b),
                "{len_a}/{len_b}"
            );
        }
        // One flipped token at every index, block edges (0, 15, 16,
        // 17, 31, 32, ...) included.
        for at in 0..len_a {
            let mut b = a.clone();
            b[at] ^= 1 << 31;
            assert_eq!(
                common_prefix_len(&a, &b),
                at,
                "len {len_a}, mismatch at {at}"
            );
            assert_eq!(common_prefix_len(&a, &b[..=at]), at);
            assert_eq!(scalar_prefix_len(&a, &b), at);
        }
    }
}

#[test]
fn seam_compare_agrees_with_the_joined_compare_at_every_offset() {
    // One 40-token edge starting at depth `p`, compared against queries
    // that match it fully, stop short of it, or differ at a block edge;
    // every seam position from 0 to the query's end, i.e. in front of,
    // inside and around each 16-token block boundary of the edge.
    let seq: Vec<Token> = (100..156).collect();
    for p in [0usize, 5, 16] {
        let mut t = tree();
        if p > 0 {
            t.insert(&seq[..p]);
        }
        let end = t.insert(&seq[..p + 40]).end_node;
        assert_eq!((t.depth(end), t.edge_len(end)), ((p + 40) as u64, 40));
        let cur = t.cursor_at(end).expect("live");
        let mut queries: Vec<Vec<Token>> = vec![seq.clone(), seq[..p + 33].to_vec()];
        for m in [0usize, 1, 15, 16, 17, 31, 32, 39] {
            let mut q = seq.clone();
            q[p + m] = 7;
            queries.push(q);
        }
        for q in &queries {
            let joined = t.shared_edge_len(end, &q[p..]);
            let edge: Vec<Token> = t.edge_parts(end).flatten().copied().collect();
            assert_eq!(joined, scalar_prefix_len(&edge, &q[p..]));
            let whole = t.resume(&cur, q);
            for seam in 0..=q.len() {
                let (head, tail) = q.split_at(seam);
                assert_eq!(
                    t.shared_edge_len_parts(end, head, tail, p),
                    joined,
                    "p {p}, seam {seam}, query {q:?}"
                );
                assert_eq!(
                    t.resume_parts(&cur, head, tail),
                    whole,
                    "p {p}, seam {seam}"
                );
            }
        }
    }
}
