// Non-mutating probes: `longest_cached_prefix_len` and `probe_tiers`
// agree with `lookup` and move no statistic, recency or tier.

#[test]
fn probe_agrees_with_lookup_on_hybrid_and_transformer() {
    for model in [ModelConfig::hybrid_7b(), ModelConfig::transformer_7b()] {
        let mut c = HybridPrefixCache::builder(model)
            .capacity_bytes(1 << 40)
            .build();
        c.insert_sequence(&seq(0..300), &seq(9000..9032));
        c.insert_sequence(&seq(0..200), &seq(8000..8016));
        for query in [
            seq(0..150),         // mid-edge / no checkpoint
            seq(0..200),         // branch point
            seq(0..300),         // deeper prefix
            seq(50_000..50_010), // complete miss
            Vec::new(),          // empty input
            {
                let mut v = seq(0..300);
                v.extend(seq(9000..9032));
                v.extend(seq(7000..7005)); // conversation resume
                v
            },
        ] {
            let probed = c.longest_cached_prefix_len(&query);
            let looked = c.lookup(&query).tokens_matched;
            assert_eq!(probed, looked, "probe must predict lookup exactly");
        }
    }
}

#[test]
fn probe_is_completely_non_mutating() {
    let mut c = marconi(1 << 40);
    c.insert_sequence(&seq(0..300), &seq(9000..9032));
    let stats_before = *c.stats();
    let nodes_before = c.node_count();
    let states_before = c.ssm_state_count();
    let usage_before = c.usage_bytes();

    // A probe whose insertion *would* split an edge must not fire
    // speculative insertion, and a probe that hits must not bump stats.
    let mut branching = seq(0..200);
    branching.extend(seq(60_000..60_040));
    c.longest_cached_prefix_len(&branching);
    let mut resume = seq(0..300);
    resume.extend(seq(9000..9032));
    c.longest_cached_prefix_len(&resume);

    assert_eq!(*c.stats(), stats_before, "stats must not move");
    assert_eq!(c.node_count(), nodes_before, "no speculative insertion");
    assert_eq!(c.ssm_state_count(), states_before);
    assert_eq!(c.usage_bytes(), usage_before);
}

#[test]
fn probe_does_not_refresh_lru_recency() {
    // Contrast with `hit_refreshes_recency_and_prevents_eviction`:
    // probing A (unlike looking it up) must leave A the LRU victim.
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
    let mut c = sglang(capacity);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A (oldest)
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B

    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    for _ in 0..5 {
        assert!(c.longest_cached_prefix_len(&turn_a) > 0, "A is cached");
    }
    // C forces an eviction: A must still be the victim despite probes.
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));
    assert!(
        !c.lookup(&turn_a).is_hit(),
        "probes must not have refreshed A's recency"
    );
    let mut turn_b = seq(10_000..10_096);
    turn_b.extend(seq(10_500..10_532));
    assert!(c.lookup(&turn_b).is_hit(), "B retained");
}

#[test]
fn probe_tiers_matches_lookup_and_stays_non_mutating() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A → demoted below
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532));
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));

    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    let stats_before = *c.stats();
    let host_before = c.host_usage_bytes();
    let p = c.probe_tiers(&turn_a);
    assert_eq!(*c.stats(), stats_before, "probe must not move stats");
    assert_eq!(c.host_usage_bytes(), host_before);
    assert_eq!(p.tokens, c.longest_cached_prefix_len(&turn_a));
    let r = c.lookup(&turn_a);
    assert_eq!(p.tokens, r.tokens_matched);
    assert_eq!(p.host_tokens, r.host_tokens);
}
