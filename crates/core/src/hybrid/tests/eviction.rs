// Eviction: LRU order, the FLOP-aware score and its banded walk, GDSF,
// the §4.3 ablations, recency refresh on hits, and the device bound.

#[test]
fn eviction_keeps_usage_within_capacity() {
    let m = ModelConfig::hybrid_7b();
    // Room for roughly two 128-token sequences with one state each.
    let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
    let mut c = sglang(capacity);
    for i in 0..10u32 {
        let input = seq(i * 10_000..i * 10_000 + 96);
        let output = seq(i * 10_000 + 500..i * 10_000 + 532);
        c.insert_sequence(&input, &output);
        assert!(c.usage_bytes() <= capacity, "iteration {i}");
    }
    assert!(c.stats().evictions > 0);
}

#[test]
fn lru_evicts_oldest_sequence_first() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
    let mut c = sglang(capacity);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A (oldest)
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B

    // C forces eviction of A.
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));
    let mut turn_b = seq(10_000..10_096);
    turn_b.extend(seq(10_500..10_532));
    assert!(c.lookup(&turn_b).is_hit(), "B retained");
    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    assert!(!c.lookup(&turn_a).is_hit(), "A evicted");
}

#[test]
fn hit_refreshes_recency_and_prevents_eviction() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
    let mut c = sglang(capacity);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B

    // Touch A so B becomes the LRU victim.
    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    assert!(c.lookup(&turn_a).is_hit());
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // C
    assert!(c.lookup(&turn_a).is_hit(), "A survived after refresh");
}

#[test]
fn flop_aware_trades_short_for_long_sequences() {
    // Under contention, high α retains the long sequence even when the
    // short one is more recent — the paper's core eviction tradeoff.
    let m = ModelConfig::hybrid_7b();
    let long_input = seq(0..4096);
    let short_input = seq(100_000..100_128);
    let fits_one_long = 4200 * m.kv_bytes_per_token() + 3 * m.ssm_checkpoint_bytes();

    let run = |policy: EvictionPolicy| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(fits_one_long)
            .policy(policy)
            .build();
        c.insert_sequence(&long_input, &seq(200_000..200_032));
        // A burst of fresh short sequences applies pressure.
        for i in 0..4u32 {
            c.insert_sequence(
                &seq(300_000 + i * 1000..300_000 + i * 1000 + 128),
                &seq(400_000 + i * 1000..400_000 + i * 1000 + 16),
            );
        }
        let mut long_turn2 = long_input.clone();
        long_turn2.extend(seq(200_000..200_032));
        let _ = c.lookup(&short_input);
        c.lookup(&long_turn2).tokens_matched
    };

    let lru_hit = run(EvictionPolicy::Lru);
    let flop_hit = run(EvictionPolicy::FlopAware { alpha: 8.0 });
    assert!(
        flop_hit > lru_hit,
        "flop-aware ({flop_hit}) must retain the long prefix; lru got {lru_hit}"
    );
}

#[test]
fn scored_picks_band_the_index_and_lru_picks_never_do() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 600 * m.kv_bytes_per_token() + 8 * m.ssm_checkpoint_bytes();
    let run = |policy: EvictionPolicy| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .policy(policy)
            .build();
        for i in 0..12u32 {
            let len = 32 << (i % 4);
            c.insert_sequence(&seq(i * 10_000..i * 10_000 + len), &seq(900_000..900_008));
        }
        assert!(c.stats().evictions > 0);
        c
    };
    let lru = run(EvictionPolicy::Lru);
    assert!(lru.tree.node_ids().all(|id| lru.tree.class(id) == 0));
    assert_eq!(lru.tree.candidate_bands().count(), 1);

    let scored = run(EvictionPolicy::FlopAware { alpha: 2.0 });
    assert!(scored.tree.candidate_bands().count() > 1);
    for id in scored.tree.eviction_candidates() {
        let class = scored.tree.class(id);
        // Nodes the last admission created or restructured wait in
        // band 0 for the next scored pick; every other candidate is
        // filed under its efficiency, with the memo it was read from.
        if class != 0 {
            let memo = scored.tree.data(id).cost_memo;
            let memo = memo.expect("invariant: a classed candidate carries its memo");
            assert_eq!(memo.version, scored.tree.structure_version(id));
            assert_eq!(class, efficiency_class(memo.flop_efficiency));
            assert_eq!(class, efficiency_class(scored.node_flop_efficiency(id)));
        }
    }
    // Selecting reads candidates; so the counter moved under both.
    assert!(lru.candidates_scored() >= lru.stats().evictions);
    assert!(scored.candidates_scored() >= scored.stats().evictions);
}

/// The seeded fault for the class invariant: a candidate filed one band
/// too high (lower edge above its true efficiency) must not survive the
/// next pick's debug cross-check.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "invariant: a classed candidate sits in the band of its efficiency")]
fn scan_pick_catches_a_candidate_filed_one_band_too_high() {
    let m = ModelConfig::hybrid_7b();
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(600 * m.kv_bytes_per_token() + 8 * m.ssm_checkpoint_bytes())
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build();
    let mut next = 0u32;
    let mut admit = |c: &mut HybridPrefixCache| {
        c.insert_sequence(
            &seq(next * 10_000..next * 10_000 + 96),
            &seq(900_000..900_008),
        );
        next += 1;
    };
    while c.stats().evictions == 0 {
        admit(&mut c);
    }
    let id = c
        .tree
        .eviction_candidates()
        .find(|&id| c.tree.class(id) != 0)
        .expect("a scored pick has filed the survivors");
    let class = c.tree.class(id);
    c.tree.set_class(id, class + 1);
    // The next admission evicts again, and that pick must refuse.
    admit(&mut c);
    admit(&mut c);
}

#[test]
fn gdsf_prefers_low_cost_per_byte_victims() {
    // One long (high C/S) and several short fresh sequences; GDSF must
    // keep the long one even when it is older.
    let m = ModelConfig::hybrid_7b();
    let long_input = seq(0..2048);
    let capacity = 2400 * m.kv_bytes_per_token() + 3 * m.ssm_checkpoint_bytes();
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Gdsf)
        .build();
    c.insert_sequence(&long_input, &seq(100_000..100_016));
    for i in 0..4u32 {
        c.insert_sequence(
            &seq(200_000 + i * 1000..200_000 + i * 1000 + 64),
            &seq(300_000 + i * 10..300_000 + i * 10 + 8),
        );
    }
    let mut resume = long_input.clone();
    resume.extend(seq(100_000..100_016));
    assert!(
        c.lookup(&resume).tokens_matched > 0,
        "GDSF should retain the high-cost long prefix"
    );
    assert!(c.stats().evictions > 0);
}

#[test]
fn gdsf_respects_capacity_and_terminates() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 300 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes();
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Gdsf)
        .build();
    for i in 0..12u32 {
        c.insert_sequence(
            &seq(i * 10_000..i * 10_000 + 128),
            &seq(i * 10_000 + 5000..i * 10_000 + 5016),
        );
        assert!(c.usage_bytes() <= capacity);
    }
}

#[test]
fn ancestor_refresh_ablation_changes_lru_order() {
    // With the ablation on, a deep hit refreshes the whole chain, so
    // LRU keeps the ancestors; with Marconi's rule the ancestors stay
    // stale but hits are unaffected (their KVs are absorbed on
    // eviction). Both configurations must still serve the resume.
    let m = ModelConfig::hybrid_7b();
    let capacity = 1200 * m.kv_bytes_per_token() + 6 * m.ssm_checkpoint_bytes();
    for ablate in [false, true] {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .refresh_ancestors(ablate)
            .build();
        // Build a 3-turn conversation (a chain of 3 nodes).
        let mut history = seq(0..256);
        c.insert_sequence(&history, &seq(9000..9032));
        history.extend(seq(9000..9032));
        for t in 1..3u32 {
            let mut input = history.clone();
            input.extend(seq(t * 1000..t * 1000 + 64));
            c.insert_sequence(&input, &seq(9100 * t..9100 * t + 32));
            history = input;
            history.extend(seq(9100 * t..9100 * t + 32));
        }
        let hit = c.lookup(&history);
        assert_eq!(
            hit.tokens_matched,
            history.len() as u64,
            "ablate={ablate}: full-history resume"
        );
    }
}

#[test]
fn leaf_only_eviction_pins_interior_checkpoints() {
    // With the ablation on, stale single-child interior nodes cannot be
    // evicted, so their SSM states keep occupying memory and more
    // leaves must go instead.
    let m = ModelConfig::hybrid_7b();
    let capacity = 800 * m.kv_bytes_per_token() + 6 * m.ssm_checkpoint_bytes();
    let run = |leaf_only: bool| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .leaf_only_eviction(leaf_only)
            .build();
        // One growing conversation (interior chain) + short floods.
        let mut history = seq(0..256);
        c.insert_sequence(&history, &seq(9000..9032));
        history.extend(seq(9000..9032));
        for t in 1..4u32 {
            let mut input = history.clone();
            input.extend(seq(t * 1000..t * 1000 + 64));
            c.insert_sequence(&input, &seq(9100 * t..9100 * t + 16));
            history = input;
            history.extend(seq(9100 * t..9100 * t + 16));
        }
        for i in 0..6u32 {
            c.insert_sequence(
                &seq(500_000 + i * 1000..500_000 + i * 1000 + 96),
                &seq(600_000 + i * 10..600_000 + i * 10 + 8),
            );
        }
        (c.ssm_state_count(), c.usage_bytes())
    };
    let (states_marconi, usage_a) = run(false);
    let (states_ablated, usage_b) = run(true);
    assert!(usage_a <= capacity && usage_b <= capacity);
    assert!(
        states_ablated >= states_marconi,
        "pinned interiors retain at least as many states: {states_ablated} vs {states_marconi}"
    );
}

#[test]
fn mid_edge_partial_hits_refresh_recency() {
    // Pure Transformer: a request repeatedly reusing the first half of
    // a cached sequence ends mid-edge. The containing node must get its
    // recency refreshed so LRU pressure evicts genuinely cold entries
    // instead.
    let m = ModelConfig::transformer_7b();
    let capacity = 2 * 160 * m.kv_bytes_per_token() + 1;
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Lru)
        .build();
    c.insert_sequence(&seq(0..128), &seq(1000..1032)); // A (older)
    c.insert_sequence(&seq(50_000..50_128), &seq(60_000..60_032)); // B

    // Repeated partial hits on A end mid-edge (depth 64 of 160).
    for _ in 0..3 {
        let r = c.lookup(&seq(0..64));
        assert_eq!(r.tokens_matched, 64);
        assert!(r.node.is_some(), "mid-edge hit must name the hot node");
    }
    // C forces an eviction: B (stale) must go, not the partially-hot A.
    c.insert_sequence(&seq(70_000..70_128), &seq(80_000..80_032));
    assert_eq!(
        c.lookup(&seq(0..64)).tokens_matched,
        64,
        "partially-hit prefix survived LRU pressure"
    );
    assert_eq!(
        c.lookup(&seq(50_000..50_064)).tokens_matched,
        0,
        "the stale full sequence was the victim"
    );
}

#[test]
fn gdsf_bookkeeping_is_gated_on_policy() {
    let m = ModelConfig::hybrid_7b();
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::FlopAware { alpha: 2.0 },
    ] {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(1 << 40)
            .policy(policy)
            .build();
        c.insert_sequence(&seq(0..128), &seq(1000..1032));
        c.lookup(&{
            let mut v = seq(0..128);
            v.extend(seq(1000..1032));
            v
        });
        for id in c.tree.node_ids() {
            let meta = c.tree.data(id);
            assert_eq!(
                meta.frequency, 0,
                "{}: GDSF counters must stay idle",
                c.name
            );
            assert_eq!(meta.gdsf_priority, 0.0);
        }
    }
    // Under GDSF the counters do move.
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(1 << 40)
        .policy(EvictionPolicy::Gdsf)
        .build();
    c.insert_sequence(&seq(0..128), &seq(1000..1032));
    assert!(c.tree.node_ids().any(|id| c.tree.data(id).frequency > 0));
}

#[test]
fn peak_usage_tracks_high_water_mark() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 200 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes();
    let mut c = sglang(capacity);
    c.insert_sequence(&seq(0..128), &seq(1000..1032));
    let peak_after_one = c.stats().peak_usage_bytes;
    c.insert_sequence(&seq(50_000..50_128), &seq(60_000..60_032));
    assert!(c.stats().peak_usage_bytes >= peak_after_one);
}

/// Timestamps are not validated at the cache boundary: `lookup_at` and
/// `insert_at` tolerate a NaN, ±∞ or decreasing `now`. The clock only
/// moves forward (`f64::max` ignores a NaN), recency stamps order every
/// float totally, and a non-finite `last_access` normalises to an
/// infinite recency term, so the victim walk, the debug `scan_pick`
/// cross-check, the tree and the device bound all hold. (`Engine::run`
/// and `event::drive` reject such arrivals before they reach a cache.)
#[test]
fn non_finite_and_decreasing_timestamps_are_tolerated() {
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    // Shared system prompts give the sequences common prefixes, so
    // hits, splits and branch checkpoints all see the bad clocks.
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(40)
        .seed(29)
        .generate();
    let clock = |i: usize| match i % 5 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e6 - i as f64,
        _ => i as f64,
    };
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::FlopAware { alpha: 2.0 },
        EvictionPolicy::Gdsf,
    ] {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .policy(policy.clone())
            .build();
        for (i, r) in trace.requests.iter().enumerate() {
            c.lookup_at(&r.input, clock(i));
            c.insert_at(&r.input, &r.output, clock(i + 1));
            c.tree.assert_invariants();
            c.assert_tier_accounting();
            assert!(
                c.usage_bytes() <= c.capacity_bytes(),
                "device bound broken at request {i} under {policy}"
            );
        }
        assert!(
            c.stats.evictions > 0,
            "the trace must evict under the bad clocks ({policy})"
        );
        assert_eq!(c.stats.lookups, trace.len() as u64);
    }
}
