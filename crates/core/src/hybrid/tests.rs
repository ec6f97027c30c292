use super::differential::{assert_parity, auto_tuned, Drive};
use super::*;
use crate::oracle::{replay, SequenceEvent};
use crate::policy::efficiency_class;
use crate::TunerConfig;
use marconi_trace::TraceTier;

fn marconi(capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .build()
}

fn sglang(capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Lru)
        .build()
}

fn seq(range: std::ops::Range<u32>) -> Vec<Token> {
    range.collect()
}

#[test]
fn cold_lookup_misses() {
    let mut c = marconi(1 << 40);
    let r = c.lookup(&seq(0..100));
    assert!(!r.is_hit());
    assert_eq!(c.stats().lookups, 1);
    assert_eq!(c.stats().token_hit_rate(), 0.0);
}

#[test]
fn conversation_resume_hits_last_decoded_state() {
    // Input-and-output reuse: turn 2 = turn 1's input + output + more.
    let mut c = marconi(1 << 40);
    let input = seq(0..100);
    let output = seq(1000..1050);
    c.insert_sequence(&input, &output);

    let mut turn2 = input.clone();
    turn2.extend_from_slice(&output);
    turn2.extend(seq(2000..2020));
    let r = c.lookup(&turn2);
    assert_eq!(r.tokens_matched, 150, "hit at the last decoded token");
    assert_eq!(r.raw_matched, 150);
}

#[test]
fn purely_input_prefix_hits_on_third_occurrence() {
    // §4.1 tradeoffs: the first occurrence caches nothing reusable at
    // the branch point, the second identifies + checkpoints it, the
    // third hits.
    let mut c = marconi(1 << 40);
    let prompt = seq(0..500);
    let mk = |i: u32| {
        let mut v = prompt.clone();
        v.extend(seq(1000 * i..1000 * i + 50));
        v
    };

    let r1 = c.lookup(&mk(1));
    assert_eq!(r1.tokens_matched, 0);
    c.insert_sequence(&mk(1), &seq(9000..9010));

    let r2 = c.lookup(&mk(2));
    assert_eq!(r2.tokens_matched, 0, "shared prefix not yet checkpointed");
    let rep2 = c.insert_sequence(&mk(2), &seq(9100..9110));
    assert_eq!(rep2.branch_checkpoint_depth, Some(500));

    let r3 = c.lookup(&mk(3));
    assert_eq!(r3.tokens_matched, 500, "branch-point state reused");
    assert_eq!(r3.raw_matched, 500);
}

#[test]
fn at_most_two_ssm_states_per_sequence() {
    let mut c = marconi(1 << 40);
    c.insert_sequence(&seq(0..300), &seq(1000..1100));
    let report = c.insert_sequence(&seq(0..200), &seq(2000..2100));
    assert!(report.ssm_states_admitted <= 2, "judicious admission");
    // First insertion: only the final state (no branch existed yet).
    assert_eq!(
        c.stats().ssm_states_admitted,
        1 + report.ssm_states_admitted
    );
}

#[test]
fn hybrid_hits_are_all_or_nothing() {
    // A request sharing only part of a cached sequence cannot reuse the
    // deeper SSM state: raw match > usable match.
    let mut c = marconi(1 << 40);
    c.insert_sequence(&seq(0..100), &seq(1000..1010));
    let query = seq(0..50); // strict prefix: no checkpoint at 50
    let r = c.lookup(&query);
    assert_eq!(r.raw_matched, 50);
    assert_eq!(r.tokens_matched, 0, "no state at token 50");
}

#[test]
fn pure_transformer_reuses_arbitrary_prefixes() {
    let mut c = HybridPrefixCache::builder(ModelConfig::transformer_7b())
        .capacity_bytes(1 << 40)
        .build();
    c.insert_sequence(&seq(0..100), &seq(1000..1010));
    let r = c.lookup(&seq(0..50));
    assert_eq!(r.tokens_matched, 50, "KVs slice at any boundary");
    assert_eq!(r.node, None.or(r.node), "node may be None mid-edge");
}

#[test]
fn usage_accounting_matches_model_math() {
    let mut c = marconi(1 << 40);
    let input = seq(0..128);
    let output = seq(1000..1032);
    c.insert_sequence(&input, &output);
    let m = ModelConfig::hybrid_7b();
    let expect = 160 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert_eq!(c.usage_bytes(), expect);
    assert_eq!(c.ssm_state_count(), 1);
}

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
fn auto_tuner_walks_through_lifecycle() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }))
        .build();
    assert_eq!(c.tuner_state(), Some(TunerState::WaitingForFirstEviction));
    let mut i = 0u32;
    while !matches!(c.tuner_state(), Some(TunerState::Tuned { .. })) {
        let input = seq(i * 10_000..i * 10_000 + 128 + (i % 7) * 64);
        let output = seq(i * 10_000 + 5000..i * 10_000 + 5032);
        c.lookup(&input);
        c.insert_at(&input, &output, f64::from(i));
        i += 1;
        assert!(i < 500, "tuner failed to converge");
    }
    assert!(c.current_alpha() >= 0.0);
    assert!(c.stats().evictions > 0);
}

#[test]
fn tuner_grid_search_is_deterministic() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 3 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let run = || {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 0.5, 2.0],
            }))
            .build();
        for i in 0..200u32 {
            let input = seq(i * 10_000..i * 10_000 + 64 + (i % 5) * 200);
            let output = seq(i * 10_000 + 5000..i * 10_000 + 5016);
            c.lookup_at(&input, f64::from(i));
            c.insert_at(&input, &output, f64::from(i));
        }
        c.current_alpha()
    };
    assert_eq!(run(), run());
}

#[test]
fn zero_capacity_cache_stays_empty_but_serves() {
    let mut c = marconi(0);
    c.insert_sequence(&seq(0..64), &seq(100..110));
    assert_eq!(c.usage_bytes(), 0);
    assert!(!c.lookup(&seq(0..64)).is_hit());
}

#[test]
fn empty_input_and_output_are_tolerated() {
    let mut c = marconi(1 << 40);
    let r = c.lookup(&[]);
    assert_eq!(r.tokens_matched, 0);
    let rep = c.insert_sequence(&[], &[]);
    assert_eq!(rep.ssm_states_admitted, 0);
    assert_eq!(c.usage_bytes(), 0);
}

#[test]
fn builder_names_follow_policy() {
    let m = ModelConfig::hybrid_7b();
    assert_eq!(
        HybridPrefixCache::builder(m.clone()).build().name(),
        "marconi"
    );
    assert_eq!(
        HybridPrefixCache::builder(m.clone())
            .policy(EvictionPolicy::Lru)
            .build()
            .name(),
        "sglang+"
    );
    assert_eq!(
        HybridPrefixCache::builder(m).name("custom").build().name(),
        "custom"
    );
}

#[test]
fn chunked_checkpointing_rounds_down_to_boundary() {
    // §4.1: "when prefilling ... if we need to cache the state at
    // token 80, we can checkpoint the state at token 64" (chunk 32).
    assert_eq!(CheckpointMode::Exact.checkpoint_depth(80), 80);
    assert_eq!(
        CheckpointMode::Chunked { chunk_size: 32 }.checkpoint_depth(80),
        64
    );
    assert_eq!(
        CheckpointMode::Chunked { chunk_size: 32 }.checkpoint_depth(20),
        0,
        "no boundary before the branch: skip the checkpoint"
    );

    let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 42)
        .checkpoint_mode(CheckpointMode::Chunked { chunk_size: 32 })
        .build();
    let prompt = seq(0..80);
    let mk = |tag: u32| {
        let mut v = prompt.clone();
        v.extend(seq(tag..tag + 16));
        v
    };
    c.insert_sequence(&mk(1000), &seq(9000..9004));
    let rep = c.insert_sequence(&mk(2000), &seq(9100..9104));
    assert_eq!(
        rep.branch_checkpoint_depth,
        Some(64),
        "branch at 80 checkpoints at the chunk boundary 64"
    );
    // The third occurrence reuses 64 tokens instead of 80.
    assert_eq!(c.lookup(&mk(3000)).tokens_matched, 64);
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
fn replica_mirrors_parent_configuration() {
    // The α grid-search must replay against a cache with the *same*
    // semantics as the live one; a drifted replica tunes α for a system
    // that doesn't exist.
    let parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 30)
        .checkpoint_mode(CheckpointMode::Chunked { chunk_size: 32 })
        .refresh_ancestors(true)
        .leaf_only_eviction(true)
        .build();
    let replica = parent.replica(1.5);
    assert_eq!(replica.checkpoint_mode, parent.checkpoint_mode);
    assert_eq!(replica.refresh_ancestors, parent.refresh_ancestors);
    assert_eq!(replica.leaf_only_eviction, parent.leaf_only_eviction);
    assert_eq!(replica.effective_alpha, 1.5);
}

#[test]
fn chunked_tuner_replay_reproduces_chunked_checkpoint_depths() {
    // Regression for the replica config drift: a Chunked{32} cache's
    // replay replica must checkpoint a branch at depth 80 at the chunk
    // boundary 64, exactly like the live cache — not at 80 as the old
    // hardcoded Exact replica did.
    let parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 42)
        .checkpoint_mode(CheckpointMode::Chunked { chunk_size: 32 })
        .build();
    let mut replica = parent.replica(0.5);
    let prompt = seq(0..80);
    let mk = |tag: u32| {
        let mut v = prompt.clone();
        v.extend(seq(tag..tag + 16));
        v
    };
    replica.insert_sequence(&mk(1000), &seq(9000..9004));
    let rep = replica.insert_sequence(&mk(2000), &seq(9100..9104));
    assert_eq!(
        rep.branch_checkpoint_depth,
        Some(64),
        "replica must inherit the parent's chunked checkpointing"
    );
    assert_eq!(replica.lookup(&mk(3000)).tokens_matched, 64);
}

/// The tuner's fidelity contract, stated as behaviour: a replica taken
/// mid-trace replays the rest of the trace exactly like its parent,
/// under every knob a lookup-then-insert replay can observe. A knob
/// the replica dropped or reset splits the two replays.
#[test]
fn a_replica_replays_exactly_like_its_parent_under_every_knob() {
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    let events: Vec<SequenceEvent> = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(48)
        .tenants(4)
        .seed(23)
        .generate()
        .requests
        .into_iter()
        .map(|r| SequenceEvent {
            input: r.input,
            output: r.output,
            at: r.arrival,
        })
        .collect();
    let (warm, window) = events.split_at(events.len() / 2);
    for bits in 0..16u8 {
        let (host_tier, chunked, refresh, leaf_only) =
            (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
        let knobs = format!(
            "host_tier={host_tier} chunked={chunked} refresh={refresh} leaf_only={leaf_only}"
        );
        let mut parent = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(if host_tier { capacity / 2 } else { 0 })
            .checkpoint_mode(if chunked {
                CheckpointMode::Chunked { chunk_size: 32 }
            } else {
                CheckpointMode::Exact
            })
            .refresh_ancestors(refresh)
            .leaf_only_eviction(leaf_only)
            .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
            .build();
        replay(&mut parent, warm);
        let mut replica = parent.replica(2.0);
        let (before, logged) = (parent.stats, parent.eviction_log.len());
        let mut expected = replay(&mut parent, window).delta_since(&before);
        let mut got = replay(&mut replica, window);
        // A high-water mark, not a counter: the parent's spans both
        // halves.
        expected.peak_usage_bytes = 0;
        got.peak_usage_bytes = 0;
        assert!(got.evictions > 0, "the window must evict ({knobs})");
        assert_eq!(got, expected, "stats diverged ({knobs})");
        assert_eq!(
            replica.eviction_log,
            parent.eviction_log[logged..],
            "victims diverged ({knobs})"
        );
        assert_eq!(replica.usage(), parent.usage(), "{knobs}");
        assert_eq!(replica.host_usage(), parent.host_usage(), "{knobs}");
    }
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

/// The parity contract between two replays of one trace: byte-identical
/// victim sequences, stats, device and host usage, α, node count and
/// token count. `label` names the replay under test in every failure.
fn assert_same_end_state(label: &str, reference: &HybridPrefixCache, other: &HybridPrefixCache) {
    assert_eq!(
        reference.eviction_log, other.eviction_log,
        "{label}: victim sequence diverged"
    );
    assert_eq!(reference.stats, other.stats, "{label}: stats diverged");
    assert_eq!(reference.usage(), other.usage(), "{label}: usage");
    assert_eq!(
        reference.host_usage_bytes(),
        other.host_usage_bytes(),
        "{label}: host usage"
    );
    assert_eq!(
        reference.effective_alpha, other.effective_alpha,
        "{label}: tuned α diverged"
    );
    assert_eq!(
        reference.tree.len(),
        other.tree.len(),
        "{label}: node count"
    );
    assert_eq!(
        reference.tree.token_count(),
        other.tree.token_count(),
        "{label}: tree contents"
    );
}

// ------------------------------------------------------------------
// The differential harness against the executable spec, one test per
// policy family and way of driving the cache; each covers every
// combination of the cache knobs (`differential::Knobs::matrix`).
// ------------------------------------------------------------------

#[test]
fn eviction_order_parity_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::COLD, 7);
}

#[test]
fn eviction_order_parity_flop_aware() {
    assert_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, Drive::COLD, 11);
}

#[test]
fn eviction_order_parity_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::COLD, 13);
}

#[test]
fn eviction_order_parity_auto_tuned() {
    assert_parity(auto_tuned(), Drive::COLD, 17);
}

#[test]
fn tracing_is_free_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::TRACED, 7);
}

#[test]
fn tracing_is_free_flop_aware() {
    assert_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, Drive::TRACED, 11);
}

#[test]
fn tracing_is_free_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::TRACED, 13);
}

#[test]
fn tracing_is_free_auto_tuned() {
    assert_parity(auto_tuned(), Drive::TRACED, 17);
}

#[test]
fn session_cursor_parity_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::HINTED_TRACED, 7);
}

#[test]
fn session_cursor_parity_flop_aware() {
    assert_parity(
        EvictionPolicy::FlopAware { alpha: 2.0 },
        Drive::HINTED_TRACED,
        11,
    );
}

#[test]
fn session_cursor_parity_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::HINTED_TRACED, 13);
}

#[test]
fn session_cursor_parity_auto_tuned() {
    assert_parity(auto_tuned(), Drive::HINTED_TRACED, 17);
}

#[test]
fn scale_replay_parity_lru() {
    assert_parity(EvictionPolicy::Lru, Drive::HINTED_AT_SCALE, 101);
}

#[test]
fn scale_replay_parity_flop_aware() {
    assert_parity(
        EvictionPolicy::FlopAware { alpha: 2.0 },
        Drive::HINTED_AT_SCALE,
        103,
    );
}

#[test]
fn scale_replay_parity_gdsf() {
    assert_parity(EvictionPolicy::Gdsf, Drive::HINTED_AT_SCALE, 107);
}

#[test]
fn scale_replay_parity_auto_tuned() {
    assert_parity(auto_tuned(), Drive::HINTED_AT_SCALE, 109);
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

// ------------------------------------------------------------------
// The tiered device/host hierarchy (this PR's refactor): demotion
// instead of deletion under device pressure, host hits that require a
// transfer, promotion on re-insertion, and host-pressure deletion.
// ------------------------------------------------------------------

/// Capacity that fits exactly two 128-token single-checkpoint
/// sequences, like the LRU tests above.
fn two_seq_capacity(m: &ModelConfig) -> u64 {
    2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1
}

fn tiered(capacity: u64, host_capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .host_capacity_bytes(host_capacity)
        .policy(EvictionPolicy::Lru)
        .build()
}

#[test]
fn device_pressure_demotes_instead_of_deleting() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A (oldest)
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    assert_eq!(c.host_usage_bytes(), 0);
    // C applies pressure: A demotes to host instead of vanishing.
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));
    assert!(c.stats().demotions > 0, "pressure must demote");
    assert_eq!(c.stats().evictions, 0, "nothing may be deleted");
    let expected = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert_eq!(c.host_usage_bytes(), expected, "A's bytes moved to host");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    c.assert_tier_accounting();
}

#[test]
fn host_hits_report_transfer_requirements() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // C demotes A

    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    let r = c.lookup(&turn_a);
    assert_eq!(r.tokens_matched, 128, "the demoted prefix still hits");
    assert_eq!(r.host_tokens, 128, "…but entirely from the host tier");
    assert_eq!(r.device_tokens(), 0);
    assert_eq!(
        r.host_bytes,
        128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes(),
        "transfer = edge KVs + the hit node's checkpoint"
    );
    assert_eq!(
        r.host_reload_flops,
        m.prefill_flops(128).total(),
        "recompute arm = the span's prefill FLOPs"
    );
    assert_eq!(c.stats().host_hits, 1);
    assert_eq!(c.stats().host_hit_tokens, 128);
}

#[test]
fn insertion_promotes_the_served_path_back_to_device() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // C demotes A

    // A's next turn is served (host hit) and re-admitted: its path must
    // be device-resident again, with pressure demoting a *colder*
    // entry instead.
    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    let mut next = turn_a.clone();
    next.extend(seq(30_000..30_016));
    c.lookup(&turn_a);
    c.insert_sequence(&next, &seq(40_000..40_008));
    let r = c.lookup(&{
        let mut v = next.clone();
        v.extend(seq(40_000..40_008));
        v
    });
    assert!(r.tokens_matched > 0);
    assert_eq!(r.host_tokens, 0, "the promoted path serves from device");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    c.assert_tier_accounting();
}

#[test]
fn host_pressure_deletes_with_the_same_victim_machinery() {
    let m = ModelConfig::hybrid_7b();
    // Host fits exactly one demoted 128-token sequence.
    let host_cap = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    let mut c = tiered(two_seq_capacity(&m), host_cap);
    for i in 0..6u32 {
        c.insert_sequence(
            &seq(i * 10_000..i * 10_000 + 96),
            &seq(i * 10_000 + 500..i * 10_000 + 532),
        );
    }
    assert!(c.stats().demotions >= 2, "repeated pressure demotes");
    assert!(
        c.stats().host_evictions > 0,
        "host overflow must delete from the host tier"
    );
    assert_eq!(c.stats().host_evictions, c.stats().evictions);
    assert!(c.host_usage_bytes() <= host_cap);
    assert!(c.usage_bytes() <= c.capacity_bytes());
    c.assert_tier_accounting();
}

/// One admission larger than device + host together is tolerated, not
/// rejected: the sequence is admitted whole, pressure demotes it and
/// deletes it from the host like any other victim, and each tier ends
/// inside its budget. Under LRU the older residents go first, so the
/// episode empties both tiers. The next normal request is served from
/// the device as usual.
#[test]
fn sequence_larger_than_device_plus_host_is_tolerated() {
    let m = ModelConfig::hybrid_7b();
    let host_cap = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    let mut c = tiered(two_seq_capacity(&m), host_cap);
    c.insert_at(&seq(0..96), &seq(500..532), 0.0);
    c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0);

    let (input, output) = (seq(50_000..52_000), seq(60_000..60_500));
    let bytes = 2_500 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert!(
        bytes > c.capacity_bytes() + c.host_capacity_bytes(),
        "the shape under test"
    );
    let report = c.insert_at(&input, &output, 2.0);
    assert_eq!(report.bytes_added, bytes, "admitted whole");
    assert_eq!(report.entries_demoted, 3, "both residents, then itself");
    assert_eq!(report.entries_evicted, 3, "…and all three off the host");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    assert!(c.host_usage_bytes() <= c.host_capacity_bytes());
    assert_eq!(c.node_count(), 0);
    c.assert_tier_accounting();

    let (a, b) = (seq(70_000..70_096), seq(70_500..70_532));
    c.insert_at(&a, &b, 3.0);
    let mut turn = a.clone();
    turn.extend_from_slice(&b);
    let hit = c.lookup(&turn);
    assert_eq!(hit.tokens_matched, 128);
    assert_eq!(hit.host_tokens, 0);
    assert!(c.usage_bytes() <= c.capacity_bytes());
    assert_eq!(c.host_usage_bytes(), 0);
    c.assert_tier_accounting();
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
    assert_eq!(p.device_tokens(), r.device_tokens());
}

#[test]
fn transformer_mid_edge_host_hits_split_by_tier() {
    // Pure Transformer: a partial match ending inside a demoted edge
    // reports exactly the partial tokens as host-resident.
    let m = ModelConfig::transformer_7b();
    let capacity = 2 * 160 * m.kv_bytes_per_token() + 1;
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(capacity)
        .host_capacity_bytes(1 << 40)
        .policy(EvictionPolicy::Lru)
        .build();
    c.insert_sequence(&seq(0..128), &seq(1000..1032)); // A (demoted below)
    c.insert_sequence(&seq(50_000..50_128), &seq(60_000..60_032));
    c.insert_sequence(&seq(70_000..70_128), &seq(80_000..80_032));
    assert!(c.stats().demotions > 0);

    let r = c.lookup(&seq(0..64));
    assert_eq!(r.tokens_matched, 64);
    assert_eq!(r.host_tokens, 64, "mid-edge partial from a host edge");
    assert_eq!(r.host_bytes, 64 * m.kv_bytes_per_token());
    assert_eq!(r.host_reload_flops, m.prefill_flops(64).total());
}

#[test]
fn tiering_strictly_improves_hit_rate_on_contended_traces() {
    // The acceptance assertion: at a fixed (contended) device capacity,
    // adding a host tier strictly increases token hit rate — evicted-
    // would-be entries keep serving from host — for every policy
    // family.
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(12)
        .seed(7)
        .generate();
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::FlopAware { alpha: 2.0 },
        EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }),
    ] {
        let run = |host: u64| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .host_capacity_bytes(host)
                .policy(policy.clone())
                .build();
            for r in &trace.requests {
                c.lookup_at(&r.input, r.arrival);
                c.insert_at(&r.input, &r.output, r.arrival);
            }
            c.assert_tier_accounting();
            assert!(c.usage_bytes() <= capacity);
            *c.stats()
        };
        let single = run(0);
        let tiered = run(4 << 30);
        assert!(
            single.evictions > 0,
            "{policy}: the trace must be contended"
        );
        assert!(tiered.demotions > 0, "{policy}: pressure must demote");
        assert!(tiered.host_hit_tokens > 0, "{policy}: host must serve");
        assert!(
            tiered.hit_tokens > single.hit_tokens,
            "{policy}: tiering must strictly improve reuse \
             ({} vs {} hit tokens)",
            tiered.hit_tokens,
            single.hit_tokens
        );
        assert_eq!(tiered.input_tokens, single.input_tokens);
    }
}

#[test]
fn replica_mirrors_tier_knobs() {
    // PR 2's tuner-fidelity invariant extended to the tier dimension:
    // a tiered cache's replay replicas must be tiered the same way, or
    // the α grid-search tunes against a single-tier system that
    // doesn't exist.
    let parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 30)
        .host_capacity_bytes(3 << 30)
        .reload_policy(ReloadPolicy::AlwaysReload)
        .build();
    let replica = parent.replica(1.0);
    assert_eq!(replica.host_capacity, parent.host_capacity);
    assert_eq!(replica.reload_policy, parent.reload_policy);
    assert_eq!(replica.reload_policy(), ReloadPolicy::AlwaysReload);
}

#[test]
fn tiered_auto_tuner_replays_against_a_tiered_replica() {
    // End to end: drive a tiered AutoTuned cache through its whole
    // tuner lifecycle under contention; the replay replicas inherit
    // the host tier (the run would diverge or panic on accounting
    // drift otherwise) and the tuned cache stays within both budgets.
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .host_capacity_bytes(capacity)
        .policy(EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }))
        .build();
    let mut i = 0u32;
    while !matches!(c.tuner_state(), Some(TunerState::Tuned { .. })) {
        let input = seq(i * 10_000..i * 10_000 + 128 + (i % 7) * 64);
        let output = seq(i * 10_000 + 5000..i * 10_000 + 5032);
        c.lookup_at(&input, f64::from(i));
        c.insert_at(&input, &output, f64::from(i));
        i += 1;
        assert!(i < 500, "tuner failed to converge");
    }
    assert!(c.stats().demotions > 0, "the host tier absorbed pressure");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    assert!(c.host_usage_bytes() <= c.host_capacity_bytes());
    c.assert_tier_accounting();
}

#[test]
fn tuner_bootstraps_on_demotion_pressure_without_any_deletion() {
    // Regression: the bootstrap trigger predates tiering and fired on
    // the first *eviction*; with an ample host budget device pressure
    // only ever demotes, and the tuner would wait forever, silently
    // serving the untuned initial α. The first demotion must start the
    // bootstrap window too.
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .host_capacity_bytes(1 << 42) // never fills: zero deletions
        .policy(EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }))
        .build();
    let mut i = 0u32;
    while !matches!(c.tuner_state(), Some(TunerState::Tuned { .. })) {
        let input = seq(i * 10_000..i * 10_000 + 128 + (i % 7) * 64);
        let output = seq(i * 10_000 + 5000..i * 10_000 + 5032);
        c.lookup_at(&input, f64::from(i));
        c.insert_at(&input, &output, f64::from(i));
        i += 1;
        assert!(
            i < 500,
            "tuner failed to converge under demotion-only pressure"
        );
    }
    assert_eq!(c.stats().evictions, 0, "nothing was ever deleted");
    assert!(c.stats().demotions > 0, "demotions drove the bootstrap");
}

#[test]
fn split_through_a_host_edge_keeps_accounting_exact() {
    // A new sequence diverging inside a demoted edge splits it; the new
    // intermediate node must inherit the host tier (its tokens came off
    // a host edge) and the inserted path promotes, all without counter
    // drift. The debug asserts in every later pressure episode would
    // catch drift; we also check directly.
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // A → host
    assert!(c.stats().demotions > 0);
    // Diverge at token 48 inside A's demoted 128-token edge.
    let mut div = seq(0..48);
    div.extend(seq(90_000..90_048));
    c.insert_sequence(&div, &seq(95_000..95_008));
    c.assert_tier_accounting();
    // The shared 48-token head was promoted with the inserted path; the
    // 80-token tail of A's old edge stays wherever it was.
    let r = c.lookup(&{
        let mut v = div.clone();
        v.extend(seq(95_000..95_008));
        v
    });
    assert!(r.tokens_matched > 0);
    assert_eq!(r.host_tokens, 0, "freshly inserted path is on device");
}

#[test]
fn branch_heavy_demotion_cannot_strand_device_bytes() {
    // Regression: demotion (unlike deletion) never mutates the tree,
    // so a branch node whose children were all demoted keeps 2+
    // children forever and never enters the candidate pool — its edge
    // KVs would pin the device tier over its hard capacity. The
    // fallback demotion pass must keep device usage within budget
    // anyway. Shape: many tenant prompts, each with two divergent
    // continuations (every prompt becomes a non-candidate branch
    // node).
    let m = ModelConfig::hybrid_7b();
    let capacity = 3 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .host_capacity_bytes(1 << 42)
        .policy(EvictionPolicy::Lru)
        .build();
    for t in 0..40u32 {
        let prompt = seq(t * 100_000..t * 100_000 + 96);
        for branch in 0..2u32 {
            let mut input = prompt.clone();
            input.extend(seq(
                t * 100_000 + 50_000 + branch * 1000..t * 100_000 + 50_000 + branch * 1000 + 32
            ));
            c.insert_sequence(
                &input,
                &seq(t * 100_000 + 90_000 + branch * 100..t * 100_000 + 90_000 + branch * 100 + 8),
            );
            assert!(
                c.usage_bytes() <= c.capacity_bytes(),
                "tenant {t}/{branch}: device tier must never exceed its hard capacity \
                 ({} > {})",
                c.usage_bytes(),
                c.capacity_bytes()
            );
        }
    }
    c.assert_tier_accounting();
    assert!(c.stats().demotions > 0);
    // The stranded prefixes still serve — from host.
    let mut resume = seq(0..96);
    resume.extend(seq(50_000..50_032));
    resume.extend(seq(90_000..90_008));
    let r = c.lookup(&resume);
    assert!(r.is_hit(), "demoted branch-heavy content keeps hitting");
    assert!(r.host_tokens > 0);
}

#[test]
fn zero_host_capacity_never_reports_tier_activity() {
    // Belt and braces for the parity contract: a contended single-tier
    // run must keep every tier-related counter and lookup field at
    // exactly zero.
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(8)
        .seed(3)
        .generate();
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(6000 * m.kv_bytes_per_token())
        .policy(EvictionPolicy::Lru)
        .build();
    for r in &trace.requests {
        let hit = c.lookup_at(&r.input, r.arrival);
        assert_eq!(hit.host_tokens, 0);
        assert_eq!(hit.host_bytes, 0);
        assert_eq!(hit.host_reload_flops, 0);
        let rep = c.insert_at(&r.input, &r.output, r.arrival);
        assert_eq!(rep.entries_demoted, 0);
        assert_eq!(rep.bytes_demoted, 0);
    }
    assert!(c.stats().evictions > 0, "the trace must be contended");
    assert_eq!(c.stats().demotions, 0);
    assert_eq!(c.stats().host_hits, 0);
    assert_eq!(c.stats().host_hit_tokens, 0);
    assert_eq!(c.stats().host_evictions, 0);
    assert_eq!(c.host_usage_bytes(), 0);
}

// ------------------------------------------------------------------
// In-flight pinning (this PR's bugfix): a request's admission-time hit
// path must survive eviction pressure until the request completes.
// ------------------------------------------------------------------

/// Pinning parity: with zero *overlapping* lifetimes (each request pins
/// at lookup and unpins before its own insertion, like a serial
/// executor), the victim sequence and stats must be byte-identical to
/// a pin-free run — pins that never coincide with pressure must be
/// invisible.
#[test]
fn non_overlapping_pins_preserve_byte_parity() {
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    let policies: Vec<(EvictionPolicy, u64)> = vec![
        (EvictionPolicy::Lru, 7),
        (EvictionPolicy::FlopAware { alpha: 2.0 }, 11),
        (EvictionPolicy::Gdsf, 13),
        (
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
            }),
            17,
        ),
    ];
    for (policy, seed) in policies {
        let trace = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(12)
            .seed(seed)
            .generate();
        let build = || {
            HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(capacity)
                .policy(policy.clone())
                .build()
        };
        let mut reference = build();
        let mut pinned = build();
        for r in &trace.requests {
            reference.lookup_at(&r.input, r.arrival);
            reference.insert_at(&r.input, &r.output, r.arrival);

            pinned.lookup_at(&r.input, r.arrival);
            let ticket = pinned.pin_prefix(&r.input);
            // The request completes before the next one arrives:
            // release the pin, then admit — zero overlap.
            pinned.unpin(ticket);
            pinned.insert_at(&r.input, &r.output, r.arrival);
        }
        assert!(
            reference.stats.evictions > 0,
            "parity trace must exercise eviction ({policy})"
        );
        assert_same_end_state(&format!("pinned run under {policy}"), &reference, &pinned);
        assert_eq!(pinned.pinned_node_count(), 0, "all tickets were redeemed");
    }
}

/// The headline bug, at the cache level: without pinning, LRU pressure
/// reclaims the path an in-flight request's admission lookup hit; with
/// pinning the victim choice diverges *only* there — pressure takes
/// the next-best victim and the in-flight path survives.
#[test]
fn mid_flight_pin_protects_the_in_flight_hit_path() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 3 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
    let a_in = seq(0..96);
    let a_out = seq(500..532);
    let b_in = seq(10_000..10_096);
    let b_out = seq(10_500..10_532);
    let mut resume_a: Vec<Token> = a_in.clone();
    resume_a.extend_from_slice(&a_out);
    resume_a.extend(seq(2000..2020));
    let mut resume_b: Vec<Token> = b_in.clone();
    resume_b.extend_from_slice(&b_out);

    let run = |pin: bool| {
        let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .build();
        c.insert_at(&a_in, &a_out, 0.0);
        c.insert_at(&b_in, &b_out, 1.0);
        // Request R resumes session A and starts decoding: lookup hits
        // 128 tokens, the pin (when taken) marks them in use.
        let hit = c.lookup_at(&resume_a, 2.0);
        assert_eq!(hit.tokens_matched, 128);
        let ticket = if pin {
            c.pin_prefix(&resume_a)
        } else {
            PinTicket::default()
        };
        // Session B is touched afterwards, so A's path is now the LRU
        // victim — exactly the shape where unpinned eviction corrupts R.
        c.lookup_at(&resume_b, 3.0);
        // Two unrelated completions apply pressure while R decodes.
        c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 4.0);
        c.insert_at(&seq(30_000..30_096), &seq(30_500..30_532), 5.0);
        let still_cached = c.longest_cached_prefix_len(&resume_a);
        // R completes: release the pin, then admit its sequence.
        c.unpin(ticket);
        c.insert_at(&resume_a, &seq(600..616), 6.0);
        assert_eq!(c.pinned_node_count(), 0);
        c.assert_tier_accounting();
        still_cached
    };

    assert_eq!(
        run(false),
        0,
        "unpinned: pressure reclaims the in-flight hit path mid-decode"
    );
    assert_eq!(run(true), 128, "pinned: the in-flight path survives");
}

/// Satellite: all-pinned pressure must degrade gracefully. When every
/// reclaimable byte is pinned and admission pushes 10× over budget,
/// insertion spills (admits over capacity after dropping what it can)
/// instead of livelocking; unpinning makes the bytes reclaimable again.
#[test]
fn all_pinned_pressure_spills_gracefully_instead_of_looping() {
    let m = ModelConfig::hybrid_7b();
    let capacity = two_seq_capacity(&m);
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Lru)
        .build();
    let a_in = seq(0..96);
    let a_out = seq(500..532);
    let b_in = seq(10_000..10_096);
    let b_out = seq(10_500..10_532);
    c.insert_at(&a_in, &a_out, 0.0);
    c.insert_at(&b_in, &b_out, 1.0);
    let mut resume_a: Vec<Token> = a_in.clone();
    resume_a.extend_from_slice(&a_out);
    let mut resume_b: Vec<Token> = b_in.clone();
    resume_b.extend_from_slice(&b_out);
    let ta = c.pin_prefix(&resume_a);
    let tb = c.pin_prefix(&resume_b);
    assert!(
        c.tree.eviction_candidates().all(|id| c.tree.is_pinned(id)),
        "the shape under test: every eviction candidate is pinned"
    );

    // 10× the byte budget, branching off A's pinned edge so admission
    // also checkpoints a branch SSM state *inside* the pinned chain.
    // Three times over: each must terminate, not loop.
    for round in 0..3u32 {
        let mut giant: Vec<Token> = a_in[..64].to_vec();
        giant.extend(seq(40_000 + round * 10_000..40_000 + round * 10_000 + 2600));
        c.insert_at(
            &giant,
            &seq(700 + round..702 + round),
            2.0 + f64::from(round),
        );
        c.assert_tier_accounting();
    }
    assert!(
        c.usage_bytes() > c.capacity_bytes(),
        "pinned bytes spill over budget rather than being reclaimed"
    );
    assert!(c.pinned_bytes() > 0);
    // The pinned paths are untouched through all of it.
    assert_eq!(c.longest_cached_prefix_len(&resume_a), 128);
    assert_eq!(c.longest_cached_prefix_len(&resume_b), 128);

    // Completion unpins; the next pressure episode reclaims normally.
    c.unpin(ta);
    c.unpin(tb);
    assert_eq!(c.pinned_bytes(), 0);
    c.insert_at(&seq(90_000..90_096), &seq(90_500..90_532), 10.0);
    assert!(
        c.usage_bytes() <= c.capacity_bytes(),
        "with pins released, pressure fits the budget again"
    );
}

#[test]
fn pinned_bytes_are_refcounted_per_path() {
    let m = ModelConfig::hybrid_7b();
    let mut c = marconi(1 << 40);
    let input = seq(0..96);
    let output = seq(500..532);
    c.insert_sequence(&input, &output);
    let mut resume: Vec<Token> = input.clone();
    resume.extend_from_slice(&output);

    assert_eq!(c.pinned_bytes(), 0);
    let t1 = c.pin_prefix(&resume);
    let expected = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert_eq!(c.pinned_bytes(), expected);
    // A second request over the same prefix shares the pin; bytes are
    // counted once.
    let t2 = c.pin_prefix(&resume);
    assert_eq!(c.pinned_bytes(), expected);
    c.unpin(t1);
    assert_eq!(c.pinned_bytes(), expected, "still held by the second pin");
    c.unpin(t2);
    assert_eq!(c.pinned_bytes(), 0);
    // A miss yields an empty ticket; redeeming it is a no-op.
    let empty = c.pin_prefix(&seq(70_000..70_010));
    assert!(empty.is_empty());
    c.unpin(empty);
    assert_eq!(c.pinned_bytes(), 0);
}

/// The debug-build leak detector: a ticket that pins a hit and is
/// dropped without `unpin` panics, instead of leaving its path
/// protected forever.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "PinTicket leaked")]
fn an_unredeemed_pin_ticket_panics_on_drop() {
    let mut c = marconi(1 << 40);
    let input = seq(0..96);
    let output = seq(500..532);
    c.insert_sequence(&input, &output);
    let mut resume: Vec<Token> = input.clone();
    resume.extend_from_slice(&output);
    let ticket = c.pin_prefix(&resume);
    assert!(!ticket.is_empty(), "the hit is pinned");
    drop(ticket);
}

#[test]
fn replica_clears_live_pins() {
    // Replay replicas model completed-request traces — no request is
    // in flight during a grid-search replay, so a replica must drop the
    // parent's live pins.
    let mut parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 30)
        .build();
    let input = seq(0..96);
    let output = seq(500..532);
    parent.insert_sequence(&input, &output);
    let mut resume: Vec<Token> = input.clone();
    resume.extend_from_slice(&output);
    let ticket = parent.pin_prefix(&resume);
    assert!(parent.pinned_node_count() > 0);

    let replica = parent.replica(1.0);
    assert_eq!(replica.pinned_node_count(), 0, "live pins not inherited");
    assert_eq!(replica.pinned_bytes(), 0);
    parent.unpin(ticket);
}

/// Pins protect against *demotion* too: a tiered cache under device
/// pressure demotes unpinned victims and leaves the pinned path on
/// device (a demoted in-flight path would stall decode on a reload).
#[test]
fn pins_block_demotion_in_the_tiered_cache() {
    let m = ModelConfig::hybrid_7b();
    let capacity = two_seq_capacity(&m);
    let run = |pin: bool| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Lru)
            .build();
        c.insert_at(&seq(0..96), &seq(500..532), 0.0); // A
        c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0); // B
        let mut resume_a: Vec<Token> = seq(0..96);
        resume_a.extend_from_slice(&seq(500..532));
        c.lookup_at(&resume_a, 2.0);
        let ticket = if pin {
            c.pin_prefix(&resume_a)
        } else {
            PinTicket::default()
        };
        let mut resume_b: Vec<Token> = seq(10_000..10_096);
        resume_b.extend_from_slice(&seq(10_500..10_532));
        c.lookup_at(&resume_b, 3.0); // B younger than A's pin
        c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 4.0);
        let on_device = c.probe_tiers(&resume_a).device_tokens();
        c.unpin(ticket);
        c.assert_tier_accounting();
        on_device
    };
    assert_eq!(run(false), 0, "unpinned: device pressure demotes A to host");
    assert_eq!(run(true), 128, "pinned: A's path stays device-resident");
}

/// `pool_len` means one thing under every policy: the eligible
/// candidates on the pressed tier at episode start. LRU and
/// `FlopAware { α = 0 }` pick identical victims through different
/// arms, so driven to the same tiered, partly pinned state they must
/// report identical episodes — `pool_len` included — and that count
/// must exclude the pinned and the other-tier candidates.
#[test]
fn pool_len_counts_eligible_candidates_under_every_policy() {
    use marconi_trace::{RingRecorder, Tracer};
    let m = ModelConfig::hybrid_7b();
    let capacity = two_seq_capacity(&m);
    let run = |policy: EvictionPolicy| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(capacity)
            .policy(policy)
            .build();
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 12));
        c.set_tracer(tracer);
        c.insert_at(&seq(0..96), &seq(500..532), 0.0); // A
        c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0); // B
        let mut resume_a: Vec<Token> = seq(0..96);
        resume_a.extend_from_slice(&seq(500..532));
        let ticket = c.pin_prefix(&resume_a);
        assert!(
            c.pinned_node_count() > 0,
            "the state under test is partly pinned"
        );
        // Four more sequences: device pressure demotes around A's pin,
        // then host pressure deletes.
        for i in 2..6u32 {
            let base = i * 10_000;
            c.insert_at(
                &seq(base..base + 96),
                &seq(base + 500..base + 532),
                f64::from(i),
            );
        }
        c.unpin(ticket);
        assert!(c.stats.demotions > 0 && c.stats.host_evictions > 0);
        let rec = recorder.lock().expect("lock: test-local recorder");
        let episodes: Vec<(TraceTier, u64, Vec<u64>)> = rec
            .events()
            .filter_map(|e| match &e.event {
                TraceEvent::EvictionEpisode {
                    tier,
                    pool_len,
                    victims,
                    ..
                } => Some((*tier, *pool_len, victims.iter().map(|v| v.node).collect())),
                _ => None,
            })
            .collect();
        episodes
    };
    let lru = run(EvictionPolicy::Lru);
    assert_eq!(
        lru,
        run(EvictionPolicy::FlopAware { alpha: 0.0 }),
        "same state, same victims: the episodes must agree, pool_len included"
    );
    // Every sequence is one leaf under the root (slots 1..=6 in
    // admission order) and the device tier holds two. A (slot 1) is
    // pinned throughout, so each device episode chooses between the
    // previous arrival and the new one — 2 eligible, however many
    // candidates the two tiers hold in total — and each host episode
    // between the three demoted so far.
    use TraceTier::{Device, Host};
    assert_eq!(
        lru,
        vec![
            (Device, 2, vec![2]),
            (Device, 2, vec![3]),
            (Device, 2, vec![4]),
            (Host, 3, vec![2]),
            (Device, 2, vec![5]),
            (Host, 3, vec![3]),
        ]
    );
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
