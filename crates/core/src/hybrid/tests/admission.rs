// Admission and hits: the two checkpoint rules of §4.1, all-or-nothing
// hybrid reuse, usage accounting, and the edge cases of an empty or
// zero-capacity cache.

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
