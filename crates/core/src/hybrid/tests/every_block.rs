// vLLM+ as a configuration (`CheckpointMode::EveryBlock`, LRU over leaf
// blocks, ancestor refresh): whole-block admission and hits, block-granular
// bytes, the Fig. 3a latches, and the combinations `build` rejects.

/// vLLM+ with 32-token blocks, as `Comparison` runs it.
fn vllm(capacity: u64) -> HybridPrefixCache {
    vllm_on(ModelConfig::hybrid_7b(), capacity)
}

fn vllm_on(model: ModelConfig, capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(model)
        .capacity_bytes(capacity)
        .checkpoint_mode(CheckpointMode::EveryBlock { block_size: 32 })
        .policy(EvictionPolicy::Lru)
        .leaf_only_eviction(true)
        .refresh_ancestors(true)
        .build()
}

/// Bytes one 32-token block is charged: its KVs and one checkpoint.
fn per_block() -> u64 {
    let m = ModelConfig::hybrid_7b();
    32 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()
}

#[test]
fn hits_are_block_quantized() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..100), &[]);
    assert_eq!(c.lookup(&seq(0..100)).tokens_matched, 96);
    assert_eq!(c.lookup(&seq(0..64)).tokens_matched, 64);
    assert_eq!(c.lookup(&seq(0..31)).tokens_matched, 0, "sub-block miss");
    assert_eq!(c.ssm_state_count(), 3, "partial tail block not cached");
}

#[test]
fn every_block_takes_no_branch_checkpoint() {
    let mode = CheckpointMode::EveryBlock { block_size: 32 };
    assert_eq!(mode.checkpoint_depth(80), 0);
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..100), &[]);
    let mut fork = seq(0..50);
    fork.extend(seq(700..720));
    let report = c.insert_sequence(&fork, &[]);
    assert_eq!(report.branch_checkpoint_depth, None);
    assert_eq!(report.ssm_states_admitted, 1, "the fork's new second block");
}

#[test]
fn pure_transformer_hits_are_block_quantized_too() {
    let mut c = vllm_on(ModelConfig::transformer_7b(), 1 << 42);
    c.insert_sequence(&seq(0..100), &[]);
    let hit = c.lookup(&seq(0..100));
    assert_eq!((hit.tokens_matched, hit.raw_matched), (96, 96));
    assert_eq!(c.longest_cached_prefix_len(&seq(0..80)), 64);
}

#[test]
fn divergent_suffix_stops_the_match() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..128), &[]);
    let mut q = seq(0..64);
    q.extend(seq(900..964));
    assert_eq!(c.lookup(&q).tokens_matched, 64);
}

#[test]
fn usage_counts_kv_and_ssm_per_block() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..64), &[]);
    assert_eq!(c.usage_bytes(), 2 * per_block());
}

#[test]
fn shared_prefix_blocks_are_deduplicated() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..64), &[]);
    let mut other = seq(0..64);
    other.extend(seq(700..764));
    c.insert_sequence(&other, &[]);
    // 2 shared + 2 unshared blocks.
    assert_eq!(c.ssm_state_count(), 4);
}

#[test]
fn lru_eviction_prefers_leaf_blocks() {
    let mut c = vllm(3 * per_block());
    c.insert_sequence(&seq(0..96), &[]); // 3 blocks, chain
    c.insert_sequence(&seq(1000..1032), &[]); // forces one eviction
    assert_eq!(c.ssm_state_count(), 3);
    // The tail block of the old chain was evicted, not its root: the
    // first 64 tokens still hit.
    assert_eq!(c.lookup(&seq(0..96)).tokens_matched, 64);
    assert!(c.stats().evictions >= 1);
}

#[test]
fn a_split_point_that_is_no_block_frees_and_books_nothing() {
    let mut c = vllm(3 * per_block());
    c.insert_sequence(&seq(0..64), &[]);
    // Diverges 8 tokens into the second block: the tree splits there, and
    // the split node is no block.
    let mut fork = seq(0..40);
    fork.extend(seq(500..524));
    c.insert_sequence(&fork, &[]);
    assert_eq!(c.usage_bytes(), 3 * per_block(), "the split node costs 0");
    c.insert_sequence(&seq(1000..1032), &[]); // evicts the first tail block
    c.insert_sequence(&seq(2000..2032), &[]); // evicts the fork's: the split node is a leaf
    assert_eq!(c.stats().evictions, 2);
    // Over by one block: the bare split node goes first, unbooked, then
    // the first block it hung from.
    let report = c.insert_sequence(&seq(3000..3032), &[]);
    assert_eq!(
        (report.entries_evicted, report.bytes_evicted),
        (1, per_block())
    );
    assert_eq!(c.stats().evictions, 3);
    assert_eq!(
        c.eviction_log.len(),
        4,
        "four victims, three of them blocks"
    );
    assert_eq!(c.node_count(), 3);
}

#[test]
fn fig3a_ssm_reuse_much_rarer_than_kv_reuse() {
    // Many conversation resumes: all prefix blocks' KVs get reused but
    // only the final block's SSM state each time.
    let mut c = vllm(1 << 42);
    let mut history = seq(0..320);
    c.insert_sequence(&history, &[]);
    for turn in 0..5u32 {
        let r = c.lookup(&history);
        assert!(r.is_hit());
        let extension = seq(10_000 * (turn + 1)..10_000 * (turn + 1) + 320);
        history.extend(extension);
        c.insert_sequence(&history, &[]);
    }
    let rep = c.block_reuse().expect("EveryBlock counts block reuse");
    assert!(rep.kv_reuse_fraction() > 3.0 * rep.ssm_reuse_fraction());
    assert!(rep.blocks_created > 0);
}

#[test]
fn reuse_flags_latch_once() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..32), &[]);
    c.lookup(&seq(0..32));
    c.lookup(&seq(0..32));
    let rep = c.block_reuse().expect("EveryBlock counts block reuse");
    assert_eq!(rep.kv_reused, 1);
    assert_eq!(rep.ssm_reused, 1);
    assert_eq!(
        marconi(1 << 42).block_reuse(),
        None,
        "only EveryBlock counts"
    );
}

#[test]
fn the_reuse_latches_fit_in_node_meta_padding() {
    // `gdsf_priority`, `frequency` and three flags: 15 bytes, padded to
    // 16 — the two latches cost nothing.
    assert_eq!(std::mem::size_of::<NodeMeta>(), 16);
}

#[test]
fn insert_extends_existing_chain() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..64), &[]);
    c.insert_sequence(&seq(0..64), &seq(64..128));
    assert_eq!(c.ssm_state_count(), 4);
    let mut q = seq(0..64);
    q.extend(seq(64..128));
    assert_eq!(c.lookup(&q).tokens_matched, 128);
}

#[test]
fn probe_is_block_quantized_and_non_mutating() {
    let mut c = vllm(1 << 42);
    c.insert_sequence(&seq(0..100), &[]);
    let stats_before = *c.stats();
    assert_eq!(c.longest_cached_prefix_len(&seq(0..100)), 96);
    assert_eq!(c.longest_cached_prefix_len(&seq(0..31)), 0);
    assert_eq!(*c.stats(), stats_before, "probes must not move stats");
    let rep = c.block_reuse().expect("EveryBlock counts block reuse");
    assert_eq!(rep.kv_reused, 0, "probes must not latch reuse flags");
    assert_eq!(rep.ssm_reused, 0);
}

#[test]
fn zero_capacity_evicts_everything() {
    let mut c = vllm(0);
    c.insert_sequence(&seq(0..128), &[]);
    assert_eq!(c.ssm_state_count(), 0);
    assert_eq!(c.usage_bytes(), 0);
}

#[test]
#[should_panic(expected = "CheckpointMode::EveryBlock with a host tier is not supported")]
fn every_block_rejects_a_host_tier() {
    let _ = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .checkpoint_mode(CheckpointMode::EveryBlock { block_size: 32 })
        .leaf_only_eviction(true)
        .host_capacity_bytes(1 << 30)
        .build();
}

#[test]
#[should_panic(expected = "CheckpointMode::EveryBlock needs leaf_only_eviction(true)")]
fn every_block_rejects_inner_block_eviction() {
    let _ = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .checkpoint_mode(CheckpointMode::EveryBlock { block_size: 32 })
        .build();
}

#[test]
#[should_panic(expected = "CheckpointMode::EveryBlock: block size must be positive")]
fn every_block_rejects_a_zero_block_size() {
    let _ = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .checkpoint_mode(CheckpointMode::EveryBlock { block_size: 0 })
        .leaf_only_eviction(true)
        .build();
}
