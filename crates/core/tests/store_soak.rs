//! Store soak: the radix token store stays bounded at capacity.
//!
//! Marconi's target regime is a cache that sits at capacity and evicts on
//! almost every admission. Every admission appends its un-shared suffix to
//! the radix tree's shared token store and every eviction strands a label
//! there, so a store that never reclaimed would grow with *traffic*, not
//! with what is cached. This soak replays SWE-Bench-like agent sessions —
//! the paper's own traffic shape — through a [`HybridPrefixCache`] under
//! `FlopAware { alpha: 2 }` until the cache has turned its whole capacity
//! over many times, and asserts the store bound
//!
//! ```text
//! token_store_len() ≤ max(2^16, 4 × live tokens)
//! ```
//!
//! after **every** admission. The final [`CacheStats`] are pinned to the
//! values the same replay produced at the commit *before* the store learned
//! to reclaim: compaction rewrites offsets only edges hold, so it must not
//! change a single lookup, admission or eviction decision.
//!
//! The default mode turns capacity over ≥ 10× (in fact ~470×, a few
//! hundred compactions); the `#[ignore]`d long mode (≥ 100×, in fact
//! ~7 000×; run in release by CI) is the regression alarm for a return to
//! unbounded growth.

use marconi_core::{CacheStats, EvictionPolicy, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_workload::{DatasetKind, TraceGenerator};

/// The store is never compacted below this many tokens (mirrors the radix
/// engine's private constant; the bound is its documented contract).
const STORE_FLOOR: u64 = 1 << 16;

/// Live tokens in the radix tree of a single-tier cache, recovered from
/// its byte accounting: device usage is exactly the KVs of every live
/// token plus the cached SSM checkpoints.
fn live_tokens(cache: &HybridPrefixCache) -> u64 {
    let model = cache.model();
    let kv_bytes = cache.usage_bytes() - cache.ssm_state_count() * model.ssm_checkpoint_bytes();
    assert_eq!(kv_bytes % model.kv_bytes_per_token(), 0);
    kv_bytes / model.kv_bytes_per_token()
}

/// Replays `sessions` seeded agent sessions through a cache of
/// `capacity_tokens` tokens' worth of KVs, asserting the store bound after
/// every admission. Returns the final stats, how many times over the
/// capacity was evicted, and how many admissions compacted the store.
fn soak(sessions: usize, capacity_tokens: u64, seed: u64) -> (CacheStats, u64, u32) {
    let model = ModelConfig::hybrid_7b();
    let capacity = capacity_tokens * model.kv_bytes_per_token();
    let mut cache = HybridPrefixCache::builder(model)
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build();
    let trace = TraceGenerator::new(DatasetKind::SweBench)
        .sessions(sessions)
        .seed(seed)
        .generate();

    let mut compactions = 0;
    for r in &trace.requests {
        let before = cache.token_store_len() as u64;
        let _ = cache.lookup_at(&r.input, r.arrival);
        let _ = cache.insert_at(&r.input, &r.output, r.arrival);
        let stored = cache.token_store_len() as u64;
        // The store only ever shrinks by compacting.
        compactions += u32::from(stored < before);
        // Live tokens are capped by capacity, so this also says the store
        // never outgrows the cache it indexes, whatever went through it.
        let live = live_tokens(&cache);
        assert!(
            stored <= STORE_FLOOR.max(4 * live),
            "request {}: {stored} stored tokens for {live} live",
            r.id
        );
    }
    let stats = *cache.stats();
    (stats, stats.bytes_evicted / capacity, compactions)
}

#[test]
fn store_stays_bounded_over_10x_capacity_turnover() {
    let (stats, turnover, compactions) = soak(200, 60_000, 0x50A6);
    assert!(turnover >= 10, "only {turnover}x capacity turnover");
    assert!(compactions >= 3, "only {compactions} compactions: vacuous");
    let at_parent = CacheStats {
        lookups: 2_356,
        hits: 1_580,
        input_tokens: 31_498_031,
        hit_tokens: 4_119_030,
        flops_saved: 56_408_493_475_649_184,
        insertions: 2_356,
        ssm_states_admitted: 2_614,
        evictions: 2_612,
        bytes_evicted: 1_864_518_533_120,
        peak_usage_bytes: 6_582_894_592,
        ..CacheStats::default()
    };
    assert_eq!(stats, at_parent, "compaction changed a cache decision");
}

#[test]
#[ignore = "long mode (>= 100x turnover): cargo test --release -p marconi-core --test store_soak -- --ignored"]
fn store_stays_bounded_over_100x_capacity_turnover() {
    let (stats, turnover, compactions) = soak(3_000, 60_000, 0x50A6);
    assert!(turnover >= 100, "only {turnover}x capacity turnover");
    assert!(compactions >= 30, "only {compactions} compactions: vacuous");
    let at_parent = CacheStats {
        lookups: 35_477,
        hits: 23_579,
        input_tokens: 485_715_447,
        hit_tokens: 59_623_276,
        flops_saved: 816_205_157_208_225_088,
        insertions: 35_477,
        ssm_states_admitted: 39_793,
        evictions: 39_791,
        bytes_evicted: 28_979_276_021_760,
        peak_usage_bytes: 7_047_479_296,
        ..CacheStats::default()
    };
    assert_eq!(stats, at_parent, "compaction changed a cache decision");
}
