//! Store soak: the radix tree's memory stays bounded at capacity.
//!
//! Marconi's target regime is a cache that sits at capacity and evicts on
//! almost every admission. Every admission writes its un-shared suffix to
//! the radix tree's shared token store and every eviction strands a label
//! there, so a store that never reused its dead tokens would grow with
//! *traffic*, not with what is cached. This soak replays SWE-Bench-like
//! agent sessions — the paper's own traffic shape — through a
//! [`HybridPrefixCache`] under `FlopAware { alpha: 2 }` until the cache has
//! turned its whole capacity over many times, and asserts the store bound
//!
//! ```text
//! token_store_len() ≤ peak_live + 2 × PAGE_TOKENS × peak_ranges
//! ```
//!
//! after **every** admission, with the peaks the tree reports in its
//! [`StoreCounters`](marconi_core::StoreCounters). The store is paged:
//! removals free pages and inserts write them again, so it grows only when
//! every page holds a live token. Paging lengthens label chains, so the
//! soak also holds the two arenas that grow with the tree's shape — the
//! node slots and the label-link slots — under a multiple of the most live
//! nodes seen, and the store's end length within 1.25× of its peak live
//! tokens. The final [`CacheStats`] are pinned to the values the same
//! replay produced at the commit *before* the store learned to reclaim:
//! where a label's tokens land is invisible to every caller, so it must
//! not change a single lookup, admission or eviction decision.
//!
//! The default mode turns capacity over ≥ 10× (in fact ~470×); the
//! `#[ignore]`d long mode (≥ 100×, in fact ~7 000×; run in release by CI)
//! is the regression alarm for a return to unbounded growth.

use marconi_core::{CacheStats, EvictionPolicy, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_workload::{DatasetKind, TraceGenerator};

/// Tokens per store page (mirrors the radix engine's private constant;
/// the bound is its documented contract).
const PAGE_TOKENS: u64 = 1024;

/// Node slots, and label-link slots, per live node at most: each arena's
/// high-water mark over the most live nodes any admission left.
const ARENA_SLOTS_PER_NODE: u64 = 2;

/// What one soak reached.
struct Soak {
    stats: CacheStats,
    /// How many times over the capacity was evicted.
    turnover: u64,
    /// Pages the store wrote again.
    pages_reused: u64,
}

/// Replays `sessions` seeded agent sessions through a cache of
/// `capacity_tokens` tokens' worth of KVs, asserting the store and arena
/// bounds after every admission.
fn soak(sessions: usize, capacity_tokens: u64, seed: u64) -> Soak {
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

    let mut most_nodes = 0;
    for r in &trace.requests {
        let _ = cache.lookup_at(&r.input, r.arrival);
        let _ = cache.insert_at(&r.input, &r.output, r.arrival);
        let stored = cache.token_store_len() as u64;
        let c = cache.store_counters();
        // Live tokens are capped by capacity, so this also says the store
        // never outgrows the cache it indexes, whatever went through it.
        let bound = c.peak_live + 2 * PAGE_TOKENS * c.peak_ranges;
        assert!(
            stored <= bound,
            "request {}: {stored} stored tokens, bound {bound} ({c:?})",
            r.id
        );
        most_nodes = most_nodes.max(cache.node_count() as u64);
        let slots = ARENA_SLOTS_PER_NODE * most_nodes;
        assert!(
            cache.arena_capacity() as u64 <= slots && c.link_slots <= slots,
            "request {}: {} node slots and {} link slots for at most {most_nodes} nodes",
            r.id,
            cache.arena_capacity(),
            c.link_slots
        );
    }
    // The bound allows two pages per range; what the store holds is
    // within a quarter of its peak live tokens (1.03× in the default mode,
    // 1.04× in the long one).
    let c = cache.store_counters();
    let stored = cache.token_store_len() as u64;
    assert!(
        4 * stored <= 5 * c.peak_live,
        "{stored} stored tokens: {c:?}"
    );
    let stats = *cache.stats();
    Soak {
        stats,
        turnover: stats.bytes_evicted / capacity,
        pages_reused: c.pages_reused,
    }
}

#[test]
fn store_stays_bounded_over_10x_capacity_turnover() {
    let Soak {
        stats,
        turnover,
        pages_reused,
    } = soak(200, 60_000, 0x50A6);
    assert!(turnover >= 10, "only {turnover}x capacity turnover");
    assert!(pages_reused >= 1_000, "only {pages_reused} pages reused");
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
    assert_eq!(stats, at_parent, "paging changed a cache decision");
}

#[test]
#[ignore = "long mode (>= 100x turnover): cargo test --release -p marconi-core --test store_soak -- --ignored"]
fn store_stays_bounded_over_100x_capacity_turnover() {
    let Soak {
        stats,
        turnover,
        pages_reused,
    } = soak(3_000, 60_000, 0x50A6);
    assert!(turnover >= 100, "only {turnover}x capacity turnover");
    assert!(pages_reused >= 10_000, "only {pages_reused} pages reused");
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
    assert_eq!(stats, at_parent, "paging changed a cache decision");
}
