//! Exact token-store work on the tiered cluster path.
//!
//! A small seeded replay of the `tenants_cluster` shape — 8 tenants on 4
//! replicas, LRU, a host tier four times the device, prefix-aware routing
//! — summed over the replicas' [`StoreCounters`]. Edge merges splice
//! labels, so they write no token to the store; inserts are the only
//! writer, and they write the pages removals have freed before they grow
//! the store, so nothing is ever compacted. The counts are
//! machine-independent, so they are pinned exactly: a change that makes
//! merges copy again, or leaves freed pages unused, fails here before it
//! shows on a timing run.

use marconi_core::{EvictionPolicy, StoreCounters};
use marconi_model::ModelConfig;
use marconi_sim::{EventCluster, RoutingPolicy};
use marconi_workload::{DatasetKind, TraceGenerator};

/// Device budget in tokens of KV over the whole fleet.
const DEVICE_TOKENS: u64 = 24_000;
/// Host budget in tokens of KV over the whole fleet.
const HOST_TOKENS: u64 = 96_000;

fn bytes(tokens: u64) -> u64 {
    tokens * ModelConfig::hybrid_7b().kv_bytes_per_token()
}

/// The replicas' store counters and store lengths, summed, after one
/// replay.
fn replay() -> (StoreCounters, u64) {
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(400)
        .tenants(8)
        .seed(4242)
        .generate()
        .time_scaled(8.0);
    let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
        .replicas(4)
        .total_capacity_bytes(bytes(DEVICE_TOKENS))
        .total_host_capacity_bytes(bytes(HOST_TOKENS))
        .policy(EvictionPolicy::Lru)
        .routing(RoutingPolicy::PrefixAware)
        .build();
    let report = cluster.run(&trace);
    let stats = report.aggregate_stats();
    assert!(stats.evictions > 0 && stats.demotions > 0, "{stats:?}");
    let (mut sum, mut stored) = (StoreCounters::default(), 0);
    for i in 0..cluster.replica_count() {
        let cache = cluster.replica_cache(i);
        let c = cache.store_counters();
        sum.appended += c.appended;
        sum.merge_copied += c.merge_copied;
        sum.pages += c.pages;
        sum.pages_reused += c.pages_reused;
        sum.peak_live += c.peak_live;
        sum.peak_ranges += c.peak_ranges;
        sum.link_slots += c.link_slots;
        stored += cache.token_store_len() as u64;
    }
    (sum, stored)
}

/// Before merges spliced, the same replay appended the same 724 875
/// tokens by inserts, merges copied 1 980 590 more, and 48 compactions
/// moved 792 140; before the store was paged, 12 compactions ran.
#[test]
fn merges_copy_nothing_and_pages_are_pinned() {
    let (c, stored) = replay();
    assert_eq!(c.merge_copied, 0, "a merge copied tokens: {c:?}");
    assert_eq!(c.appended, 724_875, "inserts appended differently: {c:?}");
    assert_eq!(
        (c.pages, c.pages_reused),
        (130, 580),
        "page use moved: {c:?}"
    );
    // The store's high-water over its peak live tokens (1.56 on this
    // small shape, where each replica peaks at about 21 pages): what the
    // paged store holds for what it is asked to, the tier-1 stand-in for
    // the ledger's `cache_rss_mb`.
    assert_eq!(
        (stored, c.peak_live),
        (133_120, 85_234),
        "store/live moved: {c:?}"
    );
}
