//! The scored victim selector's cost, gated in candidates rather than in
//! microseconds.
//!
//! `S(n) = recency + α · flop_efficiency` is min-max normalised over the
//! whole candidate set, so the obvious selector scores every candidate per
//! victim. The banded walk (`pick_victim_banded`, see `docs/radix-engine.md`)
//! reads only the candidates near the minimum and still returns the same
//! victim. [`HybridPrefixCache::candidates_scored`] counts what the selector
//! read — a deterministic work counter, so this gate means the same on any
//! machine — and in a debug build every pick below is also re-derived from a
//! full arena scan and asserted equal, so the walk cannot buy its saving
//! with a different victim.
//!
//! [`HybridPrefixCache::entries_skipped`] counts the other waste: index
//! entries a pick read and then rejected as ineligible. The tier is the top
//! bit of the band key, so on a two-tier cache with no pins it is zero.

use marconi_core::{EvictionPolicy, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_workload::{DatasetKind, TraceGenerator};

/// Requests served after the pool has filled; each one evicts.
const MEASURED: usize = 500;

#[test]
fn scored_picks_read_a_tenth_of_a_five_thousand_candidate_pool() {
    let model = ModelConfig::hybrid_7b();
    let mut cache = HybridPrefixCache::builder(model)
        .capacity_bytes(260 << 30)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build();
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(1_400)
        .seed(22)
        .generate();
    let (fill, measured) = trace.requests.split_at(trace.requests.len() - MEASURED);
    for req in fill {
        cache.lookup_at(&req.input, req.arrival);
        cache.insert_at(&req.input, &req.output, req.arrival);
    }
    let pool = cache.eviction_candidate_count();
    assert!(pool >= 5_000, "the fill left only {pool} candidates");
    assert!(
        cache.stats().evictions > 0,
        "the fill must reach capacity, or the pool is still growing"
    );

    let (scored_before, evicted_before) = (cache.candidates_scored(), cache.stats().evictions);
    for req in measured {
        cache.lookup_at(&req.input, req.arrival);
        cache.insert_at(&req.input, &req.output, req.arrival);
    }
    let scored = cache.candidates_scored() - scored_before;
    let evicted = cache.stats().evictions - evicted_before;
    assert!(
        evicted >= MEASURED as u64 / 2,
        "only {evicted} victims in {MEASURED} requests: the cache is not under pressure"
    );
    let pool = cache.eviction_candidate_count().min(pool) as u64;
    assert!(
        scored / evicted <= pool / 10,
        "{scored} candidates read for {evicted} victims over a pool of {pool}: \
         more than a tenth of the pool per victim"
    );
}

/// Device tier in tokens of KV; the host tier is as large again.
const TIER_TOKENS: u64 = 60_000;

/// Demotions and host evictions each replay below must reach.
const TIER_VICTIMS: u64 = 1_000;

/// The tier is the top bit of the band key, so a device pick reads only
/// device-resident entries and a host pick only host-resident ones: on a
/// two-tier cache with no pins nothing a pick reads from the index is
/// ineligible, under both the recency-only and the scored walk. The
/// control replay pins its first sequence for good, so the same count must
/// see the pinned entries the picks step over.
#[test]
fn a_tiered_pick_never_reads_an_entry_of_the_other_tier() {
    let model = ModelConfig::hybrid_7b();
    let capacity = TIER_TOKENS * model.kv_bytes_per_token();
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(300)
        .seed(11)
        .generate();
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::FlopAware { alpha: 2.0 },
    ] {
        for pin_first in [false, true] {
            let mut cache = HybridPrefixCache::builder(model.clone())
                .capacity_bytes(capacity)
                .host_capacity_bytes(capacity)
                .policy(policy.clone())
                .build();
            let mut pinned = None;
            for req in &trace.requests {
                cache.lookup_at(&req.input, req.arrival);
                cache.insert_at(&req.input, &req.output, req.arrival);
                if pin_first && pinned.is_none() {
                    pinned = Some(cache.pin_prefix(&[&req.input[..], &req.output].concat()));
                }
            }
            let stats = *cache.stats();
            let skipped = cache.entries_skipped();
            if let Some(ticket) = pinned {
                cache.unpin(ticket);
                assert!(skipped > 0, "{policy}: no pinned entry counted as skipped");
                continue;
            }
            assert!(
                stats.demotions >= TIER_VICTIMS && stats.host_evictions >= TIER_VICTIMS,
                "{policy}: both tiers must be under pressure: {stats:?}"
            );
            assert_eq!(
                skipped, 0,
                "{policy}: picks read {skipped} ineligible index entries for {} demotions \
                 and {} evictions",
                stats.demotions, stats.evictions
            );
        }
    }
}
