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
