//! The flight recorder's off-is-free contract, gated exactly.
//!
//! A sink whose `is_enabled()` is `false` disables the tracer at attach
//! time, so no emit site ever constructs an event. The sink below panics
//! if it is handed one, which turns "zero events constructed" into a test:
//! it is attached to a cache, to an `Engine` and to an `EventCluster`,
//! each replays an at-capacity two-tier workload that evicts and demotes,
//! and each result must equal the untraced run's.

use marconi_core::{
    AdmissionReport, CacheStats, EvictionPolicy, HybridPrefixCache, LookupResult, PrefixCache,
};
use marconi_model::ModelConfig;
use marconi_sim::{ClusterReport, Engine, EventCluster, GpuModel, SimReport};
use marconi_trace::{TraceEvent, TraceSink, Tracer};
use marconi_workload::{DatasetKind, Trace, TraceGenerator};

/// A disabled sink that must never receive an event.
struct PanickingOffSink;

impl TraceSink for PanickingOffSink {
    fn record(&mut self, event: TraceEvent) {
        panic!(
            "a disabled sink was handed a {} event: tracing off is not free",
            event.kind()
        );
    }

    fn is_enabled(&self) -> bool {
        false
    }
}

fn off_tracer() -> Tracer {
    Tracer::to_sink(PanickingOffSink).0
}

/// Device tier in tokens of KV: small enough that the workload keeps the
/// cache saturated, so most admissions run eviction episodes.
const DEVICE_TOKENS: u64 = 9_000;

fn workload() -> Trace {
    TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(12)
        .seed(7)
        .generate()
}

fn device_bytes() -> u64 {
    DEVICE_TOKENS * ModelConfig::hybrid_7b().kv_bytes_per_token()
}

fn cache(tracer: Option<Tracer>) -> HybridPrefixCache {
    let capacity = device_bytes();
    let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .host_capacity_bytes(capacity / 2)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build();
    if let Some(t) = tracer {
        cache.set_tracer(t);
    }
    cache
}

fn assert_at_capacity(stats: &CacheStats, driver: &str) {
    assert!(
        stats.evictions > 0 && stats.demotions > 0,
        "the {driver} replay must evict and demote: {stats:?}"
    );
}

/// Every lookup and admission result, then the cache's statistics.
fn replay_cache(
    mut cache: HybridPrefixCache,
    trace: &Trace,
) -> (Vec<(LookupResult, AdmissionReport)>, CacheStats) {
    let results = trace
        .requests
        .iter()
        .map(|r| {
            let hit = cache.lookup_at(&r.input, r.arrival);
            (hit, cache.insert_at(&r.input, &r.output, r.arrival))
        })
        .collect();
    (results, *cache.stats())
}

fn replay_engine(tracer: Option<Tracer>, trace: &Trace) -> SimReport {
    let mut engine = Engine::new(cache(tracer.clone()), GpuModel::a100_x4());
    if let Some(t) = tracer {
        engine.set_tracer(t);
    }
    engine.run(trace)
}

fn replay_event_cluster(tracer: Option<Tracer>, trace: &Trace) -> ClusterReport {
    let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
        .replicas(2)
        .total_capacity_bytes(device_bytes())
        .total_host_capacity_bytes(device_bytes() / 2)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .build();
    if let Some(t) = tracer {
        cluster.set_tracer(t);
    }
    cluster.run(trace)
}

#[test]
fn disabled_sink_constructs_no_event_in_cache_engine_or_event_cluster() {
    let trace = workload();

    let bare = replay_cache(cache(None), &trace);
    assert_at_capacity(&bare.1, "cache");
    assert_eq!(replay_cache(cache(Some(off_tracer())), &trace), bare);

    let bare = replay_engine(None, &trace);
    assert_at_capacity(&bare.cache_stats, "Engine");
    assert_eq!(replay_engine(Some(off_tracer()), &trace), bare);

    let bare = replay_event_cluster(None, &trace);
    assert_at_capacity(&bare.aggregate_stats(), "EventCluster");
    assert_eq!(replay_event_cluster(Some(off_tracer()), &trace), bare);
}
