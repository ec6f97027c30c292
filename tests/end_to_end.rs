//! End-to-end integration tests spanning all crates through the facade.

use marconi::prelude::*;
use marconi::sim::SystemKind;

fn small_trace(kind: DatasetKind, sessions: usize, seed: u64) -> Trace {
    TraceGenerator::new(kind)
        .sessions(sessions)
        .arrival(ArrivalConfig::new(1.0, 10.0))
        .seed(seed)
        .generate()
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let trace = small_trace(DatasetKind::ShareGpt, 12, 9);
        Comparison::new(ModelConfig::hybrid_7b(), 2 << 30)
            .systems(&[SystemKind::SglangPlus, SystemKind::Marconi])
            .run(&trace)
    };
    let a = run();
    let b = run();
    for system in [SystemKind::SglangPlus, SystemKind::Marconi] {
        assert_eq!(
            a.report(system).unwrap(),
            b.report(system).unwrap(),
            "{system} must be bit-for-bit reproducible"
        );
    }
}

#[test]
fn every_system_respects_its_capacity() {
    let trace = small_trace(DatasetKind::SweBench, 8, 4);
    let model = ModelConfig::hybrid_7b();
    let capacity = 1 << 30;

    let mut marconi = HybridPrefixCache::builder(model.clone())
        .capacity_bytes(capacity)
        .build();
    let mut vllm = vllm_plus(model.clone(), capacity, 32);
    for r in &trace.requests {
        marconi.lookup_at(&r.input, r.arrival);
        marconi.insert_at(&r.input, &r.output, r.arrival);
        assert!(marconi.usage_bytes() <= capacity, "marconi over capacity");
        vllm.lookup_at(&r.input, r.arrival);
        vllm.insert_at(&r.input, &r.output, r.arrival);
        assert!(vllm.usage_bytes() <= capacity, "vllm+ over capacity");
    }
    assert!(marconi.stats().evictions > 0, "test must exercise eviction");
    assert!(vllm.stats().evictions > 0, "test must exercise eviction");
}

#[test]
fn caching_systems_dominate_vanilla_ttft() {
    let trace = small_trace(DatasetKind::Lmsys, 15, 7);
    let cmp = Comparison::new(ModelConfig::hybrid_7b(), 8 << 30)
        .systems(&[
            SystemKind::Vanilla,
            SystemKind::VllmPlus,
            SystemKind::SglangPlus,
            SystemKind::Marconi,
        ])
        .run(&trace);
    let vanilla_p95 = cmp
        .report(SystemKind::Vanilla)
        .unwrap()
        .ttft_percentile_ms(0.95)
        .unwrap();
    for system in [
        SystemKind::VllmPlus,
        SystemKind::SglangPlus,
        SystemKind::Marconi,
    ] {
        let p95 = cmp
            .report(system)
            .unwrap()
            .ttft_percentile_ms(0.95)
            .unwrap();
        assert!(
            p95 <= vanilla_p95 + 1e-9,
            "{system}: P95 {p95} must not exceed vanilla {vanilla_p95}"
        );
    }
}

#[test]
fn radix_systems_beat_block_cache_on_hybrid_models() {
    // Judicious admission avoids drowning the cache in SSM states: both
    // radix systems should beat vLLM+ once eviction kicks in.
    let trace = small_trace(DatasetKind::ShareGpt, 30, 11);
    let cmp = Comparison::new(ModelConfig::hybrid_7b(), 3 << 30)
        .systems(&[
            SystemKind::VllmPlus,
            SystemKind::SglangPlus,
            SystemKind::Marconi,
        ])
        .run(&trace);
    let vllm = cmp.report(SystemKind::VllmPlus).unwrap().token_hit_rate();
    let sglang = cmp.report(SystemKind::SglangPlus).unwrap().token_hit_rate();
    let marconi = cmp.report(SystemKind::Marconi).unwrap().token_hit_rate();
    assert!(sglang > vllm, "sglang+ {sglang} vs vllm+ {vllm}");
    assert!(marconi > vllm, "marconi {marconi} vs vllm+ {vllm}");
}

#[test]
fn oracle_is_an_upper_bound_for_lru_on_its_grid() {
    let trace = small_trace(DatasetKind::SweBench, 10, 3);
    let cmp = Comparison::new(ModelConfig::hybrid_7b(), 1 << 30)
        .systems(&[SystemKind::SglangPlus, SystemKind::OracleStaticAlpha])
        .run(&trace);
    let sglang = cmp.report(SystemKind::SglangPlus).unwrap().token_hit_rate();
    let oracle = cmp
        .report(SystemKind::OracleStaticAlpha)
        .unwrap()
        .token_hit_rate();
    assert!(oracle >= sglang - 1e-12);
    assert!(cmp.oracle_alpha.is_some());
}

#[test]
fn engine_metrics_are_internally_consistent() {
    let trace = small_trace(DatasetKind::Lmsys, 10, 5);
    let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(4 << 30)
        .build();
    let mut engine = Engine::new(cache, GpuModel::a100_x4());
    let report = engine.run(&trace);

    let model = ModelConfig::hybrid_7b();
    let mut hit_tokens = 0;
    for rec in &report.records {
        assert!(rec.hit_tokens <= rec.raw_matched);
        assert!(rec.raw_matched <= rec.input_len);
        hit_tokens += rec.hit_tokens;
        // FLOPs spent + saved must equal the full prefill cost.
        let full = model.prefill_flops(rec.input_len).total();
        assert_eq!(rec.flops_spent + rec.flops_saved, full);
    }
    assert_eq!(hit_tokens, report.cache_stats.hit_tokens);
    assert_eq!(report.records.len() as u64, report.cache_stats.lookups);
}

#[test]
fn event_layer_reproduces_the_engine_at_zero_load_through_the_facade() {
    // The zero-load parity contract, exercised end-to-end through the
    // facade: instantaneous event replay ≡ engine, byte for byte.
    let trace = small_trace(DatasetKind::ShareGpt, 10, 6);
    let cache = || {
        HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(2 << 30)
            .build()
    };
    let engine_report = Engine::new(cache(), GpuModel::a100_x4()).run(&trace);
    let event_report = EventSim::instantaneous(cache()).run(&trace);
    assert_eq!(event_report.cache_stats, engine_report.cache_stats);
    for (e, g) in engine_report.records.iter().zip(&event_report.records) {
        assert_eq!(e.hit_tokens, g.hit_tokens, "request {}", e.id);
    }
    // And under real service times, saturating the device must cost tail
    // latency relative to the zero-load analytic TTFT.
    let hot = trace.time_scaled(50.0);
    let analytic = Engine::new(cache(), GpuModel::a100_x4())
        .run(&hot)
        .ttft_percentile_ms(0.95)
        .unwrap();
    let loaded = EventSim::new(cache(), GpuModel::a100_x4())
        .run(&hot)
        .ttft_percentile_ms(0.95)
        .unwrap();
    assert!(loaded > analytic, "event {loaded} vs analytic {analytic}");
}

#[test]
fn prelude_exposes_the_advertised_api() {
    // Compile-time check that the facade re-exports hold together.
    let model: ModelConfig = ModelConfig::hybrid_7b();
    let _: FlopBreakdown = model.prefill_flops(10);
    let _: StateFootprint = model.state_footprint(10);
    let _: LayerKind = LayerKind::Ssm;
    let tree: RadixTree<u8> = RadixTree::new();
    assert!(tree.is_empty());
    let _: Token = 42;
    let stats: CacheStats = CacheStats::default();
    assert_eq!(stats.token_hit_rate(), 0.0);
    assert!(Percentiles::new(&[1.0]).is_some());
    assert!(BoxStats::new(&[1.0]).is_some());
    assert!(LatencySummary::new(&[1.0]).is_some());
    let batch = BatchConfig::default();
    assert!(batch.max_batch_requests > 0);
    let _: RoutingPolicy = RoutingPolicy::QueueAware;
}
