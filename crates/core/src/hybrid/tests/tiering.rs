// The tiered device/host hierarchy: demotion instead of deletion under
// device pressure, host hits that require a transfer, promotion on
// re-insertion, and host-pressure deletion.

#[test]
fn device_pressure_demotes_instead_of_deleting() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A (oldest)
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    assert_eq!(c.host_usage_bytes(), 0);
    // C applies pressure: A demotes to host instead of vanishing.
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));
    assert!(c.stats().demotions > 0, "pressure must demote");
    assert_eq!(c.stats().evictions, 0, "nothing may be deleted");
    let expected = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert_eq!(c.host_usage_bytes(), expected, "A's bytes moved to host");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    c.assert_tier_accounting();
}

#[test]
fn host_hits_report_transfer_requirements() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // C demotes A

    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    let r = c.lookup(&turn_a);
    assert_eq!(r.tokens_matched, 128, "the demoted prefix still hits");
    assert_eq!(r.host_tokens, 128, "…but entirely from the host tier");
    assert_eq!(r.tokens_matched, r.host_tokens);
    assert_eq!(
        r.host_bytes,
        128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes(),
        "transfer = edge KVs + the hit node's checkpoint"
    );
    assert_eq!(
        r.host_reload_flops,
        m.prefill_flops(128).total(),
        "recompute arm = the span's prefill FLOPs"
    );
    assert_eq!(c.stats().host_hits, 1);
    assert_eq!(c.stats().host_hit_tokens, 128);
}

#[test]
fn insertion_promotes_the_served_path_back_to_device() {
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // C demotes A

    // A's next turn is served (host hit) and re-admitted: its path must
    // be device-resident again, with pressure demoting a *colder*
    // entry instead.
    let mut turn_a = seq(0..96);
    turn_a.extend(seq(500..532));
    let mut next = turn_a.clone();
    next.extend(seq(30_000..30_016));
    c.lookup(&turn_a);
    c.insert_sequence(&next, &seq(40_000..40_008));
    let r = c.lookup(&{
        let mut v = next.clone();
        v.extend(seq(40_000..40_008));
        v
    });
    assert!(r.tokens_matched > 0);
    assert_eq!(r.host_tokens, 0, "the promoted path serves from device");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    c.assert_tier_accounting();
}

#[test]
fn host_pressure_deletes_with_the_same_victim_machinery() {
    let m = ModelConfig::hybrid_7b();
    // Host fits exactly one demoted 128-token sequence.
    let host_cap = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    let mut c = tiered(two_seq_capacity(&m), host_cap);
    for i in 0..6u32 {
        c.insert_sequence(
            &seq(i * 10_000..i * 10_000 + 96),
            &seq(i * 10_000 + 500..i * 10_000 + 532),
        );
    }
    assert!(c.stats().demotions >= 2, "repeated pressure demotes");
    assert!(
        c.stats().host_evictions > 0,
        "host overflow must delete from the host tier"
    );
    assert_eq!(c.stats().host_evictions, c.stats().evictions);
    assert!(c.host_usage_bytes() <= host_cap);
    assert!(c.usage_bytes() <= c.capacity_bytes());
    c.assert_tier_accounting();
}

/// One admission larger than device + host together is tolerated, not
/// rejected: the sequence is admitted whole, pressure demotes it and
/// deletes it from the host like any other victim, and each tier ends
/// inside its budget. Under LRU the older residents go first, so the
/// episode empties both tiers. The next normal request is served from
/// the device as usual.
#[test]
fn sequence_larger_than_device_plus_host_is_tolerated() {
    let m = ModelConfig::hybrid_7b();
    let host_cap = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    let mut c = tiered(two_seq_capacity(&m), host_cap);
    c.insert_at(&seq(0..96), &seq(500..532), 0.0);
    c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0);

    let (input, output) = (seq(50_000..52_000), seq(60_000..60_500));
    let bytes = 2_500 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert!(
        bytes > c.capacity_bytes() + c.host_capacity_bytes(),
        "the shape under test"
    );
    let report = c.insert_at(&input, &output, 2.0);
    assert_eq!(report.bytes_added, bytes, "admitted whole");
    assert_eq!(report.entries_demoted, 3, "both residents, then itself");
    assert_eq!(report.entries_evicted, 3, "…and all three off the host");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    assert!(c.host_usage_bytes() <= c.host_capacity_bytes());
    assert_eq!(c.node_count(), 0);
    c.assert_tier_accounting();

    let (a, b) = (seq(70_000..70_096), seq(70_500..70_532));
    c.insert_at(&a, &b, 3.0);
    let mut turn = a.clone();
    turn.extend_from_slice(&b);
    let hit = c.lookup(&turn);
    assert_eq!(hit.tokens_matched, 128);
    assert_eq!(hit.host_tokens, 0);
    assert!(c.usage_bytes() <= c.capacity_bytes());
    assert_eq!(c.host_usage_bytes(), 0);
    c.assert_tier_accounting();
}

#[test]
fn transformer_mid_edge_host_hits_split_by_tier() {
    // Pure Transformer: a partial match ending inside a demoted edge
    // reports exactly the partial tokens as host-resident.
    let m = ModelConfig::transformer_7b();
    let capacity = 2 * 160 * m.kv_bytes_per_token() + 1;
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(capacity)
        .host_capacity_bytes(1 << 40)
        .policy(EvictionPolicy::Lru)
        .build();
    c.insert_sequence(&seq(0..128), &seq(1000..1032)); // A (demoted below)
    c.insert_sequence(&seq(50_000..50_128), &seq(60_000..60_032));
    c.insert_sequence(&seq(70_000..70_128), &seq(80_000..80_032));
    assert!(c.stats().demotions > 0);

    let r = c.lookup(&seq(0..64));
    assert_eq!(r.tokens_matched, 64);
    assert_eq!(r.host_tokens, 64, "mid-edge partial from a host edge");
    assert_eq!(r.host_bytes, 64 * m.kv_bytes_per_token());
    assert_eq!(r.host_reload_flops, m.prefill_flops(64).total());
}

#[test]
fn tiering_strictly_improves_hit_rate_on_contended_traces() {
    // The acceptance assertion: at a fixed (contended) device capacity,
    // adding a host tier strictly increases token hit rate — evicted-
    // would-be entries keep serving from host — for every policy
    // family.
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(12)
        .seed(7)
        .generate();
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::FlopAware { alpha: 2.0 },
        EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }),
    ] {
        let run = |host: u64| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .host_capacity_bytes(host)
                .policy(policy.clone())
                .build();
            for r in &trace.requests {
                c.lookup_at(&r.input, r.arrival);
                c.insert_at(&r.input, &r.output, r.arrival);
            }
            c.assert_tier_accounting();
            assert!(c.usage_bytes() <= capacity);
            *c.stats()
        };
        let single = run(0);
        let tiered = run(4 << 30);
        assert!(
            single.evictions > 0,
            "{policy}: the trace must be contended"
        );
        assert!(tiered.demotions > 0, "{policy}: pressure must demote");
        assert!(tiered.host_hit_tokens > 0, "{policy}: host must serve");
        assert!(
            tiered.hit_tokens > single.hit_tokens,
            "{policy}: tiering must strictly improve reuse \
             ({} vs {} hit tokens)",
            tiered.hit_tokens,
            single.hit_tokens
        );
        assert_eq!(tiered.input_tokens, single.input_tokens);
    }
}

#[test]
fn split_through_a_host_edge_keeps_accounting_exact() {
    // A new sequence diverging inside a demoted edge splits it; the new
    // intermediate node must inherit the host tier (its tokens came off
    // a host edge) and the inserted path promotes, all without counter
    // drift. The debug asserts in every later pressure episode would
    // catch drift; we also check directly.
    let m = ModelConfig::hybrid_7b();
    let mut c = tiered(two_seq_capacity(&m), 1 << 40);
    c.insert_sequence(&seq(0..96), &seq(500..532)); // A
    c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B
    c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // A → host
    assert!(c.stats().demotions > 0);
    // Diverge at token 48 inside A's demoted 128-token edge.
    let mut div = seq(0..48);
    div.extend(seq(90_000..90_048));
    c.insert_sequence(&div, &seq(95_000..95_008));
    c.assert_tier_accounting();
    // The shared 48-token head was promoted with the inserted path; the
    // 80-token tail of A's old edge stays wherever it was.
    let r = c.lookup(&{
        let mut v = div.clone();
        v.extend(seq(95_000..95_008));
        v
    });
    assert!(r.tokens_matched > 0);
    assert_eq!(r.host_tokens, 0, "freshly inserted path is on device");
}

#[test]
fn branch_heavy_demotion_cannot_strand_device_bytes() {
    // Regression: demotion (unlike deletion) never mutates the tree,
    // so a branch node whose children were all demoted keeps 2+
    // children forever and never enters the candidate pool — its edge
    // KVs would pin the device tier over its hard capacity. The
    // fallback demotion pass must keep device usage within budget
    // anyway. Shape: many tenant prompts, each with two divergent
    // continuations (every prompt becomes a non-candidate branch
    // node).
    let m = ModelConfig::hybrid_7b();
    let capacity = 3 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .host_capacity_bytes(1 << 42)
        .policy(EvictionPolicy::Lru)
        .build();
    for t in 0..40u32 {
        let prompt = seq(t * 100_000..t * 100_000 + 96);
        for branch in 0..2u32 {
            let mut input = prompt.clone();
            input.extend(seq(
                t * 100_000 + 50_000 + branch * 1000..t * 100_000 + 50_000 + branch * 1000 + 32
            ));
            c.insert_sequence(
                &input,
                &seq(t * 100_000 + 90_000 + branch * 100..t * 100_000 + 90_000 + branch * 100 + 8),
            );
            assert!(
                c.usage_bytes() <= c.capacity_bytes(),
                "tenant {t}/{branch}: device tier must never exceed its hard capacity \
                 ({} > {})",
                c.usage_bytes(),
                c.capacity_bytes()
            );
        }
    }
    c.assert_tier_accounting();
    assert!(c.stats().demotions > 0);
    // The stranded prefixes still serve — from host.
    let mut resume = seq(0..96);
    resume.extend(seq(50_000..50_032));
    resume.extend(seq(90_000..90_008));
    let r = c.lookup(&resume);
    assert!(r.is_hit(), "demoted branch-heavy content keeps hitting");
    assert!(r.host_tokens > 0);
}

#[test]
fn zero_host_capacity_never_reports_tier_activity() {
    // Belt and braces for the parity contract: a contended single-tier
    // run must keep every tier-related counter and lookup field at
    // exactly zero.
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(8)
        .seed(3)
        .generate();
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(6000 * m.kv_bytes_per_token())
        .policy(EvictionPolicy::Lru)
        .build();
    for r in &trace.requests {
        let hit = c.lookup_at(&r.input, r.arrival);
        assert_eq!(hit.host_tokens, 0);
        assert_eq!(hit.host_bytes, 0);
        assert_eq!(hit.host_reload_flops, 0);
        let rep = c.insert_at(&r.input, &r.output, r.arrival);
        assert_eq!(rep.entries_demoted, 0);
        assert_eq!(rep.bytes_demoted, 0);
    }
    assert!(c.stats().evictions > 0, "the trace must be contended");
    assert_eq!(c.stats().demotions, 0);
    assert_eq!(c.stats().host_hits, 0);
    assert_eq!(c.stats().host_hit_tokens, 0);
    assert_eq!(c.stats().host_evictions, 0);
    assert_eq!(c.host_usage_bytes(), 0);
}
