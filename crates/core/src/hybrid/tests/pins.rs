// In-flight pinning: a request's admission-time hit path survives
// eviction pressure until the request completes.

/// Pinning parity: with zero *overlapping* lifetimes (each request pins
/// at lookup and unpins before its own insertion, like a serial
/// executor), the victim sequence and stats must be byte-identical to
/// a pin-free run — pins that never coincide with pressure must be
/// invisible.
#[test]
fn non_overlapping_pins_preserve_byte_parity() {
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    let policies: Vec<(EvictionPolicy, u64)> = vec![
        (EvictionPolicy::Lru, 7),
        (EvictionPolicy::FlopAware { alpha: 2.0 }, 11),
        (EvictionPolicy::Gdsf, 13),
        (
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
            }),
            17,
        ),
    ];
    for (policy, seed) in policies {
        let trace = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(12)
            .seed(seed)
            .generate();
        let build = || {
            HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(capacity)
                .policy(policy.clone())
                .build()
        };
        let mut reference = build();
        let mut pinned = build();
        for r in &trace.requests {
            reference.lookup_at(&r.input, r.arrival);
            reference.insert_at(&r.input, &r.output, r.arrival);

            pinned.lookup_at(&r.input, r.arrival);
            let ticket = pinned.pin_prefix(&r.input);
            // The request completes before the next one arrives:
            // release the pin, then admit — zero overlap.
            pinned.unpin(ticket);
            pinned.insert_at(&r.input, &r.output, r.arrival);
        }
        assert!(
            reference.stats.evictions > 0,
            "parity trace must exercise eviction ({policy})"
        );
        assert_same_end_state(&format!("pinned run under {policy}"), &reference, &pinned);
        assert_eq!(pinned.pinned_node_count(), 0, "all tickets were redeemed");
    }
}

/// The headline bug, at the cache level: without pinning, LRU pressure
/// reclaims the path an in-flight request's admission lookup hit; with
/// pinning the victim choice diverges *only* there — pressure takes
/// the next-best victim and the in-flight path survives.
#[test]
fn mid_flight_pin_protects_the_in_flight_hit_path() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 3 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
    let a_in = seq(0..96);
    let a_out = seq(500..532);
    let b_in = seq(10_000..10_096);
    let b_out = seq(10_500..10_532);
    let mut resume_a: Vec<Token> = a_in.clone();
    resume_a.extend_from_slice(&a_out);
    resume_a.extend(seq(2000..2020));
    let mut resume_b: Vec<Token> = b_in.clone();
    resume_b.extend_from_slice(&b_out);

    let run = |pin: bool| {
        let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .build();
        c.insert_at(&a_in, &a_out, 0.0);
        c.insert_at(&b_in, &b_out, 1.0);
        // Request R resumes session A and starts decoding: lookup hits
        // 128 tokens, the pin (when taken) marks them in use.
        let hit = c.lookup_at(&resume_a, 2.0);
        assert_eq!(hit.tokens_matched, 128);
        let ticket = if pin {
            c.pin_prefix(&resume_a)
        } else {
            PinTicket::default()
        };
        // Session B is touched afterwards, so A's path is now the LRU
        // victim — exactly the shape where unpinned eviction corrupts R.
        c.lookup_at(&resume_b, 3.0);
        // Two unrelated completions apply pressure while R decodes.
        c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 4.0);
        c.insert_at(&seq(30_000..30_096), &seq(30_500..30_532), 5.0);
        let still_cached = c.longest_cached_prefix_len(&resume_a);
        // R completes: release the pin, then admit its sequence.
        c.unpin(ticket);
        c.insert_at(&resume_a, &seq(600..616), 6.0);
        assert_eq!(c.pinned_node_count(), 0);
        c.assert_tier_accounting();
        still_cached
    };

    assert_eq!(
        run(false),
        0,
        "unpinned: pressure reclaims the in-flight hit path mid-decode"
    );
    assert_eq!(run(true), 128, "pinned: the in-flight path survives");
}

/// Satellite: all-pinned pressure must degrade gracefully. When every
/// reclaimable byte is pinned and admission pushes 10× over budget,
/// insertion spills (admits over capacity after dropping what it can)
/// instead of livelocking; unpinning makes the bytes reclaimable again.
#[test]
fn all_pinned_pressure_spills_gracefully_instead_of_looping() {
    let m = ModelConfig::hybrid_7b();
    let capacity = two_seq_capacity(&m);
    let mut c = HybridPrefixCache::builder(m.clone())
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Lru)
        .build();
    let a_in = seq(0..96);
    let a_out = seq(500..532);
    let b_in = seq(10_000..10_096);
    let b_out = seq(10_500..10_532);
    c.insert_at(&a_in, &a_out, 0.0);
    c.insert_at(&b_in, &b_out, 1.0);
    let mut resume_a: Vec<Token> = a_in.clone();
    resume_a.extend_from_slice(&a_out);
    let mut resume_b: Vec<Token> = b_in.clone();
    resume_b.extend_from_slice(&b_out);
    let ta = c.pin_prefix(&resume_a);
    let tb = c.pin_prefix(&resume_b);
    assert!(
        c.tree.eviction_candidates().all(|id| c.tree.is_pinned(id)),
        "the shape under test: every eviction candidate is pinned"
    );

    // 10× the byte budget, branching off A's pinned edge so admission
    // also checkpoints a branch SSM state *inside* the pinned chain.
    // Three times over: each must terminate, not loop.
    for round in 0..3u32 {
        let mut giant: Vec<Token> = a_in[..64].to_vec();
        giant.extend(seq(40_000 + round * 10_000..40_000 + round * 10_000 + 2600));
        c.insert_at(
            &giant,
            &seq(700 + round..702 + round),
            2.0 + f64::from(round),
        );
        c.assert_tier_accounting();
    }
    assert!(
        c.usage_bytes() > c.capacity_bytes(),
        "pinned bytes spill over budget rather than being reclaimed"
    );
    assert!(c.pinned_bytes() > 0);
    // The pinned paths are untouched through all of it.
    assert_eq!(c.longest_cached_prefix_len(&resume_a), 128);
    assert_eq!(c.longest_cached_prefix_len(&resume_b), 128);

    // Completion unpins; the next pressure episode reclaims normally.
    c.unpin(ta);
    c.unpin(tb);
    assert_eq!(c.pinned_bytes(), 0);
    c.insert_at(&seq(90_000..90_096), &seq(90_500..90_532), 10.0);
    assert!(
        c.usage_bytes() <= c.capacity_bytes(),
        "with pins released, pressure fits the budget again"
    );
}

#[test]
fn pinned_bytes_are_refcounted_per_path() {
    let m = ModelConfig::hybrid_7b();
    let mut c = marconi(1 << 40);
    let input = seq(0..96);
    let output = seq(500..532);
    c.insert_sequence(&input, &output);
    let mut resume: Vec<Token> = input.clone();
    resume.extend_from_slice(&output);

    assert_eq!(c.pinned_bytes(), 0);
    let t1 = c.pin_prefix(&resume);
    let expected = 128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    assert_eq!(c.pinned_bytes(), expected);
    // A second request over the same prefix shares the pin; bytes are
    // counted once.
    let t2 = c.pin_prefix(&resume);
    assert_eq!(c.pinned_bytes(), expected);
    c.unpin(t1);
    assert_eq!(c.pinned_bytes(), expected, "still held by the second pin");
    c.unpin(t2);
    assert_eq!(c.pinned_bytes(), 0);
    // A miss yields an empty ticket; redeeming it is a no-op.
    let empty = c.pin_prefix(&seq(70_000..70_010));
    assert!(empty.is_empty());
    c.unpin(empty);
    assert_eq!(c.pinned_bytes(), 0);
}

/// The debug-build leak detector: a ticket that pins a hit and is
/// dropped without `unpin` panics, instead of leaving its path
/// protected forever.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "PinTicket leaked")]
fn an_unredeemed_pin_ticket_panics_on_drop() {
    let mut c = marconi(1 << 40);
    let input = seq(0..96);
    let output = seq(500..532);
    c.insert_sequence(&input, &output);
    let mut resume: Vec<Token> = input.clone();
    resume.extend_from_slice(&output);
    let ticket = c.pin_prefix(&resume);
    assert!(!ticket.is_empty(), "the hit is pinned");
    drop(ticket);
}

#[test]
fn replica_clears_live_pins() {
    // Replay replicas model completed-request traces — no request is
    // in flight during a grid-search replay, so a replica must drop the
    // parent's live pins.
    let mut parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 30)
        .build();
    let input = seq(0..96);
    let output = seq(500..532);
    parent.insert_sequence(&input, &output);
    let mut resume: Vec<Token> = input.clone();
    resume.extend_from_slice(&output);
    let ticket = parent.pin_prefix(&resume);
    assert!(parent.pinned_node_count() > 0);

    let replica = parent.replica(1.0);
    assert_eq!(replica.pinned_node_count(), 0, "live pins not inherited");
    assert_eq!(replica.pinned_bytes(), 0);
    parent.unpin(ticket);
}

/// Pins protect against *demotion* too: a tiered cache under device
/// pressure demotes unpinned victims and leaves the pinned path on
/// device (a demoted in-flight path would stall decode on a reload).
#[test]
fn pins_block_demotion_in_the_tiered_cache() {
    let m = ModelConfig::hybrid_7b();
    let capacity = two_seq_capacity(&m);
    let run = |pin: bool| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Lru)
            .build();
        c.insert_at(&seq(0..96), &seq(500..532), 0.0); // A
        c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0); // B
        let mut resume_a: Vec<Token> = seq(0..96);
        resume_a.extend_from_slice(&seq(500..532));
        c.lookup_at(&resume_a, 2.0);
        let ticket = if pin {
            c.pin_prefix(&resume_a)
        } else {
            PinTicket::default()
        };
        let mut resume_b: Vec<Token> = seq(10_000..10_096);
        resume_b.extend_from_slice(&seq(10_500..10_532));
        c.lookup_at(&resume_b, 3.0); // B younger than A's pin
        c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 4.0);
        let probe = c.probe_tiers(&resume_a);
        let on_device = probe.tokens - probe.host_tokens;
        c.unpin(ticket);
        c.assert_tier_accounting();
        on_device
    };
    assert_eq!(run(false), 0, "unpinned: device pressure demotes A to host");
    assert_eq!(run(true), 128, "pinned: A's path stays device-resident");
}

/// `pool_len` means one thing under every policy: the eligible
/// candidates on the pressed tier at episode start. LRU and
/// `FlopAware { α = 0 }` pick identical victims through different
/// arms, so driven to the same tiered, partly pinned state they must
/// report identical episodes — `pool_len` included — and that count
/// must exclude the pinned and the other-tier candidates.
#[test]
fn pool_len_counts_eligible_candidates_under_every_policy() {
    use marconi_trace::{RingRecorder, Tracer};
    let m = ModelConfig::hybrid_7b();
    let capacity = two_seq_capacity(&m);
    let run = |policy: EvictionPolicy| {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(capacity)
            .policy(policy)
            .build();
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 12));
        c.set_tracer(tracer);
        c.insert_at(&seq(0..96), &seq(500..532), 0.0); // A
        c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0); // B
        let mut resume_a: Vec<Token> = seq(0..96);
        resume_a.extend_from_slice(&seq(500..532));
        let ticket = c.pin_prefix(&resume_a);
        assert!(
            c.pinned_node_count() > 0,
            "the state under test is partly pinned"
        );
        // Four more sequences: device pressure demotes around A's pin,
        // then host pressure deletes.
        for i in 2..6u32 {
            let base = i * 10_000;
            c.insert_at(
                &seq(base..base + 96),
                &seq(base + 500..base + 532),
                f64::from(i),
            );
        }
        c.unpin(ticket);
        assert!(c.stats.demotions > 0 && c.stats.host_evictions > 0);
        let rec = recorder.lock().expect("lock: test-local recorder");
        let episodes: Vec<(TraceTier, u64, Vec<u64>)> = rec
            .events()
            .filter_map(|e| match &e.event {
                TraceEvent::EvictionEpisode {
                    tier,
                    pool_len,
                    victims,
                    ..
                } => Some((*tier, *pool_len, victims.iter().map(|v| v.node).collect())),
                _ => None,
            })
            .collect();
        episodes
    };
    let lru = run(EvictionPolicy::Lru);
    assert_eq!(
        lru,
        run(EvictionPolicy::FlopAware { alpha: 0.0 }),
        "same state, same victims: the episodes must agree, pool_len included"
    );
    // Every sequence is one leaf under the root (slots 1..=6 in
    // admission order) and the device tier holds two. A (slot 1) is
    // pinned throughout, so each device episode chooses between the
    // previous arrival and the new one — 2 eligible, however many
    // candidates the two tiers hold in total — and each host episode
    // between the three demoted so far.
    use TraceTier::{Device, Host};
    assert_eq!(
        lru,
        vec![
            (Device, 2, vec![2]),
            (Device, 2, vec![3]),
            (Device, 2, vec![4]),
            (Host, 3, vec![2]),
            (Device, 2, vec![5]),
            (Host, 3, vec![3]),
        ]
    );
}
