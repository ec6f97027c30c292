// The α tuner and its replicas: the bootstrap lifecycle, the grid
// search, and a replica's fidelity to its parent under every knob.

#[test]
fn auto_tuner_walks_through_lifecycle() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }))
        .build();
    assert_eq!(c.tuner_state(), Some(TunerState::WaitingForFirstEviction));
    let mut i = 0u32;
    while !matches!(c.tuner_state(), Some(TunerState::Tuned { .. })) {
        let input = seq(i * 10_000..i * 10_000 + 128 + (i % 7) * 64);
        let output = seq(i * 10_000 + 5000..i * 10_000 + 5032);
        c.lookup(&input);
        c.insert_at(&input, &output, f64::from(i));
        i += 1;
        assert!(i < 500, "tuner failed to converge");
    }
    assert!(c.current_alpha() >= 0.0);
    assert!(c.stats().evictions > 0);
}

#[test]
fn tuner_grid_search_is_deterministic() {
    let m = ModelConfig::hybrid_7b();
    let capacity = 3 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let run = || {
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 0.5, 2.0],
            }))
            .build();
        for i in 0..200u32 {
            let input = seq(i * 10_000..i * 10_000 + 64 + (i % 5) * 200);
            let output = seq(i * 10_000 + 5000..i * 10_000 + 5016);
            c.lookup_at(&input, f64::from(i));
            c.insert_at(&input, &output, f64::from(i));
        }
        c.current_alpha()
    };
    assert_eq!(run(), run());
}

#[test]
fn replica_mirrors_parent_configuration() {
    // The α grid-search must replay against a cache with the *same*
    // semantics as the live one; a drifted replica tunes α for a system
    // that doesn't exist.
    let parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 30)
        .checkpoint_mode(CheckpointMode::Chunked { chunk_size: 32 })
        .refresh_ancestors(true)
        .leaf_only_eviction(true)
        .build();
    let mut parent = parent;
    let seq: Vec<Token> = (0..64).collect();
    parent.insert_sequence(&seq, &[]);
    parent.insert_sequence(&seq[..32], &[]);
    let replica = parent.replica(1.5);
    assert_eq!(replica.checkpoint_mode, parent.checkpoint_mode);
    assert_eq!(replica.refresh_ancestors, parent.refresh_ancestors);
    // Leaf-only eviction lives in the tree: the one-child node at 32 is
    // no candidate in the replica either.
    assert_eq!(replica.eviction_candidate_count(), 1);
    assert_eq!(replica.effective_alpha, 1.5);
}

#[test]
fn chunked_tuner_replay_reproduces_chunked_checkpoint_depths() {
    // Regression for the replica config drift: a Chunked{32} cache's
    // replay replica must checkpoint a branch at depth 80 at the chunk
    // boundary 64, exactly like the live cache — not at 80 as the old
    // hardcoded Exact replica did.
    let parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 42)
        .checkpoint_mode(CheckpointMode::Chunked { chunk_size: 32 })
        .build();
    let mut replica = parent.replica(0.5);
    let prompt = seq(0..80);
    let mk = |tag: u32| {
        let mut v = prompt.clone();
        v.extend(seq(tag..tag + 16));
        v
    };
    replica.insert_sequence(&mk(1000), &seq(9000..9004));
    let rep = replica.insert_sequence(&mk(2000), &seq(9100..9104));
    assert_eq!(
        rep.branch_checkpoint_depth,
        Some(64),
        "replica must inherit the parent's chunked checkpointing"
    );
    assert_eq!(replica.lookup(&mk(3000)).tokens_matched, 64);
}

/// The tuner's fidelity contract, stated as behaviour: a replica taken
/// mid-trace replays the rest of the trace exactly like its parent,
/// under every knob a lookup-then-insert replay can observe. A knob
/// the replica dropped or reset splits the two replays.
#[test]
fn a_replica_replays_exactly_like_its_parent_under_every_knob() {
    use marconi_workload::{DatasetKind, TraceGenerator};
    let m = ModelConfig::hybrid_7b();
    let capacity = 9000 * m.kv_bytes_per_token();
    let events: Vec<SequenceEvent> = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(48)
        .tenants(4)
        .seed(23)
        .generate()
        .requests
        .into_iter()
        .map(|r| SequenceEvent {
            input: r.input,
            output: r.output,
            at: r.arrival,
        })
        .collect();
    let (warm, window) = events.split_at(events.len() / 2);
    for bits in 0..16u8 {
        let (host_tier, chunked, refresh, leaf_only) =
            (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
        let knobs = format!(
            "host_tier={host_tier} chunked={chunked} refresh={refresh} leaf_only={leaf_only}"
        );
        let mut parent = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(capacity)
            .host_capacity_bytes(if host_tier { capacity / 2 } else { 0 })
            .checkpoint_mode(if chunked {
                CheckpointMode::Chunked { chunk_size: 32 }
            } else {
                CheckpointMode::Exact
            })
            .refresh_ancestors(refresh)
            .leaf_only_eviction(leaf_only)
            .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
            .build();
        replay(&mut parent, warm);
        let mut replica = parent.replica(2.0);
        let (before, logged) = (parent.stats, parent.eviction_log.len());
        let mut expected = replay(&mut parent, window).delta_since(&before);
        let mut got = replay(&mut replica, window);
        // A high-water mark, not a counter: the parent's spans both
        // halves.
        expected.peak_usage_bytes = 0;
        got.peak_usage_bytes = 0;
        assert!(got.evictions > 0, "the window must evict ({knobs})");
        assert_eq!(got, expected, "stats diverged ({knobs})");
        assert_eq!(
            replica.eviction_log,
            parent.eviction_log[logged..],
            "victims diverged ({knobs})"
        );
        assert_eq!(replica.usage(), parent.usage(), "{knobs}");
        assert_eq!(replica.host_usage(), parent.host_usage(), "{knobs}");
    }
}

#[test]
fn replica_mirrors_tier_knobs() {
    // PR 2's tuner-fidelity invariant extended to the tier dimension:
    // a tiered cache's replay replicas must be tiered the same way, or
    // the α grid-search tunes against a single-tier system that
    // doesn't exist.
    let parent = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(1 << 30)
        .host_capacity_bytes(3 << 30)
        .reload_policy(ReloadPolicy::AlwaysReload)
        .build();
    let replica = parent.replica(1.0);
    assert_eq!(replica.host_capacity, parent.host_capacity);
    assert_eq!(replica.reload_policy, parent.reload_policy);
    assert_eq!(replica.reload_policy(), ReloadPolicy::AlwaysReload);
}

#[test]
fn tiered_auto_tuner_replays_against_a_tiered_replica() {
    // End to end: drive a tiered AutoTuned cache through its whole
    // tuner lifecycle under contention; the replay replicas inherit
    // the host tier (the run would diverge or panic on accounting
    // drift otherwise) and the tuned cache stays within both budgets.
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .host_capacity_bytes(capacity)
        .policy(EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }))
        .build();
    let mut i = 0u32;
    while !matches!(c.tuner_state(), Some(TunerState::Tuned { .. })) {
        let input = seq(i * 10_000..i * 10_000 + 128 + (i % 7) * 64);
        let output = seq(i * 10_000 + 5000..i * 10_000 + 5032);
        c.lookup_at(&input, f64::from(i));
        c.insert_at(&input, &output, f64::from(i));
        i += 1;
        assert!(i < 500, "tuner failed to converge");
    }
    assert!(c.stats().demotions > 0, "the host tier absorbed pressure");
    assert!(c.usage_bytes() <= c.capacity_bytes());
    assert!(c.host_usage_bytes() <= c.host_capacity_bytes());
    c.assert_tier_accounting();
}

#[test]
fn tuner_bootstraps_on_demotion_pressure_without_any_deletion() {
    // Regression: the bootstrap trigger predates tiering and fired on
    // the first *eviction*; with an ample host budget device pressure
    // only ever demotes, and the tuner would wait forever, silently
    // serving the untuned initial α. The first demotion must start the
    // bootstrap window too.
    let m = ModelConfig::hybrid_7b();
    let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
    let mut c = HybridPrefixCache::builder(m)
        .capacity_bytes(capacity)
        .host_capacity_bytes(1 << 42) // never fills: zero deletions
        .policy(EvictionPolicy::AutoTuned(TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 1.0, 4.0],
        }))
        .build();
    let mut i = 0u32;
    while !matches!(c.tuner_state(), Some(TunerState::Tuned { .. })) {
        let input = seq(i * 10_000..i * 10_000 + 128 + (i % 7) * 64);
        let output = seq(i * 10_000 + 5000..i * 10_000 + 5032);
        c.lookup_at(&input, f64::from(i));
        c.insert_at(&input, &output, f64::from(i));
        i += 1;
        assert!(
            i < 500,
            "tuner failed to converge under demotion-only pressure"
        );
    }
    assert_eq!(c.stats().evictions, 0, "nothing was ever deleted");
    assert!(c.stats().demotions > 0, "demotions drove the bootstrap");
}
