//! Offline-optimal static-α oracle (the artifact's eviction policy "V3"),
//! and the lookup-then-insert [`replay`] every α sweep runs.
//!
//! Sweeps α over a grid by replaying an *entire* recorded trace per value
//! and reports the hit-rate-maximizing choice — an upper bound for any
//! static-α configuration that Marconi's online tuner tries to approach
//! with only a bootstrap window of information. The sweep is the tuner's
//! own (`tuner::sweep`); only the replayed cache and window differ.

use crate::policy::EvictionPolicy;
use crate::tuner::{best, sweep};
use crate::{CacheStats, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_radix::Token;
use serde::{Deserialize, Serialize};

/// One request of a recorded trace: what was prefilled, what was decoded,
/// and when.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceEvent {
    /// Prefill tokens.
    pub input: Vec<Token>,
    /// Decoded tokens.
    pub output: Vec<Token>,
    /// Arrival time in seconds.
    pub at: f64,
}

/// Result of an offline α sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleOutcome {
    /// The hit-rate-maximizing α.
    pub best_alpha: f64,
    /// Token hit rate achieved by `best_alpha`.
    pub best_hit_rate: f64,
    /// `(α, token hit rate)` for every grid point, in grid order.
    pub sweep: Vec<(f64, f64)>,
}

/// Replays `events` through `cache` — a lookup, then the admission, per
/// request — and returns its stats.
pub fn replay(cache: &mut HybridPrefixCache, events: &[SequenceEvent]) -> CacheStats {
    for e in events {
        cache.lookup_at(&e.input, e.at);
        cache.insert_at(&e.input, &e.output, e.at);
    }
    *cache.stats()
}

/// Replays `events` through a fresh fixed-α cache and returns its stats.
#[must_use]
pub fn replay_with_alpha(
    model: &ModelConfig,
    capacity_bytes: u64,
    events: &[SequenceEvent],
    alpha: f64,
) -> CacheStats {
    let mut cache = HybridPrefixCache::builder(model.clone())
        .capacity_bytes(capacity_bytes)
        .policy(EvictionPolicy::FlopAware { alpha })
        .build();
    replay(&mut cache, events)
}

/// Sweeps the α grid over the full trace, one thread per α, and returns
/// the best static configuration.
///
/// Ties break toward the smaller α, like the online tuner.
///
/// # Panics
///
/// Panics if `grid` is empty.
#[must_use]
pub fn best_static_alpha(
    model: &ModelConfig,
    capacity_bytes: u64,
    events: &[SequenceEvent],
    grid: &[f64],
) -> OracleOutcome {
    let sweep = sweep(grid, |alpha| {
        replay_with_alpha(model, capacity_bytes, events, alpha).token_hit_rate()
    });
    let (best_alpha, best_hit_rate) = best(&sweep);
    OracleOutcome {
        best_alpha,
        best_hit_rate,
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(range: std::ops::Range<u32>) -> Vec<Token> {
        range.collect()
    }

    fn toy_trace() -> Vec<SequenceEvent> {
        // A long recurring conversation interleaved with one-shot short
        // requests: FLOP-aware eviction should protect the long prefix.
        let mut events = Vec::new();
        let mut history = seq(0..2048);
        for i in 0..30u32 {
            events.push(SequenceEvent {
                input: history.clone(),
                output: seq(500_000 + i * 100..500_000 + i * 100 + 32),
                at: f64::from(i) * 2.0,
            });
            history.extend(seq(500_000 + i * 100..500_000 + i * 100 + 32));
            events.push(SequenceEvent {
                input: seq(100_000 * (i + 1)..100_000 * (i + 1) + 128),
                output: seq(900_000 + i * 10..900_000 + i * 10 + 8),
                at: f64::from(i) * 2.0 + 1.0,
            });
        }
        events
    }

    fn small_capacity() -> u64 {
        let m = ModelConfig::hybrid_7b();
        3000 * m.kv_bytes_per_token() + 6 * m.ssm_checkpoint_bytes()
    }

    #[test]
    fn oracle_never_underperforms_lru_on_the_grid() {
        let m = ModelConfig::hybrid_7b();
        let outcome = best_static_alpha(&m, small_capacity(), &toy_trace(), &[0.0, 1.0, 4.0]);
        let lru = outcome.sweep[0].1;
        assert_eq!(outcome.sweep[0].0, 0.0);
        assert!(outcome.best_hit_rate >= lru);
        assert_eq!(outcome.sweep.len(), 3);
    }

    #[test]
    fn replay_is_deterministic() {
        let m = ModelConfig::hybrid_7b();
        let s1 = replay_with_alpha(&m, small_capacity(), &toy_trace(), 1.0);
        let s2 = replay_with_alpha(&m, small_capacity(), &toy_trace(), 1.0);
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        let m = ModelConfig::hybrid_7b();
        let _ = best_static_alpha(&m, 1 << 30, &[], &[]);
    }
}
