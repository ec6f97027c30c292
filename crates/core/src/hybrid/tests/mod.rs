//! The cache's unit tests, one file per topic.
//!
//! The topic files are `include!`d, not declared as modules, so every test
//! keeps its `hybrid::tests::` path: CI's `--lib parity` and `--lib cursor`
//! filters, and the recorded test lists, name tests by that path. The
//! shared helpers and imports below are in scope in every topic file.
//! `cargo fmt` does not follow `include!`; CI runs `rustfmt --check` on
//! the topic files by name.

use super::differential::{assert_parity, assert_zero_byte_parity, auto_tuned, Drive};
use super::*;
use crate::oracle::{replay, SequenceEvent};
use crate::policy::efficiency_class;
use crate::TunerConfig;
use marconi_trace::TraceTier;

fn marconi(capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .build()
}

fn sglang(capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .policy(EvictionPolicy::Lru)
        .build()
}

fn seq(range: std::ops::Range<u32>) -> Vec<Token> {
    range.collect()
}

/// The parity contract between two replays of one trace: byte-identical
/// victim sequences, stats, device and host usage, α, node count and
/// token count. `label` names the replay under test in every failure.
fn assert_same_end_state(label: &str, reference: &HybridPrefixCache, other: &HybridPrefixCache) {
    assert_eq!(
        reference.eviction_log, other.eviction_log,
        "{label}: victim sequence diverged"
    );
    assert_eq!(reference.stats, other.stats, "{label}: stats diverged");
    assert_eq!(reference.usage(), other.usage(), "{label}: usage");
    assert_eq!(
        reference.host_usage_bytes(),
        other.host_usage_bytes(),
        "{label}: host usage"
    );
    assert_eq!(
        reference.effective_alpha, other.effective_alpha,
        "{label}: tuned α diverged"
    );
    assert_eq!(
        reference.tree.len(),
        other.tree.len(),
        "{label}: node count"
    );
    assert_eq!(
        reference.tree.token_count(),
        other.tree.token_count(),
        "{label}: tree contents"
    );
}

/// Capacity that fits exactly two 128-token single-checkpoint
/// sequences, like the LRU tests in `eviction.rs`.
fn two_seq_capacity(m: &ModelConfig) -> u64 {
    2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1
}

fn tiered(capacity: u64, host_capacity: u64) -> HybridPrefixCache {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .host_capacity_bytes(host_capacity)
        .policy(EvictionPolicy::Lru)
        .build()
}

include!("admission.rs");
include!("eviction.rs");
include!("probes.rs");
include!("tuner.rs");
include!("parity.rs");
include!("tiering.rs");
include!("pins.rs");
include!("every_block.rs");
