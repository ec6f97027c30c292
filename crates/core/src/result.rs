//! Lookup and admission result types.

use marconi_radix::NodeId;
use serde::{Deserialize, Serialize};

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LookupResult {
    /// Tokens of prefill skipped: the length of the longest *reusable*
    /// cached prefix. For hybrid models this is the depth of the deepest
    /// matched node holding an SSM checkpoint; for pure Transformers it is
    /// the raw matched length.
    pub tokens_matched: u64,
    /// Longest raw prefix of the query present in the cache's data
    /// structure, ignoring the SSM checkpoint constraint. The gap
    /// `raw_matched - tokens_matched` measures reuse lost to the
    /// all-or-nothing property.
    pub raw_matched: u64,
    /// The node whose state is reused, when the cache is tree-based.
    pub node: Option<NodeId>,
    /// FLOPs of prefill compute this hit saves (paper's accounting: the
    /// full prefill cost of the matched prefix).
    pub flops_saved: u128,
    /// Tokens of the matched prefix whose state is host-resident (demoted
    /// to host DRAM). Zero for a single-tier cache; the device-tier share
    /// is `tokens_matched - host_tokens`.
    pub host_tokens: u64,
    /// Bytes that must cross PCIe to serve the host-resident share of the
    /// hit: the host-tier edge KVs on the matched path plus the hit node's
    /// SSM checkpoint when that checkpoint is host-resident.
    pub host_bytes: u64,
    /// Prefill FLOPs it would cost to *recompute* the host-resident token
    /// spans instead of transferring them — the other arm of the
    /// compute-or-load decision. (Idealized roll-forward accounting: each
    /// span is charged its incremental prefill FLOPs at its position.)
    pub host_reload_flops: u128,
}

impl LookupResult {
    /// A complete miss.
    pub const MISS: LookupResult = LookupResult {
        tokens_matched: 0,
        raw_matched: 0,
        node: None,
        flops_saved: 0,
        host_tokens: 0,
        host_bytes: 0,
        host_reload_flops: 0,
    };

    /// `true` if any prefix was reused.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.tokens_matched > 0
    }

    /// `true` if serving this hit touches host-resident state (a transfer
    /// or recompute is needed before the prefix is usable on the device).
    #[must_use]
    pub fn needs_reload(&self) -> bool {
        self.host_tokens > 0
    }
}

/// Outcome of admitting a finished request into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct AdmissionReport {
    /// SSM checkpoints newly admitted for this sequence (≤ 2 under
    /// Marconi's judicious admission; one per new token block under
    /// vLLM+'s [`CheckpointMode::EveryBlock`](crate::CheckpointMode::EveryBlock)).
    pub ssm_states_admitted: u64,
    /// Token depth of the branch-point checkpoint taken during prefill, if
    /// speculative insertion predicted a new intermediate node.
    pub branch_checkpoint_depth: Option<u64>,
    /// Bytes the admitted states added to the cache (before eviction).
    pub bytes_added: u64,
    /// Bytes released by evictions triggered by this admission.
    pub bytes_evicted: u64,
    /// Entries (nodes or blocks) evicted by this admission.
    pub entries_evicted: u64,
    /// Entries demoted device → host by this admission's pressure episode
    /// (tiered caches only).
    pub entries_demoted: u64,
    /// Bytes moved device → host by those demotions.
    pub bytes_demoted: u64,
}

/// Cumulative block-reuse accounting under
/// [`CheckpointMode::EveryBlock`](crate::CheckpointMode::EveryBlock), for
/// regenerating Fig. 3a ([`HybridPrefixCache::block_reuse`](crate::HybridPrefixCache::block_reuse)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockReuseReport {
    /// Token blocks ever admitted.
    pub blocks_created: u64,
    /// Blocks whose KVs were reused by at least one later request.
    pub kv_reused: u64,
    /// Blocks whose SSM checkpoint was reused by at least one later
    /// request (only the *last* block of a matched prefix reuses its SSM
    /// state — the source of sparsely-hit entries).
    pub ssm_reused: u64,
}

impl BlockReuseReport {
    /// Fraction of blocks whose KVs were ever reused.
    #[must_use]
    pub fn kv_reuse_fraction(&self) -> f64 {
        if self.blocks_created == 0 {
            return 0.0;
        }
        self.kv_reused as f64 / self.blocks_created as f64
    }

    /// Fraction of blocks whose SSM state was ever reused.
    #[must_use]
    pub fn ssm_reuse_fraction(&self) -> f64 {
        if self.blocks_created == 0 {
            return 0.0;
        }
        self.ssm_reused as f64 / self.blocks_created as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_is_not_a_hit() {
        assert!(!LookupResult::MISS.is_hit());
    }

    #[test]
    fn tier_split_of_a_hit() {
        let r = LookupResult {
            tokens_matched: 100,
            raw_matched: 100,
            host_tokens: 40,
            host_bytes: 1024,
            host_reload_flops: 1 << 30,
            ..LookupResult::MISS
        };
        assert!(r.needs_reload());
        assert!(r.is_hit());
        assert!(!LookupResult::MISS.needs_reload());
    }
}
