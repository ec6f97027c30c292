//! The vLLM+ baseline: fine-grained token-block checkpointing.
//!
//! vLLM partitions cached state into fixed-size token blocks. Extended to
//! hybrid models ("vLLM+", paper §5.1), every block stores the KVs of its
//! tokens *and* one full-model SSM checkpoint representing all tokens up to
//! the block boundary — the fine-grained checkpointing whose memory blow-up
//! and sparsely-hit entries motivate Marconi (§3, Fig. 3).

use crate::result::{AdmissionReport, LookupResult};
use crate::stats::CacheStats;
use crate::PrefixCache;
use marconi_model::ModelConfig;
use marconi_radix::Token;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index key: parent block (`0` = sequence start, else id + 1) plus the
/// block's tokens. Mirrors vLLM's prefix-hashing block table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BlockKey {
    parent: u32,
    tokens: Box<[Token]>,
}

#[derive(Debug, Clone)]
struct Block {
    parent: Option<u32>,
    tokens: Box<[Token]>,
    depth: u64,
    last_access: f64,
    children: u32,
    kv_reused: bool,
    ssm_reused: bool,
}

/// Cumulative block-reuse accounting for regenerating Fig. 3a.
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

/// Fine-grained block-checkpointing prefix cache (the paper's vLLM+).
///
/// Lookups and admissions operate at token-block granularity; eviction is
/// LRU over leaf blocks (blocks no other cached block extends).
///
/// # Examples
///
/// ```
/// use marconi_core::{BlockCache, PrefixCache};
/// use marconi_model::ModelConfig;
///
/// let mut cache = BlockCache::builder(ModelConfig::hybrid_7b())
///     .capacity_bytes(4 << 30)
///     .block_size(32)
///     .build();
/// let input: Vec<u32> = (0..100).collect();
/// cache.insert_at(&input, &[], 1.0);
/// // 100 tokens = 3 full blocks of 32; hits are block-quantized.
/// assert_eq!(cache.lookup_at(&input, 2.0).tokens_matched, 96);
/// ```
#[derive(Debug, Clone)]
pub struct BlockCache {
    model: ModelConfig,
    capacity: u64,
    block_size: u64,
    arena: Vec<Option<Block>>,
    free: Vec<u32>,
    index: HashMap<BlockKey, u32>,
    live_blocks: u64,
    stats: CacheStats,
    reuse: BlockReuseReport,
}

impl BlockCache {
    /// Starts building a vLLM+ cache for `model`.
    ///
    /// Defaults: 16 GiB capacity, block size 32 (the largest size vLLM
    /// natively supports, which favors this baseline — §5.1).
    #[must_use]
    pub fn builder(model: ModelConfig) -> BlockCacheBuilder {
        BlockCacheBuilder {
            model,
            capacity: 16 << 30,
            block_size: 32,
        }
    }

    /// Cumulative reuse accounting (Fig. 3a).
    #[must_use]
    pub fn reuse_report(&self) -> BlockReuseReport {
        self.reuse
    }

    // ------------------------------------------------------------------

    /// Bytes per cached block: KVs for `block_size` tokens plus one
    /// full-model SSM checkpoint.
    fn block_bytes(&self) -> u64 {
        self.block_size * self.model.kv_bytes_per_token() + self.model.ssm_checkpoint_bytes()
    }

    fn usage(&self) -> u64 {
        self.live_blocks * self.block_bytes()
    }

    fn parent_key(parent: Option<u32>) -> u32 {
        parent.map_or(0, |p| p + 1)
    }

    fn block(&self, id: u32) -> &Block {
        self.arena[id as usize]
            .as_ref()
            .expect("invariant: block ids in the index refer to live arena slots")
    }

    fn block_mut(&mut self, id: u32) -> &mut Block {
        self.arena[id as usize]
            .as_mut()
            .expect("invariant: block ids in the index refer to live arena slots")
    }

    /// Walks the block chain matching `input`, returning matched block ids.
    fn match_blocks(&self, input: &[Token]) -> Vec<u32> {
        let b = self.block_size as usize;
        let mut matched = Vec::new();
        let mut parent: Option<u32> = None;
        let mut pos = 0usize;
        while pos + b <= input.len() {
            let key = BlockKey {
                parent: Self::parent_key(parent),
                tokens: input[pos..pos + b].into(),
            };
            match self.index.get(&key) {
                Some(&id) => {
                    matched.push(id);
                    parent = Some(id);
                    pos += b;
                }
                None => break,
            }
        }
        matched
    }

    fn evict_until_fits(&mut self, report: &mut AdmissionReport) {
        while self.usage() > self.capacity && self.live_blocks > 0 {
            // LRU over leaf blocks: a block no other block extends.
            let victim = self
                .arena
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.as_ref().map(|blk| (i as u32, blk)))
                .filter(|(_, blk)| blk.children == 0)
                .min_by(|a, b| {
                    a.1.last_access
                        .total_cmp(&b.1.last_access)
                        .then(a.0.cmp(&b.0))
                })
                .map(|(id, _)| id)
                .expect("invariant: a non-empty block set has a leaf");
            self.remove_block(victim);
            let freed = self.block_bytes();
            self.stats.evictions += 1;
            self.stats.bytes_evicted += freed;
            report.entries_evicted += 1;
            report.bytes_evicted += freed;
        }
    }

    fn remove_block(&mut self, id: u32) {
        let block = self.arena[id as usize]
            .take()
            .expect("invariant: block ids in the index refer to live arena slots");
        debug_assert_eq!(block.children, 0, "only leaf blocks are evicted");
        let key = BlockKey {
            parent: Self::parent_key(block.parent),
            tokens: block.tokens.clone(),
        };
        self.index.remove(&key);
        if let Some(p) = block.parent {
            self.block_mut(p).children -= 1;
        }
        self.free.push(id);
        self.live_blocks -= 1;
    }
}

impl PrefixCache for BlockCache {
    fn name(&self) -> &str {
        "vllm+"
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        // `match_blocks` only walks the index; no recency or reuse flags
        // are touched.
        self.match_blocks(input).len() as u64 * self.block_size
    }

    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
        let matched = self.match_blocks(input);
        let tokens = matched.len() as u64 * self.block_size;
        for (i, &id) in matched.iter().enumerate() {
            let last = i + 1 == matched.len();
            let block = self.block_mut(id);
            block.last_access = now;
            let fresh_kv = !block.kv_reused;
            block.kv_reused = true;
            // Only the final block's SSM state is consumed; earlier blocks
            // contribute KVs alone (paper §3: sparsely-hit SSM entries).
            let fresh_ssm = last && !block.ssm_reused;
            if last {
                block.ssm_reused = true;
            }
            if fresh_kv {
                self.reuse.kv_reused += 1;
            }
            if fresh_ssm {
                self.reuse.ssm_reused += 1;
            }
        }
        let result = LookupResult {
            tokens_matched: tokens,
            raw_matched: tokens,
            flops_saved: self.model.flops_saved(tokens),
            ..LookupResult::MISS
        };
        self.stats.lookups += 1;
        self.stats.input_tokens += input.len() as u64;
        self.stats.hit_tokens += tokens;
        self.stats.flops_saved += result.flops_saved;
        if result.is_hit() {
            self.stats.hits += 1;
        }
        result
    }

    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        let mut full: Vec<Token> = Vec::with_capacity(input.len() + output.len());
        full.extend_from_slice(input);
        full.extend_from_slice(output);
        let b = self.block_size as usize;
        let mut report = AdmissionReport::default();
        let mut parent: Option<u32> = None;
        let mut pos = 0usize;
        while pos + b <= full.len() {
            let tokens: Box<[Token]> = full[pos..pos + b].into();
            let key = BlockKey {
                parent: Self::parent_key(parent),
                tokens: tokens.clone(),
            };
            let id = match self.index.get(&key) {
                Some(&id) => {
                    self.block_mut(id).last_access = now;
                    id
                }
                None => {
                    let block = Block {
                        parent,
                        tokens,
                        depth: (pos + b) as u64,
                        last_access: now,
                        children: 0,
                        kv_reused: false,
                        ssm_reused: false,
                    };
                    let id = match self.free.pop() {
                        Some(slot) => {
                            self.arena[slot as usize] = Some(block);
                            slot
                        }
                        None => {
                            self.arena.push(Some(block));
                            (self.arena.len() - 1) as u32
                        }
                    };
                    self.index.insert(key, id);
                    if let Some(p) = parent {
                        self.block_mut(p).children += 1;
                    }
                    self.live_blocks += 1;
                    self.reuse.blocks_created += 1;
                    report.ssm_states_admitted += 1;
                    report.bytes_added += self.block_bytes();
                    id
                }
            };
            debug_assert_eq!(self.block(id).depth, (pos + b) as u64);
            parent = Some(id);
            pos += b;
        }
        self.stats.insertions += 1;
        self.stats.ssm_states_admitted += report.ssm_states_admitted;
        self.stats.peak_usage_bytes = self.stats.peak_usage_bytes.max(self.usage());
        self.evict_until_fits(&mut report);
        report
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn usage_bytes(&self) -> u64 {
        self.usage()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

/// Builder for [`BlockCache`]; see [`BlockCache::builder`].
#[derive(Debug, Clone)]
pub struct BlockCacheBuilder {
    model: ModelConfig,
    capacity: u64,
    block_size: u64,
}

impl BlockCacheBuilder {
    /// Sets the cache capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Sets the token-block size (default 32).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn block_size(mut self, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        self.block_size = block_size;
        self
    }

    /// Builds the cache.
    pub fn build(self) -> BlockCache {
        BlockCache {
            model: self.model,
            capacity: self.capacity,
            block_size: self.block_size,
            arena: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            live_blocks: 0,
            stats: CacheStats::default(),
            reuse: BlockReuseReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache driven on a logical clock: each call is one tick later.
    struct Clocked {
        cache: BlockCache,
        now: f64,
    }

    impl Clocked {
        fn lookup(&mut self, input: &[Token]) -> LookupResult {
            self.now += 1.0;
            self.cache.lookup_at(input, self.now)
        }

        fn insert_sequence(&mut self, input: &[Token], output: &[Token]) {
            self.now += 1.0;
            self.cache.insert_at(input, output, self.now);
        }
    }

    impl std::ops::Deref for Clocked {
        type Target = BlockCache;

        fn deref(&self) -> &BlockCache {
            &self.cache
        }
    }

    fn clocked(cache: BlockCache) -> Clocked {
        Clocked { cache, now: 0.0 }
    }

    fn cache(capacity: u64) -> Clocked {
        clocked(
            BlockCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(capacity)
                .build(),
        )
    }

    fn seq(range: std::ops::Range<u32>) -> Vec<Token> {
        range.collect()
    }

    #[test]
    fn hits_are_block_quantized() {
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..100), &[]);
        assert_eq!(c.lookup(&seq(0..100)).tokens_matched, 96);
        assert_eq!(c.lookup(&seq(0..64)).tokens_matched, 64);
        assert_eq!(c.lookup(&seq(0..31)).tokens_matched, 0, "sub-block miss");
        assert_eq!(c.live_blocks, 3, "partial tail block not cached");
    }

    #[test]
    fn divergent_suffix_stops_the_match() {
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..128), &[]);
        let mut q = seq(0..64);
        q.extend(seq(900..964));
        assert_eq!(c.lookup(&q).tokens_matched, 64);
    }

    #[test]
    fn usage_counts_kv_and_ssm_per_block() {
        let m = ModelConfig::hybrid_7b();
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..64), &[]);
        let per_block = 32 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
        assert_eq!(c.usage_bytes(), 2 * per_block);
    }

    #[test]
    fn shared_prefix_blocks_are_deduplicated() {
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..64), &[]);
        let mut other = seq(0..64);
        other.extend(seq(700..764));
        c.insert_sequence(&other, &[]);
        // 2 shared + 2 unshared blocks.
        assert_eq!(c.live_blocks, 4);
    }

    #[test]
    fn lru_eviction_prefers_leaf_blocks() {
        let m = ModelConfig::hybrid_7b();
        let per_block = 32 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
        let mut c = clocked(BlockCache::builder(m).capacity_bytes(3 * per_block).build());
        c.insert_sequence(&seq(0..96), &[]); // 3 blocks, chain
        c.insert_sequence(&seq(1000..1032), &[]); // forces one eviction
        assert_eq!(c.live_blocks, 3);
        // The tail block of the old chain was evicted, not its root: the
        // first 64 tokens still hit.
        assert_eq!(c.lookup(&seq(0..96)).tokens_matched, 64);
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn fig3a_ssm_reuse_much_rarer_than_kv_reuse() {
        // Many conversation resumes: all prefix blocks' KVs get reused but
        // only the final block's SSM state each time.
        let mut c = cache(1 << 42);
        let mut history = seq(0..320);
        c.insert_sequence(&history, &[]);
        for turn in 0..5u32 {
            let r = c.lookup(&history);
            assert!(r.is_hit());
            let extension = seq(10_000 * (turn + 1)..10_000 * (turn + 1) + 320);
            history.extend(extension);
            c.insert_sequence(&history, &[]);
        }
        let rep = c.reuse_report();
        assert!(rep.kv_reuse_fraction() > 3.0 * rep.ssm_reuse_fraction());
        assert!(rep.blocks_created > 0);
    }

    #[test]
    fn reuse_flags_latch_once() {
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..32), &[]);
        c.lookup(&seq(0..32));
        c.lookup(&seq(0..32));
        let rep = c.reuse_report();
        assert_eq!(rep.kv_reused, 1);
        assert_eq!(rep.ssm_reused, 1);
    }

    #[test]
    fn insert_extends_existing_chain() {
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..64), &[]);
        c.insert_sequence(&seq(0..64), &seq(64..128));
        assert_eq!(c.live_blocks, 4);
        let mut q = seq(0..64);
        q.extend(seq(64..128));
        assert_eq!(c.lookup(&q).tokens_matched, 128);
    }

    #[test]
    fn probe_is_block_quantized_and_non_mutating() {
        let mut c = cache(1 << 42);
        c.insert_sequence(&seq(0..100), &[]);
        let stats_before = *c.stats();
        assert_eq!(c.longest_cached_prefix_len(&seq(0..100)), 96);
        assert_eq!(c.longest_cached_prefix_len(&seq(0..31)), 0);
        assert_eq!(*c.stats(), stats_before, "probes must not move stats");
        let rep = c.reuse_report();
        assert_eq!(rep.kv_reused, 0, "probes must not latch reuse flags");
        assert_eq!(rep.ssm_reused, 0);
    }

    #[test]
    fn zero_capacity_evicts_everything() {
        let mut c = cache(0);
        c.insert_sequence(&seq(0..128), &[]);
        assert_eq!(c.live_blocks, 0);
        assert_eq!(c.usage_bytes(), 0);
    }
}
