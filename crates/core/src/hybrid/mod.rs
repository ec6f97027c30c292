//! The Marconi prefix cache (and, with LRU eviction, the SGLang+ baseline;
//! with a checkpoint at every token block, the vLLM+ baseline).

#[cfg(test)]
mod differential;
mod eviction;
mod hint;
mod record;
#[cfg(test)]
mod spec;
#[cfg(test)]
mod tests;
mod tiering;

use crate::cursor::SessionCursor;
use crate::policy::EvictionPolicy;
use crate::result::{AdmissionReport, BlockReuseReport, LookupResult};
use crate::stats::CacheStats;
use crate::tier::{ReloadPolicy, Tier, TieredPrefix};
use crate::tuner::{Tuner, TunerState};
use crate::{PinTicket, PrefixCache};
use marconi_model::ModelConfig;
use marconi_radix::{
    recency_stamp, recency_time, NodeId, PrefixMatch, RadixTree, Resumed, StoreCounters, Token,
};
#[cfg(test)]
use marconi_trace::VictimAction;
use marconi_trace::{MissLedger, TraceEvent, Tracer};
use std::sync::Arc;
use tiering::tier_bit;

/// Per-node cache metadata: edge KVs are implicit (the edge's tokens); the
/// node additionally records SSM-checkpoint presence and the counters
/// GDSF-style policies need. Two eviction inputs live in the tree, not
/// here: the node's recency is its recency stamp
/// ([`HybridPrefixCache::last_access`]), and its tier is the top bit of its
/// class ([`HybridPrefixCache::tier`]), so the candidate index is keyed by
/// both.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeMeta {
    has_ssm_state: bool,
    /// Fig. 3a latches, set under [`CheckpointMode::EveryBlock`] only: a
    /// later hit read this block's KVs, and a later hit was served from
    /// its checkpoint. They sit in the padding after `has_ssm_state`.
    kv_reused: bool,
    ssm_reused: bool,
    /// Accesses since admission (GDSF's `F`).
    frequency: u32,
    /// GDSF priority `H = L + F·C/S`, refreshed on access.
    gdsf_priority: f64,
}

/// Where SSM checkpoints are placed along an admitted sequence: Marconi's
/// branch point, materialized as paper §4.1 ("Obtaining states during
/// prefill") describes, or vLLM+'s every token block (§3, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize, Default)]
pub enum CheckpointMode {
    /// Two-pass prefill (or a custom roll-forward kernel): the state is
    /// checkpointed at the exact branch depth. Default.
    #[default]
    Exact,
    /// Chunked state passing (Mamba-2/RetNet/GLA-style): only states at
    /// chunk boundaries are materialized, so the checkpoint lands at the
    /// last boundary at or before the branch point, sacrificing up to
    /// `chunk_size − 1` tokens of reuse for minimal runtime overhead.
    Chunked {
        /// Prefill chunk size (e.g. 64 or 256).
        chunk_size: u64,
    },
    /// vLLM+'s fine-grained checkpointing: only whole `block_size`-token
    /// blocks of input ‖ output are admitted, every block boundary holds a
    /// checkpoint, and no speculative branch checkpoint is taken. Every
    /// model's hit is then the deepest checkpointed node, so hits come in
    /// whole blocks. Bytes are charged per block: a checkpointed node
    /// costs `block_size` tokens' KVs plus the checkpoint, and a node a
    /// mid-block divergence split off costs nothing, like vLLM's block
    /// table, which shares no part of a block. Needs
    /// [`leaf_only_eviction`](HybridPrefixCacheBuilder::leaf_only_eviction)
    /// (evicting an inner block would strand its descendants) and no host
    /// tier; vLLM+ also runs [`EvictionPolicy::Lru`] with
    /// [`refresh_ancestors`](HybridPrefixCacheBuilder::refresh_ancestors).
    EveryBlock {
        /// Token-block size (vLLM's default and largest native size is 32).
        block_size: u64,
    },
}

impl CheckpointMode {
    /// The depth actually checkpointed for a branch at `branch_depth`.
    /// Returns 0 (no checkpoint) if no boundary precedes the branch, and
    /// always under [`EveryBlock`](CheckpointMode::EveryBlock), which takes
    /// no branch checkpoint.
    #[must_use]
    pub fn checkpoint_depth(self, branch_depth: u64) -> u64 {
        match self {
            CheckpointMode::Exact => branch_depth,
            CheckpointMode::Chunked { chunk_size } => {
                assert!(chunk_size > 0, "chunk size must be positive");
                (branch_depth / chunk_size) * chunk_size
            }
            CheckpointMode::EveryBlock { .. } => 0,
        }
    }
}

/// Prefix cache for hybrid (and pure) LLMs over a radix tree, holding KVs
/// and SSM states for the same prefixes in the same nodes.
///
/// With the default [`EvictionPolicy::AutoTuned`] this is **Marconi**; with
/// [`EvictionPolicy::Lru`] it is the paper's **SGLang+** baseline (same
/// judicious admission, recency-only eviction); with
/// [`CheckpointMode::EveryBlock`], LRU over leaves and ancestor refresh it
/// is the **vLLM+** baseline.
///
/// See the [crate docs](crate) for the policy description and an example.
#[derive(Debug, Clone)]
pub struct HybridPrefixCache {
    /// Refcounted so every trace event clones a pointer, not a heap
    /// string (the live-recording hot path).
    pub(crate) name: Arc<str>,
    model: ModelConfig,
    capacity: u64,
    /// Host-DRAM tier budget in bytes. 0 disables tiering entirely: every
    /// device-pressure victim is deleted, exactly like the single-tier
    /// cache (the parity contract).
    host_capacity: u64,
    /// How host-resident hits are brought back to the device (consumed by
    /// the serving layer; a behavioral knob mirrored by tuner replicas).
    reload_policy: ReloadPolicy,
    pub(crate) tree: RadixTree<NodeMeta>,
    /// Per arena slot, the efficiency a candidate was filed under when
    /// [`classify_candidates`](Self::classify_candidates) last classed the
    /// slot's node: the banded walk reads a classed candidate's efficiency
    /// here, from a dense column, not from its node. Meaningful only while
    /// the node stays classed: every event that changes its efficiency
    /// (a structure-version bump, a new checkpoint) returns it to its
    /// tier's unclassed band first.
    filed_efficiency: Vec<f64>,
    ssm_states: u64,
    /// Tokens of edges whose node is host-resident (device tokens are the
    /// tree total minus this).
    host_tokens: u64,
    /// SSM checkpoints on host-resident nodes.
    host_ssm_states: u64,
    pub(crate) policy: EvictionPolicy,
    pub(crate) tuner: Option<Tuner>,
    pub(crate) effective_alpha: f64,
    pub(crate) stats: CacheStats,
    clock: f64,
    checkpoint_mode: CheckpointMode,
    /// §4.3(2) ablation: refresh every ancestor's timestamp on a hit, like
    /// pre-Marconi systems, instead of only the accessed node's.
    refresh_ancestors: bool,
    /// Blocks whose KVs, and blocks whose checkpoint, a hit has read (the
    /// [`NodeMeta`] latches counted as they set); see
    /// [`block_reuse`](Self::block_reuse).
    pub(crate) kv_reused_blocks: u64,
    pub(crate) ssm_reused_blocks: u64,
    /// GDSF inflation clock `L` (monotone, set to each victim's priority).
    gdsf_clock: f64,
    /// Eligible candidates the victim selector has read, over every pick
    /// and policy. A work counter, not a statistic: it measures the
    /// selector, not the traffic, so it stays out of [`CacheStats`].
    candidates_scored: u64,
    /// Entries the victim selector has read from the candidate index and
    /// then rejected as not [`eligible`](Self::eligible). A work counter
    /// like `candidates_scored`, and out of [`CacheStats`] for the same
    /// reason.
    entries_skipped: u64,
    /// Decision-level flight recorder ([`Tracer::off`] by default — one
    /// dead branch per emit site). **Not** a behavioral knob: emission is
    /// read-only with respect to every decision, so it is attached after
    /// `build()` via [`set_tracer`](Self::set_tracer) and deliberately
    /// absent from the builder and from tuner replicas.
    pub(crate) tracer: Tracer,
    /// Fingerprints of deleted prefixes for miss attribution; written only
    /// while the tracer is enabled (and never read by any decision), so
    /// tracing stays off-is-free.
    pub(crate) miss_ledger: MissLedger,
    /// Every victim in order, demoted or deleted, with the root path it
    /// had when taken: what the differential harness compares with the
    /// executable spec, and where [`node_id_at`](Self::node_id_at) finds
    /// the ids of nodes that are gone.
    #[cfg(test)]
    pub(crate) eviction_log: Vec<(VictimAction, Vec<Token>, NodeId)>,
}

impl HybridPrefixCache {
    /// Starts building a cache for `model`.
    ///
    /// Defaults: 16 GiB capacity, [`EvictionPolicy::AutoTuned`], name
    /// derived from the policy.
    #[must_use]
    pub fn builder(model: ModelConfig) -> HybridPrefixCacheBuilder {
        HybridPrefixCacheBuilder {
            model,
            capacity: 16 << 30,
            host_capacity: 0,
            reload_policy: ReloadPolicy::default(),
            policy: EvictionPolicy::default(),
            name: None,
            checkpoint_mode: CheckpointMode::Exact,
            refresh_ancestors: false,
            leaf_only_eviction: false,
        }
    }

    /// The α currently applied by eviction scoring (0 while the tuner is
    /// still in its LRU phase).
    #[must_use]
    pub fn current_alpha(&self) -> f64 {
        self.effective_alpha
    }

    /// Tuner lifecycle, when the policy is [`EvictionPolicy::AutoTuned`].
    #[must_use]
    pub fn tuner_state(&self) -> Option<TunerState> {
        self.tuner.as_ref().map(|t| match t {
            Tuner::Waiting { .. } => TunerState::WaitingForFirstEviction,
            Tuner::Bootstrapping {
                recorded, target, ..
            } => TunerState::Bootstrapping {
                recorded: recorded.len() as u64,
                target: *target,
            },
            Tuner::Tuned { alpha } => TunerState::Tuned { alpha: *alpha },
        })
    }

    /// Number of SSM checkpoints currently cached (both tiers).
    #[must_use]
    pub fn ssm_state_count(&self) -> u64 {
        self.ssm_states
    }

    /// Configured host-tier (DRAM) budget in bytes; 0 means the cache is
    /// single-tier and eviction deletes.
    #[must_use]
    pub fn host_capacity_bytes(&self) -> u64 {
        self.host_capacity
    }

    /// Bytes of model states currently demoted to the host tier.
    #[must_use]
    pub fn host_usage_bytes(&self) -> u64 {
        self.host_usage()
    }

    /// Number of nodes currently protected by in-flight pins (diagnostic;
    /// counts every node on pinned paths, not tickets).
    #[must_use]
    pub fn pinned_node_count(&self) -> usize {
        self.tree.pinned_count()
    }

    /// Length and tier split of the longest *reusable* cached prefix of
    /// `input`, without mutating any cache state.
    ///
    /// The non-mutating-probe contract of
    /// [`longest_cached_prefix_len`](PrefixCache::longest_cached_prefix_len)
    /// applies unchanged, and `probe_tiers(input).tokens` always equals it;
    /// the extra `host_tokens` field lets cluster routers weigh a
    /// host-resident hit below an equally deep device-resident one.
    #[must_use]
    pub fn probe_tiers(&self, input: &[Token]) -> TieredPrefix {
        let m = self.tree.match_prefix_at(&Resumed::ROOT, input);
        let (_, tokens) = self.hit(&m);
        let (host_tokens, _, _) = self.host_share(&m, tokens);
        TieredPrefix {
            tokens,
            host_tokens,
        }
    }

    /// Fig. 3a's block-reuse counters, under [`CheckpointMode::EveryBlock`]
    /// (`None` otherwise): blocks admitted, blocks whose KVs a later hit
    /// read, and blocks a later hit was served from. Each block counts
    /// once, when its latch first sets.
    #[must_use]
    pub fn block_reuse(&self) -> Option<BlockReuseReport> {
        matches!(self.checkpoint_mode, CheckpointMode::EveryBlock { .. }).then_some(
            BlockReuseReport {
                blocks_created: self.stats.ssm_states_admitted,
                kv_reused: self.kv_reused_blocks,
                ssm_reused: self.ssm_reused_blocks,
            },
        )
    }

    /// Number of live radix-tree nodes (diagnostic).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Slots of the radix tree's node arena, live or free (diagnostic):
    /// its high-water mark, one more than the most nodes it has held.
    #[must_use]
    pub fn arena_capacity(&self) -> usize {
        self.tree.arena_capacity()
    }

    /// Current length, in tokens, of the radix tree's shared edge-label
    /// store (diagnostic): live labels plus the dead tokens on pages not
    /// yet written again. It never shrinks, and it is bounded by the peak
    /// live tokens plus two pages per peak live label range — see
    /// [`RadixTree::token_store_len`].
    #[must_use]
    pub fn token_store_len(&self) -> usize {
        self.tree.token_store_len()
    }

    /// Eligible eviction candidates the victim selector has read so far,
    /// summed over every pick (diagnostic). A deterministic work counter:
    /// divided by [`CacheStats::evictions`] plus demotions it is the
    /// selector's cost per victim in candidates, independent of the
    /// machine. [`eviction_candidate_count`](Self::eviction_candidate_count)
    /// is what a full pass would read per victim.
    #[must_use]
    pub fn candidates_scored(&self) -> u64 {
        self.candidates_scored
    }

    /// Work the radix tree's token store has done so far, and its peaks
    /// (diagnostic; see [`StoreCounters`]): tokens inserts wrote, tokens
    /// merges copied (none: merges splice labels), pages held and reused,
    /// peak live tokens and ranges, and label-link slots. Deterministic
    /// work counters beside [`candidates_scored`](Self::candidates_scored).
    #[must_use]
    pub fn store_counters(&self) -> StoreCounters {
        self.tree.store_counters()
    }

    /// Candidate-index entries the victim selector has read and then
    /// rejected as ineligible, summed over every pick (diagnostic). Each
    /// tier walks only its own bands of the index, and under the leaf-only
    /// ablation the index holds leaves alone, so what is left to skip is
    /// pinned entries. A
    /// deterministic work counter beside
    /// [`candidates_scored`](Self::candidates_scored); reads of the
    /// device-fallback arena pass are not index reads and never count.
    #[must_use]
    pub fn entries_skipped(&self) -> u64 {
        self.entries_skipped
    }

    /// Current number of eviction candidates — non-root nodes with ≤ 1
    /// child, whatever their tier or pin state (diagnostic).
    #[must_use]
    pub fn eviction_candidate_count(&self) -> usize {
        self.tree.eviction_candidate_count()
    }

    /// Attaches a flight recorder: every subsequent decision (lookups with
    /// miss attribution, admissions, eviction episodes with per-victim
    /// score breakdowns, demotions/promotions, pins) is emitted through
    /// it. Recording is read-only — victim selection, admission, and every
    /// statistic stay byte-identical with any sink attached (the
    /// off-is-free contract; see `marconi_trace`). Deliberately not a
    /// builder knob: tuner replicas replay silently regardless.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Convenience [`PrefixCache::lookup_at`] using an internal logical
    /// clock.
    pub fn lookup(&mut self, input: &[Token]) -> LookupResult {
        self.clock += 1.0;
        let now = self.clock;
        self.lookup_at(input, now)
    }

    /// Convenience [`PrefixCache::insert_at`] using an internal logical
    /// clock.
    pub fn insert_sequence(&mut self, input: &[Token], output: &[Token]) -> AdmissionReport {
        self.clock += 1.0;
        let now = self.clock;
        self.insert_at(input, output, now)
    }

    /// Test-only: the id of the node whose root path is `path` — the live
    /// node, or else the latest victim logged with that path. A node keeps
    /// its root path for life, and an operation takes all its victims after
    /// creating all its nodes, so right after an operation this names every
    /// node that existed during it. The executable spec's one input from
    /// the implementation: it breaks exact ties by these ids.
    #[cfg(test)]
    pub(super) fn node_id_at(&self, path: &[Token]) -> Option<NodeId> {
        let m = self.tree.match_prefix(path);
        match m.deepest() {
            Some(id) if !m.ends_mid_edge && m.matched_len == path.len() as u64 => Some(id),
            _ => self
                .eviction_log
                .iter()
                .rev()
                .find(|(_, p, _)| p == path)
                .map(|&(.., id)| id),
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// The node a hit on `m` is served from, and the reusable prefix
    /// length: the one statement of the all-or-nothing hit rule, shared by
    /// `lookup_at`, `pin_prefix`, `longest_cached_prefix_len` and
    /// `probe_tiers` so they can never disagree.
    ///
    /// For SSM models reuse stops at the deepest checkpointed node on the
    /// path, and so does every model's under
    /// [`CheckpointMode::EveryBlock`], whose checkpoints are the block
    /// boundaries. A pure Transformer's KVs otherwise slice at any token
    /// boundary, so it reuses the raw match; a match ending mid-edge is
    /// served from the *containing child's* KVs, so that child is the node
    /// whose recency the hit must refresh (crediting only `deepest()`, or
    /// nothing at the root, would leave a hot, partially-matched prefix
    /// looking idle until LRU pressure evicts it) and that a pin must
    /// protect.
    fn hit(&self, m: &PrefixMatch) -> (Option<NodeId>, u64) {
        if self.model.has_ssm() || matches!(self.checkpoint_mode, CheckpointMode::EveryBlock { .. })
        {
            self.matched_nodes(m)
                .find(|&id| self.tree.data(id).has_ssm_state)
                .map_or((None, 0), |id| (Some(id), self.tree.depth(id)))
        } else if m.ends_mid_edge {
            (m.mid_edge_child, m.matched_len)
        } else {
            (m.deepest(), m.matched_len)
        }
    }

    /// `m`'s fully-matched nodes, deepest first: `m.deepest()` and its
    /// ancestors up to (not including) the root, by parent pointers.
    fn matched_nodes<'a>(&'a self, m: &PrefixMatch) -> impl Iterator<Item = NodeId> + 'a {
        std::iter::successors(m.deepest(), |&id| {
            self.tree.parent(id).filter(|&p| p != NodeId::ROOT)
        })
    }

    /// Records an access on `id`: the order-preserving integer image of
    /// `now` in the tree's recency index, the one home of the node's
    /// recency — every band is walked in its order, and
    /// [`last_access`](Self::last_access) reads `now` back from it.
    fn stamp_access(&mut self, id: NodeId, now: f64) {
        self.tree.touch(id, recency_stamp(now));
    }

    /// The time of `id`'s last access: its recency stamp decoded, which
    /// [`recency_time`] does bit for bit. Every node is stamped by the
    /// operation that creates it ([`stamp_new_nodes`](Self::stamp_new_nodes)),
    /// and every reader is a pick or a trace of one, which runs after that
    /// operation's inserts, so no reader meets a never-stamped node (stamp
    /// 0, which would decode to a NaN).
    pub(super) fn last_access(&self, id: NodeId) -> f64 {
        recency_time(self.tree.stamp(id))
    }

    /// Marks an SSM checkpoint on `id` if absent; returns 1 if newly added.
    fn checkpoint(&mut self, id: NodeId, now: f64) -> u64 {
        self.stamp_access(id, now);
        let meta = self.tree.data_mut(id);
        if meta.has_ssm_state {
            return 0;
        }
        meta.has_ssm_state = true;
        // The checkpoint changes what evicting this node frees, so its
        // efficiency band no longer holds: back to band 0 of its tier.
        let tier = self.tier(id);
        if tier == Tier::Host {
            // Checkpointing a still-host-resident node (promotion runs
            // after all checkpoints land): keep the tier counters in step.
            self.host_ssm_states += 1;
        }
        self.tree.set_class(id, tier_bit(tier));
        self.ssm_states += 1;
        1
    }

    /// Sets the Fig. 3a latches for a hit served from `node`: every
    /// checkpointed node on its path had its KVs read, and `node` its
    /// checkpoint.
    fn latch_block_reuse(&mut self, node: NodeId) {
        let meta = self.tree.data_mut(node);
        self.ssm_reused_blocks += u64::from(!meta.ssm_reused);
        meta.ssm_reused = true;
        let mut cur = node;
        while cur != NodeId::ROOT {
            let meta = self.tree.data_mut(cur);
            if meta.has_ssm_state {
                self.kv_reused_blocks += u64::from(!meta.kv_reused);
                meta.kv_reused = true;
            }
            cur = self.tree.parent(cur).unwrap_or(NodeId::ROOT);
        }
    }

    /// Marconi's admission (§4.1), under [`CheckpointMode::Exact`] and
    /// [`CheckpointMode::Chunked`]: the branch checkpoint speculative
    /// insertion predicts, then the whole sequence with a checkpoint at its
    /// last decoded token. `resume` is the resolved hint, where every walk
    /// starts until the speculation walk has matched the input and moved it
    /// down to that walk's deepest fully-matched node. Returns the
    /// sequence's end node (`None` for an empty one) and the checkpoints
    /// added.
    ///
    /// A walk starts from a point this admission already checked — the
    /// resolved hint, the speculation walk's deepest fully-matched node, or
    /// the root — and only when the sequence it walks starts with the
    /// tokens that point was checked against (for a checkpoint prefix:
    /// `depth() ≤` its length). Points are not re-checked: they stay valid
    /// for every walk of the admission however the earlier inserts split
    /// or extended the tree around them (argument: docs/session-fastpath.md,
    /// "Validation: each operation validates once"). The trees are
    /// byte-identical to root walks'; the start point is purely a shortcut.
    fn admit_sequence(
        &mut self,
        resume: Resumed,
        input: &[Token],
        output: &[Token],
        now: f64,
        report: &mut AdmissionReport,
    ) -> (Option<NodeId>, u64) {
        let mut walk_from = resume;
        let mut admitted = 0;
        // Purely-input reuse (§4.1): speculative insertion of the input
        // segment; a predicted intermediate node marks a shared prefix
        // whose SSM state is checkpointed during prefill.
        if self.model.has_ssm() && !input.is_empty() {
            let m = self.tree.match_prefix_at(&resume, input);
            let deepest = m.resume_point();
            walk_from = deepest;
            if let Some(branch_depth) = m.speculation().creates_branch_at {
                // Chunked state passing can only materialize states at
                // chunk boundaries; two-pass/exact hits the branch itself.
                let target = self.checkpoint_mode.checkpoint_depth(branch_depth);
                if target > 0 {
                    // A chunk-rounded target can be shallower than the
                    // deepest matched node: start from the hint if it is
                    // no deeper, from the root otherwise.
                    let at = if target >= deepest.depth() {
                        deepest
                    } else if resume.depth() <= target {
                        resume
                    } else {
                        Resumed::ROOT
                    };
                    let outcome = self
                        .tree
                        .insert_parts_at(&at, &input[..target as usize], &[]);
                    self.stamp_new_nodes(&outcome, now);
                    self.emit_split(&outcome, now);
                    let node = outcome.end_node;
                    debug_assert_eq!(self.tree.depth(node), target);
                    admitted += self.checkpoint(node, now);
                    report.branch_checkpoint_depth = Some(target);
                }
            }
        }

        // Input-and-output reuse (§4.1): the full sequence's KVs are cached
        // along the path and the state at the last decoded token is always
        // checkpointed (conversations resume from it). The sequence is the
        // virtual concatenation input ‖ output, handed to the seam-aware
        // tree inserts as two slices: materializing the join cost an
        // O(prompt) allocate-and-copy per admission — the last full read
        // of the prompt left on the cursor-resumed path — and dominated
        // the session-replay profile at long prompt lengths.
        if input.is_empty() && output.is_empty() {
            return (None, admitted);
        }
        let outcome = self.tree.insert_parts_at(&walk_from, input, output);
        self.stamp_new_nodes(&outcome, now);
        self.emit_split(&outcome, now);
        if self.model.has_ssm() {
            admitted += self.checkpoint(outcome.end_node, now);
        }
        (Some(outcome.end_node), admitted)
    }

    /// vLLM+'s admission ([`CheckpointMode::EveryBlock`]): the whole
    /// `block_size`-token blocks of `input ‖ output`, inserted block by
    /// block from the previous block's node, each boundary stamped and
    /// checkpointed. No session hint shortens it: every block on the path
    /// is re-stamped, so the walk reads the whole sequence anyway. Returns
    /// the last block's node (`None` when the sequence holds no whole
    /// block) and the checkpoints added.
    fn admit_blocks(
        &mut self,
        input: &[Token],
        output: &[Token],
        block_size: u64,
        now: f64,
    ) -> (Option<NodeId>, u64) {
        let block = block_size as usize;
        let blocks = (input.len() + output.len()) / block;
        let mut at = Resumed::ROOT;
        let mut end = None;
        let mut admitted = 0;
        for k in 1..=blocks {
            let len = k * block;
            let (head, tail) = if len <= input.len() {
                (&input[..len], &[][..])
            } else {
                (input, &output[..len - input.len()])
            };
            let outcome = self.tree.insert_parts_at(&at, head, tail);
            self.stamp_new_nodes(&outcome, now);
            self.emit_split(&outcome, now);
            admitted += self.checkpoint(outcome.end_node, now);
            at = outcome.end_point();
            end = Some(outcome.end_node);
        }
        (end, admitted)
    }

    /// Stamps recency on any nodes an insertion created and seeds their
    /// GDSF priorities.
    fn stamp_new_nodes(&mut self, outcome: &marconi_radix::InsertOutcome, now: f64) {
        for id in [outcome.split_node, outcome.new_leaf, Some(outcome.end_node)]
            .into_iter()
            .flatten()
        {
            self.stamp_access(id, now);
            self.refresh_gdsf(id, false);
        }
    }
}

impl PrefixCache for HybridPrefixCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        // Mirror of `lookup_at`'s match logic over `&self`: the match walk
        // never mutates, no timestamps are stamped, no stats move, and no
        // speculative insertion fires — the whole point of the probe.
        let m = self.tree.match_prefix_at(&Resumed::ROOT, input);
        self.hit(&m).1
    }

    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
        self.lookup_at_with(input, now, None)
    }

    fn lookup_at_with(
        &mut self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult {
        self.clock = self.clock.max(now);
        let (m, hint_outcome) = self.match_with_hint(input, hint.map(|h| h.cursor));
        self.emit_cursor_outcome(&hint_outcome, input.len(), now);
        let (node, tokens_matched) = self.hit(&m);
        let mut result = LookupResult {
            tokens_matched,
            raw_matched: m.matched_len,
            node,
            flops_saved: self.model.flops_saved(tokens_matched),
            ..LookupResult::MISS
        };
        // Tier split of the hit: which part of the reused prefix must cross
        // PCIe (or be recomputed) before it is usable on the device.
        let (host_tokens, host_bytes, host_reload_flops) =
            self.host_share(&m, result.tokens_matched);
        result.host_tokens = host_tokens;
        result.host_bytes = host_bytes;
        result.host_reload_flops = host_reload_flops;
        // §4.3(2): only the accessed node's timestamp is updated (unless
        // the ancestor-refresh ablation is enabled).
        if let Some(node) = result.node {
            if result.is_hit() {
                self.stamp_access(node, now);
                self.refresh_gdsf(node, true);
                if self.refresh_ancestors {
                    let mut up = self.tree.parent(node);
                    while let Some(id) = up.filter(|&p| p != NodeId::ROOT) {
                        self.stamp_access(id, now);
                        up = self.tree.parent(id);
                    }
                }
                if let CheckpointMode::EveryBlock { .. } = self.checkpoint_mode {
                    self.latch_block_reuse(node);
                }
            }
        }
        self.stats.lookups += 1;
        self.stats.input_tokens += input.len() as u64;
        self.stats.hit_tokens += result.tokens_matched;
        self.stats.host_hit_tokens += result.host_tokens;
        self.stats.flops_saved += result.flops_saved;
        if result.is_hit() {
            self.stats.hits += 1;
            if result.needs_reload() {
                self.stats.host_hits += 1;
            }
        }
        if self.tracer.is_enabled() {
            let attribution = self.classify_lookup(input, &result);
            self.tracer.emit(|| TraceEvent::Lookup {
                ts: now,
                cache: self.name.clone(),
                input_len: input.len() as u64,
                matched: result.tokens_matched,
                host_tokens: result.host_tokens,
                raw_matched: result.raw_matched,
                attribution,
            });
        }
        result
    }

    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        self.insert_at_with(input, output, now, None).0
    }

    fn insert_at_with(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>) {
        // The no-cache limit ("vanilla inference"): with no byte on either
        // tier, nothing is admitted, so nothing is checkpointed, evicted,
        // sampled by the tuner or handed out as a cursor.
        if self.capacity == 0 && self.host_capacity == 0 {
            self.stats.insertions += 1;
            return (AdmissionReport::default(), None);
        }
        self.clock = self.clock.max(now);
        let mut report = AdmissionReport::default();
        let tokens_before = self.tree.token_count();

        // Resolve the hint once, against the input prefix the session
        // extends.
        let (resume, hint_outcome) = self.resolve_hint(input, hint.map(|h| h.cursor));
        self.emit_cursor_outcome(&hint_outcome, input.len(), now);
        let (end_node, admitted) = match self.checkpoint_mode {
            CheckpointMode::EveryBlock { block_size } => {
                self.admit_blocks(input, output, block_size, now)
            }
            _ => self.admit_sequence(resume, input, output, now, &mut report),
        };

        // Serving this request (re)materialized its whole path's states on
        // the device — whether by prefill, reload, or recompute — so any
        // host-resident node along it promotes back to the device tier
        // before pressure is re-resolved below. (No-op while the host tier
        // is empty, so `host_capacity = 0` behavior is untouched.)
        let promoted_tokens = self.promote_resident_path(end_node);
        if promoted_tokens > 0 {
            self.tracer.emit(|| TraceEvent::Promotion {
                ts: now,
                cache: self.name.clone(),
                tokens: promoted_tokens,
            });
        }

        let new_tokens = self.tree.token_count() - tokens_before;
        report.ssm_states_admitted = admitted;
        let (token_bytes, checkpoint_bytes) = self.charges();
        report.bytes_added = new_tokens * token_bytes + admitted * checkpoint_bytes;
        self.stats.insertions += 1;
        self.stats.ssm_states_admitted += admitted;
        self.stats.peak_usage_bytes = self.stats.peak_usage_bytes.max(self.usage());
        self.tracer.emit(|| TraceEvent::Admission {
            ts: now,
            cache: self.name.clone(),
            input_len: input.len() as u64,
            output_len: output.len() as u64,
            checkpoints: admitted,
            new_tokens: self.tree.token_count() - tokens_before,
        });

        self.evict_until_fits(&mut report);
        self.observe_for_tuning(input, output, now);
        if self.tracer.is_enabled() {
            self.emit_gauges(now);
        }

        // Mint the next turn's cursor only now: eviction and demotion have
        // settled, so a handed-out cursor always points at a live,
        // device-resident end node (and is still revalidated on return).
        let next = end_node.and_then(|id| {
            let cursor = self.tree.cursor_at(id)?;
            (self.tier(id) == Tier::Device).then_some(SessionCursor { cursor })
        });
        (report, next)
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

    fn reload_policy(&self) -> ReloadPolicy {
        self.reload_policy
    }

    fn pin_prefix(&mut self, input: &[Token]) -> PinTicket {
        self.pin_prefix_with(input, None)
    }

    fn pin_prefix_with(&mut self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket {
        // `lookup_at`'s hit node over the same match, so the pinned node is
        // exactly the node whose KVs (and, through the subtree-inclusive
        // pin walk, whose ancestors' KVs) the in-flight request reads while
        // decoding. No recency, stats, or GDSF state moves: pinning
        // composes with the non-mutating-probe discipline even though it
        // needs `&mut` for the refcounts.
        let (m, hint_outcome) = self.match_with_hint(input, hint.map(|h| h.cursor));
        self.emit_cursor_outcome(&hint_outcome, input.len(), self.clock);
        let (node, _) = self.hit(&m);
        if let Some(id) = node {
            self.tree.pin(id);
            self.tracer.emit(|| TraceEvent::Pin {
                ts: self.clock,
                cache: self.name.clone(),
                node: id.index() as u64,
            });
        }
        PinTicket { node }
    }

    fn unpin(&mut self, mut ticket: PinTicket) {
        // `redeem` takes the node out so the debug-build leak detector in
        // `PinTicket::drop` knows the pin was released.
        if let Some(id) = ticket.redeem() {
            self.tree.unpin(id);
            self.tracer.emit(|| TraceEvent::Unpin {
                ts: self.clock,
                cache: self.name.clone(),
                node: id.index() as u64,
            });
        }
    }

    fn pinned_bytes(&self) -> u64 {
        self.tree.pinned_ids().map(|id| self.node_bytes(id)).sum()
    }
}

/// Builder for [`HybridPrefixCache`]; see
/// [`HybridPrefixCache::builder`].
#[derive(Debug, Clone)]
pub struct HybridPrefixCacheBuilder {
    model: ModelConfig,
    capacity: u64,
    host_capacity: u64,
    reload_policy: ReloadPolicy,
    policy: EvictionPolicy,
    name: Option<String>,
    checkpoint_mode: CheckpointMode,
    refresh_ancestors: bool,
    leaf_only_eviction: bool,
}

impl HybridPrefixCacheBuilder {
    /// Sets the device-tier cache capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Sets the host-DRAM tier budget in bytes (default 0 = single-tier).
    ///
    /// With a nonzero budget, device-pressure victims are *demoted* to the
    /// host tier instead of deleted, and host pressure deletes with the
    /// same victim machinery. A `host_capacity` of 0 keeps the cache
    /// byte-identical to the pre-tiering single-tier behavior.
    #[must_use]
    pub fn host_capacity_bytes(mut self, bytes: u64) -> Self {
        self.host_capacity = bytes;
        self
    }

    /// Sets how host-resident hits are brought back to the device (default
    /// [`ReloadPolicy::ComputeOrLoad`]). Consumed by the serving layer's
    /// timing model; mirrored by tuner replicas like every behavioral knob.
    #[must_use]
    pub fn reload_policy(mut self, policy: ReloadPolicy) -> Self {
        self.reload_policy = policy;
        self
    }

    /// Sets the eviction policy (default: [`EvictionPolicy::AutoTuned`]).
    #[must_use]
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the system name used in reports.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets how branch-point SSM states are materialized during prefill
    /// (default [`CheckpointMode::Exact`]).
    #[must_use]
    pub fn checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.checkpoint_mode = mode;
        self
    }

    /// Ablation switch (§4.3(2)): also refresh ancestor timestamps on a
    /// hit, like pre-Marconi systems. Default off.
    #[must_use]
    pub fn refresh_ancestors(mut self, enabled: bool) -> Self {
        self.refresh_ancestors = enabled;
        self
    }

    /// Ablation switch (§4.3(1)): restrict eviction to leaf nodes, like
    /// pre-Marconi systems, pinning single-child nodes' SSM states.
    /// Default off; required by [`CheckpointMode::EveryBlock`].
    #[must_use]
    pub fn leaf_only_eviction(mut self, enabled: bool) -> Self {
        self.leaf_only_eviction = enabled;
        self
    }

    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics, naming the combination, on one the executable spec does not
    /// state: [`CheckpointMode::EveryBlock`] with a zero block size, with a
    /// host tier, or without leaf-only eviction.
    pub fn build(self) -> HybridPrefixCache {
        if let CheckpointMode::EveryBlock { block_size } = self.checkpoint_mode {
            assert!(
                block_size > 0,
                "CheckpointMode::EveryBlock: block size must be positive"
            );
            assert!(
                self.host_capacity == 0,
                "CheckpointMode::EveryBlock with a host tier is not supported"
            );
            assert!(
                self.leaf_only_eviction,
                "CheckpointMode::EveryBlock needs leaf_only_eviction(true)"
            );
        }
        let (tuner, effective_alpha) = match &self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Gdsf => (None, 0.0),
            EvictionPolicy::FlopAware { alpha } => (None, *alpha),
            EvictionPolicy::AutoTuned(config) => (
                Some(Tuner::Waiting {
                    config: config.clone(),
                    requests_seen: 0,
                }),
                0.0,
            ),
        };
        let name = self.name.unwrap_or_else(|| {
            match &self.policy {
                EvictionPolicy::Lru => "sglang+",
                EvictionPolicy::FlopAware { .. } => "marconi-static",
                EvictionPolicy::AutoTuned(_) => "marconi",
                EvictionPolicy::Gdsf => "gdsf",
            }
            .to_owned()
        });
        HybridPrefixCache {
            name: name.into(),
            model: self.model,
            capacity: self.capacity,
            host_capacity: self.host_capacity,
            reload_policy: self.reload_policy,
            tree: if self.leaf_only_eviction {
                RadixTree::with_leaf_candidates()
            } else {
                RadixTree::new()
            },
            filed_efficiency: Vec::new(),
            ssm_states: 0,
            host_tokens: 0,
            host_ssm_states: 0,
            policy: self.policy,
            tuner,
            effective_alpha,
            stats: CacheStats::default(),
            clock: 0.0,
            checkpoint_mode: self.checkpoint_mode,
            refresh_ancestors: self.refresh_ancestors,
            kv_reused_blocks: 0,
            ssm_reused_blocks: 0,
            gdsf_clock: 0.0,
            candidates_scored: 0,
            entries_skipped: 0,
            tracer: Tracer::off(),
            miss_ledger: MissLedger::default(),
            #[cfg(test)]
            eviction_log: Vec::new(),
        }
    }
}
