//! The Marconi prefix cache (and, with LRU eviction, the SGLang+ baseline).

use crate::cursor::{CursorHint, SessionCursor};
use crate::policy::{
    class_lower_edge, efficiency_class, pick_victim_banded, pick_victim_index, Candidate,
    EvictionPolicy,
};
use crate::result::{AdmissionReport, LookupResult};
use crate::stats::CacheStats;
use crate::tier::{ReloadPolicy, Tier, TieredPrefix};
use crate::tuner::{TunerConfig, TunerState};
use crate::{PinTicket, PrefixCache};
use marconi_model::ModelConfig;
use marconi_radix::{
    recency_stamp, CursorFault, InsertOutcome, MatchCursor, NodeId, PrefixMatch, RadixTree, Token,
};
use marconi_trace::{
    CursorFallbackCause, Fingerprint, MissCause, MissLedger, PressureCause, StatCounters,
    TraceEvent, TraceTier, Tracer, VictimAction, VictimRecord,
};
use std::sync::Arc;

/// Per-node cache metadata: edge KVs are implicit (the edge's tokens); the
/// node additionally records SSM-checkpoint presence, the memory tier the
/// node's state lives on, recency, and the counters GDSF-style policies
/// need.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMeta {
    last_access: f64,
    has_ssm_state: bool,
    /// Where this node's state (edge KVs + checkpoint) physically lives.
    /// Demotion flips it to [`Tier::Host`]; re-insertion through the node
    /// promotes it back. Always [`Tier::Device`] when `host_capacity = 0`.
    tier: Tier,
    /// Accesses since admission (GDSF's `F`).
    frequency: u32,
    /// GDSF priority `H = L + F·C/S`, refreshed on access.
    gdsf_priority: f64,
    /// Memoized eviction-scoring inputs, or `None` when never computed /
    /// explicitly invalidated (SSM-checkpoint admission). Also implicitly
    /// invalidated whenever the node's leaf status, edge length, or depth
    /// changes, via the tree's structure version.
    cost_memo: Option<CostMemo>,
}

/// Memoized per-node `freed_bytes` / `flop_efficiency`, valid while the
/// node's [`structure_version`](RadixTree::structure_version) still equals
/// `version`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostMemo {
    version: u32,
    freed_bytes: u64,
    flop_efficiency: f64,
}

/// How SSM states are materialized at a branch point during prefill
/// (paper §4.1, "Obtaining states during prefill").
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
}

impl CheckpointMode {
    /// The depth actually checkpointed for a branch at `branch_depth`.
    /// Returns 0 (no checkpoint) if no boundary precedes the branch.
    #[must_use]
    pub fn checkpoint_depth(self, branch_depth: u64) -> u64 {
        match self {
            CheckpointMode::Exact => branch_depth,
            CheckpointMode::Chunked { chunk_size } => {
                assert!(chunk_size > 0, "chunk size must be positive");
                (branch_depth / chunk_size) * chunk_size
            }
        }
    }
}

/// Bootstrap snapshot: the tree and its derived byte accounting (both
/// tiers' counters, so a tiered cache's replay replicas start from the
/// exact same residency state).
#[derive(Debug, Clone)]
struct Snapshot {
    tree: RadixTree<NodeMeta>,
    ssm_states: u64,
    host_tokens: u64,
    host_ssm_states: u64,
    clock: f64,
}

/// Where a pressure episode draws its victims from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The tree's candidate index — non-root nodes with ≤ 1 child, oldest
    /// first — restricted to one tier. Victims are demoted or deleted.
    Candidates(Tier),
    /// Every device-resident node that holds bytes, whatever its child
    /// count, in arena order: the demotion-only pass for device bytes
    /// stranded on branch nodes once the candidates have drained.
    DeviceFallback,
}

impl Source {
    /// The tier whose budget the episode enforces.
    fn tier(self) -> Tier {
        match self {
            Source::Candidates(tier) => tier,
            Source::DeviceFallback => Tier::Device,
        }
    }

    /// The episode's label in the trace.
    fn cause(self) -> PressureCause {
        match self {
            Source::Candidates(Tier::Device) => PressureCause::DeviceCapacity,
            Source::Candidates(Tier::Host) => PressureCause::HostCapacity,
            Source::DeviceFallback => PressureCause::DeviceFallback,
        }
    }
}

/// Internal tuner lifecycle (public view: [`TunerState`]).
#[derive(Debug, Clone)]
enum Tuner {
    Waiting {
        config: TunerConfig,
        requests_seen: u64,
    },
    Bootstrapping {
        config: TunerConfig,
        snapshot: Box<Snapshot>,
        recorded: Vec<(Vec<Token>, Vec<Token>, f64)>,
        target: u64,
    },
    Tuned {
        alpha: f64,
    },
}

/// Prefix cache for hybrid (and pure) LLMs over a radix tree, holding KVs
/// and SSM states for the same prefixes in the same nodes.
///
/// With the default [`EvictionPolicy::AutoTuned`] this is **Marconi**; with
/// [`EvictionPolicy::Lru`] it is the paper's **SGLang+** baseline (same
/// judicious admission, recency-only eviction).
///
/// See the [crate docs](crate) for the policy description and an example.
#[derive(Debug, Clone)]
pub struct HybridPrefixCache {
    /// Refcounted so every trace event clones a pointer, not a heap
    /// string (the live-recording hot path).
    name: Arc<str>,
    model: ModelConfig,
    capacity: u64,
    /// Host-DRAM tier budget in bytes. 0 disables tiering entirely: every
    /// device-pressure victim is deleted, exactly like the single-tier
    /// cache (the parity contract).
    host_capacity: u64,
    /// How host-resident hits are brought back to the device (consumed by
    /// the serving layer; a behavioral knob mirrored by tuner replicas).
    reload_policy: ReloadPolicy,
    tree: RadixTree<NodeMeta>,
    ssm_states: u64,
    /// Tokens of edges whose node is host-resident (device tokens are the
    /// tree total minus this).
    host_tokens: u64,
    /// SSM checkpoints on host-resident nodes.
    host_ssm_states: u64,
    policy: EvictionPolicy,
    tuner: Option<Tuner>,
    effective_alpha: f64,
    stats: CacheStats,
    clock: f64,
    checkpoint_mode: CheckpointMode,
    /// §4.3(2) ablation: refresh every ancestor's timestamp on a hit, like
    /// pre-Marconi systems, instead of only the accessed node's.
    refresh_ancestors: bool,
    /// §4.3(1) ablation: restrict eviction candidates to leaves, like
    /// pre-Marconi systems, leaving single-child nodes' SSM states pinned.
    leaf_only_eviction: bool,
    /// Honor in-flight pins ([`PrefixCache::pin_prefix`]): pinned nodes
    /// are excluded from eviction *and* demotion in both tiers. Off, the
    /// cache ignores pin requests entirely (tickets come back empty), for
    /// A/B-ing the headline mid-decode-reclaim bug. A behavioral knob
    /// mirrored by tuner replicas.
    pin_in_flight: bool,
    /// Honor session-cursor hints (PR 10): hinted lookups, insertions,
    /// and pins resume their walk from the hinted node instead of the
    /// root. Results are byte-identical either way (the parity contract),
    /// so the knob is behavioral only in that it decides whether
    /// `insert_at_with` mints cursors at all; mirrored by tuner replicas
    /// like every other knob.
    session_cursors: bool,
    /// GDSF inflation clock `L` (monotone, set to each victim's priority).
    gdsf_clock: f64,
    /// Eligible candidates the victim selector has read, over every pick
    /// and policy. A work counter, not a statistic: it measures the
    /// selector, not the traffic, so it stays out of [`CacheStats`].
    candidates_scored: u64,
    /// Decision-level flight recorder ([`Tracer::off`] by default — one
    /// dead branch per emit site). **Not** a behavioral knob: emission is
    /// read-only with respect to every decision, so it is attached after
    /// `build()` via [`set_tracer`](Self::set_tracer) and deliberately
    /// absent from the builder and from tuner replicas.
    tracer: Tracer,
    /// Fingerprints of deleted prefixes for miss attribution; written only
    /// while the tracer is enabled (and never read by any decision), so
    /// tracing stays off-is-free.
    miss_ledger: MissLedger,
    /// Victim ids in eviction order; recorded so parity tests can compare
    /// the indexed selection byte-for-byte against the scan reference.
    #[cfg(test)]
    eviction_log: Vec<NodeId>,
    /// Route evictions through the pre-refactor full-arena-scan selection
    /// (the parity tests' reference implementation).
    #[cfg(test)]
    use_scan_eviction: bool,
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
            pin_in_flight: true,
            session_cursors: true,
        }
    }

    /// The eviction policy this cache was built with.
    #[must_use]
    pub fn policy(&self) -> &EvictionPolicy {
        &self.policy
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

    /// `true` if the cache honors in-flight pins (the default); see
    /// [`HybridPrefixCacheBuilder::in_flight_pinning`].
    #[must_use]
    pub fn pins_in_flight(&self) -> bool {
        self.pin_in_flight
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
        let m = self.tree.match_prefix(input);
        let tokens = self.reusable_len(&m);
        let (host_tokens, _, _) = self.host_share(&m, tokens);
        TieredPrefix {
            tokens,
            host_tokens,
        }
    }

    /// Number of live radix-tree nodes (diagnostic).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Current length, in tokens, of the radix tree's shared edge-label
    /// store (diagnostic): live labels plus dead ranges not yet reclaimed,
    /// bounded by `max(2^16, 4 × live tokens)` — see
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

    /// The attached tracer (a clone can be handed to sibling components so
    /// one recorder receives the merged stream).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Emits a [`TraceEvent::Gauges`] telemetry snapshot (occupancy per
    /// tier, pinned nodes, cumulative counters) at virtual time `now`.
    /// Called automatically after every admission; serving layers may also
    /// call it on their own cadence. No-op while the tracer is disabled.
    pub fn emit_gauges(&self, now: f64) {
        self.tracer.emit(|| TraceEvent::Gauges {
            ts: now,
            cache: self.name.clone(),
            usage_bytes: self.usage(),
            host_usage_bytes: self.host_usage(),
            pinned_nodes: self.tree.pinned_count() as u64,
            counters: StatCounters {
                lookups: self.stats.lookups,
                hits: self.stats.hits,
                input_tokens: self.stats.input_tokens,
                hit_tokens: self.stats.hit_tokens,
                host_hit_tokens: self.stats.host_hit_tokens,
                evictions: self.stats.evictions,
                demotions: self.stats.demotions,
            },
        });
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

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Device-resident bytes (the quantity the device capacity bounds).
    /// With `host_capacity = 0` no node is ever host-resident, so this is
    /// exactly the pre-tiering total.
    fn usage(&self) -> u64 {
        (self.tree.token_count() - self.host_tokens) * self.model.kv_bytes_per_token()
            + (self.ssm_states - self.host_ssm_states) * self.model.ssm_checkpoint_bytes()
    }

    /// Host-resident bytes (the quantity the host capacity bounds).
    fn host_usage(&self) -> u64 {
        self.host_tokens * self.model.kv_bytes_per_token()
            + self.host_ssm_states * self.model.ssm_checkpoint_bytes()
    }

    /// Bytes a node's state occupies on its tier: its edge KVs plus its
    /// checkpoint. (Unlike [`freed_bytes`](Self::freed_bytes) this counts
    /// the edge KVs of intermediate nodes too — demotion moves the whole
    /// node's state, whereas deletion hands intermediate edges to the
    /// child.)
    fn node_bytes(&self, id: NodeId) -> u64 {
        let ssm = if self.tree.data(id).has_ssm_state {
            self.model.ssm_checkpoint_bytes()
        } else {
            0
        };
        self.tree.edge_len(id) * self.model.kv_bytes_per_token() + ssm
    }

    /// Moves a device-resident node's state to the host tier; returns the
    /// bytes moved. Tree structure (and therefore every memoized score) is
    /// untouched — only residency accounting changes.
    fn demote(&mut self, id: NodeId) -> u64 {
        let meta = self.tree.data(id);
        debug_assert_eq!(meta.tier, Tier::Device, "double demotion of {id}");
        let bytes = self.node_bytes(id);
        self.host_tokens += self.tree.edge_len(id);
        if meta.has_ssm_state {
            self.host_ssm_states += 1;
        }
        self.tree.data_mut(id).tier = Tier::Host;
        bytes
    }

    /// Promotes every host-resident node on the path ending at `end` back
    /// to the device tier. Called after admission with the admitted
    /// sequence's end node: prefilling (or reloading) the sequence
    /// materialized those states on the device, so the path is
    /// device-resident again and the following pressure episode re-decides
    /// what to demote. Walks the parent chain (O(path nodes)) rather than
    /// re-matching from the root (O(prompt tokens)) — the node set is
    /// identical because the admitted sequence's fully-matched path *is*
    /// the end node's root path. No-op on a host-empty cache — in
    /// particular, byte-identical behavior when `host_capacity = 0`.
    /// Returns the tokens whose state moved host → device (trace
    /// telemetry only).
    fn promote_resident_path(&mut self, end: Option<NodeId>) -> u64 {
        if self.host_tokens == 0 {
            return 0;
        }
        let Some(end) = end else {
            return 0;
        };
        let mut promoted = 0u64;
        let mut cur = end;
        // The loop visits every node on the path except the root (which
        // carries no edge or payload).
        while let Some(parent) = self.tree.parent(cur) {
            if self.tree.data(cur).tier == Tier::Host {
                let edge = self.tree.edge_len(cur);
                self.host_tokens -= edge;
                promoted += edge;
                if self.tree.data(cur).has_ssm_state {
                    self.host_ssm_states -= 1;
                }
                self.tree.data_mut(cur).tier = Tier::Device;
            }
            cur = parent;
        }
        promoted
    }

    /// Repairs tier attribution after an insertion split an edge: the new
    /// intermediate node holds the *head* tokens of the split edge, so it
    /// must inherit the old child's tier or host-token accounting drifts
    /// (the tree itself default-initializes new payloads to
    /// [`Tier::Device`]).
    fn inherit_split_tier(&mut self, outcome: &InsertOutcome) {
        if self.host_tokens == 0 {
            return;
        }
        let Some(mid) = outcome.split_node else {
            return;
        };
        let old_child = self
            .tree
            .children(mid)
            .find(|&c| Some(c) != outcome.new_leaf);
        if let Some(c) = old_child {
            if self.tree.data(c).tier == Tier::Host {
                // Tokens moved between two host-resident edges: the
                // counters are already correct, only the flag was missing.
                self.tree.data_mut(mid).tier = Tier::Host;
            }
        }
    }

    /// Reusable prefix length for a match, shared by `lookup_at`,
    /// `longest_cached_prefix_len`, and `probe_tiers` so the three can
    /// never disagree. All-or-nothing for SSM models (deepest checkpointed
    /// node on the path); the raw match for pure Transformers.
    fn reusable_len(&self, m: &PrefixMatch) -> u64 {
        if self.model.has_ssm() {
            m.path
                .iter()
                .rev()
                .copied()
                .find(|&id| self.tree.data(id).has_ssm_state)
                .map_or(0, |id| self.tree.depth(id))
        } else {
            m.matched_len
        }
    }

    /// Host-resident share of a hit of `tokens_matched` tokens along `m`:
    /// `(host tokens, bytes to transfer, FLOPs to recompute)`.
    ///
    /// Walks the matched path once; each host-tier node contributes its
    /// edge KV bytes and its span's incremental prefill FLOPs, and the hit
    /// node's SSM checkpoint contributes its bytes when host-resident. The
    /// recompute arm is idealized roll-forward accounting: a span `[a, b)`
    /// costs `prefill_flops(b) − prefill_flops(a)`, exact for attention KVs
    /// and an optimistic bound for interior SSM spans (demotion targets
    /// ≤ 1-child chains, so host spans are suffixes of the matched path in
    /// practice).
    fn host_share(&self, m: &PrefixMatch, tokens_matched: u64) -> (u64, u64, u128) {
        if self.host_tokens == 0 || tokens_matched == 0 {
            return (0, 0, 0);
        }
        let kv = self.model.kv_bytes_per_token();
        let mut h_tokens = 0u64;
        let mut h_bytes = 0u64;
        let mut h_flops = 0u128;
        for &id in &m.path {
            let depth = self.tree.depth(id);
            if depth > tokens_matched {
                break;
            }
            let meta = self.tree.data(id);
            if meta.tier == Tier::Host {
                let edge = self.tree.edge_len(id);
                h_tokens += edge;
                h_bytes += edge * kv;
                h_flops += self.model.prefill_flops(depth).total()
                    - self.model.prefill_flops(depth - edge).total();
                if meta.has_ssm_state && depth == tokens_matched && self.model.has_ssm() {
                    h_bytes += self.model.ssm_checkpoint_bytes();
                }
            }
        }
        // A pure-Transformer match may end inside an edge: the partial
        // tokens live in the containing child.
        if let Some(child) = m.mid_edge_child {
            let start = self.tree.depth(child) - self.tree.edge_len(child);
            if tokens_matched > start && self.tree.data(child).tier == Tier::Host {
                let part = tokens_matched - start;
                h_tokens += part;
                h_bytes += part * kv;
                h_flops += self.model.prefill_flops(tokens_matched).total()
                    - self.model.prefill_flops(start).total();
            }
        }
        (h_tokens, h_bytes, h_flops)
    }

    // ------------------------------------------------------------------
    // Session-cursor fast path (PR 10). A hint is *only* a shortcut: any
    // validation failure falls back to the root walk, and a resumed walk
    // is byte-identical to the root walk by the radix layer's
    // path-invariance contract. See docs/session-fastpath.md.
    // ------------------------------------------------------------------

    /// Validates a radix cursor against this cache's state: the tree-level
    /// checks (generation, structure version, token divergence) plus the
    /// cache-level rule that the resume node's state must still be
    /// device-resident (a demoted resume path means the session has gone
    /// cold; distrust the hint). Returns the live resume node.
    fn resolve_cursor(
        &self,
        cursor: &MatchCursor,
        query: &[Token],
    ) -> Result<NodeId, CursorFallbackCause> {
        let node = self.tree.resume(cursor, query).map_err(|f| match f {
            CursorFault::StaleGeneration => CursorFallbackCause::StaleGeneration,
            CursorFault::StructureChanged => CursorFallbackCause::StructureChanged,
            CursorFault::QueryTooShort | CursorFault::EdgeDivergence => {
                CursorFallbackCause::QueryDiverged
            }
        })?;
        if self.tree.data(node).tier != Tier::Device {
            return Err(CursorFallbackCause::ResumeDemoted);
        }
        Ok(node)
    }

    /// Resolves a hint and produces the prefix match for `query`: resumed
    /// from the hinted node when the hint validates, the root walk
    /// otherwise. The second value is the telemetry outcome for
    /// [`emit_cursor_outcome`](Self::emit_cursor_outcome).
    fn match_with_hint(&self, query: &[Token], hint: CursorHint) -> (PrefixMatch, HintOutcome) {
        if !self.session_cursors {
            return (self.tree.match_prefix(query), HintOutcome::Cold);
        }
        let cursor = match hint {
            CursorHint::Cold => return (self.tree.match_prefix(query), HintOutcome::Cold),
            CursorHint::Rejected(cause) => {
                return (self.tree.match_prefix(query), HintOutcome::Fallback(cause));
            }
            CursorHint::Hint(c) => c,
        };
        match self.resolve_cursor(&cursor, query) {
            Ok(node) => {
                let m = self
                    .tree
                    .match_prefix_from(&cursor, query)
                    .expect("invariant: the cursor was validated against this query");
                let outcome = HintOutcome::Resumed {
                    node,
                    resumed_len: cursor.matched_len(),
                };
                (m, outcome)
            }
            Err(cause) => (self.tree.match_prefix(query), HintOutcome::Fallback(cause)),
        }
    }

    /// Emits the one cursor telemetry event a hinted operation produces
    /// (nothing for unhinted operations). Inside `emit(|| ...)` closures,
    /// so off stays free.
    fn emit_cursor_outcome(&self, outcome: &HintOutcome, query_len: usize, now: f64) {
        match *outcome {
            HintOutcome::Cold => {}
            HintOutcome::Resumed { node, resumed_len } => {
                self.tracer.emit(|| TraceEvent::CursorResumed {
                    ts: now,
                    cache: self.name.clone(),
                    node: node.index() as u64,
                    resumed_len,
                    delta_tokens: query_len as u64 - resumed_len,
                });
            }
            HintOutcome::Fallback(cause) => {
                self.tracer.emit(|| TraceEvent::CursorFallback {
                    ts: now,
                    cache: self.name.clone(),
                    cause,
                });
            }
        }
    }

    /// Maps the public `Option<SessionCursor>` hint into the internal
    /// [`CursorHint`]. An unsharded cache only honors shard-0 handles: a
    /// hint minted by a sharded front-end surfaces as a cross-shard
    /// fallback instead of silently resuming in the wrong tree.
    fn hint_from(hint: Option<SessionCursor>) -> CursorHint {
        match hint {
            None => CursorHint::Cold,
            Some(h) if h.shard == 0 => CursorHint::Hint(h.cursor),
            Some(_) => CursorHint::Rejected(CursorFallbackCause::CrossShard),
        }
    }

    /// Inserts `tokens`, resuming from the validated `resume` node when a
    /// fresh cursor can be captured there and `tokens` still extends its
    /// prefix; falls back to the root insert otherwise. Both paths produce
    /// byte-identical trees by the radix differential contract — the
    /// resume is purely a walk shortcut.
    ///
    /// A *fresh* cursor is captured per insert (rather than reusing the
    /// caller's) because earlier inserts in the same admission may have
    /// bumped the resume node's version (leaf flip, new child). The node
    /// itself cannot die mid-admission — inserts never remove nodes and
    /// eviction only runs after all of them — and its depth is
    /// path-invariant, so `cursor_at` always re-captures a valid resume
    /// point; `insert_from`'s own validation covers the rest (e.g. a
    /// checkpoint prefix shorter than the resume depth).
    /// The sequence arrives as the virtual concatenation `head ‖ tail`
    /// (callers with a single slice pass an empty tail), so admitting an
    /// input + output pair never allocates or copies the joined prompt —
    /// the seam-aware tree walks read the segments in place.
    fn insert_via(
        &mut self,
        resume: Option<NodeId>,
        head: &[Token],
        tail: &[Token],
    ) -> InsertOutcome {
        if let Some(id) = resume {
            if let Some(c) = self.tree.cursor_at(id) {
                if let Ok(outcome) = self.tree.insert_parts_from(&c, head, tail) {
                    return outcome;
                }
            }
        }
        self.tree.insert_parts(head, tail)
    }

    // ------------------------------------------------------------------
    // Flight-recorder emit helpers. Everything below is read-only with
    // respect to cache decisions and runs only while the tracer is
    // enabled (the off-is-free contract).
    // ------------------------------------------------------------------

    /// Miss-attribution taxonomy for one resolved lookup: `None` for a
    /// clean full-length device hit, otherwise the dominant cause —
    /// a raw match forfeited by the SSM all-or-nothing rule, a prefix the
    /// miss ledger remembers deleting (capacity pressure, or squeezed out
    /// while other paths were pinned), a degraded host-tier hit, or plain
    /// cold.
    fn classify_lookup(&self, input: &[Token], result: &LookupResult) -> Option<MissCause> {
        let input_len = input.len() as u64;
        if result.tokens_matched == input_len && result.host_tokens == 0 {
            return None;
        }
        if result.raw_matched > result.tokens_matched {
            return Some(MissCause::NeverCheckpointedSsm);
        }
        if let Some(cause) = self
            .miss_ledger
            .deepest_match(input, result.tokens_matched as usize)
        {
            return Some(cause);
        }
        if result.host_tokens > 0 {
            return Some(MissCause::DemotedHostHit);
        }
        if result.tokens_matched < input_len {
            return Some(MissCause::Cold);
        }
        None
    }

    /// Assembles the per-victim score breakdown for an eviction-episode
    /// event. Reads the same memoized inputs the scorer reads; populating
    /// the memo is invisible to every decision and log.
    fn victim_record(&mut self, victim: NodeId, action: VictimAction) -> VictimRecord {
        let (freed, eff) = self.node_costs(victim);
        let bytes = match action {
            VictimAction::Evicted => freed,
            VictimAction::Demoted => self.node_bytes(victim),
        };
        VictimRecord {
            node: victim.index() as u64,
            depth: self.tree.depth(victim),
            last_access: self.tree.data(victim).last_access,
            flop_efficiency: eff,
            bytes,
            action,
        }
    }

    /// Emits an [`TraceEvent::EdgeSplit`] if `outcome` split an edge.
    fn emit_split(&self, outcome: &InsertOutcome, now: f64) {
        if let Some(mid) = outcome.split_node {
            self.tracer.emit(|| TraceEvent::EdgeSplit {
                ts: now,
                cache: self.name.clone(),
                node: mid.index() as u64,
                new_leaf: outcome.new_leaf.map(|l| l.index() as u64),
            });
        }
    }

    /// Emits one [`TraceEvent::EvictionEpisode`] for the victims an
    /// episode took (no-op for an empty episode).
    fn emit_episode(
        &self,
        now: f64,
        tier: Tier,
        cause: PressureCause,
        pool_len: usize,
        victims: Vec<VictimRecord>,
    ) {
        if victims.is_empty() {
            return;
        }
        self.tracer.emit(|| TraceEvent::EvictionEpisode {
            ts: now,
            cache: self.name.clone(),
            tier: match tier {
                Tier::Device => TraceTier::Device,
                Tier::Host => TraceTier::Host,
            },
            cause,
            pool_len: pool_len as u64,
            alpha: self.effective_alpha,
            victims,
        });
    }

    /// Debug/test-only: the incremental host counters must equal a
    /// from-scratch scan of per-node tiers.
    #[cfg(any(debug_assertions, test))]
    fn assert_tier_accounting(&self) {
        let mut tokens = 0u64;
        let mut ssm = 0u64;
        for id in self.tree.node_ids() {
            let meta = self.tree.data(id);
            if meta.tier == Tier::Host {
                tokens += self.tree.edge_len(id);
                ssm += u64::from(meta.has_ssm_state);
            }
        }
        assert_eq!(tokens, self.host_tokens, "host_tokens drift");
        assert_eq!(ssm, self.host_ssm_states, "host_ssm_states drift");
    }

    /// Bytes that evicting `id` would free: a leaf releases its edge KVs
    /// and checkpoint; an intermediate node only its checkpoint (the child
    /// absorbs the edge KVs, §4.3).
    fn freed_bytes(&self, id: NodeId) -> u64 {
        let ssm = if self.tree.data(id).has_ssm_state {
            self.model.ssm_checkpoint_bytes()
        } else {
            0
        };
        if self.tree.is_leaf(id) {
            self.tree.edge_len(id) * self.model.kv_bytes_per_token() + ssm
        } else {
            ssm
        }
    }

    /// FLOPs a hit at `id` saves relative to its parent, per byte freed by
    /// evicting `id` (infinite when eviction frees nothing).
    fn node_flop_efficiency(&self, id: NodeId) -> f64 {
        let freed = self.freed_bytes(id);
        if freed == 0 {
            return f64::INFINITY;
        }
        let parent_depth = self
            .tree
            .parent(id)
            .map(|p| self.tree.depth(p))
            .unwrap_or(0);
        let delta =
            self.model.flops_saved(self.tree.depth(id)) - self.model.flops_saved(parent_depth);
        delta as f64 / freed as f64
    }

    /// Memoized `(freed_bytes, flop_efficiency)` for `id`.
    ///
    /// The FLOP math behind these scores walks the model's layer
    /// configuration, which dominated the old per-victim re-scan; here it
    /// runs once per node and is reused until the node's leaf status, edge
    /// length, or depth changes (tracked by the tree's structure version)
    /// or an SSM checkpoint lands on the node (explicit invalidation in
    /// [`checkpoint`](Self::checkpoint)).
    fn node_costs(&mut self, id: NodeId) -> (u64, f64) {
        let version = self.tree.structure_version(id);
        if let Some(memo) = self.tree.data(id).cost_memo {
            if memo.version == version {
                debug_assert_eq!(
                    memo.freed_bytes,
                    self.freed_bytes(id),
                    "stale freed_bytes memo on {id}"
                );
                debug_assert_eq!(
                    memo.flop_efficiency.to_bits(),
                    self.node_flop_efficiency(id).to_bits(),
                    "stale flop_efficiency memo on {id}"
                );
                return (memo.freed_bytes, memo.flop_efficiency);
            }
        }
        let freed = self.freed_bytes(id);
        let eff = self.node_flop_efficiency(id);
        self.tree.data_mut(id).cost_memo = Some(CostMemo {
            version,
            freed_bytes: freed,
            flop_efficiency: eff,
        });
        (freed, eff)
    }

    /// Refreshes a node's GDSF priority `H = L + F·C/S` after an access.
    ///
    /// No-op unless the active policy is [`EvictionPolicy::Gdsf`]: the
    /// other policies never read `frequency`/`gdsf_priority`, so paying a
    /// parent lookup plus two FLOP evaluations per inserted node for them
    /// was pure overhead.
    fn refresh_gdsf(&mut self, id: NodeId, bump_frequency: bool) {
        if !matches!(self.policy, EvictionPolicy::Gdsf) {
            return;
        }
        let (_, cost_per_byte) = self.node_costs(id);
        let clock = self.gdsf_clock;
        let meta = self.tree.data_mut(id);
        if bump_frequency {
            meta.frequency = meta.frequency.saturating_add(1);
        } else if meta.frequency == 0 {
            meta.frequency = 1;
        }
        meta.gdsf_priority = clock + f64::from(meta.frequency) * cost_per_byte;
    }

    /// GDSF's victim order: minimum priority, ties toward older nodes, then
    /// lower ids — a strict total order, so the minimum is independent of
    /// iteration order.
    fn gdsf_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        let (ma, mb) = (self.tree.data(a), self.tree.data(b));
        ma.gdsf_priority
            .total_cmp(&mb.gdsf_priority)
            .then(ma.last_access.total_cmp(&mb.last_access))
            .then(a.cmp(&b))
    }

    /// Resolves memory pressure on both tiers.
    ///
    /// Phase 1 (*device pressure*): while device usage exceeds the device
    /// capacity, pick the lowest-utility device-resident candidate. With a
    /// host tier (`host_capacity > 0`) the victim is **demoted** — its
    /// whole state moves to host DRAM, the tree is untouched; without one
    /// (or for zero-byte structural nodes) it is deleted, so
    /// `host_capacity = 0` is byte-identical to the single-tier cache.
    ///
    /// Demotion of the ≤ 1-child candidates can strand device bytes: a
    /// branch node whose children were all *demoted* (not deleted) keeps
    /// its 2+ children forever, never becomes a candidate, and its edge
    /// KVs pin the device tier. Deletion never had this problem (removing
    /// leaves cascades candidacy up). Demotion, however — unlike deletion
    /// — is structurally safe for *any* node, so when the candidates drain
    /// with the device tier still over its (hard, physical) capacity, the
    /// same loop runs over [`Source::DeviceFallback`] and demotes the
    /// remaining device-resident nodes by the same score until it fits.
    /// Only reachable with a host tier (single-tier deletion always
    /// cascades down to fit), so its O(arena) scan never touches the
    /// single-tier path.
    ///
    /// Phase 2 (*host pressure*): while host usage exceeds the host budget,
    /// the same loop runs over the host-resident candidates and **deletes**
    /// them (host is the last tier). Deleting a host-resident intermediate
    /// node hands its edge to the absorbing child, re-homing those KVs on
    /// the child's tier. Host-resident nodes that grew extra children since
    /// demotion are not candidates (deleting a shared prefix is
    /// structurally impossible); when only those remain the host tier stays
    /// (softly) over budget until their descendants go.
    ///
    /// The phases repeat until both tiers fit or neither can make progress
    /// (a merge into a device child can push the device tier back over).
    ///
    /// There is one loop ([`tier_pressure`](Self::tier_pressure)) and one
    /// selector ([`pick`](Self::pick)), and the selector reads the tree's
    /// candidate index live for every victim — nothing is snapshotted, so
    /// nothing needs repair after a deletion promotes a parent or a
    /// demotion flips a tier. Every pick equals what re-collecting and
    /// re-scoring every candidate by arena scan would choose, which is
    /// exactly what debug builds re-derive next to it.
    fn evict_until_fits(&mut self, report: &mut AdmissionReport) {
        #[cfg(test)]
        if self.use_scan_eviction {
            debug_assert_eq!(self.host_capacity, 0, "the scan reference predates tiering");
            return self.evict_until_fits_scan(report);
        }
        #[cfg(debug_assertions)]
        self.assert_tier_accounting();
        loop {
            let work_before = self.stats.evictions + self.stats.demotions;
            self.tier_pressure(Source::Candidates(Tier::Device), report);
            if self.host_capacity > 0 {
                self.tier_pressure(Source::DeviceFallback, report);
                // In-flight pins are the one legitimate way the fallback
                // can come up short: pinned bytes are unreclaimable until
                // their requests complete, so the device tier spills over
                // its budget rather than corrupting an in-flight path
                // (graceful admit-while-over-budget, not a livelock — the
                // no-progress check below terminates the episode).
                debug_assert!(
                    !self.over(Tier::Device)
                        || self
                            .tree
                            .pinned_ids()
                            .any(|id| self.tree.data(id).tier == Tier::Device),
                    "every unpinned device byte is demotable, so the fallback must fit"
                );
            }
            self.tier_pressure(Source::Candidates(Tier::Host), report);
            let fits = !self.over(Tier::Device) && !self.over(Tier::Host);
            if fits || self.stats.evictions + self.stats.demotions == work_before {
                break;
            }
        }
    }

    /// `true` while `tier` holds more bytes than its budget.
    fn over(&self, tier: Tier) -> bool {
        match tier {
            Tier::Device => self.usage() > self.capacity,
            Tier::Host => self.host_usage() > self.host_capacity,
        }
    }

    /// `true` if `id` may be taken from `source` right now: resident on
    /// the source's tier, not protected by an in-flight pin, and — for the
    /// candidate index — a leaf under the leaf-only ablation, or — for the
    /// fallback — actually holding bytes to move.
    ///
    /// Pins are filtered here, at pick time, rather than by pulling pinned
    /// nodes out of the candidate index: the index is an ordered set, so a
    /// pin has no order to perturb, and leaving membership alone keeps
    /// `pin`/`unpin` free of two B-tree operations per single-child
    /// ancestor per request.
    fn eligible(&self, id: NodeId, source: Source) -> bool {
        let meta = self.tree.data(id);
        meta.tier == source.tier()
            && !self.tree.is_pinned(id)
            && match source {
                Source::Candidates(_) => !self.leaf_only_eviction || self.tree.is_leaf(id),
                Source::DeviceFallback => self.node_bytes(id) > 0,
            }
    }

    /// The nodes [`eligible`](Self::eligible) for `source` at the live tree
    /// state: the candidate index band by band, each in ascending
    /// `(stamp, id)` order, or the arena in slot order.
    fn eligible_ids(&self, source: Source) -> impl Iterator<Item = NodeId> + '_ {
        let (index, arena) = match source {
            Source::Candidates(_) => (Some(self.tree.eviction_candidates()), None),
            Source::DeviceFallback => (None, Some(self.tree.node_ids())),
        };
        index
            .into_iter()
            .flatten()
            .chain(arena.into_iter().flatten())
            .filter(move |&id| self.eligible(id, source))
    }

    /// One pressure episode: while the source's tier is over budget, pick
    /// a victim and demote it (device tier, host tier present, bytes to
    /// move) or delete it. Zero-byte structural device nodes (no
    /// checkpoint, zero-width KVs) still merge away under tiering so the
    /// loop always progresses; host episodes (the last tier) always
    /// delete; fallback victims hold bytes by eligibility, so they are
    /// always demoted.
    fn tier_pressure(&mut self, source: Source, report: &mut AdmissionReport) {
        let tier = source.tier();
        if !self.over(tier) {
            return;
        }
        let mut episode = self
            .tracer
            .is_enabled()
            .then(|| (self.eligible_ids(source).count(), Vec::new()));
        while self.over(tier) {
            let Some(victim) = self.pick(source) else {
                break;
            };
            let action =
                if tier == Tier::Device && self.host_capacity > 0 && self.node_bytes(victim) > 0 {
                    VictimAction::Demoted
                } else {
                    VictimAction::Evicted
                };
            if let Some((_, victims)) = episode.as_mut() {
                victims.push(self.victim_record(victim, action));
            }
            match action {
                VictimAction::Demoted => self.demote_victim(victim, report),
                VictimAction::Evicted => self.delete_victim(victim, report, tier),
            }
        }
        if let Some((pool_len, victims)) = episode {
            self.emit_episode(self.clock, tier, source.cause(), pool_len, victims);
        }
    }

    /// The victim selector: the lowest-utility node
    /// [`eligible`](Self::eligible) for `source` at the live tree state, or
    /// `None` when nothing is. Two arms over the candidate index:
    ///
    /// * GDSF — minimum `(H, last_access, id)` over the source, advancing
    ///   the inflation clock to the victim's priority;
    /// * everything else — `S(n) = recency + α · flop_efficiency` by the
    ///   exact banded walk (`pick_victim_banded`, which states the
    ///   argument). When `α ≠ 0` every candidate still in band 0 is first
    ///   filed under the band of its memoized efficiency
    ///   ([`classify_candidates`](Self::classify_candidates)), so the index
    ///   holds two oldest-first bands per efficiency octave; the walk takes
    ///   the stamp range from the band ends and the efficiency range from
    ///   the two extreme bands, then visits bands from least efficient up
    ///   and leaves each as soon as no later entry can score below the best
    ///   so far. Floating-point scoring is monotone in stamp and
    ///   efficiency, so the victim is the one a full pass would pick, bit
    ///   for bit, at O(bands + visited) per victim. At `α = 0` nothing is
    ///   ever classed, band 0 is the whole index and its first eligible
    ///   entry is the victim: O(log n + skipped), where skipped counts the
    ///   other-tier, pinned or (leaf-only) non-leaf entries older than it.
    ///
    /// The fallback source is the arena, which has no bands and no recency
    /// order: there the same score is minimised by a full pass
    /// (`pick_victim_index`).
    fn pick(&mut self, source: Source) -> Option<NodeId> {
        let alpha = self.effective_alpha;
        let mut read = 0u64;
        let victim = if matches!(self.policy, EvictionPolicy::Gdsf) {
            let victim = self
                .eligible_ids(source)
                .inspect(|_| read += 1)
                .min_by(|&a, &b| self.gdsf_order(a, b));
            if let Some(v) = victim {
                let h = self.tree.data(v).gdsf_priority;
                if h.is_finite() {
                    self.gdsf_clock = self.gdsf_clock.max(h);
                }
            }
            victim
        } else if source == Source::DeviceFallback {
            let ids: Vec<NodeId> = self.eligible_ids(source).collect();
            read += ids.len() as u64;
            let scored: Vec<Candidate<NodeId>> = ids
                .into_iter()
                .map(|id| Candidate {
                    id,
                    last_access: self.tree.data(id).last_access,
                    flop_efficiency: self.node_costs(id).1,
                })
                .collect();
            pick_victim_index(&scored, alpha).map(|i| scored[i].id)
        } else {
            if alpha != 0.0 {
                self.classify_candidates();
            }
            let this = &*self;
            let bands = this.tree.candidate_bands().map(|(class, band)| {
                let candidates = band
                    .filter(move |&(_, id)| this.eligible(id, source))
                    .map(move |(_, id)| this.banded_candidate(id, alpha != 0.0));
                (class_lower_edge(class), candidates)
            });
            pick_victim_banded(bands, alpha, &mut read)
        };
        self.candidates_scored += read;
        #[cfg(debug_assertions)]
        assert_eq!(
            victim,
            self.scan_pick(source),
            "victim selection diverged from the index-free, memo-free arena scan"
        );
        victim
    }

    /// An index entry as the banded walk scores it. `scored` is off at
    /// `α = 0`, where no efficiency is memoized and none is read.
    fn banded_candidate(&self, id: NodeId, scored: bool) -> Candidate<NodeId> {
        let meta = self.tree.data(id);
        let flop_efficiency = if scored {
            let memo = meta
                .cost_memo
                .expect("invariant: a classed candidate carries the memo its class was read from");
            debug_assert_eq!(memo.version, self.tree.structure_version(id));
            memo.flop_efficiency
        } else {
            0.0
        };
        Candidate {
            id,
            last_access: meta.last_access,
            flop_efficiency,
        }
    }

    /// Files every still-unclassed candidate (band 0 of the tree's index)
    /// under the band of its efficiency, so the scored walk finds the index
    /// fully banded. Band 0 holds exactly the candidates created or
    /// structurally changed since the last scored pick — the tree returns a
    /// node there on every structure-version bump and
    /// [`checkpoint`](Self::checkpoint) does on a new SSM state, the two
    /// events that invalidate a [`CostMemo`] — so a classed candidate always
    /// carries a live memo of the efficiency its class was derived from.
    fn classify_candidates(&mut self) {
        loop {
            let unclassed = self
                .tree
                .candidate_bands()
                .next()
                .filter(|&(class, _)| class == 0)
                .and_then(|(_, mut band)| band.next());
            let Some((_, id)) = unclassed else {
                break;
            };
            let (_, efficiency) = self.node_costs(id);
            self.tree.set_class(id, efficiency_class(efficiency));
        }
    }

    /// Debug-only cross-check of [`pick`](Self::pick): re-derives the
    /// victim from nothing but the arena — candidacy from child counts (no
    /// index), scores from the model (no memo), one policy switch. Also
    /// what keeps the memos and the bands honest: a stale memo shows up as
    /// a different victim here, and a candidate filed under a band its
    /// efficiency does not belong to fails the class assert.
    #[cfg(debug_assertions)]
    fn scan_pick(&self, source: Source) -> Option<NodeId> {
        let ids = self.tree.node_ids().filter(|&id| {
            let candidate = self.tree.child_count(id) <= 1;
            (candidate || source == Source::DeviceFallback) && self.eligible(id, source)
        });
        if matches!(self.policy, EvictionPolicy::Gdsf) {
            return ids.min_by(|&a, &b| self.gdsf_order(a, b));
        }
        let candidates: Vec<Candidate<NodeId>> = ids
            .map(|id| {
                let flop_efficiency = self.node_flop_efficiency(id);
                let class = self.tree.class(id);
                assert!(
                    class == 0 || class == efficiency_class(flop_efficiency),
                    "invariant: a classed candidate sits in the band of its efficiency \
                     ({id}: class {class}, lower edge {}, efficiency {flop_efficiency})",
                    class_lower_edge(class)
                );
                Candidate {
                    id,
                    last_access: self.tree.data(id).last_access,
                    flop_efficiency,
                }
            })
            .collect();
        pick_victim_index(&candidates, self.effective_alpha).map(|i| candidates[i].id)
    }

    /// Demotes `victim` and records the move in stats and the admission
    /// report.
    fn demote_victim(&mut self, victim: NodeId, report: &mut AdmissionReport) {
        let moved = self.demote(victim);
        self.stats.demotions += 1;
        self.stats.bytes_demoted += moved;
        report.entries_demoted += 1;
        report.bytes_demoted += moved;
    }

    /// Deletes `victim` from `tier`: removes it from the tree (a leaf
    /// victim's parent may thereby become a candidate — the tree's index
    /// picks that up; a merge victim changes no candidacies), updates the
    /// cross-tier accounting, and books the eviction. The one deletion
    /// body both pressure phases share, so their victim handling can never
    /// drift.
    fn delete_victim(&mut self, victim: NodeId, report: &mut AdmissionReport, tier: Tier) {
        let (freed, _) = self.node_costs(victim);
        let victim_edge = self.tree.edge_len(victim);
        if self.tracer.is_enabled() {
            // Ledger first, while the path still exists: a later
            // short-matching lookup turns this entry into its attribution.
            // Stream the path's fingerprint edge-by-edge — materializing
            // the token vector per victim dominates recording cost.
            let mut chain = Vec::new();
            let mut cur = Some(victim);
            while let Some(c) = cur {
                chain.push(c);
                cur = self.tree.parent(c);
            }
            let mut fp = Fingerprint::new();
            for &id in chain.iter().rev() {
                fp.update(self.tree.edge_tokens(id));
            }
            let cause = if self.tree.pinned_count() > 0 {
                MissCause::PinnedBystander
            } else {
                MissCause::CapacityEvicted
            };
            self.miss_ledger
                .record_fingerprint(fp.finish(), fp.len(), cause);
        }
        let removed = self
            .tree
            .remove(victim)
            .expect("invariant: eviction candidates are unpinned leaves, hence removable");
        if let Some(child) = removed.merged_into {
            let victim_id = victim.index() as u64;
            self.tracer.emit(|| TraceEvent::EdgeMerge {
                ts: self.clock,
                cache: self.name.clone(),
                removed: victim_id,
                merged_into: child.index() as u64,
            });
        }
        self.apply_removed_accounting(victim_edge, &removed, tier);
        if removed.data.has_ssm_state {
            self.ssm_states -= 1;
        }
        #[cfg(test)]
        self.eviction_log.push(victim);
        self.stats.evictions += 1;
        self.stats.bytes_evicted += freed;
        if tier == Tier::Host {
            self.stats.host_evictions += 1;
            self.stats.bytes_host_evicted += freed;
        }
        report.entries_evicted += 1;
        report.bytes_evicted += freed;
    }

    /// Updates the host counters for a `victim_edge`-token node removed
    /// from `tier`. A leaf's edge leaves the tree; a merged intermediate's
    /// edge is absorbed by the child and re-homed on the *child's* tier
    /// (the cross-tier flow that can push the device tier back over
    /// capacity and re-trigger phase 1).
    fn apply_removed_accounting(
        &mut self,
        victim_edge: u64,
        removed: &marconi_radix::Removed<NodeMeta>,
        tier: Tier,
    ) {
        match tier {
            Tier::Device => {
                // A device leaf's tokens were device-resident; only a merge
                // into a host-resident child moves tokens across tiers.
                if let Some(child) = removed.merged_into {
                    if self.tree.data(child).tier == Tier::Host {
                        self.host_tokens += victim_edge;
                    }
                }
            }
            Tier::Host => {
                if removed.data.has_ssm_state {
                    self.host_ssm_states -= 1;
                }
                match removed.merged_into {
                    // Host leaf deleted outright.
                    None => self.host_tokens -= victim_edge,
                    Some(child) => {
                        if self.tree.data(child).tier == Tier::Device {
                            // The absorbed edge re-homes on the device
                            // child.
                            self.host_tokens -= victim_edge;
                        }
                    }
                }
            }
        }
    }

    /// The pre-refactor eviction loop, verbatim: re-collect every candidate
    /// by scanning the arena and re-derive every score, once per victim.
    /// Kept (test-only) as the reference the parity suite replays against.
    #[cfg(test)]
    fn evict_until_fits_scan(&mut self, report: &mut AdmissionReport) {
        use crate::policy::pick_victim;
        while self.usage() > self.capacity && !self.tree.is_empty() {
            let leaf_only = self.leaf_only_eviction;
            let ids: Vec<NodeId> = self
                .tree
                .node_ids()
                .filter(|&id| self.tree.child_count(id) <= 1)
                .filter(|&id| !leaf_only || self.tree.is_leaf(id))
                .collect();
            let victim = if matches!(self.policy, EvictionPolicy::Gdsf) {
                let v = ids.iter().copied().min_by(|&a, &b| self.gdsf_order(a, b));
                if let Some(v) = v {
                    let h = self.tree.data(v).gdsf_priority;
                    if h.is_finite() {
                        self.gdsf_clock = self.gdsf_clock.max(h);
                    }
                }
                v
            } else {
                let candidates: Vec<Candidate<NodeId>> = ids
                    .iter()
                    .map(|&id| Candidate {
                        id,
                        last_access: self.tree.data(id).last_access,
                        flop_efficiency: self.node_flop_efficiency(id),
                    })
                    .collect();
                pick_victim(&candidates, self.effective_alpha)
            };
            let Some(victim) = victim else {
                break;
            };
            let freed = self.freed_bytes(victim);
            let removed = self
                .tree
                .remove(victim)
                .expect("invariant: eviction candidates are unpinned leaves, hence removable");
            if removed.data.has_ssm_state {
                self.ssm_states -= 1;
            }
            self.eviction_log.push(victim);
            self.stats.evictions += 1;
            self.stats.bytes_evicted += freed;
            report.entries_evicted += 1;
            report.bytes_evicted += freed;
        }
    }

    /// Records an access on `id`: the float timestamp in the node's
    /// metadata (what scores are computed from) and its order-preserving
    /// integer image in the tree's recency index (the order every band is
    /// walked in). Every `last_access` write must go through here so the
    /// two views can never drift — the banded walk's bounds assume each
    /// band is sorted by the very stamps it scores.
    fn stamp_access(&mut self, id: NodeId, now: f64) {
        self.tree.data_mut(id).last_access = now;
        self.tree.touch(id, recency_stamp(now));
    }

    /// Marks an SSM checkpoint on `id` if absent; returns 1 if newly added.
    fn checkpoint(&mut self, id: NodeId, now: f64) -> u64 {
        self.stamp_access(id, now);
        let meta = self.tree.data_mut(id);
        if meta.has_ssm_state {
            0
        } else {
            meta.has_ssm_state = true;
            // The checkpoint changes what evicting this node frees: drop
            // the memoized scores, and the band derived from them.
            meta.cost_memo = None;
            if meta.tier == Tier::Host {
                // Checkpointing a still-host-resident node (promotion runs
                // after all checkpoints land): keep the tier counters in
                // step.
                self.host_ssm_states += 1;
            }
            self.tree.set_class(id, 0);
            self.ssm_states += 1;
            1
        }
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

    /// Runs the α tuner state machine after an admission.
    fn observe_for_tuning(&mut self, input: &[Token], output: &[Token], now: f64) {
        let Some(tuner) = self.tuner.take() else {
            return;
        };
        self.tuner = Some(match tuner {
            Tuner::Waiting {
                config,
                requests_seen,
            } => {
                let requests_seen = requests_seen + 1;
                if self.stats.evictions + self.stats.demotions > 0 {
                    // First pressure event — a deletion, or (tiered) a
                    // demotion: snapshot and start the bootstrap window
                    // (recording begins with the *next* request). A tiered
                    // cache with an ample host budget may never delete,
                    // but α starts mattering at the first demotion: it
                    // decides which nodes stay device-resident vs pay a
                    // PCIe reload.
                    let target = config.window_len(requests_seen);
                    Tuner::Bootstrapping {
                        config,
                        snapshot: Box::new(Snapshot {
                            tree: self.tree.clone(),
                            ssm_states: self.ssm_states,
                            host_tokens: self.host_tokens,
                            host_ssm_states: self.host_ssm_states,
                            clock: self.clock,
                        }),
                        recorded: Vec::new(),
                        target,
                    }
                } else {
                    Tuner::Waiting {
                        config,
                        requests_seen,
                    }
                }
            }
            Tuner::Bootstrapping {
                config,
                snapshot,
                mut recorded,
                target,
            } => {
                recorded.push((input.to_vec(), output.to_vec(), now));
                if (recorded.len() as u64) < target {
                    Tuner::Bootstrapping {
                        config,
                        snapshot,
                        recorded,
                        target,
                    }
                } else {
                    let alpha = grid_search(
                        self,
                        &snapshot,
                        &recorded,
                        &config.alpha_grid,
                        config.parallel,
                    );
                    self.effective_alpha = alpha;
                    Tuner::Tuned { alpha }
                }
            }
            tuned @ Tuner::Tuned { .. } => tuned,
        });
    }

    /// Builds a fixed-α replica seeded from a snapshot, for replay.
    ///
    /// The replica mirrors every behavioral knob of the live cache —
    /// checkpoint mode, ancestor refresh, leaf-only eviction, in-flight
    /// pinning, and the tier knobs (host capacity, reload policy) —
    /// differing only in its (fixed) α. Anything less and the tuner grades each α against replay
    /// dynamics the live cache will never exhibit: e.g. a tiered cache's
    /// demoted entries keep hitting, so a single-tier replica would
    /// systematically underestimate reuse.
    fn replica(&self, snapshot: &Snapshot, alpha: f64) -> Self {
        // The snapshot may have been taken while requests were in flight;
        // replay models no request lifetimes, so the replica starts with
        // every pin released (the live cache's pins drain by completion
        // anyway — a replica keeping them would protect paths forever).
        let mut tree = snapshot.tree.clone();
        tree.clear_pins();
        HybridPrefixCache {
            name: "replica".into(),
            model: self.model.clone(),
            capacity: self.capacity,
            host_capacity: self.host_capacity,
            reload_policy: self.reload_policy,
            tree,
            ssm_states: snapshot.ssm_states,
            host_tokens: snapshot.host_tokens,
            host_ssm_states: snapshot.host_ssm_states,
            policy: EvictionPolicy::FlopAware { alpha },
            tuner: None,
            effective_alpha: alpha,
            stats: CacheStats::default(),
            clock: snapshot.clock,
            checkpoint_mode: self.checkpoint_mode,
            refresh_ancestors: self.refresh_ancestors,
            leaf_only_eviction: self.leaf_only_eviction,
            pin_in_flight: self.pin_in_flight,
            session_cursors: self.session_cursors,
            gdsf_clock: 0.0,
            candidates_scored: 0,
            // Replicas replay silently: the tuner's grid-search probes are
            // hypotheticals, not serving decisions, so they never trace.
            tracer: Tracer::off(),
            miss_ledger: MissLedger::default(),
            #[cfg(test)]
            eviction_log: Vec::new(),
            #[cfg(test)]
            use_scan_eviction: self.use_scan_eviction,
        }
    }
}

/// Replays the bootstrap window for each α and returns the hit-rate
/// maximizer (ties break toward the smaller α, so LRU wins when FLOP
/// awareness adds nothing).
fn grid_search(
    parent: &HybridPrefixCache,
    snapshot: &Snapshot,
    events: &[(Vec<Token>, Vec<Token>, f64)],
    grid: &[f64],
    parallel: bool,
) -> f64 {
    assert!(!grid.is_empty(), "alpha grid must be non-empty");
    let score = |alpha: f64| -> f64 {
        let mut cache = parent.replica(snapshot, alpha);
        for (input, output, at) in events {
            cache.lookup_at(input, *at);
            cache.insert_at(input, output, *at);
        }
        cache.stats.token_hit_rate()
    };
    let scores: Vec<(f64, f64)> = if parallel {
        std::thread::scope(|s| {
            let handles: Vec<_> = grid
                .iter()
                .map(|&alpha| s.spawn(move || (alpha, score(alpha))))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("invariant: replica replay threads do not panic")
                })
                .collect()
        })
    } else {
        grid.iter().map(|&a| (a, score(a))).collect()
    };
    scores
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.total_cmp(&a.0)))
        .map(|(alpha, _)| alpha)
        .expect("invariant: the α grid is non-empty")
}

/// How a hinted operation obtained its prefix match — the telemetry
/// currency between hint resolution and the single
/// `CursorResumed`/`CursorFallback` event each hinted operation emits.
/// Never consulted for cache decisions: hinted and unhinted paths are
/// byte-identical apart from these events.
#[derive(Debug, Clone, Copy)]
enum HintOutcome {
    /// No hint offered (or session cursors disabled): silent root walk.
    Cold,
    /// The hint validated; the walk resumed from `node`.
    Resumed {
        /// The validated resume node.
        node: NodeId,
        /// Tokens the resume skipped (the cursor's matched length).
        resumed_len: u64,
    },
    /// The hint failed validation; root walk plus a fallback event.
    Fallback(CursorFallbackCause),
}

impl PrefixCache for HybridPrefixCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        // Mirror of `lookup_at`'s match logic over `&self`: `match_prefix`
        // never mutates, no timestamps are stamped, no stats move, and no
        // speculative insertion fires — the whole point of the probe.
        let m = self.tree.match_prefix(input);
        self.reusable_len(&m)
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
        let (m, hint_outcome) = self.match_with_hint(input, Self::hint_from(hint));
        self.emit_cursor_outcome(&hint_outcome, input.len(), now);
        let mut result = if self.model.has_ssm() {
            // All-or-nothing: reuse stops at the deepest checkpointed node.
            let hit = m
                .path
                .iter()
                .rev()
                .copied()
                .find(|&id| self.tree.data(id).has_ssm_state);
            match hit {
                Some(node) => {
                    let depth = self.tree.depth(node);
                    LookupResult {
                        tokens_matched: depth,
                        raw_matched: m.matched_len,
                        node: Some(node),
                        flops_saved: self.model.flops_saved(depth),
                        ..LookupResult::MISS
                    }
                }
                None => LookupResult {
                    raw_matched: m.matched_len,
                    ..LookupResult::MISS
                },
            }
        } else {
            // Pure Transformer: KVs slice at any token boundary. A match
            // ending mid-edge is served from the *containing child's* KVs,
            // so that child is the node whose recency the hit must refresh;
            // crediting only `deepest()` (or nothing, at the root) would
            // leave a hot, partially-matched prefix looking idle until LRU
            // pressure evicts it.
            LookupResult {
                tokens_matched: m.matched_len,
                raw_matched: m.matched_len,
                node: if m.ends_mid_edge {
                    m.mid_edge_child
                } else {
                    m.deepest()
                },
                flops_saved: self.model.flops_saved(m.matched_len),
                ..LookupResult::MISS
            }
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
                    let hit_depth = self.tree.depth(node);
                    for &id in &m.path {
                        if self.tree.depth(id) <= hit_depth {
                            self.stamp_access(id, now);
                        }
                    }
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
        self.clock = self.clock.max(now);
        let mut report = AdmissionReport::default();
        let tokens_before = self.tree.token_count();
        let mut admitted = 0u64;

        // Resolve the hint once, against the input prefix the session
        // extends. The validated node stays a correct resume anchor for
        // every walk below (`insert_via` re-captures fresh cursors there).
        let (resume, hint_outcome) = if !self.session_cursors {
            (None, HintOutcome::Cold)
        } else {
            match Self::hint_from(hint) {
                CursorHint::Cold => (None, HintOutcome::Cold),
                CursorHint::Rejected(cause) => (None, HintOutcome::Fallback(cause)),
                CursorHint::Hint(c) => match self.resolve_cursor(&c, input) {
                    Ok(node) => (
                        Some(node),
                        HintOutcome::Resumed {
                            node,
                            resumed_len: c.matched_len(),
                        },
                    ),
                    Err(cause) => (None, HintOutcome::Fallback(cause)),
                },
            }
        };
        self.emit_cursor_outcome(&hint_outcome, input.len(), now);

        // Purely-input reuse (§4.1): speculative insertion of the input
        // segment; a predicted intermediate node marks a shared prefix
        // whose SSM state is checkpointed during prefill.
        if self.model.has_ssm() && !input.is_empty() {
            let spec = match resume.and_then(|id| self.tree.cursor_at(id)) {
                Some(c) => self
                    .tree
                    .speculate_insert_from(&c, input)
                    .unwrap_or_else(|_| self.tree.speculate_insert(input)),
                None => self.tree.speculate_insert(input),
            };
            if let Some(branch_depth) = spec.creates_branch_at {
                // Chunked state passing can only materialize states at
                // chunk boundaries; two-pass/exact hits the branch itself.
                let target = self.checkpoint_mode.checkpoint_depth(branch_depth);
                if target > 0 {
                    let outcome = self.insert_via(resume, &input[..target as usize], &[]);
                    self.inherit_split_tier(&outcome);
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
        let mut end_node = None;
        if !input.is_empty() || !output.is_empty() {
            let outcome = self.insert_via(resume, input, output);
            self.inherit_split_tier(&outcome);
            self.stamp_new_nodes(&outcome, now);
            self.emit_split(&outcome, now);
            if self.model.has_ssm() {
                admitted += self.checkpoint(outcome.end_node, now);
            }
            end_node = Some(outcome.end_node);
        }

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

        let kv_added = (self.tree.token_count() - tokens_before) * self.model.kv_bytes_per_token();
        report.ssm_states_admitted = admitted;
        report.bytes_added = kv_added + admitted * self.model.ssm_checkpoint_bytes();
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
        let next = if self.session_cursors {
            end_node.and_then(|id| {
                let cursor = self.tree.cursor_at(id)?;
                (self.tree.data(id).tier == Tier::Device)
                    .then_some(SessionCursor { cursor, shard: 0 })
            })
        } else {
            None
        };
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
        if !self.pin_in_flight {
            return PinTicket::default();
        }
        // Mirror of `lookup_at`'s hit-node selection over the same match,
        // so the pinned node is exactly the node whose KVs (and, through
        // the subtree-inclusive pin walk, whose ancestors' KVs) the
        // in-flight request reads while decoding. No recency, stats, or
        // GDSF state moves: pinning composes with the non-mutating-probe
        // discipline even though it needs `&mut` for the refcounts.
        let (m, hint_outcome) = self.match_with_hint(input, Self::hint_from(hint));
        self.emit_cursor_outcome(&hint_outcome, input.len(), self.clock);
        let node = if self.model.has_ssm() {
            m.path
                .iter()
                .rev()
                .copied()
                .find(|&id| self.tree.data(id).has_ssm_state)
        } else if m.ends_mid_edge {
            m.mid_edge_child
        } else {
            m.deepest()
        };
        if let Some(id) = node {
            self.tree.pin(id);
            self.tracer.emit(|| TraceEvent::Pin {
                ts: self.clock,
                cache: self.name.clone(),
                node: id.index() as u64,
            });
        }
        PinTicket { node, shard: 0 }
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
    pin_in_flight: bool,
    session_cursors: bool,
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
    /// Default off.
    #[must_use]
    pub fn leaf_only_eviction(mut self, enabled: bool) -> Self {
        self.leaf_only_eviction = enabled;
        self
    }

    /// Honor in-flight pins ([`PrefixCache::pin_prefix`]): pinned paths
    /// are excluded from eviction and demotion in both tiers until their
    /// requests complete, at the cost of the device tier spilling over its
    /// byte budget when everything reclaimable is pinned. Default on;
    /// turning it off reproduces the pre-pinning behavior where pressure
    /// can reclaim a path an in-flight request is still decoding against.
    #[must_use]
    pub fn in_flight_pinning(mut self, enabled: bool) -> Self {
        self.pin_in_flight = enabled;
        self
    }

    /// Honor session-cursor hints ([`PrefixCache::lookup_at_with`] /
    /// [`PrefixCache::insert_at_with`] / [`PrefixCache::pin_prefix_with`]):
    /// a valid hint resumes the walk from the session's deep node in
    /// O(new tokens). Default on. Results are byte-identical with the
    /// knob off (hints are ignored and no cursors are minted) — the
    /// switch exists for the root-walk baseline in benches and the parity
    /// tests that pin that contract.
    #[must_use]
    pub fn session_cursors(mut self, enabled: bool) -> Self {
        self.session_cursors = enabled;
        self
    }

    /// Builds the cache.
    pub fn build(self) -> HybridPrefixCache {
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
            tree: RadixTree::new(),
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
            leaf_only_eviction: self.leaf_only_eviction,
            pin_in_flight: self.pin_in_flight,
            session_cursors: self.session_cursors,
            gdsf_clock: 0.0,
            candidates_scored: 0,
            tracer: Tracer::off(),
            miss_ledger: MissLedger::default(),
            #[cfg(test)]
            eviction_log: Vec::new(),
            #[cfg(test)]
            use_scan_eviction: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn cold_lookup_misses() {
        let mut c = marconi(1 << 40);
        let r = c.lookup(&seq(0..100));
        assert!(!r.is_hit());
        assert_eq!(c.stats().lookups, 1);
        assert_eq!(c.stats().token_hit_rate(), 0.0);
    }

    #[test]
    fn conversation_resume_hits_last_decoded_state() {
        // Input-and-output reuse: turn 2 = turn 1's input + output + more.
        let mut c = marconi(1 << 40);
        let input = seq(0..100);
        let output = seq(1000..1050);
        c.insert_sequence(&input, &output);

        let mut turn2 = input.clone();
        turn2.extend_from_slice(&output);
        turn2.extend(seq(2000..2020));
        let r = c.lookup(&turn2);
        assert_eq!(r.tokens_matched, 150, "hit at the last decoded token");
        assert_eq!(r.raw_matched, 150);
    }

    #[test]
    fn purely_input_prefix_hits_on_third_occurrence() {
        // §4.1 tradeoffs: the first occurrence caches nothing reusable at
        // the branch point, the second identifies + checkpoints it, the
        // third hits.
        let mut c = marconi(1 << 40);
        let prompt = seq(0..500);
        let mk = |i: u32| {
            let mut v = prompt.clone();
            v.extend(seq(1000 * i..1000 * i + 50));
            v
        };

        let r1 = c.lookup(&mk(1));
        assert_eq!(r1.tokens_matched, 0);
        c.insert_sequence(&mk(1), &seq(9000..9010));

        let r2 = c.lookup(&mk(2));
        assert_eq!(r2.tokens_matched, 0, "shared prefix not yet checkpointed");
        let rep2 = c.insert_sequence(&mk(2), &seq(9100..9110));
        assert_eq!(rep2.branch_checkpoint_depth, Some(500));

        let r3 = c.lookup(&mk(3));
        assert_eq!(r3.tokens_matched, 500, "branch-point state reused");
        assert_eq!(r3.raw_matched, 500);
    }

    #[test]
    fn at_most_two_ssm_states_per_sequence() {
        let mut c = marconi(1 << 40);
        c.insert_sequence(&seq(0..300), &seq(1000..1100));
        let report = c.insert_sequence(&seq(0..200), &seq(2000..2100));
        assert!(report.ssm_states_admitted <= 2, "judicious admission");
        // First insertion: only the final state (no branch existed yet).
        assert_eq!(
            c.stats().ssm_states_admitted,
            1 + report.ssm_states_admitted
        );
    }

    #[test]
    fn hybrid_hits_are_all_or_nothing() {
        // A request sharing only part of a cached sequence cannot reuse the
        // deeper SSM state: raw match > usable match.
        let mut c = marconi(1 << 40);
        c.insert_sequence(&seq(0..100), &seq(1000..1010));
        let query = seq(0..50); // strict prefix: no checkpoint at 50
        let r = c.lookup(&query);
        assert_eq!(r.raw_matched, 50);
        assert_eq!(r.tokens_matched, 0, "no state at token 50");
    }

    #[test]
    fn pure_transformer_reuses_arbitrary_prefixes() {
        let mut c = HybridPrefixCache::builder(ModelConfig::transformer_7b())
            .capacity_bytes(1 << 40)
            .build();
        c.insert_sequence(&seq(0..100), &seq(1000..1010));
        let r = c.lookup(&seq(0..50));
        assert_eq!(r.tokens_matched, 50, "KVs slice at any boundary");
        assert_eq!(r.node, None.or(r.node), "node may be None mid-edge");
    }

    #[test]
    fn usage_accounting_matches_model_math() {
        let mut c = marconi(1 << 40);
        let input = seq(0..128);
        let output = seq(1000..1032);
        c.insert_sequence(&input, &output);
        let m = ModelConfig::hybrid_7b();
        let expect = 160 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
        assert_eq!(c.usage_bytes(), expect);
        assert_eq!(c.ssm_state_count(), 1);
    }

    #[test]
    fn eviction_keeps_usage_within_capacity() {
        let m = ModelConfig::hybrid_7b();
        // Room for roughly two 128-token sequences with one state each.
        let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
        let mut c = sglang(capacity);
        for i in 0..10u32 {
            let input = seq(i * 10_000..i * 10_000 + 96);
            let output = seq(i * 10_000 + 500..i * 10_000 + 532);
            c.insert_sequence(&input, &output);
            assert!(c.usage_bytes() <= capacity, "iteration {i}");
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn lru_evicts_oldest_sequence_first() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
        let mut c = sglang(capacity);
        c.insert_sequence(&seq(0..96), &seq(500..532)); // A (oldest)
        c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B

        // C forces eviction of A.
        c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));
        let mut turn_b = seq(10_000..10_096);
        turn_b.extend(seq(10_500..10_532));
        assert!(c.lookup(&turn_b).is_hit(), "B retained");
        let mut turn_a = seq(0..96);
        turn_a.extend(seq(500..532));
        assert!(!c.lookup(&turn_a).is_hit(), "A evicted");
    }

    #[test]
    fn hit_refreshes_recency_and_prevents_eviction() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
        let mut c = sglang(capacity);
        c.insert_sequence(&seq(0..96), &seq(500..532)); // A
        c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B

        // Touch A so B becomes the LRU victim.
        let mut turn_a = seq(0..96);
        turn_a.extend(seq(500..532));
        assert!(c.lookup(&turn_a).is_hit());
        c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532)); // C
        assert!(c.lookup(&turn_a).is_hit(), "A survived after refresh");
    }

    #[test]
    fn flop_aware_trades_short_for_long_sequences() {
        // Under contention, high α retains the long sequence even when the
        // short one is more recent — the paper's core eviction tradeoff.
        let m = ModelConfig::hybrid_7b();
        let long_input = seq(0..4096);
        let short_input = seq(100_000..100_128);
        let fits_one_long = 4200 * m.kv_bytes_per_token() + 3 * m.ssm_checkpoint_bytes();

        let run = |policy: EvictionPolicy| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(fits_one_long)
                .policy(policy)
                .build();
            c.insert_sequence(&long_input, &seq(200_000..200_032));
            // A burst of fresh short sequences applies pressure.
            for i in 0..4u32 {
                c.insert_sequence(
                    &seq(300_000 + i * 1000..300_000 + i * 1000 + 128),
                    &seq(400_000 + i * 1000..400_000 + i * 1000 + 16),
                );
            }
            let mut long_turn2 = long_input.clone();
            long_turn2.extend(seq(200_000..200_032));
            let _ = c.lookup(&short_input);
            c.lookup(&long_turn2).tokens_matched
        };

        let lru_hit = run(EvictionPolicy::Lru);
        let flop_hit = run(EvictionPolicy::FlopAware { alpha: 8.0 });
        assert!(
            flop_hit > lru_hit,
            "flop-aware ({flop_hit}) must retain the long prefix; lru got {lru_hit}"
        );
    }

    #[test]
    fn scored_picks_band_the_index_and_lru_picks_never_do() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 600 * m.kv_bytes_per_token() + 8 * m.ssm_checkpoint_bytes();
        let run = |policy: EvictionPolicy| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .policy(policy)
                .build();
            for i in 0..12u32 {
                let len = 32 << (i % 4);
                c.insert_sequence(&seq(i * 10_000..i * 10_000 + len), &seq(900_000..900_008));
            }
            assert!(c.stats().evictions > 0);
            c
        };
        let lru = run(EvictionPolicy::Lru);
        assert!(lru.tree.node_ids().all(|id| lru.tree.class(id) == 0));
        assert_eq!(lru.tree.candidate_bands().count(), 1);

        let scored = run(EvictionPolicy::FlopAware { alpha: 2.0 });
        assert!(scored.tree.candidate_bands().count() > 1);
        for id in scored.tree.eviction_candidates() {
            let class = scored.tree.class(id);
            // Nodes the last admission created or restructured wait in
            // band 0 for the next scored pick; every other candidate is
            // filed under its efficiency, with the memo it was read from.
            if class != 0 {
                let memo = scored.tree.data(id).cost_memo;
                let memo = memo.expect("invariant: a classed candidate carries its memo");
                assert_eq!(memo.version, scored.tree.structure_version(id));
                assert_eq!(class, efficiency_class(memo.flop_efficiency));
                assert_eq!(class, efficiency_class(scored.node_flop_efficiency(id)));
            }
        }
        // Selecting reads candidates; so the counter moved under both.
        assert!(lru.candidates_scored() >= lru.stats().evictions);
        assert!(scored.candidates_scored() >= scored.stats().evictions);
    }

    /// The seeded fault for the class invariant: a candidate filed one band
    /// too high (lower edge above its true efficiency) must not survive the
    /// next pick's debug cross-check.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invariant: a classed candidate sits in the band of its efficiency")]
    fn scan_pick_catches_a_candidate_filed_one_band_too_high() {
        let m = ModelConfig::hybrid_7b();
        let mut c = HybridPrefixCache::builder(m.clone())
            .capacity_bytes(600 * m.kv_bytes_per_token() + 8 * m.ssm_checkpoint_bytes())
            .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
            .build();
        let mut next = 0u32;
        let mut admit = |c: &mut HybridPrefixCache| {
            c.insert_sequence(
                &seq(next * 10_000..next * 10_000 + 96),
                &seq(900_000..900_008),
            );
            next += 1;
        };
        while c.stats().evictions == 0 {
            admit(&mut c);
        }
        let id = c
            .tree
            .eviction_candidates()
            .find(|&id| c.tree.class(id) != 0)
            .expect("a scored pick has filed the survivors");
        let class = c.tree.class(id);
        c.tree.set_class(id, class + 1);
        // The next admission evicts again, and that pick must refuse.
        admit(&mut c);
        admit(&mut c);
    }

    #[test]
    fn auto_tuner_walks_through_lifecycle() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 2 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
        let mut c = HybridPrefixCache::builder(m)
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
                parallel: false,
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
    fn tuner_grid_search_is_deterministic_across_parallelism() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 3 * (160 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes());
        let run = |parallel: bool| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .policy(EvictionPolicy::AutoTuned(TunerConfig {
                    bootstrap_multiplier: 5.0,
                    alpha_grid: vec![0.0, 0.5, 2.0],
                    parallel,
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
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn zero_capacity_cache_stays_empty_but_serves() {
        let mut c = marconi(0);
        c.insert_sequence(&seq(0..64), &seq(100..110));
        assert_eq!(c.usage_bytes(), 0);
        assert!(!c.lookup(&seq(0..64)).is_hit());
    }

    #[test]
    fn empty_input_and_output_are_tolerated() {
        let mut c = marconi(1 << 40);
        let r = c.lookup(&[]);
        assert_eq!(r.tokens_matched, 0);
        let rep = c.insert_sequence(&[], &[]);
        assert_eq!(rep.ssm_states_admitted, 0);
        assert_eq!(c.usage_bytes(), 0);
    }

    #[test]
    fn builder_names_follow_policy() {
        let m = ModelConfig::hybrid_7b();
        assert_eq!(
            HybridPrefixCache::builder(m.clone()).build().name(),
            "marconi"
        );
        assert_eq!(
            HybridPrefixCache::builder(m.clone())
                .policy(EvictionPolicy::Lru)
                .build()
                .name(),
            "sglang+"
        );
        assert_eq!(
            HybridPrefixCache::builder(m).name("custom").build().name(),
            "custom"
        );
    }

    #[test]
    fn chunked_checkpointing_rounds_down_to_boundary() {
        // §4.1: "when prefilling ... if we need to cache the state at
        // token 80, we can checkpoint the state at token 64" (chunk 32).
        assert_eq!(CheckpointMode::Exact.checkpoint_depth(80), 80);
        assert_eq!(
            CheckpointMode::Chunked { chunk_size: 32 }.checkpoint_depth(80),
            64
        );
        assert_eq!(
            CheckpointMode::Chunked { chunk_size: 32 }.checkpoint_depth(20),
            0,
            "no boundary before the branch: skip the checkpoint"
        );

        let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 42)
            .checkpoint_mode(CheckpointMode::Chunked { chunk_size: 32 })
            .build();
        let prompt = seq(0..80);
        let mk = |tag: u32| {
            let mut v = prompt.clone();
            v.extend(seq(tag..tag + 16));
            v
        };
        c.insert_sequence(&mk(1000), &seq(9000..9004));
        let rep = c.insert_sequence(&mk(2000), &seq(9100..9104));
        assert_eq!(
            rep.branch_checkpoint_depth,
            Some(64),
            "branch at 80 checkpoints at the chunk boundary 64"
        );
        // The third occurrence reuses 64 tokens instead of 80.
        assert_eq!(c.lookup(&mk(3000)).tokens_matched, 64);
    }

    #[test]
    fn gdsf_prefers_low_cost_per_byte_victims() {
        // One long (high C/S) and several short fresh sequences; GDSF must
        // keep the long one even when it is older.
        let m = ModelConfig::hybrid_7b();
        let long_input = seq(0..2048);
        let capacity = 2400 * m.kv_bytes_per_token() + 3 * m.ssm_checkpoint_bytes();
        let mut c = HybridPrefixCache::builder(m)
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Gdsf)
            .build();
        c.insert_sequence(&long_input, &seq(100_000..100_016));
        for i in 0..4u32 {
            c.insert_sequence(
                &seq(200_000 + i * 1000..200_000 + i * 1000 + 64),
                &seq(300_000 + i * 10..300_000 + i * 10 + 8),
            );
        }
        let mut resume = long_input.clone();
        resume.extend(seq(100_000..100_016));
        assert!(
            c.lookup(&resume).tokens_matched > 0,
            "GDSF should retain the high-cost long prefix"
        );
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn gdsf_respects_capacity_and_terminates() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 300 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes();
        let mut c = HybridPrefixCache::builder(m)
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Gdsf)
            .build();
        for i in 0..12u32 {
            c.insert_sequence(
                &seq(i * 10_000..i * 10_000 + 128),
                &seq(i * 10_000 + 5000..i * 10_000 + 5016),
            );
            assert!(c.usage_bytes() <= capacity);
        }
    }

    #[test]
    fn ancestor_refresh_ablation_changes_lru_order() {
        // With the ablation on, a deep hit refreshes the whole chain, so
        // LRU keeps the ancestors; with Marconi's rule the ancestors stay
        // stale but hits are unaffected (their KVs are absorbed on
        // eviction). Both configurations must still serve the resume.
        let m = ModelConfig::hybrid_7b();
        let capacity = 1200 * m.kv_bytes_per_token() + 6 * m.ssm_checkpoint_bytes();
        for ablate in [false, true] {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .policy(EvictionPolicy::Lru)
                .refresh_ancestors(ablate)
                .build();
            // Build a 3-turn conversation (a chain of 3 nodes).
            let mut history = seq(0..256);
            c.insert_sequence(&history, &seq(9000..9032));
            history.extend(seq(9000..9032));
            for t in 1..3u32 {
                let mut input = history.clone();
                input.extend(seq(t * 1000..t * 1000 + 64));
                c.insert_sequence(&input, &seq(9100 * t..9100 * t + 32));
                history = input;
                history.extend(seq(9100 * t..9100 * t + 32));
            }
            let hit = c.lookup(&history);
            assert_eq!(
                hit.tokens_matched,
                history.len() as u64,
                "ablate={ablate}: full-history resume"
            );
        }
    }

    #[test]
    fn leaf_only_eviction_pins_interior_checkpoints() {
        // With the ablation on, stale single-child interior nodes cannot be
        // evicted, so their SSM states keep occupying memory and more
        // leaves must go instead.
        let m = ModelConfig::hybrid_7b();
        let capacity = 800 * m.kv_bytes_per_token() + 6 * m.ssm_checkpoint_bytes();
        let run = |leaf_only: bool| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .policy(EvictionPolicy::Lru)
                .leaf_only_eviction(leaf_only)
                .build();
            // One growing conversation (interior chain) + short floods.
            let mut history = seq(0..256);
            c.insert_sequence(&history, &seq(9000..9032));
            history.extend(seq(9000..9032));
            for t in 1..4u32 {
                let mut input = history.clone();
                input.extend(seq(t * 1000..t * 1000 + 64));
                c.insert_sequence(&input, &seq(9100 * t..9100 * t + 16));
                history = input;
                history.extend(seq(9100 * t..9100 * t + 16));
            }
            for i in 0..6u32 {
                c.insert_sequence(
                    &seq(500_000 + i * 1000..500_000 + i * 1000 + 96),
                    &seq(600_000 + i * 10..600_000 + i * 10 + 8),
                );
            }
            (c.ssm_state_count(), c.usage_bytes())
        };
        let (states_marconi, usage_a) = run(false);
        let (states_ablated, usage_b) = run(true);
        assert!(usage_a <= capacity && usage_b <= capacity);
        assert!(
            states_ablated >= states_marconi,
            "pinned interiors retain at least as many states: {states_ablated} vs {states_marconi}"
        );
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
        let snapshot = Snapshot {
            tree: parent.tree.clone(),
            ssm_states: parent.ssm_states,
            host_tokens: parent.host_tokens,
            host_ssm_states: parent.host_ssm_states,
            clock: parent.clock,
        };
        let replica = parent.replica(&snapshot, 1.5);
        assert_eq!(replica.checkpoint_mode, parent.checkpoint_mode);
        assert_eq!(replica.refresh_ancestors, parent.refresh_ancestors);
        assert_eq!(replica.leaf_only_eviction, parent.leaf_only_eviction);
        assert_eq!(replica.session_cursors, parent.session_cursors);
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
        let snapshot = Snapshot {
            tree: parent.tree.clone(),
            ssm_states: parent.ssm_states,
            host_tokens: parent.host_tokens,
            host_ssm_states: parent.host_ssm_states,
            clock: parent.clock,
        };
        let mut replica = parent.replica(&snapshot, 0.5);
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

    #[test]
    fn mid_edge_partial_hits_refresh_recency() {
        // Pure Transformer: a request repeatedly reusing the first half of
        // a cached sequence ends mid-edge. The containing node must get its
        // recency refreshed so LRU pressure evicts genuinely cold entries
        // instead.
        let m = ModelConfig::transformer_7b();
        let capacity = 2 * 160 * m.kv_bytes_per_token() + 1;
        let mut c = HybridPrefixCache::builder(m)
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .build();
        c.insert_sequence(&seq(0..128), &seq(1000..1032)); // A (older)
        c.insert_sequence(&seq(50_000..50_128), &seq(60_000..60_032)); // B

        // Repeated partial hits on A end mid-edge (depth 64 of 160).
        for _ in 0..3 {
            let r = c.lookup(&seq(0..64));
            assert_eq!(r.tokens_matched, 64);
            assert!(r.node.is_some(), "mid-edge hit must name the hot node");
        }
        // C forces an eviction: B (stale) must go, not the partially-hot A.
        c.insert_sequence(&seq(70_000..70_128), &seq(80_000..80_032));
        assert_eq!(
            c.lookup(&seq(0..64)).tokens_matched,
            64,
            "partially-hit prefix survived LRU pressure"
        );
        assert_eq!(
            c.lookup(&seq(50_000..50_064)).tokens_matched,
            0,
            "the stale full sequence was the victim"
        );
    }

    #[test]
    fn probe_agrees_with_lookup_on_hybrid_and_transformer() {
        for model in [ModelConfig::hybrid_7b(), ModelConfig::transformer_7b()] {
            let mut c = HybridPrefixCache::builder(model)
                .capacity_bytes(1 << 40)
                .build();
            c.insert_sequence(&seq(0..300), &seq(9000..9032));
            c.insert_sequence(&seq(0..200), &seq(8000..8016));
            for query in [
                seq(0..150),         // mid-edge / no checkpoint
                seq(0..200),         // branch point
                seq(0..300),         // deeper prefix
                seq(50_000..50_010), // complete miss
                Vec::new(),          // empty input
                {
                    let mut v = seq(0..300);
                    v.extend(seq(9000..9032));
                    v.extend(seq(7000..7005)); // conversation resume
                    v
                },
            ] {
                let probed = c.longest_cached_prefix_len(&query);
                let looked = c.lookup(&query).tokens_matched;
                assert_eq!(probed, looked, "probe must predict lookup exactly");
            }
        }
    }

    #[test]
    fn probe_is_completely_non_mutating() {
        let mut c = marconi(1 << 40);
        c.insert_sequence(&seq(0..300), &seq(9000..9032));
        let stats_before = *c.stats();
        let nodes_before = c.node_count();
        let states_before = c.ssm_state_count();
        let usage_before = c.usage_bytes();

        // A probe whose insertion *would* split an edge must not fire
        // speculative insertion, and a probe that hits must not bump stats.
        let mut branching = seq(0..200);
        branching.extend(seq(60_000..60_040));
        c.longest_cached_prefix_len(&branching);
        let mut resume = seq(0..300);
        resume.extend(seq(9000..9032));
        c.longest_cached_prefix_len(&resume);

        assert_eq!(*c.stats(), stats_before, "stats must not move");
        assert_eq!(c.node_count(), nodes_before, "no speculative insertion");
        assert_eq!(c.ssm_state_count(), states_before);
        assert_eq!(c.usage_bytes(), usage_before);
    }

    #[test]
    fn probe_does_not_refresh_lru_recency() {
        // Contrast with `hit_refreshes_recency_and_prevents_eviction`:
        // probing A (unlike looking it up) must leave A the LRU victim.
        let m = ModelConfig::hybrid_7b();
        let capacity = 2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1;
        let mut c = sglang(capacity);
        c.insert_sequence(&seq(0..96), &seq(500..532)); // A (oldest)
        c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532)); // B

        let mut turn_a = seq(0..96);
        turn_a.extend(seq(500..532));
        for _ in 0..5 {
            assert!(c.longest_cached_prefix_len(&turn_a) > 0, "A is cached");
        }
        // C forces an eviction: A must still be the victim despite probes.
        c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));
        assert!(
            !c.lookup(&turn_a).is_hit(),
            "probes must not have refreshed A's recency"
        );
        let mut turn_b = seq(10_000..10_096);
        turn_b.extend(seq(10_500..10_532));
        assert!(c.lookup(&turn_b).is_hit(), "B retained");
    }

    #[test]
    fn gdsf_bookkeeping_is_gated_on_policy() {
        let m = ModelConfig::hybrid_7b();
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::FlopAware { alpha: 2.0 },
        ] {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(1 << 40)
                .policy(policy)
                .build();
            c.insert_sequence(&seq(0..128), &seq(1000..1032));
            c.lookup(&{
                let mut v = seq(0..128);
                v.extend(seq(1000..1032));
                v
            });
            for id in c.tree.node_ids() {
                let meta = c.tree.data(id);
                assert_eq!(
                    meta.frequency, 0,
                    "{}: GDSF counters must stay idle",
                    c.name
                );
                assert_eq!(meta.gdsf_priority, 0.0);
            }
        }
        // Under GDSF the counters do move.
        let mut c = HybridPrefixCache::builder(m)
            .capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Gdsf)
            .build();
        c.insert_sequence(&seq(0..128), &seq(1000..1032));
        assert!(c.tree.node_ids().any(|id| c.tree.data(id).frequency > 0));
    }

    /// The behavioural knobs the victim selector reads besides the policy.
    /// The parity helpers replay every combination, so the selector's one
    /// debug cross-check (`scan_pick`, next to every pick) sees the whole
    /// matrix for every policy family.
    #[derive(Debug, Clone, Copy)]
    struct Knobs {
        /// Host tier at half the device capacity (demotion, the fallback
        /// pass, host-pressure deletion) instead of none.
        host_tier: bool,
        /// Hold each request's hit path pinned across the next three
        /// requests' admissions, so several overlapping pins are live at
        /// every pressure episode.
        live_pins: bool,
        /// The §4.3(1) ablation: only leaves are evictable.
        leaf_only: bool,
    }

    impl Knobs {
        fn matrix() -> impl Iterator<Item = Knobs> {
            (0..8u8).map(|bits| Knobs {
                host_tier: bits & 1 != 0,
                live_pins: bits & 2 != 0,
                leaf_only: bits & 4 != 0,
            })
        }

        /// The scan reference predates tiering and pinning, so only the
        /// single-tier pin-free combinations replay against it; the rest
        /// rely on the per-pick cross-check and the invariant checks.
        fn has_scan_reference(self) -> bool {
            !self.host_tier && !self.live_pins
        }
    }

    /// Replays `requests` through a cache configured by `policy`, `knobs`
    /// and `capacity`, through the scan reference when `scan` is set.
    fn replay_with_knobs<'a>(
        policy: &EvictionPolicy,
        capacity: u64,
        knobs: Knobs,
        scan: bool,
        requests: impl Iterator<Item = (&'a [Token], &'a [Token], f64)>,
    ) -> HybridPrefixCache {
        let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(capacity)
            .host_capacity_bytes(if knobs.host_tier { capacity / 2 } else { 0 })
            .leaf_only_eviction(knobs.leaf_only)
            .policy(policy.clone())
            .build();
        c.use_scan_eviction = scan;
        let mut held = std::collections::VecDeque::new();
        for (input, output, now) in requests {
            c.lookup_at(input, now);
            if knobs.live_pins {
                held.push_back(c.pin_prefix(input));
                if held.len() > 3 {
                    c.unpin(held.pop_front().expect("non-empty"));
                }
            }
            c.insert_at(input, output, now);
        }
        held.into_iter().for_each(|t| c.unpin(t));
        assert_eq!(c.pinned_node_count(), 0, "all tickets were redeemed");
        c.tree.assert_invariants();
        c.assert_tier_accounting();
        c
    }

    /// The parity contract between two replays of one trace: byte-identical
    /// victim sequences, stats, usage and α.
    fn assert_same_decisions(
        reference: &HybridPrefixCache,
        indexed: &HybridPrefixCache,
        policy: &EvictionPolicy,
    ) {
        assert_eq!(
            reference.eviction_log, indexed.eviction_log,
            "victim sequence diverged under {policy}"
        );
        assert_eq!(
            reference.stats, indexed.stats,
            "stats diverged under {policy}"
        );
        assert_eq!(reference.usage(), indexed.usage());
        assert_eq!(reference.effective_alpha, indexed.effective_alpha);
        assert_eq!(reference.tree.len(), indexed.tree.len());
    }

    /// Replays a seeded trace under every [`Knobs`] combination. Where the
    /// scan reference applies, a second identically-configured cache runs
    /// the pre-refactor full-scan selection and the two must agree
    /// byte-for-byte on victim sequence and stats; at `host_capacity = 0`
    /// that is the single-tier parity contract: a zero host budget must
    /// reproduce the pre-tiering cache exactly.
    fn assert_eviction_parity(policy: EvictionPolicy, capacity: u64, trace_seed: u64) {
        use marconi_workload::{DatasetKind, TraceGenerator};
        let trace = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(12)
            .seed(trace_seed)
            .generate();
        let requests = || {
            trace
                .requests
                .iter()
                .map(|r| (&r.input[..], &r.output[..], r.arrival))
        };
        for knobs in Knobs::matrix() {
            let indexed = replay_with_knobs(&policy, capacity, knobs, false, requests());
            assert!(
                indexed.stats.evictions > 0,
                "parity trace must exercise eviction ({policy}, {knobs:?})"
            );
            assert_eq!(indexed.stats.demotions > 0, knobs.host_tier, "{knobs:?}");
            if knobs.has_scan_reference() {
                let reference = replay_with_knobs(&policy, capacity, knobs, true, requests());
                assert_same_decisions(&reference, &indexed, &policy);
            }
            if !knobs.host_tier {
                // Single-tier runs must never touch the host tier in any way.
                assert_eq!(indexed.host_usage_bytes(), 0);
                assert_eq!(indexed.stats.host_hits, 0);
                assert_eq!(indexed.stats.host_hit_tokens, 0);
                assert_eq!(indexed.stats.host_evictions, 0);
            }
        }
    }

    #[test]
    fn eviction_order_parity_lru() {
        let m = ModelConfig::hybrid_7b();
        let cap = 9000 * m.kv_bytes_per_token();
        assert_eviction_parity(EvictionPolicy::Lru, cap, 7);
    }

    #[test]
    fn eviction_order_parity_flop_aware() {
        let m = ModelConfig::hybrid_7b();
        let cap = 9000 * m.kv_bytes_per_token();
        assert_eviction_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, cap, 11);
    }

    #[test]
    fn eviction_order_parity_gdsf() {
        let m = ModelConfig::hybrid_7b();
        let cap = 9000 * m.kv_bytes_per_token();
        assert_eviction_parity(EvictionPolicy::Gdsf, cap, 13);
    }

    #[test]
    fn eviction_order_parity_auto_tuned() {
        // AutoTuned also exercises replica replay parity: the tuner's grid
        // search must pick the same α either way.
        let m = ModelConfig::hybrid_7b();
        let cap = 9000 * m.kv_bytes_per_token();
        assert_eviction_parity(
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
                parallel: false,
            }),
            cap,
            17,
        );
    }

    // ------------------------------------------------------------------
    // PR 9: the off-is-free contract. Attaching the NullSink — or even a
    // live RingRecorder — must leave every observable byte of cache state
    // identical to an untraced run: the flight recorder watches decisions,
    // it never participates in them.
    // ------------------------------------------------------------------

    /// Replays a seeded two-tier trace through three identically-configured
    /// caches — untraced, NullSink-attached, RingRecorder-attached — and
    /// demands byte-identical victim logs, stats, occupancy, and tuned α
    /// across all three. The recorder run must additionally have captured a
    /// non-empty event stream, so the parity is not vacuous.
    fn assert_tracing_is_free(policy: EvictionPolicy, trace_seed: u64) {
        use marconi_trace::{NullSink, RingRecorder, Tracer};
        use marconi_workload::{DatasetKind, TraceGenerator};
        let m = ModelConfig::hybrid_7b();
        let capacity = 9000 * m.kv_bytes_per_token();
        let trace = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(12)
            .seed(trace_seed)
            .generate();
        let run = |tracer: Option<Tracer>| {
            let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(capacity)
                .host_capacity_bytes(capacity / 2)
                .policy(policy.clone())
                .build();
            if let Some(t) = tracer {
                c.set_tracer(t);
            }
            for r in &trace.requests {
                c.lookup_at(&r.input, r.arrival);
                c.insert_at(&r.input, &r.output, r.arrival);
            }
            c
        };
        let bare = run(None);
        assert!(
            bare.stats.evictions > 0 && bare.stats.demotions > 0,
            "off-is-free trace must exercise eviction and demotion ({policy})"
        );
        let null = run(Some(Tracer::to_sink(NullSink).0));
        let (traced, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
        let ring = run(Some(traced));
        for (label, other) in [("NullSink", &null), ("RingRecorder", &ring)] {
            assert_eq!(
                bare.eviction_log, other.eviction_log,
                "{label} perturbed the victim sequence under {policy}"
            );
            assert_eq!(
                bare.stats, other.stats,
                "{label} perturbed stats under {policy}"
            );
            assert_eq!(bare.usage(), other.usage(), "{label} usage ({policy})");
            assert_eq!(
                bare.host_usage_bytes(),
                other.host_usage_bytes(),
                "{label} host usage ({policy})"
            );
            assert_eq!(
                bare.effective_alpha, other.effective_alpha,
                "{label} perturbed the tuned α under {policy}"
            );
            assert_eq!(
                bare.tree.token_count(),
                other.tree.token_count(),
                "{label} tree contents ({policy})"
            );
        }
        let rec = recorder.lock().expect("lock: test-local recorder");
        assert!(
            rec.recorded() > 0,
            "recorder must capture events for the parity to mean anything"
        );
        assert!(
            rec.events().any(|e| e.event.kind() == "eviction-episode"),
            "an eviction-heavy run must log eviction episodes"
        );
    }

    #[test]
    fn tracing_is_free_lru() {
        assert_tracing_is_free(EvictionPolicy::Lru, 7);
    }

    #[test]
    fn tracing_is_free_flop_aware() {
        assert_tracing_is_free(EvictionPolicy::FlopAware { alpha: 2.0 }, 11);
    }

    #[test]
    fn tracing_is_free_gdsf() {
        assert_tracing_is_free(EvictionPolicy::Gdsf, 13);
    }

    #[test]
    fn tracing_is_free_auto_tuned() {
        assert_tracing_is_free(
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
                parallel: false,
            }),
            17,
        );
    }

    // ------------------------------------------------------------------
    // PR 8 stress: split/merge-heavy multi-tenant replay parity at scale.
    // The single-tier parity contract above, pushed through traces that
    // churn the arena engine's whole split/merge lifecycle: every request
    // forks an earlier same-tenant sequence at a random depth (usually
    // mid-edge, forcing an edge split on insert), and sustained capacity
    // pressure deletes and merges those nodes back out. Default size keeps
    // the scan reference affordable in debug builds; set
    // MARCONI_STRESS_FULL=1 to replay at 100k+ live nodes.
    // ------------------------------------------------------------------

    /// Tiny deterministic PRNG (splitmix64) for the stress traces.
    struct StressRng(u64);

    impl StressRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Split/merge-heavy multi-tenant request stream: eight tenants with
    /// distinct system prompts; each request usually forks a recent
    /// same-tenant sequence at a random cut (mid-edge more often than not)
    /// and extends it with globally fresh tokens, so insertions split
    /// edges constantly and never accidentally re-merge.
    fn stress_trace(seed: u64, requests: usize) -> Vec<(Vec<Token>, Vec<Token>)> {
        const TENANTS: usize = 8;
        let mut rng = StressRng(seed);
        let mut fresh: u32 = 10_000_000;
        let mut history: Vec<Vec<Vec<Token>>> = vec![Vec::new(); TENANTS];
        let mut out = Vec::with_capacity(requests);
        for _ in 0..requests {
            let t = rng.below(TENANTS as u64) as usize;
            let base = (t as u32 + 1) * 100_000;
            let mut input: Vec<Token> = if history[t].is_empty() || rng.below(4) == 0 {
                (0..32).map(|i| base + i).collect()
            } else {
                let prev = &history[t][rng.below(history[t].len() as u64) as usize];
                let cut = 32 + rng.below((prev.len() - 32) as u64) as usize;
                prev[..cut].to_vec()
            };
            let extend = 8 + rng.below(56);
            for _ in 0..extend {
                input.push(fresh);
                fresh += 1;
            }
            history[t].push(input.clone());
            if history[t].len() > 24 {
                history[t].remove(0);
            }
            let output: Vec<Token> = (0..8)
                .map(|_| {
                    fresh += 1;
                    fresh
                })
                .collect();
            out.push((input, output));
        }
        out
    }

    /// Replays a stress trace under every [`Knobs`] combination — against
    /// the scan reference in lockstep where it applies — and asserts the
    /// full PR 2/5 parity contract: byte-identical victim logs,
    /// `CacheStats`, usage, and α.
    fn assert_scale_replay_parity(policy: EvictionPolicy, trace_seed: u64) {
        // The binding cost is the *scan*: O(live nodes) per victim in the
        // reference and in the selector's debug cross-check, so full-scale
        // runs are opt-in. (The 100k–1M-node regime is exercised by the
        // cursor-vs-root-walk scale replay in
        // `crates/radix/tests/differential.rs`, where both sides are
        // O(depth) per op.)
        let requests = if std::env::var("MARCONI_STRESS_FULL").is_ok() {
            20_000
        } else {
            2_000
        };
        let m = ModelConfig::hybrid_7b();
        let cap = requests as u64 * 256 * m.kv_bytes_per_token();
        let trace = stress_trace(trace_seed, requests);
        let requests = || {
            trace
                .iter()
                .enumerate()
                .map(|(i, (input, output))| (&input[..], &output[..], i as f64))
        };
        for knobs in Knobs::matrix() {
            let indexed = replay_with_knobs(&policy, cap, knobs, false, requests());
            assert!(
                indexed.stats.evictions > 100,
                "stress trace must sustain eviction pressure ({policy}, {knobs:?}: {} evictions)",
                indexed.stats.evictions
            );
            assert!(
                indexed.tree.len() > 1_000,
                "stress trace must grow a large tree ({policy}, {knobs:?}: {} nodes)",
                indexed.tree.len()
            );
            if knobs.has_scan_reference() {
                let reference = replay_with_knobs(&policy, cap, knobs, true, requests());
                assert_same_decisions(&reference, &indexed, &policy);
            }
        }
    }

    #[test]
    fn scale_replay_parity_lru() {
        assert_scale_replay_parity(EvictionPolicy::Lru, 101);
    }

    #[test]
    fn scale_replay_parity_flop_aware() {
        assert_scale_replay_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, 103);
    }

    #[test]
    fn scale_replay_parity_gdsf() {
        assert_scale_replay_parity(EvictionPolicy::Gdsf, 107);
    }

    #[test]
    fn scale_replay_parity_auto_tuned() {
        assert_scale_replay_parity(
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 2.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
                parallel: false,
            }),
            109,
        );
    }

    #[test]
    fn peak_usage_tracks_high_water_mark() {
        let m = ModelConfig::hybrid_7b();
        let capacity = 200 * m.kv_bytes_per_token() + 2 * m.ssm_checkpoint_bytes();
        let mut c = sglang(capacity);
        c.insert_sequence(&seq(0..128), &seq(1000..1032));
        let peak_after_one = c.stats().peak_usage_bytes;
        c.insert_sequence(&seq(50_000..50_128), &seq(60_000..60_032));
        assert!(c.stats().peak_usage_bytes >= peak_after_one);
    }

    // ------------------------------------------------------------------
    // The tiered device/host hierarchy (this PR's refactor): demotion
    // instead of deletion under device pressure, host hits that require a
    // transfer, promotion on re-insertion, and host-pressure deletion.
    // ------------------------------------------------------------------

    /// Capacity that fits exactly two 128-token single-checkpoint
    /// sequences, like the LRU tests above.
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
        assert_eq!(r.device_tokens(), 0);
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

    #[test]
    fn probe_tiers_matches_lookup_and_stays_non_mutating() {
        let m = ModelConfig::hybrid_7b();
        let mut c = tiered(two_seq_capacity(&m), 1 << 40);
        c.insert_sequence(&seq(0..96), &seq(500..532)); // A → demoted below
        c.insert_sequence(&seq(10_000..10_096), &seq(10_500..10_532));
        c.insert_sequence(&seq(20_000..20_096), &seq(20_500..20_532));

        let mut turn_a = seq(0..96);
        turn_a.extend(seq(500..532));
        let stats_before = *c.stats();
        let host_before = c.host_usage_bytes();
        let p = c.probe_tiers(&turn_a);
        assert_eq!(*c.stats(), stats_before, "probe must not move stats");
        assert_eq!(c.host_usage_bytes(), host_before);
        assert_eq!(p.tokens, c.longest_cached_prefix_len(&turn_a));
        let r = c.lookup(&turn_a);
        assert_eq!(p.tokens, r.tokens_matched);
        assert_eq!(p.host_tokens, r.host_tokens);
        assert_eq!(p.device_tokens(), r.device_tokens());
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
                parallel: false,
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
        let snapshot = Snapshot {
            tree: parent.tree.clone(),
            ssm_states: parent.ssm_states,
            host_tokens: parent.host_tokens,
            host_ssm_states: parent.host_ssm_states,
            clock: parent.clock,
        };
        let replica = parent.replica(&snapshot, 1.0);
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
                parallel: false,
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
                parallel: false,
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
                input
                    .extend(seq(t * 100_000 + 50_000 + branch * 1000
                        ..t * 100_000 + 50_000 + branch * 1000 + 32));
                c.insert_sequence(
                    &input,
                    &seq(t * 100_000 + 90_000 + branch * 100
                        ..t * 100_000 + 90_000 + branch * 100 + 8),
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

    // ------------------------------------------------------------------
    // In-flight pinning (this PR's bugfix): a request's admission-time hit
    // path must survive eviction pressure until the request completes.
    // ------------------------------------------------------------------

    /// Pinning parity: with the knob on but zero *overlapping* lifetimes
    /// (each request pins at lookup and unpins before its own insertion,
    /// like a serial executor), the victim sequence and stats must be
    /// byte-identical to a knob-off run — pins that never coincide with
    /// pressure must be invisible.
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
                    parallel: false,
                }),
                17,
            ),
        ];
        for (policy, seed) in policies {
            let trace = TraceGenerator::new(DatasetKind::Lmsys)
                .sessions(12)
                .seed(seed)
                .generate();
            let build = |pin: bool| {
                HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                    .capacity_bytes(capacity)
                    .policy(policy.clone())
                    .in_flight_pinning(pin)
                    .build()
            };
            let mut reference = build(false);
            let mut pinned = build(true);
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
            assert_eq!(
                reference.eviction_log, pinned.eviction_log,
                "victim sequence diverged under {policy}"
            );
            assert_eq!(
                reference.stats, pinned.stats,
                "stats diverged under {policy}"
            );
            assert_eq!(reference.usage(), pinned.usage());
            assert_eq!(reference.effective_alpha, pinned.effective_alpha);
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
                .in_flight_pinning(pin)
                .build();
            c.insert_at(&a_in, &a_out, 0.0);
            c.insert_at(&b_in, &b_out, 1.0);
            // Request R resumes session A and starts decoding: lookup hits
            // 128 tokens, the pin marks them in use.
            let hit = c.lookup_at(&resume_a, 2.0);
            assert_eq!(hit.tokens_matched, 128);
            let ticket = c.pin_prefix(&resume_a);
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

    #[test]
    fn replica_mirrors_the_pinning_knob_and_clears_live_pins() {
        // Replay replicas model completed-request traces — no request is
        // in flight during a grid-search replay, so a replica must mirror
        // the knob but drop the parent's live pins.
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

        let snapshot = Snapshot {
            tree: parent.tree.clone(),
            ssm_states: parent.ssm_states,
            host_tokens: parent.host_tokens,
            host_ssm_states: parent.host_ssm_states,
            clock: parent.clock,
        };
        let replica = parent.replica(&snapshot, 1.0);
        assert!(replica.pin_in_flight, "knob mirrored");
        assert_eq!(replica.pinned_node_count(), 0, "live pins not inherited");
        assert_eq!(replica.pinned_bytes(), 0);
        parent.unpin(ticket);

        let unpinning = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 30)
            .in_flight_pinning(false)
            .build();
        let snapshot = Snapshot {
            tree: unpinning.tree.clone(),
            ssm_states: unpinning.ssm_states,
            host_tokens: unpinning.host_tokens,
            host_ssm_states: unpinning.host_ssm_states,
            clock: unpinning.clock,
        };
        let replica = unpinning.replica(&snapshot, 1.0);
        assert!(!replica.pin_in_flight, "knob-off mirrored too");
        // And a knob-off cache never pins in the first place.
        let mut off = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 30)
            .in_flight_pinning(false)
            .build();
        off.insert_sequence(&input, &output);
        let t = off.pin_prefix(&resume);
        assert!(t.is_empty());
        assert_eq!(off.pinned_node_count(), 0);
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
                .in_flight_pinning(pin)
                .build();
            c.insert_at(&seq(0..96), &seq(500..532), 0.0); // A
            c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0); // B
            let mut resume_a: Vec<Token> = seq(0..96);
            resume_a.extend_from_slice(&seq(500..532));
            c.lookup_at(&resume_a, 2.0);
            let ticket = c.pin_prefix(&resume_a);
            let mut resume_b: Vec<Token> = seq(10_000..10_096);
            resume_b.extend_from_slice(&seq(10_500..10_532));
            c.lookup_at(&resume_b, 3.0); // B younger than A's pin
            c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 4.0);
            let on_device = c.probe_tiers(&resume_a).device_tokens();
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

    // ------------------------------------------------------------------
    // PR 10: session-cursor byte parity. Replaying a multi-turn trace with
    // session hints must leave every observable byte — victim logs, stats,
    // occupancy, tuned α, tree contents — identical to the unhinted replay
    // (and to a hinted replay with the knob off): a cursor is a walk
    // shortcut, never a semantic input.
    // ------------------------------------------------------------------

    /// Drives a seeded two-tier trace the way the engine does (lookup, pin,
    /// unpin, insert per request; a per-session cursor table when hinted)
    /// through three identically-configured caches: unhinted, hinted, and
    /// hinted-with-cursors-disabled. Demands byte-identical end state across
    /// all three, and that the hinted run actually resumed (so the parity
    /// is not vacuous).
    fn assert_session_cursor_parity(policy: EvictionPolicy, trace_seed: u64) {
        use crate::CursorTable;
        use marconi_trace::{RingRecorder, Tracer};
        use marconi_workload::{DatasetKind, TraceGenerator};
        let m = ModelConfig::hybrid_7b();
        let capacity = 9000 * m.kv_bytes_per_token();
        let trace = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(12)
            .seed(trace_seed)
            .generate();
        let run = |hinted: bool, knob: bool, tracer: Option<Tracer>| {
            let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(capacity)
                .host_capacity_bytes(capacity / 2)
                .policy(policy.clone())
                .session_cursors(knob)
                .build();
            if let Some(t) = tracer {
                c.set_tracer(t);
            }
            let mut table = CursorTable::new(64);
            for r in &trace.requests {
                let hint = if hinted {
                    table.take(r.session_id)
                } else {
                    None
                };
                c.lookup_at_with(&r.input, r.arrival, hint);
                let ticket = c.pin_prefix_with(&r.input, hint);
                let (_, next) = c.insert_at_with(&r.input, &r.output, r.arrival, hint);
                c.unpin(ticket);
                if let Some(cursor) = next {
                    table.put(r.session_id, cursor);
                }
            }
            c
        };
        let cold = run(false, true, None);
        assert!(
            cold.stats.evictions > 0 && cold.stats.demotions > 0,
            "parity trace must exercise eviction and demotion ({policy})"
        );
        let (traced, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
        let hinted = run(true, true, Some(traced));
        let knob_off = run(true, false, None);
        for (label, other) in [("hinted", &hinted), ("knob-off", &knob_off)] {
            assert_eq!(
                cold.eviction_log, other.eviction_log,
                "{label} run perturbed the victim sequence under {policy}"
            );
            assert_eq!(
                cold.stats, other.stats,
                "{label} run perturbed stats under {policy}"
            );
            assert_eq!(cold.usage(), other.usage(), "{label} usage ({policy})");
            assert_eq!(
                cold.host_usage_bytes(),
                other.host_usage_bytes(),
                "{label} host usage ({policy})"
            );
            assert_eq!(
                cold.effective_alpha, other.effective_alpha,
                "{label} run perturbed the tuned α under {policy}"
            );
            assert_eq!(
                cold.tree.token_count(),
                other.tree.token_count(),
                "{label} tree contents ({policy})"
            );
        }
        let rec = recorder.lock().expect("lock: test-local recorder");
        let resumed = rec
            .events()
            .filter(|e| e.event.kind() == "cursor-resumed")
            .count();
        assert!(
            resumed > 0,
            "a multi-turn trace must resume at least once for the parity to bite ({policy})"
        );
    }

    #[test]
    fn session_cursor_parity_lru() {
        assert_session_cursor_parity(EvictionPolicy::Lru, 7);
    }

    #[test]
    fn session_cursor_parity_flop_aware() {
        assert_session_cursor_parity(EvictionPolicy::FlopAware { alpha: 2.0 }, 11);
    }

    #[test]
    fn session_cursor_parity_gdsf() {
        assert_session_cursor_parity(EvictionPolicy::Gdsf, 13);
    }

    #[test]
    fn session_cursor_parity_auto_tuned() {
        assert_session_cursor_parity(
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 5.0,
                alpha_grid: vec![0.0, 1.0, 4.0],
                parallel: false,
            }),
            17,
        );
    }

    /// With the knob off the cache neither mints cursors nor honors hints.
    #[test]
    fn disabled_session_cursors_mint_nothing() {
        let mut c = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .session_cursors(false)
            .build();
        let (_, next) = c.insert_at_with(&seq(0..64), &seq(500..532), 0.0, None);
        assert!(next.is_none(), "knob off: no cursor minted");
    }
}
