//! `SpecCache`: the cache of paper §4 stated in the simplest form that runs,
//! so that `HybridPrefixCache` has one readable statement to be held
//! against (the differential harness in `differential.rs` replays seeded
//! op streams through both and compares them after every op).
//!
//! A naive trie with `Vec<Token>` edge labels and O(nodes) scans for
//! everything: usage is summed over the nodes, candidates are re-collected
//! and re-scored for every victim, pins are re-walked for every pick. No
//! radix engine, no memoized costs, no candidate index or bands, no
//! cursors. It covers
//!
//! * admission (§4.1): the speculative-insertion branch checkpoint, rounded
//!   down to a chunk boundary under [`CheckpointMode::Chunked`], and the
//!   checkpoint at the last decoded token — at most two per sequence; or,
//!   under [`CheckpointMode::EveryBlock`] (vLLM+), the whole blocks of the
//!   sequence with a checkpoint at every block boundary, bytes charged per
//!   checkpointed block, and a split point that is no block freeing and
//!   booking nothing when it goes;
//! * the all-or-nothing hit rule: a hit is served from the deepest
//!   checkpointed node the input covers entirely (and, under
//!   `EveryBlock`, sets Fig. 3a's reuse latches on the blocks it reads);
//! * eviction (§4.3) over non-root nodes with ≤ 1 child: LRU is `α = 0`,
//!   `S(n) = recency + α · flop_efficiency` min–max normalised over the
//!   *eligible* candidates, and GDSF's `H = L + F · C/S`;
//! * the tiers: device pressure demotes (deletes without a host tier),
//!   the device fallback demotes any node holding bytes once the
//!   candidates are exhausted, host pressure deletes, and admitting a
//!   sequence promotes its path;
//! * in-flight pins, and the two §4.3 ablations (ancestor refresh on a
//!   hit, leaf-only eviction);
//! * the α tuner, whose grid search replays clones of the spec itself.
//!
//! It does not cover what only makes the cache fast — the memos, the
//! efficiency bands, the recency index, session cursors (a hinted
//! operation must behave exactly like an unhinted one, so the spec has
//! no hints) — nor pure-Transformer models.
//!
//! **The one implementation detail it takes as input** is the cache's
//! [`NodeId`]. Candidates that tie on (score, last access) go in id order,
//! and ids are handed out by the radix arena's free list, which no rule of
//! the paper fixes. The spec names a node by its root path (which a node
//! keeps for its whole life: splits put the new node above it and merges
//! fold the removed parent into it) and asks [`NodeIds`] for its id, only
//! for candidates that tie at the minimum.

use super::CheckpointMode;
use crate::result::{AdmissionReport, BlockReuseReport, LookupResult};
use crate::stats::CacheStats;
use crate::tier::Tier;
use crate::tuner::{TunerConfig, TunerState};
use marconi_model::ModelConfig;
use marconi_radix::{NodeId, Token};
use marconi_trace::VictimAction;
use std::cmp::Ordering;

/// Where the spec reads the cache's node ids.
pub(super) trait NodeIds {
    /// The cache's id of the node whose root path is `path`, as of the
    /// operation the spec is replaying.
    fn id(&self, path: &[Token]) -> NodeId;

    /// The ids of the tuner's replay of its bootstrap window at `alpha`.
    fn replay(&self, alpha: f64) -> Box<dyn NodeIds>;

    /// Advances a replay's ids past one more request (`input`, `output`,
    /// arriving at `at`), before the spec's replica serves it.
    fn serve(&mut self, input: &[Token], output: &[Token], at: f64);
}

/// The inputs outside the paper's happy path that the spec defines
/// behaviour for, each one a case the harness's op stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Hostile {
    /// An empty input: no lookup hit, no branch checkpoint; the output
    /// alone is admitted.
    EmptyInput,
    /// An empty output: the input alone is admitted.
    EmptyOutput,
    /// Both empty: the admission changes nothing but the insertion count.
    EmptyBoth,
    /// A hinted turn whose input does not extend its cursor's path: a hint
    /// is never an input of the spec, so the turn is served like any other.
    ForeignHint,
    /// One sequence larger than device + host: admitted whole, then
    /// pressure runs as for any admission and takes it too.
    Oversized,
    /// A NaN timestamp: stamped as given; it normalises to an infinite
    /// recency and orders by `total_cmp` in ties.
    NanClock,
    /// `+∞`, as NaN.
    PosInfClock,
    /// `−∞`, as NaN.
    NegInfClock,
    /// A timestamp below the previous one: stamped as given.
    BackwardClock,
}

/// A fault seeded into the spec, for the harness's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Fault {
    /// The candidate filter also drops the oldest eligible candidate.
    SkipOldestCandidate,
}

/// The behavioural knobs: the builder's, read as the paper states them.
#[derive(Debug, Clone)]
pub(super) struct Rules {
    pub capacity: u64,
    /// 0: no host tier.
    pub host_capacity: u64,
    /// The `α` of `S(n)`; LRU is `α = 0`, and so is the tuner until tuned.
    pub alpha: f64,
    /// GDSF priorities instead of `S(n)`.
    pub gdsf: bool,
    pub tuner: Option<TunerConfig>,
    pub checkpoint_mode: CheckpointMode,
    pub refresh_ancestors: bool,
    pub leaf_only: bool,
}

#[derive(Debug, Clone)]
struct Node {
    label: Vec<Token>,
    parent: usize,
    children: Vec<usize>,
    checkpoint: bool,
    /// Fig. 3a: a hit read this block's KVs; a hit was served from it.
    kv_reused: bool,
    ssm_reused: bool,
    tier: Tier,
    last_access: f64,
    frequency: u32,
    gdsf_priority: f64,
}

impl Node {
    fn new(label: Vec<Token>, parent: usize, tier: Tier) -> Self {
        Node {
            label,
            parent,
            children: Vec::new(),
            checkpoint: false,
            kv_reused: false,
            ssm_reused: false,
            tier,
            last_access: 0.0,
            frequency: 0,
            gdsf_priority: 0.0,
        }
    }
}

/// One request of a recorded bootstrap window.
type Request = (Vec<Token>, Vec<Token>, f64);

#[derive(Debug, Clone)]
enum Tuning {
    Waiting {
        requests: u64,
    },
    Recording {
        snapshot: Box<SpecCache>,
        window: Vec<Request>,
        target: u64,
    },
    Tuned,
}

/// Where a pressure pass takes its victims from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Nodes with ≤ 1 child on this tier.
    Candidates(Tier),
    /// Any device node holding bytes, once the candidates are exhausted.
    DeviceFallback,
}

impl Source {
    fn tier(self) -> Tier {
        match self {
            Source::Candidates(tier) => tier,
            Source::DeviceFallback => Tier::Device,
        }
    }
}

/// Result of walking a query down the trie.
struct Walk {
    /// Nodes whose whole label the query covers, shallowest first.
    path: Vec<usize>,
    /// Query tokens matched.
    matched: usize,
    /// The walk stopped inside a label.
    mid_edge: bool,
}

const ROOT: usize = 0;

/// The executable statement of the cache; see the module docs.
#[derive(Debug, Clone)]
pub(super) struct SpecCache {
    model: ModelConfig,
    rules: Rules,
    /// What a cached token and a checkpoint cost: the model's KV bytes per
    /// token and checkpoint bytes; under [`CheckpointMode::EveryBlock`],
    /// nothing per token and a whole block's KVs plus the checkpoint per
    /// checkpoint, so a node that is no block costs nothing.
    charges: (u64, u64),
    /// Slot 0 is the root; a removed node's slot stays empty until `free`
    /// hands it to a new node.
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    /// One entry per outstanding pin: the pinned node (its ancestors are
    /// protected with it).
    pins: Vec<usize>,
    tuning: Option<(TunerConfig, Tuning)>,
    gdsf_clock: f64,
    stats: CacheStats,
    /// `(action, root path)` of every victim, in order.
    victims: Vec<(VictimAction, Vec<Token>)>,
    /// Fig. 3a's counts: blocks whose KVs, and blocks whose checkpoint, a
    /// hit has read.
    reused: (u64, u64),
    fault: Option<Fault>,
}

impl SpecCache {
    pub(super) fn new(model: ModelConfig, rules: Rules) -> Self {
        assert!(model.has_ssm(), "the spec states the hybrid cache");
        let tuning = rules
            .tuner
            .clone()
            .map(|config| (config, Tuning::Waiting { requests: 0 }));
        let (kv, ssm) = (model.kv_bytes_per_token(), model.ssm_checkpoint_bytes());
        let charges = match rules.checkpoint_mode {
            CheckpointMode::EveryBlock { block_size } => (0, block_size * kv + ssm),
            _ => (kv, ssm),
        };
        SpecCache {
            model,
            rules,
            charges,
            nodes: vec![Some(Node::new(Vec::new(), ROOT, Tier::Device))],
            free: Vec::new(),
            pins: Vec::new(),
            tuning,
            gdsf_clock: 0.0,
            stats: CacheStats::default(),
            victims: Vec::new(),
            reused: (0, 0),
            fault: None,
        }
    }

    pub(super) fn seed_fault(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    pub(super) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    pub(super) fn alpha(&self) -> f64 {
        self.rules.alpha
    }

    pub(super) fn victims(&self) -> &[(VictimAction, Vec<Token>)] {
        &self.victims
    }

    /// Fig. 3a's counters under [`CheckpointMode::EveryBlock`].
    pub(super) fn block_reuse(&self) -> Option<BlockReuseReport> {
        self.every_block().then_some(BlockReuseReport {
            blocks_created: self.stats.ssm_states_admitted,
            kv_reused: self.reused.0,
            ssm_reused: self.reused.1,
        })
    }

    pub(super) fn tuner_state(&self) -> Option<TunerState> {
        self.tuning.as_ref().map(|(_, tuning)| match tuning {
            Tuning::Waiting { .. } => TunerState::WaitingForFirstEviction,
            Tuning::Recording { window, target, .. } => TunerState::Bootstrapping {
                recorded: window.len() as u64,
                target: *target,
            },
            Tuning::Tuned => TunerState::Tuned {
                alpha: self.rules.alpha,
            },
        })
    }

    /// Bytes resident on `tier`.
    pub(super) fn usage(&self, tier: Tier) -> u64 {
        self.live()
            .filter(|&n| self.node(n).tier == tier)
            .map(|n| self.node_bytes(n))
            .sum()
    }

    /// Bytes of the nodes a pin protects.
    pub(super) fn pinned_bytes(&self) -> u64 {
        let pinned = self.pinned();
        self.live()
            .filter(|&n| pinned[n])
            .map(|n| self.node_bytes(n))
            .sum()
    }

    /// Every node as `(root path, checkpointed, tier)`, sorted.
    pub(super) fn resident(&self) -> Vec<(Vec<Token>, bool, Tier)> {
        let mut out: Vec<_> = self
            .live()
            .map(|n| (self.path(n), self.node(n).checkpoint, self.node(n).tier))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    // ------------------------------------------------------------------
    // The operations.
    // ------------------------------------------------------------------

    /// A lookup: the all-or-nothing hit, its host share, and the access.
    pub(super) fn lookup(&mut self, input: &[Token], now: f64) -> LookupResult {
        let walk = self.walk(input);
        let hit = self.hit(&walk);
        let tokens = hit.map_or(0, |n| self.depth(n));
        let (host_tokens, host_bytes, host_reload_flops) = self.host_share(&walk, tokens);
        if let Some(n) = hit {
            self.stamp(n, now);
            self.refresh_gdsf(n, true);
            if self.rules.refresh_ancestors {
                for &a in &walk.path {
                    if self.depth(a) <= tokens {
                        self.stamp(a, now);
                    }
                }
            }
            if self.every_block() {
                // Every block the hit covers had its KVs read; the hit node
                // its checkpoint too.
                for &a in &walk.path {
                    if self.depth(a) <= tokens && self.node(a).checkpoint {
                        let node = self.node_mut(a);
                        let fresh = !node.kv_reused;
                        node.kv_reused = true;
                        self.reused.0 += u64::from(fresh);
                    }
                }
                let node = self.node_mut(n);
                let fresh = !node.ssm_reused;
                node.ssm_reused = true;
                self.reused.1 += u64::from(fresh);
            }
        }
        let result = LookupResult {
            tokens_matched: tokens,
            raw_matched: walk.matched as u64,
            node: None,
            flops_saved: self.model.flops_saved(tokens),
            host_tokens,
            host_bytes,
            host_reload_flops,
        };
        let s = &mut self.stats;
        s.lookups += 1;
        s.input_tokens += input.len() as u64;
        s.hit_tokens += tokens;
        s.host_hit_tokens += host_tokens;
        s.flops_saved += result.flops_saved;
        if tokens > 0 {
            s.hits += 1;
            s.host_hits += u64::from(host_tokens > 0);
        }
        result
    }

    /// Pins the node a lookup of `input` would hit (and so its ancestors).
    pub(super) fn pin(&mut self, input: &[Token]) -> Option<usize> {
        let walk = self.walk(input);
        let hit = self.hit(&walk);
        self.pins.extend(hit);
        hit
    }

    pub(super) fn unpin(&mut self, pin: Option<usize>) {
        if let Some(n) = pin {
            let at = self.pins.iter().position(|&p| p == n);
            self.pins
                .swap_remove(at.expect("invariant: an unpin matches a pin"));
        }
    }

    /// An admission (§4.1), then pressure, then the tuner. The flag is
    /// `true` when the admitted sequence's node is still on the device
    /// afterwards — when the cache hands out a session cursor.
    pub(super) fn insert(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        ids: &dyn NodeIds,
    ) -> (AdmissionReport, bool) {
        let mut report = AdmissionReport::default();
        let tokens_before = self.tokens();
        let (admitted, end) = self.admit(input, output, now, &mut report);
        // Serving the request put its whole path on the device.
        let mut cur = end.unwrap_or(ROOT);
        while cur != ROOT {
            self.node_mut(cur).tier = Tier::Device;
            cur = self.node(cur).parent;
        }
        let (token_bytes, checkpoint_bytes) = self.charges;
        report.ssm_states_admitted = admitted;
        report.bytes_added =
            (self.tokens() - tokens_before) * token_bytes + admitted * checkpoint_bytes;
        self.stats.insertions += 1;
        self.stats.ssm_states_admitted += admitted;
        self.stats.peak_usage_bytes = self.stats.peak_usage_bytes.max(self.usage(Tier::Device));
        self.relieve_pressure(&mut report, ids);
        self.observe_for_tuning(input, output, now, ids);
        let cursor = end.is_some_and(|n| {
            self.nodes[n]
                .as_ref()
                .is_some_and(|n| n.tier == Tier::Device)
        });
        (report, cursor)
    }

    // ------------------------------------------------------------------
    // Admission.
    // ------------------------------------------------------------------

    /// The all-or-nothing hit rule: the deepest checkpointed node whose
    /// whole root path the query covers.
    fn hit(&self, walk: &Walk) -> Option<usize> {
        walk.path
            .iter()
            .rev()
            .copied()
            .find(|&n| self.node(n).checkpoint)
    }

    /// The checkpoints an admission places, and the node of the admitted
    /// sequence (`None` when nothing was admitted).
    ///
    /// Marconi's placement: speculative insertion — an input ending inside
    /// a label would split it, so the split point is a prefix shared by two
    /// requests and gets a checkpoint, rounded down to a chunk boundary
    /// under chunked state passing — and the state at the last decoded
    /// token. vLLM+'s ([`CheckpointMode::EveryBlock`]): every whole block of
    /// input ‖ output, each boundary checkpointed, nothing else.
    fn admit(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        report: &mut AdmissionReport,
    ) -> (u64, Option<usize>) {
        let mut admitted = 0;
        if let CheckpointMode::EveryBlock { block_size } = self.rules.checkpoint_mode {
            let seq = [input, output].concat();
            let block = block_size as usize;
            let mut end = None;
            for len in (block..=seq.len()).step_by(block) {
                let n = self.grow(
                    end.map_or((ROOT, 0), |n| (n, len - block)),
                    &seq[..len],
                    now,
                );
                admitted += self.checkpoint(n, now);
                end = Some(n);
            }
            return (admitted, end);
        }
        let walk = self.walk(input);
        if walk.mid_edge {
            let target = match self.rules.checkpoint_mode {
                CheckpointMode::Chunked { chunk_size } => {
                    walk.matched / chunk_size as usize * chunk_size as usize
                }
                _ => walk.matched,
            };
            if target > 0 {
                let end = self.grow((ROOT, 0), &input[..target], now);
                admitted += self.checkpoint(end, now);
                report.branch_checkpoint_depth = Some(target as u64);
            }
        }
        if input.is_empty() && output.is_empty() {
            return (admitted, None);
        }
        let n = self.grow((ROOT, 0), &[input, output].concat(), now);
        admitted += self.checkpoint(n, now);
        (admitted, Some(n))
    }

    /// Inserts `seq`, walking from `at` (a node whose root path is the
    /// first `at.1` tokens of `seq`, the root at 0), stamps the nodes the
    /// insert created and the one it ends at, and returns that end node.
    fn grow(&mut self, at: (usize, usize), seq: &[Token], now: f64) -> usize {
        let (mut cur, mut pos) = at;
        let mut split = None;
        let mut leaf = None;
        while pos < seq.len() {
            let Some(child) = self.child(cur, seq[pos]) else {
                let n = self.push(Node::new(seq[pos..].to_vec(), cur, Tier::Device));
                self.node_mut(cur).children.push(n);
                leaf = Some(n);
                cur = n;
                break;
            };
            let shared = common_len(&self.node(child).label, &seq[pos..]);
            if shared < self.node(child).label.len() {
                cur = self.split(child, shared);
                split = Some(cur);
            } else {
                cur = child;
            }
            pos += shared;
        }
        for n in [split, leaf, Some(cur)].into_iter().flatten() {
            self.stamp(n, now);
            self.refresh_gdsf(n, false);
        }
        cur
    }

    /// Cuts `child`'s label after `at` tokens: a new node takes the head
    /// (and the tier those tokens live on) and becomes `child`'s parent.
    fn split(&mut self, child: usize, at: usize) -> usize {
        let c = self.node_mut(child);
        let tail = c.label.split_off(at);
        let head = std::mem::replace(&mut c.label, tail);
        let (parent, tier) = (c.parent, c.tier);
        let mut mid = Node::new(head, parent, tier);
        mid.children.push(child);
        let mid = self.push(mid);
        self.node_mut(child).parent = mid;
        let siblings = &mut self.node_mut(parent).children;
        let at = siblings.iter().position(|&s| s == child);
        siblings[at.expect("invariant: a child is listed under its parent")] = mid;
        mid
    }

    /// Puts an SSM checkpoint on `n` (and stamps it); 1 if it is new.
    fn checkpoint(&mut self, n: usize, now: f64) -> u64 {
        self.stamp(n, now);
        let node = self.node_mut(n);
        let new = !node.checkpoint;
        node.checkpoint = true;
        u64::from(new)
    }

    fn stamp(&mut self, n: usize, now: f64) {
        self.node_mut(n).last_access = now;
    }

    /// GDSF's `H = L + F · C/S` after an access, `C/S` being the node's
    /// FLOP efficiency now. Only kept under GDSF.
    fn refresh_gdsf(&mut self, n: usize, hit: bool) {
        if !self.rules.gdsf {
            return;
        }
        let efficiency = self.efficiency(n);
        let clock = self.gdsf_clock;
        let node = self.node_mut(n);
        if hit {
            node.frequency = node.frequency.saturating_add(1);
        } else if node.frequency == 0 {
            node.frequency = 1;
        }
        node.gdsf_priority = clock + f64::from(node.frequency) * efficiency;
    }

    // ------------------------------------------------------------------
    // Eviction and the tiers.
    // ------------------------------------------------------------------

    /// Device pressure, then (with a host tier) the device fallback, then
    /// host pressure, until both tiers fit or a round takes no victim.
    fn relieve_pressure(&mut self, report: &mut AdmissionReport, ids: &dyn NodeIds) {
        loop {
            let before = self.stats.evictions + self.stats.demotions;
            self.pressure(Source::Candidates(Tier::Device), report, ids);
            if self.rules.host_capacity > 0 {
                self.pressure(Source::DeviceFallback, report, ids);
            }
            self.pressure(Source::Candidates(Tier::Host), report, ids);
            let fits = !self.over(Tier::Device) && !self.over(Tier::Host);
            if fits || self.stats.evictions + self.stats.demotions == before {
                break;
            }
        }
    }

    fn over(&self, tier: Tier) -> bool {
        let budget = match tier {
            Tier::Device => self.rules.capacity,
            Tier::Host => self.rules.host_capacity,
        };
        self.usage(tier) > budget
    }

    /// Takes victims from `source` while its tier is over budget: a device
    /// victim with bytes moves to the host when there is one; every other
    /// victim is deleted.
    fn pressure(&mut self, source: Source, report: &mut AdmissionReport, ids: &dyn NodeIds) {
        let tier = source.tier();
        while self.over(tier) {
            let Some(v) = self.pick(source, ids) else {
                break;
            };
            let path = self.path(v);
            let bytes = self.node_bytes(v);
            if tier == Tier::Device && self.rules.host_capacity > 0 && bytes > 0 {
                self.node_mut(v).tier = Tier::Host;
                self.stats.demotions += 1;
                self.stats.bytes_demoted += bytes;
                report.entries_demoted += 1;
                report.bytes_demoted += bytes;
                self.victims.push((VictimAction::Demoted, path));
            } else {
                let freed = self.freed_bytes(v);
                let entry = self.node(v).checkpoint || !self.every_block();
                self.remove(v);
                self.victims.push((VictimAction::Evicted, path));
                if !entry {
                    // A split point that is no block: nothing to book.
                    continue;
                }
                self.stats.evictions += 1;
                self.stats.bytes_evicted += freed;
                if tier == Tier::Host {
                    self.stats.host_evictions += 1;
                    self.stats.bytes_host_evicted += freed;
                }
                report.entries_evicted += 1;
                report.bytes_evicted += freed;
            }
        }
    }

    /// The victim: the eligible node with the lowest GDSF priority, or
    /// the lowest `S(n)` normalised over the eligible nodes; ties go to
    /// the older node, then the lower cache id.
    fn pick(&mut self, source: Source, ids: &dyn NodeIds) -> Option<usize> {
        let pinned = self.pinned();
        let mut eligible: Vec<usize> = self
            .live()
            .filter(|&n| {
                let node = self.node(n);
                node.tier == source.tier()
                    && !pinned[n]
                    && match source {
                        Source::Candidates(_) => {
                            node.children.len() <= 1
                                && (!self.rules.leaf_only || node.children.is_empty())
                        }
                        Source::DeviceFallback => self.node_bytes(n) > 0,
                    }
            })
            .collect();
        if self.fault == Some(Fault::SkipOldestCandidate) {
            let oldest = eligible
                .iter()
                .enumerate()
                .min_by(|a, b| self.last(*a.1).total_cmp(&self.last(*b.1)))
                .map(|(i, _)| i);
            if let Some(i) = oldest {
                eligible.remove(i);
            }
        }
        let keys: Vec<(f64, f64)> = if self.rules.gdsf {
            eligible
                .iter()
                .map(|&n| (self.node(n).gdsf_priority, self.last(n)))
                .collect()
        } else {
            let scores = self.scores(&eligible);
            eligible
                .iter()
                .zip(scores)
                .map(|(&n, s)| (s, self.last(n)))
                .collect()
        };
        let by_key = |a: &(f64, f64), b: &(f64, f64)| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1));
        let min = keys.iter().min_by(|a, b| by_key(a, b))?;
        let tied: Vec<usize> = eligible
            .iter()
            .zip(&keys)
            .filter(|(_, k)| by_key(k, min) == Ordering::Equal)
            .map(|(&n, _)| n)
            .collect();
        let victim = match tied[..] {
            [only] => only,
            _ => tied.into_iter().min_by_key(|&n| ids.id(&self.path(n)))?,
        };
        if self.rules.gdsf && min.0.is_finite() {
            self.gdsf_clock = self.gdsf_clock.max(min.0);
        }
        Some(victim)
    }

    /// `S(n) = recency(n) + α · flop_efficiency(n)` for each of `nodes`,
    /// both terms min–max normalised over `nodes`: a non-finite value
    /// normalises to `∞`, a one-value range to 0, the efficiency range
    /// spans the finite efficiencies only, and at `α = 0` the efficiency
    /// term is 0 outright (not `0 · ∞`).
    fn scores(&self, nodes: &[usize]) -> Vec<f64> {
        let alpha = self.rules.alpha;
        let stamps: Vec<f64> = nodes.iter().map(|&n| self.last(n)).collect();
        let effs: Vec<f64> = nodes.iter().map(|&n| self.efficiency(n)).collect();
        let (ts_lo, ts_hi) = stamps
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        let (eff_lo, eff_hi) = effs
            .iter()
            .filter(|e| e.is_finite())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
                (lo.min(e), hi.max(e))
            });
        let norm = |v: f64, lo: f64, hi: f64| {
            if !v.is_finite() {
                f64::INFINITY
            } else if hi > lo {
                (v - lo) / (hi - lo)
            } else {
                0.0
            }
        };
        stamps
            .iter()
            .zip(&effs)
            .map(|(&t, &e)| {
                let weighted = if alpha == 0.0 {
                    0.0
                } else {
                    alpha * norm(e, eff_lo, eff_hi)
                };
                norm(t, ts_lo, ts_hi) + weighted
            })
            .collect()
    }

    /// Removes `n`: a leaf goes with its label; a node with one child
    /// hands its label to the child (the child keeps its own state).
    fn remove(&mut self, n: usize) {
        let node = self.nodes[n].take().expect("invariant: victims are live");
        self.free.push(n);
        let siblings = &mut self.node_mut(node.parent).children;
        let at = siblings.iter().position(|&s| s == n);
        let at = at.expect("invariant: a child is listed under its parent");
        match node.children[..] {
            [] => {
                siblings.remove(at);
            }
            [child] => {
                siblings[at] = child;
                let c = self.node_mut(child);
                c.label = [&node.label[..], &c.label[..]].concat();
                c.parent = node.parent;
            }
            _ => unreachable!("invariant: victims have at most one child"),
        }
    }

    /// Bytes a node's state occupies on its tier: its label's KVs and its
    /// checkpoint, as `charges` prices them.
    fn node_bytes(&self, n: usize) -> u64 {
        self.node(n).label.len() as u64 * self.charges.0 + self.ssm_bytes(n)
    }

    fn every_block(&self) -> bool {
        matches!(
            self.rules.checkpoint_mode,
            CheckpointMode::EveryBlock { .. }
        )
    }

    /// Bytes deleting `n` frees: a leaf's label KVs and checkpoint; only
    /// the checkpoint of a node whose child absorbs its label.
    fn freed_bytes(&self, n: usize) -> u64 {
        if self.node(n).children.is_empty() {
            self.node_bytes(n)
        } else {
            self.ssm_bytes(n)
        }
    }

    fn ssm_bytes(&self, n: usize) -> u64 {
        if self.node(n).checkpoint {
            self.charges.1
        } else {
            0
        }
    }

    /// FLOPs a hit at `n` saves over a hit at its parent, per byte
    /// deleting `n` frees (`∞` when it frees none).
    fn efficiency(&self, n: usize) -> f64 {
        let freed = self.freed_bytes(n);
        if freed == 0 {
            return f64::INFINITY;
        }
        let parent = self.node(n).parent;
        let saved =
            self.model.flops_saved(self.depth(n)) - self.model.flops_saved(self.depth(parent));
        saved as f64 / freed as f64
    }

    /// Per slot: is the node protected by a pin, its own or a
    /// descendant's?
    fn pinned(&self) -> Vec<bool> {
        let mut pinned = vec![false; self.nodes.len()];
        for &p in &self.pins {
            let mut cur = p;
            while cur != ROOT {
                pinned[cur] = true;
                cur = self.node(cur).parent;
            }
        }
        pinned
    }

    /// `(host tokens, host bytes, recompute FLOPs)` of a hit of `tokens`
    /// along `walk`: each host node the hit covers contributes its label's
    /// KVs and their prefill FLOPs, and the hit node its checkpoint.
    fn host_share(&self, walk: &Walk, tokens: u64) -> (u64, u64, u128) {
        let mut share = (0, 0, 0);
        for &n in &walk.path {
            let depth = self.depth(n);
            if depth > tokens || self.node(n).tier != Tier::Host {
                continue;
            }
            let len = self.node(n).label.len() as u64;
            share.0 += len;
            share.1 += len * self.model.kv_bytes_per_token();
            share.2 += self.model.prefill_flops(depth).total()
                - self.model.prefill_flops(depth - len).total();
            if depth == tokens {
                share.1 += self.ssm_bytes(n);
            }
        }
        share
    }

    // ------------------------------------------------------------------
    // The α tuner (§4.2).
    // ------------------------------------------------------------------

    /// Waits for the first victim, records a window of 5–15× the requests
    /// seen until then against a snapshot, and adopts the α whose replay
    /// of the window hits most tokens (the smaller α on a tie).
    fn observe_for_tuning(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        ids: &dyn NodeIds,
    ) {
        let Some((config, tuning)) = self.tuning.take() else {
            return;
        };
        let tuning = match tuning {
            Tuning::Waiting { requests } if self.stats.evictions + self.stats.demotions > 0 => {
                let window = ((requests + 1) as f64 * config.bootstrap_multiplier).ceil() as u64;
                Tuning::Recording {
                    snapshot: Box::new(self.replica(self.rules.alpha)),
                    window: Vec::new(),
                    target: window.max(1),
                }
            }
            Tuning::Waiting { requests } => Tuning::Waiting {
                requests: requests + 1,
            },
            Tuning::Recording {
                snapshot,
                mut window,
                target,
            } => {
                window.push((input.to_vec(), output.to_vec(), now));
                if (window.len() as u64) < target {
                    Tuning::Recording {
                        snapshot,
                        window,
                        target,
                    }
                } else {
                    let mut best: Option<(f64, f64)> = None;
                    for &alpha in &config.alpha_grid {
                        let mut replica = snapshot.replica(alpha);
                        let mut replay_ids = ids.replay(alpha);
                        for (input, output, at) in &window {
                            replay_ids.serve(input, output, *at);
                            replica.lookup(input, *at);
                            replica.insert(input, output, *at, &*replay_ids);
                        }
                        let rate = replica.stats.token_hit_rate();
                        if best.is_none_or(|(a, r)| {
                            rate.total_cmp(&r).then(a.total_cmp(&alpha)).is_gt()
                        }) {
                            best = Some((alpha, rate));
                        }
                    }
                    self.rules.alpha = best.expect("invariant: the α grid is non-empty").0;
                    Tuning::Tuned
                }
            }
            Tuning::Tuned => Tuning::Tuned,
        };
        self.tuning = Some((config, tuning));
    }

    /// A fixed-α copy for replay: same state, no pins, fresh stats.
    fn replica(&self, alpha: f64) -> SpecCache {
        let mut r = self.clone();
        r.pins.clear();
        r.rules.alpha = alpha;
        r.rules.gdsf = false;
        r.tuning = None;
        r.stats = CacheStats::default();
        r.victims.clear();
        r
    }

    // ------------------------------------------------------------------
    // The trie.
    // ------------------------------------------------------------------

    fn node(&self, n: usize) -> &Node {
        self.nodes[n].as_ref().expect("invariant: live node")
    }

    fn node_mut(&mut self, n: usize) -> &mut Node {
        self.nodes[n].as_mut().expect("invariant: live node")
    }

    fn push(&mut self, node: Node) -> usize {
        if let Some(n) = self.free.pop() {
            self.nodes[n] = Some(node);
            return n;
        }
        self.nodes.push(Some(node));
        self.nodes.len() - 1
    }

    /// Live non-root slots.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (1..self.nodes.len()).filter(|&n| self.nodes[n].is_some())
    }

    fn last(&self, n: usize) -> f64 {
        self.node(n).last_access
    }

    fn child(&self, n: usize, token: Token) -> Option<usize> {
        self.node(n)
            .children
            .iter()
            .copied()
            .find(|&c| self.node(c).label[0] == token)
    }

    fn depth(&self, n: usize) -> u64 {
        let (mut depth, mut cur) = (0, n);
        while cur != ROOT {
            depth += self.node(cur).label.len() as u64;
            cur = self.node(cur).parent;
        }
        depth
    }

    fn path(&self, n: usize) -> Vec<Token> {
        let mut labels = Vec::new();
        let mut cur = n;
        while cur != ROOT {
            labels.push(&self.node(cur).label[..]);
            cur = self.node(cur).parent;
        }
        labels.reverse();
        labels.concat()
    }

    fn tokens(&self) -> u64 {
        self.live().map(|n| self.node(n).label.len() as u64).sum()
    }

    fn walk(&self, query: &[Token]) -> Walk {
        let mut walk = Walk {
            path: Vec::new(),
            matched: 0,
            mid_edge: false,
        };
        let mut cur = ROOT;
        while let Some(child) = query.get(walk.matched).and_then(|&t| self.child(cur, t)) {
            let label = &self.node(child).label;
            let shared = common_len(label, &query[walk.matched..]);
            walk.matched += shared;
            if shared < label.len() {
                walk.mid_edge = true;
                break;
            }
            walk.path.push(child);
            cur = child;
        }
        walk
    }
}

fn common_len(a: &[Token], b: &[Token]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}
