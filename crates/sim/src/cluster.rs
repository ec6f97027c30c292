//! Sharded cluster simulation: N cache replicas behind a pluggable router.
//!
//! Marconi's evaluation is single-replica; at production scale a fleet of
//! cache replicas sits behind a router that decides where each request
//! lands, and the *placement* decision determines how much cross-request
//! prefix reuse survives sharding. This module replays a trace against N
//! independent [`HybridPrefixCache`] replicas — each with its own capacity
//! slice and eviction policy — under a [`Router`]:
//!
//! * [`RoundRobin`] — spreads consecutive requests evenly, destroying both
//!   session history and shared-prompt locality;
//! * [`SessionAffinity`] — pins each session to `hash(session_id) % N`,
//!   preserving within-session reuse but scattering tenants;
//! * [`PrefixAware`] — probes every replica's radix tree for the longest
//!   reusable cached prefix (via the non-mutating
//!   [`PrefixCache::longest_cached_prefix_len`]) and routes to the best
//!   match, breaking ties toward the least-loaded replica;
//! * [`QueueAware`] — like [`PrefixAware`], but ties break toward the
//!   fewest outstanding queued tokens, so among equally warm replicas a
//!   request joins the shortest queue.
//!
//! The fleet itself is [`EventCluster`]; this module holds what it is built
//! from and what it reports — the routers, the routing step, the
//! [`ClusterBuilder`] and the [`ClusterReport`]. In the zero-load limit
//! ([`ClusterBuilder::instantaneous`]) queues never form and an N=1 cluster
//! reproduces the single-node [`Engine`](crate::Engine)'s cache decisions
//! under every router (the parity test below pins this), so the
//! paper-claims suite anchors the cluster layer.

use crate::engine::Replica;
use crate::event::EventCluster;
use crate::executor::BatchConfig;
use crate::gpu::GpuModel;
use crate::report::SimReport;
use marconi_core::{CacheStats, EvictionPolicy, HybridPrefixCache, PrefixCache, TieredPrefix};
use marconi_metrics::{LatencySummary, LoadImbalance};
use marconi_model::ModelConfig;
use marconi_trace::{ReplicaProbe, TraceEvent, Tracer};
use marconi_workload::{Request, Token, Trace};
use std::fmt;

/// What a [`Router`] may see of one replica: a read-only probe plus load
/// accounting. Probing **cannot** mutate the replica — placement probes on
/// replicas that don't win a request leave them byte-identical.
#[derive(Debug)]
pub struct ReplicaStatus<'a> {
    index: usize,
    cache: &'a HybridPrefixCache,
    queued_tokens: u64,
}

impl<'a> ReplicaStatus<'a> {
    /// Builds the router-facing view of one replica. `queued_tokens` is the
    /// replica's live outstanding prefill backlog.
    fn new(index: usize, cache: &'a HybridPrefixCache, queued_tokens: u64) -> Self {
        ReplicaStatus {
            index,
            cache,
            queued_tokens,
        }
    }

    /// This replica's index in the cluster.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Outstanding prefill backlog in tokens: inputs waiting in the
    /// replica's admission queue plus un-prefilled remainders of its
    /// running batch. Always 0 in the zero-load limit
    /// ([`ClusterBuilder::instantaneous`]).
    #[must_use]
    pub fn queued_tokens(&self) -> u64 {
        self.queued_tokens
    }

    /// Longest reusable cached prefix of `input` on this replica, in
    /// tokens, without touching recency or stats
    /// ([`PrefixCache::longest_cached_prefix_len`]).
    #[must_use]
    pub fn probe(&self, input: &[Token]) -> u64 {
        self.cache.longest_cached_prefix_len(input)
    }

    /// Tier-split probe: the longest reusable cached prefix *and* how much
    /// of it is host-resident (would need a PCIe transfer or recompute).
    /// Same non-mutating guarantee as [`probe`](ReplicaStatus::probe);
    /// `probe_tiers(input).tokens == probe(input)` always.
    #[must_use]
    pub fn probe_tiers(&self, input: &[Token]) -> TieredPrefix {
        self.cache.probe_tiers(input)
    }

    /// Everything the prefix routers rank this replica by, probed once for
    /// `input` (a probe walks the radix tree over the whole input).
    fn probe_all(&self, input: &[Token]) -> ReplicaProbe {
        let tiers = self.probe_tiers(input);
        ReplicaProbe {
            replica: self.index as u64,
            matched_tokens: tiers.tokens,
            host_tokens: tiers.host_tokens,
            queued_tokens: self.queued_tokens,
            routed_tokens: self.routed_tokens(),
        }
    }

    /// Input tokens routed to this replica so far (the load measure).
    ///
    /// Every routed request performs exactly one lookup on its winning
    /// replica, so this is the cache's own cumulative `input_tokens`
    /// counter — one source of truth shared with
    /// [`ClusterReport::replica_loads`].
    #[must_use]
    pub fn routed_tokens(&self) -> u64 {
        self.cache.stats().input_tokens
    }
}

/// A routing policy: picks the replica each request is served on.
///
/// Implementations must be deterministic — same request sequence and same
/// replica states must produce the same assignment — so cluster replays are
/// reproducible (the seeded-determinism tests enforce this for every
/// built-in router).
pub trait Router: fmt::Debug {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Picks the replica index in `[0, replicas.len())` for `req`.
    ///
    /// Probing `replicas` is free of side effects; only the winning replica
    /// will observe the request.
    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize;
}

/// Round-robin routing: request `k` goes to replica `k % N`. The
/// locality-oblivious baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, _req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        let idx = self.next % replicas.len();
        self.next = (self.next + 1) % replicas.len();
        idx
    }
}

/// Session-affinity routing: `splitmix64(session_id) % N`, so every turn of
/// a session lands on the same replica. Preserves conversation-history
/// reuse; blind to cross-session (shared-prompt) reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionAffinity;

/// SplitMix64: a fixed, portable integer hash so assignments never depend
/// on process- or platform-specific hasher state.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Router for SessionAffinity {
    fn name(&self) -> &str {
        "session-affinity"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        (splitmix64(req.session_id) % replicas.len() as u64) as usize
    }
}

/// Prefix-aware routing: probe every replica for the longest reusable
/// cached prefix of the request's input and route to the deepest match;
/// among equally deep matches, prefer the one with more of the prefix
/// device-resident (a host hit pays a reload before it serves), then the
/// least-loaded replica (fewest routed tokens), then the lowest index.
///
/// This recovers both reuse channels sharding endangers: a session's later
/// turns follow its cached history, and a tenant's new sessions follow the
/// replica already holding the tenant's system prompt.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixAware;

impl Router for PrefixAware {
    fn name(&self) -> &str {
        "prefix-aware"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        best_ranked(req, replicas, false)
    }
}

/// Queue-aware routing: [`PrefixAware`]'s order with one more tie-break
/// between the host-resident and the routed tokens — the fewest
/// *outstanding queued tokens*.
///
/// In the zero-load limit ([`ClusterBuilder::instantaneous`]) every queue
/// reads 0 and this degenerates to exactly [`PrefixAware`]; under a modeled
/// device it is the policy that trades prefix locality against real-time
/// load — a deep cached prefix on a replica with a long backlog can still
/// win, but among equally-warm replicas the request joins the shortest
/// queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueAware;

impl Router for QueueAware {
    fn name(&self) -> &str {
        "queue-aware"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        best_ranked(req, replicas, true)
    }
}

/// The prefix routers' one order: a replica's rank, compared
/// lexicographically, greater first. Its components, in order: matched
/// tokens (more first), host-resident tokens (fewer first: a host hit pays
/// a reload before it serves), queued tokens (fewer first; [`QueueAware`]
/// only, a constant otherwise), routed tokens (fewer first, so cold
/// traffic spreads instead of funnelling to replica 0), replica index
/// (lower first). "Fewer first" components are stored complemented, and
/// the index makes every rank unique.
type Rank = [u64; 5];

/// Each [`Rank`] component's name, as a traced `tie_break` label.
const RANK_LABELS: [&str; 5] = [
    "prefix-tokens",
    "host-tokens",
    "queue-depth",
    "routed-tokens",
    "replica-index",
];

fn rank(p: &ReplicaProbe, queue_aware: bool) -> Rank {
    let queued = if queue_aware { p.queued_tokens } else { 0 };
    [
        p.matched_tokens,
        !p.host_tokens,
        !queued,
        !p.routed_tokens,
        !p.replica,
    ]
}

/// The index of the replica of greatest [`Rank`].
fn best_ranked(req: &Request, replicas: &[ReplicaStatus<'_>], queue_aware: bool) -> usize {
    let best = replicas
        .iter()
        .map(|r| rank(&r.probe_all(&req.input), queue_aware))
        .max()
        .expect("invariant: clusters have at least one replica");
    !best[4] as usize
}

/// Which [`Rank`] component decided a routing choice: the first at which
/// the greatest rank is unique. Hash- and rotation-based routers report
/// their policy name; unknown custom routers report `custom`.
fn route_tie_break(router: &str, probes: &[ReplicaProbe]) -> &'static str {
    if probes.len() <= 1 {
        return "single-replica";
    }
    let queue_aware = match router {
        "round-robin" => return "round-robin",
        "session-affinity" => return "session-affinity",
        "prefix-aware" => false,
        "queue-aware" => true,
        _ => return "custom",
    };
    let ranks: Vec<Rank> = probes.iter().map(|p| rank(p, queue_aware)).collect();
    let best = ranks.iter().max().expect("invariant: probes are not empty");
    let decided = (0..RANK_LABELS.len())
        .find(|&i| ranks.iter().filter(|r| r[..=i] == best[..=i]).count() == 1)
        .expect("invariant: the replica index makes every rank unique");
    RANK_LABELS[decided]
}

/// The built-in routing policies, for sweeps and builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`SessionAffinity`].
    SessionAffinity,
    /// [`PrefixAware`].
    PrefixAware,
    /// [`QueueAware`].
    QueueAware,
}

impl RoutingPolicy {
    /// All built-in policies, weakest locality first.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::SessionAffinity,
        RoutingPolicy::PrefixAware,
        RoutingPolicy::QueueAware,
    ];

    /// Instantiates the router.
    #[must_use]
    pub fn build(self) -> Box<dyn Router> {
        match self {
            RoutingPolicy::RoundRobin => Box::new(RoundRobin::default()),
            RoutingPolicy::SessionAffinity => Box::new(SessionAffinity),
            RoutingPolicy::PrefixAware => Box::new(PrefixAware),
            RoutingPolicy::QueueAware => Box::new(QueueAware),
        }
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::SessionAffinity => "session-affinity",
            RoutingPolicy::PrefixAware => "prefix-aware",
            RoutingPolicy::QueueAware => "queue-aware",
        };
        f.write_str(name)
    }
}

/// Routes one arrival across `replicas` — each a cache and its outstanding
/// queued tokens — and records the decision with every replica's probe.
///
/// # Panics
///
/// Panics if the router returns an out-of-range replica index.
pub(crate) fn route<'c>(
    router: &mut dyn Router,
    tracer: &Tracer,
    req: &Request,
    replicas: impl Iterator<Item = (&'c HybridPrefixCache, u64)>,
) -> usize {
    let statuses: Vec<ReplicaStatus<'_>> = replicas
        .enumerate()
        .map(|(index, (cache, queued))| ReplicaStatus::new(index, cache, queued))
        .collect();
    let idx = router.route(req, &statuses);
    let n = statuses.len();
    assert!(
        idx < n,
        "router {} picked replica {idx} of {n}",
        router.name()
    );
    if tracer.is_enabled() {
        let probes: Vec<ReplicaProbe> = statuses.iter().map(|s| s.probe_all(&req.input)).collect();
        let tie_break = route_tie_break(router.name(), &probes);
        tracer.emit(|| TraceEvent::RouterDecision {
            ts: req.arrival,
            request: req.id,
            chosen: idx as u64,
            tie_break,
            probes,
        });
    }
    idx
}

/// Builder for [`EventCluster`]; see [`EventCluster::builder`].
#[derive(Debug)]
pub struct ClusterBuilder {
    model: ModelConfig,
    replicas: usize,
    total_capacity: u64,
    total_host_capacity: u64,
    policy: EvictionPolicy,
    gpu: GpuModel,
    batch: BatchConfig,
    router: Box<dyn Router>,
}

impl ClusterBuilder {
    pub(crate) fn new(model: ModelConfig) -> Self {
        ClusterBuilder {
            model,
            replicas: 1,
            total_capacity: 16 << 30,
            total_host_capacity: 0,
            policy: EvictionPolicy::default(),
            gpu: GpuModel::a100_x4(),
            batch: BatchConfig::default(),
            router: RoutingPolicy::QueueAware.build(),
        }
    }

    /// Sets the replica count.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn replicas(mut self, replicas: usize) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        self.replicas = replicas;
        self
    }

    /// Sets the cluster-wide device capacity; each replica gets an equal
    /// `total / N` slice, so scaling N at fixed total capacity isolates the
    /// *placement* effect from a memory-size effect.
    #[must_use]
    pub fn total_capacity_bytes(mut self, bytes: u64) -> Self {
        self.total_capacity = bytes;
        self
    }

    /// Sets the cluster-wide host-DRAM budget, sliced `total / N` like the
    /// device capacity (default 0 = single-tier replicas).
    #[must_use]
    pub fn total_host_capacity_bytes(mut self, bytes: u64) -> Self {
        self.total_host_capacity = bytes;
        self
    }

    /// Sets every replica's eviction policy (default: the cache's default,
    /// Marconi's auto-tuned FLOP-aware policy).
    #[must_use]
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects a built-in routing policy (default
    /// [`RoutingPolicy::QueueAware`]).
    #[must_use]
    pub fn routing(mut self, policy: RoutingPolicy) -> Self {
        self.router = policy.build();
        self
    }

    /// Installs a custom router.
    #[must_use]
    pub fn router(mut self, router: Box<dyn Router>) -> Self {
        self.router = router;
        self
    }

    /// Puts every replica in the infinite-throughput (zero-load) limit.
    #[must_use]
    pub fn instantaneous(mut self) -> Self {
        self.gpu = GpuModel::unbounded();
        self
    }

    /// Overrides the per-replica continuous-batching knobs.
    ///
    /// # Panics
    ///
    /// Panics if a knob is zero.
    #[must_use]
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        batch.validate();
        self.batch = batch;
        self
    }

    /// Builds the cluster. This is the one place replica caches are
    /// configured: every replica gets an equal `total / n` slice of both
    /// the device capacity and the host budget, the same eviction policy,
    /// and its index as its trace label
    /// (any new cache knob must flow through here to reach the replicas).
    #[must_use]
    pub fn build(self) -> EventCluster {
        let n = self.replicas as u64;
        let replicas = (0..self.replicas)
            .map(|index| {
                let cache = HybridPrefixCache::builder(self.model.clone())
                    .capacity_bytes(self.total_capacity / n)
                    .host_capacity_bytes(self.total_host_capacity / n)
                    .policy(self.policy.clone())
                    .build();
                Replica::new(cache, Some(index))
            })
            .collect();
        EventCluster {
            replicas,
            router: self.router,
            gpu: self.gpu,
            batch: self.batch,
            tracer: Tracer::off(),
        }
    }
}

/// Result of one [`EventCluster::run`]: per-replica breakdowns plus the
/// assignment log.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Router name the run used.
    pub router: String,
    /// Trace name the run used.
    pub trace: String,
    /// One [`SimReport`] per replica (system names carry the replica
    /// index, e.g. `marconi[2]`), covering this run's requests only.
    pub replicas: Vec<SimReport>,
    /// Replica index each request was routed to, in arrival order — the
    /// determinism tests compare these logs across identical replays.
    pub assignments: Vec<usize>,
}

impl ClusterReport {
    /// Assembles a run's report from each replica's own, rebasing the
    /// cumulative cache statistics onto `before` (taken at the run's start).
    pub(crate) fn new(
        router: &str,
        trace: &Trace,
        mut replicas: Vec<SimReport>,
        before: &[CacheStats],
        assignments: Vec<usize>,
    ) -> Self {
        for (rep, before) in replicas.iter_mut().zip(before) {
            rep.cache_stats = rep.cache_stats.delta_since(before);
        }
        ClusterReport {
            router: router.to_owned(),
            trace: trace.name.clone(),
            replicas,
            assignments,
        }
    }

    /// Fleet-wide cache statistics: the per-replica counters summed.
    ///
    /// `peak_usage_bytes` is the sum of per-replica peaks (replicas peak at
    /// different times, so this bounds — rather than equals — the true
    /// simultaneous peak).
    #[must_use]
    pub fn aggregate_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for rep in &self.replicas {
            total.accumulate(&rep.cache_stats);
        }
        total
    }

    /// Fleet-wide token hit rate: hit tokens over input tokens, summed
    /// across replicas.
    #[must_use]
    pub fn aggregate_token_hit_rate(&self) -> f64 {
        self.aggregate_stats().token_hit_rate()
    }

    /// Total prefill FLOPs saved across all replicas.
    #[must_use]
    pub fn total_flops_saved(&self) -> u128 {
        self.replicas.iter().map(SimReport::total_flops_saved).sum()
    }

    /// Input tokens routed to each replica during this run.
    #[must_use]
    pub fn replica_loads(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.cache_stats.input_tokens)
            .collect()
    }

    /// Load-imbalance statistics over per-replica routed input tokens.
    #[must_use]
    pub fn load_imbalance(&self) -> Option<LoadImbalance> {
        let loads: Vec<f64> = self.replica_loads().iter().map(|&t| t as f64).collect();
        LoadImbalance::new(&loads)
    }

    /// All per-request TTFTs across replicas, in global arrival order (id
    /// order: requests that share an id follow replica order).
    #[must_use]
    pub fn ttfts_ms(&self) -> Vec<f64> {
        let mut with_ids: Vec<(u64, f64)> = self
            .replicas
            .iter()
            .flat_map(|r| r.records.iter().map(|rec| (rec.id, rec.ttft_ms)))
            .collect();
        with_ids.sort_by_key(|&(id, _)| id);
        with_ids.into_iter().map(|(_, t)| t).collect()
    }

    /// Fleet-wide TTFT distribution summary; `None` for an empty run.
    #[must_use]
    pub fn ttft_summary(&self) -> Option<LatencySummary> {
        LatencySummary::new(&self.ttfts_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use marconi_workload::{DatasetKind, TraceGenerator};

    fn multi_tenant_trace(seed: u64) -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(24)
            .tenants(6)
            .seed(seed)
            .generate()
    }

    /// An N-replica LRU cluster in the zero-load limit, where queues never
    /// form and every replica admits each request at its arrival.
    fn cluster(n: usize, policy: RoutingPolicy, capacity: u64) -> EventCluster {
        EventCluster::builder(ModelConfig::hybrid_7b())
            .replicas(n)
            .total_capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .routing(policy)
            .instantaneous()
            .build()
    }

    #[test]
    fn n1_cluster_reproduces_single_node_engine_under_every_router() {
        // The parity anchor: a zero-load cluster of one replica makes the
        // single-node engine's cache decisions, regardless of router — so
        // everything the paper-claims suite establishes about the engine
        // transfers. TTFT is the one field that differs: the engine prices
        // prefill, the zero-load limit takes no time.
        let trace = multi_tenant_trace(11);
        let decisions = |rep: &SimReport| -> Vec<_> {
            rep.records
                .iter()
                .map(|r| {
                    (
                        r.id,
                        r.hit_tokens,
                        r.raw_matched,
                        r.flops_spent,
                        r.flops_saved,
                    )
                })
                .collect()
        };
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::FlopAware { alpha: 2.0 },
            EvictionPolicy::default(), // Marconi auto-tuned
        ] {
            let capacity = 4 << 30;
            let mut engine = Engine::new(
                HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                    .capacity_bytes(capacity)
                    .policy(policy.clone())
                    .build(),
                GpuModel::a100_x4(),
            );
            let single = engine.run(&trace);
            for routing in RoutingPolicy::ALL {
                let mut c = EventCluster::builder(ModelConfig::hybrid_7b())
                    .replicas(1)
                    .total_capacity_bytes(capacity)
                    .policy(policy.clone())
                    .routing(routing)
                    .instantaneous()
                    .build();
                let report = c.run(&trace);
                let got = &report.replicas[0];
                assert_eq!(
                    got.cache_stats, single.cache_stats,
                    "{routing}/{policy}: CacheStats must be byte-identical"
                );
                assert_eq!(
                    decisions(got),
                    decisions(&single),
                    "{routing}/{policy}: per-request records must match"
                );
                assert!(report.assignments.iter().all(|&i| i == 0));
            }
        }
    }

    #[test]
    fn routers_are_deterministic_across_replays() {
        let trace = multi_tenant_trace(7);
        for routing in RoutingPolicy::ALL {
            let run = || {
                let mut c = cluster(4, routing, 8 << 30);
                c.run(&trace)
            };
            let (a, b) = (run(), run());
            assert_eq!(a.assignments, b.assignments, "{routing}: assignment log");
            assert_eq!(a, b, "{routing}: full report");
        }
    }

    /// A cluster with no capacity is the no-cache limit on every replica,
    /// under every router and on the queued executor: each request is
    /// admitted once, and no replica hits, checkpoints, evicts or holds a
    /// byte.
    #[test]
    fn zero_capacity_cluster_caches_nothing() {
        let trace = multi_tenant_trace(3);
        for routing in RoutingPolicy::ALL {
            let mut c = EventCluster::builder(ModelConfig::hybrid_7b())
                .replicas(4)
                .total_capacity_bytes(0)
                .routing(routing)
                .build();
            let report = c.run(&trace);
            let admitted: u64 = report
                .replicas
                .iter()
                .map(|r| r.cache_stats.insertions)
                .sum();
            assert_eq!(admitted, trace.len() as u64, "{routing}");
            for (i, rep) in report.replicas.iter().enumerate() {
                let s = rep.cache_stats;
                assert_eq!(
                    (
                        s.hit_tokens,
                        s.ssm_states_admitted,
                        s.evictions,
                        s.demotions,
                        s.peak_usage_bytes
                    ),
                    (0, 0, 0, 0, 0),
                    "{routing}: replica {i}"
                );
                assert_eq!(c.replica_cache(i).node_count(), 0, "{routing}");
            }
        }
    }

    #[test]
    fn prefix_aware_beats_session_affinity_beats_round_robin() {
        // The acceptance-criteria assertion: on a seeded multi-tenant trace
        // at N=4, prefix-aware routing achieves strictly higher aggregate
        // token hit rate than round-robin. Session affinity sits between:
        // it preserves within-session reuse but scatters tenants.
        let trace = multi_tenant_trace(42);
        let rate = |routing: RoutingPolicy| {
            let mut c = cluster(4, routing, 16 << 30);
            c.run(&trace).aggregate_token_hit_rate()
        };
        let rr = rate(RoutingPolicy::RoundRobin);
        let sa = rate(RoutingPolicy::SessionAffinity);
        let pa = rate(RoutingPolicy::PrefixAware);
        assert!(
            pa > rr,
            "prefix-aware ({pa:.3}) must beat round-robin ({rr:.3})"
        );
        assert!(
            sa > rr,
            "session affinity ({sa:.3}) must beat round-robin ({rr:.3})"
        );
        assert!(
            pa >= sa,
            "prefix-aware ({pa:.3}) must not lose to session affinity ({sa:.3})"
        );
    }

    #[test]
    fn queue_aware_degenerates_to_prefix_aware_without_queues() {
        // The zero-load cluster never forms queues (queued_tokens is always
        // 0), so queue-aware routing must reproduce prefix-aware
        // assignments exactly — the queue tie-breaker only bites under a
        // modeled device.
        let trace = multi_tenant_trace(5);
        let run = |routing: RoutingPolicy| {
            let mut c = cluster(4, routing, 8 << 30);
            c.run(&trace).assignments
        };
        assert_eq!(
            run(RoutingPolicy::QueueAware),
            run(RoutingPolicy::PrefixAware)
        );
    }

    #[test]
    fn losing_replicas_are_untouched_by_prefix_probes() {
        // The probe-side regression: routing a request away from a replica
        // must leave that replica byte-identical, even though the router
        // probed its tree.
        let model = ModelConfig::hybrid_7b();
        let mut c = EventCluster::builder(model.clone())
            .replicas(2)
            .total_capacity_bytes(8 << 30)
            .policy(EvictionPolicy::Lru)
            .routing(RoutingPolicy::PrefixAware)
            .instantaneous()
            .build();
        let session_a: Vec<Token> = (0..400).collect();
        let session_b: Vec<Token> = (100_000..100_400).collect();
        let mk = |id, session_id, input: &[Token]| Request {
            id,
            session_id,
            tenant_id: session_id,
            turn: 0,
            arrival: id as f64,
            input: input.to_vec(),
            output: (200_000..200_032).collect(),
        };
        // Request 0 (session A) → replica 0 (all probes 0, least loaded,
        // lowest index); request 1 (session B, no shared prefix) → replica 1
        // (least loaded).
        let warmup = Trace {
            name: "warmup".into(),
            requests: vec![mk(0, 0, &session_a), mk(1, 1, &session_b)],
        };
        assert_eq!(c.run(&warmup).assignments, vec![0, 1]);

        let loser_stats = *c.replica_cache(1).stats();
        let loser_usage = c.replica_cache(1).usage_bytes();
        let loser_nodes = c.replica_cache(1).node_count();
        let loser_states = c.replica_cache(1).ssm_state_count();

        // Session A's second turn: probing finds its history on replica 0,
        // so replica 1 is probed and loses.
        let mut resume = session_a.clone();
        resume.extend(200_000..200_032);
        resume.extend(300_000..300_040);
        let turn2 = Trace {
            name: "turn2".into(),
            requests: vec![mk(2, 0, &resume)],
        };
        let report = c.run(&turn2);
        assert_eq!(report.assignments, vec![0], "history lives on replica 0");
        assert!(
            report.replicas[0].cache_stats.hit_tokens > 0,
            "the winning replica serves the resume from cache"
        );
        assert_eq!(
            *c.replica_cache(1).stats(),
            loser_stats,
            "losing replica's stats must not move"
        );
        assert_eq!(c.replica_cache(1).usage_bytes(), loser_usage);
        assert_eq!(c.replica_cache(1).node_count(), loser_nodes);
        assert_eq!(c.replica_cache(1).ssm_state_count(), loser_states);
    }

    #[test]
    fn capacity_is_sliced_evenly_across_replicas() {
        let c = cluster(4, RoutingPolicy::RoundRobin, 16 << 30);
        for i in 0..4 {
            assert_eq!(c.replica_cache(i).capacity_bytes(), 4 << 30);
        }
    }

    #[test]
    fn host_capacity_is_sliced_evenly_across_replicas() {
        // The builder's fidelity rule extended to the host tier: a
        // cluster-wide host budget slices like the device capacity.
        let c = EventCluster::builder(ModelConfig::hybrid_7b())
            .replicas(4)
            .total_capacity_bytes(16 << 30)
            .total_host_capacity_bytes(64 << 30)
            .routing(RoutingPolicy::PrefixAware)
            .build();
        for i in 0..4 {
            assert_eq!(c.replica_cache(i).host_capacity_bytes(), 16 << 30);
        }
    }

    #[test]
    fn routers_weigh_host_hits_below_device_hits() {
        // Two replicas hold the same prefix equally deep, but on replica 0
        // it has been demoted to host. Prefix- and queue-aware routing must
        // send the request to the device-resident copy — and with no host
        // tier anywhere, the extra tie-break term must not change anything
        // (pinned separately by `queue_aware_degenerates_to_prefix_aware`).
        let m = ModelConfig::hybrid_7b();
        let prompt: Vec<Token> = (0..96).collect();
        let output: Vec<Token> = (200_000..200_032).collect();
        let warm = |host: bool| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(if host {
                    // Too small for two sequences: the follow-up insert
                    // demotes the prompt's sequence.
                    128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes() + 1
                } else {
                    4 << 30
                })
                .host_capacity_bytes(1 << 40)
                .policy(EvictionPolicy::Lru)
                .build();
            c.insert_at(&prompt, &output, 0.0);
            if host {
                c.insert_at(
                    &(300_000..300_096).collect::<Vec<Token>>(),
                    &(400_000..400_032).collect::<Vec<Token>>(),
                    1.0,
                );
            }
            c
        };
        let demoted = warm(true);
        let device = warm(false);
        let mut resume = prompt.clone();
        resume.extend_from_slice(&output);
        // Same depth on both replicas; only the tier differs.
        assert_eq!(
            demoted.longest_cached_prefix_len(&resume),
            device.longest_cached_prefix_len(&resume)
        );
        assert!(demoted.probe_tiers(&resume).host_tokens > 0);
        assert_eq!(device.probe_tiers(&resume).host_tokens, 0);
        let req = Request {
            id: 9,
            session_id: 0,
            tenant_id: 0,
            turn: 1,
            arrival: 2.0,
            input: resume,
            output: (500_000..500_008).collect(),
        };
        for mut router in [
            RoutingPolicy::PrefixAware.build(),
            RoutingPolicy::QueueAware.build(),
        ] {
            let statuses = [
                ReplicaStatus::new(0, &demoted, 0),
                ReplicaStatus::new(1, &device, 0),
            ];
            assert_eq!(
                router.route(&req, &statuses),
                1,
                "{}: the device-resident copy must win the tie",
                router.name()
            );
        }
    }

    #[test]
    fn round_robin_balances_request_counts() {
        let trace = multi_tenant_trace(3);
        let mut c = cluster(4, RoutingPolicy::RoundRobin, 8 << 30);
        let report = c.run(&trace);
        let mut counts = [0usize; 4];
        for &to in &report.assignments {
            counts[to] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "round-robin counts differ: {counts:?}");
        let imbalance = report.load_imbalance().unwrap();
        assert!(imbalance.factor() >= 1.0);
    }

    #[test]
    fn aggregate_stats_sum_replica_counters() {
        let trace = multi_tenant_trace(9);
        let mut c = cluster(4, RoutingPolicy::SessionAffinity, 8 << 30);
        let report = c.run(&trace);
        let agg = report.aggregate_stats();
        assert_eq!(agg.lookups, trace.len() as u64);
        assert_eq!(agg.input_tokens, trace.total_input_tokens());
        assert_eq!(
            agg.lookups,
            report
                .replicas
                .iter()
                .map(|r| r.cache_stats.lookups)
                .sum::<u64>()
        );
        assert_eq!(report.ttfts_ms().len(), trace.len());
    }
}
