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
//!   fewest outstanding queued tokens — meaningful under the event-driven
//!   [`EventCluster`](crate::EventCluster), where queues actually form.
//!
//! [`Cluster`] is a router over N analytic [`Engine`]s: each
//! request is served by the same per-request step `Engine::run` loops over,
//! so an N=1 cluster reproduces the single-node engine byte-for-byte under
//! every router (the parity test below pins this) and the paper-claims
//! suite anchors the cluster layer. The event-driven
//! [`EventCluster`](crate::EventCluster) shares everything here but the
//! service discipline: the routers, the routing step, the
//! [`ClusterBuilder`] and the [`ClusterReport`].

use crate::engine::{Engine, Replica};
use crate::executor::{BatchConfig, ServiceMode};
use crate::gpu::GpuModel;
use crate::report::SimReport;
use marconi_core::{
    CacheStats, CheckpointMode, EvictionPolicy, HybridPrefixCache, PrefixCache, ReloadPolicy,
    TieredPrefix,
};
use marconi_metrics::{LatencySummary, LoadImbalance, TierSplit};
use marconi_model::ModelConfig;
use marconi_trace::{ReplicaProbe, TraceEvent, Tracer};
use marconi_workload::{Request, Token, Trace};
use std::fmt;
use std::marker::PhantomData;

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
    /// replica's outstanding prefill backlog; the instantaneous
    /// [`Cluster`] always passes 0 (its queues never form), the
    /// event-driven [`EventCluster`](crate::EventCluster) passes live
    /// queue depth.
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
    /// running batch. Always 0 under the instantaneous [`Cluster`].
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

    /// Bytes of model states currently resident on this replica's device
    /// tier.
    #[must_use]
    pub fn usage_bytes(&self) -> u64 {
        self.cache.usage_bytes()
    }

    /// This replica's device-capacity slice in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.cache.capacity_bytes()
    }

    /// Bytes of model states demoted to this replica's host tier.
    #[must_use]
    pub fn host_usage_bytes(&self) -> u64 {
        self.cache.host_usage_bytes()
    }

    /// This replica's host-budget slice in bytes (0 = single-tier).
    #[must_use]
    pub fn host_capacity_bytes(&self) -> u64 {
        self.cache.host_capacity_bytes()
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
fn splitmix64(seed: u64) -> u64 {
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
        // Probe each replica exactly once (a probe walks the radix tree
        // over the full input — too expensive to re-run inside the
        // comparator).
        replicas
            .iter()
            .map(|r| (r.probe_tiers(&req.input), r))
            .max_by(|(pa, a), (pb, b)| {
                pa.tokens
                    .cmp(&pb.tokens)
                    // Deeper wins outright; on a depth tie the hit with
                    // fewer host-resident tokens is worth more. With no
                    // host tier anywhere this term always ties, preserving
                    // the pre-tiering assignments exactly.
                    .then(pb.host_tokens.cmp(&pa.host_tokens))
                    .then(b.routed_tokens().cmp(&a.routed_tokens()))
                    .then(b.index.cmp(&a.index))
            })
            .map(|(_, r)| r.index)
            .expect("invariant: clusters have at least one replica")
    }
}

/// Queue-aware routing: probe every replica for the longest reusable
/// cached prefix (like [`PrefixAware`], including the device-over-host
/// preference on depth ties) but then break ties toward the replica with
/// the fewest *outstanding queued tokens*, then fewest routed tokens,
/// then the lowest index.
///
/// Under the instantaneous [`Cluster`] every queue reads 0 and this
/// degenerates to exactly [`PrefixAware`]; under the event-driven
/// [`EventCluster`](crate::EventCluster) it is the policy that finally
/// trades prefix locality against real-time load — a deep cached prefix
/// on a replica with a long backlog can still win, but among equally-warm
/// replicas the request joins the shortest queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueAware;

impl Router for QueueAware {
    fn name(&self) -> &str {
        "queue-aware"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        replicas
            .iter()
            .map(|r| (r.probe_tiers(&req.input), r))
            .max_by(|(pa, a), (pb, b)| {
                pa.tokens
                    .cmp(&pb.tokens)
                    .then(pb.host_tokens.cmp(&pa.host_tokens))
                    .then(b.queued_tokens.cmp(&a.queued_tokens))
                    // Queues tie (e.g. an idle fleet, or the instantaneous
                    // cluster where depth is always 0): spread by
                    // cumulative routed load like `PrefixAware`, so the
                    // policy never funnels cold traffic to replica 0.
                    .then(b.routed_tokens().cmp(&a.routed_tokens()))
                    .then(b.index.cmp(&a.index))
            })
            .map(|(_, r)| r.index)
            .expect("invariant: clusters have at least one replica")
    }
}

/// Snapshot of every replica's router-visible state for a
/// [`TraceEvent::RouterDecision`], built only while a tracer is enabled.
/// Uses the same non-mutating probes the routers use, so capturing it
/// leaves every replica byte-identical.
fn trace_probes(req: &Request, statuses: &[ReplicaStatus<'_>]) -> Vec<ReplicaProbe> {
    statuses
        .iter()
        .map(|s| {
            let tiers = s.probe_tiers(&req.input);
            ReplicaProbe {
                replica: s.index() as u64,
                matched_tokens: tiers.tokens,
                host_tokens: tiers.host_tokens,
                queued_tokens: s.queued_tokens(),
                routed_tokens: s.routed_tokens(),
            }
        })
        .collect()
}

/// Which comparator stage decided a routing choice, replayed
/// observationally from the probes: the first stage of the
/// prefix-/queue-aware total order at which a unique survivor remains.
/// Hash- and rotation-based routers report their policy name; unknown
/// custom routers report `custom`.
fn route_tie_break(router: &str, probes: &[ReplicaProbe]) -> &'static str {
    if probes.len() <= 1 {
        return "single-replica";
    }
    match router {
        "round-robin" => return "round-robin",
        "session-affinity" => return "session-affinity",
        "prefix-aware" | "queue-aware" => {}
        _ => return "custom",
    }
    /// One comparator stage: (label, probe key, whether max survives).
    type Stage = (&'static str, fn(&ReplicaProbe) -> u64, bool);
    let mut survivors: Vec<&ReplicaProbe> = probes.iter().collect();
    let stages: [Stage; 4] = [
        ("prefix-tokens", |p| p.matched_tokens, true),
        ("host-tokens", |p| p.host_tokens, false),
        ("queue-depth", |p| p.queued_tokens, false),
        ("routed-tokens", |p| p.routed_tokens, false),
    ];
    for (label, key, prefer_max) in stages {
        if label == "queue-depth" && router != "queue-aware" {
            continue;
        }
        let best = survivors
            .iter()
            .map(|p| key(p))
            .fold(None, |acc: Option<u64>, v| {
                Some(match acc {
                    None => v,
                    Some(a) if prefer_max => a.max(v),
                    Some(a) => a.min(v),
                })
            });
        let Some(best) = best else { break };
        survivors.retain(|p| key(p) == best);
        if survivors.len() == 1 {
            return label;
        }
    }
    "replica-index"
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
        let probes = trace_probes(req, &statuses);
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

/// N cache replicas behind a router, each served like a single
/// [`Engine`].
///
/// # Examples
///
/// ```
/// use marconi_model::ModelConfig;
/// use marconi_sim::{Cluster, RoutingPolicy};
/// use marconi_workload::{DatasetKind, TraceGenerator};
///
/// let trace = TraceGenerator::new(DatasetKind::ShareGpt)
///     .sessions(8)
///     .tenants(4)
///     .seed(3)
///     .generate();
/// let mut cluster = Cluster::builder(ModelConfig::hybrid_7b())
///     .replicas(4)
///     .total_capacity_bytes(16 << 30)
///     .routing(RoutingPolicy::PrefixAware)
///     .build();
/// let report = cluster.run(&trace);
/// assert_eq!(report.assignments.len(), trace.len());
/// assert_eq!(report.replicas.len(), 4);
/// ```
#[derive(Debug)]
pub struct Cluster {
    replicas: Vec<Engine<HybridPrefixCache>>,
    router: Box<dyn Router>,
    tracer: Tracer,
}

impl Cluster {
    /// Starts building a cluster of caches for `model`.
    ///
    /// Defaults: 1 replica, 16 GiB total capacity, the cache's default
    /// (Marconi auto-tuned) eviction policy, [`RoutingPolicy::PrefixAware`],
    /// a 4×A100 device model per replica.
    #[must_use]
    pub fn builder(model: ModelConfig) -> ClusterBuilder {
        ClusterBuilder::new(model, RoutingPolicy::PrefixAware)
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Read access to one replica's cache (diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn replica_cache(&self, index: usize) -> &HybridPrefixCache {
        self.replicas[index].cache()
    }

    /// The active router's name.
    #[must_use]
    pub fn router_name(&self) -> &str {
        self.router.name()
    }

    /// Attaches a tracer to the cluster layer's own decisions (routing
    /// choices with per-replica probes, reload pricing). Replica caches
    /// stay untraced; trace a single-cache run for cache-level events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for engine in &mut self.replicas {
            engine.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Replays `trace`, routing each request as it arrives to the engine
    /// that then serves it. Cache and cursor state persist across calls
    /// (like `Engine`), but each call reports only its own requests.
    ///
    /// # Panics
    ///
    /// Panics if the router returns an out-of-range replica index.
    pub fn run(&mut self, trace: &Trace) -> ClusterReport {
        let before: Vec<CacheStats> = self.replicas.iter().map(|e| *e.cache().stats()).collect();
        let mut records = vec![Vec::new(); self.replicas.len()];
        let mut assignments = Vec::with_capacity(trace.len());
        for req in &trace.requests {
            // The analytic discipline never queues: every depth reads 0.
            let caches = self.replicas.iter().map(|e| (e.cache(), 0));
            let idx = route(&mut *self.router, &self.tracer, req, caches);
            records[idx].push(self.replicas[idx].serve(req));
            assignments.push(idx);
        }
        let replicas = self
            .replicas
            .iter()
            .zip(records)
            .map(|(e, records)| e.replica.report(trace, records, 0.0, 0))
            .collect();
        ClusterReport::new(self.router.name(), trace, replicas, &before, assignments)
    }
}

/// Builder for [`Cluster`] and, as
/// [`EventClusterBuilder`](crate::EventClusterBuilder), for
/// [`EventCluster`](crate::EventCluster): the type parameter is the cluster
/// it builds. See [`Cluster::builder`] and
/// [`EventCluster::builder`](crate::EventCluster::builder).
#[derive(Debug)]
pub struct ClusterBuilder<T = Cluster> {
    model: ModelConfig,
    replicas: usize,
    total_capacity: u64,
    total_host_capacity: u64,
    reload_policy: ReloadPolicy,
    policy: EvictionPolicy,
    checkpoint_mode: CheckpointMode,
    pub(crate) service: ServiceMode,
    pub(crate) batch: BatchConfig,
    pub(crate) router: Box<dyn Router>,
    builds: PhantomData<fn() -> T>,
}

impl<T> ClusterBuilder<T> {
    pub(crate) fn new(model: ModelConfig, routing: RoutingPolicy) -> Self {
        ClusterBuilder {
            model,
            replicas: 1,
            total_capacity: 16 << 30,
            total_host_capacity: 0,
            reload_policy: ReloadPolicy::default(),
            policy: EvictionPolicy::default(),
            checkpoint_mode: CheckpointMode::Exact,
            service: ServiceMode::Modeled(GpuModel::a100_x4()),
            batch: BatchConfig::default(),
            router: routing.build(),
            builds: PhantomData,
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

    /// Sets every replica's reload policy for host-resident hits (default
    /// [`ReloadPolicy::ComputeOrLoad`]).
    #[must_use]
    pub fn reload_policy(mut self, policy: ReloadPolicy) -> Self {
        self.reload_policy = policy;
        self
    }

    /// Sets every replica's eviction policy (default: the cache's default,
    /// Marconi's auto-tuned FLOP-aware policy).
    #[must_use]
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets every replica's SSM checkpoint mode (default
    /// [`CheckpointMode::Exact`]).
    #[must_use]
    pub fn checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.checkpoint_mode = mode;
        self
    }

    /// Sets the per-replica device model.
    #[must_use]
    pub fn gpu(mut self, gpu: GpuModel) -> Self {
        self.service = ServiceMode::Modeled(gpu);
        self
    }

    /// Selects a built-in routing policy (default
    /// [`RoutingPolicy::PrefixAware`] for [`Cluster`],
    /// [`RoutingPolicy::QueueAware`] for
    /// [`EventCluster`](crate::EventCluster)).
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

    /// The one place replica caches are configured: every replica gets an
    /// equal `total / n` slice of both the device capacity and the host
    /// budget, the same policy/checkpoint/reload knobs, and its index as
    /// its trace label (the tuner-replica-fidelity lesson of PR 2: any new
    /// cache knob must flow through here to reach both clusters).
    pub(crate) fn build_replicas(&self) -> Vec<Replica<HybridPrefixCache>> {
        let n = self.replicas as u64;
        (0..self.replicas)
            .map(|index| {
                let cache = HybridPrefixCache::builder(self.model.clone())
                    .capacity_bytes(self.total_capacity / n)
                    .host_capacity_bytes(self.total_host_capacity / n)
                    .policy(self.policy.clone())
                    .checkpoint_mode(self.checkpoint_mode)
                    .reload_policy(self.reload_policy)
                    .build();
                Replica::new(cache, Some(index))
            })
            .collect()
    }
}

impl ClusterBuilder<Cluster> {
    /// Builds the cluster.
    pub fn build(self) -> Cluster {
        let gpu = self
            .service
            .gpu()
            .expect("invariant: only the event builder can drop the device model");
        Cluster {
            replicas: self
                .build_replicas()
                .into_iter()
                .map(|replica| Engine {
                    replica,
                    gpu: gpu.clone(),
                })
                .collect(),
            router: self.router,
            tracer: Tracer::off(),
        }
    }
}

/// Result of one [`Cluster::run`] or
/// [`EventCluster::run`](crate::EventCluster::run): per-replica breakdowns
/// plus the assignment log.
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

    /// Cluster-wide cache statistics: the per-replica counters summed.
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

    /// Cluster-wide token hit rate: hit tokens over input tokens, summed
    /// across replicas.
    #[must_use]
    pub fn aggregate_token_hit_rate(&self) -> f64 {
        self.aggregate_stats().token_hit_rate()
    }

    /// Cluster-wide hit tokens split by serving tier.
    #[must_use]
    pub fn hit_tier_split(&self) -> TierSplit {
        let mut total = TierSplit::default();
        for rep in &self.replicas {
            total.accumulate(&rep.hit_tier_split());
        }
        total
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

    /// Requests routed to each replica during this run.
    #[must_use]
    pub fn assignment_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.replicas.len()];
        for &idx in &self.assignments {
            counts[idx] += 1;
        }
        counts
    }

    /// Load-imbalance statistics over per-replica routed input tokens.
    #[must_use]
    pub fn load_imbalance(&self) -> Option<LoadImbalance> {
        let loads: Vec<f64> = self.replica_loads().iter().map(|&t| t as f64).collect();
        LoadImbalance::new(&loads)
    }

    /// All per-request TTFTs across replicas, in global arrival order.
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

    /// Cluster-wide TTFT distribution summary; `None` for an empty run.
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

    fn cluster(n: usize, policy: RoutingPolicy, capacity: u64) -> Cluster {
        Cluster::builder(ModelConfig::hybrid_7b())
            .replicas(n)
            .total_capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .routing(policy)
            .build()
    }

    #[test]
    fn n1_cluster_reproduces_single_node_engine_under_every_router() {
        // The parity anchor: a cluster of one replica is the single-node
        // simulator, byte for byte, regardless of router — so everything
        // the paper-claims suite establishes about the engine transfers.
        let trace = multi_tenant_trace(11);
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
                let mut c = Cluster::builder(ModelConfig::hybrid_7b())
                    .replicas(1)
                    .total_capacity_bytes(capacity)
                    .policy(policy.clone())
                    .routing(routing)
                    .build();
                let report = c.run(&trace);
                assert_eq!(
                    report.replicas[0].cache_stats, single.cache_stats,
                    "{routing}/{policy}: CacheStats must be byte-identical"
                );
                assert_eq!(
                    report.replicas[0].records, single.records,
                    "{routing}/{policy}: per-request records must match"
                );
                assert!(report.assignments.iter().all(|&i| i == 0));
            }
        }
    }

    #[test]
    fn cluster_resumes_session_cursors() {
        // `Cluster` serves through `Engine`'s own per-request step, so the
        // session fast path reaches it: later turns resume from the cursor
        // their replica's previous turn deposited — and, hinted ≡ unhinted,
        // the report is the one a cursor-less cluster produces.
        use marconi_trace::RingRecorder;
        let trace = multi_tenant_trace(17);
        assert!(
            trace.requests.iter().any(|r| r.turn > 0),
            "multi-turn trace"
        );
        let run = |cursors: bool| {
            let mut c = cluster(2, RoutingPolicy::SessionAffinity, 4 << 30);
            let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 14));
            for engine in &mut c.replicas {
                engine.replica.cache.set_tracer(tracer.clone());
                if !cursors {
                    engine.set_session_cursor_capacity(0);
                }
            }
            let report = c.run(&trace);
            let resumed = recorder
                .lock()
                .expect("lock: test-local recorder")
                .events()
                .filter(|e| matches!(e.event, TraceEvent::CursorResumed { .. }))
                .count();
            (report, resumed)
        };
        let (with_cursors, resumed) = run(true);
        let (without, cold) = run(false);
        assert!(resumed > 0, "later turns must resume from their cursor");
        assert_eq!(cold, 0, "capacity 0 disables the fast path");
        assert_eq!(with_cursors, without);
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
        // The instantaneous cluster never forms queues (queued_tokens is
        // always 0), so queue-aware routing must reproduce prefix-aware
        // assignments exactly — the queue tie-breaker only bites in the
        // event-driven cluster.
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
        let mut c = Cluster::builder(model.clone())
            .replicas(2)
            .total_capacity_bytes(8 << 30)
            .policy(EvictionPolicy::Lru)
            .routing(RoutingPolicy::PrefixAware)
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
    fn host_capacity_and_reload_policy_reach_every_replica() {
        // The build_replicas fidelity rule extended to the tier knobs: a
        // cluster-wide host budget slices like the device capacity, and
        // the reload policy reaches each cache.
        let c = Cluster::builder(ModelConfig::hybrid_7b())
            .replicas(4)
            .total_capacity_bytes(16 << 30)
            .total_host_capacity_bytes(64 << 30)
            .reload_policy(marconi_core::ReloadPolicy::AlwaysReload)
            .routing(RoutingPolicy::PrefixAware)
            .build();
        for i in 0..4 {
            assert_eq!(c.replica_cache(i).host_capacity_bytes(), 16 << 30);
            assert_eq!(
                c.replica_cache(i).reload_policy(),
                marconi_core::ReloadPolicy::AlwaysReload
            );
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
        let counts = report.assignment_counts();
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
