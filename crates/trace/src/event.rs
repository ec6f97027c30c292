//! Structured decision events.
//!
//! One [`TraceEvent`] per consequential decision. Node ids are carried as
//! their arena indices (`u64`) so the event schema is independent of the
//! radix crate's id representation; timestamps (`ts`) are the caller's
//! virtual-clock seconds. The recorder assigns a monotone sequence number
//! at record time ([`SeqEvent`]), giving a total order even when several
//! events share a virtual timestamp.
//!
//! Cache names are carried as `Arc<str>`: every emitting cache holds its
//! name refcounted, so building an event clones a pointer instead of
//! heap-allocating a `String` — the dominant cost of the live-recording
//! hot path before PR 10 (BENCH_9 measured +19.7% with a `RingRecorder`
//! attached).

/// Memory tier an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTier {
    /// Device HBM (the capacity-bounded tier).
    Device,
    /// Host DRAM (the demotion target).
    Host,
}

impl TraceTier {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceTier::Device => "device",
            TraceTier::Host => "host",
        }
    }
}

/// Why an eviction episode ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureCause {
    /// Device usage exceeded the device capacity (phase 1).
    DeviceCapacity,
    /// Host usage exceeded the host budget (phase 2).
    HostCapacity,
    /// The device candidate pool drained while still over capacity; the
    /// O(arena) fallback pass demoted non-candidate nodes.
    DeviceFallback,
}

impl PressureCause {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PressureCause::DeviceCapacity => "device-capacity",
            PressureCause::HostCapacity => "host-capacity",
            PressureCause::DeviceFallback => "device-fallback",
        }
    }
}

/// What happened to one victim inside an eviction episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimAction {
    /// Deleted outright (bytes freed).
    Evicted,
    /// Moved device → host (bytes retained, demoted).
    Demoted,
}

impl VictimAction {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VictimAction::Evicted => "evicted",
            VictimAction::Demoted => "demoted",
        }
    }
}

/// Per-victim score breakdown recorded by an eviction episode: the two
/// inputs of `S(n) = recency + α · flop_efficiency` (the episode carries
/// the α), plus what the action freed or moved.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimRecord {
    /// Arena index of the victim node.
    pub node: u64,
    /// Token depth of the victim (root through its edge).
    pub depth: u64,
    /// The recency input of the score (the node's last-access time).
    pub last_access: f64,
    /// The FLOP-efficiency input of the score (saved FLOPs per byte).
    pub flop_efficiency: f64,
    /// Bytes freed (evicted) or moved (demoted) by the action.
    pub bytes: u64,
    /// Whether the victim was deleted or demoted.
    pub action: VictimAction,
}

/// Which way a compute-or-load decision went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadDecision {
    /// Transfer the host-resident bytes over PCIe.
    Load,
    /// Recompute the prefix on the device instead.
    Recompute,
}

impl ReloadDecision {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReloadDecision::Load => "load",
            ReloadDecision::Recompute => "recompute",
        }
    }
}

/// Why a lookup missed (or was degraded), per the miss-attribution
/// taxonomy. A clean full-length device hit carries no cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissCause {
    /// The prefix was never cached.
    Cold,
    /// The prefix was cached but deleted under capacity pressure.
    CapacityEvicted,
    /// The prefix was deleted while *other* nodes were pinned — an
    /// innocent bystander squeezed by in-flight protection.
    PinnedBystander,
    /// The prefix hit, but from the host tier (it had been demoted), so
    /// reuse required a transfer or recompute.
    DemotedHostHit,
    /// A raw token match existed but no SSM checkpoint was taken at that
    /// boundary, so the all-or-nothing SSM rule forfeited the reuse.
    NeverCheckpointedSsm,
}

impl MissCause {
    /// Stable kebab-case label used by the exporters and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MissCause::Cold => "cold",
            MissCause::CapacityEvicted => "capacity-evicted",
            MissCause::PinnedBystander => "pinned-bystander",
            MissCause::DemotedHostHit => "demoted-then-host-hit",
            MissCause::NeverCheckpointedSsm => "never-checkpointed-ssm",
        }
    }
}

/// Why a session-cursor hint was rejected and the operation fell back to
/// the root walk. Fallbacks are always safe (the root walk is the ground
/// truth); the cause is telemetry for tuning cursor-table sizing and
/// spotting pathologies (e.g. a workload whose sessions hop shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorFallbackCause {
    /// The resume node was evicted (its arena slot was freed or reused).
    StaleGeneration,
    /// The resume node's structure version moved past the cursor (an edge
    /// merge absorbed into it, its leaf status flipped, or its edge
    /// changed), so the memoized match can no longer be trusted.
    StructureChanged,
    /// The query does not extend the cursor's matched prefix (shorter than
    /// the match, or diverging at the resume edge).
    QueryDiverged,
    /// The resume node's state was demoted off the device tier; the
    /// session has gone cold enough that the hint is not trusted.
    ResumeDemoted,
    /// The hint was minted by a different shard of a sharded cache;
    /// cursors are shard-local by construction.
    CrossShard,
}

impl CursorFallbackCause {
    /// Stable kebab-case label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CursorFallbackCause::StaleGeneration => "stale-generation",
            CursorFallbackCause::StructureChanged => "structure-changed",
            CursorFallbackCause::QueryDiverged => "query-diverged",
            CursorFallbackCause::ResumeDemoted => "resume-demoted",
            CursorFallbackCause::CrossShard => "cross-shard",
        }
    }
}

/// The cache counters a [`TraceEvent::Gauges`] snapshot carries — the
/// subset of `CacheStats` the live-telemetry views derive rates from.
/// Cumulative, so two snapshots subtract into a window (the same
/// `delta_since` arithmetic `CacheStats` exposes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatCounters {
    /// Lookups served.
    pub lookups: u64,
    /// Lookups that reused a non-empty prefix.
    pub hits: u64,
    /// Total input tokens across all lookups.
    pub input_tokens: u64,
    /// Total tokens served from cache.
    pub hit_tokens: u64,
    /// Tokens of hits whose state was host-resident at lookup time.
    pub host_hit_tokens: u64,
    /// Entries deleted outright.
    pub evictions: u64,
    /// Entries demoted device → host.
    pub demotions: u64,
}

/// One replica's view at routing time, as probed by the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaProbe {
    /// Replica index.
    pub replica: u64,
    /// Longest reusable cached prefix of the request on this replica.
    pub matched_tokens: u64,
    /// Host-resident share of that match.
    pub host_tokens: u64,
    /// Tokens enqueued but not yet admitted (0 for instantaneous sims).
    pub queued_tokens: u64,
    /// Input tokens already routed to this replica.
    pub routed_tokens: u64,
}

/// A structured decision event. See the crate docs for the taxonomy; the
/// exporters serialize each variant under the stable name returned by
/// [`TraceEvent::kind`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A cache lookup resolved, with hit/miss attribution.
    Lookup {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache that served the lookup.
        cache: std::sync::Arc<str>,
        /// Length of the request's input in tokens.
        input_len: u64,
        /// Reusable tokens matched (the hit length).
        matched: u64,
        /// Host-resident share of the match.
        host_tokens: u64,
        /// Raw radix-tree match length before SSM all-or-nothing
        /// truncation (`>= matched`; the gap is forfeited reuse).
        raw_matched: u64,
        /// Why the lookup missed or was degraded; `None` for a clean
        /// full-length device hit.
        attribution: Option<MissCause>,
    },
    /// A completed request's states were admitted.
    Admission {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the admitting cache.
        cache: std::sync::Arc<str>,
        /// Prefilled input length in tokens.
        input_len: u64,
        /// Decoded output length in tokens.
        output_len: u64,
        /// SSM checkpoints taken for this sequence (≤ 2, per the paper's
        /// judicious-admission rule).
        checkpoints: u64,
        /// New tokens added to the tree by this admission.
        new_tokens: u64,
    },
    /// An insertion split an existing edge (a new branch point).
    EdgeSplit {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Arena index of the new intermediate node.
        node: u64,
        /// Arena index of the new leaf holding the un-shared suffix, if
        /// one was created.
        new_leaf: Option<u64>,
    },
    /// A removal merged a single-child node's edge into its child.
    EdgeMerge {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Arena index of the removed node.
        removed: u64,
        /// Arena index of the child that absorbed the edge.
        merged_into: u64,
    },
    /// One pressure episode: how many nodes it could have taken and every
    /// victim it took, with per-victim score inputs.
    EvictionEpisode {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache under pressure.
        cache: std::sync::Arc<str>,
        /// Tier the episode relieved.
        tier: TraceTier,
        /// Why the episode ran.
        cause: PressureCause,
        /// Nodes eligible as victims when the episode started: eviction
        /// candidates resident on `tier` and not pinned (leaves only under
        /// the leaf-only ablation); for a `device-fallback` episode, every
        /// unpinned byte-holding device node. The same count under every
        /// policy.
        pool_len: u64,
        /// The α the score `recency + α · flop_efficiency` used.
        alpha: f64,
        /// Victims in the order they were taken.
        victims: Vec<VictimRecord>,
    },
    /// Host-resident state on a re-inserted path was promoted back to the
    /// device tier.
    Promotion {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Tokens whose backing state moved host → device.
        tokens: u64,
    },
    /// An in-flight request pinned its hit path.
    Pin {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Arena index of the pinned hit node.
        node: u64,
    },
    /// A completed request released its pin.
    Unpin {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Arena index of the released node.
        node: u64,
    },
    /// The serving layer priced a host hit: transfer over PCIe vs
    /// recompute on device, and which one won.
    Reload {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache whose hit is being reloaded.
        cache: std::sync::Arc<str>,
        /// Host-resident bytes the hit needs.
        host_bytes: u64,
        /// Seconds to transfer them over PCIe.
        load_secs: f64,
        /// Seconds to recompute the prefix on device.
        recompute_secs: f64,
        /// The winner under the cache's reload policy.
        decision: ReloadDecision,
    },
    /// A cluster router picked a replica.
    RouterDecision {
        /// Virtual-clock seconds (the request's arrival).
        ts: f64,
        /// Index of the routed request in the trace.
        request: u64,
        /// The chosen replica.
        chosen: u64,
        /// Which comparator stage decided (e.g. `prefix-tokens`,
        /// `queue-depth`, `replica-index`).
        tie_break: &'static str,
        /// Every replica's probed state, in replica order.
        probes: Vec<ReplicaProbe>,
    },
    /// The event-sim admitted a request to a replica's queue.
    QueueAdmission {
        /// Virtual-clock seconds.
        ts: f64,
        /// Index of the request in the trace.
        request: u64,
        /// Queue depth after admission (requests).
        queue_depth: u64,
        /// Queued input tokens after admission.
        queued_tokens: u64,
    },
    /// One batch iteration boundary in the event-sim executor.
    BatchIteration {
        /// Virtual-clock seconds at the iteration's start.
        ts: f64,
        /// Monotone iteration counter.
        iteration: u64,
        /// Requests running in the batch.
        running: u64,
        /// Requests still queued.
        queue_depth: u64,
    },
    /// A session-cursor hint validated and the walk resumed from the deep
    /// node, consuming only the delta tokens (the PR 10 fast path).
    CursorResumed {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Arena index of the resume node.
        node: u64,
        /// Tokens the cursor skipped (the memoized matched prefix).
        resumed_len: u64,
        /// Tokens the operation actually walked past the cursor.
        delta_tokens: u64,
    },
    /// A session-cursor hint was rejected; the operation fell back to the
    /// byte-identical root walk.
    CursorFallback {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Why the hint was rejected.
        cause: CursorFallbackCause,
    },
    /// A periodic telemetry snapshot: occupancy gauges plus cumulative
    /// counters (two snapshots subtract into a window).
    Gauges {
        /// Virtual-clock seconds.
        ts: f64,
        /// Name of the cache.
        cache: std::sync::Arc<str>,
        /// Device-tier bytes resident.
        usage_bytes: u64,
        /// Host-tier bytes resident.
        host_usage_bytes: u64,
        /// Nodes currently pinned by in-flight requests.
        pinned_nodes: u64,
        /// Cumulative cache counters at snapshot time.
        counters: StatCounters,
    },
}

impl TraceEvent {
    /// Stable event-kind label (the `type` field of the JSONL schema and
    /// the event name in Chrome traces).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Lookup { .. } => "lookup",
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::EdgeSplit { .. } => "edge-split",
            TraceEvent::EdgeMerge { .. } => "edge-merge",
            TraceEvent::EvictionEpisode { .. } => "eviction-episode",
            TraceEvent::Promotion { .. } => "promotion",
            TraceEvent::Pin { .. } => "pin",
            TraceEvent::Unpin { .. } => "unpin",
            TraceEvent::Reload { .. } => "reload",
            TraceEvent::RouterDecision { .. } => "router-decision",
            TraceEvent::QueueAdmission { .. } => "queue-admission",
            TraceEvent::BatchIteration { .. } => "batch-iteration",
            TraceEvent::CursorResumed { .. } => "cursor-resumed",
            TraceEvent::CursorFallback { .. } => "cursor-fallback",
            TraceEvent::Gauges { .. } => "gauges",
        }
    }

    /// The event's virtual timestamp in seconds.
    #[must_use]
    pub fn ts(&self) -> f64 {
        match self {
            TraceEvent::Lookup { ts, .. }
            | TraceEvent::Admission { ts, .. }
            | TraceEvent::EdgeSplit { ts, .. }
            | TraceEvent::EdgeMerge { ts, .. }
            | TraceEvent::EvictionEpisode { ts, .. }
            | TraceEvent::Promotion { ts, .. }
            | TraceEvent::Pin { ts, .. }
            | TraceEvent::Unpin { ts, .. }
            | TraceEvent::Reload { ts, .. }
            | TraceEvent::RouterDecision { ts, .. }
            | TraceEvent::QueueAdmission { ts, .. }
            | TraceEvent::BatchIteration { ts, .. }
            | TraceEvent::CursorResumed { ts, .. }
            | TraceEvent::CursorFallback { ts, .. }
            | TraceEvent::Gauges { ts, .. } => *ts,
        }
    }
}

/// An event paired with the monotone sequence number the recorder
/// assigned at record time — the deterministic total order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEvent {
    /// Record-time sequence number (monotone per recorder).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}
