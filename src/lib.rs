//! # Marconi
//!
//! A prefix-caching library for **hybrid LLMs** — models that interleave
//! quadratic Attention layers with subquadratic, recurrently-updated State
//! Space Model (SSM) layers. This crate is a from-scratch Rust reproduction
//! of *"Marconi: Prefix Caching for the Era of Hybrid LLMs"* (MLSys 2025).
//!
//! Because SSM layers update their state **in place**, a sequence's state
//! cannot be rolled back to represent one of its prefixes: prefix reuse is
//! *all or nothing* at checkpointed boundaries. Marconi handles this with
//! two policies:
//!
//! * **Judicious admission** — only SSM states with high reuse likelihood
//!   are checkpointed: states at branch points discovered by *speculative
//!   insertion* into a radix tree (purely-input reuse, e.g. shared system
//!   prompts), and the state at the last decoded token (input-and-output
//!   reuse, e.g. conversation history).
//! * **FLOP-aware eviction** — cache entries are scored by
//!   `S(n) = recency(n) + α · flop_efficiency(n)`, trading the hit rate of
//!   short sequences for long ones, where hybrid models save the most
//!   compute.
//!
//! ## Quickstart
//!
//! ```
//! use marconi::prelude::*;
//!
//! // A 7B hybrid model: 4 Attention, 24 SSM, 28 MLP layers.
//! let model = ModelConfig::hybrid_7b();
//! // 1 GiB cache with Marconi's policies.
//! let mut cache = HybridPrefixCache::builder(model)
//!     .capacity_bytes(1 << 30)
//!     .build();
//!
//! // First request: a cold miss; admit its states.
//! let input: Vec<Token> = (0..512).collect();
//! let output: Vec<Token> = (1000..1064).collect();
//! let hit = cache.lookup(&input);
//! assert_eq!(hit.tokens_matched, 0);
//! cache.insert_sequence(&input, &output);
//!
//! // A follow-up turn extends the conversation: the state checkpointed at
//! // the last decoded token now yields an exact-match hit.
//! let mut next_turn = input.clone();
//! next_turn.extend_from_slice(&output);
//! next_turn.extend(2000..2032);
//! let hit = cache.lookup(&next_turn);
//! assert_eq!(hit.tokens_matched as usize, input.len() + output.len());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`model`] | layer/FLOP/memory math (paper Table 1), model presets |
//! | [`radix`] | token radix tree substrate with speculative insertion |
//! | [`cache`] | [`HybridPrefixCache`], eviction policies, baselines |
//! | [`workload`] | seeded LMSys/ShareGPT/SWEBench-like trace generators |
//! | [`sim`] | trace-driven serving simulator with a GPU timing model |
//! | [`metrics`] | percentiles, CDFs, box stats, histograms |
//! | [`trace`] | deterministic flight recorder: structured decision events, miss attribution, exporters |
//!
//! [`HybridPrefixCache`]: cache::HybridPrefixCache

pub use marconi_core as cache;
pub use marconi_metrics as metrics;
pub use marconi_model as model;
pub use marconi_radix as radix;
pub use marconi_sim as sim;
pub use marconi_trace as trace;
pub use marconi_workload as workload;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use marconi_core::{
        BlockReuseReport, CacheStats, CheckpointMode, EvictionPolicy, HybridPrefixCache,
        LookupResult, PrefixCache, ReloadPolicy, Tier, TieredPrefix, VanillaCache,
    };
    pub use marconi_metrics::{BoxStats, LatencySummary, Percentiles, TierSplit};
    pub use marconi_model::{
        FlopBreakdown, LayerKind, MemoryBandwidths, ModelConfig, StateFootprint,
    };
    pub use marconi_radix::{RadixTree, Token};
    pub use marconi_sim::{
        vllm_plus, BatchConfig, ClusterReport, Comparison, Engine, EventCluster, EventReport,
        EventSim, GpuModel, RequestRecord, Router, RoutingPolicy, SimReport,
    };
    pub use marconi_trace::{
        MissReport, NullSink, ReloadDecision, RingRecorder, TraceEvent, TraceSink, Tracer,
    };
    pub use marconi_workload::{ArrivalConfig, DatasetKind, Request, Trace, TraceGenerator};
}
