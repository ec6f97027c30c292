//! Trace-driven serving simulator for hybrid-LLM prefix caching.
//!
//! Replays a [`marconi_workload::Trace`] against any
//! [`marconi_core::PrefixCache`], producing per-request records (hit
//! tokens, FLOPs, TTFT) and aggregate reports. TTFT comes from an analytic
//! [`GpuModel`]: prefill is compute-bound, so time-to-first-token is the
//! FLOPs of the *uncached* prefill portion divided by effective device
//! throughput plus a fixed overhead (DESIGN.md documents this substitution
//! for the paper's 4×A100 testbed).
//!
//! The [`Comparison`] runner drives the same trace through Marconi and
//! every baseline (vanilla, vLLM+, SGLang+, and the offline static-α
//! oracle) for the paper's end-to-end experiments.
//!
//! Beyond the paper's single-replica setting, [`EventCluster`] shards the
//! cache across N replicas behind a pluggable [`Router`] (round-robin,
//! session-affinity, prefix-aware, or queue-aware placement; see the
//! [`cluster`] module) to study how much prefix reuse survives at cluster
//! scale; see `ARCHITECTURE.md` for the layer's contract.
//!
//! ## One step, two disciplines, one cluster
//!
//! Every driver serves a request through the same admission and completion
//! step (lookup → reload pricing, then insert → record); the service
//! disciplines differ only in when they call it. The analytic [`Engine`]
//! calls both at arrival — arrivals only *order* requests. The [`event`]
//! module is the batched discipline: arrivals pass through a per-device
//! FIFO admission queue into a continuous-batching executor
//! ([`BatchConfig`]: chunked prefill shared FIFO across batch slots, one
//! decode token per decoding request per iteration, slots freed mid-batch),
//! with iteration latencies from the same [`GpuModel`] and cache insertion
//! at request *completion*. One [`SimReport`] type serves both; under the
//! event drivers its queueing fields come alive: queueing delay,
//! load-dependent TTFT (= queue + prefill), device utilization, and goodput
//! under an SLO. [`EventCluster`] puts the batched discipline behind the
//! routers, the [`ClusterBuilder`] and the [`ClusterReport`], and its
//! [`ReplicaStatus`] carries live queue depth.
//!
//! **Determinism guarantees:** the event layer is a pure function of
//! `(trace, cache config, BatchConfig, service mode)` — no wall clock and
//! no unseeded randomness anywhere in the subsystem; simultaneous events
//! resolve executor-before-arrival, then by replica index, then FIFO. In
//! the infinite-throughput limit ([`EventSim::instantaneous`],
//! [`ClusterBuilder::instantaneous`]) it reproduces [`Engine`]'s cache
//! decisions **byte-for-byte** (the zero-load parity contract in
//! `ARCHITECTURE.md`).
//!
//! # Examples
//!
//! ```
//! use marconi_model::ModelConfig;
//! use marconi_sim::{Comparison, SystemKind};
//! use marconi_workload::{DatasetKind, TraceGenerator};
//!
//! let trace = TraceGenerator::new(DatasetKind::ShareGpt)
//!     .sessions(5)
//!     .seed(1)
//!     .generate();
//! let cmp = Comparison::new(ModelConfig::hybrid_7b(), 4 << 30)
//!     .systems(&[SystemKind::Vanilla, SystemKind::Marconi])
//!     .run(&trace);
//! let marconi = cmp.report(SystemKind::Marconi).unwrap();
//! let vanilla = cmp.report(SystemKind::Vanilla).unwrap();
//! assert!(marconi.token_hit_rate() >= vanilla.token_hit_rate());
//! ```

pub mod cluster;
mod comparison;
mod engine;
pub mod event;
mod executor;
mod gpu;
mod report;

pub use cluster::{
    ClusterBuilder, ClusterReport, PrefixAware, QueueAware, ReplicaStatus, RoundRobin, Router,
    RoutingPolicy, SessionAffinity,
};
pub use comparison::{vllm_plus, Comparison, ComparisonResult, SystemKind};
pub use engine::Engine;
pub use event::{EventCluster, EventClusterReport, EventReport, EventSim};
pub use executor::BatchConfig;
pub use gpu::{decode_token_flops, GpuModel};
pub use report::{RequestRecord, SimReport};
